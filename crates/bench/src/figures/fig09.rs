//! Figure 9 — hierarchical anomaly localization: the fail-slow case study.
//!
//! Paper: (a) the NCCL timeline flags communication beyond Seer's expected
//! thresholds; (b) ms-level QP rates show specific nodes below 50% of link
//! bandwidth; (c) INT reveals per-hop delays of 0.6 µs / 179 µs / 266 µs;
//! (d) PFC pause counters exceed the normal range — root cause: persistent
//! downstream congestion.

use crate::{Report, Scenario};
use astral_monitor::{
    diagnose, run_fault_scenario, CorrelationPrior, Fault, IntProber, ScenarioConfig, Snapshot,
};
use astral_topo::{build_astral, AstralParams, HostId};

/// (a) The NCCL timeline: per-rank communication time against Seer's
/// expectation.
fn print_timeline(snap: &Snapshot) {
    println!(
        "(a) NCCL timeline (per-rank comm time, Seer expectation {:.3}s):",
        snap.job.as_ref().unwrap().expected_iter_s - 0.5
    );
    for r in snap.ranks.iter().take(8) {
        println!("    {}: comm {:.3} s", r.host, r.comm_time_s);
    }
}

/// (d) The four links with the most PFC pause time.
fn print_pfc(snap: &Snapshot) {
    println!("\n(d) PFC pause counters (top 4 links):");
    let mut pfc: Vec<_> = snap.link_pfc.iter().collect();
    pfc.sort_by_key(|&(_, ns)| std::cmp::Reverse(*ns));
    for (l, ns) in pfc.iter().take(4) {
        println!("    link {l}: {:>10.3} ms paused", **ns as f64 / 1e6);
    }
}

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig09",
        "Figure 9: hierarchical anomaly localization (fail-slow case)",
        "NCCL timeline → QP <50% rate → INT hop delays (0.6/179/266 µs) → \
         PFC counters → root cause at the congested drain",
    );

    let topo = build_astral(&AstralParams::sim_small());
    // Spread the job across blocks so flow paths traverse ToR → Agg →
    // ToR (the multi-hop INT view of the paper's heat map).
    let outcome = run_fault_scenario(
        &topo,
        Fault::PcieDegrade {
            host: HostId(0),
            factor: 0.2,
        },
        &ScenarioConfig {
            host_stride: 8,
            ..ScenarioConfig::default()
        },
    );
    sc.solver(&outcome.solver);
    let snap = &outcome.snapshot;

    print_timeline(snap);

    // (b) QP ms-rates.
    println!("\n(b) QP ms-level rates (fraction of the 200G port):");
    let mut rates: Vec<_> = snap.qp_rate_frac.iter().collect();
    rates.sort_by(|a, b| a.1.partial_cmp(b.1).expect("finite"));
    for (qp, frac) in rates.iter().take(6) {
        println!(
            "    {qp}: {:>5.1}%{}",
            **frac * 100.0,
            if **frac < 0.5 { "   <-- below 50%" } else { "" }
        );
    }

    // (c) INT per-hop delays along a slow QP with a multi-hop path.
    let (slow_qp, _) = rates
        .iter()
        .find(|(qp, _)| {
            snap.qp(**qp).is_some_and(|r| {
                outcome
                    .prober
                    .probe(r.src_nic, r.dst_nic, r.tuple.src_port)
                    .hops
                    .len()
                    >= 4
            })
        })
        .unwrap_or(&rates[0]);
    let rec = snap.qp(**slow_qp).expect("registered");
    let probe = outcome
        .prober
        .probe(rec.src_nic, rec.dst_nic, rec.tuple.src_port);
    println!("\n(c) INT per-hop delay on the slowest QP's path:");
    for h in &probe.hops {
        println!(
            "    {} --{}--> : {:>9.1} µs",
            h.node,
            h.link,
            h.delay.as_nanos() as f64 / 1e3
        );
    }

    print_pfc(snap);

    // The verdict.
    let d = diagnose(snap, &outcome.prober, &CorrelationPrior::default());
    println!(
        "\nanalyzer verdict: {} / {} / {:?}",
        d.manifestation, d.cause, d.culprit
    );
    for (i, e) in d.evidence.iter().enumerate() {
        println!("  {}. {e}", i + 1);
    }

    let hop_delays_us: Vec<f64> = probe
        .hops
        .iter()
        .map(|h| h.delay.as_nanos() as f64 / 1e3)
        .collect();
    let max_hop_us = hop_delays_us.iter().copied().fold(0.0f64, f64::max);
    let min_hop_us = hop_delays_us.iter().copied().fold(f64::INFINITY, f64::min);
    sc.series("int_hop_delays_us", &hop_delays_us);
    sc.metric("slowest_qp_rate_pct", *rates[0].1 * 100.0);
    sc.metric("min_hop_us", min_hop_us);
    sc.metric("max_hop_us", max_hop_us);
    sc.metric("verdict", format!("{:?}", d.culprit));
    sc.finish(&[
        (
            "QP rate evidence",
            format!(
                "paper <50% of link bw | measured slowest QP at {:.0}%",
                *rates[0].1 * 100.0
            ),
        ),
        (
            "INT hop contrast",
            format!(
                "paper 0.6µs normal vs 179/266µs congested | measured {min_hop_us:.1}µs vs {max_hop_us:.1}µs"
            ),
        ),
        (
            "localization",
            format!("paper: congested downstream drain | verdict {:?}", d.culprit),
        ),
    ])
}
