//! Figure 9 — hierarchical anomaly localization: the fail-slow case study.
//!
//! Paper: (a) the NCCL timeline flags communication beyond Seer's expected
//! thresholds; (b) ms-level QP rates show specific nodes below 50% of link
//! bandwidth; (c) INT reveals per-hop delays of 0.6 µs / 179 µs / 266 µs;
//! (d) PFC pause counters exceed the normal range — root cause: persistent
//! downstream congestion.

use crate::{Report, Scenario};
use astral_monitor::{
    diagnose, run_fault_scenario, CorrelationPrior, Diagnosis, Fault, IntProber, ScenarioConfig,
    Snapshot,
};
use astral_topo::{build_astral, AstralParams, HostId};

/// (a) The NCCL timeline: per-rank communication time against Seer's
/// expectation.
fn timeline_table(sc: &mut Scenario, snap: &Snapshot) {
    let expected = snap.job.as_ref().unwrap().expected_iter_s - 0.5;
    let ranks = snap.ranks.iter().take(8);
    let rows: Vec<_> = ranks
        .map(|r| (r.host.to_string(), r.comm_time_s, expected))
        .collect();
    let columns = "rank host | comm (s) | seer expectation (s)";
    sc.table("a_nccl_timeline", columns, &rows);
}

/// (d) The four links with the most PFC pause time.
fn pfc_table(sc: &mut Scenario, snap: &Snapshot) {
    let mut pfc: Vec<_> = snap.link_pfc.iter().collect();
    pfc.sort_by_key(|&(_, ns)| std::cmp::Reverse(*ns));
    let top = pfc.iter().take(4);
    let rows: Vec<_> = top
        .map(|(l, ns)| (l.to_string(), **ns as f64 / 1e6))
        .collect();
    sc.table("d_pfc_pause_top_links", "link | paused (ms)", &rows);
}

/// The analyzer's verdict, then its evidence one line per row.
fn verdict_table(sc: &mut Scenario, d: &Diagnosis) {
    let mut rows = vec![
        ("manifestation".to_string(), d.manifestation.to_string()),
        ("cause".to_string(), d.cause.to_string()),
        ("culprit".to_string(), format!("{:?}", d.culprit)),
    ];
    for (i, e) in d.evidence.iter().enumerate() {
        rows.push((format!("evidence {}", i + 1), e.to_string()));
    }
    sc.table("analyzer_verdict", "field | value", &rows);
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

    timeline_table(&mut sc, snap);

    // (b) QP ms-rates.
    let mut rates: Vec<_> = snap.qp_rate_frac.iter().collect();
    rates.sort_by(|a, b| a.1.partial_cmp(b.1).expect("finite"));
    let rate_rows: Vec<_> = rates
        .iter()
        .take(6)
        .map(|(qp, frac)| {
            let flag = if **frac < 0.5 { "below 50%" } else { "" };
            (qp.to_string(), **frac * 100.0, flag)
        })
        .collect();
    sc.table(
        "b_qp_ms_rates",
        "QP | rate (% of 200G port) | flag",
        &rate_rows,
    );

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
    let hops: Vec<_> = probe
        .hops
        .iter()
        .map(|h| {
            let delay_us = h.delay.as_nanos() as f64 / 1e3;
            (h.node.to_string(), h.link.to_string(), delay_us)
        })
        .collect();
    sc.table(
        "c_int_hop_delay_slowest_qp",
        "node | out link | delay (us)",
        &hops,
    );

    pfc_table(&mut sc, snap);

    // The verdict.
    let d = diagnose(snap, &outcome.prober, &CorrelationPrior::default());
    verdict_table(&mut sc, &d);

    let hop_delays_us: Vec<f64> = hops.iter().map(|h| h.2).collect();
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
