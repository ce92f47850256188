//! Figure 13 — cross-datacenter training efficiency on 1K GPUs.
//!
//! Paper: which traffic crosses DCs matters — DP can beat PP in some cases
//! (low-frequency, overlappable) while ZeRO-DP is worst (extremely heavy);
//! efficiency "does not drop significantly until the bandwidth
//! oversubscription ratio reaches 16:1".

use crate::{Report, Scenario};
use astral_model::{DpSync, GroupKind, ModelConfig, ParallelismConfig};
use astral_seer::{GpuSpec, NetworkSpec, Seer, SeerConfig, Testbed};
use astral_topo::{build_astral, AstralParams};

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig13",
        "Figure 13: cross-DC training efficiency (1K GPUs)",
        "DP can beat PP cross-DC; ZeRO-DP is worst; efficiency holds until \
         ~16:1 oversubscription",
    );

    // Calibrated Seer (the tool the paper uses for this case study).
    let topo = build_astral(&AstralParams::sim_small());
    let testbed = Testbed::new(&topo, GpuSpec::h100());
    let mut calib_par = ParallelismConfig::new(4, 2, 4);
    calib_par.microbatches = 4;
    let cal = testbed.calibrate(&calib_par, 42);

    // A 1K-GPU job: tp=8, pp=8, dp=16.
    let mut model = ModelConfig::llama3_70b();
    model.layers = 64;
    let mut par = ParallelismConfig::new(8, 8, 16);
    par.microbatches = 16;
    println!(
        "job: {} on {} GPUs (tp8 × pp8 × dp16), 300 km between DCs\n",
        model.name,
        par.world()
    );

    let forecast = |net: NetworkSpec, par: &ParallelismConfig| -> f64 {
        Seer::new(SeerConfig {
            gpu: GpuSpec::h100(),
            net,
            calibration: cal.clone(),
        })
        .forecast_training(&model, par)
        .iteration_s
    };

    let base = forecast(NetworkSpec::astral(), &par);
    println!("single-DC iteration: {base:.3} s\n");

    println!("--- traffic class crossing DCs (efficiency vs single-DC) ---");
    println!(
        "{:<12}{:>8}{:>8}{:>8}{:>8}",
        "class", "4:1", "8:1", "16:1", "32:1"
    );
    let mut table: Vec<(&str, Vec<f64>)> = Vec::new();
    for (label, group, zero) in [
        ("TP", GroupKind::Tp, DpSync::AllReduce),
        ("PP", GroupKind::Pp, DpSync::AllReduce),
        ("DP", GroupKind::Dp, DpSync::AllReduce),
        ("ZeRO-DP", GroupKind::Dp, DpSync::Zero3),
    ] {
        let mut p = par;
        p.zero = zero;
        let own_base = forecast(NetworkSpec::astral(), &p);
        let mut effs = Vec::new();
        for ratio in [4.0, 8.0, 16.0, 32.0] {
            let net = NetworkSpec::astral().with_crossdc(group, ratio, 300.0);
            let t = forecast(net, &p);
            effs.push(own_base / t * 100.0);
        }
        println!(
            "{:<12}{:>7.1}%{:>7.1}%{:>7.1}%{:>7.1}%",
            label, effs[0], effs[1], effs[2], effs[3]
        );
        table.push((label, effs));
    }

    let dp16 = table[2].1[2];
    let pp16 = table[1].1[2];
    let zero16 = table[3].1[2];
    let eff_rows: Vec<(String, Vec<f64>)> = table
        .iter()
        .map(|(l, e)| (l.to_string(), e.clone()))
        .collect();
    sc.series("efficiency_pct_by_class_4_8_16_32", &eff_rows);
    sc.metric("single_dc_iteration_s", base);
    sc.metric("dp_16to1_pct", dp16);
    sc.metric("pp_16to1_pct", pp16);
    sc.metric("zero_16to1_pct", zero16);
    sc.finish(&[
        (
            "DP vs PP",
            format!(
                "paper: DP can be better in some cases | at 16:1 DP {dp16:.1}% vs PP {pp16:.1}%"
            ),
        ),
        (
            "ZeRO-DP",
            format!("paper: worst (extremely heavy traffic) | {zero16:.1}% at 16:1"),
        ),
        (
            "oversubscription knee",
            format!(
                "paper: no significant drop until 16:1 | DP row: {:.1}% → {:.1}% → {:.1}% → {:.1}%",
                table[2].1[0], table[2].1[1], table[2].1[2], table[2].1[3]
            ),
        ),
    ])
}
