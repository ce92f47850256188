//! Pins the whole fault pipeline: every `Fault` variant is injected by
//! `run_fault_scenario` on `sim_small` and diagnosed, under both drill-down
//! orders, and everything observable is folded into one digest — ground
//! truth, the verdict with its evidence and query count, every QP rate
//! fraction's bits and the solver counters. A refactor of the fault
//! scenario or the analyzer that changes any of it changes the digest.

use astral_monitor::{
    diagnose, run_fault_scenario, CorrelationPrior, Culprit, Fault, ScenarioConfig,
};
use astral_sim::Digest;
use astral_topo::{build_astral, AstralParams, HostId};

/// Digest of the pipeline over every fault. A refactor of the fault
/// scenario or the analyzer must leave it unchanged; a deliberate change
/// of behaviour re-records it and says why.
const PIPELINE_DIGEST: u64 = 0x86df_4cff_bebe_290c;

/// Every variant once, host faults aimed at hosts of the strided job, plus
/// two host faults aimed off the job (they inject nothing and get no truth).
fn faults(stride: u32) -> Vec<Fault> {
    let job = |i: u32| HostId(i * stride);
    let off_job = HostId(7 * stride + 1);
    vec![
        Fault::None,
        Fault::OpticalFiberCut,
        Fault::NicError { host: job(1) },
        Fault::PcieDegrade {
            host: job(0),
            factor: 0.2,
        },
        Fault::GpuXid { host: job(3) },
        Fault::EccMemory { host: job(4) },
        Fault::HostEnvBad { host: job(2) },
        Fault::HostEnvRuntime { host: job(6) },
        Fault::UserCodeBug,
        Fault::CclBugHang { host: job(5) },
        Fault::SwitchMisconfig,
        Fault::LinkFlap,
        Fault::GpuXid { host: off_job },
        Fault::CclBugHang { host: off_job },
    ]
}

fn fold_culprit(d: &mut Digest, c: &Culprit) {
    let (tag, id) = match *c {
        Culprit::Host(h) => (0, h.0),
        Culprit::Link(l) => (1, l.0),
        Culprit::Switch(n) => (2, n.0),
        Culprit::Software => (3, 0),
        Culprit::Unknown => (4, 0),
    };
    d.write_u8(tag);
    d.write_u32(id);
}

#[test]
fn every_fault_keeps_its_snapshot_and_verdict() {
    let topo = build_astral(&AstralParams::sim_small());
    let substrate_first = CorrelationPrior {
        support: u32::MAX,
        independence: 1.0,
    };
    assert!(substrate_first.suggests_substrate_first());
    let mut d = Digest::new();
    for cfg in [
        ScenarioConfig::default(),
        ScenarioConfig {
            host_stride: 4,
            seed: 1003,
        },
    ] {
        for fault in faults(cfg.host_stride) {
            let out = run_fault_scenario(&topo, fault, &cfg);
            fold_culprit(&mut d, &out.truth);
            for prior in [CorrelationPrior::default(), substrate_first] {
                let v = diagnose(&out.snapshot, &out.prober, &prior);
                d.write_str(&format!("{:?}", v.manifestation));
                d.write_str(&format!("{:?}", v.cause));
                fold_culprit(&mut d, &v.culprit);
                d.write_u32(v.queries);
                d.write_u64(v.evidence.len() as u64);
                for e in &v.evidence {
                    d.write_str(e);
                }
            }
            let fracs = &out.snapshot.qp_rate_frac;
            d.write_u64(fracs.len() as u64);
            for (qp, f) in fracs {
                d.write_u64(qp.0);
                d.write_f64(*f);
            }
            let s = out.solver;
            for c in [
                s.events,
                s.full_solves,
                s.incremental_solves,
                s.flows_resolved,
                s.links_scanned,
                s.component_flows,
                s.component_links,
                s.peak_arena_bytes,
            ] {
                d.write_u64(c);
            }
        }
    }
    assert_eq!(
        d.finish(),
        PIPELINE_DIGEST,
        "the fault pipeline's observable output changed: {:#x}",
        d.finish()
    );
}
