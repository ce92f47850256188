//! Pins the trace of the gray-aware recovery run that `fig_gray_failure`
//! records, replays and dumps as its `fig_gray_failure_gray_aware`
//! artifact. The digest covers the artifact's JSON-lines bytes, so a
//! change to how flows are numbered or traced, or to any simulated
//! timing or decision of the run, changes it.

use astral::sim::Digest;

/// Digest of the artifact. A refactor of the simulator, the recovery
/// engine or the trace ring must leave it unchanged; a deliberate change
/// of behaviour re-records it and says why.
const GRAY_AWARE_TRACE_DIGEST: u64 = 0x7c5d_ec63_a253_bab9;

#[test]
fn gray_aware_trace_artifact_is_pinned() {
    let records = astral_bench::gray_aware_trace();
    let mut d = Digest::new();
    d.write_str(&astral::trace::to_jsonl(&records));
    assert_eq!(
        d.finish(),
        GRAY_AWARE_TRACE_DIGEST,
        "gray-aware trace changed ({} records): got {:#018x}",
        records.len(),
        d.finish()
    );
}
