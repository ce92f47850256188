//! Every fast figure, run in-process in the test build (debug assertions
//! on), must reproduce its committed `bench-baselines/BENCH_<id>.json`
//! through the same check `astral-bench compare` applies. The figures
//! with wall-clock gates are left to release runs.

use astral_bench::{compare_reports, FIGURES};
use std::path::Path;

#[test]
fn fast_figures_match_their_baselines() {
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-baselines");
    let mut failures = Vec::new();
    for figure in FIGURES.iter().filter(|f| f.fast) {
        let report = (figure.run)();
        assert_eq!(report.id, figure.id, "figure reports under another id");
        let path = baselines.join(format!("BENCH_{}.json", figure.id));
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("no baseline {}: {e}", path.display()));
        let complaints = compare_reports(&report.json(), &baseline).expect("reports parse");
        failures.extend(
            complaints
                .into_iter()
                .map(|c| format!("{}: {c}", figure.id)),
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
