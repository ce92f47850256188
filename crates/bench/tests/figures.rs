//! Every fast figure, run in-process in the test build (debug assertions
//! on), must write a report `astral-bench validate` accepts, reproduce its
//! committed `bench-baselines/BENCH_<id>.json` through the same check
//! `astral-bench compare` applies, and print exactly what rendering that
//! baseline prints. The figures with wall-clock gates are left to release
//! runs.

use astral_bench::{compare_reports, render, validate, FIGURES};
use serde::Value;
use std::path::Path;

/// What `astral-bench` prints on stdout for a report.
fn stdout_of(report: &Value) -> String {
    let mut out = Vec::new();
    render(report, &mut out, &mut std::io::sink()).expect("rendering to memory");
    String::from_utf8(out).expect("rendered text is UTF-8")
}

#[test]
fn fast_figures_match_their_baselines() {
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-baselines");
    let mut failures = Vec::new();
    for figure in FIGURES.iter().filter(|f| f.fast) {
        let report = (figure.run)();
        assert_eq!(validate(&report.json()).as_deref(), Ok(figure.id));
        let path = baselines.join(format!("BENCH_{}.json", figure.id));
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("no baseline {}: {e}", path.display()));
        let complaints = compare_reports(&report.json(), &baseline).expect("reports parse");
        failures.extend(
            complaints
                .into_iter()
                .map(|c| format!("{}: {c}", figure.id)),
        );
        let baseline: Value = serde_json::from_str(&baseline).expect("baseline parses");
        if stdout_of(&report.to_value()) != stdout_of(&baseline) {
            failures.push(format!("{}: stdout differs from the baseline's", figure.id));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
