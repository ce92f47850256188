//! Validate emitted `BENCH_<id>.json` reports against the report schema.
//!
//! Scans `$ASTRAL_BENCH_DIR` (default `.`) — or the directories given as
//! arguments — for `BENCH_*.json`, parses each, and checks the required
//! fields, their shapes, and that the id is one the harness can emit
//! ([`Report::KNOWN_IDS`]). Exits non-zero if any report is malformed or
//! none are found, so CI can gate on it.
//!
//! Additional modes:
//!
//! * `--list-smoke` / `--list-determinism` — print the canonical CI
//!   binary lists ([`astral_bench::SMOKE_BINS`] /
//!   [`astral_bench::DETERMINISM_BINS`]), one per line, so both CI jobs
//!   consume one source of truth instead of hand-maintained copies.
//! * `--compare <fresh-dir> <baseline-dir>` — the bench-regression gate:
//!   every committed `BENCH_<id>.json` baseline must have a fresh
//!   counterpart whose metrics and series match within relative 1e-6
//!   (deterministic values reproduce exactly; the slack only absorbs
//!   cross-machine libm drift) and whose solver work counters match
//!   exactly, and every fresh metric, series and counter must have a
//!   baseline value. Keys prefixed `wall_clock` are timing, not semantics,
//!   and are exempt both ways. Exits non-zero on any drift, missing
//!   report, or missing or unbaselined key.

use astral_bench::Report;
use serde::Value;

fn field<'a>(pairs: &'a [(Value, Value)], name: &str) -> Option<&'a Value> {
    pairs
        .iter()
        .find(|(k, _)| k.as_str() == Some(name))
        .map(|(_, v)| v)
}

fn validate(text: &str) -> Result<String, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("parse error: {e}"))?;
    let Value::Map(pairs) = &value else {
        return Err("top level is not an object".into());
    };
    for name in Report::REQUIRED_FIELDS {
        let Some(v) = field(pairs, name) else {
            return Err(format!("missing required field `{name}`"));
        };
        let ok = match name {
            "id" | "title" | "claim" => matches!(v, Value::Str(_)),
            "wall_clock_secs" => matches!(v, Value::F64(_) | Value::U64(_) | Value::I64(_)),
            "series" | "metrics" | "paper_vs_measured" | "solver" => matches!(v, Value::Map(_)),
            _ => true,
        };
        if !ok {
            return Err(format!("field `{name}` has the wrong shape"));
        }
    }
    let Some(Value::Map(solver)) = field(pairs, "solver") else {
        unreachable!("checked above");
    };
    for counter in [
        "events",
        "full_solves",
        "incremental_solves",
        "flows_resolved",
    ] {
        match field(solver, counter) {
            Some(Value::U64(_)) => {}
            Some(_) => return Err(format!("solver counter `{counter}` is not an integer")),
            None => return Err(format!("solver counters missing `{counter}`")),
        }
    }
    let id = field(pairs, "id")
        .and_then(|v| v.as_str())
        .unwrap_or("?")
        .to_string();
    if !Report::KNOWN_IDS.contains(&id.as_str()) {
        return Err(format!(
            "unknown report id `{id}` (not in Report::KNOWN_IDS)"
        ));
    }
    Ok(id)
}

/// Relative tolerance of the `--compare` gate on metrics and series.
/// Deterministic values reproduce bit-exactly on one machine; the slack
/// absorbs last-ulp drift of transcendental libm calls across OS images.
const COMPARE_REL_TOL: f64 = 1e-6;

/// The report sections the `--compare` gate checks: the noun its
/// complaints use, and whether values must match exactly (work counters
/// are integers that no libm call touches) or within [`COMPARE_REL_TOL`].
const COMPARED: [(&str, &str, bool); 3] = [
    ("metrics", "metric", false),
    ("series", "series", false),
    ("solver", "solver counter", true),
];

/// Timing-derived keys the `--compare` gate must not pin.
fn compare_exempt(key: &str) -> bool {
    key.starts_with("wall_clock")
}

fn numeric(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(f) => Some(f),
        Value::U64(u) => Some(u as f64),
        Value::I64(i) => Some(i as f64),
        _ => None,
    }
}

/// Flatten one top-level map of a report to `(key, value)` pairs.
fn section_of(report: &Value, name: &str) -> Result<Vec<(String, Value)>, String> {
    let Value::Map(pairs) = report else {
        return Err("top level is not an object".into());
    };
    let Some(Value::Map(entries)) = field(pairs, name) else {
        return Err(format!("missing `{name}` object"));
    };
    Ok(entries
        .iter()
        .filter_map(|(k, v)| k.as_str().map(|k| (k.to_string(), v.clone())))
        .collect())
}

/// Where `got` first departs from `want` (a path into nested sequences
/// and maps, then both values), or `None` when they agree. Numbers agree
/// within [`COMPARE_REL_TOL`] unless `exact`.
fn drift(want: &Value, got: &Value, exact: bool) -> Option<String> {
    match (want, got) {
        (Value::Seq(w), Value::Seq(g)) if w.len() == g.len() => w
            .iter()
            .zip(g)
            .enumerate()
            .find_map(|(i, (w, g))| drift(w, g, exact).map(|d| format!("[{i}]{d}"))),
        (Value::Map(w), Value::Map(g))
            if w.len() == g.len() && w.iter().zip(g).all(|((a, _), (b, _))| a == b) =>
        {
            w.iter().zip(g).find_map(|((k, w), (_, g))| {
                let k = k.as_str().unwrap_or("?");
                drift(w, g, exact).map(|d| format!(".{k}{d}"))
            })
        }
        _ => match (numeric(want), numeric(got)) {
            (Some(w), Some(g)) if !exact => {
                let tol = COMPARE_REL_TOL * w.abs().max(g.abs()).max(1e-12);
                ((w - g).abs() > tol).then(|| format!(": baseline {w}, fresh {g}"))
            }
            _ => (want != got).then(|| format!(": baseline {want:?}, fresh {got:?}")),
        },
    }
}

/// One baseline report vs its fresh counterpart. Returns the list of
/// complaints (empty = pass): drifted or missing baseline metrics, series
/// and solver counters, and fresh ones the baseline does not pin.
fn compare_reports(fresh: &str, baseline: &str) -> Result<Vec<String>, String> {
    let parse = |text| serde_json::from_str(text).map_err(|e| format!("parse error: {e}"));
    let (fresh, baseline): (Value, Value) = (parse(fresh)?, parse(baseline)?);
    let mut complaints = Vec::new();
    for (name, noun, exact) in COMPARED {
        let fresh = section_of(&fresh, name)?;
        let baseline = section_of(&baseline, name)?;
        for (key, want) in &baseline {
            if compare_exempt(key) {
                continue;
            }
            match fresh.iter().find(|(k, _)| k == key) {
                None => complaints.push(format!("{noun} `{key}` missing from the fresh report")),
                Some((_, got)) => {
                    if let Some(d) = drift(want, got, exact) {
                        complaints.push(format!("{noun} `{key}` drifted{d}"));
                    }
                }
            }
        }
        for (key, _) in &fresh {
            if !compare_exempt(key) && !baseline.iter().any(|(k, _)| k == key) {
                complaints.push(format!("{noun} `{key}` has no baseline value"));
            }
        }
    }
    Ok(complaints)
}

/// The `--compare` gate over two directories. Iterates the *baseline*
/// side: a committed baseline with no fresh counterpart fails (the smoke
/// run stopped emitting it); a fresh report with no baseline is fine
/// (new scenarios grow baselines in their own PR).
fn run_compare(fresh_dir: &str, baseline_dir: &str) -> i32 {
    let baselines = match std::fs::read_dir(baseline_dir) {
        Ok(entries) => {
            let mut names: Vec<_> = entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                })
                .collect();
            names.sort();
            names
        }
        Err(e) => {
            eprintln!("cannot read baseline dir {baseline_dir}: {e}");
            return 2;
        }
    };
    if baselines.is_empty() {
        eprintln!("no BENCH_*.json baselines in {baseline_dir}");
        return 2;
    }
    let mut failed = 0usize;
    for base_path in &baselines {
        let name = base_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?");
        let fresh_path = std::path::Path::new(fresh_dir).join(name);
        let baseline = match std::fs::read_to_string(base_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {name}: cannot read baseline: {e}");
                failed += 1;
                continue;
            }
        };
        let fresh = match std::fs::read_to_string(&fresh_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {name}: fresh report missing ({e})");
                failed += 1;
                continue;
            }
        };
        match compare_reports(&fresh, &baseline) {
            Ok(complaints) if complaints.is_empty() => println!("ok   {name}"),
            Ok(complaints) => {
                for c in &complaints {
                    eprintln!("FAIL {name}: {c}");
                }
                failed += 1;
            }
            Err(e) => {
                eprintln!("FAIL {name}: {e}");
                failed += 1;
            }
        }
    }
    println!(
        "\n{} baseline(s) compared, {failed} regression(s)",
        baselines.len()
    );
    i32::from(failed > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list-smoke") => {
            for bin in astral_bench::SMOKE_BINS {
                println!("{bin}");
            }
            return;
        }
        Some("--list-determinism") => {
            for bin in astral_bench::DETERMINISM_BINS {
                println!("{bin}");
            }
            return;
        }
        Some("--compare") => {
            let [_, fresh, baseline] = &args[..] else {
                eprintln!("usage: validate_bench --compare <fresh-dir> <baseline-dir>");
                std::process::exit(2);
            };
            std::process::exit(run_compare(fresh, baseline));
        }
        _ => {}
    }
    let dirs: Vec<String> = if args.is_empty() {
        vec![std::env::var("ASTRAL_BENCH_DIR").unwrap_or_else(|_| ".".into())]
    } else {
        args
    };

    let mut checked = 0usize;
    let mut failed = 0usize;
    for dir in &dirs {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("cannot read {dir}: {e}");
                failed += 1;
                continue;
            }
        };
        let mut names: Vec<_> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        names.sort();
        for path in names {
            checked += 1;
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("FAIL {}: {e}", path.display());
                    failed += 1;
                    continue;
                }
            };
            match validate(&text) {
                Ok(id) => println!("ok   {} (id={id})", path.display()),
                Err(e) => {
                    eprintln!("FAIL {}: {e}", path.display());
                    failed += 1;
                }
            }
        }
    }

    println!("\n{checked} report(s) checked, {failed} failure(s)");
    if checked == 0 {
        eprintln!("no BENCH_*.json reports found in {dirs:?}");
        std::process::exit(2);
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::compare_reports;

    fn report(metrics: &str) -> String {
        full(metrics, r#""s": [[1, 0.5], [2, 0.25]]"#, r#""events": 7"#)
    }

    fn full(metrics: &str, series: &str, solver: &str) -> String {
        format!(
            "{{\"metrics\": {{{metrics}}}, \"series\": {{{series}}}, \"solver\": {{{solver}}}}}"
        )
    }

    #[test]
    fn compare_flags_drift_and_unbaselined_keys() {
        let base = report(r#""a": 1.0, "wall_clock_s": 3.0"#);
        let same = report(r#""a": 1.0, "wall_clock_s": 9.0, "wall_clock_x": 1.0"#);
        assert_eq!(compare_reports(&same, &base).unwrap(), Vec::<String>::new());
        let drift = report(r#""a": 2.0"#);
        assert_eq!(compare_reports(&drift, &base).unwrap().len(), 1);
        for key in ["b", "speedup", "seer_qps"] {
            let extra = report(&format!(r#""a": 1.0, "{key}": 1.0"#));
            let complaints = compare_reports(&extra, &base).unwrap();
            assert_eq!(
                complaints,
                [format!("metric `{key}` has no baseline value")]
            );
        }
        let missing = report(r#""wall_clock_s": 3.0"#);
        assert_eq!(compare_reports(&missing, &base).unwrap().len(), 1);
    }

    #[test]
    fn compare_gates_series_and_solver_counters() {
        let (metrics, series, solver) = (
            r#""a": 1.0"#,
            r#""s": [[1, 0.5], [2, 0.25]]"#,
            r#""events": 7"#,
        );
        let base = full(metrics, series, solver);
        // Series points get the metric tolerance: last-ulp drift passes.
        let ulp = full(
            metrics,
            r#""s": [[1, 0.5000000000000001], [2, 0.25]]"#,
            solver,
        );
        assert_eq!(compare_reports(&ulp, &base).unwrap(), Vec::<String>::new());
        let point = full(metrics, r#""s": [[1, 0.5], [2, 0.26]]"#, solver);
        assert_eq!(
            compare_reports(&point, &base).unwrap(),
            ["series `s` drifted[1][1]: baseline 0.25, fresh 0.26"]
        );
        let short = full(metrics, r#""s": [[1, 0.5]]"#, solver);
        assert_eq!(compare_reports(&short, &base).unwrap().len(), 1);
        let gone = full(metrics, "", solver);
        assert_eq!(
            compare_reports(&gone, &base).unwrap(),
            ["series `s` missing from the fresh report"]
        );
        let extra = full(metrics, r#""s": [[1, 0.5], [2, 0.25]], "t": []"#, solver);
        assert_eq!(
            compare_reports(&extra, &base).unwrap(),
            ["series `t` has no baseline value"]
        );
        // Work counters match exactly.
        let counter = full(metrics, series, r#""events": 8"#);
        assert_eq!(
            compare_reports(&counter, &base).unwrap(),
            ["solver counter `events` drifted: baseline U64(7), fresh U64(8)"]
        );
        let uncounted = full(metrics, series, "");
        assert_eq!(compare_reports(&uncounted, &base).unwrap().len(), 1);
    }
}
