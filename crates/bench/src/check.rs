//! Report checks: the schema every `BENCH_<id>.json` must follow, and
//! the baseline comparison that gates metric regressions.

use crate::{Report, FIGURES};
use serde::Value;

fn field<'a>(pairs: &'a [(Value, Value)], name: &str) -> Option<&'a Value> {
    pairs
        .iter()
        .find(|(k, _)| k.as_str() == Some(name))
        .map(|(_, v)| v)
}

/// Check one report against the schema: every required field in its
/// shape, integer solver counters, and an id [`FIGURES`] lists. Returns
/// the id.
pub fn validate(text: &str) -> Result<String, String> {
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
    if !FIGURES.iter().any(|f| f.id == id) {
        return Err(format!("unknown report id `{id}` (not in FIGURES)"));
    }
    Ok(id)
}

/// Relative tolerance of the `compare` gate on metrics and series.
/// Deterministic values reproduce bit-exactly on one machine; the slack
/// absorbs last-ulp drift of transcendental libm calls across OS images.
const COMPARE_REL_TOL: f64 = 1e-6;

/// The report sections the `compare` gate checks: the noun its
/// complaints use, and whether values must match exactly (work counters
/// are integers that no libm call touches) or within [`COMPARE_REL_TOL`].
const COMPARED: [(&str, &str, bool); 3] = [
    ("metrics", "metric", false),
    ("series", "series", false),
    ("solver", "solver counter", true),
];

/// Timing-derived keys the `compare` gate must not pin.
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
/// and solver counters, and fresh ones the baseline does not pin. Metrics
/// and series match within relative 1e-6, counters exactly, and keys
/// prefixed `wall_clock` are timing, exempt both ways.
pub fn compare_reports(fresh: &str, baseline: &str) -> Result<Vec<String>, String> {
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
