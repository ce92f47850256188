//! Report checks: the schema every `BENCH_<id>.json` must follow, and
//! the baseline comparison that gates metric, series and table-cell
//! regressions.

use crate::render::{entries, get, is_timing};
use crate::{Report, FIGURES};
use serde::Value;

/// Check one report against the schema: every required field in its
/// shape, integer solver counters, tables whose rows each hold one number
/// or string per column, and an id [`FIGURES`] lists. Returns the id.
pub fn validate(text: &str) -> Result<String, String> {
    let report: Value = serde_json::from_str(text).map_err(|e| format!("parse error: {e}"))?;
    for name in Report::REQUIRED_FIELDS {
        let ok = match (name, get(&report, name)) {
            (_, Value::Null) => return Err(format!("missing required field `{name}`")),
            ("id" | "title" | "claim", v) => matches!(v, Value::Str(_)),
            ("wall_clock_secs", v) => numeric(v).is_some(),
            (_, v) => matches!(v, Value::Map(_)),
        };
        if !ok {
            return Err(format!("field `{name}` has the wrong shape"));
        }
    }
    for counter in [
        "events",
        "full_solves",
        "incremental_solves",
        "flows_resolved",
    ] {
        match get(get(&report, "solver"), counter) {
            Value::U64(_) => {}
            Value::Null => return Err(format!("solver counters missing `{counter}`")),
            _ => return Err(format!("solver counter `{counter}` is not an integer")),
        }
    }
    for (name, table) in entries(get(&report, "tables")) {
        check_table(table).map_err(|e| format!("table `{name}` {e}"))?;
    }
    let id = get(&report, "id").as_str().unwrap_or_default();
    if !FIGURES.iter().any(|f| f.id == id) {
        return Err(format!("unknown report id `{id}` (not in FIGURES)"));
    }
    Ok(id.to_string())
}

/// A table is `{"columns": [names], "rows": [[cells]]}` with one number
/// or string cell per column in every row.
fn check_table(table: &Value) -> Result<(), String> {
    let (Value::Seq(columns), Value::Seq(rows)) = (get(table, "columns"), get(table, "rows"))
    else {
        return Err("is not an object of `columns` and `rows` lists".into());
    };
    if !columns.iter().all(|c| matches!(c, Value::Str(_))) {
        return Err("has a column name that is not a string".into());
    }
    let n = columns.len();
    for (i, row) in rows.iter().enumerate() {
        if !matches!(row, Value::Seq(c) if c.len() == n && c.iter().all(is_cell)) {
            return Err(format!("row {i} is not {n} numbers or strings"));
        }
    }
    Ok(())
}

/// A table cell: a number or a string.
fn is_cell(v: &Value) -> bool {
    matches!(
        v,
        Value::U64(_) | Value::I64(_) | Value::F64(_) | Value::Str(_)
    )
}

/// Relative tolerance of the `compare` gate on metrics and series.
/// Deterministic values reproduce bit-exactly on one machine; the slack
/// absorbs last-ulp drift of transcendental libm calls across OS images.
const COMPARE_REL_TOL: f64 = 1e-6;

/// The report sections the `compare` gate checks: the noun its
/// complaints use, and whether values must match exactly (work counters
/// are integers that no libm call touches) or within [`COMPARE_REL_TOL`].
/// Table cells are compared like series points: strings exactly, numbers
/// within the tolerance, and row counts must agree.
const COMPARED: [(&str, &str, bool); 4] = [
    ("metrics", "metric", false),
    ("series", "series", false),
    ("tables", "table", false),
    ("solver", "solver counter", true),
];

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
    let Value::Map(_) = get(report, name) else {
        return Err(format!("missing `{name}` object"));
    };
    Ok(entries(get(report, name))
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect())
}

/// Where `got` first departs from `want` (a path into nested sequences
/// and maps, then both values), or `None` when they agree. Numbers agree
/// within [`COMPARE_REL_TOL`] unless `exact`.
fn drift(want: &Value, got: &Value, exact: bool) -> Option<String> {
    match (want, got) {
        (Value::Seq(w), Value::Seq(g)) if w.len() != g.len() => Some(format!(
            ": baseline has {} entries, fresh {}",
            w.len(),
            g.len()
        )),
        (Value::Seq(w), Value::Seq(g)) => w
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
/// complaints (empty = pass): drifted or missing baseline metrics, series,
/// tables and solver counters, and fresh ones the baseline does not pin.
/// Metrics, series and table cells match within relative 1e-6 (strings
/// exactly), counters exactly, and keys and table names prefixed
/// `wall_clock` are timing, exempt both ways.
pub fn compare_reports(fresh: &str, baseline: &str) -> Result<Vec<String>, String> {
    let parse = |text| serde_json::from_str(text).map_err(|e| format!("parse error: {e}"));
    let (fresh, baseline): (Value, Value) = (parse(fresh)?, parse(baseline)?);
    let mut complaints = Vec::new();
    for (name, noun, exact) in COMPARED {
        let fresh = section_of(&fresh, name)?;
        let baseline = section_of(&baseline, name)?;
        for (key, want) in &baseline {
            if is_timing(key) {
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
            if !is_timing(key) && !baseline.iter().any(|(k, _)| k == key) {
                complaints.push(format!("{noun} `{key}` has no baseline value"));
            }
        }
    }
    Ok(complaints)
}

#[cfg(test)]
mod tests {
    use super::{compare_reports, validate};
    use crate::{render, Report, Scenario};
    use serde::Value;

    fn report(metrics: &str) -> String {
        full(metrics, r#""s": [[1, 0.5], [2, 0.25]]"#, r#""events": 7"#)
    }

    fn full(metrics: &str, series: &str, solver: &str) -> String {
        with_tables(metrics, series, solver, "")
    }

    fn with_tables(metrics: &str, series: &str, solver: &str, tables: &str) -> String {
        format!(
            "{{\"metrics\": {{{metrics}}}, \"series\": {{{series}}}, \
             \"tables\": {{{tables}}}, \"solver\": {{{solver}}}}}"
        )
    }

    /// A report of a known figure with one table, `t`.
    fn table_report() -> Report {
        let mut sc = Scenario::new("fig02", "title", "claim");
        sc.table("t", "name | x", &[("a", 1.5), ("b", 2.0)]);
        sc.finish(&[])
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

    #[test]
    fn validate_requires_tables_with_full_rows() {
        let mut report = table_report();
        assert_eq!(validate(&report.json()), Ok("fig02".to_string()));
        let Value::Map(mut fields) = report.to_value() else {
            panic!("report is an object")
        };
        fields.retain(|(k, _)| k.as_str() != Some("tables"));
        let untabled = serde_json::to_string(&Value::Map(fields)).unwrap();
        assert_eq!(
            validate(&untabled),
            Err("missing required field `tables`".to_string())
        );
        let Value::Map(table) = &mut report.tables[0].1 else {
            panic!("a table is an object")
        };
        let Value::Seq(rows) = &mut table[1].1 else {
            panic!("rows are a list")
        };
        rows[1] = Value::Seq(vec![Value::Str("b".into())]);
        assert_eq!(
            validate(&report.json()),
            Err("table `t` row 1 is not 2 numbers or strings".to_string())
        );
    }

    #[test]
    fn compare_gates_table_cells_and_rows() {
        let (metrics, series, solver) = (r#""a": 1.0"#, "", r#""events": 7"#);
        let tables = |t: &str| with_tables(metrics, series, solver, t);
        let base = tables(r#""t": {"columns": ["n", "x"], "rows": [["a", 1.5], ["b", 2]]}"#);
        let timing = r#""wall_clock_t": {"columns": ["s"], "rows": [[0.1]]}"#;
        let same = tables(&format!(
            r#""t": {{"columns": ["n", "x"], "rows": [["a", 1.5], ["b", 2.0]]}}, {timing}"#
        ));
        assert_eq!(compare_reports(&same, &base).unwrap(), Vec::<String>::new());
        let cell = tables(r#""t": {"columns": ["n", "x"], "rows": [["a", 1.5], ["c", 2]]}"#);
        assert_eq!(
            compare_reports(&cell, &base).unwrap(),
            [r#"table `t` drifted.rows[1][0]: baseline Str("b"), fresh Str("c")"#]
        );
        let number = tables(r#""t": {"columns": ["n", "x"], "rows": [["a", 1.6], ["b", 2]]}"#);
        assert_eq!(
            compare_reports(&number, &base).unwrap(),
            ["table `t` drifted.rows[0][1]: baseline 1.5, fresh 1.6"]
        );
        let dropped = tables(r#""t": {"columns": ["n", "x"], "rows": [["a", 1.5]]}"#);
        assert_eq!(
            compare_reports(&dropped, &base).unwrap(),
            ["table `t` drifted.rows: baseline has 2 entries, fresh 1"]
        );
        assert_eq!(
            compare_reports(&tables(timing), &base).unwrap(),
            ["table `t` missing from the fresh report"]
        );
    }

    #[test]
    fn render_sends_timing_to_stderr_only() {
        let mut sc = Scenario::new("t", "title", "claim");
        sc.metric("wall_clock_secret_metric", 7.25);
        sc.table("rates", "kind | rate", &[("a", 0.5), ("bb", 12.0)]);
        sc.table("wall_clock_timings", "step | ms", &[("solve", 3.5)]);
        let report = sc.finish(&[
            ("kept", "paper 1 | measured 1".to_string()),
            ("wall_clock_run", "took 3.5 ms".to_string()),
        ]);
        let (mut out, mut err) = (Vec::new(), Vec::new());
        render(&report.to_value(), &mut out, &mut err).unwrap();
        let (out, err) = (
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        );
        let rule = "=".repeat(64);
        assert_eq!(
            out,
            format!(
                "{rule}\ntitle\npaper claim: claim\n{rule}\n\nrates\n  kind    rate\n  \
                 a     0.5000\n  bb        12\n\n--- paper vs reproduction ---\n  \
                 kept: paper 1 | measured 1\n"
            )
        );
        for timing in ["wall_clock", "secret", "7.25", "solve", "3.5"] {
            assert!(!out.contains(timing), "stdout shows {timing}:\n{out}");
        }
        assert_eq!(
            err,
            "\nwall_clock_timings\n  step      ms\n  solve  3.500\n  wall_clock_run: took 3.5 ms\n"
        );
    }
}
