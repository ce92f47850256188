//! `astral-bench`: reproduce the paper's figures and tables, and check the
//! reports they leave behind.
//!
//! ```text
//! astral-bench [<id>...]                          run the named figures, or every one
//! astral-bench validate [<dir>...]                check reports against the schema
//! astral-bench compare <fresh-dir> <baseline-dir> gate fresh reports on baselines
//! ```
//!
//! After each figure runs, [`render`] prints its report — the banner, its
//! tables and the `paper vs reproduction` footer, with every `wall_clock*`
//! table and footer row on stderr — and the report is written to
//! `$ASTRAL_BENCH_DIR/BENCH_<id>.json` (default: the working directory),
//! followed by a `report:` line naming the file. Stdout holds nothing
//! else; a report that cannot be written fails the run. `validate`
//! reads `$ASTRAL_BENCH_DIR` when no directory is named. `compare` walks
//! the baseline side, so a committed baseline with no fresh report fails.

use astral_bench::{compare_reports, render, validate, Figure, FIGURES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("validate") => validate_dirs(&args[1..]),
        Some("compare") => match &args[1..] {
            [fresh, baseline] => compare_dirs(Path::new(fresh), Path::new(baseline)),
            _ => {
                eprintln!("usage: astral-bench compare <fresh-dir> <baseline-dir>");
                ExitCode::from(2)
            }
        },
        _ => run_figures(&args),
    }
}

/// Run the figures named by `ids` (every figure when empty), printing and
/// writing each report as it finishes.
fn run_figures(ids: &[String]) -> ExitCode {
    let mut figures: Vec<&Figure> = FIGURES.iter().collect();
    if !ids.is_empty() {
        if let Some(id) = ids.iter().find(|id| !FIGURES.iter().any(|f| &f.id == id)) {
            let known: Vec<_> = FIGURES.iter().map(|f| f.id).collect();
            eprintln!("unknown figure `{id}`; known: {}", known.join(" "));
            return ExitCode::from(2);
        }
        figures.retain(|f| ids.iter().any(|id| id == f.id));
    }
    for figure in figures {
        let report = (figure.run)();
        let printed = render(
            &report.to_value(),
            &mut std::io::stdout().lock(),
            &mut std::io::stderr().lock(),
        );
        if let Err(e) = printed {
            eprintln!("error: could not print {}: {e}", report.id);
            return ExitCode::FAILURE;
        }
        match report.write() {
            Ok(path) => println!("\nreport: {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", report.path().display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The `BENCH_*.json` files in `dir`, sorted by name.
fn bench_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Run `check` on every file, printing `ok` or each of its complaints,
/// then a count. Fails if any file fails, and with 2 if there is none.
fn check_files(
    files: Result<Vec<PathBuf>, String>,
    check: impl Fn(&Path) -> Result<Vec<String>, String>,
) -> ExitCode {
    let files = match files {
        Ok(files) if !files.is_empty() => files,
        other => {
            let e = other
                .err()
                .unwrap_or_else(|| "no BENCH_*.json reports found".into());
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = 0usize;
    for path in &files {
        let complaints = check(path).unwrap_or_else(|e| vec![e]);
        if complaints.is_empty() {
            println!("ok   {}", path.display());
        }
        for c in &complaints {
            eprintln!("FAIL {}: {c}", path.display());
        }
        failed += usize::from(!complaints.is_empty());
    }
    println!("\n{} report(s) checked, {failed} failure(s)", files.len());
    ExitCode::from(u8::from(failed > 0))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Check every report in `dirs` (`$ASTRAL_BENCH_DIR` or `.` when none is
/// named) against the schema.
fn validate_dirs(dirs: &[String]) -> ExitCode {
    let default = [std::env::var("ASTRAL_BENCH_DIR").unwrap_or_else(|_| ".".into())];
    let dirs = if dirs.is_empty() { &default[..] } else { dirs };
    let files = dirs
        .iter()
        .map(|d| bench_files(Path::new(d)))
        .collect::<Result<Vec<_>, _>>();
    check_files(files.map(|f| f.concat()), |path| {
        validate(&read(path)?).map(|_| Vec::new())
    })
}

/// The baseline gate: every `BENCH_*.json` in `baseline_dir` needs a fresh
/// counterpart in `fresh_dir` that [`compare_reports`] passes. A fresh
/// report with no baseline is fine.
fn compare_dirs(fresh_dir: &Path, baseline_dir: &Path) -> ExitCode {
    check_files(bench_files(baseline_dir), |baseline| {
        let fresh = fresh_dir.join(baseline.file_name().unwrap_or_default());
        compare_reports(&read(&fresh)?, &read(baseline)?)
    })
}
