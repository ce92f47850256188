//! `astral-bench`: reproduce the paper's figures and tables, and check the
//! reports they leave behind.
//!
//! ```text
//! astral-bench [<id>...]                          run the named figures, or every one
//! astral-bench validate [<dir>...]                check reports against the schema
//! astral-bench compare <fresh-dir> <baseline-dir> gate fresh reports on baselines
//! ```
//!
//! Each figure prints its tables and `paper vs reproduction` footer and
//! writes `BENCH_<id>.json` to `$ASTRAL_BENCH_DIR` (default: the working
//! directory); a report that cannot be written fails the run. `validate`
//! reads `$ASTRAL_BENCH_DIR` when no directory is named. `compare` walks
//! the baseline side, so a committed baseline with no fresh report fails.

use astral_bench::{compare_reports, validate, Figure, FIGURES};
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

/// Run the figures named by `ids` (every figure when empty), writing each
/// report as it finishes.
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
fn bench_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
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

/// Check every report in `dirs` (`$ASTRAL_BENCH_DIR` or `.` when none is
/// named) against the schema. Fails if any is malformed or none is found.
fn validate_dirs(dirs: &[String]) -> ExitCode {
    let default = [std::env::var("ASTRAL_BENCH_DIR").unwrap_or_else(|_| ".".into())];
    let dirs = if dirs.is_empty() { &default[..] } else { dirs };
    let (mut checked, mut failed) = (0usize, 0usize);
    for dir in dirs {
        let files = match bench_files(Path::new(dir)) {
            Ok(files) => files,
            Err(e) => {
                eprintln!("cannot read {dir}: {e}");
                failed += 1;
                continue;
            }
        };
        for path in files {
            checked += 1;
            let checked = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| validate(&text));
            match checked {
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
        return ExitCode::from(2);
    }
    ExitCode::from(u8::from(failed > 0))
}

/// The baseline gate: every `BENCH_*.json` in `baseline_dir` needs a fresh
/// counterpart in `fresh_dir` that [`compare_reports`] passes. A fresh
/// report with no baseline is fine.
fn compare_dirs(fresh_dir: &Path, baseline_dir: &Path) -> ExitCode {
    let baselines = match bench_files(baseline_dir) {
        Ok(files) if !files.is_empty() => files,
        Ok(_) => {
            eprintln!("no BENCH_*.json baselines in {}", baseline_dir.display());
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("cannot read baseline dir {}: {e}", baseline_dir.display());
            return ExitCode::from(2);
        }
    };
    let mut failed = 0usize;
    for base_path in &baselines {
        let name = base_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?");
        let read = |path: &Path, what: &str| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {what}: {e}"))
        };
        let complaints = read(base_path, "baseline").and_then(|baseline| {
            let fresh = read(&fresh_dir.join(name), "fresh report")?;
            compare_reports(&fresh, &baseline)
        });
        match complaints {
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
    ExitCode::from(u8::from(failed > 0))
}
