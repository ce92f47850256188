//! A figure run that cannot write its report must fail, not exit 0 with
//! a warning: CI's baseline comparison only misses reports it has a
//! baseline for.

#[test]
fn unwritable_report_dir_fails_the_run() {
    let missing = std::env::temp_dir().join(format!("astral-missing-{}/dir", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_astral-bench"))
        .arg("fig06")
        .env("ASTRAL_BENCH_DIR", &missing)
        .env_remove("ASTRAL_TRACE_DIR")
        .output()
        .expect("bench binary starts");
    assert!(
        !out.status.success(),
        "exit {:?} without a report",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("could not write"), "stderr: {stderr}");
}
