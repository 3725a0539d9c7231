//! `repro` argv handling: one parser serves the campaign mode, `repro
//! predict` and `repro rank-placements`, and each mode rejects the other
//! mode's flags. Every usage error exits 2 before any work starts. Drives
//! the actual binary (`CARGO_BIN_EXE_repro`) to pin the exit codes that
//! scripts and CI see.

use std::process::Command;

fn exit_code(args: &str) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn repro");
    out.status.code().expect("repro exited by signal")
}

/// A complete Quick advisor query, so a rejection pins the one flag under
/// test (and a parser that wrongly accepts it still fails fast).
const PREDICT: &str = "predict --quick --preset bora --workload cg --cores 8 --metric bw";

#[test]
fn usage_errors_exit_2() {
    for args in [
        "--no-such-flag".to_string(),
        "--quick --resume".into(),
        // `predict` without `--placement`.
        PREDICT.into(),
        "predict --preset no-such-machine".into(),
        // A campaign flag passed to `predict`.
        format!("{PREDICT} --placement 0 --json x.json"),
        // An advisor flag passed to the campaign mode.
        "--quick --preset bora".into(),
        format!("{PREDICT} --placement 0 --resume"),
    ] {
        assert_eq!(exit_code(&args), 2, "repro {args}: expected usage exit 2");
    }
}

#[test]
fn list_exits_0() {
    assert_eq!(exit_code("--list"), 0);
}

/// `--trace` bypasses restore (a restored point has no journal to
/// record), so `--trace --resume` says so on stderr and still succeeds.
#[test]
fn trace_with_resume_notes_the_recompute() {
    let base = std::env::temp_dir().join(format!("repro-trace-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let store = base.join("store").to_str().unwrap().to_string();
    let trace = base.join("trace.json").to_str().unwrap().to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick", "--only", "fig1", "--store", &store, "--resume", "--trace", &trace,
        ])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("--resume restores none: all points are recomputed"),
        "missing note: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&base);
}
