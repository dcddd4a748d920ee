//! Command-line parsing of the `repro` binary: malformed invocations must
//! exit 2 with a usage message before doing any work, never fall through
//! to a default artifact.

use std::process::Command;

/// Runs `repro` with `args` and returns its exit code.
fn exit_code(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    out.status.code().expect("repro was killed by a signal")
}

#[test]
fn unknown_flag_before_the_artifact_is_rejected() {
    assert_eq!(exit_code(&["--bogus", "table1"]), 2);
}

#[test]
fn removed_full_flag_is_rejected() {
    assert_eq!(exit_code(&["bench-json", "--full"]), 2);
}

#[test]
fn zero_threads_is_rejected() {
    assert_eq!(exit_code(&["--threads", "0", "table1"]), 2);
}

#[test]
fn zero_sample_rate_is_rejected() {
    assert_eq!(exit_code(&["sanitize", "--sample", "0"]), 2);
}

#[test]
fn second_artifact_is_rejected() {
    assert_eq!(exit_code(&["table1", "fig1"]), 2);
}

#[test]
fn known_artifact_runs() {
    assert_eq!(exit_code(&["table1"]), 0);
}

#[test]
fn faults_without_measured_is_rejected() {
    assert_eq!(exit_code(&["fig7", "--faults", "0.5"]), 2);
    assert_eq!(exit_code(&["table1", "--faults"]), 2);
}
