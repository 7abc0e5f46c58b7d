//! Exit codes of the `harness` command line on malformed input.
//!
//! Every case here must be rejected before any work starts, so each
//! invocation is instant and writes no report. They run from Cargo's
//! scratch directory so that a regression that does start a run cannot
//! overwrite the committed reports.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn harness")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = harness(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "harness {args:?}: {stderr}");
    assert!(
        stderr.contains(message),
        "harness {args:?}: expected '{message}' in stderr, got: {stderr}"
    );
}

#[test]
fn command_is_the_first_argument_not_any_argument() {
    // Another command's name as a value or stray argument must not
    // reroute the invocation.
    assert_usage_error(&["fuzz", "--bogus", "campaign"], "unknown fuzz argument");
    assert_usage_error(
        &["live", "--trace-out", "obs", "--bogus"],
        "unknown live argument",
    );
}

#[test]
fn bench_rejects_malformed_arguments() {
    assert_usage_error(&["bench", "3OO"], "period count");
    assert_usage_error(&["bench", "300", "extra"], "unknown bench argument");
}

#[test]
fn unknown_experiment_exits_2() {
    assert_usage_error(&["e99"], "unknown experiment");
}
