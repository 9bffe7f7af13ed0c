//! `run_suite` usage errors: one line on stderr, exit status 2, no panic.
//! Unwritable output directories: one line, exit status 1, nothing run.
//!
//! Runs the built example. `cargo test` builds the package's examples next
//! to its test binaries (`target/<profile>/examples/`), which is where this
//! looks; run alone with `--test run_suite_cli`, build the example first.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run_suite(args: &[&str], env: &[(&str, &str)]) -> Output {
    let test_exe = std::env::current_exe().expect("test binary path");
    let profile_dir = test_exe.parent().and_then(|deps| deps.parent());
    let example: PathBuf = profile_dir
        .expect("target/<profile>/deps/<test>")
        .join("examples/run_suite");
    let mut cmd = Command::new(&example);
    cmd.args(args)
        .env_remove("VIBE_JOBS")
        .env_remove("VIBE_TRACE");
    cmd.envs(env.iter().copied());
    cmd.output().unwrap_or_else(|e| {
        panic!(
            "{}: {e} (cargo build --example run_suite)",
            example.display()
        )
    })
}

/// The run must have been refused with `message`, as a usage error.
fn assert_usage_error(out: Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some(format!("run_suite: {message}").as_str()),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("--help"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run before the refusal");
}

#[test]
fn flag_without_its_value() {
    assert_usage_error(run_suite(&["CQ", "--json"], &[]), "--json needs a value");
}

#[test]
fn worker_count_that_is_not_a_number() {
    assert_usage_error(
        run_suite(&["CQ", "--jobs", "x"], &[]),
        "--jobs must be a positive integer, got 'x'",
    );
}

#[test]
fn mistyped_flag() {
    assert_usage_error(
        run_suite(&["CQ", "--josb", "2"], &[]),
        "unknown flag '--josb'",
    );
}

#[test]
fn unknown_experiment_id() {
    assert_usage_error(
        run_suite(&["NOPE"], &[]),
        "unknown experiment id 'NOPE' (--list prints them)",
    );
}

#[test]
fn zero_workers_from_the_environment() {
    assert_usage_error(
        run_suite(&["CQ"], &[("VIBE_JOBS", "0")]),
        "VIBE_JOBS must be a positive integer, got '0'",
    );
}

/// A script still passing the deleted engine-partition flag fails loudly
/// instead of silently running something else.
#[test]
fn deleted_engine_flag_is_refused() {
    assert_usage_error(
        run_suite(&["CQ", "--shards", "2"], &[]),
        "unknown flag '--shards'",
    );
}

/// The run must have been refused because `path` cannot be written: before
/// anything ran, as an I/O failure (status 1), not a usage error.
fn assert_cannot_write(out: Output, path: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let prefix = format!("run_suite: cannot write '{path}': ");
    assert!(stderr.starts_with(&prefix), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run before the refusal");
}

#[test]
fn unwritable_json_or_csv_directory() {
    for flag in ["--json", "--csv"] {
        assert_cannot_write(run_suite(&["CQ", flag, "/dev/null/x"], &[]), "/dev/null/x");
    }
}

#[test]
fn unwritable_trace_directory_is_refused_before_the_suite_runs() {
    assert_cannot_write(
        run_suite(&["CQ", "--trace", "/dev/null/x"], &[]),
        "/dev/null/x",
    );
    assert_cannot_write(
        run_suite(&["CQ"], &[("VIBE_TRACE", "/dev/null/y")]),
        "/dev/null/y",
    );
}

#[test]
fn a_well_formed_invocation_still_runs() {
    let out = run_suite(&["CQ", "--jobs", "1"], &[]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("[suite: "));
}
