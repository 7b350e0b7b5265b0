//! End-to-end tests of the `repro` binary's argument handling.
//!
//! The ISSUE requires that bad invocations exit nonzero with a usage
//! message instead of panicking; these tests exercise the compiled
//! binary itself (via `CARGO_BIN_EXE_repro`) so they also cover the
//! `main`-side wiring, not just `parse_args`.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_flag_exits_nonzero_with_usage() {
    let out = repro().args(["fig4", "--bogus"]).output().unwrap();
    assert!(!out.status.success(), "expected nonzero exit");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "stderr: {stderr}");
    assert!(stderr.contains("--bogus"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn missing_value_exits_nonzero_with_usage() {
    let out = repro().args(["fig4", "--trees"]).output().unwrap();
    assert!(!out.status.success(), "expected nonzero exit");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing value"), "stderr: {stderr}");
    assert!(stderr.contains("--trees"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn unparsable_value_exits_nonzero_with_usage() {
    let out = repro().args(["fig4", "--depth", "deep"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid value"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    let out = repro().arg("fig99").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = repro().arg("--help").output().unwrap();
    assert!(out.status.success(), "help should exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage:"), "stdout: {stdout}");
    assert!(stdout.contains("--trees"), "stdout: {stdout}");
}

#[test]
fn a_flag_the_command_does_not_read_exits_nonzero_with_usage() {
    for (args, flag) in [
        (
            &[
                "report",
                "--smoke",
                "--check",
                "--baseline",
                "nonexistent.json",
            ][..],
            "--check",
        ),
        (
            &["serve", "--smoke", "--sketch", "top4", "--streams", "8"],
            "--sketch",
        ),
    ] {
        let out = repro().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("does not read"), "stderr: {stderr}");
        assert!(stderr.contains(flag), "stderr: {stderr}");
        assert!(stderr.contains("usage:"), "stderr: {stderr}");
    }
}

/// Each command's second usage line is indented under the command it
/// continues, not printed flush left.
#[test]
fn help_keeps_continuation_lines_indented() {
    let out = repro().arg("help").output().unwrap();
    assert!(out.status.success(), "help should exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--sketch",
        "--streams N (",
        "--baseline FILE --check",
        "--prom",
    ] {
        let line = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(flag))
            .unwrap_or_else(|| panic!("no usage line starts with {flag}: {stdout}"));
        assert!(
            line.starts_with("       "),
            "{flag} is not indented: {line:?}"
        );
    }
}
