//! Smoke tests for the `dse` CLI binary.

use std::process::Command;

fn dse(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(args)
        .output()
        .expect("spawn dse")
}

#[test]
fn help_prints_usage() {
    let out = dse(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn list_contains_registry() {
    let out = dse(&["list"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("Rocket") && s.contains("OSGemminiRocket32KB"));
}

#[test]
fn solve_reports_cycles() {
    let out = dse(&["solve", "--platform", "Rocket", "--horizon", "8"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("cycles/solve"));
}

#[test]
fn verify_single_platform_is_clean() {
    let out = dse(&["verify", "--platform", "OSGemminiRocket32KB"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("0 errors"));
    assert!(s.contains("all generated traces verified clean"));
}

#[test]
fn chaos_smoke_gate_reports_zero_aborts() {
    let out = dse(&["chaos", "--seed", "7", "--smoke"]);
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("Chaos campaign (seed 7, smoke)"), "{s}");
    assert!(s.contains("0 aborted"), "{s}");
    assert!(s.contains("smoke gate passed: zero aborted trials"), "{s}");
}

#[test]
fn unknown_platform_is_a_clean_error() {
    let out = dse(&["solve", "--platform", "Cray1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown platform"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = dse(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// Asserts `args` exits 2 with `error: {message}` and the usage text.
fn rejected(args: &[&str], message: &str) {
    let out = dse(args);
    assert_eq!(out.status.code(), Some(2), "dse {args:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("error: {message}")),
        "dse {args:?}: {err}"
    );
    assert!(err.contains("USAGE"), "dse {args:?}: {err}");
    assert!(out.stdout.is_empty(), "dse {args:?} ran anyway");
}

#[test]
fn arguments_a_command_does_not_read_are_rejected() {
    rejected(
        &["sweep", "--smoke", "--jbos", "4"],
        "unexpected argument `--jbos`",
    );
    rejected(
        &["sweep", "--tier", "analytical"],
        "unexpected argument `--tier`",
    );
    rejected(&["list", "extra"], "unexpected argument `extra`");
}

#[test]
fn value_flags_without_a_value_are_rejected() {
    rejected(&["chaos", "--seed"], "`--seed` needs a value");
    rejected(&["chaos", "--seed", "--smoke"], "`--seed` needs a value");
}

#[test]
fn bounds_rejects_horizons_below_two() {
    for h in ["0", "1"] {
        rejected(
            &["bounds", "--horizon", h],
            &format!("invalid problem: horizon must be at least 2, got {h}"),
        );
    }
}
