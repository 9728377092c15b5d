//! Malformed flags must produce a one-line diagnostic and a nonzero
//! exit — never a panic backtrace. Drives the real binaries end-to-end
//! through every parse-failure class the CLI layer can hit.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let output = Command::new(bin)
        .args(args)
        .output()
        .expect("binary spawns");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code().unwrap_or(-1), stderr)
}

fn assert_clean_failure(bin: &str, args: &[&str], expect: &str) {
    let (code, stderr) = run(bin, args);
    assert_ne!(code, 0, "{args:?} must exit nonzero\nstderr: {stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains(expect),
        "{args:?} must print a one-line `error: ...{expect}...` diagnostic\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} must not panic\nstderr: {stderr}"
    );
}

#[test]
fn malformed_flags_fail_with_diagnostics_not_panics() {
    let qor_table = env!("CARGO_BIN_EXE_qor_table");
    assert_clean_failure(qor_table, &["--budget", "lots"], "--budget takes a usize");
    assert_clean_failure(qor_table, &["--objective", "bogus"], "--objective");
    assert_clean_failure(qor_table, &["--circuits", "nope"], "unknown circuit");
    assert_clean_failure(qor_table, &["--methods", "nope"], "unknown method");
    assert_clean_failure(
        qor_table,
        &["--fault-plan", "write:bogus@1"],
        "--fault-plan",
    );
    assert_clean_failure(qor_table, &["--deadline-secs", "-1"], "--deadline-secs");
    assert_clean_failure(
        qor_table,
        &["--from", "/nonexistent/sweep.csv"],
        "--from /nonexistent/sweep.csv",
    );
    assert_clean_failure(
        env!("CARGO_BIN_EXE_fig2_gp"),
        &["--seed", "abc"],
        "--seed takes a u64",
    );
}

#[test]
fn hostile_sweep_inputs_fail_before_any_run() {
    let qor_table = env!("CARGO_BIN_EXE_qor_table");
    for (args, expect) in [
        (&["--deadline-secs", "1e300"][..], "--deadline-secs 1e300"),
        (&["--budget", "3", "--methods", "boils"], "--budget 3"),
        (
            &["--methods", "greedy", "--multiplier", "1", "--budget", "5"],
            "--budget 5",
        ),
        (&["--bits", "100"], "--bits 100"),
        (&["--budjet", "5"], "unknown flag --budjet"),
        (&["--budget", "5", "stray"], "unexpected argument \"stray\""),
        (&["--k", "4", "--k", "0"], "--k is given twice"),
        (
            &[
                "--threads",
                "257",
                "--circuits",
                "adder",
                "--methods",
                "rs",
                "--budget",
                "1",
                "--multiplier",
                "1",
                "--seeds",
                "1",
                "--k",
                "1",
            ],
            "--threads 257 is outside 1..=256",
        ),
    ] {
        assert_one_error_line(qor_table, args, expect);
    }
    assert_one_error_line(
        env!("CARGO_BIN_EXE_perf_report"),
        &["--smoke", "stray"],
        "--smoke takes no value",
    );
}

/// [`assert_clean_failure`], and the diagnostic is the only line printed.
fn assert_one_error_line(bin: &str, args: &[&str], expect: &str) {
    assert_clean_failure(bin, args, expect);
    let (_, stderr) = run(bin, args);
    assert_eq!(stderr.lines().count(), 1, "{args:?}\nstderr: {stderr}");
}
