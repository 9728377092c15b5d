//! Integration tests for the `boils` command-line tool, driving the real
//! binary end to end through temp files.

use std::process::Command;

fn boils() -> Command {
    Command::new(env!("CARGO_BIN_EXE_boils"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("boils-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

#[test]
fn generate_stats_synth_check_round_trip() {
    let aag = tmp("rt.aag");
    let opt = tmp("rt_opt.aig");

    let out = boils()
        .args(["generate", "--circuit", "square", "--bits", "5", "--output"])
        .arg(&aag)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = boils()
        .args(["stats", "--input"])
        .arg(&aag)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("square_5"), "stats output: {text}");
    assert!(text.contains("if -K 6"));

    let out = boils()
        .args(["synth", "--input"])
        .arg(&aag)
        .args(["--ops", "balance;rewrite;resub", "--output"])
        .arg(&opt)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = boils()
        .args(["check", "--golden"])
        .arg(&aag)
        .arg("--revised")
        .arg(&opt)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQUIVALENT"));
}

#[test]
fn check_detects_inequivalence() {
    let a = tmp("neq_a.aag");
    let b = tmp("neq_b.aag");
    for (path, circuit) in [(&a, "adder"), (&b, "square")] {
        let out = boils()
            .args(["generate", "--circuit", circuit, "--bits", "4", "--output"])
            .arg(path)
            .output()
            .expect("spawn");
        assert!(out.status.success());
    }
    // adder(4) and square(4) even have the same PI count (8) — but they
    // differ in PO count, so `check` must fail cleanly either way.
    let out = boils()
        .args(["check", "--golden"])
        .arg(&a)
        .arg("--revised")
        .arg(&b)
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn optimize_runs_a_small_budget() {
    let out = boils()
        .args([
            "optimize",
            "--circuit",
            "bar",
            "--bits",
            "8",
            "--budget",
            "12",
            "--k",
            "6",
            "--method",
            "rs",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best cost"), "output: {text}");
    assert!(text.contains("vs resyn2"), "output: {text}");
    assert!(text.contains("objective     : qor"), "output: {text}");
    assert!(text.contains("evaluations   : 12"));
}

#[test]
fn optimize_with_a_surrogate_window_reports_the_lifecycle() {
    let out = boils()
        .args([
            "optimize",
            "--circuit",
            "max",
            "--bits",
            "4",
            "--budget",
            "14",
            "--k",
            "5",
            "--method",
            "boils",
            "--surrogate-window",
            "6",
            "--seed",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("evaluations   : 14"), "output: {text}");
    // The surrogate stats line carries the window and the lifecycle
    // counters, including the extend-fallback count.
    assert!(text.contains("surrogate     : window 6"), "output: {text}");
    assert!(text.contains("downdates"), "output: {text}");
    assert!(text.contains("fallback refits"), "output: {text}");
    // A malformed window is rejected with the flag's name.
    let bad = boils()
        .args([
            "optimize",
            "--circuit",
            "max",
            "--bits",
            "4",
            "--budget",
            "6",
            "--surrogate-window",
            "lots",
        ])
        .output()
        .expect("spawn");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--surrogate-window"));
}

#[test]
fn optimize_with_a_cache_dir_is_bit_identical_across_processes() {
    let cache = tmp("persist-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let run = || {
        let out = boils()
            .args([
                "optimize",
                "--circuit",
                "max",
                "--bits",
                "4",
                "--k",
                "5",
                "--method",
                "greedy",
                "--budget",
                "22",
                "--cache-dir",
            ])
            .arg(&cache)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let cold = run();
    assert!(cold.contains("cache dir"), "output: {cold}");
    let warm = run();
    let best = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("best cost"))
            .expect("best cost line")
            .to_string()
    };
    // A separate warmed process reproduces the cold run exactly and
    // actually used the disk tier.
    assert_eq!(best(&cold), best(&warm));
    assert!(
        !warm.contains("(0 disk hits"),
        "warm process never read the store: {warm}"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn switching_the_objective_reuses_the_warm_store() {
    let cache = tmp("objective-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let run = |objective: &str| {
        let out = boils()
            .args([
                "optimize",
                "--circuit",
                "max",
                "--bits",
                "4",
                "--k",
                "5",
                "--method",
                "greedy",
                "--budget",
                "22",
                "--objective",
                objective,
                "--cache-dir",
            ])
            .arg(&cache)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Cold run under Eq. 1 QoR fills the store; the re-run with a
    // different cost function replays the same greedy frontier and must
    // find every synthesis result already on disk — the cache is keyed on
    // cost-fn-independent synthesis stats.
    let cold = run("qor");
    assert!(cold.contains("objective     : qor"), "output: {cold}");
    let warm = run("lut");
    assert!(warm.contains("objective     : lut"), "output: {warm}");
    assert!(
        !warm.contains("(0 disk hits"),
        "lut re-run never read the store warmed by the qor run: {warm}"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn multi_objective_mode_prints_the_pareto_front() {
    let out = boils()
        .args([
            "optimize",
            "--circuit",
            "max",
            "--bits",
            "4",
            "--budget",
            "10",
            "--k",
            "5",
            "--method",
            "boils",
            "--mo",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(multi-objective)"), "output: {text}");
    assert!(text.contains("pareto front"), "output: {text}");
    assert!(text.contains("nondominated point(s)"), "output: {text}");
}

#[test]
fn optimize_and_a_daemon_job_give_the_same_bo_answer() {
    use boils::daemon::Value;
    use std::io::BufRead;
    // Both front ends run the job through one `Method::run`, so the BO
    // settings they use cannot drift apart.
    let job = "--circuit div --bits 6 --method boils --budget 30 --k 10 --seed 0";
    let out = boils()
        .arg("optimize")
        .args(job.split(' '))
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |prefix: &str| {
        let line = text.lines().find_map(|l| l.strip_prefix(prefix));
        line.and_then(|l| l.split_whitespace().next())
            .unwrap_or_else(|| panic!("{prefix} in {text}"))
            .to_string()
    };

    let mut server = boils()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read listen banner");
    let addr = banner.trim().strip_prefix("listening on ").expect("banner");
    let out = boils()
        .args(["submit", "--addr", addr, "--shutdown"])
        .args(job.split(' '))
        .output()
        .expect("spawn submit");
    assert!(out.status.success());
    let events = String::from_utf8_lossy(&out.stdout);
    let finished = events
        .lines()
        .map(|l| Value::parse(l).expect("event JSON"))
        .find(|e| e.get("event").and_then(Value::as_str) == Some("finished"))
        .unwrap_or_else(|| panic!("no finished event in {events}"));
    let sequence = finished.get("best_sequence").and_then(Value::as_str);
    assert_eq!(sequence, Some(field("best sequence : ").as_str()));
    let cost = finished
        .get("best_qor")
        .and_then(Value::as_f64)
        .expect("qor");
    assert_eq!(format!("{cost:.4}"), field("best cost     : "));
    assert!(server.wait().expect("server exits").success());
}

#[test]
fn serve_and_submit_run_a_mixed_batch_end_to_end() {
    use std::io::BufRead;
    // Port 0 lets the OS pick; the daemon prints the resolved address.
    let mut server = boils()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read listen banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .expect("listen banner")
        .to_string();

    // A mixed-objective batch on one circuit: the jobs share the
    // daemon's synthesis tiers, so combined unique work stays at the
    // number of distinct sequences while every job sees a full history.
    let jobs = tmp("daemon-batch.jsonl");
    std::fs::write(
        &jobs,
        concat!(
            r#"{"op":"submit","circuit":"adder","bits":4,"method":"rs","budget":6,"k":6,"seed":5,"objective":"qor"}"#,
            "\n",
            r#"{"op":"submit","circuit":"adder","bits":4,"method":"rs","budget":6,"k":6,"seed":5,"objective":"lut","priority":"high"}"#,
            "\n",
        ),
    )
    .expect("write batch");
    let out = boils()
        .args(["submit", "--addr", &addr, "--jobs"])
        .arg(&jobs)
        .output()
        .expect("spawn submit");
    assert!(
        out.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let events = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        events.matches("\"event\":\"finished\"").count(),
        2,
        "{events}"
    );
    assert!(
        events.contains("\"termination\":\"budget-exhausted\""),
        "{events}"
    );
    // Exact attribution across the two tenants: 6 distinct sequences,
    // 12 history entries, so shared hits make up the other 6.
    let mut unique = 0u64;
    let mut shared = 0u64;
    for line in events.lines().filter(|l| l.contains("\"finished\"")) {
        let grab = |key: &str| -> u64 {
            let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}"));
            line[at + key.len()..]
                .trim_start_matches(':')
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("counter")
        };
        unique += grab("\"unique_evaluations\"");
        shared += grab("\"shared_hits\"");
    }
    assert!(
        unique <= 6,
        "sharing failed: {unique} unique, events {events}"
    );
    assert_eq!(unique + shared, 12, "{events}");

    // A malformed job in a batch is rejected with a diagnostic (nonzero
    // exit) while the daemon keeps serving.
    let bad = tmp("daemon-bad.jsonl");
    std::fs::write(
        &bad,
        "{\"op\":\"submit\",\"circuit\":\"bogus\",\"method\":\"rs\",\"budget\":2}\n",
    )
    .expect("write batch");
    let out = boils()
        .args(["submit", "--addr", &addr, "--jobs"])
        .arg(&bad)
        .output()
        .expect("spawn submit");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("unknown circuit"),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    // Malformed submit flags fail locally with the daemon's diagnostic.
    let out = boils()
        .args([
            "submit",
            "--addr",
            &addr,
            "--circuit",
            "adder",
            "--method",
            "rs",
            "--budget",
            "lots",
        ])
        .output()
        .expect("spawn submit");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budget"));

    // One last job proves the daemon survived the bad batch, then stops it.
    // Random search over 20,000 sequences outlives the deadline in any
    // build; greedy would stop after k·11 = 66 evaluations, which an
    // unloaded debug build finishes in under 0.3 s.
    let out = boils()
        .args([
            "submit",
            "--addr",
            &addr,
            "--circuit",
            "adder",
            "--bits",
            "4",
            "--method",
            "rs",
            "--budget",
            "20000",
            "--k",
            "6",
            "--deadline-secs",
            "1",
            "--shutdown",
        ])
        .output()
        .expect("spawn submit");
    assert!(
        out.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"termination\":\"deadline-exceeded\""),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let status = server.wait().expect("server exits after shutdown");
    assert!(status.success());
}

#[test]
fn unknown_flags_and_circuits_fail_gracefully() {
    let out = boils()
        .args(["generate", "--circuit", "mystery", "--output", "/tmp/x.aag"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown circuit"));

    let out = boils()
        .args(["generate", "--circuit", "adder", "--bogus", "1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --bogus"));

    for args in [&["help"][..], &["--help"], &[]] {
        let out = boils().args(args).output().expect("spawn");
        assert!(out.status.success(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    }
}

/// Runs `boils args` and asserts it fails with one `error:` line that
/// contains `expect`, and no panic.
fn assert_one_error_line(args: &[&str], expect: &str) {
    let out = boils().args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{args:?} must fail\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} panicked\nstderr: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{args:?}\nstderr: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(expect),
        "{args:?} must say `{expect}`\nstderr: {stderr}"
    );
}

#[test]
fn hostile_inputs_get_one_error_line_and_no_panic() {
    fn optimize<'a>(extra: &[&'a str]) -> Vec<&'a str> {
        [&["optimize", "--circuit", "adder", "--bits", "4"], extra].concat()
    }
    for method in [
        "boils", "sbo", "ga", "rs", "greedy", "ppo", "a2c", "rl", "graphrl",
    ] {
        assert_one_error_line(
            &optimize(&["--method", method, "--budget", "0"]),
            "--budget takes a positive evaluation count",
        );
    }
    for (extra, expect) in [
        (
            &["--budget", "3"][..],
            "--budget 3 is below boils's minimum of 5",
        ),
        (
            &["--method", "sbo", "--budget", "4"],
            "--budget 4 is below sbo's",
        ),
        (
            &["--method", "ga", "--budget", "1"],
            "--budget 1 is below ga's",
        ),
        (
            &["--method", "greedy", "--k", "4", "--budget", "10"],
            "--budget 10 is below greedy's minimum of 11",
        ),
        (&["--k", "0"], "--k takes a positive sequence length"),
        (
            &["--deadline-secs", "-1"],
            "--deadline-secs takes a positive",
        ),
        (
            &["--deadline-secs", "nan"],
            "--deadline-secs takes a positive",
        ),
        (
            &["--deadline-secs", "inf"],
            "--deadline-secs takes a positive",
        ),
        (
            &["--deadline-secs", "1e300"],
            "--deadline-secs 1e300 is out of range",
        ),
        (&["--budjet", "6"], "unknown flag --budjet"),
        (
            &[
                "--method",
                "greedy",
                "--k",
                "1",
                "--budget",
                "11",
                "--threads",
                "257",
            ],
            "--threads 257 is outside 1..=256",
        ),
        (
            &[
                "--method",
                "greedy",
                "--k",
                "1",
                "--budget",
                "11",
                "--threads",
                "0",
            ],
            "--threads 0 is outside 1..=256",
        ),
    ] {
        assert_one_error_line(&optimize(extra), expect);
    }
    let never_written = tmp("never-written.aag");
    let never_written = never_written.to_str().expect("utf-8 temp path");
    for (args, expect) in [
        (
            &["optimize", "--circuit", "adder", "--bits", "0"][..],
            "--bits 0 is not a width adder supports: 2 to 64 bits",
        ),
        (
            &[
                "generate",
                "--circuit",
                "adder",
                "--bits",
                "0",
                "--output",
                never_written,
            ],
            "--bits 0 is not a width adder supports: 2 to 64 bits",
        ),
        (
            &["optimize", "--circuit", "adder", "--bits", "100"],
            "--bits 100 is not a width adder supports",
        ),
        (
            &["optimize", "--circuit", "bar", "--bits", "6"],
            "--bits 6 is not a width bar supports: 2 to 64 bits, a power of two",
        ),
        (
            &["optimize", "--circuit", "sqrt", "--bits", "7"],
            "--bits 7 is not a width sqrt supports: 2 to 64 bits, even",
        ),
        (
            &[
                "map",
                "--circuit",
                "adder",
                "--bits",
                "4",
                "--lut-size",
                "7",
            ],
            "--lut-size 7 is outside 2..=6",
        ),
        (
            &["stats", "--circuit", "adder", "--output", never_written],
            "unknown flag --output",
        ),
        (&["optimise"], "unknown command \"optimise\""),
    ] {
        assert_one_error_line(args, expect);
    }
    assert!(!std::path::Path::new(never_written).exists());
}
