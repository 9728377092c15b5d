//! The repository benchmark. See `BENCHMARK.json` for the workloads and
//! metrics, and `run.sh` for how to build and invoke it.
//!
//! A run executes closed-loop optimisations of one workload, each in a
//! fresh child process (cold evaluator, cold store), checks every result,
//! and prints one JSON object as its last line of output:
//!
//! * `--trace 0`: the end-to-end metrics, medians over [`LOOPS`] loops with
//!   optimiser seeds derived from `--seed`;
//! * `--trace 1`: additionally one traced loop (same seed as loop 0), whose
//!   per-layer metrics are printed instead.
//!
//! `--calibrate` reproduces the ROADMAP's retrain / acquire / synthesis
//! split on adder(32); `--target <workload>` measures a workload's frozen
//! `evals_to_target` target.

mod closed_loop;
mod layers;
mod probe;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use boils_baselines::random_search;
use boils_core::{QorEvaluator, SequenceSpace};

use crate::closed_loop::Figures;
use crate::workload::{loop_seed, Method, Workload};

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("best_qor", "qor"),
    ("qor_auc", "qor"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Loops per run. A closed loop's wall time depends on its seed (the
/// trajectory decides which transforms run), so a run reports medians
/// over several seeds.
const LOOPS: usize = 3;

/// End-to-end metrics that are pure functions of the seeds: reported over
/// the first [`LOOPS`] loops only, so they repeat exactly.
const QOR_METRICS: [&str; 2] = ["best_qor", "qor_auc"];

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// `evals_to_target` is a whole-run quality figure, but it spreads far
/// more across seeds (quartile spread about its median) than an
/// end-to-end bound may allow, so it is reported here, from the traced
/// loop, without a bound.
const PER_LAYER: [(&str, &str); 48] = [
    ("evals_to_target", "evals"),
    ("eval.calls", "count"),
    ("eval.unique", "count"),
    ("eval.busy_s", "s"),
    ("eval.ms_p50", "ms"),
    ("eval.design_s", "s"),
    ("eval.guard_probes", "count"),
    ("eval.failed_frac", "ratio"),
    ("propose.gaps", "count"),
    ("propose.busy_s", "s"),
    ("propose.ms_p50", "ms"),
    ("retrain.count", "count"),
    ("retrain.s", "s"),
    ("acquire.s", "s"),
    ("surrogate.extends", "count"),
    ("surrogate.fallback_refits", "count"),
    ("gp.fit_ms", "ms"),
    ("gp.predict_us", "us"),
    ("ssk.pair_us", "us"),
    ("prefix.hits", "count"),
    ("prefix.passes_applied", "count"),
    ("prefix.passes_saved", "count"),
    ("prefix.saved_ratio", "ratio"),
    ("prefix.evictions", "count"),
    ("store.disk_writes", "count"),
    ("store.dedup_hits", "count"),
    ("store.write_failures", "count"),
    ("store.retries", "count"),
    ("store.bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.lookup_us_p50", "us"),
    ("store.lookup_us_p90", "us"),
    ("store.write_us_p50", "us"),
    ("synth.Rw.ms_p50", "ms"),
    ("synth.Rz.ms_p50", "ms"),
    ("synth.Rf.ms_p50", "ms"),
    ("synth.Fz.ms_p50", "ms"),
    ("synth.Rs.ms_p50", "ms"),
    ("synth.Sz.ms_p50", "ms"),
    ("synth.Ba.ms_p50", "ms"),
    ("synth.Fr.ms_p50", "ms"),
    ("synth.So.ms_p50", "ms"),
    ("synth.Bl.ms_p50", "ms"),
    ("synth.Ds.ms_p50", "ms"),
    ("synth.replay_s", "s"),
    ("map.ms_p50", "ms"),
    ("aig.ands_final_p50", "count"),
    ("trace.overhead_s", "s"),
];

/// The traced run's accounting must cover its wall time to within this.
const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// Where runs keep their stores; removed when the run ends.
const WORK_DIR: &str = ".bench_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("loop") => child(&args[1..]),
        Some("--calibrate") => calibrate(),
        Some("--target") => target(args.get(1).map_or("", String::as_str)),
        _ => drive(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// `loop <workload> <seed> <traced> <dir>`: one closed loop in this process.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let [name, seed, traced, dir] = args else {
        return Err("usage: loop <workload> <seed> <0|1> <dir>".into());
    };
    let w = workload_named(name)?;
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let (fig, failures) = closed_loop::run(&w, seed, traced == "1", Path::new(dir))?;
    for (key, value) in &fig {
        println!("{key} {value}");
    }
    for failure in failures {
        println!("fail {failure}");
    }
    Ok(ExitCode::SUCCESS)
}

/// One child loop's figures and failed checks.
fn spawn_loop(
    w: &Workload,
    seed: u64,
    traced: bool,
    dir: &Path,
) -> Result<(Figures, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("loop")
        .arg(w.name)
        .arg(seed.to_string())
        .arg(if traced { "1" } else { "0" })
        .arg(dir)
        .output()
        .map_err(|e| format!("spawn loop: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("loop with seed {seed} failed: {}", output.status));
    }
    let mut fig = Figures::new();
    let mut failures = Vec::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        if key == "fail" {
            failures.push(format!("seed {seed}: {value}"));
            continue;
        }
        let value: f64 = value
            .parse()
            .map_err(|e| format!("loop output {line:?}: {e}"))?;
        fig.insert(key.to_string(), value);
    }
    Ok((fig, failures))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 50.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(workload_named(value)?),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload.name == workload::CALIBRATION.name {
        return Err("the calibration setting is not a workload; use --calibrate".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Runs `f` in a fresh per-process directory under [`WORK_DIR`], removed
/// afterwards whatever `f` returns.
fn in_work_dir<T>(f: impl FnOnce(&Path) -> Result<T, String>) -> Result<T, String> {
    let work = PathBuf::from(WORK_DIR).join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let outcome = f(&work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    outcome
}

fn drive(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(args)?;
    let w = args.workload;
    let (metrics, attempted, failed, failures) = in_work_dir(|work| measure(&args, work))?;

    for failure in &failures {
        eprintln!("perfbench: {}: {failure}", w.name);
    }
    let units = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(metrics.get(*name).copied().unwrap_or(0.0))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        body.join(", ")
    );
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

type Measured = (Figures, usize, usize, Vec<String>);

/// Runs the loops of one benchmark run and aggregates their figures.
fn measure(args: &Args, work: &Path) -> Result<Measured, String> {
    let w = &args.workload;
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let started = Instant::now();
    let mut loops: Vec<Figures> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    // `LOOPS` loops, then more while another one clearly fits in the time
    // (so the count does not flip between runs of one workload). A traced
    // run needs only the untraced twin of its traced loop.
    let wanted = if args.trace { 1 } else { LOOPS };
    loop {
        let n = loops.len();
        if n >= wanted {
            let per_loop = started.elapsed() / n as u32;
            if args.trace || started.elapsed() + per_loop * 3 / 2 > budget {
                break;
            }
        }
        let (fig, fails) = spawn_loop(
            w,
            loop_seed(args.seed, n),
            false,
            &work.join(format!("loop{n}")),
        )?;
        failures.extend(fails);
        loops.push(fig);
    }
    let column = |key: &str, rows: &[Figures]| -> Vec<f64> {
        rows.iter()
            .map(|f| f.get(key).copied().unwrap_or(0.0))
            .collect()
    };
    let mut metrics = Figures::new();
    for (name, _) in END_TO_END {
        let rows = if QOR_METRICS.contains(&name) {
            &loops[..wanted]
        } else {
            &loops[..]
        };
        metrics.insert(
            name.into(),
            stats::median(&column(name, rows)).expect("loops ran"),
        );
    }
    let mut attempted: usize = column("attempted", &loops).iter().sum::<f64>() as usize;
    let mut failed: usize = column("failed", &loops).iter().sum::<f64>() as usize;

    if args.trace {
        let (traced, fails) = spawn_loop(w, loop_seed(args.seed, 0), true, &work.join("traced"))?;
        failures.extend(fails);
        attempted += traced["attempted"] as usize;
        failed += traced["failed"] as usize;
        failures.extend(check_traced(w, &loops[0], &traced));
        metrics = traced.clone();
        metrics.insert(
            "trace.overhead_s".into(),
            traced["run_s"] - loops[0]["run_s"],
        );
    }
    Ok((metrics, attempted, failed, failures))
}

/// The traced run's own checks: same trajectory as its untraced twin,
/// replays that agree with the run, accounting that covers the wall time,
/// and each workload in its role.
fn check_traced(w: &Workload, untraced: &Figures, traced: &Figures) -> Vec<String> {
    let mut failures = Vec::new();
    if untraced["traj_hi"] != traced["traj_hi"] || untraced["traj_lo"] != traced["traj_lo"] {
        failures.push("traced trajectory differs from the untraced run of the same seed".into());
    }
    if traced["synth.replay_mismatches"] != 0.0 {
        failures.push(format!(
            "{} replayed sequences disagree with the run's recorded area/delay",
            traced["synth.replay_mismatches"]
        ));
    }
    let ratio = traced["acct.ratio"];
    if (1.0 - ratio).abs() > ACCOUNTING_TOLERANCE {
        failures.push(format!(
            "eval.busy_s + propose.busy_s covers {:.1}% of run_s",
            ratio * 100.0
        ));
    }
    // Random search proposes nothing between evaluations, whatever the
    // evaluator's speed.
    let eval_share = traced["acct.eval_share"];
    if w.method == Method::RandomSearch && eval_share < 0.9 {
        failures.push(format!(
            "evaluation share {eval_share:.3} is below 0.9 under random search"
        ));
    }
    let store_figure = |name: &str| name.starts_with("store.");
    for (name, _) in PER_LAYER {
        if !store_figure(name) && name != "trace.overhead_s" && !traced.contains_key(name) {
            failures.push(format!("the traced loop did not report {name}"));
        }
    }
    let store_active = PER_LAYER
        .iter()
        .any(|(name, _)| store_figure(name) && traced.get(*name).is_some_and(|&v| v != 0.0));
    if store_active != w.store {
        failures.push(format!(
            "store.* figures are {} on a workload {} a store",
            if store_active { "non-zero" } else { "all zero" },
            if w.store { "with" } else { "without" }
        ));
    }
    failures
}

/// The ROADMAP's layer split (adder(32), BOiLS default, budget 120,
/// K = 20, one thread), measured by a patched build: 34% retrain, 35%
/// acquisition, 25% synthesis.
const ROADMAP_SPLIT: [(&str, f64); 3] = [("retrain", 0.34), ("acquire", 0.35), ("synthesis", 0.25)];

/// Points (percent of `run_s`) a calibrated share may differ by.
const CALIBRATION_TOLERANCE: f64 = 0.05;

fn calibrate() -> Result<ExitCode, String> {
    let w = workload::CALIBRATION;
    let (fig, failures) = in_work_dir(|work| spawn_loop(&w, 0, true, work))?;
    let run_s = fig["run_s"];
    let measured = [
        fig["retrain.s"] / run_s,
        fig["acquire.s"] / run_s,
        fig["eval.busy_s"] / run_s,
    ];
    let mut ok = failures.is_empty();
    println!("calibration: {} (seed 0), run_s {run_s:.3}", w.name);
    for ((layer, expected), share) in ROADMAP_SPLIT.iter().zip(measured) {
        let within = (share - expected).abs() <= CALIBRATION_TOLERANCE;
        ok &= within;
        println!(
            "  {layer:<10} {:5.1}%  (ROADMAP {:4.1}%)  {}",
            share * 100.0,
            expected * 100.0,
            if within { "within 5 points" } else { "OFF" }
        );
    }
    for failure in failures {
        println!("  check failed: {failure}");
    }
    println!(
        "  retrains {}, accounting {:.1}% of run_s",
        fig["retrain.count"],
        fig["acct.ratio"] * 100.0
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Random search's best QoR at the workload's budget with seed 0.
fn target(name: &str) -> Result<ExitCode, String> {
    let w = workload_named(name)?;
    let evaluator = QorEvaluator::new(&closed_loop::base_circuit(&w)).map_err(|e| e.to_string())?;
    let result = random_search(&evaluator, SequenceSpace::paper(), w.budget, 0, 1);
    println!("{} rs@{} seed 0: {}", w.name, w.budget, result.best_qor);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this harness must name the same metrics and
    /// workloads.
    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in workload::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
    }
}
