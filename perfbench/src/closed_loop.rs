//! One closed-loop optimisation in this process: set up cold, run, check
//! the result, and (when traced) time each layer from outside. Prints one
//! `key value` line per figure; the parent run aggregates loops.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

use boils_aig::Aig;
use boils_baselines::random_search;
use boils_circuits::CircuitSpec;
use boils_core::{
    Boils, BoilsConfig, Objective, OptimizationResult, QorEvaluator, RunDiagnostics,
    SequenceObjective, SequenceSpace,
};
use boils_mapper::{synth_stats, MapperConfig};
use boils_sat::{check_equivalence, EquivResult};
use boils_synth::apply_sequence;

use crate::layers;
use crate::probe::TimedObjective;
use crate::stats::{self, Event};
use crate::workload::{Method, Workload};

/// Set-ups timed per loop, half before the run and half after it, so the
/// samples span the loop rather than one moment of a noisy machine; the
/// median is reported.
const SETUP_REPEATS: usize = 10;

pub type Figures = BTreeMap<String, f64>;

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over every evaluation's tokens and QoR bits: equal hashes mean
/// bit-identical trajectories.
pub fn trajectory_hash(result: &OptimizationResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for record in &result.history {
        record.tokens.iter().for_each(|&t| eat(t));
        record
            .point
            .qor
            .to_bits()
            .to_le_bytes()
            .iter()
            .for_each(|&b| eat(b));
    }
    h
}

/// The workload's base circuit.
pub fn base_circuit(w: &Workload) -> Aig {
    CircuitSpec::new(w.circuit).bits(w.bits).build()
}

fn build_evaluator(w: &Workload, store_dir: &Path) -> Result<QorEvaluator, String> {
    let evaluator = QorEvaluator::new(&base_circuit(w)).map_err(|e| e.to_string())?;
    if w.store {
        return evaluator
            .with_persistent_store(store_dir)
            .map_err(|e| format!("store open: {e}"));
    }
    Ok(evaluator)
}

fn optimise<O: SequenceObjective>(
    w: &Workload,
    seed: u64,
    objective: &O,
) -> Result<(OptimizationResult, Option<RunDiagnostics>), String> {
    match w.method {
        Method::Boils { batch_size } => {
            let mut boils = Boils::new(BoilsConfig {
                max_evaluations: w.budget,
                batch_size,
                threads: w.threads,
                seed,
                ..BoilsConfig::default()
            });
            let result = boils.run(objective).map_err(|e| e.to_string())?;
            Ok((result, Some(boils.diagnostics().clone())))
        }
        Method::RandomSearch => Ok((
            random_search(objective, SequenceSpace::paper(), w.budget, seed, w.threads),
            None,
        )),
    }
}

/// The correctness gate; returns the failed checks.
fn gate(w: &Workload, evaluator: &QorEvaluator, result: &OptimizationResult) -> Vec<String> {
    let mut failures = Vec::new();
    let distinct: HashSet<&[u8]> = result.history.iter().map(|r| r.tokens.as_slice()).collect();
    if result.history.len() != w.budget
        || evaluator.num_evaluations() != w.budget
        || distinct.len() != w.budget
    {
        failures.push(format!(
            "budget: {} records, {} unique evaluations, {} distinct, budget {}",
            result.history.len(),
            evaluator.num_evaluations(),
            distinct.len(),
            w.budget
        ));
    }
    let base = evaluator.circuit();
    let best = apply_sequence(base, &SequenceSpace::paper().decode(&result.best_tokens));
    let stats = synth_stats(&best, &MapperConfig::default());
    let qor = Objective::Qor.cost(&stats, &evaluator.reference_stats());
    if stats.luts != result.best_point.area
        || stats.levels != result.best_point.delay
        || qor.to_bits() != result.best_qor.to_bits()
    {
        failures.push(format!(
            "replay: {} LUTs / {} levels / QoR {qor} against {} / {} / {}",
            stats.luts,
            stats.levels,
            result.best_point.area,
            result.best_point.delay,
            result.best_qor
        ));
    }
    if check_equivalence(base, &best, None) != EquivResult::Equivalent {
        failures.push("the best AIG is not SAT-equivalent to the base circuit".into());
    }
    failures
}

/// Runs one loop and returns its figures (and the failed gate checks).
pub fn run(
    w: &Workload,
    seed: u64,
    traced: bool,
    dir: &Path,
) -> Result<(Figures, Vec<String>), String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut set_up = |r: usize| -> Result<QorEvaluator, String> {
        let start = Instant::now();
        let built = build_evaluator(w, &dir.join(format!("store{r}")))?;
        setup_times.push(start.elapsed().as_secs_f64());
        Ok(built)
    };
    for r in 1..SETUP_REPEATS / 2 {
        set_up(r)?;
    }
    let evaluator = set_up(0)?;

    let mut fig = Figures::new();
    let start = Instant::now();
    let (result, diagnostics, events) = if traced {
        let probe = TimedObjective::new(&evaluator);
        let (result, diagnostics) = optimise(w, seed, &probe)?;
        (result, diagnostics, probe.into_events())
    } else {
        let (result, diagnostics) = optimise(w, seed, &evaluator)?;
        (result, diagnostics, Vec::new())
    };
    let run_s = start.elapsed().as_secs_f64();
    fig.insert("peak_rss_mb".into(), vm_hwm_mb());
    for r in SETUP_REPEATS / 2..SETUP_REPEATS {
        set_up(r)?;
    }

    let qors: Vec<f64> = result.history.iter().map(|r| r.point.qor).collect();
    fig.insert(
        "setup_s".into(),
        stats::median(&setup_times).expect("set-ups ran"),
    );
    fig.insert("run_s".into(), run_s);
    fig.insert("best_qor".into(), result.best_qor);
    fig.insert("qor_auc".into(), stats::qor_auc(&qors));
    fig.insert(
        "evals_to_target".into(),
        stats::evals_to_target(&qors, w.target, w.budget) as f64,
    );
    fig.insert("attempted".into(), result.history.len() as f64);
    fig.insert("failed".into(), result.quarantined.len() as f64);
    fig.insert(
        "ok_frac".into(),
        1.0 - stats::failed_frac(result.history.len(), result.quarantined.len()),
    );
    // Exact in f64: the hash is split into two 32-bit halves.
    let hash = trajectory_hash(&result);
    fig.insert("traj_hi".into(), (hash >> 32) as f64);
    fig.insert("traj_lo".into(), (hash & 0xffff_ffff) as f64);

    let failures = gate(w, &evaluator, &result);

    if traced {
        trace_figures(
            &mut fig,
            &evaluator,
            &result,
            diagnostics.as_ref(),
            &events,
            run_s,
        );
        layers::gp_figures(&mut fig, &result);
        let finals = layers::synth_figures(&mut fig, evaluator.circuit(), &result);
        layers::store_figures(&mut fig, &evaluator, &result, &finals, dir);
    }
    Ok((fig, failures))
}

/// The evaluation and proposal figures of a traced run, from the calls
/// its [`TimedObjective`] logged.
fn trace_figures(
    fig: &mut Figures,
    evaluator: &QorEvaluator,
    result: &OptimizationResult,
    diagnostics: Option<&RunDiagnostics>,
    events: &[Event],
    run_s: f64,
) {
    let segments = stats::segment(events);
    let eval_ms: Vec<f64> = events
        .iter()
        .filter_map(|e| match *e {
            Event::Eval(s, t) => Some((t - s) * 1e3),
            _ => None,
        })
        .collect();
    let probes = events
        .iter()
        .filter(|e| !matches!(e, Event::Eval(..)))
        .count();
    let eval_busy: f64 = segments.batches.iter().map(|(s, t)| t - s).sum();
    let gap_secs: Vec<f64> = segments.gaps.iter().map(|g| g.secs).collect();
    let propose_busy: f64 = gap_secs.iter().sum();
    let gap_ms: Vec<f64> = gap_secs.iter().map(|s| s * 1e3).collect();
    fig.insert("eval.calls".into(), eval_ms.len() as f64);
    fig.insert("eval.unique".into(), evaluator.num_evaluations() as f64);
    fig.insert("eval.busy_s".into(), eval_busy);
    fig.insert("eval.ms_p50".into(), stats::median(&eval_ms).unwrap_or(0.0));
    fig.insert(
        "eval.design_s".into(),
        segments.batches.first().map_or(0.0, |(s, t)| t - s),
    );
    fig.insert("eval.guard_probes".into(), probes as f64);
    fig.insert(
        "eval.failed_frac".into(),
        stats::failed_frac(result.history.len(), result.quarantined.len()),
    );
    fig.insert("propose.gaps".into(), gap_ms.len() as f64);
    fig.insert("propose.busy_s".into(), propose_busy);
    fig.insert(
        "propose.ms_p50".into(),
        stats::median(&gap_ms).unwrap_or(0.0),
    );
    let retrains_at = diagnostics.map_or(&[][..], |d| d.retrains_at.as_slice());
    let (retrain_s, acquire_s) = stats::split_retrain_acquire(&segments.gaps, retrains_at);
    fig.insert("retrain.count".into(), retrains_at.len() as f64);
    fig.insert("retrain.s".into(), retrain_s);
    fig.insert("acquire.s".into(), acquire_s);
    fig.insert(
        "surrogate.extends".into(),
        diagnostics.map_or(0, |d| d.surrogate.extends) as f64,
    );
    fig.insert(
        "surrogate.fallback_refits".into(),
        diagnostics.map_or(0, |d| d.surrogate.fallback_refits) as f64,
    );
    // The evaluator is fresh, so its prefix-cache counters are the run's.
    let prefix = evaluator.prefix_stats();
    let (applied, saved) = (prefix.passes_applied, prefix.passes_saved);
    fig.insert("prefix.hits".into(), prefix.prefix_hits as f64);
    fig.insert("prefix.passes_applied".into(), applied as f64);
    fig.insert("prefix.passes_saved".into(), saved as f64);
    fig.insert(
        "prefix.saved_ratio".into(),
        saved as f64 / (applied + saved).max(1) as f64,
    );
    fig.insert("prefix.evictions".into(), prefix.evictions as f64);
    fig.insert("acct.ratio".into(), (eval_busy + propose_busy) / run_s);
    fig.insert("acct.eval_share".into(), eval_busy / run_s);
    fig.insert("acct.propose_share".into(), propose_busy / run_s);
}
