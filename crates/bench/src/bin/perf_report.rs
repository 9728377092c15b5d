//! Performance report for the incremental hot-path engine: measures QoR
//! evaluation throughput (prefix cache on/off), end-to-end optimiser
//! wall-clock (a greedy sweep with the prefix cache on and off, and one
//! default-config BOiLS run), GP fit latency (from-scratch vs
//! incremental extension), batched q-EI acquisition (q = 1 vs q = 4),
//! the persistent prefix store (cold vs warm process), the
//! content-addressed semantic store (cross-circuit payload dedup), the
//! surrogate lifecycle (windowed vs unbounded per-step cost at budget
//! ≥ 500, four-lane SSK retrains), the cost-generic objective layer
//! (cross-objective store reuse, multi-objective hypervolume trace) and
//! the multi-tenant daemon (N jobs through one shared evaluator pool vs
//! N isolated runs), then writes `BENCH_eval.json`.
//!
//! This is the repo's perf trajectory: every entry that times an
//! accelerated path against its baseline also re-checks it — bit-identical
//! where the machinery guarantees it (prefix cache, daemon tenants),
//! within 1e-10 for the GP extension, exact budget discipline for q-EI
//! (whose q > 1 trajectory legitimately differs) — so a speedup can never
//! come from quietly changing or shrinking the search.
//!
//! ```text
//! perf_report [--out FILE] [--smoke] [--threads N]
//! ```
//!
//! Any other argument is an error. `--smoke` shrinks every workload for
//! CI and writes `BENCH_smoke.json` by default, never the committed
//! full-run `BENCH_eval.json`.

use std::time::Instant;

use boils_baselines::{check_threads, greedy};
use boils_bench::cli::{run_or_exit, BenchArgs};
use boils_circuits::{Benchmark, CircuitSpec};
use boils_core::{
    Boils, BoilsConfig, Objective, PersistentPrefixStore, QorEvaluator, RunControl, RunLedger,
    SequenceSpace,
};
use boils_gp::{
    hypervolume_2d, hypervolume_reference, Gp, SskKernel, Surrogate, SurrogateConfig, TrainConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = run_or_exit(BenchArgs::from_env("--out= --threads= --smoke"));
    let smoke = args.flag("--smoke");
    let default_out = if smoke {
        "BENCH_smoke.json"
    } else {
        "BENCH_eval.json"
    };
    let out = args.value("--out").unwrap_or(default_out).to_string();
    let threads = match run_or_exit(args.parse("--threads")) {
        Some(threads) => run_or_exit(check_threads("--threads", threads)),
        None => std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
    };

    let circuit = Benchmark::Adder;
    let aig = CircuitSpec::new(circuit).build();
    eprintln!(
        "perf_report: circuit {} ({} ANDs), {} threads, smoke={}",
        circuit,
        aig.num_ands(),
        threads,
        smoke
    );

    let mut sections: Vec<String> = Vec::new();
    sections.push(format!(
        "  \"config\": {{\"circuit\": \"{}\", \"bits\": {}, \"threads\": {}, \"smoke\": {}}}",
        circuit,
        CircuitSpec::new(circuit).num_bits(),
        threads,
        smoke
    ));

    sections.push(eval_throughput(&aig, threads, smoke));
    sections.push(sim_section(&aig, smoke));
    sections.push(greedy_section(&aig, smoke));
    sections.push(boils_section(&aig, smoke));
    sections.push(gp_fit_section(smoke));
    sections.push(qei_section(&aig, threads, smoke));
    sections.push(persist_section(&aig, smoke));
    sections.push(semantic_store_section(&aig, smoke));
    sections.push(surrogate_section(smoke));
    sections.push(objectives_section(&aig, smoke));
    sections.push(daemon_section(circuit, threads, smoke));

    let json = format!("{{\n{}\n}}\n", sections.join(",\n"));
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("perf_report: wrote {out}");
}

/// Timed runs per `eval_throughput` row.
const THROUGHPUT_REPEATS: usize = 3;

/// Evaluation time, in seconds, that one timed run of a full-run
/// `eval_throughput` row sums at least.
const THROUGHPUT_MIN_SECONDS: f64 = 1.0;

/// Throughput of batched QoR evaluation, prefix cache on vs off, serial
/// vs parallel, over two workloads that bracket what the optimisers
/// actually submit:
///
/// * **`trust_region`** — a shared centre with Hamming-ball
///   perturbations anywhere in the sequence. An early-position edit
///   invalidates every later pass, so candidates share almost no
///   *prefixes* and the cache's bookkeeping is nearly pure overhead.
///   This row used to be the section's only one, presented as the
///   cache's showcase; it is kept, honestly labelled, as its worst case.
/// * **`shared_prefix`** — all candidates agree on a long common stem
///   and differ only in the final two positions (the greedy sweep /
///   exploitation shape). Here the cache's reuse dominates and the
///   speedup is real (`passes_saved` says why).
///
/// One timed run per row is too noisy to rank the rows: the first work of
/// a process runs slower than the rest, and a cached `shared_prefix` batch
/// takes well under a second. So a discarded warm-up batch goes first;
/// then every row runs [`THROUGHPUT_REPEATS`] times, round-robin. In a
/// full run, each of those sums the time of successive batches until the
/// sum reaches [`THROUGHPUT_MIN_SECONDS`] (a row slower than that times
/// one batch); a smoke run times one batch. Every batch runs on a fresh
/// evaluator, built outside the timer. A row reports the median seconds
/// per batch with the min and max. Pass counts come from the first batch.
fn eval_throughput(aig: &boils_aig::Aig, threads: usize, smoke: bool) -> String {
    let seq_len = if smoke { 8 } else { 20 };
    let count = if smoke { 24 } else { 96 };
    let space = SequenceSpace::new(seq_len, 11);
    let mut rng = StdRng::seed_from_u64(42);
    let center = space.sample(&mut rng);
    let trust_region: Vec<Vec<u8>> = (0..count)
        .map(|i| {
            if i % 4 == 0 {
                space.sample(&mut rng)
            } else {
                space.sample_in_ball(&center, 1 + rng.gen_range(0..4usize), &mut rng)
            }
        })
        .collect();
    let stem = space.sample(&mut rng);
    let shared_prefix: Vec<Vec<u8>> = (0..count)
        .map(|i| {
            let mut tokens = stem.clone();
            tokens[seq_len - 2] = (i % space.alphabet()) as u8;
            tokens[seq_len - 1] = ((i / space.alphabet()) % space.alphabet()) as u8;
            tokens
        })
        .collect();

    let thread_settings: Vec<usize> = if threads > 1 {
        vec![1, threads]
    } else {
        vec![1]
    };
    let mut rows = Vec::new();
    for (workload, batch) in [
        ("trust_region", &trust_region),
        ("shared_prefix", &shared_prefix),
    ] {
        for &prefix_cache in &[false, true] {
            for &t in &thread_settings {
                rows.push((workload, batch, prefix_cache, t));
            }
        }
    }
    // One timed run: (seconds per batch, batches, the first batch's
    // points and pass counts).
    let run = |batch: &[Vec<u8>], prefix_cache: bool, threads: usize, min_seconds: f64| {
        let control = RunControl::new();
        let mut seconds = 0.0;
        let mut batches = 0;
        let mut first = None;
        while batches == 0 || seconds < min_seconds {
            let evaluator = QorEvaluator::new(aig).expect("non-degenerate reference");
            let evaluator = if prefix_cache {
                evaluator
            } else {
                evaluator.without_prefix_cache()
            };
            let mut ledger = RunLedger::new(&evaluator, threads, &control);
            let start = Instant::now();
            let records = ledger.evaluate(batch);
            seconds += start.elapsed().as_secs_f64();
            batches += 1;
            let points: Vec<_> = records.iter().map(|r| r.point).collect();
            match &first {
                Some((reference, _)) => assert_eq!(reference, &points, "a batch changed values"),
                None => first = Some((points, evaluator.prefix_stats())),
            }
        }
        let (points, stats) = first.expect("at least one batch");
        (seconds / batches as f64, batches, points, stats)
    };
    let min_seconds = if smoke { 0.0 } else { THROUGHPUT_MIN_SECONDS };
    run(&trust_region, false, 1, 0.0); // the warm-up
    let mut runs = vec![Vec::new(); rows.len()];
    for _ in 0..THROUGHPUT_REPEATS {
        for (r, &(_, batch, prefix_cache, t)) in rows.iter().enumerate() {
            runs[r].push(run(batch, prefix_cache, t, min_seconds));
        }
    }

    let mut lines = Vec::new();
    for (r, &(workload, _, prefix_cache, t)) in rows.iter().enumerate() {
        let first_of_workload = rows.iter().position(|row| row.0 == workload);
        let reference = &runs[first_of_workload.expect("the row itself")][0].2;
        for (_, _, points, stats) in &runs[r] {
            assert_eq!(reference, points, "prefix cache or threads changed values");
            if prefix_cache && workload == "shared_prefix" {
                assert!(
                    stats.passes_saved > 0,
                    "the shared-prefix workload must exercise prefix reuse"
                );
            }
        }
        let mut secs: Vec<f64> = runs[r].iter().map(|run| run.0).collect();
        secs.sort_by(f64::total_cmp);
        let (min, median, max) = (secs[0], secs[secs.len() / 2], secs[secs.len() - 1]);
        let stats = runs[r][0].3;
        let batches: usize = runs[r].iter().map(|run| run.1).sum();
        lines.push(format!(
            "    {{\"workload\": \"{}\", \"seq_len\": {}, \"threads\": {}, \
             \"prefix_cache\": {}, \"evals\": {}, \"repeats\": {}, \"batches\": {}, \
             \"seconds\": {:.6}, \"seconds_min\": {:.6}, \"seconds_max\": {:.6}, \
             \"evals_per_sec\": {:.2}, \"passes_applied\": {}, \"passes_saved\": {}}}",
            workload,
            seq_len,
            t,
            prefix_cache,
            count,
            THROUGHPUT_REPEATS,
            batches,
            median,
            min,
            max,
            count as f64 / median,
            stats.passes_applied,
            stats.passes_saved
        ));
        eprintln!(
            "  eval throughput [{workload}]: cache={prefix_cache} threads={t}: \
             {:.2} evals/s (median of {THROUGHPUT_REPEATS}, {batches} batches; {:.2}–{:.2}), \
             {} passes saved",
            count as f64 / median,
            count as f64 / max,
            count as f64 / min,
            stats.passes_saved
        );
    }
    format!("  \"eval_throughput\": [\n{}\n  ]", lines.join(",\n"))
}

/// The bit-parallel simulation tier, isolated from the optimisers: the
/// intermediate states of the persist harness's fixed K = 20 trajectory
/// on the adder are pushed through `check_equivalence_with` three ways —
/// against their own cleanup (SAT-proved), against an output-complemented
/// copy (sim-refuted, zero CNF), and against a needle that only differs
/// on the all-ones input (random simulation all but surely misses it, so
/// the SAT phase must refute through a cone-restricted encoding).
/// Aggregated `EquivStats` prove every check lands in exactly one bucket
/// and that the lazy encoding stays below the full miter. (Fraig merges
/// nothing on these states; perfbench's `synth.Fr.ms_p50` times it on
/// real search states.)
fn sim_section(aig: &boils_aig::Aig, smoke: bool) -> String {
    use boils_sat::{check_equivalence_with, EquivConfig, EquivResult, EquivStats};
    use boils_synth::Transform;

    // The persist harness's fixed trajectory over the full alphabet.
    const TRAJECTORY: [u8; 20] = [6, 0, 2, 7, 4, 1, 3, 6, 5, 8, 9, 10, 0, 6, 2, 4, 7, 1, 3, 6];
    let steps = if smoke { 6 } else { TRAJECTORY.len() };
    let mut states = vec![aig.clone()];
    for &token in &TRAJECTORY[..steps - 1] {
        let next = Transform::from_index(token as usize).apply(states.last().expect("seeded"));
        states.push(next);
    }

    let equiv_config = EquivConfig::default();
    let mut agg = EquivStats::default();
    let mut checks = 0usize;
    let start = Instant::now();
    for state in &states {
        let (result, stats) = check_equivalence_with(state, &state.cleanup(), &equiv_config);
        assert_eq!(result, EquivResult::Equivalent);
        agg.absorb(&stats);
        checks += 1;

        let mut flipped = state.clone();
        flipped.set_po(0, !flipped.po(0));
        let (result, stats) = check_equivalence_with(state, &flipped, &equiv_config);
        assert!(matches!(result, EquivResult::NotEquivalent { .. }));
        agg.absorb(&stats);
        checks += 1;
    }
    // The needle: xor output 0 with the AND of every input, so the two
    // circuits differ only on the all-ones assignment — random simulation
    // all but surely misses it and the SAT phase must find it, through a
    // cone-restricted encoding the bare trailing gates never enter.
    let mut needle = aig.clone();
    let all_inputs: Vec<boils_aig::Lit> = (0..needle.num_pis()).map(|i| needle.pi(i)).collect();
    let ones = needle.and_many(&all_inputs);
    let po0 = needle.po(0);
    let flipped0 = needle.xor(po0, ones);
    needle.set_po(0, flipped0);
    let (result, needle_stats) = check_equivalence_with(aig, &needle, &equiv_config);
    let needle_cex = match result {
        EquivResult::NotEquivalent { counterexample } => counterexample,
        other => panic!("the needle must be refuted, got {other:?}"),
    };
    assert!(
        needle_cex.iter().all(|&v| v),
        "only the all-ones input distinguishes the needle"
    );
    assert_eq!(needle_stats.sat_refuted, 1, "{needle_stats:?}");
    assert!(
        needle_stats.vars_encoded < needle_stats.vars_full,
        "the needle's encoding must be cone-restricted: {needle_stats:?}"
    );
    agg.absorb(&needle_stats);
    checks += 1;
    let equiv_seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        agg.sim_refuted + agg.sat_proved + agg.sat_refuted,
        checks,
        "every check must land in exactly one bucket: {agg:?}"
    );
    eprintln!(
        "  equivalence split over {checks} checks: {} sim-refuted, {} SAT-proved, \
         {} SAT-refuted ({equiv_seconds:.3}s; {}/{} vars encoded)",
        agg.sim_refuted, agg.sat_proved, agg.sat_refuted, agg.vars_encoded, agg.vars_full
    );

    format!(
        "  \"sim\": {{\"trajectory_states\": {}, \"equiv_checks\": {}, \
         \"equiv_sim_refuted\": {}, \"equiv_sat_proved\": {}, \"equiv_sat_refuted\": {}, \
         \"equiv_vars_encoded\": {}, \"equiv_vars_full\": {}, \"equiv_seconds\": {:.6}, \
         \"needle_vars_encoded\": {}, \"needle_vars_full\": {}}}",
        steps,
        checks,
        agg.sim_refuted,
        agg.sat_proved,
        agg.sat_refuted,
        agg.vars_encoded,
        agg.vars_full,
        equiv_seconds,
        needle_stats.vars_encoded,
        needle_stats.vars_full
    )
}

/// The greedy per-position action sweep: the prefix cache's best case —
/// every candidate extends an already-evaluated prefix by one pass.
fn greedy_section(aig: &boils_aig::Aig, smoke: bool) -> String {
    let k = if smoke { 6 } else { 20 };
    let space = SequenceSpace::new(k, 11);
    let budget = k * space.alphabet();

    let cached_eval = QorEvaluator::new(aig).expect("ok");
    let start = Instant::now();
    let cached_run = greedy(&cached_eval, space, budget, 1, &RunControl::new())
        .expect("uncontrolled run completes");
    let cached_seconds = start.elapsed().as_secs_f64();

    let uncached_eval = QorEvaluator::new(aig).expect("ok").without_prefix_cache();
    let start = Instant::now();
    let uncached_run = greedy(&uncached_eval, space, budget, 1, &RunControl::new())
        .expect("uncontrolled run completes");
    let uncached_seconds = start.elapsed().as_secs_f64();

    assert_eq!(cached_run.best_tokens, uncached_run.best_tokens);
    assert_eq!(cached_run.best_qor, uncached_run.best_qor);
    let stats = cached_eval.prefix_stats();
    let speedup = uncached_seconds / cached_seconds;
    eprintln!(
        "  greedy sweep (K={k}, budget {budget}): {cached_seconds:.3}s cached vs \
         {uncached_seconds:.3}s uncached — {speedup:.2}x"
    );
    format!(
        "  \"greedy\": {{\"k\": {}, \"budget\": {}, \"cached_seconds\": {:.6}, \
         \"uncached_seconds\": {:.6}, \"speedup\": {:.3}, \"passes_applied\": {}, \
         \"passes_saved\": {}, \"bit_identical\": true}}",
        k,
        budget,
        cached_seconds,
        uncached_seconds,
        speedup,
        stats.passes_applied,
        stats.passes_saved
    )
}

/// A default-config BOiLS run: prefix cache, carried-GP extensions and
/// the four-lane SSK, as every front end runs it.
fn boils_section(aig: &boils_aig::Aig, smoke: bool) -> String {
    let config = BoilsConfig {
        max_evaluations: if smoke { 30 } else { 200 },
        initial_samples: if smoke { 10 } else { 20 },
        space: if smoke {
            SequenceSpace::new(8, 11)
        } else {
            SequenceSpace::paper()
        },
        seed: 7,
        ..BoilsConfig::default()
    };

    let evaluator = QorEvaluator::new(aig).expect("ok");
    let start = Instant::now();
    let result = Boils::new(config.clone()).run(&evaluator).expect("run");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(result.num_evaluations(), config.max_evaluations);
    let stats = evaluator.prefix_stats();
    eprintln!(
        "  BOiLS default run: {seconds:.3}s, best QoR {:.6}",
        result.best_qor
    );
    format!(
        "  \"boils_default\": {{\"budget\": {}, \"k\": {}, \"seconds\": {:.6}, \
         \"best_qor\": {:.6}, \"passes_applied\": {}, \"passes_saved\": {}}}",
        config.max_evaluations,
        config.space.length(),
        seconds,
        result.best_qor,
        stats.passes_applied,
        stats.passes_saved
    )
}

/// The q-EI batch size the `qei` section compares with q = 1.
const BATCH_SIZE: usize = 4;

/// Batched q-EI acquisition on the greedy-comparable BOiLS configuration
/// (K = 20, budget = K·11 = 220, matching the greedy sweep's workload):
/// the sequential q = 1 loop vs a constant-liar batch of [`BATCH_SIZE`]
/// candidates per iteration, each batch evaluated across `threads`
/// workers.
///
/// Unlike the other sections, q > 1 legitimately changes the trajectory
/// (batched proposals see a staler surrogate), so the checked invariants
/// are budget discipline — both runs spend exactly the budget, every
/// evaluation unique — rather than bit-identity. Reported speedup has two
/// independent sources: the q candidates of a batch synthesise in
/// parallel across workers (needs cores), and retrains pace at batch
/// granularity (coarser for q > 1 — inherent to batched BO, since the
/// surrogate cannot retrain mid-batch).
fn qei_section(aig: &boils_aig::Aig, threads: usize, smoke: bool) -> String {
    let k = if smoke { 6 } else { 20 };
    let config = |q: usize| BoilsConfig {
        max_evaluations: if smoke { 24 } else { k * 11 },
        initial_samples: if smoke { 8 } else { 20 },
        space: SequenceSpace::new(k, 11),
        batch_size: q,
        threads,
        seed: 11,
        ..BoilsConfig::default()
    };
    let budget = config(1).max_evaluations;

    let serial_eval = QorEvaluator::new(aig).expect("ok");
    let start = Instant::now();
    let mut serial = Boils::new(config(1));
    let q1 = serial.run(&serial_eval).expect("run");
    let q1_seconds = start.elapsed().as_secs_f64();

    let batched_eval = QorEvaluator::new(aig).expect("ok");
    let start = Instant::now();
    let mut batched = Boils::new(config(BATCH_SIZE));
    let qn = batched.run(&batched_eval).expect("run");
    let qn_seconds = start.elapsed().as_secs_f64();

    // Budget discipline: both settings spend exactly the budget, and the
    // batched run proposed no duplicate (within-batch or across-batch).
    assert_eq!(q1.num_evaluations(), budget);
    assert_eq!(qn.num_evaluations(), budget);
    assert_eq!(serial_eval.num_evaluations(), budget);
    assert_eq!(batched_eval.num_evaluations(), budget);
    assert_eq!(batched.diagnostics().duplicate_evals, 0);

    let speedup = q1_seconds / qn_seconds;
    eprintln!(
        "  q-EI (K={k}, budget {budget}, {threads} threads): q=1 {q1_seconds:.3}s \
         ({} retrains) vs q={BATCH_SIZE} {qn_seconds:.3}s ({} retrains) — {speedup:.2}x; \
         best {:.4} vs {:.4}",
        serial.diagnostics().retrains_at.len(),
        batched.diagnostics().retrains_at.len(),
        q1.best_qor,
        qn.best_qor
    );
    format!(
        "  \"qei\": {{\"k\": {}, \"budget\": {}, \"threads\": {}, \"batch_size\": {}, \
         \"q1_seconds\": {:.6}, \"qn_seconds\": {:.6}, \"speedup\": {:.3}, \
         \"q1_retrains\": {}, \"qn_retrains\": {}, \"q1_best_qor\": {:.6}, \
         \"qn_best_qor\": {:.6}, \"unique_evals\": {}, \"duplicate_evals\": 0}}",
        k,
        budget,
        threads,
        BATCH_SIZE,
        q1_seconds,
        qn_seconds,
        speedup,
        serial.diagnostics().retrains_at.len(),
        batched.diagnostics().retrains_at.len(),
        q1.best_qor,
        qn.best_qor,
        budget
    )
}

/// The persistent prefix store, cold vs warm: a greedy sweep is run by a
/// "cold" evaluator writing through to an empty store directory, then by
/// a fresh "warm" evaluator over the same directory — exactly what a
/// second sweep process (another seed, another method, a restart) sees.
/// The warm run must be bit-identical and demonstrably served off disk;
/// the speedup is the cross-process synthesis reuse the store exists for.
fn persist_section(aig: &boils_aig::Aig, smoke: bool) -> String {
    let k = if smoke { 6 } else { 20 };
    let space = SequenceSpace::new(k, 11);
    let budget = k * space.alphabet();
    let dir = std::env::temp_dir().join(format!("boils-perf-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_eval = QorEvaluator::new(aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir is writable");
    let start = Instant::now();
    let cold_run = greedy(&cold_eval, space, budget, 1, &RunControl::new())
        .expect("uncontrolled run completes");
    let cold_seconds = start.elapsed().as_secs_f64();
    let cold_stats = cold_eval.prefix_stats();
    drop(cold_eval);

    let warm_eval = QorEvaluator::new(aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir is writable");
    let start = Instant::now();
    let warm_run = greedy(&warm_eval, space, budget, 1, &RunControl::new())
        .expect("uncontrolled run completes");
    let warm_seconds = start.elapsed().as_secs_f64();
    let warm_stats = warm_eval.prefix_stats();

    assert_eq!(
        cold_run.best_tokens, warm_run.best_tokens,
        "warm store changed the search"
    );
    assert_eq!(cold_run.best_qor.to_bits(), warm_run.best_qor.to_bits());
    assert!(
        warm_stats.disk_hits > 0,
        "warm run never touched the disk tier"
    );
    assert_eq!(warm_stats.disk_corrupt_dropped, 0);
    let entries = warm_eval.persistent_store().expect("store attached").len();
    let bytes = warm_eval
        .persistent_store()
        .expect("store attached")
        .total_bytes();
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = cold_seconds / warm_seconds;
    eprintln!(
        "  persistent store (greedy K={k}, budget {budget}): cold {cold_seconds:.3}s \
         ({} writes) vs warm {warm_seconds:.3}s ({} disk hits) — {speedup:.2}x",
        cold_stats.disk_writes, warm_stats.disk_hits
    );
    format!(
        "  \"persist\": {{\"k\": {}, \"budget\": {}, \"cold_seconds\": {:.6}, \
         \"warm_seconds\": {:.6}, \"speedup\": {:.3}, \"cold_disk_writes\": {}, \
         \"warm_disk_hits\": {}, \"entries\": {}, \"store_bytes\": {}, \
         \"bit_identical\": true}}",
        k,
        budget,
        cold_seconds,
        warm_seconds,
        speedup,
        cold_stats.disk_writes,
        warm_stats.disk_hits,
        entries,
        bytes
    )
}

/// The content-addressed semantic store: two circuits whose synthesis
/// trajectories pass through identical intermediate structures share one
/// payload file per structure, against one cache directory.
///
/// The workload makes the sharing honest rather than contrived: circuit
/// B is circuit A after one `balance` pass, and A's batch is B's batch
/// with a leading `balance` token — so evaluating a sequence on B walks
/// byte-for-byte the intermediate AIGs that A reaches one step later,
/// under two *different* circuit identities. The section measures:
///
/// * **Dedup** — B's run against the directory A already populated must
///   record `dedup_hits > 0` and write no payload it can point at
///   instead (`payload_bytes_saved`).
/// * **Bytes** — the shared directory is strictly smaller than the sum
///   of the two isolated per-circuit directories holding the same work.
/// * **Exactness** — every intermediate restored through a B-keyed
///   pointer (into a payload A wrote) is byte-identical under the
///   binary AIGER codec to synthesising it from scratch.
fn semantic_store_section(aig: &boils_aig::Aig, smoke: bool) -> String {
    use boils_synth::Transform;

    let k = if smoke { 5 } else { 10 };
    let count = if smoke { 10 } else { 40 };
    let space = SequenceSpace::new(k, 11);
    // The first alphabet pass that actually restructures the base circuit
    // (some passes are fixpoints on it, which would collapse the two
    // identities into one and make the dedup claim vacuous).
    let (lead, derived) = (0..space.alphabet() as u8)
        .map(|t| (t, Transform::from_index(t as usize).apply(aig)))
        .find(|(_, d)| d.content_hash() != aig.content_hash())
        .expect("some pass must change the base circuit");
    let mut rng = StdRng::seed_from_u64(5);
    let batch_b: Vec<Vec<u8>> = (0..count).map(|_| space.sample(&mut rng)).collect();
    let batch_a: Vec<Vec<u8>> = batch_b
        .iter()
        .map(|tokens| {
            let mut with_lead = vec![lead];
            with_lead.extend_from_slice(tokens);
            with_lead
        })
        .collect();

    let run = |dir: &std::path::Path, base: &boils_aig::Aig, batch: &[Vec<u8>]| {
        let evaluator = QorEvaluator::new(base)
            .expect("ok")
            .with_persistent_store(dir)
            .expect("store dir is writable");
        let start = Instant::now();
        for tokens in batch {
            evaluator.evaluate_tokens(tokens);
        }
        (evaluator.prefix_stats(), start.elapsed().as_secs_f64())
    };

    // One shared directory: A populates, B dedups against it.
    let shared_dir = std::env::temp_dir().join(format!("boils-perf-sem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&shared_dir);
    let (_, a_seconds) = run(&shared_dir, aig, &batch_a);
    let (b_stats, b_shared_seconds) = run(&shared_dir, &derived, &batch_b);
    assert!(
        b_stats.dedup_hits > 0,
        "the derived circuit never hit a payload the base circuit wrote"
    );
    assert!(b_stats.payload_bytes_saved > 0);

    // Exactness: every B-keyed prefix restores byte-identical to a fresh
    // synthesis, although its payload was written under A's run.
    let store_b = PersistentPrefixStore::open_for(&shared_dir, &derived).expect("reopen");
    let mut restored_checked = 0usize;
    for tokens in batch_b.iter().take(4) {
        let mut fresh = derived.clone();
        for len in 1..=tokens.len() {
            fresh = Transform::from_index(tokens[len - 1] as usize).apply(&fresh);
            let restored = store_b.load(&tokens[..len]).unwrap_or_else(|| {
                panic!("prefix of length {len} missing for the derived circuit")
            });
            let (mut a, mut b) = (Vec::new(), Vec::new());
            restored.write_aig_binary(&mut a).expect("write");
            fresh.write_aig_binary(&mut b).expect("write");
            assert_eq!(a, b, "restored prefix of length {len} not byte-identical");
            restored_checked += 1;
        }
    }
    let shared_bytes = store_b.total_bytes();
    let shared_payloads = store_b.payload_count();
    let shared_pointers = store_b.len();
    drop(store_b);
    let _ = std::fs::remove_dir_all(&shared_dir);

    // The same work through two isolated per-circuit directories.
    let dir_a = std::env::temp_dir().join(format!("boils-perf-sem-a-{}", std::process::id()));
    let dir_b = std::env::temp_dir().join(format!("boils-perf-sem-b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let (_, _) = run(&dir_a, aig, &batch_a);
    let (_, b_isolated_seconds) = run(&dir_b, &derived, &batch_b);
    let isolated_bytes = PersistentPrefixStore::open_for(&dir_a, aig)
        .expect("reopen")
        .total_bytes()
        + PersistentPrefixStore::open_for(&dir_b, &derived)
            .expect("reopen")
            .total_bytes();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    assert!(
        shared_bytes < isolated_bytes,
        "cross-circuit dedup must shrink the shared directory: \
         {shared_bytes} shared vs {isolated_bytes} isolated"
    );

    eprintln!(
        "  semantic store (K={k}, {count} seqs/circuit): {} dedup hits, {} KiB not \
         rewritten; shared dir {} KiB vs isolated {} KiB ({:.1}% saved); \
         {restored_checked} restored prefixes byte-identical (A fill {a_seconds:.3}s, \
         B shared {b_shared_seconds:.3}s vs isolated {b_isolated_seconds:.3}s)",
        b_stats.dedup_hits,
        b_stats.payload_bytes_saved / 1024,
        shared_bytes / 1024,
        isolated_bytes / 1024,
        100.0 * (1.0 - shared_bytes as f64 / isolated_bytes as f64),
    );
    format!(
        "  \"semantic_store\": {{\"k\": {}, \"sequences_per_circuit\": {}, \
         \"dedup_hits\": {}, \"payload_bytes_saved\": {}, \"shared_dir_bytes\": {}, \
         \"isolated_dirs_bytes\": {}, \"bytes_saved_percent\": {:.2}, \
         \"shared_payloads\": {}, \"shared_pointers\": {}, \
         \"fill_seconds\": {:.6}, \"b_shared_seconds\": {:.6}, \
         \"b_isolated_seconds\": {:.6}, \"restored_prefixes_checked\": {}, \
         \"restored_bit_identical\": true}}",
        k,
        count,
        b_stats.dedup_hits,
        b_stats.payload_bytes_saved,
        shared_bytes,
        isolated_bytes,
        100.0 * (1.0 - shared_bytes as f64 / isolated_bytes as f64),
        shared_payloads,
        shared_pointers,
        a_seconds,
        b_shared_seconds,
        b_isolated_seconds,
        restored_checked
    )
}

/// The surrogate lifecycle subsystem, isolated from synthesis cost:
///
/// * **Windowed vs unbounded step cost.** A stream of `budget ≥ 500`
///   random observations is pushed through two [`Surrogate`]s — one
///   unbounded, one with a sliding window — and each step is one
///   `observe` + model sync (`maybe_retrain` on the extend/forget path) +
///   one posterior probe, i.e. exactly what a BO iteration pays outside
///   acquisition search and synthesis. The unbounded surrogate's step
///   cost grows with the history (O(n) kernel evals + O(n²) factor
///   update); the windowed one must flatten once the window fills — the
///   assert checks its late-stream mean step is bounded by a small
///   multiple of its just-past-the-window mean.
/// * **Four-lane retrain.** One `Gp::fit_with_adam` over a fixed training
///   set, its Gram columns filled by the SSK's lane-blocked DP (four
///   pairs per pass).
fn surrogate_section(smoke: bool) -> String {
    let budget = if smoke { 140 } else { 520 };
    let window = if smoke { 16 } else { 64 };
    let initial = 20.min(budget / 2);
    let space = SequenceSpace::new(20, 11);
    let mut rng = StdRng::seed_from_u64(99);
    let stream: Vec<(Vec<u8>, f64)> = (0..budget)
        .map(|_| {
            let x = space.sample(&mut rng);
            let y = rng.gen_range(-1.0..1.0);
            (x, y)
        })
        .collect();
    let probe = space.sample(&mut rng);

    let surrogate_config = |window: Option<usize>| SurrogateConfig {
        noise: 1e-4,
        retrain_every: usize::MAX, // isolate the extend/forget path
        window,
        train: TrainConfig {
            steps: 3,
            ..TrainConfig::default()
        },
    };
    // Per-step wall time, indexed by history size after the step.
    let run_stream = |window: Option<usize>| -> Vec<f64> {
        let mut surrogate: Surrogate<SskKernel, Vec<u8>> =
            Surrogate::new(SskKernel::new(4), surrogate_config(window));
        for (x, y) in &stream[..initial] {
            surrogate.observe(x.clone(), *y);
        }
        surrogate.maybe_retrain().expect("initial fit");
        let mut step_seconds = Vec::with_capacity(budget - initial);
        for (x, y) in &stream[initial..] {
            let start = Instant::now();
            surrogate.observe(x.clone(), *y);
            let gp = surrogate.maybe_retrain().expect("update");
            let _ = gp.predict(&probe);
            step_seconds.push(start.elapsed().as_secs_f64());
        }
        step_seconds
    };
    // Medians, not means: a single scheduler stall inside a chunk of
    // sub-millisecond steps would swamp a mean on a noisy CI runner.
    let median_ms = |steps: &[f64]| {
        let mut sorted = steps.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite step time"));
        sorted[sorted.len() / 2] * 1e3
    };

    let unbounded = run_stream(None);
    let windowed = run_stream(Some(window));
    // "Early" = a window-sized stretch just after the window fills;
    // "late" = the final stretch of the stream.
    let chunk = window.clamp(8, 64);
    let early_at = (window.saturating_sub(initial)).min(unbounded.len() - chunk);
    let unbounded_early = median_ms(&unbounded[early_at..early_at + chunk]);
    let unbounded_late = median_ms(&unbounded[unbounded.len() - chunk..]);
    let windowed_early = median_ms(&windowed[early_at..early_at + chunk]);
    let windowed_late = median_ms(&windowed[windowed.len() - chunk..]);
    let windowed_growth = windowed_late / windowed_early;
    let unbounded_growth = unbounded_late / unbounded_early;
    // The one timing-dependent assert in this binary: gate only the full
    // run on it (its committed numbers must honour the bounded-step-cost
    // claim). The CI smoke still reports both growth ratios in the JSON,
    // but its chunks are too short to assert against on a shared runner.
    if !smoke {
        assert!(
            windowed_growth < 3.0,
            "windowed step cost must not grow with the budget: \
             {windowed_early:.4}ms -> {windowed_late:.4}ms ({windowed_growth:.2}x)"
        );
    }

    // A four-lane retrain over one training set.
    let n = if smoke { 40 } else { 120 };
    let xs: Vec<Vec<u8>> = (0..n).map(|_| space.sample(&mut rng)).collect();
    let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let train = TrainConfig {
        steps: 15,
        ..TrainConfig::default()
    };
    let start = Instant::now();
    Gp::fit_with_adam(SskKernel::new(4), xs, ys, 1e-4, &train).expect("four-lane retrain");
    let lanes_seconds = start.elapsed().as_secs_f64();

    eprintln!(
        "  surrogate step cost (budget {budget}, window {window}): unbounded \
         {unbounded_early:.3} -> {unbounded_late:.3} ms ({unbounded_growth:.2}x), windowed \
         {windowed_early:.3} -> {windowed_late:.3} ms ({windowed_growth:.2}x)"
    );
    eprintln!("  retrain n={n}: {lanes_seconds:.3}s with four lanes");
    format!(
        "  \"surrogate\": {{\"budget\": {}, \"window\": {}, \"initial\": {}, \
         \"unbounded_early_step_ms\": {:.6}, \"unbounded_late_step_ms\": {:.6}, \
         \"unbounded_growth\": {:.3}, \"windowed_early_step_ms\": {:.6}, \
         \"windowed_late_step_ms\": {:.6}, \"windowed_growth\": {:.3}, \
         \"retrain_n\": {}, \"lanes_retrain_seconds\": {:.6}}}",
        budget,
        window,
        initial,
        unbounded_early,
        unbounded_late,
        unbounded_growth,
        windowed_early,
        windowed_late,
        windowed_growth,
        n,
        lanes_seconds
    )
}

/// GP fit latency on SSK Grams over random sequences: from-scratch
/// refitting (what every non-retrain BO iteration used to do) vs the
/// incremental one-observation extension.
fn gp_fit_section(smoke: bool) -> String {
    let sizes: &[usize] = if smoke { &[20, 40] } else { &[50, 100, 200] };
    let space = SequenceSpace::new(20, 11);
    let mut rows = Vec::new();
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let xs: Vec<Vec<u8>> = (0..n).map(|_| space.sample(&mut rng)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let start = Instant::now();
        let scratch = Gp::fit(SskKernel::new(4), xs.clone(), ys.clone(), 1e-4).expect("spd");
        let fit_ms = start.elapsed().as_secs_f64() * 1e3;

        let base = Gp::fit(
            SskKernel::new(4),
            xs[..n - 1].to_vec(),
            ys[..n - 1].to_vec(),
            1e-4,
        )
        .expect("spd");
        let start = Instant::now();
        let (extended, _) = base
            .extend(xs[n - 1].clone(), ys[n - 1])
            .expect("extension succeeds");
        let extend_ms = start.elapsed().as_secs_f64() * 1e3;

        let probe = space.sample(&mut rng);
        let (m_a, v_a) = scratch.predict(&probe);
        let (m_b, v_b) = extended.predict(&probe);
        assert!(
            (m_a - m_b).abs() < 1e-10 && (v_a - v_b).abs() < 1e-10,
            "incremental GP diverged from refit"
        );

        eprintln!("  GP fit n={n}: {fit_ms:.2}ms from scratch vs {extend_ms:.2}ms extension");
        rows.push(format!(
            "    {{\"n\": {}, \"fit_ms\": {:.4}, \"extend_ms\": {:.4}, \"speedup\": {:.2}}}",
            n,
            fit_ms,
            extend_ms,
            fit_ms / extend_ms
        ));
    }
    format!("  \"gp_fit\": [\n{}\n  ]", rows.join(",\n"))
}

/// The multi-tenant daemon: N jobs — same circuit, same seed, different
/// objectives — submitted concurrently to one [`Daemon`](boils_daemon::Daemon) whose tenants
/// draw forks of a shared evaluator template, vs the same N runs each
/// performed in isolation with a private evaluator.
///
/// Shared tiers mean each distinct sequence is synthesised once across
/// the whole tenant set (combined unique work ≤ one job's budget),
/// while isolation pays N × budget; the speedup is that deduplication.
/// Each daemon job's trajectory is asserted bit-identical to its
/// isolated counterpart — multi-tenancy changes *who pays* for a
/// synthesis result, never what any tenant observes.
fn daemon_section(circuit: Benchmark, threads: usize, smoke: bool) -> String {
    use boils_baselines::{Method, RunSpec};
    use boils_daemon::{Daemon, DaemonConfig, Event};

    let k = if smoke { 6 } else { 12 };
    let budget = if smoke { 8 } else { 40 };
    let seed = 23;
    let bits = CircuitSpec::new(circuit).num_bits();
    let objectives = ["qor", "area", "delay", "lut"];

    let request = |name: &str| boils_daemon::JobRequest {
        circuit,
        bits: Some(bits),
        method: Method::Rs,
        objective: Objective::parse(name).expect("built-in objective"),
        budget,
        seed,
        sequence_length: k,
        priority: boils_core::Priority::Normal,
        deadline_secs: None,
        multi_objective: false,
        transfer: false,
    };

    // Shared: one daemon, all jobs concurrently, one evaluator template.
    let daemon = Daemon::new(DaemonConfig {
        workers: threads.clamp(1, objectives.len()),
        queue_cap: objectives.len(),
        cache_dir: None,
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let start = Instant::now();
    let jobs: Vec<(boils_core::JobId, &str)> = objectives
        .iter()
        .map(|name| (daemon.submit(request(name), &tx).expect("accepted"), *name))
        .collect();
    let mut shared_unique = 0usize;
    let mut shared_hits = 0usize;
    let mut results = std::collections::HashMap::new();
    while results.len() < jobs.len() {
        match rx.recv().expect("daemon event") {
            Event::Finished {
                job,
                outcome,
                result,
            } => {
                assert_eq!(outcome.evaluations, budget);
                shared_unique += outcome.unique_evaluations;
                shared_hits += outcome.shared_hits;
                results.insert(job, result);
            }
            Event::Failed { job, reason } => panic!("{job} failed: {reason}"),
            _ => {}
        }
    }
    let shared_seconds = start.elapsed().as_secs_f64();
    assert!(
        shared_unique <= budget,
        "tenants re-synthesised shared sequences: {shared_unique} unique for {budget} distinct"
    );

    // Isolated: the same runs with nothing shared.
    let aig = CircuitSpec::new(circuit).build();
    let space = SequenceSpace::new(k, 11);
    let start = Instant::now();
    let mut isolated_unique = 0usize;
    for (job, name) in &jobs {
        let evaluator = QorEvaluator::new(&aig)
            .expect("ok")
            .with_objective(Objective::parse(name).expect("built-in objective"));
        let solo = Method::Rs
            .run(
                &RunSpec::new(space, budget, seed),
                &evaluator,
                &RunControl::new(),
            )
            .expect("uncontrolled run completes");
        isolated_unique += evaluator.num_evaluations();
        let shared = &results[job];
        assert_eq!(shared.history.len(), solo.history.len());
        for (a, b) in shared.history.iter().zip(&solo.history) {
            assert_eq!(a.tokens, b.tokens, "multi-tenancy changed a trajectory");
            assert_eq!(a.point, b.point, "multi-tenancy changed a value");
        }
        assert_eq!(shared.best_qor.to_bits(), solo.best_qor.to_bits());
    }
    let isolated_seconds = start.elapsed().as_secs_f64();
    assert_eq!(isolated_unique, objectives.len() * budget);

    let speedup = isolated_seconds / shared_seconds;
    eprintln!(
        "  daemon ({} jobs, budget {budget} each): shared {shared_seconds:.3}s \
         ({shared_unique} unique, {shared_hits} shared hits) vs isolated \
         {isolated_seconds:.3}s ({isolated_unique} unique) — {speedup:.2}x",
        jobs.len()
    );
    format!(
        "  \"daemon\": {{\"jobs\": {}, \"k\": {}, \"budget_each\": {}, \
         \"shared_seconds\": {:.6}, \"isolated_seconds\": {:.6}, \"speedup\": {:.3}, \
         \"shared_unique_evals\": {}, \"shared_hits\": {}, \"isolated_unique_evals\": {}, \
         \"bit_identical\": true}}",
        jobs.len(),
        k,
        budget,
        shared_seconds,
        isolated_seconds,
        speedup,
        shared_unique,
        shared_hits,
        isolated_unique
    )
}

/// The cost-generic objective layer:
///
/// * **Cross-objective cache reuse.** A greedy sweep under the default
///   Eq. 1 QoR fills a persistent store; a fresh evaluator optimising a
///   *different* cost function (the raw LUT count) then sweeps the same
///   circuit against that store. Because
///   every cache tier is keyed on the cost-independent synthesis
///   artifact, the switched run must be served from disk wherever its
///   frontier overlaps — the reported ratio is its disk hits over the
///   QoR run's disk writes.
/// * **MO hypervolume trace.** A multi-objective BOiLS run (ParEGO
///   scalarisation over the q-EI machinery) on the `(area, delay)`
///   plane; the per-evaluation dominated-hypervolume trace must be
///   monotone non-decreasing and end positive, and the final archive's
///   hypervolume must equal the trace's last value.
fn objectives_section(aig: &boils_aig::Aig, smoke: bool) -> String {
    let k = if smoke { 5 } else { 12 };
    let space = SequenceSpace::new(k, 11);
    let budget = k * space.alphabet();
    let dir = std::env::temp_dir().join(format!("boils-perf-objectives-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let qor_eval = QorEvaluator::new(aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir is writable");
    let start = Instant::now();
    let qor_run = greedy(&qor_eval, space, budget, 1, &RunControl::new())
        .expect("uncontrolled run completes");
    let qor_seconds = start.elapsed().as_secs_f64();
    let qor_stats = qor_eval.prefix_stats();
    drop(qor_eval);

    let switched = Objective::LutCount;
    let switched_name = switched.name();
    let switched_eval = QorEvaluator::new(aig)
        .expect("ok")
        .with_objective(switched)
        .with_persistent_store(&dir)
        .expect("store dir is writable");
    let start = Instant::now();
    let switched_run = greedy(&switched_eval, space, budget, 1, &RunControl::new())
        .expect("uncontrolled run completes");
    let switched_seconds = start.elapsed().as_secs_f64();
    let switched_stats = switched_eval.prefix_stats();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(qor_run.objective, "qor");
    assert_eq!(switched_run.objective, switched_name);
    assert!(
        switched_stats.disk_hits > 0,
        "switching the cost function lost the store warmed under qor"
    );
    let reuse_ratio = switched_stats.disk_hits as f64 / qor_stats.disk_writes.max(1) as f64;
    eprintln!(
        "  objectives (greedy K={k}, budget {budget}): qor {qor_seconds:.3}s ({} writes) then \
         {switched_name} {switched_seconds:.3}s ({} disk hits) — cross-objective reuse \
         {reuse_ratio:.2}",
        qor_stats.disk_writes, switched_stats.disk_hits
    );

    let mo_budget = if smoke { 24 } else { 28 };
    let evaluator = QorEvaluator::new(aig).expect("ok");
    let mut boils = Boils::new(BoilsConfig {
        max_evaluations: mo_budget,
        initial_samples: 8.min(mo_budget - 2),
        space: SequenceSpace::new(if smoke { 5 } else { 10 }, 11),
        acq_restarts: 2,
        acq_steps: 3,
        acq_neighbors: 8,
        train: TrainConfig {
            steps: 3,
            ..TrainConfig::default()
        },
        seed: 17,
        multi_objective: true,
        ..BoilsConfig::default()
    });
    let start = Instant::now();
    let mo_run = boils.run(&evaluator).expect("multi-objective run");
    let mo_seconds = start.elapsed().as_secs_f64();

    let points: Vec<(f64, f64)> = mo_run
        .history
        .iter()
        .filter(|r| !r.point.is_quarantined())
        .map(|r| (r.point.area as f64, r.point.delay as f64))
        .collect();
    let reference = hypervolume_reference(points.iter().copied());
    let trace: Vec<f64> = (1..=points.len())
        .map(|n| hypervolume_2d(&points[..n], reference))
        .collect();
    assert!(
        trace.windows(2).all(|w| w[1] >= w[0]),
        "hypervolume trace regressed"
    );
    let final_hv = *trace.last().expect("non-empty trace");
    assert!(final_hv > 0.0, "multi-objective run dominated nothing");
    let front_points: Vec<(f64, f64)> = mo_run
        .pareto_front
        .iter()
        .map(|r| (r.point.area as f64, r.point.delay as f64))
        .collect();
    let front_hv = hypervolume_2d(&front_points, reference);
    assert!(
        (front_hv - final_hv).abs() < 1e-9,
        "archive hypervolume {front_hv} disagrees with the trace's {final_hv}"
    );
    eprintln!(
        "  objectives (mo budget {mo_budget}): {mo_seconds:.3}s, front {} point(s), \
         hypervolume {final_hv:.3}",
        mo_run.pareto_front.len()
    );

    let trace_json: Vec<String> = trace.iter().map(|h| format!("{h:.4}")).collect();
    format!(
        "  \"objectives\": {{\"k\": {}, \"budget\": {}, \"switched_objective\": \"{}\", \
         \"qor_seconds\": {:.6}, \"switched_seconds\": {:.6}, \"qor_disk_writes\": {}, \
         \"switched_disk_hits\": {}, \"cross_objective_reuse_ratio\": {:.4}, \
         \"mo\": {{\"budget\": {}, \"seconds\": {:.6}, \"front_size\": {}, \
         \"final_hypervolume\": {:.4}, \"hypervolume_trace\": [{}]}}}}",
        k,
        budget,
        switched_name,
        qor_seconds,
        switched_seconds,
        qor_stats.disk_writes,
        switched_stats.disk_hits,
        reuse_ratio,
        mo_budget,
        mo_seconds,
        mo_run.pareto_front.len(),
        final_hv,
        trace_json.join(", ")
    )
}
