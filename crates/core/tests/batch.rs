//! Batched (q-EI) acquisition guarantees:
//!
//! * `batch_size = 1` (the default) is **bit-identical** to the sequential
//!   pre-batching optimiser — asserted against trajectories frozen from the
//!   code before q-EI landed, at every thread count.
//! * `batch_size = q > 1` spends exactly the configured budget, never
//!   proposes within-batch duplicates, and is thread-count invariant.
//! * No run ever evaluates a sequence that is already memoised unless the
//!   space is genuinely exhausted (the dedup-guard regression), and
//!   hyperparameters are retrained on an evaluation cadence even when
//!   iterations append several records (the retrain-cadence regression).

use boils_aig::random_aig;
use boils_core::{Boils, BoilsConfig, Objective, QorEvaluator, RunControl, Sbo, SequenceSpace};
use boils_gp::TrainConfig;

/// The config whose trajectory was frozen from the pre-q-EI code
/// (`initial_samples` is a multiple of `retrain_every`, so the old
/// history-length-modulo retrain pacing and the new evaluations-since-
/// retrain pacing coincide; no trust-region restart fires within the
/// budget, and the 11^6 space makes dedup collisions impossible).
fn frozen_boils_config(threads: usize, batch_size: usize) -> BoilsConfig {
    BoilsConfig {
        max_evaluations: 16,
        initial_samples: 10,
        space: SequenceSpace::new(6, 11),
        acq_restarts: 2,
        acq_steps: 4,
        acq_neighbors: 10,
        retrain_every: 5,
        batch_size,
        train: TrainConfig {
            steps: 5,
            ..TrainConfig::default()
        },
        threads,
        seed: 7,
        ..BoilsConfig::default()
    }
}

/// `(tokens, qor bits)` of every evaluation of the frozen BOiLS run
/// (`random_aig(71, 8, 300, 3)`, config above), captured from the
/// sequential optimiser before batched acquisition landed.
const FROZEN_BOILS: [(&[u8], u64); 16] = [
    (&[3, 7, 9, 6, 9, 3], 0x4000000000000000),
    (&[8, 4, 8, 4, 4, 1], 0x4000000000000000),
    (&[9, 3, 0, 9, 1, 4], 0x3ff999999999999a),
    (&[4, 6, 3, 8, 0, 6], 0x4000000000000000),
    (&[6, 2, 6, 7, 3, 7], 0x4000000000000000),
    (&[7, 9, 4, 0, 7, 9], 0x4000000000000000),
    (&[2, 5, 2, 5, 8, 8], 0x4000000000000000),
    (&[5, 8, 5, 2, 6, 0], 0x4000000000000000),
    (&[1, 1, 7, 3, 5, 2], 0x4000000000000000),
    (&[0, 0, 1, 1, 2, 5], 0x4000000000000000),
    (&[0, 9, 9, 3, 1, 4], 0x4000000000000000),
    (&[9, 3, 0, 9, 1, 2], 0x3ff999999999999a),
    (&[3, 3, 9, 0, 1, 9], 0x3ffccccccccccccd),
    (&[3, 0, 9, 2, 1, 4], 0x3ff999999999999a),
    (&[9, 2, 9, 1, 1, 4], 0x4000000000000000),
    (&[9, 3, 0, 9, 10, 4], 0x3ff999999999999a),
];

/// The frozen SBO run (`random_aig(73, 8, 300, 3)`, config in the test).
const FROZEN_SBO: [(&[u8], u64); 14] = [
    (&[7, 8, 4, 4, 5], 0x4000000000000000),
    (&[2, 3, 9, 0, 4], 0x4000000000000000),
    (&[1, 4, 6, 5, 8], 0x4000000000000000),
    (&[4, 7, 3, 8, 0], 0x4000000000000000),
    (&[9, 9, 8, 3, 7], 0x4000000000000000),
    (&[3, 6, 0, 7, 3], 0x4000000000000000),
    (&[8, 2, 1, 9, 6], 0x4000000000000000),
    (&[6, 1, 2, 2, 9], 0x4000000000000000),
    (&[5, 5, 5, 1, 1], 0x4000000000000000),
    (&[0, 0, 7, 6, 2], 0x4000000000000000),
    (&[3, 10, 10, 10, 5], 0x4000000000000000),
    (&[5, 8, 1, 2, 7], 0x4000000000000000),
    (&[7, 6, 10, 0, 10], 0x4000000000000000),
    (&[10, 10, 6, 4, 10], 0x4000000000000000),
];

#[test]
fn default_batch_size_reproduces_the_frozen_boils_trajectory() {
    for threads in [1, 4] {
        let aig = random_aig(71, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut boils = Boils::new(frozen_boils_config(threads, 1));
        let result = boils.run(&evaluator).expect("run");
        assert_eq!(result.history.len(), FROZEN_BOILS.len());
        for (i, (record, &(tokens, qor_bits))) in
            result.history.iter().zip(&FROZEN_BOILS).enumerate()
        {
            assert_eq!(record.tokens, tokens, "eval {i}, threads {threads}");
            assert_eq!(
                record.point.qor.to_bits(),
                qor_bits,
                "eval {i}, threads {threads}"
            );
        }
        assert_eq!(result.best_tokens, vec![9, 3, 0, 9, 1, 4]);
        assert_eq!(boils.diagnostics().duplicate_evals, 0);
        assert_eq!(boils.diagnostics().sweep_rescues, 0);
    }
}

#[test]
fn explicit_qor_cost_fn_reproduces_the_frozen_boils_trajectory() {
    // Attaching the default `Objective::Qor` explicitly must replay the
    // frozen trajectory bit for bit.
    let aig = random_aig(71, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig)
        .expect("ok")
        .with_objective(Objective::Qor);
    let mut boils = Boils::new(frozen_boils_config(1, 1));
    let result = boils.run(&evaluator).expect("run");
    assert_eq!(result.history.len(), FROZEN_BOILS.len());
    for (i, (record, &(tokens, qor_bits))) in result.history.iter().zip(&FROZEN_BOILS).enumerate() {
        assert_eq!(record.tokens, tokens, "eval {i}");
        assert_eq!(record.point.qor.to_bits(), qor_bits, "eval {i}");
    }
    assert_eq!(result.objective, "qor");
}

#[test]
fn default_batch_size_reproduces_the_frozen_sbo_trajectory() {
    let aig = random_aig(73, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let mut sbo = Sbo::new(BoilsConfig {
        max_evaluations: 14,
        initial_samples: 10,
        space: SequenceSpace::new(5, 11),
        acq_restarts: 2,
        acq_steps: 3,
        acq_neighbors: 8,
        retrain_every: 5,
        train: TrainConfig {
            steps: 4,
            ..TrainConfig::default()
        },
        seed: 3,
        ..BoilsConfig::default()
    });
    let result = sbo.run(&evaluator, &RunControl::new()).expect("run");
    assert_eq!(result.history.len(), FROZEN_SBO.len());
    for (i, (record, &(tokens, qor_bits))) in result.history.iter().zip(&FROZEN_SBO).enumerate() {
        assert_eq!(record.tokens, tokens, "eval {i}");
        assert_eq!(record.point.qor.to_bits(), qor_bits, "eval {i}");
    }
}

#[test]
fn batched_boils_spends_the_exact_budget_with_no_duplicates() {
    for batch_size in [2, 4, 7] {
        let aig = random_aig(71, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut boils = Boils::new(frozen_boils_config(1, batch_size));
        let result = boils.run(&evaluator).expect("run");
        // Exact budget: the final batch shrinks to the remaining budget
        // (16 − 10 initial = 6 acquisitions, not a multiple of 4 or 7).
        assert_eq!(result.num_evaluations(), 16, "q = {batch_size}");
        assert_eq!(evaluator.num_evaluations(), 16, "q = {batch_size}");
        // Every evaluation in the run is distinct — in particular there are
        // no within-batch duplicates.
        let mut seen = std::collections::HashSet::new();
        for record in &result.history {
            assert!(
                seen.insert(record.tokens.clone()),
                "q = {batch_size}: duplicate evaluation {:?}",
                record.tokens
            );
        }
        assert_eq!(boils.diagnostics().duplicate_evals, 0);
    }
}

#[test]
fn batched_sbo_spends_the_exact_budget_with_no_duplicates() {
    let aig = random_aig(73, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let mut sbo = Sbo::new(BoilsConfig {
        max_evaluations: 15,
        initial_samples: 6,
        space: SequenceSpace::new(5, 11),
        acq_restarts: 2,
        acq_steps: 3,
        acq_neighbors: 8,
        batch_size: 4,
        train: TrainConfig {
            steps: 4,
            ..TrainConfig::default()
        },
        seed: 3,
        ..BoilsConfig::default()
    });
    let result = sbo.run(&evaluator, &RunControl::new()).expect("run");
    assert_eq!(result.num_evaluations(), 15);
    assert_eq!(evaluator.num_evaluations(), 15);
    let mut seen = std::collections::HashSet::new();
    for record in &result.history {
        assert!(seen.insert(record.tokens.clone()));
    }
    assert_eq!(sbo.diagnostics().duplicate_evals, 0);
}

#[test]
fn batched_boils_is_thread_count_invariant() {
    let aig = random_aig(71, 8, 300, 3);
    let serial_eval = QorEvaluator::new(&aig).expect("ok");
    let serial = Boils::new(frozen_boils_config(1, 4))
        .run(&serial_eval)
        .expect("run");
    for threads in [2, 8] {
        let parallel_eval = QorEvaluator::new(&aig).expect("ok");
        let parallel = Boils::new(frozen_boils_config(threads, 4))
            .run(&parallel_eval)
            .expect("run");
        assert_eq!(
            serial.best_tokens, parallel.best_tokens,
            "{threads} threads"
        );
        assert_eq!(serial.best_qor, parallel.best_qor, "{threads} threads");
        assert_eq!(serial.history.len(), parallel.history.len());
        for (a, b) in serial.history.iter().zip(&parallel.history) {
            assert_eq!(a.tokens, b.tokens);
            assert_eq!(a.point, b.point);
        }
        assert_eq!(
            serial_eval.num_evaluations(),
            parallel_eval.num_evaluations(),
            "unique-evaluation accounting must not depend on threads"
        );
    }
}

/// The dedup-guard regression (tiny space forcing collisions): with a
/// 2×2-token space of 4 sequences and a budget of 4, every evaluation must
/// be fresh — the pre-fix code would give up after 32 random resamples and
/// burn budget on a duplicate with near certainty in a space this small.
#[test]
fn tiny_space_is_enumerated_without_duplicates() {
    let aig = random_aig(61, 8, 250, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let mut boils = Boils::new(BoilsConfig {
        max_evaluations: 4,
        initial_samples: 2,
        space: SequenceSpace::new(2, 2),
        acq_restarts: 1,
        acq_steps: 2,
        acq_neighbors: 4,
        train: TrainConfig {
            steps: 2,
            ..TrainConfig::default()
        },
        seed: 5,
        ..BoilsConfig::default()
    });
    let result = boils.run(&evaluator).expect("run");
    assert_eq!(result.num_evaluations(), 4);
    // All four sequences of the space, each exactly once.
    assert_eq!(evaluator.num_evaluations(), 4);
    let mut seen: Vec<Vec<u8>> = result.history.iter().map(|r| r.tokens.clone()).collect();
    seen.sort();
    assert_eq!(seen, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    assert_eq!(boils.diagnostics().duplicate_evals, 0);
}

/// Once the space is genuinely exhausted the optimiser may re-evaluate (a
/// cache hit, costing no synthesis) rather than deadlock — and reports it.
#[test]
fn exhausted_space_falls_back_to_duplicates_and_reports_them() {
    let aig = random_aig(61, 8, 250, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let mut boils = Boils::new(BoilsConfig {
        max_evaluations: 6,
        initial_samples: 2,
        space: SequenceSpace::new(2, 2),
        acq_restarts: 1,
        acq_steps: 2,
        acq_neighbors: 4,
        train: TrainConfig {
            steps: 2,
            ..TrainConfig::default()
        },
        seed: 5,
        ..BoilsConfig::default()
    });
    let result = boils.run(&evaluator).expect("run");
    assert_eq!(result.num_evaluations(), 6);
    // Only the space's 4 sequences ever hit the synthesiser; the final two
    // budget slots are memo-cache hits on an exhausted space.
    assert_eq!(evaluator.num_evaluations(), 4);
    assert_eq!(boils.diagnostics().duplicate_evals, 2);
}

/// The retrain-cadence regression: force trust-region restarts (every
/// iteration appends up to two records) and check the retrain pacing stays
/// on an evaluation cadence. Under the old `history.len() % retrain_every`
/// test, appending two records can step over every multiple and stop
/// retraining entirely.
#[test]
fn restart_heavy_run_retrains_on_an_evaluation_cadence() {
    let aig = random_aig(67, 8, 250, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let retrain_every = 4;
    let mut boils = Boils::new(BoilsConfig {
        max_evaluations: 30,
        initial_samples: 6,
        space: SequenceSpace::new(6, 11),
        // A 1-failure tolerance with a length-6 space collapses the radius
        // after every few iterations, firing restarts throughout the run.
        fail_tolerance: 1,
        success_tolerance: 1,
        retrain_every,
        acq_restarts: 1,
        acq_steps: 2,
        acq_neighbors: 4,
        train: TrainConfig {
            steps: 2,
            ..TrainConfig::default()
        },
        seed: 2,
        ..BoilsConfig::default()
    });
    boils.run(&evaluator).expect("run");
    let retrains = &boils.diagnostics().retrains_at;
    assert!(
        retrains.len() >= 3,
        "expected several retrains, got {retrains:?}"
    );
    assert_eq!(retrains[0], 6, "the first surrogate must be trained");
    // Each iteration appends at most batch (1) + restart (1) = 2 records,
    // so consecutive retrains can never be more than retrain_every + 1
    // evaluations apart.
    for pair in retrains.windows(2) {
        let gap = pair[1] - pair[0];
        assert!(
            gap >= retrain_every && gap <= retrain_every + 1,
            "retrain gap {gap} outside [{retrain_every}, {}] in {retrains:?}",
            retrain_every + 1
        );
    }
}

/// `batch_size` shrinks gracefully: a batch larger than the whole
/// remaining budget still spends exactly the budget.
#[test]
fn oversized_batch_clamps_to_the_remaining_budget() {
    let aig = random_aig(71, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let mut boils = Boils::new(frozen_boils_config(1, 64));
    let result = boils.run(&evaluator).expect("run");
    assert_eq!(result.num_evaluations(), 16);
    assert_eq!(boils.diagnostics().batches, 1, "one 6-candidate batch");
}

/// The `is_cached` freshness guard must also see evaluations made by
/// *other* runs sharing the evaluator (the sweep-suite setup): a second
/// run on a shared evaluator still never re-synthesises a sequence.
#[test]
fn freshness_guard_extends_across_runs_sharing_an_evaluator() {
    let aig = random_aig(61, 8, 250, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let config = BoilsConfig {
        max_evaluations: 8,
        initial_samples: 4,
        space: SequenceSpace::new(3, 2),
        acq_restarts: 1,
        acq_steps: 2,
        acq_neighbors: 4,
        train: TrainConfig {
            steps: 2,
            ..TrainConfig::default()
        },
        seed: 5,
        ..BoilsConfig::default()
    };
    Boils::new(config.clone()).run(&evaluator).expect("run");
    let after_first = evaluator.num_evaluations();
    assert_eq!(after_first, 8);
    let mut second = Boils::new(BoilsConfig { seed: 6, ..config });
    second.run(&evaluator).expect("run");
    // The 2^3 = 8-point space was exhausted by the first run: the second
    // run cannot synthesise anything new (its budget is spent entirely on
    // memo-cache hits), and every acquisition proposal — the budget minus
    // however many points its Latin hypercube kept after deduplication —
    // is reported as an exhausted-space duplicate.
    assert_eq!(evaluator.num_evaluations(), 8);
    assert!(
        second.diagnostics().duplicate_evals >= 4,
        "at most 4 of 8 budget slots are initial design; got {:?}",
        second.diagnostics()
    );
}
