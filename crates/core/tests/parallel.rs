//! Determinism guarantees of the parallel evaluation engine: the same seed
//! must produce bit-identical optimisation runs — best sequence, best QoR,
//! full history, and unique-evaluation accounting — at any thread count.

use boils_aig::random_aig;
use boils_core::{
    Boils, BoilsConfig, QorEvaluator, RunControl, Sbo, SequenceObjective, SequenceSpace,
};
use boils_gp::TrainConfig;

fn boils_config(threads: usize) -> BoilsConfig {
    BoilsConfig {
        max_evaluations: 14,
        initial_samples: 8,
        space: SequenceSpace::new(6, 11),
        acq_restarts: 2,
        acq_steps: 4,
        acq_neighbors: 10,
        train: TrainConfig {
            steps: 5,
            ..TrainConfig::default()
        },
        threads,
        seed: 11,
        ..BoilsConfig::default()
    }
}

#[test]
fn boils_is_bit_identical_across_thread_counts() {
    let aig = random_aig(71, 8, 300, 3);
    let serial_eval = QorEvaluator::new(&aig).expect("ok");
    let serial = Boils::new(boils_config(1)).run(&serial_eval).expect("run");
    for threads in [2, 8] {
        let parallel_eval = QorEvaluator::new(&aig).expect("ok");
        let parallel = Boils::new(boils_config(threads))
            .run(&parallel_eval)
            .expect("run");
        assert_eq!(
            serial.best_tokens, parallel.best_tokens,
            "{threads} threads"
        );
        assert_eq!(serial.best_qor, parallel.best_qor, "{threads} threads");
        assert_eq!(serial.best_sequence, parallel.best_sequence);
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

#[test]
fn sbo_is_bit_identical_across_thread_counts() {
    let aig = random_aig(73, 8, 300, 3);
    let make = |threads| BoilsConfig {
        max_evaluations: 12,
        initial_samples: 6,
        space: SequenceSpace::new(5, 11),
        acq_restarts: 2,
        acq_steps: 3,
        acq_neighbors: 8,
        train: TrainConfig {
            steps: 4,
            ..TrainConfig::default()
        },
        threads,
        seed: 3,
        ..BoilsConfig::default()
    };
    let e1 = QorEvaluator::new(&aig).expect("ok");
    let e8 = QorEvaluator::new(&aig).expect("ok");
    let serial = Sbo::new(make(1)).run(&e1, &RunControl::new()).expect("run");
    let parallel = Sbo::new(make(8)).run(&e8, &RunControl::new()).expect("run");
    assert_eq!(serial.best_tokens, parallel.best_tokens);
    assert_eq!(serial.best_qor, parallel.best_qor);
    assert_eq!(e1.num_evaluations(), e8.num_evaluations());
}

#[test]
fn boils_trajectory_is_identical_with_prefix_cache_on_or_off() {
    // The prefix-reuse AIG cache is purely an accelerator: it must not
    // change a single evaluation, and therefore not a single step of the
    // search — at any thread count.
    let aig = random_aig(101, 8, 300, 3);
    let cached = QorEvaluator::new(&aig).expect("ok");
    let uncached = QorEvaluator::new(&aig).expect("ok").without_prefix_cache();
    let with_cache = Boils::new(boils_config(2)).run(&cached).expect("run");
    let without_cache = Boils::new(boils_config(2)).run(&uncached).expect("run");
    assert_eq!(with_cache.best_tokens, without_cache.best_tokens);
    assert_eq!(with_cache.best_qor, without_cache.best_qor);
    assert_eq!(with_cache.history.len(), without_cache.history.len());
    for (a, b) in with_cache.history.iter().zip(&without_cache.history) {
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.point, b.point);
    }
    assert_eq!(cached.num_evaluations(), uncached.num_evaluations());
    let stats = cached.prefix_stats();
    assert!(stats.passes_applied > 0);
    assert_eq!(uncached.prefix_stats().passes_applied, 0);
}

#[test]
fn cache_hit_accounting_is_exact_in_serial_use() {
    let aig = random_aig(79, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    assert_eq!(evaluator.cache_hits(), 0);
    let a = evaluator.evaluate_tokens(&[1, 2, 3]);
    assert_eq!(
        (evaluator.num_evaluations(), evaluator.cache_hits()),
        (1, 0)
    );
    let b = evaluator.evaluate_tokens(&[1, 2, 3]);
    assert_eq!(a, b);
    assert_eq!(
        (evaluator.num_evaluations(), evaluator.cache_hits()),
        (1, 1)
    );
    evaluator.evaluate_tokens(&[4, 5]);
    evaluator.evaluate_tokens(&[1, 2, 3]);
    assert_eq!(
        (evaluator.num_evaluations(), evaluator.cache_hits()),
        (2, 2)
    );
}

#[test]
fn trait_and_inherent_views_agree() {
    // `SequenceObjective` is the interface optimisers see; it must be a
    // faithful view of the evaluator's inherent API.
    let aig = random_aig(83, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let tokens = [2u8, 0, 7];
    let inherent = evaluator.evaluate_tokens(&tokens);
    let via_trait = SequenceObjective::evaluate_tokens(&evaluator, &tokens);
    assert_eq!(inherent, via_trait);
    assert!(SequenceObjective::is_cached(&evaluator, &tokens));
    assert_eq!(evaluator.lookup(&tokens), Some(inherent));
    assert_eq!(
        SequenceObjective::num_evaluations(&evaluator),
        evaluator.num_evaluations()
    );
}
