//! Property tests for the baselines: budget discipline, determinism and
//! in-space traces for arbitrary configurations.

use boils_aig::random_aig;
use boils_baselines::{
    genetic_algorithm, greedy, random_search, reinforcement_learning, GaConfig, RlAlgorithm,
    RlConfig, RlFeatures,
};
use boils_core::{QorEvaluator, RunControl, SequenceSpace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn all_baselines_spend_exact_budgets_and_stay_in_space(
        seed in 0u64..50,
        len in 3usize..6,
        budget in 11usize..20,
    ) {
        let aig = random_aig(seed + 9000, 8, 250, 3);
        let Ok(evaluator) = QorEvaluator::new(&aig) else { return Ok(()); };
        let space = SequenceSpace::new(len, 11);

        // Thread counts vary per method on purpose: budgets and traces are
        // engine-parallelism invariant.
        let control = RunControl::new();
        let results = [
            random_search(&evaluator, space, budget, seed, 1 + (seed as usize % 4)),
            greedy(&evaluator, space, budget, 2, &control).expect("uncontrolled run"),
            genetic_algorithm(&evaluator, space, budget, &GaConfig {
                population: 6,
                seed,
                threads: 3,
            }, &control).expect("uncontrolled run"),
            reinforcement_learning(&evaluator, space, budget, &RlConfig {
                algorithm: RlAlgorithm::A2c,
                seed,
                ..RlConfig::default()
            }, &control).expect("uncontrolled run"),
            reinforcement_learning(&evaluator, space, budget, &RlConfig {
                algorithm: RlAlgorithm::Ppo,
                features: RlFeatures::Graph,
                seed,
            }, &control).expect("uncontrolled run"),
        ];
        for r in &results {
            prop_assert_eq!(r.num_evaluations(), budget);
            for rec in &r.history {
                prop_assert!(rec.tokens.iter().all(|&t| (t as usize) < 11));
                // Greedy evaluates growing prefixes; everyone else works at
                // full length.
                prop_assert!(rec.tokens.len() <= len);
                prop_assert!(rec.point.qor.is_finite());
            }
            // The reported best matches the trace minimum.
            let min = r.history.iter().map(|h| h.point.qor).fold(f64::INFINITY, f64::min);
            prop_assert!((r.best_qor - min).abs() < 1e-12);
        }
    }

    #[test]
    fn seeded_baselines_are_reproducible(
        seed in 0u64..50,
    ) {
        let aig = random_aig(seed + 12_000, 8, 250, 2);
        let Ok(e1) = QorEvaluator::new(&aig) else { return Ok(()); };
        let e2 = QorEvaluator::new(&aig).expect("same circuit");
        let space = SequenceSpace::new(4, 11);
        let control = RunControl::new();
        let ga = GaConfig { population: 5, seed, ..GaConfig::default() };
        let a = genetic_algorithm(&e1, space, 14, &ga, &control).expect("uncontrolled run");
        let b = genetic_algorithm(&e2, space, 14, &ga, &control).expect("uncontrolled run");
        prop_assert_eq!(a.best_tokens, b.best_tokens);
        let rl = RlConfig { seed, ..RlConfig::default() };
        let ra = reinforcement_learning(&e1, space, 6, &rl, &control).expect("uncontrolled run");
        let rb = reinforcement_learning(&e2, space, 6, &rl, &control).expect("uncontrolled run");
        prop_assert_eq!(ra.best_tokens, rb.best_tokens);
    }
}
