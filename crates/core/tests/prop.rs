//! Property tests for the core optimisation layer: evaluator coherence,
//! sequence-space geometry and optimiser budget discipline on random AIGs.

use boils_aig::random_aig;
use boils_core::{
    Boils, BoilsConfig, EvalRecord, OptimizationResult, QorEvaluator, QorPoint, RunControl,
    RunLedger, Sbo, SequenceSpace, Termination,
};
use boils_gp::TrainConfig;
use boils_synth::Transform;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn evaluator_is_deterministic_and_cached(
        seed in 0u64..200,
        tokens in prop::collection::vec(0u8..11, 0..8),
    ) {
        let aig = random_aig(seed, 8, 250, 3);
        let Ok(evaluator) = QorEvaluator::new(&aig) else {
            // Degenerate random circuits are legitimately rejected.
            return Ok(());
        };
        let a = evaluator.evaluate_tokens(&tokens);
        let n = evaluator.num_evaluations();
        let b = evaluator.evaluate_tokens(&tokens);
        prop_assert_eq!(a, b);
        prop_assert_eq!(evaluator.num_evaluations(), n, "cache miss on repeat");
        prop_assert!(a.qor > 0.0 && a.qor.is_finite());
        // Improvement formula is the paper's Eq. 1 rearranged.
        prop_assert!((a.improvement_percent() - (2.0 - a.qor) / 2.0 * 100.0).abs() < 1e-12);
    }

    #[test]
    fn sequence_space_geometry(
        len in 1usize..20,
        seed in 0u64..1000,
    ) {
        let space = SequenceSpace::new(len, 11);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = space.sample(&mut rng);
        let b = space.sample(&mut rng);
        // Hamming is a metric on fixed-length sequences.
        prop_assert_eq!(space.hamming(&a, &a), 0);
        prop_assert_eq!(space.hamming(&a, &b), space.hamming(&b, &a));
        prop_assert!(space.hamming(&a, &b) <= len);
        // Decoding round-trips through transform indices.
        let decoded = space.decode(&a);
        let re: Vec<u8> = decoded.iter().map(|t| t.index() as u8).collect();
        prop_assert_eq!(re, a);
    }

    #[test]
    fn optimisers_spend_exact_budgets(
        seed in 0u64..100,
        budget in 8usize..14,
    ) {
        let aig = random_aig(seed + 5000, 8, 300, 3);
        let Ok(evaluator) = QorEvaluator::new(&aig) else { return Ok(()); };
        let space = SequenceSpace::new(5, 11);
        let mut boils = Boils::new(BoilsConfig {
            max_evaluations: budget,
            initial_samples: 4,
            space,
            acq_restarts: 2,
            acq_steps: 3,
            acq_neighbors: 8,
            train: TrainConfig { steps: 3, ..TrainConfig::default() },
            seed,
            ..BoilsConfig::default()
        });
        let r = boils.run(&evaluator).expect("run");
        prop_assert_eq!(r.num_evaluations(), budget);
        // Best-so-far is monotone non-increasing.
        let curve = r.best_so_far();
        prop_assert!(curve.windows(2).all(|w| w[1] <= w[0]));

        let mut sbo = Sbo::new(BoilsConfig {
            max_evaluations: budget,
            initial_samples: 4,
            space,
            acq_restarts: 2,
            acq_steps: 3,
            acq_neighbors: 8,
            train: TrainConfig { steps: 3, ..TrainConfig::default() },
            seed,
            ..BoilsConfig::default()
        });
        let rs = sbo.run(&evaluator, &RunControl::new()).expect("run");
        prop_assert_eq!(rs.num_evaluations(), budget);
    }

    #[test]
    fn prefix_cached_evaluation_agrees_with_uncached_compute(
        seed in 0u64..100,
        sequences in prop::collection::vec(prop::collection::vec(0u8..11, 0..8), 1..10),
        capacity in 8usize..64,
    ) {
        let aig = random_aig(seed + 40_000, 8, 250, 3);
        let Ok(cached) = QorEvaluator::new(&aig) else { return Ok(()); };
        let cached = cached.with_prefix_capacity(capacity);
        let uncached = QorEvaluator::new(&aig)
            .expect("same circuit")
            .without_prefix_cache();
        for tokens in &sequences {
            prop_assert_eq!(
                cached.evaluate_tokens(tokens),
                uncached.evaluate_tokens(tokens),
                "prefix reuse changed {:?}", tokens
            );
        }
        // Evaluating every prefix of an already-seen sequence maximises
        // reuse and must stay pointwise identical.
        let longest = sequences.iter().max_by_key(|s| s.len()).expect("non-empty");
        for cut in 0..=longest.len() {
            prop_assert_eq!(
                cached.evaluate_tokens(&longest[..cut]),
                uncached.evaluate_tokens(&longest[..cut])
            );
        }
        prop_assert_eq!(cached.num_evaluations(), uncached.num_evaluations());
        // The capacity bound holds no matter the workload (per-shard
        // rounding can overshoot by at most one entry per shard).
        prop_assert!(cached.prefix_len() <= capacity + 8);
    }

    #[test]
    fn batch_evaluator_agrees_with_pointwise_evaluation(
        seed in 0u64..100,
        batch in prop::collection::vec(prop::collection::vec(0u8..11, 0..6), 1..12),
        threads in 1usize..9,
    ) {
        let aig = random_aig(seed + 20_000, 8, 250, 3);
        let Ok(batched) = QorEvaluator::new(&aig) else { return Ok(()); };
        let pointwise = QorEvaluator::new(&aig).expect("same circuit");
        let control = RunControl::new();
        let mut ledger = RunLedger::new(&batched, threads, &control);
        let records = ledger.evaluate(&batch);
        prop_assert_eq!(records.len(), batch.len());
        for (tokens, record) in batch.iter().zip(records) {
            prop_assert_eq!(&record.tokens, tokens);
            prop_assert_eq!(record.point, pointwise.evaluate_tokens(tokens), "{:?}", tokens);
        }
        prop_assert_eq!(ledger.stopped(), None);
        // Unique-evaluation accounting matches a serial evaluation loop.
        prop_assert_eq!(batched.num_evaluations(), pointwise.num_evaluations());
    }

    #[test]
    fn grouped_evaluation_agrees_with_plain_evaluation(
        seed in 0u64..100,
        batch in prop::collection::vec(prop::collection::vec(0u8..11, 0..6), 1..12),
        threads in 1usize..9,
    ) {
        // Prefix-aware scheduling reorders work across workers; values,
        // input ordering and unique-evaluation accounting must not move.
        let aig = random_aig(seed + 20_000, 8, 250, 3);
        let Ok(grouped) = QorEvaluator::new(&aig) else { return Ok(()); };
        let plain = QorEvaluator::new(&aig).expect("same circuit");
        let control = RunControl::new();
        let mut a = RunLedger::new(&grouped, threads, &control);
        let mut b = RunLedger::new(&plain, threads, &control);
        a.evaluate_grouped(&batch);
        b.evaluate(&batch);
        prop_assert_eq!(a.history().len(), batch.len());
        let points = |ledger: &RunLedger<QorEvaluator>| -> Vec<QorPoint> {
            ledger.history().iter().map(|r| r.point).collect()
        };
        prop_assert_eq!(points(&a), points(&b));
        prop_assert_eq!(a.stopped(), None);
        prop_assert_eq!(grouped.num_evaluations(), plain.num_evaluations());
    }

    #[test]
    fn stats_derived_qor_matches_the_point_arithmetic(
        seed in 0u64..150,
        tokens in prop::collection::vec(0u8..11, 0..8),
    ) {
        // The cost-generic layer caches one `SynthStats` per sequence and
        // derives costs on lookup; Eq. 1 recomputed from those stats must
        // be bit-identical to the `QorPoint` the optimisers observe.
        let aig = random_aig(seed + 60_000, 8, 250, 3);
        let Ok(evaluator) = QorEvaluator::new(&aig) else { return Ok(()); };
        let point = evaluator.evaluate_tokens(&tokens);
        let stats = evaluator.stats_of(&tokens);
        let reference = evaluator.reference_stats();
        let expected = stats.luts as f64 / reference.luts as f64
            + stats.levels as f64 / reference.levels as f64;
        prop_assert_eq!(point.qor.to_bits(), expected.to_bits());
        prop_assert_eq!(point.area, stats.luts);
        prop_assert_eq!(point.delay, stats.levels);
    }

    #[test]
    fn archive_is_exactly_the_nondominated_history(
        points in prop::collection::vec((1usize..60, 1u32..20), 1..40),
    ) {
        let space = SequenceSpace::new(2, 11);
        let history: Vec<EvalRecord> = points
            .iter()
            .enumerate()
            .map(|(i, &(area, delay))| EvalRecord {
                tokens: vec![(i % 11) as u8, (i / 11 % 11) as u8],
                point: QorPoint {
                    qor: area as f64 + delay as f64,
                    area,
                    delay,
                },
            })
            .collect();
        let result = OptimizationResult::from_history_terminated(
            &space,
            history.clone(),
            Termination::BudgetExhausted,
        );
        let dominates = |a: &QorPoint, b: &QorPoint| {
            a.area <= b.area && a.delay <= b.delay && (a.area < b.area || a.delay < b.delay)
        };
        // Soundness: nothing in the archive is dominated by any evaluation.
        for kept in &result.pareto_front {
            for seen in &history {
                prop_assert!(
                    !dominates(&seen.point, &kept.point),
                    "({}, {}) dominates archived ({}, {})",
                    seen.point.area, seen.point.delay, kept.point.area, kept.point.delay
                );
            }
        }
        // Completeness: every evaluation is represented — dominated by an
        // archive point or sharing its exact objective coordinates.
        for seen in &history {
            prop_assert!(
                result.pareto_front.iter().any(|kept| {
                    dominates(&kept.point, &seen.point)
                        || (kept.point.area, kept.point.delay)
                            == (seen.point.area, seen.point.delay)
                }),
                "({}, {}) unrepresented", seen.point.area, seen.point.delay
            );
        }
        // Uniqueness: one archive entry per objective point.
        let mut coords = std::collections::HashSet::new();
        for kept in &result.pareto_front {
            prop_assert!(coords.insert((kept.point.area, kept.point.delay)));
        }
    }

    #[test]
    fn batched_acquisition_never_duplicates_within_the_budget(
        seed in 0u64..40,
        batch_size in 2usize..5,
    ) {
        // In a space far larger than the budget, every evaluation of a
        // batched run must be unique — across batches and within them.
        let aig = random_aig(seed + 5000, 8, 300, 3);
        let Ok(evaluator) = QorEvaluator::new(&aig) else { return Ok(()); };
        let mut boils = Boils::new(BoilsConfig {
            max_evaluations: 12,
            initial_samples: 4,
            space: SequenceSpace::new(5, 11),
            acq_restarts: 2,
            acq_steps: 3,
            acq_neighbors: 8,
            batch_size,
            train: TrainConfig { steps: 3, ..TrainConfig::default() },
            seed,
            ..BoilsConfig::default()
        });
        let r = boils.run(&evaluator).expect("run");
        prop_assert_eq!(r.num_evaluations(), 12);
        prop_assert_eq!(evaluator.num_evaluations(), 12);
        let mut seen = std::collections::HashSet::new();
        for record in &r.history {
            prop_assert!(seen.insert(record.tokens.clone()), "duplicate {:?}", record.tokens);
        }
    }
}

#[test]
fn degenerate_budgets_are_rejected_not_panicking() {
    // Seed 11 is known to survive resyn2 with a non-degenerate mapping.
    let aig = random_aig(11, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let mut boils = Boils::new(BoilsConfig {
        max_evaluations: 1,
        initial_samples: 10,
        ..BoilsConfig::default()
    });
    assert!(boils.run(&evaluator).is_err());
}

#[test]
fn evaluator_rejects_transform_free_circuits() {
    // Pure-wire circuits map to zero LUTs → Eq. 1 undefined → error.
    let mut aig = boils_aig::Aig::new(3);
    let p = aig.pi(2);
    aig.add_po(p);
    assert!(QorEvaluator::new(&aig).is_err());
}

#[test]
fn all_transform_tokens_round_trip() {
    for (i, t) in Transform::ALL.iter().enumerate() {
        assert_eq!(Transform::from_index(i), *t);
        assert_eq!(t.index(), i);
    }
}
