//! Bounded-history (sliding-window) surrogate guarantees at the optimiser
//! level:
//!
//! * `surrogate_window = None` (the default) is bit-identical to the
//!   unbounded optimiser — the frozen-history regressions in `batch.rs`
//!   cover the exact trajectories; here we re-assert equality against a
//!   run with the field explicitly defaulted.
//! * Windowed runs spend exactly the budget, keep the GP training set at
//!   the window bound, pin the incumbent, and report their lifecycle in
//!   `RunDiagnostics::surrogate`.

use boils_aig::random_aig;
use boils_core::{Boils, BoilsConfig, QorEvaluator, RunControl, Sbo, SequenceSpace};
use boils_gp::TrainConfig;

fn window_config(window: Option<usize>) -> BoilsConfig {
    BoilsConfig {
        max_evaluations: 22,
        initial_samples: 8,
        space: SequenceSpace::new(6, 11),
        acq_restarts: 2,
        acq_steps: 4,
        acq_neighbors: 10,
        retrain_every: 5,
        surrogate_window: window,
        train: TrainConfig {
            steps: 4,
            ..TrainConfig::default()
        },
        seed: 13,
        ..BoilsConfig::default()
    }
}

#[test]
fn explicit_none_window_matches_the_default_run_exactly() {
    let aig = random_aig(81, 8, 300, 3);
    let e1 = QorEvaluator::new(&aig).expect("ok");
    let e2 = QorEvaluator::new(&aig).expect("ok");
    let default_run = Boils::new(BoilsConfig {
        surrogate_window: None,
        ..window_config(None)
    })
    .run(&e1)
    .expect("run");
    let explicit = Boils::new(window_config(None)).run(&e2).expect("run");
    assert_eq!(default_run.history.len(), explicit.history.len());
    for (a, b) in default_run.history.iter().zip(&explicit.history) {
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.point.qor.to_bits(), b.point.qor.to_bits());
    }
}

#[test]
fn windowed_boils_spends_the_budget_and_bounds_the_surrogate() {
    for window in [6usize, 10] {
        let aig = random_aig(81, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut boils = Boils::new(window_config(Some(window)));
        let result = boils.run(&evaluator).expect("run");
        assert_eq!(result.num_evaluations(), 22, "window {window}");
        let d = boils.diagnostics();
        // 22 observations against a window of `window` with retrains every
        // 5: the non-retrain iterations must have evicted by downdate.
        assert!(
            d.surrogate.downdates > 0,
            "window {window}: no rank-1 eviction happened: {d:?}"
        );
        assert_eq!(d.retrains_at, d.surrogate.retrains_at, "mirror field");
        // The best-so-far curve is still monotone: windowing forgets
        // training points, never results.
        let curve = result.best_so_far();
        assert!(curve.windows(2).all(|w| w[1] <= w[0]));
    }
}

#[test]
fn windowed_boils_is_deterministic_given_seed() {
    let aig = random_aig(83, 8, 300, 3);
    let e1 = QorEvaluator::new(&aig).expect("ok");
    let e2 = QorEvaluator::new(&aig).expect("ok");
    let r1 = Boils::new(window_config(Some(7))).run(&e1).expect("run");
    let r2 = Boils::new(window_config(Some(7))).run(&e2).expect("run");
    assert_eq!(r1.best_tokens, r2.best_tokens);
    assert_eq!(r1.best_qor.to_bits(), r2.best_qor.to_bits());
    for (a, b) in r1.history.iter().zip(&r2.history) {
        assert_eq!(a.tokens, b.tokens);
    }
}

#[test]
fn windowed_sbo_spends_the_budget_and_reports_downdates() {
    let aig = random_aig(85, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let mut sbo = Sbo::new(BoilsConfig {
        max_evaluations: 18,
        initial_samples: 6,
        space: SequenceSpace::new(5, 11),
        acq_restarts: 2,
        acq_steps: 3,
        acq_neighbors: 8,
        retrain_every: 100, // stay on the extend/downdate path
        surrogate_window: Some(6),
        train: TrainConfig {
            steps: 3,
            ..TrainConfig::default()
        },
        seed: 5,
        ..BoilsConfig::default()
    });
    let result = sbo.run(&evaluator, &RunControl::new()).expect("run");
    assert_eq!(result.num_evaluations(), 18);
    let d = sbo.diagnostics();
    // 18 observations, window 6, one retrain (the first fit covering the
    // initial design): each later iteration folds the previous one's
    // observation in by an extend and evicts by a downdate — the final
    // observation stays pending (the run ends before another model sync).
    assert_eq!(d.surrogate.retrains_at, vec![6]);
    assert_eq!(d.surrogate.extends, 11, "{d:?}");
    assert_eq!(d.surrogate.downdates, 11, "{d:?}");
}

#[test]
fn tiny_window_still_enumerates_a_tiny_space() {
    // The harshest setting: a window of 2 on a 2×2 space — the surrogate
    // holds almost nothing, yet budget discipline and dedup must hold.
    let aig = random_aig(61, 8, 250, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let mut boils = Boils::new(BoilsConfig {
        max_evaluations: 4,
        initial_samples: 2,
        space: SequenceSpace::new(2, 2),
        acq_restarts: 1,
        acq_steps: 2,
        acq_neighbors: 4,
        surrogate_window: Some(2),
        train: TrainConfig {
            steps: 2,
            ..TrainConfig::default()
        },
        seed: 5,
        ..BoilsConfig::default()
    });
    let result = boils.run(&evaluator).expect("run");
    assert_eq!(result.num_evaluations(), 4);
    assert_eq!(evaluator.num_evaluations(), 4);
    let mut seen: Vec<Vec<u8>> = result.history.iter().map(|r| r.tokens.clone()).collect();
    seen.sort();
    assert_eq!(seen, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
}
