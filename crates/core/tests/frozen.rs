//! Frozen trajectories for the BO loop's less-travelled paths.
//!
//! `batch.rs` and `transfer.rs` pin scalar BOiLS and scalar SBO at
//! `q = 1`. The tables below pin every other combination the loop
//! supports: batched acquisition, trust-region restarts, UCB, the
//! sliding-window surrogate, warm starts, the unconstrained search, and
//! ParEGO — for BOiLS and SBO alike. Each table is the run's
//! `(tokens, qor.to_bits())` in evaluation order, captured before the
//! BOiLS and SBO loops were folded into one; any change to the order of
//! RNG draws, to the surrogate's data, or to the freshness guard shows up
//! here as a diverging row.

use boils_aig::random_aig;
use boils_core::{
    Acquisition, Boils, BoilsConfig, OptimizationResult, QorEvaluator, RunControl, RunDiagnostics,
    Sbo, SequenceSpace, WarmStart,
};
use boils_gp::TrainConfig;

type Table = [(&'static [u8], u64)];

fn assert_frozen(result: &OptimizationResult, table: &Table, label: &str) {
    assert_eq!(result.history.len(), table.len(), "{label}: history length");
    for (i, (record, &(tokens, bits))) in result.history.iter().zip(table).enumerate() {
        assert_eq!(record.tokens, tokens, "{label}: tokens of eval {i}");
        assert_eq!(record.point.qor.to_bits(), bits, "{label}: qor of eval {i}");
    }
}

/// The scalar BOiLS configuration of `batch.rs`'s frozen run; each test
/// below changes one part of it.
fn boils_config() -> BoilsConfig {
    BoilsConfig {
        max_evaluations: 16,
        initial_samples: 10,
        space: SequenceSpace::new(6, 11),
        acq_restarts: 2,
        acq_steps: 4,
        acq_neighbors: 10,
        retrain_every: 5,
        train: TrainConfig {
            steps: 5,
            ..TrainConfig::default()
        },
        seed: 7,
        ..BoilsConfig::default()
    }
}

fn run_boils(config: BoilsConfig) -> (OptimizationResult, RunDiagnostics) {
    let aig = random_aig(71, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let mut boils = Boils::new(config);
    let result = boils.run(&evaluator).expect("run");
    (result, boils.diagnostics().clone())
}

/// The scalar SBO configuration of `batch.rs`'s frozen run (on the
/// BOiLS circuit, whose design points differ in QoR).
fn sbo_config() -> BoilsConfig {
    BoilsConfig {
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
    }
}

fn run_sbo(config: BoilsConfig) -> OptimizationResult {
    let aig = random_aig(71, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    Sbo::new(config)
        .run(&evaluator, &RunControl::new())
        .expect("run")
}

const BOILS_Q4: &Table = &[
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
    (&[0, 9, 9, 1, 3, 2], 0x4000000000000000),
    (&[3, 0, 9, 9, 1, 4], 0x3ffccccccccccccd),
    (&[3, 3, 0, 9, 1, 10], 0x3ffccccccccccccd),
    (&[9, 9, 10, 3, 0, 9], 0x3ff999999999999a),
    (&[9, 10, 2, 3, 0, 1], 0x4000000000000000),
    (&[3, 3, 0, 9, 1, 1], 0x3ffccccccccccccd),
    (&[3, 9, 0, 9, 0, 10], 0x4000000000000000),
    (&[0, 10, 3, 9, 0, 8], 0x3ff999999999999a),
    (&[9, 9, 0, 9, 3, 0], 0x4000000000000000),
    (&[8, 3, 0, 9, 2, 0], 0x3ffccccccccccccd),
];

const BOILS_RESTARTS: &Table = &[
    (&[1, 0, 0, 5, 1, 5], 0x4000000000000000),
    (&[5, 5, 1, 7, 0, 3], 0x4000000000000000),
    (&[0, 9, 7, 0, 9, 7], 0x4000000000000000),
    (&[9, 3, 3, 1, 7, 0], 0x4000000000000000),
    (&[3, 1, 9, 9, 3, 9], 0x3ffccccccccccccd),
    (&[7, 7, 5, 3, 5, 1], 0x4000000000000000),
    (&[1, 9, 9, 3, 9, 6], 0x4000000000000000),
    (&[3, 1, 3, 9, 9, 3], 0x3ffccccccccccccd),
    (&[8, 1, 3, 1, 9, 9], 0x3ffccccccccccccd),
    (&[3, 1, 9, 9, 9, 8], 0x4000000000000000),
    (&[3, 1, 1, 9, 3, 9], 0x3ffccccccccccccd),
    (&[3, 1, 9, 9, 10, 9], 0x3ffccccccccccccd),
    (&[4, 4, 8, 6, 7, 7], 0x4000000000000000),
    (&[3, 8, 1, 3, 10, 9], 0x3ffccccccccccccd),
    (&[8, 3, 1, 9, 10, 9], 0x4000000000000000),
    (&[3, 8, 1, 1, 1, 9], 0x3ffccccccccccccd),
    (&[3, 8, 1, 3, 9, 2], 0x3ffccccccccccccd),
    (&[3, 3, 2, 3, 10, 9], 0x3ff999999999999a),
    (&[3, 2, 3, 3, 10, 9], 0x3ffccccccccccccd),
    (&[3, 3, 2, 3, 2, 9], 0x3ff999999999999a),
    (&[3, 3, 2, 4, 10, 9], 0x3ffccccccccccccd),
    (&[3, 3, 3, 3, 10, 9], 0x3ffccccccccccccd),
    (&[1, 1, 2, 1, 5, 9], 0x4000000000000000),
    (&[3, 3, 2, 10, 10, 9], 0x3ffccccccccccccd),
    (&[3, 3, 2, 2, 2, 3], 0x3ff999999999999a),
    (&[6, 3, 4, 4, 3, 2], 0x4000000000000000),
    (&[3, 3, 2, 3, 2, 10], 0x3ff999999999999a),
    (&[3, 3, 2, 2, 3, 9], 0x3ff999999999999a),
    (&[10, 3, 2, 3, 2, 2], 0x3ff999999999999a),
    (&[10, 3, 3, 2, 2, 3], 0x3ffccccccccccccd),
];

const BOILS_UCB: &Table = &[
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
    (&[9, 3, 0, 1, 9, 4], 0x3ff999999999999a),
    (&[9, 0, 1, 9, 1, 4], 0x3ff999999999999a),
    (&[9, 10, 0, 9, 1, 4], 0x3ff999999999999a),
    (&[9, 3, 0, 0, 1, 9], 0x3ff999999999999a),
    (&[9, 0, 9, 1, 10, 9], 0x400599999999999a),
    (&[3, 9, 0, 1, 0, 4], 0x4000000000000000),
];

const BOILS_WINDOW: &Table = &[
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
    (&[9, 3, 0, 1, 9, 4], 0x3ff999999999999a),
    (&[9, 3, 1, 9, 3, 0], 0x4000000000000000),
    (&[9, 4, 0, 9, 1, 4], 0x4000000000000000),
    (&[3, 0, 0, 9, 1, 4], 0x3ffccccccccccccd),
    (&[9, 3, 9, 4, 10, 6], 0x4000000000000000),
    (&[3, 9, 3, 1, 1, 4], 0x3ffccccccccccccd),
    (&[3, 9, 0, 1, 8, 4], 0x4000000000000000),
    (&[9, 2, 3, 9, 1, 4], 0x3ffccccccccccccd),
    (&[7, 3, 0, 9, 5, 1], 0x4000000000000000),
    (&[9, 3, 0, 4, 1, 0], 0x3ff999999999999a),
];

const BOILS_WARM: &Table = &[
    (&[9, 3, 0, 9, 1, 2], 0x3ff999999999999a),
    (&[3, 0, 9, 2, 1, 4], 0x3ff999999999999a),
    (&[9, 3, 0, 9, 1, 4], 0x3ff999999999999a),
    (&[4, 6, 3, 8, 0, 6], 0x4000000000000000),
    (&[6, 2, 6, 7, 3, 7], 0x4000000000000000),
    (&[7, 9, 4, 0, 7, 9], 0x4000000000000000),
    (&[2, 5, 2, 5, 8, 8], 0x4000000000000000),
    (&[5, 8, 5, 2, 6, 0], 0x4000000000000000),
    (&[1, 1, 7, 3, 5, 2], 0x4000000000000000),
    (&[0, 0, 1, 1, 2, 5], 0x4000000000000000),
    (&[9, 3, 2, 2, 1, 4], 0x3ff999999999999a),
    (&[9, 3, 0, 2, 2, 2], 0x3ff999999999999a),
    (&[2, 2, 9, 2, 4, 9], 0x3ffccccccccccccd),
    (&[10, 3, 0, 9, 2, 2], 0x3ff999999999999a),
    (&[10, 2, 2, 2, 2, 10], 0x3ff999999999999a),
    (&[2, 2, 3, 9, 1, 4], 0x3ffccccccccccccd),
];

const BOILS_NO_TRUST_REGION: &Table = &[
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
    (&[9, 3, 9, 1, 0, 4], 0x4000000000000000),
    (&[9, 9, 10, 3, 3, 0], 0x4000000000000000),
    (&[0, 9, 5, 9, 1, 9], 0x4004cccccccccccd),
    (&[3, 0, 0, 9, 1, 3], 0x3ffccccccccccccd),
    (&[1, 3, 4, 3, 3, 4], 0x4000000000000000),
    (&[3, 0, 3, 3, 0, 1], 0x3ff999999999999a),
    (&[3, 3, 2, 0, 3, 1], 0x3ff999999999999a),
    (&[3, 2, 0, 3, 0, 3], 0x3ffccccccccccccd),
    (&[3, 3, 0, 3, 1, 1], 0x3ff999999999999a),
    (&[8, 3, 0, 2, 3, 1], 0x3ff999999999999a),
];

const BOILS_PAREGO_Q1: &Table = &[
    (&[8, 2, 8, 0, 5, 9], 0x4000000000000000),
    (&[0, 0, 9, 2, 3, 0], 0x4000000000000000),
    (&[9, 3, 7, 8, 7, 5], 0x400599999999999a),
    (&[1, 1, 0, 6, 9, 6], 0x4008cccccccccccd),
    (&[3, 6, 6, 9, 1, 4], 0x4000000000000000),
    (&[6, 7, 3, 5, 4, 2], 0x4000000000000000),
    (&[2, 9, 4, 4, 0, 1], 0x4000000000000000),
    (&[5, 5, 5, 7, 8, 7], 0x4000000000000000),
    (&[4, 4, 1, 3, 6, 3], 0x4000000000000000),
    (&[7, 8, 2, 1, 2, 8], 0x3ffccccccccccccd),
    (&[3, 0, 2, 5, 2, 8], 0x3ffccccccccccccd),
    (&[3, 4, 2, 5, 2, 8], 0x3ffccccccccccccd),
    (&[4, 2, 0, 2, 2, 8], 0x3ff999999999999a),
    (&[4, 5, 4, 0, 2, 4], 0x4000000000000000),
    (&[4, 2, 2, 2, 2, 8], 0x3ff999999999999a),
    (&[2, 2, 2, 3, 4, 8], 0x3ff999999999999a),
    (&[2, 0, 2, 3, 2, 8], 0x3ffccccccccccccd),
    (&[2, 2, 2, 3, 3, 8], 0x3ffccccccccccccd),
    (&[2, 4, 3, 10, 8, 2], 0x4000000000000000),
    (&[4, 4, 2, 3, 2, 0], 0x3ff999999999999a),
];

const BOILS_PAREGO_Q2: &Table = &[
    (&[8, 2, 8, 0, 5, 9], 0x4000000000000000),
    (&[0, 0, 9, 2, 3, 0], 0x4000000000000000),
    (&[9, 3, 7, 8, 7, 5], 0x400599999999999a),
    (&[1, 1, 0, 6, 9, 6], 0x4008cccccccccccd),
    (&[3, 6, 6, 9, 1, 4], 0x4000000000000000),
    (&[6, 7, 3, 5, 4, 2], 0x4000000000000000),
    (&[2, 9, 4, 4, 0, 1], 0x4000000000000000),
    (&[5, 5, 5, 7, 8, 7], 0x4000000000000000),
    (&[4, 4, 1, 3, 6, 3], 0x4000000000000000),
    (&[7, 8, 2, 1, 2, 8], 0x3ffccccccccccccd),
    (&[3, 0, 2, 5, 2, 8], 0x3ffccccccccccccd),
    (&[4, 4, 2, 8, 2, 2], 0x3ff999999999999a),
    (&[2, 4, 2, 3, 2, 2], 0x3ffccccccccccccd),
    (&[10, 2, 8, 4, 2, 2], 0x3ff999999999999a),
    (&[2, 5, 4, 0, 4, 2], 0x4000000000000000),
    (&[5, 3, 5, 4, 2, 0], 0x4000000000000000),
    (&[2, 8, 10, 10, 2, 2], 0x3ffccccccccccccd),
    (&[8, 2, 10, 4, 2, 8], 0x3ffccccccccccccd),
];

const SBO_Q4: &Table = &[
    (&[7, 8, 4, 4, 5], 0x4000000000000000),
    (&[2, 3, 9, 0, 4], 0x3ffccccccccccccd),
    (&[1, 4, 6, 5, 8], 0x4000000000000000),
    (&[4, 7, 3, 8, 0], 0x4000000000000000),
    (&[9, 9, 8, 3, 7], 0x4000000000000000),
    (&[3, 6, 0, 7, 3], 0x3ffccccccccccccd),
    (&[8, 2, 1, 9, 6], 0x4004000000000000),
    (&[6, 1, 2, 2, 9], 0x4000000000000000),
    (&[5, 5, 5, 1, 1], 0x4008cccccccccccd),
    (&[0, 0, 7, 6, 2], 0x4000000000000000),
    (&[2, 8, 0, 0, 3], 0x4000000000000000),
    (&[3, 9, 3, 0, 2], 0x3ffccccccccccccd),
    (&[2, 6, 0, 5, 3], 0x4000000000000000),
    (&[2, 8, 3, 7, 2], 0x3ff999999999999a),
    (&[2, 8, 9, 7, 2], 0x3ffccccccccccccd),
    (&[3, 3, 0, 2, 2], 0x3ffccccccccccccd),
    (&[9, 4, 0, 7, 2], 0x3ff999999999999a),
    (&[2, 3, 9, 7, 2], 0x3ff999999999999a),
];

const SBO_PAREGO: &Table = &[
    (&[7, 8, 4, 4, 5], 0x4000000000000000),
    (&[2, 3, 9, 0, 4], 0x3ffccccccccccccd),
    (&[1, 4, 6, 5, 8], 0x4000000000000000),
    (&[4, 7, 3, 8, 0], 0x4000000000000000),
    (&[9, 9, 8, 3, 7], 0x4000000000000000),
    (&[3, 6, 0, 7, 3], 0x3ffccccccccccccd),
    (&[8, 2, 1, 9, 6], 0x4004000000000000),
    (&[6, 1, 2, 2, 9], 0x4000000000000000),
    (&[5, 5, 5, 1, 1], 0x4008cccccccccccd),
    (&[0, 0, 7, 6, 2], 0x4000000000000000),
    (&[3, 1, 6, 0, 0], 0x4000000000000000),
    (&[1, 7, 2, 7, 3], 0x4000000000000000),
    (&[1, 8, 0, 7, 0], 0x400199999999999a),
    (&[3, 6, 0, 0, 4], 0x4000000000000000),
];

#[test]
fn boils_q4_is_frozen() {
    let (result, diagnostics) = run_boils(BoilsConfig {
        max_evaluations: 22,
        batch_size: 4,
        ..boils_config()
    });
    assert_frozen(&result, BOILS_Q4, "BOILS_Q4");
    assert_eq!(diagnostics.batches, 3);
}

#[test]
fn restart_heavy_boils_is_frozen() {
    // A 1-success / 1-failure schedule collapses the radius every few
    // iterations, so restart evaluations land throughout the run.
    let (result, diagnostics) = run_boils(BoilsConfig {
        max_evaluations: 30,
        initial_samples: 6,
        fail_tolerance: 1,
        success_tolerance: 1,
        seed: 2,
        ..boils_config()
    });
    assert_frozen(&result, BOILS_RESTARTS, "BOILS_RESTARTS");
    assert!(
        result.history.len() > 6 + diagnostics.batches,
        "no restart fired: {diagnostics:?}"
    );
}

#[test]
fn ucb_boils_is_frozen() {
    let (result, _) = run_boils(BoilsConfig {
        acquisition: Acquisition::UpperConfidenceBound { beta: 2.0 },
        ..boils_config()
    });
    assert_frozen(&result, BOILS_UCB, "BOILS_UCB");
}

#[test]
fn windowed_boils_is_frozen() {
    let (result, diagnostics) = run_boils(BoilsConfig {
        max_evaluations: 20,
        surrogate_window: Some(7),
        ..boils_config()
    });
    assert_frozen(&result, BOILS_WINDOW, "BOILS_WINDOW");
    assert!(diagnostics.surrogate.downdates > 0, "{diagnostics:?}");
}

#[test]
fn warm_started_boils_is_frozen() {
    // Two seeds replace design rows; of the observations, the two that
    // duplicate seeds are skipped and the other two enter the surrogate.
    let (result, diagnostics) = run_boils(BoilsConfig {
        warm_start: Some(WarmStart {
            seeds: vec![vec![9, 3, 0, 9, 1, 2], vec![3, 0, 9, 2, 1, 4]],
            observations: vec![
                (vec![9, 3, 0, 9, 1, 2], 1.7),
                (vec![3, 0, 9, 2, 1, 4], 1.9),
                (vec![2, 2, 2, 2, 2, 2], 1.5),
                (vec![5, 5, 5, 5, 5, 5], 2.3),
            ],
        }),
        ..boils_config()
    });
    assert_frozen(&result, BOILS_WARM, "BOILS_WARM");
    assert_eq!(diagnostics.surrogate.seeded, 2);
}

#[test]
fn boils_without_a_trust_region_is_frozen() {
    // The default 20-failure tolerance cannot collapse a length-6 radius
    // within this budget, so no restart fires.
    let (result, diagnostics) = run_boils(BoilsConfig {
        max_evaluations: 20,
        use_trust_region: false,
        ..boils_config()
    });
    assert_frozen(&result, BOILS_NO_TRUST_REGION, "BOILS_NO_TRUST_REGION");
    assert_eq!(result.history.len(), 10 + diagnostics.batches);
}

/// ParEGO with a 1-success / 1-failure schedule: every hypervolume
/// judgement moves the radius, and with this seed some batches do grow
/// the front, so the judgements steer the proposals.
fn parego_config() -> BoilsConfig {
    BoilsConfig {
        multi_objective: true,
        fail_tolerance: 1,
        success_tolerance: 1,
        seed: 2,
        ..boils_config()
    }
}

#[test]
fn parego_boils_is_frozen() {
    let (result, _) = run_boils(BoilsConfig {
        max_evaluations: 20,
        ..parego_config()
    });
    assert_frozen(&result, BOILS_PAREGO_Q1, "BOILS_PAREGO_Q1");
}

#[test]
fn batched_parego_boils_is_frozen() {
    let (result, diagnostics) = run_boils(BoilsConfig {
        max_evaluations: 18,
        batch_size: 2,
        ..parego_config()
    });
    assert_frozen(&result, BOILS_PAREGO_Q2, "BOILS_PAREGO_Q2");
    assert_eq!(diagnostics.batches, 4);
}

#[test]
fn sbo_q4_is_frozen() {
    let result = run_sbo(BoilsConfig {
        max_evaluations: 18,
        batch_size: 4,
        ..sbo_config()
    });
    assert_frozen(&result, SBO_Q4, "SBO_Q4");
}

#[test]
fn parego_sbo_is_frozen() {
    let result = run_sbo(BoilsConfig {
        multi_objective: true,
        ..sbo_config()
    });
    assert_frozen(&result, SBO_PAREGO, "SBO_PAREGO");
}
