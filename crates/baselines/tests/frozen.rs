//! Frozen trajectories of the GA and the DRiLLS-style RL baselines.
//!
//! Each table is one run's `(tokens, qor.to_bits())` in evaluation order,
//! through `Method::run` as every front end calls it. The GA spends 40
//! evaluations breeding past its initial population of 20; each RL
//! method runs 24 episodes. Any change to a selection, crossover,
//! mutation or policy-update constant, or to the order of RNG draws,
//! shows up here as a diverging row. The circuit is chosen so the runs
//! see 10 to 17 distinct QoR values each, not a plateau at 2.

use boils_aig::random_aig;
use boils_baselines::{Method, RunSpec};
use boils_core::{OptimizationResult, QorEvaluator, RunControl, SequenceSpace};

type Table = [(&'static [u8], u64)];

fn run(method: Method, budget: usize) -> OptimizationResult {
    let evaluator = QorEvaluator::new(&random_aig(61, 10, 400, 4)).expect("ok");
    let spec = RunSpec::new(SequenceSpace::new(6, 11), budget, 3);
    method
        .run(&spec, &evaluator, &RunControl::new())
        .expect("an uncontrolled run evaluates")
}

fn assert_frozen(method: Method, budget: usize, table: &Table) {
    let result = run(method, budget);
    assert_eq!(
        result.history.len(),
        table.len(),
        "{method}: history length"
    );
    for (i, (record, &(tokens, bits))) in result.history.iter().zip(table).enumerate() {
        assert_eq!(record.tokens, tokens, "{method}: tokens of eval {i}");
        assert_eq!(
            record.point.qor.to_bits(),
            bits,
            "{method}: qor of eval {i}"
        );
    }
}

#[test]
fn ga_is_frozen() {
    assert_frozen(Method::Ga, 60, GA);
}

#[test]
fn ppo_is_frozen() {
    assert_frozen(Method::DrillsPpo, 24, PPO);
}

#[test]
fn a2c_is_frozen() {
    assert_frozen(Method::DrillsA2c, 24, A2C);
}

#[test]
fn graph_rl_is_frozen() {
    assert_frozen(Method::GraphRl, 24, GRAPHRL);
}

const GA: &Table = &[
    (&[6, 9, 0, 3, 8, 6], 0x4002aaaaaaaaaaaa),
    (&[9, 4, 1, 2, 9, 2], 0x3ffeeeeeeeeeeeef),
    (&[2, 3, 1, 9, 4, 3], 0x3ffd111111111111),
    (&[4, 0, 2, 0, 6, 6], 0x4000000000000000),
    (&[3, 9, 3, 5, 3, 0], 0x4000000000000000),
    (&[9, 8, 6, 1, 2, 7], 0x3ffc000000000000),
    (&[1, 2, 9, 6, 1, 7], 0x4000000000000000),
    (&[7, 1, 5, 9, 7, 3], 0x3ffdddddddddddde),
    (&[8, 10, 8, 3, 9, 9], 0x4003333333333333),
    (&[2, 5, 10, 6, 8, 4], 0x4001111111111111),
    (&[0, 8, 7, 2, 6, 9], 0x4000000000000000),
    (&[3, 7, 7, 7, 4, 8], 0x4000888888888888),
    (&[4, 7, 6, 4, 3, 5], 0x3ffccccccccccccd),
    (&[1, 4, 8, 0, 2, 8], 0x4001111111111111),
    (&[10, 6, 3, 8, 0, 0], 0x3fff333333333333),
    (&[5, 0, 0, 8, 0, 10], 0x400199999999999a),
    (&[7, 1, 4, 1, 10, 2], 0x3ffccccccccccccd),
    (&[8, 2, 4, 7, 5, 1], 0x3ffdddddddddddde),
    (&[6, 3, 9, 4, 7, 4], 0x3ffc000000000000),
    (&[0, 6, 2, 10, 1, 1], 0x400199999999999a),
    (&[10, 6, 3, 8, 0, 0], 0x3fff333333333333),
    (&[9, 8, 6, 1, 2, 7], 0x3ffc000000000000),
    (&[9, 8, 6, 1, 8, 7], 0x3ffe222222222222),
    (&[2, 3, 9, 9, 7, 0], 0x4000000000000000),
    (&[9, 4, 6, 2, 3, 2], 0x3ffeeeeeeeeeeeef),
    (&[8, 2, 9, 7, 5, 4], 0x3ffeeeeeeeeeeeef),
    (&[4, 7, 1, 4, 3, 2], 0x3ffeeeeeeeeeeeef),
    (&[4, 1, 4, 1, 2, 7], 0x3ffccccccccccccd),
    (&[2, 2, 1, 8, 4, 3], 0x4002aaaaaaaaaaaa),
    (&[9, 8, 6, 1, 2, 7], 0x3ffc000000000000),
    (&[4, 3, 9, 4, 7, 5], 0x3ffeeeeeeeeeeeef),
    (&[9, 8, 1, 1, 2, 7], 0x3ffc000000000000),
    (&[8, 2, 4, 7, 9, 1], 0x3ff9ddddddddddde),
    (&[9, 8, 6, 1, 7, 3], 0x3ffaeeeeeeeeeeef),
    (&[4, 8, 2, 9, 6, 6], 0x4002222222222222),
    (&[9, 2, 1, 2, 9, 7], 0x3ffe222222222222),
    (&[9, 4, 1, 2, 9, 2], 0x3ffeeeeeeeeeeeef),
    (&[6, 2, 3, 6, 3, 0], 0x4000888888888888),
    (&[9, 8, 6, 1, 3, 2], 0x4002222222222222),
    (&[9, 6, 6, 1, 2, 7], 0x3ffaeeeeeeeeeeef),
    (&[9, 2, 2, 1, 2, 7], 0x3ffeeeeeeeeeeeef),
    (&[9, 8, 6, 1, 8, 7], 0x3ffe222222222222),
    (&[9, 8, 1, 1, 2, 7], 0x3ffc000000000000),
    (&[4, 8, 4, 1, 8, 7], 0x4000888888888888),
    (&[9, 8, 6, 1, 7, 3], 0x3ffaeeeeeeeeeeef),
    (&[9, 8, 6, 2, 8, 2], 0x4006444444444444),
    (&[4, 1, 4, 1, 2, 7], 0x3ffccccccccccccd),
    (&[9, 3, 10, 4, 2, 4], 0x4000000000000000),
    (&[8, 9, 9, 1, 7, 6], 0x3ffe222222222222),
    (&[6, 3, 9, 4, 7, 3], 0x3ffc000000000000),
    (&[9, 2, 4, 7, 9, 1], 0x4000000000000000),
    (&[6, 4, 8, 4, 3, 2], 0x4000000000000000),
    (&[9, 2, 6, 7, 9, 7], 0x3ffc000000000000),
    (&[9, 4, 1, 1, 7, 3], 0x3ffeeeeeeeeeeeef),
    (&[6, 3, 1, 2, 7, 7], 0x3ffeeeeeeeeeeeef),
    (&[4, 2, 6, 1, 9, 10], 0x4000000000000000),
    (&[6, 8, 1, 10, 1, 7], 0x3ffccccccccccccd),
    (&[8, 2, 10, 7, 9, 4], 0x3ffd111111111111),
    (&[2, 8, 6, 1, 7, 2], 0x3ffeeeeeeeeeeeef),
    (&[9, 8, 6, 1, 2, 3], 0x4002aaaaaaaaaaaa),
];

const PPO: &Table = &[
    (&[0, 7, 9, 9, 6, 1], 0x4001111111111111),
    (&[1, 6, 5, 0, 6, 2], 0x3ffdddddddddddde),
    (&[3, 4, 0, 5, 2, 8], 0x4001111111111111),
    (&[8, 6, 3, 2, 1, 0], 0x400199999999999a),
    (&[8, 6, 10, 7, 2, 3], 0x3ffc000000000000),
    (&[10, 4, 7, 3, 8, 0], 0x4000000000000000),
    (&[2, 2, 3, 10, 5, 5], 0x4000888888888888),
    (&[0, 5, 6, 9, 7, 6], 0x3ffeeeeeeeeeeeef),
    (&[6, 0, 10, 7, 1, 1], 0x4000000000000000),
    (&[1, 1, 2, 10, 5, 8], 0x4002222222222222),
    (&[2, 2, 2, 0, 7, 0], 0x3ffccccccccccccd),
    (&[5, 0, 8, 9, 1, 4], 0x3ffc000000000000),
    (&[10, 2, 6, 9, 1, 7], 0x3ffeeeeeeeeeeeef),
    (&[6, 1, 0, 0, 4, 6], 0x4002222222222222),
    (&[7, 7, 1, 6, 0, 5], 0x3ffdddddddddddde),
    (&[7, 7, 0, 6, 5, 1], 0x3ffdddddddddddde),
    (&[5, 1, 3, 1, 1, 2], 0x4000000000000000),
    (&[8, 5, 9, 8, 4, 8], 0x4001111111111111),
    (&[4, 2, 1, 3, 7, 3], 0x3ffdddddddddddde),
    (&[5, 5, 6, 10, 6, 2], 0x3ffeeeeeeeeeeeef),
    (&[8, 2, 9, 5, 7, 0], 0x3ffeeeeeeeeeeeef),
    (&[1, 10, 7, 7, 6, 7], 0x4000000000000000),
    (&[7, 3, 10, 0, 6, 1], 0x3ffeeeeeeeeeeeef),
    (&[7, 7, 10, 2, 3, 3], 0x3ff8cccccccccccd),
];

const A2C: &Table = &[
    (&[0, 7, 9, 9, 6, 1], 0x4001111111111111),
    (&[1, 6, 6, 0, 6, 2], 0x4000888888888888),
    (&[3, 5, 0, 5, 2, 8], 0x400199999999999a),
    (&[8, 6, 3, 2, 1, 0], 0x400199999999999a),
    (&[9, 6, 10, 7, 2, 3], 0x3ffd111111111111),
    (&[10, 4, 7, 3, 8, 0], 0x4000000000000000),
    (&[2, 2, 3, 9, 5, 5], 0x3fff333333333333),
    (&[0, 5, 6, 9, 8, 6], 0x4002aaaaaaaaaaaa),
    (&[6, 0, 10, 7, 1, 1], 0x4000000000000000),
    (&[1, 1, 2, 10, 4, 8], 0x4002222222222222),
    (&[2, 2, 2, 0, 7, 0], 0x3ffccccccccccccd),
    (&[4, 0, 8, 9, 1, 4], 0x3ffeeeeeeeeeeeef),
    (&[10, 2, 5, 9, 1, 7], 0x4000888888888888),
    (&[6, 1, 0, 0, 4, 5], 0x4000888888888888),
    (&[7, 8, 1, 6, 0, 5], 0x4000000000000000),
    (&[8, 7, 0, 6, 4, 1], 0x3ffaeeeeeeeeeeef),
    (&[5, 1, 3, 1, 0, 2], 0x4000000000000000),
    (&[8, 4, 9, 9, 3, 9], 0x4000000000000000),
    (&[3, 2, 1, 2, 8, 3], 0x3ffeeeeeeeeeeeef),
    (&[4, 4, 6, 10, 6, 2], 0x3ffd111111111111),
    (&[9, 2, 9, 5, 7, 0], 0x3ffe222222222222),
    (&[1, 10, 7, 7, 7, 7], 0x3ffe222222222222),
    (&[7, 3, 10, 0, 6, 1], 0x3ffeeeeeeeeeeeef),
    (&[7, 8, 10, 2, 2, 3], 0x4000eeeeeeeeeeef),
];

const GRAPHRL: &Table = &[
    (&[0, 7, 9, 9, 6, 1], 0x4001111111111111),
    (&[1, 6, 6, 0, 6, 2], 0x4000888888888888),
    (&[3, 5, 0, 5, 2, 8], 0x400199999999999a),
    (&[8, 6, 3, 2, 1, 0], 0x400199999999999a),
    (&[9, 6, 10, 7, 2, 3], 0x3ffd111111111111),
    (&[10, 4, 7, 3, 8, 0], 0x4000000000000000),
    (&[2, 2, 3, 9, 5, 5], 0x3fff333333333333),
    (&[0, 5, 6, 9, 8, 6], 0x4002aaaaaaaaaaaa),
    (&[6, 0, 10, 7, 1, 1], 0x4000000000000000),
    (&[1, 1, 2, 10, 4, 8], 0x4002222222222222),
    (&[2, 2, 2, 0, 7, 0], 0x3ffccccccccccccd),
    (&[4, 0, 8, 10, 1, 4], 0x3ffeeeeeeeeeeeef),
    (&[10, 2, 5, 9, 1, 7], 0x4000888888888888),
    (&[6, 1, 0, 0, 4, 5], 0x4000888888888888),
    (&[7, 8, 1, 6, 0, 5], 0x4000000000000000),
    (&[8, 7, 0, 6, 4, 1], 0x3ffaeeeeeeeeeeef),
    (&[5, 1, 3, 1, 0, 2], 0x4000000000000000),
    (&[8, 4, 9, 9, 3, 9], 0x4000000000000000),
    (&[3, 2, 1, 2, 8, 3], 0x3ffeeeeeeeeeeeef),
    (&[4, 4, 6, 10, 6, 2], 0x3ffd111111111111),
    (&[9, 2, 9, 5, 7, 0], 0x3ffe222222222222),
    (&[1, 10, 7, 7, 7, 7], 0x3ffe222222222222),
    (&[7, 3, 10, 0, 6, 1], 0x3ffeeeeeeeeeeeef),
    (&[7, 8, 10, 2, 2, 3], 0x4000eeeeeeeeeeef),
];
