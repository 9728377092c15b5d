//! Cancellation determinism: a run cancelled after `k` evaluations must
//! reproduce an exact prefix of the uncancelled trajectory — same tokens,
//! bit-identical QoR points — at any thread count. Scheduling only moves
//! *where* the cut lands, never *what* precedes it, because values are
//! pure functions of tokens and an interrupted batch keeps exactly its
//! longest contiguous input-order resolved prefix.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use boils_aig::random_aig;
use boils_core::{
    Boils, BoilsConfig, EvalRecord, QorEvaluator, QorPoint, RunBoilsError, RunControl, Sbo,
    SequenceObjective, SequenceSpace, StopReason, Termination,
};
use boils_gp::TrainConfig;
use proptest::prelude::*;

/// Wraps an evaluator and fires its own [`RunControl`] once `cancel_after`
/// evaluations have completed (cache hits served via `lookup` don't count,
/// matching how budgets are spent).
struct CancelAfter<'a> {
    inner: &'a QorEvaluator,
    control: RunControl,
    done: AtomicUsize,
    cancel_after: usize,
}

impl<'a> CancelAfter<'a> {
    fn new(inner: &'a QorEvaluator, cancel_after: usize) -> CancelAfter<'a> {
        CancelAfter {
            inner,
            control: RunControl::new(),
            done: AtomicUsize::new(0),
            cancel_after,
        }
    }
}

impl SequenceObjective for CancelAfter<'_> {
    fn evaluate_tokens(&self, tokens: &[u8]) -> QorPoint {
        let point = self.inner.evaluate_tokens(tokens);
        if self.done.fetch_add(1, Ordering::SeqCst) + 1 >= self.cancel_after {
            self.control.cancel();
        }
        point
    }

    fn lookup(&self, tokens: &[u8]) -> Option<QorPoint> {
        self.inner.lookup(tokens)
    }

    fn is_cached(&self, tokens: &[u8]) -> bool {
        self.inner.is_cached(tokens)
    }

    fn num_evaluations(&self) -> usize {
        self.inner.num_evaluations()
    }
}

fn boils_config(space: SequenceSpace, budget: usize, seed: u64, threads: usize) -> BoilsConfig {
    BoilsConfig {
        max_evaluations: budget,
        initial_samples: 4,
        space,
        threads,
        acq_restarts: 2,
        acq_steps: 3,
        acq_neighbors: 8,
        train: TrainConfig {
            steps: 3,
            ..TrainConfig::default()
        },
        seed,
        ..BoilsConfig::default()
    }
}

/// Asserts `cancelled` is an exact (tokens and bit-level QoR) prefix of
/// `full`, and returns its length.
fn assert_exact_prefix(cancelled: &[EvalRecord], full: &[EvalRecord]) -> usize {
    assert!(
        cancelled.len() <= full.len(),
        "cancelled run evaluated more ({}) than the full run ({})",
        cancelled.len(),
        full.len()
    );
    for (i, (c, f)) in cancelled.iter().zip(full).enumerate() {
        assert_eq!(c.tokens, f.tokens, "tokens diverged at position {i}");
        assert_eq!(
            c.point.qor.to_bits(),
            f.point.qor.to_bits(),
            "QoR diverged at position {i}"
        );
        assert_eq!(c.point.area, f.point.area, "area diverged at position {i}");
        assert_eq!(
            c.point.delay, f.point.delay,
            "delay diverged at position {i}"
        );
    }
    cancelled.len()
}

fn check_boils_prefix(aig: &boils_aig::Aig, budget: usize, seed: u64, threads: usize, k: usize) {
    let space = SequenceSpace::new(5, 11);
    let full_eval = match QorEvaluator::new(aig) {
        Ok(e) => e,
        Err(_) => return, // degenerate random circuit
    };
    let full = Boils::new(boils_config(space, budget, seed, threads))
        .run(&full_eval)
        .expect("uncancelled run");

    let cancel_eval = QorEvaluator::new(aig).expect("same circuit");
    let wrapper = CancelAfter::new(&cancel_eval, k);
    let mut boils = Boils::new(boils_config(space, budget, seed, threads));
    match boils.run_with_control(&wrapper, &wrapper.control) {
        Ok(result) => {
            let len = assert_exact_prefix(&result.history, &full.history);
            if len < budget {
                assert_eq!(result.termination, Termination::Cancelled);
            }
        }
        // The cancel can land before the first input-order evaluation
        // resolves: a zero-length prefix, reported as an error.
        Err(RunBoilsError::Interrupted(StopReason::Cancelled)) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
}

fn check_sbo_prefix(aig: &boils_aig::Aig, budget: usize, seed: u64, threads: usize, k: usize) {
    let space = SequenceSpace::new(5, 11);
    let full_eval = match QorEvaluator::new(aig) {
        Ok(e) => e,
        Err(_) => return,
    };
    let full = Sbo::new(boils_config(space, budget, seed, threads))
        .run(&full_eval, &RunControl::new())
        .expect("uncancelled run");

    let cancel_eval = QorEvaluator::new(aig).expect("same circuit");
    let wrapper = CancelAfter::new(&cancel_eval, k);
    let mut sbo = Sbo::new(boils_config(space, budget, seed, threads));
    match sbo.run(&wrapper, &wrapper.control) {
        Ok(result) => {
            let len = assert_exact_prefix(&result.history, &full.history);
            if len < budget {
                assert_eq!(result.termination, Termination::Cancelled);
            }
        }
        Err(RunBoilsError::Interrupted(StopReason::Cancelled)) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn boils_cancelled_at_k_is_an_exact_prefix(
        seed in 0u64..50,
        k in 1usize..12,
        threads_idx in 0usize..3,
    ) {
        let aig = random_aig(seed + 62_000, 8, 300, 3);
        check_boils_prefix(&aig, 12, seed, [1, 2, 8][threads_idx], k);
    }

    #[test]
    fn sbo_cancelled_at_k_is_an_exact_prefix(
        seed in 0u64..50,
        k in 1usize..12,
        threads_idx in 0usize..3,
    ) {
        let aig = random_aig(seed + 63_000, 8, 300, 3);
        check_sbo_prefix(&aig, 12, seed, [1, 2, 8][threads_idx], k);
    }
}

#[test]
fn expired_deadline_interrupts_before_any_evaluation() {
    let aig = random_aig(64_001, 8, 300, 3);
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let control = RunControl::with_deadline(Duration::ZERO);
    let mut boils = Boils::new(boils_config(SequenceSpace::new(5, 11), 12, 0, 1));
    match boils.run_with_control(&evaluator, &control) {
        Err(RunBoilsError::Interrupted(StopReason::DeadlineExceeded)) => {}
        other => panic!("expected a deadline interruption, got {other:?}"),
    }
    assert_eq!(evaluator.num_evaluations(), 0);
}

#[test]
fn generous_deadline_changes_nothing() {
    let aig = random_aig(64_002, 8, 300, 3);
    let space = SequenceSpace::new(5, 11);
    let plain_eval = QorEvaluator::new(&aig).expect("ok");
    let plain = Boils::new(boils_config(space, 10, 3, 1))
        .run(&plain_eval)
        .expect("run");
    let armed_eval = QorEvaluator::new(&aig).expect("ok");
    let control = RunControl::with_deadline(Duration::from_secs(3600));
    let armed = Boils::new(boils_config(space, 10, 3, 1))
        .run_with_control(&armed_eval, &control)
        .expect("run");
    assert_eq!(armed.termination, Termination::BudgetExhausted);
    assert_eq!(assert_exact_prefix(&armed.history, &plain.history), 10);
}
