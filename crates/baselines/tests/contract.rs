//! The run contract of every method, through `Method::run` as every front
//! end calls it, at one and two evaluation threads.
//!
//! * **Cancellation.** A run whose control fires after `k` evaluations
//!   returns an exact prefix (tokens and QoR bits) of the uncancelled
//!   run. It ends `Cancelled` whenever that prefix is shorter than the
//!   budget, `BudgetExhausted` when it is the whole budget, and comes back
//!   `None` only when nothing resolved.
//! * **Quarantine.** One panicking sequence costs one sentinel per
//!   occurrence, not the run: the budget is spent in full, every
//!   quarantined entry and every sentinel in the history is that
//!   sequence, and the records before its first occurrence are the clean
//!   run's, bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};

use boils_aig::{random_aig, Aig};
use boils_baselines::{Method, RolloutCircuit, RunSpec};
use boils_core::{
    EvalRecord, OptimizationResult, QorEvaluator, QorPoint, RunControl, SequenceObjective,
    SequenceSpace, Termination,
};

/// An evaluator wrapper that fires its own [`RunControl`] once
/// `cancel_after` evaluations have completed (memoised look-ups do not
/// count), and panics on `poison`.
struct Wrapped<'a> {
    inner: &'a QorEvaluator,
    control: RunControl,
    done: AtomicUsize,
    cancel_after: usize,
    poison: Option<Vec<u8>>,
}

impl<'a> Wrapped<'a> {
    fn new(inner: &'a QorEvaluator, cancel_after: usize, poison: Option<Vec<u8>>) -> Self {
        Wrapped {
            inner,
            control: RunControl::new(),
            done: AtomicUsize::new(0),
            cancel_after,
            poison,
        }
    }
}

impl SequenceObjective for Wrapped<'_> {
    fn evaluate_tokens(&self, tokens: &[u8]) -> QorPoint {
        assert!(
            self.poison.as_deref() != Some(tokens),
            "injected evaluation panic"
        );
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

impl RolloutCircuit for Wrapped<'_> {
    fn rollout_circuit(&self) -> &Aig {
        self.inner.rollout_circuit()
    }
}

fn circuit() -> Aig {
    random_aig(71, 8, 300, 3)
}

fn spec(method: Method, threads: usize) -> RunSpec {
    let budget = if method == Method::Greedy { 22 } else { 12 };
    RunSpec {
        threads,
        ..RunSpec::new(SequenceSpace::new(5, 11), budget, 2)
    }
}

/// One run of `method` on a fresh evaluator of `aig` behind a [`Wrapped`]
/// that cancels after `cancel_after` evaluations and panics on `poison`;
/// returns the result and whether the evaluator memoised `probe`.
fn run_wrapped(
    method: Method,
    threads: usize,
    aig: &Aig,
    cancel_after: usize,
    poison: Option<Vec<u8>>,
    probe: &[u8],
) -> (Option<OptimizationResult>, bool) {
    let evaluator = QorEvaluator::new(aig).expect("non-degenerate circuit");
    let wrapped = Wrapped::new(&evaluator, cancel_after, poison);
    let result = method.run(&spec(method, threads), &wrapped, &wrapped.control);
    (result, evaluator.is_cached(probe))
}

fn clean_run(method: Method, threads: usize, aig: &Aig) -> OptimizationResult {
    run_wrapped(method, threads, aig, usize::MAX, None, &[])
        .0
        .expect("an uncontrolled run evaluates")
}

fn assert_same_record(a: &EvalRecord, b: &EvalRecord, context: &str) {
    assert_eq!(a.tokens, b.tokens, "{context}: tokens");
    assert_eq!(
        a.point.qor.to_bits(),
        b.point.qor.to_bits(),
        "{context}: qor"
    );
    assert_eq!(a.point.area, b.point.area, "{context}: area");
    assert_eq!(a.point.delay, b.point.delay, "{context}: delay");
}

#[test]
fn every_method_cancelled_after_k_evaluations_keeps_an_exact_prefix() {
    let aig = circuit();
    for method in Method::ALL {
        for threads in [1, 2] {
            let full = clean_run(method, threads, &aig);
            let budget = spec(method, threads).budget;
            assert_eq!(full.history.len(), budget, "{method}: clean run");
            let first = &full.history[0].tokens;
            for k in [1, 2, 5, budget - 1, budget] {
                let context = format!("{method}, {threads} threads, cancel after {k}");
                let (result, first_resolved) = run_wrapped(method, threads, &aig, k, None, first);
                let Some(result) = result else {
                    assert!(
                        !first_resolved,
                        "{context}: None after an evaluation resolved"
                    );
                    continue;
                };
                assert!(result.history.len() <= budget, "{context}: over budget");
                for (i, (got, want)) in result.history.iter().zip(&full.history).enumerate() {
                    assert_same_record(got, want, &format!("{context}, eval {i}"));
                }
                let expected = if result.history.len() < budget {
                    Termination::Cancelled
                } else {
                    Termination::BudgetExhausted
                };
                assert_eq!(result.termination, expected, "{context}");
            }
        }
    }
}

#[test]
fn every_method_quarantines_one_panicking_sequence_and_spends_its_budget() {
    let aig = circuit();
    for method in Method::ALL {
        for threads in [1, 2] {
            let clean = clean_run(method, threads, &aig);
            // The fourth evaluation: inside the first batch of every
            // batched method (the BO design holds four at this budget);
            // the RL methods propose it from three clean episodes.
            let poison = clean.history[3].tokens.clone();
            let context = format!("{method}, {threads} threads");
            let (faulted, _) =
                run_wrapped(method, threads, &aig, usize::MAX, Some(poison.clone()), &[]);
            let faulted = faulted.expect("an uncontrolled run evaluates");
            assert_eq!(faulted.history.len(), clean.history.len(), "{context}");
            assert_eq!(
                faulted.termination,
                Termination::BudgetExhausted,
                "{context}"
            );
            assert!(!faulted.quarantined.is_empty(), "{context}: no quarantine");
            assert!(
                faulted.quarantined.iter().all(|q| *q == poison),
                "{context}: {:?}",
                faulted.quarantined
            );
            for record in &faulted.history {
                if record.point.is_quarantined() {
                    assert_eq!(record.tokens, poison, "{context}: a stray sentinel");
                }
            }
            let first = faulted
                .history
                .iter()
                .position(|r| r.tokens == poison)
                .expect("the poisoned sequence is evaluated");
            assert!(faulted.history[first].point.is_quarantined(), "{context}");
            for (i, (got, want)) in faulted.history[..first]
                .iter()
                .zip(&clean.history)
                .enumerate()
            {
                assert_same_record(got, want, &format!("{context}, eval {i}"));
            }
        }
    }
}
