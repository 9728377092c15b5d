//! The non-learning baselines: random search (Latin hypercube, as pymoo's
//! sampler in the paper) and the greedy constructor. Both spend their
//! budget through a [`RunLedger`], so candidate batches (the whole design
//! for RS, one position's action sweep for greedy) evaluate in parallel
//! without changing the search trajectory.

use boils_core::{OptimizationResult, RunControl, RunLedger, SequenceObjective, SequenceSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random search over `Alg^K` with Latin-hypercube stratification.
///
/// The paper found RS to be "a valuable baseline" that DRL barely beats —
/// a finding our harness reproduces.
///
/// ```no_run
/// use boils_circuits::{Benchmark, CircuitSpec};
/// use boils_core::{QorEvaluator, SequenceSpace};
/// use boils_baselines::random_search;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let aig = CircuitSpec::new(Benchmark::Adder).build();
/// let evaluator = QorEvaluator::new(&aig)?;
/// let result = random_search(&evaluator, SequenceSpace::paper(), 50, 0, 4);
/// println!("best {:.4}", result.best_qor);
/// # Ok(())
/// # }
/// ```
pub fn random_search<O: SequenceObjective>(
    objective: &O,
    space: SequenceSpace,
    budget: usize,
    seed: u64,
    threads: usize,
) -> OptimizationResult {
    random_search_controlled(objective, space, budget, seed, threads, &RunControl::new())
        .expect("uncontrolled run cannot be interrupted")
}

/// [`random_search`] under a [`RunControl`]. Cancellation and quarantine
/// follow [`RunLedger`]: `None` when nothing resolved.
pub fn random_search_controlled<O: SequenceObjective>(
    objective: &O,
    space: SequenceSpace,
    budget: usize,
    seed: u64,
    threads: usize,
    control: &RunControl,
) -> Option<OptimizationResult> {
    assert!(budget >= 1, "need at least one evaluation");
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = space.latin_hypercube(budget, &mut rng);
    // The whole design is one independent batch — random search is the
    // embarrassingly parallel end of the method spectrum.
    let mut ledger = RunLedger::new(objective, threads, control);
    ledger.evaluate(&samples);
    ledger.finish(&space)
}

/// The greedy constructor: grows one sequence by appending, at each
/// position, the transform with the best immediate QoR, until the sequence
/// reaches length `K` or the evaluation budget runs out.
///
/// Each position's action sweep (11 candidate extensions) is evaluated as
/// one parallel batch; ties break toward the lowest action index, exactly
/// as the serial sweep did. The control is checked only through the
/// sweeps; cancellation and quarantine follow [`RunLedger`], and `None`
/// comes back only when nothing resolved.
pub fn greedy<O: SequenceObjective>(
    objective: &O,
    space: SequenceSpace,
    budget: usize,
    threads: usize,
    control: &RunControl,
) -> Option<OptimizationResult> {
    assert!(budget >= space.alphabet(), "budget below one greedy step");
    let mut ledger = RunLedger::new(objective, threads, control);
    let mut prefix: Vec<u8> = Vec::new();
    for _pos in 0..space.length() {
        let remaining = budget - ledger.history().len();
        let candidates: Vec<Vec<u8>> = (0..space.alphabet() as u8)
            .take(remaining)
            .map(|action| {
                let mut cand = prefix.clone();
                cand.push(action);
                cand
            })
            .collect();
        let resolved = ledger.evaluate(&candidates);
        if resolved.len() < space.alphabet() {
            // The budget ran out mid-sweep or the control interrupted it:
            // a partial comparison is not a fair greedy step, so stop
            // without extending.
            break;
        }
        let best = resolved
            .iter()
            .min_by(|a, b| a.point.qor.partial_cmp(&b.point.qor).expect("finite QoR"))
            .expect("a full sweep");
        prefix = best.tokens.clone();
    }
    ledger.finish(&space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;
    use boils_core::QorEvaluator;

    fn evaluator() -> QorEvaluator {
        QorEvaluator::new(&random_aig(31, 8, 300, 3)).expect("ok")
    }

    #[test]
    fn random_search_spends_exactly_the_budget() {
        let e = evaluator();
        let r = random_search(&e, SequenceSpace::new(5, 11), 12, 3, 1);
        assert_eq!(r.num_evaluations(), 12);
    }

    #[test]
    fn random_search_is_seeded() {
        let e1 = evaluator();
        let e2 = evaluator();
        let a = random_search(&e1, SequenceSpace::new(5, 11), 8, 9, 1);
        let b = random_search(&e2, SequenceSpace::new(5, 11), 8, 9, 1);
        assert_eq!(a.best_tokens, b.best_tokens);
    }

    #[test]
    fn random_search_is_thread_count_invariant() {
        let e1 = evaluator();
        let e2 = evaluator();
        let serial = random_search(&e1, SequenceSpace::new(5, 11), 16, 5, 1);
        let parallel = random_search(&e2, SequenceSpace::new(5, 11), 16, 5, 8);
        assert_eq!(serial.best_tokens, parallel.best_tokens);
        assert_eq!(serial.best_qor, parallel.best_qor);
        assert_eq!(e1.num_evaluations(), e2.num_evaluations());
        for (a, b) in serial.history.iter().zip(&parallel.history) {
            assert_eq!(a.tokens, b.tokens);
            assert_eq!(a.point, b.point);
        }
    }

    #[test]
    fn greedy_builds_incrementally() {
        let e = evaluator();
        let space = SequenceSpace::new(3, 11);
        let r = greedy(&e, space, 33, 1, &RunControl::new()).expect("uncontrolled run completes");
        assert_eq!(r.num_evaluations(), 33); // 3 positions × 11 actions
                                             // Greedy's best is at least as good as its first-step best.
        let first_step_best = r.history[..11]
            .iter()
            .map(|h| h.point.qor)
            .fold(f64::INFINITY, f64::min);
        assert!(r.best_qor <= first_step_best);
    }

    #[test]
    fn greedy_respects_budget_cutoff() {
        let e = evaluator();
        let r = greedy(&e, SequenceSpace::new(20, 11), 25, 1, &RunControl::new())
            .expect("uncontrolled run completes");
        assert_eq!(r.num_evaluations(), 25);
    }

    #[test]
    fn greedy_is_thread_count_invariant() {
        let e1 = evaluator();
        let e2 = evaluator();
        let space = SequenceSpace::new(4, 11);
        let serial =
            greedy(&e1, space, 44, 1, &RunControl::new()).expect("uncontrolled run completes");
        let parallel =
            greedy(&e2, space, 44, 8, &RunControl::new()).expect("uncontrolled run completes");
        assert_eq!(serial.best_tokens, parallel.best_tokens);
        assert_eq!(serial.best_qor, parallel.best_qor);
        assert_eq!(e1.num_evaluations(), e2.num_evaluations());
    }
}
