//! Optimisation traces shared by BOiLS, SBO and every baseline.

use boils_gp::SurrogateDiagnostics;

use crate::control::StopReason;
use crate::qor::QorPoint;
use crate::space::SequenceSpace;

/// Why an optimisation run ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Termination {
    /// The full evaluation budget was spent — the normal outcome.
    #[default]
    BudgetExhausted,
    /// [`RunControl::cancel`](crate::RunControl::cancel) fired mid-run;
    /// the result holds the best-so-far prefix of the trajectory.
    Cancelled,
    /// The run's wall-clock deadline passed mid-run.
    DeadlineExceeded,
}

impl From<StopReason> for Termination {
    fn from(reason: StopReason) -> Termination {
        match reason {
            StopReason::Cancelled => Termination::Cancelled,
            StopReason::DeadlineExceeded => Termination::DeadlineExceeded,
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Termination::BudgetExhausted => "budget-exhausted",
            Termination::Cancelled => "cancelled",
            Termination::DeadlineExceeded => "deadline-exceeded",
        })
    }
}

/// One black-box evaluation in an optimisation run.
#[derive(Clone, Debug)]
pub struct EvalRecord {
    /// The evaluated token sequence.
    pub tokens: Vec<u8>,
    /// Its quality of results.
    pub point: QorPoint,
}

/// The outcome of an optimisation run.
#[derive(Clone, Debug)]
pub struct OptimizationResult {
    /// The best sequence found (token-encoded).
    pub best_tokens: Vec<u8>,
    /// Its QoR/area/delay.
    pub best_point: QorPoint,
    /// The best sequence rendered with the paper's two-letter codes.
    pub best_sequence: String,
    /// The full evaluation trace, in evaluation order.
    pub history: Vec<EvalRecord>,
    /// The best QoR value after the optimiser's own run.
    pub best_qor: f64,
    /// Why the run ended. An interrupted run's `history` is an exact
    /// prefix of what the uncancelled run would have produced.
    pub termination: Termination,
    /// Sequences whose evaluation panicked and was quarantined: the
    /// history holds [`QorPoint::quarantined`](crate::QorPoint) sentinels
    /// in their place instead of the run aborting.
    pub quarantined: Vec<Vec<u8>>,
    /// The nondominated archive over the evaluated `(area, delay)` points:
    /// every history entry not dominated by any other (quarantined
    /// sentinels excluded), in evaluation order. Always maintained — in
    /// multi-objective mode it is the optimised front; in scalar mode it
    /// reports the trade-off the run explored for free.
    pub pareto_front: Vec<EvalRecord>,
    /// The active cost function's name (`"qor"` unless reconfigured).
    pub objective: String,
    /// The BO loop's surrogate lifecycle counters (mirrors
    /// [`RunDiagnostics::surrogate`](crate::RunDiagnostics)); `None` for
    /// methods without a surrogate.
    pub surrogate: Option<SurrogateDiagnostics>,
}

/// Whether point `a` Pareto-dominates point `b` on `(area, delay)`.
fn dominates(a: &QorPoint, b: &QorPoint) -> bool {
    boils_gp::dominates(
        &[a.area as f64, f64::from(a.delay)],
        &[b.area as f64, f64::from(b.delay)],
    )
}

/// The nondominated subset of a history on `(area, delay)`, in evaluation
/// order, excluding quarantined sentinels and duplicate objective points
/// (the first occurrence represents its equivalence class).
fn pareto_front(history: &[EvalRecord]) -> Vec<EvalRecord> {
    let mut front: Vec<EvalRecord> = Vec::new();
    for record in history {
        if record.point.is_quarantined() {
            continue;
        }
        if front.iter().any(|kept| {
            dominates(&kept.point, &record.point)
                || (kept.point.area, kept.point.delay) == (record.point.area, record.point.delay)
        }) {
            continue;
        }
        front.retain(|kept| !dominates(&record.point, &kept.point));
        front.push(record.clone());
    }
    front
}

impl OptimizationResult {
    /// Assembles a result from a (possibly interrupted) evaluation trace
    /// and the sequences it quarantined.
    ///
    /// The best point is the lowest-cost record that is not a quarantine
    /// sentinel, whenever one exists: under an unnormalised objective
    /// (`lut`) real costs can exceed [`QUARANTINE_QOR`](crate::QUARANTINE_QOR).
    /// A record counts as quarantined when its sequence is listed and it
    /// holds the sentinel point, so a listed sequence that later evaluated
    /// cleanly keeps its real record, and a real cost equal to the
    /// sentinel's is never mistaken for one.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty — an interrupted run with no
    /// completed evaluation has no result to assemble (the optimisers
    /// report that case as an error instead).
    pub fn from_history_terminated(
        space: &SequenceSpace,
        history: Vec<EvalRecord>,
        termination: Termination,
        quarantined: Vec<Vec<u8>>,
    ) -> OptimizationResult {
        assert!(!history.is_empty(), "optimiser produced no evaluations");
        let sentinel =
            |r: &EvalRecord| r.point == QorPoint::quarantined() && quarantined.contains(&r.tokens);
        let best = history
            .iter()
            .min_by(|a, b| {
                (sentinel(a), a.point.qor)
                    .partial_cmp(&(sentinel(b), b.point.qor))
                    .expect("QoR values are finite")
            })
            .expect("non-empty history");
        OptimizationResult {
            best_tokens: best.tokens.clone(),
            best_point: best.point,
            best_sequence: space.display(&best.tokens),
            best_qor: best.point.qor,
            pareto_front: pareto_front(&history),
            history,
            termination,
            quarantined,
            objective: String::from("qor"),
            surrogate: None,
        }
    }

    /// The running best QoR after each evaluation (for convergence plots —
    /// the paper's Figure 3 middle row).
    pub fn best_so_far(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.history
            .iter()
            .map(|r| {
                best = best.min(r.point.qor);
                best
            })
            .collect()
    }

    /// Number of evaluations this run spent.
    pub fn num_evaluations(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tokens: Vec<u8>, qor: f64) -> EvalRecord {
        EvalRecord {
            tokens,
            point: QorPoint {
                qor,
                area: 1,
                delay: 1,
            },
        }
    }

    #[test]
    fn picks_the_minimum_qor() {
        let space = SequenceSpace::new(2, 11);
        let result = OptimizationResult::from_history_terminated(
            &space,
            vec![
                record(vec![0, 0], 2.0),
                record(vec![1, 2], 1.4),
                record(vec![3, 3], 1.8),
            ],
            Termination::BudgetExhausted,
            Vec::new(),
        );
        assert_eq!(result.best_tokens, vec![1, 2]);
        assert_eq!(result.best_qor, 1.4);
        assert_eq!(result.best_so_far(), vec![2.0, 1.4, 1.4]);
        assert_eq!(result.num_evaluations(), 3);
        assert_eq!(result.termination, Termination::BudgetExhausted);
        assert!(result.quarantined.is_empty());
    }

    fn point_record(tokens: Vec<u8>, area: usize, delay: u32) -> EvalRecord {
        EvalRecord {
            tokens,
            point: QorPoint {
                qor: area as f64 + delay as f64,
                area,
                delay,
            },
        }
    }

    #[test]
    fn pareto_front_keeps_exactly_the_nondominated_points() {
        let space = SequenceSpace::new(2, 11);
        // The quarantine sentinel has area 0, delay 0 — it would dominate
        // everything if it were not excluded.
        let quarantined_best = EvalRecord {
            tokens: vec![9, 9],
            point: QorPoint::quarantined(),
        };
        let result = OptimizationResult::from_history_terminated(
            &space,
            vec![
                point_record(vec![0, 0], 40, 14), // on the front
                point_record(vec![1, 1], 43, 15), // dominated by [0,0]
                point_record(vec![2, 2], 38, 16), // on the front
                point_record(vec![3, 3], 40, 14), // duplicate of [0,0]
                quarantined_best,
                point_record(vec![4, 4], 39, 14), // dominates [0,0]
            ],
            Termination::BudgetExhausted,
            Vec::new(),
        );
        let front: Vec<&[u8]> = result
            .pareto_front
            .iter()
            .map(|r| r.tokens.as_slice())
            .collect();
        assert_eq!(front, vec![&[2u8, 2][..], &[4u8, 4][..]]);
        assert_eq!(result.objective, "qor");
        // No archived point is dominated by any evaluated point.
        for kept in &result.pareto_front {
            for seen in &result.history {
                if seen.point.is_quarantined() {
                    continue;
                }
                assert!(
                    !dominates(&seen.point, &kept.point),
                    "{:?} dominates archived {:?}",
                    seen.tokens,
                    kept.tokens
                );
            }
        }
    }

    #[test]
    fn terminated_constructor_records_the_reason() {
        let space = SequenceSpace::new(2, 11);
        let result = OptimizationResult::from_history_terminated(
            &space,
            vec![record(vec![0, 0], 2.0)],
            Termination::from(StopReason::DeadlineExceeded),
            Vec::new(),
        );
        assert_eq!(result.termination, Termination::DeadlineExceeded);
        assert_eq!(
            Termination::from(StopReason::Cancelled),
            Termination::Cancelled
        );
        assert_eq!(Termination::default().to_string(), "budget-exhausted");
    }
}
