//! A uniform interface over every optimiser in the paper's comparison.

use std::time::Duration;

use crate::{
    genetic_algorithm, greedy, random_search_controlled, reinforcement_learning, GaConfig,
    RlAlgorithm, RlConfig, RlFeatures, RolloutCircuit,
};
use boils_core::{
    Boils, BoilsConfig, OptimizationResult, QorEvaluator, RunBoilsError, RunControl, Sbo,
    SequenceObjective, SequenceSpace, WarmStart,
};
use boils_gp::TrainConfig;

/// Largest budget a run may ask for: 500× the paper's 200 evaluations.
/// Random search draws its whole design up front, `budget × k` bytes, so
/// together with [`MAX_SEQUENCE_LENGTH`] this keeps that in megabytes.
pub const MAX_BUDGET: usize = 100_000;

/// Largest sequence length `k` a run may ask for: over 10× the paper's 20.
pub const MAX_SEQUENCE_LENGTH: usize = 256;

/// Largest thread count a front end may ask for (`--threads`, the
/// daemon's `--workers`). Batched evaluation and the daemon's worker pool
/// start every thread at once, so this bounds what one flag can start.
pub const MAX_THREADS: usize = 256;

/// The thread-count check every front end shares: `threads` from 1 to
/// [`MAX_THREADS`]; the error names `flag` (`--threads` or `--workers`).
pub fn check_threads(flag: &str, threads: usize) -> Result<usize, String> {
    if (1..=MAX_THREADS).contains(&threads) {
        return Ok(threads);
    }
    Err(format!("{flag} {threads} is outside 1..={MAX_THREADS}"))
}

/// Smallest initial design of the BO methods.
const MIN_INITIAL_DESIGN: usize = 4;

/// A run input outside [`Method::check_run`]'s bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputError {
    /// The input's daemon field name: `budget`, `k` or `deadline_secs`.
    pub field: &'static str,
    /// Why it is refused, starting with its value where it has one.
    pub reason: String,
}

impl InputError {
    /// The diagnostic naming the command-line flag (`--deadline-secs`).
    pub fn for_flag(&self) -> String {
        format!("--{} {}", self.field.replace('_', "-"), self.reason)
    }
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.field, self.reason)
    }
}

/// The shape of one optimisation run, shared by every [`Method`].
///
/// Knobs a method has no use for are ignored by it: only the BO methods
/// batch acquisitions, window their surrogate or scalarise a cost vector,
/// and only BOiLS warm-starts.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The sequence space searched.
    pub space: SequenceSpace,
    /// Black-box evaluation budget.
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// Evaluation worker threads; trajectories are thread-count invariant.
    pub threads: usize,
    /// q-EI acquisition batch size for the BO methods (constant liar; `1`
    /// is the paper's sequential protocol).
    pub batch_size: usize,
    /// Bounded-history surrogate window for the BO methods (see
    /// [`BoilsConfig::surrogate_window`]).
    pub surrogate_window: Option<usize>,
    /// ParEGO over the objective's cost vector for the BO methods (see
    /// [`BoilsConfig::multi_objective`]). Other methods still report their
    /// [`OptimizationResult::pareto_front`] archive.
    pub multi_objective: bool,
    /// Cross-circuit warm start for BOiLS (see [`BoilsConfig::warm_start`]).
    pub warm_start: Option<WarmStart>,
}

impl RunSpec {
    /// The configuration [`Method::Boils`] and [`Method::Sbo`] run under
    /// this spec (SBO ignores its warm start).
    pub fn boils_config(&self) -> BoilsConfig {
        BoilsConfig {
            max_evaluations: self.budget,
            initial_samples: initial_design(self.budget),
            space: self.space,
            seed: self.seed,
            threads: self.threads,
            batch_size: self.batch_size,
            surrogate_window: self.surrogate_window,
            multi_objective: self.multi_objective,
            warm_start: self.warm_start.clone(),
            train: TrainConfig {
                steps: 10,
                ..TrainConfig::default()
            },
            ..BoilsConfig::default()
        }
    }

    /// A single-threaded, sequential, unbounded, scalar run with no warm
    /// start.
    pub fn new(space: SequenceSpace, budget: usize, seed: u64) -> RunSpec {
        RunSpec {
            space,
            budget,
            seed,
            threads: 1,
            batch_size: 1,
            surrogate_window: None,
            multi_objective: false,
            warm_start: None,
        }
    }
}

/// Every method of the paper's evaluation (Figure 3 top row columns).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// DRiLLS with PPO updates.
    DrillsPpo,
    /// DRiLLS with A2C updates.
    DrillsA2c,
    /// Graph-feature RL.
    GraphRl,
    /// Genetic algorithm.
    Ga,
    /// Random search.
    Rs,
    /// Greedy constructor.
    Greedy,
    /// Standard Bayesian optimisation.
    Sbo,
    /// The paper's contribution.
    Boils,
}

impl Method {
    /// All methods in the paper's column order.
    pub const ALL: [Method; 8] = [
        Method::DrillsPpo,
        Method::DrillsA2c,
        Method::GraphRl,
        Method::Ga,
        Method::Rs,
        Method::Greedy,
        Method::Sbo,
        Method::Boils,
    ];

    /// The paper's column label.
    pub fn name(self) -> &'static str {
        match self {
            Method::DrillsPpo => "DRiLLS (PPO)",
            Method::DrillsA2c => "DRiLLS (A2C)",
            Method::GraphRl => "Graph-RL",
            Method::Ga => "GA",
            Method::Rs => "RS",
            Method::Greedy => "Greedy",
            Method::Sbo => "SBO",
            Method::Boils => "BOiLS",
        }
    }

    /// A file-system friendly identifier.
    pub fn id(self) -> &'static str {
        match self {
            Method::DrillsPpo => "ppo",
            Method::DrillsA2c => "a2c",
            Method::GraphRl => "graphrl",
            Method::Ga => "ga",
            Method::Rs => "rs",
            Method::Greedy => "greedy",
            Method::Sbo => "sbo",
            Method::Boils => "boils",
        }
    }

    /// Parses an identifier (as printed by [`Method::id`]).
    pub fn from_id(id: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.id() == id)
    }

    /// [`Method::from_id`] plus `rl` for `a2c`, with a one-line diagnostic
    /// listing the valid ids — the one method parser of every front end.
    ///
    /// # Errors
    ///
    /// Returns a message naming every known id for unknown input.
    pub fn parse(id: &str) -> Result<Method, String> {
        Method::from_id(if id == "rl" { "a2c" } else { id }).ok_or_else(|| {
            let known: Vec<&str> = Method::ALL.iter().map(|m| m.id()).collect();
            format!(
                "unknown method {id:?} (expected one of: {})",
                known.join(", ")
            )
        })
    }

    /// Whether this is one of the two sample-efficient BO methods (run at
    /// the smaller budget in the paper's protocol).
    pub fn is_bayesian(self) -> bool {
        matches!(self, Method::Sbo | Method::Boils)
    }

    /// The smallest budget the method runs at on `space`: a GA population,
    /// a greedy step, or a BO initial design plus one acquisition.
    pub fn min_budget(self, space: SequenceSpace) -> usize {
        match self {
            Method::Ga => crate::ga::MIN_BUDGET,
            Method::Greedy => space.alphabet(),
            Method::Sbo | Method::Boils => MIN_INITIAL_DESIGN + 1,
            Method::Rs | Method::DrillsPpo | Method::DrillsA2c | Method::GraphRl => 1,
        }
    }

    /// The run check every front end shares: `budget` from
    /// [`Method::min_budget`] to [`MAX_BUDGET`], `k` from 1 to
    /// [`MAX_SEQUENCE_LENGTH`], and a positive deadline that fits the
    /// returned [`Duration`]; the error names the first input out of bounds.
    pub fn check_run(
        self,
        budget: usize,
        k: usize,
        deadline_secs: Option<f64>,
    ) -> Result<Option<Duration>, InputError> {
        let min = self.min_budget(SequenceSpace::paper());
        let (field, reason) = if budget == 0 {
            ("budget", "takes a positive evaluation count".to_string())
        } else if budget < min {
            let id = self.id();
            (
                "budget",
                format!("{budget} is below {id}'s minimum of {min}"),
            )
        } else if budget > MAX_BUDGET {
            (
                "budget",
                format!("{budget} exceeds the limit of {MAX_BUDGET}"),
            )
        } else if k == 0 {
            ("k", "takes a positive sequence length".to_string())
        } else if k > MAX_SEQUENCE_LENGTH {
            (
                "k",
                format!("{k} exceeds the limit of {MAX_SEQUENCE_LENGTH}"),
            )
        } else if deadline_secs.is_some_and(|secs| !secs.is_finite() || secs <= 0.0) {
            ("deadline_secs", "takes a positive duration".to_string())
        } else {
            let Some(secs) = deadline_secs else {
                return Ok(None);
            };
            match Duration::try_from_secs_f64(secs) {
                Ok(deadline) => return Ok(Some(deadline)),
                Err(_) => ("deadline_secs", format!("{secs:e} is out of range")),
            }
        };
        Err(InputError { field, reason })
    }

    /// Runs the method under `spec` against an objective, spending
    /// black-box evaluations through a [`RunLedger`](boils_core::RunLedger).
    ///
    /// Every method uses the same [`SequenceObjective`] and produces the
    /// same trace format, and each trajectory is thread-count invariant.
    /// Cancellation and quarantine follow the ledger; `None` only when
    /// nothing resolved.
    ///
    /// # Panics
    ///
    /// Panics if a BO method's surrogate cannot be fitted.
    pub fn run<O: SequenceObjective + RolloutCircuit>(
        self,
        spec: &RunSpec,
        objective: &O,
        control: &RunControl,
    ) -> Option<OptimizationResult> {
        let RunSpec {
            space,
            budget,
            seed,
            threads,
            ..
        } = *spec;
        let rl = |algorithm, features| {
            reinforcement_learning(
                objective,
                space,
                budget,
                &RlConfig {
                    algorithm,
                    features,
                    seed,
                },
                control,
            )
        };
        let bo = |outcome: Result<OptimizationResult, RunBoilsError>| match outcome {
            Ok(result) => Some(result),
            Err(RunBoilsError::Interrupted(_)) => None,
            Err(err) => panic!("{self} run failed: {err}"),
        };
        match self {
            Method::Rs => {
                random_search_controlled(objective, space, budget, seed, threads, control)
            }
            Method::Greedy => greedy(objective, space, budget, threads, control),
            Method::Ga => genetic_algorithm(
                objective,
                space,
                budget,
                &GaConfig {
                    seed,
                    threads,
                    ..GaConfig::default()
                },
                control,
            ),
            Method::DrillsPpo => rl(RlAlgorithm::Ppo, RlFeatures::Stats),
            Method::DrillsA2c => rl(RlAlgorithm::A2c, RlFeatures::Stats),
            Method::GraphRl => rl(RlAlgorithm::A2c, RlFeatures::Graph),
            Method::Sbo => bo(Sbo::new(spec.boils_config()).run(objective, control)),
            Method::Boils => {
                bo(Boils::new(spec.boils_config()).run_with_control(objective, control))
            }
        }
    }

    /// [`Method::run`], with `transfer` through `evaluator`'s store: the
    /// warm start comes from the most similar recorded circuit (see
    /// [`WarmStart::from_donor`]), and the run's history is recorded after.
    pub fn run_with_transfer(
        self,
        spec: &mut RunSpec,
        evaluator: &QorEvaluator,
        control: &RunControl,
        transfer: bool,
    ) -> Option<OptimizationResult> {
        if transfer {
            spec.warm_start = evaluator
                .transfer_donor()
                .map(|donor| WarmStart::from_donor(&donor, 3))
                .filter(|warm| !warm.is_empty());
        }
        let result = self.run(spec, evaluator, control)?;
        if transfer {
            evaluator.record_transfer_history(&result.history);
        }
        Some(result)
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Initial design size: 20% of the budget, at least [`MIN_INITIAL_DESIGN`].
fn initial_design(budget: usize) -> usize {
    (budget / 5).clamp(MIN_INITIAL_DESIGN, budget.saturating_sub(1).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;

    fn run(m: Method, spec: &RunSpec, evaluator: &boils_core::QorEvaluator) -> OptimizationResult {
        m.run(spec, evaluator, &RunControl::new())
            .expect("uncontrolled run completes")
    }

    #[test]
    fn thread_counts_are_bounded_on_both_sides() {
        for threads in [1, MAX_THREADS] {
            assert_eq!(check_threads("--threads", threads), Ok(threads));
        }
        for threads in [0, MAX_THREADS + 1, usize::MAX] {
            assert_eq!(
                check_threads("--workers", threads),
                Err(format!("--workers {threads} is outside 1..=256"))
            );
        }
    }

    #[test]
    fn ids_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::from_id(m.id()), Some(m));
        }
        assert_eq!(Method::from_id("nope"), None);
    }

    #[test]
    fn rl_parses_as_a2c() {
        assert_eq!(Method::parse("rl"), Ok(Method::DrillsA2c));
        assert_eq!(Method::from_id("rl"), None);
    }

    #[test]
    fn every_method_runs_at_its_minimum_budget_and_the_check_refuses_one_less() {
        let evaluator = boils_core::QorEvaluator::new(&random_aig(61, 8, 250, 3)).expect("ok");
        let space = SequenceSpace::new(4, 11);
        for m in Method::ALL {
            let min = m.min_budget(space);
            assert_eq!(m.check_run(min, space.length(), None), Ok(None), "{m}");
            let r = run(m, &RunSpec::new(space, min, 0), &evaluator);
            assert_eq!(r.num_evaluations(), min, "{m}");
            let refused = m
                .check_run(min - 1, space.length(), None)
                .expect_err("below");
            assert_eq!(refused.field, "budget", "{m}");
            // The method itself cannot run one evaluation less, so the
            // minimum cannot drift from the code that asserts it.
            let below = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.run(
                    &RunSpec::new(space, min - 1, 0),
                    &evaluator,
                    &RunControl::new(),
                )
            }));
            assert!(below.is_err(), "{m} ran at {} evaluations", min - 1);
        }
    }

    #[test]
    fn every_method_respects_the_budget() {
        let evaluator = boils_core::QorEvaluator::new(&random_aig(61, 8, 250, 3)).expect("ok");
        let space = SequenceSpace::new(4, 11);
        for m in Method::ALL {
            let budget = if m == Method::Greedy { 22 } else { 12 };
            let r = run(m, &RunSpec::new(space, budget, 0), &evaluator);
            assert_eq!(r.num_evaluations(), budget, "{m}");
        }
    }

    #[test]
    fn batched_bo_methods_respect_the_budget() {
        let evaluator = boils_core::QorEvaluator::new(&random_aig(61, 8, 250, 3)).expect("ok");
        let space = SequenceSpace::new(4, 11);
        for m in [Method::Sbo, Method::Boils] {
            let spec = RunSpec {
                threads: 2,
                batch_size: 4,
                ..RunSpec::new(space, 13, 0)
            };
            let r = run(m, &spec, &evaluator);
            assert_eq!(r.num_evaluations(), 13, "{m}");
        }
    }

    #[test]
    fn windowed_bo_methods_respect_the_budget() {
        let evaluator = boils_core::QorEvaluator::new(&random_aig(61, 8, 250, 3)).expect("ok");
        let space = SequenceSpace::new(4, 11);
        for m in [Method::Sbo, Method::Boils] {
            let spec = RunSpec {
                surrogate_window: Some(5),
                ..RunSpec::new(space, 14, 0)
            };
            let r = run(m, &spec, &evaluator);
            assert_eq!(r.num_evaluations(), 14, "{m}");
        }
    }

    #[test]
    fn every_method_is_thread_count_invariant() {
        let aig = random_aig(61, 8, 250, 3);
        let space = SequenceSpace::new(4, 11);
        for m in Method::ALL {
            let budget = if m == Method::Greedy { 22 } else { 12 };
            let serial = boils_core::QorEvaluator::new(&aig).expect("ok");
            let parallel = boils_core::QorEvaluator::new(&aig).expect("ok");
            let spec = RunSpec::new(space, budget, 1);
            let a = run(m, &spec, &serial);
            let b = run(m, &RunSpec { threads: 8, ..spec }, &parallel);
            assert_eq!(a.best_tokens, b.best_tokens, "{m}");
            assert_eq!(a.best_qor, b.best_qor, "{m}");
            assert_eq!(
                serial.num_evaluations(),
                parallel.num_evaluations(),
                "{m}: unique-evaluation accounting drifted with threads"
            );
        }
    }
}
