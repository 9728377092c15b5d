//! A uniform interface over every optimiser in the paper's comparison.

use crate::{
    genetic_algorithm, greedy_controlled, random_search_controlled, reinforcement_learning,
    GaConfig, RlAlgorithm, RlConfig, RlFeatures, RolloutCircuit,
};
use boils_core::{
    Boils, BoilsConfig, OptimizationResult, RunBoilsError, RunControl, Sbo, SboConfig,
    SequenceObjective, SequenceSpace, WarmStart,
};
use boils_gp::TrainConfig;

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

    /// [`Method::from_id`] with a one-line diagnostic listing the valid
    /// ids — the shared validation used by both the experiment CLI and
    /// the daemon's job decoder.
    ///
    /// # Errors
    ///
    /// Returns a message naming every known id for unknown input.
    pub fn parse(id: &str) -> Result<Method, String> {
        Method::from_id(id).ok_or_else(|| {
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

    /// Runs the method under `spec` against an objective, spending
    /// black-box evaluations through the shared engine.
    ///
    /// Every method uses the same [`SequenceObjective`] and produces the
    /// same trace format, and each trajectory is thread-count invariant. A
    /// cancel or deadline on `control` stops the method at the next
    /// evaluation boundary and returns best-so-far (an exact prefix of the
    /// uncancelled trajectory); `None` only when the control fired before
    /// a single evaluation completed.
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
                    ..RlConfig::default()
                },
                control,
            )
        };
        let bo = |outcome: Result<OptimizationResult, RunBoilsError>| match outcome {
            Ok(result) => Some(result),
            Err(RunBoilsError::Interrupted(_)) => None,
            Err(err) => panic!("{self} run failed: {err}"),
        };
        let train = TrainConfig {
            steps: 10,
            ..TrainConfig::default()
        };
        match self {
            Method::Rs => {
                random_search_controlled(objective, space, budget, seed, threads, control)
            }
            Method::Greedy => greedy_controlled(objective, space, budget, threads, control),
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
            Method::Sbo => bo(Sbo::new(SboConfig {
                max_evaluations: budget,
                initial_samples: initial_design(budget),
                space,
                seed,
                threads,
                batch_size: spec.batch_size,
                surrogate_window: spec.surrogate_window,
                multi_objective: spec.multi_objective,
                train,
                ..SboConfig::default()
            })
            .run_with_control(objective, control)),
            Method::Boils => bo(Boils::new(BoilsConfig {
                max_evaluations: budget,
                initial_samples: initial_design(budget),
                space,
                seed,
                threads,
                batch_size: spec.batch_size,
                surrogate_window: spec.surrogate_window,
                multi_objective: spec.multi_objective,
                warm_start: spec.warm_start.clone(),
                train,
                ..BoilsConfig::default()
            })
            .run_with_control(objective, control)),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Initial design size: 20% of the budget, at least 4.
fn initial_design(budget: usize) -> usize {
    (budget / 5).clamp(4, budget.saturating_sub(1).max(1))
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
    fn ids_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::from_id(m.id()), Some(m));
        }
        assert_eq!(Method::from_id("nope"), None);
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
