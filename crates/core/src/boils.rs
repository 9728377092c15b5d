//! BOiLS — Algorithm 2 of the paper: a Gaussian process with the
//! sub-sequence string kernel models `−QoR(seq)`, and expected improvement
//! is maximised by local search inside an adaptive Hamming trust region
//! centred on the incumbent.

use boils_gp::{NotPositiveDefiniteError, SskKernel, SurrogateDiagnostics, TrainConfig};
use rand::Rng;

use crate::bo::BoLoop;
use crate::control::{RunControl, StopReason};
use crate::eval::SequenceObjective;
use crate::result::{OptimizationResult, Termination};
use crate::space::SequenceSpace;

/// Random resamples the freshness guard tries before falling back to the
/// deterministic lexicographic sweep.
const RESAMPLE_GUARD: usize = 32;

/// The acquisition function used in line 8 of Algorithm 2.
///
/// The paper adopts expected improvement "although other options are
/// possible" (Section III-A2); UCB is provided as one of those options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Acquisition {
    /// Expected improvement over the incumbent (the paper's choice).
    ExpectedImprovement,
    /// Upper confidence bound `μ + β·σ`.
    UpperConfidenceBound {
        /// The exploration coefficient β.
        beta: f64,
    },
}

/// Opt-in cross-circuit warm start: the recorded history of a *similar*
/// circuit (picked by [`CircuitFeatures`](boils_aig::CircuitFeatures)
/// similarity, typically via
/// [`PersistentPrefixStore::transfer_donor`](crate::PersistentPrefixStore::transfer_donor))
/// biases where this run's search starts.
///
/// Two channels, both exactness-preserving:
///
/// * [`seeds`](WarmStart::seeds) replace initial-design rows
///   *positionally* — the Latin hypercube is drawn first and donor
///   sequences overwrite its leading rows, so the RNG consumes exactly
///   the draws it would have without any warm start, and every seed is
///   **re-evaluated on the target circuit** (its recorded donor cost is
///   never trusted as a value).
/// * [`observations`](WarmStart::observations) are donor `(tokens, QoR)`
///   pairs injected into the GP via
///   [`Surrogate::seed`](boils_gp::Surrogate::seed) — prior shape only,
///   never entering the history, the incumbent, or the result. Only the
///   scalar loop reads them: they carry no cost vector for ParEGO.
///
/// `warm_start: None` (the default) is bit-identical to a build without
/// the feature.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WarmStart {
    /// Donor sequences injected into the initial design (best-first). At
    /// most half the design (rounded up) is replaced, so the LHS keeps
    /// exploring; invalid and duplicate sequences are skipped.
    pub seeds: Vec<Vec<u8>>,
    /// Donor `(tokens, qor)` pairs seeded into the surrogate as prior
    /// observations (the optimiser models `−qor` internally).
    pub observations: Vec<(Vec<u8>, f64)>,
}

impl WarmStart {
    /// A warm start from a transfer donor's recorded history: the
    /// `max_seeds` best sequences become design seeds, the full history
    /// becomes surrogate prior observations.
    pub fn from_donor(donor: &crate::TransferDonor, max_seeds: usize) -> WarmStart {
        WarmStart {
            seeds: donor
                .observations
                .iter()
                .take(max_seeds)
                .map(|(tokens, _)| tokens.clone())
                .collect(),
            observations: donor.observations.clone(),
        }
    }

    /// Whether there is anything to transfer.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty() && self.observations.is_empty()
    }
}

/// Configuration of the BO loop, shared by [`Boils`] and
/// [`Sbo`](crate::Sbo).
///
/// The defaults mirror the paper's setting (`K = 20`, 11 actions,
/// `Nmax = 200`, trust region with the 3-success / 20-failure schedule).
/// SBO reads the same fields except the seven that only BOiLS reads
/// (`ssk_order`, `normalize_kernel`, `use_trust_region`,
/// `success_tolerance`, `fail_tolerance`, `acquisition`, `warm_start`);
/// each says so.
#[derive(Clone, Debug)]
pub struct BoilsConfig {
    /// Total black-box evaluation budget `Nmax` (including initial samples).
    pub max_evaluations: usize,
    /// Initial Latin-hypercube design size `Ninit`. The design holds at
    /// least one sequence, so `0` runs as `1`.
    pub initial_samples: usize,
    /// The sequence space `Alg^K`.
    pub space: SequenceSpace,
    /// Maximum SSK sub-sequence order ℓ. SBO ignores it.
    pub ssk_order: usize,
    /// Whether the SSK is normalised (ablation knob). SBO ignores it.
    pub normalize_kernel: bool,
    /// Whether the trust region is active (ablation knob: `false` recovers
    /// unconstrained local search, with no radius schedule and no restart
    /// evaluations). SBO ignores it: it never uses a trust region.
    pub use_trust_region: bool,
    /// Consecutive improvements before the radius grows (paper: 3). SBO
    /// ignores it.
    pub success_tolerance: usize,
    /// Consecutive non-improvements before the radius shrinks (paper: 20).
    /// SBO ignores it.
    pub fail_tolerance: usize,
    /// Random restarts of the acquisition local search.
    pub acq_restarts: usize,
    /// Maximum hill-climbing steps per restart.
    pub acq_steps: usize,
    /// Random Hamming-1 neighbours examined per step.
    pub acq_neighbors: usize,
    /// Candidates proposed and evaluated per BO iteration (`q`).
    ///
    /// `1` (the default) is the paper's fully sequential Algorithm 2:
    /// bit-identical to previous releases whenever the old and new retrain
    /// pacing coincide — i.e. `initial_samples` is a multiple of
    /// [`retrain_every`](BoilsConfig::retrain_every) and no trust-region
    /// restart or dedup-guard exhaustion fires (the retrain-cadence and
    /// dedup bugfixes intentionally change those trajectories; see
    /// `retrain_every`). Larger values
    /// propose `q` candidates per iteration with the **constant-liar**
    /// heuristic (each accepted candidate's outcome is hallucinated as the
    /// incumbent on a scratch copy of the GP, EI is re-maximised against
    /// the lied model, and the lies are discarded before the surrogate sees
    /// real data) and evaluate them as one parallel batch
    /// ([`RunLedger::evaluate`](crate::RunLedger::evaluate)).
    /// The budget is still spent as whole evaluations — the final batch
    /// shrinks to the remaining budget — and each batch advances the
    /// trust-region schedule by one step.
    pub batch_size: usize,
    /// Hyperparameters are retrained once this many evaluations accumulate
    /// since the previous retrain (restart and batch evaluations count),
    /// and always on the first iteration after the initial design. In
    /// between, the carried GP is extended by each new observation in
    /// `O(n²)` ([`boils_gp::Gp::extend`]) instead of being refitted.
    ///
    /// Earlier releases tested `history.len() % retrain_every == 0`
    /// instead, which skips retraining whenever an iteration appends more
    /// than one record and never fires at all if the initial design is not
    /// a multiple of `retrain_every` — so runs hitting those cases retrain
    /// (correctly) on different iterations than they used to.
    pub retrain_every: usize,
    /// Bounded-history surrogate: `Some(w)` keeps at most `w` observations
    /// in the GP's training set, evicting the oldest non-incumbent point
    /// by a rank-1 Cholesky downdate once the window fills — the per-step
    /// surrogate cost stops growing with the budget. The incumbent is
    /// pinned (never evicted), so expected improvement keeps the true
    /// best in-model. `None` (the default) trains on the full history,
    /// bit-identical to previous releases.
    pub surrogate_window: Option<usize>,
    /// Projected-Adam settings for kernel training (paper Eq. 4).
    pub train: TrainConfig,
    /// GP observation noise.
    pub noise: f64,
    /// The acquisition function (paper: expected improvement). SBO ignores
    /// it and always maximises expected improvement.
    pub acquisition: Acquisition,
    /// Multi-objective mode: instead of the scalar cost, optimise the
    /// objective's cost *vector* (the paper's `(area ratio, delay ratio)`
    /// pair for the built-ins) with random-weight Chebyshev scalarisations
    /// over the constant-liar batch path, judging trust-region progress by
    /// 2-D hypervolume improvement of the nondominated archive
    /// ([`OptimizationResult::pareto_front`](crate::OptimizationResult)).
    /// `false` (the default) is the paper's scalar Algorithm 2,
    /// bit-identical to previous releases.
    pub multi_objective: bool,
    /// Opt-in cross-circuit transfer (see [`WarmStart`]). `None` — the
    /// default — leaves every RNG draw, design row and surrogate
    /// observation bit-identical to a run without the feature. SBO ignores
    /// it.
    pub warm_start: Option<WarmStart>,
    /// Worker threads for batched black-box evaluations (the initial
    /// design and each q-batch). The search trajectory is thread-count
    /// invariant: the same seed yields the same best sequence and
    /// evaluation count at any setting.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BoilsConfig {
    fn default() -> Self {
        BoilsConfig {
            max_evaluations: 200,
            initial_samples: 20,
            space: SequenceSpace::paper(),
            ssk_order: 4,
            normalize_kernel: true,
            use_trust_region: true,
            success_tolerance: 3,
            fail_tolerance: 20,
            acq_restarts: 3,
            acq_steps: 10,
            acq_neighbors: 30,
            batch_size: 1,
            retrain_every: 5,
            surrogate_window: None,
            train: TrainConfig {
                steps: 15,
                ..TrainConfig::default()
            },
            noise: 1e-4,
            acquisition: Acquisition::ExpectedImprovement,
            multi_objective: false,
            warm_start: None,
            threads: 1,
            seed: 0,
        }
    }
}

/// Error from a BOiLS run.
#[derive(Debug)]
pub enum RunBoilsError {
    /// The evaluation budget cannot even cover the initial design.
    BudgetTooSmall {
        /// Configured budget.
        budget: usize,
        /// Configured initial design size.
        initial: usize,
    },
    /// The GP surrogate could not be fitted.
    SurrogateFit(NotPositiveDefiniteError),
    /// The run was cancelled (or its deadline passed) before a single
    /// evaluation completed, so there is no best-so-far to report.
    Interrupted(StopReason),
}

impl std::fmt::Display for RunBoilsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunBoilsError::BudgetTooSmall { budget, initial } => write!(
                f,
                "evaluation budget {budget} is smaller than the initial design {initial}"
            ),
            RunBoilsError::SurrogateFit(e) => write!(f, "failed to fit the GP surrogate: {e}"),
            RunBoilsError::Interrupted(reason) => write!(
                f,
                "run interrupted ({}) before any evaluation completed",
                Termination::from(*reason)
            ),
        }
    }
}

impl std::error::Error for RunBoilsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunBoilsError::SurrogateFit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NotPositiveDefiniteError> for RunBoilsError {
    fn from(e: NotPositiveDefiniteError) -> Self {
        RunBoilsError::SurrogateFit(e)
    }
}

/// Counters describing the most recent [`Boils::run`] / [`Sbo::run`](crate::Sbo::run).
///
/// Purely observational — reading them cannot change a trajectory — and
/// cheap enough to be collected unconditionally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunDiagnostics {
    /// History lengths at which kernel hyperparameters were retrained
    /// (always starts with the initial-design size: the first surrogate is
    /// trained). Mirrors [`SurrogateDiagnostics::retrains_at`].
    pub retrains_at: Vec<usize>,
    /// The surrogate subsystem's own lifecycle counters: factor extends,
    /// window-eviction downdates, and incremental updates that fell back
    /// to a full refit.
    pub surrogate: SurrogateDiagnostics,
    /// Acquisition batches proposed (BO loop iterations).
    pub batches: usize,
    /// Candidates rescued by the deterministic lexicographic sweep after
    /// `RESAMPLE_GUARD` (32) random resamples all collided with evaluated
    /// sequences.
    pub sweep_rescues: usize,
    /// Evaluations spent on already-memoised sequences. Non-zero only when
    /// the space was genuinely exhausted (every sequence evaluated).
    pub duplicate_evals: usize,
}

/// Outcome of the freshness guard around one proposed candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FreshOutcome {
    /// The acquisition's own argmax was fresh.
    Direct,
    /// A random resample (inside the trust region, if any) was fresh.
    Resampled,
    /// Random resampling kept colliding; the deterministic sweep found a
    /// fresh sequence.
    Swept,
    /// Every sequence in the space is evaluated or pending; the duplicate
    /// is returned as a last resort.
    Exhausted,
}

/// The budget guard shared by BOiLS and SBO: never spend an evaluation on a
/// sequence the objective has already memoised, or that is already pending
/// in the current batch — unless the space is genuinely exhausted.
///
/// Tries the acquisition's own `candidate` first, then up to
/// [`RESAMPLE_GUARD`] random resamples (the pre-existing behaviour), and
/// finally sweeps the space in lexicographic order from the last rejected
/// candidate ([`SequenceSpace::advance`]). The sweep is deterministic,
/// consumes no RNG draws, terminates after at most `|cache| + 1` probes
/// when a fresh sequence exists, and ignores the trust region — a fresh
/// point anywhere beats re-buying a known value. Only when the sweep wraps
/// all the way around (every one of the `alphabet^K` sequences is taken)
/// does it concede and return the duplicate.
pub(crate) fn fresh_candidate<O, R>(
    objective: &O,
    space: &SequenceSpace,
    trust_region: Option<(&[u8], usize)>,
    pending: &[Vec<u8>],
    mut candidate: Vec<u8>,
    rng: &mut R,
) -> (Vec<u8>, FreshOutcome)
where
    O: SequenceObjective + ?Sized,
    R: Rng,
{
    let taken = |tokens: &[u8]| objective.is_cached(tokens) || pending.iter().any(|p| p == tokens);
    if !taken(&candidate) {
        return (candidate, FreshOutcome::Direct);
    }
    for _ in 0..RESAMPLE_GUARD {
        candidate = match trust_region {
            Some((center, radius)) => space.sample_in_ball(center, radius.max(1), rng),
            None => space.sample(rng),
        };
        if !taken(&candidate) {
            return (candidate, FreshOutcome::Resampled);
        }
    }
    let mut cursor = candidate.clone();
    loop {
        space.advance(&mut cursor);
        if cursor == candidate {
            return (candidate, FreshOutcome::Exhausted);
        }
        if !taken(&cursor) {
            return (cursor, FreshOutcome::Swept);
        }
    }
}

/// The BOiLS optimiser (paper Algorithm 2).
///
/// ```no_run
/// use boils_circuits::{Benchmark, CircuitSpec};
/// use boils_core::{Boils, BoilsConfig, QorEvaluator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let aig = CircuitSpec::new(Benchmark::Adder).build();
/// let evaluator = QorEvaluator::new(&aig)?;
/// let mut boils = Boils::new(BoilsConfig {
///     max_evaluations: 40,
///     initial_samples: 10,
///     seed: 1,
///     ..BoilsConfig::default()
/// });
/// let result = boils.run(&evaluator)?;
/// println!(
///     "best QoR {:.4} ({:+.2}%) via {}",
///     result.best_qor,
///     result.best_point.improvement_percent(),
///     result.best_sequence
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Boils {
    config: BoilsConfig,
    diagnostics: RunDiagnostics,
}

impl Boils {
    /// Creates the optimiser.
    pub fn new(config: BoilsConfig) -> Boils {
        Boils {
            config,
            diagnostics: RunDiagnostics::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BoilsConfig {
        &self.config
    }

    /// Counters from the most recent [`Boils::run`] (empty before any run).
    pub fn diagnostics(&self) -> &RunDiagnostics {
        &self.diagnostics
    }

    /// Runs Algorithm 2 against any [`SequenceObjective`] (typically a
    /// [`QorEvaluator`](crate::QorEvaluator)).
    ///
    /// # Errors
    ///
    /// Fails if the budget is smaller than the initial design or if the GP
    /// cannot be fitted.
    pub fn run<O: SequenceObjective>(
        &mut self,
        objective: &O,
    ) -> Result<OptimizationResult, RunBoilsError> {
        self.run_with_control(objective, &RunControl::new())
    }

    /// [`Boils::run`] under a [`RunControl`], checked before every batch;
    /// cancellation and quarantine follow [`RunLedger`](crate::RunLedger).
    ///
    /// # Errors
    ///
    /// Additionally fails with [`RunBoilsError::Interrupted`] when the
    /// control fires before a single evaluation completes.
    pub fn run_with_control<O: SequenceObjective>(
        &mut self,
        objective: &O,
        control: &RunControl,
    ) -> Result<OptimizationResult, RunBoilsError> {
        let cfg = &self.config;
        let kernel = SskKernel::new(cfg.ssk_order);
        let kernel = if cfg.normalize_kernel {
            kernel
        } else {
            kernel.without_normalization()
        };
        BoLoop {
            config: cfg,
            kernel,
            trust_region: cfg.use_trust_region,
            acquisition: cfg.acquisition,
            warm_start: cfg.warm_start.as_ref(),
        }
        .run(objective, control, &mut self.diagnostics)
    }
}

/// First-improvement hill climbing on an acquisition function, optionally
/// restricted to a Hamming ball. Shared by BOiLS and SBO.
pub(crate) fn hill_climb<R: Rng>(
    space: &SequenceSpace,
    trust_region: Option<(&[u8], usize)>,
    acquisition: &dyn Fn(&Vec<u8>) -> f64,
    restarts: usize,
    steps: usize,
    neighbors: usize,
    rng: &mut R,
) -> Vec<u8> {
    let mut best: Option<(f64, Vec<u8>)> = None;
    // One scratch buffer for every neighbour probe: the inner loop used to
    // allocate a fresh candidate Vec per probe (restarts × steps ×
    // neighbors of them per BO iteration); now an accepted move just swaps
    // buffers.
    let mut scratch: Vec<u8> = Vec::with_capacity(space.length());
    for _ in 0..restarts.max(1) {
        let mut current = match trust_region {
            Some((center, radius)) => space.sample_in_ball(center, radius.max(1), rng),
            None => space.sample(rng),
        };
        let mut current_value = acquisition(&current);
        for _ in 0..steps {
            let mut improved = false;
            for _ in 0..neighbors {
                space.random_neighbor_into(&current, &mut scratch, rng);
                if let Some((center, radius)) = trust_region {
                    if space.hamming(center, &scratch) > radius {
                        continue;
                    }
                }
                let v = acquisition(&scratch);
                if v > current_value {
                    std::mem::swap(&mut current, &mut scratch);
                    current_value = v;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        if best.as_ref().is_none_or(|(v, _)| current_value > *v) {
            best = Some((current_value, current));
        }
    }
    best.expect("at least one restart").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qor::QorEvaluator;
    use boils_aig::random_aig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config(budget: usize) -> BoilsConfig {
        BoilsConfig {
            max_evaluations: budget,
            initial_samples: 6,
            space: SequenceSpace::new(6, 11),
            acq_restarts: 2,
            acq_steps: 4,
            acq_neighbors: 10,
            train: TrainConfig {
                steps: 5,
                ..TrainConfig::default()
            },
            seed: 7,
            ..BoilsConfig::default()
        }
    }

    #[test]
    fn runs_within_budget_and_returns_best() {
        let aig = random_aig(11, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("non-degenerate");
        let mut boils = Boils::new(small_config(12));
        let result = boils.run(&evaluator).expect("run succeeds");
        assert_eq!(result.num_evaluations(), 12);
        assert!(result.best_qor <= result.history[0].point.qor);
        // The best-so-far curve must be monotone non-increasing.
        let curve = result.best_so_far();
        assert!(curve.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn rejects_budget_below_initial_design() {
        let aig = random_aig(13, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("non-degenerate");
        let mut boils = Boils::new(small_config(3));
        assert!(matches!(
            boils.run(&evaluator),
            Err(RunBoilsError::BudgetTooSmall { .. })
        ));
    }

    #[test]
    fn an_empty_initial_design_still_spends_the_budget() {
        let aig = random_aig(71, 8, 300, 3);
        let config = BoilsConfig {
            initial_samples: 0,
            ..small_config(6)
        };
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let boils = Boils::new(config.clone()).run(&evaluator).expect("run");
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let sbo = crate::Sbo::new(config)
            .run(&evaluator, &RunControl::new())
            .expect("run");
        for result in [boils, sbo] {
            assert_eq!(result.num_evaluations(), 6);
            assert_eq!(result.termination, Termination::BudgetExhausted);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let aig = random_aig(17, 8, 300, 3);
        let e1 = QorEvaluator::new(&aig).expect("ok");
        let e2 = QorEvaluator::new(&aig).expect("ok");
        let r1 = Boils::new(small_config(10)).run(&e1).expect("run");
        let r2 = Boils::new(small_config(10)).run(&e2).expect("run");
        assert_eq!(r1.best_tokens, r2.best_tokens);
        assert_eq!(r1.best_qor, r2.best_qor);
    }

    #[test]
    fn pre_cancelled_control_reports_interrupted() {
        let aig = random_aig(23, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let control = RunControl::new();
        control.cancel();
        let mut boils = Boils::new(small_config(10));
        assert!(matches!(
            boils.run_with_control(&evaluator, &control),
            Err(RunBoilsError::Interrupted(StopReason::Cancelled))
        ));
        // Nothing was evaluated: the budget was never touched.
        assert_eq!(evaluator.num_evaluations(), 0);
    }

    #[test]
    fn uncontrolled_run_reports_budget_exhausted() {
        let aig = random_aig(11, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut boils = Boils::new(small_config(8));
        let result = boils.run(&evaluator).expect("run");
        assert_eq!(result.termination, Termination::BudgetExhausted);
        assert!(result.quarantined.is_empty());
    }

    #[test]
    fn multi_objective_run_maintains_a_nondominated_archive() {
        let aig = random_aig(29, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut boils = Boils::new(BoilsConfig {
            multi_objective: true,
            ..small_config(12)
        });
        let result = boils.run(&evaluator).expect("mo run");
        assert_eq!(result.num_evaluations(), 12);
        assert_eq!(result.objective, "qor");
        assert!(!result.pareto_front.is_empty());
        // Every archive entry sits in the history and is nondominated.
        for kept in &result.pareto_front {
            assert!(result.history.iter().any(|r| r.tokens == kept.tokens));
            for seen in &result.history {
                let dominates = seen.point.area <= kept.point.area
                    && seen.point.delay <= kept.point.delay
                    && (seen.point.area < kept.point.area || seen.point.delay < kept.point.delay);
                assert!(!dominates, "archived point dominated by an evaluation");
            }
        }
    }

    #[test]
    fn multi_objective_run_is_deterministic_given_seed() {
        let aig = random_aig(31, 8, 300, 3);
        let e1 = QorEvaluator::new(&aig).expect("ok");
        let e2 = QorEvaluator::new(&aig).expect("ok");
        let config = BoilsConfig {
            multi_objective: true,
            ..small_config(10)
        };
        let r1 = Boils::new(config.clone()).run(&e1).expect("run");
        let r2 = Boils::new(config).run(&e2).expect("run");
        let t1: Vec<&[u8]> = r1.history.iter().map(|r| r.tokens.as_slice()).collect();
        let t2: Vec<&[u8]> = r2.history.iter().map(|r| r.tokens.as_slice()).collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn multi_objective_run_applies_warm_start_seeds() {
        let aig = random_aig(71, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let seeds = vec![vec![9, 3, 0, 9, 1, 2], vec![3, 0, 9, 2, 1, 4]];
        let mut boils = Boils::new(BoilsConfig {
            multi_objective: true,
            warm_start: Some(WarmStart {
                seeds: seeds.clone(),
                observations: vec![(vec![2; 6], 1.5)],
            }),
            ..small_config(10)
        });
        let result = boils.run(&evaluator).expect("mo run");
        assert_eq!(result.history[0].tokens, seeds[0]);
        assert_eq!(result.history[1].tokens, seeds[1]);
        // Donor observations carry no cost vector: ParEGO leaves them out.
        assert_eq!(boils.diagnostics().surrogate.seeded, 0);
    }

    #[test]
    fn without_a_trust_region_no_restart_spends_budget() {
        // A 1-failure tolerance on a length-3 space would collapse a region
        // every three iterations; with the region off, every evaluation
        // after the design comes from an acquisition batch.
        let aig = random_aig(71, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut boils = Boils::new(BoilsConfig {
            space: SequenceSpace::new(3, 11),
            use_trust_region: false,
            fail_tolerance: 1,
            success_tolerance: 1,
            seed: 2,
            ..small_config(30)
        });
        let result = boils.run(&evaluator).expect("run");
        assert_eq!(result.history.len(), 30);
        assert_eq!(result.history.len(), 6 + boils.diagnostics().batches);
    }

    #[test]
    fn ucb_acquisition_runs_within_budget() {
        let aig = random_aig(19, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut boils = Boils::new(BoilsConfig {
            acquisition: Acquisition::UpperConfidenceBound { beta: 2.0 },
            ..small_config(10)
        });
        let r = boils.run(&evaluator).expect("run");
        assert_eq!(r.num_evaluations(), 10);
    }

    /// An objective whose memo cache claims to hold *everything* except a
    /// single needle sequence.
    struct AllButOne {
        needle: Vec<u8>,
    }

    impl crate::eval::SequenceObjective for AllButOne {
        fn evaluate_tokens(&self, tokens: &[u8]) -> crate::QorPoint {
            crate::QorPoint {
                qor: 2.0,
                area: tokens.len(),
                delay: 1,
            }
        }

        fn lookup(&self, tokens: &[u8]) -> Option<crate::QorPoint> {
            (tokens != self.needle.as_slice()).then(|| self.evaluate_tokens(tokens))
        }

        fn is_cached(&self, tokens: &[u8]) -> bool {
            tokens != self.needle.as_slice()
        }

        fn num_evaluations(&self) -> usize {
            0
        }
    }

    #[test]
    fn fresh_candidate_sweeps_to_the_only_uncached_sequence() {
        // One fresh sequence among 11^6 ≈ 1.8M: the 32 random resamples
        // cannot realistically find it, so only the deterministic
        // lexicographic sweep can — and must.
        let space = SequenceSpace::new(6, 11);
        let needle = vec![4u8, 9, 0, 2, 7, 1];
        let objective = AllButOne {
            needle: needle.clone(),
        };
        let mut rng = StdRng::seed_from_u64(8);
        let start = vec![10u8; 6];
        let (found, outcome) = fresh_candidate(&objective, &space, None, &[], start, &mut rng);
        assert_eq!(found, needle);
        assert_eq!(outcome, FreshOutcome::Swept);
    }

    #[test]
    fn fresh_candidate_reports_exhaustion_when_the_batch_holds_the_last_point() {
        // The needle is already pending in the current batch: nothing in
        // the space is available, so the guard concedes with `Exhausted`
        // and hands back the (duplicate) acquisition candidate.
        let space = SequenceSpace::new(2, 2);
        let needle = vec![1u8, 0];
        let objective = AllButOne {
            needle: needle.clone(),
        };
        let mut rng = StdRng::seed_from_u64(8);
        let pending = vec![needle];
        let (found, outcome) =
            fresh_candidate(&objective, &space, None, &pending, vec![0, 0], &mut rng);
        assert_eq!(outcome, FreshOutcome::Exhausted);
        assert!(objective.is_cached(&found) || pending.contains(&found));
    }

    #[test]
    fn fresh_candidate_accepts_a_fresh_argmax_without_touching_the_rng() {
        let space = SequenceSpace::new(6, 11);
        let needle = vec![4u8, 9, 0, 2, 7, 1];
        let objective = AllButOne {
            needle: needle.clone(),
        };
        let mut rng = StdRng::seed_from_u64(8);
        let (found, outcome) =
            fresh_candidate(&objective, &space, None, &[], needle.clone(), &mut rng);
        assert_eq!(found, needle);
        assert_eq!(outcome, FreshOutcome::Direct);
        let mut untouched = StdRng::seed_from_u64(8);
        assert_eq!(
            rng.gen_range(0..1_000_000usize),
            untouched.gen_range(0..1_000_000usize),
            "a fresh argmax must not consume RNG draws"
        );
    }

    #[test]
    fn hill_climb_finds_a_planted_optimum() {
        // Acquisition = number of zeros; optimum is the all-zero sequence.
        let space = SequenceSpace::new(8, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let acq = |t: &Vec<u8>| t.iter().filter(|&&x| x == 0).count() as f64;
        let found = hill_climb(&space, None, &acq, 4, 30, 24, &mut rng);
        assert!(
            found.iter().filter(|&&x| x == 0).count() >= 7,
            "hill climbing stalled at {found:?}"
        );
    }

    #[test]
    fn hill_climb_respects_trust_region() {
        let space = SequenceSpace::new(10, 11);
        let mut rng = StdRng::seed_from_u64(2);
        let center = vec![5u8; 10];
        let acq = |t: &Vec<u8>| t.iter().map(|&x| x as f64).sum();
        for radius in [1usize, 2, 3] {
            let found = hill_climb(&space, Some((&center, radius)), &acq, 3, 10, 20, &mut rng);
            assert!(space.hamming(&center, &found) <= radius);
        }
    }
}
