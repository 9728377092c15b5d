//! Standard Bayesian optimisation (the paper's SBO baseline): the same BO
//! loop as BOiLS, but with the squared-exponential kernel of the one-hot
//! embedding instead of the SSK, and no trust region — isolating the
//! contribution of the sequence-aware machinery.

use boils_gp::{Kernel, SurrogateConfig, TrainConfig};

use crate::bo::{BoLoop, Scalariser};
use crate::boils::{Acquisition, RunBoilsError, RunDiagnostics};
use crate::control::RunControl;
use crate::eval::SequenceObjective;
use crate::result::OptimizationResult;
use crate::space::SequenceSpace;

/// Configuration of the SBO baseline.
#[derive(Clone, Debug)]
pub struct SboConfig {
    /// Total evaluation budget.
    pub max_evaluations: usize,
    /// Initial Latin-hypercube design size.
    pub initial_samples: usize,
    /// The sequence space.
    pub space: SequenceSpace,
    /// Acquisition local-search restarts.
    pub acq_restarts: usize,
    /// Acquisition hill-climbing steps per restart.
    pub acq_steps: usize,
    /// Neighbours per hill-climbing step.
    pub acq_neighbors: usize,
    /// Candidates proposed and evaluated per BO iteration (`q`), via the
    /// constant-liar heuristic for `q > 1` — see
    /// [`BoilsConfig::batch_size`](crate::BoilsConfig::batch_size),
    /// including when the `q = 1` default reproduces earlier releases
    /// bit-for-bit (the retrain-cadence fix moves some retrains).
    pub batch_size: usize,
    /// Hyperparameters are retrained once this many evaluations accumulate
    /// since the previous retrain (batch evaluations count individually).
    pub retrain_every: usize,
    /// Bounded-history surrogate window (see
    /// [`BoilsConfig::surrogate_window`](crate::BoilsConfig)): `Some(w)`
    /// caps the GP training set at `w` observations with
    /// incumbent-pinned oldest-first eviction; `None` trains on the full
    /// history.
    pub surrogate_window: Option<usize>,
    /// Adam settings for kernel training.
    pub train: TrainConfig,
    /// GP observation noise.
    pub noise: f64,
    /// Worker threads for batched black-box evaluations; the search
    /// trajectory is thread-count invariant.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optimise the objective's cost *vector* instead of its scalar cost
    /// (see [`BoilsConfig::multi_objective`](crate::BoilsConfig)): ParEGO
    /// random-weight Chebyshev scalarisations, refitting the SE surrogate
    /// per iteration.
    pub multi_objective: bool,
}

impl Default for SboConfig {
    fn default() -> Self {
        SboConfig {
            max_evaluations: 200,
            initial_samples: 20,
            space: SequenceSpace::paper(),
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
            threads: 1,
            seed: 0,
            multi_objective: false,
        }
    }
}

/// The standard-BO baseline optimiser.
///
/// The surrogate is an SE kernel on the one-hot embedding of sequences in
/// `R^{K·n}`, computed from their Hamming distance; a single isotropic
/// lengthscale keeps hyperparameter training tractable at this
/// dimensionality (the paper's SBO uses the HEBO library \[25\]; the
/// qualitative behaviour — a competent but sequence-blind surrogate — is
/// what matters for the comparison).
#[derive(Clone, Debug)]
pub struct Sbo {
    config: SboConfig,
    diagnostics: RunDiagnostics,
}

impl Sbo {
    /// Creates the optimiser.
    pub fn new(config: SboConfig) -> Sbo {
        Sbo {
            config,
            diagnostics: RunDiagnostics::default(),
        }
    }

    /// Counters from the most recent [`Sbo::run`] (empty before any run).
    pub fn diagnostics(&self) -> &RunDiagnostics {
        &self.diagnostics
    }

    /// Runs standard BO against any [`SequenceObjective`].
    ///
    /// # Errors
    ///
    /// Fails if the GP cannot be fitted or the budget is below the initial
    /// design size.
    pub fn run<O: SequenceObjective>(
        &mut self,
        objective: &O,
    ) -> Result<OptimizationResult, RunBoilsError> {
        self.run_with_control(objective, &RunControl::new())
    }

    /// [`Sbo::run`] under a [`RunControl`] — same contract as
    /// [`Boils::run_with_control`](crate::Boils::run_with_control): an
    /// interrupted run returns best-so-far (an exact prefix of the
    /// uncancelled trajectory) with the matching [`Termination`](crate::Termination).
    ///
    /// # Errors
    ///
    /// Additionally fails with
    /// [`RunBoilsError::Interrupted`](crate::RunBoilsError) when the
    /// control fires before a single evaluation completes.
    pub fn run_with_control<O: SequenceObjective>(
        &mut self,
        objective: &O,
        control: &RunControl,
    ) -> Result<OptimizationResult, RunBoilsError> {
        let cfg = &self.config;
        BoLoop {
            kernel: isotropic_kernel(),
            region: None,
            scalariser: if cfg.multi_objective {
                Scalariser::ParEgo
            } else {
                Scalariser::Identity
            },
            surrogate: SurrogateConfig {
                noise: cfg.noise,
                retrain_every: cfg.retrain_every,
                window: cfg.surrogate_window,
                train: cfg.train.clone(),
            },
            acquisition: Acquisition::ExpectedImprovement,
            space: cfg.space,
            budget: cfg.max_evaluations,
            initial_samples: cfg.initial_samples,
            acq_restarts: cfg.acq_restarts,
            acq_steps: cfg.acq_steps,
            acq_neighbors: cfg.acq_neighbors,
            batch_size: cfg.batch_size,
            warm_start: None,
            threads: cfg.threads,
            seed: cfg.seed,
        }
        .run(objective, control, &mut self.diagnostics)
    }
}

/// The isotropic SE kernel `σ²·exp(−½·‖onehot(a) − onehot(b)‖² / ℓ²)` of
/// the one-hot embedding in `R^{K·n}`, read from the tokens: the one-hot
/// vectors differ in two coordinates per differing position, so the
/// squared distance is twice the Hamming distance. One shared lengthscale
/// keeps NLML training cheap.
#[derive(Clone, Debug)]
pub(crate) struct IsotropicSe {
    lengthscale: f64,
    variance: f64,
}

fn isotropic_kernel() -> IsotropicSe {
    IsotropicSe {
        lengthscale: 2.0,
        variance: 1.0,
    }
}

impl Kernel<Vec<u8>> for IsotropicSe {
    /// Adds `(1/ℓ)²` to `r²` twice per differing position, in position
    /// order: the nonzero terms of the one-hot sum in its own order, so
    /// every value is bit-identical to the embedding's (`2h·(1/ℓ)²` rounds
    /// differently).
    fn eval(&self, a: &Vec<u8>, b: &Vec<u8>) -> f64 {
        let d = 1.0 / self.lengthscale;
        let term = d * d;
        let mut r2 = 0.0;
        for (x, y) in a.iter().zip(b) {
            if x != y {
                r2 += term;
                r2 += term;
            }
        }
        self.variance * (-0.5 * r2).exp()
    }

    fn params(&self) -> Vec<f64> {
        vec![self.lengthscale, self.variance]
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), 2);
        self.lengthscale = params[0];
        self.variance = params[1];
    }

    fn param_bounds(&self) -> Vec<(f64, f64)> {
        vec![(1e-2, 1e2), (1e-4, 1e3)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qor::QorEvaluator;
    use crate::space::SequenceSpace;
    use boils_aig::random_aig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One-hot embedding of a token sequence into `R^{K·n}`.
    fn one_hot(tokens: &[u8], alphabet: usize) -> Vec<f64> {
        let mut out = vec![0.0; tokens.len() * alphabet];
        for (i, &t) in tokens.iter().enumerate() {
            out[i * alphabet + t as usize] = 1.0;
        }
        out
    }

    /// [`IsotropicSe`] by its definition, summed over every one-hot
    /// coordinate: the bit-exact reference for the token path.
    fn one_hot_kernel(k: &IsotropicSe, a: &[f64], b: &[f64]) -> f64 {
        let r2: f64 = a
            .iter()
            .zip(b)
            .map(|(x, y)| {
                let d = (x - y) / k.lengthscale;
                d * d
            })
            .sum();
        k.variance * (-0.5 * r2).exp()
    }

    #[test]
    fn one_hot_embedding_shape() {
        let x = one_hot(&[0, 2, 1], 3);
        assert_eq!(x.len(), 9);
        assert_eq!(x, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn token_kernel_is_bit_identical_to_the_one_hot_kernel() {
        let mut rng = StdRng::seed_from_u64(17);
        // Each hyperparameter sits on one of its box bounds half the time,
        // else log-uniform inside the box.
        let draw = |rng: &mut StdRng, (lo, hi): (f64, f64)| match rng.gen_range(0..4u8) {
            0 => lo,
            1 => hi,
            _ => (lo.ln() + (hi.ln() - lo.ln()) * rng.gen::<f64>()).exp(),
        };
        let mut kernel = isotropic_kernel();
        let bounds = kernel.param_bounds();
        for case in 0..20_000 {
            let len = rng.gen_range(1..=24usize);
            let alphabet = rng.gen_range(1..=12u8);
            let a: Vec<u8> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
            // Half the pairs are near neighbours, so small Hamming
            // distances are as common as large ones.
            let b: Vec<u8> = if rng.gen_bool(0.5) {
                (0..len).map(|_| rng.gen_range(0..alphabet)).collect()
            } else {
                let mut b = a.clone();
                for _ in 0..rng.gen_range(0..=3u8) {
                    b[rng.gen_range(0..len)] = rng.gen_range(0..alphabet);
                }
                b
            };
            kernel.set_params(&[draw(&mut rng, bounds[0]), draw(&mut rng, bounds[1])]);
            let n = usize::from(alphabet);
            let reference = one_hot_kernel(&kernel, &one_hot(&a, n), &one_hot(&b, n));
            assert_eq!(
                kernel.eval(&a, &b).to_bits(),
                reference.to_bits(),
                "case {case}: a={a:?} b={b:?} params={:?}",
                kernel.params()
            );
        }
    }

    #[test]
    fn sbo_runs_within_budget() {
        let aig = random_aig(23, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut sbo = Sbo::new(SboConfig {
            max_evaluations: 10,
            initial_samples: 5,
            space: SequenceSpace::new(5, 11),
            acq_restarts: 2,
            acq_steps: 3,
            acq_neighbors: 8,
            train: TrainConfig {
                steps: 4,
                ..TrainConfig::default()
            },
            seed: 3,
            ..SboConfig::default()
        });
        let result = sbo.run(&evaluator).expect("run");
        assert_eq!(result.num_evaluations(), 10);
        let curve = result.best_so_far();
        assert!(curve.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn sbo_multi_objective_runs_and_archives_the_front() {
        let aig = random_aig(37, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut sbo = Sbo::new(SboConfig {
            max_evaluations: 9,
            initial_samples: 5,
            space: SequenceSpace::new(5, 11),
            acq_restarts: 2,
            acq_steps: 3,
            acq_neighbors: 8,
            multi_objective: true,
            seed: 3,
            ..SboConfig::default()
        });
        let result = sbo.run(&evaluator).expect("mo run");
        assert_eq!(result.num_evaluations(), 9);
        assert_eq!(result.objective, "qor");
        assert!(!result.pareto_front.is_empty());
    }
}
