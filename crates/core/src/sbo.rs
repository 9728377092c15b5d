//! Standard Bayesian optimisation (the paper's SBO baseline): the same BO
//! loop as BOiLS, but with the squared-exponential kernel of the one-hot
//! embedding instead of the SSK, and no trust region — isolating the
//! contribution of the sequence-aware machinery.

use boils_gp::Kernel;

use crate::bo::BoLoop;
use crate::boils::{Acquisition, BoilsConfig, RunBoilsError, RunDiagnostics};
use crate::control::RunControl;
use crate::eval::SequenceObjective;
use crate::result::OptimizationResult;

/// The standard-BO baseline optimiser.
///
/// The surrogate is an SE kernel on the one-hot embedding of sequences in
/// `R^{K·n}`, computed from their Hamming distance; a single isotropic
/// lengthscale keeps hyperparameter training tractable at this
/// dimensionality (the paper's SBO uses the HEBO library \[25\]; the
/// qualitative behaviour — a competent but sequence-blind surrogate — is
/// what matters for the comparison). It runs the BO loop under a
/// [`BoilsConfig`], maximising expected improvement over the whole space:
/// the fields only BOiLS reads (the SSK's, the trust region's, the
/// acquisition and the warm start) are ignored.
#[derive(Clone, Debug)]
pub struct Sbo {
    config: BoilsConfig,
    diagnostics: RunDiagnostics,
}

impl Sbo {
    /// Creates the optimiser.
    pub fn new(config: BoilsConfig) -> Sbo {
        Sbo {
            config,
            diagnostics: RunDiagnostics::default(),
        }
    }

    /// Counters from the most recent [`Sbo::run`] (empty before any run).
    pub fn diagnostics(&self) -> &RunDiagnostics {
        &self.diagnostics
    }

    /// Runs standard BO against any [`SequenceObjective`] under a
    /// [`RunControl`] — same contract as
    /// [`Boils::run_with_control`](crate::Boils::run_with_control): an
    /// interrupted run returns best-so-far (an exact prefix of the
    /// uncancelled trajectory) with the matching [`Termination`](crate::Termination).
    ///
    /// # Errors
    ///
    /// Fails if the GP cannot be fitted or the budget is below the initial
    /// design size, and with [`RunBoilsError::Interrupted`] when the
    /// control fires before a single evaluation completes.
    pub fn run<O: SequenceObjective>(
        &mut self,
        objective: &O,
        control: &RunControl,
    ) -> Result<OptimizationResult, RunBoilsError> {
        BoLoop {
            config: &self.config,
            kernel: isotropic_kernel(),
            trust_region: false,
            acquisition: Acquisition::ExpectedImprovement,
            warm_start: None,
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
    use crate::boils::WarmStart;
    use crate::qor::QorEvaluator;
    use crate::space::SequenceSpace;
    use boils_aig::random_aig;
    use boils_gp::TrainConfig;
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
        let mut sbo = Sbo::new(BoilsConfig {
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
            ..BoilsConfig::default()
        });
        let result = sbo.run(&evaluator, &RunControl::new()).expect("run");
        assert_eq!(result.num_evaluations(), 10);
        let curve = result.best_so_far();
        assert!(curve.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn sbo_multi_objective_runs_and_archives_the_front() {
        let aig = random_aig(37, 8, 300, 3);
        let evaluator = QorEvaluator::new(&aig).expect("ok");
        let mut sbo = Sbo::new(BoilsConfig {
            max_evaluations: 9,
            initial_samples: 5,
            space: SequenceSpace::new(5, 11),
            acq_restarts: 2,
            acq_steps: 3,
            acq_neighbors: 8,
            multi_objective: true,
            seed: 3,
            ..BoilsConfig::default()
        });
        let result = sbo.run(&evaluator, &RunControl::new()).expect("mo run");
        assert_eq!(result.num_evaluations(), 9);
        assert_eq!(result.objective, "qor");
        assert!(!result.pareto_front.is_empty());
    }

    #[test]
    fn sbo_reads_only_the_fields_it_shares_with_boils() {
        let aig = random_aig(41, 8, 300, 3);
        let shared = BoilsConfig {
            max_evaluations: 12,
            initial_samples: 5,
            space: SequenceSpace::new(5, 11),
            acq_restarts: 2,
            acq_steps: 3,
            acq_neighbors: 8,
            train: TrainConfig {
                steps: 4,
                ..TrainConfig::default()
            },
            seed: 5,
            ..BoilsConfig::default()
        };
        // Every field only BOiLS reads, moved off its default.
        let boils_only = BoilsConfig {
            ssk_order: 2,
            normalize_kernel: false,
            use_trust_region: false,
            success_tolerance: 1,
            fail_tolerance: 1,
            acquisition: Acquisition::UpperConfidenceBound { beta: 2.0 },
            warm_start: Some(WarmStart {
                seeds: vec![vec![1, 2, 3, 4, 5], vec![6, 7, 8, 9, 10]],
                observations: vec![(vec![10, 9, 8, 7, 6], 1.5)],
            }),
            ..shared.clone()
        };
        let run = |config| {
            let evaluator = QorEvaluator::new(&aig).expect("ok");
            Sbo::new(config)
                .run(&evaluator, &RunControl::new())
                .expect("run")
        };
        let (a, b) = (run(shared), run(boils_only));
        assert_eq!(a.history.len(), 12);
        assert_eq!(a.history.len(), b.history.len());
        for (i, (x, y)) in a.history.iter().zip(&b.history).enumerate() {
            assert_eq!(x.tokens, y.tokens, "tokens diverge at evaluation {i}");
            assert_eq!(
                x.point.qor.to_bits(),
                y.point.qor.to_bits(),
                "QoR diverges at evaluation {i}"
            );
        }
        assert!(a.surrogate.is_some());
        assert_eq!(a.surrogate, b.surrogate);
    }
}
