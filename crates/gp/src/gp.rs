//! Exact Gaussian-process regression with marginal-likelihood
//! hyperparameter training by projected Adam (paper Eq. 4 and the
//! `θ ← Proj_{[0,1]²}(θ − η∇J)` update of Section III-B1).

use rand::Rng;

use crate::kernel::Kernel;
use crate::linalg::{Cholesky, Matrix, NotPositiveDefiniteError};

/// Configuration for [`Gp::fit_with_adam`].
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of Adam steps.
    pub steps: usize,
    /// Adam step size η.
    pub learning_rate: f64,
    /// Adam first-moment decay.
    pub beta1: f64,
    /// Adam second-moment decay.
    pub beta2: f64,
    /// Finite-difference step for ∇J(θ).
    pub fd_epsilon: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            steps: 30,
            learning_rate: 0.05,
            beta1: 0.9,
            beta2: 0.999,
            fd_epsilon: 1e-4,
        }
    }
}

/// A fitted Gaussian process.
///
/// Targets are standardised internally; predictions are reported on the
/// original scale.
///
/// ```
/// use boils_gp::{Gp, SquaredExponential};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let xs: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 0.9).sin()).collect();
/// let gp = Gp::fit(SquaredExponential::new(1), xs, ys, 1e-6)?;
/// let (mean, var) = gp.predict(&vec![3.5]);
/// assert!((mean - (3.5f64 * 0.9).sin()).abs() < 0.1);
/// assert!(var >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Gp<K, X> {
    kernel: K,
    noise: f64,
    x: Vec<X>,
    /// Per-input [`Kernel::self_info`] summaries, aligned with `x` — cached
    /// once at fit time so the prediction hot path (thousands of
    /// acquisition probes per BO iteration) never recomputes them.
    infos: Vec<f64>,
    alpha: Vec<f64>,
    chol: Cholesky,
    /// Raw (unstandardised) targets — kept so [`Gp::extend`] can restandardise
    /// after appending an observation.
    y_raw: Vec<f64>,
    y: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

/// Fills the noise-augmented Gram matrix symmetrically, column by column:
/// column `j` evaluates `k(x[i], x[j])` for `i ≤ j` in one
/// [`Kernel::eval_column`] call and mirrors it, and per-point summaries are
/// computed once instead of inside every pair — for a normalised string
/// kernel this cuts an `n²` fill from `3n²` to `n(n+1)/2 + n` DP runs.
fn build_gram<K, X>(kernel: &K, x: &[X], infos: &[f64], noise: f64) -> Matrix
where
    K: Kernel<X>,
{
    let n = x.len();
    let mut gram = Matrix::zeros(n, n);
    let mut column = vec![0.0; n];
    for j in 0..n {
        let column = &mut column[..=j];
        kernel.eval_column(&x[..=j], &infos[..=j], &x[j], infos[j], column);
        for (i, &v) in column.iter().enumerate() {
            gram[(i, j)] = v;
            gram[(j, i)] = v;
        }
        gram[(j, j)] = column[j] + noise;
    }
    gram
}

/// Which path produced an incrementally-updated GP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The `O(n²)` factor extension/downdate succeeded.
    Incremental,
    /// The incremental update failed numerically; the model came from the
    /// `O(n³)` full-refit fallback (which can escalate jitter).
    Refitted,
}

fn mean_std(y: &[f64]) -> (f64, f64) {
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let variance = y.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / y.len() as f64;
    (mean, variance.sqrt().max(1e-9))
}

impl<K, X> Gp<K, X>
where
    K: Kernel<X>,
{
    /// Fits the GP to data with fixed hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the Gram matrix is not positive definite even
    /// after jitter.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` lengths differ or the data set is empty.
    pub fn fit(
        kernel: K,
        x: Vec<X>,
        y: Vec<f64>,
        noise: f64,
    ) -> Result<Gp<K, X>, NotPositiveDefiniteError> {
        assert_eq!(x.len(), y.len(), "inputs and targets must pair up");
        assert!(!x.is_empty(), "cannot fit a GP to no data");
        let (y_mean, y_std) = mean_std(&y);
        let standardised: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
        let infos: Vec<f64> = x.iter().map(|xi| kernel.self_info(xi)).collect();
        let gram = build_gram(&kernel, &x, &infos, noise);
        let chol = Cholesky::new(&gram, 1e-9)?;
        let alpha = chol.solve(&standardised);
        Ok(Gp {
            kernel,
            noise,
            x,
            infos,
            alpha,
            chol,
            y_raw: y,
            y: standardised,
            y_mean,
            y_std,
        })
    }

    /// Incorporates one new observation in `O(n²)` instead of refitting
    /// from scratch in `O(n³)`: the stored Cholesky factor is extended by
    /// one row ([`Cholesky::extend`]), only `n + 1` new kernel values are
    /// computed, and the targets are restandardised (standardisation and
    /// `α = K⁻¹y` depend on every observation, but both are `O(n²)` given
    /// the factor).
    ///
    /// With unchanged hyperparameters the result is numerically identical
    /// to `Gp::fit` on the concatenated data — bit-identical whenever the
    /// extension's pivot succeeds at the stored factor's effective jitter.
    /// If the pivot fails, this falls back to a full refit (which can
    /// escalate jitter).
    ///
    /// The outcome reports which path ran: [`UpdateOutcome::Incremental`]
    /// for the `O(n²)` factor extension, [`UpdateOutcome::Refitted`] for
    /// the `O(n³)` fallback. Callers tracking surrogate health (e.g.
    /// [`crate::SurrogateDiagnostics`]) count the fallbacks.
    ///
    /// # Errors
    ///
    /// Returns an error only if the fallback full refit also fails.
    pub fn extend(
        mut self,
        x_new: X,
        y_new: f64,
    ) -> Result<(Gp<K, X>, UpdateOutcome), NotPositiveDefiniteError> {
        let info_new = self.kernel.self_info(&x_new);
        let off_diag = self.k_star(&x_new, info_new);
        let diag = self
            .kernel
            .eval_with_info(&x_new, info_new, &x_new, info_new)
            + self.noise;
        match self.chol.extend(&off_diag, diag) {
            Ok(chol) => {
                self.x.push(x_new);
                self.infos.push(info_new);
                self.y_raw.push(y_new);
                let (y_mean, y_std) = mean_std(&self.y_raw);
                let standardised: Vec<f64> =
                    self.y_raw.iter().map(|v| (v - y_mean) / y_std).collect();
                let alpha = chol.solve(&standardised);
                Ok((
                    Gp {
                        chol,
                        alpha,
                        y: standardised,
                        y_mean,
                        y_std,
                        ..self
                    },
                    UpdateOutcome::Incremental,
                ))
            }
            Err(_) => {
                let Gp {
                    kernel,
                    noise,
                    mut x,
                    mut y_raw,
                    ..
                } = self;
                x.push(x_new);
                y_raw.push(y_new);
                Gp::fit(kernel, x, y_raw, noise).map(|gp| (gp, UpdateOutcome::Refitted))
            }
        }
    }

    /// Removes the training point at `index` in `O(n²)` instead of
    /// refitting the reduced data set in `O(n³)`: the stored factor is
    /// downdated ([`Cholesky::downdate`]), the point's input/summary/target
    /// are dropped, and the remaining targets are restandardised. The dual
    /// of [`Gp::extend`] — together they give a sliding-window surrogate
    /// whose per-step cost is bounded by the window, not the history.
    ///
    /// The downdated model agrees with [`Gp::fit`] on the retained points
    /// to rounding (the Givens rotations reassociate the arithmetic; see
    /// [`Cholesky::downdate`]), so unlike `extend` this path is *not*
    /// bit-identical to a from-scratch fit. If the downdate fails
    /// numerically, falls back to a full refit on the retained points.
    ///
    /// # Errors
    ///
    /// Returns an error only if the fallback full refit also fails.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or only one training point
    /// remains.
    pub fn downdate(
        mut self,
        index: usize,
    ) -> Result<(Gp<K, X>, UpdateOutcome), NotPositiveDefiniteError> {
        assert!(index < self.x.len(), "downdate index out of bounds");
        assert!(self.x.len() > 1, "cannot downdate the last training point");
        match self.chol.downdate(index) {
            Ok(chol) => {
                self.x.remove(index);
                self.infos.remove(index);
                self.y_raw.remove(index);
                let (y_mean, y_std) = mean_std(&self.y_raw);
                let standardised: Vec<f64> =
                    self.y_raw.iter().map(|v| (v - y_mean) / y_std).collect();
                let alpha = chol.solve(&standardised);
                Ok((
                    Gp {
                        chol,
                        alpha,
                        y: standardised,
                        y_mean,
                        y_std,
                        ..self
                    },
                    UpdateOutcome::Incremental,
                ))
            }
            Err(_) => {
                let Gp {
                    kernel,
                    noise,
                    mut x,
                    mut y_raw,
                    ..
                } = self;
                x.remove(index);
                y_raw.remove(index);
                Gp::fit(kernel, x, y_raw, noise).map(|gp| (gp, UpdateOutcome::Refitted))
            }
        }
    }

    /// Fits hyperparameters by minimising the negative log marginal
    /// likelihood with projected Adam (finite-difference gradients), then
    /// fits the GP at the optimum.
    ///
    /// # Errors
    ///
    /// Returns an error if no hyperparameter setting yields a positive
    /// definite Gram matrix.
    pub fn fit_with_adam(
        mut kernel: K,
        x: Vec<X>,
        y: Vec<f64>,
        noise: f64,
        config: &TrainConfig,
    ) -> Result<Gp<K, X>, NotPositiveDefiniteError> {
        let bounds = kernel.param_bounds();
        let mut params = kernel.params();
        project(&mut params, &bounds);
        let (y_mean, y_std) = mean_std(&y);
        let y_for_nlml: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();

        let objective = |kernel: &mut K, p: &[f64]| -> Option<f64> {
            kernel.set_params(p);
            nlml(kernel, &x, &y_for_nlml, noise)
        };

        let mut m = vec![0.0; params.len()];
        let mut v = vec![0.0; params.len()];
        let mut best_params = params.clone();
        let mut best_obj = objective(&mut kernel, &params).unwrap_or(f64::INFINITY);
        for step in 1..=config.steps {
            // Central finite differences, clipped at the box bounds.
            let mut grad = vec![0.0; params.len()];
            for d in 0..params.len() {
                let h = config.fd_epsilon;
                let mut lo = params.clone();
                let mut hi = params.clone();
                lo[d] = (lo[d] - h).max(bounds[d].0);
                hi[d] = (hi[d] + h).min(bounds[d].1);
                let span = hi[d] - lo[d];
                if span <= 0.0 {
                    continue;
                }
                let f_lo = objective(&mut kernel, &lo).unwrap_or(f64::INFINITY);
                let f_hi = objective(&mut kernel, &hi).unwrap_or(f64::INFINITY);
                if f_lo.is_finite() && f_hi.is_finite() {
                    grad[d] = (f_hi - f_lo) / span;
                }
            }
            for d in 0..params.len() {
                m[d] = config.beta1 * m[d] + (1.0 - config.beta1) * grad[d];
                v[d] = config.beta2 * v[d] + (1.0 - config.beta2) * grad[d] * grad[d];
                let m_hat = m[d] / (1.0 - config.beta1.powi(step as i32));
                let v_hat = v[d] / (1.0 - config.beta2.powi(step as i32));
                params[d] -= config.learning_rate * m_hat / (v_hat.sqrt() + 1e-8);
            }
            project(&mut params, &bounds);
            let obj = objective(&mut kernel, &params).unwrap_or(f64::INFINITY);
            if obj < best_obj {
                best_obj = obj;
                best_params.copy_from_slice(&params);
            }
        }
        kernel.set_params(&best_params);
        Gp::fit(kernel, x, y, noise)
    }

    /// `k(x_i, x)` for every training input `x_i`, given `x`'s
    /// [`Kernel::self_info`] summary (the training summaries are reused
    /// from fit time).
    fn k_star(&self, x: &X, info: f64) -> Vec<f64> {
        let mut k_star = vec![0.0; self.x.len()];
        self.kernel
            .eval_column(&self.x, &self.infos, x, info, &mut k_star);
        k_star
    }

    /// The posterior mean on the original scale, from a test input's
    /// [`Gp::k_star`] vector.
    fn mean_of(&self, k_star: &[f64]) -> f64 {
        let mean_std: f64 = k_star.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        mean_std * self.y_std + self.y_mean
    }

    /// Posterior mean and variance at a test input.
    ///
    /// The test point's [`Kernel::self_info`] summary is computed once and
    /// the training points' summaries are reused from fit time, so a
    /// normalised string kernel runs one DP per training point here rather
    /// than three.
    pub fn predict(&self, x_star: &X) -> (f64, f64) {
        let info_star = self.kernel.self_info(x_star);
        let k_star = self.k_star(x_star, info_star);
        let v = self.chol.solve_lower(&k_star);
        let k_ss = self
            .kernel
            .eval_with_info(x_star, info_star, x_star, info_star)
            + self.noise;
        let var_std = (k_ss - v.iter().map(|x| x * x).sum::<f64>()).max(0.0);
        (self.mean_of(&k_star), var_std * self.y_std * self.y_std)
    }

    /// The negative log marginal likelihood of the fitted model (on the
    /// standardised targets, up to the constant term).
    pub fn nlml(&self) -> f64 {
        0.5 * self.chol.log_det()
            + 0.5
                * self
                    .y
                    .iter()
                    .zip(&self.alpha)
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The training inputs.
    pub fn train_inputs(&self) -> &[X] {
        &self.x
    }

    /// Draws a joint posterior sample at the given test inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if the posterior covariance fails to factorise.
    pub fn sample_posterior<R: Rng>(
        &self,
        xs: &[X],
        rng: &mut R,
    ) -> Result<Vec<f64>, NotPositiveDefiniteError> {
        let (means, cov) = self.joint_posterior(xs);
        sample_gaussian(&means, &cov, rng)
    }

    /// The joint posterior at `xs` on the original scale: the means and
    /// the covariance `K** − K*ᵀ K⁻¹ K*`, from one `k★` vector and one
    /// `K**` column per test input.
    fn joint_posterior(&self, xs: &[X]) -> (Vec<f64>, Matrix) {
        let n = xs.len();
        let infos: Vec<f64> = xs.iter().map(|x| self.kernel.self_info(x)).collect();
        let mut means = Vec::with_capacity(n);
        let mut solved = Vec::with_capacity(n);
        for (x, &info) in xs.iter().zip(&infos) {
            let k_star = self.k_star(x, info);
            means.push(self.mean_of(&k_star));
            solved.push(self.chol.solve_lower(&k_star));
        }
        let mut cov = Matrix::zeros(n, n);
        let mut column = vec![0.0; n];
        for j in 0..n {
            self.kernel
                .eval_column(xs, &infos, &xs[j], infos[j], &mut column);
            for (i, &kij) in column.iter().enumerate() {
                let reduction: f64 = solved[i].iter().zip(&solved[j]).map(|(a, b)| a * b).sum();
                cov[(i, j)] = (kij - reduction) * self.y_std * self.y_std;
            }
        }
        (means, cov)
    }
}

fn project(params: &mut [f64], bounds: &[(f64, f64)]) {
    for (p, &(lo, hi)) in params.iter_mut().zip(bounds) {
        *p = p.clamp(lo, hi);
    }
}

/// Negative log marginal likelihood for a kernel on standardised targets.
fn nlml<K, X>(kernel: &K, x: &[X], y: &[f64], noise: f64) -> Option<f64>
where
    K: Kernel<X>,
{
    let infos: Vec<f64> = x.iter().map(|xi| kernel.self_info(xi)).collect();
    let gram = build_gram(kernel, x, &infos, noise);
    let chol = Cholesky::new(&gram, 1e-9).ok()?;
    let alpha = chol.solve(y);
    Some(0.5 * chol.log_det() + 0.5 * y.iter().zip(&alpha).map(|(a, b)| a * b).sum::<f64>())
}

/// Draws one sample from `N(mean, cov)`.
///
/// # Errors
///
/// Returns an error if `cov` cannot be factorised even with jitter.
pub fn sample_gaussian<R: Rng>(
    mean: &[f64],
    cov: &Matrix,
    rng: &mut R,
) -> Result<Vec<f64>, NotPositiveDefiniteError> {
    let chol = Cholesky::new(cov, 1e-8)?;
    let z: Vec<f64> = (0..mean.len()).map(|_| standard_normal(rng)).collect();
    let correlated = chol.l().mul_vec(&z);
    Ok(mean.iter().zip(&correlated).map(|(m, c)| m + c).collect())
}

/// A standard normal draw via Box–Muller.
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;
    use crate::ssk::SskKernel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.5]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() * 2.0 + 1.0).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = toy_data();
        let gp =
            Gp::fit(SquaredExponential::new(1), xs.clone(), ys.clone(), 1e-8).expect("spd gram");
        for (x, y) in xs.iter().zip(&ys) {
            let (mean, var) = gp.predict(x);
            assert!((mean - y).abs() < 1e-3, "mean {mean} vs {y}");
            assert!(var < 1e-4, "training variance should collapse");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = toy_data();
        let gp = Gp::fit(SquaredExponential::new(1), xs, ys, 1e-8).expect("spd");
        let (_, var_near) = gp.predict(&vec![2.0]);
        let (_, var_far) = gp.predict(&vec![50.0]);
        assert!(var_far > var_near * 10.0);
    }

    #[test]
    fn adam_training_improves_nlml() {
        let (xs, ys) = toy_data();
        let fixed = Gp::fit(
            SquaredExponential::new(1).with_variance(0.1),
            xs.clone(),
            ys.clone(),
            1e-6,
        )
        .expect("spd");
        let trained = Gp::fit_with_adam(
            SquaredExponential::new(1).with_variance(0.1),
            xs,
            ys,
            1e-6,
            &TrainConfig::default(),
        )
        .expect("spd");
        assert!(
            trained.nlml() <= fixed.nlml() + 1e-9,
            "training made the fit worse: {} > {}",
            trained.nlml(),
            fixed.nlml()
        );
    }

    #[test]
    fn works_with_the_string_kernel() {
        // Target correlates with the count of token 0 — learnable by SSK.
        let seqs: Vec<Vec<u8>> = vec![
            vec![0, 0, 0, 0],
            vec![0, 0, 0, 1],
            vec![0, 1, 1, 1],
            vec![1, 1, 1, 1],
            vec![0, 0, 1, 1],
            vec![1, 0, 0, 0],
        ];
        let ys: Vec<f64> = seqs
            .iter()
            .map(|s| s.iter().filter(|&&c| c == 0).count() as f64)
            .collect();
        let gp = Gp::fit_with_adam(
            SskKernel::new(3),
            seqs.clone(),
            ys,
            1e-4,
            &TrainConfig {
                steps: 15,
                ..TrainConfig::default()
            },
        )
        .expect("spd");
        let (m_many, _) = gp.predict(&vec![0u8, 0, 0, 0]);
        let (m_few, _) = gp.predict(&vec![1u8, 1, 1, 1]);
        assert!(
            m_many > m_few + 1.0,
            "SSK GP failed to learn the trend: {m_many} vs {m_few}"
        );
        // Decays must have stayed in the projected box.
        let p = gp.kernel().params();
        assert!(p.iter().all(|&v| (0.01..=1.0).contains(&v)), "{p:?}");
    }

    #[test]
    fn extend_matches_from_scratch_fit() {
        let (xs, ys) = toy_data();
        let mut incremental = Gp::fit(
            SquaredExponential::new(1),
            xs[..4].to_vec(),
            ys[..4].to_vec(),
            1e-6,
        )
        .expect("spd");
        for i in 4..xs.len() {
            incremental = incremental.extend(xs[i].clone(), ys[i]).expect("extend").0;
        }
        let scratch = Gp::fit(SquaredExponential::new(1), xs.clone(), ys, 1e-6).expect("spd");
        for probe in [vec![0.25], vec![2.1], vec![7.0]] {
            let (m_inc, v_inc) = incremental.predict(&probe);
            let (m_full, v_full) = scratch.predict(&probe);
            assert!(
                (m_inc - m_full).abs() < 1e-10,
                "means diverged: {m_inc} vs {m_full}"
            );
            assert!(
                (v_inc - v_full).abs() < 1e-10,
                "variances diverged: {v_inc} vs {v_full}"
            );
        }
        assert!((incremental.nlml() - scratch.nlml()).abs() < 1e-10);
    }

    #[test]
    fn extend_matches_fit_with_the_string_kernel() {
        let seqs: Vec<Vec<u8>> = vec![
            vec![0, 1, 2, 3],
            vec![3, 2, 1, 0],
            vec![0, 0, 1, 1],
            vec![2, 3, 0, 1],
            vec![1, 1, 1, 1],
            vec![0, 2, 0, 2],
        ];
        let ys: Vec<f64> = (0..seqs.len()).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut incremental = Gp::fit(
            SskKernel::new(3),
            seqs[..3].to_vec(),
            ys[..3].to_vec(),
            1e-4,
        )
        .expect("spd");
        for i in 3..seqs.len() {
            incremental = incremental
                .extend(seqs[i].clone(), ys[i])
                .expect("extend")
                .0;
        }
        let scratch = Gp::fit(SskKernel::new(3), seqs, ys, 1e-4).expect("spd");
        let probe = vec![0u8, 3, 1, 2];
        let (m_inc, v_inc) = incremental.predict(&probe);
        let (m_full, v_full) = scratch.predict(&probe);
        assert!((m_inc - m_full).abs() < 1e-10);
        assert!((v_inc - v_full).abs() < 1e-10);
    }

    #[test]
    fn posterior_samples_concentrate_at_data() {
        let (xs, ys) = toy_data();
        let gp = Gp::fit(SquaredExponential::new(1), xs.clone(), ys.clone(), 1e-8).expect("spd");
        let mut rng = StdRng::seed_from_u64(3);
        let sample = gp.sample_posterior(&xs, &mut rng).expect("psd cov");
        for (s, y) in sample.iter().zip(&ys) {
            assert!((s - y).abs() < 0.1, "sample strayed from the data");
        }
    }

    /// One `sample_posterior` draw on an SSK model, captured before the
    /// joint posterior was built once per call instead of once per
    /// covariance cell.
    #[test]
    fn posterior_draws_match_the_pinned_bits() {
        let seqs: Vec<Vec<u8>> = (0..9u8)
            .map(|i| (0..6u8).map(|j| (i * 7 + j * 3 + i * j) % 11).collect())
            .collect();
        let ys: Vec<f64> = (0..seqs.len()).map(|i| (i as f64 * 0.9).sin()).collect();
        let kernel = SskKernel::new(3).with_decays(0.7, 0.6);
        let gp = Gp::fit(kernel, seqs, ys, 1e-4).expect("spd");
        let batch: Vec<Vec<u8>> = vec![
            vec![0, 3, 6, 9, 1, 4],
            vec![2, 2, 5, 7, 10, 0],
            vec![0, 3, 6, 9, 1, 5],
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let draw = gp.sample_posterior(&batch, &mut rng).expect("cov");
        let bits: Vec<u64> = draw.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [0xbf807a3ce12f7bc2, 0x3feff38aa5321aa4, 0xbfb1a59a7c1a5968],
            "{draw:?}"
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
