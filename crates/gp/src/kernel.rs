//! Kernel abstractions and the squared-exponential (SE) kernel with
//! per-dimension automatic-relevance-determination lengthscales.

/// A positive-definite covariance function over inputs of type `X`.
///
/// Hyperparameters are exposed as a flat vector with box bounds so a single
/// projected-gradient trainer serves every kernel.
pub trait Kernel<X> {
    /// Evaluates `k(a, b)`.
    fn eval(&self, a: &X, b: &X) -> f64;

    /// A per-point summary that [`Kernel::eval_with_info`] can reuse across
    /// many evaluations involving the same point — e.g. the raw
    /// self-similarity `k̃(x, x)` a normalised string kernel divides by.
    /// Kernels with nothing to cache return `0.0` (the value is opaque to
    /// callers; it is only ever passed back to the same kernel).
    ///
    /// Summaries depend on the hyperparameters: recompute them after
    /// [`Kernel::set_params`].
    fn self_info(&self, x: &X) -> f64 {
        let _ = x;
        0.0
    }

    /// Evaluates `k(a, b)` given the points' [`Kernel::self_info`]
    /// summaries. Must return exactly what [`Kernel::eval`] would; the
    /// default ignores the summaries and delegates.
    fn eval_with_info(&self, a: &X, info_a: f64, b: &X, info_b: f64) -> f64 {
        let _ = (info_a, info_b);
        self.eval(a, b)
    }

    /// Fills `out[r]` with `k(xs[r], b)` for every `r`, given the points'
    /// [`Kernel::self_info`] summaries: `infos[r]` for `xs[r]` and
    /// `info_b` for `b`. Every multi-pair site of [`crate::Gp`] (prediction,
    /// extension, Gram fills) goes through here. Must agree bit for bit
    /// with [`Kernel::eval_with_info`] on each pair, which the default
    /// calls in order; kernels that can evaluate several pairs at once
    /// (e.g. [`crate::SskKernel`]) override it.
    ///
    /// # Panics
    ///
    /// Panics if `xs`, `infos` and `out` differ in length.
    fn eval_column(&self, xs: &[X], infos: &[f64], b: &X, info_b: f64, out: &mut [f64]) {
        assert!(
            xs.len() == infos.len() && xs.len() == out.len(),
            "column inputs, summaries and outputs differ in length"
        );
        for ((o, x), &info) in out.iter_mut().zip(xs).zip(infos) {
            *o = self.eval_with_info(x, info, b, info_b);
        }
    }

    /// Current hyperparameter vector.
    fn params(&self) -> Vec<f64>;

    /// Replaces the hyperparameter vector.
    ///
    /// # Panics
    ///
    /// Implementations panic if the length disagrees with [`Kernel::params`].
    fn set_params(&mut self, params: &[f64]);

    /// Box bounds, one `(lower, upper)` pair per hyperparameter.
    fn param_bounds(&self) -> Vec<(f64, f64)>;
}

/// The squared-exponential (RBF) kernel with ARD lengthscales:
/// `k(x, x') = σ² exp(−½ Σ_d (x_d − x'_d)² / ℓ_d²)`.
///
/// ```
/// use boils_gp::{Kernel, SquaredExponential};
///
/// let k = SquaredExponential::new(3);
/// assert!((k.eval(&vec![0.0; 3], &vec![0.0; 3]) - 1.0).abs() < 1e-12);
/// assert!(k.eval(&vec![0.0; 3], &vec![9.0; 3]) < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct SquaredExponential {
    lengthscales: Vec<f64>,
    variance: f64,
}

impl SquaredExponential {
    /// A unit-variance kernel with unit lengthscales over `dims` inputs.
    pub fn new(dims: usize) -> SquaredExponential {
        SquaredExponential {
            lengthscales: vec![1.0; dims],
            variance: 1.0,
        }
    }

    /// Overrides the signal variance σ².
    pub fn with_variance(mut self, variance: f64) -> SquaredExponential {
        assert!(variance > 0.0);
        self.variance = variance;
        self
    }
}

impl Kernel<Vec<f64>> for SquaredExponential {
    fn eval(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        assert_eq!(a.len(), self.lengthscales.len());
        assert_eq!(b.len(), self.lengthscales.len());
        let r2: f64 = a
            .iter()
            .zip(b)
            .zip(&self.lengthscales)
            .map(|((x, y), l)| {
                let d = (x - y) / l;
                d * d
            })
            .sum();
        self.variance * (-0.5 * r2).exp()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.lengthscales.clone();
        p.push(self.variance);
        p
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.lengthscales.len() + 1);
        self.lengthscales
            .copy_from_slice(&params[..params.len() - 1]);
        self.variance = params[params.len() - 1];
    }

    fn param_bounds(&self) -> Vec<(f64, f64)> {
        let mut b = vec![(1e-2, 1e2); self.lengthscales.len()];
        b.push((1e-4, 1e3)); // variance
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn se_is_symmetric_and_bounded() {
        let k = SquaredExponential::new(2).with_variance(2.5);
        let a = vec![0.3, -1.0];
        let b = vec![1.2, 0.5];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
        assert!(k.eval(&a, &b) <= 2.5);
        assert!((k.eval(&a, &a) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn lengthscales_control_decay() {
        let mut k = SquaredExponential::new(1);
        let near = k.eval(&vec![0.0], &vec![1.0]);
        k.set_params(&[10.0, 1.0]); // longer → slower decay
        let far = k.eval(&vec![0.0], &vec![1.0]);
        assert!(far > near);
    }

    #[test]
    fn params_round_trip() {
        let mut k = SquaredExponential::new(3);
        let p = vec![0.5, 2.0, 1.5, 3.0];
        k.set_params(&p);
        assert_eq!(k.params(), p);
        assert_eq!(k.param_bounds().len(), 4);
    }
}
