//! Batched (q-point) expected improvement.
//!
//! Exact q-EI has no convenient closed form, so this module provides the
//! two standard tools for proposing and judging a batch:
//!
//! * [`ConstantLiar`] — the greedy constant-liar heuristic (Ginsbourger et
//!   al., 2010): after each accepted candidate, pretend its outcome was
//!   some fixed "lie" (BOiLS uses the incumbent), extend a *scratch* copy
//!   of the GP by that fantasy observation in `O(n²)` ([`Gp::extend`]) and
//!   re-maximise single-point EI against the lied model. The fantasy
//!   collapses the posterior variance around accepted candidates, so the
//!   next maximisation is pushed elsewhere — which is exactly what makes
//!   the q proposals diverse. The base GP is never modified; the lies are
//!   discarded when the liar is dropped.
//! * [`qei_monte_carlo`] — an unbiased Monte-Carlo estimate of the joint
//!   criterion `qEI(X) = E[max_i (g(x_i) − best)⁺]` by sampling the joint
//!   posterior over the batch. Too slow for the inner proposal loop, but
//!   the right yardstick for tests and reports: it quantifies how much a
//!   batch is worth *jointly* (a batch of q duplicates scores no better
//!   than its single best point).

use rand::Rng;

use crate::gp::{draw_gaussian, Gp};
use crate::kernel::Kernel;
use crate::linalg::{Cholesky, NotPositiveDefiniteError};

/// Greedy constant-liar batch construction over a borrowed GP.
///
/// ```
/// use boils_gp::{ConstantLiar, Gp, SquaredExponential};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 0.8).sin()).collect();
/// let gp = Gp::fit(SquaredExponential::new(1), xs, ys, 1e-6)?;
/// let incumbent = 0.99;
///
/// let mut liar = ConstantLiar::new(&gp, incumbent);
/// let (_, var_before) = liar.model().predict(&vec![2.5]);
/// liar.accept(vec![2.5])?;
/// let (_, var_after) = liar.model().predict(&vec![2.5]);
/// // The lie collapses uncertainty at the accepted point …
/// assert!(var_after < var_before);
/// // … while the base GP is untouched.
/// assert_eq!(gp.predict(&vec![2.5]).1, var_before);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConstantLiar<'a, K, X> {
    base: &'a Gp<K, X>,
    lied: Option<Gp<K, X>>,
    lie: f64,
}

impl<'a, K, X> ConstantLiar<'a, K, X>
where
    K: Kernel<X> + Clone,
    X: Clone,
{
    /// A liar over `base` that will hallucinate `lie` (typically the
    /// incumbent objective value) for every accepted candidate.
    pub fn new(base: &'a Gp<K, X>, lie: f64) -> ConstantLiar<'a, K, X> {
        ConstantLiar {
            base,
            lied: None,
            lie,
        }
    }

    /// The model to maximise the acquisition against: the base GP until the
    /// first accepted candidate, then the base plus all accepted lies.
    pub fn model(&self) -> &Gp<K, X> {
        self.lied.as_ref().unwrap_or(self.base)
    }

    /// The number of fantasy observations currently held.
    pub fn lies(&self) -> usize {
        self.lied.as_ref().map_or(0, |gp| {
            gp.train_inputs().len() - self.base.train_inputs().len()
        })
    }

    /// Accepts a candidate into the batch: extends the scratch model by the
    /// fantasy observation `(x, lie)`. The base GP is cloned lazily on the
    /// first accept, so a batch of one never pays for the copy.
    ///
    /// # Errors
    ///
    /// If the extension cannot be factorised even via [`Gp::fit`] fallback,
    /// the scratch model reverts to the base GP and the error is returned;
    /// the liar stays usable (proposals degrade to the unlied acquisition,
    /// which the caller's deduplication must then diversify).
    pub fn accept(&mut self, x: X) -> Result<(), NotPositiveDefiniteError> {
        let model = match self.lied.take() {
            Some(gp) => gp,
            None => self.base.clone(),
        };
        match model.extend(x, self.lie) {
            Ok(gp) => {
                self.lied = Some(gp);
                Ok(())
            }
            Err(e) => {
                self.lied = None;
                Err(e)
            }
        }
    }
}

/// Monte-Carlo estimate of the joint q-EI of a batch for **maximisation**:
/// `qEI(X) = E[max_i (g(x_i) − best)⁺]` under the joint posterior
/// `g ~ GP | data`, averaged over `samples` draws.
///
/// Returns 0 for an empty batch.
///
/// # Errors
///
/// Returns an error if the joint posterior covariance over the batch cannot
/// be factorised.
pub fn qei_monte_carlo<K, X, R>(
    gp: &Gp<K, X>,
    batch: &[X],
    best: f64,
    samples: usize,
    rng: &mut R,
) -> Result<f64, NotPositiveDefiniteError>
where
    K: Kernel<X>,
    R: Rng,
{
    if batch.is_empty() {
        return Ok(0.0);
    }
    // The joint posterior does not change between draws: build and
    // factorise it once.
    let (means, cov) = gp.joint_posterior(batch);
    let chol = Cholesky::new(&cov, 1e-8)?;
    let mut total = 0.0;
    for _ in 0..samples.max(1) {
        let draw = draw_gaussian(&means, &chol, rng);
        let improvement = draw
            .iter()
            .map(|&g| (g - best).max(0.0))
            .fold(0.0, f64::max);
        total += improvement;
    }
    Ok(total / samples.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::expected_improvement;
    use crate::kernel::SquaredExponential;
    use crate::ssk::SskKernel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_gp() -> Gp<SquaredExponential, Vec<f64>> {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 * 0.7]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin()).collect();
        Gp::fit(SquaredExponential::new(1), xs, ys, 1e-6).expect("spd")
    }

    #[test]
    fn lies_collapse_variance_and_leave_the_base_untouched() {
        let gp = toy_gp();
        let probe = vec![2.45];
        let (base_mean, base_var) = gp.predict(&probe);
        let mut liar = ConstantLiar::new(&gp, 0.9);
        assert_eq!(liar.lies(), 0);
        liar.accept(probe.clone()).expect("extend");
        assert_eq!(liar.lies(), 1);
        let (_, lied_var) = liar.model().predict(&probe);
        assert!(
            lied_var < base_var * 0.5,
            "lie failed to collapse variance: {lied_var} vs {base_var}"
        );
        // The borrowed base model must be bit-identical afterwards.
        drop(liar);
        let (m, v) = gp.predict(&probe);
        assert_eq!(m.to_bits(), base_mean.to_bits());
        assert_eq!(v.to_bits(), base_var.to_bits());
    }

    #[test]
    fn successive_lies_accumulate() {
        let gp = toy_gp();
        let mut liar = ConstantLiar::new(&gp, 0.5);
        for (i, x) in [vec![1.1], vec![3.3], vec![4.9]].into_iter().enumerate() {
            liar.accept(x).expect("extend");
            assert_eq!(liar.lies(), i + 1);
        }
        assert_eq!(
            liar.model().train_inputs().len(),
            gp.train_inputs().len() + 3
        );
    }

    #[test]
    fn lied_acquisition_moves_away_from_accepted_points() {
        // After lying at the EI argmax of a coarse grid, the lied EI at that
        // point drops below the best EI elsewhere — the next greedy pick is
        // a different point, which is the entire mechanism behind the
        // constant-liar batch being diverse.
        let gp = toy_gp();
        let grid: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let incumbent = 0.95;
        let ei_on = |model: &Gp<SquaredExponential, Vec<f64>>, x: &Vec<f64>| {
            let (m, v) = model.predict(x);
            expected_improvement(m, v, incumbent)
        };
        let first = grid
            .iter()
            .max_by(|a, b| ei_on(&gp, a).partial_cmp(&ei_on(&gp, b)).expect("finite"))
            .expect("non-empty grid")
            .clone();
        let mut liar = ConstantLiar::new(&gp, incumbent);
        liar.accept(first.clone()).expect("extend");
        let second = grid
            .iter()
            .max_by(|a, b| {
                ei_on(liar.model(), a)
                    .partial_cmp(&ei_on(liar.model(), b))
                    .expect("finite")
            })
            .expect("non-empty grid")
            .clone();
        assert_ne!(first, second, "the lie did not diversify the batch");
    }

    #[test]
    fn qei_of_a_diverse_batch_beats_its_best_singleton() {
        let gp = toy_gp();
        let best = 0.8;
        let mut rng = StdRng::seed_from_u64(9);
        let a = vec![2.4];
        let b = vec![5.2];
        let single_a =
            qei_monte_carlo(&gp, std::slice::from_ref(&a), best, 4000, &mut rng).expect("mc");
        let single_b =
            qei_monte_carlo(&gp, std::slice::from_ref(&b), best, 4000, &mut rng).expect("mc");
        let joint = qei_monte_carlo(&gp, &[a, b], best, 4000, &mut rng).expect("mc");
        assert!(
            joint >= single_a.max(single_b) - 0.01,
            "joint {joint} below singletons {single_a}/{single_b}"
        );
    }

    #[test]
    fn qei_of_duplicates_adds_nothing() {
        let gp = toy_gp();
        let best = 0.8;
        let mut rng = StdRng::seed_from_u64(11);
        let x = vec![2.4];
        let single =
            qei_monte_carlo(&gp, std::slice::from_ref(&x), best, 4000, &mut rng).expect("mc");
        let doubled = qei_monte_carlo(&gp, &[x.clone(), x], best, 4000, &mut rng).expect("mc");
        assert!(
            (doubled - single).abs() < 0.02,
            "duplicate inflated qEI: {doubled} vs {single}"
        );
    }

    #[test]
    fn qei_mc_tracks_analytic_single_point_ei() {
        let gp = toy_gp();
        let best = 0.7;
        let probe = vec![2.9];
        let (mean, var) = gp.predict(&probe);
        let analytic = expected_improvement(mean, var, best);
        let mut rng = StdRng::seed_from_u64(13);
        let mc = qei_monte_carlo(&gp, &[probe], best, 20_000, &mut rng).expect("mc");
        assert!(
            (mc - analytic).abs() < 0.02,
            "MC {mc} vs analytic {analytic}"
        );
    }

    /// Values and RNG draws captured before the joint posterior was built
    /// once per call instead of once per sample (and once per covariance
    /// cell): the estimate, the draw that follows it, and one
    /// `sample_posterior` draw, all on an SSK model.
    #[test]
    fn qei_and_posterior_draws_match_the_pinned_bits() {
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
        let mut rng = StdRng::seed_from_u64(23);
        let q = qei_monte_carlo(&gp, &batch, 0.3, 64, &mut rng).expect("mc");
        assert_eq!(q.to_bits(), 0x3fb2fb0efe418c99, "{q}");
        let next: u64 = rng.gen();
        assert_eq!(
            next, 0xabf83079af637f6e,
            "the estimate drew a different count"
        );
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
    fn empty_batch_has_zero_qei() {
        let gp = toy_gp();
        let mut rng = StdRng::seed_from_u64(1);
        let batch: Vec<Vec<f64>> = Vec::new();
        assert_eq!(
            qei_monte_carlo(&gp, &batch, 0.0, 100, &mut rng).expect("mc"),
            0.0
        );
    }
}
