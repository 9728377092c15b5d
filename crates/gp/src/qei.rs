//! Batched (q-point) expected improvement by the constant-liar heuristic.
//!
//! Exact q-EI has no convenient closed form. [`ConstantLiar`] is the greedy
//! constant-liar heuristic (Ginsbourger et al., 2010): after each accepted
//! candidate, pretend its outcome was some fixed "lie" (BOiLS uses the
//! incumbent), extend a *scratch* copy of the GP by that fantasy
//! observation in `O(n²)` ([`Gp::extend`]) and re-maximise single-point EI
//! against the lied model. The fantasy collapses the posterior variance
//! around accepted candidates, so the next maximisation is pushed
//! elsewhere — which is exactly what makes the q proposals diverse. The
//! base GP is never modified; the lies are discarded when the liar is
//! dropped.

use crate::gp::Gp;
use crate::kernel::Kernel;
use crate::linalg::NotPositiveDefiniteError;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::expected_improvement;
    use crate::kernel::SquaredExponential;

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
}
