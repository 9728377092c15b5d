//! The surrogate lifecycle: one type owning **fit → extend → retrain →
//! forget** for a sequential optimiser's Gaussian process.
//!
//! Both BOiLS and the SBO baseline used to hand-roll the same
//! bookkeeping — an evals-since-retrain cadence counter, a carried
//! `(gp, fitted)` pair extended on non-retrain iterations, kernel
//! hyperparameters threaded between refits. [`Surrogate`] absorbs all of
//! it behind two calls: [`Surrogate::observe`] records an evaluation,
//! [`Surrogate::maybe_retrain`] returns the model to maximise the
//! acquisition against, deciding internally whether to retrain
//! hyperparameters (projected Adam on the training cadence), extend the
//! carried factor in `O(n²)` ([`Gp::extend`]), or refit from scratch.
//!
//! The *forget* stage is new: with [`SurrogateConfig::window`] set, the
//! training set is bounded — once more observations arrive than the
//! window holds, the oldest are evicted through a rank-1 Cholesky
//! downdate ([`Gp::downdate`], `O(n²)`) instead of ever rebuilding the
//! factor. The incumbent (best target seen) is pinned and never evicted,
//! so expected improvement always has the true incumbent in-model. A
//! bounded window turns the per-step surrogate cost from `O(n²)` growing
//! without bound into a constant once `n` passes the window — the
//! standard bounded-history trick behind trust-region BO at large
//! budgets.

use crate::gp::{Gp, TrainConfig, UpdateOutcome};
use crate::kernel::Kernel;
use crate::linalg::NotPositiveDefiniteError;

/// Settings for a [`Surrogate`].
#[derive(Clone, Debug)]
pub struct SurrogateConfig {
    /// GP observation noise.
    pub noise: f64,
    /// Hyperparameters are retrained once this many observations
    /// accumulate since the previous retrain (and always on the first
    /// [`Surrogate::maybe_retrain`] call).
    pub retrain_every: usize,
    /// Bounded-history window: `Some(w)` keeps at most `w` observations
    /// in the training set, evicting the oldest non-incumbent point (by a
    /// rank-1 downdate between retrains). `None` trains on the full
    /// history — byte-compatible with the pre-window optimisers.
    pub window: Option<usize>,
    /// Projected-Adam settings for hyperparameter retraining.
    pub train: TrainConfig,
}

/// Counters describing a [`Surrogate`]'s lifecycle so far.
///
/// Purely observational; folded into the optimisers' `RunDiagnostics`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SurrogateDiagnostics {
    /// Observation counts at which hyperparameters were retrained.
    pub retrains_at: Vec<usize>,
    /// Rank-1 factor extensions performed ([`Gp::extend`]).
    pub extends: usize,
    /// Rank-1 factor downdates performed (window evictions).
    pub downdates: usize,
    /// Incremental updates (extends *or* downdates) whose factor update
    /// failed numerically and fell back to an `O(n³)` full refit.
    pub fallback_refits: usize,
    /// Observations injected by [`Surrogate::seed`] (warm-start transfer
    /// from another circuit's history) rather than evaluated in this run.
    pub seeded: usize,
}

/// A Gaussian-process surrogate that owns its full lifecycle: data,
/// hyperparameters, retrain cadence, incremental factor updates, and
/// (optionally) sliding-window forgetting with incumbent pinning.
///
/// Targets are treated as *maximisation* values (the optimisers model
/// `−QoR`): the pinned incumbent is the observation with the largest `y`.
///
/// ```
/// use boils_gp::{Surrogate, SurrogateConfig, SskKernel, TrainConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut surrogate = Surrogate::new(
///     SskKernel::new(3),
///     SurrogateConfig {
///         noise: 1e-4,
///         retrain_every: 5,
///         window: Some(8),
///         train: TrainConfig { steps: 3, ..TrainConfig::default() },
///     },
/// );
/// for i in 0..12u8 {
///     surrogate.observe(vec![i % 4, (i + 1) % 4, i % 3], f64::from(i) * 0.1);
/// }
/// let gp = surrogate.maybe_retrain()?;
/// assert!(gp.train_inputs().len() <= 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Surrogate<K, X> {
    template: K,
    params: Vec<f64>,
    config: SurrogateConfig,
    xs: Vec<X>,
    ys: Vec<f64>,
    /// Global observation indices currently in (or queued for) the
    /// training set, in GP row order (ascending — insertion order).
    active: Vec<usize>,
    /// Observations already moved into `active`.
    synced: usize,
    gp: Option<Gp<K, X>>,
    evals_since_retrain: usize,
    first: bool,
    diagnostics: SurrogateDiagnostics,
}

impl<K, X> Surrogate<K, X>
where
    K: Kernel<X> + Clone,
    X: Clone,
{
    /// A surrogate with no observations. `template` supplies the kernel
    /// shape and the initial hyperparameters; retrains update the
    /// parameter vector in place across the run.
    pub fn new(template: K, config: SurrogateConfig) -> Surrogate<K, X> {
        let params = template.params();
        Surrogate {
            template,
            params,
            config,
            xs: Vec::new(),
            ys: Vec::new(),
            active: Vec::new(),
            synced: 0,
            gp: None,
            evals_since_retrain: 0,
            first: true,
            diagnostics: SurrogateDiagnostics::default(),
        }
    }

    /// Records one evaluated point. Cheap — the model is only updated by
    /// the next [`Surrogate::maybe_retrain`] call, so a whole batch of
    /// observations costs one factor update pass.
    pub fn observe(&mut self, x: X, y: f64) {
        self.xs.push(x);
        self.ys.push(y);
        self.evals_since_retrain += 1;
    }

    /// Records a *transferred* observation — e.g. a (sequence, cost) pair
    /// from a similar circuit's recorded history — without advancing the
    /// retrain cadence: seeds bias where the model starts, they are not
    /// fresh evidence about this run's objective, so they must not move
    /// *when* hyperparameters retrain relative to an unseeded run.
    pub fn seed(&mut self, x: X, y: f64) {
        self.xs.push(x);
        self.ys.push(y);
        self.diagnostics.seeded += 1;
    }

    /// Total observations recorded (evicted ones included).
    pub fn observations(&self) -> usize {
        self.xs.len()
    }

    /// Global indices of the observations currently in the training set,
    /// in GP row order (only meaningful after a
    /// [`Surrogate::maybe_retrain`] call synchronised pending points).
    pub fn window_indices(&self) -> &[usize] {
        &self.active
    }

    /// The recorded observation at a global index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn observation(&self, index: usize) -> (&X, f64) {
        (&self.xs[index], self.ys[index])
    }

    /// The current model, if [`Surrogate::maybe_retrain`] has run.
    pub fn gp(&self) -> Option<&Gp<K, X>> {
        self.gp.as_ref()
    }

    /// The current kernel hyperparameters (template values until the
    /// first fit; thereafter whatever the last fit/retrain produced).
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Lifecycle counters so far.
    pub fn diagnostics(&self) -> &SurrogateDiagnostics {
        &self.diagnostics
    }

    /// Brings the model up to date with every observation and returns it.
    ///
    /// Decides the whole lifecycle internally:
    ///
    /// * **retrain** — on the first call, and whenever
    ///   [`SurrogateConfig::retrain_every`] observations accumulated since
    ///   the last retrain: hyperparameters are refit by projected Adam on
    ///   the retained window, then the GP is rebuilt at the optimum;
    /// * **extend** — otherwise, pending observations are folded into the
    ///   carried factor in `O(n²)` each;
    /// * **forget** — with a [`SurrogateConfig::window`], the oldest
    ///   non-incumbent points are then evicted (rank-1 downdates of the
    ///   carried factor, simple exclusion on refit paths) until the window
    ///   bound holds;
    /// * **refit** — a non-retrain call with no carried model (an earlier
    ///   call failed) fits from scratch at the carried hyperparameters.
    ///
    /// # Errors
    ///
    /// Propagates [`NotPositiveDefiniteError`] if no model can be fitted
    /// (incremental failures fall back to full refits first, counted in
    /// [`SurrogateDiagnostics::fallback_refits`]).
    ///
    /// # Panics
    ///
    /// Panics if called before any [`Surrogate::observe`].
    pub fn maybe_retrain(&mut self) -> Result<&Gp<K, X>, NotPositiveDefiniteError> {
        assert!(!self.xs.is_empty(), "no observations to fit a surrogate to");
        let retrain = self.first || self.evals_since_retrain >= self.config.retrain_every.max(1);
        if retrain {
            self.evals_since_retrain = 0;
            self.diagnostics.retrains_at.push(self.xs.len());
        }
        self.first = false;
        let pending_from = self.synced;
        self.synced = self.xs.len();
        let carried = if retrain { None } else { self.gp.take() };
        let fitted = match carried {
            Some(gp) => {
                let result = self.update_incrementally(gp, pending_from);
                if result.is_err() {
                    // The carried model is lost mid-update (extend/downdate
                    // errors are already full-refit fallbacks, so the
                    // numerical state is desperate), but the *data* must
                    // not be: mark every pending observation retained so a
                    // retried call rebuilds from scratch on the full
                    // retained set instead of silently dropping points.
                    while self.active.last().is_some_and(|&i| i >= pending_from) {
                        self.active.pop();
                    }
                    self.active.extend(pending_from..self.xs.len());
                    self.evict_by_exclusion();
                }
                result
            }
            None => {
                self.active.extend(pending_from..self.xs.len());
                self.evict_by_exclusion();
                self.gp = None;
                let xs: Vec<X> = self.active.iter().map(|&i| self.xs[i].clone()).collect();
                let ys: Vec<f64> = self.active.iter().map(|&i| self.ys[i]).collect();
                let mut kernel = self.template.clone();
                kernel.set_params(&self.params);
                if retrain {
                    Gp::fit_with_adam(kernel, xs, ys, self.config.noise, &self.config.train)
                } else {
                    Gp::fit(kernel, xs, ys, self.config.noise)
                }
            }
        };
        let gp = fitted?;
        self.params = gp.kernel().params();
        self.gp = Some(gp);
        Ok(self.gp.as_ref().expect("model just stored"))
    }

    /// Folds pending observations into the carried factor (extends), then
    /// enforces the window (downdates). On error the carried model is
    /// consumed; the caller restores the retention bookkeeping.
    fn update_incrementally(
        &mut self,
        mut gp: Gp<K, X>,
        pending_from: usize,
    ) -> Result<Gp<K, X>, NotPositiveDefiniteError> {
        for i in pending_from..self.xs.len() {
            let (next, outcome) = gp.extend_with_outcome(self.xs[i].clone(), self.ys[i])?;
            gp = next;
            self.active.push(i);
            self.diagnostics.extends += 1;
            if outcome == UpdateOutcome::Refitted {
                self.diagnostics.fallback_refits += 1;
            }
        }
        if let Some(window) = self.config.window {
            while self.active.len() > window.max(1) {
                let victim = self.eviction_position();
                let (next, outcome) = gp.downdate(victim)?;
                gp = next;
                self.active.remove(victim);
                self.diagnostics.downdates += 1;
                if outcome == UpdateOutcome::Refitted {
                    self.diagnostics.fallback_refits += 1;
                }
            }
        }
        Ok(gp)
    }

    /// Shrinks the retained set to the window bound without touching any
    /// factor — the refit paths simply exclude the evicted points.
    fn evict_by_exclusion(&mut self) {
        if let Some(window) = self.config.window {
            while self.active.len() > window.max(1) {
                let victim = self.eviction_position();
                self.active.remove(victim);
            }
        }
    }

    /// The `active` position to evict next: the oldest retained point,
    /// unless it is the pinned incumbent (largest target, earliest on
    /// ties), in which case the second-oldest goes.
    fn eviction_position(&self) -> usize {
        debug_assert!(self.active.len() >= 2, "eviction needs two candidates");
        let mut best = 0;
        for (pos, &idx) in self.active.iter().enumerate() {
            if self.ys[idx] > self.ys[self.active[best]] {
                best = pos;
            }
        }
        usize::from(best == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;
    use crate::ssk::SskKernel;

    fn config(window: Option<usize>, retrain_every: usize) -> SurrogateConfig {
        SurrogateConfig {
            noise: 1e-4,
            retrain_every,
            window,
            train: TrainConfig {
                steps: 3,
                ..TrainConfig::default()
            },
        }
    }

    fn seq(seed: usize) -> Vec<u8> {
        (0..6).map(|i| ((seed * 7 + i * 3) % 11) as u8).collect()
    }

    #[test]
    fn retrain_cadence_counts_observations() {
        let mut s: Surrogate<SskKernel, Vec<u8>> =
            Surrogate::new(SskKernel::new(3), config(None, 4));
        for i in 0..6 {
            s.observe(seq(i), i as f64 * 0.1);
        }
        s.maybe_retrain().expect("fit"); // first call always retrains
        for i in 6..9 {
            s.observe(seq(i), i as f64 * 0.1);
            s.maybe_retrain().expect("fit");
        }
        // 6 observations at the first retrain, then 3 more: the second
        // retrain fires when 4 accumulate.
        s.observe(seq(9), 0.05);
        s.maybe_retrain().expect("fit");
        assert_eq!(s.diagnostics().retrains_at, vec![6, 10]);
        assert_eq!(s.diagnostics().extends, 3);
    }

    #[test]
    fn window_bounds_the_training_set_and_pins_the_incumbent() {
        let mut s: Surrogate<SskKernel, Vec<u8>> =
            Surrogate::new(SskKernel::new(3), config(Some(4), 100));
        // Observation 2 is the incumbent (largest target).
        let ys = [0.1, 0.2, 5.0, 0.3, 0.4, 0.5, 0.6, 0.7];
        for (i, &y) in ys.iter().enumerate() {
            s.observe(seq(i), y);
            s.maybe_retrain().expect("fit");
        }
        let retained = s.window_indices();
        assert_eq!(retained.len(), 4);
        assert!(
            retained.contains(&2),
            "incumbent evicted: retained {retained:?}"
        );
        assert_eq!(s.gp().expect("fitted").train_inputs().len(), 4);
        assert!(s.diagnostics().downdates >= 4);
    }

    #[test]
    fn window_none_retains_everything() {
        let mut s: Surrogate<SskKernel, Vec<u8>> =
            Surrogate::new(SskKernel::new(3), config(None, 100));
        for i in 0..10 {
            s.observe(seq(i), i as f64);
            s.maybe_retrain().expect("fit");
        }
        assert_eq!(s.window_indices().len(), 10);
        assert_eq!(s.diagnostics().downdates, 0);
    }

    #[test]
    fn non_incremental_path_respects_the_window_too() {
        // Retraining on every call: each call refits from scratch, so the
        // window is enforced by exclusion, never by a factor downdate.
        let mut s: Surrogate<SskKernel, Vec<u8>> =
            Surrogate::new(SskKernel::new(3), config(Some(3), 1));
        for i in 0..7 {
            s.observe(seq(i), -(i as f64));
            s.maybe_retrain().expect("fit");
        }
        assert_eq!(s.diagnostics().retrains_at, (1..=7).collect::<Vec<_>>());
        assert_eq!(s.gp().expect("fitted").train_inputs().len(), 3);
        // Incumbent is observation 0 (largest −i): pinned through every
        // eviction even on the refit path.
        assert!(s.window_indices().contains(&0));
        assert_eq!(s.diagnostics().downdates, 0, "refit path never downdates");
        assert_eq!(s.diagnostics().extends, 0);
    }

    /// Observes `points` after an initial design of four, `batch` at a
    /// time, and checks after every [`Surrogate::maybe_retrain`] that the
    /// carried model predicts exactly what a from-scratch [`Gp::fit`] at
    /// the surrogate's hyperparameters on its retained points predicts.
    fn assert_carried_model_is_a_scratch_fit<K, X>(
        kernel: K,
        points: &[(X, f64)],
        batch: usize,
        probes: &[X],
    ) where
        K: Kernel<X> + Clone,
        X: Clone,
    {
        let mut s = Surrogate::new(kernel.clone(), config(None, 5));
        let (design, rest) = points.split_at(4);
        for chunk in std::iter::once(design).chain(rest.chunks(batch)) {
            for (x, y) in chunk {
                s.observe(x.clone(), *y);
            }
            s.maybe_retrain().expect("fit");
            let retained = s.window_indices();
            let xs: Vec<X> = retained
                .iter()
                .map(|&i| s.observation(i).0.clone())
                .collect();
            let ys: Vec<f64> = retained.iter().map(|&i| s.observation(i).1).collect();
            let mut fitted = kernel.clone();
            fitted.set_params(s.params());
            let scratch = Gp::fit(fitted, xs, ys, 1e-4).expect("fit");
            let carried = s.gp().expect("fitted");
            for (p, probe) in probes.iter().enumerate() {
                let (m_c, v_c) = carried.predict(probe);
                let (m_s, v_s) = scratch.predict(probe);
                assert_eq!(
                    (m_c.to_bits(), v_c.to_bits()),
                    (m_s.to_bits(), v_s.to_bits()),
                    "probe {p} after {} observations: carried ({m_c}, {v_c}) vs scratch \
                     ({m_s}, {v_s})",
                    s.observations()
                );
            }
        }
        let diagnostics = s.diagnostics();
        assert!(diagnostics.retrains_at.len() >= 3, "{diagnostics:?}");
        assert!(diagnostics.extends > 0, "{diagnostics:?}");
    }

    #[test]
    fn unwindowed_extends_are_bit_identical_to_scratch_fits() {
        let ssk_points: Vec<(Vec<u8>, f64)> = (0..24)
            .map(|i| {
                let x = (0..6)
                    .map(|j| ((i * 7 + j * 3 + i * j * j) % 11) as u8)
                    .collect();
                (x, (i as f64 * 0.9).sin())
            })
            .collect();
        let ssk_probes: Vec<Vec<u8>> = (0..4).map(|i| seq(i * 5 + 1)).collect();
        let se_points: Vec<(Vec<f64>, f64)> = (0..24)
            .map(|i| {
                let t = i as f64;
                let x = vec![(t * 0.37).sin() * 2.0, (t * 0.61).cos(), t * 0.05];
                (x, (t * 0.9).sin())
            })
            .collect();
        let se_probes: Vec<Vec<f64>> = (0..4)
            .map(|i| vec![i as f64 * 0.4 - 0.6, 0.3, i as f64 * 0.3])
            .collect();
        for batch in [1, 4] {
            assert_carried_model_is_a_scratch_fit(
                SskKernel::new(3),
                &ssk_points,
                batch,
                &ssk_probes,
            );
            assert_carried_model_is_a_scratch_fit(
                SquaredExponential::new(3),
                &se_points,
                batch,
                &se_probes,
            );
        }
    }

    #[test]
    fn windowed_posterior_matches_scratch_fit_on_the_retained_window() {
        let mut s: Surrogate<SskKernel, Vec<u8>> =
            Surrogate::new(SskKernel::new(3), config(Some(5), 1000));
        for i in 0..12 {
            s.observe(seq(i), (i as f64 * 0.9).sin());
            s.maybe_retrain().expect("fit");
        }
        let gp = s.gp().expect("fitted");
        let xs: Vec<Vec<u8>> = s.window_indices().iter().map(|&i| seq(i)).collect();
        let ys: Vec<f64> = s
            .window_indices()
            .iter()
            .map(|&i| s.observation(i).1)
            .collect();
        let scratch = Gp::fit(gp.kernel().clone(), xs, ys, 1e-4).expect("fit");
        for probe in (0..4).map(|i| seq(i * 5 + 1)) {
            let (m_w, v_w) = gp.predict(&probe);
            let (m_s, v_s) = scratch.predict(&probe);
            assert!((m_w - m_s).abs() < 1e-8, "mean {m_w} vs {m_s}");
            assert!((v_w - v_s).abs() < 1e-8, "var {v_w} vs {v_s}");
        }
    }

    #[test]
    fn seeds_enter_the_model_without_advancing_the_retrain_cadence() {
        let mut s: Surrogate<SskKernel, Vec<u8>> =
            Surrogate::new(SskKernel::new(3), config(None, 4));
        for i in 0..3 {
            s.seed(seq(i + 20), -1.0 - i as f64 * 0.1);
        }
        for i in 0..4 {
            s.observe(seq(i), i as f64 * 0.1);
        }
        s.maybe_retrain().expect("fit");
        // All seven points are in the training set...
        assert_eq!(s.gp().expect("fitted").train_inputs().len(), 7);
        assert_eq!(s.diagnostics().seeded, 3);
        // ...but the cadence counts real observations only: the second
        // retrain fires after 4 more `observe` calls, exactly as it would
        // have without any seeds.
        for i in 4..8 {
            s.observe(seq(i), i as f64 * 0.1);
            s.maybe_retrain().expect("fit");
        }
        assert_eq!(s.diagnostics().retrains_at, vec![7, 11]);
    }

    #[test]
    fn batch_observations_cost_one_update_pass() {
        let mut s: Surrogate<SskKernel, Vec<u8>> =
            Surrogate::new(SskKernel::new(3), config(None, 1000));
        for i in 0..4 {
            s.observe(seq(i), i as f64 * 0.2);
        }
        s.maybe_retrain().expect("fit");
        for i in 4..8 {
            s.observe(seq(i), i as f64 * 0.2);
        }
        s.maybe_retrain().expect("fit");
        assert_eq!(s.diagnostics().extends, 4, "one extend per pending point");
        assert_eq!(s.gp().expect("fitted").train_inputs().len(), 8);
    }
}
