//! The one Bayesian-optimisation loop behind [`Boils`](crate::Boils) and
//! [`Sbo`](crate::Sbo): paper Algorithm 2, configured by one
//! [`BoilsConfig`] with four parts left to the method.
//!
//! * The **kernel** over token sequences: the SSK for BOiLS, the SE kernel
//!   of the one-hot embedding for SBO.
//! * The Hamming **trust region** (BOiLS), or none.
//! * The **acquisition** function: BOiLS's configured one, or expected
//!   improvement.
//! * The **warm start** (BOiLS), or none.
//!
//! The rest is shared: the Latin-hypercube design with warm-start seeds,
//! the scalar or ParEGO surrogate, constant-liar batches, the freshness
//! guard, and evaluation through a prefix-aware [`RunLedger`] under a
//! [`RunControl`].

use boils_gp::{
    expected_improvement, hypervolume_improvement_2d, ConstantLiar, Gp, Kernel, Scalarisation,
    Surrogate, SurrogateConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::boils::{
    fresh_candidate, hill_climb, Acquisition, BoilsConfig, FreshOutcome, RunBoilsError,
    RunDiagnostics, WarmStart,
};
use crate::control::{RunControl, StopReason};
use crate::eval::{RunLedger, SequenceObjective, QUARANTINE_QOR};
use crate::result::{EvalRecord, OptimizationResult};

/// One BO run: the shared configuration and the four parts BOiLS and SBO
/// set differently. [`BoLoop::run`] executes it.
pub(crate) struct BoLoop<'a, K> {
    pub config: &'a BoilsConfig,
    /// The kernel template every fit clones.
    pub kernel: K,
    /// BOiLS's Hamming trust region (lines 4 and 10 of Algorithm 2). The
    /// radius starts at `K`, grows after `success_tolerance` consecutive
    /// improving batches, shrinks after `fail_tolerance` consecutive
    /// others, and restarts at `K` once it collapses to zero. `false`
    /// searches the whole space: no radius, no restarts.
    pub trust_region: bool,
    pub acquisition: Acquisition,
    pub warm_start: Option<&'a WarmStart>,
}

/// What the surrogate is trained on, and its state across iterations.
#[allow(clippy::large_enum_variant)] // one per run
enum Model<K> {
    /// The scalar cost, through one [`Surrogate`] carried across the run
    /// (retrain cadence, extends, window, warm-start observations). The
    /// region follows the best point since its last restart, and a
    /// collapsed region restarts from one random evaluated sequence.
    Carried(Surrogate<K, Vec<u8>>),
    /// ParEGO ([`BoilsConfig::multi_objective`]): every iteration draws a
    /// random-weight augmented-Chebyshev [`Scalarisation`] of the cost
    /// vectors and fits a GP to it from scratch, so the weights sweep the
    /// whole Pareto front. The region centres on the draw's best point, is
    /// judged by 2-D hypervolume improvement, and restarts without an
    /// evaluation.
    ParEgo {
        kernel: K,
        /// Every evaluation's cost vector, in history order.
        vectors: Vec<Vec<f64>>,
        dim: usize,
        /// Fixed after the design, so hypervolume gains compare across
        /// the whole run.
        reference: (f64, f64),
    },
}

impl<K: Kernel<Vec<u8>> + Clone> BoLoop<'_, K> {
    /// Runs the loop against `objective`, checking `control` before every
    /// batch (cancellation and quarantine follow [`RunLedger`]), and resets
    /// `diagnostics` to this run's counters.
    pub(crate) fn run<O: SequenceObjective>(
        self,
        objective: &O,
        control: &RunControl,
        diagnostics: &mut RunDiagnostics,
    ) -> Result<OptimizationResult, RunBoilsError> {
        *diagnostics = RunDiagnostics::default();
        let cfg = self.config;
        let budget = cfg.max_evaluations;
        if budget < cfg.initial_samples.max(2) {
            return Err(RunBoilsError::BudgetTooSmall {
                budget,
                initial: cfg.initial_samples,
            });
        }
        let space = cfg.space;
        let mut ledger = RunLedger::new(objective, cfg.threads, control);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // -- Initial design (line 3), evaluated as one prefix-aware batch.
        let initial = self.design(&mut rng);
        if ledger.evaluate_grouped(&initial).is_empty() {
            return Err(RunBoilsError::Interrupted(
                ledger.stopped().unwrap_or(StopReason::Cancelled),
            ));
        }
        let history = ledger.history();
        let mut model = if cfg.multi_objective {
            let vectors: Vec<Vec<f64>> = history.iter().map(|r| mo_vector(objective, r)).collect();
            let dim = vectors
                .iter()
                .find(|v| v.first().copied().unwrap_or(QUARANTINE_QOR) < QUARANTINE_QOR)
                .map_or(2, Vec::len);
            Model::ParEgo {
                kernel: self.kernel,
                reference: mo_reference(&vectors),
                vectors,
                dim,
            }
        } else {
            let surrogate_config = SurrogateConfig {
                noise: cfg.noise,
                retrain_every: cfg.retrain_every,
                window: cfg.surrogate_window,
                train: cfg.train.clone(),
            };
            let mut surrogate = Surrogate::new(self.kernel, surrogate_config);
            // Donor observations enter the GP first, as prior shape
            // only. A sequence the design evaluated on this circuit is
            // skipped: its exact value is in the history.
            let donors = self.warm_start.map_or(&[][..], |w| &w.observations[..]);
            for (tokens, qor) in donors {
                if tokens.is_empty()
                    || !qor.is_finite()
                    || history.iter().any(|r| &r.tokens == tokens)
                {
                    continue;
                }
                surrogate.seed(tokens.clone(), -qor);
            }
            let mut model = Model::Carried(surrogate);
            model.observe(objective, history);
            model
        };
        // The scalar model's region centre: the best point since
        // the last restart.
        let mut center = best_of(history).clone();
        let (mut radius, mut successes, mut failures) = (space.length(), 0, 0);

        // -- Optimisation loop (lines 6-11).
        while ledger.history().len() < budget && ledger.stopped().is_none() {
            let history = ledger.history();
            let fitted;
            let (gp, incumbent, centre) = match &mut model {
                Model::Carried(surrogate) => {
                    let incumbent = history
                        .iter()
                        .map(|r| -r.point.qor)
                        .fold(f64::NEG_INFINITY, f64::max);
                    let gp = surrogate.maybe_retrain()?;
                    (gp, incumbent, center.tokens.as_slice())
                }
                Model::ParEgo {
                    kernel,
                    vectors,
                    dim,
                    ..
                } => {
                    let scalarisation = Scalarisation::sample(*dim, &mut rng);
                    let ys: Vec<f64> = vectors
                        .iter()
                        .map(|v| -scalarisation.scalarise(v))
                        .collect();
                    let incumbent = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let best = ys
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scalarised cost"))
                        .map(|(i, _)| i)
                        .expect("non-empty history");
                    let xs = history.iter().map(|r| r.tokens.clone()).collect();
                    fitted = Gp::fit(kernel.clone(), xs, ys, cfg.noise)?;
                    (&fitted, incumbent, history[best].tokens.as_slice())
                }
            };
            let tr = self.trust_region.then_some((centre, radius));
            let q = cfg.batch_size.max(1).min(budget - history.len());

            // -- Acquisition maximisation (line 8): q candidates via the
            // constant liar. For `q == 1` no lie is ever told (the liar
            // never clones the GP) and this is the sequential algorithm.
            let mut liar = ConstantLiar::new(gp, incumbent);
            let mut batch: Vec<Vec<u8>> = Vec::with_capacity(q);
            for proposed in 0..q {
                let posterior = liar.model();
                let score = |tokens: &Vec<u8>| {
                    let (mean, var) = posterior.predict(tokens);
                    match self.acquisition {
                        Acquisition::ExpectedImprovement => {
                            expected_improvement(mean, var, incumbent)
                        }
                        Acquisition::UpperConfidenceBound { beta } => {
                            mean + beta * var.max(0.0).sqrt()
                        }
                    }
                };
                let candidate = hill_climb(
                    &space,
                    tr,
                    &score,
                    cfg.acq_restarts,
                    cfg.acq_steps,
                    cfg.acq_neighbors,
                    &mut rng,
                );
                // Never spend budget on an evaluated or pending sequence.
                let (candidate, outcome) =
                    fresh_candidate(objective, &space, tr, &batch, candidate, &mut rng);
                match outcome {
                    FreshOutcome::Swept => diagnostics.sweep_rescues += 1,
                    FreshOutcome::Exhausted => diagnostics.duplicate_evals += 1,
                    FreshOutcome::Direct | FreshOutcome::Resampled => {}
                }
                if proposed + 1 < q {
                    // A failed lie leaves the scratch model at the base GP;
                    // the freshness guard still keeps proposals distinct.
                    let _ = liar.accept(candidate.clone());
                }
                batch.push(candidate);
            }
            drop(liar);
            diagnostics.batches += 1;

            // -- Evaluate and update data (line 9): the lies are gone, so
            // the model sees only real outcomes.
            let batch_start = history.len();
            let records = ledger.evaluate_grouped(&batch);
            let interrupted = records.len() < batch.len();
            model.observe(objective, records);
            if interrupted {
                break;
            }

            // -- Trust-region schedule (line 10): the batch is one
            // acquisition decision, so it advances the schedule one step.
            if !self.trust_region {
                continue;
            }
            let improved = match &model {
                Model::Carried(_) => {
                    let best_new = best_of(records);
                    let improved = best_new.point.qor < center.point.qor;
                    if improved {
                        center = best_new.clone();
                    }
                    improved
                }
                Model::ParEgo {
                    vectors,
                    dim,
                    reference,
                    ..
                } => {
                    // Any point growing the pre-batch front's dominated
                    // hypervolume is a success.
                    let front_before = mo_points(&vectors[..batch_start]);
                    *dim == 2
                        && mo_points(&vectors[batch_start..])
                            .into_iter()
                            .any(|p| hypervolume_improvement_2d(&front_before, p, *reference) > 0.0)
                }
            };
            if improved {
                successes += 1;
                failures = 0;
                if successes >= cfg.success_tolerance {
                    radius = (radius + 1).min(space.length());
                    successes = 0;
                }
            } else {
                successes = 0;
                failures += 1;
                if failures >= cfg.fail_tolerance {
                    radius = radius.saturating_sub(1);
                    failures = 0;
                }
            }
            if radius > 0 {
                continue;
            }
            (radius, successes, failures) = (space.length(), 0, 0);
            // Restart. ParEGO re-centres every iteration anyway; the
            // scalar model centres a fresh region on a random point,
            // evaluated (so it counts against the budget) through the
            // ledger like every other evaluation.
            if !matches!(model, Model::Carried(_)) || ledger.history().len() >= budget {
                continue;
            }
            let tokens = space.sample(&mut rng);
            if objective.is_cached(&tokens) {
                continue;
            }
            let records = ledger.evaluate(std::slice::from_ref(&tokens));
            if let Some(record) = records.first() {
                model.observe(objective, records);
                center = record.clone();
            }
        }
        if let Model::Carried(surrogate) = &model {
            diagnostics.retrains_at = surrogate.diagnostics().retrains_at.clone();
            diagnostics.surrogate = surrogate.diagnostics().clone();
        }
        let mut result = ledger.finish(&space).expect("the design resolved");
        result.surrogate = Some(diagnostics.surrogate.clone());
        Ok(result)
    }

    /// The initial design: a deduplicated Latin hypercube over categories,
    /// whose leading rows warm-start seeds then overwrite (at most half of
    /// them). The hypercube is drawn first, so the RNG consumes exactly the
    /// draws an unseeded run would, and every seed is re-evaluated on this
    /// circuit with the rest of the design.
    fn design(&self, rng: &mut StdRng) -> Vec<Vec<u8>> {
        let cfg = self.config;
        let space = cfg.space;
        let mut initial: Vec<Vec<u8>> = Vec::with_capacity(cfg.initial_samples);
        for tokens in space.latin_hypercube(cfg.initial_samples, rng) {
            if initial.len() >= cfg.max_evaluations {
                break;
            }
            if !initial.contains(&tokens) {
                initial.push(tokens);
            }
        }
        let valid = |tokens: &[u8]| {
            tokens.len() == space.length()
                && tokens.iter().all(|&t| usize::from(t) < space.alphabet())
        };
        let cap = initial.len().div_ceil(2);
        let mut slot = 0;
        for seed in self.warm_start.map_or(&[][..], |w| &w.seeds[..]) {
            if slot >= cap {
                break;
            }
            if valid(seed) && !initial.contains(seed) {
                initial[slot] = seed.clone();
                slot += 1;
            }
        }
        initial
    }
}

impl<K: Kernel<Vec<u8>> + Clone> Model<K> {
    /// Feeds evaluated records to the model: `−cost` to the surrogate, or
    /// the cost vectors to ParEGO's archive.
    fn observe<O: SequenceObjective>(&mut self, objective: &O, records: &[EvalRecord]) {
        match self {
            Model::Carried(surrogate) => {
                for r in records {
                    surrogate.observe(r.tokens.clone(), -r.point.qor);
                }
            }
            Model::ParEgo { vectors, .. } => {
                vectors.extend(records.iter().map(|r| mo_vector(objective, r)));
            }
        }
    }
}

fn best_of(history: &[EvalRecord]) -> &EvalRecord {
    history
        .iter()
        .min_by(|a, b| a.point.qor.partial_cmp(&b.point.qor).expect("finite QoR"))
        .expect("non-empty history")
}

/// The cost vector of one evaluated record: the objective's own vector
/// when it can produce one, otherwise the raw `(area, delay)` pair.
/// Quarantined sentinels map to a worst-case vector, so they can never
/// join (or distort) the nondominated archive.
fn mo_vector<O: SequenceObjective>(objective: &O, record: &EvalRecord) -> Vec<f64> {
    if record.point.is_quarantined() {
        return vec![QUARANTINE_QOR; 2];
    }
    objective
        .vector_of(&record.tokens)
        .unwrap_or_else(|| vec![record.point.area as f64, record.point.delay as f64])
}

/// A hypervolume reference: componentwise 1.1× the worst
/// non-quarantined cost.
fn mo_reference(vectors: &[Vec<f64>]) -> (f64, f64) {
    let points = mo_points(vectors);
    if points.is_empty() {
        return (QUARANTINE_QOR, QUARANTINE_QOR);
    }
    let worst = points
        .iter()
        .fold((0.0f64, 0.0f64), |w, p| (w.0.max(p.0), w.1.max(p.1)));
    (worst.0 * 1.1 + 1e-9, worst.1 * 1.1 + 1e-9)
}

/// The 2-D projections of the non-quarantined cost vectors in `vectors`.
fn mo_points(vectors: &[Vec<f64>]) -> Vec<(f64, f64)> {
    vectors
        .iter()
        .filter(|v| v.len() == 2 && v[0] < QUARANTINE_QOR)
        .map(|v| (v[0], v[1]))
        .collect()
}
