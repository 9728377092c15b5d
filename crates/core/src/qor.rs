//! The paper's quality-of-results objective (Eq. 1):
//! `QoR(seq) = Area(seq)/Area(ref) + Delay(seq)/Delay(ref)`, with area =
//! 6-LUT count and delay = LUT levels after FPGA mapping, normalised by the
//! `resyn2` reference flow.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use boils_aig::Aig;
use boils_mapper::{synth_stats, MapStats, MapperConfig, SynthStats};
use boils_synth::{resyn2, Transform};

use crate::control::RunControl;
use crate::eval::{SequenceObjective, ShardedCache};
use crate::fault::{FaultInjector, FaultOp};
use crate::prefix::{PersistentPrefixStore, PrefixCache, PrefixStats, DEFAULT_PREFIX_CAPACITY};

/// What the black box optimises — Eq. 1 by default; the paper's conclusion
/// notes BOiLS "can be utilised with other quantities of interest, e.g.,
/// area or delay disjointly", which these variants provide. Every variant
/// is a pure function of the cached [`SynthStats`], so switching objectives
/// reuses every cached synthesis result, in memory and on disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// The paper's Eq. 1: `area/area_ref + delay/delay_ref`.
    Qor,
    /// Area only: `2 · area/area_ref` (scaled so `resyn2` still scores 2).
    Area,
    /// Delay only: `2 · delay/delay_ref`.
    Delay,
    /// Pre-mapping AIG depth: `2 · levels/levels_ref` over AND levels.
    Levels,
    /// The raw 6-LUT count, unnormalised (absolute-area minimisation).
    LutCount,
    /// Convex combination: `2·(w·area/area_ref + (1−w)·delay/delay_ref)`.
    Weighted {
        /// The area weight `w ∈ [0, 1]`.
        area_weight: f64,
    },
}

impl Objective {
    /// The scalar cost of `stats` under this objective, normalised by the
    /// `resyn2` `reference`. For [`Objective::Qor`] the arithmetic is
    /// exactly Eq. 1 in the historical operation order, so default-objective
    /// trajectories are bit-identical across refactors.
    pub fn cost(self, stats: &SynthStats, reference: &SynthStats) -> f64 {
        match self {
            Objective::Qor => {
                stats.luts as f64 / reference.luts as f64
                    + stats.levels as f64 / reference.levels as f64
            }
            Objective::Area => 2.0 * (stats.luts as f64 / reference.luts as f64),
            Objective::Delay => 2.0 * (stats.levels as f64 / reference.levels as f64),
            Objective::Levels => {
                2.0 * (stats.aig_levels as f64 / reference.aig_levels.max(1) as f64)
            }
            Objective::LutCount => stats.luts as f64,
            Objective::Weighted { area_weight } => {
                2.0 * (area_weight * (stats.luts as f64 / reference.luts as f64)
                    + (1.0 - area_weight) * (stats.levels as f64 / reference.levels as f64))
            }
        }
    }

    /// The multi-objective cost vector: the paper's normalised
    /// `(area ratio, delay ratio)` pair, identical for every built-in —
    /// the 2-D front every scalarisation of Eq. 1 trades over.
    pub fn vector(self, stats: &SynthStats, reference: &SynthStats) -> Vec<f64> {
        vec![
            stats.luts as f64 / reference.luts as f64,
            stats.levels as f64 / reference.levels as f64,
        ]
    }

    /// The identifier accepted by [`Objective::parse`].
    pub fn name(self) -> String {
        match self {
            Objective::Qor => String::from("qor"),
            Objective::Area => String::from("area"),
            Objective::Delay => String::from("delay"),
            Objective::Levels => String::from("levels"),
            Objective::LutCount => String::from("lut"),
            Objective::Weighted { area_weight } => format!("weighted:{area_weight}"),
        }
    }

    /// Parses an objective name: `qor`, `area`, `delay`, `levels`, `lut`,
    /// or `weighted:W` with an area weight `W ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names or bad weights.
    pub fn parse(name: &str) -> Result<Objective, String> {
        match name {
            "qor" => Ok(Objective::Qor),
            "area" => Ok(Objective::Area),
            "delay" => Ok(Objective::Delay),
            "levels" => Ok(Objective::Levels),
            "lut" => Ok(Objective::LutCount),
            other => match other.strip_prefix("weighted:") {
                Some(w) => {
                    let area_weight: f64 = w
                        .parse()
                        .map_err(|_| format!("bad weighted objective weight {w:?}"))?;
                    if !(0.0..=1.0).contains(&area_weight) {
                        return Err(format!("area weight {area_weight} outside [0, 1]"));
                    }
                    Ok(Objective::Weighted { area_weight })
                }
                None => Err(format!(
                    "unknown objective {other:?} (expected qor|area|delay|levels|lut|weighted:W)"
                )),
            },
        }
    }
}

/// One evaluated point: the QoR value and the raw area/delay behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QorPoint {
    /// The combined objective of Eq. 1 (lower is better; `resyn2` scores 2).
    pub qor: f64,
    /// LUT count after mapping.
    pub area: usize,
    /// LUT levels after mapping.
    pub delay: u32,
}

impl QorPoint {
    /// Relative improvement over the `resyn2` reference in percent —
    /// the number reported in the paper's Figure 3 table:
    /// `(QoR(resyn2) − QoR) / QoR(resyn2) × 100`, with `QoR(resyn2) = 2`.
    pub fn improvement_percent(&self) -> f64 {
        (2.0 - self.qor) / 2.0 * 100.0
    }

    /// The worst-case sentinel recorded for a quarantined (panicked)
    /// evaluation: a finite QoR
    /// ([`QUARANTINE_QOR`](crate::eval::QUARANTINE_QOR)), so surrogate
    /// fits and comparisons stay sound. A run's result never selects it as
    /// the best point while a real record exists.
    pub fn quarantined() -> QorPoint {
        QorPoint {
            qor: crate::eval::QUARANTINE_QOR,
            area: 0,
            delay: 0,
        }
    }

    /// Whether this point is the quarantine sentinel.
    pub fn is_quarantined(&self) -> bool {
        self.qor == crate::eval::QUARANTINE_QOR
    }
}

/// Error constructing an evaluator: the reference mapping was degenerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegenerateReferenceError {
    /// The reference statistics that failed validation.
    pub reference: MapStats,
}

impl fmt::Display for DegenerateReferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reference mapping is degenerate ({}): QoR undefined",
            self.reference
        )
    }
}

impl std::error::Error for DegenerateReferenceError {}

/// Evaluates synthesis sequences on a fixed circuit, with memoisation.
///
/// The evaluator owns the original AIG and the `resyn2`-mapped reference
/// statistics; [`QorEvaluator::evaluate`] applies a sequence to the original
/// circuit, maps it with `if -K 6` semantics and returns Eq. 1. Results are
/// cached by sequence, and [`QorEvaluator::num_evaluations`] counts *unique*
/// black-box evaluations — the sample-complexity measure of the paper.
///
/// The cache is a thread-safe [`ShardedCache`], so one evaluator can be
/// shared across the [`RunLedger`](crate::RunLedger)'s worker
/// threads; this is the [`SequenceObjective`] implementation every
/// optimiser in the workspace evaluates through.
///
/// ```
/// use boils_circuits::{Benchmark, CircuitSpec};
/// use boils_core::QorEvaluator;
/// use boils_synth::Transform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let aig = CircuitSpec::new(Benchmark::BarrelShifter).bits(8).build();
/// let eval = QorEvaluator::new(&aig)?;
/// let point = eval.evaluate(&[Transform::Balance, Transform::Rewrite]);
/// assert!(point.qor > 0.0);
/// assert_eq!(eval.num_evaluations(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QorEvaluator {
    base: Aig,
    reference: SynthStats,
    objective: Objective,
    /// The memo table holds objective-independent raw synthesis
    /// statistics; costs are derived per lookup, so switching the
    /// objective reuses every cached entry. `Arc`-backed so forked
    /// evaluators ([`QorEvaluator::fork_with_objective`]) share one table.
    cache: Arc<ShardedCache<SynthStats>>,
    /// Intermediate-AIG store keyed by token prefix; `None` disables
    /// prefix reuse (every evaluation replays from `base`).
    prefix: Option<Arc<PrefixCache>>,
    /// Disk-backed second tier consulted behind the in-memory cache;
    /// `None` keeps everything process-local (the default).
    store: Option<Arc<PersistentPrefixStore>>,
    /// Deterministic fault injection (off by default; armed by
    /// `BOILS_FAULT_PLAN` or [`QorEvaluator::with_fault_injector`]).
    /// Shared with the attached store so one plan's operation ordinals
    /// span the whole stack.
    fault: Option<Arc<FaultInjector>>,
    unique_evaluations: AtomicUsize,
}

impl QorEvaluator {
    /// Builds an evaluator with the default 6-LUT mapper.
    ///
    /// # Errors
    ///
    /// Fails if the reference mapping has zero area or delay (a circuit with
    /// no logic), which would make Eq. 1 undefined.
    pub fn new(aig: &Aig) -> Result<QorEvaluator, DegenerateReferenceError> {
        let reference = synth_stats(&resyn2(aig), &MapperConfig::default());
        if reference.luts == 0 || reference.levels == 0 {
            return Err(DegenerateReferenceError {
                reference: reference.map_stats(),
            });
        }
        Ok(QorEvaluator {
            base: aig.clone(),
            reference,
            objective: Objective::Qor,
            cache: Arc::new(ShardedCache::new()),
            prefix: Some(Arc::new(PrefixCache::new(DEFAULT_PREFIX_CAPACITY))),
            store: None,
            fault: FaultInjector::from_env(),
            unique_evaluations: AtomicUsize::new(0),
        })
    }

    /// Arms (or, with `None`, disarms) deterministic fault injection,
    /// overriding any `BOILS_FAULT_PLAN` environment plan. The injector is
    /// propagated into an attached persistent store — attach it first or
    /// after, either order works.
    pub fn with_fault_injector(mut self, fault: Option<Arc<FaultInjector>>) -> QorEvaluator {
        self.fault = fault;
        self.store = self
            .store
            .map(|s| Arc::new(Self::unshare_store(s).with_fault_injector(self.fault.clone())));
        self
    }

    /// Unwraps a store `Arc` for a build-time reconfiguration. Builders
    /// run before the evaluator is forked, while the handle is unique.
    fn unshare_store(store: Arc<PersistentPrefixStore>) -> PersistentPrefixStore {
        Arc::try_unwrap(store)
            .expect("store builders must run before the evaluator is forked/shared")
    }

    /// Bounds the prefix cache to `capacity` intermediate AIGs.
    ///
    /// Prefix reuse is purely an accelerator — evaluations resume from the
    /// longest cached prefix instead of replaying every pass from the base
    /// circuit, with bit-identical results — so this knob only trades
    /// memory against replay work.
    pub fn with_prefix_capacity(mut self, capacity: usize) -> QorEvaluator {
        self.prefix = Some(Arc::new(PrefixCache::new(capacity)));
        self
    }

    /// Disables prefix reuse: every evaluation replays the whole sequence
    /// from the base circuit (the pre-cache behaviour; useful as a
    /// benchmarking baseline and for memory-constrained sweeps). Does not
    /// detach an attached persistent store.
    pub fn without_prefix_cache(mut self) -> QorEvaluator {
        self.prefix = None;
        self
    }

    /// Attaches a disk-backed [`PersistentPrefixStore`] at `dir` as a
    /// second cache tier behind the in-memory prefix cache.
    ///
    /// Lookups consult memory first, then disk; every newly synthesised
    /// intermediate is written through to both tiers. The store is keyed
    /// by the base circuit's [content hash](boils_aig::Aig::content_hash),
    /// so one directory can be shared by sweeps over seeds, methods,
    /// circuits and *processes* — any run with the same base circuit
    /// resumes from work an earlier run already did, with bit-identical
    /// results (disk entries are validated and restored structurally
    /// identical; a bad entry is dropped and recomputed, never trusted).
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or scanned.
    pub fn with_persistent_store(
        mut self,
        dir: impl AsRef<std::path::Path>,
    ) -> std::io::Result<QorEvaluator> {
        self.store = Some(Arc::new(
            PersistentPrefixStore::open_for(dir, &self.base)?
                .with_fault_injector(self.fault.clone()),
        ));
        Ok(self)
    }

    /// Caps the attached persistent store's byte budget (no-op without a
    /// store; see [`QorEvaluator::with_persistent_store`]).
    pub fn with_persistent_byte_budget(mut self, bytes: u64) -> QorEvaluator {
        self.store = self
            .store
            .map(|s| Arc::new(Self::unshare_store(s).with_byte_budget(bytes)));
        self
    }

    /// The attached persistent store, if any.
    pub fn persistent_store(&self) -> Option<&PersistentPrefixStore> {
        self.store.as_deref()
    }

    /// Replay-savings counters of the prefix cache (zeroes when disabled),
    /// including the disk-tier counters of an attached persistent store.
    pub fn prefix_stats(&self) -> PrefixStats {
        let mut stats = self
            .prefix
            .as_deref()
            .map(PrefixCache::stats)
            .unwrap_or_default();
        if let Some(store) = &self.store {
            store.merge_into(&mut stats);
        }
        stats
    }

    /// Number of intermediate AIGs currently cached.
    pub fn prefix_len(&self) -> usize {
        self.prefix.as_deref().map_or(0, PrefixCache::len)
    }

    /// The most similar *other* circuit with recorded history in the
    /// attached store's transfer metadata — the donor for an opt-in
    /// surrogate warm start. `None` without a store, without any donor,
    /// or when the store is in its breaker-tripped memory-only mode.
    pub fn transfer_donor(&self) -> Option<crate::TransferDonor> {
        let store = self.store.as_ref()?;
        store.transfer_donor(&boils_aig::CircuitFeatures::of(&self.base))
    }

    /// Records this run's `(tokens, qor)` history into the attached
    /// store's transfer metadata so *future* jobs on similar circuits can
    /// warm-start from it. Best-effort and a no-op without a store;
    /// existing records for this circuit are merged, keeping the best QoR
    /// per sequence.
    pub fn record_transfer_history(&self, history: &[crate::EvalRecord]) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        let observations: Vec<(Vec<u8>, f64)> = history
            .iter()
            .filter(|r| !r.point.is_quarantined())
            .map(|r| (r.tokens.clone(), r.point.qor))
            .collect();
        if observations.is_empty() {
            return;
        }
        store.record_transfer(&boils_aig::CircuitFeatures::of(&self.base), &observations);
    }

    /// Switches the optimised quantity.
    ///
    /// The cache is *kept*: it memoises objective-independent [`SynthStats`],
    /// so every synthesis result computed under the previous objective is
    /// reused by the new one (including an attached persistent store's
    /// on-disk intermediates).
    ///
    /// # Panics
    ///
    /// Panics if a [`Objective::Weighted`] weight is outside `[0, 1]`.
    pub fn with_objective(mut self, objective: Objective) -> QorEvaluator {
        self.objective = checked_weight(objective);
        self
    }

    /// The circuit being optimised.
    pub fn circuit(&self) -> &Aig {
        &self.base
    }

    /// The `resyn2` reference statistics normalising Eq. 1.
    pub fn reference(&self) -> MapStats {
        self.reference.map_stats()
    }

    /// The full `resyn2` reference record, including AIG structure.
    pub fn reference_stats(&self) -> SynthStats {
        self.reference
    }

    /// Projects a synthesis record onto the objective.
    fn point_of(&self, stats: &SynthStats) -> QorPoint {
        QorPoint {
            qor: self.objective.cost(stats, &self.reference),
            area: stats.luts,
            delay: stats.levels,
        }
    }

    /// Evaluates a sequence of transforms.
    pub fn evaluate(&self, sequence: &[Transform]) -> QorPoint {
        let tokens: Vec<u8> = sequence.iter().map(|t| t.index() as u8).collect();
        self.evaluate_tokens(&tokens)
    }

    /// Evaluates a token-encoded sequence (`token = Transform::ALL` index).
    ///
    /// # Panics
    ///
    /// Panics if a token is outside `0..11`.
    pub fn evaluate_tokens(&self, tokens: &[u8]) -> QorPoint {
        self.point_of(&self.stats_of(tokens))
    }

    /// Evaluates a token-encoded sequence to its raw, objective-independent
    /// synthesis statistics — the value actually memoised; every cost is
    /// derived from this record.
    ///
    /// # Panics
    ///
    /// Panics if a token is outside `0..11`.
    pub fn stats_of(&self, tokens: &[u8]) -> SynthStats {
        self.memoised(tokens, None)
            .expect("an uncontrolled evaluation always completes")
    }

    /// The memoised statistics of `tokens`, computed and inserted on a
    /// miss; `None` only when `control` interrupted the computation.
    fn memoised(&self, tokens: &[u8], control: Option<&RunControl>) -> Option<SynthStats> {
        if let Some(hit) = self.cache.get(tokens) {
            return Some(hit);
        }
        let stats = self.compute(tokens, control)?;
        // The value is a pure function of the tokens, so a concurrent
        // duplicate computation is harmless — but only the thread whose
        // insert lands first may bump the unique-evaluation count, keeping
        // the paper's sample-efficiency accounting exact under any
        // interleaving.
        if self.cache.insert(tokens.to_vec(), stats) {
            self.unique_evaluations.fetch_add(1, Ordering::Relaxed);
        }
        Some(stats)
    }

    /// Applies the sequence and maps the result — the uncached hot path.
    ///
    /// With the prefix cache enabled, the replay resumes from the longest
    /// cached token prefix and each newly reached intermediate AIG is
    /// stored for later candidates (shared across the
    /// [`RunLedger`](crate::RunLedger)'s worker threads). An
    /// attached [`PersistentPrefixStore`] acts as a second tier: memory is
    /// consulted first, then disk for strictly longer prefixes, and newly
    /// reached intermediates are written through to both. Every transform
    /// is a deterministic function of its input AIG and disk restores are
    /// structurally identical to what was written, so the mapped result is
    /// bit-identical to a full replay — with the store on, off, or
    /// pre-warmed by a different process.
    ///
    /// A `control`, when present, is polled between synthesis passes, so
    /// even a long sequence on a large circuit stops within one transform
    /// of the cancellation. Returns `None` only when interrupted — nothing
    /// partial is published to the value cache, though intermediates
    /// synthesised before the stop stay in the prefix tiers (they are pure
    /// functions of their token prefix, so a later replay reuses them
    /// bit-identically).
    fn compute(&self, tokens: &[u8], control: Option<&RunControl>) -> Option<SynthStats> {
        if let Some(injector) = &self.fault {
            if let Some(kind) = injector.next_fault(FaultOp::Eval) {
                panic!(
                    "injected fault: eval {kind:?} (op {})",
                    injector.op_count(FaultOp::Eval)
                );
            }
        }
        // Deepest in-memory prefix first (cheapest tier).
        let (mut start, mut current) = match self
            .prefix
            .as_ref()
            .and_then(|cache| cache.longest_prefix(tokens))
        {
            Some((len, aig)) => (len, aig),
            None => (0, Arc::new(self.base.clone())),
        };
        // Disk tier: only worth a read for strictly longer prefixes; a
        // restored intermediate is published to the memory cache so the
        // next candidate sharing it skips the disk entirely.
        if start < tokens.len() {
            if let Some(store) = &self.store {
                if let Some((len, aig)) = store.longest_prefix(tokens, start) {
                    let aig = Arc::new(aig);
                    if let Some(cache) = &self.prefix {
                        cache.insert(&tokens[..len], Arc::clone(&aig));
                    }
                    start = len;
                    current = aig;
                }
            }
        }
        for (applied, &t) in tokens.iter().enumerate().skip(start) {
            if let Some(control) = control {
                if control.stop_reason().is_some() {
                    return None;
                }
            }
            current = Arc::new(Transform::from_index(t as usize).apply(&current));
            if let Some(cache) = &self.prefix {
                cache.insert(&tokens[..=applied], Arc::clone(&current));
            }
            if let Some(store) = &self.store {
                store.store(&tokens[..=applied], &current);
            }
        }
        if let Some(cache) = &self.prefix {
            cache.record_replay(start, tokens.len() - start);
        }
        Some(synth_stats(&current, &MapperConfig::default()))
    }

    /// The number of unique (non-cached) black-box evaluations so far.
    pub fn num_evaluations(&self) -> usize {
        self.unique_evaluations.load(Ordering::Relaxed)
    }

    /// The number of cache hits served so far (memoised lookups).
    pub fn cache_hits(&self) -> usize {
        self.cache.hits()
    }

    /// Whether a token sequence has already been evaluated.
    pub fn is_cached(&self, tokens: &[u8]) -> bool {
        self.cache.contains(tokens)
    }

    /// A new evaluator handle optimising `objective` and sharing every
    /// cache tier with `self` — the value memo table, the in-memory prefix
    /// cache, an attached persistent store, and the fault injector — with
    /// a fresh unique-evaluation counter.
    ///
    /// This is the multi-tenant seam: a daemon forks one template per job,
    /// so concurrent jobs on the same circuit warm each other's caches
    /// while each job's [`QorEvaluator::num_evaluations`] counts only the
    /// synthesis work *that job's* insert won. Caching never changes
    /// values (every tier is a pure accelerator), so a forked job's
    /// trajectory is bit-identical to a solo run with the same seed. The
    /// shared memo table holds objective-independent [`SynthStats`], so a
    /// `lut`-objective fork reuses every synthesis result a `qor` job
    /// already computed (and vice versa).
    ///
    /// # Panics
    ///
    /// Panics if a [`Objective::Weighted`] weight is outside `[0, 1]`.
    pub fn fork_with_objective(&self, objective: Objective) -> QorEvaluator {
        QorEvaluator {
            base: self.base.clone(),
            reference: self.reference,
            objective: checked_weight(objective),
            cache: Arc::clone(&self.cache),
            prefix: self.prefix.clone(),
            store: self.store.clone(),
            fault: self.fault.clone(),
            unique_evaluations: AtomicUsize::new(0),
        }
    }
}

/// `objective`, once a [`Objective::Weighted`] weight is checked to lie in
/// `[0, 1]` (panics otherwise).
fn checked_weight(objective: Objective) -> Objective {
    if let Objective::Weighted { area_weight } = objective {
        assert!(
            (0.0..=1.0).contains(&area_weight),
            "area weight must be in [0, 1]"
        );
    }
    objective
}

impl SequenceObjective for QorEvaluator {
    fn evaluate_tokens(&self, tokens: &[u8]) -> QorPoint {
        QorEvaluator::evaluate_tokens(self, tokens)
    }

    fn evaluate_tokens_controlled(&self, tokens: &[u8], control: &RunControl) -> Option<QorPoint> {
        self.memoised(tokens, Some(control))
            .map(|stats| self.point_of(&stats))
    }

    fn lookup(&self, tokens: &[u8]) -> Option<QorPoint> {
        self.cache.get(tokens).map(|stats| self.point_of(&stats))
    }

    fn is_cached(&self, tokens: &[u8]) -> bool {
        QorEvaluator::is_cached(self, tokens)
    }

    fn num_evaluations(&self) -> usize {
        QorEvaluator::num_evaluations(self)
    }

    fn cost_name(&self) -> String {
        self.objective.name()
    }

    fn vector_of(&self, tokens: &[u8]) -> Option<Vec<f64>> {
        // `peek` instead of `get`: re-projecting an already-evaluated
        // sequence is not a fresh cache hit.
        self.cache
            .peek(tokens)
            .map(|stats| self.objective.vector(&stats, &self.reference))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;

    fn evaluator() -> QorEvaluator {
        let aig = random_aig(3, 8, 400, 4);
        QorEvaluator::new(&aig).expect("reference is non-degenerate")
    }

    #[test]
    fn empty_sequence_scores_the_unoptimised_circuit() {
        let eval = evaluator();
        let p = eval.evaluate(&[]);
        assert!(p.qor > 0.0);
        assert!(p.area > 0);
    }

    #[test]
    fn caching_deduplicates_evaluations() {
        let eval = evaluator();
        let seq = [Transform::Balance, Transform::Rewrite];
        let a = eval.evaluate(&seq);
        let b = eval.evaluate(&seq);
        assert_eq!(a, b);
        assert_eq!(eval.num_evaluations(), 1);
        eval.evaluate(&[Transform::Balance]);
        assert_eq!(eval.num_evaluations(), 2);
    }

    #[test]
    fn resyn2_like_sequence_approaches_reference_qor() {
        let eval = evaluator();
        // The exact resyn2 recipe must reproduce QoR = 2 by construction.
        let resyn2_seq = [
            Transform::Balance,
            Transform::Rewrite,
            Transform::Refactor,
            Transform::Balance,
            Transform::Rewrite,
            Transform::RewriteZ,
            Transform::Balance,
            Transform::RefactorZ,
            Transform::RewriteZ,
            Transform::Balance,
        ];
        let p = eval.evaluate(&resyn2_seq);
        assert!((p.qor - 2.0).abs() < 1e-12, "qor {}", p.qor);
        assert!(p.improvement_percent().abs() < 1e-9);
    }

    #[test]
    fn improvement_percent_matches_definition() {
        let p = QorPoint {
            qor: 1.5,
            area: 10,
            delay: 3,
        };
        assert!((p.improvement_percent() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_objectives_follow_their_metric() {
        let aig = random_aig(3, 8, 400, 4);
        let qor_eval = QorEvaluator::new(&aig).expect("ok");
        let area_eval = QorEvaluator::new(&aig)
            .expect("ok")
            .with_objective(Objective::Area);
        let delay_eval = QorEvaluator::new(&aig)
            .expect("ok")
            .with_objective(Objective::Delay);
        let seq = [Transform::Resub, Transform::Rewrite];
        let q = qor_eval.evaluate(&seq);
        let a = area_eval.evaluate(&seq);
        let d = delay_eval.evaluate(&seq);
        // Raw measurements are identical; only the scalarisation differs.
        assert_eq!((q.area, q.delay), (a.area, a.delay));
        assert_eq!((q.area, q.delay), (d.area, d.delay));
        let r = qor_eval.reference();
        assert_eq!(
            q.qor,
            q.area as f64 / r.luts as f64 + q.delay as f64 / r.levels as f64
        );
        assert!((a.qor - 2.0 * q.area as f64 / r.luts as f64).abs() < 1e-12);
        assert!((d.qor - 2.0 * q.delay as f64 / r.levels as f64).abs() < 1e-12);
        // Weighted with w = 0.5 reproduces Eq. 1.
        let w_eval = QorEvaluator::new(&aig)
            .expect("ok")
            .with_objective(Objective::Weighted { area_weight: 0.5 });
        let w = w_eval.evaluate(&seq);
        assert!((w.qor - q.qor).abs() < 1e-12);
        let lut = QorEvaluator::new(&aig)
            .expect("ok")
            .with_objective(Objective::LutCount)
            .evaluate(&seq);
        assert_eq!(lut.qor, q.area as f64);
        let levels_eval = QorEvaluator::new(&aig)
            .expect("ok")
            .with_objective(Objective::Levels);
        let l = levels_eval.evaluate(&seq);
        let tokens: Vec<u8> = seq.iter().map(|t| t.index() as u8).collect();
        let (stats, reference) = (levels_eval.stats_of(&tokens), levels_eval.reference_stats());
        assert_eq!(
            l.qor,
            2.0 * (stats.aig_levels as f64 / reference.aig_levels as f64)
        );
        // Every objective shares the paper's (area ratio, delay ratio) vector.
        assert_eq!(
            levels_eval.vector_of(&tokens),
            Some(vec![
                q.area as f64 / r.luts as f64,
                q.delay as f64 / r.levels as f64
            ])
        );
    }

    fn stats(luts: usize, levels: u32) -> SynthStats {
        SynthStats {
            luts,
            levels,
            aig_nodes: luts * 3,
            aig_levels: levels + 2,
        }
    }

    #[test]
    fn builtin_qor_matches_eq1() {
        let (objective, reference) = (Objective::Qor, stats(100, 10));
        let s = stats(50, 5);
        assert_eq!(objective.cost(&s, &reference), 50.0 / 100.0 + 5.0 / 10.0);
        assert_eq!(objective.vector(&s, &reference), vec![0.5, 0.5]);
        assert_eq!(objective.name(), "qor");
    }

    #[test]
    fn lut_count_is_the_raw_area() {
        let objective = Objective::LutCount;
        assert_eq!(objective.cost(&stats(42, 9), &stats(100, 10)), 42.0);
        assert_eq!(objective.name(), "lut");
    }

    #[test]
    fn parse_reads_back_every_name() {
        for objective in [
            Objective::Qor,
            Objective::Area,
            Objective::Delay,
            Objective::Levels,
            Objective::LutCount,
            Objective::Weighted { area_weight: 0.25 },
        ] {
            assert_eq!(Objective::parse(&objective.name()), Ok(objective));
        }
        assert!(Objective::parse("weighted:1.5").is_err());
        assert!(Objective::parse("weighted:nan").is_err());
    }

    #[test]
    fn prefix_cached_evaluation_is_bit_identical_to_uncached() {
        let aig = random_aig(41, 8, 400, 4);
        let cached = QorEvaluator::new(&aig).expect("ok");
        let uncached = QorEvaluator::new(&aig).expect("ok").without_prefix_cache();
        // Sequences engineered to share prefixes (the optimisers' common
        // case) and to diverge early (the cache's worst case).
        let sequences: Vec<Vec<u8>> = vec![
            vec![6, 0, 2],
            vec![6, 0, 2, 5],
            vec![6, 0, 3, 5],
            vec![1, 6, 0, 2],
            vec![6],
            vec![6, 0, 2, 5, 7, 9],
        ];
        for seq in &sequences {
            assert_eq!(
                cached.evaluate_tokens(seq),
                uncached.evaluate_tokens(seq),
                "prefix reuse changed the value of {seq:?}"
            );
        }
        let stats = cached.prefix_stats();
        assert!(stats.prefix_hits >= 3, "stats: {stats:?}");
        assert!(stats.passes_saved >= 3, "stats: {stats:?}");
        // The uncached evaluator replays everything.
        assert_eq!(
            uncached.prefix_stats(),
            crate::prefix::PrefixStats::default()
        );
        assert_eq!(uncached.prefix_len(), 0);
        assert!(cached.prefix_len() > 0);
    }

    #[test]
    fn degenerate_circuit_is_rejected() {
        // A circuit with no logic at all maps to zero LUTs.
        let mut aig = Aig::new(2);
        let a = aig.pi(0);
        aig.add_po(a);
        assert!(QorEvaluator::new(&aig).is_err());
    }
}
