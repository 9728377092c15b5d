//! The unified evaluation engine shared by every optimiser.
//!
//! The paper's bottleneck — and the cost model every compared method
//! optimises around — is the black-box QoR evaluation: apply a synthesis
//! sequence, map to 6-LUTs, score Eq. 1. This module concentrates that hot
//! path behind three pieces:
//!
//! * [`SequenceObjective`] — the trait every optimiser evaluates through
//!   (`tokens → QorPoint`), implemented by
//!   [`QorEvaluator`](crate::QorEvaluator) and by test doubles.
//! * [`ShardedCache`] — a thread-safe memo table (`RwLock`-sharded hash
//!   map) replacing the old single-threaded `RefCell` cache, with hit
//!   accounting.
//! * [`RunLedger`] — the one place a run spends its budget. It evaluates
//!   each batch of candidate sequences across `std::thread::scope` workers
//!   with deterministic results: records come back in input order,
//!   within-batch duplicates are computed once, and the unique-evaluation
//!   count (the paper's sample-efficiency x-axis) is independent of the
//!   thread count. The [`evaluate_grouped`](RunLedger::evaluate_grouped)
//!   path additionally schedules shared-prefix candidates onto the same
//!   worker so intra-batch prefix-cache reuse is guaranteed rather than
//!   racy. The ledger keeps the run's history, quarantine list and stop
//!   reason, and assembles its result.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::control::{RunControl, StopReason};
use crate::qor::QorPoint;
use crate::result::{EvalRecord, OptimizationResult, Termination};
use crate::space::SequenceSpace;

/// Read-locks ignoring poisoning. Every lock in this crate guards memo
/// data whose values are pure functions of their keys, so the worst a
/// panicked writer can leave behind is a missing entry — recomputed, never
/// trusted wrong. Unwrapping the poison here is what keeps one quarantined
/// evaluation from cascading into `PoisonError` panics on every sibling
/// worker that touches the same shard.
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks ignoring poisoning (see [`read_lock`]).
pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A black-box objective over token-encoded synthesis sequences.
///
/// `Sync` is part of the contract: [`RunLedger`] shares one objective
/// across scoped worker threads, so implementations must use thread-safe
/// interior mutability (see [`ShardedCache`]).
pub trait SequenceObjective: Sync {
    /// Evaluates one token sequence, memoising the result.
    fn evaluate_tokens(&self, tokens: &[u8]) -> QorPoint;

    /// Returns the memoised result for a sequence, if present, without
    /// evaluating. Counts as a cache hit when it returns `Some`.
    fn lookup(&self, tokens: &[u8]) -> Option<QorPoint>;

    /// Whether a sequence has already been evaluated (no hit accounting).
    fn is_cached(&self, tokens: &[u8]) -> bool;

    /// The number of unique (non-memoised) evaluations so far — the
    /// sample-complexity measure reported in the paper's figures.
    fn num_evaluations(&self) -> usize;

    /// [`SequenceObjective::evaluate_tokens`] with a cancellation check.
    ///
    /// Returns `None` when `control` fired before (or — for objectives
    /// overriding this, like [`QorEvaluator`](crate::QorEvaluator), which
    /// polls between synthesis passes — during) the evaluation; an
    /// interrupted evaluation is not memoised and does not advance the
    /// unique-evaluation count. The default checks once up front, which is
    /// correct for any objective; overriding only tightens the latency
    /// between a cancel and the engine observing it.
    fn evaluate_tokens_controlled(&self, tokens: &[u8], control: &RunControl) -> Option<QorPoint> {
        if control.stop_reason().is_some() {
            return None;
        }
        Some(self.evaluate_tokens(tokens))
    }

    /// The name of the active cost function (the paper's Eq. 1 by default).
    fn cost_name(&self) -> String {
        String::from("qor")
    }

    /// The multi-objective cost vector of an already-evaluated sequence,
    /// if the objective can produce one (lower is better per component).
    /// The default — `None` — makes the engine fall back to the raw
    /// `(area, delay)` pair of the memoised [`QorPoint`].
    fn vector_of(&self, _tokens: &[u8]) -> Option<Vec<f64>> {
        None
    }
}

/// Number of lock shards. A small power of two: contention is light (a QoR
/// evaluation takes orders of magnitude longer than a cache probe), so this
/// mostly exists to keep writers from serialising on one lock.
const SHARD_COUNT: usize = 16;

/// Deterministic shard index for a token key: FNV-1a, then a SplitMix64
/// finaliser (FNV's low bits are weak on short keys), modulo `shards`.
/// Deliberately not the per-instance-seeded std hasher, so shard
/// assignment — and therefore lock interleaving — is reproducible. Shared
/// by the value cache here and the prefix cache
/// ([`crate::prefix::PrefixCache`]).
pub(crate) fn shard_index(key: &[u8], shards: usize) -> usize {
    (boils_aig::splitmix64(boils_aig::fnv1a64(key)) as usize) % shards
}

/// Length of the longest common token prefix of two sequences.
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Worker-chunk ranges over `seqs` (which must be sorted
/// lexicographically), snapped to minimal-common-prefix positions.
///
/// Equal-size splits of the sorted order can cut a shared-prefix run in
/// two, sending its halves to different workers and losing the
/// intra-batch prefix reuse [`RunLedger::evaluate_grouped`] exists
/// to guarantee. Each boundary therefore slides — within half a chunk of
/// its equal-split target, so no worker's share more than doubles — to
/// the adjacent pair with the *shortest* common prefix (ties broken
/// toward the equal split). A boundary between sequences sharing no
/// prefix costs nothing; one inside a run costs the run's shared passes.
pub(crate) fn prefix_chunk_ranges(seqs: &[&[u8]], workers: usize) -> Vec<std::ops::Range<usize>> {
    let n = seqs.len();
    let workers = workers.clamp(1, n.max(1));
    let chunk = n.div_ceil(workers);
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(0usize);
    for k in 1..workers {
        let target = k * chunk;
        if target >= n {
            break;
        }
        let prev = *bounds.last().expect("bounds start non-empty");
        let slack = chunk / 2;
        let lo = target.saturating_sub(slack).max(prev + 1);
        let hi = (target + slack).min(n - 1);
        let mut best = target;
        let mut best_key = (usize::MAX, usize::MAX);
        for p in lo..=hi {
            let key = (common_prefix_len(seqs[p - 1], seqs[p]), p.abs_diff(target));
            if key < best_key {
                best = p;
                best_key = key;
            }
        }
        bounds.push(best);
    }
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// A thread-safe memoisation table for sequence evaluations.
///
/// Keys are token sequences; the map is split into `SHARD_COUNT` shards,
/// each behind its own `RwLock`, selected by a deterministic FNV-1a hash of
/// the key (deliberately not the per-instance-seeded std hasher, so shard
/// assignment — and therefore lock interleaving — is reproducible).
///
/// The value type is generic so the same table can memoise derived points
/// (`QorPoint`, the default) or the objective-independent raw synthesis
/// record ([`SynthStats`](boils_mapper::SynthStats)) the
/// [`QorEvaluator`](crate::QorEvaluator) caches — the representation that
/// lets one cache serve every [`Objective`](crate::Objective).
#[derive(Debug)]
pub struct ShardedCache<V = QorPoint> {
    shards: [RwLock<HashMap<Vec<u8>, V>>; SHARD_COUNT],
    hits: AtomicUsize,
}

impl<V> Default for ShardedCache<V> {
    fn default() -> Self {
        ShardedCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicUsize::new(0),
        }
    }
}

impl<V: Copy> ShardedCache<V> {
    /// An empty cache.
    pub fn new() -> ShardedCache<V> {
        ShardedCache::default()
    }

    fn shard(&self, key: &[u8]) -> &RwLock<HashMap<Vec<u8>, V>> {
        &self.shards[shard_index(key, SHARD_COUNT)]
    }

    /// Returns the memoised value for `key`, recording a hit on success.
    pub fn get(&self, key: &[u8]) -> Option<V> {
        let hit = read_lock(self.shard(key)).get(key).copied();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Whether `key` is memoised, without touching hit accounting.
    pub fn contains(&self, key: &[u8]) -> bool {
        read_lock(self.shard(key)).contains_key(key)
    }

    /// [`ShardedCache::get`] without hit accounting — for derived reads of
    /// entries already counted (e.g. projecting a memoised synthesis
    /// record onto the objective's cost vector).
    pub fn peek(&self, key: &[u8]) -> Option<V> {
        read_lock(self.shard(key)).get(key).copied()
    }

    /// Inserts a result, returning `true` if the key was newly memoised.
    ///
    /// When two workers race on the same key the first insert wins; the
    /// value is a pure function of the key, so the loser's result is
    /// identical and is simply dropped.
    pub fn insert(&self, key: Vec<u8>, value: V) -> bool {
        use std::collections::hash_map::Entry;
        match write_lock(self.shard(&key)).entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(value);
                true
            }
        }
    }

    /// Number of memoised sequences.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_lock(s).len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of [`ShardedCache::get`] calls that found a memoised result.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

/// The worst-case sentinel recorded for a quarantined (panicked)
/// evaluation. Large enough that no real sequence can beat it (real QoR
/// values sit near 2), finite so GP fits and `partial_cmp` stay sound.
pub const QUARANTINE_QOR: f64 = 1.0e3;

/// The outcome of one scheduled batch.
///
/// `points` is in input order; a `None` means the engine stopped before
/// that sequence was evaluated. Whenever `stopped` is `None`, every point
/// is `Some` — interruption is the only way a batch resolves partially.
#[derive(Debug)]
struct BatchOutcome {
    points: Vec<Option<QorPoint>>,
    stopped: Option<StopReason>,
    /// Sequences whose evaluation panicked; their `points` entries hold
    /// the [`QUARANTINE_QOR`] sentinel.
    quarantined: Vec<Vec<u8>>,
}

/// One evaluation's outcome inside the engine.
enum EvalOutcome {
    Point(QorPoint),
    Quarantined,
    Interrupted(StopReason),
}

/// Evaluates one sequence under a control, isolating panics. A panicking
/// objective (a synthesis bug, an injected fault) becomes a
/// quarantined sequence instead of unwinding through the worker — which,
/// together with the poison-proof shard locks, is what makes one bad
/// evaluation cost one sentinel rather than the whole sweep.
fn evaluate_one<O: SequenceObjective + ?Sized>(
    objective: &O,
    tokens: &[u8],
    control: &RunControl,
) -> EvalOutcome {
    if let Some(reason) = control.stop_reason() {
        return EvalOutcome::Interrupted(reason);
    }
    match catch_unwind(AssertUnwindSafe(|| {
        objective.evaluate_tokens_controlled(tokens, control)
    })) {
        Ok(Some(point)) => EvalOutcome::Point(point),
        // The objective observed the control mid-compute.
        Ok(None) => {
            EvalOutcome::Interrupted(control.stop_reason().unwrap_or(StopReason::Cancelled))
        }
        Err(_) => EvalOutcome::Quarantined,
    }
}

/// What one worker hands back to the merge: computed points (quarantine
/// sentinels included), the sequences it quarantined, and whether it
/// observed a stop.
#[derive(Default)]
struct WorkerReport {
    computed: Vec<(usize, QorPoint)>,
    quarantined: Vec<Vec<u8>>,
    stopped: Option<StopReason>,
}

/// The scheduler behind [`RunLedger::evaluate`] and
/// [`RunLedger::evaluate_grouped`] (`prefix_aware`): evaluates every
/// pending sequence of `batch` across up to `threads` scoped workers and
/// returns the points in input order.
fn run_batch<O: SequenceObjective + ?Sized>(
    objective: &O,
    batch: &[Vec<u8>],
    threads: usize,
    prefix_aware: bool,
    control: &RunControl,
) -> BatchOutcome {
    // Map each batch position onto its first occurrence so duplicate
    // candidates are computed once (exactly what a serial loop's cache
    // would do, minus the redundant probes).
    let mut first_occurrence: HashMap<&[u8], usize> = HashMap::with_capacity(batch.len());
    let mut unique: Vec<&[u8]> = Vec::with_capacity(batch.len());
    let unique_of: Vec<usize> = batch
        .iter()
        .map(|tokens| {
            *first_occurrence
                .entry(tokens.as_slice())
                .or_insert_with(|| {
                    unique.push(tokens.as_slice());
                    unique.len() - 1
                })
        })
        .collect();

    // Resolve memoised sequences up front; only the rest is work.
    let mut points: Vec<Option<QorPoint>> = unique
        .iter()
        .map(|tokens| objective.lookup(tokens))
        .collect();
    let mut pending: Vec<usize> = (0..unique.len()).filter(|&i| points[i].is_none()).collect();
    if prefix_aware {
        // Lexicographic order clusters shared prefixes contiguously;
        // workers take contiguous chunks below, and evaluate them in
        // this order, so intra-chunk prefix reuse is sequential (the
        // earlier candidate's intermediates are cached before the later
        // candidate needs them) instead of racy.
        pending.sort_by_key(|&i| unique[i]);
    }

    let mut quarantined: Vec<Vec<u8>> = Vec::new();
    let mut stopped: Option<StopReason> = None;
    let workers = threads.min(pending.len());
    if workers <= 1 {
        for &i in &pending {
            match evaluate_one(objective, unique[i], control) {
                EvalOutcome::Point(point) => points[i] = Some(point),
                EvalOutcome::Quarantined => {
                    points[i] = Some(QorPoint::quarantined());
                    quarantined.push(unique[i].to_vec());
                }
                EvalOutcome::Interrupted(reason) => {
                    stopped = Some(reason);
                    break;
                }
            }
        }
    } else {
        // Contiguous chunks, one scoped worker per chunk. Each worker
        // reports (unique index, point) pairs; joining in spawn order
        // keeps the merge deterministic (not that it matters for
        // values — evaluation is pure — but it keeps accounting and
        // instrumentation reproducible too). Prefix-aware scheduling
        // additionally snaps chunk boundaries to minimal-common-prefix
        // positions so a shared-prefix run never straddles workers.
        let ranges: Vec<std::ops::Range<usize>> = if prefix_aware {
            let seqs: Vec<&[u8]> = pending.iter().map(|&i| unique[i]).collect();
            prefix_chunk_ranges(&seqs, workers)
        } else {
            let chunk_len = pending.len().div_ceil(workers);
            (0..pending.len())
                .step_by(chunk_len)
                .map(|start| start..(start + chunk_len).min(pending.len()))
                .collect()
        };
        let unique = &unique;
        let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    let ids = &pending[range];
                    scope.spawn(move || {
                        let mut report = WorkerReport::default();
                        for &i in ids {
                            match evaluate_one(objective, unique[i], control) {
                                EvalOutcome::Point(point) => report.computed.push((i, point)),
                                EvalOutcome::Quarantined => {
                                    report.computed.push((i, QorPoint::quarantined()));
                                    report.quarantined.push(unique[i].to_vec());
                                }
                                EvalOutcome::Interrupted(reason) => {
                                    report.stopped = Some(reason);
                                    break;
                                }
                            }
                        }
                        report
                    })
                })
                .collect();
            // Join *every* worker before deciding anything: a panic
            // escaping one worker (an engine bug — per-evaluation
            // panics are quarantined above) must not discard sibling
            // workers' completed results, which are merged (and live
            // in the objective's cache) before the panic resumes.
            let mut reports = Vec::new();
            let mut engine_panic = None;
            for handle in handles {
                match handle.join() {
                    Ok(report) => reports.push(report),
                    Err(payload) => {
                        if engine_panic.is_none() {
                            engine_panic = Some(payload);
                        }
                    }
                }
            }
            if let Some(payload) = engine_panic {
                std::panic::resume_unwind(payload);
            }
            reports
        });
        for report in reports {
            for (i, point) in report.computed {
                points[i] = Some(point);
            }
            quarantined.extend(report.quarantined);
            stopped = stopped.or(report.stopped);
        }
    }

    BatchOutcome {
        points: unique_of.iter().map(|&u| points[u]).collect(),
        stopped,
        quarantined,
    }
}

/// The one place a run spends its evaluation budget. Random search,
/// greedy, the GA, the RL baselines and the BO loop behind BOiLS and SBO
/// each evaluate through a ledger, which keeps the run's history,
/// quarantine list and stop reason and assembles its
/// [`OptimizationResult`].
///
/// Batches evaluate across up to `threads` scoped workers, and for any
/// thread count:
///
/// * **Deterministic ordering** — records come back in input order.
/// * **Deduplicated work** — within-batch duplicates and already-memoised
///   sequences are never recomputed, so the objective's unique-evaluation
///   count advances exactly as a serial evaluation loop would.
/// * **Pure parallelism** — worker threads only ever call
///   [`SequenceObjective::evaluate_tokens_controlled`], whose result is a
///   pure function of the tokens; thread scheduling cannot change any
///   value.
/// * **Exact prefixes under interruption** — the [`RunControl`] is polled
///   before every evaluation (and between synthesis passes by objectives
///   that override [`SequenceObjective::evaluate_tokens_controlled`]).
///   Once it fires no further evaluation starts, and a batch records only
///   its longest contiguous input-order resolved prefix. Values are pure
///   functions of the tokens, so an interrupted run's history is an exact
///   prefix of the uncancelled run's, whichever workers had finished.
/// * **Quarantine** — a panicking evaluation records the
///   [`QUARANTINE_QOR`] sentinel and joins the result's
///   [`quarantined`](OptimizationResult::quarantined) list instead of
///   aborting the run.
pub struct RunLedger<'a, O: ?Sized> {
    objective: &'a O,
    threads: usize,
    control: &'a RunControl,
    history: Vec<EvalRecord>,
    quarantined: Vec<Vec<u8>>,
    stop: Option<StopReason>,
}

impl<'a, O: SequenceObjective + ?Sized> RunLedger<'a, O> {
    /// An empty ledger spending `objective`'s evaluations across
    /// `threads` workers under `control`.
    pub fn new(objective: &'a O, threads: usize, control: &'a RunControl) -> Self {
        RunLedger {
            objective,
            threads,
            control,
            history: Vec::new(),
            quarantined: Vec::new(),
            stop: None,
        }
    }

    /// Evaluates `batch`, appends its resolved prefix to the history and
    /// returns those records. They are fewer than the batch only when the
    /// control interrupted it.
    pub fn evaluate(&mut self, batch: &[Vec<u8>]) -> &[EvalRecord] {
        self.record(batch, false)
    }

    /// [`RunLedger::evaluate`] with **prefix-aware scheduling**: the
    /// pending (not-yet-memoised) sequences are sorted lexicographically
    /// and each worker receives one contiguous run of that order, which it
    /// evaluates in sorted order.
    ///
    /// Candidates sharing a token prefix are lexicographic neighbours, so
    /// a shared-prefix run lands on one worker (at most `threads − 1` runs
    /// straddle a chunk boundary) and is evaluated back-to-back — by the
    /// time the later candidate runs, the earlier one has already published
    /// its intermediate AIGs to the evaluator's prefix cache
    /// ([`crate::prefix::PrefixCache`]). Under [`RunLedger::evaluate`]
    /// the same two candidates may land on different workers, where the
    /// prefix hit depends on a race (whichever worker finishes first
    /// inserts); here the intra-batch hit is guaranteed.
    ///
    /// Everything observable is unchanged: records come back in input
    /// order, values are bit-identical to [`RunLedger::evaluate`]
    /// (evaluation is a pure function of the tokens), and the objective's
    /// unique-evaluation count advances identically. Only wall-clock time
    /// and [`prefix_stats`](crate::QorEvaluator::prefix_stats) can differ.
    pub fn evaluate_grouped(&mut self, batch: &[Vec<u8>]) -> &[EvalRecord] {
        self.record(batch, true)
    }

    fn record(&mut self, batch: &[Vec<u8>], prefix_aware: bool) -> &[EvalRecord] {
        let outcome = run_batch(
            self.objective,
            batch,
            self.threads,
            prefix_aware,
            self.control,
        );
        let start = self.history.len();
        let resolved = outcome
            .points
            .iter()
            .zip(batch)
            .map_while(|(point, tokens)| {
                point.map(|point| EvalRecord {
                    tokens: tokens.clone(),
                    point,
                })
            });
        self.history.extend(resolved);
        self.quarantined.extend(outcome.quarantined);
        self.stop = self.stop.or(outcome.stopped);
        &self.history[start..]
    }

    /// Every record so far, in evaluation order.
    pub fn history(&self) -> &[EvalRecord] {
        &self.history
    }

    /// Why the run stopped early, if it has: an interrupted batch, or the
    /// control, polled here for the loops that check it between batches.
    pub fn stopped(&mut self) -> Option<StopReason> {
        if self.stop.is_none() {
            self.stop = self.control.stop_reason();
        }
        self.stop
    }

    /// The run's result over `space`: its history, the termination its
    /// stop reason implies, the quarantine list and the objective's name.
    /// `None` when nothing resolved.
    pub fn finish(self, space: &SequenceSpace) -> Option<OptimizationResult> {
        if self.history.is_empty() {
            return None;
        }
        let termination = self.stop.map(Termination::from).unwrap_or_default();
        let mut result =
            OptimizationResult::from_history_terminated(space, self.history, termination);
        result.quarantined = self.quarantined;
        result.objective = self.objective.cost_name();
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic fake objective: "QoR" is a pure hash of the tokens.
    /// Tracks evaluation counts through the same sharded cache the real
    /// evaluator uses, so these tests exercise the production accounting.
    #[derive(Debug, Default)]
    struct FakeObjective {
        cache: ShardedCache,
        unique: AtomicUsize,
    }

    fn fake_point(tokens: &[u8]) -> QorPoint {
        let sum: usize = tokens.iter().map(|&t| t as usize + 1).sum();
        QorPoint {
            qor: 1.0 + sum as f64 * 0.01,
            area: sum,
            delay: tokens.len() as u32,
        }
    }

    impl SequenceObjective for FakeObjective {
        fn evaluate_tokens(&self, tokens: &[u8]) -> QorPoint {
            if let Some(hit) = self.cache.get(tokens) {
                return hit;
            }
            let point = fake_point(tokens);
            if self.cache.insert(tokens.to_vec(), point) {
                self.unique.fetch_add(1, Ordering::Relaxed);
            }
            point
        }

        fn lookup(&self, tokens: &[u8]) -> Option<QorPoint> {
            self.cache.get(tokens)
        }

        fn is_cached(&self, tokens: &[u8]) -> bool {
            self.cache.contains(tokens)
        }

        fn num_evaluations(&self) -> usize {
            self.unique.load(Ordering::Relaxed)
        }
    }

    fn batch_of(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| vec![(i % 11) as u8, (i / 11) as u8, 3])
            .collect()
    }

    /// The points of a batch evaluated under a default control, which
    /// resolves every position.
    fn resolved(outcome: BatchOutcome) -> Vec<QorPoint> {
        assert_eq!(outcome.stopped, None);
        outcome
            .points
            .into_iter()
            .map(|point| point.expect("a default control resolves every position"))
            .collect()
    }

    #[test]
    fn results_are_in_input_order_for_any_thread_count() {
        let expected: Vec<QorPoint> = batch_of(40).iter().map(|t| fake_point(t)).collect();
        for threads in [1, 2, 3, 8, 64] {
            let objective = FakeObjective::default();
            let got = run_batch(
                &objective,
                &batch_of(40),
                threads,
                false,
                &RunControl::new(),
            );
            assert_eq!(resolved(got), expected, "threads = {threads}");
        }
    }

    #[test]
    fn unique_count_is_thread_count_invariant() {
        // 30 entries, only 10 distinct.
        let batch: Vec<Vec<u8>> = (0..30).map(|i| vec![(i % 10) as u8]).collect();
        for threads in [1, 4, 16] {
            let objective = FakeObjective::default();
            run_batch(&objective, &batch, threads, false, &RunControl::new());
            assert_eq!(objective.num_evaluations(), 10, "threads = {threads}");
        }
    }

    #[test]
    fn memoised_sequences_are_not_recomputed() {
        let objective = FakeObjective::default();
        let control = RunControl::new();
        run_batch(&objective, &batch_of(12), 4, false, &control);
        assert_eq!(objective.num_evaluations(), 12);
        // Re-evaluating the same batch costs zero new evaluations …
        let again = run_batch(&objective, &batch_of(12), 4, false, &control);
        assert_eq!(objective.num_evaluations(), 12);
        assert_eq!(
            resolved(again),
            batch_of(12)
                .iter()
                .map(|t| fake_point(t))
                .collect::<Vec<_>>()
        );
        // … and resolves every unique sequence via a counted cache hit.
        assert!(objective.cache.hits() >= 12);
    }

    #[test]
    fn duplicates_within_a_batch_are_computed_once() {
        let objective = FakeObjective::default();
        let batch = vec![vec![1u8, 2], vec![1u8, 2], vec![3u8], vec![1u8, 2]];
        let points = resolved(run_batch(&objective, &batch, 8, false, &RunControl::new()));
        assert_eq!(objective.num_evaluations(), 2);
        assert_eq!(points[0], points[1]);
        assert_eq!(points[1], points[3]);
        assert_ne!(points[0], points[2]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let objective = FakeObjective::default();
        let control = RunControl::new();
        let outcome = run_batch(&objective, &[], 8, false, &control);
        assert!(resolved(outcome).is_empty());
        assert_eq!(objective.num_evaluations(), 0);
        let outcome = run_batch(&objective, &[], 8, true, &control);
        assert!(resolved(outcome).is_empty());
    }

    #[test]
    fn grouped_agrees_pointwise_with_evaluate_at_any_thread_count() {
        // Prefix-aware scheduling reorders *work*, never results: for the
        // same batch it must return the same input-ordered points and
        // advance the unique-evaluation count identically.
        let mut batch = batch_of(37);
        batch.extend(batch_of(11)); // within-batch duplicates
        batch.reverse(); // far from lexicographic order
        for threads in [1, 2, 3, 8, 64] {
            let plain = FakeObjective::default();
            let grouped = FakeObjective::default();
            let control = RunControl::new();
            let a = run_batch(&plain, &batch, threads, false, &control);
            let b = run_batch(&grouped, &batch, threads, true, &control);
            assert_eq!(resolved(a), resolved(b), "threads = {threads}");
            assert_eq!(
                plain.num_evaluations(),
                grouped.num_evaluations(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn grouped_skips_memoised_sequences_too() {
        let objective = FakeObjective::default();
        let control = RunControl::new();
        run_batch(&objective, &batch_of(12), 4, true, &control);
        assert_eq!(objective.num_evaluations(), 12);
        let again = run_batch(&objective, &batch_of(12), 4, true, &control);
        assert_eq!(objective.num_evaluations(), 12);
        assert_eq!(
            resolved(again),
            batch_of(12)
                .iter()
                .map(|t| fake_point(t))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn chunk_boundaries_snap_to_group_edges() {
        // Eight groups of four sequences; within a group everything shares
        // a 3-token prefix, across groups nothing is shared. The equal
        // split at 4 workers (chunk 8) happens to land on group edges, so
        // use 3 workers (chunk 11), whose naive boundaries at 11 and 22
        // would cut groups 2 and 5 mid-run.
        let mut seqs: Vec<Vec<u8>> = Vec::new();
        for group in 0..8u8 {
            for variant in 0..4u8 {
                seqs.push(vec![group, group, group, variant]);
            }
        }
        let views: Vec<&[u8]> = seqs.iter().map(Vec::as_slice).collect();
        let ranges = prefix_chunk_ranges(&views, 3);
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges.first().expect("non-empty").start, 0);
        assert_eq!(ranges.last().expect("non-empty").end, seqs.len());
        for window in ranges.windows(2) {
            let boundary = window[0].end;
            assert_eq!(boundary, window[1].start, "ranges must be contiguous");
            assert_eq!(
                boundary % 4,
                0,
                "boundary {boundary} splits a shared-prefix group"
            );
            assert_eq!(
                common_prefix_len(views[boundary - 1], views[boundary]),
                0,
                "boundary {boundary} sits inside a shared-prefix run"
            );
        }
    }

    #[test]
    fn chunk_ranges_cover_every_index_exactly_once() {
        // Adversarial shapes: group sizes that never divide the chunk
        // length, more workers than items, one item, empty input.
        for (n, workers) in [(37usize, 5usize), (3, 8), (1, 4), (16, 1), (25, 4)] {
            let seqs: Vec<Vec<u8>> = (0..n).map(|i| vec![(i / 3) as u8, i as u8]).collect();
            let views: Vec<&[u8]> = seqs.iter().map(Vec::as_slice).collect();
            let ranges = prefix_chunk_ranges(&views, workers);
            let mut covered = Vec::new();
            for r in &ranges {
                assert!(!r.is_empty(), "empty chunk for n={n} workers={workers}");
                covered.extend(r.clone());
            }
            assert_eq!(
                covered,
                (0..n).collect::<Vec<_>>(),
                "n={n} workers={workers}"
            );
            assert!(ranges.len() <= workers.max(1));
        }
        // Empty input: whatever comes back must cover nothing.
        assert!(prefix_chunk_ranges(&[], 4).iter().all(|r| r.is_empty()));
    }

    #[test]
    fn snapped_scheduling_keeps_values_and_accounting() {
        // Shared-prefix groups deliberately misaligned with the equal
        // split: grouped evaluation must return identical points and an
        // identical unique-evaluation count at every thread count.
        let mut batch: Vec<Vec<u8>> = Vec::new();
        for group in 0..5u8 {
            for variant in 0..7u8 {
                batch.push(vec![group, 9, group, variant]);
            }
        }
        let expected: Vec<QorPoint> = batch.iter().map(|t| fake_point(t)).collect();
        for threads in [1, 2, 3, 4, 16] {
            let objective = FakeObjective::default();
            let got = run_batch(&objective, &batch, threads, true, &RunControl::new());
            assert_eq!(resolved(got), expected, "threads = {threads}");
            assert_eq!(
                objective.num_evaluations(),
                batch.len(),
                "threads = {threads}"
            );
        }
    }

    /// A fake objective that panics on one poison sequence.
    #[derive(Debug, Default)]
    struct PanickyObjective {
        inner: FakeObjective,
        poison: Vec<u8>,
    }

    impl SequenceObjective for PanickyObjective {
        fn evaluate_tokens(&self, tokens: &[u8]) -> QorPoint {
            assert_ne!(tokens, self.poison.as_slice(), "injected evaluation panic");
            self.inner.evaluate_tokens(tokens)
        }

        fn lookup(&self, tokens: &[u8]) -> Option<QorPoint> {
            self.inner.lookup(tokens)
        }

        fn is_cached(&self, tokens: &[u8]) -> bool {
            self.inner.is_cached(tokens)
        }

        fn num_evaluations(&self) -> usize {
            self.inner.num_evaluations()
        }
    }

    #[test]
    fn panicking_evaluation_is_quarantined_not_fatal() {
        // One poisoned sequence out of 20: every sibling result must be
        // exact, the poisoned position must carry the sentinel, and the
        // batch must complete — at any thread count.
        let batch = batch_of(20);
        let poison = batch[7].clone();
        for threads in [1, 2, 8] {
            let objective = PanickyObjective {
                inner: FakeObjective::default(),
                poison: poison.clone(),
            };
            let outcome = run_batch(&objective, &batch, threads, false, &RunControl::new());
            assert_eq!(outcome.stopped, None, "threads = {threads}");
            assert_eq!(outcome.quarantined, vec![poison.clone()]);
            for (i, (tokens, point)) in batch.iter().zip(&outcome.points).enumerate() {
                let point = point.expect("a default control resolves every position");
                if i == 7 {
                    assert_eq!(point.qor, QUARANTINE_QOR, "threads = {threads}");
                } else {
                    assert_eq!(point, fake_point(tokens), "threads = {threads}, i = {i}");
                }
            }
            // The quarantined sequence never reached the memo cache.
            assert_eq!(objective.num_evaluations(), 19, "threads = {threads}");
            assert!(!objective.is_cached(&poison));
        }
    }

    #[test]
    fn cancelled_control_stops_the_batch_before_any_evaluation() {
        for threads in [1, 8] {
            let objective = FakeObjective::default();
            let control = RunControl::new();
            control.cancel();
            let outcome = run_batch(&objective, &batch_of(10), threads, false, &control);
            assert_eq!(outcome.stopped, Some(StopReason::Cancelled));
            assert!(outcome.points.iter().all(Option::is_none));
            assert_eq!(objective.num_evaluations(), 0, "threads = {threads}");
            let mut ledger = RunLedger::new(&objective, threads, &control);
            assert!(ledger.evaluate(&batch_of(10)).is_empty());
        }
    }

    #[test]
    fn memoised_results_survive_a_cancelled_batch() {
        // Sequences already memoised resolve via lookup even under a fired
        // control; the resolved prefix is still contiguous from the front.
        let objective = FakeObjective::default();
        let batch = batch_of(6);
        run_batch(&objective, &batch[..3], 2, false, &RunControl::new());
        let control = RunControl::new();
        control.cancel();
        let mut ledger = RunLedger::new(&objective, 2, &control);
        let resolved = ledger.evaluate(&batch);
        assert_eq!(resolved.len(), 3);
        for record in resolved {
            assert_eq!(record.point, fake_point(&record.tokens));
        }
        let result = ledger.finish(&SequenceSpace::new(3, 11)).expect("resolved");
        assert_eq!(result.termination, Termination::Cancelled);
        assert_eq!(
            objective.num_evaluations(),
            3,
            "no new work under a fired control"
        );
    }

    #[test]
    fn ledger_records_every_batch_and_assembles_the_result() {
        let batch = batch_of(12);
        let poison = batch[4].clone();
        for threads in [1, 2, 8] {
            let objective = PanickyObjective {
                inner: FakeObjective::default(),
                poison: poison.clone(),
            };
            let control = RunControl::new();
            let mut ledger = RunLedger::new(&objective, threads, &control);
            let first = ledger.evaluate(&batch[..7]).to_vec();
            let second = ledger.evaluate_grouped(&batch[7..]).to_vec();
            assert_eq!((first.len(), second.len()), (7, 5), "threads = {threads}");
            assert_eq!(ledger.history().len(), 12);
            for (record, tokens) in ledger.history().iter().zip(&batch) {
                assert_eq!(&record.tokens, tokens, "threads = {threads}");
            }
            assert_eq!(second[0].tokens, batch[7]);
            assert_eq!(ledger.stopped(), None);
            let result = ledger.finish(&SequenceSpace::new(3, 11)).expect("resolved");
            assert_eq!(result.termination, Termination::BudgetExhausted);
            assert_eq!(result.quarantined, vec![poison.clone()]);
            assert_eq!(result.history[4].point.qor, QUARANTINE_QOR);
            assert_eq!(result.best_point, fake_point(&batch[0]));
            assert_eq!(result.objective, "qor");
        }
    }

    #[test]
    fn ledger_polls_the_control_only_when_asked() {
        let space = SequenceSpace::new(3, 11);
        let objective = FakeObjective::default();
        let control = RunControl::new();
        let mut unpolled = RunLedger::new(&objective, 2, &control);
        unpolled.evaluate(&batch_of(3));
        let mut polled = RunLedger::new(&objective, 2, &control);
        polled.evaluate(&batch_of(3));
        control.cancel();
        // A control that fires after the last batch leaves a run nobody
        // polled budget-exhausted …
        let result = unpolled.finish(&space).expect("resolved");
        assert_eq!(result.termination, Termination::BudgetExhausted);
        // … while polling records the stop.
        assert_eq!(polled.stopped(), Some(StopReason::Cancelled));
        let result = polled.finish(&space).expect("resolved");
        assert_eq!(result.termination, Termination::Cancelled);
        // Nothing resolved, no result.
        let empty = RunLedger::new(&objective, 2, &control);
        assert!(empty.finish(&space).is_none());
    }

    #[test]
    fn sharded_cache_counts_hits_and_clears() {
        let cache = ShardedCache::new();
        let p = fake_point(&[1, 2, 3]);
        assert!(cache.get(&[1, 2, 3]).is_none());
        assert_eq!(cache.hits(), 0);
        assert!(cache.insert(vec![1, 2, 3], p));
        assert!(
            !cache.insert(vec![1, 2, 3], p),
            "double insert must report stale"
        );
        assert_eq!(cache.get(&[1, 2, 3]), Some(p));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn sharded_cache_spreads_keys_across_shards() {
        let cache = ShardedCache::new();
        for i in 0..200u8 {
            cache.insert(vec![i, i.wrapping_mul(7)], fake_point(&[i]));
        }
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.read().expect("lock").is_empty())
            .count();
        assert!(populated > SHARD_COUNT / 2, "only {populated} shards used");
    }

    #[test]
    fn concurrent_inserts_from_many_threads_are_safe() {
        let cache = ShardedCache::new();
        std::thread::scope(|scope| {
            for t in 0..8u8 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..50u8 {
                        // Overlapping key ranges force insert races.
                        cache.insert(vec![i / 2, t % 2], fake_point(&[i, t]));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 50);
    }
}
