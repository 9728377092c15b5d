//! Multi-tenant job scheduling primitives: the bounded priority worker
//! pool and the per-circuit evaluator pool behind the optimisation
//! daemon.
//!
//! The pool is deliberately method-agnostic — a job is any `FnOnce()` —
//! so `boils-core` stays free of the optimiser registry (which lives in
//! `boils-baselines`). What the core layer *does* own is the sharing
//! story: [`EvaluatorPool`] keeps one [`QorEvaluator`] template per
//! circuit content hash and hands each job a
//! [`QorEvaluator::fork_with_objective`] of it, so every tier (value
//! memo, in-memory prefix cache, persistent store) is warmed by every
//! tenant while per-job counters stay exact.

use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use boils_aig::Aig;

use crate::qor::{Objective, QorEvaluator};

/// A daemon-unique job identifier (assigned in submission order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling priority. Higher priorities run first; within a priority
/// jobs run in submission (FIFO) order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Batch/backfill work.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Interactive jobs; jump the queue but never preempt a running job.
    High,
}

impl Priority {
    /// Parses `low` / `normal` / `high`.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic for anything else.
    pub fn parse(name: &str) -> Result<Priority, String> {
        match name {
            "low" => Ok(Priority::Low),
            "normal" => Ok(Priority::Normal),
            "high" => Ok(Priority::High),
            other => Err(format!(
                "unknown priority {other:?} (expected low|normal|high)"
            )),
        }
    }

    /// The identifier accepted by [`Priority::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Backpressure: the pool's bounded queue is full, the job was not
/// accepted (and nothing was evaluated). Submit again later or shed load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull {
    /// The queue bound that was hit.
    pub capacity: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job queue full ({} queued jobs)", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

struct QueuedJob {
    priority: Priority,
    /// Submission ordinal; lower runs first within a priority band.
    seq: u64,
    work: Box<dyn FnOnce() + Send>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then earlier submission.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct PoolState {
    heap: BinaryHeap<QueuedJob>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled on every enqueue and on shutdown.
    wake: Condvar,
    queue_cap: usize,
}

/// A fixed-size worker pool draining a bounded priority queue.
///
/// Submission is non-blocking: when the queue holds `queue_cap` jobs,
/// [`WorkerPool::submit`] returns [`QueueFull`] instead of growing —
/// explicit backpressure the daemon surfaces as a `Rejected` response,
/// never an unbounded buffer. Jobs already running are not counted
/// against the cap.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    seq: AtomicU64,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to ≥ 1) draining a queue bounded
    /// to `queue_cap` pending jobs (clamped to ≥ 1).
    pub fn new(workers: usize, queue_cap: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                heap: BinaryHeap::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            queue_cap: queue_cap.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("boils-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            seq: AtomicU64::new(0),
            workers,
        }
    }

    /// Enqueues a job, or returns [`QueueFull`] without running anything
    /// when the bounded queue is at capacity.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when `queue_cap` jobs are already waiting.
    pub fn submit(
        &self,
        priority: Priority,
        work: impl FnOnce() + Send + 'static,
    ) -> Result<(), QueueFull> {
        let mut state = lock(&self.shared.state);
        if state.shutdown || state.heap.len() >= self.shared.queue_cap {
            return Err(QueueFull {
                capacity: self.shared.queue_cap,
            });
        }
        state.heap.push(QueuedJob {
            priority,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            work: Box::new(work),
        });
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Number of jobs waiting (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        lock(&self.shared.state).heap.len()
    }

    /// The queue bound.
    pub fn queue_cap(&self) -> usize {
        self.shared.queue_cap
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stops accepting jobs, drains the queue, and joins the workers.
    /// Called automatically on drop.
    pub fn shutdown(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker panicking while holding the queue lock would otherwise
    // poison the whole pool; the queue itself is just a heap of thunks,
    // always structurally valid.
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.heap.pop() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Panic isolation: a job that unwinds (e.g. an injected eval
        // fault outside the quarantine seam) must not take the worker —
        // and with it the whole pool — down with it.
        let work = job.work;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
    }
}

/// One shared [`QorEvaluator`] template per circuit, forked per job.
///
/// The first job on a circuit pays for the `resyn2` reference mapping and
/// (when configured) opens the persistent store; every later job — any
/// objective, any method — gets a [`QorEvaluator::fork_with_objective`]
/// of the same template, sharing the value memo table, the in-memory
/// prefix cache, and the store. One cache directory serves every circuit:
/// store entries are keyed by circuit content hash.
pub struct EvaluatorPool {
    cache_dir: Option<PathBuf>,
    templates: Mutex<HashMap<u64, Arc<QorEvaluator>>>,
}

impl EvaluatorPool {
    /// A pool with in-memory tiers only.
    pub fn new() -> EvaluatorPool {
        EvaluatorPool {
            cache_dir: None,
            templates: Mutex::new(HashMap::new()),
        }
    }

    /// A pool whose templates attach a [`PersistentPrefixStore`]
    /// (see [`QorEvaluator::with_persistent_store`]) under `dir`.
    ///
    /// [`PersistentPrefixStore`]: crate::PersistentPrefixStore
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> EvaluatorPool {
        EvaluatorPool {
            cache_dir: Some(dir.into()),
            templates: Mutex::new(HashMap::new()),
        }
    }

    /// The configured persistent-store directory, if any.
    pub fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// A job-private fork of the circuit's shared template, optimising
    /// `objective`. Builds (and retains) the template on first use.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic when the circuit's reference mapping
    /// is degenerate or the cache directory cannot be opened.
    pub fn checkout(&self, aig: &Aig, objective: Objective) -> Result<QorEvaluator, String> {
        Ok(self.template_for(aig)?.fork_with_objective(objective))
    }

    /// The shared template for a circuit (building it on first use).
    ///
    /// # Errors
    ///
    /// Same conditions as [`EvaluatorPool::checkout`].
    pub fn template_for(&self, aig: &Aig) -> Result<Arc<QorEvaluator>, String> {
        let hash = aig.content_hash();
        let mut templates = lock(&self.templates);
        if let Some(template) = templates.get(&hash) {
            return Ok(Arc::clone(template));
        }
        let mut evaluator = QorEvaluator::new(aig).map_err(|e| e.to_string())?;
        if let Some(dir) = &self.cache_dir {
            evaluator = evaluator
                .with_persistent_store(dir)
                .map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
        }
        let template = Arc::new(evaluator);
        templates.insert(hash, Arc::clone(&template));
        Ok(template)
    }

    /// Number of circuits with a built template.
    pub fn circuits(&self) -> usize {
        lock(&self.templates).len()
    }

    /// Per-circuit shared-tier counters — `(circuit content hash,
    /// stats)`, sorted by hash for a stable listing. The admin surface
    /// behind the daemon's `store-stats` op: pointer entries, dedup
    /// savings and disk traffic per tenant circuit without attaching a
    /// debugger.
    pub fn store_stats(&self) -> Vec<(u64, crate::PrefixStats)> {
        let templates = lock(&self.templates);
        let mut rows: Vec<(u64, crate::PrefixStats)> = templates
            .iter()
            .map(|(&hash, template)| (hash, template.prefix_stats()))
            .collect();
        rows.sort_by_key(|&(hash, _)| hash);
        rows
    }
}

impl Default for EvaluatorPool {
    fn default() -> Self {
        EvaluatorPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn priority_orders_the_queue_and_fifo_breaks_ties() {
        // One worker, gated so the queue fills before anything drains.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let pool = WorkerPool::new(1, 16);
        {
            let gate = Arc::clone(&gate);
            pool.submit(Priority::Normal, move || {
                gate.wait();
                gate.wait();
            })
            .expect("queued");
        }
        gate.wait(); // worker is now busy; everything below queues up
        for (label, priority) in [
            ("low-a", Priority::Low),
            ("normal-a", Priority::Normal),
            ("high-a", Priority::High),
            ("normal-b", Priority::Normal),
            ("high-b", Priority::High),
        ] {
            let order = Arc::clone(&order);
            pool.submit(priority, move || {
                lock(&order).push(label);
            })
            .expect("queued");
        }
        gate.wait(); // release the worker
        drop(pool); // drains the queue and joins
        assert_eq!(
            *lock(&order),
            vec!["high-a", "high-b", "normal-a", "normal-b", "low-a"]
        );
    }

    #[test]
    fn full_queue_rejects_without_running() {
        let gate = Arc::new(std::sync::Barrier::new(2));
        let pool = WorkerPool::new(1, 1);
        {
            let gate = Arc::clone(&gate);
            pool.submit(Priority::Normal, move || {
                gate.wait();
                gate.wait();
            })
            .expect("queued");
        }
        gate.wait(); // worker busy; queue empty
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let ran = Arc::clone(&ran);
            pool.submit(Priority::Normal, move || {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .expect("fills the queue");
        }
        let rejected = {
            let ran = Arc::clone(&ran);
            pool.submit(Priority::High, move || {
                ran.fetch_add(1, Ordering::Relaxed);
            })
        };
        assert_eq!(rejected, Err(QueueFull { capacity: 1 }));
        gate.wait();
        drop(pool);
        // Only the accepted job ran; the rejected closure never executed.
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(1, 8);
        pool.submit(Priority::Normal, || panic!("job panic"))
            .expect("queued");
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let ran = Arc::clone(&ran);
            pool.submit(Priority::Normal, move || {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .expect("queued");
        }
        // Poll until the surviving worker drains the probe job.
        for _ in 0..100 {
            if ran.load(Ordering::Relaxed) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn priority_parse_round_trips() {
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(Priority::parse(p.name()), Ok(p));
        }
        assert!(Priority::parse("urgent").is_err());
        assert!(Priority::Low < Priority::Normal && Priority::Normal < Priority::High);
    }

    #[test]
    fn evaluator_pool_shares_one_template_per_circuit() {
        use boils_aig::random_aig;
        let pool = EvaluatorPool::new();
        let aig = random_aig(3, 8, 400, 4);
        let a = pool.checkout(&aig, Objective::Qor).expect("checkout");
        let b = pool.checkout(&aig, Objective::LutCount).expect("checkout");
        assert_eq!(pool.circuits(), 1);
        // The forks share the value memo: a's evaluation is b's cache hit,
        // and only a's insert counts as unique work.
        a.evaluate_tokens(&[6, 0, 2]);
        b.evaluate_tokens(&[6, 0, 2]);
        assert_eq!(a.num_evaluations(), 1);
        assert_eq!(b.num_evaluations(), 0);
        let other = random_aig(7, 8, 400, 4);
        pool.checkout(&other, Objective::Qor).expect("checkout");
        assert_eq!(pool.circuits(), 2);
    }
}
