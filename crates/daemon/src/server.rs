//! The daemon itself: an in-process [`Daemon`] scheduling jobs on a
//! bounded priority [`WorkerPool`], plus the [`Server`] socket layer
//! speaking the line-delimited-JSON protocol over TCP or a Unix socket.
//!
//! The split matters for testing: every scheduling property (priority
//! ordering, backpressure, shared-tier warm-up, cancellation,
//! deadlines) is exercised against [`Daemon`] directly, with no socket
//! in the loop; the socket layer only frames requests and events.
//!
//! ## Sharing
//!
//! All jobs on the same circuit draw forks of one [`QorEvaluator`]
//! template from an [`EvaluatorPool`], so the value memo, the in-memory
//! prefix cache and (when a cache directory is configured) the
//! persistent store are warmed by every tenant. What is deliberately
//! *not* shared is optimiser state — surrogates stay job-private, so a
//! daemon job's trajectory is bit-identical to the same run performed
//! solo against an equally warm store.
//!
//! [`QorEvaluator`]: boils_core::QorEvaluator

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use boils_baselines::RunSpec;
use boils_circuits::CircuitSpec;
use boils_core::{EvaluatorPool, JobId, OptimizationResult, RunControl, SequenceSpace, WorkerPool};

use crate::protocol::{Event, JobOutcome, JobRequest, Request, StoreStatsRow};

/// Longest request line the server reads, in bytes, newline excluded. A
/// submit line is under 1 KiB. A longer line gets one `rejected` event and
/// then the connection is closed, so no client can make the server buffer
/// without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Daemon sizing knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are rejected
    /// (backpressure), never buffered without bound.
    pub queue_cap: usize,
    /// Optional persistent-store directory shared by every job.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_cap: 64,
            cache_dir: None,
        }
    }
}

/// The in-process multi-tenant optimisation daemon.
///
/// Dropping the daemon drains queued jobs and joins the workers.
pub struct Daemon {
    pool: WorkerPool,
    evaluators: Arc<EvaluatorPool>,
    jobs: Arc<Mutex<HashMap<JobId, RunControl>>>,
    next_id: AtomicU64,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Daemon {
    /// Starts the worker pool (no sockets are involved).
    pub fn new(config: DaemonConfig) -> Daemon {
        let evaluators = match &config.cache_dir {
            Some(dir) => EvaluatorPool::with_cache_dir(dir),
            None => EvaluatorPool::new(),
        };
        Daemon {
            pool: WorkerPool::new(config.workers, config.queue_cap),
            evaluators: Arc::new(evaluators),
            jobs: Arc::new(Mutex::new(HashMap::new())),
            next_id: AtomicU64::new(0),
        }
    }

    /// The shared evaluator pool (one template per circuit).
    pub fn evaluators(&self) -> &Arc<EvaluatorPool> {
        &self.evaluators
    }

    /// Number of jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.pool.queued()
    }

    /// Submits a validated job. Emits `queued` on acceptance, then
    /// `started` and `finished`/`failed` from the worker, all on
    /// `events`.
    ///
    /// # Errors
    ///
    /// Returns the rejection reason — currently only queue-full
    /// backpressure — without having evaluated anything (the circuit is
    /// not even built until a worker picks the job up).
    pub fn submit(&self, request: JobRequest, events: &Sender<Event>) -> Result<JobId, String> {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let control = RunControl::new();
        lock(&self.jobs).insert(id, control.clone());
        let priority = request.priority;
        // A worker can pick the job up before this thread regains the CPU;
        // gate its start so the `queued` event always precedes `started`.
        let (queued_tx, queued_rx) = std::sync::mpsc::channel::<()>();
        let job = {
            let evaluators = Arc::clone(&self.evaluators);
            let jobs = Arc::clone(&self.jobs);
            let events = events.clone();
            move || {
                let _ = queued_rx.recv();
                run_job(id, request, control, &evaluators, &jobs, &events)
            }
        };
        match self.pool.submit(priority, job) {
            Ok(()) => {
                let _ = events.send(Event::Queued { job: id });
                let _ = queued_tx.send(());
                Ok(id)
            }
            Err(full) => {
                lock(&self.jobs).remove(&id);
                Err(full.to_string())
            }
        }
    }

    /// Requests cancellation of a queued or running job. The job still
    /// emits its terminal event (`finished` best-so-far with a
    /// `cancelled` termination, or `failed` when nothing finished).
    /// Returns `false` for unknown/already-finished ids.
    pub fn cancel(&self, id: JobId) -> bool {
        match lock(&self.jobs).get(&id) {
            Some(control) => {
                control.cancel();
                true
            }
            None => false,
        }
    }

    /// Per-circuit persistent-store statistics for every circuit this
    /// daemon has built an evaluator template for, sorted by circuit
    /// hash. The dedup counters (`dedup_hits`, `payload_bytes_saved`)
    /// are where cross-tenant payload sharing becomes visible.
    pub fn store_stats(&self) -> Vec<StoreStatsRow> {
        self.evaluators
            .store_stats()
            .into_iter()
            .map(|(circuit, stats)| StoreStatsRow { circuit, stats })
            .collect()
    }
}

/// The worker-side job body: build the circuit, fork the shared
/// evaluator, arm the deadline, run, attribute the evaluation split,
/// and emit the terminal event. Panics are caught here so they become
/// `failed` events rather than relying on the pool's silent isolation.
fn run_job(
    id: JobId,
    request: JobRequest,
    submitted: RunControl,
    evaluators: &EvaluatorPool,
    jobs: &Mutex<HashMap<JobId, RunControl>>,
    events: &Sender<Event>,
) {
    let _ = events.send(Event::Started { job: id });
    // The deadline is armed when the job *starts*, not when it queues —
    // time spent waiting behind other tenants is not billed against it.
    // The armed control replaces the submission-time one under the map
    // lock so a concurrent `cancel` always reaches whichever is live.
    let control = match request.deadline_secs {
        Some(secs) => {
            // `JobRequest::from_json` bounds `secs`; a request built by hand
            // past `Duration`'s range runs without a deadline instead of
            // panicking here, outside the job's unwind guard.
            let budget = Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX);
            let armed = RunControl::with_deadline(budget);
            let mut map = lock(jobs);
            if submitted.is_cancelled() {
                armed.cancel();
            }
            map.insert(id, armed.clone());
            armed
        }
        None => submitted,
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(&request, &control, evaluators)
    }));
    lock(jobs).remove(&id);
    let event = match outcome {
        Ok(Ok(Some((summary, result)))) => Event::Finished {
            job: id,
            outcome: Box::new(summary),
            result: Box::new(result),
        },
        Ok(Ok(None)) => Event::Failed {
            job: id,
            reason: "interrupted before the first evaluation completed".to_string(),
        },
        Ok(Err(reason)) => Event::Failed { job: id, reason },
        Err(_) => Event::Failed {
            job: id,
            reason: "job panicked (worker survived)".to_string(),
        },
    };
    let _ = events.send(event);
}

fn execute(
    request: &JobRequest,
    control: &RunControl,
    evaluators: &EvaluatorPool,
) -> Result<Option<(JobOutcome, OptimizationResult)>, String> {
    let mut spec = CircuitSpec::new(request.circuit);
    if let Some(bits) = request.bits {
        spec = spec.bits(bits);
    }
    let aig = spec.build();
    let evaluator = evaluators.checkout(&aig, request.objective)?;
    let space = SequenceSpace::new(request.sequence_length, 11);
    // Jobs are single-threaded internally: concurrency comes from the
    // pool, and a sequential run keeps each job's trajectory
    // bit-identical to the same run performed solo.
    let mut spec = RunSpec {
        multi_objective: request.multi_objective,
        ..RunSpec::new(space, request.budget, request.seed)
    };
    let method = request.method;
    let transfer = request.transfer;
    let Some(result) = method.run_with_transfer(&mut spec, &evaluator, control, transfer) else {
        return Ok(None);
    };
    // Unique = synthesis work this job's cache inserts won; the rest of
    // its history entries were served by tiers warmed by other tenants
    // (or by earlier entries of its own run).
    let unique = evaluator.num_evaluations();
    let summary = JobOutcome {
        termination: result.termination.to_string(),
        best_qor: Some(result.best_qor),
        best_sequence: Some(result.best_sequence.clone()),
        evaluations: result.history.len(),
        unique_evaluations: unique,
        shared_hits: result.history.len().saturating_sub(unique),
        quarantined: result.quarantined.len(),
        tier_stats: evaluator.prefix_stats(),
    };
    Ok(Some((summary, result)))
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Connects to a daemon address: `unix:PATH` for a Unix socket,
/// anything else as a TCP `host:port`.
pub(crate) fn connect(addr: &str) -> Result<Stream, String> {
    Ok(match addr.strip_prefix("unix:") {
        Some(path) => {
            Stream::Unix(UnixStream::connect(path).map_err(|e| format!("connect {addr}: {e}"))?)
        }
        None => Stream::Tcp(TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?),
    })
}

/// The socket front-end: accepts connections, frames requests and
/// streams lifecycle events back, one JSON object per line.
pub struct Server {
    listener: Listener,
    daemon: Arc<Daemon>,
    addr: String,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (`unix:PATH` or TCP `host:port`; port 0 picks a free
    /// port) and starts the daemon's worker pool.
    ///
    /// # Errors
    ///
    /// One-line diagnostics for bind failures.
    pub fn bind(config: DaemonConfig, addr: &str) -> Result<Server, String> {
        let (listener, bound) = match addr.strip_prefix("unix:") {
            Some(path) => {
                // A stale socket file from a previous daemon refuses
                // rebinding; replacing it is the conventional fix.
                if Path::new(path).exists() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path).map_err(|e| format!("bind {addr}: {e}"))?;
                (Listener::Unix(listener), addr.to_string())
            }
            None => {
                let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
                let bound = listener
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| addr.to_string());
                (Listener::Tcp(listener), bound)
            }
        };
        Ok(Server {
            listener,
            daemon: Arc::new(Daemon::new(config)),
            addr: bound,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address, resolved (`unix:PATH`, or `ip:port` with the
    /// real port when 0 was requested).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Serves until a client sends `{"op":"shutdown"}`. Each connection
    /// gets a reader loop and a writer thread; events for a
    /// connection's jobs stream back on that connection. Dropping the
    /// internal daemon on return drains running jobs.
    ///
    /// # Errors
    ///
    /// Fatal accept errors only; per-connection IO errors end that
    /// connection and are otherwise ignored.
    pub fn run(self) -> Result<(), String> {
        let mut connections = Vec::new();
        loop {
            let stream = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            }
            .map_err(|e| format!("accept: {e}"))?;
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let daemon = Arc::clone(&self.daemon);
            let shutdown = Arc::clone(&self.shutdown);
            let addr = self.addr.clone();
            connections.push(std::thread::spawn(move || {
                serve_connection(stream, &daemon, &shutdown, &addr)
            }));
        }
        // Drain: every connection finishes streaming its jobs' terminal
        // events, then dropping the daemon joins the worker pool.
        for handle in connections {
            let _ = handle.join();
        }
        if let Listener::Unix(_) = &self.listener {
            if let Some(path) = self.addr.strip_prefix("unix:") {
                let _ = std::fs::remove_file(path);
            }
        }
        Ok(())
    }
}

fn serve_connection(stream: Stream, daemon: &Daemon, shutdown: &AtomicBool, addr: &str) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (sender, receiver) = std::sync::mpsc::channel::<Event>();
    // The writer thread owns the write half; it drains until every
    // sender is gone — including the clones held by this connection's
    // queued jobs — so a client that keeps reading sees all its
    // terminal events even after it stops sending.
    let writer = std::thread::spawn(move || {
        let mut out = write_half;
        for event in receiver {
            let mut line = event.to_json().to_json();
            line.push('\n');
            if out.write_all(line.as_bytes()).is_err() {
                break;
            }
            let _ = out.flush();
        }
    });
    let mut reader = BufReader::new(stream);
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if bytes.len() > MAX_LINE_BYTES && bytes.last() != Some(&b'\n') {
            let _ = sender.send(Event::Rejected {
                reason: format!("request line longer than {MAX_LINE_BYTES} bytes"),
            });
            // Discard the rest of the line without buffering it, so the
            // client's write completes and it reads the rejection before
            // the close.
            let _ = reader.skip_until(b'\n');
            break;
        }
        let Ok(line) = std::str::from_utf8(&bytes) else {
            let _ = sender.send(Event::Rejected {
                reason: "request line is not valid UTF-8".to_string(),
            });
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match Request::parse_line(line) {
            Ok(Request::Submit(request)) => {
                if let Err(reason) = daemon.submit(request, &sender) {
                    let _ = sender.send(Event::Rejected { reason });
                }
            }
            Ok(Request::Cancel(id)) => {
                if !daemon.cancel(id) {
                    let _ = sender.send(Event::Rejected {
                        reason: format!("{id} is not queued or running"),
                    });
                }
            }
            Ok(Request::StoreStats) => {
                let _ = sender.send(Event::StoreStats {
                    rows: daemon.store_stats(),
                });
            }
            Ok(Request::Shutdown) => {
                shutdown.store(true, Ordering::Release);
                // Unblock the accept loop with a throwaway connection.
                let _ = connect(addr);
                break;
            }
            // A malformed line rejects that line only; the connection
            // and the daemon keep serving.
            Err(reason) => {
                let _ = sender.send(Event::Rejected { reason });
            }
        }
    }
    drop(sender);
    let _ = writer.join();
}
