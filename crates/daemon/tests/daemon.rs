//! Integration tests for the multi-tenant daemon: shared-tier warm-up,
//! cancellation isolation, deadlines, backpressure, and socket-level
//! fault tolerance.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

use boils_baselines::{Method, RunSpec};
use boils_circuits::{Benchmark, CircuitSpec};
use boils_core::{
    JobId, Objective, OptimizationResult, Priority, QorEvaluator, RunControl, SequenceSpace,
};
use boils_daemon::server::MAX_LINE_BYTES;
use boils_daemon::{Client, Daemon, DaemonConfig, Event, JobOutcome, JobRequest, Server, Value};

const BITS: usize = 4;
const K: usize = 8;
/// A victim job's budget: random search over this many sequences takes
/// tens of seconds even in a release build, so no build finishes it inside
/// any test's window, while its first evaluation lands within milliseconds.
const VICTIM_BUDGET: usize = 20_000;

fn config(workers: usize, queue_cap: usize) -> DaemonConfig {
    DaemonConfig {
        workers,
        queue_cap,
        cache_dir: None,
    }
}

fn request(method: Method, objective: &str, seed: u64, budget: usize) -> JobRequest {
    JobRequest {
        circuit: Benchmark::Adder,
        bits: Some(BITS),
        method,
        objective: Objective::parse(objective).expect("valid objective"),
        budget,
        seed,
        sequence_length: K,
        priority: Priority::Normal,
        deadline_secs: None,
        multi_objective: false,
        transfer: false,
    }
}

/// A job that runs until it is cancelled or its deadline fires.
fn victim() -> JobRequest {
    request(Method::Rs, "qor", 0, VICTIM_BUDGET)
}

/// Blocks until a tenant of `daemon` has an evaluation past its last
/// interruption point: the shared prefix tier counts a replay's passes
/// once its last pass has run, and only mapping is left. While a victim
/// is the only tenant, a cancel from then on returns its best-so-far
/// instead of failing empty-handed.
fn wait_for_an_evaluation(daemon: &Daemon) {
    let give_up = Instant::now() + Duration::from_secs(300);
    while !daemon
        .evaluators()
        .store_stats()
        .iter()
        .any(|(_, stats)| stats.passes_applied + stats.passes_saved > 0)
    {
        assert!(Instant::now() < give_up, "no evaluation completed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Blocks until `job` has been picked up by a worker.
fn wait_until_started(rx: &Receiver<Event>, job: JobId) {
    loop {
        match rx.recv_timeout(Duration::from_secs(300)).expect("event") {
            Event::Started { job: started } if started == job => return,
            _ => {}
        }
    }
}

/// Collects events until `n` terminal (`finished`/`failed`) events have
/// arrived, keyed by job.
fn collect_terminals(rx: &Receiver<Event>, n: usize) -> HashMap<JobId, Event> {
    let mut terminals = HashMap::new();
    while terminals.len() < n {
        let event = rx
            .recv_timeout(Duration::from_secs(300))
            .expect("daemon should emit a terminal event per job");
        match &event {
            Event::Finished { job, .. } | Event::Failed { job, .. } => {
                terminals.insert(*job, event);
            }
            _ => {}
        }
    }
    terminals
}

fn outcome(terminals: &HashMap<JobId, Event>, job: JobId) -> &JobOutcome {
    match terminals.get(&job) {
        Some(Event::Finished { outcome, .. }) => outcome,
        other => panic!("{job} should have finished, got {other:?}"),
    }
}

/// The full result a `finished` event carries.
fn result(terminals: &HashMap<JobId, Event>, job: JobId) -> &OptimizationResult {
    match terminals.get(&job) {
        Some(Event::Finished { result, .. }) => result,
        other => panic!("{job} should have finished, got {other:?}"),
    }
}

/// The same run the daemon performs, executed solo: fresh evaluator,
/// single-threaded, sequential batches.
fn solo_run(req: &JobRequest) -> OptimizationResult {
    let aig = CircuitSpec::new(req.circuit)
        .bits(req.bits.expect("test requests set bits"))
        .build();
    let evaluator = QorEvaluator::new(&aig)
        .expect("benchmark circuit")
        .with_objective(req.objective);
    let spec = RunSpec {
        multi_objective: req.multi_objective,
        ..RunSpec::new(
            SequenceSpace::new(req.sequence_length, 11),
            req.budget,
            req.seed,
        )
    };
    req.method
        .run(&spec, &evaluator, &RunControl::new())
        .expect("uncontrolled run completes")
}

fn assert_same_trajectory(a: &OptimizationResult, b: &OptimizationResult) {
    assert_eq!(a.history.len(), b.history.len(), "history lengths differ");
    for (i, (x, y)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(x.tokens, y.tokens, "tokens diverge at step {i}");
        assert_eq!(x.point, y.point, "values diverge at step {i}");
    }
    assert_eq!(a.best_qor.to_bits(), b.best_qor.to_bits());
    assert_eq!(a.best_sequence, b.best_sequence);
}

fn temp_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("boils-daemon-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn concurrent_jobs_with_different_objectives_share_the_stats_cache() {
    let daemon = Daemon::new(config(2, 8));
    let (tx, rx) = channel();
    let budget = 8;
    // Same seed → same RS candidate sequences; [`SynthStats`] are
    // objective-independent, so the two tenants race over one shared
    // value cache and each distinct sequence is synthesised once.
    let qor_job = daemon
        .submit(request(Method::Rs, "qor", 11, budget), &tx)
        .expect("accepted");
    let lut_job = daemon
        .submit(request(Method::Rs, "lut", 11, budget), &tx)
        .expect("accepted");
    let terminals = collect_terminals(&rx, 2);
    let qor = outcome(&terminals, qor_job);
    let lut = outcome(&terminals, lut_job);
    assert_eq!(qor.evaluations, budget);
    assert_eq!(lut.evaluations, budget);
    assert_eq!(qor.termination, "budget-exhausted");
    assert_eq!(lut.termination, "budget-exhausted");
    // Attribution is exact: only the cache-insert winner counts a
    // sequence as its own work, so combined unique work never exceeds
    // the number of distinct sequences — the second tenant's synthesis
    // is (at least half) free.
    assert!(
        qor.unique_evaluations + lut.unique_evaluations <= budget,
        "sharing failed: {} + {} unique for {budget} distinct sequences",
        qor.unique_evaluations,
        lut.unique_evaluations
    );
    assert_eq!(
        qor.shared_hits + lut.shared_hits + qor.unique_evaluations + lut.unique_evaluations,
        2 * budget
    );

    // A job submitted after both finished is served entirely from the
    // warm cache: zero unique synthesis, all shared hits.
    let warm_job = daemon
        .submit(request(Method::Rs, "area", 11, budget), &tx)
        .expect("accepted");
    let warm_terminals = collect_terminals(&rx, 1);
    let warm = outcome(&warm_terminals, warm_job);
    assert_eq!(warm.unique_evaluations, 0);
    assert_eq!(warm.shared_hits, budget);
}

#[test]
fn cancelling_one_tenant_leaves_the_other_bit_identical_to_solo() {
    let daemon = Daemon::new(config(2, 8));
    let (tx, rx) = channel();
    // The victim grinds through a budget it can never finish. Once it has
    // a best-so-far, the bystander starts a normal job on the same
    // circuit, and the victim is cancelled mid-run.
    let victim = daemon.submit(victim(), &tx).expect("accepted");
    wait_for_an_evaluation(&daemon);
    let bystander_req = request(Method::Rs, "qor", 3, 8);
    let bystander = daemon.submit(bystander_req.clone(), &tx).expect("accepted");
    wait_until_started(&rx, bystander);
    assert!(daemon.cancel(victim));
    let terminals = collect_terminals(&rx, 2);
    let cancelled = outcome(&terminals, victim);
    assert_eq!(cancelled.termination, "cancelled");
    assert!(cancelled.evaluations < VICTIM_BUDGET, "cancel did nothing");
    assert!(cancelled.best_qor.is_some(), "best-so-far is kept");
    // The bystander's trajectory is bit-identical to the same run
    // performed solo: shared caches memoise pure functions of the
    // tokens, and cancellation of a co-tenant never leaks across jobs.
    assert_eq!(
        outcome(&terminals, bystander).termination,
        "budget-exhausted"
    );
    assert_same_trajectory(result(&terminals, bystander), &solo_run(&bystander_req));
}

#[test]
fn deadline_jobs_return_best_so_far_with_the_deadline_termination() {
    let daemon = Daemon::new(config(1, 4));
    let (tx, rx) = channel();
    // The first evaluation finishes within milliseconds of the start, the
    // whole budget not within the deadline.
    let mut req = victim();
    req.deadline_secs = Some(0.4);
    let job = daemon.submit(req, &tx).expect("accepted");
    let terminals = collect_terminals(&rx, 1);
    let out = outcome(&terminals, job);
    assert_eq!(out.termination, "deadline-exceeded");
    assert!(out.evaluations >= 1, "deadline fired before any evaluation");
    assert!(out.evaluations < VICTIM_BUDGET);
    assert!(out.best_qor.is_some());
    assert!(out.best_sequence.is_some());
}

#[test]
fn a_full_queue_rejects_new_jobs_without_evaluating_anything() {
    let daemon = Daemon::new(config(1, 1));
    let (tx, rx) = channel();
    let running = daemon.submit(victim(), &tx).expect("accepted");
    // Wait until the worker has taken the job off the queue.
    wait_until_started(&rx, running);
    let waiting = daemon
        .submit(request(Method::Rs, "qor", 1, 2), &tx)
        .expect("one job fits the queue");
    let rejected = daemon
        .submit(request(Method::Rs, "qor", 2, 2), &tx)
        .expect_err("queue is full");
    assert!(rejected.contains("queue full"), "{rejected}");
    // The rejected submission left no trace: it is not cancellable and
    // its circuit was never built (the daemon had built at most the one
    // template the running tenants use).
    assert!(daemon.evaluators().circuits() <= 1);
    // Cancel once the running job has a best-so-far.
    wait_for_an_evaluation(&daemon);
    assert!(daemon.cancel(running));
    let terminals = collect_terminals(&rx, 2);
    assert_eq!(outcome(&terminals, waiting).termination, "budget-exhausted");
    assert_eq!(outcome(&terminals, running).termination, "cancelled");
}

#[test]
fn a_fresh_daemon_on_a_warm_store_serves_disk_hits_bit_identically() {
    let dir = temp_dir("warm-store");
    let req = request(Method::Rs, "qor", 7, 6);
    let warm_config = || DaemonConfig {
        workers: 1,
        queue_cap: 4,
        cache_dir: Some(dir.clone()),
    };
    // First daemon: cold store, every evaluation is unique work and is
    // persisted.
    {
        let daemon = Daemon::new(warm_config());
        let (tx, rx) = channel();
        let job = daemon.submit(req.clone(), &tx).expect("accepted");
        let terminals = collect_terminals(&rx, 1);
        let out = outcome(&terminals, job);
        assert_eq!(out.unique_evaluations, req.budget);
        assert!(out.tier_stats.disk_writes > 0, "cold store saw no writes");
    }
    // Second daemon, fresh process state: the value memo is cold, so
    // evaluations fall through to the persistent tier and come back as
    // disk hits — and the trajectory stays bit-identical to a solo run
    // with no store at all.
    let daemon = Daemon::new(warm_config());
    let (tx, rx) = channel();
    let job = daemon.submit(req.clone(), &tx).expect("accepted");
    let terminals = collect_terminals(&rx, 1);
    let out = outcome(&terminals, job);
    assert!(
        out.tier_stats.disk_hits > 0,
        "warm store served no disk hits: {:?}",
        out.tier_stats
    );
    assert_same_trajectory(result(&terminals, job), &solo_run(&req));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_lines_are_rejected_while_the_daemon_keeps_serving() {
    let server = Server::bind(config(1, 4), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");

    // Every malformed line comes back as a `rejected` event — the
    // connection and the daemon survive all of them.
    for (line, needle) in [
        ("this is not json", "malformed JSON"),
        (r#"{"op":"submit"}"#, "missing field \"circuit\""),
        (
            r#"{"op":"submit","circuit":"nonesuch","method":"rs","budget":2}"#,
            "unknown circuit",
        ),
        (
            r#"{"op":"submit","circuit":"adder","method":"rs","budget":0}"#,
            "positive evaluation count",
        ),
        (r#"{"op":"cancel","job":999}"#, "not queued or running"),
    ] {
        client.send_raw(line).expect("send");
        let event = client
            .next_event()
            .expect("read event")
            .expect("daemon still serving");
        assert_eq!(
            event.get("event").and_then(Value::as_str),
            Some("rejected"),
            "{line} should be rejected, got {}",
            event.to_json()
        );
        let reason = event
            .get("reason")
            .and_then(Value::as_str)
            .expect("rejected events carry a reason");
        assert!(reason.contains(needle), "{line}: {reason}");
    }

    // ...and a valid job still runs to completion on the same connection.
    client
        .send_raw(r#"{"op":"submit","circuit":"adder","bits":4,"method":"rs","budget":2,"k":6}"#)
        .expect("send");
    let mut finished = None;
    while finished.is_none() {
        let event = client
            .next_event()
            .expect("read event")
            .expect("stream open until the job finishes");
        if event.get("event").and_then(Value::as_str) == Some("finished") {
            finished = Some(event);
        }
    }
    let finished = finished.expect("job finished");
    assert_eq!(
        finished.get("termination").and_then(Value::as_str),
        Some("budget-exhausted")
    );
    assert!(finished.get("best_qor").and_then(Value::as_f64).is_some());

    client.shutdown().expect("send shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

#[test]
fn an_over_long_line_is_rejected_and_a_new_connection_is_still_served() {
    let server = Server::bind(config(1, 4), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    // A 1 MiB line, far past the cap: one rejection, then the server
    // closes the connection once the line has arrived.
    let mut client = Client::connect(&addr).expect("connect");
    let pad = "x".repeat(1 << 20);
    client
        .send_raw(&format!(r#"{{"op":"submit","pad":"{pad}"}}"#))
        .expect("the whole line is read");
    let event = client
        .next_event()
        .expect("read event")
        .expect("one rejection");
    assert_eq!(event.get("event").and_then(Value::as_str), Some("rejected"));
    let reason = event.get("reason").and_then(Value::as_str).expect("reason");
    assert!(
        reason.contains(&format!("longer than {MAX_LINE_BYTES} bytes")),
        "{reason}"
    );
    assert!(client.next_event().expect("clean close").is_none());

    // The daemon keeps serving new connections. On this one a line that
    // is not UTF-8 is rejected and the next line is still answered.
    {
        let mut raw = std::net::TcpStream::connect(&addr).expect("reconnect");
        raw.write_all(b"\xff\xfe\n{\"op\":\"store-stats\"}\n")
            .expect("send");
        let mut events = BufReader::new(raw).lines();
        let mut next = || events.next().expect("an event").expect("read event");
        assert!(next().contains("not valid UTF-8"));
        assert!(next().contains(r#""event":"store_stats""#));
        // Dropping the stream closes it, so shutdown need not wait on it.
    }
    let mut client = Client::connect(&addr).expect("reconnect");
    client.shutdown().expect("send shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

#[test]
fn the_daemon_speaks_unix_sockets_too() {
    let dir = temp_dir("unix-sock");
    let addr = format!("unix:{}", dir.join("boils.sock").display());
    let server = Server::bind(config(1, 4), &addr).expect("bind");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");
    client
        .send_raw(
            r#"{"op":"submit","circuit":"adder","bits":4,"method":"rs","budget":2,"k":6,"priority":"high"}"#,
        )
        .expect("send");
    let mut saw_finished = false;
    while !saw_finished {
        let event = client
            .next_event()
            .expect("read event")
            .expect("stream open until the job finishes");
        saw_finished = event.get("event").and_then(Value::as_str) == Some("finished");
    }
    client.shutdown().expect("send shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
