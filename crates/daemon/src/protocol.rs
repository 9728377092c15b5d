//! The daemon wire protocol: line-delimited JSON, one request or event
//! per line.
//!
//! Requests (client → server):
//!
//! ```text
//! {"op":"submit","circuit":"adder","method":"rs","budget":20,
//!  "objective":"lut","seed":0,"priority":"high","deadline_secs":1.5,
//!  "bits":8,"k":20,"mo":false}
//! {"op":"cancel","job":3}
//! {"op":"shutdown"}
//! ```
//!
//! Events (server → client): `queued`, `rejected`, `started`, `finished`,
//! `failed` objects carrying the job id and — on `finished` — the
//! best-so-far result, its [`Termination`](boils_core::Termination) reason, the per-job
//! evaluation split (unique synthesis work vs hits served by the shared
//! tiers) and a snapshot of the shared cache counters.
//!
//! Every decode error is a value, never a panic: a malformed job becomes
//! a `rejected` event with the same one-line diagnostics the experiment
//! CLI prints, and the daemon keeps serving.

use boils_baselines::Method;
use boils_circuits::Benchmark;
use boils_core::{JobId, Objective, OptimizationResult, PrefixStats, Priority};

use crate::json::Value;

/// A validated optimisation job.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// The benchmark circuit.
    pub circuit: Benchmark,
    /// Operand width override (`None` = the benchmark's scaled default).
    pub bits: Option<usize>,
    /// The optimiser.
    pub method: Method,
    /// The optimised cost.
    pub objective: Objective,
    /// Evaluation budget (unique black-box evaluations).
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// Sequence length `K`.
    pub sequence_length: usize,
    /// Scheduling priority.
    pub priority: Priority,
    /// Wall-clock deadline, armed when the job starts running.
    pub deadline_secs: Option<f64>,
    /// Multi-objective (ParEGO) mode for the BO methods.
    pub multi_objective: bool,
    /// Opt-in cross-circuit surrogate warm start: seed the run from the
    /// most similar circuit's recorded history in the shared store (see
    /// [`boils_core::WarmStart`]). Off by default — `false` keeps the
    /// trajectory bit-identical to a transfer-free daemon.
    pub transfer: bool,
}

impl JobRequest {
    /// Decodes and validates a `submit` object with the command line's
    /// parsers and checks ([`Benchmark::check_bits`], [`Method::check_run`]).
    ///
    /// # Errors
    ///
    /// Returns the one-line reason carried by the `rejected` event.
    pub fn from_json(value: &Value) -> Result<JobRequest, String> {
        let request = JobRequest {
            circuit: Benchmark::parse(require_str(value, "circuit")?)?,
            method: Method::parse(require_str(value, "method")?)?,
            objective: match value.get("objective") {
                None | Some(Value::Null) => Objective::Qor,
                Some(v) => Objective::parse(v.as_str().ok_or("objective takes a string")?)
                    .map_err(|e| format!("objective: {e}"))?,
            },
            budget: saturating_usize(require_u64(value, "budget")?),
            seed: optional_u64(value, "seed")?.unwrap_or(0),
            sequence_length: saturating_usize(optional_u64(value, "k")?.unwrap_or(20)),
            bits: optional_u64(value, "bits")?.map(saturating_usize),
            priority: match value.get("priority") {
                None | Some(Value::Null) => Priority::Normal,
                Some(v) => Priority::parse(v.as_str().ok_or("priority takes a string")?)?,
            },
            deadline_secs: match value.get("deadline_secs") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_f64().ok_or("deadline_secs takes a number")?),
            },
            multi_objective: optional_bool(value, "mo")?,
            transfer: optional_bool(value, "transfer")?,
        };
        if let Some(bits) = request.bits {
            let circuit = request.circuit;
            circuit.check_bits(bits).map_err(|e| format!("bits {e}"))?;
        }
        let (method, secs) = (request.method, request.deadline_secs);
        let checked = method.check_run(request.budget, request.sequence_length, secs);
        checked.map_err(|e| e.to_string())?;
        Ok(request)
    }

    /// Encodes the request as a `submit` line.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object();
        obj.set("op", Value::from("submit"));
        obj.set("circuit", Value::from(self.circuit.name()));
        if let Some(bits) = self.bits {
            obj.set("bits", Value::from(bits));
        }
        obj.set("method", Value::from(self.method.id()));
        obj.set("objective", Value::from(self.objective.name()));
        obj.set("budget", Value::from(self.budget));
        obj.set("seed", Value::from(self.seed));
        obj.set("k", Value::from(self.sequence_length));
        obj.set("priority", Value::from(self.priority.name()));
        if let Some(secs) = self.deadline_secs {
            obj.set("deadline_secs", Value::Number(secs));
        }
        if self.multi_objective {
            obj.set("mo", Value::from(true));
        }
        if self.transfer {
            obj.set("transfer", Value::from(true));
        }
        obj
    }
}

/// A decoded client request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Submit a job.
    Submit(JobRequest),
    /// Cancel a running or queued job.
    Cancel(JobId),
    /// Admin: report the shared semantic store's counters per circuit
    /// (pointer entries, payload bytes, dedup savings) without attaching
    /// a debugger.
    StoreStats,
    /// Stop the server (drains running jobs).
    Shutdown,
}

impl Request {
    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns the reason for a `rejected` event; the connection (and the
    /// daemon) keep serving after a malformed line.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let value = Value::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        match require_str(&value, "op")? {
            "submit" => Ok(Request::Submit(JobRequest::from_json(&value)?)),
            "cancel" => Ok(Request::Cancel(JobId(require_u64(&value, "job")?))),
            "store-stats" => Ok(Request::StoreStats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op {other:?} (expected submit|cancel|store-stats|shutdown)"
            )),
        }
    }
}

/// Per-job result summary carried by a `finished` event.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Why the run ended.
    pub termination: String,
    /// Best cost found (`None` when the run was interrupted before its
    /// first evaluation finished).
    pub best_qor: Option<f64>,
    /// Best sequence in the paper's two-letter codes.
    pub best_sequence: Option<String>,
    /// Evaluations recorded in the job's history.
    pub evaluations: usize,
    /// Evaluations whose synthesis work this job actually performed
    /// (its cache-insert won); the rest were served by shared tiers or
    /// in-run memoisation.
    pub unique_evaluations: usize,
    /// `evaluations - unique_evaluations`: history entries the job got
    /// for free from the shared value cache.
    pub shared_hits: usize,
    /// Sequences quarantined after a panicking evaluation.
    pub quarantined: usize,
    /// Snapshot of the circuit's shared tier counters after the job.
    pub tier_stats: PrefixStats,
}

/// One circuit's row in a `store_stats` reply.
#[derive(Clone, Debug)]
pub struct StoreStatsRow {
    /// The circuit's content hash (the store's per-circuit key space).
    pub circuit: u64,
    /// Shared-tier counters as the circuit's template sees them.
    pub stats: PrefixStats,
}

/// Server → client lifecycle events.
#[derive(Clone, Debug)]
pub enum Event {
    /// The job was accepted and queued.
    Queued {
        /// The assigned id.
        job: JobId,
    },
    /// The job was refused (validation or backpressure); nothing ran.
    Rejected {
        /// One-line reason.
        reason: String,
    },
    /// A worker picked the job up.
    Started {
        /// The job.
        job: JobId,
    },
    /// The job produced a result (possibly best-so-far under
    /// cancellation or a deadline).
    Finished {
        /// The job.
        job: JobId,
        /// Its summary, the part that goes on the wire.
        outcome: Box<JobOutcome>,
        /// The full result, history included. It travels in-process only:
        /// [`Event::to_json`] encodes the summary, and whoever receives the
        /// event owns the result (the daemon keeps no copy).
        result: Box<OptimizationResult>,
    },
    /// The job died without a result (interrupted before the first
    /// evaluation, or its worker panicked). The daemon keeps serving.
    Failed {
        /// The job.
        job: JobId,
        /// One-line reason.
        reason: String,
    },
    /// Reply to a `store-stats` admin request: one row per circuit the
    /// daemon has served, with the semantic store's dedup counters.
    StoreStats {
        /// Per-circuit counters, sorted by circuit hash.
        rows: Vec<StoreStatsRow>,
    },
}

impl Event {
    /// Encodes the event as one wire line.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object();
        match self {
            Event::Queued { job } => {
                obj.set("event", Value::from("queued"));
                obj.set("job", Value::from(job.0));
            }
            Event::Rejected { reason } => {
                obj.set("event", Value::from("rejected"));
                obj.set("reason", Value::from(reason.as_str()));
            }
            Event::Started { job } => {
                obj.set("event", Value::from("started"));
                obj.set("job", Value::from(job.0));
            }
            Event::Finished { job, outcome, .. } => {
                obj.set("event", Value::from("finished"));
                obj.set("job", Value::from(job.0));
                obj.set("termination", Value::from(outcome.termination.as_str()));
                obj.set(
                    "best_qor",
                    outcome.best_qor.map_or(Value::Null, Value::Number),
                );
                obj.set(
                    "best_sequence",
                    outcome
                        .best_sequence
                        .as_deref()
                        .map_or(Value::Null, Value::from),
                );
                obj.set("evaluations", Value::from(outcome.evaluations));
                obj.set(
                    "unique_evaluations",
                    Value::from(outcome.unique_evaluations),
                );
                obj.set("shared_hits", Value::from(outcome.shared_hits));
                obj.set("quarantined", Value::from(outcome.quarantined));
                let tiers = &outcome.tier_stats;
                obj.set("prefix_hits", Value::from(tiers.prefix_hits));
                obj.set("passes_saved", Value::from(tiers.passes_saved));
                obj.set("disk_hits", Value::from(tiers.disk_hits));
                obj.set("disk_writes", Value::from(tiers.disk_writes));
                obj.set("store_reenables", Value::from(tiers.store_reenables));
                obj.set("dedup_hits", Value::from(tiers.dedup_hits));
                obj.set(
                    "payload_bytes_saved",
                    Value::from(tiers.payload_bytes_saved as usize),
                );
                obj.set("pointer_entries", Value::from(tiers.pointer_entries));
            }
            Event::Failed { job, reason } => {
                obj.set("event", Value::from("failed"));
                obj.set("job", Value::from(job.0));
                obj.set("reason", Value::from(reason.as_str()));
            }
            Event::StoreStats { rows } => {
                obj.set("event", Value::from("store_stats"));
                obj.set("circuits", Value::from(rows.len()));
                let rows = rows
                    .iter()
                    .map(|row| {
                        let mut r = Value::object();
                        r.set("circuit", Value::from(format!("{:016x}", row.circuit)));
                        r.set("pointer_entries", Value::from(row.stats.pointer_entries));
                        r.set("dedup_hits", Value::from(row.stats.dedup_hits));
                        r.set(
                            "payload_bytes_saved",
                            Value::from(row.stats.payload_bytes_saved as usize),
                        );
                        r.set("disk_hits", Value::from(row.stats.disk_hits));
                        r.set("disk_writes", Value::from(row.stats.disk_writes));
                        r.set(
                            "disk_corrupt_dropped",
                            Value::from(row.stats.disk_corrupt_dropped),
                        );
                        r.set("disk_evictions", Value::from(row.stats.disk_evictions));
                        r
                    })
                    .collect();
                obj.set("rows", Value::Array(rows));
            }
        }
        obj
    }
}

fn require_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))?
        .as_str()
        .ok_or_else(|| format!("{key} takes a string"))
}

fn require_u64(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))?
        .as_u64()
        .ok_or_else(|| format!("{key} takes a non-negative integer"))
}

/// A count from the wire; a value past `usize` stays past every bound.
fn saturating_usize(count: u64) -> usize {
    usize::try_from(count).unwrap_or(usize::MAX)
}

fn optional_bool(value: &Value, key: &str) -> Result<bool, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| format!("{key} takes a boolean")),
    }
}

fn optional_u64(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key} takes a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_baselines::{MAX_BUDGET, MAX_SEQUENCE_LENGTH};

    #[test]
    fn submit_round_trips() {
        let line = r#"{"op":"submit","circuit":"adder","method":"rs","budget":20,"objective":"lut","seed":3,"priority":"high","deadline_secs":1.5,"bits":8,"k":6,"mo":true}"#;
        let Request::Submit(req) = Request::parse_line(line).expect("parses") else {
            panic!("wrong variant");
        };
        assert_eq!(req.circuit, Benchmark::Adder);
        assert_eq!(req.method, Method::Rs);
        assert_eq!(req.objective, Objective::LutCount);
        assert_eq!(req.budget, 20);
        assert_eq!(req.seed, 3);
        assert_eq!(req.sequence_length, 6);
        assert_eq!(req.bits, Some(8));
        assert_eq!(req.priority, Priority::High);
        assert_eq!(req.deadline_secs, Some(1.5));
        assert!(req.multi_objective);
        assert!(!req.transfer);
        let reparsed = Request::parse_line(&req.to_json().to_json()).expect("round trip");
        let Request::Submit(back) = reparsed else {
            panic!("wrong variant");
        };
        assert_eq!(back.circuit, req.circuit);
        assert_eq!(back.seed, req.seed);
        assert_eq!(back.deadline_secs, req.deadline_secs);
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let line = r#"{"op":"submit","circuit":"max","method":"boils","budget":5}"#;
        let Request::Submit(req) = Request::parse_line(line).expect("parses") else {
            panic!("wrong variant");
        };
        assert_eq!(req.objective, Objective::Qor);
        assert_eq!(req.seed, 0);
        assert_eq!(req.sequence_length, 20);
        assert_eq!(req.priority, Priority::Normal);
        assert_eq!(req.deadline_secs, None);
        assert!(!req.multi_objective);
        assert!(!req.transfer);
    }

    #[test]
    fn transfer_flag_round_trips() {
        let line =
            r#"{"op":"submit","circuit":"adder","method":"boils","budget":8,"transfer":true}"#;
        let Request::Submit(req) = Request::parse_line(line).expect("parses") else {
            panic!("wrong variant");
        };
        assert!(req.transfer);
        let reparsed = Request::parse_line(&req.to_json().to_json()).expect("round trip");
        let Request::Submit(back) = reparsed else {
            panic!("wrong variant");
        };
        assert!(back.transfer);
    }

    #[test]
    fn store_stats_op_parses_and_the_reply_serialises_rows() {
        assert!(matches!(
            Request::parse_line(r#"{"op":"store-stats"}"#),
            Ok(Request::StoreStats)
        ));
        let event = Event::StoreStats {
            rows: vec![StoreStatsRow {
                circuit: 0xabcd,
                stats: PrefixStats {
                    pointer_entries: 5,
                    dedup_hits: 2,
                    payload_bytes_saved: 640,
                    disk_writes: 3,
                    ..PrefixStats::default()
                },
            }],
        };
        let value = Value::parse(&event.to_json().to_json()).expect("valid JSON");
        assert_eq!(
            value.get("event").and_then(Value::as_str),
            Some("store_stats")
        );
        assert_eq!(value.get("circuits").and_then(Value::as_u64), Some(1));
        let rows = value.get("rows").and_then(Value::as_array).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("circuit").and_then(Value::as_str),
            Some("000000000000abcd")
        );
        assert_eq!(rows[0].get("dedup_hits").and_then(Value::as_u64), Some(2));
        assert_eq!(
            rows[0].get("payload_bytes_saved").and_then(Value::as_u64),
            Some(640)
        );
    }

    #[test]
    fn every_malformed_request_is_a_value_not_a_panic() {
        for (line, needle) in [
            ("not json at all", "malformed JSON"),
            (r#"{"circuit":"adder"}"#, "missing field \"op\""),
            (r#"{"op":"fly"}"#, "unknown op"),
            (r#"{"op":"submit"}"#, "missing field \"circuit\""),
            (
                r#"{"op":"submit","circuit":"bogus","method":"rs","budget":5}"#,
                "unknown circuit",
            ),
            (
                r#"{"op":"submit","circuit":"adder","method":"bogus","budget":5}"#,
                "unknown method",
            ),
            (
                r#"{"op":"submit","circuit":"adder","method":"rs","budget":5,"objective":"bogus"}"#,
                "unknown objective",
            ),
            (
                r#"{"op":"submit","circuit":"adder","method":"rs","budget":0}"#,
                "positive evaluation count",
            ),
            (
                r#"{"op":"submit","circuit":"adder","method":"rs"}"#,
                "missing field \"budget\"",
            ),
            (
                r#"{"op":"submit","circuit":"adder","method":"rs","budget":-2}"#,
                "non-negative integer",
            ),
            (
                r#"{"op":"submit","circuit":"adder","method":"rs","budget":5,"priority":"urgent"}"#,
                "unknown priority",
            ),
            (
                r#"{"op":"submit","circuit":"adder","method":"rs","budget":5,"deadline_secs":0}"#,
                "positive duration",
            ),
            (
                r#"{"op":"submit","circuit":"adder","method":"rs","budget":5,"k":0}"#,
                "positive sequence length",
            ),
            (r#"{"op":"cancel"}"#, "missing field \"job\""),
        ] {
            let err = Request::parse_line(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    /// Decodes an adder/rs submit line with the given extra fields.
    fn submit_with(fields: &str) -> Result<Request, String> {
        Request::parse_line(&format!(
            r#"{{"op":"submit","circuit":"adder","method":"rs",{fields}}}"#
        ))
    }

    #[test]
    fn budget_past_the_limit_is_rejected() {
        let reason = submit_with(r#""budget":1e12"#).expect_err("huge budget");
        assert!(reason.contains("budget 1000000000000 exceeds"), "{reason}");
        assert!(submit_with(&format!(r#""budget":{}"#, MAX_BUDGET + 1)).is_err());
        assert!(submit_with(&format!(r#""budget":{MAX_BUDGET}"#)).is_ok());
    }

    #[test]
    fn k_past_the_limit_is_rejected() {
        let reason = submit_with(r#""budget":5,"k":1e15"#).expect_err("huge k");
        assert!(reason.contains("k 1000000000000000 exceeds"), "{reason}");
        assert!(submit_with(&format!(r#""budget":5,"k":{}"#, MAX_SEQUENCE_LENGTH + 1)).is_err());
        assert!(submit_with(&format!(r#""budget":5,"k":{MAX_SEQUENCE_LENGTH}"#)).is_ok());
    }

    #[test]
    fn bits_past_the_paper_width_are_rejected() {
        let reason = submit_with(r#""budget":5,"bits":129"#).expect_err("wide adder");
        assert!(reason.contains("adder's paper width of 128"), "{reason}");
        assert!(submit_with(r#""budget":5,"bits":128"#).is_err());
        assert!(submit_with(r#""budget":5,"bits":64"#).is_ok());
    }

    #[test]
    fn jobs_the_generator_or_the_method_cannot_run_are_rejected() {
        for (fields, reason) in [
            (
                r#""circuit":"adder","method":"boils","budget":3"#,
                "budget 3 is below boils's minimum of 5",
            ),
            (
                r#""circuit":"adder","method":"greedy","budget":5,"k":4"#,
                "budget 5 is below greedy's minimum of 11",
            ),
            (
                r#""circuit":"adder","method":"rs","budget":5,"bits":1"#,
                "bits 1 is not a width adder supports",
            ),
            (
                r#""circuit":"adder","method":"rs","budget":5,"bits":100"#,
                "bits 100 is not a width adder supports: 2 to 64 bits",
            ),
            (
                r#""circuit":"bar","method":"rs","budget":5,"bits":6"#,
                "bits 6 is not a width bar supports",
            ),
            (
                r#""circuit":"sqrt","method":"rs","budget":5,"bits":7"#,
                "bits 7 is not a width sqrt supports",
            ),
        ] {
            let line = format!(r#"{{"op":"submit",{fields}}}"#);
            let err = Request::parse_line(&line).expect_err(&line);
            assert!(err.starts_with(reason), "{line}: {err}");
        }
    }

    #[test]
    fn rl_is_an_alias_of_a2c() {
        let line = r#"{"op":"submit","circuit":"adder","method":"rl","budget":5}"#;
        let Request::Submit(req) = Request::parse_line(line).expect("parses") else {
            panic!("wrong variant");
        };
        assert_eq!(req.method, Method::DrillsA2c);
    }

    #[test]
    fn deadline_past_the_duration_range_is_rejected() {
        let reason = submit_with(r#""budget":5,"deadline_secs":1e300"#).expect_err("huge deadline");
        assert!(
            reason.contains("deadline_secs 1e300 is out of range"),
            "{reason}"
        );
        assert!(submit_with(r#""budget":5,"deadline_secs":1e9"#).is_ok());
    }

    #[test]
    fn finished_event_serialises_all_counters() {
        let event = Event::Finished {
            job: JobId(7),
            outcome: Box::new(JobOutcome {
                termination: "deadline-exceeded".to_string(),
                best_qor: Some(1.875),
                best_sequence: Some("rw; b".to_string()),
                evaluations: 12,
                unique_evaluations: 9,
                shared_hits: 3,
                quarantined: 0,
                tier_stats: PrefixStats {
                    prefix_hits: 4,
                    disk_hits: 2,
                    dedup_hits: 6,
                    payload_bytes_saved: 123,
                    pointer_entries: 9,
                    ..PrefixStats::default()
                },
            }),
            result: Box::new(OptimizationResult::from_history_terminated(
                &boils_core::SequenceSpace::new(2, 11),
                vec![boils_core::EvalRecord {
                    tokens: vec![0, 1],
                    point: boils_core::QorPoint {
                        qor: 1.875,
                        area: 30,
                        delay: 7,
                    },
                }],
                boils_core::Termination::DeadlineExceeded,
                Vec::new(),
            )),
        };
        let line = event.to_json().to_json();
        let value = Value::parse(&line).expect("valid JSON");
        assert_eq!(value.get("event").and_then(Value::as_str), Some("finished"));
        assert_eq!(value.get("job").and_then(Value::as_u64), Some(7));
        assert_eq!(
            value.get("termination").and_then(Value::as_str),
            Some("deadline-exceeded")
        );
        assert_eq!(value.get("shared_hits").and_then(Value::as_u64), Some(3));
        assert_eq!(value.get("disk_hits").and_then(Value::as_u64), Some(2));
        assert_eq!(value.get("dedup_hits").and_then(Value::as_u64), Some(6));
        assert_eq!(
            value.get("payload_bytes_saved").and_then(Value::as_u64),
            Some(123)
        );
        assert_eq!(
            value.get("pointer_entries").and_then(Value::as_u64),
            Some(9)
        );
    }
}
