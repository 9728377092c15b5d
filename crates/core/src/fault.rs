//! Deterministic, seed-driven fault injection for the evaluation stack.
//!
//! A [`FaultPlan`] is parsed from a compact spec string (CLI `--fault-plan`
//! or the `BOILS_FAULT_PLAN` environment variable) and drives a
//! [`FaultInjector`]: a set of per-operation atomic counters that decide,
//! purely from the operation ordinal and the plan's seed, which storage
//! operations fail and which evaluations panic. Injection is off by
//! default and zero-cost when absent (a single `Option` check on each
//! instrumented operation); when active it is fully deterministic — the
//! same plan against the same workload fires at the same ordinals, which
//! is what lets the fault suites assert bit-identical trajectories around
//! injected failures.
//!
//! ## Plan grammar
//!
//! Clauses are separated by `;` (or `,`):
//!
//! ```text
//! plan   := clause (';' clause)*
//! clause := 'seed=' N | op ':' kind trigger
//! op     := 'read' | 'write' | 'rename' | 'eval'
//! kind   := 'enospc' | 'denied' | 'torn' | 'panic'
//! trigger:= '@' N        — exactly the N-th operation (1-based)
//!         | '@' N '+'    — every operation from the N-th on
//!         | '%' N        — every N-th operation, phase-shifted by the seed
//! ```
//!
//! `eval` operations only accept the `panic` kind (a misbehaving cost
//! function); the storage operations (`read`/`write`/`rename`) only accept
//! the I/O kinds. Examples:
//!
//! ```text
//! eval:panic@13;write:enospc@11+     — 13th evaluation panics, disk full
//!                                      from the 11th write attempt on
//! read:denied%7;seed=3               — every 7th read (offset 3) EACCES
//! ```

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Environment variable holding a plan spec; read once per
/// [`QorEvaluator`](crate::QorEvaluator) construction.
pub const FAULT_PLAN_ENV: &str = "BOILS_FAULT_PLAN";

/// The instrumented operation classes, each with its own ordinal counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// A persistent-store entry read.
    Read,
    /// A persistent-store entry write attempt (its tempfile).
    Write,
    /// A persistent-store atomic rename.
    Rename,
    /// One unique (uncached) objective evaluation.
    Eval,
}

impl FaultOp {
    const ALL: [FaultOp; 4] = [
        FaultOp::Read,
        FaultOp::Write,
        FaultOp::Rename,
        FaultOp::Eval,
    ];

    fn index(self) -> usize {
        match self {
            FaultOp::Read => 0,
            FaultOp::Write => 1,
            FaultOp::Rename => 2,
            FaultOp::Eval => 3,
        }
    }

    fn name(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
            FaultOp::Rename => "rename",
            FaultOp::Eval => "eval",
        }
    }
}

/// What an injected fault does to the operation it lands on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The device is full (`ENOSPC`).
    Enospc,
    /// Permission denied (`EACCES`).
    Denied,
    /// A torn short write: only part of the payload reaches the file, the
    /// operation itself reports success — caught by the store's post-write
    /// verification (or, for entries that slip through, by the entry
    /// checksum on read).
    Torn,
    /// The evaluation panics mid-compute (only valid on `eval` operations).
    Panic,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Enospc => "enospc",
            FaultKind::Denied => "denied",
            FaultKind::Torn => "torn",
            FaultKind::Panic => "panic",
        }
    }

    /// The `io::Error` this fault surfaces as (for the non-torn I/O kinds).
    pub fn io_error(self) -> io::Error {
        match self {
            // Real OS errno values so downstream `raw_os_error`/kind
            // handling behaves exactly as on a genuinely bad disk.
            FaultKind::Enospc => io::Error::from_raw_os_error(28), // ENOSPC
            FaultKind::Denied => io::Error::from_raw_os_error(13), // EACCES
            FaultKind::Torn => io::Error::new(io::ErrorKind::InvalidData, "injected torn write"),
            FaultKind::Panic => io::Error::other("injected panic"),
        }
    }
}

/// When a clause fires, in terms of the 1-based per-operation ordinal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Trigger {
    /// Exactly the `n`-th operation.
    At(usize),
    /// Every operation from the `n`-th on.
    From(usize),
    /// Every `n`-th operation, phase-shifted by the plan seed.
    Every(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Clause {
    op: FaultOp,
    kind: FaultKind,
    trigger: Trigger,
}

/// A parsed fault plan: which operations fail, how, and when.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    clauses: Vec<Clause>,
}

impl FaultPlan {
    /// Parses a plan spec (see the module-level grammar).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed clauses, unknown
    /// operations or kinds, zero periods, and kind/operation mismatches
    /// (`panic` is eval-only; the I/O kinds are storage-only).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for raw in spec.split([';', ',']) {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("bad seed in fault plan: {clause:?}"))?;
                continue;
            }
            let (op_text, rest) = clause
                .split_once(':')
                .ok_or_else(|| format!("fault clause {clause:?} is missing ':'"))?;
            let op = FaultOp::ALL
                .into_iter()
                .find(|op| op.name() == op_text)
                .ok_or_else(|| format!("unknown fault operation {op_text:?}"))?;
            let (kind_text, trigger_text) = rest
                .find(['@', '%'])
                .map(|i| rest.split_at(i))
                .ok_or_else(|| format!("fault clause {clause:?} is missing '@N' or '%N'"))?;
            let kind = [
                FaultKind::Enospc,
                FaultKind::Denied,
                FaultKind::Torn,
                FaultKind::Panic,
            ]
            .into_iter()
            .find(|kind| kind.name() == kind_text)
            .ok_or_else(|| format!("unknown fault kind {kind_text:?}"))?;
            if (op == FaultOp::Eval) != (kind == FaultKind::Panic) {
                return Err(format!(
                    "fault kind {kind_text:?} does not apply to {op_text:?} operations \
                     (eval takes 'panic'; storage ops take the I/O kinds)"
                ));
            }
            let parse_n = |digits: &str| -> Result<usize, String> {
                let n: usize = digits
                    .parse()
                    .map_err(|_| format!("bad ordinal in fault clause {clause:?}"))?;
                if n == 0 {
                    return Err(format!("fault ordinals are 1-based: {clause:?}"));
                }
                Ok(n)
            };
            let trigger = if let Some(body) = trigger_text.strip_prefix('@') {
                match body.strip_suffix('+') {
                    Some(digits) => Trigger::From(parse_n(digits)?),
                    None => Trigger::At(parse_n(body)?),
                }
            } else if let Some(body) = trigger_text.strip_prefix('%') {
                Trigger::Every(parse_n(body)?)
            } else {
                return Err(format!("fault clause {clause:?} is missing '@N' or '%N'"));
            };
            plan.clauses.push(Clause { op, kind, trigger });
        }
        Ok(plan)
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Whether the plan contains `eval` clauses (which change observed
    /// values at the panicked position — the storage kinds never do).
    pub fn injects_eval_faults(&self) -> bool {
        self.clauses.iter().any(|c| c.op == FaultOp::Eval)
    }
}

/// Applies a [`FaultPlan`] to a stream of operations.
///
/// Shared (`Arc`) between a [`QorEvaluator`](crate::QorEvaluator) and its
/// attached [`PersistentPrefixStore`](crate::PersistentPrefixStore) so one
/// plan's ordinals span the whole evaluation stack.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    counters: [AtomicUsize; 4],
}

impl FaultInjector {
    /// An injector driving the given plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            counters: Default::default(),
        }
    }

    /// Builds an injector from [`FAULT_PLAN_ENV`], if set and non-empty.
    /// A malformed spec is reported on stderr and ignored rather than
    /// silently arming nothing the operator intended.
    pub fn from_env() -> Option<Arc<FaultInjector>> {
        let spec = std::env::var(FAULT_PLAN_ENV).ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(Arc::new(FaultInjector::new(plan))),
            Err(message) => {
                eprintln!("[boils] ignoring malformed {FAULT_PLAN_ENV}: {message}");
                None
            }
        }
    }

    /// Advances the `op` ordinal and returns the fault (if any) the plan
    /// schedules for it. The first matching clause wins.
    pub fn next_fault(&self, op: FaultOp) -> Option<FaultKind> {
        let ordinal = self.counters[op.index()].fetch_add(1, Ordering::Relaxed) + 1;
        self.plan
            .clauses
            .iter()
            .find(|clause| {
                clause.op == op
                    && match clause.trigger {
                        Trigger::At(n) => ordinal == n,
                        Trigger::From(n) => ordinal >= n,
                        Trigger::Every(n) => ordinal % n == (self.plan.seed as usize) % n,
                    }
            })
            .map(|clause| clause.kind)
    }

    /// How many `op` operations have been seen so far.
    pub fn op_count(&self, op: FaultOp) -> usize {
        self.counters[op.index()].load(Ordering::Relaxed)
    }

    /// The plan this injector applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_canonical_plan_shapes() {
        let plan = FaultPlan::parse("eval:panic@13;write:enospc@11+").expect("valid");
        assert!(!plan.is_empty());
        assert!(plan.injects_eval_faults());
        let plan = FaultPlan::parse("read:denied%7, seed=3").expect("valid");
        assert!(!plan.injects_eval_faults());
        assert_eq!(plan.seed, 3);
        assert!(FaultPlan::parse("").expect("empty is valid").is_empty());
    }

    #[test]
    fn rejects_malformed_and_mismatched_clauses() {
        for bad in [
            "write@3",           // missing kind
            "write:enospc",      // missing trigger
            "write:enospc@0",    // ordinals are 1-based
            "write:enospc%0",    // zero period
            "launder:enospc@1",  // unknown op
            "write:gremlins@1",  // unknown kind
            "eval:enospc@1",     // eval is panic-only
            "write:panic@1",     // storage ops take I/O kinds
            "seed=minus-one",    // bad seed
            "write:enospc@two+", // bad ordinal
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn at_from_and_every_triggers_fire_deterministically() {
        let injector = FaultInjector::new(
            FaultPlan::parse("write:torn@2;read:enospc@4+;rename:denied%3;seed=1").expect("valid"),
        );
        let writes: Vec<_> = (1..=4)
            .map(|_| injector.next_fault(FaultOp::Write))
            .collect();
        assert_eq!(writes, vec![None, Some(FaultKind::Torn), None, None]);
        let reads: Vec<_> = (1..=6)
            .map(|_| injector.next_fault(FaultOp::Read))
            .collect();
        assert_eq!(reads[..3], [None, None, None]);
        assert!(reads[3..].iter().all(|f| *f == Some(FaultKind::Enospc)));
        // `%3` with seed 1 fires at ordinals 1, 4, 7, …
        let renames: Vec<_> = (1..=7)
            .map(|_| injector.next_fault(FaultOp::Rename))
            .collect();
        for (i, fault) in renames.iter().enumerate() {
            let expect = (i + 1) % 3 == 1;
            assert_eq!(fault.is_some(), expect, "rename ordinal {}", i + 1);
        }
        // Ops are counted independently.
        assert_eq!(injector.op_count(FaultOp::Write), 4);
        assert_eq!(injector.op_count(FaultOp::Eval), 0);
    }

    #[test]
    fn io_errors_carry_real_errnos() {
        assert_eq!(FaultKind::Enospc.io_error().raw_os_error(), Some(28));
        assert_eq!(FaultKind::Denied.io_error().raw_os_error(), Some(13));
    }
}
