//! # boils-core — Bayesian Optimisation for Logic Synthesis
//!
//! The paper's primary contribution: [`Boils`] (Algorithm 2) searches the
//! combinatorial space of synthesis sequences `Alg^K` with a Gaussian
//! process surrogate over the sub-sequence string kernel and a
//! trust-region-constrained expected-improvement maximiser. The crate also
//! provides the [`QorEvaluator`], which scores the paper's Eq. 1 or another
//! built-in [`Objective`] (area, delay, AIG depth, LUT count or a weighted
//! sum) from one objective-independent memo table, the
//! [`SequenceSpace`] abstraction, the [`Sbo`] standard-BO baseline
//! (configured by the same [`BoilsConfig`]), and the shared parallel
//! evaluation engine ([`SequenceObjective`] / [`ShardedCache`]) with the
//! [`RunLedger`] that every optimiser — here and in `boils-baselines` —
//! spends its budget through.
//!
//! ## Example
//!
//! ```no_run
//! use boils_circuits::{Benchmark, CircuitSpec};
//! use boils_core::{Boils, BoilsConfig, QorEvaluator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let aig = CircuitSpec::new(Benchmark::Multiplier).build();
//! let evaluator = QorEvaluator::new(&aig)?;
//! let mut optimiser = Boils::new(BoilsConfig {
//!     max_evaluations: 60,
//!     ..BoilsConfig::default()
//! });
//! let result = optimiser.run(&evaluator)?;
//! println!(
//!     "{}: QoR {:.4} ({:+.2}% vs resyn2)",
//!     result.best_sequence,
//!     result.best_qor,
//!     result.best_point.improvement_percent()
//! );
//! # Ok(())
//! # }
//! ```

mod bo;
mod boils;
pub mod control;
pub mod eval;
pub mod fault;
pub mod job;
pub mod prefix;
mod qor;
mod result;
mod sbo;
mod space;

pub use crate::boils::{Acquisition, Boils, BoilsConfig, RunBoilsError, RunDiagnostics, WarmStart};
pub use crate::control::{RunControl, StopReason};
pub use crate::eval::{RunLedger, SequenceObjective, ShardedCache, QUARANTINE_QOR};
pub use crate::fault::{FaultInjector, FaultKind, FaultOp, FaultPlan, FAULT_PLAN_ENV};
pub use crate::job::{EvaluatorPool, JobId, Priority, QueueFull, WorkerPool};
pub use crate::prefix::{
    PersistentPrefixStore, PrefixCache, PrefixStats, TransferDonor, DEFAULT_PERSIST_BYTE_BUDGET,
    DEFAULT_PREFIX_CAPACITY,
};
pub use crate::qor::{DegenerateReferenceError, Objective, QorEvaluator, QorPoint};
pub use crate::result::{EvalRecord, OptimizationResult, Termination};
pub use crate::sbo::Sbo;
pub use crate::space::SequenceSpace;
pub use boils_mapper::SynthStats;
