//! # boils-baselines — the paper's comparison methods
//!
//! Every optimiser BOiLS is compared against in Section IV:
//!
//! * [`random_search`] — Latin-hypercube random search (pymoo-style),
//!   the paper's "valuable baseline".
//! * [`genetic_algorithm`] — elitist GA with tournament selection, uniform
//!   crossover and per-gene mutation (`geneticalgorithm2`-style).
//! * [`greedy`] — the immediate-improvement sequence constructor.
//! * [`reinforcement_learning`] — DRiLLS-style A2C/PPO and a Graph-RL-style
//!   feature variant (see `DESIGN.md` for the substitution notes).
//!
//! All baselines consume the same
//! [`SequenceObjective`](boils_core::SequenceObjective) (typically a
//! [`QorEvaluator`](boils_core::QorEvaluator)), spend their budgets through
//! a [`RunLedger`](boils_core::RunLedger) as BOiLS itself does, and so
//! keep the same cancellation and quarantine contract and emit the same
//! [`OptimizationResult`](boils_core::OptimizationResult) trace; the
//! experiment harness treats every method uniformly. [`Method`] wraps the
//! whole comparison — baselines plus the BO methods from `boils-core` —
//! behind one id-addressable enum, which is what the experiment harness
//! and the optimisation daemon dispatch on, with [`Method::check_run`] as
//! the bounds every front end checks.

mod ga;
mod method;
mod rl;
mod simple;

pub use crate::ga::{genetic_algorithm, GaConfig};
pub use crate::method::{
    check_threads, InputError, Method, RunSpec, MAX_BUDGET, MAX_SEQUENCE_LENGTH, MAX_THREADS,
};
pub use crate::rl::{reinforcement_learning, RlAlgorithm, RlConfig, RlFeatures, RolloutCircuit};
pub use crate::simple::{greedy, random_search, random_search_controlled};
