//! # boils-synth — technology-independent logic synthesis transforms
//!
//! A from-scratch reimplementation of the eleven ABC transforms that form
//! the BOiLS paper's action alphabet, plus the `resyn2` reference flow:
//!
//! | ABC command | function |
//! |-------------|----------|
//! | [`rewrite`] / `rewrite -z` | DAG-aware 4-cut rewriting |
//! | [`refactor`] / `refactor -z` | reconvergence-driven cone refactoring |
//! | [`resub`] / `resub -z` | windowed resubstitution |
//! | [`balance`] | depth-minimal AND-tree balancing |
//! | [`fraig`] | simulation + SAT sweeping |
//! | [`sop_balance`] (`sopb`) | SOP rebalancing through 6-LUT mapping |
//! | [`blut_balance`] (`blut`) | Shannon rebalancing through 6-LUT mapping |
//! | [`dsd_balance`] (`dsdb`) | DSD rebalancing through 6-LUT mapping |
//!
//! Every transform takes `&Aig` and returns a new functionally equivalent
//! [`Aig`](boils_aig::Aig); equivalence is enforced by exhaustive and
//! SAT-based property tests. The [`Transform`] enum packages the alphabet
//! for sequence optimisers.
//!
//! ## Example
//!
//! ```
//! use boils_aig::random_aig;
//! use boils_synth::{resyn2, Transform};
//!
//! let aig = random_aig(7, 6, 120, 2);
//! let reference = resyn2(&aig); // the paper's normalising flow
//! let tuned = Transform::Fraig.apply(&reference);
//! assert_eq!(tuned.simulate_exhaustive(), aig.simulate_exhaustive());
//! ```

mod balance;
mod cuts;
mod factor;
mod fraig;
mod mapping_balance;
mod rebuild;
mod refactor;
mod resub;
mod rewrite;
mod transform;
pub mod tt;

pub use crate::balance::balance;
pub use crate::fraig::{fraig, fraig_with, fraig_with_stats, FraigConfig, FraigStats};
pub use crate::mapping_balance::{blut_balance, dsd_balance, sop_balance};
pub use crate::refactor::refactor;
pub use crate::resub::resub;
pub use crate::rewrite::rewrite;
pub use crate::transform::{apply_sequence, resyn2, ParseTransformError, Transform};
