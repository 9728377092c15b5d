//! # boils-aig — And-Inverter Graph substrate
//!
//! The foundational data structure of the BOiLS reproduction: a structurally
//! hashed, always-topological [And-Inverter Graph](Aig) with
//! complement-edge [literals](Lit), bit-parallel and exhaustive
//! [simulation](Aig::simulate), MFFC analysis, [AIGER I/O](Aig::write_aag)
//! and a seeded [random generator](random_aig) for property testing.
//!
//! All logic-synthesis transforms (`boils-synth`), the LUT mapper
//! (`boils-mapper`) and the benchmark generators (`boils-circuits`) operate
//! on this representation, mirroring how ABC centres on its AIG package.
//!
//! ## Example
//!
//! ```
//! use boils_aig::{Aig, Lit};
//!
//! // A full adder: sum = a ^ b ^ cin, carry = maj(a, b, cin).
//! let mut aig = Aig::new(3);
//! let (a, b, cin) = (aig.pi(0), aig.pi(1), aig.pi(2));
//! let ab = aig.xor(a, b);
//! let sum = aig.xor(ab, cin);
//! let carry = aig.maj(a, b, cin);
//! aig.add_po(sum);
//! aig.add_po(carry);
//!
//! assert_eq!(aig.num_pos(), 2);
//! assert!(aig.num_ands() <= 12);
//! aig.check().unwrap();
//! ```

mod aig;
mod aiger;
mod error;
mod export;
mod features;
mod hash;
mod lit;
mod random;
mod sim;

pub use crate::aig::{input_pattern, Aig, INPUT_MASKS};
pub use crate::aiger::AIGER_MAX_VARS;
pub use crate::error::{CheckAigError, ParseAagError};
pub use crate::features::{CircuitFeatures, CIRCUIT_FEATURE_DIM};
pub use crate::hash::{fnv1a64, splitmix64};
pub use crate::lit::Lit;
pub use crate::random::random_aig;
pub use crate::sim::SimTable;
