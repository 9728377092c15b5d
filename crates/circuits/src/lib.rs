//! # boils-circuits — EPFL-style arithmetic benchmark generators
//!
//! Parametric structural generators for the ten EPFL arithmetic benchmarks
//! the BOiLS paper evaluates on: adder, barrel shifter, divisor, hypotenuse,
//! log2, max, multiplier, sine, square root and square. Each generator is
//! validated bit-exactly against an integer [reference model](model) through
//! AIG simulation.
//!
//! Widths are configurable; the defaults are scaled down from the EPFL
//! originals (e.g. a 8-bit instead of 64-bit multiplier) so that full
//! optimisation sweeps run on a single machine — see `DESIGN.md`.
//!
//! ## Example
//!
//! ```
//! use boils_circuits::{Benchmark, CircuitSpec};
//!
//! let aig = CircuitSpec::new(Benchmark::Multiplier).bits(6).build();
//! assert_eq!(aig.num_pis(), 12);
//! assert_eq!(aig.num_pos(), 12);
//! // 21 * 3 = 63: drive the inputs and read back the product.
//! let mut inputs = vec![0u64; 12];
//! for i in 0..6 {
//!     inputs[i] = (21 >> i & 1) * !0u64;
//!     inputs[6 + i] = (3 >> i & 1) * !0u64;
//! }
//! let out = aig.simulate(&inputs);
//! let product: u64 = out.iter().enumerate().map(|(i, w)| (w & 1) << i).sum();
//! assert_eq!(product, 63);
//! ```

mod benchmarks;
pub mod words;

pub use crate::benchmarks::{log2_frac_bits, log2_int_bits, model, Benchmark, CircuitSpec};
