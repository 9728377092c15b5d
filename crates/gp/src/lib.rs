//! # boils-gp — Gaussian processes for sequence optimisation
//!
//! The probabilistic machinery of BOiLS: exact [GP regression](Gp) on top of
//! an in-crate dense [linear algebra layer](Matrix), the
//! [sub-sequence string kernel](SskKernel) of the paper's Section III-B1
//! (with the Table I semantics, validated against brute force), an ARD
//! [squared-exponential kernel](SquaredExponential) over real vectors,
//! projected-Adam hyperparameter training (paper Eq. 4) and the
//! [expected-improvement](expected_improvement) acquisition, plus
//! [`ConstantLiar`] fantasy models for batched (q-EI) proposals.
//!
//! ## Example
//!
//! ```
//! use boils_gp::{expected_improvement, Gp, SskKernel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Black-box scores for three synthesis sequences (higher is better).
//! let seqs: Vec<Vec<u8>> = vec![vec![0, 1, 2], vec![2, 1, 0], vec![0, 0, 0]];
//! let scores = vec![0.8, 0.3, 0.5];
//! let gp = Gp::fit(SskKernel::new(3), seqs, scores, 1e-6)?;
//! let (mean, var) = gp.predict(&vec![0u8, 1, 1]);
//! let ei = expected_improvement(mean, var, 0.8);
//! assert!(ei >= 0.0);
//! # Ok(())
//! # }
//! ```

mod acquisition;
mod gp;
mod kernel;
mod linalg;
mod pareto;
mod qei;
mod ssk;
mod surrogate;

pub use crate::acquisition::{erf, expected_improvement, normal_cdf, normal_pdf};
pub use crate::gp::{sample_gaussian, standard_normal, Gp, TrainConfig, UpdateOutcome};
pub use crate::kernel::{Kernel, SquaredExponential};
pub use crate::linalg::{Cholesky, Matrix, NotPositiveDefiniteError};
pub use crate::pareto::{
    dominates, hypervolume_2d, hypervolume_improvement_2d, hypervolume_reference, Scalarisation,
};
pub use crate::qei::ConstantLiar;
pub use crate::ssk::SskKernel;
pub use crate::surrogate::{Surrogate, SurrogateConfig, SurrogateDiagnostics};
