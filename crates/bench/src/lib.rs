//! # boils-bench — the experiment harness
//!
//! Regenerates every table and figure of the BOiLS paper's evaluation:
//!
//! | binary | paper artefact |
//! |--------|----------------|
//! | `qor_table` | Figure 3 top row (QoR improvement table) |
//! | `fig1_sample_efficiency` | Figure 1 (evals to reach 97.5 % of BOiLS) |
//! | `fig3_convergence` | Figure 3 middle row (convergence curves) |
//! | `fig3_pareto` | Figure 3 bottom row (Pareto fronts) |
//! | `fig2_gp` | Figure 2 (GP prior/posterior samples) |
//! | `table1_ssk` | Table I (SSK contributions) |
//! | `ablation` | design-choice ablations (ours) |
//!
//! The sweep binaries accept `--budget`, `--seeds`, `--multiplier`, `--k`,
//! `--bits`, `--threads`, `--circuits`, `--methods`, `--paper`, and can
//! persist / reuse raw traces with `--out file.csv` / `--from file.csv`
//! (`ablation` reads a subset); any other flag is an error.
//! Defaults are scaled down so the full suite runs in minutes; `--paper`
//! restores the paper's protocol (200/1000 evaluations, 5 seeds).

pub mod cli;
pub mod figures;
pub mod suite;

pub use crate::suite::{RunRecord, Sweep, SweepConfig};
pub use boils_baselines::Method;
