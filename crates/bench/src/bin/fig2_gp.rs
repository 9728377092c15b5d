//! Regenerates the paper's **Figure 2**: samples from a squared-exponential
//! GP prior and from the posterior after conditioning on data, as CSV.
//!
//! ```text
//! cargo run -p boils-bench --bin fig2_gp --release -- [--seed 0]
//! ```

use boils_bench::cli::{run_or_exit, BenchArgs};
use boils_bench::figures::gp_figure;

fn main() {
    let args = run_or_exit(BenchArgs::from_env("--seed="));
    let seed: u64 = run_or_exit(args.parse("--seed")).unwrap_or(0);
    println!("== Figure 2: GP prior and posterior samples (SE kernel) ==");
    println!("{}", gp_figure(seed));
}
