//! Regenerates the paper's **Figure 1**: the average number of tested
//! sequences each method needs to recover 97.5 % of the QoR improvement
//! BOiLS achieves within its budget.
//!
//! ```text
//! cargo run -p boils-bench --bin fig1_sample_efficiency --release -- \
//!     [--budget 25] [--seeds 2] [--multiplier 3] [--from results/raw.csv]
//! ```

use boils_bench::cli;
use boils_bench::figures::sample_efficiency;

fn main() {
    let (_, cfg, sweep) = cli::sweep_main();
    let budget = cfg.budget;
    println!("\n== Figure 1: sample efficiency (target = 97.5% of BOiLS@{budget}) ==\n");
    println!("{}", sample_efficiency(&sweep, budget));
}
