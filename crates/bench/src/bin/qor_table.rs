//! Regenerates the paper's Figure 3 **top row**: the QoR-improvement table
//! (% vs `resyn2`) for every circuit × method, averaged over seeds.
//!
//! ```text
//! cargo run -p boils-bench --bin qor_table --release -- \
//!     [--budget 25] [--seeds 2] [--multiplier 3] [--paper] \
//!     [--circuits adder,bar] [--methods rs,boils] [--out results/raw.csv]
//! ```

use boils_bench::cli;
use boils_bench::figures::qor_table;

fn main() {
    let (_, cfg, sweep) = cli::sweep_main();
    let budget = cfg.budget;
    println!("\n== Figure 3 (top): QoR improvement % at N = {budget} ==\n");
    println!("{}", qor_table(&sweep, budget));
}
