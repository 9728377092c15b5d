//! Regenerates the paper's Figure 3 **middle row**: convergence curves
//! (running-best QoR improvement vs tested sequences) per circuit, as CSV
//! series ready for plotting.
//!
//! ```text
//! cargo run -p boils-bench --bin fig3_convergence --release -- \
//!     [--circuits hyp,div,log2,multiplier] [--from results/raw.csv]
//! ```

use boils_bench::cli;
use boils_bench::figures::convergence_csv;

fn main() {
    let (args, cfg, sweep) = cli::sweep_main();
    let circuits = cli::figure3_circuits(&args, &cfg, &sweep);
    for c in circuits {
        println!("\n== Figure 3 (middle): convergence on {} ==", c.name());
        println!("{}", convergence_csv(&sweep, c));
    }
}
