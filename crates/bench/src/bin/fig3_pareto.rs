//! Regenerates the paper's Figure 3 **bottom row**: the (area, delay)
//! profiles of each method's best per-seed solutions, their Pareto-front
//! membership with per-method dominated hypervolume, and the
//! per-evaluation hypervolume convergence trace. With `--mo` the sweep's
//! BO methods optimise the front directly (ParEGO acquisition); with
//! `--objective NAME` every method optimises that cost function.
//!
//! ```text
//! cargo run -p boils-bench --bin fig3_pareto --release -- \
//!     [--mo] [--objective qor] \
//!     [--circuits hyp,div,log2,multiplier] [--from results/raw.csv]
//! ```

use boils_bench::cli;
use boils_bench::figures::{hypervolume_trace, pareto_report};

fn main() {
    let (args, cfg, sweep) = cli::sweep_main();
    let budget = cfg.budget;
    let circuits = cli::figure3_circuits(&args, &cfg, &sweep);
    for c in circuits {
        println!("{}", pareto_report(&sweep, c, budget));
        println!("{}", hypervolume_trace(&sweep, c, budget));
    }
}
