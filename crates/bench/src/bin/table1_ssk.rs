//! Regenerates the paper's **Table I**: the SSK contribution `c_u(seq)` of
//! three sub-sequences to three synthesis sequences.
//!
//! ```text
//! cargo run -p boils-bench --bin table1_ssk --release
//! ```

use boils_bench::cli::{run_or_exit, BenchArgs};
use boils_bench::figures::ssk_table;

fn main() {
    run_or_exit(BenchArgs::from_env(""));
    println!("== Table I: sub-sequence contributions c_u(seq) ==\n");
    println!("{}", ssk_table());
}
