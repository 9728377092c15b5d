//! The paper's core comparison in miniature: BOiLS vs standard BO, a
//! genetic algorithm, random search and the greedy constructor on one
//! circuit, all sharing one evaluation budget.
//!
//! ```text
//! cargo run --release --example compare_methods
//! ```

use boils::baselines::{Method, RunSpec};
use boils::circuits::{Benchmark, CircuitSpec};
use boils::core::{QorEvaluator, RunControl, SequenceSpace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let aig = CircuitSpec::new(Benchmark::Max).build();
    let evaluator = QorEvaluator::new(&aig)?;
    let budget = 25;
    // All methods share the evaluator's memo cache AND the parallel batch
    // engine; the search trajectories are identical at any thread count.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let spec = RunSpec {
        threads,
        ..RunSpec::new(SequenceSpace::paper(), budget, 0)
    };
    println!("circuit {aig}");
    println!("budget  {budget} evaluations per method, {threads} evaluation threads\n");
    println!(
        "{:<10} {:>9} {:>12} {:>7} {:>7}",
        "method", "best QoR", "improvement", "area", "delay"
    );
    for method in [
        Method::Rs,
        Method::Greedy,
        Method::Ga,
        Method::Sbo,
        Method::Boils,
    ] {
        let result = method
            .run(&spec, &evaluator, &RunControl::new())
            .expect("an uncontrolled run completes");
        println!(
            "{:<10} {:>9.4} {:>11.2}% {:>7} {:>7}",
            method.name(),
            result.best_qor,
            result.best_point.improvement_percent(),
            result.best_point.area,
            result.best_point.delay
        );
    }

    println!(
        "\n(unique black-box evaluations across all methods: {}, served {} \
         cache hits — the shared memo cache deduplicates repeats)",
        evaluator.num_evaluations(),
        evaluator.cache_hits()
    );
    Ok(())
}
