//! Ablation study over the design choices DESIGN.md calls out: the trust
//! region, the SSK (vs one-hot SE = SBO), SSK normalisation, and the
//! maximum sub-sequence order ℓ.
//!
//! ```text
//! cargo run -p boils-bench --bin ablation --release -- \
//!     [--budget 25] [--seeds 2] [--circuits adder,max] [--k 20] \
//!     [--threads 1] [--paper]
//! ```

use boils_baselines::{Method, RunSpec};
use boils_bench::cli::{self, BenchArgs};
use boils_bench::figures::improvement_percent;
use boils_circuits::{Benchmark, CircuitSpec};
use boils_core::{Boils, BoilsConfig, QorEvaluator, RunControl, SequenceSpace};

/// A BOiLS variant: a change to the configuration `Method::Boils` runs.
struct Variant {
    name: &'static str,
    make: fn(BoilsConfig) -> BoilsConfig,
}

fn main() {
    let args = cli::run_or_exit(BenchArgs::from_env(
        "--budget= --seeds= --circuits= --k= --threads= --paper",
    ));
    let mut cfg = cli::run_or_exit(cli::sweep_config_from(&args));
    // The variants run BOiLS; the kernel end-point runs SBO.
    cfg.methods = vec![Method::Sbo, Method::Boils];
    cli::run_or_exit(cfg.validate());
    let budget = cfg.budget;
    let space = SequenceSpace::new(cfg.sequence_length, 11);
    let circuits = if args.value("--circuits").is_some() {
        cfg.circuits.clone()
    } else {
        vec![Benchmark::Adder, Benchmark::Max]
    };

    let variants: Vec<Variant> = vec![
        Variant {
            name: "BOiLS (full)",
            make: |c| c,
        },
        Variant {
            name: "no trust region",
            make: |c| BoilsConfig {
                use_trust_region: false,
                ..c
            },
        },
        Variant {
            name: "unnormalised SSK",
            make: |c| BoilsConfig {
                normalize_kernel: false,
                ..c
            },
        },
        Variant {
            name: "ssk order 2",
            make: |c| BoilsConfig { ssk_order: 2, ..c },
        },
        Variant {
            name: "ssk order 6",
            make: |c| BoilsConfig { ssk_order: 6, ..c },
        },
    ];

    println!("== Ablations: mean QoR improvement % at N = {budget} ==\n");
    print!("{:<18}", "variant");
    for c in &circuits {
        print!(" {:>12}", c.name());
    }
    println!();
    for v in &variants {
        print!("{:<18}", v.name);
        for &c in &circuits {
            let aig = CircuitSpec::new(c).build();
            let evaluator = QorEvaluator::new(&aig).expect("non-degenerate");
            let mut sum = 0.0;
            for seed in 0..cfg.seeds as u64 {
                let spec = RunSpec {
                    threads: cfg.threads,
                    ..RunSpec::new(space, budget, seed)
                };
                let mut boils = Boils::new((v.make)(spec.boils_config()));
                let r = boils.run(&evaluator).expect("run");
                sum += improvement_percent(r.best_qor);
            }
            print!(" {:>12.2}", sum / cfg.seeds as f64);
        }
        println!();
    }
    // The kernel ablation end-point: one-hot SE (== SBO, run with the
    // same settings as every other SBO run).
    print!("{:<18}", "one-hot SE (SBO)");
    for &c in &circuits {
        let aig = CircuitSpec::new(c).build();
        let evaluator = QorEvaluator::new(&aig).expect("non-degenerate");
        let mut sum = 0.0;
        for seed in 0..cfg.seeds as u64 {
            let spec = RunSpec {
                threads: cfg.threads,
                ..RunSpec::new(space, budget, seed)
            };
            let r = Method::Sbo
                .run(&spec, &evaluator, &RunControl::new())
                .expect("uncontrolled run completes");
            sum += improvement_percent(r.best_qor);
        }
        print!(" {:>12.2}", sum / cfg.seeds as f64);
    }
    println!();
}
