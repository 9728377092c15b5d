//! Ablation study over the design choices DESIGN.md calls out: the trust
//! region, the SSK (vs one-hot SE = SBO), SSK normalisation, and the
//! maximum sub-sequence order ℓ.
//!
//! ```text
//! cargo run -p boils-bench --bin ablation --release -- \
//!     [--budget 25] [--seeds 2] [--circuits adder,max] [--k 20]
//! ```

use boils_baselines::{Method, RunSpec};
use boils_bench::cli::{self, BenchArgs};
use boils_bench::figures::improvement_percent;
use boils_circuits::{Benchmark, CircuitSpec};
use boils_core::{Boils, BoilsConfig, QorEvaluator, RunControl, SequenceSpace};
use boils_gp::TrainConfig;

struct Variant {
    name: &'static str,
    make: fn(usize, usize, SequenceSpace, u64) -> BoilsConfig,
}

fn base_config(budget: usize, init: usize, space: SequenceSpace, seed: u64) -> BoilsConfig {
    BoilsConfig {
        max_evaluations: budget,
        initial_samples: init,
        space,
        seed,
        train: TrainConfig {
            steps: 10,
            ..TrainConfig::default()
        },
        ..BoilsConfig::default()
    }
}

fn main() {
    let args = BenchArgs::from_env();
    let cfg = cli::run_or_exit(cli::sweep_config_from(&args));
    let budget = cfg.budget;
    let init = (budget / 5).clamp(4, budget - 1);
    let space = SequenceSpace::new(cfg.sequence_length, 11);
    let circuits = if args.value("--circuits").is_some() {
        cfg.circuits.clone()
    } else {
        vec![Benchmark::Adder, Benchmark::Max]
    };

    let variants: Vec<Variant> = vec![
        Variant {
            name: "BOiLS (full)",
            make: base_config,
        },
        Variant {
            name: "no trust region",
            make: |b, i, s, seed| BoilsConfig {
                use_trust_region: false,
                ..base_config(b, i, s, seed)
            },
        },
        Variant {
            name: "unnormalised SSK",
            make: |b, i, s, seed| BoilsConfig {
                normalize_kernel: false,
                ..base_config(b, i, s, seed)
            },
        },
        Variant {
            name: "ssk order 2",
            make: |b, i, s, seed| BoilsConfig {
                ssk_order: 2,
                ..base_config(b, i, s, seed)
            },
        },
        Variant {
            name: "ssk order 6",
            make: |b, i, s, seed| BoilsConfig {
                ssk_order: 6,
                ..base_config(b, i, s, seed)
            },
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
                let mut config = (v.make)(budget, init, space, seed);
                config.threads = cfg.threads;
                let mut boils = Boils::new(config);
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
