//! The benchmark's workloads. Why each exists, which layers it stresses
//! and which it bypasses is recorded in `BENCHMARK.json`; the numbers that
//! define it live here.

use boils_circuits::Benchmark;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// BOiLS, default configuration apart from `batch_size`.
    Boils { batch_size: usize },
    /// Latin-hypercube random search.
    RandomSearch,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub circuit: Benchmark,
    pub bits: usize,
    pub method: Method,
    pub budget: usize,
    pub threads: usize,
    /// Attach a persistent prefix store in a fresh directory.
    pub store: bool,
    /// `evals_to_target`'s frozen target: random search's best QoR on this
    /// circuit at this budget with seed 0 (`run.sh --target <name>`).
    pub target: f64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "rs_square",
        circuit: Benchmark::Square,
        bits: 8,
        method: Method::RandomSearch,
        budget: 50,
        threads: 1,
        store: false,
        target: 1.9365853658536585,
    },
    Workload {
        name: "boils_q4_sqrt_store",
        circuit: Benchmark::SquareRoot,
        bits: 16,
        method: Method::Boils { batch_size: 4 },
        budget: 60,
        threads: 2,
        store: true,
        target: 1.7833333333333332,
    },
];

/// The calibration setting (not a workload): the ROADMAP's hand-patched
/// layer split was measured on adder(32), BOiLS default, budget 120, K = 20,
/// one thread.
pub const CALIBRATION: Workload = Workload {
    name: "calibration_adder32",
    circuit: Benchmark::Adder,
    bits: 32,
    method: Method::Boils { batch_size: 1 },
    budget: 120,
    threads: 1,
    store: false,
    target: 2.0,
};

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS
        .iter()
        .chain([&CALIBRATION])
        .find(|w| w.name == name)
        .copied()
}

/// The optimiser seed of loop `index` in a run with seed `seed`. Loop 0 of
/// seed 0 uses optimiser seed 0, the seed the targets were measured with.
pub fn loop_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(index as u64)
}
