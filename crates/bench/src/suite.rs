//! The experiment sweep: runs every method on every circuit across seeds,
//! mirroring the paper's protocol (BO methods at budget `N`, all other
//! methods at `3N` so sample-efficiency curves extend beyond the BO
//! horizon), and persists raw traces as CSV.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use boils_aig::Aig;
use boils_circuits::{Benchmark, CircuitSpec};
use boils_core::{
    FaultInjector, FaultPlan, Objective, QorEvaluator, RunControl, SequenceSpace, Termination,
};

use boils_baselines::{Method, RunSpec};

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Evaluation budget for the BO methods (paper: 200).
    pub budget: usize,
    /// Budget multiplier for non-BO methods (paper: 5, up to 1000).
    pub others_multiplier: usize,
    /// Number of random seeds (paper: 5).
    pub seeds: usize,
    /// Sequence length K (paper: 20).
    pub sequence_length: usize,
    /// Circuits included.
    pub circuits: Vec<Benchmark>,
    /// Methods included.
    pub methods: Vec<Method>,
    /// Optional bit-width override applied to every circuit (None = each
    /// benchmark's scaled default).
    pub bits: Option<usize>,
    /// Worker threads for batched evaluations inside each run (traces are
    /// thread-count invariant; this only changes wall-clock time).
    pub threads: usize,
    /// q-EI acquisition batch size for the BO methods (constant liar;
    /// `1` = the paper's sequential protocol). Unlike `threads`, values
    /// above 1 change the search trajectory.
    pub batch_size: usize,
    /// Bounded-history surrogate window for the BO methods (see
    /// [`boils_core::BoilsConfig::surrogate_window`]): `Some(w)` caps the
    /// GP training set at `w` observations. Like `batch_size`, setting it
    /// changes the search trajectory (the surrogate forgets old points);
    /// `None` reproduces the unbounded protocol.
    pub surrogate_window: Option<usize>,
    /// Directory for the disk-backed prefix store shared by every run of
    /// the sweep (and by concurrent or later sweep *processes* pointed at
    /// the same directory). `None` keeps all caching in memory. Like
    /// `threads`, this only changes wall-clock time: traces are
    /// bit-identical with the store cold, warm, or absent.
    pub cache_dir: Option<PathBuf>,
    /// Wall-clock deadline per run, in seconds. When it fires the run
    /// stops at the next evaluation boundary and keeps best-so-far (an
    /// exact prefix of the undisturbed trajectory). `None` = no deadline.
    pub deadline_secs: Option<f64>,
    /// Deterministic fault plan (see [`boils_core::FaultPlan::parse`])
    /// injected into every evaluator of the sweep — storage faults
    /// degrade the persistent store without changing traces; `eval:panic`
    /// clauses quarantine the hit sequences. `None` = no injection
    /// (beyond any `BOILS_FAULT_PLAN` environment plan).
    pub fault_plan: Option<String>,
    /// The cost function optimised by every run (see
    /// [`boils_core::Objective::parse`]): `"qor"`, `"area"`, `"delay"`,
    /// `"levels"`, `"lut"` or `"weighted:W"`. `None` = the paper's Eq. 1
    /// QoR. Switching the objective against a warm cache or persistent
    /// store reuses every synthesised result — only the scalarisation of
    /// the cached [`boils_core::SynthStats`] changes.
    pub objective: Option<String>,
    /// Run the BO methods in multi-objective mode (ParEGO random-weight
    /// Chebyshev acquisition over the cost vector; see
    /// [`boils_core::BoilsConfig::multi_objective`]). Non-BO methods
    /// ignore the flag but still report their nondominated archive.
    pub multi_objective: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            budget: 25,
            others_multiplier: 3,
            seeds: 2,
            sequence_length: 20,
            circuits: Benchmark::ALL.to_vec(),
            methods: Method::ALL.to_vec(),
            bits: None,
            threads: 1,
            batch_size: 1,
            surrogate_window: None,
            cache_dir: None,
            deadline_secs: None,
            fault_plan: None,
            objective: None,
            multi_objective: false,
        }
    }
}

impl SweepConfig {
    /// The paper-scale protocol (hours of compute; see `EXPERIMENTS.md`).
    pub fn paper() -> SweepConfig {
        SweepConfig {
            budget: 200,
            others_multiplier: 5,
            seeds: 5,
            ..SweepConfig::default()
        }
    }

    /// Budget for one method under this protocol.
    pub fn budget_for(&self, method: Method) -> usize {
        if method.is_bayesian() {
            self.budget
        } else {
            self.budget.saturating_mul(self.others_multiplier)
        }
    }

    /// Checks every field with the grammars and bounds `boils optimize`
    /// and the daemon use ([`Benchmark::check_bits`], [`Method::check_run`])
    /// and returns what it parsed, or a one-line diagnostic naming the flag.
    pub fn validate(&self) -> Result<Checked, String> {
        let objective = objective(self.objective.as_deref())?;
        // One injector for the whole sweep: its operation ordinals span
        // every circuit, method and seed, so a plan like `write:enospc@10+`
        // means "the tenth disk write of the sweep", wherever it lands.
        let injector = fault_injector(self.fault_plan.as_deref())?;
        if self.seeds == 0 {
            return Err("--seeds takes a positive seed count".to_string());
        }
        if let Some(bits) = self.bits {
            for &circuit in &self.circuits {
                let bits = suitable_bits(circuit, bits);
                circuit
                    .check_bits(bits)
                    .map_err(|e| format!("--bits {e}"))?;
            }
        }
        let mut deadline = None;
        for &method in &self.methods {
            deadline = method
                .check_run(
                    self.budget_for(method),
                    self.sequence_length,
                    self.deadline_secs,
                )
                .map_err(|e| e.for_flag())?;
        }
        Ok((objective, injector, deadline))
    }
}

/// What [`SweepConfig::validate`] parses.
pub type Checked = (Objective, Option<Arc<FaultInjector>>, Option<Duration>);

/// The cost an `--objective` names (see [`Objective::parse`]), or QoR.
pub fn objective(name: Option<&str>) -> Result<Objective, String> {
    let parsed = name.map_or(Ok(Objective::Qor), Objective::parse);
    parsed.map_err(|e| format!("--objective: {e}"))
}

/// The fault injector for a `--fault-plan` (see [`FaultPlan::parse`]).
pub fn fault_injector(plan: Option<&str>) -> Result<Option<Arc<FaultInjector>>, String> {
    let injector = |spec| FaultPlan::parse(spec).map(|plan| Arc::new(FaultInjector::new(plan)));
    plan.map(injector)
        .transpose()
        .map_err(|e| format!("--fault-plan: {e}"))
}

/// What `evaluator`'s persistent store did, as `boils optimize` prints it
/// and the sweep logs it; `None` without a store.
pub fn describe_store(evaluator: &QorEvaluator) -> Option<String> {
    let store = evaluator.persistent_store()?;
    let stats = evaluator.prefix_stats();
    let degraded = match stats.store_disabled_at {
        Some(op) => format!(", memory-only after op {op}"),
        None => String::new(),
    };
    Some(format!(
        "{} ({} disk hits, {} writes, {} corrupt dropped, {} entries, {} KiB, \
         {} write failures, {} retries{degraded})",
        store.dir().display(),
        stats.disk_hits,
        stats.disk_writes,
        stats.disk_corrupt_dropped,
        store.len(),
        store.total_bytes() / 1024,
        stats.disk_write_failures,
        stats.disk_retries,
    ))
}

/// The evaluator `boils optimize` and the sweep run on: `fault` overrides
/// any `BOILS_FAULT_PLAN` plan, and `cache_dir` holds a persistent store.
pub fn evaluator(
    aig: &Aig,
    objective: Objective,
    fault: Option<Arc<FaultInjector>>,
    cache_dir: Option<&Path>,
) -> Result<QorEvaluator, String> {
    let evaluator = QorEvaluator::new(aig)
        .map_err(|e| e.to_string())?
        .with_objective(objective);
    let evaluator = match fault {
        Some(fault) => evaluator.with_fault_injector(Some(fault)),
        None => evaluator,
    };
    match cache_dir {
        Some(dir) => evaluator
            .with_persistent_store(dir)
            .map_err(|e| format!("--cache-dir {}: {e}", dir.display())),
        None => Ok(evaluator),
    }
}

/// One optimisation run's trace.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The benchmark circuit.
    pub circuit: Benchmark,
    /// The optimiser.
    pub method: Method,
    /// The seed index (0-based).
    pub seed: u64,
    /// Per-evaluation `(qor, area, delay)` in evaluation order.
    pub trace: Vec<(f64, usize, u32)>,
}

impl RunRecord {
    /// Best (minimum) QoR within the first `budget` evaluations.
    pub fn best_qor_at(&self, budget: usize) -> f64 {
        self.trace
            .iter()
            .take(budget)
            .map(|&(q, _, _)| q)
            .fold(f64::INFINITY, f64::min)
    }

    /// `(area, delay)` of the best point within the first `budget` evals.
    pub fn best_point_at(&self, budget: usize) -> (usize, u32) {
        self.trace
            .iter()
            .take(budget)
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
            .map(|&(_, a, d)| (a, d))
            .expect("non-empty trace")
    }

    /// The running-best QoR curve.
    pub fn best_so_far(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.trace
            .iter()
            .map(|&(q, _, _)| {
                best = best.min(q);
                best
            })
            .collect()
    }

    /// First evaluation (1-based) reaching `target` QoR, if any.
    pub fn evals_to_reach(&self, target: f64) -> Option<usize> {
        self.best_so_far()
            .iter()
            .position(|&q| q <= target)
            .map(|i| i + 1)
    }
}

/// A full sweep result.
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    /// All runs.
    pub runs: Vec<RunRecord>,
}

impl Sweep {
    /// Runs the sweep, printing one progress line per run to stderr.
    /// Returns a one-line diagnostic if the config fails
    /// [`SweepConfig::validate`] or the cache directory cannot be opened.
    pub fn try_run(config: &SweepConfig) -> Result<Sweep, String> {
        let (objective, injector, deadline) = config.validate()?;
        let mut runs = Vec::new();
        let space = SequenceSpace::new(config.sequence_length, 11);
        for &circuit in &config.circuits {
            let mut spec = CircuitSpec::new(circuit);
            if let Some(bits) = config.bits {
                spec = spec.bits(suitable_bits(circuit, bits));
            }
            // One evaluator per circuit: its sharded memo cache is shared
            // across every method and seed on that circuit, so a sequence
            // synthesised once is never recomputed by a later method. With
            // a cache directory, the prefix store extends that sharing
            // across sweep *processes* (other seeds, methods, restarts).
            let evaluator = evaluator(
                &spec.build(),
                objective,
                injector.clone(),
                config.cache_dir.as_deref(),
            )?;
            for &method in &config.methods {
                let budget = config.budget_for(method);
                for seed in 0..config.seeds as u64 {
                    let t0 = std::time::Instant::now();
                    let control = match deadline {
                        Some(deadline) => RunControl::with_deadline(deadline),
                        None => RunControl::new(),
                    };
                    let spec = RunSpec {
                        threads: config.threads,
                        batch_size: config.batch_size,
                        surrogate_window: config.surrogate_window,
                        multi_objective: config.multi_objective,
                        ..RunSpec::new(space, budget, seed)
                    };
                    let Some(result) = method.run(&spec, &evaluator, &control) else {
                        eprintln!(
                            "[sweep] {:<10} {:<12} seed {}  interrupted before first evaluation",
                            circuit.name(),
                            method.id(),
                            seed,
                        );
                        continue;
                    };
                    let trace: Vec<(f64, usize, u32)> = result
                        .history
                        .iter()
                        .map(|r| (r.point.qor, r.point.area, r.point.delay))
                        .collect();
                    let mut notes = String::new();
                    if result.termination != Termination::BudgetExhausted {
                        let _ = write!(notes, "  [{}]", result.termination);
                    }
                    if !result.quarantined.is_empty() {
                        let _ = write!(notes, "  [{} quarantined]", result.quarantined.len());
                    }
                    eprintln!(
                        "[sweep] {:<10} {:<12} seed {}  best {:.4}  ({:.1}s){notes}",
                        circuit.name(),
                        method.id(),
                        seed,
                        result.best_qor,
                        t0.elapsed().as_secs_f64()
                    );
                    runs.push(RunRecord {
                        circuit,
                        method,
                        seed,
                        trace,
                    });
                }
            }
            if let Some(store) = describe_store(&evaluator) {
                eprintln!("[sweep] {:<10} persistent store: {store}", circuit.name());
            }
        }
        Ok(Sweep { runs })
    }

    /// Runs of one circuit/method pair.
    pub fn select(&self, circuit: Benchmark, method: Method) -> Vec<&RunRecord> {
        self.runs
            .iter()
            .filter(|r| r.circuit == circuit && r.method == method)
            .collect()
    }

    /// Mean best QoR at `budget` over seeds; `None` if no runs exist.
    pub fn mean_best_qor(&self, circuit: Benchmark, method: Method, budget: usize) -> Option<f64> {
        let runs = self.select(circuit, method);
        if runs.is_empty() {
            return None;
        }
        Some(runs.iter().map(|r| r.best_qor_at(budget)).sum::<f64>() / runs.len() as f64)
    }

    /// Serialises the sweep as CSV (`circuit,method,seed,eval,qor,area,delay`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("circuit,method,seed,eval,qor,area,delay\n");
        for run in &self.runs {
            for (i, &(q, a, d)) in run.trace.iter().enumerate() {
                writeln!(
                    out,
                    "{},{},{},{},{:.6},{},{}",
                    run.circuit.name(),
                    run.method.id(),
                    run.seed,
                    i + 1,
                    q,
                    a,
                    d
                )
                .expect("writing to a String cannot fail");
            }
        }
        out
    }

    /// Parses the CSV produced by [`Sweep::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first malformed line.
    pub fn from_csv(text: &str) -> Result<Sweep, String> {
        let mut runs: Vec<RunRecord> = Vec::new();
        for (n, line) in text.lines().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 7 {
                return Err(format!("line {}: expected 7 fields", n + 1));
            }
            let circuit = Benchmark::ALL
                .into_iter()
                .find(|b| b.name() == fields[0])
                .ok_or_else(|| format!("line {}: unknown circuit {}", n + 1, fields[0]))?;
            let method = Method::from_id(fields[1])
                .ok_or_else(|| format!("line {}: unknown method {}", n + 1, fields[1]))?;
            let parse_err = |f: &str| format!("line {}: bad number {f:?}", n + 1);
            let seed: u64 = fields[2].parse().map_err(|_| parse_err(fields[2]))?;
            let qor: f64 = fields[4].parse().map_err(|_| parse_err(fields[4]))?;
            let area: usize = fields[5].parse().map_err(|_| parse_err(fields[5]))?;
            let delay: u32 = fields[6].parse().map_err(|_| parse_err(fields[6]))?;
            match runs.last_mut() {
                Some(last)
                    if last.circuit == circuit && last.method == method && last.seed == seed =>
                {
                    last.trace.push((qor, area, delay));
                }
                _ => runs.push(RunRecord {
                    circuit,
                    method,
                    seed,
                    trace: vec![(qor, area, delay)],
                }),
            }
        }
        Ok(Sweep { runs })
    }

    /// Writes the sweep CSV to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }

    /// Loads a sweep CSV from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and parse errors.
    pub fn load(path: &Path) -> Result<Sweep, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Sweep::from_csv(&text)
    }
}

/// Clamps a width override to each benchmark's structural constraints.
fn suitable_bits(benchmark: Benchmark, bits: usize) -> usize {
    match benchmark {
        Benchmark::BarrelShifter => bits.next_power_of_two().max(4),
        Benchmark::SquareRoot => (bits + bits % 2).max(4),
        Benchmark::Sine | Benchmark::Log2 => bits.max(4),
        _ => bits.max(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trips() {
        let sweep = Sweep {
            runs: vec![
                RunRecord {
                    circuit: Benchmark::Adder,
                    method: Method::Rs,
                    seed: 0,
                    trace: vec![(2.0, 50, 16), (1.9, 47, 16)],
                },
                RunRecord {
                    circuit: Benchmark::Adder,
                    method: Method::Boils,
                    seed: 1,
                    trace: vec![(1.8, 45, 15)],
                },
            ],
        };
        let csv = sweep.to_csv();
        let back = Sweep::from_csv(&csv).expect("round trip");
        assert_eq!(back.runs.len(), 2);
        assert_eq!(back.runs[0].trace.len(), 2);
        assert_eq!(back.runs[1].method, Method::Boils);
        assert!((back.runs[0].trace[1].0 - 1.9).abs() < 1e-9);
    }

    #[test]
    fn record_metrics() {
        let run = RunRecord {
            circuit: Benchmark::Max,
            method: Method::Ga,
            seed: 0,
            trace: vec![(2.0, 10, 5), (1.5, 8, 4), (1.7, 9, 4), (1.2, 7, 3)],
        };
        assert_eq!(run.best_qor_at(2), 1.5);
        assert_eq!(run.best_qor_at(10), 1.2);
        assert_eq!(run.best_point_at(4), (7, 3));
        assert_eq!(run.best_so_far(), vec![2.0, 1.5, 1.5, 1.2]);
        assert_eq!(run.evals_to_reach(1.5), Some(2));
        assert_eq!(run.evals_to_reach(0.5), None);
    }

    #[test]
    fn budget_protocol_matches_paper_shape() {
        let cfg = SweepConfig::default();
        assert_eq!(cfg.budget_for(Method::Boils), cfg.budget);
        assert_eq!(cfg.budget_for(Method::Sbo), cfg.budget);
        assert_eq!(
            cfg.budget_for(Method::Rs),
            cfg.budget * cfg.others_multiplier
        );
        let paper = SweepConfig::paper();
        assert_eq!(paper.budget, 200);
        assert_eq!(paper.budget_for(Method::Ga), 1000);
    }

    #[test]
    fn malformed_csv_is_reported() {
        assert!(Sweep::from_csv("header\nbad,line\n").is_err());
        assert!(Sweep::from_csv("header\nadder,rs,0,1,notanumber,1,1\n").is_err());
    }
}
