//! `boils` — command-line front end to the BOiLS reproduction.
//!
//! ```text
//! boils generate --circuit multiplier --bits 8 --output mult.aag
//! boils stats    --input mult.aag
//! boils synth    --input mult.aag --ops "balance;rewrite;fraig" --output opt.aag
//! boils map      --input opt.aag [--lut-size 6]
//! boils check    --golden mult.aag --revised opt.aag
//! boils optimize --input mult.aag [--budget 40] [--method boils] [--seed 0] [--threads 8] [--batch-size 4] [--surrogate-window 32] [--cache-dir .boils-cache] [--deadline-secs 300] [--fault-plan "write:enospc@3"]
//! ```
//!
//! Flags may be written `--flag value` or `--flag=value`.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use boils::aig::Aig;
use boils::baselines::{Method, RunSpec};
use boils::circuits::{Benchmark, CircuitSpec};
use boils::core::{
    FaultInjector, FaultPlan, Objective, QorEvaluator, RunControl, SequenceSpace, Termination,
    WarmStart,
};
use boils::gp::SurrogateDiagnostics;
use boils::mapper::{map_stats, MapperConfig};
use boils::sat::{check_equivalence, EquivResult};
use boils::synth::{apply_sequence, Transform};

/// The command line, parsed exactly once: a subcommand plus `--flag value`
/// / `--flag=value` pairs.
struct Args {
    command: String,
    values: HashMap<String, String>,
}

impl Args {
    fn from_env() -> Result<Args, String> {
        Args::from_iter(std::env::args().skip(1))
    }

    fn from_iter(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut iter = args.into_iter();
        let command = iter.next().unwrap_or_else(|| String::from("help"));
        let mut values = HashMap::new();
        let mut iter = iter.peekable();
        while let Some(arg) = iter.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            let (name, value) = match flag.split_once('=') {
                Some((name, value)) => (name.to_string(), value.to_string()),
                None => {
                    // `--flag value`, or a bare boolean (`--mo`) when the
                    // next token is itself a flag or the line ends.
                    let value = match iter.peek() {
                        Some(next) if !next.starts_with("--") => iter.next().expect("peeked value"),
                        _ => String::from("true"),
                    };
                    (flag.to_string(), value)
                }
            };
            if values.insert(name.clone(), value).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
        }
        Ok(Args { command, values })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Parses `--name`, falling back to `default` when absent.
    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a value like its default; got {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    match Args::from_env().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    match args.command.as_str() {
        "generate" => generate(args),
        "stats" => stats(args),
        "synth" => synth(args),
        "map" => map_cmd(args),
        "check" => check(args),
        "optimize" => optimize(args),
        "serve" => serve(args),
        "submit" => submit(args),
        _ => {
            print_help();
            Ok(())
        }
    }
}

fn print_help() {
    println!(
        "boils — Bayesian optimisation for logic synthesis (DATE 2022 reproduction)\n\n\
         USAGE:\n  boils <command> [flags]   (--flag value or --flag=value)\n\n\
         COMMANDS:\n\
         \x20 generate  --circuit <name> [--bits N] --output <file.aag|.aig>\n\
         \x20 stats     --input <file>\n\
         \x20 synth     --input <file> --ops \"balance;rewrite;...\" [--output <file>] [--verilog <file.v>]\n\
         \x20 map       --input <file> [--lut-size K]\n\
         \x20 check     --golden <file> --revised <file>\n\
         \x20 optimize  --input <file> | --circuit <name> [--bits N]\n\
         \x20           [--method boils|sbo|ga|rs|greedy|ppo|a2c|rl|graphrl] [--budget N]\n\
         \x20           [--k N] [--seed N]\n\
         \x20           [--threads N] [--batch-size Q] [--surrogate-window W] [--cache-dir DIR]\n\
         \x20           [--deadline-secs S] [--fault-plan PLAN] [--transfer]\n\
         \x20           [--objective qor|area|delay|levels|lut|weighted:W] [--mo]\n\n\
         \x20           --objective swaps the cost function scored over the synthesised\n\
         \x20           netlist (cached synthesis results are reused across objectives);\n\
         \x20           --mo makes the BO methods optimise the (area, delay) front\n\
         \x20           directly and print the nondominated archive.\n\n\
         \x20           --deadline-secs stops the run at the next evaluation boundary once the\n\
         \x20           wall-clock budget elapses (best-so-far is kept); --fault-plan injects\n\
         \x20           deterministic storage/eval faults, e.g. \"seed=1;write:enospc@3+\"\n\
         \x20           (also read from BOILS_FAULT_PLAN).\n\n\
         \x20           --transfer (boils, needs --cache-dir) warm-starts the run from the\n\
         \x20           most similar circuit with recorded history in the store; every\n\
         \x20           transferred seed is re-evaluated exactly on this circuit.\n\n\
         \x20 serve     [--addr 127.0.0.1:7171|unix:/path.sock] [--workers N]\n\
         \x20           [--queue-cap N] [--cache-dir DIR]\n\
         \x20           multi-tenant daemon: jobs share each circuit's synthesis caches\n\
         \x20 submit    --addr ADDR (--circuit <name> --method <id> --budget N\n\
         \x20           [--objective NAME] [--seed N] [--k N] [--bits N]\n\
         \x20           [--priority low|normal|high] [--deadline-secs S] [--mo] [--transfer]\n\
         \x20           | --jobs <file with one submit JSON per line>\n\
         \x20           | --store-stats)\n\
         \x20           [--shutdown]  streams event JSON lines; nonzero exit on\n\
         \x20           rejected/failed jobs. --store-stats asks the daemon for its\n\
         \x20           per-circuit store statistics (dedup hits, bytes saved)\n\n\
         Circuits: adder bar div hyp log2 max multiplier sin sqrt square"
    );
}

fn load_aig(path: &str) -> Result<Aig, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reader = BufReader::new(file);
    if path.ends_with(".aag") {
        Aig::read_aag(reader).map_err(|e| format!("{path}: {e}"))
    } else {
        Aig::read_aig_binary(reader).map_err(|e| format!("{path}: {e}"))
    }
}

fn save_aig(aig: &Aig, path: &str) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut writer = BufWriter::new(file);
    if path.ends_with(".aag") {
        aig.write_aag(&mut writer)
            .map_err(|e| format!("{path}: {e}"))
    } else {
        aig.write_aig_binary(&mut writer)
            .map_err(|e| format!("{path}: {e}"))
    }
}

fn circuit_from_flags(args: &Args) -> Result<Aig, String> {
    if let Some(path) = args.get("input") {
        return load_aig(path);
    }
    let name = args.required("circuit")?;
    let benchmark = Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| format!("unknown circuit {name:?}"))?;
    let mut spec = CircuitSpec::new(benchmark);
    if let Some(bits) = args.get("bits") {
        let bits: usize = bits.parse().map_err(|_| "--bits takes an integer")?;
        spec = spec.bits(bits);
    }
    Ok(spec.build())
}

fn generate(args: &Args) -> Result<(), String> {
    let aig = circuit_from_flags(args)?;
    let output = args.required("output")?;
    save_aig(&aig, output)?;
    println!("wrote {aig} to {output}");
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    let aig = circuit_from_flags(args)?;
    println!("{aig}");
    let mapping = map_stats(&aig, &MapperConfig::default());
    println!("if -K 6: {mapping}");
    Ok(())
}

fn parse_ops(spec: &str) -> Result<Vec<Transform>, String> {
    spec.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<Transform>().map_err(|e| e.to_string()))
        .collect()
}

fn synth(args: &Args) -> Result<(), String> {
    let aig = circuit_from_flags(args)?;
    let ops = parse_ops(args.required("ops")?)?;
    let before = map_stats(&aig, &MapperConfig::default());
    let out = apply_sequence(&aig, &ops);
    let after = map_stats(&out, &MapperConfig::default());
    println!("before: {aig}");
    println!("        {before}");
    println!("after : {out}");
    println!("        {after}");
    if let Some(path) = args.get("output") {
        save_aig(&out, path)?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("verilog") {
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        out.write_verilog(BufWriter::new(file), "boils_out")
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn map_cmd(args: &Args) -> Result<(), String> {
    let aig = circuit_from_flags(args)?;
    let k: usize = args.parse_or("lut-size", 6)?;
    let stats = map_stats(&aig, &MapperConfig::with_lut_size(k));
    println!("{aig}");
    println!("if -K {k}: {stats}");
    Ok(())
}

fn check(args: &Args) -> Result<(), String> {
    let golden = load_aig(args.required("golden")?)?;
    let revised = load_aig(args.required("revised")?)?;
    if golden.num_pis() != revised.num_pis() || golden.num_pos() != revised.num_pos() {
        return Err(format!(
            "interface mismatch: {}/{} inputs, {}/{} outputs",
            golden.num_pis(),
            revised.num_pis(),
            golden.num_pos(),
            revised.num_pos()
        ));
    }
    match check_equivalence(&golden, &revised, Some(5_000_000)) {
        EquivResult::Equivalent => {
            println!("EQUIVALENT");
            Ok(())
        }
        EquivResult::NotEquivalent { counterexample } => {
            let bits: String = counterexample
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            Err(format!("NOT equivalent; counterexample inputs = {bits}"))
        }
        EquivResult::Unknown => Err(String::from("undecided within the conflict budget")),
    }
}

/// `boils serve`: run the multi-tenant optimisation daemon until a client
/// sends `{"op":"shutdown"}`.
fn serve(args: &Args) -> Result<(), String> {
    let defaults = boils::daemon::DaemonConfig::default();
    let config = boils::daemon::DaemonConfig {
        workers: args.parse_or("workers", defaults.workers)?,
        queue_cap: args.parse_or("queue-cap", defaults.queue_cap)?,
        cache_dir: args.get("cache-dir").map(std::path::PathBuf::from),
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:7171");
    let server = boils::daemon::Server::bind(config, addr)?;
    println!("listening on {}", server.local_addr());
    server.run()
}

/// `boils submit`: send one job (from flags) or a batch (`--jobs FILE`,
/// one submit JSON object per line) to a running daemon, stream its event
/// lines to stdout, and exit nonzero if any job was rejected or failed.
fn submit(args: &Args) -> Result<(), String> {
    use boils::daemon::{Client, JobRequest, Value};
    let addr = args.required("addr")?;
    let store_stats = args.parse_or("store-stats", false)?;
    let mut client = Client::connect(addr)?;
    let mut outstanding = 0usize;
    if store_stats && args.get("jobs").is_none() && args.get("circuit").is_none() {
        // Pure admin query: no job rides along.
    } else if let Some(path) = args.get("jobs") {
        let batch = std::fs::read_to_string(path).map_err(|e| format!("--jobs {path}: {e}"))?;
        for line in batch.lines().filter(|l| !l.trim().is_empty()) {
            // Sent verbatim: the daemon validates and answers a malformed
            // line with a `rejected` event while continuing to serve.
            client.send_raw(line)?;
            outstanding += 1;
        }
    } else {
        let mut job = Value::object();
        job.set("op", Value::from("submit"));
        job.set("circuit", Value::from(args.required("circuit")?));
        job.set("method", Value::from(args.required("method")?));
        job.set("budget", Value::Number(args.parse_or("budget", 40.0)?));
        if let Some(v) = args.get("objective") {
            job.set("objective", Value::from(v));
        }
        job.set("seed", Value::Number(args.parse_or("seed", 0.0)?));
        job.set("k", Value::Number(args.parse_or("k", 20.0)?));
        if let Some(bits) = args.get("bits") {
            let bits: f64 = bits.parse().map_err(|_| "--bits takes an integer")?;
            job.set("bits", Value::Number(bits));
        }
        if let Some(v) = args.get("priority") {
            job.set("priority", Value::from(v));
        }
        if let Some(v) = args.get("deadline-secs") {
            let secs: f64 = v
                .parse()
                .map_err(|_| format!("--deadline-secs takes seconds; got {v:?}"))?;
            job.set("deadline_secs", Value::Number(secs));
        }
        if args.parse_or("mo", false)? {
            job.set("mo", Value::from(true));
        }
        if args.parse_or("transfer", false)? {
            job.set("transfer", Value::from(true));
        }
        // Validate locally first — same code path the daemon runs — so a
        // typo fails with the daemon's diagnostic before anything queues.
        let request = JobRequest::from_json(&job)?;
        client.submit(&request)?;
        outstanding = 1;
    }
    // Every submitted line resolves to exactly one terminal event:
    // rejected (nothing ran), finished, or failed.
    let mut bad = 0usize;
    while outstanding > 0 {
        let Some(event) = client.next_event()? else {
            return Err(format!(
                "daemon disconnected with {outstanding} job(s) outstanding"
            ));
        };
        println!("{}", event.to_json());
        match event.get("event").and_then(Value::as_str) {
            Some("rejected" | "failed") => {
                outstanding -= 1;
                bad += 1;
            }
            Some("finished") => outstanding -= 1,
            _ => {}
        }
    }
    // The stats snapshot is taken after every submitted job resolved, so
    // it reflects the work this invocation just caused.
    if store_stats {
        client.store_stats()?;
        loop {
            let Some(event) = client.next_event()? else {
                return Err(String::from(
                    "daemon disconnected before answering store-stats",
                ));
            };
            println!("{}", event.to_json());
            if event.get("event").and_then(Value::as_str) == Some("store_stats") {
                break;
            }
        }
    }
    if args.parse_or("shutdown", false)? {
        client.shutdown()?;
    }
    if bad > 0 {
        return Err(format!("{bad} job(s) rejected or failed"));
    }
    Ok(())
}

/// One human-readable line summarising a BO run's surrogate lifecycle.
fn describe_surrogate(s: &SurrogateDiagnostics, window: Option<usize>) -> String {
    let window = match window {
        Some(w) => format!("window {w}"),
        None => String::from("unbounded"),
    };
    format!(
        "{window}, {} retrains, {} extends, {} downdates, {} fallback refits",
        s.retrains_at.len(),
        s.extends,
        s.downdates,
        s.fallback_refits
    )
}

fn optimize(args: &Args) -> Result<(), String> {
    let aig = circuit_from_flags(args)?;
    let budget: usize = args.parse_or("budget", 40)?;
    let k: usize = args.parse_or("k", 20)?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let threads: usize = args.parse_or("threads", 1)?;
    let batch_size: usize = args.parse_or("batch-size", 1)?;
    let surrogate_window: Option<usize> = match args.get("surrogate-window") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--surrogate-window takes a window size; got {v:?}"))?,
        ),
    };
    let deadline_secs: Option<f64> = match args.get("deadline-secs") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--deadline-secs takes seconds; got {v:?}"))?,
        ),
    };
    let fault = match args.get("fault-plan") {
        Some(spec) => {
            let plan = FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
            Some(std::sync::Arc::new(FaultInjector::new(plan)))
        }
        None => None,
    };
    let method_id = args.get("method").unwrap_or("boils");
    // `rl` is an alias of `a2c`: DRiLLS with A2C updates.
    let method = match method_id {
        "rl" => Method::DrillsA2c,
        id => Method::parse(id)?,
    };
    let multi_objective: bool = args.parse_or("mo", false)?;
    let transfer: bool = args.parse_or("transfer", false)?;
    if transfer && args.get("cache-dir").is_none() {
        return Err(String::from(
            "--transfer needs --cache-dir: donor histories live in the persistent store",
        ));
    }
    let objective = match args.get("objective") {
        Some(name) => Some(Objective::parse(name).map_err(|e| format!("--objective: {e}"))?),
        None => None,
    };
    let space = SequenceSpace::new(k, 11);
    let evaluator = QorEvaluator::new(&aig).map_err(|e| e.to_string())?;
    let evaluator = match objective {
        Some(objective) => evaluator.with_objective(objective),
        None => evaluator,
    };
    let evaluator = match fault {
        Some(fault) => evaluator.with_fault_injector(Some(fault)),
        None => evaluator,
    };
    // Disk-backed prefix store: repeated invocations (other seeds, other
    // methods, interrupted runs) on the same circuit resume from the
    // synthesis work earlier processes already did — bit-identically.
    let evaluator = match args.get("cache-dir") {
        Some(dir) => evaluator
            .with_persistent_store(dir)
            .map_err(|e| format!("--cache-dir {dir}: {e}"))?,
        None => evaluator,
    };
    // A deadline stops the run at the next evaluation boundary; what has
    // been evaluated by then is an exact prefix of the undisturbed
    // trajectory, so best-so-far is well-defined and reproducible.
    let control = match deadline_secs {
        Some(secs) => RunControl::with_deadline(std::time::Duration::from_secs_f64(secs)),
        None => RunControl::new(),
    };
    // Warm start: seed the design with the best sequences a structurally
    // similar circuit already explored. Donor costs are never trusted —
    // every seed is re-evaluated here — so transfer changes *which*
    // sequences are tried first, never what any sequence scores.
    let warm_start = if transfer {
        evaluator
            .transfer_donor()
            .map(|donor| WarmStart::from_donor(&donor, 3))
            .filter(|warm| !warm.is_empty())
    } else {
        None
    };
    let transfer_seeds = warm_start.as_ref().map(|warm| warm.seeds.len());
    println!("{aig}");
    println!("reference (resyn2 + if -K 6): {}", evaluator.reference());
    let spec = RunSpec {
        threads,
        batch_size,
        surrogate_window,
        multi_objective,
        warm_start,
        ..RunSpec::new(space, budget, seed)
    };
    let result = method
        .run(&spec, &evaluator, &control)
        .ok_or("run interrupted before any evaluation completed")?;
    if multi_objective && !method.is_bayesian() {
        eprintln!("note: --mo only steers the BO methods; {method_id} ran unchanged");
    }
    if transfer {
        if method != Method::Boils {
            eprintln!("note: --transfer only steers the boils method; {method_id} ran unchanged");
        }
        // Record unconditionally so even a cold first run becomes a donor
        // for the next similar circuit.
        evaluator.record_transfer_history(&result.history);
    }
    println!("method        : {method_id}");
    println!(
        "objective     : {}{}",
        result.objective,
        if multi_objective {
            " (multi-objective)"
        } else {
            ""
        }
    );
    println!("threads       : {threads}");
    println!("evaluations   : {}", result.num_evaluations());
    if result.termination != Termination::BudgetExhausted {
        println!("termination   : {} (best-so-far below)", result.termination);
    }
    if !result.quarantined.is_empty() {
        println!(
            "quarantined   : {} sequence(s) hit a panicking evaluation and were \
             pinned to the worst-case QoR sentinel",
            result.quarantined.len()
        );
    }
    // Surrogate-lifecycle counters of the BO methods: extends/downdates
    // say how the model was updated, and a non-zero fallback count flags
    // numerically-degenerate incremental updates that silently fell back
    // to full refits.
    if let Some(surrogate) = &result.surrogate {
        println!(
            "surrogate     : {}",
            describe_surrogate(surrogate, surrogate_window)
        );
    }
    if transfer && method == Method::Boils {
        match transfer_seeds {
            Some(n) => println!(
                "transfer      : warm-started with {n} seed(s) from the most similar \
                 recorded circuit (re-evaluated exactly here)"
            ),
            None => println!("transfer      : no donor history in the store yet (cold start)"),
        }
    }
    println!(
        "unique/cached : {} unique, {} cache hits",
        evaluator.num_evaluations(),
        evaluator.cache_hits()
    );
    if let Some(store) = evaluator.persistent_store() {
        let stats = evaluator.prefix_stats();
        let degraded = match stats.store_disabled_at {
            Some(op) => format!(", memory-only after op {op}"),
            None => String::new(),
        };
        println!(
            "cache dir     : {} ({} disk hits, {} writes, {} corrupt dropped, {} entries, \
             {} KiB, {} write failures, {} retries{degraded})",
            store.dir().display(),
            stats.disk_hits,
            stats.disk_writes,
            stats.disk_corrupt_dropped,
            store.len(),
            store.total_bytes() / 1024,
            stats.disk_write_failures,
            stats.disk_retries,
        );
        println!(
            "dedup         : {} payload hits across circuits, {} KiB not rewritten \
             ({} pointer entries)",
            stats.dedup_hits,
            stats.payload_bytes_saved / 1024,
            stats.pointer_entries,
        );
    }
    println!("best sequence : {}", result.best_sequence);
    // The "vs resyn2" percentage is a statement about Eq. 1 QoR (resyn2
    // scores exactly 2 there); other cost functions have no such anchor.
    let vs_resyn2 = if result.objective == "qor" {
        format!(
            ", {:+.2}% vs resyn2",
            result.best_point.improvement_percent()
        )
    } else {
        String::new()
    };
    println!(
        "best cost     : {:.4}  (area {} LUTs, delay {} levels{vs_resyn2})",
        result.best_qor, result.best_point.area, result.best_point.delay,
    );
    if multi_objective {
        println!(
            "pareto front  : {} nondominated point(s)",
            result.pareto_front.len()
        );
        for record in &result.pareto_front {
            println!(
                "  area {:>5}  delay {:>3}  cost {:.4}  {}",
                record.point.area,
                record.point.delay,
                record.point.qor,
                space.display(&record.tokens)
            );
        }
    }
    Ok(())
}
