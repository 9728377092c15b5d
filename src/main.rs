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
//! Flags may be written `--flag value` or `--flag=value`; a command refuses
//! any flag it does not read (`boils_bench::cli::BenchArgs`).

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::Duration;

use boils::aig::Aig;
use boils::baselines::{Method, RunSpec};
use boils::circuits::{Benchmark, CircuitSpec};
use boils::core::{Objective, Priority, RunControl, SequenceSpace, Termination};
use boils::daemon::{Client, DaemonConfig, JobRequest, Server, Value};
use boils::mapper::{map_stats, MapperConfig, LUT_SIZES};
use boils::sat::{check_equivalence, EquivResult};
use boils::synth::{apply_sequence, Transform};
use boils_bench::cli::{run_or_exit, BenchArgs};
use boils_bench::suite::{describe_store, evaluator, fault_injector, objective};

/// Each command and the flags it reads (see [`BenchArgs::strict`]: a flag
/// ending in `=` takes a value, any other is a switch).
const COMMANDS: [&str; 8] = [
    "generate --input= --circuit= --bits= --output=",
    "stats    --input= --circuit= --bits=",
    "synth    --input= --circuit= --bits= --ops= --output= --verilog=",
    "map      --input= --circuit= --bits= --lut-size=",
    "check    --golden= --revised=",
    "optimize --input= --circuit= --bits= --method= --budget= --k= --seed= --objective=\n\
     \x20          --deadline-secs= --threads= --batch-size= --surrogate-window=\n\
     \x20          --cache-dir= --fault-plan= --mo --transfer",
    "serve    --addr= --workers= --queue-cap= --cache-dir=",
    "submit   --addr= --jobs= --store-stats --shutdown --circuit= --bits= --method=\n\
     \x20          --budget= --k= --seed= --objective= --priority= --deadline-secs=\n\
     \x20          --mo --transfer",
];

fn main() {
    let mut args = std::env::args().skip(1);
    run_or_exit(run(args.next().as_deref(), args));
}

/// Runs `command` on `flags`, parsed against the flags it reads. No
/// command, `help` and `--help` print the usage.
fn run(command: Option<&str>, flags: impl Iterator<Item = String>) -> Result<(), String> {
    let command = command.unwrap_or("help");
    let spec = COMMANDS
        .iter()
        .find_map(|c| c.strip_prefix(command)?.strip_prefix(' '));
    let args = match spec {
        Some(spec) => BenchArgs::strict(flags, spec)?,
        None if matches!(command, "help" | "--help") => {
            print_help();
            return Ok(());
        }
        None => return Err(format!("unknown command {command:?} (see `boils help`)")),
    };
    match command {
        "generate" => generate(&args),
        "stats" => stats(&args),
        "synth" => synth(&args),
        "map" => map_cmd(&args),
        "check" => check(&args),
        "optimize" => optimize(&args),
        "serve" => serve(&args),
        "submit" => submit(&args),
        other => unreachable!("{other} is in COMMANDS but has no body"),
    }
}

fn print_help() {
    println!(
        "boils — Bayesian optimisation for logic synthesis (DATE 2022 reproduction)\n\n\
         USAGE:\n  boils <command> [--flag value | --flag=value | --switch]...\n\n\
         COMMANDS (a flag ending in `=` takes a value; any other flag is an error):"
    );
    for command in COMMANDS {
        println!("  {command}");
    }
    println!(
        "\n\
         --method     boils sbo ga rs greedy ppo a2c rl(=a2c) graphrl\n\
         --circuit    adder bar div hyp log2 max multiplier sin sqrt square\n\
         --objective  qor area delay levels lut weighted:W (the cost scored over the\n\
         \x20            synthesised netlist; cached synthesis is reused across objectives)\n\
         --mo         the BO methods optimise the (area, delay) front and print it\n\
         --deadline-secs  stop at the next evaluation boundary, keeping best-so-far\n\
         --fault-plan     deterministic storage/eval faults, e.g. \"seed=1;write:enospc@3+\"\n\
         \x20                (also read from BOILS_FAULT_PLAN)\n\
         --transfer   (boils, needs --cache-dir) warm-start from the most similar circuit\n\
         \x20            recorded in the store; every seed is re-evaluated here\n\
         serve        multi-tenant daemon: jobs share each circuit's synthesis caches\n\
         submit       one job from flags (defaults and bounds as optimize's), a --jobs\n\
         \x20            file of submit JSON lines, or --store-stats; streams event lines\n\
         \x20            and exits non-zero on rejected/failed jobs"
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

fn circuit_from_flags(args: &BenchArgs) -> Result<Aig, String> {
    if let Some(path) = args.value("--input") {
        return load_aig(path);
    }
    let benchmark = Benchmark::parse(args.required("--circuit")?)?;
    let mut spec = CircuitSpec::new(benchmark);
    if let Some(bits) = bits_flag(args, benchmark)? {
        spec = spec.bits(bits);
    }
    Ok(spec.build())
}

/// `--bits`, checked against `benchmark`'s generator.
fn bits_flag(args: &BenchArgs, benchmark: Benchmark) -> Result<Option<usize>, String> {
    let bits = args.parse("--bits")?;
    if let Some(bits) = bits {
        benchmark
            .check_bits(bits)
            .map_err(|e| format!("--bits {e}"))?;
    }
    Ok(bits)
}

fn generate(args: &BenchArgs) -> Result<(), String> {
    let aig = circuit_from_flags(args)?;
    let output = args.required("--output")?;
    save_aig(&aig, output)?;
    println!("wrote {aig} to {output}");
    Ok(())
}

fn stats(args: &BenchArgs) -> Result<(), String> {
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

fn synth(args: &BenchArgs) -> Result<(), String> {
    let aig = circuit_from_flags(args)?;
    let ops = parse_ops(args.required("--ops")?)?;
    let before = map_stats(&aig, &MapperConfig::default());
    let out = apply_sequence(&aig, &ops);
    let after = map_stats(&out, &MapperConfig::default());
    println!("before: {aig}");
    println!("        {before}");
    println!("after : {out}");
    println!("        {after}");
    if let Some(path) = args.value("--output") {
        save_aig(&out, path)?;
        println!("wrote {path}");
    }
    if let Some(path) = args.value("--verilog") {
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        out.write_verilog(BufWriter::new(file), "boils_out")
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn map_cmd(args: &BenchArgs) -> Result<(), String> {
    let k = args.parse("--lut-size")?.unwrap_or(6);
    if !LUT_SIZES.contains(&k) {
        return Err(format!("--lut-size {k} is outside {LUT_SIZES:?}"));
    }
    let aig = circuit_from_flags(args)?;
    let stats = map_stats(&aig, &MapperConfig::with_lut_size(k));
    println!("{aig}");
    println!("if -K {k}: {stats}");
    Ok(())
}

fn check(args: &BenchArgs) -> Result<(), String> {
    let golden = load_aig(args.required("--golden")?)?;
    let revised = load_aig(args.required("--revised")?)?;
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
fn serve(args: &BenchArgs) -> Result<(), String> {
    let defaults = DaemonConfig::default();
    let config = DaemonConfig {
        workers: args.parse("--workers")?.unwrap_or(defaults.workers),
        queue_cap: args.parse("--queue-cap")?.unwrap_or(defaults.queue_cap),
        cache_dir: args.value("--cache-dir").map(std::path::PathBuf::from),
    };
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7171");
    let server = Server::bind(config, addr)?;
    println!("listening on {}", server.local_addr());
    server.run()
}

/// `boils submit`: send one job (from flags) or a batch (`--jobs FILE`,
/// one submit JSON object per line) to a running daemon, stream its event
/// lines to stdout, and exit nonzero if any job was rejected or failed.
fn submit(args: &BenchArgs) -> Result<(), String> {
    let addr = args.required("--addr")?;
    let store_stats = args.flag("--store-stats");
    let batch = args.value("--jobs");
    // A job from flags meets the daemon's checks before anything queues;
    // `--store-stats` alone is a pure admin query.
    let job = if batch.is_none() && !(store_stats && args.value("--circuit").is_none()) {
        let circuit = Benchmark::parse(args.required("--circuit")?)?;
        let run = RunFlags::read(args)?;
        Some(JobRequest {
            circuit,
            bits: bits_flag(args, circuit)?,
            method: run.method,
            objective: run.objective,
            budget: run.budget,
            seed: run.seed,
            sequence_length: run.k,
            priority: args
                .value("--priority")
                .map_or(Ok(Priority::Normal), Priority::parse)?,
            deadline_secs: run.deadline_secs,
            multi_objective: run.multi_objective,
            transfer: run.transfer,
        })
    } else {
        None
    };
    let mut client = Client::connect(addr)?;
    let mut outstanding = 0usize;
    if let Some(path) = batch {
        let batch = std::fs::read_to_string(path).map_err(|e| format!("--jobs {path}: {e}"))?;
        for line in batch.lines().filter(|l| !l.trim().is_empty()) {
            // Sent verbatim: the daemon validates and answers a malformed
            // line with a `rejected` event while continuing to serve.
            client.send_raw(line)?;
            outstanding += 1;
        }
    } else if let Some(job) = job {
        client.submit(&job)?;
        outstanding = 1;
    }
    // Every submitted line resolves to exactly one terminal event:
    // rejected (nothing ran), finished, or failed. The store statistics are
    // asked for after every job resolved, so they reflect this invocation.
    let mut bad = 0usize;
    let mut stats_asked = !store_stats;
    while outstanding > 0 || !stats_asked {
        if outstanding == 0 {
            client.store_stats()?;
            (stats_asked, outstanding) = (true, 1);
        }
        let Some(event) = client.next_event()? else {
            return Err(format!(
                "daemon disconnected with {outstanding} request(s) outstanding"
            ));
        };
        println!("{}", event.to_json());
        match event.get("event").and_then(Value::as_str) {
            Some("rejected" | "failed") => {
                outstanding -= 1;
                bad += 1;
            }
            Some("finished" | "store_stats") => outstanding -= 1,
            _ => {}
        }
    }
    if args.flag("--shutdown") {
        client.shutdown()?;
    }
    if bad > 0 {
        return Err(format!("{bad} job(s) rejected or failed"));
    }
    Ok(())
}

/// The run flags `optimize` and `submit` share, read and checked once.
struct RunFlags {
    method: Method,
    budget: usize,
    k: usize,
    seed: u64,
    deadline_secs: Option<f64>,
    deadline: Option<Duration>,
    objective: Objective,
    multi_objective: bool,
    transfer: bool,
}

impl RunFlags {
    fn read(args: &BenchArgs) -> Result<RunFlags, String> {
        let method = Method::parse(args.value("--method").unwrap_or("boils"))?;
        let budget = args.parse("--budget")?.unwrap_or(40);
        let k = args.parse("--k")?.unwrap_or(20);
        let deadline_secs = args.parse("--deadline-secs")?;
        Ok(RunFlags {
            deadline: method
                .check_run(budget, k, deadline_secs)
                .map_err(|e| e.for_flag())?,
            objective: objective(args.value("--objective"))?,
            seed: args.parse("--seed")?.unwrap_or(0),
            multi_objective: args.flag("--mo"),
            transfer: args.flag("--transfer"),
            method,
            budget,
            k,
            deadline_secs,
        })
    }
}

fn optimize(args: &BenchArgs) -> Result<(), String> {
    let aig = circuit_from_flags(args)?;
    let run = RunFlags::read(args)?;
    let (method, multi_objective, transfer) = (run.method, run.multi_objective, run.transfer);
    let threads = args.parse("--threads")?.unwrap_or(1);
    let batch_size = args.parse("--batch-size")?.unwrap_or(1);
    let surrogate_window = args.parse("--surrogate-window")?;
    let fault = fault_injector(args.value("--fault-plan"))?;
    let cache_dir = args.value("--cache-dir");
    if transfer && cache_dir.is_none() {
        return Err(String::from(
            "--transfer needs --cache-dir: donor histories live in the persistent store",
        ));
    }
    let space = SequenceSpace::new(run.k, 11);
    // Disk-backed prefix store: repeated invocations (other seeds, other
    // methods, interrupted runs) on the same circuit resume from the
    // synthesis work earlier processes already did — bit-identically.
    let evaluator = evaluator(&aig, run.objective, fault, cache_dir.map(Path::new))?;
    // A deadline stops the run at the next evaluation boundary; what has
    // been evaluated by then is an exact prefix of the undisturbed
    // trajectory, so best-so-far is well-defined and reproducible.
    let control = match run.deadline {
        Some(deadline) => RunControl::with_deadline(deadline),
        None => RunControl::new(),
    };
    println!("{aig}");
    println!("reference (resyn2 + if -K 6): {}", evaluator.reference());
    let mut spec = RunSpec {
        threads,
        batch_size,
        surrogate_window,
        multi_objective,
        ..RunSpec::new(space, run.budget, run.seed)
    };
    let result = method
        .run_with_transfer(&mut spec, &evaluator, &control, transfer)
        .ok_or("run interrupted before any evaluation completed")?;
    let method_id = method.id();
    if multi_objective && !method.is_bayesian() {
        eprintln!("note: --mo only steers the BO methods; {method_id} ran unchanged");
    }
    if transfer && method != Method::Boils {
        eprintln!("note: --transfer only steers the boils method; {method_id} ran unchanged");
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
    if let Some(s) = &result.surrogate {
        let window = match surrogate_window {
            Some(w) => format!("window {w}"),
            None => String::from("unbounded"),
        };
        println!(
            "surrogate     : {window}, {} retrains, {} extends, {} downdates, {} fallback refits",
            s.retrains_at.len(),
            s.extends,
            s.downdates,
            s.fallback_refits
        );
    }
    if transfer && method == Method::Boils {
        match spec.warm_start.as_ref().map(|warm| warm.seeds.len()) {
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
    if let Some(store) = describe_store(&evaluator) {
        let stats = evaluator.prefix_stats();
        println!("cache dir     : {store}");
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
