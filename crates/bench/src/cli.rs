//! Minimal flag parsing shared by the experiment binaries (no external
//! dependency needed). The command line is collected once per call into a
//! parsed view supporting both `--flag value` and `--flag=value`.

use boils_circuits::Benchmark;

use crate::suite::SweepConfig;
use boils_baselines::Method;

/// A parsed command line: `--flag value` / `--flag=value` pairs and bare
/// boolean flags.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    entries: Vec<(String, Option<String>)>,
}

impl BenchArgs {
    /// Parses the process's own command line.
    pub fn from_env() -> BenchArgs {
        BenchArgs::from_list(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (for tests).
    pub fn from_list(args: impl IntoIterator<Item = String>) -> BenchArgs {
        let mut entries: Vec<(String, Option<String>)> = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                if let Some((name, value)) = flag.split_once('=') {
                    entries.push((format!("--{name}"), Some(value.to_string())));
                } else {
                    // `--flag value` when the next token is not itself a
                    // flag; bare boolean otherwise.
                    let value = match iter.peek() {
                        Some(next) if !next.starts_with("--") => iter.next(),
                        _ => None,
                    };
                    entries.push((arg, value));
                }
            } else {
                entries.push((arg, None));
            }
        }
        BenchArgs { entries }
    }

    /// The value of `--name`, if present with a value.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(flag, _)| flag == name)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Whether `--name` is present at all (with or without a value).
    pub fn flag(&self, name: &str) -> bool {
        self.entries.iter().any(|(flag, _)| flag == name)
    }

    /// `Err` naming the first argument that is not one of `known`, so a
    /// mistyped or retired flag fails instead of being silently ignored.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .entries
            .iter()
            .find(|(flag, _)| !known.contains(&flag.as_str()))
        {
            Some((flag, _)) => Err(format!(
                "unknown flag {flag} (accepted: {})",
                known.join(", ")
            )),
            None => Ok(()),
        }
    }

    /// Parses the value of `--name`. `Ok(None)` when the flag is absent;
    /// `Err` with a one-line usage message on malformed input — never a
    /// panic, so a daemon can relay the diagnostic instead of unwinding a
    /// worker.
    pub fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} takes a {}, got {v:?}", std::any::type_name::<T>())),
        }
    }
}

/// Unwraps a CLI-layer result, printing `error: <msg>` to stderr and
/// exiting nonzero on failure — the shared `main` shim that turns every
/// malformed flag into a one-line diagnostic instead of a backtrace.
pub fn run_or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// Builds a sweep config from a parsed argument view, reading the common
/// flags `--budget N --seeds N --multiplier N --k N --bits N --threads N
/// --batch-size N --surrogate-window W --cache-dir DIR --circuits a,b
/// --methods rs,boils --deadline-secs S --fault-plan PLAN
/// --objective NAME --mo --paper`.
pub fn sweep_config_from(args: &BenchArgs) -> Result<SweepConfig, String> {
    let mut cfg = if args.flag("--paper") {
        SweepConfig::paper()
    } else {
        SweepConfig::default()
    };
    if let Some(v) = args.parse("--budget")? {
        cfg.budget = v;
    }
    if let Some(v) = args.parse("--seeds")? {
        cfg.seeds = v;
    }
    if let Some(v) = args.parse("--multiplier")? {
        cfg.others_multiplier = v;
    }
    if let Some(v) = args.parse("--k")? {
        cfg.sequence_length = v;
    }
    if let Some(v) = args.parse("--bits")? {
        cfg.bits = Some(v);
    }
    if let Some(v) = args.parse("--threads")? {
        cfg.threads = v;
    }
    if let Some(v) = args.parse("--batch-size")? {
        cfg.batch_size = v;
    }
    if let Some(v) = args.parse("--surrogate-window")? {
        cfg.surrogate_window = Some(v);
    }
    if let Some(v) = args.value("--cache-dir") {
        cfg.cache_dir = Some(std::path::PathBuf::from(v));
    }
    if let Some(v) = args.parse("--deadline-secs")? {
        cfg.deadline_secs = Some(v);
    }
    if let Some(v) = args.value("--fault-plan") {
        cfg.fault_plan = Some(v.to_string());
    }
    if let Some(v) = args.value("--objective") {
        cfg.objective = Some(v.to_string());
    }
    if args.flag("--mo") {
        cfg.multi_objective = true;
    }
    if let Some(v) = args.value("--circuits") {
        cfg.circuits = v.split(',').map(parse_circuit).collect::<Result<_, _>>()?;
    }
    if let Some(v) = args.value("--methods") {
        cfg.methods = v.split(',').map(parse_method).collect::<Result<_, _>>()?;
    }
    // Validate the config-level fields (objective grammar, fault-plan
    // grammar) eagerly so a typo fails before any circuit is built — the
    // same check a daemon runs before accepting a job.
    cfg.validate()?;
    Ok(cfg)
}

/// Resolves a benchmark name, listing the valid names on failure.
pub fn parse_circuit(name: &str) -> Result<Benchmark, String> {
    Benchmark::parse(name)
}

/// Resolves a method id, listing the valid ids on failure.
pub fn parse_method(id: &str) -> Result<Method, String> {
    Method::parse(id)
}

/// Loads a sweep from `--from <csv>` or runs one with the flag-derived
/// config, saving to `--out <csv>` when requested.
pub fn sweep_from(args: &BenchArgs) -> Result<crate::suite::Sweep, String> {
    if let Some(path) = args.value("--from") {
        return crate::suite::Sweep::load(std::path::Path::new(path))
            .map_err(|e| format!("--from {path}: {e}"));
    }
    let cfg = sweep_config_from(args)?;
    let sweep = crate::suite::Sweep::try_run(&cfg)?;
    if let Some(path) = args.value("--out") {
        sweep
            .save(std::path::Path::new(path))
            .map_err(|e| format!("--out {path}: {e}"))?;
    }
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> BenchArgs {
        BenchArgs::from_list(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn space_and_equals_forms_parse_identically() {
        let a = args(&["--budget", "50", "--paper"]);
        let b = args(&["--budget=50", "--paper"]);
        assert_eq!(a.value("--budget"), Some("50"));
        assert_eq!(b.value("--budget"), Some("50"));
        assert!(a.flag("--paper") && b.flag("--paper"));
        assert!(!a.flag("--missing"));
        assert_eq!(a.value("--missing"), None);
    }

    #[test]
    fn boolean_flag_does_not_swallow_the_next_flag() {
        let a = args(&["--paper", "--budget", "9"]);
        assert!(a.flag("--paper"));
        assert_eq!(a.parse::<usize>("--budget"), Ok(Some(9)));
        assert_eq!(a.only(&["--paper", "--budget"]), Ok(()));
        let err = a.only(&["--paper"]).unwrap_err();
        assert!(err.contains("unknown flag --budget"), "{err}");
    }

    #[test]
    fn sweep_config_reads_all_common_flags() {
        let a = args(&[
            "--budget=12",
            "--seeds=3",
            "--multiplier=2",
            "--k=6",
            "--threads=4",
            "--batch-size=4",
            "--surrogate-window=32",
            "--cache-dir=/tmp/boils-cache",
            "--deadline-secs=2.5",
            "--fault-plan=write:enospc@3",
            "--objective=lut",
            "--mo",
            "--methods",
            "rs,boils",
        ]);
        let cfg = sweep_config_from(&a).expect("valid flags");
        assert_eq!(cfg.budget, 12);
        assert_eq!(cfg.seeds, 3);
        assert_eq!(cfg.others_multiplier, 2);
        assert_eq!(cfg.sequence_length, 6);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.batch_size, 4);
        assert_eq!(cfg.surrogate_window, Some(32));
        assert_eq!(
            cfg.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/boils-cache"))
        );
        assert_eq!(cfg.methods, vec![Method::Rs, Method::Boils]);
        assert_eq!(cfg.deadline_secs, Some(2.5));
        assert_eq!(cfg.fault_plan.as_deref(), Some("write:enospc@3"));
        assert_eq!(cfg.objective.as_deref(), Some("lut"));
        assert!(cfg.multi_objective);
        // Absent flags leave the store off, the window unbounded, and the
        // fault layer fully inert.
        let bare = sweep_config_from(&args(&["--budget=1"])).expect("valid flags");
        assert_eq!(bare.cache_dir, None);
        assert_eq!(bare.surrogate_window, None);
        assert_eq!(bare.deadline_secs, None);
        assert_eq!(bare.fault_plan, None);
        assert_eq!(bare.objective, None);
        assert!(!bare.multi_objective);
    }

    #[test]
    fn unknown_objectives_error_before_any_run() {
        let err = sweep_config_from(&args(&["--objective=bogus"])).unwrap_err();
        assert!(err.contains("--objective"), "{err}");
    }

    #[test]
    fn malformed_numbers_error_with_the_flag_name() {
        let err = args(&["--budget", "lots"])
            .parse::<usize>("--budget")
            .unwrap_err();
        assert!(err.contains("--budget takes a usize"), "{err}");
        assert!(err.contains("lots"), "{err}");
    }

    #[test]
    fn unknown_circuits_and_methods_list_the_valid_names() {
        let err = sweep_config_from(&args(&["--circuits", "adder,bogus"])).unwrap_err();
        assert!(err.contains("unknown circuit \"bogus\""), "{err}");
        assert!(err.contains("adder"), "{err}");
        let err = sweep_config_from(&args(&["--methods", "rs,bogus"])).unwrap_err();
        assert!(err.contains("unknown method \"bogus\""), "{err}");
        assert!(err.contains("boils"), "{err}");
    }

    #[test]
    fn malformed_fault_plans_error_before_any_run() {
        let err = sweep_config_from(&args(&["--fault-plan", "write:bogus@1"])).unwrap_err();
        assert!(err.contains("--fault-plan"), "{err}");
    }
}
