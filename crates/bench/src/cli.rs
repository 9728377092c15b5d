//! The one flag parser of `boils` and the experiment binaries (no external
//! dependency needed): each command names the flags it reads, as
//! `--flag value` or `--flag=value`, and [`BenchArgs::strict`] refuses the rest.

use std::path::Path;

use boils_circuits::Benchmark;

use crate::suite::{Sweep, SweepConfig};
use boils_baselines::Method;

/// A parsed command line: `--flag value` / `--flag=value` pairs and bare
/// boolean flags.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    entries: Vec<(String, Option<String>)>,
}

impl BenchArgs {
    /// Parses the process's own command line (see [`BenchArgs::strict`]).
    pub fn from_env(flags: &str) -> Result<BenchArgs, String> {
        BenchArgs::strict(std::env::args().skip(1), flags)
    }

    /// Parses `args` against the space-separated `flags` a command reads
    /// (one ending in `=` takes a value): a stray word, an unlisted or
    /// repeated flag, or a missing or surplus value is an error naming it.
    pub fn strict(
        args: impl IntoIterator<Item = String>,
        flags: &str,
    ) -> Result<BenchArgs, String> {
        let parsed = BenchArgs::from_list(args);
        let known: Vec<&str> = flags
            .split_whitespace()
            .map(|f| f.trim_end_matches('='))
            .collect();
        parsed.only(&known)?;
        for (i, (flag, value)) in parsed.entries.iter().enumerate() {
            let takes_value = flags.split_whitespace().any(|f| f == format!("{flag}="));
            match (takes_value, value) {
                (true, None) => return Err(format!("{flag} takes a value")),
                (false, Some(v)) => return Err(format!("{flag} takes no value, got {v:?}")),
                _ => {}
            }
            if parsed.entries[..i].iter().any(|(seen, _)| seen == flag) {
                return Err(format!("{flag} is given twice"));
            }
        }
        Ok(parsed)
    }

    /// Splits an argument list into flags and values, unchecked: a word
    /// after a flag is its value.
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

    /// The value of `--name`, or an error naming the missing flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.value(name)
            .ok_or_else(|| format!("missing required flag {name}"))
    }

    /// `Err` naming the first argument that is not one of `known`, so a
    /// mistyped or retired flag fails instead of being silently ignored.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .entries
            .iter()
            .find(|(flag, _)| !known.contains(&flag.as_str()))
        {
            Some((word, _)) if !word.starts_with("--") => {
                Err(format!("unexpected argument {word:?}"))
            }
            Some((flag, _)) if known.is_empty() => {
                Err(format!("unknown flag {flag} (the command takes none)"))
            }
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
/// --objective NAME --mo --paper`. Run bounds are [`SweepConfig::validate`]'s.
pub fn sweep_config_from(args: &BenchArgs) -> Result<SweepConfig, String> {
    let mut cfg = if args.flag("--paper") {
        SweepConfig::paper()
    } else {
        SweepConfig::default()
    };
    cfg.budget = args.parse("--budget")?.unwrap_or(cfg.budget);
    cfg.seeds = args.parse("--seeds")?.unwrap_or(cfg.seeds);
    cfg.others_multiplier = args.parse("--multiplier")?.unwrap_or(cfg.others_multiplier);
    cfg.sequence_length = args.parse("--k")?.unwrap_or(cfg.sequence_length);
    cfg.bits = args.parse("--bits")?.or(cfg.bits);
    cfg.threads = args.parse("--threads")?.unwrap_or(cfg.threads);
    cfg.batch_size = args.parse("--batch-size")?.unwrap_or(cfg.batch_size);
    cfg.surrogate_window = args.parse("--surrogate-window")?.or(cfg.surrogate_window);
    cfg.cache_dir = args.parse("--cache-dir")?.or(cfg.cache_dir);
    cfg.deadline_secs = args.parse("--deadline-secs")?.or(cfg.deadline_secs);
    if let Some(v) = args.value("--fault-plan") {
        crate::suite::fault_injector(Some(v))?;
        cfg.fault_plan = Some(v.to_string());
    }
    if let Some(v) = args.value("--objective") {
        crate::suite::objective(Some(v))?;
        cfg.objective = Some(v.to_string());
    }
    cfg.multi_objective |= args.flag("--mo");
    if let Some(v) = args.value("--circuits") {
        cfg.circuits = v
            .split(',')
            .map(Benchmark::parse)
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = args.value("--methods") {
        cfg.methods = v.split(',').map(Method::parse).collect::<Result<_, _>>()?;
    }
    Ok(cfg)
}

/// The circuits a Figure 3 binary plots: `--circuits` when given, else the
/// paper's four largest that `sweep` ran.
pub fn figure3_circuits(args: &BenchArgs, cfg: &SweepConfig, sweep: &Sweep) -> Vec<Benchmark> {
    use Benchmark::{Divisor, Hypotenuse, Log2, Multiplier};
    let largest = [Hypotenuse, Divisor, Log2, Multiplier];
    match args.value("--circuits") {
        Some(_) => cfg.circuits.clone(),
        None => largest
            .into_iter()
            .filter(|c| sweep.runs.iter().any(|r| r.circuit == *c))
            .collect(),
    }
}

/// A sweep binary's command line: its flags, its config, and its sweep,
/// loaded from `--from <csv>` or run and saved to `--out <csv>` when asked.
/// A bad flag or run exits with a one-line error.
pub fn sweep_main() -> (BenchArgs, SweepConfig, Sweep) {
    let args = run_or_exit(BenchArgs::from_env(
        "--budget= --seeds= --multiplier= --k= --bits= --threads= --batch-size= \
         --surrogate-window= --cache-dir= --deadline-secs= --fault-plan= --objective= \
         --circuits= --methods= --out= --from= --mo --paper",
    ));
    let cfg = run_or_exit(sweep_config_from(&args));
    if let Some(path) = args.value("--from") {
        let sweep = Sweep::load(Path::new(path)).map_err(|e| format!("--from {path}: {e}"));
        return (args, cfg, run_or_exit(sweep));
    }
    let sweep = run_or_exit(Sweep::try_run(&cfg));
    if let Some(path) = args.value("--out") {
        run_or_exit(
            sweep
                .save(Path::new(path))
                .map_err(|e| format!("--out {path}: {e}")),
        );
    }
    (args, cfg, sweep)
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
    fn strict_parsing_refuses_what_the_command_does_not_read() {
        let strict =
            |list: &[&str]| BenchArgs::strict(list.iter().map(|s| s.to_string()), "--k= --mo");
        let ok = strict(&["--k=4", "--mo"]).expect("known flags");
        assert_eq!(ok.parse::<usize>("--k"), Ok(Some(4)));
        assert!(ok.flag("--mo"));
        for (list, reason) in [
            (&["stray"][..], "unexpected argument \"stray\""),
            (&["--k", "4", "stray"], "unexpected argument \"stray\""),
            (&["--kk", "4"], "unknown flag --kk (accepted: --k, --mo)"),
            (&["--mo", "stray"], "--mo takes no value, got \"stray\""),
            (&["--mo=true"], "--mo takes no value, got \"true\""),
            (&["--k"], "--k takes a value"),
            (&["--k", "--mo"], "--k takes a value"),
            (&["--k", "4", "--k", "0"], "--k is given twice"),
        ] {
            assert_eq!(strict(list).unwrap_err(), reason, "{list:?}");
        }
        let none = BenchArgs::strict(["--x".to_string()], "").unwrap_err();
        assert_eq!(none, "unknown flag --x (the command takes none)");
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
