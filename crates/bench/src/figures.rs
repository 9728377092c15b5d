//! Formatters that turn a [`Sweep`] into the paper's
//! tables and figure series (printed as markdown/CSV so shapes can be
//! compared against the paper directly).

use std::fmt::Write as _;

use boils_circuits::Benchmark;
use boils_gp::{
    dominates, hypervolume_2d, hypervolume_reference, sample_gaussian, Gp, Kernel, Matrix,
    SquaredExponential, SskKernel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::suite::Sweep;
use boils_baselines::Method;

/// Converts a QoR value into the paper's improvement-vs-resyn2 percentage.
pub fn improvement_percent(qor: f64) -> f64 {
    (2.0 - qor) / 2.0 * 100.0
}

/// The paper's Figure 3 top row: QoR improvement (%) per circuit × method
/// at the BO budget, averaged over seeds, plus the "EPFL best" substitute
/// columns (best delay-only and best area-only points seen by any method —
/// the role the leaderboard plays in the paper).
pub fn qor_table(sweep: &Sweep, budget: usize) -> String {
    let methods: Vec<Method> = Method::ALL
        .into_iter()
        .filter(|m| sweep.runs.iter().any(|r| r.method == *m))
        .collect();
    let circuits: Vec<Benchmark> = Benchmark::ALL
        .into_iter()
        .filter(|c| sweep.runs.iter().any(|r| r.circuit == *c))
        .collect();
    let mut out = String::new();
    write!(out, "| {:<12} |", "Circuit").expect("string write");
    for m in &methods {
        write!(out, " {:>12} |", m.name()).expect("string write");
    }
    out.push_str(" Best (lvl) | Best (cnt) |\n");
    write!(out, "|{:-<14}|", "").expect("string write");
    for _ in &methods {
        write!(out, "{:-<14}|", "").expect("string write");
    }
    out.push_str("------------|------------|\n");

    let mut sums = vec![0.0f64; methods.len()];
    let mut counts = vec![0usize; methods.len()];
    for &c in &circuits {
        write!(out, "| {:<12} |", c.name()).expect("string write");
        for (k, &m) in methods.iter().enumerate() {
            match sweep.mean_best_qor(c, m, budget) {
                Some(q) => {
                    let imp = improvement_percent(q);
                    sums[k] += imp;
                    counts[k] += 1;
                    write!(out, " {:>12.2} |", imp).expect("string write");
                }
                None => {
                    write!(out, " {:>12} |", "-").expect("string write");
                }
            }
        }
        let (lvl, cnt) = epfl_best_substitute(sweep, c);
        writeln!(out, " {:>10.2} | {:>10.2} |", lvl, cnt).expect("string write");
    }
    write!(out, "| {:<12} |", "Average").expect("string write");
    for (s, n) in sums.iter().zip(&counts) {
        if *n > 0 {
            write!(out, " {:>12.2} |", s / *n as f64).expect("string write");
        } else {
            write!(out, " {:>12} |", "-").expect("string write");
        }
    }
    out.push_str("          - |          - |\n");
    out
}

/// The leaderboard substitute: improvement % of the minimum-delay point and
/// of the minimum-area point observed across **all** methods and seeds —
/// single-objective optima, like the EPFL `lvl`/`count` entries.
fn epfl_best_substitute(sweep: &Sweep, circuit: Benchmark) -> (f64, f64) {
    let mut best_delay: Option<(u32, f64)> = None;
    let mut best_area: Option<(usize, f64)> = None;
    for run in sweep.runs.iter().filter(|r| r.circuit == circuit) {
        for &(q, a, d) in &run.trace {
            if best_delay.is_none_or(|(bd, _)| d < bd) {
                best_delay = Some((d, q));
            }
            if best_area.is_none_or(|(ba, _)| a < ba) {
                best_area = Some((a, q));
            }
        }
    }
    (
        improvement_percent(best_delay.map_or(2.0, |(_, q)| q)),
        improvement_percent(best_area.map_or(2.0, |(_, q)| q)),
    )
}

/// The paper's Figure 1: average number of tested sequences each method
/// needs to recover 97.5 % of the QoR improvement BOiLS reaches within its
/// budget. Methods that never reach the target within their trace are
/// charged their full trace length (the paper terminates at 1000).
pub fn sample_efficiency(sweep: &Sweep, budget: usize) -> String {
    let circuits: Vec<Benchmark> = Benchmark::ALL
        .into_iter()
        .filter(|c| sweep.runs.iter().any(|r| r.circuit == *c))
        .collect();
    let methods: Vec<Method> = Method::ALL
        .into_iter()
        .filter(|m| sweep.runs.iter().any(|r| r.method == *m))
        .collect();
    let mut out =
        String::from("| Method       | avg evals to 97.5% of BOiLS | avg improvement % |\n");
    out.push_str("|--------------|-----------------------------|-------------------|\n");
    for &m in &methods {
        let mut evals = 0.0;
        let mut improvement = 0.0;
        let mut n = 0usize;
        for &c in &circuits {
            let Some(boils_q) = sweep.mean_best_qor(c, Method::Boils, budget) else {
                continue;
            };
            // 97.5 % of BOiLS' improvement, converted back to a QoR target.
            let target = 2.0 - 0.975 * (2.0 - boils_q);
            for run in sweep.select(c, m) {
                let reached = run.evals_to_reach(target).unwrap_or(run.trace.len());
                evals += reached as f64;
                improvement += improvement_percent(run.best_qor_at(run.trace.len()));
                n += 1;
            }
        }
        if n > 0 {
            writeln!(
                out,
                "| {:<12} | {:>27.1} | {:>17.2} |",
                m.name(),
                evals / n as f64,
                improvement / n as f64
            )
            .expect("string write");
        }
    }
    out
}

/// The paper's Figure 3 middle row: per-circuit convergence curves — the
/// running-best QoR improvement (%) vs number of tested sequences, averaged
/// over seeds, as CSV (one column per method).
pub fn convergence_csv(sweep: &Sweep, circuit: Benchmark) -> String {
    let methods: Vec<Method> = Method::ALL
        .into_iter()
        .filter(|m| !sweep.select(circuit, *m).is_empty())
        .collect();
    let max_len = methods
        .iter()
        .flat_map(|m| sweep.select(circuit, *m))
        .map(|r| r.trace.len())
        .max()
        .unwrap_or(0);
    let mut out = String::from("eval");
    for m in &methods {
        write!(out, ",{}", m.id()).expect("string write");
    }
    out.push('\n');
    for i in 0..max_len {
        write!(out, "{}", i + 1).expect("string write");
        for &m in &methods {
            let runs = sweep.select(circuit, m);
            let mut sum = 0.0;
            let mut n = 0usize;
            for run in &runs {
                let curve = run.best_so_far();
                // Hold the final value once a shorter trace is exhausted.
                let q = *curve.get(i).unwrap_or(curve.last().expect("non-empty"));
                sum += improvement_percent(q);
                n += 1;
            }
            if n > 0 {
                write!(out, ",{:.3}", sum / n as f64).expect("string write");
            } else {
                out.push(',');
            }
        }
        out.push('\n');
    }
    out
}

/// The paper's Figure 3 bottom row: the (area, delay) of each method's
/// best-QoR solution per seed, plus Pareto-front membership percentages.
pub fn pareto_report(sweep: &Sweep, circuit: Benchmark, budget: usize) -> String {
    let mut points: Vec<(Method, u64, usize, u32)> = Vec::new();
    for run in sweep.runs.iter().filter(|r| r.circuit == circuit) {
        let b = if run.method.is_bayesian() {
            budget
        } else {
            run.trace.len().min(budget)
        };
        let (area, delay) = run.best_point_at(b);
        points.push((run.method, run.seed, area, delay));
    }
    // Pareto front over all points.
    let cost = |&(_, _, a, d): &(Method, u64, usize, u32)| [a as f64, f64::from(d)];
    let on_front: Vec<bool> = points
        .iter()
        .map(|p| !points.iter().any(|q| dominates(&cost(q), &cost(p))))
        .collect();
    // A shared hypervolume reference (the MO loop's convention) makes the
    // per-method volumes comparable within the circuit.
    let reference = hypervolume_reference(points.iter().map(|&(_, _, a, d)| (a as f64, d as f64)));
    let mut out = format!("# {} — best solutions at N={budget}\n", circuit.name());
    out.push_str("method,seed,area,delay,pareto,hypervolume\n");
    for (p, f) in points.iter().zip(&on_front) {
        let hv = hypervolume_2d(&[(p.2 as f64, p.3 as f64)], reference);
        writeln!(
            out,
            "{},{},{},{},{},{hv:.3}",
            p.0.id(),
            p.1,
            p.2,
            p.3,
            *f as u8
        )
        .expect("string write");
    }
    out.push_str("\n# Pareto membership\n");
    for m in Method::ALL {
        let method_points: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.0 == m)
            .map(|&(_, _, a, d)| (a as f64, d as f64))
            .collect();
        if method_points.is_empty() {
            continue;
        }
        let total = method_points.len();
        let hits = points
            .iter()
            .zip(&on_front)
            .filter(|(p, f)| p.0 == m && **f)
            .count();
        writeln!(
            out,
            "{:<12} {:>5.1}% ({hits}/{total})  hv {:.3}",
            m.name(),
            100.0 * hits as f64 / total as f64,
            hypervolume_2d(&method_points, reference),
        )
        .expect("string write");
    }
    out
}

/// The multi-objective convergence trace: after each evaluation, the 2-D
/// hypervolume the run's nondominated `(area, delay)` archive dominates
/// with respect to the circuit's shared reference — the quantity the MO
/// trust region optimises, as CSV (`method,seed,eval,hypervolume`).
pub fn hypervolume_trace(sweep: &Sweep, circuit: Benchmark, budget: usize) -> String {
    let runs: Vec<&crate::suite::RunRecord> =
        sweep.runs.iter().filter(|r| r.circuit == circuit).collect();
    let reference = hypervolume_reference(
        runs.iter()
            .flat_map(|r| r.trace.iter().take(budget))
            .filter(|&&(q, _, _)| q < boils_core::QUARANTINE_QOR)
            .map(|&(_, a, d)| (a as f64, d as f64)),
    );
    let mut out = format!(
        "# {} — dominated hypervolume per evaluation (reference {:.1},{:.1})\n",
        circuit.name(),
        reference.0,
        reference.1
    );
    out.push_str("method,seed,eval,hypervolume\n");
    for run in runs {
        let mut front: Vec<(f64, f64)> = Vec::new();
        for (i, &(q, a, d)) in run.trace.iter().take(budget).enumerate() {
            if q < boils_core::QUARANTINE_QOR {
                front.push((a as f64, d as f64));
            }
            writeln!(
                out,
                "{},{},{},{:.3}",
                run.method.id(),
                run.seed,
                i + 1,
                hypervolume_2d(&front, reference)
            )
            .expect("string write");
        }
    }
    out
}

/// The paper's Figure 2: samples from a 1-D SE-kernel GP prior and from the
/// posterior after conditioning on a few observations, as CSV.
pub fn gp_figure(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid: Vec<Vec<f64>> = (0..101).map(|i| vec![i as f64 * 0.05]).collect();
    let kernel = SquaredExponential::new(1);
    // Prior samples: N(0, K).
    let cov = Matrix::from_fn(grid.len(), grid.len(), |i, j| {
        kernel.eval(&grid[i], &grid[j])
    });
    let zero = vec![0.0; grid.len()];
    let priors: Vec<Vec<f64>> = (0..3)
        .map(|_| sample_gaussian(&zero, &cov, &mut rng).expect("psd prior"))
        .collect();
    // Posterior after observing a noiseless sine at five points.
    let train_x: Vec<Vec<f64>> = [0.3, 1.2, 2.2, 3.4, 4.4].iter().map(|&x| vec![x]).collect();
    let train_y: Vec<f64> = train_x.iter().map(|x| (1.8 * x[0]).sin()).collect();
    let gp = Gp::fit(
        SquaredExponential::new(1),
        train_x.clone(),
        train_y.clone(),
        1e-6,
    )
    .expect("spd");
    let posts: Vec<Vec<f64>> = (0..3)
        .map(|_| gp.sample_posterior(&grid, &mut rng).expect("psd posterior"))
        .collect();
    let mut out = String::from("x,prior1,prior2,prior3,post1,post2,post3,mean,std\n");
    for (i, x) in grid.iter().enumerate() {
        let (mean, var) = gp.predict(x);
        writeln!(
            out,
            "{:.3},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            x[0],
            priors[0][i],
            priors[1][i],
            priors[2][i],
            posts[0][i],
            posts[1][i],
            posts[2][i],
            mean,
            var.sqrt()
        )
        .expect("string write");
    }
    out.push_str("# train points\n");
    for (x, y) in train_x.iter().zip(&train_y) {
        writeln!(out, "# ({:.2}, {:.3})", x[0], y).expect("string write");
    }
    out
}

/// The paper's Table I: contributions `c_u(seq)` of three sub-sequences to
/// three synthesis sequences, computed by the SSK (θ_m = 0.9, θ_g = 0.6,
/// with the symbolic form alongside).
pub fn ssk_table() -> String {
    // Tokens: Rw=0, Rf=1, Ds=2, So=3, Bl=4, Fr=5.
    let names = ["RwRfDsSoDsBlRw", "RwRfDsFrSoBlRw", "RwRfDsFrBlSoBl"];
    let seqs: [&[u8]; 3] = [
        &[0, 1, 2, 3, 2, 4, 0],
        &[0, 1, 2, 5, 3, 4, 0],
        &[0, 1, 2, 5, 4, 3, 4],
    ];
    let u_names = ["RwRfDsBlRw", "RwRfDsFr", "RwRf"];
    let us: [&[u8]; 3] = [&[0, 1, 2, 4, 0], &[0, 1, 2, 5], &[0, 1]];
    let kernel = SskKernel::new(5).with_decays(0.9, 0.6);
    let mut out = String::from("| seq \\ u        |");
    for un in u_names {
        write!(out, " {un:>14} |").expect("string write");
    }
    out.push_str("\n|----------------|----------------|----------------|----------------|\n");
    for (sn, s) in names.iter().zip(seqs) {
        write!(out, "| {sn:<14} |").expect("string write");
        for u in us {
            let c = kernel.contribution(u, s);
            write!(out, " {c:>14.6} |").expect("string write");
        }
        out.push('\n');
    }
    out.push_str("\n(θm=0.9, θg=0.6; e.g. 2·θm⁵·θg² = ");
    let expect = 2.0 * 0.9f64.powi(5) * 0.6f64.powi(2);
    writeln!(out, "{expect:.6}, matching row 1 column 1.)").expect("string write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::RunRecord;

    fn tiny_sweep() -> Sweep {
        Sweep {
            runs: vec![
                RunRecord {
                    circuit: Benchmark::Adder,
                    method: Method::Boils,
                    seed: 0,
                    trace: vec![(1.9, 48, 15), (1.6, 40, 14)],
                },
                RunRecord {
                    circuit: Benchmark::Adder,
                    method: Method::Rs,
                    seed: 0,
                    trace: vec![(2.0, 50, 16), (1.9, 47, 16), (1.7, 44, 15), (1.65, 43, 15)],
                },
            ],
        }
    }

    #[test]
    fn qor_table_contains_all_methods_and_average() {
        let t = qor_table(&tiny_sweep(), 2);
        assert!(t.contains("BOiLS"));
        assert!(t.contains("RS"));
        assert!(t.contains("adder"));
        assert!(t.contains("Average"));
        // BOiLS improvement at budget 2: (2-1.6)/2·100 = 20 %.
        assert!(t.contains("20.00"));
    }

    #[test]
    fn sample_efficiency_charges_full_trace_when_unreached() {
        let s = tiny_sweep();
        let report = sample_efficiency(&s, 2);
        assert!(report.contains("BOiLS"));
        assert!(report.contains("RS"));
    }

    #[test]
    fn convergence_is_monotone() {
        let csv = convergence_csv(&tiny_sweep(), Benchmark::Adder);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("eval"));
        assert_eq!(lines.len(), 5); // header + 4 evals (longest trace)
    }

    #[test]
    fn pareto_marks_dominating_points() {
        let report = pareto_report(&tiny_sweep(), Benchmark::Adder, 4);
        // BOiLS point (40, 14) dominates the RS point (43, 15).
        assert!(report.contains("boils,0,40,14,1"));
        assert!(report.contains("rs,0,43,15,0"));
        assert!(report.contains("100.0% (1/1)"));
        // The hypervolume column is present and the dominating point
        // dominates strictly more volume than the dominated one.
        assert!(report.contains("method,seed,area,delay,pareto,hypervolume"));
        let hv_of = |needle: &str| -> f64 {
            report
                .lines()
                .find(|l| l.starts_with(needle))
                .and_then(|l| l.rsplit(',').next())
                .expect("row present")
                .parse()
                .expect("numeric hypervolume")
        };
        assert!(hv_of("boils,0,") > hv_of("rs,0,"));
    }

    #[test]
    fn hypervolume_trace_is_monotone_per_run() {
        let csv = hypervolume_trace(&tiny_sweep(), Benchmark::Adder, 4);
        assert!(csv.contains("method,seed,eval,hypervolume"));
        for method in ["boils", "rs"] {
            let values: Vec<f64> = csv
                .lines()
                .filter(|l| l.starts_with(&format!("{method},0,")))
                .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
                .collect();
            assert!(!values.is_empty(), "{method} rows missing");
            assert!(
                values.windows(2).all(|w| w[1] >= w[0]),
                "{method} hypervolume shrank: {values:?}"
            );
            assert!(*values.last().unwrap() > 0.0);
        }
    }

    #[test]
    fn gp_figure_emits_grid_rows() {
        let csv = gp_figure(1);
        assert!(csv.lines().count() > 100);
        assert!(csv.starts_with("x,prior1"));
    }

    #[test]
    fn ssk_table_matches_symbolic_value() {
        let t = ssk_table();
        let expect = 2.0 * 0.9f64.powi(5) * 0.6f64.powi(2);
        assert!(t.contains(&format!("{expect:.6}")));
    }
}
