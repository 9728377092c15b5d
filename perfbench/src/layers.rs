//! Direct timings of single layers, taken after a traced run on that run's
//! own data: its final training set (`gp`), its evaluated sequences
//! (`synth`, `mapper`, `aig`) and its store directory (`core::prefix::store`).

use std::path::Path;
use std::time::Instant;

use boils_aig::Aig;
use boils_core::{BoilsConfig, OptimizationResult, PersistentPrefixStore, QorEvaluator};
use boils_gp::{Gp, Kernel, SskKernel};
use boils_mapper::{synth_stats, MapperConfig};
use boils_synth::Transform;

use crate::closed_loop::Figures;
use crate::stats::{median, tail_percentile};

fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `gp.fit_ms`, `gp.predict_us` and `ssk.pair_us` with BOiLS's kernel and
/// training settings on the run's final training set.
pub fn gp_figures(fig: &mut Figures, result: &OptimizationResult) {
    let cfg = BoilsConfig::default();
    let xs: Vec<Vec<u8>> = result.history.iter().map(|r| r.tokens.clone()).collect();
    let ys: Vec<f64> = result.history.iter().map(|r| -r.point.qor).collect();
    let kernel = SskKernel::new(cfg.ssk_order).with_match_caching();
    let start = Instant::now();
    let gp = Gp::fit_with_adam(kernel, xs.clone(), ys, cfg.noise, &cfg.train)
        .expect("the final training set was already fitted during the run");
    fig.insert("gp.fit_ms".into(), secs_since(start) * 1e3);

    // Every Hamming-1 neighbour of the incumbent: the probes one
    // acquisition hill-climbing step scores.
    let mut predict_us = Vec::new();
    for pos in 0..result.best_tokens.len() {
        for action in 0..cfg.space.alphabet() as u8 {
            if action == result.best_tokens[pos] {
                continue;
            }
            let mut probe = result.best_tokens.clone();
            probe[pos] = action;
            let start = Instant::now();
            std::hint::black_box(gp.predict(std::hint::black_box(&probe)));
            predict_us.push(secs_since(start) * 1e6);
        }
    }
    fig.insert("gp.predict_us".into(), median(&predict_us).unwrap_or(0.0));

    let ssk = SskKernel::new(cfg.ssk_order);
    let pair_us: Vec<f64> = xs
        .windows(2)
        .map(|pair| {
            let start = Instant::now();
            std::hint::black_box(ssk.eval(&pair[0], std::hint::black_box(&pair[1])));
            secs_since(start) * 1e6
        })
        .collect();
    fig.insert("ssk.pair_us".into(), median(&pair_us).unwrap_or(0.0));
}

/// Replays every evaluated sequence uncached, timing each transform by its
/// Table I code and the final LUT mapping, and checks each replay against
/// the run's recorded area and delay. Returns the final AIGs.
pub fn synth_figures(fig: &mut Figures, base: &Aig, result: &OptimizationResult) -> Vec<Aig> {
    let mapper = MapperConfig::default();
    let mut per_code: Vec<Vec<f64>> = vec![Vec::new(); Transform::ALL.len()];
    let mut map_ms = Vec::new();
    let mut ands = Vec::new();
    let mut mismatches = 0usize;
    let mut finals = Vec::with_capacity(result.history.len());
    let replay = Instant::now();
    for record in &result.history {
        let mut aig = base.clone();
        for &t in &record.tokens {
            let start = Instant::now();
            aig = Transform::from_index(usize::from(t)).apply(&aig);
            per_code[usize::from(t)].push(secs_since(start) * 1e3);
        }
        let start = Instant::now();
        let stats = synth_stats(&aig, &mapper);
        map_ms.push(secs_since(start) * 1e3);
        ands.push(aig.num_ands() as f64);
        if stats.luts != record.point.area || stats.levels != record.point.delay {
            mismatches += 1;
        }
        finals.push(aig);
    }
    fig.insert("synth.replay_s".into(), secs_since(replay));
    for (t, samples) in Transform::ALL.iter().zip(&per_code) {
        fig.insert(
            format!("synth.{}.ms_p50", t.code()),
            median(samples).unwrap_or(0.0),
        );
    }
    fig.insert("map.ms_p50".into(), median(&map_ms).unwrap_or(0.0));
    fig.insert("aig.ands_final_p50".into(), median(&ands).unwrap_or(0.0));
    fig.insert("synth.replay_mismatches".into(), mismatches as f64);
    finals
}

/// The store's counters for the run plus direct timings on its directory;
/// nothing without a store (the layer is bypassed, reported as 0).
pub fn store_figures(
    fig: &mut Figures,
    evaluator: &QorEvaluator,
    result: &OptimizationResult,
    finals: &[Aig],
    dir: &Path,
) {
    let Some(store) = evaluator.persistent_store() else {
        return;
    };
    let stats = evaluator.prefix_stats();
    fig.insert("store.disk_writes".into(), stats.disk_writes as f64);
    fig.insert("store.dedup_hits".into(), stats.dedup_hits as f64);
    fig.insert(
        "store.write_failures".into(),
        stats.disk_write_failures as f64,
    );
    fig.insert("store.retries".into(), stats.disk_retries as f64);
    fig.insert("store.bytes".into(), store.total_bytes() as f64);

    let base = evaluator.circuit();
    let mut open_ms = Vec::new();
    let mut reopened = None;
    for _ in 0..3 {
        let start = Instant::now();
        let handle =
            PersistentPrefixStore::open_for(store.dir(), base).expect("reopen the run's store");
        open_ms.push(secs_since(start) * 1e3);
        reopened = Some(handle);
    }
    fig.insert("store.open_ms".into(), median(&open_ms).unwrap_or(0.0));
    let reopened = reopened.expect("opened");
    // Lookups at several depths of every evaluated sequence: enough samples
    // for a p90, and the probe lengths a replay actually asks for.
    let lookup_us: Vec<f64> = result
        .history
        .iter()
        .flat_map(|r| [5, 10, 15, 20].map(|len| &r.tokens[..len.min(r.tokens.len())]))
        .map(|prefix| {
            let start = Instant::now();
            std::hint::black_box(reopened.longest_prefix(prefix, 0));
            secs_since(start) * 1e6
        })
        .collect();
    fig.insert(
        "store.lookup_us_p50".into(),
        median(&lookup_us).unwrap_or(0.0),
    );
    fig.insert(
        "store.lookup_us_p90".into(),
        tail_percentile(&lookup_us, 0.9).unwrap_or(0.0),
    );

    // Writes into a fresh directory: each evaluated sequence's final AIG
    // under its own key, as a cold run writes them.
    let fresh =
        PersistentPrefixStore::open_for(dir.join("write_probe"), base).expect("open a fresh store");
    let write_us: Vec<f64> = result
        .history
        .iter()
        .zip(finals)
        .map(|(r, aig)| {
            let start = Instant::now();
            fresh.store(&r.tokens, aig);
            secs_since(start) * 1e6
        })
        .collect();
    fig.insert(
        "store.write_us_p50".into(),
        median(&write_us).unwrap_or(0.0),
    );
}
