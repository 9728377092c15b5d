//! Persistent prefix store guarantees, proved end to end:
//!
//! * **SAT-equivalence harness** — every intermediate AIG restored from
//!   disk is mitered against a freshly synthesised one and proved
//!   equivalent with `boils-sat`, over every prefix of a full K = 20
//!   trajectory on two benchmark circuits (on top of the stronger
//!   structural byte-identity check).
//! * **Frozen trajectories** — BOiLS, SBO and greedy runs against a
//!   pre-warmed store are bit-identical to their cold runs, and the warm
//!   run demonstrably used the disk tier (`prefix_stats().disk_hits > 0`).
//! * **Concurrency** — two evaluators (each driving a multi-threaded
//!   `RunLedger`) share one store directory at the same time.
//! * **Corruption tolerance** — truncated entries, bit-rotted payloads and
//!   stale index files are skipped and recomputed, never trusted.
//! * **Bounded size** — the byte budget holds after eviction, and evicted
//!   entries are transparently recomputed.
//!
//! Set `BOILS_CACHE_DIR` to pin the store directories somewhere stable
//! (CI runs this suite twice against one directory — cold then warm — so
//! the cross-process reuse path is exercised for real; every assertion
//! here is warm/cold agnostic). Destructive tests ignore the variable and
//! always use fresh directories.

use std::path::PathBuf;
use std::sync::Arc;

use boils_baselines::greedy;
use boils_circuits::{Benchmark, CircuitSpec};
use boils_core::{
    Boils, BoilsConfig, EvalRecord, PersistentPrefixStore, QorEvaluator, QorPoint, RunControl,
    RunLedger, Sbo, SequenceSpace,
};
use boils_gp::TrainConfig;
use boils_sat::{check_equivalence_with, EquivConfig, EquivResult, EquivStats};
use boils_synth::Transform;

/// A store directory that survives across test processes when
/// `BOILS_CACHE_DIR` is set (the CI cold/warm protocol), and is unique per
/// process otherwise. Every test using this helper must hold bit-identical
/// results whether the directory starts empty or pre-warmed.
fn shared_store_dir(label: &str) -> PathBuf {
    match std::env::var_os("BOILS_CACHE_DIR") {
        Some(root) => PathBuf::from(root).join(label),
        None => std::env::temp_dir().join(format!("boils-persist-{}-{label}", std::process::id())),
    }
}

/// A directory for destructive tests: always fresh, never shared.
fn fresh_store_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boils-destruct-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fixed K = 20 trajectory covering the whole transform alphabet.
const TRAJECTORY: [u8; 20] = [6, 0, 2, 7, 4, 1, 3, 6, 5, 8, 9, 10, 0, 6, 2, 4, 7, 1, 3, 6];

/// The SAT-equivalence harness of the store: for every prefix of a full
/// trajectory, the cache-restored intermediate must be (a) byte-identical
/// to the from-scratch synthesis under the binary AIGER codec and (b)
/// proved functionally equivalent by mitering the two with the SAT solver.
///
/// The checks ride the refute-before-prove path: the harness aggregates
/// each check's [`EquivStats`] and asserts that simulation refutation plus
/// SAT proof accounted for every single check (`Unknown` never leaks), and
/// that the lazy cone-of-influence encoding stayed within the full-miter
/// budget. Two controls sharpen this: the final intermediate is re-checked
/// against a version grown with dangling gates (the COI restriction must
/// skip them) and against an output-complemented version (which must die
/// in the simulation phase without building any CNF).
fn prove_every_restored_prefix(circuit: Benchmark, bits: usize) {
    let base = CircuitSpec::new(circuit).bits(bits).build();
    let dir = shared_store_dir(&format!("sat-{}", circuit.name()));

    // Populate the store by evaluating the full trajectory once.
    let evaluator = QorEvaluator::new(&base)
        .expect("benchmark reference is non-degenerate")
        .with_persistent_store(&dir)
        .expect("store directory is writable");
    evaluator.evaluate_tokens(&TRAJECTORY);
    drop(evaluator);

    let config = EquivConfig {
        conflict_budget: Some(1_000_000),
        ..EquivConfig::default()
    };
    let mut harness_stats = EquivStats::default();
    let mut checks = 0usize;

    // A fresh handle — as a separate process would see it.
    let store = PersistentPrefixStore::open_for(&dir, &base).expect("reopen store");
    let mut fresh = base.clone();
    for len in 1..=TRAJECTORY.len() {
        let prefix = &TRAJECTORY[..len];
        fresh = Transform::from_index(prefix[len - 1] as usize).apply(&fresh);
        let restored = store
            .load(prefix)
            .unwrap_or_else(|| panic!("prefix of length {len} missing from the store"));

        // Structural identity: the strongest form of "bit-identical".
        let (mut a, mut b) = (Vec::new(), Vec::new());
        restored.write_aig_binary(&mut a).expect("write");
        fresh.write_aig_binary(&mut b).expect("write");
        assert_eq!(
            a,
            b,
            "{}: restored prefix of length {len} is not byte-identical",
            circuit.name()
        );

        // Independent functional proof: miter restored vs fresh.
        let (result, stats) = check_equivalence_with(&restored, &fresh, &config);
        assert_eq!(
            result,
            EquivResult::Equivalent,
            "{}: restored prefix of length {len} not SAT-equivalent",
            circuit.name()
        );
        harness_stats.absorb(&stats);
        checks += 1;
    }

    // Every check must be answered by the cheap path or a completed proof;
    // budget exhaustion never leaks through the harness.
    assert_eq!(
        harness_stats.sim_refuted + harness_stats.sat_proved,
        checks,
        "{}: refute-before-prove did not cover every check: {harness_stats:?}",
        circuit.name()
    );
    assert!(
        harness_stats.vars_encoded <= harness_stats.vars_full,
        "{}: encoded more than the full miter: {harness_stats:?}",
        circuit.name()
    );

    // COI control: dangling gates bolted onto one side must stay outside
    // the encoding, making it strictly smaller than the full miter.
    let mut padded = fresh.clone();
    let (x, y) = (padded.pi(0), padded.pi(1));
    let mut chain = padded.and(x, !y);
    for _ in 0..16 {
        chain = padded.and(chain, y);
    }
    let dangling = padded.num_ands() - fresh.num_ands();
    assert!(dangling >= 1, "the dangling chain must add gates");
    let sat_only = EquivConfig {
        sim_words: 0, // force the SAT path so cones actually get encoded
        ..config.clone()
    };
    let (result, stats) = check_equivalence_with(&fresh, &padded, &sat_only);
    assert_eq!(result, EquivResult::Equivalent, "{}", circuit.name());
    assert!(
        stats.vars_encoded + dangling <= stats.vars_full,
        "{}: COI encoding did not skip the dangling gates: {stats:?}",
        circuit.name()
    );

    // Negative control: a complemented output differs everywhere, so the
    // simulation phase must refute it without building any CNF.
    let mut flipped = fresh.clone();
    flipped.set_po(0, !flipped.po(0));
    let (result, stats) = check_equivalence_with(&fresh, &flipped, &config);
    assert!(
        matches!(result, EquivResult::NotEquivalent { .. }),
        "{}: flipped output must be refuted",
        circuit.name()
    );
    assert_eq!(stats.sim_refuted, 1, "{}: {stats:?}", circuit.name());
    assert_eq!(
        stats.vars_encoded,
        0,
        "{}: sim refutation must not build CNF: {stats:?}",
        circuit.name()
    );
}

#[test]
fn restored_intermediates_are_sat_equivalent_on_adder() {
    prove_every_restored_prefix(Benchmark::Adder, 8);
}

#[test]
fn restored_intermediates_are_sat_equivalent_on_max() {
    prove_every_restored_prefix(Benchmark::Max, 4);
}

/// `(tokens, qor bits)` pairs of a history, for exact comparisons.
fn history_bits(history: &[EvalRecord]) -> Vec<(Vec<u8>, u64)> {
    history
        .iter()
        .map(|r| (r.tokens.clone(), r.point.qor.to_bits()))
        .collect()
}

fn boils_config(seed: u64) -> BoilsConfig {
    BoilsConfig {
        max_evaluations: 16,
        initial_samples: 10,
        space: SequenceSpace::new(6, 11),
        acq_restarts: 2,
        acq_steps: 4,
        acq_neighbors: 10,
        retrain_every: 5,
        train: TrainConfig {
            steps: 5,
            ..TrainConfig::default()
        },
        seed,
        ..BoilsConfig::default()
    }
}

#[test]
fn warmed_store_reproduces_the_cold_boils_run_bit_identically() {
    let aig = boils_aig::random_aig(71, 8, 300, 3);
    let dir = shared_store_dir("frozen-boils");

    let cold_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    let cold = Boils::new(boils_config(7)).run(&cold_eval).expect("run");
    assert!(
        cold_eval.prefix_stats().disk_writes > 0 || cold_eval.prefix_stats().disk_hits > 0,
        "the store saw no traffic at all"
    );
    drop(cold_eval);

    // A fresh evaluator over the same directory: the in-memory tiers start
    // empty, so every resumed prefix must come off disk.
    let warm_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    let warm = Boils::new(boils_config(7)).run(&warm_eval).expect("run");

    assert_eq!(history_bits(&cold.history), history_bits(&warm.history));
    assert_eq!(cold.best_tokens, warm.best_tokens);
    assert_eq!(cold.best_qor.to_bits(), warm.best_qor.to_bits());
    let stats = warm_eval.prefix_stats();
    assert!(stats.disk_hits > 0, "warm run never touched the disk tier");
}

#[test]
fn warmed_store_reproduces_the_cold_sbo_run_bit_identically() {
    let aig = boils_aig::random_aig(73, 8, 300, 3);
    let dir = shared_store_dir("frozen-sbo");
    let config = || BoilsConfig {
        max_evaluations: 14,
        initial_samples: 10,
        space: SequenceSpace::new(5, 11),
        acq_restarts: 2,
        acq_steps: 3,
        acq_neighbors: 8,
        retrain_every: 5,
        train: TrainConfig {
            steps: 4,
            ..TrainConfig::default()
        },
        seed: 3,
        ..BoilsConfig::default()
    };

    let cold_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    let cold = Sbo::new(config())
        .run(&cold_eval, &RunControl::new())
        .expect("run");
    drop(cold_eval);

    let warm_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    let warm = Sbo::new(config())
        .run(&warm_eval, &RunControl::new())
        .expect("run");

    assert_eq!(history_bits(&cold.history), history_bits(&warm.history));
    assert!(warm_eval.prefix_stats().disk_hits > 0);
}

#[test]
fn warmed_store_reproduces_the_cold_greedy_run_bit_identically() {
    let aig = boils_aig::random_aig(77, 8, 300, 3);
    let dir = shared_store_dir("frozen-greedy");
    let space = SequenceSpace::new(4, 11);
    let budget = space.length() * space.alphabet();

    let cold_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    let cold = greedy(&cold_eval, space, budget, 2, &RunControl::new())
        .expect("uncontrolled run completes");
    drop(cold_eval);

    let warm_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    let warm = greedy(&warm_eval, space, budget, 2, &RunControl::new())
        .expect("uncontrolled run completes");

    assert_eq!(history_bits(&cold.history), history_bits(&warm.history));
    assert_eq!(cold.best_tokens, warm.best_tokens);
    assert!(warm_eval.prefix_stats().disk_hits > 0);
}

/// Cross-circuit payload dedup through the shared (CI) directory: a base
/// circuit and a derived one — the base after one restructuring pass —
/// evaluate corresponding sequences against one store. The derived
/// circuit's intermediates are byte-identical to states the base already
/// persisted, so its writes must land as dedup hits on existing payloads,
/// and what it restores must still match a from-scratch synthesis.
///
/// The evaluated sequence is salted per process so the counter fires on
/// the warm CI pass too: a repeated sequence would be served by the
/// derived circuit's own pointers and never reach the dedup path.
#[test]
fn two_circuits_dedup_payloads_through_one_store_directory() {
    let dir = shared_store_dir("cross-circuit");
    let base = CircuitSpec::new(Benchmark::Adder).bits(8).build();
    // The first alphabet pass that actually restructures the base (a
    // fixpoint pass would collapse the two circuit identities into one).
    let (lead, derived) = (0..11u8)
        .map(|t| (t, Transform::from_index(t as usize).apply(&base)))
        .find(|(_, d)| d.content_hash() != base.content_hash())
        .expect("some pass must change the base circuit");
    let salt = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("epoch")
        .as_nanos() as u64
        ^ u64::from(std::process::id());
    let tokens: Vec<u8> = (0..6).map(|i| ((salt >> (8 * i)) % 11) as u8).collect();
    let mut with_lead = vec![lead];
    with_lead.extend_from_slice(&tokens);

    // The base walks [lead] + s, persisting every intermediate...
    let eval_base = QorEvaluator::new(&base)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    eval_base.evaluate_tokens(&with_lead);
    drop(eval_base);

    // ...so the derived circuit walking s re-reaches those exact states
    // under its own identity and only ever adds pointers.
    let eval_derived = QorEvaluator::new(&derived)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    eval_derived.evaluate_tokens(&tokens);
    let stats = eval_derived.prefix_stats();
    assert!(
        stats.dedup_hits > 0,
        "the derived circuit never hit a payload the base wrote: {stats:?}"
    );
    assert!(stats.payload_bytes_saved > 0, "{stats:?}");
    drop(eval_derived);

    // Restoration through the deduped payload is still exact.
    let store = PersistentPrefixStore::open_for(&dir, &derived).expect("reopen");
    let restored = store.load(&tokens).expect("full prefix present");
    let mut fresh = derived.clone();
    for &t in &tokens {
        fresh = Transform::from_index(t as usize).apply(&fresh);
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    restored.write_aig_binary(&mut a).expect("write");
    fresh.write_aig_binary(&mut b).expect("write");
    assert_eq!(a, b, "deduped payload restored differently from scratch");
}

#[test]
fn two_batch_evaluators_share_one_store_directory_concurrently() {
    let aig = boils_aig::random_aig(81, 8, 300, 3);
    let dir = shared_store_dir("concurrent");

    // Overlapping batches with shared prefixes: the worst case for two
    // writers (same entries raced) and the best case for reuse.
    let batch_a: Vec<Vec<u8>> = (0..12u8).map(|i| vec![6, 0, i % 4, i % 11]).collect();
    let batch_b: Vec<Vec<u8>> = (0..12u8).map(|i| vec![6, 0, i % 4, (i + 5) % 11]).collect();

    // The ground truth, computed without any store.
    let reference = QorEvaluator::new(&aig).expect("ok");
    let expect_a: Vec<_> = batch_a
        .iter()
        .map(|t| reference.evaluate_tokens(t))
        .collect();
    let expect_b: Vec<_> = batch_b
        .iter()
        .map(|t| reference.evaluate_tokens(t))
        .collect();
    let points = |evaluator: &QorEvaluator, batch: &[Vec<u8>]| -> Vec<QorPoint> {
        let control = RunControl::new();
        let mut ledger = RunLedger::new(evaluator, 2, &control);
        ledger
            .evaluate_grouped(batch)
            .iter()
            .map(|r| r.point)
            .collect()
    };

    let eval_a = Arc::new(
        QorEvaluator::new(&aig)
            .expect("ok")
            .with_persistent_store(&dir)
            .expect("store dir"),
    );
    let eval_b = Arc::new(
        QorEvaluator::new(&aig)
            .expect("ok")
            .with_persistent_store(&dir)
            .expect("store dir"),
    );

    let (got_a, got_b) = std::thread::scope(|scope| {
        let a = scope.spawn({
            let eval_a = Arc::clone(&eval_a);
            let batch_a = batch_a.clone();
            move || points(&eval_a, &batch_a)
        });
        let b = scope.spawn({
            let eval_b = Arc::clone(&eval_b);
            let batch_b = batch_b.clone();
            move || points(&eval_b, &batch_b)
        });
        (a.join().expect("worker a"), b.join().expect("worker b"))
    });

    assert_eq!(
        got_a, expect_a,
        "store sharing changed evaluator A's values"
    );
    assert_eq!(
        got_b, expect_b,
        "store sharing changed evaluator B's values"
    );
}

#[test]
fn the_store_works_with_the_in_memory_cache_disabled() {
    let aig = boils_aig::random_aig(85, 8, 300, 3);
    let dir = shared_store_dir("no-mem-cache");
    let sequence: &[u8] = &[6, 0, 2, 5];

    let reference = QorEvaluator::new(&aig).expect("ok");
    let expected = reference.evaluate_tokens(sequence);

    let cold = QorEvaluator::new(&aig)
        .expect("ok")
        .without_prefix_cache()
        .with_persistent_store(&dir)
        .expect("store dir");
    assert_eq!(cold.evaluate_tokens(sequence), expected);
    drop(cold);

    let warm = QorEvaluator::new(&aig)
        .expect("ok")
        .without_prefix_cache()
        .with_persistent_store(&dir)
        .expect("store dir");
    assert_eq!(warm.evaluate_tokens(sequence), expected);
    let stats = warm.prefix_stats();
    assert!(stats.disk_hits > 0, "disk tier unused: {stats:?}");
    assert_eq!(stats.prefix_hits, 0, "no memory tier exists to hit");
}

#[test]
fn truncated_entries_are_skipped_and_recomputed() {
    let aig = boils_aig::random_aig(91, 8, 300, 3);
    let dir = fresh_store_dir("truncate");
    let sequence: &[u8] = &[6, 0, 2, 5, 7];

    let reference = QorEvaluator::new(&aig).expect("ok");
    let expected = reference.evaluate_tokens(sequence);

    let cold = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    assert_eq!(cold.evaluate_tokens(sequence), expected);
    drop(cold);

    // Truncate every entry file — simulating a crash mid-write that
    // somehow bypassed the tempfile protocol, or plain disk damage.
    let mut truncated = 0;
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "aig") {
            let bytes = std::fs::read(&path).expect("read entry");
            std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate");
            truncated += 1;
        }
    }
    assert!(truncated > 0, "no entries were written to truncate");

    let warm = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    assert_eq!(warm.evaluate_tokens(sequence), expected);
    let stats = warm.prefix_stats();
    assert!(
        stats.disk_corrupt_dropped > 0,
        "no corrupt entry was detected: {stats:?}"
    );
    assert_eq!(stats.disk_hits, 0, "a truncated entry was trusted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_rotted_payloads_fail_the_checksum_and_are_recomputed() {
    let aig = boils_aig::random_aig(93, 8, 300, 3);
    let dir = fresh_store_dir("bitrot");
    let sequence: &[u8] = &[3, 1, 4];

    let reference = QorEvaluator::new(&aig).expect("ok");
    let expected = reference.evaluate_tokens(sequence);

    let cold = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    assert_eq!(cold.evaluate_tokens(sequence), expected);
    drop(cold);

    // Flip one payload byte in every entry; lengths and headers stay
    // valid, so only the checksum can catch this.
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "aig") {
            let mut bytes = std::fs::read(&path).expect("read entry");
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40;
            std::fs::write(&path, &bytes).expect("rewrite");
        }
    }

    let warm = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir");
    assert_eq!(warm.evaluate_tokens(sequence), expected);
    let stats = warm.prefix_stats();
    assert!(stats.disk_corrupt_dropped > 0, "bit rot went undetected");
    assert_eq!(stats.disk_hits, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_or_garbage_index_is_tolerated() {
    let aig = boils_aig::random_aig(95, 8, 300, 3);
    let dir = fresh_store_dir("staleindex");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(
        dir.join("index.tsv"),
        "0123456789abcdef-06.aig\t4096\t17\n\
         not a valid line at all\n\
         ffffffffffffffff-00ff.aig\tNaN\t-3\n",
    )
    .expect("write stale index");

    let reference = QorEvaluator::new(&aig).expect("ok");
    let sequence: &[u8] = &[6, 2];
    let expected = reference.evaluate_tokens(sequence);

    let evaluator = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("a stale index must not fail open");
    assert_eq!(evaluator.evaluate_tokens(sequence), expected);
    // The stale lines pointed at files that never existed: nothing to
    // hit, nothing to drop, and the store works normally.
    let store = evaluator.persistent_store().expect("store attached");
    assert_eq!(store.stats().disk_corrupt_dropped, 0);
    assert!(!store.is_empty(), "new entries were not adopted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_byte_budget_holds_after_eviction_and_evicted_work_is_recomputed() {
    let aig = boils_aig::random_aig(97, 8, 300, 3);
    let dir = fresh_store_dir("budget");
    let sequence: &[u8] = &[6, 0, 2, 5, 7, 1, 3, 4];

    let reference = QorEvaluator::new(&aig).expect("ok");
    let expected = reference.evaluate_tokens(sequence);

    // A budget that fits only a couple of intermediates: storing the full
    // trajectory must evict the oldest prefixes as it goes.
    let budget = 256;
    let evaluator = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir")
        .with_persistent_byte_budget(budget);
    assert_eq!(evaluator.evaluate_tokens(sequence), expected);

    let store = evaluator.persistent_store().expect("store attached");
    assert!(
        store.total_bytes() <= budget,
        "budget violated: {} > {budget}",
        store.total_bytes()
    );
    let disk_bytes: u64 = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "aig"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    assert!(
        disk_bytes <= budget,
        "files on disk exceed the budget: {disk_bytes} > {budget}"
    );
    assert!(
        evaluator.prefix_stats().disk_evictions > 0,
        "nothing was evicted under a tiny budget"
    );
    drop(evaluator);

    // Evicted prefixes are transparently recomputed by a fresh evaluator.
    let warm = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir")
        .with_persistent_byte_budget(budget);
    assert_eq!(warm.evaluate_tokens(sequence), expected);
    let _ = std::fs::remove_dir_all(&dir);
}
