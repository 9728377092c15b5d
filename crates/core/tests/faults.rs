//! Fault-plan integration tests: deterministic storage and evaluation
//! faults injected through the whole evaluator + persistent-store stack.
//!
//! The load-bearing invariant: **storage faults are pure degradation** —
//! they cost disk reuse, never correctness, so every trajectory here is
//! asserted bit-identical to its fault-free twin. Evaluation panics are
//! different: the hit sequence is quarantined at the worst-case QoR
//! sentinel while every other position stays bit-identical (random
//! search's sampling is RNG-driven, so a sentinel value cannot steer it).

use std::sync::Arc;

use boils_aig::random_aig;
use boils_baselines::{greedy, random_search};
use boils_core::{
    FaultInjector, FaultPlan, OptimizationResult, QorEvaluator, RunControl, SequenceSpace,
    Termination,
};

fn injector(spec: &str) -> Option<Arc<FaultInjector>> {
    Some(Arc::new(FaultInjector::new(
        FaultPlan::parse(spec).expect("valid plan"),
    )))
}

fn test_aig() -> boils_aig::Aig {
    random_aig(71, 8, 300, 3)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("boils-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_bit_identical(a: &OptimizationResult, b: &OptimizationResult) {
    assert_eq!(a.history.len(), b.history.len());
    for (i, (x, y)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(x.tokens, y.tokens, "tokens diverged at position {i}");
        assert_eq!(
            x.point.qor.to_bits(),
            y.point.qor.to_bits(),
            "QoR diverged at position {i}"
        );
        assert_eq!(x.point.area, y.point.area);
        assert_eq!(x.point.delay, y.point.delay);
    }
}

/// ENOSPC from the fifth disk write onward, mid-sweep: the circuit
/// breaker flips the store to memory-only and the trajectory does not
/// move by a single bit.
#[test]
fn enospc_mid_sweep_degrades_without_changing_the_trajectory() {
    let aig = test_aig();
    let space = SequenceSpace::new(6, 11);

    let clean_eval = QorEvaluator::new(&aig).expect("ok");
    let clean = random_search(&clean_eval, space, 30, 4, 1);

    let dir = temp_dir("enospc");
    let faulted_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_fault_injector(injector("write:enospc@5+"))
        .with_persistent_store(&dir)
        .expect("store dir is writable");
    let faulted = random_search(&faulted_eval, space, 30, 4, 1);

    assert_bit_identical(&faulted, &clean);
    assert_eq!(faulted.termination, Termination::BudgetExhausted);
    let stats = faulted_eval.prefix_stats();
    assert!(
        stats.disk_write_failures >= 3,
        "breaker needs three consecutive hard failures: {stats:?}"
    );
    assert!(
        stats.store_disabled_at.is_some(),
        "unbroken ENOSPC must trip the breaker: {stats:?}"
    );
    // Retried hard failures: 2 extra attempts per failed write.
    assert!(stats.disk_retries >= 2 * 3, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A single torn write is caught by the post-write length check and
/// retried to success — no failure surfaces, the entry persists, the
/// trajectory is untouched.
#[test]
fn torn_write_is_retried_transparently() {
    let aig = test_aig();
    let space = SequenceSpace::new(6, 11);

    let clean_eval = QorEvaluator::new(&aig).expect("ok");
    let clean = random_search(&clean_eval, space, 20, 5, 1);

    let dir = temp_dir("torn");
    let faulted_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_fault_injector(injector("write:torn@2"))
        .with_persistent_store(&dir)
        .expect("store dir is writable");
    let faulted = random_search(&faulted_eval, space, 20, 5, 1);

    assert_bit_identical(&faulted, &clean);
    let stats = faulted_eval.prefix_stats();
    assert!(
        stats.disk_retries >= 1,
        "the torn write must retry: {stats:?}"
    );
    assert_eq!(
        stats.disk_write_failures, 0,
        "a retried torn write is not a failure: {stats:?}"
    );
    assert_eq!(stats.store_disabled_at, None);
    assert!(stats.disk_writes > 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every write permission-denied: the store degrades to memory-only and
/// the final QoR is bit-identical to running with no store at all.
#[test]
fn permission_denied_directory_falls_back_to_memory_only() {
    let aig = test_aig();
    let space = SequenceSpace::new(4, 11);

    let clean_eval = QorEvaluator::new(&aig).expect("ok");
    let clean =
        greedy(&clean_eval, space, 44, 1, &RunControl::new()).expect("uncontrolled run completes");

    let dir = temp_dir("denied");
    let faulted_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_fault_injector(injector("write:denied@1+"))
        .with_persistent_store(&dir)
        .expect("store dir itself opens; its writes are what fail");
    let faulted = greedy(&faulted_eval, space, 44, 1, &RunControl::new())
        .expect("uncontrolled run completes");

    assert_bit_identical(&faulted, &clean);
    assert_eq!(faulted.best_qor.to_bits(), clean.best_qor.to_bits());
    let stats = faulted_eval.prefix_stats();
    assert!(stats.store_disabled_at.is_some(), "{stats:?}");
    assert_eq!(stats.disk_writes, 0, "no write may survive: {stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The issue's acceptance scenario: a 50-evaluation sweep with a panic
/// injected into 1-of-50 evaluations and hard disk-write failure from the
/// 11th write on. The run completes its full budget, reports the
/// quarantined sequence and the degraded store, and every non-quarantined
/// position is bit-identical to the fault-free run at the same seed.
#[test]
fn panic_plus_disk_failure_completes_the_budget_with_one_quarantine() {
    let aig = test_aig();
    let space = SequenceSpace::new(6, 11);

    let clean_eval = QorEvaluator::new(&aig).expect("ok");
    let clean = random_search(&clean_eval, space, 50, 9, 1);

    let dir = temp_dir("acceptance");
    let faulted_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_fault_injector(injector("eval:panic@13;write:enospc@11+"))
        .with_persistent_store(&dir)
        .expect("store dir is writable");
    let faulted = random_search(&faulted_eval, space, 50, 9, 1);

    // Full budget despite the panic and the dead disk.
    assert_eq!(faulted.num_evaluations(), 50);
    assert_eq!(faulted.termination, Termination::BudgetExhausted);
    assert_eq!(
        faulted.quarantined.len(),
        1,
        "exactly one evaluation panicked"
    );

    let mut sentinels = 0;
    for (i, (f, c)) in faulted.history.iter().zip(&clean.history).enumerate() {
        assert_eq!(f.tokens, c.tokens, "sampling diverged at position {i}");
        if f.point.is_quarantined() {
            sentinels += 1;
            assert_eq!(
                f.tokens, faulted.quarantined[0],
                "the sentinel must sit at the quarantined sequence"
            );
        } else {
            assert_eq!(
                f.point.qor.to_bits(),
                c.point.qor.to_bits(),
                "non-quarantined QoR diverged at position {i}"
            );
            assert_eq!(f.point.area, c.point.area);
            assert_eq!(f.point.delay, c.point.delay);
        }
    }
    assert_eq!(sentinels, 1);

    let stats = faulted_eval.prefix_stats();
    assert!(stats.disk_write_failures > 0, "{stats:?}");
    assert!(stats.store_disabled_at.is_some(), "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI read-only pass: `BOILS_CACHE_DIR` points at a directory the
/// workflow `chmod a-w`'d, so every *real* write fails with EACCES — no
/// injector involved. The store must degrade to memory-only and the
/// trajectory must match a store-less run bit for bit. Skipped when the
/// variable is unset or the directory turns out writable (e.g. running
/// as root, where mode bits don't bind).
#[test]
fn readonly_cache_dir_from_env_degrades_to_memory_only() {
    let Some(root) = std::env::var_os("BOILS_CACHE_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(root);
    let probe = dir.join(".boils-write-probe");
    if std::fs::write(&probe, b"x").is_ok() {
        let _ = std::fs::remove_file(&probe);
        return;
    }

    let aig = test_aig();
    let space = SequenceSpace::new(4, 11);
    let clean_eval = QorEvaluator::new(&aig).expect("ok");
    let clean =
        greedy(&clean_eval, space, 44, 1, &RunControl::new()).expect("uncontrolled run completes");

    let eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("an existing directory opens read-only");
    let run = greedy(&eval, space, 44, 1, &RunControl::new()).expect("uncontrolled run completes");

    assert_bit_identical(&run, &clean);
    let stats = eval.prefix_stats();
    assert!(stats.disk_write_failures > 0, "{stats:?}");
    assert!(stats.store_disabled_at.is_some(), "{stats:?}");
    assert_eq!(stats.disk_writes, 0, "{stats:?}");
}

/// A read-fault plan on a warm store is a cache miss, not an error: the
/// second process recomputes what it cannot load and the trajectory is
/// bit-identical to the cold one.
#[test]
fn read_faults_on_a_warm_store_are_plain_misses() {
    let aig = test_aig();
    let space = SequenceSpace::new(5, 11);
    let dir = temp_dir("readfault");

    let cold_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_persistent_store(&dir)
        .expect("store dir is writable");
    let cold = random_search(&cold_eval, space, 16, 2, 1);
    drop(cold_eval);

    let warm_eval = QorEvaluator::new(&aig)
        .expect("ok")
        .with_fault_injector(injector("read:denied%2"))
        .with_persistent_store(&dir)
        .expect("store dir is writable");
    let warm = random_search(&warm_eval, space, 16, 2, 1);

    assert_bit_identical(&warm, &cold);
    let _ = std::fs::remove_dir_all(&dir);
}
