//! Cross-crate interop: AIGER round trips of real benchmarks, SAT
//! equivalence of parsed circuits, and determinism of the optimisers.

use boils::aig::Aig;
use boils::baselines::{genetic_algorithm, random_search, GaConfig};
use boils::circuits::{Benchmark, CircuitSpec};
use boils::core::{QorEvaluator, RunControl, SequenceSpace};
use boils::sat::{check_equivalence, EquivResult};

#[test]
fn benchmarks_round_trip_through_aiger() {
    for b in [Benchmark::Adder, Benchmark::Max, Benchmark::Log2] {
        let spec = CircuitSpec::new(b).bits(match b {
            Benchmark::Log2 => 5,
            _ => 6,
        });
        let aig = spec.build();
        let mut buf = Vec::new();
        aig.write_aag(&mut buf).expect("serialise");
        let back = Aig::read_aag(buf.as_slice()).expect("parse");
        assert_eq!(back.num_pis(), aig.num_pis());
        assert_eq!(back.num_pos(), aig.num_pos());
        assert_eq!(
            check_equivalence(&aig, &back, Some(100_000)),
            EquivResult::Equivalent,
            "{b}: AIGER round trip changed the function"
        );
    }
}

#[test]
fn optimisers_are_deterministic_across_processes() {
    // Two fresh evaluators (separate caches) must reproduce identical runs
    // for identical seeds — the property that makes EXPERIMENTS.md
    // reproducible.
    let aig = CircuitSpec::new(Benchmark::Square).bits(5).build();
    let space = SequenceSpace::new(6, 11);
    let (e1, e2) = (
        QorEvaluator::new(&aig).expect("ok"),
        QorEvaluator::new(&aig).expect("ok"),
    );
    // Different thread counts on purpose: the trajectory must not depend
    // on the evaluation engine's parallelism.
    let a = random_search(&e1, space, 10, 3, 1);
    let b = random_search(&e2, space, 10, 3, 4);
    assert_eq!(a.best_tokens, b.best_tokens);
    assert_eq!(a.best_qor, b.best_qor);

    let config = GaConfig {
        seed: 9,
        ..GaConfig::default()
    };
    let g1 = genetic_algorithm(&e1, space, 16, &config, &RunControl::new()).expect("evaluated");
    let g2 = genetic_algorithm(&e2, space, 16, &config, &RunControl::new()).expect("evaluated");
    assert_eq!(g1.best_tokens, g2.best_tokens);
}

#[test]
fn shared_evaluator_caches_across_methods() {
    let aig = CircuitSpec::new(Benchmark::Square).bits(5).build();
    let evaluator = QorEvaluator::new(&aig).expect("ok");
    let space = SequenceSpace::new(6, 11);
    let _ = random_search(&evaluator, space, 10, 0, 1);
    let unique_after_rs = evaluator.num_evaluations();
    let hits_after_rs = evaluator.cache_hits();
    // Replaying the same method hits the cache for every sequence.
    let _ = random_search(&evaluator, space, 10, 0, 1);
    assert_eq!(evaluator.num_evaluations(), unique_after_rs);
    assert!(evaluator.cache_hits() >= hits_after_rs + 10);
}
