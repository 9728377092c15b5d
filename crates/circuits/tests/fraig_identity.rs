//! Bit-identity of the sim-tier fraig sweep against the pre-simulation-
//! tier reference implementation, kept verbatim below as the oracle.
//!
//! The incremental `SimTable` path changes *how* candidate classes are
//! found (hashed signatures, packed counterexample words, lazy CNF) but
//! must not change *what* the sweep concludes: with the same configuration
//! both implementations reach the same proven-equivalence fixpoint, so the
//! rebuilt AIGs must be byte-identical under the binary AIGER codec — not
//! merely functionally equivalent. The property tests check that on
//! random graphs; the trajectory test checks it on every intermediate
//! state of a full K = 20 synthesis trajectory (the persist harness's
//! fixed sequence over the whole transform alphabet).
//!
//! The trajectory is the end-to-end guarantee the persistent prefix store
//! relies on: cached intermediates produced before this optimisation
//! remain valid after it.

use std::collections::{HashMap, HashSet};

use boils_aig::{random_aig, Aig, Lit};
use boils_circuits::{Benchmark, CircuitSpec};
use boils_sat::AigCnf;
use boils_synth::{fraig_with, FraigConfig, Transform};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The persist harness's fixed K = 20 trajectory over the full alphabet.
const TRAJECTORY: [u8; 20] = [6, 0, 2, 7, 4, 1, 3, 6, 5, 8, 9, 10, 0, 6, 2, 4, 7, 1, 3, 6];

fn assert_byte_identical(new: &Aig, old: &Aig, context: &str) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    new.write_aig_binary(&mut a).expect("write new");
    old.write_aig_binary(&mut b).expect("write old");
    assert_eq!(a, b, "{context}: sim-tier fraig diverged from reference");
}

#[test]
fn fraig_is_bit_identical_along_the_full_adder_trajectory() {
    let config = FraigConfig::default();
    let mut state = CircuitSpec::new(Benchmark::Adder).bits(8).build();
    for (len, &token) in TRAJECTORY.iter().enumerate() {
        let new = fraig_with(&state, &config);
        let old = fraig_reference_with(&state, &config);
        assert_byte_identical(&new, &old, &format!("prefix of length {len}"));
        state = Transform::from_index(token as usize).apply(&state);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sim_tier_fraig_matches_reference_on_random_aigs(
        seed in 0u64..5_000,
        pis in 2usize..9,
        gates in 1usize..180,
        pos in 1usize..4,
    ) {
        let aig = random_aig(seed, pis, gates, pos);
        let config = FraigConfig::default();
        let new = fraig_with(&aig, &config);
        let old = fraig_reference_with(&aig, &config);
        assert_byte_identical(&new, &old, &format!("seed {seed}"));
        prop_assert_eq!(new.simulate_exhaustive(), aig.simulate_exhaustive());
    }

    #[test]
    fn identity_holds_under_small_simulation_budgets(
        seed in 0u64..5_000,
        gates in 1usize..120,
        sim_words in 1usize..4,
    ) {
        // Few initial words force counterexample-refinement rounds, the
        // path where incremental append and word packing actually differ
        // from the reference's whole-table resimulation.
        let aig = random_aig(seed, 7, gates, 2);
        let config = FraigConfig {
            sim_words,
            ..FraigConfig::default()
        };
        let new = fraig_with(&aig, &config);
        let old = fraig_reference_with(&aig, &config);
        assert_byte_identical(&new, &old, &format!("seed {seed} words {sim_words}"));
    }
}

/// The pre-simulation-tier fraig implementation, kept verbatim as the
/// bit-identity oracle for the rewritten sweep: full re-simulation of the
/// whole pattern set every round through [`Aig::simulate_nodes`], classes
/// keyed by cloned canonical signature vectors, eager whole-AIG CNF, and
/// budget-exhausted queries conflated with refutations.
fn fraig_reference_with(aig: &Aig, config: &FraigConfig) -> Aig {
    let aig = aig.cleanup();
    if aig.num_ands() == 0 {
        return aig;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut patterns: Vec<Vec<u64>> = (0..aig.num_pis())
        .map(|_| (0..config.sim_words).map(|_| rng.gen()).collect())
        .collect();
    let mut cnf = AigCnf::new(&aig);
    cnf.solver_mut().set_conflict_budget(None);

    // node → (replacement literal in old space)
    let mut proven: HashMap<usize, Lit> = HashMap::new();
    let mut refuted: HashSet<(usize, usize)> = HashSet::new();

    for _round in 0..config.max_rounds {
        let words = patterns[0].len();
        let table = aig.simulate_nodes(&patterns, words);
        // Group nodes by canonical signature (min of sig, ~sig).
        let mut classes: HashMap<Vec<u64>, Vec<(usize, bool)>> = HashMap::new();
        for var in (0..=aig.num_pis()).chain(aig.ands()) {
            if proven.contains_key(&var) {
                continue;
            }
            let sig = &table[var];
            let neg: Vec<u64> = sig.iter().map(|w| !w).collect();
            let (canon, phase) = if *sig <= neg {
                (sig.clone(), false)
            } else {
                (neg, true)
            };
            classes.entry(canon).or_default().push((var, phase));
        }
        // Try to prove members equal to their class representative.
        let mut new_cex: Vec<Vec<bool>> = Vec::new();
        let mut progress = false;
        for members in classes.values() {
            if members.len() < 2 {
                continue;
            }
            let (repr, repr_phase) = members[0];
            for &(m, m_phase) in &members[1..] {
                if refuted.contains(&(repr, m)) || proven.contains_key(&m) {
                    continue;
                }
                let complement = repr_phase != m_phase;
                let target = Lit::from_var(repr, complement);
                cnf.solver_mut()
                    .set_conflict_budget(Some(config.conflict_budget));
                match cnf.prove_equal(Lit::from_var(m, false), target) {
                    Some(true) => {
                        proven.insert(m, target);
                        progress = true;
                    }
                    Some(false) => {
                        new_cex.push(cnf.counterexample());
                        refuted.insert((repr, m));
                        progress = true;
                    }
                    None => {
                        refuted.insert((repr, m));
                    }
                }
            }
        }
        if new_cex.is_empty() {
            break;
        }
        // Fold counterexamples into the pattern set (new words as needed).
        let mut extra_words = vec![vec![0u64; new_cex.len().div_ceil(64)]; aig.num_pis()];
        for (bit, cex) in new_cex.iter().enumerate() {
            for (i, &v) in cex.iter().enumerate() {
                if v {
                    extra_words[i][bit / 64] |= 1u64 << (bit % 64);
                }
            }
        }
        for (row, extra) in patterns.iter_mut().zip(extra_words) {
            row.extend(extra);
        }
        if !progress {
            break;
        }
    }

    rebuild_merged(&aig, &proven)
}

/// Rebuilds `aig`, redirecting merged nodes to their surviving
/// representative (the oracle's own copy of the sweep's final step).
fn rebuild_merged(aig: &Aig, proven: &HashMap<usize, Lit>) -> Aig {
    let mut out = Aig::new(aig.num_pis());
    out.set_name(aig.name().to_string());
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for i in 0..aig.num_pis() {
        map[1 + i] = out.pi(i);
    }
    for var in aig.ands() {
        if let Some(&target) = proven.get(&var) {
            map[var] = map[target.var()].xor_complement(target.is_complement());
        } else {
            let (f0, f1) = (aig.fanin0(var), aig.fanin1(var));
            let a = map[f0.var()].xor_complement(f0.is_complement());
            let b = map[f1.var()].xor_complement(f1.is_complement());
            map[var] = out.and(a, b);
        }
    }
    for po in aig.pos() {
        let lit = map[po.var()].xor_complement(po.is_complement());
        out.add_po(lit);
    }
    out.cleanup()
}
