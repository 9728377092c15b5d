//! Functional reduction / SAT sweeping (ABC `fraig`).
//!
//! Random simulation partitions nodes into candidate equivalence classes
//! (up to complement); a SAT solver then proves or refutes each candidate
//! merge. Counterexamples from refutations are fed back as simulation
//! patterns, refining the classes, until no candidates remain unproven.
//!
//! The sweep rides the bit-parallel simulation tier ([`SimTable`]): each
//! refinement round re-simulates only the freshly appended counterexample
//! words (O(nodes × new_words) instead of O(nodes × total_words)),
//! counterexample bits pack into the last partially-used pattern word,
//! classes partition through 64-bit canonical signature hashes instead of
//! cloned vector keys (hash buckets are confirmed with exact row
//! comparison), and CNF is encoded lazily so SAT only ever sees the fanin
//! cones of sim-indistinguishable candidate pairs. A budget-exhausted
//! query is tracked as *unknown* — not refuted — and retried in later
//! rounds once learned clauses or refined classes give it another chance.

use std::collections::{HashMap, HashSet};

use boils_aig::{Aig, Lit, SimTable};
use boils_sat::AigCnf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the fraig pass.
#[derive(Clone, Debug)]
pub struct FraigConfig {
    /// Initial random simulation words (64 patterns each).
    pub sim_words: usize,
    /// SAT conflict budget per equivalence query.
    pub conflict_budget: u64,
    /// Maximum counterexample-refinement rounds.
    pub max_rounds: usize,
    /// Seed of the random pattern generator.
    pub seed: u64,
}

impl Default for FraigConfig {
    fn default() -> Self {
        FraigConfig {
            sim_words: 16,
            conflict_budget: 1_000,
            max_rounds: 16,
            seed: 0xF12A,
        }
    }
}

/// What one fraig sweep did and what it cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FraigStats {
    /// Refinement rounds executed.
    pub rounds: usize,
    /// Nodes merged into an equivalent representative.
    pub proven: usize,
    /// Candidate pairs refuted with a counterexample.
    pub refuted_pairs: usize,
    /// Candidate pairs still unresolved when the sweep stopped (conflict
    /// budget exhausted and never settled by a later retry).
    pub unknown_pairs: usize,
    /// Total simulation patterns accumulated (initial + counterexamples).
    pub sim_patterns: usize,
    /// AIG nodes Tseitin-encoded — the union of the queried fanin cones,
    /// at most `aig.num_nodes()`.
    pub vars_encoded: usize,
}

/// Merges functionally equivalent nodes (up to complement), SAT-proven.
///
/// ```
/// use boils_aig::Aig;
/// use boils_synth::fraig;
///
/// // Two structurally different spellings of xor.
/// let mut aig = Aig::new(2);
/// let (a, b) = (aig.pi(0), aig.pi(1));
/// let x1 = aig.xor(a, b);
/// let anb = aig.and(a, !b);
/// let nab = aig.and(!a, b);
/// let x2 = aig.or(anb, nab);
/// aig.add_po(x1);
/// aig.add_po(x2);
///
/// let fr = fraig(&aig);
/// assert!(fr.num_ands() < aig.num_ands()); // the twins merged
/// assert_eq!(fr.simulate_exhaustive(), aig.simulate_exhaustive());
/// ```
pub fn fraig(aig: &Aig) -> Aig {
    fraig_with(aig, &FraigConfig::default())
}

/// [`fraig`] with explicit configuration.
pub fn fraig_with(aig: &Aig, config: &FraigConfig) -> Aig {
    fraig_with_stats(aig, config).0
}

/// [`fraig`] with explicit configuration, reporting sweep statistics.
pub fn fraig_with_stats(aig: &Aig, config: &FraigConfig) -> (Aig, FraigStats) {
    let aig = aig.cleanup();
    let mut stats = FraigStats::default();
    if aig.num_ands() == 0 {
        return (aig, stats);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pi_words: Vec<Vec<u64>> = (0..aig.num_pis())
        .map(|_| (0..config.sim_words).map(|_| rng.gen()).collect())
        .collect();
    let mut table = SimTable::from_patterns(&aig, &pi_words, config.sim_words);
    let mut cnf = AigCnf::new_lazy(&aig);

    // node → (replacement literal in old space)
    let mut proven: HashMap<usize, Lit> = HashMap::new();
    let mut refuted: HashSet<(usize, usize)> = HashSet::new();
    // Budget-exhausted pairs: NOT refuted, eligible for retry once new
    // counterexamples re-rank classes or learned clauses accumulate.
    let mut unknown: HashSet<(usize, usize)> = HashSet::new();

    for _round in 0..config.max_rounds {
        stats.rounds += 1;
        // Group nodes by hashed canonical signature (min of sig, ~sig).
        // Classes under one hash are confirmed by exact row comparison, so
        // a hash collision costs a second class, never a wrong one. The
        // hash map only indexes `classes`, which keeps them in order of
        // their first member's node: the SAT query order, and with it the
        // solver's learned state, is the same in every process.
        let mut classes: Vec<Vec<(usize, bool)>> = Vec::new();
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        for var in (0..=aig.num_pis()).chain(aig.ands()) {
            if proven.contains_key(&var) {
                continue;
            }
            let (hash, phase) = table.sig_hash(var);
            let candidates = by_hash.entry(hash).or_default();
            let found = candidates.iter().copied().find(|&class| {
                let (repr, repr_phase) = classes[class][0];
                table.rows_equal(var, repr, phase != repr_phase)
            });
            match found {
                Some(class) => classes[class].push((var, phase)),
                None => {
                    candidates.push(classes.len());
                    classes.push(vec![(var, phase)]);
                }
            }
        }
        // Try to prove members equal to their class representative.
        let mut new_cex: Vec<Vec<bool>> = Vec::new();
        let mut settled = false;
        for members in &classes {
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
                        unknown.remove(&(repr, m));
                        settled = true;
                    }
                    Some(false) => {
                        new_cex.push(cnf.counterexample());
                        refuted.insert((repr, m));
                        unknown.remove(&(repr, m));
                        settled = true;
                    }
                    None => {
                        unknown.insert((repr, m));
                    }
                }
            }
        }
        if new_cex.is_empty() {
            // Nothing left to refine. Spend remaining rounds retrying
            // unknowns only while retries keep settling pairs.
            if unknown.is_empty() || !settled {
                break;
            }
        } else {
            // Incremental re-simulation: only the word columns the new
            // counterexamples land in are recomputed, packing into the
            // last partially-used pattern word first.
            table.append_counterexamples(&aig, &new_cex);
        }
    }

    stats.proven = proven.len();
    stats.refuted_pairs = refuted.len();
    stats.unknown_pairs = unknown.len();
    stats.sim_patterns = table.num_bits();
    stats.vars_encoded = cnf.vars_encoded();

    (rebuild_merged(&aig, &proven), stats)
}

/// Rebuilds `aig`, redirecting merged nodes to their surviving
/// representative.
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

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;

    #[test]
    fn preserves_function_on_random_aigs() {
        for seed in 0..15 {
            let aig = random_aig(seed + 1900, 7, 150, 3);
            let fr = fraig(&aig);
            assert_eq!(
                fr.simulate_exhaustive(),
                aig.simulate_exhaustive(),
                "seed {seed}"
            );
            fr.check().unwrap();
        }
    }

    #[test]
    fn never_grows_the_graph() {
        for seed in 0..15 {
            let aig = random_aig(seed + 2100, 8, 200, 3).cleanup();
            let fr = fraig(&aig);
            assert!(fr.num_ands() <= aig.num_ands(), "seed {seed}");
        }
    }

    #[test]
    fn merges_complemented_twins() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        // nand(a,b) and and(a,b) are complements: one node must merge.
        let and1 = aig.and(a, b);
        // A separately-structured and: a & (a & b) == a & b.
        let ab2 = aig.and(a, b);
        let redundant = aig.and(a, ab2); // strash gives same node; build via or
        let o = aig.or(!a, !b); // == !(a & b)
        aig.add_po(and1);
        aig.add_po(redundant);
        aig.add_po(o);
        let fr = fraig(&aig);
        assert_eq!(fr.simulate_exhaustive(), aig.simulate_exhaustive());
        assert!(fr.num_ands() <= aig.num_ands());
    }

    #[test]
    fn detects_constant_nodes() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        // (a & b) & (!a | !b) == 0, built without strash seeing it.
        let ab = aig.and(a, b);
        let nab = aig.or(!a, !b);
        let zero = aig.and(ab, nab);
        let useful = aig.or(zero, b); // == b
        aig.add_po(useful);
        let fr = fraig(&aig);
        assert_eq!(fr.simulate_exhaustive(), aig.simulate_exhaustive());
        assert_eq!(fr.num_ands(), 0, "fraig should collapse to the wire b");
    }

    #[test]
    fn stats_report_the_sweep() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let x1 = aig.xor(a, b);
        let anb = aig.and(a, !b);
        let nab = aig.and(!a, b);
        let x2 = aig.or(anb, nab);
        aig.add_po(x1);
        aig.add_po(x2);
        let (fr, stats) = fraig_with_stats(&aig, &FraigConfig::default());
        assert!(fr.num_ands() < aig.num_ands());
        assert!(stats.proven >= 1, "the xor twins must merge: {stats:?}");
        assert_eq!(stats.unknown_pairs, 0);
        assert!(stats.rounds >= 1);
        assert!(stats.vars_encoded <= aig.cleanup().num_nodes());
        assert!(stats.sim_patterns >= FraigConfig::default().sim_words * 64);
    }

    #[test]
    fn exhausted_budget_lands_in_unknown_not_refuted() {
        // A conflict budget of zero aborts on the very first conflict, so
        // any query that needs real search comes back Unknown. The twins
        // below are NOT provable by propagation alone: the sweep must
        // leave them unmerged and report them as unknown pairs.
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let ab = aig.xor(a, b);
        let x1 = aig.xor(ab, c);
        let bc = aig.xor(b, c);
        let x2 = aig.xor(a, bc);
        aig.add_po(x1);
        aig.add_po(x2);
        let config = FraigConfig {
            conflict_budget: 0,
            ..FraigConfig::default()
        };
        let (fr, stats) = fraig_with_stats(&aig, &config);
        assert_eq!(fr.simulate_exhaustive(), aig.simulate_exhaustive());
        assert!(
            stats.unknown_pairs > 0,
            "budget-starved queries must surface as unknown: {stats:?}"
        );
        // And with a real budget the same pairs settle.
        let (_, settled) = fraig_with_stats(&aig, &FraigConfig::default());
        assert_eq!(settled.unknown_pairs, 0);
        assert!(settled.proven > 0);
    }
}
