//! Tseitin encoding of AIGs into CNF and incremental node-equivalence
//! queries — the engine room of SAT sweeping (`fraig`) and the persist
//! harness's combinational equivalence checks.
//!
//! Two performance levers live here, both classic fraig-era techniques:
//!
//! * **Lazy, cone-of-influence-restricted encoding.** [`AigCnf::new_lazy`]
//!   defers variable creation and Tseitin clauses until a node is actually
//!   named by a query, then encodes only that node's transitive fanin
//!   cone. A SAT sweep that merges nodes near the inputs never pays for
//!   the logic above them, and an equivalence check of one output never
//!   encodes the cones of the others.
//! * **Refute before prove.** [`check_equivalence_with`] runs N random
//!   64-pattern simulation words through both circuits first; any
//!   mismatching bit is decoded into a concrete counterexample without
//!   touching the solver. Only sim-indistinguishable circuits reach the
//!   (per-output, lazily encoded) SAT miter. [`EquivStats`] reports which
//!   path answered and how much CNF was actually built.

use boils_aig::{Aig, Lit as AigLit, SimTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Lit, SatResult, Solver, Var};

/// A SAT solver loaded with the Tseitin encoding of one AIG.
///
/// Every encoded AIG node gets one CNF variable; AND gates contribute the
/// three standard Tseitin clauses. [`AigCnf::new`] encodes the whole AIG
/// up front; [`AigCnf::new_lazy`] defers each node's cone until a query
/// names it. Either way the instance supports any number of incremental
/// [equality queries](AigCnf::prove_equal), which is how fraiging
/// validates simulation-derived equivalence candidates.
///
/// ```
/// use boils_aig::Aig;
/// use boils_sat::AigCnf;
///
/// let mut aig = Aig::new(2);
/// let (a, b) = (aig.pi(0), aig.pi(1));
/// let ab = aig.and(a, b);
/// let ba = aig.and(b, a); // structurally identical, so same node
/// aig.add_po(ab);
///
/// let mut cnf = AigCnf::new(&aig);
/// assert_eq!(cnf.prove_equal(ab, ba), Some(true));
/// assert_eq!(cnf.prove_equal(ab, a), Some(false)); // a=1, b=0 differs
/// ```
#[derive(Debug)]
pub struct AigCnf {
    solver: Solver,
    cone: ConeEncoder,
    num_pis: usize,
}

impl AigCnf {
    /// Encodes `aig` into a fresh solver, eagerly: every node gets its
    /// variable and clauses immediately, in arena order.
    pub fn new(aig: &Aig) -> AigCnf {
        let mut cnf = AigCnf::new_lazy(aig);
        for var in 0..cnf.cone.fanins.len() {
            cnf.cone.ensure(&mut cnf.solver, var);
        }
        cnf
    }

    /// Prepares `aig` for cone-of-influence-restricted encoding: no
    /// variables or clauses are created until a query names a node, and
    /// then only its transitive fanin cone is encoded.
    pub fn new_lazy(aig: &Aig) -> AigCnf {
        AigCnf {
            solver: Solver::new(),
            cone: ConeEncoder::new(aig),
            num_pis: aig.num_pis(),
        }
    }

    /// The CNF literal corresponding to an AIG literal.
    ///
    /// # Panics
    ///
    /// Panics if the instance was built with [`AigCnf::new_lazy`] and the
    /// node's cone has not been encoded yet (no query has named it).
    pub fn lit(&self, l: AigLit) -> Lit {
        let v = self.cone.node_var[l.var()]
            .expect("node not yet encoded; query it via prove_equal first");
        Lit::new(v, l.is_complement())
    }

    /// The number of AIG nodes whose CNF variables exist — the size of
    /// the union of all encoded cones (equals `aig.num_nodes()` after
    /// [`AigCnf::new`]).
    pub fn vars_encoded(&self) -> usize {
        self.cone.encoded_count
    }

    /// Grants mutable access to the underlying solver (e.g. to set a
    /// conflict budget or add side constraints).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Decides whether two AIG literals compute the same function,
    /// encoding their fanin cones first if the instance is lazy.
    ///
    /// Returns `Some(true)` if provably equal, `Some(false)` if a
    /// distinguishing input exists (retrievable via
    /// [`AigCnf::counterexample`]), or `None` if the solver's conflict
    /// budget ran out.
    pub fn prove_equal(&mut self, a: AigLit, b: AigLit) -> Option<bool> {
        let sa = self.cone.ensure_lit(&mut self.solver, a);
        let sb = self.cone.ensure_lit(&mut self.solver, b);
        // t → (a ⊕ b): asking for SAT under assumption t asks for a witness
        // where they differ.
        let t = Lit::positive(self.solver.new_var());
        self.solver.add_clause(&[!t, sa, sb]);
        self.solver.add_clause(&[!t, !sa, !sb]);
        let result = self.solver.solve(&[t]);
        match result {
            SatResult::Sat => Some(false),
            SatResult::Unsat => {
                // Deactivate the XOR for future queries.
                self.solver.add_clause(&[!t]);
                Some(true)
            }
            SatResult::Unknown => None,
        }
    }

    /// The primary-input assignment of the most recent `Some(false)` answer
    /// from [`AigCnf::prove_equal`], one bool per PI. Inputs outside every
    /// encoded cone default to false.
    pub fn counterexample(&self) -> Vec<bool> {
        (0..self.num_pis)
            .map(|i| {
                self.cone.node_var[1 + i]
                    .and_then(|v| self.solver.model_value(v))
                    .unwrap_or(false)
            })
            .collect()
    }
}

/// Lazy Tseitin encoder of one AIG's nodes into a [`Solver`], restricted
/// to the cones queries actually touch.
#[derive(Debug)]
struct ConeEncoder {
    /// CNF variable per AIG node, `None` until its cone is encoded.
    node_var: Vec<Option<Var>>,
    /// Fanins per node (`None` for the constant and the inputs).
    fanins: Vec<Option<(AigLit, AigLit)>>,
    /// Nodes whose variables (and clauses, for gates) exist.
    encoded_count: usize,
}

impl ConeEncoder {
    fn new(aig: &Aig) -> ConeEncoder {
        let fanins = (0..aig.num_nodes())
            .map(|v| (v > aig.num_pis()).then(|| (aig.fanin0(v), aig.fanin1(v))))
            .collect();
        ConeEncoder {
            node_var: vec![None; aig.num_nodes()],
            fanins,
            encoded_count: 0,
        }
    }

    /// Encodes the transitive fanin cone of `root` (iterative DFS), then
    /// returns its variable.
    fn ensure(&mut self, solver: &mut Solver, root: usize) -> Var {
        if let Some(v) = self.node_var[root] {
            return v;
        }
        let mut stack = vec![root];
        while let Some(&node) = stack.last() {
            if self.node_var[node].is_some() {
                stack.pop();
                continue;
            }
            match self.fanins[node] {
                None => {
                    // Constant or primary input: a bare variable, plus the
                    // grounding unit clause for the constant node.
                    let v = solver.new_var();
                    if node == 0 {
                        solver.add_clause(&[Lit::negative(v)]);
                    }
                    self.node_var[node] = Some(v);
                    self.encoded_count += 1;
                    stack.pop();
                }
                Some((f0, f1)) => {
                    let pending: Vec<usize> = [f0.var(), f1.var()]
                        .into_iter()
                        .filter(|&f| self.node_var[f].is_none())
                        .collect();
                    if pending.is_empty() {
                        let v_new = solver.new_var();
                        let v = Lit::positive(v_new);
                        let a = self.lit_of(f0);
                        let b = self.lit_of(f1);
                        // v ↔ (a ∧ b)
                        solver.add_clause(&[!v, a]);
                        solver.add_clause(&[!v, b]);
                        solver.add_clause(&[v, !a, !b]);
                        self.node_var[node] = Some(v_new);
                        self.encoded_count += 1;
                        stack.pop();
                    } else {
                        stack.extend(pending);
                    }
                }
            }
        }
        self.node_var[root].expect("cone encoding reached the root")
    }

    fn ensure_lit(&mut self, solver: &mut Solver, l: AigLit) -> Lit {
        let v = self.ensure(solver, l.var());
        Lit::new(v, l.is_complement())
    }

    fn lit_of(&self, l: AigLit) -> Lit {
        Lit::new(
            self.node_var[l.var()].expect("fanin encoded before its fanout"),
            l.is_complement(),
        )
    }
}

/// Outcome of a combinational equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivResult {
    /// The two AIGs compute identical functions on all outputs.
    Equivalent,
    /// The AIGs differ; the payload is a distinguishing input assignment.
    NotEquivalent { counterexample: Vec<bool> },
    /// The conflict budget was exhausted.
    Unknown,
}

/// How one equivalence check was answered and what it cost.
///
/// The counters classify *checks* (each is 0 or 1 per call), so stats from
/// a batch of checks aggregate with [`EquivStats::absorb`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EquivStats {
    /// Answered `NotEquivalent` by random simulation alone (no solver).
    pub sim_refuted: usize,
    /// Answered `Equivalent` by the SAT miter (every output pair UNSAT).
    pub sat_proved: usize,
    /// Answered `NotEquivalent` by the SAT miter.
    pub sat_refuted: usize,
    /// AIG-node CNF variables actually created (union of the encoded
    /// cones, inputs counted once). Zero when simulation refuted.
    pub vars_encoded: usize,
    /// Node variables a full two-circuit eager encoding would create —
    /// the baseline `vars_encoded` is restricted against.
    pub vars_full: usize,
}

impl EquivStats {
    /// Accumulates another check's stats into this one (`vars_*` add up).
    pub fn absorb(&mut self, other: &EquivStats) {
        self.sim_refuted += other.sim_refuted;
        self.sat_proved += other.sat_proved;
        self.sat_refuted += other.sat_refuted;
        self.vars_encoded += other.vars_encoded;
        self.vars_full += other.vars_full;
    }
}

/// Configuration of [`check_equivalence_with`]. The refutation patterns
/// come from a generator with one fixed seed, a constant, so every check
/// of the same pair draws the same patterns.
#[derive(Clone, Debug)]
pub struct EquivConfig {
    /// Random 64-pattern simulation words tried before any SAT work
    /// (0 disables the refutation path and goes straight to the miter).
    pub sim_words: usize,
    /// SAT conflict budget per output pair (`None` = unbounded).
    pub conflict_budget: Option<u64>,
}

impl Default for EquivConfig {
    fn default() -> Self {
        EquivConfig {
            sim_words: 8,
            conflict_budget: None,
        }
    }
}

/// Seed of the refutation-pattern generator.
const SIM_SEED: u64 = 0x5EED_C0DE;

/// Checks combinational equivalence of two AIGs with a shared-input miter.
///
/// Both AIGs must have the same number of inputs and outputs. A fresh solver
/// encodes both circuits over shared primary-input variables, XORs each
/// output pair and asserts that at least one pair differs; UNSAT means
/// equivalent. `conflict_budget` bounds the effort (`None` = unbounded).
///
/// This is [`check_equivalence_with`] under the default configuration
/// (random-simulation refutation first, then a lazily encoded per-output
/// miter), discarding the stats.
///
/// # Panics
///
/// Panics if the interface arities differ.
///
/// ```
/// use boils_aig::Aig;
/// use boils_sat::{check_equivalence, EquivResult};
///
/// let mut a = Aig::new(2);
/// let (x, y) = (a.pi(0), a.pi(1));
/// let f = a.xor(x, y);
/// a.add_po(f);
///
/// // De Morgan spelling of XOR.
/// let mut b = Aig::new(2);
/// let (x, y) = (b.pi(0), b.pi(1));
/// let left = b.and(x, !y);
/// let right = b.and(!x, y);
/// let g = b.or(left, right);
/// b.add_po(g);
///
/// assert_eq!(check_equivalence(&a, &b, None), EquivResult::Equivalent);
/// ```
pub fn check_equivalence(a: &Aig, b: &Aig, conflict_budget: Option<u64>) -> EquivResult {
    let config = EquivConfig {
        conflict_budget,
        ..EquivConfig::default()
    };
    check_equivalence_with(a, b, &config).0
}

/// [`check_equivalence`] with explicit configuration, reporting how the
/// answer was reached.
///
/// The check runs in two phases:
///
/// 1. **Refute by simulation.** `config.sim_words` random 64-pattern words
///    drive both circuits through [`SimTable`]; the first mismatching
///    output bit is decoded into a concrete counterexample — no CNF, no
///    solver. Truly different circuits almost always die here.
/// 2. **Prove by SAT.** Each output pair gets its own XOR miter over a
///    *lazily encoded* shared-input CNF: only the fanin cones of the pair
///    under test are Tseitin-encoded (`EquivStats::vars_encoded` counts
///    what that came to versus `vars_full` for the whole pair of AIGs).
///    A SAT answer on any pair refutes with a counterexample; UNSAT on
///    every pair proves equivalence.
///
/// `Unknown` can only surface from phase 2, when `config.conflict_budget`
/// is exhausted on some output pair.
///
/// # Panics
///
/// Panics if the interface arities differ.
pub fn check_equivalence_with(a: &Aig, b: &Aig, config: &EquivConfig) -> (EquivResult, EquivStats) {
    assert_eq!(a.num_pis(), b.num_pis(), "input arity mismatch");
    assert_eq!(a.num_pos(), b.num_pos(), "output arity mismatch");
    let mut stats = EquivStats {
        vars_full: 1 + a.num_pis() + a.num_ands() + b.num_ands(),
        ..EquivStats::default()
    };

    // Phase 1: try to refute by bit-parallel random simulation.
    if config.sim_words > 0 {
        // A 0-PI circuit has exactly one input pattern; one word covers it.
        let words = if a.num_pis() == 0 {
            1
        } else {
            config.sim_words
        };
        let mut rng = StdRng::seed_from_u64(SIM_SEED);
        let pi_words: Vec<Vec<u64>> = (0..a.num_pis())
            .map(|_| (0..words).map(|_| rng.gen()).collect())
            .collect();
        let ta = SimTable::from_patterns(a, &pi_words, words);
        let tb = SimTable::from_patterns(b, &pi_words, words);
        for (&pa, &pb) in a.pos().iter().zip(b.pos()) {
            for w in 0..words {
                let diff = ta.lit_word(pa, w) ^ tb.lit_word(pb, w);
                if diff != 0 {
                    let bit = diff.trailing_zeros();
                    stats.sim_refuted = 1;
                    let counterexample =
                        pi_words.iter().map(|row| row[w] >> bit & 1 == 1).collect();
                    return (EquivResult::NotEquivalent { counterexample }, stats);
                }
            }
        }
    }

    // Phase 2: per-output SAT miters over one shared lazily-encoded CNF.
    let mut solver = Solver::new();
    let mut shared = SharedInputs::new(a.num_pis());
    let mut enc_a = ConeEncoder::new(a);
    let mut enc_b = ConeEncoder::new(b);
    for (&pa, &pb) in a.pos().iter().zip(b.pos()) {
        let la = shared.ensure_lit(&mut solver, &mut enc_a, a, pa);
        let lb = shared.ensure_lit(&mut solver, &mut enc_b, b, pb);
        let d = Lit::positive(solver.new_var());
        // d → (la ⊕ lb); one direction suffices for the miter.
        solver.add_clause(&[!d, la, lb]);
        solver.add_clause(&[!d, !la, !lb]);
        solver.set_conflict_budget(config.conflict_budget);
        match solver.solve(&[d]) {
            SatResult::Sat => {
                stats.sat_refuted = 1;
                stats.vars_encoded = shared.vars_encoded(&enc_a, &enc_b);
                let counterexample = shared.counterexample(&solver);
                return (EquivResult::NotEquivalent { counterexample }, stats);
            }
            SatResult::Unsat => {
                // This pair is proven; retire its miter and move on.
                solver.add_clause(&[!d]);
            }
            SatResult::Unknown => {
                stats.vars_encoded = shared.vars_encoded(&enc_a, &enc_b);
                return (EquivResult::Unknown, stats);
            }
        }
    }
    stats.sat_proved = 1;
    stats.vars_encoded = shared.vars_encoded(&enc_a, &enc_b);
    (EquivResult::Equivalent, stats)
}

/// Primary-input (and constant) variables shared between the two sides of
/// a miter, created lazily alongside the cones that touch them.
#[derive(Debug)]
struct SharedInputs {
    pis: Vec<Option<Var>>,
    constant: Option<Var>,
}

impl SharedInputs {
    fn new(num_pis: usize) -> SharedInputs {
        SharedInputs {
            pis: vec![None; num_pis],
            constant: None,
        }
    }

    /// Encodes `root`'s cone through `enc`, pre-seeding any inputs the
    /// cone needs with this miter's shared variables.
    fn ensure_lit(
        &mut self,
        solver: &mut Solver,
        enc: &mut ConeEncoder,
        aig: &Aig,
        root: AigLit,
    ) -> Lit {
        // Seed the cone's terminals with the shared variables so both
        // sides of the miter agree on inputs. Terminals the cone does not
        // reach stay unencoded (that is the COI restriction).
        let cone = aig.cone(&[root.var()]);
        let needs_const = root.var() == 0
            || cone.iter().any(|&n| {
                n > aig.num_pis() && (aig.fanin0(n).var() == 0 || aig.fanin1(n).var() == 0)
            });
        if needs_const && enc.node_var[0].is_none() {
            let v = *self.constant.get_or_insert_with(|| {
                let v = solver.new_var();
                solver.add_clause(&[Lit::negative(v)]);
                v
            });
            enc.node_var[0] = Some(v);
            enc.encoded_count += 1;
        }
        for &node in &cone {
            if node >= 1 && node <= aig.num_pis() && enc.node_var[node].is_none() {
                let v = *self.pis[node - 1].get_or_insert_with(|| solver.new_var());
                enc.node_var[node] = Some(v);
                enc.encoded_count += 1;
            }
        }
        enc.ensure_lit(solver, root)
    }

    /// Node variables created so far: shared inputs and constant counted
    /// once, plus each side's encoded gates.
    fn vars_encoded(&self, enc_a: &ConeEncoder, enc_b: &ConeEncoder) -> usize {
        let shared = self.pis.iter().flatten().count() + self.constant.iter().count();
        let gates = |enc: &ConeEncoder| {
            enc.node_var
                .iter()
                .zip(&enc.fanins)
                .filter(|(v, f)| v.is_some() && f.is_some())
                .count()
        };
        shared + gates(enc_a) + gates(enc_b)
    }

    /// Decodes the solver model into one bool per PI; inputs outside every
    /// encoded cone are unconstrained and default to false.
    fn counterexample(&self, solver: &Solver) -> Vec<bool> {
        self.pis
            .iter()
            .map(|v| v.and_then(|v| solver.model_value(v)).unwrap_or(false))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;

    #[test]
    fn equivalence_of_identical_random_aigs() {
        let a = random_aig(3, 6, 60, 3);
        assert_eq!(
            check_equivalence(&a, &a.clone(), None),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn cleanup_is_equivalent() {
        let a = random_aig(11, 7, 90, 2);
        assert_eq!(
            check_equivalence(&a, &a.cleanup(), None),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn detects_single_output_flip() {
        let a = random_aig(5, 5, 40, 2);
        let mut b = a.clone();
        b.set_po(1, !b.po(1));
        match check_equivalence(&a, &b, None) {
            EquivResult::NotEquivalent { counterexample } => {
                // The counterexample must actually distinguish the circuits.
                let words: Vec<u64> = counterexample.iter().map(|&x| x as u64).collect();
                assert_ne!(a.simulate(&words), b.simulate(&words));
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn output_flip_is_refuted_without_the_solver() {
        let a = random_aig(5, 5, 40, 2);
        let mut b = a.clone();
        b.set_po(1, !b.po(1));
        let (result, stats) = check_equivalence_with(&a, &b, &EquivConfig::default());
        assert!(matches!(result, EquivResult::NotEquivalent { .. }));
        assert_eq!(stats.sim_refuted, 1);
        assert_eq!(stats.sat_refuted, 0);
        assert_eq!(stats.vars_encoded, 0, "refutation must not build CNF");
    }

    #[test]
    fn equivalence_is_sat_proved_with_restricted_encoding() {
        let a = random_aig(13, 7, 80, 2);
        let (result, stats) = check_equivalence_with(&a, &a.cleanup(), &EquivConfig::default());
        assert_eq!(result, EquivResult::Equivalent);
        assert_eq!(stats.sat_proved, 1);
        assert_eq!(stats.sim_refuted, 0);
        assert!(stats.vars_encoded <= stats.vars_full);
    }

    #[test]
    fn dangling_gates_stay_outside_the_encoding() {
        let a = random_aig(17, 6, 50, 2);
        let mut b = a.clone();
        // Grow b with gates no output can reach: the COI restriction must
        // never encode them.
        let (x, y) = (b.pi(0), b.pi(1));
        let mut prev = b.and(x, !y);
        for _ in 0..10 {
            prev = b.and(prev, y);
        }
        let dangling = b.num_ands() - a.num_ands();
        assert!(dangling >= 1, "the dangling chain must add gates");
        let config = EquivConfig {
            sim_words: 0, // force the SAT path so something gets encoded
            ..EquivConfig::default()
        };
        let (result, stats) = check_equivalence_with(&a, &b, &config);
        assert_eq!(result, EquivResult::Equivalent);
        assert!(
            stats.vars_encoded + dangling <= stats.vars_full,
            "{} encoded, {} dangling, {} full",
            stats.vars_encoded,
            dangling,
            stats.vars_full
        );
    }

    #[test]
    fn pure_sat_path_agrees_with_sim_refutation() {
        for seed in 0..10 {
            let a = random_aig(seed + 500, 6, 50, 2);
            let mut b = a.clone();
            b.set_po(0, !b.po(0));
            let sim = check_equivalence_with(&a, &b, &EquivConfig::default());
            let sat = check_equivalence_with(
                &a,
                &b,
                &EquivConfig {
                    sim_words: 0,
                    ..EquivConfig::default()
                },
            );
            assert_eq!(sim.1.sim_refuted, 1, "seed {seed}");
            assert_eq!(sat.1.sat_refuted, 1, "seed {seed}");
            for (result, _) in [&sim, &sat] {
                match result {
                    EquivResult::NotEquivalent { counterexample } => {
                        let words: Vec<u64> = counterexample.iter().map(|&x| x as u64).collect();
                        assert_ne!(a.simulate(&words), b.simulate(&words), "seed {seed}");
                    }
                    other => panic!("expected NotEquivalent, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn zero_pi_circuits_check_cleanly() {
        let mut a = Aig::new(0);
        a.add_po(boils_aig::Lit::TRUE);
        let mut b = Aig::new(0);
        b.add_po(boils_aig::Lit::TRUE);
        assert_eq!(check_equivalence(&a, &b, None), EquivResult::Equivalent);
        let mut c = Aig::new(0);
        c.add_po(boils_aig::Lit::FALSE);
        match check_equivalence(&a, &c, None) {
            EquivResult::NotEquivalent { counterexample } => {
                assert!(counterexample.is_empty());
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn prove_equal_finds_structural_twins() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        // (a & b) & c versus a & (b & c): structurally different nodes,
        // functionally identical.
        let ab = aig.and(a, b);
        let abc1 = aig.and(ab, c);
        let bc = aig.and(b, c);
        let abc2 = aig.and(a, bc);
        aig.add_po(abc1);
        aig.add_po(abc2);
        let mut cnf = AigCnf::new(&aig);
        assert_eq!(cnf.prove_equal(abc1, abc2), Some(true));
        assert_eq!(cnf.prove_equal(abc1, !abc2), Some(false));
        assert_eq!(cnf.prove_equal(ab, bc), Some(false));
        let cex = cnf.counterexample();
        assert_eq!(cex.len(), 3);
    }

    #[test]
    fn lazy_encoding_restricts_to_queried_cones() {
        let mut aig = Aig::new(4);
        let (a, b, c, d) = (aig.pi(0), aig.pi(1), aig.pi(2), aig.pi(3));
        let ab = aig.and(a, b);
        let ba = aig.and(b, a); // strash: same node as ab
        let cd = aig.and(c, d); // a separate cone, never queried
        let cd2 = aig.and(cd, c);
        aig.add_po(ab);
        aig.add_po(cd2);
        let mut cnf = AigCnf::new_lazy(&aig);
        assert_eq!(cnf.vars_encoded(), 0);
        assert_eq!(cnf.prove_equal(ab, ba), Some(true));
        // Only const-free cone of ab: pi a, pi b, gate ab.
        assert_eq!(cnf.vars_encoded(), 3);
        assert_eq!(cnf.prove_equal(ab, cd2), Some(false));
        assert!(cnf.vars_encoded() < aig.num_nodes());
        let eager = AigCnf::new(&aig);
        assert_eq!(eager.vars_encoded(), aig.num_nodes());
    }

    #[test]
    fn counterexample_distinguishes_nodes() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let and = aig.and(a, b);
        let or = aig.or(a, b);
        aig.add_po(and);
        aig.add_po(or);
        let mut cnf = AigCnf::new(&aig);
        assert_eq!(cnf.prove_equal(and, or), Some(false));
        let cex = cnf.counterexample();
        // AND and OR differ exactly when inputs differ.
        assert_ne!(cex[0], cex[1]);
    }
}
