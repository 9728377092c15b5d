//! Windowed resubstitution (ABC `resub` / `resub -z`).
//!
//! For each node, a reconvergence-driven window is built; every node
//! expressible over the window's leaves is a *divisor*. The algorithm tries
//! to re-express the node as a divisor (0-resub) or a two-divisor AND/OR
//! (1-resub), comparing exact truth tables over the window leaves — a sound
//! sufficient condition for global equivalence.

use std::collections::HashMap;

use boils_aig::{Aig, Lit};

use crate::cuts::reconv_cut;
use crate::rebuild::{cut_mffc, rebuild_with, Replacement};
use crate::tt::{Tt, WindowTables};

/// Maximum window leaves (truth tables stay ≤ 2^8 bits = 4 words).
const MAX_LEAVES: usize = 8;
const _: () = assert!(MAX_LEAVES <= Tt::MAX_VARS);
/// Maximum divisors examined per node.
const MAX_DIVISORS: usize = 40;
/// Maximum node-index span scanned for expressible divisors per window
/// (bounds the per-node cost on large graphs).
const MAX_SPAN: usize = 400;

/// Re-expresses nodes with existing divisors to free their logic cones.
///
/// With `use_zero_cost = true` (ABC's `resub -z`), replacements of zero net
/// gain are also accepted.
///
/// ```
/// use boils_aig::Aig;
/// use boils_synth::resub;
///
/// let mut aig = Aig::new(3);
/// let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
/// let ab = aig.and(a, b);
/// // (a & b) | (a & b & c) == a & b: resubstitution collapses the cone.
/// let abc = aig.and(ab, c);
/// let top = aig.or(ab, abc);
/// aig.add_po(top);
///
/// let rs = resub(&aig, false);
/// assert!(rs.num_ands() <= 1);
/// assert_eq!(rs.simulate_exhaustive(), aig.simulate_exhaustive());
/// ```
pub fn resub(aig: &Aig, use_zero_cost: bool) -> Aig {
    let aig = aig.cleanup();
    let mut refs = aig.fanout_counts();
    let mut blocked = vec![false; aig.num_nodes()];
    let mut replacements: HashMap<usize, Replacement> = HashMap::new();
    // Window scratch, reused across nodes.
    let mut local = WindowTables::new(aig.num_nodes());
    let mut divisors: Vec<usize> = Vec::new();
    let mut pool: Vec<Operand> = Vec::new();
    let mut dying = Vec::new();

    for var in aig.ands() {
        if blocked[var] {
            continue;
        }
        let leaves = reconv_cut(&aig, var, MAX_LEAVES);
        if leaves.is_empty() || leaves.iter().any(|&l| blocked[l]) {
            continue;
        }
        let n = leaves.len();
        // Forward closure: nodes expressible over the leaves, with their
        // window-local truth tables. Restricted to indices below `var` so
        // divisors never look forward (keeps the rebuild topological).
        let min_leaf =
            (*leaves.iter().min().expect("nonempty leaves")).max(var.saturating_sub(MAX_SPAN));
        local.clear();
        local.set(0, Tt::zero(n));
        for (i, &l) in leaves.iter().enumerate() {
            local.set(l, Tt::var(n, i));
        }
        divisors.clear();
        // `cand` is a node id walked in arena order, not a slice index.
        #[allow(clippy::needless_range_loop)]
        for cand in (min_leaf + 1)..=var {
            if !aig.is_and(cand) {
                continue;
            }
            let (f0, f1) = (aig.fanin0(cand), aig.fanin1(cand));
            let (Some(t0), Some(t1)) = (local.get(f0.var()), local.get(f1.var())) else {
                continue;
            };
            let a = if f0.is_complement() { t0.not() } else { t0 };
            let b = if f1.is_complement() { t1.not() } else { t1 };
            local.set(cand, a.and(&b));
            if cand != var && !blocked[cand] && divisors.len() < MAX_DIVISORS {
                divisors.push(cand);
            }
        }
        let Some(target) = local.get(var) else {
            continue;
        };
        // The node's own MFFC cannot provide divisors: it dies on success.
        let saved = cut_mffc(&aig, var, &leaves, &mut refs, &mut dying);
        let candidate = find_resub(&aig, &target, &leaves, &divisors, &dying, &local, &mut pool);
        if let Some((repl, added)) = candidate {
            let gain = saved as i64 - added as i64;
            if gain > 0 || (use_zero_cost && gain == 0) {
                for &d in &dying {
                    blocked[d] = true;
                }
                replacements.insert(var, repl);
            }
        }
    }
    rebuild_with(&aig, &replacements)
}

/// Searches for a 0- or 1-resubstitution of `target` over the divisors.
/// Returns the replacement together with the number of new gates it adds.
/// `pool` is scratch for the 1-resub candidates, reused across nodes.
fn find_resub(
    aig: &Aig,
    target: &Tt,
    leaves: &[usize],
    divisors: &[usize],
    dying: &[usize],
    local: &WindowTables,
    pool: &mut Vec<Operand>,
) -> Option<(Replacement, usize)> {
    let table = |node: usize| local.get(node).expect("window node has a table");
    // Constants first.
    if target.is_zero() || target.is_one() {
        return Some((constant_replacement(leaves, target.is_one()), 0));
    }
    // A leaf itself may already express the target.
    for (i, &l) in leaves.iter().enumerate() {
        let lt = table(l);
        if lt == *target {
            return Some((wire_replacement(leaves, i, false), 0));
        }
        if lt.not() == *target {
            return Some((wire_replacement(leaves, i, true), 0));
        }
    }
    // 0-resub: a single divisor outside the MFFC matches (up to
    // complement).
    pool.clear();
    pool.extend(
        divisors
            .iter()
            .filter(|d| !dying.contains(d))
            .map(|&d| Operand::new(d, table(d), target)),
    );
    for op in pool.iter() {
        if op.table == *target {
            let repl = divisor_replacement(aig, leaves, &[(op.node, false)], Op::Wire);
            return Some((repl, 0));
        }
        if op.table.not() == *target {
            let repl = divisor_replacement(aig, leaves, &[(op.node, true)], Op::Wire);
            return Some((repl, 0));
        }
    }
    // 1-resub: AND / OR of two (possibly complemented) divisors or leaves.
    pool.extend(leaves.iter().map(|&l| Operand::new(l, table(l), target)));
    for (i, x) in pool.iter().enumerate() {
        for y in &pool[i + 1..] {
            for (ci, cj) in [(false, false), (false, true), (true, false), (true, true)] {
                let (pi, pj) = (usize::from(ci), usize::from(cj));
                let pair = [(x.node, ci), (y.node, cj)];
                let (a, b) = (x.polarity(ci), y.polarity(cj));
                if x.covers[pi] && y.covers[pj] && a.and(&b) == *target {
                    let repl = divisor_replacement(aig, leaves, &pair, Op::And);
                    let added = and_cost(aig, x.node, ci, y.node, cj, dying);
                    return Some((repl, added));
                }
                if x.within[pi] && y.within[pj] && a.or(&b) == *target {
                    let repl = divisor_replacement(aig, leaves, &pair, Op::Or);
                    let added = and_cost(aig, x.node, !ci, y.node, !cj, dying);
                    return Some((repl, added));
                }
            }
        }
    }
    None
}

/// A 1-resub operand. An AND of two operands can equal the target only if
/// both cover it, and an OR only if both lie within it; recording that per
/// polarity lets the pair search skip every other pair without changing
/// which pair it finds first.
#[derive(Clone, Copy)]
struct Operand {
    node: usize,
    table: Tt,
    /// Whether the plain (`[0]`) / complemented (`[1]`) table covers the
    /// target.
    covers: [bool; 2],
    /// Whether the plain / complemented table lies within the target.
    within: [bool; 2],
}

impl Operand {
    fn new(node: usize, table: Tt, target: &Tt) -> Operand {
        let neg = table.not();
        Operand {
            node,
            table,
            covers: [table.and(target) == *target, neg.and(target) == *target],
            within: [table.or(target) == *target, neg.or(target) == *target],
        }
    }

    fn polarity(&self, complement: bool) -> Tt {
        if complement {
            self.table.not()
        } else {
            self.table
        }
    }
}

enum Op {
    Wire,
    And,
    Or,
}

fn constant_replacement(leaves: &[usize], value: bool) -> Replacement {
    let mut t = Aig::new(leaves.len());
    t.add_po(if value { Lit::TRUE } else { Lit::FALSE });
    Replacement {
        leaves: leaves.to_vec(),
        template: t,
    }
}

fn wire_replacement(leaves: &[usize], index: usize, complement: bool) -> Replacement {
    let mut t = Aig::new(leaves.len());
    let l = t.pi(index);
    t.add_po(l.xor_complement(complement));
    Replacement {
        leaves: leaves.to_vec(),
        template: t,
    }
}

/// Builds a replacement whose template leaves are the window leaves plus
/// the referenced divisors (appended), computing `op` over the divisors.
fn divisor_replacement(
    _aig: &Aig,
    leaves: &[usize],
    divisors: &[(usize, bool)],
    op: Op,
) -> Replacement {
    let mut all_leaves = leaves.to_vec();
    let mut idx = Vec::new();
    for &(d, _) in divisors {
        if let Some(pos) = all_leaves.iter().position(|&x| x == d) {
            idx.push(pos);
        } else {
            all_leaves.push(d);
            idx.push(all_leaves.len() - 1);
        }
    }
    let mut t = Aig::new(all_leaves.len());
    let lits: Vec<Lit> = divisors
        .iter()
        .zip(&idx)
        .map(|(&(_, c), &i)| t.pi(i).xor_complement(c))
        .collect();
    let out = match op {
        Op::Wire => lits[0],
        Op::And => t.and(lits[0], lits[1]),
        Op::Or => t.or(lits[0], lits[1]),
    };
    t.add_po(out);
    Replacement {
        leaves: all_leaves,
        template: t,
    }
}

/// Cost of the single AND gate of a 1-resub (0 if it already exists and is
/// not pending deletion).
fn and_cost(aig: &Aig, d1: usize, c1: bool, d2: usize, c2: bool, dying: &[usize]) -> usize {
    let a = Lit::from_var(d1, c1);
    let b = Lit::from_var(d2, c2);
    match aig.find_and(a, b) {
        Some(l) if l.is_const() || !dying.contains(&l.var()) => 0,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;

    #[test]
    fn preserves_function_on_random_aigs() {
        for seed in 0..15 {
            let aig = random_aig(seed + 1300, 7, 150, 3);
            let rs = resub(&aig, false);
            assert_eq!(
                rs.simulate_exhaustive(),
                aig.simulate_exhaustive(),
                "seed {seed}"
            );
            rs.check().unwrap();
        }
    }

    #[test]
    fn never_grows_the_graph() {
        for seed in 0..15 {
            let aig = random_aig(seed + 1500, 8, 200, 3).cleanup();
            let rs = resub(&aig, false);
            assert!(rs.num_ands() <= aig.num_ands(), "seed {seed}");
        }
    }

    #[test]
    fn finds_zero_resub_through_redundant_cone() {
        // x2 recomputes a ^ b with mux structure, structurally distinct
        // from the canonical xor x1; resub should rewire x2 onto x1.
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let x1 = aig.xor(a, b);
        let anb = aig.and(a, !b);
        let nab = aig.and(!a, b);
        let x2 = aig.or(anb, nab);
        aig.add_po(x1);
        aig.add_po(x2);
        assert_eq!(aig.num_ands(), 6, "premise: structurally distinct twins");
        let rs = resub(&aig, false);
        assert!(rs.num_ands() < aig.num_ands());
        assert_eq!(rs.simulate_exhaustive(), aig.simulate_exhaustive());
    }

    #[test]
    fn zero_cost_variant_is_sound() {
        for seed in 0..10 {
            let aig = random_aig(seed + 1700, 6, 100, 2).cleanup();
            let rsz = resub(&aig, true);
            assert_eq!(rsz.simulate_exhaustive(), aig.simulate_exhaustive());
            assert!(rsz.num_ands() <= aig.num_ands());
        }
    }
}
