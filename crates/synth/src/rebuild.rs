//! Shared machinery for committing local replacements: pricing a candidate
//! structure against the existing graph and rebuilding the AIG with the
//! accepted replacements spliced in.

use std::collections::HashMap;

use boils_aig::{Aig, Lit};

/// A pending local replacement: re-express the function of one node as a
/// `template` AIG over the given `leaves` (existing node indices).
///
/// The template has exactly `leaves.len()` primary inputs (input `i` stands
/// for node `leaves[i]`) and one primary output.
#[derive(Clone, Debug)]
pub(crate) struct Replacement {
    pub leaves: Vec<usize>,
    pub template: Aig,
}

/// Counts how many genuinely new AND gates instantiating `template` over
/// `leaves` would add, given that `blocked` nodes are pending deletion and
/// cannot be reused. `concrete` is scratch, reused across calls.
pub(crate) fn count_new_nodes(
    aig: &Aig,
    template: &Aig,
    leaves: &[usize],
    blocked: &[bool],
    concrete: &mut Vec<Option<Lit>>,
) -> usize {
    let t = template;
    debug_assert_eq!(t.num_pis(), leaves.len());
    // For each template node, the concrete old-space literal if it resolves
    // to an existing (and reusable) node.
    concrete.clear();
    concrete.resize(t.num_nodes(), None);
    concrete[0] = Some(Lit::FALSE);
    for (i, &leaf) in leaves.iter().enumerate() {
        concrete[1 + i] = Some(Lit::from_var(leaf, false));
    }
    let mut new_nodes = 0;
    for var in t.ands() {
        let (f0, f1) = (t.fanin0(var), t.fanin1(var));
        let c0 = concrete[f0.var()].map(|l| l.xor_complement(f0.is_complement()));
        let c1 = concrete[f1.var()].map(|l| l.xor_complement(f1.is_complement()));
        concrete[var] = match (c0, c1) {
            (Some(a), Some(b)) => match aig.find_and(a, b) {
                Some(l) if l.is_const() || !blocked[l.var()] => Some(l),
                _ => {
                    new_nodes += 1;
                    None
                }
            },
            _ => {
                new_nodes += 1;
                None
            }
        };
    }
    new_nodes
}

/// Number of AND gates in the cone of `root` above `leaves` that die when
/// `root` is replaced (the cut-limited MFFC); the dying node indices are
/// left in `dying`, which is cleared first. `refs` must hold the current
/// fanout counts; it is restored before returning.
pub(crate) fn cut_mffc(
    aig: &Aig,
    root: usize,
    leaves: &[usize],
    refs: &mut [u32],
    dying: &mut Vec<usize>,
) -> usize {
    dying.clear();
    deref(aig, root, leaves, refs, dying);
    // Restore.
    for &v in dying.iter() {
        for f in [aig.fanin0(v).var(), aig.fanin1(v).var()] {
            refs[f] += 1;
        }
    }
    dying.len()
}

fn deref(aig: &Aig, var: usize, leaves: &[usize], refs: &mut [u32], dying: &mut Vec<usize>) {
    dying.push(var);
    for f in [aig.fanin0(var).var(), aig.fanin1(var).var()] {
        refs[f] -= 1;
        if refs[f] == 0 && aig.is_and(f) && !leaves.contains(&f) {
            deref(aig, f, leaves, refs, dying);
        }
    }
}

/// Rebuilds `aig` with the given replacements spliced in, followed by a
/// cleanup pass. Functions of all outputs are preserved **provided** each
/// replacement's template computes the function of the node it replaces.
pub(crate) fn rebuild_with(aig: &Aig, replacements: &HashMap<usize, Replacement>) -> Aig {
    let mut out = Aig::new(aig.num_pis());
    out.set_name(aig.name().to_string());
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for i in 0..aig.num_pis() {
        map[1 + i] = out.pi(i);
    }
    let mut local = Vec::new();
    for var in aig.ands() {
        if let Some(repl) = replacements.get(&var) {
            let inputs = repl.leaves.iter().map(|&l| map[l]);
            map[var] = instantiate(&mut out, &repl.template, inputs, &mut local);
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

/// Splices `template` into `out`, with template input `i` bound to the
/// `i`-th literal of `inputs` (literals of `out`). `local` is scratch,
/// reused across calls.
pub(crate) fn instantiate(
    out: &mut Aig,
    template: &Aig,
    inputs: impl IntoIterator<Item = Lit>,
    local: &mut Vec<Lit>,
) -> Lit {
    let t = template;
    local.clear();
    local.push(Lit::FALSE);
    local.extend(inputs);
    debug_assert_eq!(local.len(), 1 + t.num_pis());
    local.resize(t.num_nodes(), Lit::FALSE);
    for var in t.ands() {
        let (f0, f1) = (t.fanin0(var), t.fanin1(var));
        let a = local[f0.var()].xor_complement(f0.is_complement());
        let b = local[f1.var()].xor_complement(f1.is_complement());
        local[var] = out.and(a, b);
    }
    let po = t.po(0);
    local[po.var()].xor_complement(po.is_complement())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Template computing `!(a & b)` over two leaves.
    fn nand_template() -> Aig {
        let mut t = Aig::new(2);
        let (a, b) = (t.pi(0), t.pi(1));
        let ab = t.and(a, b);
        t.add_po(!ab);
        t
    }

    #[test]
    fn count_reuses_existing_nodes() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let ab = aig.and(a, b);
        aig.add_po(ab);
        let (template, leaves) = (nand_template(), [a.var(), b.var()]);
        let blocked = vec![false; aig.num_nodes()];
        let mut scratch = Vec::new();
        // The AND inside the template already exists → zero new nodes.
        assert_eq!(
            count_new_nodes(&aig, &template, &leaves, &blocked, &mut scratch),
            0
        );
        // If that node is blocked (pending death), it must be re-created.
        let mut blocked2 = blocked.clone();
        blocked2[ab.var()] = true;
        assert_eq!(
            count_new_nodes(&aig, &template, &leaves, &blocked2, &mut scratch),
            1
        );
    }

    #[test]
    fn rebuild_splices_replacement() {
        // Replace or(a, b) (2 gates as AIG? no: 1 gate) — use xor replaced
        // by its own template to validate function preservation.
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let x = aig.xor(a, b);
        aig.add_po(x);
        // Template for xor over [a, b] written differently.
        let mut t = Aig::new(2);
        let (ta, tb) = (t.pi(0), t.pi(1));
        let left = t.and(ta, !tb);
        let right = t.and(!ta, tb);
        let out = t.or(left, right);
        t.add_po(out);
        let mut replacements = HashMap::new();
        replacements.insert(
            x.var(),
            Replacement {
                leaves: vec![a.var(), b.var()],
                template: t,
            },
        );
        let rebuilt = rebuild_with(&aig, &replacements);
        assert_eq!(rebuilt.simulate_exhaustive(), aig.simulate_exhaustive());
        rebuilt.check().unwrap();
    }

    #[test]
    fn cut_mffc_stops_at_leaves() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_po(abc);
        let mut refs = aig.fanout_counts();
        let mut dying = Vec::new();
        // Cut at leaves {ab, c}: only `abc` dies.
        let count = cut_mffc(&aig, abc.var(), &[ab.var(), c.var()], &mut refs, &mut dying);
        assert_eq!(count, 1);
        assert_eq!(dying, vec![abc.var()]);
        // Cut at the inputs: both gates die.
        let leaves = [a.var(), b.var(), c.var()];
        let count2 = cut_mffc(&aig, abc.var(), &leaves, &mut refs, &mut dying);
        assert_eq!(count2, 2);
        assert_eq!(refs, aig.fanout_counts());
    }
}
