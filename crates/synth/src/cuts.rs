//! Cut computation for the restructuring transforms: bounded k-feasible cut
//! enumeration (rewriting) and reconvergence-driven cuts (refactoring,
//! resubstitution windows).

use std::ops::Deref;

use boils_aig::Aig;

/// A cut's leaf set, sorted ascending and held inline (unused slots are
/// zero, so equality compares the sets).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct CutLeaves {
    ids: [usize; CutLeaves::MAX],
    len: usize,
}

impl CutLeaves {
    /// The most leaves an enumerated cut holds (rewriting's 4-cuts).
    pub(crate) const MAX: usize = 4;

    const EMPTY: CutLeaves = CutLeaves {
        ids: [0; CutLeaves::MAX],
        len: 0,
    };

    fn single(node: usize) -> CutLeaves {
        let mut cut = CutLeaves::EMPTY;
        cut.ids[0] = node;
        cut.len = 1;
        cut
    }
}

impl Deref for CutLeaves {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.ids[..self.len]
    }
}

/// Enumerates up to `max_cuts` k-feasible cuts per node (leaf sets only,
/// sorted ascending; the trivial cut `{node}` is always the first entry).
///
/// # Panics
///
/// Panics if `k > CutLeaves::MAX`.
pub(crate) fn enumerate_cuts(aig: &Aig, k: usize, max_cuts: usize) -> Vec<Vec<CutLeaves>> {
    assert!(
        k <= CutLeaves::MAX,
        "cuts limited to {} leaves",
        CutLeaves::MAX
    );
    let mut cuts: Vec<Vec<CutLeaves>> = vec![Vec::new(); aig.num_nodes()];
    for (var, cut) in cuts.iter_mut().enumerate().take(aig.num_pis() + 1).skip(1) {
        *cut = vec![CutLeaves::single(var)];
    }
    cuts[0] = vec![CutLeaves::EMPTY];
    let mut list: Vec<CutLeaves> = Vec::new();
    for var in aig.ands() {
        let f0 = aig.fanin0(var).var();
        let f1 = aig.fanin1(var).var();
        list.clear();
        list.push(CutLeaves::single(var));
        for c0 in &cuts[f0] {
            for c1 in &cuts[f1] {
                if let Some(merged) = merge_leaves(c0, c1, k) {
                    if !list.contains(&merged) {
                        list.push(merged);
                    }
                }
            }
        }
        // Prefer small cuts; drop dominated ones (supersets of kept cuts).
        list[1..].sort_by_key(|c| c.len());
        let mut kept: Vec<CutLeaves> = Vec::with_capacity(max_cuts + 1);
        kept.push(list[0]);
        'outer: for &c in &list[1..] {
            for prev in kept.iter().skip(1) {
                if is_subset(prev, &c) {
                    continue 'outer;
                }
            }
            kept.push(c);
            if kept.len() > max_cuts {
                break;
            }
        }
        cuts[var] = kept;
    }
    cuts
}

fn merge_leaves(a: &[usize], b: &[usize], k: usize) -> Option<CutLeaves> {
    let mut out = CutLeaves::EMPTY;
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        if out.len == k {
            return None;
        }
        out.ids[out.len] = next;
        out.len += 1;
    }
    Some(out)
}

fn is_subset(small: &[usize], big: &[usize]) -> bool {
    if small.len() > big.len() {
        return false;
    }
    let mut j = 0;
    for &x in small {
        while j < big.len() && big[j] < x {
            j += 1;
        }
        if j == big.len() || big[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Computes a reconvergence-driven cut of `root` with at most `max_leaves`
/// leaves, following ABC's construction: greedily expand the leaf whose
/// expansion adds the fewest new leaves, preferring expansions that shrink
/// the leaf set (reconvergence).
pub(crate) fn reconv_cut(aig: &Aig, root: usize, max_leaves: usize) -> Vec<usize> {
    debug_assert!(aig.is_and(root));
    let mut leaves: Vec<usize> = vec![root];
    loop {
        // Cost of expanding a leaf = (# fanins not already leaves) - 1.
        let mut best: Option<(i32, usize)> = None;
        for (i, &l) in leaves.iter().enumerate() {
            if !aig.is_and(l) {
                continue;
            }
            let (f0, f1) = (aig.fanin0(l).var(), aig.fanin1(l).var());
            let mut added = 0i32;
            if f0 != 0 && !leaves.contains(&f0) {
                added += 1;
            }
            if f1 != 0 && f1 != f0 && !leaves.contains(&f1) {
                added += 1;
            }
            let cost = added - 1;
            if leaves.len() as i32 + cost > max_leaves as i32 {
                continue;
            }
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, i));
            }
        }
        let Some((_, idx)) = best else { break };
        let l = leaves.swap_remove(idx);
        let (f0, f1) = (aig.fanin0(l).var(), aig.fanin1(l).var());
        if f0 != 0 && !leaves.contains(&f0) {
            leaves.push(f0);
        }
        if f1 != 0 && !leaves.contains(&f1) {
            leaves.push(f1);
        }
        if leaves.is_empty() {
            // Root cone is constant; treat the fanins as the leaf set.
            break;
        }
    }
    leaves.sort_unstable();
    leaves
}

/// Collects the nodes strictly inside the cone of `root` above `leaves`
/// (excluding the leaves, including `root`), in topological order.
///
/// # Panics
///
/// Panics if the cone escapes the leaf set (not a valid cut).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn cone_above(aig: &Aig, root: usize, leaves: &[usize]) -> Vec<usize> {
    let mut cone = Vec::new();
    let mut visited = vec![false; aig.num_nodes()];
    fn visit(
        aig: &Aig,
        node: usize,
        leaves: &[usize],
        visited: &mut [bool],
        cone: &mut Vec<usize>,
    ) {
        if visited[node] || leaves.contains(&node) || node == 0 {
            return;
        }
        visited[node] = true;
        assert!(aig.is_and(node), "cone escapes leaves at node {node}");
        visit(aig, aig.fanin0(node).var(), leaves, visited, cone);
        visit(aig, aig.fanin1(node).var(), leaves, visited, cone);
        cone.push(node);
    }
    visit(aig, root, leaves, &mut visited, &mut cone);
    cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;

    #[test]
    fn enumerated_cuts_are_valid() {
        let aig = random_aig(9, 6, 80, 2);
        let cuts = enumerate_cuts(&aig, 4, 8);
        for var in aig.ands() {
            assert!(!cuts[var].is_empty());
            assert_eq!(&cuts[var][0][..], &[var], "first cut must be trivial");
            for cut in &cuts[var][1..] {
                assert!(cut.len() <= 4);
                assert!(cut.windows(2).all(|w| w[0] < w[1]), "unsorted cut");
                // Validity: the cone above the cut must not escape it.
                let cone = cone_above(&aig, var, cut);
                assert!(cone.contains(&var));
            }
        }
    }

    #[test]
    fn reconv_cut_is_a_valid_cut() {
        let aig = random_aig(21, 8, 150, 3);
        for var in aig.ands() {
            let cut = reconv_cut(&aig, var, 8);
            assert!(cut.len() <= 8);
            if cut.is_empty() {
                continue; // constant cone
            }
            let cone = cone_above(&aig, var, &cut);
            assert!(cone.contains(&var));
        }
    }

    #[test]
    fn merge_and_subset_helpers() {
        let merged = merge_leaves(&[1, 3], &[2, 3], 4).expect("fits");
        assert_eq!(&merged[..], &[1, 2, 3]);
        assert_eq!(merge_leaves(&[1, 3], &[2, 4], 3), None);
        assert!(is_subset(&[2, 4], &[1, 2, 3, 4]));
        assert!(!is_subset(&[2, 5], &[1, 2, 3, 4]));
    }

    #[test]
    fn cone_above_respects_leaves() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_po(abc);
        let cone = cone_above(&aig, abc.var(), &[ab.var(), c.var()]);
        assert_eq!(cone, vec![abc.var()]);
        let cone_full = cone_above(&aig, abc.var(), &[a.var(), b.var(), c.var()]);
        assert_eq!(cone_full, vec![ab.var(), abc.var()]);
    }
}
