//! Cuts: small sets of nodes whose functions cover a cone of logic.

use boils_aig::{Aig, INPUT_MASKS};

/// A cut of an AIG node: a set of at most [`Cut::MAX_LEAVES`] leaf nodes
/// such that every path from the inputs to the node passes through a leaf.
///
/// Leaves are kept sorted and inline (unused slots are zero), so a cut is a
/// plain `Copy` value; `signature` is a 64-bit Bloom-style summary used to
/// cheaply pre-filter dominance checks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cut {
    leaves: [u32; Cut::MAX_LEAVES],
    num_leaves: u8,
    pub(crate) signature: u64,
    /// Arrival time of the cut (1 + max leaf arrival).
    pub(crate) delay: u32,
    /// Heuristic area cost (area flow).
    pub(crate) area_flow: f64,
}

impl Cut {
    /// The most leaves a cut holds: the widest LUT the mapper targets.
    pub const MAX_LEAVES: usize = 6;

    /// The empty cut: the constant node's only cut.
    pub(crate) const EMPTY: Cut = Cut {
        leaves: [0; Cut::MAX_LEAVES],
        num_leaves: 0,
        signature: 0,
        delay: 0,
        area_flow: 0.0,
    };

    /// The cut with the given sorted leaves and zero delay and area flow.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`Cut::MAX_LEAVES`] leaves.
    pub(crate) fn from_leaves(leaves: &[u32]) -> Cut {
        let mut cut = Cut::EMPTY;
        cut.leaves[..leaves.len()].copy_from_slice(leaves);
        cut.num_leaves = leaves.len() as u8;
        cut.signature = sig_of_leaves(leaves);
        cut
    }

    /// The trivial cut `{node}`.
    pub(crate) fn trivial(node: u32, arrival: u32) -> Cut {
        Cut {
            delay: arrival,
            ..Cut::from_leaves(&[node])
        }
    }

    /// The cut's leaf nodes, sorted ascending.
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..usize::from(self.num_leaves)]
    }

    /// Merges two cuts' leaf sets into a cut with zero delay and area flow;
    /// `None` if the union exceeds `k` leaves.
    pub(crate) fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        debug_assert!(k <= Cut::MAX_LEAVES);
        let (a, b) = (self.leaves(), other.leaves());
        let mut out = Cut::EMPTY;
        let mut len = 0;
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
            if len == k {
                return None;
            }
            out.leaves[len] = next;
            len += 1;
        }
        out.num_leaves = len as u8;
        out.signature = self.signature | other.signature;
        Some(out)
    }

    /// Whether `self`'s leaves are a subset of `other`'s (dominance).
    pub(crate) fn dominates(&self, other: &Cut) -> bool {
        let (mine, theirs) = (self.leaves(), other.leaves());
        if mine.len() > theirs.len() {
            return false;
        }
        if self.signature & !other.signature != 0 {
            return false;
        }
        let mut j = 0;
        for &l in mine {
            while j < theirs.len() && theirs[j] < l {
                j += 1;
            }
            if j == theirs.len() || theirs[j] != l {
                return false;
            }
        }
        true
    }
}

pub(crate) fn sig_of(node: u32) -> u64 {
    1u64 << (node % 64)
}

pub(crate) fn sig_of_leaves(leaves: &[u32]) -> u64 {
    leaves.iter().fold(0u64, |acc, &l| acc | sig_of(l))
}

/// Computes the truth table of the cone rooted at `root` expressed over the
/// given `leaves` (at most 6, so the table fits one `u64`).
///
/// Bit `p` of the result is the root's value when leaf `i` takes bit `i` of
/// `p`. The `root` may itself be a leaf or a terminal.
///
/// # Panics
///
/// Panics if `leaves.len() > 6` or if the cone reaches a non-leaf terminal
/// (which means `leaves` was not a valid cut of `root`).
pub fn cut_function(aig: &Aig, root: u32, leaves: &[u32]) -> u64 {
    cut_function_in(aig, root, leaves, &mut Vec::new())
}

/// [`cut_function`] memoising the cone's nodes in caller-owned storage,
/// which the mapper reuses across LUTs.
pub(crate) fn cut_function_in(
    aig: &Aig,
    root: u32,
    leaves: &[u32],
    memo: &mut Vec<(u32, u64)>,
) -> u64 {
    assert!(leaves.len() <= 6, "cut function limited to 6 leaves");
    let width = 1usize << leaves.len();
    let full: u64 = if width == 64 { !0 } else { (1u64 << width) - 1 };
    // Local DFS evaluation with memoisation on the cone (a handful of
    // nodes, so a linear scan beats hashing).
    fn eval(aig: &Aig, node: u32, leaves: &[u32], memo: &mut Vec<(u32, u64)>) -> u64 {
        if let Some(pos) = leaves.iter().position(|&l| l == node) {
            return INPUT_MASKS[pos];
        }
        if node == 0 {
            return 0;
        }
        if let Some(&(_, v)) = memo.iter().find(|&&(n, _)| n == node) {
            return v;
        }
        assert!(
            aig.is_and(node as usize),
            "cone of root escapes the cut leaves at node {node}"
        );
        let f0 = aig.fanin0(node as usize);
        let f1 = aig.fanin1(node as usize);
        let mut w0 = eval(aig, f0.var() as u32, leaves, memo);
        if f0.is_complement() {
            w0 = !w0;
        }
        let mut w1 = eval(aig, f1.var() as u32, leaves, memo);
        if f1.is_complement() {
            w1 = !w1;
        }
        let v = w0 & w1;
        memo.push((node, v));
        v
    }
    memo.clear();
    eval(aig, root, leaves, memo) & full
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_respects_limit() {
        let a = Cut::from_leaves(&[1, 2, 3]);
        let b = Cut::from_leaves(&[3, 4, 5]);
        assert_eq!(a.merge(&b, 6), Some(Cut::from_leaves(&[1, 2, 3, 4, 5])));
        assert_eq!(a.merge(&b, 4), None);
        let wide = Cut::from_leaves(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(wide.merge(&a, 6), Some(wide));
        assert_eq!(wide.merge(&Cut::from_leaves(&[2, 7]), 6), None);
    }

    #[test]
    fn dominance_is_subset() {
        let small = Cut::from_leaves(&[1, 3]);
        let big = Cut::from_leaves(&[1, 2, 3]);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small));
        assert_eq!(big.leaves(), &[1, 2, 3]);
    }

    #[test]
    fn cut_function_of_mux() {
        let mut aig = Aig::new(3);
        let (s, t, e) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let m = aig.mux(s, t, e);
        aig.add_po(m);
        let leaves = [s.var() as u32, t.var() as u32, e.var() as u32];
        // `cut_function` computes the function of the *node*; the mux
        // literal may be a complemented edge onto it.
        let node_tt = cut_function(&aig, m.var() as u32, &leaves);
        let tt = if m.is_complement() {
            !node_tt & 0xFF
        } else {
            node_tt
        };
        for p in 0..8u64 {
            let (sv, tv, ev) = (p & 1, p >> 1 & 1, p >> 2 & 1);
            let expect = if sv == 1 { tv } else { ev };
            assert_eq!(tt >> p & 1, expect, "pattern {p}");
        }
    }

    #[test]
    fn cut_function_of_leaf_is_identity() {
        let mut aig = Aig::new(2);
        let a = aig.pi(0);
        let b = aig.pi(1);
        let ab = aig.and(a, b);
        aig.add_po(ab);
        let tt = cut_function(&aig, a.var() as u32, &[a.var() as u32, b.var() as u32]);
        assert_eq!(tt, 0b1010); // projection onto the first leaf
    }
}
