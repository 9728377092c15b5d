//! Cone refactoring (ABC `refactor` / `refactor -z`).
//!
//! Where rewriting works on 4-input cuts, refactoring collects a large
//! reconvergence-driven cut (up to 10 leaves), computes its function and
//! resynthesises the whole cone from a factored ISOP — capable of jumps the
//! local 4-cut rewriting cannot make.

use std::collections::HashMap;

use boils_aig::Aig;

use crate::cuts::reconv_cut;
use crate::factor::tt_to_factored_template;
use crate::rebuild::{count_new_nodes, cut_mffc, rebuild_with, Replacement};
use crate::tt::{cone_function_in, Tt, WindowTables};

/// Maximum leaves of the reconvergence-driven cut (ABC defaults to 10; 8
/// keeps the truth-table work four times cheaper at equal behaviour on the
/// cone sizes our benchmarks produce).
const MAX_LEAVES: usize = 8;
const _: () = assert!(MAX_LEAVES <= Tt::MAX_VARS);
/// Cones with an MFFC below this cannot yield positive gain often enough
/// to justify the resynthesis cost.
const MIN_MFFC: usize = 2;

/// Refactors large cones through ISOP factoring.
///
/// With `use_zero_cost = true` (ABC's `refactor -z`), zero-gain cone
/// replacements are also committed to perturb structure.
///
/// ```
/// use boils_aig::Aig;
/// use boils_synth::refactor;
///
/// let mut aig = Aig::new(4);
/// let (a, b, c, d) = (aig.pi(0), aig.pi(1), aig.pi(2), aig.pi(3));
/// // (a & b) | (a & c) | (a & d): factoring shares the `a`.
/// let ab = aig.and(a, b);
/// let ac = aig.and(a, c);
/// let ad = aig.and(a, d);
/// let o1 = aig.or(ab, ac);
/// let o2 = aig.or(o1, ad);
/// aig.add_po(o2);
///
/// let rf = refactor(&aig, false);
/// assert!(rf.num_ands() < aig.num_ands());
/// assert_eq!(rf.simulate_exhaustive(), aig.simulate_exhaustive());
/// ```
pub fn refactor(aig: &Aig, use_zero_cost: bool) -> Aig {
    let aig = aig.cleanup();
    let mut refs = aig.fanout_counts();
    let mut blocked = vec![false; aig.num_nodes()];
    let mut replacements: HashMap<usize, Replacement> = HashMap::new();
    // Arithmetic circuits repeat cone functions massively; caching the
    // synthesised template per truth table is the dominant speedup here.
    let mut cache: HashMap<Tt, Aig> = HashMap::new();
    // Scratch reused across nodes.
    let mut tables = WindowTables::new(aig.num_nodes());
    let mut dying = Vec::new();
    let mut concrete = Vec::new();

    for var in aig.ands() {
        if blocked[var] {
            continue;
        }
        let cut = reconv_cut(&aig, var, MAX_LEAVES);
        if cut.len() < 3 || cut.iter().any(|&l| blocked[l]) {
            continue;
        }
        {
            // Cheap pre-filter: tiny MFFCs cannot pay for a resynthesis.
            let quick_mffc = aig.mffc_size(var, &mut refs);
            if quick_mffc < MIN_MFFC && !use_zero_cost {
                continue;
            }
        }
        let tt = cone_function_in(&aig, var, &cut, &mut tables);
        let template = cache
            .entry(tt)
            .or_insert_with(|| tt_to_factored_template(&tt));
        let saved = cut_mffc(&aig, var, &cut, &mut refs, &mut dying);
        for &d in &dying {
            blocked[d] = true;
        }
        let added = count_new_nodes(&aig, template, &cut, &blocked, &mut concrete);
        for &d in &dying {
            blocked[d] = false;
        }
        let gain = saved as i64 - added as i64;
        if gain > 0 || (use_zero_cost && gain == 0) {
            for &d in &dying {
                blocked[d] = true;
            }
            let template = template.clone();
            replacements.insert(
                var,
                Replacement {
                    leaves: cut,
                    template,
                },
            );
        }
    }
    rebuild_with(&aig, &replacements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;

    #[test]
    fn preserves_function_on_random_aigs() {
        for seed in 0..15 {
            let aig = random_aig(seed + 700, 7, 150, 3);
            let rf = refactor(&aig, false);
            assert_eq!(
                rf.simulate_exhaustive(),
                aig.simulate_exhaustive(),
                "seed {seed}"
            );
            rf.check().unwrap();
        }
    }

    #[test]
    fn never_grows_the_graph() {
        for seed in 0..15 {
            let aig = random_aig(seed + 900, 8, 200, 3).cleanup();
            let rf = refactor(&aig, false);
            assert!(
                rf.num_ands() <= aig.num_ands(),
                "seed {seed}: refactor grew the graph"
            );
        }
    }

    #[test]
    fn zero_cost_variant_is_sound() {
        for seed in 0..10 {
            let aig = random_aig(seed + 1100, 7, 120, 2).cleanup();
            let rfz = refactor(&aig, true);
            assert_eq!(rfz.simulate_exhaustive(), aig.simulate_exhaustive());
            assert!(rfz.num_ands() <= aig.num_ands());
        }
    }
}
