//! DAG-aware cut rewriting (ABC `rewrite` / `rewrite -z`).
//!
//! For every AND node, 4-feasible cuts are enumerated, the cut function is
//! resynthesised from its ISOP factorisation, and the candidate structure is
//! priced against the existing graph: `gain = (gates the old cone frees) −
//! (genuinely new gates the candidate adds)`. Replacements with positive
//! gain (non-negative with `-z`) are committed in one rebuild pass.

use std::collections::HashMap;

use boils_aig::Aig;

use crate::cuts::{enumerate_cuts, CutLeaves};
use crate::factor::{tt_to_dsd_template, tt_to_factored_template};
use crate::rebuild::{count_new_nodes, cut_mffc, rebuild_with, Replacement};
use crate::tt::{cone_function_in, Tt, WindowTables};

/// Rewrites 4-input cuts with factored ISOP structures.
///
/// With `use_zero_cost = true` (ABC's `rewrite -z`), replacements that
/// neither grow nor shrink the graph are also committed — useless on their
/// own but frequently unlocking later optimisations by changing structure.
///
/// ```
/// use boils_aig::Aig;
/// use boils_synth::rewrite;
///
/// // A redundantly built xor-of-xor: rewriting shrinks it.
/// let mut aig = Aig::new(3);
/// let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
/// let ab = aig.xor(a, b);
/// let abc = aig.xor(ab, c);
/// let dup = aig.and(abc, abc); // strash removes the duplication already
/// aig.add_po(dup);
///
/// let rewritten = rewrite(&aig, false);
/// assert!(rewritten.num_ands() <= aig.num_ands());
/// assert_eq!(rewritten.simulate_exhaustive(), aig.simulate_exhaustive());
/// ```
pub fn rewrite(aig: &Aig, use_zero_cost: bool) -> Aig {
    let aig = aig.cleanup();
    let mut refs = aig.fanout_counts();
    let cuts = enumerate_cuts(&aig, CutLeaves::MAX, 8);
    let mut blocked = vec![false; aig.num_nodes()];
    let mut replacements: HashMap<usize, Replacement> = HashMap::new();
    // Two candidate structures per function: ISOP-factored and DSD-peeled.
    // The cheaper one in context (structural reuse differs!) wins, loosely
    // mirroring ABC's choice among precomputed NPN structures.
    let mut cache: HashMap<Tt, [Aig; 2]> = HashMap::new();
    // Scratch reused across cuts.
    let mut tables = WindowTables::new(aig.num_nodes());
    let mut dying = Vec::new();
    let mut best_dying = Vec::new();
    let mut concrete = Vec::new();

    for var in aig.ands() {
        if blocked[var] {
            continue;
        }
        // The best candidate so far: its gain, cut, function and template.
        let mut best: Option<(i64, &[usize], Tt, usize)> = None;
        for cut in cuts[var].iter().skip(1) {
            if cut.len() < 2 || cut.iter().any(|&l| blocked[l]) {
                continue;
            }
            let tt = cone_function_in(&aig, var, cut, &mut tables);
            let templates = cache
                .entry(tt)
                .or_insert_with(|| [tt_to_factored_template(&tt), tt_to_dsd_template(&tt)]);
            let saved = cut_mffc(&aig, var, cut, &mut refs, &mut dying);
            // Nodes about to die cannot be reused by the new structure.
            for &d in &dying {
                blocked[d] = true;
            }
            for (which, template) in templates.iter().enumerate() {
                let added = count_new_nodes(&aig, template, cut, &blocked, &mut concrete);
                let gain = saved as i64 - added as i64;
                if best.is_none_or(|(g, ..)| gain > g) {
                    best = Some((gain, cut, tt, which));
                    best_dying.clone_from(&dying);
                }
            }
            for &d in &dying {
                blocked[d] = false;
            }
        }
        if let Some((gain, cut, tt, which)) = best {
            if gain > 0 || (use_zero_cost && gain == 0) {
                for &d in &best_dying {
                    blocked[d] = true;
                }
                let template = cache[&tt][which].clone();
                replacements.insert(
                    var,
                    Replacement {
                        leaves: cut.to_vec(),
                        template,
                    },
                );
            }
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
            let aig = random_aig(seed + 100, 7, 150, 3);
            let rw = rewrite(&aig, false);
            assert_eq!(
                rw.simulate_exhaustive(),
                aig.simulate_exhaustive(),
                "seed {seed}"
            );
            rw.check().unwrap();
        }
    }

    #[test]
    fn never_grows_the_graph() {
        for seed in 0..15 {
            let aig = random_aig(seed + 300, 8, 200, 3).cleanup();
            let rw = rewrite(&aig, false);
            assert!(
                rw.num_ands() <= aig.num_ands(),
                "seed {seed}: rewrite grew {} -> {}",
                aig.num_ands(),
                rw.num_ands()
            );
        }
    }

    #[test]
    fn zero_cost_variant_preserves_function_and_size() {
        for seed in 0..10 {
            let aig = random_aig(seed + 500, 7, 120, 2).cleanup();
            let rwz = rewrite(&aig, true);
            assert_eq!(rwz.simulate_exhaustive(), aig.simulate_exhaustive());
            assert!(rwz.num_ands() <= aig.num_ands());
        }
    }

    #[test]
    fn shrinks_known_redundancy() {
        // mux(s, a, a) should collapse toward `a`.
        let mut aig = Aig::new(2);
        let (s, a) = (aig.pi(0), aig.pi(1));
        let sa = aig.and(s, a);
        let nsa = aig.and(!s, a);
        let m = aig.or(sa, nsa); // = a
        aig.add_po(m);
        let rw = rewrite(&aig, false);
        assert!(rw.num_ands() < aig.num_ands());
        assert_eq!(rw.simulate_exhaustive(), aig.simulate_exhaustive());
    }
}
