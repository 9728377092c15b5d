//! Mapping-based rebalancing transforms (ABC's `&sopb`, `&blut`, `&dsdb`).
//!
//! All three share one pipeline: map the AIG onto 6-LUTs, then rebuild the
//! AIG by resynthesising every LUT function — with a balanced two-level SOP
//! (`sopb`), a Shannon/mux decomposition (`blut`), or a disjoint-support
//! peeling decomposition (`dsdb`). The different decompositions produce
//! different structures, giving downstream transforms new opportunities.

use std::collections::HashMap;

use boils_aig::{Aig, Lit};
use boils_mapper::{map_aig, MapperConfig};

use crate::factor::{tt_to_dsd_template, tt_to_shannon_template, tt_to_sop_template};
use crate::rebuild::instantiate;
use crate::tt::Tt;

/// SOP balancing: rebuild every mapped 6-LUT as a balanced two-level
/// AND-OR structure from its irredundant SOP.
///
/// ```
/// use boils_aig::Aig;
/// use boils_synth::sop_balance;
///
/// let mut aig = Aig::new(4);
/// let mut acc = aig.pi(0);
/// for i in 1..4 {
///     let p = aig.pi(i);
///     acc = aig.xor(acc, p);
/// }
/// aig.add_po(acc);
/// let balanced = sop_balance(&aig);
/// assert_eq!(balanced.simulate_exhaustive(), aig.simulate_exhaustive());
/// ```
pub fn sop_balance(aig: &Aig) -> Aig {
    rebuild_via_mapping(aig, tt_to_sop_template)
}

/// LUT balancing: rebuild every mapped 6-LUT with a Shannon (mux)
/// decomposition on the support-minimising variable order.
pub fn blut_balance(aig: &Aig) -> Aig {
    rebuild_via_mapping(aig, tt_to_shannon_template)
}

/// DSD balancing: rebuild every mapped 6-LUT from a disjoint-support-style
/// decomposition (peeling AND/OR/XOR single-variable factors).
pub fn dsd_balance(aig: &Aig) -> Aig {
    rebuild_via_mapping(aig, tt_to_dsd_template)
}

/// Bound on the area cost the balancing transforms may pay: results larger
/// than this fraction of the input (even after a rewrite recovery pass) are
/// rejected in favour of the input, mirroring how ABC's `&`-commands trade
/// at most a mild area increase for depth.
const MAX_GROWTH_NUM: usize = 3;
const MAX_GROWTH_DEN: usize = 2;

fn rebuild_via_mapping(aig: &Aig, builder: fn(&Tt) -> Aig) -> Aig {
    let input = aig.cleanup();
    let out = rebuild_unguarded(&input, builder);
    let limit = input.num_ands() * MAX_GROWTH_NUM / MAX_GROWTH_DEN;
    if out.num_ands() <= limit {
        return out;
    }
    // The two-level forms duplicate logic that rewriting recovers cheaply.
    let recovered = crate::rewrite::rewrite(&out, false);
    if recovered.num_ands() <= limit {
        recovered
    } else {
        // Still too costly: keep the depth improvement only if free.
        input
    }
}

fn rebuild_unguarded(aig: &Aig, builder: fn(&Tt) -> Aig) -> Aig {
    let aig = aig.cleanup();
    // A 4-LUT cover keeps the per-LUT functions small enough that the
    // two-level / Shannon / DSD reconstructions stay near the original
    // size, mirroring the moderate restructuring of ABC's `&`-commands
    // (6-input covers produce 32-cube SOPs and blow the graph up).
    let mapping = map_aig(&aig, &MapperConfig::with_lut_size(4));
    let mut out = Aig::new(aig.num_pis());
    out.set_name(aig.name().to_string());
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for i in 0..aig.num_pis() {
        map[1 + i] = out.pi(i);
    }
    // LUT functions repeat across the cover: build each template once.
    let mut templates: HashMap<Tt, Aig> = HashMap::new();
    let mut local = Vec::new();
    // LUT roots come out of the mapper in topological order, so leaves are
    // always mapped before their root.
    for lut in &mapping.luts {
        let tt = Tt::from_u64(lut.leaves.len(), lut.function);
        let template = templates.entry(tt).or_insert_with(|| builder(&tt));
        let inputs = lut.leaves.iter().map(|&l| map[l as usize]);
        map[lut.root as usize] = instantiate(&mut out, template, inputs, &mut local);
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
    fn all_three_preserve_function() {
        for seed in 0..10 {
            let aig = random_aig(seed + 2300, 7, 150, 3);
            let expect = aig.simulate_exhaustive();
            for (name, f) in [
                ("sopb", sop_balance as fn(&Aig) -> Aig),
                ("blut", blut_balance),
                ("dsdb", dsd_balance),
            ] {
                let t = f(&aig);
                assert_eq!(t.simulate_exhaustive(), expect, "{name} seed {seed}");
                t.check().unwrap();
            }
        }
    }

    #[test]
    fn produce_different_structures() {
        // The three decompositions should not all coincide in general.
        let aig = random_aig(42, 8, 300, 4);
        let a = sop_balance(&aig);
        let b = blut_balance(&aig);
        let c = dsd_balance(&aig);
        let sizes = [a.num_ands(), b.num_ands(), c.num_ands()];
        assert!(
            sizes.iter().collect::<std::collections::HashSet<_>>().len() > 1
                || a.depth() != b.depth()
                || b.depth() != c.depth(),
            "expected structural diversity, got identical sizes {sizes:?}"
        );
    }

    #[test]
    fn balancing_helps_deep_redundant_logic() {
        // A deep chain of xors: mapping-based rebuilds shorten it.
        let mut aig = Aig::new(12);
        let mut acc = aig.pi(0);
        for i in 1..12 {
            let p = aig.pi(i);
            acc = aig.xor(acc, p);
        }
        aig.add_po(acc);
        let s = sop_balance(&aig);
        assert!(s.depth() <= aig.depth());
        assert_eq!(s.simulate_exhaustive(), aig.simulate_exhaustive());
    }
}
