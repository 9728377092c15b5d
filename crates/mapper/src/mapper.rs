//! Priority-cut k-LUT technology mapping.
//!
//! The algorithm follows ABC's `if` mapper: cut enumeration with a bounded
//! priority list per node, a first depth-oriented pass, then area-recovery
//! passes (area flow, then exact local area) constrained by required times
//! so that area optimisation never degrades the achieved depth.

use boils_aig::Aig;

use crate::cut::{cut_function_in, Cut};

/// Configuration of the LUT mapper.
///
/// The defaults mirror the paper's evaluation setting: `lut_size = 6`
/// (ABC `if -K 6`) and two area-recovery passes. The first pass always
/// selects cuts by depth (there is no `if -a` area-first mode), and every
/// node keeps 8 priority cuts, the private constant `CUTS_PER_NODE`.
#[derive(Clone, Debug)]
pub struct MapperConfig {
    /// Maximum LUT input count (`K`), at most [`Cut::MAX_LEAVES`] (6).
    pub lut_size: usize,
    /// Number of area-recovery passes after the depth pass (0, 1 or 2).
    pub area_passes: usize,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            lut_size: 6,
            area_passes: 2,
        }
    }
}

/// Number of priority cuts kept per node (ABC's `if -C 8`).
const CUTS_PER_NODE: usize = 8;

impl MapperConfig {
    /// A configuration with a specific LUT size and default effort.
    ///
    /// # Panics
    ///
    /// Panics if `lut_size` is not in [`LUT_SIZES`].
    pub fn with_lut_size(lut_size: usize) -> MapperConfig {
        assert!(
            LUT_SIZES.contains(&lut_size),
            "lut size must be {LUT_SIZES:?}"
        );
        MapperConfig {
            lut_size,
            ..MapperConfig::default()
        }
    }
}

/// The LUT sizes the mapper supports: 2 up to [`Cut::MAX_LEAVES`] inputs.
pub const LUT_SIZES: std::ops::RangeInclusive<usize> = 2..=Cut::MAX_LEAVES;

/// One LUT of a derived mapping.
#[derive(Clone, Debug)]
pub struct MappedLut {
    /// The AIG node implemented by this LUT.
    pub root: u32,
    /// Leaf nodes (LUT inputs), sorted ascending.
    pub leaves: Vec<u32>,
    /// The LUT's truth table over its leaves (bit `p` = output for minterm
    /// `p`, leaf 0 least significant).
    pub function: u64,
}

/// A complete LUT mapping of an AIG.
#[derive(Clone, Debug)]
pub struct Mapping {
    /// The selected LUTs, in topological order of their roots.
    pub luts: Vec<MappedLut>,
    /// LUT count — the paper's `Area` measure.
    pub area: usize,
    /// LUT-level depth — the paper's `Delay` measure.
    pub delay: u32,
}

/// The two quality numbers ABC's `print_stats` reports after `if -K 6`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapStats {
    /// Number of 6-LUTs (area).
    pub luts: usize,
    /// LUT levels on the critical path (delay).
    pub levels: u32,
}

impl std::fmt::Display for MapStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "nd = {:6}  lev = {:4}", self.luts, self.levels)
    }
}

/// Objective-independent statistics of one synthesised AIG: the mapped
/// quality numbers of [`MapStats`] plus the structural AIG measures. This is
/// the value cached per sequence by the evaluation stack — every
/// optimisation objective is a pure function of these numbers, so switching
/// objectives reuses every cached synthesis result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SynthStats {
    /// Number of `K`-LUTs after mapping (the paper's `Area`).
    pub luts: usize,
    /// LUT levels on the critical path (the paper's `Delay`).
    pub levels: u32,
    /// AND-node count of the synthesised AIG (pre-mapping structure).
    pub aig_nodes: usize,
    /// AND-level depth of the synthesised AIG.
    pub aig_levels: u32,
}

impl SynthStats {
    /// The mapped-quality projection of these statistics.
    pub fn map_stats(&self) -> MapStats {
        MapStats {
            luts: self.luts,
            levels: self.levels,
        }
    }
}

impl std::fmt::Display for SynthStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nd = {:6}  lev = {:4}  and = {:6}  depth = {:4}",
            self.luts, self.levels, self.aig_nodes, self.aig_levels
        )
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Depth,
    AreaFlow,
    ExactArea,
}

/// Maps an AIG onto `K`-input LUTs.
///
/// Returns the selected LUT cover together with its area (LUT count) and
/// delay (LUT levels). Outputs driven by constants or primary inputs need no
/// LUTs and contribute zero delay.
///
/// ```
/// use boils_aig::Aig;
/// use boils_mapper::{map_aig, MapperConfig};
///
/// let mut aig = Aig::new(4);
/// let lits: Vec<_> = (0..4).map(|i| aig.pi(i)).collect();
/// let conj = aig.and_many(&lits);
/// aig.add_po(conj);
///
/// let mapping = map_aig(&aig, &MapperConfig::default());
/// assert_eq!(mapping.area, 1); // a 4-input AND fits one 6-LUT
/// assert_eq!(mapping.delay, 1);
/// ```
pub fn map_aig(aig: &Aig, config: &MapperConfig) -> Mapping {
    Mapper::new(aig, config).run()
}

/// Convenience wrapper returning only the `(area, delay)` statistics.
pub fn map_stats(aig: &Aig, config: &MapperConfig) -> MapStats {
    let mapping = map_aig(aig, config);
    MapStats {
        luts: mapping.area,
        levels: mapping.delay,
    }
}

/// Maps the AIG and augments the mapped statistics with the structural AIG
/// measures — the full cost-function-independent record of one synthesis
/// result (see [`SynthStats`]).
pub fn synth_stats(aig: &Aig, config: &MapperConfig) -> SynthStats {
    let mapped = map_stats(aig, config);
    SynthStats {
        luts: mapped.luts,
        levels: mapped.levels,
        aig_nodes: aig.num_ands(),
        aig_levels: aig.depth(),
    }
}

struct Mapper<'a> {
    aig: &'a Aig,
    config: &'a MapperConfig,
    /// Priority cut list per node.
    cuts: Vec<Vec<Cut>>,
    /// Chosen representative cut per node (index into `cuts`).
    best: Vec<usize>,
    /// Arrival time of each node under the current selection.
    arrival: Vec<u32>,
    /// Arrival achieved by the depth pass (floor for required times).
    depth_arrival: Vec<u32>,
    /// Estimated fanout references used by area flow.
    est_refs: Vec<f64>,
    /// Exact mapping references (leaf usage counts of the derived cover).
    map_refs: Vec<u32>,
    required: Vec<u32>,
}

impl<'a> Mapper<'a> {
    fn new(aig: &'a Aig, config: &'a MapperConfig) -> Mapper<'a> {
        assert!(
            config.lut_size <= Cut::MAX_LEAVES,
            "lut size must be at most {}",
            Cut::MAX_LEAVES
        );
        let n = aig.num_nodes();
        let est_refs = aig
            .fanout_counts()
            .iter()
            .map(|&c| f64::from(c.max(1)))
            .collect();
        // Terminals seed the enumeration: the constant node contributes an
        // empty-leaf cut, every PI its trivial cut.
        let mut cuts = vec![Vec::new(); n];
        cuts[0] = vec![Cut::EMPTY];
        for (var, cut) in cuts.iter_mut().enumerate().take(aig.num_pis() + 1).skip(1) {
            *cut = vec![Cut::trivial(var as u32, 0)];
        }
        Mapper {
            aig,
            config,
            cuts,
            best: vec![0; n],
            arrival: vec![0; n],
            depth_arrival: vec![0; n],
            est_refs,
            map_refs: vec![0; n],
            required: vec![u32::MAX; n],
        }
    }

    fn run(mut self) -> Mapping {
        self.pass(Mode::Depth);
        self.depth_arrival = self.arrival.clone();
        let target = self.current_delay();
        self.update_refs_and_required(target);
        if self.config.area_passes >= 1 {
            self.pass(Mode::AreaFlow);
            self.update_refs_and_required(target);
        }
        if self.config.area_passes >= 2 {
            self.pass(Mode::ExactArea);
            self.update_refs_and_required(target);
        }
        self.derive()
    }

    fn current_delay(&self) -> u32 {
        self.aig
            .pos()
            .iter()
            .map(|po| self.arrival[po.var()])
            .max()
            .unwrap_or(0)
    }

    fn pass(&mut self, mode: Mode) {
        let k = self.config.lut_size;
        let mut candidates: Vec<Cut> = Vec::new();
        for var in self.aig.ands() {
            let f0 = self.aig.fanin0(var).var();
            let f1 = self.aig.fanin1(var).var();
            candidates.clear();
            // Keep the previously selected cut as a candidate: for nodes in
            // the current cover it is guaranteed (inductively) to meet the
            // required time, which makes area recovery delay-safe.
            let selected = self.cuts[var].get(self.best[var]).copied();
            let mut prev_cut: Option<Cut> = None;
            if let Some(prev) = selected {
                if prev.leaves().len() > 1 || prev.leaves()[0] != var as u32 {
                    let rescored = self.score(prev);
                    prev_cut = Some(rescored);
                    candidates.push(rescored);
                }
            }
            for c0 in &self.cuts[f0] {
                for c1 in &self.cuts[f1] {
                    if let Some(merged) = c0.merge(c1, k) {
                        candidates.push(self.score(merged));
                    }
                }
            }
            // Dominance filtering: drop any cut dominated by another. The
            // node's new list reuses its previous list's storage; nothing
            // below reads this node's cuts until the list is stored back.
            let mut kept = std::mem::take(&mut self.cuts[var]);
            kept.clear();
            'outer: for &c in &candidates {
                let mut i = 0;
                while i < kept.len() {
                    if kept[i].dominates(&c) && kept[i].delay <= c.delay {
                        continue 'outer;
                    }
                    if c.dominates(&kept[i]) && c.delay <= kept[i].delay {
                        kept.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
                kept.push(c);
            }
            self.sort_cuts(&mut kept, mode);
            kept.truncate(CUTS_PER_NODE);
            // Select the best admissible cut under the node's required time.
            let required = self.node_required(var);
            // Truncation may have dropped every admissible cut; re-adding
            // the previous selection preserves the delay guarantee.
            if mode != Mode::Depth && !kept.iter().any(|c| c.delay <= required) {
                if let Some(p) = prev_cut {
                    if p.delay <= required {
                        kept.push(p);
                    }
                }
            }
            let mut best = 0;
            if mode != Mode::Depth {
                let mut found = false;
                for (i, c) in kept.iter().enumerate() {
                    if c.delay <= required {
                        best = i;
                        found = true;
                        break;
                    }
                }
                if !found {
                    // Fall back to the fastest cut.
                    best = kept
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, c)| c.delay)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                }
            }
            if mode == Mode::ExactArea && kept.len() > 1 {
                // Exact local area must keep `map_refs` consistent with the
                // evolving selection: deref the old choice, probe, commit
                // the new choice, then re-ref it.
                let was_mapped = self.map_refs[var] > 0;
                if was_mapped {
                    let old = selected.expect("a mapped node has a selected cut");
                    self.deref_leaves(old.leaves());
                }
                let mut best_cost = u32::MAX;
                for (i, c) in kept.iter().enumerate() {
                    if c.delay > required {
                        continue;
                    }
                    let cost = self.probe_cut_area(c.leaves());
                    if cost < best_cost {
                        best_cost = cost;
                        best = i;
                    }
                }
                self.arrival[var] = kept[best].delay;
                kept.push(Cut::trivial(var as u32, self.arrival[var]));
                self.cuts[var] = kept;
                self.best[var] = best;
                if was_mapped {
                    self.ref_cut(var);
                }
                continue;
            }
            self.arrival[var] = kept[best].delay;
            // The trivial cut lets parents treat this node as a leaf.
            kept.push(Cut::trivial(var as u32, self.arrival[var]));
            self.cuts[var] = kept;
            self.best[var] = best;
        }
    }

    /// The cut with its delay and area flow under the current selection.
    fn score(&self, mut cut: Cut) -> Cut {
        let leaves = cut.leaves();
        let delay = 1 + leaves
            .iter()
            .map(|&l| self.arrival[l as usize])
            .max()
            .unwrap_or(0);
        let area_flow = 1.0
            + leaves
                .iter()
                .map(|&l| self.leaf_flow(l as usize))
                .sum::<f64>();
        cut.delay = delay;
        cut.area_flow = area_flow;
        cut
    }

    fn leaf_flow(&self, leaf: usize) -> f64 {
        if !self.aig.is_and(leaf) {
            return 0.0;
        }
        let best = &self.cuts[leaf][self.best[leaf]];
        best.area_flow / self.est_refs[leaf].max(1.0)
    }

    fn sort_cuts(&self, cuts: &mut [Cut], mode: Mode) {
        match mode {
            Mode::Depth => cuts.sort_by(|a, b| {
                a.delay
                    .cmp(&b.delay)
                    .then(a.area_flow.partial_cmp(&b.area_flow).expect("finite flow"))
                    .then(a.leaves().len().cmp(&b.leaves().len()))
            }),
            Mode::AreaFlow | Mode::ExactArea => cuts.sort_by(|a, b| {
                a.area_flow
                    .partial_cmp(&b.area_flow)
                    .expect("finite flow")
                    .then(a.delay.cmp(&b.delay))
                    .then(a.leaves().len().cmp(&b.leaves().len()))
            }),
        }
    }

    fn node_required(&self, var: usize) -> u32 {
        if self.required[var] != u32::MAX {
            self.required[var]
        } else {
            // Unmapped nodes must not regress past their depth-pass arrival,
            // which is always achievable.
            self.depth_arrival[var].max(1)
        }
    }

    /// Counts LUTs that selecting a cut with these leaves would add.
    fn probe_cut_area(&mut self, leaves: &[u32]) -> u32 {
        let added = self.ref_leaves(leaves);
        self.deref_leaves(leaves);
        added + 1
    }

    fn ref_leaves(&mut self, leaves: &[u32]) -> u32 {
        let mut added = 0;
        for &l in leaves {
            let l = l as usize;
            if self.aig.is_and(l) {
                if self.map_refs[l] == 0 {
                    added += 1 + self.ref_cut(l);
                }
                self.map_refs[l] += 1;
            }
        }
        added
    }

    fn deref_leaves(&mut self, leaves: &[u32]) {
        for &l in leaves {
            let l = l as usize;
            if self.aig.is_and(l) {
                self.map_refs[l] -= 1;
                if self.map_refs[l] == 0 {
                    self.deref_cut(l);
                }
            }
        }
    }

    fn ref_cut(&mut self, var: usize) -> u32 {
        let cut = self.cuts[var][self.best[var]];
        self.ref_leaves(cut.leaves())
    }

    fn deref_cut(&mut self, var: usize) {
        let cut = self.cuts[var][self.best[var]];
        self.deref_leaves(cut.leaves());
    }

    /// Derives the cover from the current best cuts, then recomputes mapping
    /// references, estimated references and required times for `target`.
    fn update_refs_and_required(&mut self, target: u32) {
        let cover = self.cover_nodes();
        self.map_refs = vec![0u32; self.aig.num_nodes()];
        for po in self.aig.pos() {
            if self.aig.is_and(po.var()) {
                self.map_refs[po.var()] += 1;
            }
        }
        for &var in &cover {
            for &l in self.cuts[var][self.best[var]].leaves().iter() {
                if self.aig.is_and(l as usize) {
                    self.map_refs[l as usize] += 1;
                }
            }
        }
        // Blend estimated refs toward the observed ones (ABC's heuristic).
        for var in self.aig.ands() {
            let observed = f64::from(self.map_refs[var].max(1));
            self.est_refs[var] = (self.est_refs[var] + 2.0 * observed) / 3.0;
        }
        // Required times over the cover, floored at the achieved target.
        self.required = vec![u32::MAX; self.aig.num_nodes()];
        for po in self.aig.pos() {
            let v = po.var();
            let r = self.required[v].min(target.max(self.arrival[v]));
            self.required[v] = r;
        }
        for &var in cover.iter().rev() {
            let r = self.required[var];
            debug_assert_ne!(r, u32::MAX);
            for &l in self.cuts[var][self.best[var]].leaves().iter() {
                let l = l as usize;
                if self.aig.is_and(l) && r > 0 {
                    self.required[l] = self.required[l].min(r - 1);
                }
            }
        }
    }

    /// The AND nodes used by the current cover, in topological order.
    fn cover_nodes(&self) -> Vec<usize> {
        let mut used = vec![false; self.aig.num_nodes()];
        let mut stack: Vec<usize> = self
            .aig
            .pos()
            .iter()
            .filter(|po| self.aig.is_and(po.var()))
            .map(|po| po.var())
            .collect();
        while let Some(var) = stack.pop() {
            if used[var] {
                continue;
            }
            used[var] = true;
            for &l in self.cuts[var][self.best[var]].leaves().iter() {
                if self.aig.is_and(l as usize) && !used[l as usize] {
                    stack.push(l as usize);
                }
            }
        }
        self.aig.ands().filter(|&v| used[v]).collect()
    }

    fn derive(self) -> Mapping {
        let cover = self.cover_nodes();
        let mut memo = Vec::new();
        let luts: Vec<MappedLut> = cover
            .iter()
            .map(|&var| {
                let leaves = self.cuts[var][self.best[var]].leaves();
                let function = cut_function_in(self.aig, var as u32, leaves, &mut memo);
                MappedLut {
                    root: var as u32,
                    leaves: leaves.to_vec(),
                    function,
                }
            })
            .collect();
        let delay = self.current_delay();
        Mapping {
            area: luts.len(),
            luts,
            delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::{random_aig, Lit};

    #[test]
    fn empty_logic_maps_to_nothing() {
        let mut aig = Aig::new(2);
        let a = aig.pi(0);
        aig.add_po(a);
        aig.add_po(Lit::FALSE);
        let m = map_aig(&aig, &MapperConfig::default());
        assert_eq!(m.area, 0);
        assert_eq!(m.delay, 0);
    }

    #[test]
    fn six_input_and_fits_one_lut() {
        let mut aig = Aig::new(6);
        let lits: Vec<Lit> = (0..6).map(|i| aig.pi(i)).collect();
        let conj = aig.and_many(&lits);
        aig.add_po(conj);
        let m = map_aig(&aig, &MapperConfig::default());
        assert_eq!(m.area, 1);
        assert_eq!(m.delay, 1);
        assert_eq!(m.luts[0].leaves.len(), 6);
        // The LUT function must be the 6-input AND.
        assert_eq!(m.luts[0].function, 1u64 << 63);
    }

    #[test]
    fn seven_input_and_needs_two_luts() {
        let mut aig = Aig::new(7);
        let lits: Vec<Lit> = (0..7).map(|i| aig.pi(i)).collect();
        let conj = aig.and_many(&lits);
        aig.add_po(conj);
        let m = map_aig(&aig, &MapperConfig::default());
        assert_eq!(m.area, 2);
        assert_eq!(m.delay, 2);
    }

    #[test]
    fn synth_stats_agrees_with_map_stats_and_aig_structure() {
        let aig = random_aig(17, 8, 150, 3);
        let config = MapperConfig::default();
        let mapped = map_stats(&aig, &config);
        let stats = synth_stats(&aig, &config);
        assert_eq!(stats.luts, mapped.luts);
        assert_eq!(stats.levels, mapped.levels);
        assert_eq!(stats.aig_nodes, aig.num_ands());
        assert_eq!(stats.aig_levels, aig.depth());
        assert_eq!(stats.map_stats(), mapped);
        assert!(stats.to_string().contains("and ="));
    }

    #[test]
    fn smaller_lut_size_increases_area() {
        let aig = random_aig(13, 8, 120, 3);
        let m6 = map_aig(&aig, &MapperConfig::with_lut_size(6));
        let m3 = map_aig(&aig, &MapperConfig::with_lut_size(3));
        assert!(m3.area >= m6.area, "3-LUT cover cannot beat 6-LUT cover");
    }

    #[test]
    fn area_recovery_never_hurts_delay() {
        for seed in 0..10 {
            let aig = random_aig(seed, 8, 200, 4);
            let depth_only = map_aig(
                &aig,
                &MapperConfig {
                    area_passes: 0,
                    ..MapperConfig::default()
                },
            );
            let full = map_aig(&aig, &MapperConfig::default());
            assert!(
                full.delay <= depth_only.delay,
                "seed {seed}: area recovery worsened delay ({} > {})",
                full.delay,
                depth_only.delay
            );
            assert!(
                full.area <= depth_only.area,
                "seed {seed}: area recovery increased area"
            );
        }
    }

    #[test]
    fn mapping_covers_all_outputs() {
        let aig = random_aig(5, 7, 150, 5);
        let m = map_aig(&aig, &MapperConfig::default());
        let roots: std::collections::HashSet<u32> = m.luts.iter().map(|l| l.root).collect();
        for po in aig.pos() {
            if aig.is_and(po.var()) {
                assert!(roots.contains(&(po.var() as u32)), "uncovered output");
            }
        }
        // Every LUT leaf is either a PI, or the root of another LUT.
        for lut in &m.luts {
            for &leaf in &lut.leaves {
                assert!(
                    !aig.is_and(leaf as usize) || roots.contains(&leaf),
                    "leaf {leaf} is not implemented by any LUT"
                );
            }
        }
    }

    #[test]
    fn lut_functions_evaluate_to_the_circuit() {
        // Evaluate the LUT network on random input patterns and compare to
        // AIG simulation — validates both cover structure and functions.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let aig = random_aig(77, 6, 80, 3);
        let m = map_aig(&aig, &MapperConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let inputs: Vec<bool> = (0..6).map(|_| rng.gen_bool(0.5)).collect();
            let mut value = vec![false; aig.num_nodes()];
            for (i, &b) in inputs.iter().enumerate() {
                value[1 + i] = b;
            }
            for lut in &m.luts {
                let mut minterm = 0usize;
                for (i, &leaf) in lut.leaves.iter().enumerate() {
                    minterm |= (value[leaf as usize] as usize) << i;
                }
                value[lut.root as usize] = lut.function >> minterm & 1 == 1;
            }
            let words: Vec<u64> = inputs.iter().map(|&b| b as u64).collect();
            let expect = aig.simulate(&words);
            for (k, po) in aig.pos().iter().enumerate() {
                let got = value[po.var()] ^ po.is_complement();
                assert_eq!(got, expect[k] & 1 == 1, "output {k} mismatch");
            }
        }
    }
}
