//! The And-Inverter Graph container.

use std::collections::HashMap;
use std::fmt;

use crate::error::CheckAigError;
use crate::Lit;

/// One AIG node: a two-input AND gate or a terminal (constant / primary input).
///
/// Terminals store `Lit::FALSE` in both fanin slots; they are distinguished
/// from gates by their index (`0` is the constant, `1..=num_pis` are inputs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Node {
    pub(crate) fanin0: Lit,
    pub(crate) fanin1: Lit,
}

/// A combinational And-Inverter Graph.
///
/// Nodes live in a single arena and are always topologically ordered: a
/// gate's fanins have strictly smaller indices. Node `0` is the constant
/// false, nodes `1..=num_pis` are the primary inputs, and every following
/// node is a two-input AND. Edges ([`Lit`]) may be complemented, which is how
/// all inversion is expressed.
///
/// Construction goes through [`Aig::and`] (and the derived gate builders),
/// which performs constant propagation, trivial-case simplification and
/// structural hashing, so the graph never contains syntactically duplicated
/// gates.
///
/// ```
/// use boils_aig::Aig;
///
/// // f = (a & b) | c, as an AIG (one OR = AND + three complements).
/// let mut aig = Aig::new(3);
/// let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
/// let ab = aig.and(a, b);
/// let f = aig.or(ab, c);
/// aig.add_po(f);
///
/// assert_eq!(aig.num_ands(), 2);
/// // 0b…abc input ordering: simulate all four (a,b,c) = (1,1,0) → true, …
/// assert_eq!(aig.simulate(&[0b1100, 0b1010, 0b0001]), vec![0b1001]);
/// ```
#[derive(Clone)]
pub struct Aig {
    nodes: Vec<Node>,
    num_pis: usize,
    pos: Vec<Lit>,
    strash: HashMap<(u32, u32), u32>,
    name: String,
}

impl Aig {
    /// Creates an empty AIG with `num_pis` primary inputs and no outputs.
    pub fn new(num_pis: usize) -> Aig {
        let mut nodes = Vec::with_capacity(num_pis + 1);
        let terminal = Node {
            fanin0: Lit::FALSE,
            fanin1: Lit::FALSE,
        };
        nodes.resize(num_pis + 1, terminal);
        Aig {
            nodes,
            num_pis,
            pos: Vec::new(),
            strash: HashMap::new(),
            name: String::new(),
        }
    }

    /// A human-readable circuit name (empty by default).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the circuit name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The number of primary inputs.
    #[inline]
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// The number of primary outputs.
    #[inline]
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// The number of AND gates currently in the arena.
    ///
    /// This is the standard "size" measure of an AIG (ABC's `and` count).
    #[inline]
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.num_pis
    }

    /// Total number of nodes including the constant and the inputs.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The literal of the `index`-th primary input (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_pis`.
    #[inline]
    pub fn pi(&self, index: usize) -> Lit {
        assert!(index < self.num_pis, "pi index {index} out of range");
        Lit::from_var(1 + index, false)
    }

    /// The literal driving the `index`-th primary output.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_pos`.
    #[inline]
    pub fn po(&self, index: usize) -> Lit {
        self.pos[index]
    }

    /// All primary-output driver literals, in order.
    #[inline]
    pub fn pos(&self) -> &[Lit] {
        &self.pos
    }

    /// Registers a new primary output driven by `lit` and returns its index.
    pub fn add_po(&mut self, lit: Lit) -> usize {
        debug_assert!(lit.var() < self.nodes.len());
        self.pos.push(lit);
        self.pos.len() - 1
    }

    /// Replaces the driver of output `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_po(&mut self, index: usize, lit: Lit) {
        debug_assert!(lit.var() < self.nodes.len());
        self.pos[index] = lit;
    }

    /// Whether node `var` is a primary input.
    #[inline]
    pub fn is_pi(&self, var: usize) -> bool {
        var >= 1 && var <= self.num_pis
    }

    /// Whether node `var` is an AND gate.
    #[inline]
    pub fn is_and(&self, var: usize) -> bool {
        var > self.num_pis && var < self.nodes.len()
    }

    /// First fanin of AND node `var`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `var` is not an AND gate.
    #[inline]
    pub fn fanin0(&self, var: usize) -> Lit {
        debug_assert!(self.is_and(var));
        self.nodes[var].fanin0
    }

    /// Second fanin of AND node `var`.
    #[inline]
    pub fn fanin1(&self, var: usize) -> Lit {
        debug_assert!(self.is_and(var));
        self.nodes[var].fanin1
    }

    /// Iterates over the indices of all AND gates in topological order.
    pub fn ands(&self) -> std::ops::Range<usize> {
        (self.num_pis + 1)..self.nodes.len()
    }

    /// Builds the AND of two literals.
    ///
    /// Applies the usual structural simplifications (`x & x = x`,
    /// `x & !x = 0`, constant folding) and structural hashing, so the result
    /// may be an existing node or even a constant.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant and trivial-case folding.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        // Canonical fanin order for hashing.
        let (f0, f1) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        let key = (f0.raw(), f1.raw());
        if let Some(&var) = self.strash.get(&key) {
            return Lit::from_var(var as usize, false);
        }
        let var = self.nodes.len() as u32;
        self.nodes.push(Node {
            fanin0: f0,
            fanin1: f1,
        });
        self.strash.insert(key, var);
        Lit::from_var(var as usize, false)
    }

    /// Looks up the AND of two literals without creating it.
    ///
    /// Applies the same simplification rules as [`Aig::and`]; returns
    /// `Some` if the result is a constant, an operand, or an existing node,
    /// and `None` if building it would create a new gate. Used by rewriting
    /// to price candidate structures before committing them.
    pub fn find_and(&self, a: Lit, b: Lit) -> Option<Lit> {
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Some(Lit::FALSE);
        }
        if a == Lit::TRUE {
            return Some(b);
        }
        if b == Lit::TRUE || a == b {
            return Some(a);
        }
        let (f0, f1) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        self.strash
            .get(&(f0.raw(), f1.raw()))
            .map(|&var| Lit::from_var(var as usize, false))
    }

    /// Builds the OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Builds the NOR of two literals.
    pub fn nor(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(!a, !b)
    }

    /// Builds the XOR of two literals (two AND gates plus sharing).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let nab = self.and(a, b);
        let nanb = self.and(!a, !b);
        self.nor(nab, nanb)
    }

    /// Builds the XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Builds a 2:1 multiplexer: `sel ? then_branch : else_branch`.
    pub fn mux(&mut self, sel: Lit, then_branch: Lit, else_branch: Lit) -> Lit {
        let t = self.and(sel, then_branch);
        let e = self.and(!sel, else_branch);
        self.or(t, e)
    }

    /// Builds a 3-input majority gate (the carry function of a full adder).
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let or1 = self.or(ab, ac);
        self.or(or1, bc)
    }

    /// Builds the AND over an arbitrary collection of literals as a balanced
    /// tree, returning `Lit::TRUE` for an empty collection.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => Lit::TRUE,
            1 => lits[0],
            _ => {
                let mut layer: Vec<Lit> = lits.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(if pair.len() == 2 {
                            self.and(pair[0], pair[1])
                        } else {
                            pair[0]
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Builds the OR over an arbitrary collection of literals as a balanced
    /// tree, returning `Lit::FALSE` for an empty collection.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let inverted: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        !self.and_many(&inverted)
    }

    /// Computes the level (depth from the inputs) of every node.
    ///
    /// Terminals have level 0; an AND gate is one level above its deepest
    /// fanin. Inverters are free, matching ABC's level model.
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.nodes.len()];
        for var in self.ands() {
            let l0 = level[self.nodes[var].fanin0.var()];
            let l1 = level[self.nodes[var].fanin1.var()];
            level[var] = 1 + l0.max(l1);
        }
        level
    }

    /// The logic depth: the largest level among the output drivers.
    pub fn depth(&self) -> u32 {
        let level = self.levels();
        self.pos.iter().map(|po| level[po.var()]).max().unwrap_or(0)
    }

    /// Counts fanouts of every node (edges from AND fanins plus outputs).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for var in self.ands() {
            counts[self.nodes[var].fanin0.var()] += 1;
            counts[self.nodes[var].fanin1.var()] += 1;
        }
        for po in &self.pos {
            counts[po.var()] += 1;
        }
        counts
    }

    /// Removes dangling gates (gates not reachable from any output) and
    /// compacts the arena. Input and output order is preserved; the function
    /// of every output is unchanged.
    pub fn cleanup(&self) -> Aig {
        let mut reachable = vec![false; self.nodes.len()];
        reachable[..=self.num_pis].fill(true);
        // Mark transitive fanin of each PO. Arena order lets us do a single
        // reverse pass instead of an explicit DFS.
        let mut on_path = vec![false; self.nodes.len()];
        for po in &self.pos {
            on_path[po.var()] = true;
        }
        for var in self.ands().rev() {
            if on_path[var] {
                on_path[self.nodes[var].fanin0.var()] = true;
                on_path[self.nodes[var].fanin1.var()] = true;
            }
        }
        let mut out = Aig::new(self.num_pis);
        out.name = self.name.clone();
        let mut map: Vec<Lit> = vec![Lit::FALSE; self.nodes.len()];
        for (var, lit) in map.iter_mut().enumerate().take(self.num_pis + 1).skip(1) {
            *lit = Lit::from_var(var, false);
        }
        for var in self.ands() {
            if on_path[var] && !reachable[var] {
                let f0 = self.nodes[var].fanin0;
                let f1 = self.nodes[var].fanin1;
                let a = map[f0.var()].xor_complement(f0.is_complement());
                let b = map[f1.var()].xor_complement(f1.is_complement());
                map[var] = out.and(a, b);
            }
        }
        for po in &self.pos {
            let lit = map[po.var()].xor_complement(po.is_complement());
            out.add_po(lit);
        }
        out
    }

    /// Simulates the AIG on one 64-bit pattern word per input, returning one
    /// word per output. Bit `i` of each word is an independent pattern.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != num_pis`.
    pub fn simulate(&self, pi_words: &[u64]) -> Vec<u64> {
        assert_eq!(pi_words.len(), self.num_pis, "one word per input required");
        let mut words = vec![0u64; self.nodes.len()];
        words[1..=self.num_pis].copy_from_slice(pi_words);
        for var in self.ands() {
            let n = self.nodes[var];
            let w0 = words[n.fanin0.var()] ^ mask(n.fanin0);
            let w1 = words[n.fanin1.var()] ^ mask(n.fanin1);
            words[var] = w0 & w1;
        }
        self.pos
            .iter()
            .map(|po| words[po.var()] ^ mask(*po))
            .collect()
    }

    /// Simulates every node on multi-word patterns; returns the full node
    /// table (`words_per_node` u64 words per node). Used by fraiging and
    /// resubstitution, which need signatures for internal nodes.
    ///
    /// Thin wrapper over the flat [`crate::SimTable`] (one allocation for
    /// the whole table); callers that re-simulate incrementally should use
    /// `SimTable` directly.
    ///
    /// # Panics
    ///
    /// Panics if any input row has a length different from `words_per_node`.
    pub fn simulate_nodes(&self, pi_words: &[Vec<u64>], words_per_node: usize) -> Vec<Vec<u64>> {
        let table = crate::SimTable::from_patterns(self, pi_words, words_per_node);
        (0..self.num_nodes())
            .map(|v| table.row(v).to_vec())
            .collect()
    }

    /// Exhaustively simulates all `2^num_pis` input combinations, returning
    /// the truth table of every output as packed 64-bit words (bit `i` is the
    /// output under the input assignment with binary encoding `i`, input 0
    /// being the least significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `num_pis > 20` (the table would exceed a million bits).
    pub fn simulate_exhaustive(&self) -> Vec<Vec<u64>> {
        assert!(
            self.num_pis <= 20,
            "exhaustive simulation limited to 20 inputs"
        );
        let bits = 1usize << self.num_pis;
        let words = bits.div_ceil(64);
        let pi_words: Vec<Vec<u64>> = (0..self.num_pis).map(|i| input_pattern(i, words)).collect();
        let table = self.simulate_nodes(&pi_words, words);
        self.pos
            .iter()
            .map(|po| {
                let mut row = table[po.var()].clone();
                if po.is_complement() {
                    for w in &mut row {
                        *w = !*w;
                    }
                }
                if bits < 64 {
                    row[0] &= (1u64 << bits) - 1;
                } else if !bits.is_multiple_of(64) {
                    let last = row.len() - 1;
                    row[last] &= (1u64 << (bits % 64)) - 1;
                }
                row
            })
            .collect()
    }

    /// Verifies structural invariants: topological fanins, in-range outputs
    /// and the absence of duplicate gates.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check(&self) -> Result<(), CheckAigError> {
        for var in self.ands() {
            let n = self.nodes[var];
            for fanin in [n.fanin0.var(), n.fanin1.var()] {
                if fanin >= var {
                    return Err(CheckAigError::NotTopological { node: var, fanin });
                }
            }
        }
        for (i, po) in self.pos.iter().enumerate() {
            if po.var() >= self.nodes.len() {
                return Err(CheckAigError::DanglingOutput {
                    output: i,
                    var: po.var(),
                });
            }
        }
        let mut seen: HashMap<(u32, u32), usize> = HashMap::new();
        for var in self.ands() {
            let n = self.nodes[var];
            let key = (n.fanin0.raw(), n.fanin1.raw());
            if let Some(&first) = seen.get(&key) {
                return Err(CheckAigError::DuplicateAnd { first, second: var });
            }
            seen.insert(key, var);
        }
        Ok(())
    }

    /// Size of the maximum fanout-free cone of `root` — the number of AND
    /// gates that would become dangling if `root` were removed.
    ///
    /// `refs` must be the current fanout counts (see [`Aig::fanout_counts`]);
    /// it is restored before returning.
    pub fn mffc_size(&self, root: usize, refs: &mut [u32]) -> usize {
        if !self.is_and(root) {
            return 0;
        }
        let count = self.deref_mffc(root, refs);
        self.ref_mffc(root, refs);
        count
    }

    fn deref_mffc(&self, var: usize, refs: &mut [u32]) -> usize {
        let mut count = 1;
        for fanin in [self.nodes[var].fanin0.var(), self.nodes[var].fanin1.var()] {
            refs[fanin] -= 1;
            if refs[fanin] == 0 && self.is_and(fanin) {
                count += self.deref_mffc(fanin, refs);
            }
        }
        count
    }

    fn ref_mffc(&self, var: usize, refs: &mut [u32]) {
        for fanin in [self.nodes[var].fanin0.var(), self.nodes[var].fanin1.var()] {
            if refs[fanin] == 0 && self.is_and(fanin) {
                self.ref_mffc(fanin, refs);
            }
            refs[fanin] += 1;
        }
    }

    /// A deterministic 64-bit hash of the graph's structure: input count,
    /// every AND gate's fanin literals in arena order, and the output
    /// drivers. Structurally identical AIGs (up to the name, which is
    /// excluded) always hash equally; distinct structures collide only
    /// with the ~2⁻⁶⁴ probability a 64-bit hash allows. The hash is
    /// stable across processes and platforms, so it can key persistent
    /// caches — see `boils_core::prefix::PersistentPrefixStore`.
    pub fn content_hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(16 * (self.num_ands() + self.pos.len() + 2));
        bytes.extend_from_slice(&(self.num_pis as u64).to_le_bytes());
        for var in self.ands() {
            bytes.extend_from_slice(&u64::from(self.nodes[var].fanin0.raw()).to_le_bytes());
            bytes.extend_from_slice(&u64::from(self.nodes[var].fanin1.raw()).to_le_bytes());
        }
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // gates/outputs separator
        for po in &self.pos {
            bytes.extend_from_slice(&u64::from(po.raw()).to_le_bytes());
        }
        crate::splitmix64(crate::fnv1a64(&bytes))
    }

    /// Collects the transitive fanin cone of `roots` (indices of all AND
    /// gates and inputs feeding them), in topological order.
    pub fn cone(&self, roots: &[usize]) -> Vec<usize> {
        let mut in_cone = vec![false; self.nodes.len()];
        for &r in roots {
            in_cone[r] = true;
        }
        for var in self.ands().rev() {
            if in_cone[var] {
                in_cone[self.nodes[var].fanin0.var()] = true;
                in_cone[self.nodes[var].fanin1.var()] = true;
            }
        }
        (0..self.nodes.len())
            .filter(|&v| in_cone[v] && v != 0)
            .collect()
    }
}

#[inline]
fn mask(lit: Lit) -> u64 {
    if lit.is_complement() {
        !0u64
    } else {
        0u64
    }
}

/// The canonical exhaustive-simulation patterns of inputs `0..6` within
/// one 64-bit word: bit `p` of `INPUT_MASKS[i]` is bit `i` of `p`.
pub const INPUT_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The canonical exhaustive-simulation pattern of input `index`, packed into
/// `words` 64-bit words (bit `p` of the pattern is bit `index` of `p`).
pub fn input_pattern(index: usize, words: usize) -> Vec<u64> {
    (0..words)
        .map(|w| {
            if index < 6 {
                INPUT_MASKS[index]
            } else if w >> (index - 6) & 1 == 1 {
                !0u64
            } else {
                0u64
            }
        })
        .collect()
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Aig {{ name: {:?}, pis: {}, pos: {}, ands: {}, depth: {} }}",
            self.name,
            self.num_pis,
            self.pos.len(),
            self.num_ands(),
            self.depth()
        )?;
        for var in self.ands() {
            writeln!(
                f,
                "  n{} = {:?} & {:?}",
                var, self.nodes[var].fanin0, self.nodes[var].fanin1
            )?;
        }
        for (i, po) in self.pos.iter().enumerate() {
            writeln!(f, "  po{} = {:?}", i, po)?;
        }
        Ok(())
    }
}

impl fmt::Display for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: i/o = {}/{}, and = {}, lev = {}",
            if self.name.is_empty() {
                "aig"
            } else {
                &self.name
            },
            self.num_pis,
            self.pos.len(),
            self.num_ands(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_aig() -> Aig {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let x = aig.xor(a, b);
        aig.add_po(x);
        aig
    }

    #[test]
    fn and_constant_folding() {
        let mut aig = Aig::new(2);
        let a = aig.pi(0);
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let x = aig.and(a, b);
        let y = aig.and(b, a);
        assert_eq!(x, y);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn xor_simulates_correctly() {
        let aig = xor_aig();
        // a = 0101..., b = 0011... → xor = 0110...
        let out = aig.simulate(&[0b0101, 0b0011]);
        assert_eq!(out[0] & 0xF, 0b0110);
    }

    #[test]
    fn exhaustive_truth_table_of_xor() {
        let aig = xor_aig();
        let tts = aig.simulate_exhaustive();
        assert_eq!(tts[0][0], 0b0110);
    }

    #[test]
    fn exhaustive_matches_per_word_simulation_on_seven_inputs() {
        // 7 inputs → 128 patterns → 2 words; checks the multi-word path.
        let mut aig = Aig::new(7);
        let lits: Vec<Lit> = (0..7).map(|i| aig.pi(i)).collect();
        let conj = aig.and_many(&lits);
        let parity = lits[1..].iter().fold(lits[0], |acc, &l| aig.xor(acc, l));
        aig.add_po(conj);
        aig.add_po(parity);
        let tts = aig.simulate_exhaustive();
        // Conjunction is true only for the all-ones pattern (bit 127).
        assert_eq!(tts[0][0], 0);
        assert_eq!(tts[0][1], 1u64 << 63);
        // Parity of pattern index p is odd popcount.
        for p in 0..128usize {
            let expect = (p.count_ones() & 1) as u64;
            let got = tts[1][p / 64] >> (p % 64) & 1;
            assert_eq!(got, expect, "parity mismatch at pattern {p}");
        }
    }

    #[test]
    fn levels_and_depth() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_po(abc);
        let levels = aig.levels();
        assert_eq!(levels[ab.var()], 1);
        assert_eq!(levels[abc.var()], 2);
        assert_eq!(aig.depth(), 2);
    }

    #[test]
    fn cleanup_drops_dangling_gates() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let keep = aig.and(a, b);
        let _dangling = aig.or(a, b);
        aig.add_po(keep);
        assert_eq!(aig.num_ands(), 2);
        let clean = aig.cleanup();
        assert_eq!(clean.num_ands(), 1);
        assert_eq!(
            clean.simulate(&[0b1100, 0b1010]),
            aig.simulate(&[0b1100, 0b1010])
        );
        clean.check().expect("clean AIG must be valid");
    }

    #[test]
    fn mffc_counts_exclusive_cone() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let ab = aig.and(a, b);
        let shared = aig.and(b, c);
        let top = aig.and(ab, shared);
        aig.add_po(top);
        aig.add_po(shared); // `shared` has an extra fanout → outside top's MFFC
        let mut refs = aig.fanout_counts();
        assert_eq!(aig.mffc_size(top.var(), &mut refs), 2); // top + ab
        assert_eq!(refs, aig.fanout_counts()); // restored
    }

    #[test]
    fn mux_and_maj_functions() {
        let mut aig = Aig::new(3);
        let (s, t, e) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let m = aig.mux(s, t, e);
        let mj = aig.maj(s, t, e);
        aig.add_po(m);
        aig.add_po(mj);
        let tts = aig.simulate_exhaustive();
        for p in 0..8u64 {
            let (sv, tv, ev) = (p & 1, p >> 1 & 1, p >> 2 & 1);
            let mux_expect = if sv == 1 { tv } else { ev };
            let maj_expect = ((sv + tv + ev) >= 2) as u64;
            assert_eq!(tts[0][0] >> p & 1, mux_expect, "mux pattern {p}");
            assert_eq!(tts[1][0] >> p & 1, maj_expect, "maj pattern {p}");
        }
    }

    #[test]
    fn check_detects_duplicates() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let _x = aig.and(a, b);
        // Bypass strash to forge a duplicate.
        aig.nodes.push(Node {
            fanin0: a,
            fanin1: b,
        });
        assert!(matches!(
            aig.check(),
            Err(CheckAigError::DuplicateAnd { .. })
        ));
    }

    #[test]
    fn content_hash_tracks_structure_not_name() {
        let mut a = Aig::new(2);
        let (x, y) = (a.pi(0), a.pi(1));
        let g = a.and(x, y);
        a.add_po(g);
        let mut b = a.clone();
        b.set_name("renamed");
        assert_eq!(a.content_hash(), b.content_hash());
        // A complemented output is a different circuit.
        let mut c = a.clone();
        c.set_po(0, !g);
        assert_ne!(a.content_hash(), c.content_hash());
        // An extra gate is a different circuit.
        let mut d = a.clone();
        let h = d.or(x, y);
        d.add_po(h);
        assert_ne!(a.content_hash(), d.content_hash());
    }

    #[test]
    fn cone_collects_transitive_fanin() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let ab = aig.and(a, b);
        let bc = aig.and(b, c);
        let top = aig.and(ab, bc);
        aig.add_po(top);
        let cone = aig.cone(&[ab.var()]);
        assert!(cone.contains(&a.var()) && cone.contains(&b.var()) && cone.contains(&ab.var()));
        assert!(!cone.contains(&bc.var()) && !cone.contains(&top.var()));
    }
}
