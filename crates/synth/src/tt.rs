//! Inline truth tables over at most eight variables, the Minato–Morreale
//! irredundant sum-of-products (ISOP) computation used by refactoring and
//! the SOP-balancing transforms, and the window scratch the cone-evaluating
//! passes reuse across nodes.

use boils_aig::{Aig, INPUT_MASKS};

/// Words of the widest table: 2^8 bits.
const WORDS: usize = 4;

/// `VARS[v]` is the projection onto variable `v` over eight variables.
const VARS: [[u64; WORDS]; Tt::MAX_VARS] = {
    let mut vars = [[0; WORDS]; Tt::MAX_VARS];
    let mut v = 0;
    while v < Tt::MAX_VARS {
        let mut w = 0;
        while w < WORDS {
            vars[v][w] = if v < 6 {
                INPUT_MASKS[v]
            } else if w >> (v - 6) & 1 == 1 {
                !0
            } else {
                0
            };
            w += 1;
        }
        v += 1;
    }
    vars
};

/// `FULL[n]` is the constant-true table over `n` variables: the bits a
/// table over `n` variables may set.
const FULL: [[u64; WORDS]; Tt::MAX_VARS + 1] = {
    let mut full = [[0; WORDS]; Tt::MAX_VARS + 1];
    let mut n = 0;
    while n <= Tt::MAX_VARS {
        if n < 6 {
            full[n][0] = (1u64 << (1 << n)) - 1;
        } else {
            let mut w = 0;
            while w < 1 << (n - 6) {
                full[n][w] = !0;
                w += 1;
            }
        }
        n += 1;
    }
    full
};

/// A truth table over `num_vars ≤ 8` variables, packed inline into four
/// 64-bit words.
///
/// Bit `p` (of the flattened table) is the function value for the input
/// minterm with binary encoding `p`, variable 0 being the least significant
/// bit. Bits at or above `2^num_vars` are always zero, so equality and
/// hashing see only the function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Tt {
    num_vars: usize,
    words: [u64; WORDS],
}

impl Tt {
    /// The widest table any caller builds: rewriting and the LUT rebuilds
    /// use 4 variables, the refactor and resub windows 8.
    pub(crate) const MAX_VARS: usize = 8;

    /// The constant-false function over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 8`.
    pub fn zero(num_vars: usize) -> Tt {
        assert!(num_vars <= Self::MAX_VARS, "truth tables limited to 8 vars");
        Tt {
            num_vars,
            words: [0; WORDS],
        }
    }

    /// The constant-true function over `num_vars` variables.
    pub fn one(num_vars: usize) -> Tt {
        Tt::zero(num_vars).with_words([!0; WORDS])
    }

    /// The projection onto variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(num_vars: usize, var: usize) -> Tt {
        assert!(var < num_vars);
        Tt::zero(num_vars).with_words(VARS[var])
    }

    /// Builds a table from raw words (low 2^num_vars bits significant).
    pub fn from_words(num_vars: usize, words: Vec<u64>) -> Tt {
        assert_eq!(words.len(), Self::words_for(num_vars));
        let mut t = Tt::zero(num_vars);
        t.words[..words.len()].copy_from_slice(&words);
        t.masked()
    }

    /// Builds a 6-variable-or-fewer table from a single word.
    pub fn from_u64(num_vars: usize, bits: u64) -> Tt {
        assert!(num_vars <= 6);
        Tt::zero(num_vars).with_words([bits, 0, 0, 0])
    }

    /// The packed bits when `num_vars ≤ 6`.
    ///
    /// # Panics
    ///
    /// Panics if the table spans more than one word.
    pub fn as_u64(&self) -> u64 {
        assert!(self.num_vars <= 6);
        self.words[0]
    }

    fn words_for(num_vars: usize) -> usize {
        (1usize << num_vars).div_ceil(64)
    }

    /// The table with the given words, cleared above `2^num_vars` bits.
    fn with_words(self, words: [u64; WORDS]) -> Tt {
        Tt {
            num_vars: self.num_vars,
            words,
        }
        .masked()
    }

    fn masked(mut self) -> Tt {
        for (w, m) in self.words.iter_mut().zip(&FULL[self.num_vars]) {
            *w &= m;
        }
        self
    }

    /// Combines two tables over the same variables word by word.
    fn zip(&self, other: &Tt, op: impl Fn(u64, u64) -> u64) -> Tt {
        assert_eq!(self.num_vars, other.num_vars);
        let (a, b) = (self.words, other.words);
        Tt {
            num_vars: self.num_vars,
            words: std::array::from_fn(|w| op(a[w], b[w])),
        }
    }

    /// The number of variables of the table.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Whether the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.words == [0; WORDS]
    }

    /// Whether the function is constant true.
    pub fn is_one(&self) -> bool {
        self.words == FULL[self.num_vars]
    }

    /// The value of the function on minterm `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= 2^num_vars`.
    pub fn bit(&self, p: usize) -> bool {
        assert!(p < 1 << self.num_vars);
        self.words[p / 64] >> (p % 64) & 1 == 1
    }

    /// The number of satisfied minterms.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Logical negation.
    pub fn not(&self) -> Tt {
        self.with_words(self.words.map(|w| !w))
    }

    /// Logical conjunction.
    ///
    /// # Panics
    ///
    /// Panics if variable counts differ.
    pub fn and(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a & b)
    }

    /// Logical disjunction.
    pub fn or(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a | b)
    }

    /// Exclusive or.
    pub fn xor(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a ^ b)
    }

    /// The negative cofactor (fixes `var = 0`).
    pub fn cofactor0(&self, var: usize) -> Tt {
        self.cofactor(var, false)
    }

    /// The positive cofactor (fixes `var = 1`).
    pub fn cofactor1(&self, var: usize) -> Tt {
        self.cofactor(var, true)
    }

    fn cofactor(&self, var: usize, value: bool) -> Tt {
        assert!(var < self.num_vars);
        let mut out = *self;
        if var < 6 {
            let shift = 1u32 << var;
            let keep = VARS[var][0];
            for w in &mut out.words {
                *w = if value {
                    let sel = *w & keep;
                    sel | (sel >> shift)
                } else {
                    let sel = *w & !keep;
                    sel | (sel << shift)
                };
            }
        } else {
            let stride = 1usize << (var - 6);
            for base in (0..WORDS).step_by(stride * 2) {
                for i in base..base + stride {
                    let v = out.words[if value { i + stride } else { i }];
                    out.words[i] = v;
                    out.words[i + stride] = v;
                }
            }
        }
        out
    }

    /// Whether the function depends on `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor0(var) != self.cofactor1(var)
    }

    /// The set of variables the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        self.support_vars().collect()
    }

    /// The variables the function depends on, in ascending order.
    pub(crate) fn support_vars(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_vars).filter(|&v| self.depends_on(v))
    }
}

/// A product term over up to 32 variables: `pos` collects positive literals,
/// `neg` complemented ones.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cube {
    /// Bitmask of variables appearing positively.
    pub pos: u32,
    /// Bitmask of variables appearing negated.
    pub neg: u32,
}

impl Cube {
    /// The universal cube (empty product, always true).
    pub const ONE: Cube = Cube { pos: 0, neg: 0 };

    /// Number of literals in the cube.
    pub fn num_lits(self) -> u32 {
        (self.pos | self.neg).count_ones()
    }

    /// Whether `var` appears (in either polarity).
    pub fn contains(self, var: usize) -> bool {
        (self.pos | self.neg) >> var & 1 == 1
    }

    /// The cube's characteristic function as a truth table.
    pub fn to_tt(self, num_vars: usize) -> Tt {
        let mut t = Tt::one(num_vars);
        for v in 0..num_vars {
            if self.pos >> v & 1 == 1 {
                t = t.and(&Tt::var(num_vars, v));
            }
            if self.neg >> v & 1 == 1 {
                t = t.and(&Tt::var(num_vars, v).not());
            }
        }
        t
    }
}

/// The function of a sum-of-products cover.
pub fn cover_function(cover: &[Cube], num_vars: usize) -> Tt {
    cover
        .iter()
        .fold(Tt::zero(num_vars), |acc, c| acc.or(&c.to_tt(num_vars)))
}

/// Computes an irredundant sum-of-products cover of `f` with the
/// Minato–Morreale algorithm.
///
/// The result `c` satisfies `f = Σ c` and no cube or literal can be removed
/// without uncovering a minterm.
pub fn isop(f: &Tt) -> Vec<Cube> {
    let mut cover = Vec::new();
    isop_rec(f, f, f.num_vars(), &mut cover);
    cover
}

/// Minato–Morreale on the interval `[lower, upper]`: appends a cover `c`
/// with `lower ⊆ c ⊆ upper` to `cover` and returns its function.
fn isop_rec(lower: &Tt, upper: &Tt, top: usize, cover: &mut Vec<Cube>) -> Tt {
    let n = lower.num_vars();
    if lower.is_zero() {
        return Tt::zero(n);
    }
    if upper.is_one() {
        cover.push(Cube::ONE);
        return Tt::one(n);
    }
    // Find the highest variable in the support of either bound.
    let Some(x) = (0..top)
        .rev()
        .find(|&v| lower.depends_on(v) || upper.depends_on(v))
    else {
        // No support left: lower must be 0 (else upper would be 1).
        debug_assert!(lower.is_zero());
        return Tt::zero(n);
    };

    let (l0, l1) = (lower.cofactor0(x), lower.cofactor1(x));
    let (u0, u1) = (upper.cofactor0(x), upper.cofactor1(x));

    // Minterms that must be covered by cubes containing ¬x / x; the cubes
    // each recursion appends get that literal.
    let start = cover.len();
    let f0 = isop_rec(&l0.and(&u1.not()), &u0, x, cover);
    let mid = cover.len();
    let f1 = isop_rec(&l1.and(&u0.not()), &u1, x, cover);
    for c in &mut cover[start..mid] {
        c.neg |= 1 << x;
    }
    for c in &mut cover[mid..] {
        c.pos |= 1 << x;
    }

    // Remaining minterms go to cubes independent of x.
    let rest = l0.and(&f0.not()).or(&l1.and(&f1.not()));
    let f_star = isop_rec(&rest, &u0.and(&u1), x, cover);

    let xv = Tt::var(n, x);
    xv.not().and(&f0).or(&xv.and(&f1)).or(&f_star)
}

/// Node-indexed truth tables of one window, reused across the windows of a
/// pass. A slot is valid only when stamped with the current window, so
/// starting a new window costs nothing and no per-node map is built.
pub(crate) struct WindowTables {
    tables: Vec<Tt>,
    stamps: Vec<u32>,
    window: u32,
}

impl WindowTables {
    /// Empty scratch for the nodes of an AIG with `num_nodes` nodes.
    pub(crate) fn new(num_nodes: usize) -> WindowTables {
        WindowTables {
            tables: vec![Tt::zero(0); num_nodes],
            stamps: vec![0; num_nodes],
            window: 1,
        }
    }

    /// Forgets every table: starts the next window.
    pub(crate) fn clear(&mut self) {
        if self.window == u32::MAX {
            self.stamps.fill(0);
            self.window = 0;
        }
        self.window += 1;
    }

    /// The table of `node` in the current window, if one was set.
    pub(crate) fn get(&self, node: usize) -> Option<Tt> {
        (self.stamps[node] == self.window).then(|| self.tables[node])
    }

    /// Sets (or overwrites) the table of `node` in the current window.
    pub(crate) fn set(&mut self, node: usize, table: Tt) {
        self.tables[node] = table;
        self.stamps[node] = self.window;
    }
}

/// Computes the truth table of the cone rooted at `root` over the given
/// `leaves` (a valid cut of `root`, at most 8 leaves).
///
/// # Panics
///
/// Panics if `leaves.len() > 8` or the cone escapes the leaves.
pub fn cone_function(aig: &Aig, root: usize, leaves: &[usize]) -> Tt {
    cone_function_in(aig, root, leaves, &mut WindowTables::new(aig.num_nodes()))
}

/// [`cone_function`] evaluated in caller-owned scratch, which passes that
/// evaluate one cone per node reuse across the whole graph.
pub(crate) fn cone_function_in(
    aig: &Aig,
    root: usize,
    leaves: &[usize],
    tables: &mut WindowTables,
) -> Tt {
    assert!(leaves.len() <= Tt::MAX_VARS);
    let n = leaves.len();
    tables.clear();
    tables.set(0, Tt::zero(n));
    for (i, &l) in leaves.iter().enumerate() {
        tables.set(l, Tt::var(n, i));
    }
    fn eval(aig: &Aig, node: usize, tables: &mut WindowTables) -> Tt {
        if let Some(t) = tables.get(node) {
            return t;
        }
        assert!(aig.is_and(node), "cone escapes cut at node {node}");
        let (f0, f1) = (aig.fanin0(node), aig.fanin1(node));
        let mut t0 = eval(aig, f0.var(), tables);
        if f0.is_complement() {
            t0 = t0.not();
        }
        let mut t1 = eval(aig, f1.var(), tables);
        if f1.is_complement() {
            t1 = t1.not();
        }
        let t = t0.and(&t1);
        tables.set(node, t);
        t
    }
    eval(aig, root, tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_vars() {
        assert!(Tt::zero(3).is_zero());
        assert!(Tt::one(3).is_one());
        assert_eq!(Tt::var(3, 0).as_u64(), 0b10101010);
        assert_eq!(Tt::var(3, 1).as_u64(), 0b11001100);
        assert_eq!(Tt::var(3, 2).as_u64(), 0b11110000);
    }

    #[test]
    fn cofactors_small() {
        // f = x0 & x1
        let f = Tt::var(2, 0).and(&Tt::var(2, 1));
        assert!(f.cofactor0(0).is_zero());
        assert_eq!(f.cofactor1(0), Tt::var(2, 1));
        assert!(f.depends_on(0) && f.depends_on(1));
    }

    #[test]
    fn cofactors_multiword() {
        // 8 variables → 4 words; f = x7 & x0.
        let f = Tt::var(8, 7).and(&Tt::var(8, 0));
        assert!(f.cofactor0(7).is_zero());
        assert_eq!(f.cofactor1(7), Tt::var(8, 0));
        assert_eq!(f.support(), vec![0, 7]);
    }

    #[test]
    fn operations_match_the_bitwise_definitions() {
        // Pseudo-random tables over every width, single- and multi-word.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for n in 0..=Tt::MAX_VARS {
            let words = (1usize << n).div_ceil(64);
            let raw: Vec<u64> = (0..words)
                .map(|_| {
                    state = boils_aig::splitmix64(state);
                    state
                })
                .collect();
            let f = Tt::from_words(n, raw);
            for v in 0..n {
                let (c0, c1) = (f.cofactor0(v), f.cofactor1(v));
                for p in 0..1usize << n {
                    assert_eq!(c0.bit(p), f.bit(p & !(1 << v)), "n {n} var {v}");
                    assert_eq!(c1.bit(p), f.bit(p | 1 << v), "n {n} var {v}");
                }
                let depends = (0..1usize << n).any(|p| f.bit(p) != f.bit(p ^ 1 << v));
                assert_eq!(f.depends_on(v), depends);
            }
            assert_eq!(f.not().not(), f);
            assert!(f.or(&f.not()).is_one() && f.and(&f.not()).is_zero());
            assert_eq!(f.count_ones() + f.not().count_ones(), 1 << n);
        }
    }

    #[test]
    fn window_tables_forget_on_clear() {
        let mut tables = WindowTables::new(4);
        assert_eq!(tables.get(2), None);
        tables.clear();
        tables.set(2, Tt::one(3));
        tables.set(2, Tt::var(3, 1));
        assert_eq!(tables.get(2), Some(Tt::var(3, 1)));
        assert_eq!(tables.get(1), None);
        tables.clear();
        assert_eq!(tables.get(2), None);
    }

    #[test]
    fn isop_of_xor_has_two_cubes() {
        let f = Tt::var(2, 0).xor(&Tt::var(2, 1));
        let cover = isop(&f);
        assert_eq!(cover.len(), 2);
        assert_eq!(cover_function(&cover, 2), f);
    }

    #[test]
    fn isop_covers_exactly() {
        // Several structured functions, including multi-word ones.
        let cases: Vec<Tt> = vec![
            Tt::var(4, 0)
                .and(&Tt::var(4, 1))
                .or(&Tt::var(4, 2).and(&Tt::var(4, 3))),
            Tt::var(3, 0).xor(&Tt::var(3, 1)).xor(&Tt::var(3, 2)),
            Tt::var(7, 6).or(&Tt::var(7, 0).and(&Tt::var(7, 3).not())),
            Tt::one(2),
            Tt::zero(5),
        ];
        for f in cases {
            let cover = isop(&f);
            assert_eq!(cover_function(&cover, f.num_vars()), f, "cover mismatch");
        }
    }

    #[test]
    fn isop_is_irredundant_on_majority() {
        let n = 3;
        let f = Tt::var(n, 0)
            .and(&Tt::var(n, 1))
            .or(&Tt::var(n, 0).and(&Tt::var(n, 2)))
            .or(&Tt::var(n, 1).and(&Tt::var(n, 2)));
        let cover = isop(&f);
        assert_eq!(cover_function(&cover, n), f);
        // Dropping any cube must uncover a minterm.
        for skip in 0..cover.len() {
            let reduced: Vec<Cube> = cover
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| *c)
                .collect();
            assert_ne!(cover_function(&reduced, n), f, "cube {skip} is redundant");
        }
    }

    #[test]
    fn cone_function_matches_exhaustive() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let m = aig.maj(a, b, c);
        aig.add_po(m);
        let leaves = vec![a.var(), b.var(), c.var()];
        let tt = cone_function(&aig, m.var(), &leaves);
        let expect = aig.simulate_exhaustive()[0][0];
        let got = if m.is_complement() { tt.not() } else { tt };
        assert_eq!(got.as_u64(), expect);
    }
}
