//! The sub-sequence string kernel (SSK) of BOiLS (Section III-B1).
//!
//! For sequences `s`, `t` over a finite alphabet, the kernel is
//! `k(s, t) = Σ_{u ∈ Σ^{≤ℓ}} c_u(s) · c_u(t)`, where the contribution of a
//! sub-sequence `u` occurring at positions `i₁ < … < i_|u|` is weighted by a
//! match decay `θ_m^{|u|}` and a gap decay `θ_g^{gap}` with
//! `gap = i_last − i_first + 1 − |u|` (the number of interior skips).
//!
//! Because the gap weight factorises over consecutive matched positions,
//! the kernel is computable in `O(ℓ·|s|·|t|)` with a two-dimensional
//! geometric prefix-sum dynamic programme; a brute-force enumeration
//! cross-checks it in the tests (including the paper's Table I).

use std::cell::RefCell;

use crate::kernel::Kernel;

/// Pairs per block in [`Kernel::eval_column`]. Each DP cell waits on its
/// left neighbour, so one pair at a time leaves most of the FP units idle;
/// four independent pairs in lockstep fill them (eight measured no better
/// at the paper's `K = 20`).
const LANES: usize = 4;

thread_local! {
    /// The calling thread's DP planes, all in one contiguous buffer (`M` of
    /// the current order, `M` of the next, the prefix sums and the token
    /// matches), reused across evaluations so a Gram fill allocates nothing.
    static PLANES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A token-match mask kept in an `f64` slot of the plane buffer: all ones
/// where the tokens match, all zeros elsewhere. Only its bits are used.
fn match_mask(matched: bool) -> f64 {
    f64::from_bits(0u64.wrapping_sub(u64::from(matched)))
}

/// `x` where `mask` matched and `+0.0` elsewhere, bit for bit, without a
/// branch: whether two tokens match is a coin flip to the branch
/// predictor, and a mispredicted branch per DP cell costs more than the
/// cell's arithmetic. The mask comes from memory, so the optimiser cannot
/// turn the `and` back into one.
fn masked(x: f64, mask: f64) -> f64 {
    f64::from_bits(x.to_bits() & mask.to_bits())
}

/// `k(s,t) / √(k(s,s)·k(t,t))`, with the convention for degenerate
/// (zero self-similarity) sequences.
fn normalized(raw: f64, ks: f64, kt: f64, same: bool) -> f64 {
    if ks <= 0.0 || kt <= 0.0 {
        return if same { 1.0 } else { 0.0 };
    }
    raw / (ks * kt).sqrt()
}

/// The BOiLS sub-sequence string kernel over token sequences.
///
/// ```
/// use boils_gp::{Kernel, SskKernel};
///
/// let k = SskKernel::new(3).with_decays(0.8, 0.5);
/// let a = vec![1u8, 2, 3];
/// let b = vec![1u8, 2, 4];
/// let sim_ab = k.eval(&a, &b);
/// let sim_aa = k.eval(&a, &a);
/// assert!(sim_ab > 0.0 && sim_ab < sim_aa); // normalised: k(a,a) = 1
/// assert!((sim_aa - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct SskKernel {
    max_subsequence: usize,
    match_decay: f64,
    gap_decay: f64,
    normalize: bool,
}

impl SskKernel {
    /// A normalised SSK considering sub-sequences up to length `ell`,
    /// with decays `θ_m = 0.8`, `θ_g = 0.5`.
    ///
    /// # Panics
    ///
    /// Panics if `ell == 0`.
    pub fn new(ell: usize) -> SskKernel {
        assert!(ell >= 1, "subsequence order must be at least 1");
        SskKernel {
            max_subsequence: ell,
            match_decay: 0.8,
            gap_decay: 0.5,
            normalize: true,
        }
    }

    /// Returns the kernel unchanged: there is no per-pair cache to attach.
    /// Kept only because the benchmark harness (`perfbench/src/layers.rs`)
    /// calls it; delete it once that harness can change.
    pub fn with_match_caching(self) -> SskKernel {
        self
    }

    /// Overrides the match and gap decays (both clamped to `[0, 1]` by the
    /// trainer's projection).
    pub fn with_decays(mut self, match_decay: f64, gap_decay: f64) -> SskKernel {
        self.match_decay = match_decay;
        self.gap_decay = gap_decay;
        self
    }

    /// Disables normalisation (`k(s,t)/√(k(s,s)·k(t,t))`).
    pub fn without_normalization(mut self) -> SskKernel {
        self.normalize = false;
        self
    }

    /// The maximum sub-sequence order ℓ.
    pub fn max_subsequence(&self) -> usize {
        self.max_subsequence
    }

    /// The match decay θ_m.
    pub fn match_decay(&self) -> f64 {
        self.match_decay
    }

    /// The gap decay θ_g.
    pub fn gap_decay(&self) -> f64 {
        self.gap_decay
    }

    /// The un-normalised kernel value `k̃(s, t)`: the lane-blocked dynamic
    /// programme with one lane.
    pub fn eval_raw(&self, s: &[u8], t: &[u8]) -> f64 {
        let [raw] = self.eval_raw_lanes([s], t);
        raw
    }

    /// The un-normalised values `k̃(s_l, t)` of `L` sequences `s_l` of one
    /// length against one `t`.
    ///
    /// The `O(ℓ·|s|·|t|)` dynamic programme keeps, per cell `(i, j)`, `M`:
    /// the matchings of the current order ending exactly at `(i, j)`, and
    /// `S`: the geometric 2-D prefix sum of `M`. Lane `l` of each cell
    /// holds pair `l`'s value, and every lane performs the same
    /// floating-point operations in the same order as a one-lane call, so a
    /// lane's result does not depend on its neighbours and is bit-identical
    /// with one lane or four. The planes live in one per-thread buffer, so
    /// repeated evaluations allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if the `s_l` differ in length.
    fn eval_raw_lanes<const L: usize>(&self, s: [&[u8]; L], t: &[u8]) -> [f64; L] {
        let (n, m) = (s[0].len(), t.len());
        assert!(s.iter().all(|sl| sl.len() == n), "lanes differ in length");
        if n == 0 || m == 0 {
            return [0.0; L];
        }
        PLANES.with(|planes| {
            let planes = &mut *planes.borrow_mut();
            let len = 4 * n * m * L;
            if planes.len() < len {
                planes.resize(len, 0.0);
            }
            let (planes, _) = planes[..len].as_chunks_mut::<L>();
            self.dp_lanes(s, t, planes)
        })
    }

    /// The DP of [`SskKernel::eval_raw_lanes`] over `planes`, which holds
    /// exactly four `|s|·|t|` planes (three for the DP, one for the token
    /// matches); `s` and `t` are non-empty.
    fn dp_lanes<const L: usize>(
        &self,
        s: [&[u8]; L],
        t: &[u8],
        planes: &mut [[f64; L]],
    ) -> [f64; L] {
        let (n, m) = (s[0].len(), t.len());
        let cells = n * m;
        let tm2 = self.match_decay * self.match_decay;
        let g = self.gap_decay;
        let g2 = g * g;
        let (mut m_cur, rest) = planes.split_at_mut(cells);
        let (mut m_next, rest) = rest.split_at_mut(cells);
        let (prefix, matches) = rest.split_at_mut(cells);
        // Which tokens match, decided once for every order.
        for (i, mask_row) in matches.chunks_exact_mut(m).enumerate() {
            let si: [u8; L] = std::array::from_fn(|l| s[l][i]);
            for (mask, &tj) in mask_row.iter_mut().zip(t) {
                for l in 0..L {
                    mask[l] = match_mask(si[l] == tj);
                }
            }
        }
        // Order-1 matchings, summed in row-major order.
        let mut plane = [0.0; L];
        for (cell, mask) in m_cur.iter_mut().zip(&*matches) {
            for l in 0..L {
                cell[l] = masked(tm2, mask[l]);
                plane[l] += cell[l];
            }
        }
        let mut total = [0.0; L];
        for l in 0..L {
            total[l] += plane[l];
        }
        // A lane stops at its first zero plane: entries are non-negative,
        // so a zero plane stays zero at every higher order (common for
        // dissimilar sequences). Dead lanes keep computing alongside the
        // live ones, but nothing more is added to their totals.
        let mut live = [true; L];
        for _ in 1..self.max_subsequence {
            for l in 0..L {
                live[l] &= plane[l] != 0.0;
            }
            if !live.contains(&true) {
                break;
            }
            // Geometric 2-D prefix sum of the previous order, with the
            // boundary rows/columns peeled so the interior loop is
            // branch-free. Each cell evaluates `M + g·up + g·left − g²·diag`
            // in that order (edge terms are exact zeros).
            {
                let mut left = [0.0; L];
                for (cell, src) in prefix[..m].iter_mut().zip(&m_cur[..m]) {
                    for l in 0..L {
                        left[l] = src[l] + g * left[l];
                    }
                    *cell = left;
                }
            }
            for i in 1..n {
                let (done, rest) = prefix.split_at_mut(i * m);
                let prev_row = &done[(i - 1) * m..];
                let cur_row = &mut rest[..m];
                let src = &m_cur[i * m..(i + 1) * m];
                let mut diag = prev_row[0];
                let mut left: [f64; L] = std::array::from_fn(|l| src[0][l] + g * diag[l]);
                cur_row[0] = left;
                let interior = cur_row[1..].iter_mut().zip(&src[1..]).zip(&prev_row[1..]);
                for ((cell, src), up) in interior {
                    for l in 0..L {
                        left[l] = src[l] + g * up[l] + g * left[l] - g2 * diag[l];
                    }
                    *cell = left;
                    diag = *up;
                }
            }
            // Extend matches by one token; row 0 and column 0 admit no
            // extension.
            plane = [0.0; L];
            m_next[..m].fill([0.0; L]);
            for i in 1..n {
                let prev_prefix = &prefix[(i - 1) * m..i * m];
                let mask_row = &matches[i * m + 1..(i + 1) * m];
                let row = &mut m_next[i * m..(i + 1) * m];
                row[0] = [0.0; L];
                for ((cell, mask), diag) in row[1..].iter_mut().zip(mask_row).zip(prev_prefix) {
                    for l in 0..L {
                        let v = masked(tm2 * diag[l], mask[l]);
                        cell[l] = v;
                        plane[l] += v;
                    }
                }
            }
            std::mem::swap(&mut m_cur, &mut m_next);
            for l in 0..L {
                if live[l] {
                    total[l] += plane[l];
                }
            }
        }
        total
    }

    /// [`Kernel::eval_with_info`] from a pair's raw value.
    fn finish(&self, raw: f64, a: &[u8], info_a: f64, b: &[u8], info_b: f64) -> f64 {
        if !self.normalize {
            return raw;
        }
        normalized(raw, info_a, info_b, a == b)
    }

    /// The contribution `c_u(s)` of sub-sequence `u` to `s` (the quantity
    /// tabulated in the paper's Table I), computed by direct enumeration of
    /// matchings.
    pub fn contribution(&self, u: &[u8], s: &[u8]) -> f64 {
        if u.is_empty() || u.len() > s.len() {
            return 0.0;
        }
        // Recursive enumeration over the position of each matched token,
        // carrying the accumulated interior-gap weight.
        fn rec(u: &[u8], s: &[u8], ui: usize, last: usize, g: f64) -> f64 {
            if ui == u.len() {
                return 1.0;
            }
            let mut sum = 0.0;
            // This token can sit anywhere that still leaves room for the
            // remaining u.len() - ui - 1 tokens.
            for pos in (last + 1)..=(s.len() - (u.len() - ui - 1)) {
                if s[pos - 1] == u[ui] {
                    let gaps = if ui == 0 { 0 } else { pos - last - 1 };
                    sum += g.powi(gaps as i32) * rec(u, s, ui + 1, pos, g);
                }
            }
            sum
        }
        self.match_decay.powi(u.len() as i32) * rec(u, s, 0, 0, self.gap_decay)
    }
}

impl Kernel<Vec<u8>> for SskKernel {
    fn eval(&self, a: &Vec<u8>, b: &Vec<u8>) -> f64 {
        let raw = self.eval_raw(a, b);
        if !self.normalize {
            return raw;
        }
        let ka = self.eval_raw(a, a);
        let kb = self.eval_raw(b, b);
        normalized(raw, ka, kb, a == b)
    }

    /// The raw self-similarity `k̃(x, x)` — the quantity a normalised Gram
    /// fill recomputes for every pair unless cached per point.
    fn self_info(&self, x: &Vec<u8>) -> f64 {
        if self.normalize {
            self.eval_raw(x, x)
        } else {
            0.0
        }
    }

    fn eval_with_info(&self, a: &Vec<u8>, info_a: f64, b: &Vec<u8>, info_b: f64) -> f64 {
        self.finish(self.eval_raw(a, b), a, info_a, b, info_b)
    }

    /// Runs each block of four equal-length `xs` through one
    /// lane-blocked DP; the tail and blocks of mixed lengths take the
    /// one-lane path. Bit-identical to the per-pair default.
    fn eval_column(
        &self,
        xs: &[Vec<u8>],
        infos: &[f64],
        b: &Vec<u8>,
        info_b: f64,
        out: &mut [f64],
    ) {
        assert!(
            xs.len() == infos.len() && xs.len() == out.len(),
            "column inputs, summaries and outputs differ in length"
        );
        let blocks = xs.chunks(LANES).zip(infos.chunks(LANES));
        for ((xs, infos), out) in blocks.zip(out.chunks_mut(LANES)) {
            match <&[Vec<u8>; LANES]>::try_from(xs) {
                Ok(block) if xs.iter().all(|x| x.len() == xs[0].len()) => {
                    let raw = self.eval_raw_lanes(block.each_ref().map(Vec::as_slice), b);
                    for (l, o) in out.iter_mut().enumerate() {
                        *o = self.finish(raw[l], &xs[l], infos[l], b, info_b);
                    }
                }
                _ => {
                    for ((o, x), &info) in out.iter_mut().zip(xs).zip(infos) {
                        *o = self.eval_with_info(x, info, b, info_b);
                    }
                }
            }
        }
    }

    fn params(&self) -> Vec<f64> {
        vec![self.match_decay, self.gap_decay]
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), 2);
        self.match_decay = params[0];
        self.gap_decay = params[1];
    }

    fn param_bounds(&self) -> Vec<(f64, f64)> {
        // The paper projects θ = (θ_m, θ_g) onto [0, 1]²; we keep a small
        // positive floor so the kernel never degenerates to all-zeros.
        vec![(0.01, 1.0), (0.01, 1.0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Brute-force `k(s, t)` by enumerating every sub-sequence `u` with
    /// `|u| ≤ ℓ` over the joint alphabet.
    fn brute_force(k: &SskKernel, s: &[u8], t: &[u8]) -> f64 {
        let mut alphabet: Vec<u8> = s.iter().chain(t).copied().collect();
        alphabet.sort_unstable();
        alphabet.dedup();
        let mut total = 0.0;
        let mut stack: Vec<Vec<u8>> = alphabet.iter().map(|&c| vec![c]).collect();
        while let Some(u) = stack.pop() {
            total += k.contribution(&u, s) * k.contribution(&u, t);
            if u.len() < k.max_subsequence {
                for &c in &alphabet {
                    let mut v = u.clone();
                    v.push(c);
                    stack.push(v);
                }
            }
        }
        total
    }

    #[test]
    fn dp_matches_brute_force() {
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (vec![0, 1, 2], vec![0, 1, 2]),
            (vec![0, 1, 2, 1], vec![1, 0, 2]),
            (vec![3, 3, 3], vec![3, 3]),
            (vec![0, 1, 0, 1, 2], vec![2, 1, 0, 1]),
            (vec![5], vec![5]),
            (vec![0, 1], vec![2, 3]),
            (vec![1, 2, 3, 4, 2, 1], vec![4, 3, 2, 1, 2, 3]),
        ];
        for ell in 1..=3 {
            let k = SskKernel::new(ell)
                .with_decays(0.7, 0.4)
                .without_normalization();
            for (s, t) in &cases {
                let dp = k.eval_raw(s, t);
                let bf = brute_force(&k, s, t);
                assert!(
                    (dp - bf).abs() < 1e-9 * (1.0 + bf.abs()),
                    "ℓ={ell} s={s:?} t={t:?}: dp={dp} bf={bf}"
                );
            }
        }
    }

    /// The worked examples of the paper's Table I. Tokens: Rw=0, Rf=1,
    /// Ds=2, So=3, Bl=4, Fr=5.
    #[test]
    fn paper_table_one() {
        let k = SskKernel::new(5).with_decays(0.9, 0.6);
        let (tm, tg) = (0.9f64, 0.6f64);
        let seq1 = [0u8, 1, 2, 3, 2, 4, 0]; // RwRfDsSoDsBlRw
        let seq2 = [0u8, 1, 2, 5, 3, 4, 0]; // RwRfDsFrSoBlRw
        let seq3 = [0u8, 1, 2, 5, 4, 3, 4]; // RwRfDsFrBlSoBl
        let u1 = [0u8, 1, 2, 4, 0]; // RwRfDsBlRw
        let u2 = [0u8, 1, 2, 5]; // RwRfDsFr
        let u3 = [0u8, 1]; // RwRf

        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // Row 1: RwRfDsSoDsBlRw.
        assert!(close(
            k.contribution(&u1, &seq1),
            2.0 * tm.powi(5) * tg.powi(2)
        ));
        assert!(close(k.contribution(&u2, &seq1), 0.0));
        assert!(close(k.contribution(&u3, &seq1), tm.powi(2)));
        // Row 2: RwRfDsFrSoBlRw.
        assert!(close(k.contribution(&u1, &seq2), tm.powi(5) * tg.powi(2)));
        assert!(close(k.contribution(&u2, &seq2), tm.powi(4)));
        assert!(close(k.contribution(&u3, &seq2), tm.powi(2)));
        // Row 3: RwRfDsFrBlSoBl.
        assert!(close(k.contribution(&u1, &seq3), 0.0));
        assert!(close(k.contribution(&u2, &seq3), tm.powi(4)));
        assert!(close(k.contribution(&u3, &seq3), tm.powi(2)));
    }

    #[test]
    fn normalised_kernel_is_a_similarity() {
        let k = SskKernel::new(4);
        let a = vec![0u8, 1, 2, 3, 4];
        let b = vec![0u8, 1, 2, 4, 3];
        let c = vec![5u8, 6, 7, 8, 9];
        assert!((k.eval(&a, &a) - 1.0).abs() < 1e-12);
        let ab = k.eval(&a, &b);
        let ac = k.eval(&a, &c);
        assert!(ab > ac, "shared prefixes must look more similar");
        assert!((0.0..=1.0 + 1e-12).contains(&ab));
        assert_eq!(ac, 0.0, "disjoint alphabets share no sub-sequence");
    }

    #[test]
    fn gap_decay_penalises_spread_matches() {
        let k = SskKernel::new(2)
            .with_decays(0.9, 0.3)
            .without_normalization();
        let tight = [0u8, 1, 9, 9, 9];
        let spread = [0u8, 9, 9, 9, 1];
        let probe = [0u8, 1];
        assert!(k.eval_raw(&probe, &tight) > k.eval_raw(&probe, &spread));
    }

    #[test]
    fn kernel_gram_matrix_is_positive_definite() {
        use crate::linalg::{Cholesky, Matrix};
        let k = SskKernel::new(3);
        let seqs: Vec<Vec<u8>> = vec![
            vec![0, 1, 2, 3],
            vec![3, 2, 1, 0],
            vec![0, 0, 1, 1],
            vec![2, 3, 0, 1],
            vec![1, 1, 1, 1],
        ];
        let gram = Matrix::from_fn(seqs.len(), seqs.len(), |i, j| k.eval(&seqs[i], &seqs[j]));
        assert!(Cholesky::new(&gram, 1e-8).is_ok(), "gram must be PSD");
    }

    #[test]
    fn empty_sequences_are_handled() {
        let k = SskKernel::new(3);
        assert_eq!(k.eval_raw(&[], &[1, 2]), 0.0);
        assert_eq!(k.eval(&vec![], &vec![]), 1.0); // identical → similarity 1
        assert_eq!(k.eval(&vec![], &vec![1]), 0.0);
        // Columns share the degenerate conventions, in a lane block (the
        // four empty sequences) and on the one-lane tail.
        let xs: Vec<Vec<u8>> = vec![vec![], vec![], vec![], vec![], vec![1]];
        let infos: Vec<f64> = xs.iter().map(|x| k.self_info(x)).collect();
        let mut out = [f64::NAN; 5];
        k.eval_column(&xs, &infos, &vec![], 0.0, &mut out);
        assert_eq!(out, [1.0, 1.0, 1.0, 1.0, 0.0]);
        let info = k.self_info(&vec![1]);
        k.eval_column(&xs, &infos, &vec![1], info, &mut out);
        assert_eq!(out, [0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    /// The one-pair DP as it stood before the lanes, on its own three
    /// planes: the bit-exact reference for [`SskKernel::eval_raw_lanes`].
    fn eval_raw_reference(k: &SskKernel, s: &[u8], t: &[u8]) -> f64 {
        let (n, m) = (s.len(), t.len());
        if n == 0 || m == 0 {
            return 0.0;
        }
        let tm2 = k.match_decay * k.match_decay;
        let g = k.gap_decay;
        let g2 = g * g;
        let cells = n * m;
        let (mut cur_plane, mut next_plane) = (vec![0.0; cells], vec![0.0; cells]);
        let mut m_cur = &mut cur_plane[..];
        let mut m_next = &mut next_plane[..];
        let prefix = &mut vec![0.0; cells][..];
        let mut total = 0.0;
        for (i, &si) in s.iter().enumerate() {
            let row = &mut m_cur[i * m..(i + 1) * m];
            for (cell, &tj) in row.iter_mut().zip(t) {
                *cell = if si == tj { tm2 } else { 0.0 };
            }
        }
        let mut plane: f64 = m_cur.iter().sum();
        total += plane;
        for _ in 1..k.max_subsequence {
            if plane == 0.0 {
                break;
            }
            {
                let mut left = 0.0;
                for j in 0..m {
                    let v = m_cur[j] + g * left;
                    prefix[j] = v;
                    left = v;
                }
            }
            for i in 1..n {
                let (done, rest) = prefix.split_at_mut(i * m);
                let prev_row = &done[(i - 1) * m..];
                let cur_row = &mut rest[..m];
                let src = &m_cur[i * m..(i + 1) * m];
                let mut diag = prev_row[0];
                let mut left = src[0] + g * diag;
                cur_row[0] = left;
                for j in 1..m {
                    let up = prev_row[j];
                    let v = src[j] + g * up + g * left - g2 * diag;
                    cur_row[j] = v;
                    left = v;
                    diag = up;
                }
            }
            plane = 0.0;
            m_next[..m].fill(0.0);
            for i in 1..n {
                let si = s[i];
                let prev_prefix = &prefix[(i - 1) * m..i * m];
                let row = &mut m_next[i * m..(i + 1) * m];
                row[0] = 0.0;
                for j in 1..m {
                    let v = if si == t[j] {
                        tm2 * prev_prefix[j - 1]
                    } else {
                        0.0
                    };
                    row[j] = v;
                    plane += v;
                }
            }
            std::mem::swap(&mut m_cur, &mut m_next);
            total += plane;
        }
        total
    }

    /// Hand-picked pairs, each run as lane 0 beside random sequences of its
    /// length: a long shared sub-sequence, repeats, disjoint alphabets
    /// (a zero first plane), reversals, a single token, and a plane that
    /// dies at order 3.
    const PAIRS: [(&[u8], &[u8]); 6] = [
        (&[0, 1, 2, 3, 2, 4, 0], &[0, 1, 2, 5, 3, 4, 0]),
        (&[3, 3, 3], &[3, 3]),
        (&[0, 1], &[2, 3]),
        (&[1, 2, 3, 4, 2, 1], &[4, 3, 2, 1, 2, 3]),
        (&[5], &[5]),
        (&[0, 0, 0, 0, 0], &[0, 0]),
    ];

    /// One of the decay box's bounds half the time, else uniform inside it.
    fn decay(pick: usize, inside: f64) -> f64 {
        match pick {
            0 => 0.01,
            1 => 1.0,
            _ => inside,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lane_dp_is_bit_identical_to_the_scalar_reference(
            pair in 0usize..24,
            n in 1usize..=24,
            m in 1usize..=24,
            alphabet in 1u8..=12,
            ell in 1usize..=6,
            tm_pick in 0usize..4,
            tm_inside in 0.01f64..1.0,
            tg_pick in 0usize..4,
            tg_inside in 0.01f64..1.0,
            tokens in prop::collection::vec(0u8..12, 5 * 24),
        ) {
            let k = SskKernel::new(ell)
                .with_decays(decay(tm_pick, tm_inside), decay(tg_pick, tg_inside))
                .without_normalization();
            let random = |l: usize, len: usize| -> Vec<u8> {
                tokens[l * 24..l * 24 + len].iter().map(|x| x % alphabet).collect()
            };
            let (s, t): (Vec<Vec<u8>>, Vec<u8>) = match PAIRS.get(pair) {
                Some(&(s0, t)) => {
                    let lanes = (1..LANES).map(|l| random(l, s0.len()));
                    (std::iter::once(s0.to_vec()).chain(lanes).collect(), t.to_vec())
                }
                None => ((0..LANES).map(|l| random(l, n)).collect(), random(LANES, m)),
            };
            let four = k.eval_raw_lanes(std::array::from_fn::<_, LANES, _>(|l| &s[l][..]), &t);
            for (l, sl) in s.iter().enumerate() {
                let reference = eval_raw_reference(&k, sl, &t).to_bits();
                prop_assert_eq!(k.eval_raw(sl, &t).to_bits(), reference, "one lane, s={:?} t={:?}", sl, t);
                prop_assert_eq!(four[l].to_bits(), reference, "lane {} of four, s={:?} t={:?}", l, sl, t);
            }
        }
    }
}
