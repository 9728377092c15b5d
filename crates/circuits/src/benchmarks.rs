//! Parametric generators for the ten EPFL arithmetic benchmark circuits.
//!
//! The EPFL suite itself is a set of fixed Verilog/AIGER files; since the
//! files are not redistributable here, each circuit is regenerated
//! structurally at a configurable bit width (see `DESIGN.md` for the
//! substitution rationale). Every generator has a bit-exact integer
//! [reference model](model) that the tests compare against via simulation.

use boils_aig::{Aig, Lit};

use crate::words::{
    add, add_sub, constant, less_than, mul, mux_word, resize, rotate_left, shift_left,
    shift_right_arith, sub, Word,
};

/// The ten EPFL arithmetic benchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Benchmark {
    /// Ripple-carry adder (`adder`).
    Adder,
    /// Rotating barrel shifter (`bar`).
    BarrelShifter,
    /// Restoring array divider (`div`).
    Divisor,
    /// `⌊√(a² + b²)⌋` datapath (`hyp`).
    Hypotenuse,
    /// Fixed-point base-2 logarithm by digit recurrence (`log2`).
    Log2,
    /// Four-way word maximum (`max`).
    Max,
    /// Unsigned array multiplier (`multiplier`).
    Multiplier,
    /// CORDIC sine (`sin`).
    Sine,
    /// Restoring square root (`sqrt`).
    SquareRoot,
    /// Array squarer (`square`).
    Square,
}

impl Benchmark {
    /// All ten benchmarks in the paper's table order.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::Adder,
        Benchmark::BarrelShifter,
        Benchmark::Divisor,
        Benchmark::Hypotenuse,
        Benchmark::Log2,
        Benchmark::Max,
        Benchmark::Multiplier,
        Benchmark::Sine,
        Benchmark::SquareRoot,
        Benchmark::Square,
    ];

    /// The circuit's conventional short name (EPFL file stem).
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Adder => "adder",
            Benchmark::BarrelShifter => "bar",
            Benchmark::Divisor => "div",
            Benchmark::Hypotenuse => "hyp",
            Benchmark::Log2 => "log2",
            Benchmark::Max => "max",
            Benchmark::Multiplier => "multiplier",
            Benchmark::Sine => "sin",
            Benchmark::SquareRoot => "sqrt",
            Benchmark::Square => "square",
        }
    }

    /// Default operand width used by the experiment harness — scaled down
    /// from the EPFL originals so full sweeps run on one machine.
    pub fn default_bits(self) -> usize {
        match self {
            Benchmark::Adder => 32,
            Benchmark::BarrelShifter => 16,
            Benchmark::Divisor => 8,
            Benchmark::Hypotenuse => 6,
            Benchmark::Log2 => 8,
            Benchmark::Max => 16,
            Benchmark::Multiplier => 8,
            Benchmark::Sine => 8,
            Benchmark::SquareRoot => 16,
            Benchmark::Square => 8,
        }
    }

    /// Resolves a short name (as printed by [`Benchmark::name`]), listing
    /// the valid names in the diagnostic — the shared validation used by
    /// both the experiment CLI and the daemon's job decoder.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for unknown names.
    pub fn parse(name: &str) -> Result<Benchmark, String> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
                format!(
                    "unknown circuit {name:?} (expected one of: {})",
                    known.join(", ")
                )
            })
    }

    /// Checks an operand width against the generator (2 to 64 bits, as the
    /// reference models compute in `u128`) and [`Benchmark::paper_bits`].
    /// The error starts with the width; callers prefix the flag or field.
    pub fn check_bits(self, bits: usize) -> Result<(), String> {
        let (min, max) = match self {
            Benchmark::Sine | Benchmark::Log2 => (4, self.paper_bits().min(64)),
            _ => (2, self.paper_bits().min(64)),
        };
        let (shape, fits_shape) = match self {
            Benchmark::BarrelShifter => (", a power of two", bits.is_power_of_two()),
            Benchmark::SquareRoot => (", even", bits.is_multiple_of(2)),
            _ => ("", true),
        };
        if fits_shape && (min..=max).contains(&bits) {
            return Ok(());
        }
        let paper = self.paper_bits();
        Err(format!(
            "{bits} is not a width {self} supports: {min} to {max} bits{shape}, \
             within {self}'s paper width of {paper}"
        ))
    }

    /// Operand width of the original EPFL benchmark, for reference.
    pub fn paper_bits(self) -> usize {
        match self {
            Benchmark::Adder => 128,
            Benchmark::BarrelShifter => 128,
            Benchmark::Divisor => 64,
            Benchmark::Hypotenuse => 128,
            Benchmark::Log2 => 32,
            Benchmark::Max => 128,
            Benchmark::Multiplier => 64,
            Benchmark::Sine => 24,
            Benchmark::SquareRoot => 128,
            Benchmark::Square => 64,
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A benchmark plus its generation parameters.
///
/// ```
/// use boils_circuits::{Benchmark, CircuitSpec};
///
/// let aig = CircuitSpec::new(Benchmark::Adder).bits(8).build();
/// assert_eq!(aig.num_pis(), 16);
/// assert_eq!(aig.num_pos(), 9);
/// aig.check().unwrap();
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CircuitSpec {
    benchmark: Benchmark,
    bits: usize,
}

impl CircuitSpec {
    /// A spec at the benchmark's default (scaled-down) width.
    pub fn new(benchmark: Benchmark) -> CircuitSpec {
        CircuitSpec {
            benchmark,
            bits: benchmark.default_bits(),
        }
    }

    /// Overrides the operand width.
    ///
    /// # Panics
    ///
    /// Panics if [`Benchmark::check_bits`] rejects `bits`.
    pub fn bits(mut self, bits: usize) -> CircuitSpec {
        if let Err(reason) = self.benchmark.check_bits(bits) {
            panic!("bits {reason}");
        }
        self.bits = bits;
        self
    }

    /// The benchmark identity.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The configured operand width.
    pub fn num_bits(&self) -> usize {
        self.bits
    }

    /// Generates the circuit as an AIG.
    pub fn build(&self) -> Aig {
        let n = self.bits;
        let mut aig = match self.benchmark {
            Benchmark::Adder => gen_adder(n),
            Benchmark::BarrelShifter => gen_barrel(n),
            Benchmark::Divisor => gen_div(n),
            Benchmark::Hypotenuse => gen_hyp(n),
            Benchmark::Log2 => gen_log2(n),
            Benchmark::Max => gen_max(n),
            Benchmark::Multiplier => gen_mul(n),
            Benchmark::Sine => gen_sin(n),
            Benchmark::SquareRoot => gen_sqrt(n),
            Benchmark::Square => gen_square(n),
        };
        aig.set_name(format!("{}_{}", self.benchmark.name(), n));
        aig
    }
}

fn pi_word(aig: &mut Aig, start: usize, width: usize) -> Word {
    (start..start + width).map(|i| aig.pi(i)).collect()
}

fn add_word_outputs(aig: &mut Aig, w: &Word) {
    for &l in w {
        aig.add_po(l);
    }
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn gen_adder(n: usize) -> Aig {
    let mut aig = Aig::new(2 * n);
    let a = pi_word(&mut aig, 0, n);
    let b = pi_word(&mut aig, n, n);
    let (sum, carry) = add(&mut aig, &a, &b, Lit::FALSE);
    add_word_outputs(&mut aig, &sum);
    aig.add_po(carry);
    aig
}

fn gen_barrel(n: usize) -> Aig {
    let stages = n.trailing_zeros() as usize;
    let mut aig = Aig::new(n + stages);
    let mut data = pi_word(&mut aig, 0, n);
    let shift = pi_word(&mut aig, n, stages);
    for (k, &s) in shift.iter().enumerate() {
        let rotated = rotate_left(&data, 1 << k);
        data = mux_word(&mut aig, s, &rotated, &data);
    }
    add_word_outputs(&mut aig, &data);
    aig
}

fn gen_div(n: usize) -> Aig {
    let mut aig = Aig::new(2 * n);
    let dividend = pi_word(&mut aig, 0, n);
    let divisor = pi_word(&mut aig, n, n);
    let w = n + 1;
    let divisor_w = resize(&divisor, w);
    let mut rem = constant(0, w);
    let mut quotient = vec![Lit::FALSE; n];
    for i in (0..n).rev() {
        // rem = (rem << 1) | dividend[i]
        let mut shifted = shift_left(&rem, 1);
        shifted[0] = dividend[i];
        let (diff, borrow) = sub(&mut aig, &shifted, &divisor_w);
        quotient[i] = !borrow;
        rem = mux_word(&mut aig, borrow, &shifted, &diff);
    }
    add_word_outputs(&mut aig, &quotient);
    add_word_outputs(&mut aig, &resize(&rem, n));
    aig
}

/// Restoring square root over a `2m`-bit radicand; root has `m` bits.
fn sqrt_datapath(aig: &mut Aig, x: &Word) -> Word {
    let m = x.len() / 2;
    let w = m + 4;
    let mut rem = constant(0, w);
    let mut root = constant(0, w);
    let mut root_bits = vec![Lit::FALSE; m];
    for i in (0..m).rev() {
        // rem = (rem << 2) | x[2i+1 .. 2i]
        let mut shifted = shift_left(&rem, 2);
        shifted[0] = x[2 * i];
        shifted[1] = x[2 * i + 1];
        // trial = (root << 2) | 1
        let mut trial = shift_left(&root, 2);
        trial[0] = Lit::TRUE;
        let (diff, borrow) = sub(aig, &shifted, &trial);
        let bit = !borrow;
        root_bits[i] = bit;
        rem = mux_word(aig, borrow, &shifted, &diff);
        // root = (root << 1) | bit
        let mut r2 = shift_left(&root, 1);
        r2[0] = bit;
        root = r2;
    }
    root_bits
}

fn gen_sqrt(n: usize) -> Aig {
    let mut aig = Aig::new(n);
    let x = pi_word(&mut aig, 0, n);
    let root = sqrt_datapath(&mut aig, &x);
    add_word_outputs(&mut aig, &root);
    aig
}

fn gen_hyp(n: usize) -> Aig {
    let mut aig = Aig::new(2 * n);
    let a = pi_word(&mut aig, 0, n);
    let b = pi_word(&mut aig, n, n);
    let a2 = mul(&mut aig, &a, &a);
    let b2 = mul(&mut aig, &b, &b);
    let width = 2 * n + 2; // even width for the sqrt datapath
    let a2w = resize(&a2, width);
    let b2w = resize(&b2, width);
    let (sum, _) = add(&mut aig, &a2w, &b2w, Lit::FALSE);
    let root = sqrt_datapath(&mut aig, &sum);
    add_word_outputs(&mut aig, &root);
    aig
}

fn gen_mul(n: usize) -> Aig {
    let mut aig = Aig::new(2 * n);
    let a = pi_word(&mut aig, 0, n);
    let b = pi_word(&mut aig, n, n);
    let p = mul(&mut aig, &a, &b);
    add_word_outputs(&mut aig, &p);
    aig
}

fn gen_square(n: usize) -> Aig {
    let mut aig = Aig::new(n);
    let a = pi_word(&mut aig, 0, n);
    let p = mul(&mut aig, &a, &a);
    add_word_outputs(&mut aig, &p);
    aig
}

fn gen_max(n: usize) -> Aig {
    let mut aig = Aig::new(4 * n);
    let words: Vec<Word> = (0..4).map(|k| pi_word(&mut aig, k * n, n)).collect();
    // Pairwise maxima with index tracking.
    let lt01 = less_than(&mut aig, &words[0], &words[1]);
    let m01 = mux_word(&mut aig, lt01, &words[1], &words[0]);
    let lt23 = less_than(&mut aig, &words[2], &words[3]);
    let m23 = mux_word(&mut aig, lt23, &words[3], &words[2]);
    let lt = less_than(&mut aig, &m01, &m23);
    let m = mux_word(&mut aig, lt, &m23, &m01);
    add_word_outputs(&mut aig, &m);
    // Two-bit argmax index, as in the EPFL circuit's wider output.
    let low_index = aig.mux(lt, lt23, lt01);
    aig.add_po(low_index);
    aig.add_po(lt);
    aig
}

/// Number of integer bits of the log2 output for an `n`-bit input.
pub fn log2_int_bits(n: usize) -> usize {
    usize::BITS as usize - (n - 1).leading_zeros() as usize
}

/// Number of fraction bits of the log2 output for an `n`-bit input.
pub fn log2_frac_bits(n: usize) -> usize {
    (n / 3).max(2)
}

fn gen_log2(n: usize) -> Aig {
    let int_bits = log2_int_bits(n);
    let frac_bits = log2_frac_bits(n);
    let mut aig = Aig::new(n);
    let x = pi_word(&mut aig, 0, n);
    // Leading-one detection: sel[k] = x[k] & !(x[k+1] | … | x[n-1]).
    let mut any_higher = Lit::FALSE;
    let mut sel = vec![Lit::FALSE; n];
    for k in (0..n).rev() {
        sel[k] = aig.and(x[k], !any_higher);
        any_higher = aig.or(any_higher, x[k]);
    }
    // Integer part: OR of gated position constants.
    let mut int_part = constant(0, int_bits);
    for (k, &s) in sel.iter().enumerate() {
        for (b, ip) in int_part.iter_mut().enumerate() {
            if k >> b & 1 == 1 {
                *ip = aig.or(*ip, s);
            }
        }
    }
    // Normalised mantissa: m = x << (n-1-k) for the detected k.
    let mut mantissa = constant(0, n);
    for (k, &s) in sel.iter().enumerate() {
        let shifted = shift_left(&x, n - 1 - k);
        for (b, m) in mantissa.iter_mut().enumerate() {
            let gated = aig.and(shifted[b], s);
            *m = aig.or(*m, gated);
        }
    }
    // Digit recurrence: square the mantissa; an overflow past 2 emits a 1.
    let mut frac = Vec::with_capacity(frac_bits);
    let mut m = mantissa;
    for _ in 0..frac_bits {
        let sq = mul(&mut aig, &m, &m); // 2n bits, value m² with 2(n-1) frac bits
                                        // Renormalise to n+1 bits with n-1 fraction bits.
        let top: Word = sq[(n - 1)..(2 * n)].to_vec();
        let bit = top[n]; // ≥ 2.0
        frac.push(bit);
        let halved: Word = top[1..=n].to_vec();
        let kept: Word = top[0..n].to_vec();
        m = mux_word(&mut aig, bit, &halved, &kept);
    }
    add_word_outputs(&mut aig, &int_part);
    // Fraction bits most-significant first in the recurrence; emit in
    // little-endian output order (LSB = last computed digit).
    for &b in frac.iter().rev() {
        aig.add_po(b);
    }
    aig
}

/// CORDIC constants in `Qs.(n-2)` fixed point.
fn cordic_constants(n: usize) -> (i64, Vec<i64>) {
    let frac = (n - 2) as i32;
    let scale = f64::powi(2.0, frac);
    let k = (0.607_252_935_008_881_3 * scale).round() as i64;
    let atans: Vec<i64> = (0..n)
        .map(|i| ((f64::powi(2.0, -(i as i32))).atan() * scale).round() as i64)
        .collect();
    (k, atans)
}

fn gen_sin(n: usize) -> Aig {
    let (k, atans) = cordic_constants(n);
    let mut aig = Aig::new(n);
    let mut z = pi_word(&mut aig, 0, n);
    let mut x = constant(k as u64, n);
    let mut y = constant(0, n);
    for (i, &atan) in atans.iter().enumerate() {
        let neg = *z.last().expect("non-empty word"); // z < 0
        let dx = shift_right_arith(&x, i);
        let dy = shift_right_arith(&y, i);
        let dz = constant(atan as u64, n);
        // z ≥ 0 (neg=0): x -= dy, y += dx, z -= atan; else the opposite.
        let x2 = add_sub(&mut aig, &x, &dy, !neg);
        let y2 = add_sub(&mut aig, &y, &dx, neg);
        let z2 = add_sub(&mut aig, &z, &dz, !neg);
        x = x2;
        y = y2;
        z = z2;
    }
    add_word_outputs(&mut aig, &y);
    aig
}

// ---------------------------------------------------------------------------
// Reference models (bit-exact integer mirrors of the generators)
// ---------------------------------------------------------------------------

/// Bit-exact integer models of every generator, used by tests and examples
/// to validate the circuits via simulation.
pub mod model {
    use super::{cordic_constants, log2_frac_bits, log2_int_bits};

    fn mask(bits: usize) -> u128 {
        if bits >= 128 {
            u128::MAX
        } else {
            (1u128 << bits) - 1
        }
    }

    /// `a + b` with full carry (n+1 bits).
    pub fn adder(a: u128, b: u128, _n: usize) -> u128 {
        a + b
    }

    /// Left-rotation of an `n`-bit word.
    pub fn barrel(x: u128, shift: u32, n: usize) -> u128 {
        let s = shift as usize % n;
        ((x << s) | (x >> (n - s).min(127))) & mask(n) | if s == 0 { x & mask(n) } else { 0 }
    }

    /// Restoring division; returns `(quotient, remainder)`. Mirrors the
    /// circuit exactly, including the divide-by-zero behaviour (all-ones
    /// quotient).
    pub fn div(dividend: u128, divisor: u128, n: usize) -> (u128, u128) {
        let w = n + 1;
        let mut rem: u128 = 0;
        let mut q: u128 = 0;
        for i in (0..n).rev() {
            rem = ((rem << 1) | (dividend >> i & 1)) & mask(w);
            if rem >= divisor {
                rem = (rem - divisor) & mask(w);
                q |= 1 << i;
            }
        }
        (q, rem & mask(n))
    }

    /// Restoring square root over a `2m`-bit radicand (circuit-exact).
    pub fn sqrt(x: u128, n: usize) -> u128 {
        let m = n / 2;
        let w = m + 4;
        let mut rem: u128 = 0;
        let mut root: u128 = 0;
        let mut bits: u128 = 0;
        for i in (0..m).rev() {
            rem = ((rem << 2) | (x >> (2 * i) & 3)) & mask(w);
            let trial = ((root << 2) | 1) & mask(w);
            if rem >= trial {
                rem = (rem - trial) & mask(w);
                bits |= 1 << i;
                root = ((root << 1) | 1) & mask(w);
            } else {
                root = (root << 1) & mask(w);
            }
        }
        bits
    }

    /// `⌊√(a² + b²)⌋` (circuit-exact digit recurrence).
    pub fn hyp(a: u128, b: u128, n: usize) -> u128 {
        sqrt(a * a + b * b, 2 * n + 2)
    }

    /// Four-way maximum plus the 2-bit argmax index, packed as
    /// `(max, index)`.
    pub fn max4(ws: [u128; 4]) -> (u128, u32) {
        let lt01 = ws[0] < ws[1];
        let m01 = if lt01 { ws[1] } else { ws[0] };
        let lt23 = ws[2] < ws[3];
        let m23 = if lt23 { ws[3] } else { ws[2] };
        let lt = m01 < m23;
        let m = if lt { m23 } else { m01 };
        let low = if lt { lt23 } else { lt01 };
        (m, (low as u32) | (lt as u32) << 1)
    }

    /// `a * b`.
    pub fn multiplier(a: u128, b: u128) -> u128 {
        a * b
    }

    /// Fixed-point log2: returns `(int_part, frac_bits_le)` exactly as the
    /// circuit computes them.
    pub fn log2(x: u128, n: usize) -> (u128, u128) {
        let int_bits = log2_int_bits(n);
        let frac_bits = log2_frac_bits(n);
        let _ = int_bits;
        if x == 0 {
            // LOD finds nothing: integer part 0, zero mantissa.
            return (0, 0);
        }
        let k = 127 - x.leading_zeros() as usize;
        let int_part = k as u128;
        let mut m = (x << (n - 1 - k)) & mask(n);
        let mut frac: u128 = 0;
        for j in 0..frac_bits {
            let sq = m * m;
            let top = (sq >> (n - 1)) & mask(n + 1);
            let bit = top >> n & 1;
            // Fraction digit j is emitted MSB-first; output is little-endian.
            if bit == 1 {
                frac |= 1 << (frac_bits - 1 - j);
                m = (top >> 1) & mask(n);
            } else {
                m = top & mask(n);
            }
        }
        (int_part, frac)
    }

    /// CORDIC sine in `Q2.(n-2)` fixed point (circuit-exact).
    pub fn sine(angle: u128, n: usize) -> u128 {
        let (k, atans) = cordic_constants(n);
        let m = mask(n);
        let sign_bit = 1u128 << (n - 1);
        let sar = |v: u128, s: usize| -> u128 {
            // Arithmetic right shift within n bits: the top s bits take the
            // sign value.
            let mut out = v >> s.min(127);
            if v & sign_bit != 0 {
                out |= m & !(m >> s.min(127));
            }
            out & m
        };
        let add_n = |a: u128, b: u128| (a + b) & m;
        let sub_n = |a: u128, b: u128| (a.wrapping_sub(b)) & m;
        let mut x = (k as u128) & m;
        let mut y: u128 = 0;
        let mut z = angle & m;
        for (i, &atan) in atans.iter().enumerate() {
            let neg = z & sign_bit != 0;
            let dx = sar(x, i);
            let dy = sar(y, i);
            let dz = (atan as u128) & m;
            if neg {
                x = add_n(x, dy);
                y = sub_n(y, dx);
                z = add_n(z, dz);
            } else {
                x = sub_n(x, dy);
                y = add_n(y, dx);
                z = sub_n(z, dz);
            }
        }
        y
    }

    /// `a²`.
    pub fn square(a: u128) -> u128 {
        a * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Simulates a circuit on a single concrete input assignment.
    fn run(aig: &Aig, input_bits: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = input_bits.iter().map(|&b| b as u64).collect();
        aig.simulate(&words).iter().map(|w| w & 1 == 1).collect()
    }

    fn to_bits(value: u128, width: usize) -> Vec<bool> {
        (0..width).map(|i| value >> i & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u128 {
        bits.iter()
            .enumerate()
            .fold(0u128, |acc, (i, &b)| acc | (b as u128) << i)
    }

    fn rand_val(rng: &mut StdRng, bits: usize) -> u128 {
        let v: u128 = ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128;
        v & ((1u128 << bits) - 1)
    }

    #[test]
    fn adder_matches_model() {
        let n = 10;
        let aig = CircuitSpec::new(Benchmark::Adder).bits(n).build();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..30 {
            let (a, b) = (rand_val(&mut rng, n), rand_val(&mut rng, n));
            let mut input = to_bits(a, n);
            input.extend(to_bits(b, n));
            let out = from_bits(&run(&aig, &input));
            assert_eq!(out, model::adder(a, b, n), "{a}+{b}");
        }
    }

    #[test]
    fn barrel_matches_model() {
        let n = 16;
        let aig = CircuitSpec::new(Benchmark::BarrelShifter).bits(n).build();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let x = rand_val(&mut rng, n);
            let s = rng.gen_range(0..n as u32);
            let mut input = to_bits(x, n);
            input.extend(to_bits(s as u128, 4));
            let out = from_bits(&run(&aig, &input));
            assert_eq!(out, model::barrel(x, s, n), "rot({x:#x},{s})");
        }
    }

    #[test]
    fn divisor_matches_model() {
        let n = 8;
        let aig = CircuitSpec::new(Benchmark::Divisor).bits(n).build();
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..40 {
            let a = rand_val(&mut rng, n);
            let b = if trial == 0 { 0 } else { rand_val(&mut rng, n) };
            let mut input = to_bits(a, n);
            input.extend(to_bits(b, n));
            let out = run(&aig, &input);
            let q = from_bits(&out[0..n]);
            let r = from_bits(&out[n..2 * n]);
            let (mq, mr) = model::div(a, b, n);
            assert_eq!((q, r), (mq, mr), "div({a},{b})");
            if let (Some(tq), Some(tr)) = (a.checked_div(b), a.checked_rem(b)) {
                assert_eq!((q, r), (tq, tr), "true quotient/remainder");
            }
        }
    }

    #[test]
    fn sqrt_matches_model_and_math() {
        let n = 16;
        let aig = CircuitSpec::new(Benchmark::SquareRoot).bits(n).build();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            let x = rand_val(&mut rng, n);
            let out = from_bits(&run(&aig, &to_bits(x, n)));
            assert_eq!(out, model::sqrt(x, n), "sqrt({x})");
            assert_eq!(out, (x as f64).sqrt().floor() as u128, "⌊√{x}⌋");
        }
    }

    #[test]
    fn hypotenuse_matches_model_and_math() {
        let n = 6;
        let aig = CircuitSpec::new(Benchmark::Hypotenuse).bits(n).build();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let (a, b) = (rand_val(&mut rng, n), rand_val(&mut rng, n));
            let mut input = to_bits(a, n);
            input.extend(to_bits(b, n));
            let out = from_bits(&run(&aig, &input));
            assert_eq!(out, model::hyp(a, b, n), "hyp({a},{b})");
            let true_val = ((a * a + b * b) as f64).sqrt().floor() as u128;
            assert_eq!(out, true_val, "⌊√({a}²+{b}²)⌋");
        }
    }

    #[test]
    fn max_matches_model() {
        let n = 8;
        let aig = CircuitSpec::new(Benchmark::Max).bits(n).build();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..30 {
            let ws = [
                rand_val(&mut rng, n),
                rand_val(&mut rng, n),
                rand_val(&mut rng, n),
                rand_val(&mut rng, n),
            ];
            let mut input = Vec::new();
            for w in ws {
                input.extend(to_bits(w, n));
            }
            let out = run(&aig, &input);
            let m = from_bits(&out[0..n]);
            let idx = from_bits(&out[n..n + 2]) as u32;
            let (mm, mi) = model::max4(ws);
            assert_eq!((m, idx), (mm, mi), "max{ws:?}");
            assert_eq!(m, *ws.iter().max().expect("four values"));
        }
    }

    #[test]
    fn multiplier_and_square_match_model() {
        let n = 7;
        let mul_aig = CircuitSpec::new(Benchmark::Multiplier).bits(n).build();
        let sq_aig = CircuitSpec::new(Benchmark::Square).bits(n).build();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let (a, b) = (rand_val(&mut rng, n), rand_val(&mut rng, n));
            let mut input = to_bits(a, n);
            input.extend(to_bits(b, n));
            assert_eq!(from_bits(&run(&mul_aig, &input)), a * b, "{a}*{b}");
            assert_eq!(from_bits(&run(&sq_aig, &to_bits(a, n))), a * a, "{a}²");
        }
    }

    #[test]
    fn log2_matches_model_and_math() {
        let n = 8;
        let aig = CircuitSpec::new(Benchmark::Log2).bits(n).build();
        let ib = log2_int_bits(n);
        let fb = log2_frac_bits(n);
        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..40 {
            let x = if trial == 0 {
                1
            } else {
                rand_val(&mut rng, n).max(1)
            };
            let out = run(&aig, &to_bits(x, n));
            let int_part = from_bits(&out[0..ib]);
            let frac = from_bits(&out[ib..ib + fb]);
            let (mi, mf) = model::log2(x, n);
            assert_eq!((int_part, frac), (mi, mf), "log2({x})");
            assert_eq!(int_part, (127 - x.leading_zeros()) as u128, "⌊log2({x})⌋");
        }
    }

    #[test]
    fn log2_fraction_approximates_real_log() {
        let n = 8;
        let fb = log2_frac_bits(n);
        for x in [3u128, 5, 100, 200, 255] {
            let (i, f) = model::log2(x, n);
            let approx = i as f64 + f as f64 / f64::powi(2.0, fb as i32);
            let real = (x as f64).log2();
            assert!((approx - real).abs() < 0.3, "log2({x}): {approx} vs {real}");
        }
    }

    #[test]
    fn sine_matches_model() {
        let n = 8;
        let aig = CircuitSpec::new(Benchmark::Sine).bits(n).build();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..40 {
            let angle = rand_val(&mut rng, n);
            let out = from_bits(&run(&aig, &to_bits(angle, n)));
            assert_eq!(out, model::sine(angle, n), "sin({angle:#x})");
        }
    }

    #[test]
    fn sine_approximates_real_sine() {
        let n = 12;
        let frac = (n - 2) as i32;
        let scale = f64::powi(2.0, frac);
        for deg in [-45i32, -20, 0, 10, 30, 60, 80] {
            let rad = f64::from(deg).to_radians();
            let fixed = ((rad * scale).round() as i64) as u128 & ((1 << n) - 1);
            let y = model::sine(fixed, n);
            // Interpret as signed.
            let signed = if y >> (n - 1) & 1 == 1 {
                y as i64 - (1i64 << n)
            } else {
                y as i64
            };
            let approx = signed as f64 / scale;
            assert!(
                (approx - rad.sin()).abs() < 0.05,
                "sin({deg}°): {approx} vs {}",
                rad.sin()
            );
        }
    }

    #[test]
    fn check_bits_takes_the_defaults_and_refuses_what_a_generator_cannot_build() {
        for b in Benchmark::ALL {
            assert_eq!(b.check_bits(b.default_bits()), Ok(()), "{b}");
        }
        assert_eq!(
            Benchmark::BarrelShifter.check_bits(6).unwrap_err(),
            "6 is not a width bar supports: 2 to 64 bits, a power of two, \
             within bar's paper width of 128"
        );
        for (b, bits, rule) in [
            (Benchmark::Adder, 0, "2 to 64 bits, within"),
            (Benchmark::Adder, 1, "2 to 64 bits, within"),
            (Benchmark::Adder, 65, "2 to 64 bits, within"),
            (Benchmark::Adder, 129, "within adder's paper width of 128"),
            (Benchmark::SquareRoot, 7, "2 to 64 bits, even"),
            (Benchmark::Sine, 3, "4 to 24 bits, within"),
            (Benchmark::Sine, 25, "4 to 24 bits, within"),
            (Benchmark::Log2, 33, "4 to 32 bits, within"),
        ] {
            let err = b.check_bits(bits).expect_err(rule);
            let head = format!("{bits} is not a width {b} supports");
            assert!(err.starts_with(&head) && err.contains(rule), "{err}");
        }
        assert_eq!(Benchmark::Log2.check_bits(32), Ok(()));
        assert_eq!(Benchmark::BarrelShifter.check_bits(64), Ok(()));
    }

    #[test]
    fn all_benchmarks_build_and_validate() {
        for b in Benchmark::ALL {
            let aig = CircuitSpec::new(b).build();
            aig.check().expect("valid AIG");
            assert!(aig.num_ands() > 0, "{b} is not trivial");
            assert!(aig.num_pos() > 0);
        }
    }

    #[test]
    fn default_sizes_are_benchmark_scale() {
        // The harness relies on circuits being non-trivial but tractable.
        for b in Benchmark::ALL {
            let aig = CircuitSpec::new(b).build();
            let ands = aig.num_ands();
            assert!(
                (50..20_000).contains(&ands),
                "{b}: {ands} gates out of expected range"
            );
        }
    }
}
