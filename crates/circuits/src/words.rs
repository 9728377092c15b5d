//! Word-level construction helpers: little-endian bit vectors with ripple
//! arithmetic, comparisons, muxing, shifting and array multiplication.

use boils_aig::{Aig, Lit};

/// A little-endian word of literals (bit 0 first).
pub type Word = Vec<Lit>;

/// A constant word of the given width.
pub fn constant(value: u64, width: usize) -> Word {
    (0..width)
        .map(|i| {
            if i < 64 && value >> i & 1 == 1 {
                Lit::TRUE
            } else {
                Lit::FALSE
            }
        })
        .collect()
}

/// Zero-extends (or truncates) a word to `width` bits.
pub fn resize(w: &Word, width: usize) -> Word {
    let mut out = w.clone();
    out.resize(width, Lit::FALSE);
    out.truncate(width);
    out
}

/// One-bit full adder; returns `(sum, carry)`.
pub fn full_add(aig: &mut Aig, a: Lit, b: Lit, c: Lit) -> (Lit, Lit) {
    let ab = aig.xor(a, b);
    let sum = aig.xor(ab, c);
    let carry = aig.maj(a, b, c);
    (sum, carry)
}

/// Ripple-carry addition of equal-width words; returns `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn add(aig: &mut Aig, a: &Word, b: &Word, carry_in: Lit) -> (Word, Lit) {
    assert_eq!(a.len(), b.len(), "addend width mismatch");
    let mut carry = carry_in;
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (s, c) = full_add(aig, x, y, carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Two's-complement subtraction `a - b`; returns `(difference, borrow)`
/// where `borrow` is true iff `a < b` (unsigned).
pub fn sub(aig: &mut Aig, a: &Word, b: &Word) -> (Word, Lit) {
    let nb: Word = b.iter().map(|&l| !l).collect();
    let (diff, carry) = add(aig, a, &nb, Lit::TRUE);
    (diff, !carry)
}

/// Adds or subtracts under a control: `sel ? a - b : a + b`.
pub fn add_sub(aig: &mut Aig, a: &Word, b: &Word, subtract: Lit) -> Word {
    let eb: Word = b.iter().map(|&l| aig.xor(l, subtract)).collect();
    let (out, _) = add(aig, a, &eb, subtract);
    out
}

/// Unsigned `a < b`.
pub fn less_than(aig: &mut Aig, a: &Word, b: &Word) -> Lit {
    let (_, borrow) = sub(aig, a, b);
    borrow
}

/// Bitwise 2:1 word multiplexer `sel ? t : e`.
///
/// # Panics
///
/// Panics if the word widths differ.
pub fn mux_word(aig: &mut Aig, sel: Lit, t: &Word, e: &Word) -> Word {
    assert_eq!(t.len(), e.len(), "mux width mismatch");
    t.iter().zip(e).map(|(&x, &y)| aig.mux(sel, x, y)).collect()
}

/// Left-rotates a word by a fixed amount (wiring only).
pub fn rotate_left(w: &Word, k: usize) -> Word {
    let n = w.len();
    (0..n).map(|i| w[(i + n - k % n) % n]).collect()
}

/// Logical left shift by a fixed amount (wiring only).
pub fn shift_left(w: &Word, k: usize) -> Word {
    let n = w.len();
    (0..n)
        .map(|i| if i < k { Lit::FALSE } else { w[i - k] })
        .collect()
}

/// Arithmetic right shift by a fixed amount (wiring only).
pub fn shift_right_arith(w: &Word, k: usize) -> Word {
    let n = w.len();
    let sign = *w.last().expect("non-empty word");
    (0..n)
        .map(|i| if i + k < n { w[i + k] } else { sign })
        .collect()
}

/// Bitwise AND of a word with a single literal.
pub fn gate_word(aig: &mut Aig, w: &Word, enable: Lit) -> Word {
    w.iter().map(|&l| aig.and(l, enable)).collect()
}

/// Unsigned array multiplication; the product has `a.len() + b.len()` bits.
pub fn mul(aig: &mut Aig, a: &Word, b: &Word) -> Word {
    let out_width = a.len() + b.len();
    let mut acc = constant(0, out_width);
    for (i, &bi) in b.iter().enumerate() {
        let pp = gate_word(aig, a, bi);
        let shifted = resize(&shift_left(&resize(&pp, out_width), i), out_width);
        let (next, _) = add(aig, &acc, &shifted, Lit::FALSE);
        acc = next;
    }
    acc
}

/// Equality comparison of two equal-width words.
pub fn equal(aig: &mut Aig, a: &Word, b: &Word) -> Lit {
    assert_eq!(a.len(), b.len());
    let bits: Vec<Lit> = a.iter().zip(b).map(|(&x, &y)| aig.xnor(x, y)).collect();
    aig.and_many(&bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates a word-level circuit on concrete inputs via simulation.
    fn eval(aig: &Aig, inputs: &[(usize, u64, usize)]) -> Vec<u64> {
        // inputs: (pi offset, value, width)
        let mut words = vec![0u64; aig.num_pis()];
        for &(offset, value, width) in inputs {
            for i in 0..width {
                words[offset + i] = (value >> i & 1) * !0u64;
            }
        }
        aig.simulate(&words).iter().map(|w| w & 1).collect()
    }

    fn word_out(bits: &[u64]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (b & 1) << i)
    }

    #[test]
    fn add_and_sub_match_integers() {
        let mut aig = Aig::new(16);
        let a: Word = (0..8).map(|i| aig.pi(i)).collect();
        let b: Word = (8..16).map(|i| aig.pi(i)).collect();
        let (sum, carry) = add(&mut aig, &a, &b, Lit::FALSE);
        let (diff, borrow) = sub(&mut aig, &a, &b);
        for l in sum {
            aig.add_po(l);
        }
        aig.add_po(carry);
        for l in diff {
            aig.add_po(l);
        }
        aig.add_po(borrow);
        for (x, y) in [(3u64, 5u64), (200, 57), (255, 255), (0, 0), (13, 200)] {
            let out = eval(&aig, &[(0, x, 8), (8, y, 8)]);
            let sum_val = word_out(&out[0..8]) | (out[8] & 1) << 8;
            assert_eq!(sum_val, x + y, "sum({x},{y})");
            let diff_val = word_out(&out[9..17]);
            assert_eq!(diff_val, x.wrapping_sub(y) & 0xFF, "diff({x},{y})");
            assert_eq!(out[17] & 1, (x < y) as u64, "borrow({x},{y})");
        }
    }

    #[test]
    fn mul_matches_integers() {
        let mut aig = Aig::new(12);
        let a: Word = (0..6).map(|i| aig.pi(i)).collect();
        let b: Word = (6..12).map(|i| aig.pi(i)).collect();
        let p = mul(&mut aig, &a, &b);
        for l in p {
            aig.add_po(l);
        }
        for (x, y) in [(0u64, 0u64), (1, 63), (63, 63), (21, 3), (42, 17)] {
            let out = eval(&aig, &[(0, x, 6), (6, y, 6)]);
            assert_eq!(word_out(&out), x * y, "mul({x},{y})");
        }
    }

    #[test]
    fn comparisons_and_mux() {
        let mut aig = Aig::new(9);
        let a: Word = (0..4).map(|i| aig.pi(i)).collect();
        let b: Word = (4..8).map(|i| aig.pi(i)).collect();
        let sel = aig.pi(8);
        let lt = less_than(&mut aig, &a, &b);
        let eq = equal(&mut aig, &a, &b);
        let m = mux_word(&mut aig, sel, &a, &b);
        aig.add_po(lt);
        aig.add_po(eq);
        for l in m {
            aig.add_po(l);
        }
        for (x, y, s) in [(3u64, 9u64, 1u64), (9, 3, 0), (7, 7, 1), (0, 15, 0)] {
            let out = eval(&aig, &[(0, x, 4), (4, y, 4), (8, s, 1)]);
            assert_eq!(out[0] & 1, (x < y) as u64);
            assert_eq!(out[1] & 1, (x == y) as u64);
            assert_eq!(word_out(&out[2..6]), if s == 1 { x } else { y });
        }
    }

    #[test]
    fn shifts_are_pure_wiring() {
        let mut aig = Aig::new(8);
        let w: Word = (0..8).map(|i| aig.pi(i)).collect();
        let before = aig.num_ands();
        let r = rotate_left(&w, 3);
        let s = shift_left(&w, 2);
        let a = shift_right_arith(&w, 2);
        assert_eq!(aig.num_ands(), before, "shifts must not add gates");
        for l in r.into_iter().chain(s).chain(a) {
            aig.add_po(l);
        }
        let out = eval(&aig, &[(0, 0b1011_0001, 8)]);
        assert_eq!(word_out(&out[0..8]), 0b1000_1101); // rotl 3
        assert_eq!(word_out(&out[8..16]), 0b1100_0100); // shl 2
        assert_eq!(word_out(&out[16..24]), 0b1110_1100); // sar 2 (sign = 1)
    }
}
