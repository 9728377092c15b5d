//! Synthesis of small AIG structures from truth tables: algebraic
//! factoring of ISOP covers (rewrite/refactor), balanced two-level SOP
//! construction (`sopb`), Shannon/mux decomposition (`blut`) and a
//! disjoint-support-style peeling decomposition (`dsdb`).
//!
//! All builders return a *template*: an [`Aig`] whose primary inputs stand
//! for the cut leaves and whose single output is the synthesised function.

use boils_aig::{Aig, Lit};

use crate::tt::{isop, Cube, Tt};

/// Builds a template computing `f` by factoring an irredundant SOP cover.
///
/// Both polarities are synthesised and the structurally smaller one wins
/// (complementation is free on AIG edges).
pub fn tt_to_factored_template(f: &Tt) -> Aig {
    let pos = factored_template(f);
    let neg = {
        let mut t = factored_template(&f.not());
        let po = t.po(0);
        t.set_po(0, !po);
        t
    };
    if neg.num_ands() < pos.num_ands() {
        neg
    } else {
        pos
    }
}

fn factored_template(f: &Tt) -> Aig {
    let n = f.num_vars();
    let mut aig = Aig::new(n);
    let cover = isop(f);
    let lit = factor_cover(&mut aig, &cover);
    aig.add_po(lit);
    aig
}

/// Recursive quick-factoring: pull out the most frequent literal `l`,
/// factor as `f = l · q + r`, falling back to two-level construction when
/// no literal is shared.
fn factor_cover(aig: &mut Aig, cover: &[Cube]) -> Lit {
    if cover.is_empty() {
        return Lit::FALSE;
    }
    if cover.iter().any(|c| c.num_lits() == 0) {
        return Lit::TRUE;
    }
    if cover.len() == 1 {
        return build_cube(aig, cover[0]);
    }
    // Count literal occurrences (positive and negative separately).
    let mut best: Option<(usize, bool, usize)> = None; // (var, negated, count)
    for v in 0..32 {
        let pos_count = cover.iter().filter(|c| c.pos >> v & 1 == 1).count();
        let neg_count = cover.iter().filter(|c| c.neg >> v & 1 == 1).count();
        for (neg, count) in [(false, pos_count), (true, neg_count)] {
            if count >= 2 && best.is_none_or(|(_, _, c)| count > c) {
                best = Some((v, neg, count));
            }
        }
    }
    match best {
        None => {
            // No shared literal: sum the cubes as a balanced OR.
            let terms: Vec<Lit> = cover.iter().map(|&c| build_cube(aig, c)).collect();
            aig.or_many(&terms)
        }
        Some((v, neg, _)) => {
            let bit = 1u32 << v;
            let mut quotient = Vec::new();
            let mut remainder = Vec::new();
            for &c in cover {
                let has = if neg {
                    c.neg & bit != 0
                } else {
                    c.pos & bit != 0
                };
                if has {
                    let mut q = c;
                    if neg {
                        q.neg &= !bit;
                    } else {
                        q.pos &= !bit;
                    }
                    quotient.push(q);
                } else {
                    remainder.push(c);
                }
            }
            let lit = aig.pi(v).xor_complement(neg);
            let q = factor_cover(aig, &quotient);
            let lq = aig.and(lit, q);
            let r = factor_cover(aig, &remainder);
            aig.or(lq, r)
        }
    }
}

fn build_cube(aig: &mut Aig, cube: Cube) -> Lit {
    let mut lits = Vec::with_capacity(cube.num_lits() as usize);
    for v in 0..32 {
        if cube.pos >> v & 1 == 1 {
            lits.push(aig.pi(v));
        }
        if cube.neg >> v & 1 == 1 {
            lits.push(!aig.pi(v));
        }
    }
    aig.and_many(&lits)
}

/// Builds a template as a balanced two-level SOP (no factoring): each ISOP
/// cube becomes a balanced AND tree and the cubes a balanced OR tree.
///
/// This is the per-LUT resynthesis used by the `sopb` transform.
pub fn tt_to_sop_template(f: &Tt) -> Aig {
    let n = f.num_vars();
    let mut aig = Aig::new(n);
    let cover = isop(f);
    let terms: Vec<Lit> = cover.iter().map(|&c| build_cube(&mut aig, c)).collect();
    let lit = aig.or_many(&terms);
    aig.add_po(lit);
    aig
}

/// Builds a template by recursive Shannon (mux) decomposition, expanding on
/// the variable that most unbalances the cofactors' support — the per-LUT
/// resynthesis used by the `blut` transform.
pub fn tt_to_shannon_template(f: &Tt) -> Aig {
    let mut aig = Aig::new(f.num_vars());
    let lit = shannon_rec(&mut aig, f);
    aig.add_po(lit);
    aig
}

fn shannon_rec(aig: &mut Aig, f: &Tt) -> Lit {
    if let Some(lit) = trivial_function(aig, f) {
        return lit;
    }
    // Choose the variable whose cofactors have the smallest joint support.
    let x = split_var(f);
    let f0 = shannon_rec(aig, &f.cofactor0(x));
    let f1 = shannon_rec(aig, &f.cofactor1(x));
    let sel = aig.pi(x);
    aig.mux(sel, f1, f0)
}

/// Builds a template by peeling disjoint decompositions: while some
/// variable `x` combines with the rest as `x ∧ g`, `x ∨ g` or `x ⊕ g`, emit
/// that gate and recurse on `g`; otherwise fall back to Shannon expansion.
///
/// This approximates disjoint-support decomposition (DSD) and is the
/// per-LUT resynthesis used by the `dsdb` transform.
pub fn tt_to_dsd_template(f: &Tt) -> Aig {
    let mut aig = Aig::new(f.num_vars());
    let lit = dsd_rec(&mut aig, f);
    aig.add_po(lit);
    aig
}

fn dsd_rec(aig: &mut Aig, f: &Tt) -> Lit {
    if let Some(lit) = trivial_function(aig, f) {
        return lit;
    }
    for v in f.support_vars() {
        let (c0, c1) = (f.cofactor0(v), f.cofactor1(v));
        let x = aig.pi(v);
        // f = x ∧ g  ⇔  f|x=0 ≡ 0
        if c0.is_zero() {
            let g = dsd_rec(aig, &c1);
            return aig.and(x, g);
        }
        // f = ¬x ∧ g  ⇔  f|x=1 ≡ 0
        if c1.is_zero() {
            let g = dsd_rec(aig, &c0);
            return aig.and(!x, g);
        }
        // f = x ∨ g  ⇔  f|x=1 ≡ 1
        if c1.is_one() {
            let g = dsd_rec(aig, &c0);
            return aig.or(x, g);
        }
        // f = ¬x ∨ g  ⇔  f|x=0 ≡ 1
        if c0.is_one() {
            let g = dsd_rec(aig, &c1);
            return aig.or(!x, g);
        }
        // f = x ⊕ g  ⇔  cofactors are complementary
        if c0 == c1.not() {
            let g = dsd_rec(aig, &c0);
            return aig.xor(x, g);
        }
    }
    // Prime function: Shannon-expand one level and keep peeling below.
    let x = split_var(f);
    let f0 = dsd_rec(aig, &f.cofactor0(x));
    let f1 = dsd_rec(aig, &f.cofactor1(x));
    let sel = aig.pi(x);
    aig.mux(sel, f1, f0)
}

/// The support variable whose cofactors have the smallest joint support
/// (the first such in ascending order).
fn split_var(f: &Tt) -> usize {
    f.support_vars()
        .min_by_key(|&v| {
            f.cofactor0(v).support_vars().count() + f.cofactor1(v).support_vars().count()
        })
        .expect("non-trivial function has support")
}

fn trivial_function(aig: &mut Aig, f: &Tt) -> Option<Lit> {
    if f.is_zero() {
        return Some(Lit::FALSE);
    }
    if f.is_one() {
        return Some(Lit::TRUE);
    }
    let mut support = f.support_vars();
    if let (Some(v), None) = (support.next(), support.next()) {
        let lit = aig.pi(v);
        return if *f == Tt::var(f.num_vars(), v) {
            Some(lit)
        } else {
            Some(!lit)
        };
    }
    None
}

/// Verifies that a template computes `f` (exhaustively).
#[cfg(test)]
fn template_function(template: &Aig) -> Tt {
    let tts = template.simulate_exhaustive();
    Tt::from_words(template.num_pis(), tts[0].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tt::cover_function;

    fn cases() -> Vec<Tt> {
        vec![
            Tt::zero(3),
            Tt::one(3),
            Tt::var(4, 2),
            Tt::var(4, 2).not(),
            Tt::var(3, 0).xor(&Tt::var(3, 1)).xor(&Tt::var(3, 2)),
            // majority
            Tt::var(3, 0)
                .and(&Tt::var(3, 1))
                .or(&Tt::var(3, 0).and(&Tt::var(3, 2)))
                .or(&Tt::var(3, 1).and(&Tt::var(3, 2))),
            // random-ish 5-var function
            Tt::from_u64(5, 0x8000_0401_DEAD_BEEF),
            // 6-var
            Tt::from_u64(6, 0x0123_4567_89AB_CDEF),
        ]
    }

    #[test]
    fn factored_templates_are_correct() {
        for f in cases() {
            let t = tt_to_factored_template(&f);
            assert_eq!(template_function(&t), f, "factored template wrong");
            t.check().unwrap();
        }
    }

    #[test]
    fn sop_templates_are_correct() {
        for f in cases() {
            let t = tt_to_sop_template(&f);
            assert_eq!(template_function(&t), f, "sop template wrong");
        }
    }

    #[test]
    fn shannon_templates_are_correct() {
        for f in cases() {
            let t = tt_to_shannon_template(&f);
            assert_eq!(template_function(&t), f, "shannon template wrong");
        }
    }

    #[test]
    fn dsd_templates_are_correct() {
        for f in cases() {
            let t = tt_to_dsd_template(&f);
            assert_eq!(template_function(&t), f, "dsd template wrong");
        }
    }

    #[test]
    fn dsd_exploits_decomposable_structure() {
        // f = x0 ⊕ (x1 ∨ (x2 ∧ x3)) is fully peelable: DSD needs few gates.
        let f = Tt::var(4, 0).xor(&Tt::var(4, 1).or(&Tt::var(4, 2).and(&Tt::var(4, 3))));
        let t = tt_to_dsd_template(&f);
        assert_eq!(template_function(&t), f);
        assert!(t.num_ands() <= 6, "expected compact DSD structure");
    }

    #[test]
    fn factoring_beats_two_level_on_shared_literals() {
        // f = x0x1 + x0x2 + x0x3: factoring shares x0.
        let f = Tt::var(4, 0)
            .and(&Tt::var(4, 1))
            .or(&Tt::var(4, 0).and(&Tt::var(4, 2)))
            .or(&Tt::var(4, 0).and(&Tt::var(4, 3)));
        let fac = tt_to_factored_template(&f);
        let sop = tt_to_sop_template(&f);
        assert_eq!(template_function(&fac), f);
        assert!(fac.num_ands() <= sop.num_ands());
    }

    #[test]
    fn cover_function_sanity() {
        let f = Tt::from_u64(4, 0xBEEF);
        let cover = isop(&f);
        assert_eq!(cover_function(&cover, 4), f);
    }
}
