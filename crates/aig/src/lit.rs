//! Literals: a node index paired with an optional logical negation.
//!
//! The encoding follows the AIGER convention: a literal is `2 * var + c`
//! where `var` is the node index and `c` is 1 when the edge is complemented.
//! Node 0 is the constant-false node, so [`Lit::FALSE`] is `0` and
//! [`Lit::TRUE`] is `1`.

use std::fmt;
use std::ops::Not;

/// An edge into an AIG node, optionally complemented.
///
/// ```
/// use boils_aig::Lit;
///
/// let a = Lit::from_var(3, false);
/// assert_eq!(a.var(), 3);
/// assert!(!a.is_complement());
/// assert_eq!((!a).var(), 3);
/// assert!((!a).is_complement());
/// assert_eq!(!!a, a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal (node 0, not complemented).
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal (node 0, complemented).
    pub const TRUE: Lit = Lit(1);

    /// Creates a literal from a node index and complement flag.
    ///
    /// # Panics
    ///
    /// Panics if `var` exceeds `u32::MAX / 2` (the largest encodable index).
    #[inline]
    pub fn from_var(var: usize, complement: bool) -> Lit {
        assert!(var <= (u32::MAX / 2) as usize, "node index out of range");
        Lit((var as u32) << 1 | complement as u32)
    }

    /// Creates a literal from its raw AIGER encoding `2 * var + c`.
    #[inline]
    pub fn from_raw(raw: u32) -> Lit {
        Lit(raw)
    }

    /// The raw AIGER encoding `2 * var + c`.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The node index this literal points at.
    #[inline]
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the edge is complemented.
    #[inline]
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns this literal with the given complement flag applied on top.
    ///
    /// `lit.xor_complement(true)` is `!lit`; with `false` it is a no-op.
    #[inline]
    pub fn xor_complement(self, complement: bool) -> Lit {
        Lit(self.0 ^ complement as u32)
    }

    /// Whether this literal is one of the two constants.
    #[inline]
    pub fn is_const(self) -> bool {
        self.var() == 0
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complement() {
            write!(f, "!n{}", self.var())
        } else {
            write!(f, "n{}", self.var())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_round_trip() {
        assert_eq!(Lit::FALSE.var(), 0);
        assert!(!Lit::FALSE.is_complement());
        assert_eq!(Lit::TRUE, !Lit::FALSE);
        assert!(Lit::TRUE.is_const());
    }

    #[test]
    fn raw_encoding_matches_aiger() {
        let l = Lit::from_var(21, true);
        assert_eq!(l.raw(), 43);
        assert_eq!(Lit::from_raw(43), l);
    }

    #[test]
    fn complement_involution() {
        let l = Lit::from_var(5, false);
        assert_eq!(!!l, l);
        assert_eq!(l.xor_complement(true), !l);
        assert_eq!(l.xor_complement(false), l);
    }

    #[test]
    fn ordering_groups_by_var() {
        assert!(Lit::from_var(2, true) < Lit::from_var(3, false));
        assert!(Lit::from_var(2, false) < Lit::from_var(2, true));
    }
}
