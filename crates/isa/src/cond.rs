//! Condition codes for conditional jumps and `set<cc>`.

use crate::Flags;
use std::fmt;
use std::str::FromStr;

/// A condition code, evaluated against the current [`Flags`].
///
/// The signed codes use the standard flag identities (`lt ⇔ N≠V`, …); the
/// unsigned codes follow the x86 naming (`b` = below = carry/borrow set) so
/// that the paper's hardened patterns read identically.
///
/// # Example
///
/// ```
/// use rr_isa::{Cond, Flags};
///
/// let f = Flags::from_sub(3, 7);
/// assert!(Cond::Lt.eval(f));
/// assert!(Cond::Ne.eval(f));
/// assert!(!Cond::Lt.negate().eval(f));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Equal (`Z`).
    Eq = 0,
    /// Not equal (`!Z`).
    Ne = 1,
    /// Signed less-than (`N != V`).
    Lt = 2,
    /// Signed less-or-equal (`Z || N != V`).
    Le = 3,
    /// Signed greater-than (`!Z && N == V`).
    Gt = 4,
    /// Signed greater-or-equal (`N == V`).
    Ge = 5,
    /// Unsigned below (`C`).
    B = 6,
    /// Unsigned below-or-equal (`C || Z`).
    Be = 7,
    /// Unsigned above (`!C && !Z`).
    A = 8,
    /// Unsigned above-or-equal (`!C`).
    Ae = 9,
}

impl Cond {
    /// All condition codes in encoding order.
    pub const ALL: [Cond; 10] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Le,
        Cond::Gt,
        Cond::Ge,
        Cond::B,
        Cond::Be,
        Cond::A,
        Cond::Ae,
    ];

    /// Decodes a condition from its 4-bit encoding, if valid.
    pub fn from_code(code: u8) -> Option<Cond> {
        Self::ALL.get(usize::from(code)).copied()
    }

    /// The condition's 4-bit encoding.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Evaluates the condition against `flags`.
    pub fn eval(self, flags: Flags) -> bool {
        let Flags { z, n, c, v } = flags;
        match self {
            Cond::Eq => z,
            Cond::Ne => !z,
            Cond::Lt => n != v,
            Cond::Le => z || n != v,
            Cond::Gt => !z && n == v,
            Cond::Ge => n == v,
            Cond::B => c,
            Cond::Be => c || z,
            Cond::A => !c && !z,
            Cond::Ae => !c,
        }
    }

    /// The flag bits the condition reads ([`crate::flag_bits`] mask).
    pub fn flag_uses(self) -> u8 {
        use crate::flag_bits::{C, N, V, Z};
        match self {
            Cond::Eq | Cond::Ne => Z,
            Cond::Lt | Cond::Ge => N | V,
            Cond::Le | Cond::Gt => Z | N | V,
            Cond::B | Cond::Ae => C,
            Cond::Be | Cond::A => Z | C,
        }
    }

    /// The logically opposite condition (`eq` ↔ `ne`, `lt` ↔ `ge`, …).
    ///
    /// For every flag state exactly one of `self` and `self.negate()` holds,
    /// which the conditional-branch hardening pass depends on.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::B => Cond::Ae,
            Cond::Ae => Cond::B,
            Cond::Be => Cond::A,
            Cond::A => Cond::Be,
        }
    }

    /// The mnemonic suffix (`"eq"`, `"ne"`, …) used in `jeq`, `setlt`, ….
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
            Cond::B => "b",
            Cond::Be => "be",
            Cond::A => "a",
            Cond::Ae => "ae",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Error returned when parsing a condition mnemonic fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCondError {
    text: String,
}

impl fmt::Display for ParseCondError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid condition code `{}`", self.text)
    }
}

impl std::error::Error for ParseCondError {}

impl FromStr for Cond {
    type Err = ParseCondError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Cond::ALL
            .into_iter()
            .find(|c| c.mnemonic() == s)
            .ok_or_else(|| ParseCondError { text: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_flag_states() -> impl Iterator<Item = Flags> {
        (0..16u64).map(Flags::from_bits)
    }

    #[test]
    fn code_round_trip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_code(c.code()), Some(c));
        }
        for bad in 10..16 {
            assert_eq!(Cond::from_code(bad), None);
        }
    }

    #[test]
    fn negate_is_involutive_and_exclusive() {
        for c in Cond::ALL {
            assert_eq!(c.negate().negate(), c);
            for f in all_flag_states() {
                assert_ne!(c.eval(f), c.negate().eval(f), "{c} vs {} on {f}", c.negate());
            }
        }
    }

    #[test]
    fn eval_matches_integer_comparisons() {
        let values: [u64; 6] = [0, 1, 7, u64::MAX, i64::MIN as u64, i64::MAX as u64];
        for &a in &values {
            for &b in &values {
                let f = Flags::from_sub(a, b);
                assert_eq!(Cond::Eq.eval(f), a == b);
                assert_eq!(Cond::Ne.eval(f), a != b);
                assert_eq!(Cond::Lt.eval(f), (a as i64) < (b as i64));
                assert_eq!(Cond::Le.eval(f), (a as i64) <= (b as i64));
                assert_eq!(Cond::Gt.eval(f), (a as i64) > (b as i64));
                assert_eq!(Cond::Ge.eval(f), (a as i64) >= (b as i64));
                assert_eq!(Cond::B.eval(f), a < b);
                assert_eq!(Cond::Be.eval(f), a <= b);
                assert_eq!(Cond::A.eval(f), a > b);
                assert_eq!(Cond::Ae.eval(f), a >= b);
            }
        }
    }

    #[test]
    fn flag_uses_are_exactly_the_bits_eval_reads() {
        for c in Cond::ALL {
            for bit in 0..4 {
                let mask = 1u64 << bit;
                let matters = all_flag_states()
                    .any(|f| c.eval(f) != c.eval(Flags::from_bits(f.to_bits() ^ mask)));
                assert_eq!(matters, u64::from(c.flag_uses()) & mask != 0, "{c} bit {bit}");
            }
        }
    }

    #[test]
    fn parse_round_trip() {
        for c in Cond::ALL {
            assert_eq!(c.mnemonic().parse::<Cond>().unwrap(), c);
        }
        assert!("xx".parse::<Cond>().is_err());
    }
}
