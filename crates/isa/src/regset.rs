//! Compact register and flag sets: the vocabulary of [`crate::Operands`].

use crate::Reg;
use std::fmt;

/// A set of machine registers as a bitmask.
///
/// The register half of an instruction's [`Operands`](crate::Operands),
/// and the lattice element of the liveness analyses built on them
/// (`rr-analysis`'s fault-effect pruning, `rr-patch`'s scratch-register
/// search): sixteen registers, one bit each, with the usual set algebra.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegSet(u16);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);
    /// All sixteen registers.
    pub const ALL: RegSet = RegSet(u16::MAX);

    /// The set containing exactly `r`.
    pub fn singleton(r: Reg) -> RegSet {
        RegSet(1 << r.index())
    }

    /// Inserts a register.
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.index();
    }

    /// Removes a register.
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1 << r.index());
    }

    /// Whether the set contains `r`.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Intersection.
    pub fn intersect(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// Set difference (`self` without `other`).
    pub fn minus(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of registers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The registers in the set, in index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        Reg::ALL.into_iter().filter(move |r| self.contains(*r))
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        let mut set = RegSet::EMPTY;
        for r in iter {
            set.insert(r);
        }
        set
    }
}

impl fmt::Display for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// Flag-bit masks over the packed NZCV word ([`crate::Flags::to_bits`]):
/// bit 0 = Z, bit 1 = N, bit 2 = C, bit 3 = V. A `u8` with these bits is
/// the flag half of an instruction's [`Operands`](crate::Operands) and
/// the lattice element of the per-bit flag liveness analysis.
pub mod flag_bits {
    /// The zero flag, bit 0.
    pub const Z: u8 = 1;
    /// The negative flag, bit 1.
    pub const N: u8 = 1 << 1;
    /// The carry flag, bit 2.
    pub const C: u8 = 1 << 2;
    /// The overflow flag, bit 3.
    pub const V: u8 = 1 << 3;
    /// All four NZCV bits.
    pub const ALL: u8 = Z | N | C | V;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_algebra() {
        let mut s = RegSet::EMPTY;
        s.insert(Reg::R3);
        s.insert(Reg::R7);
        assert!(s.contains(Reg::R3) && s.contains(Reg::R7));
        assert_eq!(s.len(), 2);
        s.remove(Reg::R3);
        assert!(!s.contains(Reg::R3));
        assert!(RegSet::ALL.contains(Reg::R15));
        assert_eq!(RegSet::ALL.minus(RegSet::ALL), RegSet::EMPTY);
        assert_eq!(RegSet::EMPTY.union(s), s);
        assert_eq!(RegSet::ALL.intersect(s), s);
        assert!(RegSet::EMPTY.is_empty());
        assert_eq!(RegSet::singleton(Reg::R5).iter().collect::<Vec<_>>(), vec![Reg::R5]);
        let round: RegSet = s.iter().collect();
        assert_eq!(round, s);
        assert_eq!(RegSet::singleton(Reg::SP).to_string(), "{sp}");
    }

    #[test]
    fn flag_bits_pack_like_the_isa() {
        use crate::Flags;
        assert_eq!(Flags::new(true, false, false, false).to_bits() as u8, flag_bits::Z);
        assert_eq!(Flags::new(false, true, false, false).to_bits() as u8, flag_bits::N);
        assert_eq!(Flags::new(false, false, true, false).to_bits() as u8, flag_bits::C);
        assert_eq!(Flags::new(false, false, false, true).to_bits() as u8, flag_bits::V);
        assert_eq!(flag_bits::ALL, 0xF);
    }
}
