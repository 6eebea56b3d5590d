//! General-purpose registers.

use std::fmt;
use std::str::FromStr;

/// One of the sixteen 64-bit general-purpose registers `r0`–`r15`.
///
/// By ABI convention (enforced nowhere in hardware, everywhere in the
/// toolchain):
///
/// * `r0` — return value
/// * `r1`–`r5` — arguments
/// * `r6`, `r7` — caller-saved scratch
/// * `r8`–`r13` — callee-saved
/// * `r14` — frame pointer ([`Reg::FP`])
/// * `r15` — stack pointer ([`Reg::SP`])
///
/// # Example
///
/// ```
/// use rr_isa::Reg;
///
/// assert_eq!(Reg::SP, Reg::R15);
/// assert_eq!(Reg::R3.index(), 3);
/// assert_eq!("r7".parse::<Reg>()?, Reg::R7);
/// # Ok::<(), rr_isa::ParseRegError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Reg {
    R0 = 0,
    R1 = 1,
    R2 = 2,
    R3 = 3,
    R4 = 4,
    R5 = 5,
    R6 = 6,
    R7 = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    /// The stack pointer register, `r15`.
    pub const SP: Reg = Reg::R15;
    /// The frame pointer register, `r14` (by convention).
    pub const FP: Reg = Reg::R14;

    /// All sixteen registers in index order.
    pub const ALL: [Reg; 16] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Registers a callee must preserve under the RRVM ABI.
    pub const CALLEE_SAVED: [Reg; 6] = [Reg::R8, Reg::R9, Reg::R10, Reg::R11, Reg::R12, Reg::R13];

    /// Argument registers in positional order.
    pub const ARGS: [Reg; 5] = [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5];

    /// Returns the register with the given index.
    ///
    /// Any 4-bit value names a valid register, which keeps *register fields*
    /// of an instruction immune to decode errors under bit flips (the flip
    /// silently retargets the operand instead — a classic fault effect).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    #[inline]
    pub fn from_index(index: u8) -> Reg {
        Self::ALL[usize::from(index)]
    }

    /// The register's index, `0..=15`.
    #[inline]
    pub fn index(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Reg::SP => write!(f, "sp"),
            Reg::FP => write!(f, "fp"),
            r => write!(f, "r{}", r.index()),
        }
    }
}

/// Error returned when parsing a register name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    text: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid register name `{}`", self.text)
    }
}

impl std::error::Error for ParseRegError {}

impl FromStr for Reg {
    type Err = ParseRegError;

    /// Parses `r0`..`r15` as well as the aliases `sp` and `fp`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRegError { text: s.to_owned() };
        match s {
            "sp" => return Ok(Reg::SP),
            "fp" => return Ok(Reg::FP),
            _ => {}
        }
        let digits = s.strip_prefix('r').ok_or_else(err)?;
        // Reject forms like `r07` so that every register has one spelling.
        if digits.len() > 1 && digits.starts_with('0') {
            return Err(err());
        }
        let index: u8 = digits.parse().map_err(|_| err())?;
        if index < 16 {
            Ok(Reg::from_index(index))
        } else {
            Err(err())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for i in 0..16 {
            assert_eq!(Reg::from_index(i).index(), i);
        }
    }

    #[test]
    fn parse_all_names() {
        for r in Reg::ALL {
            let text = format!("r{}", r.index());
            assert_eq!(text.parse::<Reg>().unwrap(), r);
        }
        assert_eq!("sp".parse::<Reg>().unwrap(), Reg::R15);
        assert_eq!("fp".parse::<Reg>().unwrap(), Reg::R14);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "r", "r16", "r99", "x3", "r-1", "r03", " r1"] {
            assert!(bad.parse::<Reg>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn display_uses_aliases_for_sp_fp() {
        assert_eq!(Reg::R15.to_string(), "sp");
        assert_eq!(Reg::R14.to_string(), "fp");
        assert_eq!(Reg::R2.to_string(), "r2");
    }

    #[test]
    fn abi_sets_are_disjoint_from_sp() {
        assert!(!Reg::CALLEE_SAVED.contains(&Reg::SP));
        assert!(!Reg::ARGS.contains(&Reg::SP));
        assert!(!Reg::ARGS.contains(&Reg::R0));
    }
}
