//! Identifier types.

use std::fmt;

/// Identifies one SSA value (the result of one [`crate::Op`]) within a
/// function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub(crate) u32);

impl ValueId {
    /// The value's index in its function's op arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a value id from a raw index (for analyses that iterate
    /// arenas by index).
    pub fn from_index(index: usize) -> ValueId {
        ValueId(u32::try_from(index).expect("value count fits in u32"))
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifies a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// The block's index in its function.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a block id from a raw index.
    pub fn from_index(index: usize) -> BlockId {
        BlockId(u32::try_from(index).expect("block count fits in u32"))
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// An architectural state slot: one of the 16 machine registers or one of
/// the four condition flags. Lifted code threads machine state through
/// cells; the backend assigns them storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell(pub u8);

impl Cell {
    /// Number of distinct cells (16 registers + 4 flags).
    pub const COUNT: u8 = 20;
    /// The zero flag cell.
    pub const Z: Cell = Cell(16);
    /// The negative flag cell.
    pub const N: Cell = Cell(17);
    /// The carry flag cell.
    pub const C: Cell = Cell(18);
    /// The overflow flag cell.
    pub const V: Cell = Cell(19);

    /// The cell for machine register `index` (0–15).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub fn reg(index: u8) -> Cell {
        assert!(index < 16, "register index out of range: {index}");
        Cell(index)
    }

    /// Whether the cell index is valid.
    pub fn is_valid(self) -> bool {
        self.0 < Self::COUNT
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0..=15 => write!(f, "r{}", self.0),
            16 => write!(f, "zf"),
            17 => write!(f, "nf"),
            18 => write!(f, "cf"),
            19 => write!(f, "vf"),
            other => write!(f, "cell?{other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_classification() {
        assert!(Cell::V.is_valid());
        assert!(!Cell(20).is_valid());
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn cell_reg_rejects_flags_range() {
        let _ = Cell::reg(16);
    }

    #[test]
    fn displays() {
        assert_eq!(ValueId(4).to_string(), "%4");
        assert_eq!(BlockId(2).to_string(), "bb2");
        assert_eq!(Cell::reg(15).to_string(), "r15");
        assert_eq!(Cell::C.to_string(), "cf");
    }
}
