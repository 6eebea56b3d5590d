//! Operations and terminators.

use crate::types::{BlockId, Cell, ValueId};
use std::fmt;

/// Binary arithmetic/logic operators. All operate on 64-bit values;
/// shifts mask their amount to 0–63.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Mul,
    /// Unsigned division. Division by zero is undefined behaviour at the
    /// IR level (the backend lowers it to the trapping machine `udiv`).
    Udiv,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Lshr,
    /// Arithmetic shift right.
    Ashr,
}

impl BinOp {
    /// The printer mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Mul => "mul",
            BinOp::Udiv => "udiv",
            BinOp::Shl => "shl",
            BinOp::Lshr => "lshr",
            BinOp::Ashr => "ashr",
        }
    }
}

/// Comparison predicates for [`Op::ICmp`]; the result is `0` or `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pred {
    Eq,
    Ne,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
}

impl Pred {
    /// The printer mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Pred::Eq => "eq",
            Pred::Ne => "ne",
            Pred::Ult => "ult",
            Pred::Ule => "ule",
            Pred::Slt => "slt",
            Pred::Sle => "sle",
        }
    }
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte, zero-extended on load.
    B,
    /// Eight bytes.
    Q,
}

/// One RRIR operation. Every op yields exactly one SSA value (ops with no
/// meaningful result, like [`Op::Store`], yield an unused value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A 64-bit constant.
    Const(u64),
    /// The address of a named symbol (data object or function), resolved
    /// at link time of the lowered binary.
    SymAddr(String),
    /// Binary operation.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Bitwise complement.
    Not(ValueId),
    /// Two's-complement negation.
    Neg(ValueId),
    /// Comparison producing 0/1.
    ICmp {
        /// Predicate.
        pred: Pred,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// `cond != 0 ? if_true : if_false`.
    Select {
        /// Condition (0/1).
        cond: ValueId,
        /// Value when the condition is non-zero.
        if_true: ValueId,
        /// Value when the condition is zero.
        if_false: ValueId,
    },
    /// Memory load.
    Load {
        /// Address.
        addr: ValueId,
        /// Access width.
        width: Width,
    },
    /// Memory store. The produced value is unused.
    Store {
        /// Address.
        addr: ValueId,
        /// Value to store (low byte for [`Width::B`]).
        value: ValueId,
        /// Access width.
        width: Width,
    },
    /// Read an architectural cell.
    ReadCell(Cell),
    /// Write an architectural cell. The produced value is unused.
    WriteCell {
        /// Target cell.
        cell: Cell,
        /// New value.
        value: ValueId,
    },
    /// Direct call to a function in the same module (architectural state
    /// flows through cells and memory, so there are no explicit
    /// arguments). The produced value is unused.
    Call {
        /// Callee name.
        callee: String,
    },
    /// Indirect call through a code address.
    CallIndirect {
        /// Target address value.
        target: ValueId,
    },
    /// Runtime service request (I/O, exit); reads/writes the argument
    /// cells like the machine instruction does. The produced value is
    /// unused.
    Svc {
        /// Service number.
        num: u8,
    },
    /// SSA φ: the value of the incoming edge the block was entered
    /// through. Must appear before all non-phi ops of its block.
    Phi {
        /// `(predecessor, value)` pairs, one per predecessor.
        incomings: Vec<(BlockId, ValueId)>,
    },
}

impl Op {
    /// Operand values read by this op (excluding phi incomings; use
    /// [`Op::phi_incomings`] for those).
    pub fn operands(&self) -> Vec<ValueId> {
        match self {
            Op::Const(_) | Op::SymAddr(_) | Op::ReadCell(_) | Op::Call { .. } | Op::Svc { .. } => {
                Vec::new()
            }
            Op::BinOp { lhs, rhs, .. } | Op::ICmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Op::Not(v) | Op::Neg(v) => vec![*v],
            Op::Select { cond, if_true, if_false } => vec![*cond, *if_true, *if_false],
            Op::Load { addr, .. } => vec![*addr],
            Op::Store { addr, value, .. } => vec![*addr, *value],
            Op::WriteCell { value, .. } => vec![*value],
            Op::CallIndirect { target } => vec![*target],
            Op::Phi { .. } => Vec::new(),
        }
    }

    /// Phi incomings, if this is a phi.
    pub fn phi_incomings(&self) -> Option<&[(BlockId, ValueId)]> {
        match self {
            Op::Phi { incomings } => Some(incomings),
            _ => None,
        }
    }

    /// Whether this op has observable side effects (must not be removed
    /// or duplicated by optimizations).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Op::Store { .. }
                | Op::WriteCell { .. }
                | Op::Call { .. }
                | Op::CallIndirect { .. }
                | Op::Svc { .. }
        )
    }

    /// Whether this op is *pure*: same operands always give the same
    /// result, with no side effects and no dependence on mutable state
    /// (memory or cells). Pure ops are safe to clone for redundant
    /// computation.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Op::Const(_)
                | Op::SymAddr(_)
                | Op::BinOp { .. }
                | Op::Not(_)
                | Op::Neg(_)
                | Op::ICmp { .. }
                | Op::Select { .. }
        )
    }

    /// Rewrites every operand through `map` (including phi incomings).
    pub fn map_operands(&mut self, mut map: impl FnMut(ValueId) -> ValueId) {
        match self {
            Op::Const(_) | Op::SymAddr(_) | Op::ReadCell(_) | Op::Call { .. } | Op::Svc { .. } => {}
            Op::BinOp { lhs, rhs, .. } | Op::ICmp { lhs, rhs, .. } => {
                *lhs = map(*lhs);
                *rhs = map(*rhs);
            }
            Op::Not(v) | Op::Neg(v) => *v = map(*v),
            Op::Select { cond, if_true, if_false } => {
                *cond = map(*cond);
                *if_true = map(*if_true);
                *if_false = map(*if_false);
            }
            Op::Load { addr, .. } => *addr = map(*addr),
            Op::Store { addr, value, .. } => {
                *addr = map(*addr);
                *value = map(*value);
            }
            Op::WriteCell { value, .. } => *value = map(*value),
            Op::CallIndirect { target } => *target = map(*target),
            Op::Phi { incomings } => {
                for (_, v) in incomings {
                    *v = map(*v);
                }
            }
        }
    }
}

/// How a block ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Not yet set (invalid in verified modules).
    Unset,
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way branch on a 0/1 condition value.
    CondBr {
        /// Condition.
        cond: ValueId,
        /// Target when the condition is non-zero.
        if_true: BlockId,
        /// Target when the condition is zero.
        if_false: BlockId,
    },
    /// Return to the caller.
    Ret,
    /// Abnormal stop (fault response); lowers to `halt`.
    Abort,
}

impl Terminator {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr { if_true, if_false, .. } => vec![*if_true, *if_false],
            Terminator::Ret | Terminator::Abort | Terminator::Unset => Vec::new(),
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Width::B => "b",
            Width::Q => "q",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_lists() {
        let v = |i| ValueId(i);
        assert!(Op::Const(1).operands().is_empty());
        assert_eq!(Op::BinOp { op: BinOp::Add, lhs: v(1), rhs: v(2) }.operands(), vec![v(1), v(2)]);
        assert_eq!(Op::Select { cond: v(0), if_true: v(1), if_false: v(2) }.operands().len(), 3);
    }

    #[test]
    fn purity_and_effects_partition() {
        let pure = Op::ICmp { pred: Pred::Eq, lhs: ValueId(0), rhs: ValueId(1) };
        assert!(pure.is_pure() && !pure.has_side_effects());
        let store = Op::Store { addr: ValueId(0), value: ValueId(1), width: Width::Q };
        assert!(!store.is_pure() && store.has_side_effects());
        // ReadCell is neither pure (depends on mutable state) nor
        // side-effecting (safe to delete when unused).
        let read = Op::ReadCell(Cell::Z);
        assert!(!read.is_pure() && !read.has_side_effects());
    }

    #[test]
    fn map_operands_rewrites_everything() {
        let mut op = Op::Store { addr: ValueId(1), value: ValueId(2), width: Width::Q };
        op.map_operands(|v| ValueId(v.0 + 10));
        assert_eq!(op.operands(), vec![ValueId(11), ValueId(12)]);

        let mut phi = Op::Phi { incomings: vec![(BlockId(0), ValueId(5))] };
        phi.map_operands(|v| ValueId(v.0 + 1));
        assert_eq!(phi.phi_incomings().unwrap()[0].1, ValueId(6));
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Br(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(
            Terminator::CondBr { cond: ValueId(0), if_true: BlockId(1), if_false: BlockId(2) }
                .successors()
                .len(),
            2
        );
        assert!(Terminator::Ret.successors().is_empty());
    }
}
