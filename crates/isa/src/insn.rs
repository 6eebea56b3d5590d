//! The RRVM instruction model.

use crate::{Cond, Reg};
use std::fmt;

/// A two-operand ALU operation (register/register or register/immediate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum AluOp {
    Add = 0,
    Sub = 1,
    And = 2,
    Or = 3,
    Xor = 4,
    Mul = 5,
    /// Unsigned division; dividing by zero is a CPU fault.
    Udiv = 6,
}

impl AluOp {
    /// All ALU operations in encoding order.
    pub const ALL: [AluOp; 7] =
        [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor, AluOp::Mul, AluOp::Udiv];

    /// Decodes an operation from its encoding, if valid.
    pub fn from_code(code: u8) -> Option<AluOp> {
        Self::ALL.get(usize::from(code)).copied()
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Mul => "mul",
            AluOp::Udiv => "udiv",
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A shift operation with an immediate amount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ShiftOp {
    /// Logical shift left.
    Shl = 0,
    /// Logical shift right.
    Shr = 1,
    /// Arithmetic shift right.
    Sar = 2,
}

impl ShiftOp {
    /// All shift operations in encoding order.
    pub const ALL: [ShiftOp; 3] = [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar];

    /// Decodes a shift op from its encoding, if valid.
    pub fn from_code(code: u8) -> Option<ShiftOp> {
        Self::ALL.get(usize::from(code)).copied()
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Shl => "shl",
            ShiftOp::Shr => "shr",
            ShiftOp::Sar => "sar",
        }
    }
}

impl fmt::Display for ShiftOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One decoded RRVM instruction.
///
/// Control-flow displacements (`rel`) are relative to the address of the
/// *next* instruction, as on x86. Memory operands are `[base + disp]` with a
/// signed 32-bit displacement. See the crate docs for the encoding overview
/// and [`crate::encode`]/[`crate::decode`] for the byte-level format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Do nothing.
    Nop,
    /// Stop the machine (abnormal unless reached via the runtime's exit path).
    Halt,
    /// Return: pop the return address and jump to it.
    Ret,
    /// Push the packed [`crate::Flags`] word.
    PushF,
    /// Pop the packed [`crate::Flags`] word.
    PopF,
    /// `mov rd, rs` — copy a register.
    MovRR { rd: Reg, rs: Reg },
    /// `mov rd, imm` — load a 64-bit immediate.
    MovRI { rd: Reg, imm: u64 },
    /// `op rd, rs` — ALU operation on two registers.
    AluRR { op: AluOp, rd: Reg, rs: Reg },
    /// `op rd, imm` — ALU operation with a sign-extended 32-bit immediate.
    AluRI { op: AluOp, rd: Reg, imm: i32 },
    /// `shl/shr/sar rd, amt` — shift by an immediate amount (masked to 63).
    ShiftRI { op: ShiftOp, rd: Reg, amt: u8 },
    /// `not rd` — bitwise complement.
    Not { rd: Reg },
    /// `neg rd` — two's-complement negation.
    Neg { rd: Reg },
    /// `cmp rs1, rs2` — set flags from `rs1 - rs2`.
    CmpRR { rs1: Reg, rs2: Reg },
    /// `cmp rs1, imm` — compare with a sign-extended immediate.
    CmpRI { rs1: Reg, imm: i32 },
    /// `cmp rs1, [base+disp]` — compare with a 64-bit memory word.
    CmpRM { rs1: Reg, base: Reg, disp: i32 },
    /// `test rs1, rs2` — set flags from `rs1 & rs2`.
    TestRR { rs1: Reg, rs2: Reg },
    /// `load rd, [base+disp]` — 64-bit load.
    Load { rd: Reg, base: Reg, disp: i32 },
    /// `store [base+disp], rs` — 64-bit store.
    Store { base: Reg, disp: i32, rs: Reg },
    /// `loadb rd, [base+disp]` — zero-extending byte load.
    LoadB { rd: Reg, base: Reg, disp: i32 },
    /// `storeb [base+disp], rs` — byte store (low 8 bits of `rs`).
    StoreB { base: Reg, disp: i32, rs: Reg },
    /// `lea rd, [base+disp]` — address computation, no memory access.
    Lea { rd: Reg, base: Reg, disp: i32 },
    /// `push rs` — decrement `sp` by 8 and store `rs`.
    Push { rs: Reg },
    /// `pop rd` — load from `sp` and increment it by 8.
    Pop { rd: Reg },
    /// `jmp target` — unconditional relative jump.
    Jmp { rel: i32 },
    /// `j<cc> target` — conditional relative jump.
    Jcc { cc: Cond, rel: i32 },
    /// `call target` — push the return address and jump.
    Call { rel: i32 },
    /// `callr rs` — indirect call through a register.
    CallR { rs: Reg },
    /// `jmpr rs` — indirect jump through a register.
    JmpR { rs: Reg },
    /// `set<cc> rd` — materialize a condition as 0 or 1.
    SetCc { rd: Reg, cc: Cond },
    /// `svc num` — request a runtime service (I/O, exit).
    Svc { num: u8 },
}

/// Coarse classification of instructions, used by the patcher to select
/// protection patterns and by analyses to reason about control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// `nop`.
    Nop,
    /// `halt`.
    Halt,
    /// Register-to-register or immediate-to-register move (`mov`, `lea`).
    Mov,
    /// Memory load (`load`, `loadb`).
    Load,
    /// Memory store (`store`, `storeb`).
    Store,
    /// ALU computation (`add` … `udiv`, shifts, `not`, `neg`).
    Alu,
    /// Flag-setting comparison (`cmp`, `test`).
    Cmp,
    /// Unconditional direct jump.
    Jump,
    /// Conditional jump.
    CondJump,
    /// Direct or indirect call.
    Call,
    /// `ret`.
    Ret,
    /// Indirect jump.
    IndirectJump,
    /// Stack push (`push`, `pushf`).
    Push,
    /// Stack pop (`pop`, `popf`).
    Pop,
    /// `set<cc>`.
    SetCc,
    /// `svc`.
    Svc,
}

impl Instr {
    /// The instruction's [`InstrKind`].
    pub fn kind(&self) -> InstrKind {
        match self {
            Instr::Nop => InstrKind::Nop,
            Instr::Halt => InstrKind::Halt,
            Instr::MovRR { .. } | Instr::MovRI { .. } | Instr::Lea { .. } => InstrKind::Mov,
            Instr::Load { .. } | Instr::LoadB { .. } => InstrKind::Load,
            Instr::Store { .. } | Instr::StoreB { .. } => InstrKind::Store,
            Instr::AluRR { .. }
            | Instr::AluRI { .. }
            | Instr::ShiftRI { .. }
            | Instr::Not { .. }
            | Instr::Neg { .. } => InstrKind::Alu,
            Instr::CmpRR { .. }
            | Instr::CmpRI { .. }
            | Instr::CmpRM { .. }
            | Instr::TestRR { .. } => InstrKind::Cmp,
            Instr::Jmp { .. } => InstrKind::Jump,
            Instr::Jcc { .. } => InstrKind::CondJump,
            Instr::Call { .. } | Instr::CallR { .. } => InstrKind::Call,
            Instr::Ret => InstrKind::Ret,
            Instr::JmpR { .. } => InstrKind::IndirectJump,
            Instr::Push { .. } | Instr::PushF => InstrKind::Push,
            Instr::Pop { .. } | Instr::PopF => InstrKind::Pop,
            Instr::SetCc { .. } => InstrKind::SetCc,
            Instr::Svc { .. } => InstrKind::Svc,
        }
    }

    /// Whether the instruction can change the program counter non-linearly.
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self.kind(),
            InstrKind::Jump
                | InstrKind::CondJump
                | InstrKind::Call
                | InstrKind::Ret
                | InstrKind::IndirectJump
                | InstrKind::Halt
        )
    }

    /// Whether the instruction ends a basic block (control flow or `halt`).
    ///
    /// Calls are conventionally *not* block terminators for CFG construction
    /// (execution resumes at the next instruction), but they are
    /// control-flow instructions.
    pub fn is_block_terminator(&self) -> bool {
        self.is_control_flow() && !matches!(self.kind(), InstrKind::Call)
    }

    /// Whether executing the instruction updates the [`crate::Flags`]
    /// (its [`crate::Operands::flag_defs`] are not empty).
    pub fn sets_flags(&self) -> bool {
        self.operands().flag_defs != 0
    }

    /// Whether the instruction's behaviour depends on the current flags
    /// (its [`crate::Operands::flag_uses`] are not empty).
    pub fn reads_flags(&self) -> bool {
        self.operands().flag_uses != 0
    }

    /// The control-flow displacement for direct jumps/calls, if any.
    pub fn rel_target(&self) -> Option<i32> {
        match *self {
            Instr::Jmp { rel } | Instr::Jcc { rel, .. } | Instr::Call { rel } => Some(rel),
            _ => None,
        }
    }

    /// Rewrites the control-flow displacement of a direct jump/call.
    ///
    /// # Panics
    ///
    /// Panics if the instruction has no displacement (use [`Instr::rel_target`]
    /// to check first).
    pub fn with_rel_target(self, rel: i32) -> Instr {
        match self {
            Instr::Jmp { .. } => Instr::Jmp { rel },
            Instr::Jcc { cc, .. } => Instr::Jcc { cc, rel },
            Instr::Call { .. } => Instr::Call { rel },
            other => panic!("instruction {other} has no relative target"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_op_codes_round_trip() {
        for op in AluOp::ALL {
            assert_eq!(AluOp::from_code(op as u8), Some(op));
        }
        assert_eq!(AluOp::from_code(7), None);
    }

    #[test]
    fn shift_op_codes_round_trip() {
        for op in ShiftOp::ALL {
            assert_eq!(ShiftOp::from_code(op as u8), Some(op));
        }
        assert_eq!(ShiftOp::from_code(3), None);
    }

    #[test]
    fn kinds_classify_control_flow() {
        assert!(Instr::Ret.is_control_flow());
        assert!(Instr::Jmp { rel: 0 }.is_block_terminator());
        assert!(Instr::Call { rel: 0 }.is_control_flow());
        assert!(!Instr::Call { rel: 0 }.is_block_terminator());
        assert!(!Instr::Nop.is_control_flow());
        assert!(Instr::Halt.is_block_terminator());
    }

    #[test]
    fn flag_effects() {
        assert!(Instr::CmpRI { rs1: Reg::R0, imm: 0 }.sets_flags());
        assert!(Instr::PopF.sets_flags());
        assert!(!Instr::MovRR { rd: Reg::R0, rs: Reg::R1 }.sets_flags());
        assert!(!Instr::ShiftRI { op: ShiftOp::Shl, rd: Reg::R2, amt: 0 }.sets_flags());
        assert!(Instr::Jcc { cc: Cond::Eq, rel: 0 }.reads_flags());
        assert!(Instr::PushF.reads_flags());
        assert!(!Instr::Jmp { rel: 0 }.reads_flags());
    }

    #[test]
    fn rel_target_rewrite() {
        let j = Instr::Jcc { cc: Cond::Ne, rel: 4 };
        assert_eq!(j.rel_target(), Some(4));
        assert_eq!(j.with_rel_target(-8), Instr::Jcc { cc: Cond::Ne, rel: -8 });
        assert_eq!(Instr::Ret.rel_target(), None);
    }

    #[test]
    #[should_panic(expected = "no relative target")]
    fn with_rel_target_panics_on_non_branch() {
        let _ = Instr::Nop.with_rel_target(0);
    }
}
