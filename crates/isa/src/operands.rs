//! The operand table: which registers and flag bits each instruction
//! reads and writes.

use crate::regset::flag_bits;
use crate::{Instr, Reg, RegSet};

/// The registers and flag bits one instruction reads and writes, exactly
/// as `rr-emu`'s interpreter executes it.
///
/// Exact means three things, checked against the interpreter by
/// `rr-emu`'s `operands` test. A register outside [`Operands::defs`] (a
/// flag bit outside [`Operands::flag_defs`]) never changes. Changing a
/// register outside [`Operands::reads`] (a flag bit outside
/// [`Operands::flag_uses`]) before the instruction changes nothing it
/// does. And unless the instruction faults, it overwrites every def it
/// does not read. Only the program counter is left out.
///
/// The table carries no policy. Clients add their own for the state that
/// calls, returns, indirect jumps and services hand to code they do not
/// model (`rr-analysis`'s pruning, `rr-patch`'s liveness, the `rr-disasm`
/// symbolizer).
///
/// # Example
///
/// ```
/// use rr_isa::{flag_bits, Instr, Reg, RegSet, ShiftOp};
///
/// let ops = Instr::Load { rd: Reg::R1, base: Reg::R2, disp: 8 }.operands();
/// assert_eq!(ops.address, Some(Reg::R2));
/// assert_eq!(ops.defs, RegSet::singleton(Reg::R1));
///
/// // A shift count that masks to zero touches neither register nor flags.
/// let shl = |amt| Instr::ShiftRI { op: ShiftOp::Shl, rd: Reg::R2, amt };
/// assert_eq!(shl(64).operands().flag_defs, 0);
/// assert_eq!(shl(1).operands().flag_defs, flag_bits::ALL);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Operands {
    /// Registers read as values, `sp` included for stack operations.
    pub uses: RegSet,
    /// The register read to form an address: the base of a
    /// `[base+disp]` operand (the `lea` base too) or an indirect target.
    pub address: Option<Reg>,
    /// Registers written.
    pub defs: RegSet,
    /// Flag bits read ([`flag_bits`] mask).
    pub flag_uses: u8,
    /// Flag bits written ([`flag_bits`] mask).
    pub flag_defs: u8,
}

impl Operands {
    /// Every register the instruction reads: [`Operands::uses`] plus the
    /// [`Operands::address`] register.
    pub fn reads(&self) -> RegSet {
        let mut reads = self.uses;
        if let Some(base) = self.address {
            reads.insert(base);
        }
        reads
    }
}

/// The data memory access one instruction makes: `size` bytes at the
/// address `base + disp` holds before the instruction executes, a read
/// or a write. Stack operations address through `sp`: a push or call
/// writes the 8 bytes below it, a pop, `popf` or `ret` reads the 8 at
/// it. Instruction fetches are not data accesses.
///
/// # Example
///
/// ```
/// use rr_isa::{Instr, MemAccess, Reg};
///
/// let push = Instr::Push { rs: Reg::R3 }.mem_access();
/// assert_eq!(push, Some(MemAccess { base: Reg::SP, disp: -8, size: 8, write: true }));
/// let load = Instr::LoadB { rd: Reg::R1, base: Reg::R2, disp: 3 }.mem_access();
/// assert_eq!(load, Some(MemAccess { base: Reg::R2, disp: 3, size: 1, write: false }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// The register the address is formed from.
    pub base: Reg,
    /// The displacement added to it.
    pub disp: i64,
    /// Bytes accessed: 8, or 1 for `loadb` and `storeb`.
    pub size: u64,
    /// Whether the access writes.
    pub write: bool,
}

impl Instr {
    /// The instruction's data memory access, stack operations included;
    /// `None` for an instruction that touches no data memory.
    pub fn mem_access(&self) -> Option<MemAccess> {
        let at =
            |base, disp: i32, size, write| Some(MemAccess { base, disp: disp.into(), size, write });
        match *self {
            Instr::Load { base, disp, .. } | Instr::CmpRM { base, disp, .. } => {
                at(base, disp, 8, false)
            }
            Instr::LoadB { base, disp, .. } => at(base, disp, 1, false),
            Instr::Store { base, disp, .. } => at(base, disp, 8, true),
            Instr::StoreB { base, disp, .. } => at(base, disp, 1, true),
            Instr::Push { .. } | Instr::PushF | Instr::Call { .. } | Instr::CallR { .. } => {
                at(Reg::SP, -8, 8, true)
            }
            Instr::Pop { .. } | Instr::PopF | Instr::Ret => at(Reg::SP, 0, 8, false),
            _ => None,
        }
    }

    /// The instruction's [`Operands`].
    pub fn operands(&self) -> Operands {
        let regs = |list: &[Reg]| list.iter().copied().collect::<RegSet>();
        let table = |uses: &[Reg], address, defs: &[Reg], flag_uses, flag_defs| Operands {
            uses: regs(uses),
            address,
            defs: regs(defs),
            flag_uses,
            flag_defs,
        };
        const NZCV: u8 = flag_bits::ALL;
        const SP: Reg = Reg::SP;
        match *self {
            Instr::Nop | Instr::Halt | Instr::Jmp { .. } => Operands::default(),
            Instr::Ret | Instr::Call { .. } => table(&[SP], None, &[SP], 0, 0),
            Instr::PushF => table(&[SP], None, &[SP], NZCV, 0),
            Instr::PopF => table(&[SP], None, &[SP], 0, NZCV),
            Instr::MovRR { rd, rs } => table(&[rs], None, &[rd], 0, 0),
            Instr::MovRI { rd, .. } => table(&[], None, &[rd], 0, 0),
            Instr::AluRR { rd, rs, .. } => table(&[rd, rs], None, &[rd], 0, NZCV),
            // A count that masks to zero leaves the register and the flags alone.
            Instr::ShiftRI { amt, .. } if amt & 63 == 0 => Operands::default(),
            Instr::AluRI { rd, .. }
            | Instr::ShiftRI { rd, .. }
            | Instr::Not { rd }
            | Instr::Neg { rd } => table(&[rd], None, &[rd], 0, NZCV),
            Instr::CmpRR { rs1, rs2 } | Instr::TestRR { rs1, rs2 } => {
                table(&[rs1, rs2], None, &[], 0, NZCV)
            }
            Instr::CmpRI { rs1, .. } => table(&[rs1], None, &[], 0, NZCV),
            Instr::CmpRM { rs1, base, .. } => table(&[rs1], Some(base), &[], 0, NZCV),
            Instr::Load { rd, base, .. }
            | Instr::LoadB { rd, base, .. }
            | Instr::Lea { rd, base, .. } => table(&[], Some(base), &[rd], 0, 0),
            Instr::Store { base, rs, .. } | Instr::StoreB { base, rs, .. } => {
                table(&[rs], Some(base), &[], 0, 0)
            }
            Instr::Push { rs } => table(&[rs, SP], None, &[SP], 0, 0),
            Instr::Pop { rd } => table(&[SP], None, &[rd, SP], 0, 0),
            Instr::Jcc { cc, .. } => table(&[], None, &[], cc.flag_uses(), 0),
            Instr::CallR { rs } => table(&[SP], Some(rs), &[SP], 0, 0),
            Instr::JmpR { rs } => table(&[], Some(rs), &[], 0, 0),
            Instr::SetCc { rd, cc } => table(&[], None, &[rd], cc.flag_uses(), 0),
            // Exit and the two output services read r1; input writes r0;
            // any other number faults before touching anything.
            Instr::Svc { num: 0 | 1 | 3 } => table(&[Reg::R1], None, &[], 0, 0),
            Instr::Svc { num: 2 } => table(&[], None, &[Reg::R0], 0, 0),
            Instr::Svc { .. } => Operands::default(),
        }
    }
}

// Soundness (defs cover every write, reads every dependence) is checked
// against the interpreter by `rr-emu`'s `operands` test; these pin the
// precision that check cannot see.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShiftOp;

    #[test]
    fn stack_operations_read_and_write_sp() {
        let push = Instr::Push { rs: Reg::R3 }.operands();
        assert_eq!(push.uses, [Reg::R3, Reg::SP].into_iter().collect());
        assert_eq!(push.defs, RegSet::singleton(Reg::SP));
        assert_eq!(push.address, None);
        let callr = Instr::CallR { rs: Reg::R6 }.operands();
        assert_eq!(callr.address, Some(Reg::R6));
        assert_eq!(callr.reads(), [Reg::R6, Reg::SP].into_iter().collect());
    }

    #[test]
    fn zero_count_shifts_are_no_ops() {
        for amt in [0, 64, 128, 192] {
            let shift = Instr::ShiftRI { op: ShiftOp::Shr, rd: Reg::R9, amt };
            assert_eq!(shift.operands(), Operands::default(), "amt {amt}");
        }
    }

    #[test]
    fn services_read_r1_or_write_r0() {
        for num in [0, 1, 3] {
            let svc = Instr::Svc { num }.operands();
            assert_eq!((svc.uses, svc.defs), (RegSet::singleton(Reg::R1), RegSet::EMPTY));
        }
        let input = Instr::Svc { num: 2 }.operands();
        assert_eq!((input.uses, input.defs), (RegSet::EMPTY, RegSet::singleton(Reg::R0)));
        assert_eq!(Instr::Svc { num: 9 }.operands(), Operands::default());
    }
}
