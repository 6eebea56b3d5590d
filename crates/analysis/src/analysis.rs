//! Whole-program liveness and per-effect static verdicts.

use crate::dataflow::{solve_liveness, LiveNode};
use rr_disasm::{build_functions, discover, CodeMap, DisasmError, Function};
use rr_isa::{decode, flag_bits, AluOp, Instr, InstrKind, Reg, RegSet, MAX_INSTR_LEN};
use rr_obj::Executable;
use std::collections::HashMap;

/// What the static analysis can prove about one fault effect at one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StaticVerdict {
    /// The effect provably cannot change the program's observable
    /// behaviour (outcome + output): it perturbs only locations that are
    /// dead on every path, so any behaviour-observing oracle classifies
    /// it `Benign`.
    Benign,
    /// The analysis cannot rule out a behavioural change. The fault must
    /// be evaluated dynamically.
    Unknown,
}

/// Everything the verdicts need about one recovered instruction.
#[derive(Debug, Clone)]
struct SiteInfo {
    insn: Instr,
    len: usize,
    bytes: [u8; MAX_INSTR_LEN],
    /// May-live registers just before the instruction executes.
    live_in_regs: RegSet,
    /// May-live registers just after.
    live_out_regs: RegSet,
    /// May-live flag bits just before.
    live_in_flags: u8,
    /// May-live flag bits just after.
    live_out_flags: u8,
}

/// Static fault-effect analysis of one executable.
///
/// Built once per binary ([`Analysis::from_executable`]); verdict queries
/// are O(1) hash lookups plus, for instruction bit flips, one re-decode
/// of the mutated bytes. See the crate docs for the soundness argument.
#[derive(Debug, Clone)]
pub struct Analysis {
    sites: HashMap<u64, SiteInfo>,
    functions: Vec<Function>,
}

/// The liveness transfer function of one concrete instruction: the
/// [`Instr::operands`] table plus this analysis's conservative policy.
///
/// Calls, indirect jumps and returns read *everything*, registers and
/// flags alike, because they hand the whole machine state to code this
/// per-function analysis does not model (it makes no interprocedural or
/// ABI assumptions). Services are conservative both ways: `svc` reads
/// `r0` and `r1` and kills nothing, even though service 2 writes `r0`.
fn transfer(insn: &Instr) -> LiveNode {
    let ops = insn.operands();
    let mut node = LiveNode {
        reg_uses: ops.reads(),
        reg_defs: ops.defs,
        flag_uses: ops.flag_uses,
        flag_defs: ops.flag_defs,
    };
    match insn.kind() {
        InstrKind::Call | InstrKind::Ret | InstrKind::IndirectJump => {
            node.reg_uses = RegSet::ALL;
            node.flag_uses = flag_bits::ALL;
        }
        InstrKind::Svc => {
            node.reg_uses = [Reg::R0, Reg::R1].into_iter().collect();
            node.reg_defs = RegSet::EMPTY;
        }
        _ => {}
    }
    node
}

/// A computation whose only architectural effects are register writes
/// and flag updates: no memory access (loads can fault on a mutated
/// address), no control transfer, no service request, no faultable
/// operation (`udiv` traps on zero).
fn pure_computation(insn: &Instr) -> bool {
    match insn {
        Instr::Nop
        | Instr::MovRR { .. }
        | Instr::MovRI { .. }
        | Instr::Lea { .. }
        | Instr::ShiftRI { .. }
        | Instr::Not { .. }
        | Instr::Neg { .. }
        | Instr::CmpRR { .. }
        | Instr::CmpRI { .. }
        | Instr::TestRR { .. }
        | Instr::SetCc { .. } => true,
        Instr::AluRR { op, .. } | Instr::AluRI { op, .. } => *op != AluOp::Udiv,
        _ => false,
    }
}

impl Analysis {
    /// Analyses `exe`: recovers the CFG, solves backward register+flag
    /// may-liveness at instruction granularity over the whole program,
    /// and caches per-site state for verdict queries.
    ///
    /// # Errors
    ///
    /// Propagates [`DisasmError`] when code discovery fails; callers that
    /// prune fault campaigns fall back to "everything [`StaticVerdict::Unknown`]".
    pub fn from_executable(exe: &Executable) -> Result<Analysis, DisasmError> {
        let code = discover(exe)?;
        let functions = build_functions(exe, &code);
        Ok(Analysis::from_code(exe, &code, functions))
    }

    fn from_code(exe: &Executable, code: &CodeMap, functions: Vec<Function>) -> Analysis {
        let pcs: Vec<u64> = code.instrs.keys().copied().collect();
        let index_of: HashMap<u64, usize> =
            pcs.iter().enumerate().map(|(i, &pc)| (pc, i)).collect();

        let mut nodes = Vec::with_capacity(pcs.len());
        let mut succs: Vec<Option<Vec<usize>>> = Vec::with_capacity(pcs.len());
        for &pc in &pcs {
            let (insn, len) = code.instrs[&pc];
            nodes.push(transfer(&insn));
            let next = pc + len as u64;
            let fallthrough = || index_of.get(&next).copied();
            // `None` = an edge the graph cannot resolve (everything live).
            let succ = match insn.kind() {
                InstrKind::Halt | InstrKind::Ret | InstrKind::IndirectJump => Some(Vec::new()),
                // Service 0 is process exit and unknown service numbers
                // are CPU faults: both are terminal. Services 1–3 (I/O)
                // fall through.
                InstrKind::Svc => match insn {
                    Instr::Svc { num: 1..=3 } => fallthrough().map(|f| vec![f]),
                    _ => Some(Vec::new()),
                },
                InstrKind::Jump => {
                    code.direct_target(pc).and_then(|t| index_of.get(&t).copied()).map(|t| vec![t])
                }
                InstrKind::CondJump => {
                    match (
                        code.direct_target(pc).and_then(|t| index_of.get(&t).copied()),
                        fallthrough(),
                    ) {
                        (Some(t), Some(f)) => Some(vec![t, f]),
                        _ => None,
                    }
                }
                // Calls fall through (the callee's effects are folded into
                // the call's own conservative transfer function).
                _ => fallthrough().map(|f| vec![f]),
            };
            succs.push(succ);
        }
        let state = solve_liveness(&nodes, &succs);

        let mut sites = HashMap::with_capacity(pcs.len());
        for (i, &pc) in pcs.iter().enumerate() {
            let (insn, len) = code.instrs[&pc];
            let mut bytes = [0u8; MAX_INSTR_LEN];
            if let Some(raw) = exe.read_bytes(pc, len) {
                bytes[..len].copy_from_slice(raw);
            }
            sites.insert(
                pc,
                SiteInfo {
                    insn,
                    len,
                    bytes,
                    live_in_regs: state[i].live_in.regs,
                    live_out_regs: state[i].live_out.regs,
                    live_in_flags: state[i].live_in.flags,
                    live_out_flags: state[i].live_out.flags,
                },
            );
        }
        Analysis { sites, functions }
    }

    /// The recovered functions the analysis ran over.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Encoded length of the instruction at `pc`, if analysed.
    pub fn site_len(&self, pc: u64) -> Option<usize> {
        self.sites.get(&pc).map(|s| s.len)
    }

    /// Verdict for *skipping* the instruction at `pc`.
    ///
    /// Benign iff the instruction's only effects are register/flag writes
    /// (no store, stack adjustment, control transfer, or service) and
    /// every written register and flag bit is dead afterwards.
    pub fn skip_verdict(&self, pc: u64) -> StaticVerdict {
        let Some(site) = self.sites.get(&pc) else { return StaticVerdict::Unknown };
        let skippable = matches!(
            site.insn.kind(),
            InstrKind::Nop
                | InstrKind::Mov
                | InstrKind::Load
                | InstrKind::Alu
                | InstrKind::Cmp
                | InstrKind::SetCc
        );
        let node = transfer(&site.insn);
        if skippable
            && node.reg_defs.intersect(site.live_out_regs).is_empty()
            && node.flag_defs & site.live_out_flags == 0
        {
            StaticVerdict::Benign
        } else {
            StaticVerdict::Unknown
        }
    }

    /// Verdict for flipping any bit of `reg` just before the instruction
    /// at `pc` executes: benign iff `reg` is dead at that point.
    pub fn reg_flip_verdict(&self, pc: u64, reg: Reg) -> StaticVerdict {
        match self.sites.get(&pc) {
            Some(site) if !site.live_in_regs.contains(reg) => StaticVerdict::Benign,
            _ => StaticVerdict::Unknown,
        }
    }

    /// Verdict for XORing the packed NZCV flags with `mask` just before
    /// the instruction at `pc` executes: benign iff no flipped bit is
    /// live at that point.
    pub fn flag_flip_verdict(&self, pc: u64, mask: u8) -> StaticVerdict {
        match self.sites.get(&pc) {
            Some(site) if mask & flag_bits::ALL & site.live_in_flags == 0 => StaticVerdict::Benign,
            _ => StaticVerdict::Unknown,
        }
    }

    /// Verdict for persistently flipping bit `bit` of encoding byte
    /// `byte` of the instruction at `pc`.
    ///
    /// Benign iff the mutated bytes still decode to an instruction of the
    /// *same length* (the stream stays aligned), both the original and the
    /// mutated instruction are pure computations (registers/flags only, no
    /// faultable operation), and every register and flag bit either one
    /// writes is dead after the site. Anything else — decode failure,
    /// length change, memory or control-flow involvement — is `Unknown`.
    pub fn insn_bit_flip_verdict(&self, pc: u64, byte: usize, bit: u8) -> StaticVerdict {
        let Some(site) = self.sites.get(&pc) else { return StaticVerdict::Unknown };
        if byte >= site.len || bit > 7 {
            return StaticVerdict::Unknown;
        }
        let mut mutated = [0u8; MAX_INSTR_LEN];
        mutated[..site.len].copy_from_slice(&site.bytes[..site.len]);
        mutated[byte] ^= 1 << bit;
        // Decode from the mutated bytes *only*: an encoding that would
        // consume bytes past the original length desynchronizes the
        // stream and must error or come back longer here.
        let Ok((new_insn, new_len)) = decode(&mutated[..site.len]) else {
            return StaticVerdict::Unknown;
        };
        if new_len != site.len {
            return StaticVerdict::Unknown;
        }
        if new_insn == site.insn {
            // A don't-care encoding bit: the instruction stream is
            // unchanged as far as execution is concerned.
            return StaticVerdict::Benign;
        }
        if !pure_computation(&site.insn) || !pure_computation(&new_insn) {
            return StaticVerdict::Unknown;
        }
        let old = transfer(&site.insn);
        let new = transfer(&new_insn);
        let defs = old.reg_defs.union(new.reg_defs);
        let flag_defs = old.flag_defs | new.flag_defs;
        if defs.intersect(site.live_out_regs).is_empty() && flag_defs & site.live_out_flags == 0 {
            StaticVerdict::Benign
        } else {
            StaticVerdict::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_asm::assemble_and_link;
    use rr_isa::encode_to_vec;

    fn analyse(src: &str) -> (rr_obj::Executable, Analysis) {
        let exe = assemble_and_link(src).unwrap();
        let analysis = Analysis::from_executable(&exe).unwrap();
        (exe, analysis)
    }

    /// Addresses of the program's instructions in order.
    fn pcs(exe: &rr_obj::Executable) -> Vec<u64> {
        let code = discover(exe).unwrap();
        code.instrs.keys().copied().collect()
    }

    #[test]
    fn dead_write_skip_is_benign_live_write_is_not() {
        let (exe, a) = analyse(
            "    .global _start\n\
             _start:\n\
                 mov r6, 1\n\
                 mov r6, 2\n\
                 mov r1, r6\n\
                 svc 0\n",
        );
        let p = pcs(&exe);
        assert_eq!(a.skip_verdict(p[0]), StaticVerdict::Benign, "r6 rewritten before use");
        assert_eq!(a.skip_verdict(p[1]), StaticVerdict::Unknown, "r6 feeds the exit code");
        assert_eq!(a.skip_verdict(p[3]), StaticVerdict::Unknown, "svc is never skippable");
    }

    #[test]
    fn register_flip_tracks_liveness() {
        let (exe, a) = analyse(
            "    .global _start\n\
             _start:\n\
                 mov r6, 1\n\
                 mov r1, r6\n\
                 mov r6, 9\n\
                 mov r6, 0\n\
                 svc 0\n",
        );
        let p = pcs(&exe);
        assert_eq!(a.reg_flip_verdict(p[0], Reg::R6), StaticVerdict::Benign, "dead before init");
        assert_eq!(a.reg_flip_verdict(p[1], Reg::R6), StaticVerdict::Unknown, "about to be read");
        assert_eq!(a.reg_flip_verdict(p[3], Reg::R6), StaticVerdict::Benign, "dead between defs");
        assert_eq!(a.reg_flip_verdict(p[3], Reg::R1), StaticVerdict::Unknown, "r1 feeds the exit");
        assert_eq!(
            a.reg_flip_verdict(p[1], Reg::R1),
            StaticVerdict::Benign,
            "about to be overwritten"
        );
        assert_eq!(a.reg_flip_verdict(0xdead, Reg::R0), StaticVerdict::Unknown, "unanalysed pc");
    }

    #[test]
    fn flag_flips_are_benign_where_no_branch_reads_them() {
        let (exe, a) = analyse(
            "    .global _start\n\
             _start:\n\
                 add r2, 1\n\
                 cmp r2, 5\n\
                 je .done\n\
                 nop\n\
             .done:\n\
                 mov r1, 0\n\
                 svc 0\n",
        );
        let p = pcs(&exe);
        // Before the add and before the cmp the flags are about to be
        // overwritten; between cmp and je the Z bit is live.
        assert_eq!(a.flag_flip_verdict(p[0], flag_bits::ALL), StaticVerdict::Benign);
        assert_eq!(a.flag_flip_verdict(p[1], flag_bits::ALL), StaticVerdict::Benign);
        assert_eq!(a.flag_flip_verdict(p[2], flag_bits::Z), StaticVerdict::Unknown);
        // …but N/C/V are not consumed by `je`.
        assert_eq!(
            a.flag_flip_verdict(p[2], flag_bits::N | flag_bits::C | flag_bits::V),
            StaticVerdict::Benign
        );
    }

    #[test]
    fn conservative_at_calls_and_returns() {
        let (exe, a) = analyse(
            "    .global _start\n\
             _start:\n\
                 mov r6, 3\n\
                 call f\n\
                 mov r1, 0\n\
                 svc 0\n\
             f:\n\
                 ret\n",
        );
        let p = pcs(&exe);
        // The call conservatively reads everything: r6 is live before it.
        assert_eq!(a.reg_flip_verdict(p[1], Reg::R6), StaticVerdict::Unknown);
        assert_eq!(a.skip_verdict(p[0]), StaticVerdict::Unknown, "write feeds the call");
        assert_eq!(a.skip_verdict(p[1]), StaticVerdict::Unknown, "calls are control flow");
    }

    #[test]
    fn insn_bit_flips_need_same_length_pure_dead_decodes() {
        let (exe, a) = analyse(
            "    .global _start\n\
             _start:\n\
                 mov r6, 1\n\
                 mov r6, 2\n\
                 mov r1, 0\n\
                 svc 0\n",
        );
        let p = pcs(&exe);
        let (insn, len) = (Instr::MovRI { rd: Reg::R6, imm: 1 }, 10);
        assert_eq!(encode_to_vec(&insn).len(), len);
        // Flipping immediate bits of the dead `mov r6, 1` keeps the
        // length and writes a dead register: benign.
        assert_eq!(a.insn_bit_flip_verdict(p[0], len - 1, 3), StaticVerdict::Benign);
        // The same flip on `mov r1, 0` changes the exit code: unknown.
        assert_eq!(a.insn_bit_flip_verdict(p[2], len - 1, 3), StaticVerdict::Unknown);
        // Out-of-range byte index: unknown, never a panic.
        assert_eq!(a.insn_bit_flip_verdict(p[0], len, 0), StaticVerdict::Unknown);
        // svc sites are never pure.
        assert_eq!(a.insn_bit_flip_verdict(p[3], 0, 0), StaticVerdict::Unknown);
    }

    #[test]
    fn loop_liveness_is_path_universal() {
        let (exe, a) = analyse(
            "    .global _start\n\
             _start:\n\
                 mov r9, 4\n\
             .loop:\n\
                 sub r9, 1\n\
                 cmp r9, 0\n\
                 jne .loop\n\
                 mov r1, 0\n\
                 svc 0\n",
        );
        let p = pcs(&exe);
        // r9 carried around the loop: flipping it anywhere in the body is unknown.
        assert_eq!(a.reg_flip_verdict(p[1], Reg::R9), StaticVerdict::Unknown);
        assert_eq!(a.reg_flip_verdict(p[2], Reg::R9), StaticVerdict::Unknown);
        // r6 is never touched: always benign to flip.
        for &pc in &p {
            assert_eq!(a.reg_flip_verdict(pc, Reg::R6), StaticVerdict::Benign);
        }
    }
}
