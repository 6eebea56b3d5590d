//! Register liveness over a reassembleable listing.
//!
//! The verification forms of the Table I patterns need a *scratch*
//! register to re-materialize a value for comparison (byte loads, large
//! immediates, address materializations). At the assembly level "the
//! register allocation … [is] fixed, therefore applying fixes at this
//! level requires extra caution not to overwrite the allocated registers
//! in use" (paper §IV-A) — this module supplies that caution: a classic
//! backward may-liveness dataflow over the listing's line-level CFG, so
//! the patcher only picks scratch registers that are provably dead.
//!
//! What each instruction reads and writes is `rr-isa`'s operand table
//! ([`rr_isa::Instr::operands`]), exact against the interpreter. This
//! module adds the patcher's policy on top: calls and indirect transfers
//! treat every register as used, a return reads what the ABI lets the
//! caller read, and unknown edges keep everything live.
//!
//! The fixed-point solver is `rr-analysis`'s [`solve_live_regs`] — the
//! same dataflow core that backs the campaign stack's static fault-effect
//! pruning. This module keeps only what is listing-specific: the
//! symbolic-instruction transfer function and the line-level CFG.

use rr_analysis::solve_live_regs;
use rr_disasm::{Line, Listing, SymInstr};
use rr_isa::{InstrKind, Reg, RegSet};
use std::collections::HashMap;

/// `(uses, defs)` of one symbolic instruction, for liveness purposes.
fn uses_defs(insn: &SymInstr) -> (RegSet, RegSet) {
    match insn {
        SymInstr::MovSym { rd, .. } => (RegSet::EMPTY, RegSet::singleton(*rd)),
        // Callees may read anything (the toolchain does not know their
        // signatures) — conservative.
        SymInstr::Branch { is_call: true, .. } => (RegSet::ALL, RegSet::EMPTY),
        SymInstr::Branch { .. } => (RegSet::EMPTY, RegSet::EMPTY),
        SymInstr::Plain(i) => {
            let ops = i.operands();
            match i.kind() {
                // At a return the ABI constrains what the caller may read:
                // the return value (r0), the callee-saved registers, and
                // the stack/frame pointers.
                InstrKind::Ret => {
                    let abi = [Reg::R0, Reg::FP, Reg::SP].into_iter().chain(Reg::CALLEE_SAVED);
                    (abi.collect(), ops.defs)
                }
                // Indirect transfers leave the analysed region entirely.
                InstrKind::Call | InstrKind::IndirectJump => (RegSet::ALL, ops.defs),
                _ => (ops.reads(), ops.defs),
            }
        }
    }
}

/// Per-line live-out register sets for a listing.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `live_out[i]` — registers live *after* text line `i`.
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Computes liveness for `listing` (backward may-analysis to a fixed
    /// point over the line-level CFG).
    pub fn compute(listing: &Listing) -> Liveness {
        let lines = &listing.text;
        let n = lines.len();

        // Label name → line index.
        let labels: HashMap<&str, usize> = lines
            .iter()
            .enumerate()
            .filter_map(|(i, l)| match l {
                Line::Label { name, .. } => Some((name.as_str(), i)),
                _ => None,
            })
            .collect();

        // Successors per line; `None` entries mean "leaves the region"
        // (everything live).
        let successors: Vec<Option<Vec<usize>>> = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                let next = if i + 1 < n { Some(i + 1) } else { None };
                match line {
                    Line::Label { .. } => Some(next.into_iter().collect()),
                    Line::RawBytes { .. } => Some(Vec::new()),
                    Line::Code { insn, .. } => match insn {
                        SymInstr::Branch { cond, is_call, target } => {
                            if *is_call {
                                // Returns to the next line.
                                Some(next.into_iter().collect())
                            } else {
                                let Some(&t) = labels.get(target.as_str()) else {
                                    return None; // target outside listing
                                };
                                let mut succs = vec![t];
                                if cond.is_some() {
                                    succs.extend(next);
                                }
                                Some(succs)
                            }
                        }
                        SymInstr::Plain(i) => match i.kind() {
                            InstrKind::Ret | InstrKind::Halt | InstrKind::IndirectJump => {
                                Some(Vec::new())
                            }
                            _ => Some(next.into_iter().collect()),
                        },
                        SymInstr::MovSym { .. } => Some(next.into_iter().collect()),
                    },
                }
            })
            .collect();

        let (uses, defs): (Vec<RegSet>, Vec<RegSet>) = lines
            .iter()
            .map(|line| match line {
                Line::Code { insn, .. } => uses_defs(insn),
                _ => (RegSet::EMPTY, RegSet::EMPTY),
            })
            .unzip();

        Liveness { live_out: solve_live_regs(&uses, &defs, &successors) }
    }

    /// Registers live after text line `index`.
    pub fn live_after(&self, index: usize) -> RegSet {
        self.live_out.get(index).copied().unwrap_or(RegSet::ALL)
    }

    /// A register provably dead after line `index`, avoiding `avoid` and
    /// the stack/frame pointers, if any exists in the scratch pool.
    pub fn dead_scratch_after(&self, index: usize, avoid: &[Reg]) -> Option<Reg> {
        let live = self.live_after(index);
        [Reg::R6, Reg::R7, Reg::R8, Reg::R9, Reg::R10, Reg::R11, Reg::R12]
            .into_iter()
            .find(|r| !live.contains(*r) && !avoid.contains(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_disasm::disassemble;

    fn liveness_for(src: &str) -> (Listing, Liveness) {
        let exe = rr_asm::assemble_and_link(src).unwrap();
        let listing = disassemble(&exe).unwrap().listing;
        let live = Liveness::compute(&listing);
        (listing, live)
    }

    #[test]
    fn straight_line_deadness() {
        // r2 is read by the store, r3 is never read again.
        let (listing, live) = liveness_for(
            "    .global _start\n\
             _start:\n\
                 mov r2, buf\n\
                 mov r3, 7\n\
                 store [r2], r1\n\
                 mov r1, 0\n\
                 svc 0\n\
                 .bss\n\
             buf:\n\
                 .space 8\n",
        );
        let mov_r2 = listing.find_code(rr_isa::TEXT_BASE).unwrap();
        assert!(live.live_after(mov_r2).contains(Reg::R2));
        // r3 is dead right after its own definition.
        let mov_r3 = listing.find_code(rr_isa::TEXT_BASE + 10).unwrap();
        assert!(!live.live_after(mov_r3).contains(Reg::R3));
        // svc keeps r1 live up to it.
        assert!(live.live_after(mov_r3).contains(Reg::R1));
    }

    #[test]
    fn loops_keep_registers_live() {
        let (listing, live) = liveness_for(
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
        // r9 is live after its init (used around the loop).
        let init = listing.find_code(rr_isa::TEXT_BASE).unwrap();
        assert!(live.live_after(init).contains(Reg::R9));
        let scratch = live.dead_scratch_after(init, &[]);
        assert!(scratch.is_some(), "plenty of dead registers remain");
        assert_ne!(scratch, Some(Reg::R9));
    }

    #[test]
    fn calls_make_everything_live() {
        let (listing, live) = liveness_for(
            "    .global _start\n\
             _start:\n\
                 mov r3, 1\n\
                 call f\n\
                 mov r1, 0\n\
                 svc 0\n\
             f:\n\
                 ret\n",
        );
        let mov = listing.find_code(rr_isa::TEXT_BASE).unwrap();
        // Everything is live into the call.
        assert!(live.live_after(mov).contains(Reg::R12));
        assert_eq!(live.dead_scratch_after(mov, &[]), None);
    }

    #[test]
    fn branch_joins_union_liveness() {
        let (listing, live) = liveness_for(
            "    .global _start\n\
             _start:\n\
                 mov r5, 9\n\
                 cmp r1, 0\n\
                 je .a\n\
                 mov r1, r5\n\
                 svc 0\n\
             .a:\n\
                 mov r1, 0\n\
                 svc 0\n",
        );
        // r5 is used on one branch only — still live at the cmp.
        let cmp = listing.find_code(rr_isa::TEXT_BASE + 10).unwrap();
        assert!(live.live_after(cmp).contains(Reg::R5));
    }
}
