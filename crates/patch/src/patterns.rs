//! Local protection patterns — the RRVM translations of the paper's
//! Tables I, II, and III.
//!
//! Each pattern replaces one vulnerable instruction (or an adjacent
//! compare/branch pair) with a redundant sequence; redundancy is the key
//! to mitigating single-fault injection (§IV-B). The concrete shapes:
//!
//! * **Moves** (Table I): when the condition flags are *dead* after the
//!   site, the paper's pattern verbatim — re-compare the moved value and
//!   `call faulthandler` on mismatch. When flags are live (the inserted
//!   compare would corrupt them), fall back to the paper's other Table I
//!   suggestion: "perform the mov twice" — moves are idempotent, so
//!   duplication alone heals a skipped or corrupted first copy.
//! * **Compares** (Table II): the essence of the paper's pattern is
//!   *executing the comparison twice*. An adjacent `cmp`+`j<cc>` pair is
//!   replaced by the fused pattern below; a standalone compare is
//!   duplicated (idempotent, exact flag semantics).
//! * **Conditional jumps** (Table III): an adjacent pair uses the fused
//!   pattern; a standalone `j<cc>` (flags produced non-locally) uses the
//!   paper's `set<cc>`-based double-edge verification.
//!
//! ## Why the patterns are stack-neutral
//!
//! A first implementation staged flags/scratch through `push`/`pop`
//! (mirroring the paper's x86 `pushfq` listings). The iterative loop then
//! discovered a subtle self-vulnerability: skipping a pattern's own
//! trailing `pop` leaves the stack pointer displaced, which in *recompiled*
//! code (whose spill slots are `sp`-relative) silently re-maps every later
//! stack access — occasionally onto an attacker-favourable path. All
//! patterns used by the loop are therefore stack-neutral: no instruction
//! they insert moves `sp`, so no single skip can unbalance it. The paper's
//! literal Table II listing is still available as
//! [`table2_reference_pattern`] for exhibition.

use rr_disasm::{Line, Listing, SymInstr};
use rr_isa::{Cond, Instr, InstrKind, Reg};
use std::collections::BTreeSet;
use std::fmt;

/// Name of the injected fault-handler function. Its body is a single
/// `halt`: an abnormal machine stop the campaign always classifies as
/// *crashed* (detected), matching the paper's abort-style fault response.
pub const FAULT_HANDLER: &str = "__rr_faulthandler";

/// Which of the paper's patterns was applied at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Table I, verification form (flags dead): move + re-compare + trap.
    MovVerify,
    /// Table I, duplication form (flags live): idempotent re-execution.
    MovDuplicate,
    /// Table II: standalone comparison, duplicated.
    Cmp,
    /// Table III: standalone conditional jump, `set<cc>` edge checks.
    CondJump,
    /// Unconditional `jmp` (skip protection: a trap behind the jump).
    Jmp,
    /// Fused `cmp` + `j<cond>` pair: the comparison is re-executed on both
    /// sides of the decision and the taken direction re-validated, so
    /// corruption of *any* single copy — including the last — is caught.
    FusedCmpBranch,
    /// `set<cc>`, duplicated (idempotent).
    SetCc,
}

impl fmt::Display for PatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PatternKind::MovVerify => "mov verify (Table I)",
            PatternKind::MovDuplicate => "mov duplicate (Table I)",
            PatternKind::Cmp => "cmp duplicate (Table II)",
            PatternKind::CondJump => "j<cond> (Table III)",
            PatternKind::Jmp => "jmp trap",
            PatternKind::FusedCmpBranch => "cmp+j<cond> (fused)",
            PatternKind::SetCc => "set<cc> duplicate",
        })
    }
}

/// Outcome of one patching pass over a listing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Addresses patched, with the pattern used.
    pub patched: Vec<(u64, PatternKind)>,
    /// Addresses left unpatched (no applicable pattern), with the reason.
    pub skipped: Vec<(u64, String)>,
}

impl PatchStats {
    /// Number of patched sites.
    pub fn patched_count(&self) -> usize {
        self.patched.len()
    }
}

/// Applies protection patterns to every `vulnerable` original address in
/// `listing`, injecting the [`FAULT_HANDLER`] if anything was patched.
///
/// Addresses not present in the listing (already replaced by an earlier
/// pass) are reported in [`PatchStats::skipped`].
pub fn apply_patterns(listing: &mut Listing, vulnerable: &BTreeSet<u64>) -> PatchStats {
    let mut stats = PatchStats::default();
    let mut consumed: BTreeSet<u64> = BTreeSet::new();
    // Liveness for scratch selection, computed once on the pre-patch
    // listing and queried by original address (indices shift as patches
    // are spliced in).
    let liveness = crate::liveness::Liveness::compute(listing);
    let pre_patch_index: std::collections::HashMap<u64, usize> =
        listing.original_code().map(|(i, a, _)| (a, i)).collect();
    for &addr in vulnerable {
        if consumed.contains(&addr) {
            stats.patched.push((addr, PatternKind::FusedCmpBranch));
            continue;
        }
        let Some(index) = listing.find_code(addr) else {
            stats.skipped.push((addr, "address no longer in listing".into()));
            continue;
        };
        // Prefer the fused cmp+branch pattern when the vulnerable site is
        // half of an adjacent compare/conditional-jump pair.
        if let Some((cmp_index, partner_addr)) = fusible_pair(listing, index) {
            let Line::Code { insn: cmp_line, .. } = listing.text[cmp_index].clone() else {
                unreachable!("fusible_pair returns code lines");
            };
            let Line::Code { insn: br_line, .. } = listing.text[cmp_index + 1].clone() else {
                unreachable!("fusible_pair returns code lines");
            };
            let (SymInstr::Plain(cmp_insn), SymInstr::Branch { cond: Some(cc), target, .. }) =
                (cmp_line, br_line)
            else {
                unreachable!("fusible_pair shape checked");
            };
            let lines = protect_fused(cmp_insn, cc, &target, listing);
            listing.replace_code_range(cmp_index, 2, lines);
            stats.patched.push((addr, PatternKind::FusedCmpBranch));
            if let Some(partner) = partner_addr {
                consumed.insert(partner);
            }
            continue;
        }
        let Line::Code { insn, .. } = listing.text[index].clone() else {
            unreachable!("find_code returns code lines");
        };
        let flags_dead = flags_dead_after(listing, index);
        let scratch_for = |avoid: &[Reg]| {
            pre_patch_index.get(&addr).and_then(|&i| liveness.dead_scratch_after(i, avoid))
        };
        match expand(&insn, flags_dead, &scratch_for, listing) {
            Ok((lines, kind)) => {
                listing.replace_code(index, lines);
                stats.patched.push((addr, kind));
            }
            Err(reason) => stats.skipped.push((addr, reason)),
        }
    }
    if !stats.patched.is_empty() {
        ensure_fault_handler(listing);
    }
    stats
}

/// Ensures the fault-handler function exists at the end of the text
/// section.
pub fn ensure_fault_handler(listing: &mut Listing) {
    if listing.has_label(FAULT_HANDLER) {
        return;
    }
    listing.append_text([
        Line::Label { name: FAULT_HANDLER.to_owned(), global: false },
        Line::Code { orig_addr: None, insn: SymInstr::Plain(Instr::Halt) },
    ]);
}

/// Whether the condition flags are provably dead after the line at
/// `index`: a flag-*writing* instruction is reached before any flag
/// reader or label (conservative: merge points count as readers).
///
/// The RRVM ABI makes flags caller-clobbered and undefined across function
/// boundaries, so `call` and `ret` also kill them.
fn flags_dead_after(listing: &Listing, index: usize) -> bool {
    for line in &listing.text[index + 1..] {
        match line {
            Line::Label { .. } | Line::RawBytes { .. } => return false,
            Line::Code { insn, .. } => match insn {
                // ABI: flags are dead across calls.
                SymInstr::Branch { is_call: true, .. } => return true,
                SymInstr::Branch { .. } => return false,
                SymInstr::MovSym { .. } => continue,
                SymInstr::Plain(i) => {
                    if i.reads_flags() {
                        return false;
                    }
                    if i.sets_flags() {
                        return true;
                    }
                    match i.kind() {
                        // ABI: flags are undefined at function exit too.
                        InstrKind::Halt | InstrKind::Ret => return true,
                        InstrKind::IndirectJump | InstrKind::Call => return false,
                        _ => continue,
                    }
                }
            },
        }
    }
    true // end of text: nothing reads them
}

/// Whether an adjacent `cmp`/`j<cond>` pair starts at the line before or
/// at `index` (no label in between — a label would admit other control
/// flow into the jump with unrelated flags). Returns the index of the
/// `cmp` line and the original address of the partner line.
fn fusible_pair(listing: &Listing, index: usize) -> Option<(usize, Option<u64>)> {
    let is_cmp = |line: &Line| {
        matches!(
            line,
            Line::Code { insn: SymInstr::Plain(i), .. }
                if matches!(i.kind(), InstrKind::Cmp) && !reads_sp(i)
        )
    };
    let is_condjump = |line: &Line| {
        matches!(line, Line::Code { insn: SymInstr::Branch { cond: Some(_), .. }, .. })
    };
    let orig_addr = |line: &Line| match line {
        Line::Code { orig_addr, .. } => *orig_addr,
        _ => None,
    };
    let line = &listing.text[index];
    if is_cmp(line) && index + 1 < listing.text.len() && is_condjump(&listing.text[index + 1]) {
        return Some((index, orig_addr(&listing.text[index + 1])));
    }
    if is_condjump(line) && index > 0 && is_cmp(&listing.text[index - 1]) {
        return Some((index - 1, orig_addr(&listing.text[index - 1])));
    }
    None
}

/// Whether re-executing the instruction would observe a different stack
/// pointer state (nothing in our patterns moves sp, so only direct sp
/// *value* reads matter — sp-based memory operands are fine).
fn reads_sp(i: &Instr) -> bool {
    i.operands().uses.contains(Reg::SP)
}

/// Whether duplicating the instruction back-to-back is a no-op on the
/// second execution (the Barry-et-al. idempotency criterion the paper
/// cites): a move, load, store, compare or `set<cc>` that writes no
/// register it reads. `mov rd, rd` reads what it writes but writes back
/// what it read, so it qualifies too.
fn is_idempotent(i: &Instr) -> bool {
    let ops = i.operands();
    let self_copy = i.kind() == InstrKind::Mov && ops.uses == ops.defs;
    matches!(
        i.kind(),
        InstrKind::Mov | InstrKind::Load | InstrKind::Store | InstrKind::Cmp | InstrKind::SetCc
    ) && (ops.defs.intersect(ops.reads()).is_empty() || self_copy)
}

/// Expands one instruction into its protected form. `scratch_for`
/// provides a provably dead scratch register (per the listing's liveness
/// analysis), if one exists.
///
/// # Errors
///
/// Returns a human-readable reason when no pattern applies (stack-pointer
/// writes, calls, service calls, …).
fn expand(
    insn: &SymInstr,
    flags_dead: bool,
    scratch_for: &dyn Fn(&[Reg]) -> Option<Reg>,
    listing: &mut Listing,
) -> Result<(Vec<Line>, PatternKind), String> {
    match insn {
        SymInstr::Branch { cond: Some(cc), is_call: false, target } => {
            Ok((protect_jcc(*cc, target, listing), PatternKind::CondJump))
        }
        SymInstr::Branch { cond: None, is_call: false, target } => {
            Ok((protect_jmp(target), PatternKind::Jmp))
        }
        SymInstr::Branch { is_call: true, .. } => Err("calls are not locally protectable".into()),
        SymInstr::MovSym { rd, .. } => {
            if *rd == Reg::SP {
                return Err("stack-pointer move".into());
            }
            // With a dead scratch: re-materialize and verify. Otherwise:
            // idempotent duplication.
            if flags_dead {
                if let Some(s) = scratch_for(&[*rd]) {
                    let mut redo = insn.clone();
                    if let SymInstr::MovSym { rd: target_reg, .. } = &mut redo {
                        *target_reg = s;
                    }
                    let lines = verify_with(
                        code(insn.clone()),
                        vec![code(redo), plain(Instr::CmpRR { rs1: *rd, rs2: s })],
                        listing,
                    );
                    return Ok((lines, PatternKind::MovVerify));
                }
            }
            Ok((vec![code(insn.clone()), code(insn.clone())], PatternKind::MovDuplicate))
        }
        SymInstr::Plain(instr) => expand_plain(instr, flags_dead, scratch_for, listing),
    }
}

fn expand_plain(
    instr: &Instr,
    flags_dead: bool,
    scratch_for: &dyn Fn(&[Reg]) -> Option<Reg>,
    listing: &mut Listing,
) -> Result<(Vec<Line>, PatternKind), String> {
    match instr.kind() {
        InstrKind::Mov | InstrKind::Load | InstrKind::Store => {
            // A move that writes sp cannot be re-executed or verified
            // without changing stack state.
            if instr.operands().defs.contains(Reg::SP) {
                return Err("stack-pointer write".into());
            }
            // Table I. Verification form when safe (flags dead and a
            // re-compare exists — scratch-free, or through a provably
            // dead register), duplication otherwise.
            if flags_dead {
                if let Some(verify) = verify_compare(instr) {
                    return Ok((
                        verify_with(plain(*instr), vec![plain(verify)], listing),
                        PatternKind::MovVerify,
                    ));
                }
                if let Some(lines) = verify_via_scratch(instr, scratch_for, listing) {
                    return Ok((lines, PatternKind::MovVerify));
                }
            }
            if is_idempotent(instr) {
                Ok((vec![plain(*instr), plain(*instr)], PatternKind::MovDuplicate))
            } else {
                Err(format!("`{instr}` is neither verifiable nor idempotent here"))
            }
        }
        InstrKind::Cmp => {
            if reads_sp(instr) {
                return Err("stack-pointer compare".into());
            }
            // Table II: execute the comparison twice. Flags after the
            // pattern are those of the (re-)comparison — identical to the
            // original semantics.
            Ok((vec![plain(*instr), plain(*instr)], PatternKind::Cmp))
        }
        InstrKind::SetCc => Ok((vec![plain(*instr), plain(*instr)], PatternKind::SetCc)),
        _ => Err(format!("no local pattern for `{instr}`")),
    }
}

/// Wraps `original` + a verify sequence ending in a flag-setting compare
/// (equal on the unfaulted path) with the Table I trap structure.
fn verify_with(original: Line, verify: Vec<Line>, listing: &mut Listing) -> Vec<Line> {
    let ok = listing.fresh_label("happy");
    let mut lines = vec![original];
    lines.extend(verify);
    lines.extend([branch_cc(Cond::Eq, &ok), call_handler(), label(&ok)]);
    lines
}

/// The scratch-free verification compare for a move, if one exists
/// (paper Table I: `mov rax,[rbx+4]` → `cmp rax,[rbx+4]`).
fn verify_compare(i: &Instr) -> Option<Instr> {
    match *i {
        Instr::MovRR { rd, rs } => Some(Instr::CmpRR { rs1: rd, rs2: rs }),
        Instr::MovRI { rd, imm } => {
            i32::try_from(imm as i64).ok().map(|small| Instr::CmpRI { rs1: rd, imm: small })
        }
        Instr::Load { rd, base, disp } if rd != base => Some(Instr::CmpRM { rs1: rd, base, disp }),
        Instr::Store { base, disp, rs } => Some(Instr::CmpRM { rs1: rs, base, disp }),
        // Byte-wide and address moves need a scratch register to verify.
        _ => None,
    }
}

/// Verification through a provably dead scratch register, for the move
/// forms whose re-check needs one (`loadb`, `lea`, large `mov`
/// immediates, `storeb`).
fn verify_via_scratch(
    i: &Instr,
    scratch_for: &dyn Fn(&[Reg]) -> Option<Reg>,
    listing: &mut Listing,
) -> Option<Vec<Line>> {
    match *i {
        Instr::LoadB { rd, base, disp } if rd != base => {
            let s = scratch_for(&[rd, base])?;
            Some(verify_with(
                plain(*i),
                vec![
                    plain(Instr::LoadB { rd: s, base, disp }),
                    plain(Instr::CmpRR { rs1: rd, rs2: s }),
                ],
                listing,
            ))
        }
        Instr::Lea { rd, base, disp } if rd != base => {
            let s = scratch_for(&[rd, base])?;
            Some(verify_with(
                plain(*i),
                vec![
                    plain(Instr::Lea { rd: s, base, disp }),
                    plain(Instr::CmpRR { rs1: rd, rs2: s }),
                ],
                listing,
            ))
        }
        Instr::MovRI { rd, imm } if i32::try_from(imm as i64).is_err() => {
            let s = scratch_for(&[rd])?;
            Some(verify_with(
                plain(*i),
                vec![plain(Instr::MovRI { rd: s, imm }), plain(Instr::CmpRR { rs1: rd, rs2: s })],
                listing,
            ))
        }
        Instr::StoreB { base, disp, rs } => {
            let s1 = scratch_for(&[base, rs])?;
            let s2 = scratch_for(&[base, rs, s1])?;
            Some(verify_with(
                plain(*i),
                vec![
                    plain(Instr::LoadB { rd: s1, base, disp }),
                    plain(Instr::MovRR { rd: s2, rs }),
                    plain(Instr::AluRI { op: rr_isa::AluOp::And, rd: s2, imm: 0xFF }),
                    plain(Instr::CmpRR { rs1: s1, rs2: s2 }),
                ],
                listing,
            ))
        }
        _ => None,
    }
}

/// The fused `cmp` + `j<cond>` pattern:
///
/// ```text
///     cmp a, b
///     j<cc> .vt
///     cmp a, b             ; fresh re-comparison on the fall-through edge
///     j<cc> .fh1           ; direction changed under us → fault
///     jmp .after
/// .fh1:
///     call faulthandler
/// .vt:
///     cmp a, b             ; fresh re-comparison on the taken edge
///     j<!cc> .fh2
///     j<cc> target         ; re-validated transfer
///     call faulthandler
/// .fh2:
///     call faulthandler
/// .after:
/// ```
///
/// Any single corruption of one comparison (skip, opcode flip, operand
/// flip) makes the two evaluations disagree and lands in the fault
/// handler; subsequent code sees the flags of the final fresh comparison,
/// exactly as after the original pair.
fn protect_fused(cmp: Instr, cc: Cond, target: &str, listing: &mut Listing) -> Vec<Line> {
    let fh1 = listing.fresh_label("fus_fh1");
    let fh2 = listing.fresh_label("fus_fh2");
    let vt = listing.fresh_label("fus_vt");
    let after = listing.fresh_label("fus_after");
    vec![
        plain(cmp),
        branch_cc(cc, &vt),
        plain(cmp),
        branch_cc(cc, &fh1),
        jmp_to(&after),
        label(&fh1),
        call_handler(),
        label(&vt),
        plain(cmp),
        branch_cc(cc.negate(), &fh2),
        branch_cc(cc, target),
        call_handler(),
        label(&fh2),
        call_handler(),
        label(&after),
    ]
}

/// Table III for a *standalone* conditional jump (flags produced
/// non-locally): verify the condition with `set<cc>` on both edges and
/// re-issue the transfer as a verified conditional jump.
///
/// The scratch register and the flag word are staged through the stack
/// (`push`/`pushf`, restored in duplicate), as in the paper's listing.
fn protect_jcc(cc: Cond, target: &str, listing: &mut Listing) -> Vec<Line> {
    let scratch = Reg::R6;
    let vt = listing.fresh_label("jvt");
    let vf_ok = listing.fresh_label("jvf_ok");
    let vt_ok = listing.fresh_label("jvt_ok");
    let after = listing.fresh_label("jafter");
    let mut lines = vec![branch_cc(cc, &vt)];
    lines.extend(edge_check(cc, scratch, 0, &vf_ok));
    lines.push(branch_cc(cc.negate(), &after));
    lines.push(call_handler());
    lines.push(label(&vt));
    lines.extend(edge_check(cc, scratch, 1, &vt_ok));
    lines.push(branch_cc(cc, target));
    lines.push(call_handler());
    lines.push(label(&after));
    lines
}

fn edge_check(cc: Cond, scratch: Reg, expected: i32, ok: &str) -> Vec<Line> {
    vec![
        plain(Instr::Push { rs: scratch }),
        plain(Instr::PushF),
        plain(Instr::PushF),
        plain(Instr::SetCc { rd: scratch, cc }),
        plain(Instr::CmpRI { rs1: scratch, imm: expected }),
        branch_cc(Cond::Eq, ok),
        call_handler(),
        label(ok),
        plain(Instr::PopF),
        plain(Instr::PopF),
        plain(Instr::Pop { rd: scratch }),
    ]
}

/// Skip protection for an unconditional `jmp`: a skipped jump now falls
/// into the fault handler instead of the next instruction.
fn protect_jmp(target: &str) -> Vec<Line> {
    vec![jmp_to(target), call_handler()]
}

/// The paper's Table II listing, translated literally (double comparison
/// with `pushf`-staged flag words, a scratch register, and a fault-handler
/// diversion). Provided for exhibition and comparison; the iterative loop
/// uses the stack-neutral equivalents (see the module docs for why).
pub fn table2_reference_pattern(cmp: Instr, listing: &mut Listing) -> Vec<Line> {
    let scratch = Reg::R6;
    let ok = listing.fresh_label("cok");
    vec![
        plain(cmp),
        plain(Instr::PushF),
        plain(Instr::Push { rs: scratch }),
        plain(adjust_sp_disp(cmp, 16)),
        plain(Instr::PushF),
        plain(Instr::Pop { rd: scratch }),
        plain(Instr::CmpRM { rs1: scratch, base: Reg::SP, disp: 8 }),
        branch_cc(Cond::Eq, &ok),
        call_handler(),
        label(&ok),
        plain(Instr::Pop { rd: scratch }),
        plain(Instr::PopF),
    ]
}

/// Compensates sp-relative displacements for `extra` bytes pushed between
/// the original instruction and its re-execution (reference pattern only).
fn adjust_sp_disp(instr: Instr, extra: i32) -> Instr {
    match instr {
        Instr::CmpRM { rs1, base, disp } if base == Reg::SP => {
            Instr::CmpRM { rs1, base, disp: disp + extra }
        }
        other => other,
    }
}

fn plain(instr: Instr) -> Line {
    Line::Code { orig_addr: None, insn: SymInstr::Plain(instr) }
}

fn code(insn: SymInstr) -> Line {
    Line::Code { orig_addr: None, insn }
}

fn label(name: &str) -> Line {
    Line::Label { name: name.to_owned(), global: false }
}

fn branch_cc(cc: Cond, target: &str) -> Line {
    Line::Code {
        orig_addr: None,
        insn: SymInstr::Branch { cond: Some(cc), is_call: false, target: target.to_owned() },
    }
}

fn jmp_to(target: &str) -> Line {
    Line::Code {
        orig_addr: None,
        insn: SymInstr::Branch { cond: None, is_call: false, target: target.to_owned() },
    }
}

fn call_handler() -> Line {
    Line::Code {
        orig_addr: None,
        insn: SymInstr::Branch { cond: None, is_call: true, target: FAULT_HANDLER.to_owned() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_asm::assemble_and_link;
    use rr_disasm::disassemble;
    use rr_emu::execute;

    /// Builds a program, patches the instructions at the given original
    /// addresses, and checks behaviour is preserved on `input`.
    fn patch_and_check(src: &str, vulnerable_addrs: &[u64], input: &[u8]) {
        let exe = assemble_and_link(src).expect("source builds");
        let original = execute(&exe, input, 500_000);
        let mut listing = disassemble(&exe).expect("disassembles").listing;
        let set: BTreeSet<u64> = vulnerable_addrs.iter().copied().collect();
        let stats = apply_patterns(&mut listing, &set);
        assert_eq!(stats.patched_count(), set.len(), "skipped: {:?}", stats.skipped);
        let patched = assemble_and_link(&listing.to_source())
            .unwrap_or_else(|e| panic!("patched source must build: {e}\n{}", listing.to_source()));
        let result = execute(&patched, input, 500_000);
        assert!(
            original.same_behavior(&result),
            "behaviour changed: {:?} vs {:?}\n{}",
            original,
            result,
            listing.to_source()
        );
        assert!(patched.code_size() > exe.code_size(), "patterns must add code");
    }

    const ENTRY: u64 = rr_isa::TEXT_BASE;

    #[test]
    fn mov_rr_pattern_preserves_behavior() {
        // mov r2, r1 at entry+10 (after 10-byte mov r1, 5).
        patch_and_check(
            "    .global _start\n_start:\n    mov r1, 5\n    mov r2, r1\n    mov r1, r2\n    svc 0\n",
            &[ENTRY + 10],
            &[],
        );
    }

    #[test]
    fn mov_ri_small_and_large_immediates() {
        patch_and_check("    .global _start\n_start:\n    mov r1, 5\n    svc 0\n", &[ENTRY], &[]);
        patch_and_check(
            "    .global _start\n_start:\n    mov r1, 0xcbf29ce484222325\n    xor r1, r1\n    svc 0\n",
            &[ENTRY],
            &[],
        );
    }

    #[test]
    fn mov_with_live_flags_uses_duplication() {
        // The mov sits between a cmp and its je: the inserted pattern must
        // not disturb the flags.
        let src = "    .global _start\n\
             _start:\n\
                 mov r1, 5\n\
                 cmp r1, 5\n\
                 mov r2, 9\n\
                 je .ok\n\
                 mov r1, 1\n\
                 svc 0\n\
             .ok:\n\
                 mov r1, 0\n\
                 svc 0\n";
        let exe = assemble_and_link(src).unwrap();
        let mut listing = disassemble(&exe).unwrap().listing;
        // mov r2, 9 at entry + 10 + 6.
        let stats = apply_patterns(&mut listing, &BTreeSet::from([ENTRY + 16]));
        assert_eq!(stats.patched, vec![(ENTRY + 16, PatternKind::MovDuplicate)]);
        let patched = assemble_and_link(&listing.to_source()).unwrap();
        let run = execute(&patched, &[], 500_000);
        assert_eq!(run.outcome, rr_emu::RunOutcome::Exited { code: 0 });
    }

    #[test]
    fn zero_count_shift_keeps_the_flags_live() {
        // `shl r4, 0` leaves the flags alone, so the `cmp` still decides
        // the `jeq`: the patched `mov r3, 5` must not get a verification
        // compare (its `cmp r3, 5` would take the branch, exit 2).
        patch_and_check(
            "    .global _start\n\
             _start:\n\
                 mov r2, 0\n\
                 cmp r2, 1\n\
                 mov r3, 5\n\
                 shl r4, 0\n\
                 jeq .x\n\
                 mov r1, 1\n\
                 svc 0\n\
             .x:\n\
                 mov r1, 2\n\
                 svc 0\n",
            &[ENTRY + 16],
            &[],
        );
    }

    #[test]
    fn lea_that_reads_its_destination_is_not_duplicated() {
        // The flags are live after `lea r1, [r1+8]`, so no verification
        // compare may follow it, and running it twice would add 8 twice
        // (exit 21 instead of 13): the site has no pattern.
        let exe = assemble_and_link(
            "    .global _start\n\
             _start:\n\
                 mov r1, 5\n\
                 mov r2, 0\n\
                 cmp r2, 0\n\
                 lea r1, [r1+8]\n\
                 jeq .x\n\
                 mov r1, 1\n\
             .x:\n\
                 svc 0\n",
        )
        .unwrap();
        let mut listing = disassemble(&exe).unwrap().listing;
        let stats = apply_patterns(&mut listing, &BTreeSet::from([ENTRY + 26]));
        assert_eq!(stats.patched, vec![], "skipped: {:?}", stats.skipped);
        let patched = assemble_and_link(&listing.to_source()).unwrap();
        let run = execute(&patched, &[], 500_000);
        assert_eq!(run.outcome, rr_emu::RunOutcome::Exited { code: 13 });
    }

    #[test]
    fn mov_with_dead_flags_uses_verification() {
        let exe = assemble_and_link(
            "    .global _start\n_start:\n    mov r2, r1\n    cmp r2, 0\n    seteq r1\n    svc 0\n",
        )
        .unwrap();
        let mut listing = disassemble(&exe).unwrap().listing;
        let stats = apply_patterns(&mut listing, &BTreeSet::from([ENTRY]));
        assert_eq!(stats.patched, vec![(ENTRY, PatternKind::MovVerify)]);
        let source = listing.to_source();
        assert!(source.contains(FAULT_HANDLER), "{source}");
    }

    #[test]
    fn load_pattern_with_plain_and_sp_base() {
        patch_and_check(
            "    .global _start\n\
             _start:\n\
                 mov r2, value\n\
                 load r1, [r2]\n\
                 svc 0\n\
                 .data\n\
             value:\n\
                 .quad 3\n",
            &[ENTRY + 10],
            &[],
        );
        // sp-relative load: push a value, reload it through sp. The
        // stack-neutral pattern needs no displacement compensation.
        patch_and_check(
            "    .global _start\n\
             _start:\n\
                 mov r1, 9\n\
                 push r1\n\
                 load r2, [sp]\n\
                 pop r3\n\
                 mov r1, r2\n\
                 svc 0\n",
            &[ENTRY + 12],
            &[],
        );
    }

    #[test]
    fn store_and_byte_patterns() {
        patch_and_check(
            "    .global _start\n\
             _start:\n\
                 mov r2, buf\n\
                 mov r1, 77\n\
                 store [r2], r1\n\
                 storeb [r2+1], r1\n\
                 loadb r3, [r2+1]\n\
                 mov r1, r3\n\
                 svc 0\n\
                 .bss\n\
             buf:\n\
                 .space 16\n",
            &[ENTRY + 20, ENTRY + 26, ENTRY + 32],
            &[],
        );
    }

    #[test]
    fn lea_pattern() {
        patch_and_check(
            "    .global _start\n\
             _start:\n\
                 mov r2, buf\n\
                 lea r3, [r2+8]\n\
                 store [r3], r1\n\
                 mov r1, 0\n\
                 svc 0\n\
                 .bss\n\
             buf:\n\
                 .space 16\n",
            &[ENTRY + 10],
            &[],
        );
    }

    #[test]
    fn mov_sym_pattern() {
        patch_and_check(
            "    .global _start\n\
             _start:\n\
                 mov r2, value\n\
                 load r1, [r2]\n\
                 svc 0\n\
                 .data\n\
             value:\n\
                 .quad 0\n",
            &[ENTRY],
            &[],
        );
    }

    #[test]
    fn cmp_patterns_preserve_flags_semantics() {
        // The conditional jump after the patched cmp must still see the
        // original comparison's flags (fused pattern here).
        for (a, b, expect) in [(5i64, 5i64, b'Y'), (5, 6, b'N')] {
            let src = format!(
                "    .global _start\n\
                 _start:\n\
                     mov r1, {a}\n\
                     mov r2, {b}\n\
                     cmp r1, r2\n\
                     je .eq\n\
                     mov r1, 'N'\n\
                     jmp .out\n\
                 .eq:\n\
                     mov r1, 'Y'\n\
                 .out:\n\
                     svc 1\n\
                     mov r1, 0\n\
                     svc 0\n"
            );
            let exe = assemble_and_link(&src).unwrap();
            let mut listing = disassemble(&exe).unwrap().listing;
            let stats = apply_patterns(&mut listing, &BTreeSet::from([ENTRY + 20]));
            assert_eq!(stats.patched, vec![(ENTRY + 20, PatternKind::FusedCmpBranch)]);
            let patched = assemble_and_link(&listing.to_source()).unwrap();
            let run = execute(&patched, &[], 500_000);
            assert_eq!(run.output, [expect], "a={a} b={b}");
        }
    }

    #[test]
    fn standalone_cmp_duplicates() {
        // cmp followed by setcc (not a branch): duplication for both.
        patch_and_check(
            "    .global _start\n\
             _start:\n\
                 mov r2, value\n\
                 mov r1, 3\n\
                 cmp r1, [r2]\n\
                 setlt r1\n\
                 svc 0\n\
                 .data\n\
             value:\n\
                 .quad 7\n",
            &[ENTRY + 20, ENTRY + 26],
            &[],
        );
        patch_and_check(
            "    .global _start\n_start:\n    mov r1, 3\n    test r1, r1\n    setne r1\n    svc 0\n",
            &[ENTRY + 10],
            &[],
        );
    }

    #[test]
    fn cmp_pattern_with_sp_relative_memory() {
        patch_and_check(
            "    .global _start\n\
             _start:\n\
                 mov r1, 11\n\
                 push r1\n\
                 cmp r1, [sp]\n\
                 seteq r1\n\
                 pop r2\n\
                 svc 0\n",
            &[ENTRY + 12],
            &[],
        );
    }

    #[test]
    fn jcc_pattern_both_directions() {
        // Taken and untaken branches must both behave (fused pattern).
        for (value, expect) in [(0i64, b'Z'), (1, b'P')] {
            let src = format!(
                "    .global _start\n\
                 _start:\n\
                     mov r1, {value}\n\
                     cmp r1, 0\n\
                     je .zero\n\
                     mov r1, 'P'\n\
                     jmp .out\n\
                 .zero:\n\
                     mov r1, 'Z'\n\
                 .out:\n\
                     svc 1\n\
                     mov r1, 0\n\
                     svc 0\n"
            );
            let exe = assemble_and_link(&src).unwrap();
            let mut listing = disassemble(&exe).unwrap().listing;
            // je is at entry + 10 + 6.
            let stats = apply_patterns(&mut listing, &BTreeSet::from([ENTRY + 16]));
            assert_eq!(stats.patched_count(), 1, "{:?}", stats.skipped);
            let patched = assemble_and_link(&listing.to_source()).unwrap();
            let run = execute(&patched, &[], 500_000);
            assert_eq!(run.output, [expect], "value={value}");
        }
    }

    #[test]
    fn standalone_jcc_uses_table3() {
        // A (referenced) label between cmp and jne prevents fusion,
        // forcing Table III.
        for (value, code) in [(0i64, 1u64), (7, 0)] {
            let src = format!(
                "    .global _start\n\
                 _start:\n\
                     mov r1, {value}\n\
                     cmp r1, 0\n\
                     jmp .merge\n\
                 .merge:\n\
                     jne .nz\n\
                     mov r1, 1\n\
                     svc 0\n\
                 .nz:\n\
                     mov r1, 0\n\
                     svc 0\n"
            );
            let exe = assemble_and_link(&src).unwrap();
            let mut listing = disassemble(&exe).unwrap().listing;
            // The jne sits after the .merge label, at entry+10+6+5.
            let stats = apply_patterns(&mut listing, &BTreeSet::from([ENTRY + 21]));
            assert_eq!(stats.patched, vec![(ENTRY + 21, PatternKind::CondJump)]);
            let patched = assemble_and_link(&listing.to_source()).unwrap();
            let run = execute(&patched, &[], 500_000);
            assert_eq!(run.outcome, rr_emu::RunOutcome::Exited { code }, "value={value}");
        }
    }

    #[test]
    fn jmp_trap_pattern() {
        patch_and_check(
            "    .global _start\n\
             _start:\n\
                 jmp .on\n\
                 nop\n\
             .on:\n\
                 mov r1, 0\n\
                 svc 0\n",
            &[ENTRY],
            &[],
        );
    }

    #[test]
    fn unpatchable_sites_are_reported() {
        let exe =
            assemble_and_link("    .global _start\n_start:\n    call f\n    svc 0\nf:\n    ret\n")
                .unwrap();
        let mut listing = disassemble(&exe).unwrap().listing;
        let stats = apply_patterns(&mut listing, &BTreeSet::from([ENTRY, ENTRY + 5, 0x9999]));
        // call → unpatchable; svc → unpatchable; 0x9999 → not in listing.
        assert_eq!(stats.patched_count(), 0);
        assert_eq!(stats.skipped.len(), 3);
    }

    #[test]
    fn fault_handler_injected_once() {
        let exe = assemble_and_link(
            "    .global _start\n_start:\n    mov r1, 1\n    mov r2, 2\n    svc 0\n",
        )
        .unwrap();
        let mut listing = disassemble(&exe).unwrap().listing;
        apply_patterns(&mut listing, &BTreeSet::from([ENTRY]));
        apply_patterns(&mut listing, &BTreeSet::from([ENTRY + 10]));
        let source = listing.to_source();
        assert_eq!(source.matches(&format!("{FAULT_HANDLER}:")).count(), 1, "{source}");
    }

    #[test]
    fn table2_reference_pattern_is_faithful() {
        let mut listing = Listing::new();
        let lines = table2_reference_pattern(
            Instr::CmpRM { rs1: Reg::R1, base: Reg::R2, disp: 4 },
            &mut listing,
        );
        let text: Vec<String> = lines
            .iter()
            .filter_map(|l| match l {
                Line::Code { insn, .. } => Some(insn.render()),
                Line::Label { name, .. } => Some(format!("{name}:")),
                _ => None,
            })
            .collect();
        let joined = text.join("\n");
        // Double comparison, pushf-staged flag words, fault diversion.
        assert_eq!(joined.matches("cmp r1, [r2+4]").count(), 2, "{joined}");
        assert_eq!(joined.matches("pushf").count(), 2, "{joined}");
        assert!(joined.contains(FAULT_HANDLER));
    }

    #[test]
    fn patterns_never_move_sp() {
        // The loop's patterns must be stack-neutral: scan everything the
        // patcher can emit for sp-writing instructions (the standalone
        // Table III j<cond> pattern is the documented exception).
        let exe = assemble_and_link(
            "    .global _start\n\
             _start:\n\
                 mov r1, 5\n\
                 mov r2, r1\n\
                 cmp r1, r2\n\
                 je .x\n\
                 nop\n\
             .x:\n\
                 mov r3, buf\n\
                 store [r3], r1\n\
                 load r4, [r3]\n\
                 loadb r5, [r3]\n\
                 lea r6, [r3+8]\n\
                 seteq r7\n\
                 mov r1, 0\n\
                 svc 0\n\
                 .bss\n\
             buf:\n\
                 .space 16\n",
        )
        .unwrap();
        let mut listing = disassemble(&exe).unwrap().listing;
        let all: BTreeSet<u64> = listing.original_code().map(|(_, a, _)| a).collect();
        apply_patterns(&mut listing, &all);
        for line in &listing.text {
            if let Line::Code { orig_addr: None, insn: SymInstr::Plain(i) } = line {
                let moves_sp = matches!(
                    i,
                    Instr::Push { .. } | Instr::Pop { .. } | Instr::PushF | Instr::PopF
                ) || matches!(*i, Instr::Lea { rd, .. } if rd == Reg::SP);
                assert!(!moves_sp, "pattern instruction moves sp: {i}");
            }
        }
    }

    /// Exhaustive single-skip robustness: for a protected decision, *no*
    /// single instruction skip anywhere in the program may flip the
    /// decision. This is the property the paper's loop converges to; here
    /// it must hold after one pass.
    #[test]
    fn patterns_are_single_skip_robust() {
        let w = rr_workloads::pincheck();
        let exe = w.build().unwrap();
        // Patch *every* protectable instruction (holistic application).
        let mut listing = disassemble(&exe).unwrap().listing;
        let all_addrs: BTreeSet<u64> = listing.original_code().map(|(_, a, _)| a).collect();
        apply_patterns(&mut listing, &all_addrs);
        let patched = assemble_and_link(&listing.to_source()).unwrap();

        let session = rr_fault::CampaignSession::builder(patched)
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .build()
            .unwrap();
        let report = session
            .run(&[&rr_fault::InstructionSkip as &dyn rr_fault::FaultModel], rr_fault::Collect)
            .pop()
            .unwrap();
        let vulns = report.vulnerabilities();
        assert!(
            vulns.is_empty(),
            "holistically patched pincheck still skip-vulnerable at: {:?}",
            vulns
                .iter()
                .map(|v| {
                    let site = session.sites().iter().find(|s| s.step == v.fault().step).unwrap();
                    format!("{:#x} {}", site.pc, site.insn)
                })
                .collect::<Vec<_>>()
        );
    }
}
