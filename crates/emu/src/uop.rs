//! The micro-op execution tier: superblocks lowered once into flat
//! micro-op bodies, executed with lazy NZCV materialization.
//!
//! The interpreter pays a fetch, a decode, full operand extraction, an
//! opcode `match`, and an eager flags recomputation on every executed
//! instruction. This module removes all of them from the hot path, in
//! the only way a `#![forbid(unsafe_code)]` workspace can "compile" code
//! — by lowering each superblock **once**, as it is decoded
//! (`DecodedBlock::decode`), into a flat [`Uop`] body; code is
//! translated once and its translation reused, as in QEMU (Bellard,
//! USENIX ATC 2005):
//!
//! * operands, immediates, and shift amounts are extracted at decode
//!   time (immediates pre-sign-extended to `u64`, shift counts
//!   pre-masked, zero-count shifts lowered to `Nop`);
//! * memory-op address expressions are pre-split into `base + disp`
//!   with the displacement already extended;
//! * intra-block control flow is pre-resolved to absolute targets, and
//!   the dominant `cmp`/`test` + `j<cc>` idiom is **fused** into one
//!   micro-op that branches straight off the comparison operands;
//! * flag-setting ops record a deferred [`Pending`] tuple instead of
//!   computing NZCV; the flags materialize only when a consumer
//!   (conditional instruction or block exit) reads them, so traces,
//!   snapshots, and injections always observe architecturally exact
//!   state — laziness never escapes a block body.
//!
//! Every block has this one body. Bodies live in the [`BlockCache`],
//! shared by every machine that runs the same text, with per-instruction
//! pc-expectation checks, exec-dirty ranges retiring cached blocks over
//! faulted code, exact mid-block fences, and cache invalidation dropping
//! a rewritten binary's blocks. Faulted code, and code no cached block
//! covers, runs from local blocks the run decodes out of the machine's
//! own memory through the same decode loop and the same dispatch; they
//! are dropped when the exec-dirty epoch moves.
//!
//! The result is bit-identical to the interpreter — pinned by the
//! equivalence tests here, the emu proptests, and the engine/fault
//! equivalence suites upstream.

use crate::blockexec::{BlockCache, BlockStats, DecodedBlock, LocalBlocks};
use crate::machine::{Machine, RunResult};
use crate::outcome::{CpuFault, RunOutcome};
use rr_isa::{AluOp, Cond, Flags, Instr, Reg, ShiftOp};

/// A pre-resolved right-hand operand: register read or immediate,
/// already sign-extended to the machine word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    Reg(Reg),
    Imm(u64),
}

/// One pre-lowered micro-op. Every field an instruction's execution
/// needs is extracted at decode time; the dispatch loop only reads
/// registers, touches memory, and writes the pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Uop {
    Nop,
    Halt,
    MovRR {
        rd: Reg,
        rs: Reg,
    },
    MovRI {
        rd: Reg,
        imm: u64,
    },
    Alu {
        op: AluOp,
        rd: Reg,
        rhs: Operand,
    },
    /// Shift with the amount pre-masked to 1–63 (zero-count shifts
    /// lower to [`Uop::Nop`]: they change neither value nor flags).
    Shift {
        op: ShiftOp,
        rd: Reg,
        amt: u32,
    },
    Not {
        rd: Reg,
    },
    Neg {
        rd: Reg,
    },
    Cmp {
        rs1: Reg,
        rhs: Operand,
    },
    CmpM {
        rs1: Reg,
        base: Reg,
        disp: u64,
    },
    Test {
        rs1: Reg,
        rs2: Reg,
    },
    Load {
        rd: Reg,
        base: Reg,
        disp: u64,
    },
    Store {
        base: Reg,
        disp: u64,
        rs: Reg,
    },
    LoadB {
        rd: Reg,
        base: Reg,
        disp: u64,
    },
    StoreB {
        base: Reg,
        disp: u64,
        rs: Reg,
    },
    Lea {
        rd: Reg,
        base: Reg,
        disp: u64,
    },
    Push {
        rs: Reg,
    },
    Pop {
        rd: Reg,
    },
    PushF,
    PopF,
    Jmp {
        target: u64,
    },
    Jcc {
        cc: Cond,
        target: u64,
    },
    /// Fused `cmp` + `j<cc>`: branches straight off the comparison
    /// operands without forming NZCV. Lives at the compare's slot and
    /// consumes two architectural steps; the following slot keeps a
    /// plain [`Uop::Jcc`] so mid-block entry at the branch still works.
    CmpJcc {
        rs1: Reg,
        rhs: Operand,
        cc: Cond,
        target: u64,
        jcc_next: u64,
    },
    /// Fused `test` + `j<cc>`, same shape as [`Uop::CmpJcc`].
    TestJcc {
        rs1: Reg,
        rs2: Reg,
        cc: Cond,
        target: u64,
        jcc_next: u64,
    },
    Call {
        target: u64,
    },
    CallR {
        rs: Reg,
    },
    JmpR {
        rs: Reg,
    },
    Ret,
    SetCc {
        rd: Reg,
        cc: Cond,
    },
    Svc {
        num: u8,
    },
}

/// One block-body slot: the instruction's address, its fallthrough
/// successor, and the pre-lowered micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UopEntry {
    pub(crate) pc: u64,
    pub(crate) next: u64,
    pub(crate) op: Uop,
}

/// The deferred flag-setting operation of the uop tier: the
/// `(lastop, operands, result)` tuple NZCV can be recomputed from.
/// Recorded by flag-setting micro-ops, materialized only when a
/// consumer or a block exit reads the flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// The machine's flags are current; nothing is deferred.
    Clean,
    Add {
        a: u64,
        b: u64,
    },
    Sub {
        a: u64,
        b: u64,
    },
    Logic {
        r: u64,
    },
    Mul {
        r: u64,
        overflow: bool,
    },
    Shift {
        r: u64,
        carry: bool,
    },
}

impl Pending {
    /// The deferred flags, clearing the pending state — `None` when the
    /// machine's flags are already current.
    fn take(&mut self) -> Option<Flags> {
        let flags = match *self {
            Pending::Clean => return None,
            Pending::Add { a, b } => Flags::from_add(a, b),
            Pending::Sub { a, b } => Flags::from_sub(a, b),
            Pending::Logic { r } => Flags::from_logic(r),
            Pending::Mul { r, overflow } => {
                let mut f = Flags::from_logic(r);
                f.c = overflow;
                f.v = overflow;
                f
            }
            Pending::Shift { r, carry } => {
                let mut f = Flags::from_logic(r);
                f.c = carry;
                f
            }
        };
        *self = Pending::Clean;
        Some(flags)
    }
}

/// Writes any deferred flags into the machine (a consumer is about to
/// read them, or a block is exiting to an observable point).
fn materialize(pending: &mut Pending, machine: &mut Machine, stats: &mut BlockStats) {
    if let Some(flags) = pending.take() {
        machine.set_flags(flags);
        stats.flag_materializations += 1;
    }
}

/// `cc.eval(Flags::from_sub(a, b))` computed directly from the
/// comparison operands, without forming the flag tuple.
fn cond_of_sub(cc: Cond, a: u64, b: u64) -> bool {
    match cc {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::Lt => (a as i64) < (b as i64),
        Cond::Le => (a as i64) <= (b as i64),
        Cond::Gt => (a as i64) > (b as i64),
        Cond::Ge => (a as i64) >= (b as i64),
        Cond::B => a < b,
        Cond::Be => a <= b,
        Cond::A => a > b,
        Cond::Ae => a >= b,
    }
}

/// `cc.eval(Flags::from_logic(r))` computed directly from the result
/// (`c` and `v` are clear after logic ops).
fn cond_of_logic(cc: Cond, r: u64) -> bool {
    let z = r == 0;
    let n = (r as i64) < 0;
    match cc {
        Cond::Eq => z,
        Cond::Ne => !z,
        Cond::Lt => n,
        Cond::Le => z || n,
        Cond::Gt => !z && !n,
        Cond::Ge => !n,
        Cond::B => false,
        Cond::Be => z,
        Cond::A => !z,
        Cond::Ae => true,
    }
}

/// Appends the micro-op of `insn`, decoded at `pc` with encoded length
/// `len`, to the block body `uops` being decoded. A conditional branch
/// right after a flag-setting `cmp`/`test` fuses into the compare's
/// slot; the branch keeps its own plain slot for mid-block entry.
pub(crate) fn push_lowered(uops: &mut Vec<UopEntry>, pc: u64, insn: Instr, len: usize) {
    let next = pc.wrapping_add(len as u64);
    let op = lower(insn, next);
    if let (Uop::Jcc { cc, target }, Some(prev)) = (op, uops.last_mut()) {
        debug_assert_eq!(prev.next, pc, "blocks decode consecutively");
        if let Some(fused) = fuse(prev.op, cc, target, next) {
            prev.op = fused;
        }
    }
    uops.push(UopEntry { pc, next, op });
}

/// The fused form of the flag-setting micro-op `op` followed by a
/// `j<cc>` to `target` whose fallthrough is `jcc_next`, if it has one.
fn fuse(op: Uop, cc: Cond, target: u64, jcc_next: u64) -> Option<Uop> {
    match op {
        Uop::Cmp { rs1, rhs } => Some(Uop::CmpJcc { rs1, rhs, cc, target, jcc_next }),
        Uop::Test { rs1, rs2 } => Some(Uop::TestJcc { rs1, rs2, cc, target, jcc_next }),
        // CmpM is deliberately not fused: its load can fault, and the
        // fault must be observed with the compare's pc semantics.
        _ => None,
    }
}

/// Lowers one instruction to its micro-op (no fusion), with `next` the
/// fallthrough address.
fn lower(insn: Instr, next: u64) -> Uop {
    let ext = |disp: i32| disp as i64 as u64;
    let rel_target = |rel: i32| next.wrapping_add(rel as i64 as u64);
    match insn {
        Instr::Nop => Uop::Nop,
        Instr::Halt => Uop::Halt,
        Instr::MovRR { rd, rs } => Uop::MovRR { rd, rs },
        Instr::MovRI { rd, imm } => Uop::MovRI { rd, imm },
        Instr::AluRR { op, rd, rs } => Uop::Alu { op, rd, rhs: Operand::Reg(rs) },
        Instr::AluRI { op, rd, imm } => Uop::Alu { op, rd, rhs: Operand::Imm(imm as i64 as u64) },
        Instr::ShiftRI { op, rd, amt } => match u32::from(amt & 63) {
            0 => Uop::Nop, // zero-count shifts change neither value nor flags
            amt => Uop::Shift { op, rd, amt },
        },
        Instr::Not { rd } => Uop::Not { rd },
        Instr::Neg { rd } => Uop::Neg { rd },
        Instr::CmpRR { rs1, rs2 } => Uop::Cmp { rs1, rhs: Operand::Reg(rs2) },
        Instr::CmpRI { rs1, imm } => Uop::Cmp { rs1, rhs: Operand::Imm(imm as i64 as u64) },
        Instr::CmpRM { rs1, base, disp } => Uop::CmpM { rs1, base, disp: ext(disp) },
        Instr::TestRR { rs1, rs2 } => Uop::Test { rs1, rs2 },
        Instr::Load { rd, base, disp } => Uop::Load { rd, base, disp: ext(disp) },
        Instr::Store { base, disp, rs } => Uop::Store { base, disp: ext(disp), rs },
        Instr::LoadB { rd, base, disp } => Uop::LoadB { rd, base, disp: ext(disp) },
        Instr::StoreB { base, disp, rs } => Uop::StoreB { base, disp: ext(disp), rs },
        Instr::Lea { rd, base, disp } => Uop::Lea { rd, base, disp: ext(disp) },
        Instr::Push { rs } => Uop::Push { rs },
        Instr::Pop { rd } => Uop::Pop { rd },
        Instr::PushF => Uop::PushF,
        Instr::PopF => Uop::PopF,
        Instr::Jmp { rel } => Uop::Jmp { target: rel_target(rel) },
        Instr::Jcc { cc, rel } => Uop::Jcc { cc, target: rel_target(rel) },
        Instr::Call { rel } => Uop::Call { target: rel_target(rel) },
        Instr::CallR { rs } => Uop::CallR { rs },
        Instr::JmpR { rs } => Uop::JmpR { rs },
        Instr::Ret => Uop::Ret,
        Instr::SetCc { rd, cc } => Uop::SetCc { rd, cc },
        Instr::Svc { num } => Uop::Svc { num },
    }
}

impl Machine {
    /// Runs like [`Machine::run`] but executes superblocks as micro-op
    /// bodies. Blocks come from `cache`, or, where the cache has none for
    /// a pc or its block overlaps code rewritten since the cache was
    /// built, are decoded out of this machine's own memory for the rest
    /// of the call (counted in [`BlockStats::blocks_redecoded`]). Only a
    /// pc whose bytes do not fetch or decode steps through the
    /// interpreter, which raises the crash. Bit-identical to
    /// [`Machine::run`]: same outcome, same step count, same final state
    /// — including NZCV at every exit.
    ///
    /// # Example
    ///
    /// ```
    /// use rr_asm::assemble_and_link;
    /// use rr_emu::{BlockCache, BlockStats, Machine, RunOutcome};
    ///
    /// let exe = assemble_and_link(
    ///     "    .global _start\n_start:\n    mov r1, 41\n    add r1, 1\n    svc 0\n",
    /// )?;
    /// let cache = BlockCache::build(&exe, [exe.entry]).expect("text decodes");
    /// let mut m = Machine::new(&exe, &[]);
    /// let mut stats = BlockStats::default();
    /// let result = m.run_uops(&cache, 1_000, &mut stats);
    /// assert_eq!(result.outcome, RunOutcome::Exited { code: 42 });
    /// assert_eq!(stats.uop_steps, 3);
    /// assert_eq!(stats.blocks_redecoded, 0);
    /// # Ok::<(), rr_asm::BuildError>(())
    /// ```
    pub fn run_uops(
        &mut self,
        cache: &BlockCache,
        max_steps: u64,
        stats: &mut BlockStats,
    ) -> RunResult {
        self.run_uops_inner(cache, max_steps, stats, None)
    }

    /// [`Machine::run_uops`] recording the PC of every executed
    /// instruction into `trace` (fused micro-ops record both halves).
    pub fn run_uops_traced(
        &mut self,
        cache: &BlockCache,
        max_steps: u64,
        stats: &mut BlockStats,
        trace: &mut Vec<u64>,
    ) -> RunResult {
        self.run_uops_inner(cache, max_steps, stats, Some(trace))
    }

    fn run_uops_inner(
        &mut self,
        cache: &BlockCache,
        max_steps: u64,
        stats: &mut BlockStats,
        mut trace: Option<&mut Vec<u64>>,
    ) -> RunResult {
        let mut steps = 0u64;
        let mut local = LocalBlocks::default();
        while steps < max_steps {
            if let Some(outcome) = self.stopped() {
                return RunResult { outcome, steps };
            }
            let found = match cache.lookup(self.pc()) {
                Some((block, entry))
                    if !self.memory().exec_dirty_intersects(block.start, block.end) =>
                {
                    Some((block, entry))
                }
                _ => local.lookup_or_decode(self, stats),
            };
            let Some((block, entry)) = found else {
                // The bytes at this pc do not fetch or decode: the
                // interpreter raises the crash.
                if let Some(trace) = trace.as_deref_mut() {
                    trace.push(self.pc());
                }
                let _ = self.step();
                steps += 1;
                stats.interp_steps += 1;
                continue;
            };
            self.run_uop_body(block, entry, max_steps, &mut steps, stats, &mut trace);
        }
        match self.stopped() {
            Some(outcome) => RunResult { outcome, steps },
            None => RunResult { outcome: RunOutcome::TimedOut, steps },
        }
    }

    /// The uop tier's dispatch loop: executes one block body from slot
    /// `entry` until a fault, stop, fence, exec-dirty write into the
    /// block, or control transfer out of it. Deferred flags never escape
    /// — every exit path materializes them, so the machine state is
    /// architecturally exact whenever this returns.
    fn run_uop_body(
        &mut self,
        block: &DecodedBlock,
        entry: usize,
        max_steps: u64,
        steps: &mut u64,
        stats: &mut BlockStats,
        trace: &mut Option<&mut Vec<u64>>,
    ) {
        let entries = &block.uops;
        let mut index = entry;
        let mut epoch = self.memory().exec_dirty_epoch();
        let mut pending = Pending::Clean;
        'body: loop {
            let e = &entries[index];
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(e.pc);
            }
            *steps += 1;
            stats.uop_steps += 1;
            let mut next_index = index + 1;
            // Contract per op, mirroring `exec_decoded`: the pc is set
            // to the successor *before* the semantics run, so a fault
            // records `Crashed { pc: next }` — except `halt`, which
            // records its own site.
            match e.op {
                Uop::Nop => self.set_pc(e.next),
                Uop::Halt => {
                    self.stop_crashed(CpuFault::Halted);
                    break 'body;
                }
                Uop::MovRR { rd, rs } => {
                    self.set_pc(e.next);
                    let value = self.reg(rs);
                    self.set_reg(rd, value);
                }
                Uop::MovRI { rd, imm } => {
                    self.set_pc(e.next);
                    self.set_reg(rd, imm);
                }
                Uop::Alu { op, rd, rhs } => {
                    self.set_pc(e.next);
                    let a = self.reg(rd);
                    let b = self.operand(rhs);
                    let res = match op {
                        AluOp::Add => {
                            pending = Pending::Add { a, b };
                            a.wrapping_add(b)
                        }
                        AluOp::Sub => {
                            pending = Pending::Sub { a, b };
                            a.wrapping_sub(b)
                        }
                        AluOp::And => {
                            let r = a & b;
                            pending = Pending::Logic { r };
                            r
                        }
                        AluOp::Or => {
                            let r = a | b;
                            pending = Pending::Logic { r };
                            r
                        }
                        AluOp::Xor => {
                            let r = a ^ b;
                            pending = Pending::Logic { r };
                            r
                        }
                        AluOp::Mul => {
                            let (r, overflow) = a.overflowing_mul(b);
                            pending = Pending::Mul { r, overflow };
                            r
                        }
                        AluOp::Udiv => {
                            if b == 0 {
                                // The failed division writes neither rd
                                // nor flags.
                                self.stop_crashed(CpuFault::DivideByZero);
                                break 'body;
                            }
                            let r = a / b;
                            pending = Pending::Logic { r };
                            r
                        }
                    };
                    self.set_reg(rd, res);
                }
                Uop::Shift { op, rd, amt } => {
                    self.set_pc(e.next);
                    let value = self.reg(rd);
                    let (res, carry) = match op {
                        ShiftOp::Shl => (value << amt, value >> (64 - amt) & 1 == 1),
                        ShiftOp::Shr => (value >> amt, value >> (amt - 1) & 1 == 1),
                        ShiftOp::Sar => {
                            (((value as i64) >> amt) as u64, (value as i64) >> (amt - 1) & 1 == 1)
                        }
                    };
                    self.set_reg(rd, res);
                    pending = Pending::Shift { r: res, carry };
                }
                Uop::Not { rd } => {
                    self.set_pc(e.next);
                    let res = !self.reg(rd);
                    self.set_reg(rd, res);
                    pending = Pending::Logic { r: res };
                }
                Uop::Neg { rd } => {
                    self.set_pc(e.next);
                    let value = self.reg(rd);
                    self.set_reg(rd, value.wrapping_neg());
                    pending = Pending::Sub { a: 0, b: value };
                }
                Uop::Cmp { rs1, rhs } => {
                    self.set_pc(e.next);
                    pending = Pending::Sub { a: self.reg(rs1), b: self.operand(rhs) };
                }
                Uop::CmpM { rs1, base, disp } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    match self.memory().read_u64(addr) {
                        Ok(value) => pending = Pending::Sub { a: self.reg(rs1), b: value },
                        Err(fault) => {
                            self.stop_crashed(Machine::mem_fault(fault));
                            break 'body;
                        }
                    }
                }
                Uop::Test { rs1, rs2 } => {
                    self.set_pc(e.next);
                    pending = Pending::Logic { r: self.reg(rs1) & self.reg(rs2) };
                }
                Uop::Load { rd, base, disp } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    match self.memory().read_u64(addr) {
                        Ok(value) => self.set_reg(rd, value),
                        Err(fault) => {
                            self.stop_crashed(Machine::mem_fault(fault));
                            break 'body;
                        }
                    }
                }
                Uop::Store { base, disp, rs } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    let value = self.reg(rs);
                    if let Err(fault) = self.memory_mut().write_u64(addr, value) {
                        self.stop_crashed(Machine::mem_fault(fault));
                        break 'body;
                    }
                }
                Uop::LoadB { rd, base, disp } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    match self.memory().read_u8(addr) {
                        Ok(value) => self.set_reg(rd, u64::from(value)),
                        Err(fault) => {
                            self.stop_crashed(Machine::mem_fault(fault));
                            break 'body;
                        }
                    }
                }
                Uop::StoreB { base, disp, rs } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    let value = self.reg(rs) as u8;
                    if let Err(fault) = self.memory_mut().write_u8(addr, value) {
                        self.stop_crashed(Machine::mem_fault(fault));
                        break 'body;
                    }
                }
                Uop::Lea { rd, base, disp } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    self.set_reg(rd, addr);
                }
                Uop::Push { rs } => {
                    self.set_pc(e.next);
                    if let Err(fault) = self.push(self.reg(rs)) {
                        self.stop_crashed(fault);
                        break 'body;
                    }
                }
                Uop::Pop { rd } => {
                    self.set_pc(e.next);
                    match self.pop() {
                        Ok(value) => self.set_reg(rd, value),
                        Err(fault) => {
                            self.stop_crashed(fault);
                            break 'body;
                        }
                    }
                }
                Uop::PushF => {
                    self.set_pc(e.next);
                    materialize(&mut pending, self, stats);
                    if let Err(fault) = self.push(self.flags().to_bits()) {
                        self.stop_crashed(fault);
                        break 'body;
                    }
                }
                Uop::PopF => {
                    self.set_pc(e.next);
                    match self.pop() {
                        Ok(bits) => {
                            // The architectural restore replaces any
                            // deferred flags outright.
                            pending = Pending::Clean;
                            self.set_flags(Flags::from_bits(bits));
                        }
                        // A failed popf leaves the flags untouched: the
                        // older pending state materializes on exit.
                        Err(fault) => {
                            self.stop_crashed(fault);
                            break 'body;
                        }
                    }
                }
                Uop::Jmp { target } => self.set_pc(target),
                Uop::Jcc { cc, target } => {
                    self.set_pc(e.next);
                    materialize(&mut pending, self, stats);
                    if cc.eval(self.flags()) {
                        self.set_pc(target);
                    }
                }
                Uop::CmpJcc { rs1, rhs, cc, target, jcc_next } => {
                    // First half: the compare. Its successor is the
                    // branch's own slot.
                    self.set_pc(e.next);
                    let a = self.reg(rs1);
                    let b = self.operand(rhs);
                    pending = Pending::Sub { a, b };
                    if *steps >= max_steps {
                        break 'body; // fence between the fused halves
                    }
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.push(e.next);
                    }
                    *steps += 1;
                    stats.uop_steps += 1;
                    // Second half: branch straight off the operands —
                    // the NZCV tuple is never formed.
                    self.set_pc(if cond_of_sub(cc, a, b) { target } else { jcc_next });
                    next_index = index + 2;
                }
                Uop::TestJcc { rs1, rs2, cc, target, jcc_next } => {
                    self.set_pc(e.next);
                    let r = self.reg(rs1) & self.reg(rs2);
                    pending = Pending::Logic { r };
                    if *steps >= max_steps {
                        break 'body;
                    }
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.push(e.next);
                    }
                    *steps += 1;
                    stats.uop_steps += 1;
                    self.set_pc(if cond_of_logic(cc, r) { target } else { jcc_next });
                    next_index = index + 2;
                }
                Uop::Call { target } => {
                    self.set_pc(e.next);
                    if let Err(fault) = self.push(e.next) {
                        self.stop_crashed(fault);
                        break 'body;
                    }
                    self.set_pc(target);
                }
                Uop::CallR { rs } => {
                    self.set_pc(e.next);
                    let target = self.reg(rs);
                    if let Err(fault) = self.push(e.next) {
                        self.stop_crashed(fault);
                        break 'body;
                    }
                    self.set_pc(target);
                }
                Uop::JmpR { rs } => {
                    let target = self.reg(rs);
                    self.set_pc(target);
                }
                Uop::Ret => {
                    self.set_pc(e.next);
                    match self.pop() {
                        Ok(target) => self.set_pc(target),
                        Err(fault) => {
                            self.stop_crashed(fault);
                            break 'body;
                        }
                    }
                }
                Uop::SetCc { rd, cc } => {
                    self.set_pc(e.next);
                    materialize(&mut pending, self, stats);
                    let value = u64::from(cc.eval(self.flags()));
                    self.set_reg(rd, value);
                }
                Uop::Svc { num } => {
                    self.set_pc(e.next);
                    if let Err(fault) = self.service(num) {
                        self.stop_crashed(fault);
                        break 'body;
                    }
                }
            }
            if self.stopped().is_some() || *steps >= max_steps {
                break;
            }
            let now = self.memory().exec_dirty_epoch();
            if now != epoch {
                // A store landed in executable memory: the block body
                // may be stale; re-entry through the outer lookup
                // decides (and decodes this block afresh from memory if
                // it was hit).
                epoch = now;
                if self.memory().exec_dirty_intersects(block.start, block.end) {
                    break;
                }
            }
            index = next_index;
            if index < entries.len() && self.pc() == entries[index].pc {
                continue;
            }
            if self.pc() == entries[0].pc {
                // Back-edge to this block's own leader (a self-loop):
                // stay in the block body instead of paying the cache
                // lookup once per iteration. The per-entry fence, stop,
                // and exec-dirty-epoch checks above are the same rails
                // the outer loop would apply.
                index = 0;
                continue;
            }
            // Fell off the block or control transferred — resume
            // through the cache lookup.
            break;
        }
        // Every observable point (trace fence, snapshot, injection,
        // block exit of any kind) sees exact architectural state.
        materialize(&mut pending, self, stats);
    }

    fn operand(&self, operand: Operand) -> u64 {
        match operand {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockexec::tests::text_instrs;
    use rr_asm::assemble_and_link;
    use rr_obj::{Executable, SectionKind};

    /// A small program with a loop, a call, branches, and output —
    /// exercises the fused cmp+jne idiom every iteration.
    const LOOPY: &str = "    .global _start\n\
         _start:\n\
             mov r2, 5\n\
         .loop:\n\
             mov r1, r2\n\
             call emit\n\
             sub r2, 1\n\
             cmp r2, 0\n\
             jne .loop\n\
             mov r1, 0\n\
             svc 0\n\
         emit:\n\
             add r1, '0'\n\
             svc 1\n\
             ret\n";

    /// Flags survive across pushf/clobber/popf, shifts and setcc
    /// consume deferred flags, and test+jcc fuses.
    const FLAGGY: &str = "    .global _start\n\
         _start:\n\
             mov r1, 6\n\
             cmp r1, 6\n\
             pushf\n\
             add r1, 100\n\
             popf\n\
             je .ok\n\
             halt\n\
         .ok:\n\
             mov r2, 3\n\
             test r2, r2\n\
             jne .go\n\
             halt\n\
         .go:\n\
             shl r2, 2\n\
             setne r3\n\
             add r1, r3\n\
             neg r1\n\
             neg r1\n\
             not r4\n\
             not r4\n\
             svc 0\n";

    /// A single-superblock loop that stores and reloads one address
    /// every iteration, with back-to-back loads and arithmetic whose
    /// flags are immediately redefined.
    const FORWARDY: &str = "    .global _start\n\
         _start:\n\
             mov r4, buffer\n\
             mov r2, 5\n\
         .loop:\n\
             store [r4], r2\n\
             load r1, [r4]\n\
             load r3, [r4]\n\
             add r1, 1\n\
             sub r2, 1\n\
             cmp r2, 0\n\
             jne .loop\n\
             mov r1, 0\n\
             svc 0\n\
             .data\n\
         buffer:\n\
             .space 8\n";

    /// The entry block only: code it does not cover runs from blocks
    /// decoded out of the machine's memory.
    fn cache_for(exe: &Executable) -> BlockCache {
        BlockCache::build(exe, [exe.entry]).expect("text decodes")
    }

    /// A cache over the program's real basic-block starts — the entry,
    /// every direct branch or call target, and every instruction after a
    /// block terminator — so a shared block serves every pc the program
    /// reaches.
    fn cfg_cache_for(exe: &Executable) -> BlockCache {
        let mut leaders = vec![exe.entry];
        for (pc, insn, len) in text_instrs(exe) {
            let next = pc + len as u64;
            if let Some(rel) = insn.rel_target() {
                leaders.push(next.wrapping_add(rel as i64 as u64));
            }
            if insn.is_block_terminator() {
                leaders.push(next);
            }
        }
        BlockCache::build(exe, leaders).expect("text decodes")
    }

    fn assert_state_matches(label: &str, got: &Machine, want: &Machine) {
        assert_eq!(got.pc(), want.pc(), "{label}: pc");
        assert_eq!(got.flags(), want.flags(), "{label}: flags");
        for r in 0..16 {
            let r = rr_isa::Reg::from_index(r);
            assert_eq!(got.reg(r), want.reg(r), "{label}: {r:?}");
        }
        assert_eq!(got.output(), want.output(), "{label}: output");
        assert_eq!(got.stopped(), want.stopped(), "{label}: stopped");
    }

    #[test]
    fn fused_predicates_match_eager_flag_evaluation() {
        let values: [u64; 8] =
            [0, 1, 7, 0x8000, u64::MAX, i64::MIN as u64, i64::MAX as u64, u64::MAX - 1];
        for cc in Cond::ALL {
            for &a in &values {
                for &b in &values {
                    assert_eq!(
                        cond_of_sub(cc, a, b),
                        cc.eval(Flags::from_sub(a, b)),
                        "cond_of_sub {cc} {a} {b}"
                    );
                }
                assert_eq!(
                    cond_of_logic(cc, a),
                    cc.eval(Flags::from_logic(a)),
                    "cond_of_logic {cc} {a}"
                );
            }
        }
    }

    #[test]
    fn pending_materializes_exact_flags() {
        let values: [u64; 6] = [0, 1, u64::MAX, i64::MIN as u64, i64::MAX as u64, 42];
        for &a in &values {
            for &b in &values {
                let mut p = Pending::Add { a, b };
                assert_eq!(p.take(), Some(Flags::from_add(a, b)));
                assert_eq!(p, Pending::Clean);
                assert_eq!(p.take(), None);
                let mut p = Pending::Sub { a, b };
                assert_eq!(p.take(), Some(Flags::from_sub(a, b)));
            }
            let mut p = Pending::Logic { r: a };
            assert_eq!(p.take(), Some(Flags::from_logic(a)));
            for overflow in [false, true] {
                let mut p = Pending::Mul { r: a, overflow };
                let f = p.take().unwrap();
                assert_eq!((f.z, f.n), (a == 0, (a as i64) < 0));
                assert_eq!((f.c, f.v), (overflow, overflow));
            }
            for carry in [false, true] {
                let mut p = Pending::Shift { r: a, carry };
                let f = p.take().unwrap();
                assert_eq!((f.c, f.v), (carry, false));
            }
        }
    }

    #[test]
    fn uop_execution_matches_interpreter_exactly() {
        for src in [LOOPY, FLAGGY, FORWARDY] {
            let exe = assemble_and_link(src).unwrap();
            let mut reference = Machine::new(&exe, &[]);
            let want = reference.run(10_000);

            let cache = cache_for(&exe);
            let mut m = Machine::new(&exe, &[]);
            let mut stats = BlockStats::default();
            let got = m.run_uops(&cache, 10_000, &mut stats);

            assert_eq!(got, want);
            assert_state_matches("uops", &m, &reference);
            assert_eq!(m.memory_stats(), reference.memory_stats());
            assert_eq!(stats.uop_steps, got.steps, "nothing crashes, so nothing is interpreted");
        }
    }

    #[test]
    fn fused_idioms_skip_flag_materialization() {
        // FORWARDY's countdown is one self-looping superblock whose only
        // flag consumer is its `cmp r2, 0` + `jne .loop` pair. Five loop
        // iterations execute five fused pairs and never leave the body,
        // so only the final block exit materializes, far below the count
        // of flag-setting instructions executed.
        let exe = assemble_and_link(FORWARDY).unwrap();
        let cache = cfg_cache_for(&exe);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        let result = m.run_uops(&cache, 10_000, &mut stats);
        assert_eq!(stats.uop_steps, result.steps, "every step runs as a uop: {stats:?}");
        assert!(
            stats.flag_materializations < stats.uop_steps / 4,
            "lazy flags should rarely materialize: {stats:?}"
        );
        assert_eq!(stats.flag_materializations, 1, "only the loop's exit: {stats:?}");
    }

    #[test]
    fn fences_landing_mid_block_and_mid_fusion_are_precise() {
        for src in [LOOPY, FLAGGY, FORWARDY] {
            let exe = assemble_and_link(src).unwrap();
            let total = {
                let mut m = Machine::new(&exe, &[]);
                m.run(10_000).steps
            };
            let cache = cache_for(&exe);
            for fence in 0..=total + 2 {
                let mut reference = Machine::new(&exe, &[]);
                let want = reference.run(fence);
                let mut m = Machine::new(&exe, &[]);
                let mut stats = BlockStats::default();
                let got = m.run_uops(&cache, fence, &mut stats);
                assert_eq!(got, want, "fence={fence}");
                assert_state_matches(&format!("fence={fence}"), &m, &reference);
                assert_eq!(stats.total(), got.steps, "fence={fence}");
            }
        }
    }

    #[test]
    fn compiled_bodies_are_shared_across_machines() {
        let exe = assemble_and_link(LOOPY).unwrap();
        // Shared blocks cover every pc LOOPY reaches.
        let cache = cfg_cache_for(&exe);
        let mut first_stats = BlockStats::default();
        Machine::new(&exe, &[]).run_uops(&cache, 10_000, &mut first_stats);
        assert_eq!(first_stats.blocks_redecoded, 0, "{first_stats:?}");
        // A second machine over the same cache reuses every body: it
        // decodes nothing and runs every step as a uop step.
        let mut second_stats = BlockStats::default();
        let mut m = Machine::new(&exe, &[]);
        let result = m.run_uops(&cache, 10_000, &mut second_stats);
        assert_eq!(second_stats.blocks_redecoded, 0, "{second_stats:?}");
        assert_eq!(second_stats.uop_steps, result.steps, "{second_stats:?}");
    }

    #[test]
    fn traced_uop_run_matches_interpreter_trace() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let mut ref_trace = Vec::new();
        let mut reference = Machine::new(&exe, &[]);
        let want = reference.run_with(10_000, |m| ref_trace.push(m.pc()));

        let cache = cache_for(&exe);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        let mut trace = Vec::new();
        let got = m.run_uops_traced(&cache, 10_000, &mut stats, &mut trace);
        assert_eq!(got, want);
        assert_eq!(trace, ref_trace);
    }

    #[test]
    fn crash_taxonomy_matches_the_interpreter() {
        let prelude = "    .global _start\n_start:\n";
        let cases = [
            format!("{prelude}    mov r1, 1\n    halt\n"),
            format!("{prelude}    mov r1, 4\n    mov r2, 0\n    udiv r1, r2\n    svc 0\n"),
            format!("{prelude}    mov r2, 0x99999000\n    load r1, [r2]\n    svc 0\n"),
            format!("{prelude}    mov r2, 0x1000\n    store [r2], r1\n    svc 0\n"),
            format!("{prelude}    svc 200\n"),
            format!("{prelude}    mov r1, target\n    jmpr r1\n    .data\ntarget:\n    .quad 0\n"),
            format!("{prelude}    cmp r1, 1\n    mov r15, 0x40\n    pushf\n    svc 0\n"),
            format!("{prelude}    mov r15, 0x40\n    cmp r1, 1\n    popf\n    svc 0\n"),
        ];
        for src in &cases {
            let exe = assemble_and_link(src).unwrap();
            let mut reference = Machine::new(&exe, &[]);
            let want = reference.run(100);
            let cache = cache_for(&exe);
            let mut m = Machine::new(&exe, &[]);
            let mut stats = BlockStats::default();
            let got = m.run_uops(&cache, 100, &mut stats);
            assert_eq!(got, want, "{src}");
            assert_state_matches(src, &m, &reference);
        }
    }

    #[test]
    fn poked_compiled_code_runs_from_redecoded_blocks() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cfg_cache_for(&exe);
        let (sub, ..) = text_instrs(&exe)
            .into_iter()
            .find(|&(_, insn, _)| matches!(insn, Instr::AluRI { op: AluOp::Sub, .. }))
            .expect("LOOPY decrements its counter");
        // Flipping bit 6 of the entry `mov`'s opcode leaves bytes that do
        // not decode: the one interpreted step is the crash. Flipping
        // bit 2 of `sub r2, 1`'s immediate leaves `sub r2, 5`, which
        // decodes: nothing is interpreted, and the shared loop block's
        // rewritten copy is decoded out of memory.
        for (target, flip, interp_steps, redecoded) in
            [(exe.entry, 0x40, 1, false), (sub + 2, 0x04, 0, true)]
        {
            let mut reference = Machine::new(&exe, &[]);
            let mut m = Machine::new(&exe, &[]);
            for machine in [&mut reference, &mut m] {
                let byte = machine.peek_bytes(target, 1).unwrap()[0];
                assert!(machine.poke_bytes(target, &[byte ^ flip]));
            }
            let want = reference.run(10_000);
            let mut stats = BlockStats::default();
            let got = m.run_uops(&cache, 10_000, &mut stats);
            let label = format!("poke {target:#x} ^ {flip:#x}");
            assert_eq!(got, want, "{label}");
            assert_state_matches(&label, &m, &reference);
            assert_eq!(stats.interp_steps, interp_steps, "{label}: {stats:?}");
            assert_eq!(stats.blocks_redecoded > 0, redecoded, "{label}: {stats:?}");
            assert_eq!(stats.total(), got.steps, "{label}");
        }
    }

    #[test]
    fn code_rewritten_mid_run_matches_the_interpreter() {
        // Each iteration stores the next letter into the immediate of the
        // `mov r1, 0` it is about to execute, inside the block it is
        // executing, and prints it.
        let src = "    .global _start\n\
             _start:\n\
                 mov r3, 'a'\n\
                 mov r4, patch\n\
             .loop:\n\
                 storeb [r4+2], r3\n\
             patch:\n\
                 mov r1, 0\n\
                 svc 1\n\
                 add r3, 1\n\
                 cmp r3, 'g'\n\
                 jne .loop\n\
                 mov r1, 0\n\
                 svc 0\n";
        let mut exe = assemble_and_link(src).unwrap();
        for seg in exe.segments.iter_mut().filter(|seg| seg.section == SectionKind::Text) {
            seg.perms.write = true;
        }
        let mut reference = Machine::new(&exe, &[]);
        let want = reference.run(10_000);
        assert_eq!(want.outcome, RunOutcome::Exited { code: 0 });
        assert_eq!(reference.output(), b"abcdef");

        let text = exe.text_range();
        let entry_only: Vec<u64> = vec![exe.entry];
        let every_offset: Vec<u64> = (text.start..text.end).collect();
        for (leaders, label) in [(entry_only, "entry leader"), (every_offset, "every offset")] {
            let cache = BlockCache::build(&exe, leaders).unwrap();
            let mut m = Machine::new(&exe, &[]);
            let mut stats = BlockStats::default();
            let got = m.run_uops(&cache, 10_000, &mut stats);
            assert_eq!(got, want, "{label}");
            assert_state_matches(label, &m, &reference);
            assert_eq!(stats.interp_steps, 0, "{label}: {stats:?}");
            assert!(stats.blocks_redecoded > 0, "{label}: {stats:?}");
        }
    }

    #[test]
    fn mid_block_entry_at_a_fused_branch_slot_stays_exact() {
        // Jump straight at the `jne` inside the fused pair: the branch
        // slot must behave as a plain jcc against current flags.
        let src = "    .global _start\n\
             _start:\n\
                 mov r1, 1\n\
                 cmp r1, 1\n\
                 jmp .at_branch\n\
             .dead:\n\
                 cmp r1, 99\n\
             .at_branch:\n\
                 jne .dead\n\
                 mov r1, 7\n\
                 svc 0\n";
        let exe = assemble_and_link(src).unwrap();
        let mut reference = Machine::new(&exe, &[]);
        let want = reference.run(100);
        // Every instruction start as a leader maximizes mid-block entry.
        let cache = BlockCache::build(&exe, exe.text_range().chain([exe.entry])).unwrap();
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        let got = m.run_uops(&cache, 100, &mut stats);
        assert_eq!(got, want);
        assert_state_matches("mid-block entry", &m, &reference);
    }

    #[test]
    fn compile_is_deterministic_and_fuses_cmp_jcc() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cfg_cache_for(&exe);
        let text = exe.text_range();
        let text_at = |pc: u64| exe.text_bytes().get((pc - text.start) as usize..);
        let instrs = text_instrs(&exe);
        let mut fused = 0;
        for range in cache.block_ranges() {
            let (block, _) = cache.lookup(range.start).unwrap();
            // Decoding the same bytes again yields the same body.
            let again = DecodedBlock::decode(range.start, range.end, text_at).unwrap();
            assert_eq!(again.uops, block.uops);
            // One slot per instruction, at the instruction's address.
            let pcs: Vec<u64> =
                instrs.iter().map(|&(pc, ..)| pc).filter(|pc| range.contains(pc)).collect();
            assert_eq!(block.uops.iter().map(|e| e.pc).collect::<Vec<_>>(), pcs);
            // A fused compare keeps the branch's own plain slot after it.
            for pair in block.uops.windows(2) {
                if let Uop::CmpJcc { target, jcc_next, .. } = pair[0].op {
                    assert_eq!(pair[1].op, Uop::Jcc { cc: Cond::Ne, target });
                    assert_eq!(pair[1].next, jcc_next);
                    fused += 1;
                }
            }
        }
        // The LOOPY loop block ends `cmp r2, 0` + `jne .loop`.
        assert_eq!(fused, 1, "the cmp+jne idiom must fuse");
    }
}
