//! The micro-op execution tier: hot superblocks compiled once into
//! pre-lowered uop traces, executed with lazy NZCV materialization.
//!
//! Pre-decoded block bodies ([`Machine::run_decoded_body`]) already
//! remove fetch/decode from the hot path, but every executed instruction
//! still pays full operand extraction, the interpreter's opcode `match`,
//! and an eager flags recomputation. This module removes those too, in
//! the only way a `#![forbid(unsafe_code)]` workspace can "compile" code
//! — by lowering each decoded superblock **once** into a flat [`Uop`]
//! trace:
//!
//! * operands, immediates, and shift amounts are extracted at compile
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
//! Tiering is driven by per-block execution counts: a block runs
//! decoded ([`Machine::run_decoded_body`]) until it crosses
//! [`UopConfig::hot_threshold`], then compiles once (shared via
//! `OnceLock` across threads) and stays compiled. Compiled bodies live
//! alongside the decoded ones in [`BlockCache`], inheriting the decoded
//! path's safety rails verbatim: per-instruction pc-expectation checks,
//! exec-dirty ranges forcing precise interpretation of faulted code,
//! mid-block fence tails, and cache invalidation dropping compiled
//! bodies together with decoded ones.
//!
//! The result is bit-identical to the interpreter — pinned by the
//! equivalence tests here, the emu proptests, and the engine/fault
//! equivalence suites upstream.

use crate::blockexec::{BlockCache, BlockStats, DecodedBlock};
use crate::machine::{Machine, RunResult};
use crate::outcome::{CpuFault, RunOutcome};
use rr_isa::{AluOp, Cond, Flags, Instr, Reg, ShiftOp};
use std::sync::atomic::Ordering;

/// Tiering knob for the micro-op execution tier.
///
/// # Example
///
/// ```
/// use rr_emu::UopConfig;
///
/// assert_eq!(UopConfig::default().hot_threshold, 2);
/// // Compile on first entry:
/// let eager = UopConfig { hot_threshold: 0 };
/// // Never compile: every block runs as its pre-decoded body.
/// let decoded = UopConfig { hot_threshold: u32::MAX };
/// # let _ = (eager, decoded);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopConfig {
    /// How many times a block executes decoded before it is compiled to
    /// micro-ops. `0` compiles eagerly on first entry; one-shot blocks
    /// never pay compile cost under the default. `u32::MAX` never
    /// promotes: blocks run as pre-decoded bodies, except those a run
    /// with a lower threshold already compiled into a shared cache.
    pub hot_threshold: u32,
}

impl Default for UopConfig {
    fn default() -> UopConfig {
        UopConfig { hot_threshold: 2 }
    }
}

/// A pre-resolved right-hand operand: register read or immediate,
/// already sign-extended to the machine word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    Reg(Reg),
    Imm(u64),
}

/// One pre-lowered micro-op. Every field an instruction's execution
/// needs is extracted at compile time; the dispatch loop only reads
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

/// One compiled slot: the instruction's address, its fallthrough
/// successor, and the pre-lowered micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UopEntry {
    pub(crate) pc: u64,
    pub(crate) next: u64,
    pub(crate) op: Uop,
}

/// A superblock's compiled micro-op body, parallel to the decoded one:
/// one slot per instruction, bit-identical semantics at every step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompiledBlock {
    pub(crate) entries: Vec<UopEntry>,
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

/// Lowers a decoded superblock into its micro-op trace. Pure: the same
/// block always compiles to the same body.
pub(crate) fn compile_block(block: &DecodedBlock) -> CompiledBlock {
    let mut entries = Vec::with_capacity(block.body.len());
    for (i, (&pc, &(insn, len))) in block.pcs.iter().zip(&block.body).enumerate() {
        let next = pc.wrapping_add(u64::from(len));
        let op = fuse(insn, next, block, i).unwrap_or_else(|| lower(insn, next));
        entries.push(UopEntry { pc, next, op });
    }
    CompiledBlock { entries }
}

/// Fuses a flag-setting compare/test with an immediately following
/// conditional branch. The fused op replaces the compare's slot; the
/// branch keeps its own plain slot for mid-block entry.
fn fuse(insn: Instr, next: u64, block: &DecodedBlock, i: usize) -> Option<Uop> {
    let (follower, jcc_len) = *block.body.get(i + 1)?;
    let Instr::Jcc { cc, rel } = follower else { return None };
    debug_assert_eq!(block.pcs[i + 1], next, "blocks decode consecutively");
    let jcc_next = next.wrapping_add(u64::from(jcc_len));
    let target = jcc_next.wrapping_add(rel as i64 as u64);
    match insn {
        Instr::CmpRR { rs1, rs2 } => {
            Some(Uop::CmpJcc { rs1, rhs: Operand::Reg(rs2), cc, target, jcc_next })
        }
        Instr::CmpRI { rs1, imm } => {
            Some(Uop::CmpJcc { rs1, rhs: Operand::Imm(imm as i64 as u64), cc, target, jcc_next })
        }
        Instr::TestRR { rs1, rs2 } => Some(Uop::TestJcc { rs1, rs2, cc, target, jcc_next }),
        // CmpRM is deliberately not fused: its load can fault, and the
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

impl DecodedBlock {
    /// The block's compiled body, compiling it when this execution
    /// crosses the hot threshold. Returns `None` while the block is
    /// still cold (callers run the decoded body instead). Each call
    /// counts one execution of the block.
    pub(crate) fn compiled(
        &self,
        config: UopConfig,
        stats: &mut BlockStats,
    ) -> Option<&CompiledBlock> {
        if let Some(body) = self.compiled.get() {
            return Some(body);
        }
        if config.hot_threshold == u32::MAX {
            // No count exceeds this threshold, so skip the heat counter:
            // worker threads sharing the cache would otherwise contend on
            // an atomic write per block entry.
            return None;
        }
        let heat = self.heat.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        if heat <= config.hot_threshold {
            return None;
        }
        if heat == config.hot_threshold.saturating_add(1) {
            stats.tier_promotions += 1;
        }
        let mut fresh = false;
        let body = self.compiled.get_or_init(|| {
            fresh = true;
            compile_block(self)
        });
        if fresh {
            stats.blocks_compiled += 1;
        }
        Some(body)
    }
}

impl Machine {
    /// Runs like [`Machine::run`] but executes hot superblocks as
    /// compiled micro-op traces, warm blocks as pre-decoded bodies, and
    /// everything else through the interpreter. Bit-identical to
    /// [`Machine::run`]: same outcome, same step count, same final
    /// state — including NZCV at every exit.
    ///
    /// # Example
    ///
    /// ```
    /// use rr_asm::assemble_and_link;
    /// use rr_emu::{BlockCache, BlockStats, Machine, RunOutcome, UopConfig};
    ///
    /// let exe = assemble_and_link(
    ///     "    .global _start\n_start:\n    mov r1, 41\n    add r1, 1\n    svc 0\n",
    /// )?;
    /// let cache = BlockCache::build(&exe, [exe.entry]).expect("text decodes");
    /// let mut m = Machine::new(&exe, &[]);
    /// let mut stats = BlockStats::default();
    /// let config = UopConfig { hot_threshold: 0 };
    /// let result = m.run_uops(&cache, config, 1_000, &mut stats);
    /// assert_eq!(result.outcome, RunOutcome::Exited { code: 42 });
    /// assert_eq!(stats.uop_steps, 3);
    /// assert_eq!(stats.blocks_compiled, 1);
    /// # Ok::<(), rr_asm::BuildError>(())
    /// ```
    pub fn run_uops(
        &mut self,
        cache: &BlockCache,
        config: UopConfig,
        max_steps: u64,
        stats: &mut BlockStats,
    ) -> RunResult {
        self.run_uops_inner(cache, config, max_steps, stats, None)
    }

    /// [`Machine::run_uops`] recording the PC of every executed
    /// instruction into `trace` (fused micro-ops record both halves).
    pub fn run_uops_traced(
        &mut self,
        cache: &BlockCache,
        config: UopConfig,
        max_steps: u64,
        stats: &mut BlockStats,
        trace: &mut Vec<u64>,
    ) -> RunResult {
        self.run_uops_inner(cache, config, max_steps, stats, Some(trace))
    }

    fn run_uops_inner(
        &mut self,
        cache: &BlockCache,
        config: UopConfig,
        max_steps: u64,
        stats: &mut BlockStats,
        mut trace: Option<&mut Vec<u64>>,
    ) -> RunResult {
        let mut steps = 0u64;
        while steps < max_steps {
            if let Some(outcome) = self.stopped() {
                return RunResult { outcome, steps };
            }
            match cache.lookup(self.pc()) {
                Some((block, entry))
                    if !self.memory().exec_dirty_intersects(block.start, block.end) =>
                {
                    match block.compiled(config, stats) {
                        Some(body) => self.run_uop_body(
                            block,
                            &body.entries,
                            entry,
                            max_steps,
                            &mut steps,
                            stats,
                            &mut trace,
                        ),
                        None => self.run_decoded_body(
                            block, entry, max_steps, &mut steps, stats, &mut trace,
                        ),
                    }
                }
                _ => {
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.push(self.pc());
                    }
                    let _ = self.step();
                    steps += 1;
                    stats.interp_steps += 1;
                }
            }
        }
        match self.stopped() {
            Some(outcome) => RunResult { outcome, steps },
            None => RunResult { outcome: RunOutcome::TimedOut, steps },
        }
    }

    /// The uop tier's dispatch loop: executes one compiled body from
    /// slot `entry` until a fault, stop, fence, exec-dirty write into
    /// the block, or control transfer out of it. Deferred flags never
    /// escape — every exit path materializes them, so the machine state
    /// is architecturally exact whenever this returns.
    #[allow(clippy::too_many_arguments)]
    fn run_uop_body(
        &mut self,
        block: &DecodedBlock,
        entries: &[UopEntry],
        entry: usize,
        max_steps: u64,
        steps: &mut u64,
        stats: &mut BlockStats,
        trace: &mut Option<&mut Vec<u64>>,
    ) {
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
                // A store landed in executable memory: the compiled
                // body may be stale; re-entry through the outer lookup
                // decides (and falls back to precise interpretation for
                // this block if it was hit).
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
                // stay in the compiled body instead of paying the cache
                // lookup and tier bookkeeping once per iteration. The
                // per-entry fence, stop, and exec-dirty-epoch checks
                // above are the same rails the outer loop would apply.
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
    use rr_asm::assemble_and_link;
    use rr_obj::Executable;

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

    fn cache_for(exe: &Executable) -> BlockCache {
        BlockCache::build(exe, [exe.entry]).expect("text decodes")
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
            let got = m.run_uops(&cache, UopConfig { hot_threshold: 0 }, 10_000, &mut stats);

            assert_eq!(got, want);
            assert_state_matches("eager uops", &m, &reference);
            assert_eq!(stats.total(), got.steps);
            assert!(stats.uop_steps > 0, "{stats:?}");
            assert_eq!(stats.block_steps, 0, "eager tiering never runs decoded: {stats:?}");
            assert!(stats.blocks_compiled > 0, "{stats:?}");
        }
    }

    #[test]
    fn fused_idioms_skip_flag_materialization() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        m.run_uops(&cache, UopConfig { hot_threshold: 0 }, 10_000, &mut stats);
        // Five loop iterations execute five fused cmp+jne pairs; only
        // block exits materialize, so materializations stay far below
        // the count of flag-setting instructions executed.
        assert!(
            stats.flag_materializations < stats.uop_steps / 4,
            "lazy flags should rarely materialize: {stats:?}"
        );
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
            for hot_threshold in [0, 1, 8] {
                for fence in 0..=total + 2 {
                    let mut reference = Machine::new(&exe, &[]);
                    let want = reference.run(fence);
                    let mut m = Machine::new(&exe, &[]);
                    let mut stats = BlockStats::default();
                    let config = UopConfig { hot_threshold };
                    let got = m.run_uops(&cache, config, fence, &mut stats);
                    assert_eq!(got, want, "fence={fence} hot={hot_threshold}");
                    assert_state_matches(
                        &format!("fence={fence} hot={hot_threshold}"),
                        &m,
                        &reference,
                    );
                    assert_eq!(stats.total(), got.steps, "fence={fence}");
                }
            }
        }
    }

    #[test]
    fn tiering_promotes_blocks_after_the_threshold() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        let result = m.run_uops(&cache, UopConfig { hot_threshold: 2 }, 10_000, &mut stats);

        let mut reference = Machine::new(&exe, &[]);
        assert_eq!(result, reference.run(10_000));
        // The loop body crosses the threshold and is promoted; the cold
        // prologue keeps running decoded.
        assert!(stats.tier_promotions > 0, "{stats:?}");
        assert!(stats.blocks_compiled > 0, "{stats:?}");
        assert!(stats.uop_steps > 0, "{stats:?}");
        assert!(stats.block_steps > 0, "cold blocks run decoded: {stats:?}");
        assert_eq!(stats.total(), result.steps);
        assert_eq!(stats.blocks_compiled, stats.tier_promotions);
    }

    #[test]
    fn compiled_bodies_are_shared_across_machines() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        let mut first_stats = BlockStats::default();
        Machine::new(&exe, &[]).run_uops(&cache, UopConfig::default(), 10_000, &mut first_stats);
        assert!(first_stats.blocks_compiled > 0);
        // A second machine over the same cache reuses every compiled
        // body: no compiles, no promotions, and no decoded warm-up.
        let mut second_stats = BlockStats::default();
        let mut m = Machine::new(&exe, &[]);
        let result = m.run_uops(&cache, UopConfig::default(), 10_000, &mut second_stats);
        assert_eq!(second_stats.blocks_compiled, 0, "{second_stats:?}");
        assert_eq!(second_stats.tier_promotions, 0, "{second_stats:?}");
        assert_eq!(second_stats.block_steps, 0, "{second_stats:?}");
        assert_eq!(second_stats.uop_steps + second_stats.interp_steps, result.steps);
    }

    #[test]
    fn traced_uop_run_matches_interpreter_trace() {
        for hot_threshold in [0, 1, 8] {
            let exe = assemble_and_link(LOOPY).unwrap();
            let mut ref_trace = Vec::new();
            let mut reference = Machine::new(&exe, &[]);
            let want = reference.run_with(10_000, |m| ref_trace.push(m.pc()));

            let cache = cache_for(&exe);
            let mut m = Machine::new(&exe, &[]);
            let mut stats = BlockStats::default();
            let mut trace = Vec::new();
            let config = UopConfig { hot_threshold };
            let got = m.run_uops_traced(&cache, config, 10_000, &mut stats, &mut trace);
            assert_eq!(got, want, "hot={hot_threshold}");
            assert_eq!(trace, ref_trace, "hot={hot_threshold}");
        }
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
            let got = m.run_uops(&cache, UopConfig { hot_threshold: 0 }, 100, &mut stats);
            assert_eq!(got, want, "{src}");
            assert_state_matches(src, &m, &reference);
        }
    }

    #[test]
    fn poked_code_falls_back_to_the_interpreter() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        // Warm the cache so the corrupted block is already compiled.
        let mut warm = BlockStats::default();
        Machine::new(&exe, &[]).run_uops(&cache, UopConfig { hot_threshold: 0 }, 10_000, &mut warm);
        assert!(warm.blocks_compiled > 0);

        let mut reference = Machine::new(&exe, &[]);
        let mut m = Machine::new(&exe, &[]);
        let target = exe.entry;
        for machine in [&mut reference, &mut m] {
            let byte = machine.peek_bytes(target, 1).unwrap()[0];
            assert!(machine.poke_bytes(target, &[byte ^ 0x40]));
        }
        let want = reference.run(10_000);
        let mut stats = BlockStats::default();
        let got = m.run_uops(&cache, UopConfig { hot_threshold: 0 }, 10_000, &mut stats);
        assert_eq!(got, want);
        assert_eq!(m.take_output(), reference.take_output());
        assert!(stats.interp_steps > 0, "dirty block must interpret: {stats:?}");
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
        let got = m.run_uops(&cache, UopConfig { hot_threshold: 0 }, 100, &mut stats);
        assert_eq!(got, want);
        assert_state_matches("mid-block entry", &m, &reference);
    }

    #[test]
    fn compile_is_deterministic_and_fuses_cmp_jcc() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        let (block, _) = cache.lookup(exe.entry).unwrap();
        let a = compile_block(block);
        let b = compile_block(block);
        assert_eq!(a, b);
        assert_eq!(a.entries.len(), block.body.len(), "one slot per instruction");
        for (entry, &pc) in a.entries.iter().zip(&block.pcs) {
            assert_eq!(entry.pc, pc);
        }
        // The LOOPY loop block ends `cmp r2, 0` + `jne .loop`.
        let loop_block = cache.block_ranges().zip(0u32..).find_map(|(range, _)| {
            let (b, _) = cache.lookup(range.start)?;
            let fused = compile_block(b).entries.iter().any(|e| matches!(e.op, Uop::CmpJcc { .. }));
            fused.then_some(b.start)
        });
        assert!(loop_block.is_some(), "cmp+jne idiom must fuse");
    }
}
