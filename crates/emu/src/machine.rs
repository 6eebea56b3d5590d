//! The CPU interpreter.

use crate::hang::StateDiff;
use crate::memory::{AccessKind, MemResult, Memory, MemoryDelta, MemoryStats};
use crate::outcome::{CpuFault, RunOutcome};
use rr_isa::{
    decode, flag_bits, AluOp, Flags, Instr, Reg, RegSet, ShiftOp, MAX_INSTR_LEN, STACK_TOP,
};
use rr_obj::Executable;
use std::sync::Arc;

/// Default step budget for [`Machine::run`]-style helpers.
pub const DEFAULT_MAX_STEPS: u64 = 1_000_000;

/// Result of running the machine for a bounded number of steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Instructions actually executed.
    pub steps: u64,
}

/// An RRVM machine instance: registers, flags, memory, and I/O streams.
///
/// See the crate docs for the service (`svc`) table. The machine is
/// deterministic: identical executables and inputs produce identical runs,
/// which fault campaigns rely on to compare faulted runs against golden
/// ones.
#[derive(Debug, Clone)]
pub struct Machine {
    regs: [u64; 16],
    flags: Flags,
    pc: u64,
    memory: Memory,
    /// Shared with snapshots: the input stream is immutable, only the
    /// cursor moves.
    input: Arc<Vec<u8>>,
    input_pos: usize,
    /// Copy-on-write like memory regions: snapshots share the buffer and
    /// the next write after a capture copies it.
    output: Arc<Vec<u8>>,
    /// Set once the machine has stopped (exit or fault); further stepping
    /// is a no-op returning the same outcome.
    stopped: Option<RunOutcome>,
}

/// A point-in-time capture of a machine's complete architectural state:
/// registers, flags, program counter, memory, I/O cursor, accumulated
/// output, and stopped status.
///
/// Snapshots are cheap: memory pages, the input stream, and the output
/// buffer are all copy-on-write, so a capture is O(touched pages)
/// reference bumps — no byte is copied, and a page the machine never
/// loaded or wrote has no entry to copy (a read is still one index) —
/// and the pages a later run dirties are unshared 4 KiB at a time, so a
/// retained snapshot's footprint is proportional to the bytes its
/// interval actually touched
/// ([`Snapshot::dirtied_since`] measures exactly that). They are also
/// [`Send`] + [`Sync`], so a recording pass can publish snapshots that
/// many replay workers restore concurrently — the foundation of the
/// `rr-engine` checkpointed campaign scheduler.
///
/// Internally a snapshot is simply a (cheap) clone of the whole machine,
/// which makes it impossible to forget a field when the machine grows
/// new state.
#[derive(Debug, Clone)]
pub struct Snapshot(Machine);

impl Snapshot {
    /// Program counter at capture time.
    pub fn pc(&self) -> u64 {
        self.0.pc
    }

    /// The output written up to capture time.
    pub fn output(&self) -> &[u8] {
        &self.0.output
    }

    /// Residency of the captured memory (materialized vs zero pages).
    pub fn memory_stats(&self) -> MemoryStats {
        self.0.memory.stats()
    }

    /// Memory pages this capture no longer shares with `baseline` — the
    /// bytes an interval of execution between the two captures dirtied.
    /// Both snapshots must come from machines for the same executable.
    /// This is the accounting the `rr-engine` checkpoint byte budget and
    /// footprint reports are built on.
    pub fn dirtied_since(&self, baseline: &Snapshot) -> MemoryDelta {
        self.0.memory.delta(&baseline.0.memory)
    }
}

impl Machine {
    /// Creates a machine loaded with `exe`, its PC at the entry point, `sp`
    /// at the stack top, and `input` as the program's input stream.
    pub fn new(exe: &Executable, input: &[u8]) -> Machine {
        let mut regs = [0u64; 16];
        regs[Reg::SP.index() as usize] = STACK_TOP;
        Machine {
            regs,
            flags: Flags::CLEAR,
            pc: exe.entry,
            memory: Memory::for_executable(exe),
            input: Arc::new(input.to_vec()),
            input_pos: 0,
            output: Arc::new(Vec::new()),
            stopped: None,
        }
    }

    /// Captures the machine's complete state. O(touched pages) reference
    /// bumps thanks to page-granular copy-on-write memory and output; the
    /// returned [`Snapshot`] stays valid no matter how this machine runs
    /// on.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.clone())
    }

    /// Rewinds this machine to a previously captured snapshot. The
    /// snapshot must come from a machine created for the same executable
    /// and input (snapshots carry their input stream, so the pairing is
    /// restored too).
    pub fn restore(&mut self, snapshot: &Snapshot) {
        *self = snapshot.0.clone();
    }

    /// Materializes a fresh machine from a snapshot (equivalent to
    /// rebuilding the original machine and replaying it to the capture
    /// point, but O(touched pages)).
    pub fn from_snapshot(snapshot: &Snapshot) -> Machine {
        snapshot.0.clone()
    }

    /// Whether this machine's complete architectural state equals the
    /// state `snapshot` captured, so that both run on identically from
    /// here: the same output, and [`Machine::same_live_state`] with every
    /// register, NZCV bit and memory word live. Memory compares last
    /// ([`Memory::same_contents`]: shared pages compare without a read,
    /// and exec-dirty bookkeeping is ignored).
    pub fn same_state(&self, snapshot: &Snapshot) -> bool {
        self.output == snapshot.0.output
            && self.same_live_state(snapshot, RegSet::ALL, flag_bits::ALL, |_| true)
    }

    /// Whether this machine runs on exactly as the machine `snapshot`
    /// captured does, given what that run reads before overwriting it:
    /// of the registers only `regs`, of the NZCV bits only `flags` (a
    /// [`flag_bits`](rr_isa::flag_bits) mask), and of data memory only
    /// the 8-byte-aligned words `reads_word` accepts, by address. The pc,
    /// stop state, input cursor and stream, and executable memory must be
    /// equal, and so must every register, flag bit and word that run
    /// reads; the rest may differ, the output included. Both runs then
    /// end alike after the same number of steps, and each appends the
    /// same bytes to the output it has. Memory compares last, in one page
    /// walk that asks `reads_word` only about the words that differ.
    pub fn same_live_state(
        &self,
        snapshot: &Snapshot,
        regs: RegSet,
        flags: u8,
        mut reads_word: impl FnMut(u64) -> bool,
    ) -> bool {
        let other = &snapshot.0;
        self.same_place(other)
            && (self.regs == other.regs || self.differing_regs(other).intersect(regs).is_empty())
            && (self.flags.to_bits() ^ other.flags.to_bits()) as u8 & flags == 0
            && self.memory.same_contents_except(&other.memory, 0..0, |word| !reads_word(word))
    }

    /// Compares this machine with the state `snapshot` captured, except
    /// for the output: `None` when they differ in the program counter,
    /// the stop state, the input cursor or stream, or memory contents
    /// outside the bytes between the two stack pointers, otherwise the
    /// registers and NZCV bits that differ. Compares cheapest first and
    /// memory last.
    ///
    /// A hung run's candidate period is such a difference (see
    /// [`HangDetector`](crate::HangDetector)), where a stack that grew or
    /// shrank by the period differs only in the slots it moved over.
    pub(crate) fn register_diff(&self, snapshot: &Snapshot) -> Option<StateDiff> {
        let other = &snapshot.0;
        let (sp, other_sp) = (self.reg(Reg::SP), other.reg(Reg::SP));
        let same_place = self.same_place(other)
            && self.memory.same_contents_except(
                &other.memory,
                sp.min(other_sp)..sp.max(other_sp),
                |_| false,
            );
        if !same_place {
            return None;
        }
        let regs = if self.regs == other.regs { RegSet::EMPTY } else { self.differing_regs(other) };
        Some(StateDiff { regs, flags: (self.flags.to_bits() ^ other.flags.to_bits()) as u8 })
    }

    /// The registers whose values differ between this machine and `other`.
    fn differing_regs(&self, other: &Machine) -> RegSet {
        Reg::ALL.into_iter().filter(|&r| self.reg(r) != other.reg(r)).collect()
    }

    /// Whether this machine is where `other` is: the same pc, stop state,
    /// and input cursor and stream.
    fn same_place(&self, other: &Machine) -> bool {
        self.pc == other.pc
            && self.stopped == other.stopped
            && self.input_pos == other.input_pos
            && (Arc::ptr_eq(&self.input, &other.input) || self.input == other.input)
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Overrides the program counter (used by fault models that corrupt
    /// control flow).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index() as usize]
    }

    /// Writes a register (used by register-corruption fault models).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index() as usize] = value;
    }

    /// Current flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Overrides the flags (flag-corruption fault models).
    pub fn set_flags(&mut self, flags: Flags) {
        self.flags = flags;
    }

    /// The output written so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Takes ownership of the output buffer (cloning only if a snapshot
    /// still shares it).
    pub fn take_output(&mut self) -> Vec<u8> {
        Arc::unwrap_or_clone(std::mem::take(&mut self.output))
    }

    /// Whether the machine has stopped, and how.
    pub fn stopped(&self) -> Option<RunOutcome> {
        self.stopped
    }

    /// Physical memory write ignoring permissions (bit-flip injection into
    /// code). Returns `false` if the target range is unmapped.
    pub fn poke_bytes(&mut self, addr: u64, data: &[u8]) -> bool {
        self.memory.poke(addr, data)
    }

    /// Physical memory read ignoring permissions.
    pub fn peek_bytes(&self, addr: u64, len: usize) -> Option<&[u8]> {
        self.memory.peek(addr, len)
    }

    /// Checked memory view (respects permissions), for oracles inspecting
    /// program state.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Residency of this machine's memory (materialized vs zero pages).
    pub fn memory_stats(&self) -> MemoryStats {
        self.memory.stats()
    }

    /// Memory pages this machine no longer shares with `snapshot` — the
    /// bytes dirtied since (or, for an unrelated capture of the same
    /// executable, the divergence between the two states).
    pub fn dirtied_since(&self, snapshot: &Snapshot) -> MemoryDelta {
        self.memory.delta(&snapshot.0.memory)
    }

    /// Decodes the instruction at the current PC without executing it.
    ///
    /// # Errors
    ///
    /// Returns the [`CpuFault`] the machine would raise on this fetch.
    pub fn fetch_decode(&self) -> Result<(Instr, usize), CpuFault> {
        let bytes = self.code_bytes(self.pc).map_err(|(addr, _)| CpuFault::ExecFault { addr })?;
        decode(bytes).map_err(CpuFault::IllegalInstruction)
    }

    /// The executable bytes an instruction fetch at `pc` sees — the one
    /// read behind both [`Machine::fetch_decode`] and the blocks the uop
    /// tier decodes out of this machine's memory.
    pub(crate) fn code_bytes(&self, pc: u64) -> MemResult<&[u8]> {
        self.memory.fetch(pc, MAX_INSTR_LEN)
    }

    /// Implements the "instruction skip" fault: advances PC over the
    /// current instruction without executing it.
    ///
    /// # Errors
    ///
    /// Propagates the decode fault if the current bytes are not a valid
    /// instruction (a skip cannot be applied to an undecodable site).
    pub fn skip_instruction(&mut self) -> Result<(), CpuFault> {
        let (_, len) = self.fetch_decode()?;
        self.pc += len as u64;
        Ok(())
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns the [`CpuFault`] that stopped the machine. After any error
    /// (or normal exit) the machine is stopped and further calls return the
    /// recorded outcome's fault or do nothing for exits.
    pub fn step(&mut self) -> Result<(), CpuFault> {
        if let Some(RunOutcome::Crashed { fault, .. }) = self.stopped {
            return Err(fault);
        }
        if self.stopped.is_some() {
            return Ok(());
        }
        match self.step_inner() {
            Ok(()) => Ok(()),
            Err(fault) => {
                self.stopped = Some(RunOutcome::Crashed { fault, pc: self.pc });
                Err(fault)
            }
        }
    }

    pub(crate) fn mem_fault((addr, access): (u64, AccessKind)) -> CpuFault {
        CpuFault::MemoryFault { addr, access }
    }

    /// Mutable memory access for the in-crate execution engines (the
    /// micro-op tier performs its own loads/stores).
    pub(crate) fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Records a crash at the current PC with the same contract as the
    /// [`Machine::step`] error path: the machine sticks to the recorded
    /// outcome and further stepping returns it.
    pub(crate) fn stop_crashed(&mut self, fault: CpuFault) {
        self.stopped = Some(RunOutcome::Crashed { fault, pc: self.pc });
    }

    fn step_inner(&mut self) -> Result<(), CpuFault> {
        let (insn, len) = self.fetch_decode()?;
        self.exec_decoded(insn, len)
    }

    /// Executes an already-decoded instruction (the back half of
    /// [`Machine::step`]).
    fn exec_decoded(&mut self, insn: Instr, len: usize) -> Result<(), CpuFault> {
        let next_pc = self.pc + len as u64;
        self.pc = next_pc;
        match insn {
            Instr::Nop => {}
            Instr::Halt => {
                // Record the faulting pc as the halt site, not the successor.
                self.pc = next_pc - len as u64;
                return Err(CpuFault::Halted);
            }
            Instr::MovRR { rd, rs } => self.set_reg(rd, self.reg(rs)),
            Instr::MovRI { rd, imm } => self.set_reg(rd, imm),
            Instr::AluRR { op, rd, rs } => self.alu(op, rd, self.reg(rs))?,
            Instr::AluRI { op, rd, imm } => self.alu(op, rd, imm as i64 as u64)?,
            Instr::ShiftRI { op, rd, amt } => self.shift(op, rd, amt),
            Instr::Not { rd } => {
                let res = !self.reg(rd);
                self.set_reg(rd, res);
                self.flags = Flags::from_logic(res);
            }
            Instr::Neg { rd } => {
                let value = self.reg(rd);
                let res = value.wrapping_neg();
                self.set_reg(rd, res);
                self.flags = Flags::from_sub(0, value);
            }
            Instr::CmpRR { rs1, rs2 } => self.flags = Flags::from_sub(self.reg(rs1), self.reg(rs2)),
            Instr::CmpRI { rs1, imm } => {
                self.flags = Flags::from_sub(self.reg(rs1), imm as i64 as u64)
            }
            Instr::CmpRM { rs1, base, disp } => {
                let addr = self.reg(base).wrapping_add(disp as i64 as u64);
                let value = self.memory.read_u64(addr).map_err(Self::mem_fault)?;
                self.flags = Flags::from_sub(self.reg(rs1), value);
            }
            Instr::TestRR { rs1, rs2 } => {
                self.flags = Flags::from_logic(self.reg(rs1) & self.reg(rs2))
            }
            Instr::Load { rd, base, disp } => {
                let addr = self.reg(base).wrapping_add(disp as i64 as u64);
                let value = self.memory.read_u64(addr).map_err(Self::mem_fault)?;
                self.set_reg(rd, value);
            }
            Instr::Store { base, disp, rs } => {
                let addr = self.reg(base).wrapping_add(disp as i64 as u64);
                self.memory.write_u64(addr, self.reg(rs)).map_err(Self::mem_fault)?;
            }
            Instr::LoadB { rd, base, disp } => {
                let addr = self.reg(base).wrapping_add(disp as i64 as u64);
                let value = self.memory.read_u8(addr).map_err(Self::mem_fault)?;
                self.set_reg(rd, u64::from(value));
            }
            Instr::StoreB { base, disp, rs } => {
                let addr = self.reg(base).wrapping_add(disp as i64 as u64);
                self.memory.write_u8(addr, self.reg(rs) as u8).map_err(Self::mem_fault)?;
            }
            Instr::Lea { rd, base, disp } => {
                self.set_reg(rd, self.reg(base).wrapping_add(disp as i64 as u64))
            }
            Instr::Push { rs } => self.push(self.reg(rs))?,
            Instr::Pop { rd } => {
                let value = self.pop()?;
                self.set_reg(rd, value);
            }
            Instr::PushF => self.push(self.flags.to_bits())?,
            Instr::PopF => {
                let bits = self.pop()?;
                self.flags = Flags::from_bits(bits);
            }
            Instr::Jmp { rel } => self.pc = next_pc.wrapping_add(rel as i64 as u64),
            Instr::Jcc { cc, rel } => {
                if cc.eval(self.flags) {
                    self.pc = next_pc.wrapping_add(rel as i64 as u64);
                }
            }
            Instr::Call { rel } => {
                self.push(next_pc)?;
                self.pc = next_pc.wrapping_add(rel as i64 as u64);
            }
            Instr::CallR { rs } => {
                let target = self.reg(rs);
                self.push(next_pc)?;
                self.pc = target;
            }
            Instr::JmpR { rs } => self.pc = self.reg(rs),
            Instr::Ret => self.pc = self.pop()?,
            Instr::SetCc { rd, cc } => self.set_reg(rd, u64::from(cc.eval(self.flags))),
            Instr::Svc { num } => self.service(num)?,
        }
        Ok(())
    }

    pub(crate) fn alu(&mut self, op: AluOp, rd: Reg, rhs: u64) -> Result<(), CpuFault> {
        let lhs = self.reg(rd);
        let (res, flags) = match op {
            AluOp::Add => (lhs.wrapping_add(rhs), Flags::from_add(lhs, rhs)),
            AluOp::Sub => (lhs.wrapping_sub(rhs), Flags::from_sub(lhs, rhs)),
            AluOp::And => {
                let r = lhs & rhs;
                (r, Flags::from_logic(r))
            }
            AluOp::Or => {
                let r = lhs | rhs;
                (r, Flags::from_logic(r))
            }
            AluOp::Xor => {
                let r = lhs ^ rhs;
                (r, Flags::from_logic(r))
            }
            AluOp::Mul => {
                let (r, overflow) = lhs.overflowing_mul(rhs);
                let mut f = Flags::from_logic(r);
                f.c = overflow;
                f.v = overflow;
                (r, f)
            }
            AluOp::Udiv => {
                if rhs == 0 {
                    return Err(CpuFault::DivideByZero);
                }
                let r = lhs / rhs;
                (r, Flags::from_logic(r))
            }
        };
        self.set_reg(rd, res);
        self.flags = flags;
        Ok(())
    }

    fn shift(&mut self, op: ShiftOp, rd: Reg, amt: u8) {
        let amt = u32::from(amt & 63);
        if amt == 0 {
            return; // zero-count shifts leave flags and value unchanged
        }
        let value = self.reg(rd);
        let (res, carry) = match op {
            ShiftOp::Shl => (value << amt, value >> (64 - amt) & 1 == 1),
            ShiftOp::Shr => (value >> amt, value >> (amt - 1) & 1 == 1),
            ShiftOp::Sar => (((value as i64) >> amt) as u64, (value as i64) >> (amt - 1) & 1 == 1),
        };
        self.set_reg(rd, res);
        let mut flags = Flags::from_logic(res);
        flags.c = carry;
        self.flags = flags;
    }

    pub(crate) fn push(&mut self, value: u64) -> Result<(), CpuFault> {
        let sp = self.reg(Reg::SP).wrapping_sub(8);
        self.memory.write_u64(sp, value).map_err(Self::mem_fault)?;
        self.set_reg(Reg::SP, sp);
        Ok(())
    }

    pub(crate) fn pop(&mut self) -> Result<u64, CpuFault> {
        let sp = self.reg(Reg::SP);
        let value = self.memory.read_u64(sp).map_err(Self::mem_fault)?;
        self.set_reg(Reg::SP, sp.wrapping_add(8));
        Ok(value)
    }

    pub(crate) fn service(&mut self, num: u8) -> Result<(), CpuFault> {
        match num {
            0 => {
                self.stopped = Some(RunOutcome::Exited { code: self.reg(Reg::R1) });
                Ok(())
            }
            1 => {
                let byte = self.reg(Reg::R1) as u8;
                Arc::make_mut(&mut self.output).push(byte);
                Ok(())
            }
            2 => {
                let value = match self.input.get(self.input_pos) {
                    Some(&b) => {
                        self.input_pos += 1;
                        u64::from(b)
                    }
                    None => u64::MAX,
                };
                self.set_reg(Reg::R0, value);
                Ok(())
            }
            3 => {
                let text = self.reg(Reg::R1).to_string();
                Arc::make_mut(&mut self.output).extend_from_slice(text.as_bytes());
                Ok(())
            }
            other => Err(CpuFault::BadService(other)),
        }
    }

    /// Runs until exit, fault, or `max_steps` instructions.
    pub fn run(&mut self, max_steps: u64) -> RunResult {
        self.run_with(max_steps, |_| {})
    }

    /// Like [`Machine::run`], invoking `before_step` before each
    /// instruction executes (used for tracing).
    pub fn run_with(&mut self, max_steps: u64, mut before_step: impl FnMut(&Machine)) -> RunResult {
        let mut steps = 0u64;
        while steps < max_steps {
            if let Some(outcome) = self.stopped {
                return RunResult { outcome, steps };
            }
            before_step(self);
            let _ = self.step();
            steps += 1;
        }
        match self.stopped {
            Some(outcome) => RunResult { outcome, steps },
            None => RunResult { outcome: RunOutcome::TimedOut, steps },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_asm::assemble_and_link;

    fn run_src(src: &str) -> (RunOutcome, Vec<u8>) {
        run_src_with_input(src, &[])
    }

    fn run_src_with_input(src: &str, input: &[u8]) -> (RunOutcome, Vec<u8>) {
        let exe = assemble_and_link(src).expect("assembly should succeed");
        let mut m = Machine::new(&exe, input);
        let result = m.run(100_000);
        (result.outcome, m.take_output())
    }

    const PRELUDE: &str = "    .global _start\n_start:\n";

    #[test]
    fn arithmetic_and_exit_code() {
        let (outcome, _) =
            run_src(&format!("{PRELUDE}    mov r1, 6\n    mov r2, 7\n    mul r1, r2\n    svc 0\n"));
        assert_eq!(outcome, RunOutcome::Exited { code: 42 });
    }

    #[test]
    fn flags_drive_conditional_jumps() {
        let (outcome, out) = run_src(&format!(
            "{PRELUDE}\
                 mov r1, 5\n\
                 cmp r1, 5\n\
                 je .eq\n\
                 mov r1, 'N'\n\
                 jmp .print\n\
             .eq:\n\
                 mov r1, 'Y'\n\
             .print:\n\
                 svc 1\n\
                 mov r1, 0\n\
                 svc 0\n"
        ));
        assert_eq!(outcome, RunOutcome::Exited { code: 0 });
        assert_eq!(out, b"Y");
    }

    #[test]
    fn call_ret_and_stack() {
        let (outcome, _) = run_src(
            "    .global _start\n\
             _start:\n\
                 mov r1, 20\n\
                 call double\n\
                 svc 0\n\
             double:\n\
                 add r1, r1\n\
                 ret\n",
        );
        assert_eq!(outcome, RunOutcome::Exited { code: 40 });
    }

    #[test]
    fn push_pop_round_trip() {
        let (outcome, _) = run_src(&format!(
            "{PRELUDE}    mov r1, 99\n    push r1\n    mov r1, 0\n    pop r1\n    svc 0\n"
        ));
        assert_eq!(outcome, RunOutcome::Exited { code: 99 });
    }

    #[test]
    fn pushf_popf_preserve_flags() {
        // Set Z via cmp, clobber flags, restore, then jump on Z.
        let (outcome, _) = run_src(&format!(
            "{PRELUDE}\
                 mov r1, 1\n\
                 cmp r1, 1\n\
                 pushf\n\
                 cmp r1, 0\n\
                 popf\n\
                 je .good\n\
                 mov r1, 1\n\
                 svc 0\n\
             .good:\n\
                 mov r1, 0\n\
                 svc 0\n"
        ));
        assert_eq!(outcome, RunOutcome::Exited { code: 0 });
    }

    #[test]
    fn memory_round_trip_and_byte_ops() {
        let (outcome, out) = run_src(&format!(
            "{PRELUDE}\
                 mov r2, buffer\n\
                 mov r1, 0x4142\n\
                 store [r2], r1\n\
                 loadb r1, [r2+1]\n\
                 svc 1\n\
                 loadb r1, [r2]\n\
                 svc 1\n\
                 mov r1, 0\n\
                 svc 0\n\
                 .data\n\
             buffer:\n\
                 .space 8\n"
        ));
        assert_eq!(outcome, RunOutcome::Exited { code: 0 });
        // 0x4142 little-endian: byte 0 is 0x42 ('B'), byte 1 is 0x41 ('A').
        assert_eq!(out, b"AB");
    }

    #[test]
    fn input_stream_and_eof() {
        let src = format!(
            "{PRELUDE}\
                 svc 2\n\
                 mov r1, r0\n\
                 svc 1\n\
                 svc 2\n\
                 cmp r0, -1\n\
                 jne .more\n\
                 mov r1, 0\n\
                 svc 0\n\
             .more:\n\
                 mov r1, 1\n\
                 svc 0\n"
        );
        let (outcome, out) = run_src_with_input(&src, b"Q");
        assert_eq!(outcome, RunOutcome::Exited { code: 0 });
        assert_eq!(out, b"Q");
    }

    #[test]
    fn decimal_output_service() {
        let (_, out) =
            run_src(&format!("{PRELUDE}    mov r1, 12345\n    svc 3\n    mov r1, 0\n    svc 0\n"));
        assert_eq!(out, b"12345");
    }

    #[test]
    fn crash_taxonomy() {
        // Unmapped read.
        let (outcome, _) =
            run_src(&format!("{PRELUDE}    mov r2, 0x99999000\n    load r1, [r2]\n    svc 0\n"));
        assert!(matches!(
            outcome,
            RunOutcome::Crashed {
                fault: CpuFault::MemoryFault { access: AccessKind::Read, .. },
                ..
            }
        ));

        // Write to .text (W^X).
        let (outcome, _) =
            run_src(&format!("{PRELUDE}    mov r2, 0x1000\n    store [r2], r1\n    svc 0\n"));
        assert!(matches!(
            outcome,
            RunOutcome::Crashed {
                fault: CpuFault::MemoryFault { access: AccessKind::Write, .. },
                ..
            }
        ));

        // Divide by zero.
        let (outcome, _) = run_src(&format!(
            "{PRELUDE}    mov r1, 4\n    mov r2, 0\n    udiv r1, r2\n    svc 0\n"
        ));
        assert!(matches!(outcome, RunOutcome::Crashed { fault: CpuFault::DivideByZero, .. }));

        // Halt is an abnormal stop.
        let (outcome, _) = run_src(&format!("{PRELUDE}    halt\n"));
        assert!(matches!(outcome, RunOutcome::Crashed { fault: CpuFault::Halted, .. }));

        // Unknown service.
        let (outcome, _) = run_src(&format!("{PRELUDE}    svc 200\n"));
        assert!(matches!(outcome, RunOutcome::Crashed { fault: CpuFault::BadService(200), .. }));

        // Indirect jump into data → exec fault.
        let (outcome, _) = run_src(&format!(
            "{PRELUDE}    mov r1, target\n    jmpr r1\n    .data\ntarget:\n    .quad 0\n"
        ));
        assert!(matches!(outcome, RunOutcome::Crashed { fault: CpuFault::ExecFault { .. }, .. }));
    }

    #[test]
    fn timeout_on_infinite_loop() {
        let exe = assemble_and_link(&format!("{PRELUDE}.loop:\n    jmp .loop\n")).unwrap();
        let mut m = Machine::new(&exe, &[]);
        let result = m.run(1000);
        assert_eq!(result.outcome, RunOutcome::TimedOut);
        assert_eq!(result.steps, 1000);
    }

    #[test]
    fn illegal_instruction_after_bit_flip() {
        // Flip a bit in the opcode of the first instruction so it decodes
        // to an unassigned opcode, then observe the crash.
        let exe = assemble_and_link(&format!("{PRELUDE}    mov r1, 0\n    svc 0\n")).unwrap();
        let mut m = Machine::new(&exe, &[]);
        // mov r1, imm64 has opcode 0x06 at entry; flip bit 7 → 0x86 (invalid).
        let entry = exe.entry;
        let byte = m.peek_bytes(entry, 1).unwrap()[0];
        assert!(m.poke_bytes(entry, &[byte ^ 0x80]));
        let result = m.run(10);
        assert!(matches!(
            result.outcome,
            RunOutcome::Crashed { fault: CpuFault::IllegalInstruction(_), .. }
        ));
    }

    #[test]
    fn skip_instruction_advances_pc() {
        let exe = assemble_and_link(&format!("{PRELUDE}    mov r1, 7\n    svc 0\n")).unwrap();
        let mut m = Machine::new(&exe, &[]);
        // Skip the mov: r1 stays 0, so exit code is 0 instead of 7.
        m.skip_instruction().unwrap();
        let result = m.run(10);
        assert_eq!(result.outcome, RunOutcome::Exited { code: 0 });
    }

    #[test]
    fn traces_record_every_pc() {
        let exe =
            assemble_and_link(&format!("{PRELUDE}    nop\n    nop\n    mov r1, 0\n    svc 0\n"))
                .unwrap();
        let (exec, trace) = crate::execute_traced(&exe, &[], 100);
        assert_eq!(exec.outcome, RunOutcome::Exited { code: 0 });
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0], exe.entry);
        assert_eq!(trace[1], exe.entry + 1);
        assert_eq!(trace[2], exe.entry + 2);
    }

    #[test]
    fn stopped_machine_is_sticky() {
        let exe =
            assemble_and_link(&format!("{PRELUDE}    mov r1, 3\n    svc 0\n    svc 1\n")).unwrap();
        let mut m = Machine::new(&exe, &[]);
        let r1 = m.run(100);
        assert_eq!(r1.outcome, RunOutcome::Exited { code: 3 });
        // Running again does not execute the trailing svc 1.
        let r2 = m.run(100);
        assert_eq!(r2.outcome, RunOutcome::Exited { code: 3 });
        assert!(m.output().is_empty());
    }

    #[test]
    fn shift_semantics() {
        let (outcome, _) =
            run_src(&format!("{PRELUDE}    mov r1, 1\n    shl r1, 4\n    shr r1, 1\n    svc 0\n"));
        assert_eq!(outcome, RunOutcome::Exited { code: 8 });
        // Arithmetic shift preserves sign.
        let (outcome, _) =
            run_src(&format!("{PRELUDE}    mov r1, -16\n    sar r1, 2\n    neg r1\n    svc 0\n"));
        assert_eq!(outcome, RunOutcome::Exited { code: 4 });
    }

    #[test]
    fn setcc_materializes_conditions() {
        let (outcome, _) = run_src(&format!(
            "{PRELUDE}\
                 mov r1, 3\n\
                 cmp r1, 5\n\
                 setlt r1\n\
                 svc 0\n"
        ));
        assert_eq!(outcome, RunOutcome::Exited { code: 1 });
    }

    #[test]
    fn snapshot_restore_round_trips_full_state() {
        // A program exercising registers, flags, memory, input, and output
        // before and after the capture point.
        let src = "    .global _start\n\
                   _start:\n\
                       svc 2\n\
                       mov r1, r0\n\
                       svc 1\n\
                       mov r2, buffer\n\
                       store [r2], r1\n\
                       cmp r1, 'A'\n\
                       svc 2\n\
                       mov r1, r0\n\
                       svc 1\n\
                       load r3, [r2]\n\
                       mov r1, 0\n\
                       svc 0\n\
                       .data\n\
                   buffer:\n\
                       .space 8\n";
        let exe = assemble_and_link(src).unwrap();
        let mut m = Machine::new(&exe, b"AB");
        // Execute up to and including the cmp (6 instructions).
        for _ in 0..6 {
            m.step().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.pc(), m.pc());

        // Run the original to completion, then restore and re-run: the
        // register file, flags, memory, input cursor, and output must all
        // have rewound, so the completions are identical.
        let first = m.run(100);
        assert_eq!(first.outcome, RunOutcome::Exited { code: 0 });
        let final_output = m.output().to_vec();
        let final_r3 = m.reg(Reg::R3);

        m.restore(&snap);
        assert_eq!(m.pc(), snap.pc());
        assert_eq!(m.stopped(), None);
        assert_eq!(m.output(), b"A", "output rewound to the capture point");
        let again = m.run(100);
        assert_eq!(again.outcome, first.outcome);
        assert_eq!(again.steps, first.steps);
        assert_eq!(m.output(), final_output.as_slice());
        assert_eq!(m.reg(Reg::R3), final_r3);

        // A machine materialized from the snapshot behaves identically.
        let mut fresh = Machine::from_snapshot(&snap);
        assert_eq!(fresh.flags(), snap.0.flags());
        let fresh_run = fresh.run(100);
        assert_eq!(fresh_run.outcome, first.outcome);
        assert_eq!(fresh.output(), final_output.as_slice());
    }

    #[test]
    fn snapshot_isolates_later_memory_writes() {
        let src = format!(
            "{PRELUDE}\
                 mov r2, buffer\n\
                 mov r1, 1\n\
                 store [r2], r1\n\
                 mov r1, 2\n\
                 store [r2], r1\n\
                 svc 0\n\
                 .data\n\
             buffer:\n\
                 .space 8\n"
        );
        let exe = assemble_and_link(&src).unwrap();
        let mut m = Machine::new(&exe, &[]);
        for _ in 0..3 {
            m.step().unwrap(); // first store done: buffer = 1
        }
        let snap = m.snapshot();
        m.run(10); // second store overwrites buffer with 2
        let data_base = exe.section_range(rr_obj::SectionKind::Data).unwrap().start;
        assert_eq!(m.peek_bytes(data_base, 1).unwrap()[0], 2);
        // The snapshot still sees 1 (copy-on-write protected it).
        let restored = Machine::from_snapshot(&snap);
        assert_eq!(restored.peek_bytes(data_base, 1).unwrap()[0], 1);
    }

    #[test]
    fn snapshot_preserves_stopped_state() {
        let exe = assemble_and_link(&format!("{PRELUDE}    mov r1, 9\n    svc 0\n")).unwrap();
        let mut m = Machine::new(&exe, &[]);
        let result = m.run(10);
        assert_eq!(result.outcome, RunOutcome::Exited { code: 9 });
        let snap = m.snapshot();
        let mut restored = Machine::from_snapshot(&snap);
        assert_eq!(restored.stopped(), Some(RunOutcome::Exited { code: 9 }));
        // A stopped machine stays stopped after restore.
        let rerun = restored.run(10);
        assert_eq!(rerun.outcome, RunOutcome::Exited { code: 9 });
        assert_eq!(rerun.steps, 0);
    }

    #[test]
    fn snapshot_preserves_input_cursor() {
        let src = format!(
            "{PRELUDE}    svc 2\n    svc 2\n    mov r1, r0\n    svc 1\n    mov r1, 0\n    svc 0\n"
        );
        let exe = assemble_and_link(&src).unwrap();
        let mut m = Machine::new(&exe, b"XYZ");
        m.step().unwrap(); // consumed 'X'
        let snap = m.snapshot();
        m.run(10);
        assert_eq!(m.output(), b"Y");
        // Restoring rewinds the cursor to after 'X', so the next read is
        // 'Y' again — not 'Z'.
        m.restore(&snap);
        m.run(10);
        assert_eq!(m.output(), b"Y");
    }

    /// Reads an input byte and discards it, prints 'A', pushes a word
    /// and sets Z; nine steps reach the final `svc 0`.
    const STATE_SRC: &str = "    .global _start\n\
                             _start:\n\
                                 svc 2\n\
                                 mov r0, 0\n\
                                 mov r1, 'A'\n\
                                 svc 1\n\
                                 mov r1, 0\n\
                                 mov r2, 0x55\n\
                                 push r2\n\
                                 cmp r2, 0x55\n\
                                 mov r5, 7\n\
                                 svc 0\n";

    /// A machine for [`STATE_SRC`] on input `XY`, stepped `steps` times.
    fn state_machine(steps: usize) -> Machine {
        let exe = assemble_and_link(STATE_SRC).unwrap();
        let mut m = Machine::new(&exe, b"XY");
        for _ in 0..steps {
            m.step().unwrap();
        }
        m
    }

    #[test]
    fn same_state_compares_contents_not_page_copies() {
        let golden = state_machine(9).snapshot();
        // An independent run allocates its own stack page, yet holds the
        // same state.
        let mut same = state_machine(9);
        assert!(same.dirtied_since(&golden).pages > 0, "pages must be separate copies");
        assert!(same.same_state(&golden));
        // A zero page materialized back to zeros, and code rewritten to
        // its original bytes (exec-dirty bookkeeping), are still equal.
        let zero_addr = STACK_TOP - 0x8000;
        assert!(same.poke_bytes(zero_addr, &[1]) && same.poke_bytes(zero_addr, &[0]));
        let code = same.peek_bytes(golden.pc(), 1).unwrap()[0];
        assert!(same.poke_bytes(golden.pc(), &[code ^ 4]));
        assert!(same.poke_bytes(golden.pc(), &[code]));
        assert!(same.same_state(&golden));
    }

    #[test]
    fn same_state_sees_every_kind_of_difference() {
        let golden = state_machine(9).snapshot();

        let mut stack = state_machine(9);
        let top = stack.reg(Reg::SP);
        let byte = stack.peek_bytes(top, 1).unwrap()[0];
        stack.poke_bytes(top, &[byte ^ 1]);
        assert!(!stack.same_state(&golden), "stack byte");

        // Print 'B' instead of 'A'; r1 is overwritten right after.
        let mut output = state_machine(3);
        output.set_reg(Reg::R1, u64::from(b'B'));
        for _ in 0..6 {
            output.step().unwrap();
        }
        assert_eq!(output.output(), b"B");
        assert!(!output.same_state(&golden), "output byte");

        // Skip the input read; r0 is zeroed either way.
        let mut cursor = state_machine(0);
        cursor.skip_instruction().unwrap();
        for _ in 0..8 {
            cursor.step().unwrap();
        }
        assert_eq!((cursor.pc(), cursor.reg(Reg::R0)), (golden.pc(), 0));
        assert!(!cursor.same_state(&golden), "input cursor");

        let mut flag = state_machine(9);
        let mut flags = flag.flags();
        flags.c = !flags.c;
        flag.set_flags(flags);
        assert!(!flag.same_state(&golden), "flag");

        let mut reg = state_machine(9);
        reg.set_reg(Reg::R5, 7 ^ 1);
        assert!(!reg.same_state(&golden), "register");
    }

    #[test]
    fn callr_through_register() {
        let (outcome, _) = run_src(
            "    .global _start\n\
             _start:\n\
                 mov r6, target\n\
                 mov r1, 5\n\
                 callr r6\n\
                 svc 0\n\
             target:\n\
                 add r1, 10\n\
                 ret\n",
        );
        assert_eq!(outcome, RunOutcome::Exited { code: 15 });
    }
}
