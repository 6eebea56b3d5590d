//! Exact extrapolation of hung runs: a candidate period found while the
//! interpreter steps, and a one-period taint proof that holds up to the
//! run's step budget.
//!
//! A run that loops forever burns its whole step budget before it is
//! declared `TimedOut`. When the loop provably repeats, the rest of the
//! run is known without executing it: every later period runs the same
//! instructions and appends the same output, so at the budget the run is
//! `TimedOut` with its output so far, then whole periods' output, then
//! the output of the first steps of one more period
//! ([`Period::extrapolate`]).
//!
//! [`HangDetector`] finds and proves such a period in two parts.
//!
//! * **Candidate** (Brent's cycle finding, BIT 1980). Before every step
//!   the machine is compared with a save point
//!   ([`Machine::register_diff`]); the save point moves to the current
//!   state at power-of-two distances. Every step is a dispatch of the
//!   interpreter, so every loop header is seen each time it is entered.
//!   A candidate is a return to the save point's pc, input cursor and
//!   memory contents, except the bytes between the two stack pointers
//!   when the stack pointer moved, and V is the set of registers and
//!   NZCV bits that differ. A candidate whose proof fails is remembered,
//!   and a later one from the same save point is skipped only when its V
//!   covers the refuted one: it retraces that path with at least that
//!   taint. An exact return, or one with less taint, is still tried.
//! * **Proof** (a forward dependence slice; Weiser, ICSE 1981). One
//!   period is re-run from the save point on the interpreter with V
//!   tainted through [`Instr::operands`]. The proof fails when taint
//!   reaches anything that could make a later period run differently: a
//!   branch condition (the flag bits a `j<cc>` reads, a `jmpr`/`callr`
//!   target), the address of a load, store, compare or stack operation
//!   (`lea` only computes a value), a stored or pushed value (a `pushf`
//!   of tainted flags included), an `svc` argument, or a `udiv` divisor.
//!   Taint left at the end of the period outside V joins V, and the slice
//!   runs again until V is a fixpoint.
//!
//! Why that suffices: two states that agree outside V run the period
//! along the same path, because every branch, address, stored value and
//! fault depends only on untainted state. They write the same memory and
//! the same output, and they end agreeing outside the taint left at the
//! end, which lies in V. The end of the proven period agrees with its
//! start outside V, so by induction every later period repeats it.
//!
//! Two rules relax the proof for induction registers (chains of
//! recurrences; Bachmann, Wang & Zima, ISSAC 1994, applied to proving
//! non-termination as in Gupta et al., POPL 2008): registers of V that
//! the period changes only by adding constants (`add`/`sub` with an
//! immediate, and the stack operations for `sp`). In period k such a
//! register reads its period-0 value plus k times its change per period,
//! so what it decides is known for every period that starts before the
//! budget, which is the detector's horizon ([`HangDetector::new`]).
//!
//! * **Steady flags.** The NZCV bits of an `add`, `sub` or `cmp` of an
//!   induction register and an immediate are clean when they read the
//!   same in every such period. The progression must not wrap. Each flag
//!   then changes only where the operand or the result crosses 0 or
//!   2^63, so comparing the flags of the first period with those at the
//!   progression points on either side of each crossing decides it
//!   exactly, without stepping period by period. A counting loop whose
//!   `jeq` tests the counter for wrapping at 2^64 is proven this way.
//! * **A growing stack.** A write at an induction address (a `call` or
//!   `push` at an induction `sp`) is allowed when every slot it writes
//!   over the horizon lies inside the stack, and no fetch and no read at
//!   a clean address in the period touches that area or the bytes
//!   between the candidate's stack pointers. Memory outside that area
//!   then reads the same in every period. Reads at an induction address
//!   still refute.

use crate::machine::{Machine, RunResult, Snapshot};
use crate::outcome::{Execution, RunOutcome};
use rr_isa::{flag_bits, AluOp, Flags, Instr, Operands, Reg, RegSet, STACK_SIZE, STACK_TOP};
use std::ops::Range;

/// The registers and NZCV bits in which two machine states differ
/// ([`Machine::register_diff`]); as taint, the ones that may.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StateDiff {
    /// Registers.
    pub(crate) regs: RegSet,
    /// NZCV bits ([`flag_bits`] mask).
    pub(crate) flags: u8,
}

impl StateDiff {
    /// No difference.
    pub(crate) const EMPTY: StateDiff = StateDiff { regs: RegSet::EMPTY, flags: 0 };

    fn union(self, other: StateDiff) -> StateDiff {
        StateDiff { regs: self.regs.union(other.regs), flags: self.flags | other.flags }
    }

    fn meets(self, other: StateDiff) -> bool {
        !self.regs.intersect(other.regs).is_empty() || self.flags & other.flags != 0
    }

    fn covers(self, other: StateDiff) -> bool {
        self.union(other) == self
    }
}

/// A proven period of a hung run: the run repeats it until its horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Period {
    steps: u64,
    /// Steps from the end of the proven period to the detector's horizon:
    /// the most the proof covers.
    left: u64,
    /// The output one period appends.
    output: Vec<u8>,
    /// Bytes of `output` appended by the end of each step of the period.
    output_after: Vec<usize>,
}

impl Period {
    /// Steps per period.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The execution a run proven to repeat this period reaches at its
    /// step budget: `TimedOut` after `budget` steps, with `output` (its
    /// output at the proof, `used ≤ budget` steps in), then `(budget −
    /// used) / steps` copies of one period's output, then the output of
    /// the first `(budget − used) mod steps` steps of a period.
    ///
    /// # Panics
    ///
    /// When `budget − used` reaches past the detector's horizon, which
    /// the proof does not cover.
    pub fn extrapolate(&self, mut output: Vec<u8>, used: u64, budget: u64) -> Execution {
        let remaining = budget - used;
        assert!(remaining <= self.left, "{remaining} steps reach past the proof's horizon");
        let whole = remaining / self.steps;
        let partial = match (remaining % self.steps) as usize {
            0 => 0,
            steps => self.output_after[steps - 1],
        };
        output.reserve(self.output.len() * whole as usize + partial);
        for _ in 0..whole {
            output.extend_from_slice(&self.output);
        }
        output.extend_from_slice(&self.output[..partial]);
        Execution { outcome: RunOutcome::TimedOut, output, steps: budget }
    }
}

/// Finds and proves the period of a hung run, checking before every step
/// of one interpreter run ([`Machine::run_detecting`]). A candidate is a
/// return to a save point taken at a power-of-two distance back (Brent's
/// cycle finding) in pc, stop state, input and memory, where the stack
/// pointer may move if memory differs only between the two stack
/// pointers, and other registers and flag bits may differ. The proof
/// re-runs one period from the save point with those tainted, and holds
/// when the taint reaches no branch condition, memory address, stored,
/// pushed or printed value, or `udiv` divisor, and settles; registers the
/// period only counts are followed exactly up to the horizon (see the
/// module docs).
///
/// Distances count the steps of that one run, so a detector watches one
/// run: use a fresh one for the next.
///
/// # Example
///
/// ```
/// use rr_asm::assemble_and_link;
/// use rr_emu::{HangDetector, Machine, RunOutcome};
///
/// // Prints '.' forever while r6 counts: nothing reads the counter.
/// let exe = assemble_and_link(
///     "    .global _start\n_start:\n    mov r1, '.'\n.loop:\n    svc 1\n    add r6, 1\n    jmp .loop\n",
/// )?;
/// let budget = 1_000_001;
/// let mut m = Machine::new(&exe, &[]);
/// let mut detector = HangDetector::new(budget);
/// let result = m.run_detecting(1_000, &mut detector);
/// let period = detector.proof().expect("the loop provably repeats");
/// assert_eq!(period.steps(), 3);
/// let at_budget = period.extrapolate(m.take_output(), result.steps, budget);
/// assert_eq!(at_budget.outcome, RunOutcome::TimedOut);
/// assert_eq!(at_budget.output.len(), 333_334);
/// # Ok::<(), rr_asm::BuildError>(())
/// ```
#[derive(Debug)]
pub struct HangDetector {
    /// Steps the run may take from the detector's first check: the proofs
    /// hold up to here, and no further.
    horizon: u64,
    /// The save point, and the step of the run it was taken at.
    save: Option<(Snapshot, u64)>,
    /// The distance from the save point at which it moves to the current
    /// state: 1, 2, 4, …
    reach: u64,
    /// The difference of the last candidate from the current save point
    /// whose proof failed.
    refuted: Option<StateDiff>,
    /// Steps the proofs re-executed on the interpreter.
    proof_steps: u64,
    proof: Option<Period>,
}

impl HangDetector {
    /// A detector for a run that may take `horizon` more steps from its
    /// first check: the budget left, which a proven [`Period`] covers.
    pub fn new(horizon: u64) -> HangDetector {
        HangDetector { horizon, save: None, reach: 0, refuted: None, proof_steps: 0, proof: None }
    }

    /// The proven period, once the run stopped on one.
    pub fn proof(&self) -> Option<&Period> {
        self.proof.as_ref()
    }

    /// Steps the proofs re-executed on the interpreter: one period per
    /// candidate tried, or the part of it before taint reached a sink.
    pub fn proof_steps(&self) -> u64 {
        self.proof_steps
    }

    /// Checks the state `steps` into the run, before its next step.
    /// Returns whether a period is proven, which stops the run.
    fn at_step(&mut self, machine: &Machine, steps: u64) -> bool {
        let Some((save, saved_at)) = &self.save else {
            self.move_save(machine, steps, 1);
            return false;
        };
        let distance = steps - saved_at;
        if distance > 0 && save.pc() == machine.pc() && steps <= self.horizon {
            if let Some(seed) = machine.register_diff(save) {
                if !self.refuted.is_some_and(|refuted| seed.covers(refuted)) {
                    let horizon = self.horizon - saved_at;
                    let (proof, executed) = prove(save, machine, distance, seed, horizon);
                    self.proof_steps += executed;
                    if proof.is_some() {
                        self.proof = proof;
                        return true;
                    }
                    self.refuted = Some(seed);
                }
            }
        }
        if distance >= self.reach {
            self.move_save(machine, steps, self.reach * 2);
        }
        false
    }

    fn move_save(&mut self, machine: &Machine, steps: u64, reach: u64) {
        self.save = Some((machine.snapshot(), steps));
        self.reach = reach;
        self.refuted = None;
    }
}

impl Machine {
    /// Runs like [`Machine::run`] on the interpreter, checking every step
    /// for a hung loop with `detector` (see [`HangDetector`]). The run
    /// stops early, `TimedOut`, when a period is proven: the machine then
    /// sits at the end of the proven period.
    pub fn run_detecting(&mut self, max_steps: u64, detector: &mut HangDetector) -> RunResult {
        let mut steps = 0u64;
        while steps < max_steps {
            if let Some(outcome) = self.stopped() {
                return RunResult { outcome, steps };
            }
            if detector.at_step(self, steps) {
                break;
            }
            let _ = self.step();
            steps += 1;
        }
        match self.stopped() {
            Some(outcome) => RunResult { outcome, steps },
            None => RunResult { outcome: RunOutcome::TimedOut, steps },
        }
    }
}

/// Re-runs `steps` steps from `save` on the interpreter, the taint slice
/// seeded from `seed` (the difference of `end`, the candidate, from
/// `save`) riding along, and proves the period if the slice reaches no
/// sink and settles within `horizon` steps of the save point. Returns
/// the period, if proven, and the steps executed.
fn prove(
    save: &Snapshot,
    end: &Machine,
    steps: u64,
    seed: StateDiff,
    horizon: u64,
) -> (Option<Period>, u64) {
    let mut machine = Machine::from_snapshot(save);
    let mut slice = Slice::new(&machine, end, steps, seed, horizon);
    let base = machine.output().len();
    let mut output_after = Vec::with_capacity(steps as usize);
    for _ in 0..steps {
        let Ok((insn, len)) = machine.fetch_decode() else { break };
        let value = key(&insn).map_or(0, |r| machine.reg(r));
        if !slice.push(Step { insn, pc: machine.pc(), len: len as u64, value }) {
            break;
        }
        if machine.step().is_err() || machine.stopped().is_some() {
            break;
        }
        output_after.push(machine.output().len() - base);
    }
    if output_after.len() as u64 != steps {
        return (None, slice.path.len() as u64);
    }
    if !slice.settle() {
        return (None, steps);
    }
    let output = machine.output()[base..].to_vec();
    let left = horizon - steps;
    (Some(Period { steps, left, output, output_after }), steps)
}

/// One step of the period as the proof re-ran it.
#[derive(Debug, Clone, Copy)]
struct Step {
    insn: Instr,
    pc: u64,
    len: u64,
    /// The value, before the step, of the register [`key`] names.
    value: u64,
}

/// The register whose value a step's slice needs: the base of its memory
/// access, or the operand of an `add`, `sub` or `cmp` with an immediate.
fn key(insn: &Instr) -> Option<Reg> {
    match *insn {
        Instr::AluRI { rd: r, .. } | Instr::CmpRI { rs1: r, .. } => Some(r),
        _ => insn.mem_access().map(|access| access.base),
    }
}

/// Whether `insn` changes `r` only by adding a constant: an `add` or
/// `sub` of an immediate, or a stack operation moving `sp`.
fn counts(insn: &Instr, r: Reg) -> bool {
    match *insn {
        Instr::AluRI { op: AluOp::Add | AluOp::Sub, rd, .. } => rd == r,
        Instr::Pop { rd } => r == Reg::SP && rd != Reg::SP,
        Instr::Push { .. }
        | Instr::PushF
        | Instr::PopF
        | Instr::Call { .. }
        | Instr::CallR { .. }
        | Instr::Ret => r == Reg::SP,
        _ => false,
    }
}

/// Why a step of the slice stopped it.
enum Stop {
    /// Taint reached a sink: the proof fails.
    Sink,
    /// The step changes this induction register other than by a constant.
    Demote(Reg),
}

/// The taint slice over one period, and the facts its induction rules
/// need (see the module docs).
struct Slice {
    /// Each register's change from the save point to the candidate.
    change: [u64; 16],
    /// Steps per period.
    period: u64,
    /// Steps from the save point to the horizon.
    horizon: u64,
    /// The bytes between the save point's and the candidate's stack
    /// pointers, where their memories may differ.
    moved: Range<u64>,
    seed: StateDiff,
    /// Registers of the seed that every step of the period seen so far
    /// changes only by adding a constant.
    induction: RegSet,
    /// The steps the slice has run over.
    path: Vec<Step>,
    /// The taint of the current pass.
    taint: StateDiff,
    /// The span the pass's writes at induction addresses cover over the
    /// horizon, together with `moved`.
    area: Range<u64>,
    /// The bytes the pass fetched, or read at a clean address.
    reads: Vec<Range<u64>>,
}

impl Slice {
    fn new(save: &Machine, end: &Machine, period: u64, seed: StateDiff, horizon: u64) -> Slice {
        let (from, to) = (save.reg(Reg::SP), end.reg(Reg::SP));
        let moved = from.min(to)..from.max(to);
        Slice {
            change: Reg::ALL.map(|r| end.reg(r).wrapping_sub(save.reg(r))),
            period,
            horizon,
            moved: moved.clone(),
            seed,
            induction: seed.regs,
            path: Vec::with_capacity(period as usize),
            taint: seed,
            area: moved,
            reads: Vec::new(),
        }
    }

    /// Carries the slice over the next step. Returns `false` when taint
    /// reaches a sink.
    fn push(&mut self, step: Step) -> bool {
        loop {
            match self.step(self.path.len() as u64, &step) {
                Ok(()) => {
                    self.path.push(step);
                    return true;
                }
                Err(Stop::Sink) => return false,
                Err(Stop::Demote(r)) => {
                    // The steps already taken may have relied on `r`
                    // counting: redo them without.
                    self.induction.remove(r);
                    if !self.rerun() {
                        return false;
                    }
                }
            }
        }
    }

    /// Runs a fresh pass from the seed over the steps taken. Returns
    /// `false` when taint reaches a sink.
    fn rerun(&mut self) -> bool {
        'pass: loop {
            self.taint = self.seed;
            self.area = self.moved.clone();
            self.reads.clear();
            for j in 0..self.path.len() {
                let step = self.path[j];
                match self.step(j as u64, &step) {
                    Ok(()) => {}
                    Err(Stop::Sink) => return false,
                    Err(Stop::Demote(r)) => {
                        self.induction.remove(r);
                        continue 'pass;
                    }
                }
            }
            return true;
        }
    }

    /// After the first pass over the whole period: grows the seed until
    /// the taint left at the end of the period lies inside it, then checks
    /// that no fetch or clean read touches the area where memory may
    /// differ between periods. Returns whether the proof holds.
    fn settle(mut self) -> bool {
        while !self.seed.covers(self.taint) {
            self.seed = self.seed.union(self.taint);
            if !self.rerun() {
                return false;
            }
        }
        let area = &self.area;
        area.is_empty()
            || self.reads.iter().all(|read| read.end <= area.start || area.end <= read.start)
    }

    /// How many periods run step `j` of the period before the horizon.
    fn periods(&self, j: u64) -> u64 {
        (self.horizon - j).div_ceil(self.period)
    }

    /// Carries the current pass's taint over step `j` of the period:
    /// every def of an instruction that reads a tainted register or flag
    /// bit is tainted, every other def is clean, and a steady flag of an
    /// induction register is clean.
    fn step(&mut self, j: u64, step: &Step) -> Result<(), Stop> {
        let insn = &step.insn;
        let ops = insn.operands();
        if let Some(r) = ops.defs.intersect(self.induction).iter().find(|&r| !counts(insn, r)) {
            return Err(Stop::Demote(r));
        }
        self.reads.push(step.pc..step.pc.saturating_add(step.len));
        if let Some(access) = insn.mem_access() {
            let addr = step.value.wrapping_add(access.disp as u64);
            if !self.taint.regs.contains(access.base) {
                if !access.write {
                    self.reads.push(addr..addr.saturating_add(access.size));
                }
            } else if access.write && self.induction.contains(access.base) {
                let slots = self.slots(j, addr, access.base, access.size).ok_or(Stop::Sink)?;
                self.area = hull(&self.area, slots);
            } else {
                return Err(Stop::Sink);
            }
        }
        if self.taint.meets(sinks(insn, &ops)) {
            return Err(Stop::Sink);
        }
        // The flags an `add`, `sub` or `cmp` of an induction register and
        // an immediate sets alike in every period.
        let counted = match *insn {
            Instr::AluRI { op: op @ (AluOp::Add | AluOp::Sub), rd, imm } => {
                Some((rd, op == AluOp::Sub, imm))
            }
            Instr::CmpRI { rs1, imm } => Some((rs1, true, imm)),
            _ => None,
        };
        let steady = match counted {
            Some((r, sub, imm)) if self.induction.contains(r) => {
                let change = self.change[r.index() as usize];
                steady_flags(step.value, change, self.periods(j), sub, imm)
            }
            _ => 0,
        };
        let defs = StateDiff { regs: ops.defs, flags: ops.flag_defs };
        if self.taint.meets(StateDiff { regs: ops.reads(), flags: ops.flag_uses }) {
            self.taint = self.taint.union(defs);
            self.taint.flags &= !steady;
        } else {
            self.taint.regs = self.taint.regs.minus(defs.regs);
            self.taint.flags &= !defs.flags;
        }
        Ok(())
    }

    /// The span of the `size`-byte slots a write at step `j` reaches over
    /// the horizon, `addr` in the first period and moving with the
    /// induction register `base`, if all lie inside the stack.
    fn slots(&self, j: u64, addr: u64, base: Reg, size: u64) -> Option<Range<u64>> {
        let last = progression_end(addr, self.change[base.index() as usize], self.periods(j))?;
        let (lo, hi) = (addr.min(last), addr.max(last).saturating_add(size));
        (lo >= STACK_TOP - STACK_SIZE && hi <= STACK_TOP).then_some(lo..hi)
    }
}

/// The smallest range holding `a` and `b`.
fn hull(a: &Range<u64>, b: Range<u64>) -> Range<u64> {
    if a.is_empty() {
        b
    } else {
        a.start.min(b.start)..a.end.max(b.end)
    }
}

/// The last of `periods` values `x + k·step` (k from 0, `step` a signed
/// change), if none wraps.
fn progression_end(x: u64, step: u64, periods: u64) -> Option<u64> {
    let last = i128::from(x) + i128::from(periods - 1) * i128::from(step as i64);
    u64::try_from(last).ok()
}

/// The NZCV bits that `x + k·step + imm` (`− imm` when `sub`) sets alike
/// for every k below `periods`; none if the progression wraps.
///
/// The result is `v − zero` for the operand `v`, where `zero` is the
/// operand that makes it 0. Z, N, C and V each change only between the
/// operands `t` and `t + 1` for `t` one of `zero − 1`, `zero`, `zero +
/// 2^63 − 1` and `2^63 − 1`. Between two such crossings every flag is
/// constant, and the progression first lands between them at the point
/// just past the crossing it came through, so comparing the flags there
/// with the first point's decides it exactly.
fn steady_flags(x: u64, step: u64, periods: u64, sub: bool, imm: i32) -> u8 {
    let Some(last) = progression_end(x, step, periods) else { return 0 };
    let b = imm as i64 as u64;
    let flags_at = |v: u64| {
        let flags = if sub { Flags::from_sub(v, b) } else { Flags::from_add(v, b) };
        flags.to_bits() as u8
    };
    let first = flags_at(x);
    let zero = if sub { b } else { b.wrapping_neg() };
    const HALF: u64 = 1 << 63;
    let (lo, hi) = (x.min(last), x.max(last));
    let mut steady = flag_bits::ALL;
    for crossing in [zero.wrapping_sub(1), zero, zero.wrapping_add(HALF - 1), HALF - 1] {
        if crossing < lo || crossing >= hi {
            continue;
        }
        // The last progression point on the near side of the crossing,
        // then the first on the far side: moving down, the near point may
        // already be the crossing itself.
        let k = (i128::from(crossing) - i128::from(x)) / i128::from(step as i64);
        for k in [k, k + 1].into_iter().filter(|&k| k < i128::from(periods)) {
            let v = x.wrapping_add((k as u64).wrapping_mul(step));
            steady &= !(first ^ flags_at(v));
        }
    }
    steady
}

/// The registers and flag bits whose taint refutes a proof at `insn`,
/// beside its memory address: what decides where it goes or whether it
/// faults, and the values it stores or prints.
fn sinks(insn: &Instr, ops: &Operands) -> StateDiff {
    let mut sinks = StateDiff::EMPTY;
    match *insn {
        Instr::Jcc { cc, .. } => sinks.flags = cc.flag_uses(),
        Instr::Store { rs, .. }
        | Instr::StoreB { rs, .. }
        | Instr::Push { rs }
        | Instr::JmpR { rs }
        | Instr::CallR { rs }
        | Instr::AluRR { op: AluOp::Udiv, rs, .. } => sinks.regs.insert(rs),
        Instr::PushF => sinks.flags = flag_bits::ALL,
        // `svc 0`, `svc 1` and `svc 3` read r1: the exit code or the value
        // printed.
        Instr::Svc { .. } => sinks.regs = ops.uses,
        _ => {}
    }
    sinks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `steady_flags` by stepping every period.
    fn stepped(x: u64, step: u64, periods: u64, sub: bool, imm: i32) -> u8 {
        if progression_end(x, step, periods).is_none() {
            return 0;
        }
        let b = imm as i64 as u64;
        let flags_at = |k: u64| {
            let v = x.wrapping_add(k.wrapping_mul(step));
            let flags = if sub { Flags::from_sub(v, b) } else { Flags::from_add(v, b) };
            flags.to_bits() as u8
        };
        let first = flags_at(0);
        (0..periods).fold(flag_bits::ALL, |steady, k| steady & !(first ^ flags_at(k)))
    }

    #[test]
    fn steady_flags_match_stepping_every_period() {
        const HALF: u64 = 1 << 63;
        let mut rng = proptest::TestRng::deterministic("steady_flags_match_stepping_every_period");
        let imms = [0, 1, -1, 7, -7, 2000, i32::MAX, i32::MIN];
        let (mut steady, mut moving) = (0, 0);
        let steps = [1u64, 8, 3, 1000, (-1i64) as u64, (-8i64) as u64, (-13i64) as u64];
        for _ in 0..20_000 {
            let imm = imms[rng.below(imms.len() as u64) as usize];
            let sub = rng.below(2) == 0;
            let step = steps[rng.below(steps.len() as u64) as usize];
            let periods = 1 + rng.below(60);
            let b = imm as i64 as u64;
            let zero = if sub { b } else { b.wrapping_neg() };
            // Start near a crossing, so every flag gets a chance to change.
            let near = [0, HALF, zero, zero.wrapping_add(HALF), u64::MAX][rng.below(5) as usize];
            let x = near.wrapping_add(rng.below(200)).wrapping_sub(100);
            let want = stepped(x, step, periods, sub, imm);
            assert_eq!(
                steady_flags(x, step, periods, sub, imm),
                want,
                "{x:#x} {step:#x} {periods} {sub} {imm}"
            );
            if want == flag_bits::ALL {
                steady += 1;
            } else if progression_end(x, step, periods).is_some() {
                moving += 1;
            }
        }
        assert!(steady > 1000 && moving > 1000, "{steady} steady, {moving} moving");
    }
}
