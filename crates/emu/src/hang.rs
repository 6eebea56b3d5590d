//! Exact extrapolation of hung runs: a candidate period found while the
//! interpreter steps, and a one-period taint proof.
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
//!   A candidate is a return to the save point's pc, input cursor, stack
//!   pointer and memory contents, and V is the set of registers and NZCV
//!   bits that differ.
//! * **Proof** (a forward dependence slice; Weiser, ICSE 1981). One
//!   period is re-run from the save point on the interpreter with V
//!   tainted through [`Instr::operands`]. The proof fails when taint
//!   reaches anything that could make a later period run differently: a
//!   branch condition (the flag bits a `j<cc>` reads, a `jmpr`/`callr`
//!   target), a load, store or `cmp` address (`lea` only computes a
//!   value), `sp` at a stack operation, a stored or pushed value (a
//!   `pushf` of tainted flags included), an `svc` argument, or a `udiv`
//!   divisor. Taint left at the end of the period outside V joins V, and
//!   the slice runs again until V is a fixpoint.
//!
//! Why that suffices: two states that agree outside V run the period
//! along the same path, because every branch, address, stored value and
//! fault depends only on untainted state. They write the same memory and
//! the same output, and they end agreeing outside the taint left at the
//! end, which lies in V. The end of the proven period agrees with its
//! start outside V, so by induction every later period repeats it.

use crate::machine::{Machine, RunResult, Snapshot};
use crate::outcome::{Execution, RunOutcome};
use rr_isa::{flag_bits, AluOp, Instr, Operands, Reg, RegSet};

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
}

/// A proven period of a hung run: the run repeats it until its budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Period {
    steps: u64,
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
    pub fn extrapolate(&self, mut output: Vec<u8>, used: u64, budget: u64) -> Execution {
        let remaining = budget - used;
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
/// cycle finding) in pc, stop state, input, stack pointer and memory,
/// where only other registers and flag bits may differ. The proof re-runs
/// one period from the save point with those tainted, and holds when the
/// taint reaches no branch condition, memory address, stack operation,
/// stored, pushed or printed value, or `udiv` divisor, and settles.
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
/// let mut m = Machine::new(&exe, &[]);
/// let mut detector = HangDetector::default();
/// let result = m.run_detecting(1_000, &mut detector);
/// let period = detector.proof().expect("the loop provably repeats");
/// assert_eq!(period.steps(), 3);
/// let at_budget = period.extrapolate(m.take_output(), result.steps, 1_000_001);
/// assert_eq!(at_budget.outcome, RunOutcome::TimedOut);
/// assert_eq!(at_budget.output.len(), 333_334);
/// # Ok::<(), rr_asm::BuildError>(())
/// ```
#[derive(Debug, Default)]
pub struct HangDetector {
    /// The save point, and the step of the run it was taken at.
    save: Option<(Snapshot, u64)>,
    /// The distance from the save point at which it moves to the current
    /// state: 1, 2, 4, …
    reach: u64,
    /// Whether a proof from the current save point failed: its later
    /// candidates retrace the refuted path, so they are skipped.
    refuted: bool,
    /// Steps the proofs re-executed on the interpreter.
    proof_steps: u64,
    proof: Option<Period>,
}

impl HangDetector {
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
        if !self.refuted && distance > 0 && save.pc() == machine.pc() {
            if let Some(seed) = machine.register_diff(save) {
                let (proof, executed) = prove(save, distance, seed);
                self.proof_steps += executed;
                if proof.is_some() {
                    self.proof = proof;
                    return true;
                }
                self.refuted = true;
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
        self.refuted = false;
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
/// seeded from `seed` riding along, and proves the period if the slice
/// reaches no sink and settles. Returns the period, if proven, and the
/// steps executed.
fn prove(save: &Snapshot, steps: u64, seed: StateDiff) -> (Option<Period>, u64) {
    let mut machine = Machine::from_snapshot(save);
    let base = machine.output().len();
    let mut path = Vec::with_capacity(steps as usize);
    let mut output_after = Vec::with_capacity(steps as usize);
    let mut taint = seed;
    for _ in 0..steps {
        let Ok((insn, _)) = machine.fetch_decode() else { break };
        if !taint_step(&mut taint, &insn) {
            break;
        }
        path.push(insn);
        if machine.step().is_err() || machine.stopped().is_some() {
            break;
        }
        output_after.push(machine.output().len() - base);
    }
    if output_after.len() as u64 != steps {
        return (None, path.len() as u64);
    }
    // The first pass ran with the seed; grow it until the taint left at
    // the end of the period lies inside it.
    let mut seed = seed;
    while taint.union(seed) != seed {
        seed = seed.union(taint);
        taint = seed;
        if !path.iter().all(|insn| taint_step(&mut taint, insn)) {
            return (None, steps);
        }
    }
    let output = machine.output()[base..].to_vec();
    (Some(Period { steps, output, output_after }), steps)
}

/// Carries `taint` over `insn`: every def of an instruction that reads a
/// tainted register or flag bit is tainted, every other def is clean.
/// Returns `false` when taint reaches one of the instruction's sinks.
fn taint_step(taint: &mut StateDiff, insn: &Instr) -> bool {
    let ops = insn.operands();
    if taint.meets(sinks(insn, &ops)) {
        return false;
    }
    let defs = StateDiff { regs: ops.defs, flags: ops.flag_defs };
    if taint.meets(StateDiff { regs: ops.reads(), flags: ops.flag_uses }) {
        *taint = taint.union(defs);
    } else {
        taint.regs = taint.regs.minus(defs.regs);
        taint.flags &= !defs.flags;
    }
    true
}

/// The registers and flag bits whose taint refutes a proof at `insn`:
/// what decides where it goes, which memory it touches or whether it
/// faults, and the values it stores or prints.
fn sinks(insn: &Instr, ops: &Operands) -> StateDiff {
    let mut sinks = StateDiff::EMPTY;
    // An access or a jump target; the base of `lea` only computes a value.
    if let (Some(base), false) = (ops.address, matches!(insn, Instr::Lea { .. })) {
        sinks.regs.insert(base);
    }
    if let Instr::Jcc { cc, .. } = *insn {
        sinks.flags |= cc.flag_uses();
    }
    if let Instr::Store { rs, .. } | Instr::StoreB { rs, .. } | Instr::Push { rs } = *insn {
        sinks.regs.insert(rs);
    }
    if let Instr::PushF = insn {
        sinks.flags |= flag_bits::ALL;
    }
    if let Instr::Push { .. }
    | Instr::Pop { .. }
    | Instr::PushF
    | Instr::PopF
    | Instr::Call { .. }
    | Instr::CallR { .. }
    | Instr::Ret = insn
    {
        sinks.regs.insert(Reg::SP);
    }
    // `svc 0`, `svc 1` and `svc 3` read r1: the exit code or the value
    // printed.
    if let Instr::Svc { .. } = insn {
        sinks.regs = sinks.regs.union(ops.uses);
    }
    if let Instr::AluRR { op: AluOp::Udiv, rs, .. } = *insn {
        sinks.regs.insert(rs);
    }
    sinks
}
