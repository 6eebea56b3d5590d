//! # rr-emu — the RRVM emulator
//!
//! An instruction-accurate interpreter for linked [`rr_obj::Executable`]s.
//! It plays the role Qiling/Unicorn play in the paper: the substrate the
//! *faulter* drives to (1) record execution traces and (2) observe how the
//! program behaves after a fault — normal exit, wrong output, or one of the
//! crash outcomes in [`CpuFault`].
//!
//! Design points relevant to fault injection:
//!
//! * **Physical access** — [`Machine::poke_bytes`] writes memory ignoring
//!   permissions, modelling a hardware glitch that flips bits in the
//!   instruction stream (the "single bit flip" fault model).
//! * **Skip** — [`Machine::skip_instruction`] advances the program counter
//!   over the current instruction (the "instruction skip" fault model).
//! * **Crash taxonomy** — decode errors, permission violations, unmapped
//!   accesses, division by zero and runaway execution are all distinct
//!   outcomes, because campaigns classify faults by them.
//!
//! ## Execution tiers
//!
//! Two tiers share one observable behaviour. [`Machine::run`] is the
//! instruction-at-a-time interpreter, kept as the reference oracle.
//! [`Machine::run_uops`] is the accelerated tier: it executes superblocks
//! from a [`BlockCache`], each decoded once straight into a flat micro-op
//! body — pre-extracted operands, fused compare-and-branch pairs, lazy
//! NZCV materialization — with no fetch/decode on the hot path. Flags
//! are recomputed only when a consumer or a block exit reads them, so
//! architectural state is exact at every observable point. The cache's
//! block leaders come from one linear sweep of `.text`
//! ([`BlockCache::for_executable`]). Code the cache cannot serve
//! (rewritten by a fault or a store, or a pc the sweep did not reach as
//! an instruction start) runs from blocks the call decodes out of the
//! machine's own memory the same way. Both tiers are bit-identical; the
//! uop tier is the default for replay campaigns.
//!
//! The interpreter can watch a run for a provable hang
//! ([`Machine::run_detecting`]): a [`HangDetector`] finds a candidate
//! period before every step and proves it with a one-period taint slice
//! that follows counting registers and a growing stack up to the step
//! budget, and [`Period::extrapolate`] then gives the run's behaviour at
//! that budget without executing it.
//!
//! A faulted run that rejoins a golden recording is compared with the
//! golden snapshot on its live state alone ([`Machine::same_live_state`]):
//! pc, stop state, input and executable memory in full, and of the
//! registers, NZCV bits and memory words only those the golden run reads
//! from there on before overwriting them.
//!
//! ## Program I/O
//!
//! Programs talk to the runtime through `svc`:
//!
//! | `svc n` | service                                            |
//! |---------|----------------------------------------------------|
//! | 0       | exit with code in `r1`                             |
//! | 1       | write low byte of `r1` to the output stream        |
//! | 2       | read one input byte into `r0` (`u64::MAX` on EOF)  |
//! | 3       | write `r1` to output as decimal text               |
//!
//! ## Example
//!
//! ```
//! use rr_asm::assemble_and_link;
//! use rr_emu::{Machine, RunOutcome};
//!
//! let exe = assemble_and_link(
//!     "    .global _start\n_start:\n    mov r1, 41\n    add r1, 1\n    svc 0\n",
//! )?;
//! let mut m = Machine::new(&exe, &[]);
//! let result = m.run(1_000);
//! assert_eq!(result.outcome, RunOutcome::Exited { code: 42 });
//! # Ok::<(), rr_asm::BuildError>(())
//! ```

#![forbid(unsafe_code)]

mod blockexec;
mod hang;
mod machine;
mod memory;
mod outcome;
mod uop;

pub use blockexec::{BlockCache, BlockStats};
pub use hang::{HangDetector, Period};
pub use machine::{Machine, RunResult, Snapshot, DEFAULT_MAX_STEPS};
pub use memory::{
    AccessKind, MemResult, Memory, MemoryDelta, MemoryStats, PAGE_SIZE, STRADDLE_TAIL,
};
pub use outcome::{CpuFault, Execution, RunOutcome};

use rr_obj::Executable;

/// Runs `exe` to completion on `input` and captures everything a behaviour
/// oracle needs: outcome, output bytes, and step count.
///
/// This is the one-shot convenience used throughout the fault campaigns;
/// construct a [`Machine`] directly when you need stepping or tracing.
///
/// # Example
///
/// ```
/// use rr_asm::assemble_and_link;
/// use rr_emu::{execute, RunOutcome};
///
/// let exe = assemble_and_link(
///     "    .global _start\n_start:\n    svc 2\n    mov r1, r0\n    svc 1\n    mov r1, 0\n    svc 0\n",
/// )?;
/// let exec = execute(&exe, b"X", 1_000);
/// assert_eq!(exec.outcome, RunOutcome::Exited { code: 0 });
/// assert_eq!(exec.output, b"X");
/// # Ok::<(), rr_asm::BuildError>(())
/// ```
pub fn execute(exe: &Executable, input: &[u8], max_steps: u64) -> Execution {
    let mut machine = Machine::new(exe, input);
    let result = machine.run(max_steps);
    Execution { outcome: result.outcome, output: machine.take_output(), steps: result.steps }
}

/// Like [`execute`], but also records the program counter of every executed
/// instruction — the *trace* the faulter enumerates fault sites from.
pub fn execute_traced(exe: &Executable, input: &[u8], max_steps: u64) -> (Execution, Vec<u64>) {
    let mut machine = Machine::new(exe, input);
    let mut trace = Vec::new();
    let result = machine.run_with(max_steps, |m| trace.push(m.pc()));
    (
        Execution { outcome: result.outcome, output: machine.take_output(), steps: result.steps },
        trace,
    )
}
