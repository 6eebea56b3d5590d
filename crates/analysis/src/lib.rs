//! # rr-analysis — static fault-effect analysis
//!
//! Classic dataflow over the CFG that [`rr_disasm::build_functions`]
//! recovers: backward register **and per-bit NZCV flag** may-liveness at
//! instruction granularity, plus forward reaching definitions of the
//! flags per basic block, with conservative call/indirect handling. What
//! each instruction reads and writes comes from `rr-isa`'s operand table
//! ([`rr_isa::Instr::operands`]), which is exact against the
//! interpreter; this crate adds only its policy for calls, returns,
//! indirect jumps and services. On
//! top of it, a [`StaticVerdict`] for every fault effect the campaign
//! models in `rr-fault` emit — instruction skip, instruction-encoding
//! bit flip, register bit flip, flag flip — so provably-benign faults
//! can be pruned from a campaign's plan space *before* any replay time
//! is spent, and an [`AnalysisReport`] (`rr analyze`) that triages a
//! binary without executing it.
//!
//! ## Verdict semantics and soundness
//!
//! The campaign oracles observe *behaviour* only: final outcome plus
//! emitted output (`rr-emu`'s `Execution`, compared ignoring step
//! counts). A verdict of [`StaticVerdict::Benign`] therefore means: the
//! effect perturbs only machine state that is **dead on every path** —
//! registers/flags never read before being overwritten — and has no
//! memory, control-flow, stack, or service side effect. Such a fault
//! leaves the execution path, all stores, and all output byte-for-byte
//! identical, so *every* behaviour-observing oracle classifies it
//! `Benign`. Multi-fault plans compose: each statically-benign injection
//! preserves the invariant "state differs from the unfaulted run only in
//! currently-dead locations", because liveness proofs are path-universal
//! and a skipped dead definition leaves its target dead by the skip's own
//! dead-after requirement. Anything the analysis cannot prove is
//! [`StaticVerdict::Unknown`] and must be evaluated dynamically — the
//! analysis never claims a fault *matters*, only that some provably
//! cannot. Two standing assumptions, cross-checked dynamically by the
//! campaign's `--audit-analysis` mode: programs do not read their own
//! code as data (instruction-bit-flip verdicts mutate text bytes), and
//! conservative uses at calls/returns/indirect jumps (everything live)
//! cover all interprocedural flow.
//!
//! ## Example
//!
//! ```
//! use rr_analysis::{Analysis, StaticVerdict};
//! use rr_isa::Reg;
//!
//! let exe = rr_asm::assemble_and_link(
//!     "    .global _start\n\
//!      _start:\n\
//!          mov r6, 1\n\
//!          mov r6, 2\n\
//!          mov r1, r6\n\
//!          svc 0\n",
//! )?;
//! let analysis = Analysis::from_executable(&exe)?;
//! // The first write to r6 is dead (overwritten before any read):
//! // skipping it, or flipping r6 just before it, cannot change behaviour.
//! assert_eq!(analysis.skip_verdict(exe.entry), StaticVerdict::Benign);
//! assert_eq!(analysis.reg_flip_verdict(exe.entry, Reg::R6), StaticVerdict::Benign);
//! // The second write feeds the exit code — nothing is provable there.
//! let second = exe.entry + 10; // `mov r6, 1` encodes in 10 bytes
//! assert_eq!(analysis.skip_verdict(second), StaticVerdict::Unknown);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod analysis;
mod dataflow;
mod report;

pub use analysis::{Analysis, StaticVerdict};
pub use dataflow::{solve_live_regs, solve_liveness, LiveNode, LiveSet, LiveState};
pub use report::{AnalysisReport, EffectCounts, FunctionReport, PrunableStats};
