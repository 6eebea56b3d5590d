//! # rr-engine — checkpointed replay and campaign scheduling
//!
//! Fault-injection campaigns replay one golden execution thousands of
//! times: once per candidate fault, each time up to the injection step.
//! Replaying from step 0 makes a campaign over a `T`-step trace cost
//! O(T²) emulated instructions, which caps tractable trace lengths.
//!
//! This crate removes that bound with the classic snapshot-then-resume
//! structure (the same shape lifter runtimes use to fork cheap execution
//! states from one expensive setup):
//!
//! * [`ReplayEngine`] records one pass over the golden run, capturing a
//!   [`rr_emu::Snapshot`] every `k` steps on one adaptive schedule that
//!   lands `k` near √T without knowing T in advance. Restoring a machine
//!   at an arbitrary trace step then costs O(touched pages) for the
//!   snapshot plus at most `k` forward steps — O(T·√T) for a whole
//!   exhaustive campaign instead of O(T²). [`ReplayEngine::run`]
//!   executes those steps, and any continuation a consumer runs from a
//!   restored machine, on the tier the recording ran on
//!   ([`ReplayConfig::exec`]). On the uop tier the recording decodes the
//!   executable's text into the block cache it owns
//!   ([`rr_emu::BlockCache::for_executable`]), so every run of the
//!   recording shares one set of micro-op bodies.
//! * A faulted run can stop early where it rejoins the recording.
//!   [`ReplayEngine::checkpoints_from`] lists the retained checkpoints,
//!   and [`ReplayEngine::rejoins`] decides whether a machine at one runs
//!   on exactly as the recording did: it must hold the checkpoint's pc,
//!   stop state, input cursor and executable memory, and every register,
//!   NZCV bit and memory word the recorded run reads from there on
//!   before overwriting it. The recording derives those reads once, in
//!   one interpreter pass, when it records snapshots and its run exits.
//! * [`shard`] provides the parallel scheduler, [`shard::run_bucketed`]:
//!   work items grouped by the checkpoint they restore from, so each
//!   group pays one restore, dealt to OS threads by work stealing and
//!   collected in item order.
//!
//! Snapshots are copy-on-write at *page* granularity
//! ([`rr_emu::Memory`] shares fixed 4 KiB pages, and a page never
//! written reads as a shared zero page with no page-table entry, while a
//! read stays one index), so a checkpoint pays only for the bytes its
//! interval actually dirtied — a stack-writing interval retains the
//! few stack pages it touched, not the whole 1 MiB region — and worker
//! threads restore from the same snapshots concurrently without
//! copying. Retention is budgeted in those terms, and that budget is the
//! only retention setting: [`ReplayConfig::max_retained_bytes`] bounds
//! the summed dirtied-page deltas between consecutive checkpoints
//! (widening the interval when exceeded), [`ReplayEngine::footprint`]
//! reports them, and [`ReplayConfig::record_snapshots`] lets naive-only
//! consumers skip snapshot capture entirely.
//!
//! The campaign-level integration lives in `rr-fault`
//! (`CampaignSession`); this crate stays independent of fault models so
//! it can serve any replay-heavy consumer (differential testing, trace
//! bisection, time-travel debugging).
//!
//! ## Example
//!
//! ```
//! use rr_asm::assemble_and_link;
//! use rr_engine::{ReplayConfig, ReplayEngine};
//!
//! let exe = assemble_and_link(
//!     "    .global _start\n_start:\n    mov r1, 3\n.loop:\n    sub r1, 1\n    cmp r1, 0\n    jne .loop\n    svc 0\n",
//! )?;
//! let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
//! // A machine about to execute trace step 5, without replaying 0..5
//! // from scratch when a checkpoint is closer.
//! let machine = engine.machine_at(5)?;
//! assert_eq!(machine.pc(), engine.trace()[5]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod live;
mod replay;
pub mod shard;

pub use replay::{Checkpoint, ExecMode, ReplayConfig, ReplayEngine, ReplayError, ReplayFootprint};
