//! # rr-core — end-to-end binary-hardening pipelines
//!
//! The top of the workspace reproducing *Rewrite to Reinforce: Rewriting
//! the Binary to Apply Countermeasures against Fault Injection* (DAC
//! 2021): one crate that wires the substrates together into the paper's
//! two rewriting approaches and the drivers that regenerate its
//! evaluation.
//!
//! * **Faulter+Patcher** (§IV-B): re-exported from `rr-patch` as
//!   [`FaulterPatcher`] — fault-simulation-driven, targeted patching on
//!   reassembleable disassembly.
//! * **Hybrid** (§IV-C): [`harden_hybrid`] — lift to RRIR, run the
//!   conditional-branch-hardening pass (plus optional optimizations),
//!   lower back to a binary.
//!
//! The [`experiments`] module computes every table and figure of the
//! paper's evaluation; the `rr-bench` binaries print them.
//!
//! ## Example: harden a pincheck binary both ways
//!
//! ```no_run
//! use rr_core::{harden_hybrid, FaulterPatcher, HybridConfig};
//! use rr_fault::InstructionSkip;
//!
//! let w = rr_workloads::pincheck();
//! let exe = w.build()?;
//!
//! // Approach 1: iterative, targeted.
//! let driver = FaulterPatcher::default();
//! let targeted = driver.harden(&exe, &w.good_input, &w.bad_input, &InstructionSkip)?;
//! println!("faulter+patcher overhead: {:.1}%", targeted.overhead_percent());
//!
//! // Approach 2: lift, transform, lower.
//! let hybrid = harden_hybrid(&exe, &HybridConfig::default())?;
//! println!("hybrid overhead: {:.1}%", hybrid.overhead_percent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
mod pipeline;

pub use pipeline::{
    harden_hybrid, harden_hybrid_verified, lift_lower_roundtrip, HybridConfig, HybridError,
    HybridOutcome, VerifiedHybridOutcome,
};
pub use rr_patch::{FaulterPatcher, HardenConfig, HardenError, LoopOutcome};
