//! # rr-harden — IR-level countermeasure passes
//!
//! The countermeasures of the Hybrid rewriting approach, implemented as
//! [`rr_ir::Pass`]es over RRIR (the paper's "optimization pass in the LLVM
//! tool-chain", §V-B):
//!
//! * [`BranchHardening`] — the paper's **conditional branch hardening**:
//!   every basic block gets a compile-time UID; each conditional branch
//!   computes a run-time checksum `h(UIDsrc, UIDdst, cmp_res)` (Algorithm
//!   1: `checksum = (¬mask ∧ constTdst) ∨ (mask ∧ constFdst)` with
//!   `mask = zext(cmp_res) − 1`), **twice**, re-evaluates the comparison
//!   for the transfer itself, and validates both checksum copies in
//!   nested validation blocks on *both* destinations (Fig. 5), diverting
//!   to a fault-response block on mismatch. An attacker must corrupt both
//!   comparison evaluations identically to slip through.
//!
//! ## Example
//!
//! ```no_run
//! use rr_harden::BranchHardening;
//! use rr_ir::PassManager;
//!
//! let w = rr_workloads::pincheck();
//! let exe = w.build()?;
//! let mut lifted = rr_lift::lift(&exe)?;
//! let mut pm = PassManager::new();
//! pm.add(BranchHardening::default());
//! pm.run(&mut lifted.module).map_err(|(p, e)| format!("{p}: {e}"))?;
//! let hardened = rr_lower::compile(&lifted)?;
//! # let _ = hardened;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod branch;

pub use branch::{BranchHardening, HardeningReport};
