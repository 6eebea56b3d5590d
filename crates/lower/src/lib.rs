//! # rr-lower — lowering RRIR back to RRVM executables
//!
//! The back end of the Hybrid rewriting approach (paper §IV-C step 3) and
//! the `llc` stand-in: compiles an [`rr_lift::LiftedProgram`] — or any
//! valid RRIR [`rr_ir::Module`] plus data sections — into a runnable
//! [`rr_obj::Executable`].
//!
//! ## Code generation model
//!
//! Following Rev.ng's recompilation strategy, the *architectural* state of
//! the lifted program (its [`rr_ir::Cell`]s) is materialized in **memory**
//! (`__rr_cells` in `.bss`), leaving the real machine registers free for
//! the generated code:
//!
//! * `r13` — cells base pointer (set once by the entry stub),
//! * `r6`, `r7` — code-generator temporaries,
//! * `sp` — the *native* stack, hosting one frame of spill slots per
//!   function (every SSA value gets a slot); the lifted program's own
//!   stack ("virtual stack", reached through cell `r15`) stays at the
//!   original [`rr_isa::STACK_TOP`] so its memory behaviour is preserved.
//!
//! The generated `_start` stub initializes the native stack (a `.bss`
//! arena), the cells base, and the virtual stack pointer, then calls the
//! lifted entry function.
//!
//! This simple slot-based allocation is deliberate: it reproduces the
//! paper's observation that "the mere act of lifting the binary … and
//! translating it back adds extra overhead" (§IV-D). The
//! `rr_ir::passes::PromoteCells`/`DeadCodeElimination` pipeline recovers
//! part of it, which the benches quantify.
//!
//! ## Example
//!
//! ```
//! use rr_asm::assemble_and_link;
//! use rr_emu::execute;
//!
//! let exe = assemble_and_link(
//!     "    .global _start\n_start:\n    mov r1, 5\n    add r1, 2\n    svc 0\n",
//! )?;
//! let lifted = rr_lift::lift(&exe)?;
//! let relowered = rr_lower::compile(&lifted)?;
//! let a = execute(&exe, &[], 100_000);
//! let b = execute(&relowered, &[], 1_000_000);
//! assert!(a.same_behavior(&b));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod codegen;

pub use codegen::{compile, emit_listing, LowerError};
