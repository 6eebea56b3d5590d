//! # rr-isa — the RRVM instruction set architecture
//!
//! RRVM is the 64-bit register machine that this workspace rewrites and
//! hardens against fault injection. It plays the role that x86-64 plays in
//! the paper *Rewrite to Reinforce* (DAC 2021): a target with a
//! variable-length instruction encoding (1–10 bytes), condition flags, a
//! `pushf`/`popf` pair, and `set<cc>` — exactly the ingredients the paper's
//! local protection patterns (Tables I–III) rely on.
//!
//! The crate is purely a *model*: it defines [`Instr`], the sixteen
//! general-purpose [`Reg`]isters, the NZCV [`Flags`], the condition codes
//! [`Cond`], and a bijective binary [`encode`]/[`decode`] pair. Execution
//! lives in `rr-emu`, the object format in `rr-obj`.
//!
//! It also holds the one operand table ([`Instr::operands`]): the
//! registers ([`RegSet`]) and flag bits ([`flag_bits`]) each instruction
//! reads and writes, and the data memory each one accesses
//! ([`Instr::mem_access`]), exact against `rr-emu`'s interpreter. Static
//! pruning, the patcher's liveness and the symbolizer all read it, each
//! adding its own policy for calls, returns and services.
//!
//! A variable-length encoding matters for fault-injection research: a single
//! bit flip can change an instruction's *length*, desynchronizing the decode
//! of everything after it — the same behaviour that makes rewriting x86-64
//! binaries delicate.
//!
//! ## Example
//!
//! ```
//! use rr_isa::{Instr, Reg, decode, encode_to_vec};
//!
//! # fn main() -> Result<(), rr_isa::DecodeError> {
//! let insn = Instr::MovRI { rd: Reg::R1, imm: 42 };
//! let bytes = encode_to_vec(&insn);
//! let (decoded, len) = decode(&bytes)?;
//! assert_eq!(decoded, insn);
//! assert_eq!(len, bytes.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod cond;
mod decode;
mod display;
mod encode;
mod flags;
mod insn;
pub mod opcode;
mod operands;
mod reg;
mod regset;

pub use cond::Cond;
pub use decode::{decode, DecodeError};
pub use encode::{encode, encode_to_vec, encoded_len};
pub use flags::Flags;
pub use insn::{AluOp, Instr, InstrKind, ShiftOp};
pub use operands::{MemAccess, Operands};
pub use reg::{ParseRegError, Reg};
pub use regset::{flag_bits, RegSet};

/// Base address at which `.text` is loaded by the linker and emulator.
pub const TEXT_BASE: u64 = 0x1000;

/// Initial stack pointer; the stack grows towards lower addresses.
pub const STACK_TOP: u64 = 0x4000_0000;

/// Size of the stack region reserved below [`STACK_TOP`].
pub const STACK_SIZE: u64 = 0x10_0000;

/// Longest possible RRVM instruction in bytes (`mov rd, imm64`).
pub const MAX_INSTR_LEN: usize = 10;
