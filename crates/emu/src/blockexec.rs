//! Block-cached execution: superblocks decoded once into micro-op
//! bodies, executed without per-step fetch/decode.
//!
//! [`Machine::step`] pays a code fetch against the COW page tables and a
//! decode on every instruction, even though replay campaigns execute the
//! same (unchanging) text millions of times. A [`BlockCache`] decodes
//! the executable's text into straight-line superblocks *once*, lowering
//! each instruction to its micro-op as it decodes it; the uop tier
//! ([`Machine::run_uops`]) then executes whole cached block bodies,
//! touching memory only for data.
//!
//! Soundness is by construction, not by trust:
//!
//! * cached micro-ops come from the **same bytes and the same decoder**
//!   ([`rr_isa::decode`] over the executable's text) the interpreter
//!   would use, through the one decode loop (`DecodedBlock::decode`)
//!   every block is built by;
//! * after every cached instruction the machine's PC is compared against
//!   the block's recorded next address — *any* control transfer (taken
//!   branch, call, fault, mid-block `svc` exit) leaves the block body
//!   and re-enters through the cache lookup, so blocks need no
//!   terminator special-casing;
//! * cached blocks overlapping an exec-dirty range
//!   ([`Memory::exec_dirty_intersects`](crate::Memory::exec_dirty_intersects))
//!   — code a fault injection poked — are not used: the run decodes a
//!   block of its own out of the machine's current bytes, through the
//!   same fetch ([`Memory::fetch`](crate::Memory::fetch)) and decoder
//!   the interpreter uses, and runs that instead. The same *local
//!   blocks* serve pcs no leader covers; all of them are dropped when
//!   the exec-dirty epoch moves, and a write that dirties text
//!   *mid-block* (a self-modifying store to a write+exec mapping) is
//!   caught by the per-step epoch check. Only a pc whose bytes do not
//!   fetch or decode — the crashing step — is left to the interpreter;
//! * step budgets are exact: the fence is checked before every cached
//!   instruction, so a fence landing mid-block stops precisely there.
//!
//! The result is bit-identical to stepping the interpreter — pinned by
//! the equivalence tests here and the engine/fault proptests upstream.

use crate::machine::Machine;
use crate::memory::PAGE_SIZE;
use crate::uop::{push_lowered, UopEntry};
use rr_isa::decode;
use rr_obj::Executable;
use std::collections::BTreeSet;
use std::ops::Range;

/// How a [`Machine::run_uops`] call split its work between micro-op
/// bodies and the interpreter, and what it decoded on the way.
/// Accumulate across calls and feed the totals to telemetry in one
/// batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Instructions executed by the plain interpreter: only pcs whose
    /// bytes do not fetch or decode, so each one is a crashing step.
    pub interp_steps: u64,
    /// Instructions executed from micro-op block bodies.
    pub uop_steps: u64,
    /// Blocks decoded out of the machine's own memory for pcs the shared
    /// [`BlockCache`] could not serve: rewritten code (a bit flip or a
    /// store into executable memory) and code no leader covers.
    pub blocks_redecoded: u64,
    /// Times the uop tier materialized the NZCV flags from a deferred
    /// flag-setting operation (consumer reads and block exits).
    pub flag_materializations: u64,
}

impl BlockStats {
    /// Total instructions executed under this accounting.
    pub fn total(&self) -> u64 {
        self.interp_steps + self.uop_steps
    }
}

/// One straight-line run of instructions, decoded into its micro-op
/// body: one slot per instruction, in address order.
#[derive(Debug, Clone)]
pub(crate) struct DecodedBlock {
    /// Address of the first instruction.
    pub(crate) start: u64,
    /// One past the last encoded byte (the exec-dirty probe range).
    pub(crate) end: u64,
    /// The micro-op body.
    pub(crate) uops: Vec<UopEntry>,
}

impl DecodedBlock {
    /// Decodes the straight-line run starting at `leader`, lowering each
    /// instruction to its micro-op as it goes: it ends after the first
    /// block terminator, at `limit`, or before the first pc whose bytes
    /// (`bytes_at(pc)`, `None` when nothing can be fetched there) do not
    /// decode. Returns `None` when not even the leader decodes. The one
    /// decode loop behind both [`BlockCache::build`] (over the
    /// executable's text) and [`LocalBlocks`] (over the machine's own
    /// memory).
    pub(crate) fn decode<'a>(
        leader: u64,
        limit: u64,
        mut bytes_at: impl FnMut(u64) -> Option<&'a [u8]>,
    ) -> Option<DecodedBlock> {
        let mut pc = leader;
        let mut uops = Vec::new();
        while pc < limit {
            let Some(Ok((insn, len))) = bytes_at(pc).map(decode) else { break };
            push_lowered(&mut uops, pc, insn, len);
            pc += len as u64;
            if insn.is_block_terminator() {
                break;
            }
        }
        if uops.is_empty() {
            return None;
        }
        Some(DecodedBlock { start: leader, end: pc, uops })
    }
}

/// Superblocks decoded into micro-op bodies over an executable's text,
/// built once per session and shared (behind an `Arc`) by every replay
/// that executes the same binary.
///
/// # Example
///
/// ```
/// use rr_asm::assemble_and_link;
/// use rr_emu::{BlockCache, BlockStats, Machine, RunOutcome};
///
/// let exe = assemble_and_link(
///     "    .global _start\n_start:\n    mov r1, 41\n    add r1, 1\n    svc 0\n",
/// )?;
/// let cache = BlockCache::build(&exe, [exe.entry]).expect("text decodes");
/// let mut m = Machine::new(&exe, &[]);
/// let mut stats = BlockStats::default();
/// let result = m.run_uops(&cache, 1_000, &mut stats);
/// assert_eq!(result.outcome, RunOutcome::Exited { code: 42 });
/// assert_eq!(stats.uop_steps, 3);
/// assert_eq!(stats.interp_steps, 0);
/// # Ok::<(), rr_asm::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockCache {
    /// Start address of the decoded text.
    text_start: u64,
    /// The text bytes the blocks were decoded from — callers compare
    /// against a rebuilt binary's text to decide whether the cache can
    /// be carried across a rewrite verbatim.
    text: Vec<u8>,
    blocks: Vec<DecodedBlock>,
    /// Per text byte: index into `blocks` when the byte starts an
    /// instruction of a decoded block, else `u32::MAX`.
    block_of: Vec<u32>,
    /// Parallel to `block_of`: the instruction's index within its block.
    instr_of: Vec<u32>,
}

impl BlockCache {
    /// Decodes the text of `exe` into superblocks starting at `leaders`
    /// (block entry addresses — typically the CFG's basic-block starts;
    /// addresses outside the text are ignored). Each block extends until
    /// a block-terminating instruction, the next leader, or the end of
    /// text. Undecodable leader runs are skipped ([`Machine::run_uops`]
    /// decodes those addresses out of the machine's memory if execution
    /// reaches them); returns `None` when nothing decodes.
    ///
    /// Entering a block *mid-body* is supported: every decoded
    /// instruction start is indexed, so a branch target inside a
    /// superblock executes the cached tail from that point.
    pub fn build(exe: &Executable, leaders: impl IntoIterator<Item = u64>) -> Option<BlockCache> {
        let text_start = exe.text_range().start;
        let text = exe.text_bytes().to_vec();
        let text_end = text_start + text.len() as u64;
        let sorted: BTreeSet<u64> =
            leaders.into_iter().filter(|&a| a >= text_start && a < text_end).collect();
        let mut blocks = Vec::new();
        let mut block_of = vec![u32::MAX; text.len()];
        let mut instr_of = vec![u32::MAX; text.len()];
        let text_at = |pc: u64| text.get(usize::try_from(pc - text_start).ok()?..);
        let mut iter = sorted.iter().peekable();
        while let Some(&leader) = iter.next() {
            let limit = iter.peek().map_or(text_end, |&&next| next);
            let Some(block) = DecodedBlock::decode(leader, limit, text_at) else { continue };
            let index = u32::try_from(blocks.len()).ok()?;
            for (i, uop) in block.uops.iter().enumerate() {
                block_of[(uop.pc - text_start) as usize] = index;
                instr_of[(uop.pc - text_start) as usize] = i as u32;
            }
            blocks.push(block);
        }
        if blocks.is_empty() {
            return None;
        }
        Some(BlockCache { text_start, text, blocks, block_of, instr_of })
    }

    /// Number of decoded superblocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total decoded instructions across all blocks.
    pub fn decoded_instrs(&self) -> u64 {
        self.blocks.iter().map(|b| b.uops.len() as u64).sum()
    }

    /// Start address of the decoded text.
    pub fn text_start(&self) -> u64 {
        self.text_start
    }

    /// The exact text bytes the blocks were decoded from.
    pub fn text_bytes(&self) -> &[u8] {
        &self.text
    }

    /// Byte ranges of the decoded blocks (for invalidation accounting
    /// against a rewrite's listing delta).
    pub fn block_ranges(&self) -> impl Iterator<Item = Range<u64>> + '_ {
        self.blocks.iter().map(|b| b.start..b.end)
    }

    /// The block containing an instruction that starts at `pc`, and the
    /// instruction's index within it.
    pub(crate) fn lookup(&self, pc: u64) -> Option<(&DecodedBlock, usize)> {
        let off = usize::try_from(pc.checked_sub(self.text_start)?).ok()?;
        let block = *self.block_of.get(off)?;
        if block == u32::MAX {
            return None;
        }
        Some((&self.blocks[block as usize], self.instr_of[off] as usize))
    }
}

/// The blocks one [`Machine::run_uops`] call decodes out of the
/// machine's own memory, for pcs the shared [`BlockCache`] cannot serve:
/// code a fault injection or a store rewrote (its shared block overlaps
/// an exec-dirty range), and code no leader covers. They run exactly
/// like shared blocks. Every one of them is dropped when the
/// exec-dirty epoch moves, since a new write may have made any of them
/// stale.
#[derive(Debug, Default)]
pub(crate) struct LocalBlocks {
    /// The [`Memory::exec_dirty_epoch`](crate::Memory::exec_dirty_epoch)
    /// the blocks were decoded at.
    epoch: usize,
    blocks: Vec<DecodedBlock>,
}

impl LocalBlocks {
    /// The local block holding an instruction that starts at the
    /// machine's pc, and the instruction's index within it, decoding a
    /// new block from the machine's memory when none holds the pc.
    /// `None` when the bytes at the pc do not fetch or decode.
    pub(crate) fn lookup_or_decode(
        &mut self,
        machine: &Machine,
        stats: &mut BlockStats,
    ) -> Option<(&DecodedBlock, usize)> {
        let epoch = machine.memory().exec_dirty_epoch();
        if epoch != self.epoch {
            self.blocks.clear();
            self.epoch = epoch;
        }
        let pc = machine.pc();
        let held = self.blocks.iter().enumerate().find_map(|(i, block)| {
            if pc < block.start || pc >= block.end {
                return None;
            }
            Some((i, block.uops.binary_search_by_key(&pc, |uop| uop.pc).ok()?))
        });
        let (index, entry) = match held {
            Some(found) => found,
            None => {
                // A local block ends with its page: a jump into a long
                // straight-line stretch (a zero-filled executable tail
                // decodes as a `nop` sled) then decodes at most a page
                // ahead of execution, not to the end of the mapping.
                let page_end = (pc | (PAGE_SIZE as u64 - 1)).saturating_add(1);
                let block = DecodedBlock::decode(pc, page_end, |at| machine.code_bytes(at).ok())?;
                stats.blocks_redecoded += 1;
                self.blocks.push(block);
                (self.blocks.len() - 1, 0)
            }
        };
        Some((&self.blocks[index], entry))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::machine::RunResult;
    use crate::RunOutcome;
    use rr_asm::assemble_and_link;
    use rr_isa::Instr;
    use rr_obj::SectionKind;

    /// A small program with a loop, a call, branches, and output.
    const LOOPY: &str = "    .global _start\n\
         _start:\n\
             mov r2, 5\n\
         .loop:\n\
             mov r1, r2\n\
             call emit\n\
             sub r2, 1\n\
             cmp r2, 0\n\
             jne .loop\n\
             mov r1, 0\n\
             svc 0\n\
         emit:\n\
             add r1, '0'\n\
             svc 1\n\
             ret\n";

    /// The entry block only: `emit` and the exit tail run from blocks
    /// decoded out of the machine's memory.
    fn cache_for(exe: &Executable) -> BlockCache {
        BlockCache::build(exe, [exe.entry]).expect("text decodes")
    }

    /// Every instruction of `exe`'s text with its address and encoded
    /// length, by a linear sweep (the test programs keep no data in
    /// their text).
    pub(crate) fn text_instrs(exe: &Executable) -> Vec<(u64, Instr, usize)> {
        let text = exe.text_range();
        let mut instrs = Vec::new();
        let mut pc = text.start;
        while pc < text.end {
            let off = (pc - text.start) as usize;
            let (insn, len) = decode(&exe.text_bytes()[off..]).expect("the text is all code");
            instrs.push((pc, insn, len));
            pc += len as u64;
        }
        instrs
    }

    fn interp_reference(exe: &Executable, input: &[u8], max_steps: u64) -> (RunResult, Machine) {
        let mut m = Machine::new(exe, input);
        let r = m.run(max_steps);
        (r, m)
    }

    #[test]
    fn block_execution_matches_interpreter_exactly() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let (reference, mut ref_machine) = interp_reference(&exe, &[], 10_000);

        let cache = cache_for(&exe);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        let result = m.run_uops(&cache, 10_000, &mut stats);

        assert_eq!(result, reference);
        assert_eq!(m.pc(), ref_machine.pc());
        assert_eq!(m.flags(), ref_machine.flags());
        assert_eq!(m.take_output(), ref_machine.take_output());
        assert_eq!(m.memory_stats(), ref_machine.memory_stats());
        assert_eq!(stats.uop_steps, result.steps, "every step runs as a uop: {stats:?}");
    }

    #[test]
    fn poked_code_runs_from_redecoded_blocks() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        // Corrupt the `sub r2, 1` update the way a bit-flip fault model
        // would, in both machines: the immediate becomes 5, so the loop
        // prints once and exits. The rewritten code still decodes, so it
        // runs from blocks decoded out of the machine's own bytes and
        // nothing is interpreted.
        let (sub, ..) = text_instrs(&exe)
            .into_iter()
            .find(|&(_, insn, _)| matches!(insn, Instr::AluRI { op: rr_isa::AluOp::Sub, .. }))
            .expect("LOOPY decrements its counter");
        let imm = sub + 2;
        let mut reference = Machine::new(&exe, &[]);
        let mut blocked = Machine::new(&exe, &[]);
        for m in [&mut reference, &mut blocked] {
            let byte = m.peek_bytes(imm, 1).unwrap()[0];
            assert!(m.poke_bytes(imm, &[byte ^ 0x04]));
        }
        let want = reference.run(10_000);
        let mut stats = BlockStats::default();
        let got = blocked.run_uops(&cache, 10_000, &mut stats);
        assert_eq!(got, want);
        assert_eq!(blocked.pc(), reference.pc());
        assert_eq!(blocked.flags(), reference.flags());
        assert_eq!(blocked.output(), b"5", "the poked immediate ran");
        assert_eq!(blocked.take_output(), reference.take_output());
        assert_eq!(stats.interp_steps, 0, "rewritten code that decodes is not interpreted");
        assert!(stats.blocks_redecoded > 0, "{stats:?}");
        assert_eq!(stats.total(), got.steps);
    }

    #[test]
    fn control_flow_outside_the_cache_is_interpreted() {
        // Indirect jump into .data: the cache has no block there and,
        // the data not being executable, no block decodes there either.
        // The interpreter raises the fetch fault, and the crash taxonomy
        // must match its own.
        let src = "    .global _start\n\
             _start:\n\
                 mov r1, target\n\
                 jmpr r1\n\
                 .data\n\
             target:\n\
                 .quad 0\n";
        let exe = assemble_and_link(src).unwrap();
        let cache = cache_for(&exe);
        let (reference, _) = interp_reference(&exe, &[], 100);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        let result = m.run_uops(&cache, 100, &mut stats);
        assert_eq!(result, reference);
        assert_eq!(stats.interp_steps, 1, "only the crashing fetch: {stats:?}");
    }

    #[test]
    fn local_blocks_stop_at_the_end_of_their_page() {
        // The text runs on into a 1 MiB zero-filled executable tail, which
        // decodes as a `nop` sled: each local block decoded there must end
        // with its page instead of running to the end of the mapping.
        let mut exe = assemble_and_link("    .global _start\n_start:\n    nop\n").unwrap();
        let text = exe.segments.iter_mut().find(|seg| seg.section == SectionKind::Text).unwrap();
        text.mem_size += 1 << 20;
        let cache = cache_for(&exe);
        let (reference, _) = interp_reference(&exe, &[], 10_000);
        assert_eq!(reference.outcome, RunOutcome::TimedOut);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        assert_eq!(m.run_uops(&cache, 10_000, &mut stats), reference);
        assert_eq!(stats.uop_steps, 10_000, "{stats:?}");
        assert!(stats.blocks_redecoded >= 10_000 / PAGE_SIZE as u64, "{stats:?}");
    }

    #[test]
    fn extra_and_bogus_leaders_do_not_change_semantics() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let range = exe.text_range();
        // Every text byte as a leader: non-instruction offsets decode
        // garbage or fail, but execution must still be exact because
        // every executed instruction is PC-checked.
        let cache = BlockCache::build(&exe, range.clone().chain([exe.entry])).expect("builds");
        let (reference, _) = interp_reference(&exe, &[], 10_000);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        assert_eq!(m.run_uops(&cache, 10_000, &mut stats), reference);
        // Leaders entirely outside the text build nothing.
        assert!(BlockCache::build(&exe, [range.end + 0x1000]).is_none());
    }

    #[test]
    fn cache_metadata_reflects_the_decoded_text() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        assert!(cache.block_count() >= 1);
        assert!(cache.decoded_instrs() >= 6);
        assert_eq!(cache.text_start(), exe.text_range().start);
        assert_eq!(cache.text_bytes(), exe.text_bytes());
        for range in cache.block_ranges() {
            assert!(range.start >= cache.text_start());
            assert!(range.end <= cache.text_start() + cache.text_bytes().len() as u64);
        }
    }
}
