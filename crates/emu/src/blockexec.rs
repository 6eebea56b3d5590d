//! Block-cached execution: basic blocks pre-decoded once, executed
//! without per-step fetch/decode.
//!
//! [`Machine::step`] pays a code fetch against the COW page tables and a
//! decode on every instruction, even though replay campaigns execute the
//! same (unchanging) text millions of times. A [`BlockCache`] decodes
//! the executable's text into straight-line superblocks *once*; the uop
//! tier ([`Machine::run_uops`]) then executes whole cached block bodies
//! via the pre-decoded instructions, touching memory only for data,
//! until a block turns hot enough to compile to micro-ops.
//!
//! Soundness is by construction, not by trust:
//!
//! * cached instructions come from the **same bytes and the same
//!   decoder** ([`rr_isa::decode`] over the executable's text) the
//!   interpreter would use;
//! * after every cached instruction the machine's PC is compared against
//!   the block's recorded next address — *any* control transfer (taken
//!   branch, call, fault, mid-block `svc` exit) leaves the block body
//!   and re-enters through the cache lookup, so blocks need no
//!   terminator special-casing;
//! * blocks overlapping an exec-dirty range
//!   ([`Memory::exec_dirty_intersects`](crate::Memory::exec_dirty_intersects))
//!   — code a fault injection poked — fall back to the interpreter, and
//!   a write that dirties text *mid-block* (a self-modifying store to a
//!   write+exec mapping) is caught by the per-step epoch check;
//! * step budgets are exact: the fence is checked before every cached
//!   instruction, so a fence landing mid-block stops precisely there.
//!
//! The result is bit-identical to stepping the interpreter — pinned by
//! the equivalence tests here and the engine/fault proptests upstream.

use crate::machine::Machine;
use crate::uop::CompiledBlock;
use rr_isa::{decode, Instr};
use rr_obj::Executable;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// How a [`Machine::run_uops`] call split its work between the
/// interpreter, pre-decoded block bodies, and compiled micro-op bodies.
/// Accumulate across calls and feed the totals to telemetry in one
/// batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Instructions executed from pre-decoded block bodies (blocks not
    /// yet past [`UopConfig::hot_threshold`](crate::UopConfig::hot_threshold)).
    pub block_steps: u64,
    /// Instructions executed by the plain interpreter (cache miss,
    /// exec-dirty fallback, or control flow outside the text).
    pub interp_steps: u64,
    /// Instructions executed from compiled micro-op bodies.
    pub uop_steps: u64,
    /// Superblocks lowered to micro-op bodies by this call.
    pub blocks_compiled: u64,
    /// Blocks whose execution count crossed the hot threshold here,
    /// promoting them to the uop tier.
    pub tier_promotions: u64,
    /// Times the uop tier materialized the NZCV flags from a deferred
    /// flag-setting operation (consumer reads and block exits).
    pub flag_materializations: u64,
}

impl BlockStats {
    /// Total instructions executed under this accounting.
    pub fn total(&self) -> u64 {
        self.block_steps + self.interp_steps + self.uop_steps
    }
}

/// One pre-decoded straight-line run of instructions.
#[derive(Debug)]
pub(crate) struct DecodedBlock {
    /// Address of the first instruction.
    pub(crate) start: u64,
    /// One past the last encoded byte (the exec-dirty probe range).
    pub(crate) end: u64,
    /// Instruction addresses, parallel to `body`.
    pub(crate) pcs: Vec<u64>,
    /// Pre-decoded instructions with their encoded lengths.
    pub(crate) body: Vec<(Instr, u8)>,
    /// Executions of this block observed by the uop tier, driving hot
    /// promotion (`UopConfig::hot_threshold`; a `u32::MAX` threshold
    /// never promotes and counts nothing). Atomic so worker threads
    /// sharing the cache behind an `Arc` can tier concurrently.
    pub(crate) heat: AtomicU32,
    /// The compiled micro-op body, produced once on crossing the hot
    /// threshold and shared by every subsequent execution.
    pub(crate) compiled: OnceLock<CompiledBlock>,
}

impl Clone for DecodedBlock {
    fn clone(&self) -> DecodedBlock {
        DecodedBlock {
            start: self.start,
            end: self.end,
            pcs: self.pcs.clone(),
            body: self.body.clone(),
            heat: AtomicU32::new(self.heat.load(Ordering::Relaxed)),
            compiled: self.compiled.clone(),
        }
    }
}

/// Pre-decoded superblocks over an executable's text, built once per
/// session and shared (behind an `Arc`) by every replay that executes
/// the same binary.
///
/// # Example
///
/// ```
/// use rr_asm::assemble_and_link;
/// use rr_emu::{BlockCache, BlockStats, Machine, RunOutcome, UopConfig};
///
/// let exe = assemble_and_link(
///     "    .global _start\n_start:\n    mov r1, 41\n    add r1, 1\n    svc 0\n",
/// )?;
/// let cache = BlockCache::build(&exe, [exe.entry]).expect("text decodes");
/// let mut m = Machine::new(&exe, &[]);
/// let mut stats = BlockStats::default();
/// // A threshold no block reaches keeps every block on its decoded body.
/// let decoded = UopConfig { hot_threshold: u32::MAX };
/// let result = m.run_uops(&cache, decoded, 1_000, &mut stats);
/// assert_eq!(result.outcome, RunOutcome::Exited { code: 42 });
/// assert_eq!(stats.block_steps, 3);
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
    /// text. Undecodable leader runs are skipped (those addresses fall
    /// back to the interpreter); returns `None` when nothing decodes.
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
        let mut iter = sorted.iter().peekable();
        while let Some(&leader) = iter.next() {
            let limit = iter.peek().map_or(text_end, |&&next| next);
            let mut pc = leader;
            let mut pcs = Vec::new();
            let mut body = Vec::new();
            while pc < limit {
                let off = (pc - text_start) as usize;
                let Ok((insn, len)) = decode(&text[off..]) else { break };
                pcs.push(pc);
                body.push((insn, len as u8));
                pc += len as u64;
                if insn.is_block_terminator() {
                    break;
                }
            }
            if body.is_empty() {
                continue;
            }
            let index = u32::try_from(blocks.len()).ok()?;
            for (i, &ipc) in pcs.iter().enumerate() {
                block_of[(ipc - text_start) as usize] = index;
                instr_of[(ipc - text_start) as usize] = i as u32;
            }
            blocks.push(DecodedBlock {
                start: leader,
                end: pc,
                pcs,
                body,
                heat: AtomicU32::new(0),
                compiled: OnceLock::new(),
            });
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

    /// Total pre-decoded instructions across all blocks.
    pub fn decoded_instrs(&self) -> u64 {
        self.blocks.iter().map(|b| b.body.len() as u64).sum()
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

impl Machine {
    /// Executes one pre-decoded block body precisely, starting at
    /// instruction `entry`, until a fault, stop, fence, exec-dirty write
    /// into the block, or control transfer out of it — the uop tier's
    /// path for blocks that have not yet crossed the hot threshold.
    pub(crate) fn run_decoded_body(
        &mut self,
        block: &DecodedBlock,
        entry: usize,
        max_steps: u64,
        steps: &mut u64,
        stats: &mut BlockStats,
        trace: &mut Option<&mut Vec<u64>>,
    ) {
        let mut index = entry;
        let mut epoch = self.memory().exec_dirty_epoch();
        loop {
            let (insn, len) = block.body[index];
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(self.pc());
            }
            let result = self.step_decoded(insn, len as usize);
            *steps += 1;
            stats.block_steps += 1;
            if result.is_err() || self.stopped().is_some() || *steps >= max_steps {
                break;
            }
            let now = self.memory().exec_dirty_epoch();
            if now != epoch {
                // A store landed in executable memory: the cached
                // decodes may be stale; if the write hit elsewhere,
                // re-entry through the outer lookup resumes block
                // execution.
                epoch = now;
                if self.memory().exec_dirty_intersects(block.start, block.end) {
                    break;
                }
            }
            index += 1;
            if index >= block.body.len() || self.pc() != block.pcs[index] {
                // Fell off the block or control transferred (branch,
                // call, ret, corrupted pc) — resume through the cache
                // lookup.
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::RunResult;
    use crate::UopConfig;
    use rr_asm::assemble_and_link;

    /// A threshold no block reaches: every cached block runs its
    /// pre-decoded body.
    const DECODED: UopConfig = UopConfig { hot_threshold: u32::MAX };

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

    fn cache_for(exe: &Executable) -> BlockCache {
        // Entry plus every byte offset as candidate leaders: offsets that
        // are not instruction starts simply fail to decode and are
        // skipped, instruction starts in the middle of real blocks are
        // legal extra leaders (blocks just get shorter).
        BlockCache::build(exe, [exe.entry]).expect("text decodes")
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
        let result = m.run_uops(&cache, DECODED, 10_000, &mut stats);

        assert_eq!(result, reference);
        assert_eq!(m.pc(), ref_machine.pc());
        assert_eq!(m.flags(), ref_machine.flags());
        assert_eq!(m.take_output(), ref_machine.take_output());
        assert_eq!(m.memory_stats(), ref_machine.memory_stats());
        assert_eq!(stats.total(), result.steps);
        assert!(stats.block_steps > 0, "{stats:?}");
    }

    #[test]
    fn fences_landing_mid_block_are_precise() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let total = interp_reference(&exe, &[], 10_000).0.steps;
        let cache = cache_for(&exe);
        for fence in 0..=total + 2 {
            let (reference, ref_machine) = interp_reference(&exe, &[], fence);
            let mut m = Machine::new(&exe, &[]);
            let mut stats = BlockStats::default();
            let result = m.run_uops(&cache, DECODED, fence, &mut stats);
            assert_eq!(result, reference, "fence={fence}");
            assert_eq!(m.pc(), ref_machine.pc(), "fence={fence}");
            assert_eq!(m.output(), ref_machine.output(), "fence={fence}");
            assert_eq!(stats.total(), result.steps, "fence={fence}");
        }
    }

    #[test]
    fn traced_block_run_matches_interpreter_trace() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let mut ref_trace = Vec::new();
        let mut ref_machine = Machine::new(&exe, &[]);
        let reference = ref_machine.run_with(10_000, |m| ref_trace.push(m.pc()));

        let cache = cache_for(&exe);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        let mut trace = Vec::new();
        let result = m.run_uops_traced(&cache, DECODED, 10_000, &mut stats, &mut trace);
        assert_eq!(result, reference);
        assert_eq!(trace, ref_trace);
    }

    #[test]
    fn poked_code_falls_back_to_the_interpreter() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        // Corrupt the `sub r2, 1` update the same way a bit-flip fault
        // model would, in both machines, and require identical behaviour.
        let mut reference = Machine::new(&exe, &[]);
        let mut blocked = Machine::new(&exe, &[]);
        let target = exe.entry;
        for m in [&mut reference, &mut blocked] {
            let byte = m.peek_bytes(target, 1).unwrap()[0];
            assert!(m.poke_bytes(target, &[byte ^ 0x40]));
        }
        let want = reference.run(10_000);
        let mut stats = BlockStats::default();
        let got = blocked.run_uops(&cache, DECODED, 10_000, &mut stats);
        assert_eq!(got, want);
        assert_eq!(blocked.take_output(), reference.take_output());
        assert!(stats.interp_steps > 0, "dirty block must interpret: {stats:?}");
    }

    #[test]
    fn control_flow_outside_the_cache_is_interpreted() {
        // Indirect jump into .data: the cache has no block there, and the
        // crash taxonomy must match the interpreter's.
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
        let result = m.run_uops(&cache, DECODED, 100, &mut stats);
        assert_eq!(result, reference);
        assert!(stats.interp_steps > 0, "{stats:?}");
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
        assert_eq!(m.run_uops(&cache, DECODED, 10_000, &mut stats), reference);
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
