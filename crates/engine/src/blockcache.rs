//! Session-level construction and invalidation of the emulator's
//! pre-decoded [`BlockCache`].
//!
//! The emulator owns block *execution* ([`rr_emu::Machine::run_uops`]);
//! this module owns the *policy*: where block leaders come from
//! (`rr-disasm`'s recovered CFG), when a session may keep a cache across
//! a binary rewrite (only when the text bytes are identical), and how
//! much of a cache a rewrite invalidated (accounted from the rewrite's
//! [`ListingDelta`] into [`Counter::BlockInvalidations`]).

use rr_disasm::{build_functions, discover, ListingDelta};
use rr_emu::BlockCache;
use rr_obj::Executable;
use rr_telemetry::{Counter, Telemetry};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Decodes `exe`'s text into a block cache, using the recovered CFG's
/// basic-block starts as superblock leaders. Returns `None` when code
/// discovery or decoding finds nothing cacheable — callers simply run
/// the interpreter, which is always correct.
///
/// Counts every decoded superblock into [`Counter::BlocksDecoded`].
pub fn build_block_cache(exe: &Executable, telemetry: &Telemetry) -> Option<Arc<BlockCache>> {
    let code = discover(exe).ok()?;
    let functions = build_functions(exe, &code);
    // Functions may share blocks (e.g. via tail jumps); dedup by address.
    let leaders: BTreeSet<u64> =
        functions.iter().flat_map(|f| f.blocks.iter().map(|b| b.addr)).collect();
    let cache = BlockCache::build(exe, leaders)?;
    telemetry.count(Counter::BlocksDecoded, cache.block_count() as u64);
    Some(Arc::new(cache))
}

/// Carries a block cache across a harden-loop rewrite.
///
/// Reusing decoded micro-op bodies is sound only when the new binary's text
/// bytes are *identical* to what the cache was decoded from: a shifted
/// but symbolically unchanged block still re-encodes its relative
/// branches differently, so the delta's unchanged-instruction remap is
/// not sufficient evidence. When the text differs, the old cache is
/// dropped — blocks overlapping the delta's changed or shifted ranges
/// are counted into [`Counter::BlockInvalidations`] — and `exe` is
/// decoded fresh.
pub fn rebuild_block_cache(
    old: Option<&Arc<BlockCache>>,
    delta: &ListingDelta,
    exe: &Executable,
    telemetry: &Telemetry,
) -> Option<Arc<BlockCache>> {
    if let Some(old) = old {
        if old.text_start() == exe.text_range().start && old.text_bytes() == exe.text_bytes() {
            return Some(Arc::clone(old));
        }
        let stale = old
            .block_ranges()
            .filter(|block| {
                delta
                    .changed_ranges()
                    .iter()
                    .chain(delta.shifted_ranges())
                    .any(|r| r.start < block.end && block.start < r.end)
            })
            .count();
        telemetry.count(Counter::BlockInvalidations, stale as u64);
    }
    build_block_cache(exe, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_asm::assemble_and_link;
    use rr_emu::{BlockStats, Machine};

    fn sample() -> Executable {
        assemble_and_link(
            "    .global _start\n\
             _start:\n\
                 mov r1, 5\n\
             .loop:\n\
                 sub r1, 1\n\
                 cmp r1, 0\n\
                 jne .loop\n\
                 svc 0\n",
        )
        .unwrap()
    }

    #[test]
    fn cfg_leaders_produce_an_executable_cache() {
        let exe = sample();
        let telemetry = Telemetry::counters();
        let cache = build_block_cache(&exe, &telemetry).expect("sample decodes");
        assert!(cache.block_count() >= 2, "entry block and loop block");
        assert_eq!(
            telemetry.metrics().unwrap().counter(Counter::BlocksDecoded),
            cache.block_count() as u64
        );
        let mut reference = Machine::new(&exe, &[]);
        let want = reference.run(10_000);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        assert_eq!(m.run_uops(&cache, 10_000, &mut stats), want);
        assert_eq!(stats.interp_steps, 0, "fully covered program: {stats:?}");
    }

    #[test]
    fn identical_text_reuses_the_cache_across_a_rewrite() {
        let exe = sample();
        let telemetry = Telemetry::counters();
        let cache = build_block_cache(&exe, &telemetry).unwrap();
        let reused =
            rebuild_block_cache(Some(&cache), &ListingDelta::identity(), &exe, &telemetry).unwrap();
        assert!(Arc::ptr_eq(&cache, &reused));
        assert_eq!(telemetry.metrics().unwrap().counter(Counter::BlockInvalidations), 0);
    }

    #[test]
    fn changed_text_invalidates_and_rebuilds() {
        let exe = sample();
        let telemetry = Telemetry::counters();
        let cache = build_block_cache(&exe, &telemetry).unwrap();

        // Patch the loop count: same layout, different text bytes.
        let listing = rr_disasm::disassemble(&exe).unwrap().listing;
        let mut patched = listing.clone();
        let (index, _, _) = patched.original_code().next().unwrap();
        patched.replace_code(
            index,
            vec![rr_disasm::Line::Code {
                orig_addr: None,
                insn: rr_disasm::SymInstr::Plain(rr_isa::Instr::MovRI {
                    rd: rr_isa::Reg::R1,
                    imm: 7,
                }),
            }],
        );
        let rebuilt = assemble_and_link(&patched.to_source()).unwrap();
        assert_ne!(rebuilt.text_bytes(), exe.text_bytes());
        let delta = ListingDelta::compute(&listing, &exe, &patched, &rebuilt).unwrap();

        let fresh = rebuild_block_cache(Some(&cache), &delta, &rebuilt, &telemetry).unwrap();
        assert!(!Arc::ptr_eq(&cache, &fresh));
        assert_eq!(fresh.text_bytes(), rebuilt.text_bytes());
        assert!(
            telemetry.metrics().unwrap().counter(Counter::BlockInvalidations) >= 1,
            "the changed range overlaps at least the entry block"
        );

        // The fresh cache executes the rebuilt binary exactly.
        let mut reference = Machine::new(&rebuilt, &[]);
        let want = reference.run(10_000);
        let mut m = Machine::new(&rebuilt, &[]);
        let mut stats = BlockStats::default();
        assert_eq!(m.run_uops(&fresh, 10_000, &mut stats), want);
    }

    #[test]
    fn no_prior_cache_builds_fresh_without_invalidation_counts() {
        let exe = sample();
        let telemetry = Telemetry::counters();
        let cache = rebuild_block_cache(None, &ListingDelta::identity(), &exe, &telemetry);
        assert!(cache.is_some());
        assert_eq!(telemetry.metrics().unwrap().counter(Counter::BlockInvalidations), 0);
    }
}
