//! The uop tier's block cache takes its leaders from one linear sweep of
//! `.text` (`BlockCache::for_executable`), not from a recovered CFG. On
//! the bundled workloads and on what both rewriting approaches make of
//! them, the sweep must start a block wherever rr-disasm's recursive CFG
//! recovery does, so a golden run finds every pc it reaches in the cache.

use rr_core::{harden_hybrid, FaulterPatcher, HardenConfig, HybridConfig};
use rr_disasm::{build_functions, discover};
use rr_emu::{BlockCache, BlockStats, Machine};
use rr_fault::InstructionSkip;
use rr_integration::BIG_BUDGET;
use rr_workloads::all_workloads;
use std::collections::BTreeSet;

#[test]
fn the_sweep_starts_every_block_the_cfg_recovers() {
    for w in all_workloads() {
        let original = w.build().unwrap();
        let hybrid = harden_hybrid(&original, &HybridConfig::default()).unwrap().hardened;
        let patched =
            FaulterPatcher::new(HardenConfig { parallel: false, ..HardenConfig::default() })
                .harden(&original, &w.good_input, &w.bad_input, &InstructionSkip)
                .unwrap()
                .hardened;
        for (label, exe) in [("original", &original), ("hybrid", &hybrid), ("patched", &patched)] {
            let context = format!("{} {label}", w.name);
            let code = discover(exe).unwrap_or_else(|e| panic!("{context}: {e}"));
            let recovered: BTreeSet<u64> = build_functions(exe, &code)
                .iter()
                .flat_map(|f| f.blocks.iter().map(|b| b.addr))
                .collect();
            let cache = BlockCache::for_executable(exe).expect("the text decodes");
            let starts: BTreeSet<u64> = cache.block_ranges().map(|r| r.start).collect();
            let missing: Vec<_> = recovered.difference(&starts).collect();
            assert!(missing.is_empty(), "{context}: no block starts at {missing:#x?}");

            let mut reference = Machine::new(exe, &w.bad_input);
            let want = reference.run(BIG_BUDGET);
            let mut machine = Machine::new(exe, &w.bad_input);
            let mut stats = BlockStats::default();
            assert_eq!(machine.run_uops(&cache, BIG_BUDGET, &mut stats), want, "{context}");
            assert_eq!(machine.output(), reference.output(), "{context}");
            assert_eq!(stats.blocks_redecoded, 0, "{context}: {stats:?}");
            assert_eq!(stats.interp_steps, 0, "{context}: {stats:?}");
        }
    }
}
