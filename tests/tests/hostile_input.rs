//! Hostile inputs, end to end: bit-flipped serializations of the bundled
//! workloads either fail to load with a typed error or load and run, on
//! the interpreter and on the uop tier alike, to the same result — never
//! a panic, an allocation abort, or a hang.
//!
//! Offline and deterministic: the mutants come from a fixed seed through
//! the in-repo `rand` stand-in.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rr_emu::{BlockCache, BlockStats, Machine};
use rr_obj::Executable;

/// Mutants per workload, each with 1–4 random bit flips.
const MUTANTS: usize = 128;
/// Steps each loaded mutant runs.
const STEPS: u64 = 10_000;

#[test]
fn bit_flipped_executables_are_rejected_typed_or_run_identically_on_both_tiers() {
    let mut rng = StdRng::seed_from_u64(0x4057_11E5);
    let (mut rejected, mut ran) = (0, 0);
    for w in rr_workloads::all_workloads() {
        let bytes = w.build().expect("workload builds").to_bytes();
        for mutant_index in 0..MUTANTS {
            let mut mutant = bytes.clone();
            let mut flips = Vec::new();
            for _ in 0..rng.gen_range(1..=4usize) {
                let bit = rng.gen_range(0..mutant.len() * 8);
                mutant[bit / 8] ^= 1 << (bit % 8);
                flips.push(bit);
            }
            let context = format!("{} mutant {mutant_index} (bits {flips:?})", w.name);
            let exe = match Executable::from_bytes(&mutant) {
                Ok(exe) => exe,
                Err(err) => {
                    assert!(!err.to_string().is_empty(), "{context}: blank error");
                    rejected += 1;
                    continue;
                }
            };
            ran += 1;
            let mut interp = Machine::new(&exe, &w.bad_input);
            let want = interp.run(STEPS);
            // The entry block alone: every other pc runs from blocks the
            // uop tier decodes out of the machine's own memory. An entry
            // that does not decode leaves no cache; the whole text then
            // offers leaders.
            let Some(cache) = BlockCache::build(&exe, [exe.entry])
                .or_else(|| BlockCache::build(&exe, exe.text_range()))
            else {
                continue;
            };
            let mut uops = Machine::new(&exe, &w.bad_input);
            let mut stats = BlockStats::default();
            let got = uops.run_uops(&cache, STEPS, &mut stats);
            assert_eq!(got, want, "{context}: outcome and steps");
            assert_eq!(uops.pc(), interp.pc(), "{context}: pc");
            assert_eq!(uops.flags(), interp.flags(), "{context}: flags");
            for i in 0..16u8 {
                let reg = rr_isa::Reg::from_index(i);
                assert_eq!(uops.reg(reg), interp.reg(reg), "{context}: {reg:?}");
            }
            assert_eq!(uops.output(), interp.output(), "{context}: output");
        }
    }
    // Both sides of the contract are exercised.
    assert!(rejected > 0 && ran > 0, "{rejected} rejected, {ran} ran");
}
