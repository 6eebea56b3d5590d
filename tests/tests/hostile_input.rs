//! Hostile inputs, end to end: bit-flipped serializations of the bundled
//! workloads either fail to load with a typed error or load and run, on
//! the interpreter and on the uop tier alike, to the same result — never
//! a panic, an allocation abort, or a hang. Every mutant that loads also
//! goes through disassembly, static analysis and a short campaign, each
//! of which returns a result or a typed error.
//!
//! Offline and deterministic: the mutants come from a fixed seed through
//! the in-repo `rand` stand-in.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rr_emu::{BlockCache, BlockStats, Machine};
use rr_fault::{Analysis, CampaignConfig, CampaignSession, Collect, FaultModel, InstructionSkip};
use rr_obj::Executable;
use rr_workloads::Workload;

/// Mutants per workload, each with 1–4 random bit flips.
const MUTANTS: usize = 128;
/// Steps each loaded mutant runs.
const STEPS: u64 = 10_000;

/// One bit-flipped serialization of a bundled workload.
struct Mutant {
    workload: Workload,
    /// Names the workload, the mutant and its flipped bits.
    context: String,
    bytes: Vec<u8>,
}

/// The seeded mutants of every bundled workload.
fn mutants() -> Vec<Mutant> {
    let mut rng = StdRng::seed_from_u64(0x4057_11E5);
    let mut mutants = Vec::new();
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
            mutants.push(Mutant { workload: w.clone(), context, bytes: mutant });
        }
    }
    mutants
}

impl Mutant {
    /// Loads the mutant; a rejection must say what is wrong.
    fn load(&self) -> Option<Executable> {
        match Executable::from_bytes(&self.bytes) {
            Ok(exe) => Some(exe),
            Err(err) => {
                assert!(!err.to_string().is_empty(), "{}: blank error", self.context);
                None
            }
        }
    }
}

#[test]
fn bit_flipped_executables_are_rejected_typed_or_run_identically_on_both_tiers() {
    let (mut rejected, mut ran) = (0, 0);
    for mutant in mutants() {
        let Some(exe) = mutant.load() else {
            rejected += 1;
            continue;
        };
        let (w, context) = (&mutant.workload, &mutant.context);
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
    // Both sides of the contract are exercised.
    assert!(rejected > 0 && ran > 0, "{rejected} rejected, {ran} ran");
}

/// Counts of one stage's outcomes over the loaded mutants.
#[derive(Debug, Default)]
struct Stage {
    ok: usize,
    typed_errors: usize,
}

impl Stage {
    /// Records `result`, checking that an error says something.
    fn record<T, E: std::fmt::Display>(&mut self, result: Result<T, E>, what: &str) -> Option<T> {
        match result {
            Ok(value) => {
                self.ok += 1;
                Some(value)
            }
            Err(err) => {
                assert!(!err.to_string().is_empty(), "{what}: blank error");
                self.typed_errors += 1;
                None
            }
        }
    }
}

#[test]
fn loaded_mutants_disassemble_analyse_and_campaign_or_fail_typed() {
    let (mut disasm, mut analysis, mut session) =
        (Stage::default(), Stage::default(), Stage::default());
    // Short budgets: a mutant that loops is a golden-run error or a
    // timed-out plan, not a slow test.
    let config = CampaignConfig {
        golden_max_steps: 20_000,
        faulted_min_steps: 1_000,
        threads: 1,
        ..CampaignConfig::default()
    };
    for mutant in mutants() {
        let Some(exe) = mutant.load() else { continue };
        let (w, context) = (&mutant.workload, &mutant.context);
        disasm.record(rr_disasm::disassemble(&exe), &format!("{context}: disassembly"));
        analysis.record(Analysis::from_executable(&exe), &format!("{context}: analysis"));
        let built = CampaignSession::builder(exe)
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .config(config.clone())
            .build();
        let Some(built) = session.record(built, &format!("{context}: session build")) else {
            continue;
        };
        let report = built.run(&[&InstructionSkip as &dyn FaultModel], Collect).pop().unwrap();
        // One skip per trace step, each executed or pruned.
        assert_eq!(
            report.results.len() as u128 + report.plans_pruned_static(),
            u128::from(built.golden_bad().steps),
            "{context}: campaign size"
        );
    }
    // Every stage sees both outcomes.
    for (name, stage) in [("disassembly", &disasm), ("analysis", &analysis), ("session", &session)]
    {
        assert!(stage.ok > 0 && stage.typed_errors > 0, "{name}: {stage:?}");
    }
}
