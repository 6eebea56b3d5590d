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
use rr_fault::{
    Analysis, CampaignConfig, CampaignEngine, CampaignReport, CampaignSession, Collect, FaultModel,
    InstructionSkip, SingleBitFlip,
};
use rr_isa::{STACK_SIZE, STACK_TOP};
use rr_obj::{Executable, FormatError, SectionKind};
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

#[test]
fn an_entry_outside_the_code_is_a_typed_error_naming_it() {
    // pincheck's entry (file bytes 4..12) moved to its `.bss`: the file
    // used to load, and its golden run crashed at the first fetch.
    let w = rr_workloads::pincheck();
    let exe = w.build().expect("workload builds");
    let bss = exe.segments.iter().find(|s| s.section == SectionKind::Bss).unwrap().addr;
    let mut bytes = exe.to_bytes();
    bytes[4..12].copy_from_slice(&bss.to_le_bytes());
    let err = Executable::from_bytes(&bytes).unwrap_err();
    assert_eq!(err, FormatError::EntryOutsideCode { entry: bss });
    assert_eq!(err.to_string(), "entry point 0x3000 lies outside every executable segment");
}

#[test]
fn the_largest_accepted_data_size_disassembles_from_the_initialized_bytes() {
    // otp's 28-byte `.rodata` mapped up to the stack: the largest size
    // the loader accepts, about 1 GiB. Symbolization looks for pointers
    // in the 28 initialized bytes, and the listing ends the section with
    // the zero-filled rest.
    let mut exe = rr_workloads::otp_check().build().expect("workload builds");
    let rodata = exe.segments.iter_mut().find(|s| s.section == SectionKind::Rodata).unwrap();
    rodata.mem_size = STACK_TOP - STACK_SIZE - rodata.addr;
    let tail = rodata.mem_size - rodata.data.len() as u64;
    let exe = Executable::from_bytes(&exe.to_bytes()).expect("the loader accepts the size");
    let listing = rr_disasm::disassemble(&exe).expect("disassembles").listing.to_source();
    assert_eq!(tail, 1_072_685_028);
    let expected = "\
msg_ok:
    .byte 0x4f, 0x54, 0x50, 0x20, 0x4f, 0x4b, 0x0a, 0x00
msg_no:
    .byte 0x4f, 0x54, 0x50, 0x20, 0x52, 0x45, 0x4a, 0x45, 0x43, 0x54, 0x45, 0x44, 0x0a, 0x00
otp_secret:
    .byte 0x34, 0x39, 0x32, 0x38, 0x31, 0x36
    .space 1072685028
";
    assert!(listing.contains(expected), "{listing}");
}

#[test]
fn a_bss_mapped_to_the_stack_campaigns_identically_on_both_engines() {
    // pincheck's `.bss` mapped up to the stack base, the largest size the
    // loader accepts: every machine carries a ~1 GiB segment of which the
    // program touches one page.
    let w = rr_workloads::pincheck();
    let original = w.build().expect("workload builds");
    let mut exe = original.clone();
    let bss = exe.segments.iter_mut().find(|s| s.section == SectionKind::Bss).unwrap();
    bss.mem_size = STACK_TOP - STACK_SIZE - bss.addr;
    let wide = Executable::from_bytes(&exe.to_bytes()).expect("the loader accepts the size");
    assert_eq!(wide, exe);
    let campaign = |exe: &Executable, engine| -> Vec<CampaignReport> {
        let config = CampaignConfig { engine, ..CampaignConfig::default() };
        CampaignSession::builder(exe.clone())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .config(config)
            .build()
            .expect("session builds")
            .run(&[&InstructionSkip as &dyn FaultModel, &SingleBitFlip], Collect)
    };
    let naive = campaign(&wide, CampaignEngine::Naive);
    let checkpointed = campaign(&wide, CampaignEngine::Checkpointed);
    for (n, c) in naive.iter().zip(&checkpointed) {
        assert_eq!(n.results, c.results, "{}", n.model);
    }
    // A skip cannot tell the sizes apart; a flipped address bit can, as
    // it now lands in mapped memory.
    let unmodified = campaign(&original, CampaignEngine::Checkpointed);
    assert_eq!(checkpointed[0].results, unmodified[0].results);
    let successes = |r: &CampaignReport| (r.summary().success, r.summary().total);
    assert_eq!(successes(&checkpointed[0]), (3, 147));
    assert_eq!((successes(&unmodified[1]).0, successes(&checkpointed[1]).0), (20, 22));
}
