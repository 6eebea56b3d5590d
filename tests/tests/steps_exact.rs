//! Two shortcuts synthesize part of a faulted run's behaviour instead of
//! executing it, so what they synthesize must be what executing would
//! have produced.
//!
//! * The golden-rejoin shortcut takes the rest of a run from the golden
//!   bad run, with a synthesized step count, and splices the golden
//!   output after the checkpoint onto the run's own.
//! * The hang shortcut extrapolates a run proven to repeat one period
//!   to its step budget: `TimedOut`, the budget's steps, and the output
//!   of every period it did not execute.
//!
//! The engine-equivalence suites classify with `GoldenPairOracle`, which
//! ignores `steps` and only compares output for exits; a wrong
//! synthesized count or hung-run output would pass all of them. Here the
//! oracles classify on `steps`, and on a hash of the outcome, output and
//! steps, so the checkpointed engine (which takes the shortcuts) and the
//! naive engine (which never does) agree report for report only if
//! everything synthesized is exact.

use std::hash::{DefaultHasher, Hash, Hasher};

use rr_core::{harden_hybrid, HybridConfig};
use rr_fault::{
    Behavior, CampaignConfig, CampaignEngine, CampaignSession, Collect, FaultClass, FaultModel,
    FlagFlip, InstructionSkip, Oracle, PairPolicy, PlanConfig, RegisterBitFlip, SingleBitFlip,
};
use rr_isa::Reg;
use rr_obj::Executable;
use rr_telemetry::{Counter, Telemetry};

/// The classes an oracle below picks from by a value mod 5.
const CLASSES: [FaultClass; 5] = [
    FaultClass::Success,
    FaultClass::Benign,
    FaultClass::Crashed,
    FaultClass::TimedOut,
    FaultClass::Corrupted,
];

/// Five classes by `steps % 5`: any off-by-n step count in 1..=4
/// changes the class.
#[derive(Debug, Clone, Copy)]
struct StepsModFive;

impl Oracle for StepsModFive {
    fn name(&self) -> &'static str {
        "steps-mod-5"
    }

    fn classify(&self, faulted: &Behavior) -> FaultClass {
        CLASSES[(faulted.steps % 5) as usize]
    }
}

/// Five classes by a hash of the outcome, output and steps mod 5: a
/// wrong byte of output, in any outcome, changes the class of four runs
/// in five.
#[derive(Debug, Clone, Copy)]
struct BehaviorHashModFive;

impl Oracle for BehaviorHashModFive {
    fn name(&self) -> &'static str {
        "behavior-hash-mod-5"
    }

    fn classify(&self, faulted: &Behavior) -> FaultClass {
        let mut hasher = DefaultHasher::new();
        (faulted.outcome, &faulted.output, faulted.steps).hash(&mut hasher);
        CLASSES[(hasher.finish() % 5) as usize]
    }
}

fn models() -> Vec<Box<dyn FaultModel>> {
    vec![
        Box::new(InstructionSkip),
        Box::new(FlagFlip),
        Box::new(RegisterBitFlip { regs: vec![Reg::R0, Reg::R1], bits: vec![0, 1, 31, 63] }),
    ]
}

/// Order 1 exhaustive, and a budgeted order-2 plan set.
fn plans() -> [PlanConfig; 2] {
    [
        PlanConfig::default(),
        PlanConfig {
            order: 2,
            policy: PairPolicy::WithinWindow { max_gap: 10 },
            budget: Some(40),
            seed: 11,
        },
    ]
}

/// The four bundled workloads, and pincheck after the hybrid pipeline,
/// with the site stride each campaign samples at.
fn binaries() -> Vec<(String, Executable, Vec<u8>, usize)> {
    let mut binaries: Vec<_> = rr_workloads::all_workloads()
        .into_iter()
        .map(|w| (w.name.to_owned(), w.build().unwrap(), w.bad_input, 1))
        .collect();
    let pincheck = rr_workloads::pincheck();
    let hybrid = harden_hybrid(&pincheck.build().unwrap(), &HybridConfig::default()).unwrap();
    binaries.push(("hybrid pincheck".to_owned(), hybrid.hardened, pincheck.bad_input, 37));
    binaries
}

/// Runs `models` at each plan set of [`plans`] on a naive and a
/// checkpointed session of `exe` that classify with `oracle`, and asserts
/// that their reports are byte-identical and that `counters` (a shortcut
/// and the steps it saved) read 0 on the naive side and more than 0 on
/// the checkpointed side.
fn engines_agree<O: Oracle + Copy + 'static>(
    name: &str,
    exe: &Executable,
    bad: &[u8],
    site_stride: usize,
    oracle: O,
    models: &[&dyn FaultModel],
    counters: [Counter; 2],
) {
    let checkpointed = Telemetry::counters();
    for plan in plans() {
        let session = |engine, telemetry: &Telemetry| {
            CampaignSession::builder(exe.clone())
                .bad_input(bad)
                .oracle(oracle)
                .config(CampaignConfig { engine, site_stride, plan, ..CampaignConfig::default() })
                .telemetry(telemetry.clone())
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let naive = Telemetry::counters();
        let expected = session(CampaignEngine::Naive, &naive).run(models, Collect);
        let actual = session(CampaignEngine::Checkpointed, &checkpointed).run(models, Collect);
        assert_eq!(
            format!("{actual:?}"),
            format!("{expected:?}"),
            "{name}, order {}: reports differ",
            plan.order
        );
        let naive = naive.metrics().unwrap();
        for counter in counters {
            assert_eq!(naive.counter(counter), 0, "{name}: naive {counter:?}");
        }
    }
    let metrics = checkpointed.metrics().unwrap();
    for counter in counters {
        assert!(
            metrics.counter(counter) > 0,
            "{name}: {counter:?} is 0, so the shortcut went untested"
        );
    }
}

/// Rejoined plans get the naive engine's step counts, and, under the
/// hash oracle, its outcome and output: the spliced output is exact.
#[test]
fn synthesized_step_counts_are_exact() {
    let models = models();
    let models: Vec<&dyn FaultModel> = models.iter().map(Box::as_ref).collect();
    for (name, exe, bad, site_stride) in binaries() {
        let counters = [Counter::PlansConverged, Counter::StepsConverged];
        engines_agree(&name, &exe, &bad, site_stride, StepsModFive, &models, counters);
        engines_agree(&name, &exe, &bad, site_stride, BehaviorHashModFive, &models, counters);
    }
}

#[test]
fn extrapolated_hangs_are_exact() {
    let models: [&dyn FaultModel; 2] = [&SingleBitFlip, &InstructionSkip];
    for w in rr_workloads::all_workloads() {
        let counters = [Counter::PlansExtrapolated, Counter::StepsExtrapolated];
        let exe = w.build().unwrap();
        engines_agree(w.name, &exe, &w.bad_input, 1, BehaviorHashModFive, &models, counters);
    }
}

/// Every hang of an order-1 bit-flip campaign on the four workloads, at
/// their bundled inputs, is proven and extrapolated, and the report is
/// the naive engine's.
#[test]
fn every_bit_flip_hang_is_extrapolated() {
    let timed_out = [("pincheck", 172), ("bootloader", 235), ("otp", 182), ("access", 87)];
    for (w, (name, hangs)) in rr_workloads::all_workloads().into_iter().zip(timed_out) {
        assert_eq!(w.name, name);
        let exe = w.build().unwrap();
        let run = |engine| {
            let telemetry = Telemetry::counters();
            let report = CampaignSession::builder(exe.clone())
                .good_input(&w.good_input[..])
                .bad_input(&w.bad_input[..])
                .config(CampaignConfig { engine, ..CampaignConfig::default() })
                .telemetry(telemetry.clone())
                .build()
                .unwrap()
                .run(&[&SingleBitFlip], Collect)
                .pop()
                .unwrap();
            (report, telemetry.metrics().unwrap().counter(Counter::PlansExtrapolated))
        };
        let (report, extrapolated) = run(CampaignEngine::Checkpointed);
        assert_eq!(report.count(FaultClass::TimedOut), hangs, "{name}");
        assert_eq!(extrapolated, hangs as u64, "{name}: hangs left unproven");
        let (naive, _) = run(CampaignEngine::Naive);
        assert_eq!(report.results, naive.results, "{name}");
    }
}
