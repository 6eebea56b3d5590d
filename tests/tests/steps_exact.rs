//! The golden-rejoin shortcut synthesizes a faulted run's step count
//! instead of executing the golden remainder, so that count must be the
//! one executing would have produced.
//!
//! The engine-equivalence suites classify with `GoldenPairOracle`, which
//! ignores `steps`; a wrong synthesized count would pass all of them.
//! Here the oracle classifies on `steps` alone, so the checkpointed
//! engine (which takes the shortcut) and the naive engine (which never
//! does) agree report for report only if every synthesized count is
//! exact.

use rr_core::{harden_hybrid, HybridConfig};
use rr_fault::{
    Behavior, CampaignConfig, CampaignEngine, CampaignSession, Collect, FaultClass, FaultModel,
    FlagFlip, InstructionSkip, Oracle, PairPolicy, PlanConfig, RegisterBitFlip,
};
use rr_isa::Reg;
use rr_obj::Executable;
use rr_telemetry::{Counter, Telemetry};

/// Five classes by `steps % 5`: any off-by-n step count in 1..=4
/// changes the class.
#[derive(Debug)]
struct StepsModFive;

impl Oracle for StepsModFive {
    fn name(&self) -> &'static str {
        "steps-mod-5"
    }

    fn classify(&self, faulted: &Behavior) -> FaultClass {
        const CLASSES: [FaultClass; 5] = [
            FaultClass::Success,
            FaultClass::Benign,
            FaultClass::Crashed,
            FaultClass::TimedOut,
            FaultClass::Corrupted,
        ];
        CLASSES[(faulted.steps % 5) as usize]
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

#[test]
fn synthesized_step_counts_are_exact() {
    for (name, exe, bad, site_stride) in binaries() {
        let converged = Telemetry::counters();
        for plan in plans() {
            let session = |engine, telemetry: &Telemetry| {
                CampaignSession::builder(exe.clone())
                    .bad_input(&bad[..])
                    .oracle(StepsModFive)
                    .config(CampaignConfig {
                        engine,
                        site_stride,
                        plan,
                        ..CampaignConfig::default()
                    })
                    .telemetry(telemetry.clone())
                    .build()
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            };
            let naive_telemetry = Telemetry::counters();
            let naive = session(CampaignEngine::Naive, &naive_telemetry);
            let checkpointed = session(CampaignEngine::Checkpointed, &converged);
            let models = models();
            let refs: Vec<&dyn FaultModel> = models.iter().map(Box::as_ref).collect();
            let expected = naive.run(&refs, Collect);
            let actual = checkpointed.run(&refs, Collect);
            assert_eq!(
                format!("{actual:?}"),
                format!("{expected:?}"),
                "{name}, order {}: reports differ",
                plan.order
            );
            let naive_metrics = naive_telemetry.metrics().unwrap();
            assert_eq!(naive_metrics.counter(Counter::PlansConverged), 0, "{name}");
            assert_eq!(naive_metrics.counter(Counter::StepsConverged), 0, "{name}");
        }
        let metrics = converged.metrics().unwrap();
        assert!(
            metrics.counter(Counter::PlansConverged) > 0,
            "{name}: no plan rejoined the golden run, so the shortcut went untested"
        );
        assert!(metrics.counter(Counter::StepsConverged) > 0, "{name}");
    }
}
