//! Oracle coverage: the default golden-pair oracle over every
//! [`FaultClass`] arm, and a property test pinning the streaming sink to
//! the collected sink for random models, engines, thread counts, and
//! strides.

use proptest::prelude::*;
use rr_emu::{CpuFault, RunOutcome};
use rr_fault::{
    Behavior, CampaignConfig, CampaignEngine, CampaignSession, Collect, FaultClass, FaultModel,
    FlagFlip, GoldenPairOracle, InstructionSkip, Oracle, RegisterBitFlip, SingleBitFlip, Stream,
};

fn behavior(outcome: RunOutcome, output: &[u8]) -> Behavior {
    Behavior { outcome, output: output.to_vec(), steps: 100 }
}

fn golden_pair() -> (Behavior, Behavior, GoldenPairOracle) {
    let good = behavior(RunOutcome::Exited { code: 0 }, b"ACCESS GRANTED\n");
    let bad = behavior(RunOutcome::Exited { code: 1 }, b"ACCESS DENIED\n");
    let oracle = GoldenPairOracle::new(good.clone(), bad.clone());
    (good, bad, oracle)
}

/// The six [`FaultClass`] arms, one by one. Five are the oracle's;
/// the sixth ([`FaultClass::ReplayDiverged`]) is produced by the
/// *runner* when a replay never reaches the injection point — an
/// oracle never sees such a run, so it is exercised through a session
/// below.
#[test]
fn golden_pair_oracle_covers_every_behavioral_arm() {
    let (good, bad, oracle) = golden_pair();
    assert_eq!(oracle.name(), "golden-pair");
    assert_eq!(oracle.golden_good(), &good);
    assert_eq!(oracle.golden_bad(), &bad);

    // Success: behaves exactly like the good run (step counts may
    // differ — a faulted run is never step-identical).
    let mut like_good = good.clone();
    like_good.steps = 9_999;
    assert_eq!(oracle.classify(&like_good), FaultClass::Success);

    // Benign: still behaves like the unfaulted bad run.
    let mut like_bad = bad.clone();
    like_bad.steps = 1;
    assert_eq!(oracle.classify(&like_bad), FaultClass::Benign);

    // Crashed: any CPU fault, regardless of partial output.
    let crashed =
        behavior(RunOutcome::Crashed { fault: CpuFault::DivideByZero, pc: 0x1040 }, b"ACCESS ");
    assert_eq!(oracle.classify(&crashed), FaultClass::Crashed);

    // TimedOut: the run exceeded its step budget.
    let hung = behavior(RunOutcome::TimedOut, b"");
    assert_eq!(oracle.classify(&hung), FaultClass::TimedOut);

    // Corrupted: a clean exit matching neither golden behaviour —
    // whether the output, the exit code, or both differ.
    let third_output = behavior(RunOutcome::Exited { code: 0 }, b"ACCESS GARBLED\n");
    assert_eq!(oracle.classify(&third_output), FaultClass::Corrupted);
    let third_code = behavior(RunOutcome::Exited { code: 3 }, b"ACCESS GRANTED\n");
    assert_eq!(oracle.classify(&third_code), FaultClass::Corrupted);
}

#[test]
fn replay_divergence_is_the_runners_arm_not_the_oracles() {
    // A determinism violation surfaces as ReplayDiverged in the report
    // without the oracle ever classifying anything: the fault below
    // names a pc the trace never visits at step 0.
    struct BogusPc;
    impl FaultModel for BogusPc {
        fn name(&self) -> &'static str {
            "bogus-pc"
        }
        fn faults_at(&self, site: &rr_fault::FaultSite) -> Vec<rr_fault::Fault> {
            vec![rr_fault::Fault {
                step: site.step,
                pc: site.pc ^ 0xDEAD_0000,
                effect: rr_fault::FaultEffect::SkipInstruction,
            }]
        }
    }
    let w = rr_workloads::pincheck();
    let session = CampaignSession::builder(w.build().unwrap())
        .good_input(&w.good_input[..])
        .bad_input(&w.bad_input[..])
        .build()
        .unwrap();
    let report = session.run(&[&BogusPc as &dyn FaultModel], Collect).pop().unwrap();
    let summary = report.summary();
    assert_eq!(summary.diverged, summary.total, "every bogus fault diverges");
    assert!(summary.diverged > 0);
}

fn model_pool() -> Vec<Box<dyn FaultModel>> {
    vec![
        Box::new(InstructionSkip),
        Box::new(SingleBitFlip),
        Box::new(FlagFlip),
        Box::new(RegisterBitFlip {
            regs: vec![rr_isa::Reg::from_index(0), rr_isa::Reg::from_index(2)],
            bits: vec![0, 7, 63],
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random (model, engine, threads, stride) combinations, the
    /// streaming sink's per-model summaries equal the collected sink's —
    /// the batched path never drops or double-counts a classification.
    #[test]
    fn streaming_and_collected_sinks_agree(
        model_pick in 0usize..4,
        engine_pick in 0usize..2,
        threads in 1usize..5,
        site_stride in 1usize..4,
    ) {
        let engine =
            [CampaignEngine::Naive, CampaignEngine::Checkpointed][engine_pick];
        let w = rr_workloads::pincheck();
        let session = CampaignSession::builder(w.build().unwrap())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .config(CampaignConfig {
                engine,
                threads,
                site_stride,
                ..CampaignConfig::default()
            })
            .build()
            .unwrap();
        let pool = model_pool();
        let model = pool[model_pick].as_ref();
        let collected = session.run(&[model], Collect).pop().unwrap();
        let streamed = session.run(&[model], Stream).pop().unwrap();
        prop_assert_eq!(streamed.model, collected.model);
        prop_assert_eq!(
            streamed.summary,
            collected.summary(),
            "model={} engine={} threads={} stride={}",
            model.name(),
            engine,
            threads,
            site_stride
        );
    }
}
