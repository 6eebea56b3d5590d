//! Plan-length-1 invariance: the multi-fault (`FaultPlan`) pipeline,
//! run with singleton plans, must be **bit-identical** to the classic
//! single-fault campaign — whose semantics are re-implemented here, from
//! `rr-emu` primitives alone, as an executable specification: replay the
//! bad-input run from step 0, verify the program counter against the
//! trace, apply one effect, resume under the faulted budget, classify
//! against the golden pair. There is no legacy path left in the crate;
//! this reference is the pin.
//!
//! Also pinned here: bucketed (checkpoint-neighbourhood) evaluation vs
//! the naive engine's per-plan replay on multi-fault campaigns, through
//! both sinks; the exact positioning work a bucketed campaign does; and
//! the determinism of budgeted plan sampling across sessions.

use rr_emu::{execute, Execution, Machine, RunOutcome};
use rr_fault::{
    fault_verdict, CampaignConfig, CampaignEngine, CampaignReport, CampaignSession, Collect, Fault,
    FaultClass, FaultEffect, FaultModel, FlagFlip, InstructionSkip, PairPolicy, PlanConfig,
    RegisterBitFlip, SingleBitFlip, StaticVerdict, Stream,
};
use rr_telemetry::{Counter, Telemetry};
use rr_workloads::{all_workloads, Workload};

fn models() -> Vec<Box<dyn FaultModel>> {
    vec![
        Box::new(InstructionSkip),
        Box::new(SingleBitFlip),
        Box::new(FlagFlip),
        Box::new(RegisterBitFlip {
            regs: vec![rr_isa::Reg::from_index(0), rr_isa::Reg::from_index(1)],
            bits: vec![0, 1, 63],
        }),
    ]
}

/// Per-combination site strides keep the heavy models affordable while
/// every workload × model pair still runs (pincheck exhaustively).
fn stride_for(workload: &str, model: &str) -> usize {
    match (workload, model) {
        ("pincheck", _) => 1,
        (_, "single-bit-flip") => 7,
        _ => 3,
    }
}

/// The executable specification of one single-fault evaluation,
/// pre-refactor semantics: naive replay from step 0, pc check, one
/// effect, bounded continuation, golden-pair comparison.
fn reference_class(
    exe: &rr_obj::Executable,
    bad_input: &[u8],
    fault: &Fault,
    budget: u64,
    golden_good: &Execution,
    golden_bad: &Execution,
) -> FaultClass {
    let mut machine = Machine::new(exe, bad_input);
    for _ in 0..fault.step {
        if machine.step().is_err() {
            return FaultClass::ReplayDiverged;
        }
    }
    if machine.pc() != fault.pc {
        return FaultClass::ReplayDiverged;
    }
    match fault.effect {
        FaultEffect::SkipInstruction => {
            if machine.skip_instruction().is_err() {
                return FaultClass::Crashed;
            }
        }
        FaultEffect::FlipInstructionBit { byte, bit } => {
            let addr = fault.pc + byte as u64;
            let Some(&current) = machine.peek_bytes(addr, 1).and_then(|b| b.first()) else {
                return FaultClass::Crashed;
            };
            machine.poke_bytes(addr, &[current ^ (1 << bit)]);
        }
        FaultEffect::FlipRegisterBit { reg, bit } => {
            machine.set_reg(reg, machine.reg(reg) ^ (1u64 << bit));
        }
        FaultEffect::FlipFlags { mask } => {
            machine
                .set_flags(rr_isa::Flags::from_bits(machine.flags().to_bits() ^ u64::from(mask)));
        }
    }
    let result = machine.run(budget);
    let faulted =
        Execution { outcome: result.outcome, output: machine.take_output(), steps: result.steps };
    if faulted.same_behavior(golden_good) {
        FaultClass::Success
    } else if faulted.same_behavior(golden_bad) {
        FaultClass::Benign
    } else {
        match faulted.outcome {
            RunOutcome::Crashed { .. } => FaultClass::Crashed,
            RunOutcome::TimedOut => FaultClass::TimedOut,
            RunOutcome::Exited { .. } => FaultClass::Corrupted,
        }
    }
}

fn session(w: &Workload, config: CampaignConfig) -> CampaignSession {
    CampaignSession::builder(w.build().unwrap())
        .good_input(&w.good_input[..])
        .bad_input(&w.bad_input[..])
        .config(config)
        .build()
        .unwrap_or_else(|e| panic!("{}: session setup failed: {e}", w.name))
}

/// Asserts one session's report equals the reference, fault by fault.
fn assert_matches_reference(w: &Workload, s: &CampaignSession, model: &dyn FaultModel) {
    let exe = w.build().unwrap();
    let golden_good = execute(&exe, &w.good_input, 1_000_000);
    let golden_bad = execute(&exe, &w.bad_input, 1_000_000);
    let budget =
        (golden_bad.steps * s.config().faulted_step_multiplier).max(s.config().faulted_min_steps);
    let report: CampaignReport =
        s.run(&[model], Collect).pop().expect("one model in, one report out");
    // The singleton-plan campaign enumerates exactly the flat fault
    // list, in site order — the pre-refactor report shape — minus the
    // faults the default-on static pruning removed. Every pruned fault
    // must classify `Benign` under the reference implementation: the
    // reference is the ground truth the analysis claims to approximate.
    let pruning =
        if s.config().static_prune && !s.config().audit_analysis { s.analysis() } else { None };
    let mut expected_faults: Vec<Fault> = Vec::new();
    for site in s.sites().iter().step_by(s.config().site_stride.max(1)) {
        for fault in model.faults_at(site) {
            if pruning.is_some_and(|a| fault_verdict(a, &fault) == StaticVerdict::Benign) {
                let class =
                    reference_class(&exe, &w.bad_input, &fault, budget, &golden_good, &golden_bad);
                assert_eq!(
                    class,
                    FaultClass::Benign,
                    "{}/{}: statically-pruned {} is not dynamically benign",
                    w.name,
                    model.name(),
                    fault
                );
            } else {
                expected_faults.push(fault);
            }
        }
    }
    assert_eq!(report.results.len(), expected_faults.len(), "{}/{}", w.name, model.name());
    let mut summary_check = 0;
    for (result, fault) in report.results.iter().zip(&expected_faults) {
        assert_eq!(
            result.order(),
            1,
            "{}/{}: order-1 campaigns stay order 1",
            w.name,
            model.name()
        );
        assert_eq!(result.fault(), fault, "{}/{}: fault order changed", w.name, model.name());
        let expected =
            reference_class(&exe, &w.bad_input, fault, budget, &golden_good, &golden_bad);
        assert_eq!(
            result.class,
            expected,
            "{}/{}: {} diverged from the single-fault reference",
            w.name,
            model.name(),
            fault
        );
        if result.class == FaultClass::Success {
            summary_check += 1;
        }
    }
    assert_eq!(report.summary().success, summary_check, "summary agrees with per-fault classes");
}

#[test]
fn singleton_plans_match_the_single_fault_reference_everywhere() {
    for w in all_workloads() {
        for model in models() {
            let stride = stride_for(w.name, model.name());
            let s =
                session(&w, CampaignConfig { site_stride: stride, ..CampaignConfig::default() });
            assert_matches_reference(&w, &s, model.as_ref());
        }
    }
}

// Random engine/scheduling/plan-space knobs must never change a
// singleton classification: every configuration is compared against the
// independent single-fault reference, across all workloads and models.
proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(12))]

    #[test]
    fn singleton_plans_are_invariant_under_every_configuration(
        workload_index in 0usize..4,
        model_index in 0usize..4,
        naive_engine in proptest::arbitrary::any::<bool>(),
        threads in 0usize..5,
        extra_stride in 0usize..3,
        declare_order2 in proptest::arbitrary::any::<bool>(),
    ) {
        let w = &all_workloads()[workload_index];
        let model = &models()[model_index];
        let stride = stride_for(w.name, model.name()) * (1 + extra_stride) + extra_stride;
        // `declare_order2` opens the pair space with a zero-step window:
        // no pair qualifies, so results must still equal the singleton
        // reference — the plan machinery itself must not perturb them.
        let plan = if declare_order2 {
            PlanConfig { order: 2, policy: PairPolicy::WithinWindow { max_gap: 0 }, ..PlanConfig::default() }
        } else {
            PlanConfig::default()
        };
        let config = CampaignConfig {
            engine: if naive_engine { CampaignEngine::Naive } else { CampaignEngine::Checkpointed },
            threads,
            site_stride: stride,
            plan,
            ..CampaignConfig::default()
        };
        let s = session(w, config);
        assert_matches_reference(w, &s, model.as_ref());
    }
}

#[test]
fn bucketed_naive_and_streamed_order_two_campaigns_agree_on_every_workload() {
    let skip: [&dyn FaultModel; 1] = [&InstructionSkip];
    for w in all_workloads() {
        let config = |engine| CampaignConfig {
            engine,
            site_stride: 2,
            plan: PlanConfig {
                order: 2,
                policy: PairPolicy::WithinWindow { max_gap: 8 },
                budget: Some(400),
                seed: 11,
            },
            ..CampaignConfig::default()
        };
        let bucketed_session = session(&w, config(CampaignEngine::Checkpointed));
        let bucketed = bucketed_session.run(&skip, Collect).pop().unwrap();
        let naive = session(&w, config(CampaignEngine::Naive)).run(&skip, Collect).pop().unwrap();
        assert_eq!(naive.results, bucketed.results, "{}", w.name);
        // The streaming sink folds the same classifications.
        let streamed = bucketed_session.run(&skip, Stream).pop().unwrap();
        assert_eq!(streamed.summary, bucketed.summary(), "{}", w.name);
    }
}

/// Both sinks position a checkpointed machine only by bucket sweeps: one
/// restore per sweep, at most one sweep per checkpoint (the campaign fits
/// one stream batch and runs on one thread, so no bucket splits), and one
/// COW clone per executed plan. The counts are exact, unlike wall time.
#[test]
fn bucketed_campaigns_restore_once_per_sweep_through_both_sinks() {
    let w = rr_workloads::pincheck();
    let config = CampaignConfig {
        threads: 1,
        plan: PlanConfig {
            order: 2,
            policy: PairPolicy::WithinWindow { max_gap: 4 },
            budget: Some(300),
            seed: 5,
        },
        ..CampaignConfig::default()
    };
    for streamed in [false, true] {
        let telemetry = Telemetry::counters();
        let s = CampaignSession::builder(w.build().unwrap())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .config(config.clone())
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        if streamed {
            s.run(&[&InstructionSkip as &dyn FaultModel], Stream);
        } else {
            s.run(&[&InstructionSkip as &dyn FaultModel], Collect);
        }
        let m = telemetry.metrics().unwrap();
        let c = |counter| m.counter(counter);
        let executed = c(Counter::CacheMisses);
        assert!(executed > 300, "streamed={streamed}: pairs and singles ran, got {executed}");
        assert!(executed < 1024, "streamed={streamed}: fits one stream batch, got {executed}");
        assert_eq!(c(Counter::CheckpointRestores), c(Counter::BucketSweeps), "streamed={streamed}");
        assert!(
            c(Counter::BucketSweeps) <= s.replay_engine().checkpoint_count() as u64,
            "streamed={streamed}: {} sweeps over {} checkpoints",
            c(Counter::BucketSweeps),
            s.replay_engine().checkpoint_count()
        );
        assert_eq!(c(Counter::CowClones), executed, "streamed={streamed}");
    }
}

#[test]
fn sampled_plan_campaigns_reproduce_from_their_seed() {
    let w = rr_workloads::otp_check();
    let config = |seed| CampaignConfig {
        site_stride: 2,
        plan: PlanConfig {
            order: 2,
            policy: PairPolicy::WithinWindow { max_gap: 16 },
            budget: Some(100),
            seed,
        },
        ..CampaignConfig::default()
    };
    let run = |seed| {
        session(&w, config(seed))
            .run(&[&InstructionSkip as &dyn FaultModel], Collect)
            .pop()
            .unwrap()
    };
    let first = run(7);
    let second = run(7);
    assert_eq!(first.results, second.results, "same seed, same sampled campaign");
    let other = run(8);
    assert_ne!(
        first.results, other.results,
        "a different seed draws (and classifies) a different sample"
    );
    // Sampling only touches orders ≥ 2: the singleton prefix is stable.
    let singles = first.results.iter().filter(|r| r.order() == 1).count();
    assert_eq!(
        first.results[..singles],
        other.results[..singles],
        "order-1 results are sampling-independent"
    );
}
