//! Execution-mode equivalence: the uop tier
//! ([`rr_fault::ExecMode::Uops`], the default) — pre-decoded superblock
//! bodies for cold blocks, compiled micro-op traces for hot ones — must
//! classify every fault exactly like the per-step interpreter
//! ([`rr_fault::ExecMode::Interp`]), for every workload, engine, and
//! thread count.
//!
//! This is the bit-identity contract the acceleration rests on: the
//! decoded bodies run the *same* decoded instructions over the *same*
//! bytes (compiled bodies additionally pre-lower them and defer NZCV
//! materialization, but never past an observable point), run code the
//! session modified from blocks decoded out of the faulted machine's own
//! bytes (injections mark their ranges exec-dirty, which retires the
//! shared blocks over them), and stop at exactly the same step for
//! fences, budgets, crashes, and exits. Any divergence here is a bug in
//! the block cache (stale decode, missed self-modification), the uop
//! compiler (wrong lowering, flags materialized too lazily), or the
//! fence arithmetic, and would silently corrupt campaign results — so
//! the comparison is on full reports, fault by fault.

use rr_fault::{
    CampaignConfig, CampaignEngine, CampaignReport, CampaignSession, Collect, ExecMode, FaultModel,
    InstructionSkip, PairPolicy, PlanConfig, SingleBitFlip, UopConfig,
};
use rr_workloads::Workload;

/// The uop tier on decoded bodies only (a threshold no block reaches)
/// and at the default tiering, each compared against the interpreter.
const ACCEL_CONFIGS: [UopConfig; 2] =
    [UopConfig { hot_threshold: u32::MAX }, UopConfig { hot_threshold: 2 }];

fn session(w: &Workload, config: CampaignConfig) -> CampaignSession {
    CampaignSession::builder(w.build().unwrap_or_else(|e| panic!("{}: build failed: {e}", w.name)))
        .good_input(&w.good_input[..])
        .bad_input(&w.bad_input[..])
        .config(config)
        .build()
        .unwrap_or_else(|e| panic!("{}: session setup failed: {e}", w.name))
}

fn run_one(s: &CampaignSession, model: &dyn FaultModel) -> CampaignReport {
    s.run(&[model], Collect).pop().expect("one report per model")
}

fn assert_reports_equal(a: &CampaignReport, b: &CampaignReport, context: &str) {
    assert_eq!(a.results.len(), b.results.len(), "{context}: fault counts differ");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(
            x,
            y,
            "{context}: classification diverged at step {} pc {:#x}",
            x.fault().step,
            x.fault().pc
        );
    }
}

/// Every workload, both engines, serial and parallel: interp and the uop
/// tier (decoded-only and tiered) classify identically, report for
/// report.
#[test]
fn accelerated_tiers_match_interp_across_workloads_engines_and_scheduling() {
    for w in rr_workloads::all_workloads() {
        // Keep the grid affordable: skip is exhaustive on every
        // workload, and strided bit flips cover the code-corrupting
        // effect whose continuations run from blocks decoded out of the
        // faulted machine's memory.
        for (engine, threads) in [
            (CampaignEngine::Checkpointed, 1),
            (CampaignEngine::Checkpointed, 4),
            (CampaignEngine::Naive, 1),
        ] {
            let base =
                CampaignConfig { engine, threads, site_stride: 2, ..CampaignConfig::default() };
            let interp = session(&w, CampaignConfig { exec: ExecMode::Interp, ..base.clone() });
            let interp_skip = run_one(&interp, &InstructionSkip);
            let interp_flip = run_one(&interp, &SingleBitFlip);
            for uop in ACCEL_CONFIGS {
                let context = format!(
                    "{} engine={engine} threads={threads} hot={}",
                    w.name, uop.hot_threshold
                );
                let fast =
                    session(&w, CampaignConfig { exec: ExecMode::Uops, uop, ..base.clone() });
                assert_reports_equal(
                    &interp_skip,
                    &run_one(&fast, &InstructionSkip),
                    &format!("{context} skip"),
                );
                assert_reports_equal(
                    &interp_flip,
                    &run_one(&fast, &SingleBitFlip),
                    &format!("{context} bitflip"),
                );
                assert_eq!(
                    run_one(&fast, &InstructionSkip).summary().diverged,
                    0,
                    "{context}: accelerated replay diverged"
                );
            }
        }
    }
}

/// Multi-fault plans inject at several timed points of one continuation;
/// decoded and compiled bodies must honour every intermediate fence
/// exactly, and a second code poke in one continuation must retire the
/// blocks decoded after the first.
#[test]
fn accelerated_tiers_match_interp_for_double_fault_plans() {
    let w = rr_workloads::pincheck();
    let base = CampaignConfig {
        plan: PlanConfig {
            order: 2,
            policy: PairPolicy::WithinWindow { max_gap: 6 },
            budget: Some(2_000),
            seed: 7,
        },
        ..CampaignConfig::default()
    };
    let models: [&dyn FaultModel; 2] = [&InstructionSkip, &SingleBitFlip];
    let interp = session(&w, CampaignConfig { exec: ExecMode::Interp, ..base.clone() });
    for model in models {
        let interp_report = run_one(&interp, model);
        assert!(!interp_report.results.is_empty(), "{}: no order-2 plans", model.name());
        for uop in ACCEL_CONFIGS {
            let fast = session(&w, CampaignConfig { exec: ExecMode::Uops, uop, ..base.clone() });
            assert_reports_equal(
                &interp_report,
                &run_one(&fast, model),
                &format!("pincheck order-2 {} hot={}", model.name(), uop.hot_threshold),
            );
        }
    }
}

/// The default config really is uop-compiled: an explicitly-interp
/// session and a default one still agree on a full campaign, and an
/// eager-compile threshold agrees with the tiered default.
#[test]
fn default_session_is_uop_compiled_and_equivalent() {
    assert_eq!(CampaignConfig::default().exec, ExecMode::Uops);
    let w = rr_workloads::otp_check();
    let default = session(&w, CampaignConfig::default());
    let interp =
        session(&w, CampaignConfig { exec: ExecMode::Interp, ..CampaignConfig::default() });
    let default_report = run_one(&default, &InstructionSkip);
    assert_reports_equal(
        &run_one(&interp, &InstructionSkip),
        &default_report,
        "otp default-vs-interp",
    );
    // Eager compilation (threshold 0) must not change a single verdict
    // relative to the tiered default threshold.
    let eager = session(
        &w,
        CampaignConfig { uop: UopConfig { hot_threshold: 0 }, ..CampaignConfig::default() },
    );
    assert_reports_equal(
        &default_report,
        &run_one(&eager, &InstructionSkip),
        "otp tiered-vs-eager",
    );
}
