//! Execution-mode equivalence: the uop tier
//! ([`rr_fault::ExecMode::Uops`], the default) — superblocks decoded once
//! into micro-op bodies — must classify every fault exactly like the
//! per-step interpreter ([`rr_fault::ExecMode::Interp`]), for every
//! workload, engine, and thread count.
//!
//! This is the bit-identity contract the acceleration rests on: the
//! micro-op bodies are lowered from the *same* decoded instructions over
//! the *same* bytes (deferring NZCV materialization, but never past an
//! observable point), run code the session modified from blocks decoded
//! out of the faulted machine's own bytes (injections mark their ranges
//! exec-dirty, which retires the shared blocks over them), and stop at
//! exactly the same step for fences, budgets, crashes, and exits. Any
//! divergence here is a bug in the block cache (stale decode, missed
//! self-modification), the lowering (wrong micro-op, flags materialized
//! too lazily), or the fence arithmetic, and would silently corrupt
//! campaign results — so the comparison is on full reports, fault by
//! fault.

use rr_fault::{
    CampaignConfig, CampaignEngine, CampaignReport, CampaignSession, Collect, ExecMode, FaultModel,
    InstructionSkip, PairPolicy, PlanConfig, SingleBitFlip,
};
use rr_telemetry::{Counter, Telemetry};
use rr_workloads::Workload;

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
/// tier classify identically, report for report.
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
            let context = format!("{} engine={engine} threads={threads}", w.name);
            let fast = session(&w, CampaignConfig { exec: ExecMode::Uops, ..base });
            let fast_skip = run_one(&fast, &InstructionSkip);
            assert_reports_equal(&interp_skip, &fast_skip, &format!("{context} skip"));
            assert_reports_equal(
                &interp_flip,
                &run_one(&fast, &SingleBitFlip),
                &format!("{context} bitflip"),
            );
            assert_eq!(fast_skip.summary().diverged, 0, "{context}: accelerated replay diverged");
        }
    }
}

/// Multi-fault plans inject at several timed points of one continuation;
/// micro-op bodies must honour every intermediate fence exactly, and a second code poke in one continuation must retire the
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
    let fast = session(&w, CampaignConfig { exec: ExecMode::Uops, ..base });
    for model in models {
        let interp_report = run_one(&interp, model);
        assert!(!interp_report.results.is_empty(), "{}: no order-2 plans", model.name());
        assert_reports_equal(
            &interp_report,
            &run_one(&fast, model),
            &format!("pincheck order-2 {}", model.name()),
        );
    }
}

/// The default config really is the uop tier: an explicitly-interp
/// session and a default one still agree on a full campaign.
#[test]
fn default_session_is_uop_compiled_and_equivalent() {
    assert_eq!(CampaignConfig::default().exec, ExecMode::Uops);
    let w = rr_workloads::otp_check();
    let default = session(&w, CampaignConfig::default());
    let interp =
        session(&w, CampaignConfig { exec: ExecMode::Interp, ..CampaignConfig::default() });
    assert_reports_equal(
        &run_one(&interp, &InstructionSkip),
        &run_one(&default, &InstructionSkip),
        "otp default-vs-interp",
    );
}

/// The uop tier carries a whole campaign: on a long loop of arithmetic
/// and stack traffic, a uniform skip campaign classifies exactly as on
/// the interpreter while its steps run from decoded micro-op bodies, not
/// from the interpreter (which runs only crashing steps).
#[test]
fn uop_tier_runs_a_uniform_campaign_on_decoded_blocks() {
    let exe = rr_asm::assemble_and_link(
        "    .global _start\n\
         _start:\n\
             mov r1, 2500\n\
             mov r2, 0\n\
         .loop:\n\
             push r1\n\
             add r2, 7\n\
             xor r2, r1\n\
             pop r3\n\
             sub r1, 1\n\
             cmp r1, 0\n\
             jne .loop\n\
             svc 2\n\
             cmp r0, 'G'\n\
             jne .deny\n\
             mov r1, 'Y'\n\
             svc 1\n\
             mov r1, 0\n\
             svc 0\n\
         .deny:\n\
             mov r1, 'N'\n\
             svc 1\n\
             mov r1, 1\n\
             svc 0\n",
    )
    .expect("push/pop program builds");
    let session = |exec, telemetry| {
        CampaignSession::builder(exe.clone())
            .good_input(&b"G"[..])
            .bad_input(&b"B"[..])
            .config(CampaignConfig { site_stride: 59, exec, ..CampaignConfig::default() })
            .telemetry(telemetry)
            .build()
            .expect("session sets up")
    };
    let interp = session(ExecMode::Interp, Telemetry::disabled());
    let telemetry = Telemetry::counters();
    let uops = session(ExecMode::Uops, telemetry.clone());
    assert!(interp.golden_bad().steps >= 15_000, "{} steps", interp.golden_bad().steps);
    assert_reports_equal(
        &run_one(&interp, &InstructionSkip),
        &run_one(&uops, &InstructionSkip),
        "push/pop loop",
    );
    let metrics = telemetry.metrics().expect("counters telemetry is enabled");
    assert!(metrics.counter(Counter::BlocksDecoded) > 0, "no blocks decoded");
    let (uop_steps, interp_steps) =
        (metrics.counter(Counter::UopSteps), metrics.counter(Counter::InterpSteps));
    assert!(uop_steps > 9 * interp_steps, "{uop_steps} uop vs {interp_steps} interpreted steps");
}
