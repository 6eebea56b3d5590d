//! Checkpoint-neighbourhood plan bucketing vs naive per-plan restore on
//! an order-2 windowed campaign — the wall-clock gate for the
//! multi-fault scheduler.
//!
//! The workload is the long-trace pincheck shape (checksum prologue, then
//! a short security decision) with a **pinned, wide checkpoint interval**:
//! exactly the regime where per-plan positioning hurts. Every double-fault
//! plan aimed at the decision window restores the last checkpoint and
//! steps a few hundred instructions forward; naive scheduling pays that
//! restore-plus-replay once *per plan*, while bucketed scheduling
//! ([`rr_engine::shard::run_bucketed`]) restores each checkpoint once per
//! neighbourhood, walks forward once, and evaluates every plan on a cheap
//! COW clone of the in-flight cursor.
//!
//! Gate: bucketing must be **≥ 2× faster** end to end on the same
//! campaign while classifying identically. The measured numbers land in
//! `BENCH_multifault.json`.

use rr_bench::{write_bench_json, BenchValue};
use rr_fault::{
    CampaignConfig, CampaignReport, CampaignSession, Collect, Fault, FaultEffect, FaultModel,
    FaultSite, PairPolicy, PlanConfig,
};
use rr_obj::Executable;
use rr_telemetry::Telemetry;
use std::time::{Duration, Instant};

/// Instruction skips restricted to trace steps at or after `from_step` —
/// the "attack the decision, not the warm-up" model.
struct TailSkip {
    from_step: u64,
}

impl FaultModel for TailSkip {
    fn name(&self) -> &'static str {
        "tail-skip"
    }

    fn faults_at(&self, site: &FaultSite) -> Vec<Fault> {
        if site.step < self.from_step {
            return Vec::new();
        }
        vec![Fault { step: site.step, pc: site.pc, effect: FaultEffect::SkipInstruction }]
    }
}

/// A pincheck with a long checksum prologue (≥4k executed instructions)
/// before the grant/deny decision.
fn long_trace_workload() -> (Executable, Vec<u8>, Vec<u8>) {
    let exe = rr_asm::assemble_and_link(
        "    .global _start\n\
         _start:\n\
             mov r1, 800\n\
             mov r2, 0\n\
         .loop:\n\
             add r2, 7\n\
             xor r2, r1\n\
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
    .expect("long-trace workload builds");
    (exe, b"G".to_vec(), b"B".to_vec())
}

fn order2_session(
    exe: &Executable,
    good: &[u8],
    bad: &[u8],
    bucketing: bool,
    telemetry: Telemetry,
) -> CampaignSession {
    let config = CampaignConfig {
        golden_max_steps: 10_000_000,
        // One worker: the gate measures scheduling quality, not core
        // count.
        threads: 1,
        // Pinned to decoded bodies (a hot threshold no block reaches)
        // for the same reason: compiled uop bodies speed up forward
        // positioning — the very cost bucketing amortizes — which would
        // fold execution-tier gains into the scheduling ratio. The uop
        // bench gates compilation separately.
        uop: rr_fault::UopConfig { hot_threshold: u32::MAX },
        // A pinned wide interval models long traces under a tight
        // checkpoint byte budget — per-plan positioning pays hundreds of
        // forward steps, which is precisely what bucketing amortizes.
        checkpoint_interval: 512,
        bucketing,
        plan: PlanConfig {
            order: 2,
            policy: PairPolicy::WithinWindow { max_gap: 12 },
            ..PlanConfig::default()
        },
        ..CampaignConfig::default()
    };
    CampaignSession::builder(exe.clone())
        .good_input(good)
        .bad_input(bad)
        .config(config)
        .telemetry(telemetry)
        .build()
        .expect("session sets up")
}

fn run_campaign(session: &CampaignSession, model: &dyn FaultModel) -> (CampaignReport, Duration) {
    let start = Instant::now();
    let report = session.run(&[model], Collect).pop().expect("one report per model");
    (report, start.elapsed())
}

fn main() {
    let (exe, good, bad) = long_trace_workload();
    let probe = order2_session(&exe, &good, &bad, true, Telemetry::disabled());
    let trace_len = probe.golden_bad().steps;
    assert!(trace_len >= 4_000, "trace must be ≥4k steps, got {trace_len}");
    // Aim the double faults at the decision window at the end of the
    // trace (where real attacks land): ~1.2k order-≤2 plans, all of them
    // hundreds of steps past the last retained checkpoint.
    let tail = TailSkip { from_step: trace_len - 96 };

    // Warm-up (page in code paths), then measure each scheduler on its
    // own session.
    let _ = run_campaign(&probe, &tail);
    let per_plan_session = order2_session(&exe, &good, &bad, false, Telemetry::disabled());
    let (per_plan_report, per_plan_time) = run_campaign(&per_plan_session, &tail);
    // Counters-only telemetry on the bucketed side (its cost is gated at
    // ≤2% by the engine bench) sources the record's plans/sec rate.
    let telemetry = Telemetry::counters();
    let bucketed_session = order2_session(&exe, &good, &bad, true, telemetry.clone());
    let metrics_before = telemetry.metrics().expect("counters telemetry is enabled");
    let (bucketed_report, bucketed_time) = run_campaign(&bucketed_session, &tail);
    let metrics_after = telemetry.metrics().expect("counters telemetry is enabled");
    let plans_per_sec = metrics_after.delta_since(&metrics_before).plans_per_sec();

    // Correctness first: scheduling must be invisible in the results.
    assert_eq!(
        per_plan_report.results, bucketed_report.results,
        "bucketed and per-plan campaigns must classify identically"
    );
    let plans = bucketed_report.results.len();
    let pairs = bucketed_report.results.iter().filter(|r| r.order() == 2).count();
    assert!(pairs > 100, "the pair space must dominate the campaign, got {pairs}");

    let speedup = per_plan_time.as_secs_f64() / bucketed_time.as_secs_f64().max(1e-9);
    println!(
        "multifault/order-2 ({trace_len} steps, {plans} plans, {pairs} pairs): \
         per-plan {per_plan_time:?}, bucketed {bucketed_time:?} — speedup: {speedup:.1}×",
    );
    const GATE: f64 = 2.0;
    write_bench_json(
        "multifault",
        &[
            ("speedup", BenchValue::Num((speedup * 100.0).round() / 100.0)),
            ("gate", BenchValue::Num(GATE)),
            ("passed", BenchValue::Bool(speedup >= GATE)),
            ("plans", BenchValue::Num(plans as f64)),
            ("pairs", BenchValue::Num(pairs as f64)),
            ("trace_steps", BenchValue::Num(trace_len as f64)),
            ("plans_per_sec", BenchValue::Num(plans_per_sec.round())),
        ],
    )
    .expect("bench record writes");
    assert!(
        speedup >= GATE,
        "checkpoint-neighbourhood bucketing must be ≥{GATE}× faster than per-plan \
         restore on an order-2 windowed campaign, got {speedup:.1}×"
    );
}
