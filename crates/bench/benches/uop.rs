//! Compiled uop execution vs pre-decoded superblocks on a
//! decision-window campaign.
//!
//! Both sessions run the uop tier and share everything except
//! [`CampaignConfig::uop`]: the default hot threshold against one no
//! block reaches (decoded bodies only). They run the same long-trace
//! workload (a flag-heavy checksum loop ending in a short grant/deny
//! decision), the same naive replay engine, and the same tail-targeted
//! skip campaign. Faults aim at the decision window, so
//! every evaluation is dominated by forward positioning across the
//! long prologue — the stretch where the uop tier's pre-extracted
//! operands, pre-resolved fallthroughs, fused compare-and-branch
//! dispatch, and lazy NZCV materialization beat re-walking the decoded
//! bodies. Reports are asserted bit-identical before any timing is
//! trusted, the wall-clock ratio is gated at ≥1.3×, and a
//! `BENCH_uop.json` record lands in the bench results directory with
//! the campaign's plans/sec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rr_fault::{
    CampaignConfig, CampaignEngine, CampaignReport, CampaignSession, Collect, Fault, FaultEffect,
    FaultModel, FaultSite, InstructionSkip, UopConfig,
};
use rr_obj::Executable;
use rr_telemetry::{Counter, Telemetry};
use std::time::{Duration, Instant};

/// Instruction skips restricted to trace steps at or after `from_step` —
/// the decision-window attack model (same shape as the engine bench).
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

/// A pincheck with a long flag-heavy prologue (arithmetic, shifts,
/// compares, a fused countdown exit): ≥25k executed instructions before
/// the grant/deny decision.
fn long_trace_workload() -> (Executable, Vec<u8>, Vec<u8>) {
    let exe = rr_asm::assemble_and_link(
        "    .global _start\n\
         _start:\n\
             mov r1, 4000\n\
             mov r2, 0\n\
         .loop:\n\
             add r2, 7\n\
             xor r2, r1\n\
             shl r2, 1\n\
             sar r2, 1\n\
             add r3, r2\n\
             test r3, r3\n\
             jeq .loop\n\
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

fn session(
    exe: &Executable,
    good: &[u8],
    bad: &[u8],
    uop: UopConfig,
    telemetry: Telemetry,
) -> CampaignSession {
    // Naive replay positions every fault from step 0, so each of the
    // decision-window evaluations re-executes the whole prologue through
    // the tier under test — the comparison measures execution speed, not
    // checkpoint-restore overhead.
    let config = CampaignConfig {
        golden_max_steps: 10_000_000,
        engine: CampaignEngine::Naive,
        uop,
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

fn run_one(session: &CampaignSession, model: &dyn FaultModel) -> CampaignReport {
    session.run(&[model], Collect).pop().expect("one report per model")
}

fn bench_uop(c: &mut Criterion) {
    let (exe, good, bad) = long_trace_workload();
    let decoded = UopConfig { hot_threshold: u32::MAX };
    let blocks = session(&exe, &good, &bad, decoded, Telemetry::disabled());
    let telemetry = Telemetry::counters();
    let uops = session(&exe, &good, &bad, UopConfig::default(), telemetry.clone());
    let trace_len = blocks.golden_bad().steps;
    assert!(trace_len >= 25_000, "trace must be ≥25k steps, got {trace_len}");
    let tail = TailSkip { from_step: trace_len - 24 };

    // Bit-identity first: the tier must not change one class — on the
    // decision-window campaign and on a uniform sweep.
    let blocks_report = run_one(&blocks, &tail);
    let uops_report = run_one(&uops, &tail);
    assert_eq!(blocks_report.results, uops_report.results, "exec tiers must classify identically");
    assert_eq!(
        run_one(&blocks, &InstructionSkip).summary(),
        run_one(&uops, &InstructionSkip).summary(),
        "uniform sweeps must agree too"
    );
    let faults = blocks_report.results.len() as u64;

    // The compiled tier actually carried the campaign: hot superblocks
    // were promoted and compiled, uop-executed steps dominate both
    // decoded-block and interpreted steps.
    let metrics = telemetry.metrics().expect("counters telemetry is enabled");
    assert!(metrics.counter(Counter::BlocksCompiled) > 0, "no blocks compiled");
    assert!(metrics.counter(Counter::TierPromotions) > 0, "no tier promotions");
    let uop_steps = metrics.counter(Counter::UopSteps);
    let block_steps = metrics.counter(Counter::BlockSteps);
    let interp_steps = metrics.counter(Counter::InterpSteps);
    assert!(
        uop_steps > 9 * (block_steps + interp_steps),
        "uop execution must dominate: {uop_steps} uop vs {block_steps} block + {interp_steps} \
         interpreted steps"
    );

    let mut group = c.benchmark_group("uop");
    group.sample_size(10);
    group.throughput(Throughput::Elements(faults));
    group.bench_with_input(BenchmarkId::new("tail", "blocks"), &(), |b, ()| {
        b.iter(|| run_one(&blocks, &tail).results.len())
    });
    group.bench_with_input(BenchmarkId::new("tail", "uops"), &(), |b, ()| {
        b.iter(|| run_one(&uops, &tail).results.len())
    });
    group.finish();

    // Headline: interleaved min-of-N wall times on the same two
    // sessions, robust to scheduler noise.
    let mut best_blocks = Duration::MAX;
    let mut best_uops = Duration::MAX;
    const ROUNDS: usize = 7;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let _ = run_one(&blocks, &tail);
        best_blocks = best_blocks.min(start.elapsed());
        let start = Instant::now();
        let _ = run_one(&uops, &tail);
        best_uops = best_uops.min(start.elapsed());
    }
    let speedup = best_blocks.as_secs_f64() / best_uops.as_secs_f64().max(1e-9);
    println!(
        "uop/tail ({trace_len} steps, {faults} faults): blocks {best_blocks:?}, \
         uops {best_uops:?} — speedup: {speedup:.2}×"
    );

    // Campaign throughput under uops, from the metrics delta around one
    // more measured run.
    let before = telemetry.metrics().expect("counters telemetry is enabled");
    let _ = run_one(&uops, &tail);
    let after = telemetry.metrics().expect("counters telemetry is enabled");
    let plans_per_sec = after.delta_since(&before).plans_per_sec();

    const GATE: f64 = 1.3;
    rr_bench::write_bench_json(
        "uop",
        &[
            ("speedup", ((speedup * 100.0).round() / 100.0).into()),
            ("gate", GATE.into()),
            ("passed", (speedup >= GATE).into()),
            ("trace_steps", (trace_len as f64).into()),
            ("faults", (faults as f64).into()),
            ("uop_steps", (uop_steps as f64).into()),
            ("block_steps", (block_steps as f64).into()),
            ("interp_steps", (interp_steps as f64).into()),
            ("plans_per_sec", plans_per_sec.round().into()),
        ],
    )
    .expect("bench record writes");
    assert!(
        speedup >= GATE,
        "compiled uop execution must be ≥{GATE}× faster than decoded superblocks on the \
         decision-window campaign, got {speedup:.2}×"
    );
}

criterion_group!(benches, bench_uop);
criterion_main!(benches);
