//! Block-cached execution vs the per-step interpreter on a full
//! checkpointed campaign.
//!
//! Both sessions share everything except how they execute: the same
//! long-trace workload, the same checkpointed replay engine, the same
//! uniform skip campaign. The block-cached session runs the default uop
//! tier, so it decodes the text into micro-op superblocks once at
//! construction and fast-forwards every un-instrumented stretch — golden
//! recording between fences, replay positioning after a restore, and
//! post-injection continuations — through those bodies instead of
//! per-step fetch/decode. The interpreter session is the reference. Reports are asserted
//! bit-identical before any timing is trusted, the wall-clock ratio is
//! gated at ≥2×, and a `BENCH_blockexec.json` record lands in the bench
//! results directory with the campaign's plans/sec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rr_fault::{
    CampaignConfig, CampaignReport, CampaignSession, Collect, ExecMode, FaultModel, InstructionSkip,
};
use rr_obj::Executable;
use rr_telemetry::{Counter, Telemetry};
use std::time::{Duration, Instant};

/// A pincheck with a long mixed prologue (arithmetic + stack traffic):
/// ≥15k executed instructions before the grant/deny decision, so the
/// fetch/decode loop dominates the interpreter's cost.
fn long_trace_workload() -> (Executable, Vec<u8>, Vec<u8>) {
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
    .expect("long-trace workload builds");
    (exe, b"G".to_vec(), b"B".to_vec())
}

fn session(
    exe: &Executable,
    good: &[u8],
    bad: &[u8],
    exec: ExecMode,
    telemetry: Telemetry,
) -> CampaignSession {
    let config = CampaignConfig {
        golden_max_steps: 10_000_000,
        site_stride: 59,
        exec,
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

fn bench_blockexec(c: &mut Criterion) {
    let (exe, good, bad) = long_trace_workload();
    let interp = session(&exe, &good, &bad, ExecMode::Interp, Telemetry::disabled());
    let telemetry = Telemetry::counters();
    let blocks = session(&exe, &good, &bad, ExecMode::Uops, telemetry.clone());
    let trace_len = interp.golden_bad().steps;
    assert!(trace_len >= 15_000, "trace must be ≥15k steps, got {trace_len}");

    // Bit-identity first: the speed knob must not change one class.
    let interp_report = run_one(&interp, &InstructionSkip);
    let blocks_report = run_one(&blocks, &InstructionSkip);
    assert_eq!(
        interp_report.results, blocks_report.results,
        "exec modes must classify identically"
    );
    let faults = interp_report.results.len() as u64;

    // The cache actually carried the campaign: decoded blocks exist and
    // uop steps dominate interpreted ones.
    let metrics = telemetry.metrics().expect("counters telemetry is enabled");
    assert!(metrics.counter(Counter::BlocksDecoded) > 0, "no blocks decoded");
    let uop_steps = metrics.counter(Counter::UopSteps);
    let interp_steps = metrics.counter(Counter::InterpSteps);
    assert!(
        uop_steps > 9 * interp_steps,
        "block execution must dominate: {uop_steps} uop vs {interp_steps} interpreted steps"
    );

    let mut group = c.benchmark_group("blockexec");
    group.sample_size(10);
    group.throughput(Throughput::Elements(faults));
    group.bench_with_input(BenchmarkId::new("uniform", "interp"), &(), |b, ()| {
        b.iter(|| run_one(&interp, &InstructionSkip).results.len())
    });
    group.bench_with_input(BenchmarkId::new("uniform", "blocks"), &(), |b, ()| {
        b.iter(|| run_one(&blocks, &InstructionSkip).results.len())
    });
    group.finish();

    // Headline: interleaved min-of-N wall times on the same two
    // sessions, robust to scheduler noise.
    let mut best_interp = Duration::MAX;
    let mut best_blocks = Duration::MAX;
    const ROUNDS: usize = 5;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let _ = run_one(&interp, &InstructionSkip);
        best_interp = best_interp.min(start.elapsed());
        let start = Instant::now();
        let _ = run_one(&blocks, &InstructionSkip);
        best_blocks = best_blocks.min(start.elapsed());
    }
    let speedup = best_interp.as_secs_f64() / best_blocks.as_secs_f64().max(1e-9);
    println!(
        "blockexec/uniform ({trace_len} steps, {faults} faults): interp {best_interp:?}, \
         blocks {best_blocks:?} — speedup: {speedup:.1}×"
    );

    // Campaign throughput under blocks, from the metrics delta around
    // one more measured run.
    let before = telemetry.metrics().expect("counters telemetry is enabled");
    let _ = run_one(&blocks, &InstructionSkip);
    let after = telemetry.metrics().expect("counters telemetry is enabled");
    let plans_per_sec = after.delta_since(&before).plans_per_sec();

    const GATE: f64 = 2.0;
    rr_bench::write_bench_json(
        "blockexec",
        &[
            ("speedup", ((speedup * 100.0).round() / 100.0).into()),
            ("gate", GATE.into()),
            ("passed", (speedup >= GATE).into()),
            ("trace_steps", (trace_len as f64).into()),
            ("faults", (faults as f64).into()),
            ("uop_steps", (uop_steps as f64).into()),
            ("interp_steps", (interp_steps as f64).into()),
            ("plans_per_sec", plans_per_sec.round().into()),
        ],
    )
    .expect("bench record writes");
    assert!(
        speedup >= GATE,
        "block-cached execution must be ≥{GATE}× faster on a uniform campaign, got {speedup:.1}×"
    );
}

criterion_group!(benches, bench_blockexec);
criterion_main!(benches);
