//! Naive vs checkpointed campaign engines on a long-trace workload.
//!
//! The workload models the paper's targets at scale: a long background
//! computation (checksum loop, ≥10k executed instructions) followed by a
//! short security decision. Two campaigns are measured:
//!
//! * **tail** — faults aimed at the decision window at the end of the
//!   trace (where the attacker aims; every real pincheck vulnerability
//!   lives there). Naive replay pays the whole trace per fault; the
//!   checkpointed engine restores a nearby snapshot, so the gap is
//!   enormous: orders of magnitude in executed steps.
//! * **uniform** — faults spread over the whole trace with a stride.
//!   Here the post-injection continuation (which no engine can skip)
//!   dominates half the work, bounding the ideal speedup near 2×.
//!
//! With the session API the engine is fixed at construction
//! ([`CampaignConfig::engine`]), so each side of the comparison is its
//! own [`CampaignSession`] — naive sessions don't even record snapshots.
//!
//! The gate is exact: on the default tier, the naive engine must execute
//! at least 14× the emulated steps the checkpointed engine does on the
//! tail campaign, and the checkpointed engine must restore once per
//! bucket sweep. Single-shot wall times of this sub-millisecond campaign
//! are set by per-run fixed costs, not by the engine, so they are
//! printed and recorded in `BENCH_engine.json` without a gate. The
//! telemetry-overhead ratio stays gated.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rr_fault::{
    CampaignConfig, CampaignEngine, CampaignReport, CampaignSession, Collect, ExecMode, Fault,
    FaultEffect, FaultModel, FaultSite, InstructionSkip,
};
use rr_obj::Executable;
use rr_telemetry::{Counter, Telemetry};
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

/// A pincheck with a long checksum prologue: ≥10k executed instructions
/// before the grant/deny decision.
fn long_trace_workload() -> (Executable, Vec<u8>, Vec<u8>) {
    let exe = rr_asm::assemble_and_link(
        "    .global _start\n\
         _start:\n\
             mov r1, 3000\n\
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

fn fresh_session(
    exe: &Executable,
    good: &[u8],
    bad: &[u8],
    stride: usize,
    engine: CampaignEngine,
) -> CampaignSession {
    fresh_session_exec(exe, good, bad, stride, engine, ExecMode::Interp, Telemetry::disabled())
}

fn fresh_session_exec(
    exe: &Executable,
    good: &[u8],
    bad: &[u8],
    stride: usize,
    engine: CampaignEngine,
    exec: ExecMode,
    telemetry: Telemetry,
) -> CampaignSession {
    let config = CampaignConfig {
        golden_max_steps: 10_000_000,
        site_stride: stride,
        engine,
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

/// The exact work one campaign does on a fresh default-tier session
/// under `engine`, from the metrics delta around it (the golden
/// recording at session build is not counted).
struct Work {
    report: CampaignReport,
    /// Emulated steps executed, summed over the tiers.
    steps: u64,
    restores: u64,
    sweeps: u64,
}

fn measure_work(
    exe: &Executable,
    good: &[u8],
    bad: &[u8],
    engine: CampaignEngine,
    model: &dyn FaultModel,
) -> Work {
    let session =
        fresh_session_exec(exe, good, bad, 1, engine, ExecMode::Uops, Telemetry::counters());
    let before = session.metrics().expect("counters telemetry is enabled");
    let report = run_one(&session, model);
    let after = session.metrics().expect("counters telemetry is enabled");
    let delta = after.delta_since(&before);
    Work {
        report,
        steps: delta.counter(Counter::UopSteps) + delta.counter(Counter::InterpSteps),
        restores: delta.counter(Counter::CheckpointRestores),
        sweeps: delta.counter(Counter::BucketSweeps),
    }
}

fn run_one(session: &CampaignSession, model: &dyn FaultModel) -> CampaignReport {
    session.run(&[model], Collect).pop().expect("one report per model")
}

/// Telemetry overhead gate: with only the free atomic counters attached
/// (no sink, no span clocks), the instrumented campaign hot path must
/// cost ≤2% against a telemetry-free session on the same uniform
/// campaign. One worker thread (inline evaluation) and interleaved
/// min-of-N runs keep the comparison robust to scheduler noise. Returns
/// the measured cost ratio and the campaign's plans/sec throughput.
fn measure_telemetry_overhead(exe: &Executable, good: &[u8], bad: &[u8]) -> (f64, f64) {
    let session_with = |telemetry: Telemetry| {
        let config = CampaignConfig {
            golden_max_steps: 10_000_000,
            site_stride: 97,
            threads: 1,
            engine: CampaignEngine::Checkpointed,
            ..CampaignConfig::default()
        };
        CampaignSession::builder(exe.clone())
            .good_input(good)
            .bad_input(bad)
            .config(config)
            .telemetry(telemetry)
            .build()
            .expect("session sets up")
    };
    let plain = session_with(Telemetry::disabled());
    let counted = session_with(Telemetry::counters());

    let mut best_plain = Duration::MAX;
    let mut best_counted = Duration::MAX;
    const ROUNDS: usize = 7;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let _ = run_one(&plain, &InstructionSkip);
        best_plain = best_plain.min(start.elapsed());
        let start = Instant::now();
        let _ = run_one(&counted, &InstructionSkip);
        best_counted = best_counted.min(start.elapsed());
    }
    let overhead = best_counted.as_secs_f64() / best_plain.as_secs_f64().max(1e-9);

    // Campaign throughput for the bench record, from the metrics
    // snapshot delta around one more measured run.
    let before = counted.metrics().expect("counters telemetry is enabled");
    let _ = run_one(&counted, &InstructionSkip);
    let after = counted.metrics().expect("counters telemetry is enabled");
    let plans_per_sec = after.delta_since(&before).plans_per_sec();

    println!(
        "engine/telemetry-overhead: plain {best_plain:?}, counted {best_counted:?} — \
         ratio {overhead:.3}×, {plans_per_sec:.0} plans/s",
    );
    (overhead, plans_per_sec)
}

fn bench_engines(c: &mut Criterion) {
    let (exe, good, bad) = long_trace_workload();
    let probe = fresh_session(&exe, &good, &bad, 1, CampaignEngine::Checkpointed);
    let trace_len = probe.golden_bad().steps;
    assert!(trace_len >= 10_000, "trace must be ≥10k steps, got {trace_len}");
    let tail = TailSkip { from_step: trace_len - 16 };
    let tail_faults = run_one(&probe, &tail).results.len() as u64;

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);

    group.throughput(Throughput::Elements(tail_faults));
    group.bench_with_input(BenchmarkId::new("tail", "naive"), &(), |b, ()| {
        let session = fresh_session(&exe, &good, &bad, 1, CampaignEngine::Naive);
        b.iter(|| run_one(&session, &tail).results.len())
    });
    group.bench_with_input(BenchmarkId::new("tail", "checkpoint"), &(), |b, ()| {
        let session = fresh_session(&exe, &good, &bad, 1, CampaignEngine::Checkpointed);
        b.iter(|| run_one(&session, &tail).results.len())
    });

    let stride = 97;
    let uniform_faults = run_one(
        &fresh_session(&exe, &good, &bad, stride, CampaignEngine::Checkpointed),
        &InstructionSkip,
    )
    .results
    .len();
    group.throughput(Throughput::Elements(uniform_faults as u64));
    group.bench_with_input(BenchmarkId::new("uniform", "naive"), &(), |b, ()| {
        let session = fresh_session(&exe, &good, &bad, stride, CampaignEngine::Naive);
        b.iter(|| run_one(&session, &InstructionSkip).results.len())
    });
    group.bench_with_input(BenchmarkId::new("uniform", "checkpoint"), &(), |b, ()| {
        let session = fresh_session(&exe, &good, &bad, stride, CampaignEngine::Checkpointed);
        b.iter(|| run_one(&session, &InstructionSkip).results.len())
    });
    group.finish();

    // The gate: exact executed work on the tail campaign, default tier.
    let naive_work = measure_work(&exe, &good, &bad, CampaignEngine::Naive, &tail);
    let checkpointed_work = measure_work(&exe, &good, &bad, CampaignEngine::Checkpointed, &tail);
    assert_eq!(
        naive_work.report.results, checkpointed_work.report.results,
        "engines must classify identically"
    );
    let step_ratio = naive_work.steps as f64 / checkpointed_work.steps.max(1) as f64;
    println!(
        "engine/tail work ({} faults): naive {} steps, checkpointed {} steps — {step_ratio:.0}×; \
         {} restores over {} bucket sweeps",
        naive_work.report.results.len(),
        naive_work.steps,
        checkpointed_work.steps,
        checkpointed_work.restores,
        checkpointed_work.sweeps,
    );

    // Single-shot wall times on the tail campaign, printed and recorded
    // but not gated. Checkpoint recording happens during session
    // construction (one golden pass per session), so each side is timed
    // on a fresh session and measures pure evaluation cost: the
    // checkpointed engine alone (both sides interpreted, the paper's
    // ≈√T claim) and with the uop tier on top.
    let naive_session = fresh_session(&exe, &good, &bad, 1, CampaignEngine::Naive);
    let start = Instant::now();
    let naive_report = run_one(&naive_session, &tail);
    let naive_time = start.elapsed();

    let checkpointed_session = fresh_session(&exe, &good, &bad, 1, CampaignEngine::Checkpointed);
    let start = Instant::now();
    let checkpointed_report = run_one(&checkpointed_session, &tail);
    let checkpointed_time = start.elapsed();

    let uops_session = fresh_session_exec(
        &exe,
        &good,
        &bad,
        1,
        CampaignEngine::Checkpointed,
        ExecMode::Uops,
        Telemetry::disabled(),
    );
    let start = Instant::now();
    let uops_report = run_one(&uops_session, &tail);
    let uops_time = start.elapsed();

    assert_eq!(
        naive_report.results, checkpointed_report.results,
        "engines must classify identically"
    );
    assert_eq!(
        naive_report.results, uops_report.results,
        "uop-tier execution must classify identically"
    );
    let speedup = naive_time.as_secs_f64() / checkpointed_time.as_secs_f64().max(1e-9);
    let uops_speedup = naive_time.as_secs_f64() / uops_time.as_secs_f64().max(1e-9);
    println!(
        "engine/tail ({} steps, {} faults): naive {:?}, checkpointed(interp) {:?}, \
         checkpointed(uops) {:?} — speedup: {speedup:.1}× interp, {uops_speedup:.1}× uops \
         (not gated)",
        trace_len,
        naive_report.results.len(),
        naive_time,
        checkpointed_time,
        uops_time,
    );
    // The strictest of the wall-clock gates this replaces (14× for the
    // uop tier), now on executed steps.
    const STEP_GATE: f64 = 14.0;
    const OVERHEAD_GATE: f64 = 1.02;
    let (overhead, plans_per_sec) = measure_telemetry_overhead(&exe, &good, &bad);
    let one_restore_per_bucket =
        checkpointed_work.sweeps > 0 && checkpointed_work.restores == checkpointed_work.sweeps;
    rr_bench::write_bench_json(
        "engine",
        &[
            ("naive_steps", (naive_work.steps as f64).into()),
            ("checkpointed_steps", (checkpointed_work.steps as f64).into()),
            ("step_ratio", step_ratio.round().into()),
            ("step_gate", STEP_GATE.into()),
            ("restores", (checkpointed_work.restores as f64).into()),
            ("bucket_sweeps", (checkpointed_work.sweeps as f64).into()),
            (
                "passed",
                (step_ratio >= STEP_GATE && one_restore_per_bucket && overhead <= OVERHEAD_GATE)
                    .into(),
            ),
            ("speedup", ((speedup * 100.0).round() / 100.0).into()),
            ("uops_speedup", ((uops_speedup * 100.0).round() / 100.0).into()),
            ("trace_steps", (trace_len as f64).into()),
            ("faults", (naive_report.results.len() as f64).into()),
            ("plans_per_sec", plans_per_sec.round().into()),
            ("telemetry_overhead", ((overhead * 1000.0).round() / 1000.0).into()),
        ],
    )
    .expect("bench record writes");
    assert!(
        step_ratio >= STEP_GATE,
        "the naive engine must execute ≥{STEP_GATE}× the checkpointed engine's steps on the \
         tail campaign, got {} vs {} ({step_ratio:.1}×)",
        naive_work.steps,
        checkpointed_work.steps,
    );
    assert!(
        one_restore_per_bucket,
        "the checkpointed engine must restore once per bucket sweep, got {} restores over {} \
         sweeps",
        checkpointed_work.restores, checkpointed_work.sweeps,
    );
    assert!(
        overhead <= OVERHEAD_GATE,
        "sink-free telemetry must cost ≤2% on the campaign hot path, got {overhead:.3}×"
    );
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
