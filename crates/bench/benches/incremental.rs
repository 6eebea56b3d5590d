//! Incremental vs full re-campaigning on a multi-iteration hardening
//! run — the work gate for the listing-diff/classification-reuse
//! pipeline.
//!
//! The workload models the paper's targets at scale: a long checksum
//! prologue (thousands of executed instructions) feeding a short,
//! vulnerable security decision. Hardening it runs several campaigns — the
//! find-and-fix iteration plus the loop's re-measurement passes — and
//! every campaign after the first is where incremental mode earns its
//! keep: the patch touches only the decision window, so the checksum
//! prologue's thousands of classifications carry over through the
//! listing delta, and only the touched tail is re-executed.
//!
//! Gate: the incremental run must execute **≤ ½ the emulated steps** of
//! the full run (uop + block + interpreter steps, from the counters
//! both runs carry; exact, so it cannot flake) while producing a
//! bit-identical hardened binary and reusing classifications. The
//! wall-clock speedup and the reuse rate are printed and recorded,
//! ungated.

use rr_fault::{CampaignConfig, InstructionSkip, ReuseStats};
use rr_obj::Executable;
use rr_patch::{FaulterPatcher, HardenConfig, LoopOutcome};
use rr_telemetry::{Counter, Telemetry};
use std::time::{Duration, Instant};

/// A pincheck with a long checksum prologue (≥4k executed instructions)
/// before the grant/deny decision (the same shape as the engine
/// benchmark's workload, sized for exhaustive-site hardening runs).
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

fn config(incremental: bool) -> HardenConfig {
    HardenConfig {
        // One find-and-fix iteration plus the loop's two re-measurement
        // campaigns: a three-campaign run, two of them seeded in
        // incremental mode.
        max_iterations: 1,
        incremental,
        campaign: CampaignConfig {
            golden_max_steps: 10_000_000,
            // Exhaustive sites (stride 1): the campaign must see the
            // decision window's vulnerable instructions; the ~4k-step
            // trace keeps the O(T²) full campaigns bounded for CI.
            ..CampaignConfig::default()
        },
        // Counters-only telemetry on both sides (same ≤2%-gated
        // instrumentation in each timed run): the gate's step counts
        // and the bench record's plans/sec come from the metrics
        // snapshots.
        telemetry: Telemetry::counters(),
        ..HardenConfig::default()
    }
}

fn harden(exe: &Executable, good: &[u8], bad: &[u8], incremental: bool) -> (LoopOutcome, Duration) {
    let driver = FaulterPatcher::new(config(incremental));
    let start = Instant::now();
    let outcome = driver.harden(exe, good, bad, &InstructionSkip).expect("hardening succeeds");
    (outcome, start.elapsed())
}

/// Emulated steps a hardening run executed, summed over the tiers.
fn executed_steps(outcome: &LoopOutcome) -> u64 {
    let metrics = outcome.metrics.as_ref().expect("telemetry attached");
    metrics.counter(Counter::UopSteps) + metrics.counter(Counter::InterpSteps)
}

fn main() {
    let (exe, good, bad) = long_trace_workload();

    // Warm-up pass (page in code paths, stabilize the timing runs).
    let _ = harden(&exe, &good, &bad, false);

    let (full, full_time) = harden(&exe, &good, &bad, false);
    let (incremental, incremental_time) = harden(&exe, &good, &bad, true);

    // Correctness first: incremental must change nothing but the work.
    assert_eq!(full.iterations, incremental.iterations, "per-iteration classifications diverged");
    assert_eq!(
        full.hardened.to_bytes(),
        incremental.hardened.to_bytes(),
        "hardened binaries diverged"
    );
    assert_eq!(full.residual_vulnerabilities, incremental.residual_vulnerabilities);
    assert_eq!(full.campaigns, incremental.campaigns);
    assert!(full.campaigns >= 3, "multi-campaign run expected, got {}", full.campaigns);
    assert_eq!(full.sites_reused, 0);
    assert!(incremental.sites_reused > 0, "incremental run must reuse classifications");

    let reuse = ReuseStats {
        sites_reused: incremental.sites_reused,
        sites_replayed: incremental.sites_replayed,
    };
    let speedup = full_time.as_secs_f64() / incremental_time.as_secs_f64().max(1e-9);
    let (full_steps, incremental_steps) = (executed_steps(&full), executed_steps(&incremental));
    let step_ratio = full_steps as f64 / incremental_steps.max(1) as f64;
    println!(
        "incremental/harden ({} campaigns): full {full_time:?}, incremental \
         {incremental_time:?} — speedup: {speedup:.1}× (ungated)",
        full.campaigns,
    );
    println!(
        "executed steps: full {full_steps}, incremental {incremental_steps} — \
         {step_ratio:.2}× fewer"
    );
    println!("reuse: {reuse}");

    const GATE: f64 = 2.0;
    let plans_per_sec =
        incremental.metrics.as_ref().map(rr_telemetry::MetricsSnapshot::plans_per_sec);
    rr_bench::write_bench_json(
        "incremental",
        &[
            ("speedup", ((speedup * 100.0).round() / 100.0).into()),
            ("full_steps", (full_steps as f64).into()),
            ("incremental_steps", (incremental_steps as f64).into()),
            ("step_ratio", ((step_ratio * 100.0).round() / 100.0).into()),
            ("gate", GATE.into()),
            ("passed", (step_ratio >= GATE).into()),
            ("reuse_percent", ((reuse.reuse_percent() * 10.0).round() / 10.0).into()),
            ("campaigns", (full.campaigns as f64).into()),
            ("plans_per_sec", plans_per_sec.expect("telemetry attached").round().into()),
        ],
    )
    .expect("bench record writes");
    assert!(
        step_ratio >= GATE,
        "incremental re-campaigning must execute ≤ 1/{GATE} of the full run's emulated \
         steps on a multi-iteration hardening run, got {full_steps} / {incremental_steps} \
         = {step_ratio:.2}×"
    );
}
