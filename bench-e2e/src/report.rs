//! The printed result: metrics with units, and the per-layer table of a
//! traced pass.

use crate::measure::{PassTotals, LAYERS};
use crate::ops::Workload;
use crate::probe::Section;
use rr_telemetry::{Counter, SpanKind};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints last.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed or whose outputs differ from the reference.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation.
    pub fn tally(&mut self, correct: bool) {
        self.attempted += 1;
        self.failed += u64::from(!correct);
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Metric names of the self-time rows, in [`LAYERS`] order.
const SELF_ROWS: [&str; LAYERS.len()] = [
    "self.fault_ms",
    "self.engine_ms",
    "self.emu_ms",
    "self.disasm_ms",
    "self.patch_ms",
    "self.asm_ms",
    "self.lift_ms",
    "self.ir_ms",
    "self.harden_ms",
    "self.lower_ms",
    "self.unattributed_ms",
];

/// Set-up layer times: medians over the run's set-ups.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    /// `rr_asm` assemble + link of the four sources, ms.
    pub build_ms: f64,
    /// `Executable::from_bytes` of the four binaries, µs.
    pub load_us: f64,
}

/// The per-layer metrics of one traced pass.
pub fn layer_metrics(
    workload: Workload,
    t: &PassTotals,
    setup: SetupLayers,
    overhead: f64,
) -> Vec<Metric> {
    let m = &t.metrics;
    let c = |k| m.counter(k) as f64;
    let span = |k| ms(m.span(k).total_ns);
    let steps = t.steps();
    let hits = m.counter(Counter::CacheHits);
    let misses = m.counter(Counter::CacheMisses);
    let inject_us = m.span(SpanKind::Inject).total_ns as f64 / 1e3;
    let campaign_ns = t.section(Section::SessionBuild)
        + t.section(Section::CampaignRun)
        + t.section(Section::SessionSeed);
    let fp = workload == Workload::FaulterPatcher;
    let mut out = vec![
        metric("fault.session_build_ms", ms(t.section(Section::SessionBuild)), "ms"),
        metric("fault.sessions", t.facts.sessions as f64, "count"),
        metric("fault.plan_enumerate_ms", ms(t.enumerate_ns), "ms"),
        metric("fault.plans_executed", misses as f64, "count"),
        metric("fault.plans_reused", hits as f64, "count"),
        metric("fault.plans_pruned", c(Counter::PlansPrunedStatic), "count"),
        metric("fault.reuse_ratio", ratio(hits, hits + misses), "ratio"),
        metric("fault.classify_ms", span(SpanKind::Classify), "ms"),
        metric("fault.timed_out", t.facts.timed_out as f64, "count"),
        metric("fault.golden_steps", t.facts.golden_steps as f64, "count"),
        metric("analysis.ms", ms(t.analysis_ns), "ms"),
        metric("engine.record_ms", span(SpanKind::Record), "ms"),
        metric("engine.restore_ms", span(SpanKind::Restore), "ms"),
        metric("engine.sweep_ms", span(SpanKind::BucketSweep), "ms"),
        metric("engine.position_ms", ms(t.position_ns), "ms"),
        metric("engine.restores", c(Counter::CheckpointRestores), "count"),
        metric("engine.cow_clones", c(Counter::CowClones), "count"),
        metric("engine.bucket_sweeps", c(Counter::BucketSweeps), "count"),
        metric("engine.checkpoints", t.facts.checkpoints as f64, "count"),
        metric("engine.retained_bytes", t.facts.retained_bytes as f64, "bytes"),
        metric("emu.inject_ms", span(SpanKind::Inject), "ms"),
        metric("emu.steps", steps as f64, "count"),
        metric("emu.uop_steps", c(Counter::UopSteps), "count"),
        metric("emu.interp_steps", c(Counter::InterpSteps), "count"),
        metric("emu.block_steps", c(Counter::BlockSteps), "count"),
        metric("emu.interp_share", ratio(m.counter(Counter::InterpSteps), steps), "ratio"),
        metric("emu.timed_out_step_share", ratio(t.facts.timed_out_steps, steps), "ratio"),
        metric(
            "emu.steps_per_us",
            if inject_us > 0.0 { steps as f64 / inject_us } else { 0.0 },
            "1/us",
        ),
        metric("emu.blocks_compiled", c(Counter::BlocksCompiled), "count"),
        metric("emu.blocks_optimized", c(Counter::BlocksOptimized), "count"),
        metric("emu.golden_exec_ms", ms(t.section(Section::GoldenExec)), "ms"),
        metric("disasm.ms", ms(t.section(Section::Disasm)), "ms"),
        metric("disasm.delta_ms", ms(t.section(Section::Delta)), "ms"),
        metric("patch.apply_ms", ms(t.section(Section::PatchApply)), "ms"),
        metric("patch.sites_patched", t.facts.sites_patched as f64, "count"),
        metric("patch.iterations", t.calls(Section::PatchApply) as f64, "count"),
        metric("patch.campaigns", if fp { t.facts.sessions as f64 } else { 0.0 }, "count"),
        metric(
            "patch.outside_campaign_ms",
            if fp { ms(t.wall_ns.saturating_sub(campaign_ns)) } else { 0.0 },
            "ms",
        ),
        metric("asm.build_ms", setup.build_ms, "ms"),
        metric("asm.relink_ms", ms(t.section(Section::Relink)), "ms"),
        metric("obj.load_us", setup.load_us, "us"),
        metric("lift.ms", ms(t.section(Section::Lift)), "ms"),
        metric("ir.opt_ms", ms(t.section(Section::IrOpt)), "ms"),
        metric("ir.ops_before", t.ir_ops_before as f64, "count"),
        metric("ir.ops_after", t.ir_ops_after as f64, "count"),
        metric("harden.pass_ms", ms(t.section(Section::HardenPass)), "ms"),
        metric("lower.ms", ms(t.section(Section::Lower)), "ms"),
        metric("telemetry.overhead", overhead, "ratio"),
        metric("trace.pass_ms", ms(t.wall_ns), "ms"),
    ];
    out.extend(SELF_ROWS.iter().zip(&t.self_ns).map(|(name, &(_, ns))| metric(name, ms(ns), "ms")));
    out
}
