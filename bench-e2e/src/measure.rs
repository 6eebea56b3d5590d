//! Timed passes, the traced pass's layer accounting, and the ledger of
//! deterministic counts.
//!
//! A *pass* runs the workload's operation once on each of the four
//! binaries, in a fixed order. Untimed facts (outputs, counts) are
//! identical in every pass of a run; only the clocks differ.

use crate::inputs::Binary;
use crate::ops::{self, Config, OpOutput, Workload};
use crate::probe::{Probe, Section, SpanRecord};
use crate::reference::Expected;
use rr_telemetry::{Counter, MetricsSnapshot, SpanKind, Telemetry};
use std::time::Instant;

/// One operation of an untraced pass.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Operation wall time.
    pub ns: u64,
    /// Whether it succeeded with the reference outputs.
    pub correct: bool,
    /// What it produced (empty when it failed).
    pub output: OpOutput,
}

/// Runs one operation untraced: telemetry disabled, no harness timers
/// besides the one around the whole call. The output is checked against
/// `expected` after the clock stops.
pub fn timed_op(workload: Workload, bin: &Binary, expected: &Expected) -> Timed {
    let start = Instant::now();
    let result =
        ops::run(workload, bin, Config::Default, &Telemetry::disabled(), &mut Probe::off());
    let ns = start.elapsed().as_nanos() as u64;
    check(result, bin, expected, ns)
}

fn check(result: Result<OpOutput, String>, bin: &Binary, expected: &Expected, ns: u64) -> Timed {
    match result {
        Ok(mut output) => {
            output.check_behaviour(bin);
            let correct = expected.get(bin.name) == Some(&output.lines);
            if !correct {
                eprintln!("{}: outputs differ from the reference: {:#?}", bin.name, output.lines);
            }
            Timed { ns, correct, output }
        }
        Err(e) => {
            eprintln!("{}: operation failed: {e}", bin.name);
            Timed { ns, correct: false, output: OpOutput::default() }
        }
    }
}

/// Logical plans (executed + reused + pruned) each binary's operation
/// classifies, counted once with counters-only telemetry. The untraced
/// passes then run with telemetry off and reuse these counts, which the
/// reference check shows to be the same work.
pub fn count_plans(workload: Workload, bin: &Binary, expected: &Expected) -> (Timed, u64) {
    let telemetry = Telemetry::counters();
    let start = Instant::now();
    let result = ops::run(workload, bin, Config::Default, &telemetry, &mut Probe::off());
    let ns = start.elapsed().as_nanos() as u64;
    let m = telemetry.metrics().expect("counters are enabled");
    (check(result, bin, expected, ns), plans(&m))
}

fn plans(m: &MetricsSnapshot) -> u64 {
    m.counter(Counter::PlansExecuted) + m.counter(Counter::PlansPrunedStatic)
}

/// One operation of a traced pass.
#[derive(Debug)]
pub struct Traced {
    /// The untimed result.
    pub timed: Timed,
    /// Harness-side accounting.
    pub probe: Probe,
    /// What the attached `Telemetry::timed()` handle recorded.
    pub metrics: MetricsSnapshot,
}

/// Runs one operation with `Telemetry::timed()` attached and every call
/// timed by the harness. The wall time excludes the probe's own
/// measurement calls.
pub fn traced_op(workload: Workload, bin: &Binary, expected: &Expected, epoch: Instant) -> Traced {
    let telemetry = Telemetry::timed();
    let mut probe = Probe::on(epoch);
    let start = Instant::now();
    let result = ops::run(workload, bin, Config::Default, &telemetry, &mut probe);
    let ns = (start.elapsed().as_nanos() as u64).saturating_sub(probe.excluded_ns);
    let metrics = telemetry.metrics().expect("timed telemetry is enabled");
    Traced { timed: check(result, bin, expected, ns), probe, metrics }
}

/// Deterministic counts of one traced pass. Two passes of the same code
/// on the same inputs must agree exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// `(name, value)` in a fixed order.
    pub counts: Vec<(&'static str, u64)>,
}

impl Ledger {
    /// Value of `name` (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }

    /// `name=value` pairs on one line.
    pub fn render(&self) -> String {
        self.counts.iter().map(|(n, v)| format!("{n}={v}")).collect::<Vec<_>>().join(" ")
    }
}

/// Per-pass totals of the telemetry and harness accounting, summed over
/// the pass's operations.
#[derive(Debug, Clone, Default)]
pub struct PassTotals {
    /// Pass wall time (sum of operation wall times).
    pub wall_ns: u64,
    /// Telemetry counters, summed.
    pub metrics: MetricsSnapshot,
    /// Harness section times, summed.
    pub section_ns: [u64; Section::COUNT],
    /// Calls per section.
    pub section_calls: [u64; Section::COUNT],
    /// Sweep time not covered by restore, inject or classify.
    pub position_ns: u64,
    /// Standalone `Analysis::from_executable` time.
    pub analysis_ns: u64,
    /// Standalone `enumerate_plans_pruned` time.
    pub enumerate_ns: u64,
    /// Session facts, summed.
    pub facts: crate::probe::Facts,
    /// Residual successes, summed.
    pub residual: u64,
    /// Output code size, summed.
    pub code_out: u64,
    /// IR ops before hardening, summed (`hybrid`).
    pub ir_ops_before: u64,
    /// IR ops after hardening, summed (`hybrid`).
    pub ir_ops_after: u64,
    /// Self time per layer, as `(layer, ns)`; with `unattributed` the
    /// rows sum to `wall_ns`.
    pub self_ns: Vec<(&'static str, u64)>,
}

/// Layers (crates) in the self-time table.
pub const LAYERS: [&str; 11] = [
    "fault",
    "engine",
    "emu",
    "disasm",
    "patch",
    "asm",
    "lift",
    "ir",
    "harden",
    "lower",
    "unattributed",
];

impl PassTotals {
    /// Sums a traced pass.
    pub fn of(ops: &[Traced]) -> PassTotals {
        let mut t = PassTotals::default();
        let mut layer_ns = [0u64; LAYERS.len()];
        for op in ops {
            let m = &op.metrics;
            let p = &op.probe;
            t.wall_ns += op.timed.ns;
            t.metrics = t.metrics.merge(m);
            for s in Section::ALL {
                t.section_ns[s as usize] += p.ns(s);
            }
            for span in &p.spans {
                t.section_calls[span.section as usize] += 1;
            }
            t.analysis_ns += p.analysis_ns;
            t.enumerate_ns += p.enumerate_ns;
            t.facts = t.facts.add(&p.facts);
            t.residual += op.timed.output.residual;
            t.code_out += op.timed.output.code_out;
            t.ir_ops_before += op.timed.output.ir_ops_before;
            t.ir_ops_after += op.timed.output.ir_ops_after;

            // Self time. Record spans nest in session builds; restore,
            // inject and classify spans nest in bucket sweeps when the
            // session sweeps, and directly in the campaign run when it
            // positions per plan.
            let span = |k: SpanKind| m.span(k).total_ns;
            let (record, restore, inject, classify, sweep) = (
                span(SpanKind::Record),
                span(SpanKind::Restore),
                span(SpanKind::Inject),
                span(SpanKind::Classify),
                span(SpanKind::BucketSweep),
            );
            let per_plan = restore + inject + classify;
            let (in_run, position) = if m.counter(Counter::BucketSweeps) > 0 {
                (sweep, sweep.saturating_sub(per_plan))
            } else {
                (per_plan, 0)
            };
            t.position_ns += position;
            let fault = p.ns(Section::SessionBuild).saturating_sub(record)
                + p.ns(Section::CampaignRun).saturating_sub(in_run)
                + classify
                + p.ns(Section::SessionSeed);
            let rows = [
                fault,
                record + restore + position,
                inject + p.ns(Section::GoldenExec),
                p.ns(Section::Disasm) + p.ns(Section::Delta),
                p.ns(Section::PatchApply),
                p.ns(Section::Relink),
                p.ns(Section::Lift),
                p.ns(Section::IrOpt) + p.ns(Section::IrVerify),
                p.ns(Section::HardenPass),
                p.ns(Section::Lower),
            ];
            let attributed: u64 = rows.iter().sum();
            for (slot, v) in layer_ns.iter_mut().zip(rows) {
                *slot += v;
            }
            layer_ns[LAYERS.len() - 1] += op.timed.ns.saturating_sub(attributed);
        }
        t.self_ns = LAYERS.iter().copied().zip(layer_ns).collect();
        t
    }

    /// Nanoseconds in `section`.
    pub fn section(&self, s: Section) -> u64 {
        self.section_ns[s as usize]
    }

    /// Calls of `section`.
    pub fn calls(&self, s: Section) -> u64 {
        self.section_calls[s as usize]
    }

    /// Emulated steps, all tiers.
    pub fn steps(&self) -> u64 {
        let c = |k| self.metrics.counter(k);
        c(Counter::UopSteps) + c(Counter::BlockSteps) + c(Counter::InterpSteps)
    }

    /// The pass's deterministic counts.
    pub fn ledger(&self) -> Ledger {
        let c = |k| self.metrics.counter(k);
        Ledger {
            counts: vec![
                ("plans_executed", c(Counter::CacheMisses)),
                ("plans_reused", c(Counter::CacheHits)),
                ("plans_pruned", c(Counter::PlansPrunedStatic)),
                ("timed_out", self.facts.timed_out),
                ("timed_out_steps", self.facts.timed_out_steps),
                ("uop_steps", c(Counter::UopSteps)),
                ("block_steps", c(Counter::BlockSteps)),
                ("interp_steps", c(Counter::InterpSteps)),
                ("restores", c(Counter::CheckpointRestores)),
                ("cow_clones", c(Counter::CowClones)),
                ("bucket_sweeps", c(Counter::BucketSweeps)),
                ("blocks_compiled", c(Counter::BlocksCompiled)),
                ("blocks_optimized", c(Counter::BlocksOptimized)),
                ("sessions", self.facts.sessions),
                ("checkpoints", self.facts.checkpoints),
                ("retained_bytes", self.facts.retained_bytes),
                ("golden_steps", self.facts.golden_steps),
                ("iterations", self.calls(Section::PatchApply)),
                ("sites_patched", self.facts.sites_patched),
                ("residual_successes", self.residual),
                ("code_size", self.code_out),
                ("ir_ops_before", self.ir_ops_before),
                ("ir_ops_after", self.ir_ops_after),
            ],
        }
    }
}

/// Harness spans plus each operation's telemetry span totals, as JSON
/// lines: one object per timed call, and one per telemetry span kind per
/// operation (`parent` names the operation).
pub fn span_lines(
    workload: Workload,
    pass: usize,
    ops: &[Traced],
    binaries: &[Binary],
) -> Vec<String> {
    let mut lines = Vec::new();
    for (op, bin) in ops.iter().zip(binaries) {
        let parent = format!("{workload}/{}/pass{pass}", bin.name);
        for SpanRecord { section, start_ns, end_ns } in &op.probe.spans {
            lines.push(format!(
                "{{\"op\":\"{parent}\",\"span\":\"{}\",\"start_ns\":{start_ns},\"end_ns\":{end_ns}}}",
                section.name()
            ));
        }
        for kind in SpanKind::ALL {
            let s = op.metrics.span(kind);
            if s.count > 0 {
                lines.push(format!(
                    "{{\"op\":\"{parent}\",\"telemetry_span\":\"{}\",\"count\":{},\"total_ns\":{}}}",
                    kind.as_str(),
                    s.count,
                    s.total_ns
                ));
            }
        }
    }
    lines
}
