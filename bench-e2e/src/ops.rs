//! The three user-facing operations, each run on one binary.
//!
//! * `campaign` — a fresh [`CampaignSession`] running four fault models
//!   in one `Collect` pass.
//! * `faulter-patcher` — [`FaulterPatcher::harden`] with the skip model,
//!   at order 1 and at order 2 with a 10-step pair window.
//! * `hybrid` — lift, optimize, `BranchHardening`, lower, then the
//!   sampled verification campaign `harden_hybrid_verified` runs, on one
//!   thread.
//!
//! Every campaign is pinned to one worker thread. An operation returns an
//! [`OpOutput`]: the deterministic facts the reference pins, plus the
//! hardened binaries, whose behaviour [`OpOutput::check_behaviour`]
//! records after the operation's clock has stopped.

use crate::inputs::{Binary, CHECK_STEPS};
use crate::mirror;
use crate::probe::{Probe, Section};
use rr_emu::execute;
use rr_fault::{
    CampaignConfig, CampaignEngine, CampaignSession, Collect, ExecMode, FaultClass, FaultModel,
    FlagFlip, InstructionSkip, RegisterBitFlip, SingleBitFlip, Stream, Summary,
};
use rr_harden::BranchHardening;
use rr_ir::passes::{DeadCodeElimination, PromoteCells};
use rr_ir::{Pass, PassManager};
use rr_isa::Reg;
use rr_obj::Executable;
use rr_patch::{FaulterPatcher, HardenConfig};
use rr_telemetry::Telemetry;
use rr_workloads::fnv1a_64;
use std::fmt;

/// A benchmark workload: which operation every binary goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four-model fault campaign against the unhardened binary.
    Campaign,
    /// The Faulter+Patcher hardening loop at orders 1 and 2.
    FaulterPatcher,
    /// The hybrid lift/harden/lower pipeline plus its verification
    /// campaign.
    Hybrid,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Campaign, Workload::FaulterPatcher, Workload::Hybrid];

    /// Name on the command line and in the reference file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::FaulterPatcher => "faulter-patcher",
            Workload::Hybrid => "hybrid",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which campaign configuration the operations run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// The shipped defaults: checkpointed engine, uop tier, static
    /// pruning, incremental reuse.
    Default,
    /// The reference oracles the defaults must match bit-for-bit: the
    /// naive engine on the plain interpreter.
    Reference,
}

impl Config {
    fn campaign(self) -> CampaignConfig {
        let mut config = CampaignConfig { threads: 1, ..CampaignConfig::default() };
        if self == Config::Reference {
            config.engine = CampaignEngine::Naive;
            config.exec = ExecMode::Interp;
        }
        config
    }
}

/// Step budgets of the hybrid verification campaign, as
/// `rr_core::harden_hybrid_verified` sets them: hybrid binaries run long.
fn verification_config(config: Config) -> CampaignConfig {
    CampaignConfig {
        golden_max_steps: 100_000_000,
        faulted_min_steps: 100_000,
        ..config.campaign()
    }
}

/// Trace-site cap of the hybrid verification campaign.
const VERIFY_MAX_SITES: usize = 4_000;

/// The `campaign` models: the four of the engine-equivalence suite.
fn campaign_models() -> Vec<Box<dyn FaultModel>> {
    vec![
        Box::new(InstructionSkip),
        Box::new(SingleBitFlip),
        Box::new(FlagFlip),
        Box::new(RegisterBitFlip { regs: vec![Reg::R0, Reg::R1], bits: vec![0, 1, 31, 63] }),
    ]
}

/// `(order, pair window)` of the two `faulter-patcher` hardening runs.
const HARDEN_RUNS: [(usize, Option<u64>); 2] = [(1, None), (2, Some(10))];

/// Hardening-loop configuration for one run of `faulter-patcher`.
fn harden_config(
    config: Config,
    order: usize,
    pair_window: Option<u64>,
    telemetry: &Telemetry,
) -> HardenConfig {
    let campaign = config.campaign();
    HardenConfig {
        engine: campaign.engine,
        campaign,
        parallel: false,
        fault_order: order,
        pair_window,
        telemetry: telemetry.clone(),
        ..HardenConfig::default()
    }
}

/// What one operation produced.
#[derive(Debug, Clone, Default)]
pub struct OpOutput {
    /// Deterministic facts, one per line, compared against the
    /// reference.
    pub lines: Vec<String>,
    /// Successful plans left against the output binaries (for
    /// `campaign`, against the input binary).
    pub residual: u64,
    /// Code size of the input binary, once per output binary.
    pub code_in: u64,
    /// Code size of the output binaries (the input binary for
    /// `campaign`).
    pub code_out: u64,
    /// IR ops after lifting and optimizing (`hybrid` only).
    pub ir_ops_before: u64,
    /// IR ops after branch hardening (`hybrid` only).
    pub ir_ops_after: u64,
    /// Rewritten binaries whose behaviour is still to be checked.
    hardened: Vec<(String, Executable)>,
}

impl OpOutput {
    /// Appends how every hardened binary behaves on the good, bad and
    /// derived bad inputs. Runs after the operation's clock has stopped.
    pub fn check_behaviour(&mut self, bin: &Binary) {
        let mut inputs: Vec<(&str, &[u8])> = vec![("good", &bin.good), ("bad", &bin.bad)];
        inputs.extend(bin.derived_bad.iter().map(|input| ("derived", input.as_slice())));
        for (label, exe) in std::mem::take(&mut self.hardened) {
            for (kind, input) in &inputs {
                let run = execute(&exe, input, CHECK_STEPS);
                self.lines.push(format!(
                    "{label} behaviour {kind}: {:?} output={:016x}",
                    run.outcome,
                    fnv1a_64(&run.output)
                ));
            }
        }
    }
}

/// Formats a class summary for the reference.
fn summary_line(s: &Summary) -> String {
    format!(
        "total={} success={} benign={} crashed={} timed_out={} corrupted={} diverged={}",
        s.total, s.success, s.benign, s.crashed, s.timed_out, s.corrupted, s.diverged
    )
}

/// Runs `workload`'s operation on one binary.
///
/// # Errors
///
/// Any error the program reports, as text.
pub fn run(
    workload: Workload,
    bin: &Binary,
    config: Config,
    telemetry: &Telemetry,
    probe: &mut Probe,
) -> Result<OpOutput, String> {
    match workload {
        Workload::Campaign => campaign(bin, config, telemetry, probe),
        Workload::FaulterPatcher => faulter_patcher(bin, config, telemetry, probe),
        Workload::Hybrid => hybrid(bin, config, telemetry, probe),
    }
}

fn campaign(
    bin: &Binary,
    config: Config,
    telemetry: &Telemetry,
    probe: &mut Probe,
) -> Result<OpOutput, String> {
    let models = campaign_models();
    let models: Vec<&dyn FaultModel> = models.iter().map(|m| m.as_ref()).collect();
    let session = probe
        .time(Section::SessionBuild, || {
            CampaignSession::builder(bin.exe.clone())
                .good_input(bin.good.clone())
                .bad_input(bin.bad.clone())
                .config(config.campaign())
                .telemetry(telemetry.clone())
                .build()
        })
        .map_err(|e| e.to_string())?;
    let reports = probe.time(Section::CampaignRun, || session.run(&models, Collect));
    let timed_out = reports.iter().map(|r| r.count(FaultClass::TimedOut) as u64).sum();
    probe.session(&session, &models, timed_out);

    let code = bin.exe.code_size();
    let mut out = OpOutput { code_in: code, code_out: code, ..OpOutput::default() };
    for report in &reports {
        let summary = report.summary();
        out.residual += summary.success as u64;
        out.lines.push(format!(
            "{}: {} pruned={}",
            report.model,
            summary_line(&summary),
            report.plans_pruned_static()
        ));
    }
    Ok(out)
}

/// What a hardening run reports, whichever copy of the loop produced it.
#[derive(Debug, Clone)]
pub(crate) struct Hardened {
    /// The hardened binary.
    pub hardened: Executable,
    /// Patch iterations the loop recorded.
    pub iterations: usize,
    /// Sites patched, summed over iterations.
    pub sites_patched: usize,
    /// Campaign sessions the loop built.
    pub campaigns: usize,
    /// Whether the loop reached a fixed point.
    pub fixed_point: bool,
    /// Residual successes by plan order.
    pub residual_by_order: Vec<usize>,
}

fn faulter_patcher(
    bin: &Binary,
    config: Config,
    telemetry: &Telemetry,
    probe: &mut Probe,
) -> Result<OpOutput, String> {
    let code = bin.exe.code_size();
    let mut out = OpOutput::default();
    for (order, pair_window) in HARDEN_RUNS {
        let harden = harden_config(config, order, pair_window, telemetry);
        let result = if probe.is_on() {
            mirror::harden(&harden, &bin.exe, &bin.good, &bin.bad, &InstructionSkip, probe)
        } else {
            FaulterPatcher::new(harden).harden(&bin.exe, &bin.good, &bin.bad, &InstructionSkip).map(
                |o| Hardened {
                    iterations: o.iterations.len(),
                    sites_patched: o.iterations.iter().map(|i| i.stats.patched_count()).sum(),
                    campaigns: o.campaigns,
                    fixed_point: o.fixed_point,
                    residual_by_order: o.residual_by_order,
                    hardened: o.hardened,
                },
            )
        }
        .map_err(|e| e.to_string())?;
        let label = format!("order {order}");
        out.residual += result.residual_by_order.iter().sum::<usize>() as u64;
        out.code_in += code;
        out.code_out += result.hardened.code_size();
        out.lines.push(format!(
            "{label}: iterations={} sites_patched={} campaigns={} fixed_point={} residual_by_order={:?} code_size={}",
            result.iterations,
            result.sites_patched,
            result.campaigns,
            result.fixed_point,
            result.residual_by_order,
            result.hardened.code_size()
        ));
        out.hardened.push((label, result.hardened));
    }
    Ok(out)
}

fn hybrid(
    bin: &Binary,
    config: Config,
    telemetry: &Telemetry,
    probe: &mut Probe,
) -> Result<OpOutput, String> {
    let mut lifted =
        probe.time(Section::Lift, || rr_lift::lift(&bin.exe)).map_err(|e| e.to_string())?;
    probe
        .time(Section::IrOpt, || {
            let mut pm = PassManager::new();
            pm.add(PromoteCells);
            pm.add(DeadCodeElimination);
            pm.run(&mut lifted.module)
        })
        .map_err(|(pass, e)| format!("pass `{pass}` broke the module: {e}"))?;
    let ops_before = lifted.module.placed_op_count();
    let pass = BranchHardening::with_copies(2);
    probe.time(Section::HardenPass, || pass.run(&mut lifted.module));
    probe
        .time(Section::IrVerify, || rr_ir::verify(&lifted.module))
        .map_err(|e| format!("branch hardening broke the module: {e}"))?;
    let ops_after = lifted.module.placed_op_count();
    let hardened =
        probe.time(Section::Lower, || rr_lower::compile(&lifted)).map_err(|e| e.to_string())?;

    let mut session = probe
        .time(Section::SessionBuild, || {
            CampaignSession::builder(hardened.clone())
                .good_input(bin.good.clone())
                .bad_input(bin.bad.clone())
                .config(verification_config(config))
                .telemetry(telemetry.clone())
                .build()
        })
        .map_err(|e| e.to_string())?;
    let (stride, summary) = probe.time(Section::CampaignRun, || {
        let stride = session.sample_sites(VERIFY_MAX_SITES);
        let summary = session.run(&[&InstructionSkip], Stream).pop().map(|m| m.summary);
        (stride, summary)
    });
    let summary = summary.ok_or("the verification campaign returned no summary")?;
    probe.session(&session, &[&InstructionSkip], summary.timed_out as u64);

    let report = pass.report();
    let out = OpOutput {
        lines: vec![
            format!(
                "ir_ops={ops_before}->{ops_after} protected_branches={} validation_blocks={} fault_response_blocks={}",
                report.protected_branches, report.validation_blocks, report.fault_response_blocks
            ),
            format!("code_size={} stride={stride}", hardened.code_size()),
            format!("verify: {}", summary_line(&summary)),
        ],
        residual: summary.success as u64,
        code_in: bin.exe.code_size(),
        code_out: hardened.code_size(),
        ir_ops_before: ops_before as u64,
        ir_ops_after: ops_after as u64,
        hardened: vec![("hybrid".to_string(), hardened)],
    };
    Ok(out)
}
