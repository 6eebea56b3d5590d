//! Drivers that regenerate every table and figure of the paper's
//! evaluation (§V). The `rr-bench` binaries print their results; the
//! integration tests assert their shapes.

use crate::pipeline::{harden_hybrid, lift_lower_roundtrip, HybridConfig, HybridError};
use rr_disasm::{disassemble, Line, Listing, SymInstr};
use rr_fault::{CampaignError, CampaignSession, Collect, FaultModel};
use rr_harden::BranchHardening;
use rr_ir::{Function, Module, Op, Pred, Terminator};
use rr_obj::Executable;
use rr_patch::{apply_patterns, FaulterPatcher, HardenConfig, HardenError, LoopOutcome};
use rr_workloads::Workload;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

/// Errors surfaced by experiment drivers.
#[derive(Debug)]
pub enum ExperimentError {
    /// A Faulter+Patcher run failed.
    Harden(HardenError),
    /// A Hybrid pipeline run failed.
    Hybrid(HybridError),
    /// A campaign could not be set up.
    Campaign(CampaignError),
    /// A workload failed to build.
    Build(rr_asm::BuildError),
    /// A disassembly failed.
    Disasm(rr_disasm::DisasmError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Harden(e) => write!(f, "faulter+patcher failed: {e}"),
            ExperimentError::Hybrid(e) => write!(f, "hybrid pipeline failed: {e}"),
            ExperimentError::Campaign(e) => write!(f, "campaign failed: {e}"),
            ExperimentError::Build(e) => write!(f, "workload build failed: {e}"),
            ExperimentError::Disasm(e) => write!(f, "disassembly failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<HardenError> for ExperimentError {
    fn from(e: HardenError) -> Self {
        ExperimentError::Harden(e)
    }
}

impl From<HybridError> for ExperimentError {
    fn from(e: HybridError) -> Self {
        ExperimentError::Hybrid(e)
    }
}

impl From<CampaignError> for ExperimentError {
    fn from(e: CampaignError) -> Self {
        ExperimentError::Campaign(e)
    }
}

impl From<rr_asm::BuildError> for ExperimentError {
    fn from(e: rr_asm::BuildError) -> Self {
        ExperimentError::Build(e)
    }
}

impl From<rr_disasm::DisasmError> for ExperimentError {
    fn from(e: rr_disasm::DisasmError) -> Self {
        ExperimentError::Disasm(e)
    }
}

// ———————————————————————— Tables I–III ————————————————————————

/// One local-protection example: the original instruction and the hardened
/// pattern that replaces it (paper Tables I, II, III).
#[derive(Debug, Clone)]
pub struct PatternExample {
    /// Which table this reproduces.
    pub table: &'static str,
    /// The original assembly line.
    pub original: String,
    /// The protected replacement, one instruction per line.
    pub protected: String,
}

fn render_lines(lines: &[Line]) -> String {
    lines
        .iter()
        .map(|line| match line {
            Line::Label { name, .. } => format!("{name}:"),
            Line::Code { insn, .. } => format!("    {}", insn.render()),
            Line::RawBytes { .. } => String::new(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Patches one instruction of a host program and returns
/// `(original, protected)` text for exhibition.
fn patcher_example(src: &str, addr: u64) -> Result<(String, String), ExperimentError> {
    let exe = rr_asm::assemble_and_link(src)?;
    let mut listing = disassemble(&exe)?.listing;
    let index = listing.find_code(addr).expect("pattern target exists");
    let Line::Code { insn, .. } = &listing.text[index] else { unreachable!() };
    let original = insn.render();
    let before = listing.text.len();
    apply_patterns(&mut listing, &BTreeSet::from([addr]));
    // apply_patterns also appends the 2-line fault handler; exclude it
    // from the pattern snippet.
    let added = listing.text.len() - before - 2;
    Ok((original, render_lines(&listing.text[index..index + added + 1])))
}

/// Regenerates the paper's Tables I–III as RRVM assembly.
///
/// Tables I and III come straight out of the patcher; Table II shows the
/// paper's literal listing via
/// [`rr_patch::patterns::table2_reference_pattern`] (the loop itself uses
/// a stack-neutral equivalent — see that module's docs for why).
///
/// # Errors
///
/// Only on internal assembly failures (never for the bundled examples).
pub fn local_pattern_examples() -> Result<Vec<PatternExample>, ExperimentError> {
    let mut out = Vec::new();

    // Table I: mov rax, [rbx+4] ⇒ load r0, [r3+4] (flags dead → the
    // verification pattern, as in the paper).
    let (original, protected) = patcher_example(
        "    .global _start\n_start:\n    mov r3, buf\n    load r0, [r3+4]\n    svc 0\n    .bss\nbuf:\n    .space 16\n",
        rr_isa::TEXT_BASE + 10,
    )?;
    out.push(PatternExample { table: "Table I (mov)", original, protected });

    // Table II: cmp rbx, [rcx+4] ⇒ cmp r1, [r2+4], the paper's listing
    // verbatim (double comparison, pushf-staged flag words).
    let mut scratch_listing = rr_disasm::Listing::new();
    let cmp = rr_isa::Instr::CmpRM { rs1: rr_isa::Reg::R1, base: rr_isa::Reg::R2, disp: 4 };
    let lines = rr_patch::patterns::table2_reference_pattern(cmp, &mut scratch_listing);
    out.push(PatternExample {
        table: "Table II (cmp)",
        original: cmp.to_string(),
        protected: render_lines(&lines),
    });

    // Table III: a standalone conditional jump (its compare is separated
    // by a control-flow merge, so the set<cc> edge verification applies).
    let (original, protected) = patcher_example(
        "    .global _start\n\
         _start:\n\
             cmp r1, 0\n\
             jmp .merge\n\
         .merge:\n\
             jne .target\n\
             mov r1, 0\n\
             svc 0\n\
         .target:\n\
             mov r1, 1\n\
             svc 0\n",
        rr_isa::TEXT_BASE + 11,
    )?;
    out.push(PatternExample { table: "Table III (j<cond>)", original, protected });

    Ok(out)
}

// ———————————————————————— Table IV ————————————————————————

/// Per-mnemonic instruction counts.
pub type MnemonicCounts = BTreeMap<String, usize>;

/// The qualitative overhead of hardening one conditional branch
/// (paper Table IV): per-mnemonic counts at the IR and machine level,
/// before and after the pass.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// IR ops before hardening.
    pub ir_before: MnemonicCounts,
    /// IR ops after hardening.
    pub ir_after: MnemonicCounts,
    /// Machine instructions before hardening.
    pub machine_before: MnemonicCounts,
    /// Machine instructions after hardening.
    pub machine_after: MnemonicCounts,
}

impl Table4 {
    /// Total ops in a count map.
    pub fn total(counts: &MnemonicCounts) -> usize {
        counts.values().sum()
    }
}

fn minimal_branch_module() -> Module {
    // The paper's "before" column: 1 cmp + 1 br.
    let mut f = Function::new("__rr_entry");
    let e = f.entry();
    let t = f.new_block();
    let u = f.new_block();
    let a = f.append(e, Op::ReadCell(rr_ir::Cell::reg(1)));
    let b = f.append(e, Op::ReadCell(rr_ir::Cell::reg(2)));
    let cond = f.append(e, Op::ICmp { pred: Pred::Eq, lhs: a, rhs: b });
    f.set_terminator(e, Terminator::CondBr { cond, if_true: t, if_false: u });
    f.set_terminator(t, Terminator::Ret);
    f.set_terminator(u, Terminator::Ret);
    let mut m = Module::new();
    m.entry = "__rr_entry".into();
    m.push_function(f);
    m
}

fn ir_counts(module: &Module) -> MnemonicCounts {
    let mut counts = MnemonicCounts::new();
    for f in module.functions() {
        for (_, _, op) in f.iter_ops() {
            let name = match op {
                Op::Const(_) => "const",
                Op::SymAddr(_) => "symaddr",
                Op::BinOp { op, .. } => op.mnemonic(),
                Op::Not(_) => "not",
                Op::Neg(_) => "neg",
                Op::ICmp { .. } => "icmp",
                Op::Select { .. } => "select",
                Op::Load { .. } => "load",
                Op::Store { .. } => "store",
                Op::ReadCell(_) => "readcell",
                Op::WriteCell { .. } => "writecell",
                Op::Call { .. } => "call",
                Op::CallIndirect { .. } => "callind",
                Op::Svc { .. } => "svc",
                Op::Phi { .. } => "phi",
            };
            *counts.entry(name.to_owned()).or_default() += 1;
        }
        for b in f.block_ids() {
            let name = match f.block(b).term {
                Terminator::Br(_) => "br",
                Terminator::CondBr { .. } => "condbr",
                Terminator::Ret => "ret",
                Terminator::Abort => "abort",
                Terminator::Unset => continue,
            };
            *counts.entry(name.to_owned()).or_default() += 1;
        }
    }
    counts
}

fn machine_counts(listing: &Listing) -> MnemonicCounts {
    let mut counts = MnemonicCounts::new();
    for line in &listing.text {
        if let Line::Code { insn, .. } = line {
            let rendered = match insn {
                SymInstr::Plain(i) => i.to_string(),
                SymInstr::Branch { cond: Some(cc), .. } => format!("j{cc}"),
                SymInstr::Branch { cond: None, is_call: true, .. } => "call".to_owned(),
                SymInstr::Branch { cond: None, is_call: false, .. } => "jmp".to_owned(),
                SymInstr::MovSym { .. } => "mov".to_owned(),
            };
            let mnemonic = rendered.split_whitespace().next().unwrap_or("?").to_owned();
            *counts.entry(mnemonic).or_default() += 1;
        }
    }
    counts
}

/// Computes Table IV on the minimal one-branch function.
///
/// # Errors
///
/// Only on internal lowering failures.
pub fn table4() -> Result<Table4, ExperimentError> {
    let before = minimal_branch_module();
    let mut after = before.clone();
    rr_ir::Pass::run(&BranchHardening::default(), &mut after);

    let lower = |module: &Module| -> Result<MnemonicCounts, ExperimentError> {
        let lifted = rr_lift::LiftedProgram { module: module.clone(), data: Vec::new() };
        let listing = rr_lower::emit_listing(&lifted)
            .map_err(|e| ExperimentError::Hybrid(HybridError::Lower(e)))?;
        Ok(machine_counts(&listing))
    };

    Ok(Table4 {
        ir_before: ir_counts(&before),
        ir_after: ir_counts(&after),
        machine_before: lower(&before)?,
        machine_after: lower(&after)?,
    })
}

// ———————————————————————— Table V ————————————————————————

/// One row of the code-size overhead table (paper Table V), extended with
/// the attribution columns discussed in §IV-D.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Workload name.
    pub workload: String,
    /// Faulter+Patcher overhead in percent (instruction-skip model).
    pub faulter_patcher: f64,
    /// Hybrid overhead in percent.
    pub hybrid: f64,
    /// Overhead of the bare lift→lower round trip (no countermeasure).
    pub roundtrip_only: f64,
    /// Holistic application of the local patterns to *every* protectable
    /// instruction — the paper's "simple duplication scheme" reference
    /// point (≥ 300%).
    pub holistic_patterns: f64,
}

fn overhead(original: &Executable, modified: &Executable) -> f64 {
    (modified.code_size() as f64 - original.code_size() as f64) / original.code_size() as f64
        * 100.0
}

/// Computes one Table V row for a workload.
///
/// # Errors
///
/// See [`ExperimentError`].
pub fn table5_row(w: &Workload) -> Result<Table5Row, ExperimentError> {
    let exe = w.build()?;

    let driver = FaulterPatcher::new(HardenConfig::default());
    let fp = driver.harden(&exe, &w.good_input, &w.bad_input, &rr_fault::InstructionSkip)?;

    let hybrid = harden_hybrid(&exe, &HybridConfig::default())?;
    let roundtrip = lift_lower_roundtrip(&exe, true)?;

    // Holistic local patterns: protect every instruction that has a
    // pattern (the "full application" the paper contrasts with targeted
    // insertion).
    let mut listing = disassemble(&exe)?.listing;
    let all: BTreeSet<u64> = listing.original_code().map(|(_, a, _)| a).collect();
    apply_patterns(&mut listing, &all);
    let holistic = rr_asm::assemble_and_link(&listing.to_source())?;

    Ok(Table5Row {
        workload: w.name.to_owned(),
        faulter_patcher: fp.overhead_percent(),
        hybrid: hybrid.overhead_percent(),
        roundtrip_only: overhead(&exe, &roundtrip),
        holistic_patterns: overhead(&exe, &holistic),
    })
}

// ———————————————————— §V-C vulnerability reduction ————————————————————

/// Which hardening approach a reduction row measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// The iterative Faulter+Patcher loop.
    FaulterPatcher,
    /// The Hybrid lift/harden/lower pipeline.
    Hybrid,
    /// Hybrid followed by the iterative loop — the paper's future work
    /// ("enable an iterative countermeasure insertion for the Hybrid
    /// methodology"), implemented here.
    HybridPlusPatcher,
}

impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Approach::FaulterPatcher => "faulter+patcher",
            Approach::Hybrid => "hybrid",
            Approach::HybridPlusPatcher => "hybrid+patcher",
        })
    }
}

/// One vulnerability-reduction measurement.
#[derive(Debug, Clone)]
pub struct VulnReduction {
    /// Workload name.
    pub workload: String,
    /// Fault-model name.
    pub model: &'static str,
    /// Approach measured.
    pub approach: Approach,
    /// Distinct vulnerable program points before hardening.
    pub sites_before: usize,
    /// Distinct vulnerable program points after hardening.
    pub sites_after: usize,
}

impl VulnReduction {
    /// Percentage of vulnerable points eliminated.
    pub fn reduction_percent(&self) -> f64 {
        if self.sites_before == 0 {
            return 0.0;
        }
        (self.sites_before - self.sites_before.min(self.sites_after)) as f64
            / self.sites_before as f64
            * 100.0
    }
}

pub(crate) use crate::pipeline::{measurement_campaign_config as campaign_config, MAX_SITES};

fn count_sites(
    exe: &Executable,
    w: &Workload,
    model: &dyn FaultModel,
) -> Result<usize, ExperimentError> {
    // The default checkpointed engine: identical classifications, ~√T of
    // the replay cost — this is the measurement loop the engine was
    // built for.
    let mut session = CampaignSession::builder(exe.clone())
        .good_input(&w.good_input[..])
        .bad_input(&w.bad_input[..])
        .config(campaign_config())
        .build()?;
    session.sample_sites(MAX_SITES);
    let report = session.run(&[model], Collect).pop().expect("one model in, one report out");
    Ok(report.vulnerable_pcs().len())
}

/// Measures the vulnerability reduction of one approach on one workload
/// under one fault model.
///
/// # Errors
///
/// See [`ExperimentError`].
pub fn vuln_reduction(
    w: &Workload,
    model: &dyn FaultModel,
    approach: Approach,
    fp_iterations: usize,
) -> Result<VulnReduction, ExperimentError> {
    let exe = w.build()?;
    let sites_before = count_sites(&exe, w, model)?;
    let fp_config = || HardenConfig {
        max_iterations: fp_iterations,
        campaign: campaign_config(),
        ..Default::default()
    };
    let hardened = match approach {
        Approach::FaulterPatcher => {
            FaulterPatcher::new(fp_config())
                .harden(&exe, &w.good_input, &w.bad_input, model)?
                .hardened
        }
        Approach::Hybrid => harden_hybrid(&exe, &HybridConfig::default())?.hardened,
        Approach::HybridPlusPatcher => {
            let hybrid = harden_hybrid(&exe, &HybridConfig::default())?.hardened;
            // The hybrid binary's traces are long; sample sites like the
            // measurement campaigns do (same rounding as
            // CampaignSession::sample_sites, derived from one golden run
            // since the loop rebuilds its campaigns per iteration).
            let golden = rr_emu::execute(&hybrid, &w.bad_input, campaign_config().golden_max_steps);
            let stride = (golden.steps as usize).div_ceil(MAX_SITES).max(1);
            let config = HardenConfig {
                campaign: rr_fault::CampaignConfig { site_stride: stride, ..campaign_config() },
                ..fp_config()
            };
            FaulterPatcher::new(config)
                .harden(&hybrid, &w.good_input, &w.bad_input, model)?
                .hardened
        }
    };
    let sites_after = count_sites(&hardened, w, model)?;
    Ok(VulnReduction {
        workload: w.name.to_owned(),
        model: model.name(),
        approach,
        sites_before,
        sites_after,
    })
}

// ———————————————————————— Figures 2 & 5 ————————————————————————

/// Runs the Faulter+Patcher loop on a workload and returns the full
/// iteration history (paper Fig. 2's loop reaching its exit condition).
///
/// # Errors
///
/// See [`ExperimentError`].
pub fn fig2_loop(w: &Workload, model: &dyn FaultModel) -> Result<LoopOutcome, ExperimentError> {
    let exe = w.build()?;
    Ok(FaulterPatcher::new(HardenConfig::default()).harden(
        &exe,
        &w.good_input,
        &w.bad_input,
        model,
    )?)
}

/// Produces the textual IR of a minimal conditional branch before and
/// after hardening — the reproduction of the paper's Figs. 4 and 5.
pub fn fig5_cfg() -> (String, String) {
    let before = minimal_branch_module();
    let mut after = before.clone();
    rr_ir::Pass::run(&BranchHardening::default(), &mut after);
    (before.to_string(), after.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_fault::InstructionSkip;

    #[test]
    fn pattern_examples_cover_three_tables() {
        let examples = local_pattern_examples().unwrap();
        assert_eq!(examples.len(), 3);
        for e in &examples {
            assert!(
                e.protected.lines().count() > 3,
                "{}: protected pattern too small:\n{}",
                e.table,
                e.protected
            );
            assert!(e.protected.contains("__rr_faulthandler"), "{}", e.table);
        }
        // Table II uses the double-compare + flag-word check.
        let cmp = &examples[1];
        assert!(cmp.protected.contains("pushf"), "{}", cmp.protected);
    }

    #[test]
    fn table4_shape_matches_paper() {
        let t4 = table4().unwrap();
        let ir_before = Table4::total(&t4.ir_before);
        let ir_after = Table4::total(&t4.ir_after);
        let m_before = Table4::total(&t4.machine_before);
        let m_after = Table4::total(&t4.machine_after);
        // Hardening multiplies the instruction count at both levels.
        assert!(ir_after > ir_before * 3, "IR: {ir_before} → {ir_after}");
        assert!(m_after > m_before, "machine: {m_before} → {m_after}");
        // The paper's after-column mnemonics appear: xor (checksums), and,
        // or (mask arithmetic).
        for needle in ["xor", "and", "or", "sub", "not"] {
            assert!(t4.ir_after.contains_key(needle), "missing {needle} in {:?}", t4.ir_after);
        }
    }

    #[test]
    fn fig5_cfg_grows_blocks() {
        let (before, after) = fig5_cfg();
        let blocks = |s: &str| s.matches("bb").count();
        assert!(blocks(&after) > blocks(&before));
        assert!(after.contains("abort"), "fault response present");
    }

    #[test]
    fn fig2_loop_reaches_fixed_point_on_pincheck() {
        let outcome = fig2_loop(&rr_workloads::pincheck(), &InstructionSkip).unwrap();
        assert!(outcome.fixed_point);
        assert!(!outcome.iterations.is_empty());
    }
}
