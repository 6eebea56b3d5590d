//! The Hybrid compiler–binary pipeline (paper Fig. 3, upper half).

use rr_fault::{CampaignConfig, CampaignError, CampaignSession, FaultModel, Stream, Summary};
use rr_harden::{BranchHardening, HardeningReport};
use rr_ir::passes::{DeadCodeElimination, PromoteCells};
use rr_ir::PassManager;
use rr_lift::LiftError;
use rr_lower::LowerError;
use rr_obj::Executable;
use std::fmt;

/// Configuration of the Hybrid pipeline.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Run `PromoteCells` + `DeadCodeElimination` before hardening
    /// (reduces the lift/lower overhead; on by default).
    pub optimize: bool,
    /// Checksum copies for the branch-hardening pass (paper: 2).
    pub checksum_copies: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig { optimize: true, checksum_copies: 2 }
    }
}

/// Why the Hybrid pipeline failed.
#[derive(Debug)]
pub enum HybridError {
    /// Lifting failed.
    Lift(LiftError),
    /// A pass broke the module (pass name + verifier finding).
    Pass(String, rr_ir::VerifyError),
    /// Lowering failed.
    Lower(LowerError),
    /// The post-hardening verification campaign could not be set up.
    Verify(CampaignError),
}

impl fmt::Display for HybridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HybridError::Lift(e) => write!(f, "lift failed: {e}"),
            HybridError::Pass(name, e) => write!(f, "pass `{name}` broke the module: {e}"),
            HybridError::Lower(e) => write!(f, "lowering failed: {e}"),
            HybridError::Verify(e) => write!(f, "verification campaign failed: {e}"),
        }
    }
}

impl std::error::Error for HybridError {}

impl From<LiftError> for HybridError {
    fn from(e: LiftError) -> Self {
        HybridError::Lift(e)
    }
}

impl From<LowerError> for HybridError {
    fn from(e: LowerError) -> Self {
        HybridError::Lower(e)
    }
}

/// Result of the Hybrid pipeline.
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    /// The hardened binary.
    pub hardened: Executable,
    /// Code size of the input binary in bytes.
    pub original_code_size: u64,
    /// Statistics from the branch-hardening pass.
    pub report: HardeningReport,
    /// IR op count after lifting (and optimization), before hardening.
    pub ir_ops_before: usize,
    /// IR op count after hardening.
    pub ir_ops_after: usize,
}

impl HybridOutcome {
    /// Code-size overhead in percent relative to the original binary —
    /// the Hybrid column of the paper's Table V.
    pub fn overhead_percent(&self) -> f64 {
        let original = self.original_code_size as f64;
        (self.hardened.code_size() as f64 - original) / original * 100.0
    }
}

/// Runs the full Hybrid pipeline: lift → (optimize) → branch hardening →
/// lower.
///
/// # Errors
///
/// See [`HybridError`].
pub fn harden_hybrid(
    exe: &Executable,
    config: &HybridConfig,
) -> Result<HybridOutcome, HybridError> {
    let mut lifted = rr_lift::lift(exe)?;
    if config.optimize {
        let mut pm = PassManager::new();
        pm.add(PromoteCells);
        pm.add(DeadCodeElimination);
        pm.run(&mut lifted.module).map_err(|(p, e)| HybridError::Pass(p, e))?;
    }
    let ir_ops_before = lifted.module.placed_op_count();
    let pass = BranchHardening::with_copies(config.checksum_copies);
    // Run directly (not via the manager) so the pass's report stays
    // readable, then verify explicitly.
    rr_ir::Pass::run(&pass, &mut lifted.module);
    rr_ir::verify(&lifted.module).map_err(|e| HybridError::Pass("branch-hardening".into(), e))?;
    let ir_ops_after = lifted.module.placed_op_count();
    let hardened = rr_lower::compile(&lifted)?;
    Ok(HybridOutcome {
        hardened,
        original_code_size: exe.code_size(),
        report: pass.report(),
        ir_ops_before,
        ir_ops_after,
    })
}

/// A [`HybridOutcome`] plus the fault-campaign verdict on the hardened
/// binary.
#[derive(Debug, Clone)]
pub struct VerifiedHybridOutcome {
    /// The hybrid pipeline's result.
    pub hybrid: HybridOutcome,
    /// Streamed classification counts of the verification campaign
    /// against the hardened binary (sampled via `site_stride` on long
    /// traces).
    pub residual: Summary,
    /// Trace-site stride the verification campaign sampled with (1 =
    /// exhaustive).
    pub stride: usize,
}

/// Campaign tunables shared by the verification step and the experiment
/// drivers: step budgets generous enough for hybrid (slot-machine)
/// binaries.
pub(crate) fn measurement_campaign_config() -> CampaignConfig {
    CampaignConfig {
        golden_max_steps: 100_000_000,
        faulted_min_steps: 100_000,
        ..CampaignConfig::default()
    }
}

/// Trace-site cap of the verification campaign and of the experiments'
/// measurement campaigns; hybrid binaries multiply trace lengths, so
/// longer traces are sampled (statistical fault injection, as in the
/// paper's evaluation).
pub(crate) const MAX_SITES: usize = 4_000;

/// Runs the Hybrid pipeline, then *verifies* the hardened binary by
/// fault-simulating it with the checkpointed campaign engine and
/// streaming the classifications into a [`Summary`].
///
/// This closes the loop the paper leaves implicit: hardening is only as
/// good as the residual-vulnerability count measured against it, and the
/// checkpointed engine makes that measurement affordable on the long
/// traces hybrid binaries produce.
///
/// # Errors
///
/// See [`HybridError`]; campaign setup failures surface as
/// [`HybridError::Verify`].
pub fn harden_hybrid_verified(
    exe: &Executable,
    good_input: &[u8],
    bad_input: &[u8],
    model: &dyn FaultModel,
    config: &HybridConfig,
) -> Result<VerifiedHybridOutcome, HybridError> {
    let hybrid = harden_hybrid(exe, config)?;
    let mut session = CampaignSession::builder(hybrid.hardened.clone())
        .good_input(good_input)
        .bad_input(bad_input)
        .config(measurement_campaign_config())
        .build()
        .map_err(HybridError::Verify)?;
    let stride = session.sample_sites(MAX_SITES);
    let residual =
        session.run(&[model], Stream).pop().expect("one model in, one summary out").summary;
    Ok(VerifiedHybridOutcome { hybrid, residual, stride })
}

/// Lifts and lowers without any countermeasure — isolates the overhead of
/// the translation round trip itself (paper §IV-D: "the mere act of
/// lifting the binary to LLVM-IR and translating it back … adds extra
/// overhead").
///
/// # Errors
///
/// See [`HybridError`].
pub fn lift_lower_roundtrip(exe: &Executable, optimize: bool) -> Result<Executable, HybridError> {
    let mut lifted = rr_lift::lift(exe)?;
    if optimize {
        let mut pm = PassManager::new();
        pm.add(PromoteCells);
        pm.add(DeadCodeElimination);
        pm.run(&mut lifted.module).map_err(|(p, e)| HybridError::Pass(p, e))?;
    }
    Ok(rr_lower::compile(&lifted)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_emu::execute;

    #[test]
    fn hybrid_pipeline_end_to_end() {
        let w = rr_workloads::pincheck();
        let exe = w.build().unwrap();
        let outcome = harden_hybrid(&exe, &HybridConfig::default()).unwrap();
        assert!(outcome.report.protected_branches > 0);
        assert!(outcome.ir_ops_after > outcome.ir_ops_before);
        assert!(outcome.overhead_percent() > 0.0);
        for input in [&w.good_input, &w.bad_input] {
            let a = execute(&exe, input, 1_000_000);
            let b = execute(&outcome.hardened, input, 100_000_000);
            assert!(a.same_behavior(&b));
        }
    }

    #[test]
    fn verified_hybrid_measures_residual_faults() {
        let w = rr_workloads::pincheck();
        let exe = w.build().unwrap();
        let verified = harden_hybrid_verified(
            &exe,
            &w.good_input,
            &w.bad_input,
            &rr_fault::InstructionSkip,
            &HybridConfig::default(),
        )
        .unwrap();
        assert!(verified.hybrid.report.protected_branches > 0);
        assert!(verified.residual.total > 0, "campaign must evaluate faults");
        assert_eq!(verified.residual.diverged, 0, "golden replays never diverge");
        assert!(verified.stride >= 1);
        // The checksum pass protects the decision branches; skipping an
        // unprotected instruction may still corrupt, but the hardened
        // binary must not be *more* skip-vulnerable than the original.
        let baseline = {
            let session = CampaignSession::builder(exe.clone())
                .good_input(&w.good_input[..])
                .bad_input(&w.bad_input[..])
                .build()
                .unwrap();
            session
                .run(&[&rr_fault::InstructionSkip as &dyn FaultModel], Stream)
                .pop()
                .unwrap()
                .summary
        };
        let baseline_rate = baseline.success as f64 / baseline.total.max(1) as f64;
        let hardened_rate =
            verified.residual.success as f64 / verified.residual.total.max(1) as f64;
        assert!(
            hardened_rate <= baseline_rate,
            "hardening must not increase the success rate: {hardened_rate} vs {baseline_rate}"
        );
    }

    #[test]
    fn mul_overflow_flags_survive_the_lift() {
        // Regression: the lift used to clear C/V after `mul` where the
        // machine sets both on unsigned overflow, so a branch on carry
        // straight after an overflowing multiply diverged through the
        // hybrid pipeline. Both sides of the branch must round-trip.
        let src = "    .global _start\n\
                   _start:\n\
                       mov r1, 0x8000000000000000\n\
                       mov r2, 3\n\
                       mul r1, r2\n\
                       jb .overflowed\n\
                       mov r1, 'n'\n\
                       svc 1\n\
                       mov r1, 0\n\
                       svc 0\n\
                   .overflowed:\n\
                       mov r1, 'o'\n\
                       svc 1\n\
                       mov r1, 0\n\
                       svc 0\n";
        for factor in ["3", "2", "1"] {
            let exe =
                rr_asm::assemble_and_link(&src.replace("mov r2, 3", &format!("mov r2, {factor}")))
                    .unwrap();
            let roundtrip = lift_lower_roundtrip(&exe, true).unwrap();
            let a = execute(&exe, &[], 100_000);
            let b = execute(&roundtrip, &[], 1_000_000);
            assert_eq!(a.output, b.output, "factor {factor}");
            assert_eq!(a.outcome, b.outcome, "factor {factor}");
        }
    }

    #[test]
    fn roundtrip_overhead_is_part_of_hybrid_overhead() {
        let w = rr_workloads::otp_check();
        let exe = w.build().unwrap();
        let plain = lift_lower_roundtrip(&exe, true).unwrap();
        let hardened = harden_hybrid(&exe, &HybridConfig::default()).unwrap();
        assert!(plain.code_size() > exe.code_size());
        assert!(hardened.hardened.code_size() > plain.code_size());
    }

    #[test]
    fn unoptimized_pipeline_costs_more() {
        let w = rr_workloads::otp_check();
        let exe = w.build().unwrap();
        let optimized = harden_hybrid(&exe, &HybridConfig::default()).unwrap();
        let naive =
            harden_hybrid(&exe, &HybridConfig { optimize: false, ..Default::default() }).unwrap();
        assert!(naive.hardened.code_size() > optimized.hardened.code_size());
    }
}
