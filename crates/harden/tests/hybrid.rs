//! End-to-end Hybrid pipeline tests: lift → harden pass → lower, then
//! verify behaviour preservation and fault-injection resistance (paper
//! §V-C, second approach).

use rr_emu::execute;
use rr_fault::{CampaignSession, Collect, FaultClass, FaultModel, InstructionSkip};
use rr_harden::BranchHardening;
use rr_ir::PassManager;
use rr_lower::compile;
use rr_obj::Executable;
use rr_workloads::{all_workloads, pincheck, Workload};

fn hybrid(w: &Workload, pass_builder: impl FnOnce(&mut PassManager)) -> Executable {
    let exe = w.build().unwrap();
    let mut lifted = rr_lift::lift(&exe).unwrap_or_else(|e| panic!("{}: lift: {e}", w.name));
    let mut pm = PassManager::new();
    pass_builder(&mut pm);
    pm.run(&mut lifted.module).unwrap_or_else(|(p, e)| panic!("{}: pass {p}: {e}", w.name));
    compile(&lifted).unwrap_or_else(|e| panic!("{}: lower: {e}", w.name))
}

const BUDGET: u64 = 100_000_000;

#[test]
fn branch_hardening_preserves_behavior_on_all_workloads() {
    for w in all_workloads() {
        let exe = w.build().unwrap();
        let hardened = hybrid(&w, |pm| {
            pm.add(BranchHardening::default());
        });
        for input in [&w.good_input, &w.bad_input] {
            let original = execute(&exe, input, 1_000_000);
            let result = execute(&hardened, input, BUDGET);
            assert!(
                original.same_behavior(&result),
                "{}: hybrid hardening changed behaviour on {input:?}:\n{original:?}\n{result:?}",
                w.name
            );
        }
    }
}

#[test]
fn branch_hardening_with_optimizations_preserves_behavior() {
    for w in [pincheck(), rr_workloads::otp_check()] {
        let exe = w.build().unwrap();
        let hardened = hybrid(&w, |pm| {
            pm.add(rr_ir::passes::PromoteCells);
            pm.add(rr_ir::passes::DeadCodeElimination);
            pm.add(BranchHardening::default());
        });
        for input in [&w.good_input, &w.bad_input] {
            let original = execute(&exe, input, 1_000_000);
            let result = execute(&hardened, input, BUDGET);
            assert!(original.same_behavior(&result), "{}", w.name);
        }
    }
}

/// Paper §V-C, Hybrid approach: the conditional-branch hardening must
/// eliminate every *compare/branch-related* skip vulnerability (the only
/// kind the paper's case studies exhibited). Residual vulnerabilities may
/// remain on plain data moves of the lowered code — they are outside the
/// pass's scope and are mopped up by the iterative loop below.
#[test]
fn branch_hardening_blocks_decision_skips() {
    let w = pincheck();
    let exe = w.build().unwrap();
    let baseline_session = CampaignSession::builder(exe.clone())
        .good_input(&w.good_input[..])
        .bad_input(&w.bad_input[..])
        .build()
        .unwrap();
    let baseline =
        baseline_session.run(&[&InstructionSkip as &dyn FaultModel], Collect).pop().unwrap();
    let baseline_vulns = baseline.summary().success;
    assert!(baseline_vulns > 0);

    let hardened = hybrid(&w, |pm| {
        pm.add(rr_ir::passes::PromoteCells);
        pm.add(rr_ir::passes::DeadCodeElimination);
        pm.add(BranchHardening::default());
    });
    let config = rr_fault::CampaignConfig {
        golden_max_steps: BUDGET,
        faulted_min_steps: BUDGET,
        ..Default::default()
    };
    let session = CampaignSession::builder(hardened)
        .good_input(&w.good_input[..])
        .bad_input(&w.bad_input[..])
        .config(config)
        .build()
        .unwrap();
    let report = session.run(&[&InstructionSkip as &dyn FaultModel], Collect).pop().unwrap();
    let summary = report.summary();
    assert!(summary.crashed > 0, "validation must catch some faults: {summary}");

    // No residual vulnerability may sit on a compare or conditional jump.
    for result in report.vulnerabilities() {
        assert_eq!(result.class, FaultClass::Success);
        let site = session
            .sites()
            .iter()
            .find(|s| s.step == result.fault().step)
            .expect("site for vulnerability");
        let kind = site.insn.kind();
        assert!(
            !matches!(kind, rr_isa::InstrKind::Cmp | rr_isa::InstrKind::CondJump),
            "decision-path vulnerability survived hardening: {} at {:#x}",
            site.insn,
            site.pc
        );
    }
    // And the hardening must not be vacuous: only a handful of data-move
    // residuals may remain.
    assert!(summary.success <= 5, "too many residual vulnerabilities: {summary}");
}

/// The paper's stated future work — "enable an iterative countermeasure
/// insertion for the Hybrid methodology" — implemented: run the
/// Faulter+Patcher loop on the Hybrid output to clear the residual
/// data-move vulnerabilities.
#[test]
fn iterative_patching_of_hybrid_output_reaches_zero() {
    let w = pincheck();
    let hardened = hybrid(&w, |pm| {
        pm.add(rr_ir::passes::PromoteCells);
        pm.add(rr_ir::passes::DeadCodeElimination);
        pm.add(BranchHardening::default());
    });
    let config = rr_patch::HardenConfig {
        campaign: rr_fault::CampaignConfig {
            golden_max_steps: BUDGET,
            faulted_min_steps: BUDGET,
            ..Default::default()
        },
        ..Default::default()
    };
    let driver = rr_patch::FaulterPatcher::new(config);
    let outcome =
        driver.harden(&hardened, &w.good_input, &w.bad_input, &InstructionSkip).expect("loop runs");
    assert!(outcome.fixed_point, "hybrid + iterative patching must reach a fixed point");
    assert_eq!(outcome.residual_vulnerabilities, 0);
}

#[test]
fn hybrid_overhead_exceeds_faulter_patcher_overhead() {
    // The paper's Table V shape: Hybrid costs more than the targeted
    // Faulter+Patcher approach, because it pays for the lift/lower round
    // trip and protects every branch.
    let w = pincheck();
    let exe = w.build().unwrap();

    let driver = rr_patch::FaulterPatcher::new(rr_patch::HardenConfig::default());
    let fp = driver.harden(&exe, &w.good_input, &w.bad_input, &InstructionSkip).unwrap();
    let fp_overhead = fp.overhead_percent();

    let hardened = hybrid(&w, |pm| {
        pm.add(rr_ir::passes::PromoteCells);
        pm.add(rr_ir::passes::DeadCodeElimination);
        pm.add(BranchHardening::default());
    });
    let hybrid_overhead =
        (hardened.code_size() as f64 - exe.code_size() as f64) / exe.code_size() as f64 * 100.0;

    assert!(
        hybrid_overhead > fp_overhead,
        "hybrid ({hybrid_overhead:.1}%) must exceed targeted patching ({fp_overhead:.1}%)"
    );
}
