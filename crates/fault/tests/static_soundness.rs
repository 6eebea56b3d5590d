//! Soundness of the static fault-effect analysis, checked dynamically.
//!
//! The pruning contract is one-sided: a [`StaticVerdict::Benign`] plan
//! must classify [`FaultClass::Benign`] when actually executed — the
//! analysis may say `Unknown` about anything, but never `Benign` about a
//! plan with an observable effect. Two independent checks pin this over
//! every bundled workload and fault model:
//!
//! * **audit mode** (`audit_analysis`) disables pruning, executes every
//!   plan — including the statically-benign ones — and records each
//!   statically-benign plan that classified non-benign as an audit
//!   failure; the suite demands zero, at order 1 and order 2;
//! * **invariance**: an unbudgeted campaign with pruning on must report
//!   exactly the same non-benign results (and therefore bit-identical
//!   successes) as the same campaign with pruning off — pruning may only
//!   ever drop plans that execute to `Benign`.
//!
//! Both checks also run on [`zero_shift_decision`], whose flags pass
//! through a zero-count shift on their way to the branch.

use rr_fault::{
    CampaignConfig, CampaignSession, Collect, FaultClass, FaultModel, FaultResult, FlagFlip,
    InstructionSkip, PairPolicy, PlanConfig, RegisterBitFlip, SingleBitFlip,
};
use rr_workloads::{all_workloads, Workload};

/// A one-byte access decision with `shl r2, 0` between the compare and
/// the branch. The shift count masks to zero, so the shift leaves the
/// flags alone: a flag flip just before it still reaches the `jeq`.
fn zero_shift_decision() -> Workload {
    Workload {
        name: "zero-shift-decision",
        description: "grants on input `G`; the decision's flags pass a zero-count shift",
        source: "    .global _start\n\
                 _start:\n\
                     svc 2\n\
                     cmp r0, 71\n\
                     shl r2, 0\n\
                     jeq .grant\n\
                     mov r1, 'N'\n\
                     svc 1\n\
                     mov r1, 1\n\
                     svc 0\n\
                 .grant:\n\
                     mov r1, 'Y'\n\
                     svc 1\n\
                     mov r1, 0\n\
                     svc 0\n"
            .to_owned(),
        good_input: b"G".to_vec(),
        bad_input: b"B".to_vec(),
    }
}

/// The bundled workloads plus [`zero_shift_decision`].
fn workloads() -> Vec<Workload> {
    let mut workloads = all_workloads();
    workloads.push(zero_shift_decision());
    workloads
}

fn models() -> Vec<Box<dyn FaultModel>> {
    vec![
        Box::new(InstructionSkip),
        Box::new(SingleBitFlip),
        Box::new(FlagFlip),
        Box::new(RegisterBitFlip {
            regs: vec![rr_isa::Reg::from_index(0), rr_isa::Reg::from_index(6)],
            bits: vec![0, 1, 63],
        }),
    ]
}

/// Site strides keeping the heavy models affordable (the exhaustive
/// per-fault comparison already runs in `multifault.rs`; here the point
/// is coverage of every workload × model pair under both checks).
fn stride_for(model: &str) -> usize {
    match model {
        "single-bit-flip" => 5,
        _ => 2,
    }
}

fn session(w: &Workload, config: CampaignConfig) -> CampaignSession {
    CampaignSession::builder(w.build().unwrap())
        .good_input(&w.good_input[..])
        .bad_input(&w.bad_input[..])
        .config(config)
        .build()
        .unwrap_or_else(|e| panic!("{}: session setup failed: {e}", w.name))
}

#[test]
fn audit_mode_finds_no_unsound_verdict_on_any_workload_or_model() {
    for w in workloads() {
        for model in models() {
            let config = CampaignConfig {
                site_stride: stride_for(model.name()),
                audit_analysis: true,
                ..CampaignConfig::default()
            };
            let s = session(&w, config);
            let report = s.run(&[model.as_ref()], Collect).pop().unwrap();
            assert!(
                report.audit_failures.is_empty(),
                "{}/{}: statically-benign plan(s) classified non-benign: {:?}",
                w.name,
                model.name(),
                report.audit_failures
            );
            // Audit implies no pruning: every plan must have executed.
            assert_eq!(report.plans_pruned_static(), 0, "{}/{}", w.name, model.name());
        }
    }
}

#[test]
fn order_two_audit_is_clean() {
    // Order-2 plans compose two effects; a statically-benign pair (both
    // members individually benign) must still execute to `Benign`.
    for w in workloads() {
        for model in [&InstructionSkip as &dyn FaultModel, &FlagFlip] {
            let config = CampaignConfig {
                site_stride: 3,
                audit_analysis: true,
                plan: PlanConfig {
                    order: 2,
                    policy: PairPolicy::WithinWindow { max_gap: 8 },
                    ..PlanConfig::default()
                },
                ..CampaignConfig::default()
            };
            let report = session(&w, config).run(&[model], Collect).pop().unwrap();
            assert!(
                report.audit_failures.is_empty(),
                "{}/{} order 2: {:?}",
                w.name,
                model.name(),
                report.audit_failures
            );
        }
    }
}

/// The results a pruned campaign must reproduce exactly: everything the
/// oracle did **not** classify benign.
fn non_benign(results: &[FaultResult]) -> Vec<&FaultResult> {
    results.iter().filter(|r| r.class != FaultClass::Benign).collect()
}

#[test]
fn pruning_preserves_every_non_benign_classification() {
    // Unbudgeted campaigns only: with a per-order sampling budget the
    // budget is intentionally spent on the *pruned* plan space, so the
    // drawn samples (and their classifications) legitimately differ.
    for w in workloads() {
        for model in models() {
            let config = |static_prune| CampaignConfig {
                site_stride: stride_for(model.name()),
                static_prune,
                ..CampaignConfig::default()
            };
            let pruned = session(&w, config(true)).run(&[model.as_ref()], Collect).pop().unwrap();
            let full = session(&w, config(false)).run(&[model.as_ref()], Collect).pop().unwrap();
            assert_eq!(
                non_benign(&pruned.results),
                non_benign(&full.results),
                "{}/{}: pruning changed a non-benign result",
                w.name,
                model.name()
            );
            // In particular the successes — the campaign's findings — are
            // bit-identical, and the pruned counts account for exactly
            // the plans that vanished from the report.
            assert_eq!(pruned.summary().success, full.summary().success);
            assert_eq!(
                pruned.results.len() as u128 + pruned.plans_pruned_static(),
                full.results.len() as u128,
                "{}/{}",
                w.name,
                model.name()
            );
            assert_eq!(full.plans_pruned_static(), 0, "pruning off reports nothing pruned");
        }
    }
}

#[test]
fn order_two_pruning_is_invariant_too() {
    let w = rr_workloads::otp_check();
    let config = |static_prune| CampaignConfig {
        site_stride: 3,
        static_prune,
        plan: PlanConfig {
            order: 2,
            policy: PairPolicy::WithinWindow { max_gap: 6 },
            ..PlanConfig::default()
        },
        ..CampaignConfig::default()
    };
    let model: &dyn FaultModel = &FlagFlip;
    let pruned = session(&w, config(true)).run(&[model], Collect).pop().unwrap();
    let full = session(&w, config(false)).run(&[model], Collect).pop().unwrap();
    assert_eq!(non_benign(&pruned.results), non_benign(&full.results));
    let pruned_total: u128 = pruned.pruned_by_order.iter().map(|&(_, n)| n).sum();
    assert_eq!(pruned.results.len() as u128 + pruned_total, full.results.len() as u128);
}

/// Pruning's payoff on the shape it targets: a checksum loop whose
/// scratch registers die inside every iteration, under a bitflip-heavy
/// campaign. Pruned plans are accounted for without being executed, so
/// each executed plan stands for ≥ 1.3 plans of the fault space, and at
/// least a quarter of the space is proven benign.
/// `pruning_preserves_every_non_benign_classification` pins that the
/// executed results are unchanged.
#[test]
fn pruning_accounts_for_most_of_a_dead_scratch_campaign_without_executing_it() {
    let exe = rr_asm::assemble_and_link(
        "    .global _start\n\
         _start:\n\
             mov r1, 150\n\
             mov r2, 0\n\
         .loop:\n\
             mov r6, r1\n\
             shl r6, 3\n\
             mov r7, r1\n\
             xor r7, 21\n\
             add r6, r7\n\
             mov r8, r6\n\
             and r8, 255\n\
             add r2, r8\n\
             mov r9, 7\n\
             mov r10, 11\n\
             mov r11, 13\n\
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
    .expect("dead-scratch program builds");
    let config = CampaignConfig { threads: 1, site_stride: 2, ..CampaignConfig::default() };
    let session = CampaignSession::builder(exe)
        .good_input(&b"G"[..])
        .bad_input(&b"B"[..])
        .config(config)
        .build()
        .expect("session sets up");
    let reg_flips = RegisterBitFlip::low_bits(6);
    let reports = session.run(&[&SingleBitFlip as &dyn FaultModel, &reg_flips], Collect);
    let executed: u128 = reports.iter().map(|r| r.results.len() as u128).sum();
    let pruned: u128 = reports.iter().map(|r| r.plans_pruned_static()).sum();
    let total = executed + pruned;
    assert!(10 * total >= 13 * executed, "{total} plans, {executed} executed");
    assert!(4 * pruned >= total, "{pruned} of {total} plans pruned");
}
