//! Differential pass testing: every transformation must leave the
//! *interpreted* behaviour of a lifted module unchanged — checked directly
//! on the IR with `rr_ir::interp`, independently of the lowering backend.

use rr_harden::BranchHardening;
use rr_ir::interp::{Interp, InterpOutcome};
use rr_ir::passes::{DeadCodeElimination, PromoteCells};
use rr_ir::{Module, Pass};

/// Interprets `module` on `input` (symaddr-free modules only).
fn behavior(module: &Module, input: &[u8]) -> (InterpOutcome, Vec<u8>) {
    let result = Interp::new(module, input)
        .with_max_steps(50_000_000)
        .run()
        .expect("interpretation succeeds");
    (result.outcome, result.output)
}

/// Lifts a workload whose module contains no `symaddr` ops would be
/// needed — instead, build modules from sources without data sections so
/// the interpreter can run them.
fn lift_module(src: &str) -> Module {
    let exe = rr_asm::assemble_and_link(src).expect("source builds");
    rr_lift::lift(&exe).expect("lifts").module
}

/// A data-section-free OTP-style checker: reads 4 bytes, xor-accumulates
/// against inline constants, one decision branch.
const CHECKER: &str = "    .global _start\n\
    .text\n\
_start:\n\
    mov r7, 0\n\
    mov r9, 0\n\
.loop:\n\
    svc 2\n\
    cmp r0, -1\n\
    je .reject\n\
    mov r2, 0x35\n\
    xor r2, r0\n\
    or r7, r2\n\
    add r9, 1\n\
    cmp r9, 4\n\
    jne .loop\n\
    cmp r7, 0\n\
    jne .reject\n\
    mov r1, 0\n\
    svc 0\n\
.reject:\n\
    mov r1, 1\n\
    svc 0\n";

const GOOD: &[u8] = b"5555";
const BAD: &[u8] = b"5554";

fn assert_pass_preserves(pass: &dyn Pass) {
    let original = lift_module(CHECKER);
    let mut transformed = original.clone();
    pass.run(&mut transformed);
    rr_ir::verify(&transformed).unwrap_or_else(|e| panic!("{}: {e}", pass.name()));
    for input in [GOOD, BAD, b"5x55" as &[u8], b"", b"55555"] {
        let a = behavior(&original, input);
        let b = behavior(&transformed, input);
        assert_eq!(a, b, "{}: diverged on {input:?}", pass.name());
    }
}

#[test]
fn golden_behavior_of_the_checker() {
    let module = lift_module(CHECKER);
    assert_eq!(behavior(&module, GOOD).0, InterpOutcome::Exited(0));
    assert_eq!(behavior(&module, BAD).0, InterpOutcome::Exited(1));
    assert_eq!(behavior(&module, b"").0, InterpOutcome::Exited(1));
}

#[test]
fn promote_cells_is_behavior_preserving() {
    assert_pass_preserves(&PromoteCells);
}

#[test]
fn dce_is_behavior_preserving() {
    assert_pass_preserves(&DeadCodeElimination);
}

#[test]
fn branch_hardening_is_behavior_preserving() {
    assert_pass_preserves(&BranchHardening::default());
    assert_pass_preserves(&BranchHardening::with_copies(1));
    assert_pass_preserves(&BranchHardening::with_copies(3));
}

#[test]
fn full_pipeline_is_behavior_preserving() {
    let original = lift_module(CHECKER);
    let mut transformed = original.clone();
    PromoteCells.run(&mut transformed);
    DeadCodeElimination.run(&mut transformed);
    BranchHardening::default().run(&mut transformed);
    rr_ir::verify(&transformed).unwrap();
    for input in [GOOD, BAD] {
        assert_eq!(behavior(&original, input), behavior(&transformed, input));
    }
    // And the hardened module really grew.
    assert!(transformed.placed_op_count() > original.placed_op_count());
}

#[test]
fn interpreter_agrees_with_the_emulator() {
    // Cross-validation of the two execution engines on the same program.
    let exe = rr_asm::assemble_and_link(CHECKER).unwrap();
    let module = lift_module(CHECKER);
    for input in [GOOD, BAD, b"55" as &[u8]] {
        let machine = rr_emu::execute(&exe, input, 1_000_000);
        let (outcome, output) = behavior(&module, input);
        let machine_code = match machine.outcome {
            rr_emu::RunOutcome::Exited { code } => InterpOutcome::Exited(code),
            other => panic!("unexpected machine outcome {other:?}"),
        };
        assert_eq!(outcome, machine_code, "outcome mismatch on {input:?}");
        assert_eq!(output, machine.output, "output mismatch on {input:?}");
    }
}
