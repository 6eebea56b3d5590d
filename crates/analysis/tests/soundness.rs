//! Property-based soundness: random programs, ground-truth interpreter.
//!
//! For randomly generated straight-line programs (plus one observing
//! branch and printing tail), every fault effect the analysis marks
//! [`StaticVerdict::Benign`] is actually injected on the emulator at
//! every step it applies to, and the faulted run must be behaviorally
//! identical (outcome + output) to the unfaulted baseline. The campaign
//! stack is deliberately absent here — the replay loop below is built
//! from `rr-emu` primitives alone, so a bug shared by the analysis and
//! the fault pipeline cannot mask itself.

use proptest::prelude::*;
use rr_analysis::{Analysis, StaticVerdict};
use rr_emu::{execute_traced, Execution, Machine};
use rr_isa::{Cond, Flags, Reg};
use rr_obj::Executable;

/// Scratch registers the generated bodies write and read (r2–r9; the
/// tail makes r2/r3/r4/r5 observable, so r6–r9 usually die early).
const SCRATCH: [u8; 8] = [2, 3, 4, 5, 6, 7, 8, 9];

fn reg_name(index: u8) -> String {
    format!("r{index}")
}

/// One random body instruction: register/immediate moves, ALU ops,
/// immediate shifts (counts that mask to zero included), compares and
/// `set<cc>`, the exact shapes the dataflow transfer function has to get
/// right (defs kill liveness, uses create it, `cmp` defines flags, a
/// zero-count shift defines nothing, `set<cc>` reads flags).
fn body_insn() -> impl Strategy<Value = String> {
    let reg = || (0usize..SCRATCH.len()).prop_map(|i| reg_name(SCRATCH[i]));
    let imm = || 0i64..64;
    prop_oneof![
        (reg(), 0usize..4, 0usize..3).prop_map(|(d, amt, op)| {
            let op = ["shl", "shr", "sar"][op];
            format!("    {op} {d}, {}", [0, 1, 63, 64][amt])
        }),
        (reg(), 0usize..Cond::ALL.len())
            .prop_map(|(d, cc)| format!("    set{} {d}", Cond::ALL[cc].mnemonic())),
        (reg(), imm()).prop_map(|(d, v)| format!("    mov {d}, {v}")),
        (reg(), reg()).prop_map(|(d, s)| format!("    mov {d}, {s}")),
        (reg(), imm(), 0usize..5).prop_map(|(d, v, op)| {
            let op = ["add", "sub", "and", "or", "xor"][op];
            format!("    {op} {d}, {v}")
        }),
        (reg(), reg(), 0usize..5).prop_map(|(d, s, op)| {
            let op = ["add", "sub", "and", "or", "xor"][op];
            format!("    {op} {d}, {s}")
        }),
        (reg(), imm()).prop_map(|(a, v)| format!("    cmp {a}, {v}")),
    ]
}

/// Wraps a generated body in a tail that keeps r2 (compared + branched
/// on), r3 (exit code) and r4/r5 (printed in decimal) observable, so the
/// analysis has both live and dead state to reason about.
fn program(body: &[String]) -> String {
    let mut source = String::from("    .global _start\n    .text\n_start:\n");
    for line in body {
        source.push_str(line);
        source.push('\n');
    }
    source.push_str(
        "    cmp r2, 7\n\
         \x20   jne .skip\n\
         \x20   mov r1, 33\n\
         \x20   svc 1\n\
         .skip:\n\
         \x20   mov r1, r4\n\
         \x20   svc 3\n\
         \x20   mov r1, r5\n\
         \x20   svc 3\n\
         \x20   mov r1, r3\n\
         \x20   svc 0\n",
    );
    source
}

const BUDGET: u64 = 20_000;

/// Replays to `step`, checks the pc, applies `effect`, and asserts the
/// rest of the run is indistinguishable from `baseline`. Mirrors the
/// single-fault reference semantics in the campaign tests.
fn assert_benign(
    exe: &Executable,
    step: usize,
    pc: u64,
    baseline: &Execution,
    what: &str,
    effect: impl FnOnce(&mut Machine),
) {
    let mut machine = Machine::new(exe, &[]);
    for _ in 0..step {
        machine.step().expect("replay stays on the traced path");
    }
    assert_eq!(machine.pc(), pc, "trace/replay disagree at step {step}");
    effect(&mut machine);
    let result = machine.run(BUDGET);
    let faulted =
        Execution { outcome: result.outcome, output: machine.take_output(), steps: result.steps };
    assert!(
        faulted.same_behavior(baseline),
        "analysis called {what} at step {step} (pc {pc:#x}) benign, but the faulted run \
         differs: {:?} {:?} vs baseline {:?} {:?}",
        faulted.outcome,
        faulted.output,
        baseline.outcome,
        baseline.output
    );
}

/// Injects every statically-benign effect at every traced step and
/// checks behavioral identity. Returns how many effects were executed,
/// so callers can assert non-vacuity where that is guaranteed.
fn check_all_benign_verdicts(source: &str) -> usize {
    let exe = rr_asm::assemble_and_link(source).expect("generated program assembles");
    let analysis = Analysis::from_executable(&exe).expect("generated program analyzes");
    let (baseline, trace) = execute_traced(&exe, &[], BUDGET);
    let mut exercised = 0;
    for (step, &pc) in trace.iter().enumerate() {
        let Some(len) = analysis.site_len(pc) else { continue };
        if analysis.skip_verdict(pc) == StaticVerdict::Benign {
            exercised += 1;
            assert_benign(&exe, step, pc, &baseline, "skip", |m| {
                m.skip_instruction().expect("skip within text");
            });
        }
        for reg in Reg::ALL {
            if analysis.reg_flip_verdict(pc, reg) != StaticVerdict::Benign {
                continue;
            }
            for bit in [0u32, 7, 63] {
                exercised += 1;
                assert_benign(&exe, step, pc, &baseline, &format!("{reg} flip"), |m| {
                    m.set_reg(reg, m.reg(reg) ^ (1u64 << bit));
                });
            }
        }
        for mask in [1u8, 2, 4, 8] {
            if analysis.flag_flip_verdict(pc, mask) != StaticVerdict::Benign {
                continue;
            }
            exercised += 1;
            assert_benign(&exe, step, pc, &baseline, &format!("flag flip {mask:#x}"), |m| {
                m.set_flags(Flags::from_bits(m.flags().to_bits() ^ u64::from(mask)));
            });
        }
        for byte in 0..len {
            for bit in 0..8u8 {
                if analysis.insn_bit_flip_verdict(pc, byte, bit) != StaticVerdict::Benign {
                    continue;
                }
                exercised += 1;
                let what = format!("insn bit flip byte {byte} bit {bit}");
                assert_benign(&exe, step, pc, &baseline, &what, |m| {
                    let addr = pc + byte as u64;
                    let current = m.peek_bytes(addr, 1).expect("insn byte readable")[0];
                    m.poke_bytes(addr, &[current ^ (1 << bit)]);
                });
            }
        }
    }
    exercised
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn benign_verdicts_are_dynamically_invisible(
        body in proptest::collection::vec(body_insn(), 0..14),
    ) {
        check_all_benign_verdicts(&program(&body));
    }
}

/// Non-vacuity pin: on a fixed program with obviously-dead scratch state
/// the analysis must produce (and this suite must therefore execute) a
/// healthy number of benign verdicts — the property test above cannot be
/// passing merely because nothing was ever classified benign.
#[test]
fn fixed_program_exercises_benign_verdicts() {
    let body: Vec<String> = [
        "    mov r9, 41",
        "    add r9, 1", // r9 is never read again: dead def
        "    mov r2, 7",
        "    cmp r8, 0", // flags overwritten by the tail's cmp: dead
        "    mov r4, 5",
        "    mov r5, 6",
        "    mov r3, 0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let exercised = check_all_benign_verdicts(&program(&body));
    assert!(exercised > 20, "only {exercised} benign effects exercised");
}
