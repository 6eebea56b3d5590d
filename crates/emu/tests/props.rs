//! Property tests for the emulator: determinism, crash-freedom of the
//! host, and agreement between `run` and manual stepping.

use proptest::prelude::*;
use rr_asm::assemble_and_link;
use rr_emu::{execute, BlockCache, BlockStats, Machine, RunOutcome};

/// Random but *assemblable* straight-line programs over safe instructions
/// (no unbalanced memory, no control flow — those are covered by
/// targeted tests). Balanced `push`/`pop` pairs, `not`/`neg`, and dead
/// compares are included so the uop tier's stack ops and lazy flags see
/// real work.
fn safe_line() -> impl Strategy<Value = String> {
    let reg = (0u8..14).prop_map(|i| format!("r{i}"));
    prop_oneof![
        (reg.clone(), any::<i32>()).prop_map(|(r, v)| format!("mov {r}, {v}")),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| format!("add {a}, {b}")),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| format!("sub {a}, {b}")),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| format!("mul {a}, {b}")),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| format!("xor {a}, {b}")),
        (reg.clone(), 0u8..64).prop_map(|(r, v)| format!("shl {r}, {v}")),
        (reg.clone(), 0u8..64).prop_map(|(r, v)| format!("sar {r}, {v}")),
        (reg.clone(), any::<i32>()).prop_map(|(r, v)| format!("cmp {r}, {v}")),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| format!("test {a}, {b}")),
        (reg.clone()).prop_map(|r| format!("not {r}")),
        (reg.clone()).prop_map(|r| format!("neg {r}")),
        (reg.clone(), reg).prop_map(|(a, b)| format!("push {a}\n    pop {b}")),
        Just("nop".to_owned()),
        Just("pushf".to_owned()),
        Just("popf".to_owned()),
    ]
}

fn program(lines: &[String]) -> String {
    let mut src = String::from("    .global _start\n_start:\n");
    for line in lines {
        src.push_str("    ");
        src.push_str(line);
        src.push('\n');
    }
    src.push_str("    mov r1, r2\n    and r1, 0xff\n    svc 0\n");
    src
}

/// Like [`program`], but the random body runs inside a countdown loop so
/// the block executor sees real control flow (back edges, a conditional
/// exit) instead of one straight-line superblock.
fn looped_program(lines: &[String], iters: u64) -> String {
    let mut src = format!("    .global _start\n_start:\n    mov r13, {iters}\n.loop:\n");
    for line in lines {
        src.push_str("    ");
        src.push_str(line);
        src.push('\n');
    }
    src.push_str("    sub r13, 1\n    cmp r13, 0\n    jne .loop\n");
    src.push_str("    mov r1, r2\n    and r1, 0xff\n    svc 0\n");
    src
}

/// Runs `machine` to completion through the uop tier in `chunk`-step
/// slices (so fences land at arbitrary mid-block steps), and returns
/// `(outcome, total_steps)`.
fn run_uops_chunked(
    machine: &mut Machine,
    cache: &BlockCache,
    chunk: u64,
    max_steps: u64,
) -> (RunOutcome, u64) {
    let mut stats = BlockStats::default();
    let mut total = 0u64;
    while machine.stopped().is_none() && total < max_steps {
        let result = machine.run_uops(cache, chunk.min(max_steps - total), &mut stats);
        total += result.steps;
    }
    (machine.stopped().unwrap_or(RunOutcome::TimedOut), total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identical runs produce identical executions, bit for bit.
    #[test]
    fn execution_is_deterministic(lines in proptest::collection::vec(safe_line(), 0..32)) {
        let exe = assemble_and_link(&program(&lines)).expect("program builds");
        let a = execute(&exe, &[], 100_000);
        let b = execute(&exe, &[], 100_000);
        prop_assert_eq!(a, b);
    }

    /// `run` and manual single-stepping agree on the outcome.
    #[test]
    fn stepping_agrees_with_run(lines in proptest::collection::vec(safe_line(), 0..16)) {
        let exe = assemble_and_link(&program(&lines)).expect("program builds");
        let run_result = {
            let mut m = Machine::new(&exe, &[]);
            m.run(100_000)
        };
        let step_result = {
            let mut m = Machine::new(&exe, &[]);
            let mut steps = 0u64;
            while m.stopped().is_none() && steps < 100_000 {
                let _ = m.step();
                steps += 1;
            }
            m.stopped().expect("straight-line programs terminate")
        };
        prop_assert_eq!(run_result.outcome, step_result);
    }

    /// Random single-byte corruption of the code never breaks the *host*:
    /// the machine either runs to some outcome or crashes cleanly. The uop
    /// tier runs the same corrupted machine bit-identically, from a cache
    /// built from the entry leader alone, so the rewritten code
    /// (length-changing corruptions included) and every pc the entry
    /// block does not cover run from blocks decoded out of the machine's
    /// own bytes.
    #[test]
    fn corrupted_binaries_cannot_harm_the_host(
        lines in proptest::collection::vec(safe_line(), 1..16),
        offset in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let exe = assemble_and_link(&program(&lines)).expect("program builds");
        let mut m = Machine::new(&exe, &[]);
        let text = exe.text_range();
        let len = (text.end - text.start) as usize;
        let addr = text.start + offset.index(len) as u64;
        let byte = m.peek_bytes(addr, 1).expect("text is mapped")[0];
        m.poke_bytes(addr, &[byte ^ flip]);
        let poked = m.clone();
        let result = m.run(50_000);
        let output = m.take_output();

        let cache = BlockCache::build(&exe, [exe.entry]).expect("the entry decodes");
        let mut uops = poked;
        let mut stats = BlockStats::default();
        let got = uops.run_uops(&cache, 50_000, &mut stats);
        prop_assert_eq!(result.outcome, got.outcome);
        prop_assert_eq!(result.steps, got.steps);
        prop_assert_eq!(m.pc(), uops.pc());
        prop_assert_eq!(m.flags(), uops.flags());
        for i in 0..16u8 {
            let reg = rr_isa::Reg::from_index(i);
            prop_assert_eq!(m.reg(reg), uops.reg(reg), "r{}", i);
        }
        prop_assert_eq!(output, uops.take_output());
    }

    /// Block-cached execution is bit-identical to the interpreter over
    /// random looped programs, for every fence placement: the same
    /// outcome after the same number of steps, with the same registers,
    /// **NZCV flags** (the lazy-materialization contract), program
    /// counter, and output — even when the run is driven in chunks whose
    /// boundaries land mid-block or between the halves of a fused
    /// compare-and-branch.
    #[test]
    fn block_cached_execution_matches_the_interpreter(
        lines in proptest::collection::vec(safe_line(), 0..24),
        iters in 1u64..6,
        chunk in 1u64..97,
    ) {
        let exe = assemble_and_link(&looped_program(&lines, iters)).expect("program builds");
        let text = exe.text_range();
        // Every text offset as a candidate leader: undecodable or
        // mid-instruction candidates are dropped by the builder, so this
        // maximizes block-entry coverage without knowing the CFG.
        let cache = BlockCache::build(&exe, text.start..text.end).expect("text decodes");
        let max_steps = 50_000u64;

        let mut interp = Machine::new(&exe, &[]);
        let interp_result = interp.run(max_steps);

        let mut blocks = Machine::new(&exe, &[]);
        let (outcome, steps) = run_uops_chunked(&mut blocks, &cache, chunk, max_steps);

        prop_assert_eq!(interp_result.outcome, outcome);
        prop_assert_eq!(interp_result.steps, steps);
        prop_assert_eq!(interp.pc(), blocks.pc());
        prop_assert_eq!(interp.flags(), blocks.flags());
        for i in 0..16u8 {
            let reg = rr_isa::Reg::from_index(i);
            prop_assert_eq!(interp.reg(reg), blocks.reg(reg), "r{}", i);
        }
        prop_assert_eq!(interp.take_output(), blocks.take_output());
    }

    /// Flag state after arithmetic matches the ISA-level flag model.
    #[test]
    fn machine_flags_match_isa_model(a in any::<i64>(), b in any::<i64>()) {
        let src = format!(
            "    .global _start\n_start:\n    mov r1, {a}\n    cmp r1, {b}\n    mov r1, 0\n    svc 0\n"
        );
        // cmp with 64-bit immediates won't assemble if b overflows i32;
        // clamp into range instead of discarding.
        let b32 = (b as i32) as i64;
        let src = src.replace(&format!("cmp r1, {b}"), &format!("cmp r1, {b32}"));
        let exe = assemble_and_link(&src).expect("program builds");
        let mut m = Machine::new(&exe, &[]);
        // Execute mov + cmp only.
        m.step().expect("mov");
        m.step().expect("cmp");
        let expected = rr_isa::Flags::from_sub(a as u64, b32 as u64);
        prop_assert_eq!(m.flags(), expected);
    }
}
