//! The live-state rejoin rule ([`ReplayEngine::rejoins`]) on recorded
//! programs: each test takes the golden machine at a retained checkpoint,
//! perturbs one piece of its state, and checks whether the rule lets it
//! rejoin. Where it does, running the perturbed machine to the end must
//! give the recording's outcome, the remainder's step count and the
//! spliced output.

use rr_asm::assemble_and_link;
use rr_emu::{Machine, RunOutcome};
use rr_engine::{Checkpoint, ReplayConfig, ReplayEngine};
use rr_isa::{Flags, Instr, Reg};
use rr_obj::Executable;

/// Wraps `body` in a 200-iteration countdown loop on r13, with r10
/// pointing at an aligned 64-byte buffer, then prints r2's low byte and
/// exits with r2. A `nop` that never runs ends the text. The loop is
/// padded to an odd length, so checkpoints, whose steps are multiples of
/// a power of two, land on every one of its instructions.
fn looped(body: &str) -> Executable {
    let pad = if body.lines().count() % 2 == 1 { "\n    nop" } else { "" };
    let body = format!("{body}{pad}");
    let src = format!(
        "    .global _start\n_start:\n    mov r13, 200\n    mov r10, buf\n.loop:\n{body}\
         \n    sub r13, 1\n    cmp r13, 0\n    jne .loop\n    mov r1, r2\n    svc 1\n    svc 0\n    nop\n\
         \n    .data\n    .align 8\nbuf:\n    .space 64\n"
    );
    assemble_and_link(&src).expect("program builds")
}

fn record(exe: &Executable) -> ReplayEngine {
    let engine = ReplayEngine::record(exe, &[], &ReplayConfig::default());
    assert!(engine.execution().outcome.is_exit());
    assert!(engine.checkpoint_count() > 8, "{} checkpoints", engine.checkpoint_count());
    engine
}

/// The golden machine at the first checkpoint past step 0 about to
/// execute an instruction `at` accepts.
fn at(engine: &ReplayEngine, at: impl Fn(&Instr) -> bool) -> (&Checkpoint, Machine) {
    engine
        .checkpoints_from(1)
        .iter()
        .map(|checkpoint| (checkpoint, Machine::from_snapshot(checkpoint.snapshot())))
        .find(|(_, m)| at(&m.fetch_decode().expect("golden code decodes").0))
        .expect("a checkpoint lands on the instruction")
}

/// Whether `machine` rejoins at `checkpoint`; when it does, also checks
/// that running it out gives what rejoining promises.
fn rejoins(engine: &ReplayEngine, checkpoint: &Checkpoint, mut machine: Machine) -> bool {
    if !engine.rejoins(&machine, checkpoint) {
        return false;
    }
    let mut spliced = machine.output().to_vec();
    spliced.extend_from_slice(engine.output_after(checkpoint));
    let result = machine.run(1_000_000);
    let golden = engine.execution();
    assert_eq!(result.outcome, golden.outcome);
    assert_eq!(result.steps, golden.steps - checkpoint.step());
    assert_eq!(machine.take_output(), spliced);
    true
}

#[test]
fn a_register_rejoins_when_overwritten_before_it_is_read() {
    let exe = looped("    mov r4, r13\n    add r4, 3\n    mov r2, r4");
    let engine = record(&exe);
    let (checkpoint, golden) = at(&engine, |i| matches!(i, Instr::MovRR { rd: Reg::R4, .. }));
    assert!(rejoins(&engine, checkpoint, golden.clone()), "the golden state itself");
    let perturbed = |r: Reg| {
        let mut m = golden.clone();
        m.set_reg(r, m.reg(r) ^ 0x40);
        m
    };
    assert!(rejoins(&engine, checkpoint, perturbed(Reg::R4)), "r4 is written first");
    assert!(rejoins(&engine, checkpoint, perturbed(Reg::R7)), "r7 is never read");
    assert!(!rejoins(&engine, checkpoint, perturbed(Reg::R13)), "r13 is read first");
    // The `cmp` overwrites every flag before `jne` reads one.
    let mut flags = golden.clone();
    flags.set_flags(Flags::from_bits(golden.flags().to_bits() ^ 0b1111));
    assert!(rejoins(&engine, checkpoint, flags));
    // At the `jne`, the Z flag it reads is live, and the others are not.
    let (checkpoint, golden) = at(&engine, |i| matches!(i, Instr::Jcc { .. }));
    for (bit, live) in [(1, true), (2, false), (4, false), (8, false)] {
        let mut m = golden.clone();
        m.set_flags(Flags::from_bits(golden.flags().to_bits() ^ bit));
        assert_eq!(rejoins(&engine, checkpoint, m), !live, "flag bit {bit}");
    }
}

#[test]
fn an_address_base_is_a_read() {
    // r10 is read only as the base of the load's address.
    let exe = looped("    load r2, [r10+8]");
    let engine = record(&exe);
    let (checkpoint, golden) = at(&engine, |i| matches!(i, Instr::Load { .. }));
    let mut m = golden.clone();
    m.set_reg(Reg::R10, golden.reg(Reg::R10) + 8);
    assert!(!rejoins(&engine, checkpoint, m));
}

/// `golden` with the byte at `addr` flipped.
fn poked(golden: &Machine, addr: u64) -> Machine {
    let mut m = golden.clone();
    let byte = m.peek_bytes(addr, 1).expect("mapped")[0];
    assert!(m.poke_bytes(addr, &[byte ^ 0x5a]));
    m
}

#[test]
fn a_word_rejoins_when_an_aligned_push_or_store_overwrites_it() {
    let exe = looped("    push r13\n    pop r2\n    store [r10+16], r13\n    load r2, [r10+16]");
    let engine = record(&exe);
    let (checkpoint, golden) = at(&engine, |i| matches!(i, Instr::Push { .. }));
    let slot = golden.reg(Reg::SP) - 8;
    for byte in [slot, slot + 7] {
        assert!(rejoins(&engine, checkpoint, poked(&golden, byte)), "push overwrites {byte:#x}");
    }
    let buf = golden.reg(Reg::R10);
    assert!(rejoins(&engine, checkpoint, poked(&golden, buf + 16)), "store overwrites it");
    assert!(rejoins(&engine, checkpoint, poked(&golden, buf + 40)), "never touched");
    // At the `pop`, the slot is read first.
    let (checkpoint, golden) = at(&engine, |i| matches!(i, Instr::Pop { .. }));
    let slot = golden.reg(Reg::SP);
    assert!(!rejoins(&engine, checkpoint, poked(&golden, slot + 3)));
    // At the load, the word the store wrote is read first.
    let (checkpoint, golden) = at(&engine, |i| matches!(i, Instr::Load { .. }));
    assert!(!rejoins(&engine, checkpoint, poked(&golden, buf + 16)));
}

#[test]
fn a_byte_store_does_not_overwrite_a_word() {
    // The 1-byte store writes byte 0; the 8-byte load then reads all 8.
    let exe = looped("    storeb [r10+24], r13\n    load r2, [r10+24]");
    let engine = record(&exe);
    let (checkpoint, golden) = at(&engine, |i| matches!(i, Instr::StoreB { .. }));
    let word = golden.reg(Reg::R10) + 24;
    for byte in [word, word + 3] {
        assert!(!rejoins(&engine, checkpoint, poked(&golden, byte)), "{byte:#x}");
    }
    // An unaligned 8-byte store overwrites no word either.
    let exe = looped("    store [r10+25], r13\n    load r2, [r10+24]");
    let engine = record(&exe);
    let (checkpoint, golden) = at(&engine, |i| matches!(i, Instr::Store { .. }));
    let word = golden.reg(Reg::R10) + 24;
    assert!(!rejoins(&engine, checkpoint, poked(&golden, word + 7)));
}

#[test]
fn a_difference_in_executable_memory_never_rejoins() {
    let exe = looped("    mov r2, r13");
    let engine = record(&exe);
    let (checkpoint, golden) = at(&engine, |i| matches!(i, Instr::MovRR { .. }));
    // The entry instruction never runs again, and the `nop` after the
    // exit never runs at all.
    assert!(!rejoins(&engine, checkpoint, poked(&golden, exe.entry)));
    let text = exe.text_range();
    assert!(!rejoins(&engine, checkpoint, poked(&golden, text.end - 1)));
}

#[test]
fn an_output_difference_rejoins_with_the_spliced_output() {
    let exe = assemble_and_link(
        "    .global _start\n_start:\n    mov r1, 'A'\n    svc 1\n    mov r13, 100\n.loop:\n\
         \n    sub r13, 1\n    cmp r13, 0\n    jne .loop\n    mov r1, 'B'\n    svc 1\n    mov r1, 0\n\
         \n    svc 0\n",
    )
    .expect("program builds");
    let engine = record(&exe);
    assert_eq!(engine.execution().output, b"AB");
    // Skip the first `svc 1`, then run to the first checkpoint after it.
    let mut skipped = engine.machine_at(1).expect("in the trace");
    skipped.skip_instruction().expect("decodes");
    let checkpoint = &engine.checkpoints_from(2)[0];
    let result = skipped.run(checkpoint.step() - 2);
    assert_eq!(result.outcome, RunOutcome::TimedOut);
    assert_eq!(skipped.output(), b"");
    assert_eq!(engine.output_after(checkpoint), b"B");
    assert!(rejoins(&engine, checkpoint, skipped));
}

#[test]
fn a_recording_that_does_not_exit_rejoins_only_on_equal_state() {
    let exe = looped("    mov r2, r13");
    let config = ReplayConfig { max_steps: 400, ..ReplayConfig::default() };
    let engine = ReplayEngine::record(&exe, &[], &config);
    assert_eq!(engine.execution().outcome, RunOutcome::TimedOut);
    let checkpoint = &engine.checkpoints_from(100)[0];
    let golden = Machine::from_snapshot(checkpoint.snapshot());
    assert!(engine.rejoins(&golden, checkpoint));
    let mut m = golden.clone();
    m.set_reg(Reg::R7, 1);
    assert!(!engine.rejoins(&m, checkpoint), "every register is live");
    let buf = golden.reg(Reg::R10);
    assert!(!engine.rejoins(&poked(&golden, buf + 40), checkpoint), "every word is live");
}

#[test]
fn a_recording_without_snapshots_offers_no_checkpoint() {
    let exe = looped("    mov r2, r13");
    let config = ReplayConfig { record_snapshots: false, ..ReplayConfig::default() };
    let engine = ReplayEngine::record(&exe, &[], &config);
    assert!(engine.checkpoints_from(0).is_empty());
}
