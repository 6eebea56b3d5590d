//! The `rr-isa` operand table against one interpreter step.
//!
//! [`Instr::operands`] promises exactness both ways: an instruction
//! changes no register outside its `defs` and no flag bit outside its
//! `flag_defs`, and nothing it does depends on a register outside its
//! reads (`uses` plus `address`) or a flag bit outside its `flag_uses`.
//! [`Instr::mem_access`] promises the same of data memory: nothing
//! depends on a byte outside the access, and a write overwrites every
//! byte of it. Static pruning, the patcher's liveness, the symbolizer
//! and the golden-rejoin rule all build on those facts, so they are
//! checked here against the interpreter, the reference semantics.
//!
//! Random decodable instructions are stepped once from random register
//! and flag states. Some registers point into mapped data and the stack,
//! so memory operands and stack operations run instead of faulting. Each
//! state is then stepped again with one unread register, or one unread
//! flag bit, or one data byte near the memory access, perturbed: the
//! result must equal the unperturbed step everywhere except in that
//! register, bit or byte, which keeps its perturbed value unless the
//! instruction overwrote it.

use proptest::TestRng;
use rr_asm::assemble_and_link;
use rr_emu::{Machine, Snapshot};
use rr_isa::{decode, flag_bits, Flags, Instr, Reg, MAX_INSTR_LEN, STACK_TOP};
use rr_obj::SectionKind;
use std::collections::HashSet;
use std::mem::{discriminant, Discriminant};

/// Instructions stepped; each is also re-stepped once per unread
/// register and flag bit.
const INSTRUCTIONS: usize = 12_000;

/// Sixteen `nop`s of text to overwrite with the instruction under test,
/// a 4 KiB data section to point into, and an input byte for `svc 2`.
const TEMPLATE: &str = "    .global _start\n_start:\n    nop\n    nop\n    nop\n    nop\n\
    nop\n    nop\n    nop\n    nop\n    nop\n    nop\n    nop\n    nop\n    nop\n    nop\n\
    nop\n    nop\n    svc 0\n    .data\nbuf:\n    .space 4096\n";

/// Every `Instr` variant, as the decoder produces them from zeroed
/// operand bytes.
fn all_variants() -> HashSet<Discriminant<Instr>> {
    (0..=u8::MAX)
        .filter_map(|opcode| {
            let mut bytes = [0u8; MAX_INSTR_LEN];
            bytes[0] = opcode;
            decode(&bytes).ok()
        })
        .map(|(insn, _)| discriminant(&insn))
        .collect()
}

/// Ten encoding bytes that decode. Half the time the bytes after the
/// register byte hold a small signed value, so displacements stay near
/// their base register and shift counts are often zero; a quarter of the
/// time the register byte is 0–3, which names the four defined services.
fn random_encoding(rng: &mut TestRng) -> ([u8; MAX_INSTR_LEN], Instr, usize) {
    loop {
        let mut bytes = [0u8; MAX_INSTR_LEN];
        for b in &mut bytes {
            *b = rng.below(256) as u8;
        }
        if rng.below(4) == 0 {
            bytes[1] = rng.below(4) as u8;
        }
        if rng.below(2) == 0 {
            let small = rng.below(33) as i64 - 16;
            bytes[2..].copy_from_slice(&small.to_le_bytes());
        }
        if let Ok((insn, len)) = decode(&bytes) {
            return (bytes, insn, len);
        }
    }
}

/// A register value: random, small, or a pointer into the data section
/// or the live part of the stack.
fn random_value(rng: &mut TestRng, data: &std::ops::Range<u64>) -> u64 {
    match rng.below(4) {
        0 => rng.next_u64(),
        1 => rng.below(64),
        2 => data.start + rng.below(data.end - data.start),
        _ => stack_pointer(rng),
    }
}

fn stack_pointer(rng: &mut TestRng) -> u64 {
    STACK_TOP - 8 * (1 + rng.below(64))
}

/// The unperturbed step's end state, patched to what a run perturbed in
/// one register or flag bit must end with.
fn expected(after: &Machine, patch: impl FnOnce(&mut Machine)) -> Snapshot {
    let mut expected = after.clone();
    patch(&mut expected);
    expected.snapshot()
}

#[test]
fn operand_table_is_exact_against_one_interpreter_step() {
    let exe = assemble_and_link(TEMPLATE).expect("template assembles");
    let data = exe.section_range(SectionKind::Data).expect("data section");
    let template = Machine::new(&exe, b"A");
    let mut rng = TestRng::deterministic("operand_table_is_exact_against_one_interpreter_step");
    let mut seen = HashSet::new();
    let (mut zero_shifts, mut services, mut completed_memory_ops) = (0, [0; 4], 0);
    // The byte perturbations draw from their own stream, so the
    // instructions and states above stay those of the main one.
    let mut byte_rng = TestRng::deterministic("one data byte near the memory access");
    let (mut bytes_overwritten, mut bytes_left) = (0, 0);
    let text = exe.text_range();

    for _ in 0..INSTRUCTIONS {
        let (bytes, insn, len) = random_encoding(&mut rng);
        seen.insert(discriminant(&insn));
        let ops = insn.operands();
        let reads = ops.reads();

        let mut before = template.clone();
        assert!(before.poke_bytes(exe.entry, &bytes));
        assert_eq!(before.fetch_decode(), Ok((insn, len)));
        for r in Reg::ALL {
            before.set_reg(r, random_value(&mut rng, &data));
        }
        if rng.below(4) != 0 {
            before.set_reg(Reg::SP, stack_pointer(&mut rng));
        }
        before.set_flags(Flags::from_bits(rng.below(16)));

        let mut after = before.clone();
        let faulted = after.step().is_err();

        match insn {
            Instr::ShiftRI { amt, .. } if amt & 63 == 0 => zero_shifts += 1,
            Instr::Svc { num: num @ 0..=3 } => services[usize::from(num)] += 1,
            _ if ops.address.is_some() && !faulted => completed_memory_ops += 1,
            _ => {}
        }

        // Nothing outside the defs changes.
        for r in Reg::ALL {
            if !ops.defs.contains(r) {
                assert_eq!(after.reg(r), before.reg(r), "`{insn}` changed {r}");
            }
        }
        let changed_flags = (after.flags().to_bits() ^ before.flags().to_bits()) as u8;
        assert_eq!(changed_flags & !ops.flag_defs, 0, "`{insn}` changed flags {changed_flags:#x}");

        // Nothing depends on an unread register: perturbed, it keeps its
        // perturbed value unless the instruction overwrote it.
        for r in Reg::ALL {
            if reads.contains(r) {
                continue;
            }
            let perturbed = before.reg(r) ^ (rng.next_u64() | 1);
            let mut run = before.clone();
            run.set_reg(r, perturbed);
            let _ = run.step();
            let overwritten = ops.defs.contains(r) && !faulted;
            let expect = expected(&after, |m| {
                if !overwritten {
                    m.set_reg(r, perturbed);
                }
            });
            assert!(
                run.same_state(&expect),
                "`{insn}` depends on unread {r} (or did not overwrite it): \
                 {:#x} -> {:#x} vs unperturbed {:#x}",
                perturbed,
                run.reg(r),
                after.reg(r)
            );
        }

        // Nothing depends on a data byte outside the access, and a write
        // overwrites every byte of it.
        if let Some(access) = insn.mem_access().filter(|_| !faulted) {
            let addr = before.reg(access.base).wrapping_add(access.disp as u64);
            let at = addr.wrapping_add(byte_rng.below(access.size + 16)).wrapping_sub(8);
            let inside = at.wrapping_sub(addr) < access.size;
            let mapped = before.peek_bytes(at, 1).map(|b| b[0]);
            // A byte a read reads is one the step depends on.
            if let Some(byte) = mapped.filter(|_| (access.write || !inside) && !text.contains(&at))
            {
                let perturbed = byte ^ (byte_rng.below(255) as u8 + 1);
                let mut run = before.clone();
                assert!(run.poke_bytes(at, &[perturbed]));
                let _ = run.step();
                let expect = expected(&after, |m| {
                    if !inside {
                        assert!(m.poke_bytes(at, &[perturbed]));
                    }
                });
                assert!(
                    run.same_state(&expect),
                    "`{insn}` at {addr:#x} depends on byte {at:#x} outside it (or did not \
                     overwrite it)"
                );
                if inside {
                    bytes_overwritten += 1;
                } else {
                    bytes_left += 1;
                }
            }
        }

        // Nothing depends on an unread flag bit.
        for bit in [flag_bits::Z, flag_bits::N, flag_bits::C, flag_bits::V] {
            if ops.flag_uses & bit != 0 {
                continue;
            }
            let flip = |m: &mut Machine| {
                m.set_flags(Flags::from_bits(m.flags().to_bits() ^ u64::from(bit)));
            };
            let mut run = before.clone();
            flip(&mut run);
            let _ = run.step();
            let overwritten = ops.flag_defs & bit != 0 && !faulted;
            let expect = expected(&after, |m| {
                if !overwritten {
                    flip(m);
                }
            });
            assert!(
                run.same_state(&expect),
                "`{insn}` depends on unread flag bit {bit:#x} (or did not overwrite it): \
                 {} vs unperturbed {}",
                run.flags(),
                after.flags()
            );
        }
    }

    assert_eq!(seen, all_variants(), "every instruction variant is stepped");
    assert!(zero_shifts >= 10, "only {zero_shifts} zero-count shifts");
    assert!(services.iter().all(|&n| n >= 10), "services stepped: {services:?}");
    assert!(completed_memory_ops >= 1_000, "only {completed_memory_ops} memory operands ran");
    assert!(bytes_overwritten >= 100, "only {bytes_overwritten} written bytes perturbed");
    assert!(bytes_left >= 1_000, "only {bytes_left} bytes outside an access perturbed");
}
