//! Hung-run proofs against running to the budget.
//!
//! Each loop runs under a `HangDetector` for a short window from its
//! first step, then, unless a period was proven, on to the budget; a
//! proven period is extrapolated to the budget instead. Either way the
//! result must equal `Machine::run` to the budget: outcome, output and
//! steps.
//!
//! The loops the proof must refuse each change behaviour after the
//! window but before the budget, through one sink: a branch on a
//! counter, a counter stored and read back, printed, pushed, used as a
//! divisor, as an address or as a jump target, flags pushed with
//! `pushf`, a stack pointer that moves, a counter's flags that change
//! inside the horizon, a stack that runs out, and a stack that grows into
//! a slot the loop reads. Were that sink not checked, the proof would go
//! through and the extrapolated run would differ.

use rr_asm::assemble_and_link;
use rr_emu::{Execution, HangDetector, Machine, RunOutcome};
use rr_isa::STACK_SIZE;
use rr_obj::Executable;

/// Steps a run is checked for a period.
const WINDOW: u64 = 256;
/// Steps a run may take.
const BUDGET: u64 = 20_000;

fn build(body: &str) -> Executable {
    assemble_and_link(&format!("    .global _start\n_start:\n{body}")).expect("program builds")
}

/// The run to `BUDGET` with the hang check, and the proven period's
/// length.
fn checked(exe: &Executable) -> (Execution, Option<u64>) {
    let mut m = Machine::new(exe, &[]);
    let mut detector = HangDetector::new(BUDGET);
    let head = m.run_detecting(WINDOW, &mut detector);
    if let Some(period) = detector.proof() {
        assert!(head.steps <= WINDOW && head.outcome == RunOutcome::TimedOut);
        return (period.extrapolate(m.take_output(), head.steps, BUDGET), Some(period.steps()));
    }
    let rest = m.run(BUDGET - head.steps);
    let run = Execution {
        outcome: rest.outcome,
        output: m.take_output(),
        steps: head.steps + rest.steps,
    };
    (run, None)
}

/// Checks the checked run against the plain run; returns the period
/// proven, if any.
fn check(body: &str) -> Option<u64> {
    let exe = build(body);
    let want = rr_emu::execute(&exe, &[], BUDGET);
    let (got, period) = checked(&exe);
    assert_eq!(got, want, "{body}");
    period
}

/// A loop the proof must refuse: it changes behaviour after the window,
/// before the budget, when `outcome` ends it.
fn refused(body: &str, outcome: impl Fn(RunOutcome) -> bool) {
    let exe = build(body);
    let want = rr_emu::execute(&exe, &[], BUDGET);
    assert!(outcome(want.outcome), "{:?}:\n{body}", want.outcome);
    assert!(want.steps > WINDOW, "ends inside the window:\n{body}");
    assert_eq!(check(body), None, "a proof went through:\n{body}");
}

fn exits(outcome: RunOutcome) -> bool {
    outcome == RunOutcome::Exited { code: 7 }
}

fn crashes(outcome: RunOutcome) -> bool {
    matches!(outcome, RunOutcome::Crashed { .. })
}

// ---------------------------------------------------------------------
// Periods the proof finds
// ---------------------------------------------------------------------

#[test]
fn a_print_loop_with_a_dead_counter_is_extrapolated() {
    let body = "    mov r1, '.'\n.loop:\n    svc 1\n    add r6, 1\n    jmp .loop\n";
    assert_eq!(check(body), Some(3));
}

#[test]
fn an_exact_cycle_is_extrapolated() {
    assert_eq!(check(".loop:\n    jmp .loop\n"), Some(1));
}

#[test]
fn calls_reading_input_at_its_end_are_extrapolated() {
    // Each iteration calls a routine that reads input (always EOF here,
    // so the cursor stays) and prints two bytes, while r6 counts: the
    // return address written to the stack is the same every time.
    let body = "    mov r1, 'x'\n\
                .loop:\n\
                    call emit\n\
                    add r6, 3\n\
                    jmp .loop\n\
                emit:\n\
                    svc 2\n\
                    svc 1\n\
                    svc 1\n\
                    ret\n";
    assert_eq!(check(body), Some(7));
}

#[test]
fn taint_left_outside_the_difference_grows_it_to_a_fixpoint() {
    // r8 reads 0 at every loop head, so the candidate's difference is
    // r6 and the flags; the slice still taints r8 through the `and`, and
    // only the grown set settles.
    let body = ".loop:\n    mov r8, r6\n    and r8, 0\n    add r6, 1\n    jmp .loop\n";
    assert_eq!(check(body), Some(4));
}

#[test]
fn a_print_loop_alternating_between_two_bytes_is_extrapolated() {
    // A bit flip turns `print_str`'s `add r6, 1` into `xor r6, 1`. Every
    // 6 steps the state differs in r6, an address, so that candidate is
    // refuted; every 12 the state repeats exactly.
    let body = "    mov r6, msg\n\
                .loop:\n\
                    loadb r1, [r6]\n\
                    cmp r1, 0\n\
                    je .done\n\
                    svc 1\n\
                    xor r6, 1\n\
                    jmp .loop\n\
                .done:\n\
                    mov r1, 7\n\
                    svc 0\n\
                    .data\n\
                msg:\n\
                    .asciiz \"hi\"\n";
    assert_eq!(check(body), Some(12));
}

#[test]
fn a_print_loop_branching_on_its_counter_wrapping_is_extrapolated() {
    // A bit flip turns `print_str`'s load and compare into `nop`s, so
    // its `jeq` reads the Z flag of the counting `add`: the loop ends
    // only when r6 wraps at 2^64.
    let body = "    mov r1, '.'\n\
                    mov r6, msg\n\
                .loop:\n\
                    nop\n\
                    nop\n\
                    nop\n\
                    nop\n\
                    je .done\n\
                    svc 1\n\
                    add r6, 1\n\
                    jmp .loop\n\
                .done:\n\
                    mov r1, 7\n\
                    svc 0\n\
                    .data\n\
                msg:\n\
                    .asciiz \"hi\"\n";
    assert_eq!(check(body), Some(8));
}

#[test]
fn a_call_loop_growing_the_stack_is_extrapolated() {
    // A bit flip turns `print_str`'s `jmp` back into its caller, which
    // calls it again: every period prints a byte and pushes a return
    // address 8 bytes further down, and nothing reads them.
    let body = "main:\n\
                    mov r6, msg\n\
                    call print_str\n\
                    mov r1, 7\n\
                    svc 0\n\
                print_str:\n\
                    loadb r1, [r6]\n\
                    cmp r1, 0\n\
                    je .done\n\
                    svc 1\n\
                    add r6, 1\n\
                    jmp main\n\
                .done:\n\
                    ret\n\
                    .data\n\
                msg:\n\
                    .asciiz \"hi\"\n";
    assert_eq!(check(body), Some(8));
}

#[test]
fn a_counter_whose_zero_flag_fires_just_past_the_budget_is_extrapolated() {
    // The `add` that reaches 0 would run at step 20,000, the first one
    // past the budget.
    assert_eq!(check(&counter_reaching_zero(-6667)), Some(3));
}

#[test]
fn a_clean_read_between_the_stack_pointers_waits_for_a_later_save_point() {
    // The loop stores 1 into the slot just below the first stack pointer
    // and reads it back. The save point at the first loop head still
    // holds 0 there, and the candidate one period later differs only
    // between the two stack pointers, so the candidate is taken; the read
    // refutes it. A later save point, after the store, proves the period.
    let body = "    mov r14, sp\n\
                    sub r14, 8\n\
                    mov r0, 1\n\
                    mov r1, 0\n\
                    nop\n\
                    nop\n\
                    nop\n\
                .loop:\n\
                    load r1, [r14]\n\
                    svc 3\n\
                    store [r14], r0\n\
                    sub sp, 8\n\
                    jmp .loop\n";
    assert_eq!(check(body), Some(5));
}

// ---------------------------------------------------------------------
// Loops the proof must refuse, one sink each
// ---------------------------------------------------------------------

/// Prints `!` once r6, counting up from `start`, reaches 0, and exits.
fn counter_reaching_zero(start: i64) -> String {
    format!(
        "    mov r1, '!'\n\
             mov r6, {start}\n\
         .loop:\n\
             add r6, 1\n\
             je .done\n\
             jmp .loop\n\
         .done:\n\
             svc 1\n\
             mov r1, 7\n\
             svc 0\n"
    )
}

#[test]
fn a_counter_whose_zero_flag_fires_in_the_last_period_is_refused() {
    // The `add` that reaches 0 runs at step 19,997, and the `!` is the
    // run's last step.
    let body = counter_reaching_zero(-6666);
    refused(&body, |outcome| outcome == RunOutcome::TimedOut);
    assert_eq!(rr_emu::execute(&build(&body), &[], BUDGET).output, b"!");
}

#[test]
fn a_counter_wrapped_by_a_mask_is_refused() {
    // r6 counts by 7, but the `and` makes it wrap at 4096, so it reaches
    // 100 after 2212 loops: it is no induction register. The compare's
    // flags were taken as steady before the `and` was seen, so the slice
    // must run again without r6; the last compare leaves no tainted
    // flag to do that on its own.
    let body = "    mov r6, 1000\n\
                    mov r5, 0\n\
                .loop:\n\
                    cmp r6, 100\n\
                    je .done\n\
                    add r6, 7\n\
                    and r6, 4095\n\
                    cmp r5, 3\n\
                    jmp .loop\n\
                .done:\n\
                    mov r1, 7\n\
                    svc 0\n";
    refused(body, exits);
}

#[test]
fn a_counter_whose_zero_flag_fires_inside_the_horizon_is_refused() {
    // As the print loop branching on its counter wrapping, but the
    // counter starts 2000 below 2^64.
    let body = "    mov r1, '.'\n\
                    mov r6, -2000\n\
                .loop:\n\
                    nop\n\
                    je .done\n\
                    svc 1\n\
                    add r6, 1\n\
                    jmp .loop\n\
                .done:\n\
                    mov r1, 7\n\
                    svc 0\n";
    refused(body, exits);
}

#[test]
fn a_counter_whose_negative_flag_flips_inside_the_horizon_is_refused() {
    // The counter starts 2000 below 2^63, so its sign bit sets inside the
    // horizon and `jl` (N != V) fires on the next count.
    let body = "    mov r6, 9223372036854773808\n\
                .loop:\n\
                    add r6, 1\n\
                    jl .done\n\
                    jmp .loop\n\
                .done:\n\
                    mov r1, 7\n\
                    svc 0\n";
    refused(body, exits);
}

#[test]
fn a_stack_growing_until_it_runs_out_is_refused() {
    // Each period moves sp 1008 bytes down, so the 1 MiB stack runs out
    // after about 1040 periods.
    let body = ".loop:\n    sub sp, 1000\n    call .loop\n";
    refused(body, crashes);
}

#[test]
fn a_clean_load_from_a_slot_the_stack_reaches_is_refused() {
    // r9 points 2000 slots below the top of the stack. The loop reads it
    // at a clean address while each period pushes a return address one
    // slot further down, until one lands in it.
    let body = "    mov r9, sp\n\
                    sub r9, 16000\n\
                .loop:\n\
                    load r1, [r9]\n\
                    cmp r1, 0\n\
                    jne .done\n\
                    call .loop\n\
                .done:\n\
                    mov r1, 7\n\
                    svc 0\n";
    refused(body, exits);
}

#[test]
fn a_counter_a_branch_tests_is_refused() {
    let body = "    mov r6, 0\n\
                .loop:\n\
                    add r6, 1\n\
                    cmp r6, 2000\n\
                    jne .loop\n\
                    mov r1, 7\n\
                    svc 0\n";
    refused(body, exits);
}

#[test]
fn a_counter_stored_and_read_back_is_refused() {
    // Memory holds 0 again at every loop head: only the stored value
    // carries the counter into the branch.
    let body = "    mov r4, buf\n\
                    mov r0, 0\n\
                .loop:\n\
                    add r6, 1\n\
                    store [r4], r6\n\
                    load r7, [r4]\n\
                    store [r4], r0\n\
                    cmp r7, 2000\n\
                    jne .loop\n\
                    mov r1, 7\n\
                    svc 0\n\
                    .data\n\
                buf:\n\
                    .quad 0\n";
    refused(body, exits);
}

#[test]
fn a_printed_counter_is_refused() {
    // Never ends, but prints 1, 2, 3, …: no period repeats its output.
    let body = ".loop:\n    add r6, 1\n    mov r1, r6\n    svc 3\n    jmp .loop\n";
    refused(body, |outcome| outcome == RunOutcome::TimedOut);
}

#[test]
fn a_counter_reaching_a_sink_one_period_later_is_refused() {
    // r8 = r6 >> 9 reads 0 at every loop head for the first 512 loops,
    // so the candidate's difference leaves it out; the slice taints it,
    // and only the grown set sees it printed.
    let body = ".loop:\n\
                    mov r1, r8\n\
                    svc 3\n\
                    mov r8, r6\n\
                    shr r8, 9\n\
                    add r6, 1\n\
                    jmp .loop\n";
    refused(body, |outcome| outcome == RunOutcome::TimedOut);
}

#[test]
fn a_divisor_counting_down_to_zero_is_refused() {
    let body = "    mov r6, 3000\n\
                .loop:\n\
                    sub r6, 1\n\
                    mov r5, 1000\n\
                    udiv r5, r6\n\
                    jmp .loop\n";
    refused(body, crashes);
}

#[test]
fn a_pushed_counter_is_refused() {
    // The slot is overwritten with 0 before the loop head, so only the
    // pushed value carries the counter into the branch.
    let body = "    mov r0, 0\n\
                .loop:\n\
                    add r6, 1\n\
                    push r6\n\
                    pop r7\n\
                    push r0\n\
                    pop r8\n\
                    cmp r7, 2000\n\
                    jne .loop\n\
                    mov r1, 7\n\
                    svc 0\n";
    refused(body, exits);
}

#[test]
fn a_stack_pointer_drifting_out_of_the_stack_is_refused() {
    // sp is the same at every loop head, but each `pop` reads 8 bytes
    // further down, until it leaves the stack.
    let start = STACK_SIZE - 8 * 200;
    let body = format!(
        "    mov r9, sp\n\
             mov r6, {start}\n\
         .loop:\n\
             add r6, 8\n\
             mov r10, r9\n\
             sub r10, r6\n\
             mov sp, r10\n\
             pop r1\n\
             mov sp, r9\n\
             jmp .loop\n"
    );
    refused(&body, crashes);
}

#[test]
fn flags_of_a_counter_pushed_with_pushf_are_refused() {
    // The Z bit of `sub r6, 1` reaches the branch through the stack slot
    // `pushf` writes, read back and cleared through r9 while sp is reset
    // from it, so no later stack operation sees the pushed word.
    let body = "    mov r6, 1500\n\
                    mov r0, 0\n\
                    mov r9, sp\n\
                .loop:\n\
                    sub r6, 1\n\
                    pushf\n\
                    mov sp, r9\n\
                    load r7, [r9-8]\n\
                    store [r9-8], r0\n\
                    and r7, 1\n\
                    cmp r7, 0\n\
                    je .loop\n\
                    mov r1, 7\n\
                    svc 0\n";
    refused(body, exits);
}

#[test]
fn a_load_address_walking_to_data_is_refused() {
    let body = "    mov r10, buf\n\
                .loop:\n\
                    loadb r1, [r10]\n\
                    add r10, 1\n\
                    cmp r1, 0\n\
                    je .loop\n\
                    mov r1, 7\n\
                    svc 0\n\
                    .data\n\
                buf:\n\
                    .space 4000\n\
                    .byte 1\n";
    refused(body, exits);
}

#[test]
fn store_and_compare_addresses_walking_off_the_stack_are_refused() {
    // Zeros stored into zero memory leave it unchanged, and compares
    // read it: only the address moves, 8 bytes per loop, from 2000
    // words above the bottom of the stack.
    let above_bottom = STACK_SIZE - 8 * 2000;
    for access in ["store [r10], r0", "cmp r1, [r10]"] {
        let body = format!(
            "    mov r10, sp\n\
                 sub r10, {above_bottom}\n\
             .loop:\n\
                 sub r10, 8\n\
                 {access}\n\
                 jmp .loop\n"
        );
        refused(&body, crashes);
    }
}

#[test]
fn a_jump_target_computed_from_a_counter_is_refused() {
    // `jmpr` goes back to the loop head until r6 reaches 512, then to
    // the exit.
    let body = "    mov r11, .loop\n\
                    mov r12, .exit\n\
                    sub r12, r11\n\
                .loop:\n\
                    add r6, 1\n\
                    mov r10, r6\n\
                    shr r10, 9\n\
                    mul r10, r12\n\
                    add r10, r11\n\
                    jmpr r10\n\
                .exit:\n\
                    mov r1, 7\n\
                    svc 0\n";
    refused(body, exits);
}
