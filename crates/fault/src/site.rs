//! Fault sites, concrete faults, and outcome classes.

use rr_isa::{Instr, Reg};
use std::fmt;

/// A point in the golden bad-input trace where faults can be injected:
/// instruction `insn` (of encoded length `len`) was about to execute at
/// trace step `step` with the program counter at `pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// 0-based index into the execution trace.
    pub step: u64,
    /// Address of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub insn: Instr,
    /// Its encoded length in bytes.
    pub len: usize,
}

/// The physical effect a fault model injects at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEffect {
    /// Do not execute the instruction; continue at the next one.
    SkipInstruction,
    /// Flip one bit of the instruction's encoding in memory. Persistent
    /// for the remainder of the run (the paper's single-bit-flip model).
    FlipInstructionBit {
        /// Byte index within the instruction (0-based).
        byte: usize,
        /// Bit index within that byte (0–7).
        bit: u8,
    },
    /// Flip one bit of a register, transiently, just before execution.
    FlipRegisterBit {
        /// The register.
        reg: Reg,
        /// Bit index (0–63).
        bit: u8,
    },
    /// XOR the packed condition flags with a mask just before execution.
    FlipFlags {
        /// Mask over the packed NZCV bits (see [`rr_isa::Flags::to_bits`]).
        mask: u8,
    },
}

impl fmt::Display for FaultEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEffect::SkipInstruction => write!(f, "skip"),
            FaultEffect::FlipInstructionBit { byte, bit } => {
                write!(f, "flip insn byte {byte} bit {bit}")
            }
            FaultEffect::FlipRegisterBit { reg, bit } => write!(f, "flip {reg} bit {bit}"),
            FaultEffect::FlipFlags { mask } => write!(f, "flip flags mask {mask:#x}"),
        }
    }
}

/// One concrete injectable fault: an effect at a trace site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Trace step at which the effect is applied.
    pub step: u64,
    /// Program counter of the targeted instruction.
    pub pc: u64,
    /// What the fault does.
    pub effect: FaultEffect,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {} @ {:#x}: {}", self.step, self.pc, self.effect)
    }
}

/// How many injections a [`FaultPlan`] stores without heap allocation.
/// Single- and double-fault campaigns — the overwhelmingly common plan
/// lengths — never allocate.
const PLAN_INLINE: usize = 2;

/// An ordered multi-fault injection plan: one or more [`Fault`]s applied
/// to the *same* run, in trace-step order.
///
/// This is the unit every campaign evaluates. The classic single-fault
/// campaign is the plan of length 1 ([`FaultPlan::single`]); higher
/// orders model an attacker firing several timed glitches in one
/// execution — e.g. the double fault that skips both a check and its
/// duplicated countermeasure.
///
/// Plans are canonically ordered: construction sorts injections by trace
/// step (a stable sort, so same-step injections keep their given
/// sequence). Equality and hashing see only the injection list, so a
/// plan is a value usable as a cache key. Storage is inline up to two
/// injections — plan-length-1 campaigns pay no allocation over the old
/// single-`Fault` pipeline.
#[derive(Clone)]
pub struct FaultPlan {
    inline: [Fault; PLAN_INLINE],
    len: u8,
    /// Injections beyond [`PLAN_INLINE`], in order; empty for the common
    /// orders 1 and 2.
    spill: Vec<Fault>,
}

impl FaultPlan {
    /// The plan that injects exactly `fault` — the single-fault campaign
    /// as a plan of length 1.
    pub fn single(fault: Fault) -> FaultPlan {
        FaultPlan { inline: [fault, fault], len: 1, spill: Vec::new() }
    }

    /// Builds a plan from any number of injections, sorting them into
    /// canonical (trace-step) order. Same-step injections keep their
    /// given sequence. Injections that come in step order, as every plan
    /// walk builds them, are stored as they come: the first two without
    /// touching the heap.
    ///
    /// # Panics
    ///
    /// An empty plan is not a plan: at least one injection is required.
    pub fn new(faults: impl IntoIterator<Item = Fault>) -> FaultPlan {
        let mut faults = faults.into_iter();
        let first = faults.next().expect("a fault plan needs at least one injection");
        let (mut inline, mut len, mut spill) = ([first; PLAN_INLINE], 1, Vec::new());
        let (mut last, mut sorted) = (first.step, true);
        for fault in faults {
            sorted &= last <= fault.step;
            last = fault.step;
            if len < PLAN_INLINE {
                inline[len] = fault;
                len += 1;
            } else {
                spill.push(fault);
            }
        }
        if !sorted {
            return FaultPlan::sorted(inline[..len].iter().copied().chain(spill).collect());
        }
        FaultPlan { inline, len: len as u8, spill }
    }

    /// The plan of `faults` after a stable sort into step order.
    #[cold]
    fn sorted(mut faults: Vec<Fault>) -> FaultPlan {
        faults.sort_by_key(|f| f.step);
        FaultPlan::new(faults)
    }

    /// The injections, in trace-step order.
    pub fn iter(&self) -> impl Iterator<Item = &Fault> {
        self.inline[..self.len as usize].iter().chain(self.spill.iter())
    }

    /// Number of injections — the plan's *order* (1 = single fault).
    pub fn order(&self) -> usize {
        self.len as usize + self.spill.len()
    }

    /// The earliest injection (the plan is step-sorted, so this is where
    /// replay positioning starts).
    pub fn first(&self) -> &Fault {
        &self.inline[0]
    }

    /// The latest injection.
    pub fn last(&self) -> &Fault {
        self.spill.last().unwrap_or(&self.inline[self.len as usize - 1])
    }

    /// The trace step of the earliest injection.
    pub fn earliest_step(&self) -> u64 {
        self.first().step
    }
}

impl From<Fault> for FaultPlan {
    fn from(fault: Fault) -> FaultPlan {
        FaultPlan::single(fault)
    }
}

// Equality, hashing, and debug see the logical injection list only — the
// inline/spill split and the unused inline slot are representation.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &FaultPlan) -> bool {
        self.order() == other.order() && self.iter().eq(other.iter())
    }
}

impl Eq for FaultPlan {}

impl std::hash::Hash for FaultPlan {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.order().hash(state);
        for fault in self.iter() {
            fault.hash(state);
        }
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Display for FaultPlan {
    /// Singleton plans render exactly like their [`Fault`]; higher
    /// orders join the injections with ` + `.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (index, fault) in self.iter().enumerate() {
            if index > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// How a faulted run compared against the golden runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Behaved like the **good** run — a successful fault, i.e. a
    /// vulnerability the patcher must fix.
    Success,
    /// Behaved like the (unfaulted) **bad** run — the fault had no
    /// attacker-relevant effect.
    Benign,
    /// The machine crashed (any [`rr_emu::CpuFault`]); detectable.
    Crashed,
    /// The run exceeded its step budget; detectable.
    TimedOut,
    /// Exited normally but matched neither golden behaviour.
    Corrupted,
    /// The golden-trace replay to the injection point did not arrive at
    /// the expected program counter (or stopped early). The emulator's
    /// determinism contract makes this unreachable for well-formed
    /// campaigns; it is reported as a class instead of panicking so a
    /// violated contract degrades one fault's result, not the process.
    ReplayDiverged,
}

impl FaultClass {
    /// All classes, in reporting order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::Success,
        FaultClass::Benign,
        FaultClass::Crashed,
        FaultClass::TimedOut,
        FaultClass::Corrupted,
        FaultClass::ReplayDiverged,
    ];
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultClass::Success => "success",
            FaultClass::Benign => "benign",
            FaultClass::Crashed => "crashed",
            FaultClass::TimedOut => "timed-out",
            FaultClass::Corrupted => "corrupted",
            FaultClass::ReplayDiverged => "replay-diverged",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let fault = Fault {
            step: 12,
            pc: 0x1040,
            effect: FaultEffect::FlipInstructionBit { byte: 1, bit: 7 },
        };
        let text = fault.to_string();
        assert!(text.contains("12") && text.contains("0x1040") && text.contains("bit 7"), "{text}");
    }

    #[test]
    fn class_display_covers_all() {
        for class in FaultClass::ALL {
            assert!(!class.to_string().is_empty());
        }
    }

    fn skip(step: u64) -> Fault {
        Fault { step, pc: 0x1000 + step * 4, effect: FaultEffect::SkipInstruction }
    }

    #[test]
    fn plans_sort_into_step_order() {
        let plan = FaultPlan::new([skip(9), skip(3), skip(7)]);
        assert_eq!(plan.order(), 3);
        let steps: Vec<u64> = plan.iter().map(|f| f.step).collect();
        assert_eq!(steps, vec![3, 7, 9]);
        assert_eq!(plan.first().step, 3);
        assert_eq!(plan.last().step, 9);
        assert_eq!(plan.earliest_step(), 3);
        // Canonical ordering makes construction order invisible.
        assert_eq!(plan, FaultPlan::new([skip(3), skip(7), skip(9)]));
    }

    #[test]
    fn singleton_plans_match_their_fault() {
        let fault = skip(12);
        let plan = FaultPlan::single(fault);
        assert_eq!(plan.order(), 1);
        assert_eq!(plan.first(), &fault);
        assert_eq!(plan.last(), &fault);
        assert_eq!(plan.to_string(), fault.to_string());
        assert_eq!(plan, FaultPlan::from(fault));
        assert_eq!(plan, FaultPlan::new([fault]));
    }

    #[test]
    fn plan_equality_and_hashing_see_only_the_injection_list() {
        use std::collections::HashSet;
        let pair = FaultPlan::new([skip(2), skip(5)]);
        let triple = FaultPlan::new([skip(2), skip(5), skip(6)]);
        assert_ne!(pair, triple);
        assert_ne!(FaultPlan::single(skip(2)), pair);
        let set: HashSet<FaultPlan> =
            [pair.clone(), triple.clone(), FaultPlan::new([skip(5), skip(2)])]
                .into_iter()
                .collect();
        assert_eq!(set.len(), 2, "reordered construction is the same plan");
        assert!(set.contains(&pair) && set.contains(&triple));
    }

    #[test]
    fn plan_display_joins_injections() {
        let plan = FaultPlan::new([skip(1), skip(4)]);
        let text = plan.to_string();
        assert!(
            text.contains("step 1") && text.contains(" + ") && text.contains("step 4"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one injection")]
    fn empty_plans_are_rejected() {
        let _ = FaultPlan::new([]);
    }

    #[test]
    fn same_step_injections_keep_their_sequence() {
        let a = Fault { step: 4, pc: 0x1010, effect: FaultEffect::FlipFlags { mask: 1 } };
        let b = Fault { step: 4, pc: 0x1010, effect: FaultEffect::SkipInstruction };
        let plan = FaultPlan::new([a, b]);
        let effects: Vec<FaultEffect> = plan.iter().map(|f| f.effect).collect();
        assert_eq!(effects, vec![a.effect, b.effect], "stable sort preserves same-step order");
        let plan = FaultPlan::new([skip(9), a, b, skip(1)]);
        let effects: Vec<FaultEffect> = plan.iter().map(|f| f.effect).collect();
        assert_eq!(effects, vec![skip(1).effect, a.effect, b.effect, skip(9).effect]);
        assert_eq!(plan.iter().map(|f| f.step).collect::<Vec<_>>(), vec![1, 4, 4, 9]);
    }
}
