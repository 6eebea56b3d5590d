//! What the golden run reads from each retained checkpoint on, before it
//! overwrites it: the facts behind [`ReplayEngine::rejoins`].
//!
//! Both come from one interpreter pass over the recorded run
//! ([`derive`]), which splits it into the checkpoint intervals and notes,
//! per interval, which registers, NZCV bits and memory words it touches
//! first by a read. Only checkpoint steps are ever asked about, so an
//! interval is the unit: the first access in it is the first access from
//! its checkpoint on, and a later access in the same interval never is.
//!
//! [`ReplayEngine::rejoins`]: crate::ReplayEngine::rejoins

use rr_emu::Machine;
use rr_isa::{flag_bits, RegSet};
use rr_obj::Executable;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The registers and NZCV bits ([`flag_bits`] mask) the golden run reads
/// from a checkpoint on before it overwrites them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LiveIn {
    pub(crate) regs: RegSet,
    pub(crate) flags: u8,
}

impl LiveIn {
    /// Everything: what a run reads when nothing is known about it.
    pub(crate) const ALL: LiveIn = LiveIn { regs: RegSet::ALL, flags: flag_bits::ALL };

    const NONE: LiveIn = LiveIn { regs: RegSet::EMPTY, flags: 0 };
}

/// Per 8-byte-aligned memory word, the checkpoint intervals in which the
/// golden run touches it, and whether its first touch there is a data
/// read (of any byte of the word) or a write of all 8 bytes. A 1-byte or
/// unaligned write overwrites no word, so it is not a touch.
#[derive(Debug)]
pub(crate) struct WordIndex {
    /// Word addresses, sorted.
    words: Vec<u64>,
    /// `events[ends[i - 1]..ends[i]]` belong to `words[i]`.
    ends: Vec<usize>,
    /// `interval << 1 | read`, in interval order per word.
    events: Vec<u16>,
}

/// Interval numbers fit an event beside its read bit.
const _: () = assert!(crate::replay::MAX_CHECKPOINTS < 1 << 15);

impl WordIndex {
    /// Whether the golden run, from the start of checkpoint interval
    /// `interval` on, reads a byte of the word at `addr` before it
    /// overwrites all of it.
    pub(crate) fn read_first(&self, addr: u64, interval: usize) -> bool {
        let Ok(i) = self.words.binary_search(&addr) else { return false };
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        let events = &self.events[start..self.ends[i]];
        let next = events.partition_point(|&e| usize::from(e >> 1) < interval);
        events.get(next).is_some_and(|&e| e & 1 == 1)
    }
}

/// Hashes a word address with one multiply (Fibonacci hashing), which
/// spreads the build map's dense runs of stack and data words; the
/// rotation brings the product's well-mixed high bits down to the low
/// bits a hash table indexes by.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Runs `exe` on `input` for the `steps` steps of a recorded run that
/// exited, on the interpreter, and derives the live-in registers and
/// flags at each of the `checkpoints` (trace steps, ascending, the first
/// 0) and the [`WordIndex`] over their intervals. Reads count before
/// writes within a step; an address base counts as a read.
pub(crate) fn derive(
    exe: &Executable,
    input: &[u8],
    steps: u64,
    checkpoints: &[u64],
) -> (Vec<LiveIn>, WordIndex) {
    // Per interval: what it touches, and what it touches first by a read.
    let mut touched = vec![LiveIn::NONE; checkpoints.len()];
    let mut read_first = vec![LiveIn::NONE; checkpoints.len()];
    let mut by_word: HashMap<u64, Vec<u16>, BuildHasherDefault<WordHasher>> = HashMap::default();
    let (mut step, mut interval) = (0u64, 0usize);
    let mut machine = Machine::new(exe, input);
    machine.run_with(steps, |m| {
        if checkpoints.get(interval + 1) == Some(&step) {
            interval += 1;
        }
        step += 1;
        // An exited run fetches and decodes every step it executes.
        let Ok((insn, _)) = m.fetch_decode() else { return };
        let ops = insn.operands();
        let (seen, first) = (&mut touched[interval], &mut read_first[interval]);
        first.regs = first.regs.union(ops.reads().minus(seen.regs));
        first.flags |= ops.flag_uses & !seen.flags;
        seen.regs = seen.regs.union(ops.reads()).union(ops.defs);
        seen.flags |= ops.flag_uses | ops.flag_defs;
        let Some(access) = insn.mem_access() else { return };
        let addr = m.reg(access.base).wrapping_add(access.disp as u64);
        let mut touch = |word: u64, read: bool| {
            let events = by_word.entry(word).or_default();
            if events.last().is_none_or(|&e| usize::from(e >> 1) != interval) {
                events.push((interval as u16) << 1 | u16::from(read));
            }
        };
        if !access.write {
            let last = addr.wrapping_add(access.size - 1) & !7;
            touch(addr & !7, true);
            if last != addr & !7 {
                touch(last, true);
            }
        } else if access.size == 8 && addr.is_multiple_of(8) {
            touch(addr, false);
        }
    });
    // Nothing is read after the exit; before it, an interval's live-in
    // is what it reads first plus what it leaves to the next interval.
    let mut live = vec![LiveIn::NONE; checkpoints.len()];
    let mut after = LiveIn::NONE;
    for k in (0..checkpoints.len()).rev() {
        after = LiveIn {
            regs: read_first[k].regs.union(after.regs.minus(touched[k].regs)),
            flags: read_first[k].flags | (after.flags & !touched[k].flags),
        };
        live[k] = after;
    }
    let mut words: Vec<(u64, Vec<u16>)> = by_word.into_iter().collect();
    words.sort_unstable_by_key(|&(word, _)| word);
    let mut index = WordIndex {
        words: Vec::with_capacity(words.len()),
        ends: Vec::with_capacity(words.len()),
        events: Vec::with_capacity(words.iter().map(|(_, events)| events.len()).sum()),
    };
    for (word, events) in words {
        index.words.push(word);
        index.events.extend_from_slice(&events);
        index.ends.push(index.events.len());
    }
    (live, index)
}
