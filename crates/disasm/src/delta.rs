//! Listing deltas: what a binary rewrite changed, instruction by
//! instruction.
//!
//! A [`ListingDelta`] compares the listing of one harden iteration with
//! the patched listing that produced the next binary, and classifies
//! every instruction as **unchanged** (carried over verbatim, possibly at
//! a shifted address), **changed** (replaced or removed), or **inserted**
//! (new code with no counterpart in the old binary). The unchanged set
//! carries an exact old→new address remap.
//!
//! This is the foundation of incremental re-campaigning: the
//! Faulter+Patcher loop patches a handful of instructions per iteration,
//! so the next fault campaign can reuse every prior classification whose
//! injection point and downstream trace window the delta left untouched,
//! and re-execute only the rest (see `rr-fault`'s `ClassificationCache`).

use crate::listing::{Line, Listing};
use rr_isa::{decode, MAX_INSTR_LEN};
use rr_obj::Executable;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// Why a delta could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// Walking a listing against its binary did not land exactly on the
    /// end of the text section — the listing does not describe that
    /// binary's layout.
    LayoutMismatch {
        /// Where the walk ended.
        cursor: u64,
        /// Where the text section ends.
        text_end: u64,
    },
    /// A code line's bytes did not decode during the layout walk.
    Undecodable {
        /// Address of the undecodable bytes.
        addr: u64,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::LayoutMismatch { cursor, text_end } => {
                write!(f, "listing layout walk ended at {cursor:#x}, text ends at {text_end:#x}")
            }
            DeltaError::Undecodable { addr } => {
                write!(f, "undecodable code bytes at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// The instruction-level difference between two consecutive binaries of
/// a harden loop, with an old→new address remap for everything that
/// survived the rewrite. Build one with [`ListingDelta::compute`] (or
/// [`ListingDelta::identity`] for "nothing changed"); the incremental
/// fault campaign in `rr-fault` consumes it to decide which prior
/// classifications are still valid.
#[derive(Debug, Clone, Default)]
pub struct ListingDelta {
    /// Old address → new address for instructions carried over verbatim.
    remap: BTreeMap<u64, u64>,
    /// The inverse of `remap` (injective by construction: each new
    /// address holds at most one carried-over instruction).
    remap_back: BTreeMap<u64, u64>,
    /// Old-binary byte ranges whose instructions were replaced or
    /// removed, merged and sorted.
    changed: Vec<Range<u64>>,
    /// New-binary byte ranges holding code with no unchanged old
    /// counterpart (inserted patterns and replacement instructions),
    /// merged and sorted.
    inserted: Vec<Range<u64>>,
    /// Old-binary byte ranges of unchanged instructions whose address
    /// moved (`remap(a) != a`), merged and sorted.
    shifted: Vec<Range<u64>>,
    /// `true` for [`ListingDelta::identity`]: every address maps to
    /// itself and nothing changed.
    identity: bool,
}

/// One code line's placement, produced by walking a listing against the
/// binary it describes.
struct LayoutSlot {
    /// Index into `listing.text`.
    index: usize,
    /// The line's address in the walked binary.
    addr: u64,
    /// Encoded length in bytes.
    len: usize,
}

impl ListingDelta {
    /// The delta of a rewrite that changed nothing: every old address
    /// remaps to itself, and the changed/inserted/shifted sets are empty.
    ///
    /// The harden loop uses this for back-to-back campaigns on the same
    /// binary (e.g. the final re-measurement pass), where every prior
    /// classification is reusable.
    pub fn identity() -> ListingDelta {
        ListingDelta { identity: true, ..ListingDelta::default() }
    }

    /// Whether the delta changes nothing at all: an identity delta, or a
    /// computed one with no changed, inserted, or shifted range — every
    /// instruction kept its exact address and bytes. Strictly stronger
    /// than "this instruction is unchanged": consumers whose faults are
    /// sensitive to absolute layout (persistent encoding corruption can
    /// turn an instruction into a branch whose landing site depends on
    /// where everything else lives) reuse only under a no-op delta.
    pub fn is_noop(&self) -> bool {
        self.identity
            || (self.changed.is_empty() && self.inserted.is_empty() && self.shifted.is_empty())
    }

    /// Computes the delta of one patch step.
    ///
    /// * `old` is the listing disassembled from `old_exe` (the binary the
    ///   prior campaign ran against);
    /// * `patched` is that listing after the patcher edited it — original
    ///   lines keep their `orig_addr` (pointing into `old_exe`), inserted
    ///   or replaced lines carry `None`;
    /// * `rebuilt` is the executable assembled from `patched`.
    ///
    /// Both listings are walked against their binaries in layout order
    /// (the assembler emits text lines in listing order, which the
    /// disassembly round-trip test pins), giving every line an exact
    /// address and length. A patched line is *unchanged* when its
    /// `orig_addr` names an old instruction with an identical symbolic
    /// rendering; it is remapped to its new address. Everything else is
    /// *changed* (old side) and *inserted* (new side).
    ///
    /// # Errors
    ///
    /// [`DeltaError`] when either listing fails to describe its binary's
    /// text layout — the caller should fall back to a full re-campaign.
    pub fn compute(
        old: &Listing,
        old_exe: &Executable,
        patched: &Listing,
        rebuilt: &Executable,
    ) -> Result<ListingDelta, DeltaError> {
        let old_layout = layout(old, old_exe)?;
        let new_layout = layout(patched, rebuilt)?;

        // Old instructions by address; remapped entries are removed, so
        // what remains at the end is the changed/removed set.
        let mut old_code: BTreeMap<u64, (usize, usize)> = BTreeMap::new(); // addr → (index, len)
        for slot in &old_layout {
            old_code.insert(slot.addr, (slot.index, slot.len));
        }

        let mut delta = ListingDelta::default();
        let mut shifted_old: Vec<Range<u64>> = Vec::new();
        for slot in &new_layout {
            let Line::Code { orig_addr, insn } = &patched.text[slot.index] else {
                unreachable!("layout slots are code lines");
            };
            let carried = orig_addr.and_then(|a| {
                let (old_index, old_len) = old_code.get(&a).copied()?;
                let Line::Code { insn: old_insn, .. } = &old.text[old_index] else {
                    return None;
                };
                (old_insn == insn).then_some((a, old_len))
            });
            match carried {
                Some((a, old_len)) => {
                    delta.remap.insert(a, slot.addr);
                    delta.remap_back.insert(slot.addr, a);
                    old_code.remove(&a);
                    if slot.addr != a {
                        push_range(&mut shifted_old, a..a + old_len as u64);
                    }
                }
                None => push_range(&mut delta.inserted, slot.addr..slot.addr + slot.len as u64),
            }
        }
        for (addr, (_, len)) in old_code {
            push_range(&mut delta.changed, addr..addr + len as u64);
        }
        delta.shifted = shifted_old;
        Ok(delta)
    }

    /// The new-binary address of the unchanged old instruction at
    /// `old_addr`, or `None` when the delta changed or removed it.
    pub fn remap(&self, old_addr: u64) -> Option<u64> {
        if self.identity {
            return Some(old_addr);
        }
        self.remap.get(&old_addr).copied()
    }

    /// The old-binary address of the unchanged instruction now at
    /// `new_addr` — the inverse of [`ListingDelta::remap`].
    pub fn remap_back(&self, new_addr: u64) -> Option<u64> {
        if self.identity {
            return Some(new_addr);
        }
        self.remap_back.get(&new_addr).copied()
    }

    /// Whether `old_addr` falls in a changed (replaced/removed) range of
    /// the old binary.
    pub fn is_changed(&self, old_addr: u64) -> bool {
        contains(&self.changed, old_addr)
    }

    /// Whether `new_addr` falls in an inserted range of the new binary.
    pub fn is_inserted(&self, new_addr: u64) -> bool {
        contains(&self.inserted, new_addr)
    }

    /// Old-binary byte ranges whose instructions were replaced or
    /// removed, sorted and merged.
    pub fn changed_ranges(&self) -> &[Range<u64>] {
        &self.changed
    }

    /// New-binary byte ranges of code with no unchanged old counterpart,
    /// sorted and merged.
    pub fn inserted_ranges(&self) -> &[Range<u64>] {
        &self.inserted
    }

    /// Old-binary byte ranges of unchanged instructions whose address
    /// moved, sorted and merged.
    pub fn shifted_ranges(&self) -> &[Range<u64>] {
        &self.shifted
    }

    /// Number of unchanged (remapped) instructions.
    pub fn unchanged_count(&self) -> usize {
        self.remap.len()
    }
}

impl fmt::Display for ListingDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.identity {
            return write!(f, "identity (nothing changed)");
        }
        let bytes = |ranges: &[Range<u64>]| ranges.iter().map(|r| r.end - r.start).sum::<u64>();
        write!(
            f,
            "{} unchanged instruction(s) ({} B shifted), {} B changed, {} B inserted",
            self.remap.len(),
            bytes(&self.shifted),
            bytes(&self.changed),
            bytes(&self.inserted),
        )
    }
}

/// Walks `listing`'s text lines against `exe`'s text section, assigning
/// each code line its address and encoded length.
fn layout(listing: &Listing, exe: &Executable) -> Result<Vec<LayoutSlot>, DeltaError> {
    let text = exe.text_range();
    let mut cursor = text.start;
    let mut slots = Vec::new();
    for (index, line) in listing.text.iter().enumerate() {
        match line {
            Line::Label { .. } => {}
            Line::RawBytes { bytes, .. } => cursor += bytes.len() as u64,
            Line::Code { .. } => {
                let available = (text.end.saturating_sub(cursor)).min(MAX_INSTR_LEN as u64);
                let len = exe
                    .read_bytes(cursor, available as usize)
                    .and_then(|bytes| decode(bytes).ok())
                    .map(|(_, len)| len)
                    .ok_or(DeltaError::Undecodable { addr: cursor })?;
                slots.push(LayoutSlot { index, addr: cursor, len });
                cursor += len as u64;
            }
        }
    }
    if cursor != text.end {
        return Err(DeltaError::LayoutMismatch { cursor, text_end: text.end });
    }
    Ok(slots)
}

/// Appends `range` to a sorted range list, merging with the last entry
/// when adjacent or overlapping. Ranges arrive in increasing order from
/// the layout walks and `BTreeMap` iteration.
fn push_range(ranges: &mut Vec<Range<u64>>, range: Range<u64>) {
    if let Some(last) = ranges.last_mut() {
        if range.start <= last.end {
            last.end = last.end.max(range.end);
            return;
        }
    }
    ranges.push(range);
}

/// Point-in-sorted-ranges query.
fn contains(ranges: &[Range<u64>], addr: u64) -> bool {
    let i = ranges.partition_point(|r| r.end <= addr);
    ranges.get(i).is_some_and(|r| r.contains(&addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listing::SymInstr;
    use rr_isa::Instr;

    fn listing_pair() -> (Listing, Executable) {
        let exe = rr_asm::assemble_and_link(
            "    .global _start\n\
             _start:\n\
                 mov r1, 1\n\
                 mov r2, 2\n\
                 cmp r1, r2\n\
                 jne .out\n\
                 mov r1, 0\n\
             .out:\n\
                 svc 0\n",
        )
        .unwrap();
        let listing = crate::disassemble(&exe).unwrap().listing;
        (listing, exe)
    }

    #[test]
    fn identity_delta_maps_everything_to_itself() {
        let delta = ListingDelta::identity();
        assert_eq!(delta.remap(0x1234), Some(0x1234));
        assert!(!delta.is_changed(0x1234));
        assert!(!delta.is_inserted(0x1234));
        assert!(delta.to_string().contains("identity"));
    }

    #[test]
    fn unpatched_listing_yields_an_empty_delta() {
        let (listing, exe) = listing_pair();
        let delta = ListingDelta::compute(&listing, &exe, &listing, &exe).unwrap();
        assert!(delta.changed_ranges().is_empty());
        assert!(delta.inserted_ranges().is_empty());
        assert!(delta.shifted_ranges().is_empty());
        for (_, addr, _) in listing.original_code() {
            assert_eq!(delta.remap(addr), Some(addr));
        }
        assert_eq!(delta.unchanged_count(), listing.instr_count());
    }

    #[test]
    fn insertion_shifts_downstream_and_marks_the_new_bytes() {
        let (listing, exe) = listing_pair();
        let mut patched = listing.clone();
        // Insert a nop before the third instruction (cmp).
        let index =
            patched.original_code().nth(2).map(|(i, _, _)| i).expect("third instruction exists");
        let cmp_addr = match &patched.text[index] {
            Line::Code { orig_addr: Some(a), .. } => *a,
            _ => unreachable!(),
        };
        patched
            .text
            .insert(index, Line::Code { orig_addr: None, insn: SymInstr::Plain(Instr::Nop) });
        let rebuilt = rr_asm::assemble_and_link(&patched.to_source()).unwrap();
        let delta = ListingDelta::compute(&listing, &exe, &patched, &rebuilt).unwrap();

        assert!(delta.changed_ranges().is_empty(), "{delta}");
        assert_eq!(delta.inserted_ranges().len(), 1, "{delta}");
        let inserted = &delta.inserted_ranges()[0];
        assert_eq!(inserted.start, cmp_addr, "nop lands where the cmp was");
        let nop_len = (inserted.end - inserted.start) as usize;
        for (_, addr, _) in listing.original_code() {
            let expected = if addr < cmp_addr { addr } else { addr + nop_len as u64 };
            assert_eq!(delta.remap(addr), Some(expected), "addr {addr:#x}");
            assert!(!delta.is_changed(addr));
        }
        // Shifted ranges cover exactly the instructions at or after the
        // insertion point.
        assert!(delta.shifted_ranges().iter().all(|r| r.start >= cmp_addr));
        assert!(contains(delta.shifted_ranges(), cmp_addr));
        assert!(delta.to_string().contains("inserted"), "{delta}");
    }

    #[test]
    fn replacement_is_changed_old_side_and_inserted_new_side() {
        let (listing, exe) = listing_pair();
        let mut patched = listing.clone();
        let (index, addr, _) = patched.original_code().nth(1).expect("second instruction");
        // Replace `mov r2, 2` with two inserted nops (orig_addr dropped,
        // as the patcher's replacement helpers do).
        patched.replace_code(
            index,
            vec![
                Line::Code { orig_addr: None, insn: SymInstr::Plain(Instr::Nop) },
                Line::Code { orig_addr: None, insn: SymInstr::Plain(Instr::Nop) },
            ],
        );
        let rebuilt = rr_asm::assemble_and_link(&patched.to_source()).unwrap();
        let delta = ListingDelta::compute(&listing, &exe, &patched, &rebuilt).unwrap();

        assert_eq!(delta.remap(addr), None);
        assert!(delta.is_changed(addr));
        assert_eq!(delta.changed_ranges().len(), 1);
        assert_eq!(delta.inserted_ranges().len(), 1);
        // Every other instruction is still remapped.
        for (_, a, _) in listing.original_code() {
            if a != addr {
                assert!(delta.remap(a).is_some(), "addr {a:#x}");
            }
        }
    }

    #[test]
    fn layout_mismatch_is_reported() {
        let (listing, exe) = listing_pair();
        let mut truncated = listing.clone();
        // Drop the last code line: the walk ends short of the text end.
        let last =
            truncated.text.iter().rposition(|l| matches!(l, Line::Code { .. })).expect("has code");
        truncated.text.remove(last);
        let err = ListingDelta::compute(&listing, &exe, &truncated, &exe).unwrap_err();
        assert!(matches!(err, DeltaError::LayoutMismatch { .. }), "{err}");
        assert!(!err.to_string().is_empty());
    }
}
