//! Linked executables.

use crate::{SectionKind, SymbolKind};
use std::fmt;
use std::ops::Range;

/// Memory permissions of a loaded [`Segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentPerms {
    /// Readable.
    pub read: bool,
    /// Writable. The emulator faults on writes to non-writable segments
    /// (W^X), which is one of the crash outcomes fault campaigns observe.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl SegmentPerms {
    /// Read + execute (code).
    pub const RX: SegmentPerms = SegmentPerms { read: true, write: false, exec: true };
    /// Read-only (constants).
    pub const R: SegmentPerms = SegmentPerms { read: true, write: false, exec: false };
    /// Read + write (data, stack).
    pub const RW: SegmentPerms = SegmentPerms { read: true, write: true, exec: false };
}

impl fmt::Display for SegmentPerms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bit = |b: bool, ch: char| if b { ch } else { '-' };
        write!(f, "{}{}{}", bit(self.read, 'r'), bit(self.write, 'w'), bit(self.exec, 'x'))
    }
}

/// One contiguous mapped region of an [`Executable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Base virtual address.
    pub addr: u64,
    /// Initialized contents (zero-extended to `mem_size` when loaded).
    pub data: Vec<u8>,
    /// Total mapped size; at least `data.len()`.
    pub mem_size: u64,
    /// Access permissions.
    pub perms: SegmentPerms,
    /// Which section this segment was produced from.
    pub section: SectionKind,
}

impl Segment {
    /// The address range the segment occupies.
    pub fn range(&self) -> Range<u64> {
        self.addr..self.addr + self.mem_size
    }
}

/// A symbol retained in the executable's (optional) symbol table.
///
/// Real toolchains often strip these; the disassembler treats them as seeds
/// when present and falls back to entry-point discovery when not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExeSymbol {
    /// Symbol name.
    pub name: String,
    /// Absolute virtual address.
    pub addr: u64,
    /// What the symbol names.
    pub kind: SymbolKind,
}

/// A linked, loadable RRVM program.
///
/// All symbolic references have been resolved to concrete addresses; the
/// relocation table is gone. This is the artifact the faulter attacks and
/// the rewriters must reconstruct structure from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executable {
    /// Loadable segments, sorted by base address, non-overlapping.
    pub segments: Vec<Segment>,
    /// Entry-point address (the `_start` symbol).
    pub entry: u64,
    /// Retained symbols (may be empty if stripped).
    pub symbols: Vec<ExeSymbol>,
}

impl Executable {
    /// The address range of the given section, if it was mapped.
    pub fn section_range(&self, kind: SectionKind) -> Option<Range<u64>> {
        self.segments.iter().find(|s| s.section == kind).map(Segment::range)
    }

    /// The `.text` range.
    ///
    /// # Panics
    ///
    /// Panics if the executable has no text segment (never produced by the
    /// linker, which requires code).
    pub fn text_range(&self) -> Range<u64> {
        self.section_range(SectionKind::Text).expect("linked executables always map .text")
    }

    /// The bytes of the `.text` segment.
    pub fn text_bytes(&self) -> &[u8] {
        &self
            .segments
            .iter()
            .find(|s| s.section == SectionKind::Text)
            .expect("linked executables always map .text")
            .data
    }

    /// Size of the code in bytes — the metric Table V's overhead column is
    /// computed from.
    pub fn code_size(&self) -> u64 {
        self.text_bytes().len() as u64
    }

    /// The segment containing `addr`, if any.
    pub fn segment_at(&self, addr: u64) -> Option<&Segment> {
        self.segments.iter().find(|s| s.range().contains(&addr))
    }

    /// Reads `len` initialized bytes at `addr`, if fully in one segment's
    /// initialized data.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let seg = self.segment_at(addr)?;
        let start = usize::try_from(addr - seg.addr).ok()?;
        seg.data.get(start..start + len)
    }

    /// Looks up a retained symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&ExeSymbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Returns a copy with the symbol table removed, as `strip` would
    /// produce. Useful for exercising symbolization without seeds.
    pub fn stripped(&self) -> Executable {
        Executable { symbols: Vec::new(), ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Executable {
        Executable {
            segments: vec![
                Segment {
                    addr: 0x1000,
                    data: vec![0x01],
                    mem_size: 1,
                    perms: SegmentPerms::RX,
                    section: SectionKind::Text,
                },
                Segment {
                    addr: 0x2000,
                    data: vec![1, 2, 3, 4],
                    mem_size: 16,
                    perms: SegmentPerms::RW,
                    section: SectionKind::Data,
                },
            ],
            entry: 0x1000,
            symbols: vec![ExeSymbol { name: "main".into(), addr: 0x1000, kind: SymbolKind::Func }],
        }
    }

    #[test]
    fn section_ranges() {
        let exe = demo();
        assert_eq!(exe.text_range(), 0x1000..0x1001);
        assert_eq!(exe.section_range(SectionKind::Data), Some(0x2000..0x2010));
        assert_eq!(exe.section_range(SectionKind::Bss), None);
        assert_eq!(exe.code_size(), 1);
    }

    #[test]
    fn read_bytes_respects_initialized_bounds() {
        let exe = demo();
        assert_eq!(exe.read_bytes(0x2001, 2), Some(&[2u8, 3][..]));
        // Beyond the initialized data even though mapped (zero tail).
        assert_eq!(exe.read_bytes(0x2004, 1), None);
        assert_eq!(exe.read_bytes(0x5000, 1), None);
    }

    #[test]
    fn mapping_queries() {
        let exe = demo();
        assert!(exe.segment_at(0x1000).unwrap().perms.exec);
    }

    #[test]
    fn stripping_removes_symbols() {
        let exe = demo();
        assert!(exe.symbol("main").is_some());
        assert!(exe.stripped().symbols.is_empty());
    }

    #[test]
    fn perms_display() {
        assert_eq!(SegmentPerms::RX.to_string(), "r-x");
        assert_eq!(SegmentPerms::RW.to_string(), "rw-");
    }
}
