//! Binary (de)serialization of ROF objects and executables.
//!
//! The on-disk layout is a simple length-prefixed format:
//!
//! ```text
//! object:      "ROF1" | name | 4 × section | symbols | relocs
//! executable:  "RFX1" | entry:u64 | segments | symbols
//! section:     data:bytes | zero_size:u64
//! symbol:      name | section:u8 | offset:u64 | kind:u8 | global:u8
//! reloc:       section:u8 | offset:u64 | kind:u8 | symbol | addend:i64
//! segment:     addr:u64 | mem_size:u64 | perms:u8 | section:u8 | data
//! str/bytes:   len:u32 | payload
//! ```
//!
//! All integers are little-endian.
//!
//! Parsing treats its input as hostile. A count is rejected when the
//! rest of the file cannot hold that many entries, before anything is
//! reserved for them. An executable's segments must each fit their
//! data, lie below the stack base (`STACK_TOP − STACK_SIZE`, the ISA's
//! own layout) and not overlap, and one of them must be `.text`. Every
//! violation is a [`FormatError`], so loading never allocates more than
//! the file and the address space below the stack can describe.

use crate::exec::{ExeSymbol, Segment, SegmentPerms};
use crate::{Executable, ObjectFile, RelocKind, Relocation, SectionKind, Symbol, SymbolKind};
use rr_isa::{STACK_SIZE, STACK_TOP};
use std::fmt;

const OBJ_MAGIC: &[u8; 4] = b"ROF1";
const EXE_MAGIC: &[u8; 4] = b"RFX1";

/// The lowest stack address: every executable segment must end at or
/// below it.
const STACK_BASE: u64 = STACK_TOP - STACK_SIZE;

/// Smallest encodings of the counted entries: a segment (addr, mem_size,
/// perms, section, empty data), an executable symbol (empty name, addr,
/// kind), an object symbol (empty name, section, offset, kind, global)
/// and a relocation (section, offset, kind, empty symbol, addend).
const MIN_SEGMENT_LEN: usize = 8 + 8 + 1 + 1 + 4;
const MIN_EXE_SYMBOL_LEN: usize = 4 + 8 + 1;
const MIN_OBJ_SYMBOL_LEN: usize = 4 + 1 + 8 + 1 + 1;
const MIN_RELOC_LEN: usize = 1 + 8 + 1 + 4 + 8;

/// Error produced when parsing a serialized ROF file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The magic number did not match.
    BadMagic,
    /// The file ended prematurely.
    UnexpectedEof,
    /// A tag field held an unassigned value.
    BadTag {
        /// Which field was malformed.
        field: &'static str,
        /// The offending value.
        value: u8,
    },
    /// A string was not valid UTF-8.
    BadString,
    /// A count declares more entries than the rest of the file can hold.
    CountTooLarge {
        /// What is counted.
        field: &'static str,
        /// The declared count.
        count: u32,
        /// Bytes left in the file after the count.
        remaining: usize,
    },
    /// A segment's initialized data is longer than its mapped size.
    SegmentDataTooLong {
        /// The segment's index in the file.
        index: usize,
        /// Initialized bytes.
        data_len: u64,
        /// Mapped size.
        mem_size: u64,
    },
    /// A segment's range overflows the address space or reaches past the
    /// stack base.
    SegmentOutOfBounds {
        /// The segment's index in the file.
        index: usize,
        /// Base address.
        addr: u64,
        /// Mapped size.
        mem_size: u64,
    },
    /// Two segments map overlapping ranges.
    OverlappingSegments {
        /// The lower-addressed segment's index in the file.
        first: usize,
        /// The index of the segment that starts inside it.
        second: usize,
    },
    /// An executable maps no `.text` segment.
    MissingText,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "bad magic number"),
            FormatError::UnexpectedEof => write!(f, "unexpected end of file"),
            FormatError::BadTag { field, value } => write!(f, "invalid {field} tag {value:#x}"),
            FormatError::BadString => write!(f, "invalid UTF-8 in string"),
            FormatError::CountTooLarge { field, count, remaining } => write!(
                f,
                "{count} {field} entries declared, more than the remaining {remaining} bytes \
                 can hold"
            ),
            FormatError::SegmentDataTooLong { index, data_len, mem_size } => write!(
                f,
                "segment {index} has {data_len} bytes of data, more than its mem_size {mem_size}"
            ),
            FormatError::SegmentOutOfBounds { index, addr, mem_size } => write!(
                f,
                "segment {index} at {addr:#x} with mem_size {mem_size:#x} reaches past the \
                 stack base {STACK_BASE:#x}"
            ),
            FormatError::OverlappingSegments { first, second } => {
                write!(f, "segment {second} overlaps segment {first}")
            }
            FormatError::MissingText => write!(f, "no .text segment"),
        }
    }
}

impl std::error::Error for FormatError {}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let end = self.pos.checked_add(n).ok_or(FormatError::UnexpectedEof)?;
        let slice = self.bytes.get(self.pos..end).ok_or(FormatError::UnexpectedEof)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    fn i64(&mut self) -> Result<i64, FormatError> {
        Ok(self.u64()? as i64)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, FormatError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, FormatError> {
        String::from_utf8(self.bytes()?).map_err(|_| FormatError::BadString)
    }

    /// Reads a `field` count whose entries take at least `min_len` bytes
    /// each, rejecting it when the rest of the file cannot hold them.
    fn count(&mut self, field: &'static str, min_len: usize) -> Result<usize, FormatError> {
        let count = self.u32()?;
        let remaining = self.bytes.len() - self.pos;
        if (count as usize).saturating_mul(min_len) > remaining {
            return Err(FormatError::CountTooLarge { field, count, remaining });
        }
        Ok(count as usize)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

impl ObjectFile {
    /// Serializes the object to its on-disk byte representation.
    ///
    /// # Example
    ///
    /// ```
    /// use rr_obj::ObjectFile;
    ///
    /// let obj = ObjectFile::new("m");
    /// let bytes = obj.to_bytes();
    /// assert_eq!(ObjectFile::from_bytes(&bytes)?, obj);
    /// # Ok::<(), rr_obj::FormatError>(())
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(OBJ_MAGIC);
        put_str(&mut out, &self.name);
        for kind in SectionKind::ALL {
            let s = self.section(kind);
            put_bytes(&mut out, &s.data);
            out.extend_from_slice(&s.zero_size.to_le_bytes());
        }
        out.extend_from_slice(&(self.symbols.len() as u32).to_le_bytes());
        for sym in &self.symbols {
            put_str(&mut out, &sym.name);
            out.push(sym.section as u8);
            out.extend_from_slice(&sym.offset.to_le_bytes());
            out.push(sym.kind as u8);
            out.push(u8::from(sym.global));
        }
        out.extend_from_slice(&(self.relocs.len() as u32).to_le_bytes());
        for r in &self.relocs {
            out.push(r.section as u8);
            out.extend_from_slice(&r.offset.to_le_bytes());
            out.push(r.kind as u8);
            put_str(&mut out, &r.symbol);
            out.extend_from_slice(&r.addend.to_le_bytes());
        }
        out
    }

    /// Parses an object from bytes produced by [`ObjectFile::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] on malformed input; parsing never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<ObjectFile, FormatError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != OBJ_MAGIC {
            return Err(FormatError::BadMagic);
        }
        let mut obj = ObjectFile::new(r.string()?);
        for kind in SectionKind::ALL {
            let data = r.bytes()?;
            let zero_size = r.u64()?;
            let s = obj.section_mut(kind);
            s.data = data;
            s.zero_size = zero_size;
        }
        let nsyms = r.count("symbol", MIN_OBJ_SYMBOL_LEN)?;
        for _ in 0..nsyms {
            let name = r.string()?;
            let section = section_kind(r.u8()?)?;
            let offset = r.u64()?;
            let kind = symbol_kind(r.u8()?)?;
            let global = match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(FormatError::BadTag { field: "global", value: other }),
            };
            obj.symbols.push(Symbol { name, section, offset, kind, global });
        }
        let nrelocs = r.count("relocation", MIN_RELOC_LEN)?;
        for _ in 0..nrelocs {
            let section = section_kind(r.u8()?)?;
            let offset = r.u64()?;
            let kind = reloc_kind(r.u8()?)?;
            let symbol = r.string()?;
            let addend = r.i64()?;
            obj.relocs.push(Relocation { section, offset, kind, symbol, addend });
        }
        if !r.done() {
            return Err(FormatError::UnexpectedEof);
        }
        Ok(obj)
    }
}

impl Executable {
    /// Serializes the executable to its on-disk byte representation.
    ///
    /// # Example
    ///
    /// ```
    /// # use rr_obj::*;
    /// # use rr_isa::TEXT_BASE;
    /// let mut obj = ObjectFile::new("m");
    /// obj.section_mut(SectionKind::Text).data = vec![0x01];
    /// obj.symbols.push(Symbol::global("_start", SectionKind::Text, 0, SymbolKind::Func));
    /// let exe = link(&[obj])?;
    /// let bytes = exe.to_bytes();
    /// assert_eq!(Executable::from_bytes(&bytes).unwrap(), exe);
    /// # Ok::<(), LinkError>(())
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(EXE_MAGIC);
        out.extend_from_slice(&self.entry.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for seg in &self.segments {
            out.extend_from_slice(&seg.addr.to_le_bytes());
            out.extend_from_slice(&seg.mem_size.to_le_bytes());
            let perms = u8::from(seg.perms.read)
                | u8::from(seg.perms.write) << 1
                | u8::from(seg.perms.exec) << 2;
            out.push(perms);
            out.push(seg.section as u8);
            put_bytes(&mut out, &seg.data);
        }
        out.extend_from_slice(&(self.symbols.len() as u32).to_le_bytes());
        for sym in &self.symbols {
            put_str(&mut out, &sym.name);
            out.extend_from_slice(&sym.addr.to_le_bytes());
            out.push(sym.kind as u8);
        }
        out
    }

    /// Parses an executable from bytes produced by [`Executable::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] on malformed input, including segments
    /// that do not fit their data, reach past the stack base, or overlap,
    /// and a missing `.text` segment; parsing never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Executable, FormatError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != EXE_MAGIC {
            return Err(FormatError::BadMagic);
        }
        let entry = r.u64()?;
        let nsegs = r.count("segment", MIN_SEGMENT_LEN)?;
        let mut segments = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            let addr = r.u64()?;
            let mem_size = r.u64()?;
            let perms = r.u8()?;
            let section = section_kind(r.u8()?)?;
            let data = r.bytes()?;
            segments.push(Segment {
                addr,
                data,
                mem_size,
                perms: SegmentPerms {
                    read: perms & 1 != 0,
                    write: perms & 2 != 0,
                    exec: perms & 4 != 0,
                },
                section,
            });
        }
        validate_segments(&segments)?;
        let nsyms = r.count("symbol", MIN_EXE_SYMBOL_LEN)?;
        let mut symbols = Vec::with_capacity(nsyms);
        for _ in 0..nsyms {
            let name = r.string()?;
            let addr = r.u64()?;
            let kind = symbol_kind(r.u8()?)?;
            symbols.push(ExeSymbol { name, addr, kind });
        }
        if !r.done() {
            return Err(FormatError::UnexpectedEof);
        }
        Ok(Executable { segments, entry, symbols })
    }
}

/// Checks that every segment fits its data and lies below the stack
/// base, that no two non-empty segments overlap, and that `.text` is
/// mapped.
fn validate_segments(segments: &[Segment]) -> Result<(), FormatError> {
    for (index, seg) in segments.iter().enumerate() {
        let (addr, mem_size) = (seg.addr, seg.mem_size);
        let data_len = seg.data.len() as u64;
        if data_len > mem_size {
            return Err(FormatError::SegmentDataTooLong { index, data_len, mem_size });
        }
        if addr.checked_add(mem_size).is_none_or(|end| end > STACK_BASE) {
            return Err(FormatError::SegmentOutOfBounds { index, addr, mem_size });
        }
    }
    // Sorted by base address, any overlap shows between neighbours.
    let mut mapped: Vec<usize> =
        (0..segments.len()).filter(|&i| segments[i].mem_size > 0).collect();
    mapped.sort_by_key(|&i| segments[i].addr);
    for pair in mapped.windows(2) {
        let (first, second) = (pair[0], pair[1]);
        if segments[second].addr < segments[first].range().end {
            return Err(FormatError::OverlappingSegments { first, second });
        }
    }
    if !segments.iter().any(|seg| seg.section == SectionKind::Text) {
        return Err(FormatError::MissingText);
    }
    Ok(())
}

fn section_kind(tag: u8) -> Result<SectionKind, FormatError> {
    SectionKind::from_code(tag).ok_or(FormatError::BadTag { field: "section", value: tag })
}

fn symbol_kind(tag: u8) -> Result<SymbolKind, FormatError> {
    SymbolKind::from_code(tag).ok_or(FormatError::BadTag { field: "symbol kind", value: tag })
}

fn reloc_kind(tag: u8) -> Result<RelocKind, FormatError> {
    RelocKind::from_code(tag).ok_or(FormatError::BadTag { field: "reloc kind", value: tag })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link;

    fn rich_object() -> ObjectFile {
        let mut obj = ObjectFile::new("rich");
        obj.section_mut(SectionKind::Text).data = vec![0x50, 0, 0, 0, 0, 0x01];
        obj.section_mut(SectionKind::Rodata).data = b"hello".to_vec();
        obj.section_mut(SectionKind::Data).data = vec![0; 8];
        obj.section_mut(SectionKind::Bss).zero_size = 32;
        obj.symbols.push(Symbol::global("_start", SectionKind::Text, 0, SymbolKind::Func));
        obj.symbols.push(Symbol::local(".L0", SectionKind::Text, 5, SymbolKind::Label));
        obj.symbols.push(Symbol::global("msg", SectionKind::Rodata, 0, SymbolKind::Object));
        obj.relocs.push(Relocation {
            section: SectionKind::Text,
            offset: 1,
            kind: RelocKind::Rel32,
            symbol: ".L0".into(),
            addend: 0,
        });
        obj.relocs.push(Relocation {
            section: SectionKind::Data,
            offset: 0,
            kind: RelocKind::Abs64,
            symbol: "msg".into(),
            addend: -2,
        });
        obj
    }

    #[test]
    fn object_round_trip() {
        let obj = rich_object();
        assert_eq!(ObjectFile::from_bytes(&obj.to_bytes()).unwrap(), obj);
    }

    #[test]
    fn executable_round_trip() {
        let exe = link(&[rich_object()]).unwrap();
        assert_eq!(Executable::from_bytes(&exe.to_bytes()).unwrap(), exe);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(ObjectFile::from_bytes(b"NOPE"), Err(FormatError::BadMagic));
        assert_eq!(Executable::from_bytes(b"NOPE....."), Err(FormatError::BadMagic));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = rich_object().to_bytes();
        for cut in 0..bytes.len() {
            assert!(ObjectFile::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = rich_object().to_bytes();
        bytes.push(0);
        assert_eq!(ObjectFile::from_bytes(&bytes), Err(FormatError::UnexpectedEof));
    }

    /// Segment 0's `mem_size` (file bytes 24..32) set to 2^46: the
    /// segment would pass the stack base.
    #[test]
    fn huge_segment_is_rejected() {
        let mut bytes = link(&[rich_object()]).unwrap().to_bytes();
        bytes[24..32].copy_from_slice(&(1u64 << 46).to_le_bytes());
        let err = Executable::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, FormatError::SegmentOutOfBounds { index: 0, mem_size, .. } if mem_size == 1 << 46),
            "{err:?}"
        );
        assert!(err.to_string().contains("segment 0"), "{err}");
    }

    /// The segment count (file bytes 12..16) set to `0x8000_0003`: the
    /// parser must not reserve room for that many segments.
    #[test]
    fn huge_segment_count_is_rejected_before_reserving() {
        let mut bytes = link(&[rich_object()]).unwrap().to_bytes();
        bytes[12..16].copy_from_slice(&0x8000_0003u32.to_le_bytes());
        let err = Executable::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, FormatError::CountTooLarge { field: "segment", count: 0x8000_0003, .. }),
            "{err:?}"
        );
        // The same holds for the symbol count that ends the file's
        // segments.
        let exe = link(&[rich_object()]).unwrap();
        let mut bytes = exe.to_bytes();
        let at = bytes.len() - exe.symbols.iter().map(|s| 4 + s.name.len() + 8 + 1).sum::<usize>();
        bytes[at - 4..at].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Executable::from_bytes(&bytes),
            Err(FormatError::CountTooLarge { field: "symbol", .. })
        ));
    }

    #[test]
    fn segments_must_fit_below_the_stack_without_overlap_and_map_text() {
        let exe = link(&[rich_object()]).unwrap();
        assert!(exe.segments.len() >= 2 && !exe.segments[0].data.is_empty());
        let reject = |edit: &dyn Fn(&mut Executable)| {
            let mut bad = exe.clone();
            edit(&mut bad);
            Executable::from_bytes(&bad.to_bytes()).unwrap_err()
        };
        assert!(matches!(
            reject(&|e| e.segments[1].mem_size = e.segments[1].data.len() as u64 - 1),
            FormatError::SegmentDataTooLong { index: 1, .. }
        ));
        assert!(matches!(
            reject(&|e| e.segments[1].addr = u64::MAX - 1),
            FormatError::SegmentOutOfBounds { index: 1, .. }
        ));
        assert!(matches!(
            reject(&|e| e.segments[0].addr = STACK_BASE - 1),
            FormatError::SegmentOutOfBounds { index: 0, .. }
        ));
        assert_eq!(
            reject(&|e| e.segments[1].addr = e.segments[0].addr + 1),
            FormatError::OverlappingSegments { first: 0, second: 1 }
        );
        assert_eq!(
            reject(&|e| e.segments[0].section = SectionKind::Data),
            FormatError::MissingText
        );
        // A segment ending exactly at the stack base still loads.
        let mut last = exe.clone();
        let seg = last.segments.last_mut().unwrap();
        seg.addr = STACK_BASE - seg.mem_size;
        assert_eq!(Executable::from_bytes(&last.to_bytes()), Ok(last));
    }

    #[test]
    fn bad_tags_rejected() {
        let mut obj = rich_object();
        obj.relocs.clear();
        obj.symbols.truncate(1);
        let mut bytes = obj.to_bytes();
        // Corrupt the symbol's section tag (search for the symbol name and
        // step past it: name-len + name).
        let name_pos = bytes.windows(6).position(|w| w == b"_start").expect("symbol name present");
        let section_tag_pos = name_pos + 6;
        bytes[section_tag_pos] = 0xEE;
        assert!(matches!(
            ObjectFile::from_bytes(&bytes),
            Err(FormatError::BadTag { field: "section", .. })
        ));
    }
}
