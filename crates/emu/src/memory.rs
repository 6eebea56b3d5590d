//! The emulated flat memory: permissioned regions over page-granular
//! copy-on-write storage.
//!
//! Each region is a two-level structure: a page table of fixed-size
//! [`PAGE_SIZE`]-byte pages, each either the shared all-zero page or an
//! [`Arc`]-shared data page. The table is a *window* over the region's
//! pages: it starts as the region's initialized-data pages (empty for the
//! stack), grows to cover each page a write materializes, and every page
//! outside it reads as the shared zero page, so a read stays one index
//! into the window. Cloning a `Memory` (and therefore snapshotting a
//! machine) is O(touched pages) reference-count bumps — the untouched
//! 1 MiB stack costs no entry at all; a write after a clone copies only
//! the touched 4 KiB page via [`Arc::make_mut`], not the whole region.
//! Both the first-write cost after a snapshot restore and the retained
//! footprint of a checkpoint are therefore proportional to the bytes
//! actually dirtied — the property the `rr-engine` checkpointed replay
//! engine's byte-budget retention ([`ReplayConfig::max_retained_bytes`]
//! there) is built on.
//!
//! ## Contiguous reads over paged storage
//!
//! The read API still hands out contiguous `&[u8]` slices
//! ([`Memory::slice`], [`Memory::fetch`], [`Memory::peek`]) even though
//! storage is paged: every page buffer carries a [`STRADDLE_TAIL`]-byte
//! *mirror* of the following page's first bytes, so any access of up to
//! [`STRADDLE_TAIL`] bytes — larger than the biggest architectural
//! access, a [`MAX_INSTR_LEN`]-byte instruction fetch — is contiguous
//! inside a single page buffer no matter where it falls. Writes keep the
//! mirrors coherent (a write into the first bytes of a page also updates
//! the tail of its predecessor). Reads longer than the tail succeed only
//! when they do not cross a page-buffer boundary; no emulator or
//! campaign path issues one.
//!
//! ## Dirty accounting
//!
//! [`Memory::stats`] reports residency (materialized vs zero pages) and
//! [`Memory::delta`] compares two memories of the same layout by page
//! *identity*, counting pages whose backing is no longer shared: the
//! private footprint a checkpoint retains over its predecessor. Both walk
//! the windows, not the mappings.

use rr_isa::{MAX_INSTR_LEN, STACK_SIZE, STACK_TOP};
use rr_obj::{Executable, SegmentPerms};
use std::ops::Range;
use std::sync::Arc;

/// Bytes per copy-on-write page.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of the following page mirrored at the end of each page buffer;
/// the maximum length guaranteed to be readable as one contiguous slice
/// from any mapped, permitted address.
pub const STRADDLE_TAIL: usize = 64;

/// Stored bytes per page: the page itself plus the straddle mirror.
const PAGE_STORE: usize = PAGE_SIZE + STRADDLE_TAIL;

/// Backing store for every [`Page::Zero`] read.
static ZERO_STORE: [u8; PAGE_STORE] = [0; PAGE_STORE];

/// Every page outside a region's window.
static ZERO_PAGE: Page = Page::Zero;

const _: () = assert!(MAX_INSTR_LEN <= STRADDLE_TAIL, "fetch must fit the straddle window");

/// The kind of memory access that failed (or is being checked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Execute => "execute",
        })
    }
}

/// One fixed-size unit of copy-on-write storage.
#[derive(Clone)]
enum Page {
    /// Entirely zero (including the mirror tail); reads are served from
    /// one shared static buffer and no allocation exists.
    Zero,
    /// Materialized contents, shared between clones until written.
    Data(Arc<[u8; PAGE_STORE]>),
}

impl Page {
    fn as_slice(&self) -> &[u8; PAGE_STORE] {
        match self {
            Page::Zero => &ZERO_STORE,
            Page::Data(bytes) => bytes,
        }
    }

    /// Whether two pages share the same backing (zero pages all do).
    fn same_backing(&self, other: &Page) -> bool {
        match (self, other) {
            (Page::Zero, Page::Zero) => true,
            (Page::Data(a), Page::Data(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Page::Zero => f.write_str("Zero"),
            Page::Data(_) => f.write_str("Data(..)"),
        }
    }
}

#[derive(Debug, Clone)]
struct Region {
    start: u64,
    /// Mapped length in bytes (the last page may cover slightly more).
    len: usize,
    perms: SegmentPerms,
    /// Page index of `pages[0]`.
    lo: usize,
    /// The window: pages `lo..lo + pages.len()`, the span of the pages the
    /// region was loaded with or has written. Every page outside it is the
    /// zero page, so a clone copies the span, not one entry per mapped
    /// page.
    pages: Vec<Page>,
}

impl Region {
    /// Builds a region from initial contents zero-extended to `mem_size`;
    /// the window holds the initialized-data pages.
    fn new(start: u64, perms: SegmentPerms, data: &[u8], mem_size: usize) -> Region {
        let pages = (0..data.len().min(mem_size).div_ceil(PAGE_SIZE))
            .map(|p| {
                let base = p * PAGE_SIZE;
                // The buffer takes PAGE_STORE bytes starting at the page
                // base, which seeds the mirror tail from the next page's
                // data in the same copy.
                let mut buf = [0u8; PAGE_STORE];
                let end = data.len().min(base + PAGE_STORE);
                buf[..end - base].copy_from_slice(&data[base..end]);
                if buf.iter().all(|&b| b == 0) {
                    Page::Zero
                } else {
                    Page::Data(Arc::new(buf))
                }
            })
            .collect();
        Region { start, len: mem_size, perms, lo: 0, pages }
    }

    /// Page `p`: one index into the window, or the zero page outside it.
    fn page(&self, p: usize) -> &Page {
        self.pages.get(p.wrapping_sub(self.lo)).unwrap_or(&ZERO_PAGE)
    }

    /// Page indices of the window.
    fn window(&self) -> Range<usize> {
        self.lo..self.lo + self.pages.len()
    }

    /// The pages of `self` and `other`, a region of the same layout, side
    /// by side with their page index over the union of their windows:
    /// outside it both are zero.
    fn page_pairs<'a>(
        &'a self,
        other: &'a Region,
    ) -> impl Iterator<Item = (usize, &'a Page, &'a Page)> {
        let (a, b) = (self.window(), other.window());
        let union = if a.is_empty() {
            b
        } else if b.is_empty() {
            a
        } else {
            a.start.min(b.start)..a.end.max(b.end)
        };
        union.map(move |p| (p, self.page(p), other.page(p)))
    }

    fn end(&self) -> u64 {
        self.start + self.len as u64
    }

    fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Contiguous view of `len` bytes at region offset `offset`, if the
    /// range is mapped and fits one page buffer (always true for
    /// `len <= STRADDLE_TAIL`).
    fn read(&self, offset: usize, len: usize) -> Option<&[u8]> {
        let end = offset.checked_add(len)?;
        if end > self.len {
            return None;
        }
        if len == 0 {
            return Some(&[]);
        }
        let page = offset / PAGE_SIZE;
        let in_page = offset % PAGE_SIZE;
        self.page(page).as_slice().get(in_page..in_page + len)
    }

    /// Mutable access to page `p`, growing the window to cover it,
    /// materializing zero pages and copying shared ones (the page-granular
    /// copy-on-write step).
    fn page_mut(&mut self, p: usize) -> &mut [u8; PAGE_STORE] {
        if self.pages.is_empty() {
            self.lo = p;
        } else if p < self.lo {
            self.pages.splice(0..0, std::iter::repeat_n(Page::Zero, self.lo - p));
            self.lo = p;
        }
        if p >= self.lo + self.pages.len() {
            self.pages.resize(p - self.lo + 1, Page::Zero);
        }
        let page = &mut self.pages[p - self.lo];
        if let Page::Zero = page {
            *page = Page::Data(Arc::new([0u8; PAGE_STORE]));
        }
        match page {
            Page::Data(bytes) => Arc::make_mut(bytes),
            Page::Zero => unreachable!("zero page was just materialized"),
        }
    }

    /// Writes `data` at region offset `offset`, keeping the mirror tails
    /// of preceding pages coherent. Returns `false` when the range is not
    /// fully mapped. Zero writes to zero pages are absorbed without
    /// materializing, so zero-filling untouched memory stays free.
    fn write(&mut self, offset: usize, data: &[u8]) -> bool {
        let Some(end) = offset.checked_add(data.len()) else { return false };
        if end > self.len {
            return false;
        }
        if data.is_empty() {
            return true;
        }
        let first = offset / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        for p in first..=last {
            let base = p * PAGE_SIZE;
            let lo = offset.max(base);
            let hi = end.min(base + PAGE_SIZE);
            let chunk = &data[lo - offset..hi - offset];
            if matches!(self.page(p), Page::Zero) && chunk.iter().all(|&b| b == 0) {
                continue;
            }
            self.page_mut(p)[lo - base..hi - base].copy_from_slice(chunk);
        }
        // A page buffer mirrors the first STRADDLE_TAIL bytes of its
        // successor; refresh the mirrors the write touched.
        for p in first.max(1)..=last {
            let base = p * PAGE_SIZE;
            let lo = offset.max(base);
            let hi = end.min(base + STRADDLE_TAIL);
            if lo < hi {
                let chunk = &data[lo - offset..hi - offset];
                if matches!(self.page(p - 1), Page::Zero) && chunk.iter().all(|&b| b == 0) {
                    continue;
                }
                self.page_mut(p - 1)[PAGE_SIZE + lo - base..PAGE_SIZE + hi - base]
                    .copy_from_slice(chunk);
            }
        }
        true
    }
}

/// Offers `admit`, by address and in address order, each 8-byte-aligned
/// word holding a byte where page `x`, at address `page`, differs from
/// page `y`, except bytes at the page offsets in `skip`. Stops at the
/// first word `admit` refuses, and returns whether it accepted them all.
fn admit_differences(
    x: &[u8],
    y: &[u8],
    page: u64,
    skip: Range<usize>,
    admit: &mut impl FnMut(u64) -> bool,
) -> bool {
    let le_u64 = |bytes: &[u8], i: usize| {
        u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
    };
    let mut last = None;
    for (block, (xb, yb)) in x.chunks_exact(64).zip(y.chunks_exact(64)).enumerate() {
        // The bits that differ in the block's `i`-th 8 bytes.
        let differ = |i: usize| le_u64(xb, i) ^ le_u64(yb, i);
        if (0..8).fold(0, |any, i| any | differ(i)) == 0 {
            continue;
        }
        for i in 0..8 {
            let mut bits = differ(i);
            while bits != 0 {
                let at = block * 64 + i * 8 + bits.trailing_zeros() as usize / 8;
                bits &= !(0xff << (at % 8 * 8));
                let word = (page + at as u64) & !7;
                if skip.contains(&at) || last == Some(word) {
                    continue;
                }
                last = Some(word);
                if !admit(word) {
                    return false;
                }
            }
        }
    }
    true
}

/// The emulated address space: a small set of non-overlapping permissioned
/// regions (program segments plus the stack).
#[derive(Debug, Clone)]
pub struct Memory {
    regions: Vec<Region>,
    /// Byte ranges of *executable* memory overwritten since load: pokes
    /// from fault injection, plus checked writes in the (unusual) case
    /// of a region mapped write+exec. Sorted, disjoint and coalesced
    /// (touching ranges merge), so a loop rewriting the same bytes keeps
    /// one range. Cloned with the memory, so snapshot/restore rewinds it
    /// together with the bytes — the block-cached execution fast path
    /// consults this to run modified code from blocks decoded out of the
    /// current bytes.
    exec_dirty: Vec<Range<u64>>,
    /// Executable-range overwrites since load, one per write: see
    /// [`Memory::exec_dirty_epoch`].
    exec_epoch: u64,
}

/// Result of a memory access: the value, or the failed access description.
pub type MemResult<T> = Result<T, (u64, AccessKind)>;

/// Residency of one [`Memory`]: how much of the mapped address space is
/// materialized versus on the shared zero-page fast path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Total mapped bytes across all regions.
    pub mapped_bytes: u64,
    /// Total pages across all regions.
    pub total_pages: u64,
    /// Pages on the shared zero fast path (no allocation).
    pub zero_pages: u64,
    /// Materialized pages (each holds a private or shared allocation).
    pub resident_pages: u64,
    /// `resident_pages × PAGE_SIZE`.
    pub resident_bytes: u64,
}

/// Divergence between two memories of identical layout, measured by page
/// *identity*: a page counts as dirty when its backing is no longer the
/// same allocation (or both the shared zero page).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryDelta {
    /// Pages whose backing differs.
    pub pages: u64,
    /// `pages × PAGE_SIZE` — what page-granular COW retains privately.
    pub bytes: u64,
}

impl MemoryDelta {
    /// No page diverged.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }
}

impl Memory {
    /// Builds the address space for `exe`: every segment, zero-extended to
    /// its `mem_size`, plus a zeroed read-write stack of [`STACK_SIZE`]
    /// bytes ending at [`STACK_TOP`]. The stack (and every zero tail)
    /// starts on the shared zero page, costing no allocation and no
    /// page-table entry until written.
    pub fn for_executable(exe: &Executable) -> Memory {
        let mut regions: Vec<Region> = exe
            .segments
            .iter()
            .map(|seg| Region::new(seg.addr, seg.perms, &seg.data, seg.mem_size as usize))
            .collect();
        regions.push(Region::new(
            STACK_TOP - STACK_SIZE,
            SegmentPerms::RW,
            &[],
            STACK_SIZE as usize,
        ));
        regions.sort_by_key(|r| r.start);
        Memory { regions, exec_dirty: Vec::new(), exec_epoch: 0 }
    }

    fn region(&self, addr: u64) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    fn region_mut(&mut self, addr: u64) -> Option<&mut Region> {
        self.regions.iter_mut().find(|r| r.contains(addr))
    }

    /// Checked slice access: `len` bytes at `addr`, all within one region
    /// that satisfies `access` permissions. Lengths up to
    /// [`STRADDLE_TAIL`] are always contiguously servable; longer
    /// requests fail if they cross a page buffer.
    pub fn slice(&self, addr: u64, len: usize, access: AccessKind) -> MemResult<&[u8]> {
        let region = self.region(addr).ok_or((addr, access))?;
        let allowed = match access {
            AccessKind::Read => region.perms.read,
            AccessKind::Write => region.perms.write,
            AccessKind::Execute => region.perms.exec,
        };
        if !allowed {
            return Err((addr, access));
        }
        let offset = (addr - region.start) as usize;
        region.read(offset, len).ok_or((addr, access))
    }

    /// Reads an unsigned 64-bit little-endian word.
    pub fn read_u64(&self, addr: u64) -> MemResult<u64> {
        let bytes = self.slice(addr, 8, AccessKind::Read)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("length checked")))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> MemResult<u8> {
        Ok(self.slice(addr, 1, AccessKind::Read)?[0])
    }

    /// Writes a 64-bit little-endian word (permission-checked).
    pub fn write_u64(&mut self, addr: u64, value: u64) -> MemResult<()> {
        self.write_checked(addr, &value.to_le_bytes())
    }

    /// Writes one byte (permission-checked).
    pub fn write_u8(&mut self, addr: u64, value: u8) -> MemResult<()> {
        self.write_checked(addr, &[value])
    }

    fn write_checked(&mut self, addr: u64, data: &[u8]) -> MemResult<()> {
        let region = self.region_mut(addr).ok_or((addr, AccessKind::Write))?;
        if !region.perms.write {
            return Err((addr, AccessKind::Write));
        }
        let offset = (addr - region.start) as usize;
        let exec = region.perms.exec;
        if region.write(offset, data) {
            if exec {
                self.note_exec_write(addr, data.len());
            }
            Ok(())
        } else {
            Err((addr, AccessKind::Write))
        }
    }

    /// Records a write of `len` bytes at `addr` into executable memory:
    /// advances the epoch and merges the range into the coalesced dirty
    /// list.
    fn note_exec_write(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        self.exec_epoch += 1;
        let mut new = addr..addr + len as u64;
        // The ranges that overlap or touch `new` form one run of the
        // sorted list; they collapse into one.
        let first = self.exec_dirty.partition_point(|r| r.end < new.start);
        let last = first + self.exec_dirty[first..].partition_point(|r| r.start <= new.end);
        if first < last {
            new.start = new.start.min(self.exec_dirty[first].start);
            new.end = new.end.max(self.exec_dirty[last - 1].end);
        }
        self.exec_dirty.splice(first..last, [new]);
    }

    /// Fetches up to `max_len` executable bytes starting at `addr` (fewer if
    /// the region ends sooner). Errors if `addr` is not executable.
    pub fn fetch(&self, addr: u64, max_len: usize) -> MemResult<&[u8]> {
        let region = self.region(addr).ok_or((addr, AccessKind::Execute))?;
        if !region.perms.exec {
            return Err((addr, AccessKind::Execute));
        }
        let offset = (addr - region.start) as usize;
        let len = max_len.min(region.len - offset);
        region.read(offset, len).ok_or((addr, AccessKind::Execute))
    }

    /// Writes bytes ignoring permissions — the *physical* access a fault
    /// injector has (a laser does not consult the MMU).
    ///
    /// Returns `false` if the range is not fully inside one mapped region.
    pub fn poke(&mut self, addr: u64, data: &[u8]) -> bool {
        let Some(region) = self.region_mut(addr) else { return false };
        let offset = (addr - region.start) as usize;
        let exec = region.perms.exec;
        if !region.write(offset, data) {
            return false;
        }
        if exec {
            self.note_exec_write(addr, data.len());
        }
        true
    }

    /// Whether any executable byte in `start..end` has been overwritten
    /// since this memory was built (or, for a restored machine, since the
    /// snapshot it came from was captured — the dirty list rewinds with
    /// the bytes). The block-cached execution path uses this to retire
    /// cached blocks over code a fault injection has modified, running
    /// that code from blocks decoded out of the current bytes instead.
    pub fn exec_dirty_intersects(&self, start: u64, end: u64) -> bool {
        // The first range ending past `start` is the only candidate: the
        // list is sorted and disjoint.
        let first = self.exec_dirty.partition_point(|r| r.end <= start);
        self.exec_dirty.get(first).is_some_and(|r| r.start < end)
    }

    /// Count of executable-range overwrites — a cheap "did code change
    /// since I last looked" check for callers holding decoded
    /// instructions. Every exec-range [`Memory::poke`] or checked write
    /// advances it, also one that rewrites bytes already dirty; it
    /// rewinds on restore.
    pub fn exec_dirty_epoch(&self) -> u64 {
        self.exec_epoch
    }

    /// Reads bytes ignoring permissions (inspection/forensics counterpart
    /// of [`Memory::poke`]). Same contiguity contract as [`Memory::slice`].
    pub fn peek(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let region = self.region(addr)?;
        region.read((addr - region.start) as usize, len)
    }

    /// Residency of this memory (see [`MemoryStats`]).
    pub fn stats(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        for region in &self.regions {
            stats.mapped_bytes += region.len as u64;
            stats.total_pages += region.len.div_ceil(PAGE_SIZE) as u64;
            stats.resident_pages +=
                region.pages.iter().filter(|page| matches!(page, Page::Data(_))).count() as u64;
        }
        stats.zero_pages = stats.total_pages - stats.resident_pages;
        stats.resident_bytes = stats.resident_pages * PAGE_SIZE as u64;
        stats
    }

    /// Whether this memory holds exactly the bytes of `other`, region by
    /// region. Pages sharing a backing are equal without a read; only
    /// pages whose backings differ are compared byte by byte. The
    /// exec-dirty list is bookkeeping, not contents, and is ignored:
    /// equal bytes execute identically.
    pub fn same_contents(&self, other: &Memory) -> bool {
        self.same_contents_except(other, 0..0, |_| false)
    }

    /// The one page walk behind [`Memory::same_contents`]: whether this
    /// memory holds the bytes of `other` outside `skip`, except in the
    /// words `admit` accepts. Pages sharing a backing are equal without a
    /// read, and pages whose bytes compare equal cost one comparison;
    /// only a page that differs is scanned for its differing bytes, and
    /// each 8-byte-aligned word holding one outside `skip` is offered to
    /// `admit` by address (a word the scan reaches from two pages is
    /// offered twice). A differing byte in an executable region is never
    /// admitted. Stops at the first word `admit` refuses.
    pub(crate) fn same_contents_except(
        &self,
        other: &Memory,
        skip: Range<u64>,
        mut admit: impl FnMut(u64) -> bool,
    ) -> bool {
        self.regions.len() == other.regions.len()
            && self.regions.iter().zip(&other.regions).all(|(a, b)| {
                (a.start, a.len, a.perms) == (b.start, b.len, b.perms)
                    && a.page_pairs(b).all(|(p, pa, pb)| {
                        if pa.same_backing(pb) {
                            return true;
                        }
                        let (x, y) = (&pa.as_slice()[..PAGE_SIZE], &pb.as_slice()[..PAGE_SIZE]);
                        // The skipped bytes of this page, as page offsets.
                        let page = a.start + (p * PAGE_SIZE) as u64;
                        let offset = |addr: u64| addr.saturating_sub(page).min(PAGE_SIZE as u64);
                        let (lo, hi) = (offset(skip.start) as usize, offset(skip.end) as usize);
                        let (lo, hi) = if lo < hi { (lo, hi) } else { (0, 0) };
                        if x[..lo] == y[..lo] && x[hi..] == y[hi..] {
                            return true;
                        }
                        if a.perms.exec {
                            return false;
                        }
                        admit_differences(x, y, page, lo..hi, &mut admit)
                    })
            })
    }

    /// Page-identity divergence from `baseline` (see [`MemoryDelta`]).
    /// Both memories must come from the same executable.
    pub fn delta(&self, baseline: &Memory) -> MemoryDelta {
        assert_eq!(self.regions.len(), baseline.regions.len(), "memory layouts differ");
        let mut delta = MemoryDelta::default();
        for (a, b) in self.regions.iter().zip(&baseline.regions) {
            assert_eq!((a.start, a.len), (b.start, b.len), "memory layouts differ");
            delta.pages +=
                a.page_pairs(b).filter(|(_, pa, pb)| !pa.same_backing(pb)).count() as u64;
        }
        delta.bytes = delta.pages * PAGE_SIZE as u64;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_obj::{SectionKind, Segment};

    fn demo_memory() -> Memory {
        let exe = Executable {
            segments: vec![
                Segment {
                    addr: 0x1000,
                    data: vec![0x01, 0x02],
                    mem_size: 2,
                    perms: SegmentPerms::RX,
                    section: SectionKind::Text,
                },
                Segment {
                    addr: 0x2000,
                    data: vec![0xAA; 4],
                    mem_size: 16,
                    perms: SegmentPerms::RW,
                    section: SectionKind::Data,
                },
            ],
            entry: 0x1000,
            symbols: vec![],
        };
        Memory::for_executable(&exe)
    }

    /// A RW region spanning several pages, for boundary tests.
    fn paged_memory() -> Memory {
        let mut data = vec![0u8; 2 * PAGE_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let exe = Executable {
            segments: vec![Segment {
                addr: 0x10000,
                data,
                mem_size: (3 * PAGE_SIZE + 100) as u64,
                perms: SegmentPerms::RW,
                section: SectionKind::Data,
            }],
            entry: 0x10000,
            symbols: vec![],
        };
        Memory::for_executable(&exe)
    }

    #[test]
    fn zero_extension_of_segments() {
        let mem = demo_memory();
        assert_eq!(mem.read_u8(0x2003).unwrap(), 0xAA);
        assert_eq!(mem.read_u8(0x2004).unwrap(), 0); // zero tail
        assert_eq!(mem.read_u8(0x200F).unwrap(), 0);
        assert!(mem.read_u8(0x2010).is_err());
    }

    #[test]
    fn permissions_enforced() {
        let mut mem = demo_memory();
        // Writing code faults (W^X).
        assert_eq!(mem.write_u8(0x1000, 0), Err((0x1000, AccessKind::Write)));
        // Executing data faults.
        assert_eq!(mem.fetch(0x2000, 4).unwrap_err(), (0x2000, AccessKind::Execute));
        // Reading code is allowed.
        assert_eq!(mem.read_u8(0x1000).unwrap(), 0x01);
        // Writing data is allowed.
        mem.write_u64(0x2000, 7).unwrap();
        assert_eq!(mem.read_u64(0x2000).unwrap(), 7);
    }

    #[test]
    fn word_access_must_fit_one_region() {
        let mem = demo_memory();
        // 8-byte read straddling the end of the data region fails.
        assert!(mem.read_u64(0x2008).is_ok());
        assert!(mem.read_u64(0x2009).is_err());
    }

    #[test]
    fn stack_is_mapped_rw() {
        let mut mem = demo_memory();
        let sp = STACK_TOP - 8;
        mem.write_u64(sp, 0xFEED).unwrap();
        assert_eq!(mem.read_u64(sp).unwrap(), 0xFEED);
        // Just below the stack is unmapped (stack overflow detection).
        assert!(mem.write_u64(STACK_TOP - STACK_SIZE - 8, 1).is_err());
    }

    #[test]
    fn fetch_truncates_at_region_end() {
        let mem = demo_memory();
        assert_eq!(mem.fetch(0x1001, 10).unwrap(), &[0x02]);
        assert!(mem.fetch(0x0, 1).is_err());
    }

    #[test]
    fn untouched_stack_stays_on_the_zero_page() {
        let mem = demo_memory();
        let stats = mem.stats();
        let stack_pages = (STACK_SIZE as usize / PAGE_SIZE) as u64;
        assert!(stats.zero_pages >= stack_pages, "{stats:?}");
        // The demo segments fit two materialized pages at most.
        assert!(stats.resident_pages <= 2, "{stats:?}");
        assert_eq!(stats.resident_bytes, stats.resident_pages * PAGE_SIZE as u64);
        assert_eq!(stats.total_pages, stats.zero_pages + stats.resident_pages);
    }

    #[test]
    fn clones_share_until_written() {
        let mut mem = demo_memory();
        let snapshot = mem.clone();
        // All pages are shared right after the clone.
        assert!(mem.delta(&snapshot).is_empty());
        // Writing the data region unshares exactly one 4 KiB page of it.
        mem.write_u64(0x2000, 0xDEAD_BEEF).unwrap();
        let delta = mem.delta(&snapshot);
        assert_eq!(delta.pages, 1);
        assert_eq!(delta.bytes, PAGE_SIZE as u64);
        // The snapshot still sees the pre-write value.
        assert_eq!(snapshot.read_u64(0x2000).unwrap(), 0xAAAA_AAAA);
        assert_eq!(mem.read_u64(0x2000).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn stack_write_dirties_one_page_not_the_region() {
        let mut mem = demo_memory();
        let snapshot = mem.clone();
        mem.write_u64(STACK_TOP - 8, 0xFEED).unwrap();
        let delta = mem.delta(&snapshot);
        assert_eq!(delta.pages, 1, "one page of the 1 MiB stack");
        assert_eq!(delta.bytes, PAGE_SIZE as u64);
    }

    #[test]
    fn poke_also_unshares() {
        let mut mem = demo_memory();
        let snapshot = mem.clone();
        assert!(mem.poke(0x1000, &[0x55]));
        assert_eq!(snapshot.peek(0x1000, 1).unwrap(), &[0x01]);
        assert_eq!(mem.peek(0x1000, 1).unwrap(), &[0x55]);
        assert_eq!(mem.delta(&snapshot).pages, 1);
    }

    #[test]
    fn poke_ignores_permissions() {
        let mut mem = demo_memory();
        assert!(mem.poke(0x1000, &[0xFF]));
        assert_eq!(mem.peek(0x1000, 1).unwrap(), &[0xFF]);
        // Out-of-bounds poke reports failure.
        assert!(!mem.poke(0x1001, &[0, 0]));
        assert!(!mem.poke(0x9999_0000, &[1]));
    }

    #[test]
    fn exec_dirty_tracks_code_overwrites_and_rewinds_with_clones() {
        let mut mem = demo_memory();
        assert!(!mem.exec_dirty_intersects(0x1000, 0x1002));
        assert_eq!(mem.exec_dirty_epoch(), 0);
        let clean = mem.clone();
        // Data writes don't touch the exec-dirty list.
        mem.write_u64(0x2000, 7).unwrap();
        assert_eq!(mem.exec_dirty_epoch(), 0);
        // A poke into the text region records the range.
        assert!(mem.poke(0x1001, &[0x55]));
        assert_eq!(mem.exec_dirty_epoch(), 1);
        assert!(mem.exec_dirty_intersects(0x1000, 0x1002));
        assert!(mem.exec_dirty_intersects(0x1001, 0x1002));
        assert!(!mem.exec_dirty_intersects(0x1002, 0x1010));
        // Pokes into data regions don't.
        assert!(mem.poke(0x2000, &[0xFF]));
        assert_eq!(mem.exec_dirty_epoch(), 1);
        // The clone taken before the poke is still clean — restoring a
        // snapshot rewinds the dirty list together with the bytes.
        assert!(!clean.exec_dirty_intersects(0x1000, 0x1002));
        // Failed pokes record nothing.
        assert!(!mem.poke(0x9999_0000, &[1]));
        assert_eq!(mem.exec_dirty_epoch(), 1);
    }

    #[test]
    fn exec_writes_coalesce_into_ranges_and_each_advances_the_epoch() {
        let exe = Executable {
            segments: vec![Segment {
                addr: 0x1000,
                data: vec![0x01; 64],
                mem_size: 64,
                perms: SegmentPerms { read: true, write: true, exec: true },
                section: SectionKind::Text,
            }],
            entry: 0x1000,
            symbols: vec![],
        };
        let mut mem = Memory::for_executable(&exe);
        // A loop storing into write+exec memory: one range, one epoch
        // step per store, whatever the value.
        for i in 0..10_000u64 {
            mem.write_u64(0x1010, i % 2).unwrap();
        }
        assert_eq!((mem.exec_dirty.len(), &mem.exec_dirty[0]), (1, &(0x1010..0x1018)));
        assert_eq!(mem.exec_dirty_epoch(), 10_000);
        // Touching and overlapping writes merge, separate ones stay in
        // address order, and a write bridging two ranges joins them.
        mem.write_u8(0x1018, 1).unwrap();
        assert!(mem.poke(0x1000, &[2, 2]));
        assert_eq!(mem.exec_dirty, [0x1000..0x1002, 0x1010..0x1019]);
        assert!(mem.exec_dirty_intersects(0x1001, 0x1002));
        assert!(!mem.exec_dirty_intersects(0x1002, 0x1010));
        assert!(mem.exec_dirty_intersects(0x1018, 0x1030));
        assert!(mem.poke(0x1002, &[3; 14]));
        assert_eq!((mem.exec_dirty.len(), &mem.exec_dirty[0]), (1, &(0x1000..0x1019)));
        assert_eq!(mem.exec_dirty_epoch(), 10_003);
    }

    #[test]
    fn reads_straddling_a_page_boundary_are_contiguous() {
        let mem = paged_memory();
        let base = 0x10000u64;
        for back in 1..8u64 {
            let addr = base + PAGE_SIZE as u64 - back;
            let word = mem.read_u64(addr).unwrap();
            let mut expected = [0u8; 8];
            for (i, b) in expected.iter_mut().enumerate() {
                let off = (PAGE_SIZE as u64 - back) as usize + i;
                *b = if off < 2 * PAGE_SIZE { (off % 251) as u8 } else { 0 };
            }
            assert_eq!(word, u64::from_le_bytes(expected), "straddle at -{back}");
        }
        // The full straddle window is readable from the last byte of a page.
        assert!(mem.peek(base + PAGE_SIZE as u64 - 1, STRADDLE_TAIL).is_some());
    }

    #[test]
    fn writes_straddling_a_page_boundary_stay_coherent() {
        let mut mem = paged_memory();
        let base = 0x10000u64;
        // Write across the page-1/page-2 boundary, then read it back both
        // through the straddling view and byte-by-byte.
        let addr = base + 2 * PAGE_SIZE as u64 - 3;
        mem.write_u64(addr, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_u64(addr).unwrap(), 0x1122_3344_5566_7788);
        for (i, expected) in 0x1122_3344_5566_7788u64.to_le_bytes().iter().enumerate() {
            assert_eq!(mem.read_u8(addr + i as u64).unwrap(), *expected, "byte {i}");
        }
        // The mirror means a later single-byte write at a page start is
        // visible through reads from the previous page's window.
        mem.write_u8(base + 2 * PAGE_SIZE as u64, 0x99).unwrap();
        assert_eq!(mem.read_u64(addr).unwrap() >> 24 & 0xFF, 0x99);
    }

    #[test]
    fn pokes_straddling_pages_match_writes() {
        let mut mem = paged_memory();
        let base = 0x10000u64;
        let addr = base + PAGE_SIZE as u64 - 2;
        assert!(mem.poke(addr, &[1, 2, 3, 4, 5]));
        assert_eq!(mem.peek(addr, 5).unwrap(), &[1, 2, 3, 4, 5]);
        // A poke crossing the region end fails without partial effects on
        // the out-of-range side.
        let end = base + (3 * PAGE_SIZE + 100) as u64;
        assert!(!mem.poke(end - 2, &[9, 9, 9]));
    }

    #[test]
    fn the_page_walk_offers_each_differing_data_word_once_in_address_order() {
        let golden = paged_memory();
        let mut mem = golden.clone();
        // Two bytes of one word, the first byte of the next page, and the
        // last word of that page.
        for addr in [0x1000a, 0x1000f, 0x11000, 0x11ff9] {
            let byte = golden.peek(addr, 1).unwrap()[0];
            assert!(mem.poke(addr, &[byte ^ 0x10]));
        }
        let walk = |skip: Range<u64>, refuse: u64| {
            let mut offered = vec![];
            let same = mem.same_contents_except(&golden, skip, |word| {
                offered.push(word);
                word != refuse
            });
            (same, offered)
        };
        assert_eq!(walk(0..0, 0), (true, vec![0x10008, 0x11000, 0x11ff8]));
        assert_eq!(walk(0..0, 0x11000), (false, vec![0x10008, 0x11000]), "stops at a refusal");
        assert_eq!(walk(0x10000..0x11001, 0), (true, vec![0x11ff8]), "skipped bytes");
        assert!(!mem.same_contents(&golden));
        // A differing code byte is never admitted.
        let code = demo_memory();
        let mut flipped = code.clone();
        assert!(flipped.poke(0x1000, &[0xff]));
        assert!(!flipped.same_contents_except(&code, 0..0, |_| true));
    }

    #[test]
    fn zero_writes_do_not_materialize_zero_pages() {
        let mut mem = paged_memory();
        let before = mem.stats();
        // Page 2 (mem_size tail) is a zero page; writing zeros keeps it so.
        mem.write_u64(0x10000 + 2 * PAGE_SIZE as u64 + 512, 0).unwrap();
        assert_eq!(mem.stats(), before);
        // Writing a nonzero value materializes exactly one page.
        mem.write_u64(0x10000 + 2 * PAGE_SIZE as u64 + 512, 7).unwrap();
        assert_eq!(mem.stats().resident_pages, before.resident_pages + 1);
    }

    #[test]
    fn a_segment_zero_extended_to_the_stack_holds_only_its_touched_pages() {
        // An 8-byte segment whose mem_size reaches the stack base, the
        // largest size the loader accepts.
        let (addr, stack_base) = (0x1000u64, STACK_TOP - STACK_SIZE);
        let exe = Executable {
            segments: vec![Segment {
                addr,
                data: vec![0xAB; 8],
                mem_size: stack_base - addr,
                perms: SegmentPerms::RW,
                section: SectionKind::Data,
            }],
            entry: addr,
            symbols: vec![],
        };
        let entries = |mem: &Memory| mem.regions.iter().map(|r| r.pages.len()).collect::<Vec<_>>();
        let mut mem = Memory::for_executable(&exe);
        // The segment holds its one data page and the stack none, in the
        // memory and in its clone.
        assert_eq!(entries(&mem), [1, 0]);
        assert_eq!(entries(&mem.clone()), [1, 0]);
        // The first stack write adds one entry.
        mem.write_u64(STACK_TOP - 8, 1).unwrap();
        assert_eq!(entries(&mem), [1, 1]);
        // A write at the segment's last byte grows only its window.
        let segment_pages = ((stack_base - addr) as usize).div_ceil(PAGE_SIZE);
        mem.write_u8(stack_base - 1, 7).unwrap();
        assert_eq!(entries(&mem), [segment_pages, 1]);
        assert_eq!(
            (mem.read_u8(stack_base - 1), mem.read_u64(addr)),
            (Ok(7), Ok(0xABAB_ABAB_ABAB_ABAB))
        );
        // Residency still counts every mapped page.
        let stats = mem.stats();
        assert_eq!(stats.total_pages, (segment_pages + STACK_SIZE as usize / PAGE_SIZE) as u64);
        assert_eq!((stats.resident_pages, stats.zero_pages), (3, stats.total_pages - 3));
    }
}
