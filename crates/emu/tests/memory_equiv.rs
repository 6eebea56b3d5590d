//! Property-based equivalence: the paged copy-on-write [`Memory`] must
//! behave bit-for-bit like a naive flat-`Vec<u8>` reference memory under
//! arbitrary interleavings of reads, writes, pokes, peeks, fetches,
//! snapshots (clones), and restores — including word accesses that
//! straddle page boundaries and permission faults.
//!
//! The reference is a direct port of the pre-paging implementation (one
//! `Vec<u8>` per region), so any divergence is a bug in the page table,
//! the straddle mirrors, or the copy-on-write sharing.

use proptest::prelude::*;
use rr_emu::{AccessKind, MemResult, Memory, PAGE_SIZE, STRADDLE_TAIL};
use rr_isa::{STACK_SIZE, STACK_TOP};
use rr_obj::{Executable, SectionKind, Segment, SegmentPerms};

const TEXT_BASE: u64 = 0x1000;
const TEXT_LEN: usize = PAGE_SIZE + 700; // spans two pages
const DATA_BASE: u64 = 0x20000;
const DATA_INIT: usize = 2 * PAGE_SIZE + 100; // initialized prefix
const DATA_LEN: usize = 3 * PAGE_SIZE + 123; // zero-extended tail

/// The shared test layout: a two-page RX text segment, a RW data segment
/// with a zero tail, and the standard stack.
fn layout_exe() -> Executable {
    let text: Vec<u8> = (0..TEXT_LEN).map(|i| (i * 7 % 253) as u8 | 1).collect();
    let data: Vec<u8> = (0..DATA_INIT).map(|i| (i * 13 % 251) as u8).collect();
    Executable {
        segments: vec![
            Segment {
                addr: TEXT_BASE,
                data: text,
                mem_size: TEXT_LEN as u64,
                perms: SegmentPerms::RX,
                section: SectionKind::Text,
            },
            Segment {
                addr: DATA_BASE,
                data,
                mem_size: DATA_LEN as u64,
                perms: SegmentPerms::RW,
                section: SectionKind::Data,
            },
        ],
        entry: TEXT_BASE,
        symbols: vec![],
    }
}

// ---------------------------------------------------------------------
// The flat reference memory: a port of the pre-paging implementation.
// ---------------------------------------------------------------------

#[derive(Clone, PartialEq)]
struct FlatRegion {
    start: u64,
    perms: SegmentPerms,
    bytes: Vec<u8>,
}

impl FlatRegion {
    fn end(&self) -> u64 {
        self.start + self.bytes.len() as u64
    }

    fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }
}

#[derive(Clone, PartialEq)]
struct FlatMemory {
    regions: Vec<FlatRegion>,
}

impl FlatMemory {
    fn for_executable(exe: &Executable) -> FlatMemory {
        let mut regions: Vec<FlatRegion> = exe
            .segments
            .iter()
            .map(|seg| {
                let mut bytes = seg.data.clone();
                bytes.resize(seg.mem_size as usize, 0);
                FlatRegion { start: seg.addr, perms: seg.perms, bytes }
            })
            .collect();
        regions.push(FlatRegion {
            start: STACK_TOP - STACK_SIZE,
            perms: SegmentPerms::RW,
            bytes: vec![0; STACK_SIZE as usize],
        });
        regions.sort_by_key(|r| r.start);
        FlatMemory { regions }
    }

    fn region(&self, addr: u64) -> Option<&FlatRegion> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    fn slice(&self, addr: u64, len: usize, access: AccessKind) -> MemResult<&[u8]> {
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
        region.bytes.get(offset..offset + len).ok_or((addr, access))
    }

    fn read_u64(&self, addr: u64) -> MemResult<u64> {
        let bytes = self.slice(addr, 8, AccessKind::Read)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("length checked")))
    }

    fn read_u8(&self, addr: u64) -> MemResult<u8> {
        Ok(self.slice(addr, 1, AccessKind::Read)?[0])
    }

    fn write_checked(&mut self, addr: u64, data: &[u8]) -> MemResult<()> {
        let region =
            self.regions.iter_mut().find(|r| r.contains(addr)).ok_or((addr, AccessKind::Write))?;
        if !region.perms.write {
            return Err((addr, AccessKind::Write));
        }
        let offset = (addr - region.start) as usize;
        let dst =
            region.bytes.get_mut(offset..offset + data.len()).ok_or((addr, AccessKind::Write))?;
        dst.copy_from_slice(data);
        Ok(())
    }

    fn fetch(&self, addr: u64, max_len: usize) -> MemResult<&[u8]> {
        let region = self.region(addr).ok_or((addr, AccessKind::Execute))?;
        if !region.perms.exec {
            return Err((addr, AccessKind::Execute));
        }
        let offset = (addr - region.start) as usize;
        let end = (offset + max_len).min(region.bytes.len());
        Ok(&region.bytes[offset..end])
    }

    fn poke(&mut self, addr: u64, data: &[u8]) -> bool {
        if let Some(region) = self.regions.iter_mut().find(|r| r.contains(addr)) {
            let offset = (addr - region.start) as usize;
            if offset + data.len() <= region.bytes.len() {
                region.bytes[offset..offset + data.len()].copy_from_slice(data);
                return true;
            }
        }
        false
    }

    fn peek(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let region = self.region(addr)?;
        let offset = (addr - region.start) as usize;
        region.bytes.get(offset..offset + len)
    }
}

// ---------------------------------------------------------------------
// Random operations, biased toward page boundaries and region edges.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    WriteU64 { addr: u64, value: u64 },
    WriteU8 { addr: u64, value: u8 },
    ReadU64 { addr: u64 },
    ReadU8 { addr: u64 },
    Fetch { addr: u64, max_len: usize },
    Poke { addr: u64, data: Vec<u8> },
    Peek { addr: u64, len: usize },
    Snapshot,
    Restore { pick: prop::sample::Index },
}

/// Addresses worth hammering: page boundaries, region starts/ends (both
/// sides), the zero tail, the stack top, and unmapped space.
fn address_pool() -> Vec<u64> {
    let mut pool = Vec::new();
    for base in [TEXT_BASE, DATA_BASE] {
        for page in 0..4u64 {
            let boundary = base + page * PAGE_SIZE as u64;
            for jitter in -9i64..=9 {
                pool.push(boundary.wrapping_add_signed(jitter));
            }
        }
    }
    for end in [TEXT_BASE + TEXT_LEN as u64, DATA_BASE + DATA_LEN as u64] {
        for jitter in -9i64..=2 {
            pool.push(end.wrapping_add_signed(jitter));
        }
    }
    pool.push(DATA_BASE + DATA_INIT as u64); // start of the zero tail
    for jitter in -16i64..=0 {
        pool.push(STACK_TOP.wrapping_add_signed(jitter));
    }
    pool.push(STACK_TOP - STACK_SIZE); // stack bottom
    pool.push(STACK_TOP - STACK_SIZE / 2 - 3); // deep, page-misaligned
    pool.extend([0u64, 0x500, 0x9999_0000]); // unmapped
    pool
}

fn addr_strategy() -> impl Strategy<Value = u64> {
    let pool = address_pool();
    (0..pool.len()).prop_map(move |i| pool[i])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr_strategy(), any::<u64>()).prop_map(|(addr, value)| Op::WriteU64 { addr, value }),
        (addr_strategy(), any::<u8>()).prop_map(|(addr, value)| Op::WriteU8 { addr, value }),
        addr_strategy().prop_map(|addr| Op::ReadU64 { addr }),
        addr_strategy().prop_map(|addr| Op::ReadU8 { addr }),
        (addr_strategy(), 1usize..16).prop_map(|(addr, max_len)| Op::Fetch { addr, max_len }),
        (addr_strategy(), proptest::collection::vec(any::<u8>(), 1..12))
            .prop_map(|(addr, data)| Op::Poke { addr, data }),
        (addr_strategy(), 0usize..=STRADDLE_TAIL).prop_map(|(addr, len)| Op::Peek { addr, len }),
        Just(Op::Snapshot),
        any::<prop::sample::Index>().prop_map(|pick| Op::Restore { pick }),
    ]
}

/// Applies one op to both memories, asserting identical observable
/// behaviour (values *and* error/None outcomes).
fn apply(
    op: &Op,
    paged: &mut Memory,
    flat: &mut FlatMemory,
    snapshots: &mut Vec<(Memory, FlatMemory)>,
) {
    match op {
        Op::WriteU64 { addr, value } => {
            assert_eq!(
                paged.write_u64(*addr, *value),
                flat.write_checked(*addr, &value.to_le_bytes()),
                "write_u64 {addr:#x}"
            );
        }
        Op::WriteU8 { addr, value } => {
            assert_eq!(
                paged.write_u8(*addr, *value),
                flat.write_checked(*addr, &[*value]),
                "write_u8 {addr:#x}"
            );
        }
        Op::ReadU64 { addr } => {
            assert_eq!(paged.read_u64(*addr), flat.read_u64(*addr), "read_u64 {addr:#x}");
        }
        Op::ReadU8 { addr } => {
            assert_eq!(paged.read_u8(*addr), flat.read_u8(*addr), "read_u8 {addr:#x}");
        }
        Op::Fetch { addr, max_len } => {
            assert_eq!(
                paged.fetch(*addr, *max_len).map(<[u8]>::to_vec),
                flat.fetch(*addr, *max_len).map(<[u8]>::to_vec),
                "fetch {addr:#x}+{max_len}"
            );
        }
        Op::Poke { addr, data } => {
            assert_eq!(paged.poke(*addr, data), flat.poke(*addr, data), "poke {addr:#x}");
        }
        Op::Peek { addr, len } => {
            assert_eq!(
                paged.peek(*addr, *len).map(<[u8]>::to_vec),
                flat.peek(*addr, *len).map(<[u8]>::to_vec),
                "peek {addr:#x}+{len}"
            );
        }
        Op::Snapshot => {
            snapshots.push((paged.clone(), flat.clone()));
        }
        Op::Restore { pick } => {
            if !snapshots.is_empty() {
                let (p, f) = &snapshots[pick.index(snapshots.len())];
                *paged = p.clone();
                *flat = f.clone();
            }
        }
    }
}

/// Full-content comparison in aligned 64-byte chunks (aligned chunks of
/// up to [`STRADDLE_TAIL`] bytes never cross a page buffer). The text
/// and data regions are scanned completely; the 1 MiB stack is scanned
/// in the windows the address pool can touch.
fn assert_same_contents(paged: &Memory, flat: &FlatMemory) {
    for (base, len) in [
        (TEXT_BASE, TEXT_LEN),
        (DATA_BASE, DATA_LEN),
        (STACK_TOP - 128, 128),
        (STACK_TOP - STACK_SIZE, 128),
        (STACK_TOP - STACK_SIZE / 2 - 64, 128),
    ] {
        let mut offset = 0usize;
        while offset < len {
            let chunk = STRADDLE_TAIL.min(len - offset);
            let addr = base + offset as u64;
            assert_eq!(
                paged.peek(addr, chunk).map(<[u8]>::to_vec),
                flat.peek(addr, chunk).map(<[u8]>::to_vec),
                "contents at {addr:#x}"
            );
            offset += chunk;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary op interleavings are observationally identical on the
    /// paged and the flat memory, and every retained snapshot pair stays
    /// identical too (copy-on-write never leaks later writes backward).
    /// Between any two of them, `same_contents` agrees with flat
    /// equality, and a clone has no page delta.
    #[test]
    fn paged_memory_matches_flat_reference(
        ops in proptest::collection::vec(op_strategy(), 0..160),
    ) {
        let exe = layout_exe();
        let mut paged = Memory::for_executable(&exe);
        let mut flat = FlatMemory::for_executable(&exe);
        let mut snapshots = Vec::new();
        for op in &ops {
            apply(op, &mut paged, &mut flat, &mut snapshots);
        }
        snapshots.push((paged, flat));
        for (p, f) in &snapshots {
            assert_same_contents(p, f);
            prop_assert!(p.delta(&p.clone()).is_empty());
            for (q, g) in &snapshots {
                prop_assert_eq!(p.same_contents(q), f == g);
            }
        }
    }

    /// Directed straddle hammering: words written across every page
    /// boundary of the data region read back identically through every
    /// overlapping access width.
    #[test]
    fn page_straddling_words_round_trip(
        value in any::<u64>(),
        back in 1u64..8,
        page in 0u64..3,
    ) {
        let exe = layout_exe();
        let mut paged = Memory::for_executable(&exe);
        let mut flat = FlatMemory::for_executable(&exe);
        let addr = DATA_BASE + (page + 1) * PAGE_SIZE as u64 - back;
        prop_assert_eq!(
            paged.write_u64(addr, value),
            flat.write_checked(addr, &value.to_le_bytes())
        );
        prop_assert_eq!(paged.read_u64(addr), flat.read_u64(addr));
        for i in 0..8u64 {
            prop_assert_eq!(paged.read_u8(addr + i), flat.read_u8(addr + i), "byte {}", i);
        }
    }
}
