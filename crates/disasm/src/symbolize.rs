//! Symbolization: turning concrete addresses back into names.
//!
//! This is the step the paper's §III-C compares rewriters by. After
//! linking, an immediate like `0x2008` is just a number — but if it is
//! *used as an address*, patched code that shifts the data section will
//! silently break unless the immediate is replaced by a label. Conversely,
//! symbolizing a plain constant that merely *looks* like an address
//! corrupts program semantics. UROBOROS's naïve range heuristic produces
//! both false positives and false negatives; Ddisasm refines
//! classification with register-value and data-access analyses.

use crate::discover::{CodeMap, DisasmError};
use crate::listing::{DataLine, DataSection, Line, Listing, SymInstr};
use rr_isa::{Instr, Reg};
use rr_obj::{Executable, SectionKind, SymbolKind, ENTRY_SYMBOL};
use std::collections::{BTreeMap, BTreeSet};

/// How aggressively immediates are classified as addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolizationPolicy {
    /// UROBOROS-style: any immediate that falls inside a mapped section
    /// becomes a label (code targets must still be instruction starts).
    /// Prone to false positives on constants that happen to look like
    /// addresses.
    Naive,
    /// Ddisasm-style refinement: additionally require *data-access
    /// evidence* — the loaded register must plausibly be used as an
    /// address (memory base, indirect jump/call target, or escaping the
    /// local block). Immediates whose register is overwritten before any
    /// use are left as plain constants.
    DataAccessRefined,
}

/// Builds the reassembleable [`Listing`] for `exe` under `policy`.
///
/// # Errors
///
/// Returns [`DisasmError::MisalignedTarget`] if a previously discovered
/// control-flow target has no label position (cannot happen for code maps
/// produced by [`crate::discover`]; kept as a defensive check).
pub fn symbolize(
    exe: &Executable,
    code: &CodeMap,
    policy: SymbolizationPolicy,
) -> Result<Listing, DisasmError> {
    let mut state = Symbolizer::new(exe, code, policy);
    state.assign_code_labels();
    state.scan_immediates();
    state.scan_data_pointers();
    state.build_listing()
}

struct Symbolizer<'a> {
    exe: &'a Executable,
    code: &'a CodeMap,
    policy: SymbolizationPolicy,
    /// Code address → label names (first is canonical).
    code_labels: BTreeMap<u64, Vec<(String, bool)>>,
    /// Referenced data addresses needing labels.
    data_refs: BTreeSet<u64>,
    /// Classification result per MovRI site: address → target address.
    mov_syms: BTreeMap<u64, u64>,
    /// Data-section word offsets classified as pointers: addr → target.
    quad_syms: BTreeMap<u64, u64>,
}

impl<'a> Symbolizer<'a> {
    fn new(exe: &'a Executable, code: &'a CodeMap, policy: SymbolizationPolicy) -> Self {
        Symbolizer {
            exe,
            code,
            policy,
            code_labels: BTreeMap::new(),
            data_refs: BTreeSet::new(),
            mov_syms: BTreeMap::new(),
            quad_syms: BTreeMap::new(),
        }
    }

    /// A section's range if `addr` belongs to one.
    fn section_of(&self, addr: u64) -> Option<SectionKind> {
        SectionKind::ALL
            .into_iter()
            .find(|&k| self.exe.section_range(k).is_some_and(|r| r.contains(&addr)))
    }

    fn symbol_name_at(&self, addr: u64, kinds: &[SymbolKind]) -> Option<String> {
        self.exe
            .symbols
            .iter()
            .find(|s| s.addr == addr && kinds.contains(&s.kind))
            .map(|s| s.name.clone())
    }

    fn assign_code_labels(&mut self) {
        for &entry in &self.code.function_entries {
            let name = self
                .symbol_name_at(entry, &[SymbolKind::Func, SymbolKind::Label])
                .unwrap_or_else(|| format!("f_{entry:x}"));
            self.code_labels.entry(entry).or_default().push((name, false));
        }
        for &target in &self.code.branch_targets {
            if self.code_labels.contains_key(&target) {
                continue;
            }
            let name = self
                .symbol_name_at(target, &[SymbolKind::Label, SymbolKind::Func])
                .unwrap_or_else(|| format!(".L_{target:x}"));
            self.code_labels.entry(target).or_default().push((name, false));
        }
        // The entry point must carry the (global) entry symbol for relink.
        let entry = self.exe.entry;
        let labels = self.code_labels.entry(entry).or_default();
        if let Some(existing) = labels.iter_mut().find(|(n, _)| n == ENTRY_SYMBOL) {
            existing.1 = true;
        } else {
            labels.push((ENTRY_SYMBOL.to_owned(), true));
        }
    }

    /// Classifies `MovRI` immediates (and register-indirect targets).
    fn scan_immediates(&mut self) {
        let sites: Vec<(u64, Reg, u64)> = self
            .code
            .instrs
            .iter()
            .filter_map(|(&addr, &(insn, _))| match insn {
                Instr::MovRI { rd, imm } => Some((addr, rd, imm)),
                _ => None,
            })
            .collect();
        for (addr, rd, imm) in sites {
            let Some(section) = self.section_of(imm) else { continue };
            if section == SectionKind::Text && !self.code.is_instr_start(imm) {
                continue; // cannot label the middle of an instruction
            }
            if self.policy == SymbolizationPolicy::DataAccessRefined
                && !self.has_address_evidence(addr, rd)
            {
                continue;
            }
            self.mov_syms.insert(addr, imm);
            if section == SectionKind::Text {
                let name = self
                    .symbol_name_at(imm, &[SymbolKind::Func, SymbolKind::Label])
                    .unwrap_or_else(|| format!("f_{imm:x}"));
                self.code_labels.entry(imm).or_default().push((name, false));
            } else {
                self.data_refs.insert(imm);
            }
        }
    }

    /// Forward def-use scan from the instruction after `addr`: does `rd`
    /// plausibly hold an address? Approximates Ddisasm's data-access
    /// pattern (DAP) analysis.
    ///
    /// Returns `false` only when `rd` is provably overwritten before any
    /// use; any address-like use, escape, or end-of-scan is evidence.
    fn has_address_evidence(&self, addr: u64, rd: Reg) -> bool {
        let mut cursor = addr;
        for _ in 0..64 {
            let Some(&(insn, len)) = self.code.instrs.get(&cursor) else { return true };
            if cursor != addr {
                if uses_as_address(&insn, rd) {
                    return true;
                }
                if escapes(&insn, rd) {
                    return true;
                }
                if insn.is_block_terminator()
                    || matches!(insn, Instr::Call { .. } | Instr::CallR { .. })
                {
                    // Value is live across control flow we do not track.
                    return true;
                }
                if overwrites(&insn, rd) {
                    return false;
                }
            }
            cursor += len as u64;
        }
        true
    }

    /// Scans data sections for pointer-sized words whose value lands in a
    /// mapped section (the classic UROBOROS data heuristic; code targets
    /// additionally require an instruction-start hit).
    fn scan_data_pointers(&mut self) {
        for kind in [SectionKind::Rodata, SectionKind::Data] {
            let Some(seg) = self.exe.segments.iter().find(|s| s.section == kind) else { continue };
            // Only the initialized bytes can hold a pointer: past them the
            // section is zero-filled, however large its mapped size.
            for (i, word) in seg.data.chunks_exact(8).enumerate() {
                let addr = seg.addr + 8 * i as u64;
                let value = u64::from_le_bytes(word.try_into().expect("len 8"));
                if let Some(target_section) = self.section_of(value) {
                    let ok = if target_section == SectionKind::Text {
                        self.code.is_instr_start(value)
                    } else {
                        true
                    };
                    if ok && value != 0 {
                        self.quad_syms.insert(addr, value);
                        if target_section == SectionKind::Text {
                            let name = self
                                .symbol_name_at(value, &[SymbolKind::Func, SymbolKind::Label])
                                .unwrap_or_else(|| format!("f_{value:x}"));
                            self.code_labels.entry(value).or_default().push((name, false));
                        } else {
                            self.data_refs.insert(value);
                        }
                    }
                }
            }
        }
    }

    fn data_label_for(&self, addr: u64) -> String {
        self.exe
            .symbols
            .iter()
            .find(|s| s.addr == addr && s.kind == SymbolKind::Object)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| format!("d_{addr:x}"))
    }

    fn build_listing(mut self) -> Result<Listing, DisasmError> {
        // Deduplicate label names per address.
        for labels in self.code_labels.values_mut() {
            let mut seen = BTreeSet::new();
            labels.retain(|(name, _)| seen.insert(name.clone()));
        }

        let mut listing = Listing::new();

        // Text section.
        let text_range = self.exe.text_range();
        let mut gap_iter = self.code.gaps.iter().peekable();
        let mut addr = text_range.start;
        while addr < text_range.end {
            if let Some(labels) = self.code_labels.get(&addr) {
                for (name, global) in labels {
                    listing.text.push(Line::Label { name: name.clone(), global: *global });
                }
            }
            if let Some(&&(gap_start, gap_end)) = gap_iter.peek() {
                if gap_start == addr {
                    gap_iter.next();
                    let bytes = self
                        .exe
                        .read_bytes(gap_start, (gap_end - gap_start) as usize)
                        .unwrap_or_default()
                        .to_vec();
                    listing.text.push(Line::RawBytes { orig_addr: gap_start, bytes });
                    addr = gap_end;
                    continue;
                }
            }
            let Some(&(insn, len)) = self.code.instrs.get(&addr) else {
                return Err(DisasmError::MisalignedTarget { addr });
            };
            let sym_insn = self.symbolic_instr(addr, insn, len);
            listing.text.push(Line::Code { orig_addr: Some(addr), insn: sym_insn });
            addr += len as u64;
        }

        // Data sections.
        for kind in [SectionKind::Rodata, SectionKind::Data, SectionKind::Bss] {
            let Some(range) = self.exe.section_range(kind) else { continue };
            let section = self.build_data_section(kind, range.clone());
            listing.data.push(section);
        }

        Ok(listing)
    }

    fn symbolic_instr(&self, addr: u64, insn: Instr, len: usize) -> SymInstr {
        if let Some(rel) = insn.rel_target() {
            let target = (addr + len as u64).wrapping_add(rel as i64 as u64);
            let label = self.code_labels[&target][0].0.clone();
            return match insn {
                Instr::Jmp { .. } => SymInstr::Branch { cond: None, is_call: false, target: label },
                Instr::Jcc { cc, .. } => {
                    SymInstr::Branch { cond: Some(cc), is_call: false, target: label }
                }
                Instr::Call { .. } => SymInstr::Branch { cond: None, is_call: true, target: label },
                _ => unreachable!("rel_target implies a direct branch"),
            };
        }
        if let Instr::MovRI { rd, .. } = insn {
            if let Some(&target) = self.mov_syms.get(&addr) {
                let sym = if self.section_of(target) == Some(SectionKind::Text) {
                    self.code_labels[&target][0].0.clone()
                } else {
                    self.data_label_for(target)
                };
                return SymInstr::MovSym { rd, sym, addend: 0 };
            }
        }
        SymInstr::Plain(insn)
    }

    fn build_data_section(&self, kind: SectionKind, range: std::ops::Range<u64>) -> DataSection {
        // Label positions: retained Object symbols plus referenced targets.
        let mut label_addrs: BTreeSet<u64> = self
            .exe
            .symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Object && range.contains(&s.addr))
            .map(|s| s.addr)
            .collect();
        label_addrs.extend(self.data_refs.iter().copied().filter(|a| range.contains(a)));

        let mut lines = Vec::new();
        let seg = self
            .exe
            .segments
            .iter()
            .find(|s| s.section == kind)
            .expect("section range implies segment");
        let initialized_end = seg.addr + seg.data.len() as u64;

        let mut addr = range.start;
        let mut pending_bytes: Vec<u8> = Vec::new();
        let flush = |pending: &mut Vec<u8>, lines: &mut Vec<DataLine>| {
            if !pending.is_empty() {
                lines.push(DataLine::Bytes(std::mem::take(pending)));
            }
        };
        while addr < range.end {
            if label_addrs.contains(&addr) {
                flush(&mut pending_bytes, &mut lines);
                lines.push(DataLine::Label { name: self.data_label_for(addr), global: false });
            }
            if addr >= initialized_end {
                // Zero tail (all of .bss, or trailing zeroes): one .space up
                // to the next label or section end.
                flush(&mut pending_bytes, &mut lines);
                let next_label = label_addrs.range(addr + 1..).next().copied().unwrap_or(range.end);
                lines.push(DataLine::Space(next_label - addr));
                addr = next_label;
                continue;
            }
            // Symbolized word?
            if self.quad_syms.contains_key(&addr)
                && addr + 8 <= initialized_end
                && label_addrs.range(addr + 1..addr + 8).next().is_none()
            {
                flush(&mut pending_bytes, &mut lines);
                let target = self.quad_syms[&addr];
                let sym = if self.section_of(target) == Some(SectionKind::Text) {
                    self.code_labels[&target][0].0.clone()
                } else {
                    self.data_label_for(target)
                };
                lines.push(DataLine::QuadSym { sym, addend: 0 });
                addr += 8;
                continue;
            }
            let byte = self.exe.read_bytes(addr, 1).map(|b| b[0]).unwrap_or(0);
            pending_bytes.push(byte);
            addr += 1;
        }
        flush(&mut pending_bytes, &mut lines);
        DataSection { kind, lines }
    }
}

/// Whether the instruction writes `reg` without reading it.
fn overwrites(insn: &Instr, reg: Reg) -> bool {
    let ops = insn.operands();
    ops.defs.minus(ops.reads()).contains(reg)
}

/// Whether the instruction reads `reg` as a memory base, `lea` base or
/// indirect target.
fn uses_as_address(insn: &Instr, reg: Reg) -> bool {
    insn.operands().address == Some(reg)
}

/// Whether the value in `reg` escapes the local analysis (copied, stored,
/// pushed, or used as an ALU operand that may form an address).
fn escapes(insn: &Instr, reg: Reg) -> bool {
    match *insn {
        Instr::MovRR { rs, .. } => rs == reg,
        Instr::Store { rs, .. } | Instr::StoreB { rs, .. } | Instr::Push { rs } => rs == reg,
        Instr::AluRR { rd, rs, .. } => rd == reg || rs == reg,
        Instr::AluRI { rd, .. } => rd == reg,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::discover;
    use rr_asm::assemble_and_link;

    fn listing_for(src: &str, policy: SymbolizationPolicy) -> Listing {
        let exe = assemble_and_link(src).unwrap();
        let code = discover(&exe).unwrap();
        symbolize(&exe, &code, policy).unwrap()
    }

    #[test]
    fn branch_targets_become_labels() {
        let listing = listing_for(
            "    .global _start\n_start:\n    jmp .end\n.end:\n    svc 0\n",
            SymbolizationPolicy::DataAccessRefined,
        );
        let source = listing.to_source();
        assert!(source.contains("jmp .end") || source.contains("jmp .L_"), "{source}");
    }

    #[test]
    fn data_addresses_are_symbolized_when_accessed() {
        let listing = listing_for(
            "    .global _start\n\
             _start:\n\
                 mov r2, value\n\
                 load r1, [r2]\n\
                 svc 0\n\
                 .data\n\
             value:\n\
                 .quad 7\n",
            SymbolizationPolicy::DataAccessRefined,
        );
        let source = listing.to_source();
        assert!(source.contains("mov r2, value"), "{source}");
    }

    #[test]
    fn refined_policy_skips_dead_constants() {
        // r2 is overwritten before use → the first mov keeps its constant
        // under the refined policy but is symbolized naively.
        let src = "    .global _start\n\
             _start:\n\
                 mov r2, value\n\
                 mov r2, 1\n\
                 mov r1, 0\n\
                 svc 0\n\
                 .data\n\
             value:\n\
                 .quad 7\n";
        let refined = listing_for(src, SymbolizationPolicy::DataAccessRefined);
        let naive = listing_for(src, SymbolizationPolicy::Naive);
        let refined_src = refined.to_source();
        let naive_src = naive.to_source();
        assert!(!refined_src.contains("mov r2, value"), "{refined_src}");
        assert!(naive_src.contains("mov r2, value"), "{naive_src}");
    }

    #[test]
    fn code_pointers_are_symbolized() {
        let listing = listing_for(
            "    .global _start\n\
             _start:\n\
                 mov r6, helper\n\
                 callr r6\n\
                 svc 0\n\
             helper:\n\
                 mov r1, 0\n\
                 ret\n",
            SymbolizationPolicy::DataAccessRefined,
        );
        let source = listing.to_source();
        assert!(source.contains("mov r6, helper"), "{source}");
    }

    #[test]
    fn data_to_data_pointers_are_recovered() {
        let listing = listing_for(
            "    .global _start\n\
             _start:\n\
                 mov r2, table\n\
                 load r3, [r2]\n\
                 load r1, [r3]\n\
                 svc 0\n\
                 .data\n\
             table:\n\
                 .quad cell\n\
             cell:\n\
                 .quad 1\n",
            SymbolizationPolicy::DataAccessRefined,
        );
        let source = listing.to_source();
        assert!(source.contains(".quad cell"), "{source}");
    }

    #[test]
    fn entry_label_is_always_start() {
        // Even for a stripped binary the listing defines a global _start.
        let exe = assemble_and_link("    .global _start\n_start:\n    svc 0\n").unwrap().stripped();
        let code = discover(&exe).unwrap();
        let listing = symbolize(&exe, &code, SymbolizationPolicy::DataAccessRefined).unwrap();
        let source = listing.to_source();
        assert!(source.contains(".global _start"), "{source}");
        rr_asm::assemble_and_link(&source).expect("stripped round trip");
    }

    #[test]
    fn bss_is_reconstructed_as_space() {
        let listing = listing_for(
            "    .global _start\n\
             _start:\n\
                 mov r2, buf\n\
                 store [r2], r1\n\
                 svc 0\n\
                 .bss\n\
             buf:\n\
                 .space 32\n",
            SymbolizationPolicy::DataAccessRefined,
        );
        let bss =
            listing.data.iter().find(|s| s.kind == SectionKind::Bss).expect("bss section present");
        assert!(bss.lines.iter().any(|l| matches!(l, DataLine::Space(32))), "{bss:?}");
    }
}
