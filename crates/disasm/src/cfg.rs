//! Structural recovery: basic blocks, CFG edges, function partitioning.

use crate::discover::CodeMap;
use rr_isa::{Instr, InstrKind};
use rr_obj::Executable;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A maximal straight-line run of instructions with a single entry and a
/// single exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub addr: u64,
    /// Instructions as `(address, instruction)` pairs.
    pub instrs: Vec<(u64, Instr)>,
    /// Addresses of successor blocks within the same function.
    pub succs: Vec<u64>,
}

impl BasicBlock {
    /// Address and instruction of the terminator (last instruction).
    ///
    /// # Panics
    ///
    /// Panics if the block is empty (never produced by
    /// [`build_functions`]).
    pub fn terminator(&self) -> (u64, Instr) {
        *self.instrs.last().expect("basic blocks are non-empty")
    }
}

/// A recovered function: an entry block plus every block reachable from it
/// through non-call edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Entry address.
    pub entry: u64,
    /// Name (retained symbol if present, synthetic otherwise).
    pub name: String,
    /// Blocks sorted by address; the first is the entry block.
    pub blocks: Vec<BasicBlock>,
}

impl Function {
    /// Total number of instructions.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// Computes block leaders: function entries, branch targets, and
/// fall-throughs of terminators.
fn leaders(code: &CodeMap) -> BTreeSet<u64> {
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    leaders.extend(code.function_entries.iter().copied());
    leaders.extend(code.branch_targets.iter().copied());
    for (&addr, &(insn, len)) in &code.instrs {
        if insn.is_block_terminator() || matches!(insn.kind(), InstrKind::CondJump) {
            let next = addr + len as u64;
            if code.is_instr_start(next) {
                leaders.insert(next);
            }
        }
    }
    leaders
}

/// Partitions the recovered code into [`Function`]s with intra-function
/// CFG edges.
///
/// Edges: fall-through (non-terminators and untaken conditional jumps),
/// direct jump targets. Calls produce a fall-through edge only (the callee
/// is a separate function); `ret`, `halt`, `jmpr`, and `svc 0` end a block
/// with no successors (indirect jump targets are unknown statically).
pub fn build_functions(exe: &Executable, code: &CodeMap) -> Vec<Function> {
    let leaders = leaders(code);

    // Build all blocks, keyed by start address.
    let mut blocks: BTreeMap<u64, BasicBlock> = BTreeMap::new();
    let mut current: Option<BasicBlock> = None;
    let mut prev_end: Option<u64> = None;
    for (&addr, &(insn, len)) in &code.instrs {
        let discontinuous = prev_end != Some(addr);
        if leaders.contains(&addr) || discontinuous {
            if let Some(block) = current.take() {
                blocks.insert(block.addr, block);
            }
            current = Some(BasicBlock { addr, instrs: Vec::new(), succs: Vec::new() });
        }
        let block = current.as_mut().expect("block opened above");
        block.instrs.push((addr, insn));
        let next = addr + len as u64;
        prev_end = Some(next);
        if insn.is_block_terminator() {
            if let Some(block) = current.take() {
                blocks.insert(block.addr, block);
            }
        }
    }
    if let Some(block) = current.take() {
        blocks.insert(block.addr, block);
    }

    // Successor edges.
    let addrs: Vec<u64> = blocks.keys().copied().collect();
    for &addr in &addrs {
        let block = &blocks[&addr];
        let (term_addr, term) = block.terminator();
        let next = term_addr + code.instr_at(term_addr).map(|&(_, len)| len as u64).unwrap_or(0);
        let mut succs = Vec::new();
        match term.kind() {
            InstrKind::Jump => {
                if let Some(target) = code.direct_target(term_addr) {
                    succs.push(target);
                }
            }
            InstrKind::CondJump => {
                if let Some(target) = code.direct_target(term_addr) {
                    succs.push(target);
                }
                if code.is_instr_start(next) {
                    succs.push(next);
                }
            }
            InstrKind::Ret | InstrKind::Halt | InstrKind::IndirectJump => {}
            // Block ended because the next address is a leader. Fall-through
            // into a *function entry* is not an edge (functions are hard
            // boundaries; the bytes before an entry typically end in an
            // `svc 0` exit or a `ret`).
            _ => {
                if code.is_instr_start(next) && !code.function_entries.contains(&next) {
                    succs.push(next);
                }
            }
        }
        blocks.get_mut(&addr).expect("exists").succs = succs;
    }

    // Partition into functions by reachability from entries.
    let mut functions = Vec::new();
    let mut claimed: BTreeSet<u64> = BTreeSet::new();
    for &entry in &code.function_entries {
        if !blocks.contains_key(&entry) {
            continue;
        }
        let mut members: BTreeSet<u64> = BTreeSet::new();
        let mut queue = VecDeque::from([entry]);
        while let Some(addr) = queue.pop_front() {
            if !members.insert(addr) {
                continue;
            }
            if let Some(block) = blocks.get(&addr) {
                for &succ in &block.succs {
                    // Do not cross into another function's entry.
                    if !code.function_entries.contains(&succ) {
                        queue.push_back(succ);
                    }
                }
            }
        }
        claimed.extend(members.iter().copied());
        let name = exe
            .symbols
            .iter()
            .find(|s| s.addr == entry && s.kind == rr_obj::SymbolKind::Func)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| format!("f_{entry:x}"));
        let function_blocks = members.iter().filter_map(|addr| blocks.get(addr)).cloned().collect();
        functions.push(Function { entry, name, blocks: function_blocks });
    }
    functions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::discover;
    use rr_asm::assemble_and_link;

    fn analyze(src: &str) -> (Executable, Vec<Function>) {
        let exe = assemble_and_link(src).unwrap();
        let code = discover(&exe).unwrap();
        let functions = build_functions(&exe, &code);
        (exe, functions)
    }

    #[test]
    fn single_block_function() {
        let (_, funcs) = analyze("    .global _start\n_start:\n    mov r1, 0\n    svc 0\n");
        assert_eq!(funcs.len(), 1);
        assert_eq!(funcs[0].name, "_start");
        assert_eq!(funcs[0].blocks.len(), 1);
        assert!(funcs[0].blocks[0].succs.is_empty() || funcs[0].blocks[0].succs.len() <= 1);
    }

    #[test]
    fn diamond_cfg() {
        let (exe, funcs) = analyze(
            "    .global _start\n\
             _start:\n\
                 cmp r1, 0\n\
                 je .then\n\
             .else:\n\
                 mov r2, 1\n\
                 jmp .join\n\
             .then:\n\
                 mov r2, 2\n\
             .join:\n\
                 mov r1, 0\n\
                 svc 0\n",
        );
        assert_eq!(funcs.len(), 1);
        let f = &funcs[0];
        assert_eq!(f.blocks.len(), 4, "{f:#?}");
        // Entry block has two successors (then + fallthrough else).
        let entry = &f.blocks[0];
        assert_eq!(entry.addr, exe.entry);
        assert_eq!(entry.succs.len(), 2);
        // Both branches converge on .join.
        let join_addr = f.blocks.iter().map(|b| b.addr).max().unwrap();
        let preds = f.blocks.iter().filter(|b| b.succs.contains(&join_addr)).count();
        assert_eq!(preds, 2);
    }

    #[test]
    fn functions_are_partitioned_at_call_boundaries() {
        let (exe, funcs) = analyze(
            "    .global _start\n\
             _start:\n\
                 call helper\n\
                 mov r1, 0\n\
                 svc 0\n\
             helper:\n\
                 nop\n\
                 ret\n",
        );
        assert_eq!(funcs.len(), 2);
        let start = funcs.iter().find(|f| f.entry == exe.entry).unwrap();
        let helper = funcs.iter().find(|f| f.name == "helper").unwrap();
        // The call block falls through to the post-call block, but no edge
        // crosses into helper.
        for block in &start.blocks {
            assert!(!block.succs.contains(&helper.entry));
        }
        assert_eq!(helper.instr_count(), 2);
    }

    #[test]
    fn loop_back_edge() {
        let (_, funcs) = analyze(
            "    .global _start\n\
             _start:\n\
                 mov r1, 10\n\
             .loop:\n\
                 sub r1, 1\n\
                 cmp r1, 0\n\
                 jne .loop\n\
                 svc 0\n",
        );
        let f = &funcs[0];
        // Find the loop block and check it points at itself.
        let loop_block =
            f.blocks.iter().find(|b| b.succs.contains(&b.addr)).expect("loop block with self edge");
        assert_eq!(loop_block.succs.len(), 2);
    }

    #[test]
    fn ret_blocks_have_no_successors() {
        let (_, funcs) = analyze(
            "    .global _start\n\
             _start:\n\
                 call f\n\
                 svc 0\n\
             f:\n\
                 ret\n",
        );
        let f = funcs.iter().find(|f| f.name == "f").unwrap();
        assert!(f.blocks[0].succs.is_empty());
    }
}
