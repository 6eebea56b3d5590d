//! Generic backward may-liveness over an arbitrary node graph.
//!
//! One fixpoint engine serves two clients: the CFG-level register+flag
//! liveness behind [`crate::Analysis`], and `rr-patch`'s listing-level
//! scratch-register search ([`solve_live_regs`]), which supplies its own
//! per-line transfer functions but no longer maintains its own solver.

use rr_isa::{flag_bits, RegSet};

/// Per-node transfer function: what the node reads (`gen`) and writes
/// (`kill`), over registers and packed NZCV flag bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveNode {
    /// Registers the node reads.
    pub reg_uses: RegSet,
    /// Registers the node writes.
    pub reg_defs: RegSet,
    /// Flag bits the node reads ([`flag_bits`] mask).
    pub flag_uses: u8,
    /// Flag bits the node writes.
    pub flag_defs: u8,
}

/// Registers and flag bits that *may* be read before being overwritten.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveSet {
    /// May-live registers.
    pub regs: RegSet,
    /// May-live flag bits ([`flag_bits`] mask).
    pub flags: u8,
}

impl LiveSet {
    /// Nothing live.
    pub const EMPTY: LiveSet = LiveSet { regs: RegSet::EMPTY, flags: 0 };
    /// Everything live — the conservative state at unknown edges.
    pub const ALL: LiveSet = LiveSet { regs: RegSet::ALL, flags: flag_bits::ALL };

    fn union(self, other: LiveSet) -> LiveSet {
        LiveSet { regs: self.regs.union(other.regs), flags: self.flags | other.flags }
    }
}

/// Liveness state at a node: before and after its transfer function.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveState {
    /// Live just before the node executes.
    pub live_in: LiveSet,
    /// Live just after (the union over successors' `live_in`).
    pub live_out: LiveSet,
}

/// Solves backward may-liveness to a fixed point.
///
/// `succs[i]` lists node `i`'s successors; `None` means control leaves
/// the analysed region at `i` (everything becomes live — the conservative
/// answer for unresolvable edges). Nodes with `Some(&[])` are terminal
/// with *no* implicit liveness; encode ABI exit conventions in the node's
/// `reg_uses`/`flag_uses` instead.
pub fn solve_liveness(nodes: &[LiveNode], succs: &[Option<Vec<usize>>]) -> Vec<LiveState> {
    assert_eq!(nodes.len(), succs.len(), "one successor list per node");
    let n = nodes.len();
    let mut state = vec![LiveState::default(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let out = match &succs[i] {
                None => LiveSet::ALL,
                Some(list) => {
                    let mut acc = LiveSet::EMPTY;
                    for &s in list {
                        acc = acc.union(state[s].live_in);
                    }
                    acc
                }
            };
            let node = nodes[i];
            let new_in = LiveSet {
                regs: node.reg_uses.union(out.regs.minus(node.reg_defs)),
                flags: node.flag_uses | (out.flags & !node.flag_defs),
            };
            if out != state[i].live_out || new_in != state[i].live_in {
                state[i] = LiveState { live_in: new_in, live_out: out };
                changed = true;
            }
        }
    }
    state
}

/// Register-only backward may-liveness: the shared engine behind
/// `rr-patch`'s listing-level [`Liveness`](../../rr_patch/index.html).
///
/// Returns the registers live *after* each node. `succs` follows the
/// [`solve_liveness`] convention (`None` = leaves the region, all live).
pub fn solve_live_regs(
    uses: &[RegSet],
    defs: &[RegSet],
    succs: &[Option<Vec<usize>>],
) -> Vec<RegSet> {
    assert_eq!(uses.len(), defs.len(), "one (uses, defs) pair per node");
    let nodes: Vec<LiveNode> = uses
        .iter()
        .zip(defs)
        .map(|(&reg_uses, &reg_defs)| LiveNode { reg_uses, reg_defs, ..LiveNode::default() })
        .collect();
    solve_liveness(&nodes, succs).into_iter().map(|s| s.live_out.regs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_isa::Reg;

    fn node(uses: &[Reg], defs: &[Reg]) -> LiveNode {
        LiveNode {
            reg_uses: uses.iter().copied().collect(),
            reg_defs: defs.iter().copied().collect(),
            ..LiveNode::default()
        }
    }

    #[test]
    fn straight_line_kill_ends_liveness() {
        // 0: def r1   1: def r1 (kills)   2: use r1, terminal
        let nodes = vec![node(&[], &[Reg::R1]), node(&[], &[Reg::R1]), node(&[Reg::R1], &[])];
        let succs = vec![Some(vec![1]), Some(vec![2]), Some(vec![])];
        let state = solve_liveness(&nodes, &succs);
        assert!(!state[0].live_out.regs.contains(Reg::R1), "killed at node 1 before any use");
        assert!(state[1].live_out.regs.contains(Reg::R1));
        assert!(state[2].live_in.regs.contains(Reg::R1));
        assert!(!state[2].live_out.regs.contains(Reg::R1), "terminal node has empty out");
    }

    #[test]
    fn loops_reach_a_fixed_point() {
        // 0: def r9   1: use r9   2: branch back to 1 or exit to 3   3: terminal
        let nodes =
            vec![node(&[], &[Reg::R9]), node(&[Reg::R9], &[]), node(&[], &[]), node(&[], &[])];
        let succs = vec![Some(vec![1]), Some(vec![2]), Some(vec![1, 3]), Some(vec![])];
        let state = solve_liveness(&nodes, &succs);
        assert!(state[0].live_out.regs.contains(Reg::R9), "live around the loop");
        assert!(state[2].live_out.regs.contains(Reg::R9));
    }

    #[test]
    fn unknown_edges_make_everything_live() {
        let nodes = vec![node(&[], &[Reg::R1])];
        let state = solve_liveness(&nodes, &[None]);
        assert_eq!(state[0].live_out, LiveSet::ALL);
        assert!(!state[0].live_in.regs.contains(Reg::R1), "the def still kills inbound");
        assert_eq!(state[0].live_in.flags, flag_bits::ALL);
    }

    #[test]
    fn flag_bits_track_independently() {
        // 0: cmp (defines all flags)  1: jcc reading Z only  2: terminal
        let nodes = vec![
            LiveNode { flag_defs: flag_bits::ALL, ..LiveNode::default() },
            LiveNode { flag_uses: flag_bits::Z, ..LiveNode::default() },
            LiveNode::default(),
        ];
        let succs = vec![Some(vec![1]), Some(vec![2]), Some(vec![])];
        let state = solve_liveness(&nodes, &succs);
        assert_eq!(state[0].live_out.flags, flag_bits::Z, "only Z is consumed");
        assert_eq!(state[0].live_in.flags, 0, "the cmp kills all four bits");
    }

    #[test]
    fn register_only_wrapper_matches() {
        let uses = vec![RegSet::EMPTY, RegSet::singleton(Reg::R2)];
        let defs = vec![RegSet::singleton(Reg::R2), RegSet::EMPTY];
        let succs = vec![Some(vec![1]), Some(vec![])];
        let after = solve_live_regs(&uses, &defs, &succs);
        assert!(after[0].contains(Reg::R2));
        assert!(!after[1].contains(Reg::R2));
    }
}
