//! Fault models: enumerating concrete faults at a trace site, and the one
//! plan walk that expands them into (multi-fault) injection plans.

use crate::analysis::{fault_verdict, Analysis, StaticVerdict};
use crate::site::{Fault, FaultEffect, FaultPlan, FaultSite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rr_isa::Reg;
use std::collections::{BTreeSet, VecDeque};

/// A fault model enumerates the concrete faults an attacker with a given
/// physical capability could inject at one execution-trace site.
///
/// Implementations must be [`Sync`]: campaigns evaluate faults from
/// multiple threads.
pub trait FaultModel: Sync {
    /// The model's name, used in reports (e.g. `"instruction-skip"`).
    fn name(&self) -> &'static str;

    /// All faults this model can inject at `site`.
    fn faults_at(&self, site: &FaultSite) -> Vec<Fault>;
}

/// The paper's **instruction skip** model: each executed instruction can be
/// skipped exactly once.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstructionSkip;

impl FaultModel for InstructionSkip {
    fn name(&self) -> &'static str {
        "instruction-skip"
    }

    fn faults_at(&self, site: &FaultSite) -> Vec<Fault> {
        vec![Fault { step: site.step, pc: site.pc, effect: FaultEffect::SkipInstruction }]
    }
}

/// The paper's **single bit flip** model: one bit anywhere in the encoded
/// bytes of the instruction about to execute is flipped (persistently, as a
/// glitched instruction fetch latched into the pipeline/cache would be).
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleBitFlip;

impl FaultModel for SingleBitFlip {
    fn name(&self) -> &'static str {
        "single-bit-flip"
    }

    fn faults_at(&self, site: &FaultSite) -> Vec<Fault> {
        let mut faults = Vec::with_capacity(site.len * 8);
        for byte in 0..site.len {
            for bit in 0..8u8 {
                faults.push(Fault {
                    step: site.step,
                    pc: site.pc,
                    effect: FaultEffect::FlipInstructionBit { byte, bit },
                });
            }
        }
        faults
    }
}

/// Transient single-bit corruption of architectural registers just before
/// an instruction executes. An *extension* model (not in the paper's
/// evaluation); restrict `regs`/`bits` to keep campaigns tractable.
#[derive(Debug, Clone)]
pub struct RegisterBitFlip {
    /// Registers to target.
    pub regs: Vec<Reg>,
    /// Bit positions to flip (0–63).
    pub bits: Vec<u8>,
}

impl RegisterBitFlip {
    /// Targets the low `n_bits` bits of every register.
    pub fn low_bits(n_bits: u8) -> RegisterBitFlip {
        RegisterBitFlip { regs: Reg::ALL.to_vec(), bits: (0..n_bits).collect() }
    }
}

impl FaultModel for RegisterBitFlip {
    fn name(&self) -> &'static str {
        "register-bit-flip"
    }

    fn faults_at(&self, site: &FaultSite) -> Vec<Fault> {
        let mut faults = Vec::with_capacity(self.regs.len() * self.bits.len());
        for &reg in &self.regs {
            for &bit in &self.bits {
                faults.push(Fault {
                    step: site.step,
                    pc: site.pc,
                    effect: FaultEffect::FlipRegisterBit { reg, bit },
                });
            }
        }
        faults
    }
}

/// Transient corruption of the condition flags just before an instruction
/// executes — the minimal model for "the glitch changed the jump
/// condition". An extension model.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlagFlip;

impl FaultModel for FlagFlip {
    fn name(&self) -> &'static str {
        "flag-flip"
    }

    fn faults_at(&self, site: &FaultSite) -> Vec<Fault> {
        (0..4)
            .map(|bit| Fault {
                step: site.step,
                pc: site.pc,
                effect: FaultEffect::FlipFlags { mask: 1 << bit },
            })
            .collect()
    }
}

/// How higher-order plans combine single-site faults across trace sites.
///
/// Exhaustive pair (and triple, …) spaces are cross-products and explode
/// quickly; [`WithinWindow`](PairPolicy::WithinWindow) keeps campaigns
/// focused on the physically plausible case of glitches fired in quick
/// succession, and [`PlanConfig::budget`] bounds whatever space remains
/// by deterministic random sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairPolicy {
    /// Every combination of faults at strictly increasing trace steps.
    Pairs,
    /// Only combinations whose *consecutive* injections are at most
    /// `max_gap` trace steps apart — the double-glitch attacker with a
    /// bounded re-arm time.
    WithinWindow {
        /// Maximum step distance between consecutive injections.
        max_gap: u64,
    },
}

/// Plan-space configuration: how a campaign expands each fault model's
/// per-site faults into ordered [`FaultPlan`]s.
///
/// Order 1 (the default) is the classic single-fault campaign — one
/// singleton plan per fault, in site order. Order `k` adds every
/// plan of 2..=k injections the [`PairPolicy`] admits, each order
/// independently capped by `budget` via seeded uniform sampling
/// ([`PlanConfig::seed`]), so sampled multi-fault campaigns are exactly
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Maximum injections per plan (≥ 1). Plans of *every* order up to
    /// this are enumerated, so an order-2 campaign subsumes order 1.
    pub order: usize,
    /// How multi-fault plans combine sites.
    pub policy: PairPolicy,
    /// Cap on enumerated plans *per model per order above 1*; when the
    /// exhaustive space is larger, `budget` plans are drawn uniformly
    /// (deterministically, from `seed`). `None` = exhaustive.
    pub budget: Option<usize>,
    /// Seed for budgeted sampling, echoed in reports so sampled
    /// campaigns can be reproduced.
    pub seed: u64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig { order: 1, policy: PairPolicy::Pairs, budget: None, seed: 0 }
    }
}

/// The enumerated plan space of one model over one site list.
#[derive(Debug, Clone)]
pub struct PlanSet {
    /// The plans, singletons first (site order), then each higher order
    /// in canonical (site, fault) lexicographic order.
    pub plans: Vec<FaultPlan>,
    /// Exhaustive space size per order, `(order, total)` — totals can
    /// exceed the enumerated count when sampling kicked in. When static
    /// pruning is active these count the *pruned* space, so any sampling
    /// budget is spent entirely on plans worth executing.
    pub total_by_order: Vec<(usize, u128)>,
    /// Plans the static analysis removed per order, `(order, pruned)` —
    /// all zeros when enumeration ran without an analysis.
    pub pruned_by_order: Vec<(usize, u128)>,
    /// Whether any order was down-sampled to the budget.
    pub sampled: bool,
}

/// Expands `model`'s faults over `sites` into the plan space `config`
/// describes, minus what static pruning removes: every fault as a
/// singleton plan (site order — identical to the classic single-fault
/// campaign), plus, for each order `m` in `2..=config.order`, every
/// `m`-tuple of faults at strictly increasing trace steps admitted by the
/// pair policy (two injections never share a step: two glitches at the
/// same instant are physically one glitch).
///
/// Each order above 1 is budget-capped independently: when its
/// exhaustive count exceeds `config.budget`, that many plans are drawn
/// uniformly without replacement using a generator seeded from
/// `config.seed` — the same seed always selects the same plans.
///
/// The pruning rule is the only compositionally sound one: a plan is
/// dropped **iff every one of its faults** is proved
/// [`StaticVerdict::Benign`] by the `analysis`. (Dropping plans with
/// merely *some* benign members would be unsound — a benign fault's dead
/// state delta is simply absorbed, leaving the remaining members' full
/// effect, so such a plan classifies exactly like its non-benign core
/// and may well be a `Success`.) Pruning happens *before* higher orders
/// are counted and any sampling budget is normalized, so the budget is
/// spent entirely on plans that could matter. The removed counts per
/// order are reported in [`PlanSet::pruned_by_order`]. With
/// `analysis == None` nothing is pruned.
///
/// The plans are the ones a campaign session evaluates for `model`, in
/// the same order: both come from one walk over the plan space.
///
/// # Panics
///
/// When the space's count overflows `u128`, which a campaign session
/// rejects up front ([`crate::CampaignError::PlanSpaceOverflow`]).
pub fn enumerate_plans_pruned(
    model: &dyn FaultModel,
    sites: &[&FaultSite],
    config: &PlanConfig,
    analysis: Option<&Analysis>,
) -> PlanSet {
    let models = [model];
    let mut walk = PlanWalk::new(&models, sites, config, analysis);
    let plans = walk.by_ref().map(|(_, plan)| plan).collect();
    let counts = walk.counts().pop().expect("one model in, one count out");
    PlanSet {
        plans,
        total_by_order: counts.iter().map(|&(order, kept, _)| (order, kept)).collect(),
        pruned_by_order: counts.iter().map(|&(order, _, pruned)| (order, pruned)).collect(),
        sampled: counts.iter().any(|&(order, kept, _)| config.visited(order, kept) < kept),
    }
}

impl PlanConfig {
    /// How many of an order's `kept` plans a walk visits: all of them, or
    /// above order 1 at most `budget`, drawn from them.
    pub(crate) fn visited(&self, order: usize, kept: u128) -> u128 {
        match self.budget {
            Some(budget) if order >= 2 => kept.min(budget as u128),
            _ => kept,
        }
    }
}

/// The one walk over the plans of several models — the plan source of
/// every campaign, through either sink, and of
/// [`enumerate_plans_pruned`]. Yields `(model index, plan)` pairs: first
/// every model's singletons site by site, the models interleaved at each
/// site and each site's faults generated when it is reached; then, model
/// by model, orders 2..=`config.order` in canonical order from the
/// model's [`PlanSpace`], built when the walk reaches the model and
/// dropped when it moves on. It panics when a space overflows a 128-bit
/// count, which a campaign session checks first.
pub(crate) struct PlanWalk<'a> {
    models: &'a [&'a dyn FaultModel],
    sites: &'a [&'a FaultSite],
    config: &'a PlanConfig,
    analysis: Option<&'a Analysis>,
    /// Each model's kept and pruned singletons at the sites reached.
    tallies: Vec<(u128, u128)>,
    /// The next site whose singletons are queued.
    site: usize,
    /// The queued singletons, not yet yielded.
    singles: VecDeque<(usize, FaultPlan)>,
    /// The counts per order of each model whose space the walk has built.
    counted: Vec<Vec<(usize, u128, u128)>>,
    /// The last space's plans, not yet yielded.
    higher: Box<dyn Iterator<Item = FaultPlan>>,
}

impl<'a> PlanWalk<'a> {
    /// Starts the walk.
    pub(crate) fn new(
        models: &'a [&'a dyn FaultModel],
        sites: &'a [&'a FaultSite],
        config: &'a PlanConfig,
        analysis: Option<&'a Analysis>,
    ) -> PlanWalk<'a> {
        PlanWalk {
            models,
            sites,
            config,
            analysis,
            tallies: vec![(0, 0); models.len()],
            site: 0,
            singles: VecDeque::new(),
            counted: Vec::new(),
            higher: Box::new(std::iter::empty()),
        }
    }

    /// `model`'s multi-fault space over the walk's sites.
    fn space(&self, model: &dyn FaultModel) -> PlanSpace {
        PlanSpace::new(model, self.sites, self.config, self.analysis).unwrap_or_else(|| {
            panic!("the order-{} plan space overflows a 128-bit count", self.config.order)
        })
    }

    /// Every model's plan counts per order, `(order, kept, pruned)`:
    /// `kept` is the space the walk draws from (before any sampling
    /// budget), `pruned` what static pruning removes. Above order 1 they
    /// come from each model's space, counted now for the models not
    /// reached yet; at order 1 from the walk's tallies, plus a judging
    /// pass over the sites not reached yet. A finished walk counts
    /// nothing again.
    pub(crate) fn counts(&self) -> Vec<Vec<(usize, u128, u128)>> {
        if self.config.order >= 2 {
            let ahead = self.models[self.counted.len()..].iter().map(|m| self.space(*m).counts());
            return self.counted.iter().cloned().chain(ahead).collect();
        }
        let ahead =
            self.models.iter().zip(&self.tallies).map(|(model, &(mut kept, mut pruned))| {
                for fault in self.sites[self.site..].iter().flat_map(|site| model.faults_at(site)) {
                    if is_benign(self.analysis, &fault) {
                        pruned += 1;
                    } else {
                        kept += 1;
                    }
                }
                vec![(1, kept, pruned)]
            });
        ahead.collect()
    }
}

impl Iterator for PlanWalk<'_> {
    type Item = (usize, FaultPlan);

    fn next(&mut self) -> Option<(usize, FaultPlan)> {
        // Queue the kept singletons of the next site that has any.
        while self.singles.is_empty() && self.site < self.sites.len() {
            let site = self.sites[self.site];
            self.site += 1;
            for (m, model) in self.models.iter().enumerate() {
                for fault in model.faults_at(site) {
                    let (kept, pruned) = &mut self.tallies[m];
                    if is_benign(self.analysis, &fault) {
                        *pruned += 1;
                    } else {
                        *kept += 1;
                        self.singles.push_back((m, FaultPlan::single(fault)));
                    }
                }
            }
        }
        if let Some(single) = self.singles.pop_front() {
            return Some(single);
        }
        loop {
            if let Some(plan) = self.higher.next() {
                return Some((self.counted.len() - 1, plan));
            }
            self.higher = Box::new(std::iter::empty()); // drops the last space
            if self.config.order < 2 || self.counted.len() == self.models.len() {
                return None;
            }
            let space = self.space(self.models[self.counted.len()]);
            self.counted.push(space.counts());
            self.higher = space.into_plans(self.config);
        }
    }
}

/// Whether the analysis proves `fault` benign; never without one.
fn is_benign(analysis: Option<&Analysis>, fault: &Fault) -> bool {
    analysis.is_some_and(|a| fault_verdict(a, fault) == StaticVerdict::Benign)
}

/// Counting/unranking machinery over the multi-fault cross-product,
/// minus the statically-pruned (all-benign) chains.
///
/// The counting DP finds, per order `t`, the number of `t`-injection
/// chains whose earliest injection sits at each site — in `u128`, since
/// pair and triple spaces overflow `u64` on long traces — and the subset
/// built from benign faults only, and keeps their suffix sums. The
/// *kept* space every query works over is their difference: a chain
/// survives pruning iff at least one member is non-benign. Counting lets
/// budgeted sampling draw uniform kept plans by *index* and materialize
/// only the drawn ones; an exhaustive walk visits plans one at a time
/// ([`PlanSpace::into_plans`]), so the cross-product is never held in
/// memory. Without an analysis the benign DP is identically zero and the
/// kept space is the full one.
pub(crate) struct PlanSpace {
    steps: Vec<u64>,
    faults: Vec<Vec<Fault>>,
    benign: Vec<Vec<bool>>,
    policy: PairPolicy,
    /// `suffix[t-1][i]`: the order-`t` chains whose earliest injection
    /// sits at site `i` or later (length n+1 per order).
    suffix: Vec<Vec<u128>>,
    /// The same, counting chains of benign faults only.
    benign_suffix: Vec<Vec<u128>>,
}

/// Suffix sums of `row`, one slot longer (`out[i] = Σ_{j ≥ i} row[j]`);
/// `None` when a sum overflows `u128`.
fn suffix_sums(row: &[u128]) -> Option<Vec<u128>> {
    let mut out = vec![0u128; row.len() + 1];
    for i in (0..row.len()).rev() {
        out[i] = out[i + 1].checked_add(row[i])?;
    }
    Some(out)
}

/// Where a walk over one order's kept plans stands: the drawn indices
/// not unranked yet, or a depth-first chain walk's frames.
enum Cursor {
    Drawn(std::collections::btree_set::IntoIter<u128>),
    Chain(Vec<Frame>),
}

/// One injection of a depth-first chain walk: its site, the index after
/// its chosen fault, one past the last site it ranges over, and whether
/// the injections before it hold a non-benign fault.
struct Frame {
    site: usize,
    next: usize,
    end: usize,
    carried: bool,
}

impl PlanSpace {
    /// Counts `model`'s space over `sites` up to `config.order`, its
    /// faults judged by `analysis`; `None` when any order's count, or the
    /// count of all orders together, overflows `u128` (every total and sum
    /// the space reports then fits). Order 1 always fits.
    pub(crate) fn new(
        model: &dyn FaultModel,
        sites: &[&FaultSite],
        config: &PlanConfig,
        analysis: Option<&Analysis>,
    ) -> Option<PlanSpace> {
        let faults: Vec<Vec<Fault>> = sites.iter().map(|site| model.faults_at(site)).collect();
        let benign: Vec<Vec<bool>> = faults
            .iter()
            .map(|site_faults| site_faults.iter().map(|f| is_benign(analysis, f)).collect())
            .collect();
        let singles: Vec<u128> = faults.iter().map(|f| f.len() as u128).collect();
        let benign_singles: Vec<u128> =
            benign.iter().map(|m| m.iter().filter(|&&b| b).count() as u128).collect();
        let mut space = PlanSpace {
            steps: sites.iter().map(|s| s.step).collect(),
            faults,
            benign,
            policy: config.policy,
            suffix: Vec::new(),
            benign_suffix: Vec::new(),
        };
        let (mut all, mut ben) = (singles.clone(), benign_singles.clone());
        loop {
            space.suffix.push(suffix_sums(&all)?);
            space.benign_suffix.push(suffix_sums(&ben)?);
            if space.suffix.len() >= config.order {
                break;
            }
            // A chain at site i continues to any site in
            // (i, window_end(i)), so its continuation count is a
            // suffix-sum difference — for the full DP and the
            // benign-only DP alike.
            let level = space.suffix.len() - 1;
            for i in 0..singles.len() {
                let (win_all, win_ben) = space.window(level, i);
                all[i] = singles[i].checked_mul(win_all)?;
                ben[i] = benign_singles[i] * win_ben;
            }
        }
        space.suffix.iter().try_fold(0u128, |sum, row| sum.checked_add(row[0]))?;
        Some(space)
    }

    /// One past the last site a chain at site `i` may continue to.
    fn window_end(&self, i: usize) -> usize {
        match self.policy {
            PairPolicy::Pairs => self.steps.len(),
            PairPolicy::WithinWindow { max_gap } => {
                let limit = self.steps[i].saturating_add(max_gap);
                self.steps.partition_point(|&s| s <= limit)
            }
        }
    }

    /// Continuation counts through site `i`'s window at DP level
    /// `level` (0-based): `(all, benign-only)`.
    fn window(&self, level: usize, i: usize) -> (u128, u128) {
        let end = self.window_end(i);
        (
            self.suffix[level][i + 1] - self.suffix[level][end],
            self.benign_suffix[level][i + 1] - self.benign_suffix[level][end],
        )
    }

    /// Number of kept (not statically pruned) order-`order` plans.
    fn total(&self, order: usize) -> u128 {
        self.suffix[order - 1][0] - self.benign_suffix[order - 1][0]
    }

    /// `(order, kept, pruned)` for every order the space counts; pruned
    /// plans are the all-benign ones.
    fn counts(&self) -> Vec<(usize, u128, u128)> {
        let count = |order| (order, self.total(order), self.benign_suffix[order - 1][0]);
        (1..=self.suffix.len()).map(count).collect()
    }

    /// The `index`-th *kept* order-`order` plan, in the canonical
    /// lexicographic order by (first site, first fault, then the suffix
    /// recursively). `carried` tracks whether the chosen prefix already
    /// contains a non-benign fault; until it does, continuations must
    /// contribute one, which is exactly the full-minus-benign count.
    fn unrank(&self, order: usize, mut index: u128) -> FaultPlan {
        let mut faults = Vec::with_capacity(order);
        let mut from = 0;
        let mut carried = false;
        for level in (1..=order).rev() {
            let (all, ben) = (&self.suffix[level - 1], &self.benign_suffix[level - 1]);
            let mut site = from;
            // Linear scan from the window start; plans cluster near their
            // predecessor, so the scan is short for windowed policies.
            loop {
                let benign = if carried { 0 } else { ben[site] - ben[site + 1] };
                let site_kept = all[site] - all[site + 1] - benign;
                if index < site_kept {
                    break;
                }
                index -= site_kept;
                site += 1;
            }
            let (win_all, win_ben) = if level == 1 { (1, 1) } else { self.window(level - 2, site) };
            let mut chosen = None;
            for (fault_index, &fault) in self.faults[site].iter().enumerate() {
                let benign = self.benign[site][fault_index];
                let continuations = if carried || !benign {
                    win_all
                } else if level == 1 {
                    0 // an all-benign completion is pruned, not kept
                } else {
                    win_all - win_ben
                };
                if index < continuations {
                    chosen = Some((fault, benign));
                    break;
                }
                index -= continuations;
            }
            let (fault, benign) = chosen.expect("kept-plan index within the space");
            carried |= !benign;
            faults.push(fault);
            from = site + 1;
        }
        FaultPlan::new(faults)
    }

    /// The kept plans of orders 2..=`config.order`, order by order, each
    /// in canonical order and visited lazily: every one, a chain at a
    /// time ([`PlanSpace::next_kept`]), or, when they exceed the budget,
    /// `budget` of them drawn by index from the seed and unranked in
    /// turn. The iterator owns the space and drops it when done.
    fn into_plans(self, config: &PlanConfig) -> Box<dyn Iterator<Item = FaultPlan>> {
        let config = *config;
        let mut order = 1;
        let mut cursor = Cursor::Chain(Vec::new());
        Box::new(std::iter::from_fn(move || loop {
            let plan = match &mut cursor {
                Cursor::Drawn(indices) => indices.next().map(|index| self.unrank(order, index)),
                Cursor::Chain(stack) => self.next_kept(order, stack),
            };
            if plan.is_some() || order >= config.order {
                return plan;
            }
            order += 1;
            cursor = self.cursor(order, &config);
        }))
    }

    /// The start of a walk over the kept order-`order` plans: every one,
    /// or, when they exceed the budget, `budget` indices drawn uniformly
    /// without replacement.
    fn cursor(&self, order: usize, config: &PlanConfig) -> Cursor {
        let total = self.total(order);
        let budget = config.visited(order, total);
        if budget == total {
            let root = Frame { site: 0, next: 0, end: self.steps.len(), carried: false };
            return Cursor::Chain(vec![root]);
        }
        // Draw distinct plan indices uniformly; the BTreeSet both
        // deduplicates and yields them in ascending (canonical) order.
        // Seeded per order so adding an order never reshuffles the ones
        // below it.
        let mut rng = StdRng::seed_from_u64(config.seed ^ order as u64);
        let mut drawn = BTreeSet::new();
        while (drawn.len() as u128) < budget {
            let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
            drawn.insert(wide % total);
        }
        Cursor::Drawn(drawn.into_iter())
    }

    /// The kept order-`order` plan after `stack`'s in canonical order,
    /// advancing it; `None` once the order is exhausted. A frame's chosen
    /// fault is the one before its `next`, and each frame ranges over its
    /// predecessor's window. All-benign chains are the pruned ones, and
    /// are passed over.
    fn next_kept(&self, order: usize, stack: &mut Vec<Frame>) -> Option<FaultPlan> {
        loop {
            let depth = stack.len();
            let frame = stack.last_mut()?;
            while frame.site < frame.end && frame.next == self.faults[frame.site].len() {
                (frame.site, frame.next) = (frame.site + 1, 0);
            }
            if frame.site == frame.end {
                stack.pop();
                continue;
            }
            let carried = frame.carried || !self.benign[frame.site][frame.next];
            frame.next += 1;
            if depth < order {
                let site = frame.site;
                stack.push(Frame { site: site + 1, next: 0, end: self.window_end(site), carried });
            } else if carried {
                let chain = stack.iter().map(|frame| self.faults[frame.site][frame.next - 1]);
                return Some(FaultPlan::new(chain));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_isa::Instr;

    fn site(len: usize) -> FaultSite {
        FaultSite { step: 3, pc: 0x1010, insn: Instr::Nop, len }
    }

    #[test]
    fn skip_yields_one_fault_per_site() {
        let faults = InstructionSkip.faults_at(&site(6));
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].effect, FaultEffect::SkipInstruction);
        assert_eq!(faults[0].step, 3);
    }

    #[test]
    fn bit_flip_enumerates_every_bit() {
        let faults = SingleBitFlip.faults_at(&site(6));
        assert_eq!(faults.len(), 48);
        // All distinct.
        let unique: std::collections::HashSet<_> = faults.iter().map(|f| f.effect).collect();
        assert_eq!(unique.len(), 48);
    }

    #[test]
    fn register_model_respects_configuration() {
        let model = RegisterBitFlip { regs: vec![Reg::R1, Reg::R2], bits: vec![0, 63] };
        assert_eq!(model.faults_at(&site(1)).len(), 4);
        assert_eq!(RegisterBitFlip::low_bits(2).faults_at(&site(1)).len(), 32);
    }

    #[test]
    fn flag_model_targets_four_bits() {
        assert_eq!(FlagFlip.faults_at(&site(1)).len(), 4);
    }

    fn sites_at(steps: &[u64]) -> Vec<FaultSite> {
        steps
            .iter()
            .map(|&step| FaultSite { step, pc: 0x1000 + step * 4, insn: Instr::Nop, len: 4 })
            .collect()
    }

    fn refs(sites: &[FaultSite]) -> Vec<&FaultSite> {
        sites.iter().collect()
    }

    #[test]
    fn order_one_enumeration_matches_the_flat_fault_list() {
        let sites = sites_at(&[0, 1, 2, 5]);
        let set =
            enumerate_plans_pruned(&SingleBitFlip, &refs(&sites), &PlanConfig::default(), None);
        let flat: Vec<Fault> = sites.iter().flat_map(|s| SingleBitFlip.faults_at(s)).collect();
        assert_eq!(set.plans.len(), flat.len());
        assert!(!set.sampled);
        assert_eq!(set.total_by_order, vec![(1, flat.len() as u128)]);
        for (plan, fault) in set.plans.iter().zip(&flat) {
            assert_eq!(plan.order(), 1);
            assert_eq!(plan.first(), fault, "singleton plans keep site order");
        }
    }

    #[test]
    fn pairs_cover_the_cross_product_of_distinct_steps() {
        let sites = sites_at(&[0, 1, 2, 3]);
        let config = PlanConfig { order: 2, ..PlanConfig::default() };
        let set = enumerate_plans_pruned(&InstructionSkip, &refs(&sites), &config, None);
        // 4 singletons + C(4,2) = 6 pairs.
        assert_eq!(set.plans.len(), 4 + 6);
        assert_eq!(set.total_by_order, vec![(1, 4), (2, 6)]);
        let pairs: Vec<&FaultPlan> = set.plans.iter().filter(|p| p.order() == 2).collect();
        assert_eq!(pairs.len(), 6);
        for pair in &pairs {
            let steps: Vec<u64> = pair.iter().map(|f| f.step).collect();
            assert!(steps[0] < steps[1], "strictly increasing steps: {steps:?}");
        }
        // All distinct.
        let unique: std::collections::HashSet<&FaultPlan> = pairs.iter().copied().collect();
        assert_eq!(unique.len(), 6);
    }

    #[test]
    fn window_policy_bounds_consecutive_gaps() {
        let sites = sites_at(&[0, 2, 4, 10, 11]);
        let config = PlanConfig {
            order: 2,
            policy: PairPolicy::WithinWindow { max_gap: 2 },
            ..PlanConfig::default()
        };
        let set = enumerate_plans_pruned(&InstructionSkip, &refs(&sites), &config, None);
        let pairs: Vec<Vec<u64>> = set
            .plans
            .iter()
            .filter(|p| p.order() == 2)
            .map(|p| p.iter().map(|f| f.step).collect())
            .collect();
        // (0,2), (2,4), (10,11): the 4→10 and wider gaps are excluded.
        assert_eq!(pairs, vec![vec![0, 2], vec![2, 4], vec![10, 11]]);
    }

    #[test]
    fn triples_chain_the_window_constraint() {
        let sites = sites_at(&[0, 1, 2, 3, 9]);
        let config = PlanConfig {
            order: 3,
            policy: PairPolicy::WithinWindow { max_gap: 1 },
            ..PlanConfig::default()
        };
        let set = enumerate_plans_pruned(&InstructionSkip, &refs(&sites), &config, None);
        let triples: Vec<Vec<u64>> = set
            .plans
            .iter()
            .filter(|p| p.order() == 3)
            .map(|p| p.iter().map(|f| f.step).collect())
            .collect();
        assert_eq!(triples, vec![vec![0, 1, 2], vec![1, 2, 3]]);
        // Orders 1 and 2 ride along: an order-3 campaign subsumes both.
        assert_eq!(set.total_by_order.len(), 3);
        assert!(set.plans.iter().any(|p| p.order() == 1));
        assert!(set.plans.iter().any(|p| p.order() == 2));
    }

    #[test]
    fn budget_sampling_is_deterministic_and_within_the_space() {
        let sites = sites_at(&(0..40).collect::<Vec<u64>>());
        let exhaustive = enumerate_plans_pruned(
            &InstructionSkip,
            &refs(&sites),
            &PlanConfig { order: 2, ..PlanConfig::default() },
            None,
        );
        let full: std::collections::HashSet<FaultPlan> =
            exhaustive.plans.iter().filter(|p| p.order() == 2).cloned().collect();
        assert_eq!(full.len(), 40 * 39 / 2);

        let config = PlanConfig { order: 2, budget: Some(50), seed: 7, ..PlanConfig::default() };
        let a = enumerate_plans_pruned(&InstructionSkip, &refs(&sites), &config, None);
        let b = enumerate_plans_pruned(&InstructionSkip, &refs(&sites), &config, None);
        assert!(a.sampled);
        assert_eq!(a.plans, b.plans, "same seed, same sample");
        let sampled: Vec<&FaultPlan> = a.plans.iter().filter(|p| p.order() == 2).collect();
        assert_eq!(sampled.len(), 50, "budget is honoured exactly");
        for plan in &sampled {
            assert!(full.contains(plan), "sample drawn from the exhaustive space");
        }
        // Distinct draws, canonical (ascending-index) order.
        let unique: std::collections::HashSet<&FaultPlan> = sampled.iter().copied().collect();
        assert_eq!(unique.len(), 50);

        let other = enumerate_plans_pruned(
            &InstructionSkip,
            &refs(&sites),
            &PlanConfig { seed: 8, ..config },
            None,
        );
        assert_ne!(a.plans, other.plans, "a different seed draws a different sample");
        // A budget at or above the space size enumerates exhaustively.
        let roomy = enumerate_plans_pruned(
            &InstructionSkip,
            &refs(&sites),
            &PlanConfig { budget: Some(10_000), ..config },
            None,
        );
        assert!(!roomy.sampled);
        assert_eq!(roomy.plans.len(), exhaustive.plans.len());
    }

    #[test]
    fn empty_and_tiny_site_lists_degrade_gracefully() {
        let config = PlanConfig { order: 2, ..PlanConfig::default() };
        let set = enumerate_plans_pruned(&InstructionSkip, &[], &config, None);
        assert!(set.plans.is_empty());
        assert_eq!(set.total_by_order, vec![(1, 0), (2, 0)]);
        // One site: a singleton plan, no pairs.
        let sites = sites_at(&[3]);
        let set = enumerate_plans_pruned(&InstructionSkip, &refs(&sites), &config, None);
        assert_eq!(set.plans.len(), 1);
        assert_eq!(set.total_by_order, vec![(1, 1), (2, 0)]);
    }

    #[test]
    fn unranked_samples_match_exhaustive_enumeration_order() {
        // Sampling with a budget of the full space size must reproduce
        // the exhaustive enumeration exactly (every index drawn, emitted
        // ascending) — pins unrank() against the exhaustive chain walk.
        let sites = sites_at(&[0, 1, 2, 5, 6, 9]);
        let bitflip_pairs = |budget| {
            enumerate_plans_pruned(
                &FlagFlip,
                &refs(&sites),
                &PlanConfig {
                    order: 2,
                    policy: PairPolicy::WithinWindow { max_gap: 4 },
                    budget,
                    seed: 3,
                },
                None,
            )
        };
        let exhaustive = bitflip_pairs(None);
        let total = exhaustive.total_by_order[1].1 as usize;
        assert!(total > 10);
        // Force the sampling path with a budget one below the space,
        // then check the drawn plans are a subset in canonical order.
        let sampled = bitflip_pairs(Some(total - 1));
        assert!(sampled.sampled);
        let exhaustive_pairs: Vec<&FaultPlan> =
            exhaustive.plans.iter().filter(|p| p.order() == 2).collect();
        let sampled_pairs: Vec<&FaultPlan> =
            sampled.plans.iter().filter(|p| p.order() == 2).collect();
        assert_eq!(sampled_pairs.len(), total - 1);
        let mut cursor = exhaustive_pairs.iter();
        for plan in sampled_pairs {
            assert!(cursor.any(|p| p == &plan), "sampled plans appear in exhaustive order: {plan}");
        }
    }
}
