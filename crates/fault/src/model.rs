//! Fault models: enumerating concrete faults at a trace site, and the
//! plan combinators that expand them into multi-fault injection plans.

use crate::analysis::{fault_verdict, Analysis, StaticVerdict};
use crate::site::{Fault, FaultEffect, FaultPlan, FaultSite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rr_isa::Reg;
use std::collections::BTreeSet;

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
/// describes: every fault as a singleton plan (site order — identical to
/// the classic single-fault campaign), plus, for each order `m` in
/// `2..=config.order`, every `m`-tuple of faults at strictly increasing
/// trace steps admitted by the pair policy (two injections never share a
/// step: two glitches at the same instant are physically one glitch).
///
/// Each order above 1 is budget-capped independently: when its
/// exhaustive count exceeds `config.budget`, that many plans are drawn
/// uniformly without replacement using a generator seeded from
/// `config.seed` — the same seed always selects the same plans.
///
/// # Panics
///
/// When the space's count overflows `u128`, which a campaign session
/// rejects up front ([`crate::CampaignError::PlanSpaceOverflow`]).
pub fn enumerate_plans(
    model: &dyn FaultModel,
    sites: &[&FaultSite],
    config: &PlanConfig,
) -> PlanSet {
    enumerate_plans_pruned(model, sites, config, None)
}

/// [`enumerate_plans`] with static pruning.
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
/// `analysis == None` this is exactly [`enumerate_plans`].
///
/// # Panics
///
/// Like [`enumerate_plans`], when the space's count overflows `u128`.
pub fn enumerate_plans_pruned(
    model: &dyn FaultModel,
    sites: &[&FaultSite],
    config: &PlanConfig,
    analysis: Option<&Analysis>,
) -> PlanSet {
    let faults = model_faults(model, sites);
    // One fused pass for the singles: the per-site mask vectors are only
    // materialized when an order ≥ 2 counting DP actually needs them —
    // order-1 campaigns on long traces are latency-sensitive.
    let mut plans: Vec<FaultPlan> = Vec::new();
    let mut pruned_singles = 0u128;
    for site_faults in &faults {
        for fault in site_faults {
            if analysis.is_some_and(|a| fault_verdict(a, fault) == StaticVerdict::Benign) {
                pruned_singles += 1;
            } else {
                plans.push(FaultPlan::single(*fault));
            }
        }
    }
    let mut total_by_order = vec![(1, plans.len() as u128)];
    let mut pruned_by_order = vec![(1, pruned_singles)];
    let mut sampled = false;
    if config.order >= 2 {
        let benign = benign_mask(&faults, analysis);
        let space = counted(sites, faults, benign, config);
        sampled = append_higher_orders(
            &space,
            config,
            &mut plans,
            &mut total_by_order,
            &mut pruned_by_order,
        );
    }
    PlanSet { plans, total_by_order, pruned_by_order, sampled }
}

/// Plan counts per order, `(order, kept, pruned)`, without enumerating
/// a plan: `kept` is the space enumeration draws from (before any
/// sampling budget) and `pruned` what static pruning removes — singleton
/// benign faults at order 1, all-benign chains above; zero without an
/// `analysis`. Order 1 counts each site's faults as they are generated,
/// holding one site's list at a time; higher orders run the counting DP
/// over a [`PlanSpace`], which holds every site's faults. The DP is
/// O(order × sites); cheap next to executing even one plan.
pub(crate) fn plan_counts_by_order(
    model: &dyn FaultModel,
    sites: &[&FaultSite],
    config: &PlanConfig,
    analysis: Option<&Analysis>,
) -> Vec<(usize, u128, u128)> {
    if config.order >= 2 {
        let space = plan_space(model, sites, config, analysis);
        return (1..=config.order)
            .map(|order| (order, space.total(order), space.pruned_total(order)))
            .collect();
    }
    let (mut kept, mut pruned) = (0u128, 0u128);
    for site in sites {
        for fault in model.faults_at(site) {
            if analysis.is_some_and(|a| fault_verdict(a, &fault) == StaticVerdict::Benign) {
                pruned += 1;
            } else {
                kept += 1;
            }
        }
    }
    vec![(1, kept, pruned)]
}

/// The higher-order (2..=`config.order`) plans alone — for consumers
/// that stream the singleton portion separately. Only call with a
/// sampling budget set: the materialized list is then at most
/// `budget × (order − 1)` plans. Unbudgeted consumers should fold over
/// [`plan_space`] + [`PlanSpace::for_each_starting_at`] instead, which
/// never materializes the cross-product.
pub(crate) fn higher_order_plans(
    model: &dyn FaultModel,
    sites: &[&FaultSite],
    config: &PlanConfig,
    analysis: Option<&Analysis>,
) -> Vec<FaultPlan> {
    let faults = model_faults(model, sites);
    let benign = benign_mask(&faults, analysis);
    let mut plans = Vec::new();
    if config.order >= 2 {
        let space = counted(sites, faults, benign, config);
        append_higher_orders(&space, config, &mut plans, &mut Vec::new(), &mut Vec::new());
    }
    plans
}

/// Builds the counting/enumeration machinery for `model` over `sites`
/// — the lazy counterpart of [`higher_order_plans`] for streaming
/// consumers.
pub(crate) fn plan_space(
    model: &dyn FaultModel,
    sites: &[&FaultSite],
    config: &PlanConfig,
    analysis: Option<&Analysis>,
) -> PlanSpace {
    let faults = model_faults(model, sites);
    let benign = benign_mask(&faults, analysis);
    counted(sites, faults, benign, config)
}

/// Whether `model`'s plan space over `sites`, every order up to
/// `config.order` and all of them together, counts in `u128` — the
/// precondition of every enumeration and count above. Order 1 always
/// fits.
pub(crate) fn plan_space_fits(
    model: &dyn FaultModel,
    sites: &[&FaultSite],
    config: &PlanConfig,
) -> bool {
    let faults = model_faults(model, sites);
    let benign = benign_mask(&faults, None);
    PlanSpace::new(sites, faults, benign, config.policy, config.order).is_some()
}

/// Counts a plan space whose fit [`plan_space_fits`] established.
fn counted(
    sites: &[&FaultSite],
    faults: Vec<Vec<Fault>>,
    benign: Vec<Vec<bool>>,
    config: &PlanConfig,
) -> PlanSpace {
    PlanSpace::new(sites, faults, benign, config.policy, config.order).unwrap_or_else(|| {
        panic!("the order-{} plan space overflows a 128-bit count", config.order)
    })
}

/// Each site's full fault list, aligned to `sites`.
fn model_faults(model: &dyn FaultModel, sites: &[&FaultSite]) -> Vec<Vec<Fault>> {
    sites.iter().map(|site| model.faults_at(site)).collect()
}

/// Per-fault benign flags aligned to `faults`; all `false` without an
/// analysis.
fn benign_mask(faults: &[Vec<Fault>], analysis: Option<&Analysis>) -> Vec<Vec<bool>> {
    match analysis {
        Some(analysis) => faults
            .iter()
            .map(|site_faults| {
                site_faults
                    .iter()
                    .map(|fault| fault_verdict(analysis, fault) == StaticVerdict::Benign)
                    .collect()
            })
            .collect(),
        None => faults.iter().map(|site_faults| vec![false; site_faults.len()]).collect(),
    }
}

/// Appends orders 2..=`config.order` to `plans` (and their kept/pruned
/// totals to `total_by_order`/`pruned_by_order`), sampling any order
/// whose kept space exceeds the budget. Returns whether sampling kicked
/// in.
fn append_higher_orders(
    space: &PlanSpace,
    config: &PlanConfig,
    plans: &mut Vec<FaultPlan>,
    total_by_order: &mut Vec<(usize, u128)>,
    pruned_by_order: &mut Vec<(usize, u128)>,
) -> bool {
    let mut sampled = false;
    for order in 2..=config.order {
        let total = space.total(order);
        total_by_order.push((order, total));
        pruned_by_order.push((order, space.pruned_total(order)));
        match config.budget.map(|b| b as u128) {
            Some(budget) if total > budget => {
                sampled = true;
                // Draw distinct plan indices uniformly; the BTreeSet
                // both deduplicates and yields them in ascending
                // (canonical) order. Seeded per order so adding an
                // order never reshuffles the ones below it.
                let mut rng = StdRng::seed_from_u64(config.seed ^ order as u64);
                let mut drawn: BTreeSet<u128> = BTreeSet::new();
                while (drawn.len() as u128) < budget {
                    let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                    drawn.insert(wide % total);
                }
                plans.extend(drawn.into_iter().map(|index| space.unrank(order, index)));
            }
            _ => space.generate_all(order, plans),
        }
    }
    sampled
}

/// Counting/unranking machinery over the multi-fault cross-product,
/// minus the statically-pruned (all-benign) chains.
///
/// `counts[t-1][i]` is the number of `t`-injection chains whose earliest
/// injection sits at site `i` — in `u128`, since pair and triple spaces
/// overflow `u64` on long traces — and `benign_counts[t-1][i]` the
/// subset built from benign faults only. The *kept* space every public
/// query works over is their difference: a chain survives pruning iff at
/// least one member is non-benign. Counting lets budgeted sampling draw
/// uniform kept plans by *index* and materialize only the drawn ones, so
/// the exhaustive cross-product is never held in memory; streaming
/// consumers visit plans one at a time through
/// [`PlanSpace::for_each_starting_at`]. Without an analysis the benign
/// DP is identically zero and the kept space is the full one.
pub(crate) struct PlanSpace {
    steps: Vec<u64>,
    faults: Vec<Vec<Fault>>,
    benign: Vec<Vec<bool>>,
    policy: PairPolicy,
    counts: Vec<Vec<u128>>,
    benign_counts: Vec<Vec<u128>>,
    /// `suffix[t][i]` = Σ_{j ≥ i} `counts[t][j]` (length n+1 per level).
    suffix: Vec<Vec<u128>>,
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

impl PlanSpace {
    /// Counts the space; `None` when any order's count, or the count of
    /// all orders together, overflows `u128` (every total and sum the
    /// space reports then fits).
    fn new(
        sites: &[&FaultSite],
        faults: Vec<Vec<Fault>>,
        benign: Vec<Vec<bool>>,
        policy: PairPolicy,
        max_order: usize,
    ) -> Option<PlanSpace> {
        let steps: Vec<u64> = sites.iter().map(|s| s.step).collect();
        let mut space = PlanSpace {
            counts: vec![faults.iter().map(|f| f.len() as u128).collect()],
            benign_counts: vec![benign
                .iter()
                .map(|m| m.iter().filter(|&&b| b).count() as u128)
                .collect()],
            suffix: Vec::new(),
            benign_suffix: Vec::new(),
            steps,
            faults,
            benign,
            policy,
        };
        let n = space.steps.len();
        while space.counts.len() < max_order {
            // A chain at site i continues to any site in
            // (i, successor_end(i)], so its continuation count is a
            // suffix-sum difference — for the full DP and the
            // benign-only DP alike.
            let all = suffix_sums(space.counts.last().expect("order-1 counts seed the DP"))?;
            let ben = suffix_sums(space.benign_counts.last().expect("benign DP seeded too"))?;
            let (mut next_all, mut next_ben) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for i in 0..n {
                let end = space.successor_end(i) + 1;
                next_all.push(space.counts[0][i].checked_mul(all[i + 1] - all[end])?);
                next_ben.push(space.benign_counts[0][i] * (ben[i + 1] - ben[end]));
            }
            space.counts.push(next_all);
            space.benign_counts.push(next_ben);
        }
        space.suffix = space.counts.iter().map(|row| suffix_sums(row)).collect::<Option<_>>()?;
        space.suffix.iter().try_fold(0u128, |sum, row| sum.checked_add(row[0]))?;
        space.benign_suffix =
            space.benign_counts.iter().map(|row| suffix_sums(row)).collect::<Option<_>>()?;
        Some(space)
    }

    /// Index of the last site a chain at site `i` may continue to.
    fn successor_end(&self, i: usize) -> usize {
        match self.policy {
            PairPolicy::Pairs => self.steps.len().saturating_sub(1),
            PairPolicy::WithinWindow { max_gap } => {
                let limit = self.steps[i].saturating_add(max_gap);
                self.steps.partition_point(|&s| s <= limit) - 1
            }
        }
    }

    /// Continuation counts through site `i`'s window at DP level
    /// `level` (0-based): `(all, benign-only)`.
    fn window(&self, level: usize, i: usize) -> (u128, u128) {
        let end = self.successor_end(i) + 1;
        (
            self.suffix[level][i + 1] - self.suffix[level][end],
            self.benign_suffix[level][i + 1] - self.benign_suffix[level][end],
        )
    }

    /// Number of kept (not statically pruned) order-`order` plans.
    fn total(&self, order: usize) -> u128 {
        self.suffix[order - 1][0] - self.benign_suffix[order - 1][0]
    }

    /// Number of statically pruned (all-benign) order-`order` plans.
    fn pruned_total(&self, order: usize) -> u128 {
        self.benign_suffix[order - 1][0]
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
            let mut site = from;
            // Linear scan from the window start; plans cluster near their
            // predecessor, so the scan is short for windowed policies.
            loop {
                let site_kept = if carried {
                    self.counts[level - 1][site]
                } else {
                    self.counts[level - 1][site] - self.benign_counts[level - 1][site]
                };
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

    /// Appends every kept order-`order` plan in canonical order.
    fn generate_all(&self, order: usize, out: &mut Vec<FaultPlan>) {
        let mut chain = Vec::with_capacity(order);
        self.generate_from(
            order,
            0,
            self.steps.len().saturating_sub(1),
            false,
            &mut chain,
            &mut |plan| out.push(plan),
        );
    }

    /// Visits every kept plan of every order in `2..=max_order` whose
    /// **earliest** injection sits at `site`, one at a time — nothing is
    /// materialized, so a streaming consumer walking the first-injection
    /// sites covers the kept multi-fault space (each plan exactly once)
    /// in O(1) extra memory.
    pub(crate) fn for_each_starting_at(
        &self,
        max_order: usize,
        site: usize,
        visit: &mut impl FnMut(FaultPlan),
    ) {
        let mut chain = Vec::with_capacity(max_order);
        for order in 2..=max_order {
            for index in 0..self.faults[site].len() {
                chain.push(self.faults[site][index]);
                self.generate_from(
                    order - 1,
                    site + 1,
                    self.successor_end(site),
                    !self.benign[site][index],
                    &mut chain,
                    visit,
                );
                chain.pop();
            }
        }
    }

    fn generate_from(
        &self,
        remaining: usize,
        from: usize,
        to: usize,
        carried: bool,
        chain: &mut Vec<Fault>,
        visit: &mut impl FnMut(FaultPlan),
    ) {
        if remaining == 0 {
            // All-benign chains are the pruned ones; emit the rest.
            if carried {
                visit(FaultPlan::new(chain.iter().copied()));
            }
            return;
        }
        if from > to || from >= self.steps.len() {
            return;
        }
        for site in from..=to {
            for index in 0..self.faults[site].len() {
                chain.push(self.faults[site][index]);
                self.generate_from(
                    remaining - 1,
                    site + 1,
                    self.successor_end(site),
                    carried || !self.benign[site][index],
                    chain,
                    visit,
                );
                chain.pop();
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
        let set = enumerate_plans(&SingleBitFlip, &refs(&sites), &PlanConfig::default());
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
        let set = enumerate_plans(&InstructionSkip, &refs(&sites), &config);
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
        let set = enumerate_plans(&InstructionSkip, &refs(&sites), &config);
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
        let set = enumerate_plans(&InstructionSkip, &refs(&sites), &config);
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
        let exhaustive = enumerate_plans(
            &InstructionSkip,
            &refs(&sites),
            &PlanConfig { order: 2, ..PlanConfig::default() },
        );
        let full: std::collections::HashSet<FaultPlan> =
            exhaustive.plans.iter().filter(|p| p.order() == 2).cloned().collect();
        assert_eq!(full.len(), 40 * 39 / 2);

        let config = PlanConfig { order: 2, budget: Some(50), seed: 7, ..PlanConfig::default() };
        let a = enumerate_plans(&InstructionSkip, &refs(&sites), &config);
        let b = enumerate_plans(&InstructionSkip, &refs(&sites), &config);
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

        let other =
            enumerate_plans(&InstructionSkip, &refs(&sites), &PlanConfig { seed: 8, ..config });
        assert_ne!(a.plans, other.plans, "a different seed draws a different sample");
        // A budget at or above the space size enumerates exhaustively.
        let roomy = enumerate_plans(
            &InstructionSkip,
            &refs(&sites),
            &PlanConfig { budget: Some(10_000), ..config },
        );
        assert!(!roomy.sampled);
        assert_eq!(roomy.plans.len(), exhaustive.plans.len());
    }

    #[test]
    fn empty_and_tiny_site_lists_degrade_gracefully() {
        let config = PlanConfig { order: 2, ..PlanConfig::default() };
        let set = enumerate_plans(&InstructionSkip, &[], &config);
        assert!(set.plans.is_empty());
        assert_eq!(set.total_by_order, vec![(1, 0), (2, 0)]);
        // One site: a singleton plan, no pairs.
        let sites = sites_at(&[3]);
        let set = enumerate_plans(&InstructionSkip, &refs(&sites), &config);
        assert_eq!(set.plans.len(), 1);
        assert_eq!(set.total_by_order, vec![(1, 1), (2, 0)]);
    }

    #[test]
    fn unranked_samples_match_exhaustive_enumeration_order() {
        // Sampling with a budget of the full space size must reproduce
        // the exhaustive enumeration exactly (every index drawn, emitted
        // ascending) — pins unrank() against generate_all().
        let sites = sites_at(&[0, 1, 2, 5, 6, 9]);
        let bitflip_pairs = |budget| {
            enumerate_plans(
                &FlagFlip,
                &refs(&sites),
                &PlanConfig {
                    order: 2,
                    policy: PairPolicy::WithinWindow { max_gap: 4 },
                    budget,
                    seed: 3,
                },
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
