//! Classification reuse across campaign sessions: the incremental
//! re-campaign machinery.
//!
//! The Faulter+Patcher loop re-runs a full fault campaign after every
//! binary rewrite, yet each patch touches a handful of instructions. A
//! [`CampaignSeed`] captures what the prior session learned (its golden
//! bad-input trace and per-model classifications); together with the
//! [`rr_disasm::ListingDelta`] of the rewrite, [`plan`] aligns the old
//! and new traces step by step and decides, per site, whether the prior
//! [`FaultClass`] is still valid:
//!
//! * the site's instruction must be **carried over unchanged** (its old
//!   address remaps through the delta onto the new trace's program
//!   counter at the aligned step), and
//! * no touched code — inserted pattern instructions executing in the
//!   new trace, or replaced instructions vanishing from the old one —
//!   may lie within [`REUSE_GUARD_WINDOW`] trace steps of the site, so
//!   the machine state a fault is injected into, and the first stretch
//!   of its downstream window, relate to the prior run by exact
//!   relocation correspondence (equal up to the delta's address remap).
//!
//! Reused sites answer from the [`ClassificationCache`] without
//! executing anything; invalidated sites are re-run from the session's
//! own checkpoints, which an unseeded session would record identically.
//! Seeding changes only the cache, never the recording.
//!
//! The cache key is (fault model, the *whole injection plan* remapped
//! through the delta — one (step, effect) per injection), and the whole
//! cache is guarded by the oracle fingerprint
//! ([`crate::Oracle::fingerprint`]): a changed judgment — different
//! golden behaviours, different goal prefix, a custom oracle without a
//! fingerprint — empties it. Two per-entry guards apply on top, each
//! evaluated **conjunctively over every injection of a plan** (one
//! invalidated injection invalidates the run it participated in): cached
//! `TimedOut` entries are dropped when the faulted step budget changed
//! (the timeout boundary moved with it), and bit-level value corruption
//! ([`FaultEffect::FlipInstructionBit`] and
//! [`FaultEffect::FlipRegisterBit`]) is reused only under a
//! [no-op delta](ListingDelta::is_noop) — a corrupted opcode or a
//! flipped register holding an absolute address behaves in ways that
//! depend on code layout, which any insertion shifts.

use crate::report::CampaignReport;
use crate::site::{FaultClass, FaultEffect, FaultPlan};
use rr_disasm::ListingDelta;
use rr_telemetry::{Counter, Telemetry};
use std::collections::HashMap;
use std::fmt;

/// Trace-step guard radius around code the delta touched: sites closer
/// than this to a dirty step are re-executed instead of reused. The
/// guard absorbs local interactions between a fault and freshly
/// inserted/removed code (e.g. a skipped instruction falling into an
/// inserted sequence, or an instruction-bit flip whose corrupted opcode
/// reads bytes across a patch boundary). It is deliberately small:
/// alignment already guarantees the machine state at every reused
/// injection point corresponds to the prior run's (exactly, up to the
/// delta's address remap), and the inserted protection patterns are
/// semantically transparent to continuations that merely pass through
/// them — the invariance test suite pins incremental classifications
/// bit-identical to from-scratch campaigns across all workloads and
/// fault models.
pub const REUSE_GUARD_WINDOW: u64 = 8;

/// What one campaign session learned, packaged for the next session of
/// an incremental loop: build it with
/// [`CampaignSession::seed`](crate::CampaignSession::seed) and hand it to
/// [`CampaignSessionBuilder::seed_from`](crate::CampaignSessionBuilder::seed_from).
#[derive(Debug, Clone)]
pub struct CampaignSeed {
    /// The prior session's golden bad-input trace (one pc per step).
    pub(crate) trace: Vec<u64>,
    /// Per-model classifications from the prior session.
    pub(crate) reports: Vec<CampaignReport>,
    /// The prior oracle's fingerprint (`None` disables reuse).
    pub(crate) oracle_fingerprint: Option<u64>,
    /// The prior session's faulted-run step budget (timeout boundary).
    pub(crate) faulted_budget: u64,
}

/// The cache key: a plan's injections remapped onto the new session's
/// trace, reduced to what classification depends on — (step, effect) per
/// injection. Program counters are implied by the step (the trace names
/// one pc per step). Singleton and pair keys stay inline so the hot
/// order-1 lookup path allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PlanKey {
    One(u64, FaultEffect),
    Two([(u64, FaultEffect); 2]),
    Many(Box<[(u64, FaultEffect)]>),
}

impl PlanKey {
    fn of(plan: &FaultPlan) -> PlanKey {
        PlanKey::from_steps(plan.iter().map(|f| (f.step, f.effect)))
    }

    fn from_steps(steps: impl IntoIterator<Item = (u64, FaultEffect)>) -> PlanKey {
        let mut iter = steps.into_iter();
        let a = iter.next().expect("plans have at least one injection");
        let Some(b) = iter.next() else {
            return PlanKey::One(a.0, a.1);
        };
        let Some(c) = iter.next() else {
            return PlanKey::Two([a, b]);
        };
        PlanKey::Many([a, b, c].into_iter().chain(iter).collect())
    }
}

/// Per-plan classifications carried over from a prior session, keyed by
/// (model, plan remapped onto the *new* session's trace). Sessions
/// consult it before replaying anything.
#[derive(Debug, Default)]
pub struct ClassificationCache {
    entries: HashMap<(&'static str, PlanKey), FaultClass>,
}

impl ClassificationCache {
    /// The prior classification for `plan` under `model`, when the seed
    /// plan proved it still valid.
    pub fn lookup(&self, model: &'static str, plan: &FaultPlan) -> Option<FaultClass> {
        self.entries.get(&(model, PlanKey::of(plan))).copied()
    }

    /// Number of carried-over classifications.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was carried over.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Counters of how a session's fault evaluations were served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Fault evaluations answered from the [`ClassificationCache`]
    /// without executing anything.
    pub sites_reused: usize,
    /// Fault evaluations that replayed and ran the faulted machine.
    pub sites_replayed: usize,
}

impl ReuseStats {
    /// Merges two counters (e.g. across a loop's sessions).
    #[must_use]
    pub fn merge(self, other: ReuseStats) -> ReuseStats {
        ReuseStats {
            sites_reused: self.sites_reused + other.sites_reused,
            sites_replayed: self.sites_replayed + other.sites_replayed,
        }
    }

    /// Fraction of evaluations served from the cache, in percent.
    pub fn reuse_percent(&self) -> f64 {
        let total = self.sites_reused + self.sites_replayed;
        if total == 0 {
            return 0.0;
        }
        self.sites_reused as f64 / total as f64 * 100.0
    }
}

impl fmt::Display for ReuseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reused, {} replayed ({:.1}% of fault evaluations reused)",
            self.sites_reused,
            self.sites_replayed,
            self.reuse_percent()
        )
    }
}

/// Aligns the seed's trace with `new_trace` through `delta` and returns
/// the classifications that stay valid, rekeyed to new trace steps.
/// `new_fingerprint` is the new session's oracle fingerprint;
/// `new_budget` its faulted-run step budget. Per-guard invalidation
/// reasons are reported through `telemetry`
/// ([`Counter::InvalidatedFingerprint`], [`Counter::InvalidatedBudget`],
/// [`Counter::InvalidatedLayout`], [`Counter::InvalidatedDirty`] — one
/// count per seed result dropped).
pub(crate) fn plan(
    seed: &CampaignSeed,
    delta: &ListingDelta,
    new_trace: &[u64],
    new_fingerprint: Option<u64>,
    new_budget: u64,
    telemetry: &Telemetry,
) -> ClassificationCache {
    let trace_len = new_trace.len() as u64;
    let seed_results = || seed.reports.iter().map(|r| r.results.len() as u64).sum::<u64>();
    // A changed (or absent) oracle judgment invalidates everything.
    let (Some(old_print), Some(new_print)) = (seed.oracle_fingerprint, new_fingerprint) else {
        telemetry.count(Counter::InvalidatedFingerprint, seed_results());
        return ClassificationCache::default();
    };
    if old_print != new_print {
        telemetry.count(Counter::InvalidatedFingerprint, seed_results());
        return ClassificationCache::default();
    }

    // Walk both traces in lockstep. Old steps whose instruction the delta
    // changed and new steps executing inserted code consume one side only
    // and mark the spot dirty; everything else must remap exactly, or the
    // traces diverged structurally and the remainder is dirty wholesale.
    let old_trace = &seed.trace;
    let mut old_step_for: Vec<Option<u64>> = vec![None; new_trace.len()];
    let mut dirty: Vec<u64> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old_trace.len() && j < new_trace.len() {
        if delta.remap(old_trace[i]) == Some(new_trace[j]) {
            old_step_for[j] = Some(i as u64);
            i += 1;
            j += 1;
        } else if delta.is_inserted(new_trace[j]) {
            dirty.push(j as u64);
            j += 1;
        } else if delta.is_changed(old_trace[i]) {
            dirty.push(j as u64);
            i += 1;
        } else {
            break; // structural divergence: nothing further aligns
        }
    }
    dirty.extend((j..new_trace.len()).map(|k| k as u64));
    for slot in &mut old_step_for[j..] {
        *slot = None;
    }
    if i < old_trace.len() && j >= new_trace.len() {
        // The old trace continued past the alignment: the final aligned
        // region's downstream differs, guard it.
        dirty.push(trace_len.saturating_sub(1));
    }

    // A site is reusable when it aligned and no dirty step falls within
    // the guard radius.
    let clean = |step: u64| {
        let at = dirty.partition_point(|&d| d < step.saturating_sub(REUSE_GUARD_WINDOW));
        dirty.get(at).is_none_or(|&d| d > step.saturating_add(REUSE_GUARD_WINDOW))
    };
    let reusable = |j: u64| old_step_for[j as usize].is_some() && clean(j);

    // Invert the alignment: old step → new step.
    let mut new_step_for: Vec<Option<u64>> = vec![None; old_trace.len()];
    for (j, old_step) in old_step_for.iter().enumerate() {
        if let Some(i) = old_step {
            new_step_for[*i as usize] = Some(j as u64);
        }
    }

    let budget_changed = seed.faulted_budget != new_budget;
    let noop_delta = delta.is_noop();
    let mut cache = ClassificationCache::default();
    // Carry prior classifications whose *whole plan* survives: every
    // injection must remap onto a reusable new step, and every effect
    // must pass its reuse guard — conjunctively, since one invalidated
    // injection invalidates the run it participated in.
    for report in &seed.reports {
        for result in &report.results {
            let remapped: Option<Vec<(u64, FaultEffect)>> = result
                .plan
                .iter()
                .map(|fault| {
                    new_step_for
                        .get(fault.step as usize)
                        .copied()
                        .flatten()
                        .filter(|&j| reusable(j))
                        .map(|j| (j, fault.effect))
                })
                .collect();
            let Some(remapped) = remapped else {
                // Some injection fell on dirty or vanished code.
                telemetry.count(Counter::InvalidatedDirty, 1);
                continue;
            };
            let effects_reusable = result.plan.iter().all(|fault| match fault.effect {
                // Bit-level corruption of *values* is layout-sensitive
                // and reusable only under a no-op delta: an encoding
                // flip can conjure a branch that lands wherever the
                // corrupted offset points, and a register flip can XOR
                // an absolute code/data address (return targets,
                // `mov r, label` materializations) — neither commutes
                // with the address shift a patch introduces. Skips and
                // flag flips, by contrast, only select among genuine
                // program paths, which the old and new binaries relate
                // by exact relocation correspondence.
                FaultEffect::FlipInstructionBit { .. } | FaultEffect::FlipRegisterBit { .. } => {
                    noop_delta
                }
                FaultEffect::SkipInstruction | FaultEffect::FlipFlags { .. } => true,
            });
            let cacheable =
                effects_reusable && !(budget_changed && result.class == FaultClass::TimedOut);
            if !cacheable {
                telemetry.count(
                    if effects_reusable {
                        Counter::InvalidatedBudget
                    } else {
                        Counter::InvalidatedLayout
                    },
                    1,
                );
                continue;
            }
            cache.entries.insert((report.model, PlanKey::from_steps(remapped)), result.class);
        }
    }
    cache
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FaultResult;
    use crate::site::Fault;

    fn seed_with(trace: Vec<u64>, results: Vec<FaultResult>) -> CampaignSeed {
        CampaignSeed {
            trace,
            reports: vec![CampaignReport::new("instruction-skip", results)],
            oracle_fingerprint: Some(7),
            faulted_budget: 10_000,
        }
    }

    fn skip_at(step: u64, pc: u64) -> Fault {
        Fault { step, pc, effect: FaultEffect::SkipInstruction }
    }

    fn skip_plan(step: u64, pc: u64) -> FaultPlan {
        FaultPlan::single(skip_at(step, pc))
    }

    #[test]
    fn identity_delta_reuses_everything() {
        let trace: Vec<u64> = (0..200).map(|k| 0x1000 + k * 4).collect();
        let results: Vec<FaultResult> = trace
            .iter()
            .enumerate()
            .map(|(step, &pc)| FaultResult::single(skip_at(step as u64, pc), FaultClass::Benign))
            .collect();
        let seed = seed_with(trace.clone(), results);
        let cache =
            plan(&seed, &ListingDelta::identity(), &trace, Some(7), 10_000, &Telemetry::default());
        assert_eq!(cache.len(), 200);
        assert_eq!(
            cache.lookup("instruction-skip", &skip_plan(3, trace[3])),
            Some(FaultClass::Benign)
        );
        assert_eq!(cache.lookup("single-bit-flip", &skip_plan(3, trace[3])), None);
    }

    #[test]
    fn pair_plans_reuse_and_rekey_as_whole_plans() {
        let trace: Vec<u64> = (0..100).map(|k| 0x1000 + k * 4).collect();
        let pair = FaultPlan::new([skip_at(10, trace[10]), skip_at(20, trace[20])]);
        let results = vec![
            FaultResult { plan: pair.clone(), class: FaultClass::Success },
            FaultResult::single(skip_at(10, trace[10]), FaultClass::Benign),
        ];
        let seed = seed_with(trace.clone(), results);
        let cache =
            plan(&seed, &ListingDelta::identity(), &trace, Some(7), 10_000, &Telemetry::default());
        assert_eq!(cache.len(), 2);
        // The pair answers as a pair; its singleton prefix answers as a
        // singleton; a different pairing misses.
        assert_eq!(cache.lookup("instruction-skip", &pair), Some(FaultClass::Success));
        assert_eq!(
            cache.lookup("instruction-skip", &skip_plan(10, trace[10])),
            Some(FaultClass::Benign)
        );
        assert_eq!(
            cache.lookup(
                "instruction-skip",
                &FaultPlan::new([skip_at(10, trace[10]), skip_at(21, trace[21])])
            ),
            None
        );
        assert_eq!(cache.lookup("instruction-skip", &skip_plan(20, trace[20])), None);
    }

    #[test]
    fn fingerprint_mismatch_invalidates_everything() {
        let trace: Vec<u64> = (0..50).map(|k| 0x1000 + k * 4).collect();
        let results = vec![FaultResult::single(skip_at(0, 0x1000), FaultClass::Success)];
        let seed = seed_with(trace.clone(), results);
        for new_print in [Some(8), None] {
            let cache = plan(
                &seed,
                &ListingDelta::identity(),
                &trace,
                new_print,
                10_000,
                &Telemetry::default(),
            );
            assert!(cache.is_empty());
        }
    }

    #[test]
    fn changed_budget_drops_only_timed_out_entries() {
        let trace: Vec<u64> = (0..300).map(|k| 0x1000 + k * 4).collect();
        let results = vec![
            FaultResult::single(skip_at(10, trace[10]), FaultClass::Benign),
            FaultResult::single(skip_at(200, trace[200]), FaultClass::TimedOut),
        ];
        let seed = seed_with(trace.clone(), results);
        let unchanged =
            plan(&seed, &ListingDelta::identity(), &trace, Some(7), 10_000, &Telemetry::default());
        assert_eq!(unchanged.len(), 2);

        let moved =
            plan(&seed, &ListingDelta::identity(), &trace, Some(7), 20_000, &Telemetry::default());
        assert_eq!(
            moved.lookup("instruction-skip", &skip_plan(10, trace[10])),
            Some(FaultClass::Benign)
        );
        assert_eq!(moved.lookup("instruction-skip", &skip_plan(200, trace[200])), None);
    }

    #[test]
    fn layout_sensitive_effects_reuse_only_across_noop_deltas() {
        use rr_isa::Reg;
        // A real shifting delta: disassemble a straight-line program,
        // insert a nop before its final instruction (more than
        // REUSE_GUARD_WINDOW steps after the probed site), reassemble.
        let movs: String = (0..16).map(|k| format!("    mov r1, {k}\n")).collect();
        let exe =
            rr_asm::assemble_and_link(&format!("    .global _start\n_start:\n{movs}    svc 0\n"))
                .unwrap();
        let listing = rr_disasm::disassemble(&exe).unwrap().listing;
        let mut patched = listing.clone();
        let last =
            patched.text.iter().rposition(|l| matches!(l, rr_disasm::Line::Code { .. })).unwrap();
        patched.text.insert(
            last,
            rr_disasm::Line::Code {
                orig_addr: None,
                insn: rr_disasm::SymInstr::Plain(rr_isa::Instr::Nop),
            },
        );
        let rebuilt = rr_asm::assemble_and_link(&patched.to_source()).unwrap();
        let delta = ListingDelta::compute(&listing, &exe, &patched, &rebuilt).unwrap();
        assert!(!delta.is_noop(), "the nop shifts the tail");

        // The straight-line traces: every instruction in order, with the
        // inserted nop executing right before the final one in the new
        // binary.
        let old_trace: Vec<u64> = listing.original_code().map(|(_, a, _)| a).collect();
        let nop_addr = delta.inserted_ranges()[0].start;
        let mut new_trace: Vec<u64> =
            old_trace.iter().map(|&a| delta.remap(a).expect("carried over")).collect();
        new_trace.insert(new_trace.len() - 1, nop_addr);
        let insertion_step = (new_trace.len() - 2) as u64;
        assert!(insertion_step > REUSE_GUARD_WINDOW, "probe site must sit outside the guard");

        let effects = [
            FaultEffect::SkipInstruction,
            FaultEffect::FlipFlags { mask: 1 },
            FaultEffect::FlipRegisterBit { reg: Reg::R1, bit: 6 },
            FaultEffect::FlipInstructionBit { byte: 0, bit: 3 },
        ];
        let results: Vec<FaultResult> = effects
            .iter()
            .map(|&effect| {
                FaultResult::single(Fault { step: 0, pc: old_trace[0], effect }, FaultClass::Benign)
            })
            .collect();
        let seed = CampaignSeed {
            trace: old_trace.clone(),
            reports: vec![CampaignReport::new("mixed", results)],
            oracle_fingerprint: Some(7),
            faulted_budget: 10_000,
        };
        let cache = plan(&seed, &delta, &new_trace, Some(7), 10_000, &Telemetry::default());

        // Path-selection effects carry over; value-corruption effects do
        // not (they're layout-sensitive and the delta shifts addresses).
        let lookup = |effect| {
            cache.lookup("mixed", &FaultPlan::single(Fault { step: 0, pc: new_trace[0], effect }))
        };
        assert_eq!(lookup(FaultEffect::SkipInstruction), Some(FaultClass::Benign));
        assert_eq!(lookup(FaultEffect::FlipFlags { mask: 1 }), Some(FaultClass::Benign));
        assert_eq!(lookup(FaultEffect::FlipRegisterBit { reg: Reg::R1, bit: 6 }), None);
        assert_eq!(lookup(FaultEffect::FlipInstructionBit { byte: 0, bit: 3 }), None);

        // A pair mixing a reusable and a layout-sensitive effect is
        // invalidated conjunctively: one bad injection poisons the plan.
        let mixed_pair = FaultPlan::new([
            Fault { step: 0, pc: old_trace[0], effect: FaultEffect::SkipInstruction },
            Fault {
                step: 2,
                pc: old_trace[2],
                effect: FaultEffect::FlipInstructionBit { byte: 0, bit: 3 },
            },
        ]);
        let pair_seed = CampaignSeed {
            trace: old_trace.clone(),
            reports: vec![CampaignReport::new(
                "mixed",
                vec![FaultResult { plan: mixed_pair, class: FaultClass::Benign }],
            )],
            oracle_fingerprint: Some(7),
            faulted_budget: 10_000,
        };
        let pair_cache =
            plan(&pair_seed, &delta, &new_trace, Some(7), 10_000, &Telemetry::default());
        assert!(pair_cache.is_empty(), "a layout-sensitive leg poisons the whole pair");

        // Under an identity delta everything is reusable.
        let identity = plan2_identity(&seed, &old_trace);
        for effect in effects {
            assert_eq!(
                identity.lookup(
                    "mixed",
                    &FaultPlan::single(Fault { step: 0, pc: old_trace[0], effect })
                ),
                Some(FaultClass::Benign),
                "{effect:?}"
            );
        }
    }

    fn plan2_identity(seed: &CampaignSeed, trace: &[u64]) -> ClassificationCache {
        plan(seed, &ListingDelta::identity(), trace, Some(7), 10_000, &Telemetry::default())
    }

    #[test]
    fn reuse_stats_render_and_merge() {
        let a = ReuseStats { sites_reused: 3, sites_replayed: 1 };
        let b = ReuseStats { sites_reused: 1, sites_replayed: 3 };
        let merged = a.merge(b);
        assert_eq!(merged, ReuseStats { sites_reused: 4, sites_replayed: 4 });
        assert!((merged.reuse_percent() - 50.0).abs() < 1e-9);
        assert_eq!(ReuseStats::default().reuse_percent(), 0.0);
        let text = merged.to_string();
        assert!(text.contains("4 reused") && text.contains("50.0%"), "{text}");
    }

    proptest::proptest! {
        /// `ReuseStats::merge` is a commutative monoid: associative, with
        /// `ReuseStats::default()` as the identity — the properties the
        /// hardening loop's per-session accounting and the metrics
        /// layer's loop-wide accounting rely on.
        #[test]
        fn reuse_stats_merge_is_associative_with_identity(
            ar in 0usize..1_000_000, ap in 0usize..1_000_000,
            br in 0usize..1_000_000, bp in 0usize..1_000_000,
            cr in 0usize..1_000_000, cp in 0usize..1_000_000,
        ) {
            let a = ReuseStats { sites_reused: ar, sites_replayed: ap };
            let b = ReuseStats { sites_reused: br, sites_replayed: bp };
            let c = ReuseStats { sites_reused: cr, sites_replayed: cp };
            proptest::prop_assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
            proptest::prop_assert_eq!(a.merge(b), b.merge(a));
            proptest::prop_assert_eq!(a.merge(ReuseStats::default()), a);
            proptest::prop_assert_eq!(ReuseStats::default().merge(a), a);
        }
    }

    #[test]
    fn plan_reports_per_guard_invalidation_reasons() {
        use rr_telemetry::Counter;
        let trace = vec![0x1000u64, 0x1004, 0x1008];
        let results = vec![
            FaultResult::single(skip_at(0, 0x1000), FaultClass::Benign),
            FaultResult::single(skip_at(1, 0x1004), FaultClass::TimedOut),
        ];

        // A fingerprint mismatch drops every seed result.
        let t = Telemetry::counters();
        let seed = seed_with(trace.clone(), results.clone());
        let fp = plan(&seed, &ListingDelta::identity(), &trace, Some(8), 10_000, &t);
        assert!(fp.is_empty());
        assert_eq!(t.metrics().unwrap().counter(Counter::InvalidatedFingerprint), 2);

        // A changed faulted budget drops only the TimedOut entry.
        let t = Telemetry::counters();
        let seed = seed_with(trace.clone(), results.clone());
        let budget = plan(&seed, &ListingDelta::identity(), &trace, Some(7), 20_000, &t);
        assert_eq!(budget.len(), 1);
        let m = t.metrics().unwrap();
        assert_eq!(m.counter(Counter::InvalidatedBudget), 1);
        assert_eq!(m.counter(Counter::InvalidatedFingerprint), 0);

        // A structurally different trace invalidates by dirtiness.
        let t = Telemetry::counters();
        let seed = seed_with(trace.clone(), results);
        let moved =
            plan(&seed, &ListingDelta::identity(), &[0x2000, 0x2004, 0x2008], Some(7), 10_000, &t);
        assert!(moved.is_empty());
        assert_eq!(t.metrics().unwrap().counter(Counter::InvalidatedDirty), 2);
    }
}
