//! Campaign results: per-plan classifications, per-model reports, and
//! streamed summaries.

use crate::site::{Fault, FaultClass, FaultPlan};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One evaluated injection plan and its classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultResult {
    /// The injected plan (a single fault in order-1 campaigns).
    pub plan: FaultPlan,
    /// How the oracle classified the faulted run.
    pub class: FaultClass,
}

impl FaultResult {
    /// Wraps a single-fault classification (order-1 convenience).
    pub fn single(fault: Fault, class: FaultClass) -> FaultResult {
        FaultResult { plan: FaultPlan::single(fault), class }
    }

    /// The plan's earliest injection — for order-1 campaigns, *the*
    /// fault.
    pub fn fault(&self) -> &Fault {
        self.plan.first()
    }

    /// Number of injections in the plan.
    pub fn order(&self) -> usize {
        self.plan.order()
    }
}

/// Per-class counts of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Total faults evaluated.
    pub total: usize,
    /// Successful faults (vulnerabilities).
    pub success: usize,
    /// Faults with no attacker-relevant effect.
    pub benign: usize,
    /// Faulted runs that crashed.
    pub crashed: usize,
    /// Faulted runs that hung.
    pub timed_out: usize,
    /// Normal exits matching neither golden behaviour.
    pub corrupted: usize,
    /// Replays that failed to reach the injection point (determinism
    /// violations; always 0 for well-formed campaigns).
    pub diverged: usize,
}

impl Summary {
    /// Streams one classification into the counts.
    pub fn record(&mut self, class: FaultClass) {
        self.total += 1;
        match class {
            FaultClass::Success => self.success += 1,
            FaultClass::Benign => self.benign += 1,
            FaultClass::Crashed => self.crashed += 1,
            FaultClass::TimedOut => self.timed_out += 1,
            FaultClass::Corrupted => self.corrupted += 1,
            FaultClass::ReplayDiverged => self.diverged += 1,
        }
    }

    /// Combines two partial summaries, e.g. of separate runs.
    #[must_use]
    pub fn merge(self, other: Summary) -> Summary {
        Summary {
            total: self.total + other.total,
            success: self.success + other.success,
            benign: self.benign + other.benign,
            crashed: self.crashed + other.crashed,
            timed_out: self.timed_out + other.timed_out,
            corrupted: self.corrupted + other.corrupted,
            diverged: self.diverged + other.diverged,
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults: {} success, {} benign, {} crashed, {} timed-out, {} corrupted",
            self.total, self.success, self.benign, self.crashed, self.timed_out, self.corrupted
        )?;
        if self.diverged > 0 {
            write!(f, ", {} replay-diverged", self.diverged)?;
        }
        Ok(())
    }
}

/// The outcome of running one fault model against one binary.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Name of the fault model that was simulated.
    pub model: &'static str,
    /// Every evaluated fault, in site order.
    pub results: Vec<FaultResult>,
    /// Plans the static analysis pruned before execution, per order
    /// (`(order, pruned)`; all zeros when pruning was off). Pruned plans
    /// are provably benign — they are not in `results`, and the
    /// successes are identical to an unpruned campaign's.
    pub pruned_by_order: Vec<(usize, u128)>,
    /// Statically-benign plans that classified as something other than
    /// [`FaultClass::Benign`] under `--audit-analysis` — analysis
    /// soundness violations. Always empty outside audit mode (and, if
    /// the analysis is sound, inside it).
    pub audit_failures: Vec<FaultResult>,
}

impl CampaignReport {
    /// A report with no pruning or audit metadata (convenient for tests
    /// and cache seeding).
    pub fn new(model: &'static str, results: Vec<FaultResult>) -> CampaignReport {
        CampaignReport { model, results, pruned_by_order: Vec::new(), audit_failures: Vec::new() }
    }

    /// Number of results in the given class.
    pub fn count(&self, class: FaultClass) -> usize {
        self.results.iter().filter(|r| r.class == class).count()
    }

    /// Total plans the static analysis pruned (all orders).
    pub fn plans_pruned_static(&self) -> u128 {
        self.pruned_by_order.iter().map(|&(_, pruned)| pruned).sum()
    }

    /// The successful plans — the vulnerability list handed to the
    /// patcher.
    pub fn vulnerabilities(&self) -> Vec<FaultResult> {
        self.results.iter().filter(|r| r.class == FaultClass::Success).cloned().collect()
    }

    /// Distinct instruction addresses involved in at least one successful
    /// plan — the set of *program points* the patcher must protect. For
    /// a multi-fault success every injection's address is included: a
    /// double fault is only defeated once one of its two targets is
    /// hardened past it.
    pub fn vulnerable_pcs(&self) -> BTreeSet<u64> {
        self.results
            .iter()
            .filter(|r| r.class == FaultClass::Success)
            .flat_map(|r| r.plan.iter().map(|f| f.pc))
            .collect()
    }

    /// Aggregated per-class counts.
    pub fn summary(&self) -> Summary {
        let mut s = Summary::default();
        for r in &self.results {
            s.record(r.class);
        }
        s
    }

    /// Per-class counts split by plan order (1 = single fault), in
    /// ascending order — how much of the damage needs a double (triple,
    /// …) fault.
    pub fn summary_by_order(&self) -> Vec<(usize, Summary)> {
        let mut by_order: BTreeMap<usize, Summary> = BTreeMap::new();
        for r in &self.results {
            by_order.entry(r.order()).or_default().record(r.class);
        }
        by_order.into_iter().collect()
    }

    /// Successful plans of exactly `order` injections.
    pub fn successes_of_order(&self, order: usize) -> usize {
        self.results.iter().filter(|r| r.class == FaultClass::Success && r.order() == order).count()
    }

    /// The highest plan order this report evaluated (0 for an empty
    /// report).
    pub fn max_order(&self) -> usize {
        self.results.iter().map(FaultResult::order).max().unwrap_or(0)
    }
}

/// A streamed [`Summary`] for one fault model — what the
/// [`Stream`](crate::Stream) sink yields instead of a materialized
/// [`CampaignReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSummary {
    /// Name of the fault model that was simulated.
    pub model: &'static str,
    /// Aggregated per-class counts.
    pub summary: Summary,
}

impl fmt::Display for ModelSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.model, self.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_records_and_merges_every_class() {
        let mut a = Summary::default();
        for class in FaultClass::ALL {
            a.record(class);
        }
        assert_eq!(a.total, 6);
        assert_eq!(
            a.total,
            a.success + a.benign + a.crashed + a.timed_out + a.corrupted + a.diverged
        );
        let merged = a.merge(a);
        assert_eq!(merged.total, 12);
        assert_eq!(merged.diverged, 2);
        assert!(merged.to_string().contains("replay-diverged"));
        assert!(!Summary::default().to_string().contains("replay-diverged"));
    }

    #[test]
    fn model_summary_displays_its_model() {
        let ms = ModelSummary { model: "instruction-skip", summary: Summary::default() };
        assert!(ms.to_string().starts_with("instruction-skip: "));
    }

    #[test]
    fn per_order_summaries_split_the_report() {
        use crate::site::{Fault, FaultEffect, FaultPlan};
        let skip =
            |step: u64| Fault { step, pc: 0x1000 + step * 4, effect: FaultEffect::SkipInstruction };
        let report = CampaignReport::new(
            "instruction-skip",
            vec![
                FaultResult::single(skip(0), FaultClass::Benign),
                FaultResult::single(skip(1), FaultClass::Success),
                FaultResult {
                    plan: FaultPlan::new([skip(0), skip(5)]),
                    class: FaultClass::Success,
                },
                FaultResult {
                    plan: FaultPlan::new([skip(2), skip(6)]),
                    class: FaultClass::Crashed,
                },
            ],
        );
        assert_eq!(report.max_order(), 2);
        assert_eq!(report.successes_of_order(1), 1);
        assert_eq!(report.successes_of_order(2), 1);
        let by_order = report.summary_by_order();
        assert_eq!(by_order.len(), 2);
        assert_eq!(by_order[0].0, 1);
        assert_eq!(by_order[0].1.total, 2);
        assert_eq!(by_order[1].0, 2);
        assert_eq!(by_order[1].1.crashed, 1);
        // The pair success contributes both of its pcs.
        let pcs = report.vulnerable_pcs();
        assert!(pcs.contains(&skip(0).pc) && pcs.contains(&skip(5).pc));
        assert_eq!(report.vulnerabilities().len(), 2);
        // Order-1 accessors still read like the single-fault API.
        let first = &report.results[1];
        assert_eq!(first.fault().step, 1);
        assert_eq!(first.order(), 1);
    }
}
