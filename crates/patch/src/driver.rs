//! The Faulter+Patcher fixed-point loop (paper Fig. 2).

use crate::patterns::{apply_patterns, PatchStats};
use rr_asm::BuildError;
use rr_disasm::{DisasmError, ListingDelta, SymbolizationPolicy};
use rr_emu::{execute, Execution};
use rr_fault::{
    CampaignConfig, CampaignEngine, CampaignError, CampaignReport, CampaignSeed, CampaignSession,
    Collect, FaultModel, ReuseStats, Summary,
};
use rr_obj::Executable;
use rr_telemetry::{MetricsSnapshot, Telemetry};
use std::fmt;
use std::sync::Arc;

/// Configuration of the hardening loop.
#[derive(Debug, Clone)]
pub struct HardenConfig {
    /// Maximum faulter+patcher iterations before giving up.
    pub max_iterations: usize,
    /// Symbolization policy for the disassembly step.
    pub policy: SymbolizationPolicy,
    /// Campaign settings (step budgets, threads, pruning, …). The loop
    /// overwrites three of them from this config's own fields:
    /// `campaign.plan` is rebuilt from [`HardenConfig::fault_order`],
    /// `pair_window`, `plan_budget` and `sample_seed`; `campaign.engine`
    /// is [`HardenConfig::engine`]; and with `parallel: false`,
    /// `campaign.threads` is 1.
    pub campaign: CampaignConfig,
    /// Run campaigns in parallel.
    pub parallel: bool,
    /// Campaign execution engine. The default checkpointed engine makes
    /// every faulter iteration ~√T cheaper on a `T`-step trace while
    /// classifying identically to the naive engine.
    pub engine: CampaignEngine,
    /// Incremental re-campaigning (**on by default**): after every
    /// rewrite, compute the [`ListingDelta`] of the patch and seed the
    /// next campaign session with the prior classifications
    /// ([`rr_fault::CampaignSessionBuilder::seed_from`]). Sites the patch
    /// provably left alone reuse their prior [`rr_fault::FaultClass`]
    /// without executing anything; only plans near the touched code are
    /// re-run. Classifications are bit-identical to
    /// full re-campaigning — the invariance test suite pins it across
    /// every workload × fault model — and [`LoopOutcome::sites_reused`]
    /// reports the work saved. Disable (`rr harden --no-incremental`)
    /// only to measure the unseeded baseline.
    pub incremental: bool,
    /// Maximum injections per evaluated plan (≥ 1). At order `k` every
    /// campaign in the loop evaluates all plans of 1..=k injections the
    /// pair policy admits, the patcher protects every program point
    /// involved in a successful plan, and the loop iterates until no
    /// order-≤k `Success` remains or `max_iterations` is hit.
    pub fault_order: usize,
    /// Maximum step gap between consecutive injections of a multi-fault
    /// plan ([`rr_fault::PairPolicy::WithinWindow`]); `None` = unbounded
    /// pairing ([`rr_fault::PairPolicy::Pairs`]).
    pub pair_window: Option<u64>,
    /// Cap on enumerated plans per model per order above 1, sampled
    /// deterministically from [`HardenConfig::sample_seed`] when the
    /// exhaustive space is larger; `None` = exhaustive.
    pub plan_budget: Option<usize>,
    /// Seed for budgeted plan sampling — fix it to make sampled
    /// multi-fault hardening runs reproducible.
    pub sample_seed: u64,
    /// Telemetry handle attached to every campaign session the loop
    /// builds. The default disabled handle costs nothing; pass
    /// [`Telemetry::counters`] or [`Telemetry::timed`] to collect
    /// per-iteration metrics ([`LoopOutcome::iteration_metrics`]) and a
    /// whole-loop snapshot ([`LoopOutcome::metrics`]).
    pub telemetry: Telemetry,
}

impl Default for HardenConfig {
    fn default() -> Self {
        HardenConfig {
            max_iterations: 10,
            policy: SymbolizationPolicy::DataAccessRefined,
            campaign: CampaignConfig::default(),
            parallel: true,
            engine: CampaignEngine::default(),
            incremental: true,
            fault_order: 1,
            pair_window: None,
            plan_budget: None,
            sample_seed: 0,
            telemetry: Telemetry::default(),
        }
    }
}

/// One iteration of the loop, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationReport {
    /// 0-based iteration index.
    pub iteration: usize,
    /// Vulnerabilities (successful faults) found by the campaign.
    pub vulnerabilities: usize,
    /// Distinct vulnerable program points.
    pub vulnerable_sites: usize,
    /// Patch application outcome.
    pub stats: PatchStats,
    /// Code size after this iteration's patch, in bytes.
    pub code_size: u64,
    /// Per-class counts of this iteration's campaign — the full
    /// classification signature, for comparing incremental and full
    /// re-campaign runs.
    pub summary: Summary,
}

/// Result of running the loop to a fixed point.
#[derive(Debug, Clone)]
pub struct LoopOutcome {
    /// The original binary's code size in bytes.
    pub original_code_size: u64,
    /// The hardened binary.
    pub hardened: Executable,
    /// Per-iteration reports, in order.
    pub iterations: Vec<IterationReport>,
    /// `true` when the final campaign found no *fixable* vulnerabilities
    /// left (the paper's "no more faults are present or can be fixed").
    pub fixed_point: bool,
    /// Successful plans remaining against the final binary, all orders.
    pub residual_vulnerabilities: usize,
    /// Residual successful plans split by plan order: index `k` holds
    /// the order-`k+1` count, up to [`HardenConfig::fault_order`]. An
    /// order-2 run that drove the singles to zero but not the pairs
    /// reports `[0, n]`.
    pub residual_by_order: Vec<usize>,
    /// Campaign sessions built across the whole loop (including the
    /// final re-measurement ones).
    pub campaigns: usize,
    /// Good-input golden executions those sessions performed. Always 1:
    /// the first session runs the good input once, and every later
    /// session reuses that behaviour as a trusted golden
    /// ([`rr_fault::CampaignSessionBuilder::golden_good`]) — sound
    /// because each patch is verified to preserve both golden behaviours
    /// before the next campaign.
    pub golden_good_runs: usize,
    /// Fault evaluations served from carried-over classifications across
    /// the whole loop ([`HardenConfig::incremental`]); 0 for full
    /// re-campaigning.
    pub sites_reused: usize,
    /// Fault evaluations that actually replayed and executed.
    pub sites_replayed: usize,
    /// Whole-loop metrics snapshot, taken after the final campaign;
    /// `None` when [`HardenConfig::telemetry`] is disabled.
    pub metrics: Option<MetricsSnapshot>,
    /// Per-iteration metrics deltas: one entry per faulter campaign the
    /// loop ran, in order (the final fixed-point campaign included, so
    /// this can be one longer than [`LoopOutcome::iterations`]; the
    /// post-loop re-measurement campaigns are only reflected in
    /// [`LoopOutcome::metrics`]). Empty when telemetry is disabled.
    pub iteration_metrics: Vec<MetricsSnapshot>,
}

impl LoopOutcome {
    /// Code-size overhead of the hardened binary in percent — the
    /// Faulter+Patcher column of the paper's Table V.
    pub fn overhead_percent(&self) -> f64 {
        let original = self.original_code_size as f64;
        (self.hardened.code_size() as f64 - original) / original * 100.0
    }
}

/// Why hardening failed.
#[derive(Debug)]
pub enum HardenError {
    /// The initial campaign could not be set up.
    Campaign(CampaignError),
    /// The binary could not be disassembled.
    Disasm(DisasmError),
    /// A patched listing failed to reassemble.
    Rebuild(BuildError),
    /// A patch changed the program's behaviour on the golden inputs —
    /// the rewrite was unsound.
    BehaviorChanged {
        /// Iteration at which the divergence appeared.
        iteration: usize,
    },
}

impl fmt::Display for HardenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardenError::Campaign(e) => write!(f, "campaign setup failed: {e}"),
            HardenError::Disasm(e) => write!(f, "disassembly failed: {e}"),
            HardenError::Rebuild(e) => write!(f, "reassembly failed: {e}"),
            HardenError::BehaviorChanged { iteration } => {
                write!(f, "patch changed golden behaviour at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for HardenError {}

impl From<CampaignError> for HardenError {
    fn from(e: CampaignError) -> Self {
        HardenError::Campaign(e)
    }
}

impl From<DisasmError> for HardenError {
    fn from(e: DisasmError) -> Self {
        HardenError::Disasm(e)
    }
}

impl From<BuildError> for HardenError {
    fn from(e: BuildError) -> Self {
        HardenError::Rebuild(e)
    }
}

/// Golden-run state carried across the loop's campaign sessions: the
/// `Arc`-shared inputs (derived once) and, after the first session, the
/// trusted golden-good behaviour every later session reuses plus the
/// original binary's golden-bad behaviour (the soundness reference).
/// In incremental mode it also carries the prior session's
/// classifications and the listing delta pointing at the next binary.
#[derive(Debug)]
struct SessionSeed {
    good: Arc<[u8]>,
    bad: Arc<[u8]>,
    golden_good: Option<Execution>,
    golden_bad: Option<Execution>,
    campaigns: usize,
    golden_good_runs: usize,
    reuse: ReuseStats,
    carry: Option<IncrementalCarry>,
}

/// What one finished campaign hands to the next in incremental mode.
#[derive(Debug)]
struct IncrementalCarry {
    /// The finished session's trace + classifications.
    seed: CampaignSeed,
    /// The rewrite separating that session's binary from the carry's
    /// target binary (identity until a patch retargets it).
    delta: ListingDelta,
    /// Text bytes of the target binary — the carry only seeds a campaign
    /// on exactly that binary (the loop can re-measure older iterates,
    /// which must re-campaign in full).
    text: Vec<u8>,
}

/// The simulation-driven, iterative hardening driver (paper Fig. 2):
/// faulter → patcher → reassemble → faulter … until no fixable
/// vulnerability remains.
#[derive(Debug, Clone, Default)]
pub struct FaulterPatcher {
    config: HardenConfig,
}

impl FaulterPatcher {
    /// Creates a driver with the given configuration.
    pub fn new(config: HardenConfig) -> FaulterPatcher {
        FaulterPatcher { config }
    }

    /// Current metrics of the driver's [`HardenConfig::telemetry`]
    /// handle; `None` when telemetry is disabled.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.config.telemetry.metrics()
    }

    /// Campaign settings with `parallel: false` honoured (a single
    /// worker thread evaluates inline), the engine choice passed
    /// down — so naive-engine hardening loops skip snapshot recording
    /// and its memory cost — and the multi-fault plan space derived from
    /// [`HardenConfig::fault_order`]/`pair_window`/`plan_budget`.
    fn campaign_config(&self) -> CampaignConfig {
        let mut config = self.config.campaign.clone();
        if !self.config.parallel {
            config.threads = 1;
        }
        config.engine = self.config.engine;
        config.plan = rr_fault::PlanConfig {
            order: self.config.fault_order.max(1),
            policy: match self.config.pair_window {
                Some(max_gap) => rr_fault::PairPolicy::WithinWindow { max_gap },
                None => rr_fault::PairPolicy::Pairs,
            },
            budget: self.config.plan_budget,
            seed: self.config.sample_seed,
        };
        config
    }

    /// Builds one campaign session on `exe`, reusing the seed's trusted
    /// golden-good behaviour when one is available — and, in incremental
    /// mode, the prior session's classifications when the carry targets
    /// exactly this binary — and runs `model`.
    fn campaign(
        &self,
        exe: &Executable,
        seed: &mut SessionSeed,
        model: &dyn FaultModel,
    ) -> Result<CampaignReport, CampaignError> {
        let mut builder = CampaignSession::builder(exe.clone())
            .good_input(seed.good.clone())
            .bad_input(seed.bad.clone())
            .config(self.campaign_config())
            .telemetry(self.config.telemetry.clone());
        if let Some(golden) = seed.golden_good.clone() {
            builder = builder.golden_good(golden);
        }
        if let Some(carry) = seed.carry.take() {
            if carry.text == exe.text_bytes() {
                builder = builder.seed_from(carry.seed, &carry.delta);
            }
        }
        let session = builder.build()?;
        session.check_plan_space(&[model])?;
        seed.campaigns += 1;
        if !session.reused_golden_good() {
            seed.golden_good_runs += 1;
        }
        seed.golden_good = session.golden_good().cloned();
        if seed.golden_bad.is_none() {
            seed.golden_bad = Some(session.golden_bad().clone());
        }
        let report = session.run(&[model], Collect).pop().expect("one model in, one report out");
        seed.reuse = seed.reuse.merge(session.reuse_stats());
        if self.config.incremental {
            // Until a patch retargets it (with the real listing delta),
            // the carry covers re-campaigning this same binary — e.g. the
            // loop's final re-measurement passes — with full reuse.
            seed.carry = Some(IncrementalCarry {
                seed: session.seed(std::slice::from_ref(&report)),
                delta: ListingDelta::identity(),
                text: exe.text_bytes().to_vec(),
            });
        }
        Ok(report)
    }

    /// Hardens `exe` against `model` using the good/bad input pair as the
    /// behaviour oracle.
    ///
    /// # Errors
    ///
    /// See [`HardenError`]. In particular, every intermediate binary is
    /// verified to behave identically to the original on both inputs; an
    /// unsound patch aborts the loop.
    pub fn harden(
        &self,
        exe: &Executable,
        good_input: &[u8],
        bad_input: &[u8],
        model: &dyn FaultModel,
    ) -> Result<LoopOutcome, HardenError> {
        let original_code_size = exe.code_size();
        // Inputs are derived into `Arc`s once and shared by every
        // session the loop builds.
        let mut seed = SessionSeed {
            good: good_input.into(),
            bad: bad_input.into(),
            golden_good: None,
            golden_bad: None,
            campaigns: 0,
            golden_good_runs: 0,
            reuse: ReuseStats::default(),
            carry: None,
        };
        let golden_max_steps = self.config.campaign.golden_max_steps;

        let mut current = exe.clone();
        let mut iterations = Vec::new();
        let mut iteration_metrics = Vec::new();
        let mut metrics_mark = self.metrics().unwrap_or_default();
        let mut fixed_point = false;
        // Patching can oscillate under models like single-bit-flip: every
        // inserted pattern carries fresh flippable encodings. Each iterate
        // is a verified hardened binary, so the loop keeps the *least
        // vulnerable* one seen (never the unpatched original).
        let mut best: Option<(Executable, usize)> = None;

        for iteration in 0..self.config.max_iterations {
            let report = self.campaign(&current, &mut seed, model)?;
            if let Some(total) = self.metrics() {
                iteration_metrics.push(total.delta_since(&metrics_mark));
                metrics_mark = total;
            }
            // Soundness references: the golden behaviours every patched
            // iterate must preserve, taken from the first session's
            // golden pass (on the original binary).
            let golden_good = seed.golden_good.clone().expect("golden-pair session ran");
            let golden_bad = seed.golden_bad.clone().expect("golden-pair session ran");
            let vulnerable = report.vulnerable_pcs();
            if iteration > 0 && best.as_ref().is_none_or(|(_, s)| vulnerable.len() < *s) {
                best = Some((current.clone(), vulnerable.len()));
            }
            if vulnerable.is_empty() {
                fixed_point = true;
                break;
            }

            let disasm = rr_disasm::disassemble_with(&current, self.config.policy)?;
            let pre_patch =
                if self.config.incremental { Some(disasm.listing.clone()) } else { None };
            let mut listing = disasm.listing;
            let stats = apply_patterns(&mut listing, &vulnerable);
            let made_progress = !stats.patched.is_empty();
            let rebuilt = rr_asm::assemble_and_link(&listing.to_source())?;

            // Soundness check: golden behaviour must be preserved. (This
            // is also what licenses reusing the golden-good behaviour in
            // the next iteration's session.)
            let good_now = execute(&rebuilt, good_input, golden_max_steps);
            let bad_now = execute(&rebuilt, bad_input, golden_max_steps);
            if !good_now.same_behavior(&golden_good) || !bad_now.same_behavior(&golden_bad) {
                return Err(HardenError::BehaviorChanged { iteration });
            }

            // Retarget the carry at the patched binary: the next campaign
            // reuses this iteration's classifications through the
            // listing delta of the patch. A delta failure (the listing
            // does not describe the rebuilt layout) degrades to a full
            // re-campaign instead of failing the loop.
            if let (Some(pre_patch), Some(carry)) = (pre_patch, seed.carry.as_mut()) {
                match ListingDelta::compute(&pre_patch, &current, &listing, &rebuilt) {
                    Ok(delta) => {
                        carry.delta = delta;
                        carry.text = rebuilt.text_bytes().to_vec();
                    }
                    Err(_) => seed.carry = None,
                }
            }

            iterations.push(IterationReport {
                iteration,
                vulnerabilities: report.vulnerabilities().len(),
                vulnerable_sites: vulnerable.len(),
                stats,
                code_size: rebuilt.code_size(),
                summary: report.summary(),
            });
            current = rebuilt;

            if !made_progress {
                // Only unpatchable vulnerabilities remain: the paper's
                // "…or can be fixed" exit.
                break;
            }
        }

        // Evaluate the final binary if we exited by progress stall or
        // iteration cap rather than a clean campaign, then keep the best
        // iterate overall.
        let order = self.config.fault_order.max(1);
        let (hardened, residual, residual_by_order) = if fixed_point {
            (current, 0, vec![0; order])
        } else {
            let report = self.campaign(&current, &mut seed, model)?;
            let final_sites = report.vulnerable_pcs().len();
            if best.as_ref().is_none_or(|(_, s)| final_sites < *s) {
                best = Some((current, final_sites));
            }
            let (hardened, sites) = best.expect("at least the final binary is a candidate");
            // The site count is distinct program points; residual counts
            // individual successful plans at those points, so re-measure
            // on the selected binary.
            let report = self.campaign(&hardened, &mut seed, model)?;
            fixed_point = sites == 0;
            let residual = report.vulnerabilities().len();
            let by_order = (1..=order).map(|k| report.successes_of_order(k)).collect();
            (hardened, residual, by_order)
        };

        Ok(LoopOutcome {
            original_code_size,
            hardened,
            iterations,
            fixed_point,
            residual_vulnerabilities: residual,
            residual_by_order,
            campaigns: seed.campaigns,
            golden_good_runs: seed.golden_good_runs,
            sites_reused: seed.reuse.sites_reused,
            sites_replayed: seed.reuse.sites_replayed,
            metrics: self.metrics(),
            iteration_metrics,
        })
    }
}
