//! The owned, reusable campaign session: golden runs, fault enumeration,
//! and the one unified runner.
//!
//! A [`CampaignSession`] owns its [`Executable`] and inputs (`Arc`-shared,
//! so sessions move freely across threads and outlive the scope that
//! built them), performs the golden runs once at construction, and then
//! evaluates any number of [`FaultModel`]s through a single entry point,
//! [`CampaignSession::run`]:
//!
//! * the **engine** (naive replay-from-0 vs checkpointed restore) is
//!   fixed at construction by [`CampaignConfig::engine`] — a naive
//!   session never records snapshots and can never be asked for a
//!   checkpointed evaluation, so the old "checkpointed run on a
//!   snapshot-less campaign silently replays from zero" footgun is
//!   unrepresentable;
//! * the **sink** argument selects consumption: [`Collect`] materializes
//!   one [`CampaignReport`] per model, [`Stream`] folds classifications
//!   straight into one [`ModelSummary`] per model, holding the sampled
//!   sites plus one batch of plans (order ≥ 2 also holds one model's
//!   faults at each sampled site at a time, the space its plans are
//!   drawn from);
//! * all models passed to one `run` call share one plan walk and one
//!   batch loop, which hands the plans to one scheduler,
//!   [`rr_engine::shard::run_bucketed`]; a checkpointed session keys
//!   them by the checkpoint preceding each plan's earliest injection.
//!   The sinks differ only in the batch, the whole campaign or 1024
//!   plans, and in how they fold the results.

use crate::analysis::{plan_is_benign, Analysis};
use crate::cache::{self, CampaignSeed, ClassificationCache, ReuseStats};
use crate::config::{CampaignConfig, CampaignEngine};
use crate::model::{FaultModel, InstructionSkip, PlanSpace, PlanWalk};
use crate::oracle::{Behavior, GoldenPairOracle, Oracle};
use crate::report::{CampaignReport, FaultResult, ModelSummary, Summary};
use crate::site::{Fault, FaultClass, FaultEffect, FaultPlan, FaultSite};
use rr_disasm::ListingDelta;
use rr_emu::{execute, Execution, HangDetector, Machine, RunOutcome};
use rr_engine::shard::run_bucketed;
use rr_engine::{ReplayConfig, ReplayEngine, ReplayFootprint};
use rr_isa::{decode, Flags, MAX_INSTR_LEN};
use rr_obj::Executable;
use rr_telemetry::{Counter, Gauge, MetricsSnapshot, SpanKind, Telemetry};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a session could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// No bad (traced) input was supplied to the builder.
    MissingBadInput,
    /// The default golden-pair oracle needs a good input (or a trusted
    /// golden-good behaviour), and neither was supplied. Custom oracles
    /// lift the requirement.
    MissingGoodInput,
    /// The good input did not exit normally.
    GoldenGoodFailed(RunOutcome),
    /// The bad input did not exit normally.
    GoldenBadFailed(RunOutcome),
    /// Good and bad inputs behave identically — there is no attacker goal
    /// to reach and no vulnerability to measure.
    IndistinguishableBehaviors,
    /// The plan space up to this order has more plans than a 128-bit
    /// count holds, so it can be neither enumerated nor sampled.
    PlanSpaceOverflow {
        /// The configured maximum plan order.
        order: usize,
    },
    /// A [`CampaignConfig`] field holds a value that would silently
    /// change results instead of failing: a zero `site_stride`, or a
    /// zero faulted step budget, which times out every plan.
    InvalidConfig {
        /// The offending field, as named in [`CampaignConfig`].
        field: &'static str,
        /// What the field needs.
        reason: &'static str,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::MissingBadInput => {
                write!(f, "no bad (traced) input was given to the session builder")
            }
            CampaignError::MissingGoodInput => {
                write!(f, "the golden-pair oracle needs a good input")
            }
            CampaignError::GoldenGoodFailed(o) => write!(f, "golden good-input run failed: {o}"),
            CampaignError::GoldenBadFailed(o) => write!(f, "golden bad-input run failed: {o}"),
            CampaignError::IndistinguishableBehaviors => {
                write!(f, "good and bad inputs produce identical behaviour")
            }
            CampaignError::PlanSpaceOverflow { order } => {
                write!(f, "the order-{order} plan space has more plans than a 128-bit count holds")
            }
            CampaignError::InvalidConfig { field, reason } => {
                write!(f, "invalid campaign config: `{field}` {reason}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// A checkpointed continuation still running when its run, counted from
/// the start (the first injection's step plus the steps executed since),
/// reaches this many times the golden bad run's steps may hang: from then
/// on it is checked for a provable period ([`HangDetector`]).
const HANG_CHECK_FROM: u64 = 2;

/// Steps a continuation is checked for a period before it runs on
/// unchecked to its budget.
const HANG_CHECK_WINDOW: u64 = 1024;

/// Builds a [`CampaignSession`] — see [`CampaignSession::builder`].
#[derive(Debug, Clone)]
pub struct CampaignSessionBuilder {
    exe: Arc<Executable>,
    good_input: Option<Arc<[u8]>>,
    bad_input: Option<Arc<[u8]>>,
    config: CampaignConfig,
    oracle: Option<Arc<dyn Oracle>>,
    golden_good: Option<Execution>,
    seed: Option<(CampaignSeed, ListingDelta)>,
    telemetry: Telemetry,
}

impl CampaignSessionBuilder {
    /// The good input for the default golden-pair oracle. Not needed
    /// when a custom [`Oracle`] or a trusted
    /// [`golden_good`](CampaignSessionBuilder::golden_good) behaviour is
    /// supplied.
    #[must_use]
    pub fn good_input(mut self, input: impl Into<Arc<[u8]>>) -> Self {
        self.good_input = Some(input.into());
        self
    }

    /// The bad input: the run that is traced, checkpointed, and faulted.
    /// Required.
    #[must_use]
    pub fn bad_input(mut self, input: impl Into<Arc<[u8]>>) -> Self {
        self.bad_input = Some(input.into());
        self
    }

    /// Replaces the whole configuration (step budgets, threads, engine,
    /// plan space).
    #[must_use]
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the execution engine ([`CampaignConfig::engine`]): decides
    /// at construction whether snapshots are recorded.
    #[must_use]
    pub fn engine(mut self, engine: CampaignEngine) -> Self {
        self.config.engine = engine;
        self
    }

    /// Replaces the default golden-pair oracle with a custom classifier.
    /// Sessions with a custom oracle need no good input.
    #[must_use]
    pub fn oracle(mut self, oracle: impl Oracle + 'static) -> Self {
        self.oracle = Some(Arc::new(oracle));
        self
    }

    /// Supplies a **trusted** golden good-input behaviour, skipping the
    /// good-input golden run.
    ///
    /// For callers that already know how the good input behaves — the
    /// Faulter+Patcher loop verifies after every patch that the rebuilt
    /// binary preserves both golden behaviours, so iteration `n+1` can
    /// reuse iteration 0's golden-good run instead of re-executing it.
    /// The behaviour is still validated to be a normal exit.
    #[must_use]
    pub fn golden_good(mut self, golden: Execution) -> Self {
        self.golden_good = Some(golden);
        self
    }

    /// Seeds the session with a prior session's classifications
    /// ([`CampaignSession::seed`]) and the [`ListingDelta`] of the binary
    /// rewrite separating the two — the incremental re-campaign seam.
    ///
    /// At build time the new golden bad-input trace is aligned with the
    /// seed's through the delta: sites whose injection point and nearby
    /// downstream trace window the rewrite left untouched adopt the prior
    /// [`FaultClass`] without executing anything. Seeding changes the
    /// classification cache, not the recording: the golden run is
    /// recorded once, with the same checkpoints an unseeded session
    /// records. Reuse is guarded by the oracle fingerprint: a seed whose
    /// oracle judged differently — or one without a fingerprint — is
    /// ignored wholesale. Either way classifications are identical to an
    /// unseeded session; only the work changes.
    /// [`CampaignSession::reuse_stats`] reports the split.
    #[must_use]
    pub fn seed_from(mut self, prior: CampaignSeed, delta: &ListingDelta) -> Self {
        self.seed = Some((prior, delta.clone()));
        self
    }

    /// Attaches a telemetry handle: the golden recording, every
    /// checkpoint restore, injection, classification, and the cache
    /// reuse guards report through it. Keep a clone to read
    /// [`rr_telemetry::Telemetry::metrics`] (or use
    /// [`CampaignSession::metrics`]). The default handle is disabled and
    /// the instrumentation costs nothing.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Performs the golden pass and builds the session.
    ///
    /// One pass over the bad-input run yields the golden behaviour, the
    /// trace, *and* — for [`CampaignEngine::Checkpointed`] sessions —
    /// the replay checkpoints, on the adaptive √T schedule thinned by
    /// [`CampaignConfig::max_retained_bytes`]. [`CampaignEngine::Naive`]
    /// sessions skip snapshot capture and its memory cost entirely. A
    /// seeded session ([`CampaignSessionBuilder::seed_from`]) records the
    /// same pass, then aligns the seed against its trace.
    ///
    /// # Errors
    ///
    /// See [`CampaignError`]: a zero `site_stride` or faulted step
    /// budget, missing inputs, failed golden runs, and — for the default
    /// oracle — indistinguishable golden behaviours are all reported as
    /// typed errors, as is a plan order whose space of one fault per
    /// site ([`InstructionSkip`]'s) overflows a 128-bit count over the
    /// full trace. Sampled sites are a subset of the trace, so that
    /// check covers every stride [`CampaignSession::sample_sites`] can
    /// pick; models with more faults per site are checked by
    /// [`CampaignSession::check_plan_space`].
    pub fn build(self) -> Result<CampaignSession, CampaignError> {
        let config = self.config;
        if config.site_stride == 0 {
            return Err(CampaignError::InvalidConfig {
                field: "site_stride",
                reason: "must be at least 1 (1 evaluates every trace site)",
            });
        }
        if config.faulted_step_multiplier == 0 && config.faulted_min_steps == 0 {
            return Err(CampaignError::InvalidConfig {
                field: "faulted_min_steps",
                reason: "must be nonzero when `faulted_step_multiplier` is 0: a zero faulted \
                         step budget times out every plan",
            });
        }
        let bad_input = self.bad_input.ok_or(CampaignError::MissingBadInput)?;

        // Resolve the golden good-input behaviour if the oracle needs it.
        let needs_golden_good = self.oracle.is_none();
        let mut reused_golden_good = false;
        let golden_good = match (self.golden_good, &self.good_input) {
            (Some(trusted), _) => {
                reused_golden_good = true;
                Some(trusted)
            }
            (None, Some(good)) if needs_golden_good => {
                Some(execute(&self.exe, good, config.golden_max_steps))
            }
            (None, _) if needs_golden_good => return Err(CampaignError::MissingGoodInput),
            // A custom oracle never looks at the good run; don't pay for
            // it even when a good input happens to be supplied.
            (None, _) => None,
        };
        if let Some(golden_good) = &golden_good {
            if !golden_good.outcome.is_exit() {
                return Err(CampaignError::GoldenGoodFailed(golden_good.outcome));
            }
        }

        let replay = ReplayEngine::record(
            &self.exe,
            &bad_input,
            &ReplayConfig {
                max_steps: config.golden_max_steps,
                max_retained_bytes: config.max_retained_bytes,
                record_snapshots: config.engine == CampaignEngine::Checkpointed,
                telemetry: self.telemetry.clone(),
                exec: config.exec,
            },
        );
        let golden_bad = replay.execution().clone();
        if !golden_bad.outcome.is_exit() {
            return Err(CampaignError::GoldenBadFailed(golden_bad.outcome));
        }

        let oracle: Arc<dyn Oracle> = match self.oracle {
            Some(oracle) => oracle,
            None => {
                let golden_good = golden_good.clone().expect("checked above");
                if golden_good.same_behavior(&golden_bad) {
                    return Err(CampaignError::IndistinguishableBehaviors);
                }
                Arc::new(GoldenPairOracle::new(golden_good, golden_bad.clone()))
            }
        };

        // An exit takes at least one step, and the checks above leave a
        // nonzero multiplier or floor, so the budget is at least 1.
        let faulted_budget = golden_bad
            .steps
            .saturating_mul(config.faulted_step_multiplier)
            .max(config.faulted_min_steps);
        // Align the seed (if any) against the recorded trace: the
        // classifications the rewrite provably left valid go to the
        // cache.
        let cache = match &self.seed {
            Some((seed, delta)) => cache::plan(
                seed,
                delta,
                replay.trace(),
                oracle.fingerprint(),
                faulted_budget,
                &self.telemetry,
            ),
            None => ClassificationCache::default(),
        };

        let sites: Vec<FaultSite> = replay
            .trace()
            .iter()
            .enumerate()
            .filter_map(|(step, &pc)| {
                let bytes = peek_code(&self.exe, pc)?;
                let (insn, len) = decode(bytes).ok()?;
                Some(FaultSite { step: step as u64, pc, insn, len })
            })
            .collect();
        if config.plan.order >= 2 {
            let all_sites: Vec<&FaultSite> = sites.iter().collect();
            if PlanSpace::new(&InstructionSkip, &all_sites, &config.plan, None).is_none() {
                return Err(CampaignError::PlanSpaceOverflow { order: config.plan.order });
            }
        }

        // The static fault-effect analysis backing pruning and auditing.
        // A binary whose CFG cannot be recovered falls back to no
        // analysis — every verdict is effectively Unknown and nothing is
        // pruned, which is always sound.
        let analysis = if config.static_prune || config.audit_analysis {
            Analysis::from_executable(&self.exe).ok()
        } else {
            None
        };

        Ok(CampaignSession {
            exe: self.exe,
            good_input: self.good_input,
            bad_input,
            golden_good,
            golden_bad,
            faulted_budget,
            sites,
            config,
            oracle,
            replay,
            analysis,
            reused_golden_good,
            cache,
            reused: AtomicUsize::new(0),
            replayed: AtomicUsize::new(0),
            telemetry: self.telemetry,
        })
    }
}

/// An owned, reusable fault-injection session against one executable.
///
/// Construction ([`CampaignSession::builder`]) performs the golden runs
/// and records the bad-input trace; [`CampaignSession::run`] then
/// evaluates [`FaultModel`]s against every trace site. See the crate
/// docs for the full procedure and an example.
#[derive(Debug)]
pub struct CampaignSession {
    exe: Arc<Executable>,
    good_input: Option<Arc<[u8]>>,
    bad_input: Arc<[u8]>,
    golden_good: Option<Execution>,
    golden_bad: Execution,
    /// The step budget faulted continuations run under: the golden bad
    /// run's steps × [`CampaignConfig::faulted_step_multiplier`], at
    /// least [`CampaignConfig::faulted_min_steps`].
    faulted_budget: u64,
    sites: Vec<FaultSite>,
    config: CampaignConfig,
    oracle: Arc<dyn Oracle>,
    /// Trace + behaviour + (for checkpointed sessions) snapshots,
    /// recorded along the golden bad-input run at construction and
    /// shared by every evaluation of this session.
    replay: ReplayEngine,
    /// Static fault-effect analysis, built at construction when the
    /// config enables pruning or auditing and the binary's CFG could be
    /// recovered; `None` otherwise (no pruning, no audit checks).
    analysis: Option<Analysis>,
    reused_golden_good: bool,
    /// Classifications carried over from a seeding session
    /// ([`CampaignSessionBuilder::seed_from`]); empty when unseeded.
    cache: ClassificationCache,
    /// Fault evaluations served from the cache.
    reused: AtomicUsize,
    /// Fault evaluations that actually executed.
    replayed: AtomicUsize,
    /// Telemetry handle every evaluation reports through
    /// ([`CampaignSessionBuilder::telemetry`]); disabled by default.
    telemetry: Telemetry,
}

impl CampaignSession {
    /// Starts a session builder for an executable.
    ///
    /// The executable is `Arc`-shared: pass an owned [`Executable`] (or
    /// an existing `Arc`) and the session keeps it alive for as long as
    /// it — or any clone of the `Arc` — lives.
    pub fn builder(exe: impl Into<Arc<Executable>>) -> CampaignSessionBuilder {
        CampaignSessionBuilder {
            exe: exe.into(),
            good_input: None,
            bad_input: None,
            config: CampaignConfig::default(),
            oracle: None,
            golden_good: None,
            seed: None,
            telemetry: Telemetry::default(),
        }
    }

    /// The executable under test.
    pub fn exe(&self) -> &Arc<Executable> {
        &self.exe
    }

    /// The good input, when one was supplied.
    pub fn good_input(&self) -> Option<&[u8]> {
        self.good_input.as_deref()
    }

    /// The bad (traced) input.
    pub fn bad_input(&self) -> &[u8] {
        &self.bad_input
    }

    /// The golden good-input behaviour — present for golden-pair
    /// sessions (run or [trusted](CampaignSessionBuilder::golden_good)),
    /// absent for custom-oracle sessions that never executed it.
    pub fn golden_good(&self) -> Option<&Execution> {
        self.golden_good.as_ref()
    }

    /// The golden bad-input behaviour.
    pub fn golden_bad(&self) -> &Execution {
        &self.golden_bad
    }

    /// Whether construction reused a trusted golden-good behaviour
    /// instead of executing the good input
    /// ([`CampaignSessionBuilder::golden_good`]).
    pub fn reused_golden_good(&self) -> bool {
        self.reused_golden_good
    }

    /// The fault sites (one per executed instruction of the bad-input run).
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// The session's configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The engine this session was built for (and evaluates with).
    pub fn engine(&self) -> CampaignEngine {
        self.config.engine
    }

    /// The classifying oracle.
    pub fn oracle(&self) -> &dyn Oracle {
        self.oracle.as_ref()
    }

    /// The replay engine recorded alongside the golden bad-input run at
    /// construction.
    pub fn replay_engine(&self) -> &ReplayEngine {
        &self.replay
    }

    /// Packages what this session learned for the next session of an
    /// incremental loop: its golden bad-input trace, the given per-model
    /// `reports` (from this session's [`CampaignSession::run`]), the
    /// oracle fingerprint, and the faulted-run step budget. Feed the
    /// result — together with the [`ListingDelta`] of the intervening
    /// rewrite — to [`CampaignSessionBuilder::seed_from`].
    pub fn seed(&self, reports: &[CampaignReport]) -> CampaignSeed {
        CampaignSeed {
            trace: self.replay.trace().to_vec(),
            reports: reports.to_vec(),
            oracle_fingerprint: self.oracle.fingerprint(),
            faulted_budget: self.faulted_budget,
        }
    }

    /// How this session's fault evaluations were served so far: answered
    /// from the carried-over [`ClassificationCache`] vs actually
    /// replayed. Both zero before the first [`CampaignSession::run`].
    pub fn reuse_stats(&self) -> ReuseStats {
        ReuseStats {
            sites_reused: self.reused.load(Ordering::Relaxed),
            sites_replayed: self.replayed.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the attached telemetry's aggregated metrics, or
    /// `None` when the session was built without a telemetry handle
    /// ([`CampaignSessionBuilder::telemetry`]).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.telemetry.metrics()
    }

    /// Memory footprint of the checkpoints retained for this session:
    /// their count and the pages and bytes they retain under
    /// page-granular COW. Naive sessions report one checkpoint and zero
    /// retained bytes.
    pub fn replay_footprint(&self) -> ReplayFootprint {
        self.replay.footprint()
    }

    /// Samples the session down to at most `max_sites` trace sites by
    /// setting the site stride from the recorded trace length
    /// (statistical fault injection for long traces; Leveugle et al.).
    /// Returns the stride chosen.
    pub fn sample_sites(&mut self, max_sites: usize) -> usize {
        let stride = (self.golden_bad.steps as usize).div_ceil(max_sites.max(1)).max(1);
        self.config.site_stride = stride;
        stride
    }

    /// Evaluates every fault each of `models` enumerates at every
    /// (sampled) trace site, in **one scheduling pass** shared by all
    /// models, and consumes the classifications through `sink`:
    ///
    /// * [`Collect`] → one [`CampaignReport`] per model (site order);
    /// * [`Stream`] → one [`ModelSummary`] per model, without ever
    ///   materializing per-fault results — the sampled sites plus one
    ///   batch of plans in memory (order ≥ 2 adds one model's faults at
    ///   each sampled site at a time), no matter how many plans the
    ///   models produce.
    ///
    /// The engine and thread count come from the session's
    /// [`CampaignConfig`]. Classifications are identical across engines,
    /// sinks, and thread counts — the emulator is deterministic, and the
    /// equivalence test suite enforces it. A checkpointed session
    /// finishes a faulted run early, with the exact behaviour executing
    /// would have produced, once it rejoins the golden bad run at a
    /// retained checkpoint, equal to it in everything the golden
    /// remainder reads (counted by the `plans_converged` and
    /// `steps_converged` telemetry counters), or once the run is proven
    /// to repeat one period until its step budget (`plans_extrapolated`
    /// and `steps_extrapolated`).
    ///
    /// # Panics
    ///
    /// When a model's plan space overflows a 128-bit count, which
    /// [`CampaignSession::check_plan_space`] reports as an error instead.
    pub fn run<S: Sink>(&self, models: &[&dyn FaultModel], sink: S) -> S::Output {
        let _ = sink;
        S::drive(self, models)
    }

    /// Checks that every model's plan space over the sampled sites, up to
    /// the configured order, counts in 128 bits — what
    /// [`CampaignSession::run`] needs to enumerate or sample it.
    /// [`CampaignSessionBuilder::build`] already checked one fault per
    /// site; models with more faults per site can overflow at a lower
    /// order.
    ///
    /// # Errors
    ///
    /// [`CampaignError::PlanSpaceOverflow`] for the first model that
    /// does not fit.
    pub fn check_plan_space(&self, models: &[&dyn FaultModel]) -> Result<(), CampaignError> {
        let (plan, sampled) = (&self.config.plan, self.sampled_sites());
        let fits = |model: &&dyn FaultModel| PlanSpace::new(*model, &sampled, plan, None).is_some();
        if plan.order >= 2 && !models.iter().all(fits) {
            return Err(CampaignError::PlanSpaceOverflow { order: plan.order });
        }
        Ok(())
    }

    /// The static fault-effect analysis backing pruning and auditing —
    /// `None` when the config disabled both, or the binary's CFG could
    /// not be recovered.
    pub fn analysis(&self) -> Option<&Analysis> {
        self.analysis.as_ref()
    }

    /// The sites `run` evaluates: every `site_stride`-th trace site.
    fn sampled_sites(&self) -> Vec<&FaultSite> {
        self.sites.iter().step_by(self.config.site_stride).collect()
    }

    /// Classifies one plan of `model`: served from the carried-over
    /// [`ClassificationCache`] when the seed plan proved the prior
    /// classification still valid, otherwise by positioning a machine at
    /// the plan's earliest injection step on its own (for a naive
    /// session, a replay from step 0: the reference oracle), injecting,
    /// resuming, and consulting the oracle.
    fn evaluate(&self, model: &'static str, plan: &FaultPlan) -> FaultClass {
        if let Some(class) = self.cache.lookup(model, plan) {
            self.reused.fetch_add(1, Ordering::Relaxed);
            self.note_plan(plan, class, true);
            return class;
        }
        self.replayed.fetch_add(1, Ordering::Relaxed);
        let class = match self.replay.machine_at(plan.earliest_step()) {
            Ok(machine) => self.inject_and_classify(machine, plan),
            Err(_) => FaultClass::ReplayDiverged,
        };
        self.note_plan(plan, class, false);
        class
    }

    /// Telemetry accounting for one classified plan.
    fn note_plan(&self, plan: &FaultPlan, class: FaultClass, from_cache: bool) {
        self.telemetry.count(Counter::PlansExecuted, 1);
        self.telemetry.count(if from_cache { Counter::CacheHits } else { Counter::CacheMisses }, 1);
        if class == FaultClass::Success {
            self.telemetry.success(plan.order());
        }
        // The audit cross-check: a statically-benign plan that just
        // classified as anything else is an analysis soundness
        // violation. Central here so both sinks and both scheduling
        // paths are covered.
        if self.config.audit_analysis && class != FaultClass::Benign {
            if let Some(analysis) = &self.analysis {
                if plan_is_benign(analysis, plan) {
                    self.telemetry.count(Counter::AuditFailures, 1);
                }
            }
        }
    }

    /// Applies the plan's injections to a machine positioned at the
    /// *earliest* injection's step, and classifies the outcome.
    ///
    /// Injections are **time-triggered**, like the physical glitches they
    /// model: after the first effect is applied (on the golden trace, so
    /// the program counter is verified against the recording), the
    /// machine free-runs and each later effect fires when the machine's
    /// step count reaches that injection's trace step — wherever control
    /// actually is by then, since the earlier fault may have diverted it.
    /// A run that exits or crashes before a later injection's time
    /// arrives is classified as-is: the attacker's second glitch fired
    /// into a finished program. The total faulted continuation shares one
    /// step budget, exactly like the single-fault case.
    ///
    /// After the last injection, a checkpointed session may finish the
    /// run early: [`CampaignSession::run_continuation`] stops it when it
    /// rejoins the golden bad run at a retained checkpoint, and takes the
    /// rest of the behaviour from the golden run, or when it is
    /// proven to hang, and extrapolates the rest. Either is exactly what
    /// executing it would have produced.
    fn inject_and_classify(&self, mut machine: Machine, plan: &FaultPlan) -> FaultClass {
        let inject_span = self.telemetry.span(SpanKind::Inject);
        let first = plan.first();
        if machine.pc() != first.pc {
            // The replay did not arrive where the trace says it should
            // have — report instead of asserting (determinism is the
            // emulator's contract; a violation costs one result, not the
            // whole campaign).
            return FaultClass::ReplayDiverged;
        }
        if let Err(class) = apply_effect(&mut machine, first) {
            return class;
        }
        let budget = self.faulted_budget;
        let mut used = 0u64;
        let mut prev_step = first.step;
        for fault in plan.iter().skip(1) {
            let gap = fault.step - prev_step;
            prev_step = fault.step;
            if gap > 0 {
                let allowed = gap.min(budget - used);
                let result = self.replay.run(&mut machine, allowed);
                used += result.steps;
                if result.outcome != RunOutcome::TimedOut || allowed < gap {
                    // The run ended before this injection's time arrived
                    // (the earlier fault made it unreachable), or the
                    // shared budget ran out mid-gap. `run` reports budget
                    // exhaustion as TimedOut, which is exactly the class
                    // such a hang deserves — classify what happened.
                    let faulted = Behavior {
                        outcome: result.outcome,
                        output: machine.take_output(),
                        steps: used,
                    };
                    drop(inject_span);
                    return self.classify(&faulted);
                }
            }
            if let Err(class) = apply_effect(&mut machine, fault) {
                return class;
            }
        }
        let faulted = self.run_continuation(&mut machine, plan, budget, used);
        drop(inject_span);
        self.classify(&faulted)
    }

    /// Runs the continuation after the plan's last injection, `used` of
    /// the `budget` steps already spent, and returns the run's behaviour.
    ///
    /// The run goes in fence-to-fence segments that end on the golden bad
    /// run's retained checkpoints — the 1st, 2nd, 4th, 8th … at or after
    /// the plan's golden-aligned step — and at each one asks whether the
    /// machine rejoins the golden run there ([`ReplayEngine::rejoins`]):
    /// the same pc, stop state, input cursor and stream and executable
    /// memory, and the same value in every register, NZCV bit and memory
    /// word the golden remainder reads before overwriting it. Its output
    /// may differ. The aligned step is the first injection's step, plus
    /// the steps executed since, plus one per skip (a skip consumes a
    /// trace step without executing one). On a rejoin the rest of the run
    /// does what the golden run's does, so the behaviour is the golden
    /// bad outcome, the exact step count executing would have reached,
    /// executed + (golden steps − checkpoint step), and the run's own
    /// output followed by the golden output after the checkpoint
    /// ([`ReplayEngine::output_after`]). Every oracle therefore
    /// classifies identically, one that reads `steps` or the output
    /// included. A total beyond the budget keeps running, to time out as
    /// before.
    ///
    /// Plans that flip code bits never check: their rewritten code never
    /// matches golden memory, and a differing byte of executable memory
    /// never rejoins.
    ///
    /// A run still going at [`HANG_CHECK_FROM`] times the golden bad
    /// run's steps, counted from its start, may hang. For the next
    /// [`HANG_CHECK_WINDOW`] steps it runs on the interpreter under a
    /// [`HangDetector`] whose horizon is the budget left; when that
    /// proves the run repeats one period until the budget, the behaviour
    /// is the one running to the budget gives: `TimedOut`, `budget`
    /// steps, and the output so far followed by the output of every
    /// period left and of the first steps of one more
    /// ([`rr_emu::Period::extrapolate`]). Every oracle therefore
    /// classifies identically, one that reads the output of a timed-out
    /// run included. An unproven run continues unchecked to the budget.
    ///
    /// A naive session takes neither shortcut: it records no checkpoints
    /// to rejoin and never checks for a period, so it always runs to the
    /// end — the reference oracle stays unshortened.
    fn run_continuation(
        &self,
        machine: &mut Machine,
        plan: &FaultPlan,
        budget: u64,
        mut used: u64,
    ) -> Behavior {
        let rewrites_code =
            plan.iter().any(|f| matches!(f.effect, FaultEffect::FlipInstructionBit { .. }));
        if !rewrites_code {
            let skips =
                plan.iter().filter(|f| f.effect == FaultEffect::SkipInstruction).count() as u64;
            let mut aligned = plan.first().step + used + skips;
            let checkpoints = self.replay.checkpoints_from(aligned);
            let mut nth = 1;
            while let Some(checkpoint) = checkpoints.get(nth - 1) {
                let gap = checkpoint.step() - aligned;
                if gap > budget - used {
                    break;
                }
                let result = self.replay.run(machine, gap);
                used += result.steps;
                if result.outcome != RunOutcome::TimedOut {
                    // Stopped before reaching the checkpoint.
                    return Behavior {
                        outcome: result.outcome,
                        output: machine.take_output(),
                        steps: used,
                    };
                }
                aligned = checkpoint.step();
                if self.replay.rejoins(machine, checkpoint) {
                    let remainder = self.golden_bad.steps - aligned;
                    if used + remainder > budget {
                        break;
                    }
                    self.telemetry.count(Counter::PlansConverged, 1);
                    self.telemetry.count(Counter::StepsConverged, remainder);
                    return Behavior {
                        outcome: self.golden_bad.outcome,
                        output: [machine.output(), self.replay.output_after(checkpoint)].concat(),
                        steps: used + remainder,
                    };
                }
                nth *= 2;
            }
        }
        if self.config.engine == CampaignEngine::Checkpointed {
            let from = self
                .golden_bad
                .steps
                .saturating_mul(HANG_CHECK_FROM)
                .saturating_sub(plan.first().step)
                .min(budget);
            if used < from {
                used += self.replay.run(machine, from - used).steps;
            }
            if used < budget && machine.stopped().is_none() {
                let mut detector = HangDetector::new(budget - used);
                let window = HANG_CHECK_WINDOW.min(budget - used);
                used += self.replay.run_detecting(machine, window, &mut detector).steps;
                if let Some(period) = detector.proof() {
                    self.telemetry.count(Counter::PlansExtrapolated, 1);
                    self.telemetry.count(Counter::StepsExtrapolated, budget - used);
                    return period.extrapolate(machine.take_output(), used, budget);
                }
            }
        }
        let outcome = match machine.stopped() {
            Some(outcome) => outcome,
            None => {
                let result = self.replay.run(machine, budget - used);
                used += result.steps;
                result.outcome
            }
        };
        Behavior { outcome, output: machine.take_output(), steps: used }
    }

    /// Consults the oracle under a [`SpanKind::Classify`] span.
    fn classify(&self, faulted: &Behavior) -> FaultClass {
        let _classify_span = self.telemetry.span(SpanKind::Classify);
        self.oracle.classify(faulted)
    }

    /// The one batch loop both sinks share. It takes `models`' plans
    /// over the sampled sites from one [`PlanWalk`], `batch` at a time,
    /// as `(model index, plan)` pairs, evaluates each batch in one
    /// scheduling pass ([`CampaignSession::evaluate_all`]), and hands it
    /// to `fold` with its classes. Before the first batch is evaluated it
    /// announces the plans the walk visits ([`Gauge::PlansTotal`]) and
    /// the plans static pruning removed ([`Counter::PlansPrunedStatic`]),
    /// each clamped at `u64::MAX`. Returns every model's plan counts per
    /// order, `(order, kept, pruned)`.
    fn evaluate_walk(
        &self,
        models: &[&dyn FaultModel],
        batch: usize,
        mut fold: impl FnMut(Vec<(usize, FaultPlan)>, Vec<FaultClass>),
    ) -> Vec<Vec<(usize, u128, u128)>> {
        let (sampled, plan) = (self.sampled_sites(), &self.config.plan);
        // Nothing is pruned under `--no-static-prune`, nor under
        // `--audit-analysis`: the audit executes the statically-benign
        // plans it cross-checks.
        let prune = self.config.static_prune && !self.config.audit_analysis;
        let mut walk = PlanWalk::new(models, &sampled, plan, self.analysis().filter(|_| prune));
        let mut plans: Vec<(usize, FaultPlan)> = walk.by_ref().take(batch).collect();
        // A batch that holds the whole walk leaves nothing to count ahead.
        let counts = walk.counts();
        let (mut total, mut pruned) = (0u128, 0u128);
        for &(order, kept, dropped) in counts.iter().flatten() {
            total = total.saturating_add(plan.visited(order, kept));
            pruned = pruned.saturating_add(dropped);
        }
        let clamped = |count: u128| u64::try_from(count).unwrap_or(u64::MAX);
        if pruned > 0 {
            self.telemetry.count(Counter::PlansPrunedStatic, clamped(pruned));
        }
        self.telemetry.gauge(Gauge::PlansTotal, clamped(total));
        let names: Vec<&'static str> = models.iter().map(|model| model.name()).collect();
        while !plans.is_empty() {
            let classes = self.evaluate_all(&names, &plans);
            fold(plans, classes);
            plans = walk.by_ref().take(batch).collect();
        }
        counts
    }

    /// Evaluates every `(model index, plan)` pair, the models named by
    /// `names`, in one scheduling pass ([`run_bucketed`]). A checkpointed
    /// session groups plans by the checkpoint preceding their earliest
    /// injection and sweeps each neighbourhood from one restore
    /// ([`CampaignSession::evaluate_bucket`]); that wins for singleton
    /// plans too, since one restore plus one forward walk serves every
    /// fault enumerated in the neighbourhood, such as the `8 × len`
    /// bit-flip faults at a single site. A naive session evaluates plan
    /// by plan from step 0 ([`CampaignSession::evaluate`]), the reference
    /// oracle. Its only checkpoint is step 0 and its plans share no
    /// positioning, so it keys them by earliest injection step: one
    /// checkpoint key would make a single bucket, which `run_bucketed`
    /// keeps on one thread until it holds dozens of plans.
    /// Classifications are identical either way.
    fn evaluate_all(
        &self,
        names: &[&'static str],
        plans: &[(usize, FaultPlan)],
    ) -> Vec<FaultClass> {
        let engine = self.config.engine;
        run_bucketed(
            plans,
            self.config.threads,
            |(_, plan)| match engine {
                CampaignEngine::Checkpointed => {
                    self.replay.checkpoint_step_before(plan.earliest_step())
                }
                CampaignEngine::Naive => plan.earliest_step(),
            },
            |&key, indices| match engine {
                CampaignEngine::Checkpointed => self.evaluate_bucket(key, names, plans, indices),
                CampaignEngine::Naive => indices
                    .iter()
                    .map(|&index| {
                        let (model, plan) = &plans[index];
                        self.evaluate(names[*model], plan)
                    })
                    .collect(),
            },
        )
    }

    /// Evaluates one checkpoint neighbourhood: all of `indices` share the
    /// retained checkpoint at `checkpoint_step`. The checkpoint is
    /// restored **once**; a cursor machine then walks forward through the
    /// neighbourhood in ascending injection order, and each plan is
    /// evaluated on a cheap COW clone taken when the cursor reaches its
    /// earliest injection — so the per-plan positioning cost (restore +
    /// up to a whole checkpoint interval of forward stepping) is paid
    /// once per bucket instead of once per plan.
    fn evaluate_bucket(
        &self,
        checkpoint_step: u64,
        names: &[&'static str],
        plans: &[(usize, FaultPlan)],
        indices: &[usize],
    ) -> Vec<FaultClass> {
        // The bucket-sweep span wraps the whole sweep, so the restore,
        // inject, and classify spans of its plans nest inside it (like
        // snapshot captures nest inside the record span).
        let _sweep_span = self.telemetry.span(SpanKind::BucketSweep);
        self.telemetry.count(Counter::BucketSweeps, 1);
        self.telemetry.count(Counter::BucketPlans, indices.len() as u64);
        let mut order: Vec<usize> = (0..indices.len()).collect();
        order.sort_by_key(|&k| plans[indices[k]].1.earliest_step());
        let mut out: Vec<Option<FaultClass>> = vec![None; indices.len()];
        // The cursor is lazy: a bucket answered entirely from the
        // classification cache never restores anything.
        let mut cursor: Option<(Machine, u64)> = None;
        let mut diverged = false;
        for k in order {
            let (model, plan) = &plans[indices[k]];
            if let Some(class) = self.cache.lookup(names[*model], plan) {
                self.reused.fetch_add(1, Ordering::Relaxed);
                self.note_plan(plan, class, true);
                out[k] = Some(class);
                continue;
            }
            self.replayed.fetch_add(1, Ordering::Relaxed);
            if !diverged && cursor.is_none() {
                match self.replay.machine_at(checkpoint_step) {
                    Ok(machine) => cursor = Some((machine, checkpoint_step)),
                    Err(_) => diverged = true,
                }
            }
            // Walking the cursor to this plan's injection point and
            // cloning it there is the sweep's share of positioning — the
            // same work `machine_at` times under its own restore span —
            // so it is timed as restore too, keeping record, restore,
            // inject and classify a partition of the campaign work.
            let position_span = self.telemetry.span(SpanKind::Restore);
            if let Some((machine, at)) = cursor.as_mut() {
                let target = plan.earliest_step();
                if !diverged && *at < target {
                    // A crash leaves the golden trace. Any other outcome
                    // is at the target: TimedOut is the budget fence, and
                    // a run that exited before it stays stopped there, as
                    // further steps would leave it.
                    let result = self.replay.run(machine, target - *at);
                    diverged = matches!(result.outcome, RunOutcome::Crashed { .. });
                    *at = target;
                }
            }
            if diverged {
                // Forward replay of the golden trace stopped early: the
                // same determinism violation machine_at reports — degrade
                // this plan (and the rest of the neighbourhood beyond the
                // divergence) instead of panicking.
                self.note_plan(plan, FaultClass::ReplayDiverged, false);
                out[k] = Some(FaultClass::ReplayDiverged);
                continue;
            }
            let (machine, _) = cursor.as_ref().expect("cursor initialized above");
            self.telemetry.count(Counter::CowClones, 1);
            let clone = machine.clone();
            drop(position_span);
            let class = self.inject_and_classify(clone, plan);
            self.note_plan(plan, class, false);
            out[k] = Some(class);
        }
        out.into_iter().map(|class| class.expect("every plan classified")).collect()
    }
}

/// Applies one injection's physical effect to the machine. The program
/// counter in [`Fault::pc`] anchors *address-based* effects (an encoding
/// bit flip corrupts the instruction at that address, wherever control
/// currently is); skip/register/flag effects act on the machine's
/// current state. `Err` short-circuits with the class the failed
/// injection itself produced (e.g. skipping an unreadable instruction).
fn apply_effect(machine: &mut Machine, fault: &Fault) -> Result<(), FaultClass> {
    match fault.effect {
        FaultEffect::SkipInstruction => {
            if machine.skip_instruction().is_err() {
                return Err(FaultClass::Crashed);
            }
        }
        FaultEffect::FlipInstructionBit { byte, bit } => {
            let addr = fault.pc + byte as u64;
            let Some(&current) = machine.peek_bytes(addr, 1).and_then(|b| b.first()) else {
                return Err(FaultClass::Crashed);
            };
            machine.poke_bytes(addr, &[current ^ (1 << bit)]);
        }
        FaultEffect::FlipRegisterBit { reg, bit } => {
            machine.set_reg(reg, machine.reg(reg) ^ (1u64 << bit));
        }
        FaultEffect::FlipFlags { mask } => {
            machine.set_flags(Flags::from_bits(machine.flags().to_bits() ^ u64::from(mask)));
        }
    }
    Ok(())
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Collect {}
    impl Sealed for super::Stream {}
}

/// How [`CampaignSession::run`] consumes classifications. Sealed: the
/// two consumption modes are [`Collect`] and [`Stream`].
pub trait Sink: sealed::Sealed {
    /// What the run returns — one element per model passed to `run`.
    type Output;

    #[doc(hidden)]
    fn drive(session: &CampaignSession, models: &[&dyn FaultModel]) -> Self::Output;
}

/// Materialize every [`FaultResult`]: [`CampaignSession::run`] returns
/// one [`CampaignReport`] per model — its singletons in site order, then
/// each higher order in canonical order. The whole campaign is evaluated
/// in one scheduling pass, and the results are regrouped per model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Collect;

impl Sink for Collect {
    type Output = Vec<CampaignReport>;

    fn drive(session: &CampaignSession, models: &[&dyn FaultModel]) -> Vec<CampaignReport> {
        let mut results: Vec<Vec<FaultResult>> = models.iter().map(|_| Vec::new()).collect();
        let counts = session.evaluate_walk(models, usize::MAX, |mut plans, classes| {
            // The one batch is the whole campaign. Each model's results
            // are allocated at their exact sizes, once the batch drops
            // its growth slack.
            plans.shrink_to_fit();
            let size = |m| plans.iter().filter(|&&(model, _)| model == m).count();
            results = (0..models.len()).map(|m| Vec::with_capacity(size(m))).collect();
            for ((model, plan), class) in plans.into_iter().zip(classes) {
                results[model].push(FaultResult { plan, class });
            }
        });
        models
            .iter()
            .zip(results)
            .zip(counts)
            .map(|((model, results), counts)| {
                let audit_failures = match (&session.analysis, session.config.audit_analysis) {
                    (Some(analysis), true) => results
                        .iter()
                        .filter(|r| {
                            r.class != FaultClass::Benign && plan_is_benign(analysis, &r.plan)
                        })
                        .cloned()
                        .collect(),
                    _ => Vec::new(),
                };
                let pruned_by_order = counts.iter().map(|&(order, _, pruned)| (order, pruned));
                CampaignReport {
                    model: model.name(),
                    results,
                    pruned_by_order: pruned_by_order.collect(),
                    audit_failures,
                }
            })
            .collect()
    }
}

/// Fold classifications straight into per-model [`Summary`] counters:
/// [`CampaignSession::run`] returns one [`ModelSummary`] per model,
/// holding the sampled sites plus one batch of plans no matter how many
/// plans the campaign evaluates — for campaigns too large to keep every
/// [`FaultResult`]. Order ≥ 2 also holds one model's faults at each
/// sampled site at a time, which its higher-order plan space counts and
/// walks over. The plans come from the same walk as a [`Collect`] run's,
/// and each batch of up to 1024 goes through the same bucketed
/// scheduling pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stream;

/// Plans a [`Stream`] run evaluates per scheduling pass: enough to keep
/// every worker busy — plans arrive in site order, so a batch often
/// falls in one or two checkpoint neighbourhoods, which `run_bucketed`
/// splits into chunks across workers — while the batch stays a minor
/// share of a campaign's memory.
const STREAM_BATCH: usize = 1024;

impl Sink for Stream {
    type Output = Vec<ModelSummary>;

    fn drive(session: &CampaignSession, models: &[&dyn FaultModel]) -> Vec<ModelSummary> {
        let mut summaries = vec![Summary::default(); models.len()];
        session.evaluate_walk(models, STREAM_BATCH, |plans, classes| {
            for (&(model, _), class) in plans.iter().zip(classes) {
                summaries[model].record(class);
            }
        });
        models
            .iter()
            .zip(summaries)
            .map(|(model, summary)| ModelSummary { model: model.name(), summary })
            .collect()
    }
}

/// Reads up to [`MAX_INSTR_LEN`] code bytes at `pc` from the executable
/// image (shorter at the end of `.text`).
fn peek_code(exe: &Executable, pc: u64) -> Option<&[u8]> {
    let text = exe.text_range();
    if !text.contains(&pc) {
        return None;
    }
    let available = (text.end - pc).min(MAX_INSTR_LEN as u64) as usize;
    exe.read_bytes(pc, available)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FlagFlip, InstructionSkip, SingleBitFlip};
    use rr_asm::assemble_and_link;
    use rr_isa::InstrKind;
    use rr_workloads::pincheck;

    fn pincheck_session() -> CampaignSession {
        pincheck_session_with(CampaignConfig::default())
    }

    fn pincheck_session_with(config: CampaignConfig) -> CampaignSession {
        pincheck_build(config).unwrap()
    }

    fn pincheck_build(config: CampaignConfig) -> Result<CampaignSession, CampaignError> {
        let w = pincheck();
        CampaignSession::builder(w.build().unwrap())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .config(config)
            .build()
    }

    fn run_one(session: &CampaignSession, model: &dyn FaultModel) -> CampaignReport {
        session.run(&[model], Collect).pop().expect("one model in, one report out")
    }

    #[test]
    fn builder_validation_rejects_broken_setups() {
        let w = pincheck();
        let exe = w.build().unwrap();
        // Missing inputs are typed errors.
        assert_eq!(
            CampaignSession::builder(exe.clone()).build().unwrap_err(),
            CampaignError::MissingBadInput
        );
        assert_eq!(
            CampaignSession::builder(exe.clone()).bad_input(&w.bad_input[..]).build().unwrap_err(),
            CampaignError::MissingGoodInput
        );
        // Same input for good and bad → indistinguishable.
        assert_eq!(
            CampaignSession::builder(exe.clone())
                .good_input(&w.good_input[..])
                .bad_input(&w.good_input[..])
                .build()
                .unwrap_err(),
            CampaignError::IndistinguishableBehaviors
        );
        // A crashing program cannot be campaigned.
        let crasher = assemble_and_link("    .global _start\n_start:\n    halt\n").unwrap();
        assert!(matches!(
            CampaignSession::builder(crasher)
                .good_input(&b"a"[..])
                .bad_input(&b"b"[..])
                .build()
                .unwrap_err(),
            CampaignError::GoldenGoodFailed(_)
        ));
        // Every variant renders.
        for err in [CampaignError::MissingBadInput, CampaignError::MissingGoodInput] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn zero_site_stride_is_rejected() {
        // Stride 0 names no sampling; running it as stride 1 would hide
        // the mistake.
        let err = pincheck_build(CampaignConfig { site_stride: 0, ..CampaignConfig::default() })
            .unwrap_err();
        assert!(
            matches!(err, CampaignError::InvalidConfig { field: "site_stride", .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("`site_stride`"), "{err}");
    }

    #[test]
    fn zero_faulted_budget_is_rejected() {
        // A zero budget would time out every plan: all 147 of pincheck's
        // skip plans would read TimedOut, hiding its successes.
        let zero = CampaignConfig {
            faulted_step_multiplier: 0,
            faulted_min_steps: 0,
            ..CampaignConfig::default()
        };
        let err = pincheck_build(zero).unwrap_err();
        assert!(
            matches!(err, CampaignError::InvalidConfig { field: "faulted_min_steps", .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("faulted_step_multiplier"), "{err}");
        // Either half alone still budgets the faulted runs.
        let reference = run_one(&pincheck_session(), &InstructionSkip);
        assert!(reference.summary().success > 0);
        for config in [
            CampaignConfig { faulted_step_multiplier: 0, ..CampaignConfig::default() },
            CampaignConfig { faulted_min_steps: 0, ..CampaignConfig::default() },
        ] {
            let report = run_one(&pincheck_session_with(config), &InstructionSkip);
            assert_eq!(report.results, reference.results);
        }
    }

    #[test]
    fn session_owns_its_executable_and_inputs() {
        let session = {
            let w = pincheck();
            // The executable and inputs are moved/copied into the
            // session; nothing borrowed outlives this block.
            CampaignSession::builder(w.build().unwrap())
                .good_input(w.good_input)
                .bad_input(w.bad_input)
                .build()
                .unwrap()
        };
        assert!(session.good_input().is_some());
        assert!(!session.bad_input().is_empty());
        assert!(session.exe().code_size() > 0);
        let report = run_one(&session, &InstructionSkip);
        assert!(report.summary().success > 0);
    }

    #[test]
    fn sites_cover_the_bad_trace() {
        let session = pincheck_session();
        assert_eq!(session.sites().len() as u64, session.golden_bad().steps);
        for (i, site) in session.sites().iter().enumerate() {
            assert_eq!(site.step, i as u64);
        }
    }

    #[test]
    fn unprotected_pincheck_is_skip_vulnerable_at_branches() {
        let session = pincheck_session();
        let report = run_one(&session, &InstructionSkip);
        let summary = report.summary();
        assert!(summary.success > 0, "expected skip vulnerabilities: {summary}");
        assert!(summary.benign > 0, "skips off the critical path are benign");

        // The classic vulnerability: skipping a `jne deny`. The paper
        // reports all vulnerabilities stem from the conditional jumps and
        // the mov/cmp instructions feeding them; at minimum a conditional
        // jump must be among ours.
        let vulnerable_kinds: Vec<InstrKind> = report
            .vulnerabilities()
            .iter()
            .map(|result| {
                session
                    .sites()
                    .iter()
                    .find(|s| s.step == result.fault().step)
                    .expect("vulnerability at a known site")
                    .insn
                    .kind()
            })
            .collect();
        assert!(
            vulnerable_kinds.contains(&InstrKind::CondJump),
            "expected a conditional-jump vulnerability, got {vulnerable_kinds:?}"
        );
    }

    #[test]
    fn bit_flips_produce_crashes_and_successes() {
        let session = pincheck_session();
        let report = run_one(&session, &SingleBitFlip);
        let summary = report.summary();
        assert!(summary.success > 0, "{summary}");
        assert!(summary.crashed > 0, "sparse opcodes must yield crashes: {summary}");
        assert!(summary.benign > 0, "{summary}");
        // Executed + statically-pruned covers the full 8 × len space.
        let space: usize = session.sites().iter().map(|s| s.len * 8).sum();
        assert_eq!(summary.total + report.plans_pruned_static() as usize, space);
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let reference = run_one(&pincheck_session(), &InstructionSkip);
        for threads in [1, 4] {
            let config = CampaignConfig { threads, ..CampaignConfig::default() };
            let report = run_one(&pincheck_session_with(config), &InstructionSkip);
            assert_eq!(report.results, reference.results, "threads={threads}");
        }
    }

    #[test]
    fn multiple_models_share_one_pass_and_match_solo_runs() {
        use crate::model::{PairPolicy, PlanConfig};
        let models: [&dyn FaultModel; 3] = [&InstructionSkip, &FlagFlip, &SingleBitFlip];
        let window = |max_gap| PairPolicy::WithinWindow { max_gap };
        let cases = [
            (PlanConfig::default(), &models[..]),
            // Sampled pairs.
            (PlanConfig { order: 2, policy: window(3), budget: Some(40), seed: 5 }, &models[..]),
            // Exhaustive triples: both sinks walk them order by order.
            (PlanConfig { order: 3, policy: window(1), budget: None, seed: 0 }, &models[..2]),
        ];
        for (plan, models) in cases {
            let session =
                pincheck_session_with(CampaignConfig { plan, ..CampaignConfig::default() });
            let combined = session.run(models, Collect);
            assert_eq!(combined.len(), models.len());
            for (model, combined_report) in models.iter().zip(&combined) {
                let solo = run_one(&session, *model);
                assert_eq!(combined_report.model, solo.model);
                assert_eq!(combined_report.results, solo.results, "{} {plan:?}", solo.model);
                assert_eq!(combined_report.pruned_by_order, solo.pruned_by_order);
            }
            // The streaming sink agrees model-by-model.
            let streamed = session.run(models, Stream);
            for (report, summary) in combined.iter().zip(&streamed) {
                assert_eq!(report.summary(), summary.summary, "{} {plan:?}", report.model);
                assert_eq!(report.model, summary.model);
            }
        }
    }

    #[test]
    fn naive_session_records_no_snapshots_but_classifies_identically() {
        // The engine choice is a construction-time property: a naive
        // session records no snapshots — and since `run` is the only
        // entry point and always evaluates with the constructed engine,
        // the old footgun (asking a snapshot-less campaign for a
        // checkpointed run, silently replaying from zero) is
        // unrepresentable.
        let naive = pincheck_session_with(CampaignConfig {
            engine: CampaignEngine::Naive,
            ..CampaignConfig::default()
        });
        assert_eq!(naive.engine(), CampaignEngine::Naive);
        assert!(!naive.replay_engine().records_snapshots());
        assert_eq!(naive.replay_engine().checkpoint_count(), 1, "initial state only");
        assert_eq!(naive.replay_footprint().retained_bytes, 0);

        // The engine changes memory and replay cost, never results.
        let checkpointed = pincheck_session();
        assert!(checkpointed.replay_engine().records_snapshots());
        assert!(checkpointed.replay_footprint().checkpoints > 1);
        assert_eq!(
            run_one(&naive, &InstructionSkip).results,
            run_one(&checkpointed, &InstructionSkip).results
        );
    }

    #[test]
    fn streaming_summary_matches_materialized_report() {
        for engine in [CampaignEngine::Naive, CampaignEngine::Checkpointed] {
            let session =
                pincheck_session_with(CampaignConfig { engine, ..CampaignConfig::default() });
            let report = run_one(&session, &FlagFlip);
            let streamed = session.run(&[&FlagFlip as &dyn FaultModel], Stream);
            assert_eq!(streamed.len(), 1);
            assert_eq!(streamed[0].summary, report.summary(), "{engine}");
        }
    }

    #[test]
    fn streamed_runs_announce_every_plan_before_evaluating() {
        use crate::model::{PairPolicy, PlanConfig};
        // Progress reads plans executed over `plans_total`: a streamed
        // run announces the kept singles plus each higher order's kept
        // count, capped by the budget — the plans a Collect run lists.
        let pairs = PlanConfig { order: 2, policy: PairPolicy::Pairs, budget: Some(5), seed: 3 };
        for plan in [PlanConfig::default(), pairs] {
            let config = CampaignConfig { plan, ..CampaignConfig::default() };
            let w = pincheck();
            let telemetry = Telemetry::counters();
            let session = CampaignSession::builder(w.build().unwrap())
                .good_input(&w.good_input[..])
                .bad_input(&w.bad_input[..])
                .config(config.clone())
                .telemetry(telemetry.clone())
                .build()
                .unwrap();
            session.run(&[&InstructionSkip as &dyn FaultModel], Stream);
            let metrics = telemetry.metrics().unwrap();
            let executed = metrics.counter(Counter::PlansExecuted);
            assert_eq!(metrics.gauge(Gauge::PlansTotal), executed, "order {}", plan.order);
            let collected = run_one(&pincheck_session_with(config), &InstructionSkip);
            assert_eq!(executed, collected.results.len() as u64, "order {}", plan.order);
        }
    }

    #[test]
    fn plan_counts_beyond_u64_saturate_in_telemetry() {
        use crate::model::PlanConfig;
        // Up to order 16, static pruning removes about 5.8e28 of
        // pincheck's flag-flip plans, more than a u64 holds: both sinks
        // report u64::MAX instead of a wrapped count.
        let plan = PlanConfig { order: 16, budget: Some(10), ..PlanConfig::default() };
        for streaming in [false, true] {
            let w = pincheck();
            let telemetry = Telemetry::counters();
            let session = CampaignSession::builder(w.build().unwrap())
                .good_input(&w.good_input[..])
                .bad_input(&w.bad_input[..])
                .config(CampaignConfig { plan, ..CampaignConfig::default() })
                .telemetry(telemetry.clone())
                .build()
                .unwrap();
            let executed = if streaming {
                session.run(&[&FlagFlip as &dyn FaultModel], Stream)[0].summary.total
            } else {
                let report = run_one(&session, &FlagFlip);
                assert!(report.plans_pruned_static() > u128::from(u64::MAX));
                report.results.len()
            };
            let metrics = telemetry.metrics().unwrap();
            assert_eq!(metrics.counter(Counter::PlansPrunedStatic), u64::MAX, "{streaming}");
            assert_eq!(metrics.gauge(Gauge::PlansTotal), executed as u64, "{streaming}");
        }
    }

    #[test]
    fn orders_whose_plan_space_overflows_are_rejected() {
        use crate::model::PlanConfig;
        let plan = |order| PlanConfig { order, budget: Some(10), ..PlanConfig::default() };
        // pincheck's 147 sites hold more than 2^128 skip chains from
        // order 46 on; building such a session is a typed error,
        // returned without counting past the overflow.
        for order in [48, 148] {
            let started = std::time::Instant::now();
            let w = pincheck();
            let err = CampaignSession::builder(w.build().unwrap())
                .good_input(&w.good_input[..])
                .bad_input(&w.bad_input[..])
                .config(CampaignConfig { plan: plan(order), ..CampaignConfig::default() })
                .build()
                .unwrap_err();
            assert_eq!(err, CampaignError::PlanSpaceOverflow { order });
            assert!(err.to_string().contains(&format!("order-{order}")), "{err}");
            assert!(started.elapsed() < std::time::Duration::from_secs(10), "order {order}");
        }
        // At order 20 one fault per site fits, 8 × len bit flips per
        // site do not: the session builds, and the model check reports
        // the overflow `run` would panic on.
        let session =
            pincheck_session_with(CampaignConfig { plan: plan(20), ..CampaignConfig::default() });
        assert_eq!(session.check_plan_space(&[&InstructionSkip, &FlagFlip]), Ok(()));
        assert_eq!(
            session.check_plan_space(&[&InstructionSkip, &SingleBitFlip]),
            Err(CampaignError::PlanSpaceOverflow { order: 20 })
        );
    }

    #[test]
    fn flag_flips_can_invert_decisions() {
        // Flipping Z right before `jne deny` takes the grant path.
        let report = run_one(&pincheck_session(), &FlagFlip);
        assert!(report.summary().success > 0);
    }

    #[test]
    fn vulnerable_pcs_deduplicate_loop_sites() {
        let session = pincheck_session();
        let report = run_one(&session, &InstructionSkip);
        let pcs = report.vulnerable_pcs();
        assert!(!pcs.is_empty());
        assert!(pcs.len() <= report.vulnerabilities().len());
        for pc in &pcs {
            assert!(session.exe().text_range().contains(pc));
        }
    }

    #[test]
    fn summary_counts_add_up() {
        let session = pincheck_session();
        let report = run_one(&session, &InstructionSkip);
        let s = report.summary();
        assert_eq!(
            s.total,
            s.success + s.benign + s.crashed + s.timed_out + s.corrupted + s.diverged
        );
        assert_eq!(s.total, report.results.len());
        assert_eq!(s.diverged, 0, "golden replays never diverge");
    }

    #[test]
    fn divergent_replay_reports_instead_of_panicking() {
        for engine in [CampaignEngine::Naive, CampaignEngine::Checkpointed] {
            let session =
                pincheck_session_with(CampaignConfig { engine, ..CampaignConfig::default() });
            // A fault whose recorded pc disagrees with the trace models a
            // determinism violation; it must degrade to ReplayDiverged
            // (the seed implementation debug-asserted here and took the
            // whole process down in debug builds).
            let bogus = FaultPlan::single(Fault {
                step: 0,
                pc: 0xDEAD_0000,
                effect: FaultEffect::SkipInstruction,
            });
            assert_eq!(session.evaluate("test", &bogus), FaultClass::ReplayDiverged, "{engine}");
            // Beyond-trace steps likewise degrade gracefully.
            let beyond = FaultPlan::single(Fault {
                step: session.golden_bad().steps + 10,
                pc: 0x1000,
                effect: FaultEffect::SkipInstruction,
            });
            assert_eq!(session.evaluate("test", &beyond), FaultClass::ReplayDiverged, "{engine}");
        }
    }

    #[test]
    fn trusted_golden_good_skips_the_good_run() {
        let w = pincheck();
        let exe = w.build().unwrap();
        let first = CampaignSession::builder(exe.clone())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .build()
            .unwrap();
        assert!(!first.reused_golden_good());
        let golden = first.golden_good().expect("golden-pair session has a good run").clone();

        let reusing = CampaignSession::builder(exe)
            .bad_input(&w.bad_input[..])
            .golden_good(golden)
            .build()
            .unwrap();
        assert!(reusing.reused_golden_good());
        assert_eq!(reusing.golden_good(), first.golden_good());
        assert_eq!(
            run_one(&reusing, &InstructionSkip).results,
            run_one(&first, &InstructionSkip).results
        );
    }

    #[test]
    fn seeded_session_reuses_everything_across_an_identity_rewrite() {
        let w = pincheck();
        let exe = w.build().unwrap();
        let first = CampaignSession::builder(exe.clone())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .build()
            .unwrap();
        let models: [&dyn FaultModel; 2] = [&InstructionSkip, &FlagFlip];
        let reports = first.run(&models, Collect);
        assert_eq!(first.reuse_stats().sites_reused, 0, "unseeded sessions never reuse");

        // Same binary, nothing changed: every classification carries over
        // and the seeded session executes nothing.
        let seeded = CampaignSession::builder(exe)
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .seed_from(first.seed(&reports), &rr_disasm::ListingDelta::identity())
            .build()
            .unwrap();
        let again = seeded.run(&models, Collect);
        for (fresh, cached) in reports.iter().zip(&again) {
            assert_eq!(fresh.model, cached.model);
            assert_eq!(fresh.results, cached.results, "{}", fresh.model);
        }
        let stats = seeded.reuse_stats();
        assert!(stats.sites_reused > 0);
        assert_eq!(stats.sites_replayed, 0, "identity rewrite leaves nothing to replay");
        assert!((stats.reuse_percent() - 100.0).abs() < 1e-9);

        // A model the seed never ran is evaluated live — and classifies
        // exactly as in the unseeded session.
        let bitflip = seeded.run(&[&SingleBitFlip as &dyn FaultModel], Collect);
        assert!(seeded.reuse_stats().sites_replayed > 0);
        assert_eq!(bitflip[0].results, first.run(&[&SingleBitFlip], Collect)[0].results);
    }

    #[test]
    fn seeded_session_matches_a_full_campaign_across_a_real_rewrite() {
        // Patch pincheck behaviour-preservingly (insert a nop mid-text),
        // then campaign the rebuilt binary twice: from scratch, and seeded
        // with the original session's classifications through the listing
        // delta. Classifications must be bit-identical, with nonzero
        // reuse.
        let w = pincheck();
        let exe = w.build().unwrap();
        let first = CampaignSession::builder(exe.clone())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .build()
            .unwrap();
        let models: [&dyn FaultModel; 2] = [&InstructionSkip, &FlagFlip];
        let reports = first.run(&models, Collect);

        let listing = rr_disasm::disassemble(&exe).unwrap().listing;
        let mut patched = listing.clone();
        // Insert before an instruction the bad-input run demonstrably
        // executes (the mid-trace site), so the delta dirties real trace
        // steps.
        let mid_pc = first.sites()[first.sites().len() / 2].pc;
        let index = patched.find_code(mid_pc).expect("traced pc is in the listing");
        patched.text.insert(
            index,
            rr_disasm::Line::Code {
                orig_addr: None,
                insn: rr_disasm::SymInstr::Plain(rr_isa::Instr::Nop),
            },
        );
        let rebuilt = rr_asm::assemble_and_link(&patched.to_source()).unwrap();
        let delta = rr_disasm::ListingDelta::compute(&listing, &exe, &patched, &rebuilt).unwrap();

        let scratch = CampaignSession::builder(rebuilt.clone())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .build()
            .unwrap();
        let seeded = CampaignSession::builder(rebuilt)
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .seed_from(first.seed(&reports), &delta)
            .build()
            .unwrap();
        let scratch_reports = scratch.run(&models, Collect);
        let seeded_reports = seeded.run(&models, Collect);
        for (fresh, cached) in scratch_reports.iter().zip(&seeded_reports) {
            assert_eq!(fresh.results, cached.results, "{}", fresh.model);
        }
        let stats = seeded.reuse_stats();
        assert!(stats.sites_reused > 0, "{stats}");
        assert!(stats.sites_replayed > 0, "the nop executes, its region must replay: {stats}");
        // Seeding changes the cache, not the recording: the same
        // checkpoints, interval and retained footprint.
        assert_eq!(seeded.replay_footprint(), scratch.replay_footprint());
        assert!(seeded.replay_footprint().checkpoints > 1);
    }

    #[test]
    fn order_two_campaigns_subsume_order_one_and_agree_across_schedulers() {
        use crate::model::{PairPolicy, PlanConfig};
        let order2 = |engine, threads| {
            pincheck_session_with(CampaignConfig {
                engine,
                threads,
                plan: PlanConfig {
                    order: 2,
                    policy: PairPolicy::WithinWindow { max_gap: 6 },
                    ..PlanConfig::default()
                },
                ..CampaignConfig::default()
            })
        };
        let reference = run_one(&order2(CampaignEngine::Naive, 1), &InstructionSkip);
        assert!(reference.max_order() == 2, "pairs were enumerated");
        // The order-1 prefix is exactly the singleton campaign.
        let singles = run_one(&pincheck_session(), &InstructionSkip);
        let prefix: Vec<&FaultResult> =
            reference.results.iter().take(singles.results.len()).collect();
        for (single, multi) in singles.results.iter().zip(prefix) {
            assert_eq!(single, multi, "order-1 results are unchanged by the pair space");
        }
        // Bucketed checkpointed evaluation and naive per-plan evaluation
        // agree, across thread counts and both sinks.
        for threads in [1, 4] {
            let session = order2(CampaignEngine::Checkpointed, threads);
            let report = run_one(&session, &InstructionSkip);
            assert_eq!(report.results, reference.results, "threads={threads}");
            let streamed = session.run(&[&InstructionSkip as &dyn FaultModel], Stream);
            assert_eq!(streamed[0].summary, report.summary(), "stream threads={threads}");
        }
    }

    #[test]
    fn double_faults_change_outcomes_somewhere() {
        use crate::model::{PairPolicy, PlanConfig};
        // Not a tautology: at least one pair must classify differently
        // from both of its legs (two skips compose, they don't shadow).
        let session = pincheck_session_with(CampaignConfig {
            plan: PlanConfig {
                order: 2,
                policy: PairPolicy::WithinWindow { max_gap: 8 },
                ..PlanConfig::default()
            },
            ..CampaignConfig::default()
        });
        let report = run_one(&session, &InstructionSkip);
        let single_class = |step: u64| {
            report
                .results
                .iter()
                .find(|r| r.order() == 1 && r.fault().step == step)
                .map(|r| r.class)
        };
        let composing = report.results.iter().filter(|r| r.order() == 2).any(|pair| {
            let mut legs = pair.plan.iter();
            let (a, b) = (legs.next().unwrap().step, legs.next().unwrap().step);
            single_class(a).is_some_and(|c| c != pair.class)
                && single_class(b).is_some_and(|c| c != pair.class)
        });
        assert!(composing, "some pair must behave unlike either single fault");
    }

    #[test]
    fn custom_oracles_need_no_good_input() {
        use crate::oracle::{CrashTriageOracle, OutputPrefixOracle};
        let w = pincheck();
        let exe = w.build().unwrap();
        // Crash triage traces the bad input only.
        let triage = CampaignSession::builder(exe.clone())
            .bad_input(&w.bad_input[..])
            .oracle(CrashTriageOracle)
            .build()
            .unwrap();
        assert_eq!(triage.oracle().name(), "crash-triage");
        assert!(triage.golden_good().is_none());
        let summary = run_one(&triage, &SingleBitFlip).summary();
        assert!(summary.crashed > 0, "bit flips must crash somewhere: {summary}");
        assert_eq!(summary.success, 0, "crash triage never declares success");

        // An output-prefix goal covers the golden-pair successes on
        // pincheck — behaving "like the good run" implies "printed
        // ACCESS GRANTED" (the prefix oracle may also credit runs that
        // printed the goal and then diverged).
        let prefix = CampaignSession::builder(exe)
            .bad_input(&w.bad_input[..])
            .oracle(OutputPrefixOracle::new(&b"ACCESS GRANTED"[..]))
            .build()
            .unwrap();
        let by_prefix = run_one(&prefix, &InstructionSkip);
        let by_pair = run_one(&pincheck_session(), &InstructionSkip);
        assert!(by_prefix.summary().success >= by_pair.summary().success);
        assert!(by_prefix.vulnerable_pcs().is_superset(&by_pair.vulnerable_pcs()));
    }
}
