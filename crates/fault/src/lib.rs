//! # rr-fault — fault models, oracles, and the campaign session
//!
//! This crate is the **faulter** of the paper's Faulter+Patcher loop
//! (§IV-B): it simulates hardware fault injection against an
//! [`rr_obj::Executable`] and reports which faults are *successful* — in
//! the paper's attacker model, make a run on a **bad** input behave
//! exactly like a run on a **good** input.
//!
//! The procedure follows the paper:
//!
//! 1. Run the binary on the good and the bad input; both must exit
//!    normally and behave differently (the *golden* runs).
//! 2. Trace the bad-input run: every executed program counter is a
//!    potential fault site.
//! 3. Expand the faults the chosen [`FaultModel`] enumerates at every
//!    site into ordered injection [`FaultPlan`]s (singletons by default;
//!    pairs and beyond per [`PlanConfig`]), and for each plan: replay the
//!    run up to its earliest injection, apply each effect as its trace
//!    step arrives, resume, and classify the behaviour.
//!
//! The API is built around an owned, reusable [`CampaignSession`]:
//!
//! * [`CampaignSession::builder`] owns the executable and inputs
//!   (`Arc`-shared with the replay machinery), performs the golden runs
//!   once, and fixes the execution engine — the **naive** engine replays
//!   from step 0 per fault (O(T²) over a `T`-step trace), the default
//!   **checkpointed** engine restores `rr-engine` snapshots recorded
//!   every ≈ √T steps and steps forward (~O(T·√T)). A naive session
//!   records no snapshots and can never be asked for a checkpointed
//!   evaluation, so the two cannot be mismatched.
//! * Classification is a pluggable [`Oracle`]. The default
//!   [`GoldenPairOracle`] implements the paper's comparison
//!   ([`FaultClass::Success`] = matches the good run, [`FaultClass::Benign`]
//!   = still matches the bad run, `Crashed`/`TimedOut`/`Corrupted`
//!   otherwise); [`OutputPrefixOracle`] and [`CrashTriageOracle`] run
//!   campaigns that need no good input at all.
//! * [`CampaignSession::run`] is the one entry point: any number of
//!   models share one plan walk and one scheduling pass, and the sink
//!   argument picks the consumption — [`Collect`] materializes a
//!   [`CampaignReport`] per model, [`Stream`] folds straight into a
//!   [`ModelSummary`] per model, holding the sampled sites plus one
//!   batch of plans (order ≥ 2 also holds one model's faults at each
//!   sampled site at a time).
//!
//! Both engines classify every fault identically — determinism is the
//! emulator's contract, and `crates/fault/tests/engine_equiv.rs`
//! enforces bit-identical reports across engines, sinks, and thread
//! counts.
//!
//! A checkpointed session also skips work no classification can see.
//! After a plan's last injection it stops a run that rejoins the golden
//! bad run at a retained checkpoint: same pc, stop state, input cursor
//! and executable memory, and the same value in every register, NZCV bit
//! and memory word the golden remainder reads before overwriting it
//! (`rr_engine::ReplayEngine::rejoins`). The rest of the behaviour comes
//! from the golden run: its outcome, its remaining steps, and its output
//! after the checkpoint appended to the run's own. And it stops a run still going at
//! twice the golden run's steps once an `rr_emu::HangDetector` proves
//! it repeats one period until its step budget: such a run would time
//! out, and its output and step count at the budget are extrapolated
//! exactly. Under bit flips, the model whose faults loop forever, every
//! `TimedOut` plan of the four bundled workloads ends this way. The naive engine takes neither
//! shortcut and stays the reference; `tests/tests/steps_exact.rs`
//! compares the two under oracles that read the steps and output of
//! every run.
//!
//! For iterative loops that re-campaign after a small binary rewrite,
//! sessions support **incremental re-campaigning**: package a finished
//! session's classifications with [`CampaignSession::seed`], compute the
//! rewrite's [`ListingDelta`], and hand both to the next builder via
//! [`CampaignSessionBuilder::seed_from`]. Sites the rewrite provably
//! left alone reuse the prior [`FaultClass`] from a
//! [`ClassificationCache`] without executing anything (guarded by the
//! [`Oracle::fingerprint`]); the session still records its golden run
//! once, exactly as an unseeded one would. [`CampaignSession::reuse_stats`]
//! reports the reused/replayed split.
//!
//! Fault models provided:
//!
//! * [`InstructionSkip`] — the paper's "instruction skip" model,
//! * [`SingleBitFlip`] — the paper's "single bit flip" model (a persistent
//!   flip in the instruction's encoded bytes, as a voltage/laser glitch on
//!   the fetch path would produce),
//! * [`RegisterBitFlip`] and [`FlagFlip`] — additional transient models
//!   for wider coverage.
//!
//! ## Multi-fault plans
//!
//! The unit every campaign evaluates is an ordered [`FaultPlan`] — one
//! or more injections applied to the *same* run, in trace-step order.
//! The classic single-fault campaign is the plan of length 1 (the
//! default, [`PlanConfig::order`]` == 1`); raising the order models an
//! attacker firing several timed glitches in one execution, e.g. the
//! double fault that skips both a check *and* its duplicated
//! countermeasure — which order-1 hardening cannot even see.
//! [`PairPolicy::WithinWindow`] keeps the pair space physical (bounded
//! glitch re-arm time) and [`PlanConfig::budget`] caps each order by
//! seeded uniform sampling, since exhaustive cross-products explode;
//! the seed makes sampled campaigns exactly reproducible. Later
//! injections are **time-triggered**: each effect fires when the run
//! reaches its trace step, wherever the earlier fault diverted control —
//! and a run that ends early simply never receives them.
//!
//! Every campaign, through either sink, takes its plans from one lazy
//! walk — every model's singletons site by site, each site's faults
//! generated when it is reached, then each model's higher orders in
//! canonical order, from a plan space built when the walk reaches the
//! model — and schedules them in buckets
//! ([`rr_engine::shard::run_bucketed`]), through one batch loop: the
//! whole campaign at once for [`Collect`], 1024 plans at a time for
//! [`Stream`]. A checkpointed session buckets plans by **checkpoint
//! neighbourhood** — plans whose earliest injections share a retained
//! checkpoint — and sweeps each bucket,
//! restoring the checkpoint once and cloning the in-flight machine
//! (cheap, COW) at each injection point, instead of paying
//! restore-plus-forward-replay per plan. A naive session buckets plans
//! by earliest injection step, only to spread them across workers, and
//! replays each from step 0.
//!
//! ## Example
//!
//! ```
//! use rr_fault::{CampaignSession, Collect, FaultClass, InstructionSkip};
//! use rr_workloads::pincheck;
//!
//! let w = pincheck();
//! let session = CampaignSession::builder(w.build()?)
//!     .good_input(&w.good_input[..])
//!     .bad_input(&w.bad_input[..])
//!     .build()?;
//! let report = session.run(&[&InstructionSkip], Collect).pop().unwrap();
//! // The unprotected pincheck is skip-vulnerable:
//! assert!(report.count(FaultClass::Success) > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Example: a double-fault campaign
//!
//! ```
//! use rr_fault::{
//!     CampaignConfig, CampaignSession, Collect, InstructionSkip, PairPolicy, PlanConfig,
//! };
//! use rr_workloads::pincheck;
//!
//! let w = pincheck();
//! let config = CampaignConfig {
//!     plan: PlanConfig {
//!         order: 2,                                        // singles + pairs
//!         policy: PairPolicy::WithinWindow { max_gap: 8 }, // ≤8 steps apart
//!         budget: Some(10_000),                            // sample if larger
//!         seed: 42,                                        // reproducible
//!     },
//!     ..CampaignConfig::default()
//! };
//! let session = CampaignSession::builder(w.build()?)
//!     .good_input(&w.good_input[..])
//!     .bad_input(&w.bad_input[..])
//!     .config(config)
//!     .build()?;
//! let report = session.run(&[&InstructionSkip], Collect).pop().unwrap();
//! // Per-order breakdown: order 1 rides along unchanged, order 2 adds
//! // the double faults.
//! for (order, summary) in report.summary_by_order() {
//!     println!("order {order}: {summary}");
//! }
//! assert_eq!(report.max_order(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod analysis;
mod cache;
mod config;
mod model;
mod oracle;
mod report;
mod session;
mod site;

pub use analysis::{fault_verdict, plan_is_benign, Analysis, StaticVerdict};
pub use cache::{CampaignSeed, ClassificationCache, ReuseStats, REUSE_GUARD_WINDOW};
pub use config::{CampaignConfig, CampaignEngine, ExecMode};
pub use model::{
    enumerate_plans_pruned, FaultModel, FlagFlip, InstructionSkip, PairPolicy, PlanConfig, PlanSet,
    RegisterBitFlip, SingleBitFlip,
};
pub use oracle::{Behavior, CrashTriageOracle, GoldenPairOracle, Oracle, OutputPrefixOracle};
pub use report::{CampaignReport, FaultResult, ModelSummary, Summary};
pub use session::{CampaignError, CampaignSession, CampaignSessionBuilder, Collect, Sink, Stream};
pub use site::{Fault, FaultClass, FaultEffect, FaultPlan, FaultSite};

// The listing delta is the input to [`CampaignSessionBuilder::seed_from`];
// re-exported so incremental campaign drivers don't need an rr-disasm
// dependency to pass one through.
pub use rr_disasm::ListingDelta;
