//! Harness-side layer accounting for the traced run.
//!
//! The benchmark adds no tracing inside the program. A [`Probe`] times the
//! calls an operation makes into each crate's public functions from the
//! outside, keeps one span per call in memory, and takes the
//! session-level measurements that need a call of their own
//! (`Analysis::from_executable`, `enumerate_plans_pruned`). Those extra
//! calls run outside the operation: their time is booked as excluded and
//! subtracted from the operation's wall time. An untraced probe only runs
//! the closures it is handed and never reads a clock.

use rr_fault::{enumerate_plans_pruned, Analysis, CampaignSession, FaultModel, FaultSite};
use std::time::Instant;

/// A call into one crate's public API that the harness times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `CampaignSessionBuilder::build` (golden runs, recording, block
    /// cache, analysis).
    SessionBuild,
    /// `CampaignSession::run` (plus `sample_sites`).
    CampaignRun,
    /// `CampaignSession::seed`, packaging a finished campaign for reuse.
    SessionSeed,
    /// `rr_disasm::disassemble_with`.
    Disasm,
    /// `ListingDelta::compute`.
    Delta,
    /// `rr_patch::apply_patterns`.
    PatchApply,
    /// `Listing::to_source` + `rr_asm::assemble_and_link` on a patched
    /// listing.
    Relink,
    /// `rr_emu::execute` on the golden inputs of a rewritten binary.
    GoldenExec,
    /// `rr_lift::lift`.
    Lift,
    /// `PromoteCells` + `DeadCodeElimination` through the pass manager.
    IrOpt,
    /// The `BranchHardening` pass.
    HardenPass,
    /// `rr_ir::verify` after hardening.
    IrVerify,
    /// `rr_lower::compile`.
    Lower,
}

impl Section {
    /// Number of sections.
    pub const COUNT: usize = 13;
    /// Every section, in index order.
    pub const ALL: [Section; Section::COUNT] = [
        Section::SessionBuild,
        Section::CampaignRun,
        Section::SessionSeed,
        Section::Disasm,
        Section::Delta,
        Section::PatchApply,
        Section::Relink,
        Section::GoldenExec,
        Section::Lift,
        Section::IrOpt,
        Section::HardenPass,
        Section::IrVerify,
        Section::Lower,
    ];

    /// Span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Section::SessionBuild => "fault.session_build",
            Section::CampaignRun => "fault.run",
            Section::SessionSeed => "fault.seed",
            Section::Disasm => "disasm.disassemble",
            Section::Delta => "disasm.delta",
            Section::PatchApply => "patch.apply",
            Section::Relink => "asm.relink",
            Section::GoldenExec => "emu.golden_exec",
            Section::Lift => "lift.lift",
            Section::IrOpt => "ir.opt",
            Section::HardenPass => "harden.branch",
            Section::IrVerify => "ir.verify",
            Section::Lower => "lower.compile",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One timed call, in nanoseconds since the probe's epoch.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// What was called.
    pub section: Section,
    /// Start of the call.
    pub start_ns: u64,
    /// End of the call.
    pub end_ns: u64,
}

/// Counts one operation's sessions and patches add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Facts {
    /// Sessions built.
    pub sessions: u64,
    /// Checkpoints retained, summed over sessions.
    pub checkpoints: u64,
    /// Incremental checkpoint bytes retained, summed over sessions.
    pub retained_bytes: u64,
    /// Golden bad-input trace length of the operation's first session.
    pub golden_steps: u64,
    /// Plans classified `TimedOut`, summed over campaigns.
    pub timed_out: u64,
    /// Steps those plans were allowed (the faulted budget each burns).
    pub timed_out_steps: u64,
    /// Sites the patcher protected.
    pub sites_patched: u64,
}

impl Facts {
    /// Sums two operations' facts; the golden trace lengths add too.
    #[must_use]
    pub fn add(&self, o: &Facts) -> Facts {
        Facts {
            sessions: self.sessions + o.sessions,
            checkpoints: self.checkpoints + o.checkpoints,
            retained_bytes: self.retained_bytes + o.retained_bytes,
            golden_steps: self.golden_steps + o.golden_steps,
            timed_out: self.timed_out + o.timed_out,
            timed_out_steps: self.timed_out_steps + o.timed_out_steps,
            sites_patched: self.sites_patched + o.sites_patched,
        }
    }
}

/// Per-operation layer accounting.
#[derive(Debug)]
pub struct Probe {
    on: bool,
    epoch: Instant,
    /// Nanoseconds per [`Section`], summed over calls.
    pub section_ns: [u64; Section::COUNT],
    /// Every timed call, in order.
    pub spans: Vec<SpanRecord>,
    /// Time spent in measurement-only calls, which the operation's wall
    /// time excludes.
    pub excluded_ns: u64,
    /// `Analysis::from_executable` on each session's binary.
    pub analysis_ns: u64,
    /// `enumerate_plans_pruned` on each session's sampled sites.
    pub enumerate_ns: u64,
    /// Session and patch counts.
    pub facts: Facts,
}

impl Probe {
    /// A probe that times nothing.
    pub fn off() -> Probe {
        Probe::new(false, Instant::now())
    }

    /// A probe that times every call, relative to `epoch`.
    pub fn on(epoch: Instant) -> Probe {
        Probe::new(true, epoch)
    }

    fn new(on: bool, epoch: Instant) -> Probe {
        Probe {
            on,
            epoch,
            section_ns: [0; Section::COUNT],
            spans: Vec::new(),
            excluded_ns: 0,
            analysis_ns: 0,
            enumerate_ns: 0,
            facts: Facts::default(),
        }
    }

    /// Whether calls are timed.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` as one call of `section`, timing it when the probe is on.
    pub fn time<T>(&mut self, section: Section, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.section_ns[section.index()] += (end - start).as_nanos() as u64;
        self.spans.push(SpanRecord {
            section,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        out
    }

    /// Nanoseconds booked to `section`.
    pub fn ns(&self, section: Section) -> u64 {
        self.section_ns[section.index()]
    }

    /// Records a finished campaign session: its checkpoints, its golden
    /// trace, its `TimedOut` plans and their budget, and — outside the
    /// operation's time — how long analysing its binary and enumerating
    /// its plans take when called on their own.
    pub fn session(
        &mut self,
        session: &CampaignSession,
        models: &[&dyn FaultModel],
        timed_out: u64,
    ) {
        if !self.on {
            return;
        }
        let config = session.config();
        let facts = &mut self.facts;
        if facts.sessions == 0 {
            facts.golden_steps = session.golden_bad().steps;
        }
        facts.sessions += 1;
        facts.checkpoints += session.replay_engine().checkpoint_count() as u64;
        facts.retained_bytes += session.replay_engine().retained_bytes();
        let budget = (session.golden_bad().steps * config.faulted_step_multiplier)
            .max(config.faulted_min_steps);
        facts.timed_out += timed_out;
        facts.timed_out_steps += timed_out * budget;

        let start = Instant::now();
        let analysis = Analysis::from_executable(session.exe());
        let analysed = Instant::now();
        std::hint::black_box(&analysis);
        let pruning =
            if config.static_prune && !config.audit_analysis { session.analysis() } else { None };
        let sites: Vec<&FaultSite> =
            session.sites().iter().step_by(config.site_stride.max(1)).collect();
        for model in models {
            std::hint::black_box(enumerate_plans_pruned(*model, &sites, &config.plan, pruning));
        }
        let enumerated = Instant::now();
        self.analysis_ns += (analysed - start).as_nanos() as u64;
        self.enumerate_ns += (enumerated - analysed).as_nanos() as u64;
        self.excluded_ns += (enumerated - start).as_nanos() as u64;
    }
}
