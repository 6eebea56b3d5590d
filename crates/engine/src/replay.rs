//! Recording a golden run with periodic checkpoints and replaying to
//! arbitrary trace steps.

use rr_emu::{
    BlockCache, BlockStats, Execution, Machine, MemoryDelta, RunOutcome, RunResult, Snapshot,
    UopConfig,
};
use rr_obj::Executable;
use rr_telemetry::{Counter, Gauge, SpanKind, Telemetry};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// How recorded and replayed instructions execute.
///
/// Both modes are bit-identical — same traces, same outcomes, same
/// architectural state at every observable point (pinned by the emu
/// proptests and the campaign equivalence suites) — so the choice is
/// purely a speed knob, surfaced as `--exec` on the CLI. A session
/// builds a block cache ([`crate::build_block_cache`]) exactly when
/// [`ExecMode::uses_block_cache`] holds; a present
/// [`ReplayConfig::block_cache`] then means the uop tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Per-step fetch/decode interpretation everywhere (the reference
    /// oracle).
    Interp,
    /// The uop tier ([`rr_emu::Machine::run_uops`]): cold blocks run as
    /// pre-decoded bodies, blocks crossing
    /// [`rr_emu::UopConfig::hot_threshold`] compile once to micro-op
    /// traces with lazy NZCV, and modified code runs from blocks decoded
    /// out of the machine's own memory, which tier the same way.
    #[default]
    Uops,
}

impl ExecMode {
    /// Whether this mode executes through a pre-decoded block cache.
    pub fn uses_block_cache(self) -> bool {
        self != ExecMode::Interp
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecMode::Interp => "interp",
            ExecMode::Uops => "uops",
        })
    }
}

impl FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" => Ok(ExecMode::Interp),
            "uops" => Ok(ExecMode::Uops),
            other => Err(format!("unknown exec mode `{other}` (interp|uops)")),
        }
    }
}

/// Tunables for [`ReplayEngine::record`].
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Step budget for the recording run.
    pub max_steps: u64,
    /// Capture a checkpoint every this many steps; `0` = adaptive
    /// (tracks ≈ √T as the run grows, the total-work optimum when
    /// replays are uniformly distributed over the trace — no probe run
    /// needed).
    pub checkpoint_interval: u64,
    /// Ceiling on the number of retained checkpoints; `0` = unlimited.
    /// With page-granular COW memory the per-checkpoint cost is bytes
    /// dirtied, so [`ReplayConfig::max_retained_bytes`] is the
    /// meaningful memory bound — this count cap remains as a secondary
    /// guard on per-checkpoint fixed overhead.
    pub max_checkpoints: usize,
    /// *Byte* budget for retained checkpoint state, measured as the
    /// page-granular dirtied bytes between consecutive checkpoints
    /// ([`rr_emu::Snapshot::dirtied_since`]). When the recording would
    /// exceed it, the interval doubles and the recorded checkpoints are
    /// thinned — same mechanism as the count cap, but bounding what
    /// actually matters: resident memory. `0` = unlimited.
    pub max_retained_bytes: u64,
    /// When `false`, only the initial state is captured: the trace and
    /// behaviour are still recorded, but [`ReplayEngine::machine_at`]
    /// degrades to replay-from-0. The engine hint for consumers that
    /// will only ever replay naively and shouldn't pay for snapshots.
    pub record_snapshots: bool,
    /// Telemetry handle the recording and every replay report through
    /// (`record`/`snapshot`/`restore` spans, checkpoint-restore counts,
    /// retained-byte gauges). The default handle is disabled and costs a
    /// pointer check per event.
    pub telemetry: Telemetry,
    /// Pre-decoded superblocks over the executable's text (see
    /// [`crate::build_block_cache`]). When set, the recording run and
    /// [`ReplayEngine::machine_at`] forward-stepping execute through the
    /// uop tier ([`rr_emu::Machine::run_uops`]) — bit-identical to the
    /// interpreter, but without per-step fetch/decode outside injection
    /// and capture fences. `None` runs the plain interpreter.
    pub block_cache: Option<Arc<BlockCache>>,
    /// Tiering knob for the uop tier: how hot a block runs decoded
    /// before it is compiled. Ignored without a block cache.
    pub uop: UopConfig,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            max_steps: 1_000_000,
            checkpoint_interval: 0,
            max_checkpoints: 1024,
            max_retained_bytes: 256 << 20,
            record_snapshots: true,
            telemetry: Telemetry::default(),
            block_cache: None,
            uop: UopConfig::default(),
        }
    }
}

/// The checkpoint interval minimizing recorded-state + replay work for a
/// `steps`-long trace: √T, clamped to at least 1.
pub fn auto_interval(steps: u64) -> u64 {
    ((steps as f64).sqrt().ceil() as u64).max(1)
}

/// Why a replay request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The requested step lies beyond the recorded trace.
    OutOfTrace {
        /// The requested step.
        requested: u64,
        /// The recorded trace length.
        trace_len: u64,
    },
    /// Re-execution from the nearest checkpoint stopped early — the
    /// machine is not deterministic relative to the recording (a bug in
    /// the caller's state handling, surfaced instead of panicking).
    Diverged {
        /// The step at which re-execution stopped.
        step: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::OutOfTrace { requested, trace_len } => {
                write!(f, "step {requested} is beyond the {trace_len}-step recorded trace")
            }
            ReplayError::Diverged { step } => {
                write!(f, "replay diverged from the recording at step {step}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// One retained checkpoint of a recording: the golden machine's state
/// about to execute trace step [`Checkpoint::step`].
#[derive(Debug)]
pub struct Checkpoint {
    step: u64,
    snapshot: Snapshot,
    /// Pages this checkpoint no longer shares with the *previous retained*
    /// checkpoint — its incremental retained footprint. Zero for the
    /// initial checkpoint (accounted via resident bytes instead).
    delta: MemoryDelta,
}

impl Checkpoint {
    /// The trace step the captured machine is about to execute.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The captured machine state.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }
}

/// Aggregate memory footprint of a recording's retained checkpoints.
///
/// `retained_bytes` is what the page-granular COW representation keeps
/// privately across checkpoints; `region_cow_bytes` is what the previous
/// region-granular design would have kept for the *same* checkpoints
/// (one whole region per region touched per interval) — the ratio is the
/// win the paged memory buys, and the snapshot-footprint benchmark gates
/// it at ≥ 10× on stack-dirtying workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayFootprint {
    /// Retained checkpoints, including the initial state.
    pub checkpoints: usize,
    /// Checkpoint interval in trace steps.
    pub interval: u64,
    /// Materialized bytes of the initial checkpoint (shared by every
    /// later checkpoint that didn't dirty them).
    pub base_resident_bytes: u64,
    /// Pages dirtied between consecutive checkpoints, summed.
    pub retained_pages: u64,
    /// `retained_pages × PAGE_SIZE` — incremental retained state under
    /// page-granular COW.
    pub retained_bytes: u64,
    /// Incremental retained state region-granular COW would have kept
    /// for the same checkpoints.
    pub region_cow_bytes: u64,
}

impl fmt::Display for ReplayFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} checkpoints (interval {}): {} KiB retained ({} dirty pages; \
             region-COW would retain {} KiB)",
            self.checkpoints,
            self.interval,
            (self.base_resident_bytes + self.retained_bytes) / 1024,
            self.retained_pages,
            (self.base_resident_bytes + self.region_cow_bytes) / 1024,
        )
    }
}

/// One recorded golden run: its trace, behaviour, and periodic state
/// checkpoints, supporting O(√T) random access to any trace step.
#[derive(Debug)]
pub struct ReplayEngine {
    checkpoints: Vec<Checkpoint>,
    trace: Vec<u64>,
    execution: Execution,
    interval: u64,
    /// Whether periodic snapshots were captured (engine hint; `false`
    /// means only the initial state exists and replay is from step 0).
    snapshots: bool,
    /// Block cache the recording ran under; [`ReplayEngine::machine_at`]
    /// forward-steps through it (in the uop tier) when present, keeping
    /// the compiled bodies accumulated in the shared cache warm.
    block_cache: Option<Arc<BlockCache>>,
    uop: UopConfig,
    telemetry: Telemetry,
}

/// The checkpoint-capture schedule shared by [`ReplayEngine::record`]
/// and [`ReplayEngine::replay_range`], factored out so the interpreter
/// and block-cached drivers follow the identical policy: the interpreter
/// asks [`Recorder::should_capture`] before every step, the block driver
/// asks [`Recorder::next_fence`] for the step it must stop at.
struct Recorder<'a> {
    config: &'a ReplayConfig,
    /// First step eligible for periodic capture; `0` for a full
    /// recording, the last interval boundary at or before the window for
    /// a region-scoped one.
    aligned_start: u64,
    /// Last step eligible for capture; `u64::MAX` for a full recording.
    window_end: u64,
    /// Whether the interval still chases √T as the run grows (adaptive
    /// full recordings); pinned or windowed schedules widen only when a
    /// retention cap demands it.
    adaptive: bool,
    /// Whether periodic captures happen at all.
    enabled: bool,
    interval: u64,
    count_cap: u64,
    byte_cap: u64,
    retained_bytes: u64,
    checkpoints: Vec<Checkpoint>,
}

impl<'a> Recorder<'a> {
    /// Schedule for a full recording ([`ReplayEngine::record`]).
    fn full(machine: &Machine, config: &'a ReplayConfig) -> Recorder<'a> {
        let fixed = config.checkpoint_interval > 0;
        let interval = if fixed { config.checkpoint_interval } else { 1 };
        Recorder::new(machine, config, interval, !fixed, 0, u64::MAX, config.record_snapshots)
    }

    /// Schedule for a region-scoped recording
    /// ([`ReplayEngine::replay_range`]).
    fn windowed(
        machine: &Machine,
        config: &'a ReplayConfig,
        window: &std::ops::Range<u64>,
    ) -> Recorder<'a> {
        let interval = if config.checkpoint_interval > 0 {
            config.checkpoint_interval
        } else {
            auto_interval(window.end.saturating_sub(window.start))
        };
        let aligned_start = window.start - window.start % interval;
        let enabled = config.record_snapshots && !window.is_empty();
        Recorder::new(machine, config, interval, false, aligned_start, window.end, enabled)
    }

    fn new(
        machine: &Machine,
        config: &'a ReplayConfig,
        interval: u64,
        adaptive: bool,
        aligned_start: u64,
        window_end: u64,
        enabled: bool,
    ) -> Recorder<'a> {
        Recorder {
            config,
            aligned_start,
            window_end,
            adaptive,
            enabled,
            interval,
            count_cap: if config.max_checkpoints > 0 {
                config.max_checkpoints as u64
            } else {
                u64::MAX
            },
            byte_cap: if config.max_retained_bytes > 0 {
                config.max_retained_bytes
            } else {
                u64::MAX
            },
            retained_bytes: 0,
            checkpoints: vec![Checkpoint {
                step: 0,
                snapshot: machine.snapshot(),
                delta: MemoryDelta::default(),
            }],
        }
    }

    /// Whether a checkpoint is due with the machine about to execute
    /// trace step `step`.
    fn should_capture(&self, step: u64) -> bool {
        self.enabled
            && step > 0
            && step >= self.aligned_start
            && step <= self.window_end
            && (step - self.aligned_start).is_multiple_of(self.interval)
    }

    /// The next step strictly after `step` at which
    /// [`Recorder::should_capture`] holds — where the block-cached
    /// driver must fence. Recomputed per segment because thinning can
    /// widen the interval mid-run.
    fn next_fence(&self, step: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let fence = if step < self.aligned_start {
            self.aligned_start
        } else {
            self.aligned_start + ((step - self.aligned_start) / self.interval + 1) * self.interval
        };
        (fence <= self.window_end).then_some(fence)
    }

    /// Captures a checkpoint, then thins the schedule while a retention
    /// cap is exceeded. Adaptive mode additionally chases count ≈
    /// interval (≈ √T); the byte budget may need several doublings, so
    /// this loops — step 0 is always retained, so the thinning
    /// terminates.
    fn capture(&mut self, machine: &Machine, step: u64) {
        let capture_span = self.config.telemetry.span(SpanKind::Snapshot);
        let snapshot = machine.snapshot();
        let delta =
            snapshot.dirtied_since(&self.checkpoints.last().expect("initial state").snapshot);
        drop(capture_span);
        self.retained_bytes += delta.bytes;
        self.checkpoints.push(Checkpoint { step, snapshot, delta });
        loop {
            let grow_at = if self.adaptive {
                (2 * self.interval).min(self.count_cap)
            } else {
                self.count_cap
            };
            let over =
                self.checkpoints.len() as u64 > grow_at || self.retained_bytes > self.byte_cap;
            if !over || self.checkpoints.len() <= 1 {
                break;
            }
            self.interval *= 2;
            // Widening keeps the schedule's alignment: aligned_start
            // stays on an interval boundary when the interval doubles.
            let (start, interval) = (self.aligned_start, self.interval);
            self.checkpoints.retain(|c| {
                c.step == 0 || (c.step >= start && (c.step - start).is_multiple_of(interval))
            });
            self.retained_bytes = recompute_deltas(&mut self.checkpoints);
        }
    }
}

/// Drives one recorded execution under `recorder`'s capture schedule:
/// the interpreter path checks the schedule before every step; the
/// block-cached path executes fence-to-fence segments through
/// [`Machine::run_uops_traced`], paying the schedule check once per
/// segment instead of once per instruction.
fn run_recorded(
    machine: &mut Machine,
    config: &ReplayConfig,
    recorder: &mut Recorder<'_>,
    trace: &mut Vec<u64>,
) -> RunResult {
    let Some(cache) = config.block_cache.as_deref() else {
        return machine.run_with(config.max_steps, |m| {
            let step = trace.len() as u64;
            if recorder.should_capture(step) {
                recorder.capture(m, step);
            }
            trace.push(m.pc());
        });
    };
    let mut stats = BlockStats::default();
    let result = loop {
        let step = trace.len() as u64;
        if let Some(outcome) = machine.stopped() {
            break RunResult { outcome, steps: step };
        }
        if step >= config.max_steps {
            break RunResult { outcome: RunOutcome::TimedOut, steps: step };
        }
        if recorder.should_capture(step) {
            recorder.capture(machine, step);
        }
        let fence = recorder.next_fence(step).map_or(config.max_steps, |f| f.min(config.max_steps));
        machine.run_uops_traced(cache, config.uop, fence - step, &mut stats, trace);
    };
    flush_block_stats(&config.telemetry, stats);
    result
}

/// Batches a run's per-tier step counts (and the uop tier's compile,
/// re-decode and lazy-flag events) into the telemetry handle.
pub fn flush_block_stats(telemetry: &Telemetry, stats: BlockStats) {
    if stats.block_steps > 0 {
        telemetry.count(Counter::BlockSteps, stats.block_steps);
    }
    if stats.interp_steps > 0 {
        telemetry.count(Counter::InterpSteps, stats.interp_steps);
    }
    if stats.uop_steps > 0 {
        telemetry.count(Counter::UopSteps, stats.uop_steps);
    }
    if stats.blocks_compiled > 0 {
        telemetry.count(Counter::BlocksCompiled, stats.blocks_compiled);
    }
    if stats.flag_materializations > 0 {
        telemetry.count(Counter::FlagMaterializations, stats.flag_materializations);
    }
    if stats.tier_promotions > 0 {
        telemetry.count(Counter::TierPromotions, stats.tier_promotions);
    }
    if stats.blocks_redecoded > 0 {
        telemetry.count(Counter::BlocksRedecoded, stats.blocks_redecoded);
    }
}

impl ReplayEngine {
    /// Runs `exe` on `input`, recording the program counter of every
    /// executed instruction and a state checkpoint every
    /// `config.checkpoint_interval` steps (plus the initial state).
    ///
    /// With `checkpoint_interval = 0` the interval adapts while the run
    /// executes: whenever the checkpoint count overtakes twice the
    /// current interval (or `max_checkpoints`), the interval doubles and
    /// every odd checkpoint is dropped. Interval and count chase each
    /// other, so both end within a factor of two of √T — the optimum —
    /// after a single pass, with no probe run to discover T first, while
    /// the count stays bounded by `max_checkpoints` on very long traces.
    ///
    /// Retained state is additionally bounded by
    /// `config.max_retained_bytes`: every new checkpoint's dirtied-page
    /// delta against its predecessor is accounted, and the interval
    /// widens (thinning recorded checkpoints) whenever the running total
    /// would exceed the byte budget.
    pub fn record(exe: &Executable, input: &[u8], config: &ReplayConfig) -> ReplayEngine {
        let record_span = config.telemetry.span(SpanKind::Record);
        let mut machine = Machine::new(exe, input);
        let mut recorder = Recorder::full(&machine, config);
        let mut trace = Vec::new();
        let result = run_recorded(&mut machine, config, &mut recorder, &mut trace);
        let execution = Execution {
            outcome: result.outcome,
            output: machine.take_output(),
            steps: result.steps,
        };
        drop(record_span);
        let engine = ReplayEngine {
            checkpoints: recorder.checkpoints,
            trace,
            execution,
            interval: recorder.interval,
            snapshots: config.record_snapshots,
            block_cache: config.block_cache.clone(),
            uop: config.uop,
            telemetry: config.telemetry.clone(),
        };
        engine.publish_footprint();
        engine
    }

    /// Region-scoped recording: like [`ReplayEngine::record`], but state
    /// checkpoints are captured only for the trace-step `window` —
    /// everything before and after is traced without snapshots.
    ///
    /// This is the incremental re-campaign primitive: when a binary
    /// rewrite invalidates only a window of the prior campaign's
    /// classifications, re-recording the bad-input trace needs random
    /// access (and therefore snapshots) only inside that window. The
    /// capture schedule is aligned *down* to the checkpoint interval, so
    /// the first retained checkpoint is the last one preceding the
    /// window's first step; the initial state is always retained, keeping
    /// [`ReplayEngine::machine_at`] correct (merely slower) for steps
    /// outside the window.
    ///
    /// The interval is `config.checkpoint_interval` when pinned, else
    /// ≈ √(window length) — the optimum for replays confined to the
    /// window. `config.max_checkpoints` and `config.max_retained_bytes`
    /// still bound retained state by widening the interval.
    pub fn replay_range(
        exe: &Executable,
        input: &[u8],
        config: &ReplayConfig,
        window: std::ops::Range<u64>,
    ) -> ReplayEngine {
        let record_span = config.telemetry.span(SpanKind::Record);
        let mut machine = Machine::new(exe, input);
        let mut recorder = Recorder::windowed(&machine, config, &window);
        let mut trace = Vec::new();
        let result = run_recorded(&mut machine, config, &mut recorder, &mut trace);
        let execution = Execution {
            outcome: result.outcome,
            output: machine.take_output(),
            steps: result.steps,
        };
        drop(record_span);
        let engine = ReplayEngine {
            checkpoints: recorder.checkpoints,
            trace,
            execution,
            interval: recorder.interval,
            snapshots: config.record_snapshots,
            block_cache: config.block_cache.clone(),
            uop: config.uop,
            telemetry: config.telemetry.clone(),
        };
        engine.publish_footprint();
        engine
    }

    /// Publishes the retained-state gauges (checkpoint count and
    /// retained snapshot bytes, base included) after a recording.
    fn publish_footprint(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let footprint = self.footprint();
        self.telemetry.gauge(
            Gauge::RetainedSnapshotBytes,
            footprint.base_resident_bytes + footprint.retained_bytes,
        );
        self.telemetry.gauge(Gauge::Checkpoints, footprint.checkpoints as u64);
    }

    /// Whether periodic snapshots were recorded
    /// ([`ReplayConfig::record_snapshots`]); when `false`,
    /// [`ReplayEngine::machine_at`] replays from step 0.
    pub fn records_snapshots(&self) -> bool {
        self.snapshots
    }

    /// The recorded program counters, one per executed instruction.
    pub fn trace(&self) -> &[u64] {
        &self.trace
    }

    /// The recorded run's behaviour.
    pub fn execution(&self) -> &Execution {
        &self.execution
    }

    /// The checkpoint interval actually used.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of recorded checkpoints (including the initial state).
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Memory footprint of the retained checkpoints: page-granular
    /// retained bytes, and what region-granular COW would have retained
    /// for the same recording.
    pub fn footprint(&self) -> ReplayFootprint {
        let base = self.checkpoints.first().expect("initial state");
        let mut footprint = ReplayFootprint {
            checkpoints: self.checkpoints.len(),
            interval: self.interval,
            base_resident_bytes: base.snapshot.memory_stats().resident_bytes,
            ..ReplayFootprint::default()
        };
        for checkpoint in &self.checkpoints[1..] {
            footprint.retained_pages += checkpoint.delta.pages;
            footprint.retained_bytes += checkpoint.delta.bytes;
            footprint.region_cow_bytes += checkpoint.delta.region_bytes;
        }
        footprint
    }

    /// Incremental retained checkpoint state in bytes (the quantity
    /// [`ReplayConfig::max_retained_bytes`] budgets).
    pub fn retained_bytes(&self) -> u64 {
        self.checkpoints[1..].iter().map(|c| c.delta.bytes).sum()
    }

    /// Bytes this recording's checkpoints would retain under a
    /// **hypothetical** COW page size, from exact byte-level diffs of
    /// adjacent checkpoint snapshots
    /// ([`rr_emu::Snapshot::retained_bytes_at`]). The emulator's page
    /// size is a compile-time constant, so this analytic resample is how
    /// the footprint benchmark sweeps granularities (1–16 KiB) without
    /// per-point rebuilds. Byte-identical page rewrites count as clean
    /// here, so the value at the native page size lower-bounds
    /// [`ReplayEngine::retained_bytes`].
    pub fn retained_bytes_at(&self, page_size: usize) -> u64 {
        self.checkpoints
            .windows(2)
            .map(|pair| pair[1].snapshot.retained_bytes_at(&pair[0].snapshot, page_size))
            .sum()
    }

    /// The trace step of the nearest retained checkpoint at or before
    /// `step` — the restore point [`ReplayEngine::machine_at`] would use,
    /// and the bucketing key for checkpoint-neighbourhood scheduling:
    /// work items that agree on this value restore from the same
    /// snapshot, so grouping them lets a scheduler pay the restore once
    /// per group. Steps beyond the trace report the last checkpoint.
    pub fn checkpoint_step_before(&self, step: u64) -> u64 {
        let index = self.checkpoints.partition_point(|c| c.step <= step).max(1) - 1;
        self.checkpoints[index].step
    }

    /// The retained checkpoints at or after trace step `step`, in step
    /// order: golden states a faulted run may rejoin. A recording
    /// without periodic snapshots ([`ReplayConfig::record_snapshots`]
    /// off) exposes none, not even its initial state.
    pub fn checkpoints_from(&self, step: u64) -> &[Checkpoint] {
        if !self.snapshots {
            return &[];
        }
        &self.checkpoints[self.checkpoints.partition_point(|c| c.step < step)..]
    }

    /// Produces a machine *about to execute* trace step `step` (so
    /// `machine.pc() == trace()[step]` for in-trace steps; `step ==
    /// trace().len()` yields the final state).
    ///
    /// Restores the nearest checkpoint at or before `step` and steps
    /// forward — at most [`ReplayEngine::interval`] instructions when
    /// the recording captured snapshots; with
    /// [`ReplayConfig::record_snapshots`] disabled only the initial
    /// state exists, so this replays from step 0 (up to `step`
    /// instructions).
    ///
    /// # Errors
    ///
    /// [`ReplayError::OutOfTrace`] for steps beyond the recording;
    /// [`ReplayError::Diverged`] if forward execution stops early (which
    /// a deterministic machine never does).
    pub fn machine_at(&self, step: u64) -> Result<Machine, ReplayError> {
        if step > self.trace.len() as u64 {
            return Err(ReplayError::OutOfTrace {
                requested: step,
                trace_len: self.trace.len() as u64,
            });
        }
        let _restore_span = self.telemetry.span(SpanKind::Restore);
        self.telemetry.count(Counter::CheckpointRestores, 1);
        let index = self.checkpoints.partition_point(|c| c.step <= step) - 1;
        let checkpoint = &self.checkpoints[index];
        let mut machine = Machine::from_snapshot(&checkpoint.snapshot);
        match &self.block_cache {
            Some(cache) => {
                let mut stats = BlockStats::default();
                let budget = step - checkpoint.step;
                let result = machine.run_uops(cache, self.uop, budget, &mut stats);
                flush_block_stats(&self.telemetry, stats);
                if let RunOutcome::Crashed { .. } = result.outcome {
                    // The last of `result.steps` executed instructions
                    // crashed; a crash with no step executed means the
                    // restored state itself was already stopped.
                    let at = checkpoint.step + result.steps.saturating_sub(1);
                    return Err(ReplayError::Diverged { step: at });
                }
                // Exited or TimedOut: either the budget was consumed (we
                // are at `step`) or the machine stopped normally, where
                // the interpreter loop would no-op the remaining steps.
            }
            None => {
                for at in checkpoint.step..step {
                    if machine.step().is_err() {
                        return Err(ReplayError::Diverged { step: at });
                    }
                }
            }
        }
        Ok(machine)
    }

    /// The block cache the recording ran under, if any — sessions share
    /// it across replays and post-injection continuations, which then
    /// run in the uop tier so the compiled bodies in it stay warm.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.block_cache.as_ref()
    }

    /// The uop tiering knob the recording ran under.
    pub fn uop_config(&self) -> UopConfig {
        self.uop
    }
}

/// Re-derives each checkpoint's dirtied-page delta against its (new)
/// predecessor after thinning, returning the summed retained bytes.
fn recompute_deltas(checkpoints: &mut [Checkpoint]) -> u64 {
    let mut retained = 0;
    for i in 1..checkpoints.len() {
        let (before, after) = checkpoints.split_at_mut(i);
        let checkpoint = &mut after[0];
        checkpoint.delta = checkpoint.snapshot.dirtied_since(&before[i - 1].snapshot);
        retained += checkpoint.delta.bytes;
    }
    retained
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_asm::assemble_and_link;
    use rr_emu::RunOutcome;

    fn looping_exe(iterations: u32) -> Executable {
        assemble_and_link(&format!(
            "    .global _start\n\
             _start:\n\
                 mov r1, {iterations}\n\
                 mov r2, 0\n\
             .loop:\n\
                 add r2, 7\n\
                 sub r1, 1\n\
                 cmp r1, 0\n\
                 jne .loop\n\
                 mov r1, r2\n\
                 and r1, 0xff\n\
                 svc 0\n"
        ))
        .expect("loop program builds")
    }

    #[test]
    fn recording_matches_plain_traced_execution() {
        let exe = looping_exe(50);
        let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
        let (exec, trace) = rr_emu::execute_traced(&exe, &[], 1_000_000);
        assert_eq!(engine.execution(), &exec);
        assert_eq!(engine.trace(), trace.as_slice());
        assert!(engine.checkpoint_count() > 1, "long trace must checkpoint");
    }

    #[test]
    fn auto_interval_is_roughly_sqrt() {
        assert_eq!(auto_interval(0), 1);
        assert_eq!(auto_interval(1), 1);
        assert_eq!(auto_interval(100), 10);
        assert_eq!(auto_interval(10_000), 100);
        assert!(auto_interval(1 << 40) >= 1 << 20);
    }

    #[test]
    fn adaptive_interval_tracks_sqrt_of_the_trace() {
        for iterations in [10u32, 200, 2000] {
            let exe = looping_exe(iterations);
            let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
            let steps = engine.execution().steps;
            let sqrt = auto_interval(steps);
            assert!(
                engine.interval() >= sqrt / 2 && engine.interval() <= sqrt * 4,
                "T={steps}: interval {} not within 2x of sqrt {sqrt}",
                engine.interval()
            );
            assert!(
                (engine.checkpoint_count() as u64) <= sqrt * 4 + 1,
                "T={steps}: {} checkpoints for sqrt {sqrt}",
                engine.checkpoint_count()
            );
            // Checkpoints stay sorted with the initial state first, which
            // machine_at's binary search depends on.
            assert_eq!(engine.checkpoints[0].step, 0);
            for pair in engine.checkpoints.windows(2) {
                assert!(pair[0].step < pair[1].step);
            }
        }
    }

    #[test]
    fn max_checkpoints_caps_retained_state() {
        let exe = looping_exe(2000);
        let capped = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { max_checkpoints: 8, ..ReplayConfig::default() },
        );
        assert!(capped.checkpoint_count() <= 8, "{} checkpoints", capped.checkpoint_count());
        // Replay still works, just with longer forward stepping.
        let steps = capped.execution().steps;
        let m = capped.machine_at(steps / 2).unwrap();
        assert_eq!(m.pc(), capped.trace()[(steps / 2) as usize]);
        // A pinned interval is widened rather than blowing past the cap.
        let pinned = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { checkpoint_interval: 1, max_checkpoints: 8, ..ReplayConfig::default() },
        );
        assert!(pinned.checkpoint_count() <= 8, "{} checkpoints", pinned.checkpoint_count());
        assert!(pinned.interval() > 1, "interval must widen under the cap");
        let m = pinned.machine_at(steps / 3).unwrap();
        assert_eq!(m.pc(), pinned.trace()[(steps / 3) as usize]);
    }

    /// A loop that pushes/pops every iteration, dirtying the top stack
    /// page at every checkpoint interval.
    fn stack_churn_exe(iterations: u32) -> Executable {
        assemble_and_link(&format!(
            "    .global _start\n\
             _start:\n\
                 mov r1, {iterations}\n\
             .loop:\n\
                 push r1\n\
                 pop r2\n\
                 sub r1, 1\n\
                 cmp r1, 0\n\
                 jne .loop\n\
                 mov r1, r2\n\
                 svc 0\n"
        ))
        .expect("stack churn program builds")
    }

    #[test]
    fn byte_budget_caps_retained_state() {
        let exe = stack_churn_exe(800);
        let free = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
        assert!(free.retained_bytes() > 0, "stack churn must dirty pages");
        // Budget below the unconstrained footprint forces thinning.
        let budget = free.retained_bytes() / 4;
        let capped = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { max_retained_bytes: budget, ..ReplayConfig::default() },
        );
        assert!(
            capped.retained_bytes() <= budget,
            "retained {} over budget {budget}",
            capped.retained_bytes()
        );
        assert!(capped.checkpoint_count() < free.checkpoint_count());
        // Replay still reaches arbitrary steps, just with longer forward
        // stepping.
        let steps = capped.execution().steps;
        let m = capped.machine_at(steps / 2).unwrap();
        assert_eq!(m.pc(), capped.trace()[(steps / 2) as usize]);
    }

    #[test]
    fn footprint_reports_page_granular_retention() {
        let exe = stack_churn_exe(500);
        let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
        let footprint = engine.footprint();
        assert_eq!(footprint.checkpoints, engine.checkpoint_count());
        assert_eq!(footprint.interval, engine.interval());
        assert_eq!(footprint.retained_bytes, engine.retained_bytes());
        assert_eq!(footprint.retained_bytes, footprint.retained_pages * 4096);
        // Stack churn dirties ~1 page per interval while region-COW would
        // retain the whole 1 MiB stack per checkpoint.
        assert!(footprint.retained_bytes > 0);
        assert!(
            footprint.region_cow_bytes >= 10 * footprint.retained_bytes,
            "region-COW {} vs paged {}",
            footprint.region_cow_bytes,
            footprint.retained_bytes
        );
        let rendered = footprint.to_string();
        assert!(rendered.contains("checkpoints"), "{rendered}");
        assert!(rendered.contains("region-COW"), "{rendered}");
    }

    #[test]
    fn snapshot_recording_can_be_disabled() {
        let exe = looping_exe(200);
        let engine = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { record_snapshots: false, ..ReplayConfig::default() },
        );
        assert!(!engine.records_snapshots());
        assert_eq!(engine.checkpoint_count(), 1, "only the initial state");
        assert_eq!(engine.retained_bytes(), 0);
        // The trace and behaviour are recorded as usual, and machine_at
        // still works — it just replays from step 0.
        let (exec, trace) = rr_emu::execute_traced(&exe, &[], 1_000_000);
        assert_eq!(engine.execution(), &exec);
        assert_eq!(engine.trace(), trace.as_slice());
        let mid = trace.len() as u64 / 2;
        let m = engine.machine_at(mid).unwrap();
        assert_eq!(m.pc(), trace[mid as usize]);
    }

    #[test]
    fn machine_at_agrees_with_replay_from_scratch() {
        let exe = looping_exe(40);
        let engine = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { checkpoint_interval: 16, ..ReplayConfig::default() },
        );
        let total = engine.trace().len() as u64;
        for step in [0, 1, 15, 16, 17, 100, total - 1, total] {
            let via_engine = engine.machine_at(step).unwrap();
            let mut scratch = Machine::new(&exe, &[]);
            for _ in 0..step {
                scratch.step().unwrap();
            }
            assert_eq!(via_engine.pc(), scratch.pc(), "pc at step {step}");
            assert_eq!(via_engine.flags(), scratch.flags(), "flags at step {step}");
            for r in rr_isa_regs() {
                assert_eq!(via_engine.reg(r), scratch.reg(r), "reg {r} at step {step}");
            }
        }
    }

    // Minimal local copy of the register list to avoid an rr-isa dev-dep:
    // the emulator re-exports nothing register-shaped, but Machine::reg
    // takes rr_isa::Reg which rr-emu already depends on.
    fn rr_isa_regs() -> impl Iterator<Item = rr_isa::Reg> {
        rr_isa::Reg::ALL.into_iter()
    }

    #[test]
    fn checkpoint_step_before_names_the_restore_point() {
        let exe = looping_exe(100);
        let engine = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { checkpoint_interval: 16, ..ReplayConfig::default() },
        );
        let total = engine.trace().len() as u64;
        for step in [0, 1, 15, 16, 17, 100, total - 1, total, total + 50] {
            let restore = engine.checkpoint_step_before(step);
            assert!(restore <= step, "restore point must not overshoot step {step}");
            assert!(
                engine.checkpoints.iter().any(|c| c.step == restore),
                "step {step}: {restore} is not a retained checkpoint"
            );
            if step <= total {
                assert!(
                    step - restore < 16 || restore == engine.checkpoints.last().unwrap().step,
                    "step {step}: restore {restore} further than one interval"
                );
            }
        }
        // A snapshot-less recording always restores the initial state.
        let naive = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { record_snapshots: false, ..ReplayConfig::default() },
        );
        assert_eq!(naive.checkpoint_step_before(total / 2), 0);
    }

    #[test]
    fn checkpoints_from_lists_the_rejoinable_golden_states() {
        let exe = looping_exe(100);
        let engine = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { checkpoint_interval: 16, ..ReplayConfig::default() },
        );
        let from = engine.checkpoints_from(17);
        assert_eq!(from.first().map(Checkpoint::step), Some(32));
        assert_eq!(from.len(), engine.checkpoint_count() - 2, "steps 0 and 16 precede 17");
        assert_eq!(engine.checkpoints_from(16)[0].step(), 16, "at or after");
        for checkpoint in from {
            let replayed = engine.machine_at(checkpoint.step()).unwrap();
            assert!(replayed.same_state(checkpoint.snapshot()), "step {}", checkpoint.step());
        }
        assert!(engine.checkpoints_from(engine.trace().len() as u64).is_empty());
        // A snapshot-less recording offers nothing to rejoin.
        let naive = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { record_snapshots: false, ..ReplayConfig::default() },
        );
        assert!(naive.checkpoints_from(0).is_empty());
    }

    #[test]
    fn machine_at_resumes_to_identical_behavior() {
        let exe = looping_exe(64);
        let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
        let mut resumed = engine.machine_at(100).unwrap();
        let result = resumed.run(1_000_000);
        assert_eq!(result.outcome, engine.execution().outcome);
        assert_eq!(resumed.output(), engine.execution().output.as_slice());
        assert_eq!(100 + result.steps, engine.execution().steps);
    }

    #[test]
    fn out_of_trace_requests_error() {
        let exe = looping_exe(3);
        let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
        let len = engine.trace().len() as u64;
        let err = engine.machine_at(len + 1).map(|_| ()).unwrap_err();
        assert_eq!(err, ReplayError::OutOfTrace { requested: len + 1, trace_len: len });
        // The final state is reachable and stopped.
        let at_end = engine.machine_at(len).unwrap();
        assert_eq!(at_end.stopped(), Some(RunOutcome::Exited { code: engine_exit_code(&engine) }));
    }

    fn engine_exit_code(engine: &ReplayEngine) -> u64 {
        match engine.execution().outcome {
            RunOutcome::Exited { code } => code,
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn replay_range_snapshots_only_the_window() {
        let exe = looping_exe(400);
        let full = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
        let steps = full.execution().steps;
        let window = (steps / 2)..(steps / 2 + steps / 8);
        let config = ReplayConfig { checkpoint_interval: 16, ..ReplayConfig::default() };
        let scoped = ReplayEngine::replay_range(&exe, &[], &config, window.clone());

        // Trace and behaviour match a full recording exactly.
        assert_eq!(scoped.execution(), full.execution());
        assert_eq!(scoped.trace(), full.trace());

        // Checkpoints: the initial state, then only interval-aligned steps
        // from the last boundary preceding the window through its end.
        let aligned_start = window.start - window.start % 16;
        assert!(scoped.checkpoint_count() > 1, "window must be snapshotted");
        for c in &scoped.checkpoints[1..] {
            assert!(
                c.step >= aligned_start && c.step <= window.end,
                "checkpoint at {} outside window {window:?} (aligned start {aligned_start})",
                c.step
            );
        }
        assert_eq!(scoped.checkpoints[1].step, aligned_start.max(16));
        assert!(
            scoped.checkpoint_count() < full.checkpoint_count()
                || full.interval() > scoped.interval(),
            "region scoping must retain less than a full recording"
        );

        // Random access is exact inside the window, and still correct
        // (replay-from-0) before it.
        for step in [0, window.start / 2, window.start, window.start + 7, window.end - 1] {
            let m = scoped.machine_at(step).unwrap();
            assert_eq!(m.pc(), full.trace()[step as usize], "step {step}");
        }
    }

    #[test]
    fn replay_range_degenerate_windows() {
        let exe = looping_exe(100);
        let steps = ReplayEngine::record(&exe, &[], &ReplayConfig::default()).execution().steps;
        // An empty window records the trace but no periodic snapshots.
        let empty = ReplayEngine::replay_range(&exe, &[], &ReplayConfig::default(), 40..40);
        assert_eq!(empty.checkpoint_count(), 1, "initial state only");
        assert_eq!(empty.retained_bytes(), 0);
        assert_eq!(empty.execution().steps, steps);
        // A window past the end of the trace captures nothing.
        let beyond =
            ReplayEngine::replay_range(&exe, &[], &ReplayConfig::default(), steps * 2..steps * 3);
        assert_eq!(beyond.checkpoint_count(), 1);
        // A whole-trace window behaves like a full recording with an
        // auto-selected ≈√T interval.
        let whole = ReplayEngine::replay_range(&exe, &[], &ReplayConfig::default(), 0..steps);
        assert!(whole.checkpoint_count() > 1);
        let m = whole.machine_at(steps / 2).unwrap();
        assert_eq!(m.pc(), whole.trace()[(steps / 2) as usize]);
    }

    #[test]
    fn replay_range_respects_the_byte_budget_guard() {
        let exe = stack_churn_exe(600);
        let steps = ReplayEngine::record(&exe, &[], &ReplayConfig::default()).execution().steps;
        let free = ReplayEngine::replay_range(
            &exe,
            &[],
            &ReplayConfig { checkpoint_interval: 8, ..ReplayConfig::default() },
            0..steps,
        );
        assert!(free.retained_bytes() > 0);
        let budget = free.retained_bytes() / 4;
        let capped = ReplayEngine::replay_range(
            &exe,
            &[],
            &ReplayConfig {
                checkpoint_interval: 8,
                max_retained_bytes: budget,
                ..ReplayConfig::default()
            },
            0..steps,
        );
        assert!(
            capped.retained_bytes() <= budget,
            "retained {} over budget {budget}",
            capped.retained_bytes()
        );
        assert!(capped.interval() > 8, "interval must widen under the cap");
        let m = capped.machine_at(steps / 3).unwrap();
        assert_eq!(m.pc(), capped.trace()[(steps / 3) as usize]);
    }

    /// Accelerated configs for an executable: the same `ReplayConfig`
    /// with a cache built from the recovered CFG and the given tiering.
    fn accel(config: &ReplayConfig, exe: &Executable, uop: UopConfig) -> ReplayConfig {
        ReplayConfig {
            block_cache: Some(
                crate::build_block_cache(exe, &config.telemetry).expect("sample decodes"),
            ),
            uop,
            ..config.clone()
        }
    }

    /// Decoded bodies only (a threshold no block reaches), and threshold
    /// 1, which exercises the decoded→compiled promotion path inside
    /// recorded runs, not just steady-state compiled bodies.
    const ACCEL_MODES: [UopConfig; 2] =
        [UopConfig { hot_threshold: u32::MAX }, UopConfig { hot_threshold: 1 }];

    #[test]
    fn accelerated_recording_is_bit_identical() {
        let exe = looping_exe(300);
        for uop in ACCEL_MODES {
            for base in [
                ReplayConfig::default(),
                ReplayConfig { checkpoint_interval: 16, ..ReplayConfig::default() },
                ReplayConfig { max_checkpoints: 8, ..ReplayConfig::default() },
                ReplayConfig { record_snapshots: false, ..ReplayConfig::default() },
            ] {
                let interp = ReplayEngine::record(&exe, &[], &base);
                let fast = ReplayEngine::record(&exe, &[], &accel(&base, &exe, uop));
                assert_eq!(interp.execution(), fast.execution(), "{uop:?}");
                assert_eq!(interp.trace(), fast.trace(), "{uop:?}");
                assert_eq!(interp.interval(), fast.interval(), "{uop:?}");
                assert_eq!(interp.checkpoint_count(), fast.checkpoint_count(), "{uop:?}");
                let steps: Vec<u64> = interp.checkpoints.iter().map(|c| c.step).collect();
                let fast_steps: Vec<u64> = fast.checkpoints.iter().map(|c| c.step).collect();
                assert_eq!(steps, fast_steps, "{uop:?}: capture schedule must not drift");
            }
        }
    }

    #[test]
    fn accelerated_machine_at_matches_the_interpreter() {
        let exe = looping_exe(80);
        let base = ReplayConfig { checkpoint_interval: 16, ..ReplayConfig::default() };
        let interp = ReplayEngine::record(&exe, &[], &base);
        for uop in ACCEL_MODES {
            let fast = ReplayEngine::record(&exe, &[], &accel(&base, &exe, uop));
            assert_eq!(fast.uop_config(), uop);
            let total = interp.trace().len() as u64;
            for step in [0, 1, 15, 16, 17, 100, total - 1, total] {
                let a = interp.machine_at(step).unwrap();
                let b = fast.machine_at(step).unwrap();
                assert_eq!(a.pc(), b.pc(), "{uop:?}: pc at step {step}");
                assert_eq!(a.flags(), b.flags(), "{uop:?}: flags at step {step}");
                assert_eq!(a.stopped(), b.stopped(), "{uop:?}: stop state at step {step}");
                for r in rr_isa_regs() {
                    assert_eq!(a.reg(r), b.reg(r), "{uop:?}: reg {r} at step {step}");
                }
            }
        }
    }

    #[test]
    fn accelerated_replay_range_matches_the_interpreter() {
        let exe = looping_exe(400);
        let steps = ReplayEngine::record(&exe, &[], &ReplayConfig::default()).execution().steps;
        let window = (steps / 3)..(steps / 2);
        let base = ReplayConfig { checkpoint_interval: 16, ..ReplayConfig::default() };
        let interp = ReplayEngine::replay_range(&exe, &[], &base, window.clone());
        for uop in ACCEL_MODES {
            let fast =
                ReplayEngine::replay_range(&exe, &[], &accel(&base, &exe, uop), window.clone());
            assert_eq!(interp.execution(), fast.execution(), "{uop:?}");
            assert_eq!(interp.trace(), fast.trace(), "{uop:?}");
            let steps_a: Vec<u64> = interp.checkpoints.iter().map(|c| c.step).collect();
            let steps_b: Vec<u64> = fast.checkpoints.iter().map(|c| c.step).collect();
            assert_eq!(steps_a, steps_b, "{uop:?}: windowed capture schedule must not drift");
            for step in [0, window.start, window.start + 5, window.end - 1] {
                let a = interp.machine_at(step).unwrap();
                let b = fast.machine_at(step).unwrap();
                assert_eq!(a.pc(), b.pc(), "{uop:?}: step {step}");
            }
        }
    }

    #[test]
    fn accelerated_thinning_keeps_the_schedule_aligned() {
        // Byte-budget thinning doubles the interval mid-run; the
        // accelerated driver must re-derive its fences from the widened
        // schedule.
        let exe = stack_churn_exe(800);
        let free = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
        let budget = free.retained_bytes() / 4;
        let base = ReplayConfig { max_retained_bytes: budget, ..ReplayConfig::default() };
        let interp = ReplayEngine::record(&exe, &[], &base);
        for uop in ACCEL_MODES {
            let fast = ReplayEngine::record(&exe, &[], &accel(&base, &exe, uop));
            assert_eq!(interp.execution(), fast.execution(), "{uop:?}");
            assert_eq!(interp.interval(), fast.interval(), "{uop:?}");
            let steps_a: Vec<u64> = interp.checkpoints.iter().map(|c| c.step).collect();
            let steps_b: Vec<u64> = fast.checkpoints.iter().map(|c| c.step).collect();
            assert_eq!(steps_a, steps_b, "{uop:?}");
            assert!(fast.retained_bytes() <= budget, "{uop:?}");
        }
    }

    #[test]
    fn exec_mode_names_parse_and_render() {
        assert_eq!("interp".parse::<ExecMode>().unwrap(), ExecMode::Interp);
        assert_eq!("uops".parse::<ExecMode>().unwrap(), ExecMode::Uops);
        assert!("jit".parse::<ExecMode>().is_err());
        assert!("blocks".parse::<ExecMode>().is_err(), "the blocks mode is gone");
        assert_eq!(ExecMode::default(), ExecMode::Uops, "uops is the default tier");
        assert_eq!(ExecMode::Interp.to_string(), "interp");
        assert_eq!(ExecMode::Uops.to_string(), "uops");
        assert!(!ExecMode::Interp.uses_block_cache());
        assert!(ExecMode::Uops.uses_block_cache());
    }

    #[test]
    fn explicit_interval_controls_checkpoint_density() {
        let exe = looping_exe(100);
        let fine = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { checkpoint_interval: 8, ..ReplayConfig::default() },
        );
        let coarse = ReplayEngine::record(
            &exe,
            &[],
            &ReplayConfig { checkpoint_interval: 128, ..ReplayConfig::default() },
        );
        assert!(fine.checkpoint_count() > coarse.checkpoint_count());
        assert_eq!(fine.interval(), 8);
        assert_eq!(coarse.interval(), 128);
    }
}
