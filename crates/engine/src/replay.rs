//! Recording a golden run with periodic checkpoints and replaying to
//! arbitrary trace steps.

use crate::live::{self, LiveIn, WordIndex};
use rr_emu::{
    BlockCache, BlockStats, Execution, HangDetector, Machine, MemoryDelta, RunOutcome, RunResult,
    Snapshot,
};
use rr_obj::Executable;
use rr_telemetry::{Counter, Gauge, SpanKind, Telemetry};
use std::fmt;
use std::str::FromStr;

/// How recorded and replayed instructions execute.
///
/// Both modes are bit-identical — same traces, same outcomes, same
/// architectural state at every observable point (pinned by the emu
/// proptests and the campaign equivalence suites) — so the choice is
/// purely a speed knob, surfaced as `--exec` on the CLI. Under
/// [`ExecMode::Uops`], [`ReplayEngine::record`] decodes the executable's
/// text into the block cache it runs on
/// ([`rr_emu::BlockCache::for_executable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Per-step fetch/decode interpretation everywhere (the reference
    /// oracle).
    Interp,
    /// The uop tier ([`rr_emu::Machine::run_uops`]): every block runs as
    /// the micro-op body it was decoded into once, with lazy NZCV, and
    /// modified code runs from blocks decoded the same way out of the
    /// machine's own memory.
    #[default]
    Uops,
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
    /// *Byte* budget for retained checkpoint state, measured as the
    /// page-granular dirtied bytes between consecutive checkpoints
    /// ([`rr_emu::Snapshot::dirtied_since`]). When the recording would
    /// exceed it, the interval doubles and the recorded checkpoints are
    /// thinned, bounding what actually matters: resident memory. `0` =
    /// unlimited.
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
    /// The tier the recording run and every [`ReplayEngine::run`] execute
    /// on. Under [`ExecMode::Uops`] they run through the uop tier
    /// ([`rr_emu::Machine::run_uops`]) — bit-identical to the
    /// interpreter, but without per-step fetch/decode outside injection
    /// and capture fences. Defaults to the interpreter.
    pub exec: ExecMode,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            max_steps: 1_000_000,
            max_retained_bytes: 256 << 20,
            record_snapshots: true,
            telemetry: Telemetry::default(),
            exec: ExecMode::Interp,
        }
    }
}

/// Ceiling on the number of retained checkpoints. With page-granular COW
/// memory the per-checkpoint cost is bytes dirtied, which
/// [`ReplayConfig::max_retained_bytes`] budgets; this cap bounds the
/// fixed per-checkpoint overhead on traces longer than about a million
/// steps, where √T would exceed it.
pub(crate) const MAX_CHECKPOINTS: u64 = 1024;

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
    /// The registers and flags the recorded run reads from here on before
    /// overwriting them ([`ReplayEngine::rejoins`]); all of them unless
    /// the recording exited.
    live: LiveIn,
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
/// privately across checkpoints: the pages each checkpoint no longer
/// shares with its predecessor. A loop that dirties one stack page per
/// interval retains one page per checkpoint after the first.
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
}

impl fmt::Display for ReplayFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} checkpoints (interval {}): {} KiB retained ({} dirty pages)",
            self.checkpoints,
            self.interval,
            (self.base_resident_bytes + self.retained_bytes) / 1024,
            self.retained_pages,
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
    /// Block cache the recording ran under ([`ExecMode::Uops`]);
    /// [`ReplayEngine::run`] executes through it (in the uop tier) when
    /// present.
    cache: Option<BlockCache>,
    /// The memory words the recorded run reads from each checkpoint on
    /// before overwriting them ([`ReplayEngine::rejoins`]); `None` (every
    /// word) unless it recorded snapshots and exited.
    reads: Option<WordIndex>,
    telemetry: Telemetry,
}

/// The adaptive checkpoint-capture schedule of [`ReplayEngine::record`]:
/// the recording asks [`Recorder::should_capture`] at the start of each
/// segment and [`Recorder::next_fence`] for the step the segment must
/// stop at.
struct Recorder<'a> {
    config: &'a ReplayConfig,
    interval: u64,
    byte_cap: u64,
    retained_bytes: u64,
    checkpoints: Vec<Checkpoint>,
}

impl<'a> Recorder<'a> {
    /// A schedule at interval 1 holding only the initial state.
    fn new(machine: &Machine, config: &'a ReplayConfig) -> Recorder<'a> {
        Recorder {
            config,
            interval: 1,
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
                live: LiveIn::ALL,
            }],
        }
    }

    /// Whether a checkpoint is due with the machine about to execute
    /// trace step `step`.
    fn should_capture(&self, step: u64) -> bool {
        self.config.record_snapshots && step > 0 && step.is_multiple_of(self.interval)
    }

    /// The next step strictly after `step` at which
    /// [`Recorder::should_capture`] holds — where the recording must
    /// fence. Recomputed per segment because thinning can widen the
    /// interval mid-run.
    fn next_fence(&self, step: u64) -> Option<u64> {
        self.config.record_snapshots.then(|| (step / self.interval + 1) * self.interval)
    }

    /// Captures a checkpoint, then doubles the interval and thins the
    /// recorded checkpoints to the widened grid while the count
    /// overtakes twice the interval (the √T chase), [`MAX_CHECKPOINTS`],
    /// or the byte budget. The byte budget may need several doublings,
    /// so this loops — step 0 is always retained, so the thinning
    /// terminates.
    fn capture(&mut self, machine: &Machine, step: u64) {
        let capture_span = self.config.telemetry.span(SpanKind::Snapshot);
        let snapshot = machine.snapshot();
        let delta =
            snapshot.dirtied_since(&self.checkpoints.last().expect("initial state").snapshot);
        drop(capture_span);
        self.retained_bytes += delta.bytes;
        self.checkpoints.push(Checkpoint { step, snapshot, delta, live: LiveIn::ALL });
        loop {
            let grow_at = (2 * self.interval).min(MAX_CHECKPOINTS);
            let over =
                self.checkpoints.len() as u64 > grow_at || self.retained_bytes > self.byte_cap;
            if !over || self.checkpoints.len() <= 1 {
                break;
            }
            self.interval *= 2;
            let interval = self.interval;
            self.checkpoints.retain(|c| c.step.is_multiple_of(interval));
            self.retained_bytes = recompute_deltas(&mut self.checkpoints);
        }
    }
}

/// Drives one recorded execution under `recorder`'s capture schedule in
/// fence-to-fence segments, each on the recording's tier: the uop tier
/// ([`Machine::run_uops_traced`]) under `cache`, the interpreter
/// otherwise. The schedule is checked once per segment, not once per
/// instruction.
fn run_recorded(
    machine: &mut Machine,
    recorder: &mut Recorder<'_>,
    cache: Option<&BlockCache>,
    trace: &mut Vec<u64>,
) -> RunResult {
    let config = recorder.config;
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
        match cache {
            Some(cache) => machine.run_uops_traced(cache, fence - step, &mut stats, trace),
            None => machine.run_with(fence - step, |m| trace.push(m.pc())),
        };
    };
    flush_block_stats(&config.telemetry, stats);
    result
}

/// Batches a run's per-tier step counts (and the uop tier's re-decode
/// and lazy-flag events) into the telemetry handle.
fn flush_block_stats(telemetry: &Telemetry, stats: BlockStats) {
    if stats.interp_steps > 0 {
        telemetry.count(Counter::InterpSteps, stats.interp_steps);
    }
    if stats.uop_steps > 0 {
        telemetry.count(Counter::UopSteps, stats.uop_steps);
    }
    if stats.flag_materializations > 0 {
        telemetry.count(Counter::FlagMaterializations, stats.flag_materializations);
    }
    if stats.blocks_redecoded > 0 {
        telemetry.count(Counter::BlocksRedecoded, stats.blocks_redecoded);
    }
}

impl ReplayEngine {
    /// Runs `exe` on `input`, recording the program counter of every
    /// executed instruction and, with [`ReplayConfig::record_snapshots`],
    /// state checkpoints on one adaptive schedule (plus the initial
    /// state).
    ///
    /// The interval starts at one step and adapts while the run
    /// executes: whenever the checkpoint count overtakes twice the
    /// current interval, the interval doubles and every checkpoint off
    /// the widened grid is dropped. Interval and count chase each other,
    /// so both end within a factor of two of √T — the total-work optimum
    /// when replays are uniformly distributed over the trace — after a
    /// single pass, with no probe run to discover T first. A fixed cap of
    /// 1024 checkpoints widens the interval the same way on traces long
    /// enough for √T to exceed it.
    ///
    /// Retained state is additionally bounded by
    /// `config.max_retained_bytes`: every new checkpoint's dirtied-page
    /// delta against its predecessor is accounted, and the interval
    /// widens (thinning recorded checkpoints) whenever the running total
    /// would exceed the byte budget. Retained checkpoints therefore
    /// always sit at the multiples of [`ReplayEngine::interval`].
    ///
    /// Under [`ExecMode::Uops`] the recording first decodes `exe`'s text
    /// into the block cache it and every [`ReplayEngine::run`] execute
    /// through ([`BlockCache::for_executable`], counted into
    /// [`Counter::BlocksDecoded`]). When nothing decodes, it runs on the
    /// interpreter.
    ///
    /// A recording with snapshots whose run exited then runs it once more
    /// on the interpreter, to derive what the run reads from each retained
    /// checkpoint on before overwriting it, for
    /// [`ReplayEngine::rejoins`]: the live registers and NZCV bits, from
    /// the executed instructions' [`rr_isa::Instr::operands`] with the
    /// address base counted as a read, and per 8-byte-aligned memory word
    /// the checkpoint intervals whose first touch of it is a data read
    /// (of any of its bytes) or a write of all 8 bytes. The pass counts
    /// into no step counter.
    pub fn record(exe: &Executable, input: &[u8], config: &ReplayConfig) -> ReplayEngine {
        let cache = match config.exec {
            ExecMode::Interp => None,
            ExecMode::Uops => BlockCache::for_executable(exe),
        };
        if let Some(cache) = &cache {
            config.telemetry.count(Counter::BlocksDecoded, cache.block_count() as u64);
        }
        let record_span = config.telemetry.span(SpanKind::Record);
        let mut machine = Machine::new(exe, input);
        let mut recorder = Recorder::new(&machine, config);
        let mut trace = Vec::new();
        let result = run_recorded(&mut machine, &mut recorder, cache.as_ref(), &mut trace);
        let execution = Execution {
            outcome: result.outcome,
            output: machine.take_output(),
            steps: result.steps,
        };
        let mut checkpoints = recorder.checkpoints;
        let reads = (config.record_snapshots && result.outcome.is_exit()).then(|| {
            let steps: Vec<u64> = checkpoints.iter().map(|c| c.step).collect();
            let (live, reads) = live::derive(exe, input, result.steps, &steps);
            for (checkpoint, live) in checkpoints.iter_mut().zip(live) {
                checkpoint.live = live;
            }
            reads
        });
        drop(record_span);
        let engine = ReplayEngine {
            checkpoints,
            trace,
            execution,
            interval: recorder.interval,
            snapshots: config.record_snapshots,
            cache,
            reads,
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

    /// Memory footprint of the retained checkpoints: how many there are,
    /// and the pages and bytes they retain under page-granular COW.
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
        }
        footprint
    }

    /// Incremental retained checkpoint state in bytes (the quantity
    /// [`ReplayConfig::max_retained_bytes`] budgets).
    pub fn retained_bytes(&self) -> u64 {
        self.checkpoints[1..].iter().map(|c| c.delta.bytes).sum()
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

    /// Whether `machine`, about to execute trace step
    /// [`Checkpoint::step`] of a run of the recorded executable and input,
    /// runs on exactly as the recording did from `checkpoint`: it holds
    /// the checkpoint's pc, stop state, input cursor and executable
    /// memory, and every register, NZCV bit and data memory word the
    /// recorded run reads from there on before overwriting it
    /// ([`Machine::same_live_state`]). Its output may differ. The run
    /// then ends with the recording's outcome after
    /// `execution().steps − checkpoint.step()` more steps, its output
    /// followed by [`ReplayEngine::output_after`].
    pub fn rejoins(&self, machine: &Machine, checkpoint: &Checkpoint) -> bool {
        let LiveIn { regs, flags } = checkpoint.live;
        // The checkpoint's interval, looked up at the first differing word.
        let mut interval = None;
        machine.same_live_state(&checkpoint.snapshot, regs, flags, |word| {
            self.reads.as_ref().is_none_or(|reads| {
                let interval = *interval.get_or_insert_with(|| {
                    self.checkpoints.partition_point(|c| c.step < checkpoint.step)
                });
                reads.read_first(word, interval)
            })
        })
    }

    /// The output the recorded run wrote after `checkpoint`.
    pub fn output_after(&self, checkpoint: &Checkpoint) -> &[u8] {
        &self.execution.output[checkpoint.snapshot.output().len()..]
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
        let result = self.run(&mut machine, step - checkpoint.step);
        if let RunOutcome::Crashed { .. } = result.outcome {
            // The last of `result.steps` executed instructions crashed; a
            // crash with no step executed means the restored state itself
            // was already stopped.
            let at = checkpoint.step + result.steps.saturating_sub(1);
            return Err(ReplayError::Diverged { step: at });
        }
        // Exited or TimedOut: either the budget was consumed (we are at
        // `step`) or the machine stopped normally, where further steps
        // would be no-ops.
        Ok(machine)
    }

    /// Runs `machine` for up to `max_steps` on the recording's tier: the
    /// uop tier over the recording's block cache when it ran under one,
    /// the interpreter otherwise — bit-identical either way. Code the
    /// caller rewrote in `machine` (a fault injection) runs from blocks
    /// decoded out of the machine's own bytes. Per-tier step counts and
    /// re-decode events go to the recording's telemetry.
    /// [`ReplayEngine::machine_at`] steps forward through it, and
    /// campaign sessions run their cursor walks and faulted
    /// continuations through it, so every run after the recording shares
    /// the micro-op bodies in the cache.
    pub fn run(&self, machine: &mut Machine, max_steps: u64) -> RunResult {
        let Some(cache) = &self.cache else {
            return machine.run(max_steps);
        };
        let mut stats = BlockStats::default();
        let result = machine.run_uops(cache, max_steps, &mut stats);
        flush_block_stats(&self.telemetry, stats);
        result
    }

    /// [`ReplayEngine::run`] on the interpreter, checking every step for a
    /// hung loop with `detector` ([`Machine::run_detecting`]). Under a
    /// block cache, the run's steps and the steps its proofs re-execute
    /// count as interpreted steps.
    pub fn run_detecting(
        &self,
        machine: &mut Machine,
        max_steps: u64,
        detector: &mut HangDetector,
    ) -> RunResult {
        let result = machine.run_detecting(max_steps, detector);
        if self.cache.is_some() {
            self.telemetry.count(Counter::InterpSteps, result.steps + detector.proof_steps());
        }
        result
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
    use rr_emu::{RunOutcome, PAGE_SIZE};

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
    fn adaptive_interval_tracks_sqrt_of_the_trace() {
        for iterations in [10u32, 200, 2000] {
            let exe = looping_exe(iterations);
            let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
            let steps = engine.execution().steps;
            let sqrt = ((steps as f64).sqrt().ceil() as u64).max(1);
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
        // About 1.2M steps: past the ~1.05M where √T chasing alone would
        // hold more than MAX_CHECKPOINTS, before the ~2.1M where it would
        // widen the interval by itself. The loop dirties no memory, so
        // the byte budget never binds.
        let exe = looping_exe(300_000);
        let config = ReplayConfig { max_steps: 2_000_000, ..ReplayConfig::default() };
        let capped = ReplayEngine::record(&exe, &[], &config);
        let steps = capped.execution().steps;
        assert!(capped.execution().outcome.is_exit());
        assert!(
            capped.checkpoint_count() as u64 <= MAX_CHECKPOINTS,
            "{} checkpoints",
            capped.checkpoint_count()
        );
        // The √T chase keeps interval² ≤ 2T; only the cap widens past it.
        let interval = capped.interval();
        assert!(interval * interval > 2 * steps, "interval {interval} for T={steps}: cap unused");
        for c in &capped.checkpoints {
            assert!(c.step.is_multiple_of(interval), "checkpoint {} off the grid", c.step);
        }
        // Replay still works, just with longer forward stepping.
        let m = capped.machine_at(steps / 2).unwrap();
        assert_eq!(m.pc(), capped.trace()[(steps / 2) as usize]);
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
        // Each interval of stack churn dirties exactly the one stack page
        // under `sp`, so every checkpoint after the initial state retains
        // exactly one page.
        for iterations in [500, 800, 3000] {
            let exe = stack_churn_exe(iterations);
            let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
            let footprint = engine.footprint();
            assert_eq!(footprint.checkpoints, engine.checkpoint_count());
            assert_eq!(footprint.interval, engine.interval());
            assert!(footprint.checkpoints > 16, "{iterations}: {footprint}");
            assert_eq!(
                footprint.retained_pages,
                footprint.checkpoints as u64 - 1,
                "{iterations} iterations: one page per checkpoint interval"
            );
            assert_eq!(footprint.retained_bytes, engine.retained_bytes());
            assert_eq!(footprint.retained_bytes, footprint.retained_pages * PAGE_SIZE as u64);
            let rendered = footprint.to_string();
            assert!(rendered.contains("checkpoints"), "{rendered}");
            assert!(rendered.contains(&format!("{} dirty pages", footprint.retained_pages)));
        }
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
        let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
        let total = engine.trace().len() as u64;
        let interval = engine.interval();
        assert!(interval > 1 && 2 * interval < total, "interval {interval} for T={total}");
        for step in [0, 1, interval - 1, interval, interval + 1, 100, total - 1, total] {
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
        let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
        let total = engine.trace().len() as u64;
        let interval = engine.interval();
        assert!(interval > 1 && 2 * interval < total, "interval {interval} for T={total}");
        for step in [0, 1, interval - 1, interval, interval + 1, 100, total - 1, total, total + 50]
        {
            let restore = engine.checkpoint_step_before(step);
            assert!(restore <= step, "restore point must not overshoot step {step}");
            assert!(
                engine.checkpoints.iter().any(|c| c.step == restore),
                "step {step}: {restore} is not a retained checkpoint"
            );
            if step <= total {
                assert!(
                    step - restore < interval || restore == engine.checkpoints.last().unwrap().step,
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
        let engine = ReplayEngine::record(&exe, &[], &ReplayConfig::default());
        let interval = engine.interval();
        assert!(engine.checkpoint_count() > 3, "{} checkpoints", engine.checkpoint_count());
        let from = engine.checkpoints_from(interval + 1);
        assert_eq!(from.first().map(Checkpoint::step), Some(2 * interval));
        assert_eq!(from.len(), engine.checkpoint_count() - 2, "steps 0 and one interval precede");
        assert_eq!(engine.checkpoints_from(interval)[0].step(), interval, "at or after");
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

    /// The same `ReplayConfig` on the uop tier.
    fn accel(config: &ReplayConfig) -> ReplayConfig {
        ReplayConfig { exec: ExecMode::Uops, ..config.clone() }
    }

    #[test]
    fn accelerated_recording_is_bit_identical() {
        let exe = looping_exe(300);
        for base in [
            ReplayConfig::default(),
            ReplayConfig { record_snapshots: false, ..ReplayConfig::default() },
        ] {
            let interp = ReplayEngine::record(&exe, &[], &base);
            let fast = ReplayEngine::record(&exe, &[], &accel(&base));
            assert_eq!(interp.execution(), fast.execution());
            assert_eq!(interp.trace(), fast.trace());
            assert_eq!(interp.interval(), fast.interval());
            assert_eq!(interp.checkpoint_count(), fast.checkpoint_count());
            let steps: Vec<u64> = interp.checkpoints.iter().map(|c| c.step).collect();
            let fast_steps: Vec<u64> = fast.checkpoints.iter().map(|c| c.step).collect();
            assert_eq!(steps, fast_steps, "capture schedule must not drift");
        }
    }

    #[test]
    fn accelerated_machine_at_matches_the_interpreter() {
        let exe = looping_exe(80);
        let base = ReplayConfig::default();
        let interp = ReplayEngine::record(&exe, &[], &base);
        let interval = interp.interval();
        let fast = ReplayEngine::record(&exe, &[], &accel(&base));
        let total = interp.trace().len() as u64;
        for step in [0, 1, interval - 1, interval, interval + 1, 100, total - 1, total] {
            let a = interp.machine_at(step).unwrap();
            let b = fast.machine_at(step).unwrap();
            assert_eq!(a.pc(), b.pc(), "pc at step {step}");
            assert_eq!(a.flags(), b.flags(), "flags at step {step}");
            assert_eq!(a.stopped(), b.stopped(), "stop state at step {step}");
            for r in rr_isa_regs() {
                assert_eq!(a.reg(r), b.reg(r), "reg {r} at step {step}");
            }
        }
    }

    #[test]
    fn run_continues_on_the_recording_tier() {
        let exe = looping_exe(80);
        for uops in [false, true] {
            let telemetry = Telemetry::counters();
            let base = ReplayConfig { telemetry: telemetry.clone(), ..ReplayConfig::default() };
            let config = if uops { accel(&base) } else { base };
            let engine = ReplayEngine::record(&exe, &[], &config);
            let tier_steps = || {
                let m = telemetry.metrics().unwrap();
                m.counter(Counter::UopSteps) + m.counter(Counter::InterpSteps)
            };
            let recorded = tier_steps();
            let decoded = telemetry.metrics().unwrap().counter(Counter::BlocksDecoded);
            assert_eq!(decoded > 0, uops, "only the uop tier decodes a cache: {decoded}");
            let mut machine = engine.machine_at(0).unwrap();
            let result = engine.run(&mut machine, 1_000_000);
            assert_eq!(result.outcome, engine.execution().outcome, "uops={uops}");
            assert_eq!(result.steps, engine.execution().steps, "uops={uops}");
            assert_eq!(machine.output(), engine.execution().output.as_slice(), "uops={uops}");
            // Only the uop tier reports per-tier steps, and it reports all
            // of them.
            let expected = if uops { result.steps } else { 0 };
            assert_eq!(tier_steps() - recorded, expected, "uops={uops}");
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
        let fast = ReplayEngine::record(&exe, &[], &accel(&base));
        assert_eq!(interp.execution(), fast.execution());
        assert_eq!(interp.interval(), fast.interval());
        let steps_a: Vec<u64> = interp.checkpoints.iter().map(|c| c.step).collect();
        let steps_b: Vec<u64> = fast.checkpoints.iter().map(|c| c.step).collect();
        assert_eq!(steps_a, steps_b);
        assert!(fast.retained_bytes() <= budget);
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
    }
}
