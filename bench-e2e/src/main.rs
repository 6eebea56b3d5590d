//! Command line of the end-to-end benchmark.
//!
//! ```text
//! cargo run --release -- --workload campaign|faulter-patcher|hybrid \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release -- --print-reference
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics of an
//! untraced run (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`), each with its unit. A traced run also prints the
//! ledger of deterministic counts on the line before, and writes its
//! spans under the build directory.

use rr_e2e_bench::inputs::{setup, Binary};
use rr_e2e_bench::measure::{self, PassTotals, Traced};
use rr_e2e_bench::ops::Workload;
use rr_e2e_bench::reference::{self, Expected};
use rr_e2e_bench::report::{layer_metrics, metric, Metric, Outcome, SetupLayers};
use rr_e2e_bench::{calibration_ns, median, percentile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Heap accounting: the system allocator plus a count of live bytes and
/// their high-water mark (statistics only, hence `Relaxed`).
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations are exactly `System`'s; the byte counts are
// plain atomics and never touch the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups before the first operation; one more follows every pass, and
/// `setup_s` is the median of all of them.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-reference" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("invalid {flag} `{value}`"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, seed, seconds, trace }))
}

fn main() -> ExitCode {
    let result = match parse_args() {
        Ok(Some(args)) => run(&args),
        Ok(None) => print_reference(),
        Err(e) => Err(e),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_reference() -> Result<(), String> {
    let (binaries, _) = setup(0)?;
    print!("{}", reference::render(&binaries)?);
    Ok(())
}

/// Set-up samples: total seconds, and the per-layer parts.
#[derive(Default)]
struct Setups {
    total_s: Vec<f64>,
    build_ms: Vec<f64>,
    load_us: Vec<f64>,
}

impl Setups {
    /// Sets up once more and records its times.
    fn sample(&mut self, seed: u64) -> Result<Vec<Binary>, String> {
        let start = Instant::now();
        let (binaries, times) = setup(seed)?;
        self.total_s.push(start.elapsed().as_secs_f64());
        self.build_ms.push(times.build.as_secs_f64() * 1e3);
        self.load_us.push(times.load.as_secs_f64() * 1e6);
        Ok(binaries)
    }

    fn layers(&self) -> SetupLayers {
        SetupLayers { build_ms: median(&self.build_ms), load_us: median(&self.load_us) }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut setups = Setups::default();
    let mut binaries = Vec::new();
    for _ in 0..SETUPS {
        binaries = setups.sample(args.seed)?;
    }
    let expected = reference::expected(args.workload, &binaries, args.seed)?;
    let outcome = if args.trace {
        traced_run(args, &binaries, &expected, &mut setups)?
    } else {
        untraced_run(args, &binaries, &expected, &mut setups)?
    };
    println!("{}", outcome.to_json());
    Ok(())
}

/// Untraced operations of one run, each timed between two calibration
/// loops.
#[derive(Default)]
struct Samples {
    /// Wall time per operation, ms.
    ms: Vec<f64>,
    /// Wall time per operation in calibration units.
    cal: Vec<f64>,
    /// Calibration loop time, ms.
    cal_ms: Vec<f64>,
    /// Logical plans classified, and the operations' time in ms and in
    /// calibration units.
    plans: u64,
    busy_ms: f64,
    busy_cal: f64,
    /// Residual successes, input and output code size, summed.
    residual: u64,
    code_in: u64,
    code_out: u64,
}

impl Samples {
    /// Runs one untraced pass; `cal_before` is the calibration time
    /// measured just before it, and the one measured after is returned.
    fn pass(
        &mut self,
        args: &Args,
        binaries: &[Binary],
        plans: &[u64],
        expected: &Expected,
        mut cal_before: u64,
        outcome: &mut Outcome,
    ) -> u64 {
        for (bin, &op_plans) in binaries.iter().zip(plans) {
            let op = measure::timed_op(args.workload, bin, expected);
            let cal_after = calibration_ns();
            let cal_ns = (cal_before + cal_after) as f64 / 2.0;
            cal_before = cal_after;
            outcome.tally(op.correct);
            let ms = op.ns as f64 / 1e6;
            self.ms.push(ms);
            self.cal.push(op.ns as f64 / cal_ns);
            self.cal_ms.push(cal_ns / 1e6);
            self.plans += op_plans;
            self.busy_ms += ms;
            self.busy_cal += op.ns as f64 / cal_ns;
            self.residual += op.output.residual;
            self.code_in += op.output.code_in;
            self.code_out += op.output.code_out;
        }
        cal_before
    }
}

/// The median, over the binaries, of each binary's median latency;
/// `values` holds whole passes in binary order. The binaries' latencies
/// form separate clusters: a median over all operations can fall in the
/// gap between the second and third, where it jumps between their edges
/// from run to run, and a mean of the medians is dominated by the slowest
/// binary's long, noisy operations.
fn per_binary_median(values: &[f64], binaries: usize) -> f64 {
    let medians: Vec<f64> = (0..binaries)
        .map(|i| {
            let own: Vec<f64> = values.iter().skip(i).step_by(binaries).copied().collect();
            median(&own)
        })
        .collect();
    median(&medians)
}

/// Warm-up pass, untimed: fills caches and counts each operation's plans
/// with counters-only telemetry.
fn warm_up(
    args: &Args,
    binaries: &[Binary],
    expected: &Expected,
    outcome: &mut Outcome,
) -> Vec<u64> {
    binaries
        .iter()
        .map(|bin| {
            let (op, plans) = measure::count_plans(args.workload, bin, expected);
            outcome.tally(op.correct);
            plans
        })
        .collect()
}

fn untraced_run(
    args: &Args,
    binaries: &[Binary],
    expected: &Expected,
    setups: &mut Setups,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let plans = warm_up(args, binaries, expected, &mut outcome);

    let mut samples = Samples::default();
    let mut cal = calibration_ns();
    // The heap peak counts what the operations add to the heap live
    // before timing (binaries, reference, calibration table).
    let baseline = LIVE.load(Relaxed);
    PEAK.store(baseline, Relaxed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        // Whole passes only, so every binary weighs the same.
        cal = samples.pass(args, binaries, &plans, expected, cal, &mut outcome);
        setups.sample(args.seed)?;
    }
    let peak_heap_mib = PEAK.load(Relaxed).saturating_sub(baseline) as f64 / (1 << 20) as f64;
    eprintln!(
        "{} seed {}: {} timed operations; op_ms p50 {:.3} p90 {:.3}; calibration {:.4} ms",
        args.workload,
        args.seed,
        samples.ms.len(),
        median(&samples.ms),
        percentile(&samples.ms, 90.0),
        median(&samples.cal_ms),
    );
    outcome.metrics = vec![
        metric("setup_s", median(&setups.total_s), "s"),
        metric("op_cal_p50", per_binary_median(&samples.cal, binaries.len()), "cal"),
        metric("op_cal_p90", percentile(&samples.cal, 90.0), "cal"),
        metric("plans_per_cal", samples.plans as f64 / samples.busy_cal, "1/cal"),
        metric("peak_heap_mib", peak_heap_mib, "MiB"),
    ];
    Ok(outcome)
}

fn traced_run(
    args: &Args,
    binaries: &[Binary],
    expected: &Expected,
    setups: &mut Setups,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let plans = warm_up(args, binaries, expected, &mut outcome);

    // Alternate untraced and traced passes so both see the same
    // neighbours; the ratio of their medians (each pass in calibration
    // units) is the tracing overhead.
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs(args.seconds);
    let mut samples = Samples::default();
    let mut untraced_cal = Vec::new();
    let mut traced_cal = Vec::new();
    let mut passes: Vec<(PassTotals, Vec<String>)> = Vec::new();
    let mut first_ledger = None;
    let mut cal = calibration_ns();
    while Instant::now() < deadline || passes.is_empty() {
        let before = samples.busy_cal;
        cal = samples.pass(args, binaries, &plans, expected, cal, &mut outcome);
        untraced_cal.push(samples.busy_cal - before);

        let ops: Vec<Traced> = binaries
            .iter()
            .map(|bin| measure::traced_op(args.workload, bin, expected, epoch))
            .collect();
        let cal_after = calibration_ns();
        for op in &ops {
            outcome.tally(op.timed.correct);
        }
        let totals = PassTotals::of(&ops);
        traced_cal.push(2.0 * totals.wall_ns as f64 / (cal + cal_after) as f64);
        cal = cal_after;
        let ledger = totals.ledger();
        match &first_ledger {
            None => first_ledger = Some(ledger),
            Some(first) if *first != ledger => {
                eprintln!(
                    "ledger changed between passes:\n  {}\n  {}",
                    first.render(),
                    ledger.render()
                );
                outcome.failed += 1;
            }
            Some(_) => {}
        }
        let spans = measure::span_lines(args.workload, passes.len(), &ops, binaries);
        passes.push((totals, spans));
    }

    write_spans(args, &passes);
    let ledger = first_ledger.expect("at least one traced pass");
    println!("ledger {} seed {}: {}", args.workload, args.seed, ledger.render());

    // Report the pass of median wall time, so its rows add up exactly.
    let overhead = median(&traced_cal) / median(&untraced_cal);
    passes.sort_by_key(|(t, _)| t.wall_ns);
    let median_pass = &passes[passes.len() / 2].0;
    eprintln!(
        "{} seed {}: {} traced passes, telemetry overhead {overhead:.3}",
        args.workload,
        args.seed,
        passes.len()
    );
    let mut metrics = layer_metrics(args.workload, median_pass, setups.layers(), overhead);
    metrics.extend(outputs(&samples, binaries.len(), &outcome));
    outcome.metrics = metrics;
    Ok(outcome)
}

/// What the operations produced, and their untraced times as measured:
/// reported with the per-layer metrics because they are exact functions
/// of the seed (checked against the reference) or raw wall times, and so
/// unfit for a noise bound.
fn outputs(samples: &Samples, binaries: usize, outcome: &Outcome) -> Vec<Metric> {
    let passes = (samples.ms.len() / binaries.max(1)).max(1) as f64;
    vec![
        metric("residual_successes", samples.residual as f64 / passes, "count"),
        metric(
            "code_overhead_pct",
            (samples.code_out as f64 / samples.code_in.max(1) as f64 - 1.0) * 100.0,
            "%",
        ),
        metric("error_rate", outcome.failed as f64 / outcome.attempted.max(1) as f64, "ratio"),
        metric("raw.op_ms_p50", per_binary_median(&samples.ms, binaries), "ms"),
        metric("raw.op_ms_p90", percentile(&samples.ms, 90.0), "ms"),
        metric("raw.plans_per_s", samples.plans as f64 / (samples.busy_ms / 1e3), "1/s"),
        metric("raw.calibration_ms", median(&samples.cal_ms), "ms"),
    ]
}

/// Writes every traced pass's spans, as JSON lines, under the build
/// directory.
fn write_spans(args: &Args, passes: &[(PassTotals, Vec<String>)]) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
    )
    .join("e2e-bench");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let mut text = String::new();
    for (_, lines) in passes {
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}
