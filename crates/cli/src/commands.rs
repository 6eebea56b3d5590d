//! Implementations of the `rr` subcommands. Each returns the text to
//! print on success.

use crate::Args;
use rr_fault::{
    CampaignConfig, CampaignEngine, CampaignError, CampaignSession, CampaignSessionBuilder,
    Collect, CrashTriageOracle, ExecMode, FaultModel, FlagFlip, InstructionSkip,
    OutputPrefixOracle, PairPolicy, PlanConfig, SingleBitFlip, Stream,
};
use rr_obj::Executable;
use rr_telemetry::{Counter, JsonlRecorder, ProgressRecorder, Recorder, Telemetry};
use std::fmt::Write as _;
use std::fs;
use std::sync::Arc;

fn load_exe(path: &str) -> Result<Executable, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Executable::from_bytes(&bytes).map_err(|e| format!("`{path}` is not a valid executable: {e}"))
}

fn save_exe(exe: &Executable, path: &str) -> Result<(), String> {
    fs::write(path, exe.to_bytes()).map_err(|e| format!("cannot write `{path}`: {e}"))
}

fn model_by_name(name: &str) -> Result<Box<dyn FaultModel>, String> {
    match name {
        "skip" => Ok(Box::new(InstructionSkip)),
        "bitflip" => Ok(Box::new(SingleBitFlip)),
        "flagflip" => Ok(Box::new(FlagFlip)),
        other => Err(format!("unknown fault model `{other}` (skip|bitflip|flagflip)")),
    }
}

/// Parses a comma-separated model list (`skip,bitflip`); all listed
/// models share one scheduling pass over the trace.
fn models_by_names(names: &str) -> Result<Vec<Box<dyn FaultModel>>, String> {
    let models: Vec<Box<dyn FaultModel>> = names
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .map(model_by_name)
        .collect::<Result<_, _>>()?;
    if models.is_empty() {
        return Err(format!("--model `{names}` names no fault model (skip|bitflip|flagflip)"));
    }
    Ok(models)
}

/// Applies the `--oracle` choice to a session builder: `golden`
/// (default; needs `--good`), `crash` (crash-only triage), or
/// `prefix:TEXT` (success = output starts with TEXT). The latter two
/// need no good input.
fn apply_oracle(
    builder: CampaignSessionBuilder,
    oracle: &str,
    args: &Args,
) -> Result<CampaignSessionBuilder, String> {
    match oracle {
        "golden" => Ok(builder.good_input(args.required("good")?.as_bytes())),
        "crash" => Ok(builder.oracle(CrashTriageOracle)),
        other => match other.strip_prefix("prefix:") {
            // An empty prefix would declare every run a success.
            Some("") => Err("--oracle prefix: needs non-empty TEXT".to_owned()),
            Some(prefix) => Ok(builder.oracle(OutputPrefixOracle::new(prefix.as_bytes()))),
            None => Err(format!("unknown oracle `{other}` (golden|crash|prefix:TEXT)")),
        },
    }
}

/// `rr asm <input.s> [-o out.rfx]`
pub fn asm(raw: &[String]) -> Result<String, String> {
    let args = Args::parse(raw, &["o"], &[])?;
    let input = args.positional(0, "input assembly file")?;
    let source = fs::read_to_string(input).map_err(|e| format!("cannot read `{input}`: {e}"))?;
    let exe = rr_asm::assemble_and_link(&source).map_err(|e| e.to_string())?;
    let out_path = args
        .value("o")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{}.rfx", input.trim_end_matches(".s")));
    save_exe(&exe, &out_path)?;
    Ok(format!(
        "assembled `{input}` → `{out_path}` ({} bytes of code, entry {:#x})\n",
        exe.code_size(),
        exe.entry
    ))
}

/// `rr run <prog.rfx> [--input BYTES] [--max-steps N]`
pub fn run(raw: &[String]) -> Result<String, String> {
    let args = Args::parse(raw, &["input", "max-steps"], &[])?;
    let exe = load_exe(args.positional(0, "program")?)?;
    let input = args.value("input").unwrap_or("").as_bytes().to_vec();
    let max_steps: u64 = match args.value("max-steps") {
        Some(n) => n.parse().map_err(|_| format!("invalid --max-steps `{n}`"))?,
        None => 10_000_000,
    };
    let result = rr_emu::execute(&exe, &input, max_steps);
    let mut out = String::new();
    if !result.output.is_empty() {
        let _ = writeln!(out, "{}", String::from_utf8_lossy(&result.output).trim_end());
    }
    let _ = writeln!(out, "[{} after {} steps]", result.outcome, result.steps);
    Ok(out)
}

/// `rr disasm <prog.rfx> [--policy naive|refined]`
pub fn disasm(raw: &[String]) -> Result<String, String> {
    let args = Args::parse(raw, &["policy"], &[])?;
    let exe = load_exe(args.positional(0, "program")?)?;
    let policy = match args.value("policy").unwrap_or("refined") {
        "naive" => rr_disasm::SymbolizationPolicy::Naive,
        "refined" => rr_disasm::SymbolizationPolicy::DataAccessRefined,
        other => return Err(format!("unknown policy `{other}` (naive|refined)")),
    };
    let disasm = rr_disasm::disassemble_with(&exe, policy).map_err(|e| e.to_string())?;
    Ok(disasm.listing.to_source())
}

/// `rr analyze <prog.rfx> [--json]`
///
/// Static fault-effect analysis: disassembles the binary (no execution),
/// runs the `rr-analysis` dataflow pass, and prints the per-function
/// vulnerability report — unprotected compare/branch single points of
/// failure and the share of each fault model's effects provably benign.
/// `--json` emits the `rr-analyze-v1` document instead of the table.
pub fn analyze(raw: &[String]) -> Result<String, String> {
    let args = Args::parse(raw, &[], &["json"])?;
    let exe = load_exe(args.positional(0, "program")?)?;
    let analysis = rr_analysis::Analysis::from_executable(&exe)
        .map_err(|e| format!("analysis failed: {e}"))?;
    let report = analysis.report();
    Ok(if args.flag("json") { report.to_json() } else { report.to_string() })
}

/// Observability wiring shared by `rr fault` and `rr harden`:
/// `--trace-out FILE` streams one schema-versioned JSONL event per
/// closed span, `--progress` paints a live progress line on stderr, and
/// `--metrics FILE` writes the final metrics snapshot as JSON. Any of
/// the three attaches a timed [`Telemetry`] handle to the campaign;
/// without them the campaign runs on the zero-cost disabled handle.
/// `--quiet` suppresses the report body (telemetry files still get
/// written).
struct TelemetryArgs {
    telemetry: Telemetry,
    metrics_path: Option<String>,
    quiet: bool,
}

fn telemetry_from(args: &Args) -> Result<TelemetryArgs, String> {
    let metrics_path = args.value("metrics").map(str::to_owned);
    let mut sinks: Vec<Arc<dyn Recorder>> = Vec::new();
    if let Some(path) = args.value("trace-out") {
        let recorder = JsonlRecorder::create(path)
            .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
        sinks.push(Arc::new(recorder));
    }
    if args.flag("progress") {
        sinks.push(Arc::new(ProgressRecorder::stderr()));
    }
    let telemetry = if !sinks.is_empty() {
        Telemetry::with_sinks(sinks)
    } else if metrics_path.is_some() {
        Telemetry::timed()
    } else {
        Telemetry::disabled()
    };
    Ok(TelemetryArgs { telemetry, metrics_path, quiet: args.flag("quiet") })
}

impl TelemetryArgs {
    /// Flushes sinks, writes the `--metrics` snapshot, and strips the
    /// report body under `--quiet`. Every `fault`/`harden` exit path
    /// funnels its output through here.
    fn finish(&self, out: String) -> Result<String, String> {
        self.telemetry.flush();
        if let Some(path) = &self.metrics_path {
            let snapshot = self.telemetry.metrics().expect("--metrics attaches telemetry");
            fs::write(path, snapshot.to_json())
                .map_err(|e| format!("cannot write metrics file `{path}`: {e}"))?;
        }
        Ok(if self.quiet { String::new() } else { out })
    }
}

/// Parses `--threads N` (0 = all available cores, the default).
fn threads_from(args: &Args) -> Result<Option<usize>, String> {
    args.value("threads")
        .map(|n| n.parse().map_err(|_| format!("invalid --threads `{n}`")))
        .transpose()
}

/// Parses the multi-fault plan flags shared by `rr fault` and
/// `rr harden`: `--order N` (default 1), `--pair-window N` (step window
/// for consecutive injections; unbounded pairing without it),
/// `--plan-budget N` (per-order sampling cap) and `--seed N` (sampling
/// seed, echoed in the report header so sampled campaigns reproduce).
fn plan_config_from(args: &Args) -> Result<PlanConfig, String> {
    let mut plan = PlanConfig::default();
    if let Some(n) = args.value("order") {
        plan.order = n.parse().map_err(|_| format!("invalid --order `{n}`"))?;
        if plan.order == 0 {
            return Err("--order must be at least 1".to_owned());
        }
    }
    if let Some(n) = args.value("pair-window") {
        let max_gap = n.parse().map_err(|_| format!("invalid --pair-window `{n}`"))?;
        plan.policy = PairPolicy::WithinWindow { max_gap };
    }
    if let Some(n) = args.value("plan-budget") {
        plan.budget = Some(n.parse().map_err(|_| format!("invalid --plan-budget `{n}`"))?);
    }
    if let Some(n) = args.value("seed") {
        plan.seed = n.parse().map_err(|_| format!("invalid --seed `{n}`"))?;
    }
    Ok(plan)
}

/// Renders a campaign setup error, naming the option to change when
/// there is one.
fn campaign_error(e: CampaignError) -> String {
    match e {
        CampaignError::PlanSpaceOverflow { .. } => format!("--order: {e}; lower the order"),
        other => other.to_string(),
    }
}

/// The report-header line describing a multi-fault plan space.
fn plan_header(plan: &PlanConfig) -> String {
    let window = match plan.policy {
        PairPolicy::Pairs => "unbounded window".to_owned(),
        PairPolicy::WithinWindow { max_gap } => format!("window ≤{max_gap} steps"),
    };
    let budget = match plan.budget {
        Some(b) => format!("budget {b}/order"),
        None => "exhaustive".to_owned(),
    };
    format!("plan: order ≤{}, {window}, {budget}, seed {}", plan.order, plan.seed)
}

/// `rr fault <prog.rfx> --bad BYTES [--good BYTES] [--model a[,b…]]
/// [--engine naive|checkpoint] [--exec interp|uops] [--threads N]
/// [--oracle golden|crash|prefix:TEXT] [--streaming]
/// [--order N [--pair-window N] [--plan-budget N] [--seed N]]
/// [--no-static-prune] [--audit-analysis]`
///
/// One campaign session evaluates every listed model in a single
/// scheduling pass. `--streaming` folds classifications straight into
/// per-model summaries without materializing per-fault results — memory
/// bounded by the sampled sites plus one batch of plans (order ≥ 2 adds
/// each sampled site's single faults), no matter how many plans the
/// models enumerate, for million-fault campaigns.
/// `--oracle crash` and `--oracle prefix:TEXT` run golden-good-free
/// campaigns (no `--good` needed). `--order 2` opens the multi-fault
/// plan space (double faults); the header echoes the plan space and
/// sampling seed, and reports split counts by order.
/// Provably-benign plans are pruned by static analysis before
/// enumeration (`--no-static-prune` disables this); `--audit-analysis`
/// executes them anyway and errors if any classifies non-benign.
/// `--exec interp` runs the reference interpreter instead of the default
/// uop tier; classifications are bit-identical either way.
pub fn fault(raw: &[String]) -> Result<String, String> {
    let args = Args::parse(
        raw,
        &[
            "good",
            "bad",
            "model",
            "engine",
            "exec",
            "oracle",
            "order",
            "pair-window",
            "plan-budget",
            "seed",
            "threads",
            "trace-out",
            "metrics",
        ],
        &["streaming", "no-static-prune", "audit-analysis", "progress", "quiet"],
    )?;
    let exe = load_exe(args.positional(0, "program")?)?;
    let bad = args.required("bad")?.as_bytes().to_vec();
    let models = models_by_names(args.value("model").unwrap_or("skip"))?;
    let engine: CampaignEngine = args.parsed("engine")?.unwrap_or_default();
    let exec: ExecMode = args.parsed("exec")?.unwrap_or_default();
    let plan = plan_config_from(&args)?;
    let tel = telemetry_from(&args)?;
    // The engine choice is fixed at construction: naive sessions skip
    // snapshot recording entirely.
    let mut config = CampaignConfig { engine, exec, plan, ..CampaignConfig::default() };
    config.static_prune = !args.flag("no-static-prune");
    config.audit_analysis = args.flag("audit-analysis");
    let audit = config.audit_analysis;
    if let Some(threads) = threads_from(&args)? {
        config.threads = threads;
    }
    let builder = CampaignSession::builder(exe)
        .bad_input(bad)
        .config(config)
        .telemetry(tel.telemetry.clone());
    let builder = apply_oracle(builder, args.value("oracle").unwrap_or("golden"), &args)?;
    let session = builder.build().map_err(campaign_error)?;
    let refs: Vec<&dyn FaultModel> = models.iter().map(Box::as_ref).collect();
    session.check_plan_space(&refs).map_err(campaign_error)?;
    let mut out = String::new();
    if plan.order >= 2 {
        let _ = writeln!(out, "{}", plan_header(&plan));
    }
    if args.flag("streaming") {
        for ms in session.run(&refs, Stream) {
            let _ =
                writeln!(out, "model `{}` (engine {engine}, streaming): {}", ms.model, ms.summary);
        }
        let _ = writeln!(out, "memory: {}", session.replay_footprint());
        return tel.finish(out);
    }
    for (index, report) in session.run(&refs, Collect).iter().enumerate() {
        let _ = writeln!(out, "model `{}` (engine {engine}): {}", report.model, report.summary());
        if plan.order >= 2 {
            for (order, summary) in report.summary_by_order() {
                let _ = writeln!(out, "    order {order}: {summary}");
            }
        }
        let pruned = report.plans_pruned_static();
        if pruned > 0 {
            let _ = writeln!(out, "    pruned: {pruned} statically-benign plan(s) skipped");
        }
        if audit {
            if !report.audit_failures.is_empty() {
                let mut msg = format!(
                    "audit failed: {} statically-benign plan(s) classified non-benign under \
                     model `{}`:",
                    report.audit_failures.len(),
                    report.model
                );
                for failure in report.audit_failures.iter().take(8) {
                    let _ = write!(msg, "\n  {} → {}", failure.plan, failure.class);
                }
                return Err(msg);
            }
            let _ = writeln!(out, "    audit: every statically-benign plan classified benign");
        }
        if index == 0 {
            let _ = writeln!(out, "memory: {}", session.replay_footprint());
        }
        let pcs = report.vulnerable_pcs();
        if pcs.is_empty() {
            let _ = writeln!(out, "no vulnerable program points.");
        } else {
            let _ = writeln!(out, "vulnerable program points:");
            for pc in pcs {
                let site =
                    session.sites().iter().find(|s| s.pc == pc).expect("vulnerable pc has a site");
                let _ = writeln!(out, "    {pc:#06x}: {}", site.insn);
            }
        }
    }
    tel.finish(out)
}

/// `rr harden <prog.rfx> --good BYTES --bad BYTES [--model ...] [-o out]
/// [--engine naive|checkpoint] [--exec interp|uops] [--no-incremental]
/// [--max-iterations N]
/// [--order N [--pair-window N] [--plan-budget N] [--seed N]]
/// [--no-static-prune] [--audit-analysis]`
///
/// Incremental re-campaigning is on by default: every re-campaign is
/// seeded with the prior iteration's classifications through the patch's
/// listing delta — untouched sites reuse their prior class without
/// executing, classifying bit-identically to full re-campaigning, and
/// the report gains a `reuse:` line. `--no-incremental` restores the
/// full-re-campaign baseline. `--order 2` hardens against double faults:
/// the loop iterates until no order-≤2 success remains (or the iteration
/// budget is hit) and reports residuals split by order.
pub fn harden(raw: &[String]) -> Result<String, String> {
    let args = Args::parse(
        raw,
        &[
            "good",
            "bad",
            "model",
            "o",
            "max-iterations",
            "engine",
            "exec",
            "order",
            "pair-window",
            "plan-budget",
            "seed",
            "threads",
            "trace-out",
            "metrics",
        ],
        &["no-incremental", "no-static-prune", "audit-analysis", "progress", "quiet"],
    )?;
    let path = args.positional(0, "program")?;
    let exe = load_exe(path)?;
    let good = args.required("good")?.as_bytes().to_vec();
    let bad = args.required("bad")?.as_bytes().to_vec();
    let model = model_by_name(args.value("model").unwrap_or("skip"))?;
    let tel = telemetry_from(&args)?;
    let mut config = rr_patch::HardenConfig {
        telemetry: tel.telemetry.clone(),
        ..rr_patch::HardenConfig::default()
    };
    if let Some(threads) = threads_from(&args)? {
        config.campaign.threads = threads;
    }
    config.campaign.static_prune = !args.flag("no-static-prune");
    config.campaign.audit_analysis = args.flag("audit-analysis");
    if let Some(n) = args.value("max-iterations") {
        config.max_iterations = n.parse().map_err(|_| format!("invalid --max-iterations `{n}`"))?;
    }
    if let Some(engine) = args.parsed("engine")? {
        config.engine = engine;
    }
    if let Some(exec) = args.parsed("exec")? {
        config.campaign.exec = exec;
    }
    config.incremental = !args.flag("no-incremental");
    let plan = plan_config_from(&args)?;
    config.fault_order = plan.order;
    config.pair_window = match plan.policy {
        PairPolicy::WithinWindow { max_gap } => Some(max_gap),
        PairPolicy::Pairs => None,
    };
    config.plan_budget = plan.budget;
    config.sample_seed = plan.seed;
    let outcome = rr_patch::FaulterPatcher::new(config.clone())
        .harden(&exe, &good, &bad, model.as_ref())
        .map_err(|e| match e {
            rr_patch::HardenError::Campaign(e @ CampaignError::PlanSpaceOverflow { .. }) => {
                campaign_error(e)
            }
            other => other.to_string(),
        })?;
    let mut out = String::new();
    if plan.order >= 2 {
        let _ = writeln!(out, "{}", plan_header(&plan));
    }
    for it in &outcome.iterations {
        let _ = writeln!(
            out,
            "iteration {}: {} vulnerable site(s), {} patched, {} skipped",
            it.iteration,
            it.vulnerable_sites,
            it.stats.patched.len(),
            it.stats.skipped.len()
        );
    }
    // One line per faulter campaign, from the per-iteration metrics
    // deltas — only when a telemetry flag attached a handle, so the
    // default report stays unchanged.
    for (k, m) in outcome.iteration_metrics.iter().enumerate() {
        let _ = writeln!(
            out,
            "telemetry {k}: {} plans, {:.0} plans/s, reuse {:.1}%",
            m.counter(Counter::PlansExecuted),
            m.plans_per_sec(),
            m.reuse_percent()
        );
    }
    let _ = writeln!(
        out,
        "fixed point: {}; residual successful faults: {}; overhead {:+.2}%",
        outcome.fixed_point,
        outcome.residual_vulnerabilities,
        outcome.overhead_percent()
    );
    if plan.order >= 2 {
        let by_order: Vec<String> = outcome
            .residual_by_order
            .iter()
            .enumerate()
            .map(|(k, count)| format!("order {}: {count}", k + 1))
            .collect();
        let _ = writeln!(out, "residual by order: {}", by_order.join(", "));
    }
    if config.incremental {
        let reuse = rr_fault::ReuseStats {
            sites_reused: outcome.sites_reused,
            sites_replayed: outcome.sites_replayed,
        };
        let _ = writeln!(out, "reuse: {reuse} across {} campaigns", outcome.campaigns);
    }
    let out_path = args.value("o").map(str::to_owned).unwrap_or_else(|| format!("{path}.hardened"));
    save_exe(&outcome.hardened, &out_path)?;
    let _ = writeln!(out, "wrote `{out_path}`");
    tel.finish(out)
}

/// `rr hybrid <prog.rfx> [-o out] [--good BYTES --bad BYTES [--model ...]]`
///
/// When a good/bad input pair is given, the hardened binary is verified
/// with a checkpointed fault campaign and the residual counts reported.
pub fn hybrid(raw: &[String]) -> Result<String, String> {
    let args = Args::parse(raw, &["o", "copies", "good", "bad", "model"], &[])?;
    let path = args.positional(0, "program")?;
    let exe = load_exe(path)?;
    let mut config = rr_core::HybridConfig::default();
    if let Some(n) = args.value("copies") {
        config.checksum_copies = n.parse().map_err(|_| format!("invalid --copies `{n}`"))?;
    }
    let out_path = args.value("o").map(str::to_owned).unwrap_or_else(|| format!("{path}.hybrid"));
    if args.value("good").is_some() != args.value("bad").is_some() {
        return Err("verification needs both --good and --bad".to_owned());
    }
    if args.value("model").is_some() && args.value("good").is_none() {
        return Err("--model only applies to verification; pass --good and --bad too".to_owned());
    }
    if let (Some(good), Some(bad)) = (args.value("good"), args.value("bad")) {
        let model = model_by_name(args.value("model").unwrap_or("skip"))?;
        let verified = rr_core::harden_hybrid_verified(
            &exe,
            good.as_bytes(),
            bad.as_bytes(),
            model.as_ref(),
            &config,
        )
        .map_err(|e| e.to_string())?;
        save_exe(&verified.hybrid.hardened, &out_path)?;
        return Ok(format!(
            "hybrid: {} branch(es) protected, IR ops {} → {}, overhead {:+.2}%\n\
             verification (stride {}): {}\nwrote `{out_path}`\n",
            verified.hybrid.report.protected_branches,
            verified.hybrid.ir_ops_before,
            verified.hybrid.ir_ops_after,
            verified.hybrid.overhead_percent(),
            verified.stride,
            verified.residual,
        ));
    }
    let outcome = rr_core::harden_hybrid(&exe, &config).map_err(|e| e.to_string())?;
    save_exe(&outcome.hardened, &out_path)?;
    Ok(format!(
        "hybrid: {} branch(es) protected, IR ops {} → {}, overhead {:+.2}%\nwrote `{out_path}`\n",
        outcome.report.protected_branches,
        outcome.ir_ops_before,
        outcome.ir_ops_after,
        outcome.overhead_percent()
    ))
}

/// `rr workload <name> [-o out.rfx] [--emit-asm]`
pub fn workload(raw: &[String]) -> Result<String, String> {
    let args = Args::parse(raw, &["o"], &["emit-asm"])?;
    let name = args.positional(0, "workload name")?;
    let w = rr_workloads::all_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}` (pincheck|bootloader|otp|access)"))?;
    if args.flag("emit-asm") {
        return Ok(w.source.clone());
    }
    let exe = w.build().map_err(|e| e.to_string())?;
    let out_path = args.value("o").map(str::to_owned).unwrap_or_else(|| format!("{name}.rfx"));
    save_exe(&exe, &out_path)?;
    Ok(format!(
        "wrote `{out_path}` — {}\ngood input: {:?}  bad input: {:?}\n",
        w.description,
        String::from_utf8_lossy(&w.good_input),
        String::from_utf8_lossy(&w.bad_input)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("rr-cli-tests");
        let _ = fs::create_dir_all(&dir);
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Pincheck with segment 0's `mem_size` (file bytes 24..32) set to
    /// 2^46, and with the segment count (bytes 12..16) set to
    /// `0x8000_0003`: `rr run` reports a typed error naming the problem
    /// instead of aborting on the allocation either would size.
    #[test]
    fn crafted_executables_fail_with_a_typed_error() {
        let path = tmp("crafted-pincheck.rfx");
        workload(&sv(&["pincheck", "-o", &path])).unwrap();
        let bytes = fs::read(&path).unwrap();
        let cases: [(&str, usize, &[u8], &str); 2] = [
            ("crafted-mem-size.rfx", 24, &(1u64 << 46).to_le_bytes(), "segment 0 at 0x1000"),
            ("crafted-nsegs.rfx", 12, &0x8000_0003u32.to_le_bytes(), "2147483651 segment entries"),
        ];
        for (name, offset, patch, problem) in cases {
            let mut crafted = bytes.clone();
            crafted[offset..offset + patch.len()].copy_from_slice(patch);
            let path = tmp(name);
            fs::write(&path, &crafted).unwrap();
            let err = run(&sv(&[&path])).unwrap_err();
            assert!(err.contains("is not a valid executable") && err.contains(problem), "{err}");
        }
    }

    #[test]
    fn full_cli_workflow() {
        // workload → run → fault → harden → fault (clean) → disasm.
        let exe_path = tmp("pincheck.rfx");
        let out = workload(&sv(&["pincheck", "-o", &exe_path])).unwrap();
        assert!(out.contains("pincheck.rfx"));

        let out = run(&sv(&[&exe_path, "--input", "7391"])).unwrap();
        assert!(out.contains("ACCESS GRANTED"), "{out}");
        let out = run(&sv(&[&exe_path, "--input", "0000"])).unwrap();
        assert!(out.contains("ACCESS DENIED"), "{out}");

        let out = fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291"])).unwrap();
        assert!(out.contains("vulnerable program points:"), "{out}");

        let hardened_path = tmp("pincheck.hardened.rfx");
        let out =
            harden(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "-o", &hardened_path]))
                .unwrap();
        assert!(out.contains("fixed point: true"), "{out}");

        let out = fault(&sv(&[&hardened_path, "--good", "7391", "--bad", "7291"])).unwrap();
        assert!(out.contains("no vulnerable program points"), "{out}");

        let out = disasm(&sv(&[&hardened_path])).unwrap();
        assert!(out.contains("__rr_faulthandler"), "{out}");
    }

    #[test]
    fn asm_and_run_round_trip() {
        let src_path = tmp("hello.s");
        fs::write(
            &src_path,
            "    .global _start\n_start:\n    mov r1, 'H'\n    svc 1\n    mov r1, 0\n    svc 0\n",
        )
        .unwrap();
        let exe_path = tmp("hello.rfx");
        asm(&sv(&[&src_path, "-o", &exe_path])).unwrap();
        let out = run(&sv(&[&exe_path])).unwrap();
        assert!(out.starts_with('H'), "{out}");
        assert!(out.contains("exited with code 0"), "{out}");
    }

    #[test]
    fn fault_engines_agree_and_bad_engine_errors() {
        let exe_path = tmp("engine.rfx");
        workload(&sv(&["pincheck", "-o", &exe_path])).unwrap();
        let naive =
            fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "--engine", "naive"]))
                .unwrap();
        let checkpointed =
            fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "--engine", "checkpoint"]))
                .unwrap();
        // Identical classifications → identical report bodies, modulo the
        // engine name in the header and the per-engine memory line.
        let strip = |s: &str| s.lines().skip(2).collect::<Vec<_>>().join("\n");
        assert_eq!(strip(&naive), strip(&checkpointed));
        assert!(naive.contains("engine naive"), "{naive}");
        assert!(checkpointed.contains("engine checkpoint"), "{checkpointed}");
        // Both surface the checkpoint memory footprint; the naive hint
        // records no snapshots, so it retains nothing.
        assert!(naive.contains("memory: 1 checkpoints"), "{naive}");
        assert!(checkpointed.contains("memory: "), "{checkpointed}");
        assert!(checkpointed.contains("region-COW"), "{checkpointed}");
        assert!(fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "--engine", "laser",]))
            .is_err());
        // Execution mode is a pure speed knob: interp and uops produce
        // byte-identical reports, and an unknown mode errors.
        let interp =
            fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "--exec", "interp"]))
                .unwrap();
        let uops =
            fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "--exec", "uops"])).unwrap();
        assert_eq!(interp, uops);
        assert_eq!(uops, checkpointed, "uops is the default");
        assert!(
            fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "--exec", "jit"])).is_err()
        );
        // A half-specified verification pair must error, not silently
        // skip verification, and --model without the pair is meaningless.
        assert!(hybrid(&sv(&[&exe_path, "--good", "7391"])).is_err());
        assert!(hybrid(&sv(&[&exe_path, "--bad", "7291"])).is_err());
        assert!(hybrid(&sv(&[&exe_path, "--model", "bitflip"])).is_err());
    }

    #[test]
    fn fault_and_harden_reject_retired_and_undeclared_options() {
        let exe_path = tmp("options.rfx");
        workload(&sv(&["pincheck", "-o", &exe_path])).unwrap();
        let out_path = tmp("options.hardened.rfx");
        // The retired optimizer level, blocks mode, and shard policy, a
        // typo of a boolean flag, and an option no command declares: each
        // is an error that names the option, never silently ignored. The
        // retired option is spelled in two parts so that searching the
        // tree for it finds no live use.
        let retired = concat!("--uop", "-opt");
        for (extra, named) in [
            (&[retired, "none"][..], retired),
            (&["--exec", "blocks"][..], "--exec"),
            (&["--shard", "interleaved"][..], "--shard"),
            (&["--no-static-prun"][..], "--no-static-prun"),
            (&["--bogus-opt", "none"][..], "--bogus-opt"),
        ] {
            let base = [&exe_path[..], "--good", "7391", "--bad", "7291", "-o", &out_path];
            let harden_args: Vec<&str> =
                base.iter().copied().chain(extra.iter().copied()).collect();
            let fault_args: Vec<&str> =
                base[..5].iter().copied().chain(extra.iter().copied()).collect();
            for (command, result) in
                [("fault", fault(&sv(&fault_args))), ("harden", harden(&sv(&harden_args)))]
            {
                let err = result.expect_err(&format!("{command} {extra:?} must fail"));
                assert!(err.contains(named), "{command} {extra:?}: {err}");
            }
        }
    }

    #[test]
    fn incremental_harden_is_default_and_matches_the_full_baseline() {
        let exe_path = tmp("incr.rfx");
        workload(&sv(&["pincheck", "-o", &exe_path])).unwrap();
        let full_out = tmp("incr-full.rfx");
        let incr_out = tmp("incr-incr.rfx");
        // Incremental is the default; --no-incremental is the escape
        // hatch back to full re-campaigning.
        let full = harden(&sv(&[
            &exe_path,
            "--good",
            "7391",
            "--bad",
            "7291",
            "--no-incremental",
            "-o",
            &full_out,
        ]))
        .unwrap();
        let incremental =
            harden(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "-o", &incr_out])).unwrap();
        // Identical hardening (same iterations, same binary), plus a
        // reuse: line only in (default) incremental mode.
        assert!(incremental.contains("reuse: "), "{incremental}");
        assert!(incremental.contains("% of fault evaluations reused"), "{incremental}");
        assert!(!full.contains("reuse: "), "{full}");
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("reuse: ") && !l.contains("wrote "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&full), strip(&incremental));
        assert_eq!(fs::read(&full_out).unwrap(), fs::read(&incr_out).unwrap());
    }

    #[test]
    fn multi_fault_flags_flow_through_fault_and_harden() {
        let exe_path = tmp("order2.rfx");
        workload(&sv(&["pincheck", "-o", &exe_path])).unwrap();
        // An order-2 campaign echoes the plan space (with its seed) and
        // splits the report by order.
        let out = fault(&sv(&[
            &exe_path,
            "--good",
            "7391",
            "--bad",
            "7291",
            "--order",
            "2",
            "--pair-window",
            "6",
            "--seed",
            "42",
        ]))
        .unwrap();
        assert!(out.contains("plan: order ≤2"), "{out}");
        assert!(out.contains("window ≤6 steps"), "{out}");
        assert!(out.contains("seed 42"), "{out}");
        assert!(out.contains("order 1: "), "{out}");
        assert!(out.contains("order 2: "), "{out}");
        // Same campaign, same seed → identical output (reproducibility
        // is the point of surfacing the seed).
        let again = fault(&sv(&[
            &exe_path,
            "--good",
            "7391",
            "--bad",
            "7291",
            "--order",
            "2",
            "--pair-window",
            "6",
            "--seed",
            "42",
        ]))
        .unwrap();
        assert_eq!(out, again);
        // An order-1 report stays in the classic format.
        let plain = fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291"])).unwrap();
        assert!(!plain.contains("plan: "), "{plain}");
        // Bad values are rejected.
        for bad_args in [
            vec![&exe_path[..], "--good", "7391", "--bad", "7291", "--order", "0"],
            vec![&exe_path[..], "--good", "7391", "--bad", "7291", "--order", "x"],
            vec![&exe_path[..], "--good", "7391", "--bad", "7291", "--pair-window", "x"],
            vec![&exe_path[..], "--good", "7391", "--bad", "7291", "--seed", "x"],
            vec![&exe_path[..], "--good", "7391", "--bad", "7291", "--plan-budget", "x"],
        ] {
            assert!(fault(&sv(&bad_args)).is_err(), "{bad_args:?}");
        }
        // Orders whose plan space overflows a 128-bit count are errors
        // naming the option, for skips at session build and for bit
        // flips (8 × len faults per site) before the run.
        for (order, model) in [("48", "skip"), ("148", "skip"), ("20", "bitflip")] {
            let args = [&exe_path[..], "--good", "7391", "--bad", "7291", "--order", order];
            let err = fault(&sv(&[&args[..], &["--plan-budget", "10", "--model", model]].concat()))
                .unwrap_err();
            assert!(err.starts_with("--order: ") && err.contains("plan space"), "{err}");
            let hardened = tmp("overflow.hardened.rfx");
            let err = harden(&sv(&[&args[..], &["--model", model, "-o", &hardened]].concat()))
                .unwrap_err();
            assert!(err.starts_with("--order: "), "{err}");
        }
        // The harden loop accepts the same flags and reports per-order
        // residuals.
        let hardened_path = tmp("order2.hardened.rfx");
        let out = harden(&sv(&[
            &exe_path,
            "--good",
            "7391",
            "--bad",
            "7291",
            "--order",
            "2",
            "--pair-window",
            "6",
            "-o",
            &hardened_path,
        ]))
        .unwrap();
        assert!(out.contains("plan: order ≤2"), "{out}");
        assert!(out.contains("residual by order: order 1: "), "{out}");
    }

    #[test]
    fn streaming_mode_prints_summary_without_report() {
        let exe_path = tmp("streaming.rfx");
        workload(&sv(&["pincheck", "-o", &exe_path])).unwrap();
        let full = fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291"])).unwrap();
        for engine in ["naive", "checkpoint"] {
            let streamed = fault(&sv(&[
                &exe_path,
                "--good",
                "7391",
                "--bad",
                "7291",
                "--engine",
                engine,
                "--streaming",
            ]))
            .unwrap();
            assert!(streamed.contains("streaming"), "{streamed}");
            assert!(!streamed.contains("vulnerable"), "no per-pc list: {streamed}");
            // The streamed summary line matches the materialized run's.
            let summary_of =
                |s: &str| s.lines().next().unwrap().split(": ").nth(1).map(str::to_owned);
            assert_eq!(summary_of(&streamed), summary_of(&full), "{engine}");
        }
    }

    #[test]
    fn oracles_and_multi_models() {
        let exe_path = tmp("session.rfx");
        workload(&sv(&["pincheck", "-o", &exe_path])).unwrap();
        // Oracle-driven campaigns need no --good…
        let crash =
            fault(&sv(&[&exe_path, "--bad", "7291", "--oracle", "crash", "--model", "bitflip"]))
                .unwrap();
        assert!(crash.contains("no vulnerable program points"), "{crash}");
        let prefix =
            fault(&sv(&[&exe_path, "--bad", "7291", "--oracle", "prefix:ACCESS GRANTED"])).unwrap();
        assert!(prefix.contains("vulnerable program points:"), "{prefix}");
        assert!(fault(&sv(&[&exe_path, "--bad", "7291", "--oracle", "psychic"])).is_err());
        // …but the default golden oracle still requires it.
        assert!(fault(&sv(&[&exe_path, "--bad", "7291"])).is_err());

        // Comma-separated models share one session and print one block
        // each.
        let multi =
            fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "--model", "skip,flagflip"]))
                .unwrap();
        assert!(multi.contains("model `instruction-skip`"), "{multi}");
        assert!(multi.contains("model `flag-flip`"), "{multi}");
        assert!(fault(&sv(&[
            &exe_path,
            "--good",
            "7391",
            "--bad",
            "7291",
            "--model",
            "skip,nope"
        ]))
        .is_err());
        // Degenerate inputs are rejected, not silently no-oped: a model
        // list naming nothing, and an empty goal prefix (which would
        // classify every fault as a success).
        assert!(
            fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "--model", ","])).is_err()
        );
        assert!(fault(&sv(&[&exe_path, "--bad", "7291", "--oracle", "prefix:"])).is_err());
    }

    #[test]
    fn analyze_reports_spofs_and_prunable_effects() {
        let exe_path = tmp("analyze.rfx");
        workload(&sv(&["pincheck", "-o", &exe_path])).unwrap();
        let table = analyze(&sv(&[&exe_path])).unwrap();
        assert!(table.contains("unprotected compare/branch SPOFs:"), "{table}");
        assert!(table.contains("prunable"), "{table}");
        let json = analyze(&sv(&[&exe_path, "--json"])).unwrap();
        assert!(json.contains("\"schema\": \"rr-analyze-v1\""), "{json}");
        assert!(json.contains("\"total_unprotected_spofs\""), "{json}");
        assert!(analyze(&sv(&["/nonexistent/x.rfx"])).is_err());
    }

    #[test]
    fn static_pruning_flags_flow_through_fault_and_harden() {
        let exe_path = tmp("prune.rfx");
        workload(&sv(&["pincheck", "-o", &exe_path])).unwrap();
        let base =
            fault(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "--model", "bitflip"]))
                .unwrap();
        assert!(base.contains("pruned: "), "default-on pruning reports its work: {base}");
        let unpruned = fault(&sv(&[
            &exe_path,
            "--good",
            "7391",
            "--bad",
            "7291",
            "--model",
            "bitflip",
            "--no-static-prune",
        ]))
        .unwrap();
        assert!(!unpruned.contains("pruned: "), "{unpruned}");
        // Pruning must not change the campaign's findings.
        let pcs = |s: &str| {
            s.lines().skip_while(|l| !l.contains("vulnerable")).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(pcs(&base), pcs(&unpruned));
        // Audit mode executes the statically-benign plans anyway and
        // reports a clean cross-check (an unsound analysis would error).
        let audited = fault(&sv(&[
            &exe_path,
            "--good",
            "7391",
            "--bad",
            "7291",
            "--model",
            "bitflip",
            "--audit-analysis",
        ]))
        .unwrap();
        assert!(audited.contains("audit: "), "{audited}");
        assert!(!audited.contains("pruned: "), "audit implies no pruning: {audited}");
        assert_eq!(pcs(&audited), pcs(&base));
        // Hardening with and without pruning emits bit-identical output:
        // pruning only ever removes plans that cannot be successes.
        let pruned_out = tmp("prune.hardened.rfx");
        let full_out = tmp("prune-full.hardened.rfx");
        harden(&sv(&[&exe_path, "--good", "7391", "--bad", "7291", "-o", &pruned_out])).unwrap();
        harden(&sv(&[
            &exe_path,
            "--good",
            "7391",
            "--bad",
            "7291",
            "--no-static-prune",
            "-o",
            &full_out,
        ]))
        .unwrap();
        assert_eq!(fs::read(&pruned_out).unwrap(), fs::read(&full_out).unwrap());
    }

    #[test]
    fn workload_emit_asm() {
        let out = workload(&sv(&["otp", "--emit-asm"])).unwrap();
        assert!(out.contains("_start"));
        assert!(out.contains("otp_secret"));
    }

    #[test]
    fn error_paths() {
        assert!(load_exe("/nonexistent/x.rfx").is_err());
        assert!(model_by_name("laser").is_err());
        assert!(workload(&sv(&["nope"])).is_err());
        assert!(fault(&sv(&["/nonexistent"])).is_err());
        let exe_path = tmp("w.rfx");
        workload(&sv(&["otp", "-o", &exe_path])).unwrap();
        // Missing --bad.
        assert!(fault(&sv(&[&exe_path, "--good", "492816"])).is_err());
    }

    #[test]
    fn disasm_policy_flag() {
        let exe_path = tmp("b.rfx");
        workload(&sv(&["bootloader", "-o", &exe_path])).unwrap();
        let refined = disasm(&sv(&[&exe_path, "--policy", "refined"])).unwrap();
        let naive = disasm(&sv(&[&exe_path, "--policy", "naive"])).unwrap();
        assert!(refined.contains(".text") && naive.contains(".text"));
        assert!(disasm(&sv(&[&exe_path, "--policy", "psychic"])).is_err());
    }
}
