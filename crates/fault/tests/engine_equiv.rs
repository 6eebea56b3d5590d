//! Engine equivalence: the checkpointed campaign engine must classify
//! every fault exactly like the naive reference engine, for every fault
//! model, on every case-study workload.
//!
//! This is the determinism contract the whole optimisation rests on:
//! restoring a snapshot and stepping forward is indistinguishable from
//! replaying from step 0. Any divergence here is a bug in
//! snapshot/restore (missed state) or in the replay engine (wrong
//! checkpoint selection), and would silently corrupt campaign results —
//! so the comparison is on full reports (fault-by-fault classes), not
//! just summaries.
//!
//! With the session API the engine is a construction-time property
//! ([`CampaignConfig::engine`]), so "naive vs checkpointed" means two
//! independently built [`CampaignSession`]s over the same workload —
//! exactly how a consumer would switch engines.

use rr_fault::{
    CampaignConfig, CampaignEngine, CampaignReport, CampaignSession, Collect, Fault, FaultClass,
    FaultEffect, FaultModel, FaultSite, FlagFlip, InstructionSkip, RegisterBitFlip, SingleBitFlip,
    Stream,
};
use rr_telemetry::{Counter, Telemetry};
use rr_workloads::Workload;

fn workloads() -> Vec<Workload> {
    vec![rr_workloads::pincheck(), rr_workloads::otp_check(), rr_workloads::bootloader()]
}

fn models() -> Vec<(&'static str, Box<dyn FaultModel>)> {
    vec![
        ("skip", Box::new(InstructionSkip)),
        ("bitflip", Box::new(SingleBitFlip)),
        ("flagflip", Box::new(FlagFlip)),
        // Two registers × four bits keeps the extension model tractable
        // while still exercising the register-restore path.
        (
            "regflip",
            Box::new(RegisterBitFlip {
                regs: vec![rr_isa_reg(0), rr_isa_reg(1)],
                bits: vec![0, 1, 31, 63],
            }),
        ),
    ]
}

fn rr_isa_reg(index: u8) -> rr_isa::Reg {
    rr_isa::Reg::from_index(index)
}

fn session(w: &Workload, config: CampaignConfig) -> CampaignSession {
    CampaignSession::builder(w.build().unwrap_or_else(|e| panic!("{}: build failed: {e}", w.name)))
        .good_input(&w.good_input[..])
        .bad_input(&w.bad_input[..])
        .config(config)
        .build()
        .unwrap_or_else(|e| panic!("{}: session setup failed: {e}", w.name))
}

fn run_one(s: &CampaignSession, model: &dyn FaultModel) -> CampaignReport {
    s.run(&[model], Collect).pop().expect("one report per model")
}

/// Strides per workload keep the heavier models (bit flips enumerate
/// 8 × len faults per site) inside a sensible test budget without losing
/// coverage of every fault-effect kind.
fn config_for(workload: &str, model: &str) -> CampaignConfig {
    let site_stride = match (workload, model) {
        ("pincheck", _) => 1, // short trace: fully exhaustive
        (_, "bitflip") => 7,
        _ => 3,
    };
    CampaignConfig { site_stride, ..CampaignConfig::default() }
}

#[test]
fn checkpointed_matches_naive_for_every_model_and_workload() {
    for w in workloads() {
        for (model_name, model) in models() {
            let config = config_for(w.name, model_name);
            let naive = run_one(
                &session(&w, CampaignConfig { engine: CampaignEngine::Naive, ..config.clone() }),
                model.as_ref(),
            );
            let checkpointed = run_one(
                &session(&w, CampaignConfig { engine: CampaignEngine::Checkpointed, ..config }),
                model.as_ref(),
            );
            assert_eq!(
                naive.results.len(),
                checkpointed.results.len(),
                "{}/{model_name}: fault counts differ",
                w.name
            );
            for (n, c) in naive.results.iter().zip(&checkpointed.results) {
                assert_eq!(
                    n,
                    c,
                    "{}/{model_name}: classification diverged at step {} pc {:#x}",
                    w.name,
                    n.fault().step,
                    n.fault().pc
                );
            }
            // Per-class counts agree as a consequence; assert anyway so a
            // failure names the class.
            for class in FaultClass::ALL {
                assert_eq!(
                    naive.count(class),
                    checkpointed.count(class),
                    "{}/{model_name}: {class} count differs",
                    w.name
                );
            }
            assert_eq!(naive.summary().diverged, 0, "{}/{model_name}", w.name);
        }
    }
}

#[test]
fn scheduling_is_invisible_in_reports() {
    // Thread counts are pure scheduling: reports stay bit-identical, in
    // site order, at every count.
    for w in workloads() {
        let serial = run_one(
            &session(
                &w,
                CampaignConfig { threads: 1, site_stride: 2, ..CampaignConfig::default() },
            ),
            &InstructionSkip,
        );
        for threads in [2, 5] {
            let config = CampaignConfig { threads, site_stride: 2, ..CampaignConfig::default() };
            let parallel = run_one(&session(&w, config), &InstructionSkip);
            assert_eq!(serial.results, parallel.results, "{} threads={threads}", w.name);
        }
    }
}

#[test]
fn streaming_summaries_match_reports_on_all_workloads() {
    for w in workloads() {
        for engine in [CampaignEngine::Naive, CampaignEngine::Checkpointed] {
            let s =
                session(&w, CampaignConfig { engine, site_stride: 4, ..CampaignConfig::default() });
            let expected = run_one(&s, &InstructionSkip).summary();
            let streamed = s.run(&[&InstructionSkip as &dyn FaultModel], Stream);
            assert_eq!(streamed[0].summary, expected, "{} via {engine}", w.name);
        }
    }
}

/// The paged-memory retention knobs are pure memory/performance
/// controls: squeezing the checkpoint byte budget (forcing interval
/// widening and checkpoint thinning) or building the session naive
/// (skipping snapshot recording entirely) must never change a single
/// classification.
#[test]
fn byte_budgets_and_engine_choice_do_not_change_results() {
    for w in [rr_workloads::pincheck(), rr_workloads::otp_check()] {
        let baseline = run_one(&session(&w, CampaignConfig::default()), &InstructionSkip);
        // Byte budgets from generous down to pathological (one page).
        for budget in [16 << 20, 64 << 10, 4096] {
            let config = CampaignConfig { max_retained_bytes: budget, ..CampaignConfig::default() };
            let s = session(&w, config);
            let report = run_one(&s, &InstructionSkip);
            assert_eq!(report.results, baseline.results, "{} budget={budget}", w.name);
            assert!(
                s.replay_footprint().retained_bytes <= budget,
                "{}: footprint over budget {budget}",
                w.name
            );
        }
        // A naive session records nothing and still classifies
        // identically, via both sinks.
        let config = CampaignConfig { engine: CampaignEngine::Naive, ..CampaignConfig::default() };
        let naive = session(&w, config);
        assert_eq!(naive.replay_footprint().checkpoints, 1, "{}", w.name);
        assert_eq!(run_one(&naive, &InstructionSkip).results, baseline.results);
        assert_eq!(
            naive.run(&[&InstructionSkip as &dyn FaultModel], Stream)[0].summary,
            baseline.summary(),
            "{}",
            w.name
        );
    }
}

#[test]
fn one_pass_multi_model_runs_match_independent_runs() {
    // All models handed to one `run` call share a single scheduling pass;
    // the reports must still equal independently evaluated ones, engine
    // by engine.
    let w = rr_workloads::otp_check();
    for engine in [CampaignEngine::Naive, CampaignEngine::Checkpointed] {
        let s = session(&w, CampaignConfig { engine, site_stride: 3, ..CampaignConfig::default() });
        let boxed = models();
        let refs: Vec<&dyn FaultModel> = boxed.iter().map(|(_, m)| m.as_ref()).collect();
        let combined = s.run(&refs, Collect);
        assert_eq!(combined.len(), refs.len());
        for ((name, model), combined_report) in boxed.iter().zip(&combined) {
            let solo = run_one(&s, model.as_ref());
            assert_eq!(combined_report.results, solo.results, "{name} via {engine}");
        }
    }
}

/// Instruction skips restricted to trace steps at or after `from_step`:
/// the attacker aims at the decision, not the warm-up.
struct TailSkip {
    from_step: u64,
}

impl FaultModel for TailSkip {
    fn name(&self) -> &'static str {
        "tail-skip"
    }

    fn faults_at(&self, site: &FaultSite) -> Vec<Fault> {
        if site.step < self.from_step {
            return Vec::new();
        }
        vec![Fault { step: site.step, pc: site.pc, effect: FaultEffect::SkipInstruction }]
    }
}

/// A 3,000-iteration checksum loop (≈15k trace steps) ahead of a
/// one-compare grant/deny decision.
fn long_checksum_session(engine: CampaignEngine) -> CampaignSession {
    let exe = rr_asm::assemble_and_link(
        "    .global _start\n\
         _start:\n\
             mov r1, 3000\n\
             mov r2, 0\n\
         .loop:\n\
             add r2, 7\n\
             xor r2, r1\n\
             sub r1, 1\n\
             cmp r1, 0\n\
             jne .loop\n\
             svc 2\n\
             cmp r0, 'G'\n\
             jne .deny\n\
             mov r1, 'Y'\n\
             svc 1\n\
             mov r1, 0\n\
             svc 0\n\
         .deny:\n\
             mov r1, 'N'\n\
             svc 1\n\
             mov r1, 1\n\
             svc 0\n",
    )
    .expect("checksum program builds");
    CampaignSession::builder(exe)
        .good_input(&b"G"[..])
        .bad_input(&b"B"[..])
        .config(CampaignConfig { engine, threads: 1, ..CampaignConfig::default() })
        .telemetry(Telemetry::counters())
        .build()
        .expect("session sets up")
}

/// What the checkpointed engine saves, as exact counts: on a campaign
/// aimed at the last 16 steps of a long trace, the naive engine replays
/// the whole prefix for every plan while the checkpointed one restores
/// the nearest checkpoint once per bucket sweep and walks from there.
#[test]
fn checkpointed_engine_executes_a_fraction_of_naive_steps_on_a_tail_campaign() {
    // The report and the work of one campaign, from the metrics delta
    // around it (the golden recording at session build is not counted).
    let run = |engine| {
        let session = long_checksum_session(engine);
        let trace_len = session.golden_bad().steps;
        assert!(trace_len >= 10_000, "trace must be ≥10k steps, got {trace_len}");
        let before = session.metrics().expect("counters telemetry is enabled");
        let report = run_one(&session, &TailSkip { from_step: trace_len - 16 });
        let work = session.metrics().expect("counters telemetry is enabled").delta_since(&before);
        let steps = work.counter(Counter::UopSteps) + work.counter(Counter::InterpSteps);
        (report, steps, work)
    };
    let (naive, naive_steps, _) = run(CampaignEngine::Naive);
    let (checkpointed, checkpointed_steps, work) = run(CampaignEngine::Checkpointed);
    assert_eq!(naive.results, checkpointed.results, "engines must classify identically");
    assert_eq!(naive.results.len(), 16, "one skip per tail step");
    assert!(
        naive_steps >= 14 * checkpointed_steps,
        "naive {naive_steps} steps vs checkpointed {checkpointed_steps}"
    );
    let (restores, sweeps) =
        (work.counter(Counter::CheckpointRestores), work.counter(Counter::BucketSweeps));
    assert!(sweeps > 0 && restores == sweeps, "{restores} restores over {sweeps} bucket sweeps");
}
