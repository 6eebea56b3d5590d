//! The Faulter+Patcher loop, step for step as `FaulterPatcher::harden`
//! runs it, with every call into another crate timed from outside.
//!
//! `harden` makes its disassembly, patch, relink, soundness-check and
//! listing-delta calls internally, where no harness timer can reach. The
//! traced run therefore drives the same public functions in the same
//! order through this copy of the loop. Its outputs are checked against
//! the same reference as `harden`'s, so a drift between the two shows up
//! as an error in the traced run.

use crate::ops::Hardened;
use crate::probe::{Probe, Section};
use rr_disasm::ListingDelta;
use rr_emu::{execute, Execution};
use rr_fault::{
    CampaignConfig, CampaignReport, CampaignSeed, CampaignSession, Collect, FaultClass, FaultModel,
    PairPolicy, PlanConfig,
};
use rr_obj::Executable;
use rr_patch::{apply_patterns, HardenConfig, HardenError};
use std::sync::Arc;

/// Golden state and the incremental carry, shared by the loop's
/// sessions.
struct Carry {
    good: Arc<[u8]>,
    bad: Arc<[u8]>,
    golden_good: Option<Execution>,
    golden_bad: Option<Execution>,
    campaigns: usize,
    /// The last session's classifications, the delta to the binary they
    /// now target, and that binary's text.
    seed: Option<(CampaignSeed, ListingDelta, Vec<u8>)>,
}

/// The session configuration `FaulterPatcher` derives from its
/// `HardenConfig`.
fn campaign_config(config: &HardenConfig) -> CampaignConfig {
    let mut campaign = config.campaign.clone();
    if !config.parallel {
        campaign.threads = 1;
    }
    campaign.engine = config.engine;
    campaign.plan = PlanConfig {
        order: config.fault_order.max(1),
        policy: match config.pair_window {
            Some(max_gap) => PairPolicy::WithinWindow { max_gap },
            None => PairPolicy::Pairs,
        },
        budget: config.plan_budget,
        seed: config.sample_seed,
    };
    campaign
}

fn campaign(
    config: &HardenConfig,
    exe: &Executable,
    carry: &mut Carry,
    model: &dyn FaultModel,
    probe: &mut Probe,
) -> Result<CampaignReport, HardenError> {
    let mut builder = CampaignSession::builder(exe.clone())
        .good_input(carry.good.clone())
        .bad_input(carry.bad.clone())
        .config(campaign_config(config))
        .telemetry(config.telemetry.clone());
    if let Some(golden) = carry.golden_good.clone() {
        builder = builder.golden_good(golden);
    }
    if let Some((seed, delta, text)) = carry.seed.take() {
        if text == exe.text_bytes() {
            builder = builder.seed_from(seed, &delta);
        }
    }
    let session = probe.time(Section::SessionBuild, || builder.build())?;
    carry.campaigns += 1;
    carry.golden_good = session.golden_good().cloned();
    if carry.golden_bad.is_none() {
        carry.golden_bad = Some(session.golden_bad().clone());
    }
    let report = probe
        .time(Section::CampaignRun, || session.run(&[model], Collect))
        .pop()
        .expect("one model in, one report out");
    probe.session(&session, &[model], report.count(FaultClass::TimedOut) as u64);
    if config.incremental {
        let seed = probe.time(Section::SessionSeed, || session.seed(std::slice::from_ref(&report)));
        carry.seed = Some((seed, ListingDelta::identity(), exe.text_bytes().to_vec()));
    }
    Ok(report)
}

/// Hardens `exe` exactly as `FaulterPatcher::new(config).harden(..)`
/// does, timing each call through `probe`.
///
/// # Errors
///
/// The same [`HardenError`]s `harden` reports.
pub fn harden(
    config: &HardenConfig,
    exe: &Executable,
    good_input: &[u8],
    bad_input: &[u8],
    model: &dyn FaultModel,
    probe: &mut Probe,
) -> Result<Hardened, HardenError> {
    let mut carry = Carry {
        good: good_input.into(),
        bad: bad_input.into(),
        golden_good: None,
        golden_bad: None,
        campaigns: 0,
        seed: None,
    };
    let golden_max_steps = config.campaign.golden_max_steps;
    let mut current = exe.clone();
    let mut iterations = 0;
    let mut sites_patched = 0;
    let mut fixed_point = false;
    let mut best: Option<(Executable, usize)> = None;

    for iteration in 0..config.max_iterations {
        let report = campaign(config, &current, &mut carry, model, probe)?;
        let golden_good = carry.golden_good.clone().expect("golden-pair session ran");
        let golden_bad = carry.golden_bad.clone().expect("golden-pair session ran");
        let vulnerable = report.vulnerable_pcs();
        if iteration > 0 && best.as_ref().is_none_or(|(_, s)| vulnerable.len() < *s) {
            best = Some((current.clone(), vulnerable.len()));
        }
        if vulnerable.is_empty() {
            fixed_point = true;
            break;
        }

        let disasm =
            probe.time(Section::Disasm, || rr_disasm::disassemble_with(&current, config.policy))?;
        let pre_patch = if config.incremental { Some(disasm.listing.clone()) } else { None };
        let mut listing = disasm.listing;
        let stats = probe.time(Section::PatchApply, || apply_patterns(&mut listing, &vulnerable));
        let made_progress = !stats.patched.is_empty();
        let rebuilt =
            probe.time(Section::Relink, || rr_asm::assemble_and_link(&listing.to_source()))?;

        let (good_now, bad_now) = probe.time(Section::GoldenExec, || {
            (
                execute(&rebuilt, good_input, golden_max_steps),
                execute(&rebuilt, bad_input, golden_max_steps),
            )
        });
        if !good_now.same_behavior(&golden_good) || !bad_now.same_behavior(&golden_bad) {
            return Err(HardenError::BehaviorChanged { iteration });
        }

        if let (Some(pre_patch), Some((_, delta, text))) = (pre_patch, carry.seed.as_mut()) {
            match probe.time(Section::Delta, || {
                ListingDelta::compute(&pre_patch, &current, &listing, &rebuilt)
            }) {
                Ok(computed) => {
                    *delta = computed;
                    *text = rebuilt.text_bytes().to_vec();
                }
                Err(_) => carry.seed = None,
            }
        }

        iterations += 1;
        sites_patched += stats.patched_count();
        probe.facts.sites_patched += stats.patched_count() as u64;
        current = rebuilt;
        if !made_progress {
            break;
        }
    }

    let order = config.fault_order.max(1);
    let (hardened, residual_by_order) = if fixed_point {
        (current, vec![0; order])
    } else {
        let report = campaign(config, &current, &mut carry, model, probe)?;
        let final_sites = report.vulnerable_pcs().len();
        if best.as_ref().is_none_or(|(_, s)| final_sites < *s) {
            best = Some((current, final_sites));
        }
        let (hardened, sites) = best.expect("at least the final binary is a candidate");
        let report = campaign(config, &hardened, &mut carry, model, probe)?;
        fixed_point = sites == 0;
        let by_order = (1..=order).map(|k| report.successes_of_order(k)).collect();
        (hardened, by_order)
    };

    Ok(Hardened {
        hardened,
        iterations,
        sites_patched,
        campaigns: carry.campaigns,
        fixed_point,
        residual_by_order,
    })
}
