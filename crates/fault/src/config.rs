//! Campaign tunables: engine choice, scheduling, step budgets, and the
//! multi-fault plan space.

use crate::model::PlanConfig;
use rr_engine::ReplayConfig;
use std::fmt;
use std::str::FromStr;

/// Which execution engine a session evaluates faults with.
///
/// The choice is made **once, at session construction**: a
/// [`Checkpointed`](CampaignEngine::Checkpointed) session records
/// `rr-engine` snapshots along the golden bad-input pass and sweeps each
/// checkpoint's neighbourhood of plans from one restore; a
/// [`Naive`](CampaignEngine::Naive) session records no snapshots (paying
/// no checkpoint memory) and replays every fault from step 0. There is no way to ask a naive session for a
/// checkpointed evaluation afterwards — the old API let that combination
/// silently degrade to replay-from-zero; the session API makes it
/// unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CampaignEngine {
    /// Replay from step 0 for every fault (the reference implementation).
    Naive,
    /// Restore the recorded checkpoint preceding a neighbourhood of
    /// plans once, then walk forward through it, cloning the machine at
    /// each plan's injection point (bit-identical results, ~√T of the
    /// naive replay cost per fault).
    #[default]
    Checkpointed,
}

impl fmt::Display for CampaignEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CampaignEngine::Naive => "naive",
            CampaignEngine::Checkpointed => "checkpoint",
        })
    }
}

impl FromStr for CampaignEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "naive" => Ok(CampaignEngine::Naive),
            "checkpoint" | "checkpointed" => Ok(CampaignEngine::Checkpointed),
            other => Err(format!("unknown engine `{other}` (naive|checkpoint)")),
        }
    }
}

// How a session executes emulated instructions lives in rr-engine (the
// layer that builds the block cache the uop tier runs on); re-exported
// here so campaign callers keep a single import path.
pub use rr_engine::ExecMode;

/// Tunables for a fault-injection session.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Step budget for the golden (unfaulted) runs.
    pub golden_max_steps: u64,
    /// Faulted runs get `golden_bad_steps × this` extra steps…
    pub faulted_step_multiplier: u64,
    /// …but never less than this floor (faults can lengthen runs a lot).
    /// Building a session with both this and the multiplier at `0` is
    /// an error: a zero budget would time out every plan.
    pub faulted_min_steps: u64,
    /// Worker threads for the campaign scheduler
    /// ([`rr_engine::shard::run_bucketed`]); `0` means "all available
    /// cores".
    pub threads: usize,
    /// Evaluate only every `site_stride`-th trace site. Statistical
    /// fault injection (Leveugle et al., cited by the paper) for long
    /// traces; `1` = exhaustive. Building a session with `0` is an
    /// error.
    pub site_stride: usize,
    /// Byte budget for the state retained by the recorded checkpoints,
    /// measured as page-granular dirtied bytes
    /// ([`rr_engine::ReplayConfig::max_retained_bytes`]); exceeding it
    /// widens the checkpoint interval. `0` = unlimited. The only
    /// retention setting: checkpoints otherwise follow the adaptive
    /// ≈ √T schedule of [`rr_engine::ReplayEngine::record`], the
    /// total-work optimum.
    pub max_retained_bytes: u64,
    /// Which engine this session evaluates faults with. Decides at
    /// construction whether the golden pass records snapshots — see
    /// [`CampaignEngine`].
    pub engine: CampaignEngine,
    /// The multi-fault plan space: maximum injections per plan, pair
    /// policy, sampling budget, and sampling seed. The default is the
    /// classic single-fault campaign (order 1).
    pub plan: PlanConfig,
    /// How emulated instructions execute — the uop tier (default), which
    /// runs every block as the micro-op body it was decoded into once, or
    /// the plain interpreter. See [`ExecMode`].
    pub exec: ExecMode,
    /// Drop plans the static analysis ([`crate::Analysis`]) proves
    /// benign from the plan space before enumeration and budget
    /// normalization (default on; `--no-static-prune` on the CLI).
    /// Pruning never removes a `Success`: only plans whose every
    /// injection perturbs provably-dead state are dropped, and those
    /// classify `Benign` under every behaviour-observing oracle.
    pub static_prune: bool,
    /// Audit mode: *execute* statically-benign plans instead of pruning
    /// them, and flag any that classify as something other than
    /// [`FaultClass::Benign`](crate::FaultClass::Benign) — a dynamic
    /// cross-check of the analysis's soundness (`--audit-analysis` on
    /// the CLI). Implies no pruning for the audited run.
    pub audit_analysis: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            golden_max_steps: 1_000_000,
            faulted_step_multiplier: 4,
            faulted_min_steps: 10_000,
            threads: 0,
            site_stride: 1,
            max_retained_bytes: ReplayConfig::default().max_retained_bytes,
            engine: CampaignEngine::default(),
            plan: PlanConfig::default(),
            exec: ExecMode::default(),
            static_prune: true,
            audit_analysis: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_parse_and_render() {
        assert_eq!("naive".parse::<CampaignEngine>().unwrap(), CampaignEngine::Naive);
        assert_eq!("checkpoint".parse::<CampaignEngine>().unwrap(), CampaignEngine::Checkpointed);
        assert_eq!("checkpointed".parse::<CampaignEngine>().unwrap(), CampaignEngine::Checkpointed);
        assert!("laser".parse::<CampaignEngine>().is_err());
        assert_eq!(CampaignEngine::default(), CampaignEngine::Checkpointed);
        assert_eq!(CampaignEngine::Naive.to_string(), "naive");
        assert_eq!(CampaignEngine::Checkpointed.to_string(), "checkpoint");
    }

    #[test]
    fn default_config_is_exhaustive_and_checkpointed() {
        let config = CampaignConfig::default();
        assert_eq!(config.site_stride, 1);
        assert_eq!(config.engine, CampaignEngine::Checkpointed);
        assert_eq!(config.plan.order, 1, "single-fault campaigns are the default");
        assert_eq!(config.plan.budget, None, "order 1 is exhaustive by default");
        assert_eq!(config.exec, ExecMode::Uops, "uop execution is the default");
        assert!(config.static_prune, "static pruning is the default");
        assert!(!config.audit_analysis, "auditing is opt-in");
    }

    #[test]
    fn exec_mode_names_parse_and_render() {
        assert_eq!("interp".parse::<ExecMode>().unwrap(), ExecMode::Interp);
        assert_eq!("uops".parse::<ExecMode>().unwrap(), ExecMode::Uops);
        assert!("jit".parse::<ExecMode>().is_err());
        let err = "blocks".parse::<ExecMode>().unwrap_err();
        assert!(err.contains("blocks") && err.contains("interp|uops"), "{err}");
        assert_eq!(ExecMode::default(), ExecMode::Uops);
        assert_eq!(ExecMode::Interp.to_string(), "interp");
        assert_eq!(ExecMode::Uops.to_string(), "uops");
    }
}
