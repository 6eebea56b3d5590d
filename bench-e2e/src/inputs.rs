//! Benchmark set-up: the four bundled binaries and their seeded inputs.
//!
//! Every binary is assembled and linked from source, then round-tripped
//! through the on-disk format (`Executable::to_bytes` / `from_bytes`) so
//! the program under test is exactly what a user would load. Seed 0 uses
//! the bundled bad inputs; any other seed draws a same-length
//! single-byte perturbation of the good input at the position where the
//! bundled bad input first differs, so the draw denies access through the
//! same check (see `README.md`, "Seeded inputs").

use rr_emu::{execute, RunOutcome};
use rr_obj::Executable;
use rr_workloads::{all_workloads, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Step budget of every plain execution the benchmark makes outside the
/// operations (input filtering, behaviour checks). Hybrid binaries run
/// tens of thousands of steps; nothing the bundled programs do comes
/// near this.
pub const CHECK_STEPS: u64 = 100_000_000;

/// Denied inputs, beyond the drawn bad input, that the hardened binaries
/// are checked on.
const DERIVED_BAD: usize = 4;

/// One bundled program, loaded and ready to be hardened or faulted.
#[derive(Debug, Clone)]
pub struct Binary {
    /// Workload name (`pincheck`, `bootloader`, `otp`, `access`).
    pub name: &'static str,
    /// The executable, as loaded from its serialized bytes.
    pub exe: Arc<Executable>,
    /// The input that is granted access.
    pub good: Arc<[u8]>,
    /// The seeded input that is denied access.
    pub bad: Arc<[u8]>,
    /// Further denied inputs the hardened binaries must still deny.
    pub derived_bad: Vec<Vec<u8>>,
}

/// Where set-up time went, summed over the four binaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Assembling and linking the sources (`rr_asm`).
    pub build: Duration,
    /// Loading the serialized executables (`Executable::from_bytes`).
    pub load: Duration,
}

/// Builds the four binaries and draws their inputs for `seed`.
///
/// # Errors
///
/// A source that fails to build or load, or a seed for which no denied
/// perturbation exists.
pub fn setup(seed: u64) -> Result<(Vec<Binary>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut binaries = Vec::new();
    for w in all_workloads() {
        let t = Instant::now();
        let built = w.build().map_err(|e| format!("{}: build failed: {e}", w.name))?;
        times.build += t.elapsed();

        let bytes = built.to_bytes();
        let t = Instant::now();
        let exe =
            Executable::from_bytes(&bytes).map_err(|e| format!("{}: load failed: {e}", w.name))?;
        times.load += t.elapsed();

        let bad = draw_bad(&w, &exe, seed)
            .ok_or_else(|| format!("{}: seed {seed} draws no denied input", w.name))?;
        let derived_bad = w
            .more_bad_inputs(2, seed)
            .into_iter()
            .filter(|input| *input != bad && denied(&exe, input))
            .take(DERIVED_BAD)
            .collect();

        binaries.push(Binary {
            name: w.name,
            exe: Arc::new(exe),
            good: w.good_input.into(),
            bad: bad.into(),
            derived_bad,
        });
    }
    Ok((binaries, times))
}

/// The bad input for `seed`: the bundled one at seed 0, otherwise the
/// first denied single-byte perturbation of the good input, starting at
/// the position where the bundled bad input first differs from it.
fn draw_bad(w: &Workload, exe: &Executable, seed: u64) -> Option<Vec<u8>> {
    if seed == 0 {
        return Some(w.bad_input.clone());
    }
    let anchor = w.good_input.iter().zip(&w.bad_input).position(|(g, b)| g != b).unwrap_or(0);
    // With no random extras, `more_bad_inputs` yields exactly one
    // perturbation per input position, in position order.
    let candidates = w.more_bad_inputs(0, seed);
    let n = candidates.len();
    (0..n).map(|k| &candidates[(anchor + k) % n]).find(|input| denied(exe, input)).cloned()
}

/// Whether the binary denies `input` the way the bundled bad inputs are
/// denied: a normal exit with code 1. (`access` can accept perturbed
/// command tails, so every draw is checked.)
fn denied(exe: &Executable, input: &[u8]) -> bool {
    execute(exe, input, CHECK_STEPS).outcome == RunOutcome::Exited { code: 1 }
}
