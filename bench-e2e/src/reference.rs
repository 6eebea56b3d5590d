//! Reference outputs every operation is checked against.
//!
//! The reference configuration is the naive campaign engine on the plain
//! interpreter ([`Config::Reference`]), which the shipped defaults must
//! match bit-for-bit. Seed 0's outputs are committed in
//! `reference/seed-0.txt` and compiled in; for any other seed they are
//! computed, untimed, before the first timed operation.

use crate::inputs::Binary;
use crate::ops::{self, Config, Workload};
use crate::probe::Probe;
use rr_telemetry::Telemetry;
use std::collections::BTreeMap;

/// The committed reference outputs for seed 0.
pub const SEED_0: &str = include_str!("../reference/seed-0.txt");

/// Expected output lines per binary name, for one workload.
pub type Expected = BTreeMap<String, Vec<String>>;

/// Runs `workload` on every binary under the reference configuration.
///
/// # Errors
///
/// The first operation that fails.
pub fn compute(workload: Workload, binaries: &[Binary]) -> Result<Expected, String> {
    let mut expected = Expected::new();
    for bin in binaries {
        let mut out =
            ops::run(workload, bin, Config::Reference, &Telemetry::disabled(), &mut Probe::off())
                .map_err(|e| format!("{workload} {}: reference run failed: {e}", bin.name))?;
        out.check_behaviour(bin);
        expected.insert(bin.name.to_string(), out.lines);
    }
    Ok(expected)
}

/// Renders every workload's reference outputs in the committed format:
/// a `[workload binary]` header, then one fact per line.
///
/// # Errors
///
/// The first operation that fails.
pub fn render(binaries: &[Binary]) -> Result<String, String> {
    let mut text = String::from(
        "# Reference outputs of the end-to-end benchmark at seed 0, produced by the\n\
         # naive campaign engine on the plain interpreter. Regenerate with\n\
         # `cargo run --release -- --print-reference` from this directory.\n",
    );
    for workload in Workload::ALL {
        for (binary, lines) in compute(workload, binaries)? {
            text.push_str(&format!("[{workload} {binary}]\n"));
            for line in lines {
                text.push_str(&line);
                text.push('\n');
            }
        }
    }
    Ok(text)
}

/// The committed outputs of `workload`.
///
/// # Errors
///
/// A malformed reference file, or one without this workload.
pub fn committed(workload: Workload) -> Result<Expected, String> {
    let mut expected = Expected::new();
    let mut current: Option<&mut Vec<String>> = None;
    for line in SEED_0.lines().filter(|l| !l.starts_with('#')) {
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let (name, binary) =
                header.split_once(' ').ok_or_else(|| format!("bad reference header `{line}`"))?;
            current =
                (name == workload.name()).then(|| expected.entry(binary.to_string()).or_default());
        } else if let Some(lines) = current.as_mut() {
            lines.push(line.to_string());
        }
    }
    if expected.is_empty() {
        return Err(format!("the reference file has no `{workload}` outputs"));
    }
    Ok(expected)
}

/// Expected outputs of `workload` at `seed`: committed for seed 0,
/// computed otherwise.
///
/// # Errors
///
/// See [`committed`] and [`compute`].
pub fn expected(workload: Workload, binaries: &[Binary], seed: u64) -> Result<Expected, String> {
    if seed == 0 {
        committed(workload)
    } else {
        compute(workload, binaries)
    }
}
