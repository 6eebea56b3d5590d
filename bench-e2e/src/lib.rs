//! End-to-end benchmark of the rr toolchain.
//!
//! A single-process, closed-loop harness with one client: it drives the
//! three user-facing operations — a fault campaign, the Faulter+Patcher
//! hardening loop, and the hybrid lift/harden/lower pipeline — through
//! their public library entry points on the four bundled binaries, one
//! operation at a time, every campaign on one worker thread. See
//! `README.md` in this directory for the workloads, metrics and their
//! predicted interactions.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod measure;
mod mirror;
pub mod ops;
pub mod probe;
pub mod reference;
pub mod report;

/// Times one run of a fixed reference loop, in nanoseconds.
///
/// The loop stands for the machine's current speed: pseudo-random loads,
/// stores and data-dependent branches over a 1 MiB table, about 1.7 ms of
/// work, none of it in the program under test. Run next to every timed
/// operation, it lets latencies be reported in multiples of this loop's
/// time, which cancels much of the slowdown that other tenants of a
/// shared machine impose on both. The table outgrows the per-core caches,
/// as the operations' snapshots and page copies do; a 16 KiB table
/// tracked the operations' slowdowns markedly worse.
pub fn calibration_ns() -> u64 {
    const SLOTS: usize = 1 << 18;
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u32>> = std::cell::RefCell::new(vec![0; SLOTS]);
    }
    TABLE.with_borrow_mut(|table| {
        let start = std::time::Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..std::hint::black_box(200_000u32) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (SLOTS - 1);
            if x & 1 == 0 {
                table[slot] = table[slot].wrapping_add(i);
            } else {
                table[slot] ^= table[(slot + 1) & (SLOTS - 1)];
            }
        }
        std::hint::black_box(&table);
        start.elapsed().as_nanos() as u64
    })
}

/// Median of `values` (mean of the middle two for an even count; 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile of `values` (0 for none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
