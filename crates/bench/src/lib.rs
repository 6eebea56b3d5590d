//! # rr-bench — evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation and
//! benchmarks the toolchain.
//!
//! Table/figure binaries (run with `cargo run --release -p rr-bench --bin <name>`):
//!
//! | binary                     | reproduces                      |
//! |----------------------------|---------------------------------|
//! | `tables_local_patterns`    | Tables I, II, III               |
//! | `table4_overhead`          | Table IV                        |
//! | `table5_code_size`         | Table V                         |
//! | `vuln_reduction`           | §V-C vulnerability counts       |
//! | `fig2_fixed_point`         | Fig. 2 loop convergence         |
//! | `fig5_cfg`                 | Figs. 4–5 hardened branch CFG   |
//! | `ablation_checksum_copies` | design ablation (1 vs 2 copies) |
//!
//! Criterion benches (`cargo bench -p rr-bench`): `emulator`, `campaign`,
//! `rewriting` and `pipelines`. None of them is gated; end-to-end speed
//! on the bundled workloads is measured by the `bench-e2e` harness at
//! the repository root.

#![forbid(unsafe_code)]

/// Renders a percentage for table output.
pub fn pct(value: f64) -> String {
    format!("{value:8.2}%")
}

/// Prints a horizontal rule sized for the tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
