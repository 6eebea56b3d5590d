//! Every workload, run twice briefly: the outputs match the reference,
//! the ledger of deterministic counts repeats exactly, and the traced
//! pass's layer rows add up to its wall time.

use rr_e2e_bench::inputs::setup;
use rr_e2e_bench::measure::{timed_op, traced_op, PassTotals, Traced};
use rr_e2e_bench::ops::Workload;
use rr_e2e_bench::reference;
use std::time::Instant;

#[test]
fn ledgers_repeat_and_layer_rows_sum_to_the_wall_time() {
    let (binaries, _) = setup(0).expect("the bundled workloads build");
    for workload in Workload::ALL {
        let expected = reference::committed(workload).expect("the reference covers the workload");
        for bin in &binaries {
            assert!(timed_op(workload, bin, &expected).correct, "{workload} {}", bin.name);
        }
        let pass = || {
            let epoch = Instant::now();
            let ops: Vec<Traced> =
                binaries.iter().map(|bin| traced_op(workload, bin, &expected, epoch)).collect();
            for (op, bin) in ops.iter().zip(&binaries) {
                assert!(op.timed.correct, "{workload} {}: traced outputs differ", bin.name);
            }
            PassTotals::of(&ops)
        };
        let (first, second) = (pass(), pass());
        assert_eq!(first.ledger(), second.ledger(), "{workload}: the ledger moved");
        assert!(first.ledger().get("sessions") > 0, "{workload}: no session was counted");
        for totals in [&first, &second] {
            let rows: u64 = totals.self_ns.iter().map(|&(_, ns)| ns).sum();
            assert_eq!(rows, totals.wall_ns, "{workload}: layer rows must sum to the wall time");
        }
    }
}
