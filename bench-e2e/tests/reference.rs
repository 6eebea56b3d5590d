//! The committed reference outputs are what the reference configuration
//! (naive engine, plain interpreter) produces today.

use rr_e2e_bench::inputs::setup;
use rr_e2e_bench::reference::{self, SEED_0};

#[test]
fn committed_reference_matches_the_reference_configuration() {
    let (binaries, _) = setup(0).expect("the bundled workloads build");
    let fresh = reference::render(&binaries).expect("the reference configuration runs");
    if fresh != SEED_0 {
        let committed: Vec<&str> = SEED_0.lines().collect();
        for (i, line) in fresh.lines().enumerate() {
            if committed.get(i) != Some(&line) {
                eprintln!("line {}: committed {:?}, now {line:?}", i + 1, committed.get(i));
            }
        }
        panic!(
            "reference/seed-0.txt is stale ({} lines committed, {} now); regenerate it with \
             `cargo run --release -- --print-reference > reference/seed-0.txt`",
            committed.len(),
            fresh.lines().count()
        );
    }
}
