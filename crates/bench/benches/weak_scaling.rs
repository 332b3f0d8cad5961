//! Bench target for the Table V weak-scaling column at real world
//! sizes (6/24/192 ranks, 8 run slots): runs the experiment — which
//! internally re-verifies hierarchical-vs-flat bit-identity per world —
//! times each world's wall clock, and persists the rows as
//! `BENCH_weak_scaling.json` at the workspace root so successive PRs
//! record a trajectory (ROADMAP's missing bench artifact).
//!
//! `harness = false`: this is a measured experiment with a side effect,
//! not a statistical microbenchmark.

use std::time::Instant;
use zlm_bench::{weak_scaling, weak_scaling_json};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let t0 = Instant::now();
    let rows = weak_scaling(!full);
    let wall = t0.elapsed();

    println!("weak_scaling: Table V column at real worlds (pool = 8 run slots)");
    println!(
        "{:>5} {:>6} {:>9} {:>12} {:>10} {:>14} {:>16} {:>16} {:>8} {:>8}",
        "gpus",
        "nodes",
        "tokens",
        "train_loss",
        "final_ppl",
        "sim_time_ms",
        "intra_bytes",
        "inter_bytes",
        "α/intra",
        "α/inter"
    );
    for r in &rows {
        let (alpha_intra, alpha_inter) = r.alpha_share();
        println!(
            "{:>5} {:>6} {:>9} {:>12.4} {:>10.2} {:>14.3} {:>16} {:>16} {:>8.3} {:>8.3}",
            r.gpus,
            r.nodes,
            r.tokens,
            r.train_loss,
            r.final_ppl,
            r.sim_time_ps as f64 / 1e9,
            r.wire_intra_bytes,
            r.wire_inter_bytes,
            alpha_intra,
            alpha_inter,
        );
    }
    println!("(α/tier: share of rank 0's wire time on that tier that is hop latency, not bytes)");
    println!("(all worlds verified bit-identical to the flat ring; wall {wall:.2?})");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_weak_scaling.json");
    std::fs::write(path, weak_scaling_json(&rows)).expect("write BENCH_weak_scaling.json");
    println!("wrote {path}");
}
