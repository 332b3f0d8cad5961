//! Calibration printout (run with
//! `cargo test -p perfmodel calibration_dump -- --ignored --nocapture`):
//! the paper table, then what it does not show — each Table III / IV
//! cell's memory and raw buffers, the word LM's per-step breakdown and
//! Table V's predicted steps flat vs two-tier.

#[cfg(test)]
mod tests {
    use crate::charlm::CharScale;
    use crate::memory::exchange_bytes;
    use crate::paper::{markdown, scoreboard, tiers_markdown};
    use crate::wordlm::{TechniqueStack, WordScale};

    #[test]
    #[ignore = "diagnostic printout for constant tuning"]
    fn calibration_dump() {
        println!("{}", markdown(&scoreboard()));
        // Each Table III / IV cell's memory beside its raw predicted
        // buffers (Σ exchange_bytes over the predicted exchanges, GB,
        // before the baseline's densified tables, the resident term and
        // the char baseline's replication).
        let (w, c) = (WordScale::paper(), CharScale::paper());
        type Exchanges = Vec<(u64, usize, Option<(u64, u64)>)>;
        let buffers = |exchanges: Exchanges| {
            let bytes: u64 = exchanges
                .into_iter()
                .map(|(n, d, x)| exchange_bytes(n, d, x))
                .sum();
            bytes as f64 / 1e9
        };
        println!("=== memory GB (buffers GB), word LM | char LM ===");
        for g in [8, 16, 24, 32, 64] {
            let mut line = format!("{g:>3} gpus:");
            for stack in [TechniqueStack::Baseline, TechniqueStack::Full] {
                let (wm, wb) = (w.memory_gb(g, stack), buffers(w.exchanges(g, stack)));
                let (cm, cb) = (c.memory_gb(g, stack), buffers(c.exchanges(g, stack)));
                line += &format!("  {} {wm:.3} ({wb:.4}) | {cm:.3} ({cb:.4})", stack.label());
            }
            println!("{line}");
        }
        println!("=== per-step breakdown word@16 ===");
        for stack in TechniqueStack::all() {
            println!(
                "{}: {:.3}s (in_rows {}, out_rows {})",
                stack.label(),
                w.step_time(16, stack),
                w.input_rows(16, stack),
                w.output_rows(16, stack)
            );
        }
        println!("=== Table V predicted step, flat vs two-tier ===");
        println!("{}", tiers_markdown());
    }
}
