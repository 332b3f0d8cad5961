//! Calibration printout (run with
//! `cargo test -p perfmodel calibration_dump -- --ignored --nocapture`).

#[cfg(test)]
mod tests {
    use crate::charlm::{CharScale, TiebaScale};
    use crate::memory::exchange_bytes;
    use crate::wordlm::{TechniqueStack, WordScale};

    #[test]
    #[ignore = "diagnostic printout for constant tuning"]
    fn calibration_dump() {
        let w = WordScale::paper();
        println!("=== Table III (word LM, hours/epoch) ===");
        println!("paper baseline: 35.1 41.1 40.4 * *");
        println!("paper ours:     14.6  8.1  6.4 5.4 4.5");
        // Each row's memory beside its raw predicted buffers: Σ
        // exchange_bytes over the predicted exchanges, GB, before the
        // calibrated resident term and replication.
        type Exchanges = Vec<(u64, usize, Option<(u64, u64)>)>;
        let buffers = |exchanges: Exchanges| {
            let bytes: u64 = exchanges
                .into_iter()
                .map(|(n, d, x)| exchange_bytes(n, d, x))
                .sum();
            bytes as f64 / 1e9
        };
        for (g, b, o) in w.table3() {
            println!(
                "{g:>3} gpus: baseline {:?} ({:.3} GB, buffers {:.4})  ours {:?} ({:.3} GB, buffers {:.4})",
                b.epoch_hours.map(|h| (h * 10.0).round() / 10.0),
                b.memory_gb,
                buffers(w.exchanges(g, TechniqueStack::Baseline)),
                o.epoch_hours.map(|h| (h * 10.0).round() / 10.0),
                o.memory_gb,
                buffers(w.exchanges(g, TechniqueStack::Full)),
            );
        }
        println!("=== Fig 6 (speedups) paper@16: 1/4.0/4.3/5.1, @24: 1/5.1/5.4/6.3 ===");
        for g in [16usize, 24] {
            let s: Vec<String> = w
                .fig6(g)
                .iter()
                .map(|(l, v)| format!("{l}={v:.2}"))
                .collect();
            println!("{g}: {}", s.join(" "));
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
        let c = CharScale::paper();
        println!("=== Table IV (char LM) paper base: 25.7/14.5/10.6/*/*; ours: 23.2/12.9/8.2/6.8/3.5 ===");
        for (g, b, o) in c.table4() {
            println!(
                "{g:>3} gpus: baseline {:?} ({:.3} GB, buffers {:.4})  ours {:?} ({:.3} GB, buffers {:.4})",
                b.epoch_hours.map(|h| (h * 10.0).round() / 10.0),
                b.memory_gb,
                buffers(c.exchanges(g, TechniqueStack::Baseline)),
                o.epoch_hours.map(|h| (h * 10.0).round() / 10.0),
                o.memory_gb,
                buffers(c.exchanges(g, TechniqueStack::Full)),
            );
        }
        println!("=== Table V paper: 27/28/34 h ===");
        for r in TiebaScale::paper().table5() {
            println!("{:>3} gpus {:>6} batch: {:.1} h", r.gpus, r.batch, r.hours);
        }
        // The same predicted steps with every collective that may go
        // two-tier on 8-GPU nodes: what moving the model off the flat
        // ring would do, priced by the same clock and terms.
        println!("=== Table V predicted step, flat ring vs two-tier (s) ===");
        let t = TiebaScale::paper();
        for r in t.table5() {
            let (gpus, m) = (r.gpus, t.row(r.gpus, r.batch));
            let terms = m.terms(gpus, TechniqueStack::Full);
            let flat = m.schedule(gpus, TechniqueStack::Full);
            let mut two_tier = m.schedule(gpus, TechniqueStack::Full);
            two_tier.xcfg.gpus_per_node = two_tier.gpn;
            let (f, h) = (terms.step_time(&flat), terms.step_time(&two_tier));
            println!(
                "{gpus:>3} gpus: flat {f:.4}  two-tier {h:.4}  ({:+.4} s, {:+.2} %)",
                h - f,
                (h / f - 1.0) * 100.0
            );
        }
    }
}
