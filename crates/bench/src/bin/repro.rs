//! Reproduces every table and figure of "Language Modeling at Scale".
//!
//! ```text
//! repro <artifact> [--full]
//!
//! artifacts:
//!   fig1     types-vs-tokens curves + power-law fits
//!   table1   dataset statistics (synthetic vs paper)
//!   memex    §III-A worked memory example (35.2 GB vs 0.137 GB)
//!   fig5     word-LM perplexity vs epoch across GPU counts
//!   fig6     speedup breakdown (uniqueness / seeding / compression)
//!   fig7     seeding-strategy accuracy comparison
//!   fig8     char-LM perplexity vs epoch across GPU counts
//!   table3   word-LM per-epoch time + parallel efficiency
//!   table4   char-LM per-epoch time + parallel efficiency
//!   table5   Tieba weak scaling (time model + real miniature accuracy)
//!   weak     Table V column at real worlds (6/24/192 ranks, bounded pool)
//!   memory   §V-A peak GPU memory (baseline linear vs ours flat)
//!   sota     §V-D comparison with Puri et al. [21]
//!   all      everything above
//! ```
//!
//! `--full` uses larger corpora/models for the training-based artifacts
//! (minutes instead of seconds).

use perfmodel::{CharScale, TechniqueStack, TiebaScale, WordScale};
use zlm_bench::table::{hours, pct, render};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let quick = !full;
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let known = [
        "fig1", "table1", "memex", "fig5", "fig6", "fig7", "fig8", "table3", "table4", "table5",
        "weak", "memory", "sota", "all",
    ];
    if !known.contains(&what) {
        eprintln!("unknown artifact '{what}'; one of: {}", known.join(", "));
        std::process::exit(2);
    }

    let run = |name: &str| what == "all" || what == name;
    if run("fig1") {
        fig1(quick);
    }
    if run("table1") {
        table1();
    }
    if run("memex") {
        memex();
    }
    if run("table3") {
        table3();
    }
    if run("fig6") {
        fig6();
    }
    if run("table4") {
        table4();
    }
    if run("table5") {
        table5(quick);
    }
    if run("weak") {
        weak(quick);
    }
    if run("memory") {
        memory();
    }
    if run("fig5") {
        fig5(quick);
    }
    if run("fig7") {
        fig7(quick);
    }
    if run("fig8") {
        fig8(quick);
    }
    if run("sota") {
        sota(quick);
    }
}

fn banner(title: &str) {
    println!("\n==== {title} ====");
}

fn fig1(quick: bool) {
    banner("Figure 1: types (U) vs tokens (N), U = a*N^alpha");
    let max = if quick { 1_000_000 } else { 20_000_000 };
    let series = zlm_bench::fig1(max, 7);
    for s in &series {
        println!(
            "{:>3}: fit U = {:.2} * N^{:.3}  (R^2 = {:.4})  [paper ar: 7.02 * N^0.64, R^2 = 1.00]",
            s.name, s.fit.prefactor, s.fit.exponent, s.fit.r_squared
        );
    }
    println!();
    let mut rows = Vec::new();
    let probe = &series[0].points;
    for (i, p) in probe.iter().enumerate() {
        if i % 4 != 0 && i + 1 != probe.len() {
            continue;
        }
        let mut row = vec![format!("{}", p.tokens)];
        for s in &series {
            row.push(format!("{}", s.points[i].types));
        }
        row.push(format!("{}", p.tokens)); // the x = y "batch" line
        rows.push(row);
    }
    println!(
        "{}",
        render(&["N", "1b", "gb", "cc", "ar", "batch(x=y)"], &rows)
    );
}

fn table1() {
    banner("Table I: datasets (synthetic stand-ins at 1/100000 scale)");
    let rows = zlm_bench::table1(100_000.0, 3);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{}", r.stats.chars),
                format!("{}", r.stats.tokens),
                format!("{}", r.stats.types),
                format!("{}", r.stats.bytes),
                format!("{:.2}B", r.profile.paper_chars_billion),
                r.profile
                    .paper_words_billion
                    .map(|w| format!("{w:.2}B"))
                    .unwrap_or_else(|| "NA".into()),
                format!("{:.2}GB", r.profile.paper_bytes_gb),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "set",
                "chars",
                "tokens",
                "types",
                "bytes",
                "paper-chars",
                "paper-words",
                "paper-GB"
            ],
            &body
        )
    );
}

fn memex() {
    banner("SIII-A worked example (G=256, K=19200, D=1792)");
    let (base, ours, saving) = perfmodel::memory::worked_example();
    println!("baseline ALLGATHER buffer : {base:.1} GB   (paper: 35.2 GB)");
    println!("uniqueness buffers        : {ours:.3} GB  (paper: 0.137 GB)");
    println!("memory saving             : {saving:.0}x    (paper: 256x)");
}

fn table3() {
    banner("Table III: word-LM hours/epoch on 1-Billion (model, calibrated)");
    let m = WordScale::paper();
    let body: Vec<Vec<String>> = m
        .table3()
        .into_iter()
        .map(|(g, b, o)| {
            vec![
                g.to_string(),
                hours(b.epoch_hours),
                pct(b.parallel_efficiency),
                hours(o.epoch_hours),
                pct(o.parallel_efficiency),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["GPUs", "base h", "base eff", "ours h", "ours eff"], &body)
    );
    println!("paper:  base 35.1/41.1/40.4/*/*  eff 100/43/29/-/-");
    println!("        ours 14.6/8.1/6.4/5.4/4.5  eff 100/90/76/67/40");
}

fn fig6() {
    banner("Figure 6: cumulative speedups over baseline (word LM)");
    let m = WordScale::paper();
    for g in [16usize, 24] {
        let s: Vec<String> = m
            .fig6(g)
            .iter()
            .map(|(l, v)| format!("{l} {v:.1}x"))
            .collect();
        println!("{g:>2} GPUs: {}", s.join("  "));
    }
    println!("paper 16: 1.0 / 4.0 / 4.3 / 5.1    paper 24: 1.0 / 5.1 / 5.4 / 6.3");
}

fn table4() {
    banner("Table IV: char-LM hours/epoch on 1-Billion (model, calibrated)");
    let m = CharScale::paper();
    let body: Vec<Vec<String>> = m
        .table4()
        .into_iter()
        .map(|(g, b, o)| {
            vec![
                g.to_string(),
                hours(b.epoch_hours),
                pct(b.parallel_efficiency),
                hours(o.epoch_hours),
                pct(o.parallel_efficiency),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["GPUs", "base h", "base eff", "ours h", "ours eff"], &body)
    );
    println!("paper:  base 25.7/14.5/10.6/*/*  eff 100/89/81/-/-");
    println!("        ours 23.2/12.9/8.2/6.8/3.5  eff 100/96/94/86/82");
}

fn table5(quick: bool) {
    banner("Table V: Tieba weak scaling");
    let t = TiebaScale::paper();
    let body: Vec<Vec<String>> = t
        .table5()
        .into_iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.chars_billion),
                format!("{:.0}", r.corpus_gb),
                r.gpus.to_string(),
                r.batch.to_string(),
                format!("{:.0}", r.hours),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["chars(B)", "GB", "GPUs", "batch", "hours"], &body)
    );
    println!("paper hours: 27 / 28 / 34;  perplexity 17.06 / 13.6 / 11.1");
    println!(
        "achieved at 192 GPUs: {:.2} PFLOP/s (paper: 0.76)",
        t.achieved_pflops(192)
    );

    println!("\nweak-scaling accuracy, real miniature training (more data+GPUs => lower ppl):");
    let rows = zlm_bench::table5_accuracy(quick);
    let base_ppl = rows[0].ppl;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.gpus.to_string(),
                r.tokens.to_string(),
                format!("{:.2}", r.ppl),
                format!("{:+.0}%", (base_ppl - r.ppl) / base_ppl * 100.0),
                format!("{:.2}", r.compression_ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["GPUs", "tokens", "ppl", "ppl gain", "compr-ratio"], &body)
    );
    println!("paper: 35% accuracy improvement at 32x data; compression ratio 6.3");
}

fn weak(quick: bool) {
    banner("Table V column at real worlds: 6/24/192 ranks over 8 run slots");
    let rows = zlm_bench::weak_scaling(quick);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (alpha_intra, alpha_inter) = r.alpha_share();
            vec![
                r.gpus.to_string(),
                r.nodes.to_string(),
                r.tokens.to_string(),
                format!("{:.2}", r.final_ppl),
                format!("{:.3}", r.sim_time_ps as f64 / 1e9),
                r.wire_intra_bytes.to_string(),
                r.wire_inter_bytes.to_string(),
                format!("{alpha_intra:.3}"),
                format!("{alpha_inter:.3}"),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "GPUs", "nodes", "tokens", "ppl", "sim ms", "intra B", "inter B", "α/intra",
                "α/inter"
            ],
            &body
        )
    );
    println!("α/tier: share of rank 0's wire time on that tier that is hop latency, not bytes");
    println!("every world verified bit-identical to the unpooled flat ring");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_weak_scaling.json");
    std::fs::write(path, zlm_bench::weak_scaling_json(&rows)).expect("write artifact");
    println!("wrote {path}");
}

fn memory() {
    banner("SV-A: peak GPU memory (GB)");
    let m = WordScale::paper();
    let mut body = Vec::new();
    for g in [8usize, 16, 24, 32, 64] {
        body.push(vec![
            g.to_string(),
            format!("{:.1}", m.memory_gb(g, TechniqueStack::Baseline)),
            format!("{:.2}", m.memory_gb(g, TechniqueStack::Full)),
        ]);
    }
    println!("{}", render(&["GPUs", "baseline", "ours"], &body));
    println!("paper: baseline 3.9 / 7.1 / 10.3 / OOM / OOM; ours 1.19 ... 1.21 (8.6x less at 24)");
    let red = m.memory_gb(24, TechniqueStack::Baseline) / m.memory_gb(24, TechniqueStack::Full);
    println!("model reduction at 24 GPUs: {red:.1}x");
}

fn print_curves(curves: &[zlm_bench::AccuracyCurve]) {
    let epochs = curves[0].points.len();
    let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
    let mut headers = vec!["epoch"];
    headers.extend(labels.iter());
    let mut body = Vec::new();
    for e in 0..epochs {
        let mut row = vec![format!("{}", e + 1)];
        for c in curves {
            row.push(format!("{:.2}", c.points[e].1));
        }
        body.push(row);
    }
    println!("{}", render(&headers, &body));
}

fn fig5(quick: bool) {
    banner("Figure 5: word-LM validation perplexity vs epoch (real training, scaled down)");
    let curves = zlm_bench::fig5(quick);
    print_curves(&curves);
    println!("paper@epoch2 (16/32/64 GPUs): 73.5 / 72.1 / 72.4 - curves converge");
    let (without, with) = zlm_bench::compression_accuracy(quick);
    println!(
        "\ncompression accuracy: ppl without {without:.4} vs with {with:.4} (paper: 84.68 vs 84.12)"
    );
}

fn fig7(quick: bool) {
    banner("Figure 7: seeding strategies (word LM, sampled softmax)");
    let curves = zlm_bench::fig7(quick);
    print_curves(&curves);
    println!("paper: Zipf's-freq matches per-GPU seeds (G); log10 least stable");
}

fn fig8(quick: bool) {
    banner("Figure 8: char-LM validation perplexity vs epoch (real training, scaled down)");
    let curves = zlm_bench::fig8(quick);
    print_curves(&curves);
    println!("paper@epoch2 gap 16-vs-32 GPUs: 2%; curves converge with epochs");
}

fn sota(quick: bool) {
    banner("SV-D: comparison with Puri et al. [21] (Amazon Reviews char LM)");
    let s = zlm_bench::sota_comparison(quick);
    println!("our scaled-down char-LM BPC : {:.3}", s.our_bpc);
    println!(
        "paper's full-scale BPC      : {:.3} (1 epoch, 64 Titan X)",
        s.paper_bpc
    );
    println!(
        "[21]'s reported BPC         : {:.3} (1 epoch, 128 V100)",
        s.reference_bpc
    );
    println!(
        "infrastructure peak-FLOP ratio ([21] vs paper): {:.0}x (paper: 41x)",
        s.infra_flop_ratio
    );
}
