//! Reproduces every table and figure of "Language Modeling at Scale".
//!
//! ```text
//! repro [<artifact>] [--full]
//!
//! artifacts:
//!   fig1        types-vs-tokens curves + power-law fits
//!   table1      dataset statistics (synthetic vs paper)
//!   memex       §III-A worked memory example
//!   fig5        word-LM perplexity vs epoch across GPU counts
//!   fig6        speedup breakdown (uniqueness / seeding / compression)
//!   fig7        seeding-strategy accuracy comparison
//!   fig8        char-LM perplexity vs epoch across GPU counts
//!   table3      word-LM per-epoch time + parallel efficiency
//!   table4      char-LM per-epoch time + parallel efficiency
//!   table5      Tieba weak scaling (time model + real miniature accuracy)
//!   weak        Table V column at real worlds (6/24/192 ranks, bounded pool)
//!   overlap     serial vs overlapped step schedule at 48/192 ranks
//!   codec_crossover  wire volume vs codec compute at 8/48/192 ranks
//!   chaos       recovery per fault class through the durable store
//!   memory      §V-A peak GPU memory (baseline linear vs ours flat)
//!   sota        §V-D comparison with Puri et al. [21]
//!   scoreboard  every paper figure the full-scale models answer, as
//!               markdown; rewrites EXPERIMENTS.md's scoreboard block
//!   all         everything above (the default)
//! ```
//!
//! `--full` uses larger corpora/models for the training-based artifacts
//! (minutes instead of seconds). Any other flag, an unknown artifact or
//! a second one is a usage error (exit 2). The modelled sections print
//! their rows of `perfmodel::paper`, where every paper figure they are
//! compared with is stated. `weak`, `overlap`, `codec_crossover` and
//! `chaos` are the one writer of their simulated `BENCH_*.json` golden:
//! they rewrite it from the quick run (`--full` only prints), and this
//! crate's tests fail when a golden is not what its quick run renders.

use perfmodel::wordlm::ScalingRow;
use perfmodel::{paper, CharScale, WordScale};
use zlm_bench::table::{hours, pct, render};
use zlm_bench::{golden_json, golden_path, GoldenRow};

/// Every artifact but `all`, in the order `all` runs them.
const ARTIFACTS: &str = "fig1 table1 memex table3 fig6 table4 table5 weak overlap \
     codec_crossover chaos memory fig5 fig7 fig8 sota scoreboard";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, full) = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}; usage: repro [<artifact>] [--full], artifact one of: {ARTIFACTS} all");
        std::process::exit(2);
    });
    let quick = !full;
    for name in ARTIFACTS.split(' ').filter(|&a| what == "all" || what == a) {
        match name {
            "fig1" => fig1(quick),
            "table1" => table1(),
            "memex" => modelled("SIII-A worked example (G=256, K=19200, D=1792)", "memex."),
            "table3" => scaling_table("Table III: word-LM", WordScale::paper().table3(), "table3."),
            "fig6" => modelled("Figure 6: cumulative speedups over baseline", "fig6."),
            "table4" => scaling_table("Table IV: char-LM", CharScale::paper().table4(), "table4."),
            "table5" => table5(quick),
            "weak" => weak(quick),
            "overlap" => overlap(quick),
            "codec_crossover" => codec_crossover(quick),
            "chaos" => chaos(quick),
            "memory" => modelled("SV-A: peak GPU memory (GB)", "memory."),
            "fig5" => fig5(quick),
            "fig7" => fig7(quick),
            "fig8" => fig8(quick),
            "sota" => sota(quick),
            "scoreboard" => scoreboard(),
            other => unreachable!("artifact {other} has no section"),
        }
    }
}

/// `repro [<artifact>] [--full]`: the artifact (`all` if none is given)
/// and whether `--full` was, or what is wrong with `args`.
fn parse(args: &[String]) -> Result<(&str, bool), String> {
    let (mut what, mut full) = (None, false);
    for arg in args {
        match arg.as_str() {
            "--full" => full = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            extra if what.is_some() => return Err(format!("extra argument '{extra}'")),
            name if name == "all" || ARTIFACTS.split(' ').any(|a| a == name) => what = Some(name),
            name => return Err(format!("unknown artifact '{name}'")),
        }
    }
    Ok((what.unwrap_or("all"), full))
}

fn banner(title: &str) {
    println!("\n==== {title} ====");
}

/// Prints the paper table's rows whose id starts with `prefix`.
fn paper_rows(prefix: &str) {
    println!("{}", paper::markdown(&paper::rows(prefix)));
}

/// A section that is only its paper rows.
fn modelled(title: &str, prefix: &str) {
    banner(title);
    paper_rows(prefix);
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

/// Table III or IV (`title` names it): the model's hours and
/// efficiencies, then the paper rows under `prefix`.
fn scaling_table(title: &str, table: Vec<(usize, ScalingRow, ScalingRow)>, prefix: &str) {
    banner(&format!(
        "{title} hours/epoch on 1-Billion (model, calibrated)"
    ));
    let body: Vec<Vec<String>> = table
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
    paper_rows(prefix);
}

fn table5(quick: bool) {
    banner("Table V: Tieba weak scaling");
    paper_rows("table5.");
    println!("paper perplexity: 17.06 / 13.6 / 11.1");

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
    write_golden(&rows, quick);
}

fn overlap(quick: bool) {
    banner("Step schedule: serial vs overlapped at 48/192 ranks over 8 run slots");
    let rows = zlm_bench::overlap_comparison(quick);
    let ms = |ps: u64| format!("{:.3}", ps as f64 / 1e9);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.gpus.to_string(),
                r.bucket_bytes.to_string(),
                ms(r.flat_sim_time_ps),
                ms(r.serial_sim_time_ps),
                ms(r.overlapped_sim_time_ps),
                format!("{:.1}", r.hidden_ps as f64 / 1e6),
                format!(
                    "{:.4}x",
                    r.serial_sim_time_ps as f64 / r.overlapped_sim_time_ps as f64
                ),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "GPUs",
                "bucket B",
                "flat ms",
                "serial ms",
                "overlap ms",
                "hidden µs",
                "speedup"
            ],
            &body
        )
    );
    println!("numerics verified bit-identical across all three schedules");
    write_golden(&rows, quick);
}

fn codec_crossover(quick: bool) {
    banner("Wire codecs: volume vs codec compute at 8/48/192 ranks over 8 run slots");
    let rows = zlm_bench::codec_crossover(quick);
    let mb = |bytes: u64| format!("{:.3}", bytes as f64 / 1e6);
    let mut identity_ps = 0;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            if r.codec == "identity" {
                identity_ps = r.sim_time_ps;
            }
            vec![
                r.gpus.to_string(),
                r.codec.to_string(),
                format!("{:.3}", r.sim_time_ps as f64 / 1e9),
                mb(r.wire_bytes),
                mb(r.index_gather_bytes),
                format!("{:.4}x", identity_ps as f64 / r.sim_time_ps as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "GPUs",
                "codec",
                "sim ms",
                "wire MB",
                "index MB",
                "vs identity"
            ],
            &body
        )
    );
    println!("numerics verified bit-identical across the codec ladder");
    write_golden(&rows, quick);
}

fn chaos(quick: bool) {
    banner("Recovery per fault class through the durable checkpoint store");
    let rows = zlm_bench::chaos_recovery();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.world.to_string(),
                r.rounds.to_string(),
                r.restored_step.to_string(),
                r.steps_lost.to_string(),
                format!("{:.1}", r.backoff_ps as f64 / 1e9),
                r.corrupt_frames.to_string(),
                r.final_world.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "scenario",
                "world",
                "rounds",
                "restored",
                "lost",
                "backoff ms",
                "corrupt",
                "final"
            ],
            &body
        )
    );
    write_golden(&rows, quick);
}

/// Rewrites `R`'s golden from quick-mode rows; `--full` rows are not
/// what the golden holds, so they are only printed.
fn write_golden<R: GoldenRow>(rows: &[R], quick: bool) {
    let path = golden_path::<R>();
    if quick {
        std::fs::write(&path, golden_json(rows)).expect("write golden");
        println!("wrote {path}");
    } else {
        println!("--full: {path} holds the quick rows, left as it is");
    }
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
    paper_rows("sota.");
}

fn scoreboard() {
    banner("Every paper figure the full-scale models answer");
    println!("{}", paper::markdown(&paper::scoreboard()));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    std::fs::write(path, paper::with_scoreboard(&doc)).expect("write EXPERIMENTS.md");
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_unknown_flags_and_extra_artifacts() {
        let parse_args = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse(&args).map(|(what, full)| (what.to_string(), full))
        };
        assert_eq!(parse_args(&[]), Ok(("all".into(), false)));
        assert_eq!(
            parse_args(&["table3", "--full"]),
            Ok(("table3".into(), true))
        );
        assert_eq!(
            parse_args(&["--full", "scoreboard"]),
            Ok(("scoreboard".into(), true))
        );
        for bad in [&["table3", "--ful"][..], &["table3", "table4"], &["tabel3"]] {
            assert!(parse_args(bad).is_err(), "{bad:?}");
        }
    }
}
