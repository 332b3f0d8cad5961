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
//!   sota        §V-D comparison with Puri et al.
//!   scoreboard  every paper figure the full-scale models answer, as
//!               markdown
//!   tiers       Table V's predicted step, flat vs two-tier
//!   all         everything above (the default)
//! ```
//!
//! `--full` uses larger corpora/models for the training-based artifacts
//! (minutes instead of seconds). Any other flag, an unknown artifact or
//! a second one is a usage error (exit 2). The modelled sections print
//! their rows of `perfmodel::paper`, where every paper figure they are
//! compared with is stated. `weak`, `overlap`, `codec_crossover` and
//! `chaos` are the one writer of their simulated `BENCH_*.json` golden,
//! and `fig1`, `table5`, `weak`, `fig5`, `fig7`, `fig8`, `sota`,
//! `scoreboard` and `tiers` of EXPERIMENTS.md's block of the same name,
//! which `zlm-bench` (or, for the modelled two, `perfmodel::paper`)
//! renders with the paper figures it is compared with: each
//! rewrites its file from the quick run (`--full` only prints), and a
//! tier-1 test fails when a file is not what its quick run renders.

use perfmodel::paper;
use zlm_bench::table::render;
use zlm_bench::{golden_json, golden_path, GoldenRow, EXPERIMENTS_MD};

/// Every artifact but `all`, in the order `all` runs them.
const ARTIFACTS: &str = "fig1 table1 memex table3 fig6 table4 table5 weak overlap \
     codec_crossover chaos memory fig5 fig7 fig8 sota scoreboard tiers";

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
            "table3" => modelled("Table III: word-LM hours/epoch on 1-Billion", "table3."),
            "fig6" => modelled("Figure 6: cumulative speedups over baseline", "fig6."),
            "table4" => modelled("Table IV: char-LM hours/epoch on 1-Billion", "table4."),
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
            "tiers" => tiers(),
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
    let body = zlm_bench::fig1_block(&zlm_bench::fig1(quick));
    write_block("fig1", &body, quick);
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

fn table5(quick: bool) {
    banner("Table V: Tieba weak scaling");
    paper_rows("table5.");
    println!("weak-scaling accuracy, real miniature training (more data+GPUs => lower ppl):");
    let rows = zlm_bench::table5_accuracy(quick);
    write_block("table5", &zlm_bench::table5_block(&rows), quick);
}

fn weak(quick: bool) {
    banner("Table V column at real worlds: 6/24/192 ranks over 8 run slots");
    let rows = zlm_bench::weak_scaling(quick);
    println!("every world verified bit-identical to the unpooled flat ring");
    write_block("weak", &zlm_bench::weak_block(&rows), quick);
    write_golden(&rows, quick);
}

fn overlap(quick: bool) {
    banner("Step schedule: serial vs overlapped at 48/192 ranks over 8 run slots");
    let rows = zlm_bench::overlap_comparison(quick);
    println!("numerics verified bit-identical across all three schedules");
    write_golden(&rows, quick);
}

fn codec_crossover(quick: bool) {
    banner("Wire codecs: volume vs codec compute at 8/48/192 ranks over 8 run slots");
    let rows = zlm_bench::codec_crossover(quick);
    println!("numerics verified bit-identical across the codec ladder");
    write_golden(&rows, quick);
}

fn chaos(quick: bool) {
    banner("Recovery per fault class through the durable checkpoint store");
    write_golden(&zlm_bench::chaos_recovery(), quick);
}

/// Prints `R`'s golden and rewrites it from quick-mode rows; `--full`
/// rows are not what the golden holds, so they are only printed.
fn write_golden<R: GoldenRow>(rows: &[R], quick: bool) {
    let (path, json) = (golden_path::<R>(), golden_json(rows));
    println!("{json}");
    if quick {
        std::fs::write(&path, json).expect("write golden");
        println!("wrote {path}");
    } else {
        println!("--full: {path} holds the quick rows, left as it is");
    }
}

/// Prints EXPERIMENTS.md's block `name` and rewrites it there from a
/// quick run; a `--full` run is not what the doc holds, so it is only
/// printed.
fn write_block(name: &str, body: &str, quick: bool) {
    println!("{body}");
    if quick {
        let doc = std::fs::read_to_string(EXPERIMENTS_MD).expect("read EXPERIMENTS.md");
        let doc = paper::with_block(&doc, name, body);
        std::fs::write(EXPERIMENTS_MD, doc).expect("write EXPERIMENTS.md");
        println!("wrote EXPERIMENTS.md's `{name}` block");
    } else {
        println!("--full: EXPERIMENTS.md's `{name}` block holds the quick run, left as it is");
    }
}

fn fig5(quick: bool) {
    banner("Figure 5: word-LM validation perplexity vs epoch (real training, scaled down)");
    let curves = zlm_bench::fig5(quick);
    let compression = zlm_bench::compression_accuracy(quick);
    write_block("fig5", &zlm_bench::fig5_block(&curves, compression), quick);
}

fn fig7(quick: bool) {
    banner("Figure 7: seeding strategies (word LM, sampled softmax)");
    let body = zlm_bench::fig7_block(&zlm_bench::fig7(quick));
    write_block("fig7", &body, quick);
}

fn fig8(quick: bool) {
    banner("Figure 8: char-LM validation perplexity vs epoch (real training, scaled down)");
    let body = zlm_bench::fig8_block(&zlm_bench::fig8(quick));
    write_block("fig8", &body, quick);
}

fn sota(quick: bool) {
    banner("SV-D: comparison with Puri et al. (Amazon Reviews char LM)");
    let bpc = zlm_bench::sota_comparison(quick);
    write_block("sota", &zlm_bench::sota_block(bpc), quick);
    paper_rows("sota.");
}

fn scoreboard() {
    banner("Every paper figure the full-scale models answer");
    write_block("scoreboard", &paper::markdown(&paper::scoreboard()), true);
}

fn tiers() {
    banner("Table V predicted step: flat vs two-tier collectives");
    write_block("tiers", &paper::tiers_markdown(), true);
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
