//! `e2e` — the repository's benchmark: end-to-end numbers time the
//! public `zipf_lm::train` on four workloads, per-layer numbers come
//! from one traced call and from timers placed here around each layer's
//! public functions. It changes no program code. See `README.md` beside
//! this package for the tables, and `BENCHMARK.json` at the repository
//! root for the contract.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--aa]
//! ```
//!
//! Everything runs from this one driver thread, one `train()` call at a
//! time, on one CPU: the process confines itself before it starts a
//! thread, so what is timed is the program's work and not how a shared
//! host schedules its threads (`stats::pin_to_one_cpu`, `calib.rs`).
//! With `--workload` and `--trace` both given, the last line of standard
//! output is one JSON object holding that half's metrics.

mod calib;
mod json;
mod layers;
mod spans;
mod spec;
mod stats;
mod timed;

use json::Json;
use layers::Layers;
use spans::Spans;
use spec::{Better, Clock, Workload, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use timed::{Ops, Timed};

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--aa]";

/// Which halves of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halves {
    /// `--trace 0`: untraced timing and the end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: the traced call, the probes and the per-layer metrics.
    PerLayer,
    Both,
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    halves: Halves,
    aa: bool,
    /// The CPU this process confined itself to, if the kernel let it.
    pinned_cpu: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: spec::WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        halves: Halves::Both,
        aa: false,
        pinned_cpu: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?;
                parsed.workloads = vec![w];
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.halves = match value()?.as_str() {
                    "0" => Halves::EndToEnd,
                    "1" => Halves::PerLayer,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => parsed.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// `<target dir>/e2e`, found from where cargo put this executable
/// (`<target dir>/<profile>/e2e`), so output lands beside the build.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("e2e")))
        .unwrap_or_else(|| PathBuf::from("target/e2e"))
}

/// First line a command prints, or "unknown" where it cannot run. The
/// benchmark also runs in checkouts that are not git repositories; git
/// is told not to look for one above the working directory.
fn first_line_of(program: &str, args: &[&str]) -> String {
    let above = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Both halves of one workload, as far as they were run.
struct Outcome {
    workload: &'static Workload,
    timed: Option<Timed>,
    layers: Option<Layers>,
    trace_file: Option<String>,
}

impl Outcome {
    fn ops(&self) -> Ops {
        let mut all = Ops::default();
        if let Some(t) = &self.timed {
            all.absorb(&t.ops);
        }
        if let Some(l) = &self.layers {
            all.absorb(&l.ops);
        }
        all
    }
}

fn run_workload(w: &'static Workload, args: &Args, out: &Path) -> Outcome {
    println!("\n== {} (seed {}) ==", w.name, args.seed);
    println!("   {}", w.why);
    let mut outcome = Outcome {
        workload: w,
        timed: None,
        layers: None,
        trace_file: None,
    };
    if args.halves != Halves::PerLayer {
        // One workload per process reads VmHWM as it is; in a process
        // that runs several, reset it first where the kernel allows.
        let per_workload = args.workloads.len() == 1 || stats::reset_peak_rss();
        let timed = timed::run(w, args.seed, args.seconds, per_workload);
        print_end_to_end(w, &timed);
        outcome.timed = Some(timed);
    }
    if args.halves != Halves::EndToEnd {
        let mut spans = Spans::new(w.name);
        let layers = layers::run(w, args.seed, out, &mut spans);
        let file = format!("{}.trace.json", w.name);
        match std::fs::write(out.join(&file), spans.chrome_trace_json()) {
            Ok(()) => outcome.trace_file = Some(file),
            Err(e) => eprintln!("cannot write {file}: {e}"),
        }
        print_per_layer(&layers, &spans);
        outcome.layers = Some(layers);
    }
    // Table V's ratio is the one taken against a one-node world.
    if let (Some(timed), Some(layers), true) = (&outcome.timed, &outcome.layers, w.ref_gpus > 1) {
        print_weak_scaling_error(timed, layers);
    }
    let ops = outcome.ops();
    println!(
        "  ops_attempted {}  ops_failed {}",
        ops.attempted, ops.failed
    );
    for failure in &ops.failures {
        println!("  FAILED: {failure}");
    }
    outcome
}

fn print_end_to_end(w: &Workload, t: &Timed) {
    println!(
        "  end-to-end: {} cycles of a 1-step call and an S={} call; host slowdown {:.3} (median)",
        t.reps, w.steps, t.host_slowdown
    );
    for (name, value) in &t.metrics {
        let m = spec::end_to_end(name);
        let mut spread = t
            .summaries
            .iter()
            .find(|(n, _)| n == name)
            .map_or(String::new(), |(_, s)| {
                format!("  p25 {:.5} p75 {:.5} n={}", s.p25, s.p75, s.samples)
            });
        if let Some(raw) = spec::value_of(&t.raw, name) {
            spread.push_str(&format!("  as the clock read it {raw:.5}"));
        }
        println!(
            "    {:<30} {:>14.5} {:<9} [{}] {} is better, bound {:.0}%{}",
            name,
            value,
            m.unit,
            m.clock.label(),
            m.better.label(),
            m.bound * 100.0,
            spread
        );
    }
    if !t.rss_is_per_workload {
        println!("    (host_peak_rss_mb covers the whole process: rss_scope=process)");
    }
}

fn print_per_layer(l: &Layers, spans: &Spans) {
    println!("  per-layer (one traced call, direct-call probes, report counters):");
    for (name, value) in &l.metrics {
        let m = spec::per_layer(name);
        println!(
            "    {:<38} {:>14.5} {:<8} [{}]",
            name,
            value,
            m.unit,
            m.clock.label()
        );
    }
    for note in &l.notes {
        println!("    note: {note}");
    }
    // Where the benchmark's own time went: self time of its top spans.
    let own = spans::self_times(spans.all());
    let mut top: Vec<(&str, u64)> = spans
        .all()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.track == spans::DRIVER_TRACK && s.parent.is_none())
        .map(|(s, &ns)| (s.name.as_str(), ns))
        .collect();
    top.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let line: Vec<String> = top
        .iter()
        .take(5)
        .map(|(name, ns)| format!("{name} {:.0} ms", *ns as f64 / 1e6))
        .collect();
    println!(
        "    largest self times of benchmark spans: {}",
        line.join(", ")
    );
}

/// The live simulator's 192/6 ratio against the closed-form model and
/// the paper's Table V.
fn print_weak_scaling_error(t: &Timed, l: &Layers) {
    let get = |metrics, name| spec::value_of(metrics, name).unwrap_or(f64::NAN);
    let live = get(&t.metrics[..], "sim_weak_scaling_ratio");
    for (what, name) in [
        ("perfmodel", "perfmodel.weak_ratio"),
        ("paper Table V", "perfmodel.paper_weak_ratio"),
    ] {
        let reference = get(&l.metrics[..], name);
        println!(
            "  sim_weak_scaling_ratio {live:.3} vs {what} {reference:.3}: {:+.0}% [sim]",
            (live / reference - 1.0) * 100.0
        );
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The driver's result line for one half of one workload.
fn result_line(outcome: &Outcome, halves: Halves) -> Json {
    let ops = outcome.ops();
    let metric = |(name, value): &(&str, f64), unit| (name.to_string(), metric_json(*value, unit));
    let metrics: Vec<(String, Json)> = match halves {
        Halves::PerLayer => outcome
            .layers
            .iter()
            .flat_map(|l| &l.metrics)
            .map(|m| metric(m, spec::per_layer(m.0).unit))
            .collect(),
        _ => outcome
            .timed
            .iter()
            .flat_map(|t| &t.metrics)
            .map(|m| metric(m, spec::end_to_end(m.0).unit))
            .collect(),
    };
    Json::obj([
        ("correct", Json::Bool(ops.failed == 0)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Everything one invocation measured, for `results.json`.
fn results_json(args: &Args, outcomes: &[Outcome]) -> Json {
    let workloads = outcomes.iter().map(|o| {
        let w = o.workload;
        let cfg = w.config(args.seed);
        let ops = o.ops();
        let mut fields = vec![
            ("why", Json::str(w.why)),
            ("gpus", Json::Num(cfg.gpus as f64)),
            (
                "local_batch_tokens",
                Json::Num(cfg.local_batch_tokens() as f64),
            ),
            ("steps_per_call", Json::Num(w.steps as f64)),
            ("ops_attempted", Json::Num(ops.attempted as f64)),
            ("ops_failed", Json::Num(ops.failed as f64)),
            (
                "failures",
                Json::Arr(ops.failures.iter().map(Json::str).collect()),
            ),
        ];
        if let Some(t) = &o.timed {
            fields.push(("timed_reps", Json::Num(t.reps as f64)));
            fields.push(("host_slowdown", Json::Num(t.host_slowdown)));
            let scope = if t.rss_is_per_workload {
                "workload"
            } else {
                "process"
            };
            fields.push(("rss_scope", Json::str(scope)));
            let metrics = t.metrics.iter().map(|(name, value)| {
                let m = spec::end_to_end(name);
                let mut entry = vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(m.unit)),
                    ("clock", Json::str(m.clock.label())),
                    ("better", Json::str(m.better.label())),
                    ("bound", Json::Num(m.bound)),
                ];
                if let Some(raw) = spec::value_of(&t.raw, name) {
                    entry.push(("raw", Json::Num(raw)));
                }
                if let Some((_, s)) = t.summaries.iter().find(|(n, _)| n == name) {
                    entry.push(("samples", Json::Num(s.samples as f64)));
                    entry.push(("p25", Json::Num(s.p25)));
                    entry.push(("p75", Json::Num(s.p75)));
                }
                (*name, Json::obj(entry))
            });
            fields.push(("end_to_end", Json::obj(metrics)));
        }
        if let Some(l) = &o.layers {
            let metrics = l.metrics.iter().map(|(name, value)| {
                let m = spec::per_layer(name);
                let entry = [
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(m.unit)),
                    ("clock", Json::str(m.clock.label())),
                    ("better", Json::str(m.better.label())),
                ];
                (*name, Json::obj(entry))
            });
            fields.push(("per_layer", Json::obj(metrics)));
            fields.push(("notes", Json::Arr(l.notes.iter().map(Json::str).collect())));
        }
        if let Some(file) = &o.trace_file {
            fields.push(("trace_file", Json::str(file)));
        }
        (w.name, Json::obj(fields))
    });
    Json::obj([
        ("schema", Json::str("e2e-results-v1")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("nproc", Json::Num(stats::nproc() as f64)),
        (
            "pinned_cpu",
            args.pinned_cpu
                .map_or(Json::str("none"), |c| Json::Num(c as f64)),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        (
            "git_head",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("workloads", Json::obj(workloads)),
    ])
}

/// Worsening of `b` against `a` as a share of `a`, signed so that a
/// positive number is worse whichever way the metric improves.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `--aa`: the end-to-end half of every selected workload, twice in this
/// process; each metric of the second pass against the first. Host
/// metrics must agree within their bound (either way — the order of two
/// runs of the same code means nothing); every other metric exactly.
fn run_aa(args: &Args) -> bool {
    let pass = |label: &str| -> Vec<Timed> {
        println!("\n-- A/A pass {label} --");
        args.workloads
            .iter()
            .map(|w| {
                println!("   {}", w.name);
                timed::run(w, args.seed, args.seconds, stats::reset_peak_rss())
            })
            .collect()
    };
    let (first, second) = (pass("A"), pass("B"));
    let mut all_pass = true;
    println!(
        "\n{:<28} {:<30} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "diff"
    );
    for ((w, a), b) in args.workloads.iter().zip(&first).zip(&second) {
        for ops in [&a.ops, &b.ops] {
            for failure in &ops.failures {
                println!("{:<28} FAILED: {failure}", w.name);
                all_pass = false;
            }
        }
        for m in END_TO_END {
            let value = |t: &Timed| spec::value_of(&t.metrics, m.name);
            let (Some(va), Some(vb)) = (value(a), value(b)) else {
                all_pass = false;
                continue;
            };
            let diff = worsening(va, vb, m.better);
            let ok = match m.clock {
                // Where the kernel will not reset the peak, resident
                // memory accumulates over the process and says nothing
                // about one workload.
                Clock::Host if m.name == "host_peak_rss_mb" && !b.rss_is_per_workload => true,
                Clock::Host => diff.abs() <= m.bound,
                Clock::Sim | Clock::Result => va == vb,
            };
            all_pass &= ok;
            println!(
                "{:<28} {:<30} {:>14.5} {:>14.5} {:>+8.2}%  {} [{}]",
                w.name,
                m.name,
                va,
                vb,
                diff * 100.0,
                if ok { "PASS" } else { "FAIL" },
                m.clock.label()
            );
        }
    }
    println!("\nA/A {}", if all_pass { "PASS" } else { "FAIL" });
    all_pass
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts: they inherit the confinement.
    args.pinned_cpu = stats::pin_to_one_cpu();
    println!(
        "e2e: seed {}, measuring window {} s, {}",
        args.seed,
        args.seconds,
        match args.pinned_cpu {
            Some(cpu) => format!("confined to CPU {cpu} (nproc {})", stats::nproc()),
            None => format!("NOT confined to one CPU (nproc {})", stats::nproc()),
        }
    );
    if args.aa {
        return if run_aa(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let outcomes: Vec<Outcome> = args
        .workloads
        .iter()
        .map(|w| run_workload(w, &args, &out))
        .collect();
    let results = out.join("results.json");
    match std::fs::write(&results, results_json(&args, &outcomes).render() + "\n") {
        Ok(()) => println!("\nwrote {}", results.display()),
        Err(e) => eprintln!("cannot write {}: {e}", results.display()),
    }
    let failed: u64 = outcomes.iter().map(|o| o.ops().failed).sum();
    // The driver's contract: with one workload and one half selected,
    // the last line is that half's metrics.
    if let ([outcome], true) = (&outcomes[..], args.halves != Halves::Both) {
        println!("{}", result_line(outcome, args.halves).render());
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;
    use std::collections::BTreeSet;
    use zlm_bench::diff::{flatten, Leaf};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "char_weak_g192",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "char_weak_g192");
        assert_eq!(
            (a.seed, a.seconds, a.halves, a.aa),
            (7, 3, Halves::PerLayer, false)
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!(d.workloads.len(), spec::WORKLOADS.len());
        assert_eq!(
            (d.seed, d.seconds, d.halves),
            (DEFAULT_SEED, DEFAULT_SECONDS, Halves::Both)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--fast"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(worsening(100.0, 110.0, Better::Lower), 0.10);
        assert_eq!(worsening(100.0, 110.0, Better::Higher), -0.10);
    }

    fn name_is_valid(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// binary reports, within the contract's limits.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let leaves = flatten(&text).expect("BENCHMARK.json parses");
        let get = |path: &str| {
            leaves
                .iter()
                .find(|(p, _)| p == path)
                .map(|(_, l)| l.clone())
        };
        let text_at = |path: String| match get(&path) {
            Some(Leaf::Str(s)) => s,
            other => panic!("{path}: {other:?}"),
        };

        assert_eq!(get("run_seconds"), Some(Leaf::Num(DEFAULT_SECONDS as f64)));
        assert_eq!(get("paths[0]"), Some(Leaf::Str("e2e".into())));
        assert_eq!(get("paths[1]"), None);

        let mut names = BTreeSet::new();
        for (i, w) in spec::WORKLOADS.iter().enumerate() {
            assert_eq!(text_at(format!("workloads[{i}].name")), w.name);
            assert_eq!(text_at(format!("workloads[{i}].why")), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(name_is_valid(w.name) && names.insert(w.name), "{}", w.name);
        }
        assert_eq!(
            get(&format!("workloads[{}].name", spec::WORKLOADS.len())),
            None
        );

        for (i, m) in END_TO_END.iter().enumerate() {
            assert_eq!(text_at(format!("end_to_end[{i}].name")), m.name);
            assert_eq!(text_at(format!("end_to_end[{i}].unit")), m.unit);
            assert_eq!(text_at(format!("end_to_end[{i}].better")), m.better.label());
            assert_eq!(
                get(&format!("end_to_end[{i}].bound")),
                Some(Leaf::Num(m.bound))
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(name_is_valid(m.name) && names.insert(m.name), "{}", m.name);
        }
        assert_eq!(get(&format!("end_to_end[{}].name", END_TO_END.len())), None);
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );

        for (i, m) in PER_LAYER.iter().enumerate() {
            assert_eq!(text_at(format!("per_layer[{i}].name")), m.name);
            assert_eq!(text_at(format!("per_layer[{i}].unit")), m.unit);
            assert_eq!(text_at(format!("per_layer[{i}].better")), m.better.label());
            assert!(name_is_valid(m.name) && names.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
        assert_eq!(get(&format!("per_layer[{}].name", PER_LAYER.len())), None);
        assert_eq!(PER_LAYER.len(), 66);
    }

    #[test]
    fn results_and_result_line_parse_with_the_repo_reader() {
        let w = &spec::WORKLOADS[0];
        let outcome = Outcome {
            workload: w,
            timed: Some(Timed {
                metrics: vec![("setup_s", 0.9012345678), ("step_ms", 183.25)],
                summaries: vec![("setup_s", stats::summarize(&[0.9, 0.9012345678, 0.95]))],
                raw: vec![("setup_s", 1.1)],
                host_slowdown: 1.22,
                reps: 4,
                rss_is_per_workload: true,
                ops: Ops {
                    attempted: 12,
                    failed: 1,
                    failures: vec!["timed call 1: \"quoted\"".to_string()],
                },
            }),
            layers: Some(Layers {
                metrics: vec![("corpus.generate_ms", 12.5)],
                notes: vec![],
                ops: Ops::default(),
            }),
            trace_file: Some("word_compute_g2.trace.json".to_string()),
        };
        let args = parse_args(&[]).unwrap();
        let text = results_json(&args, std::slice::from_ref(&outcome)).render();
        let leaves = flatten(&text).expect("results.json parses");
        let get = |path: &str| {
            leaves
                .iter()
                .find(|(p, _)| p == path)
                .map(|(_, l)| l.clone())
        };
        let base = "workloads.word_compute_g2";
        assert_eq!(get("seed"), Some(Leaf::Num(1234.0)));
        assert_eq!(
            get(&format!("{base}.end_to_end.setup_s.value")),
            Some(Leaf::Num(0.9012345678))
        );
        assert_eq!(
            get(&format!("{base}.end_to_end.setup_s.samples")),
            Some(Leaf::Num(3.0))
        );
        assert_eq!(
            get(&format!("{base}.end_to_end.setup_s.clock")),
            Some(Leaf::Str("host".into()))
        );
        assert_eq!(
            get(&format!("{base}.per_layer.corpus.generate_ms.unit")),
            Some(Leaf::Str("ms".into()))
        );
        assert_eq!(get(&format!("{base}.ops_failed")), Some(Leaf::Num(1.0)));
        assert_eq!(
            get(&format!("{base}.rss_scope")),
            Some(Leaf::Str("workload".into()))
        );

        let line = result_line(&outcome, Halves::EndToEnd).render();
        assert!(!line.contains('\n'));
        let leaves = flatten(&line).expect("result line parses");
        let keys: BTreeSet<&str> = leaves
            .iter()
            .map(|(p, _)| p.split('.').next().unwrap())
            .collect();
        assert_eq!(
            keys,
            BTreeSet::from(["attempted", "correct", "failed", "metrics"])
        );
        assert!(leaves.contains(&("correct".to_string(), Leaf::Bool(false))));
        assert!(leaves.contains(&("attempted".to_string(), Leaf::Num(12.0))));
        assert!(leaves.contains(&("metrics.step_ms.value".to_string(), Leaf::Num(183.25))));
        let line = result_line(&outcome, Halves::PerLayer).render();
        assert!(line.contains("\"corpus.generate_ms\": {\"value\": 12.5, \"unit\": \"ms\"}"));
    }
}
