//! `bench-diff` — regression gate over benchmark / run-summary artifacts.
//!
//! ```text
//! bench-diff <golden.json> <candidate.json> [--default-tol X] [--tol PATTERN=X]...
//! ```
//!
//! Compares the candidate against the golden leaf-by-leaf (see
//! `zlm_bench::diff`). Exit status: `0` within tolerance, `1` when any
//! leaf regresses or the schema drifts, `2` on usage / IO / parse
//! errors. Tolerances are relative and two-sided; `--tol` rules match
//! paths by substring and the last matching rule wins:
//!
//! ```text
//! bench-diff baseline.summary.json target/candidate.summary.json \
//!     --default-tol 0 --tol train_loss=1e-9 --tol sim_time_ps=0.02
//! ```

use std::process::ExitCode;

use zlm_bench::diff::{diff, Tolerances};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-diff <golden.json> <candidate.json> \
         [--default-tol X] [--tol PATTERN=X]..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tols = Tolerances::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--default-tol" => {
                let Some(v) = it.next() else { return usage() };
                let Ok(t) = v.parse::<f64>() else {
                    eprintln!("bench-diff: bad --default-tol value '{v}'");
                    return ExitCode::from(2);
                };
                tols.default_tol = t;
            }
            "--tol" => {
                let Some(v) = it.next() else { return usage() };
                let Some((pat, t)) = v.split_once('=') else {
                    eprintln!("bench-diff: --tol expects PATTERN=X, got '{v}'");
                    return ExitCode::from(2);
                };
                let Ok(t) = t.parse::<f64>() else {
                    eprintln!("bench-diff: bad tolerance in '{v}'");
                    return ExitCode::from(2);
                };
                tols.rules.push((pat.to_string(), t));
            }
            "-h" | "--help" => return usage(),
            _ => paths.push(arg.clone()),
        }
    }
    let [golden_path, candidate_path] = paths.as_slice() else {
        return usage();
    };

    let read = |p: &str| -> Result<String, ExitCode> {
        std::fs::read_to_string(p).map_err(|e| {
            eprintln!("bench-diff: cannot read {p}: {e}");
            ExitCode::from(2)
        })
    };
    let golden = match read(golden_path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let candidate = match read(candidate_path) {
        Ok(t) => t,
        Err(code) => return code,
    };

    match diff(&golden, &candidate, &tols) {
        Ok(report) if report.is_clean() => {
            println!(
                "bench-diff: OK — {} leaves within tolerance ({} vs {})",
                report.compared, golden_path, candidate_path
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            eprintln!(
                "bench-diff: FAIL — {} finding(s) comparing {} (golden) vs {} (candidate):",
                report.findings.len(),
                golden_path,
                candidate_path
            );
            for f in &report.findings {
                eprintln!("  {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}
