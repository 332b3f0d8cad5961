//! The paper table: every figure of the paper's evaluation that the
//! full-scale models answer — §III-A's worked example, Tables III–V,
//! Figure 6, §V-A memory and the §V-A–§V-D ratios — stated once, beside
//! what the models compute for it.
//!
//! `wordlm`, `charlm` and `memory` test their rows by id, `repro` prints
//! them, and EXPERIMENTS.md's scoreboard block is their [`markdown`],
//! which a test asserts through [`with_block`], the doc's one block
//! writer. The measured artifacts (the Figure 1 fits, Table V's
//! perplexities, Figures 5 / 7 / 8, §V-D's BPC) need a training run:
//! `zlm-bench` renders them into blocks of their own.

use crate::charlm::{CharScale, TiebaScale};
use crate::flops;
use crate::memory::worked_example;
use crate::wordlm::{ScalingRow, TechniqueStack, WordScale};
use simgpu::HardwareConfig;
use std::fmt;

/// Why a row's agreement means what it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `CALIBRATED` constant was fitted to this row, so a match is not
    /// evidence.
    Anchor,
    /// A prediction of the calibrated model.
    Modeled,
    /// Exact arithmetic on the paper's own dimensions.
    Structural,
}

/// What a row's `ours` must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `|ours − paper| / paper < r`.
    Rel(f64),
    /// `|ours − paper| < a`.
    Abs(f64),
    /// `lo ≤ ours < hi`.
    Within(f64, f64),
    /// `ours > x`.
    Above(f64),
    /// `ours == paper`: an out-of-memory cell stays one.
    Exact,
}

/// One paper figure. `None` as `paper` or `ours` is an out-of-memory
/// cell (the paper's `*`).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `<section>.<quantity>[.<gpus>]`; `repro` prints a section by its
    /// prefix.
    pub id: String,
    /// The paper's figure.
    pub paper: Option<f64>,
    /// What the models compute for it.
    pub ours: Option<f64>,
    /// What a match is evidence of.
    pub kind: Kind,
    /// The bound `ours` is held to; a row without one is reported.
    pub bound: Option<Bound>,
}

/// The rows a `CALIBRATED` constant was fitted to (each constant's doc
/// names its own): these, and only these, are [`Kind::Anchor`].
const ANCHORS: &str = "table3.base.8 table3.base.16 table3.ours.8 table3.ours.64 \
    table4.base.8 table4.base.32 table4.ours.8 table5.hours.6 table5.hours.192 \
    memory.ours.8";

/// The [`Kind::Structural`] rows, by id prefix (Figure 6's baseline bar
/// is the baseline over itself).
const STRUCTURAL: &str = "memex. fig6.16.baseline fig6.24.baseline table3.step_gflop \
    table4.forward_gflop table5.pflops. sota.";

/// The one reported row known to disagree: §V-A's GFLOP per word-LM step
/// against what `flops` counts (EXPERIMENTS.md, "What the paper's FLOP
/// figures count").
const KNOWN_GAP: &str = "table3.step_gflop";

impl Row {
    /// Whether `ours` meets the bound; `None` for a reported row.
    pub fn holds(&self) -> Option<bool> {
        Some(match (self.bound?, self.paper, self.ours) {
            (Bound::Exact, paper, ours) => paper == ours,
            (Bound::Rel(r), Some(p), Some(o)) => ((o - p) / p).abs() < r,
            (Bound::Abs(a), Some(p), Some(o)) => (o - p).abs() < a,
            (Bound::Within(lo, hi), _, Some(o)) => (lo..hi).contains(&o),
            (Bound::Above(x), _, Some(o)) => o > x,
            _ => false,
        })
    }
}

/// A row held to `bound`, or reported if it is `None`; its kind follows
/// from its id.
fn row(
    id: impl Into<String>,
    paper: impl Into<Option<f64>>,
    ours: impl Into<Option<f64>>,
    bound: impl Into<Option<Bound>>,
) -> Row {
    let id = id.into();
    let kind = if ANCHORS.split(' ').any(|a| a == id) {
        Kind::Anchor
    } else if STRUCTURAL.split(' ').any(|s| id.starts_with(s)) {
        Kind::Structural
    } else {
        Kind::Modeled
    };
    let (paper, ours, bound) = (paper.into(), ours.into(), bound.into());
    Row {
        id,
        paper,
        ours,
        kind,
        bound,
    }
}

/// Table III or IV (`name`) from the model's `table` at 8 / 16 / 24 / 32
/// / 64 GPUs. `paper` lists the paper's baseline hours, ours, then both
/// efficiencies from 16 GPUs on; a baseline cell past the end of its list
/// is out of memory (held exactly), an efficiency past the end is not
/// printed. Hours are held to `rel`, efficiencies reported.
fn scaling_rows(
    name: &str,
    table: &[(usize, ScalingRow, ScalingRow)],
    paper: [&[f64]; 4],
    rel: f64,
) -> Vec<Row> {
    let [base, ours, base_eff, ours_eff] = paper;
    let mut rows = Vec::new();
    for (i, (g, b, o)) in table.iter().enumerate() {
        let id = |q: &str| format!("{name}.{q}.{g}");
        let pb = base.get(i).copied();
        let bound = pb.map_or(Bound::Exact, |_| Bound::Rel(rel));
        rows.push(row(id("base"), pb, b.epoch_hours, bound));
        rows.push(row(id("ours"), ours[i], o.epoch_hours, Bound::Rel(rel)));
    }
    for (i, (g, b, o)) in table[1..].iter().enumerate() {
        let id = |q: &str| format!("{name}.{q}.{g}");
        if let Some(&p) = base_eff.get(i) {
            rows.push(row(id("base_eff"), p, b.parallel_efficiency, None));
        }
        let eff = o.parallel_efficiency;
        rows.push(row(id("ours_eff"), ours_eff[i], eff, None));
    }
    rows
}

/// One row per paper figure the full-scale models answer, in paper
/// order.
pub fn scoreboard() -> Vec<Row> {
    use Bound::*;
    let (word, char_lm, tieba) = (WordScale::paper(), CharScale::paper(), TiebaScale::paper());
    let (base, full) = (TechniqueStack::Baseline, TechniqueStack::Full);
    // The ratio of two epoch times, NaN if either ran out of memory.
    let ratio = |a: Option<f64>, b: Option<f64>| a.zip(b).map_or(f64::NAN, |(a, b)| a / b);

    let (memex_base, memex_ours, saving) = worked_example();
    let mut rows = vec![
        row("memex.baseline_gb", 35.2, memex_base, Abs(0.2)),
        row("memex.unique_gb", 0.137, memex_ours, Abs(0.05)),
        row("memex.saving", 256.0, saving, Within(150.0, 320.0)),
    ];

    let base3: &[f64] = &[35.1, 41.1, 40.4];
    let ours3: &[f64] = &[14.6, 8.1, 6.4, 5.4, 4.5];
    let paper3 = [base3, ours3, &[0.43, 0.29], &[0.90, 0.76, 0.67, 0.40]];
    rows.extend(scaling_rows("table3", &word.table3(), paper3, 0.45));
    let hours = |g, stack| word.epoch_hours(g, stack);
    let input_rows = |stack| word.input_rows(16, stack) as f64;
    let unique = input_rows(base) / input_rows(TechniqueStack::Unique);
    let step = flops::step(word.macs_per_token(), word.local_tokens) / 1e9;
    let speedup = ratio(hours(8, base), hours(64, full));
    rows.extend([
        row("table3.speedup.64", 7.7, speedup, Within(4.5, 12.0)),
        row("table3.unique_ratio.16", 3.4, unique, Within(2.5, 5.0)),
        row(KNOWN_GAP, 136.0, step, None),
    ]);

    for (g, paper) in [(16, [1.0, 4.0, 4.3, 5.1]), (24, [1.0, 5.1, 5.4, 6.3])] {
        for ((label, ours), p) in word.fig6(g).into_iter().zip(paper) {
            let id = format!("fig6.{g}.{}", label.trim_start_matches('+'));
            rows.push(row(id, p, ours, Rel(0.5)));
        }
    }

    let base4: &[f64] = &[25.7, 14.5, 10.6];
    let ours4: &[f64] = &[23.2, 12.9, 8.2, 6.8, 3.5];
    let paper4 = [base4, ours4, &[0.89, 0.81], &[0.96, 0.94, 0.86, 0.82]];
    let mut table4 = scaling_rows("table4", &char_lm.table4(), paper4, 0.4);
    // The last row is the 64-GPU efficiency.
    if let Some(r) = table4.last_mut() {
        r.bound = Some(Above(0.55));
    }
    rows.extend(table4);
    let hours = |g, stack| char_lm.epoch_hours(g, stack);
    // §V-B's figure is one forward pass, 2 FLOPs per multiply-add.
    let forward = 2.0 * (char_lm.macs_per_token() * char_lm.local_tokens as u64) as f64 / 1e9;
    let speedup = ratio(hours(8, full), hours(64, full));
    let (paper_gap, gap) = (base4[0] / ours4[0], ratio(hours(8, base), hours(8, full)));
    rows.extend([
        row("table4.speedup.64", 6.6, speedup, Within(4.5, 9.0)),
        row(
            "table4.base_over_ours.8",
            paper_gap,
            gap,
            Within(1.02, 1.35),
        ),
        row("table4.forward_gflop", 2721.0, forward, Rel(1e-3)),
    ]);

    let (t5, paper5) = (tieba.table5(), [27.0, 28.0, 34.0]);
    for (r, p) in t5.iter().zip(paper5) {
        let id = format!("table5.hours.{}", r.gpus);
        rows.push(row(id, p, r.hours, Rel(0.35)));
    }
    let (paper_blowup, blowup) = (paper5[2] / paper5[0], t5[2].hours / t5[0].hours);
    let pflops = tieba.achieved_pflops(192);
    rows.extend([
        row("table5.blowup", paper_blowup, blowup, Within(1.05, 1.6)),
        row("table5.pflops.192", 0.76, pflops, Abs(0.02)),
    ]);

    let mem = |g, stack| word.memory_gb(g, stack);
    let reduction = mem(24, base) / mem(24, full);
    rows.extend([
        row("memory.base.8", 3.9, mem(8, base), Abs(1.0)),
        row("memory.base.16", 7.1, mem(16, base), Abs(1.3)),
        row("memory.base.24", 10.3, mem(24, base), Abs(1.5)),
        row("memory.ours.8", 1.19, mem(8, full), Abs(0.15)),
        row("memory.ours.64", 1.21, mem(64, full), Abs(0.25)),
        row("memory.reduction.24", 8.6, reduction, Abs(2.5)),
    ]);

    // §V-D: [21]'s 128 V100s against the paper's 64 Titan X, and the
    // paper's "14× longer … on 41× less powerful infrastructure".
    let infra = HardwareConfig::v100_dgx().cluster_peak_flops(128)
        / HardwareConfig::titan_x_cluster().cluster_peak_flops(64);
    rows.extend([
        row("sota.infra_ratio", 41.0, infra, Abs(1.5)),
        row("sota.gain", 2.9, infra / 14.0, Abs(0.05)),
    ]);
    rows
}

/// The rows whose id starts with `prefix`.
pub fn rows(prefix: &str) -> Vec<Row> {
    let mut rows = scoreboard();
    rows.retain(|r| r.id.starts_with(prefix));
    rows
}

/// `rows` as a markdown table, then one line counting them by kind and
/// the unbounded (reported) ones.
pub fn markdown(rows: &[Row]) -> String {
    let head = "| row | kind | paper | ours | bound | check |\n|---|---|---|---|---|---|\n";
    let table = rows
        .iter()
        .fold(head.to_string(), |out, r| out + &format!("{r}\n"));
    let count = |kind| rows.iter().filter(|r| r.kind == kind).count();
    let reported = rows.iter().filter(|r| r.bound.is_none()).count();
    let (anchors, modeled) = (count(Kind::Anchor), count(Kind::Modeled));
    let structural = count(Kind::Structural);
    format!(
        "{table}\n{} rows: {anchors} anchors, {modeled} modeled, {structural} structural; \
         {reported} reported without a bound.\n",
        rows.len()
    )
}

/// EXPERIMENTS.md's `tiers` block: Table V's predicted steps
/// ([`TiebaScale::tier_steps`]) on the flat schedules and with every
/// collective that may go two-tier on the cluster's nodes, and the
/// difference.
pub fn tiers_markdown() -> String {
    let gpn = HardwareConfig::titan_x_cluster().gpus_per_node;
    let mut out = String::from("| GPUs | flat (s/step) | two-tier (s/step) | two-tier − flat |\n");
    out += "|---|---|---|---|\n";
    for (gpus, flat, two_tier) in TiebaScale::paper().tier_steps() {
        let diff = match gpus <= gpn {
            true => "0 (one node)".to_string(),
            false => format!(
                "{:+.4} s ({:+.2} %)",
                two_tier - flat,
                (two_tier / flat - 1.0) * 100.0
            ),
        };
        out += &format!("| {gpus} | {flat:.4} | {two_tier:.4} | {diff} |\n");
    }
    out
}

/// `doc` with the block `name` replaced by `body`, set off by a blank
/// line on each side. A block runs from a `<!-- name: … -->` marker to
/// `<!-- end name -->`. Every generated block of EXPERIMENTS.md goes
/// through here: the scoreboard ([`markdown`] of [`scoreboard`]) and
/// `zlm-bench`'s measured artifacts. Panics if a marker is missing.
pub fn with_block(doc: &str, name: &str, body: &str) -> String {
    let (open, close) = (format!("<!-- {name}:"), format!("<!-- end {name} -->"));
    let missing = |marker: &str| panic!("no `{marker}` marker in the doc");
    let open_at = doc.find(&open).unwrap_or_else(|| missing(&open));
    let start = open_at + doc[open_at..].find("-->").unwrap_or_else(|| missing("-->")) + 3;
    let end = start + doc[start..].find(&close).unwrap_or_else(|| missing(&close));
    format!("{}\n\n{body}\n{}", &doc[..start], &doc[end..])
}

/// A figure to at most four significant digits, `OOM` for an
/// out-of-memory cell.
fn figure(v: Option<f64>) -> String {
    let Some(v) = v else { return "OOM".into() };
    let decimals = (3.0 - v.abs().log10().floor()).clamp(0.0, 6.0) as usize;
    let s = format!("{v:.decimals$}");
    match s.contains('.') {
        true => s.trim_end_matches('0').trim_end_matches('.').into(),
        false => s,
    }
}

impl fmt::Display for Row {
    /// The row as one markdown table line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bound = self.bound.map_or("—".into(), |b| format!("{b:?}"));
        let check = match self.holds() {
            Some(true) => "holds",
            Some(false) => "**FAILS**",
            None if self.id == KNOWN_GAP => "known gap",
            None => "reported",
        };
        let (id, kind) = (&self.id, format!("{:?}", self.kind).to_lowercase());
        let (paper, ours) = (figure(self.paper), figure(self.ours));
        write!(
            f,
            "| `{id}` | {kind} | {paper} | {ours} | {bound} | {check} |"
        )
    }
}

/// Asserts every bounded row under `prefix` holds and returns how many
/// there are, so a test also notices a row that lost its bound.
#[cfg(test)]
pub(crate) fn assert_bounded(prefix: &str) -> usize {
    let mut rows = rows(prefix);
    rows.retain(|r| r.bound.is_some());
    for r in &rows {
        assert_eq!(r.holds(), Some(true), "{r}");
    }
    rows.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bounded_row_holds() {
        let rows = scoreboard();
        for r in &rows {
            assert_ne!(r.holds(), Some(false), "{r}");
        }
        // Every id the kinds name exists: a typo cannot drop an anchor.
        for id in ANCHORS
            .split(' ')
            .chain(STRUCTURAL.split(' '))
            .chain([KNOWN_GAP])
        {
            assert!(rows.iter().any(|r| r.id.starts_with(id)), "{id}");
        }
    }

    #[test]
    fn experiments_md_block_is_the_tier_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
        let fix = "run `cargo run --release -p zlm-bench --bin repro tiers`";
        assert!(
            with_block(&doc, "tiers", &tiers_markdown()) == doc,
            "EXPERIMENTS.md's block is stale: {fix}"
        );
    }

    #[test]
    fn experiments_md_block_is_the_scoreboard() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
        let fix = "run `cargo run --release -p zlm-bench --bin repro scoreboard`";
        assert!(
            with_block(&doc, "scoreboard", &markdown(&scoreboard())) == doc,
            "EXPERIMENTS.md's block is stale: {fix}"
        );
    }
}
