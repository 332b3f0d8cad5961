//! One runner per paper artifact, and a renderer for each measured one.

use crate::table::render;
use corpus::{corpus_stats, CorpusGenerator, CorpusStats, DatasetProfile, TokenUnit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use zipf::{fit_power_law, heaps_curve_from_sampler, HeapsPoint, PowerLawFit};
use zipf::{heaps::log_checkpoints, ZipfMandelbrot};
use zipf_lm::seeding::SeedStrategy;
use zipf_lm::{CheckpointConfig, CommConfig, Method, ModelKind, TrainConfig, TrainReport};

/// A row of one of the four simulated goldens, `BENCH_<NAME>.json` at
/// the workspace root. Every field is simulated (integer picoseconds,
/// collective bytes, deterministic losses), so the quick-mode rows render
/// to the committed bytes on any host: this crate's tests hold each file
/// to its experiment and `repro <ARTIFACT>` is the one writer.
pub trait GoldenRow {
    /// The artifact's `"bench"` name; the file is `BENCH_<NAME>.json`.
    const NAME: &'static str;
    /// The `repro` section that rewrites the file.
    const ARTIFACT: &'static str;
    /// `(key, JSON value)` pairs between `"bench"` and `"rows"`.
    fn header() -> Vec<(&'static str, String)> {
        Vec::new()
    }
    /// This row's `(key, JSON value)` pairs, in file order.
    fn fields(&self) -> Vec<(&'static str, String)>;
}

/// Renders rows as their golden (hand-rolled: the workspace carries no
/// JSON dependency): the header one field per line, then one line per
/// row.
pub fn golden_json<R: GoldenRow>(rows: &[R]) -> String {
    let pair = |(k, v): &(&str, String)| format!("\"{k}\": {v}");
    let mut out = format!("{{\n  \"bench\": \"{}\",\n", R::NAME);
    for field in R::header() {
        out.push_str(&format!("  {},\n", pair(&field)));
    }
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let fields: Vec<String> = r.fields().iter().map(pair).collect();
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    {{{}}}{comma}\n", fields.join(", ")));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Where `R`'s golden lives: `BENCH_<NAME>.json` at the workspace root.
pub fn golden_path<R: GoldenRow>() -> String {
    format!(
        "{}/../../BENCH_{}.json",
        env!("CARGO_MANIFEST_DIR"),
        R::NAME
    )
}

/// A JSON string value (the goldens' names carry no escapes).
fn json_str(s: &str) -> String {
    format!("\"{s}\"")
}

/// The doc whose measured blocks the `*_block` renderers write: each
/// block is named after the `repro` artifact that rewrites it (through
/// `perfmodel::paper::with_block`, from the quick run) and held to that
/// run by the tier-1 test that trains it.
pub const EXPERIMENTS_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// A [`render`]ed table in a text fence, as the blocks hold it; `headers`
/// are `|`-separated.
fn fenced(headers: &str, rows: &[Vec<String>]) -> String {
    let headers: Vec<&str> = headers.split('|').collect();
    format!("```text\n{}```\n", render(&headers, rows))
}

/// One dataset's type–token curve and its power-law fit (Figure 1).
#[derive(Debug, Clone)]
pub struct HeapsSeries {
    /// Dataset short name ("1b", "gb", "cc", "ar").
    pub name: &'static str,
    /// Measured `(N, U)` points.
    pub points: Vec<HeapsPoint>,
    /// Log–log least-squares fit `U = a·N^α`.
    pub fit: PowerLawFit,
}

/// Figure 1: type–token curves for the four word profiles, swept to 10⁶
/// tokens, or 2·10⁷ without `quick` (the paper sweeps to 5·10⁷; 10⁶
/// reproduces the fit in about a second).
pub fn fig1(quick: bool) -> Vec<HeapsSeries> {
    let max_tokens = if quick { 1_000_000 } else { 20_000_000 };
    DatasetProfile::figure1_profiles()
        .into_iter()
        .map(|p| {
            let dist = ZipfMandelbrot::new(p.word_types, p.zipf_s, p.zipf_q);
            let cps = log_checkpoints(500, max_tokens, 4);
            let mut rng = StdRng::seed_from_u64(7);
            let points = heaps_curve_from_sampler(&mut rng, p.word_types, &cps, |r| dist.sample(r));
            let xs: Vec<f64> = points.iter().map(|q| q.tokens as f64).collect();
            let ys: Vec<f64> = points.iter().map(|q| q.types as f64).collect();
            let fit = fit_power_law(&xs, &ys).expect("fit");
            HeapsSeries {
                name: p.name,
                points,
                fit,
            }
        })
        .collect()
}

/// EXPERIMENTS.md's `fig1` block: each profile's fit and its last point
/// beside the x = y "batch" line, then the paper's fit.
pub fn fig1_block(series: &[HeapsSeries]) -> String {
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let last = s.points.last().expect("a swept point");
            vec![
                s.name.to_string(),
                format!("{:.2}", s.fit.prefactor),
                format!("{:.3}", s.fit.exponent),
                format!("{:.4}", s.fit.r_squared),
                last.tokens.to_string(),
                last.types.to_string(),
                format!("{:.1}", last.tokens as f64 / last.types as f64),
            ]
        })
        .collect();
    let table = fenced("series|a|α|R²|N|U|N/U", &rows);
    format!("{table}\nFit `U = a·N^α`, log–log least squares. Paper (ar): `U = 7.02·N^0.64`, R² = 1.00.\n")
}

/// One Table I row: synthetic stats next to the paper's real-corpus
/// numbers.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dataset name.
    pub name: &'static str,
    /// Synthetic corpus statistics at `1/scale` of the real size.
    pub stats: CorpusStats,
    /// The profile (for the paper-side columns).
    pub profile: DatasetProfile,
}

/// Table I: generate each dataset at `1/scale` of its paper size and
/// measure.
pub fn table1(scale: f64, seed: u64) -> Vec<Table1Row> {
    DatasetProfile::table1_profiles()
        .into_iter()
        .map(|p| {
            let (unit, n, bytes_per_char) = match p.language {
                corpus::Language::Chinese => (
                    TokenUnit::Char,
                    (p.paper_chars_billion * 1e9 / scale) as usize,
                    3,
                ),
                corpus::Language::English => (
                    TokenUnit::Word,
                    (p.paper_words_billion.unwrap_or(1.0) * 1e9 / scale) as usize,
                    1,
                ),
            };
            let c = CorpusGenerator::new(&p, unit, seed).corpus(n);
            Table1Row {
                name: p.name,
                stats: corpus_stats(&c, bytes_per_char),
                profile: p,
            }
        })
        .collect()
}

/// One accuracy curve (Figures 5, 7, 8): label + per-epoch validation
/// perplexity.
#[derive(Debug, Clone)]
pub struct AccuracyCurve {
    /// Legend label.
    pub label: String,
    /// `(epoch, validation perplexity)` points.
    pub points: Vec<(usize, f64)>,
}

fn curve(label: String, cfg: &TrainConfig) -> AccuracyCurve {
    let report = zipf_lm::train(cfg).expect("training run");
    let points = report
        .epochs
        .iter()
        .map(|e| (e.epoch + 1, e.valid_ppl))
        .collect();
    AccuracyCurve { label, points }
}

/// Curves as one fenced table: a row per epoch, a column per curve.
fn curves_table(curves: &[AccuracyCurve]) -> String {
    let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
    let rows: Vec<Vec<String>> = curves[0]
        .points
        .iter()
        .enumerate()
        .map(|(i, (epoch, _))| {
            let mut row = vec![epoch.to_string()];
            row.extend(curves.iter().map(|c| format!("{:.2}", c.points[i].1)));
            row
        })
        .collect();
    fenced(&format!("epoch|{}", labels.join("|")), &rows)
}

/// Base configuration for the accuracy experiments; `quick` trades
/// fidelity for seconds-scale runtime.
fn accuracy_cfg(quick: bool) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word {
            vocab: if quick { 300 } else { 1500 },
        },
        gpus: 2,
        batch: 4,
        seq_len: 10,
        steps_per_epoch: 0, // full shard per epoch
        epochs: if quick { 3 } else { 4 },
        base_lr: 0.35,
        lr_decay: 0.85,
        method: Method::unique(),
        seed: 42,
        tokens: if quick { 80_000 } else { 240_000 },
        ..TrainConfig::default()
    }
}

/// Figure 5: word-LM perplexity vs epoch at three GPU counts. The paper
/// uses 16/32/64; we keep the same 1:2:4 ratios at 2/4/8 simulated GPUs.
pub fn fig5(quick: bool) -> Vec<AccuracyCurve> {
    [2usize, 4, 8]
        .iter()
        .map(|&g| {
            let mut cfg = accuracy_cfg(quick);
            cfg.gpus = g;
            curve(format!("{g} gpu"), &cfg)
        })
        .collect()
}

/// §V-A compression accuracy: word-LM perplexity after training without
/// and with FP16 compression-scaling, `(without, with)`.
pub fn compression_accuracy(quick: bool) -> (f64, f64) {
    let mut cfg = accuracy_cfg(quick);
    cfg.method = Method::unique_seeded();
    let without = zipf_lm::train(&cfg).expect("run").final_ppl();
    cfg.method = Method::full();
    let with = zipf_lm::train(&cfg).expect("run").final_ppl();
    (without, with)
}

/// How far apart the curves are at each epoch, `max / min − 1`.
fn spread(curves: &[AccuracyCurve]) -> String {
    let spreads: Vec<String> = (0..curves[0].points.len())
        .map(|i| {
            let ppl = curves.iter().map(|c| c.points[i].1);
            let (lo, hi) = ppl.fold((f64::MAX, f64::MIN), |(lo, hi), p| (lo.min(p), hi.max(p)));
            format!("{:.1} %", (hi / lo - 1.0) * 100.0)
        })
        .collect();
    spreads.join(" / ")
}

/// EXPERIMENTS.md's `fig5` block: the curves and their spread, then
/// §V-A's final perplexity without and with compression
/// ([`compression_accuracy`]), each beside the paper's figures.
pub fn fig5_block(curves: &[AccuracyCurve], (without, with): (f64, f64)) -> String {
    format!(
        "{}\nGPU counts apart (max / min − 1) by epoch: {}. \
         Paper at epoch 2, 16 / 32 / 64 GPUs: 73.5 / 72.1 / 72.4.\n\n\
         §V-A, final perplexity at 2 GPUs without / with FP16 compression-scaling: \
         {without:.4} / {with:.4}. Paper, after one epoch: 84.68 / 84.12.\n",
        curves_table(curves),
        spread(curves)
    )
}

/// Figure 7: seeding strategies at a fixed GPU count (the paper uses 64;
/// we use 8, where log2 G and ln G round to the same seed count).
pub fn fig7(quick: bool) -> Vec<AccuracyCurve> {
    SeedStrategy::figure7_strategies()
        .into_iter()
        .map(|s| {
            let mut cfg = accuracy_cfg(quick);
            cfg.gpus = 8;
            cfg.batch = 2;
            cfg.method = Method {
                unique: true,
                seeding: s,
                compression: None,
            };
            curve(s.label().to_string(), &cfg)
        })
        .collect()
}

/// EXPERIMENTS.md's `fig7` block: a curve per seeding strategy, how far
/// Zipf's-freq is from per-GPU seeds (G) at each epoch, then the paper's
/// reading of its Figure 7.
pub fn fig7_block(curves: &[AccuracyCurve]) -> String {
    // `figure7_strategies` lists G first and Zipf's-freq second.
    let (g, zipf) = (&curves[0].points, &curves[1].points);
    let apart: Vec<String> = g
        .iter()
        .zip(zipf)
        .map(|(g, z)| format!("{:.1} %", (z.1 / g.1 - 1.0).abs() * 100.0))
        .collect();
    format!(
        "{}\nZipf's-freq apart from G by epoch: {}. Paper (64 GPUs): Zipf's-freq gives \
         perplexities similar to G's, and log10 G is the least stable.\n",
        curves_table(curves),
        apart.join(" / ")
    )
}

/// Figure 8: char-LM perplexity vs epoch at three GPU counts.
pub fn fig8(quick: bool) -> Vec<AccuracyCurve> {
    [2usize, 4, 8]
        .iter()
        .map(|&g| {
            let mut cfg = accuracy_cfg(quick);
            cfg.model = ModelKind::Char { vocab: 98 };
            cfg.gpus = g;
            cfg.base_lr = 0.8;
            curve(format!("{g} gpu"), &cfg)
        })
        .collect()
}

/// EXPERIMENTS.md's `fig8` block: the curves and their spread, then the
/// paper's.
pub fn fig8_block(curves: &[AccuracyCurve]) -> String {
    format!(
        "{}\nGPU counts apart (max / min − 1) by epoch: {}. \
         Paper, 16 vs 32 GPUs: 2 % apart at epoch 2, the gap closing with epochs.\n",
        curves_table(curves),
        spread(curves)
    )
}

/// One Table V perplexity row from real miniature weak scaling.
#[derive(Debug, Clone)]
pub struct WeakScalingAccuracy {
    /// Simulated GPUs.
    pub gpus: usize,
    /// Corpus tokens (grows with GPUs — weak scaling).
    pub tokens: usize,
    /// Final validation perplexity.
    pub ppl: f64,
    /// Compression ratio vs a 16-bit/char encoding (§V-C metric).
    pub compression_ratio: f64,
}

/// Table V's accuracy trend in miniature: 1×/4×/32× data on 1×/4×/32×
/// GPUs (6/24/192 in the paper; 1/4/8-capped here), same validation set
/// semantics (fixed seed ⇒ same held-out distribution).
pub fn table5_accuracy(quick: bool) -> Vec<WeakScalingAccuracy> {
    let base_tokens = if quick { 40_000 } else { 150_000 };
    // Like Table V, the learning rate grows with scale (the paper: 2e-4 /
    // 4e-4 / 5e-4) to compensate the larger global batch.
    [(1usize, 1usize, 0.8f32), (4, 8, 1.1), (8, 32, 1.4)]
        .iter()
        .map(|&(g, data_mult, base_lr)| {
            let cfg = TrainConfig {
                model: ModelKind::Char { vocab: 200 },
                gpus: g,
                batch: 4,
                seq_len: 10,
                steps_per_epoch: 0,
                epochs: if quick { 1 } else { 2 },
                base_lr,
                lr_decay: 0.9,
                method: Method::full(),
                seed: 1234, // fixed so the validation distribution matches
                tokens: base_tokens * data_mult,
                ..TrainConfig::default()
            };
            let report = zipf_lm::train(&cfg).expect("run");
            let ppl = report.final_ppl();
            WeakScalingAccuracy {
                gpus: g,
                tokens: cfg.tokens,
                ppl,
                compression_ratio: 16.0 / ppl.log2(),
            }
        })
        .collect()
}

/// EXPERIMENTS.md's `table5` block: each miniature row beside the Table V
/// row it stands in for, the gains over the first row, then the paper's
/// compression ratio.
pub fn table5_block(rows: &[WeakScalingAccuracy]) -> String {
    // Table V's perplexities at 6 / 24 / 192 GPUs.
    let paper_ppl = [17.06, 13.6, 11.1];
    let gain = |ppl: f64, first: f64| format!("{:.0} %", (first - ppl) / first * 100.0);
    let body: Vec<Vec<String>> = rows
        .iter()
        .zip(WEAK_SCALING_WORLDS.iter().zip(paper_ppl))
        .map(|(r, (paper_gpus, paper))| {
            vec![
                r.gpus.to_string(),
                r.tokens.to_string(),
                format!("{:.2}", r.ppl),
                gain(r.ppl, rows[0].ppl),
                format!("{:.2}", r.compression_ratio),
                paper_gpus.to_string(),
                paper.to_string(),
                gain(paper, paper_ppl[0]),
            ]
        })
        .collect();
    let headers = "GPUs|tokens|ppl|gain|compr-ratio|paper GPUs|paper ppl|paper gain";
    format!(
        "{}\nCompression ratio: 16 bits over the model's bits per symbol. Paper: 6.3.\n",
        fenced(headers, &body)
    )
}

/// One world of the Table V weak-scaling column at the paper's *real*
/// GPU counts (6/24/192), trained through the bounded run pool and the
/// two-tier hierarchical collectives.
#[derive(Debug, Clone)]
pub struct WeakScalingRow {
    /// Simulated GPUs (a real rank thread group, pool-multiplexed).
    pub gpus: usize,
    /// Nodes spanned on the hardware preset's node size.
    pub nodes: usize,
    /// Corpus tokens (grows with GPUs — weak scaling).
    pub tokens: usize,
    /// Final epoch training loss (bit-identical to the flat ring).
    pub train_loss: f64,
    /// Final validation perplexity.
    pub final_ppl: f64,
    /// Rank 0's summed simulated step time.
    pub sim_time_ps: u64,
    /// Recorder bytes on the intra-node (PCIe) tier.
    pub wire_intra_bytes: u64,
    /// Recorder bytes on the inter-node (IB) tier.
    pub wire_inter_bytes: u64,
    /// Attributed wire time on the intra-node tier (rank 0).
    pub wire_intra_ps: u64,
    /// Attributed wire time on the inter-node tier (rank 0).
    pub wire_inter_ps: u64,
    /// Of `wire_intra_ps`, the hop-latency (α) part: Σ over rank 0's
    /// steps of `StepMetrics::wire_intra_alpha_ps`. Overlap is off in
    /// this experiment, so priced = exposed and α ≤ wire.
    pub alpha_intra_ps: u64,
    /// Of `wire_inter_ps`, the hop-latency (α) part.
    pub alpha_inter_ps: u64,
}

impl WeakScalingRow {
    /// α's share of each tier's wire time, `(intra, inter)`; 0 where a
    /// tier carried nothing.
    pub fn alpha_share(&self) -> (f64, f64) {
        let share = |alpha: u64, wire: u64| alpha as f64 / wire.max(1) as f64;
        (
            share(self.alpha_intra_ps, self.wire_intra_ps),
            share(self.alpha_inter_ps, self.wire_inter_ps),
        )
    }
}

/// Table V's world sizes: 1 node, 3 nodes, 24 nodes of 8.
pub const WEAK_SCALING_WORLDS: [usize; 3] = [6, 24, 192];

/// Run-slot cap for the weak-scaling runs — the whole point is that
/// 192 ranks multiplex over this many OS threads.
pub const WEAK_SCALING_POOL: usize = 8;

/// The char-LM probe the weak-scaling, overlap and codec sweeps train
/// at world `g`: a 48-symbol char LM on the unique path, two-tier
/// collectives under the bounded pool, 3 steps (8 without `quick`).
fn char_probe(g: usize, batch: usize, seq_len: usize, tokens: usize, quick: bool) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Char { vocab: 48 },
        gpus: g,
        batch,
        seq_len,
        steps_per_epoch: if quick { 3 } else { 8 },
        epochs: 1,
        base_lr: 0.2,
        lr_decay: 0.9,
        method: Method::unique(),
        seed: 1234,
        tokens,
        comm: CommConfig::hierarchical_pooled(WEAK_SCALING_POOL),
        ..TrainConfig::default()
    }
}

/// Table V's 6/24/192-GPU column at real world sizes: data scales with
/// the world (weak scaling), comm goes through the hierarchical
/// two-tier schedule under the bounded pool, and every world is
/// checked bit-identical against an unpooled flat-ring run before its
/// row is reported — the experiment is its own correctness guard. It
/// also asserts the reading ROADMAP item 1 starts from: on every
/// multi-node world at least 95 % of rank 0's inter-node wire time is
/// hop latency, not bytes.
pub fn weak_scaling(quick: bool) -> Vec<WeakScalingRow> {
    let base_tokens = if quick { 30_000 } else { 90_000 };
    WEAK_SCALING_WORLDS
        .iter()
        .map(|&g| {
            let tokens = base_tokens * g / WEAK_SCALING_WORLDS[0];
            let cfg = char_probe(g, 1, 6, tokens, quick);
            let hier = zipf_lm::train(&cfg).expect("hierarchical pooled run");
            let flat = zipf_lm::train(&TrainConfig {
                comm: CommConfig::flat(),
                ..cfg.clone()
            })
            .expect("flat unpooled run");

            // Topology must never change results: the hierarchical
            // schedule reduces in canonical ascending-rank order, so
            // every step loss is bit-equal to the flat ring's.
            assert_eq!(hier.steps.len(), flat.steps.len());
            for (h, f) in hier.steps.iter().zip(&flat.steps) {
                assert_eq!(
                    h.train_loss.to_bits(),
                    f.train_loss.to_bits(),
                    "world {g} step {} diverged from the flat ring",
                    h.step
                );
                assert_eq!(h.attribution.total_ps(), h.sim_time_ps);
            }

            let row = WeakScalingRow {
                gpus: g,
                nodes: simgpu::NodeLayout::new(
                    g,
                    simgpu::HardwareConfig::titan_x_cluster().gpus_per_node,
                )
                .nodes(),
                tokens,
                train_loss: hier.epochs.last().unwrap().train_loss,
                final_ppl: hier.final_ppl(),
                sim_time_ps: hier.steps.iter().map(|s| s.sim_time_ps).sum(),
                wire_intra_bytes: hier.traffic.intra_bytes(),
                wire_inter_bytes: hier.traffic.inter_bytes(),
                wire_intra_ps: hier.attribution.wire_intra_ps,
                wire_inter_ps: hier.attribution.wire_inter_ps,
                alpha_intra_ps: hier.steps.iter().map(|s| s.wire_intra_alpha_ps).sum(),
                alpha_inter_ps: hier.steps.iter().map(|s| s.wire_inter_alpha_ps).sum(),
            };
            assert!(row.alpha_intra_ps <= row.wire_intra_ps, "{row:?}");
            assert!(row.alpha_inter_ps <= row.wire_inter_ps, "{row:?}");
            if row.nodes > 1 {
                let (_, inter) = row.alpha_share();
                assert!(inter >= 0.95, "world {g}: inter-node α share {inter}");
            }
            row
        })
        .collect()
}

/// EXPERIMENTS.md's `weak` block: the golden's rows in paper units, then
/// the first-to-last blow-up of simulated time beside Table V's.
pub fn weak_block(rows: &[WeakScalingRow]) -> String {
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
    let headers = "GPUs|nodes|tokens|ppl|sim ms|intra B|inter B|α/intra|α/inter";
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let paper = perfmodel::paper::rows("table5.blowup")[0].paper;
    format!(
        "{}\n{} → {} GPUs: {:.1}× the simulated time for {}× the data; Table V: {:.2}× \
         (`table5.blowup`). α/tier is the share of rank 0's wire time on that tier that is \
         hop latency, not bytes.\n",
        fenced(headers, &body),
        first.gpus,
        last.gpus,
        last.sim_time_ps as f64 / first.sim_time_ps as f64,
        last.tokens / first.tokens,
        paper.expect("Table V's blow-up"),
    )
}

/// `BENCH_weak_scaling.json`.
impl GoldenRow for WeakScalingRow {
    const NAME: &'static str = "weak_scaling";
    const ARTIFACT: &'static str = "weak";
    fn header() -> Vec<(&'static str, String)> {
        vec![("pool_workers", WEAK_SCALING_POOL.to_string())]
    }
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("gpus", self.gpus.to_string()),
            ("nodes", self.nodes.to_string()),
            ("tokens", self.tokens.to_string()),
            ("train_loss", self.train_loss.to_string()),
            ("final_ppl", self.final_ppl.to_string()),
            ("sim_time_ps", self.sim_time_ps.to_string()),
            ("wire_intra_bytes", self.wire_intra_bytes.to_string()),
            ("wire_inter_bytes", self.wire_inter_bytes.to_string()),
            ("wire_intra_ps", self.wire_intra_ps.to_string()),
            ("wire_inter_ps", self.wire_inter_ps.to_string()),
            ("alpha_intra_ps", self.alpha_intra_ps.to_string()),
            ("alpha_inter_ps", self.alpha_inter_ps.to_string()),
        ]
    }
}

/// One world of the overlapped-schedule comparison: the same training
/// run priced under three step schedules (all numerically
/// bit-identical — the schedule only moves modelled time).
#[derive(Debug, Clone)]
pub struct OverlapRow {
    /// Simulated GPUs.
    pub gpus: usize,
    /// Gradient-bucket size used by the bucketed schedules.
    pub bucket_bytes: u64,
    /// Summed `sim_time_ps` under the default serial schedule
    /// (`CommConfig::hierarchical_pooled`, no buckets, no overlap).
    /// This is the pre-refactor step model, held by the golden.
    pub flat_sim_time_ps: u64,
    /// Summed `sim_time_ps` with gradient buckets but overlap off:
    /// the serial reference the overlapped schedule is measured
    /// against (same collectives, same latency terms).
    pub serial_sim_time_ps: u64,
    /// Summed `sim_time_ps` with buckets *and* overlap on — bucket
    /// `i`'s collective runs while bucket `i+1`'s compute streams.
    pub overlapped_sim_time_ps: u64,
    /// Rank 0's summed `overlapped_ps` bucket: comm hidden under
    /// compute by the schedule.
    pub hidden_ps: u64,
    /// Final epoch training loss (identical across all three runs).
    pub train_loss: f64,
}

/// Bucket size for the overlap comparison. Large enough that the extra
/// per-bucket latency terms stay small next to the payload's wire
/// time, small enough that the dense gradient still splits into
/// several buckets at these model shapes.
pub const OVERLAP_BUCKET_BYTES: u64 = 65_536;

/// Worlds for the overlap comparison: 6 nodes and the paper's
/// wire-dominated 24-node world.
pub const OVERLAP_WORLDS: [usize; 2] = [48, 192];

/// Serial-vs-overlapped schedule comparison at paper-scale
/// wire-dominated worlds. Each world trains three times under the
/// bounded pool — default serial, bucketed serial, bucketed
/// overlapped — asserts the schedules never change numerics and that
/// the attribution identity stays exact, and reports the summed
/// simulated times. The experiment is its own correctness guard:
/// overlap must strictly reduce `sim_time_ps` against the bucketed
/// serial reference.
pub fn overlap_comparison(quick: bool) -> Vec<OverlapRow> {
    OVERLAP_WORLDS
        .iter()
        .map(|&g| {
            // batch × seq_len sets the compute window the schedule can
            // hide comm under; these worlds are latency-dominated, so
            // the reduction is bounded by the compute share of a step.
            let cfg = char_probe(g, 4, 32, 60_000 * g / OVERLAP_WORLDS[0], quick);
            let flat = zipf_lm::train(&cfg).expect("serial unbucketed run");
            let serial = zipf_lm::train(&TrainConfig {
                comm: CommConfig {
                    bucket_bytes: OVERLAP_BUCKET_BYTES,
                    ..CommConfig::hierarchical_pooled(WEAK_SCALING_POOL)
                },
                ..cfg.clone()
            })
            .expect("serial bucketed run");
            let over = zipf_lm::train(&TrainConfig {
                comm: CommConfig::hierarchical_pooled(WEAK_SCALING_POOL)
                    .overlapped(OVERLAP_BUCKET_BYTES),
                ..cfg.clone()
            })
            .expect("overlapped run");

            // The schedule moves modelled time only — never bits.
            assert_eq!(flat.steps.len(), serial.steps.len());
            assert_eq!(flat.steps.len(), over.steps.len());
            let mut hidden = 0u64;
            for ((f, s), o) in flat.steps.iter().zip(&serial.steps).zip(&over.steps) {
                assert_eq!(f.train_loss.to_bits(), s.train_loss.to_bits());
                assert_eq!(f.train_loss.to_bits(), o.train_loss.to_bits());
                assert_eq!(s.attribution.total_ps(), s.sim_time_ps);
                assert_eq!(o.attribution.total_ps(), o.sim_time_ps);
                assert_eq!(s.attribution.overlapped_ps, 0, "overlap off hid comm");
                assert!(o.sim_time_ps <= s.sim_time_ps, "critical path > serial");
                hidden += o.attribution.overlapped_ps;
            }
            let total = |r: &TrainReport| r.steps.iter().map(|s| s.sim_time_ps).sum::<u64>();
            let (serial_ps, over_ps) = (total(&serial), total(&over));
            assert!(
                over_ps < serial_ps,
                "world {g}: overlap did not reduce sim time ({over_ps} vs {serial_ps})"
            );
            OverlapRow {
                gpus: g,
                bucket_bytes: OVERLAP_BUCKET_BYTES,
                flat_sim_time_ps: total(&flat),
                serial_sim_time_ps: serial_ps,
                overlapped_sim_time_ps: over_ps,
                hidden_ps: hidden,
                train_loss: over.epochs.last().unwrap().train_loss,
            }
        })
        .collect()
}

/// `BENCH_overlap.json`: the overlap-off columns are the pre-refactor
/// step times.
impl GoldenRow for OverlapRow {
    const NAME: &'static str = "overlap";
    const ARTIFACT: &'static str = "overlap";
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("gpus", self.gpus.to_string()),
            ("bucket_bytes", self.bucket_bytes.to_string()),
            ("flat_sim_time_ps", self.flat_sim_time_ps.to_string()),
            ("serial_sim_time_ps", self.serial_sim_time_ps.to_string()),
            (
                "overlapped_sim_time_ps",
                self.overlapped_sim_time_ps.to_string(),
            ),
            ("hidden_ps", self.hidden_ps.to_string()),
            ("train_loss", self.train_loss.to_string()),
        ]
    }
}

/// One (world, codec) cell of the volume-vs-compute crossover sweep:
/// the same training run under one wire codec, with its recorded wire
/// volume and modelled time. All cells of a world are numerically
/// bit-identical — lossless codecs move bytes and picoseconds only.
#[derive(Debug, Clone)]
pub struct CodecCrossoverRow {
    /// Simulated GPUs.
    pub gpus: usize,
    /// Codec name (`WireCodecId::name`).
    pub codec: &'static str,
    /// Summed `sim_time_ps` over the run — wire time saved by the
    /// codec minus the encode/decode compute it buys.
    pub sim_time_ps: u64,
    /// Recorder total over the run (all collectives, both tiers).
    pub wire_bytes: u64,
    /// Recorder ALLGATHER total — the unique-index path the
    /// delta+varint codec compresses.
    pub index_gather_bytes: u64,
    /// Final epoch training loss (identical across the whole ladder).
    pub train_loss: f64,
}

/// Worlds for the codec crossover: an all-intra single node (where the
/// fat NVLink-class links make codec compute a bad trade), the 6-node
/// world, and the paper's wire-dominated 24-node world.
pub const CODEC_CROSSOVER_WORLDS: [usize; 3] = [8, 48, 192];

/// The volume-vs-compute crossover sweep: every world in
/// [`CODEC_CROSSOVER_WORLDS`] trains once per rung of the codec ladder
/// (identity + the three lossless codecs) on the two-tier pooled
/// topology. Asserts the lossless contract inline — losses bit-equal to
/// identity, wire volume never above identity, and the unique-index
/// path *strictly* compressed at every multi-node world — then reports
/// the byte/time surface so the crossover (where cheaper wire stops
/// paying for codec compute) is machine-readable.
pub fn codec_crossover(quick: bool) -> Vec<CodecCrossoverRow> {
    let mut rows = Vec::new();
    for &g in &CODEC_CROSSOVER_WORLDS {
        let cfg = char_probe(g, 4, 32, 60_000 * g.max(48) / 48, quick);
        let identity = zipf_lm::train(&cfg).expect("identity run");
        let total_ps = |r: &TrainReport| r.steps.iter().map(|s| s.sim_time_ps).sum::<u64>();
        let mut push = |codec: simgpu::WireCodecId, rep: &TrainReport| {
            rows.push(CodecCrossoverRow {
                gpus: g,
                codec: codec.name(),
                sim_time_ps: total_ps(rep),
                wire_bytes: rep.traffic.total_bytes(),
                index_gather_bytes: rep.traffic.allgather_bytes,
                train_loss: rep.epochs.last().unwrap().train_loss,
            });
        };
        push(simgpu::WireCodecId::Identity, &identity);
        for codec in simgpu::WireCodecId::lossless_ladder() {
            let rep = zipf_lm::train(&TrainConfig {
                comm: CommConfig::hierarchical_pooled(WEAK_SCALING_POOL).with_codec(codec),
                ..cfg.clone()
            })
            .expect("codec run");
            // Lossless means lossless: bit-equal losses, never-expand
            // wire, exact attribution under codec pricing.
            assert_eq!(identity.steps.len(), rep.steps.len());
            for (a, b) in identity.steps.iter().zip(&rep.steps) {
                assert_eq!(
                    a.train_loss.to_bits(),
                    b.train_loss.to_bits(),
                    "world {g} codec {}: loss diverged",
                    codec.name()
                );
                assert_eq!(b.attribution.total_ps(), b.sim_time_ps);
            }
            assert!(
                rep.traffic.total_bytes() <= identity.traffic.total_bytes(),
                "world {g} codec {}: wire volume expanded",
                codec.name()
            );
            if g >= 48 && codec.index_codec().is_some() {
                assert!(
                    rep.traffic.allgather_bytes < identity.traffic.allgather_bytes,
                    "world {g} codec {}: unique-index path did not compress",
                    codec.name()
                );
            }
            push(codec, &rep);
        }
    }
    rows
}

/// `BENCH_codec_crossover.json`.
impl GoldenRow for CodecCrossoverRow {
    const NAME: &'static str = "codec_crossover";
    const ARTIFACT: &'static str = "codec_crossover";
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("gpus", self.gpus.to_string()),
            ("codec", json_str(self.codec)),
            ("sim_time_ps", self.sim_time_ps.to_string()),
            ("wire_bytes", self.wire_bytes.to_string()),
            ("index_gather_bytes", self.index_gather_bytes.to_string()),
            ("train_loss", self.train_loss.to_string()),
        ]
    }
}

/// One chaos-recovery scenario: a named fault composition driven
/// through the durable on-disk checkpoint store, with its recovery
/// breakdown. Every field is simulated (rounds, restored cuts, modelled
/// backoff) — no wall clock — so the rows are deterministic.
#[derive(Debug, Clone)]
pub struct ChaosRecoveryRow {
    /// Scenario name (one per injected fault class).
    pub scenario: &'static str,
    /// Starting world size.
    pub world: usize,
    /// Recovery rounds the elastic driver took.
    pub rounds: u64,
    /// Step of the snapshot the *first* recovery restored from
    /// (0 = cold restart; real snapshots start at step 2).
    pub restored_step: u64,
    /// Steps of progress rolled back by the first recovery.
    pub steps_lost: u64,
    /// Summed simulated backoff across all recovery rounds.
    pub backoff_ps: u64,
    /// Corrupt checkpoint frames the scan detected and skipped.
    pub corrupt_frames: u64,
    /// World size the run finished at.
    pub final_world: usize,
    /// Final epoch training loss (deterministic per scenario).
    pub train_loss: f64,
}

/// World size and failure schedule shared by every chaos scenario.
const CHAOS_WORLD: usize = 4;

/// The chaos-recovery breakdown: one elastic run per fault class —
/// clean transient kill, kill after each flavour of disk rot (torn
/// write, bit flip, unlink), and a two-round double kill — each over a
/// real on-disk [`zipf_lm::CheckpointDir`] with the fault injected by the
/// store itself. Reports how far each scenario rolled back and what
/// the modelled backoff cost, so a regression in recovery behaviour
/// (wrong cut chosen, extra rounds, corruption missed) moves the
/// artifact and trips the byte check. It has one size, so no `quick`.
pub fn chaos_recovery() -> Vec<ChaosRecoveryRow> {
    use simgpu::{DiskFault, DiskFaultPlan, FaultPlan};
    use std::sync::Arc;
    use zipf_lm::{CheckpointDir, HealthEvent, RecoveryPolicy, RunOptions};

    let cfg = TrainConfig {
        model: ModelKind::Word { vocab: 200 },
        gpus: CHAOS_WORLD,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 6,
        epochs: 2,
        base_lr: 0.3,
        lr_decay: 0.95,
        method: Method::unique_seeded(),
        seed: 7,
        tokens: 30_000,
        checkpoint: CheckpointConfig {
            every_steps: 2,
            keep_last: 8,
        },
        ..TrainConfig::default()
    };
    let policy = RecoveryPolicy {
        max_restarts: CHAOS_WORLD,
        backoff: std::time::Duration::from_millis(10),
    };
    let scenarios: [(&'static str, FaultPlan, DiskFaultPlan); 5] = [
        (
            "transient-kill",
            FaultPlan::none().kill_rank_transient(2, 5),
            DiskFaultPlan::none(),
        ),
        (
            "torn-write",
            FaultPlan::none().kill_rank_transient(2, 5),
            DiskFaultPlan::none().inject(1, 4, DiskFault::TornWrite { keep: 7 }),
        ),
        (
            "bit-flip",
            FaultPlan::none().kill_rank_transient(2, 5),
            DiskFaultPlan::none().inject(1, 4, DiskFault::BitFlip { byte: 45, bit: 2 }),
        ),
        (
            "unlink",
            FaultPlan::none().kill_rank_transient(2, 5),
            DiskFaultPlan::none().inject(0, 4, DiskFault::Unlink),
        ),
        (
            "double-kill",
            FaultPlan::none()
                .kill_rank_transient(1, 3)
                .kill_rank_transient(2, 9),
            DiskFaultPlan::none(),
        ),
    ];
    scenarios
        .into_iter()
        .enumerate()
        .map(|(i, (scenario, faults, disk))| {
            let root = std::env::temp_dir().join(format!(
                "zlm-bench-chaos-{}-{i}-{scenario}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let backend = Arc::new(
                CheckpointDir::open_with_faults(&root, cfg.checkpoint.keep_last, disk)
                    .expect("open chaos checkpoint dir"),
            );
            let opts = RunOptions {
                faults,
                checkpoints: Some(backend),
                recovery: Some(policy),
                ..RunOptions::default()
            };
            // Rank 0's report carries the whole recovery history and
            // the last round's world.
            let report = zipf_lm::run(&cfg, &opts)
                .report()
                .unwrap_or_else(|e| panic!("chaos scenario {scenario} failed: {e:?}"));
            let _ = std::fs::remove_dir_all(&root);
            let first = report.recoveries.first();
            ChaosRecoveryRow {
                scenario,
                world: CHAOS_WORLD,
                rounds: report.recoveries.len() as u64,
                restored_step: first.and_then(|ev| ev.restored_step()).unwrap_or(0),
                steps_lost: first.map_or(0, |ev| ev.steps_lost),
                backoff_ps: report.recoveries.iter().map(|ev| ev.backoff_ps).sum(),
                corrupt_frames: report
                    .health
                    .iter()
                    .filter(|h| matches!(h, HealthEvent::CheckpointCorrupt { .. }))
                    .count() as u64,
                final_world: report.gpus,
                train_loss: report.epochs.last().expect("epochs").train_loss,
            }
        })
        .collect()
}

/// `BENCH_chaos.json`.
impl GoldenRow for ChaosRecoveryRow {
    const NAME: &'static str = "chaos";
    const ARTIFACT: &'static str = "chaos";
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scenario", json_str(self.scenario)),
            ("world", self.world.to_string()),
            ("rounds", self.rounds.to_string()),
            ("restored_step", self.restored_step.to_string()),
            ("steps_lost", self.steps_lost.to_string()),
            ("backoff_ps", self.backoff_ps.to_string()),
            ("corrupt_frames", self.corrupt_frames.to_string()),
            ("final_world", self.final_world.to_string()),
            ("train_loss", self.train_loss.to_string()),
        ]
    }
}

/// §V-D comparison against Puri et al. (Amazon Reviews char LM on 128
/// V100s): our char-LM's validation bits per character on the ar
/// profile. [`sota_block`] sets it beside both reported ones; the
/// infrastructure-normalised argument is `perfmodel::paper`'s `sota.*`
/// rows.
pub fn sota_comparison(quick: bool) -> f64 {
    let cfg = TrainConfig {
        model: ModelKind::Char { vocab: 98 },
        gpus: 4,
        batch: 4,
        seq_len: 12,
        steps_per_epoch: 0,
        epochs: if quick { 2 } else { 4 },
        base_lr: 0.8,
        lr_decay: 0.9,
        method: Method::full(),
        seed: 77,
        tokens: if quick { 60_000 } else { 300_000 },
        ..TrainConfig::default()
    };
    let report = zipf_lm::train(&cfg).expect("run");
    report.epochs.last().unwrap().valid_bpc
}

/// EXPERIMENTS.md's `sota` block: our BPC beside §V-D's two.
pub fn sota_block(bpc: f64) -> String {
    let rows = [
        (
            "ours",
            bpc,
            "scaled-down char LM, 98-symbol synthetic ar profile",
        ),
        ("paper", 1.208, "full scale, 1 epoch on 64 Titan X"),
        ("Puri et al.", 1.218, "1 epoch on 128 V100"),
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(who, bpc, run)| vec![who.to_string(), format!("{bpc:.3}"), run.to_string()])
        .collect();
    fenced("model|BPC|run", &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Holds EXPERIMENTS.md's block `name` to `body`, its quick run.
    fn assert_block(name: &str, body: &str) {
        let doc = std::fs::read_to_string(EXPERIMENTS_MD).expect("read EXPERIMENTS.md");
        assert!(
            perfmodel::paper::with_block(&doc, name, body) == doc,
            "EXPERIMENTS.md's `{name}` block is not what its quick run renders; if the change \
             is meant, rewrite it with `cargo run --release -p zlm-bench --bin repro -- {name}`. \
             The run renders:\n{body}"
        );
    }

    #[test]
    fn fig1_fits_power_law_near_064() {
        let series = fig1(true);
        assert_block("fig1", &fig1_block(&series));
        for s in &series {
            assert!(
                (s.fit.exponent - 0.64).abs() < 0.12,
                "{}: exponent {}",
                s.name,
                s.fit.exponent
            );
            assert!(s.fit.r_squared > 0.97, "{}: r2 {}", s.name, s.fit.r_squared);
            // Every point far below the x = y "batch" line once N is
            // large (the ~100× gap the paper highlights).
            let last = s.points.last().unwrap();
            assert!(last.types * 5 < last.tokens);
        }
    }

    #[test]
    fn table1_scales() {
        let rows = table1(100_000.0, 3);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.stats.tokens > 0);
            assert!(r.stats.types <= r.stats.tokens);
        }
        // Chinese synthesizes 3 bytes/char.
        let tieba = rows.iter().find(|r| r.name == "tieba").unwrap();
        assert_eq!(tieba.stats.bytes, tieba.stats.chars * 3);
    }

    #[test]
    fn fig5_curves_improve_and_converge() {
        let curves = fig5(true);
        let (without, with) = compression_accuracy(true);
        assert_block("fig5", &fig5_block(&curves, (without, with)));
        let finals: Vec<f64> = curves.iter().map(|c| c.points.last().unwrap().1).collect();
        assert!(curves.iter().all(falls_every_epoch), "{curves:?}");
        // The curves converge into one regime, and at the last epoch a
        // larger global batch trails (the paper: a few more iterations
        // reach the same accuracy).
        assert!(finals.windows(2).all(|w| w[0] < w[1]), "{finals:?}");
        assert!(
            finals[2] / finals[0] < 1.35,
            "curves did not converge: {finals:?}"
        );
        // §V-A: compression is indistinguishable, within 0.01 %.
        assert!((with / without - 1.0).abs() < 1e-4, "{without} vs {with}");
    }

    #[test]
    fn fig7_seed_counts_set_the_curves() {
        let curves = fig7(true);
        assert_block("fig7", &fig7_block(&curves));
        // At G = 8, log2 G and ln G round to the same seed count, so
        // they train the same run.
        assert_eq!(curves[2].points, curves[3].points);
        for c in &curves {
            let (first, last) = (c.points[0].1, c.points.last().unwrap().1);
            assert!(last < first, "{c:?}");
        }
    }

    #[test]
    fn fig8_curves_fall_every_epoch() {
        let curves = fig8(true);
        assert_block("fig8", &fig8_block(&curves));
        assert!(curves.iter().all(falls_every_epoch), "{curves:?}");
    }

    /// Whether `c`'s perplexity falls from every epoch to the next.
    fn falls_every_epoch(c: &AccuracyCurve) -> bool {
        c.points.windows(2).all(|w| w[1].1 < w[0].1)
    }

    #[test]
    fn sota_bpc_is_the_block() {
        assert_block("sota", &sota_block(sota_comparison(true)));
    }

    /// Holds `R`'s committed golden to `rows`, byte for byte.
    fn assert_golden<R: GoldenRow>(rows: &[R]) {
        let path = golden_path::<R>();
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(
            golden_json(rows),
            committed,
            "BENCH_{}.json is not what its quick run renders; if the change is meant, \
             rewrite it with `cargo run --release -p zlm-bench --bin repro -- {}`",
            R::NAME,
            R::ARTIFACT
        );
    }

    #[test]
    fn weak_scaling_covers_paper_worlds_and_tiers() {
        let rows = weak_scaling(true);
        assert_golden(&rows);
        assert_block("weak", &weak_block(&rows));
        // One node: nothing ever crosses the IB tier.
        assert_eq!((rows[0].wire_inter_bytes, rows[0].wire_inter_ps), (0, 0));
    }

    #[test]
    fn overlap_comparison_reduces_wire_dominated_worlds() {
        let rows = overlap_comparison(true);
        assert_golden(&rows);
        for r in &rows {
            // The run asserts overlapped < serial; the schedule hides
            // comm, and bucketing only ever adds latency terms to the
            // serial schedule, never removes work.
            assert!(r.hidden_ps > 0, "{r:?}");
            assert!(r.serial_sim_time_ps >= r.flat_sim_time_ps, "{r:?}");
        }
    }

    #[test]
    fn codec_crossover_sweeps_ladder_and_crosses_over() {
        let rows = codec_crossover(true);
        assert_golden(&rows);
        // 4 ladder rungs (identity + 3 lossless) per world, in order.
        for (chunk, g) in rows.chunks(4).zip(CODEC_CROSSOVER_WORLDS) {
            // The sweep asserts bit-equal losses and a never-expanding
            // wire. The index path compresses at every world (strictly),
            // the gradient codec leaves it alone, and the combined codec
            // carries both savings.
            let ident = &chunk[0];
            assert!(chunk[1].index_gather_bytes < ident.index_gather_bytes);
            assert_eq!(chunk[2].index_gather_bytes, ident.index_gather_bytes);
            assert!(chunk[3].wire_bytes < chunk[1].wire_bytes, "{chunk:?}");
            // The crossover itself. The index gather crosses nodes only
            // between leaders, with each node's set: at 24 nodes the
            // index codec's byte savings still outweigh its compute, at
            // 6 nodes and on the single node they no longer do.
            let saves = chunk[1].sim_time_ps < ident.sim_time_ps;
            assert_eq!(saves, g >= 192, "{chunk:?}");
        }
    }

    #[test]
    fn chaos_recovery_rows_cover_fault_classes() {
        let rows = chaos_recovery();
        assert_golden(&rows);
        // The clean kill restores the newest cut (step 4); every disk
        // fault damages exactly one frame and rolls back to step 2.
        assert_eq!((rows[0].restored_step, rows[0].corrupt_frames), (4, 0));
        for r in &rows[1..4] {
            assert_eq!((r.restored_step, r.corrupt_frames), (2, 1), "{r:?}");
        }
        // Two kills, two rounds, doubled second backoff: 10 + 20 ms.
        assert_eq!(rows[4].rounds, 2);
        assert_eq!(rows[4].backoff_ps, 30_000_000_000);
    }

    #[test]
    fn table5_more_data_better_ppl() {
        let rows = table5_accuracy(true);
        assert_block("table5", &table5_block(&rows));
        assert_eq!(rows.len(), 3);
        for w in rows.windows(2) {
            assert!(w[1].ppl < w[0].ppl, "{rows:?}");
            assert!(w[1].compression_ratio > w[0].compression_ratio, "{rows:?}");
        }
    }
}
