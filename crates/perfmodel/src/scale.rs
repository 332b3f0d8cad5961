//! What the two full-scale models share: how a model's payload becomes
//! a predicted step on the clock, the calibrated terms added to it, and
//! the scaling-table plumbing around both.

use crate::schedule::StepSchedule;

/// One embedding exchange of a predicted step: rows each GPU sends
/// (`K`), rows distinct world-wide under uniqueness (`Ug`) and row
/// width (`D`).
pub(crate) type Rows = (usize, usize, usize);

/// The named calibrated terms of one predicted step: everything fitted
/// in a step time. The rest is physics, priced by the clock. A step of
/// `G` GPUs takes `(clock + overhead + staging + contention) × (1 +
/// straggler · log2(G / 8))`, the straggler growth counting only beyond
/// the 8-GPU anchor.
pub(crate) struct StepTerms {
    /// Fixed per-step framework overhead (kernel launches, input
    /// pipeline), seconds.
    pub overhead_s: f64,
    /// Host-staged embedding exchange, seconds.
    pub staging_s: f64,
    /// Duplicate-row update contention on the baseline path, seconds.
    pub contention_s: f64,
    /// Straggler / jitter growth of the whole step per doubling of GPUs
    /// beyond 8.
    pub straggler: f64,
}

impl StepTerms {
    /// Seconds per step: `sched` on the clock (every rank priced, the
    /// slowest sets the step) plus these terms.
    pub fn step_time(&self, sched: &StepSchedule) -> f64 {
        let clock_s = sched.price_all(&mut Vec::new())[1] as f64 * 1e-12;
        let straggler = 1.0 + self.straggler * (sched.gpus as f64 / 8.0).log2().max(0.0);
        (clock_s + self.overhead_s + self.staging_s + self.contention_s) * straggler
    }
}

/// Stamps the shared machinery onto a full-scale model type — the one
/// implementation of its predicted step, memory, step time and scaling
/// tables, inherent on both models. The type provides `payload` (its
/// dense gradient elements and exchanges), `macs_per_token` (its
/// [`crate::flops`] count), `terms`, `memory_terms` (its resident GB and
/// gather replication) and the `vocab`, `local_tokens`,
/// `tokens_per_epoch` and `cost` fields, with `TechniqueStack`,
/// `ScalingRow` and `StepSchedule` in scope; `$table` names its paper
/// table.
macro_rules! scaling_tables {
    ($model:ty, $table:ident) => {
        impl $model {
            /// The step this model predicts at `g` GPUs under `stack`,
            /// as the clock prices it: its counted FLOPs at the cluster's
            /// utilisation, as the trainer prices a live step, and its
            /// payload at identity size on a flat ring over the cluster's
            /// nodes, overlap off, unbucketed, no delays. Distinct rows
            /// count only on the unique path, as the trainer measures
            /// them.
            pub fn schedule(&self, g: usize, stack: TechniqueStack) -> StepSchedule<'_> {
                use $crate::schedule::{ExchangeLoad, StepLoad};
                let (dense_elems, input, output) = self.payload(g, stack);
                let xcfg = stack.exchange();
                let elem = xcfg.grad_wire().elem_bytes();
                // A node's set is the payload's distinct rows at one
                // node's GPUs; only a two-tier index gather reads it.
                let gpn = self.cost.hardware().gpus_per_node;
                let (_, node_input, node_output) = self.payload(gpn.min(g), stack);
                let exchange = |(k, ug, dim): $crate::scale::Rows, node: $crate::scale::Rows| {
                    let unique = |rows| if xcfg.unique { rows } else { 0 };
                    let (ug, node) = (unique(ug), unique(node.1));
                    let reduce = (ug * dim) as u64 * elem;
                    ExchangeLoad {
                        local_tokens: k,
                        unique_global: ug,
                        index_enc_bytes: (g * k) as u64 * 4,
                        node_unique: simgpu::NodeLayout::new(g, gpn).nodes() * node,
                        reduce: (reduce, reduce),
                    }
                };
                let dense = dense_elems as u64 * elem;
                let flops = $crate::flops::step(self.macs_per_token(), self.local_tokens);
                StepSchedule {
                    cost: &self.cost,
                    xcfg,
                    gpus: g,
                    gpn,
                    overlap: false,
                    compute_ps: simgpu::secs_to_ps(self.cost.compute_time(flops)),
                    dense_elems,
                    dim: input.2,
                    out_dim: output.map_or(input.2, |o| o.2),
                    delay_ps: vec![0; g],
                    load: StepLoad {
                        dense: (dense, dense),
                        input: exchange(input, node_input),
                        output: output.zip(node_output).map(|(x, node)| exchange(x, node)),
                    },
                }
            }

            /// The embedding exchanges this model predicts at `g` GPUs
            /// under `stack` — the ones [`Self::schedule`] prices — as
            /// [`crate::memory::exchange_bytes`] takes them: `G·K` rows
            /// gathered, the row width and, on the unique path, `(Ui,
            /// Ug)`: `Ui` by the unique-words law at `K` up to the
            /// vocabulary, `Ug` the payload's.
            pub fn exchanges(
                &self,
                g: usize,
                stack: TechniqueStack,
            ) -> Vec<(u64, usize, Option<(u64, u64)>)> {
                use $crate::law::{unique_words, ALPHA, FIG1_PREFACTOR};
                let (_, input, output) = self.payload(g, stack);
                [Some(input), output]
                    .into_iter()
                    .flatten()
                    .map(|(k, ug, dim)| {
                        let ui = unique_words(k as u64, FIG1_PREFACTOR, ALPHA, self.vocab);
                        let distinct = stack.unique().then_some((ui, ug as u64));
                        ((g * k) as u64, dim, distinct)
                    })
                    .collect()
            }

            /// Peak per-GPU memory in GB: the model's resident term plus
            /// its exchange buffers — the shared count summed over
            /// [`Self::exchanges`] — scaled by its gather replication. On
            /// the baseline, each exchange also holds every peer's sparse
            /// gradient densified into a vocabulary-wide FP32 table,
            /// `G·V·D·4` bytes.
            pub fn memory_gb(&self, g: usize, stack: TechniqueStack) -> f64 {
                use $crate::memory::exchange_bytes;
                let (model_gb, replication) = self.memory_terms(stack);
                let densified = |dim: usize| (g * self.vocab * dim * 4) as u64;
                let buffers = self.exchanges(g, stack).into_iter();
                let bytes: u64 = buffers
                    .map(|(n, dim, x)| exchange_bytes(n, dim, x) + x.map_or(densified(dim), |_| 0))
                    .sum();
                model_gb + replication * bytes as f64 / 1e9
            }

            /// Simulated seconds per training step: the predicted step
            /// on the clock plus the calibrated terms.
            pub fn step_time(&self, g: usize, stack: TechniqueStack) -> f64 {
                self.terms(g, stack).step_time(&self.schedule(g, stack))
            }

            /// Steps per epoch at `g` GPUs (fixed local batch → strong
            /// scaling).
            pub fn steps_per_epoch(&self, g: usize) -> u64 {
                self.tokens_per_epoch / (g as u64 * self.local_tokens as u64)
            }

            /// True if the configuration exceeds the 12 GB Titan X.
            pub fn ooms(&self, g: usize, stack: TechniqueStack) -> bool {
                self.memory_gb(g, stack) > self.cost.hardware().gpu_mem_bytes as f64 / 1e9
            }

            /// Per-epoch hours, `None` on OOM.
            pub fn epoch_hours(&self, g: usize, stack: TechniqueStack) -> Option<f64> {
                (!self.ooms(g, stack))
                    .then(|| self.step_time(g, stack) * self.steps_per_epoch(g) as f64 / 3600.0)
            }

            /// One scaling row (efficiency computed against the same
            /// stack's 8-GPU row, as the tables do).
            pub fn scaling_row(&self, g: usize, stack: TechniqueStack) -> ScalingRow {
                let hours = self.epoch_hours(g, stack);
                let base = self.epoch_hours(8, stack);
                ScalingRow {
                    gpus: g,
                    epoch_hours: hours,
                    parallel_efficiency: base.zip(hours).map(|(b, h)| b * 8.0 / (g as f64 * h)),
                    memory_gb: self.memory_gb(g, stack),
                }
            }

            /// This model's paper table (Table III for the word LM,
            /// Table IV for the char LM): `(gpus, baseline row,
            /// with-technique row)` at 8–64 GPUs.
            pub fn $table(&self) -> Vec<(usize, ScalingRow, ScalingRow)> {
                let (base, ours) = (TechniqueStack::Baseline, TechniqueStack::Full);
                [8usize, 16, 24, 32, 64]
                    .map(|g| (g, self.scaling_row(g, base), self.scaling_row(g, ours)))
                    .to_vec()
            }
        }
    };
}
pub(crate) use scaling_tables;
