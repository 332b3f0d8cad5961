//! LM batching and per-GPU sharding.
//!
//! The paper's data parallelism (§II-B): each GPU consumes `K/c` sequences
//! of length `c` per step — a local batch of `K` tokens — drawn from its
//! own shard of the corpus. We use the standard continuous-batching
//! layout: the shard is split into `batch` contiguous lanes; each step
//! advances every lane by `seq_len` tokens, and targets are the inputs
//! shifted by one.

/// Shape of one training step's data on one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpec {
    /// Number of sequences processed in parallel (lanes).
    pub batch: usize,
    /// Tokens per sequence per step (the paper's `c`).
    pub seq_len: usize,
}

impl BatchSpec {
    /// Local batch size `K = batch · seq_len` in tokens.
    pub fn tokens_per_step(&self) -> usize {
        self.batch * self.seq_len
    }
}

/// One training step's data: `batch × seq_len` inputs and their
/// next-token targets, both row-major `[lane][position]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Input token ids, `batch * seq_len` entries.
    pub inputs: Vec<u32>,
    /// Target token ids (inputs shifted by one), same shape.
    pub targets: Vec<u32>,
    /// Number of lanes.
    pub batch: usize,
    /// Positions per lane.
    pub seq_len: usize,
}

impl Batch {
    /// Input row for one lane.
    pub fn input_lane(&self, lane: usize) -> &[u32] {
        &self.inputs[lane * self.seq_len..(lane + 1) * self.seq_len]
    }

    /// Target row for one lane.
    pub fn target_lane(&self, lane: usize) -> &[u32] {
        &self.targets[lane * self.seq_len..(lane + 1) * self.seq_len]
    }
}

/// Iterator over the batches of one GPU's shard.
pub struct BatchIter<'a> {
    lanes: Vec<&'a [u32]>,
    spec: BatchSpec,
    step: usize,
    steps: usize,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        if self.step >= self.steps {
            return None;
        }
        let BatchSpec { batch, seq_len } = self.spec;
        let off = self.step * seq_len;
        let mut inputs = Vec::with_capacity(batch * seq_len);
        let mut targets = Vec::with_capacity(batch * seq_len);
        for lane in &self.lanes {
            inputs.extend_from_slice(&lane[off..off + seq_len]);
            targets.extend_from_slice(&lane[off + 1..off + seq_len + 1]);
        }
        self.step += 1;
        Some(Batch {
            inputs,
            targets,
            batch,
            seq_len,
        })
    }

    /// Skips `n` batches without building them.
    fn nth(&mut self, n: usize) -> Option<Batch> {
        self.step = self.step.saturating_add(n).min(self.steps);
        self.next()
    }
}

impl ExactSizeIterator for BatchIter<'_> {
    fn len(&self) -> usize {
        self.steps - self.step
    }
}

/// Builds the batch iterator for GPU `rank` of `world` over `tokens`.
///
/// The corpus is first cut into `world` equal shards (GPU `g` gets shard
/// `g`), then each shard into `batch` contiguous lanes. Every lane keeps
/// one look-ahead token so targets exist for the final step.
///
/// Returns an empty iterator if the shard is too small for even one step.
pub fn shard_batches(tokens: &[u32], spec: BatchSpec, rank: usize, world: usize) -> BatchIter<'_> {
    assert!(
        world >= 1 && rank < world,
        "rank {rank} out of world {world}"
    );
    assert!(
        spec.batch >= 1 && spec.seq_len >= 1,
        "degenerate batch spec"
    );

    let shard_len = tokens.len() / world;
    let shard = &tokens[rank * shard_len..(rank + 1) * shard_len];

    let lane_len = shard.len() / spec.batch;
    // Usable steps: each step consumes seq_len tokens and needs +1 target.
    let steps = if lane_len > spec.seq_len {
        (lane_len - 1) / spec.seq_len
    } else {
        0
    };
    let lanes: Vec<&[u32]> = (0..spec.batch)
        .map(|b| &shard[b * lane_len..(b + 1) * lane_len])
        .collect();
    BatchIter {
        lanes,
        spec,
        step: 0,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_are_inputs_shifted() {
        let tokens: Vec<u32> = (0..100).collect();
        let spec = BatchSpec {
            batch: 2,
            seq_len: 5,
        };
        let batches: Vec<Batch> = shard_batches(&tokens, spec, 0, 1).collect();
        assert!(!batches.is_empty());
        for b in &batches {
            for lane in 0..2 {
                let inp = b.input_lane(lane);
                let tgt = b.target_lane(lane);
                for i in 0..5 {
                    assert_eq!(tgt[i], inp[i] + 1);
                }
            }
        }
    }

    #[test]
    fn nth_skips_to_the_batch_iteration_reaches() {
        let tokens: Vec<u32> = (0..1000).collect();
        let spec = BatchSpec {
            batch: 3,
            seq_len: 5,
        };
        let all: Vec<Batch> = shard_batches(&tokens, spec, 1, 2).collect();
        for n in 0..all.len() {
            let mut it = shard_batches(&tokens, spec, 1, 2);
            assert_eq!(it.nth(n).as_ref(), Some(&all[n]), "n {n}");
            assert_eq!(it.len(), all.len() - n - 1);
        }
        let mut past_end = shard_batches(&tokens, spec, 1, 2);
        assert_eq!(past_end.nth(all.len()), None);
        assert_eq!(past_end.len(), 0);
    }

    #[test]
    fn lanes_are_contiguous_streams_across_steps() {
        let tokens: Vec<u32> = (0..1000).collect();
        let spec = BatchSpec {
            batch: 4,
            seq_len: 7,
        };
        let batches: Vec<Batch> = shard_batches(&tokens, spec, 0, 1).collect();
        for lane in 0..4 {
            let mut prev_last = None;
            for b in &batches {
                let inp = b.input_lane(lane);
                if let Some(p) = prev_last {
                    assert_eq!(inp[0], p + 1);
                }
                prev_last = Some(*inp.last().unwrap());
            }
        }
    }

    #[test]
    fn shards_are_disjoint() {
        let tokens: Vec<u32> = (0..1200).collect();
        let spec = BatchSpec {
            batch: 2,
            seq_len: 4,
        };
        let b0: Vec<u32> = shard_batches(&tokens, spec, 0, 3)
            .flat_map(|b| b.inputs)
            .collect();
        let b2: Vec<u32> = shard_batches(&tokens, spec, 2, 3)
            .flat_map(|b| b.inputs)
            .collect();
        assert!(b0
            .iter()
            .all(|t| b2.binary_search(t).is_err() || !b2.contains(t)));
        assert!(b0.iter().max() < b2.iter().min());
    }

    #[test]
    fn step_count_uses_full_lane() {
        let tokens: Vec<u32> = (0..101).collect(); // 1 lane of 101
        let spec = BatchSpec {
            batch: 1,
            seq_len: 10,
        };
        let it = shard_batches(&tokens, spec, 0, 1);
        assert_eq!(it.len(), 10); // (101-1)/10
    }

    #[test]
    fn too_small_shard_yields_nothing() {
        let tokens: Vec<u32> = (0..8).collect();
        let spec = BatchSpec {
            batch: 4,
            seq_len: 5,
        };
        assert_eq!(shard_batches(&tokens, spec, 0, 1).count(), 0);
    }

    #[test]
    fn tokens_per_step() {
        let spec = BatchSpec {
            batch: 32,
            seq_len: 20,
        };
        // The paper's word-LM local batch: 32 sequences × 20 tokens = 640.
        assert_eq!(spec.tokens_per_step(), 640);
    }

    #[test]
    #[should_panic(expected = "out of world")]
    fn bad_rank_panics() {
        let tokens = [0u32; 10];
        shard_batches(
            &tokens,
            BatchSpec {
                batch: 1,
                seq_len: 2,
            },
            3,
            2,
        );
    }
}
