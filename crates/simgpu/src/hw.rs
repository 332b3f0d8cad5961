//! Hardware presets — Table II of the paper, plus the V100 system of §V-D.

/// Static description of a GPU cluster for the α–β cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// GPUs per node (the paper uses 8).
    pub gpus_per_node: usize,
    /// Device memory per GPU in bytes.
    pub gpu_mem_bytes: u64,
    /// Peak FLOP/s per GPU (FP32).
    pub peak_flops: f64,
    /// Intra-node link bandwidth per GPU, bytes/s (PCIe for Titan X,
    /// NVLink for V100).
    pub intra_node_bw: f64,
    /// Inter-node bandwidth per node, bytes/s (Infiniband FDR).
    pub inter_node_bw: f64,
    /// Per-message latency within a node, seconds. Assumed: the paper
    /// states no latency, so neither preset's value comes from Table II
    /// or §V-D.
    pub intra_latency: f64,
    /// Per-message latency across nodes, seconds. Assumed, as
    /// `intra_latency` is.
    pub inter_latency: f64,
}

impl HardwareConfig {
    /// The paper's evaluation cluster (Table II): 50 nodes, 8× GeForce
    /// GTX Titan X per node (12 GB, 6.1 TFLOP/s FP32), PCIe 32 GB/s
    /// bidirectional intra-node, Infiniband FDR 15 GB/s bidirectional
    /// inter-node. The 10 µs intra-node and 30 µs inter-node latencies
    /// are assumed: Table II gives none.
    pub fn titan_x_cluster() -> Self {
        Self {
            name: "titanx-pcie-ibfdr",
            gpus_per_node: 8,
            gpu_mem_bytes: 12 * (1 << 30),
            peak_flops: 6.1e12,
            // Bidirectional figures halved to an effective unidirectional
            // stream rate, which is what a ring step uses.
            intra_node_bw: 16.0e9,
            inter_node_bw: 7.5e9,
            intra_latency: 10e-6,
            inter_latency: 30e-6,
        }
    }

    /// The comparison system of §V-D (\[21\]'s infrastructure): DGX-style
    /// V100s — 125 TFLOP/s tensor peak, 16 GB HBM2, NVLink. The 5 µs
    /// intra-node and 20 µs inter-node latencies are assumed: §V-D
    /// gives none.
    pub fn v100_dgx() -> Self {
        Self {
            name: "v100-nvlink",
            gpus_per_node: 8,
            gpu_mem_bytes: 16 * (1 << 30),
            peak_flops: 125.0e12,
            intra_node_bw: 150.0e9,
            inter_node_bw: 12.5e9,
            intra_latency: 5e-6,
            inter_latency: 20e-6,
        }
    }

    /// This preset with one link constant improved 2× — each latency
    /// halved, each bandwidth doubled, one at a time: the "strictly
    /// faster fabric" variants a pricing monotonicity check sweeps.
    pub fn faster_links(&self) -> [HardwareConfig; 4] {
        let improve: [fn(&mut HardwareConfig); 4] = [
            |hw| hw.intra_latency /= 2.0,
            |hw| hw.inter_latency /= 2.0,
            |hw| hw.intra_node_bw *= 2.0,
            |hw| hw.inter_node_bw *= 2.0,
        ];
        improve.map(|f| {
            let mut hw = self.clone();
            f(&mut hw);
            hw
        })
    }

    /// Aggregate peak FLOP/s for `gpus` GPUs.
    pub fn cluster_peak_flops(&self, gpus: usize) -> f64 {
        self.peak_flops * gpus as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, NodeLayout, Tier, TierBytes, Topology};

    #[test]
    fn table2_constants() {
        let hw = HardwareConfig::titan_x_cluster();
        assert_eq!(hw.gpus_per_node, 8);
        assert_eq!(hw.gpu_mem_bytes, 12 * 1024 * 1024 * 1024);
        assert!((hw.peak_flops - 6.1e12).abs() < 1.0);
    }

    #[test]
    fn nodes_round_up() {
        let nodes = |g| NodeLayout::new(g, HardwareConfig::titan_x_cluster().gpus_per_node).nodes();
        assert_eq!(nodes(8), 1);
        assert_eq!(nodes(9), 2);
        assert_eq!(nodes(64), 8);
        assert_eq!(nodes(192), 24);
    }

    #[test]
    fn multi_node_bandwidth_is_lower() {
        // Priced where rings are priced: the same bytes take a ring
        // longer once it leaves the node, and so does each hop.
        for hw in [
            HardwareConfig::titan_x_cluster(),
            HardwareConfig::v100_dgx(),
        ] {
            let gpn = hw.gpus_per_node;
            let cost = CostModel::new(hw, 1.0);
            let ring = |gpus: usize| {
                let sent = TierBytes::on(Tier::Intra, 1 << 20);
                cost.allreduce(sent, gpus, gpn, Topology::Flat, 0).intra
            };
            let (one_node, two_nodes) = (ring(gpn), ring(2 * gpn));
            assert!(two_nodes.beta > one_node.beta);
            let per_hop = |alpha: f64, gpus: usize| alpha / (2 * (gpus - 1)) as f64;
            assert!(per_hop(two_nodes.alpha, 2 * gpn) > per_hop(one_node.alpha, gpn));
        }
    }
}
