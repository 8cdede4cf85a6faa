//! Cluster topology descriptions for the evaluation platforms of §IV-A.

use serde::{Deserialize, Serialize};

/// Static description of a GPU cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// Human-readable system name.
    pub name: String,
    /// Number of compute nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
}

impl ClusterTopology {
    /// Lassen (LLNL): 792 nodes × 4 V100, NVLink intra-node, IB EDR
    /// inter-node (Fig 8). The paper scales to 128 of its nodes.
    pub fn lassen(nodes: usize) -> Self {
        assert!(nodes <= 792, "Lassen has 792 GPU nodes");
        ClusterTopology {
            name: "Lassen".into(),
            nodes,
            gpus_per_node: 4,
        }
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Node index of a global rank (one rank per GPU, dense mapping).
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.gpus_per_node
    }

    /// Local device index of a global rank.
    pub fn local_of(&self, rank: usize) -> usize {
        rank % self.gpus_per_node
    }

    /// Are two ranks on the same node?
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

/// A two-level fat tree over the cluster's nodes: groups of `leaf_radix`
/// nodes share a leaf switch; traffic between groups crosses the spine.
/// Lassen's EDR fabric is a (pruned) fat tree of this shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FatTree {
    /// Nodes per leaf switch.
    pub leaf_radix: usize,
    /// Per-switch-hop latency in seconds.
    pub hop_latency: f64,
}

impl FatTree {
    /// Lassen-like: 18 nodes per leaf switch (36-port EDR, half down).
    pub fn lassen() -> Self {
        FatTree {
            leaf_radix: 18,
            hop_latency: 0.4e-6,
        }
    }

    /// Switch hops between two nodes: 0 intra-node, 2 within a leaf group,
    /// 4 across the spine.
    #[inline]
    pub fn hops(&self, a: usize, b: usize) -> usize {
        if a == b {
            0
        } else if a / self.leaf_radix == b / self.leaf_radix {
            2
        } else {
            4
        }
    }

    /// Latency added on top of the base (2-hop) InfiniBand figure.
    #[inline]
    pub fn extra_latency(&self, a: usize, b: usize) -> f64 {
        self.hops(a, b).saturating_sub(2) as f64 * self.hop_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_hop_counts() {
        let ft = FatTree::lassen();
        assert_eq!(ft.hops(3, 3), 0);
        assert_eq!(ft.hops(0, 17), 2, "same leaf group");
        assert_eq!(ft.hops(0, 18), 4, "across the spine");
        assert_eq!(ft.extra_latency(0, 17), 0.0);
        assert!((ft.extra_latency(0, 127) - 0.8e-6).abs() < 1e-12);
    }

    #[test]
    fn lassen_mapping() {
        let t = ClusterTopology::lassen(128);
        assert_eq!(t.total_gpus(), 512);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(5), 1);
        assert_eq!(t.local_of(5), 1);
        assert!(t.same_node(4, 7));
        assert!(!t.same_node(3, 4));
    }

    #[test]
    #[should_panic(expected = "792")]
    fn oversize_lassen_rejected() {
        let _ = ClusterTopology::lassen(1000);
    }
}
