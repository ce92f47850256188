//! Parallelism configuration and communication-group construction.
//!
//! Megatron-style rank decomposition: `rank = (pp_idx · dp + dp_idx) · tp +
//! tp_idx`, so TP groups are contiguous GPU ranges (they should sit inside
//! one NVLink domain), DP groups stride by `tp`, and PP groups stride by
//! `tp·dp`. Expert parallelism subdivides each DP group.

use serde::{Deserialize, Serialize};

/// How data-parallel gradients are synchronized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DpSync {
    /// Plain gradient AllReduce at the end of the iteration.
    #[default]
    AllReduce,
    /// ZeRO-1/2: ReduceScatter gradients + AllGather updated parameters.
    Zero1,
    /// ZeRO-3: parameters sharded; AllGather before every layer's forward
    /// *and* backward, plus gradient ReduceScatter — the "extremely heavy
    /// communication traffic" of Figure 13.
    Zero3,
}

/// A 4D parallelism layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelismConfig {
    /// Tensor-parallel group size.
    pub tp: u32,
    /// Pipeline stages.
    pub pp: u32,
    /// Data-parallel replicas.
    pub dp: u32,
    /// Expert-parallel group size (must divide `dp`; 1 = no EP).
    pub ep: u32,
    /// Gradient synchronization style.
    pub zero: DpSync,
    /// Microbatches per iteration (pipeline depth utilization).
    pub microbatches: u32,
    /// Sequences per microbatch per DP replica.
    pub micro_batch_size: u32,
    /// Overlap the DP gradient synchronization with the tail backward
    /// compute (bucketed grad reduce) — the reason DP traffic tolerates
    /// slow cross-DC links in Figure 13.
    pub overlap_grad_sync: bool,
}

impl ParallelismConfig {
    /// A simple layout with sensible defaults.
    pub fn new(tp: u32, pp: u32, dp: u32) -> Self {
        ParallelismConfig {
            tp,
            pp,
            dp,
            ep: 1,
            zero: DpSync::AllReduce,
            microbatches: 2 * pp,
            micro_batch_size: 1,
            overlap_grad_sync: true,
        }
    }

    /// Total GPUs.
    pub fn world(&self) -> u32 {
        self.tp * self.pp * self.dp
    }

    /// Global batch size in sequences.
    pub fn global_batch(&self) -> u64 {
        self.micro_batch_size as u64 * self.microbatches as u64 * self.dp as u64
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.tp == 0 || self.pp == 0 || self.dp == 0 || self.ep == 0 {
            return Err("parallel degrees must be positive".into());
        }
        if !self.dp.is_multiple_of(self.ep) {
            return Err(format!("ep {} must divide dp {}", self.ep, self.dp));
        }
        if self.microbatches == 0 || self.micro_batch_size == 0 {
            return Err("batching must be positive".into());
        }
        Ok(())
    }

    /// Rank from (pp, dp, tp) coordinates.
    pub fn rank_of(&self, pp_idx: u32, dp_idx: u32, tp_idx: u32) -> u32 {
        (pp_idx * self.dp + dp_idx) * self.tp + tp_idx
    }

    /// (pp, dp, tp) coordinates of a rank.
    pub fn coords_of(&self, rank: u32) -> (u32, u32, u32) {
        let tp_idx = rank % self.tp;
        let dp_idx = (rank / self.tp) % self.dp;
        let pp_idx = rank / (self.tp * self.dp);
        (pp_idx, dp_idx, tp_idx)
    }

    /// All TP groups (each a list of ranks).
    pub fn tp_groups(&self) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for p in 0..self.pp {
            for d in 0..self.dp {
                out.push((0..self.tp).map(|t| self.rank_of(p, d, t)).collect());
            }
        }
        out
    }

    /// All DP groups.
    pub fn dp_groups(&self) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for p in 0..self.pp {
            for t in 0..self.tp {
                out.push((0..self.dp).map(|d| self.rank_of(p, d, t)).collect());
            }
        }
        out
    }

    /// All PP groups (the pipelines).
    pub fn pp_groups(&self) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for d in 0..self.dp {
            for t in 0..self.tp {
                out.push((0..self.pp).map(|p| self.rank_of(p, d, t)).collect());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ParallelismConfig {
        ParallelismConfig::new(4, 2, 3)
    }

    #[test]
    fn world_and_coords_round_trip() {
        let c = cfg();
        assert_eq!(c.world(), 24);
        for r in 0..c.world() {
            let (p, d, t) = c.coords_of(r);
            assert_eq!(c.rank_of(p, d, t), r);
        }
    }

    #[test]
    fn tp_groups_are_contiguous() {
        let c = cfg();
        for g in c.tp_groups() {
            assert_eq!(g.len(), 4);
            for w in g.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn groups_partition_the_world() {
        let c = cfg();
        for groups in [c.tp_groups(), c.dp_groups(), c.pp_groups()] {
            let mut all: Vec<u32> = groups.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..c.world()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn dp_groups_fix_pp_and_tp() {
        let c = cfg();
        for g in c.dp_groups() {
            let (p0, _, t0) = c.coords_of(g[0]);
            for &r in &g {
                let (p, _, t) = c.coords_of(r);
                assert_eq!((p, t), (p0, t0));
            }
        }
    }

    #[test]
    fn validation_catches_bad_layouts() {
        let mut c = ParallelismConfig::new(2, 2, 4);
        c.ep = 2; // divides dp=4
        assert!(c.validate().is_ok());
        let mut c = ParallelismConfig::new(2, 2, 3);
        c.ep = 2; // does not divide dp=3
        assert!(c.validate().is_err());
        let mut c2 = ParallelismConfig::new(0, 1, 1);
        c2.tp = 0;
        assert!(c2.validate().is_err());
    }

    #[test]
    fn global_batch_arithmetic() {
        let mut c = ParallelismConfig::new(8, 8, 4);
        c.microbatches = 16;
        c.micro_batch_size = 2;
        assert_eq!(c.global_batch(), 2 * 16 * 4);
    }
}
