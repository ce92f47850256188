//! GPU placement policies (paper §2 "Flexibility").
//!
//! Astral's operators "allocate GPUs within the same block/Pod whenever
//! possible"; customers' expansion/contraction nevertheless forces
//! *fragmented* deployments across Pods — the situation Figure 2 quantifies.
//! [`PlacementPolicy`] captures the spectrum, and [`place_job`] turns a
//! policy into a rank → GPU mapping over a concrete topology.

use astral_topo::{GpuId, Topology};
use serde::{Deserialize, Serialize};

/// How a job's GPUs are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Fill blocks in order — the preferred dense allocation.
    BlockLocal,
    /// Round-robin hosts across the given number of Pods — the fragmented
    /// deployment of Figure 2.
    FragmentedAcrossPods {
        /// Pods to spread over.
        pods: u16,
    },
}

/// Place `gpus` GPUs on `topo` under `policy`, returning the rank → GPU map.
///
/// Whole hosts are allocated (all rails of a host belong to the job), and
/// ranks are assigned host-major so that TP groups stay inside NVLink
/// domains under the Megatron rank order.
pub fn place_job(topo: &Topology, gpus: u32, policy: PlacementPolicy) -> Vec<GpuId> {
    let rails = topo.rails() as u32;
    assert!(
        gpus.is_multiple_of(rails),
        "jobs allocate whole hosts: {gpus} GPUs not divisible by {rails} rails"
    );
    let hosts_needed = (gpus / rails) as usize;
    assert!(
        hosts_needed <= topo.hosts().len(),
        "job needs {hosts_needed} hosts, fabric has {}",
        topo.hosts().len()
    );

    let host_order: Vec<usize> = match policy {
        PlacementPolicy::BlockLocal => (0..hosts_needed).collect(),
        PlacementPolicy::FragmentedAcrossPods { pods } => {
            // Partition hosts by pod, then deal them out round-robin.
            let mut by_pod: Vec<Vec<usize>> = Vec::new();
            for (i, h) in topo.hosts().iter().enumerate() {
                let key = (h.dc.0 as usize) << 16 | h.pod as usize;
                let bucket = key % pods as usize;
                while by_pod.len() <= bucket {
                    by_pod.push(Vec::new());
                }
                by_pod[bucket].push(i);
            }
            let mut order = Vec::with_capacity(hosts_needed);
            let mut idx = vec![0usize; by_pod.len()];
            let mut bucket = 0usize;
            while order.len() < hosts_needed {
                let b = bucket % by_pod.len();
                if idx[b] < by_pod[b].len() {
                    order.push(by_pod[b][idx[b]]);
                    idx[b] += 1;
                }
                bucket += 1;
                assert!(
                    bucket < by_pod.len() * (topo.hosts().len() + 1),
                    "not enough hosts across {pods} pods"
                );
            }
            order
        }
    };

    let mut placement = Vec::with_capacity(gpus as usize);
    for &h in &host_order {
        for r in 0..rails {
            placement.push(GpuId(h as u32 * rails + r));
        }
    }
    placement
}

/// Number of distinct (dc, pod) pairs a placement touches.
pub fn pods_touched(topo: &Topology, placement: &[GpuId]) -> usize {
    let mut pods: Vec<(u32, u16)> = placement
        .iter()
        .map(|&g| {
            let h = topo.host(topo.gpu_host(g));
            (h.dc.0, h.pod)
        })
        .collect();
    pods.sort_unstable();
    pods.dedup();
    pods.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use astral_topo::{build_astral, AstralParams};

    #[test]
    fn block_local_stays_in_one_pod() {
        let topo = build_astral(&AstralParams::sim_small());
        let p = place_job(&topo, 64, PlacementPolicy::BlockLocal);
        assert_eq!(p.len(), 64);
        assert_eq!(pods_touched(&topo, &p), 1);
        // Ranks are host-major: first 4 ranks share host 0.
        assert!(p[..4].iter().all(|g| topo.gpu_host(*g).0 == 0));
    }

    #[test]
    fn fragmented_spreads_across_pods() {
        let topo = build_astral(&AstralParams::sim_small());
        let p = place_job(&topo, 64, PlacementPolicy::FragmentedAcrossPods { pods: 2 });
        assert_eq!(pods_touched(&topo, &p), 2);
        // Placement is a set of distinct GPUs.
        let mut q = p.clone();
        q.sort();
        q.dedup();
        assert_eq!(q.len(), 64);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn partial_hosts_are_rejected() {
        let topo = build_astral(&AstralParams::sim_small());
        place_job(&topo, 63, PlacementPolicy::BlockLocal);
    }
}
