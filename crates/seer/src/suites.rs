//! Modular hardware and software configuration suites (paper §4.3):
//! "GPU configurations include specific GPU devices for generating the GPU
//! FLOPS, HBM size, and HBM bandwidth; Network configurations involve
//! network topology, congestion control, and load balance schemes."

use astral_model::GroupKind;
use serde::{Deserialize, Serialize};

/// A GPU device model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Device name.
    pub name: String,
    /// Peak dense BF16 throughput in FLOP/s.
    pub peak_flops: f64,
    /// HBM bandwidth in bytes/s.
    pub hbm_bw: f64,
    /// HBM capacity in bytes.
    pub hbm_bytes: u64,
    /// Thermal design power in watts.
    pub tdp_w: f64,
    /// Idle power in watts.
    pub idle_w: f64,
}

impl GpuSpec {
    /// NVIDIA H100 SXM (dense BF16).
    pub fn h100() -> Self {
        GpuSpec {
            name: "H100-SXM".into(),
            peak_flops: 989e12 / 2.0,
            hbm_bw: 3.35e12,
            hbm_bytes: 80 << 30,
            tdp_w: 700.0,
            idle_w: 90.0,
        }
    }

    /// NVIDIA A100 SXM.
    pub fn a100() -> Self {
        GpuSpec {
            name: "A100-SXM".into(),
            peak_flops: 312e12,
            hbm_bw: 2.0e12,
            hbm_bytes: 80 << 30,
            tdp_w: 400.0,
            idle_w: 60.0,
        }
    }
}

/// Cross-datacenter traffic assignment: which communicator crosses the
/// long-haul segment, and what it gets there (Figure 13 / Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossDcSpec {
    /// The communicator whose traffic crosses datacenters.
    pub affected: GroupKind,
    /// Effective per-GPU bandwidth on the long haul in bits/s
    /// (= rail bandwidth / oversubscription ratio).
    pub per_gpu_bw_bps: f64,
    /// One-way long-haul latency in seconds.
    pub latency_s: f64,
}

/// The network environment Seer models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Per-GPU network injection bandwidth in bits/s (Astral: 2×200G).
    pub rail_bw_bps: f64,
    /// Per-GPU NVLink bandwidth in bits/s (unidirectional).
    pub nvlink_bw_bps: f64,
    /// GPUs per high-bandwidth (NVLink/NVSwitch) domain.
    pub hb_domain: u32,
    /// Rails (NICs/GPUs) per host — determines whether strided
    /// communicators are rail-aligned.
    pub rails: u32,
    /// Per-message latency in seconds (network α).
    pub alpha_s: f64,
    /// Per-message latency inside the HB domain.
    pub nvlink_alpha_s: f64,
    /// Optional cross-datacenter assignment.
    pub crossdc: Option<CrossDcSpec>,
}

impl NetworkSpec {
    /// The Astral fabric: 400 Gbit/s per GPU, 8-GPU HB domains.
    pub fn astral() -> Self {
        NetworkSpec {
            rail_bw_bps: 400e9,
            nvlink_bw_bps: 1800e9,
            hb_domain: 8,
            rails: 8,
            alpha_s: 12e-6,
            nvlink_alpha_s: 2e-6,
            crossdc: None,
        }
    }

    /// Astral with tier-3 style oversubscription applied to cross-rail /
    /// cross-pod traffic classes (coarse: scales DP/EP bandwidth).
    pub fn astral_with_hb_domain(hb_domain: u32) -> Self {
        NetworkSpec {
            hb_domain,
            ..NetworkSpec::astral()
        }
    }

    /// Route one communicator's traffic across datacenters with the given
    /// intra:cross oversubscription ratio and fiber distance.
    pub fn with_crossdc(mut self, affected: GroupKind, oversub: f64, distance_km: f64) -> Self {
        assert!(oversub >= 1.0);
        self.crossdc = Some(CrossDcSpec {
            affected,
            per_gpu_bw_bps: self.rail_bw_bps / oversub,
            latency_s: distance_km * 5e-6,
        });
        self
    }

    /// Blended bandwidth/α for a communicator whose members stride the GPU
    /// order by `stride`: the fraction of each rank's peers inside its
    /// NVLink domain rides NVLink; the rest rides the rail (hierarchical
    /// execution). This is what makes Figure 14's curves *progressive* in
    /// the HB-domain size rather than a cliff.
    pub fn blended_link_for(&self, kind: GroupKind, group_size: u32, stride: u32) -> (f64, f64) {
        if let Some(x) = self.crossdc {
            if x.affected == kind {
                return (x.per_gpu_bw_bps, self.alpha_s + x.latency_s);
            }
        }
        if group_size <= 1 {
            return (self.nvlink_bw_bps, self.nvlink_alpha_s);
        }
        let members = (self.hb_domain / stride.max(1)).clamp(1, group_size);
        let f = (members - 1) as f64 / (group_size - 1) as f64;
        // Serial composition: per-byte time is a mix of the two links.
        let bw = 1.0 / (f / self.nvlink_bw_bps + (1.0 - f) / self.rail_bw_bps);
        let alpha = f * self.nvlink_alpha_s + (1.0 - f) * self.alpha_s;
        (bw, alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_templates_are_distinct_and_sane() {
        for g in [GpuSpec::h100(), GpuSpec::a100()] {
            assert!(g.peak_flops > 1e14);
            assert!(g.hbm_bw > 1e11);
            assert!(g.tdp_w > g.idle_w);
        }
        assert_ne!(GpuSpec::h100(), GpuSpec::a100());
    }

    #[test]
    fn crossdc_overrides_affected_group_only() {
        let n = NetworkSpec::astral().with_crossdc(GroupKind::Dp, 8.0, 300.0);
        let (bw, a) = n.blended_link_for(GroupKind::Dp, 1024, 8);
        assert_eq!(bw, 400e9 / 8.0);
        assert!(a > 1e-3, "300 km must add ≥1.5 ms");
        // PP unaffected.
        let (bw, _) = n.blended_link_for(GroupKind::Pp, 1024, 8);
        assert_eq!(bw, 400e9);
    }

    #[test]
    fn blended_bandwidth_is_progressive_in_domain_size() {
        // EP group of 16 striding by tp=8: HB domains 8/16/32/64/128 put
        // 1/2/4/8/16 members per domain.
        let bws: Vec<f64> = [8u32, 16, 32, 64, 128]
            .into_iter()
            .map(|hb| {
                NetworkSpec::astral_with_hb_domain(hb)
                    .blended_link_for(GroupKind::Ep, 16, 8)
                    .0
            })
            .collect();
        for w in bws.windows(2) {
            assert!(w[1] > w[0], "bandwidth must grow with the domain: {bws:?}");
        }
        let n = NetworkSpec::astral();
        assert_eq!(bws[0], n.rail_bw_bps);
        assert_eq!(*bws.last().unwrap(), n.nvlink_bw_bps);
    }
}
