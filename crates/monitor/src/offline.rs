//! Offline toolsets (paper §3.2 bottom row, §5): checks run before
//! delivering hosts to customers and after unhandled failures.
//!
//! * configuration-consistency verification (`nvidia-smi` / NCCL logs in
//!   production; [`check_config_consistency`] here) — rented hosts drift in
//!   DCQCN/PFC parameters, driver and NCCL versions, which "degraded
//!   training performance and caused failures";
//! * wiring verification — re-exported from `astral-topo` ([`CablePlan`]);
//! * a stress test: a GPU burn ([`gpu_burn`]), evaluated against the
//!   injected health state. (A degraded PCIe link is caught online, by the
//!   analyzer's host drill-down, not by an offline probe.)

pub use astral_topo::{verify_wiring, CablePlan, WiringMistake};

use crate::snapshot::HostHealth;
use astral_topo::HostId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Host software/transport configuration, as collected by the offline
/// checker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostConfig {
    /// Host id.
    pub host: HostId,
    /// NVIDIA driver version.
    pub driver_version: String,
    /// NCCL version.
    pub nccl_version: String,
    /// DCQCN enabled on the NICs.
    pub dcqcn_enabled: bool,
    /// PFC enabled on the NICs.
    pub pfc_enabled: bool,
    /// MTU configured.
    pub mtu: u32,
}

impl HostConfig {
    /// Fleet-standard configuration.
    pub fn standard(host: HostId) -> Self {
        HostConfig {
            host,
            driver_version: "535.161.08".into(),
            nccl_version: "2.21.5".into(),
            dcqcn_enabled: true,
            pfc_enabled: true,
            mtu: 4200,
        }
    }
}

/// A configuration field that deviates from the fleet majority.
///
/// Serialize-only: `field` is a `&'static str` (a field name chosen by
/// [`check_config_consistency`]), which no serde implementation can
/// deserialize into.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ConfigDeviation {
    /// The deviating host.
    pub host: HostId,
    /// Field name.
    pub field: &'static str,
    /// The deviating value.
    pub value: String,
    /// The fleet-majority value.
    pub expected: String,
}

/// Compare every host's configuration against the majority value of each
/// field; returns all deviations (majority voting is threshold-agnostic,
/// like the cross-host analyzer).
pub fn check_config_consistency(configs: &[HostConfig]) -> Vec<ConfigDeviation> {
    fn majority<T: Eq + std::hash::Hash + Clone>(values: impl Iterator<Item = T>) -> T {
        let mut counts: HashMap<T, usize> = HashMap::new();
        for v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .expect("non-empty fleet")
            .0
    }
    if configs.is_empty() {
        return Vec::new();
    }
    let m_driver = majority(configs.iter().map(|c| c.driver_version.clone()));
    let m_nccl = majority(configs.iter().map(|c| c.nccl_version.clone()));
    let m_dcqcn = majority(configs.iter().map(|c| c.dcqcn_enabled));
    let m_pfc = majority(configs.iter().map(|c| c.pfc_enabled));
    let m_mtu = majority(configs.iter().map(|c| c.mtu));

    let mut out = Vec::new();
    for c in configs {
        if c.driver_version != m_driver {
            out.push(ConfigDeviation {
                host: c.host,
                field: "driver_version",
                value: c.driver_version.clone(),
                expected: m_driver.clone(),
            });
        }
        if c.nccl_version != m_nccl {
            out.push(ConfigDeviation {
                host: c.host,
                field: "nccl_version",
                value: c.nccl_version.clone(),
                expected: m_nccl.clone(),
            });
        }
        if c.dcqcn_enabled != m_dcqcn {
            out.push(ConfigDeviation {
                host: c.host,
                field: "dcqcn_enabled",
                value: c.dcqcn_enabled.to_string(),
                expected: m_dcqcn.to_string(),
            });
        }
        if c.pfc_enabled != m_pfc {
            out.push(ConfigDeviation {
                host: c.host,
                field: "pfc_enabled",
                value: c.pfc_enabled.to_string(),
                expected: m_pfc.to_string(),
            });
        }
        if c.mtu != m_mtu {
            out.push(ConfigDeviation {
                host: c.host,
                field: "mtu",
                value: c.mtu.to_string(),
                expected: m_mtu.to_string(),
            });
        }
    }
    out
}

/// Result of an offline stress test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StressResult {
    /// The host sustained the stress.
    Pass,
    /// The host exhibited the named defect.
    Fail,
}

/// GPU burn: drives the GPUs at TDP; fails when the health state carries a
/// latent hardware defect (the pre-delivery screen for the 32% of failures
/// rooted in host problems).
pub fn gpu_burn(health: &HostHealth) -> StressResult {
    if health.gpu_xid.is_some() || health.ecc_errors > 0 || !health.env_ok {
        StressResult::Fail
    } else {
        StressResult::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_fleet_passes() {
        let configs: Vec<HostConfig> = (0..16).map(|h| HostConfig::standard(HostId(h))).collect();
        assert!(check_config_consistency(&configs).is_empty());
    }

    #[test]
    fn deviants_are_reported_per_field() {
        let mut configs: Vec<HostConfig> =
            (0..16).map(|h| HostConfig::standard(HostId(h))).collect();
        configs[3].nccl_version = "2.19.3".into();
        configs[7].pfc_enabled = false;
        configs[7].mtu = 1500;
        let devs = check_config_consistency(&configs);
        assert_eq!(devs.len(), 3);
        assert!(devs
            .iter()
            .any(|d| d.host == HostId(3) && d.field == "nccl_version"));
        assert!(devs
            .iter()
            .any(|d| d.host == HostId(7) && d.field == "mtu" && d.expected == "4200"));
    }

    #[test]
    fn gpu_burn_catches_latent_defects() {
        let healthy = HostHealth::healthy(HostId(0));
        assert_eq!(gpu_burn(&healthy), StressResult::Pass);

        let mut sick = HostHealth::healthy(HostId(1));
        sick.ecc_errors = 4;
        assert_eq!(gpu_burn(&sick), StressResult::Fail);
    }
}
