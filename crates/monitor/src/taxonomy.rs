//! The anomaly taxonomy of Figure 7: failure manifestations, root causes,
//! and their production distribution.

use astral_sim::SimRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Observable symptom of training degradation (Figure 7, left).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Manifestation {
    /// Job aborts during initialization (4%).
    FailOnStart,
    /// Abrupt termination after partial execution (66%).
    FailStop,
    /// Degraded iteration throughput (13%).
    FailSlow,
    /// Complete stagnation without termination (17%).
    FailHang,
}

impl fmt::Display for Manifestation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Manifestation::FailOnStart => "fail-on-start",
            Manifestation::FailStop => "fail-stop",
            Manifestation::FailSlow => "fail-slow",
            Manifestation::FailHang => "fail-hang",
        };
        write!(f, "{s}")
    }
}

/// Production prevalence of each manifestation (Figure 7).
pub fn manifestation_distribution() -> [(Manifestation, f64); 4] {
    [
        (Manifestation::FailStop, 0.66),
        (Manifestation::FailHang, 0.17),
        (Manifestation::FailSlow, 0.13),
        (Manifestation::FailOnStart, 0.04),
    ]
}

/// Fundamental cause behind a manifestation (Figure 7, right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RootCause {
    /// Host environment and configuration problems (32%).
    HostEnvConfig,
    /// NIC errors (15%).
    NicError,
    /// User code bugs (14%).
    UserCode,
    /// Switch misconfiguration (14%).
    SwitchConfig,
    /// Switch firmware bugs (7%).
    SwitchBug,
    /// Optical fiber / module damage (7%).
    OpticalFiber,
    /// Collective-communication-library bugs (3%).
    CclBug,
    /// Wire connection mistakes (3%).
    WireConnection,
    /// GPU hardware faults (2%).
    GpuHardware,
    /// Memory (ECC) errors (2%).
    Memory,
    /// Link flapping (2%).
    LinkFlap,
    /// Power-delivery substrate fault: grid sag / HVDC rectifier trip
    /// forcing a rack power cap (§2.2). Not part of Figure 7's
    /// network-centric distribution; injected by cascade campaigns.
    PowerDelivery,
    /// Cooling substrate fault: pump/CDU degradation raising inlet
    /// temperatures until GPUs thermally throttle (§2.2). Not part of
    /// Figure 7's distribution; injected by cascade campaigns.
    CoolingSystem,
}

impl fmt::Display for RootCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RootCause::HostEnvConfig => "Host Env&Conf.",
            RootCause::NicError => "NIC Error",
            RootCause::UserCode => "User code",
            RootCause::SwitchConfig => "Switch Conf.",
            RootCause::SwitchBug => "Switch BUG",
            RootCause::OpticalFiber => "Optical Fiber",
            RootCause::CclBug => "CCL Bug",
            RootCause::WireConnection => "Wire conn.",
            RootCause::GpuHardware => "GPU Hardware",
            RootCause::Memory => "Memory",
            RootCause::LinkFlap => "Link Flap",
            RootCause::PowerDelivery => "Power Delivery",
            RootCause::CoolingSystem => "Cooling System",
        };
        write!(f, "{s}")
    }
}

/// All root causes with the production shares of Figure 7, normalized to a
/// proper probability distribution (the paper's printed shares total 101%
/// from rounding; each weight here is `share / 1.01` so the array sums to
/// exactly 1.0). The power/cooling substrate causes are absent on purpose:
/// Figure 7 counts network-visible incidents only.
pub fn root_cause_distribution() -> [(RootCause, f64); 11] {
    const PAPER_SHARES: [(RootCause, f64); 11] = [
        (RootCause::HostEnvConfig, 0.32),
        (RootCause::NicError, 0.15),
        (RootCause::UserCode, 0.14),
        (RootCause::SwitchConfig, 0.14),
        (RootCause::SwitchBug, 0.07),
        (RootCause::OpticalFiber, 0.07),
        (RootCause::CclBug, 0.03),
        (RootCause::WireConnection, 0.03),
        (RootCause::GpuHardware, 0.02),
        (RootCause::Memory, 0.02),
        (RootCause::LinkFlap, 0.02),
    ];
    let total: f64 = PAPER_SHARES.iter().map(|&(_, s)| s).sum();
    PAPER_SHARES.map(|(c, s)| (c, s / total))
}

impl RootCause {
    /// Sample a root cause from the production distribution.
    pub fn sample(rng: &mut SimRng) -> RootCause {
        let dist = root_cause_distribution();
        let weights: Vec<f64> = dist.iter().map(|&(_, w)| w).collect();
        dist[rng.weighted_index(&weights).expect("weights sum > 0")].0
    }

    /// Coarse diagnosis class this cause belongs to (what the analyzer can
    /// actually pin down from telemetry).
    pub fn class(&self) -> CauseClass {
        match self {
            RootCause::HostEnvConfig | RootCause::WireConnection => CauseClass::HostEnvironment,
            RootCause::NicError | RootCause::OpticalFiber | RootCause::LinkFlap => {
                CauseClass::NicOrLink
            }
            RootCause::UserCode | RootCause::CclBug => CauseClass::SoftwareOrUserCode,
            RootCause::SwitchConfig | RootCause::SwitchBug => CauseClass::SwitchOrFabric,
            RootCause::GpuHardware | RootCause::Memory => CauseClass::GpuHardware,
            RootCause::PowerDelivery => CauseClass::PowerDelivery,
            RootCause::CoolingSystem => CauseClass::Cooling,
        }
    }
}

/// What the hierarchical analyzer reports as the cause family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CauseClass {
    /// Host environment / configuration / wiring.
    HostEnvironment,
    /// NIC, optical module, or link fault.
    NicOrLink,
    /// GPU or memory hardware fault.
    GpuHardware,
    /// Software: user code or CCL bugs (multi-host symptoms).
    SoftwareOrUserCode,
    /// Switch configuration or firmware.
    SwitchOrFabric,
    /// A host-side drain bottleneck (e.g. degraded PCIe) causing PFC.
    PcieBottleneck,
    /// Fabric congestion (ECMP collisions) without a hardware fault.
    Congestion,
    /// The power-delivery substrate: a rack power cap is throttling GPUs
    /// (grid sag past the battery ride-through window).
    PowerDelivery,
    /// The cooling substrate: elevated inlet temperatures are thermally
    /// throttling GPUs (pump/CDU degradation).
    Cooling,
    /// The analyzer could not identify a cause.
    Unknown,
}

impl fmt::Display for CauseClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CauseClass::HostEnvironment => "host environment",
            CauseClass::NicOrLink => "NIC/link",
            CauseClass::GpuHardware => "GPU/memory hardware",
            CauseClass::SoftwareOrUserCode => "software/user code",
            CauseClass::SwitchOrFabric => "switch/fabric",
            CauseClass::PcieBottleneck => "PCIe drain bottleneck",
            CauseClass::Congestion => "congestion",
            CauseClass::PowerDelivery => "power delivery",
            CauseClass::Cooling => "cooling",
            CauseClass::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributions_sum_to_one() {
        let m: f64 = manifestation_distribution().iter().map(|&(_, p)| p).sum();
        assert!((m - 1.0).abs() < 1e-9, "manifestations sum to {m}");
        let r: f64 = root_cause_distribution().iter().map(|&(_, p)| p).sum();
        assert!((r - 1.0).abs() < 1e-9, "root causes sum to {r}");
    }

    #[test]
    fn distribution_preserves_paper_share_ratios() {
        // Normalization must not reorder or reweight: HostEnvConfig is 32%
        // of the paper's 101% total and the largest entry.
        let dist = root_cause_distribution();
        assert_eq!(dist[0].0, RootCause::HostEnvConfig);
        assert!((dist[0].1 - 0.32 / 1.01).abs() < 1e-12);
        for w in dist.windows(2) {
            assert!(w[0].1 >= w[1].1, "shares must stay sorted descending");
        }
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut rng = SimRng::new(13);
        let n = 50_000;
        let mut host_env = 0usize;
        for _ in 0..n {
            if RootCause::sample(&mut rng) == RootCause::HostEnvConfig {
                host_env += 1;
            }
        }
        let frac = host_env as f64 / n as f64;
        assert!((frac - 0.32 / 1.01).abs() < 0.01, "host env frac {frac}");
    }

    #[test]
    fn substrate_causes_map_to_their_substrate_classes() {
        assert_eq!(RootCause::PowerDelivery.class(), CauseClass::PowerDelivery);
        assert_eq!(RootCause::CoolingSystem.class(), CauseClass::Cooling);
        // And stay out of the Figure-7 distribution.
        assert!(!root_cause_distribution()
            .iter()
            .any(|&(c, _)| c == RootCause::PowerDelivery || c == RootCause::CoolingSystem));
    }

    #[test]
    fn every_cause_has_a_class() {
        for (cause, _) in root_cause_distribution() {
            let _ = cause.class(); // must not panic; exhaustive match
        }
    }
}
