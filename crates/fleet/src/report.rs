//! Campaign outcome accounting: per-tenant outcomes plus the cluster-level
//! goodput / queueing / fairness / stranded-capacity metrics the
//! `fleet_campaign` bench reports.

use astral_core::AbortReason;

/// Terminal state of one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobStatus {
    /// Every iteration completed.
    Completed {
        /// Completion wall-clock, seconds from campaign start.
        at_s: f64,
        /// Whether the deadline (if any) was met.
        deadline_met: Option<bool>,
    },
    /// The job aborted with no retries left (or could never be placed).
    Failed {
        /// Failure wall-clock, seconds from campaign start.
        at_s: f64,
        /// The final abort reason; `None` when the job never ran.
        reason: Option<AbortReason>,
    },
    /// The campaign ended with the job still queued and nothing left that
    /// could unblock it.
    Starved,
}

impl JobStatus {
    /// True only for [`JobStatus::Completed`].
    pub fn completed(&self) -> bool {
        matches!(self, JobStatus::Completed { .. })
    }
}

/// One tenant's campaign outcome.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The request id.
    pub id: u32,
    /// Template trained.
    pub model: String,
    /// Hosts requested.
    pub hosts: usize,
    /// Priority class (as the workload's [`crate::JobClass`] label).
    pub class: String,
    /// Arrival wall-clock.
    pub arrival_s: f64,
    /// First admission wall-clock; `None` when never admitted.
    pub first_admit_s: Option<f64>,
    /// Terminal state.
    pub status: JobStatus,
    /// Requeues consumed (aborts only — preemption requeues are free).
    pub retries: u32,
    /// Times this tenant was preempted.
    pub preemptions: u32,
    /// Useful host-seconds retained across all its segments.
    pub useful_hs: f64,
    /// Host-seconds allocated to it across all its segments.
    pub alloc_hs: f64,
    /// Spares the tenant claimed from the shared pool.
    pub spares_claimed: u32,
}

/// Cluster-level outcome of one fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-tenant outcomes, id order.
    pub jobs: Vec<JobOutcome>,
    /// Campaign wall-clock end: the last event processed.
    pub makespan_s: f64,
    /// Schedulable hosts (fleet minus spare pool).
    pub fleet_hosts: usize,
    /// Σ useful host-seconds over Σ allocated host-seconds — how much of
    /// the capacity tenants held actually trained (the Figure-10 goodput
    /// lifted to the cluster).
    pub cluster_goodput: f64,
    /// Σ allocated host-seconds over fleet capacity × makespan.
    pub utilization: f64,
    /// Dead host-seconds (cordoned awaiting repair) over fleet capacity ×
    /// makespan — stranded capacity.
    pub stranded_frac: f64,
    /// Jain fairness index over per-tenant useful host-seconds.
    pub fairness: f64,
    /// Queue-wait percentiles over every admission, seconds.
    pub queue_wait_p50_s: f64,
    /// 99th-percentile queue wait, seconds.
    pub queue_wait_p99_s: f64,
    /// Preemptions across the campaign.
    pub preemptions: u32,
    /// Spare-pool claims across the campaign.
    pub spare_claims: u32,
    /// Gray-quarantine verdicts harvested into the fleet avoid list:
    /// placements deprioritize these suspect hosts until they clear.
    pub gray_avoided: u32,
    /// Tenants that completed.
    pub completed: usize,
    /// Tenants that failed or starved — the stranded-tenant count the
    /// blast-radius contrast is about.
    pub stranded_tenants: usize,
}

impl FleetReport {
    /// Jain fairness index: `(Σx)² / (n·Σx²)`; 1.0 = perfectly fair.
    pub fn jain(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq <= 0.0 {
            return 1.0;
        }
        sum * sum / (xs.len() as f64 * sq)
    }

    /// A deterministic fingerprint over every semantic field — float bits
    /// included, per-tenant outcomes included. Byte-identical fingerprints
    /// ⇒ identical campaigns (solver counters excluded by construction:
    /// nothing here derives from them).
    pub fn fingerprint(&self) -> String {
        let mut s = format!(
            "fleet:{}·mk:{:016x}·g:{:016x}·u:{:016x}·s:{:016x}·f:{:016x}·q50:{:016x}·q99:{:016x}·p:{}·c:{}·ga:{}·done:{}·str:{}",
            self.fleet_hosts,
            self.makespan_s.to_bits(),
            self.cluster_goodput.to_bits(),
            self.utilization.to_bits(),
            self.stranded_frac.to_bits(),
            self.fairness.to_bits(),
            self.queue_wait_p50_s.to_bits(),
            self.queue_wait_p99_s.to_bits(),
            self.preemptions,
            self.spare_claims,
            self.gray_avoided,
            self.completed,
            self.stranded_tenants,
        );
        for j in &self.jobs {
            s.push_str(&format!(
                "|job{}:{}·{}·{}·{:?}·r{}·p{}·u:{:016x}·a:{:016x}·sc{}",
                j.id,
                j.model,
                j.hosts,
                j.class,
                j.status_key(),
                j.retries,
                j.preemptions,
                j.useful_hs.to_bits(),
                j.alloc_hs.to_bits(),
                j.spares_claimed,
            ));
        }
        s
    }
}

impl JobOutcome {
    /// A compact, fully-ordered key of the terminal state (float bits, so
    /// fingerprints stay byte-stable).
    fn status_key(&self) -> String {
        match self.status {
            JobStatus::Completed { at_s, deadline_met } => {
                format!("done@{:016x}·dl{:?}", at_s.to_bits(), deadline_met)
            }
            JobStatus::Failed { at_s, reason } => {
                format!("fail@{:016x}·{:?}", at_s.to_bits(), reason)
            }
            JobStatus::Starved => "starved".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_bounds() {
        assert_eq!(FleetReport::jain(&[]), 1.0);
        assert_eq!(FleetReport::jain(&[5.0, 5.0, 5.0]), 1.0);
        let skew = FleetReport::jain(&[10.0, 0.0, 0.0]);
        assert!((skew - 1.0 / 3.0).abs() < 1e-12, "skew {skew}");
        assert_eq!(FleetReport::jain(&[0.0, 0.0]), 1.0);
    }
}
