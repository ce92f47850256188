//! Fleet scheduling policy: the placement × spare-pool × preemption axis
//! the `fleet_campaign` sweep explores, with typed validation
//! mirroring [`RecoveryPolicy::validate`].

use astral_core::{PolicyError, RecoveryPolicy};

/// How the placement engine maps a tenant onto free hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// Naive packing: lowest free host ids first. Minimizes fragmentation,
    /// maximizes blast radius — a whole tenant can sit in one rack row.
    FirstFit,
    /// Pack the tenant into one block (rail-affine: collectives stay
    /// block-local), falling back to first-fit when no block fits.
    RailAffine,
    /// Stripe the tenant across power/cooling failure domains so no
    /// single rack-row cascade can take out more of it than the spare
    /// grant covers.
    BlastRadiusSpread,
}

impl std::fmt::Display for PlacementStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlacementStrategy::FirstFit => "first_fit",
            PlacementStrategy::RailAffine => "rail_affine",
            PlacementStrategy::BlastRadiusSpread => "blast_radius",
        };
        write!(f, "{s}")
    }
}

/// The fleet controller's knobs. The rest of its playbook is fixed:
/// a higher-priority job that cannot place preempts lower-priority
/// running jobs, aborted and preempted jobs are requeued with their
/// remaining iterations (aborts within a retry budget), cordoned hosts
/// rejoin the fleet after a repair time, and per-job gray-failure
/// quarantine verdicts feed a fleet-wide avoid list that new placements
/// deprioritize (soft — a job still places on a suspect host when nothing
/// else is free) until the verdict clears.
#[derive(Debug, Clone, Copy)]
pub struct FleetPolicy {
    /// Placement strategy for every tenant.
    pub placement: PlacementStrategy,
    /// Hosts reserved fleet-wide as a shared spare pool (taken off the
    /// schedulable free set).
    pub spare_pool: usize,
    /// Spares granted to each admitted job from the pool (claims compete:
    /// a grant is capped by what is left in the pool at admission).
    pub spares_per_job: usize,
    /// Estimate each admitted job's iteration time from a cached Seer
    /// what-if forecast (communication-overhead ratio of the job's model at
    /// its admitted scale) instead of the fixed
    /// [`EST_ITER_OVERHEAD`](crate::EST_ITER_OVERHEAD) planning margin.
    /// Off by default so existing campaign baselines stay byte-identical.
    pub seer_admission: bool,
    /// Per-job recovery policy handed to the training engine.
    pub recovery: RecoveryPolicy,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            placement: PlacementStrategy::BlastRadiusSpread,
            spare_pool: 4,
            spares_per_job: 2,
            seer_admission: false,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// A [`FleetPolicy`] or campaign the controller rejects before it starts
/// (mirroring [`RecoveryPolicy::validate`]): a nonsensical spare grant or
/// job policy, or a campaign that cannot run on the fabric, would
/// otherwise waste an entire campaign before anyone notices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetError {
    /// `spares_per_job` exceeds `spare_pool`: no job could ever receive
    /// its nominal grant.
    GrantExceedsPool {
        /// Spares each job is promised.
        grant: usize,
        /// Spares the pool holds.
        pool: usize,
    },
    /// The inner per-job recovery policy is invalid.
    Recovery(PolicyError),
    /// The spare pool plus the largest job exceed the fleet (checked at
    /// campaign start, when the topology is known).
    PoolExceedsFleet {
        /// Spare-pool hosts requested.
        pool: usize,
        /// Hosts in the fleet.
        fleet: usize,
    },
    /// The workload is empty: a campaign needs at least one job.
    EmptyWorkload,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::GrantExceedsPool { grant, pool } => write!(
                f,
                "spares_per_job {grant} exceeds the {pool}-host spare pool"
            ),
            FleetError::Recovery(e) => write!(f, "recovery policy: {e}"),
            FleetError::PoolExceedsFleet { pool, fleet } => {
                write!(
                    f,
                    "spare pool of {pool} hosts exceeds the {fleet}-host fleet"
                )
            }
            FleetError::EmptyWorkload => write!(f, "a fleet campaign needs at least one job"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<PolicyError> for FleetError {
    fn from(e: PolicyError) -> Self {
        FleetError::Recovery(e)
    }
}

impl FleetPolicy {
    /// The naive baseline the headline bench contrasts against: first-fit
    /// packing and no spares — nothing blast-radius-aware about it.
    pub fn naive_packing() -> Self {
        FleetPolicy {
            placement: PlacementStrategy::FirstFit,
            spare_pool: 0,
            spares_per_job: 0,
            ..FleetPolicy::default()
        }
    }

    /// Reject nonsensical knob combinations at construction time instead
    /// of letting them waste (or silently skew) a whole campaign.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.spare_pool > 0 && self.spares_per_job > self.spare_pool {
            return Err(FleetError::GrantExceedsPool {
                grant: self.spares_per_job,
                pool: self.spare_pool,
            });
        }
        self.recovery.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        assert_eq!(FleetPolicy::default().validate(), Ok(()));
        assert_eq!(FleetPolicy::naive_packing().validate(), Ok(()));
    }

    #[test]
    fn grant_beyond_pool_is_rejected() {
        let p = FleetPolicy {
            spare_pool: 2,
            spares_per_job: 3,
            ..FleetPolicy::default()
        };
        assert_eq!(
            p.validate(),
            Err(FleetError::GrantExceedsPool { grant: 3, pool: 2 })
        );
    }

    #[test]
    fn invalid_recovery_policy_propagates() {
        let p = FleetPolicy {
            recovery: RecoveryPolicy {
                checkpoint_interval: 0,
                ..RecoveryPolicy::default()
            },
            ..FleetPolicy::default()
        };
        assert_eq!(
            p.validate(),
            Err(FleetError::Recovery(PolicyError::ZeroCheckpointInterval))
        );
    }
}
