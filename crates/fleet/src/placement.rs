//! The placement engine: maps tenants onto free hosts under a pluggable
//! [`PlacementStrategy`]. Rack rows are the failure-domain unit: one row
//! per HVDC power domain, [`ROWS_PER_CDU_LOOP`] rows per cooling loop, so
//! striping a tenant across rows bounds its power and cooling blast
//! radius.

use crate::policy::PlacementStrategy;
use astral_topo::{HostId, Topology};
use std::collections::BTreeSet;

/// Rack rows chained per CDU loop: cooling domains are coarser than power
/// domains (one pump failure starves two adjacent rows).
pub const ROWS_PER_CDU_LOOP: usize = 2;

/// Why a tenant could not be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// A job must request at least one host.
    ZeroHosts,
    /// Not enough free hosts right now — the job stays queued.
    InsufficientCapacity {
        /// Hosts the job needs.
        need: usize,
        /// Hosts currently free.
        free: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::ZeroHosts => write!(f, "a job needs at least one host"),
            PlacementError::InsufficientCapacity { need, free } => {
                write!(f, "need {need} hosts, only {free} free")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// The placement engine: the rack-row topology (each row one HVDC power
/// domain, [`ROWS_PER_CDU_LOOP`] rows one CDU cooling loop), shared by
/// every admission decision of a campaign.
#[derive(Debug, Clone)]
pub struct PlacementEngine {
    rows: Vec<Vec<HostId>>,
    /// `(row, position in row)` per host id.
    host_row: Vec<(usize, usize)>,
}

impl PlacementEngine {
    /// Build the engine for one fabric: rack rows from the cascade
    /// engine's pod-major (pod, block) grouping.
    pub fn new(topo: &Topology) -> Self {
        let rows = astral_core::rack_rows(topo);
        let host_row = astral_core::rack_row_index(&rows);
        PlacementEngine { rows, host_row }
    }

    /// The rack rows (failure-domain unit) of the fabric.
    pub fn rows(&self) -> &[Vec<HostId>] {
        &self.rows
    }

    /// The row `host` lives in.
    pub fn row_of(&self, host: HostId) -> Option<usize> {
        self.host_row.get(host.index()).map(|&(row, _)| row)
    }

    /// Place a `need`-host tenant on the `free` set under `strategy`.
    /// Suspect (gray-quarantined) hosts in `avoid` are deprioritized, not
    /// banned: placement first tries the free set minus `avoid`, and falls
    /// back to the full free set rather than leaving a job queued behind
    /// suspect capacity. Deterministic: identical inputs yield identical
    /// host lists.
    pub fn place(
        &self,
        need: usize,
        strategy: PlacementStrategy,
        free: &BTreeSet<HostId>,
        avoid: &BTreeSet<HostId>,
    ) -> Result<Vec<HostId>, PlacementError> {
        if need == 0 {
            return Err(PlacementError::ZeroHosts);
        }
        if need > free.len() {
            return Err(PlacementError::InsufficientCapacity {
                need,
                free: free.len(),
            });
        }
        if !avoid.is_empty() {
            let clean: BTreeSet<HostId> = free.difference(avoid).copied().collect();
            if clean.len() >= need {
                return Ok(self.pick(need, strategy, &clean));
            }
        }
        Ok(self.pick(need, strategy, free))
    }

    /// `need` hosts out of `free` (which holds at least that many).
    fn pick(
        &self,
        need: usize,
        strategy: PlacementStrategy,
        free: &BTreeSet<HostId>,
    ) -> Vec<HostId> {
        match strategy {
            PlacementStrategy::FirstFit => free.iter().copied().take(need).collect(),
            PlacementStrategy::RailAffine => self.place_rail_affine(need, free),
            PlacementStrategy::BlastRadiusSpread => self.place_spread(need, free),
        }
    }

    /// One block if any fits (rail-affine collectives), else first-fit.
    fn place_rail_affine(&self, need: usize, free: &BTreeSet<HostId>) -> Vec<HostId> {
        for row in &self.rows {
            let avail: Vec<HostId> = row.iter().copied().filter(|h| free.contains(h)).collect();
            if avail.len() >= need {
                return avail.into_iter().take(need).collect();
            }
        }
        free.iter().copied().take(need).collect()
    }

    /// Stripe across rack rows, round-robin, so the per-row (and per-CDU-
    /// loop) co-location is as small as the row count allows.
    fn place_spread(&self, need: usize, free: &BTreeSet<HostId>) -> Vec<HostId> {
        let mut per_row: Vec<Vec<HostId>> = self
            .rows
            .iter()
            .map(|row| {
                let mut avail: Vec<HostId> =
                    row.iter().copied().filter(|h| free.contains(h)).collect();
                avail.reverse(); // pop() takes the lowest id first
                avail
            })
            .collect();
        let mut placed = Vec::with_capacity(need);
        while placed.len() < need {
            let mut took_any = false;
            for avail in per_row.iter_mut() {
                if placed.len() == need {
                    break;
                }
                if let Some(h) = avail.pop() {
                    placed.push(h);
                    took_any = true;
                }
            }
            if !took_any {
                break; // free set exhausted (cannot happen: need ≤ free)
            }
        }
        placed.sort();
        placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astral_topo::{build_astral, AstralParams};
    use std::collections::BTreeMap;

    fn engine() -> PlacementEngine {
        PlacementEngine::new(&build_astral(&AstralParams::sim_small()))
    }

    fn all_free(engine: &PlacementEngine) -> BTreeSet<HostId> {
        engine.rows.iter().flatten().copied().collect()
    }

    fn no_avoid() -> BTreeSet<HostId> {
        BTreeSet::new()
    }

    /// Hosts of `hosts` per failure domain, where `domain` maps a host's
    /// rack row to its domain.
    fn per_domain(e: &PlacementEngine, hosts: &[HostId], domain: fn(usize) -> usize) -> Vec<usize> {
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for &h in hosts {
            *counts.entry(domain(e.row_of(h).unwrap())).or_default() += 1;
        }
        counts.into_values().collect()
    }

    /// Worst-case fraction of `hosts` lost to a single substrate failure
    /// domain: the max over rack-row (power) and CDU-loop (cooling)
    /// co-location.
    fn blast_fraction(e: &PlacementEngine, hosts: &[HostId]) -> f64 {
        let power = per_domain(e, hosts, |row| row);
        let cooling = per_domain(e, hosts, |row| row / ROWS_PER_CDU_LOOP);
        let worst = power.into_iter().chain(cooling).max().unwrap_or(0);
        worst as f64 / hosts.len() as f64
    }

    #[test]
    fn first_fit_packs_one_row() {
        let e = engine();
        let placed = e
            .place(8, PlacementStrategy::FirstFit, &all_free(&e), &no_avoid())
            .unwrap();
        // sim_small rows hold 8 hosts: a packed 8-host job sits in one row.
        assert_eq!(blast_fraction(&e, &placed), 1.0);
    }

    #[test]
    fn spread_minimizes_blast_fraction() {
        let e = engine();
        let strategy = PlacementStrategy::BlastRadiusSpread;
        let placed = e.place(8, strategy, &all_free(&e), &no_avoid()).unwrap();
        // 8 hosts across 8 rows: one per power domain, two per CDU loop.
        assert_eq!(per_domain(&e, &placed, |row| row).len(), 8);
        assert!(blast_fraction(&e, &placed) <= 0.25);
    }

    #[test]
    fn rail_affine_stays_in_one_row_when_possible() {
        let e = engine();
        let placed = e
            .place(6, PlacementStrategy::RailAffine, &all_free(&e), &no_avoid())
            .unwrap();
        let rows: BTreeSet<usize> = placed.iter().map(|&h| e.row_of(h).unwrap()).collect();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn capacity_errors_are_typed() {
        let e = engine();
        let free = all_free(&e);
        assert_eq!(
            e.place(0, PlacementStrategy::FirstFit, &free, &no_avoid()),
            Err(PlacementError::ZeroHosts)
        );
        assert_eq!(
            e.place(1000, PlacementStrategy::FirstFit, &free, &no_avoid()),
            Err(PlacementError::InsufficientCapacity {
                need: 1000,
                free: free.len()
            })
        );
    }

    #[test]
    fn avoid_list_deprioritizes_but_never_starves() {
        let e = engine();
        let free = all_free(&e);
        let avoid: BTreeSet<HostId> = [HostId(0), HostId(1)].into_iter().collect();
        let placed = e
            .place(8, PlacementStrategy::FirstFit, &free, &avoid)
            .unwrap();
        assert!(placed.iter().all(|h| !avoid.contains(h)));
        // When only suspect capacity remains, the job still places.
        let tight: BTreeSet<HostId> = free.iter().copied().take(3).collect();
        let avoid_all: BTreeSet<HostId> = tight.clone();
        let placed = e
            .place(3, PlacementStrategy::FirstFit, &tight, &avoid_all)
            .unwrap();
        assert_eq!(placed.len(), 3);
    }

    #[test]
    fn placement_is_deterministic() {
        let e = engine();
        let free = all_free(&e);
        for strat in [
            PlacementStrategy::FirstFit,
            PlacementStrategy::RailAffine,
            PlacementStrategy::BlastRadiusSpread,
        ] {
            assert_eq!(
                e.place(10, strat, &free, &no_avoid()).unwrap(),
                e.place(10, strat, &free, &no_avoid()).unwrap()
            );
        }
    }
}
