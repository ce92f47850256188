//! Max-min fair rate allocation (progressive filling).
//!
//! The fluid model of RDMA transport under DCQCN at equilibrium: flows
//! sharing a link get equal shares, and every flow is bottlenecked by at
//! least one saturated link. [`max_min_rates`] is the classic from-scratch
//! water-filling algorithm and the oracle the simulator's incremental
//! solver is tested against. This module is pure (no simulator
//! state) so its invariants are directly property-testable: work
//! conservation, bottleneck consistency, and per-link capacity respect.

/// Allocate max-min fair rates.
///
/// * `capacity[l]` — capacity of link `l` in bits/s.
/// * `flow_links[f]` — the links flow `f` traverses (indices into
///   `capacity`). A flow with an empty link set (e.g. loopback) gets
///   `f64::INFINITY`.
/// * `weight[f]` — optional per-flow weight; `None` = all 1.0. A flow of
///   weight 2 receives twice the share of a weight-1 flow at their common
///   bottleneck.
///
/// Returns one rate per flow.
pub fn max_min_rates(
    capacity: &[f64],
    flow_links: &[Vec<u32>],
    weight: Option<&[f64]>,
) -> Vec<f64> {
    let nf = flow_links.len();
    let nl = capacity.len();
    let mut rate = vec![f64::INFINITY; nf];
    if nf == 0 {
        return rate;
    }

    // Remaining capacity and unfrozen weighted flow count per link.
    let mut remaining = capacity.to_vec();
    let mut load = vec![0.0f64; nl]; // sum of unfrozen weights per link
    let mut link_flows: Vec<Vec<u32>> = vec![Vec::new(); nl];
    for (f, links) in flow_links.iter().enumerate() {
        let w = weight.map_or(1.0, |ws| ws[f]);
        debug_assert!(w > 0.0, "flow weights must be positive");
        for &l in links {
            load[l as usize] += w;
            link_flows[l as usize].push(f as u32);
        }
    }

    let mut frozen = vec![false; nf];
    let mut level = 0.0f64; // current water level (rate per unit weight)

    // Only links carrying unfrozen weight participate in any round: the
    // working list starts as the loaded links and is compacted as links
    // saturate or their flows freeze, so rounds never scan the (typically
    // much larger) unloaded remainder of the fabric.
    let mut loaded: Vec<usize> = (0..nl).filter(|&l| load[l] > 1e-12).collect();

    loop {
        // Bottleneck link: the one whose remaining capacity per unit of
        // unfrozen weight is smallest.
        let mut best: Option<(usize, f64)> = None;
        for &l in &loaded {
            let fill = remaining[l] / load[l];
            if best.is_none_or(|(_, b)| fill < b) {
                best = Some((l, fill));
            }
        }
        let Some((bottleneck, delta)) = best else {
            break;
        };
        let delta = delta.max(0.0);
        level += delta;

        // Drain every loaded link by the level increase.
        for &l in &loaded {
            remaining[l] = (remaining[l] - delta * load[l]).max(0.0);
        }

        // Freeze the flows on all links that just saturated. The bottleneck
        // link is always included explicitly so floating-point noise can
        // never stall the loop.
        for &l in &loaded {
            let saturated = load[l] > 1e-12 && remaining[l] <= saturation_threshold(capacity[l]);
            if !(saturated || l == bottleneck) {
                continue;
            }
            for &f in &link_flows[l] {
                let f = f as usize;
                if !frozen[f] {
                    frozen[f] = true;
                    let w = weight.map_or(1.0, |ws| ws[f]);
                    rate[f] = level * w;
                    // Remove its weight from every other link it crosses.
                    for &l2 in &flow_links[f] {
                        load[l2 as usize] -= w;
                    }
                }
            }
            load[l] = load[l].max(0.0);
        }
        loaded.retain(|&l| load[l] > 1e-12);
    }

    rate
}

/// Remaining capacity at or below which the water-fill counts a link of
/// capacity `cap` as saturated. [`max_min_rates`], the simulator's solver
/// and the max-min certificate share it.
pub(crate) fn saturation_threshold(cap: f64) -> f64 {
    1e-6 * cap.max(1.0)
}

/// Check the max-min bottleneck property of an allocation: no link carries
/// more than its capacity plus the saturation threshold, and every flow
/// with a finite rate crosses at least one link that is (a) saturated and
/// (b) one on which the flow's rate per unit weight is maximal. `weight`
/// is as for [`max_min_rates`]. Returns the first violating flow, or
/// `usize::MAX` for a capacity violation. Linear in the total path length.
pub fn check_bottleneck_property(
    capacity: &[f64],
    flow_links: &[Vec<u32>],
    weight: Option<&[f64]>,
    rates: &[f64],
) -> Option<usize> {
    let mut used = vec![0.0; capacity.len()];
    for (f, links) in flow_links.iter().enumerate() {
        for &l in links {
            used[l as usize] += rates[f];
        }
    }
    let mut top = vec![0.0; capacity.len()];
    certificate_violation(
        capacity,
        &used,
        &mut top,
        flow_links.len(),
        |f| &flow_links[f],
        |f| rates[f] / weight.map_or(1.0, |w| w[f]),
    )
}

/// The max-min certificate over `n` flows, where flow `i` crosses
/// `path(i)` at `level(i)`, its rate per unit weight, and `used[l]` is the
/// total rate on link `l`:
///
/// * no link on any path carries more than its capacity plus the
///   saturation threshold;
/// * every flow with a finite level and a nonempty path crosses a
///   saturated link on which its level is the largest. A link counts as
///   saturated within twice the threshold, because the fill's running
///   remainder and the summed rates round differently.
///
/// `top` is per-link scratch (the largest level seen on each link). Returns
/// the first violating flow, or `usize::MAX` for a link over capacity.
pub(crate) fn certificate_violation<'p>(
    cap: &[f64],
    used: &[f64],
    top: &mut [f64],
    n: usize,
    path: impl Fn(usize) -> &'p [u32],
    level: impl Fn(usize) -> f64,
) -> Option<usize> {
    for i in 0..n {
        for &l in path(i) {
            let l = l as usize;
            if used[l] > cap[l] + saturation_threshold(cap[l]) {
                return Some(usize::MAX);
            }
            top[l] = 0.0;
        }
    }
    for i in 0..n {
        let lv = level(i);
        if lv.is_finite() {
            for &l in path(i) {
                top[l as usize] = top[l as usize].max(lv);
            }
        }
    }
    (0..n).find(|&i| {
        let lv = level(i);
        let links = path(i);
        lv.is_finite()
            && !links.is_empty()
            && !links.iter().any(|&l| {
                let l = l as usize;
                cap[l] - used[l] <= 2.0 * saturation_threshold(cap[l])
                    && lv >= top[l] * (1.0 - 1e-9)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_link_equal_split() {
        let caps = [100.0];
        let flows = vec![vec![0u32], vec![0], vec![0], vec![0]];
        let r = max_min_rates(&caps, &flows, None);
        for &x in &r {
            assert!((x - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_split() {
        let caps = [90.0];
        let flows = vec![vec![0u32], vec![0]];
        let r = max_min_rates(&caps, &flows, Some(&[1.0, 2.0]));
        assert!((r[0] - 30.0).abs() < 1e-9);
        assert!((r[1] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn classic_three_flow_two_link() {
        // f0 on l0 only, f1 on l1 only, f2 on both. caps: l0=10, l1=4.
        // Water fills to 2 (l1 saturates: f1=f2=2), then f0 fills l0's
        // leftover: 10-2=8.
        let caps = [10.0, 4.0];
        let flows = vec![vec![0u32], vec![1], vec![0, 1]];
        let r = max_min_rates(&caps, &flows, None);
        assert!((r[2] - 2.0).abs() < 1e-9);
        assert!((r[1] - 2.0).abs() < 1e-9);
        assert!((r[0] - 8.0).abs() < 1e-9);
        assert_eq!(check_bottleneck_property(&caps, &flows, None, &r), None);
    }

    #[test]
    fn bottleneck_check_compares_rate_per_weight() {
        let caps = [90.0];
        let flows = vec![vec![0u32], vec![0]];
        let w = [1.0, 2.0];
        let r = max_min_rates(&caps, &flows, Some(&w));
        assert_eq!(check_bottleneck_property(&caps, &flows, Some(&w), &r), None);
        // Equal rates starve the weight-2 flow; unweighted, the weighted
        // split looks unfair to the weight-1 flow.
        let even = [45.0, 45.0];
        assert_eq!(
            check_bottleneck_property(&caps, &flows, Some(&w), &even),
            Some(1)
        );
        assert_eq!(check_bottleneck_property(&caps, &flows, None, &r), Some(0));
        // Over capacity by more than the saturation threshold.
        let over = [30.0, 60.1];
        assert_eq!(
            check_bottleneck_property(&caps, &flows, Some(&w), &over),
            Some(usize::MAX)
        );
    }

    #[test]
    fn empty_path_flow_is_unconstrained() {
        let caps = [5.0];
        let flows = vec![vec![], vec![0u32]];
        let r = max_min_rates(&caps, &flows, None);
        assert!(r[0].is_infinite());
        assert!((r[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn no_flows_no_panic() {
        let r = max_min_rates(&[1.0, 2.0], &[], None);
        assert!(r.is_empty());
    }

    #[test]
    fn long_chain_bottleneck() {
        // A flow crossing 5 links is limited by the narrowest one.
        let caps = [10.0, 8.0, 3.0, 9.0, 12.0];
        let flows = vec![vec![0u32, 1, 2, 3, 4]];
        let r = max_min_rates(&caps, &flows, None);
        assert!((r[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_sharing() {
        // l0 cap 10 carries f0,f1; l1 cap 2 carries f1 only.
        // f1 freezes at 2 on l1; f0 then takes 8 on l0.
        let caps = [10.0, 2.0];
        let flows = vec![vec![0u32], vec![0, 1]];
        let r = max_min_rates(&caps, &flows, None);
        assert!((r[1] - 2.0).abs() < 1e-9);
        assert!((r[0] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn work_conserving_on_shared_bottleneck() {
        // 10 flows over one 100-capacity link: total == capacity.
        let caps = [100.0];
        let flows: Vec<Vec<u32>> = (0..10).map(|_| vec![0u32]).collect();
        let r = max_min_rates(&caps, &flows, None);
        let total: f64 = r.iter().sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_link_stalls_flows() {
        let caps = [0.0, 10.0];
        let flows = vec![vec![0u32, 1], vec![1]];
        let r = max_min_rates(&caps, &flows, None);
        assert!(r[0].abs() < 1e-9, "flow through dead link gets ~0");
        assert!((r[1] - 10.0).abs() < 1e-6);
    }
}
