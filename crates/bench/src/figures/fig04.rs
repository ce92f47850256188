//! Figure 4 — the distributed HVDC power system hierarchy in action.
//!
//! Paper: each HVDC unit delivers the row's total TDP; a single rack can
//! elastically draw up to +30% above its TDP; the battery on the DC bus
//! compensates the 20–30% load fluctuation that upsets UPS systems.

use crate::{Report, Scenario};
use astral_power::{HvdcUnit, PowerChain, RackPower};

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "fig04",
        "Figure 4: distributed HVDC power system",
        "row budget = total TDP; per-rack elastic +30%; battery compensates \
         20-30% training fluctuation; fewer conversions than AC/UPS",
    );

    // Delivery-chain efficiencies.
    let ac = PowerChain::traditional_ac();
    let dc = PowerChain::hvdc();
    let mut stages = Vec::new();
    for (chain, name) in [(&ac, "AC/UPS"), (&dc, "HVDC")] {
        stages.extend(
            chain
                .stages
                .iter()
                .map(|(n, e)| (name, n.to_string(), e * 100.0)),
        );
        stages.push((name, "end-to-end".to_string(), chain.efficiency() * 100.0));
    }
    sc.table("delivery_chains", "chain | stage | efficiency (%)", &stages);

    // One row of eight 40 kW racks.
    let unit = HvdcUnit::for_row(vec![RackPower { tdp_w: 40_000.0 }; 8], 200_000.0);

    // One rack bursting during backward compute.
    let mut demand = vec![34_000.0; 8];
    demand[2] = 52_000.0;
    let alloc = unit.allocate(&demand);
    let allocation: Vec<_> = demand
        .iter()
        .zip(&alloc)
        .enumerate()
        .map(|(i, (&d, &a))| {
            let elastic = if a > 40_000.0 { "above TDP" } else { "" };
            (i as u64, d / 1e3, a / 1e3, elastic)
        })
        .collect();
    sc.table(
        "rack_2_bursting_to_1.3x_tdp",
        "rack | demand (kW) | allocated (kW) | elastic",
        &allocation,
    );

    // Battery compensation of iteration-scale swings.
    let demand: Vec<f64> = (0..240)
        .map(|i| {
            if (i / 3) % 2 == 0 {
                300_000.0
            } else {
                215_000.0
            }
        })
        .collect();
    let (_, before, after) = unit.smooth(&demand, 1.0);
    sc.table(
        "row_of_8_racks",
        "quantity | value",
        &[
            ("rack TDP (kW)", 40.0),
            ("shared row budget (kW)", unit.shared_budget_w() / 1e3),
            ("load fluctuation at the racks (±%)", before * 100.0),
            ("at the grid, after the battery (±%)", after * 100.0),
        ],
    );

    sc.metric("ac_chain_efficiency", ac.efficiency());
    sc.metric("hvdc_chain_efficiency", dc.efficiency());
    sc.metric("burst_rack_kw", alloc[2] / 1e3);
    sc.metric("fluctuation_before_pct", before * 100.0);
    sc.metric("fluctuation_after_pct", after * 100.0);
    sc.series(
        "rack_allocation_kw",
        &allocation.iter().map(|r| r.2).collect::<Vec<f64>>(),
    );
    sc.finish(&[
        (
            "conversion efficiency",
            format!(
                "paper: HVDC avoids UPS double conversion | AC {:.1}% vs HVDC {:.1}%",
                ac.efficiency() * 100.0,
                dc.efficiency() * 100.0
            ),
        ),
        (
            "elastic rack budget",
            format!(
                "paper +30% | rack 2 drew {:.1} kW of 40 kW TDP",
                alloc[2] / 1e3
            ),
        ),
        (
            "battery compensation",
            format!(
                "paper: fluctuation 20-30% destabilizes UPS | {:.1}% → {:.1}% on HVDC bus",
                before * 100.0,
                after * 100.0
            ),
        ),
    ])
}
