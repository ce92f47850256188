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
    println!("delivery chains:");
    for chain in [&ac, &dc] {
        let stages: Vec<String> = chain
            .stages
            .iter()
            .map(|(n, e)| format!("{n} ({:.1}%)", e * 100.0))
            .collect();
        println!(
            "  {:<58} → {:.1}% end-to-end",
            stages.join(" → "),
            chain.efficiency() * 100.0
        );
    }

    // One row of eight 40 kW racks.
    let unit = HvdcUnit::for_row(vec![RackPower { tdp_w: 40_000.0 }; 8], 200_000.0);
    println!(
        "\nrow of 8 racks @ 40 kW TDP: shared budget {:.0} kW",
        unit.shared_budget_w() / 1e3
    );

    // One rack bursting during backward compute.
    let mut demand = vec![34_000.0; 8];
    demand[2] = 52_000.0;
    let alloc = unit.allocate(&demand);
    println!("\nper-rack allocation (rack 2 bursting to 1.3×TDP):");
    for (i, (&d, &a)) in demand.iter().zip(&alloc).enumerate() {
        println!(
            "  rack {i}: demand {:>6.1} kW → allocated {:>6.1} kW{}",
            d / 1e3,
            a / 1e3,
            if a > 40_000.0 {
                "  (elastic, above TDP)"
            } else {
                ""
            }
        );
    }

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
    println!(
        "\ntraining load fluctuation: ±{:.1}% at the racks → ±{:.1}% at the \
         grid after battery compensation",
        before * 100.0,
        after * 100.0
    );

    sc.metric("ac_chain_efficiency", ac.efficiency());
    sc.metric("hvdc_chain_efficiency", dc.efficiency());
    sc.metric("burst_rack_kw", alloc[2] / 1e3);
    sc.metric("fluctuation_before_pct", before * 100.0);
    sc.metric("fluctuation_after_pct", after * 100.0);
    sc.series(
        "rack_allocation_kw",
        &alloc.iter().map(|a| a / 1e3).collect::<Vec<f64>>(),
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
