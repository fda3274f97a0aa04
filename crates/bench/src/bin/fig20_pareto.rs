//! Regenerates Figure 20: the area-vs-performance trade-off of every
//! design point and the Pareto-optimal frontier for TinyMPC.

use soc_dse::experiments::{pareto_frontier, table1_with, Scenario, SerialSource};
use soc_dse::report::markdown_table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rows = table1_with(&SerialSource, &Scenario::hover(), 10)?;
    rows.sort_by(|a, b| a.area_um2.total_cmp(&b.area_um2));
    let points: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.area_um2, r.cycles_per_solve as f64))
        .collect();
    let frontier = pareto_frontier(&points);

    println!("Figure 20 — Saturn vs Gemmini vs CPUs: performance vs area\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(&frontier)
        .map(|(r, &on)| {
            vec![
                r.name.clone(),
                format!("{:.3}", r.area_um2 / 1.0e6),
                r.cycles_per_solve.to_string(),
                format!("{:.0}", r.mpc_hz),
                if on { "*".into() } else { String::new() },
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "configuration",
                "area (mm^2)",
                "cycles/solve",
                "MPC Hz @1GHz",
                "Pareto"
            ],
            &table
        )
    );
    let names: Vec<&str> = rows
        .iter()
        .zip(&frontier)
        .filter(|(_, &on)| on)
        .map(|(r, _)| r.name.as_str())
        .collect();
    println!("Pareto frontier: {}", names.join(" -> "));
    println!(
        "\nPaper's frontier: Rocket -> SmallBoom -> RefV512D128Rocket ->\nOSGemminiRocket32KB -> RefV512D128Shuttle -> RefV512D256Shuttle.\nKey claims: all Saturn/Gemmini points beat the scalar frontier; Rocket is\noptimal under ~1.4 mm^2; Gemmini is optimal in the 1.5-2.3 mm^2 window."
    );
    Ok(())
}
