//! Design-space exploration in ten lines: sweep every Table-I platform,
//! print the area-vs-performance trade-off and the Pareto frontier.
//!
//! ```sh
//! cargo run --example design_space --release
//! ```

use soc_dse_repro::soc_dse::experiments::{pareto_frontier, table1_with, Scenario, SerialSource};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rows = table1_with(&SerialSource, &Scenario::hover(), 10)?;
    rows.sort_by(|a, b| a.area_um2.total_cmp(&b.area_um2));
    let frontier = pareto_frontier(
        &rows
            .iter()
            .map(|r| (r.area_um2, r.cycles_per_solve as f64))
            .collect::<Vec<_>>(),
    );

    println!(
        "{:<24} {:>10} {:>14} {:>12}  Pareto",
        "configuration", "mm^2", "cycles/solve", "MPC Hz@1GHz"
    );
    for (r, on) in rows.iter().zip(frontier) {
        println!(
            "{:<24} {:>10.3} {:>14} {:>12.0}  {}",
            r.name,
            r.area_um2 / 1e6,
            r.cycles_per_solve,
            r.mpc_hz,
            if on { "*" } else { "" }
        );
    }
    println!("\n'*' marks the Pareto-optimal designs: the answer to \"which architecture\nshould my robot's SoC use\" depends on the area budget — exactly the\npaper's conclusion.");
    Ok(())
}
