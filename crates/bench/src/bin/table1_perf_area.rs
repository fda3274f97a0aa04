//! Regenerates Table I: performance (cycles per TinyMPC solve) and area
//! (ASAP7 µm²) of every scalar, vector and systolic configuration.

use soc_dse::experiments::{table1_with, Scenario, SerialSource};
use soc_dse::report::markdown_table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = table1_with(&SerialSource, &Scenario::hover(), 10)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.0}", r.area_um2),
                format!("{}", r.cycles_per_solve),
                format!("{:.0}", r.mpc_hz),
            ]
        })
        .collect();
    println!("Table I — performance and area of scalar, vector and systolic architectures\n");
    println!(
        "{}",
        markdown_table(
            &[
                "Configuration",
                "Area (um^2)",
                "Cycles/solve",
                "MPC Hz @1GHz"
            ],
            &table
        )
    );
    Ok(())
}
