//! Regenerates Figure 16: per-kernel performance of Saturn V512D128
//! (Rocket frontend) on end-to-end TinyMPC, as speedup over the Rocket
//! scalar baseline.

use soc_cpu::CoreConfig;
use soc_dse::experiments::{kernel_speedups_with, solve_scenario_summary, Scenario, SerialSource};
use soc_dse::platform::Platform;
use soc_dse::report::bar_chart;
use soc_vector::SaturnConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d128());
    let baseline = Platform::rocket_eigen();
    println!("Figure 16 — Saturn V512D128 (Rocket) per-kernel speedup over Rocket\n");
    let speedups = kernel_speedups_with(&SerialSource, &saturn, &baseline, 10)?;
    let bars: Vec<(String, f64)> = speedups.iter().map(|(k, s)| (k.to_string(), *s)).collect();
    println!("{}", bar_chart(&bars, 40));
    let e2e_s = solve_scenario_summary(&saturn, &Scenario::hover(), 10)?.total_cycles;
    let e2e_r = solve_scenario_summary(&baseline, &Scenario::hover(), 10)?.total_cycles;
    println!(
        "End-to-end: {:.2}x over Rocket (paper: 392,261/171,189 = 2.29x)",
        e2e_r as f64 / e2e_s as f64
    );
    Ok(())
}
