//! The paper's future work, evaluated: end-to-end TinyMPC on a Gemmini
//! *with* the GEMV hardware extension (the paper only evaluated the
//! extension at kernel level and noted that "hardware modifications such
//! as the GEMV support presented in this work" should be considered for
//! end-to-end evaluation), plus an 8x8 mesh point.

use soc_cpu::CoreConfig;
use soc_dse::experiments::{solve_scenario_summary, Scenario};
use soc_dse::platform::Platform;
use soc_dse::report::markdown_table;
use soc_gemmini::{GemminiConfig, GemminiOpts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Future work — GEMV-Gemmini and mesh scaling, end-to-end TinyMPC\n");
    let mut rows = Vec::new();
    let points: Vec<(&str, GemminiConfig)> = vec![
        ("OS 4x4, stock", GemminiConfig::os_4x4_32kb()),
        ("OS 4x4, 16 KiB scratchpad", GemminiConfig::os_4x4_16kb()),
        (
            "OS 4x4 + GEMV hw",
            GemminiConfig::os_4x4_32kb().with_gemv_support(),
        ),
        ("OS 8x8, stock", GemminiConfig::os_8x8_64kb()),
        (
            "OS 8x8 + GEMV hw",
            GemminiConfig::os_8x8_64kb().with_gemv_support(),
        ),
    ];
    let mut baseline = 0u64;
    for (name, cfg) in points {
        let p = Platform::gemmini(CoreConfig::rocket(), cfg, GemminiOpts::optimized());
        let area = p.area().total();
        let c = solve_scenario_summary(&p, &Scenario::hover(), 10)?.total_cycles;
        if baseline == 0 {
            baseline = c;
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", area / 1e6),
            c.to_string(),
            format!("{:.2}x", baseline as f64 / c as f64),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "configuration",
                "area (mm^2)",
                "cycles/solve",
                "speedup vs stock 4x4"
            ],
            &rows
        )
    );
    println!(
        "The GEMV extension's kernel-level gains carry over end-to-end because\nTinyMPC's iterative passes are GEMV-shaped; the 8x8 mesh adds little for\n12x4 operands — the paper's 'mesh size must match operand size' theme."
    );
    Ok(())
}
