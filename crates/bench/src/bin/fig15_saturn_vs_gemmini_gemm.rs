//! Regenerates Figure 15: relative performance of Saturn vs Gemmini on
//! randomly sized GEMM operations. For large matrices both achieve high
//! utilization; for small matrices Gemmini's instruction sequencing wins
//! because Rocket must issue every short-vector instruction to Saturn
//! explicitly.

use soc_cpu::CoreConfig;
use soc_dse::experiments::{speedup_heatmap_with, KernelShape, Residency, SerialSource};
use soc_dse::platform::Platform;
use soc_dse::report::heatmap_text;
use soc_dse::workloads::{heatmap_heights, heatmap_widths};
use soc_gemmini::{GemminiConfig, GemminiOpts};
use soc_vector::SaturnConfig;

fn main() {
    let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d512());
    let gemmini = Platform::gemmini(
        CoreConfig::rocket(),
        GemminiConfig::os_4x4_32kb(),
        GemminiOpts::optimized(),
    );
    let h = speedup_heatmap_with(
        &SerialSource,
        &saturn,
        &gemmini,
        KernelShape::Gemm,
        Residency::Cold,
        &heatmap_heights(),
        &heatmap_widths(),
    );
    println!(
        "{}",
        heatmap_text(
            "Figure 15 — Saturn speedup over Gemmini on random GEMMs (>1 = Saturn wins)",
            &h.heights,
            &h.widths,
            &h.values,
        )
    );
    println!("arithmetic mean: {:.2}x", h.mean());
    println!("Expected shape: Gemmini wins (cells < 1) for small matrices; the gap\ncloses as sizes grow and both saturate their PEs.");
}
