//! Regenerates Figure 14: speedup of the GEMV-extended Gemmini over
//! Saturn on randomly sized GEMV operations (equal PE counts, Rocket
//! frontends). The paper reports ~2.34x average after the hardware
//! extension restores full mesh utilization.

use soc_cpu::CoreConfig;
use soc_dse::experiments::{speedup_heatmap_with, KernelShape, Residency, SerialSource};
use soc_dse::platform::Platform;
use soc_dse::report::heatmap_text;
use soc_dse::workloads::{heatmap_heights, heatmap_widths};
use soc_gemmini::{GemminiConfig, GemminiOpts};
use soc_vector::SaturnConfig;

fn main() {
    let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d512());
    let gemv_gemmini = Platform::gemmini(
        CoreConfig::rocket(),
        GemminiConfig::os_4x4_32kb().with_gemv_support(),
        GemminiOpts::optimized(),
    );
    let h = speedup_heatmap_with(
        &SerialSource,
        &gemv_gemmini,
        &saturn,
        KernelShape::Gemv,
        Residency::Cold,
        &heatmap_heights(),
        &heatmap_widths(),
    );
    println!(
        "{}",
        heatmap_text(
            "Figure 14 — GEMV-Gemmini speedup over Saturn on random GEMVs",
            &h.heights,
            &h.widths,
            &h.values,
        )
    );
    println!("arithmetic mean: {:.2}x (paper: ~2.34x)", h.mean());
}
