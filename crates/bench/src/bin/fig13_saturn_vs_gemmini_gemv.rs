//! Regenerates Figure 13: speedup of Saturn over the *original* (GEMM-
//! only) Gemmini on randomly sized GEMV operations, both driven by
//! Rocket with equal PE counts (V512D512 vs a 4x4 mesh). The paper
//! reports ~2.78x average — the original mesh uses only one PE column
//! for GEMV.

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
        KernelShape::Gemv,
        Residency::Cold,
        &heatmap_heights(),
        &heatmap_widths(),
    );
    println!(
        "{}",
        heatmap_text(
            "Figure 13 — Saturn speedup over original Gemmini on random GEMVs",
            &h.heights,
            &h.widths,
            &h.values,
        )
    );
    println!("arithmetic mean: {:.2}x (paper: ~2.78x)", h.mean());
}
