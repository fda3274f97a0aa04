//! Ablation study of the paper's Gemmini software optimizations
//! (Section V-B): starting from the fully optimized mapping, disable one
//! optimization at a time and report the end-to-end TinyMPC cost.

use soc_cpu::CoreConfig;
use soc_dse::experiments::{solve_scenario_summary, Scenario};
use soc_dse::platform::Platform;
use soc_dse::report::markdown_table;
use soc_gemmini::{GemminiConfig, GemminiOpts, IsaStyle};

fn run(name: &str, opts: GemminiOpts) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let p = Platform::gemmini(CoreConfig::rocket(), GemminiConfig::os_4x4_32kb(), opts);
    let c = solve_scenario_summary(&p, &Scenario::hover(), 10)?.total_cycles;
    Ok(vec![name.to_string(), c.to_string()])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Gemmini software-optimization ablation (OS 4x4, 32 KiB, Rocket)\n");
    let opt = GemminiOpts::optimized();
    let mut rows = vec![run("fully optimized", opt)?];

    let mut no_resident = opt;
    no_resident.scratchpad_resident = false;
    rows.push(run(
        "- scratchpad residency (DRAM round-trips + fences)",
        no_resident,
    )?);

    let mut no_static = opt;
    no_static.static_mapping = false;
    rows.push(run(
        "- static mapping (dynamic RoCC construction)",
        no_static,
    )?);

    let mut coarse = opt;
    coarse.isa = IsaStyle::Coarse;
    rows.push(run("- fine-grained ISA (coarse FSM commands)", coarse)?);

    let mut no_act = opt;
    no_act.fuse_activation = false;
    rows.push(run("- fused ReLU activations (scalar abs/clip)", no_act)?);

    let mut no_pool = opt;
    no_pool.pooling_reduction = false;
    rows.push(run("- pooling reduction (full scalar max)", no_pool)?);

    rows.push(run(
        "baseline (all optimizations off)",
        GemminiOpts::baseline(),
    )?);

    println!("{}", markdown_table(&["mapping", "cycles/solve"], &rows));
    println!("Each row disables one optimization relative to the fully optimized\nmapping; the last row is the naive baseline.");
    Ok(())
}
