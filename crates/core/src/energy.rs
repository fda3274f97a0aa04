//! Energy model — an extension beyond the paper's published data.
//!
//! The paper's introduction frames the design space in energy terms
//! (microcontrollers too slow, out-of-order CPUs "less than 1 GOP/J",
//! GPUs 100 W+, spatial accelerators ~34 GOP/J) but reports no per-design
//! energy numbers. This module attaches a first-order, 7-nm-class energy
//! model to the same activity counts the timing models already produce:
//! per-event dynamic energies plus area-proportional leakage.
//!
//! The absolute numbers are order-of-magnitude estimates (documented
//! constants below); the *relative* story they produce — accelerators
//! deliver more control-loop work per joule than wide out-of-order cores
//! at a fraction of the area — is the robust output.

use crate::experiments::{solve_scenario_summary, Scenario};
use crate::platform::Platform;
use soc_backend::pipeline_for;
use soc_isa::{Payload, RoccCmd, TraceStats};
use tinympc::KernelId;

pub use soc_backend::EnergyParams;

/// Per-solve energy report.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// Platform name.
    pub platform: String,
    /// Dynamic energy, nanojoules per solve.
    pub dynamic_nj: f64,
    /// Leakage energy, nanojoules per solve.
    pub leakage_nj: f64,
    /// Simulated cycles per solve.
    pub cycles: u64,
    /// MPC solves per millijoule.
    pub solves_per_mj: f64,
}

impl EnergyReport {
    /// Total energy per solve in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.dynamic_nj + self.leakage_nj
    }
}

/// Activity counts from one trace, including accelerator-side work.
#[derive(Debug, Clone, Copy, Default)]
struct Activity {
    stats: TraceStats,
    mesh_macs: u64,
    dram_bytes: u64,
    spad_bytes: u64,
}

fn activity_of(trace: &soc_isa::Trace) -> Activity {
    let mut a = Activity {
        stats: trace.stats(),
        ..Default::default()
    };
    for op in trace.ops() {
        if let Payload::Rocc(cmd) = op.payload {
            match cmd {
                RoccCmd::Mvin { rows, cols, .. } | RoccCmd::Mvout { rows, cols, .. } => {
                    let bytes = rows as u64 * cols as u64 * 4;
                    a.dram_bytes += bytes;
                    a.spad_bytes += bytes;
                }
                RoccCmd::ComputeTile { rows, cols, ks, .. } => {
                    a.mesh_macs += rows as u64 * cols as u64 * ks as u64;
                    // Operands stream from the scratchpad.
                    a.spad_bytes += (rows as u64 * ks as u64 + ks as u64 * cols as u64) * 4;
                }
                RoccCmd::LoopMatmul { m, n, k } => {
                    a.mesh_macs += m as u64 * n as u64 * k as u64;
                    let bytes =
                        (m as u64 * k as u64 + k as u64 * n as u64 + m as u64 * n as u64) * 4;
                    a.dram_bytes += bytes;
                    a.spad_bytes += bytes;
                }
                _ => {}
            }
        }
    }
    a
}

/// Estimates the energy of one TinyMPC solve on a platform.
///
/// # Errors
///
/// Propagates solver failures.
pub fn solve_energy(
    platform: &Platform,
    horizon: usize,
    params: &EnergyParams,
) -> tinympc::Result<EnergyReport> {
    let summary = solve_scenario_summary(platform, &Scenario::hover(), horizon)?;
    let iterations = summary.iterations as u64;
    let dims = tinympc::ProblemDims {
        nx: 12,
        nu: 4,
        horizon,
    };

    // Accumulate per-kernel activity weighted by invocation counts.
    let mut total = Activity::default();
    let scale = |a: &mut Activity, b: Activity, times: u64| {
        let mut s = b.stats;
        let mut scaled = TraceStats::default();
        for _ in 0..times {
            scaled.merge(&s);
        }
        s = scaled;
        a.stats.merge(&s);
        a.mesh_macs += b.mesh_macs * times;
        a.dram_bytes += b.dram_bytes * times;
        a.spad_bytes += b.spad_bytes * times;
    };
    let pipeline = pipeline_for(platform);
    for kernel in KernelId::ALL {
        let times = iterations * kernel.invocations_per_iteration(horizon) as u64;
        let trace = pipeline.energy_trace(kernel, &dims);
        scale(&mut total, activity_of(&trace), times);
    }

    let s = total.stats;
    let ooo = matches!(platform.core.kind, soc_cpu::CoreKind::OutOfOrder { .. });
    let scalar_insts = s.int_ops + s.branches + s.loads + s.stores + s.scalar_fp;
    let mut dynamic_pj = s.int_ops as f64 * params.int_op_pj
        + s.branches as f64 * params.int_op_pj
        + (s.loads + s.stores) as f64 * params.mem_op_pj
        + s.scalar_fp as f64 * params.fp_op_pj
        + s.vector_elems as f64 * params.vector_elem_pj
        + s.vector_insts as f64 * params.int_op_pj
        + s.rocc_cmds as f64 * params.int_op_pj
        + total.mesh_macs as f64 * params.mesh_mac_pj
        + total.dram_bytes as f64 * params.dram_byte_pj
        + total.spad_bytes as f64 * params.spad_byte_pj;
    if ooo {
        dynamic_pj += scalar_insts as f64 * params.ooo_overhead_pj;
    }

    let area_mm2 = platform.area().total_mm2();
    let seconds = summary.total_cycles as f64 / (params.clock_ghz * 1.0e9);
    let leakage_nj = params.leakage_mw_per_mm2 * area_mm2 * seconds * 1.0e6;

    let dynamic_nj = dynamic_pj / 1.0e3;
    let total_nj = dynamic_nj + leakage_nj;
    Ok(EnergyReport {
        platform: platform.name.clone(),
        dynamic_nj,
        leakage_nj,
        cycles: summary.total_cycles,
        solves_per_mj: 1.0e6 / total_nj,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_positive_and_finite_everywhere() {
        for p in Platform::table1_registry() {
            let r = solve_energy(&p, 10, &EnergyParams::default()).unwrap();
            assert!(r.dynamic_nj > 0.0 && r.dynamic_nj.is_finite(), "{}", p.name);
            assert!(r.leakage_nj > 0.0, "{}", p.name);
        }
    }

    #[test]
    fn accelerators_beat_big_ooo_on_energy() {
        let params = EnergyParams::default();
        let by_name = |n: &str| {
            let p = Platform::table1_registry()
                .into_iter()
                .find(|p| p.name == n)
                .unwrap();
            solve_energy(&p, 10, &params).unwrap()
        };
        let mega = by_name("MegaBoom");
        let saturn = by_name("RefV512D256Shuttle");
        let gemmini = by_name("OSGemminiRocket32KB");
        assert!(
            saturn.total_nj() < mega.total_nj(),
            "saturn {} nJ vs mega {} nJ",
            saturn.total_nj(),
            mega.total_nj()
        );
        assert!(
            gemmini.total_nj() < mega.total_nj(),
            "gemmini {} nJ vs mega {} nJ",
            gemmini.total_nj(),
            mega.total_nj()
        );
    }

    #[test]
    fn leakage_scales_with_area_times_time() {
        let params = EnergyParams::default();
        let rocket = solve_energy(&Platform::rocket_eigen(), 10, &params).unwrap();
        let mega = {
            let p = Platform::table1_registry()
                .into_iter()
                .find(|p| p.name == "MegaBoom")
                .unwrap();
            solve_energy(&p, 10, &params).unwrap()
        };
        // Mega: ~7.8x area but ~1/3 the time -> leakage within ~2.6x.
        let ratio = mega.leakage_nj / rocket.leakage_nj;
        assert!(ratio > 1.5 && ratio < 5.0, "leakage ratio {ratio}");
    }
}
