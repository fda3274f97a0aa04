//! Runnable reproductions of the paper's experiments: end-to-end TinyMPC
//! solves, per-kernel breakdowns, standalone kernel sweeps, and the
//! Pareto analysis.
//!
//! Every experiment that prices more than one design point is expressed
//! against a [`CycleSource`]: a batch oracle for solve and standalone
//! kernel cycle counts. [`SerialSource`] is the reference implementation
//! (compute every request in order, on this thread); the `soc-sweep`
//! crate provides a parallel, memoized implementation that must remain
//! bit-identical to it.

use crate::platform::Platform;
use soc_backend::pipeline_for;
use tinympc::{KernelCycles, KernelId, SolverSettings};

pub use soc_backend::{KernelShape, Residency};
pub use soc_scenarios::{evaluate_closed_loop, ClosedLoopReport, Scenario, ScenarioCatalog};

/// Prices one MPC solve of `scenario` on a platform: the scenario's
/// step-0 instance at `horizon` ([`Scenario::solver`]), solved from its
/// characteristic initial state with default settings, every kernel
/// charged to the platform's executor. This is the one function that
/// prices a solve; every table and figure is built from it.
///
/// Callers that need the applied control, the residuals, custom
/// [`SolverSettings`] or an arbitrary problem drive
/// [`tinympc::AdmmSolver::solve_in_place`] themselves.
///
/// # Errors
///
/// Propagates solver construction/solve failures.
pub fn solve_scenario_summary(
    platform: &Platform,
    scenario: &Scenario,
    horizon: usize,
) -> tinympc::Result<SolveSummary> {
    let mut solver = scenario.solver::<f32>(horizon, SolverSettings::default())?;
    let x0 = scenario.initial_state::<f32>();
    let status = solver.solve_in_place(x0.as_slice(), platform.executor().as_mut())?;
    Ok(SolveSummary {
        total_cycles: status.total_cycles,
        iterations: status.iterations,
        converged: status.converged,
        kernel_cycles: solver.last_kernel_cycles(),
    })
}

/// Cycle-relevant summary of one end-to-end solve — everything the sweep
/// experiments (Table I, kernel speedups) need, and nothing that cannot
/// be cheaply cached (no trajectories, no residual history).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveSummary {
    /// Simulated cycles for the whole solve.
    pub total_cycles: u64,
    /// ADMM iterations performed.
    pub iterations: usize,
    /// Whether the solver reported convergence.
    pub converged: bool,
    /// Per-kernel cycle attribution.
    pub kernel_cycles: KernelCycles,
}

impl SolveSummary {
    /// Cycles per ADMM iteration (total divided by iterations).
    pub fn cycles_per_iteration(&self) -> f64 {
        self.total_cycles as f64 / self.iterations.max(1) as f64
    }
}

/// A request to price one end-to-end MPC solve of a scenario.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Platform to charge cycles to.
    pub platform: Platform,
    /// Workload to solve.
    pub scenario: Scenario,
    /// MPC horizon length.
    pub horizon: usize,
}

impl SolveRequest {
    /// A solve request for an arbitrary scenario.
    pub fn new(platform: Platform, scenario: Scenario, horizon: usize) -> Self {
        Self {
            platform,
            scenario,
            horizon,
        }
    }
}

/// A request to price one standalone kernel invocation.
#[derive(Debug, Clone)]
pub struct KernelRequest {
    /// Platform to charge cycles to.
    pub platform: Platform,
    /// GEMV or GEMM.
    pub shape: KernelShape,
    /// Cold (one-shot, DMA charged) or warm (steady-state).
    pub residency: Residency,
    /// Matrix height.
    pub i: usize,
    /// Matrix width / reduction length.
    pub k: usize,
}

/// Batch oracle for cycle counts.
///
/// Implementations MUST return exactly one element per request, in
/// request order, and MUST be deterministic: the same batch always
/// yields the same answers, bit for bit, regardless of how the work is
/// scheduled internally. [`SerialSource`] is the reference; the
/// `soc-sweep` engine is the parallel, memoized implementation and is
/// tested bit-identical against it.
pub trait CycleSource {
    /// Prices a batch of end-to-end solves.
    fn solve_batch(&self, requests: &[SolveRequest]) -> Vec<tinympc::Result<SolveSummary>>;

    /// Prices a batch of standalone kernels.
    fn kernel_batch(&self, requests: &[KernelRequest]) -> Vec<u64>;
}

/// Reference [`CycleSource`]: computes every request in order on the
/// calling thread with no caching. The bit-exact baseline every other
/// source is measured against.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialSource;

impl CycleSource for SerialSource {
    fn solve_batch(&self, requests: &[SolveRequest]) -> Vec<tinympc::Result<SolveSummary>> {
        requests
            .iter()
            .map(|r| solve_scenario_summary(&r.platform, &r.scenario, r.horizon))
            .collect()
    }

    fn kernel_batch(&self, requests: &[KernelRequest]) -> Vec<u64> {
        requests
            .iter()
            .map(|r| standalone_kernel(&r.platform, r.shape, r.residency, r.i, r.k))
            .collect()
    }
}

/// One row of the paper's Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Configuration name.
    pub name: String,
    /// Total platform area (µm²).
    pub area_um2: f64,
    /// Simulated cycles per MPC solve.
    pub cycles_per_solve: u64,
    /// Achievable MPC rate at a 1 GHz clock.
    pub mpc_hz: f64,
}

/// Regenerates Table I: area and cycles-per-solve of `scenario` (the
/// paper's is hover) on every registry platform, submitting the solves
/// through `source` as one batch.
///
/// # Errors
///
/// Propagates solver failures.
pub fn table1_with(
    source: &dyn CycleSource,
    scenario: &Scenario,
    horizon: usize,
) -> tinympc::Result<Vec<Table1Row>> {
    let registry = Platform::table1_registry();
    let requests: Vec<SolveRequest> = registry
        .iter()
        .map(|p| SolveRequest::new(p.clone(), scenario.clone(), horizon))
        .collect();
    let summaries = source.solve_batch(&requests);
    assert_eq!(summaries.len(), requests.len(), "CycleSource contract");
    registry
        .iter()
        .zip(summaries)
        .map(|(p, summary)| {
            let cycles = summary?.total_cycles;
            Ok(Table1Row {
                name: p.name.clone(),
                area_um2: p.area().total(),
                cycles_per_solve: cycles,
                mpc_hz: 1.0e9 / cycles.max(1) as f64,
            })
        })
        .collect()
}

/// Marks the Pareto-optimal points among `(area, cycles)` pairs (both
/// minimized). Returns one flag per input point.
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<bool> {
    points
        .iter()
        .map(|&(a, c)| {
            !points
                .iter()
                .any(|&(a2, c2)| a2 <= a && c2 <= c && (a2 < a || c2 < c))
        })
        .collect()
}

/// Per-kernel speedup of `platform` over `baseline` (both solving the
/// hover scenario), submitting both solves through `source` as one batch.
///
/// # Errors
///
/// Propagates solver failures.
pub fn kernel_speedups_with(
    source: &dyn CycleSource,
    platform: &Platform,
    baseline: &Platform,
    horizon: usize,
) -> tinympc::Result<Vec<(KernelId, f64)>> {
    let requests =
        [platform, baseline].map(|p| SolveRequest::new(p.clone(), Scenario::hover(), horizon));
    let mut summaries = source.solve_batch(&requests).into_iter();
    let (Some(a), Some(b)) = (summaries.next(), summaries.next()) else {
        panic!("CycleSource contract: two requests, two answers");
    };
    let (a, b) = (a?.kernel_cycles, b?.kernel_cycles);
    // Kernels charged on both sides, in `KernelId::ALL` order.
    Ok(a.iter()
        .filter_map(|(k, ca)| {
            let (_, cb) = b.iter().find(|&(kb, _)| kb == k)?;
            Some((k, cb as f64 / ca.max(1) as f64))
        })
        .collect())
}

/// Cycles for a standalone GEMV/GEMM of the given size on a platform.
///
/// Measured in steady state (the kernel is emitted twice and the second
/// copy is charged), matching the paper's kernel-level methodology:
/// Gemmini operates on scratchpad-resident operands and Saturn streams
/// from the L1, without cold DMA warm-up dominating the comparison.
pub fn standalone_kernel(
    platform: &Platform,
    shape: KernelShape,
    residency: Residency,
    i: usize,
    k: usize,
) -> u64 {
    pipeline_for(platform).standalone_cycles(shape, residency, i, k)
}

/// A 2-D sweep of relative speedups over (I, K) kernel sizes.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Row axis: matrix heights (I).
    pub heights: Vec<usize>,
    /// Column axis: matrix widths / reduction lengths (K).
    pub widths: Vec<usize>,
    /// `values[r][c]` = speedup of the numerator platform over the
    /// denominator at `(heights[r], widths[c])`.
    pub values: Vec<Vec<f64>>,
}

impl Heatmap {
    /// Geometric mean of all cells.
    ///
    /// Guarded: computed in log space (a 64×64 grid of large ratios
    /// would overflow a running product to `inf`), skips non-finite and
    /// non-positive cells, and returns `1.0` for an empty or fully
    /// degenerate grid instead of NaN.
    pub fn geomean(&self) -> f64 {
        crate::report::geomean(self.values.iter().flatten().copied())
    }

    /// Arithmetic mean of all cells (the paper quotes arithmetic "on
    /// average ~Nx" speedups).
    pub fn mean(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for row in &self.values {
            for v in row {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }
}

/// Sweeps `(I, K)` sizes and reports the speedup of `numerator` over
/// `denominator` (cycles_denominator / cycles_numerator), submitting
/// all `2 · |heights| · |widths|` kernel pricings through `source` as
/// one batch.
pub fn speedup_heatmap_with(
    source: &dyn CycleSource,
    numerator: &Platform,
    denominator: &Platform,
    shape: KernelShape,
    residency: Residency,
    heights: &[usize],
    widths: &[usize],
) -> Heatmap {
    let mut requests = Vec::with_capacity(2 * heights.len() * widths.len());
    for &i in heights {
        for &k in widths {
            for platform in [numerator, denominator] {
                requests.push(KernelRequest {
                    platform: platform.clone(),
                    shape,
                    residency,
                    i,
                    k,
                });
            }
        }
    }
    let cycles = source.kernel_batch(&requests);
    assert_eq!(cycles.len(), requests.len(), "CycleSource contract");
    let mut pairs = cycles.chunks_exact(2);
    let values = heights
        .iter()
        .map(|_| {
            widths
                .iter()
                .map(|_| {
                    let pair = pairs.next().expect("one (num, den) pair per cell");
                    let (n, d) = (pair[0].max(1), pair[1].max(1));
                    d as f64 / n as f64
                })
                .collect()
        })
        .collect();
    Heatmap {
        heights: heights.to_vec(),
        widths: widths.to_vec(),
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use soc_cpu::CoreConfig;
    use soc_gemmini::{GemminiConfig, GemminiOpts};
    use soc_vector::SaturnConfig;
    use tinympc::{AdmmSolver, SolveStatus};

    fn hover(platform: &Platform, horizon: usize) -> SolveSummary {
        solve_scenario_summary(platform, &Scenario::hover(), horizon).unwrap()
    }

    /// Solves from `x0` on `platform`: the status and the applied control.
    fn solve_on(
        platform: &Platform,
        solver: &mut AdmmSolver<f32>,
        x0: &[f32],
    ) -> (SolveStatus, Vec<f32>) {
        let status = solver
            .solve_in_place(x0, platform.executor().as_mut())
            .unwrap();
        (status, solver.u0().to_vec())
    }

    #[test]
    fn pareto_marks_dominated_points() {
        let pts = [(1.0, 10.0), (2.0, 5.0), (3.0, 6.0), (4.0, 1.0)];
        let flags = pareto_frontier(&pts);
        assert_eq!(flags, vec![true, true, false, true]);
    }

    #[test]
    fn hover_scenario_is_bit_identical_to_the_legacy_path() {
        // The pre-scenario solve path: quadrotor_hover problem, no
        // set_reference (workspace xref stays zeroed), x0 offset 0.2.
        let platform = Platform::rocket_eigen();
        let problem = tinympc::problems::quadrotor_hover::<f32>(10).unwrap();
        let mut legacy = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
        let x0 = legacy.problem().hover_offset_state(0.2);
        let (legacy, legacy_u0) = solve_on(&platform, &mut legacy, x0.as_slice());
        let hover = Scenario::hover();
        let mut scenario = hover.solver(10, SolverSettings::default()).unwrap();
        let x0 = hover.initial_state::<f32>();
        let (scenario, scenario_u0) = solve_on(&platform, &mut scenario, x0.as_slice());
        assert_eq!(legacy.total_cycles, scenario.total_cycles);
        assert_eq!(legacy.iterations, scenario.iterations);
        assert_eq!(legacy_u0, scenario_u0, "u0 must match bit for bit");
    }

    #[test]
    fn scenarios_change_the_priced_workload() {
        let platform = Platform::rocket_eigen();
        let quad = hover(&platform, 10);
        let dint = solve_scenario_summary(&platform, &Scenario::double_integrator(), 10).unwrap();
        // A 2×1 plant must be far cheaper per ADMM iteration than the
        // 12×4 quad (iteration counts differ between workloads).
        assert!(dint.cycles_per_iteration() < quad.cycles_per_iteration() / 4.0);
        // And the SOC scenario must still solve to a finite input.
        let landing = Scenario::soft_landing();
        let mut soc = landing.solver(10, SolverSettings::default()).unwrap();
        let x0 = landing.initial_state::<f32>();
        let (_, u0) = solve_on(&platform, &mut soc, x0.as_slice());
        assert!(u0.iter().all(|u| u.is_finite()));
    }

    #[test]
    fn rocket_solve_produces_breakdown() {
        let summary = hover(&Platform::rocket_eigen(), 10);
        assert!(summary.converged);
        assert!(summary.total_cycles > 10_000);
        assert_eq!(summary.kernel_cycles.iter().count(), 15);
    }

    #[test]
    fn saturn_beats_rocket_end_to_end() {
        let rocket = hover(&Platform::rocket_eigen(), 10);
        let saturn = hover(
            &Platform::saturn(CoreConfig::shuttle(), SaturnConfig::v512d256()),
            10,
        );
        assert!(
            saturn.total_cycles < rocket.total_cycles,
            "saturn {} vs rocket {}",
            saturn.total_cycles,
            rocket.total_cycles
        );
    }

    #[test]
    fn standalone_gemv_saturn_beats_plain_gemmini() {
        // Figure 13: Saturn over original (GEMM-only) Gemmini on GEMV.
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
            &workloads::heatmap_heights()[..3],
            &workloads::heatmap_widths()[..3],
        );
        assert!(
            h.mean() > 1.0,
            "Saturn should beat plain Gemmini on GEMV: {}",
            h.mean()
        );
    }

    #[test]
    fn gemv_extension_flips_the_comparison() {
        // Figure 14: GEMV-Gemmini over Saturn on GEMV.
        let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d512());
        let plain = Platform::gemmini(
            CoreConfig::rocket(),
            GemminiConfig::os_4x4_32kb(),
            GemminiOpts::optimized(),
        );
        let ext = Platform::gemmini(
            CoreConfig::rocket(),
            GemminiConfig::os_4x4_32kb().with_gemv_support(),
            GemminiOpts::optimized(),
        );
        let hs = workloads::heatmap_heights();
        let ws_ = workloads::heatmap_widths();
        let plain_vs_saturn = speedup_heatmap_with(
            &SerialSource,
            &plain,
            &saturn,
            KernelShape::Gemv,
            Residency::Cold,
            &hs[..4],
            &ws_[..4],
        );
        let ext_vs_saturn = speedup_heatmap_with(
            &SerialSource,
            &ext,
            &saturn,
            KernelShape::Gemv,
            Residency::Cold,
            &hs[..4],
            &ws_[..4],
        );
        assert!(
            ext_vs_saturn.mean() > plain_vs_saturn.mean(),
            "extension should improve Gemmini vs Saturn: {} vs {}",
            ext_vs_saturn.mean(),
            plain_vs_saturn.mean()
        );
    }

    #[test]
    fn heatmap_stats() {
        let h = Heatmap {
            heights: vec![1, 2],
            widths: vec![1, 2],
            values: vec![vec![1.0, 4.0], vec![4.0, 1.0]],
        };
        assert!((h.geomean() - 2.0).abs() < 1e-12);
        assert!((h.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn heatmap_geomean_survives_degenerate_cells() {
        // Empty grid: multiplicative identity, not NaN (0^(1/0)).
        let empty = Heatmap {
            heights: vec![],
            widths: vec![],
            values: vec![],
        };
        assert_eq!(empty.geomean(), 1.0);
        assert_eq!(empty.mean(), 1.0);

        // All-degenerate cells (zero speedup, NaN from 0/0 pricing):
        // skipped, not propagated.
        let degenerate = Heatmap {
            heights: vec![4],
            widths: vec![4, 8, 16],
            values: vec![vec![0.0, f64::NAN, -1.0]],
        };
        assert_eq!(degenerate.geomean(), 1.0);

        // Degenerate cells must not poison healthy ones.
        let mixed = Heatmap {
            heights: vec![4],
            widths: vec![4, 8],
            values: vec![vec![f64::NAN, 9.0]],
        };
        assert!((mixed.geomean() - 9.0).abs() < 1e-12);

        // A large grid of large ratios must not overflow to inf (the
        // old running-product implementation did).
        let big = Heatmap {
            heights: vec![0; 64],
            widths: vec![0; 64],
            values: vec![vec![1e30; 64]; 64],
        };
        let g = big.geomean();
        assert!(g.is_finite(), "geomean overflowed: {g}");
        assert!((g - 1e30).abs() / 1e30 < 1e-10);
    }

    #[test]
    fn serial_source_matches_direct_calls() {
        let rocket = Platform::rocket_eigen();
        let saturn = Platform::saturn(CoreConfig::shuttle(), SaturnConfig::v512d256());

        // Solve batch ≡ solve_scenario_summary, element for element.
        let requests = [
            SolveRequest::new(rocket.clone(), Scenario::hover(), 8),
            SolveRequest::new(saturn.clone(), Scenario::double_integrator(), 8),
        ];
        let batch = SerialSource.solve_batch(&requests);
        assert_eq!(batch.len(), 2);
        for (req, got) in requests.iter().zip(&batch) {
            let direct = solve_scenario_summary(&req.platform, &req.scenario, req.horizon);
            assert_eq!(got.as_ref().unwrap(), &direct.unwrap());
        }

        // Kernel batch ≡ standalone_kernel, element for element.
        let kreqs = [
            KernelRequest {
                platform: rocket.clone(),
                shape: KernelShape::Gemv,
                residency: Residency::Cold,
                i: 8,
                k: 8,
            },
            KernelRequest {
                platform: saturn,
                shape: KernelShape::Gemm,
                residency: Residency::Warm,
                i: 12,
                k: 12,
            },
        ];
        let cycles = SerialSource.kernel_batch(&kreqs);
        for (req, got) in kreqs.iter().zip(&cycles) {
            assert_eq!(
                *got,
                standalone_kernel(&req.platform, req.shape, req.residency, req.i, req.k)
            );
        }
    }
}
