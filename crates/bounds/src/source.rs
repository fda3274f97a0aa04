//! The analyzer as a verified pricing seam: interval queries over
//! `BackendPipeline` traces, a [`tinympc::KernelExecutor`] that prices
//! from one interval side, and the batch
//! [`soc_dse::experiments::CycleSource`] implementation the sweep engine
//! tiers on.
//!
//! Every trace analyzed here passes through the `soc-verify` gate first —
//! the analyzer claims bounds only for programs the static verifier
//! accepts, mirroring how the trace simulators gate their own inputs.

use crate::{steady_bounds, trace_bounds, CycleInterval, Side};
use soc_backend::{pipeline_for, BackendPipeline, KernelShape, Platform, Residency};
use soc_dse::experiments::{CycleSource, KernelRequest, Scenario, SolveRequest, SolveSummary};
use soc_isa::Trace;
use std::collections::HashMap;
use std::sync::Arc;
use tinympc::{KernelExecutor, KernelId, ProblemDims, SolverSettings};

fn gate(trace: &Trace, config: &soc_verify::VerifyConfig, what: &str) -> tinympc::Result<()> {
    soc_verify::gate(trace, config, what).map_err(|r| tinympc::Error::InvalidTrace {
        backend: r.backend,
        report: r.report,
    })
}

/// Steady-state cycle bounds for one solver kernel on a backend (the
/// analytical counterpart of `BackendPipeline::steady_cycles`).
///
/// # Errors
///
/// [`tinympc::Error::InvalidTrace`] if the lowered trace fails
/// verification.
pub fn kernel_bounds(
    pipeline: &dyn BackendPipeline,
    kernel: KernelId,
    dims: &ProblemDims,
) -> tinympc::Result<CycleInterval> {
    let (trace, mark) = pipeline.timed_trace(kernel, dims);
    gate(&trace, &pipeline.verify_config(), &pipeline.name())?;
    Ok(steady_bounds(
        pipeline.core(),
        &pipeline.accel_model(),
        &trace,
        mark,
    ))
}

/// One-time setup cost bounds (the analytical counterpart of
/// `BackendPipeline::setup_cost`).
///
/// # Errors
///
/// [`tinympc::Error::InvalidTrace`] if the setup trace fails
/// verification.
pub fn setup_bounds(
    pipeline: &dyn BackendPipeline,
    dims: &ProblemDims,
) -> tinympc::Result<CycleInterval> {
    let trace = pipeline.setup_trace(dims);
    if trace.ops().is_empty() {
        return Ok(CycleInterval::exact(0));
    }
    gate(
        &trace,
        &pipeline.verify_config(),
        &format!("{} setup", pipeline.name()),
    )?;
    Ok(trace_bounds(
        pipeline.core(),
        &pipeline.accel_model(),
        &trace,
    ))
}

/// Cycle bounds for a standalone GEMV/GEMM of the given size (the
/// analytical counterpart of `BackendPipeline::standalone_cycles`).
pub fn standalone_bounds(
    pipeline: &dyn BackendPipeline,
    shape: KernelShape,
    residency: Residency,
    i: usize,
    k: usize,
) -> CycleInterval {
    let (trace, mark) = pipeline.standalone_trace(shape, residency, i, k);
    if mark == 0 {
        trace_bounds(pipeline.core(), &pipeline.accel_model(), &trace)
    } else {
        steady_bounds(pipeline.core(), &pipeline.accel_model(), &trace, mark)
    }
}

/// A [`KernelExecutor`] that prices every kernel from one side of its
/// analytical interval, memoized per `(kernel, dims)` like the trace
/// pricers.
pub struct AnalyticalExecutor {
    pipeline: Arc<dyn BackendPipeline>,
    side: Side,
    kernel_memo: HashMap<(KernelId, ProblemDims), u64>,
    setup_memo: HashMap<ProblemDims, u64>,
}

impl AnalyticalExecutor {
    /// Creates an executor pricing `pipeline` from `side`.
    pub fn new(pipeline: Arc<dyn BackendPipeline>, side: Side) -> Self {
        AnalyticalExecutor {
            pipeline,
            side,
            kernel_memo: HashMap::new(),
            setup_memo: HashMap::new(),
        }
    }

    /// Creates an executor for a registry platform.
    pub fn for_platform(platform: &Platform, side: Side) -> Self {
        Self::new(pipeline_for(platform), side)
    }
}

impl KernelExecutor for AnalyticalExecutor {
    fn name(&self) -> String {
        format!(
            "{} [analytical {}]",
            self.pipeline.name(),
            self.side.label()
        )
    }

    fn kernel_cycles(&mut self, kernel: KernelId, dims: &ProblemDims) -> tinympc::Result<u64> {
        if let Some(&c) = self.kernel_memo.get(&(kernel, *dims)) {
            return Ok(c);
        }
        let c = kernel_bounds(self.pipeline.as_ref(), kernel, dims)?.pick(self.side);
        self.kernel_memo.insert((kernel, *dims), c);
        Ok(c)
    }

    fn setup_cycles(&mut self, dims: &ProblemDims) -> tinympc::Result<u64> {
        if let Some(&c) = self.setup_memo.get(dims) {
            return Ok(c);
        }
        let c = setup_bounds(self.pipeline.as_ref(), dims)?.pick(self.side);
        self.setup_memo.insert(*dims, c);
        Ok(c)
    }
}

/// Runs the ADMM solve of `scenario` with analytical pricing from one
/// interval side: the same step-0 instance and initial state the trace
/// path prices ([`Scenario::solver`]). With the default solver settings
/// (no cycle budget) pricing cannot perturb the iteration count, so the
/// per-side totals bracket the trace-priced total.
///
/// # Errors
///
/// Propagates solver construction/solve errors, including
/// [`tinympc::Error::InvalidTrace`] from the verification gate.
pub fn analytical_solve(
    platform: &Platform,
    scenario: &Scenario,
    horizon: usize,
    side: Side,
) -> tinympc::Result<SolveSummary> {
    let mut solver = scenario.solver::<f32>(horizon, SolverSettings::default())?;
    let x0 = scenario.initial_state::<f32>();
    let mut executor = AnalyticalExecutor::for_platform(platform, side);
    let status = solver.solve_in_place(x0.as_slice(), &mut executor)?;
    Ok(SolveSummary {
        total_cycles: status.total_cycles,
        iterations: status.iterations,
        converged: status.converged,
        kernel_cycles: solver.last_kernel_cycles(),
    })
}

/// End-to-end solve cycle bounds of `scenario`: the ADMM solve run once
/// per side.
///
/// # Errors
///
/// Propagates errors from either side's solve.
pub fn solve_bounds(
    platform: &Platform,
    scenario: &Scenario,
    horizon: usize,
) -> tinympc::Result<CycleInterval> {
    let lo = analytical_solve(platform, scenario, horizon, Side::Lower)?;
    let hi = analytical_solve(platform, scenario, horizon, Side::Upper)?;
    Ok(CycleInterval::new(
        lo.total_cycles.min(hi.total_cycles),
        hi.total_cycles,
    ))
}

/// The analyzer as a batch [`CycleSource`]: a drop-in replacement for the
/// trace-simulating source that prices everything from one side of its
/// analytical interval.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticalSource {
    side: Side,
}

impl AnalyticalSource {
    /// A source pricing from `side`.
    pub fn new(side: Side) -> Self {
        AnalyticalSource { side }
    }

    /// A source pricing every point optimistically.
    pub fn lower() -> Self {
        Self::new(Side::Lower)
    }

    /// A source pricing every point pessimistically.
    pub fn upper() -> Self {
        Self::new(Side::Upper)
    }

    /// The side this source prices from.
    pub fn side(&self) -> Side {
        self.side
    }
}

impl CycleSource for AnalyticalSource {
    fn solve_batch(&self, requests: &[SolveRequest]) -> Vec<tinympc::Result<SolveSummary>> {
        requests
            .iter()
            .map(|r| analytical_solve(&r.platform, &r.scenario, r.horizon, self.side))
            .collect()
    }

    fn kernel_batch(&self, requests: &[KernelRequest]) -> Vec<u64> {
        requests
            .iter()
            .map(|r| {
                standalone_bounds(
                    pipeline_for(&r.platform).as_ref(),
                    r.shape,
                    r.residency,
                    r.i,
                    r.k,
                )
                .pick(self.side)
            })
            .collect()
    }
}
