//! Interval queries over `BackendPipeline` traces: the analytical
//! counterparts of the pipeline's kernel, setup and standalone cycle
//! measurements.
//!
//! Kernel and setup traces pass through the `soc-verify` gate first —
//! the analyzer claims bounds only for programs the static verifier
//! accepts, mirroring how the trace simulators gate their own inputs.

use crate::{steady_bounds, trace_bounds, CycleInterval};
use soc_backend::{BackendPipeline, KernelShape, Residency};
use soc_isa::Trace;
use tinympc::{KernelId, ProblemDims};

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
