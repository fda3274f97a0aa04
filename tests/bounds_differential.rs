//! Differential tests for the `soc-bounds` static cycle-bound analyzer:
//! the abstract interpreter's `[lower, upper]` intervals against the
//! trace simulators they model, across every registered back-end.
//!
//! The contract under test, per back-end family:
//!
//! * **In-order cores** ([`BoundClaim::Exact`]): the analyzer replicates
//!   the simulator bit for bit — every interval is a singleton equal to
//!   the trace-simulated cycle count, for kernels, setup traces, and
//!   standalone measurements alike.
//! * **Out-of-order cores** ([`BoundClaim::Bounded`]): the analyzer
//!   brackets the simulator — the simulated count always lies inside the
//!   interval, and the upper bound stays within a bounded factor of the
//!   simulated count ([`OOO_UPPER_FACTOR`]). (The steady-state lower
//!   bound may clamp degenerately on short kernels; soundness, not
//!   tightness, is the contract there.)
//! * **Solve level**: with the default solver settings there is no cycle
//!   budget, so pricing cannot perturb iteration counts. A solve costs
//!   `setup + Σ_k calls_k × price_k`, so the join of the setup interval
//!   with `Σ_k calls_k × [lo_k, hi_k]` must bracket the trace-priced total.

use soc_dse_repro::soc_backend::{pipeline_for, BoundClaim};
use soc_dse_repro::soc_bounds::{kernel_bounds, setup_bounds, standalone_bounds, CycleInterval};
use soc_dse_repro::soc_dse::experiments::{
    solve_scenario_summary, KernelShape, Residency, Scenario,
};
use soc_dse_repro::soc_dse::platform::Platform;
use soc_dse_repro::soc_sweep::SweepSpec;
use soc_dse_repro::tinympc::{
    KernelCycles, KernelExecutor, KernelId, ProblemDims, Result, SolverSettings,
};

/// Empirical ceiling (with margin) on `upper / simulated` for
/// out-of-order backends: observed max is 7x across the registry grid.
const OOO_UPPER_FACTOR: u64 = 8;

fn dims(horizon: usize) -> ProblemDims {
    ProblemDims {
        nx: 12,
        nu: 4,
        horizon,
    }
}

#[test]
fn kernel_bounds_hold_for_every_registry_backend() {
    for platform in &Platform::table1_registry() {
        let pipeline = pipeline_for(platform);
        let claim = pipeline.bound_claim();
        for &horizon in &[6, 10] {
            let d = dims(horizon);
            for &kernel in KernelId::ALL.iter() {
                let interval = kernel_bounds(pipeline.as_ref(), kernel, &d).unwrap();
                let simulated = pipeline.steady_cycles(kernel, &d).unwrap();
                assert!(
                    interval.contains(simulated),
                    "{} / {kernel} @ horizon {horizon}: simulated {simulated} \
                     outside {interval}",
                    platform.name
                );
                match claim {
                    BoundClaim::Exact => assert!(
                        interval.is_exact(),
                        "{} / {kernel}: exactness claimed but got {interval}",
                        platform.name
                    ),
                    BoundClaim::Bounded => assert!(
                        interval.hi <= OOO_UPPER_FACTOR * simulated,
                        "{} / {kernel}: upper bound {} further than {OOO_UPPER_FACTOR}x \
                         from simulated {simulated}",
                        platform.name,
                        interval.hi
                    ),
                }
            }
        }
    }
}

#[test]
fn setup_bounds_hold_for_every_registry_backend() {
    for platform in &Platform::table1_registry() {
        let pipeline = pipeline_for(platform);
        let d = dims(10);
        let interval = setup_bounds(pipeline.as_ref(), &d).unwrap();
        let simulated = pipeline.setup_cost(&d).unwrap();
        assert!(
            interval.contains(simulated),
            "{} setup: simulated {simulated} outside {interval}",
            platform.name
        );
        if pipeline.bound_claim() == BoundClaim::Exact {
            assert!(interval.is_exact(), "{} setup: {interval}", platform.name);
        }
    }
}

#[test]
fn standalone_bounds_hold_across_shapes_and_residencies() {
    for platform in &Platform::table1_registry() {
        let pipeline = pipeline_for(platform);
        let exact = pipeline.bound_claim() == BoundClaim::Exact;
        for shape in [KernelShape::Gemv, KernelShape::Gemm] {
            for residency in [Residency::Cold, Residency::Warm] {
                for (i, k) in [(4, 4), (8, 8), (12, 4)] {
                    let interval = standalone_bounds(pipeline.as_ref(), shape, residency, i, k);
                    let simulated = pipeline.standalone_cycles(shape, residency, i, k);
                    assert!(
                        interval.contains(simulated),
                        "{} {shape:?}/{residency:?} {i}x{k}: simulated {simulated} \
                         outside {interval}",
                        platform.name
                    );
                    if exact {
                        assert!(
                            interval.is_exact(),
                            "{} {shape:?}/{residency:?} {i}x{k}: {interval}",
                            platform.name
                        );
                    }
                }
            }
        }
    }
}

/// Charges one cycle per kernel call and nothing for setup, so a solve's
/// per-kernel cycle table is its call counts.
struct UnitPrice;

impl KernelExecutor for UnitPrice {
    fn name(&self) -> String {
        "unit price".into()
    }

    fn kernel_cycles(&mut self, _kernel: KernelId, _dims: &ProblemDims) -> Result<u64> {
        Ok(1)
    }
}

/// Per-kernel call counts of one solve of `scenario` at `horizon`.
fn call_counts(scenario: &Scenario, horizon: usize) -> KernelCycles {
    let mut solver = scenario
        .solver::<f32>(horizon, SolverSettings::default())
        .unwrap();
    let x0 = scenario.initial_state::<f32>();
    solver
        .solve_in_place(x0.as_slice(), &mut UnitPrice)
        .unwrap();
    solver.last_kernel_cycles()
}

#[test]
fn solve_bounds_bracket_the_trace_priced_solve() {
    // One platform per family plus one out-of-order point; short horizon
    // keeps the end-to-end solves seconds-scale.
    let spec = SweepSpec::smoke();
    let mut platforms = spec.platforms.clone();
    platforms.push(
        Platform::table1_registry()
            .into_iter()
            .find(|p| p.name == "SmallBoom")
            .expect("SmallBoom is registered"),
    );
    let (scenario, horizon) = (Scenario::hover(), 6);
    let d = dims(horizon);
    let calls = call_counts(&scenario, horizon);
    for platform in &platforms {
        let pipeline = pipeline_for(platform);
        let setup = setup_bounds(pipeline.as_ref(), &d).unwrap();
        let (mut lo, mut hi) = (setup.lo, setup.hi);
        for (kernel, n) in calls.iter() {
            let k = kernel_bounds(pipeline.as_ref(), kernel, &d).unwrap();
            lo += n * k.lo;
            hi += n * k.hi;
        }
        let interval = CycleInterval::new(lo, hi);
        let simulated = solve_scenario_summary(platform, &scenario, horizon)
            .unwrap()
            .total_cycles;
        assert!(
            interval.contains(simulated),
            "{}: solve total {simulated} outside {interval}",
            platform.name
        );
        if pipeline.bound_claim() == BoundClaim::Exact {
            assert!(
                interval.is_exact(),
                "{}: in-order solve bounds must collapse, got {interval}",
                platform.name
            );
        }
    }
}
