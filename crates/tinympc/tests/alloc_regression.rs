//! Allocation regression gate for the solver hot path.
//!
//! The arena-workspace contract says a *warm* [`AdmmSolver::solve_in_place`]
//! performs **zero** heap allocations: every iterate, scratch vector and
//! the staged `u0` live inside the workspace arena, and the per-kernel
//! cycle table is a fixed-size array. This test installs the counting
//! global allocator from `matlib-accel` and fails on the first
//! allocation (or reallocation) that sneaks back into the warm loop.
//!
//! The counter is process-wide, so this file holds exactly one
//! `#[test]`: a sibling test running on another harness thread would
//! allocate inside the measured window.

use matlib_accel::allocations;
use tinympc::{problems, AdmmSolver, NullExecutor, SolverDims, SolverSettings};

#[global_allocator]
static GLOBAL: matlib_accel::CountingAllocator = matlib_accel::CountingAllocator;

/// Runs `f` and returns how many allocations it performed.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations();
    let result = f();
    (allocations() - before, result)
}

fn assert_warm_solve_is_allocation_free<const FORCE_DYNAMIC: bool>(name: &str) {
    let problem = match name {
        "quadrotor_hover" => problems::quadrotor_hover::<f32>(10).unwrap(),
        "double_integrator" => problems::double_integrator::<f32>(12).unwrap(),
        "random_stable_5x2" => problems::random_stable::<f32>(5, 2, 8, 7).unwrap(),
        other => panic!("unknown problem {other}"),
    };
    let nx = problem.dims().nx;
    let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
    if FORCE_DYNAMIC {
        solver.set_specialization(SolverDims::Dynamic).unwrap();
    }
    let x0 = vec![0.05f32; nx];

    // Two warm-up solves: the first touches every arena region, the
    // second settles the warm-start iterates.
    solver.solve_in_place(&x0, &mut NullExecutor).unwrap();
    solver.solve_in_place(&x0, &mut NullExecutor).unwrap();

    let (allocs, status) =
        allocations_during(|| solver.solve_in_place(&x0, &mut NullExecutor).unwrap());
    assert!(status.iterations >= 1, "{name}: solve did not iterate");
    assert_eq!(
        allocs, 0,
        "{name} (dynamic={FORCE_DYNAMIC}): warm solve_in_place allocated {allocs} times"
    );
    assert!(
        solver.u0().iter().all(|v| v.is_finite()),
        "{name}: non-finite u0"
    );
}

fn assert_reference_tracking_is_allocation_free() {
    let problem = problems::quadrotor_hover::<f32>(10).unwrap();
    let nx = problem.dims().nx;
    let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
    let xref: Vec<matlib::Vector<f32>> = (0..10)
        .map(|_| matlib::Vector::from_fn(nx, |i| if i == 2 { 0.3 } else { 0.0 }))
        .collect();
    solver.set_reference(&xref).unwrap();
    let x0 = vec![0.0f32; nx];
    solver.solve_in_place(&x0, &mut NullExecutor).unwrap();

    // set_reference copies into the arena; re-targeting between warm
    // solves must stay allocation-free too.
    let (allocs, _) = allocations_during(|| {
        solver.set_reference(&xref).unwrap();
        solver.solve_in_place(&x0, &mut NullExecutor).unwrap()
    });
    assert_eq!(allocs, 0, "warm tracking solve allocated {allocs} times");
}

#[test]
fn warm_solves_perform_zero_heap_allocations() {
    // The counter must be live, or every window below reads 0.
    let (allocs, _) = allocations_during(|| std::hint::black_box(vec![0u8; 64]));
    assert!(allocs >= 1, "counting allocator is not installed");

    // Const-specialized paths.
    assert_warm_solve_is_allocation_free::<false>("quadrotor_hover");
    assert_warm_solve_is_allocation_free::<false>("double_integrator");
    // Dynamic fallback: a shape with no const path, and a const shape
    // with the fallback forced.
    assert_warm_solve_is_allocation_free::<false>("random_stable_5x2");
    assert_warm_solve_is_allocation_free::<true>("quadrotor_hover");
    // Re-targeting the reference between warm solves.
    assert_reference_tracking_is_allocation_free();
}
