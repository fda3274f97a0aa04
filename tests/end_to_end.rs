//! Cross-crate end-to-end tests: functional equivalence across executors,
//! closed-loop behaviour, and accounting consistency.

use soc_dse_repro::soc_dse::experiments::{solve_scenario_summary, Scenario, SolveSummary};
use soc_dse_repro::soc_dse::platform::Platform;
use soc_dse_repro::soc_scenarios::reference::figure8;
use soc_dse_repro::tinympc::{
    problems, AdmmSolver, KernelId, NullExecutor, SolveStatus, SolverSettings, TinyMpcProblem,
};

fn hover(platform: &Platform, horizon: usize) -> SolveSummary {
    solve_scenario_summary(platform, &Scenario::hover(), horizon).unwrap()
}

/// Solves `problem` from a 0.2 hover offset on `platform`: the status
/// and the applied control.
fn solve_problem(platform: &Platform, problem: TinyMpcProblem<f32>) -> (SolveStatus, Vec<f32>) {
    let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
    let x0 = solver.problem().hover_offset_state(0.2);
    let status = solver
        .solve_in_place(x0.as_slice(), platform.executor().as_mut())
        .unwrap();
    (status, solver.u0().to_vec())
}

#[test]
fn every_platform_converges_with_identical_trajectories() {
    // The executor is a timing oracle only: the functional result must be
    // bit-identical across all platforms.
    let (ref_u0, ref_iterations) = {
        let problem = problems::quadrotor_hover::<f32>(10).unwrap();
        let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
        let x0 = solver.problem().hover_offset_state(0.2);
        let status = solver
            .solve_in_place(x0.as_slice(), &mut NullExecutor)
            .unwrap();
        (solver.u0().to_vec(), status.iterations)
    };
    for platform in Platform::table1_registry() {
        let problem = problems::quadrotor_hover::<f32>(10).unwrap();
        let (status, u0) = solve_problem(&platform, problem);
        assert!(status.converged, "{} did not converge", platform.name);
        assert_eq!(
            u0, ref_u0,
            "{} changed the functional result",
            platform.name
        );
        assert_eq!(status.iterations, ref_iterations);
        assert!(status.total_cycles > 0);
    }
}

#[test]
fn kernel_cycles_sum_to_total_minus_setup() {
    for platform in Platform::table1_registry() {
        let summary = hover(&platform, 10);
        let sum = summary.kernel_cycles.total();
        assert!(
            sum <= summary.total_cycles,
            "{}: kernel sum {sum} exceeds total {}",
            platform.name,
            summary.total_cycles
        );
        // Setup (scratchpad preload) is the only non-kernel component.
        let setup = summary.total_cycles - sum;
        assert!(
            setup < summary.total_cycles / 4,
            "{}: setup share suspiciously large ({setup})",
            platform.name
        );
    }
}

#[test]
fn all_fifteen_kernels_are_charged() {
    let kernel_cycles = hover(&Platform::rocket_eigen(), 10).kernel_cycles;
    for k in KernelId::ALL {
        assert!(kernel_cycles.get(k) > 0, "kernel {k} was never charged");
    }
}

#[test]
fn horizon_scaling_is_roughly_linear() {
    // The paper: MPC computation grows linearly with the horizon (the
    // cubic state-space growth is precomputed into the cache).
    let c10 = hover(&Platform::rocket_eigen(), 10);
    let c20 = hover(&Platform::rocket_eigen(), 20);
    let per_iter_10 = c10.cycles_per_iteration();
    let per_iter_20 = c20.cycles_per_iteration();
    let ratio = per_iter_20 / per_iter_10;
    assert!(
        (1.5..2.6).contains(&ratio),
        "per-iteration cost should ~double from N=10 to N=20, got {ratio:.2}"
    );
}

#[test]
fn closed_loop_figure8_tracks_on_fastest_platform() {
    let horizon = 10;
    let problem = problems::quadrotor_hover::<f32>(horizon).unwrap();
    let a = problem.a.clone();
    let b = problem.b.clone();
    let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
    let platform = Platform::table1_registry()
        .into_iter()
        .find(|p| p.name == "RefV512D256Shuttle")
        .unwrap();
    let mut executor = platform.executor();

    let mut x = solver.problem().hover_offset_state(0.0);
    let mut worst_err = 0.0f64;
    for step in 0..600 {
        let xref = figure8::<f32>(12, horizon, step, 0.01);
        solver.set_reference(&xref).unwrap();
        solver
            .solve_in_place(x.as_slice(), executor.as_mut())
            .unwrap();
        let u0 = soc_dse_repro::matlib::Vector::from_slice(solver.u0());
        x = a.matvec(&x).unwrap().add(&b.matvec(&u0).unwrap()).unwrap();
        if step > 100 {
            let e = ((x[0] - xref[0][0]).powi(2) + (x[1] - xref[0][1]).powi(2)).sqrt() as f64;
            worst_err = worst_err.max(e);
        }
    }
    assert!(worst_err < 0.3, "tracking error {worst_err:.3} m too large");
}

#[test]
fn arbitrary_problems_price_on_any_platform() {
    let cartpole = problems::cartpole::<f32>(10).unwrap();
    let (rocket, _) = solve_problem(&Platform::rocket_eigen(), cartpole.clone());
    let registry = Platform::table1_registry();
    let saturn = registry
        .iter()
        .find(|p| p.name == "RefV512D256Shuttle")
        .unwrap();
    let (v, _) = solve_problem(saturn, cartpole);
    assert!(rocket.converged && v.converged);
    // 4x1 kernels are tiny: Saturn's advantage over Rocket must shrink
    // well below its quadrotor-sized speedup (the workload-sensitivity
    // claim).
    let quad_rocket = hover(&Platform::rocket_eigen(), 10);
    let quad_saturn = hover(saturn, 10);
    let small_speedup = rocket.total_cycles as f64 / v.total_cycles as f64;
    let quad_speedup = quad_rocket.total_cycles as f64 / quad_saturn.total_cycles as f64;
    assert!(
        small_speedup < quad_speedup,
        "cartpole speedup {small_speedup:.2} should trail quadrotor {quad_speedup:.2}"
    );
}

#[test]
fn solver_is_deterministic() {
    let run = || {
        let problem = problems::quadrotor_hover::<f32>(10).unwrap();
        let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
        let x0 = solver.problem().hover_offset_state(0.13);
        let status = solver
            .solve_in_place(x0.as_slice(), &mut NullExecutor)
            .unwrap();
        (solver.u0().to_vec(), status.iterations)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}
