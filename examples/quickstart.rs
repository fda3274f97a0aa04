//! Quickstart: solve one MPC problem and price it on two SoC designs.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

use std::time::Instant;

use soc_dse_repro::soc_dse::experiments::{solve_scenario_summary, Scenario};
use soc_dse_repro::soc_dse::platform::Platform;
use soc_dse_repro::tinympc::{problems, AdmmSolver, NullExecutor, SolverSettings};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the paper's flagship workload: a Crazyflie-class quadrotor
    //    (12 states, 4 inputs) stabilizing to hover with a 10-step horizon.
    let problem = problems::quadrotor_hover::<f64>(10)?;
    let mut solver = AdmmSolver::new(problem, SolverSettings::default())?;
    println!(
        "solver specialization: {:?} (dims-specialized hot path)",
        solver.specialization()
    );

    // 2. Solve it in place (no hardware timing) from a 20 cm offset. The
    //    iterates live in the solver's arena workspace; `u0()` reads the
    //    applied input straight out of it.
    let x0 = solver.problem().hover_offset_state(0.2);
    let status = solver.solve_in_place(x0.as_slice(), &mut NullExecutor)?;
    println!(
        "ADMM converged = {} in {} iterations; first control input = {:?}",
        status.converged,
        status.iterations,
        solver.u0()
    );
    println!(
        "residuals (primal/dual state, primal/dual input): {:?}",
        status.residuals
    );

    // 3. Warm solves reuse the arena with zero heap allocations — time
    //    them on this host for scale.
    let reps = 200u32;
    let start = Instant::now();
    for _ in 0..reps {
        solver.solve_in_place(x0.as_slice(), &mut NullExecutor)?;
    }
    let warm_ns = start.elapsed().as_nanos() / reps as u128;
    println!("warm solve_in_place: {warm_ns} ns/solve on this host (0 allocations)\n");

    // 4. Price the same solve on two hardware design points: simulated
    //    cycles per solve next to the host-side wall clock of the priced
    //    solve (the executor memoizes per-kernel costs, so a warm priced
    //    solve costs about the same as a functional one).
    for platform in [
        Platform::rocket_eigen(),
        Platform::table1_registry().remove(6),
    ] {
        let summary = solve_scenario_summary(&platform, &Scenario::hover(), 10)?;
        let mut priced = AdmmSolver::new(
            problems::quadrotor_hover::<f64>(10)?,
            SolverSettings::default(),
        )?;
        let mut executor = platform.executor();
        priced.solve_in_place(x0.as_slice(), executor.as_mut())?;
        let start = Instant::now();
        for _ in 0..reps {
            priced.solve_in_place(x0.as_slice(), executor.as_mut())?;
        }
        let host_ns = start.elapsed().as_nanos() / reps as u128;
        println!(
            "{:<24} {:>8} cycles/solve  -> {:>6.0} MPC Hz at 1 GHz  (area {:.3} mm^2; host {host_ns} ns/solve)",
            platform.name,
            summary.total_cycles,
            1.0e9 / summary.total_cycles as f64,
            platform.area().total_mm2(),
        );
    }
    Ok(())
}
