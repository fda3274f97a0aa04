//! Closed-loop quadrotor flight: track a figure-eight reference with
//! TinyMPC at 100 Hz, while accounting the controller's cycle budget on an
//! embedded SoC design point.
//!
//! ```sh
//! cargo run --example hover_quadrotor --release
//! ```
//!
//! This is the end-to-end scenario the paper's introduction motivates: a
//! micro-UAV whose control loop must fit the compute budget of an
//! embedded SoC. We simulate the plant with the same discrete dynamics the
//! controller uses, fly two loops of a lemniscate, and report tracking
//! error alongside the achievable control rate on the chosen platform.

use soc_dse_repro::matlib::Vector;
use soc_dse_repro::soc_dse::platform::Platform;
use soc_dse_repro::soc_scenarios::reference::figure8;
use soc_dse_repro::tinympc::{problems, AdmmSolver, SolverSettings};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = 10;
    let dt = 0.01;
    let problem = problems::quadrotor_hover::<f32>(horizon)?;
    let a = problem.a.clone();
    let b = problem.b.clone();
    let mut solver = AdmmSolver::new(problem, SolverSettings::default())?;

    // Price the controller on the paper's Pareto-optimal mid-range design.
    let platform = Platform::table1_registry()
        .into_iter()
        .find(|p| p.name == "OSGemminiRocket32KB")
        .expect("registry contains the Gemmini point");
    let mut executor = platform.executor();

    let steps = 1200; // 12 seconds: two laps of the figure-eight
    let mut x = solver.problem().hover_offset_state(0.0);
    let mut worst_cycles = 0u64;
    let mut sum_sq_err = 0.0f64;
    let mut max_err = 0.0f64;
    let mut last_termination = None;

    for step in 0..steps {
        let xref = figure8::<f32>(12, horizon, step, dt);
        solver.set_reference(&xref)?;
        let status = solver.solve_in_place(x.as_slice(), executor.as_mut())?;
        worst_cycles = worst_cycles.max(status.total_cycles);
        last_termination = Some(status.termination);

        // Plant update with the applied (feasible) input.
        let u0 = Vector::from_slice(solver.u0());
        let ax = a.matvec(&x)?;
        let bu = b.matvec(&u0)?;
        x = ax.add(&bu)?;

        let ex = (x[0] - xref[0][0]) as f64;
        let ey = (x[1] - xref[0][1]) as f64;
        let err = (ex * ex + ey * ey).sqrt();
        sum_sq_err += err * err;
        max_err = max_err.max(err);

        if step % 200 == 0 {
            println!(
                "t={:5.2}s  pos=({:+.3},{:+.3},{:+.3})  ref=({:+.3},{:+.3})  err={:.3} m  {} iters ({})",
                step as f64 * dt,
                x[0],
                x[1],
                x[2],
                xref[0][0],
                xref[0][1],
                err,
                status.iterations,
                status.termination
            );
        }
    }

    let rms = (sum_sq_err / steps as f64).sqrt();
    println!(
        "\ntracking over {} s: RMS error {:.3} m, max error {:.3} m",
        steps as f64 * dt,
        rms,
        max_err
    );
    println!(
        "controller on {}: worst-case {} cycles/solve -> {:.0} Hz at 1 GHz (loop needs {:.0} Hz)",
        platform.name,
        worst_cycles,
        1.0e9 / worst_cycles as f64,
        1.0 / dt
    );
    if let Some(t) = last_termination {
        println!("last solve terminated: {t}");
    }
    assert!(rms < 0.25, "tracking diverged");
    Ok(())
}
