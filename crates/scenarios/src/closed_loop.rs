//! Closed-loop evaluation: roll the plant forward under the solver's
//! `u0` and measure tracking quality.
//!
//! This is the *control-quality* side of the DSE scoreboard — cycles,
//! area and energy say how fast a back-end iterates; the closed-loop
//! tracking error says whether the resulting controller actually flies
//! the trajectory. Because every back-end computes bit-identical math
//! (the executor is a timing oracle), the closed-loop numbers are a
//! property of the *scenario × horizon* pair alone, so sweeps compute
//! them once and print them next to every back-end's cycle counts.

use crate::Scenario;
use matlib::Scalar;
use tinympc::{AdmmSolver, NullExecutor, SolverSettings};

/// Result of a closed-loop rollout.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopReport {
    /// Plant steps simulated.
    pub steps: usize,
    /// Root-mean-square tracking error over the rollout, measured on
    /// the scenario's [`Scenario::tracked_states`] (the commanded
    /// position coordinates).
    pub rms_error: f64,
    /// Worst-case tracking error over the rollout.
    pub max_error: f64,
    /// Tracking error at the final rollout step (how well the run
    /// *ends*, e.g. touchdown accuracy for the soft landing).
    pub final_error: f64,
    /// How many of the `steps` MPC solves converged within the
    /// iteration budget (the rest hit max-iterations but still produce
    /// a usable input — standard embedded-MPC practice).
    pub converged_steps: usize,
    /// Mean ADMM iterations per solve.
    pub mean_iterations: f64,
    /// Minimum second-order-cone feasibility margin of any applied
    /// `u0`, if the scenario has cone constraints (non-negative means
    /// every applied thrust stayed inside the cone).
    pub min_cone_margin: Option<f64>,
}

impl ClosedLoopReport {
    /// Compact `rms/max` rendering used in sweep reports.
    pub fn render_errors(&self) -> String {
        format!("{:.4} / {:.4}", self.rms_error, self.max_error)
    }
}

/// Rolls the scenario's plant forward for [`Scenario::rollout_steps`]
/// steps under receding-horizon MPC and reports tracking statistics.
///
/// Each step re-targets the solver at the scenario's reference window,
/// solves from the current state (warm-started, as on a real embedded
/// controller), applies `u0` to the plant, and measures the achieved
/// state against the reference for that instant.
///
/// # Errors
///
/// Propagates solver construction/solve errors (bad problem, non-finite
/// data).
pub fn evaluate_closed_loop<T: Scalar>(
    scenario: &Scenario,
    horizon: usize,
    settings: SolverSettings,
) -> tinympc::Result<ClosedLoopReport> {
    let problem = scenario.problem::<T>(horizon)?;
    let a = problem.a.clone();
    let b = problem.b.clone();
    let cones = problem.input_cones.clone();
    let mut solver = AdmmSolver::new(problem, settings)?;
    let mut x = scenario.initial_state::<T>();
    // Plant-update scratch, allocated once, so solve_in_place and the
    // gemv_into plant update below allocate nothing. The loop as a whole
    // still allocates per step: `Scenario::reference` returns a fresh
    // `horizon`-knot window, and another one-knot vector for the target.
    let mut ax = vec![T::ZERO; x.len()];
    let mut bu = vec![T::ZERO; x.len()];

    let steps = scenario.rollout_steps();
    let tracked = scenario.tracked_states();
    let mut sum_sq = 0.0;
    let mut max_error: f64 = 0.0;
    let mut final_error = 0.0;
    let mut converged_steps = 0;
    let mut total_iterations = 0usize;
    let mut min_cone_margin: Option<f64> = None;

    for step in 0..steps {
        solver.set_reference(&scenario.reference::<T>(horizon, step))?;
        let status = solver.solve_in_place(x.as_slice(), &mut NullExecutor)?;
        if status.converged {
            converged_steps += 1;
        }
        total_iterations += status.iterations;
        for cone in &cones {
            let margin = cone.margin(solver.u0());
            min_cone_margin = Some(min_cone_margin.map_or(margin, |m: f64| m.min(margin)));
        }

        // Plant update: x⁺ = A x + B u₀.
        matlib::gemv_into(&a, x.as_slice(), &mut ax)?;
        matlib::gemv_into(&b, solver.u0(), &mut bu)?;
        matlib::add_into(&ax, &bu, x.as_mut_slice())?;

        // Achieved state corresponds to time step+1; compare against
        // the reference for that instant, over the tracked coordinates.
        let target = scenario.reference::<T>(1, step + 1).remove(0);
        let error = tracked
            .iter()
            .map(|&i| (x[i] - target[i]).to_f64().powi(2))
            .sum::<f64>()
            .sqrt();
        sum_sq += error * error;
        max_error = max_error.max(error);
        final_error = error;
    }

    Ok(ClosedLoopReport {
        steps,
        rms_error: (sum_sq / steps.max(1) as f64).sqrt(),
        max_error,
        final_error,
        converged_steps,
        mean_iterations: total_iterations as f64 / steps.max(1) as f64,
        min_cone_margin,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioCatalog;

    #[test]
    fn hover_error_decays_monotonically_in_aggregate() {
        let report =
            evaluate_closed_loop::<f64>(&Scenario::hover(), 10, SolverSettings::default()).unwrap();
        assert_eq!(report.steps, 40);
        // The 0.2 m offset must shrink over the rollout: no overshoot
        // beyond the initial error, and the run ends closer than it
        // started (the Crazyflie position loop is slow at dt = 10 ms,
        // so we assert decay, not arrival).
        assert!(report.max_error <= 0.2 + 1e-9, "max {}", report.max_error);
        assert!(report.final_error < 0.16, "final {}", report.final_error);
        assert!(report.rms_error < 0.2, "rms {}", report.rms_error);
        assert!(report.min_cone_margin.is_none(), "hover has no cones");
    }

    #[test]
    fn every_catalog_scenario_stays_bounded() {
        for scenario in ScenarioCatalog::standard().scenarios() {
            let report = evaluate_closed_loop::<f64>(
                scenario,
                scenario.default_horizon(),
                SolverSettings::default(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name()));
            assert!(
                report.rms_error.is_finite() && report.max_error < 100.0,
                "{} diverged: {:?}",
                scenario.name(),
                report
            );
            assert!(report.mean_iterations >= 1.0);
        }
    }

    #[test]
    fn soft_landing_keeps_thrust_inside_the_cone() {
        let report =
            evaluate_closed_loop::<f64>(&Scenario::soft_landing(), 10, SolverSettings::default())
                .unwrap();
        let margin = report.min_cone_margin.expect("SOC scenario");
        assert!(margin >= -1e-6, "applied thrust left the cone: {margin}");
    }

    #[test]
    fn rollout_is_deterministic() {
        let a = evaluate_closed_loop::<f32>(&Scenario::figure8(), 8, SolverSettings::default())
            .unwrap();
        let b = evaluate_closed_loop::<f32>(&Scenario::figure8(), 8, SolverSettings::default())
            .unwrap();
        assert_eq!(a, b);
    }
}
