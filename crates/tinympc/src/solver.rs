//! The ADMM solve loop (Algorithms 1–3 of the paper).

use crate::kernel::KernelCycles;
use crate::workspace::WsField;
use crate::{ProblemDims, Result, SolverDims, TinyMpcCache, TinyMpcProblem, TinyMpcWorkspace};
use matlib::{Scalar, Vector};

/// Convergence and iteration settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverSettings {
    /// Maximum ADMM iterations per solve.
    pub max_iterations: usize,
    /// Absolute tolerance on all four residuals.
    pub tolerance: f64,
    /// Check residuals every `check_interval` iterations (checking costs
    /// the reduction kernels).
    pub check_interval: usize,
    /// Hard cap on simulated cycles for one solve. The solver always
    /// completes the first iteration (so a best-so-far `u0` exists), then
    /// stops before any iteration predicted to overrun the budget and
    /// reports [`TerminationCause::Deadline`]. `None` disables budgeting.
    pub cycle_budget: Option<u64>,
    /// Residual magnitude beyond which the iteration is declared divergent
    /// ([`TerminationCause::Diverged`]) — converged ADMM residuals shrink,
    /// so residuals this large mean corrupted data, not slow progress.
    pub divergence_threshold: f64,
}

impl Default for SolverSettings {
    fn default() -> Self {
        SolverSettings {
            max_iterations: 100,
            tolerance: 1e-3,
            check_interval: 1,
            cycle_budget: None,
            divergence_threshold: 1e6,
        }
    }
}

/// Why a solve stopped iterating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationCause {
    /// All four residuals fell below tolerance.
    Converged,
    /// The iteration cap was reached without convergence.
    MaxIterations,
    /// The next iteration would have overrun the cycle budget; `u0` is the
    /// best iterate so far.
    Deadline,
    /// Residuals became non-finite or exceeded the divergence threshold.
    Diverged,
}

impl std::fmt::Display for TerminationCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TerminationCause::Converged => "converged",
            TerminationCause::MaxIterations => "max-iterations",
            TerminationCause::Deadline => "deadline",
            TerminationCause::Diverged => "diverged",
        })
    }
}

/// Allocation-free outcome of one MPC solve
/// ([`AdmmSolver::solve_in_place`]).
///
/// Plain `Copy` data: the applied control stays staged in the solver's
/// arena ([`AdmmSolver::u0`]) and the per-kernel cycle table in
/// [`AdmmSolver::last_kernel_cycles`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStatus {
    /// Whether all residuals fell below tolerance.
    pub converged: bool,
    /// Why the iteration stopped.
    pub termination: TerminationCause,
    /// ADMM iterations performed.
    pub iterations: usize,
    /// Final primal/dual residuals `(primal_state, dual_state,
    /// primal_input, dual_input)`.
    pub residuals: (f64, f64, f64, f64),
    /// Total simulated cycles charged by the executor (including setup).
    pub total_cycles: u64,
}

/// Hook invoked between ADMM iterations with mutable access to the
/// solver's state.
///
/// This is the seam the fault-injection layer uses to flip bits in the
/// cache or workspace at a chosen iteration; it is also usable for
/// instrumentation (residual logging, iterate recording).
pub trait SolveObserver<T> {
    /// Called after iteration `iteration` (1-based) completes, before the
    /// convergence check result is acted on.
    fn after_iteration(
        &mut self,
        iteration: usize,
        cache: &mut TinyMpcCache<T>,
        workspace: &mut TinyMpcWorkspace<T>,
    );
}

/// An observer that does nothing (what [`AdmmSolver::solve_in_place`]
/// passes to [`AdmmSolver::solve_in_place_observed`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl<T> SolveObserver<T> for NullObserver {
    fn after_iteration(
        &mut self,
        _iteration: usize,
        _cache: &mut TinyMpcCache<T>,
        _workspace: &mut TinyMpcWorkspace<T>,
    ) {
    }
}

/// The TinyMPC ADMM solver.
///
/// Holds the problem, the precomputed Riccati cache, and a warm-startable
/// workspace. See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct AdmmSolver<T> {
    pub(crate) problem: TinyMpcProblem<T>,
    pub(crate) cache: TinyMpcCache<T>,
    pub(crate) workspace: TinyMpcWorkspace<T>,
    pub(crate) settings: SolverSettings,
    pub(crate) spec: SolverDims,
    pub(crate) last_kernel_cycles: KernelCycles,
}

impl<T: Scalar> AdmmSolver<T> {
    /// Creates a solver: validates the problem and computes the Riccati
    /// cache. The dims specialization ([`SolverDims`]) is selected
    /// automatically from the problem shape.
    ///
    /// # Errors
    ///
    /// Propagates problem-validation and cache-computation failures.
    pub fn new(problem: TinyMpcProblem<T>, settings: SolverSettings) -> Result<Self> {
        problem.validate()?;
        let cache = TinyMpcCache::compute(&problem)?;
        let dims = problem.dims();
        let workspace = TinyMpcWorkspace::new(dims.nx, dims.nu, dims.horizon);
        let spec = SolverDims::for_dims(dims.nx, dims.nu);
        Ok(AdmmSolver {
            problem,
            cache,
            workspace,
            settings,
            spec,
            last_kernel_cycles: KernelCycles::new(),
        })
    }

    /// The dims specialization the ADMM passes dispatch through.
    pub fn specialization(&self) -> SolverDims {
        self.spec
    }

    /// Overrides the dims specialization. The differential tests force
    /// [`SolverDims::Dynamic`] here to compare it against the
    /// const-generic paths.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::BadProblem`] if `spec` is a const-generic
    /// variant whose shape does not match the problem dimensions.
    pub fn set_specialization(&mut self, spec: SolverDims) -> Result<()> {
        if let Some((nx, nu)) = spec.shape() {
            let dims = self.problem.dims();
            if (nx, nu) != (dims.nx, dims.nu) {
                return Err(crate::Error::BadProblem {
                    reason: format!(
                        "specialization {spec:?} requires nx={nx}, nu={nu}; problem is {}x{}",
                        dims.nx, dims.nu
                    ),
                });
            }
        }
        self.spec = spec;
        Ok(())
    }

    /// The applied control staged by the last solve (first feasible
    /// slack input), borrowed straight from the arena.
    pub fn u0(&self) -> &[T] {
        self.workspace.u0()
    }

    /// Per-kernel cycle table of the last solve.
    pub fn last_kernel_cycles(&self) -> KernelCycles {
        self.last_kernel_cycles
    }

    /// The problem being solved.
    pub fn problem(&self) -> &TinyMpcProblem<T> {
        &self.problem
    }

    /// The precomputed cache.
    pub fn cache(&self) -> &TinyMpcCache<T> {
        &self.cache
    }

    /// Mutable access to the cache — used by the fault layer to inject
    /// corruption and by recovery paths to restore a pristine copy.
    pub fn cache_mut(&mut self) -> &mut TinyMpcCache<T> {
        &mut self.cache
    }

    /// The current workspace (trajectories of the last solve).
    pub fn workspace(&self) -> &TinyMpcWorkspace<T> {
        &self.workspace
    }

    /// Mutable access to the workspace.
    pub fn workspace_mut(&mut self) -> &mut TinyMpcWorkspace<T> {
        &mut self.workspace
    }

    /// The active solver settings.
    pub fn settings(&self) -> SolverSettings {
        self.settings
    }

    /// Replaces the solver settings (used by the degradation ladder to
    /// widen `check_interval` or impose a cycle budget between solves).
    pub fn set_settings(&mut self, settings: SolverSettings) {
        self.settings = settings;
    }

    /// Resets duals and slacks (disables warm starting for the next
    /// solve).
    pub fn cold_start(&mut self) {
        self.workspace.cold_start();
    }

    /// Sets the reference trajectory (one state per knot point).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::BadProblem`] if the length or any state
    /// dimension is wrong.
    pub fn set_reference(&mut self, xref: &[Vector<T>]) -> Result<()> {
        let dims = self.problem.dims();
        if xref.len() != dims.horizon || xref.iter().any(|v| v.len() != dims.nx) {
            return Err(crate::Error::BadProblem {
                reason: format!(
                    "reference must be {} states of dimension {}",
                    dims.horizon, dims.nx
                ),
            });
        }
        for (i, v) in xref.iter().enumerate() {
            self.workspace
                .knot_mut(WsField::XRef, i)
                .copy_from_slice(v.as_slice());
        }
        Ok(())
    }

    /// Problem dimensions (convenience).
    pub fn dims(&self) -> ProblemDims {
        self.problem.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{problems, KernelExecutor, KernelId, NullExecutor};

    /// One solve from `x0`: its status and a copy of the applied
    /// control.
    fn solve<T: Scalar>(
        s: &mut AdmmSolver<T>,
        x0: &[T],
        exec: &mut dyn KernelExecutor,
    ) -> Result<(SolveStatus, Vector<T>)> {
        let status = s.solve_in_place(x0, exec)?;
        Ok((status, Vector::from_slice(s.u0())))
    }

    fn solve_di(x0: &[f64]) -> (SolveStatus, Vector<f64>, AdmmSolver<f64>) {
        let p = problems::double_integrator::<f64>(20).unwrap();
        let mut s = AdmmSolver::new(p, SolverSettings::default()).unwrap();
        let (r, u0) = solve(&mut s, x0, &mut NullExecutor).unwrap();
        (r, u0, s)
    }

    #[test]
    fn converges_on_double_integrator() {
        let (r, _, s) = solve_di(&[1.0, 0.0]);
        assert!(r.converged, "residuals {:?}", r.residuals);
        assert!(s.workspace().is_finite());
    }

    #[test]
    fn unconstrained_solution_matches_lqr() {
        // Small initial state: no constraint is active, so the MPC input
        // must track the infinite-horizon LQR law computed WITHOUT the rho
        // augmentation (ADMM converges to the true problem's optimum).
        let p = problems::double_integrator::<f64>(30).unwrap();
        let nx = 2;
        let q = matlib::Matrix::from_diagonal(&[p.q_diag[0], p.q_diag[1]]);
        let rmat = matlib::Matrix::from_diagonal(&[p.r_diag[0]]);
        let (k_true, _) = matlib::lqr_gains(&p.a, &p.b, &q, &rmat).unwrap();
        let mut s = AdmmSolver::new(
            p,
            SolverSettings {
                max_iterations: 500,
                tolerance: 1e-9,
                ..Default::default()
            },
        )
        .unwrap();
        let x0 = Vector::from_slice(&[0.1, 0.0]);
        let (r, u0) = solve(&mut s, x0.as_slice(), &mut NullExecutor).unwrap();
        assert!(r.converged);
        let u_lqr = -(k_true[(0, 0)] * x0[0] + k_true[(0, 1)] * x0[1]);
        assert!(
            (u0[0] - u_lqr).abs() < 0.02 * u_lqr.abs().max(0.01),
            "MPC u0 {} vs LQR {}",
            u0[0],
            u_lqr
        );
        let _ = nx;
    }

    #[test]
    fn constraints_are_respected() {
        // Large initial offset: the LQR input would exceed the bound, so
        // the slack projection must saturate.
        let (_, u0, s) = solve_di(&[50.0, 0.0]);
        let p = s.problem();
        assert!(u0[0] >= p.u_min - 1e-9 && u0[0] <= p.u_max + 1e-9);
        // And it should be pinned at a bound.
        assert!(
            (u0[0] - p.u_min).abs() < 1e-6 || (u0[0] - p.u_max).abs() < 1e-6,
            "expected saturation, got {}",
            u0[0]
        );
    }

    #[test]
    fn quadrotor_converges_and_stabilizes_closed_loop() {
        let p = problems::quadrotor_hover::<f64>(10).unwrap();
        let a = p.a.clone();
        let b = p.b.clone();
        let mut s = AdmmSolver::new(p, SolverSettings::default()).unwrap();
        let mut x = s.problem().hover_offset_state(0.3);
        let mut worst_iterations = 0;
        for _step in 0..400 {
            let (r, u0) = solve(&mut s, x.as_slice(), &mut NullExecutor).unwrap();
            worst_iterations = worst_iterations.max(r.iterations);
            let ax = a.matvec(&x).unwrap();
            let bu = b.matvec(&u0).unwrap();
            x = ax.add(&bu).unwrap();
            assert!(x.is_finite(), "state diverged");
        }
        assert!(x.max_abs() < 0.05, "did not reach hover: {}", x.max_abs());
        assert!(worst_iterations <= 100);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let p = problems::quadrotor_hover::<f64>(10).unwrap();
        let mut s = AdmmSolver::new(p, SolverSettings::default()).unwrap();
        let x0 = s.problem().hover_offset_state(0.2);
        let (cold, _) = solve(&mut s, x0.as_slice(), &mut NullExecutor).unwrap();
        // Slightly perturbed re-solve with warm duals.
        let x1 = s.problem().hover_offset_state(0.19);
        let (warm, _) = solve(&mut s, x1.as_slice(), &mut NullExecutor).unwrap();
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn f32_solution_tracks_f64() {
        let p64 = problems::double_integrator::<f64>(15).unwrap();
        let p32 = problems::double_integrator::<f32>(15).unwrap();
        let mut s64 = AdmmSolver::new(p64, SolverSettings::default()).unwrap();
        let mut s32 = AdmmSolver::new(p32, SolverSettings::default()).unwrap();
        let (r64, u64_) = solve(&mut s64, &[2.0, -0.5], &mut NullExecutor).unwrap();
        let (r32, u32_) = solve(&mut s32, &[2.0f32, -0.5], &mut NullExecutor).unwrap();
        assert!(r64.converged && r32.converged);
        assert!(
            (u64_[0] - u32_[0] as f64).abs() < 1e-3,
            "f64 {} vs f32 {}",
            u64_[0],
            u32_[0]
        );
    }

    /// Charges one cycle per invocation so accounting is countable.
    struct UnitExecutor;

    impl KernelExecutor for UnitExecutor {
        fn name(&self) -> String {
            "unit".into()
        }
        fn kernel_cycles(&mut self, _k: KernelId, _d: &ProblemDims) -> Result<u64> {
            Ok(1)
        }
        fn setup_cycles(&mut self, _d: &ProblemDims) -> Result<u64> {
            Ok(7)
        }
    }

    #[test]
    fn cycle_accounting_is_exact() {
        let p = problems::double_integrator::<f64>(10).unwrap();
        let mut s = AdmmSolver::new(p, SolverSettings::default()).unwrap();
        let (r, _) = solve(&mut s, &[1.0, 0.0], &mut UnitExecutor).unwrap();
        let n = 10;
        let iters = r.iterations as u64;
        // Per iteration: 4 iterative kernels × (N−1) + UpdateLinearCost4
        // + 6 strip/cost kernels... count exactly:
        //   BackwardPass1/2, ForwardPass1/2: 4(N−1)
        //   UpdateSlack1/2, UpdateDual1: 3
        //   UpdateLinearCost1..3: 3, UpdateLinearCost4: 1
        //   Residuals: 4
        let per_iter = 4 * (n - 1) + 3 + 3 + 1 + 4;
        // Plus the pre-loop linear-cost init (4) and setup (7).
        let expected = 7 + 4 + iters * per_iter;
        assert_eq!(r.total_cycles, expected, "iterations {iters}");
    }

    #[test]
    fn bad_x0_rejected() {
        let p = problems::double_integrator::<f64>(10).unwrap();
        let mut s = AdmmSolver::new(p, SolverSettings::default()).unwrap();
        assert!(solve(&mut s, &[1.0], &mut NullExecutor).is_err());
    }

    #[test]
    fn reference_tracking_changes_solution() {
        let p = problems::double_integrator::<f64>(20).unwrap();
        let mut s = AdmmSolver::new(p, SolverSettings::default()).unwrap();
        let x0 = Vector::from_slice(&[0.0, 0.0]);
        let (_, rest) = solve(&mut s, x0.as_slice(), &mut NullExecutor).unwrap();
        // Now ask to move to position 1.
        let target = Vector::from_slice(&[1.0, 0.0]);
        let xref: Vec<_> = (0..20).map(|_| target.clone()).collect();
        s.set_reference(&xref).unwrap();
        s.cold_start();
        let (_, track) = solve(&mut s, x0.as_slice(), &mut NullExecutor).unwrap();
        assert!(track[0] > rest[0] + 1e-3, "tracking should push forward");
    }

    #[test]
    fn termination_cause_reported() {
        let (r, _, _) = solve_di(&[1.0, 0.0]);
        assert_eq!(r.termination, TerminationCause::Converged);
        let p = problems::double_integrator::<f64>(20).unwrap();
        let settings = SolverSettings {
            max_iterations: 2,
            tolerance: 1e-12,
            ..Default::default()
        };
        let mut s = AdmmSolver::new(p, settings).unwrap();
        let (r, _) = solve(&mut s, &[5.0, 0.0], &mut NullExecutor).unwrap();
        assert_eq!(r.termination, TerminationCause::MaxIterations);
        assert!(!r.converged);
    }

    #[test]
    fn cycle_budget_stops_early_with_finite_u0() {
        let p = problems::double_integrator::<f64>(10).unwrap();
        let mut s = AdmmSolver::new(p, SolverSettings::default()).unwrap();
        let x0 = Vector::from_slice(&[50.0, 0.0]);
        let (full, _) = solve(&mut s, x0.as_slice(), &mut UnitExecutor).unwrap();
        assert!(full.iterations > 2, "need a multi-iteration baseline");

        // Budget for roughly two iterations: the solve must stop on the
        // Deadline rung well short of the unbudgeted iteration count.
        let budget = full.total_cycles * 2 / full.iterations as u64;
        let settings = SolverSettings {
            cycle_budget: Some(budget),
            ..Default::default()
        };
        let mut s =
            AdmmSolver::new(problems::double_integrator::<f64>(10).unwrap(), settings).unwrap();
        let (r, u0) = solve(&mut s, x0.as_slice(), &mut UnitExecutor).unwrap();
        assert_eq!(r.termination, TerminationCause::Deadline);
        assert!(r.iterations < full.iterations);
        assert!(r.total_cycles <= budget, "predictive stop overran");
        assert!(u0.is_finite());
    }

    #[test]
    fn budget_always_runs_first_iteration() {
        let p = problems::double_integrator::<f64>(10).unwrap();
        let settings = SolverSettings {
            cycle_budget: Some(1),
            ..Default::default()
        };
        let mut s = AdmmSolver::new(p, settings).unwrap();
        let (r, u0) = solve(&mut s, &[1.0, 0.0], &mut UnitExecutor).unwrap();
        assert_eq!(r.iterations, 1);
        assert_eq!(r.termination, TerminationCause::Deadline);
        assert!(u0.is_finite());
    }

    /// Injects a huge value into a dual variable at a chosen iteration.
    struct DualBlast {
        at: usize,
        value: f64,
    }

    impl SolveObserver<f64> for DualBlast {
        fn after_iteration(
            &mut self,
            iteration: usize,
            _cache: &mut TinyMpcCache<f64>,
            workspace: &mut TinyMpcWorkspace<f64>,
        ) {
            if iteration == self.at {
                workspace.knot_mut(WsField::Y, 0)[0] = self.value;
            }
        }
    }

    #[test]
    fn divergent_iterates_detected() {
        let p = problems::double_integrator::<f64>(20).unwrap();
        let settings = SolverSettings {
            tolerance: 1e-12,
            max_iterations: 50,
            ..Default::default()
        };
        let mut s = AdmmSolver::new(p, settings).unwrap();
        let mut blast = DualBlast { at: 2, value: 1e30 };
        let r = s
            .solve_in_place_observed(&[1.0, 0.0], &mut NullExecutor, &mut blast)
            .unwrap();
        assert_eq!(r.termination, TerminationCause::Diverged);
        // The applied control still comes from the clipped slack, so it
        // stays finite even though the iterates exploded.
        assert!(s.u0().iter().all(|u| u.is_finite()));
    }

    /// Flips the pinned initial state mid-solve.
    struct X0Flip;

    impl SolveObserver<f64> for X0Flip {
        fn after_iteration(
            &mut self,
            iteration: usize,
            _cache: &mut TinyMpcCache<f64>,
            workspace: &mut TinyMpcWorkspace<f64>,
        ) {
            if iteration == 1 {
                workspace.knot_mut(WsField::X, 0)[0] += 1.0;
            }
        }
    }

    #[test]
    fn x0_corruption_detected() {
        let p = problems::double_integrator::<f64>(20).unwrap();
        let mut s = AdmmSolver::new(p, SolverSettings::default()).unwrap();
        let err = s
            .solve_in_place_observed(&[1.0, 0.0], &mut NullExecutor, &mut X0Flip)
            .unwrap_err();
        assert!(matches!(err, crate::Error::CorruptedWorkspace { .. }));
    }

    #[test]
    fn non_finite_x0_rejected() {
        let p = problems::double_integrator::<f64>(10).unwrap();
        let mut s = AdmmSolver::new(p, SolverSettings::default()).unwrap();
        assert!(solve(&mut s, &[f64::NAN, 0.0], &mut NullExecutor).is_err());
    }
}
