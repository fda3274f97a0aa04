//! HOT-PATH: the dims-specialized, allocation-free ADMM inner loop.
//!
//! Every numeric pass of the solver lives here as a single generic
//! implementation over a [`DimsTag`]: the dynamic tag carries `nx`/`nu`
//! at runtime, while the const-generic tag lets the compiler
//! monomorphize the shipped problem shapes (quadrotor 12×4, rendezvous
//! 6×3, double integrator 2×1) with constant trip counts. Because both
//! tags drive the *same source*, specialized and dynamic paths are
//! bit-identical by construction — the differential tests assert this
//! at `U0_TOLERANCE = 0.0`.
//!
//! All passes operate on disjoint arena views
//! ([`crate::workspace::Views`]) through the in-place `matlib` kernels
//! (`gemv_into`, `add_into`, …): a warm [`AdmmSolver::solve_in_place`]
//! performs **zero heap allocations** (error paths excepted).
//!
//! This module is tagged `HOT-PATH`: CI forbids `.clone()` and
//! `Vector::zeros` inside it.

use crate::kernel::KernelCycles;
use crate::solver::SolveStatus;
use crate::workspace::{Views, WsField};
use crate::{
    AdmmSolver, KernelExecutor, KernelId, NullObserver, Result, SolveObserver, TerminationCause,
    TinyMpcCache, TinyMpcProblem,
};
use matlib::{Matrix, Scalar, Vector};

/// Which monomorphized fast path a solver dispatches its ADMM passes
/// through.
///
/// Selected automatically at construction from the problem dimensions
/// ([`SolverDims::for_dims`]); [`AdmmSolver::set_specialization`] can
/// force the [`SolverDims::Dynamic`] fallback (the differential tests
/// use this to compare both paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverDims {
    /// Const-generic path for `nx = 12, nu = 4` (quadrotor shapes).
    Quadrotor12x4,
    /// Const-generic path for `nx = 6, nu = 3` (rendezvous shapes).
    Rendezvous6x3,
    /// Const-generic path for `nx = 2, nu = 1` (double integrator).
    DoubleIntegrator2x1,
    /// Runtime-dims fallback for every other shape.
    Dynamic,
}

impl SolverDims {
    /// The specialization shipped for `(nx, nu)`, or
    /// [`SolverDims::Dynamic`] when no const path exists.
    pub fn for_dims(nx: usize, nu: usize) -> Self {
        match (nx, nu) {
            (12, 4) => SolverDims::Quadrotor12x4,
            (6, 3) => SolverDims::Rendezvous6x3,
            (2, 1) => SolverDims::DoubleIntegrator2x1,
            _ => SolverDims::Dynamic,
        }
    }

    /// The `(nx, nu)` shape a const-generic variant is valid for;
    /// `None` for [`SolverDims::Dynamic`].
    pub fn shape(self) -> Option<(usize, usize)> {
        match self {
            SolverDims::Quadrotor12x4 => Some((12, 4)),
            SolverDims::Rendezvous6x3 => Some((6, 3)),
            SolverDims::DoubleIntegrator2x1 => Some((2, 1)),
            SolverDims::Dynamic => None,
        }
    }
}

/// Compile-time-or-runtime problem shape handed to every pass.
pub(crate) trait DimsTag: Copy {
    /// State dimension.
    fn nx(self) -> usize;
    /// Input dimension.
    fn nu(self) -> usize;
}

/// Runtime dims: the generic fallback path.
#[derive(Clone, Copy)]
pub(crate) struct DynDims {
    pub nx: usize,
    pub nu: usize,
}

impl DimsTag for DynDims {
    #[inline(always)]
    fn nx(self) -> usize {
        self.nx
    }
    #[inline(always)]
    fn nu(self) -> usize {
        self.nu
    }
}

/// Const dims: accessors fold to constants, so the per-knot loops get
/// constant trip counts under monomorphization.
#[derive(Clone, Copy)]
pub(crate) struct ConstDims<const NX: usize, const NU: usize>;

impl<const NX: usize, const NU: usize> DimsTag for ConstDims<NX, NU> {
    #[inline(always)]
    fn nx(self) -> usize {
        NX
    }
    #[inline(always)]
    fn nu(self) -> usize {
        NU
    }
}

/// Expands one pass call per [`SolverDims`] variant so each arm
/// monomorphizes with its const shape.
macro_rules! dispatch {
    ($spec:expr, $dd:expr, $f:ident ( $($arg:expr),* $(,)? )) => {
        match $spec {
            SolverDims::Quadrotor12x4 => $f(ConstDims::<12, 4>, $($arg),*),
            SolverDims::Rendezvous6x3 => $f(ConstDims::<6, 3>, $($arg),*),
            SolverDims::DoubleIntegrator2x1 => $f(ConstDims::<2, 1>, $($arg),*),
            SolverDims::Dynamic => $f($dd, $($arg),*),
        }
    };
}

/// Backward Riccati sweep updating the linear terms only
/// (`BACKWARD_PASS_1` and `BACKWARD_PASS_2`).
fn backward<T: Scalar, D: DimsTag>(
    dims: D,
    horizon: usize,
    cache: &TinyMpcCache<T>,
    views: Views<'_, T>,
) -> Result<()> {
    let (nx, nu) = (dims.nx(), dims.nu());
    let Views {
        p,
        q,
        r,
        d,
        sx_a,
        sx_b,
        su_a,
        su_b,
        ..
    } = views;
    for i in (0..horizon - 1).rev() {
        let (p_lo, p_hi) = p.split_at_mut((i + 1) * nx);
        let p_i = &mut p_lo[i * nx..];
        let p_i1 = &p_hi[..nx];
        let r_i = &r[i * nu..(i + 1) * nu];
        // d[i] = Quu⁻¹ (Bᵀ p[i+1] + r[i])
        matlib::gemv_into(&cache.b_t, p_i1, su_a)?;
        matlib::add_into(&*su_a, r_i, su_b)?;
        matlib::gemv_into(&cache.quu_inv, &*su_b, &mut d[i * nu..(i + 1) * nu])?;
        // p[i] = q[i] + (A−BK)ᵀ p[i+1] − K∞ᵀ r[i]
        matlib::gemv_into(&cache.am_bk_t, p_i1, sx_a)?;
        matlib::gemv_into(&cache.kinf_t, r_i, sx_b)?;
        matlib::add_into(&q[i * nx..(i + 1) * nx], &*sx_a, p_i)?;
        matlib::sub_assign(p_i, &*sx_b)?;
    }
    Ok(())
}

/// Forward rollout (`FORWARD_PASS_1` and `FORWARD_PASS_2`).
fn forward<T: Scalar, D: DimsTag>(
    dims: D,
    horizon: usize,
    kinf: &Matrix<T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
    views: Views<'_, T>,
) -> Result<()> {
    let (nx, nu) = (dims.nx(), dims.nu());
    let Views {
        x,
        u,
        d,
        sx_a,
        sx_b,
        su_a,
        ..
    } = views;
    for i in 0..horizon - 1 {
        let (x_lo, x_hi) = x.split_at_mut((i + 1) * nx);
        let x_i = &x_lo[i * nx..];
        let x_i1 = &mut x_hi[..nx];
        let u_i = &mut u[i * nu..(i + 1) * nu];
        // u[i] = −K∞ x[i] − d[i]
        matlib::gemv_into(kinf, x_i, su_a)?;
        matlib::neg_into(&*su_a, u_i)?;
        matlib::sub_assign(u_i, &d[i * nu..(i + 1) * nu])?;
        // x[i+1] = A x[i] + B u[i]
        matlib::gemv_into(a, x_i, sx_a)?;
        matlib::gemv_into(b, &*u_i, sx_b)?;
        matlib::add_into(&*sx_a, &*sx_b, x_i1)?;
    }
    Ok(())
}

/// Box (and second-order-cone) projections (`UPDATE_SLACK_1` and
/// `UPDATE_SLACK_2`).
///
/// Cone constraints are applied after the box clip: the composite
/// projection onto box ∩ cone is approximated by the sequential
/// projections, whose fixed points satisfy both sets — the standard
/// Conic-TinyMPC treatment.
fn update_slack<T: Scalar, D: DimsTag>(
    dims: D,
    horizon: usize,
    problem: &TinyMpcProblem<T>,
    views: Views<'_, T>,
) -> Result<()> {
    let (nx, nu) = (dims.nx(), dims.nu());
    let Views {
        x,
        u,
        g,
        y,
        vnew,
        znew,
        ..
    } = views;
    for i in 0..horizon - 1 {
        let znew_i = &mut znew[i * nu..(i + 1) * nu];
        matlib::add_into(&u[i * nu..(i + 1) * nu], &y[i * nu..(i + 1) * nu], znew_i)?;
        matlib::clamp_in_place(znew_i, problem.u_min, problem.u_max);
        for cone in &problem.input_cones {
            cone.project_slice(znew_i);
        }
    }
    for i in 0..horizon {
        let vnew_i = &mut vnew[i * nx..(i + 1) * nx];
        matlib::add_into(&x[i * nx..(i + 1) * nx], &g[i * nx..(i + 1) * nx], vnew_i)?;
        matlib::clamp_in_place(vnew_i, problem.x_min, problem.x_max);
    }
    Ok(())
}

/// Dual ascent (`UPDATE_DUAL_1`).
fn update_dual<T: Scalar, D: DimsTag>(dims: D, horizon: usize, views: Views<'_, T>) -> Result<()> {
    let (nx, nu) = (dims.nx(), dims.nu());
    let Views {
        x,
        u,
        g,
        y,
        vnew,
        znew,
        ..
    } = views;
    for i in 0..horizon - 1 {
        let y_i = &mut y[i * nu..(i + 1) * nu];
        // y[i] = (y[i] + u[i]) − znew[i]
        matlib::add_assign(y_i, &u[i * nu..(i + 1) * nu])?;
        matlib::sub_assign(y_i, &znew[i * nu..(i + 1) * nu])?;
    }
    for i in 0..horizon {
        let g_i = &mut g[i * nx..(i + 1) * nx];
        matlib::add_assign(g_i, &x[i * nx..(i + 1) * nx])?;
        matlib::sub_assign(g_i, &vnew[i * nx..(i + 1) * nx])?;
    }
    Ok(())
}

/// Linear-cost refresh (`UPDATE_LINEAR_COST_1..4`).
fn update_linear_cost<T: Scalar, D: DimsTag>(
    dims: D,
    horizon: usize,
    rho: T,
    q_diag: &Vector<T>,
    pinf: &Matrix<T>,
    views: Views<'_, T>,
) -> Result<()> {
    let (nx, nu) = (dims.nx(), dims.nu());
    let Views {
        q,
        r,
        p,
        g,
        xref,
        y,
        vnew,
        znew,
        sx_a,
        ..
    } = views;
    // r[i] = −ρ (znew[i] − y[i])
    for i in 0..horizon - 1 {
        let r_i = &mut r[i * nu..(i + 1) * nu];
        matlib::sub_into(&znew[i * nu..(i + 1) * nu], &y[i * nu..(i + 1) * nu], r_i)?;
        matlib::scale_in_place(r_i, -rho);
    }
    // q[i] = −(xref[i] ⊙ Qdiag) − ρ (vnew[i] − g[i])
    let qd = q_diag.as_slice();
    for i in 0..horizon {
        let q_i = &mut q[i * nx..(i + 1) * nx];
        let xref_i = &xref[i * nx..(i + 1) * nx];
        let vnew_i = &vnew[i * nx..(i + 1) * nx];
        let g_i = &g[i * nx..(i + 1) * nx];
        for j in 0..nx {
            q_i[j] = -(xref_i[j] * qd[j]) - (vnew_i[j] - g_i[j]) * rho;
        }
    }
    // p[N−1] = −P∞ xref[N−1] − ρ (vnew[N−1] − g[N−1])
    let last = horizon - 1;
    matlib::gemv_into(pinf, &xref[last * nx..(last + 1) * nx], sx_a)?;
    let p_last = &mut p[last * nx..(last + 1) * nx];
    let vnew_l = &vnew[last * nx..(last + 1) * nx];
    let g_l = &g[last * nx..(last + 1) * nx];
    for j in 0..nx {
        p_last[j] = (-sx_a[j]) - (vnew_l[j] - g_l[j]) * rho;
    }
    Ok(())
}

/// Convergence residuals (`PRIMAL/DUAL_RESIDUAL_STATE/INPUT`), returned
/// as `(primal_state, dual_state·ρ, primal_input, dual_input·ρ)`.
fn residuals<T: Scalar, D: DimsTag>(
    dims: D,
    horizon: usize,
    rho: f64,
    views: Views<'_, T>,
) -> Result<(f64, f64, f64, f64)> {
    let (nx, nu) = (dims.nx(), dims.nu());
    let Views {
        x,
        u,
        v,
        vnew,
        z,
        znew,
        ..
    } = views;
    let mut prs: f64 = 0.0;
    let mut drs: f64 = 0.0;
    for i in 0..horizon {
        let vnew_i = &vnew[i * nx..(i + 1) * nx];
        prs = prs.max(matlib::max_abs_diff_slices(&x[i * nx..(i + 1) * nx], vnew_i)?.to_f64());
        drs = drs.max(matlib::max_abs_diff_slices(&v[i * nx..(i + 1) * nx], vnew_i)?.to_f64());
    }
    let mut pri: f64 = 0.0;
    let mut dri: f64 = 0.0;
    for i in 0..horizon - 1 {
        let znew_i = &znew[i * nu..(i + 1) * nu];
        pri = pri.max(matlib::max_abs_diff_slices(&u[i * nu..(i + 1) * nu], znew_i)?.to_f64());
        dri = dri.max(matlib::max_abs_diff_slices(&z[i * nu..(i + 1) * nu], znew_i)?.to_f64());
    }
    Ok((prs, drs * rho, pri, dri * rho))
}

impl<T: Scalar> AdmmSolver<T> {
    fn dyn_dims(&self) -> DynDims {
        DynDims {
            nx: self.workspace.nx(),
            nu: self.workspace.nu(),
        }
    }

    pub(crate) fn backward_pass(&mut self) -> Result<()> {
        let dd = self.dyn_dims();
        let n = self.workspace.horizon();
        let cache = &self.cache;
        let v = self.workspace.views();
        dispatch!(self.spec, dd, backward(n, cache, v))
    }

    pub(crate) fn forward_pass(&mut self) -> Result<()> {
        let dd = self.dyn_dims();
        let n = self.workspace.horizon();
        let kinf = &self.cache.kinf;
        let a = &self.problem.a;
        let b = &self.problem.b;
        let v = self.workspace.views();
        dispatch!(self.spec, dd, forward(n, kinf, a, b, v))
    }

    pub(crate) fn update_slack(&mut self) -> Result<()> {
        let dd = self.dyn_dims();
        let n = self.workspace.horizon();
        let problem = &self.problem;
        let v = self.workspace.views();
        dispatch!(self.spec, dd, update_slack(n, problem, v))
    }

    pub(crate) fn update_dual(&mut self) -> Result<()> {
        let dd = self.dyn_dims();
        let n = self.workspace.horizon();
        let v = self.workspace.views();
        dispatch!(self.spec, dd, update_dual(n, v))
    }

    pub(crate) fn update_linear_cost(&mut self) -> Result<()> {
        let dd = self.dyn_dims();
        let n = self.workspace.horizon();
        let rho = self.problem.rho;
        let q_diag = &self.problem.q_diag;
        let pinf = &self.cache.pinf;
        let v = self.workspace.views();
        dispatch!(self.spec, dd, update_linear_cost(n, rho, q_diag, pinf, v))
    }

    pub(crate) fn residuals(&mut self) -> Result<(f64, f64, f64, f64)> {
        let dd = self.dyn_dims();
        let n = self.workspace.horizon();
        let rho = self.problem.rho.to_f64();
        let v = self.workspace.views();
        dispatch!(self.spec, dd, residuals(n, rho, v))
    }

    /// Allocation-free solve: runs the ADMM iteration entirely inside
    /// the arena workspace and stages the result in place.
    ///
    /// The applied control is readable afterwards via
    /// [`AdmmSolver::u0`]; the per-kernel cycle table via
    /// [`AdmmSolver::last_kernel_cycles`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::BadProblem`] if `x0` has the wrong
    /// dimension, [`crate::Error::InvalidTrace`] if the executor rejects a
    /// kernel trace, [`crate::Error::CorruptedWorkspace`] if the pinned
    /// initial state changed mid-solve, and numeric errors (including
    /// [`matlib::Error::NonFinite`]) for corrupted or inconsistent data.
    pub fn solve_in_place(
        &mut self,
        x0: &[T],
        executor: &mut dyn KernelExecutor,
    ) -> Result<SolveStatus> {
        self.solve_in_place_observed(x0, executor, &mut NullObserver)
    }

    /// [`solve_in_place`](Self::solve_in_place) with an inter-iteration
    /// [`SolveObserver`] hook (fault injection, instrumentation).
    ///
    /// # Errors
    ///
    /// Same contract as [`solve_in_place`](Self::solve_in_place).
    pub fn solve_in_place_observed(
        &mut self,
        x0: &[T],
        executor: &mut dyn KernelExecutor,
        observer: &mut dyn SolveObserver<T>,
    ) -> Result<SolveStatus> {
        let dims = self.problem.dims();
        if x0.len() != dims.nx {
            return Err(crate::Error::BadProblem {
                reason: format!("x0 must have dimension {}, got {}", dims.nx, x0.len()),
            });
        }
        if x0.iter().any(|v| !v.is_finite()) {
            return Err(crate::Error::BadProblem {
                reason: "x0 contains non-finite entries".into(),
            });
        }
        let n = dims.horizon;
        let mut table = KernelCycles::new();
        let mut total: u64 = executor.setup_cycles(&dims)?;

        let charge = |k: KernelId,
                      times: usize,
                      table: &mut KernelCycles,
                      total: &mut u64,
                      executor: &mut dyn KernelExecutor|
         -> Result<()> {
            let c = executor.kernel_cycles(k, &dims)? * times as u64;
            table.add(k, c);
            *total += c;
            Ok(())
        };

        // x[0] and its pinned shadow copy: nothing in the ADMM iteration
        // rewrites x[0], so any change is a memory fault.
        self.workspace.set_x0(x0);
        let rho = self.problem.rho;

        // Initialize the linear cost terms from the reference before the
        // first backward pass.
        self.update_linear_cost()?;
        charge(
            KernelId::UpdateLinearCost1,
            1,
            &mut table,
            &mut total,
            executor,
        )?;
        charge(
            KernelId::UpdateLinearCost2,
            1,
            &mut table,
            &mut total,
            executor,
        )?;
        charge(
            KernelId::UpdateLinearCost3,
            1,
            &mut table,
            &mut total,
            executor,
        )?;
        charge(
            KernelId::UpdateLinearCost4,
            1,
            &mut table,
            &mut total,
            executor,
        )?;

        let mut converged = false;
        let mut termination = TerminationCause::MaxIterations;
        let mut iterations = 0;
        let mut residuals = (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
        // Cost of the most recent full iteration, used to predict whether
        // the next one still fits in the cycle budget.
        let mut last_iter_cost: u64 = 0;

        for iter in 0..self.settings.max_iterations {
            if let Some(budget) = self.settings.cycle_budget {
                // The first iteration always runs so a best-so-far u0
                // exists; afterwards stop before a predicted overrun.
                if iter > 0 && total + last_iter_cost > budget {
                    termination = TerminationCause::Deadline;
                    break;
                }
            }
            let iter_start_cycles = total;
            iterations = iter + 1;

            // ---- Primal update: backward Riccati sweep, then forward
            // rollout (Algorithm 1).
            self.backward_pass()?;
            charge(
                KernelId::BackwardPass1,
                n - 1,
                &mut table,
                &mut total,
                executor,
            )?;
            charge(
                KernelId::BackwardPass2,
                n - 1,
                &mut table,
                &mut total,
                executor,
            )?;
            self.forward_pass()?;
            charge(
                KernelId::ForwardPass1,
                n - 1,
                &mut table,
                &mut total,
                executor,
            )?;
            charge(
                KernelId::ForwardPass2,
                n - 1,
                &mut table,
                &mut total,
                executor,
            )?;

            // ---- Slack update (Algorithm 2): project onto the boxes.
            self.update_slack()?;
            charge(KernelId::UpdateSlack1, 1, &mut table, &mut total, executor)?;
            charge(KernelId::UpdateSlack2, 1, &mut table, &mut total, executor)?;

            // ---- Dual ascent.
            self.update_dual()?;
            charge(KernelId::UpdateDual1, 1, &mut table, &mut total, executor)?;

            // ---- Refresh linear cost terms for the next primal update.
            self.update_linear_cost()?;
            charge(
                KernelId::UpdateLinearCost1,
                1,
                &mut table,
                &mut total,
                executor,
            )?;
            charge(
                KernelId::UpdateLinearCost2,
                1,
                &mut table,
                &mut total,
                executor,
            )?;
            charge(
                KernelId::UpdateLinearCost3,
                1,
                &mut table,
                &mut total,
                executor,
            )?;
            charge(
                KernelId::UpdateLinearCost4,
                1,
                &mut table,
                &mut total,
                executor,
            )?;

            // ---- Residuals (Algorithm 3) and termination.
            if iter % self.settings.check_interval == 0 {
                let (prs, drs, pri, dri) = self.residuals()?;
                charge(
                    KernelId::PrimalResidualState,
                    1,
                    &mut table,
                    &mut total,
                    executor,
                )?;
                charge(
                    KernelId::DualResidualState,
                    1,
                    &mut table,
                    &mut total,
                    executor,
                )?;
                charge(
                    KernelId::PrimalResidualInput,
                    1,
                    &mut table,
                    &mut total,
                    executor,
                )?;
                charge(
                    KernelId::DualResidualInput,
                    1,
                    &mut table,
                    &mut total,
                    executor,
                )?;
                residuals = (prs, drs, pri, dri);
                let tol = self.settings.tolerance;
                if prs < tol && drs < tol * rho.to_f64() && pri < tol && dri < tol * rho.to_f64() {
                    converged = true;
                }
                // Divergence: residuals of a healthy ADMM iteration shrink
                // towards tolerance; values this large (or NaN hiding in
                // the iterates — max-reductions skip NaN, so check the
                // workspace explicitly) mean the data is corrupt.
                let worst = prs.max(drs).max(pri).max(dri);
                if !worst.is_finite()
                    || worst > self.settings.divergence_threshold
                    || !self.workspace.is_finite()
                {
                    termination = TerminationCause::Diverged;
                    break;
                }
            }

            // Slide the slack iterates: exchange which storage regions
            // the logical v/vnew and z/znew map to (no data moves).
            self.workspace.swap_slack_iterates();

            observer.after_iteration(iterations, &mut self.cache, &mut self.workspace);
            if self.workspace.knot(WsField::X, 0) != self.workspace.x0_pinned() {
                return Err(crate::Error::CorruptedWorkspace {
                    what: "pinned initial state x[0] changed mid-solve".into(),
                });
            }

            last_iter_cost = total - iter_start_cycles;

            if converged {
                termination = TerminationCause::Converged;
                break;
            }
        }

        // The applied control is the (feasible) first slack input,
        // staged inside the arena.
        self.workspace.stage_u0();
        self.last_kernel_cycles = table;
        Ok(SolveStatus {
            converged,
            termination,
            iterations,
            residuals,
            total_cycles: total,
        })
    }
}
