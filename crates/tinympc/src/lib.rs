//! # tinympc — model-predictive control for resource-constrained robots
//!
//! A from-scratch Rust implementation of **TinyMPC** (Nguyen et al., 2024),
//! the target workload of the paper's design-space exploration. TinyMPC
//! solves a convex, box-constrained linear MPC problem with the alternating
//! direction method of multipliers (ADMM), alternating between primal,
//! slack and dual updates until the residuals converge.
//!
//! The key memory/compute optimization is the **infinite-horizon Riccati
//! cache**: instead of a full horizon of time-varying LQR gains, the solver
//! caches only `K∞`, `P∞`, `(R+BᵀP∞B)⁻¹` and `(A−BK∞)ᵀ` — computed once
//! per problem — so the online iteration consists purely of small
//! matrix-vector products, strip-mined element-wise vector operations, and
//! global max reductions (Algorithms 1–3 of the paper; see [`KernelId`]).
//!
//! ## Architecture-aware accounting
//!
//! The solver is generic over a [`KernelExecutor`]: a timing oracle that
//! prices each kernel invocation on some hardware back-end. The functional
//! math is always computed with [`matlib`] (so every back-end produces the
//! same trajectory up to float rounding); executors for the scalar cores,
//! Saturn and Gemmini live in the `soc-dse` crate.
//!
//! ## Quickstart
//!
//! ```
//! use tinympc::{AdmmSolver, NullExecutor, problems, SolverSettings};
//!
//! # fn main() -> Result<(), tinympc::Error> {
//! let problem = problems::quadrotor_hover::<f64>(10)?;
//! let mut solver = AdmmSolver::new(problem, SolverSettings::default())?;
//! let x0 = solver.problem().hover_offset_state(0.2);
//! let status = solver.solve_in_place(x0.as_slice(), &mut NullExecutor)?;
//! assert!(status.converged);
//! assert_eq!(solver.u0().len(), 4); // applied control, staged in the arena
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cone;
mod error;
mod executor;
mod hot;
mod kernel;
mod problem;
pub mod problems;
mod solver;
mod workspace;

pub use cache::TinyMpcCache;
pub use cone::SocConstraint;
pub use error::Error;
pub use executor::{KernelExecutor, NullExecutor};
pub use hot::SolverDims;
pub use kernel::{KernelClass, KernelCycles, KernelId, KernelProfile, ProblemDims};
pub use problem::TinyMpcProblem;
pub use solver::{
    AdmmSolver, NullObserver, SolveObserver, SolveStatus, SolverSettings, TerminationCause,
};
pub use workspace::{TinyMpcWorkspace, WsField};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
