//! # soc-serve — the batched multi-tenant solver service
//!
//! The rest of the workspace answers *design-time* questions: how many
//! cycles does one solve cost on one platform? This crate answers the
//! *deployment-time* question the paper's SoC sizing implies: how many
//! concurrent control loops can one part sustain, and what happens when
//! demand bursts past capacity? It turns the execution core into a
//! long-lived session runtime:
//!
//! * [`costs`] — [`CachedCosts`], a `Copy` per-kernel cycle table
//!   snapshotted once per (platform, dims) from the process-wide
//!   [`soc_backend::priced_for`] interner. Sessions carry it by value,
//!   so the tick hot path prices kernels without touching the
//!   interner's locks (and without allocating).
//! * [`session`] — [`CohortModel`] (one per scenario × platform:
//!   Riccati cache computed once, flat reference trajectory, rung cost
//!   vector) and [`Session`] (a warm [`DeadlineSolver`] clone plus
//!   plant state and scratch — everything one tenant's tick touches).
//! * [`runtime`] — [`ServeRuntime`]: recurring tick batches on the
//!   persistent [`soc_sweep::TickExecutor`], with
//!   [`DegradeRung`]-ladder *cohort shedding* as the admission policy —
//!   under burst, whole cohorts walk Nominal → WidenedCheck →
//!   EarlyExit → LqrFallback until aggregate demand fits tick capacity.
//! * [`loadgen`] — seeded session mixes over the scenario catalog and a
//!   serving platform set, plus the square-pulse [`BurstModel`].
//! * [`report`] — commutative atomic [`CycleHistogram`]s and the
//!   deterministic report body.
//! * [`bench`](mod@bench) — [`run_bench`]: the `dse bench-serve` engine.
//!
//! ## Determinism contract
//!
//! For a fixed config, the rendered report body is byte-identical for
//! any `--workers`: every number in it derives from simulated cycles,
//! seeded PRNG streams, and commutative atomic accumulation. Host
//! wall-clock metrics (ns percentiles, sessions/sec, allocation
//! counts) are scheduling-dependent and go to stderr and the JSON
//! artifact only.
//!
//! ## Allocation contract
//!
//! After a two-tick warm-up, the steady-state tick loop performs zero
//! heap allocations: references stream into the arena workspace via
//! `knot_mut`, solves run through
//! [`soc_faults::DeadlineSolver::solve_in_place_at_rung`], plant updates use
//! `gemv_into`/`add_into` scratch, and metrics land in atomics.
//! `crates/serve/tests/alloc_gate.rs` enforces this with the counting
//! global allocator from `matlib-accel`.
//!
//! [`DeadlineSolver`]: soc_faults::DeadlineSolver
//! [`DegradeRung`]: soc_faults::DegradeRung
//! [`CachedCosts`]: costs::CachedCosts
//! [`CohortModel`]: session::CohortModel
//! [`Session`]: session::Session
//! [`ServeRuntime`]: runtime::ServeRuntime
//! [`BurstModel`]: loadgen::BurstModel
//! [`CycleHistogram`]: report::CycleHistogram
//! [`run_bench`]: bench::run_bench

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod costs;
pub mod loadgen;
pub mod report;
pub mod runtime;
pub mod session;

pub use bench::{run_bench, BenchConfig, BenchOutput, HostStats};
pub use costs::CachedCosts;
pub use loadgen::{plan_load, BurstModel, LoadPlan};
pub use report::CycleHistogram;
pub use runtime::{RunStats, ServeRuntime};
pub use session::{CohortModel, Session};
