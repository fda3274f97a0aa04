//! # soc-sweep — parallel, memoized design-space sweeps
//!
//! The paper's artifact is a sweep: Table I, the kernel heatmaps, and
//! the area/performance Pareto frontier are all grids of independent
//! cycle-level simulations. This crate turns that shape into a batch
//! engine:
//!
//! * [`spec`] — declarative sweep specifications (platform grid ×
//!   horizons × kernel grids), with [`SweepSpec::smoke`] and
//!   [`SweepSpec::full`] presets.
//! * [`key`] — content-addressed cache keys: a stable 128-bit FNV-1a
//!   hash over the full platform configuration and request parameters.
//! * [`cache`] — the two-tier (in-memory + on-disk) memo table with
//!   atomic writes and corrupt-entry tolerance.
//! * [`pool`] — a scoped `std::thread` shard pool that self-balances
//!   via an atomic work counter while keeping results in item order.
//! * [`engine`] — [`SweepEngine`], the parallel
//!   [`CycleSource`](soc_dse::experiments::CycleSource): serial probe
//!   (deterministic cache accounting), parallel execute, serial commit.
//! * [`run`] — [`run_sweep`]: executes a spec and renders the report,
//!   deterministic body on stdout, shard timing for stderr.
//!
//! ## Determinism contract
//!
//! For any spec and any `jobs >= 1`, [`run_sweep`]'s rendered report is
//! byte-identical to the `jobs = 1` run, and every cycle count is
//! bit-identical to [`SerialSource`](soc_dse::experiments::SerialSource).
//! Only [`ShardStats`] — wall time and per-shard item
//! counts — depend on scheduling, and they are rendered separately.
//!
//! ## Fault tolerance
//!
//! The execution stack survives partial failure with bounded,
//! observable degradation: every work item runs under `catch_unwind`
//! with a bounded retry budget ([`RetryPolicy`]), items that exhaust it
//! surface as [`tinympc::Error::ShardFailed`] slots and explicit
//! `FAILED` report rows instead of aborting the sweep, the engine lock
//! recovers from poisoning, and corrupt disk-cache entries are
//! checksummed, quarantined with a reason file, and healed on
//! recompute. Deterministic chaos campaigns over this machinery live in
//! `soc-faults::chaos` (`dse chaos`).
//!
//! ## Quickstart
//!
//! ```
//! use soc_sweep::{run_sweep, SweepEngine, SweepSpec};
//!
//! let engine = SweepEngine::in_memory(4);
//! let report = run_sweep(&SweepSpec::smoke(), &engine).unwrap();
//! assert!(report.render().contains("# sweep: smoke"));
//! // A second pass over the same engine regenerates nothing.
//! let warm = run_sweep(&SweepSpec::smoke(), &engine).unwrap();
//! assert_eq!(warm.stats.misses, 0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod key;
pub mod pool;
pub mod run;
pub mod spec;

pub use cache::SweepCache;
pub use engine::{ChaosAction, ChaosCtx, ChaosHook, EngineStats, FaultStats, SweepEngine};
pub use pool::{
    run_sharded_isolated, BatchJob, RetryPolicy, ShardFailure, ShardStats, TickExecutor,
};
pub use run::{run_sweep, run_sweep_tiered, SweepReport, SweepTier};
pub use spec::{HeatmapSpec, SweepSpec};
