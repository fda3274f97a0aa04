//! # soc-faults — fault injection and deadline-aware degradation
//!
//! Real hardware breaks: scratchpad SRAMs take single-event upsets, DMA
//! engines corrupt words in flight, command queues drop or mangle
//! entries. A real-time controller also has a second failure mode no
//! functional test catches — missing its deadline. This crate makes both
//! failure classes first-class objects of the DSE framework:
//!
//! - [`plan`] — deterministic, seeded fault plans ([`FaultPlan`]): every
//!   campaign is a pure function of its seed.
//! - [`inject`] — injectors that apply a planned fault to solver data
//!   ([`DataInjector`]), to generated micro-op streams
//!   ([`corrupt_trace`]), or to a back-end's pricing path
//!   ([`FaultyExecutor`]).
//! - [`deadline`] — [`DeadlineSolver`], the degradation ladder
//!   (nominal → widened residual checks → budgeted early exit → cached
//!   LQR gain) plus bounded fault recovery. Its `solve` never fails and
//!   never returns a non-finite or out-of-box control.
//! - [`campaign`] — seeded campaigns sweeping the shipped back-end
//!   families, classifying every trial as detected / recovered /
//!   deadline-missed / masked / SDC.
//! - [`riscv`] — instruction-level bit flips on the functional RV32IMF
//!   machine as an ISA-level ground truth.
//! - [`chaos`] — seeded campaigns against the *platform itself*: worker
//!   panics, cache corruption, lock poisoning and slow items thrown at
//!   the sweep/bounds execution stack, each trial classified
//!   recovered / degraded / aborted (`dse chaos`).
//!
//! Detection itself is layered through the rest of the workspace: matlib
//! guards every hot-op output for non-finite values, the ADMM loop
//! carries a residual-divergence detector and a pinned-`x0` shadow word,
//! and the executors statically verify every generated micro-op stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
pub mod deadline;
pub mod inject;
pub mod plan;
pub mod riscv;

pub use campaign::{run_campaign, BackendStats, CampaignKind, CampaignReport};
pub use chaos::{recoverable_strikes, run_chaos, ChaosOutcome, ChaosReport, ChaosTrial};
pub use deadline::{
    DeadlineConfig, DeadlineSolver, DegradeRung, RungCosts, RungStatus, SolveOutcome,
};
pub use inject::{corrupt_trace, DataInjector, FaultyExecutor, TraceFaultOutcome};
pub use plan::{Fault, FaultKind, FaultPlan, FaultSite};
pub use riscv::{run_instruction_campaign, InstructionStats};
