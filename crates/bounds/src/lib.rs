//! # soc-bounds — static cycle-bound analysis of micro-op programs
//!
//! A static analyzer that abstract-interprets lowered micro-op programs
//! to produce per-kernel `[lower, upper]` steady-state cycle intervals
//! *without materializing or replaying a trace through the simulators*.
//! It is the cross-check of the trace simulators behind the
//! `BackendPipeline` seam: they answer "how many cycles did this run
//! take", this crate answers "how many cycles *can* it take", and
//! `dse bounds` and the workspace's differential tests hold the two
//! against each other. Nothing in the sweep or serve paths links it.
//!
//! ## The bound lattice
//!
//! Every timing decision in the workspace's pipeline models is a
//! composition of `max`, `+`, and `div_ceil` over dispatch times — all
//! monotone — with two exceptions handled explicitly below. The analyzer
//! exploits this:
//!
//! * **In-order cores** (Rocket, Shuttle) are a deterministic single
//!   forward pass. The analyzer runs one abstract machine that replicates
//!   the scoreboard bit-for-bit, so the interval is a *singleton* and the
//!   claim is [`soc_backend::BoundClaim::Exact`].
//! * **Out-of-order cores** (the BOOM family) have one non-monotone
//!   component: the greedy backfilling issue-slot allocator, whose claim
//!   times can *decrease* when inputs arrive later. The analyzer brackets
//!   it with two monotone policies — an unbounded allocator (`issue =
//!   start`, never worse than any real allocator) below and a
//!   no-backfill allocator (never better) above — and runs the otherwise
//!   exact machine once per side. The claim is
//!   [`soc_backend::BoundClaim::Bounded`].
//! * **Gemmini's pipeline-fill charge** (paid when a compute tile starts
//!   on an idle mesh) is the second non-monotone decision; the abstract
//!   accelerator resolves it exactly on in-order cores and conservatively
//!   per side (never charge / always charge) inside the OoO bracket.
//!
//! The lower side is additionally tightened with closed-form retirement
//! floors (per-pipe issue-bandwidth ceilings, the unpipelined FP-divider
//! chain, and frontend decode bandwidth).
//!
//! Steady-state intervals mirror the simulators' two-emission
//! measurement: for a trace with a steady-state mark, `steady =
//! full − head` is bracketed as `[lo_full − hi_head, hi_full − lo_head]`.
//!
//! [`kernel_bounds`] and [`setup_bounds`] gate their traces through
//! `soc-verify` first: bounds are only claimed for programs the static
//! verifier accepts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel;
mod interval;
mod machine;
mod source;

pub use interval::CycleInterval;
pub use machine::{steady_bounds, trace_bounds};
pub use source::{kernel_bounds, setup_bounds, standalone_bounds};
