//! Abstract pipeline machines: single-pass interpreters over micro-op
//! programs that track the same lattice of dispatch state the simulators
//! evolve (vector configuration rides in each op's payload; issue-width,
//! fence/RoCC stalls and scratchpad residency live in the abstract
//! accelerator), but produce cycle *bounds* instead of replayed cycles.
//!
//! * [`run_inorder`] replicates the in-order scoreboard exactly — one
//!   deterministic forward pass, so its result is both bounds at once.
//! * [`run_ooo`] runs the out-of-order model with the issue-slot
//!   allocator swapped per [`Policy`]: `Lower` grants every op its
//!   earliest possible slot (no structural conflict can make the real
//!   greedy allocator faster), `Upper` allocates without backfilling
//!   (monotone, and never earlier than greedy under pointwise-later
//!   inputs). Everything else — frontend, ROB, IQ capacity, commit
//!   bandwidth, the accelerator — is the exact algorithm.
//!
//! Both machines snapshot their completion horizon at the steady-state
//! mark: because processing is forward-only and deterministic, the state
//! after `mark` ops equals a fresh run of the prefix, which is exactly
//! what the simulators' two-emission steady-state measurement computes.

use crate::accel::{fresh, Mode};
use crate::CycleInterval;
use soc_backend::AccelModel;
use soc_cpu::{CoreConfig, CoreKind, IssueQueues};
use soc_isa::{Cycles, FuKind, MicroOp, OpClass, Trace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Completion horizons of one abstract run: after the whole program and
/// at the steady-state mark.
struct RunPair {
    full: Cycles,
    head: Cycles,
}

/// Which side of the bracket an out-of-order run computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Lower,
    Upper,
}

/// No-backfill issue-slot allocator: admits at most `width` claims per
/// cycle and never returns to an earlier cycle once it has moved on.
/// Under inputs that are pointwise later than an exact run's, its claim
/// times dominate the greedy backfilling allocator's.
#[derive(Default)]
struct Slots {
    cur: Cycles,
    used: u32,
}

impl Slots {
    fn claim(&mut self, t: Cycles, width: u32) -> Cycles {
        if t > self.cur {
            self.cur = t;
            self.used = 1;
        } else if self.used < width {
            self.used += 1;
        } else {
            self.cur += 1;
            self.used = 1;
        }
        self.cur
    }
}

const PIPES: usize = 3;

/// Issue pipe index: 0 = memory, 1 = integer (and the RoCC/vector command
/// port), 2 = floating point. Mirrors the simulator's `Pipe` enum.
fn pipe_of(fu: FuKind) -> usize {
    match fu {
        FuKind::Load | FuKind::Store => 0,
        FuKind::IntAlu | FuKind::IntMul | FuKind::Branch => 1,
        FuKind::Fpu | FuKind::FpDiv => 2,
        FuKind::VecUnit | FuKind::Rocc => 1,
    }
}

fn max_reg(ops: &[MicroOp]) -> usize {
    ops.iter()
        .flat_map(|op| op.dst.into_iter().chain(op.sources()))
        .map(|r| r.0 as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Exact abstract interpretation of the in-order scoreboard
/// (`InOrderCore::run`), snapshotting the completion horizon at `mark`.
fn run_inorder(
    config: &CoreConfig,
    issue_width: u32,
    model: &AccelModel,
    trace: &Trace,
    mark: usize,
) -> RunPair {
    let mut accel = fresh(model, Mode::Exact);
    let regs = max_reg(trace.ops());
    let mut ready = vec![0u64; regs];
    let mut accel_produced = vec![false; regs];

    let mut cycle: Cycles = 0;
    let mut issued_this_cycle: u32 = 0;
    let mut fpu_this_cycle: u32 = 0;
    let mut mem_this_cycle: u32 = 0;
    let mut fpdiv_free: Cycles = 0;
    let mut last_complete: Cycles = 0;
    let mut head: Cycles = 0;

    macro_rules! advance_to {
        ($t:expr) => {
            if $t > cycle {
                cycle = $t;
                issued_this_cycle = 0;
                fpu_this_cycle = 0;
                mem_this_cycle = 0;
            }
        };
    }
    macro_rules! next_cycle {
        () => {
            advance_to!(cycle + 1)
        };
    }

    for (idx, op) in trace.ops().iter().enumerate() {
        if idx == mark {
            head = last_complete.max(cycle).max(accel.drain());
        }
        let is_accel = matches!(op.class.fu(), FuKind::VecUnit | FuKind::Rocc);
        let operands_ready = op
            .sources()
            .filter(|r| !(is_accel && accel_produced[r.0 as usize]))
            .map(|r| ready[r.0 as usize])
            .max()
            .unwrap_or(0);
        advance_to!(operands_ready);

        if issued_this_cycle >= issue_width {
            next_cycle!();
        }

        match op.class.fu() {
            FuKind::Fpu => {
                while fpu_this_cycle >= config.fpu_count {
                    next_cycle!();
                }
                fpu_this_cycle += 1;
            }
            FuKind::FpDiv => {
                advance_to!(fpdiv_free);
                fpdiv_free = cycle + config.latency.latency(OpClass::FpDiv);
            }
            FuKind::Load | FuKind::Store => {
                while mem_this_cycle >= config.mem_ports {
                    next_cycle!();
                }
                mem_this_cycle += 1;
            }
            FuKind::IntAlu | FuKind::IntMul | FuKind::Branch => {}
            FuKind::VecUnit | FuKind::Rocc => {
                if op.class == OpClass::Fence {
                    let drain = accel.drain();
                    advance_to!(drain);
                    issued_this_cycle += 1;
                    continue;
                }
                let (accepted_at, completes_at) = accel.dispatch(op, cycle, operands_ready);
                if let Some(dst) = op.dst {
                    ready[dst.0 as usize] = completes_at;
                    accel_produced[dst.0 as usize] = true;
                }
                last_complete = last_complete.max(completes_at);
                advance_to!(accepted_at);
                let cost = if op.class.fu() == FuKind::VecUnit {
                    let covered = match op.payload {
                        soc_isa::Payload::Vector(spec) => {
                            let regs = (spec.vl * spec.sew as u32).div_ceil(512);
                            regs.clamp(1, spec.lmul.max(1) as u32)
                        }
                        _ => 1,
                    };
                    (config.vector_dispatch_slots / covered).max(1)
                } else {
                    1
                };
                issued_this_cycle += cost;
                while issued_this_cycle >= issue_width {
                    issued_this_cycle -= issue_width;
                    cycle += 1;
                    fpu_this_cycle = 0;
                    mem_this_cycle = 0;
                }
                continue;
            }
        }

        let complete = cycle + config.latency.latency(op.class);
        if let Some(dst) = op.dst {
            ready[dst.0 as usize] = complete;
        }
        last_complete = last_complete.max(complete);
        issued_this_cycle += 1;
    }

    let full = last_complete.max(cycle).max(accel.drain());
    if mark >= trace.ops().len() {
        head = full;
    }
    RunPair { full, head }
}

/// One bracketing run of the out-of-order model (`OutOfOrderCore::run`)
/// with the issue-slot allocator swapped per `policy`.
#[allow(clippy::too_many_arguments)]
fn run_ooo(
    config: &CoreConfig,
    fetch_width: u32,
    decode_width: u32,
    rob_size: u32,
    queues: &IssueQueues,
    model: &AccelModel,
    trace: &Trace,
    mark: usize,
    policy: Policy,
) -> RunPair {
    let mode = match policy {
        Policy::Lower => Mode::Lower,
        Policy::Upper => Mode::Upper,
    };
    let mut accel = fresh(model, mode);
    let regs = max_reg(trace.ops());
    let mut ready = vec![0u64; regs];
    let mut accel_produced = vec![false; regs];

    let mut dispatch_cycle: Cycles = 0;
    let mut dispatched_this: u32 = 0;

    let mut rob: VecDeque<Cycles> = VecDeque::with_capacity(rob_size as usize);
    let mut prev_retire: Cycles = 0;
    let mut commit_cycle: Cycles = 0;
    let mut commits_this: u32 = 0;

    let mut slots: [Slots; PIPES] = Default::default();
    let mut iq: [BinaryHeap<Reverse<Cycles>>; PIPES] = Default::default();

    let mut fpdiv_free: Cycles = 0;
    let mut last_retire: Cycles = 0;
    let mut head: Cycles = 0;

    let fp_width = queues.fp_issue.min(config.fpu_count);

    for (idx, op) in trace.ops().iter().enumerate() {
        if idx == mark {
            head = last_retire.max(accel.drain());
        }
        if dispatched_this >= decode_width {
            dispatch_cycle += 1;
            dispatched_this = 0;
        }
        if rob.len() >= rob_size as usize {
            let rob_head = rob.pop_front().expect("rob nonempty");
            if rob_head + 1 > dispatch_cycle {
                dispatch_cycle = rob_head + 1;
                dispatched_this = 0;
            }
        }

        let pipe = pipe_of(op.class.fu());
        while iq[pipe].len() >= queues.iq_entries as usize {
            let Reverse(earliest) = iq[pipe].pop().expect("queue nonempty");
            if earliest + 1 > dispatch_cycle {
                dispatch_cycle = earliest + 1;
                dispatched_this = 0;
            }
        }

        let is_accel = matches!(op.class.fu(), FuKind::VecUnit | FuKind::Rocc);
        let operands_ready = op
            .sources()
            .filter(|r| !(is_accel && accel_produced[r.0 as usize]))
            .map(|r| ready[r.0 as usize])
            .max()
            .unwrap_or(0);
        let earliest = dispatch_cycle.max(operands_ready);

        let complete = match op.class {
            OpClass::Fence => earliest.max(accel.drain()),
            OpClass::Vector | OpClass::Rocc => {
                let (accepted_at, completes_at) = accel.dispatch(op, earliest, operands_ready);
                if accepted_at + 1 > dispatch_cycle {
                    dispatch_cycle = accepted_at;
                }
                if let Some(dst) = op.dst {
                    accel_produced[dst.0 as usize] = true;
                }
                completes_at
            }
            _ => {
                let width = match pipe {
                    0 => queues.mem_issue.min(config.mem_ports),
                    1 => queues.int_issue,
                    _ => fp_width,
                };
                let mut start = earliest;
                if op.class == OpClass::FpDiv {
                    start = start.max(fpdiv_free);
                }
                let issue = match policy {
                    Policy::Lower => start,
                    Policy::Upper => slots[pipe].claim(start, width.max(1)),
                };
                if op.class == OpClass::FpDiv {
                    fpdiv_free = issue + config.latency.latency(OpClass::FpDiv);
                }
                iq[pipe].push(Reverse(issue));
                issue + config.latency.latency(op.class)
            }
        };

        if let Some(dst) = op.dst {
            ready[dst.0 as usize] = complete;
        }

        let rc = complete.max(prev_retire);
        if rc > commit_cycle {
            commit_cycle = rc;
            commits_this = 0;
        }
        if commits_this >= decode_width {
            commit_cycle += 1;
            commits_this = 0;
        }
        commits_this += 1;
        prev_retire = commit_cycle;
        last_retire = last_retire.max(commit_cycle);
        rob.push_back(commit_cycle);

        dispatched_this += 1;
        if fetch_width < decode_width && dispatched_this >= fetch_width {
            dispatch_cycle += 1;
            dispatched_this = 0;
        }
    }

    let full = last_retire.max(accel.drain());
    if mark >= trace.ops().len() {
        head = full;
    }
    RunPair { full, head }
}

/// Closed-form lower bound on the retirement horizon of `ops`,
/// independent of the abstract run: per-pipe issue-bandwidth ceilings
/// (`⌈n_pipe / width⌉`), the unpipelined FP-divider chain, and frontend
/// decode bandwidth. Tightens the `Lower` policy's result, whose
/// unbounded slot allocator ignores structural conflicts.
fn retire_floor(
    config: &CoreConfig,
    decode_width: u32,
    queues: &IssueQueues,
    ops: &[MicroOp],
) -> Cycles {
    let n = ops.len() as u64;
    if n == 0 {
        return 0;
    }
    let mut per_pipe = [0u64; PIPES];
    let mut fpdiv = 0u64;
    for op in ops {
        let fu = op.class.fu();
        if matches!(fu, FuKind::VecUnit | FuKind::Rocc) {
            continue;
        }
        per_pipe[pipe_of(fu)] += 1;
        if fu == FuKind::FpDiv {
            fpdiv += 1;
        }
    }
    let widths = [
        queues.mem_issue.min(config.mem_ports).max(1) as u64,
        queues.int_issue.max(1) as u64,
        queues.fp_issue.min(config.fpu_count).max(1) as u64,
    ];
    let mut floor = (n - 1) / decode_width.max(1) as u64;
    for (count, width) in per_pipe.iter().zip(widths) {
        floor = floor.max(count.div_ceil(width));
    }
    floor.max(fpdiv * config.latency.latency(OpClass::FpDiv))
}

/// Interval over all four horizon values of a (possibly marked) trace.
struct Analysis {
    lo_full: Cycles,
    hi_full: Cycles,
    lo_head: Cycles,
    hi_head: Cycles,
}

fn analyze(config: &CoreConfig, model: &AccelModel, trace: &Trace, mark: usize) -> Analysis {
    match config.kind {
        CoreKind::InOrder { issue_width } => {
            let r = run_inorder(config, issue_width, model, trace, mark);
            Analysis {
                lo_full: r.full,
                hi_full: r.full,
                lo_head: r.head,
                hi_head: r.head,
            }
        }
        CoreKind::OutOfOrder {
            fetch_width,
            decode_width,
            rob_size,
            queues,
        } => {
            let lo = run_ooo(
                config,
                fetch_width,
                decode_width,
                rob_size,
                &queues,
                model,
                trace,
                mark,
                Policy::Lower,
            );
            let hi = run_ooo(
                config,
                fetch_width,
                decode_width,
                rob_size,
                &queues,
                model,
                trace,
                mark,
                Policy::Upper,
            );
            let ops = trace.ops();
            let floor_full = retire_floor(config, decode_width, &queues, ops);
            let floor_head =
                retire_floor(config, decode_width, &queues, &ops[..mark.min(ops.len())]);
            Analysis {
                lo_full: lo.full.max(floor_full),
                hi_full: hi.full,
                lo_head: lo.head.max(floor_head),
                hi_head: hi.head,
            }
        }
    }
}

/// Bounds on simulating a whole trace from a cold pipeline (the analytical
/// counterpart of `BackendPipeline::simulate`).
pub fn trace_bounds(config: &CoreConfig, model: &AccelModel, trace: &Trace) -> CycleInterval {
    let a = analyze(config, model, trace, 0);
    CycleInterval::new(a.lo_full.min(a.hi_full), a.hi_full)
}

/// Bounds on the steady-state cost of a double-emission trace with its
/// first emission ending at `mark` (the analytical counterpart of
/// `steady_cost`): `full − head`, bracketed as
/// `[lo_full − hi_head, hi_full − lo_head]` and clamped to at least one
/// cycle exactly like the simulator's measurement.
pub fn steady_bounds(
    config: &CoreConfig,
    model: &AccelModel,
    trace: &Trace,
    mark: usize,
) -> CycleInterval {
    let a = analyze(config, model, trace, mark);
    let lo = a.lo_full.saturating_sub(a.hi_head).max(1);
    let hi = a.hi_full.saturating_sub(a.lo_head).max(1);
    CycleInterval::new(lo.min(hi), hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlib::rng::SplitMix64;
    use soc_backend::steady_cost;
    use soc_cpu::{simulate_with_accel, Accelerator, NullAccelerator};
    use soc_gemmini::{GemminiConfig, GemminiUnit};
    use soc_isa::{OpClass, RoccCmd, TraceBuilder, VecOpKind, VectorSpec};
    use soc_vector::{SaturnConfig, SaturnUnit};

    fn cores() -> Vec<CoreConfig> {
        vec![
            CoreConfig::rocket(),
            CoreConfig::tiny_rocket(),
            CoreConfig::shuttle(),
            CoreConfig::small_boom(),
            CoreConfig::medium_boom(),
            CoreConfig::large_boom(),
            CoreConfig::mega_boom(),
        ]
    }

    /// A random but structurally sensible scalar/mixed trace.
    fn random_scalar_trace(rng: &mut SplitMix64, n: usize) -> Trace {
        let mut b = TraceBuilder::new();
        let mut live: Vec<soc_isa::VReg> = Vec::new();
        for _ in 0..n {
            let pick = |rng: &mut SplitMix64, live: &[soc_isa::VReg]| {
                if live.is_empty() {
                    vec![]
                } else {
                    let k = rng.range_usize(0, 2.min(live.len()));
                    (0..k)
                        .map(|_| live[rng.range_usize(0, live.len() - 1)])
                        .collect()
                }
            };
            match rng.range_usize(0, 8) {
                0 | 1 => live.push(b.load()),
                2 => {
                    let srcs = pick(rng, &live);
                    b.store(&srcs);
                }
                3 | 4 => {
                    let srcs = pick(rng, &live);
                    live.push(b.fp(OpClass::FpFma, &srcs));
                }
                5 => {
                    let srcs = pick(rng, &live);
                    live.push(b.fp(OpClass::FpAdd, &srcs));
                }
                6 => {
                    b.int_ops(rng.range_usize(1, 3));
                }
                7 => {
                    let srcs = pick(rng, &live);
                    b.branch(&srcs);
                }
                8 => {
                    let srcs = pick(rng, &live);
                    live.push(b.fp(OpClass::FpDiv, &srcs));
                }
                _ => unreachable!(),
            }
            if live.len() > 8 {
                live.drain(..4);
            }
        }
        b.finish()
    }

    fn random_vector_trace(rng: &mut SplitMix64, n: usize) -> Trace {
        let mut b = TraceBuilder::new();
        let mut live: Vec<soc_isa::VReg> = Vec::new();
        for _ in 0..n {
            match rng.range_usize(0, 5) {
                0 => {
                    let vl = rng.range_usize(1, 128) as u32;
                    let lmul = [1u8, 2, 4, 8][rng.range_usize(0, 3)];
                    live.push(b.vload(vl, lmul));
                }
                1 | 2 => {
                    let vl = rng.range_usize(1, 128) as u32;
                    let lmul = [1u8, 2, 4, 8][rng.range_usize(0, 3)];
                    let kind = [VecOpKind::Arith, VecOpKind::MulAdd, VecOpKind::Reduction]
                        [rng.range_usize(0, 2)];
                    let srcs: Vec<_> = if live.is_empty() {
                        vec![]
                    } else {
                        vec![live[rng.range_usize(0, live.len() - 1)]]
                    };
                    live.push(b.vector(VectorSpec::f32(kind, vl, lmul), &srcs));
                }
                3 => {
                    if let Some(&v) = live.last() {
                        b.vstore(rng.range_usize(1, 64) as u32, 1, v);
                    } else {
                        live.push(b.vload(16, 1));
                    }
                }
                4 => {
                    b.int_ops(rng.range_usize(1, 2));
                }
                5 => b.fence(),
                _ => unreachable!(),
            }
            if live.len() > 6 {
                live.drain(..3);
            }
        }
        b.finish()
    }

    fn random_gemmini_trace(rng: &mut SplitMix64, n: usize) -> Trace {
        let mut b = TraceBuilder::new();
        let mut live: Vec<soc_isa::VReg> = Vec::new();
        for _ in 0..n {
            let srcs: Vec<_> = if live.is_empty() {
                vec![]
            } else {
                vec![live[rng.range_usize(0, live.len() - 1)]]
            };
            match rng.range_usize(0, 6) {
                0 | 1 => {
                    let rows = rng.range_usize(1, 16) as u16;
                    let cols = rng.range_usize(1, 16) as u16;
                    live.push(b.rocc(
                        RoccCmd::Mvin {
                            rows,
                            cols,
                            base: 0,
                        },
                        &srcs,
                    ));
                }
                2 => {
                    let rows = rng.range_usize(1, 8) as u16;
                    live.push(b.rocc(
                        RoccCmd::Mvout {
                            rows,
                            cols: 4,
                            pool_stride: 0,
                            base: 0,
                        },
                        &srcs,
                    ));
                }
                3 | 4 => {
                    let rows = rng.range_usize(1, 8) as u16;
                    let ks = rng.range_usize(1, 32) as u16;
                    let gemv = rng.unit_f64() < 0.5;
                    live.push(b.rocc(
                        RoccCmd::ComputeTile {
                            rows,
                            cols: if gemv { 1 } else { 4 },
                            ks,
                            gemv,
                            out_base: 0,
                        },
                        &srcs,
                    ));
                }
                5 => {
                    live.push(b.rocc(RoccCmd::Preload, &[]));
                    b.int_ops(1);
                }
                6 => b.fence(),
                _ => unreachable!(),
            }
            if live.len() > 6 {
                live.drain(..3);
            }
        }
        b.finish()
    }

    fn check(
        config: &CoreConfig,
        model: &AccelModel,
        mk_accel: &dyn Fn() -> Box<dyn Accelerator>,
        trace: &Trace,
        ctx: &str,
    ) {
        // Whole-trace bounds vs the real simulator.
        let mut accel = mk_accel();
        let sim = simulate_with_accel(config, trace, accel.as_mut());
        let b = trace_bounds(config, model, trace);
        assert!(
            b.contains(sim),
            "{ctx} on {}: simulated {sim} outside {b}",
            config.name
        );
        if matches!(config.kind, CoreKind::InOrder { .. }) {
            assert!(b.is_exact(), "{ctx} on {}: in-order not exact", config.name);
        }
        // Steady bounds vs the simulator's two-emission measurement, using
        // the trace's midpoint as an arbitrary mark.
        let mark = trace.ops().len() / 2;
        if mark > 0 {
            let steady = steady_cost(config, trace, mark, mk_accel);
            let sb = steady_bounds(config, model, trace, mark);
            assert!(
                sb.contains(steady),
                "{ctx} on {}: steady {steady} outside {sb}",
                config.name
            );
            if matches!(config.kind, CoreKind::InOrder { .. }) {
                assert!(sb.is_exact());
            }
        }
    }

    #[test]
    fn scalar_random_traces_are_bounded_everywhere() {
        let mut rng = SplitMix64::new(0xb0b5);
        for round in 0..40 {
            let n = rng.range_usize(5, 120);
            let t = random_scalar_trace(&mut rng, n);
            for core in cores() {
                check(
                    &core,
                    &AccelModel::None,
                    &|| Box::new(NullAccelerator),
                    &t,
                    &format!("scalar round {round}"),
                );
            }
        }
    }

    #[test]
    fn saturn_random_traces_are_bounded_everywhere() {
        let mut rng = SplitMix64::new(0x5a7a);
        let configs = [
            SaturnConfig::v512d128(),
            SaturnConfig::v512d256(),
            SaturnConfig::v256d64(),
        ];
        for round in 0..25 {
            let n = rng.range_usize(5, 80);
            let t = random_vector_trace(&mut rng, n);
            for sc in configs {
                for core in cores() {
                    check(
                        &core,
                        &AccelModel::Saturn(sc),
                        &|| Box::new(SaturnUnit::new(sc)),
                        &t,
                        &format!("saturn round {round}"),
                    );
                }
            }
        }
    }

    #[test]
    fn gemmini_random_traces_are_bounded_everywhere() {
        let mut rng = SplitMix64::new(0x6e44);
        let configs = [
            GemminiConfig::os_4x4_32kb(),
            GemminiConfig::ws_4x4_64kb(),
            GemminiConfig::os_8x8_64kb(),
            GemminiConfig::os_4x4_32kb().with_gemv_support(),
        ];
        for round in 0..25 {
            let n = rng.range_usize(5, 60);
            let t = random_gemmini_trace(&mut rng, n);
            for gc in configs {
                for core in cores() {
                    check(
                        &core,
                        &AccelModel::Gemmini(gc),
                        &|| Box::new(GemminiUnit::new(gc)),
                        &t,
                        &format!("gemmini round {round}"),
                    );
                }
            }
        }
    }

    #[test]
    fn empty_trace_is_degenerate() {
        let t = TraceBuilder::new().finish();
        let b = trace_bounds(&CoreConfig::rocket(), &AccelModel::None, &t);
        assert_eq!(b, CycleInterval::exact(0));
    }

    #[test]
    fn floors_tighten_ooo_lower_bounds() {
        // A long stream of independent FMAs: the unbounded-slot lower
        // machine alone would let them all issue at once; the FP-pipe
        // floor must keep the lower bound at roughly n / fp_width.
        let n = 200u64;
        let mut b = TraceBuilder::new();
        for _ in 0..n {
            b.fp(OpClass::FpFma, &[]);
        }
        let t = b.finish();
        let config = CoreConfig::mega_boom(); // 2 FPUs
        let bounds = trace_bounds(&config, &AccelModel::None, &t);
        assert!(bounds.lo >= n / 2, "lo {} too loose", bounds.lo);
        let mut null = NullAccelerator;
        let sim = simulate_with_accel(&config, &t, &mut null);
        assert!(bounds.contains(sim));
    }
}
