//! Executes a [`SweepSpec`] on a [`SweepEngine`] and renders the report.
//!
//! The report body is assembled purely from engine *results* (which are
//! bit-identical to the serial path) and deterministic cache accounting,
//! so `render()` is byte-identical for any `--jobs` value. Wall-clock
//! shard timing — the only scheduling-dependent observable — is kept in
//! [`render_timing`](SweepReport::render_timing), which callers print to
//! stderr.

use crate::engine::{EngineStats, FaultStats, SweepEngine};
use crate::pool::ShardStats;
use crate::spec::SweepSpec;
use soc_dse::experiments::{
    evaluate_closed_loop, pareto_frontier, speedup_heatmap_with, CycleSource, SolveRequest,
    SolveSummary,
};
use soc_dse::report::{heatmap_text, markdown_table};
use tinympc::SolverSettings;

/// The pricing tier of a sweep. Trace simulation is the only one.
///
/// Kept, with [`run_sweep_tiered`], because the frozen `soc-perf`
/// benchmark names both; a benchmark change drops them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepTier {
    /// Trace simulation prices every point.
    #[default]
    Trace,
}

/// The rendered outcome of one sweep pass.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Deterministic report body (tables, Pareto, heatmaps).
    pub body: String,
    /// Deterministic cache accounting for the pass.
    pub stats: EngineStats,
    /// Nondeterministic per-shard timing for the pass.
    pub shards: Vec<ShardStats>,
    /// Shard-pool width the pass ran with.
    pub jobs: usize,
    /// Work items that exhausted their retry budget and render as
    /// explicit `FAILED` rows in the body. Zero on a clean run —
    /// deterministic under seeded chaos injection, so the body stays
    /// byte-identical for any `--jobs`.
    pub failed_points: usize,
    /// Fault-recovery accounting for the pass (stderr only).
    pub faults: FaultStats,
}

impl SweepReport {
    /// Deterministic report: body + cache accounting. Byte-identical
    /// for every `--jobs` value given the same spec and cache state.
    pub fn render(&self) -> String {
        format!("{}{}\n", self.body, self.stats.render_line())
    }

    /// Per-shard wall-clock timing (scheduling-dependent; stderr only).
    pub fn render_timing(&self) -> String {
        let mut out = format!("jobs: {}\n", self.jobs);
        for s in &self.shards {
            out.push_str(&format!(
                "shard {:>2}: {:>4} items in {:>8.3} ms\n",
                s.shard,
                s.items,
                s.wall.as_secs_f64() * 1e3
            ));
        }
        out
    }
}

/// Runs every work item of `spec` through `engine` and assembles the
/// report. The engine's stats are reset at entry so the report accounts
/// for exactly this pass — a `--warm` second pass therefore shows the
/// warm hit rate, not a blend.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run_sweep(spec: &SweepSpec, engine: &SweepEngine) -> tinympc::Result<SweepReport> {
    // All end-to-end solves of the whole spec go down as ONE batch so
    // the shard pool can balance across horizons and platforms.
    let requests: Vec<SolveRequest> = spec
        .horizons
        .iter()
        .flat_map(|&horizon| {
            spec.platforms
                .iter()
                .map(move |p| SolveRequest::new(p.clone(), spec.scenario.clone(), horizon))
        })
        .collect();

    engine.reset_stats();
    let mut body = format!(
        "# sweep: {}\n\nworkload: {} - {}\n\n",
        spec.label,
        spec.scenario.name(),
        spec.scenario.title()
    );
    // Every slot is either a summary, an isolated shard failure (which
    // renders as an explicit FAILED row — the partial sweep still
    // completes), or a genuine solver error (which propagates).
    let mut summaries: Vec<Option<SolveSummary>> = Vec::with_capacity(requests.len());
    let mut failed_points = 0usize;
    for slot in engine.solve_batch(&requests) {
        match slot {
            Ok(summary) => summaries.push(Some(summary)),
            Err(tinympc::Error::ShardFailed { .. }) => {
                failed_points += 1;
                summaries.push(None);
            }
            Err(e) => return Err(e),
        }
    }
    let mut summaries_iter = summaries.iter();

    for &horizon in &spec.horizons {
        let mut rows: Vec<(String, f64, Option<u64>)> = Vec::with_capacity(spec.platforms.len());
        for platform in &spec.platforms {
            let summary = summaries_iter.next().expect("one summary per request");
            rows.push((
                platform.name.clone(),
                platform.area().total(),
                summary.as_ref().map(|s| s.total_cycles),
            ));
        }

        body.push_str(&format!("## Table I @ horizon {horizon}\n\n"));
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|(name, area, cycles)| match cycles {
                Some(cycles) => vec![
                    name.clone(),
                    format!("{area:.0}"),
                    cycles.to_string(),
                    format!("{:.0}", 1.0e9 / (*cycles).max(1) as f64),
                ],
                None => vec![
                    name.clone(),
                    format!("{area:.0}"),
                    "FAILED".to_string(),
                    "-".to_string(),
                ],
            })
            .collect();
        body.push_str(&markdown_table(
            &[
                "configuration",
                "area (um^2)",
                "cycles/solve",
                "MPC Hz @1GHz",
            ],
            &table,
        ));

        body.push_str(&format!("\n## Pareto frontier @ horizon {horizon}\n\n"));
        let mut by_area: Vec<&(String, f64, Option<u64>)> = rows.iter().collect();
        by_area.sort_by(|a, b| a.1.total_cmp(&b.1));
        // Failed points are listed (marked `!`) but cannot join the
        // frontier: their cycle count is unknown.
        let priced: Vec<&(String, f64, Option<u64>)> = by_area
            .iter()
            .copied()
            .filter(|(_, _, c)| c.is_some())
            .collect();
        let frontier = pareto_frontier(
            &priced
                .iter()
                .map(|(_, area, cycles)| (*area, cycles.unwrap_or(u64::MAX) as f64))
                .collect::<Vec<_>>(),
        );
        let mut on_frontier = priced.iter().zip(frontier);
        for (name, area, cycles) in &by_area {
            match cycles {
                Some(cycles) => {
                    let on = on_frontier.next().map(|(_, on)| on).unwrap_or(false);
                    body.push_str(&format!(
                        "{}{name:<24} {:>8.3} mm^2 {cycles:>10} cycles\n",
                        if on { "* " } else { "  " },
                        area / 1e6
                    ));
                }
                None => {
                    body.push_str(&format!(
                        "! {name:<24} {:>8.3} mm^2     FAILED\n",
                        area / 1e6
                    ));
                }
            }
        }
        body.push('\n');

        // Closed-loop quality is a property of the scenario × horizon
        // pair alone (executors are timing oracles: every back-end
        // computes bit-identical f32 math), so it is evaluated once
        // here — serially, deterministically — and holds for the whole
        // back-end grid above.
        body.push_str(&format!("## Closed-loop tracking @ horizon {horizon}\n\n"));
        let cl = evaluate_closed_loop::<f32>(&spec.scenario, horizon, SolverSettings::default())?;
        body.push_str(&format!(
            "{}: {} rollout steps, tracking error RMS/max {:.4} / {:.4}, \
             final {:.4}, {}/{} solves converged, {:.1} mean ADMM iters\n",
            spec.scenario.name(),
            cl.steps,
            cl.rms_error,
            cl.max_error,
            cl.final_error,
            cl.converged_steps,
            cl.steps,
            cl.mean_iterations
        ));
        if let Some(margin) = cl.min_cone_margin {
            body.push_str(&format!(
                "min SOC feasibility margin of applied u0: {margin:.4}\n"
            ));
        }
        body.push('\n');
    }

    for hm in &spec.heatmaps {
        let heat = speedup_heatmap_with(
            engine,
            &hm.numerator,
            &hm.denominator,
            hm.shape,
            hm.residency,
            &hm.heights,
            &hm.widths,
        );
        body.push_str(&format!("## {}\n\n", hm.title));
        let text = heatmap_text("", &heat.heights, &heat.widths, &heat.values);
        body.push_str(text.trim_start_matches('\n'));
        body.push('\n');
    }

    Ok(SweepReport {
        body,
        stats: engine.stats(),
        shards: engine.shard_stats(),
        jobs: engine.jobs(),
        failed_points,
        faults: engine.fault_stats(),
    })
}

/// [`run_sweep`] under a [`SweepTier`]. Kept because the frozen
/// `soc-perf` benchmark calls it; a benchmark change drops it.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run_sweep_tiered(
    spec: &SweepSpec,
    engine: &SweepEngine,
    _tier: SweepTier,
) -> tinympc::Result<SweepReport> {
    run_sweep(spec, engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_byte_identical_across_job_counts() {
        let spec = SweepSpec::smoke();
        let reference = run_sweep(&spec, &SweepEngine::in_memory(1))
            .unwrap()
            .render();
        assert!(reference.contains("# sweep: smoke"));
        assert!(reference.contains("Pareto frontier"));
        assert!(reference.contains("hit rate 0.0%"), "{reference}");
        for jobs in [4, 16] {
            let report = run_sweep(&spec, &SweepEngine::in_memory(jobs)).unwrap();
            assert_eq!(report.render(), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn warm_pass_reports_full_hit_rate() {
        let spec = SweepSpec::smoke();
        let engine = SweepEngine::in_memory(4);
        let cold = run_sweep(&spec, &engine).unwrap();
        let warm = run_sweep(&spec, &engine).unwrap();
        assert_eq!(cold.body, warm.body, "results identical when warm");
        assert_eq!(warm.stats.misses, 0, "zero regenerations");
        assert!((warm.stats.hit_rate_percent() - 100.0).abs() < 1e-12);
        assert!(warm.render().contains("hit rate 100.0%"));
    }

    #[test]
    fn recovered_chaos_run_is_byte_identical_to_clean() {
        use crate::engine::{ChaosAction, ChaosCtx, ChaosHook};
        use std::sync::Arc;
        let spec = SweepSpec::smoke();
        let reference = run_sweep(&spec, &SweepEngine::in_memory(1))
            .unwrap()
            .render();
        for jobs in [1, 4] {
            // Strike the first attempt of every third work item: each
            // strike panics once, the retry recovers it.
            let hook: ChaosHook = Arc::new(|ctx: &ChaosCtx| {
                (ctx.attempt == 1 && ctx.item.is_multiple_of(3))
                    .then(|| ChaosAction::Panic("chaos: injected worker panic".into()))
            });
            let engine = SweepEngine::in_memory(jobs).with_chaos(hook);
            let report = run_sweep(&spec, &engine).unwrap();
            assert_eq!(report.render(), reference, "jobs={jobs}");
            assert_eq!(report.failed_points, 0);
            assert!(report.faults.retries > 0, "strikes actually happened");
        }
    }

    #[test]
    fn exhausted_item_renders_a_failed_row_and_the_sweep_completes() {
        use crate::engine::{ChaosAction, ChaosCtx, ChaosHook};
        use std::sync::Arc;
        let spec = SweepSpec::smoke();
        // Work item 0 of the solve batch (batch 0) fails every attempt.
        let hook: ChaosHook = Arc::new(|ctx: &ChaosCtx| {
            (ctx.batch == 0 && ctx.item == 0)
                .then(|| ChaosAction::Panic("chaos: persistent fault".into()))
        });
        let render = |jobs| {
            let engine = SweepEngine::in_memory(jobs).with_chaos(hook.clone());
            let report = run_sweep(&spec, &engine).unwrap();
            assert_eq!(report.failed_points, 1, "jobs={jobs}");
            assert_eq!(report.faults.failed_items, 1);
            report.render()
        };
        let reference = render(1);
        assert!(reference.contains("FAILED"), "{reference}");
        assert!(reference.contains("! "), "failed Pareto row marked");
        for jobs in [4, 16] {
            assert_eq!(render(jobs), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn timing_goes_to_the_timing_channel_only() {
        let spec = SweepSpec::smoke();
        let engine = SweepEngine::in_memory(2);
        let report = run_sweep(&spec, &engine).unwrap();
        assert!(report.render_timing().starts_with("jobs: 2"));
        assert!(!report.render().contains("ms"), "no wall time in the body");
    }
}
