//! The serve workloads: closed-loop control ticks on `ServeRuntime`.
//!
//! One caller submits the next tick only when the previous one returns.
//! The measured phase repeats identical *episodes* until `--seconds` has
//! passed: each episode admits the plan afresh (`ServeRuntime::new`, the
//! set-up sample), runs untimed warm-up ticks, then times a fixed
//! number of ticks. Every episode of a run therefore does the same work
//! and must reproduce the same digest of simulated outcomes. Each timed
//! tick is taken at its fastest reading over the episodes, and the
//! metrics come from those ticks.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use soc_scenarios::{Scenario, ScenarioCatalog};
use soc_serve::loadgen::{serving_platforms, CohortSpec};
use soc_serve::{LoadPlan, ServeRuntime};

use crate::stats::{fastest, fastest_by_position, fnv1a, metric, peak_rss_mb, percentile};
use crate::trace::Tracer;
use crate::{setup_samples, Config, Outcome, Workload, WORKERS};

/// Untimed ticks at the start of every episode: freshly admitted sessions
/// start off their reference and take tens of ticks to converge, at up to
/// 6× the steady tick cost.
pub fn warmup_ticks(smoke: bool) -> usize {
    if smoke {
        3
    } else {
        50
    }
}

/// What the trace run's reconciliation needs from a serve run.
#[derive(Debug, Clone)]
pub struct Facts {
    pub plan: LoadPlan,
    /// Untimed warm-up ticks, then timed ticks, per episode.
    pub warmup: usize,
    pub ticks: usize,
    /// Wall time of every timed tick, at its fastest over the episodes.
    pub tick_ns: Vec<f64>,
}

/// The load plan. The seed drives admission perturbations and the burst
/// stream (through `ServeRuntime::new`), not the plan: cohort sizes are
/// fixed, because the multinomial draw of `plan_load` moved throughput by
/// ±30% between seeds. serve-mix leaves out `rendezvous`: a rendezvous
/// session admitted at a late reference phase (mostly 24 or more of the
/// 32 slots) never converges and runs 100 iterations every tick from its
/// first, ~25× a converged one. How many draw such a phase is binomial:
/// 84 rendezvous sessions (28 per platform) alone cost between 1.8 s and
/// 3.6 s per 250 ticks over seeds 1–10, and holding that within a few
/// percent would take about a thousand, 20–40 s per episode. The
/// per-layer probes still replay every rendezvous cohort.
pub fn plan(workload: Workload, smoke: bool) -> LoadPlan {
    let platforms = serving_platforms().len();
    let (scenarios, per_cohort) = match workload {
        // 18 cohorts (6 scenarios × 3 platforms) × 28 = 504 sessions.
        Workload::ServeMix => (
            ScenarioCatalog::standard()
                .into_scenarios()
                .into_iter()
                .filter(|s| s.name() != "rendezvous")
                .collect(),
            if smoke { 1 } else { 28 },
        ),
        // 3 double-integrator cohorts × 1000 = 3000 sessions.
        _ => (
            vec![Scenario::double_integrator()],
            if smoke { 4 } else { 1000 },
        ),
    };
    let cohorts = scenarios
        .iter()
        .flat_map(|scenario| {
            (0..platforms).map(move |platform| CohortSpec {
                scenario: scenario.clone(),
                platform,
                sessions: per_cohort,
            })
        })
        .collect();
    LoadPlan { cohorts }
}

/// Timed ticks per episode.
pub fn episode_ticks(workload: Workload, smoke: bool) -> usize {
    match (workload, smoke) {
        (_, true) => 4,
        (Workload::ServeMix, false) => 250,
        _ => 400,
    }
}

/// The digest of one episode's simulated outcomes: counters, rung
/// occupancy per cohort, and cycle percentiles. Identical for any worker
/// count and any host speed.
fn episode_digest(rt: &ServeRuntime) -> (u64, String) {
    let m = rt.metrics();
    let rungs = m.rung_snapshot();
    let mut text = format!(
        "session_ticks={} rungs={}/{}/{}/{} misses={} fallbacks={} aborted={} sim_p50={} sim_p99={}",
        m.session_ticks.load(Ordering::Relaxed),
        rungs[0],
        rungs[1],
        rungs[2],
        rungs[3],
        m.misses.load(Ordering::Relaxed),
        m.fallbacks.load(Ordering::Relaxed),
        m.aborted.load(Ordering::Relaxed),
        m.cycles.percentile(50.0),
        m.cycles.percentile(99.0),
    );
    let mut full = text.clone();
    for c in rt.cohorts() {
        full.push_str(&format!(" {:?}", c.occupancy()));
    }
    text.push_str(&format!(" capacity={}", rt.capacity()));
    (fnv1a(full.as_bytes()), text)
}

/// The correctness checks of one episode.
fn episode_problems(rt: &ServeRuntime, ticks: usize) -> Vec<String> {
    let m = rt.metrics();
    let session_ticks = m.session_ticks.load(Ordering::Relaxed);
    let expected = (rt.sessions() * ticks) as u64;
    let mut problems = Vec::new();
    if session_ticks != expected {
        problems.push(format!(
            "session_ticks {session_ticks} != sessions x ticks {expected}"
        ));
    }
    let aborted = m.aborted.load(Ordering::Relaxed);
    if aborted != 0 {
        problems.push(format!("{aborted} aborted session-ticks"));
    }
    let rungs: u64 = m.rung_snapshot().iter().sum();
    if rungs != session_ticks {
        problems.push(format!(
            "rung occupancy {rungs} != session_ticks {session_ticks}"
        ));
    }
    let cohorts: u64 = rt.cohorts().iter().flat_map(|c| c.occupancy()).sum();
    if cohorts != session_ticks {
        problems.push(format!(
            "cohort occupancy {cohorts} != session_ticks {session_ticks}"
        ));
    }
    problems
}

fn admit(plan: &LoadPlan, ticks: usize, seed: u64) -> Result<ServeRuntime, String> {
    ServeRuntime::new(plan, ticks, seed, WORKERS).map_err(|e| format!("admission failed: {e}"))
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let plan = plan(cfg.workload, cfg.smoke);
    let ticks = episode_ticks(cfg.workload, cfg.smoke);
    let warmup = warmup_ticks(cfg.smoke);
    let total_ticks = warmup + ticks;
    let sessions = plan.sessions();
    let budget = Duration::from_secs_f64(cfg.seconds);

    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    // Timed tick walls, one vector per episode.
    let mut episodes: Vec<Vec<f64>> = Vec::new();
    let mut first_digest: Option<u64> = None;
    let start = Instant::now();
    let min_episodes = if cfg.smoke { 1 } else { 3 };
    while episodes.len() < min_episodes || start.elapsed() < budget {
        let episode = episodes.len();
        tracer.set_run(episode as u32);
        let mut tick_ns = Vec::with_capacity(ticks);
        let rt = tracer.span("episode", || -> Result<ServeRuntime, String> {
            let admitted = Instant::now();
            let mut rt = tracer.span("admit", || admit(&plan, total_ticks, cfg.seed))?;
            setup_s.push(admitted.elapsed().as_secs_f64());
            for _ in 0..warmup {
                tracer.span("warmup_tick", || rt.run_tick());
            }
            for _ in 0..ticks {
                let t = Instant::now();
                tracer.span("tick", || rt.run_tick());
                tick_ns.push(t.elapsed().as_secs_f64() * 1e9);
            }
            Ok(rt)
        })?;
        episodes.push(tick_ns);
        let (digest, text) = episode_digest(&rt);
        if episode == 0 {
            outcome
                .notes
                .push(format!("episode digest fnv={digest:016x} {text}"));
        }
        if *first_digest.get_or_insert(digest) != digest {
            outcome.problems.push(format!(
                "episode {episode} digest {digest:016x} differs from episode 0"
            ));
        }
        for p in episode_problems(&rt, total_ticks) {
            outcome.problems.push(format!("episode {episode}: {p}"));
        }
        let m = rt.metrics();
        outcome.attempted += m.session_ticks.load(Ordering::Relaxed);
        outcome.failed += m.aborted.load(Ordering::Relaxed);
    }
    while setup_s.len() < setup_samples(cfg.workload, cfg.smoke) {
        let admitted = Instant::now();
        let rt = tracer.span("admit", || admit(&plan, total_ticks, cfg.seed))?;
        setup_s.push(admitted.elapsed().as_secs_f64());
        drop(rt);
    }
    let tick_ns = fastest_by_position(&episodes);
    let timed_s: f64 = tick_ns.iter().sum::<f64>() / 1e9;
    let tick_ms: Vec<f64> = tick_ns.iter().map(|n| n / 1e6).collect();
    outcome.notes.push(format!(
        "sessions={sessions} cohorts={} ticks/episode={ticks} after {warmup} warm-up; episodes={} (each tick at its fastest over them) setups={}",
        plan.cohorts.len(),
        episodes.len(),
        setup_s.len()
    ));
    outcome.end_to_end = vec![
        metric(
            "throughput_per_s",
            (sessions * tick_ns.len()) as f64 / timed_s,
            "1/s",
        ),
        metric("latency_p50_ms", percentile(&tick_ms, 50.0), "ms"),
        metric("latency_p90_ms", percentile(&tick_ms, 90.0), "ms"),
        metric("setup_s", fastest(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    outcome.serve = Some(Facts {
        plan,
        warmup,
        ticks,
        tick_ns,
    });
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_have_the_documented_shape() {
        let mix = plan(Workload::ServeMix, false);
        assert_eq!(mix.cohorts.len(), 18);
        assert_eq!(mix.sessions(), 504);
        assert!(mix
            .cohorts
            .iter()
            .all(|c| c.scenario.name() != "rendezvous"));
        let small = plan(Workload::ServeSmall, false);
        assert_eq!(small.cohorts.len(), 3);
        assert_eq!(small.sessions(), 3000);
        assert!(small
            .cohorts
            .iter()
            .all(|c| c.scenario.name() == "double-integrator"));
    }
}
