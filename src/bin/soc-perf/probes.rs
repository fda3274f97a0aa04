//! The per-layer probes of a trace run.
//!
//! Each probe measures one layer serially, on the driving thread, with
//! inputs drawn from the run's seed, and records a span around the calls
//! it makes: matlib kernels, ADMM iterations, `CohortModel::build`,
//! `Session::tick`, `DeadlineSolver::solve_in_place_at_rung`,
//! `AdmmSolver::solve_in_place`, the tick executor, back-end lowering and
//! simulation, the sweep engine's cache tiers, and a warm sweep taken
//! apart into the calls `run_sweep_tiered` makes. Every trace run, of any
//! workload, reports the same per-layer metrics, followed by the
//! reconciliation lines that check the layers add up.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use matlib::rng::SplitMix64;
use matlib::Matrix;
use soc_backend::{pipeline_for, priced_for, Platform};
use soc_cpu::CoreConfig;
use soc_dse::experiments::{
    evaluate_closed_loop, solve_scenario_summary, speedup_heatmap_with, CycleSource, SolveRequest,
};
use soc_faults::{DeadlineConfig, DeadlineSolver, DegradeRung};
use soc_gemmini::{GemminiConfig, GemminiOpts};
use soc_scenarios::{Scenario, ScenarioCatalog};
use soc_serve::loadgen::{control_hz, serving_platforms};
use soc_serve::session::{CLOCK_HZ, PHASE_SLOTS};
use soc_serve::{CachedCosts, CohortModel, ServeRuntime};
use soc_sweep::{
    run_sweep_tiered, BatchJob, RetryPolicy, ShardFailure, SweepEngine, SweepTier, TickExecutor,
};
use soc_vector::SaturnConfig;
use tinympc::{AdmmSolver, KernelId, ProblemDims, SolverSettings, WsField};

use crate::serve::{self, warmup_ticks, Facts};
use crate::stats::{
    fastest, fastest_by_position, mean, metric, ms, ns, ns_per_call, percentile, Metric,
};
use crate::trace::Tracer;
use crate::{dse, Config, Workload, WORKERS};

/// Iterations of the long solve in the fixed-plus-per-iteration fit.
const FIT_ITERATIONS: usize = 16;

/// Timed batches of each solve length in the fit.
const FIT_BATCHES: usize = 8;

/// How often a serve replay runs the same session's ticks; every tick is
/// taken at its fastest.
const REPLAYS: usize = 5;

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn err(what: &str) -> impl Fn(tinympc::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Dims label of a scenario's plant, e.g. `12x4`.
fn dims_label(scenario: &Scenario) -> String {
    let (nx, nu) = scenario.dims();
    format!("{nx}x{nu}")
}

/// The catalog scenario whose plant each fit and plant probe uses.
fn fit_scenarios() -> [(&'static str, Scenario); 3] {
    [
        ("12x4", Scenario::figure8()),
        ("6x3", Scenario::rendezvous()),
        ("2x1", Scenario::double_integrator()),
    ]
}

/// The fixed and per-iteration cost of `AdmmSolver::solve_in_place`.
#[derive(Debug, Clone, Copy)]
struct Fit {
    fixed_ns: f64,
    iter_ns: f64,
}

/// What one session's ticks read besides the cohort model — its admitted
/// state, its reference phase, the cohort's reference length — and how
/// many ticks to replay, the first `warmup` untimed.
struct RungWindow {
    x0: Vec<f32>,
    phase: usize,
    knots: usize,
    warmup: usize,
    steps: usize,
}

/// The reference phase `CohortModel::new_session` draws after its two
/// perturbation draws per state entry, recovered from a copy of the
/// generator so the rung replay streams the session's exact window. If
/// the session code draws differently, the replayed iteration counts stop
/// matching and the trace run fails.
fn session_phase(mut rng: SplitMix64, nx: usize) -> usize {
    for _ in 0..2 * nx {
        rng.unit_f64();
    }
    rng.range_usize(0, PHASE_SLOTS - 1)
}

/// Host cost of one serve cohort's tick, replayed serially.
#[derive(Debug, Clone, Default)]
struct CohortReplay {
    session_tick_ns: Vec<f64>,
    session_iterations: Vec<f64>,
    rung_solve_ns: Vec<f64>,
    rung_iterations: Vec<f64>,
    stream_plant_ns: Vec<f64>,
}

struct Probes<'a> {
    cfg: &'a Config,
    tracer: &'a Tracer,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    /// Failed checks: they make the trace run fail.
    problems: Vec<String>,
}

/// What the probes give a trace run: per-layer metrics, the lines printed
/// before them, and failed checks.
pub type ProbeResults = (Vec<Metric>, Vec<String>, Vec<String>);

pub fn run(cfg: &Config, tracer: &Tracer, serve: Option<&Facts>) -> Result<ProbeResults, String> {
    let mut p = Probes {
        cfg,
        tracer,
        metrics: Vec::new(),
        notes: Vec::new(),
        problems: Vec::new(),
    };
    // First, while this process has never priced horizon 9.
    let solve_summary = p.solve_summary()?;
    p.gemv();
    let fits = p.solver_fit()?;
    let probe_facts;
    let facts = match serve {
        Some(facts) => facts,
        None => {
            probe_facts = p.probe_runtime()?;
            &probe_facts
        }
    };
    let replays = p.serve_replays(facts.warmup, facts.ticks)?;
    p.late_rendezvous(facts.warmup, facts.ticks)?;
    p.reconcile_ticks(&replays, &fits, facts, serve.is_some())?;
    p.executor();
    p.backend()?;
    p.metrics.extend(solve_summary);
    p.engine_tiers()?;
    p.sweep_decomposition()?;
    Ok((p.metrics, p.notes, p.problems))
}

impl Probes<'_> {
    fn smoke(&self) -> bool {
        self.cfg.smoke
    }

    fn replays(&self) -> usize {
        if self.smoke() {
            1
        } else {
            REPLAYS
        }
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    fn rng(&self, salt: u64) -> SplitMix64 {
        SplitMix64::new(self.cfg.seed ^ salt)
    }

    /// `matlib::gemv_into` at every plant shape the serve path uses.
    fn gemv(&mut self) {
        let mut rng = self.rng(0x6E3F);
        let (batches, calls) = if self.smoke() { (1, 50) } else { (7, 20_000) };
        for (rows, cols) in [(12, 12), (12, 4), (6, 6), (6, 3), (2, 2), (2, 1)] {
            let a = Matrix::<f32>::from_fn(rows, cols, |_, _| rng.unit_f64() as f32 - 0.5);
            let x: Vec<f32> = (0..cols).map(|_| rng.unit_f64() as f32).collect();
            let mut y = vec![0.0f32; rows];
            let per_call = self.tracer.span("matlib.gemv", || {
                ns_per_call(batches, calls, || {
                    let _ = matlib::gemv_into(black_box(&a), black_box(&x), black_box(&mut y));
                })
            });
            self.push(format!("matlib.gemv_ns.{rows}x{cols}"), per_call, "ns");
        }
    }

    /// Fits `fixed + iterations × per-iteration` to the time of
    /// `AdmmSolver::solve_in_place` at 1 and at 16 iterations, with the
    /// tolerance at 0 so both run exactly that many iterations.
    fn solver_fit(&mut self) -> Result<BTreeMap<String, Fit>, String> {
        let mut fits = BTreeMap::new();
        for (label, scenario) in fit_scenarios() {
            let calls = match (self.smoke(), label) {
                (true, _) => 5,
                (false, "12x4") => 300,
                (false, "6x3") => 1_000,
                (false, _) => 5_000,
            };
            let horizon = scenario.default_horizon();
            let x0 = scenario.initial_state::<f32>();
            let build = |iterations: usize| -> Result<_, String> {
                let settings = SolverSettings {
                    max_iterations: iterations,
                    tolerance: 0.0,
                    ..SolverSettings::default()
                };
                let problem = scenario.problem::<f32>(horizon).map_err(err("problem"))?;
                let mut solver = AdmmSolver::new(problem, settings).map_err(err("solver"))?;
                solver
                    .set_reference(&scenario.reference::<f32>(horizon, 0))
                    .map_err(err("reference"))?;
                let costs = CachedCosts::price(&Platform::rocket_eigen(), solver.dims())
                    .map_err(err("pricing"))?;
                Ok((solver, costs, iterations, Vec::new()))
            };
            let mut sides = [build(1)?, build(FIT_ITERATIONS)?];
            let mut failure = None;
            // Batches of the two lengths alternate, so both see the same
            // host speed; each length is taken at its fastest batch, which
            // also leaves out the first, cache-warming one.
            self.tracer.span("admm_solve", || {
                for _ in 0..FIT_BATCHES {
                    for (solver, costs, iterations, per_call) in &mut sides {
                        let (_, took) = timed(|| {
                            for _ in 0..calls {
                                match solver.solve_in_place(black_box(x0.as_slice()), costs) {
                                    Ok(status) if status.iterations == *iterations => {}
                                    Ok(status) => {
                                        failure = Some(format!("{} iterations", status.iterations))
                                    }
                                    Err(e) => failure = Some(e.to_string()),
                                }
                            }
                        });
                        per_call.push(ns(took) / calls as f64);
                    }
                }
            });
            if let Some(f) = failure {
                return Err(format!("solver fit at {label}: {f}"));
            }
            let [one, long] = sides.map(|side| fastest(&side.3));
            let iter_ns = (long - one) / (FIT_ITERATIONS - 1) as f64;
            let fit = Fit {
                fixed_ns: one - iter_ns,
                iter_ns,
            };
            fits.insert(label.to_string(), fit);
        }
        for (label, _) in fit_scenarios() {
            self.push(
                format!("tinympc.iter_ns.{label}"),
                fits[label].iter_ns,
                "ns",
            );
        }
        for (label, _) in fit_scenarios() {
            self.push(
                format!("tinympc.fixed_ns.{label}"),
                fits[label].fixed_ns,
                "ns",
            );
        }
        Ok(fits)
    }

    /// Replays every (scenario, serving platform) cohort serially: the
    /// cohort build, session clones, `Session::tick` at the baseline rung,
    /// and the same tick taken apart — reference streaming, the
    /// `solve_in_place_at_rung` call, and the plant step. Each replayed
    /// tick is taken at its fastest over [`REPLAYS`] replays.
    fn serve_replays(
        &mut self,
        warmup: usize,
        ticks: usize,
    ) -> Result<BTreeMap<(String, usize), CohortReplay>, String> {
        let clones = if self.smoke() { 2 } else { 8 };
        let platforms = serving_platforms();
        let mut build_ms = Vec::new();
        let mut clone_us = Vec::new();
        let mut replays = BTreeMap::new();
        for (s, scenario) in ScenarioCatalog::standard().scenarios().iter().enumerate() {
            for (p, platform) in platforms.iter().enumerate() {
                let mut rng = self.rng(0x5E55 + (s * platforms.len() + p) as u64);
                let mut replay = CohortReplay::default();
                let horizon = scenario.default_horizon();
                let (model, built) = timed(|| {
                    self.tracer.span("cohort_build", || {
                        CohortModel::build(
                            scenario,
                            platform,
                            horizon,
                            warmup + ticks,
                            control_hz(scenario),
                        )
                    })
                });
                let model = model.map_err(err("cohort build"))?;
                build_ms.push(ms(built));
                let mut admit = || {
                    let drawn = rng;
                    let (session, took) = timed(|| model.new_session(&mut rng));
                    clone_us.push(ns(took) / 1e3);
                    (session, drawn)
                };
                for _ in 1..clones {
                    drop(admit());
                }
                let (session, drawn) = admit();
                let x0 = session.state().to_vec();
                (replay.session_tick_ns, replay.session_iterations) =
                    self.tracer.span("session_tick", || {
                        self.replay_session(&model, drawn, warmup, ticks)
                    });
                let window = RungWindow {
                    x0,
                    phase: session_phase(drawn, scenario.dims().0),
                    knots: warmup + ticks + horizon + PHASE_SLOTS,
                    warmup,
                    steps: warmup + ticks,
                };
                self.rung_replay(scenario, platform, &window, &mut replay)?;
                replays.insert((scenario.name().to_string(), p), replay);
            }
        }
        self.push(
            "serve.cohort_build_ms.p50",
            percentile(&build_ms, 50.0),
            "ms",
        );
        self.push(
            "serve.session_clone_us.p50",
            percentile(&clone_us, 50.0),
            "us",
        );

        let catalog = ScenarioCatalog::standard();
        let pooled = |name: &str, field: fn(&CohortReplay) -> &Vec<f64>| -> Vec<f64> {
            replays
                .iter()
                .filter(|((s, _), _)| s == name)
                .flat_map(|(_, r)| field(r).iter().copied())
                .collect()
        };
        for scenario in catalog.scenarios() {
            let name = scenario.name();
            let iterations = pooled(name, |r| &r.session_iterations);
            self.push(
                format!("tinympc.iterations.{name}.mean"),
                mean(&iterations),
                "count",
            );
        }
        for scenario in catalog.scenarios() {
            let name = scenario.name();
            let ticks = pooled(name, |r| &r.session_tick_ns);
            self.push(
                format!("serve.session_tick_ns.{name}.p50"),
                percentile(&ticks, 50.0),
                "ns",
            );
            self.push(
                format!("serve.session_tick_ns.{name}.p90"),
                percentile(&ticks, 90.0),
                "ns",
            );
        }
        for scenario in catalog.scenarios() {
            let name = scenario.name();
            let solves = pooled(name, |r| &r.rung_solve_ns);
            self.push(
                format!("faults.rung_solve_ns.{name}.p50"),
                percentile(&solves, 50.0),
                "ns",
            );
        }
        for (label, _) in fit_scenarios() {
            let samples: Vec<f64> = catalog
                .scenarios()
                .iter()
                .filter(|s| dims_label(s) == label)
                .flat_map(|s| pooled(s.name(), |r| &r.stream_plant_ns))
                .collect();
            self.push(
                format!("serve.stream_plant_ns.{label}"),
                percentile(&samples, 50.0),
                "ns",
            );
        }
        Ok(replays)
    }

    /// `Session::tick` at the baseline rung of the session that `drawn`
    /// admits, replayed [`REPLAYS`] times: every timed tick at its
    /// fastest, and the iterations of every timed tick.
    fn replay_session(
        &self,
        model: &CohortModel,
        drawn: SplitMix64,
        warmup: usize,
        ticks: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let rung = model.baseline();
        let mut tick_ns = Vec::new();
        let mut iterations = Vec::with_capacity(ticks);
        for _ in 0..self.replays() {
            // The same draws admit the same session again.
            let mut same = drawn;
            let mut session = model.new_session(&mut same);
            let mut took_ns = Vec::with_capacity(ticks);
            iterations.clear();
            for step in 0..warmup + ticks {
                let (status, took) = timed(|| session.tick(model, step, rung));
                if step >= warmup {
                    took_ns.push(ns(took));
                    iterations.push(status.iterations as f64);
                }
            }
            tick_ns.push(took_ns);
        }
        (fastest_by_position(&tick_ns), iterations)
    }

    /// One rendezvous session admitted at one of the two latest reference
    /// phases, where sessions stop converging (README, "Known problems").
    /// No end-to-end workload carries such sessions; a fix for them moves
    /// these two numbers.
    fn late_rendezvous(&mut self, warmup: usize, ticks: usize) -> Result<(), String> {
        let scenario = Scenario::rendezvous();
        let model = CohortModel::build(
            &scenario,
            &serving_platforms()[0],
            scenario.default_horizon(),
            warmup + ticks,
            control_hz(&scenario),
        )
        .map_err(err("cohort build"))?;
        let mut rng = self.rng(0x1A7E);
        let drawn = loop {
            let drawn = rng;
            drop(model.new_session(&mut rng));
            if session_phase(drawn, scenario.dims().0) >= PHASE_SLOTS - 2 {
                break drawn;
            }
        };
        let (tick_ns, iterations) = self.tracer.span("late_session_tick", || {
            self.replay_session(&model, drawn, warmup, ticks)
        });
        self.push(
            "serve.session_tick_ns.rendezvous-late.p50",
            percentile(&tick_ns, 50.0),
            "ns",
        );
        self.push(
            "tinympc.iterations.rendezvous-late.mean",
            mean(&iterations),
            "count",
        );
        Ok(())
    }

    /// One session's ticks rebuilt from their parts, the way
    /// `Session::tick` does them — stream the reference window, call
    /// `solve_in_place_at_rung`, step the plant — with the solve timed on
    /// its own, each step at its fastest over the replays. Same inputs, so
    /// the same iteration counts.
    fn rung_replay(
        &self,
        scenario: &Scenario,
        platform: &Platform,
        window: &RungWindow,
        replay: &mut CohortReplay,
    ) -> Result<(), String> {
        let horizon = scenario.default_horizon();
        let problem = scenario.problem::<f32>(horizon).map_err(err("problem"))?;
        let (a, b) = (problem.a.clone(), problem.b.clone());
        let dims = problem.dims();
        let solver = AdmmSolver::new(problem, SolverSettings::default()).map_err(err("solver"))?;
        let config = DeadlineConfig::from_rates(control_hz(scenario), CLOCK_HZ);
        let mut prototype = DeadlineSolver::new(solver, config);
        let mut priced = CachedCosts::price(platform, dims).map_err(err("pricing"))?;
        let rung = prototype
            .rung_costs(&mut priced)
            .map_err(err("rung costs"))?
            .mildest_within(config.cycle_budget);
        let knots: Vec<Vec<f32>> = (0..window.knots)
            .map(|t| scenario.reference::<f32>(1, t)[0].as_slice().to_vec())
            .collect();
        let (mut ax, mut bu, mut u) = (vec![0.0; dims.nx], vec![0.0; dims.nx], vec![0.0; dims.nu]);
        let (mut solve_ns, mut stream_ns) = (Vec::new(), Vec::new());
        self.tracer.span("rung_solve", || -> Result<(), String> {
            for _ in 0..self.replays() {
                let (mut solver, mut costs) = (prototype.clone(), priced);
                let mut x = window.x0.clone();
                let (mut solve_took, mut stream_took) = (Vec::new(), Vec::new());
                replay.rung_iterations.clear();
                for step in 0..window.steps {
                    let stream = Instant::now();
                    let start = (step + window.phase).min(window.knots - horizon);
                    let ws = solver.solver_mut().workspace_mut();
                    for (i, knot) in knots[start..start + horizon].iter().enumerate() {
                        ws.knot_mut(WsField::XRef, i).copy_from_slice(knot);
                    }
                    let solve = Instant::now();
                    let status = solver.solve_in_place_at_rung(&x, &mut costs, rung);
                    let plant = Instant::now();
                    if status.rung == DegradeRung::LqrFallback {
                        solver.lqr_u0_into(&x, &mut u);
                    } else {
                        u.copy_from_slice(solver.solver().u0());
                    }
                    matlib::gemv_into(&a, &x, &mut ax).map_err(|e| e.to_string())?;
                    matlib::gemv_into(&b, &u, &mut bu).map_err(|e| e.to_string())?;
                    matlib::add_into(&ax, &bu, &mut x).map_err(|e| e.to_string())?;
                    if step >= window.warmup {
                        solve_took.push(ns(plant - solve));
                        replay.rung_iterations.push(status.iterations as f64);
                        stream_took.push(ns(solve - stream) + ns(plant.elapsed()));
                    }
                }
                solve_ns.push(solve_took);
                stream_ns.push(stream_took);
            }
            Ok(())
        })?;
        replay.rung_solve_ns = fastest_by_position(&solve_ns);
        replay.stream_plant_ns = fastest_by_position(&stream_ns);
        Ok(())
    }

    /// Reconciles a serve tick against the layers beneath it and prints
    /// how the gap between a one-iteration solve and a session-tick
    /// splits into extra iterations, tick plumbing and runtime overhead.
    fn reconcile_ticks(
        &mut self,
        replays: &BTreeMap<(String, usize), CohortReplay>,
        fits: &BTreeMap<String, Fit>,
        facts: &Facts,
        own_runtime: bool,
    ) -> Result<(), String> {
        // Session-weighted sums over the admitted cohorts, per session-tick.
        let (mut sessions, mut tick, mut solve, mut stream) = (0.0, 0.0, 0.0, 0.0);
        let (mut one_iteration, mut extra_iterations) = (0.0, 0.0);
        for c in &facts.plan.cohorts {
            let name = c.scenario.name();
            let replay = replays
                .get(&(name.to_string(), c.platform))
                .ok_or(format!("no replay of cohort {name} / {}", c.platform))?;
            let fit = fits
                .get(&dims_label(&c.scenario))
                .ok_or(format!("no solver fit for {name}"))?;
            let n = c.sessions as f64;
            let iterations = mean(&replay.rung_iterations);
            sessions += n;
            tick += n * mean(&replay.session_tick_ns);
            solve += n * mean(&replay.rung_solve_ns);
            stream += n * mean(&replay.stream_plant_ns);
            one_iteration += n * (fit.fixed_ns + fit.iter_ns);
            // An LQR-rung tick runs no iteration: it counts as -1 extra.
            extra_iterations += n * fit.iter_ns * (iterations - 1.0);
        }
        let predicted = one_iteration + extra_iterations;
        let matching = replays
            .values()
            .filter(|r| r.session_iterations == r.rung_iterations)
            .count();
        self.notes.push(format!(
            "replayed cohorts whose rebuilt ticks match Session::tick iteration for iteration: {matching}/{}",
            replays.len()
        ));
        // The rung replay copies how `Session::tick` and `new_session`
        // work; once they change, its timings describe other work.
        if matching != replays.len() {
            self.problems.push(format!(
                "rebuilt serve ticks diverge from Session::tick in {} of {} cohorts",
                replays.len() - matching,
                replays.len()
            ));
        }
        let worker_ns = facts.tick_ns.iter().sum::<f64>() * WORKERS as f64;
        let replayed_ns = tick * facts.tick_ns.len() as f64;
        let runtime_pct = 100.0 * (worker_ns - replayed_ns) / worker_ns;
        let session_pct = 100.0 * (tick - solve - stream) / tick;
        let fit_pct = 100.0 * (solve - predicted) / solve;
        self.push("serve.residual_runtime_pct", runtime_pct, "%");
        self.push("reconcile.session_vs_rung_pct", session_pct, "%");
        self.push("reconcile.solve_vs_fit_pct", fit_pct, "%");

        let per = |x: f64| x / sessions / 1e3;
        let runtime_us = worker_ns / facts.tick_ns.len() as f64 / sessions / 1e3;
        let source = if own_runtime {
            "this run"
        } else {
            "a probe runtime"
        };
        self.notes.push(format!(
            "reconcile tick ({source}, {} cohorts, {} sessions): {WORKERS} workers x {:.3} ms of tick wall = {:.3} ms vs {:.3} ms of replayed session-ticks at the baseline rung: residual {runtime_pct:.1}%",
            facts.plan.cohorts.len(),
            sessions,
            facts.tick_ns.iter().sum::<f64>() / 1e6,
            worker_ns / 1e6,
            replayed_ns / 1e6,
        ));
        self.notes.push(format!(
            "reconcile session-tick: {:.3} us vs rung solve {:.3} us + stream/plant {:.3} us: residual {session_pct:.1}%",
            per(tick),
            per(solve),
            per(stream),
        ));
        self.notes.push(format!(
            "reconcile solve: {:.3} us vs fixed + per-iteration x iterations = {:.3} us: residual {fit_pct:.1}%",
            per(solve),
            per(predicted),
        ));
        self.notes.push(format!(
            "gap per session-tick: runtime {runtime_us:.3} us = 1-iteration solve {:.3} + extra iterations {:.3} + fit residual {:.3} + stream/plant {:.3} + session residual {:.3} + runtime residual {:.3} us",
            per(one_iteration),
            per(extra_iterations),
            per(solve - predicted),
            per(stream),
            per(tick - solve - stream),
            runtime_us - per(tick),
        ));
        Ok(())
    }

    /// A serve-mix runtime of 100 timed ticks, for trace runs of
    /// workloads that have no serve runtime of their own.
    fn probe_runtime(&self) -> Result<Facts, String> {
        let ticks = if self.smoke() { 4 } else { 100 };
        let warmup = warmup_ticks(self.smoke());
        let plan = serve::plan(Workload::ServeMix, self.smoke());
        let mut rt = self
            .tracer
            .span("admit", || {
                ServeRuntime::new(&plan, warmup + ticks, self.cfg.seed, WORKERS)
            })
            .map_err(err("probe admission"))?;
        let mut tick_ns = Vec::with_capacity(ticks);
        self.tracer.span("probe_runtime", || {
            for t in 0..warmup + ticks {
                let (_, took) = timed(|| rt.run_tick());
                if t >= warmup {
                    tick_ns.push(ns(took));
                }
            }
        });
        Ok(Facts {
            plan,
            warmup,
            ticks,
            tick_ns,
        })
    }

    /// The persistent executor's cost per item and per empty submit.
    fn executor(&mut self) {
        struct Noop(usize);
        impl BatchJob for Noop {
            fn items(&self) -> usize {
                self.0
            }
            fn run(&self, item: usize, _attempt: u32) {
                black_box(item);
            }
            fn fail(&self, _failure: ShardFailure) {}
        }
        let items = if self.smoke() { 1_000 } else { 20_000 };
        let executor = TickExecutor::new(WORKERS);
        let full: Arc<dyn BatchJob> = Arc::new(Noop(items));
        let empty: Arc<dyn BatchJob> = Arc::new(Noop(0));
        let policy = RetryPolicy::default();
        let (batches, submits) = if self.smoke() { (1, 10) } else { (9, 200) };
        let (batch_ns, empty_ns) = self.tracer.span("executor", || {
            (
                ns_per_call(batches, 4, || {
                    executor.submit(&full, policy);
                }),
                ns_per_call(batches, submits, || {
                    executor.submit(&empty, policy);
                }),
            )
        });
        self.push(
            "sweep.exec_ns_per_item",
            (batch_ns - empty_ns) / items as f64,
            "ns",
        );
        self.push("sweep.exec_submit_us", empty_ns / 1e3, "us");
    }

    /// Lowering and simulation of all 15 kernels at 12x4, horizon 10, on
    /// one platform per back-end family, plus an interned pricing hit.
    fn backend(&mut self) -> Result<(), String> {
        let dims = ProblemDims {
            nx: 12,
            nu: 4,
            horizon: 10,
        };
        let families = [
            ("scalar", Platform::rocket_eigen()),
            (
                "saturn",
                Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d256()),
            ),
            (
                "gemmini",
                Platform::gemmini(
                    CoreConfig::rocket(),
                    GemminiConfig::os_4x4_32kb(),
                    GemminiOpts::optimized(),
                ),
            ),
        ];
        let reps = if self.smoke() { 1 } else { 5 };
        let mut rows = Vec::new();
        for (family, platform) in &families {
            let pipeline = pipeline_for(platform);
            let (mut lower, mut simulate, mut uops) = (Vec::new(), Vec::new(), 0usize);
            self.tracer.span(&format!("backend.{family}"), || {
                for _ in 0..reps {
                    let (mut l, mut s) = (0.0, 0.0);
                    uops = 0;
                    for kernel in KernelId::ALL {
                        let ((trace, _mark), took) = timed(|| pipeline.timed_trace(kernel, &dims));
                        l += ns(took);
                        let (cycles, took) = timed(|| pipeline.simulate(&trace));
                        black_box(cycles);
                        s += ns(took);
                        uops += trace.ops().len();
                    }
                    lower.push(l);
                    simulate.push(s);
                }
            });
            rows.push((*family, fastest(&lower), fastest(&simulate), uops));
        }
        for (family, lower, _, _) in &rows {
            self.push(format!("backend.lower_us.{family}"), lower / 1e3, "us");
        }
        for (family, _, sim, _) in &rows {
            self.push(format!("backend.simulate_us.{family}"), sim / 1e3, "us");
        }
        for (family, _, _, uops) in &rows {
            self.push(format!("backend.uops.{family}"), *uops as f64, "count");
        }
        for (family, _, sim, uops) in &rows {
            self.push(
                format!("backend.sim_muops_per_s.{family}"),
                *uops as f64 / sim * 1e3,
                "Muop/s",
            );
        }

        let priced = priced_for(&Platform::rocket_eigen());
        let kernel = KernelId::ForwardPass1;
        priced
            .kernel_cycles(kernel, &dims)
            .map_err(err("pricing"))?;
        let hit = self.tracer.span("price_hit", || {
            ns_per_call(5, if self.smoke() { 10 } else { 20_000 }, || {
                let _ = black_box(priced.kernel_cycles(black_box(kernel), &dims));
            })
        });
        self.push("backend.price_hit_ns", hit, "ns");
        Ok(())
    }

    /// `solve_scenario_summary` on a configuration this process has not
    /// priced at horizon 9, then again once its pricing is interned.
    fn solve_summary(&mut self) -> Result<Vec<Metric>, String> {
        let platform = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d256());
        let scenario = Scenario::hover();
        let mut out = Vec::new();
        for phase in ["cold", "interned"] {
            let (summary, took) = timed(|| {
                self.tracer.span(&format!("solve_summary.{phase}"), || {
                    solve_scenario_summary(&platform, &scenario, 9)
                })
            });
            summary.map_err(err("solve summary"))?;
            out.push(metric(
                format!("dse.solve_summary_ms.{phase}"),
                ms(took),
                "ms",
            ));
        }
        Ok(out)
    }

    /// Per-request cost of each sweep-engine tier on seeded solve
    /// requests: a miss (solve, price, write), a disk hit through a fresh
    /// engine, and a memory hit.
    fn engine_tiers(&mut self) -> Result<(), String> {
        let grid = dse::grid(self.smoke());
        let scenarios = ScenarioCatalog::standard().into_scenarios();
        let mut rng = self.rng(0x71E5);
        let n = if self.smoke() { 2 } else { 8 };
        // Horizon 7 is in no sweep, so every first request is a miss.
        let requests: Vec<SolveRequest> = (0..n)
            .map(|_| {
                SolveRequest::new(
                    grid[rng.range_usize(0, grid.len() - 1)].clone(),
                    scenarios[rng.range_usize(0, scenarios.len() - 1)].clone(),
                    7,
                )
            })
            .collect();
        let dir = self.cfg.run_dir.join("probe-tiers");
        let open = || {
            SweepEngine::with_cache_dir(WORKERS, &dir)
                .map_err(|e| format!("cannot open {}: {e}", dir.display()))
        };
        let engine = open()?;
        let (answers, miss) = timed(|| {
            self.tracer
                .span("engine.miss", || engine.solve_batch(&requests))
        });
        if answers.iter().any(Result::is_err) {
            return Err("engine tier probe: a solve failed".to_string());
        }
        let reps = if self.smoke() { 2 } else { 50 };
        let memory = self.tracer.span("engine.memory_hit", || {
            ns_per_call(5, reps, || {
                black_box(engine.solve_batch(&requests));
            })
        });
        let disk = self.tracer.span("engine.disk_hit", || {
            ns_per_call(5, reps, || {
                let fresh = SweepEngine::with_cache_dir(WORKERS, &dir).expect("directory exists");
                black_box(fresh.solve_batch(&requests));
            })
        });
        let misses = engine.stats().misses;
        let reread = open()?;
        reread.solve_batch(&requests);
        if misses == 0 || reread.stats().misses != 0 {
            return Err(format!(
                "engine tier probe: unexpected accounting {}",
                reread.stats().render_line()
            ));
        }
        // Duplicate picks coalesce onto one miss.
        self.push(
            "sweep.engine.miss_ms_per_req",
            ms(miss) / misses as f64,
            "ms",
        );
        self.push(
            "sweep.engine.disk_hit_us_per_req",
            disk / n as f64 / 1e3,
            "us",
        );
        self.push(
            "sweep.engine.mem_hit_us_per_req",
            memory / n as f64 / 1e3,
            "us",
        );
        Ok(())
    }

    /// One warm sweep (the seed's first scenario) through
    /// `run_sweep_tiered`, then the same sweep as the calls it makes, in
    /// its order: `solve_batch`, `evaluate_closed_loop` per horizon,
    /// `speedup_heatmap_with`. The parts must give the sweep's results.
    /// Also times the closed-loop evaluation of every scenario.
    fn sweep_decomposition(&mut self) -> Result<(), String> {
        let specs = dse::specs(self.cfg.seed, self.smoke());
        let spec = &specs[0];
        let dir = self.cfg.run_dir.join("probe-sweep");
        let open = || {
            SweepEngine::with_cache_dir(WORKERS, &dir)
                .map_err(|e| format!("cannot open {}: {e}", dir.display()))
        };
        let sweep = |engine: &SweepEngine| {
            run_sweep_tiered(spec, engine, SweepTier::Trace).map_err(err("probe sweep"))
        };
        self.tracer
            .span("decompose.cold_sweep", || sweep(&open()?))?;
        let requests: Vec<SolveRequest> = spec
            .horizons
            .iter()
            .flat_map(|&h| {
                spec.platforms
                    .iter()
                    .map(move |p| SolveRequest::new(p.clone(), spec.scenario.clone(), h))
            })
            .collect();
        let heat = |engine: &SweepEngine| -> Vec<Vec<Vec<f64>>> {
            spec.heatmaps
                .iter()
                .map(|h| {
                    speedup_heatmap_with(
                        engine,
                        &h.numerator,
                        &h.denominator,
                        h.shape,
                        h.residency,
                        &h.heights,
                        &h.widths,
                    )
                    .values
                })
                .collect()
        };
        // Whole sweep and parts alternate, each on a fresh engine over the
        // warm directory; each is taken at its fastest repetition.
        let (mut wall, mut solve_t, mut loop_t, mut heat_t) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..if self.smoke() { 1 } else { 7 } {
            let whole = open()?;
            let (report, took) = timed(|| self.tracer.span("decompose.sweep", || sweep(&whole)));
            let report = report?;
            wall.push(ms(took));

            let parts = open()?;
            let (solves, took) = timed(|| {
                self.tracer
                    .span("decompose.solve_batch", || parts.solve_batch(&requests))
            });
            solve_t.push(ms(took));
            let (loops, took) = timed(|| {
                self.tracer.span("decompose.closed_loop", || {
                    spec.horizons
                        .iter()
                        .map(|&h| {
                            evaluate_closed_loop::<f32>(
                                &spec.scenario,
                                h,
                                SolverSettings::default(),
                            )
                        })
                        .collect::<tinympc::Result<Vec<_>>>()
                })
            });
            loop_t.push(ms(took));
            let loops = loops.map_err(err("closed loop"))?;
            let (heatmaps, took) = timed(|| self.tracer.span("decompose.heatmap", || heat(&parts)));
            heat_t.push(ms(took));

            let same_solves = whole
                .solve_batch(&requests)
                .iter()
                .zip(&solves)
                .all(|(a, b)| matches!((a, b), (Ok(a), Ok(b)) if a == b));
            let same_loops = loops.iter().all(|cl| {
                report
                    .body
                    .contains(&format!("{:.4} / {:.4}", cl.rms_error, cl.max_error))
            });
            if !same_solves || !same_loops || heat(&whole) != heatmaps {
                return Err(format!(
                    "sweep decomposition of {} disagrees with run_sweep_tiered",
                    spec.scenario.name()
                ));
            }
        }
        let [wall, solve_t, loop_t, heat_t] = [wall, solve_t, loop_t, heat_t].map(|v| fastest(&v));
        let residual = 100.0 * (wall - solve_t - loop_t - heat_t) / wall;
        let share = 100.0 * loop_t / wall;
        self.notes.push(format!(
            "reconcile warm sweep ({}): {wall:.3} ms vs solve_batch {solve_t:.3} + closed_loop {loop_t:.3} + heatmap {heat_t:.3} ms: residual {residual:.1}%",
            spec.scenario.name(),
        ));

        for scenario in ScenarioCatalog::standard().scenarios() {
            let mut took = Vec::new();
            for _ in 0..if self.smoke() { 1 } else { 3 } {
                let (result, t) = timed(|| {
                    self.tracer.span("closed_loop", || {
                        spec.horizons
                            .iter()
                            .map(|&h| {
                                evaluate_closed_loop::<f32>(scenario, h, SolverSettings::default())
                            })
                            .collect::<tinympc::Result<Vec<_>>>()
                    })
                });
                result.map_err(err("closed loop"))?;
                took.push(ms(t));
            }
            let name = format!("scenarios.closed_loop_ms.{}", scenario.name());
            self.push(name, fastest(&took), "ms");
        }
        self.push("dse.closed_loop_share_pct", share, "%");
        self.push("reconcile.sweep_vs_parts_pct", residual, "%");
        Ok(())
    }
}
