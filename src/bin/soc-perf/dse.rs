//! The DSE workloads: Trace-tier sweeps of the whole scenario catalog
//! over a 52-point design grid, cold and from a warm disk cache.
//!
//! A *pass* is one `run_sweep_tiered` per catalog scenario (7 sweeps, in
//! a seed-permuted order), each over the grid at horizons 5, 10, 15 and
//! 20 plus one seed-chosen 4×4 cold GEMV heatmap. A cold pass runs in a
//! fresh child process, so it always starts on an empty pricer interner
//! and an empty cache directory; a warm pass re-reads that directory
//! through fresh `SweepEngine`s, so every request is a disk hit.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use matlib::rng::SplitMix64;
use soc_backend::{Backend, Platform};
use soc_cpu::{CoreConfig, ScalarStyle};
use soc_dse::experiments::{CycleSource, KernelShape, Residency, SerialSource, SolveRequest};
use soc_gemmini::{GemminiConfig, GemminiOpts};
use soc_scenarios::ScenarioCatalog;
use soc_sweep::{run_sweep_tiered, EngineStats, HeatmapSpec, SweepEngine, SweepSpec, SweepTier};
use soc_vector::{SaturnConfig, VectorStyle};

use crate::stats::{fastest, fastest_by_position, fnv1a, metric, ns, peak_rss_mb, percentile};
use crate::trace::Tracer;
use crate::{setup_samples, Config, Outcome, WORKERS};

/// The design grid: 7 scalar cores × {optimized, library} code; the 3
/// Saturn configurations × {Rocket, Shuttle} × {fused, matlib, fused
/// LMUL=2}; 5 Gemmini configurations × {Rocket, Shuttle} × {optimized,
/// baseline} mapping — 52 distinct design points. The smoke grid keeps
/// one point per back-end family.
pub fn grid(smoke: bool) -> Vec<Platform> {
    if smoke {
        return vec![
            Platform::rocket_eigen(),
            Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d256()),
            Platform::gemmini(
                CoreConfig::rocket(),
                GemminiConfig::os_4x4_32kb(),
                GemminiOpts::optimized(),
            ),
        ];
    }
    let mut grid = Vec::with_capacity(52);
    for core in [
        CoreConfig::rocket(),
        CoreConfig::tiny_rocket(),
        CoreConfig::shuttle(),
        CoreConfig::small_boom(),
        CoreConfig::medium_boom(),
        CoreConfig::large_boom(),
        CoreConfig::mega_boom(),
    ] {
        for (style, tag) in [
            (ScalarStyle::Optimized, "opt"),
            (ScalarStyle::Library, "lib"),
        ] {
            grid.push(Platform {
                name: format!("{} ({tag})", core.name),
                core: core.clone(),
                backend: Backend::Scalar(style),
            });
        }
    }
    let fronts = [CoreConfig::rocket(), CoreConfig::shuttle()];
    for config in SaturnConfig::all() {
        for core in &fronts {
            for (style, lmul) in [
                (VectorStyle::Fused, None),
                (VectorStyle::Matlib, None),
                (VectorStyle::Fused, Some(2)),
            ] {
                grid.push(Platform::saturn_with(core.clone(), config, style, lmul));
            }
        }
    }
    for config in [
        GemminiConfig::os_4x4_16kb(),
        GemminiConfig::os_4x4_32kb(),
        GemminiConfig::os_4x4_64kb(),
        GemminiConfig::ws_4x4_64kb(),
        GemminiConfig::os_8x8_64kb(),
    ] {
        for core in &fronts {
            for (opts, tag) in [
                (GemminiOpts::optimized(), "opt"),
                (GemminiOpts::baseline(), "base"),
            ] {
                let mut p = Platform::gemmini(core.clone(), config, opts);
                p.name = format!("{} ({tag})", p.name);
                grid.push(p);
            }
        }
    }
    grid
}

pub fn horizons(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![5]
    } else {
        vec![5, 10, 15, 20]
    }
}

/// The seven sweeps of a pass, in seed-permuted scenario order, all
/// sharing one seed-chosen Saturn-over-Gemmini cold GEMV heatmap.
pub fn specs(seed: u64, smoke: bool) -> Vec<SweepSpec> {
    let grid = grid(smoke);
    let mut rng = SplitMix64::new(seed ^ 0xD5E0_5EED);
    let saturns: Vec<&Platform> = grid
        .iter()
        .filter(|p| matches!(p.backend, Backend::Saturn { .. }))
        .collect();
    let gemminis: Vec<&Platform> = grid
        .iter()
        .filter(|p| matches!(p.backend, Backend::Gemmini { .. }))
        .collect();
    let numerator = saturns[rng.range_usize(0, saturns.len() - 1)].clone();
    let denominator = gemminis[rng.range_usize(0, gemminis.len() - 1)].clone();
    let side = if smoke { 2 } else { 4 };
    let heatmap = HeatmapSpec {
        title: format!(
            "GEMV speedup: {} over {} (cold)",
            numerator.name, denominator.name
        ),
        numerator,
        denominator,
        shape: KernelShape::Gemv,
        residency: Residency::Cold,
        heights: soc_dse::workloads::heatmap_heights()[..side].to_vec(),
        widths: soc_dse::workloads::heatmap_widths()[..side].to_vec(),
    };
    let mut scenarios = ScenarioCatalog::standard().into_scenarios();
    for i in (1..scenarios.len()).rev() {
        scenarios.swap(i, rng.range_usize(0, i));
    }
    scenarios
        .into_iter()
        .map(|scenario| SweepSpec {
            label: format!("soc-perf {}", scenario.name()),
            scenario,
            horizons: horizons(smoke),
            platforms: grid.clone(),
            heatmaps: vec![heatmap.clone()],
        })
        .collect()
}

/// Seeded design points whose engine answers must be bit-identical to
/// the serial reference path.
pub fn check_requests(seed: u64, smoke: bool) -> Vec<SolveRequest> {
    let grid = grid(smoke);
    let scenarios = ScenarioCatalog::standard().into_scenarios();
    let horizons = horizons(smoke);
    let mut rng = SplitMix64::new(seed ^ 0xC4EC_4ED5);
    (0..if smoke { 4 } else { 16 })
        .map(|_| {
            SolveRequest::new(
                grid[rng.range_usize(0, grid.len() - 1)].clone(),
                scenarios[rng.range_usize(0, scenarios.len() - 1)].clone(),
                horizons[rng.range_usize(0, horizons.len() - 1)],
            )
        })
        .collect()
}

/// Compares `engine`'s answers for the check points with `SerialSource`.
pub fn serial_mismatches(engine: &SweepEngine, requests: &[SolveRequest]) -> Vec<String> {
    let reference = SerialSource.solve_batch(requests);
    engine
        .solve_batch(requests)
        .into_iter()
        .zip(reference)
        .zip(requests)
        .filter(|((got, want), _)| match (got, want) {
            (Ok(got), Ok(want)) => got != want,
            _ => true,
        })
        .map(|(_, r)| {
            format!(
                "{} / {} @ horizon {} differs from SerialSource",
                r.platform.name,
                r.scenario.name(),
                r.horizon
            )
        })
        .collect()
}

/// One sweep of a pass, as timed and counted.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    pub scenario: String,
    /// Offsets from the start of the pass.
    pub start_ns: f64,
    pub end_ns: f64,
    pub stats: EngineStats,
    pub failed_points: usize,
    /// FNV-1a of the deterministic report body.
    pub body_fnv: u64,
}

impl SweepRecord {
    pub fn wall_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) / 1e6
    }
}

/// One cold pass, as its process reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    pub sweeps: Vec<SweepRecord>,
    /// From the first sweep's start to the last sweep's end.
    pub wall_ns: f64,
    pub rss_mb: f64,
    /// Failed checks inside the pass process.
    pub problems: Vec<String>,
}

impl PassReport {
    pub fn requests(&self) -> usize {
        self.sweeps.iter().map(|s| s.stats.requests).sum()
    }

    fn to_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .sweeps
            .iter()
            .map(|s| {
                let st = s.stats;
                format!(
                    "sweep {} {} {} {} {} {} {} {} {} {:016x}",
                    s.scenario,
                    s.start_ns,
                    s.end_ns,
                    st.requests,
                    st.memory_hits,
                    st.disk_hits,
                    st.coalesced,
                    st.misses,
                    s.failed_points,
                    s.body_fnv
                )
            })
            .collect();
        lines.extend(self.problems.iter().map(|p| format!("problem {p}")));
        lines.push(format!("pass {} {}", self.wall_ns, self.rss_mb));
        lines
    }

    fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Self, String> {
        let bad = |line: &str| format!("malformed cold-pass line: {line:?}");
        let mut report = PassReport {
            sweeps: Vec::new(),
            wall_ns: f64::NAN,
            rss_mb: f64::NAN,
            problems: Vec::new(),
        };
        for line in lines {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.first().copied() {
                Some("sweep") if fields.len() == 11 => {
                    let num = |i: usize| fields[i].parse::<usize>().map_err(|_| bad(line));
                    report.sweeps.push(SweepRecord {
                        scenario: fields[1].to_string(),
                        start_ns: fields[2].parse().map_err(|_| bad(line))?,
                        end_ns: fields[3].parse().map_err(|_| bad(line))?,
                        stats: EngineStats {
                            requests: num(4)?,
                            memory_hits: num(5)?,
                            disk_hits: num(6)?,
                            coalesced: num(7)?,
                            misses: num(8)?,
                        },
                        failed_points: num(9)?,
                        body_fnv: u64::from_str_radix(fields[10], 16).map_err(|_| bad(line))?,
                    });
                }
                Some("problem") => report
                    .problems
                    .push(line.trim_start_matches("problem ").to_string()),
                Some("pass") if fields.len() == 3 => {
                    report.wall_ns = fields[1].parse().map_err(|_| bad(line))?;
                    report.rss_mb = fields[2].parse().map_err(|_| bad(line))?;
                }
                _ => return Err(bad(line)),
            }
        }
        if report.wall_ns.is_nan() {
            return Err("cold pass ended without its result".to_string());
        }
        Ok(report)
    }
}

/// Runs one cold pass into `dir` on this process's pricer interner.
/// `ready` is called once the grid, specs and engine exist, just before
/// the first sweep starts; with `ready_only` the pass stops there, as a
/// set-up sample with no sweeps.
pub fn cold_pass(
    dir: &Path,
    seed: u64,
    smoke: bool,
    ready_only: bool,
    ready: impl FnOnce(),
) -> Result<PassReport, String> {
    let specs = specs(seed, smoke);
    let engine = SweepEngine::with_cache_dir(WORKERS, dir)
        .map_err(|e| format!("cannot open cache dir {}: {e}", dir.display()))?;
    ready();
    if ready_only {
        return Ok(PassReport {
            sweeps: Vec::new(),
            wall_ns: 0.0,
            rss_mb: peak_rss_mb()?,
            problems: Vec::new(),
        });
    }
    let start = Instant::now();
    let mut sweeps = Vec::with_capacity(specs.len());
    for spec in &specs {
        let begin = ns(start.elapsed());
        let report = run_sweep_tiered(spec, &engine, SweepTier::Trace)
            .map_err(|e| format!("sweep {} failed: {e}", spec.scenario.name()))?;
        sweeps.push(SweepRecord {
            scenario: spec.scenario.name().to_string(),
            start_ns: begin,
            end_ns: ns(start.elapsed()),
            stats: report.stats,
            failed_points: report.failed_points,
            body_fnv: fnv1a(report.body.as_bytes()),
        });
    }
    let wall_ns = ns(start.elapsed());
    // Every check point is in the pass, so the engine answers from memory.
    let problems = serial_mismatches(&engine, &check_requests(seed, smoke));
    Ok(PassReport {
        sweeps,
        wall_ns,
        rss_mb: peak_rss_mb()?,
        problems,
    })
}

/// Runs a cold pass — `(dir, seed, smoke, ready_only)` as for
/// [`cold_pass`] — and returns its report plus the time from the call to
/// the moment the pass was ready to start its first sweep.
pub type PassRunner = dyn Fn(&Path, u64, bool, bool) -> Result<(PassReport, Duration), String>;

/// The runner used by real runs: each pass in a fresh child process.
pub fn spawn_cold_pass(
    dir: &Path,
    seed: u64,
    smoke: bool,
    ready_only: bool,
) -> Result<(PassReport, Duration), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let spawned = Instant::now();
    let mut cmd = Command::new(exe);
    cmd.arg("--cold-pass")
        .arg(dir)
        .args(["--seed", &seed.to_string()])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    if ready_only {
        cmd.arg("--ready-only");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start cold pass: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut ready = None;
    let mut lines = Vec::new();
    let read = BufReader::new(stdout).lines().try_for_each(|line| {
        let line = line?;
        if line == "ready" && ready.is_none() {
            ready = Some(spawned.elapsed());
        } else {
            lines.push(line);
        }
        Ok::<_, std::io::Error>(())
    });
    if read.is_err() {
        // Never leave the child running: it is waited for below.
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("cold pass did not finish: {e}"))?;
    read.map_err(|e| format!("cannot read cold pass output: {e}"))?;
    if !status.success() {
        return Err(format!("cold pass exited with {status}"));
    }
    let ready = ready.ok_or("cold pass never became ready")?;
    Ok((
        PassReport::from_lines(lines.iter().map(String::as_str))?,
        ready,
    ))
}

/// The runner used by tests: the pass runs in this process.
#[cfg(test)]
pub fn in_process_cold_pass(
    dir: &Path,
    seed: u64,
    smoke: bool,
    ready_only: bool,
) -> Result<(PassReport, Duration), String> {
    let called = Instant::now();
    let mut ready = Duration::ZERO;
    let report = cold_pass(dir, seed, smoke, ready_only, || ready = called.elapsed())?;
    Ok((report, ready))
}

/// Entry point of the `--cold-pass` child process.
pub fn child_main(dir: &Path, seed: u64, smoke: bool, ready_only: bool) -> ExitCode {
    let announce = || {
        let mut out = std::io::stdout().lock();
        // The parent times set-up up to this line.
        let _ = writeln!(out, "ready").and_then(|()| out.flush());
    };
    match cold_pass(dir, seed, smoke, ready_only, announce) {
        Ok(report) => {
            for line in report.to_lines() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Records a pass's sweeps as spans under the open span.
fn record_sweeps(tracer: &Tracer, started: Instant, sweeps: &[SweepRecord]) {
    for s in sweeps {
        let at = |offset_ns: f64| started + Duration::from_nanos(offset_ns as u64);
        tracer.record(
            &format!("sweep.{}", s.scenario),
            at(s.start_ns),
            at(s.end_ns),
        );
    }
}

/// Checks shared by every pass: no FAILED rows, and the report bodies
/// equal the reference pass's.
fn pass_problems(label: &str, sweeps: &[SweepRecord], reference: &[SweepRecord]) -> Vec<String> {
    let mut problems = Vec::new();
    for (s, r) in sweeps.iter().zip(reference) {
        if s.failed_points != 0 {
            problems.push(format!(
                "{label} {}: {} FAILED points",
                s.scenario, s.failed_points
            ));
        }
        if s.scenario != r.scenario || s.body_fnv != r.body_fnv {
            problems.push(format!(
                "{label} {}: report body differs from the reference",
                s.scenario
            ));
        }
    }
    if sweeps.len() != reference.len() {
        problems.push(format!(
            "{label}: {} sweeps, expected {}",
            sweeps.len(),
            reference.len()
        ));
    }
    problems
}

fn failed_points(sweeps: &[SweepRecord]) -> u64 {
    sweeps.iter().map(|s| s.failed_points as u64).sum()
}

/// Design points answered per second, for a pass of `requests` points
/// whose sweeps took `sweep_ms`.
fn per_second(requests: usize, sweep_ms: &[f64]) -> f64 {
    requests as f64 / (sweep_ms.iter().sum::<f64>() / 1e3)
}

/// A digest over a pass's report bodies and cache accounting.
fn pass_digest(sweeps: &[SweepRecord]) -> String {
    let text: Vec<String> = sweeps
        .iter()
        .map(|s| {
            format!(
                "{} {:016x} {}",
                s.scenario,
                s.body_fnv,
                s.stats.render_line()
            )
        })
        .collect();
    let failed = failed_points(sweeps);
    let total = sweeps.iter().fold(EngineStats::default(), |mut acc, s| {
        acc.requests += s.stats.requests;
        acc.memory_hits += s.stats.memory_hits;
        acc.disk_hits += s.stats.disk_hits;
        acc.coalesced += s.stats.coalesced;
        acc.misses += s.stats.misses;
        acc
    });
    format!(
        "pass digest fnv={:016x} sweeps={} failed_points={failed} {}",
        fnv1a(text.join("\n").as_bytes()),
        sweeps.len(),
        total.render_line()
    )
}

pub fn run_cold(cfg: &Config, tracer: &Tracer, runner: &PassRunner) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(cfg.seconds);
    let min_passes = if cfg.smoke { 1 } else { 2 };
    let mut outcome = Outcome::default();
    // Set-up: starting a pass process, up to the point it could sweep.
    let mut ready_s = Vec::new();
    for i in 0..setup_samples(cfg.workload, cfg.smoke) {
        let dir = cfg.run_dir.join(format!("start-{i}"));
        let (_, ready) = tracer.span("pass_start", || runner(&dir, cfg.seed, cfg.smoke, true))?;
        let _ = std::fs::remove_dir_all(&dir);
        ready_s.push(ready.as_secs_f64());
    }
    let mut passes: Vec<PassReport> = Vec::new();
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed() < budget {
        let dir = cfg.run_dir.join(format!("cold-{}", passes.len()));
        tracer.set_run(passes.len() as u32);
        let called = Instant::now();
        let report = tracer.span("pass", || {
            let (report, ready) = runner(&dir, cfg.seed, cfg.smoke, false)?;
            record_sweeps(tracer, called + ready, &report.sweeps);
            Ok::<_, String>(report)
        })?;
        // Failing to clean up a finished pass leaves litter, not wrong data.
        let _ = std::fs::remove_dir_all(&dir);
        passes.push(report);
    }

    let reference = passes[0].sweeps.clone();
    outcome.notes.push(pass_digest(&reference));
    for (i, report) in passes.iter().enumerate() {
        let label = format!("pass {i}");
        outcome
            .problems
            .extend(pass_problems(&label, &report.sweeps, &reference));
        outcome
            .problems
            .extend(report.problems.iter().map(|p| format!("{label}: {p}")));
        outcome.attempted += report.requests() as u64;
        outcome.failed += failed_points(&report.sweeps);
    }
    let sweep_ms = fastest_by_position(
        &passes
            .iter()
            .map(|r| r.sweeps.iter().map(SweepRecord::wall_ms).collect())
            .collect::<Vec<_>>(),
    );
    let requests = passes[0].requests();
    let rss: Vec<f64> = passes.iter().map(|r| r.rss_mb).collect();
    outcome.notes.push(format!(
        "grid={} points/pass={requests} passes={} (each sweep at its fastest over them) setups={}",
        grid(cfg.smoke).len(),
        passes.len(),
        ready_s.len()
    ));
    outcome.end_to_end = vec![
        metric("throughput_per_s", per_second(requests, &sweep_ms), "1/s"),
        metric("latency_p50_ms", percentile(&sweep_ms, 50.0), "ms"),
        metric("latency_p90_ms", percentile(&sweep_ms, 90.0), "ms"),
        metric("setup_s", fastest(&ready_s), "s"),
        metric("peak_rss_mb", percentile(&rss, 50.0), "MB"),
    ];
    Ok(outcome)
}

pub fn run_warm(cfg: &Config, tracer: &Tracer, runner: &PassRunner) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // Set-up: one cold pass, from spawn to its last sweep, fills the
    // directory every warm pass reads.
    let warm_dir = cfg.run_dir.join("warm");
    let called = Instant::now();
    let (cold, ready) = tracer.span("setup_pass", || {
        let (report, ready) = runner(&warm_dir, cfg.seed, cfg.smoke, false)?;
        record_sweeps(tracer, called + ready, &report.sweeps);
        Ok::<_, String>((report, ready))
    })?;
    let setup_s = ready.as_secs_f64() + cold.wall_ns / 1e9;
    // The cold pass is its own reference: this checks its FAILED rows.
    outcome
        .problems
        .extend(pass_problems("set-up pass", &cold.sweeps, &cold.sweeps));
    outcome
        .problems
        .extend(cold.problems.iter().map(|p| format!("set-up pass: {p}")));
    let requests = cold.requests();
    outcome.attempted += requests as u64;
    outcome.failed += failed_points(&cold.sweeps);
    outcome
        .notes
        .push(format!("cold {}", pass_digest(&cold.sweeps)));

    let specs = specs(cfg.seed, cfg.smoke);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let min_passes = if cfg.smoke { 1 } else { 3 };
    // Sweep walls in ms, one vector per warm pass.
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed() < budget {
        let pass = passes.len();
        tracer.set_run(1 + pass as u32);
        let began = Instant::now();
        let sweeps = tracer.span("pass", || -> Result<Vec<SweepRecord>, String> {
            let mut sweeps = Vec::with_capacity(specs.len());
            for spec in &specs {
                let t = Instant::now();
                let report = tracer.span(&format!("sweep.{}", spec.scenario.name()), || {
                    let engine = SweepEngine::with_cache_dir(WORKERS, &warm_dir)
                        .map_err(|e| format!("cannot open warm cache: {e}"))?;
                    run_sweep_tiered(spec, &engine, SweepTier::Trace)
                        .map_err(|e| format!("warm sweep failed: {e}"))
                })?;
                sweeps.push(SweepRecord {
                    scenario: spec.scenario.name().to_string(),
                    start_ns: ns(t - began),
                    end_ns: ns(began.elapsed()),
                    stats: report.stats,
                    failed_points: report.failed_points,
                    body_fnv: fnv1a(report.body.as_bytes()),
                });
            }
            Ok(sweeps)
        })?;
        let label = format!("warm pass {pass}");
        outcome
            .problems
            .extend(pass_problems(&label, &sweeps, &cold.sweeps));
        for s in &sweeps {
            if s.stats.misses != 0 || s.stats.disk_hits != s.stats.requests {
                outcome.problems.push(format!(
                    "{label} {}: expected only disk hits, got {}",
                    s.scenario,
                    s.stats.render_line()
                ));
            }
        }
        if pass == 0 {
            outcome.notes.push(format!("warm {}", pass_digest(&sweeps)));
        }
        outcome.attempted += sweeps.iter().map(|s| s.stats.requests as u64).sum::<u64>();
        outcome.failed += failed_points(&sweeps);
        passes.push(sweeps.iter().map(SweepRecord::wall_ms).collect());
    }
    let rss_mb = peak_rss_mb()?;

    let engine = SweepEngine::with_cache_dir(WORKERS, &warm_dir)
        .map_err(|e| format!("cannot open warm cache: {e}"))?;
    outcome.problems.extend(serial_mismatches(
        &engine,
        &check_requests(cfg.seed, cfg.smoke),
    ));
    let sweep_ms = fastest_by_position(&passes);
    outcome.notes.push(format!(
        "grid={} points/pass={requests} warm passes={} (each sweep at its fastest over them)",
        grid(cfg.smoke).len(),
        passes.len(),
    ));
    outcome.end_to_end = vec![
        metric("throughput_per_s", per_second(requests, &sweep_ms), "1/s"),
        metric("latency_p50_ms", percentile(&sweep_ms, 50.0), "ms"),
        metric("latency_p90_ms", percentile(&sweep_ms, 90.0), "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
    ];
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_has_52_distinct_design_points() {
        let grid = grid(false);
        assert_eq!(grid.len(), 52);
        let mut ids: Vec<String> = grid.iter().map(Platform::cache_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 52, "every point prices a distinct configuration");
        let mut names: Vec<&str> = grid.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 52);
    }

    #[test]
    fn specs_permute_the_catalog_by_seed() {
        let order = |seed| -> Vec<String> {
            specs(seed, true)
                .iter()
                .map(|s| s.scenario.name().to_string())
                .collect()
        };
        let mut sorted = order(7);
        assert_eq!(order(7), sorted, "same seed, same order");
        sorted.sort();
        let mut catalog: Vec<String> = ScenarioCatalog::standard()
            .scenarios()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        catalog.sort();
        assert_eq!(sorted, catalog);
        assert!((1..20).any(|seed| order(seed) != order(7)));
    }

    #[test]
    fn pass_reports_survive_the_child_protocol() {
        let report = PassReport {
            sweeps: vec![SweepRecord {
                scenario: "soft-landing".into(),
                start_ns: 12.5,
                end_ns: 1e9,
                stats: EngineStats {
                    requests: 9,
                    memory_hits: 1,
                    disk_hits: 2,
                    coalesced: 3,
                    misses: 3,
                },
                failed_points: 0,
                body_fnv: 0xdead_beef,
            }],
            wall_ns: 1.5e9,
            rss_mb: 21.25,
            problems: vec!["a problem with spaces".into()],
        };
        let lines = report.to_lines();
        assert_eq!(
            PassReport::from_lines(lines.iter().map(String::as_str)),
            Ok(report)
        );
        assert!(
            PassReport::from_lines(["problem lost"]).is_err(),
            "no pass line"
        );
        assert!(PassReport::from_lines(["garbage"]).is_err());
    }
}
