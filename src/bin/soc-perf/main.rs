//! `soc-perf` — the host-performance benchmark of the serve and DSE
//! stacks, end to end and layer by layer.
//!
//! ```text
//! soc-perf --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]
//! soc-perf --all --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! Workloads: `serve-mix`, `serve-small`, `dse-cold`, `dse-warm` (see
//! README.md next to this file). An untraced run prints the end-to-end
//! metrics; a `--trace 1` run records spans, runs the per-layer probes,
//! prints the per-layer metrics and reconciliation residuals, and writes
//! `target/soc-perf/<workload>-<seed>.trace.json`. The last stdout line
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. Failed checks make the run exit with code 1.

mod dse;
mod probes;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};

use stats::Metric;
use trace::Tracer;

/// Executor workers of every workload: the load comes from one process
/// with two workers.
pub const WORKERS: usize = 2;

/// Set-ups timed per run (serve admissions, DSE pass-process starts); the
/// fastest is reported, as for every time metric (see
/// `stats::fastest_by_position`). Set-ups of a few ms (a pass process
/// start, 3000 double-integrator admissions) run up to 1.6× slower while
/// the thread sits on the busier of the two cores, and cost little, so
/// they get more samples; dse-warm times its one cold pass instead.
pub fn setup_samples(workload: Workload, smoke: bool) -> usize {
    match (workload, smoke) {
        (_, true) => 1,
        (Workload::ServeMix, false) => 21,
        (_, false) => 101,
    }
}

/// Where runs write: temporary cache directories (removed at exit) and
/// trace files.
const OUT_DIR: &str = "target/soc-perf";

const USAGE: &str = "usage: soc-perf --workload <serve-mix|serve-small|dse-cold|dse-warm> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]\n       soc-perf --all --seed <n> \
[--seconds <s>] [--trace <0|1>] [--smoke]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeMix,
    ServeSmall,
    DseCold,
    DseWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeMix,
        Workload::ServeSmall,
        Workload::DseCold,
        Workload::DseWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve-mix",
            Workload::ServeSmall => "serve-small",
            Workload::DseCold => "dse-cold",
            Workload::DseWarm => "dse-warm",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// This run's temporary directory (sweep caches).
    pub run_dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// Every end-to-end metric.
    pub end_to_end: Vec<Metric>,
    /// Exact counts and digests, printed before the result line.
    pub notes: Vec<String>,
    /// What the trace run's reconciliation needs (serve workloads only).
    pub serve: Option<serve::Facts>,
}

/// A finished run: the lines to print, ending with the result line.
#[derive(Debug)]
pub struct Report {
    pub lines: Vec<String>,
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    cold_pass: Option<PathBuf>,
    ready_only: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        all: false,
        seed: 7,
        seconds: 10.0,
        trace: false,
        smoke: false,
        cold_pass: None,
        ready_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("bad seconds '{v}'"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                };
            }
            "--smoke" => opts.smoke = true,
            "--all" => opts.all = true,
            // Internal: one cold DSE pass in a fresh child process of
            // dse-cold or dse-warm; with --ready-only, only its start.
            "--cold-pass" => opts.cold_pass = Some(PathBuf::from(value()?)),
            "--ready-only" => opts.ready_only = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.cold_pass.is_none() && opts.all == opts.workload.is_some() {
        return Err("give exactly one of --workload and --all".to_string());
    }
    Ok(opts)
}

/// A fresh temporary directory for one run.
fn run_dir(workload: Workload, seed: u64) -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    Path::new(OUT_DIR).join(format!(
        "{}-{seed}-{}-{}",
        workload.name(),
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Runs one workload and, for a trace run, the per-layer probes.
pub fn execute(cfg: &Config, runner: &dse::PassRunner) -> Result<Report, String> {
    let tracer = Tracer::new(cfg.trace);
    let run_started = std::time::Instant::now();
    let mut outcome = tracer.span("run", || match cfg.workload {
        Workload::ServeMix | Workload::ServeSmall => serve::run(cfg, &tracer),
        Workload::DseCold => dse::run_cold(cfg, &tracer, runner),
        Workload::DseWarm => dse::run_warm(cfg, &tracer, runner),
    })?;
    let run_ns = run_started.elapsed().as_secs_f64() * 1e9;

    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut lines = vec![format!(
        "soc-perf workload={} seed={} seconds={} trace={} smoke={} workers={WORKERS} cores={cores}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke
    )];
    lines.extend(outcome.notes.iter().cloned());
    let metrics = if cfg.trace {
        // End-to-end numbers of a traced run include tracing; they are
        // context here, never results.
        for m in &outcome.end_to_end {
            lines.push(format!("traced {} = {} {}", m.name, m.value, m.unit));
        }
        let run_spans = tracer.len();
        let overhead = 100.0 * run_spans as f64 * trace::span_cost_ns() / run_ns;
        let (mut layers, notes, problems) = tracer.span("probes", || {
            probes::run(cfg, &tracer, outcome.serve.as_ref())
        })?;
        lines.extend(notes);
        outcome.problems.extend(problems);
        layers.push(stats::metric("trace_overhead_pct", overhead, "%"));
        let spans = tracer.spans();
        outcome.problems.extend(trace::nesting_problems(&spans));
        for (name, t) in trace::totals(&spans) {
            lines.push(format!(
                "span {name}: count={} total_ms={:.3} self_ms={:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        let path = Path::new(OUT_DIR).join(format!(
            "{}-{}{}.trace.json",
            cfg.workload.name(),
            cfg.seed,
            if cfg.smoke { "-smoke" } else { "" }
        ));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| {
                std::fs::write(&path, trace::to_json(cfg.workload.name(), cfg.seed, &spans))
            })
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        lines.push(format!("trace written to {}", path.display()));
        layers
    } else {
        outcome.end_to_end
    };

    // JSON has no NaN or infinity; such a value is a broken measurement.
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is {}", m.name, m.value));
    }
    let failed = outcome.failed + outcome.problems.len() as u64;
    for p in &outcome.problems {
        lines.push(format!("check failed: {p}"));
    }
    for m in &metrics {
        lines.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    let correct = failed == 0;
    let attempted = outcome.attempted.max(1);
    lines.push(stats::result_json(correct, attempted, failed, &metrics));
    Ok(Report {
        lines,
        correct,
        metrics,
    })
}

fn run_one(workload: Workload, opts: &Options) -> ExitCode {
    let cfg = Config {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        smoke: opts.smoke,
        run_dir: run_dir(workload, opts.seed),
    };
    let result = execute(&cfg, &dse::spawn_cold_pass);
    // Temporary caches only; a failed removal leaves litter under target/.
    let _ = std::fs::remove_dir_all(&cfg.run_dir);
    match result {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--all`: every workload, one after another, each in its own process.
fn run_all(opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("error: {} exited with {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("error: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &opts.cold_pass {
        return dse::child_main(dir, opts.seed, opts.smoke, opts.ready_only);
    }
    match opts.workload {
        Some(workload) => run_one(workload, &opts),
        None => run_all(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<x>"` values inside the `key` array of BENCHMARK.json.
    fn benchmark_names(key: &str) -> Vec<String> {
        let text = include_str!("../../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
        let cfg = Config {
            workload,
            seed,
            seconds: 0.01,
            trace,
            smoke: true,
            run_dir: run_dir(workload, seed),
        };
        let report = execute(&cfg, &dse::in_process_cold_pass).expect("run completes");
        let _ = std::fs::remove_dir_all(&cfg.run_dir);
        report
    }

    fn names(report: &Report) -> Vec<String> {
        report.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn workload_names_match_the_benchmark_file() {
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(benchmark_names("workloads"), names);
    }

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        let expected = benchmark_names("end_to_end");
        for workload in Workload::ALL {
            let report = smoke(workload, 3, false);
            assert!(report.correct, "{}: {:#?}", workload.name(), report.lines);
            assert_eq!(names(&report), expected, "{}", workload.name());
            let last = report.lines.last().unwrap();
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
        }
    }

    #[test]
    fn trace_runs_emit_every_per_layer_metric() {
        let expected = benchmark_names("per_layer");
        for workload in [Workload::ServeSmall, Workload::DseCold] {
            let report = smoke(workload, 5, true);
            assert!(report.correct, "{}: {:#?}", workload.name(), report.lines);
            assert_eq!(names(&report), expected, "{}", workload.name());
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let opts = parse_args(&args(
            "--workload dse-warm --seed 11 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(opts.workload, Some(Workload::DseWarm));
        assert_eq!((opts.seed, opts.seconds, opts.trace), (11, 10.0, true));
        for bad in [
            "--workload nope --seed 1",
            "--workload serve-mix --seed x",
            "--workload serve-mix --trace yes",
            "--workload serve-mix --seconds 0",
            "--workload serve-mix --all",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        assert!(parse_args(&args("--all --seed 7")).unwrap().all);
    }
}
