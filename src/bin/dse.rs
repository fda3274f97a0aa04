//! `dse` — the command-line front door to the design-space exploration
//! framework.
//!
//! ```sh
//! cargo run --bin dse -- list
//! cargo run --bin dse -- table1
//! cargo run --bin dse -- pareto
//! cargo run --bin dse -- solve --platform OSGemminiRocket32KB --horizon 10
//! cargo run --bin dse -- kernels --platform RefV512D256Rocket
//! cargo run --bin dse -- tune --target saturn
//! cargo run --bin dse -- energy
//! ```

use soc_dse_repro::soc_backend::{pipeline_for, BoundClaim};
use soc_dse_repro::soc_bounds::{kernel_bounds, CycleInterval};
use soc_dse_repro::soc_codegen::{tune, TuningSpace};
use soc_dse_repro::soc_cpu::CoreConfig;
use soc_dse_repro::soc_dse::energy::{solve_energy, EnergyParams};
use soc_dse_repro::soc_dse::experiments::{
    pareto_frontier, solve_scenario_summary, table1_with, Scenario, ScenarioCatalog, Table1Row,
};
use soc_dse_repro::soc_dse::platform::Platform;
use soc_dse_repro::soc_dse::report::markdown_table;
use soc_dse_repro::soc_dse::verify::{shipped_configurations, verify_platform};
use soc_dse_repro::soc_faults::{recoverable_strikes, run_campaign, run_chaos, CampaignKind};
use soc_dse_repro::soc_gemmini::GemminiConfig;
use soc_dse_repro::soc_serve::{run_bench, BenchConfig};
use soc_dse_repro::soc_sweep::{run_sweep, SweepEngine, SweepSpec};
use soc_dse_repro::soc_vector::SaturnConfig;
use soc_dse_repro::soc_verify::Severity;
use soc_dse_repro::tinympc::{problems::quadrotor_hover, KernelId, ProblemDims};

const USAGE: &str = "\
dse — embedded-SoC design-space exploration for real-time optimal control

USAGE:
    dse <COMMAND> [OPTIONS]

COMMANDS:
    list                       List every registered platform
    backends                   List registered back-end pipelines (family,
                               area, configuration summary)
    scenarios                  List registered control workloads (plant
                               dims, default horizon, rollout length)
    table1                     Regenerate Table I (area + cycles/solve)
            [--scenario NAME]  Price a different workload than hover
    pareto                     Area-vs-performance Pareto analysis (Fig. 20)
    sweep   [--jobs N]         Run a declarative sweep (Table I grid +
            [--smoke]          kernel heatmaps) on the parallel memoized
            [--no-cache]       engine; --smoke selects the seconds-scale
            [--warm]           CI spec, --no-cache disables the on-disk
            [--cache-dir DIR]  tier, --warm runs the spec twice and
            [--chaos-seed N]   reports the warm pass (100% hit rate).
            [--scenario NAME]  --chaos-seed injects seeded recoverable
                               worker panics (the report must not change).
                               --scenario sweeps a different workload
                               than hover (see `dse scenarios`); the
                               report adds a closed-loop tracking-error
                               section per horizon. Report on stdout is
                               byte-identical for every --jobs; shard
                               timing and fault accounting go to stderr
    bounds  [--horizon N]      Static cycle-bound analysis: abstract-
            [--json]           interpret every back-end's kernel programs
                               into [lower, upper] steady-state intervals
                               and differential-check them against the
                               trace simulators (exact on in-order cores,
                               bracketing on OoO); exits non-zero on any
                               bound violation. --json emits machine-
                               readable per-kernel results
    energy                     Energy-per-solve analysis (extension)
    solve   --platform NAME    Solve the quadrotor MPC on one platform
            [--horizon N]      Horizon length (default 10)
    kernels --platform NAME    Per-kernel cycle breakdown on one platform
    tune    --target KIND      Auto-tune a solver (rocket|saturn|gemmini)
    verify  [--platform NAME]  Statically verify every generated micro-op
            [--verbose]        trace (hazards, vsetvli state, scratchpad
            [--strict]         residency, perf lints); exits non-zero on
            [--json]           any error-severity finding. --strict also
                               fails on perf lints; --json emits machine-
                               readable diagnostics instead of text
    faults  [--seed N]         Seeded fault-injection campaign across the
            [--campaign KIND]  back-end families (KIND: smoke|full,
            [--smoke]          default smoke); --smoke additionally gates
            [--scenario NAME]  on zero silent corruptions on the scalar
                               back-end (CI mode), exiting non-zero.
                               --scenario flies a different workload
                               than hover through the injector
    serve   [--sessions N]     Run the batched multi-tenant solver service:
            [--ticks N]        admit a seeded session mix over the scenario
            [--seed N]         catalog × serving platforms, run recurring
            [--workers N]      tick batches on the persistent executor with
                               degradation-ladder cohort shedding under
                               seeded bursts, and print the deterministic
                               report (byte-identical for any --workers;
                               host timing goes to stderr)
    bench-serve                `serve` plus artifacts and gates: writes
            [--sessions N]     results/serve_perf.txt and BENCH_serve.json
            [--ticks N]        (host wall-clock percentiles, sessions/sec,
            [--seed N]         steady-state allocation census). --smoke
            [--workers N]      selects the CI shape (1000 sessions, 40
            [--smoke]          ticks) and exits non-zero unless zero
                               session-ticks aborted, the steady-state
                               tick loop performed zero heap allocations,
                               and p99 solve latency fits the worst
                               cohort budget
    chaos   [--seed N]         Seeded chaos campaign against the platform
            [--smoke]          itself: worker panics, cache corruption,
                               lock poisoning and slow items injected into
                               the sweep/faults execution paths, each
                               trial classified recovered / degraded
                               / aborted (seed default 7); --smoke trims
                               the jobs grid for CI and exits non-zero on
                               any aborted trial

Platform names are the Table-I identifiers shown by `dse list`.";

/// Counting global allocator: lets `dse bench-serve` measure (and in
/// `--smoke` mode, gate on) steady-state heap allocations of the serve
/// tick loop through [`matlib_accel::allocations`]. Counting is one
/// relaxed atomic add per allocation — negligible against the commands
/// this binary runs.
#[global_allocator]
static GLOBAL: matlib_accel::CountingAllocator = matlib_accel::CountingAllocator;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Checks a command's arguments (after the command name) against the
/// value flags and switches it reads: anything else, or a value flag
/// without a value, is an error rather than a silent default.
fn check_args(args: &[String], values: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if values.contains(&arg.as_str()) {
            if rest.next().is_none_or(|v| v.starts_with("--")) {
                return Err(format!("`{arg}` needs a value"));
            }
        } else if !switches.contains(&arg.as_str()) {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    Ok(())
}

/// Minimal JSON string escaping for the hand-rolled `--json` outputs
/// (names and diagnostic messages are ASCII, but quotes and backslashes
/// must still be safe).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Default shard-pool width: one worker per available hardware thread.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn table1_rows() -> Result<Vec<Table1Row>, String> {
    // Table I submits through the sweep engine: one batch, sharded
    // across cores. Results are bit-identical to the serial path.
    let engine = SweepEngine::in_memory(default_jobs());
    table1_with(&engine, &Scenario::hover(), 10).map_err(|e| e.to_string())
}

fn find_scenario(args: &[String]) -> Result<Scenario, String> {
    match flag(args, "--scenario") {
        None => Ok(Scenario::hover()),
        Some(name) => ScenarioCatalog::standard()
            .find(&name)
            .cloned()
            .ok_or_else(|| format!("unknown scenario `{name}`; run `dse scenarios`")),
    }
}

fn find_platform(name: &str) -> Result<Platform, String> {
    Platform::table1_registry()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown platform `{name}`; run `dse list`"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        "list" => {
            check_args(args, &[], &[])?;
            let rows: Vec<Vec<String>> = Platform::table1_registry()
                .iter()
                .map(|p| vec![p.name.clone(), format!("{:.3} mm^2", p.area().total_mm2())])
                .collect();
            println!("{}", markdown_table(&["platform", "area"], &rows));
            Ok(())
        }
        "backends" => {
            check_args(args, &[], &[])?;
            let rows: Vec<Vec<String>> = Platform::table1_registry()
                .iter()
                .map(|p| {
                    let pipe = pipeline_for(p);
                    vec![
                        p.name.clone(),
                        pipe.family().to_string(),
                        format!("{:.3} mm^2", pipe.area().total_mm2()),
                        pipe.describe(),
                    ]
                })
                .collect();
            println!(
                "{}",
                markdown_table(&["platform", "family", "area", "configuration"], &rows)
            );
            Ok(())
        }
        "scenarios" => {
            check_args(args, &[], &[])?;
            let rows: Vec<Vec<String>> = ScenarioCatalog::standard()
                .scenarios()
                .iter()
                .map(|s| {
                    let (nx, nu) = s.dims();
                    vec![
                        s.name().to_string(),
                        s.title().to_string(),
                        format!("{nx}x{nu}"),
                        s.default_horizon().to_string(),
                        s.rollout_steps().to_string(),
                    ]
                })
                .collect();
            println!(
                "{}",
                markdown_table(
                    &[
                        "scenario",
                        "workload",
                        "nx x nu",
                        "default horizon",
                        "rollout steps"
                    ],
                    &rows
                )
            );
            Ok(())
        }
        "table1" => {
            check_args(args, &["--scenario"], &[])?;
            let scenario = find_scenario(args)?;
            let engine = SweepEngine::in_memory(default_jobs());
            let rows = table1_with(&engine, &scenario, 10).map_err(|e| e.to_string())?;
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        format!("{:.0}", r.area_um2),
                        r.cycles_per_solve.to_string(),
                        format!("{:.0}", r.mpc_hz),
                    ]
                })
                .collect();
            println!(
                "{}",
                markdown_table(
                    &[
                        "configuration",
                        "area (um^2)",
                        "cycles/solve",
                        "MPC Hz @1GHz"
                    ],
                    &table
                )
            );
            Ok(())
        }
        "pareto" => {
            check_args(args, &[], &[])?;
            let mut rows = table1_rows()?;
            rows.sort_by(|a, b| a.area_um2.total_cmp(&b.area_um2));
            let frontier = pareto_frontier(
                &rows
                    .iter()
                    .map(|r| (r.area_um2, r.cycles_per_solve as f64))
                    .collect::<Vec<_>>(),
            );
            for (r, on) in rows.iter().zip(frontier) {
                println!(
                    "{}{:<24} {:>8.3} mm^2 {:>10} cycles",
                    if on { "* " } else { "  " },
                    r.name,
                    r.area_um2 / 1e6,
                    r.cycles_per_solve
                );
            }
            println!("\n'*' = Pareto-optimal");
            Ok(())
        }
        "sweep" => {
            check_args(
                args,
                &["--jobs", "--cache-dir", "--chaos-seed", "--scenario"],
                &["--smoke", "--no-cache", "--warm"],
            )?;
            let jobs: usize = flag(args, "--jobs")
                .map(|j| j.parse().map_err(|_| format!("bad job count `{j}`")))
                .transpose()?
                .unwrap_or_else(default_jobs)
                .max(1);
            let spec = if args.iter().any(|a| a == "--smoke") {
                SweepSpec::smoke()
            } else {
                SweepSpec::full()
            }
            .with_scenario(find_scenario(args)?);
            let mut engine = if args.iter().any(|a| a == "--no-cache") {
                SweepEngine::in_memory(jobs)
            } else {
                let dir = flag(args, "--cache-dir")
                    .or_else(|| std::env::var("SOC_SWEEP_CACHE_DIR").ok())
                    .unwrap_or_else(|| "target/sweep-cache".to_string());
                SweepEngine::with_cache_dir(jobs, dir)
                    .map_err(|e| format!("cache directory: {e}"))?
            };
            if let Some(chaos_seed) = flag(args, "--chaos-seed") {
                let chaos_seed: u64 = chaos_seed
                    .parse()
                    .map_err(|_| format!("bad chaos seed `{chaos_seed}`"))?;
                engine = engine.with_chaos(recoverable_strikes(chaos_seed));
            }
            let mut report = run_sweep(&spec, &engine).map_err(|e| e.to_string())?;
            if args.iter().any(|a| a == "--warm") {
                // Second pass over the warm engine: identical results,
                // zero regenerations. The report shows the warm pass.
                report = run_sweep(&spec, &engine).map_err(|e| e.to_string())?;
            }
            print!("{}", report.render());
            eprint!("{}", report.render_timing());
            if !report.faults.is_clean() {
                eprintln!("{}", report.faults.render_line());
            }
            if report.failed_points > 0 {
                eprintln!(
                    "warning: {} design point(s) exhausted their retry budget and render \
                     as FAILED rows",
                    report.failed_points
                );
            }
            let corrupt = engine.corrupt_entries();
            if corrupt > 0 {
                eprintln!(
                    "warning: {corrupt} corrupt cache entr{} quarantined under \
                     {} and regenerated",
                    if corrupt == 1 { "y" } else { "ies" },
                    engine
                        .quarantine_dir()
                        .map(|d| d.display().to_string())
                        .unwrap_or_else(|| "the quarantine directory".to_string())
                );
            }
            Ok(())
        }
        "chaos" => {
            check_args(args, &["--seed"], &["--smoke"])?;
            let seed: u64 = flag(args, "--seed")
                .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                .transpose()?
                .unwrap_or(7);
            let smoke = args.iter().any(|a| a == "--smoke");
            let report = run_chaos(seed, smoke);
            println!("{}", report.render());
            let aborted = report.aborted();
            if aborted > 0 {
                return Err(format!(
                    "{aborted} chaos trial(s) aborted: a recovery contract was violated"
                ));
            }
            if smoke {
                println!("smoke gate passed: zero aborted trials");
            }
            Ok(())
        }
        "bounds" => {
            check_args(args, &["--horizon"], &["--json"])?;
            let horizon: usize = flag(args, "--horizon")
                .map(|h| h.parse().map_err(|_| format!("bad horizon `{h}`")))
                .transpose()?
                .unwrap_or(10);
            let json = args.iter().any(|a| a == "--json");
            // The quadrotor's kernel dims, validated like `dse solve`'s
            // problem (a horizon below 2 has no input trajectory).
            let dims = quadrotor_hover::<f32>(horizon)
                .map_err(|e| e.to_string())?
                .dims();

            struct BackendBounds {
                name: String,
                claim: BoundClaim,
                kernels: Vec<(KernelId, CycleInterval, u64)>,
            }

            let mut backends = Vec::new();
            let mut violations: Vec<String> = Vec::new();
            for platform in &Platform::table1_registry() {
                let pipeline = pipeline_for(platform);
                let claim = pipeline.bound_claim();
                let mut kernels = Vec::new();
                for &kernel in KernelId::ALL.iter() {
                    let interval = kernel_bounds(pipeline.as_ref(), kernel, &dims)
                        .map_err(|e| e.to_string())?;
                    let cycles = pipeline
                        .steady_cycles(kernel, &dims)
                        .map_err(|e| e.to_string())?;
                    if !interval.contains(cycles) {
                        violations.push(format!(
                            "{} / {kernel}: simulated {cycles} outside {interval}",
                            platform.name
                        ));
                    }
                    if claim == BoundClaim::Exact && !interval.is_exact() {
                        violations.push(format!(
                            "{} / {kernel}: exactness claimed but interval is {interval}",
                            platform.name
                        ));
                    }
                    kernels.push((kernel, interval, cycles));
                }
                backends.push(BackendBounds {
                    name: platform.name.clone(),
                    claim,
                    kernels,
                });
            }

            if json {
                let mut out = String::from("{\n");
                out.push_str(&format!("  \"horizon\": {horizon},\n"));
                out.push_str("  \"backends\": [\n");
                for (i, b) in backends.iter().enumerate() {
                    let exact = b.kernels.iter().filter(|(_, iv, _)| iv.is_exact()).count();
                    let agree = b
                        .kernels
                        .iter()
                        .filter(|(_, iv, c)| iv.contains(*c))
                        .count();
                    let max_rel = b
                        .kernels
                        .iter()
                        .map(|(_, iv, _)| iv.rel_width())
                        .fold(0.0f64, f64::max);
                    out.push_str(&format!(
                        "    {{\"name\": \"{}\", \"claim\": \"{}\", \"exact\": {exact}, \
                         \"contained\": {agree}, \"kernels\": {}, \
                         \"max_rel_width\": {max_rel:.6}, \"per_kernel\": [\n",
                        json_escape(&b.name),
                        b.claim.label(),
                        b.kernels.len()
                    ));
                    for (j, (k, iv, c)) in b.kernels.iter().enumerate() {
                        out.push_str(&format!(
                            "      {{\"kernel\": \"{k}\", \"lower\": {}, \"upper\": {}, \
                             \"simulated\": {c}, \"contained\": {}}}{}\n",
                            iv.lo,
                            iv.hi,
                            iv.contains(*c),
                            if j + 1 < b.kernels.len() { "," } else { "" }
                        ));
                    }
                    out.push_str(&format!(
                        "    ]}}{}\n",
                        if i + 1 < backends.len() { "," } else { "" }
                    ));
                }
                out.push_str("  ],\n");
                out.push_str(&format!("  \"violations\": {}\n}}", violations.len()));
                println!("{out}");
            } else {
                let rows: Vec<Vec<String>> = backends
                    .iter()
                    .map(|b| {
                        let exact = b.kernels.iter().filter(|(_, iv, _)| iv.is_exact()).count();
                        let agree = b
                            .kernels
                            .iter()
                            .filter(|(_, iv, c)| iv.contains(*c))
                            .count();
                        let max_rel = b
                            .kernels
                            .iter()
                            .map(|(_, iv, _)| iv.rel_width())
                            .fold(0.0f64, f64::max);
                        vec![
                            b.name.clone(),
                            b.claim.label().to_string(),
                            format!("{exact}/{}", b.kernels.len()),
                            format!("{agree}/{}", b.kernels.len()),
                            format!("{:.1}%", 100.0 * max_rel),
                        ]
                    })
                    .collect();
                println!(
                    "{}",
                    markdown_table(
                        &[
                            "configuration",
                            "claim",
                            "exact kernels",
                            "contained",
                            "max interval width"
                        ],
                        &rows
                    )
                );
            }
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!("bound violation: {v}");
                }
                return Err(format!("{} bound violation(s)", violations.len()));
            }
            if !json {
                println!("all analytical bounds verified against trace simulation");
            }
            Ok(())
        }
        "energy" => {
            check_args(args, &[], &[])?;
            let params = EnergyParams::default();
            let rows: Vec<Vec<String>> = Platform::table1_registry()
                .iter()
                .map(|p| {
                    let r = solve_energy(p, 10, &params).map_err(|e| e.to_string())?;
                    Ok(vec![
                        r.platform.clone(),
                        format!("{:.0}", r.total_nj()),
                        format!("{:.0}", r.solves_per_mj),
                    ])
                })
                .collect::<Result<_, String>>()?;
            println!(
                "{}",
                markdown_table(&["platform", "nJ/solve", "solves/mJ"], &rows)
            );
            Ok(())
        }
        "solve" => {
            check_args(args, &["--platform", "--horizon"], &[])?;
            let name = flag(args, "--platform").ok_or("solve requires --platform NAME")?;
            let horizon: usize = flag(args, "--horizon")
                .map(|h| h.parse().map_err(|_| format!("bad horizon `{h}`")))
                .transpose()?
                .unwrap_or(10);
            let platform = find_platform(&name)?;
            let s = solve_scenario_summary(&platform, &Scenario::hover(), horizon)
                .map_err(|e| e.to_string())?;
            println!(
                "{}: converged={} in {} iterations\n{} cycles/solve -> {:.0} MPC Hz at 1 GHz",
                platform.name,
                s.converged,
                s.iterations,
                s.total_cycles,
                1.0e9 / s.total_cycles as f64
            );
            Ok(())
        }
        "kernels" => {
            check_args(args, &["--platform"], &[])?;
            let name = flag(args, "--platform").ok_or("kernels requires --platform NAME")?;
            let platform = find_platform(&name)?;
            let breakdown = solve_scenario_summary(&platform, &Scenario::hover(), 10)
                .map_err(|e| e.to_string())?
                .kernel_cycles;
            let total = breakdown.total();
            let rows: Vec<Vec<String>> = breakdown
                .iter()
                .map(|(k, c)| {
                    vec![
                        k.to_string(),
                        c.to_string(),
                        format!("{:.1}%", 100.0 * c as f64 / total.max(1) as f64),
                    ]
                })
                .collect();
            println!("{}", markdown_table(&["kernel", "cycles", "share"], &rows));
            Ok(())
        }
        "verify" => {
            check_args(args, &["--platform"], &["--verbose", "--strict", "--json"])?;
            let dims = ProblemDims {
                nx: 12,
                nu: 4,
                horizon: 10,
            };
            let verbose = args.iter().any(|a| a == "--verbose");
            let strict = args.iter().any(|a| a == "--strict");
            let json = args.iter().any(|a| a == "--json");
            let platforms = match flag(args, "--platform") {
                Some(name) => {
                    let p = shipped_configurations()
                        .into_iter()
                        .find(|p| p.name.eq_ignore_ascii_case(&name))
                        .ok_or_else(|| format!("unknown platform `{name}`; run `dse list`"))?;
                    vec![p]
                }
                None => shipped_configurations(),
            };
            let mut total = [0usize; 3]; // errors, warnings, perf lints
            let mut json_platforms = Vec::new();
            for p in &platforms {
                let reports = verify_platform(p, &dims);
                let count = |s| reports.iter().map(|r| r.report.count(s)).sum::<usize>();
                let (e, w, l) = (
                    count(Severity::Error),
                    count(Severity::Warn),
                    count(Severity::Perf),
                );
                total[0] += e;
                total[1] += w;
                total[2] += l;
                if json {
                    let mut traces = Vec::new();
                    for r in &reports {
                        let diags: Vec<String> = r
                            .report
                            .diagnostics()
                            .iter()
                            .map(|d| {
                                format!(
                                    "{{\"rule\": \"{}\", \"severity\": \"{}\", \
                                     \"index\": {}, \"message\": \"{}\"}}",
                                    d.rule,
                                    d.severity,
                                    d.index,
                                    json_escape(&d.message)
                                )
                            })
                            .collect();
                        traces.push(format!(
                            "        {{\"trace\": \"{}\", \"errors\": {}, \"warnings\": {}, \
                             \"perf\": {}, \"diagnostics\": [{}]}}",
                            json_escape(&r.trace),
                            r.report.error_count(),
                            r.report.warn_count(),
                            r.report.perf_count(),
                            diags.join(", ")
                        ));
                    }
                    json_platforms.push(format!(
                        "    {{\"name\": \"{}\", \"traces\": [\n{}\n    ]}}",
                        json_escape(&p.name),
                        traces.join(",\n")
                    ));
                } else {
                    println!(
                        "{:<40} {:>2} traces  {e:>3} errors  {w:>3} warnings  {l:>3} perf lints",
                        p.name,
                        reports.len()
                    );
                    for r in &reports {
                        let dirty = r.report.error_count() > 0
                            || (strict && r.report.perf_count() > 0)
                            || (verbose && !r.report.diagnostics().is_empty());
                        if dirty {
                            println!("  {}:", r.trace);
                            for line in r.report.render().lines() {
                                println!("    {line}");
                            }
                        }
                    }
                }
            }
            if json {
                println!(
                    "{{\n  \"strict\": {strict},\n  \"platforms\": [\n{}\n  ],\n  \
                     \"totals\": {{\"errors\": {}, \"warnings\": {}, \"perf\": {}}}\n}}",
                    json_platforms.join(",\n"),
                    total[0],
                    total[1],
                    total[2]
                );
            } else {
                println!(
                    "\n{} platforms: {} errors, {} warnings, {} perf lints",
                    platforms.len(),
                    total[0],
                    total[1],
                    total[2]
                );
            }
            if total[0] > 0 {
                return Err(format!("{} error-severity findings", total[0]));
            }
            if strict && total[2] > 0 {
                return Err(format!(
                    "{} perf-lint findings (promoted to errors by --strict)",
                    total[2]
                ));
            }
            if !json {
                println!("all generated traces verified clean");
            }
            Ok(())
        }
        "faults" => {
            check_args(args, &["--seed", "--campaign", "--scenario"], &["--smoke"])?;
            let seed: u64 = flag(args, "--seed")
                .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                .transpose()?
                .unwrap_or(7);
            let gate = args.iter().any(|a| a == "--smoke");
            let kind = match flag(args, "--campaign").as_deref() {
                None => CampaignKind::Smoke,
                Some("smoke") => CampaignKind::Smoke,
                Some("full") => CampaignKind::Full,
                Some(other) => return Err(format!("unknown campaign `{other}`")),
            };
            let scenario = find_scenario(args)?;
            let report = run_campaign(seed, kind, &scenario).map_err(|e| e.to_string())?;
            println!("{}", report.render());
            if gate {
                let sdc = report.scalar_sdc();
                if sdc > 0 {
                    return Err(format!(
                        "{sdc} undetected corruption(s) on the scalar back-end"
                    ));
                }
                println!("smoke gate passed: zero silent corruptions on the scalar back-end");
            }
            Ok(())
        }
        "serve" | "bench-serve" => {
            check_args(
                args,
                &["--sessions", "--ticks", "--seed", "--workers"],
                &["--smoke"],
            )?;
            let artifacts = command == "bench-serve";
            let smoke = args.iter().any(|a| a == "--smoke");
            let mut cfg = BenchConfig::new(default_jobs());
            cfg.smoke = smoke;
            if smoke {
                // CI shape: a thousand tenants, a short horizon of ticks.
                cfg.sessions = 1000;
                cfg.ticks = 40;
            }
            if let Some(s) = flag(args, "--sessions") {
                cfg.sessions = s.parse().map_err(|_| format!("bad session count `{s}`"))?;
            }
            if let Some(s) = flag(args, "--ticks") {
                cfg.ticks = s.parse().map_err(|_| format!("bad tick count `{s}`"))?;
            }
            if let Some(s) = flag(args, "--seed") {
                cfg.seed = s.parse().map_err(|_| format!("bad seed `{s}`"))?;
            }
            if let Some(s) = flag(args, "--workers") {
                cfg.workers = s.parse().map_err(|_| format!("bad worker count `{s}`"))?;
            }
            let out = run_bench(&cfg, &matlib_accel::allocations).map_err(|e| e.to_string())?;
            println!("{}", out.report);
            let h = &out.host;
            eprintln!(
                "serve host stats: workers={} tick p50={} ns p99={} ns, \
                 {:.0} session-ticks/s, steady-state allocs={}, \
                 pool retries={}, watchdog trips={}",
                h.workers,
                h.tick_p50_ns,
                h.tick_p99_ns,
                h.session_ticks_per_sec,
                h.steady_allocs,
                h.retries,
                h.watchdog_trips
            );
            if artifacts {
                std::fs::create_dir_all("results")
                    .map_err(|e| format!("creating results/: {e}"))?;
                std::fs::write("results/serve_perf.txt", &out.report)
                    .map_err(|e| format!("writing results/serve_perf.txt: {e}"))?;
                std::fs::write("BENCH_serve.json", &out.json)
                    .map_err(|e| format!("writing BENCH_serve.json: {e}"))?;
                eprintln!("wrote results/serve_perf.txt and BENCH_serve.json");
            }
            if !out.gate_failures.is_empty() {
                return Err(format!(
                    "serve smoke gate failed: {}",
                    out.gate_failures.join("; ")
                ));
            }
            if smoke {
                println!(
                    "smoke gate passed: zero aborts, zero steady-state \
                     allocations, p99 within budget"
                );
            }
            Ok(())
        }
        "tune" => {
            check_args(args, &["--target"], &[])?;
            let target = flag(args, "--target").ok_or("tune requires --target KIND")?;
            let space = match target.as_str() {
                "rocket" => TuningSpace::scalar(CoreConfig::rocket()),
                "saturn" => TuningSpace::saturn(CoreConfig::rocket(), SaturnConfig::v512d256()),
                "gemmini" => {
                    TuningSpace::gemmini(CoreConfig::rocket(), GemminiConfig::os_4x4_32kb())
                }
                other => return Err(format!("unknown tuning target `{other}`")),
            };
            let dims = ProblemDims {
                nx: 12,
                nu: 4,
                horizon: 10,
            };
            println!("{}", tune(&space, &dims).report());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}
