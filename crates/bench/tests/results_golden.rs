//! Golden-file tests for the committed reports: every `soc-bench` binary
//! is run and its stdout compared **byte for byte** with
//! `results/<name>.txt` at the repository root. Cycle counts come from
//! deterministic trace simulation and every float is printed with fixed
//! formatting, so the reports are the same in debug and release and on
//! every run; host timings go to stderr and never reach a report.
//!
//! To regenerate after an intentional change to cycle models or report
//! formatting, run:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p soc-bench --test results_golden
//! ```
//!
//! then inspect the diff of `results/*.txt` before committing.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, path)` of every binary in `src/bin/`, in file-name order.
macro_rules! bins {
    ($($name:ident),* $(,)?) => {
        [$((stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))))),*]
    };
}

const BINS: [(&str, &str); 26] = bins![
    ablation_decoupling,
    ablation_gemmini,
    ablation_saturn,
    ablation_termination,
    autotuned_solver,
    fig02_kernel_breakdown,
    fig03_matlib_vs_handopt,
    fig04_lmul_sweep,
    fig05_operator_fusion,
    fig08_gemv_gemmini_heatmap,
    fig13_saturn_vs_gemmini_gemv,
    fig14_gemv_gemmini_vs_saturn,
    fig15_saturn_vs_gemmini_gemm,
    fig16_saturn_d128_breakdown,
    fig17_saturn_d256_breakdown,
    fig18_gemmini_breakdown,
    fig19_saturn_vs_gemmini_e2e,
    fig20_pareto,
    fig21_area_breakdown,
    future_gemv_e2e,
    pareto_energy,
    saturn_minimal_sweep,
    scaling_sweep,
    table1_perf_area,
    table2_gemv_area,
    workload_sensitivity,
];

/// Reports under `results/` that another program writes (`dse
/// bench-serve`), not a `soc-bench` binary.
const NOT_FROM_BENCH: [&str; 1] = ["serve_perf"];

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// File stems with extension `ext` in `dir`, sorted.
fn stems(dir: &Path, ext: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn every_bench_binary_matches_its_results_file() {
    let bins: Vec<String> = BINS.iter().map(|(name, _)| name.to_string()).collect();
    let sources = stems(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin"), "rs");
    assert_eq!(bins, sources, "BINS must list every binary in src/bin");

    let outputs: Vec<(&str, Vec<u8>)> = std::thread::scope(|scope| {
        let runs: Vec<_> = BINS
            .iter()
            .map(|&(name, path)| {
                scope.spawn(move || {
                    let out = Command::new(path)
                        .output()
                        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
                    assert!(
                        out.status.success(),
                        "{name} failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    );
                    (name, out.stdout)
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("runner thread"))
            .collect()
    });

    let path = |name: &str| results_dir().join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        for (name, stdout) in &outputs {
            std::fs::write(path(name), stdout).unwrap();
        }
    }
    let reports: Vec<String> = stems(&results_dir(), "txt")
        .into_iter()
        .filter(|r| !NOT_FROM_BENCH.contains(&r.as_str()))
        .collect();
    assert_eq!(
        reports, bins,
        "each binary needs a results file and each results file a binary"
    );
    let drifted: Vec<&str> = outputs
        .iter()
        .filter(|(name, stdout)| std::fs::read(path(name)).unwrap() != *stdout)
        .map(|(name, _)| *name)
        .collect();
    assert!(
        drifted.is_empty(),
        "stdout drifted from results/ for {drifted:?}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}
