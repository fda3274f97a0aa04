//! Integration guards for the serving runtime: worker-count-invariant,
//! reproducible reports. The zero-allocation steady-state gate lives in
//! `alloc_gate.rs`, alone in its test binary.

use soc_serve::{run_bench, BenchConfig};

/// The bench report body is a pure function of (sessions, ticks, seed):
/// every metric in it is computed from simulated cycles, which are
/// identical no matter how the tick batch is sharded across workers.
#[test]
fn bench_report_is_byte_identical_across_worker_counts() {
    let render = |workers: usize| {
        let cfg = BenchConfig {
            sessions: 96,
            ticks: 12,
            seed: 7,
            workers,
            smoke: false,
        };
        let out = run_bench(&cfg, &|| 0).expect("bench run");
        (out.report, out.json)
    };
    let (report1, json1) = render(1);
    for workers in [4, 16] {
        let (report, json) = render(workers);
        assert_eq!(report, report1, "report body diverged at workers={workers}");
        // The JSON's `deterministic` section must match too; the `host`
        // section may differ (wall times), so compare the deterministic
        // prefix, which ends right before the "host" key.
        let cut = |s: &str| {
            let at = s.find("\"host\"").expect("host section present");
            s[..at].to_string()
        };
        assert_eq!(
            cut(&json),
            cut(&json1),
            "deterministic JSON diverged at workers={workers}"
        );
    }
}

/// Same seed, same config, run twice: identical bytes (no hidden
/// iteration-order or time dependence in the report).
#[test]
fn bench_report_is_reproducible_for_a_fixed_seed() {
    let cfg = BenchConfig {
        sessions: 64,
        ticks: 8,
        seed: 21,
        workers: 3,
        smoke: false,
    };
    let a = run_bench(&cfg, &|| 0).expect("bench run");
    let b = run_bench(&cfg, &|| 0).expect("bench run");
    assert_eq!(a.report, b.report);
}
