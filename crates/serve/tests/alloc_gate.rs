//! Zero-allocation gate for the serving runtime's steady state.
//!
//! Installs the counting global allocator from `matlib-accel`. Its
//! counter is process-wide, so this file holds exactly one `#[test]`:
//! a sibling test on another harness thread would allocate inside the
//! measured window.

use matlib_accel::allocations;
use soc_serve::{plan_load, run_bench, BenchConfig, ServeRuntime};

#[global_allocator]
static GLOBAL: matlib_accel::CountingAllocator = matlib_accel::CountingAllocator;

/// After the warm-up ticks every solve, plant update, reference
/// restream, rung demotion and histogram record works out of
/// preallocated storage, both through the runtime directly and through
/// the bench entry point's probe plumbing (what `dse bench-serve
/// --smoke` gates on).
#[test]
fn steady_state_ticks_perform_zero_heap_allocations() {
    // The gate reads 0 for the right reason only if allocations on
    // executor pool workers are visible to the counter: check that ones
    // made on another thread are counted. `spawn` itself allocates a
    // few times on this thread, so the spawned thread allocates far
    // more than that and every one of them must show up here.
    const ON_THREAD: u64 = 1_000;
    let before = allocations();
    std::thread::spawn(|| {
        for _ in 0..ON_THREAD {
            drop(std::hint::black_box(vec![0u8; 64]));
        }
    })
    .join()
    .expect("allocating thread");
    let seen = allocations() - before;
    assert!(
        seen >= ON_THREAD,
        "saw {seen} allocations; a spawned thread made {ON_THREAD}"
    );

    let plan = plan_load(48, 7);
    let mut rt = ServeRuntime::new(&plan, 16, 7, 2).expect("runtime");
    let run = rt.run(16, &allocations);
    assert!(run.warmup_ticks >= 1, "warm-up window missing");
    assert_eq!(
        run.steady_allocs, 0,
        "steady-state ticks allocated {} times",
        run.steady_allocs
    );
    assert_eq!(run.pool.items, 48 * 16, "every session-tick ran");

    let cfg = BenchConfig {
        sessions: 48,
        ticks: 12,
        seed: 7,
        workers: 2,
        smoke: true,
    };
    let out = run_bench(&cfg, &allocations).expect("bench run");
    assert_eq!(
        out.host.steady_allocs, 0,
        "probe saw {} steady-state allocations",
        out.host.steady_allocs
    );
    assert!(
        out.gate_failures.is_empty(),
        "smoke gates failed: {:?}",
        out.gate_failures
    );
}
