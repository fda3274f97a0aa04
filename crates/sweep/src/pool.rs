//! Work-stealing shard execution with per-item panic isolation — both
//! one-shot batches and a long-lived tick executor.
//!
//! Items are claimed one at a time off a shared atomic counter, so
//! shards self-balance (a shard stuck on an expensive BOOM solve does
//! not idle the others), while results land in per-item slots so the
//! output order is the input order — scheduling can never reorder or
//! otherwise perturb what the caller sees.
//!
//! Every item runs under [`std::panic::catch_unwind`]: a panicking work
//! item never takes its shard (or the whole batch) down. Failed items
//! are retried in place up to a bounded attempt budget with a
//! deterministic per-attempt backoff; an item that exhausts the budget
//! surfaces as a typed [`ShardFailure`] while every other item still
//! carries its computed value. A per-item deadline watchdog counts
//! items whose (successful) computation overran the configured
//! budget — the result is kept, but the overrun becomes an observable
//! signal in [`ShardStats`].
//!
//! The claim/retry/watchdog discipline lives in one place
//! (`drain_batch`, driven through the [`BatchJob`] trait) and is
//! shared by two front ends:
//!
//! * [`run_sharded_isolated`] — the one-shot entry point over a
//!   borrowed item slice, used by the sweep engine. Scoped threads,
//!   spawned per batch.
//! * [`TickExecutor`] — a long-lived pool whose workers park between
//!   batches, built for recurring tick submission (the `soc-serve`
//!   session runtime submits the same job object thousands of times).
//!   After construction, [`TickExecutor::submit`] performs no heap
//!   allocation — the serve runtime's zero-allocation steady state
//!   extends through the executor itself.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// What one shard (worker thread) did during a batch.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Shard index within the pool.
    pub shard: usize,
    /// Items this shard computed (counting an item once however many
    /// attempts it took).
    pub items: usize,
    /// Extra attempts this shard spent re-running panicked items.
    pub retries: usize,
    /// Successful items whose computation overran the per-item
    /// deadline watchdog (the results are still used).
    pub watchdog_trips: usize,
    /// Wall time the shard spent, from spawn to drain.
    pub wall: Duration,
}

impl ShardStats {
    /// An empty record for shard `shard` — the identity element of
    /// [`ShardStats::merge`].
    pub fn zero(shard: usize) -> Self {
        ShardStats {
            shard,
            items: 0,
            retries: 0,
            watchdog_trips: 0,
            wall: Duration::ZERO,
        }
    }

    /// Folds another shard's record into this one: counters add, wall
    /// time takes the maximum (shards run concurrently, so the slowest
    /// shard bounds the batch), and `self.shard` is kept as the label.
    pub fn merge(&mut self, other: &ShardStats) {
        self.items += other.items;
        self.retries += other.retries;
        self.watchdog_trips += other.watchdog_trips;
        self.wall = self.wall.max(other.wall);
    }

    /// The merged total of a batch's per-shard records (labelled shard
    /// 0): the single summary engine reports and serve diagnostics
    /// print instead of hand-summing fields.
    pub fn total(stats: &[ShardStats]) -> ShardStats {
        let mut acc = ShardStats::zero(0);
        for s in stats {
            acc.merge(s);
        }
        acc
    }
}

/// One work item that panicked on every attempt of its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Index of the item within the batch.
    pub item: usize,
    /// Attempts made (the full budget).
    pub attempts: u32,
    /// Stringified panic payload from the last attempt.
    pub payload: String,
}

/// Bounded-retry and watchdog policy for a sharded batch.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per item (first run + retries). Clamped to >= 1.
    pub max_attempts: u32,
    /// Base backoff slept before retry `n` as `backoff * n` — a
    /// deterministic, linearly growing schedule (ordering, not timing,
    /// is what the determinism contract covers).
    pub backoff: Duration,
    /// Per-item deadline: a successful attempt slower than this trips
    /// the watchdog counter in [`ShardStats`]. `None` disables it.
    pub item_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_micros(500),
            item_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (and never sleeps).
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            item_deadline: None,
        }
    }
}

/// Renders a panic payload for diagnostics: `String` and `&str`
/// payloads verbatim, anything else as a placeholder.
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A batch of independent work items drained by shard workers.
///
/// The job owns its result storage: [`BatchJob::run`] computes and
/// records item `item` (it may panic — the pool catches, retries and
/// eventually routes the exhausted failure to [`BatchJob::fail`]).
/// Implementations must tolerate `run` being called again for the same
/// item after a panicked attempt.
pub trait BatchJob: Send + Sync {
    /// Number of items in the batch.
    fn items(&self) -> usize;
    /// Computes item `item` (attempts start at 1). May panic; the pool
    /// isolates and retries per [`RetryPolicy`].
    fn run(&self, item: usize, attempt: u32);
    /// Called once for an item whose every attempt panicked.
    fn fail(&self, failure: ShardFailure);
}

/// The shared claim/retry/watchdog loop: drains `job` from the shared
/// `next` counter until the batch is exhausted, returning this shard's
/// statistics. Both the scoped one-shot pool and the long-lived
/// [`TickExecutor`] run exactly this loop, so their isolation and
/// determinism guarantees are the same by construction.
fn drain_batch(
    job: &dyn BatchJob,
    policy: RetryPolicy,
    next: &AtomicUsize,
    shard: usize,
) -> ShardStats {
    let start = Instant::now();
    let budget = policy.max_attempts.max(1);
    let len = job.items();
    let mut done = 0usize;
    let mut retries = 0usize;
    let mut watchdog_trips = 0usize;
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= len {
            break;
        }
        let mut attempt = 1u32;
        loop {
            let attempt_start = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| job.run(idx, attempt))) {
                Ok(()) => {
                    if let Some(deadline) = policy.item_deadline {
                        if attempt_start.elapsed() > deadline {
                            watchdog_trips += 1;
                        }
                    }
                    break;
                }
                Err(panic) => {
                    if attempt >= budget {
                        job.fail(ShardFailure {
                            item: idx,
                            attempts: attempt,
                            payload: payload_string(panic.as_ref()),
                        });
                        break;
                    }
                    retries += 1;
                    if !policy.backoff.is_zero() {
                        std::thread::sleep(policy.backoff * attempt);
                    }
                    attempt += 1;
                }
            }
        }
        done += 1;
    }
    ShardStats {
        shard,
        items: done,
        retries,
        watchdog_trips,
        wall: start.elapsed(),
    }
}

/// Adapter giving a borrowed item slice + closure the [`BatchJob`]
/// shape: results land in per-item `OnceLock` slots, in item order.
struct SliceJob<'a, T, R, F> {
    items: &'a [T],
    slots: &'a [OnceLock<Result<R, ShardFailure>>],
    f: &'a F,
}

impl<T, R, F> BatchJob for SliceJob<'_, T, R, F>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, u32, &T) -> R + Sync,
{
    fn items(&self) -> usize {
        self.items.len()
    }

    fn run(&self, item: usize, attempt: u32) {
        let value = (self.f)(item, attempt, &self.items[item]);
        assert!(
            self.slots[item].set(Ok(value)).is_ok(),
            "work item {item} claimed twice"
        );
    }

    fn fail(&self, failure: ShardFailure) {
        let item = failure.item;
        assert!(
            self.slots[item].set(Err(failure)).is_ok(),
            "work item {item} claimed twice"
        );
    }
}

/// Runs `f` over every item on `jobs` worker threads with per-item
/// panic isolation, returning per-item `Result` slots **in item order**
/// plus per-shard statistics.
///
/// `f` receives `(item_index, attempt, item)`; `attempt` starts at 1
/// and reaches at most `policy.max_attempts`. A panicking attempt is
/// caught and retried in place (after a deterministic backoff) until
/// the budget is exhausted, at which point the slot carries a
/// [`ShardFailure`] with the last panic's payload. All other slots are
/// unaffected — one poisoned item can no longer abort a batch.
///
/// Determinism contract: as long as `f` is a pure function of
/// `(item, attempt)`, the returned vector is identical for every
/// `jobs >= 1`. Only [`ShardStats`] (timing, per-shard counts) vary
/// with scheduling.
pub fn run_sharded_isolated<T, R, F>(
    jobs: usize,
    items: &[T],
    policy: RetryPolicy,
    f: F,
) -> (Vec<Result<R, ShardFailure>>, Vec<ShardStats>)
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, u32, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    let slots: Vec<OnceLock<Result<R, ShardFailure>>> =
        items.iter().map(|_| OnceLock::new()).collect();
    let job = SliceJob {
        items,
        slots: &slots,
        f: &f,
    };
    let next = AtomicUsize::new(0);
    let mut stats = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|shard| {
                let (job, next) = (&job, &next);
                scope.spawn(move || drain_batch(job, policy, next, shard))
            })
            .collect();
        for handle in handles {
            // A shard body can no longer panic (every user closure runs
            // under catch_unwind), so a join failure would indicate a
            // bug in the pool itself.
            stats.push(handle.join().expect("shard bookkeeping panicked"));
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("work item left uncomputed"))
        .collect();
    (results, stats)
}

/// Shared coordination state between a [`TickExecutor`] and its parked
/// workers.
struct TickShared {
    state: Mutex<TickState>,
    /// Workers park here waiting for a new batch epoch (or shutdown).
    work: Condvar,
    /// The submitter parks here waiting for the batch to drain.
    done: Condvar,
    /// The shared work-stealing claim counter, reset per batch.
    next: AtomicUsize,
}

struct TickState {
    /// Bumped once per submitted batch; workers run each epoch exactly
    /// once.
    epoch: u64,
    /// The current batch, cleared implicitly by the next submission.
    job: Option<Arc<dyn BatchJob>>,
    policy: RetryPolicy,
    /// Workers still draining the current epoch.
    active: usize,
    /// Merged statistics of the current epoch.
    stats: ShardStats,
    shutdown: bool,
}

/// Recovers a poisoned coordination lock: the guarded state is plain
/// bookkeeping, valid regardless of where a panic unwound (and worker
/// bodies run user code only under `catch_unwind` anyway).
fn tick_lock(shared: &TickShared) -> std::sync::MutexGuard<'_, TickState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A long-lived work-stealing executor for recurring tick batches.
///
/// Where [`run_sharded_isolated`] spawns scoped threads per call, a
/// `TickExecutor` spawns its workers once and parks them between
/// batches — the shape a session runtime needs when it submits the same
/// batch object once per control tick, thousands of times. Each
/// [`submit`](TickExecutor::submit) runs the identical
/// `drain_batch` loop as the one-shot pool (same panic isolation,
/// same bounded retries, same watchdog), and performs **zero heap
/// allocations**: the job is passed by `Arc` reference, the claim
/// counter and stats accumulator are reused, and per-shard records are
/// merged in place via [`ShardStats::merge`].
///
/// Determinism contract: as long as `BatchJob::run` is a pure function
/// of `(item, attempt)` (results recorded per item), outcomes are
/// identical for every worker count; only the merged [`ShardStats`]
/// vary with scheduling.
pub struct TickExecutor {
    shared: Arc<TickShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl TickExecutor {
    /// Spawns `workers` parked worker threads (clamped to >= 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(TickShared {
            state: Mutex::new(TickState {
                epoch: 0,
                job: None,
                policy: RetryPolicy::no_retry(),
                active: 0,
                stats: ShardStats::zero(0),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker(&shared, shard))
            })
            .collect();
        TickExecutor {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    fn worker(shared: &TickShared, shard: usize) {
        let mut seen_epoch = 0u64;
        loop {
            let (job, policy) = {
                let mut state = tick_lock(shared);
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.epoch != seen_epoch {
                        break;
                    }
                    state = shared
                        .work
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                seen_epoch = state.epoch;
                let job = state.job.as_ref().expect("batch epoch without a job");
                (Arc::clone(job), state.policy)
            };
            let stats = drain_batch(job.as_ref(), policy, &shared.next, shard);
            drop(job);
            let mut state = tick_lock(shared);
            state.stats.merge(&stats);
            state.active -= 1;
            if state.active == 0 {
                shared.done.notify_all();
            }
        }
    }

    /// Runs one batch to completion on the parked workers and returns
    /// the merged shard statistics. Blocks until every item has
    /// drained; batches never overlap.
    pub fn submit(&self, job: &Arc<dyn BatchJob>, policy: RetryPolicy) -> ShardStats {
        let mut state = tick_lock(&self.shared);
        debug_assert_eq!(state.active, 0, "overlapping tick batches");
        self.shared.next.store(0, Ordering::Relaxed);
        state.job = Some(Arc::clone(job));
        state.policy = policy;
        state.stats = ShardStats::zero(0);
        state.active = self.workers.len();
        state.epoch += 1;
        let epoch = state.epoch;
        self.shared.work.notify_all();
        while state.active > 0 || state.epoch != epoch {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        state.stats
    }
}

impl Drop for TickExecutor {
    fn drop(&mut self) {
        {
            let mut state = tick_lock(&self.shared);
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    #[test]
    fn results_are_in_item_order_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<Result<u64, ShardFailure>> = items.iter().map(|x| Ok(x * x)).collect();
        for jobs in [1, 2, 4, 16, 128] {
            let (got, stats) =
                run_sharded_isolated(jobs, &items, RetryPolicy::no_retry(), |_, _, x| x * x);
            assert_eq!(got, expected, "jobs={jobs}");
            assert_eq!(stats.iter().map(|s| s.items).sum::<usize>(), items.len());
            assert_eq!(stats.len(), jobs.min(items.len()));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (got, stats) =
            run_sharded_isolated::<u8, u8, _>(8, &[], RetryPolicy::no_retry(), |_, _, x| *x);
        assert!(got.is_empty());
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].items, 0);
    }

    #[test]
    fn pool_never_spawns_more_shards_than_items() {
        let (got, stats) =
            run_sharded_isolated(16, &[1, 2], RetryPolicy::no_retry(), |_, _, x| x + 1);
        assert_eq!(got, vec![Ok(2), Ok(3)]);
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn panicking_item_is_recovered_on_retry() {
        // Item 3 panics on its first attempt only; the retry succeeds
        // and the batch is indistinguishable from a clean run.
        let items: Vec<u64> = (0..8).collect();
        let policy = RetryPolicy {
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        for jobs in [1, 4, 16] {
            let (got, stats) = run_sharded_isolated(jobs, &items, policy, |idx, attempt, x| {
                if idx == 3 && attempt == 1 {
                    panic!("chaos: injected worker panic");
                }
                x * 10
            });
            let values: Vec<u64> = got.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, vec![0, 10, 20, 30, 40, 50, 60, 70], "jobs={jobs}");
            assert_eq!(
                stats.iter().map(|s| s.retries).sum::<usize>(),
                1,
                "exactly one retry, jobs={jobs}"
            );
        }
    }

    #[test]
    fn exhausted_retry_surfaces_a_shard_failure() {
        let items: Vec<u64> = (0..6).collect();
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
            item_deadline: None,
        };
        for jobs in [1, 4] {
            let (got, _) = run_sharded_isolated(jobs, &items, policy, |idx, _, x| {
                if idx == 2 {
                    panic!("chaos: persistent fault");
                }
                x + 1
            });
            for (idx, slot) in got.iter().enumerate() {
                if idx == 2 {
                    let failure = slot.as_ref().unwrap_err();
                    assert_eq!(failure.item, 2);
                    assert_eq!(failure.attempts, 3);
                    assert!(failure.payload.contains("persistent fault"));
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), items[idx] + 1, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn failure_slots_are_jobs_invariant() {
        let items: Vec<u64> = (0..32).collect();
        let policy = RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
            item_deadline: None,
        };
        let outcome = |jobs| {
            run_sharded_isolated(jobs, &items, policy, |idx, _, x| {
                if idx % 7 == 3 {
                    panic!("fails every attempt");
                }
                x * 3
            })
            .0
        };
        let reference = outcome(1);
        for jobs in [2, 4, 16] {
            assert_eq!(outcome(jobs), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn watchdog_counts_slow_items_without_discarding_them() {
        let items: Vec<u64> = (0..4).collect();
        let policy = RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            item_deadline: Some(Duration::from_millis(5)),
        };
        let (got, stats) = run_sharded_isolated(2, &items, policy, |idx, _, x| {
            if idx == 1 {
                std::thread::sleep(Duration::from_millis(20));
            }
            x + 100
        });
        let values: Vec<u64> = got.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![100, 101, 102, 103], "slow results are kept");
        assert_eq!(stats.iter().map(|s| s.watchdog_trips).sum::<usize>(), 1);
    }

    #[test]
    fn attempts_are_bounded() {
        let calls = AtomicUsize::new(0);
        let items = [0u8];
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff: Duration::ZERO,
            item_deadline: None,
        };
        let (got, _) = run_sharded_isolated(1, &items, policy, |_, _, _: &u8| -> u8 {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("always");
        });
        assert_eq!(calls.load(Ordering::Relaxed), 4, "budget respected");
        assert_eq!(got[0].as_ref().unwrap_err().attempts, 4);
    }

    #[test]
    fn merge_adds_counters_and_takes_max_wall() {
        let mut a = ShardStats {
            shard: 0,
            items: 3,
            retries: 1,
            watchdog_trips: 0,
            wall: Duration::from_millis(10),
        };
        let b = ShardStats {
            shard: 5,
            items: 4,
            retries: 2,
            watchdog_trips: 1,
            wall: Duration::from_millis(7),
        };
        a.merge(&b);
        assert_eq!(a.shard, 0, "label kept");
        assert_eq!(a.items, 7);
        assert_eq!(a.retries, 3);
        assert_eq!(a.watchdog_trips, 1);
        assert_eq!(a.wall, Duration::from_millis(10));
        let t = ShardStats::total(&[a, b]);
        assert_eq!(t.items, 11);
        assert_eq!(t.retries, 5);
    }

    /// A recurring batch: each submission adds every item index into an
    /// accumulator. Attempt-independent, so outcomes are
    /// worker-count-invariant.
    struct SumJob {
        values: Vec<AtomicU64>,
        failures: AtomicUsize,
        panic_item: Option<usize>,
    }

    impl BatchJob for SumJob {
        fn items(&self) -> usize {
            self.values.len()
        }
        fn run(&self, item: usize, attempt: u32) {
            if Some(item) == self.panic_item && attempt == 1 {
                panic!("chaos: first attempt fails");
            }
            self.values[item].fetch_add(item as u64 + 1, Ordering::Relaxed);
        }
        fn fail(&self, _failure: ShardFailure) {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn tick_executor_drains_recurring_batches() {
        for workers in [1, 3, 8] {
            let pool = TickExecutor::new(workers);
            let job = Arc::new(SumJob {
                values: (0..50).map(|_| AtomicU64::new(0)).collect(),
                failures: AtomicUsize::new(0),
                panic_item: None,
            });
            let batch: Arc<dyn BatchJob> = job.clone();
            let ticks = 20u64;
            let mut merged = ShardStats::zero(0);
            for _ in 0..ticks {
                merged.merge(&pool.submit(&batch, RetryPolicy::no_retry()));
            }
            for (i, v) in job.values.iter().enumerate() {
                assert_eq!(
                    v.load(Ordering::Relaxed),
                    (i as u64 + 1) * ticks,
                    "workers={workers} item={i}"
                );
            }
            assert_eq!(merged.items as u64, 50 * ticks);
            assert_eq!(job.failures.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn tick_executor_retries_and_isolates_panics() {
        let pool = TickExecutor::new(4);
        let job = Arc::new(SumJob {
            values: (0..16).map(|_| AtomicU64::new(0)).collect(),
            failures: AtomicUsize::new(0),
            panic_item: Some(5),
        });
        let batch: Arc<dyn BatchJob> = job.clone();
        let stats = pool.submit(
            &batch,
            RetryPolicy {
                backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
        );
        assert_eq!(stats.retries, 1, "item 5 retried once");
        assert_eq!(job.values[5].load(Ordering::Relaxed), 6, "retry landed");
        assert_eq!(job.failures.load(Ordering::Relaxed), 0);
        // A persistent panic exhausts the budget and routes to fail().
        let job = Arc::new(PersistentPanic {
            failures: AtomicUsize::new(0),
        });
        let batch: Arc<dyn BatchJob> = job.clone();
        let stats = pool.submit(
            &batch,
            RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
                item_deadline: None,
            },
        );
        assert_eq!(stats.retries, 1);
        assert_eq!(job.failures.load(Ordering::Relaxed), 1);
    }

    struct PersistentPanic {
        failures: AtomicUsize,
    }

    impl BatchJob for PersistentPanic {
        fn items(&self) -> usize {
            1
        }
        fn run(&self, _item: usize, _attempt: u32) {
            panic!("always fails");
        }
        fn fail(&self, failure: ShardFailure) {
            assert_eq!(failure.attempts, 2);
            assert!(failure.payload.contains("always fails"));
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}
