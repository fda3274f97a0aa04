//! The sweep engine: a parallel, memoized [`CycleSource`].
//!
//! Every batch runs in three phases:
//!
//! 1. **Probe** (serial, under the cache lock): each request is keyed
//!    and looked up. Hits are counted per tier; the *first* occurrence
//!    of each missing key becomes a work item, later duplicates are
//!    coalesced onto it. Because this phase is serial and in request
//!    order, the hit/miss/coalesced accounting is identical for every
//!    `--jobs` value.
//! 2. **Execute** (parallel, lock-free): the deduplicated work items are
//!    priced on the shard pool with per-item panic isolation — a
//!    panicking item is retried under the engine's [`RetryPolicy`], and
//!    only an exhausted budget surfaces as a failure slot. Pricing is a
//!    pure function of the request, so scheduling cannot change any
//!    result.
//! 3. **Commit + assemble** (serial): successful results are inserted
//!    into the cache in work-item order, failures are held aside, then
//!    every request — hit, miss, or failure — is answered in request
//!    order. Failed items answer with
//!    [`tinympc::Error::ShardFailed`] instead of aborting the batch.
//!
//! The result: bit-identical answers to [`SerialSource`] for any thread
//! count, with deterministic cache statistics and nondeterministic
//! timing confined to [`ShardStats`].
//!
//! Failure containment is layered: the shard pool isolates panics, the
//! engine's mutex recovers from poisoning (`PoisonError::into_inner` —
//! batch state is re-validated on every commit, so a lock abandoned
//! mid-panic cannot brick the process-wide engine), and the disk cache
//! quarantines and heals corrupt entries (see [`crate::cache`]).
//!
//! [`SerialSource`]: soc_dse::experiments::SerialSource

use crate::cache::{HitLevel, SweepCache};
use crate::key::{kernel_key, solve_key, Key};
use crate::pool::{run_sharded_isolated, RetryPolicy, ShardFailure, ShardStats};
use soc_dse::experiments::{
    solve_scenario_summary, standalone_kernel, CycleSource, KernelRequest, SolveRequest,
    SolveSummary,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Deterministic cache accounting for an engine (or one pass of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total requests submitted.
    pub requests: usize,
    /// Requests answered from the in-memory tier.
    pub memory_hits: usize,
    /// Requests answered from the on-disk tier.
    pub disk_hits: usize,
    /// Duplicate in-batch requests folded onto an in-flight work item.
    pub coalesced: usize,
    /// Requests that forced a regeneration (trace + simulation).
    pub misses: usize,
}

impl EngineStats {
    /// Requests that did *not* regenerate anything.
    pub fn hits(&self) -> usize {
        self.memory_hits + self.disk_hits + self.coalesced
    }

    /// Hit fraction in percent; an empty engine reports 0%.
    pub fn hit_rate_percent(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            100.0 * self.hits() as f64 / self.requests as f64
        }
    }

    /// One-line deterministic rendering for reports.
    pub fn render_line(&self) -> String {
        format!(
            "cache: {} requests, {} hits ({} memory, {} disk, {} coalesced), {} misses, hit rate {:.1}%",
            self.requests,
            self.hits(),
            self.memory_hits,
            self.disk_hits,
            self.coalesced,
            self.misses,
            self.hit_rate_percent()
        )
    }
}

/// Fault-recovery accounting for an engine: what the isolation layers
/// absorbed. Retry and watchdog counts come from the shard pool;
/// `failed_items` counts work items that exhausted their retry budget
/// and surfaced as [`tinympc::Error::ShardFailed`].
///
/// Reported to stderr (never into a golden-checked report body): under
/// chaos injection the *values* are seed-deterministic, but a clean run
/// keeps this struct all-zero and silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Extra attempts spent re-running panicked items (recoveries).
    pub retries: usize,
    /// Items whose successful computation overran the per-item deadline.
    pub watchdog_trips: usize,
    /// Items that failed every attempt of their budget.
    pub failed_items: usize,
    /// Lock-poisoning events the engine recovered from.
    pub poison_recoveries: usize,
}

impl FaultStats {
    /// True when every counter is zero (nothing to report).
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }

    /// One-line rendering for stderr.
    pub fn render_line(&self) -> String {
        format!(
            "faults: {} retries, {} failed items, {} watchdog trips, {} poison recoveries",
            self.retries, self.failed_items, self.watchdog_trips, self.poison_recoveries
        )
    }
}

/// Context handed to a [`ChaosHook`] before every work-item attempt.
#[derive(Debug, Clone, Copy)]
pub struct ChaosCtx {
    /// Batch ordinal within the engine (0 for the first batch
    /// submitted, incrementing per batch — deterministic, since batches
    /// are submitted serially).
    pub batch: u64,
    /// Work-item index within the batch's deduplicated work list.
    pub item: usize,
    /// Attempt number, starting at 1.
    pub attempt: u32,
}

/// What an injected platform-level fault does to one attempt.
#[derive(Debug, Clone)]
pub enum ChaosAction {
    /// Panic with this message (exercises the pool's isolation/retry).
    Panic(String),
    /// Sleep this long before computing (exercises the watchdog).
    Delay(Duration),
}

/// Deterministic fault-injection hook consulted before every work-item
/// attempt. Keyed only on [`ChaosCtx`] — batch ordinal, item index and
/// attempt are all scheduling-independent, so an injected campaign
/// produces identical results for every `--jobs` value.
pub type ChaosHook = Arc<dyn Fn(&ChaosCtx) -> Option<ChaosAction> + Send + Sync>;

struct Inner {
    cache: SweepCache,
    stats: EngineStats,
    shards: Vec<ShardStats>,
    failed_items: usize,
    poison_recoveries: usize,
}

/// Parallel, memoized batch oracle for solve and kernel cycle counts.
pub struct SweepEngine {
    jobs: usize,
    retry: RetryPolicy,
    chaos: Option<ChaosHook>,
    batch_ordinal: AtomicU64,
    inner: Mutex<Inner>,
}

impl SweepEngine {
    /// Engine over an explicit cache with a `jobs`-wide shard pool.
    pub fn new(jobs: usize, cache: SweepCache) -> Self {
        SweepEngine {
            jobs: jobs.max(1),
            retry: RetryPolicy::default(),
            chaos: None,
            batch_ordinal: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                cache,
                stats: EngineStats::default(),
                shards: Vec::new(),
                failed_items: 0,
                poison_recoveries: 0,
            }),
        }
    }

    /// Engine with a memory-only cache (the `--no-cache` mode).
    pub fn in_memory(jobs: usize) -> Self {
        Self::new(jobs, SweepCache::in_memory())
    }

    /// Engine backed by an on-disk cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_cache_dir(
        jobs: usize,
        dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<Self> {
        Ok(Self::new(jobs, SweepCache::with_dir(dir)?))
    }

    /// Replaces the retry/watchdog policy (builder style, before the
    /// engine is shared).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a deterministic fault-injection hook (builder style,
    /// before the engine is shared). Used by chaos campaigns; `None` in
    /// production.
    pub fn with_chaos(mut self, hook: ChaosHook) -> Self {
        self.chaos = Some(hook);
        self
    }

    /// Shard-pool width.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Snapshot of the deterministic cache accounting.
    pub fn stats(&self) -> EngineStats {
        self.lock().stats
    }

    /// Per-shard timing collected so far (nondeterministic; report to
    /// stderr, never into a golden-checked report body).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.lock().shards.clone()
    }

    /// Fault-recovery accounting: retries, exhausted items, watchdog
    /// trips and lock-poison recoveries absorbed so far.
    pub fn fault_stats(&self) -> FaultStats {
        let inner = self.lock();
        let totals = ShardStats::total(&inner.shards);
        FaultStats {
            retries: totals.retries,
            watchdog_trips: totals.watchdog_trips,
            failed_items: inner.failed_items,
            poison_recoveries: inner.poison_recoveries,
        }
    }

    /// Clears accounting (but not cached results) — used between the
    /// cold and warm passes of `dse sweep --warm`.
    pub fn reset_stats(&self) {
        let mut inner = self.lock();
        inner.stats = EngineStats::default();
        inner.shards.clear();
        inner.failed_items = 0;
    }

    /// On-disk entries that were corrupt (torn writes, foreign bytes,
    /// checksum mismatches) and therefore quarantined and regenerated
    /// since the engine was opened. Nondeterministic across machines —
    /// report to stderr, never into a golden-checked body.
    pub fn corrupt_entries(&self) -> usize {
        self.lock().cache.corrupt_entries()
    }

    /// Where corrupt disk entries are moved ([`crate::cache::QUARANTINE_DIR`]
    /// under the cache directory), when a disk tier is attached.
    pub fn quarantine_dir(&self) -> Option<std::path::PathBuf> {
        self.lock().cache.quarantine_dir()
    }

    /// Deliberately poisons the engine's internal mutex — a chaos /
    /// testing hook proving that one panicked batch cannot brick the
    /// process-wide engine. The next `lock()` recovers the inner state
    /// via [`std::sync::PoisonError::into_inner`] and counts the event in
    /// [`FaultStats::poison_recoveries`].
    pub fn poison_for_chaos(&self) {
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = self.inner.lock();
                    panic!("chaos: deliberate lock poisoning");
                })
                .join()
        });
    }

    /// Locks the engine state, recovering from a poisoned mutex. The
    /// inner state is only ever mutated in short, self-contained
    /// critical sections (probe accounting, cache commit), each of
    /// which leaves it consistent even when a panic unwinds through a
    /// user-supplied closure — so abandoning the poison flag is sound,
    /// and strictly better than bricking every future batch.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.poison_recoveries += 1;
                self.inner.clear_poison();
                guard
            }
        }
    }

    /// The three-phase batch described in the module docs, generic over
    /// the work kinds. `on_fail` converts an exhausted-retry
    /// [`ShardFailure`] into the value domain (an `Err` slot for solve
    /// work; a panic for kernel work, whose `u64` channel has no error
    /// representation).
    fn batch<Req, V>(
        &self,
        requests: &[Req],
        key_of: impl Fn(&Req) -> Key,
        get: impl Fn(&mut SweepCache, &Key) -> Option<(V, HitLevel)>,
        put: impl Fn(&mut SweepCache, Key, &V),
        compute: impl Fn(&Req) -> V + Sync,
        on_fail: impl Fn(&ShardFailure) -> V,
    ) -> Vec<V>
    where
        Req: Clone + Sync,
        V: Clone + Send + Sync,
    {
        let keys: Vec<Key> = requests.iter().map(&key_of).collect();
        let batch = self.batch_ordinal.fetch_add(1, Ordering::Relaxed);

        // Phase 1: serial probe — deterministic accounting + dedup.
        let mut scheduled: HashSet<Key> = HashSet::new();
        let mut work: Vec<(Key, Req)> = Vec::new();
        {
            let mut inner = self.lock();
            for (request, key) in requests.iter().zip(&keys) {
                inner.stats.requests += 1;
                if let Some((_, level)) = get(&mut inner.cache, key) {
                    match level {
                        HitLevel::Memory => inner.stats.memory_hits += 1,
                        HitLevel::Disk => inner.stats.disk_hits += 1,
                    }
                } else if scheduled.contains(key) {
                    inner.stats.coalesced += 1;
                } else {
                    inner.stats.misses += 1;
                    scheduled.insert(*key);
                    work.push((*key, request.clone()));
                }
            }
        }

        // Phase 2: parallel execute — pure pricing, no locks held, every
        // attempt under panic isolation (plus chaos injection when a
        // campaign installed a hook).
        let chaos = self.chaos.clone();
        let (computed, shard_stats) =
            run_sharded_isolated(self.jobs, &work, self.retry, |item, attempt, (_, req)| {
                if let Some(hook) = &chaos {
                    match hook(&ChaosCtx {
                        batch,
                        item,
                        attempt,
                    }) {
                        Some(ChaosAction::Panic(msg)) => panic!("{msg}"),
                        Some(ChaosAction::Delay(delay)) => std::thread::sleep(delay),
                        None => {}
                    }
                }
                compute(req)
            });

        // Phase 3: commit successes in work order (failures held aside,
        // never cached — a later batch retries them from scratch), then
        // assemble in request order.
        let mut inner = self.lock();
        inner.shards.extend(shard_stats);
        let mut failed: HashMap<Key, ShardFailure> = HashMap::new();
        for ((key, _), outcome) in work.iter().zip(&computed) {
            match outcome {
                Ok(value) => put(&mut inner.cache, *key, value),
                Err(failure) => {
                    inner.failed_items += 1;
                    failed.insert(*key, failure.clone());
                }
            }
        }
        keys.iter()
            .map(|key| {
                if let Some((value, _)) = get(&mut inner.cache, key) {
                    value
                } else {
                    on_fail(
                        failed
                            .get(key)
                            .expect("every key resolved by probe, commit, or failure"),
                    )
                }
            })
            .collect()
    }
}

/// Maps a pool-level failure into the typed error taxonomy.
fn shard_failed(failure: &ShardFailure) -> tinympc::Error {
    tinympc::Error::ShardFailed {
        item: failure.item,
        attempts: failure.attempts,
        payload: failure.payload.clone(),
    }
}

impl CycleSource for SweepEngine {
    fn solve_batch(&self, requests: &[SolveRequest]) -> Vec<tinympc::Result<SolveSummary>> {
        self.batch(
            requests,
            solve_key,
            SweepCache::get_solve,
            |cache, key, value| cache.put_solve(key, value),
            |request| solve_scenario_summary(&request.platform, &request.scenario, request.horizon),
            |failure| Err(shard_failed(failure)),
        )
    }

    fn kernel_batch(&self, requests: &[KernelRequest]) -> Vec<u64> {
        self.batch(
            requests,
            kernel_key,
            SweepCache::get_kernel,
            |cache, key, value| cache.put_kernel(key, *value),
            |r| standalone_kernel(&r.platform, r.shape, r.residency, r.i, r.k),
            // The `u64` kernel channel has no error representation;
            // exhausting the budget here re-raises (still after the
            // rest of the batch completed).
            |failure| {
                panic!(
                    "standalone-kernel work item {} failed after {} attempt(s): {}",
                    failure.item, failure.attempts, failure.payload
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_dse::experiments::{KernelShape, Residency, Scenario, SerialSource};
    use soc_dse::platform::Platform;

    fn kernel_requests() -> Vec<KernelRequest> {
        let rocket = Platform::rocket_eigen();
        [(4, 4), (8, 4), (4, 4), (8, 8)] // note the duplicate
            .into_iter()
            .map(|(i, k)| KernelRequest {
                platform: rocket.clone(),
                shape: KernelShape::Gemv,
                residency: Residency::Cold,
                i,
                k,
            })
            .collect()
    }

    #[test]
    fn engine_matches_serial_source_bit_for_bit() {
        let requests = kernel_requests();
        let reference = SerialSource.kernel_batch(&requests);
        for jobs in [1, 4, 16] {
            let engine = SweepEngine::in_memory(jobs);
            assert_eq!(engine.kernel_batch(&requests), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn probe_accounting_is_deterministic_across_jobs() {
        let requests = kernel_requests();
        let mut all_stats = Vec::new();
        for jobs in [1, 4, 16] {
            let engine = SweepEngine::in_memory(jobs);
            engine.kernel_batch(&requests);
            all_stats.push(engine.stats());
        }
        assert!(all_stats.windows(2).all(|w| w[0] == w[1]));
        let stats = all_stats[0];
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.misses, 3, "3 unique keys");
        assert_eq!(stats.coalesced, 1, "the duplicate folds in-batch");
    }

    #[test]
    fn second_batch_is_all_memory_hits() {
        let requests = kernel_requests();
        let engine = SweepEngine::in_memory(2);
        let first = engine.kernel_batch(&requests);
        engine.reset_stats();
        let second = engine.kernel_batch(&requests);
        assert_eq!(first, second);
        let stats = engine.stats();
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.memory_hits, 4);
        assert!((stats.hit_rate_percent() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn solve_batch_matches_serial_and_warms() {
        let requests = vec![SolveRequest::new(
            Platform::rocket_eigen(),
            Scenario::hover(),
            6,
        )];
        let reference = SerialSource.solve_batch(&requests);
        let engine = SweepEngine::in_memory(4);
        assert_eq!(engine.solve_batch(&requests), reference);
        assert_eq!(engine.solve_batch(&requests), reference);
        let stats = engine.stats();
        assert_eq!((stats.misses, stats.memory_hits), (1, 1));
    }

    #[test]
    fn disk_cache_survives_engine_restart() {
        let dir = std::env::temp_dir().join(format!("soc-sweep-engine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let requests = kernel_requests();

        let cold = SweepEngine::with_cache_dir(3, &dir).unwrap();
        let first = cold.kernel_batch(&requests);
        assert_eq!(cold.stats().misses, 3);

        let warm = SweepEngine::with_cache_dir(3, &dir).unwrap();
        let second = warm.kernel_batch(&requests);
        assert_eq!(first, second);
        let stats = warm.stats();
        assert_eq!(stats.misses, 0, "zero regenerations on a warm disk");
        assert_eq!(stats.disk_hits, 3);
        assert_eq!(
            stats.memory_hits, 1,
            "the duplicate hits the promoted entry"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_render_line_is_stable() {
        let stats = EngineStats {
            requests: 4,
            memory_hits: 1,
            disk_hits: 0,
            coalesced: 1,
            misses: 2,
        };
        assert_eq!(
            stats.render_line(),
            "cache: 4 requests, 2 hits (1 memory, 0 disk, 1 coalesced), 2 misses, hit rate 50.0%"
        );
        assert_eq!(EngineStats::default().hit_rate_percent(), 0.0);
    }

    #[test]
    fn poisoned_lock_is_recovered_not_fatal() {
        let requests = kernel_requests();
        let engine = SweepEngine::in_memory(2);
        let reference = engine.kernel_batch(&requests);
        engine.poison_for_chaos();
        // The engine keeps serving — from the (recovered) memory tier.
        engine.reset_stats();
        assert_eq!(engine.kernel_batch(&requests), reference);
        assert_eq!(engine.stats().misses, 0, "state survived the poisoning");
        let faults = engine.fault_stats();
        assert!(faults.poison_recoveries >= 1, "{faults:?}");
    }

    #[test]
    fn chaos_panic_on_first_attempt_is_recovered() {
        let requests = kernel_requests();
        let reference = SerialSource.kernel_batch(&requests);
        for jobs in [1, 4] {
            let hook: ChaosHook = Arc::new(|ctx: &ChaosCtx| {
                (ctx.item == 1 && ctx.attempt == 1)
                    .then(|| ChaosAction::Panic("chaos: injected worker panic".into()))
            });
            let engine = SweepEngine::in_memory(jobs).with_chaos(hook);
            assert_eq!(engine.kernel_batch(&requests), reference, "jobs={jobs}");
            let faults = engine.fault_stats();
            assert_eq!(faults.retries, 1, "jobs={jobs}");
            assert_eq!(faults.failed_items, 0);
        }
    }

    #[test]
    fn exhausted_solve_item_surfaces_shard_failed_and_spares_the_rest() {
        let requests = vec![
            SolveRequest::new(Platform::rocket_eigen(), Scenario::hover(), 6),
            SolveRequest::new(Platform::rocket_eigen(), Scenario::hover(), 7),
        ];
        let hook: ChaosHook = Arc::new(|ctx: &ChaosCtx| {
            (ctx.item == 1).then(|| ChaosAction::Panic("chaos: persistent fault".into()))
        });
        let engine = SweepEngine::in_memory(2).with_chaos(hook);
        let results = engine.solve_batch(&requests);
        assert!(results[0].is_ok(), "unfaulted item unaffected");
        match &results[1] {
            Err(tinympc::Error::ShardFailed {
                item,
                attempts,
                payload,
            }) => {
                assert_eq!(*item, 1);
                assert_eq!(*attempts, RetryPolicy::default().max_attempts);
                assert!(payload.contains("persistent fault"));
            }
            other => panic!("expected ShardFailed, got {other:?}"),
        }
        assert_eq!(engine.fault_stats().failed_items, 1);

        // Failures are never cached: a fresh batch without the fault
        // recomputes and succeeds.
        let healed = SweepEngine::in_memory(2);
        assert!(healed.solve_batch(&requests).iter().all(|r| r.is_ok()));
    }

    #[test]
    fn fault_stats_render_and_reset() {
        let stats = FaultStats {
            retries: 2,
            watchdog_trips: 1,
            failed_items: 3,
            poison_recoveries: 0,
        };
        assert_eq!(
            stats.render_line(),
            "faults: 2 retries, 3 failed items, 1 watchdog trips, 0 poison recoveries"
        );
        assert!(FaultStats::default().is_clean());
        assert!(!stats.is_clean());
    }
}
