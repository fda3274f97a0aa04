//! Chaos campaigns over the platform itself.
//!
//! The [`campaign`](crate::campaign) module injects faults into the
//! *modeled hardware*; this module injects faults into the *execution
//! stack that runs the experiments* — the shard pool, the sweep engine,
//! the on-disk cache — and asserts the recovery machinery holds its
//! contracts:
//!
//! - a worker panic mid-item is retried and the report stays
//!   byte-identical to a fault-free run;
//! - an item that fails every attempt renders as an explicit `FAILED`
//!   row and the partial sweep still completes, identically for every
//!   `--jobs` value;
//! - a corrupted cache entry is quarantined with a reason file, healed
//!   on recompute, and the next warm run regenerates nothing;
//! - a poisoned engine lock is recovered, not fatal;
//! - a slow item trips the per-item deadline watchdog without losing
//!   its result;
//! - the hardware fault campaign itself completes under its own
//!   classification invariants.
//!
//! Every trial is classified [`Recovered`](ChaosOutcome::Recovered)
//! (output identical to fault-free), [`Degraded`](ChaosOutcome::Degraded)
//! (bounded, explicit degradation — a `FAILED` row, a watchdog trip), or
//! [`Aborted`](ChaosOutcome::Aborted) (a contract was violated or the
//! trial died). The CI gate is **zero aborts**: `dse chaos --smoke`
//! exits nonzero if any trial aborts. Campaigns are pure functions of
//! their seed — the injection hook is keyed only on (batch ordinal,
//! work-item index, attempt), all scheduling-independent, so identical
//! seeds produce identical reports for any thread count.

use crate::campaign::{run_campaign, CampaignKind};
use matlib::rng::SplitMix64;
use soc_dse::experiments::{KernelRequest, KernelShape, Residency, Scenario};
use soc_dse::platform::Platform;
use soc_dse::report::markdown_table;
use soc_sweep::{run_sweep, ChaosAction, ChaosCtx, ChaosHook, RetryPolicy, SweepEngine, SweepSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// How one chaos trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// The fault was absorbed: output identical to a fault-free run.
    Recovered,
    /// The fault surfaced as bounded, explicit degradation (a `FAILED`
    /// row, a watchdog trip) and the run still completed
    /// deterministically.
    Degraded,
    /// A recovery contract was violated or the trial itself died —
    /// the outcome the CI gate asserts never happens.
    Aborted,
}

impl std::fmt::Display for ChaosOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ChaosOutcome::Recovered => "recovered",
            ChaosOutcome::Degraded => "degraded",
            ChaosOutcome::Aborted => "aborted",
        })
    }
}

/// One fault-injection trial and its classification.
#[derive(Debug, Clone)]
pub struct ChaosTrial {
    /// Which fault class / execution path the trial attacked.
    pub name: String,
    /// Classification.
    pub outcome: ChaosOutcome,
    /// Deterministic, human-readable evidence line.
    pub detail: String,
}

/// Full chaos-campaign result.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed every injection decision was derived from.
    pub seed: u64,
    /// True for the CI-sized campaign.
    pub smoke: bool,
    /// Every trial, in the fixed campaign order.
    pub trials: Vec<ChaosTrial>,
}

impl ChaosReport {
    /// Trials that violated a recovery contract.
    pub fn aborted(&self) -> usize {
        self.count(ChaosOutcome::Aborted)
    }

    fn count(&self, outcome: ChaosOutcome) -> usize {
        self.trials.iter().filter(|t| t.outcome == outcome).count()
    }

    /// Renders the report as a markdown table plus a summary line.
    /// Deterministic for a given seed and size.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .trials
            .iter()
            .map(|t| vec![t.name.clone(), t.outcome.to_string(), t.detail.clone()])
            .collect();
        let mut out = format!(
            "Chaos campaign (seed {}, {})\n\n",
            self.seed,
            if self.smoke { "smoke" } else { "full" }
        );
        out.push_str(&markdown_table(&["trial", "outcome", "detail"], &rows));
        out.push_str(&format!(
            "\n{} trials: {} recovered, {} degraded, {} aborted\n",
            self.trials.len(),
            self.count(ChaosOutcome::Recovered),
            self.count(ChaosOutcome::Degraded),
            self.aborted()
        ));
        out
    }
}

/// The standard recoverable-fault hook: panics the **first** attempt of
/// a seed-selected subset of work items (always including item 0 of
/// every batch, so at least one strike lands), leaving later attempts
/// clean — every strike is recovered by one retry. Keyed only on the
/// scheduling-independent [`ChaosCtx`], so an injected run's results are
/// identical for any `--jobs` value. This is the hook behind
/// `dse sweep --chaos-seed`.
pub fn recoverable_strikes(seed: u64) -> ChaosHook {
    Arc::new(move |ctx: &ChaosCtx| {
        if ctx.attempt != 1 {
            return None;
        }
        let mut mix = SplitMix64::new(seed ^ (ctx.batch << 32) ^ ctx.item as u64);
        (ctx.item == 0 || mix.next_u64().is_multiple_of(3))
            .then(|| ChaosAction::Panic("chaos: injected worker panic".into()))
    })
}

/// A fault that never clears: every attempt of one chosen work item
/// panics, exhausting the retry budget and surfacing as a `FAILED` row.
fn persistent_fault(batch: u64, item: usize) -> ChaosHook {
    Arc::new(move |ctx: &ChaosCtx| {
        (ctx.batch == batch && ctx.item == item)
            .then(|| ChaosAction::Panic("chaos: persistent fault".into()))
    })
}

/// Runs one trial body, translating both explicit contract violations
/// (`Err`) and panics into [`ChaosOutcome::Aborted`].
fn trial<F>(name: &str, body: F) -> ChaosTrial
where
    F: FnOnce() -> Result<(ChaosOutcome, String), String>,
{
    let (outcome, detail) = match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(classified)) => classified,
        Ok(Err(violation)) => (ChaosOutcome::Aborted, violation),
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (ChaosOutcome::Aborted, format!("trial panicked: {what}"))
        }
    };
    ChaosTrial {
        name: name.to_string(),
        outcome,
        detail,
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Worker panic mid-item, recovered by retry: the report must be
/// byte-identical to the fault-free run at every jobs count.
fn sweep_worker_panic(seed: u64, jobs_grid: &[usize]) -> Result<(ChaosOutcome, String), String> {
    let spec = SweepSpec::smoke();
    let reference = run_sweep(&spec, &SweepEngine::in_memory(1))
        .map_err(err)?
        .render();
    let mut retries = 0;
    for &jobs in jobs_grid {
        let engine = SweepEngine::in_memory(jobs).with_chaos(recoverable_strikes(seed));
        let report = run_sweep(&spec, &engine).map_err(err)?;
        if report.render() != reference {
            return Err(format!(
                "jobs={jobs}: recovered report diverged from clean run"
            ));
        }
        if report.failed_points != 0 {
            return Err(format!(
                "jobs={jobs}: {} item(s) failed outright under a recoverable fault",
                report.failed_points
            ));
        }
        retries += report.faults.retries;
    }
    if retries == 0 {
        return Err("no injected strike actually landed".to_string());
    }
    Ok((
        ChaosOutcome::Recovered,
        "injected worker panics retried; report byte-identical to the clean run at every jobs \
         count"
            .to_string(),
    ))
}

/// A persistent fault exhausts the retry budget: the sweep must still
/// complete, rendering one explicit `FAILED` row, identically for every
/// jobs count.
fn sweep_exhausted_retry(jobs_grid: &[usize]) -> Result<(ChaosOutcome, String), String> {
    let spec = SweepSpec::smoke();
    let mut renders = Vec::new();
    for &jobs in jobs_grid {
        let engine = SweepEngine::in_memory(jobs).with_chaos(persistent_fault(0, 0));
        let report = run_sweep(&spec, &engine).map_err(err)?;
        if report.failed_points != 1 {
            return Err(format!(
                "jobs={jobs}: expected exactly 1 failed point, saw {}",
                report.failed_points
            ));
        }
        renders.push(report.render());
    }
    if !renders[0].contains("FAILED") {
        return Err("partial report carries no explicit FAILED row".to_string());
    }
    if renders.windows(2).any(|w| w[0] != w[1]) {
        return Err("partial FAILED report differs across jobs counts".to_string());
    }
    Ok((
        ChaosOutcome::Degraded,
        "exhausted item rendered as an explicit FAILED row; partial sweep completed identically \
         at every jobs count"
            .to_string(),
    ))
}

/// The headline scenario: one corrupted cache entry *and* injected
/// worker panics in the same run. The report body must match the
/// fault-free run, the corrupt entry must be quarantined with a reason
/// file and healed by the recompute, and the next warm run must
/// regenerate nothing.
fn cache_corruption_heals(seed: u64) -> Result<(ChaosOutcome, String), String> {
    let dir = std::env::temp_dir().join(format!("soc-chaos-cache-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = cache_corruption_heals_in(seed, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn cache_corruption_heals_in(
    seed: u64,
    dir: &std::path::Path,
) -> Result<(ChaosOutcome, String), String> {
    let spec = SweepSpec::smoke();
    let cold = SweepEngine::with_cache_dir(1, dir).map_err(err)?;
    let reference = run_sweep(&spec, &cold).map_err(err)?;

    // Corrupt one entry deterministically: lexicographically first key,
    // torn in half (a crashed write without the atomic rename).
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(err)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    entries.sort();
    let victim = entries.first().ok_or("cold run wrote no cache entries")?;
    let bytes = std::fs::read_to_string(victim).map_err(err)?;
    std::fs::write(victim, &bytes[..bytes.len() / 2]).map_err(err)?;

    let engine = SweepEngine::with_cache_dir(4, dir)
        .map_err(err)?
        .with_chaos(recoverable_strikes(seed));
    let report = run_sweep(&spec, &engine).map_err(err)?;
    if report.body != reference.body {
        return Err("report body diverged from the fault-free run".to_string());
    }
    if engine.corrupt_entries() != 1 {
        return Err(format!(
            "expected 1 quarantined entry, counted {}",
            engine.corrupt_entries()
        ));
    }
    if report.stats.misses != 1 {
        return Err(format!(
            "expected exactly the corrupted entry to miss, saw {} misses",
            report.stats.misses
        ));
    }
    let qdir = dir.join(soc_sweep::cache::QUARANTINE_DIR);
    let quarantined = std::fs::read_dir(&qdir).map_err(err)?.count();
    if quarantined != 2 {
        return Err(format!(
            "quarantine holds {quarantined} file(s), expected entry + reason"
        ));
    }

    // Healed: a cold re-open over the same directory regenerates nothing.
    let healed = SweepEngine::with_cache_dir(1, dir).map_err(err)?;
    let warm = run_sweep(&spec, &healed).map_err(err)?;
    if warm.stats.misses != 0 {
        return Err(format!(
            "healed cache still missed {} time(s) on the warm run",
            warm.stats.misses
        ));
    }
    if warm.body != reference.body {
        return Err("warm report body diverged after healing".to_string());
    }
    Ok((
        ChaosOutcome::Recovered,
        "corrupt entry quarantined with a reason file and healed on recompute; report body \
         byte-identical; next warm run regenerated nothing"
            .to_string(),
    ))
}

/// A panic while holding the engine lock poisons it; the engine must
/// recover the state and keep serving.
fn lock_poisoning() -> Result<(ChaosOutcome, String), String> {
    let spec = SweepSpec::smoke();
    let engine = SweepEngine::in_memory(2);
    let reference = run_sweep(&spec, &engine).map_err(err)?;
    engine.poison_for_chaos();
    let report = run_sweep(&spec, &engine).map_err(err)?;
    if report.faults.poison_recoveries == 0 {
        return Err("poisoning was never observed by the lock".to_string());
    }
    if report.body != reference.body {
        return Err("report body changed after lock recovery".to_string());
    }
    if report.stats.misses != 0 {
        return Err("recovered engine lost its memoized state".to_string());
    }
    Ok((
        ChaosOutcome::Recovered,
        "engine lock poisoned mid-run, recovered via into_inner; memoized state intact, report \
         body unchanged"
            .to_string(),
    ))
}

/// An injected delay overruns the per-item deadline: the watchdog must
/// record the trip while keeping the (correct) result.
fn slow_item_watchdog() -> Result<(ChaosOutcome, String), String> {
    let requests: Vec<KernelRequest> = [(4usize, 4usize), (8, 4), (8, 8)]
        .into_iter()
        .map(|(i, k)| KernelRequest {
            platform: Platform::rocket_eigen(),
            shape: KernelShape::Gemv,
            residency: Residency::Cold,
            i,
            k,
        })
        .collect();
    use soc_dse::experiments::CycleSource;
    let reference = SweepEngine::in_memory(1).kernel_batch(&requests);
    let policy = RetryPolicy {
        item_deadline: Some(Duration::from_millis(60)),
        ..RetryPolicy::default()
    };
    let hook: ChaosHook = Arc::new(|ctx: &ChaosCtx| {
        (ctx.item == 1 && ctx.attempt == 1).then(|| ChaosAction::Delay(Duration::from_millis(150)))
    });
    let engine = SweepEngine::in_memory(2)
        .with_retry_policy(policy)
        .with_chaos(hook);
    if engine.kernel_batch(&requests) != reference {
        return Err("slow item changed a cycle count".to_string());
    }
    if engine.fault_stats().watchdog_trips == 0 {
        return Err("deadline overrun was never recorded".to_string());
    }
    Ok((
        ChaosOutcome::Degraded,
        "injected slow item overran the 60 ms per-item deadline; result kept bit-identical, trip \
         recorded in fault stats"
            .to_string(),
    ))
}

/// The hardware fault campaign under its own invariants: it must
/// complete, its classification buckets must partition the trials, and
/// (full campaigns only) a re-run must render identically.
fn faults_campaign(seed: u64, smoke: bool) -> Result<(ChaosOutcome, String), String> {
    let report = run_campaign(seed, CampaignKind::Smoke, &Scenario::hover()).map_err(err)?;
    for b in &report.backends {
        if b.detected + b.masked + b.sdc + b.deadline_missed != b.trials {
            return Err(format!(
                "classification buckets do not partition {} trials on {}",
                b.trials, b.backend
            ));
        }
    }
    if !smoke {
        let again = run_campaign(seed, CampaignKind::Smoke, &Scenario::hover()).map_err(err)?;
        if again.render() != report.render() {
            return Err("identical seeds rendered different campaign reports".to_string());
        }
    }
    Ok((
        ChaosOutcome::Recovered,
        "hardware fault campaign completed; classification buckets partition every trial"
            .to_string(),
    ))
}

/// Runs the full chaos campaign for one seed. `smoke` trims the jobs
/// grid and skips the campaign re-run so the CI gate stays
/// seconds-scale. Deterministic: identical `(seed, smoke)` pairs render
/// identical reports.
pub fn run_chaos(seed: u64, smoke: bool) -> ChaosReport {
    let jobs_grid: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };
    let trials = vec![
        trial("sweep/worker-panic", || sweep_worker_panic(seed, jobs_grid)),
        trial("sweep/exhausted-retry", || sweep_exhausted_retry(jobs_grid)),
        trial("sweep/cache-corruption", || cache_corruption_heals(seed)),
        trial("engine/lock-poisoning", lock_poisoning),
        trial("engine/slow-item-watchdog", slow_item_watchdog),
        trial("faults/campaign", || faults_campaign(seed, smoke)),
    ];
    ChaosReport {
        seed,
        smoke,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_7_smoke_has_zero_aborts() {
        let report = run_chaos(7, true);
        assert_eq!(report.aborted(), 0, "{}", report.render());
        let outcomes: Vec<ChaosOutcome> = report.trials.iter().map(|t| t.outcome).collect();
        assert_eq!(
            outcomes,
            vec![
                ChaosOutcome::Recovered,
                ChaosOutcome::Degraded,
                ChaosOutcome::Recovered,
                ChaosOutcome::Recovered,
                ChaosOutcome::Degraded,
                ChaosOutcome::Recovered,
            ],
            "{}",
            report.render()
        );
        let rendered = report.render();
        assert!(
            rendered.contains("Chaos campaign (seed 7, smoke)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("6 trials: 4 recovered, 2 degraded, 0 aborted"),
            "{rendered}"
        );
    }

    #[test]
    fn recoverable_strikes_hook_is_deterministic_and_lands() {
        let hook = recoverable_strikes(7);
        // Item 0 of every batch always strikes its first attempt.
        for batch in 0..4 {
            let ctx = ChaosCtx {
                batch,
                item: 0,
                attempt: 1,
            };
            assert!(hook(&ctx).is_some(), "batch {batch}");
            assert!(
                hook(&ChaosCtx { attempt: 2, ..ctx }).is_none(),
                "second attempts are always clean"
            );
        }
        // Same context, same decision — and the two seeds differ
        // somewhere on a wider item range.
        let other = recoverable_strikes(8);
        let decisions = |h: &ChaosHook| -> Vec<bool> {
            (0..64)
                .map(|item| {
                    h(&ChaosCtx {
                        batch: 1,
                        item,
                        attempt: 1,
                    })
                    .is_some()
                })
                .collect()
        };
        assert_eq!(decisions(&hook), decisions(&hook));
        assert_ne!(decisions(&hook), decisions(&other));
    }

    #[test]
    fn a_panicking_trial_is_classified_aborted_not_fatal() {
        let t = trial("synthetic/panic", || panic!("boom"));
        assert_eq!(t.outcome, ChaosOutcome::Aborted);
        assert!(t.detail.contains("boom"), "{}", t.detail);
        let t = trial("synthetic/violation", || Err("contract broken".into()));
        assert_eq!(t.outcome, ChaosOutcome::Aborted);
        assert_eq!(t.detail, "contract broken");
    }
}
