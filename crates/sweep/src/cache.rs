//! Content-addressed cycle cache: in-memory map with an optional,
//! self-healing on-disk tier.
//!
//! Layout on disk (one file per entry, under the cache directory):
//!
//! ```text
//! <32-hex-digit key>.entry
//!   line 1: soc-sweep-cache v2        (format magic + version)
//!   line 2: kind solve | kind kernel | kind solve-bounds
//!   solve:  total_cycles / iterations / converged / kernels k=v,k=v,...
//!   kernel: cycles N
//!   solve-bounds: lo N / hi N
//!   last:   checksum <16-hex>         (FNV-1a over everything above)
//! ```
//!
//! Writes are atomic (`.tmp-<pid>` then rename) so a crashed or
//! concurrent `dse` never leaves a torn entry. Every entry carries a
//! checksum footer; an entry whose bytes fail the checksum or whose
//! body fails to parse is **quarantined** — moved into
//! `<dir>/quarantine/` next to a `.reason` file naming the corruption —
//! counted (see [`SweepCache::corrupt_entries`]), and treated as a
//! miss. The recompute then rewrites a healed entry at the original
//! path, so a corrupted cache converges back to a 100% hit rate on the
//! next warm run instead of silently degrading forever. Only `Ok`
//! results are persisted — errors stay in the in-memory tier so a
//! transient failure is never immortalized.

use crate::key::Key;
use soc_dse::experiments::SolveSummary;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use tinympc::{KernelCycles, KernelId};

/// Which tier answered a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Answered from the in-memory map.
    Memory,
    /// Answered from the on-disk tier (and promoted to memory).
    Disk,
}

/// v2: entries carry a `checksum` footer line (v1 entries are keyed
/// under the old `CACHE_VERSION` and are simply never probed).
const MAGIC: &str = "soc-sweep-cache v2";

/// Subdirectory corrupt entries are moved into, next to their reason
/// files.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Two-tier (memory + optional disk) cache for sweep work products.
#[derive(Debug, Default)]
pub struct SweepCache {
    dir: Option<PathBuf>,
    solves: HashMap<Key, tinympc::Result<SolveSummary>>,
    kernels: HashMap<Key, u64>,
    bounds: HashMap<Key, tinympc::Result<(u64, u64)>>,
    corrupt_entries: usize,
}

impl SweepCache {
    /// Memory-only cache (the `--no-cache` disk-less mode still
    /// memoizes within the process).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Cache backed by `dir`; the directory is created if absent.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SweepCache {
            dir: Some(dir),
            ..Self::default()
        })
    }

    /// The disk tier's directory, if one is attached.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Where corrupt entries are moved, if a disk tier is attached.
    pub fn quarantine_dir(&self) -> Option<PathBuf> {
        Some(self.dir.as_ref()?.join(QUARANTINE_DIR))
    }

    /// Number of entries resident in memory.
    pub fn len(&self) -> usize {
        self.solves.len() + self.kernels.len() + self.bounds.len()
    }

    /// On-disk entries that failed their checksum or body parse (torn
    /// writes, bit rot, foreign bytes) and were therefore quarantined
    /// and degraded to misses.
    pub fn corrupt_entries(&self) -> usize {
        self.corrupt_entries
    }

    /// True when no entries are resident in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probes for a solve summary; disk hits are promoted to memory.
    pub fn get_solve(&mut self, key: &Key) -> Option<(tinympc::Result<SolveSummary>, HitLevel)> {
        if let Some(v) = self.solves.get(key) {
            return Some((v.clone(), HitLevel::Memory));
        }
        let summary = self.read_entry(key, parse_solve)?;
        self.solves.insert(*key, Ok(summary));
        Some((Ok(summary), HitLevel::Disk))
    }

    /// Stores a solve summary in memory, and on disk when `Ok`.
    pub fn put_solve(&mut self, key: Key, value: &tinympc::Result<SolveSummary>) {
        if let Ok(summary) = value {
            self.write_entry(&key, &render_solve(summary));
        }
        self.solves.insert(key, value.clone());
    }

    /// Probes for a standalone-kernel cycle count.
    pub fn get_kernel(&mut self, key: &Key) -> Option<(u64, HitLevel)> {
        if let Some(&c) = self.kernels.get(key) {
            return Some((c, HitLevel::Memory));
        }
        let cycles = self.read_entry(key, parse_kernel)?;
        self.kernels.insert(*key, cycles);
        Some((cycles, HitLevel::Disk))
    }

    /// Stores a standalone-kernel cycle count in memory and on disk.
    pub fn put_kernel(&mut self, key: Key, cycles: u64) {
        self.write_entry(&key, &render_kernel(cycles));
        self.kernels.insert(key, cycles);
    }

    /// Probes for an analytical solve-bounds interval `(lo, hi)`.
    pub fn get_bounds(&mut self, key: &Key) -> Option<(tinympc::Result<(u64, u64)>, HitLevel)> {
        if let Some(v) = self.bounds.get(key) {
            return Some((v.clone(), HitLevel::Memory));
        }
        let interval = self.read_entry(key, parse_bounds)?;
        self.bounds.insert(*key, Ok(interval));
        Some((Ok(interval), HitLevel::Disk))
    }

    /// Stores an analytical solve-bounds interval in memory, and on disk
    /// when `Ok`.
    pub fn put_bounds(&mut self, key: Key, value: &tinympc::Result<(u64, u64)>) {
        if let Ok((lo, hi)) = value {
            self.write_entry(&key, &render_bounds(*lo, *hi));
        }
        self.bounds.insert(key, value.clone());
    }

    fn entry_path(&self, key: &Key) -> Option<PathBuf> {
        Some(self.dir.as_ref()?.join(format!("{}.entry", key.to_hex())))
    }

    fn read_entry<T>(&mut self, key: &Key, parse: fn(&str) -> Option<T>) -> Option<T> {
        let path = self.entry_path(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let reason = match verify_seal(&text) {
            Err(reason) => Some(reason),
            Ok(()) => match parse(&text) {
                Some(parsed) => return Some(parsed),
                // Checksum valid but the body is not something this
                // probe can use: format drift or a kind mismatch.
                None => Some("well-sealed entry with an unparsable body".to_string()),
            },
        };
        // The file exists but its bytes are bad: a degradation worth
        // surfacing (unlike a plain absent-entry miss) — quarantine the
        // evidence and let the recompute heal the original path.
        self.corrupt_entries += 1;
        self.quarantine(key, &path, &reason.unwrap_or_default());
        None
    }

    /// Moves a corrupt entry into the quarantine subdirectory and drops
    /// a `.reason` file beside it. Best-effort: IO failures degrade to
    /// leaving the bad entry in place (it will be overwritten by the
    /// healed rewrite anyway).
    fn quarantine(&self, key: &Key, path: &Path, reason: &str) {
        let Some(qdir) = self.quarantine_dir() else {
            return;
        };
        if std::fs::create_dir_all(&qdir).is_err() {
            return;
        }
        let hex = key.to_hex();
        let _ = std::fs::rename(path, qdir.join(format!("{hex}.entry")));
        let _ = std::fs::write(
            qdir.join(format!("{hex}.reason")),
            format!("soc-sweep quarantine\nkey {hex}\nreason {reason}\n"),
        );
    }

    /// Atomic write: tmp file + rename. IO failures degrade the disk
    /// tier to a no-op (the result is still served from memory).
    fn write_entry(&self, key: &Key, body: &str) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
        let sealed = seal(body);
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(sealed.as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, &path)
        };
        if write().is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// 64-bit FNV-1a over the entry body, rendered into the footer line.
fn body_checksum(body: &str) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = BASIS;
    for &b in body.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Appends the checksum footer to a rendered entry body.
fn seal(body: &str) -> String {
    format!("{body}checksum {:016x}\n", body_checksum(body))
}

/// Validates the checksum footer of on-disk bytes, returning the
/// corruption reason on failure.
fn verify_seal(text: &str) -> Result<(), String> {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let Some(footer_at) = trimmed.rfind('\n') else {
        return Err("entry too short for a checksum footer".to_string());
    };
    let (body, footer) = trimmed.split_at(footer_at + 1);
    let Some(stored) = footer.strip_prefix("checksum ") else {
        return Err("missing checksum footer".to_string());
    };
    let Ok(stored) = u64::from_str_radix(stored.trim_end(), 16) else {
        return Err(format!("unparsable checksum footer `{footer}`"));
    };
    let computed = body_checksum(body);
    if stored != computed {
        return Err(format!(
            "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
        ));
    }
    Ok(())
}

fn render_solve(s: &SolveSummary) -> String {
    let kernels: Vec<String> = s
        .kernel_cycles
        .iter()
        .map(|(k, c)| format!("{k:?}={c}"))
        .collect();
    format!(
        "{MAGIC}\nkind solve\ntotal_cycles {}\niterations {}\nconverged {}\nkernels {}\n",
        s.total_cycles,
        s.iterations,
        s.converged,
        kernels.join(",")
    )
}

fn render_kernel(cycles: u64) -> String {
    format!("{MAGIC}\nkind kernel\ncycles {cycles}\n")
}

fn render_bounds(lo: u64, hi: u64) -> String {
    format!("{MAGIC}\nkind solve-bounds\nlo {lo}\nhi {hi}\n")
}

fn field<'a>(lines: &mut std::str::Lines<'a>, name: &str) -> Option<&'a str> {
    lines.next()?.strip_prefix(name)?.strip_prefix(' ')
}

fn kernel_id_by_name(name: &str) -> Option<KernelId> {
    KernelId::ALL
        .iter()
        .copied()
        .find(|k| format!("{k:?}") == name)
}

fn parse_solve(text: &str) -> Option<SolveSummary> {
    let mut lines = text.lines();
    if lines.next()? != MAGIC || lines.next()? != "kind solve" {
        return None;
    }
    let total_cycles = field(&mut lines, "total_cycles")?.parse().ok()?;
    let iterations = field(&mut lines, "iterations")?.parse().ok()?;
    let converged = match field(&mut lines, "converged")? {
        "true" => true,
        "false" => false,
        _ => return None,
    };
    let mut kernel_cycles = KernelCycles::new();
    for pair in field(&mut lines, "kernels")?
        .split(',')
        .filter(|p| !p.is_empty())
    {
        let (name, cycles) = pair.split_once('=')?;
        kernel_cycles.add(kernel_id_by_name(name)?, cycles.parse().ok()?);
    }
    Some(SolveSummary {
        total_cycles,
        iterations,
        converged,
        kernel_cycles,
    })
}

fn parse_kernel(text: &str) -> Option<u64> {
    let mut lines = text.lines();
    if lines.next()? != MAGIC || lines.next()? != "kind kernel" {
        return None;
    }
    field(&mut lines, "cycles")?.parse().ok()
}

fn parse_bounds(text: &str) -> Option<(u64, u64)> {
    let mut lines = text.lines();
    if lines.next()? != MAGIC || lines.next()? != "kind solve-bounds" {
        return None;
    }
    let lo: u64 = field(&mut lines, "lo")?.parse().ok()?;
    let hi: u64 = field(&mut lines, "hi")?.parse().ok()?;
    (lo <= hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::key_of;

    fn summary() -> SolveSummary {
        let mut kernel_cycles = KernelCycles::new();
        kernel_cycles.add(KernelId::ForwardPass1, 123);
        kernel_cycles.add(KernelId::DualResidualInput, 7);
        SolveSummary {
            total_cycles: 392_261,
            iterations: 35,
            converged: true,
            kernel_cycles,
        }
    }

    #[test]
    fn solve_round_trips_through_text() {
        let s = summary();
        assert_eq!(parse_solve(&render_solve(&s)), Some(s));
    }

    /// The on-disk solve body, pinned: an entry written before the
    /// summary held a `KernelCycles` must still parse, and re-render to
    /// the same bytes, so existing caches stay valid.
    #[test]
    fn solve_entry_format_is_pinned() {
        let entry = "soc-sweep-cache v2\nkind solve\ntotal_cycles 55347\niterations 6\n\
                     converged true\nkernels ForwardPass1=1782,BackwardPass2=8100,\
                     UpdateSlack1=0,DualResidualInput=2286\n";
        let mut kernel_cycles = KernelCycles::new();
        kernel_cycles.add(KernelId::ForwardPass1, 1782);
        kernel_cycles.add(KernelId::BackwardPass2, 8100);
        kernel_cycles.add(KernelId::UpdateSlack1, 0);
        kernel_cycles.add(KernelId::DualResidualInput, 2286);
        let expected = SolveSummary {
            total_cycles: 55_347,
            iterations: 6,
            converged: true,
            kernel_cycles,
        };
        assert_eq!(parse_solve(entry), Some(expected));
        assert_eq!(render_solve(&expected), entry);
    }

    #[test]
    fn kernel_round_trips_through_text() {
        assert_eq!(parse_kernel(&render_kernel(40_961)), Some(40_961));
    }

    #[test]
    fn bounds_round_trip_through_text() {
        assert_eq!(parse_bounds(&render_bounds(100, 140)), Some((100, 140)));
        assert_eq!(parse_bounds(&render_bounds(7, 7)), Some((7, 7)));
        assert_eq!(
            parse_bounds("soc-sweep-cache v2\nkind solve-bounds\nlo 9\nhi 3\n"),
            None,
            "inverted intervals are rejected"
        );
        assert_eq!(parse_bounds(&render_kernel(9)), None);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        assert_eq!(parse_solve(""), None);
        assert_eq!(parse_solve("soc-sweep-cache v0\nkind solve\n"), None);
        assert_eq!(
            parse_kernel("soc-sweep-cache v2\nkind solve\ncycles 1\n"),
            None
        );
        assert_eq!(
            parse_solve(&render_solve(&summary()).replace("kernels", "kernelz")),
            None
        );
        assert_eq!(
            parse_solve(&render_solve(&summary()).replace("ForwardPass1", "NotAKernel")),
            None
        );
    }

    #[test]
    fn seal_round_trips_and_rejects_tampering() {
        let body = render_kernel(123);
        let sealed = seal(&body);
        assert!(verify_seal(&sealed).is_ok());
        // One flipped digit in the body: the checksum catches it.
        let tampered = sealed.replace("cycles 123", "cycles 124");
        let err = verify_seal(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        // Truncation (torn write) is caught too.
        assert!(verify_seal(&sealed[..sealed.len() / 2]).is_err());
        assert!(verify_seal("").is_err());
        assert!(verify_seal("no footer at all\n").is_err());
    }

    #[test]
    fn disk_tier_round_trips_and_promotes() {
        let dir = std::env::temp_dir().join(format!("soc-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_of("disk round trip");

        let mut writer = SweepCache::with_dir(&dir).unwrap();
        writer.put_solve(key, &Ok(summary()));
        writer.put_kernel(key_of("kernel"), 99);

        // A fresh cache over the same directory sees both entries as
        // disk hits, then serves them from memory.
        let mut reader = SweepCache::with_dir(&dir).unwrap();
        assert!(reader.is_empty());
        let (got, level) = reader.get_solve(&key).unwrap();
        assert_eq!(got.unwrap(), summary());
        assert_eq!(level, HitLevel::Disk);
        let (_, level) = reader.get_solve(&key).unwrap();
        assert_eq!(level, HitLevel::Memory);
        assert_eq!(reader.get_kernel(&key_of("kernel")).unwrap().0, 99);
        assert_eq!(reader.get_kernel(&key_of("absent")), None);

        // Torn/corrupt on-disk bytes degrade to a *counted* miss, not an
        // error — and a plain absent entry is not counted.
        std::fs::write(dir.join(format!("{}.entry", key.to_hex())), "garbage").unwrap();
        let mut corrupt = SweepCache::with_dir(&dir).unwrap();
        assert_eq!(corrupt.corrupt_entries(), 0);
        assert_eq!(corrupt.get_solve(&key), None);
        assert_eq!(corrupt.corrupt_entries(), 1);
        assert_eq!(corrupt.get_kernel(&key_of("never written")), None);
        assert_eq!(corrupt.corrupt_entries(), 1, "absent entries not counted");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_with_reason_then_healed() {
        let dir = std::env::temp_dir().join(format!("soc-sweep-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_of("quarantine me");
        let hex = key.to_hex();

        let mut writer = SweepCache::with_dir(&dir).unwrap();
        writer.put_kernel(key, 4_321);

        // Corrupt the entry on disk (simulated bit rot).
        let entry = dir.join(format!("{hex}.entry"));
        let bytes = std::fs::read_to_string(&entry).unwrap();
        std::fs::write(&entry, bytes.replace("4321", "9999")).unwrap();

        // The probe misses, counts, and quarantines entry + reason.
        let mut reader = SweepCache::with_dir(&dir).unwrap();
        assert_eq!(reader.get_kernel(&key), None);
        assert_eq!(reader.corrupt_entries(), 1);
        assert!(!entry.exists(), "corrupt entry moved out of the hot path");
        let qdir = reader.quarantine_dir().unwrap();
        assert!(qdir.join(format!("{hex}.entry")).exists());
        let reason = std::fs::read_to_string(qdir.join(format!("{hex}.reason"))).unwrap();
        assert!(reason.contains("checksum mismatch"), "{reason}");
        assert!(reason.contains(&hex), "{reason}");

        // Heal: the recompute rewrites the entry; a cold reopen now hits.
        reader.put_kernel(key, 4_321);
        let mut healed = SweepCache::with_dir(&dir).unwrap();
        assert_eq!(healed.get_kernel(&key), Some((4_321, HitLevel::Disk)));
        assert_eq!(healed.corrupt_entries(), 0, "healed entry is clean");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounds_disk_tier_round_trips_and_skips_errors() {
        let dir = std::env::temp_dir().join(format!("soc-sweep-bounds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_of("bounds entry");

        let mut writer = SweepCache::with_dir(&dir).unwrap();
        writer.put_bounds(key, &Ok((1_000, 1_250)));
        writer.put_bounds(
            key_of("failed bounds"),
            &Err(tinympc::Error::CorruptedWorkspace {
                what: "synthetic".into(),
            }),
        );

        let mut reader = SweepCache::with_dir(&dir).unwrap();
        let (got, level) = reader.get_bounds(&key).unwrap();
        assert_eq!(got.unwrap(), (1_000, 1_250));
        assert_eq!(level, HitLevel::Disk);
        assert_eq!(reader.get_bounds(&key).unwrap().1, HitLevel::Memory);
        assert_eq!(
            reader.get_bounds(&key_of("failed bounds")),
            None,
            "errored bounds are never persisted"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_only_cache_never_touches_disk() {
        let mut cache = SweepCache::in_memory();
        let key = key_of("mem");
        assert_eq!(cache.get_solve(&key), None);
        cache.put_solve(key, &Ok(summary()));
        assert_eq!(cache.get_solve(&key).unwrap().1, HitLevel::Memory);
        assert_eq!(cache.dir(), None);
    }
}
