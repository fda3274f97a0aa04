//! Metric records, order statistics, digests and the result line.

use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Nearest-rank percentile (`p` in 0–100) of unsorted samples; 0 for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The fastest reading, position by position, of repetitions of
/// identical work: element `i` is the smallest of the repetitions'
/// element `i`. The shared host switches between a fast and a ~1.45×
/// slower speed every second or so, with a share of slow time that moves
/// from minute to minute; the fastest reading of each step measures the
/// code at the fast speed, the slow readings measure the neighbours.
/// Positions missing from shorter repetitions are skipped.
pub fn fastest_by_position(reps: &[Vec<f64>]) -> Vec<f64> {
    let len = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// The smallest of `values`; 0 for an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Mean time of one call of `f`, in the fastest of `batches` batches of
/// `calls` calls each (see [`fastest_by_position`] for why the fastest).
/// Two untimed batches warm caches first.
pub fn ns_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let calls = calls.max(1);
    let mut per_call = Vec::with_capacity(batches);
    for batch in 0..batches.max(1) + 2 {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        if batch >= 2 {
            per_call.push(ns(start.elapsed()) / calls as f64);
        }
    }
    fastest(&per_call)
}

/// 64-bit FNV-1a, the digest printed for exact (simulated) outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The last stdout line of a run: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[3.0], 50.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn fastest_reading_is_taken_per_position() {
        let reps = vec![vec![3.0, 10.0], vec![1.0, 12.0], vec![9.0, 8.0]];
        assert_eq!(fastest_by_position(&reps), vec![1.0, 8.0]);
        assert_eq!(fastest_by_position(&[vec![2.0, 5.0], vec![1.0]]), vec![1.0]);
        assert_eq!(fastest_by_position(&[vec![5.0]]), vec![5.0]);
        assert!(fastest_by_position(&[]).is_empty());
        assert_eq!(fastest(&[3.0, 0.5, 2.0]), 0.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[metric("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
