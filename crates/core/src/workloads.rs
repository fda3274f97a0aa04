//! Workload generators: random kernel sizes for the heatmap sweeps and
//! reference trajectories for closed-loop examples.

use matlib::rng::SplitMix64;
use matlib::{Scalar, Vector};

/// The matrix-height (I) axis used by the paper's heatmap figures.
pub fn heatmap_heights() -> Vec<usize> {
    vec![4, 8, 12, 16, 24, 32, 48, 64]
}

/// The matrix-width / reduction-length (K) axis used by the heatmaps.
pub fn heatmap_widths() -> Vec<usize> {
    vec![4, 8, 12, 16, 24, 32, 48, 64]
}

/// `n` random `(I, K)` kernel sizes in the paper's sweep range.
pub fn random_sizes(seed: u64, n: usize) -> Vec<(usize, usize)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.range_usize(4, 64), rng.range_usize(4, 64)))
        .collect()
}

/// Hover reference: all-zero states.
pub fn hover_reference<T: Scalar>(nx: usize, horizon: usize) -> Vec<Vector<T>> {
    (0..horizon).map(|_| Vector::zeros(nx)).collect()
}

/// A figure-eight reference trajectory for the 12-state quadrotor,
/// sampled from control step `step` at period `dt`.
///
/// Positions trace a lemniscate in the horizontal plane at constant
/// altitude; velocity references are the analytic derivatives so the
/// tracking problem is dynamically consistent.
///
/// # Panics
///
/// Panics if `nx < 9` (needs position and velocity states).
pub fn figure8_reference<T: Scalar>(
    nx: usize,
    horizon: usize,
    step: usize,
    dt: f64,
) -> Vec<Vector<T>> {
    assert!(nx >= 9, "figure-eight reference needs at least 9 states");
    let amp = 0.35;
    let omega = 2.0 * std::f64::consts::PI / 6.0; // one loop per 6 s
    (0..horizon)
        .map(|i| {
            let t = (step + i) as f64 * dt;
            let mut x = Vector::zeros(nx);
            x[0] = T::from_f64(amp * (omega * t).sin());
            x[1] = T::from_f64(0.5 * amp * (2.0 * omega * t).sin());
            x[2] = T::from_f64(0.0);
            x[6] = T::from_f64(amp * omega * (omega * t).cos());
            x[7] = T::from_f64(amp * omega * (2.0 * omega * t).cos());
            x
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sizes_are_in_range_and_deterministic() {
        let a = random_sizes(7, 50);
        let b = random_sizes(7, 50);
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|&(i, k)| (4..=64).contains(&i) && (4..=64).contains(&k)));
        assert_ne!(random_sizes(8, 50), a);
    }

    #[test]
    fn figure8_is_smooth_and_bounded() {
        let r = figure8_reference::<f64>(12, 100, 0, 0.01);
        assert_eq!(r.len(), 100);
        for w in r.windows(2) {
            let dx = (w[1][0] - w[0][0]).abs();
            assert!(dx < 0.01, "reference jumps by {dx}");
        }
        assert!(r.iter().all(|v| v.max_abs() < 1.0));
    }

    #[test]
    fn heatmap_axes_nonempty() {
        assert!(!heatmap_heights().is_empty());
        assert_eq!(heatmap_heights().len(), heatmap_widths().len());
    }
}
