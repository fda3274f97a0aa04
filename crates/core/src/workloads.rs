//! The kernel-size axes of the paper's heatmap sweeps.

/// The matrix-height (I) axis used by the paper's heatmap figures.
pub fn heatmap_heights() -> Vec<usize> {
    vec![4, 8, 12, 16, 24, 32, 48, 64]
}

/// The matrix-width / reduction-length (K) axis used by the heatmaps.
pub fn heatmap_widths() -> Vec<usize> {
    vec![4, 8, 12, 16, 24, 32, 48, 64]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_axes_nonempty() {
        assert!(!heatmap_heights().is_empty());
        assert_eq!(heatmap_heights().len(), heatmap_widths().len());
    }
}
