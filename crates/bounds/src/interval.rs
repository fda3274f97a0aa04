//! The interval domain the analyzer computes over.

/// A closed integer interval `[lo, hi]` of cycle counts.
///
/// The analyzer's contract: the trace-simulated cycle count always lies
/// inside the interval, and `lo == hi` exactly when the backend's
/// [`soc_backend::BoundClaim`] is `Exact`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleInterval {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl CycleInterval {
    /// A non-empty interval. Debug-asserts `lo <= hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        debug_assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        CycleInterval { lo, hi: hi.max(lo) }
    }

    /// The singleton interval `[v, v]`.
    pub fn exact(v: u64) -> Self {
        CycleInterval { lo: v, hi: v }
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the interval is a singleton.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Absolute width `hi − lo`.
    pub fn width(&self) -> u64 {
        self.hi - self.lo
    }

    /// Width relative to the lower bound (0.0 for exact intervals).
    pub fn rel_width(&self) -> f64 {
        self.width() as f64 / self.lo.max(1) as f64
    }
}

impl std::fmt::Display for CycleInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_exact() {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let i = CycleInterval::new(10, 14);
        assert!(i.contains(10) && i.contains(14) && !i.contains(15));
        assert_eq!(i.width(), 4);
        assert!(!i.is_exact());
        assert_eq!(format!("{i}"), "[10, 14]");
        let e = CycleInterval::exact(7);
        assert!(e.is_exact() && e.contains(7));
        assert_eq!(format!("{e}"), "7");
        assert!((CycleInterval::new(100, 110).rel_width() - 0.1).abs() < 1e-12);
    }
}
