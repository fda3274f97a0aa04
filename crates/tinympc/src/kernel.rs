//! The kernel taxonomy of TinyMPC (Algorithms 1–3 of the paper).

use std::fmt;

/// Problem dimensions relevant to kernel cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemDims {
    /// State dimension (`nx`, 12 for the quadrotor).
    pub nx: usize,
    /// Input dimension (`nu`, 4 for the quadrotor).
    pub nu: usize,
    /// Horizon length (`N` knot points).
    pub horizon: usize,
}

impl ProblemDims {
    /// Total state-trajectory elements (`nx · N`).
    pub fn state_elems(&self) -> usize {
        self.nx * self.horizon
    }

    /// Total input-trajectory elements (`nu · (N−1)`).
    pub fn input_elems(&self) -> usize {
        self.nu * (self.horizon - 1)
    }
}

/// The three behavioural classes of TinyMPC kernels the paper identifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Per-timestep operations with loop-carried data dependencies
    /// (Algorithm 1): small GEMVs chained through the horizon.
    Iterative,
    /// Whole-trajectory element-wise operations (Algorithm 2):
    /// saturation, dual updates, linear-cost refreshes.
    StripMining,
    /// Global maximum reductions over the trajectories (Algorithm 3):
    /// the ADMM convergence residuals.
    Reduction,
}

/// One of the fifteen TinyMPC kernel functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum KernelId {
    // Algorithm 1 — iterative.
    ForwardPass1,
    ForwardPass2,
    BackwardPass1,
    BackwardPass2,
    UpdateLinearCost4,
    // Algorithm 2 — strip-mining.
    UpdateSlack1,
    UpdateSlack2,
    UpdateDual1,
    UpdateLinearCost1,
    UpdateLinearCost2,
    UpdateLinearCost3,
    // Algorithm 3 — reductions.
    PrimalResidualState,
    DualResidualState,
    PrimalResidualInput,
    DualResidualInput,
}

impl KernelId {
    /// All kernels in a stable order.
    pub const ALL: [KernelId; 15] = [
        KernelId::ForwardPass1,
        KernelId::ForwardPass2,
        KernelId::BackwardPass1,
        KernelId::BackwardPass2,
        KernelId::UpdateLinearCost4,
        KernelId::UpdateSlack1,
        KernelId::UpdateSlack2,
        KernelId::UpdateDual1,
        KernelId::UpdateLinearCost1,
        KernelId::UpdateLinearCost2,
        KernelId::UpdateLinearCost3,
        KernelId::PrimalResidualState,
        KernelId::DualResidualState,
        KernelId::PrimalResidualInput,
        KernelId::DualResidualInput,
    ];

    /// The behavioural class of this kernel.
    pub fn class(self) -> KernelClass {
        use KernelId::*;
        match self {
            ForwardPass1 | ForwardPass2 | BackwardPass1 | BackwardPass2 | UpdateLinearCost4 => {
                KernelClass::Iterative
            }
            UpdateSlack1 | UpdateSlack2 | UpdateDual1 | UpdateLinearCost1 | UpdateLinearCost2
            | UpdateLinearCost3 => KernelClass::StripMining,
            PrimalResidualState | DualResidualState | PrimalResidualInput | DualResidualInput => {
                KernelClass::Reduction
            }
        }
    }

    /// How many times this kernel runs per ADMM iteration for a horizon of
    /// `n` knot points. Iterative kernels run once per timestep;
    /// whole-trajectory kernels run once.
    pub fn invocations_per_iteration(self, horizon: usize) -> usize {
        match self.class() {
            KernelClass::Iterative => horizon - 1,
            KernelClass::StripMining | KernelClass::Reduction => 1,
        }
    }

    /// Floating-point operations of one invocation (functional count, FMA
    /// = 2), used for the paper's Figure 2 kernel breakdown.
    pub fn flops_per_invocation(self, d: &ProblemDims) -> u64 {
        let (nx, nu) = (d.nx as u64, d.nu as u64);
        let sx = d.state_elems() as u64;
        let su = d.input_elems() as u64;
        use KernelId::*;
        match self {
            // u = -Kinf x - d : nu×nx GEMV + nu sub.
            ForwardPass1 => 2 * nu * nx + nu,
            // x' = A x + B u : nx×nx + nx×nu GEMVs + nx add.
            ForwardPass2 => 2 * nx * nx + 2 * nx * nu + nx,
            // d = Quu_inv (Bᵀ p + r) : nu×nx GEMV + nu add + nu×nu GEMV.
            BackwardPass1 => 2 * nu * nx + nu + 2 * nu * nu,
            // p = q + AmBKt p − Kinfᵀ r : nx×nx + nx×nu GEMVs + 2nx adds.
            BackwardPass2 => 2 * nx * nx + 2 * nx * nu + 2 * nx,
            // p[N−1] = −P∞ xref − ρ(vnew − g) : nx×nx GEMV + 3nx.
            UpdateLinearCost4 => 2 * nx * nx + 3 * nx,
            // znew = clip(u + y) : add + 2 minmax per element.
            UpdateSlack1 => 3 * su,
            UpdateSlack2 => 3 * sx,
            // y += u − znew ; g += x − vnew.
            UpdateDual1 => 2 * su + 2 * sx,
            // r = −ρ (znew − y).
            UpdateLinearCost1 => 2 * su,
            // q = −(Xref ⊙ Qdiag).
            UpdateLinearCost2 => 2 * sx,
            // q −= ρ (vnew − g).
            UpdateLinearCost3 => 3 * sx,
            // max |a − b| : sub + abs + max per element.
            PrimalResidualState | DualResidualState => 3 * sx,
            PrimalResidualInput | DualResidualInput => 3 * su,
        }
    }
}

impl KernelId {
    /// Stable dense index of this kernel: its position in
    /// [`KernelId::ALL`] (the discriminant, since `ALL` lists the
    /// variants in declaration order).
    #[inline(always)]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Fixed-size per-kernel cycle table of one solve: plain `Copy` data,
/// filled without allocating.
///
/// Tracks which kernels were *charged* separately from their cycle
/// counts so that a kernel charged at zero cycles (an ideal accelerator)
/// still appears in [`KernelCycles::iter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCycles {
    counts: [u64; 15],
    charged: u16,
}

impl KernelCycles {
    /// Empty table: no kernel charged.
    pub fn new() -> Self {
        KernelCycles {
            counts: [0; 15],
            charged: 0,
        }
    }

    /// Clears every count and charge mark.
    pub fn reset(&mut self) {
        *self = KernelCycles::new();
    }

    /// Records `cycles` against `kernel` (marking it charged even when
    /// `cycles` is zero).
    #[inline]
    pub fn add(&mut self, kernel: KernelId, cycles: u64) {
        let i = kernel.index();
        self.counts[i] += cycles;
        self.charged |= 1 << i;
    }

    /// Cycles accumulated against `kernel`.
    #[inline]
    pub fn get(&self, kernel: KernelId) -> u64 {
        self.counts[kernel.index()]
    }

    /// Sum over all kernels.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(kernel, cycles)` for every *charged* kernel, in
    /// [`KernelId::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (KernelId, u64)> + '_ {
        KernelId::ALL
            .into_iter()
            .filter(|k| self.charged & (1 << k.index()) != 0)
            .map(|k| (k, self.get(k)))
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelId::ForwardPass1 => "forward_pass_1",
            KernelId::ForwardPass2 => "forward_pass_2",
            KernelId::BackwardPass1 => "backward_pass_1",
            KernelId::BackwardPass2 => "backward_pass_2",
            KernelId::UpdateLinearCost4 => "update_linear_cost_4",
            KernelId::UpdateSlack1 => "update_slack_1",
            KernelId::UpdateSlack2 => "update_slack_2",
            KernelId::UpdateDual1 => "update_dual_1",
            KernelId::UpdateLinearCost1 => "update_linear_cost_1",
            KernelId::UpdateLinearCost2 => "update_linear_cost_2",
            KernelId::UpdateLinearCost3 => "update_linear_cost_3",
            KernelId::PrimalResidualState => "primal_residual_state",
            KernelId::DualResidualState => "dual_residual_state",
            KernelId::PrimalResidualInput => "primal_residual_input",
            KernelId::DualResidualInput => "dual_residual_input",
        };
        f.write_str(s)
    }
}

/// Static per-iteration work profile of a problem size — the raw material
/// of the paper's Figure 2.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Problem dimensions profiled.
    pub dims: ProblemDims,
    /// `(kernel, invocations per ADMM iteration, flops per iteration)`.
    pub rows: Vec<(KernelId, usize, u64)>,
}

impl KernelProfile {
    /// Builds the profile for the given dimensions.
    pub fn new(dims: ProblemDims) -> Self {
        let rows = KernelId::ALL
            .iter()
            .map(|&k| {
                let inv = k.invocations_per_iteration(dims.horizon);
                (k, inv, inv as u64 * k.flops_per_invocation(&dims))
            })
            .collect();
        KernelProfile { dims, rows }
    }

    /// Total FLOPs per ADMM iteration.
    pub fn total_flops(&self) -> u64 {
        self.rows.iter().map(|(_, _, f)| f).sum()
    }

    /// FLOPs per iteration aggregated by kernel class.
    pub fn flops_by_class(&self) -> [(KernelClass, u64); 3] {
        let mut iter = 0;
        let mut strip = 0;
        let mut red = 0;
        for (k, _, f) in &self.rows {
            match k.class() {
                KernelClass::Iterative => iter += f,
                KernelClass::StripMining => strip += f,
                KernelClass::Reduction => red += f,
            }
        }
        [
            (KernelClass::Iterative, iter),
            (KernelClass::StripMining, strip),
            (KernelClass::Reduction, red),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_dims() -> ProblemDims {
        ProblemDims {
            nx: 12,
            nu: 4,
            horizon: 10,
        }
    }

    #[test]
    fn all_kernels_enumerated_once() {
        assert_eq!(KernelId::ALL.len(), 15);
        let mut sorted = KernelId::ALL.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 15);
    }

    #[test]
    fn class_assignment_matches_paper() {
        assert_eq!(KernelId::ForwardPass1.class(), KernelClass::Iterative);
        assert_eq!(KernelId::UpdateSlack1.class(), KernelClass::StripMining);
        assert_eq!(
            KernelId::PrimalResidualState.class(),
            KernelClass::Reduction
        );
    }

    #[test]
    fn iterative_kernels_run_per_timestep() {
        assert_eq!(KernelId::ForwardPass2.invocations_per_iteration(10), 9);
        assert_eq!(KernelId::UpdateSlack1.invocations_per_iteration(10), 1);
    }

    #[test]
    fn profile_totals_are_consistent() {
        let p = KernelProfile::new(quad_dims());
        let by_class: u64 = p.flops_by_class().iter().map(|(_, f)| f).sum();
        assert_eq!(by_class, p.total_flops());
        assert!(p.total_flops() > 0);
        // Iterative work dominates for the quadrotor (12x12 GEMVs per
        // timestep vs ~100-element strip mines).
        let [it, st, rd] = p.flops_by_class();
        assert!(it.1 > st.1 && st.1 > rd.1, "{it:?} {st:?} {rd:?}");
    }

    #[test]
    fn kernel_index_matches_all_order() {
        for (i, k) in KernelId::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{k} out of order");
        }
    }

    #[test]
    fn kernel_cycles_tracks_zero_cycle_charges() {
        let mut t = KernelCycles::new();
        assert_eq!(t.iter().count(), 0);
        t.add(KernelId::UpdateSlack1, 0);
        t.add(KernelId::ForwardPass1, 10);
        t.add(KernelId::ForwardPass1, 5);
        assert_eq!(t.get(KernelId::ForwardPass1), 15);
        assert_eq!(t.total(), 15);
        let charged: Vec<_> = t.iter().collect();
        assert_eq!(
            charged,
            [(KernelId::ForwardPass1, 15), (KernelId::UpdateSlack1, 0)],
            "charged kernels only, in KernelId::ALL order"
        );
        t.reset();
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn dims_helpers() {
        let d = quad_dims();
        assert_eq!(d.state_elems(), 120);
        assert_eq!(d.input_elems(), 36);
    }
}
