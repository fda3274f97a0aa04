//! Deterministic fault plans.
//!
//! A [`FaultPlan`] is a pure function of a seed: the same seed always
//! produces the same sequence of faults, so every campaign, CI run and
//! bug report is exactly reproducible. Randomness comes from the same
//! SplitMix64 generator the DSE crate uses for everything else.

use matlib::rng::SplitMix64;

/// The hardware structure a fault lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A word of the Gemmini scratchpad holding cached solver matrices
    /// (`K∞`, `P∞`, `Quu⁻¹`, …).
    ScratchpadWord,
    /// A word in flight on the DMA path between main memory and a
    /// back-end (modeled as corruption of a workspace vector word).
    DmaWord,
    /// A RoCC command of a generated Gemmini micro-op stream (dropped,
    /// or with a corrupted field).
    RoccCommand,
    /// A word of a Saturn vector register (modeled as corruption of an
    /// in-flight workspace vector word).
    VectorRegister,
    /// A bit of an encoded instruction word in the functional RISC-V
    /// machine's memory.
    InstructionWord,
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultSite::ScratchpadWord => "scratchpad-word",
            FaultSite::DmaWord => "dma-word",
            FaultSite::RoccCommand => "rocc-command",
            FaultSite::VectorRegister => "vector-register",
            FaultSite::InstructionWord => "instruction-word",
        })
    }
}

/// What the fault does to the affected structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of the affected 32-bit word.
    BitFlip {
        /// Bit index (0 = LSB, 31 = sign bit of an f32 word).
        bit: u8,
    },
    /// Silently drop a micro-op from a command stream.
    DroppedOp,
    /// Overwrite a structural field (tile shape, address) of a command
    /// with an out-of-spec value.
    CorruptedField,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::BitFlip { bit } => write!(f, "bit-flip(b{bit})"),
            FaultKind::DroppedOp => f.write_str("dropped-op"),
            FaultKind::CorruptedField => f.write_str("corrupted-field"),
        }
    }
}

/// One injected fault: a site, a kind, and deterministic coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Where the fault lands.
    pub site: FaultSite,
    /// What it does.
    pub kind: FaultKind,
    /// The ADMM iteration (1-based) after which the fault strikes — the
    /// solver's iteration counter is the cycle-level proxy used to tag
    /// faults in reports.
    pub iteration: usize,
    /// Raw entropy word the injector maps onto a concrete location
    /// (matrix word index, micro-op index, instruction address…), so
    /// the plan stays independent of any one structure's size.
    pub word: u64,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} @iter{} w{:#x}",
            self.site, self.kind, self.iteration, self.word
        )
    }
}

/// A reproducible sequence of faults derived from one seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// The faults, in injection order (one per campaign trial).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Generates `count` faults drawn uniformly from `sites`, striking
    /// at iterations `1..=max_iteration`. Deterministic in `seed`.
    pub fn generate(seed: u64, count: usize, sites: &[FaultSite], max_iteration: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let faults = (0..count)
            .map(|_| {
                let site = sites[rng.range_usize(0, sites.len().saturating_sub(1))];
                let kind = match site {
                    // Data sites always take single-bit upsets.
                    FaultSite::ScratchpadWord
                    | FaultSite::DmaWord
                    | FaultSite::VectorRegister
                    | FaultSite::InstructionWord => FaultKind::BitFlip {
                        bit: rng.range_usize(0, 31) as u8,
                    },
                    // Command streams additionally see dropped and
                    // structurally corrupted ops.
                    FaultSite::RoccCommand => match rng.range_usize(0, 2) {
                        0 => FaultKind::BitFlip {
                            bit: rng.range_usize(0, 31) as u8,
                        },
                        1 => FaultKind::DroppedOp,
                        _ => FaultKind::CorruptedField,
                    },
                };
                Fault {
                    site,
                    kind,
                    iteration: rng.range_usize(1, max_iteration.max(1)),
                    word: rng.next_u64(),
                }
            })
            .collect();
        FaultPlan { seed, faults }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let sites = [FaultSite::ScratchpadWord, FaultSite::RoccCommand];
        let a = FaultPlan::generate(42, 32, &sites, 20);
        let b = FaultPlan::generate(42, 32, &sites, 20);
        assert_eq!(a.faults, b.faults);
        let c = FaultPlan::generate(43, 32, &sites, 20);
        assert_ne!(a.faults, c.faults);
    }

    #[test]
    fn faults_respect_site_list_and_iteration_range() {
        let sites = [FaultSite::DmaWord];
        let plan = FaultPlan::generate(7, 64, &sites, 10);
        assert_eq!(plan.faults.len(), 64);
        for f in &plan.faults {
            assert_eq!(f.site, FaultSite::DmaWord);
            assert!(matches!(f.kind, FaultKind::BitFlip { bit } if bit < 32));
            assert!((1..=10).contains(&f.iteration));
        }
    }
}
