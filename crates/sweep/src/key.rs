//! Content-addressed cache keys.
//!
//! A key is a 128-bit FNV-1a hash over a *stable serialization* of
//! everything that determines a cycle count: a cache-format version tag,
//! the request kind, the platform's canonical configuration identity
//! ([`soc_dse::platform::Platform::cache_id`] — every behavior-affecting
//! field spelled out explicitly, display names excluded), and the
//! request parameters. Any change to a config field or to
//! [`CACHE_VERSION`] changes the key — so a stale cache can only ever
//! miss, never answer wrong — while a purely cosmetic rename of a
//! platform keeps its cached results.

use soc_dse::experiments::{KernelRequest, KernelShape, Residency, SolveRequest};

/// Bump whenever cycle semantics change (solver defaults, trace
/// generation, simulation timing) so old cache entries are orphaned
/// rather than trusted.
///
/// v2: keys switched from `Debug`-rendered platforms to canonical
/// registry `cache_id`s.
///
/// v3: on-disk entries gained a checksum footer (cache format v2);
/// keying the format version orphans un-checksummed entries instead of
/// quarantining them as corrupt.
///
/// v4: solve and solve-bounds requests gained a scenario axis; the
/// scenario's `cache_id` joined the serialization, so pre-scenario
/// entries (implicitly hover-only) are orphaned rather than aliased.
pub const CACHE_VERSION: u32 = 4;

/// A 128-bit content hash identifying one unit of sweep work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub u64, pub u64);

impl Key {
    /// Hex form, used as the on-disk file name.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

/// 64-bit FNV-1a over `bytes`, from a caller-supplied offset basis.
fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Hashes a stable serialization string into a [`Key`]. Two independent
/// FNV-1a streams (the standard offset basis and a decorrelated one)
/// give 128 bits, enough that accidental collisions across a sweep of
/// thousands of configs are not a practical concern.
pub fn key_of(serialized: &str) -> Key {
    const BASIS_A: u64 = 0xcbf2_9ce4_8422_2325;
    const BASIS_B: u64 = 0x6c62_272e_07bb_0142;
    let bytes = serialized.as_bytes();
    Key(fnv1a(BASIS_A, bytes), fnv1a(BASIS_B, bytes))
}

/// Stable serialization of a solve request.
pub fn solve_serialization(request: &SolveRequest) -> String {
    format!(
        "soc-sweep v{CACHE_VERSION}|solve|{}|scenario={}|horizon={}",
        request.platform.cache_id(),
        request.scenario.cache_id(),
        request.horizon
    )
}

/// Stable serialization of a standalone-kernel request.
pub fn kernel_serialization(request: &KernelRequest) -> String {
    let shape = match request.shape {
        KernelShape::Gemv => "gemv",
        KernelShape::Gemm => "gemm",
    };
    let residency = match request.residency {
        Residency::Cold => "cold",
        Residency::Warm => "warm",
    };
    format!(
        "soc-sweep v{CACHE_VERSION}|kernel|{}|{shape}|{residency}|i={}|k={}",
        request.platform.cache_id(),
        request.i,
        request.k
    )
}

/// Key of a solve request.
pub fn solve_key(request: &SolveRequest) -> Key {
    key_of(&solve_serialization(request))
}

/// Key of a standalone-kernel request.
pub fn kernel_key(request: &KernelRequest) -> Key {
    key_of(&kernel_serialization(request))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_dse::experiments::{KernelShape, Residency, Scenario};
    use soc_dse::platform::Platform;

    fn solve_req(horizon: usize) -> SolveRequest {
        SolveRequest::new(Platform::rocket_eigen(), Scenario::hover(), horizon)
    }

    #[test]
    fn keys_are_stable_and_distinct() {
        let a = solve_key(&solve_req(10));
        let b = solve_key(&solve_req(10));
        assert_eq!(a, b, "same request must hash identically");
        assert_ne!(a, solve_key(&solve_req(11)), "horizon must be keyed");
    }

    #[test]
    fn platform_config_is_keyed() {
        use soc_cpu::CoreConfig;
        use soc_vector::SaturnConfig;
        let a = SolveRequest::new(
            Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d128()),
            Scenario::hover(),
            10,
        );
        let b = SolveRequest::new(
            Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d256()),
            Scenario::hover(),
            10,
        );
        assert_ne!(solve_key(&a), solve_key(&b));
    }

    #[test]
    fn kernel_params_are_keyed() {
        let base = KernelRequest {
            platform: Platform::rocket_eigen(),
            shape: KernelShape::Gemv,
            residency: Residency::Cold,
            i: 8,
            k: 8,
        };
        let mut warm = base.clone();
        warm.residency = Residency::Warm;
        let mut gemm = base.clone();
        gemm.shape = KernelShape::Gemm;
        let mut wider = base.clone();
        wider.k = 16;
        let keys = [
            kernel_key(&base),
            kernel_key(&warm),
            kernel_key(&gemm),
            kernel_key(&wider),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn scenario_is_keyed() {
        use soc_dse::experiments::ScenarioCatalog;
        let platform = Platform::rocket_eigen();
        // Every catalog scenario (and a random-family member) must key
        // distinctly at the same platform and horizon.
        let mut scenarios = ScenarioCatalog::standard().into_scenarios();
        scenarios.push(Scenario::random_stable_plant(8, 3, 7));
        scenarios.push(Scenario::random_stable_plant(8, 3, 8));
        let keys: Vec<Key> = scenarios
            .iter()
            .map(|s| solve_key(&SolveRequest::new(platform.clone(), s.clone(), 10)))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(
                    a,
                    b,
                    "{} and {} collide",
                    scenarios[i].name(),
                    scenarios[j].name()
                );
            }
        }
    }

    #[test]
    fn hex_is_32_chars() {
        assert_eq!(solve_key(&solve_req(10)).to_hex().len(), 32);
    }

    #[test]
    fn renaming_a_platform_keeps_its_key() {
        let mut renamed = Platform::rocket_eigen();
        renamed.name = "Rocket (marketing name)".into();
        let a = SolveRequest::new(Platform::rocket_eigen(), Scenario::hover(), 10);
        let b = SolveRequest::new(renamed, Scenario::hover(), 10);
        assert_eq!(
            solve_key(&a),
            solve_key(&b),
            "display names must not affect cache identity"
        );
    }

    #[test]
    fn distinct_shipped_configs_never_collide() {
        use soc_dse::verify::shipped_configurations;
        let shipped = shipped_configurations();
        for (i, a) in shipped.iter().enumerate() {
            for b in &shipped[i + 1..] {
                assert_ne!(
                    a.cache_id(),
                    b.cache_id(),
                    "{} and {} serialize identically",
                    a.name,
                    b.name
                );
                let ka = solve_key(&SolveRequest::new(a.clone(), Scenario::hover(), 10));
                let kb = solve_key(&SolveRequest::new(b.clone(), Scenario::hover(), 10));
                assert_ne!(ka, kb, "{} and {} collide", a.name, b.name);
            }
        }
    }
}
