//! The precomputed Riccati cache (TinyMPC's core memory optimization).

use crate::{Error, Result, TinyMpcProblem};
use matlib::{dare, DareOptions, Matrix, Scalar};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Cached infinite-horizon LQR quantities.
///
/// TinyMPC computes these once per problem (offline, or at solver
/// construction) and reuses them every ADMM iteration, so the online
/// iteration contains no factorizations — only matrix-vector products.
///
/// The Riccati recursion is run on the **ρ-augmented** costs
/// `Q + ρI`, `R + ρI`, because ADMM's augmented Lagrangian adds a
/// quadratic penalty to both primal blocks.
#[derive(Debug, Clone)]
pub struct TinyMpcCache<T> {
    /// Infinite-horizon feedback gain `K∞` (`nu × nx`).
    pub kinf: Matrix<T>,
    /// `K∞ᵀ` (`nx × nu`), cached to avoid transposing in the hot loop.
    pub kinf_t: Matrix<T>,
    /// Infinite-horizon cost-to-go `P∞` (`nx × nx`).
    pub pinf: Matrix<T>,
    /// `(R̃ + Bᵀ P∞ B)⁻¹` (`nu × nu`).
    pub quu_inv: Matrix<T>,
    /// `(A − B·K∞)ᵀ` (`nx × nx`) — the backward-pass propagation matrix.
    pub am_bk_t: Matrix<T>,
    /// `Bᵀ` (`nu × nx`), cached for the backward pass.
    pub b_t: Matrix<T>,
    /// Riccati iterations taken to converge.
    pub riccati_iterations: usize,
}

impl<T: Scalar> TinyMpcCache<T> {
    /// Computes the cache for a problem.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Cache`] if the Riccati recursion fails (e.g. the
    /// augmented costs are not positive definite or the recursion
    /// diverges).
    pub fn compute(problem: &TinyMpcProblem<T>) -> Result<Self> {
        let nx = problem.a.rows();
        let nu = problem.b.cols();
        // ρ-augmented diagonal costs.
        let q_aug = Matrix::from_fn(nx, nx, |r, c| {
            if r == c {
                problem.q_diag[r] + problem.rho
            } else {
                T::ZERO
            }
        });
        let r_aug = Matrix::from_fn(nu, nu, |r, c| {
            if r == c {
                problem.r_diag[r] + problem.rho
            } else {
                T::ZERO
            }
        });
        let sol = dare(
            &problem.a,
            &problem.b,
            &q_aug,
            &r_aug,
            DareOptions::default(),
        )
        .map_err(Error::Cache)?;
        let bk = problem.b.matmul(&sol.k)?;
        let am_bk_t = problem.a.sub(&bk)?.transpose();
        Ok(TinyMpcCache {
            kinf_t: sol.k.transpose(),
            kinf: sol.k,
            pinf: sol.p,
            quu_inv: sol.quu_inv,
            am_bk_t,
            b_t: problem.b.transpose(),
            riccati_iterations: sol.iterations,
        })
    }

    /// [`compute`](Self::compute) behind the process-wide interner: the
    /// first call for a plant runs the DARE, later calls clone its
    /// result. Every caller gets its own copy, so a cache edited
    /// through [`crate::AdmmSolver::cache_mut`] or struck by a
    /// [`crate::SolveObserver`] never reaches another solver. Errors are
    /// returned, not stored: a failing plant recomputes on every call.
    /// The DARE runs outside the lock; when two threads race on one
    /// plant, both compute the same bits and the first insert wins.
    ///
    /// `problem` must have passed [`TinyMpcProblem::validate`], so its
    /// `nx` and `nu` fix every length in the key.
    pub(crate) fn interned(problem: &TinyMpcProblem<T>) -> Result<Self> {
        let key = CacheKey::of(problem);
        if let Some(hit) = interner().get(&key).and_then(|c| c.downcast_ref::<Self>()) {
            return Ok(hit.clone());
        }
        let cache = Self::compute(problem)?;
        interner()
            .entry(key)
            .or_insert_with(|| Box::new(cache.clone()));
        Ok(cache)
    }
}

/// Everything [`TinyMpcCache::compute`] reads, as exact bit patterns.
/// Horizon, bounds and cones are left out, so one entry serves every
/// horizon of a plant. Lookups compare the whole key, not its hash.
#[derive(Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    scalar: TypeId,
    nx: usize,
    nu: usize,
    /// `A`, `B`, `q_diag`, `r_diag` and `ρ`, in that order.
    bits: Vec<u64>,
}

impl CacheKey {
    fn of<T: Scalar>(problem: &TinyMpcProblem<T>) -> Self {
        let bits = problem
            .a
            .as_slice()
            .iter()
            .chain(problem.b.as_slice())
            .chain(problem.q_diag.as_slice())
            .chain(problem.r_diag.as_slice())
            .chain([&problem.rho])
            .map(|v| v.bits())
            .collect();
        CacheKey {
            scalar: TypeId::of::<T>(),
            nx: problem.a.rows(),
            nu: problem.b.cols(),
            bits,
        }
    }
}

/// One entry per distinct plant the process has built a solver for
/// (a few KB each); the value is the `TinyMpcCache<T>` of the key's
/// scalar type.
type Interner = HashMap<CacheKey, Box<dyn Any + Send>>;

/// The interner, locked. A poisoned lock is recovered: every update is
/// one insert of a complete entry, so no panic leaves it half-written.
fn interner() -> MutexGuard<'static, Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        problems, AdmmSolver, NullExecutor, SolveObserver, SolverSettings, TinyMpcWorkspace,
    };

    #[test]
    fn cache_shapes_are_consistent() {
        let p = problems::quadrotor_hover::<f64>(10).unwrap();
        let c = TinyMpcCache::compute(&p).unwrap();
        assert_eq!(c.kinf.shape(), (4, 12));
        assert_eq!(c.kinf_t.shape(), (12, 4));
        assert_eq!(c.pinf.shape(), (12, 12));
        assert_eq!(c.quu_inv.shape(), (4, 4));
        assert_eq!(c.am_bk_t.shape(), (12, 12));
        assert!(c.riccati_iterations > 1);
    }

    #[test]
    fn closed_loop_with_kinf_is_stable() {
        let p = problems::quadrotor_hover::<f64>(10).unwrap();
        let c = TinyMpcCache::compute(&p).unwrap();
        let mut x = p.hover_offset_state(0.5);
        for _ in 0..500 {
            x = matlib::closed_loop_step(&p.a, &p.b, &c.kinf, &x).unwrap();
        }
        assert!(
            x.max_abs() < 1e-2,
            "closed loop diverged: {:?}",
            x.max_abs()
        );
    }

    #[test]
    fn pinf_is_symmetric_positive() {
        let p = problems::double_integrator::<f64>(15).unwrap();
        let c = TinyMpcCache::compute(&p).unwrap();
        assert!(c.pinf.max_abs_diff(&c.pinf.transpose()).unwrap() < 1e-6);
        for i in 0..c.pinf.rows() {
            assert!(c.pinf[(i, i)] > 0.0);
        }
    }

    /// Every element of every cached matrix as exact bits, then the
    /// Riccati iteration count.
    fn cache_bits<T: Scalar>(c: &TinyMpcCache<T>) -> Vec<u64> {
        [&c.kinf, &c.kinf_t, &c.pinf, &c.quu_inv, &c.am_bk_t, &c.b_t]
            .iter()
            .flat_map(|m| m.as_slice().iter().map(|v| v.bits()))
            .chain([c.riccati_iterations as u64])
            .collect()
    }

    fn solver<T: Scalar>(p: &TinyMpcProblem<T>) -> AdmmSolver<T> {
        AdmmSolver::new(p.clone(), SolverSettings::default()).unwrap()
    }

    fn is_interned<T: Scalar>(p: &TinyMpcProblem<T>) -> bool {
        interner().contains_key(&CacheKey::of(p))
    }

    fn hit_matches_compute<T: Scalar>(p: &TinyMpcProblem<T>) {
        let fresh = cache_bits(&TinyMpcCache::compute(p).unwrap());
        let first = TinyMpcCache::interned(p).unwrap();
        assert!(is_interned(p));
        let hit = TinyMpcCache::interned(p).unwrap();
        assert_eq!(cache_bits(&first), fresh);
        assert_eq!(cache_bits(&hit), fresh);
        assert_eq!(cache_bits(solver(p).cache()), fresh);
    }

    #[test]
    fn interned_cache_is_bit_identical_to_compute() {
        hit_matches_compute(&problems::quadrotor_hover::<f32>(10).unwrap());
        hit_matches_compute(&problems::quadrotor_hover::<f64>(10).unwrap());
        hit_matches_compute(&problems::double_integrator::<f32>(15).unwrap());
        hit_matches_compute(&problems::double_integrator::<f64>(15).unwrap());
        hit_matches_compute(&problems::random_stable::<f32>(5, 2, 8, 0xCAC4E).unwrap());
        hit_matches_compute(&problems::random_stable::<f64>(5, 2, 8, 0xCAC4E).unwrap());
    }

    #[test]
    fn one_key_per_plant_and_scalar_type() {
        let short = problems::double_integrator::<f64>(5).unwrap();
        let long = problems::double_integrator::<f64>(40).unwrap();
        assert_eq!(CacheKey::of(&short), CacheKey::of(&long));
        // An f64 plant (of subnormals) with the f32 plant's bit patterns.
        let p32 = problems::double_integrator::<f32>(5).unwrap();
        let widen = |dst: &mut [f64], src: &[f32]| {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = f64::from_bits(s.bits());
            }
        };
        let mut twin = short;
        widen(twin.a.as_mut_slice(), p32.a.as_slice());
        widen(twin.b.as_mut_slice(), p32.b.as_slice());
        widen(twin.q_diag.as_mut_slice(), p32.q_diag.as_slice());
        widen(twin.r_diag.as_mut_slice(), p32.r_diag.as_slice());
        twin.rho = f64::from_bits(p32.rho.bits());
        assert_eq!(CacheKey::of(&twin).bits, CacheKey::of(&p32).bits);
        assert_ne!(CacheKey::of(&twin), CacheKey::of(&p32));
    }

    /// Strikes `P∞` once, after the first iteration.
    struct StrikePinf;

    impl SolveObserver<f64> for StrikePinf {
        fn after_iteration(
            &mut self,
            iteration: usize,
            cache: &mut TinyMpcCache<f64>,
            _workspace: &mut TinyMpcWorkspace<f64>,
        ) {
            if iteration == 1 {
                cache.pinf.as_mut_slice()[0] = f64::NAN;
                cache.am_bk_t.as_mut_slice()[3] *= -8.0;
            }
        }
    }

    #[test]
    fn edits_to_one_solver_never_reach_the_next() {
        let p = problems::random_stable::<f64>(4, 2, 10, 0x150_1A7E).unwrap();
        let pristine = cache_bits(&TinyMpcCache::compute(&p).unwrap());

        let mut edited = solver(&p);
        edited.cache_mut().kinf.as_mut_slice()[0] += 1.0;
        edited.cache_mut().riccati_iterations = 0;
        assert_ne!(cache_bits(edited.cache()), pristine);
        assert_eq!(cache_bits(solver(&p).cache()), pristine);

        let mut struck = solver(&p);
        let x0 = p.hover_offset_state(0.5);
        let _ = struck.solve_in_place_observed(x0.as_slice(), &mut NullExecutor, &mut StrikePinf);
        assert!(struck.cache().pinf.as_slice()[0].is_nan());
        assert_eq!(cache_bits(solver(&p).cache()), pristine);
    }

    /// `p` with one value moved by one ulp, away from zero.
    fn nudged(p: &TinyMpcProblem<f64>, field: usize, index: usize) -> TinyMpcProblem<f64> {
        let mut q = p.clone();
        let v = match field {
            0 => &mut q.a.as_mut_slice()[index],
            1 => &mut q.b.as_mut_slice()[index],
            2 => &mut q.q_diag.as_mut_slice()[index],
            3 => &mut q.r_diag.as_mut_slice()[index],
            _ => &mut q.rho,
        };
        *v = f64::from_bits(v.to_bits() + 1);
        q
    }

    #[test]
    fn a_one_ulp_neighbour_gets_its_own_cache() {
        let p = problems::quadrotor_hover::<f64>(10).unwrap();
        let own = cache_bits(solver(&p).cache());
        let last_nonzero = |m: &[f64]| m.iter().rposition(|v| *v != 0.0).unwrap();
        for (field, index) in [
            (0, last_nonzero(p.a.as_slice())),
            (1, last_nonzero(p.b.as_slice())),
            (2, 0),
            (3, 3),
            (4, 0),
        ] {
            let q = nudged(&p, field, index);
            assert_ne!(CacheKey::of(&p), CacheKey::of(&q), "field {field}");
            let fresh = cache_bits(&TinyMpcCache::compute(&q).unwrap());
            assert_eq!(cache_bits(solver(&q).cache()), fresh, "field {field}");
            assert!(is_interned(&q), "field {field}");
            assert_eq!(cache_bits(solver(&p).cache()), own, "field {field}");
        }
        // f32: the same plant nudged in its own precision.
        let p32 = problems::double_integrator::<f32>(10).unwrap();
        let mut q32 = p32.clone();
        q32.rho = f32::from_bits(q32.rho.to_bits() + 1);
        let own32 = cache_bits(solver(&p32).cache());
        let fresh32 = cache_bits(&TinyMpcCache::compute(&q32).unwrap());
        assert_ne!(own32, fresh32);
        assert_eq!(cache_bits(solver(&q32).cache()), fresh32);
        assert_eq!(cache_bits(solver(&p32).cache()), own32);
    }

    #[test]
    fn a_failing_dare_is_not_memoized() {
        let mut p = problems::double_integrator::<f64>(10).unwrap();
        p.r_diag[0] = -10.0;
        let fail = || AdmmSolver::new(p.clone(), SolverSettings::default()).unwrap_err();
        let first = fail();
        assert!(matches!(first, Error::Cache(_)), "{first:?}");
        for _ in 0..2 {
            assert!(!is_interned(&p));
            assert_eq!(fail(), first);
        }
        assert!(!is_interned(&p));
    }

    #[test]
    fn racing_threads_build_bit_identical_caches() {
        const THREADS: usize = 4;
        let p = problems::random_stable::<f64>(6, 3, 10, 0x7A_CE).unwrap();
        let fresh = cache_bits(&TinyMpcCache::compute(&p).unwrap());
        let start = std::sync::Barrier::new(THREADS);
        let caches: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache_bits(solver(&p).cache())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for c in caches {
            assert_eq!(c, fresh);
        }
        assert!(is_interned(&p));
    }
}
