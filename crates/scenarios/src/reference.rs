//! Reference-trajectory generators.
//!
//! Each generator produces the reference window `[r(step), …,
//! r(step + horizon − 1)]` that a receding-horizon controller feeds to
//! the solver at rollout step `step`. All trajectories are analytic
//! functions of the absolute time index, so the window at step `k+1` is
//! exactly the window at step `k` shifted by one — no accumulated state.
//!
//! Every generator is deterministic and computes in the solver's scalar
//! type `T`, so the same scenario produces bit-identical references (and
//! therefore bit-identical solves) on every back-end.

use matlib::{Scalar, Vector};

/// Hover: all-zero references (regulate to the origin). This matches the
/// freshly-zeroed `xref` in [`tinympc::TinyMpcWorkspace::new`], keeping
/// the hover scenario bit-identical to a solver that never calls
/// `set_reference`.
pub fn hover<T: Scalar>(nx: usize, horizon: usize, _step: usize) -> Vec<Vector<T>> {
    (0..horizon).map(|_| Vector::zeros(nx)).collect()
}

/// Figure-8 (lemniscate of Gérono) in the x–y plane with analytic
/// velocity references: `x = A sin(ωt)`, `y = (A/2) sin(2ωt)`. Position
/// goes into states 0–1; velocity into states `nx/2` and `nx/2 + 1`
/// (the quadrotor layout: 6 pose + 6 rate states).
///
/// # Panics
///
/// Panics if `nx < 4` (needs two positions and two velocities).
pub fn figure8<T: Scalar>(nx: usize, horizon: usize, step: usize, dt: f64) -> Vec<Vector<T>> {
    assert!(nx >= 4, "figure-8 reference needs nx >= 4, got {nx}");
    let amp = 0.35;
    let omega = 2.0 * std::f64::consts::PI / 6.0; // one loop every 6 s
    let vel = nx / 2;
    (0..horizon)
        .map(|k| {
            let t = (step + k) as f64 * dt;
            let mut r = Vector::zeros(nx);
            r[0] = T::from_f64(amp * (omega * t).sin());
            r[1] = T::from_f64(0.5 * amp * (2.0 * omega * t).sin());
            r[vel] = T::from_f64(amp * omega * (omega * t).cos());
            r[vel + 1] = T::from_f64(amp * omega * (2.0 * omega * t).cos());
            r
        })
        .collect()
}

/// Waypoint slalom: piecewise-constant setpoints that alternate the
/// first position coordinate between `±amp` every `dwell` steps — a
/// square-wave stress test for the box-projection path (each switch
/// saturates the inputs for several steps).
pub fn slalom<T: Scalar>(
    nx: usize,
    horizon: usize,
    step: usize,
    amp: f64,
    dwell: usize,
) -> Vec<Vector<T>> {
    (0..horizon)
        .map(|k| {
            let phase = ((step + k) / dwell.max(1)) % 2;
            let target = if phase == 0 { amp } else { -amp };
            let mut r = Vector::zeros(nx);
            r[0] = T::from_f64(target);
            r
        })
        .collect()
}

/// Disturbance rejection: regulate to the origin (zero reference); the
/// scenario's *initial state* carries the disturbance. Identical window
/// to [`hover`], split out so call sites document intent.
pub fn disturbance<T: Scalar>(nx: usize, horizon: usize, step: usize) -> Vec<Vector<T>> {
    hover::<T>(nx, horizon, step)
}

/// Straight-line docking approach for the satellite-rendezvous
/// scenario: the radial offset decays linearly from `start` to zero
/// over `approach_steps` rollout steps, then holds station at the
/// target. Velocity references are left at zero (the terminal state is
/// a dock, not a fly-by).
pub fn approach<T: Scalar>(
    nx: usize,
    horizon: usize,
    step: usize,
    start: f64,
    approach_steps: usize,
) -> Vec<Vector<T>> {
    (0..horizon)
        .map(|k| {
            let t = step + k;
            let frac = if t >= approach_steps {
                0.0
            } else {
                1.0 - t as f64 / approach_steps as f64
            };
            let mut r = Vector::zeros(nx);
            r[0] = T::from_f64(start * frac);
            r
        })
        .collect()
}

/// Powered-descent profile for the rocket soft-landing scenario:
/// altitude (state 2) descends linearly from `alt` to zero over
/// `descent_steps` steps with the matching constant vertical-velocity
/// reference (state 5), then holds at touchdown with zero velocity.
pub fn descent<T: Scalar>(
    nx: usize,
    horizon: usize,
    step: usize,
    alt: f64,
    descent_steps: usize,
    dt: f64,
) -> Vec<Vector<T>> {
    assert!(nx >= 6, "descent reference needs nx >= 6, got {nx}");
    let sink_rate = -alt / (descent_steps as f64 * dt);
    (0..horizon)
        .map(|k| {
            let t = step + k;
            let mut r = Vector::zeros(nx);
            if t < descent_steps {
                r[2] = T::from_f64(alt * (1.0 - t as f64 / descent_steps as f64));
                r[5] = T::from_f64(sink_rate);
            }
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_shift_consistently() {
        // The window at step k+1 must equal the window at step k shifted
        // by one entry — the receding-horizon invariant.
        let w0 = figure8::<f64>(12, 10, 0, 0.01);
        let w1 = figure8::<f64>(12, 10, 1, 0.01);
        for k in 0..9 {
            assert_eq!(w0[k + 1], w1[k], "figure8 window mismatch at {k}");
        }
        let s0 = slalom::<f64>(4, 8, 3, 0.5, 5);
        let s1 = slalom::<f64>(4, 8, 4, 0.5, 5);
        for k in 0..7 {
            assert_eq!(s0[k + 1], s1[k], "slalom window mismatch at {k}");
        }
        let d0 = descent::<f64>(6, 8, 10, 50.0, 80, 0.1);
        let d1 = descent::<f64>(6, 8, 11, 50.0, 80, 0.1);
        for k in 0..7 {
            assert_eq!(d0[k + 1], d1[k], "descent window mismatch at {k}");
        }
    }

    #[test]
    fn hover_is_all_zeros() {
        for r in hover::<f32>(12, 10, 7) {
            assert!(r.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn figure8_is_smooth_and_bounded() {
        let r = figure8::<f64>(12, 100, 0, 0.01);
        assert_eq!(r.len(), 100);
        for w in r.windows(2) {
            let dx = (w[1][0] - w[0][0]).abs();
            assert!(dx < 0.01, "reference jumps by {dx}");
        }
        assert!(r.iter().all(|v| v.max_abs() < 1.0));
    }

    #[test]
    fn figure8_velocity_matches_position_derivative() {
        let dt = 1e-4;
        let w = figure8::<f64>(12, 3, 0, dt);
        // Finite-difference check: (x(t+dt) − x(t))/dt ≈ vx(t).
        let fd = (w[1][0] - w[0][0]) / dt;
        assert!((fd - w[0][6]).abs() < 1e-3, "fd {fd} vs vx {}", w[0][6]);
    }

    #[test]
    fn approach_reaches_and_holds_the_target() {
        let w = approach::<f64>(6, 4, 100, 5.0, 60);
        for r in &w {
            assert_eq!(r[0], 0.0, "station-keeping after the approach");
        }
        let early = approach::<f64>(6, 1, 0, 5.0, 60);
        assert!((early[0][0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn descent_ends_at_touchdown() {
        let w = descent::<f64>(6, 2, 80, 50.0, 80, 0.1);
        assert_eq!(w[0][2], 0.0);
        assert_eq!(w[0][5], 0.0);
        let mid = descent::<f64>(6, 1, 40, 50.0, 80, 0.1);
        assert!((mid[0][2] - 25.0).abs() < 1e-9);
        assert!(mid[0][5] < 0.0, "sinking while descending");
    }
}
