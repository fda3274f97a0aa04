//! HOT-PATH: arena-backed solver workspace (the "TinyMPC workspace" of
//! the paper's Figure 11).
//!
//! All thirteen logical trajectory fields live in **one contiguous
//! `Vec<T>` arena**, allocated once at construction and never resized.
//! Each field is a fixed region of the arena; per-knot access hands out
//! typed sub-slices. The per-iteration slide of the slack iterates
//! (`v ↔ vnew`, `z ↔ znew`) is a single boolean flip that exchanges
//! which storage region each *logical* field maps to — no data moves.
//!
//! The arena tail additionally holds the pinned initial state (the
//! memory-fault canary), the staged `u0` result of the last solve, and
//! four scratch strips used by the in-place ADMM passes, so a warm
//! solve performs **zero heap allocations** (the contract checked by
//! the allocation-regression test, `tests/alloc_regression.rs`).
//!
//! This module is tagged `HOT-PATH`: CI forbids `.clone()` and
//! `Vector::zeros` inside it.

use matlib::Scalar;

/// One of the thirteen logical trajectory fields of the workspace.
///
/// State-shaped fields hold `horizon` knots of `nx` elements; input-
/// shaped fields hold `horizon − 1` knots of `nu` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WsField {
    /// State trajectory `x[0..N]`.
    X,
    /// Input trajectory `u[0..N-1]`.
    U,
    /// Linear state cost terms `q[0..N]`.
    Q,
    /// Linear input cost terms `r[0..N-1]`.
    R,
    /// Cost-to-go linear terms `p[0..N]`.
    P,
    /// Feed-forward terms `d[0..N-1]`.
    D,
    /// State slack trajectory `v[0..N]` (previous iterate).
    V,
    /// State slack trajectory `vnew[0..N]`.
    VNew,
    /// Input slack trajectory `z[0..N-1]` (previous iterate).
    Z,
    /// Input slack trajectory `znew[0..N-1]`.
    ZNew,
    /// Input duals `y[0..N-1]`.
    Y,
    /// State duals `g[0..N]`.
    G,
    /// Reference state trajectory `xref[0..N]`.
    XRef,
}

/// Number of state-shaped storage regions (`x q p v vnew g xref`).
const STATE_REGIONS: usize = 7;
/// Number of input-shaped storage regions (`u r d z znew y`).
const INPUT_REGIONS: usize = 6;

/// Per-solve mutable trajectories and ADMM variables, stored in one
/// contiguous arena.
///
/// Dual and slack variables persist across calls to `solve` for warm
/// starting. Logical fields are addressed through [`WsField`] and the
/// [`TinyMpcWorkspace::knot`]/[`TinyMpcWorkspace::knot_mut`] accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct TinyMpcWorkspace<T> {
    nx: usize,
    nu: usize,
    horizon: usize,
    /// When set, the storage regions of `v`/`vnew` (and `z`/`znew`) are
    /// exchanged: the per-iteration iterate slide without moving data.
    flipped: bool,
    buf: Vec<T>,
}

/// Disjoint mutable views over every arena region, handed to the
/// in-place ADMM passes. Built by successive `split_at_mut` over the
/// single backing buffer, so the borrow checker sees one field per
/// region with no aliasing.
pub(crate) struct Views<'a, T> {
    pub x: &'a mut [T],
    pub q: &'a mut [T],
    pub p: &'a mut [T],
    pub v: &'a mut [T],
    pub vnew: &'a mut [T],
    pub g: &'a mut [T],
    pub xref: &'a mut [T],
    pub u: &'a mut [T],
    pub r: &'a mut [T],
    pub d: &'a mut [T],
    pub z: &'a mut [T],
    pub znew: &'a mut [T],
    pub y: &'a mut [T],
    /// Scratch strips for the in-place passes: two state-sized, two
    /// input-sized.
    pub sx_a: &'a mut [T],
    pub sx_b: &'a mut [T],
    pub su_a: &'a mut [T],
    pub su_b: &'a mut [T],
}

impl<T: Scalar> TinyMpcWorkspace<T> {
    /// Creates a zeroed workspace for the given dimensions: one arena
    /// allocation sized for every trajectory region plus the x0 pin,
    /// the `u0` staging strip and the pass scratch strips.
    pub fn new(nx: usize, nu: usize, horizon: usize) -> Self {
        let state = horizon * nx;
        let input = horizon.saturating_sub(1) * nu;
        let total = STATE_REGIONS * state + INPUT_REGIONS * input
            + nx        // x0 pin
            + nu        // u0 staging
            + 2 * nx    // sx_a, sx_b
            + 2 * nu; // su_a, su_b
        TinyMpcWorkspace {
            nx,
            nu,
            horizon,
            flipped: false,
            buf: vec![T::ZERO; total],
        }
    }

    /// State dimension `nx`.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Input dimension `nu`.
    pub fn nu(&self) -> usize {
        self.nu
    }

    /// Horizon length (knot points).
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    fn state_len(&self) -> usize {
        self.horizon * self.nx
    }

    fn input_len(&self) -> usize {
        (self.horizon - 1) * self.nu
    }

    fn state_off(&self, region: usize) -> usize {
        region * self.state_len()
    }

    fn input_off(&self, region: usize) -> usize {
        STATE_REGIONS * self.state_len() + region * self.input_len()
    }

    fn tail_off(&self) -> usize {
        STATE_REGIONS * self.state_len() + INPUT_REGIONS * self.input_len()
    }

    /// `(arena offset, per-knot dimension, knot count)` of a logical
    /// field, resolving the `v/vnew` and `z/znew` region flip.
    fn field_info(&self, field: WsField) -> (usize, usize, usize) {
        let (n, nx, nu) = (self.horizon, self.nx, self.nu);
        let fl = self.flipped;
        match field {
            WsField::X => (self.state_off(0), nx, n),
            WsField::Q => (self.state_off(1), nx, n),
            WsField::P => (self.state_off(2), nx, n),
            WsField::V => (self.state_off(if fl { 4 } else { 3 }), nx, n),
            WsField::VNew => (self.state_off(if fl { 3 } else { 4 }), nx, n),
            WsField::G => (self.state_off(5), nx, n),
            WsField::XRef => (self.state_off(6), nx, n),
            WsField::U => (self.input_off(0), nu, n - 1),
            WsField::R => (self.input_off(1), nu, n - 1),
            WsField::D => (self.input_off(2), nu, n - 1),
            WsField::Z => (self.input_off(if fl { 4 } else { 3 }), nu, n - 1),
            WsField::ZNew => (self.input_off(if fl { 3 } else { 4 }), nu, n - 1),
            WsField::Y => (self.input_off(5), nu, n - 1),
        }
    }

    /// Number of knot points of a logical field (`horizon` for
    /// state-shaped fields, `horizon − 1` for input-shaped ones).
    pub fn knots(&self, field: WsField) -> usize {
        self.field_info(field).2
    }

    /// Per-knot element count of a logical field (`nx` or `nu`).
    pub fn knot_dim(&self, field: WsField) -> usize {
        self.field_info(field).1
    }

    /// Borrows knot `k` of a logical field.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range for the field.
    pub fn knot(&self, field: WsField, k: usize) -> &[T] {
        let (off, dim, knots) = self.field_info(field);
        assert!(k < knots, "knot {k} out of range for {field:?} ({knots})");
        &self.buf[off + k * dim..off + (k + 1) * dim]
    }

    /// Mutably borrows knot `k` of a logical field.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range for the field.
    pub fn knot_mut(&mut self, field: WsField, k: usize) -> &mut [T] {
        let (off, dim, knots) = self.field_info(field);
        assert!(k < knots, "knot {k} out of range for {field:?} ({knots})");
        &mut self.buf[off + k * dim..off + (k + 1) * dim]
    }

    /// The pinned shadow copy of the initial state: nothing in the ADMM
    /// iteration rewrites `x[0]`, so any divergence from this strip is
    /// a memory fault.
    pub fn x0_pinned(&self) -> &[T] {
        let off = self.tail_off();
        &self.buf[off..off + self.nx]
    }

    /// Copies `x0` into `x[0]` and the pin strip.
    pub(crate) fn set_x0(&mut self, x0: &[T]) {
        let (x_off, ..) = self.field_info(WsField::X);
        self.buf[x_off..x_off + self.nx].copy_from_slice(x0);
        let pin = self.tail_off();
        self.buf[pin..pin + self.nx].copy_from_slice(x0);
    }

    /// First control input staged by the last solve (the feasible first
    /// slack input `z[0]`). Zeros before the first solve completes.
    pub fn u0(&self) -> &[T] {
        let off = self.tail_off() + self.nx;
        &self.buf[off..off + self.nu]
    }

    /// Copies the logical `z[0]` into the `u0` staging strip (no heap
    /// traffic: a `copy_within` inside the arena).
    pub(crate) fn stage_u0(&mut self) {
        let (z_off, ..) = self.field_info(WsField::Z);
        let dst = self.tail_off() + self.nx;
        self.buf.copy_within(z_off..z_off + self.nu, dst);
    }

    /// Exchanges the storage regions of `v`/`vnew` and `z`/`znew` — the
    /// per-iteration iterate slide, at the cost of one boolean write.
    pub(crate) fn swap_slack_iterates(&mut self) {
        self.flipped = !self.flipped;
    }

    /// Resets the ADMM variables (duals and slacks) to zero — a cold
    /// start.
    pub fn cold_start(&mut self) {
        let state = self.state_len();
        let input = self.input_len();
        // Both storage regions of each slack pair plus the duals:
        // regions v(3), vnew(4), g(5) and z(3), znew(4), y(5).
        let s_lo = self.state_off(3);
        let i_lo = self.input_off(3);
        for e in &mut self.buf[s_lo..s_lo + 3 * state] {
            *e = T::ZERO;
        }
        for e in &mut self.buf[i_lo..i_lo + 3 * input] {
            *e = T::ZERO;
        }
    }

    /// Whether every iterate the divergence guard cares about (`x`,
    /// `u`, `p`, `y`) is finite.
    pub fn is_finite(&self) -> bool {
        [WsField::X, WsField::U, WsField::P, WsField::Y]
            .iter()
            .all(|&f| {
                let (off, dim, knots) = self.field_info(f);
                self.buf[off..off + dim * knots]
                    .iter()
                    .all(|v| v.is_finite())
            })
    }

    /// Splits the arena into disjoint mutable per-region views for the
    /// in-place ADMM passes.
    pub(crate) fn views(&mut self) -> Views<'_, T> {
        let state = self.state_len();
        let input = self.input_len();
        let (nx, nu) = (self.nx, self.nu);
        let flipped = self.flipped;
        let (x, rest) = self.buf.split_at_mut(state);
        let (q, rest) = rest.split_at_mut(state);
        let (p, rest) = rest.split_at_mut(state);
        let (v_a, rest) = rest.split_at_mut(state);
        let (v_b, rest) = rest.split_at_mut(state);
        let (g, rest) = rest.split_at_mut(state);
        let (xref, rest) = rest.split_at_mut(state);
        let (u, rest) = rest.split_at_mut(input);
        let (r, rest) = rest.split_at_mut(input);
        let (d, rest) = rest.split_at_mut(input);
        let (z_a, rest) = rest.split_at_mut(input);
        let (z_b, rest) = rest.split_at_mut(input);
        let (y, rest) = rest.split_at_mut(input);
        let (_x0pin, rest) = rest.split_at_mut(nx);
        let (_u0, rest) = rest.split_at_mut(nu);
        let (sx_a, rest) = rest.split_at_mut(nx);
        let (sx_b, rest) = rest.split_at_mut(nx);
        let (su_a, su_b) = rest.split_at_mut(nu);
        let (v, vnew) = if flipped { (v_b, v_a) } else { (v_a, v_b) };
        let (z, znew) = if flipped { (z_b, z_a) } else { (z_a, z_b) };
        Views {
            x,
            q,
            p,
            v,
            vnew,
            g,
            xref,
            u,
            r,
            d,
            z,
            znew,
            y,
            sx_a,
            sx_b,
            su_a,
            su_b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_disjoint_and_knot_sized() {
        let mut ws = TinyMpcWorkspace::<f64>::new(3, 2, 5);
        let all = [
            WsField::X,
            WsField::U,
            WsField::Q,
            WsField::R,
            WsField::P,
            WsField::D,
            WsField::V,
            WsField::VNew,
            WsField::Z,
            WsField::ZNew,
            WsField::Y,
            WsField::G,
            WsField::XRef,
        ];
        // Stamp a unique value into every element through the accessors
        // and verify nothing aliases.
        let mut stamp = 1.0;
        for &f in &all {
            for k in 0..ws.knots(f) {
                for e in ws.knot_mut(f, k) {
                    *e = stamp;
                    stamp += 1.0;
                }
            }
        }
        let mut expect = 1.0;
        for &f in &all {
            assert_eq!(
                ws.knot_dim(f),
                if ws.knots(f) == 5 { 3 } else { 2 },
                "{f:?}"
            );
            for k in 0..ws.knots(f) {
                for &e in ws.knot(f, k) {
                    assert_eq!(e, expect, "{f:?}[{k}] aliased");
                    expect += 1.0;
                }
            }
        }
    }

    #[test]
    fn slack_flip_exchanges_logical_fields_without_moving_data() {
        let mut ws = TinyMpcWorkspace::<f32>::new(2, 1, 3);
        ws.knot_mut(WsField::V, 0)[0] = 1.0;
        ws.knot_mut(WsField::VNew, 0)[0] = 2.0;
        ws.knot_mut(WsField::Z, 0)[0] = 3.0;
        ws.knot_mut(WsField::ZNew, 0)[0] = 4.0;
        ws.swap_slack_iterates();
        assert_eq!(ws.knot(WsField::V, 0)[0], 2.0);
        assert_eq!(ws.knot(WsField::VNew, 0)[0], 1.0);
        assert_eq!(ws.knot(WsField::Z, 0)[0], 4.0);
        assert_eq!(ws.knot(WsField::ZNew, 0)[0], 3.0);
        ws.swap_slack_iterates();
        assert_eq!(ws.knot(WsField::V, 0)[0], 1.0);
        assert_eq!(ws.knot(WsField::Z, 0)[0], 3.0);
    }

    #[test]
    fn cold_start_zeroes_duals_and_both_slack_regions() {
        let mut ws = TinyMpcWorkspace::<f64>::new(2, 1, 3);
        for f in [
            WsField::V,
            WsField::VNew,
            WsField::G,
            WsField::Z,
            WsField::ZNew,
            WsField::Y,
        ] {
            ws.knot_mut(f, 0)[0] = 7.0;
        }
        ws.knot_mut(WsField::X, 0)[0] = 9.0;
        ws.cold_start();
        for f in [
            WsField::V,
            WsField::VNew,
            WsField::G,
            WsField::Z,
            WsField::ZNew,
            WsField::Y,
        ] {
            assert_eq!(ws.knot(f, 0)[0], 0.0, "{f:?} not reset");
        }
        // Trajectories survive a cold start (only ADMM variables reset).
        assert_eq!(ws.knot(WsField::X, 0)[0], 9.0);
    }

    #[test]
    fn x0_pin_and_u0_staging() {
        let mut ws = TinyMpcWorkspace::<f64>::new(2, 1, 3);
        ws.set_x0(&[1.5, -2.5]);
        assert_eq!(ws.knot(WsField::X, 0), &[1.5, -2.5]);
        assert_eq!(ws.x0_pinned(), &[1.5, -2.5]);
        ws.knot_mut(WsField::Z, 0)[0] = 0.25;
        ws.stage_u0();
        assert_eq!(ws.u0(), &[0.25]);
        // Staging follows the logical z after a flip.
        ws.swap_slack_iterates();
        ws.knot_mut(WsField::Z, 0)[0] = 0.75;
        ws.stage_u0();
        assert_eq!(ws.u0(), &[0.75]);
    }

    #[test]
    fn is_finite_watches_the_guarded_fields() {
        let mut ws = TinyMpcWorkspace::<f64>::new(2, 1, 3);
        assert!(ws.is_finite());
        ws.knot_mut(WsField::P, 1)[0] = f64::NAN;
        assert!(!ws.is_finite());
        ws.knot_mut(WsField::P, 1)[0] = 0.0;
        // q is not part of the divergence guard (legacy contract).
        ws.knot_mut(WsField::Q, 1)[0] = f64::INFINITY;
        assert!(ws.is_finite());
    }
}
