//! # matlib-accel — runtime-dispatched hardware-FMA kernels.
//!
//! The baseline `x86_64` target has no FMA feature, so `f32::mul_add`
//! compiles to an `fmaf` libcall (~13 cycles per element) — the single
//! largest cost in matlib's gemv inner loop. Every CPU since ~2013
//! has the FMA instruction set, and the hardware instruction computes
//! the *same* correctly-rounded fused result as the libcall, so a
//! runtime-detected fast path is free of numerical risk.
//!
//! **Bit-identity contract.** Each kernel here reproduces the generic
//! loop in `matlib::gemv_into` operation-for-operation: one fused
//! multiply-add per element, strictly sequential accumulation within a
//! row (rows are independent, but the dot-product order is never
//! reassociated), and the trailing `+ 0.0` that canonicalizes `-0.0`.
//! Because fused rounding is exact and unique, hardware FMA and the
//! `fmaf`/`fma` libcalls agree on every input, including subnormals,
//! signed zeros and NaN payload propagation — the differential tests
//! below assert it.
//!
//! This is the only crate in the workspace that uses `unsafe`
//! (`matlib` and `tinympc` are `#![forbid(unsafe_code)]`): calling a
//! `#[target_feature(enable = "fma")]` function requires an `unsafe`
//! block, discharged by the `is_x86_feature_detected!` guard in front
//! of it. Non-`x86_64` builds (and pre-FMA CPUs) return `false` and
//! the caller keeps its generic loop.
//!
//! The same reason puts the workspace's one [`CountingAllocator`] here:
//! a `GlobalAlloc` impl is `unsafe` by definition. See its docs for
//! where it is installed.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Global allocator that counts every allocation and reallocation
/// before forwarding to [`System`]. Frees are not counted: the
/// contract it checks is "no hidden allocation", and a free without a
/// matching allocation is impossible.
///
/// The counter is process-wide, so it sees allocations made on any
/// thread, executor pool workers included. A zero-allocation gate
/// built on it is only sound when nothing else runs in the process
/// during its window, which is why each gate is the only test in its
/// test binary.
///
/// This crate never installs it, since that would install it in every
/// binary that links matlib. A binary opts in by declaring a
/// `static GLOBAL: CountingAllocator` marked as the global allocator,
/// as the `dse` binary (for `bench-serve`) and the two allocation-gate
/// test files do; the rest, `soc-perf` included, keep the plain system
/// allocator.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic add with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `alloc` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and reallocations made so far through
/// [`CountingAllocator`] in this process; stays 0 when it is not the
/// global allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    /// Row-major gemv, `y = A·x`, with one hardware FMA per element.
    ///
    /// Mirrors `matlib::gemv_into`'s generic loop exactly: sequential
    /// per-row accumulation, `+ 0.0` canonicalization.
    #[target_feature(enable = "fma")]
    pub fn gemv_rows_f32(a: &[f32], x: &[f32], y: &mut [f32]) {
        let cols = x.len();
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &a[i * cols..(i + 1) * cols];
            let mut acc = 0.0f32;
            for (&aip, &xp) in row.iter().zip(x.iter()) {
                acc = aip.mul_add(xp, acc);
            }
            *yi = acc + 0.0;
        }
    }

    /// `f64` variant of [`gemv_rows_f32`].
    #[target_feature(enable = "fma")]
    pub fn gemv_rows_f64(a: &[f64], x: &[f64], y: &mut [f64]) {
        let cols = x.len();
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &a[i * cols..(i + 1) * cols];
            let mut acc = 0.0f64;
            for (&aip, &xp) in row.iter().zip(x.iter()) {
                acc = aip.mul_add(xp, acc);
            }
            *yi = acc + 0.0;
        }
    }
}

/// True when the running CPU has a fused-multiply-add unit the
/// accelerated kernels can use. The detection result is cached by the
/// standard library, so this is an atomic load after the first call.
#[inline]
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Accelerated row-major `y = A·x` for `f32`; returns `false` (leaving
/// `y` untouched) when no hardware kernel is available.
///
/// `a` holds `y.len()` rows of `x.len()` columns.
///
/// # Panics
///
/// Panics if `a.len() != x.len() * y.len()` (the kernel's row slicing
/// bounds-checks the same invariant the caller already validated).
#[inline]
pub fn gemv_f32(a: &[f32], x: &[f32], y: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if available() {
        assert_eq!(a.len(), x.len() * y.len(), "gemv_f32 shape");
        // SAFETY: `available()` just confirmed the FMA feature at
        // runtime; the kernel uses no other target features.
        unsafe { x86::gemv_rows_f32(a, x, y) };
        return true;
    }
    let _ = (a, x, y);
    false
}

/// Accelerated row-major `y = A·x` for `f64`; see [`gemv_f32`].
///
/// # Panics
///
/// Panics if `a.len() != x.len() * y.len()`.
#[inline]
pub fn gemv_f64(a: &[f64], x: &[f64], y: &mut [f64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if available() {
        assert_eq!(a.len(), x.len() * y.len(), "gemv_f64 shape");
        // SAFETY: as in `gemv_f32`.
        unsafe { x86::gemv_rows_f64(a, x, y) };
        return true;
    }
    let _ = (a, x, y);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic value stream mixing magnitudes, signs, zeros and
    /// subnormal-scale values — the cases where an unfaithful FMA
    /// substitute (e.g. double-rounded f64 emulation) would diverge.
    fn stream(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            match s % 7 {
                0 => 0.0,
                1 => -0.0,
                2 => (u - 0.5) * 1e-38,
                3 => (u - 0.5) * 1e30,
                _ => (u - 0.5) * 4.0,
            }
        }
    }

    fn reference_f32(a: &[f32], x: &[f32], y: &mut [f32]) {
        let cols = x.len();
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (p, &xp) in x.iter().enumerate() {
                acc = a[i * cols + p].mul_add(xp, acc);
            }
            *yi = acc + 0.0;
        }
    }

    fn reference_f64(a: &[f64], x: &[f64], y: &mut [f64]) {
        let cols = x.len();
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for (p, &xp) in x.iter().enumerate() {
                acc = a[i * cols + p].mul_add(xp, acc);
            }
            *yi = acc + 0.0;
        }
    }

    #[test]
    fn f32_kernel_is_bit_identical_to_libcall_path() {
        if !available() {
            return; // nothing to differentiate on this host
        }
        let mut next = stream(7);
        for (rows, cols) in [(12, 12), (12, 4), (4, 12), (6, 3), (2, 1), (1, 17), (33, 9)] {
            let a: Vec<f32> = (0..rows * cols).map(|_| next() as f32).collect();
            let x: Vec<f32> = (0..cols).map(|_| next() as f32).collect();
            let mut fast = vec![0.0f32; rows];
            let mut slow = vec![0.0f32; rows];
            assert!(gemv_f32(&a, &x, &mut fast));
            reference_f32(&a, &x, &mut slow);
            let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
            let slow_bits: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, slow_bits, "{rows}x{cols}");
        }
    }

    #[test]
    fn f64_kernel_is_bit_identical_to_libcall_path() {
        if !available() {
            return;
        }
        let mut next = stream(11);
        for (rows, cols) in [(12, 12), (12, 4), (6, 3), (2, 1), (21, 5)] {
            let a: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
            let x: Vec<f64> = (0..cols).map(|_| next()).collect();
            let mut fast = vec![0.0f64; rows];
            let mut slow = vec![0.0f64; rows];
            assert!(gemv_f64(&a, &x, &mut fast));
            reference_f64(&a, &x, &mut slow);
            let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
            let slow_bits: Vec<u64> = slow.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, slow_bits, "{rows}x{cols}");
        }
    }

    #[test]
    fn negative_zero_is_canonicalized_like_the_generic_path() {
        if !available() {
            return;
        }
        // A row whose fused products sum to -0.0: the trailing `+ 0.0`
        // must canonicalize it to +0.0, exactly as gemv_into does.
        let a = [-1.0f32, 1.0];
        let x = [0.0f32, -0.0];
        let mut y = [f32::NAN];
        assert!(gemv_f32(&a, &x, &mut y));
        assert_eq!(y[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        if !available() {
            return;
        }
        let mut y: [f32; 0] = [];
        assert!(gemv_f32(&[], &[1.0, 2.0], &mut y));
        let mut y = [1.0f32; 3];
        assert!(gemv_f32(&[], &[], &mut y));
        assert_eq!(y, [0.0; 3]); // empty rows: y = 0-length dot = +0.0
    }
}
