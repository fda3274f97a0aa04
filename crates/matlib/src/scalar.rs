use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type usable by every `matlib` container and
/// algorithm.
///
/// Implemented for `f32` and `f64`. The trait is sealed by construction (it
/// requires conversions only the crate provides sensibly); downstream code
/// should treat the set of implementors as closed.
pub trait Scalar:
    Copy
    + Debug
    + Display
    + Default
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Send
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon for this type.
    const EPSILON: Self;

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Element-wise maximum.
    fn max(self, other: Self) -> Self;
    /// Element-wise minimum.
    fn min(self, other: Self) -> Self;
    /// Fused (or at least contracted) multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Lossless widening to `f64` for diagnostics and residual reporting.
    fn to_f64(self) -> f64;
    /// Lossy conversion from `f64`, used by constructors and calibration.
    fn from_f64(v: f64) -> Self;
    /// Whether the value is finite (not NaN or infinite).
    fn is_finite(self) -> bool;
    /// The IEEE-754 bit pattern, zero-extended to 64 bits. Two values of
    /// one type with equal patterns are the same value bit for bit,
    /// signed zeros and NaN payloads included.
    fn bits(self) -> u64;
    /// Hands one row-major gemv (`y = A·x`, `y.len()` rows of
    /// `x.len()` columns) to a platform-accelerated kernel, returning
    /// `false` — with `y` untouched — when none is available for this
    /// scalar type on the running CPU.
    ///
    /// Implementations must be **bit-identical** to the generic
    /// `mul_add` loop in [`gemv_into`](crate::gemv_into): one fused
    /// multiply-add per element, strictly sequential accumulation
    /// within each row, trailing `+ 0` canonicalization. Hardware FMA
    /// satisfies this by construction (fused rounding is exact and
    /// unique); anything weaker (split multiply-add, reassociated
    /// sums, double-rounded emulation) must not be wired in here.
    #[inline]
    fn gemv_accel(_a: &[Self], _x: &[Self], _y: &mut [Self]) -> bool {
        false
    }
}

macro_rules! impl_scalar {
    ($t:ty, $gemv_accel:path) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;

            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline]
            fn bits(self) -> u64 {
                u64::from(<$t>::to_bits(self))
            }
            #[inline]
            fn gemv_accel(a: &[Self], x: &[Self], y: &mut [Self]) -> bool {
                $gemv_accel(a, x, y)
            }
        }
    };
}

impl_scalar!(f32, matlib_accel::gemv_f32);
impl_scalar!(f64, matlib_accel::gemv_f64);
