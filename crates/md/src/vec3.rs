//! Minimal 3-vector for MD arithmetic.
//!
//! Deliberately small: `f64` components, the handful of operations the
//! engine needs, and nothing that would obscure the floating-point
//! evaluation order (bitwise reproducibility between the serial and
//! parallel simulators depends on performing identical operations in
//! identical order).

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component `f64` vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// All components equal.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Self::new(v, v, v)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Component-wise Euclidean remainder into `[0, l)` on each axis
    /// (periodic wrap of a position into the primary box).
    #[inline]
    pub fn rem_euclid(self, l: f64) -> Vec3 {
        Vec3::new(
            self.x.rem_euclid(l),
            self.y.rem_euclid(l),
            self.z.rem_euclid(l),
        )
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

// x, y, z: 24 bytes.
pcdlb_mp::wire_struct!(Vec3 { x, y, z });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_norms() {
        let a = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(a.dot(a), 25.0);
        assert_eq!(a.norm2(), 25.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn rem_euclid_wraps_negatives() {
        let v = Vec3::new(-0.5, 10.5, 3.0).rem_euclid(10.0);
        assert_eq!(v, Vec3::new(9.5, 0.5, 3.0));
    }

    #[test]
    fn splat_and_zero() {
        assert_eq!(Vec3::splat(2.0), Vec3::new(2.0, 2.0, 2.0));
        assert_eq!(Vec3::ZERO.norm2(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_add_commutes(ax in -1e6f64..1e6, ay in -1e6f64..1e6, az in -1e6f64..1e6,
                             bx in -1e6f64..1e6, by in -1e6f64..1e6, bz in -1e6f64..1e6) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_rem_euclid_lands_in_box(x in -1e4f64..1e4, y in -1e4f64..1e4, z in -1e4f64..1e4,
                                        l in 0.1f64..1e3) {
            let v = Vec3::new(x, y, z).rem_euclid(l);
            prop_assert!(v.x >= 0.0 && v.x < l);
            prop_assert!(v.y >= 0.0 && v.y < l);
            prop_assert!(v.z >= 0.0 && v.z < l);
        }

        #[test]
        fn prop_norm2_nonnegative(x in -1e6f64..1e6, y in -1e6f64..1e6, z in -1e6f64..1e6) {
            prop_assert!(Vec3::new(x, y, z).norm2() >= 0.0);
        }
    }
}
