//! Observables: kinetic energy and temperature.
//!
//! Reduced units throughout (k_B = m = 1): `KE = ½ Σ v²`,
//! `T = 2·KE / (3N)`.

use crate::vec3::Vec3;

/// Instantaneous temperature `2·KE / (3N)` of a velocity stream.
pub fn temperature(vels: impl Iterator<Item = Vec3>) -> f64 {
    let mut ke = 0.0;
    let mut n = 0usize;
    for v in vels {
        ke += 0.5 * v.norm2();
        n += 1;
    }
    assert!(n > 0, "temperature of zero particles is undefined");
    2.0 * ke / (3.0 * n as f64)
}

/// Temperature from a precomputed kinetic energy.
pub fn temperature_from_ke(ke: f64, n: usize) -> f64 {
    assert!(n > 0);
    2.0 * ke / (3.0 * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_matches_equipartition() {
        // Each particle with |v|² = 3 contributes KE 1.5 → T = 1.
        let vels = vec![Vec3::new(1.0, 1.0, 1.0); 7];
        assert!((temperature(vels.into_iter()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn temperature_from_ke_is_consistent() {
        let vels: Vec<Vec3> = (0..5).map(|i| Vec3::splat(i as f64 * 0.1)).collect();
        let ke = vels.iter().map(|v| 0.5 * v.norm2()).sum();
        assert_eq!(
            temperature(vels.iter().copied()),
            temperature_from_ke(ke, vels.len())
        );
    }

    #[test]
    #[should_panic]
    fn temperature_of_nothing_panics() {
        let _ = temperature(std::iter::empty());
    }
}
