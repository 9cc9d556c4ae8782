//! Initial conditions: lattice placement and Maxwell–Boltzmann velocities.
//!
//! The paper starts supercooled-gas runs from uniform conditions at a
//! given reduced density ρ* and temperature T*; particles then concentrate
//! over the course of the run (Sec. 3.2). We place particles on the sites
//! of a simple cubic lattice over the periodic box, draw velocities from
//! the Maxwell–Boltzmann distribution, remove the net momentum and
//! rescale to exactly T*.
//!
//! The start is uniform only when `n` is a perfect cube. Sites are filled
//! in lexicographic order, so `n < side³` leaves the last x-layers empty:
//! the gas workloads' 7422 particles on 20³ sites leave 1.445 layers, a
//! 2.2 σ slab, unfilled. Spreading the missing sites over the lattice is
//! ROADMAP item 16; it moves every digest, so it waits for that re-pin.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::observe;
use crate::vec3::Vec3;
use crate::Particle;

/// Place `n` particles on a simple cubic lattice of `side = ⌈∛n⌉` sites
/// a side inside a cubic box of side `box_len`, ids `0..n` in
/// lexicographic site order (x slowest). The first `n` sites are taken,
/// so unless `n = side³` the last x-layers stay empty or part-filled (see
/// the module doc). Sites are offset by half a spacing so no particle
/// sits exactly on the periodic boundary.
pub fn simple_cubic(n: usize, box_len: f64) -> Vec<Particle> {
    assert!(n > 0, "need at least one particle");
    let side = (n as f64).cbrt().ceil() as usize;
    let spacing = box_len / side as f64;
    let mut out = Vec::with_capacity(n);
    'fill: for ix in 0..side {
        for iy in 0..side {
            for iz in 0..side {
                if out.len() == n {
                    break 'fill;
                }
                let pos = Vec3::new(
                    (ix as f64 + 0.5) * spacing,
                    (iy as f64 + 0.5) * spacing,
                    (iz as f64 + 0.5) * spacing,
                );
                out.push(Particle::at_rest(out.len() as u64, pos));
            }
        }
    }
    out
}

/// Draw Maxwell–Boltzmann velocities at temperature `t_ref` (reduced
/// units, m = 1 → each component is N(0, √T)), remove the centre-of-mass
/// momentum, and rescale so the instantaneous temperature is exactly
/// `t_ref`. Deterministic for a given `seed`.
pub fn maxwell_boltzmann(particles: &mut [Particle], t_ref: f64, seed: u64) {
    assert!(t_ref > 0.0, "temperature must be positive");
    assert!(
        particles.len() > 1,
        "need at least two particles to thermalise"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let std = t_ref.sqrt();
    for p in particles.iter_mut() {
        p.vel = Vec3::new(
            gaussian(&mut rng) * std,
            gaussian(&mut rng) * std,
            gaussian(&mut rng) * std,
        );
    }
    // Remove net momentum so the box does not drift.
    let mut total = Vec3::ZERO;
    for p in particles.iter() {
        total += p.vel;
    }
    let mean = total / particles.len() as f64;
    for p in particles.iter_mut() {
        p.vel -= mean;
    }
    // Rescale to exactly T*.
    let t_now = observe::temperature(particles.iter().map(|p| p.vel));
    let scale = (t_ref / t_now).sqrt();
    for p in particles.iter_mut() {
        p.vel = p.vel * scale;
    }
}

/// Standard normal via Box–Muller (avoids a dependency on rand_distr,
/// which is not in the approved crate list).
fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc_places_exactly_n_inside_box() {
        for n in [1, 7, 8, 27, 100] {
            let ps = simple_cubic(n, 10.0);
            assert_eq!(ps.len(), n);
            for p in &ps {
                assert!(p.pos.x > 0.0 && p.pos.x < 10.0);
                assert!(p.pos.y > 0.0 && p.pos.y < 10.0);
                assert!(p.pos.z > 0.0 && p.pos.z < 10.0);
            }
        }
    }

    #[test]
    fn sc_ids_are_sequential_and_unique() {
        let ps = simple_cubic(50, 10.0);
        let ids: Vec<u64> = ps.iter().map(|p| p.id).collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sc_minimum_separation_is_the_lattice_spacing() {
        let ps = simple_cubic(27, 9.0); // 3×3×3, spacing 3
        let mut min2 = f64::INFINITY;
        for i in 0..ps.len() {
            for j in 0..i {
                min2 = min2.min((ps[i].pos - ps[j].pos).norm2());
            }
        }
        assert!((min2.sqrt() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sc_leaves_the_last_x_layers_of_a_part_filled_lattice_empty() {
        // The gas workloads' start: 7422 particles on 20³ sites fill 18
        // x-layers of 400, 222 sites of the next, and none of the last.
        let box_len = 30.72;
        let ps = simple_cubic(7422, box_len);
        let mut per_layer = [0usize; 20];
        for p in &ps {
            per_layer[(p.pos.x / (box_len / 20.0)) as usize] += 1;
        }
        assert!(per_layer[..18].iter().all(|&c| c == 400));
        assert_eq!((per_layer[18], per_layer[19]), (222, 0));
    }

    #[test]
    fn mb_hits_target_temperature_exactly() {
        let mut ps = simple_cubic(500, 20.0);
        maxwell_boltzmann(&mut ps, 0.722, 42);
        let t = observe::temperature(ps.iter().map(|p| p.vel));
        assert!((t - 0.722).abs() < 1e-12, "T = {t}");
    }

    #[test]
    fn mb_removes_net_momentum() {
        let mut ps = simple_cubic(100, 10.0);
        maxwell_boltzmann(&mut ps, 1.0, 7);
        let mut total = Vec3::ZERO;
        for p in &ps {
            total += p.vel;
        }
        assert!(total.norm() < 1e-10, "net momentum {total:?}");
    }

    #[test]
    fn mb_is_deterministic_per_seed() {
        let mut a = simple_cubic(64, 10.0);
        let mut b = simple_cubic(64, 10.0);
        maxwell_boltzmann(&mut a, 0.722, 123);
        maxwell_boltzmann(&mut b, 0.722, 123);
        assert_eq!(a, b);
        let mut c = simple_cubic(64, 10.0);
        maxwell_boltzmann(&mut c, 0.722, 124);
        assert_ne!(a, c);
    }

    #[test]
    fn mb_velocity_components_look_gaussian() {
        let mut ps = simple_cubic(4000, 40.0);
        maxwell_boltzmann(&mut ps, 1.0, 9);
        // Sample kurtosis of a normal ≈ 3; loose bounds catch gross bugs.
        let vs: Vec<f64> = ps.iter().map(|p| p.vel.x).collect();
        let mean = vs.iter().sum::<f64>() / vs.len() as f64;
        let var = vs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vs.len() as f64;
        let kurt =
            vs.iter().map(|v| (v - mean).powi(4)).sum::<f64>() / vs.len() as f64 / (var * var);
        assert!((kurt - 3.0).abs() < 0.5, "kurtosis {kurt}");
    }
}
