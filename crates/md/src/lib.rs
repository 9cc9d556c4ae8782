//! `pcdlb-md` — the molecular-dynamics engine substrate.
//!
//! Implements the physics of the paper's Sec. 2.1 and 3.2 in reduced
//! Lennard-Jones units:
//!
//! - the truncated Lennard-Jones pair potential (Eq. 1) with cutoff `r_c`
//!   (paper: 2.5σ);
//! - a uniform cell grid with cells no smaller than `r_c`, so all
//!   interactions are found within a cell and its 26 neighbours;
//! - the velocity form of the Verlet integrator;
//! - simple-cubic / FCC lattice initial conditions with Maxwell–Boltzmann
//!   velocities;
//! - velocity-rescaling temperature control every `k` steps (paper: 50);
//! - a serial reference simulator whose pair-enumeration order is shared
//!   with the parallel simulator so the two produce **bitwise identical**
//!   trajectories.
//!
//! All quantities are in reduced units (σ = ε = m = k_B = 1). The paper's
//! physical conditions — supercooled argon gas at T* = 0.722, ρ* = 0.256 —
//! are plain numbers in these units.

pub mod analysis;
pub mod cells;
pub mod checkpoint;
pub mod force;
pub mod init;
pub mod integrate;
pub mod lj;
pub mod observe;
pub mod serial;
pub mod soa;
pub mod thermostat;
pub mod vec3;
pub mod verlet;

pub use cells::{axis_bin, CellCoord, CellGrid};
pub use force::{PairKernel, WorkCounters};
pub use lj::LennardJones;
pub use serial::SerialSim;
pub use soa::SoaField;
pub use vec3::Vec3;
pub use verlet::{DispTracker, SegAction, SegKind, Segment, VerletList};

use pcdlb_mp::WireSize;

/// One particle: identity, position and velocity. Forces are held in
/// per-cell side arrays so that ghost copies (which never need forces)
/// stay lean on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Globally unique id, stable for the life of the run. Per-cell lists
    /// are kept sorted by id so that force-summation order is canonical.
    pub id: u64,
    /// Position, wrapped into `[0, L)³`.
    pub pos: Vec3,
    /// Velocity.
    pub vel: Vec3,
}

impl WireSize for Particle {
    fn wire_size(&self) -> usize {
        8 + 6 * 8
    }
}

impl Particle {
    /// A particle at rest.
    pub fn at_rest(id: u64, pos: Vec3) -> Self {
        Self {
            id,
            pos,
            vel: Vec3::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_wire_size_counts_id_pos_vel() {
        let p = Particle::at_rest(3, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(p.wire_size(), 56);
        let v = vec![p; 10];
        assert_eq!(v.wire_size(), 8 + 560);
    }
}
