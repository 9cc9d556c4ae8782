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
//! - simple-cubic lattice initial conditions with Maxwell–Boltzmann
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

// Id, position, velocity: 56 bytes.
pcdlb_mp::wire_struct!(Particle { id, pos, vel });

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

/// `items`, one per particle of a run in any order, each put at its
/// particle's id: ids are `0..n` by construction ([`init`]), so slot `id`
/// is the item's and no sort is needed — the result is in ascending id
/// order. A gather that lost or duplicated a particle fails here, naming
/// the id: one outside `0..n`, one met twice, or one never met.
pub fn place_by_id<T: Copy>(
    n: usize,
    items: impl IntoIterator<Item = T>,
    id: impl Fn(&T) -> u64,
) -> Vec<T> {
    let (mut placed, mut seen) = (Vec::new(), Vec::new());
    let items = items.into_iter().map(|item| (id(&item), item));
    place_by_id_into(&mut placed, &mut seen, n, items);
    placed
}

/// [`place_by_id`] of `(id, value)` items into buffers the caller keeps:
/// `placed` is refilled with the values in ascending id order, `seen` is
/// the scratch that catches a lost or duplicated id (same failures).
/// Neither allocates once it has held `n` items.
pub fn place_by_id_into<T: Copy>(
    placed: &mut Vec<T>,
    seen: &mut Vec<bool>,
    n: usize,
    items: impl IntoIterator<Item = (u64, T)>,
) {
    let mut items = items.into_iter().peekable();
    placed.clear();
    // Every slot starts as a copy of the first item and is overwritten.
    let Some(&(_, first)) = items.peek() else {
        assert!(n == 0, "particle id 0 is missing");
        return;
    };
    placed.resize(n, first);
    seen.clear();
    seen.resize(n, false);
    for (i, item) in items {
        let at = (usize::try_from(i).ok())
            .filter(|&at| at < n)
            .unwrap_or_else(|| panic!("particle id {i} is outside 0..{n}"));
        assert!(
            !std::mem::replace(&mut seen[at], true),
            "particle id {i} came twice"
        );
        placed[at] = item;
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        panic!("particle id {missing} is missing");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_particle_travels_as_id_pos_vel() {
        use pcdlb_mp::wire::{decode_all, encoded_len, Encode};
        let mut p = Particle::at_rest(3, Vec3::new(1.0, 2.0, 3.0));
        p.vel = Vec3::new(-0.5, 0.25, 8.0);
        assert_eq!(encoded_len(&p), 56);
        let v = vec![p; 10];
        assert_eq!(encoded_len(&v), 8 + 560);
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        assert_eq!(decode_all::<Vec<Particle>>(&bytes), Ok(v));
    }

    #[test]
    fn placing_by_id_orders_a_permutation_and_names_a_duplicate_or_a_gap() {
        let ids = [3u64, 0, 4, 1, 2];
        assert_eq!(place_by_id(5, ids, |&i| i), [0, 1, 2, 3, 4]);
        let caught = |ids: &'static [u64]| {
            let run = std::panic::catch_unwind(|| place_by_id(5, ids.iter().copied(), |&i| i));
            let payload = run.expect_err("an id set that is not 0..5");
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("a message")
        };
        assert_eq!(caught(&[3, 0, 4, 3, 2]), "particle id 3 came twice");
        assert_eq!(caught(&[3, 0, 4, 2]), "particle id 1 is missing");
        assert_eq!(caught(&[3, 0, 4, 1, 5]), "particle id 5 is outside 0..5");
    }
}
