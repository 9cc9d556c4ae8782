//! Verlet neighbour lists — the classic alternative to searching all 27
//! neighbouring cells every step (the strategy the paper's program uses,
//! Sec. 3.2: "compute distances … with every combination of molecules
//! within each cell and its neighbouring 26 cells").
//!
//! A half list (`i < j` by slice index) of pairs within `r_c + skin` is
//! built through a cell grid in O(N) — the canonical *half-shell*
//! enumeration: a triangular intra-cell loop plus the 13 forward offsets
//! of [`HALF_OFFSETS_13`], which halves both the build work and the list
//! memory relative to the historical 27-offset sweep. The list stays
//! valid until some particle has moved more than `skin/2`, so most
//! steps touch only ~`ρ·4π(r_c+skin)³/3` candidates per particle.
//!
//! Storage is CSR: one flat `partners` array indexed by an `offsets`
//! table, and all build scratch (the cell slab, the staging vector, the
//! pair accumulator) is retained across [`NeighborList::rebuild`] calls,
//! so steady-state rebuilds are allocation-free once the buffers have
//! grown to their working capacity.
//!
//! This module is the *standalone library* form of the machinery; the
//! simulator hot paths use the segment-replay variant in
//! [`crate::verlet`], which additionally preserves the canonical
//! summation order for bitwise parity.

use crate::cells::{axis_bin, CellSlab, HALF_OFFSETS_13};
use crate::force::WorkCounters;
use crate::lj::LennardJones;
use crate::vec3::Vec3;
use crate::Particle;

/// A half neighbour list (`i < j` by slice index) over an id-sorted
/// particle slice, in CSR storage.
#[derive(Debug, Clone)]
pub struct NeighborList {
    box_len: f64,
    skin: f64,
    /// `n + 1` offsets into `partners`.
    offsets: Vec<u32>,
    /// Flat partner indices: for particle `i`,
    /// `partners[offsets[i]..offsets[i+1]]` holds the `j > i` within
    /// `r_c + skin` at build time, ascending.
    partners: Vec<u32>,
    /// Positions at build time (for the displacement test).
    ref_pos: Vec<Vec3>,
    /// Retained build scratch.
    slab: CellSlab,
    staging: Vec<Particle>,
    pairs: Vec<(u32, u32)>,
}

impl NeighborList {
    /// Build from an id-sorted slice via a cell grid with cells of at
    /// least `r_c + skin`. `skin` must be positive.
    pub fn build(particles: &[Particle], box_len: f64, lj: &LennardJones, skin: f64) -> Self {
        assert!(skin > 0.0, "skin must be positive");
        let mut list = Self {
            box_len,
            skin,
            offsets: Vec::new(),
            partners: Vec::new(),
            ref_pos: Vec::new(),
            slab: CellSlab::empty(1),
            staging: Vec::new(),
            pairs: Vec::new(),
        };
        list.rebuild(particles, lj);
        list
    }

    /// Rebuild in place from the current positions, reusing all internal
    /// buffers (allocation-free once they have grown to capacity).
    pub fn rebuild(&mut self, particles: &[Particle], lj: &LennardJones) {
        assert!(
            particles.windows(2).all(|w| w[0].id < w[1].id),
            "particles must be id-sorted"
        );
        let reach = lj.rcut + self.skin;
        let box_len = self.box_len;
        let nc = ((box_len / reach).floor() as usize).max(2);
        assert!(
            box_len / nc as f64 >= reach - 1e-12,
            "box too small for cutoff + skin"
        );
        let cell_len = box_len / nc as f64;
        let n_cells = nc * nc * nc;

        // Stage copies carrying the *slice index* as id: the slab sorts
        // by (cell, id), so each cell's slice stays ascending-index.
        self.staging.clear();
        for (k, p) in particles.iter().enumerate() {
            self.staging.push(Particle {
                id: k as u64,
                pos: p.pos,
                vel: Vec3::ZERO,
            });
        }
        let cell_of = move |p: &Particle| {
            (axis_bin(p.pos.x, cell_len, nc) * nc + axis_bin(p.pos.y, cell_len, nc)) * nc
                + axis_bin(p.pos.z, cell_len, nc)
        };
        self.slab.rebuild_from(n_cells, &mut self.staging, cell_of);

        // Half-shell pair sweep: triangular intra loop + 13 forward
        // offsets, each unordered cell pair visited once.
        let reach2 = reach * reach;
        self.pairs.clear();
        let wrap1 = |c: i64| -> (usize, f64) {
            let n = nc as i64;
            if c < 0 {
                ((c + n) as usize, -box_len)
            } else if c >= n {
                ((c - n) as usize, box_len)
            } else {
                (c as usize, 0.0)
            }
        };
        for cx in 0..nc {
            for cy in 0..nc {
                for cz in 0..nc {
                    let idx = (cx * nc + cy) * nc + cz;
                    let home = self.slab.cell(idx);
                    if home.is_empty() {
                        continue;
                    }
                    for (a, pa) in home.iter().enumerate() {
                        for pb in &home[a + 1..] {
                            if ((pb.pos - pa.pos).norm2()) < reach2 {
                                self.pairs.push((pa.id as u32, pb.id as u32));
                            }
                        }
                    }
                    for (dx, dy, dz) in HALF_OFFSETS_13 {
                        let (ncx, sx) = wrap1(cx as i64 + dx);
                        let (ncy, sy) = wrap1(cy as i64 + dy);
                        let (ncz, sz) = wrap1(cz as i64 + dz);
                        let shift = Vec3::new(sx, sy, sz);
                        let nidx = (ncx * nc + ncy) * nc + ncz;
                        for pa in home {
                            for pb in self.slab.cell(nidx) {
                                if (((pb.pos + shift) - pa.pos).norm2()) < reach2 {
                                    let (lo, hi) = if pa.id < pb.id {
                                        (pa.id, pb.id)
                                    } else {
                                        (pb.id, pa.id)
                                    };
                                    self.pairs.push((lo as u32, hi as u32));
                                }
                            }
                        }
                    }
                }
            }
        }
        // A pair can be seen via two periodic images on tiny grids.
        self.pairs.sort_unstable();
        self.pairs.dedup();

        // CSR fill.
        self.offsets.clear();
        self.offsets.resize(particles.len() + 1, 0);
        for &(i, _) in &self.pairs {
            self.offsets[i as usize + 1] += 1;
        }
        for i in 0..particles.len() {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.partners.clear();
        self.partners.extend(self.pairs.iter().map(|&(_, j)| j));

        self.ref_pos.clear();
        self.ref_pos.extend(particles.iter().map(|p| p.pos));
    }

    /// Total number of stored (half) pairs.
    pub fn num_pairs(&self) -> usize {
        self.partners.len()
    }

    /// One particle's partner indices (`j > i`, ascending).
    pub fn partners_of(&self, i: usize) -> &[u32] {
        &self.partners[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// True when some particle has drifted more than `skin/2` from its
    /// build-time position (minimum-image), invalidating the list.
    pub fn needs_rebuild(&self, particles: &[Particle]) -> bool {
        let lim2 = (0.5 * self.skin) * (0.5 * self.skin);
        particles
            .iter()
            .zip(&self.ref_pos)
            .any(|(p, r)| crate::analysis::minimum_image(p.pos, *r, self.box_len).norm2() > lim2)
    }

    /// Compute forces (and energy/virial counters) for the current
    /// positions using the stored pairs with minimum-image distances.
    /// Valid only while [`NeighborList::needs_rebuild`] is false.
    pub fn compute_forces(
        &self,
        particles: &[Particle],
        lj: &LennardJones,
    ) -> (Vec<Vec3>, WorkCounters) {
        assert_eq!(particles.len(), self.ref_pos.len(), "particle set changed");
        let mut forces = vec![Vec3::ZERO; particles.len()];
        let mut w = WorkCounters::default();
        let rcut2 = lj.rcut2();
        for i in 0..particles.len() {
            for &j in self.partners_of(i) {
                let j = j as usize;
                w.pair_checks += 1;
                let r = crate::analysis::minimum_image(
                    particles[j].pos,
                    particles[i].pos,
                    self.box_len,
                );
                let r2 = r.norm2();
                if r2 < rcut2 {
                    w.interacting_pairs += 1;
                    let for_r = lj.force_over_r_r2(r2);
                    forces[i] -= r * for_r;
                    forces[j] += r * for_r;
                    w.potential += lj.energy_r2(r2);
                    w.virial += for_r * r2;
                }
            }
        }
        (forces, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::serial::SerialSim;
    use crate::thermostat::Thermostat;

    fn gas(n: usize, box_len: f64, seed: u64) -> Vec<Particle> {
        let mut ps = init::simple_cubic(n, box_len);
        init::maxwell_boltzmann(&mut ps, 0.722, seed);
        ps
    }

    #[test]
    fn forces_match_the_cell_search() {
        let box_len = 12.0;
        let ps = gas(200, box_len, 1);
        let lj = LennardJones::paper();
        let list = NeighborList::build(&ps, box_len, &lj, 0.5);
        let (forces, w) = list.compute_forces(&ps, &lj);
        // Reference: one force evaluation through the serial simulator.
        let mut sim = SerialSim::new(ps.clone(), 4, box_len, lj, 0.001, Thermostat::off());
        sim.ensure_forces();
        let ref_work = sim.last_work();
        // Potential energies agree to high precision (different summation
        // order, so not bitwise).
        assert!(
            (w.potential - ref_work.potential).abs() < 1e-9 * (1.0 + ref_work.potential.abs()),
            "PE: list {} vs cells {}",
            w.potential,
            ref_work.potential
        );
        // Net force ≈ 0 (Newton's third law holds pairwise exactly here).
        let net = forces.iter().fold(Vec3::ZERO, |a, f| a + *f);
        assert!(net.norm() < 1e-10, "net force {net:?}");
        // Half-list candidate count is far below the 27-cell search's.
        assert!(
            w.pair_checks * 4 < ref_work.pair_checks,
            "{} list checks vs {} cell checks",
            w.pair_checks,
            ref_work.pair_checks
        );
    }

    #[test]
    fn forces_match_cell_search_per_particle() {
        let box_len = 10.4;
        let ps = gas(125, box_len, 2);
        let lj = LennardJones::paper();
        let list = NeighborList::build(&ps, box_len, &lj, 0.4);
        let (forces, _) = list.compute_forces(&ps, &lj);
        // Independent O(N²) reference with minimum image.
        for (i, p) in ps.iter().enumerate() {
            let mut f = Vec3::ZERO;
            for (j, q) in ps.iter().enumerate() {
                if i == j {
                    continue;
                }
                let r = crate::analysis::minimum_image(q.pos, p.pos, box_len);
                f -= r * lj.force_over_r_r2(r.norm2());
            }
            assert!(
                (forces[i] - f).norm() < 1e-9,
                "particle {i}: {:?} vs {:?}",
                forces[i],
                f
            );
        }
    }

    #[test]
    fn csr_layout_is_half_sorted_and_rebuild_is_allocation_free() {
        let box_len = 12.0;
        let mut ps = gas(150, box_len, 7);
        let lj = LennardJones::paper();
        let mut list = NeighborList::build(&ps, box_len, &lj, 0.5);
        // Half-list shape: every partner index is greater than its row,
        // rows ascending.
        for i in 0..ps.len() {
            let row = list.partners_of(i);
            assert!(row.iter().all(|&j| j as usize > i), "row {i}: {row:?}");
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
        }
        // Steady-state rebuild reuses capacity.
        let caps = (
            list.partners.capacity(),
            list.pairs.capacity(),
            list.ref_pos.capacity(),
            list.offsets.capacity(),
        );
        for p in &mut ps {
            p.pos.x = (p.pos.x + 0.05).rem_euclid(box_len);
        }
        list.rebuild(&ps, &lj);
        assert_eq!(
            caps,
            (
                list.partners.capacity(),
                list.pairs.capacity(),
                list.ref_pos.capacity(),
                list.offsets.capacity(),
            ),
            "rebuild must not reallocate at steady state"
        );
        assert!(list.num_pairs() > 0);
    }

    #[test]
    fn rebuild_triggers_only_after_half_skin_drift() {
        let box_len = 12.0;
        let mut ps = gas(64, box_len, 3);
        let lj = LennardJones::paper();
        let skin = 0.6;
        let list = NeighborList::build(&ps, box_len, &lj, skin);
        assert!(!list.needs_rebuild(&ps));
        ps[10].pos.x = (ps[10].pos.x + 0.25).rem_euclid(box_len); // < skin/2
        assert!(!list.needs_rebuild(&ps));
        ps[10].pos.x = (ps[10].pos.x + 0.1).rem_euclid(box_len); // > skin/2 total
        assert!(list.needs_rebuild(&ps));
    }

    #[test]
    fn list_stays_valid_through_short_dynamics() {
        // Integrate with list-based forces and verify energies track the
        // cell-search simulator within tolerance while the list is valid.
        let box_len = 12.0;
        let ps = gas(150, box_len, 4);
        let lj = LennardJones::paper();
        let dt = 0.0025;
        let mut sim = SerialSim::new(ps.clone(), 4, box_len, lj, dt, Thermostat::off());
        let mut mine = ps;
        let list = NeighborList::build(&mine, box_len, &lj, 0.8);
        let (mut forces, _) = list.compute_forces(&mine, &lj);
        for _ in 0..20 {
            let info = sim.step();
            for (p, f) in mine.iter_mut().zip(&forces) {
                crate::integrate::kick_drift(p, *f, dt, box_len);
            }
            assert!(!list.needs_rebuild(&mine), "list invalidated too soon");
            let (f2, w) = list.compute_forces(&mine, &lj);
            forces = f2;
            for (p, f) in mine.iter_mut().zip(&forces) {
                crate::integrate::kick(p, *f, dt);
            }
            assert!(
                (w.potential - info.potential).abs() < 1e-6 * (1.0 + info.potential.abs()),
                "potential diverged: {} vs {}",
                w.potential,
                info.potential
            );
        }
    }

    #[test]
    fn num_pairs_scales_with_density() {
        let lj = LennardJones::paper();
        let sparse = NeighborList::build(&gas(100, 20.0, 5), 20.0, &lj, 0.5);
        let dense = NeighborList::build(&gas(800, 20.0, 5), 20.0, &lj, 0.5);
        assert!(
            dense.num_pairs() > 30 * sparse.num_pairs() / 8,
            "dense {} vs sparse {}",
            dense.num_pairs(),
            sparse.num_pairs()
        );
    }

    #[test]
    #[should_panic(expected = "id-sorted")]
    fn unsorted_input_rejected() {
        let mut ps = gas(10, 12.0, 6);
        ps.swap(0, 5);
        let _ = NeighborList::build(&ps, 12.0, &LennardJones::paper(), 0.5);
    }
}
