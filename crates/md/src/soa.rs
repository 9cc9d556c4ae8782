//! Structure-of-arrays hot data for the force inner loop.
//!
//! The pair kernel's hot loop touches only positions (read) and forces
//! (read-modify-write). [`SoaField`] splits exactly that data out of the
//! AoS [`crate::Particle`] slabs into six flat `f64` arrays — `x/y/z`
//! positions for every slot (owned first, ghosts appended) and
//! `fx/fy/fz` force accumulators for the owned slots — while the cold
//! fields (id, velocity) stay in the slabs and are rejoined at
//! integration time. The arrays are retained scratch: loading positions
//! and zeroing forces is O(N) with no steady-state allocation.
//!
//! The SoA kernels below mirror [`crate::force::PairKernel`]'s AoS
//! kernels *expression for expression*: the displacement is
//! `(b + shift) − a` componentwise, the squared norm is the
//! left-associated `x·x + y·y + z·z`, and stores happen in the same
//! per-slot order. Their force sums are therefore bitwise identical to
//! the AoS walk — the property the Verlet replay and the SoA bench row
//! both rely on, asserted by the tests at the bottom.

use std::ops::Range;

use crate::force::{PairKernel, WorkCounters};
use crate::vec3::Vec3;
use crate::Particle;

/// Flat SoA position/force arrays over one rank's slot space: owned
/// slots `0..n_owned` (whose forces are accumulated) followed by ghost
/// slots `n_owned..len` (positions only).
#[derive(Debug, Clone, Default)]
pub struct SoaField {
    pub(crate) xs: Vec<f64>,
    pub(crate) ys: Vec<f64>,
    pub(crate) zs: Vec<f64>,
    pub(crate) fxs: Vec<f64>,
    pub(crate) fys: Vec<f64>,
    pub(crate) fzs: Vec<f64>,
    n_owned: usize,
}

impl SoaField {
    /// Empty field; buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resize for `n_total` position slots of which the first `n_owned`
    /// accumulate forces (zeroed here). Retains capacity.
    pub fn reset(&mut self, n_owned: usize, n_total: usize) {
        debug_assert!(n_owned <= n_total);
        self.n_owned = n_owned;
        for v in [&mut self.xs, &mut self.ys, &mut self.zs] {
            v.clear();
            v.resize(n_total, 0.0);
        }
        for v in [&mut self.fxs, &mut self.fys, &mut self.fzs] {
            v.clear();
            v.resize(n_owned, 0.0);
        }
    }

    /// Number of force-accumulating (owned) slots.
    pub fn n_owned(&self) -> usize {
        self.n_owned
    }

    /// Total number of position slots (owned + ghost).
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when no slots are loaded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Copy the positions of `parts` into slots `base..base+parts.len()`.
    pub fn load_positions(&mut self, base: usize, parts: &[Particle]) {
        for (k, p) in parts.iter().enumerate() {
            self.xs[base + k] = p.pos.x;
            self.ys[base + k] = p.pos.y;
            self.zs[base + k] = p.pos.z;
        }
    }

    /// One slot's position.
    pub fn pos(&self, i: usize) -> Vec3 {
        Vec3::new(self.xs[i], self.ys[i], self.zs[i])
    }

    /// Zero the force accumulators (positions untouched).
    pub fn zero_forces(&mut self) {
        self.fxs.fill(0.0);
        self.fys.fill(0.0);
        self.fzs.fill(0.0);
    }

    /// One owned slot's accumulated force.
    pub fn force(&self, i: usize) -> Vec3 {
        Vec3::new(self.fxs[i], self.fys[i], self.fzs[i])
    }

    /// Add `f` to one owned slot's force (the external-pull path, which
    /// accumulates componentwise exactly like `Vec3 += Vec3`).
    pub fn add_force(&mut self, i: usize, f: Vec3) {
        self.fxs[i] += f.x;
        self.fys[i] += f.y;
        self.fzs[i] += f.z;
    }

    /// Copy the owned forces out into a `Vec<Vec3>` aligned with the
    /// owned slot order (resized, no steady-state allocation).
    pub fn fold_forces(&self, out: &mut Vec<Vec3>) {
        out.clear();
        out.resize(self.n_owned, Vec3::ZERO);
        for (i, o) in out.iter_mut().enumerate() {
            *o = Vec3::new(self.fxs[i], self.fys[i], self.fzs[i]);
        }
    }
}

impl PairKernel {
    /// SoA mirror of [`PairKernel::accumulate_intra`]: triangular loop
    /// over one cell's slots, both reactions stored, full-shell work
    /// accounting. Bitwise identical to the AoS loop.
    pub fn accumulate_intra_soa(&self, soa: &mut SoaField, r: Range<usize>, w: &mut WorkCounters) {
        let rcut2 = self.lj.rcut2();
        let n = r.len() as u64;
        w.pair_checks += n * n.saturating_sub(1);
        for i in r.clone() {
            for j in (i + 1)..r.end {
                let rx = soa.xs[j] - soa.xs[i];
                let ry = soa.ys[j] - soa.ys[i];
                let rz = soa.zs[j] - soa.zs[i];
                let r2 = rx * rx + ry * ry + rz * rz;
                if r2 < rcut2 {
                    w.interacting_pairs += 2;
                    let for_r = self.lj.force_over_r_r2(r2);
                    let (fx, fy, fz) = (rx * for_r, ry * for_r, rz * for_r);
                    soa.fxs[i] -= fx;
                    soa.fys[i] -= fy;
                    soa.fzs[i] -= fz;
                    soa.fxs[j] += fx;
                    soa.fys[j] += fy;
                    soa.fzs[j] += fz;
                    w.potential += self.lj.energy_r2(r2);
                }
            }
        }
    }

    /// SoA mirror of [`PairKernel::accumulate_pair`]: every
    /// `(i ∈ a, j ∈ b)` combination once, `b` displaced by `shift`,
    /// with runtime store flags instead of const generics. `sa`/`sb`
    /// select which side's forces are stored (both sides must be owned
    /// slots when stored), and the potential is credited ½ per stored
    /// side. Bitwise identical to the AoS kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate_pair_soa(
        &self,
        soa: &mut SoaField,
        a: Range<usize>,
        b: Range<usize>,
        shift: Vec3,
        sa: bool,
        sb: bool,
        w: &mut WorkCounters,
    ) {
        if !sa && !sb {
            return;
        }
        let stores = sa as u64 + sb as u64;
        let rcut2 = self.lj.rcut2();
        w.pair_checks += stores * a.len() as u64 * b.len() as u64;
        for i in a {
            for j in b.clone() {
                let rx = (soa.xs[j] + shift.x) - soa.xs[i];
                let ry = (soa.ys[j] + shift.y) - soa.ys[i];
                let rz = (soa.zs[j] + shift.z) - soa.zs[i];
                let r2 = rx * rx + ry * ry + rz * rz;
                if r2 < rcut2 {
                    self.soa_hit(soa, i, j, rx, ry, rz, r2, sa, sb, stores, w);
                }
            }
        }
    }

    /// Apply one in-range pair: stores and the ½-per-stored-side energy
    /// credit, in the AoS kernel's exact expression order.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn soa_hit(
        &self,
        soa: &mut SoaField,
        i: usize,
        j: usize,
        rx: f64,
        ry: f64,
        rz: f64,
        r2: f64,
        sa: bool,
        sb: bool,
        stores: u64,
        w: &mut WorkCounters,
    ) {
        w.interacting_pairs += stores;
        let for_r = self.lj.force_over_r_r2(r2);
        let (fx, fy, fz) = (rx * for_r, ry * for_r, rz * for_r);
        if sa {
            soa.fxs[i] -= fx;
            soa.fys[i] -= fy;
            soa.fzs[i] -= fz;
        }
        if sb {
            soa.fxs[j] += fx;
            soa.fys[j] += fy;
            soa.fzs[j] += fz;
        }
        w.potential += 0.5 * stores as f64 * self.lj.energy_r2(r2);
    }
}

/// SoA variant of [`crate::serial::compute_forces_half_shell`]: the same
/// canonical walk (ascending home cells, triangular intra loop, the 13
/// forward offsets, then the external pull), with positions loaded into
/// `soa` and forces accumulated there. `forces` receives the folded
/// result aligned with [`crate::cells::CellGrid::particles`]. Bitwise
/// identical to the AoS walk; the bench harness times the two against
/// each other.
pub fn compute_forces_half_shell_soa(
    grid: &crate::cells::CellGrid,
    kernel: &PairKernel,
    pull: &crate::force::ExternalPull,
    soa: &mut SoaField,
    forces: &mut Vec<Vec3>,
) -> WorkCounters {
    let mut work = WorkCounters::default();
    let n = grid.num_particles();
    soa.reset(n, n);
    soa.load_positions(0, grid.particles());
    let box_len = grid.box_len();
    for idx in 0..grid.total_cells() {
        let hr = grid.cell_range(idx);
        if hr.is_empty() {
            continue;
        }
        let home = grid.coord_of(idx);
        kernel.accumulate_intra_soa(soa, hr.clone(), &mut work);
        for offset in crate::cells::HALF_OFFSETS_13 {
            let (ncell, shift) = grid.wrap_neighbor(home, offset);
            let nr = grid.cell_range(grid.index(ncell));
            if nr.is_empty() {
                continue;
            }
            kernel.accumulate_pair_soa(soa, hr.clone(), nr, shift, true, true, &mut work);
        }
        if !pull.is_none() {
            for i in hr {
                let p = soa.pos(i);
                soa.add_force(i, pull.force(p, box_len));
                work.potential += pull.energy(p, box_len);
            }
        }
    }
    soa.fold_forces(forces);
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellGrid;
    use crate::init;
    use crate::lj::LennardJones;
    use crate::serial::compute_forces_half_shell;

    fn gas_grid(n: usize, nc: usize, box_len: f64, seed: u64) -> CellGrid {
        let mut ps = init::simple_cubic(n, box_len);
        init::maxwell_boltzmann(&mut ps, 0.722, seed);
        let mut grid = CellGrid::new(nc, box_len);
        for p in ps {
            grid.insert(p);
        }
        grid.canonicalize();
        grid
    }

    #[test]
    fn soa_walk_is_bitwise_identical_to_aos_walk() {
        let grid = gas_grid(300, 4, 12.0, 1);
        let kernel = PairKernel::new(LennardJones::paper());
        for pull in [
            crate::force::ExternalPull::None,
            crate::force::ExternalPull::Center { k: 0.05 },
        ] {
            let mut aos_forces = Vec::new();
            let w_aos = compute_forces_half_shell(&grid, &kernel, &pull, &mut aos_forces);
            let mut soa = SoaField::new();
            let mut soa_forces = Vec::new();
            let w_soa =
                compute_forces_half_shell_soa(&grid, &kernel, &pull, &mut soa, &mut soa_forces);
            assert_eq!(aos_forces, soa_forces);
            assert_eq!(w_aos.pair_checks, w_soa.pair_checks);
            assert_eq!(w_aos.interacting_pairs, w_soa.interacting_pairs);
            assert_eq!(w_aos.potential.to_bits(), w_soa.potential.to_bits());
        }
    }

    #[test]
    fn soa_pair_matches_aos_pair_per_store_combination() {
        let grid = gas_grid(120, 3, 9.0, 2);
        let kernel = PairKernel::new(LennardJones::paper());
        let parts = grid.particles();
        let hr = grid.cell_range(0);
        // Find a non-empty neighbour cell for a cross-cell range.
        let (nr, shift) = {
            let home = grid.coord_of(0);
            let mut found = None;
            for offset in crate::cells::HALF_OFFSETS_13 {
                let (ncell, s) = grid.wrap_neighbor(home, offset);
                let r = grid.cell_range(grid.index(ncell));
                if !r.is_empty() {
                    found = Some((r, s));
                    break;
                }
            }
            found.expect("some neighbour cell is non-empty")
        };
        for (sa, sb) in [(true, true), (true, false), (false, true)] {
            let mut soa = SoaField::new();
            soa.reset(parts.len(), parts.len());
            soa.load_positions(0, parts);
            let mut w_soa = WorkCounters::default();
            kernel.accumulate_pair_soa(&mut soa, hr.clone(), nr.clone(), shift, sa, sb, &mut w_soa);
            let mut forces = vec![Vec3::ZERO; parts.len()];
            let mut w_aos = WorkCounters::default();
            let (fa, fb) = crate::force::disjoint_ranges_mut(&mut forces, hr.clone(), nr.clone());
            kernel.accumulate_pair(
                &grid.particles()[hr.clone()],
                sa.then_some(fa),
                &grid.particles()[nr.clone()],
                sb.then_some(fb),
                shift,
                &mut w_aos,
            );
            for (i, f) in forces.iter().enumerate() {
                assert_eq!(*f, soa.force(i), "slot {i} sa={sa} sb={sb}");
            }
            assert_eq!(w_aos.pair_checks, w_soa.pair_checks);
            assert_eq!(w_aos.potential.to_bits(), w_soa.potential.to_bits());
        }
    }

    #[test]
    fn reset_retains_capacity() {
        let mut soa = SoaField::new();
        soa.reset(100, 120);
        soa.reset(10, 12);
        assert_eq!(soa.n_owned(), 10);
        assert_eq!(soa.len(), 12);
        // Buffers shrink logically but keep their allocation.
        soa.reset(100, 120);
        assert_eq!(soa.len(), 120);
    }
}
