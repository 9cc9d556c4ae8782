//! Uniform cell grid for short-range neighbour search (paper Sec. 2.2).
//!
//! The cubic simulation box of side `L` is divided into `nc³` cubic cells
//! of side `L/nc ≥ r_c`, so every interaction partner of a particle lies
//! in its own cell or one of the 26 neighbouring cells. Periodic images
//! are handled by giving each neighbour cell a *shift vector*: the
//! displacement to add to that cell's particle positions so they appear
//! geometrically adjacent to the home cell.
//!
//! Both the serial and the parallel simulator evaluate each unordered
//! cell pair exactly once — the home cell against the 13 *forward*
//! offsets in [`HALF_OFFSETS_13`] plus a triangular intra-cell loop —
//! visiting home cells in ascending global index with per-cell particle
//! lists sorted by id. Every floating-point contribution is therefore
//! computed once, at one canonical site, and applied to both partners,
//! which makes the two simulators' force sums bitwise identical.
//!
//! Storage is contiguous: one flat particle array per grid (or per
//! column/plane in the parallel decompositions) with a cell-offset index
//! ([`CellSlab`]), so the inner pair loop walks cache-linear memory
//! instead of chasing per-cell `Vec` allocations.

use std::ops::Range;

use crate::vec3::Vec3;
use crate::Particle;

/// Axis bin of coordinate `v` on an `nc`-cell axis of cell length
/// `cell_len` — the one binning rule shared by the serial grid and every
/// parallel decomposition (columns, planes, cube blocks).
///
/// Coordinates nominally lie in `[0, L)`, but two floating-point edges
/// leak through the periodic wrap: `rem_euclid` can return exactly `L`
/// for a tiny negative input (clamped inward onto the last cell, matching
/// the stored position at the far edge), and unwrapped callers can hand
/// in slightly-negative values. A negative `f64` cast to `usize`
/// saturates to 0, which silently binned a far-edge particle into cell 0;
/// instead, wrap negatives into `[0, L)` first and then bin. For
/// non-negative coordinates this is bitwise-identical to the historical
/// divide-and-clamp, so force sums are unchanged.
#[inline]
pub fn axis_bin(v: f64, cell_len: f64, nc: usize) -> usize {
    let v = if v >= 0.0 {
        v
    } else {
        // rem_euclid of a tiny negative can round to exactly L; the clamp
        // below folds that onto the last cell, adjacent to where the
        // particle actually sits.
        v.rem_euclid(cell_len * nc as f64)
    };
    ((v / cell_len) as usize).min(nc - 1)
}

/// The 27 neighbour offsets (including the home cell, `(0,0,0)`) in the
/// canonical lexicographic order shared by the serial and parallel force
/// loops.
pub const NEIGHBOR_OFFSETS_27: [(i64, i64, i64); 27] = {
    let mut out = [(0i64, 0i64, 0i64); 27];
    let mut k = 0;
    let mut dx = -1i64;
    while dx <= 1 {
        let mut dy = -1i64;
        while dy <= 1 {
            let mut dz = -1i64;
            while dz <= 1 {
                out[k] = (dx, dy, dz);
                k += 1;
                dz += 1;
            }
            dy += 1;
        }
        dx += 1;
    }
    out
};

/// The canonical *forward half* of the 26 neighbour offsets: the 13
/// offsets that follow `(0,0,0)` in [`NEIGHBOR_OFFSETS_27`]'s
/// lexicographic order. Every unordered pair of adjacent cells `{A, B}`
/// satisfies exactly one of `B = A + d` or `A = B + d` with
/// `d ∈ HALF_OFFSETS_13`, so iterating home cells against these offsets
/// enumerates each cell pair exactly once (Newton's third law supplies
/// the reverse contribution).
pub const HALF_OFFSETS_13: [(i64, i64, i64); 13] = {
    let mut out = [(0i64, 0i64, 0i64); 13];
    let mut k = 0;
    while k < 13 {
        // (0,0,0) sits at index 13 of the lexicographic 27.
        out[k] = NEIGHBOR_OFFSETS_27[14 + k];
        k += 1;
    }
    out
};

/// Canonical coordinates of a cell, each in `0..nc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellCoord {
    pub cx: usize,
    pub cy: usize,
    pub cz: usize,
}

impl CellCoord {
    /// Construct from components.
    pub const fn new(cx: usize, cy: usize, cz: usize) -> Self {
        Self { cx, cy, cz }
    }
}

/// Contiguous cell storage: one flat particle array sorted by
/// `(cell index, particle id)` plus a CSR-style offset table, replacing
/// nested `Vec<Vec<Particle>>`. Cell `i` occupies
/// `parts[offsets[i]..offsets[i+1]]`.
///
/// A rebuild is a counting sort: each particle's cell is computed once,
/// the particles are bucketed by cell in input order, and each cell's few
/// particles are then put in id order by insertion sort. `(cell, id)`
/// keys are unique (particle ids are), so this is exactly the order a
/// comparison sort on them gives. Its per-particle scratch is kept in the
/// slab, so a rebuild allocates nothing once the buffers have grown to
/// their working size.
#[derive(Debug, Clone, Default)]
pub struct CellSlab {
    /// `n_cells + 1` offsets into `parts`; monotonically non-decreasing.
    offsets: Vec<usize>,
    /// All particles, grouped by cell, each group sorted by id.
    parts: Vec<Particle>,
    /// Rebuild scratch: the cell of each input particle, and the input
    /// index of each slot of `parts`.
    cells: Vec<usize>,
    order: Vec<usize>,
}

impl CellSlab {
    /// A slab of `n_cells` empty cells.
    pub fn empty(n_cells: usize) -> Self {
        Self {
            offsets: vec![0; n_cells + 1],
            ..Self::default()
        }
    }

    /// Build from an arbitrary particle list, in `(cell_of(p), p.id)`
    /// order (see [`CellSlab::rebuild_from`]). `cell_of` must return an
    /// index `< n_cells` for every particle.
    pub fn build<F>(n_cells: usize, parts: &[Particle], cell_of: F) -> Self
    where
        F: Fn(&Particle) -> usize,
    {
        let mut slab = Self::default();
        slab.sort_from(n_cells, parts, cell_of);
        slab
    }

    /// Rebuild the slab in place from a particle list, which is drained:
    /// a counting sort by `cell_of`, ids ascending inside a cell. Reuses
    /// every internal buffer — the steady-state rebinning path of both
    /// simulators, which must not allocate once the buffers have grown to
    /// their working capacity.
    pub fn rebuild_from<F>(&mut self, n_cells: usize, parts: &mut Vec<Particle>, cell_of: F)
    where
        F: Fn(&Particle) -> usize,
    {
        self.sort_from(n_cells, parts, cell_of);
        parts.clear();
    }

    /// The counting sort behind [`CellSlab::build`] and
    /// [`CellSlab::rebuild_from`].
    fn sort_from<F>(&mut self, n_cells: usize, parts: &[Particle], cell_of: F)
    where
        F: Fn(&Particle) -> usize,
    {
        self.cells.clear();
        self.cells.extend(parts.iter().map(|p| {
            let c = cell_of(p);
            debug_assert!(c < n_cells, "cell index {c} out of range (< {n_cells})");
            c
        }));
        self.offsets.clear();
        self.offsets.resize(n_cells + 1, 0);
        for &c in &self.cells {
            self.offsets[c + 1] += 1;
        }
        for i in 0..n_cells {
            self.offsets[i + 1] += self.offsets[i];
        }
        // Bucket by cell, `offsets[c]` the next free slot of cell `c`:
        // afterwards it holds the end of cell `c`, the start of `c + 1`.
        self.order.clear();
        self.order.resize(parts.len(), 0);
        for (i, &c) in self.cells.iter().enumerate() {
            self.order[self.offsets[c]] = i;
            self.offsets[c] += 1;
        }
        self.offsets.copy_within(0..n_cells, 1);
        self.offsets[0] = 0;
        self.parts.clear();
        self.parts.extend(self.order.iter().map(|&i| parts[i]));
        for cell in self.offsets.windows(2) {
            sort_by_id(&mut self.parts[cell[0]..cell[1]]);
        }
    }

    /// Rebuild the slab in place from a slice that is *already* in the
    /// canonical `(cell, id)` order — the launch's placement
    /// (`Placed`), which every rank adopts its columns out of. No sort,
    /// no allocation once the buffers have grown to capacity.
    pub fn rebuild_sorted<F>(&mut self, n_cells: usize, parts: &[Particle], cell_of: F)
    where
        F: Fn(&Particle) -> usize,
    {
        self.parts.clear();
        self.parts.extend_from_slice(parts);
        debug_assert!(
            self.parts
                .windows(2)
                .all(|w| (cell_of(&w[0]), w[0].id) < (cell_of(&w[1]), w[1].id)),
            "rebuild_sorted input is not in (cell, id) order"
        );
        self.offsets.clear();
        self.offsets.resize(n_cells + 1, 0);
        for p in &self.parts {
            let c = cell_of(p);
            debug_assert!(c < n_cells, "cell index {c} out of range (< {n_cells})");
            self.offsets[c + 1] += 1;
        }
        for i in 0..n_cells {
            self.offsets[i + 1] += self.offsets[i];
        }
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total particle count.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no cell holds a particle.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The flat-array range of one cell.
    pub fn range(&self, cell: usize) -> Range<usize> {
        self.offsets[cell]..self.offsets[cell + 1]
    }

    /// One cell's (id-sorted) particles.
    pub fn cell(&self, cell: usize) -> &[Particle] {
        &self.parts[self.range(cell)]
    }

    /// The particles of a run of consecutive cells, in slab order.
    pub fn run(&self, cells: Range<usize>) -> &[Particle] {
        &self.parts[self.offsets[cells.start]..self.offsets[cells.end]]
    }

    /// All particles in cell-major order.
    pub fn particles(&self) -> &[Particle] {
        &self.parts
    }

    /// Mutable access to all particles. Callers that move particles
    /// across cell boundaries must rebuild the slab afterwards.
    pub fn particles_mut(&mut self) -> &mut [Particle] {
        &mut self.parts
    }

    /// Number of cells containing no particles.
    pub fn empty_cells(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] == w[1]).count()
    }
}

/// Put one cell's particles in id order: insertion sort, since a cell
/// holds a few particles and a rebuild meets them nearly in order (the
/// last rebuild's order, bucketed stably).
fn sort_by_id(cell: &mut [Particle]) {
    for i in 1..cell.len() {
        let p = cell[i];
        let mut j = i;
        while j > 0 && cell[j - 1].id > p.id {
            cell[j] = cell[j - 1];
            j -= 1;
        }
        cell[j] = p;
    }
}

/// A cubic cell grid over a cubic periodic box, backed by a [`CellSlab`].
#[derive(Debug, Clone)]
pub struct CellGrid {
    nc: usize,
    box_len: f64,
    cell_len: f64,
    slab: CellSlab,
    /// Particles inserted since the last rebuild; folded into the slab by
    /// [`CellGrid::canonicalize`] / [`CellGrid::rebin`].
    staged: Vec<Particle>,
}

impl CellGrid {
    /// A grid of `nc³` cells over a box of side `box_len`. `nc ≥ 2` is
    /// required for the shift-vector construction; the paper's smallest
    /// grid is 8³.
    pub fn new(nc: usize, box_len: f64) -> Self {
        assert!(
            nc >= 2,
            "cell grid needs at least 2 cells per side, got {nc}"
        );
        assert!(box_len > 0.0, "box length must be positive");
        Self {
            nc,
            box_len,
            cell_len: box_len / nc as f64,
            slab: CellSlab::empty(nc * nc * nc),
            staged: Vec::new(),
        }
    }

    /// Cells per side.
    pub fn nc(&self) -> usize {
        self.nc
    }

    /// Total number of cells (the paper's `C`).
    pub fn total_cells(&self) -> usize {
        self.nc * self.nc * self.nc
    }

    /// Box side length `L`.
    pub fn box_len(&self) -> f64 {
        self.box_len
    }

    /// Cell side length `L/nc` (must be ≥ r_c for the 27-cell search to be
    /// exhaustive; asserted by [`CellGrid::assert_cutoff_ok`]).
    pub fn cell_len(&self) -> f64 {
        self.cell_len
    }

    /// Panics unless `cell_len ≥ rcut`, the condition under which the
    /// 27-cell neighbourhood contains every interaction partner.
    pub fn assert_cutoff_ok(&self, rcut: f64) {
        assert!(
            self.cell_len >= rcut - 1e-12,
            "cell length {} is smaller than the cutoff {rcut}; 27-cell search would miss pairs",
            self.cell_len
        );
    }

    /// The cell containing `pos` (which must lie in `[0, L)³`; positions
    /// exactly at `L` due to floating-point wrap are clamped inward, and
    /// slightly-negative post-wrap coordinates are wrapped — see
    /// [`axis_bin`]).
    pub fn cell_of(&self, pos: Vec3) -> CellCoord {
        let f = |v: f64| axis_bin(v, self.cell_len, self.nc);
        CellCoord::new(f(pos.x), f(pos.y), f(pos.z))
    }

    /// Linear index of a cell (x fastest changing — matches the paper's
    /// row-major figures transposed to 3-D; any fixed order works as long
    /// as both simulators share it).
    pub fn index(&self, c: CellCoord) -> usize {
        debug_assert!(c.cx < self.nc && c.cy < self.nc && c.cz < self.nc);
        (c.cx * self.nc + c.cy) * self.nc + c.cz
    }

    /// Inverse of [`CellGrid::index`].
    pub fn coord_of(&self, idx: usize) -> CellCoord {
        debug_assert!(idx < self.total_cells());
        CellCoord::new(
            idx / (self.nc * self.nc),
            (idx / self.nc) % self.nc,
            idx % self.nc,
        )
    }

    /// The canonical cell reached from `c` by `offset`, together with the
    /// shift vector to add to that cell's particle positions so they
    /// appear adjacent to `c` across the periodic boundary.
    pub fn wrap_neighbor(&self, c: CellCoord, offset: (i64, i64, i64)) -> (CellCoord, Vec3) {
        let n = self.nc as i64;
        let wrap1 = |v: i64| -> (usize, f64) {
            if v < 0 {
                ((v + n) as usize, -self.box_len)
            } else if v >= n {
                ((v - n) as usize, self.box_len)
            } else {
                (v as usize, 0.0)
            }
        };
        let (cx, sx) = wrap1(c.cx as i64 + offset.0);
        let (cy, sy) = wrap1(c.cy as i64 + offset.1);
        let (cz, sz) = wrap1(c.cz as i64 + offset.2);
        (CellCoord::new(cx, cy, cz), Vec3::new(sx, sy, sz))
    }

    /// Immutable access to a cell's (id-sorted) particles. Requires all
    /// inserts to have been folded in by [`CellGrid::canonicalize`].
    pub fn cell(&self, c: CellCoord) -> &[Particle] {
        debug_assert!(self.staged.is_empty(), "call canonicalize after insert");
        self.slab.cell(self.index(c))
    }

    /// A cell's particles by linear index.
    pub fn cell_by_index(&self, idx: usize) -> &[Particle] {
        debug_assert!(self.staged.is_empty(), "call canonicalize after insert");
        self.slab.cell(idx)
    }

    /// The flat-array range of a cell by linear index.
    pub fn cell_range(&self, idx: usize) -> Range<usize> {
        debug_assert!(self.staged.is_empty(), "call canonicalize after insert");
        self.slab.range(idx)
    }

    /// All particles in cell-major, id-sorted order — aligned with
    /// [`CellGrid::cell_range`].
    pub fn particles(&self) -> &[Particle] {
        debug_assert!(self.staged.is_empty(), "call canonicalize after insert");
        self.slab.particles()
    }

    /// Mutable flat particle access (same order as
    /// [`CellGrid::particles`]). Callers that move particles across cell
    /// boundaries must [`CellGrid::rebin`] afterwards.
    pub fn particles_mut(&mut self) -> &mut [Particle] {
        debug_assert!(self.staged.is_empty(), "call canonicalize after insert");
        self.slab.particles_mut()
    }

    /// Stage a particle for insertion into the cell containing its
    /// position (folded in on the next [`CellGrid::canonicalize`] /
    /// [`CellGrid::rebin`]).
    pub fn insert(&mut self, p: Particle) {
        self.staged.push(p);
    }

    /// Fold staged inserts into the slab and restore the canonical
    /// `(cell, id)` order the force loops rely on.
    pub fn canonicalize(&mut self) {
        self.rebuild();
    }

    /// Move every particle to the cell matching its current position
    /// (paper Sec. 3.2: "recompute and replace the relationships between
    /// cells and molecules every time step"), then canonicalize.
    pub fn rebin(&mut self) {
        self.rebuild();
    }

    /// Re-bin the slab's particles and the staged inserts together. The
    /// slab's particles pass through `staged`, so both buffers are kept
    /// and a rebin allocates nothing in the steady state.
    fn rebuild(&mut self) {
        self.staged.append(&mut self.slab.parts);
        let total = self.total_cells();
        let (nc, cell_len) = (self.nc, self.cell_len);
        let axis = move |v: f64| axis_bin(v, cell_len, nc);
        self.slab.rebuild_from(total, &mut self.staged, |p| {
            (axis(p.pos.x) * nc + axis(p.pos.y)) * nc + axis(p.pos.z)
        });
    }

    /// Total particle count (including staged inserts).
    pub fn num_particles(&self) -> usize {
        self.slab.len() + self.staged.len()
    }

    /// Number of cells containing no particles (the paper's `C₀`).
    pub fn empty_cells(&self) -> usize {
        debug_assert!(self.staged.is_empty(), "call canonicalize after insert");
        self.slab.empty_cells()
    }

    /// Iterate over `(coord, particles)` for all cells, in index order.
    pub fn iter_cells(&self) -> impl Iterator<Item = (CellCoord, &[Particle])> {
        debug_assert!(self.staged.is_empty(), "call canonicalize after insert");
        (0..self.total_cells()).map(|i| (self.coord_of(i), self.slab.cell(i)))
    }

    /// Occupancy histogram: `hist[k]` = number of cells holding exactly
    /// `k` particles (last bucket aggregates overflow).
    pub fn occupancy_histogram(&self, max_bucket: usize) -> Vec<usize> {
        let mut h = vec![0usize; max_bucket + 1];
        for i in 0..self.total_cells() {
            h[self.slab.range(i).len().min(max_bucket)] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn offsets_cover_27_distinct() {
        let mut v = NEIGHBOR_OFFSETS_27.to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 27);
        assert!(v.contains(&(0, 0, 0)));
        assert!(v
            .iter()
            .all(|&(a, b, c)| a.abs() <= 1 && b.abs() <= 1 && c.abs() <= 1));
    }

    #[test]
    fn half_offsets_are_the_forward_shell() {
        // The 13 halves plus their mirrors cover the 26 non-home offsets
        // exactly once, and no offset appears together with its mirror.
        let mut covered: Vec<(i64, i64, i64)> = HALF_OFFSETS_13
            .iter()
            .flat_map(|&(a, b, c)| [(a, b, c), (-a, -b, -c)])
            .collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered.len(), 26);
        assert!(!covered.contains(&(0, 0, 0)));
        // Canonical order: exactly the tail of NEIGHBOR_OFFSETS_27 after
        // the home offset (which sits at index 13).
        assert_eq!(NEIGHBOR_OFFSETS_27[13], (0, 0, 0));
        assert_eq!(&NEIGHBOR_OFFSETS_27[14..], &HALF_OFFSETS_13[..]);
    }

    #[test]
    fn index_roundtrip() {
        let g = CellGrid::new(5, 10.0);
        for i in 0..g.total_cells() {
            assert_eq!(g.index(g.coord_of(i)), i);
        }
    }

    #[test]
    fn cell_of_maps_positions() {
        let g = CellGrid::new(4, 8.0); // cell_len = 2
        assert_eq!(g.cell_of(Vec3::new(0.0, 0.0, 0.0)), CellCoord::new(0, 0, 0));
        assert_eq!(
            g.cell_of(Vec3::new(1.99, 2.0, 7.99)),
            CellCoord::new(0, 1, 3)
        );
        // Exactly L clamps to the last cell rather than indexing out of range.
        assert_eq!(g.cell_of(Vec3::new(8.0, 8.0, 8.0)), CellCoord::new(3, 3, 3));
    }

    #[test]
    fn wrap_neighbor_shifts() {
        let g = CellGrid::new(4, 8.0);
        let c = CellCoord::new(0, 3, 2);
        let (n, s) = g.wrap_neighbor(c, (-1, 1, 0));
        assert_eq!(n, CellCoord::new(3, 0, 2));
        assert_eq!(s, Vec3::new(-8.0, 8.0, 0.0));
        let (n2, s2) = g.wrap_neighbor(c, (1, -1, 1));
        assert_eq!(n2, CellCoord::new(1, 2, 3));
        assert_eq!(s2, Vec3::ZERO);
    }

    #[test]
    fn insert_and_rebin_track_movement() {
        let mut g = CellGrid::new(4, 8.0);
        g.insert(Particle::at_rest(0, Vec3::new(1.0, 1.0, 1.0)));
        g.insert(Particle::at_rest(1, Vec3::new(1.5, 1.0, 1.0)));
        g.canonicalize();
        assert_eq!(g.cell(CellCoord::new(0, 0, 0)).len(), 2);
        // Move particle 1 into the next cell and rebin.
        for p in g.particles_mut() {
            if p.id == 1 {
                p.pos = Vec3::new(2.5, 1.0, 1.0);
            }
        }
        g.rebin();
        assert_eq!(g.cell(CellCoord::new(0, 0, 0)).len(), 1);
        assert_eq!(g.cell(CellCoord::new(1, 0, 0)).len(), 1);
        assert_eq!(g.num_particles(), 2);
    }

    #[test]
    fn rebin_sorts_by_id() {
        let mut g = CellGrid::new(4, 8.0);
        g.insert(Particle::at_rest(5, Vec3::new(1.0, 1.0, 1.0)));
        g.insert(Particle::at_rest(2, Vec3::new(1.2, 1.0, 1.0)));
        g.insert(Particle::at_rest(9, Vec3::new(0.2, 1.0, 1.0)));
        g.rebin();
        let ids: Vec<u64> = g
            .cell(CellCoord::new(0, 0, 0))
            .iter()
            .map(|p| p.id)
            .collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn flat_storage_is_cell_major_and_id_sorted() {
        let mut g = CellGrid::new(3, 9.0);
        for (i, x) in [(0u64, 8.0), (1, 0.5), (2, 4.0), (3, 0.2), (4, 8.5)] {
            g.insert(Particle::at_rest(i, Vec3::new(x, 0.5, 0.5)));
        }
        g.canonicalize();
        let keys: Vec<(usize, u64)> = g
            .particles()
            .iter()
            .map(|p| (g.index(g.cell_of(p.pos)), p.id))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys: {keys:?}");
        // Ranges tile the flat array and agree with cell().
        let mut seen = 0;
        for i in 0..g.total_cells() {
            let r = g.cell_range(i);
            assert_eq!(r.start, seen);
            assert_eq!(g.cell_by_index(i).len(), r.len());
            seen = r.end;
        }
        assert_eq!(seen, g.num_particles());
    }

    #[test]
    fn empty_cells_counts_c0() {
        let mut g = CellGrid::new(3, 9.0);
        assert_eq!(g.empty_cells(), 27);
        g.insert(Particle::at_rest(0, Vec3::new(0.5, 0.5, 0.5)));
        g.insert(Particle::at_rest(1, Vec3::new(0.6, 0.5, 0.5)));
        g.canonicalize();
        assert_eq!(g.empty_cells(), 26);
    }

    #[test]
    fn occupancy_histogram_buckets() {
        let mut g = CellGrid::new(3, 9.0);
        for i in 0..5 {
            g.insert(Particle::at_rest(i, Vec3::new(0.5, 0.5, 0.5)));
        }
        g.insert(Particle::at_rest(10, Vec3::new(4.0, 4.0, 4.0)));
        g.canonicalize();
        let h = g.occupancy_histogram(3);
        assert_eq!(h[0], 25);
        assert_eq!(h[1], 1);
        assert_eq!(h[3], 1); // the 5-particle cell clamps into the overflow bucket
    }

    #[test]
    #[should_panic(expected = "at least 2 cells")]
    fn tiny_grid_rejected() {
        let _ = CellGrid::new(1, 5.0);
    }

    #[test]
    fn cutoff_assertion() {
        let g = CellGrid::new(4, 8.0); // cell_len = 2
        g.assert_cutoff_ok(2.0);
        let r = std::panic::catch_unwind(|| g.assert_cutoff_ok(2.5));
        assert!(r.is_err());
    }

    #[test]
    fn slab_build_and_ranges() {
        let parts: Vec<Particle> = [(3u64, 1usize), (0, 0), (7, 1), (1, 3)]
            .iter()
            .map(|&(id, _)| Particle::at_rest(id, Vec3::ZERO))
            .collect();
        let cells = [1usize, 0, 1, 3];
        let by_id = move |p: &Particle| {
            let i = [3u64, 0, 7, 1].iter().position(|&x| x == p.id).unwrap();
            cells[i]
        };
        let slab = CellSlab::build(4, &parts, by_id);
        assert_eq!(slab.n_cells(), 4);
        assert_eq!(slab.len(), 4);
        assert_eq!(slab.cell(0).len(), 1);
        assert_eq!(
            slab.cell(1).iter().map(|p| p.id).collect::<Vec<_>>(),
            [3, 7]
        );
        assert!(slab.cell(2).is_empty());
        assert_eq!(slab.cell(3)[0].id, 1);
        assert_eq!(slab.empty_cells(), 1);
        assert_eq!(slab.range(1), 1..3);
    }

    #[test]
    fn rebuild_from_matches_build_and_reuses_buffers() {
        let mk =
            |id: u64, cell: usize| Particle::at_rest(id, Vec3::new(cell as f64 + 0.5, 0.0, 0.0));
        let cell_of = |p: &Particle| p.pos.x as usize;
        let parts = vec![mk(7, 2), mk(1, 0), mk(3, 2), mk(2, 0)];
        let built = CellSlab::build(4, &parts, cell_of);
        let mut slab = CellSlab::empty(4);
        let mut staging = parts;
        slab.rebuild_from(4, &mut staging, cell_of);
        assert!(staging.is_empty(), "input is drained");
        assert_eq!(slab.particles(), built.particles());
        assert_eq!(slab.offsets, built.offsets);
        // Rebuilding again with fewer particles reuses capacity.
        let cap = slab.parts.capacity();
        staging.push(mk(9, 1));
        slab.rebuild_from(4, &mut staging, cell_of);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.cell(1)[0].id, 9);
        assert_eq!(slab.parts.capacity(), cap);
    }

    #[test]
    fn rebuild_sorted_matches_build_without_sorting() {
        let mk =
            |id: u64, cell: usize| Particle::at_rest(id, Vec3::new(cell as f64 + 0.5, 0.0, 0.0));
        let cell_of = |p: &Particle| p.pos.x as usize;
        // Already in (cell, id) order, as a ghost sender would ship it.
        let parts = vec![mk(1, 0), mk(2, 0), mk(3, 2), mk(7, 2)];
        let built = CellSlab::build(4, &parts, cell_of);
        let mut slab = CellSlab::empty(4);
        slab.rebuild_sorted(4, &parts, cell_of);
        assert_eq!(slab.particles(), built.particles());
        assert_eq!(slab.offsets, built.offsets);
        assert_eq!(slab.range(2), 2..4);
        assert_eq!(slab.empty_cells(), 2);
    }

    /// A coordinate on an axis of `nc` cells of length `len`, by `kind`:
    /// anywhere, exactly on a cell edge, a hair below 0, or exactly `L` —
    /// the last two are what [`axis_bin`] folds onto the last cell.
    fn edge_coord(kind: usize, f: f64, nc: usize, len: f64) -> f64 {
        match kind {
            0 => f * nc as f64 * len,
            1 => (f * nc as f64).floor() * len,
            2 => -(f + 1e-3) * 1e-13,
            _ => nc as f64 * len,
        }
    }

    /// The slab order by definition: a comparison sort on `(cell, id)`,
    /// and the offsets counted from it.
    fn reference(
        n_cells: usize,
        parts: &[Particle],
        cell_of: impl Fn(&Particle) -> usize,
    ) -> (Vec<Particle>, Vec<usize>) {
        let mut sorted = parts.to_vec();
        sorted.sort_by_key(|p| (cell_of(p), p.id));
        let mut offsets = vec![0; n_cells + 1];
        for p in &sorted {
            offsets[cell_of(p) + 1] += 1;
        }
        for i in 0..n_cells {
            offsets[i + 1] += offsets[i];
        }
        (sorted, offsets)
    }

    proptest! {
        #[test]
        fn prop_every_particle_lands_in_exactly_one_cell(
            xs in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 1..64)
        ) {
            let mut g = CellGrid::new(5, 10.0);
            for (i, (x, y, z)) in xs.iter().enumerate() {
                g.insert(Particle::at_rest(i as u64, Vec3::new(*x, *y, *z)));
            }
            g.canonicalize();
            prop_assert_eq!(g.num_particles(), xs.len());
            // Each particle's recorded cell matches cell_of its position.
            for (c, ps) in g.iter_cells() {
                for p in ps {
                    prop_assert_eq!(g.cell_of(p.pos), c);
                }
            }
        }

        #[test]
        fn prop_counting_sort_is_the_comparison_sort_order(
            axes in proptest::collection::vec(
                ((0usize..4, 0.0f64..1.0), (0usize..4, 0.0f64..1.0), (0usize..4, 0.0f64..1.0), 0u64..1 << 40),
                0..160,
            ),
            nc in 2usize..6,
        ) {
            // Ids unique and in no particular order: each particle's rank
            // under a random key.
            let len = 1.7;
            let mut keys: Vec<(u64, usize)> = axes.iter().enumerate().map(|(i, a)| (a.3, i)).collect();
            keys.sort_unstable();
            let mut parts = vec![Particle::at_rest(0, Vec3::ZERO); axes.len()];
            for (id, &(_, i)) in keys.iter().enumerate() {
                let ((kx, fx), (ky, fy), (kz, fz), _) = axes[i];
                let pos = Vec3::new(
                    edge_coord(kx, fx, nc, len),
                    edge_coord(ky, fy, nc, len),
                    edge_coord(kz, fz, nc, len),
                );
                parts[i] = Particle::at_rest(id as u64, pos);
            }
            let n_cells = nc * nc * nc;
            let bin = |v: f64| axis_bin(v, len, nc);
            let cell_of = |p: &Particle| (bin(p.pos.x) * nc + bin(p.pos.y)) * nc + bin(p.pos.z);
            let (sorted, offsets) = reference(n_cells, &parts, cell_of);
            let built = CellSlab::build(n_cells, &parts, cell_of);
            prop_assert_eq!(built.particles(), &sorted[..]);
            prop_assert_eq!(&built.offsets, &offsets);
            // In place, from the built slab's own order reversed, twice:
            // the second rebuild of the same size grows no buffer.
            let mut slab = CellSlab::empty(n_cells);
            for round in 0..2 {
                let mut staging: Vec<Particle> = built.particles().iter().rev().copied().collect();
                let caps = |s: &CellSlab| {
                    [s.parts.capacity(), s.offsets.capacity(), s.cells.capacity(), s.order.capacity()]
                };
                let before = caps(&slab);
                slab.rebuild_from(n_cells, &mut staging, cell_of);
                prop_assert!(staging.is_empty());
                prop_assert_eq!(slab.particles(), &sorted[..]);
                prop_assert_eq!(&slab.offsets, &offsets);
                if round == 1 {
                    prop_assert_eq!(before, caps(&slab));
                }
            }
        }

        #[test]
        fn prop_axis_bin_in_range_and_consistent(v in -30.0f64..30.0, nc in 1usize..8) {
            let cell_len = 12.0 / nc as f64;
            let bin = axis_bin(v, cell_len, nc);
            prop_assert!(bin < nc);
            // Non-negative coordinates reproduce the historical divide-
            // and-clamp bitwise (exactly-L and beyond clamp inward);
            // negative coordinates bin where their wrapped image would.
            if v >= 0.0 {
                prop_assert_eq!(bin, ((v / cell_len) as usize).min(nc - 1));
            } else {
                let wrapped = v.rem_euclid(cell_len * nc as f64);
                prop_assert_eq!(bin, axis_bin(wrapped, cell_len, nc));
            }
        }

        #[test]
        fn prop_axis_bin_tiny_negative_stays_off_cell_zero(mag in 1e-18f64..1e-12, nc in 2usize..8) {
            // The bug under test: a slightly-negative post-wrap coordinate
            // cast to usize saturated to 0, teleporting a far-edge
            // particle into cell 0.
            let cell_len = 12.0 / nc as f64;
            prop_assert_eq!(axis_bin(-mag, cell_len, nc), nc - 1);
        }

        #[test]
        fn prop_wrap_neighbor_is_involutive(cx in 0usize..6, cy in 0usize..6, cz in 0usize..6,
                                            k in 0usize..27) {
            let g = CellGrid::new(6, 12.0);
            let c = CellCoord::new(cx, cy, cz);
            let (dx, dy, dz) = NEIGHBOR_OFFSETS_27[k];
            let (n, s) = g.wrap_neighbor(c, (dx, dy, dz));
            let (back, s2) = g.wrap_neighbor(n, (-dx, -dy, -dz));
            prop_assert_eq!(back, c);
            // Shifts cancel.
            prop_assert_eq!(s + s2, Vec3::ZERO);
        }

        #[test]
        fn prop_neighbor_cells_geometrically_adjacent(cx in 0usize..6, cy in 0usize..6,
                                                      cz in 0usize..6, k in 0usize..27) {
            let g = CellGrid::new(6, 12.0);
            let c = CellCoord::new(cx, cy, cz);
            let (n, s) = g.wrap_neighbor(c, NEIGHBOR_OFFSETS_27[k]);
            // Center of neighbour cell, shifted, must lie within one cell
            // length of the home cell center on every axis.
            let center = |cc: CellCoord| {
                Vec3::new(
                    (cc.cx as f64 + 0.5) * g.cell_len(),
                    (cc.cy as f64 + 0.5) * g.cell_len(),
                    (cc.cz as f64 + 0.5) * g.cell_len(),
                )
            };
            let d = center(n) + s - center(c);
            for v in [d.x, d.y, d.z] {
                prop_assert!(v.abs() <= g.cell_len() + 1e-9);
            }
        }
    }
}
