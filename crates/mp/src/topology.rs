//! Virtual torus topologies.
//!
//! The paper arranges PEs as a virtual 2-D torus (square-pillar domains,
//! Sec. 2.2) running on a machine whose physical interconnect is a 3-D
//! torus (the Cray T3E, Sec. 3.1). [`Torus2d`] provides the rank↔coordinate
//! maps and the 8-neighbourhood used by the load balancer, and the hop
//! distances of the cost model ([`crate::CostModel`]; the cube and the ring
//! pay a flat hop). [`Torus3d`] provides the rank↔coordinate maps of a
//! 3-D torus (x fastest), the cube decomposition's rank numbering, through
//! which `pcdlb-check` names a cube rank's neighbours.

/// Offsets of the 8 neighbours of a cell/PE in a 2-D torus, in row-major
/// scan order: NW, N, NE, W, E, SW, S, SE (with `i` increasing "south" and
/// `j` increasing "east", matching the paper's `PE(i, j)` figures).
pub const NEIGHBOR_OFFSETS_8: [(i64, i64); 8] = [
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
];

/// A 2-D torus of `rows × cols` ranks, row-major rank numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus2d {
    rows: usize,
    cols: usize,
}

impl Torus2d {
    /// A torus with the given extents. Panics if either extent is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "torus extents must be positive");
        Self { rows, cols }
    }

    /// A square torus for `p` ranks; `p` must be a perfect square, as the
    /// square-pillar decomposition requires (`m = C^(1/3) / P^(1/2)`).
    pub fn square(p: usize) -> Self {
        let side = (p as f64).sqrt().round() as usize;
        assert_eq!(
            side * side,
            p,
            "square torus needs a perfect-square rank count, got {p}"
        );
        Self::new(side, side)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the torus has exactly one rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Coordinates of `rank` (row-major).
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.len(), "rank {rank} out of range for {self:?}");
        (rank / self.cols, rank % self.cols)
    }

    /// Rank at `(i, j)` after periodic wrapping of both coordinates.
    pub fn rank_wrapped(&self, i: i64, j: i64) -> usize {
        let i = i.rem_euclid(self.rows as i64) as usize;
        let j = j.rem_euclid(self.cols as i64) as usize;
        i * self.cols + j
    }

    /// The neighbour of `rank` at offset `(di, dj)` with periodic wrap.
    pub fn neighbor(&self, rank: usize, di: i64, dj: i64) -> usize {
        let (i, j) = self.coords(rank);
        self.rank_wrapped(i as i64 + di, j as i64 + dj)
    }

    /// The 8 neighbours of `rank` in [`NEIGHBOR_OFFSETS_8`] order.
    ///
    /// On small tori neighbours may repeat or equal `rank` itself (e.g. on
    /// a 2×2 torus the NW and SE neighbours coincide); callers that send
    /// one message per *distinct* neighbour should deduplicate.
    pub fn neighbors8(&self, rank: usize) -> [usize; 8] {
        let (i, j) = self.coords(rank);
        let mut out = [0usize; 8];
        for (k, (di, dj)) in NEIGHBOR_OFFSETS_8.iter().enumerate() {
            out[k] = self.rank_wrapped(i as i64 + di, j as i64 + dj);
        }
        out
    }

    /// The distinct members of `rank`'s 8-neighbourhood, excluding `rank`,
    /// in ascending rank order.
    pub fn distinct_neighbors8(&self, rank: usize) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .neighbors8(rank)
            .into_iter()
            .filter(|&r| r != rank)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Minimum hop count between two ranks (per-dimension wrapped Manhattan
    /// distance, the routing metric of a torus network).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let (ai, aj) = self.coords(a);
        let (bi, bj) = self.coords(b);
        wrapped_dist(ai, bi, self.rows) + wrapped_dist(aj, bj, self.cols)
    }
}

/// A 3-D torus of `nx × ny × nz` ranks, x fastest: the cube
/// decomposition's rank arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus3d {
    nx: usize,
    ny: usize,
    nz: usize,
}

impl Torus3d {
    /// A torus with the given extents. Panics if any extent is zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "torus extents must be positive");
        Self { nx, ny, nz }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True when the torus has exactly one rank (never, extents ≥ 1 each).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Coordinates of `rank` (x fastest).
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        assert!(rank < self.len(), "rank {rank} out of range for {self:?}");
        let x = rank % self.nx;
        let y = (rank / self.nx) % self.ny;
        let z = rank / (self.nx * self.ny);
        (x, y, z)
    }

    /// A cubic torus of side `k` (the cube-domain decomposition's PE
    /// arrangement); `p` must be a perfect cube.
    pub fn cube(p: usize) -> Self {
        let k = (p as f64).cbrt().round() as usize;
        assert_eq!(
            k * k * k,
            p,
            "cubic torus needs a perfect-cube rank count, got {p}"
        );
        Self::new(k, k, k)
    }

    /// Rank at `(x, y, z)` after periodic wrapping.
    pub fn rank_wrapped(&self, x: i64, y: i64, z: i64) -> usize {
        let x = x.rem_euclid(self.nx as i64) as usize;
        let y = y.rem_euclid(self.ny as i64) as usize;
        let z = z.rem_euclid(self.nz as i64) as usize;
        z * self.nx * self.ny + y * self.nx + x
    }

    /// The neighbour of `rank` at offset `(dx, dy, dz)` with wrap.
    pub fn neighbor(&self, rank: usize, dx: i64, dy: i64, dz: i64) -> usize {
        let (x, y, z) = self.coords(rank);
        self.rank_wrapped(x as i64 + dx, y as i64 + dy, z as i64 + dz)
    }
}

fn wrapped_dist(a: usize, b: usize, extent: usize) -> usize {
    let d = a.abs_diff(b);
    d.min(extent - d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn coords_roundtrip_2d() {
        let t = Torus2d::new(3, 5);
        for r in 0..t.len() {
            let (i, j) = t.coords(r);
            assert_eq!(t.rank_wrapped(i as i64, j as i64), r);
        }
    }

    #[test]
    fn square_accepts_perfect_squares() {
        assert_eq!(Torus2d::square(36).rows(), 6);
        assert_eq!(Torus2d::square(1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "perfect-square")]
    fn square_rejects_non_squares() {
        let _ = Torus2d::square(12);
    }

    #[test]
    fn wrap_is_periodic() {
        let t = Torus2d::new(4, 4);
        assert_eq!(t.rank_wrapped(-1, -1), t.rank_wrapped(3, 3));
        assert_eq!(t.rank_wrapped(4, 0), t.rank_wrapped(0, 0));
        assert_eq!(t.rank_wrapped(-5, 2), t.rank_wrapped(3, 2));
    }

    #[test]
    fn neighbors8_of_center_are_distinct_on_3x3() {
        let t = Torus2d::new(3, 3);
        let n = t.neighbors8(4); // center of a 3×3 torus
        let mut sorted = n.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert!(!n.contains(&4));
    }

    #[test]
    fn neighbors8_wrap_on_corner() {
        let t = Torus2d::new(3, 3);
        // rank 0 = (0,0); NW neighbour wraps to (2,2) = rank 8.
        assert_eq!(t.neighbors8(0)[0], 8);
    }

    #[test]
    fn distinct_neighbors_on_2x2_torus() {
        let t = Torus2d::new(2, 2);
        // Every other rank is a neighbour of rank 0 (some repeat).
        assert_eq!(t.distinct_neighbors8(0), vec![1, 2, 3]);
    }

    #[test]
    fn hops_2d_examples() {
        let t = Torus2d::new(6, 6);
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 5), 1); // wrap in j
        assert_eq!(t.hops(0, 35), 2); // (0,0)→(5,5) wraps both dims
        assert_eq!(t.hops(0, 21), 6); // (0,0)→(3,3): 3+3
    }

    proptest! {
        #[test]
        fn prop_hops_symmetric_and_triangle(rows in 1usize..8, cols in 1usize..8,
                                            a in 0usize..64, b in 0usize..64, c in 0usize..64) {
            let t = Torus2d::new(rows, cols);
            let (a, b, c) = (a % t.len(), b % t.len(), c % t.len());
            prop_assert_eq!(t.hops(a, b), t.hops(b, a));
            prop_assert_eq!(t.hops(a, a), 0);
            prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
        }

        #[test]
        fn prop_neighbors_are_mutual(rows in 2usize..8, cols in 2usize..8, r in 0usize..64) {
            let t = Torus2d::new(rows, cols);
            let r = r % t.len();
            for n in t.distinct_neighbors8(r) {
                prop_assert!(t.distinct_neighbors8(n).contains(&r),
                    "{r} lists {n} but not vice versa on {t:?}");
            }
        }

        #[test]
        fn prop_hops_at_most_one_for_neighbors(side in 3usize..9, r in 0usize..81) {
            let t = Torus2d::new(side, side);
            let r = r % t.len();
            for n in t.neighbors8(r) {
                prop_assert!(t.hops(r, n) <= 2); // diagonal = 2 hops on a mesh metric
            }
        }
    }
}

#[cfg(test)]
mod torus3d_extra_tests {
    use super::*;

    #[test]
    fn cube_accepts_perfect_cubes() {
        assert_eq!(Torus3d::cube(27).len(), 27);
        assert_eq!(Torus3d::cube(1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "perfect-cube")]
    fn cube_rejects_non_cubes() {
        let _ = Torus3d::cube(9);
    }

    #[test]
    fn rank_wrapped_roundtrips_coords() {
        let t = Torus3d::cube(27);
        for r in 0..t.len() {
            let (x, y, z) = t.coords(r);
            assert_eq!(t.rank_wrapped(x as i64, y as i64, z as i64), r);
        }
        // Wraps are periodic.
        assert_eq!(t.rank_wrapped(-1, 0, 0), t.rank_wrapped(2, 0, 0));
        assert_eq!(t.rank_wrapped(3, 4, -2), t.rank_wrapped(0, 1, 1));
    }

    #[test]
    fn neighbor_moves_one_step() {
        let t = Torus3d::cube(27);
        let r = t.rank_wrapped(1, 1, 1); // center
        assert_eq!(t.coords(t.neighbor(r, 1, 0, 0)), (2, 1, 1));
        assert_eq!(t.coords(t.neighbor(r, 1, -1, 0)), (2, 0, 1));
        assert_eq!(t.coords(t.neighbor(r, 1, 1, 1)), (2, 2, 2));
        assert_eq!(t.coords(t.neighbor(r, 2, 0, 0)), (0, 1, 1), "wraps");
        assert_eq!(t.neighbor(r, 0, 0, 0), r);
    }
}
