//! Square-pillar tile layout (paper Fig. 7).
//!
//! `P` PEs form a `√P × √P` torus; the `nc × nc` column cross-section is
//! tiled into `m × m` blocks, `m = nc / √P`, one home tile per PE. PE
//! `(i, j)` owns tile rows `i·m .. (i+1)·m` and tile columns
//! `j·m .. (j+1)·m` of the cross-section.

use pcdlb_mp::Torus2d;

use crate::column::{Col, ColumnGrid};

/// The static geometry of a square-pillar decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PillarLayout {
    grid: ColumnGrid,
    torus: Torus2d,
    m: usize,
}

impl PillarLayout {
    /// Layout for `nc = C^(1/3)` columns per side over a `√P × √P` torus.
    /// `nc` must be an exact multiple of the torus side (the paper's
    /// `m = C^(1/3)/P^(1/2)` is integral in every experiment).
    pub fn new(nc: usize, torus: Torus2d) -> Self {
        assert_eq!(
            torus.rows(),
            torus.cols(),
            "square-pillar layout needs a square torus"
        );
        let side = torus.rows();
        assert!(
            nc.is_multiple_of(side),
            "columns per side ({nc}) must divide evenly among torus side ({side})"
        );
        let m = nc / side;
        assert!(m >= 1, "tile size m must be at least 1");
        Self {
            grid: ColumnGrid::new(nc),
            torus,
            m,
        }
    }

    /// Layout from the paper's parameters `P` (perfect square) and `m`.
    pub fn from_p_and_m(p: usize, m: usize) -> Self {
        let torus = Torus2d::square(p);
        Self::new(torus.rows() * m, torus)
    }

    /// Tile size `m` (columns per tile side).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The cross-section grid.
    pub fn grid(&self) -> ColumnGrid {
        self.grid
    }

    /// The PE torus.
    pub fn torus(&self) -> Torus2d {
        self.torus
    }

    /// Number of PEs.
    pub fn num_ranks(&self) -> usize {
        self.torus.len()
    }

    /// The home PE of a column — the PE whose tile contains it initially
    /// and to which it must eventually be returnable.
    pub fn home_rank(&self, c: Col) -> usize {
        let ti = c.cx / self.m;
        let tj = c.cy / self.m;
        self.torus.rank_wrapped(ti as i64, tj as i64)
    }

    /// `(cx, cy)` of the north-west corner column of `rank`'s home tile.
    pub fn tile_origin(&self, rank: usize) -> Col {
        let (i, j) = self.torus.coords(rank);
        Col::new(i * self.m, j * self.m)
    }

    /// A column's offset inside its home tile, each component in `0..m`.
    pub fn offset_in_tile(&self, c: Col) -> (usize, usize) {
        (c.cx % self.m, c.cy % self.m)
    }

    /// Iterate the columns of `rank`'s home tile in row-major order.
    pub fn tile_columns(&self, rank: usize) -> impl Iterator<Item = Col> + '_ {
        let o = self.tile_origin(rank);
        let m = self.m;
        (0..m).flat_map(move |dx| (0..m).map(move |dy| Col::new(o.cx + dx, o.cy + dy)))
    }

    /// Periodic Chebyshev distance from `c` to the nearest column of
    /// `rank`'s home tile, in closed form: a tile is a product of two
    /// intervals, so the distance is the larger of the two per-axis gaps.
    pub fn distance_to_tile(&self, c: Col, rank: usize) -> usize {
        let o = self.tile_origin(rank);
        let (nc, m) = (self.grid.nc(), self.m);
        // Steps from `p` up to the interval's first column or down to its
        // last, whichever is nearer; 0 inside the interval.
        let gap = |p: usize, lo: usize| {
            if (lo..lo + m).contains(&p) {
                0
            } else {
                ((lo + nc - p) % nc).min((p + nc - (lo + m - 1)) % nc)
            }
        };
        gap(c.cx, o.cx).max(gap(c.cy, o.cy))
    }

    /// Tile-to-tile displacement from `from`'s tile to `to`'s tile on the
    /// torus, each component folded into `-side/2 ..= side/2` (the
    /// shortest wrap). `(0, 0)` means the same PE; `(±1, ±1)` etc. are the
    /// 8-neighbourhood.
    pub fn tile_delta(&self, from: usize, to: usize) -> (i64, i64) {
        let side = self.torus.rows() as i64;
        let (fi, fj) = self.torus.coords(from);
        let (ti, tj) = self.torus.coords(to);
        let fold = |d: i64| {
            let d = d.rem_euclid(side);
            if d > side / 2 {
                d - side
            } else {
                d
            }
        };
        (fold(ti as i64 - fi as i64), fold(tj as i64 - fj as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_configurations_have_expected_m() {
        // Fig. 5(a): P = 36, C = 24³ → m = 4.
        assert_eq!(PillarLayout::new(24, Torus2d::square(36)).m(), 4);
        // Fig. 5(b): P = 36, C = 12³ → m = 2.
        assert_eq!(PillarLayout::new(12, Torus2d::square(36)).m(), 2);
        // Table 1 row: P = 64, m = 3 → nc = 24.
        let l = PillarLayout::from_p_and_m(64, 3);
        assert_eq!(l.grid().nc(), 24);
    }

    #[test]
    fn tiles_partition_all_columns() {
        let l = PillarLayout::new(12, Torus2d::square(9));
        let mut seen = vec![0u32; l.grid().len()];
        for r in 0..l.num_ranks() {
            for c in l.tile_columns(r) {
                seen[l.grid().index(c)] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "tiles must tile exactly once");
    }

    #[test]
    fn home_rank_matches_tile_membership() {
        let l = PillarLayout::new(12, Torus2d::square(16));
        for r in 0..l.num_ranks() {
            for c in l.tile_columns(r) {
                assert_eq!(l.home_rank(c), r, "column {c:?}");
            }
        }
    }

    #[test]
    fn offsets_stay_inside_tile() {
        let l = PillarLayout::new(12, Torus2d::square(9)); // m = 4
        for c in l.grid().iter() {
            let (ox, oy) = l.offset_in_tile(c);
            assert!(ox < 4 && oy < 4);
            let o = l.tile_origin(l.home_rank(c));
            assert_eq!(Col::new(o.cx + ox, o.cy + oy), c);
        }
    }

    #[test]
    fn tile_delta_folds_shortest_way() {
        let l = PillarLayout::new(12, Torus2d::square(36)); // 6×6 torus
        let t = l.torus();
        let r00 = t.rank_wrapped(0, 0);
        let r55 = t.rank_wrapped(5, 5);
        assert_eq!(l.tile_delta(r00, r55), (-1, -1)); // wraps NW
        let r01 = t.rank_wrapped(0, 1);
        assert_eq!(l.tile_delta(r00, r01), (0, 1));
        assert_eq!(l.tile_delta(r00, r00), (0, 0));
        let r30 = t.rank_wrapped(3, 0);
        assert_eq!(l.tile_delta(r00, r30), (3, 0)); // 3 = side/2 stays +3
    }

    #[test]
    fn distance_to_tile_equals_the_scan_over_the_tile() {
        for side in 3..=5 {
            for m in 1..=4 {
                let l = PillarLayout::new(side * m, Torus2d::new(side, side));
                for c in l.grid().iter() {
                    for r in 0..l.num_ranks() {
                        let scanned = l
                            .tile_columns(r)
                            .map(|t| l.grid().chebyshev(c, t))
                            .min()
                            .expect("tile has columns");
                        assert_eq!(
                            l.distance_to_tile(c, r),
                            scanned,
                            "side {side}, m {m}, column {c:?}, tile {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_tiling_rejected() {
        let _ = PillarLayout::new(13, Torus2d::square(9));
    }

    proptest! {
        #[test]
        fn prop_home_rank_consistent_with_origin(side in 2usize..6, m in 1usize..5,
                                                 cx in 0usize..30, cy in 0usize..30) {
            let l = PillarLayout::new(side * m, Torus2d::new(side, side));
            let c = Col::new(cx % (side * m), cy % (side * m));
            let r = l.home_rank(c);
            let o = l.tile_origin(r);
            prop_assert!(c.cx >= o.cx && c.cx < o.cx + m);
            prop_assert!(c.cy >= o.cy && c.cy < o.cy + m);
        }

        #[test]
        fn prop_tile_delta_antisymmetric(side in 3usize..7, a in 0usize..49, b in 0usize..49) {
            let l = PillarLayout::new(side * 2, Torus2d::new(side, side));
            let (a, b) = (a % l.num_ranks(), b % l.num_ranks());
            let (di, dj) = l.tile_delta(a, b);
            let (ei, ej) = l.tile_delta(b, a);
            // Antisymmetric except at the fold boundary side/2, where both
            // directions legitimately report +side/2.
            let s = side as i64;
            let eqmod = |x: i64, y: i64| (x + y).rem_euclid(s) == 0;
            prop_assert!(eqmod(di, ei) && eqmod(dj, ej),
                "delta({a},{b})=({di},{dj}), delta({b},{a})=({ei},{ej})");
        }
    }
}
