//! The cross-section grid of cell columns.
//!
//! A *column* is the full z-extent of cells sharing one `(cx, cy)`
//! cross-section coordinate — the unit the square-pillar decomposition
//! allocates and the load balancer moves (the paper's Figs. 3–4 draw the
//! 2-D cross-section; each drawn "cell" is a column of `C^(1/3)` 3-D
//! cells).

use pcdlb_mp::topology::NEIGHBOR_OFFSETS_8;

/// Cross-section coordinates of a column, each in `0..nc`.
///
/// `cx` runs in the paper's `i` (row) direction, `cy` in the `j` (column)
/// direction, matching the `PE(i, j)` orientation of Figs. 3–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Col {
    pub cx: usize,
    pub cy: usize,
}

impl Col {
    /// Construct from components.
    pub const fn new(cx: usize, cy: usize) -> Self {
        Self { cx, cy }
    }
}

// `cx`, `cy`: 16 bytes.
pcdlb_mp::wire_struct!(Col { cx, cy });

/// The `nc × nc` periodic cross-section grid of columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnGrid {
    nc: usize,
}

impl ColumnGrid {
    /// A grid with `nc` columns per side (`nc = C^(1/3)`).
    pub fn new(nc: usize) -> Self {
        assert!(nc >= 2, "column grid needs at least 2 columns per side");
        Self { nc }
    }

    /// Columns per side.
    pub fn nc(&self) -> usize {
        self.nc
    }

    /// Total number of columns (`nc²`).
    pub fn len(&self) -> usize {
        self.nc * self.nc
    }

    /// Never empty (`nc ≥ 2`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Linear index of a column (`cx` major).
    pub fn index(&self, c: Col) -> usize {
        debug_assert!(c.cx < self.nc && c.cy < self.nc, "{c:?} outside {self:?}");
        c.cx * self.nc + c.cy
    }

    /// Inverse of [`ColumnGrid::index`].
    pub fn col_of(&self, idx: usize) -> Col {
        debug_assert!(idx < self.len());
        Col::new(idx / self.nc, idx % self.nc)
    }

    /// The column at `(cx, cy)` after periodic wrap.
    pub fn wrapped(&self, cx: i64, cy: i64) -> Col {
        let n = self.nc as i64;
        Col::new(cx.rem_euclid(n) as usize, cy.rem_euclid(n) as usize)
    }

    /// The 8 cross-section neighbours of a column (periodic). On grids
    /// with `nc = 2` some entries coincide.
    pub fn neighbors8(&self, c: Col) -> [Col; 8] {
        let mut out = [Col::new(0, 0); 8];
        for (k, (dx, dy)) in NEIGHBOR_OFFSETS_8.iter().enumerate() {
            out[k] = self.wrapped(c.cx as i64 + dx, c.cy as i64 + dy);
        }
        out
    }

    /// Iterate all columns in index order.
    pub fn iter(&self) -> impl Iterator<Item = Col> + '_ {
        (0..self.len()).map(|i| self.col_of(i))
    }

    /// Periodic Chebyshev (king-move) distance between two columns: 0 for
    /// the same column, 1 for 8-adjacent ones.
    pub fn chebyshev(&self, a: Col, b: Col) -> usize {
        let d = |p: usize, q: usize| {
            let d = p.abs_diff(q);
            d.min(self.nc - d)
        };
        d(a.cx, b.cx).max(d(a.cy, b.cy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn index_roundtrip() {
        let g = ColumnGrid::new(7);
        for i in 0..g.len() {
            assert_eq!(g.index(g.col_of(i)), i);
        }
    }

    #[test]
    fn wrapped_handles_negatives_and_overflow() {
        let g = ColumnGrid::new(6);
        assert_eq!(g.wrapped(-1, 6), Col::new(5, 0));
        assert_eq!(g.wrapped(7, -2), Col::new(1, 4));
    }

    #[test]
    fn neighbors8_interior() {
        let g = ColumnGrid::new(5);
        let n = g.neighbors8(Col::new(2, 2));
        let mut v = n.to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 8);
        for c in v {
            assert_eq!(g.chebyshev(Col::new(2, 2), c), 1);
        }
    }

    #[test]
    fn neighbors8_wrap_at_corner() {
        let g = ColumnGrid::new(4);
        let n = g.neighbors8(Col::new(0, 0));
        assert!(n.contains(&Col::new(3, 3))); // NW wraps
        assert!(n.contains(&Col::new(0, 3)));
        assert!(n.contains(&Col::new(3, 0)));
    }

    #[test]
    fn chebyshev_is_periodic() {
        let g = ColumnGrid::new(8);
        assert_eq!(g.chebyshev(Col::new(0, 0), Col::new(7, 7)), 1);
        assert_eq!(g.chebyshev(Col::new(0, 0), Col::new(4, 0)), 4);
        assert_eq!(g.chebyshev(Col::new(1, 1), Col::new(1, 1)), 0);
    }

    #[test]
    fn iter_visits_all_once() {
        let g = ColumnGrid::new(4);
        let cols: Vec<Col> = g.iter().collect();
        assert_eq!(cols.len(), 16);
        let mut dedup = cols.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
    }

    proptest! {
        #[test]
        fn prop_adjacency_matches_chebyshev(nc in 3usize..10, cx in 0usize..10, cy in 0usize..10) {
            let g = ColumnGrid::new(nc);
            let c = Col::new(cx % nc, cy % nc);
            for other in g.iter() {
                let adjacent = g.neighbors8(c).contains(&other);
                let cheb1 = g.chebyshev(c, other) == 1;
                prop_assert_eq!(adjacent, cheb1, "c={:?} other={:?}", c, other);
            }
        }

        #[test]
        fn prop_neighbor_relation_is_symmetric(nc in 2usize..9, cx in 0usize..9, cy in 0usize..9) {
            let g = ColumnGrid::new(nc);
            let c = Col::new(cx % nc, cy % nc);
            for n in g.neighbors8(c) {
                prop_assert!(g.neighbors8(n).contains(&c));
            }
        }
    }
}
