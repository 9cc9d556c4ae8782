//! Square-pillar tile layout (paper Fig. 7), rectilinear.
//!
//! `P` PEs form a `√P × √P` torus and the `nc × nc` column cross-section
//! is cut into `√P × √P` tiles, one home tile per PE: tile row `i` runs
//! from `xs[i]` to `xs[i+1]` and tile column `j` from `ys[j]` to
//! `ys[j+1]`, both periodically — the starts are distinct points of the
//! ring, ascending from `xs[0]`, which may sit anywhere on it, so a tile
//! may wrap across the box edge. Every tile is at least one column wide.
//!
//! [`PillarLayout::new`] is the paper's tiling: `m × m` tiles,
//! `m = nc / √P`, starts at the multiples of `m`. Any other cut set
//! ([`PillarLayout::rectilinear`]) keeps what the permanent-cell scheme
//! needs of it — tile `(i, j)` borders exactly the tiles `(i ± 1, j ± 1)`
//! — so the 8-neighbour torus, the Case 1–3 directions and the wall
//! argument (`pcdlb-core`) read the same on it; only the tile widths,
//! and with them where the walls stand, differ from tile to tile.

use std::fmt;

use pcdlb_mp::Torus2d;

use crate::column::{Col, ColumnGrid};

/// The static geometry of a square-pillar decomposition.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PillarLayout {
    grid: ColumnGrid,
    torus: Torus2d,
    /// The periodic tile starts of each axis, `torus.rows()` of them
    /// (the rest zero): inline, so the layout stays `Copy`.
    xs: [u16; PillarLayout::MAX_SIDE],
    ys: [u16; PillarLayout::MAX_SIDE],
}

/// One axis of a layout: its periodic tile starts over a ring of `nc`.
#[derive(Clone, Copy)]
struct Axis<'a> {
    starts: &'a [u16],
    nc: usize,
}

impl Axis<'_> {
    fn start(&self, tile: usize) -> usize {
        usize::from(self.starts[tile])
    }

    /// Columns from `from` forward round the ring to `to`.
    fn ahead(&self, from: usize, to: usize) -> usize {
        (to + self.nc - from) % self.nc
    }

    fn width(&self, tile: usize) -> usize {
        match self.starts.len() {
            1 => self.nc,
            side => self.ahead(self.start(tile), self.start((tile + 1) % side)),
        }
    }

    /// The tile holding coordinate `c`, `c`'s offset inside it and the
    /// tile's width: one pass over the starts, no division.
    fn locate(&self, c: usize) -> (usize, usize, usize) {
        // Measured from the first start the starts ascend, so the tile is
        // the last one starting at or before `c`, and it ends where the
        // next one starts (the last: once round the ring).
        let first = self.start(0);
        let from_first = |at: usize| {
            if at < first {
                at + self.nc - first
            } else {
                at - first
            }
        };
        let (rel, mut end) = (from_first(c), self.nc);
        for tile in (0..self.starts.len()).rev() {
            let start = from_first(self.start(tile));
            if start <= rel {
                return (tile, rel - start, end - start);
            }
            end = start;
        }
        unreachable!("tile 0 starts where the ring is measured from")
    }

    /// Steps from `c` to the nearest coordinate of `tile`; 0 inside it.
    fn gap(&self, c: usize, tile: usize) -> usize {
        let (off, width) = (self.ahead(self.start(tile), c), self.width(tile));
        if off < width {
            0
        } else {
            // Up to the tile's first coordinate, or down to its last.
            (self.nc - off).min(off - (width - 1))
        }
    }
}

impl PillarLayout {
    /// The widest torus a layout describes (`P ≤ 1024`): the cuts are
    /// stored inline.
    pub const MAX_SIDE: usize = 32;

    /// The even tiling for `nc = C^(1/3)` columns per side over a
    /// `√P × √P` torus: `m × m` tiles, `m = nc / √P`. `nc` must be an
    /// exact multiple of the torus side (the paper's
    /// `m = C^(1/3)/P^(1/2)` is integral in every experiment).
    pub fn new(nc: usize, torus: Torus2d) -> Self {
        let side = torus.rows();
        assert!(
            nc.is_multiple_of(side),
            "columns per side ({nc}) must divide evenly among torus side ({side})"
        );
        let m = nc / side;
        assert!(m >= 1, "tile size m must be at least 1");
        let starts: Vec<usize> = (0..side).map(|i| i * m).collect();
        Self::rectilinear(nc, torus, &starts, &starts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The tiling whose tile row `i` starts at `xs[i]` and tile column
    /// `j` at `ys[j]` (see the [module docs](self)). An error says which
    /// rule the cuts break: one start per torus row and column, each on
    /// the grid, ascending once round the ring from the first.
    pub fn rectilinear(
        nc: usize,
        torus: Torus2d,
        xs: &[usize],
        ys: &[usize],
    ) -> Result<Self, String> {
        let side = torus.rows();
        if torus.cols() != side {
            return Err("square-pillar layout needs a square torus".to_string());
        }
        if side > Self::MAX_SIDE {
            let max = Self::MAX_SIDE;
            return Err(format!("torus side {side} is above the supported {max}"));
        }
        if nc < 2 || nc > usize::from(u16::MAX) {
            return Err(format!("{nc} columns per side is off the supported range"));
        }
        let mut layout = Self {
            grid: ColumnGrid::new(nc),
            torus,
            xs: [0; Self::MAX_SIDE],
            ys: [0; Self::MAX_SIDE],
        };
        for (name, starts, out) in [("x", xs, &mut layout.xs), ("y", ys, &mut layout.ys)] {
            if starts.len() != side {
                let n = starts.len();
                return Err(format!("{n} {name} cuts for a torus of side {side}"));
            }
            if let Some(&s) = starts.iter().find(|&&s| s >= nc) {
                return Err(format!("{name} cut {s} is off the {nc}-column grid"));
            }
            for (slot, &s) in out.iter_mut().zip(starts) {
                *slot = s as u16;
            }
            let axis = Axis {
                starts: &out[..side],
                nc,
            };
            // Distinct starts, once round: no empty tile, widths summing
            // to the ring.
            let widths: Vec<usize> = (0..side).map(|tile| axis.width(tile)).collect();
            if widths.contains(&0) || widths.iter().sum::<usize>() != nc {
                return Err(format!(
                    "{name} cuts {starts:?} do not cover the {nc}-column ring once"
                ));
            }
        }
        Ok(layout)
    }

    /// A layout drawn from `seed` for the property tests of this crate
    /// and of the crates built on it: `side` distinct starts per axis on a
    /// ring of `side + spare`, ascending from a first one anywhere on it,
    /// so tiles one column wide, tiles wrapping the box edge and shifted
    /// origins all occur.
    #[doc(hidden)]
    pub fn arbitrary(side: usize, spare: usize, seed: u64) -> Self {
        let nc = side + spare;
        // SplitMix64: this crate has no generator among its dependencies.
        let mut state = seed;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut cuts = || {
            let mut ring: Vec<usize> = (0..nc).collect();
            for i in 0..side {
                ring.swap(i, i + below(nc - i));
            }
            ring.truncate(side);
            ring.sort_unstable();
            ring.rotate_left(below(side));
            ring
        };
        let (xs, ys) = (cuts(), cuts());
        Self::rectilinear(nc, Torus2d::new(side, side), &xs, &ys)
            .expect("distinct starts, ascending once round the ring")
    }

    /// The even tiling from the paper's parameters `P` (perfect square)
    /// and `m`.
    pub fn from_p_and_m(p: usize, m: usize) -> Self {
        let torus = Torus2d::square(p);
        Self::new(torus.rows() * m, torus)
    }

    fn axis<'a>(&self, starts: &'a [u16; Self::MAX_SIDE]) -> Axis<'a> {
        Axis {
            starts: &starts[..self.torus.rows()],
            nc: self.grid.nc(),
        }
    }

    fn x_axis(&self) -> Axis<'_> {
        self.axis(&self.xs)
    }

    fn y_axis(&self) -> Axis<'_> {
        self.axis(&self.ys)
    }

    /// Where the tile rows start, by torus row.
    pub fn xs(&self) -> Vec<usize> {
        self.x_axis().starts.iter().map(|&s| s.into()).collect()
    }

    /// Where the tile columns start, by torus column.
    pub fn ys(&self) -> Vec<usize> {
        self.y_axis().starts.iter().map(|&s| s.into()).collect()
    }

    /// Whether this is the even tiling of its grid and torus.
    pub fn is_even(&self) -> bool {
        let (nc, side) = (self.grid.nc(), self.torus.rows());
        nc.is_multiple_of(side) && *self == Self::new(nc, self.torus)
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
        self.locate(c).0
    }

    /// A column's home PE, its offset inside that PE's home tile and the
    /// tile's `(rows, columns)` — what [`Self::home_rank`],
    /// [`Self::offset_in_tile`] and [`Self::tile_dims`] say about it, from
    /// one look at each axis.
    pub fn locate(&self, c: Col) -> (usize, (usize, usize), (usize, usize)) {
        let (ti, ox, rows) = self.x_axis().locate(c.cx);
        let (tj, oy, cols) = self.y_axis().locate(c.cy);
        let home = self.torus.rank_wrapped(ti as i64, tj as i64);
        (home, (ox, oy), (rows, cols))
    }

    /// `(cx, cy)` of the north-west corner column of `rank`'s home tile.
    /// The tile runs forward from there and may wrap past the box edge.
    pub fn tile_origin(&self, rank: usize) -> Col {
        let (i, j) = self.torus.coords(rank);
        Col::new(self.x_axis().start(i), self.y_axis().start(j))
    }

    /// The `(rows, columns)` of `rank`'s home tile: its widths along `cx`
    /// and `cy`.
    pub fn tile_dims(&self, rank: usize) -> (usize, usize) {
        let (i, j) = self.torus.coords(rank);
        (self.x_axis().width(i), self.y_axis().width(j))
    }

    /// A column's offset inside its home tile, each component below the
    /// tile's width along that axis.
    pub fn offset_in_tile(&self, c: Col) -> (usize, usize) {
        self.locate(c).1
    }

    /// Iterate the columns of `rank`'s home tile in row-major order from
    /// its origin.
    pub fn tile_columns(&self, rank: usize) -> impl Iterator<Item = Col> + '_ {
        let (o, nc) = (self.tile_origin(rank), self.grid.nc());
        let (rows, cols) = self.tile_dims(rank);
        (0..rows).flat_map(move |dx| {
            (0..cols).map(move |dy| Col::new((o.cx + dx) % nc, (o.cy + dy) % nc))
        })
    }

    /// Periodic Chebyshev distance from `c` to the nearest column of
    /// `rank`'s home tile, in closed form: a tile is a product of two
    /// intervals, so the distance is the larger of the two per-axis gaps.
    pub fn distance_to_tile(&self, c: Col, rank: usize) -> usize {
        let (i, j) = self.torus.coords(rank);
        (self.x_axis().gap(c.cx, i)).max(self.y_axis().gap(c.cy, j))
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

/// `widths from start` per axis: `2·1·9 from 0 × 1·2·9 from 2`.
impl fmt::Display for PillarLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axis = |a: Axis| {
            let widths: Vec<String> = (0..a.starts.len())
                .map(|tile| a.width(tile).to_string())
                .collect();
            format!("{} from {}", widths.join("·"), a.start(0))
        };
        write!(f, "{} × {}", axis(self.x_axis()), axis(self.y_axis()))
    }
}

impl fmt::Debug for PillarLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PillarLayout")
            .field("nc", &self.grid.nc())
            .field("xs", &self.xs())
            .field("ys", &self.ys())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A rectilinear layout drawn from `seed` — and, one time in four,
    /// the even tiling with `m = spare % 4 + 1`.
    fn random_layout(side: usize, spare: usize, seed: u64) -> PillarLayout {
        if seed.is_multiple_of(4) {
            return PillarLayout::new(side * (spare % 4 + 1), Torus2d::new(side, side));
        }
        PillarLayout::arbitrary(side, spare, seed)
    }

    #[test]
    fn paper_configurations_have_expected_m() {
        // Fig. 5(a): P = 36, C = 24³ → m = 4.
        let l = PillarLayout::new(24, Torus2d::square(36));
        assert!((0..36).all(|r| l.tile_dims(r) == (4, 4)));
        // Fig. 5(b): P = 36, C = 12³ → m = 2.
        let l = PillarLayout::new(12, Torus2d::square(36));
        assert!((0..36).all(|r| l.tile_dims(r) == (2, 2)));
        // Table 1 row: P = 64, m = 3 → nc = 24.
        let l = PillarLayout::from_p_and_m(64, 3);
        assert_eq!(l.grid().nc(), 24);
        assert!(l.is_even());
        assert_eq!(
            l.to_string(),
            "3·3·3·3·3·3·3·3 from 0 × 3·3·3·3·3·3·3·3 from 0"
        );
    }

    #[test]
    fn the_benchmark_clusters_tiling_reads_as_its_cuts_say() {
        // 3 × 3 over 12 columns, x cut at 0, 2, 3 and y at 2, 3, 5: the
        // last tile column wraps across the box edge.
        let torus = Torus2d::square(9);
        let l = PillarLayout::rectilinear(12, torus, &[0, 2, 3], &[2, 3, 5]).unwrap();
        assert!(!l.is_even());
        assert_eq!(l.to_string(), "2·1·9 from 0 × 1·2·9 from 2");
        assert_eq!((l.xs(), l.ys()), (vec![0, 2, 3], vec![2, 3, 5]));
        let se = torus.rank_wrapped(2, 2);
        assert_eq!(l.tile_dims(se), (9, 9));
        assert_eq!(l.tile_origin(se), Col::new(3, 5));
        assert_eq!(l.home_rank(Col::new(11, 1)), se);
        assert_eq!(l.offset_in_tile(Col::new(11, 1)), (8, 8));
        assert_eq!(l.home_rank(Col::new(2, 2)), torus.rank_wrapped(1, 0));
        assert_eq!(l.tile_columns(se).count(), 81);
        assert_eq!(l.tile_columns(se).last(), Some(Col::new(11, 1)));
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
    #[should_panic(expected = "divide evenly")]
    fn uneven_tiling_rejected() {
        let _ = PillarLayout::new(13, Torus2d::square(9));
    }

    #[test]
    fn cuts_that_do_not_tile_the_ring_are_errors() {
        let torus = Torus2d::square(9);
        let cut = |xs: &[usize], ys: &[usize]| PillarLayout::rectilinear(12, torus, xs, ys);
        assert!(cut(&[5, 9, 2], &[0, 4, 8]).is_ok(), "a shifted origin");
        for (xs, what) in [
            (vec![0, 4], "2 x cuts"),
            (vec![0, 4, 8, 10], "4 x cuts"),
            (vec![0, 4, 12], "off the 12-column grid"),
            (vec![0, 4, 4], "do not cover"), // an empty tile
            (vec![0, 8, 4], "do not cover"), // twice round the ring
        ] {
            let e = cut(&xs, &[0, 4, 8]).expect_err(what);
            assert!(e.contains(what), "{xs:?}: {e}");
            let e = cut(&[0, 4, 8], &xs).expect_err(what);
            assert!(e.contains(&what.replace('x', "y")), "{xs:?}: {e}");
        }
        let wide = Torus2d::new(33, 33);
        let starts: Vec<usize> = (0..33).collect();
        let e = PillarLayout::rectilinear(66, wide, &starts, &starts).unwrap_err();
        assert!(e.contains("above the supported 32"), "{e}");
        let e = PillarLayout::rectilinear(12, Torus2d::new(3, 4), &[0, 4, 8], &[0, 4, 8]);
        assert!(e.unwrap_err().contains("square torus"));
    }

    proptest! {
        #[test]
        fn prop_tiles_partition_the_columns_and_the_accessors_agree(
            side in 3usize..6, spare in 0usize..8, seed in any::<u64>(),
        ) {
            let l = random_layout(side, spare, seed);
            let g = l.grid();
            let mut seen = vec![0u32; g.len()];
            for r in 0..l.num_ranks() {
                let (o, (rows, cols)) = (l.tile_origin(r), l.tile_dims(r));
                prop_assert!(rows >= 1 && cols >= 1);
                prop_assert_eq!(l.tile_columns(r).count(), rows * cols);
                prop_assert_eq!(l.tile_columns(r).next(), Some(o));
                for c in l.tile_columns(r) {
                    seen[g.index(c)] += 1;
                    prop_assert_eq!(l.home_rank(c), r, "column {:?}", c);
                    let (ox, oy) = l.offset_in_tile(c);
                    prop_assert_eq!(l.locate(c), (r, (ox, oy), (rows, cols)));
                    prop_assert!(ox < rows && oy < cols);
                    let back = Col::new((o.cx + ox) % g.nc(), (o.cy + oy) % g.nc());
                    prop_assert_eq!(back, c);
                }
            }
            prop_assert!(seen.iter().all(|&s| s == 1), "tiles must tile exactly once: {:?}", l);
        }

        #[test]
        fn prop_distance_to_tile_equals_the_scan_over_the_tile(
            side in 3usize..6, spare in 0usize..8, seed in any::<u64>(),
        ) {
            let l = random_layout(side, spare, seed);
            for c in l.grid().iter() {
                for r in 0..l.num_ranks() {
                    let scanned = l
                        .tile_columns(r)
                        .map(|t| l.grid().chebyshev(c, t))
                        .min()
                        .expect("tile has columns");
                    prop_assert_eq!(l.distance_to_tile(c, r), scanned, "{:?}, {:?}, tile {}", l, c, r);
                }
            }
        }

        #[test]
        fn prop_the_even_tiling_is_the_multiples_of_m(side in 1usize..6, m in 1usize..5) {
            prop_assume!(side * m >= 2);
            let l = PillarLayout::new(side * m, Torus2d::new(side, side));
            let starts: Vec<usize> = (0..side).map(|i| i * m).collect();
            prop_assert!(l.is_even());
            prop_assert_eq!((l.xs(), l.ys()), (starts.clone(), starts));
            for c in l.grid().iter() {
                prop_assert_eq!(l.offset_in_tile(c), (c.cx % m, c.cy % m));
                let home = l.torus().rank_wrapped((c.cx / m) as i64, (c.cy / m) as i64);
                prop_assert_eq!(l.home_rank(c), home);
            }
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
