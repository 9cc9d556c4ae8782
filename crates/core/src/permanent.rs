//! Permanent / movable classification of a tile's columns (paper Fig. 3).
//!
//! Within each tile, the last row and the last column — the side facing
//! the `(i+1, ·)` and `(·, j+1)` neighbours — are **permanent**: they are
//! never redistributed and form the wall that keeps a PE's domain from
//! touching any domain outside its 8-neighbourhood. The remaining block
//! toward the NW corner is **movable**: it may be lent to the NW-side
//! neighbours (paper Case 1) and later returned (Case 3). In the paper's
//! `m × m` tile that is `2m − 1` permanent and `(m−1)²` movable columns;
//! on a rectilinear layout (`pcdlb_domain::PillarLayout`) "last" is read
//! off the column's *own* tile, `m_x × m_y` with `m_x + m_y − 1`
//! permanent and `(m_x − 1)(m_y − 1)` movable, and a tile one column
//! wide is all wall. The wall argument asks nothing more of the widths:
//! whatever a movable column's 8 neighbours are — columns of its own
//! tile, or the last row or column of the tile to the N, W or NW — each
//! is owned by its home or by a PE one step N / W / NW of it, and those
//! four PEs are mutual torus neighbours.
//!
//! The orientation (which row/column is permanent) is forced by the
//! paper's transfer directions: Fig. 4 shows `PE(i, j)` receiving cells
//! from its `(i, j+1)`, `(i+1, j)` and `(i+1, j+1)` neighbours, so the
//! cells that move are those nearest the `(i−1, j−1)` corner.

use pcdlb_domain::{Col, PillarLayout};

/// True if `col` is a permanent cell of its home tile: on the tile's
/// last row or last column.
pub fn is_permanent(layout: &PillarLayout, col: Col) -> bool {
    let (_, (ox, oy), (rows, cols)) = layout.locate(col);
    ox == rows - 1 || oy == cols - 1
}

/// True if `col` is a movable cell of its home tile.
pub fn is_movable(layout: &PillarLayout, col: Col) -> bool {
    !is_permanent(layout, col)
}

/// The movable block of `rank`'s home tile — all of the tile but its last
/// row and column — in row-major order from the tile's origin, read off
/// the tile's origin and size without looking any column up.
pub fn movable_columns(layout: &PillarLayout, rank: usize) -> impl Iterator<Item = Col> {
    let (o, nc) = (layout.tile_origin(rank), layout.grid().nc());
    let (rows, cols) = layout.tile_dims(rank);
    (0..rows - 1).flat_map(move |dx| {
        (0..cols - 1).map(move |dy| Col::new((o.cx + dx) % nc, (o.cy + dy) % nc))
    })
}

/// The most columns `rank` can ever own (paper Fig. 4's extreme): its own
/// tile plus the movable blocks of the tiles to its S, E and SE —
/// `m² + 3(m−1)²` where every tile is `m × m`.
pub fn max_columns(layout: &PillarLayout, rank: usize) -> usize {
    let torus = layout.torus();
    let movable = |(di, dj)| {
        let (rows, cols) = layout.tile_dims(torus.neighbor(rank, di, dj));
        (rows - 1) * (cols - 1)
    };
    let (rows, cols) = layout.tile_dims(rank);
    rows * cols
        + [(1, 0), (0, 1), (1, 1)]
            .into_iter()
            .map(movable)
            .sum::<usize>()
}

/// Number of permanent columns per `m × m` tile: `2m − 1`.
pub fn permanent_count(m: usize) -> usize {
    assert!(m >= 1);
    2 * m - 1
}

/// Number of movable columns per `m × m` tile: `(m − 1)²`.
pub fn movable_count(m: usize) -> usize {
    assert!(m >= 1);
    (m - 1) * (m - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn layout(p: usize, m: usize) -> PillarLayout {
        PillarLayout::from_p_and_m(p, m)
    }

    #[test]
    fn counts_partition_the_tile() {
        for m in 1..=6 {
            assert_eq!(permanent_count(m) + movable_count(m), m * m);
        }
        assert_eq!(permanent_count(3), 5); // paper Fig. 3: a row + a column
        assert_eq!(movable_count(3), 4);
        assert_eq!(movable_count(1), 0); // m = 1: everything permanent
    }

    #[test]
    fn classification_matches_counts() {
        for m in [1, 2, 3, 4] {
            let l = layout(9, m);
            for r in 0..9 {
                let perm = l.tile_columns(r).filter(|&c| is_permanent(&l, c)).count();
                let mov = l.tile_columns(r).filter(|&c| is_movable(&l, c)).count();
                assert_eq!(perm, permanent_count(m));
                assert_eq!(mov, movable_count(m));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_every_tile_splits_into_its_wall_and_its_movable_block(
            side in 3usize..6, spare in 0usize..8, seed in any::<u64>(),
        ) {
            let l = PillarLayout::arbitrary(side, spare, seed);
            let g = l.grid();
            for r in 0..l.num_ranks() {
                let (rows, cols) = l.tile_dims(r);
                let mov = l.tile_columns(r).filter(|&c| is_movable(&l, c)).count();
                let perm = l.tile_columns(r).filter(|&c| is_permanent(&l, c)).count();
                prop_assert_eq!(mov, (rows - 1) * (cols - 1), "{:?} tile {}", l, r);
                let block: Vec<Col> = l.tile_columns(r).filter(|&c| is_movable(&l, c)).collect();
                prop_assert_eq!(movable_columns(&l, r).collect::<Vec<_>>(), block);
                prop_assert_eq!(perm + mov, rows * cols);
                // The wall is the side facing S and E: the movable block
                // starts at the tile's origin.
                let o = l.tile_origin(r);
                for c in l.tile_columns(r) {
                    let (dx, dy) = ((c.cx + g.nc() - o.cx) % g.nc(), (c.cy + g.nc() - o.cy) % g.nc());
                    prop_assert_eq!(is_movable(&l, c), dx + 1 < rows && dy + 1 < cols);
                }
                let others: usize = [(1, 0), (0, 1), (1, 1)]
                    .into_iter()
                    .map(|(di, dj)| {
                        let t = l.torus().neighbor(r, di, dj);
                        l.tile_columns(t).filter(|&c| is_movable(&l, c)).count()
                    })
                    .sum();
                prop_assert_eq!(max_columns(&l, r), rows * cols + others);
            }
            // Movable blocks of different tiles never touch: a wall lies
            // between them.
            for c in g.iter().filter(|&c| is_movable(&l, c)) {
                for n in g.neighbors8(c) {
                    prop_assert!(
                        l.home_rank(n) == l.home_rank(c) || is_permanent(&l, n),
                        "{:?}: movable {:?} touches foreign movable {:?}", l, c, n
                    );
                }
            }
        }
    }

    #[test]
    fn the_accumulation_limit_of_an_even_tiling_is_the_papers() {
        for m in 1..=4 {
            let l = layout(16, m);
            assert!((0..16).all(|r| max_columns(&l, r) == m * m + 3 * (m - 1) * (m - 1)));
        }
    }

    #[test]
    fn paper_m2_case_one_quarter_movable() {
        // Paper Sec. 3.3: "In the m = 2 case, 1/4 of a domain is movable."
        assert_eq!(movable_count(2), 1);
        assert_eq!(movable_count(2) as f64 / 4.0_f64, 0.25);
    }

    #[test]
    fn paper_m4_case_nine_sixteenths_movable() {
        // Paper Sec. 3.3: "in the m = 4 case, 9/16 of a domain is movable."
        assert_eq!(movable_count(4), 9);
        assert_eq!(movable_count(4) as f64 / 16.0, 9.0 / 16.0);
    }

    #[test]
    fn permanent_cells_are_the_se_row_and_column() {
        let l = layout(9, 3);
        let o = l.tile_origin(4);
        // SE corner of the tile is permanent.
        assert!(is_permanent(&l, Col::new(o.cx + 2, o.cy + 2)));
        // Whole last row and last column.
        for k in 0..3 {
            assert!(is_permanent(&l, Col::new(o.cx + 2, o.cy + k)));
            assert!(is_permanent(&l, Col::new(o.cx + k, o.cy + 2)));
        }
        // NW block is movable.
        for dx in 0..2 {
            for dy in 0..2 {
                assert!(is_movable(&l, Col::new(o.cx + dx, o.cy + dy)));
            }
        }
    }

    #[test]
    fn permanent_walls_separate_movable_blocks_of_diagonal_tiles() {
        // The structural heart of the scheme: movable blocks of two
        // adjacent tiles are never 8-adjacent to each other — a permanent
        // row or column always lies between them.
        let l = layout(16, 3);
        let g = l.grid();
        for c in g.iter() {
            if !is_movable(&l, c) {
                continue;
            }
            for n in g.neighbors8(c) {
                if l.home_rank(n) != l.home_rank(c) {
                    assert!(
                        is_permanent(&l, n),
                        "movable {c:?} touches foreign movable {n:?}"
                    );
                }
            }
        }
    }
}
