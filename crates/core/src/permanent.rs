//! Permanent / movable classification of a tile's columns (paper Fig. 3).
//!
//! Within each `m × m` tile, the last row (`ox = m−1`) and last column
//! (`oy = m−1`) — the side facing the `(i+1, ·)` and `(·, j+1)` neighbours
//! — are **permanent**: they are never redistributed and form the wall
//! that keeps a PE's domain from touching any domain outside its
//! 8-neighbourhood. The remaining `(m−1)²` block toward the NW corner is
//! **movable**: it may be lent to the NW-side neighbours (paper Case 1)
//! and later returned (Case 3).
//!
//! The orientation (which row/column is permanent) is forced by the
//! paper's transfer directions: Fig. 4 shows `PE(i, j)` receiving cells
//! from its `(i, j+1)`, `(i+1, j)` and `(i+1, j+1)` neighbours, so the
//! cells that move are those nearest the `(i−1, j−1)` corner.

use pcdlb_domain::{Col, PillarLayout};

/// True if `col` is a permanent cell of its home tile.
pub fn is_permanent(layout: &PillarLayout, col: Col) -> bool {
    let (ox, oy) = layout.offset_in_tile(col);
    let m = layout.m();
    ox == m - 1 || oy == m - 1
}

/// True if `col` is a movable cell of its home tile.
pub fn is_movable(layout: &PillarLayout, col: Col) -> bool {
    !is_permanent(layout, col)
}

/// Number of permanent columns per tile: `2m − 1`.
pub fn permanent_count(m: usize) -> usize {
    assert!(m >= 1);
    2 * m - 1
}

/// Number of movable columns per tile: `(m − 1)²`.
pub fn movable_count(m: usize) -> usize {
    assert!(m >= 1);
    (m - 1) * (m - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

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
