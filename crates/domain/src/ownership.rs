//! Dynamic column ownership.
//!
//! DDM assigns each PE its home tile; DLB then moves ownership of movable
//! columns between 8-neighbouring PEs. [`OwnershipMap`] tracks the global
//! column→owner assignment and provides the structural checks that the
//! permanent-cell scheme is designed to guarantee:
//!
//! - **tile distance** — a column is only ever owned by its home PE or by
//!   the PE one tile to the N/W/NW of its home (the paper's Case 1
//!   transfer directions);
//! - **8-neighbour preservation** — any two adjacent columns belong to
//!   PEs that are equal or mutual 8-neighbours on the torus, so no PE
//!   ever needs to talk past its 8-neighbourhood (the wall property of
//!   Fig. 3);
//! - **ghost containment** — every ghost source of a PE (owner of a
//!   column adjacent to one of its own) is within its 8-neighbourhood.
//!
//! The map is deliberately mechanism-only: *which* columns may move (the
//! permanent/movable classification) and *when* (the Case 1–3 rules) live
//! in `pcdlb-core`, which drives this map and whose property tests assert
//! the checks above hold under arbitrary valid protocol executions.

use std::collections::BTreeSet;

use crate::column::Col;
use crate::pillar::PillarLayout;

/// Global column→owner assignment over a square-pillar layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnershipMap {
    layout: PillarLayout,
    owner: Vec<usize>,
}

impl OwnershipMap {
    /// The initial DDM assignment: every column owned by its home PE.
    pub fn initial(layout: PillarLayout) -> Self {
        let mut owner = vec![0; layout.grid().len()];
        for rank in 0..layout.num_ranks() {
            for c in layout.tile_columns(rank) {
                owner[layout.grid().index(c)] = rank;
            }
        }
        Self { layout, owner }
    }

    /// The layout this map is defined over.
    pub fn layout(&self) -> &PillarLayout {
        &self.layout
    }

    /// Current owner of a column.
    pub fn owner_of(&self, c: Col) -> usize {
        self.owner[self.layout.grid().index(c)]
    }

    /// Transfer ownership of `c` from `from` to `to`. Panics unless `from`
    /// is the current owner — a violated expectation is always a protocol
    /// bug.
    pub fn transfer(&mut self, c: Col, from: usize, to: usize) {
        let idx = self.layout.grid().index(c);
        assert_eq!(
            self.owner[idx], from,
            "transfer of {c:?}: expected owner {from}, found {}",
            self.owner[idx]
        );
        assert!(
            to < self.layout.num_ranks(),
            "transfer to invalid rank {to}"
        );
        self.owner[idx] = to;
    }

    /// Overwrite the owner of `c` without checking the previous owner.
    ///
    /// For the *global* map, [`OwnershipMap::transfer`] is the right call.
    /// `set_owner` exists for per-PE *windowed* views: a PE only hears the
    /// transfer decisions of its 8 neighbours, so entries outside its
    /// readable window can be stale; when a column re-enters the window
    /// through a heard decision, the entry is overwritten from the
    /// decision's authoritative `to` field rather than chained through
    /// transfers the PE never saw.
    pub fn set_owner(&mut self, c: Col, rank: usize) {
        assert!(rank < self.layout.num_ranks(), "invalid rank {rank}");
        let idx = self.layout.grid().index(c);
        self.owner[idx] = rank;
    }

    /// Columns currently owned by `rank`, in index order.
    pub fn owned_columns(&self, rank: usize) -> Vec<Col> {
        let g = self.layout.grid();
        (0..g.len())
            .filter(|&i| self.owner[i] == rank)
            .map(|i| g.col_of(i))
            .collect()
    }

    /// Number of columns owned by `rank`.
    pub fn num_owned(&self, rank: usize) -> usize {
        self.owner.iter().filter(|&&o| o == rank).count()
    }

    /// The distinct owners of columns 8-adjacent to `rank`'s owned set
    /// (excluding `rank` itself) — the PEs `rank` must exchange ghost data
    /// with.
    pub fn ghost_sources(&self, rank: usize) -> BTreeSet<usize> {
        let g = self.layout.grid();
        let mut out = BTreeSet::new();
        for c in self.owned_columns(rank) {
            for n in g.neighbors8(c) {
                let o = self.owner_of(n);
                if o != rank {
                    out.insert(o);
                }
            }
        }
        out
    }

    /// Check the tile-distance invariant (see module docs). Returns the
    /// first violation as an error message.
    pub fn check_tile_distance(&self) -> Result<(), String> {
        for c in self.layout.grid().iter() {
            let home = self.layout.home_rank(c);
            let owner = self.owner_of(c);
            let d = self.layout.tile_delta(owner, home);
            // Owner (i,j) may hold columns of tiles (i,j), (i+1,j),
            // (i,j+1), (i+1,j+1): home = owner + {0,1}².
            if !matches!(d, (0, 0) | (1, 0) | (0, 1) | (1, 1)) {
                return Err(format!(
                    "column {c:?} (home {home}) owned by {owner}, tile delta {d:?}"
                ));
            }
        }
        Ok(())
    }

    /// Check 8-neighbour preservation: adjacent columns always belong to
    /// equal or 8-neighbouring PEs.
    pub fn check_eight_neighbor(&self) -> Result<(), String> {
        let g = self.layout.grid();
        let t = self.layout.torus();
        for c in g.iter() {
            let oc = self.owner_of(c);
            for n in g.neighbors8(c) {
                let on = self.owner_of(n);
                if oc != on && !t.neighbors8(oc).contains(&on) {
                    return Err(format!(
                        "adjacent columns {c:?} (owner {oc}) and {n:?} (owner {on}) \
                         belong to non-neighbouring PEs"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Check ghost containment for every rank: all ghost sources within
    /// the torus 8-neighbourhood.
    pub fn check_ghost_containment(&self) -> Result<(), String> {
        let t = self.layout.torus();
        for rank in 0..self.layout.num_ranks() {
            let allowed: BTreeSet<usize> = t.distinct_neighbors8(rank).into_iter().collect();
            for src in self.ghost_sources(rank) {
                if !allowed.contains(&src) {
                    return Err(format!(
                        "rank {rank} needs ghost data from non-neighbour {src}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Run every structural check.
    pub fn check_all(&self) -> Result<(), String> {
        self.check_tile_distance()?;
        self.check_eight_neighbor()?;
        self.check_ghost_containment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcdlb_mp::Torus2d;

    fn layout_9x12() -> PillarLayout {
        // P = 9 (3×3 torus), nc = 12 → m = 4.
        PillarLayout::new(12, Torus2d::square(9))
    }

    #[test]
    fn initial_map_gives_every_rank_m_squared_columns() {
        let om = OwnershipMap::initial(layout_9x12());
        for r in 0..9 {
            assert_eq!(om.num_owned(r), 16);
        }
    }

    #[test]
    fn initial_map_passes_all_checks() {
        let om = OwnershipMap::initial(layout_9x12());
        om.check_all().unwrap();
    }

    #[test]
    fn initial_ghost_sources_are_exactly_the_8_neighbors() {
        let l = layout_9x12();
        let om = OwnershipMap::initial(l);
        for r in 0..9 {
            let expect: BTreeSet<usize> = l.torus().distinct_neighbors8(r).into_iter().collect();
            assert_eq!(om.ghost_sources(r), expect, "rank {r}");
        }
    }

    #[test]
    fn transfer_moves_a_column() {
        let l = layout_9x12();
        let mut om = OwnershipMap::initial(l);
        // Move the NW movable corner of rank 4's tile (center of 3×3
        // torus) to its NW neighbour, rank 0.
        let c = l.tile_origin(4);
        om.transfer(c, 4, 0);
        assert_eq!(om.owner_of(c), 0);
        assert_eq!(om.num_owned(0), 17);
        assert_eq!(om.num_owned(4), 15);
        om.check_all().unwrap();
    }

    #[test]
    #[should_panic(expected = "expected owner")]
    fn transfer_from_wrong_owner_panics() {
        let l = layout_9x12();
        let mut om = OwnershipMap::initial(l);
        om.transfer(l.tile_origin(4), 3, 0);
    }

    #[test]
    fn tile_distance_check_catches_far_transfer() {
        let l = layout_9x12();
        let mut om = OwnershipMap::initial(l);
        // Rank 4's column handed to rank 8 (SE neighbour): delta from
        // owner 8 to home 4 is (-1,-1), not in the allowed set.
        om.transfer(l.tile_origin(4), 4, 8);
        assert!(om.check_tile_distance().is_err());
    }

    #[test]
    fn eight_neighbor_check_catches_wall_breach() {
        // P = 16 (4×4 torus) so that non-neighbouring PEs exist.
        let l = PillarLayout::new(8, Torus2d::square(16)); // m = 2
        let mut om = OwnershipMap::initial(l);
        // Hand rank 5's entire tile to rank 0 (its NW neighbour). Rank
        // 5's tile borders rank 10's tile; rank 0 and rank 10 are not
        // neighbours on a 4×4 torus, so the wall is breached.
        let cols: Vec<Col> = l.tile_columns(5).collect();
        for c in cols {
            om.transfer(c, 5, 0);
        }
        assert!(om.check_eight_neighbor().is_err());
        assert!(om.check_ghost_containment().is_err());
    }

    #[test]
    fn permanent_wall_keeps_checks_green() {
        // Same scenario but only the movable (NW (m−1)²) block moves —
        // the permanent row/column stays, and every check passes. This is
        // the paper's core claim in miniature.
        let l = PillarLayout::new(12, Torus2d::square(16)); // m = 3
        let mut om = OwnershipMap::initial(l);
        let o = l.tile_origin(5);
        for dx in 0..2 {
            for dy in 0..2 {
                om.transfer(Col::new(o.cx + dx, o.cy + dy), 5, 0);
            }
        }
        om.check_all().unwrap();
    }

    #[test]
    fn ghost_sources_shrink_when_isolated() {
        // On a 3×3 torus every rank neighbours every other, so ghost
        // sources are all 8 others regardless of transfers.
        let l = layout_9x12();
        let mut om = OwnershipMap::initial(l);
        let o = l.tile_origin(4);
        om.transfer(o, 4, 0);
        assert_eq!(om.ghost_sources(0).len(), 8);
    }
}
