//! The canonical half-shell walk over everything a PE sees — the one
//! place the pair order is spelled out, and nothing else: its two
//! consumers, the live kernel and the Verlet recorder, are in
//! [`super::force`].
//!
//! Determinism: particle storage is kept (cell, id)-sorted, and the walk
//! visits home cells — owned *and* ghost — in ascending global cell
//! order, evaluating each unordered pair exactly once at the canonical
//! half-shell home (the same order as `pcdlb_md::serial`). Every owned
//! particle therefore accumulates its force terms in exactly the serial
//! sequence: the parallel trajectory is **bitwise identical** to the
//! serial one for any shape and `P`, with or without DLB.

use std::ops::Range;

use pcdlb_md::cells::CellSlab;
use pcdlb_md::vec3::Vec3;
use pcdlb_md::Particle;

use super::topology::{wrap, CellClass, Home, Topology};
use super::{PeState, Slabs};

/// The forward (dx, dy) cross-section groups of the half shell: paired
/// with their dz lists ([1] for the home column, [-1, 0, 1] otherwise)
/// they enumerate `pcdlb_md::cells::HALF_OFFSETS_13` in canonical order.
pub(super) const FORWARD_XY: [(i64, i64); 5] = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)];

/// The dz list of forward group `gi` (see [`FORWARD_XY`]).
fn forward_dz(gi: usize) -> &'static [i64] {
    if gi == 0 {
        &[1]
    } else {
        &[-1, 0, 1]
    }
}

/// One non-empty cell of the half-shell walk.
#[derive(Clone, Copy)]
pub(super) struct CellRef<'a> {
    pub(super) class: CellClass,
    pub(super) parts: &'a [Particle],
    /// First slot of the cell in the flat force / SoA layout: owned cells
    /// in ascending column order, ghost cells appended behind them.
    at: usize,
}

impl CellRef<'_> {
    pub(super) fn slots(&self) -> Range<usize> {
        self.at..self.at + self.parts.len()
    }
}

/// One kernel block of the canonical half-shell walk.
pub(super) enum Block<'a> {
    /// The intra-cell triangle of an owned home cell.
    Intra(CellRef<'a>),
    /// A home cell against one forward neighbour cell displaced by the
    /// periodic shift; at least one side is owned.
    Pair(CellRef<'a>, CellRef<'a>, Vec3),
    /// The external pull on an owned home cell.
    Pull(CellRef<'a>),
}

/// One column of the walk: its slab(s), slot bases and per-cell classes.
struct ColView<'a> {
    owned: Option<&'a CellSlab>,
    ghost: Option<&'a CellSlab>,
    /// Slot base of the owned slab, then of the ghost slab.
    base: [usize; 2],
    class: &'a [CellClass],
}

impl<'a> ColView<'a> {
    /// Whether the PE sees cell `cz` of this column at all.
    fn sees(&self, cz: usize) -> bool {
        self.class[cz] != CellClass::Unseen
    }

    /// Cell `cz` of this column, from whichever slab its class says holds
    /// it; `None` when the PE does not see that cell.
    fn cell(&self, cz: usize) -> Option<CellRef<'a>> {
        let class = self.class[cz];
        let (slab, base) = match class {
            CellClass::Unseen => return None,
            CellClass::Ghost => (self.ghost?, self.base[1]),
            CellClass::Owned => (self.owned?, self.base[0]),
        };
        Some(CellRef {
            class,
            parts: slab.cell(cz),
            at: base + slab.range(cz).start,
        })
    }
}

/// The half-shell walk over everything this PE sees.
pub(super) struct Walk<'a> {
    box_len: f64,
    topology: &'a Topology,
    /// Per-home slot bases (owned slab, ghost slab) in the flat layout.
    base: &'a [[usize; 2]],
    columns: &'a Slabs,
    ghosts: &'a Slabs,
}

impl PeState {
    /// The walk over the slabs as they stand, in the slot layout the
    /// force pass's prologue just made.
    pub(super) fn walk(&self) -> Walk<'_> {
        Walk {
            box_len: self.box_len,
            topology: &self.topology,
            base: self.force.bases(),
            columns: &self.columns,
            ghosts: &self.ghosts,
        }
    }
}

impl<'a> Walk<'a> {
    fn view(&self, hi: usize, home: &Home) -> ColView<'a> {
        ColView {
            owned: home.owned.then(|| &self.columns[&home.col]),
            ghost: home.ghost.then(|| &self.ghosts[&home.col]),
            base: self.base[hi],
            class: self.topology.classes(hi),
        }
    }

    /// Visit the kernel blocks in canonical order, each with its home
    /// column's energy bucket (the column's index in the home list).
    ///
    /// Home cells are all cells this PE can see — owned *and* ghost — in
    /// ascending global order; each home runs its intra-cell triangle
    /// (owned homes only), then the 13 forward offsets, then its pull.
    /// Pairs between two ghost cells are other PEs' work and are never
    /// visited.
    pub(super) fn for_each_block(&self, mut visit: impl FnMut(usize, Block<'a>)) {
        let (nc, homes) = (self.topology.nc(), self.topology.homes());
        for (hi, home) in homes.iter().enumerate() {
            let hv = self.view(hi, home);
            // Settle per column what can be settled there: a forward
            // column is dead for this home when neither holds an owned
            // cell (ghost beside ghost), and its z loops and slab lookups
            // are skipped whole.
            let live: [bool; 5] = std::array::from_fn(|g| {
                home.ring[g].is_none_or(|(ni, ..)| home.owned || homes[ni].owned)
            });
            let ring: [Option<(ColView<'a>, f64, f64)>; 5] = std::array::from_fn(|g| {
                home.ring[g]
                    .filter(|_| live[g])
                    .map(|(ni, sx, sy)| (self.view(ni, &homes[ni]), sx, sy))
            });
            for cz in 0..nc {
                let Some(h) = hv.cell(cz) else {
                    continue;
                };
                if h.parts.is_empty() {
                    continue;
                }
                let own_home = h.class == CellClass::Owned;
                if own_home {
                    visit(hi, Block::Intra(h));
                }
                // The z neighbours of this cell with their periodic
                // shifts, by dz + 1.
                let zs = [-1, 0, 1].map(|dz| {
                    let (nz, image) = wrap(nc, cz, dz);
                    (nz, image * self.box_len)
                });
                for (gi, entry) in ring.iter().enumerate() {
                    if !live[gi] {
                        continue;
                    }
                    for &dz in forward_dz(gi) {
                        let (nz, sz) = zs[(dz + 1) as usize];
                        let Some((nv, sx, sy)) = entry.as_ref().filter(|e| e.0.sees(nz)) else {
                            assert!(
                                !own_home,
                                "rank {}: missing forward neighbour of cell {:?}/{cz}",
                                self.topology.rank(),
                                home.col
                            );
                            continue;
                        };
                        // Both sides ghost: another PE's pair. Judged
                        // from the classes alone, before touching a slab.
                        if !(own_home || nv.class[nz] == CellClass::Owned) {
                            continue;
                        }
                        let n = nv.cell(nz).expect("a seen cell has a slab");
                        if !n.parts.is_empty() {
                            visit(hi, Block::Pair(h, n, Vec3::new(*sx, *sy, sz)));
                        }
                    }
                }
                if own_home {
                    visit(hi, Block::Pull(h));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcdlb_md::cells::HALF_OFFSETS_13;

    #[test]
    fn forward_groups_enumerate_the_half_shell_in_order() {
        let mut offsets = Vec::new();
        for (gi, &(dx, dy)) in FORWARD_XY.iter().enumerate() {
            for &dz in forward_dz(gi) {
                offsets.push([dx, dy, dz]);
            }
        }
        let expect: Vec<[i64; 3]> = HALF_OFFSETS_13.iter().map(|&(x, y, z)| [x, y, z]).collect();
        assert_eq!(offsets, expect);
    }
}
