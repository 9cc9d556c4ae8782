//! Who is around a PE: everything the engine derives from
//! `Decomposition::owner_of` — the neighbour set, the closure test
//! behind the single exchange and the hops of the staged exchange (fixed
//! for the run), and the caches rebuilt when ownership changes (cell
//! classes, ghost routes, the sections this PE originates, home list).
//! Cold: nothing here runs in the steady-state step, so the file is off
//! the lint's hot-path list.
//!
//! # Routing
//!
//! A step's frames travel the rank torus one axis at a time — x, then y,
//! then z — one frame per hop: to each distinct rank one torus step away
//! along the axis (one at a side of 2, two from 3). An item for a
//! neighbour one step away on several axes rides the hop of its first
//! such axis and is relayed along the others ([`Hop`]). Destinations are
//! named by their offset from the item's origin ([`dest_bit`]); a
//! section's mask is the set of its final destinations behind the hop it
//! takes out of its origin, and a relay decides what it keeps and what it
//! passes on from the mask and the origin alone ([`ahead`]), reading no
//! ownership.

use std::collections::BTreeSet;
use std::ops::Range;

use pcdlb_core::protocol::DlbDecision;
use pcdlb_domain::Col;
use pcdlb_md::cells::CellSlab;

use super::walk::FORWARD_XY;
use super::PeState;
use crate::decomp::Decomposition;
use crate::frame::Arrival;

/// What a cell is to this PE. Derived purely from the decomposition's
/// ownership answers, so it only changes when ownership does. The class
/// is per *cell*, not per column: the plane and the pillar own whole
/// columns, but a cube rank's column holds its own block, one ghost cell
/// above and below it, and cells it never sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(super) enum CellClass {
    /// This PE's: its forces are stored here.
    Owned,
    /// Not owned; mirrored from a neighbour each step.
    Ghost,
    /// Neither owned nor adjacent to an owned cell: not stored here.
    Unseen,
}

/// One column this PE sees: owned, ghost, or — a cube rank's own columns,
/// with the ghost cells above and below its block — both.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Home {
    pub(super) col: Col,
    /// Has a slab in the owned columns.
    pub(super) owned: bool,
    /// Has a slab in the ghost columns.
    pub(super) ghost: bool,
    /// The five forward cross-section columns ([`FORWARD_XY`]) as indices
    /// into the home list with their x/y periodic shifts; `None` where
    /// this PE sees no such column (only ever next to a ghost home —
    /// those pairs belong to other PEs).
    pub(super) ring: [Option<(usize, f64, f64)>; 5],
}

/// A run of z cells (or slab slots) of one column; a route is a list of
/// them, ascending and merged.
pub(super) type Route = Vec<(Col, Range<usize>)>;

/// A destination's bit in a section mask: its offset from the section's
/// origin, at most one torus step per axis, as base-3 digits — 0, +1 and
/// −1 as 0, 1 and 2 — x lowest. Along a side of 2 both ways lead to the
/// same rank, which is always +1.
pub(crate) fn dest_bit(d: [i64; 3]) -> u32 {
    let digit = |v: i64| match v {
        0 => 0,
        1 => 1,
        _ => 2,
    };
    1 << (digit(d[0]) + 3 * digit(d[1]) + 9 * digit(d[2]))
}

/// The offset bit `i` of a mask names ([`dest_bit`]'s inverse).
pub(crate) fn bit_offset(i: u32) -> [i64; 3] {
    let v = |digit: u32| [0, 1, -1][digit as usize];
    [v(i % 3), v(i / 3 % 3), v(i / 9)]
}

/// The destinations an item at offset `at` from its origin still reaches
/// through a hop along `axis` by `dir`: every offset that equals `at` on
/// the axes before and is `dir` on this one. From the origin itself
/// (`at` = 0) that is everything behind the hop.
pub(crate) fn ahead(at: [i64; 3], axis: usize, dir: i64) -> u32 {
    (0..27)
        .filter(|&i| {
            let d = bit_offset(i);
            (0..axis).all(|a| d[a] == at[a]) && d[axis] == dir
        })
        .fold(0, |mask, i| mask | 1 << i)
}

/// The destinations behind the first hop on the way to offset `d`.
pub(crate) fn behind_first_hop(d: [i64; 3]) -> u32 {
    let axis = (0..3)
        .find(|&a| d[a] != 0)
        .expect("an offset to another rank");
    ahead([0; 3], axis, d[axis])
}

/// The torus the ranks are laid out on (`Decomposition::rank_torus`):
/// its `[x, y, z]` sides, x fastest in the rank number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RankTorus(pub(crate) [usize; 3]);

impl RankTorus {
    fn coords(&self, rank: usize) -> [usize; 3] {
        let [x, y, _] = self.0;
        [rank % x, rank / x % y, rank / (x * y)]
    }

    /// The rank one step from `rank` along `axis` by `dir`.
    fn step(&self, rank: usize, axis: usize, dir: i64) -> usize {
        let mut c = self.coords(rank);
        let side = self.0[axis];
        c[axis] = (c[axis] as i64 + dir).rem_euclid(side as i64) as usize;
        (c[2] * self.0[1] + c[1]) * self.0[0] + c[0]
    }

    /// `to`'s offset from `from`, or `None` where it lies more than one
    /// torus step away on some axis. Along a side of 2 it is +1.
    pub(crate) fn offset(&self, from: usize, to: usize) -> Option<[i64; 3]> {
        let (a, b) = (self.coords(from), self.coords(to));
        let mut d = [0; 3];
        for axis in 0..3 {
            let side = self.0[axis];
            d[axis] = match (b[axis] + side - a[axis]) % side {
                0 => 0,
                1 => 1,
                s if s == side - 1 => -1,
                _ => return None,
            };
        }
        Some(d)
    }

    /// `rank`'s hops, stage by stage — x, then y, then z; along each axis
    /// of side 2 one hop, along each longer one two (−1, then +1), along
    /// a side of 1 none.
    fn hops(&self, rank: usize) -> Vec<Hop> {
        let mut hops = Vec::new();
        for axis in 0..3 {
            let dirs: &[i64] = match self.0[axis] {
                1 => &[],
                2 => &[1],
                _ => &[-1, 1],
            };
            for &dir in dirs {
                hops.push(Hop {
                    axis,
                    dir,
                    rank: self.step(rank, axis, dir),
                    behind: ahead([0; 3], axis, dir),
                });
            }
        }
        hops
    }
}

/// One hop of the staged exchange: a frame to the rank one torus step
/// away along `axis`, and one back from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hop {
    pub(crate) axis: usize,
    /// The way along it: +1 or −1.
    pub(crate) dir: i64,
    /// The rank at the other end.
    pub(crate) rank: usize,
    /// The destinations behind the hop, as offsets from this PE: what a
    /// section this PE originates for it may name.
    pub(crate) behind: u32,
}

/// A section this PE originates for its ghosts: the owned cells whose
/// destinations behind hop `hop` are exactly `mask`.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct SectionRoute {
    pub(super) mask: u32,
    pub(super) hop: usize,
    pub(super) route: Route,
}

/// One PE's neighbourhood, as its decomposition's answers imply it.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Topology {
    rank: usize,
    nc: usize,
    /// The z cells this PE owns of each of its columns.
    own_z: Range<usize>,
    /// The distinct ranks owning a cell adjacent to one of this PE's home
    /// cells, ascending. Fixed for the run: balancers only ever move
    /// cells between ranks that are neighbours already.
    neighbors: Vec<usize>,
    /// Each neighbour's bit in a section mask ([`dest_bit`]), parallel
    /// to `neighbors`.
    nbr_bits: Vec<u32>,
    /// The rank torus, and this PE's hops on it in the order the staged
    /// exchange takes them. Fixed for the run.
    torus: RankTorus,
    hops: Vec<Hop>,
    /// `ahead(at, hop)` for every offset `at` (by its bit index) and hop,
    /// `hops.len()` per offset: what a relay reads off a section's mask.
    onward: Vec<u32>,
    /// Whether a rebuild step is one exchange (see
    /// [`PeState::exchanges_once`]). Fixed for the run; a re-tile
    /// recomputes it on the new tiling and lands on the same answer.
    single_exchange: bool,
    /// True when the owned-column set, or the ownership of a column
    /// bordering it, changed since the caches below were rebuilt.
    dirty: bool,
    /// Per-neighbour ghost routing (parallel to `neighbors`): the runs of
    /// owned cells each neighbour needs as ghosts.
    ghost_routes: Vec<Route>,
    /// The same cells by section: each owned cell joins, for every hop,
    /// the section of the neighbours behind that hop that need it.
    /// Ascending by mask.
    sections: Vec<SectionRoute>,
    /// Home columns this PE sees — owned ∪ ghost, ascending. The force
    /// passes iterate this list; the ghost entries' keys double as the
    /// expected ghost-receive set.
    homes: Vec<Home>,
    /// Per-cell classes, `nc` per home column.
    cell_class: Vec<CellClass>,
}

impl Topology {
    /// The neighbour set of `rank` from the decomposition's starting
    /// state — every other rank owning a cell adjacent to one of its own —
    /// and the closure test: where ownership is `fixed` for the run, on
    /// that ownership; where the balancer moves it, on every ownership it
    /// can reach. The caches start dirty.
    pub(super) fn new(decomp: &dyn Decomposition, nc: usize, rank: usize, fixed: bool) -> Self {
        let own_z = decomp.z_extent(rank);
        let mut nbrs: BTreeSet<usize> = BTreeSet::new();
        // The foreign cells next to ours: the shell the closure test
        // looks out from.
        let mut shell: BTreeSet<(Col, usize, usize)> = BTreeSet::new();
        for col in all_columns(nc).filter(|&col| decomp.owner_of(col, own_z.start) == rank) {
            for span in owned_spans(nc, &own_z) {
                for (ncol, nspan, owner) in foreign_around(decomp, nc, rank, col, span) {
                    nbrs.insert(owner);
                    if fixed {
                        shell.insert((ncol, nspan.start, nspan.end));
                    }
                }
            }
        }
        let neighbors: Vec<usize> = nbrs.into_iter().collect();
        let torus = RankTorus(decomp.rank_torus());
        let hops = torus.hops(rank);
        let nbr_bits = neighbors
            .iter()
            .map(|&nb| match torus.offset(rank, nb) {
                Some(d) => dest_bit(d),
                None => panic!("rank {rank}: neighbour {nb} is more than one torus step away"),
            })
            .collect();
        // One exchange per rebuild step needs a neighbour set closed two
        // cells out: a particle leaving for a cell next to ours is
        // announced by us to every rank bordering that cell, so each of
        // those must be a neighbour — on the one ownership of the run, or
        // on every ownership the balancer can reach: no column this PE
        // may come to hold lies within two of one a stranger may hold.
        // (A shape that does not bound where its balancer takes a cell
        // keeps two rounds.)
        let single_exchange = if fixed {
            shell.iter().all(|&(col, z0, z1)| {
                foreign_around(decomp, nc, rank, col, z0..z1)
                    .all(|f| neighbors.binary_search(&f.2).is_ok())
            })
        } else {
            let reach: Option<Vec<[usize; 4]>> = all_columns(nc).map(|c| decomp.reach(c)).collect();
            own_z.len() == nc
                && reach.is_some_and(|reach| {
                    let holders = |c: Col| reach[c.cx * nc + c.cy];
                    let near = |r: usize| r == rank || neighbors.binary_search(&r).is_ok();
                    let strange = |&c: &Col| !holders(c).into_iter().all(near);
                    all_columns(nc).filter(strange).all(|col| {
                        let mut two_out = cells_around(nc, col, 0..nc)
                            .flat_map(|(c, _)| cells_around(nc, c, 0..nc));
                        two_out.all(|(c, _)| !holders(c).contains(&rank))
                    })
                })
        };
        Self {
            rank,
            nc,
            own_z,
            ghost_routes: vec![Vec::new(); neighbors.len()],
            sections: Vec::new(),
            neighbors,
            nbr_bits,
            onward: (0..27)
                .flat_map(|i| {
                    hops.iter()
                        .map(move |h| ahead(bit_offset(i), h.axis, h.dir))
                })
                .collect(),
            hops,
            torus,
            single_exchange,
            dirty: true,
            homes: Vec::new(),
            cell_class: Vec::new(),
        }
    }

    pub(super) fn rank(&self) -> usize {
        self.rank
    }

    pub(super) fn nc(&self) -> usize {
        self.nc
    }

    pub(super) fn own_z(&self) -> &Range<usize> {
        &self.own_z
    }

    pub(super) fn neighbors(&self) -> &[usize] {
        &self.neighbors
    }

    pub(super) fn exchanges_once(&self) -> bool {
        self.single_exchange
    }

    pub(super) fn ghost_routes(&self) -> &[Route] {
        &self.ghost_routes
    }

    pub(super) fn sections(&self) -> &[SectionRoute] {
        &self.sections
    }

    pub(super) fn torus(&self) -> &RankTorus {
        &self.torus
    }

    pub(super) fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// What this PE knows of the frame hop `h` brings it.
    pub(super) fn arrival(&self, h: usize) -> Arrival {
        let hop = &self.hops[h];
        Arrival::new(self.torus, hop.rank, self.rank, hop.axis)
    }

    /// Neighbour `i`'s bit in a section mask.
    pub(super) fn nbr_bit(&self, i: usize) -> u32 {
        self.nbr_bits[i]
    }

    /// Every neighbour's bit.
    pub(super) fn nbr_mask(&self) -> u32 {
        self.nbr_bits.iter().fold(0, |m, b| m | b)
    }

    /// The hop a section this PE originates with `mask` takes: the first
    /// axis, and the way along it, of the destinations it names.
    pub(super) fn hop_of(&self, mask: u32) -> usize {
        let d = bit_offset(mask.trailing_zeros());
        let behind = behind_first_hop(d);
        (self.hops.iter().position(|h| h.behind == behind))
            .unwrap_or_else(|| panic!("rank {}: no hop toward {d:?}", self.rank))
    }

    /// The hops from `from` on that a section of `mask` held here, at
    /// offset `at` from its origin, takes on: bit `j` for hop `from + j`.
    fn onward(&self, mask: u32, at: [i64; 3], from: usize) -> u32 {
        let n = self.hops.len();
        let row = dest_bit(at).trailing_zeros() as usize * n;
        let reach = &self.onward[row + from..row + n];
        (reach.iter().enumerate())
            .filter(|(_, &ahead)| mask & ahead != 0)
            .fold(0, |bits, (j, _)| bits | 1 << j)
    }

    /// Where a section from `origin` of `mask`, received before hop
    /// `later`, goes from here: whether this PE is one of its destinations,
    /// and the hops from `later` on it takes ([`Topology::onward`]).
    pub(super) fn passage(&self, origin: usize, mask: u32, later: usize) -> (bool, u32) {
        let at = self.offset_from(origin);
        let onward = self.onward(mask, at, later);
        let mine = mask & dest_bit(at) != 0;
        debug_assert!(
            mine || onward != 0,
            "rank {}: a section from {origin} for nobody here",
            self.rank
        );
        (mine, onward)
    }

    /// This PE's offset from `origin`, a neighbour or itself.
    fn offset_from(&self, origin: usize) -> [i64; 3] {
        (self.torus.offset(origin, self.rank))
            .unwrap_or_else(|| panic!("rank {}: a section from {origin}, no neighbour", self.rank))
    }

    pub(super) fn homes(&self) -> &[Home] {
        &self.homes
    }

    /// The classes of the `nc` cells of home column `hi`.
    pub(super) fn classes(&self, hi: usize) -> &[CellClass] {
        &self.cell_class[hi * self.nc..(hi + 1) * self.nc]
    }

    /// The index of `owner` in the neighbour list. Every cell a PE sends
    /// to, or holds a ghost of, is a neighbour's: anything else is a
    /// particle that crossed more than one cell in a step.
    pub(super) fn index_of(&self, owner: usize) -> usize {
        let lost = |_| {
            panic!(
                "rank {}: {owner} is no neighbour — time step too large?",
                self.rank
            )
        };
        self.neighbors.binary_search(&owner).unwrap_or_else(lost)
    }

    /// Ownership, or the owned-column set, changed: the caches are
    /// rebuilt at their next use.
    pub(super) fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Rebuild the ownership-derived caches if ownership (or the
    /// owned-column set, `owned`, ascending) changed: the per-cell
    /// classes, the per-neighbour ghost routes and the home-column list
    /// with its forward rings. Returns whether anything was rebuilt. Runs
    /// at startup and after a DLB transfer, never in the steady state.
    pub(super) fn refresh(
        &mut self,
        decomp: &dyn Decomposition,
        box_len: f64,
        owned: impl Iterator<Item = Col>,
    ) -> bool {
        if !std::mem::take(&mut self.dirty) {
            return false;
        }
        let (nc, rank) = (self.nc, self.rank);
        for r in &mut self.ghost_routes {
            r.clear();
        }
        self.sections.clear();
        // Classify every owned cell by who owns the cells around it, on a
        // scratch grid over the whole box (indexed like the cell grid).
        let mut grid = vec![CellClass::Unseen; nc * nc * nc];
        let column = |col: Col| (col.cx * nc + col.cy) * nc..(col.cx * nc + col.cy + 1) * nc;
        for col in owned {
            for span in owned_spans(nc, &self.own_z) {
                let mut dests = 0;
                for (ncol, nspan, owner) in foreign_around(decomp, nc, rank, col, span.clone()) {
                    grid[column(ncol)][nspan].fill(CellClass::Ghost);
                    let i = self.index_of(owner);
                    // Owned cells are visited in ascending (column, z)
                    // order, so the routes stay sorted.
                    push_run(&mut self.ghost_routes[i], col, span.clone());
                    dests |= self.nbr_bits[i];
                }
                for (hop, h) in self.hops.iter().enumerate() {
                    let mask = dests & h.behind;
                    if mask == 0 {
                        continue;
                    }
                    let at = match self.sections.binary_search_by_key(&mask, |s| s.mask) {
                        Ok(at) => at,
                        Err(at) => {
                            let route = Vec::new();
                            self.sections.insert(at, SectionRoute { mask, hop, route });
                            at
                        }
                    };
                    push_run(&mut self.sections[at].route, col, span.clone());
                }
                grid[column(col)][span].fill(CellClass::Owned);
            }
        }
        // The home list: every column with a cell this PE sees, ascending,
        // each with its forward cross-section columns resolved.
        self.homes.clear();
        self.cell_class.clear();
        for col in all_columns(nc) {
            let classes = &grid[column(col)];
            if classes.iter().any(|&c| c != CellClass::Unseen) {
                self.homes.push(Home {
                    col,
                    owned: classes.contains(&CellClass::Owned),
                    ghost: classes.contains(&CellClass::Ghost),
                    ring: [None; 5],
                });
                self.cell_class.extend_from_slice(classes);
            }
        }
        for hi in 0..self.homes.len() {
            let col = self.homes[hi].col;
            self.homes[hi].ring = std::array::from_fn(|g| {
                let (dx, dy) = FORWARD_XY[g];
                let (ncol, sx, sy) = wrap_col(nc, box_len, col, dx, dy);
                self.homes
                    .binary_search_by_key(&ncol, |h| h.col)
                    .ok()
                    .map(|ni| (ni, sx, sy))
            });
        }
        true
    }
}

impl PeState {
    /// Bring the ownership-derived caches up to date (see
    /// [`Topology::refresh`]) and keep the key sets that follow them —
    /// the ghost slabs' and the exchange staging's — equal to the
    /// expected receive set and the owned columns, preserving the
    /// allocations of surviving columns.
    pub(super) fn refresh_caches(&mut self) {
        let owned = self.columns.keys().copied();
        if !self.topology.refresh(&*self.decomp, self.box_len, owned) {
            return;
        }
        let nc = self.nc;
        let homes = self.topology.homes();
        let ghost_home = |c: &Col| {
            let at = homes.binary_search_by_key(c, |h| h.col);
            at.is_ok_and(|hi| homes[hi].ghost)
        };
        self.ghosts.retain(|c, _| ghost_home(c));
        for home in homes.iter().filter(|h| h.ghost) {
            self.ghosts
                .entry(home.col)
                .or_insert_with(|| CellSlab::empty(nc));
        }
        self.exchange.follow_keys(&self.columns, &self.ghosts);
    }

    /// The ranks this PE's staged exchange sends a frame to and receives
    /// one from, stage by stage: along each axis of the rank torus (x,
    /// then y, then z) the distinct ranks one step away.
    pub fn stages(&self) -> Vec<Vec<usize>> {
        let mut stages: Vec<Vec<usize>> = Vec::new();
        let mut axis = None;
        for hop in self.topology.hops() {
            if axis != Some(hop.axis) {
                stages.push(Vec::new());
                axis = Some(hop.axis);
            }
            stages.last_mut().expect("a stage per axis").push(hop.rank);
        }
        stages
    }

    /// Whether decision `d` can change what [`PeState::refresh_caches`]
    /// derives: this PE gives or takes the column, or the column touches
    /// one this PE owns (judged before the cells move — a column gained
    /// in the same step comes with a decision that names this PE).
    pub(super) fn redraws_caches(&self, d: &DlbDecision) -> bool {
        d.from == self.rank
            || d.to == self.rank
            || cells_around(self.nc, d.col, 0..self.nc).any(|(c, _)| self.columns.contains_key(&c))
    }
}

/// Append the run `(col, run)` to a route that is built in ascending
/// order: merged into the tail where it continues (or overlaps) it, so
/// the route stays sorted and free of repeats.
pub(super) fn push_run(route: &mut Route, col: Col, run: Range<usize>) {
    match route.last_mut() {
        Some((c, r)) if *c == col && r.end >= run.start => r.end = r.end.max(run.end),
        _ => route.push((col, run)),
    }
}

/// Every column of the `nc × nc` cross-section, ascending.
pub(crate) fn all_columns(nc: usize) -> impl Iterator<Item = Col> {
    (0..nc * nc).map(move |i| Col::new(i / nc, i % nc))
}

/// The spans in which a rank owning the z cells `own_z` of its columns
/// is classified: a z-invariant shape (it owns whole columns) settles a
/// column at once, any other goes cell by cell.
fn owned_spans(nc: usize, own_z: &Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let len = if *own_z == (0..nc) { nc } else { 1 };
    own_z.clone().step_by(len).map(move |z| z..z + len)
}

/// The cells around the owned span `(col, span)` that another rank owns,
/// as `(column, z span, owner)`: for a whole column its 8 cross-section
/// neighbours (whole columns too — ownership does not depend on z), for
/// a single cell its 26 periodic neighbours.
pub(super) fn foreign_around(
    decomp: &dyn Decomposition,
    nc: usize,
    rank: usize,
    col: Col,
    span: Range<usize>,
) -> impl Iterator<Item = (Col, Range<usize>, usize)> + '_ {
    cells_around(nc, col, span).filter_map(move |(ncol, nspan)| {
        let owner = decomp.owner_of(ncol, nspan.start);
        (owner != rank).then_some((ncol, nspan, owner))
    })
}

/// The span `(col, span)` and the spans around it, as `(column, z span)`:
/// a whole column and its 8 cross-section neighbours, or a single cell
/// and its 26 periodic neighbours.
pub(crate) fn cells_around(
    nc: usize,
    col: Col,
    span: Range<usize>,
) -> impl Iterator<Item = (Col, Range<usize>)> {
    let whole = span.len() == nc;
    let dzs: &[i64] = if whole { &[0] } else { &[-1, 0, 1] };
    (-1..=1)
        .flat_map(|dx| (-1..=1).map(move |dy| (dx, dy)))
        .flat_map(move |(dx, dy)| dzs.iter().map(move |&dz| (dx, dy, dz)))
        .map(move |(dx, dy, dz)| {
            let ncol = Col::new(wrap(nc, col.cx, dx).0, wrap(nc, col.cy, dy).0);
            let nspan = if whole {
                0..nc
            } else {
                let nz = wrap(nc, span.start, dz).0;
                nz..nz + 1
            };
            (ncol, nspan)
        })
}

/// One step `d ∈ {−1, 0, 1}` off coordinate `c` of a periodic axis of
/// `nc` cells: the cell it lands on and the box image it lands in (−1, 0
/// or 1 — times the box length, the periodic shift of that cell). No
/// division: the cube's scaffold asks this some 6000 times per rank, the
/// force walk twice per cell and step.
pub(super) fn wrap(nc: usize, c: usize, d: i64) -> (usize, f64) {
    match c as i64 + d {
        -1 => (nc - 1, -1.0),
        v if v == nc as i64 => (0, 1.0),
        v => (v as usize, 0.0),
    }
}

/// Canonical cross-section neighbour of a column with its periodic shift.
fn wrap_col(nc: usize, box_len: f64, c: Col, dx: i64, dy: i64) -> (Col, f64, f64) {
    let ((cx, ix), (cy, iy)) = (wrap(nc, c.cx, dx), wrap(nc, c.cy, dy));
    (Col::new(cx, cy), ix * box_len, iy * box_len)
}

#[cfg(test)]
impl Topology {
    /// The way to a two-round step where the closure test holds.
    pub(super) fn force_two_rounds(&mut self) {
        self.single_exchange = false;
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{fresh, shape_cfg};
    use super::*;
    use crate::config::RunConfig;
    use crate::decomp::decomposition;
    use pcdlb_domain::DomainShape;

    #[test]
    fn wrap_col_shifts_match_cell_grid_convention() {
        // nc = 4, L = 8: stepping off either edge wraps with ±L.
        let (c, sx, sy) = wrap_col(4, 8.0, Col::new(0, 3), -1, 1);
        assert_eq!(c, Col::new(3, 0));
        assert_eq!((sx, sy), (-8.0, 8.0));
        let (c2, sx2, sy2) = wrap_col(4, 8.0, Col::new(2, 2), 1, -1);
        assert_eq!(c2, Col::new(3, 1));
        assert_eq!((sx2, sy2), (0.0, 0.0));
    }

    #[test]
    fn wrap_z_is_periodic() {
        // Any axis, z included: the image times L = 12 is the shift.
        assert_eq!(wrap(6, 0, -1), (5, -1.0));
        assert_eq!(wrap(6, 5, 1), (0, 1.0));
        assert_eq!(wrap(6, 3, 1), (4, 0.0));
        assert_eq!(wrap(6, 3, 0), (3, 0.0));
    }

    #[test]
    fn neighbour_sets_follow_from_ownership() {
        // Pillar: exactly the distinct torus 8-neighbours — the set the
        // wire protocol has always used.
        let cfg = RunConfig::from_p_m_density(16, 2, 0.2);
        for rank in 0..16 {
            let pe = fresh(rank, &cfg, DomainShape::SquarePillar);
            assert_eq!(pe.neighbors(), cfg.torus().distinct_neighbors8(rank));
        }
        // Ring: two neighbours, one when they coincide. Cube: 7 distinct
        // ranks on the 2×2×2 torus, the full 26 from k = 3.
        let mut cfg = RunConfig::new(1000, 6, 3, 0.05);
        cfg.dlb = false;
        assert_eq!(fresh(1, &cfg, DomainShape::Plane).neighbors(), [0, 2]);
        cfg.p = 2;
        assert_eq!(fresh(0, &cfg, DomainShape::Plane).neighbors(), [1]);
        cfg.p = 8;
        assert_eq!(fresh(0, &cfg, DomainShape::Cube).neighbors().len(), 7);
        cfg.p = 27;
        assert_eq!(fresh(13, &cfg, DomainShape::Cube).neighbors().len(), 26);
    }

    #[test]
    fn decisions_that_touch_no_owned_column_leave_the_caches_as_they_are() {
        // 4×4 torus, m = 3: every first-step decision any PE can make,
        // heard by every PE it does not name. Wherever `redraws_caches`
        // says no, a forced rebuild on the updated ownership view must
        // reproduce the caches exactly.
        use pcdlb_core::protocol::DlbProtocol;
        use pcdlb_domain::{OwnershipMap, PillarLayout};
        let mut cfg = RunConfig::from_p_m_density(16, 3, 0.2);
        cfg.dlb = true;
        let layout = PillarLayout::new(cfg.nc, cfg.torus());
        let fresh_map = OwnershipMap::initial(layout);
        let decisions: Vec<DlbDecision> = (0..cfg.p)
            .flat_map(|from| {
                let proto = DlbProtocol::new(layout, from);
                let fresh_map = &fresh_map;
                (cfg.torus().distinct_neighbors8(from).into_iter())
                    .filter_map(move |to| proto.decide(fresh_map, to))
            })
            .collect();
        let (mut skipped, mut redrawn) = (0, 0);
        for rank in 0..cfg.p {
            for d in decisions.iter().filter(|d| d.from != rank && d.to != rank) {
                let mut pe = fresh(rank, &cfg, DomainShape::SquarePillar);
                pe.refresh_caches();
                let before = pe.topology.clone();
                let redraws = pe.redraws_caches(d);
                pe.decomp.apply(d);
                pe.topology.mark_dirty();
                pe.refresh_caches();
                if redraws {
                    redrawn += usize::from(pe.topology != before);
                } else {
                    assert!(pe.topology == before, "rank {rank} missed {d:?}");
                    skipped += 1;
                }
            }
        }
        assert!(
            skipped > 0 && redrawn > 0,
            "{skipped} skipped, {redrawn} redrawn"
        );
    }

    #[test]
    fn cube_classes_are_per_cell() {
        // k = 3, s = 2: a rank's own column holds its two block cells,
        // one ghost cell above and below, and two cells it never sees.
        let mut cfg = RunConfig::new(1000, 6, 27, 0.05);
        cfg.dlb = false;
        let mut pe = fresh(13, &cfg, DomainShape::Cube); // block (1,1,1)
        pe.refresh_caches();
        let homes = pe.topology.homes();
        let hi = homes
            .binary_search_by_key(&Col::new(2, 2), |h| h.col)
            .unwrap();
        assert!(homes[hi].owned && homes[hi].ghost);
        use CellClass::{Ghost, Owned, Unseen};
        assert_eq!(
            pe.topology.classes(hi),
            [Unseen, Ghost, Owned, Owned, Ghost, Unseen]
        );
        // The cube exchanges once per step; where the closure test fails
        // (one-cell blocks on a 4³ torus) the step keeps two rounds.
        // The shapes with a balancer do where it is switched off — a
        // tile or slab one cell wide fails the closure test from a torus
        // side of 4 up — and while it runs only on the 3 × 3 torus, where
        // every rank a column can reach neighbours every rank that can
        // hold it (the plane does not say where its boundaries can go).
        for (shape, p, nc, once) in [
            (DomainShape::Cube, 8, 20, true),
            (DomainShape::Cube, 8, 12, true),
            (DomainShape::Cube, 27, 3, true),
            (DomainShape::Cube, 64, 4, false),
            (DomainShape::Cube, 64, 8, true),
            (DomainShape::SquarePillar, 4, 6, true),
            (DomainShape::SquarePillar, 9, 6, true),
            (DomainShape::SquarePillar, 16, 8, true),
            (DomainShape::SquarePillar, 16, 4, false),
            (DomainShape::Plane, 3, 6, true),
            (DomainShape::Plane, 3, 3, true),
            (DomainShape::Plane, 4, 8, true),
            (DomainShape::Plane, 4, 4, false),
        ] {
            let mut cfg = RunConfig::new(1000, nc, p, 0.007);
            cfg.dlb = false;
            let pe = fresh(0, &cfg, shape);
            assert_eq!(pe.exchanges_once(), once, "{shape:?} P = {p} nc = {nc}");
            let can_balance = match shape {
                DomainShape::Cube => false,
                DomainShape::Plane => true,
                DomainShape::SquarePillar => p >= 9,
            };
            if can_balance {
                cfg.dlb = true;
                let once = shape == DomainShape::SquarePillar && p == 9;
                assert_eq!(
                    fresh(0, &cfg, shape).exchanges_once(),
                    once,
                    "{shape:?} P = {p}"
                );
            }
        }
    }

    #[test]
    fn a_bare_decomposition_yields_the_class_map_and_routes_a_pe_derives() {
        // No particles, no world, no PE: the neighbour set, the closure
        // test, the class map, the routes and the home list follow from
        // the decomposition's answers alone — for a cube rank, and for a
        // pillar rank that has just been handed a column.
        let gift = DlbDecision {
            col: Col::new(2, 2), // a movable column of rank 0's tile
            from: 0,
            to: 4,
        };
        for (shape, rank, decisions) in [
            (DomainShape::Cube, 5, vec![]),
            (DomainShape::SquarePillar, 4, vec![gift]),
        ] {
            let plan = crate::launch::LaunchPlan {
                decisions,
                ..Default::default()
            };
            let mut cfg = shape_cfg(shape);
            if shape == DomainShape::SquarePillar {
                cfg = RunConfig::from_p_m_density(9, 3, 0.05);
            }
            let mut decomp = decomposition(shape, rank, &cfg, None);
            for d in &plan.decisions {
                decomp.apply(d);
            }
            let fixed = !(decomp.has_balancer() && cfg.dlb);
            let mut bare = Topology::new(&*decomp, cfg.nc, rank, fixed);
            let z0 = bare.own_z().start;
            let owned = all_columns(cfg.nc).filter(|&c| decomp.owner_of(c, z0) == rank);
            assert!(bare.refresh(&*decomp, cfg.box_len(), owned));
            let placed = crate::launch::Placed::new(&cfg, &[]);
            let mut pe = PeState::new(rank, &cfg, shape, &placed, &plan);
            pe.refresh_caches();
            assert!(bare == pe.topology, "{shape:?}");
            let routed: usize = bare.ghost_routes().iter().map(Vec::len).sum();
            assert!(routed > 0 && !bare.homes().is_empty(), "{shape:?}");
            let gained = bare.homes().iter().any(|h| h.col == gift.col && h.owned);
            assert_eq!(gained, !plan.decisions.is_empty(), "{shape:?}");
        }
    }
}
