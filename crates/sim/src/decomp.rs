//! The decomposition seam: what genuinely differs between the paper's
//! three domain shapes (Sec. 2.2, Fig. 2), and nothing else.
//!
//! The step engine in [`crate::pe`] is one program for every shape. A
//! [`Decomposition`] tells it who owns each cell of the `nc³` grid, which
//! z cells a rank holds of each of its columns, and — when the shape has
//! a balancer — which cells to hand over. Neighbour sets, ghost routes,
//! cell classes, migration routing and everything downstream are derived
//! from those answers by the engine.
//!
//! The square pillar lives here; the plane ([`crate::plane`]) and the
//! cube ([`crate::cube`]) sit beside their public wrappers.

use std::ops::Range;

use pcdlb_core::permanent::is_permanent;
use pcdlb_core::protocol::{DlbDecision, DlbProtocol};
use pcdlb_domain::{Col, DomainShape, OwnershipMap, PillarLayout};
use pcdlb_mp::CostModel;

use crate::config::RunConfig;

/// One rank's view of who owns what, plus its shape's balancer rule.
pub(crate) trait Decomposition {
    /// The rank owning cell `(col, cz)` in this rank's current view.
    /// Exact for every cell this rank owns or borders; further away the
    /// answer is either exact or differs from this rank and all of its
    /// neighbours (which is what lets the engine's closure test trust
    /// every answer two cells out once none of them names a stranger).
    fn owner_of(&self, col: Col, cz: usize) -> usize;

    /// The z cells `rank` owns of every column it holds: all of them for
    /// the z-invariant shapes (plane, pillar), one block for the cube.
    fn z_extent(&self, rank: usize) -> Range<usize>;

    /// The torus the ranks are laid out on: its `[x, y, z]` sides, the
    /// rank number counting x fastest. A step's frames travel its axes one
    /// at a time ([`crate::pe`]'s staged exchange).
    fn rank_torus(&self) -> [usize; 3];

    /// The tile layout this view's homes are cut on, where the shape has
    /// one (the square pillar): what a checkpoint carries to rebuild it.
    fn tiling(&self) -> Option<PillarLayout> {
        None
    }

    /// Whether the shape implements the balancer hook below. Where it
    /// does not — or `cfg.dlb` leaves the hook idle — ownership cannot
    /// change, and migrants and ghosts share one exchange per rebuild
    /// step where the neighbour sets allow it (see [`crate::pe`]).
    fn has_balancer(&self) -> bool {
        false
    }

    /// The ranks that may ever own column `col` under the balancer — its
    /// home and every rank the balancer may hand it to, repeats allowed —
    /// or `None` where the shape does not bound them. Read once per run,
    /// by the closure test that lets a balancing run exchange once per
    /// rebuild step ([`crate::pe::PeState::exchanges_once`]).
    fn reach(&self, _col: Col) -> Option<[usize; 4]> {
        None
    }

    /// Balancer hook: what this rank gives away this step, judged from
    /// its own load and the loads it holds for its neighbours — called at
    /// the top of the step, before anything is sent. `weight(d)` is the
    /// load decision `d` would move, as it weighs on its receiver; a rule
    /// may read it for the candidates it considers. Shapes without a
    /// balancer never decide anything.
    fn decide(
        &self,
        _step: u64,
        _own_load: f64,
        _nbr_loads: &[(usize, f64)],
        _weight: &dyn Fn(&DlbDecision) -> f64,
    ) -> Option<DlbDecision> {
        None
    }

    /// Whether decisions `a` and `b` of one step cannot both stand — then
    /// neither does. Every PE decides on its own estimate of its
    /// neighbours' loads, so two neighbours may each take the other for
    /// the faster one; a shape whose granules cannot cross each other says
    /// so here. Both parties hear both decisions, so both drop them.
    fn excludes(&self, _a: &DlbDecision, _b: &DlbDecision) -> bool {
        false
    }

    /// Fold one decision — this rank's or a neighbour's — into the view.
    fn apply(&mut self, _d: &DlbDecision) {
        unreachable!("a shape without a balancer hears no decisions")
    }

    /// The columns a decision moves, ascending.
    fn granule(&self, d: &DlbDecision) -> Vec<Col> {
        vec![d.col]
    }
}

/// The decomposition of `shape` as `rank` sees it at the start of a run:
/// every cell at its home. `tiling` is where the square pillar's home
/// tiles are cut when the launch chose that ([`crate::launch`]); `None`,
/// and for the other shapes, it is the even assignment `cfg` implies.
pub(crate) fn decomposition(
    shape: DomainShape,
    rank: usize,
    cfg: &RunConfig,
    tiling: Option<&PillarLayout>,
) -> Box<dyn Decomposition> {
    match shape {
        DomainShape::SquarePillar => Box::new(Pillar::new(rank, cfg, tiling)),
        DomainShape::Plane => Box::new(crate::plane::Plane::new(rank, cfg)),
        DomainShape::Cube => Box::new(crate::cube::Cube::new(cfg)),
    }
}

/// The communication-cost model a shape's world runs under: the pillar
/// maps its 2-D torus onto the machine, ring and 3-D torus pay the flat
/// per-message cost.
pub(crate) fn cost_model(shape: DomainShape, cfg: &RunConfig) -> CostModel {
    CostModel::t3e((shape == DomainShape::SquarePillar).then(|| cfg.torus()))
}

/// Validate `cfg` for `shape` ([`RunConfig::check`]). Panics with a
/// description of the first violated constraint.
pub(crate) fn validate(cfg: &RunConfig, shape: DomainShape) {
    if let Err(e) = cfg.check(shape) {
        panic!("{e}");
    }
}

/// The square pillar (paper Fig. 2(b)): full-z columns, a home tile per
/// PE on a 2-D torus — `m × m` unless the launch cut them otherwise — and
/// the permanent-cell balancer moving single columns between torus
/// neighbours.
struct Pillar {
    layout: PillarLayout,
    rank: usize,
    /// This PE's (windowed) ownership view.
    ownership: OwnershipMap,
    protocol: Option<DlbProtocol>,
}

impl Pillar {
    fn new(rank: usize, cfg: &RunConfig, tiling: Option<&PillarLayout>) -> Self {
        let even = || PillarLayout::new(cfg.nc, cfg.torus());
        let layout = tiling.copied().unwrap_or_else(even);
        Self {
            layout,
            rank,
            ownership: OwnershipMap::initial(layout),
            protocol: cfg
                .dlb
                .then(|| DlbProtocol::new(layout, rank).with_min_relative_gain(cfg.dlb_min_gain)),
        }
    }

    /// True when `col`'s home tile lies in this PE's readable 3×3 tile
    /// window (own tile ± 1 in each torus direction).
    fn in_window(&self, col: Col) -> bool {
        let home = self.layout.home_rank(col);
        let (di, dj) = self.layout.tile_delta(self.rank, home);
        di.abs() <= 1 && dj.abs() <= 1
    }
}

impl Decomposition for Pillar {
    fn owner_of(&self, col: Col, _cz: usize) -> usize {
        self.ownership.owner_of(col)
    }

    fn z_extent(&self, _rank: usize) -> Range<usize> {
        0..self.layout.grid().nc()
    }

    /// The torus row-major: a tile row runs along x.
    fn rank_torus(&self) -> [usize; 3] {
        let torus = self.layout.torus();
        [torus.cols(), torus.rows(), 1]
    }

    fn tiling(&self) -> Option<PillarLayout> {
        Some(self.layout)
    }

    fn has_balancer(&self) -> bool {
        true
    }

    /// A permanent column stays at home; a movable one may also sit one
    /// tile NW, N or W of it (Case 1), and nowhere else.
    fn reach(&self, col: Col) -> Option<[usize; 4]> {
        let home = self.layout.home_rank(col);
        if is_permanent(&self.layout, col) {
            return Some([home; 4]);
        }
        let lent = |di, dj| self.layout.torus().neighbor(home, di, dj);
        Some([home, lent(-1, -1), lent(-1, 0), lent(0, -1)])
    }

    /// Paper Sec. 2.3, steps 2–3: offer a cell, by the Case 1–3 rules,
    /// to the fastest neighbour that may take one and stay below this PE
    /// — the one that evens the pair most.
    fn decide(
        &self,
        _step: u64,
        own_load: f64,
        nbr_loads: &[(usize, f64)],
        weight: &dyn Fn(&DlbDecision) -> f64,
    ) -> Option<DlbDecision> {
        let protocol = self.protocol.as_ref()?;
        let decision = protocol.choose(own_load, nbr_loads, &self.ownership, weight);
        if let Some(d) = &decision {
            debug_assert!(DlbProtocol::validate(&self.layout, &self.ownership, d).is_ok());
        }
        decision
    }

    /// The windowed view ignores decisions about unreadable columns.
    fn apply(&mut self, d: &DlbDecision) {
        if self.in_window(d.col) {
            self.ownership.set_owner(d.col, d.to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pillar_window_covers_exactly_the_3x3_tiles() {
        let cfg = RunConfig::from_p_m_density(16, 2, 0.2); // 4×4 torus
        let d = Pillar::new(5, &cfg, None); // tile (1,1)
        let l = d.layout;
        // A column in tile (1,1) and all 8 neighbouring tiles: in window.
        for (di, dj) in [(0i64, 0i64), (-1, 0), (1, 1), (0, -1)] {
            let rank = l.torus().rank_wrapped(1 + di, 1 + dj);
            assert!(
                d.in_window(l.tile_origin(rank)),
                "tile delta ({di},{dj}) should be in window"
            );
        }
        // Tile (3,3) is two steps away on a 4×4 torus: out of window.
        let far = l.tile_origin(l.torus().rank_wrapped(3, 3));
        assert!(!d.in_window(far));
    }

    #[test]
    fn every_shape_partitions_the_grid_among_its_ranks() {
        // owner_of is total over the cells a rank can be asked about, and
        // z_extent agrees with it: each rank owns exactly the z cells of
        // its columns that z_extent names.
        let mut cfg = RunConfig::new(1000, 6, 9, 0.05);
        cfg.dlb = false;
        for (shape, p) in [
            (DomainShape::SquarePillar, 9),
            (DomainShape::Plane, 3),
            (DomainShape::Cube, 27),
        ] {
            cfg.p = p;
            validate(&cfg, shape);
            let mut owned = 0usize;
            for rank in 0..p {
                let d = decomposition(shape, rank, &cfg, None);
                let z = d.z_extent(rank);
                for cx in 0..cfg.nc {
                    for cy in 0..cfg.nc {
                        for cz in 0..cfg.nc {
                            if d.owner_of(Col::new(cx, cy), cz) == rank {
                                assert!(z.contains(&cz), "{shape:?} rank {rank} cz {cz}");
                                owned += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(owned, cfg.total_cells(), "{shape:?}");
        }
    }
}
