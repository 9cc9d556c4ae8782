//! Plane-domain baseline: 1-D domain decomposition with a discrete
//! moving-boundary load balancer.
//!
//! This is the prior art the paper positions itself against (Sec. 1,
//! refs. \[4\] Brugé & Fornili and \[5\] Kohring): slice the box along one
//! axis into slabs of whole cell *planes*, connect the PEs as a ring, and
//! balance load by shifting slab boundaries one plane at a time toward
//! the more loaded side. It extends to 3-D trivially — but balances along
//! a single axis only and at whole-plane granularity, which is exactly
//! why the paper's 2-D-torus permanent-cell scheme wins on concentrated
//! loads (the `baseline1d` bench quantifies this).
//!
//! Only the shape lives here: PE `r` owns planes `[lo, hi)` of the `nc`
//! planes along x, and the balancer moves `lo`/`hi`. The step itself —
//! migration, ghost exchange, forces, skin epochs — is the shared engine
//! in [`crate::pe`], so this simulator is **bitwise identical** to the
//! serial reference like every other shape. Launch it with
//! [`Launch::shape`](crate::driver::Launch::shape).

use std::ops::Range;

use pcdlb_core::protocol::DlbDecision;
use pcdlb_domain::Col;

use crate::config::RunConfig;
use crate::decomp::Decomposition;

/// One ring PE's view: its own slab and as much of its two neighbours'
/// as it has heard of. `lo = 0` on rank 0 and `hi = nc` on rank `P − 1`
/// are fixed (the periodic seam); interior boundaries move.
pub(crate) struct Plane {
    rank: usize,
    p: usize,
    nc: usize,
    /// Owned plane range `[lo, hi)`; never empty.
    lo: usize,
    hi: usize,
    /// How many planes from `hi` up are known to be the next rank's, and
    /// from `lo − 1` down the previous rank's (at least one each: every PE
    /// keeps a plane). A neighbour's far boundary moves toward this PE only
    /// by a decision of the neighbour's own, which this PE hears; away
    /// from it by one it may not hear, which leaves the known planes the
    /// neighbour's.
    above: usize,
    below: usize,
    /// Whether the boundaries may move this run (`cfg.dlb`).
    balances: bool,
    min_gain: f64,
}

impl Plane {
    pub(crate) fn new(rank: usize, cfg: &RunConfig) -> Self {
        let (p, nc) = (cfg.p, cfg.nc);
        let width = |r: usize| (r + 1) * nc / p - r * nc / p;
        Self {
            rank,
            p,
            nc,
            lo: rank * nc / p,
            hi: (rank + 1) * nc / p,
            above: width((rank + 1) % p),
            below: width((rank + p - 1) % p),
            balances: cfg.dlb,
            min_gain: cfg.dlb_min_gain,
        }
    }

    fn prev(&self) -> usize {
        (self.rank + self.p - 1) % self.p
    }

    fn next(&self) -> usize {
        (self.rank + 1) % self.p
    }

    /// How far plane `cx` lies above `hi` (0 for plane `hi` itself).
    fn up(&self, cx: usize) -> usize {
        (cx + self.nc - self.hi % self.nc) % self.nc
    }

    /// How far plane `cx` lies below `lo` (0 for plane `lo − 1`).
    fn down(&self, cx: usize) -> usize {
        (self.lo + 2 * self.nc - 1 - cx) % self.nc
    }
}

impl Decomposition for Plane {
    /// Slabs are contiguous and every PE keeps at least one plane, so the
    /// plane below `lo` is always the previous rank's and the plane at
    /// `hi` the next rank's (wrapped at the seam); so are the neighbours'
    /// known planes beyond them — among them, on the rebuild step a plane
    /// this PE gave lands, the plane past it, where the plane's particles
    /// may have gone. Anything further away belongs to "someone beyond the
    /// ring neighbours" — unless the boundaries never move: then plane
    /// `cx` is still in the slab `[r·nc/P, (r + 1)·nc/P)` that `Plane::new`
    /// cut for rank `r`.
    fn owner_of(&self, col: Col, _cz: usize) -> usize {
        let cx = col.cx;
        if (self.lo..self.hi).contains(&cx) {
            self.rank
        } else if self.up(cx) < self.above {
            self.next()
        } else if self.down(cx) < self.below {
            self.prev()
        } else if self.balances {
            usize::MAX
        } else {
            ((cx + 1) * self.p - 1) / self.nc
        }
    }

    fn z_extent(&self, _rank: usize) -> Range<usize> {
        0..self.nc
    }

    fn has_balancer(&self) -> bool {
        true
    }

    /// The moving-boundary rule: the heavier side of an interior boundary
    /// sheds its edge plane to the lighter side, as long as it keeps one.
    /// Boundary `i` (between ranks `i − 1` and `i`) may move only on
    /// steps with `(i + step)` even — the classic trick that stops a
    /// one-plane PE from being squeezed from both sides in the same
    /// step, and here also what limits a rank to one decision per step.
    /// The rule reads weight only to refuse a plane this PE does not hold
    /// yet — its particles travel on the rebuild step it lands, so it
    /// weighs infinity until then (two rebuild steps of a skin epoch may
    /// lie an even number of steps apart). Otherwise a boundary moves
    /// whatever its plane weighs.
    fn decide(
        &self,
        step: u64,
        own_load: f64,
        nbr_loads: &[(usize, f64)],
        weight: &dyn Fn(&DlbDecision) -> f64,
    ) -> Option<DlbDecision> {
        if self.hi - self.lo < 2 {
            return None;
        }
        let sheds_to = |peer: usize| {
            let load = nbr_loads
                .iter()
                .find(|&&(r, _)| r == peer)
                .expect("ring neighbours report their load on balancing steps")
                .1;
            own_load > load * (1.0 + self.min_gain) && own_load > load
        };
        let active = |boundary: usize| (boundary as u64 + step).is_multiple_of(2);
        let (cx, to) = if self.rank > 0 && active(self.rank) {
            (self.lo, self.prev())
        } else if self.rank + 1 < self.p && active(self.rank + 1) {
            (self.hi - 1, self.next())
        } else {
            return None;
        };
        let d = DlbDecision {
            col: Col::new(cx, 0),
            from: self.rank,
            to,
        };
        (sheds_to(to) && weight(&d).is_finite()).then_some(d)
    }

    /// One boundary cannot move both ways in a step: two planes crossing
    /// it would leave both slabs in pieces.
    fn excludes(&self, a: &DlbDecision, b: &DlbDecision) -> bool {
        (a.from, a.to) == (b.to, b.from)
    }

    /// A decision names the plane by its x index (`col.cx`); moves of
    /// this rank's own two boundaries change its slab, a neighbour's
    /// shedding away from it what it knows of that neighbour's. Interior
    /// boundaries never cross the seam, so no wrap is needed.
    fn apply(&mut self, d: &DlbDecision) {
        let cx = d.col.cx;
        if d.from == self.rank {
            if cx == self.lo {
                (self.lo, self.below) = (self.lo + 1, self.below + 1);
            } else {
                (self.hi, self.above) = (self.hi - 1, self.above + 1);
            }
        } else if d.to == self.rank {
            if cx + 1 == self.lo {
                (self.lo, self.below) = (self.lo - 1, (self.below - 1).max(1));
            } else {
                (self.hi, self.above) = (self.hi + 1, (self.above - 1).max(1));
            }
        } else if d.from == self.next() {
            self.above = self.above.min(self.up(cx)).max(1);
        } else if d.from == self.prev() {
            self.below = self.below.min(self.down(cx)).max(1);
        }
    }

    fn granule(&self, d: &DlbDecision) -> Vec<Col> {
        (0..self.nc).map(|cy| Col::new(d.col.cx, cy)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(rank: usize, p: usize, nc: usize) -> Plane {
        let mut cfg = RunConfig::new(1000, nc, p, 0.05);
        cfg.dlb_min_gain = 0.0;
        Plane::new(rank, &cfg)
    }

    /// `pl`'s decision with every plane weighing more than any load: the
    /// moving-boundary rule does not weigh a plane it holds.
    fn shed(pl: &Plane, step: u64, own: f64, loads: &[(usize, f64)]) -> Option<DlbDecision> {
        pl.decide(step, own, loads, &|_| f64::MAX)
    }

    #[test]
    fn a_boundary_moves_on_alternate_steps_toward_the_lighter_side() {
        // Rank 1 of 3 over 6 planes owns [2, 4): boundary 1 below,
        // boundary 2 above.
        let pl = plane(1, 3, 6);
        let loads = [(0, 1.0), (2, 1.0)];
        // Step 1: boundary 1 is active (1 + 1 even) — shed plane 2 down.
        let d = shed(&pl, 1, 5.0, &loads).expect("heavier side sheds");
        assert_eq!((d.col.cx, d.from, d.to), (2, 1, 0));
        // Step 2: boundary 2 is active — shed plane 3 up.
        let d = shed(&pl, 2, 5.0, &loads).expect("heavier side sheds");
        assert_eq!((d.col.cx, d.from, d.to), (3, 1, 2));
        // The lighter side never sheds, nobody gives away its last plane,
        // and nobody a plane whose particles have not arrived.
        assert_eq!(shed(&pl, 1, 0.5, &loads), None);
        assert_eq!(shed(&plane(1, 6, 6), 1, 5.0, &loads), None);
        assert_eq!(pl.decide(1, 5.0, &loads, &|_| f64::INFINITY), None);
    }

    #[test]
    fn both_ends_of_a_transfer_move_the_same_boundary() {
        let mut giver = plane(1, 3, 6);
        let mut taker = plane(0, 3, 6);
        let mut bystander = plane(2, 3, 6);
        let d = shed(&giver, 1, 5.0, &[(0, 1.0), (2, 1.0)]).unwrap();
        for pl in [&mut giver, &mut taker, &mut bystander] {
            pl.apply(&d);
        }
        assert_eq!((giver.lo, giver.hi), (3, 4));
        assert_eq!((taker.lo, taker.hi), (0, 3));
        assert_eq!((bystander.lo, bystander.hi), (4, 6));
        // The moved plane's new owner, seen from both sides — and the
        // plane past it, where its particles may have gone, by the giver.
        assert_eq!(giver.owner_of(Col::new(2, 0), 0), 0);
        assert_eq!(giver.owner_of(Col::new(1, 0), 0), 0);
        assert_eq!(taker.owner_of(Col::new(2, 5), 0), 0);
        assert_eq!(giver.granule(&d).len(), 6);
        // A neighbour shedding away from this PE takes its plane out of
        // what this PE knows of it.
        let mut far = plane(0, 4, 8);
        assert_eq!(far.owner_of(Col::new(3, 0), 0), 1);
        far.apply(&DlbDecision {
            col: Col::new(3, 0),
            from: 1,
            to: 2,
        });
        assert_eq!(far.owner_of(Col::new(3, 0), 0), usize::MAX);
    }

    #[test]
    fn boundaries_that_never_move_name_every_plane_s_owner() {
        // With the balancer off a rank can say who owns any plane — what
        // the engine's closure test asks two cells out — and says what
        // the owner itself says.
        for (p, nc) in [(3, 6), (3, 8), (4, 9), (5, 5), (1, 4)] {
            let mut cfg = RunConfig::new(1000, nc, p, 0.05);
            cfg.dlb = false;
            for cx in 0..nc {
                let col = Col::new(cx, 0);
                let owners: Vec<usize> = (0..p)
                    .map(|rank| Plane::new(rank, &cfg).owner_of(col, 0))
                    .collect();
                let owner = owners[0];
                assert!(owners.iter().all(|&o| o == owner), "{p} {nc} {cx}");
                let slab = Plane::new(owner, &cfg);
                assert!((slab.lo..slab.hi).contains(&cx), "{p} {nc} {cx}");
            }
        }
        // While they may move, only the slab and the neighbours' are known.
        let pl = plane(0, 4, 8);
        assert_eq!(pl.owner_of(Col::new(4, 0), 0), usize::MAX);
    }

    #[test]
    fn one_boundary_moving_both_ways_is_excluded() {
        let pl = plane(1, 3, 6);
        let decision = |cx, from, to| DlbDecision {
            col: Col::new(cx, 0),
            from,
            to,
        };
        let (down, up) = (decision(2, 1, 0), decision(1, 0, 1));
        assert!(pl.excludes(&down, &up) && pl.excludes(&up, &down));
        // Another boundary, or the decision itself, is no clash.
        assert!(!pl.excludes(&down, &decision(3, 1, 2)));
        assert!(!pl.excludes(&down, &down));
    }

    #[test]
    fn ring_of_two_resolves_both_borders_to_the_one_peer() {
        let pl = plane(0, 2, 4); // owns [0, 2); planes 2 and 3 are rank 1's
        assert_eq!(pl.owner_of(Col::new(2, 0), 0), 1);
        assert_eq!(pl.owner_of(Col::new(3, 0), 0), 1);
        // The seam boundary never moves: rank 0 may only shed upward.
        assert_eq!(shed(&pl, 2, 5.0, &[(1, 1.0)]), None);
        let d = shed(&pl, 1, 5.0, &[(1, 1.0)]).unwrap();
        assert_eq!((d.col.cx, d.to), (1, 1));
    }
}
