//! Bounded search over reachable ownership states: the permanent-cell
//! invariant.
//!
//! The protocol's safety argument (paper Sec. 2.3) is that no sequence of
//! legal transfers can (a) move a permanent cell off its home PE, (b)
//! break the 8-neighbour adjacency of the domains, or (c) accumulate more
//! on one PE than its own tile plus the movable blocks of the tiles to
//! its S, E and SE (`m² + 3(m−1)²` columns where every tile is `m × m`).
//! This module checks that claim *exhaustively* on small grids:
//! breadth-first search over every ownership state reachable through
//! [`DlbProtocol::decide`], validating each generated decision and each
//! visited state.
//!
//! The argument does not need the tiles to be alike, and a balancing run
//! launches on tiles that are not (`pcdlb_sim::launch_plan` cuts them
//! where the load is). So beside the even `m × m` tiling of each grid the
//! sweep searches a handful of uneven cut sets of the same grid
//! ([`cut_sets`]): a tile row one column wide (all wall), both origins
//! shifted off the box corner so tiles wrap its edge, one tile as wide as
//! the grid allows. Everything here reaches the layout through its
//! methods — `check_state` reads each rank's limit off its own and its
//! neighbours' `tile_dims`.
//!
//! Simultaneous decisions in a real step touch disjoint columns (each
//! owner decides only about columns it owns, and ownership is unique in a
//! consistent view), so any state a multi-decision step reaches is also
//! reached by applying the decisions one at a time — singleton-step BFS
//! covers the full reachable set.
//!
//! The search is independent of *which* neighbour a PE picks: from every
//! state it expands `decide(&om, nb)` for **every** neighbour `nb` of
//! every PE, whatever the loads. The simulator's selection rule,
//! [`DlbProtocol::choose`] (offer to the fastest neighbour that may take
//! a cell and stay below the giver), only ever returns one of those
//! `decide` results, so every state reachable through `choose` — under
//! any load pattern and any column weights — lies inside the set searched
//! here; a unit test below asserts exactly that on BFS-visited states.
//!
//! The **launch plan** (`pcdlb_sim::launch_plan`) is one more source of
//! decision sequences: before a rank thread starts it iterates that same
//! `choose` on the exact loads of the initial condition. It has no rule
//! of its own to get wrong, but it does have a loop — which decisions of
//! one iteration stand together, which views hear them — so every
//! configuration swept here also replays the plans of a spread of
//! clustered starts ([`check_pillar_plan`]), each on the tiling its launch
//! chose: each planned transfer must validate against the map as it
//! stands and each state must hold the invariants — on tiles cut once
//! (none under two columns wide) and on the thinner tiles of a run that
//! re-tiles. A re-tiling run plans again at each of its checks, on the
//! work map the run measured: those plans are replayed too, from the
//! serial state before every check step of a clustered start
//! ([`replay_check_plans`]). The plane's plans are replayed on its slabs
//! ([`check_plane_plan`]): only a slab's edge plane may cross, only to
//! the neighbour across that edge, and nobody gives its last plane away.

use std::collections::BTreeSet;

use pcdlb_core::permanent::{is_permanent, max_columns};
use pcdlb_core::protocol::{DlbProtocol, ProtocolError};
use pcdlb_domain::{DomainShape, OwnershipMap, PillarLayout};
use pcdlb_mp::Torus2d;
use pcdlb_sim::pe::initial_particles;
use pcdlb_sim::{launch_plan, retile_plan, Lattice, Placed, RunConfig};

/// Search bounds.
#[derive(Debug, Clone, Copy)]
pub struct InvariantConfig {
    /// Largest torus side to sweep (sides 3..=max; DLB needs ≥ 3).
    pub max_side: usize,
    /// Largest tile side `m` to sweep (1..=max).
    pub max_m: usize,
    /// State-count cap per tiling searched (four per `(side, m)`
    /// configuration, see [`cut_sets`]); the reachable space is
    /// exponential in the movable-cell count, so larger configurations are
    /// explored up to this bound.
    pub max_states_per_config: usize,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        Self {
            max_side: 4,
            max_m: 3,
            max_states_per_config: 20_000,
        }
    }
}

/// What the search covered.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// `(side, m)` configurations swept.
    pub configs: usize,
    /// Tilings searched: each configuration's even one and its distinct
    /// uneven cut sets.
    pub tilings: usize,
    /// Total ownership states visited and checked.
    pub states_visited: usize,
    /// Tilings whose state space was truncated by the cap.
    pub truncated: usize,
    /// Launch plans replayed (pillar and plane).
    pub plans: usize,
    /// Pillar plans among them whose launch re-cut the tiles.
    pub recut_plans: usize,
    /// Transfers those plans made, each validated.
    pub planned_transfers: usize,
    /// Re-tile check plans replayed (pillar, one per check step).
    pub check_plans: usize,
}

/// Check one ownership state against the paper's invariants: the
/// structural checks of [`OwnershipMap::check_all`], permanent cells at
/// home, and the accumulation limit.
pub fn check_state(layout: &PillarLayout, om: &OwnershipMap) -> Result<(), String> {
    om.check_all()?;
    for col in layout.grid().iter() {
        if is_permanent(layout, col) && om.owner_of(col) != layout.home_rank(col) {
            return Err(format!(
                "permanent cell {col:?} moved from home {} to {}",
                layout.home_rank(col),
                om.owner_of(col)
            ));
        }
    }
    for r in 0..layout.num_ranks() {
        let (owned, limit) = (om.num_owned(r), max_columns(layout, r));
        if owned > limit {
            return Err(format!(
                "rank {r} owns {owned} columns, above the DLB limit {limit}"
            ));
        }
    }
    Ok(())
}

/// The tilings searched for one `(side, m)` grid of `side · m` columns:
/// the even one first, then the distinct ones among
///
/// - a first tile row one column wide — every column of it permanent —
///   the last row taking up the slack;
/// - both origins shifted off the box corner, one forward and one back,
///   so the last tile row and the last tile column wrap the box edge;
/// - one tile as wide as the grid allows, every other row and column one
///   wide.
///
/// (With `m = 1` the first and the last are the even tiling again.)
pub fn cut_sets(side: usize, m: usize) -> Vec<PillarLayout> {
    let nc = side * m;
    let starts = |widths: &[usize], origin: usize| -> Vec<usize> {
        let mut next = origin;
        let start = |w: &usize| {
            let at = next;
            next = (at + w) % nc;
            at
        };
        widths.iter().map(start).collect()
    };
    let even = vec![m; side];
    let mut thin = even.clone();
    (thin[0], thin[side - 1]) = (1, 2 * m - 1);
    let mut wide = vec![1; side];
    wide[0] = nc - (side - 1);
    let cuts = [
        (starts(&even, 0), starts(&even, 0)),
        (starts(&thin, 0), starts(&even, 0)),
        (starts(&even, 1), starts(&even, nc - 1)),
        (starts(&wide, 0), starts(&wide, 0)),
    ];
    let mut out: Vec<PillarLayout> = Vec::new();
    for (xs, ys) in cuts {
        let layout = PillarLayout::rectilinear(nc, Torus2d::new(side, side), &xs, &ys)
            .expect("widths of at least one column summing to the ring");
        if !out.contains(&layout) {
            out.push(layout);
        }
    }
    out
}

/// BFS over the states reachable on `layout` through `successors` (the
/// sweep passes [`transfers_from`]; a negative test, a mutant of it), at
/// most `cap` of them. Returns `(states visited, truncated?)`, or the
/// first invariant violation.
pub fn search_layout(
    layout: &PillarLayout,
    cap: usize,
    successors: impl Fn(&PillarLayout, &OwnershipMap) -> Vec<DlbDecision>,
) -> Result<(usize, bool), String> {
    let initial = OwnershipMap::initial(*layout);
    check_state(layout, &initial).map_err(|e| format!("{layout}: initial state: {e}"))?;
    let mut visited: BTreeSet<Vec<u16>> = BTreeSet::new();
    visited.insert(state_key(layout, &initial));
    let mut frontier = vec![initial];
    let mut truncated = false;
    'bfs: while let Some(om) = frontier.pop() {
        for d in successors(layout, &om) {
            // Every decision the protocol produces on a reachable
            // state must validate.
            if let Err(e) = DlbProtocol::validate(layout, &om, &d) {
                return Err(format!(
                    "{layout}: decide produced an illegal transfer: {e}"
                ));
            }
            let mut next = om.clone();
            DlbProtocol::apply(&mut next, &d);
            if !visited.insert(state_key(layout, &next)) {
                continue;
            }
            check_state(layout, &next)
                .map_err(|e| format!("{layout}: reachable state violates invariant: {e}"))?;
            if visited.len() >= cap {
                truncated = true;
                break 'bfs;
            }
            frontier.push(next);
        }
    }
    Ok((visited.len(), truncated))
}

/// A state's identity in the visited set: every column's owner, in grid
/// order.
fn state_key(layout: &PillarLayout, om: &OwnershipMap) -> Vec<u16> {
    layout
        .grid()
        .iter()
        .map(|c| om.owner_of(c) as u16)
        .collect()
}

/// The successors the search generates from `om`: what each PE would
/// send toward each of its neighbours, were that neighbour the receiver.
pub fn transfers_from(layout: &PillarLayout, om: &OwnershipMap) -> Vec<DlbDecision> {
    let torus = layout.torus();
    (0..layout.num_ranks())
        .flat_map(|r| {
            let proto = DlbProtocol::new(*layout, r);
            torus
                .distinct_neighbors8(r)
                .into_iter()
                .filter_map(move |nb| proto.decide(om, nb))
        })
        .collect()
}

/// Replay a pillar launch plan from the home tiles: every transfer must
/// validate against the ownership map as it stands, and every state the
/// plan passes through must hold the invariants. Returns the map the
/// plan ends on.
pub fn check_pillar_plan(
    layout: &PillarLayout,
    plan: &[DlbDecision],
) -> Result<OwnershipMap, String> {
    let mut om = OwnershipMap::initial(*layout);
    for (i, d) in plan.iter().enumerate() {
        DlbProtocol::validate(layout, &om, d)
            .map_err(|e| format!("planned transfer #{i} is illegal: {e}"))?;
        DlbProtocol::apply(&mut om, d);
        check_state(layout, &om)
            .map_err(|e| format!("planned transfer #{i} ({d:?}) breaks the state: {e}"))?;
    }
    Ok(om)
}

/// Replay a plane launch plan on the ring's slabs (`p` ranks over `nc`
/// planes): a transfer hands the giver's edge plane to the ring
/// neighbour across that edge — never across the periodic seam — and the
/// giver keeps at least one plane. Two planes crossing one boundary in
/// one iteration (what `excludes` rules out) fail here: after the first,
/// the second is no longer its giver's edge plane. Returns the slabs
/// `[lo, hi)` the plan ends on.
pub fn check_plane_plan(
    nc: usize,
    p: usize,
    plan: &[DlbDecision],
) -> Result<Vec<(usize, usize)>, String> {
    let mut slabs: Vec<(usize, usize)> = (0..p).map(|r| (r * nc / p, (r + 1) * nc / p)).collect();
    for (i, d) in plan.iter().enumerate() {
        let bad = |why: &str| Err(format!("planned transfer #{i} ({d:?}) {why}"));
        if d.from >= p || d.to >= p || d.from.abs_diff(d.to) != 1 {
            return bad("is not between ring neighbours off the seam");
        }
        let (lo, hi) = slabs[d.from];
        if hi - lo < 2 {
            return bad("takes its giver's last plane");
        }
        if d.to < d.from {
            if d.col.cx != lo {
                return bad("does not move the giver's lower edge plane");
            }
            slabs[d.from].0 += 1;
            slabs[d.to].1 += 1;
        } else {
            if d.col.cx + 1 != hi {
                return bad("does not move the giver's upper edge plane");
            }
            slabs[d.from].1 -= 1;
            slabs[d.to].0 -= 1;
        }
    }
    Ok(slabs)
}

/// The clustered starts whose plans are replayed: the gas squeezed into
/// the origin corner (a cube, over one tile or several) or against the
/// `y = 0` face (a slab across a torus row).
const PLANNED_STARTS: [Lattice; 6] = [
    Lattice::Cluster { fill: 0.2 },
    Lattice::Cluster { fill: 0.3 },
    Lattice::Cluster { fill: 0.45 },
    Lattice::Cluster { fill: 0.7 },
    Lattice::SlabY { fill: 0.25 },
    Lattice::SlabY { fill: 0.5 },
];

/// Plan every start of [`PLANNED_STARTS`] for `shape` on `cfg` — with the
/// paper's gate of 0 and with a hysteresis, for a run whose tiles are cut
/// once and for one that re-tiles (tiles down to one column wide: what
/// every re-tile of a run plans on, from the work map it measured) — and
/// replay the plans. Returns `(plans, plans on re-cut tiles, transfers)`.
fn replay_plans(shape: DomainShape, cfg: &RunConfig) -> Result<(usize, usize, usize), String> {
    let mut cfg = cfg.clone();
    cfg.dlb = true;
    let (mut plans, mut recut, mut transfers) = (0, 0, 0);
    // (The plane has no tiles to cut: one launch of each start.)
    let retiling: &[bool] = match shape {
        DomainShape::SquarePillar => &[false, true],
        _ => &[false],
    };
    for lattice in PLANNED_STARTS {
        for gain in [0.0, 0.05] {
            for &retiles in retiling {
                cfg.lattice = lattice;
                cfg.dlb_min_gain = gain;
                let work = Placed::new(&cfg, &initial_particles(&cfg)).column_work();
                let plan = launch_plan(shape, &cfg, 0, &work, retiles);
                let context = |e| {
                    format!(
                        "{} P = {}, nc = {}, {lattice:?}: {e}",
                        shape.name(),
                        cfg.p,
                        cfg.nc
                    )
                };
                match shape {
                    DomainShape::SquarePillar => {
                        let layout = plan.tiling();
                        check_pillar_plan(&layout, &plan.decisions).map_err(context)?;
                        recut += usize::from(!layout.is_even());
                    }
                    _ => {
                        check_plane_plan(cfg.nc, cfg.p, &plan.decisions).map_err(context)?;
                    }
                }
                plans += 1;
                transfers += plan.decisions.len();
            }
        }
    }
    Ok((plans, recut, transfers))
}

/// Replay the plans a re-tiling run of a clustered start on `cfg` makes at
/// its checks, sampled at doubling steps from the launch — steps 2, 4, 8,
/// … up to `steps`, the schedule of a run that never re-tiles (one that
/// does counts on from each re-tile, so these are a sample of the states
/// its checks plan on): the check's plan
/// (`retile_plan`: the launch plan, its tiling refined on its floor) on
/// the work map of the state the check sees — the serial state after the
/// step before (the run's, bit for bit). Every plan is replayed on the
/// tiling it chose ([`check_pillar_plan`]). Returns the number of plans.
pub fn replay_check_plans(cfg: &RunConfig, steps: u64) -> Result<usize, String> {
    let mut cfg = cfg.clone();
    cfg.dlb = true;
    cfg.lattice = Lattice::Cluster { fill: 0.45 };
    let mut serial = pcdlb_sim::serial_sim(&cfg);
    let mut plans = 0;
    let mut step = 2;
    while step <= steps {
        while serial.steps_done() < step - 1 {
            serial.step();
        }
        let work = Placed::new(&cfg, &serial.snapshot()).column_work();
        let plan = retile_plan(&cfg, step - 1, &work);
        check_pillar_plan(&plan.tiling(), &plan.decisions)
            .map_err(|e| format!("P = {}, nc = {}, check at step {step}: {e}", cfg.p, cfg.nc))?;
        plans += 1;
        step *= 2;
    }
    Ok(plans)
}

/// Sweep all `(side, m)` configurations within the bounds: the search
/// over reachable states on each of the grid's [`cut_sets`] and the
/// launch plans of the same grid, each on the tiling its launch chose —
/// and, per side, of the rings of that many ranks the plane balances.
pub fn verify_invariant(cfg: &InvariantConfig) -> Result<InvariantReport, String> {
    let mut report = InvariantReport::default();
    for side in 3..=cfg.max_side.max(3) {
        for m in 1..=cfg.max_m.max(1) {
            report.configs += 1;
            for layout in cut_sets(side, m) {
                let cap = cfg.max_states_per_config;
                let (states, truncated) = search_layout(&layout, cap, transfers_from)?;
                report.tilings += 1;
                report.states_visited += states;
                report.truncated += usize::from(truncated);
            }
            let checks = RunConfig::from_p_m_density(side * side, m, 0.128);
            report.check_plans += replay_check_plans(&checks, 32)?;
            // `m` planes per rank and one to spare on the ring.
            let nc = side * m + 1;
            let n = (0.128 * (2.56 * nc as f64).powi(3)).round() as usize;
            for (shape, run) in [
                (
                    DomainShape::SquarePillar,
                    RunConfig::from_p_m_density(side * side, m, 0.128),
                ),
                (DomainShape::Plane, RunConfig::new(n, nc, side, 0.128)),
            ] {
                let (plans, recut, transfers) = replay_plans(shape, &run)?;
                report.plans += plans;
                report.recut_plans += recut;
                report.planned_transfers += transfers;
            }
        }
    }
    Ok(report)
}

/// Re-export used by the negative tests to build illegal decisions.
pub use pcdlb_core::protocol::DlbDecision;

/// Convenience for tests: validate a decision and return the typed error.
pub fn validate_decision(
    layout: &PillarLayout,
    om: &OwnershipMap,
    d: &DlbDecision,
) -> Result<(), ProtocolError> {
    DlbProtocol::validate(layout, om, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_search_on_trivial_movable_space() {
        // m = 1: no movable cells, exactly one reachable state per grid.
        let r = verify_invariant(&InvariantConfig {
            max_side: 4,
            max_m: 1,
            max_states_per_config: 100,
        })
        .expect("invariant holds");
        // (Even, and the shifted origins; a one-column tile is already
        // as thin and as wide as its grid allows.)
        assert_eq!((r.configs, r.tilings), (2, 4));
        assert_eq!(r.states_visited, 4);
        assert_eq!(r.truncated, 0);
    }

    #[test]
    fn m2_state_space_is_explored_beyond_the_initial_state() {
        let r = verify_invariant(&InvariantConfig {
            max_side: 3,
            max_m: 2,
            max_states_per_config: 5_000,
        })
        .expect("invariant holds");
        // 9 movable columns, each at home or lent: much more than 1 state.
        assert!(r.states_visited > 100, "visited {}", r.states_visited);
    }

    #[test]
    fn every_choice_is_a_successor_the_search_generates() {
        // Walk the search's own state graph (3×3, m = 2, the first few
        // hundred states) and, on every state expanded, let every PE choose under
        // several load patterns and column weights — coarse ones, so ties,
        // blocked fastest neighbours and gated candidates are common.
        // Whatever `choose` returns must be one of the transfers the BFS
        // expands from that state.
        let layout = PillarLayout::from_p_and_m(9, 2);
        let p = layout.num_ranks();
        let mut visited = BTreeSet::new();
        let mut frontier = vec![OwnershipMap::initial(layout)];
        let mut lcg = 0x2545_f491_4f6c_dd1d_u64;
        let mut chosen = 0;
        for _ in 0..300 {
            let Some(om) = frontier.pop() else { break };
            let successors = transfers_from(&layout, &om);
            for _ in 0..4 {
                let mut coarse = || {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (lcg >> 61) as f64
                };
                let loads: Vec<f64> = (0..p).map(|_| coarse()).collect();
                let weights: Vec<f64> = layout.grid().iter().map(|_| coarse() / 2.0).collect();
                let weight = |d: &DlbDecision| weights[layout.grid().index(d.col)];
                for r in 0..p {
                    let nbrs: Vec<(usize, f64)> = layout
                        .torus()
                        .distinct_neighbors8(r)
                        .into_iter()
                        .map(|q| (q, loads[q]))
                        .collect();
                    let proto = DlbProtocol::new(layout, r);
                    if let Some(d) = proto.choose(loads[r], &nbrs, &om, weight) {
                        assert!(successors.contains(&d), "{d:?} not expanded from {om:?}");
                        chosen += 1;
                    }
                }
            }
            for d in successors {
                let mut next = om.clone();
                DlbProtocol::apply(&mut next, &d);
                if visited.insert(state_key(&layout, &next)) {
                    frontier.push(next);
                }
            }
        }
        assert!(chosen > 1000, "only {chosen} choices were checked");
    }

    #[test]
    fn cap_truncates_gracefully() {
        let r = verify_invariant(&InvariantConfig {
            max_side: 3,
            max_m: 3,
            max_states_per_config: 50,
        })
        .expect("invariant holds on the visited prefix");
        assert!(r.truncated > 0);
    }

    #[test]
    fn giveaway_state_fails_check() {
        // Force a permanent cell off its home: check_state must object.
        let layout = PillarLayout::from_p_and_m(9, 2);
        let mut om = OwnershipMap::initial(layout);
        let me = layout.torus().rank_wrapped(1, 1);
        let origin = layout.tile_origin(me);
        // (m−1, m−1) offset = the SE corner = permanent.
        let perm = pcdlb_domain::Col::new(origin.cx + 1, origin.cy + 1);
        assert!(is_permanent(&layout, perm));
        om.set_owner(perm, layout.torus().rank_wrapped(0, 1));
        let err = check_state(&layout, &om).expect_err("giveaway must be caught");
        assert!(
            err.contains("permanent") || err.contains("distance"),
            "{err}"
        );
    }
}
