//! What a launch works out before a rank thread starts, once per world:
//! where every particle lies ([`Placed`]), where the tiles of a balancing
//! square-pillar run are cut (`choose_tiling`), and where the balancer's
//! own rule takes the columns from there ([`launch_plan`]) — and, on the
//! same work map measured in the run, whether a re-tiling run moves its
//! tiles (`check`).
//!
//! Paper Sec. 2.3 moves one cell per PE per balancing step. That is all a
//! gas condensing over 10⁴ steps needs, but a run that *starts* unbalanced
//! — a clustered initial condition, an elastic generation reset to its
//! home tiles — would spend its first (m − 1)² steps at the unbalanced
//! step time shedding columns it could have started without. Under the
//! work model a column's load is an exact function of the cell
//! occupancies, and every rank's view of the decomposition can be built
//! without a rank, so the shape's balancer hook (`decomp::Decomposition`) is
//! simply run to its floor on the initial condition and the result
//! replayed into every rank's view like a checkpoint's ownership. Nothing
//! here sends a message, and nothing here is a second balancer: every
//! planned transfer is one the run's own `decide` returned on loads the
//! run would have measured, each candidate weighed as the run weighs it —
//! the exact work of the columns it moves, on the receiver. The plan and
//! the run apply one rule, so on the paper's scenario a planned run's
//! first step reads the plan's last peak.
//!
//! **The launch tiling.** The floor the plan reaches is set by the
//! permanent cells (paper Sec. 4): a tile's last row and column never
//! move, so on the even `m × m` tiling a cluster inside one tile leaves
//! its `2m − 1` wall columns, and the step, to one PE. But the wall
//! argument needs only that tile `(i, j)` borders the tiles
//! `(i ± 1, j ± 1)` — any rectilinear cut set does
//! (`pcdlb_domain::PillarLayout`, `pcdlb_core::permanent`). Ownership is
//! built from scratch here anyway, so here the cuts may be chosen — where
//! the plan on the paper's tiles ends with its heaviest PE down to its
//! permanent columns, the DLB limit reached before the first step — from
//! the same exact work map and the same load ruler the plan reads
//! (`Costs`), refined one axis at a time from the even tiling, each re-cut
//! exact, and kept only if the plan on it ends strictly lower
//! ([`launch_plan`]). How thin a tile may be depends on what can follow:
//! a run whose tiles are cut once ([`Launch::fixed_tiles`]) keeps a
//! movable column in every tile — no tile under two columns wide — so
//! the in-run balancer has something next to the load later; a run that
//! re-tiles as the load moves has a better answer for later, and its
//! tiles may be one column wide. The layout travels with the plan
//! ([`LaunchPlan::layout`]) into the launch's start
//! ([`crate::engine::Start`]) and every rank's view, into every
//! checkpoint (so a relaunch and a sentinel rollback rebuild the same home
//! tiles), through the elastic remap (which
//! launches each generation afresh from the drained particles) and into
//! `RunReport::tiling`. It is in no digest. A run that
//! does not balance, and one whose even plan leaves its heaviest PE
//! something to move, never enters the chooser and keeps the even tiling.
//!
//! **Re-tiling in the run.** The launch is check 0 of a re-tiling run:
//! 2, 4, 8, … steps after the tiling was last chosen — at the launch or
//! at the last re-tile — the run gathers the work map its last force pass
//! measured to rank 0, which calls [`launch_plan`] on it, refines the
//! tiling on the floor the plan reaches ([`retile_plan`]: steepest
//! descent over the tilings one cut away) and re-tiles in place iff the
//! modelled saving pays for the move (`check`). No constant: the horizon
//! is the past, the cost the world's own cost model.
//!
//! Launch-time code: it allocates freely and is called from the driver
//! ([`crate::driver`]), the elastic remap ([`crate::elastic`]) and rank
//! 0 of a check step only. There the refinement weighs 36 tilings per
//! descent step on the paper's scenario, but plans only those whose
//! permanent columns alone do not already reach the best floor found
//! (EXPERIMENTS.md, "A cheap re-tile search", has what a check costs).
//!
//! [`Launch::fixed_tiles`]: crate::driver::Launch::fixed_tiles

use std::collections::BTreeMap;
use std::ops::Range;

use pcdlb_core::permanent::is_permanent;
use pcdlb_core::protocol::{DlbDecision, DlbProtocol};
use pcdlb_domain::{Col, DomainShape, OwnershipMap, PillarLayout};
use pcdlb_md::cells::CellSlab;
use pcdlb_md::Vec3;
use pcdlb_md::{axis_bin, Particle};
use pcdlb_mp::wire::encoded_len;
use pcdlb_mp::{CostModel, Torus2d};

use crate::config::{LoadMetric, RunConfig, SpeedSchedule};
use crate::decomp::{decomposition, Decomposition};
use crate::pe::{all_columns, Held, Owners};

/// A world's particles placed in their cells, once per world: one
/// counting sort by (column, z cell), ids ascending inside a cell — the
/// order every column slab keeps, and the slab rebuild's own
/// ([`CellSlab::rebuild_from`]). The launch plan reads the occupancies
/// off it and every rank takes its columns' runs out of it, so nobody
/// bins the world a second time.
#[derive(Debug, Clone)]
pub struct Placed {
    nc: usize,
    /// Every particle, in (column, z cell, id) order; cell `(col, cz)` is
    /// cell `(col.cx · nc + col.cy) · nc + cz` of the slab.
    cells: CellSlab,
}

impl Placed {
    /// Place `particles` — any set, in any order — in `cfg`'s cell grid.
    pub fn new(cfg: &RunConfig, particles: &[Particle]) -> Self {
        let (nc, cell_len) = (cfg.nc, cfg.cell_len());
        let bin = |v: f64| axis_bin(v, cell_len, nc);
        let cell = |p: &Particle| (bin(p.pos.x) * nc + bin(p.pos.y)) * nc + bin(p.pos.z);
        let cells = CellSlab::build(nc * nc * nc, particles, cell);
        Self { nc, cells }
    }

    /// The particles in cells `z` of column `col`, in (z cell, id) order.
    pub(crate) fn column(&self, col: Col, z: Range<usize>) -> &[Particle] {
        let base = (col.cx * self.nc + col.cy) * self.nc;
        self.cells.run(base + z.start..base + z.end)
    }

    /// The work map: each column's full-shell candidate-pair count, in
    /// column index order (`cx · nc + cy`): `n · (Σ₂₇ n′ − 1)` summed over
    /// its cells — what the work model charges the column's owner for it,
    /// whoever that is (the `WorkCounters` definition), and what
    /// [`launch_plan`] plans on. The 3 × 3 × 3 sums run one periodic axis
    /// at a time.
    pub fn column_work(&self) -> Vec<u64> {
        let nc = self.nc;
        let occupancy: Vec<u64> = (0..self.cells.n_cells())
            .map(|cell| self.cells.range(cell).len() as u64)
            .collect();
        let mut around = occupancy.clone();
        for stride in [1, nc, nc * nc] {
            let prev = around.clone();
            for (i, sum) in around.iter_mut().enumerate() {
                let at = i / stride % nc;
                let shifted = |d: usize| i - at * stride + (at + d) % nc * stride;
                *sum += prev[shifted(1)] + prev[shifted(nc - 1)];
            }
        }
        let column = |(n, around): (&[u64], &[u64])| {
            let cell = |(&n, &around): (&u64, &u64)| n * around.saturating_sub(1);
            n.iter().zip(around).map(cell).sum()
        };
        occupancy
            .chunks(nc)
            .zip(around.chunks(nc))
            .map(column)
            .collect()
    }
}

/// Where a run launches: the tiling its home tiles are cut on and the
/// transfers its balancer's own rule makes from there on the initial
/// condition's exact work map, before a rank thread starts (see
/// [`launch_plan`]). No transfers for a run that does not balance. (Whether
/// its rebuild steps are single exchanges is a fact of the world, not of
/// the plan: [`crate::pe::exchanges_once`].)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaunchPlan {
    /// The tiling a square-pillar run launches on; `None` for the other
    /// shapes (and in a default plan: the even tiling, as
    /// `decomp::decomposition` reads it).
    pub layout: Option<PillarLayout>,
    /// Every planned transfer in the order it is applied: iteration by
    /// iteration, ascending `from` inside one.
    pub decisions: Vec<DlbDecision>,
    /// Where each applied iteration's transfers end in `decisions`.
    pub round_ends: Vec<usize>,
    /// The largest per-rank load before the first iteration and after
    /// each applied one: strictly decreasing.
    pub peaks: Vec<f64>,
    /// The per-rank loads the plan ends on, in the unit the balancer
    /// decides in — what the launch's first force pass measures, and so
    /// what every rank's balancer starts from: no rank announces its load
    /// before the first step. Empty for a run that does not balance.
    pub loads: Vec<f64>,
}

impl LaunchPlan {
    /// A launch of `cfg` on `shape` with nothing planned — what
    /// [`launch_plan`] makes of a run that does not balance: the even home
    /// tiles and no transfers; where the run balances, the loads the home
    /// tiles carry on the work map `work`
    /// ([`Placed::column_work`]), which every rank starts from.
    pub fn unplanned(shape: DomainShape, cfg: &RunConfig, work: &[u64]) -> Self {
        let pillar = shape == DomainShape::SquarePillar;
        let layout = pillar.then(|| PillarLayout::new(cfg.nc, cfg.torus()));
        let home = |rank| decomposition(shape, rank, cfg, layout.as_ref());
        let views = cfg.dlb.then(|| (0..cfg.p).map(home).collect::<Vec<_>>());
        let loads = match views.filter(|views| views[0].has_balancer()) {
            Some(views) => Costs::new(cfg, 0, work).loads_under(&owners(&views, cfg.nc), cfg.p),
            None => Vec::new(),
        };
        Self {
            layout,
            loads,
            ..Self::default()
        }
    }

    /// The transfers of each applied iteration, in order.
    pub fn rounds(&self) -> impl Iterator<Item = &[DlbDecision]> {
        let starts = std::iter::once(&0).chain(&self.round_ends);
        starts
            .zip(&self.round_ends)
            .map(|(&from, &to)| &self.decisions[from..to])
    }

    /// The tiling of a square-pillar launch's plan.
    pub fn tiling(&self) -> PillarLayout {
        self.layout
            .expect("the launch plan of a square-pillar run names its tiling")
    }

    /// The largest per-rank load the plan ends on: what the run starts on.
    fn floor(&self) -> f64 {
        let last = self.peaks.last();
        *last.expect("a balancing plan has a first peak")
    }

    /// Who owns each column when a square-pillar plan ends: its tiling's
    /// home tiles, every planned transfer applied.
    fn ownership(&self) -> OwnershipMap {
        let mut map = OwnershipMap::initial(self.tiling());
        for d in &self.decisions {
            DlbProtocol::apply(&mut map, d);
        }
        map
    }
}

/// An exact work map and what a share of it costs a rank: the one ruler
/// the launch tiling, the launch plan and the re-tile check are read off.
struct Costs<'a> {
    nc: usize,
    /// [`Placed::column_work`], in column index order.
    work: &'a [u64],
    /// Seconds per candidate pair.
    unit: f64,
    /// The processor speeds, where the run balances time, at `step` — the
    /// step whose force pass the launch repeats.
    speeds: Option<&'a SpeedSchedule>,
    step: u64,
}

impl<'a> Costs<'a> {
    fn new(cfg: &'a RunConfig, step: u64, work: &'a [u64]) -> Self {
        assert_eq!(work.len(), cfg.nc * cfg.nc, "one work entry per column");
        let LoadMetric::WorkModel { sec_per_pair } = cfg.load_metric;
        Self {
            nc: cfg.nc,
            work,
            unit: sec_per_pair,
            speeds: cfg.speed.as_ref().filter(|_| cfg.speed_aware),
            step,
        }
    }

    /// What `checks` candidate pairs cost `rank`, in the unit the
    /// balancer decides in.
    fn load(&self, rank: usize, checks: u64) -> f64 {
        let raw = checks as f64 * self.unit;
        self.speeds.map_or(raw, |s| raw / s.speed(rank, self.step))
    }

    /// The `p` ranks' loads under the column → owner map `owner`.
    fn loads_under(&self, owner: &[usize], p: usize) -> Vec<f64> {
        let mut checks = vec![0u64; p];
        for (&rank, &w) in owner.iter().zip(self.work) {
            checks[rank] += w;
        }
        let load = |(rank, &checks)| self.load(rank, checks);
        checks.iter().enumerate().map(load).collect()
    }

    /// The wall bound of `layout`: the largest per-rank load of the
    /// permanent columns of its home tiles. A permanent column never leaves
    /// its home (paper Sec. 4), so no plan on `layout` ends below it.
    fn wall_bound(&self, layout: &PillarLayout) -> f64 {
        let mut checks = vec![0u64; layout.num_ranks()];
        for (col, &w) in all_columns(self.nc).zip(self.work) {
            if is_permanent(layout, col) {
                checks[layout.home_rank(col)] += w;
            }
        }
        let load = |(rank, &checks)| self.load(rank, checks);
        checks.iter().enumerate().map(load).fold(0.0, f64::max)
    }
}

fn peak(loads: &[f64]) -> f64 {
    loads.iter().copied().fold(0.0, f64::max)
}

/// Cut the tiles where the load is: the rectilinear tiling a balancing
/// square-pillar run may launch on ([`launch_plan`] decides whether it
/// does). The permanent wall of a tile is its last row and column, so on
/// the even `m × m` tiling a cluster inside one tile leaves that tile's
/// `2m − 1` wall columns — and the whole step — to one PE whatever the
/// balancer does. Where the walls stand is free, though
/// (`pcdlb_core::permanent`): any cut set keeps the 8-neighbour torus. So
/// from the same work map and the same load ruler as the plan, the cuts
/// are refined one axis at a time from the even tiling (Nicol's iterative
/// refinement for rectilinear partitioning): with the other axis' strips
/// fixed, the periodic cut of this axis with the smallest largest tile
/// load is found exactly ([`recut`]); a re-cut is kept only if it
/// *strictly* lowers the largest load, and the refinement stops when
/// neither axis does — so an even work map keeps the even tiling (whose
/// largest load, `even_peak`, the even plan has read already). Where
/// the tiles are cut once (`retiles` off) every tile stays at least two
/// columns wide, the paper's smallest `m`: a tile one column wide is all
/// wall, and a launch that cut the load into such tiles would leave the
/// run's balancer nothing to move next to it. A run that re-tiles as the
/// load moves cuts them as thin as one column. No parameter; pure in
/// `cfg` and the work map.
fn choose_tiling(cfg: &RunConfig, costs: &Costs, even_peak: f64, retiles: bool) -> PillarLayout {
    let (nc, torus) = (cfg.nc, cfg.torus());
    // Fixed tiles keep a movable column each (`m = 1` has none to keep).
    let min_width = if retiles { 1 } else { 2.min(nc / torus.rows()) };
    let even = PillarLayout::new(nc, torus);
    let mut best = even_peak;
    let mut cuts = [even.xs(), even.ys()];
    // An axis is settled when no re-cut of it lowers the largest load with
    // the other where it stands: after a failed attempt, or its own re-cut.
    let (mut axis, mut settled) = (0, 0);
    while settled < 2 {
        settled += 1;
        if let Some((starts, lower)) = recut(costs, torus, axis, &cuts[1 - axis], best, min_width) {
            (cuts[axis], best, settled) = (starts, lower, 1);
        }
        axis = 1 - axis;
    }
    PillarLayout::rectilinear(nc, torus, &cuts[0], &cuts[1])
        .expect("a re-cut starts every tile at a distinct point of the ring")
}

/// The best periodic cut of one axis with the other axis' strips fixed at
/// `strips` (their starts): the starts of this axis' tiles whose largest
/// tile load is smallest among the cuts that leave every tile `min_width`
/// coordinates or more, and that load — if it is below `bound`. Tile
/// `k` of axis 0 is torus row `k`, of axis 1 torus column `k`. A ring has
/// no first coordinate, so tile 0 may start anywhere (and with processor
/// speeds in the ruler it matters which tile gets which interval): every
/// origin is tried, from each a dynamic programme over "the first `k`
/// tiles cover the first `e` coordinates", tile loads read off per-strip
/// prefix sums once per recut. A tile only gets heavier as it grows, so
/// an interval is abandoned as soon as it reaches the best load known.
fn recut(
    costs: &Costs,
    torus: Torus2d,
    axis: usize,
    strips: &[usize],
    bound: f64,
    min_width: usize,
) -> Option<(Vec<usize>, f64)> {
    let (nc, side, w) = (costs.nc, strips.len(), min_width);
    // Per strip, the work of its columns at each coordinate of this axis,
    // summed from coordinate 0 twice round the ring.
    let prefix: Vec<Vec<u64>> = (0..side)
        .map(|t| {
            let width = (strips[(t + 1) % side] + nc - strips[t] - 1) % nc + 1;
            let at = |c: usize| -> u64 {
                (0..width)
                    .map(|d| (strips[t] + d) % nc)
                    .map(|o| costs.work[if axis == 0 { c * nc + o } else { o * nc + c }])
                    .sum()
            };
            let ring: Vec<u64> = (0..nc).map(at).collect();
            let mut sums = vec![0u64; 2 * nc + 1];
            for (c, w) in ring.iter().chain(&ring).enumerate() {
                sums[c + 1] = sums[c] + w;
            }
            sums
        })
        .collect();
    // `spans[k][a][len − w]`: the heaviest tile of tile row (column) `k`
    // when it covers the `len ≥ w` coordinates from `a` — for as long as
    // that stays below `bound`: a tile only gets heavier as it grows.
    let heaviest = |k: usize, a: usize, len: usize| {
        let tile = |t: usize| {
            let (i, j) = if axis == 0 { (k, t) } else { (t, k) };
            let rank = torus.rank_wrapped(i as i64, j as i64);
            costs.load(rank, prefix[t][a + len] - prefix[t][a])
        };
        (0..side).map(tile).fold(0.0, f64::max)
    };
    // (Without processor speeds in the ruler every `k` reads alike.)
    let kinds = if costs.speeds.is_some() { side } else { 1 };
    let spans: Vec<Vec<Vec<f64>>> = (0..kinds)
        .map(|k| {
            let from = |a| (w..=nc - (side - 1) * w).map(move |len| heaviest(k, a, len));
            (0..nc)
                .map(|a| from(a).take_while(|&load| load < bound).collect())
                .collect()
        })
        .collect();
    let mut best = (Vec::new(), bound);
    // `least[k][e]`: the smallest largest load of the first `k` tiles
    // covering the `e` coordinates from the origin; `from[k][e]`: where
    // the last of them starts.
    let mut least = vec![vec![f64::INFINITY; nc + 1]; side + 1];
    let mut from = vec![vec![0usize; nc + 1]; side + 1];
    for origin in 0..nc {
        for row in &mut least {
            row.fill(f64::INFINITY);
        }
        least[0][0] = 0.0;
        for k in 1..=side {
            // Every tile, before and after, is at least `w` wide.
            for e in k * w..=nc - (side - k) * w {
                for s in ((k - 1) * w..=e - w).rev() {
                    let span = &spans[(k - 1) % kinds][(origin + s) % nc];
                    let Some(&load) = span.get(e - s - w).filter(|&&load| load < best.1) else {
                        break;
                    };
                    let largest = load.max(least[k - 1][s]);
                    if largest < least[k][e] {
                        (least[k][e], from[k][e]) = (largest, s);
                    }
                }
            }
        }
        if least[side][nc] < best.1 {
            let mut starts = vec![0; side];
            let mut e = nc;
            for k in (1..=side).rev() {
                e = from[k][e];
                starts[k - 1] = (origin + e) % nc;
            }
            best = (starts, least[side][nc]);
        }
    }
    (best.1 < bound).then_some(best)
}

/// Where a run of `cfg` launches on the work map `work`
/// ([`Placed::column_work`] of its particles, in column index order):
/// `shape`'s balancer run to its floor (`plan_on`) from its home cells —
/// for the square pillar, from the paper's even tiles unless two things the
/// launch can read off its own plans both hold:
///
/// 1. **The even plan ends at the DLB limit** (`at_the_wall`, paper
///    Sec. 4): a PE carrying the largest load owns nothing but permanent
///    columns, so no transfer — planned or in the run — can lower that
///    load; only moving the wall can. A gas that fills its box never gets
///    there (its heaviest PE keeps movable columns and the balancer keeps
///    working on it), so it keeps the paper's tiles and the chooser is
///    never run.
/// 2. **The plan on the re-cut tiling (`choose_tiling`) ends strictly
///    lower.** The cut lowers the largest load *before* the plan; what the
///    run starts on is the largest load after it.
///
/// So a launch never starts above where the even tiling would have put it.
/// `retiles` says whether the run re-tiles in place later (every launch
/// but a [`Launch::fixed_tiles`] one's): then the cut may leave a tile one
/// column wide. No constant, and no option of the run is read for it. A
/// run that does not balance plans nothing and keeps the even tiling.
/// Pure in `cfg` and the work map; `step` is the step whose force pass
/// measured it (the processor speeds of that step weigh it).
///
/// [`Launch::fixed_tiles`]: crate::driver::Launch::fixed_tiles
pub fn launch_plan(
    shape: DomainShape,
    cfg: &RunConfig,
    step: u64,
    work: &[u64],
    retiles: bool,
) -> LaunchPlan {
    if !cfg.dlb {
        return LaunchPlan::unplanned(shape, cfg, work);
    }
    let pillar = shape == DomainShape::SquarePillar;
    let even = pillar.then(|| PillarLayout::new(cfg.nc, cfg.torus()));
    let costs = Costs::new(cfg, step, work);
    let mut plan = plan_on(shape, cfg, &costs, even);
    if pillar && at_the_wall(&plan) {
        let cut = choose_tiling(cfg, &costs, plan.peaks[0], retiles);
        let recut = (Some(cut) != even).then(|| plan_on(shape, cfg, &costs, Some(cut)));
        if let Some(lower) = recut.filter(|recut| recut.floor() < plan.floor()) {
            plan = lower;
        }
    }
    plan
}

/// Whether a square-pillar `plan` ends at the paper's DLB limit: a PE
/// carrying the largest load owns nothing but permanent columns — it has
/// shed its movable block and holds no borrowed column it could return.
fn at_the_wall(plan: &LaunchPlan) -> bool {
    let (layout, map) = (plan.tiling(), plan.ownership());
    let walled = |rank: usize| {
        let owned = map.owned_columns(rank);
        owned.iter().all(|&col| is_permanent(&layout, col))
    };
    (0..plan.loads.len()).any(|rank| plan.loads[rank] == plan.floor() && walled(rank))
}

/// [`launch_plan`] on a tiling of the caller's choice, whatever the
/// chooser would have said: how the tests and the example read what
/// choosing bought. Panics on a run that does not balance: it plans
/// nothing and launches on the even tiling only (the one its closure
/// answer is asked on, [`crate::pe::exchanges_once`]), so no run could
/// start from a plan on another.
#[doc(hidden)]
pub fn launch_plan_on(
    layout: PillarLayout,
    cfg: &RunConfig,
    step: u64,
    work: &[u64],
) -> LaunchPlan {
    assert!(
        cfg.dlb,
        "launch_plan_on plans a balancing run; one that does not balance keeps the even tiling"
    );
    let costs = Costs::new(cfg, step, work);
    plan_on(DomainShape::SquarePillar, cfg, &costs, Some(layout))
}

/// A re-tile, as [`check`] decides it and every rank applies it: the new
/// tiling, the ownership planned on it, and the columns that change hands
/// to get there.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Retile {
    /// The tiling the run continues on.
    pub(crate) tiling: PillarLayout,
    /// The launch plan's transfers on it, in order: with the tiling, every
    /// rank's view of the new ownership.
    pub(crate) decisions: Vec<DlbDecision>,
    /// The plan's per-rank loads, in the unit the balancer decides in:
    /// what each rank's neighbours hold for it from here.
    pub(crate) loads: Vec<f64>,
    /// Every column whose owner changes, ascending: `from` its owner at the
    /// check, `to` its owner under the plan.
    pub(crate) moves: Vec<DlbDecision>,
}

/// A re-tile as it travels: the cut starts of both axes of its tiling,
/// then the three lists.
pub(crate) type RetileWire = (
    (Vec<usize>, Vec<usize>),
    Vec<DlbDecision>,
    Vec<f64>,
    Vec<DlbDecision>,
);

impl Retile {
    /// What travels of it.
    pub(crate) fn into_wire(self) -> RetileWire {
        let cuts = (self.tiling.xs(), self.tiling.ys());
        (cuts, self.decisions, self.loads, self.moves)
    }

    /// The re-tile that travelled as `wire`, its cuts laid on the grid and
    /// torus of `on`; an error names the rule the cuts break.
    pub(crate) fn from_wire(wire: RetileWire, on: PillarLayout) -> Result<Self, String> {
        let ((xs, ys), decisions, loads, moves) = wire;
        Ok(Self {
            tiling: PillarLayout::rectilinear(on.grid().nc(), on.torus(), &xs, &ys)?,
            decisions,
            loads,
            moves,
        })
    }
}

/// The bytes of the message that moves `n` particles of a re-tile, as
/// the codec writes it.
fn xfer_bytes(n: usize) -> usize {
    let particle = encoded_len(&Particle::at_rest(0, Vec3::ZERO));
    encoded_len(&Vec::<Particle>::new()) + n * particle
}

/// The plan a re-tile check of a run of `cfg` makes on the work map `work`
/// its step-`step` force pass measured: the launch's own plan
/// ([`launch_plan`] — the launch is check 0), its tiling then refined on
/// the plan's floor by steepest descent. The chooser cuts the tiles so the
/// heaviest is as light as it can be *before* the plan; what the run gets
/// is the floor the plan reaches *after* it. So every tiling one cut away —
/// one cut of one axis moved to any other position that leaves both tiles
/// beside it a column or more — is planned, the one whose plan ends
/// strictly lowest is taken, and the descent stops when none ends lower
/// (ties: the first in axis, cut, position order). No step size, no
/// constant; pure in `cfg` and the work map, so a restored run replays
/// it. The launch itself keeps the chooser's tiling: it is inside a run's
/// set-up time, and its first check (step 2) refines it.
///
/// A tiling is planned only if its **wall bound** — the largest per-rank
/// load of its home tiles' permanent columns (paper Sec. 4), priced with
/// the plan's own ruler — is below the lowest floor found so far. A plan
/// never moves a permanent column, so no plan ends below its tiling's
/// wall bound; and the descent takes only a strictly lower floor. So a
/// tiling skipped could not have been taken, and the plan is the one the
/// full search returns.
pub fn retile_plan(cfg: &RunConfig, step: u64, work: &[u64]) -> LaunchPlan {
    let mut plan = launch_plan(DomainShape::SquarePillar, cfg, step, work, true);
    if !cfg.dlb {
        return plan;
    }
    let costs = Costs::new(cfg, step, work);
    loop {
        let mut best: Option<LaunchPlan> = None;
        for nearby in one_cut_away(plan.tiling()) {
            let bar = best.as_ref().unwrap_or(&plan).floor();
            if costs.wall_bound(&nearby) < bar {
                let next = plan_on(DomainShape::SquarePillar, cfg, &costs, Some(nearby));
                if next.floor() < bar {
                    best = Some(next);
                }
            }
        }
        let Some(lower) = best else {
            return plan;
        };
        plan = lower;
    }
}

/// Every tiling that differs from `tiling` in one cut of one axis, that
/// cut moved to any other start strictly between its two neighbours (no
/// tile is left empty); axis 0 first, then cut by cut, each ascending
/// round the ring from the cut before it.
fn one_cut_away(tiling: PillarLayout) -> impl Iterator<Item = PillarLayout> {
    let (nc, torus) = (tiling.grid().nc(), tiling.torus());
    let side = torus.rows();
    let cuts = (0..2).flat_map(move |axis| (0..side).map(move |k| (axis, k)));
    cuts.flat_map(move |(axis, k)| {
        let mut starts = [tiling.xs(), tiling.ys()];
        let ring = &starts[axis];
        let (before, here, after) = (ring[(k + side - 1) % side], ring[k], ring[(k + 1) % side]);
        let between = (1..(after + nc - before) % nc).map(move |d| (before + d) % nc);
        between.filter(move |&at| at != here).map(move |at| {
            starts[axis][k] = at;
            let layout = PillarLayout::rectilinear(nc, torus, &starts[0], &starts[1]);
            layout.expect("a cut moved between its neighbours keeps the ring's order")
        })
    })
}

/// The re-tile check of step `step` of a re-tiling run, `since` steps
/// after the tiling was last chosen (at the launch or the last re-tile):
/// `held[rank]` is every column `rank` owns at the top of the step, with
/// the work the last force pass measured on it and its particle count.
/// Rank 0 plans on that work map ([`retile_plan`]) and re-tiles iff the
/// saving pays for the move:
///
/// `(L_now − F′) · h > C`
///
/// - `L_now`: the largest load under the current ownership;
/// - `F′`: the floor the plan ends on;
/// - `h = 2^(k−1)` at the `k`-th check, due `2^k ≤ since` steps after the
///   tiling was chosen (held on the first rebuild step at or after that):
///   half the steps the tiling has stood by then. From the second check on
///   that is the steps since the previous check was due; at the first it
///   is one step, though two have passed since the tiling was chosen. The
///   past is the horizon, and the rule is stateless, so a restored run
///   replays it;
/// - `C`: the move's modelled time on the rank that pays most under the
///   world's `model` — one frame per (old owner, new owner) pair carrying
///   the particles of every column between them, charged to sender and
///   receiver as the message layer charges it.
///
/// `None` keeps the tiling. No constant.
pub(crate) fn check(
    cfg: &RunConfig,
    step: u64,
    since: u64,
    held: &[Held],
    model: &CostModel,
) -> Option<Retile> {
    let (nc, p) = (cfg.nc, cfg.p);
    let index = |col: Col| col.cx * nc + col.cy;
    let (mut work, mut owner, mut count) = (vec![0; nc * nc], vec![0; nc * nc], vec![0; nc * nc]);
    for (rank, columns) in held.iter().enumerate() {
        for &(col, checks, n) in columns {
            (work[index(col)], owner[index(col)], count[index(col)]) = (checks, rank, n as usize);
        }
    }
    // The work was measured by the last step's force pass, at its speeds.
    let measured = step - 1;
    let now = peak(&Costs::new(cfg, measured, &work).loads_under(&owner, p));
    let plan = retile_plan(cfg, measured, &work);
    let planned = plan.ownership();
    let moves: Vec<DlbDecision> = all_columns(nc)
        .map(|col| DlbDecision {
            col,
            from: owner[index(col)],
            to: planned.owner_of(col),
        })
        .filter(|d| d.from != d.to)
        .collect();
    let mut frames: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for d in &moves {
        *frames.entry((d.from, d.to)).or_default() += count[index(d.col)];
    }
    let mut paid = vec![0.0; p];
    for (&(from, to), &n) in &frames {
        let t = model.message_time(from, to, xfer_bytes(n));
        paid[from] += t;
        paid[to] += t;
    }
    let horizon = (1u64 << since.ilog2()) / 2;
    let saving = (now - plan.floor()) * horizon as f64;
    (!moves.is_empty() && saving > peak(&paid)).then_some(Retile {
        tiling: plan.tiling(),
        decisions: plan.decisions,
        loads: plan.loads,
        moves,
    })
}

/// The owner of each column, in column index order, as `views` — one per
/// rank — say: every rank's view is exact about its own.
fn owners(views: &[Box<dyn Decomposition>], nc: usize) -> Vec<usize> {
    let mut owner = vec![0usize; nc * nc];
    for (rank, view) in views.iter().enumerate() {
        for col in all_columns(nc) {
            if view.owner_of(col, 0) == rank {
                owner[col.cx * nc + col.cy] = rank;
            }
        }
    }
    owner
}

/// Run `shape`'s balancer to its floor on the exact work map behind
/// `costs`, from the home tiles of `layout`, before any rank exists —
/// paper Sec. 2.3's steps 2–3, iterated. Every rank's view is built as
/// the run would build it and the shape's own hook is called on it:
/// `decide` on every rank's exact load (a column's work is a function of
/// the cell occupancies alone; divided by the rank's speed where the run
/// balances time) and on the exact load each candidate would put on its
/// receiver (its granule's work, on the receiver's speed), `excludes`
/// voiding the pairs that cannot stand together, `apply` on every view.
/// Iteration `k` is passed to `decide` as step `k`, so a rule that takes
/// turns by step parity — the plane's — takes them here. An iteration
/// that does not lower the largest load is not applied, and the plan ends
/// at the first such iteration (the plane: at the second in a row, one
/// per parity) or after as many iterations as the grid has granules. No
/// parameter: the rule, its gates and its legality are the run's own, so
/// a plan is a sequence of transfers the run itself could have made.
fn plan_on(
    shape: DomainShape,
    cfg: &RunConfig,
    costs: &Costs,
    layout: Option<PillarLayout>,
) -> LaunchPlan {
    let (nc, p) = (cfg.nc, cfg.p);
    // Every rank's view, every cell at its home (see `decomp::decomposition`).
    let home = |rank| decomposition(shape, rank, cfg, layout.as_ref());
    let mut views: Vec<_> = (0..p).map(home).collect();
    if !views[0].has_balancer() {
        return LaunchPlan::default();
    }
    let mut plan = LaunchPlan {
        layout,
        ..LaunchPlan::default()
    };
    // Who owns each column, and from that who borders whom: the engine's
    // neighbour sets.
    let index = |col: Col| col.cx * nc + col.cy;
    let mut owner = owners(&views, nc);
    let at_home = Owners::of_columns(nc, p, owner.clone());
    let neighbors: Vec<Vec<usize>> = (0..p).map(|rank| at_home.neighbors_of(rank)).collect();
    plan.loads = costs.loads_under(&owner, p);
    plan.peaks.push(peak(&plan.loads));
    // The plane moves each boundary on every other step.
    let turns = if shape == DomainShape::Plane { 2 } else { 1 };
    let (mut idle, mut cap) = (0, (nc * nc) as u64);
    let mut k = 0;
    while idle < turns && k < cap {
        k += 1;
        let mut decisions: Vec<DlbDecision> = (0..p)
            .filter_map(|rank| {
                let held: Vec<(usize, f64)> = neighbors[rank]
                    .iter()
                    .map(|&nb| (nb, plan.loads[nb]))
                    .collect();
                // What a decision's granule costs its receiver.
                let weight = |d: &DlbDecision| {
                    let granule = views[rank].granule(d);
                    costs.load(
                        d.to,
                        granule.iter().map(|&col| costs.work[index(col)]).sum(),
                    )
                };
                views[rank].decide(k, plan.loads[rank], &held, &weight)
            })
            .collect();
        let all = decisions.clone();
        decisions.retain(|a| !all.iter().any(|b| views[a.from].excludes(a, b)));
        let mut moved = owner.clone();
        for d in &decisions {
            let granule = views[d.from].granule(d);
            cap = cap.min((nc * nc / granule.len()) as u64);
            for col in granule {
                moved[index(col)] = d.to;
            }
        }
        let loads = costs.loads_under(&moved, p);
        if decisions.is_empty() || peak(&loads) >= peak(&plan.loads) {
            idle += 1;
            continue;
        }
        idle = 0;
        for view in &mut views {
            for d in &decisions {
                view.apply(d);
            }
        }
        owner = moved;
        plan.peaks.push(peak(&loads));
        plan.loads = loads;
        plan.decisions.extend(decisions);
        plan.round_ends.push(plan.decisions.len());
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A balancing run on the `side × side` torus with `m × m` tiles, and
    /// a work map for it drawn from `seed`: a light random background
    /// and a hot random rectangle, as a cluster leaves one.
    fn world(side: usize, m: usize, seed: u64) -> (RunConfig, Vec<u64>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let nc = side * m;
        let mut cfg = RunConfig::new(1000, nc, side * side, 0.1);
        cfg.dlb = true;
        let mut rng = StdRng::seed_from_u64(seed);
        let (x0, y0) = (rng.gen_range(0..nc), rng.gen_range(0..nc));
        let (w, h) = (rng.gen_range(1..nc / 2 + 1), rng.gen_range(1..nc / 2 + 1));
        let hot = |c: Col| (c.cx + nc - x0) % nc < w && (c.cy + nc - y0) % nc < h;
        let work = all_columns(nc)
            .map(|c| rng.gen_range(0..40) + if hot(c) { rng.gen_range(200..2000) } else { 0 })
            .collect();
        (cfg, work)
    }

    /// The search [`retile_plan`] replaces: every tiling one cut away is
    /// planned, and none of those plans, nor the one it starts from, ends
    /// below its tiling's wall bound.
    fn full_descent(cfg: &RunConfig, step: u64, work: &[u64]) -> LaunchPlan {
        let costs = Costs::new(cfg, step, work);
        let walled = |plan: &LaunchPlan| plan.floor() >= costs.wall_bound(&plan.tiling());
        let mut plan = launch_plan(DomainShape::SquarePillar, cfg, step, work, true);
        assert!(walled(&plan), "{} plans below its wall", plan.tiling());
        loop {
            let mut best: Option<LaunchPlan> = None;
            for nearby in one_cut_away(plan.tiling()) {
                let next = plan_on(DomainShape::SquarePillar, cfg, &costs, Some(nearby));
                assert!(walled(&next), "{nearby} plans below its wall");
                if next.floor() < best.as_ref().unwrap_or(&plan).floor() {
                    best = Some(next);
                }
            }
            let Some(lower) = best else {
                return plan;
            };
            plan = lower;
        }
    }

    #[test]
    #[should_panic(expected = "launch_plan_on plans a balancing run")]
    fn a_plan_on_a_chosen_tiling_is_refused_to_a_run_that_does_not_balance() {
        let (mut cfg, work) = world(3, 3, 1);
        cfg.dlb = false;
        launch_plan_on(PillarLayout::arbitrary(3, 6, 7), &cfg, 0, &work);
    }

    #[test]
    fn every_tiling_one_cut_away_differs_in_one_cut() {
        let tiling = PillarLayout::arbitrary(3, 9, 7);
        let cuts = |l: &PillarLayout| [l.xs(), l.ys()].concat();
        let near: Vec<PillarLayout> = one_cut_away(tiling).collect();
        // Every cut moves to every other start between its neighbours:
        // the widths of the two tiles beside it, less one each, summed
        // over the cuts of both axes — twice the ring less the tiles.
        assert_eq!(near.len(), 2 * (2 * 12 - 2 * 3));
        let here = cuts(&tiling);
        for other in &near {
            let moved = here.iter().zip(cuts(other)).filter(|(a, b)| **a != *b);
            assert_eq!(moved.count(), 1, "{other}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// On any work map, and whatever tiling the run stands on, a
        /// check plans no higher than the launch's chooser would — and no
        /// tiling one cut away from the one it picks plans lower. Its
        /// decision is `retile_plan`'s, whoever holds which column.
        #[test]
        fn prop_a_check_plans_no_higher_than_the_chooser(
            side in 3usize..5,
            m in 2usize..4,
            seed in any::<u64>(),
        ) {
            let (cfg, work) = world(side, m, seed);
            let costs = Costs::new(&cfg, 1, &work);
            let chooser = launch_plan(DomainShape::SquarePillar, &cfg, 1, &work, true);
            let refined = retile_plan(&cfg, 1, &work);
            prop_assert!(refined.floor() <= chooser.floor());
            for nearby in one_cut_away(refined.tiling()) {
                let next = plan_on(DomainShape::SquarePillar, &cfg, &costs, Some(nearby));
                prop_assert!(next.floor() >= refined.floor(), "{} plans lower", nearby);
            }
            // The run stands on an uneven tiling, every column at home.
            let standing = PillarLayout::arbitrary(side, cfg.nc - side, seed);
            let mut held: Vec<Held> = vec![Vec::new(); cfg.p];
            for (col, &checks) in all_columns(cfg.nc).zip(&work) {
                held[standing.home_rank(col)].push((col, checks, checks / 10 + 1));
            }
            let model = crate::decomp::cost_model(DomainShape::SquarePillar, &cfg);
            if let Some(r) = check(&cfg, 2, 2, &held, &model) {
                prop_assert_eq!(r.tiling, refined.tiling());
                prop_assert_eq!(r.loads, refined.loads);
            }
        }

        /// The wall bound skips no tiling the descent would take: on 3 × 3
        /// tori at m = 2 and 4 and the 4 × 4 at m = 3, with and without a
        /// static machine's speeds in the ruler, a check's plan is the full
        /// search's bit for bit.
        #[test]
        fn prop_the_wall_bound_skips_no_tiling_the_descent_would_take(
            grid in 0usize..3,
            seed in any::<u64>(),
            speeds in any::<bool>(),
        ) {
            use rand::{Rng, SeedableRng};
            let (side, m) = [(3, 2), (3, 4), (4, 3)][grid];
            let (mut cfg, work) = world(side, m, seed);
            if speeds {
                let mut rng = rand::rngs::StdRng::seed_from_u64(!seed);
                let base = (0..cfg.p).map(|_| 0.5 + 1.5 * rng.gen::<f64>()).collect();
                (cfg.speed, cfg.speed_aware) = (Some(SpeedSchedule::fixed(base)), true);
            }
            let (fast, full) = (retile_plan(&cfg, 1, &work), full_descent(&cfg, 1, &work));
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(fast.layout, full.layout);
            prop_assert_eq!(&fast.decisions, &full.decisions);
            prop_assert_eq!(&fast.round_ends, &full.round_ends);
            prop_assert_eq!(bits(&fast.peaks), bits(&full.peaks));
            prop_assert_eq!(bits(&fast.loads), bits(&full.loads));
        }
    }
}
