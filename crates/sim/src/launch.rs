//! What a launch works out before a rank thread starts, once per world:
//! where every particle lies ([`Placed`]) and where the balancer's own
//! rule takes the columns from there ([`launch_plan`]).
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
//! run would have measured.
//!
//! Launch-time code: it allocates freely and is called from the driver
//! ([`crate::driver`]) and the elastic remap ([`crate::elastic`]) only.

use std::ops::Range;

use pcdlb_core::protocol::DlbDecision;
use pcdlb_domain::{Col, DomainShape};
use pcdlb_md::{axis_bin, Particle};

use crate::config::{LoadMetric, RunConfig};
use crate::decomp::{decomposition, Decomposition};
use crate::pe::{all_columns, cells_around};

/// A world's particles placed in their cells, once per world: one
/// counting sort by (column, z cell), ids ascending inside a cell — the
/// order every column slab keeps. The launch plan reads the occupancies
/// off it and every rank takes its columns' runs out of it, so nobody
/// bins the world a second time.
#[derive(Debug, Clone)]
pub struct Placed {
    nc: usize,
    /// Every particle, in (column, z cell, id) order.
    parts: Vec<Particle>,
    /// `nc³ + 1` offsets into `parts`; cell `(col, cz)` is entry
    /// `(col.cx · nc + col.cy) · nc + cz`.
    offsets: Vec<usize>,
}

impl Placed {
    /// Place `particles` — any set, in any order — in `cfg`'s cell grid.
    pub fn new(cfg: &RunConfig, particles: &[Particle]) -> Self {
        let (nc, cell_len) = (cfg.nc, cfg.cell_len());
        let bin = |v: f64| axis_bin(v, cell_len, nc);
        let cells: Vec<usize> = particles
            .iter()
            .map(|p| (bin(p.pos.x) * nc + bin(p.pos.y)) * nc + bin(p.pos.z))
            .collect();
        let mut offsets = vec![0usize; nc * nc * nc + 1];
        for &c in &cells {
            offsets[c + 1] += 1;
        }
        for c in 0..nc * nc * nc {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut order = vec![0usize; particles.len()];
        for (i, &c) in cells.iter().enumerate() {
            order[cursor[c]] = i;
            cursor[c] += 1;
        }
        let mut parts: Vec<Particle> = order.into_iter().map(|i| particles[i]).collect();
        for cell in offsets.windows(2) {
            parts[cell[0]..cell[1]].sort_unstable_by_key(|p| p.id);
        }
        Self { nc, parts, offsets }
    }

    /// The particles in cells `z` of column `col`, in (z cell, id) order.
    pub(crate) fn column(&self, col: Col, z: Range<usize>) -> &[Particle] {
        let base = (col.cx * self.nc + col.cy) * self.nc;
        &self.parts[self.offsets[base + z.start]..self.offsets[base + z.end]]
    }

    /// Each column's full-shell candidate-pair count, in column index
    /// order: `n · (Σ₂₇ n′ − 1)` summed over its cells — what the work
    /// model charges the column's owner for it, whoever that is (the
    /// `WorkCounters` definition). The 3 × 3 × 3 sums run one periodic
    /// axis at a time.
    fn column_work(&self) -> Vec<u64> {
        let nc = self.nc;
        let occupancy: Vec<u64> = self
            .offsets
            .windows(2)
            .map(|cell| (cell[1] - cell[0]) as u64)
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

/// Where a balancing run launches: the transfers its balancer's own rule
/// makes on the initial condition's exact work map before a rank thread
/// starts (see [`launch_plan`]). Empty for a run that does not balance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaunchPlan {
    /// Every planned transfer in the order it is applied: iteration by
    /// iteration, ascending `from` inside one.
    pub decisions: Vec<DlbDecision>,
    /// Where each applied iteration's transfers end in `decisions`.
    pub round_ends: Vec<usize>,
    /// The largest per-rank load before the first iteration and after
    /// each applied one: strictly decreasing.
    pub peaks: Vec<f64>,
    /// The per-rank loads the plan ends on, in the unit the balancer
    /// decides in — what the launch's first force pass measures.
    pub loads: Vec<f64>,
}

impl LaunchPlan {
    /// The transfers of each applied iteration, in order.
    pub fn rounds(&self) -> impl Iterator<Item = &[DlbDecision]> {
        let starts = std::iter::once(&0).chain(&self.round_ends);
        starts
            .zip(&self.round_ends)
            .map(|(&from, &to)| &self.decisions[from..to])
    }
}

/// Run `shape`'s balancer to its floor on the exact work map of `placed`,
/// before any rank exists — paper Sec. 2.3's steps 2–3, iterated. Every
/// rank's view is built as the run would build it and the shape's own
/// hook is called on it: `decide` on every rank's exact load (a column's
/// work is a function of the cell occupancies alone; divided by the
/// rank's speed at `step`, the step whose force pass the launch repeats,
/// where the run balances time), `excludes` voiding the pairs that cannot
/// stand together, `apply` on every view. Iteration `k` is passed to
/// `decide` as step `k`, so a rule that takes turns by step parity — the
/// plane's — takes them here. An iteration that does not lower the
/// largest load is not applied, and the plan ends at the first such
/// iteration (the plane: at the second in a row, one per parity) or after
/// as many iterations as the grid has granules. No parameter: the rule,
/// its gain gate and its legality are the run's own, so a plan is a
/// sequence of transfers the run itself could have made. Pure in `cfg`
/// and the particles. The `WallClock` metric plans in work units.
pub fn launch_plan(shape: DomainShape, cfg: &RunConfig, step: u64, placed: &Placed) -> LaunchPlan {
    let mut plan = LaunchPlan::default();
    if !cfg.dlb {
        return plan;
    }
    let (nc, p) = (cfg.nc, cfg.p);
    let mut views: Vec<Box<dyn Decomposition>> =
        (0..p).map(|rank| decomposition(shape, rank, cfg)).collect();
    if !views[0].has_balancer() {
        return plan;
    }
    // Who owns each column (every rank's view is exact about its own)
    // and, from that, who borders whom: the engine's neighbour sets.
    let index = |col: Col| col.cx * nc + col.cy;
    let mut owner = vec![0usize; nc * nc];
    for (rank, view) in views.iter().enumerate() {
        for col in all_columns(nc) {
            if view.owner_of(col, 0) == rank {
                owner[index(col)] = rank;
            }
        }
    }
    let mut neighbors = vec![Vec::new(); p];
    for col in all_columns(nc) {
        let here = owner[index(col)];
        for (near, _) in cells_around(nc, col, 0..nc) {
            let there = owner[index(near)];
            if there != here && !neighbors[here].contains(&there) {
                neighbors[here].push(there);
            }
        }
    }
    for nbrs in &mut neighbors {
        nbrs.sort_unstable();
    }
    let work = placed.column_work();
    let unit = match cfg.load_metric {
        LoadMetric::WorkModel { sec_per_pair } => sec_per_pair,
        LoadMetric::WallClock => 1.0,
    };
    let speeds = cfg.speed.as_ref().filter(|_| cfg.speed_aware);
    let loads_under = |owner: &[usize]| -> Vec<f64> {
        let mut checks = vec![0u64; p];
        for (&rank, &w) in owner.iter().zip(&work) {
            checks[rank] += w;
        }
        let load = |(rank, &checks): (usize, &u64)| {
            let raw = checks as f64 * unit;
            speeds.map_or(raw, |s| raw / s.speed(rank, step))
        };
        checks.iter().enumerate().map(load).collect()
    };
    let peak = |loads: &[f64]| loads.iter().copied().fold(0.0, f64::max);
    plan.loads = loads_under(&owner);
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
                views[rank].decide(k, plan.loads[rank], &held)
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
        let loads = loads_under(&moved);
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
