//! The per-rank SPMD program (paper Sec. 3): DDM molecular dynamics with
//! optional dynamic load balancing — one step engine for all three domain
//! shapes of paper Fig. 2.
//!
//! Each PE owns a set of cell *columns* — all of a column's z cells for
//! the plane and the square pillar, one z block of it for the cube — as
//! told by its `Decomposition` (see `crate::decomp`), and advances the
//! same velocity-Verlet step as the serial reference, with communication
//! phases in between. The phases, and the module that holds each:
//!
//! 1. half-kick + drift (positions move) — `force`;
//! 2. **round 1** (rebuild steps only — every step with `skin == 0`):
//!    migrants to their new owners, and in a balancing run the loads and
//!    decisions that ride along; none where a rebuild step is a single
//!    exchange ([`PeState::exchanges_once`]): phase 4's frames carry
//!    all of it — `exchange`;
//! 3. **DLB** (optional): decided ahead of phase 1, at the top of the
//!    step, by the shape's balancer rule on the loads in hand. The
//!    decisions a step's first frames bring land at the top of the next
//!    rebuild step, before that step decides, and the moved columns'
//!    particles travel in its first frames as the giver's migrants —
//!    `balance`;
//! 4. **ghost exchange (round 2)**: the boundary shells, or between the
//!    rebuilds of a skin epoch their positions alone — `exchange`;
//! 5. force computation over own + ghost cells (work counted), once the
//!    phase-4 receives are in: the step is sequenced — exchange, then
//!    forces — as the paper's `Tt` models it — `force`, in the order
//!    `walk` spells out (which is what makes the trajectory bitwise the
//!    serial one);
//! 6. second half-kick — `force`;
//! 7. periodic thermostat — `bookkeeping`, with the rebuild vote of a
//!    skin epoch;
//! 8. statistics gather to rank 0 — `bookkeeping`.
//!
//! A re-tiling run (a balancing square pillar launched without
//! `Launch::fixed_tiles`) adds the slow loop of `retile`: 2, 4, 8, …
//! steps after the tiling was last chosen, a check ahead of phase 1, and
//! on a re-tile step, after round 1, the move of every column whose owner
//! changes.
//!
//! Every exchange is staged along the rank torus, one axis at a time,
//! with a frame per hop — to each distinct rank one torus step away
//! along the axis — and a diagonal neighbour's share relayed (`exchange`,
//! and `topology`'s routing).
//!
//! A PE is launched without a message, one way from every start
//! ([`PeState::new`] of a [`crate::engine::Start`], fresh or restored):
//! its owned and ghost cells are taken out of the launch's one placement,
//! its balancer resumes from loads every rank holds, and it computes its
//! first forces.
//!
//! The neighbour set, ghost routes, cell classes and home list are all
//! derived from `Decomposition::owner_of` in `topology`; checkpoint
//! gather and restore, the sentinel and the snapshot are in `audit`.
//! Each module owns its state — a component of [`PeState`], reached by
//! name, whose fields nothing outside the module writes — and the
//! `PeState` methods that run its phases; [`PeState`] itself holds what
//! all of them work on. The sequence of the phases is
//! [`crate::engine`]'s `step_pe`.

mod audit;
mod balance;
mod bookkeeping;
mod exchange;
mod force;
mod retile;
mod topology;
mod walk;

use std::collections::BTreeMap;

use pcdlb_core::protocol::DlbDecision;
use pcdlb_domain::{Col, DomainShape, PillarLayout};
use pcdlb_md::cells::CellSlab;
use pcdlb_md::vec3::Vec3;
use pcdlb_md::{axis_bin, init, Particle};

use crate::config::{Lattice, RunConfig};
use crate::decomp::{decomposition, Decomposition};
use crate::engine::Start;
use crate::launch::Placed;
use crate::report::{PhaseTimes, RunReport, WireBytes};

pub use audit::{received_frames, SentinelReport};
pub(crate) use exchange::Exchange;
pub(crate) use retile::Held;
pub use topology::exchanges_once;
pub(crate) use topology::{ahead, behind_first_hop, bit_offset, dest_bit, RankTorus};
pub(crate) use topology::{all_columns, Owners};

/// A PE's cell columns — owned or ghost — by column: contiguous
/// (cell, id)-sorted particle storage with `nc` cells per column, indexed
/// by the z cell index.
type Slabs = BTreeMap<Col, CellSlab>;

/// Where every rank's view starts: `shape`'s home cells under `tiling`
/// (see `decomp::decomposition`), then `decisions` replayed as decisions
/// already made — a launch's ([`crate::engine::Start`]) or a re-tile's.
/// Every rank's view, its own and its neighbours', is built from it
/// alike.
struct Origin<'a> {
    shape: DomainShape,
    tiling: Option<&'a PillarLayout>,
    decisions: &'a [DlbDecision],
}

impl Origin<'_> {
    /// `rank`'s view at the start.
    fn view(&self, rank: usize, cfg: &RunConfig) -> Box<dyn Decomposition> {
        let mut view = decomposition(self.shape, rank, cfg, self.tiling);
        self.replay(&mut *view);
        view
    }

    /// `rank`'s own view at the start, with its topology: the neighbour
    /// set read off the home cells, before anything is replayed, and a
    /// rebuild step one exchange where the world says so
    /// (`exchanges_once`).
    fn own_view(
        &self,
        rank: usize,
        cfg: &RunConfig,
        exchanges_once: bool,
    ) -> (Box<dyn Decomposition>, topology::Topology) {
        let mut view = decomposition(self.shape, rank, cfg, self.tiling);
        let topology = topology::Topology::new(&*view, cfg.nc, rank, exchanges_once);
        self.replay(&mut *view);
        (view, topology)
    }

    /// Replay the decisions into `view`, every cell of which is at home.
    fn replay(&self, view: &mut dyn Decomposition) {
        for d in self.decisions {
            view.apply(d);
        }
    }
}

/// What each rank hands back to the driver when the run finishes.
pub struct PeResult {
    /// Rank 0: the assembled run report.
    pub report: Option<RunReport>,
    /// Rank 0, when a snapshot was requested: all particles by id.
    pub snapshot: Option<Vec<Particle>>,
    /// This rank's communication counters.
    pub comm_stats: pcdlb_mp::CommStats,
    /// This rank's accumulated wall-clock phase breakdown.
    pub phase_times: PhaseTimes,
    /// This rank's per-phase actual-vs-baseline byte counts.
    pub wire_bytes: WireBytes,
    /// Cells this rank owned after the last step.
    pub cells: usize,
}

/// Generate the full initial particle set for a config — deterministic,
/// shared by the parallel PEs (generated once per world by the launch
/// path; each PE adopts its own cells' share of the one slice) and the
/// serial baseline (keeps everything).
pub fn initial_particles(cfg: &RunConfig) -> Vec<Particle> {
    let mut ps = match cfg.lattice {
        Lattice::SimpleCubic => init::simple_cubic(cfg.n_particles, cfg.box_len()),
        Lattice::Cluster { fill } => {
            assert!(fill > 0.0 && fill <= 1.0, "cluster fill must be in (0, 1]");
            init::simple_cubic(cfg.n_particles, fill * cfg.box_len())
        }
        Lattice::SlabY { fill } => {
            assert!(fill > 0.0 && fill <= 1.0, "slab fill must be in (0, 1]");
            let mut ps = init::simple_cubic(cfg.n_particles, cfg.box_len());
            for q in &mut ps {
                q.pos.y *= fill;
            }
            ps
        }
    };
    init::maxwell_boltzmann(&mut ps, cfg.t_ref, cfg.seed);
    ps
}

/// The state of one PE: what every phase works on, and one component per
/// module of phases (see the [module docs](self)).
pub struct PeState {
    cfg: RunConfig,
    rank: usize,
    nc: usize,
    box_len: f64,
    cell_len: f64,
    /// Who owns which cell, and the shape's balancer rule.
    decomp: Box<dyn Decomposition>,
    /// The owned columns.
    columns: Slabs,
    /// The ghost cells, by column like the owned ones.
    ghosts: Slabs,
    /// The step currently being computed (the checkpointed step after a
    /// restore, before the first live step). Feeds the speed schedule so
    /// drifting speeds replay bitwise across restarts.
    cur_step: u64,
    /// Per-phase actual-vs-baseline byte accounting for this rank.
    wire: WireBytes,
    /// Accumulated per-phase wall times over the run.
    phase: PhaseTimes,
    topology: topology::Topology,
    force: force::Force,
    exchange: exchange::Channels,
    balance: balance::Balance,
    bookkeeping: bookkeeping::Bookkeeping,
    retiling: retile::Retiling,
}

impl PeState {
    /// Launch the PE, ready for the step after `start.step` — the one
    /// constructor every start takes, fresh or restored
    /// ([`crate::engine::Start`]): start from the home tiles of its tiling,
    /// replay its decisions into this rank's view, adopt the cells it then
    /// owns and the ghost cells around them out of its placement, carry on
    /// from its re-tiles, resume the balancer from its loads and pending
    /// transfers and compute the first forces. It sends nothing:
    /// everything a neighbour would have told it, the start already holds.
    ///
    /// Forces are *not* stored in a checkpoint: the launch's force pass
    /// reproduces the checkpointed run's force array bitwise — the saved
    /// positions are exactly the positions those forces were evaluated at
    /// (velocity Verlet only touches velocities after the force pass).
    pub fn new(rank: usize, cfg: &RunConfig, start: &Start) -> Self {
        let origin = Origin {
            shape: start.shape,
            tiling: start.tiling.as_ref(),
            decisions: &start.decisions,
        };
        let (decomp, topology) = origin.own_view(rank, cfg, start.exchanges_once);
        let balances = decomp.has_balancer() && cfg.dlb;
        let mut pe = Self {
            cfg: cfg.clone(),
            rank,
            nc: cfg.nc,
            box_len: cfg.box_len(),
            cell_len: cfg.cell_len(),
            decomp,
            columns: BTreeMap::new(),
            ghosts: BTreeMap::new(),
            // The first force pass recomputes the forces of the step the
            // start left off at — with drifting speeds, its published load
            // numbers must use that step too.
            cur_step: start.step,
            wire: WireBytes::default(),
            phase: PhaseTimes::default(),
            exchange: exchange::Channels::new(topology.neighbors().len(), cfg.nc),
            topology,
            force: force::Force::default(),
            balance: balance::Balance::new(balances),
            bookkeeping: bookkeeping::Bookkeeping::new(),
            retiling: retile::Retiling::default(),
        };
        pe.adopt(start.placed, &origin);
        pe.restore_retiles(start.retiles);
        pe.balance
            .restore(rank, cfg.p, pe.topology.neighbors(), start);
        pe.compute_forces();
        pe
    }

    /// Take this PE's cells out of `placed`: the owned columns, then —
    /// once the caches say which they are — the ghost cells around them
    /// ([`PeState::adopt_ghosts`]).
    fn adopt(&mut self, placed: &Placed, origin: &Origin) {
        self.adopt_particles(placed);
        self.refresh_caches();
        self.adopt_ghosts(placed, origin);
    }

    /// Create a column for every column this PE owns a cell of, filled
    /// with its cells' run of `placed` — which is in the slab's
    /// (cell, id) order already.
    fn adopt_particles(&mut self, placed: &Placed) {
        let (nc, rank, zbin) = (self.nc, self.rank, self.zbin());
        let own_z = self.topology.own_z();
        for col in all_columns(nc).filter(|&col| self.decomp.owner_of(col, own_z.start) == rank) {
            let mut slab = CellSlab::empty(nc);
            slab.rebuild_sorted(nc, placed.column(col, own_z.clone()), zbin);
            self.columns.insert(col, slab);
        }
    }

    /// The ranks this PE exchanges items with, ascending: those owning a
    /// cell next to one of its own. Its frames go to the ones one torus
    /// step away along an axis ([`PeState::stages`]) and reach the others
    /// through them.
    pub fn neighbors(&self) -> &[usize] {
        self.topology.neighbors()
    }

    /// Whether a rebuild step of this run is a single exchange — migrants
    /// and ghosts in one staged exchange — rather than two rounds.
    /// True when the closure test holds: every rank owning a cell within
    /// two cells of one of this PE's is the PE itself or a neighbour — on
    /// the one ownership of a run that does not balance (the shape has no
    /// balancer or `cfg.dlb` leaves it off), on every ownership the
    /// balancer can reach of one that does (`Decomposition::reach`; the
    /// decisions ride the frame, as they ride round 1 elsewhere).
    /// Block grids and pillar tori pass with blocks / tiles at least two
    /// cells wide or a torus side of at most 3 where nothing balances; a
    /// balancing pillar passes on the 3 × 3 torus, where every rank is
    /// every other's neighbour, and the plane, which does not bound where
    /// its boundaries go, never. Every rank of a world reaches the same
    /// answer: where ownership is fixed the layouts are the even tiles and
    /// translation-symmetric, and a balancing run's answer holds on any
    /// tiling (the re-tiles of a run included) or on none. So it is a fact
    /// of the world ([`exchanges_once`]), which a launch asks once
    /// ([`crate::engine::Start`]) and every rank takes.
    pub fn exchanges_once(&self) -> bool {
        self.topology.single_exchange()
    }

    /// The tiling this PE's home tiles are cut on (the square pillar's;
    /// `None` for the other shapes).
    pub(crate) fn tiling(&self) -> Option<PillarLayout> {
        self.decomp.tiling()
    }

    /// Number of cells this PE currently owns (its columns × its z extent).
    pub fn owned_cells(&self) -> usize {
        self.columns.len() * self.topology.own_z().len()
    }

    /// Number of particles this PE currently owns.
    pub fn num_particles(&self) -> usize {
        self.columns.values().map(CellSlab::len).sum()
    }

    /// This PE's particles, in ascending (column, z cell, id) order.
    fn particles(&self) -> impl Iterator<Item = &Particle> {
        self.columns.values().flat_map(|slab| slab.particles())
    }

    fn cell_of(&self, pos: Vec3) -> (Col, usize) {
        let f = |v: f64| axis_bin(v, self.cell_len, self.nc);
        (Col::new(f(pos.x), f(pos.y)), f(pos.z))
    }

    /// The column `pos` lies in.
    fn col_of(&self, pos: Vec3) -> Col {
        let f = |v: f64| axis_bin(v, self.cell_len, self.nc);
        Col::new(f(pos.x), f(pos.y))
    }

    /// The key a column slab sorts by: a particle's z cell.
    fn zbin(&self) -> impl Fn(&Particle) -> usize + Copy {
        let (cell_len, nc) = (self.cell_len, self.nc);
        move |p| axis_bin(p.pos.z, cell_len, nc)
    }

    /// Mark the step about to be computed (feeds the per-step speed
    /// schedule). Called at the top of every step.
    pub(crate) fn begin_step(&mut self, step: u64) {
        self.cur_step = step;
    }

    /// This PE's accumulated wall-clock phase breakdown.
    pub fn phase_times(&self) -> PhaseTimes {
        self.phase
    }

    /// This PE's accumulated per-phase actual-vs-baseline byte counts.
    pub fn wire_bytes(&self) -> WireBytes {
        self.wire
    }
}

/// What the modules' tests share: one config per shape, its initial
/// condition placed, a fresh PE and a whole launch.
#[cfg(test)]
mod testkit {
    use super::*;
    use crate::launch::LaunchPlan;

    /// One config per shape on the same physics: roomy cells (≈3.0) so a
    /// skin fits, a clustered start so the ghost shells actually change.
    pub(super) fn shape_cfg(shape: DomainShape) -> RunConfig {
        let p = match shape {
            DomainShape::SquarePillar => 4,
            DomainShape::Plane => 3,
            DomainShape::Cube => 8,
        };
        let mut cfg = RunConfig::new(583, 6, p, 583.0 / 18.0f64.powi(3));
        cfg.dlb = false;
        cfg.lattice = Lattice::Cluster { fill: 0.8 };
        cfg.seed = 11;
        crate::decomp::validate(&cfg, shape);
        cfg
    }

    /// The config's own initial condition, placed.
    pub(super) fn placed(cfg: &RunConfig) -> Placed {
        Placed::new(cfg, &initial_particles(cfg))
    }

    /// A PE launched on its home cells' share of the config's own initial
    /// condition (nothing planned), as the engine launches every rank.
    pub(super) fn fresh(rank: usize, cfg: &RunConfig, shape: DomainShape) -> PeState {
        let placed = placed(cfg);
        let plan = LaunchPlan::unplanned(shape, cfg, &placed.column_work());
        PeState::new(rank, cfg, &Start::fresh(shape, cfg, &placed, &plan))
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{fresh, shape_cfg};
    use super::*;

    #[test]
    fn pe_states_partition_the_particles_in_every_shape() {
        for shape in DomainShape::ALL {
            let cfg = shape_cfg(shape);
            let total: usize = (0..cfg.p)
                .map(|r| fresh(r, &cfg, shape).num_particles())
                .sum();
            assert_eq!(total, cfg.n_particles, "{shape:?}");
        }
    }

    #[test]
    fn initial_particles_deterministic_and_lattice_dependent() {
        let mut a = RunConfig::from_p_m_density(9, 2, 0.2);
        a.seed = 9;
        let p1 = initial_particles(&a);
        let p2 = initial_particles(&a);
        assert_eq!(p1, p2);
        let mut b = a.clone();
        b.lattice = Lattice::Cluster { fill: 0.5 };
        let p3 = initial_particles(&b);
        assert_ne!(p1, p3);
        // Cluster really is confined to the corner.
        let half = 0.5 * b.box_len();
        assert!(p3
            .iter()
            .all(|q| q.pos.x < half + 1e-9 && q.pos.y < half + 1e-9 && q.pos.z < half + 1e-9));
    }

    #[test]
    fn slab_lattice_compresses_y_only() {
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.lattice = Lattice::SlabY { fill: 0.4 };
        let ps = initial_particles(&c);
        let l = c.box_len();
        assert!(ps.iter().all(|q| q.pos.y < 0.4 * l + 1e-9));
        assert!(ps.iter().any(|q| q.pos.x > 0.6 * l));
        assert!(ps.iter().any(|q| q.pos.z > 0.6 * l));
    }
}
