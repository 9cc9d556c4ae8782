//! The per-rank SPMD program (paper Sec. 3): DDM molecular dynamics with
//! optional dynamic load balancing — one step engine for all three domain
//! shapes of paper Fig. 2.
//!
//! Each PE owns a set of cell *columns* — all of a column's z cells for
//! the plane and the square pillar, one z block of it for the cube — as
//! told by its `Decomposition` (see `crate::decomp`), and advances the
//! same velocity-Verlet step as the serial reference, with communication
//! phases in between:
//!
//! 1. half-kick + drift (positions move);
//! 2. **round 1** (rebuild steps only — every step with `skin == 0`) —
//!    one coalesced [`StepFrame`] per neighbour under
//!    `tags::STEP_FRAME`: particles that crossed into a neighbour-owned
//!    cell are shipped to their new owner; in a balancing run the
//!    sender's last-step force time rides along, and on DLB steps the
//!    decision it took at the top of the step. Where ownership cannot
//!    change this run (no balancer — the cube — or `dlb` off) and the
//!    neighbour set is closed two cells out, there is no round 1: the
//!    migrants ride the phase-4 frames — one exchange per step, see
//!    [`PeState::exchanges_once`] and `PeState::ghosts_send`;
//! 3. **DLB** (optional) — the decision was taken ahead of phase 1, at
//!    the top of the step, by the shape's balancer rule (pillar: the
//!    Case 1–3 rules toward the fastest neighbour that may take a cell;
//!    plane: the moving boundary) on the loads in hand, brought up to
//!    date by the transfers still in flight (see
//!    [`pcdlb_core::protocol`]). Once round 1 is in, every PE folds its
//!    neighbourhood's decisions into its ownership view and the moved
//!    columns' particles change hands;
//! 4. **ghost exchange (round 2)** — the boundary-shell ghosts of every
//!    owned cell adjacent to a neighbour-owned cell are sent to that
//!    neighbour as `(id, pos)` pairs, delta-encoded against the previous
//!    rebuild step's frame per channel (see [`crate::frame`]); between
//!    the rebuilds of a skin epoch this is the step's only frame per
//!    neighbour and carries positions alone;
//! 5. force computation over own + ghost cells (work counted), once the
//!    phase-4 receives are in: the step is sequenced — exchange, then
//!    forces — as the paper's `Tt` models it;
//! 6. second half-kick;
//! 7. periodic thermostat (id-ordered global kinetic-energy sum, so the
//!    scale factor is bitwise identical to the serial reference);
//! 8. statistics gather to rank 0.
//!
//! The neighbour set, ghost routes, cell classes and migration routing
//! are all derived here from `Decomposition::owner_of`; the sequence of
//! the phases lives in [`crate::takeover`]'s `step_multi`.
//!
//! Determinism: every receive names its source, particle storage is kept
//! (cell, id)-sorted, and the force pass visits home cells — owned *and*
//! ghost — in ascending global cell order, evaluating each unordered pair
//! exactly once at the canonical half-shell home (the same order as
//! `pcdlb_md::serial`). Every owned particle therefore accumulates its
//! force terms in exactly the serial sequence: the parallel trajectory is
//! **bitwise identical** to the serial one for any shape and `P`, with or
//! without DLB. Work counters still report the paper's full-shell
//! directed-pair counts (a both-sides half-shell evaluation counts as two
//! checks), so the load model and DLB decisions match the full-shell seed
//! kernel.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

use pcdlb_core::protocol::{book_in_flight, DlbDecision, Transfer};
use pcdlb_domain::{Col, DomainShape};
use pcdlb_md::cells::CellSlab;
use pcdlb_md::checkpoint::Checkpoint;
use pcdlb_md::force::{disjoint_ranges_mut, PairKernel, WorkCounters};
use pcdlb_md::integrate::{kick, kick_drift, kick_drift_nowrap};
use pcdlb_md::observe;
use pcdlb_md::vec3::Vec3;
use pcdlb_md::verlet::{self, DispTracker, SegAction, SegKind, Segment, VerletList};
use pcdlb_md::{axis_bin, init, Particle, SoaField};
use pcdlb_mp::{collectives, BufferPool, Comm, WireSize};

use crate::clock::WallTimer;
use crate::config::{Lattice, LoadMetric, RunConfig};
use crate::decomp::{decomposition, Decomposition};
use crate::frame::{DeltaChannel, ParticleFrame, StepFrame};
use crate::launch::Placed;
use crate::recover::SimCheckpoint;
use crate::report::{PhaseTimes, RunReport, StepRecord, WireBytes};
use crate::stats::StatsPacket;

// Wire tags live next to the protocol rules in `pcdlb-core`, where the
// static verifier (`pcdlb-check`) reads the same table this simulator
// sends with.
use pcdlb_core::protocol::tags;

/// The forward (dx, dy) cross-section groups of the half shell: paired
/// with their dz lists ([1] for the home column, [-1, 0, 1] otherwise)
/// they enumerate `pcdlb_md::cells::HALF_OFFSETS_13` in canonical order.
const FORWARD_XY: [(i64, i64); 5] = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)];

/// The dz list of forward group `gi` (see [`FORWARD_XY`]).
fn forward_dz(gi: usize) -> &'static [i64] {
    if gi == 0 {
        &[1]
    } else {
        &[-1, 0, 1]
    }
}

/// What a cell is to this PE. Derived purely from the decomposition's
/// ownership answers, so it only changes when ownership does. The class
/// is per *cell*, not per column: the plane and the pillar own whole
/// columns, but a cube rank's column holds its own block, one ghost cell
/// above and below it, and cells it never sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum CellClass {
    /// This PE's: its forces are stored here.
    Owned,
    /// Not owned; mirrored from a neighbour each step.
    Ghost,
    /// Neither owned nor adjacent to an owned cell: not stored here.
    Unseen,
}

/// What a step's neighbourhood exchange carries, one frame per neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exchange {
    /// Round 2 of a two-round rebuild step, and the initial exchange of
    /// every run: the boundary shells.
    Shells,
    /// A mid-epoch step's only frame: new positions of the frozen shells.
    Refresh,
    /// A single-exchange rebuild step's only frame: migrants and ghosts
    /// together (see [`PeState::exchanges_once`]).
    Single,
}

/// The replay policy: what the live walk does with a recorded segment
/// (its home and neighbour class codes are `CellClass as u8`) — store the
/// non-ghost sides, credit ½ · owned sides — so replaying the recording
/// reproduces the walk bitwise, including the full-shell `pair_checks`
/// accounting.
fn replay_action(seg: &Segment) -> SegAction {
    let owned = CellClass::Owned as u8;
    match seg.kind {
        SegKind::Intra | SegKind::Pull => SegAction {
            sa: true,
            sb: true,
            run_home: true,
            credit: None,
        },
        SegKind::Pair => {
            let (sa, sb) = (seg.ca == owned, seg.cb == owned);
            SegAction {
                sa,
                sb,
                run_home: false,
                credit: Some(0.5 * (sa as u64 + sb as u64) as f64),
            }
        }
    }
}

/// One column this PE sees: owned, ghost, or — a cube rank's own columns,
/// with the ghost cells above and below its block — both.
struct Home {
    col: Col,
    /// Has a slab in `columns`.
    owned: bool,
    /// Has a slab in `ghosts`.
    ghost: bool,
    /// The five forward cross-section columns ([`FORWARD_XY`]) as indices
    /// into the home list with their x/y periodic shifts; `None` where
    /// this PE sees no such column (only ever next to a ghost home —
    /// those pairs belong to other PEs).
    ring: [Option<(usize, f64, f64)>; 5],
}

/// One non-empty cell of the half-shell walk.
#[derive(Clone, Copy)]
struct CellRef<'a> {
    class: CellClass,
    parts: &'a [Particle],
    /// First slot of the cell in the flat force / SoA layout: owned cells
    /// in ascending column order, ghost cells appended behind them.
    at: usize,
}

impl CellRef<'_> {
    fn slots(&self) -> Range<usize> {
        self.at..self.at + self.parts.len()
    }
}

/// One kernel block of the canonical half-shell walk.
enum Block<'a> {
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

/// The half-shell walk over everything this PE sees — the one place the
/// canonical pair order is spelled out. Borrowed apart from the force
/// and work arrays its two consumers (the live kernel, the Verlet
/// recorder) write.
struct Walk<'a> {
    nc: usize,
    box_len: f64,
    rank: usize,
    homes: &'a [Home],
    class: &'a [CellClass],
    base: &'a [[usize; 2]],
    columns: &'a BTreeMap<Col, CellSlab>,
    ghosts: &'a BTreeMap<Col, CellSlab>,
}

impl<'a> Walk<'a> {
    fn view(&self, hi: usize) -> ColView<'a> {
        let home = &self.homes[hi];
        ColView {
            owned: home.owned.then(|| &self.columns[&home.col]),
            ghost: home.ghost.then(|| &self.ghosts[&home.col]),
            base: self.base[hi],
            class: &self.class[hi * self.nc..(hi + 1) * self.nc],
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
    fn for_each_block(&self, mut visit: impl FnMut(usize, Block<'a>)) {
        for (hi, home) in self.homes.iter().enumerate() {
            let hv = self.view(hi);
            // Settle per column what can be settled there: a forward
            // column is dead for this home when neither holds an owned
            // cell (ghost beside ghost), and its z loops and slab lookups
            // are skipped whole.
            let live: [bool; 5] = std::array::from_fn(|g| {
                home.ring[g].is_none_or(|(ni, ..)| home.owned || self.homes[ni].owned)
            });
            let ring: [Option<(ColView<'a>, f64, f64)>; 5] = std::array::from_fn(|g| {
                home.ring[g]
                    .filter(|_| live[g])
                    .map(|(ni, sx, sy)| (self.view(ni), sx, sy))
            });
            for cz in 0..self.nc {
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
                // The z neighbours of this cell, by dz + 1.
                let zs = [
                    wrap_z(self.nc, self.box_len, cz, -1),
                    (cz, 0.0),
                    wrap_z(self.nc, self.box_len, cz, 1),
                ];
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
                                self.rank, home.col
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

/// What each rank hands back to the driver when the run finishes.
pub struct PeResult {
    /// Rank 0: the assembled run report.
    pub report: Option<RunReport>,
    /// Rank 0, when a snapshot was requested: all particles by id.
    pub snapshot: Option<Vec<Particle>>,
    /// This rank's communication counters.
    pub comm_stats: pcdlb_mp::CommStats,
    /// This rank's accumulated wall-clock phase breakdown (all zeros
    /// without the `wallclock-instrumentation` feature).
    pub phase_times: PhaseTimes,
    /// This rank's per-phase actual-vs-baseline byte counts.
    pub wire_bytes: WireBytes,
    /// Ghost delta decodes this rank absorbed by degrading (skip one
    /// neighbour's ghosts for a step + full-frame resync). Always 0 on a
    /// healthy protocol.
    pub ghost_desyncs: u64,
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
        Lattice::Fcc => init::fcc(cfg.n_particles, cfg.box_len()),
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

/// The state of one PE.
pub struct PeState {
    cfg: RunConfig,
    rank: usize,
    nc: usize,
    box_len: f64,
    cell_len: f64,
    kernel: PairKernel,
    /// Who owns which cell, and the shape's balancer rule.
    decomp: Box<dyn Decomposition>,
    /// The z cells this PE owns of each of its columns.
    own_z: Range<usize>,
    /// The distinct ranks owning a cell adjacent to one of this PE's home
    /// cells, ascending. Fixed for the run: balancers only ever move
    /// cells between ranks that are neighbours already.
    neighbors: Vec<usize>,
    /// Whether ownership can change this run: the shape has a balancer
    /// and `cfg.dlb` switches it on. Fixed for the run.
    balances: bool,
    /// Whether a rebuild step is one exchange (see
    /// [`PeState::exchanges_once`]). Fixed for the run.
    single_exchange: bool,
    /// Owned columns: contiguous (cell, id)-sorted particle storage with
    /// `nc` cells per column, indexed by the z cell index.
    columns: BTreeMap<Col, CellSlab>,
    /// Flat force storage: owned columns concatenated in ascending column
    /// order, aligned with each slab's particle order. Valid from
    /// `compute_forces` until the next `migrate` reshuffles particles.
    forces: Vec<Vec3>,
    /// Ghost cells, by column like the owned ones.
    ghosts: BTreeMap<Col, CellSlab>,
    last_work: WorkCounters,
    last_force_virtual: f64,
    last_force_wall: f64,
    /// The load value fed to the DLB decision. Equal to
    /// `last_force_virtual` except on a heterogeneous machine balancing
    /// with the work-based baseline metric (`speed_aware = false`), where
    /// reporting shows *time* but the balancer still sees raw work.
    last_balance: f64,
    /// The step currently being computed (the checkpointed step after a
    /// restore, before the first live step). Feeds the speed schedule so
    /// drifting speeds replay bitwise across restarts and takeovers.
    cur_step: u64,
    /// True when the owned-column set, or the ownership of a column
    /// bordering it, changed since the ownership-derived caches below
    /// were rebuilt.
    routes_dirty: bool,
    /// Per-neighbour ghost routing (parallel to `neighbors`): the runs of
    /// owned cells each neighbour needs as ghosts, as (column, z range),
    /// ascending and merged.
    ghost_routes: Vec<Vec<(Col, Range<usize>)>>,
    /// Home columns this PE sees — owned ∪ ghost, ascending. The force
    /// passes iterate this list; the ghost entries' keys double as the
    /// expected ghost-receive set.
    homes: Vec<Home>,
    /// Per-cell classes, `nc` per home column.
    cell_class: Vec<CellClass>,
    /// Per-home slot bases (owned slab, ghost slab) in the flat force /
    /// SoA layout, parallel to `homes`; refilled by `force_prologue`
    /// each step (slab sizes — hence the bases — are frozen across a
    /// skin epoch).
    home_base: Vec<[usize; 2]>,
    /// Per-home-column work-counter buckets, parallel to `homes`, folded
    /// ascending into `last_work` — the fold the Verlet replay shares
    /// with the live walk, so their energy sums are bitwise identical.
    col_work: Vec<WorkCounters>,
    /// Retained-particle staging for migration; key set kept equal to
    /// `columns`' so the per-step rebinning reuses every allocation.
    migrate_staging: BTreeMap<Col, Vec<Particle>>,
    /// Per-neighbour emigrant staging, parallel to `neighbors`.
    migrate_out: Vec<Vec<Particle>>,
    /// The neighbours' loads in hand, as the last round-1 frames brought
    /// them (balancing runs only): each measured by the force pass before
    /// the step that announced it.
    nbr_loads: Vec<(usize, f64)>,
    /// `nbr_loads` with the in-flight transfers booked: what the balancer
    /// decides on (retained scratch).
    booked_loads: Vec<(usize, f64)>,
    /// The load this PE put into its last round-1 frames (balancing runs
    /// only) — what its neighbours hold for it, and so what a checkpoint
    /// must carry.
    announced_load: Option<f64>,
    /// This step's own decision, taken at the top of the step and waiting
    /// for round 1 to carry it.
    my_decision: Option<Transfer>,
    /// The neighbourhood's decisions of the last round-1 step (this PE's
    /// and its neighbours', ascending `from`), retained across steps:
    /// the step's cell transfers walk it, and until the next round-1
    /// frames bring loads that have seen them these are the transfers in
    /// flight.
    decisions: Vec<Transfer>,
    /// The last rebuild step (the checkpointed step after a restore): a
    /// balancing step is due at the first rebuild that has a multiple of
    /// `dlb_interval` behind it since this one.
    last_rebuild: u64,
    /// Per-neighbour ghost delta channels, send side (parallel to
    /// `neighbors`): reset whenever a DLB decision dirties the routes, so
    /// the next frame is a full fallback.
    send_chan: Vec<DeltaChannel>,
    /// Per-neighbour ghost delta channels, receive side. Never reset in
    /// steady state — a full frame is self-describing and resynchronises
    /// the channel on arrival. A [`DesyncError`](crate::frame::DesyncError)
    /// resets the channel and raises the matching `ghost_resync_req` bit.
    recv_chan: Vec<DeltaChannel>,
    /// Per-neighbour ghost-resync requests (parallel to `neighbors`): set
    /// when a ghost frame from that neighbour could not be applied; rides
    /// the next round-1 frame — the next rebuild step's, which is when a
    /// delta stream can first heal — so the peer restarts the stream with
    /// a full frame. A single-exchange rank has no round 1: the request
    /// rides its next frame of any kind.
    ghost_resync_req: Vec<bool>,
    /// Ghost frames that could not be applied — a delta decode that
    /// failed, a mid-epoch refresh that did not fit the recorded routes —
    /// and were absorbed by degrading (skip that neighbour's ghosts for
    /// the step, request a resync).
    ghost_desyncs: u64,
    /// Desyncs the test-only [`DesyncInject`](crate::config::DesyncInject)
    /// hook has forced so far.
    desyncs_injected: u32,
    /// A single-exchange step's own departers whose new cell borders this
    /// PE: it ships them away and keeps seeing them as ghosts, so they
    /// are staged at the send and binned with the received ghosts.
    kept_ghosts: Vec<(u64, Vec3)>,
    /// Per-neighbour `(count, id sum)` of the ghosts binned this rebuild
    /// step into cells that neighbour owns — what the slot routes are
    /// proven against (`skin > 0` only).
    ghost_tally: Vec<(usize, u64)>,
    /// Retained ghost re-binning staging; key set kept equal to
    /// `ghosts`' so the per-step scatter reuses every allocation.
    ghost_staging: BTreeMap<Col, Vec<Particle>>,
    /// Retained delta-decode output scratch.
    ghost_decode: Vec<(u64, Vec3)>,
    /// Deterministic accumulated-displacement tracker driving the
    /// rebuild decision (`cfg.skin > 0` only). Fed the *global* max
    /// predicted travel via the rebuild collective, so every rank holds
    /// the identical value and rebuilds on the same step.
    tracker: DispTracker,
    /// True when the step being computed is a rebuild step (re-bin,
    /// migrate, DLB, ghost-membership refresh, list re-record). Always
    /// true with `cfg.skin == 0` — the legacy every-step schedule.
    rebuild_now: bool,
    /// SoA position/force field for the Verlet replay: owned slots in
    /// the flat force layout, ghost slots appended in ascending
    /// ghost-column order. Rebuilt each epoch, positions refreshed each
    /// step.
    soa: SoaField,
    /// The recorded half-shell walk replayed between rebuilds.
    vlist: VerletList,
    /// Per-neighbour in-place ghost update routes, parallel to
    /// `neighbors`, recorded at each rebuild step: the slot runs of the
    /// frozen ghost slabs that hold that neighbour's ghosts, in the order
    /// it packs them — ascending (column, z cell, id), the order of its
    /// `ghost_routes` over its own frozen slabs. Mid-epoch refresh frames
    /// carry the identical membership in that order (nothing migrates or
    /// re-bins between rebuilds), so the positions are written straight
    /// through the runs — no ids, no re-binning, no sorting.
    ghost_slot_routes: Vec<Vec<(Col, Range<usize>)>>,
    /// Pooled coalesced step-message send buffers, reused across steps.
    step_pool: BufferPool<StepFrame>,
    /// Pooled flat-particle send buffers (cell transfer).
    part_pool: BufferPool<ParticleFrame>,
    /// Per-phase actual-vs-baseline byte accounting for this rank.
    wire: WireBytes,
    /// Accumulated per-phase wall times over the run.
    phase: PhaseTimes,
}

impl PeState {
    /// Build the PE's state on a fresh world: replay `plan` — the launch
    /// plan's transfers ([`crate::launch::launch_plan`]; none for a run
    /// that does not balance) — into this rank's view, as decisions
    /// already made, and adopt the cells it then owns out of `placed`,
    /// the world's whole initial condition.
    pub fn new(
        rank: usize,
        cfg: &RunConfig,
        shape: DomainShape,
        placed: &Placed,
        plan: &[DlbDecision],
    ) -> Self {
        let mut pe = Self::scaffold(rank, cfg, shape);
        for d in plan {
            pe.decomp.apply(d);
        }
        pe.adopt_particles(placed);
        pe
    }

    /// Rebuild a square-pillar PE's state from a distributed checkpoint:
    /// replay the checkpointed ownership into this rank's view and stage
    /// the checkpointed particles into the columns this rank owns.
    /// Pillar only — a checkpoint records one owner per column, which is
    /// what the pillar's balancer moves; recovery, takeover and elastic
    /// runs are validated pillar-only upstream.
    ///
    /// Forces are *not* stored in the checkpoint — the caller recomputes
    /// them, which reproduces the checkpointed run's force array bitwise:
    /// the saved positions are exactly the positions those forces were
    /// evaluated at (velocity Verlet only touches velocities after the
    /// force pass).
    pub fn from_checkpoint(rank: usize, cfg: &RunConfig, ck: &SimCheckpoint) -> Self {
        let mut pe = Self::scaffold(rank, cfg, DomainShape::SquarePillar);
        assert_eq!(
            ck.md.particles.len(),
            cfg.n_particles,
            "checkpoint particle count does not match the configuration"
        );
        // Replayed as decisions already made — "`col` now belongs to
        // `owner`" — so the windowed view filters them as it did live.
        for &(col, owner) in &ck.ownership {
            pe.decomp.apply(&DlbDecision {
                col,
                from: owner,
                to: owner,
            });
        }
        pe.adopt_particles(&Placed::new(cfg, &ck.md.particles));
        // The initial force pass after a restore recomputes the
        // checkpointed step's forces — with drifting speeds, its
        // published load numbers must use the checkpointed step too.
        pe.cur_step = ck.md.step;
        // Checkpoint steps are rebuild steps in every schedule.
        pe.last_rebuild = ck.md.step;
        // What the balancer holds between steps: the loads its neighbours
        // last announced and the transfers those loads have not seen. A
        // checkpoint without them (a drain remapped onto another torus, a
        // generation that did not balance) makes the launch announce.
        if pe.balances && !ck.loads.is_empty() {
            assert_eq!(
                ck.loads.len(),
                cfg.p,
                "checkpoint announces {} loads for {} ranks",
                ck.loads.len(),
                cfg.p
            );
            pe.announced_load = Some(ck.loads[rank]);
            pe.nbr_loads
                .extend(pe.neighbors.iter().map(|&nb| (nb, ck.loads[nb])));
            let heard = |t: &&Transfer| {
                let from = t.decision.from;
                from == rank || pe.neighbors.binary_search(&from).is_ok()
            };
            pe.decisions.extend(ck.transfers.iter().filter(heard));
        }
        pe
    }

    /// The state shell shared by [`PeState::new`] and
    /// [`PeState::from_checkpoint`]: everything but the particle columns.
    fn scaffold(rank: usize, cfg: &RunConfig, shape: DomainShape) -> Self {
        let decomp = decomposition(shape, rank, cfg);
        let own_z = decomp.z_extent(rank);
        // The neighbour set, from the decomposition's starting state:
        // every other rank owning a cell adjacent to one of ours. Those
        // cells are the shell the closure test below looks out from.
        let nc = cfg.nc;
        let mut nbrs: BTreeSet<usize> = BTreeSet::new();
        let mut shell: BTreeSet<(Col, usize, usize)> = BTreeSet::new();
        let balances = decomp.has_balancer() && cfg.dlb;
        let fixed = !balances;
        for col in all_columns(nc) {
            if decomp.owner_of(col, own_z.start) == rank {
                for span in owned_spans(nc, &own_z) {
                    for (ncol, nspan, owner) in foreign_around(&*decomp, nc, rank, col, span) {
                        nbrs.insert(owner);
                        if fixed {
                            shell.insert((ncol, nspan.start, nspan.end));
                        }
                    }
                }
            }
        }
        let neighbors: Vec<usize> = nbrs.into_iter().collect();
        let n_nbrs = neighbors.len();
        // One exchange per rebuild step needs ownership that never moves
        // and a neighbour set closed two cells out: a particle leaving
        // for a cell next to ours is announced by us to every rank
        // bordering that cell, so each of those must be a neighbour.
        let single_exchange = fixed
            && shell.iter().all(|&(col, z0, z1)| {
                foreign_around(&*decomp, nc, rank, col, z0..z1)
                    .all(|f| neighbors.binary_search(&f.2).is_ok())
            });
        Self {
            cfg: cfg.clone(),
            rank,
            nc,
            box_len: cfg.box_len(),
            cell_len: cfg.cell_len(),
            kernel: PairKernel::new(cfg.lj),
            decomp,
            own_z,
            neighbors,
            balances,
            single_exchange,
            columns: BTreeMap::new(),
            forces: Vec::new(),
            ghosts: BTreeMap::new(),
            last_work: WorkCounters::default(),
            last_force_virtual: 0.0,
            last_force_wall: 0.0,
            last_balance: 0.0,
            cur_step: 0,
            routes_dirty: true,
            ghost_routes: vec![Vec::new(); n_nbrs],
            homes: Vec::new(),
            cell_class: Vec::new(),
            home_base: Vec::new(),
            col_work: Vec::new(),
            migrate_staging: BTreeMap::new(),
            migrate_out: vec![Vec::new(); n_nbrs],
            nbr_loads: Vec::new(),
            booked_loads: Vec::new(),
            announced_load: None,
            my_decision: None,
            decisions: Vec::new(),
            last_rebuild: 0,
            send_chan: (0..n_nbrs).map(|_| DeltaChannel::default()).collect(),
            recv_chan: (0..n_nbrs).map(|_| DeltaChannel::default()).collect(),
            ghost_resync_req: vec![false; n_nbrs],
            ghost_desyncs: 0,
            desyncs_injected: 0,
            kept_ghosts: Vec::new(),
            ghost_tally: vec![(0, 0); n_nbrs],
            ghost_staging: BTreeMap::new(),
            ghost_decode: Vec::new(),
            tracker: DispTracker::new(),
            rebuild_now: true,
            soa: SoaField::new(),
            vlist: VerletList::new(),
            ghost_slot_routes: vec![Vec::new(); n_nbrs],
            step_pool: BufferPool::new(),
            part_pool: BufferPool::new(),
            wire: WireBytes::default(),
            phase: PhaseTimes::default(),
        }
    }

    /// Create a column for every column this PE owns a cell of, filled
    /// with its cells' run of `placed` — which is in the slab's
    /// (cell, id) order already.
    fn adopt_particles(&mut self, placed: &Placed) {
        let (nc, cell_len, rank) = (self.nc, self.cell_len, self.rank);
        self.columns = all_columns(nc)
            .filter(|&col| self.decomp.owner_of(col, self.own_z.start) == rank)
            .map(|col| {
                let mut slab = CellSlab::empty(nc);
                let parts = placed.column(col, self.own_z.clone());
                slab.rebuild_sorted(nc, parts, |p| axis_bin(p.pos.z, cell_len, nc));
                (col, slab)
            })
            .collect();
    }

    /// The ranks this PE exchanges its step frames with, ascending.
    pub fn neighbors(&self) -> &[usize] {
        &self.neighbors
    }

    /// Whether a rebuild step of this run is a single exchange — migrants
    /// and ghosts in one frame per neighbour — rather than two rounds.
    /// True when ownership cannot change this run (the shape has no
    /// balancer or `cfg.dlb` leaves it off, so no decision ever sits
    /// between migration and the ghost shells) and the closure test holds:
    /// every rank owning a cell within two cells of one of this PE's is
    /// the PE itself or a neighbour. Block grids and pillar tori pass with
    /// blocks / tiles at least two cells wide or a torus side of at most
    /// 3. The layouts are translation-symmetric, so every rank of a world
    /// reaches the same answer.
    pub fn exchanges_once(&self) -> bool {
        self.single_exchange
    }

    /// Whether this run balances: the shape has a balancer and `cfg.dlb`
    /// is on. Loads then ride every round-1 frame.
    pub(crate) fn balances(&self) -> bool {
        self.balances
    }

    /// Number of cells this PE currently owns (its columns × its z extent).
    pub fn owned_cells(&self) -> usize {
        self.columns.len() * self.own_z.len()
    }

    /// Number of particles this PE currently owns.
    pub fn num_particles(&self) -> usize {
        self.columns.values().map(CellSlab::len).sum()
    }

    fn col_of(&self, pos: Vec3) -> Col {
        self.cell_of(pos).0
    }

    fn cell_of(&self, pos: Vec3) -> (Col, usize) {
        let f = |v: f64| axis_bin(v, self.cell_len, self.nc);
        (Col::new(f(pos.x), f(pos.y)), f(pos.z))
    }

    /// Bin a flat particle list into one column's `nc` z cells.
    fn build_column(&self, parts: Vec<Particle>) -> CellSlab {
        let cell_len = self.cell_len;
        let nc = self.nc;
        CellSlab::build(nc, parts, move |p| axis_bin(p.pos.z, cell_len, nc))
    }

    /// The load value fed to the balancer (per the configured metric and
    /// speed-awareness; see the `last_balance` field).
    fn last_load(&self) -> f64 {
        self.last_balance
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// Phase 1: half-kick with current forces, then drift. The flat
    /// force array is the owned columns concatenated in ascending column
    /// order, so a running base index realigns it. The periodic wrap is
    /// applied on rebuild steps only: between rebuilds the cell binning
    /// is frozen, and wrapping a drifted boundary particle would
    /// teleport it across the box while its frozen cell (and the
    /// recorded shift vectors) stay put. With `skin == 0` every step is
    /// a rebuild step and this is the legacy wrap-every-step schedule.
    pub(crate) fn kick_drift_all(&mut self) {
        let dt = self.cfg.dt;
        let box_len = self.box_len;
        let wrap = self.rebuild_now;
        let mut base = 0usize;
        for slab in self.columns.values_mut() {
            let n = slab.len();
            for (p, f) in slab
                .particles_mut()
                .iter_mut()
                .zip(&self.forces[base..base + n])
            {
                if wrap {
                    kick_drift(p, *f, dt, box_len);
                } else {
                    kick_drift_nowrap(p, *f, dt);
                }
            }
            base += n;
        }
        debug_assert_eq!(base, self.forces.len());
    }

    /// Rebuild-decision collective, gather half (`skin > 0` only —
    /// returns `None` with `skin == 0`, where every step re-bins and no
    /// messages flow, keeping the legacy wire sequence byte-identical).
    ///
    /// Each rank folds its owned particles' predicted per-step travel
    /// into a local max and gathers it to rank 0 under
    /// `tags::REBUILD_GATHER`; the root folds the per-rank maxima
    /// (`f64::max` is order-independent, so the result equals the serial
    /// reference's whole-system max bitwise). Feed the result to
    /// [`PeState::rebuild_apply`].
    pub(crate) fn rebuild_gather(&mut self, comm: &mut Comm) -> Option<Option<f64>> {
        if self.cfg.skin == 0.0 {
            return None;
        }
        let mut local = 0.0f64;
        let mut base = 0usize;
        for slab in self.columns.values() {
            let n = slab.len();
            local = local.max(verlet::max_predicted_travel2(
                slab.particles(),
                &self.forces[base..base + n],
                self.cfg.dt,
            ));
            base += n;
        }
        let gathered = collectives::gather(comm, tags::REBUILD_GATHER, local);
        Some(gathered.map(|locals| locals.into_iter().fold(0.0f64, f64::max)))
    }

    /// Rebuild-decision collective, broadcast-and-decide half: broadcast
    /// the global max predicted travel from rank 0, advance the
    /// displacement tracker, and decide whether this step re-binds the
    /// world. The decision is a pure function of replicated state
    /// (tracker + global max + the checkpoint cadence), so every rank —
    /// and the serial reference — picks the identical step sequence.
    /// Checkpoint-cadence steps are *forced* rebuild steps whether or
    /// not a checkpoint is actually taken: restores re-bin from wrapped
    /// positions, so the cadence itself must be a rebuild boundary in
    /// every schedule that could be compared against.
    pub(crate) fn rebuild_apply(
        &mut self,
        comm: &mut Comm,
        step: u64,
        root_max: Option<f64>,
    ) -> bool {
        let gmax2 = collectives::bcast(comm, tags::REBUILD_BCAST, root_max);
        self.tracker.advance(gmax2, self.cfg.dt);
        let forced =
            self.cfg.checkpoint_interval > 0 && step.is_multiple_of(self.cfg.checkpoint_interval);
        let rebuild = forced || self.tracker.exceeds(self.cfg.skin);
        if rebuild {
            self.tracker.reset();
        }
        self.rebuild_now = rebuild;
        rebuild
    }

    /// Rebuild the ownership-derived caches when ownership (or the
    /// owned-column set) changed: the per-cell classes, the per-neighbour
    /// ghost routes, the home-column list with its forward rings, and the
    /// ghost/staging key sets. Cold path — runs at startup and after a
    /// DLB transfer, never in the steady state, so its allocations stay
    /// off the hot path.
    fn refresh_caches(&mut self) {
        if !self.routes_dirty {
            return;
        }
        self.routes_dirty = false;
        let (nc, rank) = (self.nc, self.rank);
        for r in &mut self.ghost_routes {
            r.clear();
        }
        // Classify every owned cell by who owns the cells around it, on a
        // scratch grid over the whole box (indexed like the cell grid).
        let mut grid = vec![CellClass::Unseen; nc * nc * nc];
        let column = |col: Col| (col.cx * nc + col.cy) * nc..(col.cx * nc + col.cy + 1) * nc;
        for &col in self.columns.keys() {
            for span in owned_spans(nc, &self.own_z) {
                for (ncol, nspan, owner) in
                    foreign_around(&*self.decomp, nc, rank, col, span.clone())
                {
                    grid[column(ncol)][nspan].fill(CellClass::Ghost);
                    let i = self.neighbors.binary_search(&owner).unwrap_or_else(|_| {
                        panic!("rank {rank}: ghost target {owner} is not a neighbour")
                    });
                    // Owned cells are visited in ascending (column, z)
                    // order, so merging into the route's tail keeps it
                    // sorted and free of repeats.
                    match self.ghost_routes[i].last_mut() {
                        Some((c, r)) if *c == col && r.end >= span.start => {
                            r.end = r.end.max(span.end)
                        }
                        _ => self.ghost_routes[i].push((col, span.clone())),
                    }
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
                    owned: self.columns.contains_key(&col),
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
                let (ncol, sx, sy) = wrap_col(nc, self.box_len, col, dx, dy);
                self.homes
                    .binary_search_by_key(&ncol, |h| h.col)
                    .ok()
                    .map(|ni| (ni, sx, sy))
            });
        }
        // Keep the ghost slabs' (and ghost staging's) key sets equal to
        // the expected receive set, preserving the allocations of
        // surviving columns.
        self.ghosts
            .retain(|&c, _| grid[column(c)].contains(&CellClass::Ghost));
        self.ghost_staging
            .retain(|c, _| self.ghosts.contains_key(c));
        for home in self.homes.iter().filter(|h| h.ghost) {
            self.ghosts
                .entry(home.col)
                .or_insert_with(|| CellSlab::empty(nc));
            self.ghost_staging.entry(home.col).or_default();
        }
        // Keep the migration staging key set equal to the owned columns'.
        let columns = &self.columns;
        self.migrate_staging.retain(|c, _| columns.contains_key(c));
        for &c in columns.keys() {
            self.migrate_staging.entry(c).or_default();
        }
        // No delta-channel reset here: an ownership move may redraw the
        // shells discontinuously, but the sender picks the smaller of
        // delta and full encodings per frame, so a redrawn shell just
        // ships as a full frame and both ends roll forward off it.
    }

    /// Re-bin every owned particle by its drifted position: stayers into
    /// `migrate_staging`, departers into `migrate_out` by new owner. With
    /// `announce` (the single-exchange step) a departer is also staged as
    /// a ghost for everyone but its new owner whose cells border its new
    /// cell — on the neighbour's send channel, or in `kept_ghosts` when
    /// that is this PE — since no round 2 of the new owner will carry it.
    /// Allocation-free in the steady state.
    fn rebin_owned(&mut self, announce: bool) {
        for v in self.migrate_staging.values_mut() {
            v.clear();
        }
        for v in &mut self.migrate_out {
            v.clear();
        }
        self.kept_ghosts.clear();
        let (cell_len, nc, rank) = (self.cell_len, self.nc, self.rank);
        let bin = move |v: f64| axis_bin(v, cell_len, nc);
        let whole = self.own_z.len() == nc;
        let decomp = &*self.decomp;
        let neighbors = &self.neighbors;
        let staging = &mut self.migrate_staging;
        let out = &mut self.migrate_out;
        let nbr_index = |owner: usize, p: &Particle, cell: (Col, usize)| {
            neighbors.binary_search(&owner).unwrap_or_else(|_| {
                panic!(
                    "rank {rank}: particle {} jumped to cell {cell:?}, which concerns \
                     non-neighbour {owner} — time step too large",
                    p.id
                )
            })
        };
        for slab in self.columns.values() {
            for p in slab.particles() {
                let (ncol, ncz) = (Col::new(bin(p.pos.x), bin(p.pos.y)), bin(p.pos.z));
                let owner = decomp.owner_of(ncol, ncz);
                if owner == rank {
                    staging
                        .get_mut(&ncol)
                        .unwrap_or_else(|| {
                            panic!("rank {rank}: missing storage for owned column {ncol:?}")
                        })
                        .push(*p);
                    continue;
                }
                out[nbr_index(owner, p, (ncol, ncz))].push(*p);
                if announce {
                    let span = if whole { 0..nc } else { ncz..ncz + 1 };
                    let mut told = [usize::MAX; 27];
                    let mut n = 0;
                    for (.., r) in foreign_around(decomp, nc, owner, ncol, span) {
                        if told[..n].contains(&r) {
                            continue;
                        }
                        told[n] = r;
                        n += 1;
                        if r == rank {
                            self.kept_ghosts.push((p.id, p.pos));
                        } else {
                            let chan = &mut self.send_chan[nbr_index(r, p, (ncol, ncz))];
                            chan.scratch.push((p.id, p.pos));
                        }
                    }
                }
            }
        }
    }

    /// Rebuild every owned column in place from its staged particles.
    fn rebuild_columns(&mut self) {
        let (cell_len, nc) = (self.cell_len, self.nc);
        let zbin = move |p: &Particle| axis_bin(p.pos.z, cell_len, nc);
        let staging = &mut self.migrate_staging;
        for (col, slab) in self.columns.iter_mut() {
            let staged = staging
                .get_mut(col)
                .expect("staging key set matches the owned columns");
            slab.rebuild_from(nc, staged, zbin);
        }
    }

    /// Fill the migrant section of the frame for neighbour `i` — its
    /// emigrants by id, plus a pending ghost-resync request (zero wire
    /// bytes: it rides the presence header) — and account its bytes.
    fn fill_migrants(&mut self, i: usize, frame: &mut StepFrame) {
        // A ghost frame that could not be applied asks this neighbour to
        // restart its delta stream with a full frame.
        frame.resync = std::mem::take(&mut self.ghost_resync_req[i]);
        frame.migrants.parts.extend_from_slice(&self.migrate_out[i]);
        // Deterministic payloads: order emigrants by id.
        frame.migrants.parts.sort_unstable_by_key(|p| p.id);
        // Pre-diet layout: one flat particle message, plus a separate
        // 8-byte load message where a load rides along.
        self.wire.migrate_baseline +=
            (8 + 56 * frame.migrants.parts.len() as u64) + if frame.load.is_some() { 8 } else { 0 };
    }

    /// Stage the immigrants of one received frame into their columns.
    fn stage_immigrants(&mut self, parts: &[Particle]) {
        let rank = self.rank;
        for p in parts {
            let (ncol, ncz) = self.cell_of(p.pos);
            debug_assert_eq!(
                self.decomp.owner_of(ncol, ncz),
                rank,
                "rank {rank}: received particle {} for column {ncol:?} it does not own",
                p.id
            );
            self.migrate_staging
                .get_mut(&ncol)
                .unwrap_or_else(|| panic!("rank {rank}: missing storage for owned column {ncol:?}"))
                .push(*p);
        }
    }

    /// Whether the balancer runs on this step, and the step's entry in
    /// the rebuild history that answer depends on. Balancing is due at the
    /// first rebuild step at or after each multiple of `dlb_interval` — a
    /// multiple lies in `(previous rebuild, step]` — which is replicated
    /// state, is "every `dlb_interval`-th step" where every step rebuilds,
    /// and survives a restore (checkpoint steps are forced rebuilds).
    pub(crate) fn dlb_due(&mut self, step: u64, rebuild: bool) -> bool {
        if !rebuild {
            return false;
        }
        let k = self.cfg.dlb_interval;
        let due = self.balances && step / k > self.last_rebuild / k;
        self.last_rebuild = step;
        due
    }

    /// Phase 3 (DLB), steps 1–3, run at the top of the step: apply the
    /// shape's balancer rule to the loads in hand — this PE's own, which
    /// its last force pass measured, and its neighbours' as the last
    /// round-1 frames brought them, with the transfers applied since
    /// those were measured booked onto them. Purely local; the decision
    /// waits in `my_decision` for [`PeState::step_send_round1`].
    pub(crate) fn dlb_decide(&mut self) {
        let t0 = WallTimer::start();
        debug_assert_eq!(self.nbr_loads.len(), self.neighbors.len());
        self.booked_loads.clear();
        self.booked_loads.extend_from_slice(&self.nbr_loads);
        let (cfg, step) = (&self.cfg, self.cur_step);
        // Where the run balances time, a share of the giver's time is
        // worth the two speeds' ratio on the receiver.
        let speeds = cfg.speed.as_ref().filter(|_| cfg.speed_aware);
        book_in_flight(&mut self.booked_loads, &self.decisions, |from, to| {
            speeds.map_or(1.0, |s| s.speed(from, step) / s.speed(to, step))
        });
        let decision = self
            .decomp
            .decide(step, self.last_load(), &self.booked_loads);
        // The load that changes hands, as a share of this PE's own: the
        // moved columns' candidate pairs over the last pass's total.
        self.my_decision = decision.map(|decision| Transfer {
            decision,
            work: match self.last_work.pair_checks {
                0 => 0.0,
                total => self.last_load() * (self.granule_checks(&decision) as f64 / total as f64),
            },
        });
        self.phase.dlb += t0.elapsed_s();
    }

    /// The full-shell candidate-pair count of the columns decision `d`
    /// moves — for every particle of theirs, the particles in its cell
    /// and the 26 around it, read off the occupancies of the owned and
    /// ghost slabs the last force pass ran on. That count is what the
    /// work model charges this PE (the giver) for them, and it does not
    /// depend on who owns the columns.
    fn granule_checks(&self, d: &DlbDecision) -> u64 {
        let nc = self.nc;
        let occupancy = |col: Col, cz: usize| {
            let slab = self.columns.get(&col).or_else(|| self.ghosts.get(&col));
            slab.map_or(0, |s| s.cell(cz).len()) as u64
        };
        let mut checks = 0u64;
        for col in self.decomp.granule(d) {
            for cz in 0..nc {
                let here = occupancy(col, cz);
                if here > 0 {
                    let around: u64 = cells_around(nc, col, cz..cz + 1)
                        .map(|(c, z)| occupancy(c, z.start))
                        .sum();
                    checks += here * (around - 1);
                }
            }
        }
        checks
    }

    /// Phase 2 (+ the balancer's ride-along), send half: rebin locally
    /// and ship one round-1 [`StepFrame`] — emigrants, plus in a
    /// balancing run this PE's last-step load and, when it decided to
    /// give a cell away this step, the decision — to each neighbour owner
    /// under `tags::STEP_FRAME`; retained particles stay staged in
    /// `migrate_staging` for [`PeState::step_recv_round1`]. Splitting the
    /// phase lets a thread running two virtual ranks post *both* ranks'
    /// sends before either blocks in a receive. Allocation-free in the
    /// steady state: the staging lists, per-neighbour outboxes, and
    /// pooled send frames are all reused across steps.
    /// Two-round rebuild steps only: mid-epoch the binning is frozen,
    /// nothing migrates, and no round-1 frame is sent at all; a
    /// single-exchange step migrates inside [`PeState::ghosts_send`].
    /// A launch that starts without loads in hand runs this round once
    /// before its first step, migrant-free, to announce them.
    pub(crate) fn step_send_round1(&mut self, comm: &mut Comm) {
        self.refresh_caches();
        let t0 = WallTimer::start();
        self.rebin_owned(false);
        let load = self.balances.then(|| self.last_load());
        self.announced_load = load;
        for i in 0..self.neighbors.len() {
            let nb = self.neighbors[i];
            let mut buf = self.step_pool.checkout();
            let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
            frame.begin_round1(load, self.my_decision);
            self.fill_migrants(i, frame);
            // The decision section stays on the balancer's account.
            let decision_bytes = frame.decision_size();
            self.wire.dlb += decision_bytes as u64;
            self.wire.migrate += (frame.encoded_size() - decision_bytes) as u64;
            comm.send(nb, tags::STEP_FRAME, Arc::clone(&buf));
            self.step_pool.checkin(buf);
        }
        self.phase.migrate += t0.elapsed_s();
    }

    /// Phase 2, receive half: collect immigrants and rebuild the columns
    /// in place, reusing every slab's storage. In a balancing run the
    /// same frames bring the neighbours' loads — kept for the next
    /// decision — and, on DLB steps, their decisions: merged with this
    /// PE's own and folded into the ownership view in ascending `from`
    /// order (phase 3, step 4), ready for the cell-transfer halves. The
    /// loads just received have seen every earlier transfer, so this
    /// step's decisions are all that stays in flight.
    pub(crate) fn step_recv_round1(&mut self, comm: &mut Comm) {
        let t0 = WallTimer::start();
        let rank = self.rank;
        self.nbr_loads.clear();
        self.decisions.clear();
        self.decisions.extend(self.my_decision.take());
        for i in 0..self.neighbors.len() {
            let nb = self.neighbors[i];
            let incoming: Arc<StepFrame> = comm.recv(nb, tags::STEP_FRAME);
            debug_assert!(
                incoming.has_migrants && !incoming.has_ghosts,
                "rank {rank}: round-1 frame from {nb} has the wrong sections"
            );
            debug_assert_eq!(
                incoming.load.is_some(),
                self.balances,
                "rank {rank}: loads ride exactly the round-1 frames of a balancing run"
            );
            if incoming.resync {
                // The peer could not apply one of our ghost frames:
                // restart the stream so this step's round-2 frame (sent
                // after round-1 receives) arrives full and resyncs it.
                self.send_chan[i].reset();
            }
            self.nbr_loads.extend(incoming.load.map(|load| (nb, load)));
            self.decisions.extend(incoming.decision);
            self.stage_immigrants(&incoming.migrants.parts);
        }
        self.rebuild_columns();
        self.phase.migrate += t0.elapsed_s();
        let t0 = WallTimer::start();
        self.decisions.sort_unstable_by_key(|t| t.decision.from);
        // Decisions that exclude each other are void, all of them: judged
        // on the whole list (at most one per neighbour and this PE's own)
        // before any is dropped.
        let mut void = 0u64;
        for (i, a) in self.decisions.iter().enumerate() {
            let clashes = |b: &Transfer| self.decomp.excludes(&a.decision, &b.decision);
            void |= u64::from(self.decisions.iter().any(clashes)) << i;
        }
        let mut at = 0;
        self.decisions.retain(|_| {
            at += 1;
            void >> (at - 1) & 1 == 0
        });
        for t in &self.decisions {
            self.decomp.apply(&t.decision);
        }
        // Ownership moved: the routing/class caches must be rebuilt
        // before the next ghost exchange or force pass — but only here
        // if they can differ. They are a function of the owned column set
        // and of who owns the columns around it, so a transfer between
        // two other PEs of a column that touches none of ours leaves
        // them as they are (on a 3×3 torus every PE hears every decision).
        if self
            .decisions
            .iter()
            .any(|t| self.redraws_caches(&t.decision))
        {
            self.routes_dirty = true;
        }
        self.phase.dlb += t0.elapsed_s();
    }

    /// Whether decision `d` can change what [`PeState::refresh_caches`]
    /// derives: this PE gives or takes the column, or the column touches
    /// one this PE owns (judged before the cells move — a column gained
    /// in the same step comes with a decision that names this PE).
    fn redraws_caches(&self, d: &DlbDecision) -> bool {
        d.from == self.rank
            || d.to == self.rank
            || cells_around(self.nc, d.col, 0..self.nc).any(|(c, _)| self.columns.contains_key(&c))
    }

    /// Phase 3, data-movement send half: ship the particles of the
    /// columns this PE gave away this step, one id-sorted frame per
    /// decision. Returns the number of transfers sent.
    pub(crate) fn dlb_send_cells(&mut self, comm: &mut Comm) -> u64 {
        let t0 = WallTimer::start();
        let mut sent = 0u64;
        for i in 0..self.decisions.len() {
            let d = self.decisions[i].decision;
            if d.from == self.rank {
                let mut buf = self.part_pool.checkout();
                let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
                frame.parts.clear();
                for col in self.decomp.granule(&d) {
                    let slab = self
                        .columns
                        .remove(&col)
                        .expect("sender owns the column data");
                    frame.parts.extend_from_slice(slab.particles());
                }
                frame.parts.sort_unstable_by_key(|p| p.id);
                self.wire.dlb += frame.encoded_size() as u64;
                comm.send(d.to, tags::CELL_XFER, Arc::clone(&buf));
                self.part_pool.checkin(buf);
                sent += 1;
            }
        }
        self.phase.dlb += t0.elapsed_s();
        sent
    }

    /// Phase 3, data-movement receive half: collect columns granted to
    /// this PE (ordered by sender rank).
    pub(crate) fn dlb_recv_cells(&mut self, comm: &mut Comm) {
        let t0 = WallTimer::start();
        for i in 0..self.decisions.len() {
            let d = self.decisions[i].decision;
            if d.to == self.rank {
                let flat: Arc<ParticleFrame> = comm.recv(d.from, tags::CELL_XFER);
                let mut staging: BTreeMap<Col, Vec<Particle>> = self
                    .decomp
                    .granule(&d)
                    .into_iter()
                    .map(|c| (c, Vec::new()))
                    .collect();
                for p in &flat.parts {
                    staging
                        .get_mut(&self.col_of(p.pos))
                        .expect("transferred particle lies in a transferred column")
                        .push(*p);
                }
                for (col, parts) in staging {
                    let slab = self.build_column(parts);
                    self.columns.insert(col, slab);
                }
            }
        }
        self.phase.dlb += t0.elapsed_s();
    }

    /// Phase 4 (round 2), send half: post the boundary-shell ghosts to
    /// the neighbours, one pooled [`StepFrame`] per neighbour along the
    /// cached routes. Each frame ships `(id, pos)` pairs only — no
    /// velocities, no column directory, nothing for empty cells — and is
    /// delta-encoded against the previous rebuild step's frame on the
    /// same channel whenever the channel is valid (see [`DeltaChannel`]).
    ///
    /// [`Exchange::Refresh`] (mid-epoch): the shells are frozen, the frame
    /// is a positions-only refresh packed straight off the same routes,
    /// and the delta channels are not touched.
    ///
    /// [`Exchange::Single`]: phase 2 happens here too. The PE re-bins
    /// locally first and each frame carries both sections — *migrants*,
    /// the PE's particles whose new cell the neighbour owns, and *ghosts*,
    /// every other particle it held whose new cell borders a cell of the
    /// neighbour's: its stayers along the routes plus its departers to a
    /// third rank (see [`PeState::rebin_owned`]). Each particle is thus
    /// announced by the one rank that held it before the step, to exactly
    /// the ranks that hold it as a ghost under two rounds.
    pub(crate) fn ghosts_send(&mut self, comm: &mut Comm, exchange: Exchange) {
        self.refresh_caches();
        let t0 = WallTimer::start();
        if exchange == Exchange::Single {
            self.rebin_owned(true);
            self.rebuild_columns();
        }
        let delta_ok = self.cfg.delta_ghosts;
        let epoch = comm.epoch();
        for i in 0..self.neighbors.len() {
            let nb = self.neighbors[i];
            let mut buf = self.step_pool.checkout();
            let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
            let mut migrant_bytes = 0;
            match exchange {
                Exchange::Shells => frame.begin_round2(),
                Exchange::Single => {
                    frame.begin_single();
                    self.fill_migrants(i, frame);
                    migrant_bytes = frame.migrants.encoded_size();
                }
                Exchange::Refresh => {
                    frame.begin_refresh();
                    if self.single_exchange {
                        frame.resync = std::mem::take(&mut self.ghost_resync_req[i]);
                    }
                }
            }
            let chan = &mut self.send_chan[i];
            let mut baseline = 8u64;
            for (col, span) in &self.ghost_routes[i] {
                let slab = &self.columns[col];
                let parts =
                    &slab.particles()[slab.range(span.start).start..slab.range(span.end - 1).end];
                baseline += 24 + 56 * parts.len() as u64;
                if exchange == Exchange::Refresh {
                    frame.refresh.pos.extend(parts.iter().map(|p| p.pos));
                } else {
                    chan.scratch.extend(parts.iter().map(|p| (p.id, p.pos)));
                }
            }
            if exchange != Exchange::Refresh {
                chan.sync_epoch(epoch);
                chan.encode_into(delta_ok, &mut frame.ghosts);
            }
            self.wire.migrate += migrant_bytes as u64;
            self.wire.ghost += (frame.encoded_size() - migrant_bytes) as u64;
            // Pre-diet layout: full particles with a per-column directory.
            self.wire.ghost_baseline += baseline;
            comm.send(nb, tags::STEP_FRAME, Arc::clone(&buf));
            self.step_pool.checkin(buf);
        }
        self.phase.ghost += t0.elapsed_s();
    }

    /// Phase 4 (round 2), receive half. On rebuild steps (every step with
    /// `skin == 0`): decode the neighbours' ghost frames through the
    /// per-channel delta state, re-bin each ghost by its position into
    /// the retained staging lists, and rebuild the ghost slabs in place —
    /// same `(cell, id)` order as before, no allocation in the steady
    /// state; an [`Exchange::Single`] frame also brings the step's
    /// immigrants, which are merged into the owned columns. Mid-epoch
    /// ([`Exchange::Refresh`]): the frames are positions-only refreshes of
    /// the identical membership, written straight into the frozen slab
    /// slots through the routes recorded at the last rebuild.
    pub(crate) fn ghosts_recv(&mut self, comm: &mut Comm, exchange: Exchange) {
        let t0 = WallTimer::start();
        match exchange {
            Exchange::Refresh => self.ghosts_recv_refresh(comm),
            _ => self.ghosts_recv_rebin(comm, exchange == Exchange::Single),
        }
        self.phase.ghost += t0.elapsed_s();
    }

    /// A ghost frame from neighbour `i` could not be applied: degrade —
    /// run this step without that neighbour's (fresh) ghosts — and ask
    /// for a full-frame resync in the next frame that can carry the
    /// request rather than killing the world over one bad stream. On the
    /// two-round path that is the next rebuild step's round 1, and the
    /// same step's round 2 heals the stream. A single-exchange rank's
    /// next frame crosses the peer's next frame in flight: that one is
    /// still a delta against the lost state and is dropped (and counted)
    /// the same way, and the full frame arrives one rebuild step later.
    fn ghost_desync(&mut self, i: usize) {
        self.ghost_resync_req[i] = true;
        self.ghost_desyncs += 1;
    }

    /// Stage one ghost into its column's re-binning list and, when slot
    /// routes will be recorded, tally it under the neighbour owning its
    /// cell.
    fn stage_ghost(&mut self, id: u64, pos: Vec3) {
        let rank = self.rank;
        let col = self.col_of(pos);
        self.ghost_staging
            .get_mut(&col)
            .unwrap_or_else(|| panic!("rank {rank}: received unexpected ghost column {col:?}"))
            .push(Particle::at_rest(id, pos));
        if self.cfg.skin > 0.0 {
            let cz = axis_bin(pos.z, self.cell_len, self.nc);
            let owner = self.decomp.owner_of(col, cz);
            let i = self
                .neighbors
                .binary_search(&owner)
                .unwrap_or_else(|_| panic!("rank {rank}: ghost owner {owner} is no neighbour"));
            let (n, sum) = &mut self.ghost_tally[i];
            *n += 1;
            *sum = sum.wrapping_add(id);
        }
    }

    fn ghosts_recv_rebin(&mut self, comm: &mut Comm, single: bool) {
        let rank = self.rank;
        for v in self.ghost_staging.values_mut() {
            v.clear();
        }
        self.ghost_tally.fill((0, 0));
        // (Empty except on a single-exchange step.)
        let mut staged = std::mem::take(&mut self.kept_ghosts);
        for (id, pos) in staged.drain(..) {
            self.stage_ghost(id, pos);
        }
        self.kept_ghosts = staged;
        for i in 0..self.neighbors.len() {
            let nb = self.neighbors[i];
            let frame: Arc<StepFrame> = comm.recv(nb, tags::STEP_FRAME);
            debug_assert!(
                frame.has_ghosts && frame.has_migrants == single && !frame.has_refresh,
                "rank {rank}: rebuild-step ghost frame from {nb} has the wrong sections"
            );
            if single {
                if frame.resync {
                    // Too late for the frame in hand (the peer sent it
                    // before it saw ours): its next rebuild frame is full.
                    self.send_chan[i].reset();
                }
                // Whatever becomes of the ghost section, the migrants are
                // applied: they exist nowhere else any more.
                self.stage_immigrants(&frame.migrants.parts);
            }
            // Fault-injection hook (tests only): corrupt this channel's
            // membership record, whenever the stream is healthy, until
            // `times` desyncs have fired — back-to-back corruptions model
            // a resync storm.
            let poisoned = self.cfg.ghost_desync_inject.is_some_and(|inject| {
                inject.rank == rank
                    && inject.nbr == i
                    && self.desyncs_injected < inject.times.max(1)
                    && self.recv_chan[i].is_valid()
            });
            if poisoned {
                self.recv_chan[i].poison_membership();
            }
            let mut decoded = std::mem::take(&mut self.ghost_decode);
            if self.recv_chan[i]
                .decode_into(&frame.ghosts, &mut decoded)
                .is_err()
            {
                // A desynchronised delta stream: the decode delivered
                // nothing and reset the channel.
                self.ghost_desync(i);
                self.desyncs_injected += poisoned as u32;
            }
            for &(id, pos) in &decoded {
                self.stage_ghost(id, pos);
            }
            self.ghost_decode = decoded;
        }
        let (cell_len, nc) = (self.cell_len, self.nc);
        let zbin = move |p: &Particle| axis_bin(p.pos.z, cell_len, nc);
        let staging = &mut self.ghost_staging;
        for (col, slab) in self.ghosts.iter_mut() {
            let staged = staging
                .get_mut(col)
                .expect("ghost staging key set matches the expected ghost columns");
            slab.rebuild_from(nc, staged, zbin);
        }
        if single {
            self.adopt_arrivals();
        }
        if self.cfg.skin > 0.0 {
            self.record_ghost_slot_routes();
        }
    }

    /// Merge a single-exchange step's staged immigrants into the owned
    /// columns, which [`PeState::ghosts_send`] rebuilt from the stayers.
    fn adopt_arrivals(&mut self) {
        let (cell_len, nc) = (self.cell_len, self.nc);
        let zbin = move |p: &Particle| axis_bin(p.pos.z, cell_len, nc);
        for (col, staged) in self.migrate_staging.iter_mut() {
            if !staged.is_empty() {
                let slab = self
                    .columns
                    .get_mut(col)
                    .expect("staging key set matches the owned columns");
                staged.extend_from_slice(slab.particles());
                slab.rebuild_from(nc, staged, zbin);
            }
        }
    }

    /// Record the in-place update routes for the epoch that starts here.
    /// A neighbour packs its frames off its `ghost_routes`: its owned
    /// shell cells in ascending (column, z) order, each cell's particles
    /// by id. Those are exactly this PE's ghost cells owned by that
    /// neighbour, and the freshly rebuilt ghost slabs hold them in the
    /// same (cell, id) order — so walking the ghost cells ascending and
    /// handing each cell's slot run to its owner reproduces every
    /// neighbour's pack order without a sort or an id lookup. Each route
    /// is proven against the ghosts this step's frames brought for the
    /// cells that neighbour owns (count and id sum, tallied as they were
    /// binned — whichever channel carried them: on a single-exchange step
    /// a particle entering a neighbour's shell is announced by the rank
    /// it left; after a desync the lost ghosts are in neither), and in
    /// debug builds every cell's run is checked to be in ascending id
    /// order, since a refresh carries no ids to catch a slot mix-up
    /// later. All buffers are retained.
    fn record_ghost_slot_routes(&mut self) {
        let (nc, rank) = (self.nc, self.rank);
        for route in &mut self.ghost_slot_routes {
            route.clear();
        }
        for (hi, home) in self.homes.iter().enumerate().filter(|(_, h)| h.ghost) {
            let slab = &self.ghosts[&home.col];
            for cz in 0..nc {
                let slots = slab.range(cz);
                if self.cell_class[hi * nc + cz] != CellClass::Ghost || slots.is_empty() {
                    continue;
                }
                debug_assert!(
                    slab.particles()[slots.clone()]
                        .windows(2)
                        .all(|w| w[0].id < w[1].id),
                    "rank {rank}: ghost cell ({:?}, {cz}) is not in ascending id order",
                    home.col
                );
                let owner = self.decomp.owner_of(home.col, cz);
                let i = self
                    .neighbors
                    .binary_search(&owner)
                    .unwrap_or_else(|_| panic!("rank {rank}: ghost owner {owner} is no neighbour"));
                match self.ghost_slot_routes[i].last_mut() {
                    Some((c, run)) if *c == home.col && run.end == slots.start => {
                        run.end = slots.end
                    }
                    _ => self.ghost_slot_routes[i].push((home.col, slots)),
                }
            }
        }
        for (i, route) in self.ghost_slot_routes.iter().enumerate() {
            let routed = route
                .iter()
                .flat_map(|(col, run)| &self.ghosts[col].particles()[run.clone()])
                .fold((0usize, 0u64), |(n, sum), p| {
                    (n + 1, sum.wrapping_add(p.id))
                });
            assert_eq!(
                routed, self.ghost_tally[i],
                "rank {rank}: ghost routes for neighbour {} do not cover the ghosts received \
                 for its cells",
                self.neighbors[i]
            );
        }
    }

    fn ghosts_recv_refresh(&mut self, comm: &mut Comm) {
        let rank = self.rank;
        for i in 0..self.neighbors.len() {
            let nb = self.neighbors[i];
            let frame: Arc<StepFrame> = comm.recv(nb, tags::STEP_FRAME);
            debug_assert!(
                frame.has_refresh && !frame.has_ghosts && !frame.has_migrants,
                "rank {rank}: mid-epoch frame from {nb} has the wrong sections"
            );
            if frame.resync {
                // Only a single-exchange peer asks mid-epoch: its next
                // rebuild frame is its first chance otherwise, and ours
                // would cross it.
                self.send_chan[i].reset();
            }
            let have = self.ghost_slot_routes[i]
                .iter()
                .map(|(_, run)| run.len())
                .sum();
            let Ok(mut fresh) = frame.refresh.positions_for(have) else {
                // The rebuild step's decode from this neighbour desynced,
                // so none of its ghosts were binned and no route covers
                // them: they stay out for the rest of the epoch (the
                // layout is intact) and the next rebuild step heals the
                // stream.
                self.ghost_desync(i);
                continue;
            };
            for (col, run) in &self.ghost_slot_routes[i] {
                let slab = self
                    .ghosts
                    .get_mut(col)
                    .expect("route targets an expected ghost column");
                let (now, rest) = fresh.split_at(run.len());
                for (p, &pos) in slab.particles_mut()[run.clone()].iter_mut().zip(now) {
                    p.pos = pos;
                }
                fresh = rest;
            }
        }
    }

    /// Lay out the flat force array over the owned columns (home-column
    /// order, so the same ascending concatenation `kick_all` walks), give
    /// the ghost slabs the slots behind it, and reset the per-home work
    /// buckets.
    fn force_prologue(&mut self) {
        self.home_base.clear();
        self.home_base.resize(self.homes.len(), [0; 2]);
        let mut total = 0usize;
        for (home, base) in self.homes.iter().zip(&mut self.home_base) {
            if home.owned {
                base[0] = total;
                total += self.columns[&home.col].len();
            }
        }
        self.forces.clear();
        self.forces.resize(total, Vec3::ZERO);
        for (home, base) in self.homes.iter().zip(&mut self.home_base) {
            if home.ghost {
                base[1] = total;
                total += self.ghosts[&home.col].len();
            }
        }
        self.col_work.clear();
        self.col_work
            .resize(self.homes.len(), WorkCounters::default());
    }

    /// Phase 5: the force pass, in the canonical half-shell order (see
    /// module docs and [`Walk::for_each_block`]), after the step's ghost
    /// receive; counts full-shell work and measures wall time.
    ///
    /// Every pair is stored at its canonical per-slot position and its
    /// energy credited — ½ per stored side — into its home column's
    /// [`WorkCounters`] bucket; the buckets are folded in ascending home
    /// order.
    pub(crate) fn compute_forces(&mut self) {
        self.refresh_caches();
        let t0 = WallTimer::start();
        self.force_prologue();
        if self.cfg.verlet {
            self.force_pass_verlet();
        } else {
            self.force_pass_live();
        }
        self.force_epilogue(t0);
    }

    /// Phase 5, walked live: every kernel block of the half-shell walk
    /// evaluated on the slabs as they stand.
    fn force_pass_live(&mut self) {
        let box_len = self.box_len;
        let pull = self.cfg.pull();
        let kernel = &self.kernel;
        let forces = &mut self.forces;
        let col_work = &mut self.col_work;
        let walk = Walk {
            nc: self.nc,
            box_len,
            rank: self.rank,
            homes: &self.homes,
            class: &self.cell_class,
            base: &self.home_base,
            columns: &self.columns,
            ghosts: &self.ghosts,
        };
        // (Inlined into the walk, so each `match` arm below is resolved
        // at its one call site and no `Block` is ever built in memory.)
        walk.for_each_block(
            #[inline(always)]
            |bucket, block| {
                let w = &mut col_work[bucket];
                match block {
                    Block::Intra(h) => kernel.accumulate_intra(h.parts, &mut forces[h.slots()], w),
                    Block::Pair(h, n, shift) => {
                        let owned = |c: &CellRef| c.class == CellClass::Owned;
                        let (fa, fb) = match (owned(&h), owned(&n)) {
                            (true, true) => {
                                let (fa, fb) = disjoint_ranges_mut(forces, h.slots(), n.slots());
                                (Some(fa), Some(fb))
                            }
                            (true, false) => (Some(&mut forces[h.slots()]), None),
                            (false, true) => (None, Some(&mut forces[n.slots()])),
                            (false, false) => {
                                unreachable!("pair with no owned side is not visited")
                            }
                        };
                        kernel.accumulate_pair(h.parts, fa, n.parts, fb, shift, w);
                    }
                    Block::Pull(h) => {
                        if !pull.is_none() {
                            for (p, f) in h.parts.iter().zip(forces[h.slots()].iter_mut()) {
                                *f += pull.force(p.pos, box_len);
                                w.potential += pull.energy(p.pos, box_len);
                            }
                        }
                    }
                }
            },
        );
    }

    /// Phase 5, Verlet replay path (`cfg.verlet`): on rebuild steps
    /// re-record the walk over the fresh binning (ghosts included, reach
    /// `r_c + skin`), then — every step — replay the recording against
    /// positions refreshed from the authoritative slabs, with the
    /// store/credit policy of [`replay_action`]. The replayed sums are
    /// bitwise identical to the live walk over the same frozen binning.
    fn force_pass_verlet(&mut self) {
        if self.rebuild_now {
            // Rebuild step: fresh binning, fresh SoA layout, fresh list.
            self.rebuild_verlet();
        } else {
            self.soa.zero_forces();
            self.reload_soa();
        }
        let box_len = self.box_len;
        let pull = self.cfg.pull();
        self.vlist.replay(
            &self.kernel,
            &pull,
            box_len,
            &mut self.soa,
            |seg| Some(replay_action(seg)),
            &mut self.col_work,
        );
        self.soa.fold_forces(&mut self.forces);
    }

    /// Refresh the SoA positions from the authoritative slabs, owned and
    /// ghost.
    fn reload_soa(&mut self) {
        for (home, base) in self.homes.iter().zip(&self.home_base) {
            if home.ghost {
                self.soa
                    .load_positions(base[1], self.ghosts[&home.col].particles());
            }
            if home.owned {
                self.soa
                    .load_positions(base[0], self.columns[&home.col].particles());
            }
        }
    }

    /// Re-record the Verlet list at a rebuild step: lay the SoA out over
    /// the home columns (the slot layout `force_prologue` just made) and
    /// run the exact half-shell walk with the widened reach `r_c + skin`,
    /// recording every kernel block — classes and work buckets ride along
    /// so the replay stores and credits what the walk would.
    fn rebuild_verlet(&mut self) {
        let n_owned = self.forces.len();
        let n_ghost: usize = self.ghosts.values().map(CellSlab::len).sum();
        self.soa.reset(n_owned, n_owned + n_ghost);
        self.reload_soa();
        self.vlist.clear();
        let reach = self.kernel.lj.rcut + self.cfg.skin;
        let reach2 = reach * reach;
        let soa = &self.soa;
        let vlist = &mut self.vlist;
        let walk = Walk {
            nc: self.nc,
            box_len: self.box_len,
            rank: self.rank,
            homes: &self.homes,
            class: &self.cell_class,
            base: &self.home_base,
            columns: &self.columns,
            ghosts: &self.ghosts,
        };
        walk.for_each_block(|bucket, block| {
            let bucket = bucket as u32;
            match block {
                Block::Intra(h) => {
                    vlist.record_intra(soa, h.slots(), reach2, h.class as u8, bucket)
                }
                Block::Pair(h, n, shift) => vlist.record_pair(
                    soa,
                    h.slots(),
                    n.slots(),
                    shift,
                    reach2,
                    h.class as u8,
                    n.class as u8,
                    bucket,
                ),
                Block::Pull(h) => vlist.record_pull(h.slots(), h.class as u8, bucket),
            }
        });
    }

    /// Tail of the force pass: book its wall time, fold the per-home
    /// buckets in ascending order and publish the step's load numbers.
    fn force_epilogue(&mut self, t0: WallTimer) {
        let dt = t0.elapsed_s();
        self.phase.force += dt;
        let mut work = WorkCounters::default();
        for w in &self.col_work {
            work.merge(w);
        }
        self.last_work = work;
        self.last_force_wall = dt;
        // Raw metric value: modelled work seconds or measured wall.
        let raw = match self.cfg.load_metric {
            LoadMetric::WorkModel { sec_per_pair } => work.pair_checks as f64 * sec_per_pair,
            LoadMetric::WallClock => self.last_force_wall,
        };
        // On a heterogeneous machine the *reported* force time is the
        // modelled elapsed time on this step's processor speed; the
        // *balanced* quantity is that time only under the speed-aware
        // metric, raw work under the paper's baseline.
        self.last_force_virtual = match &self.cfg.speed {
            Some(s) => raw / s.speed(self.rank, self.cur_step),
            None => raw,
        };
        self.last_balance = if self.cfg.speed_aware {
            self.last_force_virtual
        } else {
            raw
        };
    }

    /// This PE's accumulated wall-clock phase breakdown (all zeros
    /// without the `wallclock-instrumentation` feature).
    pub fn phase_times(&self) -> PhaseTimes {
        self.phase
    }

    /// This PE's accumulated per-phase actual-vs-baseline byte counts.
    pub fn wire_bytes(&self) -> WireBytes {
        self.wire
    }

    /// Ghost delta decodes that failed and were absorbed by degrading
    /// (always 0 on a healthy protocol).
    pub fn ghost_desyncs(&self) -> u64 {
        self.ghost_desyncs
    }

    /// Mark the step about to be computed (feeds the per-step speed
    /// schedule). Called at the top of every step by both the single-role
    /// and the dual-role drivers.
    pub(crate) fn begin_step(&mut self, step: u64) {
        self.cur_step = step;
    }

    /// Phase 6: second half-kick with the fresh forces.
    pub(crate) fn kick_all(&mut self) {
        let dt = self.cfg.dt;
        let mut base = 0usize;
        for slab in self.columns.values_mut() {
            let n = slab.len();
            for (p, f) in slab
                .particles_mut()
                .iter_mut()
                .zip(&self.forces[base..base + n])
            {
                kick(p, *f, dt);
            }
            base += n;
        }
        debug_assert_eq!(base, self.forces.len());
    }

    /// Phase 7, gather half: periodic global velocity rescale via an
    /// id-ordered kinetic energy sum (bitwise identical to the serial
    /// reference). Returns `None` when the thermostat does not fire this
    /// step, otherwise `Some(scale)` where `scale` is the factor computed
    /// on the gather root (rank 0) and `None` elsewhere — feed it to
    /// [`PeState::thermostat_apply`].
    pub(crate) fn thermostat_gather(&mut self, comm: &mut Comm, step: u64) -> Option<Option<f64>> {
        let th = self.cfg.thermostat();
        if !th.fires_at(step) {
            return None;
        }
        let kes: Vec<(u64, f64)> = self
            .columns
            .values()
            .flat_map(|slab| slab.particles())
            .map(|p| (p.id, 0.5 * p.vel.norm2()))
            .collect();
        let gathered = collectives::gather(comm, tags::KE_GATHER, kes);
        Some(gathered.map(|chunks| {
            let mut all: Vec<(u64, f64)> = chunks.into_iter().flatten().collect();
            all.sort_unstable_by_key(|&(id, _)| id);
            debug_assert_eq!(all.len(), self.cfg.n_particles);
            let ke: f64 = all.iter().map(|&(_, k)| k).sum();
            let t_now = observe::temperature_from_ke(ke, self.cfg.n_particles);
            th.scale_factor(t_now)
        }))
    }

    /// Phase 7, broadcast-and-apply half: broadcast the scale factor from
    /// rank 0 and rescale this PE's velocities.
    pub(crate) fn thermostat_apply(&mut self, comm: &mut Comm, scale: Option<f64>) {
        let s = collectives::bcast(comm, tags::KE_BCAST, scale);
        for slab in self.columns.values_mut() {
            for p in slab.particles_mut() {
                p.vel = p.vel * s;
            }
        }
    }

    /// Phase 8: gather per-PE statistics; rank 0 assembles the record.
    pub(crate) fn collect_stats(
        &mut self,
        comm: &mut Comm,
        step: u64,
        transferred: u64,
        wall_s: f64,
    ) -> Option<StepRecord> {
        // Lap accumulator, not a running-total subtraction: the delta for
        // an identical message sequence is bitwise identical no matter
        // what was charged before it (checkpoint gathers shift the
        // running total's rounding base; laps always start from 0.0).
        let comm_delta = comm.lap_virtual_comm();

        // A slab spans all `nc` z cells; those outside `own_z` are not
        // this PE's (and always empty here).
        let foreign = self.nc - self.own_z.len();
        let empty: usize = self
            .columns
            .values()
            .map(|slab| slab.empty_cells() - foreign)
            .sum();
        let kinetic: f64 = self
            .columns
            .values()
            .flat_map(|slab| slab.particles())
            .map(|p| 0.5 * p.vel.norm2())
            .sum();
        let packet = StatsPacket {
            cells: self.owned_cells() as u64,
            empty_cells: empty as u64,
            particles: self.num_particles() as u64,
            force_virtual: self.last_force_virtual,
            force_wall: self.last_force_wall,
            comm_virtual_delta: comm_delta,
            pair_checks: self.last_work.pair_checks,
            potential: self.last_work.potential,
            kinetic,
            transferred,
        };
        let rec = crate::stats::collect_step_record(
            comm,
            &self.cfg,
            step,
            packet,
            wall_s,
            self.rebuild_now,
        );
        // The stats gather itself is bookkeeping, not simulation
        // communication: charge it to no step, so each step's comm delta
        // covers exactly its own phases. A restored run (which re-runs no
        // past gathers) then reproduces every t_step bitwise.
        let _ = comm.lap_virtual_comm();
        rec
    }

    /// Gather a restartable distributed checkpoint to rank 0
    /// (collective; every rank must call it at the same step). `records`
    /// is rank 0's per-step series so far, embedded so a restore can
    /// reproduce the full report. A balancing run also gathers what its
    /// next decision rests on: the load each rank last announced and the
    /// transfer it gave this step, if any. The gather's virtual comm cost
    /// is excluded from the next step's delta, so checkpointing never
    /// changes any reported `t_step`.
    pub(crate) fn take_checkpoint(
        &mut self,
        comm: &mut Comm,
        step: u64,
        records: &[StepRecord],
    ) -> Option<SimCheckpoint> {
        let own_cols: Vec<Col> = self.columns.keys().copied().collect();
        let own_parts: Vec<Particle> = self
            .columns
            .values()
            .flat_map(|slab| slab.particles().iter().copied())
            .collect();
        let given = self.decisions.iter().find(|t| t.decision.from == self.rank);
        let payload = (own_parts, own_cols, self.announced_load, given.copied());
        let gathered = collectives::gather(comm, tags::CKPT_GATHER, payload);
        let ck = gathered.map(|chunks| {
            let loads = chunks.iter().filter_map(|chunk| chunk.2).collect();
            // Rank order is `from` order: the order they were applied in.
            let transfers = chunks.iter().filter_map(|chunk| chunk.3).collect();
            let mut particles = Vec::new();
            let mut ownership = Vec::new();
            for (rank, (parts, cols, ..)) in chunks.into_iter().enumerate() {
                particles.extend(parts);
                ownership.extend(cols.into_iter().map(|c| (c, rank)));
            }
            ownership.sort_unstable_by_key(|&(c, _)| c);
            SimCheckpoint {
                md: Checkpoint::new(step, self.box_len, particles),
                ownership,
                records: records.to_vec(),
                loads,
                transfers,
            }
        });
        let _ = comm.lap_virtual_comm();
        ck
    }

    /// Runtime invariant sentinel: every `cfg.sentinel_interval` steps
    /// (collective; 0 disables), gather each rank's particle count and
    /// owned-column set to rank 0 and check the two global invariants the
    /// whole scheme rests on — particle-count conservation and ownership
    /// being an exact partition of the grid into the shape's granules
    /// (whole columns; a cube rank's z block of a column). A
    /// violation means state corruption that checkpoints would silently
    /// propagate, so the world is aborted with a structured diagnostic;
    /// under the recovery/takeover drivers that escalates to a rollback
    /// (relaunch from the last checkpoint). Digest-neutral: the gather's
    /// lap cost is discarded like the checkpoint gather's.
    pub(crate) fn sentinel_check(&mut self, comm: &mut Comm, step: u64) {
        if self.cfg.sentinel_interval == 0 || !step.is_multiple_of(self.cfg.sentinel_interval) {
            return;
        }
        let own_cols: Vec<Col> = self.columns.keys().copied().collect();
        let count = self.num_particles() as u64;
        #[cfg(feature = "check")]
        pcdlb_mp::check::emit(pcdlb_mp::check::ProtocolEvent::Sentinel {
            rank: comm.rank(),
            step,
            count,
        });
        if let Some(chunks) = collectives::gather(comm, tags::SENTINEL, (count, own_cols)) {
            let z_extent = |rank| self.decomp.z_extent(rank);
            if let Err(report) = validate_sentinel(&self.cfg, step, &chunks, z_extent) {
                // Raise the abort flag first: this panic is an intentional
                // escalation, not a rank death — a takeover world must
                // tear down and relaunch, not adopt the sentinel's rank.
                comm.abort_world();
                panic!("{report}");
            }
        }
        let _ = comm.lap_virtual_comm();
    }

    /// Gather the full particle set to rank 0, sorted by id.
    pub fn gather_snapshot(&self, comm: &mut Comm) -> Option<Vec<Particle>> {
        let own: Vec<Particle> = self
            .columns
            .values()
            .flat_map(|slab| slab.particles().iter().copied())
            .collect();
        collectives::gather(comm, tags::SNAPSHOT, own).map(|chunks| {
            let mut all: Vec<Particle> = chunks.into_iter().flatten().collect();
            all.sort_unstable_by_key(|p| p.id);
            all
        })
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
fn foreign_around(
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
    // One step off either edge of the periodic grid (no division: the
    // cube's scaffold asks this some 6000 times per rank).
    let wrap = move |c: usize, d: i64| match c as i64 + d {
        -1 => nc - 1,
        v if v == nc as i64 => 0,
        v => v as usize,
    };
    (-1..=1)
        .flat_map(|dx| (-1..=1).map(move |dy| (dx, dy)))
        .flat_map(move |(dx, dy)| dzs.iter().map(move |&dz| (dx, dy, dz)))
        .map(move |(dx, dy, dz)| {
            let ncol = Col::new(wrap(col.cx, dx), wrap(col.cy, dy));
            let nspan = if whole {
                0..nc
            } else {
                let nz = wrap(span.start, dz);
                nz..nz + 1
            };
            (ncol, nspan)
        })
}

/// Canonical cross-section neighbour of a column with periodic shift.
fn wrap_col(nc: usize, box_len: f64, c: Col, dx: i64, dy: i64) -> (Col, f64, f64) {
    let n = nc as i64;
    let wrap1 = |v: i64| -> (usize, f64) {
        if v < 0 {
            ((v + n) as usize, -box_len)
        } else if v >= n {
            ((v - n) as usize, box_len)
        } else {
            (v as usize, 0.0)
        }
    };
    let (cx, sx) = wrap1(c.cx as i64 + dx);
    let (cy, sy) = wrap1(c.cy as i64 + dy);
    (Col::new(cx, cy), sx, sy)
}

/// Canonical z neighbour of a cell with periodic shift.
fn wrap_z(nc: usize, box_len: f64, cz: usize, dz: i64) -> (usize, f64) {
    let n = nc as i64;
    let v = cz as i64 + dz;
    if v < 0 {
        ((v + n) as usize, -box_len)
    } else if v >= n {
        ((v - n) as usize, box_len)
    } else {
        (v as usize, 0.0)
    }
}

/// A sentinel violation: which global invariant broke, at which step,
/// with enough context to localise the corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentinelReport {
    /// Step at which the sentinel fired.
    pub step: u64,
    /// What broke, per violated invariant (non-empty).
    pub violations: Vec<String>,
}

impl std::fmt::Display for SentinelReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sentinel violation at step {}: {}",
            self.step,
            self.violations.join("; ")
        )
    }
}

/// Check the gathered per-rank `(particle count, owned columns)` chunks
/// against the two global invariants: the counts sum to `cfg.n_particles`
/// and the claimed granules — each claimed column over the claiming
/// rank's `z_extent` — form an exact partition of the `nc³` cells. Pure
/// so it unit-tests without a world.
pub(crate) fn validate_sentinel(
    cfg: &RunConfig,
    step: u64,
    chunks: &[(u64, Vec<Col>)],
    z_extent: impl Fn(usize) -> Range<usize>,
) -> Result<(), SentinelReport> {
    let mut violations = Vec::new();
    let total: u64 = chunks.iter().map(|(n, _)| n).sum();
    if total != cfg.n_particles as u64 {
        violations.push(format!(
            "global particle count {total} != configured {} (per-rank: {:?})",
            cfg.n_particles,
            chunks.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        ));
    }
    let mut owners: BTreeMap<(Col, usize), Vec<usize>> = BTreeMap::new();
    let mut cells = 0usize;
    for (rank, (_, cols)) in chunks.iter().enumerate() {
        let z = z_extent(rank);
        for &c in cols {
            let claimants = owners.entry((c, z.start)).or_default();
            if claimants.is_empty() && c.cx < cfg.nc && c.cy < cfg.nc {
                cells += z.len();
            }
            claimants.push(rank);
        }
    }
    for ((c, z0), ranks) in &owners {
        if ranks.len() > 1 {
            violations.push(format!(
                "column {c:?} (z from {z0}) owned by multiple ranks {ranks:?}"
            ));
        }
    }
    if cells != cfg.total_cells() || owners.keys().any(|(c, _)| c.cx >= cfg.nc || c.cy >= cfg.nc) {
        violations.push(format!(
            "ownership covers {cells} distinct cells, expected the full {} ({nc}×{nc}×{nc}) grid",
            cfg.total_cells(),
            nc = cfg.nc
        ));
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(SentinelReport { step, violations })
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
        assert_eq!(wrap_z(6, 12.0, 0, -1), (5, -12.0));
        assert_eq!(wrap_z(6, 12.0, 5, 1), (0, 12.0));
        assert_eq!(wrap_z(6, 12.0, 3, 1), (4, 0.0));
    }

    /// One config per shape on the same physics: roomy cells (≈3.0) so a
    /// skin fits, a clustered start so the ghost shells actually change.
    fn shape_cfg(shape: DomainShape) -> RunConfig {
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
    fn placed(cfg: &RunConfig) -> Placed {
        Placed::new(cfg, &initial_particles(cfg))
    }

    /// A PE adopting its home cells' share of the config's own initial
    /// condition (no launch plan).
    fn fresh(rank: usize, cfg: &RunConfig, shape: DomainShape) -> PeState {
        PeState::new(rank, cfg, shape, &placed(cfg), &[])
    }

    fn run_world(cfg: &RunConfig, shape: DomainShape) -> crate::driver::Run {
        crate::driver::Launch::new()
            .shape(shape)
            .snapshot()
            .run(cfg)
    }

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
    fn neighbour_sets_follow_from_ownership() {
        // Pillar: exactly the distinct torus 8-neighbours — the set the
        // wire protocol has always used.
        let cfg = RunConfig::from_p_m_density(16, 2, 0.2);
        for rank in 0..16 {
            let pe = fresh(rank, &cfg, DomainShape::SquarePillar);
            assert_eq!(pe.neighbors, cfg.torus().distinct_neighbors8(rank));
        }
        // Ring: two neighbours, one when they coincide. Cube: 7 distinct
        // ranks on the 2×2×2 torus, the full 26 from k = 3.
        let mut cfg = RunConfig::new(1000, 6, 3, 0.05);
        cfg.dlb = false;
        assert_eq!(fresh(1, &cfg, DomainShape::Plane).neighbors, [0, 2]);
        cfg.p = 2;
        assert_eq!(fresh(0, &cfg, DomainShape::Plane).neighbors, [1]);
        cfg.p = 8;
        assert_eq!(fresh(0, &cfg, DomainShape::Cube).neighbors.len(), 7);
        cfg.p = 27;
        assert_eq!(fresh(13, &cfg, DomainShape::Cube).neighbors.len(), 26);
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
        let caches = |pe: &PeState| {
            let homes: Vec<_> = (pe.homes.iter())
                .map(|h| (h.col, h.owned, h.ghost, h.ring))
                .collect();
            (homes, pe.cell_class.clone(), pe.ghost_routes.clone())
        };
        let (mut skipped, mut redrawn) = (0, 0);
        for rank in 0..cfg.p {
            for d in decisions.iter().filter(|d| d.from != rank && d.to != rank) {
                let mut pe = fresh(rank, &cfg, DomainShape::SquarePillar);
                pe.refresh_caches();
                let before = caches(&pe);
                let redraws = pe.redraws_caches(d);
                pe.decomp.apply(d);
                pe.routes_dirty = true;
                pe.refresh_caches();
                if redraws {
                    redrawn += usize::from(caches(&pe) != before);
                } else {
                    assert!(caches(&pe) == before, "rank {rank} missed {d:?}");
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
        let hi = pe
            .homes
            .binary_search_by_key(&Col::new(2, 2), |h| h.col)
            .unwrap();
        assert!(pe.homes[hi].owned && pe.homes[hi].ghost);
        use CellClass::{Ghost, Owned, Unseen};
        assert_eq!(
            pe.cell_class[hi * 6..(hi + 1) * 6],
            [Unseen, Ghost, Owned, Owned, Ghost, Unseen]
        );
        // The cube exchanges once per step; where the closure test fails
        // (one-cell blocks on a 4³ torus) the step keeps two rounds.
        // The shapes with a balancer do where it is switched off — a
        // tile or slab one cell wide fails the closure test from a torus
        // side of 4 up — and never while it runs.
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
                assert!(!fresh(0, &cfg, shape).exchanges_once());
            }
        }
    }

    #[test]
    fn bookkeeping_collectives_leave_the_comm_lap_empty() {
        // A step's comm delta must cover exactly its own phases: after
        // every step — stats gather, checkpoint gather and sentinel
        // included — the lap accumulator reads zero on every rank, for
        // every shape, so nothing of step k is ever charged to k + 1.
        for shape in DomainShape::ALL {
            let mut cfg = shape_cfg(shape);
            cfg.steps = 6;
            cfg.thermostat_interval = 2;
            cfg.checkpoint_interval = 3;
            cfg.sentinel_interval = 2;
            let initial = placed(&cfg);
            let laps: Vec<f64> = pcdlb_mp::World::new(cfg.p)
                .with_cost_model(crate::decomp::cost_model(shape, &cfg))
                .run(|comm| {
                    let roles = [comm.rank()];
                    let start = crate::takeover::Start::Fresh(&initial, &[]);
                    crate::takeover::run_roles(
                        comm, &cfg, shape, &roles, start, None, false, false,
                    );
                    comm.lap_virtual_comm()
                });
            assert!(laps.iter().all(|&l| l == 0.0), "{shape:?}: {laps:?}");
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

    /// `shape_cfg` with a poisoned ghost receive channel on rank 1.
    fn desync_cfg(shape: DomainShape, steps: u64, times: u32) -> RunConfig {
        let mut cfg = shape_cfg(shape);
        cfg.steps = steps;
        cfg.sentinel_interval = 2;
        cfg.ghost_desync_inject = Some(crate::config::DesyncInject {
            rank: 1,
            nbr: 0,
            times,
        });
        cfg
    }

    /// Ghost frames one forced desync costs with `skin == 0`. Two rounds:
    /// the resync bit rides the next step's round 1 and that step's
    /// round 2 is already full — one. Single exchange: the bit rides the
    /// next step's only frame, which crosses the peer's in flight; that
    /// one is still a delta against the lost state and is dropped too,
    /// and the full frame arrives the step after — two.
    fn frames_lost_per_desync(cfg: &RunConfig, shape: DomainShape) -> u64 {
        1 + fresh(0, cfg, shape).exchanges_once() as u64
    }

    #[test]
    fn ghost_desync_degrades_and_resyncs() {
        // A poisoned ghost delta channel must not kill the world: the
        // receiver degrades, requests a full-frame resync via the resync
        // bit of its next frame, and the stream heals — one forced desync
        // over the whole run costs exactly the frames in flight until the
        // full frame can arrive, with conservation intact (the sentinel
        // would abort the run otherwise; a single-exchange frame's
        // migrants are applied even when its ghost section is dropped).
        // In every shape.
        for shape in DomainShape::ALL {
            let cfg = desync_cfg(shape, 12, 1);
            let results = run_world(&cfg, shape);
            assert_eq!(
                results.report.ghost_desyncs,
                frames_lost_per_desync(&cfg, shape),
                "{shape:?}: the poisoned stream desyncs once and the resync heals it"
            );
            let snapshot = results.snapshot.as_ref().expect("rank 0 snapshot");
            assert_eq!(snapshot.len(), cfg.n_particles, "conservation holds");
            // The uninjected run is desync-free.
            let mut clean_cfg = cfg.clone();
            clean_cfg.ghost_desync_inject = None;
            let clean = run_world(&clean_cfg, shape);
            assert_eq!(clean.report.ghost_desyncs, 0);
        }
    }

    #[test]
    fn ghost_resync_storm_degrades_a_fixed_number_of_steps_per_mismatch() {
        // Back-to-back fingerprint mismatches on one link: each forced
        // desync degrades exactly the steps its resync takes (so `times`
        // corruptions drop exactly `times` × that many frames — never
        // more), the stream heals after the storm, and the run completes
        // with conservation intact rather than livelocking in
        // degrade/resync ping-pong.
        for shape in DomainShape::ALL {
            let cfg = desync_cfg(shape, 16, 3);
            let results = run_world(&cfg, shape);
            assert_eq!(
                results.report.ghost_desyncs,
                3 * frames_lost_per_desync(&cfg, shape),
                "{shape:?}: a fixed price per injected mismatch, no further echo"
            );
            let snapshot = results.snapshot.as_ref().expect("rank 0 snapshot");
            assert_eq!(snapshot.len(), cfg.n_particles, "conservation holds");
        }
    }

    #[test]
    fn ghost_resync_storm_in_full_frame_mode_never_desyncs() {
        // With delta encoding off the sender always ships full frames, so
        // membership poison has nothing to mismatch against: the storm
        // injector is inert and the run completes without a single desync
        // (the full-frame path cannot livelock on resync requests).
        for shape in DomainShape::ALL {
            let mut cfg = desync_cfg(shape, 16, 3);
            cfg.delta_ghosts = false;
            let results = run_world(&cfg, shape);
            assert_eq!(
                results.report.ghost_desyncs, 0,
                "{shape:?}: full frames decode unconditionally; poison cannot desync them"
            );
            let snapshot = results.snapshot.as_ref().expect("rank 0 snapshot");
            assert_eq!(snapshot.len(), cfg.n_particles);
        }
    }

    #[test]
    fn ghost_desync_inside_a_skin_epoch_degrades_until_the_next_rebuild() {
        // With frozen epochs a delta stream only flows — and can only
        // heal — on rebuild steps. One poisoned rebuild-step decode
        // leaves that neighbour's ghosts out of the slabs, so no route
        // covers its mid-epoch refreshes: each is a typed, counted
        // degrade (never a silently refreshed prefix), the resync bit
        // rides the next rebuild step's round 1, and the full frame it
        // elicits heals the link. Conservation holds throughout (the
        // sentinel would abort the run otherwise). In every shape, walked
        // and replayed.
        for shape in DomainShape::ALL {
            for verlet in [false, true] {
                let mut cfg = desync_cfg(shape, 40, 1);
                cfg.skin = 0.1;
                cfg.verlet = verlet;
                let results = run_world(&cfg, shape);
                let rebuilds: Vec<u64> = results
                    .report
                    .records
                    .iter()
                    .filter(|r| r.rebuilt)
                    .map(|r| r.step)
                    .collect();
                assert!(
                    (3..20).contains(&rebuilds.len()),
                    "{shape:?}: epochs engage and the run outlasts the heal: {rebuilds:?}"
                );
                // The first rebuild step's delta hits the poison; every
                // step up to the second rebuild step is degraded.
                assert_eq!(
                    results.report.ghost_desyncs,
                    rebuilds[1] - rebuilds[0],
                    "{shape:?} verlet {verlet}: degraded from step {} until the rebuild at {}",
                    rebuilds[0],
                    rebuilds[1]
                );
                let snapshot = results.snapshot.as_ref().expect("rank 0 snapshot");
                assert_eq!(snapshot.len(), cfg.n_particles, "conservation holds");
                // The uninjected epochs are desync-free.
                cfg.ghost_desync_inject = None;
                let clean = run_world(&cfg, shape);
                assert_eq!(clean.report.ghost_desyncs, 0);
            }
        }
    }

    /// Ids in the order this PE packs a refresh for each neighbour, and
    /// in the order it writes each neighbour's refresh into its slabs.
    fn refresh_orders(pe: &PeState) -> [Vec<Vec<u64>>; 2] {
        let packed = pe.ghost_routes.iter().map(|route| {
            let cells = route.iter().flat_map(|(col, span)| {
                let slab = &pe.columns[col];
                &slab.particles()[slab.range(span.start).start..slab.range(span.end - 1).end]
            });
            cells.map(|p| p.id).collect()
        });
        let routed = pe.ghost_slot_routes.iter().map(|route| {
            let slots = route
                .iter()
                .flat_map(|(col, run)| &pe.ghosts[col].particles()[run.clone()]);
            slots.map(|p| p.id).collect()
        });
        [packed.collect(), routed.collect()]
    }

    #[test]
    fn refresh_pack_order_is_the_receivers_route_order_in_every_shape() {
        // A refresh carries no ids: position k of the frame lands in slot
        // k of the receiver's route, so the sender's pack order and the
        // receiver's route order must name the same ghosts in the same
        // sequence — after every step, rebuild or not, and across the
        // ownership changes of both balancers.
        for shape in DomainShape::ALL {
            let mut cfg = shape_cfg(shape);
            if shape == DomainShape::SquarePillar {
                cfg.p = 9; // DLB needs a torus side ≥ 3
            }
            cfg.dlb = shape != DomainShape::Cube;
            cfg.skin = 0.1;
            cfg.steps = 24;
            crate::decomp::validate(&cfg, shape);
            let ranks = pcdlb_mp::World::new(cfg.p).run(|comm| {
                let mut pes = [(comm.rank(), fresh(comm.rank(), &cfg, shape))];
                crate::takeover::exchange_ghosts_and_compute(comm, &mut pes, Exchange::Shells);
                crate::takeover::announce_loads(comm, &mut pes);
                let mut orders = vec![refresh_orders(&pes[0].1)];
                let mut transfers = 0;
                for step in 1..=cfg.steps {
                    let recs = crate::takeover::step_multi(comm, &cfg, &mut pes, step);
                    transfers += recs[0].as_ref().map_or(0, |r| r.transfers);
                    orders.push(refresh_orders(&pes[0].1));
                }
                (pes[0].1.neighbors.clone(), orders, transfers)
            });
            let transfers = ranks[0].2;
            assert_eq!(
                transfers > 0,
                cfg.dlb,
                "{shape:?}: {transfers} DLB transfers"
            );
            let mut compared = 0;
            for (rank, (nbrs, orders, _)) in ranks.iter().enumerate() {
                for (i, &nb) in nbrs.iter().enumerate() {
                    let back = ranks[nb].0.binary_search(&rank).expect("symmetric");
                    for (step, [_, routed]) in orders.iter().enumerate() {
                        let [packed, _] = &ranks[nb].1[step];
                        compared += routed[i].len();
                        assert_eq!(
                            routed[i], packed[back],
                            "{shape:?} step {step}: {nb} packs for {rank} in another order"
                        );
                    }
                }
            }
            assert!(
                compared > 1000,
                "{shape:?}: only {compared} ghosts compared"
            );
        }
    }

    /// A 3×3 pillar PE (m = 3) that has just come up, holding `loads` for
    /// its neighbours and `own` for itself.
    fn pe_with_loads(rank: usize, gain: f64, own: f64, loads: &[f64]) -> PeState {
        let mut cfg = RunConfig::from_p_m_density(9, 3, 0.05);
        cfg.dlb = true;
        cfg.dlb_min_gain = gain;
        let nobody = Placed::new(&cfg, &[]);
        let mut pe = PeState::new(rank, &cfg, DomainShape::SquarePillar, &nobody, &[]);
        pe.last_balance = own;
        pe.nbr_loads = pe
            .neighbors
            .iter()
            .copied()
            .zip(loads.iter().copied())
            .collect();
        pe
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn deciding_ahead_is_the_same_choice_on_the_loads_in_hand(
            rank in 0usize..9,
            gain_tenths in 0u32..3,
            own in 0u32..8,
            loads in proptest::collection::vec(0u32..8, 8..9),
            (giver, taker) in (0usize..8, 0usize..8),
            work in 0u32..4,
        ) {
            // With nothing in flight the engine hands the balancer the
            // loads exactly as round 1 brought them: the decision is the
            // one deciding after that round 1 would have been — the same
            // `choose` call on the same view. (Few load levels: ties and
            // sub-threshold gains are common.)
            use pcdlb_core::protocol::DlbProtocol;
            use pcdlb_domain::{OwnershipMap, PillarLayout};
            let gain = f64::from(gain_tenths) / 10.0;
            let loads: Vec<f64> = loads.into_iter().map(f64::from).collect();
            let mut pe = pe_with_loads(rank, gain, f64::from(own), &loads);
            let layout = PillarLayout::new(pe.cfg.nc, pe.cfg.torus());
            let protocol = DlbProtocol::new(layout, rank).with_min_relative_gain(gain);
            let view = OwnershipMap::initial(layout);
            pe.dlb_decide();
            let ahead = pe.my_decision.map(|t| t.decision);
            proptest::prop_assert_eq!(ahead, protocol.choose(f64::from(own), &pe.nbr_loads, &view));
            // A transfer in flight between two neighbours moves its work
            // from the one's load to the other's first, and only there.
            let (from, to) = (pe.neighbors[giver], pe.neighbors[taker]);
            let decision = DlbDecision { col: Col::new(0, 0), from, to };
            pe.decisions.push(Transfer { decision, work: f64::from(work) });
            pe.dlb_decide();
            let mut booked = pe.nbr_loads.clone();
            if giver != taker {
                booked[giver].1 -= f64::from(work);
                booked[taker].1 += f64::from(work);
            }
            let ahead = pe.my_decision.map(|t| t.decision);
            proptest::prop_assert_eq!(ahead, protocol.choose(f64::from(own), &booked, &view));
        }
    }

    #[test]
    fn two_ranks_that_each_take_the_other_for_the_faster_move_no_plane() {
        // Deciding ahead, each PE has its own estimate of its neighbour's
        // load. On a ring of two, each is made to hold half its own load
        // for the other: both shed across the one boundary in the same
        // step. The plane excludes such a pair, both ranks hear both
        // decisions, and nothing moves — two planes crossing would have
        // left both slabs in pieces.
        let mut cfg = RunConfig::new(500, 4, 2, 500.0 / 12.0f64.powi(3));
        cfg.dlb = true;
        cfg.dlb_min_gain = 0.0;
        let shape = DomainShape::Plane;
        crate::decomp::validate(&cfg, shape);
        let moved = pcdlb_mp::World::new(cfg.p).run(|comm| {
            let mut pes = [(comm.rank(), fresh(comm.rank(), &cfg, shape))];
            crate::takeover::exchange_ghosts_and_compute(comm, &mut pes, Exchange::Shells);
            crate::takeover::announce_loads(comm, &mut pes);
            let pe = &mut pes[0].1;
            pe.nbr_loads[0].1 = 0.5 * pe.last_balance;
            pe.begin_step(1); // the step the ring's one boundary may move on
            pe.dlb_decide();
            assert!(pe.my_decision.is_some(), "rank {} sheds", pe.rank);
            let before = pe.owned_cells();
            let recs = crate::takeover::step_multi(comm, &cfg, &mut pes, 1);
            let transfers = recs[0].as_ref().map_or(0, |r| r.transfers);
            let pe = &pes[0].1;
            (pe.owned_cells() - before, pe.decisions.len(), transfers)
        });
        assert_eq!(moved, [(0, 0, 0); 2]);
    }

    #[test]
    fn the_work_a_decision_announces_is_the_load_both_ends_then_measure() {
        // A transfer travels with the work that moves with it, read off
        // the giver's cell occupancies before anything moves. On the next
        // force pass the giver measures that much less and the receiver
        // that much more — to the motion of one step — whoever they are,
        // column (pillar) or plane. Checked on every transfer whose two
        // ends take part in no other transfer that step.
        for (shape, p) in [(DomainShape::SquarePillar, 9), (DomainShape::Plane, 3)] {
            let mut cfg = RunConfig::new(2000, 9, p, 2000.0 / 27.0f64.powi(3));
            cfg.lattice = Lattice::Cluster { fill: 0.7 };
            cfg.dlb = true;
            cfg.dlb_min_gain = 0.0;
            cfg.steps = 12;
            crate::decomp::validate(&cfg, shape);
            // No launch plan: the balancer has the whole shed before it.
            let initial = placed(&cfg);
            // Per rank and step: the load before, the transfers heard, the
            // load after.
            let ranks = pcdlb_mp::World::new(cfg.p).run(|comm| {
                let mut pes = [(
                    comm.rank(),
                    PeState::new(comm.rank(), &cfg, shape, &initial, &[]),
                )];
                crate::takeover::exchange_ghosts_and_compute(comm, &mut pes, Exchange::Shells);
                crate::takeover::announce_loads(comm, &mut pes);
                let mut steps = Vec::new();
                for step in 1..=cfg.steps {
                    let before = pes[0].1.last_balance;
                    crate::takeover::step_multi(comm, &cfg, &mut pes, step);
                    let pe = &pes[0].1;
                    // Column by column, the counts are the pass's total.
                    if shape == DomainShape::SquarePillar {
                        let column = |&col| {
                            pe.granule_checks(&DlbDecision {
                                col,
                                from: 0,
                                to: 0,
                            })
                        };
                        let all: u64 = pe.columns.keys().map(column).sum();
                        assert_eq!(
                            all, pe.last_work.pair_checks,
                            "rank {} step {step}",
                            pe.rank
                        );
                    }
                    steps.push((before, pe.decisions.clone(), pe.last_balance));
                }
                steps
            });
            let mut checked = 0;
            // Every rank hears every decision on these small rings.
            for (step, (_, heard, _)) in ranks[0].iter().enumerate() {
                for t in heard {
                    let DlbDecision { from, to, .. } = t.decision;
                    let busy = |r: usize| {
                        let parts = heard
                            .iter()
                            .filter(|o| o.decision.from == r || o.decision.to == r);
                        parts.count() > 1
                    };
                    if busy(from) || busy(to) {
                        continue;
                    }
                    let (giver, receiver) = (&ranks[from][step], &ranks[to][step]);
                    for (what, measured) in [
                        ("giver", giver.0 - giver.2),
                        ("receiver", receiver.2 - receiver.0),
                    ] {
                        assert!(
                            (measured - t.work).abs() <= 0.02 * t.work,
                            "{shape:?} step {}: {what} measured {measured}, announced {}",
                            step + 1,
                            t.work
                        );
                    }
                    checked += usize::from(t.work > 0.0);
                }
            }
            assert!(checked >= 3, "{shape:?}: only {checked} transfers checked");
        }
    }

    #[test]
    fn a_planned_launch_measures_the_loads_its_plan_ends_on() {
        // A column's work is a function of the cell occupancies alone, so
        // the loads the plan ends on are — to the bit — what the launch's
        // first force pass measures on every rank, in work (`WorkModel`)
        // and in time (a `SpeedSchedule` balanced `speed_aware`).
        let drifting = crate::SpeedSchedule {
            base: vec![1.0, 0.7, 1.3],
            amplitude: 0.2,
            period: 8,
        };
        for (shape, p) in [(DomainShape::SquarePillar, 9), (DomainShape::Plane, 3)] {
            for speed in [None, Some(drifting.clone())] {
                let mut cfg = RunConfig::new(2000, 9, p, 2000.0 / 27.0f64.powi(3));
                // Everything over rank 0's tile (its slab).
                cfg.lattice = Lattice::Cluster { fill: 0.4 };
                cfg.dlb = true;
                cfg.dlb_min_gain = 0.0;
                cfg.speed_aware = speed.is_some();
                cfg.speed = speed;
                crate::decomp::validate(&cfg, shape);
                let initial = placed(&cfg);
                let plan = crate::launch::launch_plan(shape, &cfg, 0, &initial);
                assert!(!plan.decisions.is_empty(), "{shape:?}: nothing planned");
                let measured = pcdlb_mp::World::new(cfg.p).run(|comm| {
                    let pe = PeState::new(comm.rank(), &cfg, shape, &initial, &plan.decisions);
                    let mut pes = [(comm.rank(), pe)];
                    crate::takeover::exchange_ghosts_and_compute(comm, &mut pes, Exchange::Shells);
                    pes[0].1.last_balance.to_bits()
                });
                let planned: Vec<u64> = plan.loads.iter().map(|l| l.to_bits()).collect();
                assert_eq!(measured, planned, "{shape:?}, time: {}", cfg.speed_aware);
            }
        }
    }

    /// Run `cfg.steps` steps of the cube on the engine, one role per
    /// rank, after `setup` has had its way with each fresh PE; `look`
    /// reads each PE when the steps are done.
    fn drive_cube<T: Send>(
        cfg: &RunConfig,
        initial: &[Particle],
        setup: impl Fn(&mut PeState) + Sync,
        look: impl Fn(&PeState, &mut Comm) -> T + Sync,
    ) -> Vec<(Vec<StepRecord>, T)> {
        let shape = DomainShape::Cube;
        let initial = Placed::new(cfg, initial);
        pcdlb_mp::World::new(cfg.p)
            .with_cost_model(crate::decomp::cost_model(shape, cfg))
            .run(|comm| {
                let mut pe = PeState::new(comm.rank(), cfg, shape, &initial, &[]);
                setup(&mut pe);
                let mut pes = [(comm.rank(), pe)];
                crate::takeover::exchange_ghosts_and_compute(comm, &mut pes, Exchange::Shells);
                let _ = comm.lap_virtual_comm();
                let mut records = Vec::new();
                for step in 1..=cfg.steps {
                    let recs = crate::takeover::step_multi(comm, cfg, &mut pes, step);
                    records.extend(recs.into_iter().flatten());
                }
                (records, look(&pes[0].1, comm))
            })
    }

    #[test]
    fn a_particle_crossing_an_edge_or_a_corner_lands_once_in_every_halo_that_needs_it() {
        // 27 blocks of 3³ cells (cell length 3): the mover starts in the
        // top corner cell (5, 5, 4) or (5, 5, 5) of block (1, 1, 1) — rank
        // 13 — a hair below the block's faces and crosses two or three of
        // them in one step. Its new owner is not the rank that ships it as
        // a ghost: rank 13 tells the third parties and keeps its own copy.
        let mut cfg = RunConfig::new(2, 9, 27, 2.0 / 27.0f64.powi(3));
        cfg.dlb = false;
        cfg.thermostat_interval = 0;
        cfg.steps = 1;
        let block = |bx: usize, by: usize, bz: usize| (bz * 3 + by) * 3 + bx;
        let edge = 18.0 - 1e-4;
        for (z, vz, owner, halos) in [
            // Across the x and y faces in the block's middle z layer: the
            // new cell (6, 6, 4) touches blocks {1, 2} × {1, 2} × {1}.
            (
                13.5,
                0.0,
                block(2, 2, 1),
                vec![block(1, 1, 1), block(2, 1, 1), block(1, 2, 1)],
            ),
            // Across the corner into (6, 6, 6): {1, 2}³ but the owner.
            (edge, 1.0, block(2, 2, 2), {
                let all = (0..8).map(|i| block(1 + i % 2, 1 + i / 2 % 2, 1 + i / 4));
                all.filter(|&r| r != block(2, 2, 2)).collect()
            }),
        ] {
            let mut mover = Particle::at_rest(0, Vec3::new(edge, edge, z));
            mover.vel = Vec3::new(1.0, 1.0, vz);
            let far = Particle::at_rest(1, Vec3::new(1.0, 1.0, 1.0));
            let seen = drive_cube(
                &cfg,
                &[mover, far],
                |pe| assert!(pe.exchanges_once()),
                |pe, _| {
                    let count = |slabs: &BTreeMap<Col, CellSlab>| {
                        let all = slabs.values().flat_map(|s| s.particles());
                        all.filter(|p| p.id == 0).count()
                    };
                    (count(&pe.columns), count(&pe.ghosts))
                },
            );
            for (rank, (_, (owned, ghost))) in seen.iter().enumerate() {
                assert_eq!(*owned, (rank == owner) as usize, "rank {rank} owns it");
                assert_eq!(
                    *ghost,
                    halos.contains(&rank) as usize,
                    "rank {rank}'s halo (new owner {owner}, needed by {halos:?})"
                );
            }
        }
    }

    #[test]
    fn one_exchange_moves_only_the_comm_part_of_t_step() {
        // The same cube run with the rebuild step as one exchange and —
        // the flag forced off on every rank — as the two rounds it
        // replaces: same physics, same work, same loads, bit for bit;
        // one message per neighbour and step fewer, and a shorter modelled
        // step for it.
        let mut cfg = shape_cfg(DomainShape::Cube);
        cfg.steps = 20;
        let initial = initial_particles(&cfg);
        let run = |two_rounds: bool| {
            drive_cube(
                &cfg,
                &initial,
                |pe| pe.single_exchange &= !two_rounds,
                |pe, comm| (comm.stats().msgs_sent, pe.neighbors.len() as u64),
            )
        };
        let (one, two) = (run(false), run(true));
        for ((_, (sent_one, nbrs)), (_, (sent_two, _))) in one.iter().zip(&two) {
            assert_eq!(sent_two - sent_one, nbrs * cfg.steps);
        }
        let (one, two) = (&one[0].0, &two[0].0);
        assert_eq!(one.len(), cfg.steps as usize);
        for (a, b) in one.iter().zip(two) {
            let physics = |r: &StepRecord| {
                let floats = [r.f_max, r.f_ave, r.f_min, r.kinetic, r.potential];
                (floats.map(f64::to_bits), r.pair_checks)
            };
            assert_eq!(physics(a), physics(b), "step {}", a.step);
            assert!(
                a.t_step < b.t_step,
                "step {}: {} vs {}",
                a.step,
                a.t_step,
                b.t_step
            );
        }
    }

    #[test]
    fn a_desynced_single_exchange_frame_still_delivers_its_migrants() {
        // Rank 1's first delta from rank 0 is poisoned, and that very
        // frame carries a particle leaving rank 0 for rank 1: the ghost
        // section is dropped, the migrant is not — it exists nowhere else
        // any more.
        let cfg = desync_cfg(DomainShape::Cube, 1, 1);
        let initial = initial_particles(&cfg);
        // Rank 0 is block (0, 0, 0) of 3³ cells; rank 1 lies across
        // x = L/2, the far face of cell column (2, 0).
        let half = 0.5 * cfg.box_len();
        let bin = |v: f64| axis_bin(v, cfg.cell_len(), cfg.nc);
        let in_edge_column =
            |p: &&Particle| (bin(p.pos.x), bin(p.pos.y)) == (2, 0) && bin(p.pos.z) < 3;
        // (The one nearest the face, so the nudge crowds nobody.)
        let nearest = |a: &&Particle, b: &&Particle| a.pos.x.total_cmp(&b.pos.x);
        let mover = initial.iter().filter(in_edge_column).max_by(nearest);
        let mover = mover.expect("the column is populated").id;
        let seen = drive_cube(
            &cfg,
            &initial,
            |pe| {
                if pe.rank == 0 {
                    let slab = pe.columns.get_mut(&Col::new(2, 0)).unwrap();
                    let p = slab.particles_mut().iter_mut().find(|p| p.id == mover);
                    let p = p.expect("rank 0 adopted it");
                    p.pos.x = half - 1e-6;
                    p.vel.x = 1.0;
                }
            },
            |pe, _| {
                let mine = pe.columns.values().flat_map(|s| s.particles());
                (pe.ghost_desyncs, mine.map(|p| p.id).collect::<Vec<_>>())
            },
        );
        let (desyncs, owned): (Vec<u64>, Vec<&Vec<u64>>) =
            seen.iter().map(|(_, (d, ids))| (*d, ids)).unzip();
        assert_eq!(desyncs, [0, 1, 0, 0, 0, 0, 0, 0]);
        assert!(owned[1].contains(&mover) && !owned[0].contains(&mover));
        assert_eq!(
            owned.iter().map(|ids| ids.len()).sum::<usize>(),
            cfg.n_particles
        );
    }

    #[test]
    fn sentinel_accepts_an_exact_partition_with_conserved_count() {
        let cfg = RunConfig::new(216, 4, 4, 0.2);
        // 4 ranks, 16 columns split 4/4/4/4, counts summing to 216.
        let chunks: Vec<(u64, Vec<Col>)> = (0..4)
            .map(|r| {
                let cols = (0..4).map(|i| Col::new(r, i)).collect();
                (54, cols)
            })
            .collect();
        assert_eq!(validate_sentinel(&cfg, 7, &chunks, |_| 0..4), Ok(()));
    }

    #[test]
    fn sentinel_flags_lost_particles_and_broken_partitions() {
        let cfg = RunConfig::new(216, 4, 4, 0.2);
        let good: Vec<(u64, Vec<Col>)> = (0..4)
            .map(|r| (54, (0..4).map(|i| Col::new(r, i)).collect()))
            .collect();
        // Lost particles.
        let mut lost = good.clone();
        lost[2].0 = 53;
        let e = validate_sentinel(&cfg, 9, &lost, |_| 0..4).unwrap_err();
        assert_eq!(e.step, 9);
        assert!(e.to_string().contains("particle count 215"), "{e}");
        // A column claimed twice (and therefore one missing).
        let mut dup = good.clone();
        dup[0].1[0] = Col::new(1, 0);
        let e = validate_sentinel(&cfg, 9, &dup, |_| 0..4).unwrap_err();
        assert!(e.to_string().contains("owned by multiple ranks"), "{e}");
        assert!(e.to_string().contains("60 distinct cells"), "{e}");
        // A column off the grid.
        let mut off = good;
        off[3].1[3] = Col::new(9, 9);
        let e = validate_sentinel(&cfg, 9, &off, |_| 0..4).unwrap_err();
        assert!(e.to_string().contains("expected the full 64"), "{e}");
        // The cube's granule is a z block of a column: two ranks may hold
        // the same column, but not the same block of it.
        let halves: Vec<(u64, Vec<Col>)> = (0..2)
            .map(|_| (108, (0..16).map(|i| Col::new(i / 4, i % 4)).collect()))
            .collect();
        let z_half = |rank: usize| 2 * rank..2 * rank + 2;
        assert_eq!(validate_sentinel(&cfg, 9, &halves, z_half), Ok(()));
        let e = validate_sentinel(&cfg, 9, &halves, |_| 0..2).unwrap_err();
        assert!(e.to_string().contains("owned by multiple ranks"), "{e}");
        assert!(e.to_string().contains("32 distinct cells"), "{e}");
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
