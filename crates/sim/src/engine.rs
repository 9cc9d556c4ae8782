//! The run loop: how a rank takes its PE through a whole simulation and
//! how one step is sequenced, for every domain shape. The phases are
//! [`crate::pe`]'s; this module is their order. Every launch
//! ([`crate::driver`]) enters `run_pe` once per rank thread, from one
//! [`Start`] — a fresh run is a restore at step 0 — that the launch thread
//! worked out once: every rank builds its view, adopts its cells and
//! resumes its balancer from it the same way ([`PeState::new`]), and the
//! run loop reads the step and the records it resumes from.
//!
//! A balancing decision lands one way on every shape and torus: the step's
//! first frames carry it, every PE applies it at the top of the next
//! rebuild step, and the moved column travels in that step's first frames
//! as the giver's migrants. What a step sends therefore never depends on
//! what the balancer decided.
//!
//! A re-tiling run (a balancing square pillar not launched with
//! `Launch::fixed_tiles`) checks its tiling 2, 4, 8, … steps after it was
//! last chosen — at its last re-tile, or at the launch — or under skin
//! epochs at the first rebuild step at or after each, at the top of the
//! step before the balancer decides; on a step that re-tiles, the move
//! follows round 1 and the balancer sits the step out (a re-tile step has
//! two rounds, and the decisions still pending from the step before are
//! dropped before its round 1: the re-tile plans from who holds what).
//! Both are part of the step: their messages land in its comm lap like
//! any other.

use std::sync::{Mutex, PoisonError};

use pcdlb_core::protocol::{DlbDecision, Transfer};
use pcdlb_domain::{Col, DomainShape, PillarLayout};
use pcdlb_mp::Comm;

use crate::clock::WallTimer;
use crate::config::RunConfig;
use crate::launch::{LaunchPlan, Placed};
use crate::pe::{exchanges_once, Exchange, PeResult, PeState};
use crate::recover::SimCheckpoint;
use crate::report::{RunReport, StepRecord};

/// What a launch asks of its ranks besides the configuration and where
/// they start: the front door's choices ([`crate::driver::Launch`]).
#[derive(Clone, Copy)]
pub(crate) struct Program {
    /// Check the tiling at doubling steps from the step it was last chosen
    /// and re-tile in place where it pays (a balancing square pillar
    /// without `Launch::fixed_tiles`): `Some` of the step the launch chose
    /// it at — 0, or the resize boundary an elastic generation starts from.
    pub(crate) retile: Option<u64>,
    /// Gather the final particle state to rank 0.
    pub(crate) snapshot: bool,
    /// Gather a final checkpoint at `cfg.steps` even though no step follows
    /// it — the elastic resize drain, which hands the whole world state to
    /// the next generation.
    pub(crate) drain: bool,
}

/// Where a launch starts every rank, worked out once per launch on the
/// launch thread — one form for every start: a fresh run is a restore at
/// step 0. Every rank builds its view from it alike — the home tiles of
/// `tiling`, then `decisions` replayed as decisions already made (paper
/// Sec. 2.3: every PE starts on its home domain and cells move from
/// there) — adopts its cells, owned and ghost, out of one placement, and
/// resumes its balancer from loads every rank already holds.
pub struct Start<'a> {
    pub(crate) shape: DomainShape,
    /// Every particle, placed in its cell once per launch, not once per
    /// rank.
    pub(crate) placed: &'a Placed,
    /// The last step done: 0, or the checkpoint's.
    pub(crate) step: u64,
    /// The tiling the home tiles are cut on (the square pillar's; `None`
    /// for the other shapes: see `decomp::decomposition`).
    pub(crate) tiling: Option<PillarLayout>,
    /// What rebuilds ownership from the home tiles: a launch plan's
    /// transfers, or a checkpoint's ownership.
    pub(crate) decisions: Vec<DlbDecision>,
    /// Every rank's load, which the balancer resumes from (none where the
    /// run does not balance), and the decisions still pending, which land
    /// at the first rebuild step.
    pub(crate) loads: &'a [f64],
    pub(crate) transfers: &'a [Transfer],
    /// Rank 0's step records up to `step`.
    pub(crate) records: &'a [StepRecord],
    /// The re-tiles up to `step`: `(step, tiling, columns moved)`.
    pub(crate) retiles: &'a [(u64, PillarLayout, usize)],
    /// Whether a rebuild step is one exchange
    /// ([`PeState::exchanges_once`]), asked once per launch.
    pub(crate) exchanges_once: bool,
}

impl<'a> Start<'a> {
    /// A fresh run of `cfg` on `shape`: the world's shared initial
    /// condition ([`crate::pe::initial_particles`], generated and placed
    /// once per world) and its launch plan — the tiling, the transfers
    /// made on it and the loads they end on
    /// ([`crate::launch::launch_plan`], computed once per world too). Step
    /// 0, nothing pending.
    pub fn fresh(
        shape: DomainShape,
        cfg: &RunConfig,
        placed: &'a Placed,
        plan: &'a LaunchPlan,
    ) -> Self {
        Self {
            shape,
            placed,
            step: 0,
            tiling: plan.layout,
            decisions: plan.decisions.clone(),
            loads: &plan.loads,
            transfers: &[],
            records: &[],
            retiles: &[],
            exchanges_once: closure(shape, cfg, plan.layout),
        }
    }

    /// A relaunch of `cfg` from a distributed checkpoint (square pillar
    /// only — a checkpoint records one owner per column, which is what the
    /// pillar's balancer moves), its particles placed once per launch: a
    /// sentinel rollback, a relaunch after a death, or a resized
    /// generation, whose checkpoint carries its launch plan
    /// ([`crate::elastic`]).
    pub(crate) fn restore(cfg: &RunConfig, ck: &'a SimCheckpoint, placed: &'a Placed) -> Self {
        assert_eq!(
            ck.particles.len(),
            cfg.n_particles,
            "checkpoint particle count does not match the configuration"
        );
        assert_eq!(
            (ck.tiling.grid().nc(), ck.tiling.num_ranks()),
            (cfg.nc, cfg.p),
            "checkpoint tiled for another (nc, P) than the configuration's"
        );
        let shape = DomainShape::SquarePillar;
        // Replayed as decisions already made — "`col` now belongs to
        // `owner`" — so the windowed view filters them as it did live.
        let stay = |&(col, owner): &(Col, usize)| DlbDecision {
            col,
            from: owner,
            to: owner,
        };
        let decisions = ck.ownership.iter().map(stay).collect();
        Self {
            shape,
            placed,
            step: ck.step,
            tiling: Some(ck.tiling),
            decisions,
            loads: &ck.loads,
            transfers: &ck.transfers,
            records: &ck.records,
            retiles: &ck.retiles,
            exchanges_once: closure(shape, cfg, Some(ck.tiling)),
        }
    }
}

/// The closure answer of a world of `cfg` on `shape` launched on
/// `tiling`: the world's own ([`exchanges_once`], on the even tiling). A
/// run that does not balance never leaves the even tiling, and a
/// balancing run's answer is the same on every tiling.
fn closure(shape: DomainShape, cfg: &RunConfig, tiling: Option<PillarLayout>) -> bool {
    assert!(
        cfg.dlb || tiling.is_none_or(|t| t.is_even()),
        "a run that does not balance launches on the even tiling, not on {tiling:?}"
    );
    exchanges_once(shape, cfg)
}

/// Launch this rank's PE, ready for its first step — the one launch every
/// start takes: [`PeState::new`], then, on a re-tiling run (`retile`: the
/// step the tiling was chosen at), the slow loop. It is given no `Comm`:
/// a launch sends nothing, whatever it starts from, since what a first
/// exchange would have brought — the ghost cells, the neighbours' loads —
/// every rank already holds.
pub(crate) fn launch(rank: usize, cfg: &RunConfig, retile: Option<u64>, start: &Start) -> PeState {
    let mut pe = PeState::new(rank, cfg, start);
    if let Some(launched) = retile {
        pe.follow_the_load(launched);
    }
    pe
}

/// Drive this rank's PE through the whole simulation — the one SPMD run
/// loop, for every domain shape, as `program` says. Checkpoints land in
/// `sink`.
pub(crate) fn run_pe(
    comm: &mut Comm,
    cfg: &RunConfig,
    program: Program,
    start: &Start,
    sink: Option<&Mutex<Option<SimCheckpoint>>>,
) -> PeResult {
    let run_start = WallTimer::start();
    let pe = launch(comm.rank(), cfg, program.retile, start);
    run_launched(comm, cfg, program, start, pe, sink, run_start)
}

/// [`run_pe`] from the top of the first step: the steps, the checkpoints
/// and the final gathers of a launched PE.
pub(crate) fn run_launched(
    comm: &mut Comm,
    cfg: &RunConfig,
    program: Program,
    start: &Start,
    mut pe: PeState,
    sink: Option<&Mutex<Option<SimCheckpoint>>>,
    run_start: WallTimer,
) -> PeResult {
    let rank = comm.rank();
    // (Only rank 0, the stats gather's root, holds records or reads them.)
    let mut records: Vec<StepRecord> = Vec::new();
    if rank == 0 {
        records.extend_from_slice(start.records);
    }
    for step in start.step + 1..=cfg.steps {
        records.extend(step_pe(comm, &mut pe, step));
        let periodic_ckpt = cfg.checkpoint_interval > 0
            && step.is_multiple_of(cfg.checkpoint_interval)
            && step < cfg.steps;
        if periodic_ckpt || (program.drain && step == cfg.steps) {
            let ck = pe.take_checkpoint(comm, step, &records);
            if let (Some(ck), Some(sink)) = (ck, sink) {
                *sink.lock().unwrap_or_else(PoisonError::into_inner) = Some(ck);
            }
        }
        pe.sentinel_check(comm, step);
    }

    // (`Some` on rank 0, the gather's root, only.)
    let snapshot = if program.snapshot {
        pe.gather_snapshot(comm)
    } else {
        None
    };
    let report = (rank == 0).then(|| RunReport {
        records,
        wall_s: run_start.elapsed_s(),
        tiling: pe.tiling(),
        retiles: pe.retiles(),
        // Totals and the per-rank view are filled in by the driver from
        // all ranks' results.
        ..RunReport::default()
    });
    PeResult {
        report,
        snapshot,
        comm_stats: comm.stats(),
        phase_times: pe.phase_times(),
        wire_bytes: pe.wire_bytes(),
        cells: pe.owned_cells(),
    }
}

/// One full step of this rank's PE: the step sequence — the only one.
pub(crate) fn step_pe(comm: &mut Comm, pe: &mut PeState, step: u64) -> Option<StepRecord> {
    let t0 = WallTimer::start();
    pe.begin_step(step);
    // Rebuild decision (skin > 0 only — with skin == 0 every step
    // rebuilds and no messages flow): every rank lands on the identical
    // decision.
    let rebuild = pe.rebuild_vote(comm, step);
    // The slow loop, on a re-tiling run's check steps: the work map the
    // last force pass measured goes to rank 0 and its decision comes back.
    // Every rank lands on the same decision.
    let retile = if pe.retile_due(step, rebuild) {
        pe.retile_check(comm, step)
    } else {
        None
    };
    // Migration, DLB, and ghost-membership changes only happen on
    // rebuild steps — mid-epoch the binning is frozen everywhere. First
    // the decisions the last rebuild step's frames brought land in every
    // view (their columns travel in this step's first frames) — unless the
    // step re-tiles, which plans its ownership whole from who holds what,
    // and which the balancer sits out. Then the balancer decides, before
    // anything moves or is sent, on the loads it already holds: its
    // decision rides the step's first frame.
    let mut transferred = 0;
    if rebuild && retile.is_none() {
        transferred = pe.dlb_land();
    }
    if pe.dlb_due(step, rebuild) && retile.is_none() {
        pe.dlb_decide();
    }
    pe.kick_drift_all();
    // What travels this step. Mid-epoch: one positions-only refresh per
    // neighbour. Rebuild steps: two rounds — or, where the neighbour set
    // is closed two cells out under every ownership the balancer can
    // reach (every rank of a world agrees on that), migrants and ghosts
    // in one frame, on every step but a re-tile.
    let exchange = match (rebuild, pe.exchanges_once() && retile.is_none()) {
        (false, _) => Exchange::Refresh,
        (true, false) => Exchange::Shells,
        (true, true) => Exchange::Single,
    };
    // Round 1: migration — the landed columns' particles among the
    // migrants — plus the balancer's ride-along: loads, and the decisions
    // just taken, which land at the next rebuild step (retained particles
    // stay staged inside each PE).
    if exchange == Exchange::Shells {
        pe.exchange(comm, Exchange::Migrants);
    }
    // A re-tile: every column whose owner changes goes straight to its
    // new owner, and the views follow the new tiling.
    if let Some(r) = &retile {
        transferred += pe.retile_send(comm, r);
        pe.retile_recv(comm, r);
    }
    // Ghost exchange and the local force pass, then the second
    // half-kick.
    exchange_ghosts_and_compute(comm, pe, exchange);
    pe.kick_all();
    // Thermostat: KE gather, scale broadcast.
    pe.thermostat(comm, step);
    // Statistics gather.
    let wall = t0.elapsed_s();
    pe.collect_stats(comm, step, transferred, wall)
}

/// Phases 4–5: the staged exchange, then compute. `exchange` says what
/// the frames carry: the shells, a mid-epoch refresh, or a
/// single-exchange step's migrants and ghosts together.
pub(crate) fn exchange_ghosts_and_compute(comm: &mut Comm, pe: &mut PeState, exchange: Exchange) {
    pe.exchange(comm, exchange);
    pe.compute_forces();
}
