//! The run loop: how a rank takes its PE through a whole simulation and
//! how one step is sequenced, for every domain shape. The phases are
//! [`crate::pe`]'s; this module is their order. Every launch
//! ([`crate::driver`]) enters `run_pe` once per rank thread.
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

use pcdlb_domain::DomainShape;
use pcdlb_mp::Comm;

use crate::clock::WallTimer;
use crate::config::RunConfig;
use crate::launch::{LaunchPlan, Placed};
use crate::pe::{Exchange, PeResult, PeState};
use crate::recover::SimCheckpoint;
use crate::report::{RunReport, StepRecord};

/// What a launch asks of its ranks besides the configuration: the front
/// door's choices ([`crate::driver::Launch`]).
#[derive(Clone, Copy)]
pub(crate) struct Program {
    pub(crate) shape: DomainShape,
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

/// Where a launch's particles come from.
#[derive(Clone, Copy)]
pub(crate) enum Start<'a> {
    /// The world's shared initial condition ([`crate::pe::initial_particles`],
    /// generated and placed in its cells once per world, not once per
    /// rank) and the launch plan — the tiling and the transfers made on it
    /// ([`crate::launch::launch_plan`], computed once per world too).
    Fresh(&'a Placed, &'a LaunchPlan),
    /// A distributed checkpoint (square pillar only).
    Restore(&'a SimCheckpoint),
}

/// Drive this rank's PE through the whole simulation — the one SPMD run
/// loop, for every domain shape, as `program` says. Checkpoints land in
/// `sink`.
pub(crate) fn run_pe(
    comm: &mut Comm,
    cfg: &RunConfig,
    program: Program,
    start: Start,
    sink: Option<&Mutex<Option<SimCheckpoint>>>,
) -> PeResult {
    let Program {
        shape,
        retile,
        snapshot: want_snapshot,
        drain,
    } = program;
    let run_start = WallTimer::start();
    let rank = comm.rank();
    let mut start_step = 0;
    let mut records: Vec<StepRecord> = Vec::new();
    let mut pe = match start {
        Start::Restore(ck) => {
            assert_eq!(
                shape,
                DomainShape::SquarePillar,
                "only the square pillar restores from a checkpoint"
            );
            start_step = ck.md.step;
            if rank == 0 {
                records = ck.records.clone();
            }
            PeState::from_checkpoint(rank, cfg, ck)
        }
        Start::Fresh(placed, plan) => PeState::new(rank, cfg, shape, placed, plan),
    };
    if let Some(launched) = retile {
        pe.follow_the_load(launched);
    }

    // Initial forces need an initial ghost exchange. On a restore this
    // recomputes exactly the force array the checkpointed run held (see
    // `PeState::from_checkpoint`). Construction/restore is a rebuild
    // boundary, so the initial exchange always re-bins.
    exchange_ghosts_and_compute(comm, &mut pe, Exchange::Shells);
    // A launch that starts with no neighbour loads in hand — a fresh run,
    // a generation restarted on another torus — announces the ones just
    // measured. The run is not charged for it (the lap below).
    let loads_in_hand = matches!(start, Start::Restore(ck) if !ck.loads.is_empty());
    if !loads_in_hand {
        announce_loads(comm, &mut pe);
    }
    let _ = comm.lap_virtual_comm();

    for step in start_step + 1..=cfg.steps {
        records.extend(step_pe(comm, &mut pe, step));
        let periodic_ckpt = cfg.checkpoint_interval > 0
            && step.is_multiple_of(cfg.checkpoint_interval)
            && step < cfg.steps;
        if periodic_ckpt || (drain && step == cfg.steps) {
            // (Only rank 0, the gather's root, holds records or reads them.)
            let ck = pe.take_checkpoint(comm, step, &records);
            if let (Some(ck), Some(sink)) = (ck, sink) {
                *sink.lock().unwrap_or_else(PoisonError::into_inner) = Some(ck);
            }
        }
        pe.sentinel_check(comm, step);
    }

    // (`Some` on rank 0, the gather's root, only.)
    let snapshot = if want_snapshot {
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

/// The launch announcement of a balancing run (a no-op in any other):
/// the balancer decides each step on loads announced the step before, so
/// before the first step every rank sends its neighbours one migrant-free
/// round 1 carrying the load the initial force pass measured.
pub(crate) fn announce_loads(comm: &mut Comm, pe: &mut PeState) {
    if pe.balances() {
        pe.exchange(comm, Exchange::Migrants);
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
