//! The run loop: how a thread takes its virtual rank(s) through a whole
//! simulation and how one step is sequenced, for every domain shape. The
//! phases are [`crate::pe`]'s; this module is their order. A plain launch
//! ([`crate::driver`]) enters `run_roles` with one role per thread; the
//! takeover rung ([`crate::takeover`]) re-enters it after a rank death
//! with the adopting thread driving **two**.
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
//!
//! Dual-role phase interleaving is what keeps such a degraded world
//! deadlock-free: point-to-point phases post *both* roles' sends before
//! either role blocks in a receive; gather-shaped phases run whole-role
//! in descending role order (the non-root role's send is posted before
//! the root role starts receiving); broadcast halves run ascending (a
//! binomial-tree parent is always a lower rank). With one role this is
//! the plain single-rank order. `pcdlb-check verify` checks the merged
//! schedules mechanically and `pcdlb-check sweep` kills at real points.

use std::sync::{Arc, Mutex, PoisonError};

use pcdlb_domain::DomainShape;
use pcdlb_md::Particle;
use pcdlb_mp::Comm;

use crate::clock::WallTimer;
use crate::config::RunConfig;
use crate::launch::{LaunchPlan, Placed, Retile};
use crate::pe::{Exchange, Held, PeResult, PeState};
use crate::recover::SimCheckpoint;
use crate::report::{RunReport, StepRecord};

/// This thread's roles: virtual rank and its PE, ascending.
type Roles = [(usize, PeState)];

/// Run `phase` as each role in turn, ascending (its position in the role
/// set comes first): the order of a point-to-point or broadcast half.
fn ascending(
    comm: &mut Comm,
    pes: &mut Roles,
    mut phase: impl FnMut(usize, &mut PeState, &mut Comm),
) {
    for (i, (v, pe)) in pes.iter_mut().enumerate() {
        comm.act_as(*v);
        phase(i, pe, comm);
    }
}

/// [`ascending`], descending: the order of a gather-shaped phase.
fn descending(
    comm: &mut Comm,
    pes: &mut Roles,
    mut phase: impl FnMut(usize, &mut PeState, &mut Comm),
) {
    for (i, (v, pe)) in pes.iter_mut().enumerate().rev() {
        comm.act_as(*v);
        phase(i, pe, comm);
    }
}

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

/// Drive one or two virtual ranks through the whole simulation — the one
/// SPMD run loop, for every domain shape, as `program` says. With a single
/// role this emits exactly the historical single-role message sequence;
/// with two (the pillar's buddy takeover), [`step_multi`]'s interleaving
/// keeps the world deadlock-free. Checkpoints land in `sink`; in takeover
/// worlds a deadline-bounded completion handshake keeps every thread alive
/// until the whole world has finished, so a late death still interrupts
/// someone who can absorb it.
pub(crate) fn run_roles(
    comm: &mut Comm,
    cfg: &RunConfig,
    program: Program,
    roles: &[usize],
    start: Start,
    sink: Option<&Mutex<Option<SimCheckpoint>>>,
) -> Vec<(usize, PeResult)> {
    let Program {
        shape,
        retile,
        snapshot: want_snapshot,
        drain,
    } = program;
    let run_start = WallTimer::start();
    let mut start_step = 0;
    let mut records: Vec<StepRecord> = Vec::new();
    if let Start::Restore(ck) = start {
        start_step = ck.md.step;
        if roles.contains(&0) {
            records = ck.records.clone();
        }
    }
    let mut pes: Vec<(usize, PeState)> = roles
        .iter()
        .map(|&v| {
            let mut pe = match start {
                Start::Restore(ck) => {
                    assert_eq!(
                        shape,
                        DomainShape::SquarePillar,
                        "only the square pillar restores from a checkpoint"
                    );
                    PeState::from_checkpoint(v, cfg, ck)
                }
                Start::Fresh(placed, plan) => PeState::new(v, cfg, shape, placed, plan),
            };
            if let Some(launched) = retile {
                pe.follow_the_load(launched);
            }
            (v, pe)
        })
        .collect();

    // Initial forces need an initial ghost exchange. On a restore this
    // recomputes exactly the force array the checkpointed run held (see
    // `PeState::from_checkpoint`). Construction/restore is a rebuild
    // boundary, so the initial exchange always re-bins.
    exchange_ghosts_and_compute(comm, &mut pes, Exchange::Shells);
    // A launch that starts with no neighbour loads in hand — a fresh run,
    // a generation restarted on another torus — announces the ones just
    // measured. The run is not charged for it (the lap below).
    let loads_in_hand = matches!(start, Start::Restore(ck) if !ck.loads.is_empty());
    if !loads_in_hand {
        announce_loads(comm, &mut pes);
    }
    ascending(comm, &mut pes, |_, _, comm| {
        let _ = comm.lap_virtual_comm();
    });

    for step in start_step + 1..=cfg.steps {
        for rec in step_multi(comm, cfg, &mut pes, step).into_iter().flatten() {
            records.push(rec);
        }
        let periodic_ckpt = cfg.checkpoint_interval > 0
            && step.is_multiple_of(cfg.checkpoint_interval)
            && step < cfg.steps;
        if periodic_ckpt || (drain && step == cfg.steps) {
            // (Only role 0, the gather's root, holds records or reads them.)
            descending(comm, &mut pes, |_, pe, comm| {
                let ck = pe.take_checkpoint(comm, step, &records);
                if let (Some(ck), Some(sink)) = (ck, sink) {
                    *sink.lock().unwrap_or_else(PoisonError::into_inner) = Some(ck);
                }
            });
        }
        descending(comm, &mut pes, |_, pe, comm| pe.sentinel_check(comm, step));
    }

    // (`Some` on role 0, the gather's root, only.)
    let mut snapshot0: Option<Vec<Particle>> = None;
    if want_snapshot {
        descending(comm, &mut pes, |_, pe, comm| {
            snapshot0 = snapshot0.take().or(pe.gather_snapshot(comm));
        });
    }
    if comm.takeover_enabled() {
        crate::takeover::completion_handshake(comm, roles);
    }

    let mut records = Some(records);
    pes.into_iter()
        .map(|(v, pe)| {
            comm.act_as(v);
            let comm_stats = comm.stats();
            let report = (v == 0).then(|| RunReport {
                records: records.take().expect("role 0 appears once"),
                wall_s: run_start.elapsed_s(),
                tiling: pe.tiling(),
                retiles: pe.retiles(),
                // Totals and the per-rank view are filled in by the
                // driver from all ranks' results.
                ..RunReport::default()
            });
            let snapshot = if v == 0 { snapshot0.take() } else { None };
            (
                v,
                PeResult {
                    report,
                    snapshot,
                    comm_stats,
                    phase_times: pe.phase_times(),
                    wire_bytes: pe.wire_bytes(),
                    ghost_desyncs: pe.ghost_desyncs(),
                    cells: pe.owned_cells(),
                },
            )
        })
        .collect()
}

/// The launch announcement of a balancing run (a no-op in any other):
/// the balancer decides each step on loads announced the step before, so
/// before the first step every role sends its neighbours one migrant-free
/// round 1 carrying the load the initial force pass measured.
pub(crate) fn announce_loads(comm: &mut Comm, pes: &mut Roles) {
    if pes[0].1.balances() {
        ascending(comm, pes, |_, pe, comm| pe.step_send_round1(comm));
        ascending(comm, pes, |_, pe, comm| pe.step_recv_round1(comm));
    }
}

/// One full step over this thread's role set, with the dual-role-safe
/// interleaving of the [module docs](self): point-to-point phases post
/// every role's sends (ascending) before any role receives (ascending);
/// gather-shaped phases run whole-role descending; the thermostat
/// broadcast runs ascending. This is the step sequence — the only one.
pub(crate) fn step_multi(
    comm: &mut Comm,
    cfg: &RunConfig,
    pes: &mut Roles,
    step: u64,
) -> [Option<StepRecord>; 2] {
    let t0 = WallTimer::start();
    // A thread drives at most two roles (one buddy takeover per launch),
    // so fixed arrays keep the per-role scratch off the heap.
    assert!(pes.len() <= 2, "at most two roles per thread");
    for (_, pe) in pes.iter_mut() {
        pe.begin_step(step);
    }
    // Rebuild decision (skin > 0 only — with skin == 0 the gather half
    // returns None, every step rebuilds, and no messages flow): a
    // gather-shaped collective, whole-role descending, then the
    // broadcast-and-decide half ascending — the thermostat's dual-role
    // pattern. Every role lands on the identical decision.
    let mut rebuild = true;
    if cfg.skin > 0.0 {
        let mut roots: [Option<f64>; 2] = [None, None];
        descending(comm, pes, |i, pe, comm| {
            roots[i] = pe.rebuild_gather(comm).expect("skin > 0 always gathers");
        });
        ascending(comm, pes, |i, pe, comm| {
            let r = pe.rebuild_apply(comm, step, roots[i]);
            debug_assert!(i == 0 || r == rebuild, "roles disagree on rebuild");
            rebuild = r;
        });
    }
    // The slow loop, on a re-tiling run's check steps: the work map the
    // last force pass measured goes to rank 0 — gather-shaped, whole-role
    // descending — and its decision comes back, ascending. Every role
    // lands on the same decision.
    let mut retile: Option<Arc<Retile>> = None;
    if pes[0].1.retile_due(step, rebuild) {
        let mut held: [Option<Vec<Held>>; 2] = [None, None];
        descending(comm, pes, |i, pe, comm| held[i] = pe.retile_gather(comm));
        ascending(comm, pes, |i, pe, comm| {
            retile = pe.retile_decide(comm, step, held[i].take());
        });
    }
    // Migration, DLB, and ghost-membership changes only happen on
    // rebuild steps — mid-epoch the binning is frozen everywhere. First
    // the decisions the last rebuild step's frames brought land in every
    // view (their columns travel in this step's first frames) — unless the
    // step re-tiles, which plans its ownership whole from who holds what,
    // and which the balancer sits out. Then the balancer decides, before
    // anything moves or is sent, on the loads it already holds: its
    // decision rides the step's first frame.
    let mut transferred = [0u64; 2];
    if rebuild && retile.is_none() {
        for (i, (_, pe)) in pes.iter_mut().enumerate() {
            transferred[i] = pe.dlb_land();
        }
    }
    for (_, pe) in pes.iter_mut() {
        if pe.dlb_due(step, rebuild) && retile.is_none() {
            pe.dlb_decide();
        }
    }
    for (_, pe) in pes.iter_mut() {
        pe.kick_drift_all();
    }
    // What travels this step. Mid-epoch: one positions-only refresh per
    // neighbour. Rebuild steps: two rounds — or, where the neighbour set
    // is closed two cells out under every ownership the balancer can
    // reach (every role of a world agrees on that), migrants and ghosts
    // in one frame, on every step but a re-tile.
    let exchange = match (rebuild, pes[0].1.exchanges_once() && retile.is_none()) {
        (false, _) => Exchange::Refresh,
        (true, false) => Exchange::Shells,
        (true, true) => Exchange::Single,
    };
    // Round 1: migration — the landed columns' particles among the
    // migrants — plus the balancer's ride-along: loads, and the decisions
    // just taken, which land at the next rebuild step (retained particles
    // stay staged inside each PE).
    if exchange == Exchange::Shells {
        ascending(comm, pes, |_, pe, comm| pe.step_send_round1(comm));
        ascending(comm, pes, |_, pe, comm| pe.step_recv_round1(comm));
    }
    // A re-tile: every column whose owner changes goes straight to its
    // new owner, and the views follow the new tiling.
    if let Some(r) = &retile {
        ascending(comm, pes, |i, pe, comm| {
            transferred[i] += pe.retile_send(comm, r)
        });
        ascending(comm, pes, |_, pe, comm| pe.retile_recv(comm, r));
    }
    // Ghost exchange and the local force pass, then the second
    // half-kick.
    exchange_ghosts_and_compute(comm, pes, exchange);
    for (_, pe) in pes.iter_mut() {
        pe.kick_all();
    }
    // Thermostat: KE gather descending, scale broadcast ascending.
    let mut scales: [Option<Option<f64>>; 2] = [None; 2];
    descending(comm, pes, |i, pe, comm| {
        scales[i] = pe.thermostat_gather(comm, step)
    });
    ascending(comm, pes, |i, pe, comm| {
        if let Some(scale) = scales[i] {
            pe.thermostat_apply(comm, scale);
        }
    });
    // Statistics gather: whole-role, descending.
    let wall = t0.elapsed_s();
    let mut recs: [Option<StepRecord>; 2] = [None; 2];
    descending(comm, pes, |i, pe, comm| {
        recs[i] = pe.collect_stats(comm, step, transferred[i], wall);
    });
    recs
}

/// Phases 4–5 over this thread's role set (split-phase across roles):
/// post every role's frames, then receive, then compute — a dual-role
/// thread has both personas' sends posted before either blocks in a
/// receive. `exchange` says what the frames carry: the shells, a
/// mid-epoch refresh, or a single-exchange step's migrants and ghosts
/// together.
pub(crate) fn exchange_ghosts_and_compute(comm: &mut Comm, pes: &mut Roles, exchange: Exchange) {
    ascending(comm, pes, |_, pe, comm| pe.ghosts_send(comm, exchange));
    ascending(comm, pes, |_, pe, comm| pe.ghosts_recv(comm, exchange));
    for (_, pe) in pes.iter_mut() {
        pe.compute_forces();
    }
}
