//! Degraded-mode survivor takeover: continue the run on PE death without
//! a global restart.
//!
//! The relaunch rung ([`crate::recover`]) treats any rank death as fatal
//! to the whole world: tear down all `P` threads, restore the last
//! checkpoint, relaunch. This module implements the cheaper middle rung
//! of the escalation ladder, switched on by
//! [`Ladder::takeover`](crate::driver::Ladder::takeover) — when one rank
//! dies mid-run, a
//! deterministically chosen *buddy* survivor adopts the dead rank's
//! **virtual rank** (its permanent cells, its current DLB ownership, its
//! slot in every 8-neighbour exchange) and the world continues on `n − 1`
//! OS threads with the virtual `n`-rank topology unchanged:
//!
//! 1. the dead rank's panic is registered by the launch layer; every
//!    survivor's next communication call raises
//!    [`TakeoverInterrupt`];
//! 2. each survivor unwinds to `takeover_main`'s catch point, drops its
//!    in-progress [`PeState`]s, and runs `handle_takeover`: the buddy
//!    ([`Torus2d::buddy`](pcdlb_mp::Torus2d::buddy), the east neighbour)
//!    adopts the dead virtual rank, everyone advances the wire epoch
//!    (flushing in-flight traffic from the dead world generation), and a
//!    deadline-bounded READY/GO barrier re-synchronises the survivors;
//! 3. all survivors re-read the shared checkpoint sink and re-enter
//!    `run_roles` from the last checkpoint (or step 0), the adopting
//!    thread now driving **two** virtual ranks through every phase.
//!
//! Dual-role phase interleaving is what keeps the degraded world
//! deadlock-free: point-to-point phases post *both* roles' sends before
//! either role blocks in a receive; gather-shaped phases run whole-role
//! in descending role order (the non-root role's send is posted before
//! the root role starts receiving); broadcast halves run ascending (a
//! binomial-tree parent is always a lower rank). `pcdlb-check takeover`
//! verifies the merged schedules mechanically and sweeps real kill points.
//!
//! Because each virtual rank keeps its own communication-cost persona,
//! every per-step `comm_virtual_delta` — and therefore every reported
//! `t_step` — is **bitwise identical** to an uninterrupted run's: the
//! degraded run passes the same `digest_recovery` parity check as a
//! full-relaunch recovery.
//!
//! Escalation: a transient send failure is retried inside `pcdlb-mp`; a
//! first rank death is absorbed here; a second death in the same launch,
//! a takeover barrier timeout, or an invariant-sentinel violation aborts
//! the world and falls back to a full relaunch — the next attempt of the
//! one loop in [`crate::driver`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use pcdlb_core::protocol::{tags, DlbDecision};
use pcdlb_domain::DomainShape;
use pcdlb_md::Particle;
use pcdlb_mp::{Comm, CommError, CommErrorKind, Tag, TakeoverInterrupt};

use crate::clock::WallTimer;
use crate::config::RunConfig;
use crate::launch::Placed;
use crate::pe::{Exchange, PeResult, PeState};
use crate::recover::SimCheckpoint;
use crate::report::{RunReport, StepRecord};

/// The SPMD entry point of every resilient launch: run this thread's
/// virtual rank(s) of the square pillar to completion from whatever
/// checkpoint `sink` holds, gathering the final snapshot. In a takeover
/// world it absorbs at most one rank death per launch by buddy takeover;
/// in any other world no [`TakeoverInterrupt`] ever fires and the loop
/// below runs once. Returns one [`PeResult`] per virtual rank this thread
/// ended the run holding.
///
/// `fresh` is how the world starts while the sink holds no checkpoint: its
/// shared initial condition and launch plan. `drain` forces a final
/// checkpoint gather at `cfg.steps` (the elastic resize drain — see
/// [`crate::elastic`]); `resize_sync` runs the deadline-bounded resize
/// barrier before the first step, so a relaunched generation only proceeds
/// once every rank of the remapped torus is up.
pub(crate) fn takeover_main(
    comm: &mut Comm,
    cfg: &RunConfig,
    fresh: Start,
    sink: &Mutex<Option<SimCheckpoint>>,
    drain: bool,
    resize_sync: bool,
) -> Vec<(usize, PeResult)> {
    let mut roles = vec![comm.rank()];
    loop {
        // Every (re-)entry resumes from whatever checkpoint the sink
        // holds: the previous attempt's on a relaunch, the current run's
        // own after a takeover, or none at all (step 0).
        let ckpt = sink.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let start = ckpt.as_ref().map_or(fresh, Start::Restore);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            // The barrier sits inside the catch: a death mid-barrier
            // unwinds as a TakeoverInterrupt like any other phase, and
            // every survivor re-runs the barrier at the advanced epoch.
            if resize_sync {
                survivor_barrier(comm, "resize", tags::RESIZE_READY, tags::RESIZE_GO, true);
            }
            run_roles(
                comm,
                cfg,
                DomainShape::SquarePillar,
                &roles,
                start,
                Some(sink),
                true,
                drain,
            )
        }));
        match attempt {
            Ok(results) => return results,
            Err(payload) => {
                if payload.downcast_ref::<TakeoverInterrupt>().is_none() {
                    // Not a takeover signal (a real bug, an injected kill,
                    // a sentinel abort): die like any other rank.
                    resume_unwind(payload);
                }
                handle_takeover(comm, cfg, &mut roles);
            }
        }
    }
}

/// Absorb a single rank death: adopt on the buddy, advance the epoch,
/// and re-synchronise the survivors. Panics (after raising the world
/// abort flag) when the situation is beyond in-place repair — a second
/// death in the same launch or a barrier timeout — which escalates to
/// the full-relaunch rung of the recovery ladder.
fn handle_takeover(comm: &mut Comm, cfg: &RunConfig, roles: &mut Vec<usize>) {
    let deaths = comm.deaths_observed();
    if deaths != 1 {
        comm.abort_world();
        panic!(
            "rank {}: {deaths} rank deaths in one launch — escalating to full relaunch",
            comm.phys_rank()
        );
    }
    let dead = comm.dead_ranks()[0];
    let buddy = cfg.torus().buddy(dead);
    if roles.contains(&buddy) {
        comm.adopt(dead);
        roles.push(dead);
        roles.sort_unstable();
    }
    // One epoch per absorbed death (relative to the launch's base epoch,
    // which an elastic driver bumps per resize generation): stale traffic
    // from before the death is dropped, early traffic from faster
    // survivors is parked until this endpoint catches up.
    comm.advance_epoch(comm.base_epoch() + deaths as u64);
    survivor_barrier(
        comm,
        "takeover",
        tags::TAKEOVER_READY,
        tags::TAKEOVER_GO,
        false,
    );
}

/// Deadline-bounded survivor barrier: every live thread reports READY to
/// the lowest live physical rank, which answers GO once all have
/// reported. Any timeout aborts the world (full relaunch) — the barrier
/// can never hang. It runs in two places, on two tag pairs so the
/// schedule verifier can tell them apart:
///
/// - the **takeover** barrier, *after* adoption and the epoch advance, so
///   when it opens every virtual rank is routable again and nobody can
///   race ahead into the new generation against a survivor still
///   unwinding. A receive interrupted here means a second death: not
///   `absorbable`, the world aborts.
/// - the **resize** barrier, before the first step of a resized
///   generation, so no rank races ahead into the new torus against a peer
///   that has not come up yet. A death here is the launch's first and is
///   `absorbable` like one in any other phase.
fn survivor_barrier(comm: &mut Comm, name: &str, ready: Tag, go: Tag, absorbable: bool) {
    let dead = comm.dead_ranks();
    let live: Vec<usize> = (0..comm.size()).filter(|r| !dead.contains(r)).collect();
    let root = live[0];
    let me = comm.phys_rank();
    let timeout = comm.watchdog();
    let epoch = comm.epoch();
    // Barrier traffic runs on each live thread's primary persona — the
    // virtual rank equal to its physical rank, which is never adopted.
    comm.act_as(me);
    if me == root {
        for &r in live.iter().filter(|&&r| r != root) {
            if let Err(e) = comm.recv_deadline::<u64>(r, ready, timeout) {
                let what = format!("{name} barrier failed awaiting READY");
                escalate(comm, &what, e, absorbable);
            }
        }
        for &r in live.iter().filter(|&&r| r != root) {
            comm.send(r, go, epoch);
        }
    } else {
        comm.send(root, ready, epoch);
        match comm.recv_deadline::<u64>(root, go, timeout) {
            Ok(e) => debug_assert_eq!(e, epoch, "{name} barrier epoch mismatch"),
            Err(e) => {
                let what = format!("{name} barrier failed awaiting GO");
                escalate(comm, &what, e, absorbable);
            }
        }
    }
}

/// Escalate a failed deadline-bounded control-flow receive from inside
/// [`takeover_main`]'s catch region. Where a rank death is `absorbable`
/// it surfaces as an interrupted receive and re-raises
/// [`TakeoverInterrupt`] so the catch point absorbs it in place; anything
/// else — a timeout, a world already aborting — raises the abort flag and
/// escalates to a full relaunch. Never returns.
fn escalate(comm: &mut Comm, what: &str, e: CommError, absorbable: bool) -> ! {
    if absorbable && e.kind == CommErrorKind::Interrupted {
        std::panic::panic_any(TakeoverInterrupt);
    }
    comm.abort_world();
    panic!("{what}: {e}");
}

/// Where a launch's particles come from.
#[derive(Clone, Copy)]
pub(crate) enum Start<'a> {
    /// The world's shared initial condition ([`crate::pe::initial_particles`],
    /// generated and placed in its cells once per world, not once per
    /// rank) and the launch plan's transfers
    /// ([`crate::launch::launch_plan`], computed once per world too).
    Fresh(&'a Placed, &'a [DlbDecision]),
    /// A distributed checkpoint (square pillar only).
    Restore(&'a SimCheckpoint),
}

/// Drive one or two virtual ranks through the whole simulation — the one
/// SPMD run loop, for every domain shape. With a single role this emits
/// exactly the historical single-role message sequence; with two (the
/// pillar's buddy takeover), [`step_multi`]'s interleaving keeps the
/// world deadlock-free. Checkpoints land in `sink`; in takeover worlds a
/// deadline-bounded completion handshake keeps every thread alive until
/// the whole world has finished, so a late death still interrupts
/// someone who can absorb it. With `drain` set, a final checkpoint
/// gather runs at `cfg.steps` even though no step follows it — the
/// elastic resize drain, which hands the whole world state to the next
/// generation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_roles(
    comm: &mut Comm,
    cfg: &RunConfig,
    shape: DomainShape,
    roles: &[usize],
    start: Start,
    sink: Option<&Mutex<Option<SimCheckpoint>>>,
    want_snapshot: bool,
    drain: bool,
) -> Vec<(usize, PeResult)> {
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
            let pe = match start {
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
    for (v, _) in pes.iter() {
        comm.act_as(*v);
        let _ = comm.lap_virtual_comm();
    }

    for step in start_step + 1..=cfg.steps {
        for rec in step_multi(comm, cfg, &mut pes, step).into_iter().flatten() {
            records.push(rec);
        }
        let periodic_ckpt = cfg.checkpoint_interval > 0
            && step.is_multiple_of(cfg.checkpoint_interval)
            && step < cfg.steps;
        if periodic_ckpt || (drain && step == cfg.steps) {
            // Gather-shaped: whole-role, descending.
            for (v, pe) in pes.iter_mut().rev() {
                comm.act_as(*v);
                let recs_for: &[StepRecord] = if *v == 0 { &records } else { &[] };
                let ck = pe.take_checkpoint(comm, step, recs_for);
                if let (Some(ck), Some(sink)) = (ck, sink) {
                    *sink.lock().unwrap_or_else(PoisonError::into_inner) = Some(ck);
                }
            }
        }
        for (v, pe) in pes.iter_mut().rev() {
            comm.act_as(*v);
            pe.sentinel_check(comm, step);
        }
    }

    let mut snapshot0: Option<Vec<Particle>> = None;
    if want_snapshot {
        for (v, pe) in pes.iter_mut().rev() {
            comm.act_as(*v);
            let snap = pe.gather_snapshot(comm);
            if *v == 0 {
                snapshot0 = snap;
            }
        }
    }
    if comm.takeover_enabled() {
        completion_handshake(comm, roles);
    }

    let mut records = Some(records);
    pes.into_iter()
        .map(|(v, pe)| {
            comm.act_as(v);
            let comm_stats = comm.stats();
            let report = (v == 0).then(|| RunReport {
                records: records.take().expect("role 0 appears once"),
                wall_s: run_start.elapsed_s(),
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
pub(crate) fn announce_loads(comm: &mut Comm, pes: &mut [(usize, PeState)]) {
    if !pes[0].1.balances() {
        return;
    }
    for (v, pe) in pes.iter_mut() {
        comm.act_as(*v);
        pe.step_send_round1(comm);
    }
    for (v, pe) in pes.iter_mut() {
        comm.act_as(*v);
        pe.step_recv_round1(comm);
    }
}

/// One full step over this thread's role set, with the dual-role-safe
/// interleaving: point-to-point phases post every role's sends
/// (ascending) before any role receives (ascending); gather-shaped
/// phases run whole-role descending; the thermostat broadcast runs
/// ascending. This is the step sequence — the only one; with one role
/// the interleaving degenerates to the plain single-rank order.
pub(crate) fn step_multi(
    comm: &mut Comm,
    cfg: &RunConfig,
    pes: &mut [(usize, PeState)],
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
        for (i, (v, pe)) in pes.iter_mut().enumerate().rev() {
            comm.act_as(*v);
            roots[i] = pe.rebuild_gather(comm).expect("skin > 0 always gathers");
        }
        for (i, (v, pe)) in pes.iter_mut().enumerate() {
            comm.act_as(*v);
            let r = pe.rebuild_apply(comm, step, roots[i]);
            debug_assert!(i == 0 || r == rebuild, "roles disagree on rebuild");
            rebuild = r;
        }
    }
    // Migration, DLB, and ghost-membership changes only happen on
    // rebuild steps — mid-epoch the binning is frozen everywhere. The
    // balancer decides here, before anything moves or is sent, on the
    // loads it already holds: its decision rides round 1.
    let mut dlb_now = false;
    for (_, pe) in pes.iter_mut() {
        dlb_now = pe.dlb_due(step, rebuild);
        if dlb_now {
            pe.dlb_decide();
        }
    }
    for (_, pe) in pes.iter_mut() {
        pe.kick_drift_all();
    }
    // What travels this step. Mid-epoch: one positions-only refresh per
    // neighbour. Rebuild steps: two rounds with the balancer's decisions
    // in between — or, where ownership cannot change and the neighbour
    // set is closed two cells out (every role of a world agrees on
    // that), migrants and ghosts in one frame.
    let exchange = match (rebuild, pes[0].1.exchanges_once()) {
        (false, _) => Exchange::Refresh,
        (true, false) => Exchange::Shells,
        (true, true) => Exchange::Single,
    };
    // Round 1: migration plus the balancer's ride-along — loads, and
    // the decisions just taken, which every PE folds into its ownership
    // view as the frames come in (retained particles stay staged inside
    // each PE).
    if exchange == Exchange::Shells {
        for (v, pe) in pes.iter_mut() {
            comm.act_as(*v);
            pe.step_send_round1(comm);
        }
        for (v, pe) in pes.iter_mut() {
            comm.act_as(*v);
            pe.step_recv_round1(comm);
        }
    }
    // DLB: the decided columns change hands.
    let mut transferred = [0u64; 2];
    debug_assert!(!(dlb_now && exchange == Exchange::Single));
    if dlb_now {
        for (i, (v, pe)) in pes.iter_mut().enumerate() {
            comm.act_as(*v);
            transferred[i] = pe.dlb_send_cells(comm);
        }
        for (v, pe) in pes.iter_mut() {
            comm.act_as(*v);
            pe.dlb_recv_cells(comm);
        }
    }
    // Ghost exchange and the local force pass, then the second
    // half-kick.
    exchange_ghosts_and_compute(comm, pes, exchange);
    for (_, pe) in pes.iter_mut() {
        pe.kick_all();
    }
    // Thermostat: KE gather descending, scale broadcast ascending.
    let mut scales: [Option<Option<f64>>; 2] = [None; 2];
    for (i, (v, pe)) in pes.iter_mut().enumerate().rev() {
        comm.act_as(*v);
        scales[i] = pe.thermostat_gather(comm, step);
    }
    for (i, (v, pe)) in pes.iter_mut().enumerate() {
        if let Some(scale) = scales[i] {
            comm.act_as(*v);
            pe.thermostat_apply(comm, scale);
        }
    }
    // Statistics gather: whole-role, descending.
    let wall = t0.elapsed_s();
    let mut recs: [Option<StepRecord>; 2] = [None; 2];
    for (i, (v, pe)) in pes.iter_mut().enumerate().rev() {
        comm.act_as(*v);
        recs[i] = pe.collect_stats(comm, step, transferred[i], wall);
    }
    recs
}

/// Phases 4–5 over this thread's role set (split-phase across roles):
/// post every role's frames, then receive, then compute — a dual-role
/// thread has both personas' sends posted before either blocks in a
/// receive. `exchange` says what the frames carry: the shells, a
/// mid-epoch refresh, or a single-exchange step's migrants and ghosts
/// together.
pub(crate) fn exchange_ghosts_and_compute(
    comm: &mut Comm,
    pes: &mut [(usize, PeState)],
    exchange: Exchange,
) {
    for (v, pe) in pes.iter_mut() {
        comm.act_as(*v);
        pe.ghosts_send(comm, exchange);
    }
    for (v, pe) in pes.iter_mut() {
        comm.act_as(*v);
        pe.ghosts_recv(comm, exchange);
    }
    for (_, pe) in pes.iter_mut() {
        pe.compute_forces();
    }
}

/// Completion handshake for takeover worlds: every virtual rank ≠ 0
/// reports DONE to virtual rank 0, which ACKs each after hearing from
/// all. No thread returns (taking its personas with it) while another
/// thread could still need a survivor to absorb a death. A death that
/// interrupts the handshake is absorbed in place ([`escalate`] re-raises
/// the takeover unwind); only a timeout — the unavoidable Two-Generals
/// tail between the root's ACK fan-out and the last ACK receipt — falls
/// back to a full relaunch. Every receive is deadline-bounded, so the
/// handshake can never hang. Runs after the final lap consumption, so it
/// is digest-neutral by construction.
fn completion_handshake(comm: &mut Comm, roles: &[usize]) {
    let timeout = comm.watchdog();
    let n = comm.size();
    for &v in roles.iter().filter(|&&v| v != 0) {
        comm.act_as(v);
        comm.send(0, tags::TAKEOVER_DONE, ());
    }
    if roles.contains(&0) {
        comm.act_as(0);
        for src in 1..n {
            if let Err(e) = comm.recv_deadline::<()>(src, tags::TAKEOVER_DONE, timeout) {
                escalate(comm, "completion handshake failed awaiting DONE", e, true);
            }
        }
        for dst in 1..n {
            comm.send(dst, tags::TAKEOVER_ACK, ());
        }
    }
    for &v in roles.iter().filter(|&&v| v != 0) {
        comm.act_as(v);
        if let Err(e) = comm.recv_deadline::<()>(0, tags::TAKEOVER_ACK, timeout) {
            escalate(comm, "completion handshake failed awaiting ACK", e, true);
        }
    }
}
