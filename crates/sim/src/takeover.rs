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
//!    in-progress [`PeState`](crate::pe::PeState)s, and runs `handle_takeover`: the buddy
//!    ([`Torus2d::buddy`](pcdlb_mp::Torus2d::buddy), the east neighbour)
//!    adopts the dead virtual rank, everyone advances the wire epoch
//!    (flushing in-flight traffic from the dead world generation), and a
//!    deadline-bounded READY/GO barrier re-synchronises the survivors;
//! 3. all survivors re-read the shared checkpoint sink and re-enter the
//!    run loop ([`crate::engine`]'s `run_roles`) from the last checkpoint
//!    (or step 0), the adopting thread now driving **two** virtual ranks
//!    through every phase — the interleaving that keeps that
//!    deadlock-free is the run loop's, and documented there.
//!
//! This module is that rung and nothing else: the catch point, the
//! adoption, the two deadline-bounded barriers and the completion
//! handshake. Nothing in it runs every step.
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

use pcdlb_core::protocol::tags;
use pcdlb_mp::{Comm, CommError, CommErrorKind, Tag, TakeoverInterrupt};

use crate::config::RunConfig;
use crate::engine::{run_roles, Program, Start};
use crate::pe::PeResult;
use crate::recover::SimCheckpoint;

/// The SPMD entry point of every resilient launch: run this thread's
/// virtual rank(s) of the square pillar to completion from whatever
/// checkpoint `sink` holds, gathering the final snapshot. In a takeover
/// world it absorbs at most one rank death per launch by buddy takeover;
/// in any other world no [`TakeoverInterrupt`] ever fires and the loop
/// below runs once. Returns one [`PeResult`] per virtual rank this thread
/// ended the run holding.
///
/// `program` is what every launch of the generation runs (its drain
/// forces a final checkpoint gather at `cfg.steps` — the elastic resize
/// drain, see [`crate::elastic`]); `fresh` is how the world starts while
/// the sink holds no checkpoint: its shared initial condition and launch
/// plan. `resize_sync` runs the deadline-bounded resize barrier before the
/// first step, so a relaunched generation only proceeds once every rank of
/// the remapped torus is up.
pub(crate) fn takeover_main(
    comm: &mut Comm,
    cfg: &RunConfig,
    program: Program,
    fresh: Start,
    sink: &Mutex<Option<SimCheckpoint>>,
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
            run_roles(comm, cfg, program, &roles, start, Some(sink))
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
    // One epoch per absorbed death (every world starts at epoch 0): stale
    // traffic from before the death is dropped, early traffic from faster
    // survivors is parked until this endpoint catches up.
    comm.advance_epoch(deaths as u64);
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
pub(crate) fn completion_handshake(comm: &mut Comm, roles: &[usize]) {
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
