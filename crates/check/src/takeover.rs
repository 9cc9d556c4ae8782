//! Static verification of the degraded-mode survivor-takeover protocol.
//!
//! When a rank dies mid-run, `pcdlb-sim`'s takeover path
//! (`crates/sim/src/takeover.rs`) has a deterministically chosen buddy
//! survivor adopt the dead **virtual rank** and drive both ranks' slots
//! in every communication phase from one OS thread. Two things must hold
//! for that to be sound before any run, and `pcdlb-check verify` checks
//! both on every grid it verifies:
//!
//! - **The buddy map is well-formed** ([`check_buddy_map`]): total and
//!   deterministic over every grid, never maps a rank to itself, always
//!   lands on an 8-neighbour (the adopter already exchanges with every
//!   rank the adoptee talked to), and preserves virtual-rank coverage —
//!   after one adoption the survivors' role sets still partition
//!   `0..P`.
//! - **The merged dual-role schedule is deadlock-free**
//!   ([`check_merged_schedules`]): folding the dead rank's per-step
//!   operations into its buddy's thread under the simulator's
//!   interleaving rule (point-to-point phases post both roles' sends
//!   before either role receives; gather-shaped phases run whole-role
//!   descending; broadcast halves ascending) must leave every thread
//!   able to run to completion with all channels drained. The
//!   single-thread-two-ranks execution model needs its own checker
//!   ([`run_thread_schedules`]): the static blocking-wait-graph check in
//!   [`crate::verify`] keys receives by *rank*, which no longer equals
//!   *thread* once a thread hosts two ranks.
//!
//! That real kill points recover bitwise — degraded on `n − 1` threads
//! or via a relaunch — is a row of the fault-scenario table
//! ([`crate::sweep`]).

use std::collections::BTreeMap;

use pcdlb_core::protocol::tags::{self, CommPhase};
use pcdlb_mp::collectives::COLLECTIVE_BIT;
use pcdlb_mp::Torus2d;

use crate::schedule::{step_schedule, Op, PhasedOp, ScheduleOpts, StepSchedule};
use crate::verify::planned_retile;

/// Check the buddy map on every square grid with side `2..=max_side`.
/// Returns human-readable violations (empty for a correct map).
pub fn check_buddy_map(max_side: usize) -> (usize, Vec<String>) {
    let mut checked = 0;
    let mut out = Vec::new();
    for side in 2..=max_side.max(2) {
        let torus = Torus2d::new(side, side);
        let p = torus.len();
        for dead in 0..p {
            checked += 1;
            let buddy = torus.buddy(dead);
            if buddy == dead {
                out.push(format!("side {side}: buddy({dead}) = {dead} (self)"));
                continue;
            }
            if buddy >= p {
                out.push(format!("side {side}: buddy({dead}) = {buddy} out of range"));
                continue;
            }
            if torus.buddy(dead) != buddy {
                out.push(format!("side {side}: buddy({dead}) is not deterministic"));
            }
            if !torus.distinct_neighbors8(dead).contains(&buddy) {
                out.push(format!(
                    "side {side}: buddy({dead}) = {buddy} is not an 8-neighbour — \
                     the adopter would need channels it never opened"
                ));
            }
            // Coverage: after the buddy adopts, the survivors' role sets
            // must still partition the full virtual-rank set.
            let mut roles: Vec<usize> = (0..p).filter(|&r| r != dead).collect();
            roles.push(dead);
            roles.sort_unstable();
            if roles != (0..p).collect::<Vec<usize>>() {
                out.push(format!(
                    "side {side}: adoption of {dead} by {buddy} breaks virtual-rank coverage"
                ));
            }
        }
    }
    (checked, out)
}

fn op_tag(po: &PhasedOp) -> u64 {
    let (Op::Send { tag, .. } | Op::Recv { tag, .. }) = po.op;
    tag
}

/// The pre-namespacing base tag of a collective wire tag.
fn base_tag(wire: u64) -> u64 {
    (wire & !COLLECTIVE_BIT) >> 8
}

fn ops_of<'a>(
    s: &'a StepSchedule,
    v: usize,
    phase: CommPhase,
) -> impl Iterator<Item = PhasedOp> + 'a {
    s.ranks[v]
        .iter()
        .copied()
        .filter(move |po| po.phase == phase)
}

/// Fold a thread's role set into one program-ordered operation sequence
/// under the simulator's dual-role interleaving rule (`step_multi` /
/// `run_roles` in `crates/sim/src/engine.rs`):
///
/// - the re-tile check (a re-tiling run's check steps, ahead of round 1):
///   the work-map gather whole-role descending, the decision broadcast
///   ascending — the thermostat's pattern;
/// - point-to-point phases — round 1, the re-tile move, the ghosts: every
///   role's sends (roles ascending), then every role's receives (roles
///   ascending);
/// - the thermostat: the KE-gather half whole-role *descending* (the
///   non-root role's contribution is posted before the root role starts
///   receiving), the scale-broadcast half ascending (a binomial-tree
///   parent is always a lower rank, so the lower role never waits on its
///   own thread's higher role);
/// - the remaining gather-shaped phases (stats, checkpoint, sentinel,
///   snapshot): whole-role descending.
///
/// With a single role this reproduces the rank's schedule order exactly.
pub fn merge_roles(s: &StepSchedule, roles: &[usize]) -> Vec<(usize, PhasedOp)> {
    let mut out = Vec::new();
    for &v in roles.iter().rev() {
        out.extend(
            ops_of(s, v, CommPhase::RetileCheck)
                .filter(|po| base_tag(op_tag(po)) == tags::RETILE_GATHER)
                .map(|po| (v, po)),
        );
    }
    for &v in roles {
        out.extend(
            ops_of(s, v, CommPhase::RetileCheck)
                .filter(|po| base_tag(op_tag(po)) == tags::RETILE_BCAST)
                .map(|po| (v, po)),
        );
    }
    for phase in [CommPhase::Migrate, CommPhase::Retile, CommPhase::Ghost] {
        for &v in roles {
            out.extend(
                ops_of(s, v, phase)
                    .filter(|po| matches!(po.op, Op::Send { .. }))
                    .map(|po| (v, po)),
            );
        }
        for &v in roles {
            out.extend(
                ops_of(s, v, phase)
                    .filter(|po| matches!(po.op, Op::Recv { .. }))
                    .map(|po| (v, po)),
            );
        }
    }
    for &v in roles.iter().rev() {
        out.extend(
            ops_of(s, v, CommPhase::Thermostat)
                .filter(|po| base_tag(op_tag(po)) == tags::KE_GATHER)
                .map(|po| (v, po)),
        );
    }
    for &v in roles {
        out.extend(
            ops_of(s, v, CommPhase::Thermostat)
                .filter(|po| base_tag(op_tag(po)) == tags::KE_BCAST)
                .map(|po| (v, po)),
        );
    }
    for phase in [
        CommPhase::Stats,
        CommPhase::Checkpoint,
        CommPhase::Sentinel,
        CommPhase::Snapshot,
    ] {
        for &v in roles.iter().rev() {
            out.extend(ops_of(s, v, phase).map(|po| (v, po)));
        }
    }
    out
}

/// The degraded world as thread programs: one merged sequence per
/// surviving physical rank (ascending), the buddy's carrying both its
/// own role and the dead rank's.
pub fn merged_thread_schedule(
    s: &StepSchedule,
    dead: usize,
    buddy: usize,
) -> Vec<Vec<(usize, PhasedOp)>> {
    (0..s.p)
        .filter(|&r| r != dead)
        .map(|r| {
            if r == buddy {
                let mut roles = vec![buddy, dead];
                roles.sort_unstable();
                merge_roles(s, &roles)
            } else {
                merge_roles(s, &[r])
            }
        })
        .collect()
}

/// Execute a set of thread programs under the runtime's semantics —
/// sends are non-blocking, a receive blocks until a matching message
/// exists on its `(src, dst, tag)` channel — and report a deadlock or an
/// undrained channel. Executing an operation never disables another, so
/// running each thread as far as it can go, round-robin to a fixpoint,
/// is both sound and complete for this model.
pub fn run_thread_schedules(threads: &[Vec<(usize, PhasedOp)>]) -> Result<(), String> {
    let mut cursor = vec![0usize; threads.len()];
    let mut chan: BTreeMap<(usize, usize, u64), u64> = BTreeMap::new();
    loop {
        let mut progressed = false;
        for (t, ops) in threads.iter().enumerate() {
            while let Some(&(v, po)) = ops.get(cursor[t]) {
                match po.op {
                    Op::Send { to, tag } => {
                        *chan.entry((v, to, tag)).or_insert(0) += 1;
                    }
                    Op::Recv { from, tag } => match chan.get_mut(&(from, v, tag)) {
                        Some(n) if *n > 0 => *n -= 1,
                        _ => break,
                    },
                }
                cursor[t] += 1;
                progressed = true;
            }
        }
        let done = cursor.iter().zip(threads).all(|(&c, ops)| c == ops.len());
        if done {
            if let Some((&(src, dst, tag), n)) = chan.iter().find(|&(_, &n)| n > 0) {
                return Err(format!(
                    "{n} undrained message(s) on (src {src}, dst {dst}, tag {tag})"
                ));
            }
            return Ok(());
        }
        if !progressed {
            let stuck: Vec<String> = threads
                .iter()
                .enumerate()
                .filter(|&(t, ops)| cursor[t] < ops.len())
                .map(|(t, ops)| {
                    let (v, po) = ops[cursor[t]];
                    format!("thread {t} (as vrank {v}) blocked at {:?}", po.op)
                })
                .collect();
            return Err(format!("deadlock: {}", stuck.join("; ")));
        }
    }
}

/// Check deadlock freedom of every merged dual-role schedule: for each
/// grid side `2..=max_side`, each dead rank, and a scenario sweep (the
/// base schedule; the full schedule; on sides 3–4 the re-tile check
/// steps: one that keeps the tiling, a clustered start's re-tile, and one
/// with a frame between every two ranks, which covers frames into, out
/// of, past and within the merged thread). Returns `(schedules checked,
/// violations)`.
pub fn check_merged_schedules(max_side: usize) -> (usize, Vec<String>) {
    let mut checked = 0;
    let mut out = Vec::new();
    for side in 2..=max_side.max(2) {
        let torus = Torus2d::new(side, side);
        let p = torus.len();
        let mut scenarios: Vec<ScheduleOpts> = vec![
            ScheduleOpts::default(),
            ScheduleOpts {
                dlb: side >= 3,
                ..ScheduleOpts::full()
            },
        ];
        if (3..=4).contains(&side) {
            let every_pair =
                (0..p).flat_map(|a| (0..p).filter(move |&b| b != a).map(move |b| (a, b)));
            for retile in [Vec::new(), planned_retile(p), every_pair.collect()] {
                scenarios.push(ScheduleOpts {
                    retile_check: true,
                    retile,
                    ..ScheduleOpts::full()
                });
            }
        }
        for opts in &scenarios {
            let s = step_schedule(side, opts);
            for dead in 0..p {
                let buddy = torus.buddy(dead);
                checked += 1;
                if let Err(e) = run_thread_schedules(&merged_thread_schedule(&s, dead, buddy)) {
                    out.push(format!(
                        "side {side}, dead {dead} (buddy {buddy}), re-tile {:?}: {e}",
                        opts.retile
                    ));
                }
            }
        }
    }
    (checked, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buddy_map_is_total_adjacent_and_coverage_preserving() {
        let (checked, violations) = check_buddy_map(6);
        assert!(violations.is_empty(), "{violations:#?}");
        // 4 + 9 + 16 + 25 + 36 dead-rank cases.
        assert_eq!(checked, 90);
    }

    #[test]
    fn merged_dual_role_schedules_are_deadlock_free() {
        let (checked, violations) = check_merged_schedules(5);
        assert!(violations.is_empty(), "{violations:#?}");
        // Per dead rank: two scenarios on sides 2 and 5, five (with the
        // three re-tile check steps) on sides 3 and 4.
        assert_eq!(checked, 2 * 4 + 5 * 9 + 5 * 16 + 2 * 25);
    }

    #[test]
    fn single_role_merge_reproduces_the_rank_schedule() {
        let retiling = ScheduleOpts {
            retile_check: true,
            retile: planned_retile(9),
            ..ScheduleOpts::full()
        };
        assert!(!retiling.retile.is_empty());
        for opts in [ScheduleOpts::full(), retiling] {
            let s = step_schedule(3, &opts);
            for r in 0..s.p {
                let merged: Vec<PhasedOp> = merge_roles(&s, &[r])
                    .into_iter()
                    .map(|(_, po)| po)
                    .collect();
                assert_eq!(merged, s.ranks[r], "rank {r}");
            }
        }
    }

    #[test]
    fn the_checker_detects_a_recv_before_send_cycle() {
        let mk = |op| PhasedOp {
            phase: CommPhase::Migrate,
            op,
        };
        // Two threads, each receiving before posting the send the other
        // blocks on.
        let threads = vec![
            vec![
                (0, mk(Op::Recv { from: 1, tag: 4 })),
                (0, mk(Op::Send { to: 1, tag: 4 })),
            ],
            vec![
                (1, mk(Op::Recv { from: 0, tag: 4 })),
                (1, mk(Op::Send { to: 0, tag: 4 })),
            ],
        ];
        let err = run_thread_schedules(&threads).expect_err("must deadlock");
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn the_checker_detects_a_same_thread_gather_inversion() {
        // A thread holding the gather root (role 0) and a contributor
        // (role 1), wrongly merged ascending: role 0 blocks on role 1's
        // contribution, which its own thread only posts later.
        let mk = |op| PhasedOp {
            phase: CommPhase::Stats,
            op,
        };
        let threads = vec![
            vec![
                (0, mk(Op::Recv { from: 1, tag: 12 })),
                (0, mk(Op::Recv { from: 2, tag: 12 })),
                (1, mk(Op::Send { to: 0, tag: 12 })),
            ],
            vec![(2, mk(Op::Send { to: 0, tag: 12 }))],
        ];
        let err = run_thread_schedules(&threads).expect_err("must deadlock");
        assert!(err.contains("blocked at"), "{err}");
        // The correct (descending) merge of the same ops is clean.
        let threads = vec![
            vec![
                (1, mk(Op::Send { to: 0, tag: 12 })),
                (0, mk(Op::Recv { from: 1, tag: 12 })),
                (0, mk(Op::Recv { from: 2, tag: 12 })),
            ],
            vec![(2, mk(Op::Send { to: 0, tag: 12 }))],
        ];
        run_thread_schedules(&threads).expect("descending merge is deadlock-free");
    }

    #[test]
    fn the_checker_detects_an_undrained_channel() {
        let mk = |op| PhasedOp {
            phase: CommPhase::Migrate,
            op,
        };
        let threads = vec![vec![(0, mk(Op::Send { to: 1, tag: 4 }))], vec![]];
        let err = run_thread_schedules(&threads).expect_err("must report the leak");
        assert!(err.contains("undrained"), "{err}");
    }
}
