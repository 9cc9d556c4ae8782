//! Seeded fault injection for `check` builds.
//!
//! A [`FaultPlan`] is a deterministic schedule of transport faults keyed by
//! a rank's **send-op index**: the 0-based count of `send`/`try_send` calls
//! that rank has made. Because an SPMD rank's send sequence is itself
//! deterministic (that is the substrate's core guarantee), a plan pins each
//! fault to an exact protocol site — the same seed and schedule always
//! corrupts the same message of the same phase, producing the same
//! diagnostics. Plans are installed per rank with
//! [`Comm::set_fault_plan`](crate::Comm::set_fault_plan) from
//! [`World::with_start_hook`](crate::World::with_start_hook).
//!
//! Injectable faults ([`FaultKind`]):
//!
//! - **Drop**: the message never reaches the wire (its sequence number is
//!   still consumed, so the receiver sees a gap).
//! - **Delay**: the message is parked and released right after the next
//!   send to the same destination — a bounded reordering.
//! - **Duplicate**: a second envelope with the same sequence number
//!   follows the real one.
//! - **Truncate**: the payload is marked truncated on the wire.
//! - **Kill**: the sending rank panics at the fault site, modelling PE
//!   death mid-protocol.
//!
//! Detection lives in [`crate::comm`]: every envelope carries a per
//! (sender, destination) sequence number checked at arrival, and a
//! truncation flag checked before unpacking, so every non-kill fault
//! surfaces as a structured [`crate::comm::CommError`] on the receiver —
//! never as silent corruption — and a kill surfaces through the abort
//! flag on every blocked peer. This module is compiled only with the
//! `check` feature; release builds carry no fault-injection state at all.

/// One kind of injected transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow the message (sequence number still consumed).
    DropMessage,
    /// Park the message until the next send to the same destination.
    DelayMessage,
    /// Send the message twice (same sequence number).
    DuplicateMessage,
    /// Mark the payload truncated on the wire.
    TruncatePayload,
    /// Panic the sending rank at the fault site.
    KillRank,
    /// Transient send failure: the send attempt fails without consuming
    /// the message; the comm layer retries it in place with bounded
    /// exponential backoff (each retry is a fresh fault opportunity, so a
    /// run of consecutive `FailSend` sites models a fault that persists
    /// across retries). Deliberately **not** in [`ALL_FAULT_KINDS`]: it
    /// exercises the retry path, not the loss-detection path, and adding
    /// it would reshuffle every seeded plan.
    FailSend,
}

/// Every injectable fault kind, in a fixed order (seeded plans index into
/// this).
pub const ALL_FAULT_KINDS: [FaultKind; 5] = [
    FaultKind::DropMessage,
    FaultKind::DelayMessage,
    FaultKind::DuplicateMessage,
    FaultKind::TruncatePayload,
    FaultKind::KillRank,
];

/// A deterministic per-rank fault schedule: `(send-op index, fault)` pairs,
/// at most one fault per op, sorted ascending, plus optional
/// **tag-triggered** sites keyed by `(wire tag, nth send on that tag)` —
/// the primitive that lets a sweep kill a rank *inside* a specific
/// protocol phase (e.g. the checkpoint gather) without knowing its global
/// send-op index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    sites: Vec<(u64, FaultKind)>,
    tag_sites: Vec<(crate::comm::Tag, u64, FaultKind)>,
}

impl FaultPlan {
    /// Build a plan from explicit sites. Later duplicates of an op index
    /// are discarded; sites are sorted by op.
    pub fn new(mut sites: Vec<(u64, FaultKind)>) -> Self {
        sites.sort_by_key(|&(op, _)| op);
        sites.dedup_by_key(|&mut (op, _)| op);
        Self {
            sites,
            tag_sites: Vec::new(),
        }
    }

    /// A single fault at send op `op`.
    pub fn single(op: u64, kind: FaultKind) -> Self {
        Self::new(vec![(op, kind)])
    }

    /// Kill the rank at send op `op` — the kill-point sweep's primitive.
    pub fn kill_at(op: u64) -> Self {
        Self::single(op, FaultKind::KillRank)
    }

    /// Kill the rank at its `nth` (0-based) send carrying `wire_tag` —
    /// the phase-targeted kill primitive (e.g. mid checkpoint gather).
    pub fn kill_on_tag(wire_tag: crate::comm::Tag, nth: u64) -> Self {
        Self {
            sites: Vec::new(),
            tag_sites: vec![(wire_tag, nth, FaultKind::KillRank)],
        }
    }

    /// A run of `count` consecutive transient send failures starting at
    /// send op `first_op`. With `count <=` the comm layer's retry limit
    /// the send eventually goes through; beyond it the failure escalates
    /// as a structured `Transport` error.
    pub fn fail_sends(first_op: u64, count: u32) -> Self {
        Self::new(
            (0..count as u64)
                .map(|i| (first_op + i, FaultKind::FailSend))
                .collect(),
        )
    }

    /// A pseudo-random plan: `count` distinct fault sites drawn uniformly
    /// from `0..max_op`, each with a uniformly drawn kind. Fully
    /// determined by `seed`; an empty plan when `max_op` is zero.
    pub fn seeded(seed: u64, max_op: u64, count: usize) -> Self {
        if max_op == 0 {
            return Self::default();
        }
        let mut state = seed ^ 0x6a09_e667_f3bc_c909;
        let mut used = std::collections::BTreeSet::new();
        let mut sites = Vec::new();
        // Bounded draw loop: with count ≪ max_op collisions are rare, but
        // never spin forever when count ≥ max_op.
        let mut draws = 0u64;
        while sites.len() < count && draws < 64 + 8 * count as u64 {
            draws += 1;
            let op = splitmix64(&mut state) % max_op;
            if used.insert(op) {
                let kind = ALL_FAULT_KINDS
                    [(splitmix64(&mut state) % ALL_FAULT_KINDS.len() as u64) as usize];
                sites.push((op, kind));
            }
        }
        Self::new(sites)
    }

    /// The scheduled fault sites, sorted by op index.
    pub fn sites(&self) -> &[(u64, FaultKind)] {
        &self.sites
    }

    /// The tag-triggered fault sites: `(wire tag, nth send on that tag,
    /// fault)`.
    pub fn tag_sites(&self) -> &[(crate::comm::Tag, u64, FaultKind)] {
        &self.tag_sites
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty() && self.tag_sites.is_empty()
    }
}

/// The splitmix64 stream used for seeded plans; public so harnesses (e.g.
/// the `pcdlb-check` fault sweep) can derive per-rank seeds from one
/// world seed with the same generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-rank runtime state: walks the plan as send ops tick by and parks a
/// delayed envelope. Owned by [`crate::comm::Comm`].
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
    op: u64,
    /// Sends seen so far per wire tag, for tag-triggered sites.
    tag_counts: std::collections::BTreeMap<crate::comm::Tag, u64>,
    /// A delay-faulted envelope waiting for the next send to the same
    /// destination: `(dst, envelope)`.
    pub(crate) held: Option<(usize, crate::comm::Envelope)>,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            cursor: 0,
            op: 0,
            tag_counts: std::collections::BTreeMap::new(),
            held: None,
        }
    }

    /// Advance the send-op and per-tag counters; returns the fault
    /// scheduled at this op (op-indexed sites take precedence over
    /// tag-triggered ones), tagged with the op index for diagnostics.
    pub(crate) fn next_action(&mut self, wire_tag: crate::comm::Tag) -> Option<(u64, FaultKind)> {
        let op = self.op;
        self.op += 1;
        let count = self.tag_counts.entry(wire_tag).or_insert(0);
        let nth = *count;
        *count += 1;
        if let Some(&(site, kind)) = self.plan.sites.get(self.cursor) {
            if site == op {
                self.cursor += 1;
                return Some((op, kind));
            }
        }
        if let Some(&(_, _, kind)) = self
            .plan
            .tag_sites
            .iter()
            .find(|&&(t, n, _)| t == wire_tag && n == nth)
        {
            return Some((op, kind));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{CommConfig, CommErrorKind};
    use crate::world::World;
    use std::time::Duration;

    /// A two-rank world whose rank 0 runs under `plan`.
    fn fault_world(plan: FaultPlan) -> World {
        World::new(2)
            .with_comm_config(&CommConfig {
                watchdog: Duration::from_secs(2),
                ..Default::default()
            })
            .with_start_hook(move |comm| {
                if comm.rank() == 0 {
                    comm.set_fault_plan(plan.clone());
                }
            })
    }

    #[test]
    fn plans_sort_and_dedup_sites() {
        let p = FaultPlan::new(vec![
            (5, FaultKind::DropMessage),
            (2, FaultKind::KillRank),
            (5, FaultKind::DelayMessage),
        ]);
        assert_eq!(
            p.sites(),
            &[(2, FaultKind::KillRank), (5, FaultKind::DropMessage)]
        );
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(9, 1000, 5);
        assert_eq!(a, FaultPlan::seeded(9, 1000, 5));
        assert_eq!(a.sites().len(), 5);
        assert_ne!(a, FaultPlan::seeded(10, 1000, 5));
        assert!(FaultPlan::seeded(3, 0, 5).is_empty());
    }

    #[test]
    fn injector_fires_each_site_exactly_once_in_order() {
        let mut inj = FaultInjector::new(FaultPlan::new(vec![
            (1, FaultKind::DropMessage),
            (3, FaultKind::KillRank),
        ]));
        let fired: Vec<_> = (0..6).map(|_| inj.next_action(0)).collect();
        assert_eq!(
            fired,
            vec![
                None,
                Some((1, FaultKind::DropMessage)),
                None,
                Some((3, FaultKind::KillRank)),
                None,
                None
            ]
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "short watchdog/deadline budgets race the interpreter")]
    fn dropped_message_is_detected_as_a_sequence_gap() {
        // Rank 0's first send is swallowed; the second arrives with seq 1
        // while rank 1 expects seq 0 — a structured transport fault, not a
        // wrong value or a hang.
        let res = fault_world(FaultPlan::single(0, FaultKind::DropMessage)).try_run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64);
                comm.send(1, 2, 20u64);
                String::new()
            } else {
                let err = comm
                    .recv_deadline::<u64>(0, 2, Duration::from_secs(2))
                    .expect_err("the gap must be detected");
                assert_eq!(err.kind, CommErrorKind::Transport);
                err.message().to_string()
            }
        });
        let out = res.expect("faults were handled structurally; no rank panicked");
        assert!(
            out[1].contains("expected seq 0, got 1") && out[1].contains("lost or reordered"),
            "diagnostic: {}",
            out[1]
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "short watchdog/deadline budgets race the interpreter")]
    fn duplicated_message_is_detected_as_a_replay() {
        let res = fault_world(FaultPlan::single(0, FaultKind::DuplicateMessage)).try_run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64);
                String::new()
            } else {
                let v = comm
                    .recv_deadline::<u64>(0, 1, Duration::from_secs(2))
                    .expect("the original copy is intact");
                assert_eq!(v, 10);
                // Admitting the duplicate (same seq) fails the check.
                let err = comm
                    .recv_deadline::<u64>(0, 99, Duration::from_millis(300))
                    .expect_err("the replayed envelope must be flagged");
                assert_eq!(err.kind, CommErrorKind::Transport);
                err.message().to_string()
            }
        });
        let out = res.expect("handled structurally");
        assert!(out[1].contains("duplicated or replayed"), "got: {}", out[1]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "short watchdog/deadline budgets race the interpreter")]
    fn delayed_message_is_detected_as_a_reordering() {
        let res = fault_world(FaultPlan::single(0, FaultKind::DelayMessage)).try_run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64); // parked
                comm.send(1, 2, 20u64); // overtakes, then releases seq 0
                String::new()
            } else {
                // The first arrival carries seq 1: out of order.
                let err = comm
                    .recv_deadline::<u64>(0, 2, Duration::from_secs(2))
                    .expect_err("overtaking must be detected");
                assert_eq!(err.kind, CommErrorKind::Transport);
                err.message().to_string()
            }
        });
        let out = res.expect("handled structurally");
        assert!(out[1].contains("expected seq 0, got 1"), "got: {}", out[1]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "short watchdog/deadline budgets race the interpreter")]
    fn truncated_payload_is_detected_before_unpacking() {
        let res = fault_world(FaultPlan::single(0, FaultKind::TruncatePayload)).try_run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, vec![1u64, 2, 3]);
                String::new()
            } else {
                let err = comm
                    .recv_deadline::<Vec<u64>>(0, 4, Duration::from_secs(2))
                    .expect_err("truncation must be detected");
                assert_eq!(err.kind, CommErrorKind::Truncated);
                err.message().to_string()
            }
        });
        let out = res.expect("handled structurally");
        assert!(out[1].contains("truncated on the wire"), "got: {}", out[1]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "short watchdog/deadline budgets race the interpreter")]
    fn killed_rank_surfaces_on_itself_and_its_blocked_peer() {
        let err = fault_world(FaultPlan::kill_at(1))
            .try_run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, 1u64);
                    comm.send(1, 2, 2u64); // killed here
                } else {
                    let _ = comm.recv::<u64>(0, 1);
                    let _ = comm.recv::<u64>(0, 2); // never arrives → abort
                }
            })
            .expect_err("the kill must fail the world");
        assert_eq!(err.failures.len(), 2, "both ranks report: {err}");
        assert!(err.failures[0]
            .message
            .contains("killed by injected fault at send op 1"));
        assert!(err.failures[1].message.contains("another rank panicked"));
    }

    #[test]
    #[cfg_attr(miri, ignore = "short watchdog/deadline budgets race the interpreter")]
    fn same_plan_produces_identical_diagnostics() {
        let run = || {
            fault_world(FaultPlan::kill_at(0))
                .try_run(|comm| {
                    if comm.rank() == 0 {
                        comm.send(1, 1, 1u64);
                    } else {
                        let _ = comm.recv::<u64>(0, 1);
                    }
                })
                .expect_err("kill fails the world")
                .to_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[cfg_attr(miri, ignore = "short watchdog/deadline budgets race the interpreter")]
    fn tag_triggered_sites_fire_on_the_nth_send_of_that_tag() {
        let mut inj = FaultInjector::new(FaultPlan::kill_on_tag(7, 1));
        // Sends on other tags do not advance tag 7's counter; the kill
        // fires on the second tag-7 send regardless of global op index.
        assert_eq!(inj.next_action(3), None);
        assert_eq!(inj.next_action(7), None);
        assert_eq!(inj.next_action(3), None);
        assert_eq!(inj.next_action(7), Some((3, FaultKind::KillRank)));
        assert_eq!(inj.next_action(7), None);
    }

    #[test]
    #[cfg_attr(miri, ignore = "short watchdog/deadline budgets race the interpreter")]
    fn transient_send_failures_are_retried_through() {
        // Every retry consumes a send-op index, so a burst equal to the
        // retry limit still goes through — the glitch never escalates.
        let out = fault_world(FaultPlan::fail_sends(0, crate::comm::SEND_RETRY_LIMIT))
            .try_run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, 42u64);
                    0
                } else {
                    comm.recv::<u64>(0, 1)
                }
            })
            .expect("retries absorb the transient failure");
        assert_eq!(out[1], 42);
    }

    #[test]
    #[cfg_attr(miri, ignore = "short watchdog/deadline budgets race the interpreter")]
    fn persistent_send_failure_exhausts_the_retry_budget() {
        // One more consecutive failure than the budget: try_send must
        // surface a structured Transport error, not spin forever.
        let out = fault_world(FaultPlan::fail_sends(0, crate::comm::SEND_RETRY_LIMIT + 1))
            .try_run(|comm| {
                if comm.rank() == 0 {
                    let err = comm
                        .try_send(1, 1, 42u64)
                        .expect_err("the failure persists past every retry");
                    assert_eq!(err.kind, CommErrorKind::Transport);
                    assert_eq!((err.peer, err.tag), (1, 1));
                    // Later sends succeed: the budget is per call.
                    comm.send(1, 2, 7u64);
                    err.message().to_string()
                } else {
                    let v = comm
                        .recv_deadline::<u64>(0, 2, Duration::from_secs(2))
                        .expect("the post-failure send arrives");
                    assert_eq!(v, 7);
                    String::new()
                }
            })
            .expect("handled structurally");
        assert!(
            out[0].contains("transient transport failure") && out[0].contains("retries"),
            "diagnostic: {}",
            out[0]
        );
    }

    #[test]
    fn empty_plans_change_nothing() {
        let out = fault_world(FaultPlan::new(Vec::new()))
            .try_run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, 7u64);
                    0
                } else {
                    comm.recv::<u64>(0, 1)
                }
            })
            .expect("faultless run succeeds");
        assert_eq!(out, vec![0, 7]);
    }
}
