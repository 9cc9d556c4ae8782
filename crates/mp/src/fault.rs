//! Seeded rank deaths.
//!
//! A [`FaultPlan`] names the one site where a rank dies: its `n`-th
//! **send op** (the 0-based count of `send`/`try_send` calls the rank has
//! made), or its `n`-th send carrying one wire tag. Because an SPMD
//! rank's send sequence is itself deterministic (that is the substrate's
//! core guarantee), a plan pins the death to an exact protocol site — the
//! same plan always kills the rank at the same message of the same phase,
//! producing the same diagnostics. Plans are installed per rank with
//! [`Comm::set_fault_plan`](crate::Comm::set_fault_plan) from
//! [`World::with_start_hook`](crate::World::with_start_hook).
//!
//! A death is the one failure the paper's machine could show: the rank
//! panics at the site, and every blocked peer sees it through the abort
//! flag. A frame that
//! is lost, duplicated or reordered on the way is a
//! [`LossyProfile`](crate::LossyProfile)'s business, and the link layer
//! under [`crate::comm`] heals it. A rank with no plan installed carries
//! no fault state: one `None` per send.

use crate::comm::Tag;

/// Where one rank dies: at its `nth` send, counting every send or only
/// those on one wire tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The wire tag whose sends are counted; `None` counts every send.
    tag: Option<Tag>,
    /// The 0-based count of the fatal send.
    nth: u64,
}

impl FaultPlan {
    /// Kill the rank at send op `op` — the kill-point sweep's primitive.
    pub fn kill_at(op: u64) -> Self {
        Self { tag: None, nth: op }
    }

    /// Kill the rank at its `nth` (0-based) send carrying `wire_tag` —
    /// the phase-targeted kill primitive (e.g. mid checkpoint gather).
    pub fn kill_on_tag(wire_tag: Tag, nth: u64) -> Self {
        Self {
            tag: Some(wire_tag),
            nth,
        }
    }
}

/// The splitmix64 stream; public so harnesses (e.g. the `pcdlb-check`
/// fault sweep) draw seeded kill sites from one world seed with the same
/// generator the rest of the substrate uses.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-rank runtime state: counts send ops as they tick by. Owned by
/// [`crate::comm::Comm`].
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// Send ops so far.
    op: u64,
    /// Sends so far that the plan counts.
    counted: u64,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            op: 0,
            counted: 0,
        }
    }

    /// Advance the counters for one send on `wire_tag`; returns the send
    /// op index when this send is the plan's fatal one.
    pub(crate) fn next_action(&mut self, wire_tag: Tag) -> Option<u64> {
        let op = self.op;
        self.op += 1;
        if self.plan.tag.is_some_and(|t| t != wire_tag) {
            return None;
        }
        let nth = self.counted;
        self.counted += 1;
        (nth == self.plan.nth).then_some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommConfig;
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
    fn injector_fires_its_site_exactly_once() {
        let mut inj = FaultInjector::new(FaultPlan::kill_at(3));
        let fired: Vec<_> = (0..6).map(|_| inj.next_action(0)).collect();
        assert_eq!(fired, vec![None, None, None, Some(3), None, None]);
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
    fn tag_triggered_sites_fire_on_the_nth_send_of_that_tag() {
        let mut inj = FaultInjector::new(FaultPlan::kill_on_tag(7, 1));
        // Sends on other tags do not advance tag 7's counter; the kill
        // fires on the second tag-7 send regardless of global op index.
        assert_eq!(inj.next_action(3), None);
        assert_eq!(inj.next_action(7), None);
        assert_eq!(inj.next_action(3), None);
        assert_eq!(inj.next_action(7), Some(3));
        assert_eq!(inj.next_action(7), None);
    }

    #[test]
    fn a_site_past_the_last_send_changes_nothing() {
        let out = fault_world(FaultPlan::kill_at(1))
            .try_run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, 7u64);
                    0
                } else {
                    comm.recv::<u64>(0, 1)
                }
            })
            .expect("a kill site that is never reached leaves the run alone");
        assert_eq!(out, vec![0, 7]);
    }
}
