//! The fault-schedule explorer: crash-recovery parity under injected
//! transport faults.
//!
//! `pcdlb-sim`'s recovery loop claims that a run which loses a rank and
//! restarts from the last distributed checkpoint produces **bitwise
//! identical** records and particle state to an uninterrupted run
//! ([`pcdlb_sim::digest::digest_recovery`] parity). A single
//! hand-picked kill site cannot substantiate that claim — the recovery
//! path looks different depending on *where* in the protocol the rank
//! died (mid-migration, inside a collective, during the checkpoint
//! gather itself, before any checkpoint exists). This module sweeps the
//! claim:
//!
//! - **Kill-point sweep**: for every rank of a 2×2 world, kill it at
//!   send-op `0, stride, 2·stride, …` on the first launch and assert
//!   the recovered digest equals the fault-free reference. Op indices
//!   past the rank's send count simply never fire (the run completes on
//!   the first attempt), so the sweep covers the whole run without
//!   needing per-rank send totals.
//! - **Checkpoint-phase kills**: kill each non-root rank at each of its
//!   `CKPT_GATHER` contribution sends ([`FaultPlan::kill_on_tag`]) — the
//!   checkpoint being assembled dies mid-gather, so the relaunch must
//!   fall back to the previous complete one and still restore parity.
//! - **Seeded fault matrix**: [`FaultPlan::seeded`] schedules drawn per
//!   `(seed, rank)` mix drops, delays, duplicates, truncations and
//!   kills on the first launch. Non-kill faults surface as structured
//!   `CommError` diagnostics on some rank, which tears the world down
//!   exactly like a kill; either way the relaunch must restore parity.
//!
//! Every sweep runs under a global wall-clock timeout: the no-hang
//! guarantee (a dead peer must never leave a survivor blocked forever)
//! is itself part of what is being checked, so a hang is reported as a
//! failure rather than wedging CI.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use pcdlb_core::protocol::tags;
use pcdlb_mp::collectives::ctag;
use pcdlb_mp::fault::splitmix64;
use pcdlb_mp::FaultPlan;
use pcdlb_sim::config::{Lattice, RunConfig};
use pcdlb_sim::{Ladder, LadderOutcome, Launch, RecoveryError, ResizePlan};

/// What a fault sweep observed.
#[derive(Debug, Clone)]
pub struct FaultSweepOutcome {
    /// [`digest_recovery`](pcdlb_sim::digest::digest_recovery) of the
    /// fault-free reference run every faulted run is compared against.
    pub reference_digest: u64,
    /// Kill-point runs performed (one per `(rank, op)` pair swept).
    pub kill_runs: usize,
    /// Kill-point runs whose kill actually fired (needed > 1 attempt).
    pub kills_fired: usize,
    /// Seeded mixed-fault runs performed.
    pub seeded_runs: usize,
    /// Seeded runs where at least one fault forced a relaunch.
    pub faults_fired: usize,
    /// Checkpoint-phase kill runs performed (one per `(rank, gather)`
    /// pair: each non-root rank killed at each of its `CKPT_GATHER`
    /// contribution sends).
    pub ckpt_runs: usize,
    /// Checkpoint-phase kill runs whose kill actually fired.
    pub ckpt_kills_fired: usize,
    /// Parity or recovery failures (empty when the invariant holds).
    pub violations: Vec<String>,
}

/// The sweep workload, shared by every sweep of the ladder: the same
/// small-but-busy 2×2 recovery configuration the `pcdlb-sim` recovery
/// tests use — DDM only (P = 4 cannot run DLB), clustered start so
/// migration and ghost traffic are heavy, the thermostat firing mid-run,
/// a checkpoint gathered every 5 of 24 steps.
pub fn sweep_config() -> RunConfig {
    let mut cfg = RunConfig::new(216, 4, 4, 0.2);
    cfg.dlb = false;
    cfg.steps = 24;
    cfg.thermostat_interval = 10;
    cfg.lattice = Lattice::Cluster { fill: 0.8 };
    cfg.seed = 11;
    cfg.checkpoint_interval = 5;
    cfg
}

/// One sweep's fixture: a workload, the ladder it runs under, and the
/// fault-free reference every faulted run of it is compared against.
pub(crate) struct Sweep {
    pub cfg: RunConfig,
    pub ladder: Ladder,
    pub reference: LadderOutcome,
}

/// How the faulted runs of one kind went.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    /// Runs performed.
    pub runs: usize,
    /// Runs whose fault actually fired: a death absorbed or a relaunch.
    pub fired: usize,
    /// Fired runs absorbed fully in place (no relaunch, ≥ 1 takeover).
    pub degraded: usize,
    /// Fired runs that fell back to a relaunch.
    pub relaunched: usize,
}

impl Sweep {
    /// Run the fault-free reference of `cfg` under the rungs `takeover`
    /// and `plan` select. Sweep runs wait on sweep deadlines: a tight poll
    /// so aborts propagate fast, a watchdog generous enough for a loaded
    /// CI machine but short enough that a genuinely wedged receive fails
    /// the run promptly — and enough attempts that a multi-rank seeded
    /// plan cannot exhaust them.
    pub(crate) fn new(
        mut cfg: RunConfig,
        takeover: bool,
        plan: ResizePlan,
    ) -> Result<Self, RecoveryError> {
        cfg.comm.poll = Duration::from_millis(2);
        cfg.comm.watchdog = Duration::from_secs(10);
        let ladder = Ladder {
            max_attempts: 6,
            takeover,
            plan,
        };
        let reference = Launch::new().run_resilient(&cfg, &ladder)?;
        Ok(Self {
            cfg,
            ladder,
            reference,
        })
    }

    /// A per-rank send-count bound for kill-point sweeps: ranks of these
    /// symmetric worlds send near-identical counts, so mean-plus-margin
    /// covers the busiest one; ops past a rank's real count never fire.
    pub(crate) fn max_op(&self) -> u64 {
        self.reference.report.msgs_sent / self.cfg.p as u64 + self.cfg.steps
    }

    /// One faulted run: every rank thread of every launch starts under
    /// the plan `plans(launch, rank)` gives it. The run is counted in
    /// `tally`, and a run that does not complete, or completes on a
    /// digest other than the reference's, is a violation under `label`.
    pub(crate) fn faulted(
        &self,
        label: &str,
        plans: impl Fn(usize, usize) -> Option<FaultPlan> + Send + Sync + 'static,
        tally: &mut Tally,
        violations: &mut Vec<String>,
    ) -> Option<LadderOutcome> {
        let launch = Launch::new().on_start(move |launch, comm| {
            if let Some(plan) = plans(launch, comm.rank()) {
                comm.set_fault_plan(plan);
            }
        });
        tally.runs += 1;
        match launch.run_resilient(&self.cfg, &self.ladder) {
            Ok(o) => {
                let relaunched = o.attempts > o.generations.len();
                tally.fired += usize::from(relaunched || o.takeovers > 0);
                tally.relaunched += usize::from(relaunched);
                tally.degraded += usize::from(!relaunched && o.takeovers > 0);
                if o.digest != self.reference.digest {
                    violations.push(format!(
                        "{label}: digest {:#018x} != reference {:#018x} \
                         ({} launch(es), {} takeover(s))",
                        o.digest, self.reference.digest, o.attempts, o.takeovers
                    ));
                }
                Some(o)
            }
            Err(e) => {
                violations.push(format!("{label}: unrecovered: {e}"));
                None
            }
        }
    }
}

impl Sweep {
    /// [`Sweep::faulted`] with a single fault site: `rank` of launch
    /// `launch` runs under `plan`, everyone else fault-free.
    pub(crate) fn kill(
        &self,
        label: &str,
        (launch, rank): (usize, usize),
        plan: FaultPlan,
        tally: &mut Tally,
        violations: &mut Vec<String>,
    ) {
        let plans = move |l, r| (l == launch && r == rank).then(|| plan.clone());
        self.faulted(label, plans, tally, violations);
    }
}

/// Sweep kill points at the given send-op `stride` and run `seeds`
/// mixed-fault schedules, asserting recovery parity for each.
pub fn fault_sweep(stride: u64, seeds: usize) -> FaultSweepOutcome {
    let stride = stride.max(1);
    let mut out = FaultSweepOutcome {
        reference_digest: 0,
        kill_runs: 0,
        kills_fired: 0,
        seeded_runs: 0,
        faults_fired: 0,
        ckpt_runs: 0,
        ckpt_kills_fired: 0,
        violations: Vec::new(),
    };
    // The relaunch rung alone: with takeover on these kills would be
    // absorbed in place and the relaunch path would lose its coverage.
    let sweep = match Sweep::new(sweep_config(), false, ResizePlan::new()) {
        Ok(s) => s,
        Err(e) => {
            out.violations
                .push(format!("fault-free reference run failed: {e}"));
            return out;
        }
    };
    out.reference_digest = sweep.reference.digest;
    let (cfg, max_op) = (&sweep.cfg, sweep.max_op());

    let mut kills = Tally::default();
    for rank in 0..cfg.p {
        for op in (0..max_op).step_by(stride as usize) {
            sweep.kill(
                &format!("kill(rank {rank}, op {op})"),
                (0, rank),
                FaultPlan::kill_at(op),
                &mut kills,
                &mut out.violations,
            );
        }
    }

    // Checkpoint-phase kills: dying *inside* the CKPT_GATHER collective is
    // the nastiest spot for recovery — the checkpoint being assembled is
    // lost mid-gather and the relaunch must fall back to the previous one.
    // Kill each non-root rank at each of its checkpoint-contribution sends
    // (rank 0 only receives in a gather, so it has no such send op; its
    // checkpoint-phase deaths are covered by the plain kill-point sweep).
    let ckpt_wire_tag = ctag(tags::CKPT_GATHER, 0);
    let ckpt_gathers = cfg
        .steps
        .saturating_sub(1)
        .checked_div(cfg.checkpoint_interval)
        .unwrap_or(0);
    let mut ckpt_kills = Tally::default();
    for rank in 1..cfg.p {
        for nth in 0..ckpt_gathers {
            sweep.kill(
                &format!("ckpt-kill(rank {rank}, gather {nth})"),
                (0, rank),
                FaultPlan::kill_on_tag(ckpt_wire_tag, nth),
                &mut ckpt_kills,
                &mut out.violations,
            );
        }
    }

    let mut seeded = Tally::default();
    for seed in 1..=seeds as u64 {
        sweep.faulted(
            &format!("seeded(seed {seed})"),
            move |launch, rank| {
                if launch > 0 {
                    return None;
                }
                // Derive each rank's plan seed from the matrix seed with the
                // same splitmix64 stream seeded plans use internally.
                let mut state = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(rank as u64 + 1);
                let plan = FaultPlan::seeded(splitmix64(&mut state), max_op, 2);
                (!plan.is_empty()).then_some(plan)
            },
            &mut seeded,
            &mut out.violations,
        );
    }
    (out.kill_runs, out.kills_fired) = (kills.runs, kills.fired);
    (out.ckpt_runs, out.ckpt_kills_fired) = (ckpt_kills.runs, ckpt_kills.fired);
    (out.seeded_runs, out.faults_fired) = (seeded.runs, seeded.fired);
    out
}

/// Run `f` on a worker thread, failing with a diagnostic if it does not
/// finish within `timeout` — the no-hang backstop for sweep runs.
pub(crate) fn run_under_timeout<T: Send + 'static>(
    timeout: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(timeout).map_err(|_| {
        format!(
            "{what} exceeded its global {}s timeout — a surviving rank is hung",
            timeout.as_secs()
        )
    })
}

/// [`fault_sweep`] under a global wall-clock `timeout`.
pub fn fault_sweep_with_timeout(
    stride: u64,
    seeds: usize,
    timeout: Duration,
) -> Result<FaultSweepOutcome, String> {
    run_under_timeout(timeout, "fault sweep", move || fault_sweep(stride, seeds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_holds_recovery_parity() {
        // A coarse stride keeps this a smoke test; the fine-grained sweep
        // is `pcdlb-check faults` (CI's fault-matrix job).
        let out = fault_sweep(97, 2);
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert!(out.kill_runs >= 2 * 4, "at least two points per rank");
        assert!(out.kills_fired > 0, "the low kill points must fire");
        assert_eq!(out.seeded_runs, 2);
        // 3 non-root ranks × 4 checkpoint gathers, every one a real kill.
        assert_eq!(out.ckpt_runs, 3 * 4);
        assert_eq!(
            out.ckpt_kills_fired, out.ckpt_runs,
            "each rank sends exactly one contribution per gather, so every checkpoint-phase kill must fire"
        );
        assert_ne!(out.reference_digest, 0);
    }

    #[test]
    fn the_global_timeout_reports_a_hang() {
        let err = run_under_timeout(Duration::from_millis(20), "stall probe", || {
            thread::sleep(Duration::from_millis(400));
        })
        .expect_err("must time out");
        assert!(err.contains("stall probe"), "{err}");
        assert!(err.contains("timeout"), "{err}");
    }
}
