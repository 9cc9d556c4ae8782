//! The elastic-resize sweep: parity and fault absorption across world
//! generations.
//!
//! `pcdlb-sim`'s elastic rung (a [`ResizePlan`] in a resilient launch's
//! [`Ladder`](pcdlb_sim::Ladder)) claims that a run which drains, remaps its torus to a different PE count, and
//! resumes — possibly several times, in both directions — produces the
//! **bitwise identical** particle state of an uninterrupted serial run,
//! and that the full recovery ladder (buddy takeover, checkpoint
//! relaunch) keeps working *through* the resize machinery itself. One
//! hand-picked resize point cannot substantiate either claim. This
//! module sweeps both:
//!
//! - **Parity sweep**: shrink and grow plans at several step boundaries
//!   on two cell grids (4³ and 6³, with and without DLB), each checked
//!   for particle-count conservation, a complete per-step record series,
//!   single-launch generations, and bitwise snapshot parity against the
//!   serial reference — and, on the DLB grid, against the plane and cube
//!   decompositions too; one more plan runs a 4 × 4 generation that
//!   re-tiles in place before it drains. Ownership-partition validity is enforced inside
//!   the drain remap (it panics on a duplicate or missing owner), and
//!   the per-generation sentinel aborts any run that breaks conservation
//!   mid-flight, so a clean completion is itself the audit.
//! - **Drain-gather kills**: with periodic checkpoints off, the only
//!   `CKPT_GATHER` traffic is the resize drains — kill each non-root
//!   rank of each draining generation at its drain contribution send and
//!   require digest parity with the fault-free elastic reference.
//! - **Resize-barrier kills**: kill each rank of each resumed generation
//!   inside the `RESIZE_READY`/`RESIZE_GO` barrier itself (non-root
//!   ranks at their READY send, the root at its first GO send) and
//!   require the same parity.
//! - **Strided kill sweep**: kill every rank of every generation at
//!   strided send ops across the whole elastic run, covering deaths
//!   before, inside, and after each resize window.
//!
//! Every sweep runs under a global wall-clock timeout: the no-hang
//! guarantee extends to the resize barrier (deadline-bounded, aborts on
//! expiry), so a hang is reported as a failure rather than wedging CI.

use std::time::Duration;

use pcdlb_core::protocol::tags;
use pcdlb_mp::collectives::ctag;
use pcdlb_mp::FaultPlan;
use pcdlb_sim::config::{Lattice, RunConfig};
use pcdlb_sim::{run_serial, DomainShape, Launch, ResizePlan};

use crate::faults::{run_under_timeout, Sweep, Tally};

/// What a resize sweep observed.
#[derive(Debug, Clone)]
pub struct ResizeSweepOutcome {
    /// `digest_recovery` of the fault-free elastic reference every
    /// faulted run is compared against.
    pub reference_digest: u64,
    /// Parity cases checked (one per `(config, plan)` pair).
    pub parity_runs: usize,
    /// Drain-gather kill runs performed.
    pub drain_runs: usize,
    /// Drain-gather kill runs whose kill actually fired.
    pub drain_kills_fired: usize,
    /// Resize-barrier kill runs performed.
    pub barrier_runs: usize,
    /// Resize-barrier kill runs whose kill actually fired.
    pub barrier_kills_fired: usize,
    /// Strided kill-point runs performed.
    pub kill_runs: usize,
    /// Strided kill-point runs whose kill actually fired.
    pub kills_fired: usize,
    /// Parity or recovery failures (empty when the invariants hold).
    pub violations: Vec<String>,
}

/// The 4³-grid sweep workload: the fault sweep's small-but-busy 2×2
/// configuration (clustered start, mid-run thermostat), extended with a
/// sentinel cadence so every generation audits conservation.
fn cfg_4(checkpoint_interval: u64) -> RunConfig {
    let mut cfg = crate::faults::sweep_config();
    cfg.checkpoint_interval = checkpoint_interval;
    cfg.sentinel_interval = 4;
    cfg
}

/// The 6³-grid workload: a 3×3 torus running DLB, resized through a 2×2
/// generation (DLB auto-gated off) and back.
fn cfg_6() -> RunConfig {
    let mut cfg = RunConfig::new(343, 6, 9, 0.08);
    cfg.dlb = true;
    cfg.steps = 18;
    cfg.thermostat_interval = 7;
    cfg.lattice = Lattice::Cluster { fill: 0.8 };
    cfg.seed = 13;
    cfg.checkpoint_interval = 6;
    cfg.sentinel_interval = 3;
    cfg
}

/// The 16²-column workload: a corner cluster on the 4 × 4 torus whose
/// first generation re-tiles in place at step 8, before it drains.
fn cfg_16() -> RunConfig {
    let mut cfg = RunConfig::from_p_m_density(16, 4, 0.128);
    cfg.lattice = Lattice::Cluster { fill: 0.4 };
    cfg.dlb = true;
    cfg.seed = 1;
    cfg.steps = 16;
    cfg.checkpoint_interval = 5;
    cfg.sentinel_interval = 4;
    cfg
}

/// Check a sweep's fault-free elastic outcome against the serial
/// reference: conservation, complete records, one launch per generation,
/// bitwise snapshot parity.
fn check_parity(label: &str, sweep: &Sweep, violations: &mut Vec<String>) {
    let (cfg, out) = (&sweep.cfg, &sweep.reference);
    if out.snapshot.len() != cfg.n_particles {
        violations.push(format!(
            "{label}: snapshot holds {} of {} particles",
            out.snapshot.len(),
            cfg.n_particles
        ));
    }
    if out.report.records.len() != cfg.steps as usize
        || out
            .report
            .records
            .iter()
            .enumerate()
            .any(|(i, r)| r.step != i as u64 + 1)
    {
        violations.push(format!(
            "{label}: record series incomplete ({} of {} steps)",
            out.report.records.len(),
            cfg.steps
        ));
    }
    if out.attempts != out.generations.len() {
        violations.push(format!(
            "{label}: {} launches for {} generations on a fault-free run",
            out.attempts,
            out.generations.len()
        ));
    }
    if out.snapshot != run_serial(cfg) {
        violations.push(format!("{label}: snapshot diverged from the serial run"));
    }
}

/// Sweep resize parity (shrink and grow at several boundaries on both
/// grids) and kill every interesting point of the resize window at the
/// given send-op `stride`, asserting elastic parity for each.
pub fn resize_sweep(stride: u64) -> ResizeSweepOutcome {
    let stride = stride.max(1);
    let mut out = ResizeSweepOutcome {
        reference_digest: 0,
        parity_runs: 0,
        drain_runs: 0,
        drain_kills_fired: 0,
        barrier_runs: 0,
        barrier_kills_fired: 0,
        kill_runs: 0,
        kills_fired: 0,
        violations: Vec::new(),
    };
    // ---- Parity sweep: boundaries and directions on the 4³ grid. ----
    let parity_plans = [
        ResizePlan::new().resize(8, 16).resize(16, 4), // grow, shrink back
        ResizePlan::new().resize(12, 16),              // grow and stay grown
        ResizePlan::new().resize(5, 1).resize(10, 16).resize(18, 4), // through serial
        ResizePlan::new().resize(4, 16).resize(8, 1).resize(20, 16), // every direction
    ];
    for (i, plan) in parity_plans.into_iter().enumerate() {
        let label = format!("parity[4³ plan {i}]");
        out.parity_runs += 1;
        match Sweep::new(cfg_4(5), true, plan) {
            Ok(s) => check_parity(&label, &s, &mut out.violations),
            Err(e) => out.violations.push(format!("{label}: failed: {e}")),
        }
    }
    // The 6³ DLB grid, additionally checked against the plane and cube
    // decompositions — the same physics under all three.
    {
        let plan = ResizePlan::new().resize(6, 4).resize(12, 9);
        let label = "parity[6³ dlb]";
        out.parity_runs += 1;
        match Sweep::new(cfg_6(), true, plan) {
            Ok(s) => {
                let o = &s.reference;
                check_parity(label, &s, &mut out.violations);
                for (shape, p) in [(DomainShape::Plane, 3), (DomainShape::Cube, 8)] {
                    let mut cfg = s.cfg.clone();
                    cfg.p = p;
                    cfg.dlb = false;
                    let other = Launch::new().shape(shape).snapshot().run(&cfg);
                    if Some(&o.snapshot) != other.snapshot.as_ref() {
                        out.violations.push(format!(
                            "{label}: diverged from the {shape:?} decomposition"
                        ));
                    }
                }
            }
            Err(e) => out.violations.push(format!("{label}: failed: {e}")),
        }
    }
    // A re-tile inside a generation: the 4 × 4 cluster re-tiles at step
    // 8, drains at 10 onto 2 × 2 (no balancer) and comes back at 14.
    {
        let plan = ResizePlan::new().resize(10, 4).resize(14, 16);
        let label = "parity[16² re-tile]";
        out.parity_runs += 1;
        match Sweep::new(cfg_16(), true, plan) {
            Ok(s) => {
                check_parity(label, &s, &mut out.violations);
                let retiled = &s.reference.report.retiles;
                if !retiled.iter().any(|&(step, ..)| step <= 10) {
                    out.violations.push(format!(
                        "{label}: the first generation did not re-tile: {retiled:?}"
                    ));
                }
            }
            Err(e) => out.violations.push(format!("{label}: failed: {e}")),
        }
    }

    // ---- Kill sweeps through the resize window on the 4³ grid. ----
    // Periodic checkpoints off: the only CKPT_GATHER traffic is the two
    // resize drains, so drain kills land in the drain window by
    // construction (and every relaunch replays from the drain boundary
    // or step 0, exercising the generation restart path).
    let plan = ResizePlan::new().resize(8, 16).resize(16, 4);
    let sweep = match Sweep::new(cfg_4(0), true, plan) {
        Ok(s) => s,
        Err(e) => {
            out.violations
                .push(format!("fault-free elastic reference failed: {e}"));
            return out;
        }
    };
    // The PE count of each world generation, `cfg.p` first.
    let gen_ps: Vec<usize> = sweep.reference.generations.iter().map(|g| g.p).collect();
    out.reference_digest = sweep.reference.digest;

    // Drain-gather kills: each non-root rank of each draining generation
    // (the root only receives in a gather) at its contribution send.
    let drain_tag = ctag(tags::CKPT_GATHER, 0);
    let mut drains = Tally::default();
    for (launch, &p) in gen_ps.iter().enumerate().take(gen_ps.len() - 1) {
        for rank in 1..p {
            sweep.kill(
                &format!("drain-kill(launch {launch}, rank {rank})"),
                (launch, rank),
                FaultPlan::kill_on_tag(drain_tag, 0),
                &mut drains,
                &mut out.violations,
            );
        }
    }

    // Barrier kills: each rank of each resumed generation inside the
    // READY/GO barrier — non-root ranks die at their READY send, the
    // root at its first GO send.
    let mut barriers = Tally::default();
    for (launch, &p) in gen_ps.iter().enumerate().skip(1) {
        for rank in 0..p {
            let tag = if rank == 0 {
                tags::RESIZE_GO
            } else {
                tags::RESIZE_READY
            };
            sweep.kill(
                &format!("barrier-kill(launch {launch}, rank {rank})"),
                (launch, rank),
                FaultPlan::kill_on_tag(tag, 0),
                &mut barriers,
                &mut out.violations,
            );
        }
    }

    // Strided kill sweep across every generation: op indices past a
    // rank's real send count simply never fire, so a generous shared
    // bound covers each generation without per-rank totals.
    let max_op = sweep.max_op();
    let mut kills = Tally::default();
    for (launch, &p) in gen_ps.iter().enumerate() {
        for rank in 0..p {
            for op in (0..max_op).step_by(stride as usize) {
                sweep.kill(
                    &format!("kill(launch {launch}, rank {rank}, op {op})"),
                    (launch, rank),
                    FaultPlan::kill_at(op),
                    &mut kills,
                    &mut out.violations,
                );
            }
        }
    }
    (out.drain_runs, out.drain_kills_fired) = (drains.runs, drains.fired);
    (out.barrier_runs, out.barrier_kills_fired) = (barriers.runs, barriers.fired);
    (out.kill_runs, out.kills_fired) = (kills.runs, kills.fired);
    out
}

/// [`resize_sweep`] under a global wall-clock `timeout`.
pub fn resize_sweep_with_timeout(
    stride: u64,
    timeout: Duration,
) -> Result<ResizeSweepOutcome, String> {
    run_under_timeout(timeout, "resize sweep", move || resize_sweep(stride))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_sweep_holds_elastic_parity() {
        // A coarse stride keeps this a smoke test; the fine-grained sweep
        // is `pcdlb-check resize` (CI's resize-matrix job).
        let out = resize_sweep(499);
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert_eq!(out.parity_runs, 6);
        // 3 + 15 non-root drain contributors, every one a real kill.
        assert_eq!(out.drain_runs, 18);
        assert_eq!(
            out.drain_kills_fired, out.drain_runs,
            "each draining rank sends exactly one contribution, so every drain kill must fire"
        );
        // 16 + 4 ranks across the two resumed generations.
        assert_eq!(out.barrier_runs, 20);
        assert_eq!(
            out.barrier_kills_fired, out.barrier_runs,
            "every rank of a resumed generation crosses the barrier, so every barrier kill must fire"
        );
        assert!(out.kill_runs >= 24, "one strided point per (launch, rank)");
        assert!(out.kills_fired > 0, "the low kill points must fire");
        assert_ne!(out.reference_digest, 0);
    }
}
