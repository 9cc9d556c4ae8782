//! The transport-chaos sweep: bitwise parity on an unreliable substrate.
//!
//! PR 9's reliability layer claims that a run over a [`LossyTransport`]
//! — seeded frame drops, duplicates, bounded reordering and timed
//! bidirectional partitions — produces **bitwise identical** particle
//! state and records to the serial reference, exactly as a run over the
//! reliable in-process transport does. A single lossy unit test cannot
//! substantiate that claim across the protocol surface; this module
//! sweeps it:
//!
//! - **Loss matrix**: seeds × loss rates across all three
//!   decompositions (2×2 DDM torus, 3×3 DLB torus, plane, cube), each
//!   lossy run compared bitwise ([`digest_particles`]) against the
//!   serial reference, and for the torus workload also
//!   [`digest_run`]-compared against the clean in-process run — so
//!   records, message counts and byte totals must survive the
//!   disturbance too, not just the trajectory.
//! - **Healed partition**: a timed partition window that opens and
//!   closes mid-run must be absorbed silently by retransmission — same
//!   parity, no takeover (the run has no takeover harness, so an
//!   escalation would fail it).
//! - **Takeover-escalating partition**: a permanent isolation of one
//!   rank must fence the minority side, register its death, and let the
//!   recovery ladder absorb it — the resilient launch must report at
//!   least one takeover and a `digest_recovery` bitwise equal to the
//!   fault-free reference.
//! - **Reliable baseline**: the same workloads over [`InProcTransport`]
//!   must show zero retransmits and zero suspicions, and the lossy
//!   run's app-level `bytes_on_wire` accounting must be byte-identical
//!   to the reliable run's — the reliability layer may never leak into
//!   the simulator's wire budget.
//!
//! Every sweep runs under a global wall-clock timeout: no-hang under
//! loss and partition is part of the claim, so a hang is reported as a
//! failure rather than wedging CI.
//!
//! [`LossyTransport`]: pcdlb_mp::LossyTransport
//! [`InProcTransport`]: pcdlb_mp::InProcTransport
//! [`digest_particles`]: pcdlb_sim::digest_particles
//! [`digest_run`]: pcdlb_sim::digest_run

use std::time::Duration;

use pcdlb_mp::{LossyProfile, Partition};
use pcdlb_sim::config::{Lattice, RunConfig};
use pcdlb_sim::{
    digest_particles, digest_run, run_serial, run_with_phase_times, run_with_snapshot, DomainShape,
    Ladder, Launch,
};

use crate::faults::run_under_timeout;

/// What a chaos sweep observed.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Lossy runs compared bitwise against the serial reference
    /// (torus, DLB torus, plane and cube cells of the loss matrix).
    pub parity_runs: usize,
    /// Partition-window runs that had to heal silently in place.
    pub healed_partitions: usize,
    /// Permanent-isolation runs that had to escalate into a takeover.
    pub takeover_partitions: usize,
    /// Reliable-transport baseline runs (zero-retransmit checks).
    pub inproc_runs: usize,
    /// Total retransmissions observed across all lossy runs — zero
    /// means the disturbance never engaged and the sweep proved
    /// nothing, so it is reported as a violation.
    pub retransmits: u64,
    /// Total suspicion episodes observed across all lossy runs
    /// (informational: short partitions may or may not trip the φ
    /// detector depending on scheduling).
    pub suspicions: u64,
    /// Parity, liveness or escalation failures (empty when the
    /// reliability layer holds).
    pub violations: Vec<String>,
}

/// The torus sweep workload: the fault sweep's small-but-busy 2×2
/// clustered configuration (DDM only — P = 4 cannot run DLB), shortened
/// so the full matrix stays CI-sized.
fn torus_config() -> RunConfig {
    let mut cfg = crate::faults::sweep_config();
    cfg.steps = 12;
    cfg.checkpoint_interval = 0;
    cfg
}

/// A 3×3 DLB workload: the smallest grid on which permanent-cell load
/// balancing runs, so lossy links also disturb the loads, the decisions
/// and the columns they move.
fn dlb_config() -> RunConfig {
    let mut cfg = RunConfig::new(729, 6, 9, 0.2);
    cfg.dlb = true;
    cfg.steps = 8;
    cfg.thermostat_interval = 4;
    cfg.lattice = Lattice::Cluster { fill: 0.6 };
    cfg.seed = 5;
    cfg.validate();
    cfg
}

/// The disturbance cells of the loss matrix: (drop, dup, delay) per
/// mille. Both rows are at or above the 1% loss floor the acceptance
/// criteria demand.
const LOSS_RATES: [(u32, u32, u32); 2] = [(15, 8, 8), (45, 20, 20)];

fn profile(seed: u64, rates: (u32, u32, u32)) -> LossyProfile {
    let mut p = LossyProfile::new(seed);
    p.drop_per_mille = rates.0;
    p.dup_per_mille = rates.1;
    p.delay_per_mille = rates.2;
    p.delay_max = 3;
    p
}

/// Sweep `seeds` disturbance seeds per loss rate across the four
/// workloads, plus the partition scenarios and the reliable baseline.
pub fn chaos_sweep(seeds: u64) -> ChaosOutcome {
    let seeds = seeds.max(1);
    let mut out = ChaosOutcome {
        parity_runs: 0,
        healed_partitions: 0,
        takeover_partitions: 0,
        inproc_runs: 0,
        retransmits: 0,
        suspicions: 0,
        violations: Vec::new(),
    };

    // Reliable baseline: the torus workload over InProcTransport. The
    // reliability layer must be fully inert — zero retransmits, zero
    // suspicions — and its wire accounting is the reference the lossy
    // runs must reproduce byte-for-byte.
    let base = torus_config();
    let serial_torus = digest_particles(&run_serial(&base));
    let (clean_report, _, clean_wire) = run_with_phase_times(&base);
    out.inproc_runs += 1;
    if clean_report.retransmits != 0 || clean_report.suspicions != 0 {
        out.violations.push(format!(
            "inproc baseline: reliability layer engaged on a reliable transport \
             ({} retransmit(s), {} suspicion(s))",
            clean_report.retransmits, clean_report.suspicions
        ));
    }
    let (clean_report2, clean_snap) = run_with_snapshot(&base);
    out.inproc_runs += 1;
    if digest_particles(&clean_snap) != serial_torus {
        out.violations
            .push("inproc baseline: parallel snapshot diverges from serial".into());
    }
    let clean_digest = digest_run(&clean_report2, &clean_snap, base.load_metric);

    // Loss matrix: seeds × rates × decompositions, every cell compared
    // bitwise against the serial reference.
    let serial_dlb = digest_particles(&run_serial(&dlb_config()));
    let (serial_plane, serial_cube) = {
        let mut plane_cfg = base.clone();
        plane_cfg.p = 3;
        let mut cube_cfg = base.clone();
        cube_cfg.p = 8;
        (
            digest_particles(&run_serial(&plane_cfg)),
            digest_particles(&run_serial(&cube_cfg)),
        )
    };
    for seed in 1..=seeds {
        for (ri, &rates) in LOSS_RATES.iter().enumerate() {
            let chaos = profile(seed.wrapping_mul(0x9e37) ^ ri as u64, rates);
            let label = format!("seed {seed}, rates {rates:?}");

            // 2×2 torus: snapshot parity, full-digest parity against the
            // clean run, and wire-accounting parity.
            let mut cfg = base.clone();
            cfg.comm.chaos = Some(chaos.clone());
            let (report, _, wire) = run_with_phase_times(&cfg);
            out.retransmits += report.retransmits;
            out.suspicions += report.suspicions;
            if wire != clean_wire {
                out.violations.push(format!(
                    "torus [{label}]: bytes_on_wire {wire:?} != reliable baseline {clean_wire:?}"
                ));
            }
            let (report, snap) = run_with_snapshot(&cfg);
            out.parity_runs += 1;
            out.retransmits += report.retransmits;
            out.suspicions += report.suspicions;
            if digest_particles(&snap) != serial_torus {
                out.violations
                    .push(format!("torus [{label}]: snapshot diverges from serial"));
            }
            if digest_run(&report, &snap, cfg.load_metric) != clean_digest {
                out.violations.push(format!(
                    "torus [{label}]: run digest diverges from the reliable baseline"
                ));
            }

            // 3×3 DLB torus.
            let mut cfg = dlb_config();
            cfg.comm.chaos = Some(chaos.clone());
            let (report, snap) = run_with_snapshot(&cfg);
            out.parity_runs += 1;
            out.retransmits += report.retransmits;
            out.suspicions += report.suspicions;
            if digest_particles(&snap) != serial_dlb {
                out.violations.push(format!(
                    "dlb torus [{label}]: snapshot diverges from serial"
                ));
            }

            // Plane decomposition (P = 3 over nc = 4: uneven slabs).
            let mut cfg = base.clone();
            cfg.p = 3;
            cfg.comm.chaos = Some(chaos.clone());
            let plane = Launch::new().shape(DomainShape::Plane).snapshot();
            let (report, snap) = plane.run(&cfg).into_snapshot();
            out.parity_runs += 1;
            out.retransmits += report.retransmits;
            out.suspicions += report.suspicions;
            if digest_particles(&snap) != serial_plane {
                out.violations
                    .push(format!("plane [{label}]: snapshot diverges from serial"));
            }

            // Cube decomposition (P = 2³).
            let mut cfg = base.clone();
            cfg.p = 8;
            cfg.comm.chaos = Some(chaos);
            let cube = Launch::new().shape(DomainShape::Cube).snapshot();
            let (report, snap) = cube.run(&cfg).into_snapshot();
            out.parity_runs += 1;
            out.retransmits += report.retransmits;
            out.suspicions += report.suspicions;
            if digest_particles(&snap) != serial_cube {
                out.violations
                    .push(format!("cube [{label}]: snapshot diverges from serial"));
            }
        }
    }

    // Healed partition: links 0↔1 go dark for a per-link frame window
    // mid-run, then heal. Retransmission must carry the run through with
    // no takeover harness to fall back on — completion plus parity *is*
    // the proof the partition healed in place.
    let mut cfg = base.clone();
    let mut chaos = LossyProfile::new(23);
    chaos.partitions = vec![Partition {
        a: 0,
        b: 1,
        from_frame: 4,
        to_frame: 12,
    }];
    cfg.comm.chaos = Some(chaos);
    let (report, snap) = run_with_snapshot(&cfg);
    out.healed_partitions += 1;
    out.retransmits += report.retransmits;
    out.suspicions += report.suspicions;
    if digest_particles(&snap) != serial_torus {
        out.violations
            .push("healed partition: snapshot diverges from serial".into());
    }
    if report.retransmits == 0 {
        out.violations
            .push("healed partition: no retransmissions — the window never engaged".into());
    }

    // Takeover-escalating partition: rank 2 is permanently isolated
    // mid-run. The minority side must fence itself, die, and be adopted
    // by its buddy; the degraded (or relaunched) completion must match
    // the fault-free recovery digest bitwise.
    let mut cfg = crate::faults::sweep_config();
    cfg.comm.poll = Duration::from_millis(2);
    cfg.comm.watchdog = Duration::from_secs(30);
    let ladder = Ladder {
        max_attempts: 6,
        ..Ladder::default()
    };
    match Launch::new().run_resilient(&cfg, &ladder) {
        Err(e) => out.violations.push(format!(
            "takeover partition: fault-free reference failed: {e}"
        )),
        Ok(reference) => {
            let mut lossy_cfg = cfg.clone();
            // Quicker φ fencing than the defaults so the isolated rank's
            // self-fence lands well inside the sweep timeout.
            lossy_cfg.comm.heartbeat = Duration::from_millis(40);
            lossy_cfg.comm.suspicion_min = Duration::from_millis(300);
            lossy_cfg.comm.suspicion_max = Duration::from_millis(1200);
            lossy_cfg.comm.chaos = Some(LossyProfile::new(31).isolate(2, cfg.p, 30, u64::MAX));
            out.takeover_partitions += 1;
            match Launch::new().run_resilient(&lossy_cfg, &ladder) {
                Ok(o) => {
                    if o.takeovers == 0 {
                        out.violations.push(format!(
                            "takeover partition: permanent isolation was absorbed without a \
                             takeover ({} attempt(s))",
                            o.attempts
                        ));
                    }
                    if o.digest != reference.digest {
                        out.violations.push(format!(
                            "takeover partition: digest {:#018x} != fault-free reference {:#018x} \
                             ({} attempt(s), {} takeover(s))",
                            o.digest, reference.digest, o.attempts, o.takeovers
                        ));
                    }
                }
                Err(e) => out
                    .violations
                    .push(format!("takeover partition: unrecovered: {e}")),
            }
        }
    }

    if out.retransmits == 0 {
        out.violations.push(
            "sweep-wide: zero retransmissions — the lossy transport never disturbed a frame".into(),
        );
    }
    out
}

/// [`chaos_sweep`] under a global wall-clock `timeout` — no-hang under
/// loss and partition is part of the claim, so a hang must fail, not
/// wedge CI.
pub fn chaos_sweep_with_timeout(seeds: u64, timeout: Duration) -> Result<ChaosOutcome, String> {
    run_under_timeout(timeout, "chaos sweep", move || chaos_sweep(seeds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_chaos_sweep_holds_parity_on_every_decomposition() {
        // One seed keeps this a smoke test; the full matrix is
        // `pcdlb-check chaos` (CI's chaos-matrix job).
        let out = chaos_sweep(1);
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        // 1 seed × 2 rates × 4 workloads.
        assert_eq!(out.parity_runs, 8);
        assert_eq!(out.healed_partitions, 1);
        assert_eq!(out.takeover_partitions, 1);
        assert!(out.inproc_runs >= 2);
        assert!(out.retransmits > 0, "the disturbance must engage");
    }
}
