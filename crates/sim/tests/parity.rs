//! The headline correctness property of the reproduction: the parallel
//! SPMD simulator is **bitwise identical** to the serial reference for any
//! PE count, with and without the permanent-cell load balancer. DLB moves
//! cell ownership between PEs — it must never change the physics.

use pcdlb_md::Particle;
use pcdlb_sim::{run_serial, run_with_snapshot, RunConfig};

/// A small supercooled-gas config: P PEs, nc cells/side, short run. N is
/// derived so the cell size comes out at ≈2.56 ≥ r_c, as in the paper.
fn small_cfg(p: usize, nc: usize, steps: u64, dlb: bool) -> RunConfig {
    let density = 0.25;
    let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, nc, p, density);
    cfg.steps = steps;
    cfg.dlb = dlb;
    cfg.seed = 11;
    cfg.thermostat_interval = 10; // exercise the thermostat path
    cfg
}

fn assert_bitwise_equal(parallel: &[Particle], serial: &[Particle]) {
    assert_eq!(parallel.len(), serial.len(), "particle counts differ");
    for (p, s) in parallel.iter().zip(serial) {
        assert_eq!(p.id, s.id);
        assert!(
            p.pos == s.pos && p.vel == s.vel,
            "particle {} diverged:\n  parallel pos {:?} vel {:?}\n  serial   pos {:?} vel {:?}",
            p.id,
            p.pos,
            p.vel,
            s.pos,
            s.vel
        );
    }
}

#[test]
fn single_pe_matches_serial_bitwise() {
    let cfg = small_cfg(1, 3, 25, false);
    let (_, snap) = run_with_snapshot(&cfg);
    let serial = run_serial(&cfg);
    assert_bitwise_equal(&snap, &serial);
}

#[test]
fn four_pes_ddm_matches_serial_bitwise() {
    let cfg = small_cfg(4, 6, 25, false);
    let (_, snap) = run_with_snapshot(&cfg);
    let serial = run_serial(&cfg);
    assert_bitwise_equal(&snap, &serial);
}

#[test]
fn nine_pes_ddm_matches_serial_bitwise() {
    let cfg = small_cfg(9, 6, 25, false);
    let (_, snap) = run_with_snapshot(&cfg);
    let serial = run_serial(&cfg);
    assert_bitwise_equal(&snap, &serial);
}

#[test]
fn nine_pes_dlb_matches_serial_bitwise() {
    let cfg = small_cfg(9, 6, 40, true);
    let (report, snap) = run_with_snapshot(&cfg);
    let serial = run_serial(&cfg);
    assert_bitwise_equal(&snap, &serial);
    // The run's physics stayed intact even if transfers happened.
    let total_transfers: u32 = report.records.iter().map(|r| r.transfers).sum();
    // (May be zero if load stayed balanced; the dedicated DLB test below
    // forces imbalance.)
    let _ = total_transfers;
}

#[test]
fn sixteen_pes_dlb_matches_serial_bitwise() {
    let cfg = small_cfg(16, 8, 30, true);
    let (_, snap) = run_with_snapshot(&cfg);
    let serial = run_serial(&cfg);
    assert_bitwise_equal(&snap, &serial);
}

#[test]
fn dlb_on_and_off_produce_identical_trajectories() {
    let on = small_cfg(9, 9, 40, true);
    let mut off = on.clone();
    off.dlb = false;
    let (_, snap_on) = run_with_snapshot(&on);
    let (_, snap_off) = run_with_snapshot(&off);
    assert_bitwise_equal(&snap_on, &snap_off);
}

#[test]
fn particle_count_conserved_throughout() {
    let cfg = small_cfg(9, 6, 30, true);
    let (report, snap) = run_with_snapshot(&cfg);
    assert_eq!(snap.len(), cfg.n_particles);
    // Ids are exactly 0..N.
    for (i, p) in snap.iter().enumerate() {
        assert_eq!(p.id as usize, i);
    }
    // Energy is finite and temperature reasonable on every step.
    for r in &report.records {
        assert!(r.kinetic.is_finite() && r.potential.is_finite());
        assert!(r.temperature > 0.0 && r.temperature < 10.0);
    }
}

#[test]
fn central_pull_driver_preserves_parity() {
    // The concentration driver must not break bitwise serial/parallel
    // agreement (it is added with the identical expression on both sides).
    let mut cfg = small_cfg(9, 6, 30, true);
    cfg.central_pull = 0.05;
    let (report, snap) = run_with_snapshot(&cfg);
    let serial = run_serial(&cfg);
    assert_bitwise_equal(&snap, &serial);
    // The pull concentrates particles: empty-cell fraction grows.
    let first = report.records.first().unwrap().c0_over_c;
    let last = report.records.last().unwrap().c0_over_c;
    assert!(
        last >= first,
        "C0/C should not shrink under the pull: {first} → {last}"
    );
}

#[test]
fn imbalanced_start_triggers_transfers_and_stays_correct() {
    // A clustered start concentrates particles in one corner of the box,
    // so DDM load is imbalanced from step one and DLB must act.
    let mut cfg = RunConfig::new(600, 9, 9, 0.05);
    cfg.lattice = pcdlb_sim::Lattice::Cluster { fill: 0.5 };
    cfg.steps = 30;
    cfg.dlb = true;
    cfg.seed = 3;
    cfg.validate();
    let (report, snap) = run_with_snapshot(&cfg);
    let serial = run_serial(&cfg);
    assert_bitwise_equal(&snap, &serial);
    let transfers: u32 = report.records.iter().map(|r| r.transfers).sum();
    assert!(
        transfers > 0,
        "expected DLB activity on an imbalanced start"
    );
}
