//! Bitwise serial/parallel parity over the non-uniform initial lattices.
//!
//! The half-shell force kernel evaluates every unordered pair exactly once
//! at a canonical home cell, so the floating-point operand order — and
//! hence the trajectory — must be identical between the serial reference
//! and the SPMD simulator regardless of how particles are distributed.
//! The uniform-gas parity suite (`parity.rs`) covers `SimpleCubic`; here
//! the imbalanced starts (`SlabY`, `Cluster`) exercise empty columns,
//! uneven ghost shells and early DLB transfers on 1×1, 2×2 and 3×3 PE
//! grids. DLB itself needs a torus side ≥ 3 (`RunConfig::validate`), so
//! the balancer runs at P = 9 and the smaller grids run DDM-only.

use pcdlb_md::Particle;
use pcdlb_sim::{
    digest_particles, run_serial, run_with_snapshot, serial_sim, Lattice, Launch, RunConfig,
};

/// A short supercooled-gas run on `nc = 6` (divides 1×1, 2×2 and 3×3
/// grids) with the given initial placement.
fn lattice_cfg(lattice: Lattice, p: usize, steps: u64, dlb: bool) -> RunConfig {
    let density = 0.25;
    let nc = 6;
    let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, nc, p, density);
    cfg.steps = steps;
    cfg.dlb = dlb;
    cfg.seed = 23;
    cfg.thermostat_interval = 10;
    cfg.lattice = lattice;
    cfg
}

/// Parity of `cfg` on tiles that follow the load and on the paper's fixed
/// ones.
fn assert_digest_parity(cfg: &RunConfig) {
    assert_launch_parity(cfg, Launch::new());
    assert_launch_parity(cfg, Launch::new().fixed_tiles());
}

fn assert_launch_parity(cfg: &RunConfig, launch: Launch) {
    let (_, snap) = launch.snapshot().run(cfg).into_snapshot();
    let serial = run_serial(cfg);
    assert_eq!(snap.len(), serial.len(), "particle counts differ");
    assert_eq!(
        digest_particles(&snap),
        digest_particles(&serial),
        "parallel digest diverged from serial for {:?} on P = {}",
        cfg.lattice,
        cfg.p
    );
    // The digest covers id + every pos/vel bit; keep one direct bitwise
    // check so a digest bug cannot mask a real divergence.
    for (p, s) in snap.iter().zip(&serial) {
        assert!(
            p.id == s.id && p.pos == s.pos && p.vel == s.vel,
            "particle {} diverged bitwise",
            p.id
        );
    }
}

#[test]
fn slab_y_parity_on_1x1_grid() {
    assert_digest_parity(&lattice_cfg(Lattice::SlabY { fill: 0.4 }, 1, 25, false));
}

#[test]
fn slab_y_parity_on_2x2_grid() {
    assert_digest_parity(&lattice_cfg(Lattice::SlabY { fill: 0.4 }, 4, 25, false));
}

#[test]
fn slab_y_parity_on_3x3_grid_with_dlb() {
    assert_digest_parity(&lattice_cfg(Lattice::SlabY { fill: 0.4 }, 9, 40, true));
}

#[test]
fn cluster_parity_on_1x1_grid() {
    assert_digest_parity(&lattice_cfg(Lattice::Cluster { fill: 0.55 }, 1, 25, false));
}

#[test]
fn cluster_parity_on_2x2_grid() {
    assert_digest_parity(&lattice_cfg(Lattice::Cluster { fill: 0.55 }, 4, 25, false));
}

#[test]
fn cluster_parity_on_3x3_grid_with_dlb() {
    assert_digest_parity(&lattice_cfg(Lattice::Cluster { fill: 0.55 }, 9, 40, true));
}

/// The half-shell kernel must keep reporting the paper's *full-shell*
/// candidate-pair count: summed over PEs, each step's `pair_checks` must
/// equal the serial reference's count for the same step — on a uniform
/// Fig. 5-style gas and on the concentrated start that drives DLB.
#[test]
fn parallel_pair_checks_match_serial_full_shell_count_per_step() {
    for lattice in [Lattice::SimpleCubic, Lattice::Cluster { fill: 0.55 }] {
        let cfg = lattice_cfg(lattice, 9, 15, true);
        let (report, _) = run_with_snapshot(&cfg);
        let mut serial = serial_sim(&cfg);
        for rec in &report.records {
            serial.step();
            assert_eq!(
                rec.pair_checks,
                serial.last_work().pair_checks,
                "step {} pair_checks diverged for {:?}",
                rec.step,
                lattice
            );
        }
    }
}

/// DLB transfers actually fire on the concentrated start — the 3×3 DLB
/// parity test above is only meaningful if ownership really moved: in the
/// run on the paper's fixed tiles, and in the walls themselves where the
/// tiles follow the load.
#[test]
fn cluster_start_on_3x3_grid_triggers_transfers() {
    let cfg = lattice_cfg(Lattice::Cluster { fill: 0.55 }, 9, 40, true);
    let fixed = Launch::new().fixed_tiles().snapshot();
    let (report, snap) = fixed.run(&cfg).into_snapshot();
    let total: u32 = report.records.iter().map(|r| r.transfers).sum();
    assert!(total > 0, "expected at least one DLB transfer");
    let ids: Vec<u64> = snap.iter().map(|p: &Particle| p.id).collect();
    assert_eq!(ids, (0..cfg.n_particles as u64).collect::<Vec<_>>());
    let (following, _) = run_with_snapshot(&cfg);
    let tiling = following.tiling.expect("a pillar run reports its tiling");
    assert!(!tiling.is_even(), "{tiling}");
}
