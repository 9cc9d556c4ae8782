//! The bitwise spine, as one table: every domain shape × PE count ×
//! skin mode must reproduce the serial reference exactly.
//!
//! One step engine runs all three shapes, so one matrix covers them:
//! what used to be three per-decomposition suites (pillar skin parity,
//! the plane baseline's ring cases, the cube's block cases) are rows
//! here. Shape-specific behaviour — the plane's moving boundaries, the
//! cube's DDM-only rule and its message/volume trade — stays in
//! `plane_baseline.rs` and `cube_decomposition.rs`.

use pcdlb_domain::DomainShape;
use pcdlb_md::Particle;
use pcdlb_sim::{
    run_serial, run_with_snapshot, serial_sim, Launch, RunConfig, RunReport, StepRecord,
};

/// The (shape, P) rows. `nc = 6` hosts them all: 1×1, 2×2 and 3×3 pillar
/// tori, rings of 1–3 (3 is deliberately non-square, 2 is the ring whose
/// two neighbours coincide), and the 2³ and 3³ block grids (on the 2³
/// torus every rank meets the same 7 ranks in all 26 directions).
const ROWS: [(DomainShape, usize); 9] = [
    (DomainShape::SquarePillar, 1),
    (DomainShape::SquarePillar, 4),
    (DomainShape::SquarePillar, 9),
    (DomainShape::Plane, 1),
    (DomainShape::Plane, 2),
    (DomainShape::Plane, 3),
    (DomainShape::Cube, 1),
    (DomainShape::Cube, 8),
    (DomainShape::Cube, 27),
];

/// How the neighbour search runs: re-bin every step, frozen skin epochs
/// walked live, or frozen skin epochs replayed from the Verlet list.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    EveryStep,
    Epochs,
    Verlet,
}

const STEPS: u64 = 40;

/// Roomy cells (≈3.0 ≥ r_c + skin): nc = 6, box = 18, so every row can
/// host a 0.4 skin.
fn cfg(p: usize, mode: Mode) -> RunConfig {
    let n = 583;
    let mut cfg = RunConfig::new(n, 6, p, n as f64 / 18.0f64.powi(3));
    cfg.steps = STEPS;
    cfg.dlb = false; // the cube has no balancer; DLB rows live below
    cfg.seed = 7;
    cfg.thermostat_interval = 10;
    if mode != Mode::EveryStep {
        cfg.skin = 0.4;
    }
    cfg.verlet = mode == Mode::Verlet;
    cfg
}

/// A run's step records with `wall_s` zeroed: the one field the real
/// clock fills, so the one that varies run to run.
fn clockless(report: &RunReport) -> Vec<StepRecord> {
    let records = report.records.iter();
    records.map(|r| StepRecord { wall_s: 0.0, ..*r }).collect()
}

fn assert_bitwise_equal(parallel: &[Particle], serial: &[Particle], what: &str) {
    assert_eq!(
        parallel.len(),
        serial.len(),
        "{what}: particle counts differ"
    );
    for (p, s) in parallel.iter().zip(serial) {
        assert_eq!(p.id, s.id, "{what}: id order diverged");
        assert!(
            p.pos == s.pos && p.vel == s.vel,
            "{what}: particle {} diverged:\n  parallel pos {:?} vel {:?}\n  serial   pos {:?} vel {:?}",
            p.id,
            p.pos,
            p.vel,
            s.pos,
            s.vel
        );
    }
}

/// The serial reference's rebuild-step sequence for a config.
fn serial_rebuild_sequence(cfg: &RunConfig) -> Vec<bool> {
    let mut sim = serial_sim(cfg);
    (0..cfg.steps)
        .map(|_| {
            sim.step();
            sim.last_step_rebuilt()
        })
        .collect()
}

#[test]
fn every_shape_and_schedule_matches_serial_bitwise() {
    for mode in [Mode::EveryStep, Mode::Epochs, Mode::Verlet] {
        let reference = cfg(1, mode);
        let serial = run_serial(&reference);
        let serial_seq = serial_rebuild_sequence(&reference);
        if mode != Mode::EveryStep {
            // The epochs actually engage: some steps rebuild, most do not.
            let rebuilds = serial_seq.iter().filter(|&&r| r).count();
            assert!(
                (1..STEPS as usize / 2).contains(&rebuilds),
                "{mode:?}: degenerate epoch schedule, {rebuilds}/{STEPS} rebuilds"
            );
        }
        for (shape, p) in ROWS {
            let what = format!("{shape:?} P = {p}, {mode:?}");
            let (report, snap) = Launch::new()
                .shape(shape)
                .snapshot()
                .run(&cfg(p, mode))
                .into_snapshot();
            assert_bitwise_equal(&snap, &serial, &what);
            // The rebuild decision is a pure function of replicated
            // global state: every grid picks the serial reference's step
            // sequence.
            let seq: Vec<bool> = report.records.iter().map(|r| r.rebuilt).collect();
            assert_eq!(seq, serial_seq, "{what}: rebuild schedule diverged");
        }
    }
}

#[test]
fn grids_with_a_deep_interior_match_serial_bitwise() {
    // On the `nc = 6` rows above nearly every owned cell borders a ghost
    // cell. These grids give each rank cells two and three deep — two
    // rows per shape: 6×6- and 8×8-column pillar tiles, four and six
    // planes per ring rank, 8³ and 10³ blocks — so columns that meet no
    // ghost at all, and cube columns that mix both kinds of cell, are
    // walked, recorded and replayed too. None of these runs balances, so
    // their rebuild steps are one exchange.
    for (shape, p, nc, density) in [
        (DomainShape::SquarePillar, 4, 12, 0.1),
        (DomainShape::SquarePillar, 4, 16, 0.05),
        (DomainShape::Plane, 3, 12, 0.1),
        (DomainShape::Plane, 2, 12, 0.1),
        (DomainShape::Cube, 8, 16, 0.05),
        (DomainShape::Cube, 8, 20, 0.03),
    ] {
        for mode in [Mode::EveryStep, Mode::Epochs, Mode::Verlet] {
            let box_len = 3.0 * nc as f64;
            let n = (density * box_len.powi(3)) as usize;
            let mut c = cfg(p, mode);
            (c.n_particles, c.nc, c.density) = (n, nc, n as f64 / box_len.powi(3));
            c.steps = 12;
            let serial = run_serial(&c);
            let (_, snap) = Launch::new()
                .shape(shape)
                .snapshot()
                .run(&c)
                .into_snapshot();
            let what = format!("{shape:?} P = {p} nc = {nc}, {mode:?}");
            assert_bitwise_equal(&snap, &serial, &what);
        }
    }
}

#[test]
fn verlet_replay_reports_the_frozen_walks_numbers() {
    // The replay must report the paper's full-shell directed-check units
    // — identical pair_checks, energies and rebuild schedule to walking
    // the frozen binning live — in every shape.
    for (shape, p) in ROWS {
        let (walked, _) = Launch::new()
            .shape(shape)
            .snapshot()
            .run(&cfg(p, Mode::Epochs))
            .into_snapshot();
        let (replayed, _) = Launch::new()
            .shape(shape)
            .snapshot()
            .run(&cfg(p, Mode::Verlet))
            .into_snapshot();
        assert_eq!(
            clockless(&replayed),
            clockless(&walked),
            "{shape:?} P = {p}: step records diverged between replay and frozen walk"
        );
    }
}

#[test]
fn checkpoint_cadence_forces_rebuild_boundaries() {
    let mut c = cfg(4, Mode::Verlet);
    c.checkpoint_interval = 7;
    let (report, snap) = run_with_snapshot(&c);
    assert_bitwise_equal(&snap, &run_serial(&c), "checkpoint cadence");
    for r in &report.records {
        if r.step.is_multiple_of(7) {
            assert!(r.rebuilt, "step {} should be a forced rebuild", r.step);
        }
    }
}

/// A restore lands on a forced rebuild boundary (the checkpoint
/// cadence), where the restored ranks re-bin, re-record and start a
/// fresh epoch exactly as the uninterrupted run did — so the mid-epoch
/// refresh frames that follow carry the same ghosts and are charged the
/// same canonical bytes: every reported `t_step` and the final state are
/// bitwise those of the uninterrupted run. Two worlds: the 2 × 2 DDM gas
/// and a 3 × 3 clustered world whose balancer moves columns (and whose
/// tiles follow the load) while the epochs run.
#[test]
fn skin_epochs_restore_across_the_checkpoint_cadence_bitwise() {
    use pcdlb_core::protocol::tags;
    use pcdlb_mp::collectives::ctag;
    use pcdlb_mp::FaultPlan;
    use pcdlb_sim::{digest_recovery, Ladder, Lattice};
    let gas = cfg(4, Mode::Verlet);
    let mut cluster = cfg(9, Mode::Verlet);
    cluster.lattice = Lattice::Cluster { fill: 0.8 };
    cluster.dlb = true;
    cluster.dlb_min_gain = 0.0;
    // Rank 2 of the gas, the 3 × 3 torus's centre rank 4.
    for (mut c, rank) in [(gas, 2), (cluster, 4)] {
        c.checkpoint_interval = 7;
        c.comm.poll = std::time::Duration::from_millis(2);
        c.comm.watchdog = std::time::Duration::from_secs(20);
        let what = format!("P = {}", c.p);
        let (report, snap) = run_with_snapshot(&c);
        assert_bitwise_equal(&snap, &run_serial(&c), &what);
        let mid_epoch = report.records.iter().filter(|r| !r.rebuilt).count();
        assert!(mid_epoch > STEPS as usize / 2, "{what}: the epochs engage");
        if c.dlb {
            let moved: u32 = report.records.iter().map(|r| r.transfers).sum();
            assert!(moved > 0, "{what}: the balancer moves columns");
        }
        let reference = digest_recovery(&report, &snap, c.load_metric);
        // The rank dies on its eighth stats gather: in step 8, the first
        // step of the epoch the checkpoint at step 7 opened.
        let killed = Launch::new().on_start(move |launch, comm| {
            if launch == 0 && comm.rank() == rank {
                comm.set_fault_plan(FaultPlan::kill_on_tag(ctag(tags::STATS, 0), 7));
            }
        });
        let ladder = Ladder {
            max_attempts: 3,
            ..Ladder::default()
        };
        let relaunched = killed.run_resilient(&c, &ladder);
        let relaunched = relaunched.expect("the relaunch recovers");
        assert_eq!(relaunched.attempts, 2, "{what}: restored, not replayed");
        assert_eq!(relaunched.digest, reference, "{what}: relaunch");
        assert_bitwise_equal(&relaunched.snapshot, &snap, &what);
    }
}

#[test]
fn balancers_under_skin_epochs_preserve_parity() {
    // DLB only acts on rebuild steps under skin epochs — and must still
    // never change the physics, for either balancer.
    for (shape, p) in [(DomainShape::SquarePillar, 9), (DomainShape::Plane, 3)] {
        let mut c = cfg(p, Mode::Verlet);
        c.dlb = true;
        c.dlb_min_gain = 0.0;
        let (_, snap) = Launch::new()
            .shape(shape)
            .snapshot()
            .run(&c)
            .into_snapshot();
        assert_bitwise_equal(
            &snap,
            &run_serial(&c),
            &format!("{shape:?} DLB + skin epochs"),
        );
    }
}

#[test]
fn bookkeeping_collectives_never_touch_t_step() {
    // t_step is the paper's per-step time: a step's force time plus the
    // modelled cost of *its own* communication phases. The invariant
    // sentinel and the checkpoint gather are bookkeeping; switching them
    // on adds messages but must leave every reported step bitwise
    // unchanged — in every shape, because every shape charges its comm
    // time through the same per-step lap. (The plane and cube engines
    // this replaced ignored both knobs and billed each step for the
    // previous step's stats gather.)
    for (shape, p) in [
        (DomainShape::SquarePillar, 4),
        (DomainShape::Plane, 3),
        (DomainShape::Cube, 8),
    ] {
        let plain = cfg(p, Mode::EveryStep);
        let mut watched = plain.clone();
        watched.sentinel_interval = 3;
        watched.checkpoint_interval = 5;
        let (rep_plain, snap_plain) = Launch::new()
            .shape(shape)
            .snapshot()
            .run(&plain)
            .into_snapshot();
        let (rep_watched, snap_watched) = Launch::new()
            .shape(shape)
            .snapshot()
            .run(&watched)
            .into_snapshot();
        assert_eq!(
            snap_plain, snap_watched,
            "{shape:?}: bookkeeping touched physics"
        );
        for (a, b) in rep_plain.records.iter().zip(&rep_watched.records) {
            assert_eq!(
                a.t_step.to_bits(),
                b.t_step.to_bits(),
                "{shape:?}: step {} t_step moved with the bookkeeping on",
                a.step
            );
        }
        assert_eq!(clockless(&rep_plain), clockless(&rep_watched), "{shape:?}");
        assert!(
            rep_watched.msgs_sent > rep_plain.msgs_sent,
            "{shape:?}: the sentinel and checkpoint gathers really ran"
        );
    }
}
