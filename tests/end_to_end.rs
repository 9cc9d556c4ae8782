//! Cross-crate integration tests: the full stack — message passing,
//! domain decomposition, MD physics, permanent-cell DLB, metrics and
//! theory — exercised together on realistic (small) workloads.

use pcdlb::core::permanent::max_columns;
use pcdlb::core::theory;
use pcdlb::sim::{
    digest_particles, run, run_serial, Lattice, Launch, RunConfig, RunReport, SpeedSchedule,
};

/// A run on the paper's scheme: tiles cut once, at launch.
fn run_fixed(cfg: &RunConfig) -> RunReport {
    Launch::new().fixed_tiles().run(cfg).report
}

fn concentrating_cfg(p: usize, m: usize, steps: u64) -> RunConfig {
    let mut cfg = RunConfig::from_p_m_density(p, m, 0.256);
    cfg.steps = steps;
    cfg.central_pull = 0.08;
    cfg.pull_corner = true;
    cfg.dlb = true;
    cfg.dlb_min_gain = 0.05;
    cfg
}

#[test]
fn dlb_limit_is_never_exceeded() {
    // The permanent cells cap any PE's domain at (m² + 3(m−1)²)·nc cells
    // (paper Fig. 4). Drive a hard corner hotspot and verify the cap.
    let cfg = concentrating_cfg(9, 3, 400);
    let report = run_fixed(&cfg);
    // (A gas that fills its box launches on the paper's m × m tiles.)
    assert!(report.tiling.is_some_and(|tiling| tiling.is_even()));
    let cap = theory::max_domain_cells(cfg.m(), cfg.nc);
    for r in &report.records {
        assert!(
            r.max_cells <= cap,
            "step {}: busiest PE has {} cells, DLB limit is {cap}",
            r.step,
            r.max_cells
        );
    }
    // The hotspot actually pushed some PE toward the cap.
    let reached = report.records.iter().map(|r| r.max_cells).max().unwrap();
    assert!(
        reached > cfg.m() * cfg.m() * cfg.nc,
        "expected some domain growth, got {reached}"
    );
}

#[test]
fn balancer_sheds_a_hot_tile_down_to_its_permanent_cells() {
    // All particles start in the corner that covers rank 0's tile, so
    // rank 0 is the most loaded PE before the first step. Its south-east
    // neighbour is soon the least loaded PE of the whole 3×3 torus — a
    // direction nothing may move in — while NW / N / W can still take its
    // movable columns: the balancer must keep offering to them until only
    // the permanent columns are left. The launch plan runs that rule on
    // the initial condition's work map, so the run *starts* on the floor
    // and never grows past its own tile. (On the paper's 4 × 4 tiles
    // that floor is the whole step, so the launch cuts rank 0 a 2 × 2 tile
    // in the cluster's core: the wall and the movable block are read off
    // the tiling the run reports. Three more PEs now share the core, and
    // rank 0 is not the heaviest: the plan sends its movable column
    // north-west and lends it column (2, 2) of rank 4's tile, so it
    // launches on its three wall columns plus that one. It keeps it for
    // the whole run — handing it back would leave rank 4 at or above
    // rank 0, and a column moves only to a receiver it leaves below its
    // giver.)
    let mut cfg = RunConfig::from_p_m_density(9, 4, 0.128);
    cfg.lattice = Lattice::Cluster { fill: 0.45 };
    cfg.dlb = true;
    cfg.steps = 1;
    let early = run_fixed(&cfg);
    let tiling = early.tiling.expect("a pillar run reports its tiling");
    let (rows, cols) = tiling.tile_dims(0);
    assert_eq!((rows, cols), (2, 2), "{tiling}");
    let floor = (rows + cols - 1) * cfg.nc;
    let lent = floor + cfg.nc;
    assert_eq!(
        early.cells_per_rank.iter().sum::<usize>(),
        cfg.total_cells()
    );
    assert_eq!(
        early.cells_per_rank[0], lent,
        "rank 0 should launch on its permanent columns and one borrowed: {:?}",
        early.cells_per_rank
    );
    let movable = (rows - 1) * (cols - 1);
    assert!(
        early.launch_transfers >= movable,
        "the plan moves at least rank 0's {movable} movable columns, not {}",
        early.launch_transfers
    );

    cfg.steps = 40;
    let dlb = run_fixed(&cfg);
    let mut ddm_cfg = cfg.clone();
    ddm_cfg.dlb = false;
    let ddm = run_fixed(&ddm_cfg);
    assert_eq!(
        dlb.cells_per_rank[0], lent,
        "rank 0 keeps the borrowed column"
    );
    assert_eq!(ddm.launch_transfers, 0);
    let cap = (0..cfg.p).map(|r| max_columns(&tiling, r)).max().unwrap() * cfg.nc;
    assert!(dlb.records.iter().all(|r| r.max_cells <= cap));
    // Balanced from the first step, not from the twentieth.
    for step in [1, 20] {
        let (with, without) = (dlb.records[step - 1].f_max, ddm.records[step - 1].f_max);
        assert!(
            with < 0.6 * without,
            "step {step}: Fmax with DLB {with} should be well below DDM's {without}"
        );
    }
}

#[test]
fn balancer_sheds_one_column_per_step_when_the_load_appears_after_launch() {
    // The in-run balancer is what it was: a uniform start plans nothing,
    // then the corner pull piles the gas onto one tile, and its
    // neighbours' domains grow by columns handed over during steps —
    // never more than one per PE and step.
    // (18³ particles on 9³ cells: eight to a cell, every tile alike.)
    let mut cfg = concentrating_cfg(9, 3, 300);
    cfg.n_particles = 18 * 18 * 18;
    cfg.central_pull = 0.2;
    let report = run_fixed(&cfg);
    assert_eq!(report.launch_transfers, 0, "a uniform start plans nothing");
    let home = cfg.m() * cfg.m() * cfg.nc;
    assert_eq!(report.records[0].max_cells, home);
    let transfers: u32 = report.records.iter().map(|r| r.transfers).sum();
    assert!(transfers > 0, "the pull must give the balancer work");
    assert!(report.records.iter().all(|r| r.transfers as usize <= cfg.p));
    // Every PE's domain moves by whole columns, one transfer at a time.
    let mut before = home;
    for r in &report.records {
        let grown = r.max_cells.saturating_sub(before);
        assert!(
            grown <= r.transfers as usize * cfg.nc,
            "step {}: the largest domain grew by {grown} cells on {} transfers",
            r.step,
            r.transfers
        );
        before = r.max_cells;
    }
    let reached = report.records.iter().map(|r| r.max_cells).max().unwrap();
    assert!(
        reached > home,
        "expected growth after launch, got {reached}"
    );
}

#[test]
fn dlb_beats_ddm_on_a_concentrated_workload() {
    // The paper's headline claim, end to end: on a concentrating system,
    // DLB-DDM's late-phase execution time beats plain DDM's.
    let dlb = concentrating_cfg(9, 4, 700);
    let mut ddm = dlb.clone();
    ddm.dlb = false;
    dlb.validate();
    let rep_dlb = run(&dlb);
    let rep_ddm = run(&ddm);
    let from = 550;
    let t_dlb = rep_dlb.mean_t_step(from, 700);
    let t_ddm = rep_ddm.mean_t_step(from, 700);
    assert!(
        t_dlb < t_ddm,
        "late-phase DLB {t_dlb} should beat DDM {t_ddm}"
    );
}

/// The paper's gas on the 3 × 3 torus with the balancer on: N = 7422,
/// nc = 12, ρ* = 0.256, seed 1, 20 steps.
fn gas_p9() -> RunConfig {
    let mut cfg = RunConfig::new(7422, 12, 9, 0.256);
    cfg.dlb = true;
    cfg.steps = 20;
    cfg
}

#[test]
fn speed_aware_metric_cuts_the_time_imbalance_of_a_drifting_machine() {
    // Uniform work on PEs of unequal, drifting speed (the fast torus
    // column west of the slow one, so the bottleneck has a legal shed
    // route): the work-based metric sees nothing to move, the speed-aware
    // one sees the spread as time. Modelled step times — exact anywhere.
    let imbalance = |speed_aware: bool| {
        let mut cfg = gas_p9();
        cfg.speed = Some(SpeedSchedule {
            base: vec![0.5, 1.0, 2.0],
            amplitude: 0.2,
            period: 16,
        });
        cfg.speed_aware = speed_aware;
        let records = run(&cfg).records;
        let tail = &records[records.len() / 2..];
        tail.iter()
            .map(|r| (r.f_max - r.f_min) / r.f_ave)
            .sum::<f64>()
            / tail.len() as f64
    };
    let (by_work, by_time) = (imbalance(false), imbalance(true));
    assert!(
        by_work >= 1.5 * by_time,
        "(Fmax − Fmin)/Fave over the back half: work-based {by_work:.3}, \
         speed-aware {by_time:.3} — less than a 1.5× cut"
    );
}

#[test]
fn ghost_frames_at_least_halve_the_ghost_bytes_of_a_balancing_torus() {
    let wire = Launch::new().run(&gas_p9()).wire;
    let ratio = wire.ghost_baseline as f64 / wire.ghost as f64;
    assert!(
        ratio >= 2.0,
        "pre-diet baseline / ghost bytes sent = {ratio:.3}"
    );
}

#[test]
fn concentration_metrics_are_consistent_with_run_state() {
    let cfg = concentrating_cfg(9, 2, 300);
    let report = run(&cfg);
    for r in &report.records {
        assert!((0.0..=1.0).contains(&r.c0_over_c), "C0/C out of range");
        assert!(r.n_factor >= 1.0, "n below 1");
        assert!(r.f_min <= r.f_ave && r.f_ave <= r.f_max);
        assert!(
            r.t_step >= r.f_max,
            "Tt must include the slowest PE's force time"
        );
    }
    // Corner pull concentrates: the empty fraction must grow materially.
    let first = report.records.first().unwrap().c0_over_c;
    let last = report.records.last().unwrap().c0_over_c;
    assert!(last > first, "C0/C did not grow: {first} → {last}");
}

#[test]
fn boundary_pipeline_finds_a_point_below_theory() {
    // Full Fig.-10 style pipeline on one cell: the experimental boundary
    // exists and sits below the theoretical bound (E/T < 1). The pull
    // has to be this hard for the gas to outrun the DLB limit inside the
    // budget: at 0.10 the balancer stays effective for all 1500 steps
    // and there is no boundary to find.
    let b = pcdlb_bench::measure_boundary(9, 3, 0.256, 1500, 0.20, 1)
        .expect("boundary within 1500 steps");
    assert!(b.n >= 1.0);
    assert!(b.c0_over_c > 0.0);
    assert!(
        b.e_over_t() < 1.0,
        "experimental boundary {} must be below theory {}",
        b.c0_over_c,
        b.theory
    );
}

#[test]
fn cluster_start_respects_eight_neighbor_communication() {
    // The ghost-exchange path asserts (via panics) that no PE ever needs
    // data from outside its 8-neighbourhood; a hard clustered start with
    // heavy DLB traffic exercises exactly that invariant — every moved
    // column's particles routed by its giver to their new owners — and
    // lands on the serial reference.
    let mut cfg = RunConfig::from_p_m_density(16, 3, 0.128);
    cfg.lattice = Lattice::Cluster { fill: 0.4 };
    cfg.steps = 120;
    cfg.dlb = true;
    let (report, snapshot) = Launch::new().snapshot().run(&cfg).into_snapshot();
    assert_eq!(
        digest_particles(&snapshot),
        digest_particles(&run_serial(&cfg))
    );
    assert_eq!(report.records.len(), 120);
    let transfers: u32 = report.records.iter().map(|r| r.transfers).sum();
    assert!(
        transfers > 0,
        "clustered start should trigger DLB transfers"
    );
}

#[test]
fn report_serializes_round_trip() {
    // Derived series and the hand-rolled TSV dump must stay aligned with
    // the per-step records.
    let cfg = concentrating_cfg(9, 2, 60);
    let report = run(&cfg);
    let series = report.imbalance_series();
    assert_eq!(series.len(), report.records.len());
    let traj = report.concentration_trajectory();
    assert_eq!(traj.len(), report.records.len());
    for (t, r) in traj.iter().zip(&report.records) {
        assert_eq!(t.step, r.step);
    }
    let tsv = report.to_tsv();
    // Header + one row per record + five `# key value` total lines.
    assert_eq!(tsv.lines().count(), 1 + report.records.len() + 5);
    let planned = format!("# launch_transfers {}", report.launch_transfers);
    assert_eq!(tsv.lines().last(), Some(planned.as_str()));
}
