//! Tier-1's view of the launch plan: before a rank thread starts, the
//! balancer's own rule is run to its floor on the initial condition's
//! exact work map, and the run launches from there.
//!
//! - over arbitrary occupancy maps the plan is a legal run of the
//!   protocol — every transfer validates against the ownership map as it
//!   evolves, every invariant holds at the end — that only ever lowers the
//!   largest load, ends within its cap, and is the same whoever computes
//!   it; the loads it reports are the full-shell work of the cells each
//!   rank ends up owning, counted here the slow way;
//! - a uniform map plans nothing, and neither does a run that does not
//!   balance;
//! - the paper's scenario launches with its hot tile already down to its
//!   permanent cells, at the step time the unplanned run reached on step 9.

use proptest::collection::vec;
use proptest::prelude::*;

use pcdlb::core::permanent::is_permanent;
use pcdlb::core::protocol::DlbProtocol;
use pcdlb::domain::{OwnershipMap, PillarLayout};
use pcdlb::md::{Particle, Vec3};
use pcdlb::sim::{launch_plan, run, DomainShape, Lattice, LoadMetric, Placed, RunConfig};

/// `occupancy[(cx·nc + cy)·nc + cz]` particles at the centre of each cell.
fn particles(cfg: &RunConfig, occupancy: &[usize]) -> Vec<Particle> {
    let (nc, len) = (cfg.nc, cfg.cell_len());
    let centre = |c: usize| (c as f64 + 0.5) * len;
    let mut out = Vec::new();
    for (cell, &n) in occupancy.iter().enumerate() {
        let pos = Vec3::new(
            centre(cell / (nc * nc)),
            centre(cell / nc % nc),
            centre(cell % nc),
        );
        out.extend((0..n).map(|_| Particle::at_rest(0, pos)));
    }
    for (id, p) in out.iter_mut().enumerate() {
        p.id = id as u64;
    }
    out
}

/// The occupancy map of a case: noise everywhere, `boost` more in the box
/// corner below `(hot_x, hot_y)`.
fn occupancy(nc: usize, noise: &[usize], boost: usize, hot_x: usize, hot_y: usize) -> Vec<usize> {
    (0..nc * nc * nc)
        .map(|cell| {
            let (cx, cy) = (cell / (nc * nc), cell / nc % nc);
            noise[cell]
                + if cx <= hot_x % nc && cy <= hot_y % nc {
                    boost
                } else {
                    0
                }
        })
        .collect()
}

/// A column's full-shell candidate-pair count, cell by cell over all 27
/// periodic offsets.
fn column_checks(nc: usize, occupancy: &[usize], cx: usize, cy: usize) -> u64 {
    let at = |x: usize, y: usize, z: usize| occupancy[(x % nc * nc + y % nc) * nc + z % nc] as u64;
    (0..nc)
        .map(|cz| {
            let mut around = 0;
            for (dx, dy, dz) in (0..27).map(|k| (k / 9, k / 3 % 3, k % 3)) {
                around += at(cx + nc + dx - 1, cy + nc + dy - 1, cz + nc + dz - 1);
            }
            at(cx, cy, cz) * around.saturating_sub(1)
        })
        .sum()
}

fn sec_per_pair(cfg: &RunConfig) -> f64 {
    match cfg.load_metric {
        LoadMetric::WorkModel { sec_per_pair } => sec_per_pair,
        LoadMetric::WallClock => unreachable!("the default metric is the work model"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn a_pillar_plan_is_a_legal_run_of_the_protocol_that_only_lowers_the_peak(
        side in 3usize..=4,
        m in 2usize..=4,
        gain in 0usize..3,
        noise in vec(0usize..4, 4096..4097),
        boost in 0usize..8,
        hot_x in 0usize..16,
        hot_y in 0usize..16,
    ) {
        let mut cfg = RunConfig::from_p_m_density(side * side, m, 0.2);
        cfg.dlb = true;
        cfg.dlb_min_gain = [0.0, 0.02, 0.1][gain];
        let nc = cfg.nc;
        let occupancy = occupancy(nc, &noise, boost, hot_x, hot_y);
        let mut all = particles(&cfg, &occupancy);
        let shape = DomainShape::SquarePillar;
        let plan = launch_plan(shape, &cfg, 0, &Placed::new(&cfg, &all));

        // Whoever computes it, from the particles in whatever order.
        all.reverse();
        prop_assert_eq!(&plan, &launch_plan(shape, &cfg, 0, &Placed::new(&cfg, &all)));

        // The largest load only ever goes down, within the cap.
        prop_assert_eq!(plan.peaks.len(), plan.round_ends.len() + 1);
        prop_assert!(plan.peaks.windows(2).all(|w| w[1] < w[0]), "{:?}", plan.peaks);
        prop_assert!(plan.round_ends.len() <= nc * nc);
        prop_assert_eq!(plan.rounds().map(<[_]>::len).sum::<usize>(), plan.decisions.len());

        // Every transfer is legal against the map as it evolves, at most
        // one per rank and iteration, and the map it ends on is sound.
        let layout = PillarLayout::new(nc, cfg.torus());
        let mut map = OwnershipMap::initial(layout);
        for round in plan.rounds() {
            prop_assert!(round.windows(2).all(|w| w[0].from < w[1].from), "{round:?}");
            for d in round {
                prop_assert!(DlbProtocol::validate(&layout, &map, d).is_ok(), "{d:?}");
                DlbProtocol::apply(&mut map, d);
            }
        }
        prop_assert!(map.check_all().is_ok());
        for col in layout.grid().iter().filter(|&c| is_permanent(&layout, c)) {
            prop_assert_eq!(map.owner_of(col), layout.home_rank(col));
        }

        // The loads it ends on are the work of the cells each rank owns.
        let mut checks = vec![0u64; cfg.p];
        for col in layout.grid().iter() {
            checks[map.owner_of(col)] += column_checks(nc, &occupancy, col.cx, col.cy);
        }
        let loads: Vec<f64> = checks.iter().map(|&c| c as f64 * sec_per_pair(&cfg)).collect();
        prop_assert_eq!(&plan.loads, &loads);
        prop_assert_eq!(*plan.peaks.last().unwrap(), loads.iter().copied().fold(0.0, f64::max));
    }

    #[test]
    fn a_plane_plan_moves_edge_planes_only_and_squeezes_nobody(
        p in 2usize..=5,
        spare in 0usize..8,
        noise in vec(0usize..4, 1000..1001),
        boost in 0usize..8,
        hot_x in 0usize..10,
    ) {
        let nc = (p + spare).min(10);
        let mut cfg = RunConfig::new(1000, nc, p, 0.05);
        cfg.dlb = true;
        cfg.dlb_min_gain = 0.0;
        let occupancy = occupancy(nc, &noise, boost, hot_x, nc - 1);
        let all = particles(&cfg, &occupancy);
        let plan = launch_plan(DomainShape::Plane, &cfg, 0, &Placed::new(&cfg, &all));
        prop_assert!(plan.peaks.windows(2).all(|w| w[1] < w[0]), "{:?}", plan.peaks);
        prop_assert!(plan.round_ends.len() <= nc);

        // Slabs `[lo, hi)`: a transfer hands the giver's edge plane to the
        // ring neighbour across that edge, and the giver keeps a plane.
        let mut slabs: Vec<(usize, usize)> = (0..p).map(|r| (r * nc / p, (r + 1) * nc / p)).collect();
        for d in &plan.decisions {
            let (lo, hi) = slabs[d.from];
            prop_assert!(hi - lo >= 2, "{d:?} takes rank {}'s last plane", d.from);
            if d.to + 1 == d.from {
                prop_assert_eq!((d.col.cx, slabs[d.to].1), (lo, lo));
                slabs[d.from].0 += 1;
                slabs[d.to].1 += 1;
            } else {
                prop_assert_eq!((d.to, d.col.cx + 1, slabs[d.from + 1].0), (d.from + 1, hi, hi));
                slabs[d.from].1 -= 1;
                slabs[d.to].0 -= 1;
            }
        }
        let mut checks = vec![0u64; p];
        for (rank, &(lo, hi)) in slabs.iter().enumerate() {
            for (cx, cy) in (lo..hi).flat_map(|cx| (0..nc).map(move |cy| (cx, cy))) {
                checks[rank] += column_checks(nc, &occupancy, cx, cy);
            }
        }
        let loads: Vec<f64> = checks.iter().map(|&c| c as f64 * sec_per_pair(&cfg)).collect();
        prop_assert_eq!(&plan.loads, &loads);
    }
}

#[test]
fn a_uniform_map_and_a_run_that_does_not_balance_plan_nothing() {
    let mut cfg = RunConfig::from_p_m_density(9, 3, 0.2);
    cfg.dlb = true;
    let uniform = particles(&cfg, &vec![2; cfg.nc.pow(3)]);
    for shape in [DomainShape::SquarePillar, DomainShape::Plane] {
        let plan = launch_plan(shape, &cfg, 0, &Placed::new(&cfg, &uniform));
        assert!(plan.decisions.is_empty(), "{shape:?}: {plan:?}");
        assert_eq!(plan.peaks.len(), 1);
        assert!(plan.loads.iter().all(|&l| l == plan.peaks[0]), "{shape:?}");
    }
    // No balancer (the cube), or the balancer switched off: no plan, and
    // not even a load.
    let hot = particles(&cfg, &occupancy(cfg.nc, &vec![1; 4096], 6, 2, 2));
    let placed = Placed::new(&cfg, &hot);
    let pillar = DomainShape::SquarePillar;
    assert!(!launch_plan(pillar, &cfg, 0, &placed).decisions.is_empty());
    cfg.dlb = false;
    assert_eq!(launch_plan(pillar, &cfg, 0, &placed), Default::default());
    cfg.dlb = true;
    cfg.p = 27;
    assert_eq!(
        launch_plan(DomainShape::Cube, &cfg, 0, &placed),
        Default::default()
    );
}

#[test]
fn the_papers_scenario_launches_on_its_permanent_cells() {
    // `cluster_dlb_p9` of the benchmark: all particles over rank 0's tile.
    // Unplanned, rank 0 shed its nine movable columns one per step and
    // `t_step` read 58.8, 55.8, … before it settled near 28.8 model_ms on
    // step 9; planned, step 1 is there.
    let mut cfg = RunConfig::from_p_m_density(9, 4, 0.128);
    cfg.lattice = Lattice::Cluster { fill: 0.45 };
    cfg.dlb = true;
    cfg.dlb_min_gain = 0.02;
    cfg.seed = 1;
    cfg.steps = 1;
    let report = run(&cfg);
    let floor = (2 * cfg.m() - 1) * cfg.nc;
    assert_eq!(
        report.cells_per_rank[0], floor,
        "{:?}",
        report.cells_per_rank
    );
    assert!(report.launch_transfers >= 9, "{}", report.launch_transfers);
    let t = report.records[0].t_step;
    assert!((0.0285..0.0292).contains(&t), "step 1 took {t} model_s");

    let mut ddm = cfg.clone();
    ddm.dlb = false;
    let ddm = run(&ddm);
    assert_eq!(ddm.launch_transfers, 0);
    assert!(ddm.records[0].t_step > 2.0 * t);
}
