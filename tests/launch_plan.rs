//! Tier-1's view of the launch: before a rank thread starts, a balancing
//! square-pillar run's tiles are cut where the load is, the balancer's own
//! rule is run to its floor on the initial condition's exact work map,
//! and the run launches from there.
//!
//! - over arbitrary occupancy maps the tiles are the paper's unless the
//!   plan on those ends at the DLB limit and a cut with no tile under two
//!   columns wide lowers the largest load both before the plan and after
//!   it, and the plan on the chosen tiling is a legal run of the
//!   protocol — every transfer validates against the ownership map as
//!   it evolves and leaves its receiver below its giver, every invariant
//!   holds at the end — that only ever lowers
//!   the largest load, ends within its cap, and is the same whoever
//!   computes it; the loads it reports are the full-shell work of the
//!   cells each rank ends up owning, counted here the slow way;
//! - an even map keeps the even tiling and plans nothing, and a run that
//!   does not balance chooses and plans nothing at all;
//! - on the paper's scenario the chosen tiling and what it buys are
//!   pinned, and the run's first step reads what the plan ended on;
//! - a launch sends nothing, on every shape and every start — fresh, a
//!   relaunch from a checkpoint, a resized generation: every rank adopts
//!   its ghost cells from the launch's placement and its neighbours'
//!   loads from the launch plan (or the checkpoint), and lands on the
//!   records and particles of the commit whose launches still sent them.

use proptest::collection::vec;
use proptest::prelude::*;

use pcdlb::core::permanent::is_permanent;
use pcdlb::core::protocol::DlbProtocol;
use pcdlb::domain::{OwnershipMap, PillarLayout};
use pcdlb::md::{Particle, Vec3};
use pcdlb::sim::pe::initial_particles;
use pcdlb::sim::{
    digest_particles, digest_records, launch_plan, launch_plan_on, run, DomainShape, Lattice,
    Launch, LaunchPlan, LoadMetric, Placed, ResizeStage, RunConfig,
};

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

/// Whether a PE carrying `plan`'s largest final load owns nothing but
/// permanent columns of `layout`.
fn heaviest_is_walled(layout: &PillarLayout, plan: &LaunchPlan) -> bool {
    let mut map = OwnershipMap::initial(*layout);
    for d in &plan.decisions {
        DlbProtocol::apply(&mut map, d);
    }
    let top = plan.loads.iter().copied().fold(0.0, f64::max);
    (0..layout.num_ranks()).any(|rank| {
        let owned = map.owned_columns(rank);
        plan.loads[rank] == top && owned.iter().all(|&col| is_permanent(layout, col))
    })
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
        thinnest in 1usize..=2,
    ) {
        let mut cfg = RunConfig::from_p_m_density(side * side, m, 0.2);
        cfg.dlb = true;
        cfg.dlb_min_gain = [0.0, 0.02, 0.1][gain];
        // Tiles cut once keep two columns; a run that re-tiles, one.
        let retiles = thinnest == 1;
        let nc = cfg.nc;
        let occupancy = occupancy(nc, &noise, boost, hot_x, hot_y);
        let mut all = particles(&cfg, &occupancy);
        let shape = DomainShape::SquarePillar;
        let work = Placed::new(&cfg, &all).column_work();
        let plan = launch_plan(shape, &cfg, 0, &work, retiles);

        // Whoever computes it, from the particles in whatever order.
        all.reverse();
        let again = Placed::new(&cfg, &all).column_work();
        prop_assert_eq!(&plan, &launch_plan(shape, &cfg, 0, &again, retiles));

        // The tiles are the paper's unless the plan on those ends at the
        // DLB limit — a heaviest PE down to its wall — and another cut is
        // better both ways: a lower largest load before the plan and after
        // it. No tile of it is under two columns wide where the tiles are
        // cut once; a run that re-tiles may cut them one column wide.
        let layout = plan.tiling();
        let paper = PillarLayout::new(nc, cfg.torus());
        let even = launch_plan_on(paper, &cfg, 0, &work);
        if layout.is_even() {
            prop_assert_eq!(&plan, &even);
        } else {
            prop_assert!(heaviest_is_walled(&paper, &even), "{even:?}");
            prop_assert!(plan.peaks[0] < even.peaks[0], "{layout}: {plan:?}");
            prop_assert!(plan.peaks.last() < even.peaks.last(), "{layout}: {plan:?}");
            for rank in 0..cfg.p {
                let (rows, cols) = layout.tile_dims(rank);
                prop_assert!(rows >= thinnest && cols >= thinnest, "{layout}");
            }
        }

        // The largest load only ever goes down, within the cap.
        prop_assert_eq!(plan.peaks.len(), plan.round_ends.len() + 1);
        prop_assert!(plan.peaks.windows(2).all(|w| w[1] < w[0]), "{:?}", plan.peaks);
        prop_assert!(plan.round_ends.len() <= nc * nc);
        prop_assert_eq!(plan.rounds().map(<[_]>::len).sum::<usize>(), plan.decisions.len());

        // The loads of an ownership map: the work of the cells each rank
        // owns.
        let loads_of = |map: &OwnershipMap| -> Vec<f64> {
            let mut checks = vec![0u64; cfg.p];
            for col in layout.grid().iter() {
                checks[map.owner_of(col)] += column_checks(nc, &occupancy, col.cx, col.cy);
            }
            checks.iter().map(|&c| c as f64 * sec_per_pair(&cfg)).collect()
        };

        // Every transfer is legal against the map as it evolves, at most
        // one per rank and iteration, and leaves its receiver below its
        // giver on the loads of the iteration that made it; the map it
        // ends on is sound.
        let mut map = OwnershipMap::initial(layout);
        for round in plan.rounds() {
            prop_assert!(round.windows(2).all(|w| w[0].from < w[1].from), "{round:?}");
            let loads = loads_of(&map);
            for d in round {
                let weight = column_checks(nc, &occupancy, d.col.cx, d.col.cy) as f64
                    * sec_per_pair(&cfg);
                prop_assert!(loads[d.to] + weight < loads[d.from], "{d:?} on {loads:?}");
                prop_assert!(DlbProtocol::validate(&layout, &map, d).is_ok(), "{d:?}");
                DlbProtocol::apply(&mut map, d);
            }
        }
        prop_assert!(map.check_all().is_ok());
        for col in layout.grid().iter().filter(|&c| is_permanent(&layout, c)) {
            prop_assert_eq!(map.owner_of(col), layout.home_rank(col));
        }

        // The loads it ends on are the work of the cells each rank owns.
        let loads = loads_of(&map);
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
        let work = Placed::new(&cfg, &all).column_work();
        let plan = launch_plan(DomainShape::Plane, &cfg, 0, &work, false);
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
    let even_work = Placed::new(&cfg, &uniform).column_work();
    for (shape, retiles) in [
        (DomainShape::SquarePillar, false),
        (DomainShape::SquarePillar, true),
        (DomainShape::Plane, false),
    ] {
        let plan = launch_plan(shape, &cfg, 0, &even_work, retiles);
        assert!(plan.decisions.is_empty(), "{shape:?}: {plan:?}");
        assert_eq!(plan.peaks.len(), 1);
        assert!(plan.loads.iter().all(|&l| l == plan.peaks[0]), "{shape:?}");
        // No cut lowers the peak of an even map: the pillar keeps the
        // paper's tiling (and the plane has none to choose).
        let pillar = shape == DomainShape::SquarePillar;
        assert_eq!(plan.layout.map(|l| l.is_even()), pillar.then_some(true));
    }
    // No balancer (the cube), or the balancer switched off: no plan, and
    // not even a load — the pillar on the paper's tiling.
    let hot = particles(&cfg, &occupancy(cfg.nc, &vec![1; 4096], 6, 2, 2));
    let work = Placed::new(&cfg, &hot).column_work();
    let pillar = DomainShape::SquarePillar;
    assert!(!launch_plan(pillar, &cfg, 0, &work, false)
        .decisions
        .is_empty());
    cfg.dlb = false;
    let unplanned = LaunchPlan::unplanned(pillar, &cfg, &work);
    assert_eq!(
        unplanned.layout,
        Some(PillarLayout::new(cfg.nc, cfg.torus()))
    );
    for retiles in [false, true] {
        assert_eq!(launch_plan(pillar, &cfg, 0, &work, retiles), unplanned);
    }
    cfg.dlb = true;
    cfg.p = 27;
    assert_eq!(
        launch_plan(DomainShape::Cube, &cfg, 0, &work, false),
        LaunchPlan::unplanned(DomainShape::Cube, &cfg, &work)
    );
}

#[test]
fn the_papers_lattice_gas_keeps_the_papers_tiling_where_it_fills_the_box() {
    // The simple-cubic start of the figures fills the box evenly at the
    // paper's larger PE counts: every tile's load is the same, no re-cut
    // lowers the peak, and the run is the run it was.
    for (p, m) in [(16, 3), (36, 2), (36, 4), (64, 3)] {
        let mut cfg = RunConfig::from_p_m_density(p, m, 0.256);
        cfg.dlb = true;
        let work = Placed::new(&cfg, &initial_particles(&cfg)).column_work();
        for retiles in [false, true] {
            let plan = launch_plan(DomainShape::SquarePillar, &cfg, 0, &work, retiles);
            assert!(plan.layout.is_some_and(|l| l.is_even()), "P = {p}, m = {m}");
            assert_eq!(plan.tiling(), PillarLayout::new(cfg.nc, cfg.torus()));
        }
    }
}

/// `cluster_dlb_p9` of the benchmark: all particles over rank 0's tile of
/// the 3 × 3, m = 4 torus.
fn papers_scenario() -> RunConfig {
    let mut cfg = RunConfig::from_p_m_density(9, 4, 0.128);
    cfg.lattice = Lattice::Cluster { fill: 0.45 };
    cfg.dlb = true;
    cfg.dlb_min_gain = 0.02;
    cfg.seed = 1;
    cfg
}

#[test]
fn the_papers_scenario_is_cut_through_its_cluster() {
    let cfg = papers_scenario();
    let work = Placed::new(&cfg, &initial_particles(&cfg)).column_work();
    let model_ms = |load: f64| (load * 1e6).round() / 1e3;
    // On the paper's tiling the cluster sits inside one tile's wall: the
    // plan sheds 54 columns and still ends on rank 0's 7 permanent ones.
    let even = launch_plan_on(PillarLayout::new(12, cfg.torus()), &cfg, 0, &work);
    assert_eq!(model_ms(even.peaks[0]), 59.976);
    assert_eq!(model_ms(*even.peaks.last().unwrap()), 27.9);
    assert_eq!(even.decisions.len(), 62);
    // That is the DLB limit, reached before the first step, so the tiles
    // are cut where the load is: rows and columns of 2, 2 and 8 from the
    // corner, four 2 × 2 tiles over the cluster's core and none thinner
    // (a tile one column wide would be all wall). The plan has 7
    // transfers left to make.
    let plan = launch_plan(DomainShape::SquarePillar, &cfg, 0, &work, false);
    let layout = plan.tiling();
    assert_eq!((layout.xs(), layout.ys()), (vec![0, 2, 4], vec![0, 2, 4]));
    assert_eq!(layout.to_string(), "2·2·8 from 0 × 2·2·8 from 0");
    assert_eq!(model_ms(plan.peaks[0]), 17.433);
    assert_eq!(model_ms(*plan.peaks.last().unwrap()), 15.037);
    assert_eq!(plan.decisions.len(), 7);
    let mean = plan.loads.iter().sum::<f64>() / 9.0;
    assert_eq!(model_ms(mean), 9.502);
    // A run that re-tiles as the load moves may cut a tile one column
    // wide now — all wall, but the next check can move it: a thin row and
    // column across the cluster, and the plan starts 3.8 model_ms lower
    // and, in two iterations of 7 transfers, ends 3.8 lower too.
    let thin = launch_plan(DomainShape::SquarePillar, &cfg, 0, &work, true);
    let layout = thin.tiling();
    assert_eq!(layout.to_string(), "2·1·9 from 0 × 1·2·9 from 2");
    assert_eq!(model_ms(thin.peaks[0]), 13.637);
    assert_eq!(model_ms(*thin.peaks.last().unwrap()), 11.192);
    assert_eq!((thin.peaks.len(), thin.decisions.len()), (3, 7));
}

#[test]
fn the_papers_scenario_launches_on_its_permanent_cells() {
    // Unplanned on the paper's tiling, rank 0 shed its nine movable
    // columns one per step and `t_step` read 58.8, 55.8, … before it
    // settled near 28.8 model_ms on step 9, where its 2m − 1 permanent
    // columns are the step. Cut through the cluster and planned, step 1
    // reads the plan's last peak — to the bit — and so do the steps after
    // it: the plan lent rank 0, in the corner, a column of rank 4's tile
    // in the middle of the core, and handing it back would leave rank 4
    // at or above rank 0, so the run keeps it where the plan put it.
    // (On the paper's scheme: tiles cut once, at launch.) A step takes
    // 15.38 model_ms, its frames staged along the torus axes; 15.51 while
    // every neighbour had a frame of its own.
    let mut cfg = papers_scenario();
    cfg.steps = 3;
    let report = Launch::new().fixed_tiles().run(&cfg).report;
    let work = Placed::new(&cfg, &initial_particles(&cfg)).column_work();
    let plan = launch_plan(DomainShape::SquarePillar, &cfg, 0, &work, false);
    let layout = report.tiling.expect("a pillar run reports its tiling");
    assert_eq!(Some(layout), plan.layout);
    assert_eq!(report.launch_transfers, plan.decisions.len());
    let [_, floor] = plan.peaks[..] else {
        panic!("one planned iteration: {:?}", plan.peaks)
    };
    for (step, record) in report.records.iter().enumerate() {
        assert_eq!(record.f_max, floor, "step {}", step + 1);
        let t = record.t_step;
        assert!(
            (0.01536..0.01576).contains(&t),
            "step {} took {t} model_s",
            step + 1
        );
    }
    // Rank 0's is a 2 × 2 tile: three wall columns, the movable one
    // planned away to the north-west, and column (2, 2) of rank 4's
    // tile planned in — which it still holds after the run.
    assert_eq!(layout.tile_dims(0), (2, 2));
    assert!(plan.decisions.iter().any(|d| d.from == 0));
    let lent = plan
        .decisions
        .iter()
        .find(|d| d.to == 0)
        .expect("rank 0 borrows");
    assert_eq!((lent.col.cx, lent.col.cy, lent.from), (2, 2, 4));
    assert_eq!(report.cells_per_rank[0], 4 * cfg.nc);
    assert_eq!(
        report.cells_per_rank.iter().sum::<usize>(),
        cfg.total_cells()
    );

    let t = report.records[0].t_step;
    let mut ddm = cfg.clone();
    ddm.steps = 1;
    ddm.dlb = false;
    let ddm = run(&ddm);
    assert_eq!(ddm.launch_transfers, 0);
    assert!(ddm.tiling.is_some_and(|l| l.is_even()));
    assert!(ddm.records[0].t_step > 3.0 * t);
}

#[test]
fn a_launch_sends_nothing_and_lands_where_a_launch_that_sent_did() {
    // Every rank of every start reads 0 messages and 0 bytes sent when its
    // first step begins. 30 steps later each run's records and particles
    // are the ones pinned from the commit whose launches still sent an
    // initial ghost exchange and, where the run balances, a load
    // announcement (a relaunch lands on the uninterrupted run's, as
    // recovery must).
    use DomainShape::{Cube, Plane};
    let mut pillar = RunConfig::from_p_m_density(4, 3, 0.256);
    pillar.dlb = false;
    pillar.seed = 1;
    pillar.steps = 30;
    let mut verlet = pillar.clone();
    verlet.skin = 0.06;
    verlet.verlet = true;
    let mut cluster = papers_scenario();
    cluster.steps = 30;
    let mut plane = RunConfig::new(2000, 9, 3, 2000.0 / 27.0f64.powi(3));
    plane.lattice = Lattice::Cluster { fill: 0.7 };
    plane.dlb = true;
    plane.seed = 1;
    plane.steps = 30;
    let cube = {
        let n = (0.1 * 36.0f64.powi(3)) as usize;
        let mut cfg = RunConfig::new(n, 12, 8, n as f64 / 36.0f64.powi(3));
        cfg.steps = 30;
        cfg.seed = 1;
        cfg.thermostat_interval = 5;
        cfg.dlb = false;
        cfg
    };
    let relaunch = ResizeStage { at_step: 12, p: 9 };
    let resize = ResizeStage { at_step: 15, p: 16 };
    let fixed = Launch::new().fixed_tiles();
    let cases = [
        ("2 × 2 DDM pillar", Launch::new(), &pillar, None),
        ("3 × 3 cluster, re-tiling", Launch::new(), &cluster, None),
        ("3 × 3 cluster, fixed tiles", fixed, &cluster, None),
        ("balancing plane", Launch::new().shape(Plane), &plane, None),
        ("2³ cube", Launch::new().shape(Cube), &cube, None),
        ("skin-0.06 Verlet pillar", Launch::new(), &verlet, None),
        (
            "relaunch at step 12",
            Launch::new(),
            &cluster,
            Some(relaunch),
        ),
        ("9 → 16 at step 15", Launch::new(), &cluster, Some(resize)),
    ];
    let pinned: [(u64, u64); 8] = [
        (0xca0f6fae9e055011, 0x5c593d3181d241e8),
        (0x5e56965a292effa4, 0x51f0ddfc6fcb5f2b),
        (0x5e56965a292effa4, 0x13eb616820e19579),
        (0x138f86b47daa8de2, 0x3f9d06c17d4f6696),
        (0x05df17b2bc7fa908, 0xf31ba5adaa4ec318),
        (0xca0f6fae9e055011, 0x4328675b54b482a5),
        (0x5e56965a292effa4, 0x51f0ddfc6fcb5f2b),
        (0x5e56965a292effa4, 0xbab57d74964fb9dc),
    ];
    for ((what, launch, cfg, restart), (particles, records)) in cases.into_iter().zip(pinned) {
        let (sent, run) = launch.sent_before_first_step(cfg, restart);
        let p = restart.map_or(cfg.p, |r| r.p);
        assert_eq!(sent, vec![(0, 0); p], "{what}: sent before the first step");
        assert!(run.report.msgs_sent > 0, "{what}: the steps send");
        let snapshot = run.snapshot.expect("a snapshot");
        let got = (
            digest_particles(&snapshot),
            digest_records(&run.report, cfg.load_metric),
        );
        let hex = |(a, b): (u64, u64)| format!("{a:#018x} {b:#018x}");
        assert_eq!(hex(got), hex((particles, records)), "{what}");
    }
}
