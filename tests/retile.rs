//! Tier-1's view of the slow loop: a balancing square-pillar run checks
//! its tiling 2, 4, 8, … steps after it was last chosen — at the launch or
//! at the last re-tile — and re-tiles in place where the saving pays for
//! the move. A re-tile moves ownership, never physics:
//!
//! - without a skin every step rebuilds, so every re-tile lands `2^k`
//!   steps (`k ≥ 1`) after the one before it, or after step 0;
//! - clustered runs on the 3 × 3 and the 4 × 4 torus re-tile at least
//!   twice and still land on the serial reference bit for bit;
//! - every re-tile is the check's own decision on the work map the run
//!   measured — the tiling `retile_plan` (the launch's plan, refined on
//!   its floor) picks on the serial state of the step before, to the cut
//!   — and the columns it moved are counted in that step's transfers;
//! - on the 4 × 4 torus a re-tile hands columns between ranks that are
//!   not torus neighbours, straight, in one step;
//! - under `Launch::fixed_tiles()` the same runs make no check at all and
//!   reproduce, message for message, the digests pinned for them.

use pcdlb::core::permanent::is_permanent;
use pcdlb::core::protocol::DlbProtocol;
use pcdlb::domain::OwnershipMap;
use pcdlb::sim::{
    digest_particles, digest_run, launch_plan, retile_plan, run_serial, serial_sim, DomainShape,
    Lattice, Launch, LaunchPlan, Placed, RunConfig,
};

/// A balancing run from a corner cluster: the benchmark's scenario on the
/// 3 × 3 torus (`m = 4`, 45 % of the box), and its 4 × 4 sibling.
fn cluster(p: usize, m: usize, fill: f64, seed: u64, steps: u64) -> RunConfig {
    let mut cfg = RunConfig::from_p_m_density(p, m, 0.128);
    cfg.lattice = Lattice::Cluster { fill };
    cfg.dlb = true;
    cfg.seed = seed;
    cfg.steps = steps;
    cfg
}

/// The two runs, with the `digest_run` each makes under fixed tiles:
/// captured at the commit before re-tiling existed, and re-captured when
/// the balancer began to send the column that evens the pair most (and
/// the 3 × 3 torus one frame per neighbour), the 4 × 4 one again when a
/// moved column began to travel as its giver's migrants of the next
/// rebuild step and a rank to announce its load with what landed booked
/// (82 transfers where it made 83, 11111 messages where it sent 11194);
/// `digest_particles` of both equals the serial reference's before and
/// after (0x6bd80c34322245fc on the 4 × 4). Both again when a ghost's id
/// began to be charged as the LEB128 gap to the one before it: only
/// `t_step` moved, and `digest_particles` equalled the serial reference's
/// before and after (0x6e0d97d519582291 and 0x6bd80c34322245fc). Both
/// again when the step's frames began to travel the torus one axis at a
/// time (4 frames a round instead of 8): a scratch build of the parent and
/// of this change hashed every record field but `t_step` and `wall_s` to
/// the same value, fixed tiles and re-tiling alike, `digest_particles`
/// equalled the serial reference's before and after (the same two
/// values), and the digests moved 0xafa2e112bc642375 → 0xeb9ae06833e799dd
/// and 0xa55a437951d49fd5 → 0xcd46dc3af293ad8f.
fn runs() -> [(RunConfig, u64); 2] {
    [
        (cluster(9, 4, 0.45, 3, 130), 0xeb9ae06833e799dd),
        (cluster(16, 4, 0.4, 1, 40), 0xcd46dc3af293ad8f),
    ]
}

/// The ownership a plan ends on.
fn planned(plan: &LaunchPlan) -> OwnershipMap {
    let mut map = OwnershipMap::initial(plan.tiling());
    for d in &plan.decisions {
        DlbProtocol::apply(&mut map, d);
    }
    map
}

#[test]
fn a_re_tile_moves_ownership_never_physics() {
    let mut far_moves = 0;
    for (cfg, _) in runs() {
        let (report, snapshot) = Launch::new().snapshot().run(&cfg).into_snapshot();
        assert!(
            report.retiles.len() >= 2,
            "P = {}: re-tiled {:?}",
            cfg.p,
            report.retiles
        );
        assert_eq!(
            digest_particles(&snapshot),
            digest_particles(&run_serial(&cfg)),
            "P = {}",
            cfg.p
        );
        // The tiling each re-tile moved to is the one the launch's chooser
        // and plan, refined on the plan's floor, pick on the exact work
        // map of the state the check saw: the serial state after the step
        // before.
        let mut serial = serial_sim(&cfg);
        let work_at = |serial: &pcdlb::md::SerialSim| Placed::new(&cfg, &serial.snapshot());
        let launch = launch_plan(
            DomainShape::SquarePillar,
            &cfg,
            0,
            &work_at(&serial).column_work(),
            true,
        );
        let mut before = launch.tiling();
        let mut chosen_at = 0;
        for &(step, tiling, moved) in &report.retiles {
            let since = step - chosen_at;
            assert!(
                since >= 2 && since.is_power_of_two(),
                "P = {}: re-tiled at {step}, {since} steps after step {chosen_at}",
                cfg.p
            );
            chosen_at = step;
            while serial.steps_done() < step - 1 {
                serial.step();
            }
            let work = work_at(&serial).column_work();
            let plan = retile_plan(&cfg, step - 1, &work);
            assert_eq!(plan.tiling(), tiling, "P = {}, step {step}", cfg.p);
            let record = &report.records[step as usize - 1];
            assert!(
                moved > 0 && record.transfers as usize >= moved,
                "step {step}"
            );
            // A permanent column of the tiling before sits at its home: if
            // the plan gives it to a rank that is not a torus neighbour of
            // that home, the move crossed the torus in one frame.
            let after = planned(&plan);
            let torus = cfg.torus();
            far_moves += before
                .grid()
                .iter()
                .filter(|&col| is_permanent(&before, col))
                .filter(|&col| {
                    let (from, to) = (before.home_rank(col), after.owner_of(col));
                    from != to && !torus.distinct_neighbors8(from).contains(&to)
                })
                .count();
            before = tiling;
        }
        assert_eq!(report.tiling, Some(before), "P = {}", cfg.p);
    }
    assert!(far_moves > 0, "no column moved between non-neighbours");
}

#[test]
fn fixed_tiles_check_nothing_and_run_as_before() {
    for (cfg, pinned) in runs() {
        let (report, snapshot) = Launch::new()
            .fixed_tiles()
            .snapshot()
            .run(&cfg)
            .into_snapshot();
        assert!(report.retiles.is_empty());
        let tiling = report.tiling.expect("a pillar run reports its tiling");
        let (rows, cols) = (0..cfg.p).fold((cfg.nc, cfg.nc), |(r, c), rank| {
            let (tr, tc) = tiling.tile_dims(rank);
            (r.min(tr), c.min(tc))
        });
        assert!(rows >= 2 && cols >= 2, "{tiling}");
        assert_eq!(snapshot, run_serial(&cfg), "P = {}", cfg.p);
        // The messages sent are in the digest: a check would add a gather
        // and a broadcast, and move them.
        assert_eq!(
            digest_run(&report, &snapshot, cfg.load_metric),
            pinned,
            "P = {}",
            cfg.p
        );
    }
}
