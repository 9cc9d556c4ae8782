//! Tier-1's view of what a step sends, in closed form, so that an empty
//! round cannot creep back unnoticed:
//!
//! - every exchange is staged along the rank torus: per round a rank
//!   sends one frame to each distinct rank one torus step away along an
//!   axis (its *hops* — 2 on a ring of 3 or more, 1 on a ring of 2, 2 on
//!   the 2 × 2 torus, 4 on larger ones, 3 on the 2 × 2 × 2 cube, 6 on
//!   larger ones) and receives one from each; a diagonal neighbour's
//!   share rides those frames;
//! - the frozen skin epochs (the recommended configuration: `skin > 0`,
//!   `verlet`) land on the serial reference bit for bit, and a mid-epoch
//!   step costs exactly one frame per hop — the positions-only ghost
//!   refresh;
//! - a run that does not balance sends one frame per hop on its rebuild
//!   steps too: migrants and ghosts share the exchange;
//! - so does a run that balances on the 3 × 3 torus, where every rank a
//!   column can reach neighbours every rank that can hold it; a run that
//!   balances elsewhere sends two rounds. Either way the decision was
//!   taken a step ahead and rides the step's first frames, and the column
//!   travels in the giver's first frames of the next rebuild step, so a
//!   DLB step sends what a DDM step with as many rounds sends, whatever
//!   moves.
//!
//! Every balancing run also sends, once per launch, the announcement of
//! the initial loads (a column moves only if it leaves its receiver below
//! its giver, so the columns that move are shown on a start whose load
//! gathers after launch). The launch plan — where the balancer's rule
//! takes the initial condition before a thread starts — sends nothing: a
//! planned launch's messages are an unplanned one's, column for column
//! that moves in the run.

use pcdlb::sim::{
    digest_particles, run_serial, DomainShape, Lattice, Launch, RunConfig, RunReport,
};

const STEPS: u64 = 40;
const THERMOSTAT_EVERY: u64 = 10;

/// The paper-density gas on `p` PEs.
fn gas(p: usize, nc: usize, skin: f64) -> RunConfig {
    let density = 0.256;
    let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, nc, p, density);
    cfg.steps = STEPS;
    cfg.dlb = false;
    cfg.seed = 3;
    cfg.thermostat_interval = THERMOSTAT_EVERY;
    cfg.skin = skin;
    cfg.verlet = skin > 0.0;
    cfg
}

/// A run of `cfg` on the paper's scheme — tiles cut once, at launch, so
/// every step is one of the step protocol's and nothing else — checked
/// against the serial reference.
fn run(cfg: &RunConfig, shape: DomainShape) -> RunReport {
    let (report, snapshot) = Launch::new()
        .shape(shape)
        .fixed_tiles()
        .snapshot()
        .run(cfg)
        .into_snapshot();
    assert_eq!(
        digest_particles(&snapshot),
        digest_particles(&run_serial(cfg)),
        "{shape:?} diverged from the serial reference"
    );
    report
}

/// Messages a healthy run sends over all ranks, each rank having `hops`
/// hops and sending `rounds` frames along each on a rebuild step, given
/// which steps its report says rebuilt. No column moves in a message of
/// its own, in the run or at launch.
fn expected_msgs(cfg: &RunConfig, hops: u64, rounds: u64, report: &RunReport) -> u64 {
    let (p, steps) = (cfg.p as u64, cfg.steps);
    let nbrs = p * hops;
    let rebuilds = report.records.iter().filter(|r| r.rebuilt).count() as u64;
    // A gather or a broadcast over P ranks is P − 1 sends.
    let coll = p - 1;
    // Point to point: the initial ghost exchange; a balancing run's
    // announcement of its initial loads; per rebuild step its rounds; the
    // refresh alone on every other step.
    let announcement = if cfg.dlb { nbrs } else { 0 };
    let p2p = nbrs + announcement + rebuilds * rounds * nbrs + (steps - rebuilds) * nbrs;
    // Collectives: the rebuild decision (gather + broadcast, every step,
    // skin epochs only), the thermostat (gather + broadcast), the stats
    // gather (every step) and the final snapshot gather.
    let decision = if cfg.skin > 0.0 { steps * 2 * coll } else { 0 };
    let thermostat = (steps / THERMOSTAT_EVERY) * 2 * coll;
    p2p + decision + thermostat + steps * coll + coll
}

#[test]
fn frozen_epochs_match_serial_and_send_one_frame_per_hop_mid_epoch() {
    let cfg = gas(4, 6, 0.06);
    let report = run(&cfg, DomainShape::SquarePillar);
    let rebuilds = report.records.iter().filter(|r| r.rebuilt).count() as u64;
    assert!(
        (2..STEPS / 2).contains(&rebuilds),
        "degenerate epoch schedule: {rebuilds}/{STEPS} rebuilds"
    );
    assert_eq!(report.msgs_sent, expected_msgs(&cfg, 2, 1, &report));
}

#[test]
fn every_step_rebuilds_without_a_skin_in_one_exchange_where_nothing_balances() {
    let cfg = gas(4, 6, 0.0);
    let report = run(&cfg, DomainShape::SquarePillar);
    assert!(report.records.iter().all(|r| r.rebuilt));
    assert_eq!(report.msgs_sent, expected_msgs(&cfg, 2, 1, &report));
    // Message for message: the initial exchange and one frame per hop and
    // step (8 + 40 · 8), the collectives (147). The same run sent 639
    // while every neighbour had a frame of its own, and 1119 while
    // migrants and ghosts travelled apart.
    assert_eq!(report.msgs_sent, 475);
}

#[test]
fn a_ddm_run_sends_a_frame_per_hop_along_each_torus_axis() {
    // One DDM run of the ring, the 2 × 2 × 2 cube and the 3 × 3 × 3 cube,
    // every step one exchange: each rank sends a frame to, and receives
    // one from, every distinct rank one step away along an axis — two on
    // the ring, one per axis at a side of 2, two per axis from 3 — plus
    // the collectives. A neighbour one step away on several axes gets its
    // share through the frames of the others.
    // Pinned too: what each sends, 41 exchanges (the initial one and 40
    // steps) and the collectives. While every distinct neighbour had a
    // frame of its own — 2, 7 and 26 of them — the three sent 475, 2639
    // and 30056.
    for (shape, p, nc, hops, pinned) in [
        (DomainShape::Plane, 4, 8, 2, 475),
        (DomainShape::Cube, 8, 6, 3, 1327),
        (DomainShape::Cube, 27, 6, 6, 7916),
    ] {
        let cfg = gas(p, nc, 0.0);
        let report = run(&cfg, shape);
        assert!(report.records.iter().all(|r| r.rebuilt));
        assert_eq!(
            report.msgs_sent,
            expected_msgs(&cfg, hops, 1, &report),
            "{shape:?} P = {p}"
        );
        assert_eq!(report.msgs_sent, pinned, "{shape:?} P = {p}");
    }
}

#[test]
fn a_balancing_step_sends_what_a_plain_step_with_as_many_rounds_sends() {
    // Pillar: 3×3 and 4×4, m = 2, the gas squeezed into a corner. Plane:
    // a ring of three, three planes each, over the same corner. The
    // launch plan has moved columns before the first step — without a
    // message. Every step is a DLB step; none has a message of its own.
    // The plane's boundaries keep moving and the 4×4 torus moves a few
    // columns, inside its two rounds. The 3×3 torus sends one exchange —
    // every rank a column can reach there neighbours every rank that can
    // hold it — and its balancer is idle for the whole run:
    // a column moves only if it leaves its receiver below its giver, and
    // on these 2 × 2 tiles every movable column outweighs the gap it
    // would close; `columns_move_during_skin_epochs_once_the_load_gathers`
    // moves its columns.
    for (shape, p, nc, hops, rounds) in [
        (DomainShape::SquarePillar, 9, 6, 4, 1),
        (DomainShape::SquarePillar, 16, 8, 4, 2),
        (DomainShape::Plane, 3, 9, 2, 2),
    ] {
        let mut cfg = gas(p, nc, 0.0);
        cfg.dlb = true;
        cfg.lattice = Lattice::Cluster { fill: 0.6 };
        let report = run(&cfg, shape);
        let transfers: u32 = report.records.iter().map(|r| r.transfers).sum();
        let idle = rounds == 1;
        assert_eq!(
            transfers == 0,
            idle,
            "{shape:?} P = {p}: {transfers} transfers"
        );
        assert!(
            report.launch_transfers > 0,
            "{shape:?}: the corner start plans a shed"
        );
        assert_eq!(
            report.msgs_sent,
            expected_msgs(&cfg, hops, rounds, &report),
            "{shape:?} P = {p}"
        );
    }
}

#[test]
fn the_balancer_is_due_at_the_first_rebuild_after_each_multiple_of_its_interval() {
    // Under skin epochs the balancer can only act on rebuild steps. With
    // `dlb_interval = 3` it is due once a multiple of 3 has gone by since
    // the last rebuild — not only when a rebuild happens to fall on one.
    // On this corner cluster it is due but never willing: every movable
    // column of the 2 × 2 tiles would leave its receiver at or above its
    // giver, so nothing moves after the launch. The schedule is still
    // walked here; `columns_move_during_skin_epochs_once_the_load_gathers`
    // shows "due" as transfers.
    let k = 3;
    let mut cfg = gas(9, 6, 0.06);
    cfg.steps = 60;
    cfg.dlb = true;
    cfg.dlb_interval = k;
    cfg.lattice = Lattice::Cluster { fill: 0.6 };
    let report = run(&cfg, DomainShape::SquarePillar);
    let (due, acted, _) = landing_steps(&report, k);
    assert!(
        due >= 5,
        "degenerate schedule: {due} windows with a rebuild"
    );
    assert_eq!(acted, 0, "a column moved after {acted} of {due} due steps");
}

/// Walk `report`'s rebuild steps with the balancer due every `k`, on a
/// run whose decisions land one rebuild step after they are taken: a
/// column moves only on the rebuild step after a due one. Returns the due
/// steps, those after which a column moved, and those of them off a
/// multiple of `k` — due only because a multiple went by since the
/// rebuild before.
fn landing_steps(report: &RunReport, k: u64) -> (u32, u32, u32) {
    let mut last_rebuild = 0;
    let (mut due, mut acted, mut off_multiple) = (0, 0, 0);
    // The rebuild step before this one, if the balancer was due on it.
    let mut after_due: Option<u64> = None;
    for r in report.records.iter() {
        if !r.rebuilt {
            assert_eq!(r.transfers, 0, "step {}: mid-epoch transfer", r.step);
            continue;
        }
        assert!(
            after_due.is_some() || r.transfers == 0,
            "step {}: not after a due step",
            r.step
        );
        let moved = r.transfers > 0;
        acted += u32::from(moved);
        off_multiple += u32::from(moved && after_due.is_some_and(|s| s % k != 0));
        // A multiple of `k` in (last rebuild, this step]: the first
        // rebuild step of its window of `k`.
        after_due = (r.step / k > last_rebuild / k).then_some(r.step);
        due += u32::from(after_due.is_some());
        last_rebuild = r.step;
    }
    (due, acted, off_multiple)
}

#[test]
fn columns_move_during_skin_epochs_once_the_load_gathers() {
    // The corner pull of the end-to-end tests: the load gathers after
    // launch, columns light enough to leave their receiver below their
    // giver appear, and the balancer — due at the first rebuild after each
    // multiple of 3 — moves them, also where that rebuild is off the
    // multiple. Each rides the giver's first frames of the next rebuild
    // step, where it counts: round 1 on 3 × 3 tiles of the 4 × 4 torus,
    // the one exchange on 4 × 4 tiles of the 3 × 3 torus.
    let k = 3;
    for (p, m, rounds) in [(16, 3, 2), (9, 4, 1)] {
        let mut cfg = RunConfig::from_p_m_density(p, m, 0.256);
        cfg.steps = 100;
        cfg.seed = 1;
        cfg.thermostat_interval = THERMOSTAT_EVERY;
        cfg.central_pull = 0.5;
        cfg.pull_corner = true;
        cfg.dlb = true;
        cfg.dlb_min_gain = 0.05;
        cfg.dlb_interval = k;
        cfg.skin = 0.06;
        cfg.verlet = true;
        let report = run(&cfg, DomainShape::SquarePillar);
        let (due, acted, off_multiple) = landing_steps(&report, k);
        assert!(
            acted >= 3,
            "P = {p}: {acted} of {due} due steps transferred"
        );
        assert!(
            off_multiple > 0,
            "P = {p}: no column moved after a due step off a multiple of {k}: \
             a rebuild has to fall on one to balance"
        );
        assert_eq!(
            report.msgs_sent,
            expected_msgs(&cfg, 4, rounds, &report),
            "P = {p}"
        );
    }
}
