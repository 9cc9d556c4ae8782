//! Tier-1's view of the frozen skin epochs (the recommended
//! configuration: `skin > 0`, `verlet`, overlap on): the run lands on the
//! serial reference bit for bit, and a mid-epoch step costs exactly one
//! message per neighbour — the positions-only ghost refresh — where a
//! rebuild step costs two. The message count is checked against its
//! closed form, so an empty mid-epoch round cannot creep back unnoticed.

use pcdlb::sim::{digest_particles, run_serial, run_with_snapshot, RunConfig};

const STEPS: u64 = 40;
const THERMOSTAT_EVERY: u64 = 10;

/// The paper-density gas on a 2×2 pillar torus, DDM.
fn pillar_p4(skin: f64) -> RunConfig {
    let (nc, density) = (6, 0.256);
    let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, nc, 4, density);
    cfg.steps = STEPS;
    cfg.dlb = false;
    cfg.seed = 3;
    cfg.thermostat_interval = THERMOSTAT_EVERY;
    cfg.skin = skin;
    cfg.verlet = skin > 0.0;
    cfg
}

/// Messages a healthy `STEPS`-step run sends over all ranks when
/// `rebuilds` of its steps are rebuild steps.
fn expected_msgs(cfg: &RunConfig, rebuilds: u64) -> u64 {
    let p = cfg.p as u64;
    let nbrs: u64 = (0..cfg.p)
        .map(|rank| cfg.torus().distinct_neighbors8(rank).len() as u64)
        .sum();
    // A gather or a broadcast over P ranks is P − 1 sends.
    let coll = p - 1;
    // Point to point: the initial ghost exchange, two rounds per rebuild
    // step, the refresh alone on every other step.
    let p2p = nbrs + rebuilds * 2 * nbrs + (STEPS - rebuilds) * nbrs;
    // Collectives: the rebuild decision (gather + broadcast, every step,
    // skin epochs only), the thermostat (gather + broadcast), the stats
    // gather (every step) and the final snapshot gather.
    let decision = if cfg.skin > 0.0 { STEPS * 2 * coll } else { 0 };
    let thermostat = (STEPS / THERMOSTAT_EVERY) * 2 * coll;
    p2p + decision + thermostat + STEPS * coll + coll
}

#[test]
fn frozen_epochs_match_serial_and_send_one_message_per_neighbour_mid_epoch() {
    let cfg = pillar_p4(0.06);
    let (report, snapshot) = run_with_snapshot(&cfg);
    assert_eq!(
        digest_particles(&snapshot),
        digest_particles(&run_serial(&cfg)),
        "skin epochs diverged from the serial reference"
    );
    let rebuilds = report.records.iter().filter(|r| r.rebuilt).count() as u64;
    assert!(
        (2..STEPS / 2).contains(&rebuilds),
        "degenerate epoch schedule: {rebuilds}/{STEPS} rebuilds"
    );
    assert_eq!(report.ghost_desyncs, 0);
    assert_eq!(report.msgs_sent, expected_msgs(&cfg, rebuilds));
}

#[test]
fn every_step_rebuilds_without_a_skin_and_keeps_both_rounds() {
    let cfg = pillar_p4(0.0);
    let (report, snapshot) = run_with_snapshot(&cfg);
    assert_eq!(
        digest_particles(&snapshot),
        digest_particles(&run_serial(&cfg))
    );
    assert!(report.records.iter().all(|r| r.rebuilt));
    assert_eq!(report.msgs_sent, expected_msgs(&cfg, STEPS));
    // The legacy wire, message for message: the count this configuration
    // sent before mid-epoch steps had a frame of their own.
    assert_eq!(report.msgs_sent, 1119);
}
