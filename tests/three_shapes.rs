//! Tier-1's view of the step engine: the three domain shapes of paper
//! Fig. 2 — square pillar, plane, cube — run the same 20-step gas through
//! the one SPMD engine and all land on the serial reference, bit for bit.

use pcdlb::sim::{run_serial, DomainShape, Lattice, Launch, RunConfig};

#[test]
fn pillar_plane_and_cube_all_match_serial_bitwise() {
    let nc = 6;
    let density = 0.25;
    let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, nc, 1, density);
    cfg.steps = 20;
    cfg.dlb = false;
    cfg.seed = 5;
    cfg.thermostat_interval = 10;
    let serial = run_serial(&cfg);
    for (shape, p) in [
        (DomainShape::SquarePillar, 4),
        (DomainShape::Plane, 3),
        (DomainShape::Cube, 8),
    ] {
        let launch = Launch::new().shape(shape).snapshot();
        let (_, snap) = launch.run(&RunConfig { p, ..cfg.clone() }).into_snapshot();
        assert_eq!(snap, serial, "{shape:?} diverged from the serial reference");
    }
}

#[test]
fn a_ring_that_balances_every_step_lands_on_serial() {
    // A clustered start on rings of two, three and six, the balancer due
    // on every rebuild step: a plane lands on the rebuild step after the
    // one that decided it, and its particles travel in that step's round 1
    // as the giver's migrants. Where every step rebuilds, a landed plane's
    // boundary is idle on the step it lands; under skin epochs two
    // rebuild steps may lie an even number of steps apart, and a plane is
    // not offered on before its particles arrive.
    // Cells of length 3, room for the skin.
    let nc = 12;
    let box_len = 3.0 * nc as f64;
    let n = (0.06 * box_len.powi(3)) as usize;
    for p in [2, 3, 6] {
        for skin in [0.0, 0.15] {
            let mut cfg = RunConfig::new(n, nc, p, n as f64 / box_len.powi(3));
            cfg.steps = 30;
            cfg.seed = 2;
            cfg.thermostat_interval = 10;
            cfg.lattice = Lattice::Cluster { fill: 0.4 };
            cfg.dlb = true;
            cfg.dlb_min_gain = 0.0;
            cfg.skin = skin;
            let launch = Launch::new().shape(DomainShape::Plane).snapshot();
            let (report, snap) = launch.run(&cfg).into_snapshot();
            let transfers: u32 = report.records.iter().map(|r| r.transfers).sum();
            assert!(transfers > 0, "P = {p}, skin {skin}: no plane moved");
            assert_eq!(snap, run_serial(&cfg), "P = {p}, skin {skin}");
        }
    }
}
