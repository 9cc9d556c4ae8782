//! Tier-1's view of the step engine: the three domain shapes of paper
//! Fig. 2 — square pillar, plane, cube — run the same 20-step gas through
//! the one SPMD engine and all land on the serial reference, bit for bit.

use pcdlb::sim::{run_serial, DomainShape, Launch, RunConfig};

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
