//! One physics, three machines: the same Lennard-Jones system run through
//! all three domain decompositions of the paper's Fig. 2 — plane (ring),
//! square pillar (2-D torus) and cube (3-D torus) — plus the serial
//! reference.
//!
//!     cargo run --release --example three_decompositions
//!
//! Every parallel variant reproduces the serial trajectory **bitwise**
//! (the example verifies it), while their communication profiles differ
//! exactly the way the paper's Sec. 2.2 argues.

use pcdlb::md::Particle;
use pcdlb::sim::{run_serial, DomainShape, Launch, RunConfig, RunReport};

fn check(label: &str, snap: &[Particle], reference: &[Particle], rep: &RunReport, p: usize) {
    let identical = snap.len() == reference.len()
        && snap
            .iter()
            .zip(reference)
            .all(|(a, b)| a.id == b.id && a.pos == b.pos && a.vel == b.vel);
    assert!(
        identical,
        "{label}: trajectory diverged from the serial reference!"
    );
    let steps = rep.records.len() as f64;
    println!(
        "{label:<14} P={p:<3} bitwise = serial ✓   {:6.1} msgs/PE/step, {:7.1} KiB/PE/step",
        rep.msgs_sent as f64 / (p as f64 * steps),
        rep.bytes_sent as f64 / (p as f64 * steps) / 1024.0,
    );
}

fn main() {
    // nc = 8 cells/side fits a 2×2 pillar grid, a 4-slab ring and a
    // 2×2×2 cube grid simultaneously.
    let nc = 8;
    let density = 0.25;
    let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, nc, 4, density);
    cfg.steps = 50;
    cfg.dlb = false;
    println!(
        "Supercooled LJ gas, N = {n}, {nc}³ cells, {} steps — running four ways…\n",
        cfg.steps
    );

    let reference = run_serial(&cfg);
    println!("serial reference: {} particles evolved", reference.len());

    // One launch description per shape; the cube needs a cubic PE count.
    let mut cube_cfg = cfg.clone();
    cube_cfg.p = 8;
    for (label, shape, cfg) in [
        ("square pillar", DomainShape::SquarePillar, &cfg),
        ("plane (ring)", DomainShape::Plane, &cfg),
        ("cube (3-D)", DomainShape::Cube, &cube_cfg),
    ] {
        let (rep, snap) = Launch::new()
            .shape(shape)
            .snapshot()
            .run(cfg)
            .into_snapshot();
        check(label, &snap, &reference, &rep, cfg.p);
    }

    println!(
        "\nAll three parallel decompositions reproduced the serial trajectory \
         bit for bit.\nDomain shape changes who talks to whom — never the physics."
    );
}
