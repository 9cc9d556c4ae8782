//! The cube-domain decomposition's own behaviour (paper Fig. 2(c)): it
//! conserves energy through the full stack, exchanges once per step
//! wherever its neighbour sets are closed two cells out, trades message
//! count for volume the way the shape analysis predicts — less steeply,
//! its frames staged along the torus axes — and rejects what it cannot
//! do. (The cube rows of the shared bitwise matrix — skin modes,
//! encodings, blocks with a deep interior — are in `parity_matrix.rs`.)

use pcdlb_sim::cube::run_cube_with_snapshot;
use pcdlb_sim::{run_serial, serial_sim, DomainShape, Launch, RunConfig, RunReport};

fn run_shape(shape: DomainShape, cfg: &RunConfig) -> RunReport {
    Launch::new().shape(shape).run(cfg).report
}

fn cfg(p: usize, nc: usize, steps: u64) -> RunConfig {
    let density = 0.25;
    let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, nc, p, density);
    cfg.steps = steps;
    cfg.dlb = false;
    cfg.seed = 17;
    cfg.thermostat_interval = 10;
    cfg
}

#[test]
fn cube_conserves_particles_and_energy_shape() {
    let mut c = cfg(8, 4, 120);
    c.thermostat_interval = 0; // NVE
    let (rep, snap) = run_cube_with_snapshot(&c);
    assert_eq!(snap.len(), c.n_particles);
    let e0 = rep.records[0].kinetic + rep.records[0].potential;
    let e1 = {
        let r = rep.records.last().unwrap();
        r.kinetic + r.potential
    };
    assert!(
        ((e1 - e0) / e0.abs().max(1.0)).abs() < 2e-3,
        "NVE drift through the cube stack: {e0} → {e1}"
    );
}

#[test]
fn one_cell_blocks_on_the_smallest_torus_match_serial() {
    // nc = 2, k = 2: every rank owns a single cell and sees the other
    // seven, each through two periodic images. The former halo-array
    // engine had to reject this grid (one halo slot, two images); with
    // ghosts stored by cell and images resolved in the walk it is just
    // another row.
    let c = cfg(8, 2, 100);
    let (_, snap) = run_cube_with_snapshot(&c);
    assert_eq!(snap, run_serial(&c));
}

/// Point-to-point frames a healthy run of the cube sends over all ranks:
/// `per_rebuild` frames per hop on rebuild steps and one refresh on every
/// other step — none before the first step, since a launch sends nothing.
/// A rank's hops are the distinct ranks one torus step away along each
/// axis: 3 on the 2 × 2 × 2 torus, 6 from side 3 up.
fn step_frames(cfg: &RunConfig, hops_per_rank: u64, rebuilds: u64, per_rebuild: u64) -> u64 {
    let per_hop = rebuilds * per_rebuild + (cfg.steps - rebuilds);
    cfg.p as u64 * hops_per_rank * per_hop
}

/// Everything else the run sends: gathers and broadcasts over P ranks
/// are P − 1 sends each — the rebuild decision (skin epochs only) and
/// the stats gather every step, the thermostat, the final snapshot.
fn collective_msgs(cfg: &RunConfig) -> u64 {
    let coll = cfg.p as u64 - 1;
    let decision = if cfg.skin > 0.0 { 2 * cfg.steps } else { 0 };
    let thermostat = 2 * (cfg.steps / cfg.thermostat_interval);
    (decision + thermostat + cfg.steps + 1) * coll
}

#[test]
fn rebuild_steps_are_one_exchange_and_match_serial_in_state_and_work() {
    // Block grids whose neighbour sets are closed two cells out — all of
    // side 2 and 3, down to one-cell blocks — send one frame per hop per
    // rebuild step, migrants and ghosts together; 4³
    // one-cell blocks are not closed (a rank two blocks away borders the
    // cell a particle may enter) and keep both rounds. Either way the
    // run is the serial reference's, state and work, step for step —
    // every step re-binned, frozen epochs walked, frozen epochs replayed.
    for (p, nc, hops, per_rebuild) in [
        (8, 12, 3, 1),
        (8, 4, 3, 1),
        (27, 6, 6, 1),
        (27, 3, 6, 1),
        (64, 4, 6, 2),
    ] {
        for (skin, verlet) in [(0.0, false), (0.4, false), (0.4, true)] {
            // Cells 3 wide host the skin; warm enough to keep the faces,
            // edges and corners busy.
            let box_len = 3.0 * nc as f64;
            let n = (0.08 * box_len.powi(3)) as usize;
            let mut c = RunConfig::new(n, nc, p, n as f64 / box_len.powi(3));
            c.steps = if nc == 12 { 20 } else { 40 };
            c.dlb = false;
            c.seed = 5;
            c.t_ref = 1.5;
            c.thermostat_interval = 10;
            (c.skin, c.verlet) = (skin, verlet);
            let what = format!("P = {p}, nc = {nc}, skin {skin}, verlet {verlet}");
            let (rep, snap) = run_cube_with_snapshot(&c);
            let mut serial = serial_sim(&c);
            for rec in &rep.records {
                serial.step();
                assert_eq!(
                    (rec.pair_checks, rec.rebuilt),
                    (serial.last_work().pair_checks, serial.last_step_rebuilt()),
                    "{what}: step {}",
                    rec.step
                );
                // The same terms summed in another order (per rank, per
                // home column): equal to rounding, not to the bit.
                let potential = serial.last_work().potential;
                assert!(
                    (rec.potential - potential).abs() <= 1e-12 * potential.abs(),
                    "{what}: step {} potential {} vs serial {potential}",
                    rec.step,
                    rec.potential
                );
            }
            assert_eq!(snap, serial.snapshot(), "{what}");
            let rebuilds = rep.records.iter().filter(|r| r.rebuilt).count() as u64;
            assert_eq!(
                rebuilds == c.steps,
                skin == 0.0,
                "{what}: {rebuilds} rebuilds"
            );
            assert_eq!(
                rep.msgs_sent,
                step_frames(&c, hops, rebuilds, per_rebuild) + collective_msgs(&c),
                "{what}"
            );
        }
    }
}

#[test]
fn cube_trades_message_count_for_volume_as_the_model_predicts() {
    // The Fig. 2 trade measured on real traffic, on the same gas
    // (nc = 9): 27 blocks of 3³ cells against a ring of 9 one-plane
    // slabs. P = 27 is the smallest cube grid where a rank really has 26
    // distinct neighbours (at k = 2 there are 7). The exchange is staged
    // along the torus axes, so per rank the cube sends 6 frames a step to
    // the ring's 2 a round — the 26 neighbours' shares riding them — and
    // imports
    // less in total (5³ − 3³ = 98 ghost cells vs 2·9² = 162).
    let steps = 10;
    let (cube, plane) = (cfg(27, 9, steps), cfg(9, 9, steps));
    let rep_cube = run_shape(DomainShape::Cube, &cube);
    let rep_plane = run_shape(DomainShape::Plane, &plane);
    // (One-plane slabs fail the closure test: two rounds a step. No
    // snapshot is gathered.)
    for (rep, c, hops, rounds) in [(&rep_cube, &cube, 6, 1), (&rep_plane, &plane, 2, 2)] {
        let snapshot = c.p as u64 - 1;
        assert_eq!(
            rep.msgs_sent,
            step_frames(c, hops, steps, rounds) + collective_msgs(c) - snapshot,
            "P = {}",
            c.p
        );
    }
    let per_rank = |total: u64, p: u64| total as f64 / p as f64;
    let (msgs_cube, msgs_plane) = (
        per_rank(rep_cube.msgs_sent, 27),
        per_rank(rep_plane.msgs_sent, 9),
    );
    assert!(
        msgs_cube > msgs_plane,
        "per rank: cube {msgs_cube:.0} msgs vs plane {msgs_plane:.0} msgs"
    );
    let per_msg_cube = rep_cube.bytes_sent as f64 / rep_cube.msgs_sent as f64;
    let per_msg_plane = rep_plane.bytes_sent as f64 / rep_plane.msgs_sent as f64;
    assert!(
        per_msg_cube < per_msg_plane,
        "cube messages should be smaller: {per_msg_cube:.0} vs {per_msg_plane:.0} bytes"
    );
    let (bytes_cube, bytes_plane) = (
        per_rank(rep_cube.bytes_sent, 27),
        per_rank(rep_plane.bytes_sent, 9),
    );
    assert!(
        bytes_cube < bytes_plane,
        "per rank the cube imports the smaller shell: {bytes_cube:.0} vs {bytes_plane:.0} bytes"
    );
}

#[test]
#[should_panic(expected = "P = k³")]
fn non_cube_pe_count_rejected() {
    let c = cfg(9, 6, 5);
    run_shape(DomainShape::Cube, &c);
}

#[test]
#[should_panic(expected = "DDM-only")]
fn dlb_flag_rejected() {
    let mut c = cfg(8, 4, 5);
    c.dlb = true;
    run_shape(DomainShape::Cube, &c);
}
