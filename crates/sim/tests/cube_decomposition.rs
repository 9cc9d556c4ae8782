//! The cube-domain decomposition's own behaviour (paper Fig. 2(c)): it
//! conserves energy through the full stack, trades message count for
//! volume the way the shape analysis predicts, and rejects what it
//! cannot do. (Bitwise parity of the cube rows — including the k = 2
//! torus where every direction leads to the same 7 ranks — is in
//! `parity_matrix.rs`, shared with the other shapes.)

use pcdlb_sim::cube::{run_cube, run_cube_with_snapshot};
use pcdlb_sim::plane::run_plane;
use pcdlb_sim::{run_serial, RunConfig};

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

#[test]
fn cube_trades_message_count_for_volume_as_the_model_predicts() {
    // The Fig. 2 trade measured on real traffic, on the same gas
    // (nc = 9): 27 blocks of 3³ cells against a ring of 9 three-plane
    // slabs. P = 27 is the smallest cube grid where a rank really has 26
    // distinct neighbours (at k = 2 there are 7). Per rank, the cube
    // sends many more messages (26 neighbours vs the ring's 2), each
    // carrying a much smaller piece of shell, and imports less in total
    // (5³ − 3³ = 98 ghost cells vs 2·9² = 162).
    let steps = 10;
    let rep_cube = run_cube(&cfg(27, 9, steps));
    let rep_plane = run_plane(&cfg(9, 9, steps));
    let per_rank = |total: u64, p: u64| total as f64 / p as f64;
    let (msgs_cube, msgs_plane) = (
        per_rank(rep_cube.msgs_sent, 27),
        per_rank(rep_plane.msgs_sent, 9),
    );
    assert!(
        msgs_cube > 3.0 * msgs_plane,
        "per rank: cube {msgs_cube:.0} msgs vs plane {msgs_plane:.0} msgs"
    );
    // Two point-to-point rounds per neighbour per step dominate the count.
    assert!(msgs_cube >= (2 * 26 * steps) as f64);
    let per_msg_cube = rep_cube.bytes_sent as f64 / rep_cube.msgs_sent as f64;
    let per_msg_plane = rep_plane.bytes_sent as f64 / rep_plane.msgs_sent as f64;
    assert!(
        per_msg_cube < 0.5 * per_msg_plane,
        "cube messages should be much smaller: {per_msg_cube:.0} vs {per_msg_plane:.0} bytes"
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
    let _ = run_cube(&c);
}

#[test]
#[should_panic(expected = "DDM-only")]
fn dlb_flag_rejected() {
    let mut c = cfg(8, 4, 5);
    c.dlb = true;
    let _ = run_cube(&c);
}
