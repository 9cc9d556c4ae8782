//! The plane-domain 1-D baseline's own behaviour: its moving-boundary
//! balancer must actually balance, must never squeeze a PE to nothing,
//! and — like every balancer here — must move ownership only, never
//! physics. (Bitwise parity of the plane's DDM rows is in
//! `parity_matrix.rs`, shared with the other shapes.)

use pcdlb_sim::{run_serial, DomainShape, Lattice, Launch, RunConfig};

fn plane() -> Launch {
    Launch::new().shape(DomainShape::Plane)
}

fn cfg(p: usize, nc: usize, steps: u64, dlb: bool) -> RunConfig {
    let density = 0.25;
    let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
    let mut cfg = RunConfig::new(n, nc, p, density);
    cfg.steps = steps;
    cfg.dlb = dlb;
    cfg.seed = 13;
    cfg.thermostat_interval = 10;
    cfg
}

#[test]
fn moving_boundaries_do_not_change_physics() {
    // 1-D DLB on vs off: identical trajectories (ownership only) — the
    // boundaries the launch plan moved before the first step included.
    let mut on = cfg(4, 8, 40, true);
    on.lattice = Lattice::Cluster { fill: 0.2 };
    on.density = 0.005;
    let mut off = on.clone();
    off.dlb = false;
    let (rep_on, snap_on) = plane().snapshot().run(&on).into_snapshot();
    let (rep_off, snap_off) = plane().snapshot().run(&off).into_snapshot();
    assert!(rep_on.launch_transfers > 0, "the slab start plans a shed");
    assert_eq!(rep_off.launch_transfers, 0);
    assert_eq!(snap_on, snap_off);
    assert_eq!(snap_on, run_serial(&on));
    // Boundedness: every record still partitions all cells.
    let c_total = on.total_cells();
    for r in &rep_on.records {
        assert!(r.max_cells < c_total);
    }
    // Boundary moves redraw the ghost shells; delta vs full ghost frames
    // must still only differ in actual bytes shipped, never in results.
    let mut full = on.clone();
    full.delta_ghosts = false;
    let (rep_full, snap_full) = plane().snapshot().run(&full).into_snapshot();
    assert_eq!(snap_on, snap_full);
    assert_eq!(rep_on.records, rep_full.records);
    assert_eq!(rep_on.comm_virtual_s, rep_full.comm_virtual_s);
    assert_eq!(rep_on.bytes_sent, rep_full.bytes_sent);
}

#[test]
fn plane_dlb_balances_a_slab_imbalance() {
    // All particles clustered in low-x slabs: exactly the imbalance a
    // 1-D balancer can fix. Fmax/Fave must improve materially.
    let mut c = cfg(4, 8, 150, true);
    c.lattice = Lattice::Cluster { fill: 0.5 };
    c.density = 0.05;
    let rep = plane().run(&c).report;
    let early = rep.records[2].f_max / rep.records[2].f_ave;
    let late = {
        let r = rep.records.last().unwrap();
        r.f_max / r.f_ave
    };
    assert!(
        late < early * 0.8,
        "1-D DLB should fix a slab imbalance: early {early:.2}, late {late:.2}"
    );
    let transfers: u32 = rep.records.iter().map(|r| r.transfers).sum();
    assert!(transfers > 0);
}

#[test]
fn every_pe_keeps_at_least_one_plane() {
    // Extreme imbalance must not squeeze any PE to zero planes (the
    // run would panic in ghost exchange if it did; also check stats).
    let mut c = cfg(6, 6, 120, true);
    c.lattice = Lattice::Cluster { fill: 0.3 };
    c.density = 0.03;
    let rep = plane().run(&c).report;
    let min_cells = c.nc * c.nc; // one plane
    for r in &rep.records {
        // max_cells is the max; the min isn't recorded directly, but the
        // run completing at all proves no PE lost its last plane, and the
        // busiest PE can hold at most nc − (P − 1) planes.
        assert!(r.max_cells <= (c.nc - (c.p - 1)) * min_cells);
    }
}

#[test]
fn a_planned_start_squeezes_no_one_plane_pe() {
    // Four PEs over six planes: ranks 0 and 2 hold a single plane, rank 1
    // two, and the gas lies over planes 0–2. The plan hands rank 1's upper
    // plane to rank 2 — and may take nothing from the one-plane PEs beside
    // it, however loaded: the run would panic in its first ghost exchange
    // if a slab had been planned away.
    let mut c = cfg(4, 6, 30, true);
    c.lattice = Lattice::Cluster { fill: 0.5 };
    c.density = 0.05;
    let (rep, snap) = plane().snapshot().run(&c).into_snapshot();
    assert!(rep.launch_transfers > 0, "rank 1 sheds a plane at launch");
    assert_eq!(snap, run_serial(&c));
    let plane_cells = c.nc * c.nc;
    for r in &rep.records {
        assert!(r.max_cells <= (c.nc - (c.p - 1)) * plane_cells);
    }
}
