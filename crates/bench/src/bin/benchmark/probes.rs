//! Layer probes: small timed calls into each crate's public functions,
//! made from outside the crates during the traced pass.
//!
//! Every probe states what it measures where it is defined in
//! `metrics.rs`; the prefix of a metric's name is its layer.

use std::hint::black_box;
use std::time::Instant;

use pcdlb_core::protocol::DlbProtocol;
use pcdlb_domain::{OwnershipMap, PillarLayout};
use pcdlb_md::cells::HALF_OFFSETS_13;
use pcdlb_md::force::ExternalPull;
use pcdlb_md::integrate::{kick, kick_drift};
use pcdlb_md::serial::compute_forces_half_shell;
use pcdlb_md::soa::compute_forces_half_shell_soa;
use pcdlb_md::{
    CellGrid, PairKernel, Particle, SegAction, SoaField, Vec3, VerletList, WorkCounters,
};
use pcdlb_mp::{collectives, BufferPool, Comm, CommConfig, World};
use pcdlb_sim::frame::{DeltaChannel, GhostShellFrame};
use pcdlb_sim::{digest_particles, PhaseTimes, RunConfig, WireBytes};

use crate::metrics::Values;
use crate::stats::median;
use crate::workloads::{comm, lossless, VERLET_SKIN};

/// Seconds per call of `f`: one warm-up call, then the median of three
/// batches of `iters` calls.
fn time_call(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let batches: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    median(&batches)
}

/// What the `md` kernels cost on one saved grid.
struct MdSample {
    half_ns_per_check: f64,
    half_ms: f64,
    soa_ns_per_check: f64,
    replay_ns_per_check: f64,
    replay_ms: f64,
    record_ms: f64,
    rebin_ms: f64,
    integrate_ns_per_particle: f64,
}

fn md_sample(grid: &CellGrid, cfg: &RunConfig) -> MdSample {
    let kernel = PairKernel::new(cfg.lj);
    let pull = ExternalPull::None;
    let mut forces: Vec<Vec3> = Vec::new();
    let mut checks = 0u64;
    let half_s = time_call(1, || {
        checks = compute_forces_half_shell(grid, &kernel, &pull, &mut forces).pair_checks;
    });
    let mut soa = SoaField::new();
    let soa_s = time_call(1, || {
        black_box(compute_forces_half_shell_soa(
            grid,
            &kernel,
            &pull,
            &mut soa,
            &mut forces,
        ));
    });

    // Verlet list: record the canonical walk at reach r_c + skin (a
    // rebuild step), then replay it including the per-call position
    // reload and force fold-back a production step pays.
    let reach2 = (cfg.lj.rcut + VERLET_SKIN).powi(2);
    let np = grid.num_particles();
    let mut vlist = VerletList::new();
    let record_s = time_call(1, || {
        soa.reset(np, np);
        soa.load_positions(0, grid.particles());
        vlist.clear();
        for idx in 0..grid.total_cells() {
            let hr = grid.cell_range(idx);
            if hr.is_empty() {
                continue;
            }
            let home = grid.coord_of(idx);
            vlist.record_intra(&soa, hr.clone(), reach2, 0, 0);
            for offset in HALF_OFFSETS_13 {
                let (ncell, shift) = grid.wrap_neighbor(home, offset);
                let nr = grid.cell_range(grid.index(ncell));
                vlist.record_pair(&soa, hr.clone(), nr, shift, reach2, 0, 0, 0);
            }
        }
    });
    let mut replay_checks = 0u64;
    let replay_s = time_call(1, || {
        soa.load_positions(0, grid.particles());
        soa.zero_forces();
        let mut w = [WorkCounters::default()];
        vlist.replay(
            &kernel,
            &pull,
            grid.box_len(),
            &mut soa,
            |_| Some(SegAction::fused()),
            &mut w,
        );
        soa.fold_forces(&mut forces);
        replay_checks = w[0].pair_checks;
    });
    assert_eq!(checks, replay_checks, "walk and replay book different work");

    // Rebinning an already binned grid: like a production step, where
    // only a few particles change cell.
    let mut scratch = grid.clone();
    let rebin_s = time_call(1, || scratch.rebin());
    let (dt, box_len) = (cfg.dt, grid.box_len());
    let integrate_s = time_call(1, || {
        for (p, f) in scratch.particles_mut().iter_mut().zip(&forces) {
            kick_drift(p, *f, dt, box_len);
            kick(p, *f, dt);
        }
    });
    MdSample {
        half_ns_per_check: half_s * 1e9 / checks as f64,
        half_ms: half_s * 1e3,
        soa_ns_per_check: soa_s * 1e9 / checks as f64,
        replay_ns_per_check: replay_s * 1e9 / checks as f64,
        replay_ms: replay_s * 1e3,
        record_ms: record_s * 1e3,
        rebin_ms: rebin_s * 1e3,
        integrate_ns_per_particle: integrate_s * 1e9 / np as f64,
    }
}

/// `md` kernels on the grids a serial run saved: the median over the
/// grids (the state drifts slowly, and one disturbed call should not
/// move the number). `step_ms_p50` is the median wall of that run's
/// `step()` calls.
pub fn md(grids: &[CellGrid], cfg: &RunConfig, step_ms_p50: f64, out: &mut Values) {
    let samples: Vec<MdSample> = grids.iter().map(|g| md_sample(g, cfg)).collect();
    let mid = |f: fn(&MdSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    out.push(("md.half_shell.ns_per_check", mid(|s| s.half_ns_per_check)));
    out.push((
        "md.soa_half_shell.ns_per_check",
        mid(|s| s.soa_ns_per_check),
    ));
    out.push((
        "md.verlet_replay.ns_per_check",
        mid(|s| s.replay_ns_per_check),
    ));
    out.push(("md.verlet_record.ms", mid(|s| s.record_ms)));
    out.push(("md.rebin.ms", mid(|s| s.rebin_ms)));
    out.push((
        "md.integrate.ns_per_particle",
        mid(|s| s.integrate_ns_per_particle),
    ));
    // One force evaluation per step, by the kernel the step path uses.
    let kernel_ms = if cfg.verlet {
        mid(|s| s.replay_ms)
    } else {
        mid(|s| s.half_ms)
    };
    out.push(("md.force_share", kernel_ms / step_ms_p50));
}

const TAG: u64 = 1;

/// Run `body` on `p` ranks under `comm_cfg`; rank 0's return value.
fn on_world<R: Send>(p: usize, comm_cfg: &CommConfig, body: impl Fn(&mut Comm) -> R + Sync) -> R {
    World::new(p)
        .with_comm_config(comm_cfg)
        .run(body)
        .swap_remove(0)
}

/// Ping-pong of one `bytes`-sized message between ranks 0 and 1 of a
/// `p`-rank world (the other ranks wait in the closing barrier): µs per
/// round trip.
fn ping_pong(p: usize, bytes: usize, iters: usize, comm_cfg: &CommConfig) -> f64 {
    on_world(p, comm_cfg, |comm| {
        let mut us = 0.0;
        match comm.rank() {
            0 => {
                let mut msg = vec![0u8; bytes];
                let start = Instant::now();
                for _ in 0..iters {
                    comm.send(1, TAG, msg);
                    msg = comm.recv(1, TAG);
                }
                us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
            }
            1 => {
                for _ in 0..iters {
                    let msg: Vec<u8> = comm.recv(0, TAG);
                    comm.send(0, TAG, msg);
                }
            }
            _ => {}
        }
        collectives::barrier(comm, TAG + 1);
        us
    })
}

/// µs per call of a collective `op` on `p` ranks, timed on rank 0.
fn collective_us(p: usize, iters: usize, op: impl Fn(&mut Comm) + Sync) -> f64 {
    on_world(p, &comm(None), |comm| {
        op(comm);
        let start = Instant::now();
        for _ in 0..iters {
            op(comm);
        }
        start.elapsed().as_secs_f64() * 1e6 / iters as f64
    })
}

fn allreduce(comm: &mut Comm) {
    let rank = comm.rank() as f64;
    black_box(collectives::allreduce(comm, TAG, rank, f64::max));
}

/// The rebuild-decision collective of the skin epochs: gather one f64
/// per rank, broadcast the maximum.
fn gather_bcast(comm: &mut Comm) {
    let rank = comm.rank() as f64;
    let max = collectives::gather(comm, TAG, rank).map(|v| v.into_iter().fold(0.0, f64::max));
    black_box(collectives::bcast(comm, TAG + 1, max));
}

/// `mp` substrate probes, under the workloads' pinned message-layer
/// settings. `p` and `msg_bytes` follow the workload (its rank count and
/// mean message size); the `_p4`/`_p9` probes are fixed.
pub fn mp(p: usize, msg_bytes: usize, seed: u64, out: &mut Values) {
    let p = p.max(2);
    let plain_us = ping_pong(p, msg_bytes, 2000, &comm(None));
    let rel_us = ping_pong(p, msg_bytes, 2000, &comm(Some(lossless(seed))));
    out.push(("mp.p2p.roundtrip_us", plain_us));
    out.push(("mp.rel.p2p_roundtrip_us", rel_us));
    out.push(("mp.rel.overhead_ratio", rel_us / plain_us));

    out.push(("mp.allreduce.us_p4", collective_us(4, 500, allreduce)));
    out.push(("mp.allreduce.us_p9", collective_us(9, 300, allreduce)));
    out.push(("mp.gather_bcast.us_p4", collective_us(4, 500, gather_bcast)));
    out.push(("mp.gather_bcast.us_p9", collective_us(9, 300, gather_bcast)));
    let barrier = |comm: &mut Comm| collectives::barrier(comm, TAG);
    out.push(("mp.barrier.us_p9", collective_us(9, 300, barrier)));

    let mut pool: BufferPool<Vec<u8>> = BufferPool::new();
    let pool_s = time_call(100_000, || {
        let buf = pool.checkout();
        pool.checkin(black_box(buf));
    });
    out.push(("mp.pool.checkout_checkin_ns", pool_s * 1e9));
    for (name, p) in [("mp.world_spawn_ms_p4", 4), ("mp.world_spawn_ms_p9", 9)] {
        let spawn_s = time_call(5, || {
            black_box(on_world(p, &comm(None), |comm| comm.rank()));
        });
        out.push((name, spawn_s * 1e3));
    }
}

/// The ghost shell at the low-x face, as `(id, position)` pairs.
fn shell(parts: &[Particle], rcut: f64, box_len: f64) -> Vec<(u64, Vec3)> {
    parts
        .iter()
        .filter(|p| p.pos.x.rem_euclid(box_len) < rcut)
        .map(|p| (p.id, p.pos))
        .collect()
}

/// `sim` frame codec and digest on content cut from a final snapshot:
/// two shells one drift step apart, encoded alternately so every frame
/// is a delta with one step's turnover.
pub fn sim_codec(snapshot: &[Particle], cfg: &RunConfig, out: &mut Values) {
    let box_len = cfg.box_len();
    let drifted: Vec<Particle> = snapshot
        .iter()
        .map(|p| Particle {
            pos: p.pos + p.vel * cfg.dt,
            ..*p
        })
        .collect();
    let shells = [
        shell(snapshot, cfg.lj.rcut, box_len),
        shell(&drifted, cfg.lj.rcut, box_len),
    ];
    let (mut tx, mut rx) = (DeltaChannel::default(), DeltaChannel::default());
    let mut frame = GhostShellFrame::default();
    let mut decoded = Vec::new();
    let (mut encode_s, mut decode_s, mut ghosts) = (0.0, 0.0, 0usize);
    for round in 0..400 {
        let content = &shells[round % 2];
        tx.scratch.extend_from_slice(content);
        let start = Instant::now();
        tx.encode_into(true, &mut frame);
        let mid = Instant::now();
        rx.decode_into(&frame, &mut decoded)
            .expect("sender and receiver channels roll forward together");
        decode_s += mid.elapsed().as_secs_f64();
        encode_s += (mid - start).as_secs_f64();
        ghosts += content.len();
        assert_eq!(decoded.len(), content.len());
    }
    out.push((
        "sim.frame.encode_ns_per_ghost",
        encode_s * 1e9 / ghosts as f64,
    ));
    out.push((
        "sim.frame.decode_ns_per_ghost",
        decode_s * 1e9 / ghosts as f64,
    ));
    let digest_s = time_call(20, || {
        black_box(digest_particles(black_box(snapshot)));
    });
    out.push((
        "sim.digest.ns_per_particle",
        digest_s * 1e9 / snapshot.len() as f64,
    ));
}

/// Bytes on the wire per phase and step, from a pillar workload's wire
/// run; zeros for the other engines. With `--features phase-timing` the
/// same run yields the library's own phase timers.
pub fn sim_wire(steps: f64, phases: &PhaseTimes, wire: &WireBytes, out: &mut Values) {
    out.push(("sim.wire.ghost_bytes_per_step", wire.ghost as f64 / steps));
    out.push((
        "sim.wire.migrate_bytes_per_step",
        wire.migrate as f64 / steps,
    ));
    out.push(("sim.wire.dlb_bytes_per_step", wire.dlb as f64 / steps));
    let ratio = if wire.ghost == 0 {
        0.0
    } else {
        wire.ghost_baseline as f64 / wire.ghost as f64
    };
    out.push(("sim.wire.ghost_ratio", ratio));
    if cfg!(feature = "phase-timing") {
        out.push(("sim.phase.force_s", phases.force));
        out.push(("sim.phase.ghost_s", phases.ghost));
        out.push(("sim.phase.migrate_s", phases.migrate));
        out.push(("sim.phase.dlb_s", phases.dlb));
    }
}

/// The balancer's decision and the ownership bookkeeping on the 3×3,
/// m = 4 layout `cluster_dlb_p9` runs on: the centre PE finds its
/// north-west neighbour fastest (case 1, the costly search for a movable
/// cell), then the transfer is applied, checked and undone.
pub fn core_domain(out: &mut Values) {
    let layout = PillarLayout::from_p_and_m(9, 4);
    let centre = 4;
    let protocol = DlbProtocol::new(layout, centre).with_min_relative_gain(0.02);
    let mut ownership = OwnershipMap::initial(layout);
    let loads: Vec<(usize, f64)> = (0..9)
        .filter(|&r| r != centre)
        .map(|r| (r, 0.5 + 0.01 * r as f64))
        .collect();
    let decide = |ownership: &OwnershipMap| {
        let fastest = protocol.fastest_pe(black_box(1.0), black_box(&loads));
        protocol.decide(ownership, fastest)
    };
    let decision = decide(&ownership).expect("a fresh centre tile has a movable cell");
    let decide_s = time_call(2000, || {
        black_box(decide(&ownership));
    });
    out.push(("core.decide.ns", decide_s * 1e9));
    let check_s = time_call(2000, || {
        ownership.transfer(decision.col, decision.from, decision.to);
        ownership
            .check_all()
            .expect("one legal transfer keeps every invariant");
        ownership.transfer(decision.col, decision.to, decision.from);
    });
    out.push(("domain.ownership.transfer_check_ns", check_s * 1e9));
}

/// Process CPU seconds so far (user + system, all threads), from
/// `/proc/self/stat` at the usual 100 ticks per second; 0 where that
/// file does not exist.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}
