//! Absolute digests of six small runs, pinned. Everything else in the
//! tree compares a run with another run of the same build (serial, a
//! twin configuration); only this file notices when *both* move.
//!
//! The first four constants were captured at commit `7d7c399` — the last with the
//! overlapped force schedule, on by default there — on grids where ranks
//! of that commit really split their force pass: all four ranks of the
//! two P = 4 runs (on every step of the first, between rebuilds of the
//! second), three of the nine balancing ranks, all three of the ring.
//! They therefore pin the one schedule that is left to the bits of the
//! one that was deleted. The last two were captured at `88ddd3a`, the
//! commit before the step engine was split into modules: a cube (the one
//! shape whose classes are per cell) and a run through the resilient
//! terminal — checkpoint sink, sentinel, drain, resize barrier, restore —
//! which the first four never enter. The sixth was re-captured when the
//! launch began to cut its tiles where the load is (PR 24: the records
//! move with the ownership; `digest_particles` of its snapshot equalled
//! the serial reference's before and after, 0x33920bd8f57f4c11; the
//! third balances too, but its even plan leaves the heaviest PE columns
//! to move, so it keeps the paper's tiles and its digest). The third and
//! the sixth were re-captured once more when a column began to move only
//! if its receiver stays below its giver (fewer transfers, at launch and
//! in the run; `digest_particles` equalled the serial reference's before
//! and after, 0x8867d430d90fb7db and 0x33920bd8f57f4c11). They were
//! re-captured a third time when a balancing run began to check its
//! tiling at steps 2, 4, 8 and 16: neither re-tiles, and only the check's
//! gather and broadcast moved their records, in `t_step`; launched with
//! `Launch::fixed_tiles()` both land on their former digests, and
//! `digest_particles` equalled the serial reference's before and after
//! (the same two values). They were re-captured a fourth time when the
//! balancer began to send the column that evens the pair most, a re-tile
//! check to refine its tiling on the plan's floor, and the 3 × 3 torus one
//! frame per neighbour on its balancing steps (the ladder now re-tiles at
//! steps 2 and 16); `digest_particles` equalled the serial reference's
//! before and after (the same two values). The fourth and the sixth were
//! re-captured when every balancing run began to land a decision the way
//! the 3 × 3 torus does — at the next rebuild step, its column travelling
//! as the giver's migrants rather than in a message of its own: the ring
//! (9 transfers where it made 10, 458 messages where it sent 468) and the
//! ladder's 4 × 4 generation; each rank announcing its load with what
//! landed at the top of the step booked moved the ladder's 4 × 4
//! generation once more and left the ring as it was. `digest_particles`
//! equalled the serial reference's before and after, 0x4cfb21a79597db90
//! and 0x33920bd8f57f4c11. The sixth was re-captured when a re-tiling
//! run began to count its checks from the step its tiling was last chosen
//! — its last re-tile, or the launch of its generation — rather than from
//! step 0: the ladder now re-tiles at steps 2, 10, 12, 22 and 30, where
//! it re-tiled at 2 and 16 (the third checks at 2, 4, 8 and 16 as before,
//! since it never re-tiles, and kept its digest); `digest_particles`
//! equalled the serial reference's before and after, 0x33920bd8f57f4c11.
//! All six were re-captured when a ghost's id began to be charged as the
//! LEB128 gap to the id before it in its frame, not as 8 bytes: only
//! `t_step` moved (`f_max`, `f_ave`, `f_min`, `pair_checks`, transfers
//! and the energies of every record are bitwise the same), and
//! `digest_particles` equalled the serial reference's before and after,
//! 0x826fdc6cb9d33bf0, 0xd096064b90c85112, 0x8867d430d90fb7db,
//! 0x4cfb21a79597db90, 0xe36790baf1274e34 and 0x33920bd8f57f4c11.
//! All six were re-captured when the step's frames began to travel the
//! rank torus one axis at a time, a diagonal neighbour's share relayed
//! (3 frames a step instead of 7 on the cube, 2 instead of 3 on the
//! 2 × 2 tiles, 4 instead of 8 on the 3 × 3): only `t_step` moved — a
//! scratch build of the parent and of this change ran all six and
//! hashed every record field but `t_step` and `wall_s` to the same value,
//! and `digest_particles` equalled the serial reference's before and
//! after, the six values above. Old → new: 0x12a2a9e6c1fac360 →
//! 0x3ed54524f9374ed8, 0x4c742fd87671def3 → 0xd0fdea32e6ea6072,
//! 0x45acd78ad9c66120 → 0x580548b20e24415b, 0xb83f1ef202f1aced →
//! 0x8f1b6a355a4ca7f7 (the ring's frames were already one per hop; its
//! section headers are smaller), 0x9e30932c1788c2a4 → 0x3678a94926a68500,
//! 0x3dca02c97b51f4b9 → 0x8f71839d8e5e5603.
//! An engine change that is meant to be a pure move
//! must leave all six alone; one that means to move them says so in
//! CHANGES.md and re-captures them here.

use pcdlb::sim::{digest_run, DomainShape, Ladder, Lattice, Launch, ResizePlan, RunConfig};

/// A 30-step gas on roomy cells (length 3.0 ≥ r_c + skin).
fn gas(p: usize, nc: usize, density: f64) -> RunConfig {
    let box_len = 3.0 * nc as f64;
    let n = (density * box_len.powi(3)) as usize;
    let mut cfg = RunConfig::new(n, nc, p, n as f64 / box_len.powi(3));
    cfg.steps = 30;
    cfg.seed = 3;
    cfg.thermostat_interval = 5;
    cfg.dlb = false;
    cfg
}

fn digest(shape: DomainShape, cfg: &RunConfig) -> u64 {
    let (report, snapshot) = Launch::new()
        .shape(shape)
        .snapshot()
        .run(cfg)
        .into_snapshot();
    digest_run(&report, &snapshot, cfg.load_metric)
}

#[test]
fn four_runs_land_on_the_digests_of_the_commit_that_pinned_them() {
    // 8×8-column tiles, every step a single-exchange rebuild.
    let every_step = gas(4, 16, 0.05);
    // 6×6-column tiles, frozen epochs replayed from the Verlet list.
    let mut verlet = gas(4, 12, 0.1);
    verlet.skin = 0.06;
    verlet.verlet = true;
    // 6×6-column tiles on the 3×3 torus, a clustered start (123 columns
    // planned away at launch), one exchange a step and the balancer on
    // every step (64 transfers), the tiling checked at steps 2, 4, 8 and 16
    // and kept.
    let mut balancing = gas(9, 18, 0.03);
    balancing.lattice = Lattice::Cluster { fill: 0.6 };
    balancing.dlb = true;
    balancing.dlb_min_gain = 0.02;
    // Four planes per rank, frozen epochs walked live, boundaries moving
    // on the rebuild steps (9 transfers, each counted on the step its
    // plane lands).
    let mut ring = gas(3, 12, 0.1);
    ring.lattice = Lattice::Cluster { fill: 0.7 };
    ring.skin = 0.06;
    ring.dlb = true;
    // 6³-cell blocks on the 2×2×2 torus: per-cell classes, one exchange
    // per step with seven neighbours, three frames.
    let cube = gas(8, 12, 0.1);
    // 4×4-column tiles on the 3×3 torus, then 3×3 on the 4×4 and back: a
    // balancing run through the resilient terminal — a checkpoint and a
    // sentinel every 5 steps, two drains, two resize barriers, two
    // restores onto another torus, each launched afresh from the drained
    // particles on tiles cut through the cluster (36 transfers planned at
    // the three launches), the tiling checked 2, 4, 8, … steps after each
    // generation's launch or re-tile and moved at steps 2, 10, 12, 22 and
    // 30.
    let mut ladder = gas(9, 12, 0.1);
    ladder.lattice = Lattice::Cluster { fill: 0.6 };
    ladder.dlb = true;
    ladder.dlb_min_gain = 0.02;
    ladder.checkpoint_interval = 5;
    ladder.sentinel_interval = 5;
    let rungs = Ladder {
        plan: ResizePlan::new().resize(10, 16).resize(20, 9),
        ..Ladder::default()
    };
    let resized = Launch::new()
        .run_resilient(&ladder, &rungs)
        .expect("no faults");
    assert_eq!((resized.generations.len(), resized.attempts), (3, 3));
    assert_eq!(resized.report.launch_transfers, 36);
    use DomainShape::{Cube, Plane, SquarePillar};
    let got = [
        digest(SquarePillar, &every_step),
        digest(SquarePillar, &verlet),
        digest(SquarePillar, &balancing),
        digest(Plane, &ring),
        digest(Cube, &cube),
        resized.digest,
    ];
    let pinned: [u64; 6] = [
        0x3ed54524f9374ed8,
        0xd0fdea32e6ea6072,
        0x580548b20e24415b,
        0x8f1b6a355a4ca7f7,
        0x3678a94926a68500,
        0x8f71839d8e5e5603,
    ];
    let hex = |digests: [u64; 6]| digests.map(|d| format!("{d:#018x}"));
    assert_eq!(
        hex(got),
        hex(pinned),
        "every step, Verlet, balancing, ring, cube, ladder"
    );
}
