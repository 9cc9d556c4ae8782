//! Extraction of the per-step SPMD send/recv schedule.
//!
//! The simulator's step (`pcdlb-sim`'s one engine, for every domain
//! shape) has a fixed communication structure per phase: a neighbourhood
//! exchange staged along the axes of the rank torus — per stage, x then
//! y then z, a send to each distinct rank one step away along the axis
//! (one at a side of 2, two from 3: −1, then +1), then the matching
//! receives in the same order, a rank relaying in its later stages what
//! the earlier ones brought; collectives are gathers and binomial-tree
//! broadcasts over namespaced tags. This module re-derives that structure
//! from the torus each shape lays its ranks out on — [`Torus2d`] for the
//! square pillar, the ring for the plane, a `k × k × k` torus numbered x
//! fastest for the cube ([`shape_stages`]) — and from
//! [`tags::TAG_TABLE`], so the verifier and the simulator agree on the
//! wire protocol by construction, not by transcription. Whether a step
//! has two neighbourhood exchanges or one is the engine's own answer
//! ([`exchanges_once`]).
//!
//! A balancing step has no exchange of its own, and nothing in it depends
//! on what the balancer decides: loads and decisions ride the step's first
//! frames, and a moved column's particles the giver's first frames of the
//! next rebuild step. A re-tiling run adds two parts on its check steps:
//! the check itself (a gather of the work map to rank 0 and a broadcast of
//! the decision) ahead of round 1, and, where it re-tiles, the move
//! (`RETILE_XFER`, one frame per (old owner, new owner) pair, any two
//! ranks) after round 1 — the move's pairs parameterise the schedule, and
//! the verifier sweeps representative ones. A check step keeps the two
//! rounds wherever a step has them; on the 3 × 3 torus a step that
//! re-tiles has them, one that keeps its tiling sends its one frame.
//!
//! The step is the whole protocol: a launch sends nothing — no initial
//! ghost exchange, no load announcement, on a fresh start, a relaunch or
//! a resized generation (every rank adopts its ghost cells from the
//! launch's placement and its neighbours' loads from the launch plan or
//! the checkpoint) — so there are no launch stages to model, and a run
//! is its steps' schedules back to back.

use pcdlb_core::protocol::tags::{self, CommPhase};
use pcdlb_domain::DomainShape;
use pcdlb_mp::collectives::ctag;
use pcdlb_mp::Torus2d;
use pcdlb_sim::RunConfig;

/// One point-to-point operation of the schedule. Tags are *wire* tags:
/// collective rounds already carry their namespaced
/// [`ctag`] value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A non-blocking send to `to`.
    Send {
        /// Destination rank.
        to: usize,
        /// Wire tag.
        tag: u64,
    },
    /// A blocking receive from `from`.
    Recv {
        /// Source rank.
        from: usize,
        /// Wire tag.
        tag: u64,
    },
}

/// An [`Op`] annotated with the phase it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhasedOp {
    /// The step phase.
    pub phase: CommPhase,
    /// The operation.
    pub op: Op,
}

/// The full per-step schedule: for each rank, its program-ordered
/// operation sequence.
#[derive(Debug, Clone)]
pub struct StepSchedule {
    /// Number of ranks.
    pub p: usize,
    /// `ranks[r]` is rank `r`'s operation sequence in program order.
    pub ranks: Vec<Vec<PhasedOp>>,
}

/// Which optional parts of the step to include, and the re-tile to
/// instantiate.
#[derive(Debug, Clone, Default)]
pub struct ScheduleOpts {
    /// The run balances (`cfg.dlb` on a shape with a balancer): rebuild
    /// steps keep two rounds where the engine says so
    /// ([`exchanges_once`]).
    pub dlb: bool,
    /// The step checks the tiling (a re-tiling run's check step): the
    /// work-map gather and the decision broadcast ahead of round 1.
    pub retile_check: bool,
    /// The step re-tiles: the distinct `(old owner, new owner)` pairs of
    /// the columns that move, one frame each, after round 1.
    pub retile: Vec<(usize, usize)>,
    /// Include the thermostat gather + broadcast.
    pub thermostat: bool,
    /// Include the stats gather.
    pub stats: bool,
    /// Include the periodic distributed-checkpoint gather.
    pub checkpoint: bool,
    /// Include the periodic invariant-sentinel gather.
    pub sentinel: bool,
    /// Include the end-of-run snapshot gather.
    pub snapshot: bool,
}

impl ScheduleOpts {
    /// Everything on, no re-tile — the shape of a typical DLB step.
    pub fn full() -> Self {
        Self {
            dlb: true,
            retile_check: false,
            retile: Vec::new(),
            thermostat: true,
            stats: true,
            checkpoint: true,
            sentinel: true,
            snapshot: true,
        }
    }
}

/// Build the square pillar's per-step schedule for a `side × side` torus.
pub fn step_schedule(side: usize, opts: &ScheduleOpts) -> StepSchedule {
    shape_schedule(DomainShape::SquarePillar, side * side, opts)
}

/// Rank `r`'s distinct neighbours (ascending, `r` excluded) when `p`
/// ranks are laid out for `shape` — the ranks the step engine exchanges
/// its step frames with.
pub fn shape_neighbors(shape: DomainShape, p: usize, r: usize) -> Vec<usize> {
    let mut nbrs = match shape {
        DomainShape::SquarePillar => return Torus2d::square(p).distinct_neighbors8(r),
        DomainShape::Plane => vec![(r + p - 1) % p, (r + 1) % p],
        DomainShape::Cube => {
            // Every offset of −1, 0 or +1 per axis, as steps on of
            // `k − 1`, `k` or `k + 1`.
            let sides = torus_sides(shape, p);
            let offset = |d: usize| [d % 3, d / 3 % 3, d / 9].map(|u| u + sides[0] - 1);
            (0..27).map(|d| moved(sides, r, offset(d))).collect()
        }
    };
    nbrs.sort_unstable();
    nbrs.dedup();
    nbrs.retain(|&n| n != r);
    nbrs
}

/// Rank `r`'s hops when `p` ranks are laid out for `shape`, stage by
/// stage — the ranks its staged exchange sends a frame to and receives
/// one from: along each axis of the rank torus (x, then y, then z; the
/// rank number counts x fastest) the ranks one step away, one along a
/// side of 2, two (−1, then +1) along a longer one, none along a side
/// of 1.
pub fn shape_stages(shape: DomainShape, p: usize, r: usize) -> Vec<Vec<usize>> {
    let sides = torus_sides(shape, p);
    (0..3)
        .filter(|&axis| sides[axis] > 1)
        .map(|axis| {
            let dirs: &[usize] = if sides[axis] == 2 {
                &[1]
            } else {
                &[sides[axis] - 1, 1]
            };
            (dirs.iter())
                .map(|&d| {
                    let mut step = [0; 3];
                    step[axis] = d;
                    moved(sides, r, step)
                })
                .collect()
        })
        .collect()
}

/// The sides (x, y, z) of the rank torus `p` ranks are laid out on for
/// `shape`.
fn torus_sides(shape: DomainShape, p: usize) -> [usize; 3] {
    match shape {
        DomainShape::SquarePillar => {
            let t = Torus2d::square(p);
            [t.cols(), t.rows(), 1]
        }
        DomainShape::Plane => [p, 1, 1],
        DomainShape::Cube => [(p as f64).cbrt().round() as usize; 3],
    }
}

/// The rank `step[axis]` steps on from rank `r` along each axis of the
/// torus of `sides`, the rank number counting x fastest (`side − 1` steps
/// on is one back).
fn moved(sides: [usize; 3], r: usize, step: [usize; 3]) -> usize {
    let at = [
        r % sides[0],
        r / sides[0] % sides[1],
        r / (sides[0] * sides[1]),
    ];
    let c = |axis: usize| (at[axis] + step[axis]) % sides[axis];
    (c(2) * sides[1] + c(1)) * sides[0] + c(0)
}

/// Whether the step engine sends migrants and ghosts in one exchange
/// when `p` ranks are laid out for `shape` and the run does
/// (not) balance — its own predicate
/// ([`pcdlb_sim::pe::PeState::exchanges_once`]: the
/// neighbour set closed two cells out, on the one ownership of a run
/// that does not balance, on every ownership the balancer can reach of
/// one that does), as a launch asks it ([`pcdlb_sim::pe::exchanges_once`]:
/// once per world, of rank 0 — every rank agrees) on a grid with two
/// cells per rank and axis, where every grid that can say yes does. (A
/// grid one cell per rank wide says no from a torus side of 4 up and runs
/// the two-round step: the balancing schedule.)
pub fn exchanges_once(shape: DomainShape, p: usize, dlb: bool) -> bool {
    // Only ownership is asked about: no particles, no physics.
    let mut cfg = RunConfig::new(0, 2 * torus_sides(shape, p)[0], p, 1.0);
    cfg.dlb = dlb;
    pcdlb_sim::pe::exchanges_once(shape, &cfg)
}

/// Build the per-step schedule of `p` ranks decomposed as `shape`: the
/// same phases for every shape, over that shape's neighbour sets.
pub fn shape_schedule(shape: DomainShape, p: usize, opts: &ScheduleOpts) -> StepSchedule {
    let retiles = opts.retile_check || !opts.retile.is_empty();
    assert!(
        !retiles || (shape == DomainShape::SquarePillar && opts.dlb && opts.retile_check),
        "only a balancing square pillar checks, and it re-tiles on a check step"
    );
    // A step that re-tiles has two rounds, whatever the others have.
    let single = exchanges_once(shape, p, opts.dlb) && opts.retile.is_empty();
    let mut moves = opts.retile.clone();
    moves.sort_unstable();
    let mut ranks = Vec::with_capacity(p);
    for r in 0..p {
        let mut ops: Vec<PhasedOp> = Vec::new();
        let stages = shape_stages(shape, p, r);
        // Phase: the re-tile check — the work map gathered to rank 0, its
        // decision broadcast back.
        if opts.retile_check {
            gather_ops(&mut ops, CommPhase::RetileCheck, p, r, tags::RETILE_GATHER);
            bcast_ops(&mut ops, CommPhase::RetileCheck, p, r, tags::RETILE_BCAST);
        }
        // Phase: migration — round 1 of the step frames (migrants + the
        // balancer's loads and decisions), staged. Per-(src, dst, tag)
        // FIFO keeps round 1 and round 2 of the shared STEP_FRAME tag
        // matched. A single-exchange step has no round 1: its migrants
        // ride the ghost frames below.
        if !single {
            neighbourhood_exchange(&mut ops, CommPhase::Migrate, &stages, tags::STEP_FRAME);
        }
        // Phase: the re-tile move — a frame to every new owner (ascending),
        // then one from every old owner (ascending).
        let retile = |op: Op| PhasedOp {
            phase: CommPhase::Retile,
            op,
        };
        let tag = tags::RETILE_XFER;
        ops.extend(
            (moves.iter().filter(|m| m.0 == r)).map(|&(_, to)| retile(Op::Send { to, tag })),
        );
        let mut senders: Vec<usize> = moves.iter().filter(|m| m.1 == r).map(|m| m.0).collect();
        senders.sort_unstable();
        ops.extend(
            senders
                .into_iter()
                .map(|from| retile(Op::Recv { from, tag })),
        );
        // Phase: ghosts — round 2 of the step frames, or the one exchange
        // of a single-exchange step.
        neighbourhood_exchange(&mut ops, CommPhase::Ghost, &stages, tags::STEP_FRAME);
        if opts.thermostat {
            gather_ops(&mut ops, CommPhase::Thermostat, p, r, tags::KE_GATHER);
            bcast_ops(&mut ops, CommPhase::Thermostat, p, r, tags::KE_BCAST);
        }
        if opts.stats {
            gather_ops(&mut ops, CommPhase::Stats, p, r, tags::STATS);
        }
        if opts.checkpoint {
            gather_ops(&mut ops, CommPhase::Checkpoint, p, r, tags::CKPT_GATHER);
        }
        if opts.sentinel {
            gather_ops(&mut ops, CommPhase::Sentinel, p, r, tags::SENTINEL);
        }
        if opts.snapshot {
            gather_ops(&mut ops, CommPhase::Snapshot, p, r, tags::SNAPSHOT);
        }
        ranks.push(ops);
    }
    StepSchedule { p, ranks }
}

/// The simulator's staged neighbourhood exchange: per stage, one frame
/// to every rank of the stage, then one from each in the same order —
/// the stage's frames go out only once the stage before is in.
fn neighbourhood_exchange(
    ops: &mut Vec<PhasedOp>,
    phase: CommPhase,
    stages: &[Vec<usize>],
    tag: u64,
) {
    for stage in stages {
        for &to in stage {
            ops.push(PhasedOp {
                phase,
                op: Op::Send { to, tag },
            });
        }
        for &from in stage {
            ops.push(PhasedOp {
                phase,
                op: Op::Recv { from, tag },
            });
        }
    }
}

/// Rank `rank`'s operations in `collectives::gather` over `p` ranks:
/// rank 0 receives from 1..p in order; everyone else sends to 0. Wire
/// tags follow the collective namespacing rule.
pub fn gather_ops(ops: &mut Vec<PhasedOp>, phase: CommPhase, p: usize, rank: usize, tag: u64) {
    if rank == 0 {
        for src in 1..p {
            ops.push(PhasedOp {
                phase,
                op: Op::Recv {
                    from: src,
                    tag: ctag(tag, 0),
                },
            });
        }
    } else {
        ops.push(PhasedOp {
            phase,
            op: Op::Send {
                to: 0,
                tag: ctag(tag, 0),
            },
        });
    }
}

/// Rank `rank`'s operations in `collectives::bcast` from rank 0 over `p`
/// ranks: the binomial tree, descending step, round = step.
pub fn bcast_ops(ops: &mut Vec<PhasedOp>, phase: CommPhase, p: usize, rank: usize, tag: u64) {
    let mut top = 1usize;
    while top < p {
        top <<= 1;
    }
    let mut step = top >> 1;
    while step >= 1 {
        if rank.is_multiple_of(2 * step) {
            let dst = rank + step;
            if dst < p {
                ops.push(PhasedOp {
                    phase,
                    op: Op::Send {
                        to: dst,
                        tag: ctag(tag, step as u64),
                    },
                });
            }
        } else if rank % (2 * step) == step {
            ops.push(PhasedOp {
                phase,
                op: Op::Recv {
                    from: rank - step,
                    tag: ctag(tag, step as u64),
                },
            });
        }
        step >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcdlb_sim::{engine::Start, pe::PeState, LaunchPlan, Placed};

    fn sends_in(ops: &[PhasedOp], phase: CommPhase) -> Vec<Op> {
        ops.iter()
            .filter(|o| o.phase == phase && matches!(o.op, Op::Send { .. }))
            .map(|o| o.op)
            .collect()
    }

    /// A balancing run's step: two rounds, nothing else.
    fn balancing() -> ScheduleOpts {
        ScheduleOpts {
            dlb: true,
            ..Default::default()
        }
    }

    #[test]
    fn migrate_phase_is_one_message_per_hop() {
        // A 4 × 4 torus: two hops along x, then two along y, every stage's
        // frames out before its frames in.
        let s = step_schedule(4, &balancing());
        assert_eq!(s.p, 16);
        let torus = Torus2d::new(4, 4);
        for (r, ops) in s.ranks.iter().enumerate() {
            let sends = sends_in(ops, CommPhase::Migrate);
            let hops = [(0, -1), (0, 1), (-1, 0), (1, 0)].map(|(di, dj)| torus.neighbor(r, di, dj));
            let to: Vec<usize> = sends
                .iter()
                .map(|op| match op {
                    Op::Send { to, tag } if *tag == tags::STEP_FRAME => *to,
                    other => panic!("{other:?}"),
                })
                .collect();
            assert_eq!(to, hops, "rank {r}");
            let migrate: Vec<Op> = (ops.iter().filter(|o| o.phase == CommPhase::Migrate))
                .map(|o| o.op)
                .collect();
            assert!(
                matches!(migrate[2], Op::Recv { .. }),
                "x's frames in before y's out"
            );
            assert!(matches!(migrate[4], Op::Send { .. }));
        }
    }

    #[test]
    fn small_torus_dedups_neighbours() {
        // On 2×2 every rank has 3 distinct neighbours, one hop along each
        // axis — and, too small a torus to balance, sends its one
        // exchange per step: 2 frames.
        let s = step_schedule(2, &ScheduleOpts::default());
        for ops in &s.ranks {
            assert_eq!(sends_in(ops, CommPhase::Migrate).len(), 0);
            assert_eq!(sends_in(ops, CommPhase::Ghost).len(), 2);
        }
    }

    #[test]
    fn ring_and_block_grids_exchange_along_their_axes() {
        // The ring's two neighbours coincide at P = 2; on the 2×2×2
        // torus all 26 directions lead to the same 7 ranks, and from
        // k = 3 up they are 26 different ones. The frames go to the
        // distinct ranks one step away along each axis: 1 on the ring of
        // 2, 2 on longer rings, 2 on the 2 × 2 torus, 4 on larger ones, 3
        // on the 2 × 2 × 2 cube, 6 on larger ones.
        assert_eq!(shape_neighbors(DomainShape::Plane, 5, 0), [1, 4]);
        assert_eq!(shape_neighbors(DomainShape::Plane, 2, 1), [0]);
        assert!(shape_neighbors(DomainShape::Plane, 1, 0).is_empty());
        assert_eq!(shape_neighbors(DomainShape::Cube, 8, 3).len(), 7);
        assert_eq!(shape_neighbors(DomainShape::Cube, 27, 13).len(), 26);
        assert_eq!(shape_stages(DomainShape::Plane, 5, 0), [vec![4, 1]]);
        assert_eq!(shape_stages(DomainShape::Plane, 2, 1), [vec![0]]);
        assert!(shape_stages(DomainShape::Plane, 1, 0).is_empty());
        assert_eq!(shape_stages(DomainShape::Cube, 8, 3), [[2], [1], [7]]);
        assert_eq!(
            shape_stages(DomainShape::Cube, 27, 13),
            [[12, 14], [10, 16], [4, 22]]
        );
        // The cube has no balancer: one exchange per step on both grids
        // `verify` sweeps. The plane and the pillar from a torus side of 4
        // keep their two rounds where the run balances, and only there;
        // the 3 × 3 torus, where every rank a column can reach neighbours
        // every rank that can hold it, sends one exchange whether it
        // balances or not — a re-tile two rounds.
        for (shape, p, frames) in [
            (DomainShape::Cube, 8, 3),
            (DomainShape::Cube, 27, 6),
            (DomainShape::SquarePillar, 9, 4),
            (DomainShape::SquarePillar, 16, 4),
            (DomainShape::Plane, 3, 2),
        ] {
            assert!(exchanges_once(shape, p, false));
            let s = shape_schedule(shape, p, &ScheduleOpts::default());
            for ops in &s.ranks {
                assert_eq!(sends_in(ops, CommPhase::Migrate).len(), 0);
                assert_eq!(sends_in(ops, CommPhase::Ghost).len(), frames);
            }
        }
        assert!(exchanges_once(DomainShape::SquarePillar, 9, true));
        assert!(!exchanges_once(DomainShape::SquarePillar, 16, true));
        assert!(!exchanges_once(DomainShape::Plane, 3, true));
        let s = shape_schedule(DomainShape::Plane, 3, &balancing());
        for ops in &s.ranks {
            assert_eq!(sends_in(ops, CommPhase::Migrate).len(), 2);
            assert_eq!(sends_in(ops, CommPhase::Ghost).len(), 2);
        }
        let retiling = ScheduleOpts {
            retile_check: true,
            retile: vec![(0, 4)],
            ..balancing()
        };
        for (opts, rounds) in [(balancing(), 1), (retiling, 2)] {
            let s = step_schedule(3, &opts);
            for ops in &s.ranks {
                assert_eq!(sends_in(ops, CommPhase::Migrate).len(), 4 * (rounds - 1));
                assert_eq!(sends_in(ops, CommPhase::Ghost).len(), 4);
            }
        }
    }

    #[test]
    fn neighbour_sets_and_stages_are_the_ones_the_engine_derives() {
        // The engine finds its neighbours from `owner_of` adjacency and
        // its hops from the decomposition's rank torus; the schedules here
        // use ring / torus arithmetic. Pin the two together for every rank
        // of every shape, so the verified schedules are the engine's.
        use pcdlb_sim::pe::initial_particles;
        for (shape, p) in [
            (DomainShape::SquarePillar, 4),
            (DomainShape::SquarePillar, 9),
            (DomainShape::SquarePillar, 16),
            (DomainShape::Plane, 2),
            (DomainShape::Plane, 3),
            (DomainShape::Plane, 6),
            (DomainShape::Cube, 8),
            (DomainShape::Cube, 27),
        ] {
            let mut cfg = RunConfig::new(216, 12, p, 0.005);
            cfg.dlb = false;
            let initial = Placed::new(&cfg, &initial_particles(&cfg));
            let unplanned = LaunchPlan::unplanned(shape, &cfg, &initial.column_work());
            let start = Start::fresh(shape, &cfg, &initial, &unplanned);
            for r in 0..p {
                let pe = PeState::new(r, &cfg, &start);
                assert_eq!(
                    pe.neighbors(),
                    shape_neighbors(shape, p, r),
                    "{shape:?} P = {p} rank {r}"
                );
                assert_eq!(
                    pe.stages(),
                    shape_stages(shape, p, r),
                    "{shape:?} P = {p} rank {r}"
                );
            }
        }
    }

    #[test]
    fn bcast_ops_mirror_the_binomial_tree() {
        // p = 5, top = 8: rank 0 sends to 4, 2, 1; rank 3 receives from 2.
        let mut ops = Vec::new();
        bcast_ops(&mut ops, CommPhase::Thermostat, 5, 0, tags::KE_BCAST);
        let dsts: Vec<usize> = ops
            .iter()
            .map(|o| match o.op {
                Op::Send { to, .. } => to,
                _ => panic!("root only sends"),
            })
            .collect();
        assert_eq!(dsts, vec![4, 2, 1]);
        let mut r3 = Vec::new();
        bcast_ops(&mut r3, CommPhase::Thermostat, 5, 3, tags::KE_BCAST);
        assert_eq!(
            r3,
            vec![PhasedOp {
                phase: CommPhase::Thermostat,
                op: Op::Recv {
                    from: 2,
                    tag: ctag(tags::KE_BCAST, 1)
                }
            }]
        );
    }
}
