//! Extraction of the per-step SPMD send/recv schedule.
//!
//! The simulator's step (`pcdlb-sim`'s one engine, for every domain
//! shape) has a fixed communication structure per phase: a neighbourhood
//! exchange staged along the axes of the rank torus — per stage, x then
//! y then z, a send to each distinct rank one step away along the axis
//! (one at a side of 2, two from 3: −1, then +1), then the matching
//! receives in the same order, a rank relaying in its later stages what
//! the earlier ones brought; collectives are gathers and binomial-tree
//! broadcasts over namespaced tags. This module reads that structure off
//! the engine itself — every rank of a particle-free world launched as the
//! simulator launches one, its hops stage by stage ([`PeState::stages`])
//! and whether a step has two neighbourhood exchanges or one
//! ([`PeState::exchanges_once`]) — and off [`tags::TAG_TABLE`], so the
//! verifier and the simulator agree on the wire protocol by construction,
//! not by transcription.
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
use pcdlb_sim::engine::Start;
use pcdlb_sim::pe::PeState;
use pcdlb_sim::{LaunchPlan, Placed, RunConfig};

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
    /// ([`PeState::exchanges_once`]).
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

/// Every rank of `p` laid out for `shape`, launched by the engine on a
/// world with no particles and two cells per rank and axis of the rank
/// torus, balancing or not: only ownership is asked about, no physics. On
/// that grid every world that can exchange once does (a grid one cell per
/// rank wide says no from a torus side of 4 up and runs the two-round
/// step: the balancing schedule).
fn engine_ranks(shape: DomainShape, p: usize, dlb: bool) -> Vec<PeState> {
    let side = match shape {
        DomainShape::SquarePillar => Torus2d::square(p).cols(),
        DomainShape::Plane => p,
        DomainShape::Cube => (p as f64).cbrt().round() as usize,
    };
    let mut cfg = RunConfig::new(0, 2 * side, p, 1.0);
    cfg.dlb = dlb;
    let placed = Placed::new(&cfg, &[]);
    let plan = LaunchPlan::unplanned(shape, &cfg, &placed.column_work());
    let start = Start::fresh(shape, &cfg, &placed, &plan);
    (0..p).map(|r| PeState::new(r, &cfg, &start)).collect()
}

/// Build the per-step schedule of `p` ranks decomposed as `shape`: the
/// same phases for every shape, over that shape's neighbour sets.
pub fn shape_schedule(shape: DomainShape, p: usize, opts: &ScheduleOpts) -> StepSchedule {
    let retiles = opts.retile_check || !opts.retile.is_empty();
    assert!(
        !retiles || (shape == DomainShape::SquarePillar && opts.dlb && opts.retile_check),
        "only a balancing square pillar checks, and it re-tiles on a check step"
    );
    let pes = engine_ranks(shape, p, opts.dlb);
    // A step that re-tiles has two rounds, whatever the others have.
    let single = pes[0].exchanges_once() && opts.retile.is_empty();
    let mut moves = opts.retile.clone();
    moves.sort_unstable();
    let mut ranks = Vec::with_capacity(p);
    for (r, pe) in pes.iter().enumerate() {
        let mut ops: Vec<PhasedOp> = Vec::new();
        let stages = pe.stages();
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

    fn sends_in(ops: &[PhasedOp], phase: CommPhase) -> Vec<Op> {
        ops.iter()
            .filter(|o| o.phase == phase && matches!(o.op, Op::Send { .. }))
            .map(|o| o.op)
            .collect()
    }

    /// Where rank `r`'s frames go, in order, in a step of `p` ranks laid
    /// out for `shape` that does not balance.
    fn hops(shape: DomainShape, p: usize, r: usize) -> Vec<usize> {
        let s = shape_schedule(shape, p, &ScheduleOpts::default());
        let to = |op: &Op| match *op {
            Op::Send { to, .. } => to,
            Op::Recv { .. } => unreachable!("sends_in keeps sends"),
        };
        sends_in(&s.ranks[r], CommPhase::Ghost)
            .iter()
            .map(to)
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
        // The frames go to the distinct ranks one step away along each
        // axis, x first (the rank number counts x fastest), −1 before +1:
        // 1 on the ring of 2, 2 on longer rings, 2 on the 2 × 2 torus, 4
        // on larger ones, 3 on the 2 × 2 × 2 cube, 6 on larger ones.
        assert_eq!(hops(DomainShape::Plane, 5, 0), [4, 1]);
        assert_eq!(hops(DomainShape::Plane, 2, 1), [0]);
        assert!(hops(DomainShape::Plane, 1, 0).is_empty());
        assert_eq!(hops(DomainShape::Cube, 8, 3), [2, 1, 7]);
        assert_eq!(hops(DomainShape::Cube, 27, 13), [12, 14, 10, 16, 4, 22]);
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
            let s = shape_schedule(shape, p, &ScheduleOpts::default());
            for ops in &s.ranks {
                assert_eq!(sends_in(ops, CommPhase::Migrate).len(), 0);
                assert_eq!(sends_in(ops, CommPhase::Ghost).len(), frames);
            }
        }
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
