//! Static verification of the extracted communication schedule.
//!
//! Four checks, each of which a seeded-mutation test proves live:
//!
//! - **Tag-table well-formedness** ([`check_tag_table`]): tags unique per
//!   namespace, point-to-point tags disjoint from the collective wire
//!   range, collective tags small enough that round namespacing cannot
//!   alias.
//! - **Tag uniqueness** ([`check_tag_uniqueness`]): within one phase no
//!   `(src, dst)` pair uses the same wire tag twice — two in-flight
//!   messages on the same `(src, dst, tag)` within a phase could only be
//!   told apart by arrival order.
//! - **Send/recv matching** ([`check_matching`]): per phase, the multiset
//!   of posted sends equals the multiset of blocking receives — a missing
//!   send means a receiver blocks forever, an extra send leaks into a
//!   later phase.
//! - **Deadlock freedom** ([`check_deadlock_freedom`]): the blocking-wait
//!   graph (each receive waits on its matching send being reached, which
//!   waits on the sender's preceding receives) is acyclic.

use std::collections::BTreeMap;

use pcdlb_core::protocol::tags::TAG_TABLE;
use pcdlb_core::protocol::DlbProtocol;
use pcdlb_domain::{DomainShape, OwnershipMap, PillarLayout};
use pcdlb_mp::collectives::COLLECTIVE_BIT;
use pcdlb_sim::pe::initial_particles;
use pcdlb_sim::{launch_plan, Lattice, Placed, RunConfig};

use crate::schedule::{shape_schedule, Op, ScheduleOpts, StepSchedule};

/// One verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check fired.
    pub check: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Check the protocol tag table itself (independent of any grid).
pub fn check_tag_table() -> Vec<Violation> {
    check_tags(TAG_TABLE)
}

/// [`check_tag_table`] against an explicit table — lets the seeded
/// mutation tests prove the check catches a colliding tag.
pub fn check_tags(table: &[pcdlb_core::protocol::tags::TagSpec]) -> Vec<Violation> {
    let mut out = Vec::new();
    for collective in [false, true] {
        let mut seen: BTreeMap<u64, &str> = BTreeMap::new();
        for spec in table.iter().filter(|s| s.collective == collective) {
            if let Some(prev) = seen.insert(spec.tag, spec.name) {
                out.push(Violation {
                    check: "tag-table",
                    detail: format!(
                        "tag {} used by both {prev} and {} (collective={collective})",
                        spec.tag, spec.name
                    ),
                });
            }
        }
    }
    for spec in table {
        if !spec.collective && spec.tag & COLLECTIVE_BIT != 0 {
            out.push(Violation {
                check: "tag-table",
                detail: format!(
                    "point-to-point tag {} ({}) intrudes into the collective namespace",
                    spec.tag, spec.name
                ),
            });
        }
        // Collective wire tags are `BIT | tag<<8 | round`; the tag must
        // survive the shift and leave the round byte clear, or two
        // different (tag, round) pairs could alias on the wire.
        if spec.collective && (spec.tag << 8) >> 8 != spec.tag {
            out.push(Violation {
                check: "tag-table",
                detail: format!(
                    "collective tag {} ({}) overflows namespacing",
                    spec.tag, spec.name
                ),
            });
        }
    }
    out
}

/// Within each phase, no `(src, dst)` pair may use the same wire tag for
/// two sends (or two receives).
pub fn check_tag_uniqueness(s: &StepSchedule) -> Vec<Violation> {
    let mut out = Vec::new();
    // (phase, src, dst, tag, is_send) → count
    let mut counts: BTreeMap<(u8, usize, usize, u64, bool), usize> = BTreeMap::new();
    for (r, ops) in s.ranks.iter().enumerate() {
        for po in ops {
            let key = match po.op {
                Op::Send { to, tag } => (po.phase as u8, r, to, tag, true),
                Op::Recv { from, tag } => (po.phase as u8, from, r, tag, false),
            };
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    for ((phase, src, dst, tag, is_send), n) in counts {
        if n > 1 {
            out.push(Violation {
                check: "tag-uniqueness",
                detail: format!(
                    "{} {n} messages on (src {src}, dst {dst}, tag {tag}) within phase #{phase}",
                    if is_send { "sends" } else { "recvs" },
                ),
            });
        }
    }
    out
}

/// Per phase, the multiset of sends must equal the multiset of receives.
pub fn check_matching(s: &StepSchedule) -> Vec<Violation> {
    let mut out = Vec::new();
    // (phase, src, dst, tag) → (sends, recvs)
    let mut counts: BTreeMap<(u8, usize, usize, u64), (isize, isize)> = BTreeMap::new();
    for (r, ops) in s.ranks.iter().enumerate() {
        for po in ops {
            match po.op {
                Op::Send { to, tag } => {
                    counts
                        .entry((po.phase as u8, r, to, tag))
                        .or_insert((0, 0))
                        .0 += 1;
                }
                Op::Recv { from, tag } => {
                    counts
                        .entry((po.phase as u8, from, r, tag))
                        .or_insert((0, 0))
                        .1 += 1;
                }
            }
        }
    }
    for ((phase, src, dst, tag), (sends, recvs)) in counts {
        if sends != recvs {
            out.push(Violation {
                check: "matching",
                detail: format!(
                    "phase #{phase}, (src {src}, dst {dst}, tag {tag}): {sends} send(s) vs {recvs} recv(s)",
                ),
            });
        }
    }
    out
}

/// Detect blocking cycles: match the k-th send on each `(src, dst, tag)`
/// stream with the k-th receive (FIFO delivery), then check that the
/// dependency graph over receives is acyclic. A receive depends on the
/// receive preceding it on its own rank (program order) and on the last
/// receive its matching sender performs before the send (the sender must
/// get that far to post the send).
pub fn check_deadlock_freedom(s: &StepSchedule) -> Vec<Violation> {
    let mut out = Vec::new();
    // FIFO queues per (src, dst, tag).
    let mut sends: BTreeMap<(usize, usize, u64), Vec<usize>> = BTreeMap::new();
    let mut recvs: BTreeMap<(usize, usize, u64), Vec<usize>> = BTreeMap::new();
    for (r, ops) in s.ranks.iter().enumerate() {
        for (i, po) in ops.iter().enumerate() {
            match po.op {
                Op::Send { to, tag } => sends.entry((r, to, tag)).or_default().push(i),
                Op::Recv { from, tag } => recvs.entry((from, r, tag)).or_default().push(i),
            }
        }
    }
    // Last receive at or before each op index, per rank (for fast "the
    // sender's preceding receive" lookups).
    let prev_recv: Vec<Vec<Option<usize>>> = s
        .ranks
        .iter()
        .map(|ops| {
            let mut last = None;
            let mut v = Vec::with_capacity(ops.len());
            for (i, po) in ops.iter().enumerate() {
                v.push(last);
                if matches!(po.op, Op::Recv { .. }) {
                    last = Some(i);
                }
            }
            v
        })
        .collect();
    // Dependency edges between receive nodes (rank, op index).
    let mut deps: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
    for (&(src, dst, tag), rq) in &recvs {
        let sq = sends
            .get(&(src, dst, tag))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        for (k, &ri) in rq.iter().enumerate() {
            let node = (dst, ri);
            let entry = deps.entry(node).or_default();
            if let Some(p) = prev_recv[dst][ri] {
                entry.push((dst, p));
            }
            match sq.get(k) {
                Some(&si) => {
                    if let Some(p) = prev_recv[src][si] {
                        entry.push((src, p));
                    }
                }
                None => out.push(Violation {
                    check: "deadlock",
                    detail: format!(
                        "rank {dst} blocks on recv #{k} from (src {src}, tag {tag}) but only {} send(s) exist",
                        sq.len()
                    ),
                }),
            }
        }
    }
    // Iterative three-colour DFS for a cycle.
    let mut colour: BTreeMap<(usize, usize), u8> = BTreeMap::new();
    let nodes: Vec<(usize, usize)> = deps.keys().copied().collect();
    for &start in &nodes {
        if colour.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<((usize, usize), usize)> = vec![(start, 0)];
        colour.insert(start, 1);
        while let Some(&(node, next)) = stack.last() {
            let succs = deps.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if next < succs.len() {
                let child = succs[next];
                if let Some(top) = stack.last_mut() {
                    top.1 += 1;
                }
                match colour.get(&child).copied().unwrap_or(0) {
                    0 => {
                        colour.insert(child, 1);
                        stack.push((child, 0));
                    }
                    1 => {
                        let cycle: Vec<String> = stack
                            .iter()
                            .map(|&((r, i), _)| format!("rank {r} op {i}"))
                            .collect();
                        out.push(Violation {
                            check: "deadlock",
                            detail: format!(
                                "blocking-wait cycle through {} back to rank {} op {}",
                                cycle.join(" → "),
                                child.0,
                                child.1
                            ),
                        });
                        return out;
                    }
                    _ => {}
                }
            } else {
                colour.insert(node, 2);
                stack.pop();
            }
        }
    }
    out
}

/// All schedule-level checks on one schedule.
pub fn verify_schedule(s: &StepSchedule) -> Vec<Violation> {
    let mut out = check_tag_uniqueness(s);
    out.extend(check_matching(s));
    out.extend(check_deadlock_freedom(s));
    out
}

/// Result of a grid sweep.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Torus sides swept.
    pub sides: Vec<usize>,
    /// Number of `(grid, scenario)` schedules verified.
    pub schedules_checked: usize,
    /// All violations found (empty for a correct protocol).
    pub violations: Vec<Violation>,
}

/// The frames of a re-tile a run could make on a `p`-rank torus: from the
/// paper's tiles, where every column is at home, to the tiles and the
/// ownership a re-tiling launch plans for a clustered start (tiles one
/// column wide included) — the distinct `(old owner, new owner)` pairs.
/// On a torus side of 4 and up some pairs are not neighbours.
pub fn planned_retile(p: usize) -> Vec<(usize, usize)> {
    let mut cfg = RunConfig::from_p_m_density(p, 3, 0.128);
    cfg.dlb = true;
    cfg.lattice = Lattice::Cluster { fill: 0.45 };
    let work = Placed::new(&cfg, &initial_particles(&cfg)).column_work();
    let plan = launch_plan(DomainShape::SquarePillar, &cfg, 0, &work, true);
    let mut planned = OwnershipMap::initial(plan.tiling());
    for d in &plan.decisions {
        DlbProtocol::apply(&mut planned, d);
    }
    let even = PillarLayout::new(cfg.nc, cfg.torus());
    let mut pairs: Vec<(usize, usize)> = even
        .grid()
        .iter()
        .map(|col| (even.home_rank(col), planned.owner_of(col)))
        .filter(|(from, to)| from != to)
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The scenarios swept on one grid: the base schedule and the full one —
/// with the DLB phases on where the shape balances (a torus side of 3 up,
/// a ring of 2 up; what the balancer decides adds no operation) — and, on
/// a balancing square pillar, a re-tiling run's check steps: one that
/// keeps its tiling, one that re-tiles as a clustered start's launch
/// would, one whose every rank sends every other one a frame.
fn scenarios(shape: DomainShape, p: usize) -> Vec<ScheduleOpts> {
    let dlb = match shape {
        DomainShape::SquarePillar => p >= 9,
        DomainShape::Plane => p >= 2,
        DomainShape::Cube => false,
    };
    let mut out = vec![
        ScheduleOpts::default(),
        ScheduleOpts {
            dlb,
            ..ScheduleOpts::full()
        },
    ];
    if dlb && shape == DomainShape::SquarePillar {
        let every_pair = (0..p).flat_map(|a| (0..p).filter(move |&b| b != a).map(move |b| (a, b)));
        for retile in [Vec::new(), planned_retile(p), every_pair.collect()] {
            out.push(ScheduleOpts {
                retile_check: true,
                retile,
                ..ScheduleOpts::full()
            });
        }
    }
    out
}

/// Verify the protocol on every grid up to `max_side`: square tori of
/// side `2..=max_side` (pillar), rings of `1..=max_side` ranks (plane)
/// and block grids of side `2..=min(max_side, 3)` (cube) — all on the one
/// tag table, each over its scenarios.
pub fn verify_protocol(max_side: usize) -> VerifyReport {
    let max_side = max_side.max(2);
    let mut report = VerifyReport {
        sides: (2..=max_side).collect(),
        schedules_checked: 0,
        violations: check_tag_table(),
    };
    let grids = (2..=max_side)
        .map(|side| (DomainShape::SquarePillar, side * side))
        .chain((1..=max_side).map(|p| (DomainShape::Plane, p)))
        .chain((2..=max_side.min(3)).map(|k| (DomainShape::Cube, k * k * k)));
    for (shape, p) in grids {
        for opts in &scenarios(shape, p) {
            let s = shape_schedule(shape, p, opts);
            for v in verify_schedule(&s) {
                report.violations.push(Violation {
                    check: v.check,
                    detail: format!(
                        "{} P = {p}, re-tile {:?}: {}",
                        shape.name(),
                        opts.retile,
                        v.detail
                    ),
                });
            }
            report.schedules_checked += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{step_schedule, PhasedOp};
    use pcdlb_core::protocol::tags::{self, CommPhase};
    use pcdlb_mp::Torus2d;

    #[test]
    fn clean_protocol_verifies_on_all_grids() {
        let report = verify_protocol(5);
        assert!(
            report.violations.is_empty(),
            "expected a clean protocol, got: {:#?}",
            report.violations
        );
        // Two schedules per grid — pillar sides 2–5, rings of 1–5, block
        // grids of side 2 and 3 — and three re-tile check steps on each
        // balancing pillar (sides 3–5).
        assert_eq!(report.schedules_checked, 2 * (4 + 5 + 2) + 3 * 3);
    }

    #[test]
    fn tag_table_check_is_clean() {
        assert!(check_tag_table().is_empty());
    }

    #[test]
    fn hand_built_deadlock_cycle_is_detected() {
        // rank 0: recv(1, t=2) then send(1, t=1)
        // rank 1: recv(0, t=1) then send(0, t=2)
        // Each waits for a send the other only posts after its own recv.
        let mk = |op| PhasedOp {
            phase: CommPhase::Migrate,
            op,
        };
        let s = StepSchedule {
            p: 2,
            ranks: vec![
                vec![
                    mk(Op::Recv { from: 1, tag: 2 }),
                    mk(Op::Send { to: 1, tag: 1 }),
                ],
                vec![
                    mk(Op::Recv { from: 0, tag: 1 }),
                    mk(Op::Send { to: 0, tag: 2 }),
                ],
            ],
        };
        let vs = check_deadlock_freedom(&s);
        assert!(
            vs.iter()
                .any(|v| v.check == "deadlock" && v.detail.contains("cycle")),
            "cycle not found: {vs:?}"
        );
        // Matching itself is fine — only the order deadlocks.
        assert!(check_matching(&s).is_empty());
    }

    #[test]
    fn sends_first_ordering_is_deadlock_free() {
        let mk = |op| PhasedOp {
            phase: CommPhase::Migrate,
            op,
        };
        let s = StepSchedule {
            p: 2,
            ranks: vec![
                vec![
                    mk(Op::Send { to: 1, tag: 1 }),
                    mk(Op::Recv { from: 1, tag: 2 }),
                ],
                vec![
                    mk(Op::Send { to: 0, tag: 2 }),
                    mk(Op::Recv { from: 0, tag: 1 }),
                ],
            ],
        };
        assert!(verify_schedule(&s).is_empty());
    }

    #[test]
    fn ghost_phase_reuses_neighbourhood_shape() {
        let s = step_schedule(4, &ScheduleOpts::full());
        let ghosts = s.ranks[5]
            .iter()
            .filter(|o| o.phase == CommPhase::Ghost)
            .count();
        assert_eq!(ghosts, 8, "4 sends + 4 recvs on a 4×4 torus");
        assert!(verify_schedule(&s).is_empty());
        // Collective rounds stay inside the namespaced range — the re-tile
        // check's too.
        let s = step_schedule(
            4,
            &ScheduleOpts {
                retile_check: true,
                retile: planned_retile(16),
                ..ScheduleOpts::full()
            },
        );
        assert!(verify_schedule(&s).is_empty());
        for ops in &s.ranks {
            for po in ops {
                let (Op::Send { tag, .. } | Op::Recv { tag, .. }) = po.op;
                let collective = [CommPhase::RetileCheck, CommPhase::Thermostat]
                    .contains(&po.phase)
                    || po.phase > CommPhase::Thermostat;
                if collective {
                    assert!(tag & pcdlb_mp::collectives::COLLECTIVE_BIT != 0);
                } else {
                    assert!(tag & pcdlb_mp::collectives::COLLECTIVE_BIT == 0);
                    assert!(tags::TAG_TABLE
                        .iter()
                        .any(|t| t.tag == tag && !t.collective));
                }
            }
        }
    }

    #[test]
    fn a_re_tile_frame_may_cross_the_torus() {
        // On 4 × 4 a clustered start's re-tile hands columns between ranks
        // two tile rows or columns apart; the step still verifies, with
        // the frames sent before any is received.
        let torus = Torus2d::new(4, 4);
        let pairs = planned_retile(16);
        let far: Vec<_> = pairs
            .iter()
            .filter(|&&(a, b)| !torus.distinct_neighbors8(a).contains(&b))
            .collect();
        assert!(!far.is_empty(), "{pairs:?}");
        let opts = ScheduleOpts {
            retile_check: true,
            retile: pairs,
            ..ScheduleOpts::full()
        };
        assert!(verify_schedule(&step_schedule(4, &opts)).is_empty());
    }
}
