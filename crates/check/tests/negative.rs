//! Seeded-mutation tests: each verifier layer must catch a deliberately
//! introduced protocol bug. A verifier that passes a clean tree proves
//! nothing unless these fail loudly.

use pcdlb_check::invariant::{
    check_pillar_plan, check_plane_plan, check_state, cut_sets, search_layout, transfers_from,
    validate_decision, DlbDecision,
};
use pcdlb_check::schedule::{step_schedule, Op, ScheduleOpts};
use pcdlb_check::sweep::{hold, reference, run, table, Kills, Outcome, Scenario};
use pcdlb_check::verify::{
    check_deadlock_freedom, check_matching, check_tag_uniqueness, check_tags, planned_retile,
    verify_schedule,
};
use pcdlb_core::permanent::is_permanent;
use pcdlb_core::protocol::tags::{self, CommPhase, TagSpec};
use pcdlb_core::protocol::ProtocolError;
use pcdlb_domain::{Col, DomainShape, OwnershipMap, PillarLayout};
use pcdlb_mp::FaultPlan;
use pcdlb_sim::pe::initial_particles;
use pcdlb_sim::{launch_plan, launch_plan_on, Lattice, Placed, RunConfig};

#[test]
fn tag_collision_in_table_is_caught() {
    // Mutation: STATS reuses KE_GATHER's tag in the collective namespace.
    let mutated: Vec<TagSpec> = tags::TAG_TABLE
        .iter()
        .map(|s| {
            let mut s = *s;
            if s.name == "STATS" {
                s.tag = tags::KE_GATHER;
            }
            s
        })
        .collect();
    let vs = check_tags(&mutated);
    assert!(
        vs.iter()
            .any(|v| v.check == "tag-table" && v.detail.contains("KE_GATHER")),
        "collision not reported: {vs:?}"
    );
    // And a p2p tag wandering into the collective wire range is caught.
    let mut bad = tags::TAG_TABLE.to_vec();
    bad[0].tag |= pcdlb_mp::collectives::COLLECTIVE_BIT;
    assert!(check_tags(&bad)
        .iter()
        .any(|v| v.detail.contains("collective namespace")));
}

#[test]
fn tag_collision_in_schedule_is_caught() {
    // Mutation: one rank's RETILE_XFER send goes out with the STEP_FRAME
    // tag — a stray third round on that (src, dst) stream plus a
    // matching failure on the starved RETILE_XFER receive. (The 4 × 4
    // torus, re-tiling as a clustered start's launch would.)
    let mut s = step_schedule(
        4,
        &ScheduleOpts {
            dlb: true,
            retile_check: true,
            retile: planned_retile(16),
            ..Default::default()
        },
    );
    let victim = s
        .ranks
        .iter_mut()
        .flatten()
        .find(|po| po.phase == CommPhase::Retile && matches!(po.op, Op::Send { .. }))
        .expect("some rank hands a column over");
    let Op::Send { to, .. } = victim.op else {
        unreachable!()
    };
    victim.op = Op::Send {
        to,
        tag: tags::STEP_FRAME,
    };
    let vs = verify_schedule(&s);
    assert!(
        vs.iter().any(|v| v.check == "matching"),
        "mistagged send must break matching: {vs:?}"
    );

    // Mutation: duplicate a send within its phase — tag uniqueness fires.
    let mut s2 = step_schedule(3, &ScheduleOpts::default());
    let dup = s2.ranks[0][0];
    s2.ranks[0].insert(1, dup);
    assert!(check_tag_uniqueness(&s2)
        .iter()
        .any(|v| v.check == "tag-uniqueness"));
}

#[test]
fn dropped_send_is_caught() {
    let mut s = step_schedule(4, &ScheduleOpts::default());
    // Mutation: rank 7 forgets the first send of its step.
    let idx = s.ranks[7]
        .iter()
        .position(|po| matches!(po.op, Op::Send { .. }))
        .expect("has sends");
    s.ranks[7].remove(idx);
    let vs = verify_schedule(&s);
    assert!(vs.iter().any(|v| v.check == "matching"), "{vs:?}");
    assert!(
        vs.iter()
            .any(|v| v.check == "deadlock" && v.detail.contains("send(s) exist")),
        "the starved receiver must be identified: {vs:?}"
    );
}

#[test]
fn recv_before_send_deadlock_is_caught() {
    // Mutation: every rank posts its migrate receives before its sends —
    // the classic head-to-head deadlock the sends-first discipline avoids.
    // (A balancing run's step beyond 3 × 3: the one that has a migrate
    // round.)
    let opts = ScheduleOpts {
        dlb: true,
        ..Default::default()
    };
    let mut s = step_schedule(4, &opts);
    for ops in &mut s.ranks {
        let (mut recvs, rest): (Vec<_>, Vec<_>) = ops
            .drain(..)
            .partition(|po| po.phase == CommPhase::Migrate && matches!(po.op, Op::Recv { .. }));
        recvs.extend(rest);
        *ops = recvs;
    }
    let vs = check_deadlock_freedom(&s);
    assert!(
        vs.iter()
            .any(|v| v.check == "deadlock" && v.detail.contains("cycle")),
        "blocking cycle not detected: {vs:?}"
    );
    // Matching is still intact — only the order is fatal.
    assert!(check_matching(&s).is_empty());
}

#[test]
fn permanent_cell_giveaway_is_caught() {
    let layout = PillarLayout::from_p_and_m(9, 3);
    let om = OwnershipMap::initial(layout);
    let me = layout.torus().rank_wrapped(1, 1);
    let origin = layout.tile_origin(me);
    // The tile's SE corner is permanent; try to lend it NW anyway.
    let perm = Col::new(origin.cx + 2, origin.cy + 2);
    assert!(is_permanent(&layout, perm));
    let d = DlbDecision {
        col: perm,
        from: me,
        to: layout.torus().rank_wrapped(0, 0),
    };
    let err = validate_decision(&layout, &om, &d).expect_err("giveaway must be rejected");
    assert!(err.to_string().contains("permanent"), "{err}");

    // And if a buggy implementation applied it anyway, the state checker
    // flags the resulting ownership map.
    let mut bad = om.clone();
    bad.set_owner(perm, d.to);
    let state_err = check_state(&layout, &bad).expect_err("state must be rejected");
    assert!(
        state_err.contains("permanent") || state_err.contains("distance"),
        "{state_err}"
    );
}

#[test]
fn over_accumulation_is_caught() {
    // Mutation: pile every movable column of the grid onto rank `me`,
    // blowing through the m² + 3(m−1)² accumulation limit.
    let layout = PillarLayout::from_p_and_m(9, 3);
    let mut om = OwnershipMap::initial(layout);
    let me = layout.torus().rank_wrapped(1, 1);
    for col in layout.grid().iter() {
        if !is_permanent(&layout, col) {
            om.set_owner(col, me);
        }
    }
    let err = check_state(&layout, &om).expect_err("accumulation must be rejected");
    // Either the structural tile-distance check or the explicit limit
    // fires first, depending on which column it scans first.
    assert!(err.contains("limit") || err.contains("tile delta"), "{err}");
}

#[test]
fn mutated_choosers_are_caught() {
    // `choose` walks past a fastest neighbour that may take nothing. Two
    // ways to get that walk wrong, both seeded on the state it exists
    // for — 3×3, m = 4, the fastest PE in a direction nothing moves in.
    let layout = PillarLayout::from_p_and_m(9, 4);
    let torus = layout.torus();
    let me = torus.rank_wrapped(1, 1);
    let mut om = OwnershipMap::initial(layout);

    // Mutation: instead of skipping the anti-diagonal (Case 2) neighbour,
    // the chooser offers it the column it would have sent north-west.
    let ne = torus.rank_wrapped(0, 2);
    let d = DlbDecision {
        col: layout.tile_origin(me),
        from: me,
        to: ne,
    };
    let err = validate_decision(&layout, &om, &d).expect_err("Case 2 send must be rejected");
    assert!(
        matches!(err, ProtocolError::IllegalDirection { delta: (-1, 1), .. }),
        "{err}"
    );
    let mut bad = om.clone();
    bad.set_owner(d.col, ne);
    check_state(&layout, &bad).expect_err("a column parked on the anti-diagonal breaks the state");

    // Mutation: with the south neighbour's column on loan here, the
    // chooser treats it as one of its own and forwards it north-west.
    let south = torus.rank_wrapped(2, 1);
    let borrowed = layout.tile_origin(south);
    om.transfer(borrowed, south, me);
    check_state(&layout, &om).expect("one legal loan keeps every invariant");
    let d = DlbDecision {
        col: borrowed,
        from: me,
        to: torus.rank_wrapped(0, 0),
    };
    let err = validate_decision(&layout, &om, &d).expect_err("forwarding must be rejected");
    assert!(
        matches!(err, ProtocolError::ForeignForward { home, .. } if home == south),
        "{err}"
    );
}

/// `cfg` balancing, with the gas squeezed into the origin corner, placed.
fn corner_start(mut cfg: RunConfig, fill: f64) -> (RunConfig, Placed) {
    cfg.dlb = true;
    cfg.lattice = Lattice::Cluster { fill };
    let placed = Placed::new(&cfg, &initial_particles(&cfg));
    (cfg, placed)
}

#[test]
fn a_wall_judged_by_the_nominal_m_is_caught() {
    // Mutation: `is_permanent` reads "last row or column" off the nominal
    // m = nc / √P instead of the column's own tile. On the even tiling
    // the two agree and the search passes the mutant; on a tiling with a
    // tile wider than m the mutant calls columns *beyond* offset m − 1
    // movable — the real wall among them — and lends them out.
    let (side, m) = (3, 2);
    let movable_by_m = |layout: &PillarLayout, c: Col| {
        let (ox, oy) = layout.offset_in_tile(c);
        ox != m - 1 && oy != m - 1
    };
    let mutant = |layout: &PillarLayout, om: &OwnershipMap| -> Vec<DlbDecision> {
        let torus = layout.torus();
        let mut out = transfers_from(layout, om);
        for from in 0..layout.num_ranks() {
            let lent = layout
                .tile_columns(from)
                .find(|&c| movable_by_m(layout, c) && is_permanent(layout, c));
            let to = torus.neighbor(from, -1, -1);
            out.extend(
                lent.filter(|&col| om.owner_of(col) == from)
                    .map(|col| DlbDecision { col, from, to }),
            );
        }
        out
    };
    let tilings = cut_sets(side, m);
    assert!(tilings[0].is_even());
    search_layout(&tilings[0], 500, mutant).expect("the even tiling cannot tell");
    let caught = tilings[1..]
        .iter()
        .filter_map(|layout| search_layout(layout, 500, mutant).err())
        .collect::<Vec<_>>();
    assert!(
        caught.iter().any(|e| e.contains("permanent")),
        "the uneven cut sets must catch the mutant: {caught:?}"
    );
}

#[test]
fn mutated_planners_are_caught() {
    // The launch plan iterates the balancer's own rule, so what it can get
    // wrong is its loop. Two seeded ways, each on a real plan.

    // Mutation: a planner that, once the hot tile's movable columns are
    // gone, keeps shedding — a permanent column goes where the last
    // movable one went.
    // (On the paper's tiling: the launch itself would cut the corner up.)
    let (cfg, placed) = corner_start(RunConfig::from_p_m_density(9, 3, 0.128), 0.3);
    let layout = PillarLayout::new(cfg.nc, cfg.torus());
    let mut plan = launch_plan_on(layout, &cfg, 0, &placed.column_work()).decisions;
    let shed = plan.iter().filter(|d| d.from == 0).count();
    assert_eq!(shed, 4, "the hot tile sheds its (m − 1)² movable columns");
    check_pillar_plan(&layout, &plan).expect("the real plan replays clean");
    let last = *plan.iter().rfind(|d| d.from == 0).expect("rank 0 sheds");
    let origin = layout.tile_origin(0);
    let wall = Col::new(origin.cx + 2, origin.cy);
    assert!(is_permanent(&layout, wall));
    plan.push(DlbDecision { col: wall, ..last });
    let err = check_pillar_plan(&layout, &plan).expect_err("the wall must hold");
    assert!(err.contains("permanent"), "{err}");

    // Mutation: a planner that skips `excludes` on the plane — the two
    // sides of one boundary each take the other for the lighter one, and
    // both planes cross it in one iteration.
    let (ring, placed) = corner_start(RunConfig::new(1000, 6, 3, 0.05), 0.3);
    let plan = launch_plan(DomainShape::Plane, &ring, 0, &placed.column_work(), false).decisions;
    assert!(!plan.is_empty(), "rank 0's slab sheds toward rank 1");
    check_plane_plan(ring.nc, ring.p, &plan).expect("the real plan replays clean");
    let crossing = |cx, from, to| DlbDecision {
        col: Col::new(cx, 0),
        from,
        to,
    };
    let err = check_plane_plan(6, 3, &[crossing(2, 1, 0), crossing(1, 0, 1)])
        .expect_err("two planes crossing one boundary must be caught");
    assert!(err.contains("edge plane"), "{err}");
    // Nor may a planner squeeze a one-plane PE, or reach across the seam.
    let err = check_plane_plan(3, 3, &[crossing(1, 1, 0)]).expect_err("last plane");
    assert!(err.contains("last plane"), "{err}");
    let err = check_plane_plan(6, 3, &[crossing(0, 0, 2)]).expect_err("seam");
    assert!(err.contains("seam"), "{err}");
}

#[test]
fn a_column_sent_to_its_old_owner_is_caught() {
    // Mutation: a re-tile's sender addresses the frame of the columns it
    // gives up to their old owner — itself — instead of their new owner.
    // The frame is received by nobody, and the new owner blocks on one
    // that never comes. (On 4 × 4, from the re-tile a clustered start's
    // launch would make, non-neighbour frames included.)
    let opts = ScheduleOpts {
        retile_check: true,
        retile: planned_retile(16),
        ..ScheduleOpts::full()
    };
    let mut s = step_schedule(4, &opts);
    assert!(verify_schedule(&s).is_empty(), "the real re-tile verifies");
    let (giver, at) = (0..s.p)
        .find_map(|r| {
            let at = s.ranks[r]
                .iter()
                .position(|po| po.phase == CommPhase::Retile);
            at.map(|at| (r, at))
        })
        .expect("some rank gives columns away");
    let Op::Send { to, tag } = s.ranks[giver][at].op else {
        panic!("a re-tile phase starts with the sends")
    };
    assert_eq!(tag, tags::RETILE_XFER);
    s.ranks[giver][at].op = Op::Send { to: giver, tag };
    let vs = verify_schedule(&s);
    let unreceived = format!("(src {giver}, dst {giver}, tag {tag}): 1 send(s) vs 0 recv(s)");
    assert!(
        vs.iter()
            .any(|v| v.check == "matching" && v.detail.contains(&unreceived)),
        "{vs:?}"
    );
    let starved = format!("rank {to} blocks on recv #0 from (src {giver}, tag {tag})");
    assert!(
        vs.iter()
            .any(|v| v.check == "deadlock" && v.detail.contains(&starved)),
        "{vs:?}"
    );
}

/// The row of a coarse fault-scenario table named `name`.
fn row(name: &str) -> Scenario {
    let rows = table(97, 1);
    rows.into_iter()
        .find(|r| r.name == name)
        .expect("a row of the table")
}

fn violated(out: &Outcome, what: &str) -> bool {
    out.violations.iter().any(|v| v.contains(what))
}

#[test]
fn a_kill_that_never_fires_is_caught() {
    // Mutation: the checkpoint-gather row kills on a tag its ranks never
    // send — a run that does not balance moves no column in a re-tile —
    // so the run completes untouched and "every kill fires" must fail.
    let mut r = row("2x2 checkpoint-gather kills");
    r.kills = Kills::Runs(vec![vec![(
        0,
        1,
        FaultPlan::kill_on_tag(tags::RETILE_XFER, 0),
    )]]);
    let out = run(vec![r]).expect("no hang").remove(0);
    assert_eq!((out.runs, out.fired), (1, 0));
    assert!(violated(&out, "AllFire"), "{:?}", out.violations);
}

#[test]
fn a_run_held_to_another_seeds_reference_is_caught() {
    // Mutation: a fault-free run of the kill-point row is held to the
    // reference of the same workload started from the next seed.
    let mut r = row("2x2 kill points");
    r.kills = Kills::Runs(vec![Vec::new()]);
    let mut other = r.clone();
    other.cfg.seed += 1;
    let wrong = reference(&other).expect("the other seed's reference holds");
    let out = hold(&r, &wrong);
    assert_eq!(out.runs, 1);
    assert!(violated(&out, "!= reference"), "{:?}", out.violations);
}
