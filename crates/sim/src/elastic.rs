//! Elastic world resizing: survive PEs that join or leave mid-run.
//!
//! The lower rung of the recovery ladder handles PEs that *die*: a
//! checkpoint relaunch ([`crate::recover`]). This module holds the rung
//! above it: a planned change of the PE count itself. A [`ResizePlan`] names step boundaries at which the world
//! switches from `P` to `P ± k` ranks; a resilient launch
//! ([`Launch::run_resilient`](crate::driver::Launch::run_resilient) with
//! the plan in its [`Ladder`](crate::driver::Ladder)) executes the run as
//! a sequence of world *generations*, one per PE count:
//!
//! 1. **Drain** — the outgoing generation runs to the boundary step and
//!    takes a forced checkpoint gather there (the `drain` flag of the run
//!    loop), so the complete world state — MD phase space, ownership view,
//!    rank 0's record history — sits in the shared [`SimCheckpoint`] sink.
//! 2. **Remap** — the virtual torus is rebuilt for the new PE count (the
//!    generation's own `cfg.torus()`), re-tiled from the drained
//!    particles where the generation balances, and the drained ownership
//!    view is rewritten: the new tiling's home map, which satisfies the
//!    permanent-cell invariant by construction, with the launch plan of
//!    the drained particles replayed onto it
//!    ([`crate::launch::launch_plan`]) — so a generation starts where its
//!    balancer would have taken it rather than shedding every hot tile
//!    anew, and every generation boundary moves the walls to where the
//!    load has gone (inside a generation, a re-tiling run moves them in
//!    place at its check steps, see [`crate::pe`]). The drain is audited
//!    on the way through: exact particle-count conservation and an exact
//!    one-owner-per-column partition.
//! 3. **Resume** — a fresh world launches on the new PE set (its channels
//!    are new, so no frame of the drained world can reach it), every rank
//!    restored from the remapped checkpoint as a relaunch is
//!    ([`crate::engine::Start`]). Like every launch it sends
//!    nothing before the first step: all of a world's channels exist
//!    before any rank runs, so a rank that reaches step 1 first only
//!    buffers its frames for the others, and a rank that dies before it
//!    aborts the world as a death mid-step does.
//!
//! Each generation keeps the relaunch rung underneath it: a rank death
//! relaunches the generation from its own last checkpoint (at worst the
//! drain boundary). The headline property carries over:
//! because DLB and domain decomposition move ownership but never physics,
//! an elastic run's final particle state is **bitwise identical** to an
//! uninterrupted serial run — no matter how many resizes, in which
//! direction, at which boundaries.

use pcdlb_domain::DomainShape;

use crate::config::RunConfig;
use crate::launch::{launch_plan, Placed};
use crate::recover::SimCheckpoint;

/// One planned resize: after `at_step` completes, the world continues on
/// `p` PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeStage {
    /// Drain boundary: the last step the outgoing generation executes.
    pub at_step: u64,
    /// PE count from `at_step + 1` on (a perfect square whose torus side
    /// divides `nc`, like any square-pillar PE count).
    pub p: usize,
}

/// An ordered set of [`ResizeStage`]s applied over one run. An empty
/// plan is a run of one generation: it keeps its world. Well-formed
/// ([`Ladder::check`](crate::driver::Ladder::check)) when the boundaries
/// are strictly increasing inside `(0, cfg.steps)` and every target PE
/// count is a perfect square whose torus side divides `nc`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResizePlan {
    /// The stages, strictly increasing in `at_step`.
    pub stages: Vec<ResizeStage>,
}

impl ResizePlan {
    /// An empty plan (no resizes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a resize to `p` PEs after `at_step` completes (builder).
    pub fn resize(mut self, at_step: u64, p: usize) -> Self {
        self.stages.push(ResizeStage { at_step, p });
        self
    }

    /// The run as generations: `(start, end]` step ranges with their PE
    /// counts, `cfg.p` first.
    pub(crate) fn segments(&self, cfg: &RunConfig) -> Vec<Segment> {
        let mut segs = Vec::with_capacity(self.stages.len() + 1);
        let (mut start, mut p) = (0, cfg.p);
        for s in &self.stages {
            segs.push(Segment {
                start,
                end: s.at_step,
                p,
            });
            (start, p) = (s.at_step, s.p);
        }
        segs.push(Segment {
            start,
            end: cfg.steps,
            p,
        });
        segs
    }
}

/// One world generation: steps `(start, end]` on `p` PEs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) p: usize,
}

/// Per-generation audit record in a
/// [`LadderOutcome`](crate::driver::LadderOutcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeGeneration {
    /// PE count of this generation.
    pub p: usize,
    /// First step this generation executed.
    pub first_step: u64,
    /// Last step this generation executed (its drain boundary, or the
    /// run's end).
    pub last_step: u64,
    /// Launches this generation took (1 = no relaunch).
    pub attempts: usize,
}

/// Audit a drained checkpoint and rewrite its ownership view onto the
/// torus of `cfg`, the next generation's configuration. The audits are
/// the resize-boundary conservation laws: the checkpoint sits exactly on
/// the boundary step, holds every particle, and partitions the column
/// grid with exactly one owner per column. The rewrite is a launch
/// ([`launch_plan`]) from the drained particles: the new torus is tiled —
/// re-cut where the load now is, if the generation balances — every
/// column starts at its home pillar under that tiling, the one assignment
/// that satisfies the permanent-cell invariant on any torus, and the
/// launch plan is replayed onto it: a generation starts where its
/// balancer would have taken it, as a fresh run does, instead of shedding
/// its hot tiles one column a step all over again. `retiles` says whether
/// the generation re-tiles in place as it runs (its tiles may then be one
/// column wide, see [`launch_plan`]). Returns the number of transfers the
/// generation's launch plan makes. The loads and in-flight transfers the
/// old torus's balancer held say nothing about the new one's ranks: the
/// transfers are dropped, and the loads replaced by the ones the plan ends
/// on (none where the generation does not balance) — what the
/// generation's first force pass measures, which every rank resumes from,
/// on its first launch and on a relaunch before its first checkpoint
/// alike. Every launch of the generation then starts from the checkpoint
/// like any relaunch ([`crate::engine::Start`]).
pub(crate) fn remap_drained_checkpoint(
    ck: &mut SimCheckpoint,
    cfg: &RunConfig,
    boundary: u64,
    retiles: bool,
) -> usize {
    assert_eq!(
        ck.step, boundary,
        "drain checkpoint at step {} but the resize boundary is {boundary}",
        ck.step
    );
    assert_eq!(
        ck.particles.len(),
        cfg.n_particles,
        "resize drain lost particles: checkpoint holds {} of {}",
        ck.particles.len(),
        cfg.n_particles
    );
    let work = Placed::new(cfg, &ck.particles).column_work();
    let plan = launch_plan(DomainShape::SquarePillar, cfg, boundary, &work, retiles);
    let layout = plan.tiling();
    let grid = layout.grid();
    assert_eq!(
        ck.ownership.len(),
        grid.len(),
        "drained ownership view covers {} of {} columns",
        ck.ownership.len(),
        grid.len()
    );
    let mut slot = vec![usize::MAX; grid.len()];
    for (i, (c, owner)) in ck.ownership.iter_mut().enumerate() {
        let idx = grid.index(*c);
        assert!(
            slot[idx] == usize::MAX,
            "column {c:?} owned twice in the drained checkpoint"
        );
        slot[idx] = i;
        *owner = layout.home_rank(*c);
    }
    for d in &plan.decisions {
        ck.ownership[slot[grid.index(d.col)]].1 = d.to;
    }
    ck.tiling = layout;
    ck.loads = plan.loads;
    ck.transfers.clear();
    plan.decisions.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::config::Lattice;
    use crate::driver::{run, run_serial, Ladder, LadderOutcome, Launch};
    use crate::recover::tests::faulted;
    use crate::recover::tests::recovery_cfg;
    use crate::SpeedSchedule;

    /// The 2×2 recovery workload with a sentinel cadence, so every
    /// generation audits conservation.
    fn elastic_cfg() -> RunConfig {
        let mut cfg = recovery_cfg();
        cfg.sentinel_interval = 4;
        cfg
    }

    /// Relaunch and `plan`.
    fn ladder(plan: ResizePlan) -> Ladder {
        Ladder {
            max_attempts: 3,
            plan,
        }
    }

    /// A fault-free resilient launch of `cfg` over `plan`.
    fn run_plan(cfg: &RunConfig, plan: ResizePlan) -> LadderOutcome {
        let launch = Launch::new();
        launch.run_resilient(cfg, &ladder(plan)).expect("no faults")
    }

    #[test]
    fn an_empty_plan_is_no_plan_bitwise() {
        // With no stage the generations loop runs once, on the configured
        // world: the report and state of a launch that has no ladder.
        let cfg = elastic_cfg();
        let out = run_plan(&cfg, ResizePlan::new());
        let (report, snapshot) = Launch::new().snapshot().run(&cfg).into_snapshot();
        assert_eq!(
            out.digest,
            crate::digest_recovery(&report, &snapshot, cfg.load_metric)
        );
        assert_eq!(out.snapshot, snapshot);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.generations.len(), 1);
        assert_eq!(
            out.generations[0],
            ResizeGeneration {
                p: 4,
                first_step: 1,
                last_step: 24,
                attempts: 1,
            }
        );
    }

    #[test]
    fn grow_then_shrink_preserves_physics_bitwise() {
        let cfg = elastic_cfg();
        let plan = ResizePlan::new().resize(8, 16).resize(16, 4);
        let out = run_plan(&cfg, plan);
        // Conservation plus bitwise physics parity with the serial
        // reference, across a grow to 4×4 and a shrink back to 2×2 — the
        // decomposition (and how often it changes) never touches physics.
        assert_eq!(out.snapshot.len(), cfg.n_particles);
        assert_eq!(out.snapshot, run_serial(&cfg));
        // The record series is complete across all three generations.
        assert_eq!(out.report.records.len(), cfg.steps as usize);
        for (i, r) in out.report.records.iter().enumerate() {
            assert_eq!(r.step, i as u64 + 1);
        }
        assert_eq!(out.attempts, 3, "one launch per generation");
        let ps: Vec<usize> = out.generations.iter().map(|g| g.p).collect();
        assert_eq!(ps, vec![4, 16, 4]);
        assert_eq!(
            out.generations[1],
            ResizeGeneration {
                p: 16,
                first_step: 9,
                last_step: 16,
                attempts: 1,
            }
        );
    }

    #[test]
    fn shrink_to_serial_and_back_preserves_physics_bitwise() {
        // Down to a single PE (every other PE "left"), then back up: the
        // degenerate torus is a legal generation like any other.
        let cfg = elastic_cfg();
        let plan = ResizePlan::new().resize(8, 1).resize(16, 4);
        let out = run_plan(&cfg, plan);
        assert_eq!(out.snapshot, run_serial(&cfg));
        let ps: Vec<usize> = out.generations.iter().map(|g| g.p).collect();
        assert_eq!(ps, vec![4, 1, 4]);
    }

    /// A 6³-cell workload whose base torus (3×3) runs DLB, resized down
    /// to 2×2 (DLB auto-gated off) and back up (DLB resumes).
    fn dlb_cfg() -> RunConfig {
        let mut cfg = RunConfig::new(343, 6, 9, 0.08);
        cfg.dlb = true;
        cfg.steps = 18;
        cfg.thermostat_interval = 7;
        cfg.lattice = Lattice::Cluster { fill: 0.8 };
        cfg.seed = 13;
        cfg.checkpoint_interval = 6;
        cfg.sentinel_interval = 3;
        cfg
    }

    #[test]
    fn resize_parity_across_grids_and_decompositions() {
        let cfg = dlb_cfg();
        let plan = ResizePlan::new().resize(6, 4).resize(12, 9);
        let out = run_plan(&cfg, plan);
        // Sentinel ran every 3 steps in every generation (a violation
        // would have aborted the run) — this run completing IS the
        // sentinel-clean continuation claim.
        assert_eq!(out.snapshot.len(), cfg.n_particles);
        let serial = run_serial(&cfg);
        assert_eq!(out.snapshot, serial, "elastic vs serial");
        // The same physics under the other two decompositions.
        let mut plane_cfg = cfg.clone();
        plane_cfg.p = 3;
        plane_cfg.dlb = false;
        let shape = |s| Launch::new().shape(s).snapshot();
        let (_, plane_snap) = shape(DomainShape::Plane).run(&plane_cfg).into_snapshot();
        assert_eq!(out.snapshot, plane_snap, "elastic vs plane");
        let mut cube_cfg = cfg.clone();
        cube_cfg.p = 8;
        cube_cfg.dlb = false;
        let (_, cube_snap) = shape(DomainShape::Cube).run(&cube_cfg).into_snapshot();
        assert_eq!(out.snapshot, cube_snap, "elastic vs cube");
    }

    #[test]
    fn a_resized_generation_starts_where_its_balancer_would_have_taken_it() {
        // The paper's scenario — 3×3 over 12 columns, the whole gas over
        // rank 0's tile of the paper's tiling — grown to 4×4 and shrunk
        // back. The remap launches every new torus from the drained
        // particles: it cuts the tiles where the load is *now* and plans
        // on them, so no generation goes through a shedding transient —
        // its first step's largest load is, to the bit, the one its
        // launch plan ended on. All inside the 24 steps for which no
        // particle of the lattice changes cell: later the cluster
        // spreads, and loads move for that reason.
        let mut cfg = RunConfig::from_p_m_density(9, 4, 0.128);
        cfg.lattice = Lattice::Cluster { fill: 0.45 };
        cfg.dlb = true;
        cfg.steps = 24;
        cfg.sentinel_interval = 4;
        let plan = ResizePlan::new().resize(8, 16).resize(16, 9);
        let out = run_plan(&cfg, plan);
        assert_eq!(out.snapshot, run_serial(&cfg), "elastic vs serial");
        let records = &out.report.records;
        assert_eq!(records.len(), cfg.steps as usize);
        // What each generation was launched from is the serial state at
        // its boundary: launch it again here.
        let mut serial = crate::driver::serial_sim(&cfg);
        let (mut planned, mut tilings) = (0, Vec::new());
        for (boundary, p) in [(0, 9), (8, 16), (16, 9)] {
            while serial.steps_done() < boundary {
                serial.step();
            }
            let mut gen = cfg.clone();
            gen.p = p;
            let work = Placed::new(&gen, &serial.snapshot()).column_work();
            let plan = launch_plan(DomainShape::SquarePillar, &gen, boundary, &work, true);
            let tiling = plan.tiling();
            assert!(!tiling.is_even(), "P = {p}: {tiling}");
            let first = &records[boundary as usize];
            assert_eq!(
                Some(&first.f_max),
                plan.peaks.last(),
                "generation from step {}",
                first.step
            );
            planned += plan.decisions.len();
            tilings.push(tiling);
        }
        // Each generation's plan is counted. Both 3 × 3 generations launch
        // on the same cuts, as long as the lattice holds, and each one's
        // first check — two steps after its launch — refines them on the
        // plan's floor to the same cuts again; the run reports the tiling
        // it finished on.
        assert_eq!(out.report.launch_transfers, planned);
        assert_eq!(tilings[2], tilings[0]);
        let retiles = &out.report.retiles;
        assert_eq!(retiles.iter().map(|r| r.0).collect::<Vec<_>>(), [2, 18]);
        assert_eq!(retiles[0].1, retiles[1].1);
        assert_eq!(out.report.tiling, Some(retiles[1].1));
        assert_eq!(tilings[1].num_ranks(), 16);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_plans_are_rejected() {
        let cfg = elastic_cfg();
        run_plan(&cfg, ResizePlan::new().resize(16, 16).resize(8, 4));
    }

    #[test]
    #[should_panic(expected = "does not divide nc")]
    fn incompatible_grid_targets_are_rejected() {
        let cfg = elastic_cfg(); // nc = 4: side 3 does not divide it
        run_plan(&cfg, ResizePlan::new().resize(8, 9));
    }

    #[test]
    fn kill_during_the_drain_gather_relaunches_the_generation() {
        use pcdlb_core::protocol::tags;
        use pcdlb_mp::collectives::ctag;
        use pcdlb_mp::FaultPlan;
        let mut cfg = elastic_cfg();
        // No periodic checkpoints: the only CKPT_GATHER traffic is the
        // two resize drains, so a tag-targeted kill lands inside the
        // drain window by construction.
        cfg.checkpoint_interval = 0;
        let plan = ResizePlan::new().resize(8, 16).resize(16, 4);
        let reference = run_plan(&cfg, plan.clone());
        let kill = |launch, rank| {
            (launch == 0 && rank == 1)
                .then(|| FaultPlan::kill_on_tag(ctag(tags::CKPT_GATHER, 0), 0))
        };
        let out = faulted(kill)
            .run_resilient(&cfg, &ladder(plan))
            .expect("the first generation relaunches from step 0");
        assert_eq!(out.attempts, 4, "one relaunch on top of three generations");
        assert_eq!(out.generations[0].attempts, 2);
        assert_eq!(out.digest, reference.digest);
        assert_eq!(out.snapshot, reference.snapshot);
    }

    /// Uniform-work heterogeneous machine: the only systematic imbalance
    /// is speed. `m = 2` is the tightest layout — one movable column per
    /// tile; `m = 3` gives each tile four.
    fn hetero_cfg(m: usize, speed_aware: bool) -> RunConfig {
        let mut cfg = match m {
            2 => RunConfig::new(343, 6, 9, 0.08),
            _ => RunConfig::from_p_m_density(9, m, 0.08),
        };
        cfg.dlb = true;
        cfg.steps = 30;
        cfg.seed = 17;
        // Fast PEs sit west of slow ones (torus columns 0.6 → 1.0 → 1.4,
        // wrapping), so the paper's NW-directed transfer rules give the
        // slow column a legal Case-1 route toward the fastest PEs.
        cfg.speed = Some(SpeedSchedule {
            base: vec![0.5, 1.0, 2.0],
            amplitude: 0.2,
            period: 16,
        });
        cfg.speed_aware = speed_aware;
        cfg
    }

    /// Mean relative time imbalance `(F_max − F_min) / F_ave` over the
    /// back half of the run (DLB has warmed up by then).
    fn mean_time_imbalance(records: &[crate::report::StepRecord]) -> f64 {
        let tail = &records[records.len() / 2..];
        tail.iter()
            .map(|r| (r.f_max - r.f_min) / r.f_ave)
            .sum::<f64>()
            / tail.len() as f64
    }

    #[test]
    fn speed_aware_dlb_reduces_time_imbalance() {
        // (m, bound on the speed-aware imbalance as a share of the
        // work-based run's, and of the unbalanced run's). Measured over
        // seeds 17 and 1–5: m = 2 0.78–0.92 and 0.74–0.81 (this seed:
        // 0.875, 0.770 — its one movable column per tile is soon given,
        // and the work-based run, which chases particle noise with the
        // same column, is itself 4–12 % below no balancing); m = 3
        // 0.66–0.68 and 0.58–0.63.
        for (m, vs_work, vs_none) in [(2, 0.95, 0.85), (3, 0.8, 0.8)] {
            let mut unbalanced = hetero_cfg(m, false);
            unbalanced.dlb = false;
            let unbalanced = run(&unbalanced);
            let work_based = run(&hetero_cfg(m, false));
            let speed_aware = run(&hetero_cfg(m, true));
            // With uniform work the work-based metric only chases
            // particle noise; the speed-aware metric sees the speed
            // spread as time imbalance and moves cells toward the fast
            // PEs.
            let transfers: u32 = speed_aware.records.iter().map(|r| r.transfers).sum();
            assert!(transfers > 0, "speed-aware DLB must act on a speed spread");
            let imb_none = mean_time_imbalance(&unbalanced.records);
            let imb_work = mean_time_imbalance(&work_based.records);
            let imb_time = mean_time_imbalance(&speed_aware.records);
            assert!(
                imb_time < vs_work * imb_work && imb_time < vs_none * imb_none,
                "m = {m}: speed-aware DLB must cut time imbalance: \
                 {imb_time:.3} vs {imb_work:.3} work-based, {imb_none:.3} unbalanced"
            );
        }
    }

    #[test]
    fn speed_schedules_never_touch_physics() {
        // Heterogeneous speeds redirect DLB traffic (ownership) but the
        // particle state stays bitwise identical: time-aware balancing
        // inherits the decomposition-independence theorem.
        for m in [2, 3] {
            let mut plain = hetero_cfg(m, false);
            plain.speed = None;
            let serial = run_serial(&plain);
            for cfg in [hetero_cfg(m, false), hetero_cfg(m, true)] {
                let (_, snap) = crate::driver::run_with_snapshot(&cfg);
                assert_eq!(
                    snap, serial,
                    "m = {m}, speed_aware = {} run diverged",
                    cfg.speed_aware
                );
            }
        }
    }

    #[test]
    fn elastic_run_with_drifting_speeds_stays_bitwise_serial() {
        // The full tentpole in one: PEs join, leave, and drift in speed
        // mid-run; physics still lands bitwise on the serial reference.
        let mut cfg = dlb_cfg();
        cfg.speed = Some(SpeedSchedule {
            base: vec![1.0, 0.7, 1.3],
            amplitude: 0.2,
            period: 8,
        });
        cfg.speed_aware = true;
        let plan = ResizePlan::new().resize(6, 4).resize(12, 9);
        let out = run_plan(&cfg, plan);
        assert_eq!(out.snapshot, run_serial(&cfg));
    }
}
