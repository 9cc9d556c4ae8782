//! Distributed checkpoint/restart: the bottom rung of the recovery ladder.
//!
//! A long SPMD campaign must survive a rank dying mid-run (on the T3E: a
//! node failure; here: an injected fault or a real bug). The scheme is
//! the classic coordinated checkpoint: every `cfg.checkpoint_interval`
//! steps the ranks gather their particles and ownership view to rank 0
//! ([`SimCheckpoint`]), which keeps it in memory: the checkpoint never
//! leaves the process, so nothing is serialised. A resilient launch
//! ([`Launch::run_resilient`](crate::driver::Launch::run_resilient))
//! launches the world, and when any rank fails it tears the world down
//! cleanly (collecting per-rank diagnostics), restores the last
//! checkpoint, and relaunches from there — repeating until the run
//! completes or attempts run out ([`RecoveryError`]).
//!
//! The headline property (tested here and swept exhaustively by
//! `pcdlb-check sweep`): a recovered run's particle state and per-step
//! record series are **bitwise identical** to an uninterrupted run's, no
//! matter where the fault struck. Only the run-total message counters
//! differ (retransmission), which is why parity is asserted on
//! [`digest_recovery`](crate::digest::digest_recovery) rather than
//! [`digest_run`](crate::digest::digest_run).

use std::fmt;

use pcdlb_core::protocol::Transfer;
use pcdlb_domain::{Col, PillarLayout};
use pcdlb_md::Particle;
use pcdlb_mp::WorldError;

use crate::report::StepRecord;

/// A restartable distributed simulation state: the step it was taken at,
/// every particle, the DLB ownership map and the tiling whose home tiles
/// it started from, rank 0's per-step records up to the checkpointed
/// step, and — the balancer decides a step ahead — what its next decision
/// rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint {
    /// Steps completed when the checkpoint was taken.
    pub step: u64,
    /// Every particle's phase space, in ascending id order.
    pub particles: Vec<Particle>,
    /// `(column, owner)` for every column, in column order.
    pub ownership: Vec<(Col, usize)>,
    /// The tiling the run stands on at the checkpointed step — the one it
    /// was launched on ([`crate::launch`]) or last re-tiled to: which PE is
    /// home to which column, and so which columns are permanent. A
    /// relaunch and a sentinel rollback both rebuild their views on it.
    pub tiling: PillarLayout,
    /// Rank 0's step records for steps `1..=step`.
    pub records: Vec<StepRecord>,
    /// The load each rank last announced to its neighbours, by rank: what
    /// every neighbour holds for it when the next step decides, and what
    /// a launch restored from it resumes its balancer from. Empty when the
    /// run does not balance; on a drain remapped onto another torus, the
    /// loads the new generation's launch plan ends on.
    pub loads: Vec<f64>,
    /// The decisions the last rebuild step's frames brought, with their
    /// work, ascending `from`: not applied yet — their givers still hold
    /// the columns in `ownership` — so a restored run lands them at its
    /// first rebuild step. (What landed before, `loads` have seen.)
    pub transfers: Vec<Transfer>,
    /// The run's re-tiles up to the checkpointed step, as
    /// `RunReport::retiles` lists them: `(step, tiling, columns moved)`.
    pub retiles: Vec<(u64, PillarLayout, usize)>,
}

/// The run kept failing: a world generation died on every attempt its
/// ladder allowed.
#[derive(Debug)]
pub struct RecoveryError {
    /// Launches made, over all generations.
    pub attempts: usize,
    /// Per-launch failure diagnostics, in attempt order.
    pub failures: Vec<WorldError>,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run failed on all {} attempt(s)", self.attempts)?;
        if let Some(last) = self.failures.last() {
            write!(f, "; last failure: {last}")?;
        }
        Ok(())
    }
}

impl std::error::Error for RecoveryError {}

#[cfg(test)]
pub(crate) mod tests {
    use std::time::Duration;

    use super::*;
    use crate::config::{Lattice, RunConfig};
    use crate::digest::{digest_records, digest_recovery};
    use crate::driver::{run_with_snapshot, Ladder, LadderOutcome, Launch};
    use crate::elastic::ResizePlan;
    use crate::pe::initial_particles;

    /// A small but non-trivial 2×2 recovery workload: DDM only (P = 4
    /// cannot run DLB), clustered start so migration and ghost traffic
    /// are busy, thermostat firing mid-run. A tight poll so aborts
    /// propagate fast, a watchdog short enough that a wedged receive
    /// fails the test promptly.
    pub(crate) fn recovery_cfg() -> RunConfig {
        let mut cfg = RunConfig::new(216, 4, 4, 0.2);
        cfg.dlb = false;
        cfg.steps = 24;
        cfg.thermostat_interval = 10;
        cfg.lattice = Lattice::Cluster { fill: 0.8 };
        cfg.seed = 11;
        cfg.checkpoint_interval = 5;
        cfg.comm.poll = Duration::from_millis(2);
        cfg.comm.watchdog = Duration::from_secs(20);
        cfg
    }

    /// Relaunch from the last checkpoint.
    fn ladder() -> Ladder {
        Ladder {
            max_attempts: 3,
            plan: ResizePlan::new(),
        }
    }

    fn fault_free(cfg: &RunConfig) -> LadderOutcome {
        Launch::new()
            .run_resilient(cfg, &ladder())
            .expect("no faults")
    }

    /// A run's records with `wall_s`, which the real clock makes vary run
    /// to run, zeroed.
    fn clockless(outcome: &LadderOutcome) -> Vec<StepRecord> {
        let records = outcome.report.records.iter();
        records.map(|r| StepRecord { wall_s: 0.0, ..*r }).collect()
    }

    /// A launch whose rank threads run under the plans `plans(launch,
    /// rank)` gives them.
    pub(crate) fn faulted(
        plans: impl Fn(usize, usize) -> Option<pcdlb_mp::FaultPlan> + Send + Sync + 'static,
    ) -> Launch {
        Launch::new().on_start(move |launch, comm| {
            if let Some(plan) = plans(launch, comm.rank()) {
                comm.set_fault_plan(plan);
            }
        })
    }

    /// 3×3, m = 4, the cluster on rank 0's tile of the paper's tiling —
    /// the benchmark's `cluster_dlb_p9`: the launch cuts the tiles through
    /// the cluster (2·1·9 × 1·2·9 where they follow the load, 2·2·8 ×
    /// 2·2·8 where they are fixed), and the balancer moves a column or two
    /// on most of the first steps; the re-tile check at step 2 refines the
    /// tiling, those at steps 4, 8 and 16 keep it.
    fn busy_balancer_cfg() -> RunConfig {
        let mut cfg = RunConfig::from_p_m_density(9, 4, 0.128);
        cfg.lattice = Lattice::Cluster { fill: 0.45 };
        cfg.dlb = true;
        cfg.steps = 16;
        cfg.checkpoint_interval = 5;
        cfg.comm = recovery_cfg().comm;
        cfg
    }

    #[test]
    fn checkpointing_is_digest_neutral() {
        // The same run with and without periodic checkpoints must report
        // identical records and final state — the gathers add messages
        // but never perturb a t_step or the physics. Nor a decision: a
        // balancer deciding a step ahead carries loads across the
        // checkpoint step like across any other.
        for checkpointed in [recovery_cfg(), busy_balancer_cfg()] {
            let mut plain = checkpointed.clone();
            plain.checkpoint_interval = 0;
            let (rep_a, snap_a) = run_with_snapshot(&plain);
            let (rep_b, snap_b) = run_with_snapshot(&checkpointed);
            assert_eq!(snap_a, snap_b, "checkpoint gathers must not touch physics");
            assert_eq!(
                digest_records(&rep_a, plain.load_metric),
                digest_records(&rep_b, checkpointed.load_metric),
                "checkpoint gathers must not perturb any reported step"
            );
            assert!(
                rep_b.msgs_sent > rep_a.msgs_sent,
                "the checkpointed run did send extra gather messages"
            );
        }
    }

    #[test]
    fn a_run_restored_between_its_checks_checks_where_it_would_have() {
        use crate::engine::{run_pe, Program, Start};
        use crate::launch::{launch_plan, Placed};
        use pcdlb_domain::DomainShape;
        use std::sync::Mutex;
        // The benchmark's `cluster_dlb_p9` (seed 1) re-tiles at step 2, so
        // its next checks are due 4 and 8 steps later — at steps 6 and 10,
        // not 8 and 16. A checkpoint of step 5 falls between the re-tile
        // and those checks. The re-tile history it carries is what the
        // schedule counts from, so the run restored from it checks, and
        // re-tiles, where the uninterrupted one does.
        let mut cfg = busy_balancer_cfg();
        cfg.dlb_min_gain = 0.02;
        cfg.seed = 1;
        cfg.steps = 40;
        cfg.checkpoint_interval = 0;
        let (reference, reference_snapshot) = run_with_snapshot(&cfg);
        let steps = |retiles: &[(u64, PillarLayout, usize)]| -> Vec<u64> {
            retiles.iter().map(|r| r.0).collect()
        };
        assert_eq!(steps(&reference.retiles), [2, 34, 38]);
        let shape = DomainShape::SquarePillar;
        let world = || {
            pcdlb_mp::World::new(cfg.p)
                .with_cost_model(crate::decomp::cost_model(shape, &cfg))
                .with_comm_config(&cfg.comm)
        };
        let program = |snapshot, drain| Program {
            shape,
            retile: Some(0),
            snapshot,
            drain,
        };
        // Step 5's checkpoint, taken by a run that drains there.
        let mut to_5 = cfg.clone();
        to_5.steps = 5;
        let sink = Mutex::new(None);
        let placed = Placed::new(&to_5, &initial_particles(&to_5));
        let plan = launch_plan(shape, &to_5, 0, &placed.column_work(), true);
        let drain = program(false, true);
        let start = Start::Fresh(&placed, &plan);
        world().run(|comm| run_pe(comm, &to_5, drain, start, Some(&sink)));
        let at_5 = sink.into_inner().unwrap().expect("a drain at step 5");
        assert_eq!((at_5.step, steps(&at_5.retiles)), (5, vec![2]));
        let resume = program(true, false);
        let placed_5 = Placed::new(&cfg, &at_5.particles);
        let start = Start::Restore(&at_5, &placed_5, plan.exchanges_once);
        let mut restored = world().run(|comm| run_pe(comm, &cfg, resume, start, None));
        let rank0 = restored.swap_remove(0);
        let report = rank0.report.expect("rank 0 reports");
        let snapshot = rank0.snapshot.expect("rank 0 gathers the snapshot");
        assert_eq!(report.retiles, reference.retiles);
        assert_eq!(
            digest_recovery(&report, &snapshot, cfg.load_metric),
            digest_recovery(&reference, &reference_snapshot, cfg.load_metric)
        );
    }

    #[test]
    fn recovery_without_faults_completes_in_one_attempt() {
        let cfg = recovery_cfg();
        let out = fault_free(&cfg);
        assert_eq!(out.attempts, 1);
        assert!(out.failures.is_empty());
        let (rep, snap) = run_with_snapshot(&cfg);
        assert_eq!(out.snapshot, snap);
        assert_eq!(out.digest, digest_recovery(&rep, &snap, cfg.load_metric));
    }

    #[test]
    fn recovery_restores_the_last_checkpoint_and_matches_bitwise() {
        use pcdlb_mp::FaultPlan;
        let cfg = recovery_cfg();
        let reference = fault_free(&cfg);
        // Kill rank 2 deep enough into the run that a checkpoint exists
        // (it sends some three messages a step — a frame per hop and its
        // stats — so step 5's gather is its 18th or so, and its 70th send
        // falls in step 21, after the checkpoint of step 20).
        let kill = |launch, rank| (launch == 0 && rank == 2).then(|| FaultPlan::kill_at(70));
        let out = faulted(kill)
            .run_resilient(&cfg, &ladder())
            .expect("second attempt recovers");
        assert_eq!(out.attempts, 2);
        assert_eq!(out.failures.len(), 1);
        assert!(
            out.failures[0]
                .failures
                .iter()
                .any(|f| f.rank == 2 && f.message.contains("killed by injected fault")),
            "diagnostics name the injected kill: {}",
            out.failures[0]
        );
        assert_eq!(
            out.digest, reference.digest,
            "recovered run must be bitwise identical to the uninterrupted run"
        );
        assert_eq!(out.snapshot, reference.snapshot);
        assert_eq!(out.report.records.len(), reference.report.records.len());
        for (a, b) in out.report.records.iter().zip(&reference.report.records) {
            // wall_s legitimately differs; every deterministic field must not.
            assert_eq!((a.step, a.t_step.to_bits()), (b.step, b.t_step.to_bits()));
            assert_eq!(a.kinetic.to_bits(), b.kinetic.to_bits());
        }
    }

    #[test]
    fn resilient_runs_with_sentinel_are_digest_neutral() {
        let cfg = recovery_cfg();
        let mut watched = recovery_cfg();
        watched.sentinel_interval = 4;
        let plain = fault_free(&cfg);
        let out = fault_free(&watched);
        assert_eq!(out.attempts, 1, "the sentinel is quiet");
        assert_eq!(
            out.digest, plain.digest,
            "a quiet sentinel must not perturb any reported step"
        );
        assert_eq!(out.snapshot, plain.snapshot);
    }

    #[test]
    fn a_working_balancer_survives_a_death_bitwise() {
        use crate::engine::{run_pe, Program, Start};
        use crate::launch::{launch_plan, Placed};
        use pcdlb_core::protocol::tags;
        use pcdlb_domain::DomainShape;
        use pcdlb_mp::collectives::ctag;
        use pcdlb_mp::FaultPlan;
        use std::sync::Mutex;
        // Which neighbour is offered the cell is a pure function of the
        // loads in hand, the pending decisions and the ownership view —
        // all of which a checkpoint carries — so a run restored from a
        // checkpoint makes the same transfers as the uninterrupted one.
        let cfg = busy_balancer_cfg();
        let reference = fault_free(&cfg);
        // The checkpoint the relaunch restores — step 5's, taken here by
        // a run that drains there — carries a pending decision: the
        // restored ranks land it and book its work before they decide.
        let mut to_5 = cfg.clone();
        to_5.steps = 5;
        let (shape, sink) = (DomainShape::SquarePillar, Mutex::new(None));
        let placed = Placed::new(&to_5, &initial_particles(&to_5));
        let plan = launch_plan(shape, &to_5, 0, &placed.column_work(), true);
        let program = Program {
            shape,
            retile: Some(0),
            snapshot: false,
            drain: true,
        };
        let start = Start::Fresh(&placed, &plan);
        pcdlb_mp::World::new(to_5.p).run(|comm| run_pe(comm, &to_5, program, start, Some(&sink)));
        let at_5 = sink.into_inner().unwrap().expect("a drain at step 5");
        assert_eq!(at_5.step, 5);
        assert!(!at_5.transfers.is_empty(), "nothing pending at step 5");
        // Rank 4 is the south-east neighbour the hot rank cannot send to.
        // It dies on its sixth stats gather: in step 6, the step that
        // decided on what the checkpoint at step 5 had to carry.
        let in_step_6 = || FaultPlan::kill_on_tag(ctag(tags::STATS, 0), 5);
        let kill = move |launch, rank| (launch == 0 && rank == 4).then(in_step_6);
        let relaunched = faulted(kill).run_resilient(&cfg, &ladder());
        let relaunched = relaunched.expect("recovers");
        assert_eq!(relaunched.attempts, 2, "the run was restored, not replayed");
        assert_eq!(
            relaunched.digest, reference.digest,
            "relaunch from a checkpoint"
        );
        assert_eq!(relaunched.snapshot, reference.snapshot);
    }

    #[test]
    fn a_run_on_uneven_tiles_is_restored_bitwise() {
        use pcdlb_core::protocol::tags;
        use pcdlb_mp::collectives::ctag;
        use pcdlb_mp::FaultPlan;
        // The benchmark's `cluster_dlb_p9` to the letter, a sentinel
        // watching. The tiling is part of what a checkpoint carries: a
        // world restored from one rebuilds its home tiles — which PE is home to which column, which
        // columns are wall — on the cuts the step-2 check refined from
        // the launch's (2·1·9 × 1·2·9), not on the even ones `cfg` alone
        // implies.
        let mut cfg = busy_balancer_cfg();
        cfg.dlb_min_gain = 0.02;
        cfg.seed = 1;
        cfg.sentinel_interval = 4;
        let reference = fault_free(&cfg);
        let tiling = reference.report.tiling.expect("a pillar run");
        assert_eq!(tiling.to_string(), "2·1·9 from 0 × 1·3·8 from 2");
        assert_eq!(reference.report.retiles.len(), 1);
        // Rank 8 holds the 9 × 8 tile that does the lending. It dies on
        // its eighth stats gather: in step 8, three steps after the
        // checkpoint the relaunch restores.
        let in_step_8 = || FaultPlan::kill_on_tag(ctag(tags::STATS, 0), 7);
        let kill = move |launch, rank| (launch == 0 && rank == 8).then(in_step_8);
        let relaunched = faulted(kill).run_resilient(&cfg, &ladder());
        let relaunched = relaunched.expect("recovers");
        assert_eq!(relaunched.attempts, 2, "the run was restored, not replayed");
        assert_eq!(relaunched.digest, reference.digest, "relaunch");
        assert_eq!(clockless(&relaunched), clockless(&reference));
        assert_eq!(relaunched.snapshot, reference.snapshot);
        assert_eq!(relaunched.report.tiling, Some(tiling));
        assert_eq!(
            relaunched.report.cells_per_rank,
            reference.report.cells_per_rank
        );
    }

    #[test]
    fn a_planned_launch_survives_a_death_before_its_first_checkpoint_bitwise() {
        use pcdlb_core::protocol::tags;
        use pcdlb_mp::collectives::ctag;
        use pcdlb_mp::FaultPlan;
        // The launch plan is a pure function of the configuration and the
        // initial condition, so a world that starts over from step 0 — a
        // relaunch with no checkpoint to restore — starts where the first
        // launch started, and ends where an uninterrupted run ends.
        let cfg = busy_balancer_cfg();
        let reference = fault_free(&cfg);
        let tiling = reference.report.tiling.expect("a pillar run");
        assert!(!tiling.is_even(), "the tiles are cut through the cluster");
        assert!(reference.report.launch_transfers > 0);
        // Rank 4 dies on its third stats gather: in step 3, two steps
        // before the first checkpoint.
        let in_step_3 = || FaultPlan::kill_on_tag(ctag(tags::STATS, 0), 2);
        let kill = move |launch, rank| (launch == 0 && rank == 4).then(in_step_3);
        let relaunched = faulted(kill).run_resilient(&cfg, &ladder());
        let relaunched = relaunched.expect("recovers");
        assert_eq!(relaunched.attempts, 2);
        assert_eq!(
            relaunched.digest, reference.digest,
            "relaunch from the initial condition"
        );
        assert_eq!(clockless(&relaunched), clockless(&reference));
        assert_eq!(relaunched.snapshot, reference.snapshot);
        assert_eq!(
            relaunched.report.launch_transfers,
            reference.report.launch_transfers
        );
        assert_eq!(relaunched.report.tiling, Some(tiling));
    }

    #[test]
    fn a_re_tile_survives_a_death_inside_it_and_restores_onto_its_tiling() {
        use pcdlb_core::protocol::tags;
        use pcdlb_mp::collectives::ctag;
        use pcdlb_mp::FaultPlan;
        // A 4 × 4 corner cluster that re-tiles at step 2 (its first check),
        // 10, 14 and 16 — 8, 4 and 2 steps after the re-tile before — with
        // checkpoints every 5 steps and a sentinel watching. The check and
        // the move are the step's messages like any other, and the re-tile
        // is a pure function of the state the check sees, so a world that
        // dies inside such a step — in the check's gather, or sending a
        // moved column — replays it to the bit by relaunch: the step-10 check from the checkpoint of step 5, the step-2 move
        // from the launch. One that dies after the checkpoint of step 10
        // restores onto the tiling the step-10 re-tile left, counts its
        // checks from there and makes the last two as the run did.
        let mut cfg = RunConfig::from_p_m_density(16, 4, 0.128);
        cfg.lattice = Lattice::Cluster { fill: 0.4 };
        cfg.dlb = true;
        cfg.seed = 1;
        cfg.steps = 20;
        cfg.checkpoint_interval = 5;
        cfg.sentinel_interval = 4;
        cfg.comm = recovery_cfg().comm;
        let reference = fault_free(&cfg);
        let retiled: Vec<u64> = reference.report.retiles.iter().map(|r| r.0).collect();
        assert_eq!(retiled, [2, 10, 14, 16]);
        let tiling = reference.report.retiles[3].1;
        assert_eq!(reference.report.tiling, Some(tiling));
        let parity = |out: &LadderOutcome, what: &str| {
            assert_eq!(out.digest, reference.digest, "{what}");
            assert_eq!(out.snapshot, reference.snapshot, "{what}");
            assert_eq!(out.report.retiles, reference.report.retiles, "{what}");
            assert_eq!(out.report.tiling, Some(tiling), "{what}");
        };
        // After the checkpoint of step 10: restored onto the step-10
        // re-tile's tiling, ahead of the checks that make the next two.
        let in_step_11 = || FaultPlan::kill_on_tag(ctag(tags::STATS, 0), 10);
        let kill = move |launch, rank| (launch == 0 && rank == 5).then(in_step_11);
        let restored = faulted(kill)
            .run_resilient(&cfg, &ladder())
            .expect("recovers");
        assert_eq!(restored.attempts, 2);
        parity(&restored, "restored between the re-tiles");
        // Inside a re-tile step: in the check's gather (the fourth a
        // non-root rank contributes to: step 10's), or at the first frame
        // of moved columns a rank sends (step 2's).
        let deaths: [(&str, u64, u64); 2] = [
            ("check", ctag(tags::RETILE_GATHER, 0), 3),
            ("move", tags::RETILE_XFER, 0),
        ];
        for (what, tag, nth) in deaths {
            let fired = (1..cfg.p).find_map(|rank| {
                let kill = move |launch, r| {
                    (launch == 0 && r == rank).then(|| FaultPlan::kill_on_tag(tag, nth))
                };
                let out = faulted(kill).run_resilient(&cfg, &ladder()).expect(what);
                (out.attempts == 2).then_some(out)
            });
            let relaunched = fired.unwrap_or_else(|| panic!("no {what} kill fired"));
            parity(&relaunched, what);
        }
    }

    #[test]
    fn recovery_gives_up_after_max_attempts_with_all_diagnostics() {
        use pcdlb_mp::FaultPlan;
        let cfg = recovery_cfg();
        let err = faulted(|_launch, rank| (rank == 1).then(|| FaultPlan::kill_at(3)))
            .run_resilient(&cfg, &ladder())
            .expect_err("every attempt dies");
        assert_eq!(err.attempts, 3);
        assert_eq!(err.failures.len(), 3);
        assert!(err.to_string().contains("all 3 attempt(s)"), "{err}");
    }

    #[test]
    fn a_resilient_launch_takes_its_deadlines_from_the_config() {
        // The ladder has no timing of its own: every world it launches
        // waits as `cfg.comm` says.
        use std::sync::{Arc, Mutex};
        let mut cfg = recovery_cfg();
        cfg.comm.watchdog = Duration::from_secs(7);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let watchdogs = Arc::clone(&seen);
        let launch = Launch::new().on_start(move |_launch, comm| {
            watchdogs.lock().unwrap().push(comm.watchdog());
        });
        launch.run_resilient(&cfg, &ladder()).expect("no faults");
        assert_eq!(*seen.lock().unwrap(), [cfg.comm.watchdog; 4]);
    }
}
