//! Tier-1's view of the front door: one launch description, a plain and a
//! resilient terminal, and a recovery ladder whose rungs are data. Without
//! faults every rung runs the same physics as the plain launch, in one
//! launch per world generation, and a rank killed mid-run costs one more
//! launch and nothing else; an illegal composition is refused before any
//! rank thread starts.

use std::time::Duration;

use pcdlb::mp::FaultPlan;
use pcdlb::sim::{
    digest_recovery, run_serial, DomainShape, Ladder, Lattice, Launch, ResizePlan, RunConfig,
};

/// The 2×2 recovery workload: DDM only (P = 4 cannot run DLB), clustered
/// start so migration and ghost traffic are busy, thermostat firing
/// mid-run, a checkpoint every 5 of 24 steps. A tight poll so an abort
/// propagates fast, a watchdog short enough that a wedged receive fails
/// the test promptly.
fn recovery_cfg() -> RunConfig {
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

fn ladder(plan: ResizePlan) -> Ladder {
    Ladder {
        max_attempts: 3,
        plan,
    }
}

#[test]
fn every_rung_matches_the_plain_launch_and_serial_bitwise() {
    let cfg = recovery_cfg();
    let serial = run_serial(&cfg);
    let run = Launch::new().snapshot().run(&cfg);
    // The wall clocks run in every build; no digest or decision reads them.
    assert!(run.phases.force > 0.0, "force pass timed: {:?}", run.phases);
    assert!(run.report.wall_s > 0.0, "run timed: {}", run.report.wall_s);
    let (report, snapshot) = run.into_snapshot();
    assert_eq!(snapshot, serial, "plain launch");
    let digest = digest_recovery(&report, &snapshot, cfg.load_metric);

    // A resize changes who computes what, so its per-step records (and
    // with them the digest) are its own; the physics is everybody's.
    let grow_and_shrink = ResizePlan::new().resize(8, 16).resize(16, 4);
    // Rank 2 of the first launch dies at its 70th send (some three a step,
    // so in step 21, after the checkpoint of step 20); the relaunch
    // restores that checkpoint.
    let killed = Launch::new().on_start(|launch, comm| {
        if launch == 0 && comm.rank() == 2 {
            comm.set_fault_plan(FaultPlan::kill_at(70));
        }
    });
    for (rung, launch, ladder, generations, deaths) in [
        ("relaunch", Launch::new(), ladder(ResizePlan::new()), 1, 0),
        ("4 → 16 → 4", Launch::new(), ladder(grow_and_shrink), 3, 0),
        ("killed", killed, ladder(ResizePlan::new()), 1, 1),
    ] {
        let out = launch
            .run_resilient(&cfg, &ladder)
            .expect("every rung completes");
        if generations == 1 {
            assert_eq!(out.digest, digest, "{rung}");
        }
        assert_eq!(out.report.records.len(), cfg.steps as usize, "{rung}");
        assert_eq!(out.snapshot, serial, "{rung}");
        assert_eq!(out.generations.len(), generations, "{rung}");
        assert_eq!(
            out.attempts,
            generations + deaths,
            "{rung}: one launch each, one more per death"
        );
        assert_eq!(out.failures.len(), deaths, "{rung}");
        for failed in &out.failures {
            assert!(
                (failed.failures.iter())
                    .any(|f| f.rank == 2 && f.message.contains("killed by injected fault")),
                "{rung}: the diagnostics name the injected kill: {failed}"
            );
        }
    }
}

/// The message of the panic `f` dies with. A resilient launch contains
/// its ranks' panics — they come back as a `RecoveryError` — so a panic
/// that reaches the caller was raised before any rank thread existed.
fn refusal(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("the launch is refused");
    let message = payload.downcast_ref::<String>().cloned();
    message.unwrap_or_else(|| {
        payload
            .downcast_ref::<&str>()
            .expect("a message")
            .to_string()
    })
}

#[test]
fn illegal_compositions_are_refused_before_any_rank_starts() {
    for (shape, p) in [(DomainShape::Plane, 3), (DomainShape::Cube, 8)] {
        let cfg = RunConfig {
            p,
            ..recovery_cfg()
        };
        let why = refusal(move || {
            let _ = Launch::new()
                .shape(shape)
                .run_resilient(&cfg, &Ladder::default());
        });
        assert!(why.contains("needs the square pillar"), "{shape:?}: {why}");
    }

    // Roomy cells (≈3.0 ≥ r_c + skin) so the skin itself is legal.
    let mut cfg = RunConfig::new(583, 6, 4, 583.0 / 18.0f64.powi(3));
    cfg.dlb = false;
    cfg.steps = 12;
    cfg.skin = 0.4;
    let skinned = cfg.clone();
    let plan = ResizePlan::new().resize(6, 9);
    let why = refusal(move || {
        let _ = Launch::new().run_resilient(&skinned, &ladder(plan));
    });
    assert!(why.contains("does not support skin epochs"), "{why}");
    // The assertion belongs to the plan, not to the ladder: the same
    // config keeps its world and runs its skin epochs under relaunch.
    let out = Launch::new().run_resilient(&cfg, &ladder(ResizePlan::new()));
    assert_eq!(
        out.expect("no faults").snapshot,
        run_serial(&cfg),
        "skin epochs"
    );
}
