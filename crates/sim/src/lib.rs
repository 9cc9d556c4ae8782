//! `pcdlb-sim` — the parallel SPMD molecular-dynamics simulator.
//!
//! Ties the substrates together: `pcdlb-mp` ranks run the per-PE program
//! in [`pe`], sequenced by the run loop in [`engine`] — one step engine
//! for all three domain shapes of the paper's Fig. 2 — integrating
//! `pcdlb-md` physics. A shape is a small
//! `Decomposition` (who owns which cell, what its balancer may move): the
//! square pillar over `pcdlb-domain`'s columns balanced by the
//! `pcdlb-core` permanent-cell protocol, the [`plane`] ring with its
//! moving boundaries, the DDM-only [`cube`].
//!
//! [`driver`] is the one front door. A [`Launch`] describes how a
//! [`config::RunConfig`] is started (shape, final snapshot) and
//! [`Launch::run`] returns a [`report::RunReport`] with the per-step series
//! the paper plots (Tt, Fmax/Fave/Fmin, the concentration trajectory);
//! [`run`]`(&cfg)` is the square-pillar shorthand. [`Launch::run_resilient`]
//! runs the same program under a [`Ladder`] — checkpoint relaunch
//! ([`recover`]) and elastic resizing ([`elastic`]) — each rung selected
//! by data.
//!
//! The headline correctness property: a snapshot-gathering launch of any
//! shape and [`driver::run_serial`] produce **bitwise identical** particle
//! states for any PE count, with and without load balancing — DLB moves
//! ownership, never physics.

pub mod clock;
pub mod config;
pub mod cube;
mod decomp;
pub mod digest;
pub mod driver;
pub mod elastic;
pub mod engine;
pub mod frame;
pub mod launch;
pub mod pe;
pub mod plane;
pub mod recover;
pub mod report;
mod stats;
#[cfg(test)]
mod wire_check;

pub use config::{ConfigError, Lattice, LoadMetric, RunConfig, SpeedSchedule};
pub use digest::{digest_particles, digest_records, digest_recovery, digest_report, digest_run};
pub use driver::{
    run, run_serial, run_with_phase_times, run_with_snapshot, serial_sim, Ladder, LadderOutcome,
    Launch, Run,
};
pub use elastic::{ResizeGeneration, ResizePlan, ResizeStage};
pub use launch::{launch_plan, launch_plan_on, retile_plan, LaunchPlan, Placed};
pub use pcdlb_domain::DomainShape;
pub use recover::{RecoveryError, SimCheckpoint};
pub use report::{PhaseTimes, RunReport, StepRecord, WireBytes};
