//! Launching parallel runs and assembling their reports.

use pcdlb_domain::DomainShape;
use pcdlb_md::Particle;
use pcdlb_mp::World;

use crate::config::RunConfig;
use crate::pe::{initial_particles, pe_main, PeResult};
use crate::report::{PhaseTimes, RunReport, WireBytes};

/// Run a configuration to completion; returns rank 0's report with
/// communication totals aggregated over all ranks.
pub fn run(cfg: &RunConfig) -> RunReport {
    run_inner(cfg, DomainShape::SquarePillar, false).0
}

/// Like [`run`], but also returns the wall-clock phase breakdown and the
/// per-phase bytes-on-wire counters, both summed over all ranks. Phase
/// times are all zeros unless the `wallclock-instrumentation` feature is
/// enabled; the byte counters are always live (and deterministic). The
/// scaling bench uses both to report where each configuration spends its
/// time and its wire budget.
pub fn run_with_phase_times(cfg: &RunConfig) -> (RunReport, PhaseTimes, WireBytes) {
    let results = run_ranks(cfg, DomainShape::SquarePillar, false);
    let mut phases = PhaseTimes::default();
    let mut wire = WireBytes::default();
    for r in &results {
        phases.merge(&r.phase_times);
        wire.merge(&r.wire_bytes);
    }
    (assemble(results).0, phases, wire)
}

/// Like [`run`], but also gathers the final particle state (sorted by
/// id) — the snapshot validation tests compare against the serial
/// reference.
pub fn run_with_snapshot(cfg: &RunConfig) -> (RunReport, Vec<Particle>) {
    let (report, snap) = run_inner(cfg, DomainShape::SquarePillar, true);
    (report, snap.expect("snapshot requested"))
}

/// Validate `cfg` for `shape` and build the world it runs in.
fn world(cfg: &RunConfig, shape: DomainShape) -> World {
    crate::decomp::validate(cfg, shape);
    World::new(cfg.p)
        .with_cost_model(crate::decomp::cost_model(shape, cfg))
        .with_comm_config(&cfg.comm)
}

/// The one launch path of every plain run: any domain shape, with or
/// without the final snapshot.
pub(crate) fn run_inner(
    cfg: &RunConfig,
    shape: DomainShape,
    want_snapshot: bool,
) -> (RunReport, Option<Vec<Particle>>) {
    assemble(run_ranks(cfg, shape, want_snapshot))
}

/// Launch the world: the initial condition is generated once and every
/// rank adopts its cells' share of the one read-only slice.
fn run_ranks(cfg: &RunConfig, shape: DomainShape, want_snapshot: bool) -> Vec<PeResult> {
    let world = world(cfg, shape);
    let initial = initial_particles(cfg);
    world.run(|comm| pe_main(comm, cfg, shape, &initial, want_snapshot))
}

pub(crate) fn assemble(mut results: Vec<PeResult>) -> (RunReport, Option<Vec<Particle>>) {
    let comm_virtual: f64 = results.iter().map(|r| r.comm_stats.virtual_comm_s).sum();
    let msgs: u64 = results.iter().map(|r| r.comm_stats.msgs_sent).sum();
    let bytes: u64 = results.iter().map(|r| r.comm_stats.bytes_sent).sum();
    let desyncs: u64 = results.iter().map(|r| r.ghost_desyncs).sum();
    let retransmits: u64 = results.iter().map(|r| r.comm_stats.retransmits).sum();
    let suspicions: u64 = results.iter().map(|r| r.comm_stats.suspicions).sum();
    let cells_per_rank: Vec<usize> = results.iter().map(|r| r.cells).collect();
    let rank0 = results.swap_remove(0);
    let mut report = rank0.report.expect("rank 0 produces the report");
    report.comm_virtual_s = comm_virtual;
    report.msgs_sent = msgs;
    report.bytes_sent = bytes;
    report.ghost_desyncs = desyncs;
    report.retransmits = retransmits;
    report.suspicions = suspicions;
    report.cells_per_rank = cells_per_rank;
    (report, rank0.snapshot)
}

/// Run a configuration under a controlled message-delivery schedule
/// (`check` feature) and return the determinism digest of the outcome —
/// see [`crate::digest`]. `policy_for_rank` builds each rank's
/// [`DeliveryPolicy`](pcdlb_mp::check::DeliveryPolicy); the interleaving
/// explorer in `pcdlb-check` calls this with many schedules and asserts
/// every returned digest is identical.
#[cfg(feature = "check")]
pub fn run_digest_with_policy<P>(cfg: &RunConfig, policy_for_rank: P) -> u64
where
    P: Fn(usize) -> Box<dyn pcdlb_mp::check::DeliveryPolicy> + Sync,
{
    let shape = DomainShape::SquarePillar;
    let world = world(cfg, shape);
    let initial = initial_particles(cfg);
    let results: Vec<PeResult> = world.run_with_delivery(policy_for_rank, |comm| {
        pe_main(comm, cfg, shape, &initial, true)
    });
    let (report, snapshot) = assemble(results);
    crate::digest::digest_run(
        &report,
        &snapshot.expect("snapshot requested"),
        cfg.load_metric,
    )
}

/// Like [`run_digest_with_policy`], but additionally binds each rank
/// thread to a protocol event log (`log_for_rank`), so the model checker
/// in `pcdlb-check` gets both the determinism digest and the full
/// per-rank [`ProtocolEvent`](pcdlb_mp::check::ProtocolEvent) traces of
/// the run.
#[cfg(feature = "check")]
pub fn run_digest_instrumented<P, L>(cfg: &RunConfig, policy_for_rank: P, log_for_rank: L) -> u64
where
    P: Fn(usize) -> Box<dyn pcdlb_mp::check::DeliveryPolicy> + Sync,
    L: Fn(usize) -> pcdlb_mp::check::EventLog + Sync,
{
    let shape = DomainShape::SquarePillar;
    let world = world(cfg, shape);
    let initial = initial_particles(cfg);
    let results: Vec<PeResult> = world.run_instrumented(policy_for_rank, log_for_rank, |comm| {
        pe_main(comm, cfg, shape, &initial, true)
    });
    let (report, snapshot) = assemble(results);
    crate::digest::digest_run(
        &report,
        &snapshot.expect("snapshot requested"),
        cfg.load_metric,
    )
}

/// Run the serial reference simulator on the same configuration,
/// returning the final particle state (sorted by id). Uses the identical
/// initial condition, integrator, thermostat and pair-summation order as
/// the parallel simulator, so results must agree **bitwise**.
pub fn run_serial(cfg: &RunConfig) -> Vec<Particle> {
    // No parallel-geometry validation here: the serial reference also
    // baselines plane-decomposed configs whose P is not a perfect square.
    // SerialSim::new asserts the cutoff/cell-size constraint itself.
    let mut sim = serial_sim(cfg);
    for _ in 0..cfg.steps {
        sim.step();
    }
    sim.snapshot()
}

/// Construct the serial reference simulator for a config, ready to step
/// (its initial forces are evaluated once, by the first step). Threads the skin/Verlet settings and the
/// checkpoint cadence through, so the serial rebuild-step sequence is
/// the identical pure function the parallel ranks agree on — bitwise
/// parity includes the epoch schedule.
pub fn serial_sim(cfg: &RunConfig) -> pcdlb_md::SerialSim {
    let mut sim = pcdlb_md::SerialSim::new(
        initial_particles(cfg),
        cfg.nc,
        cfg.box_len(),
        cfg.lj,
        cfg.dt,
        cfg.thermostat(),
    );
    if !cfg.pull().is_none() {
        sim.set_pull(cfg.pull());
    }
    if cfg.skin > 0.0 {
        sim = sim.with_skin(cfg.skin, cfg.verlet);
        sim.set_forced_rebuild_interval(cfg.checkpoint_interval);
    }
    sim
}
