//! The front door: every parallel run starts here.
//!
//! A run is described by data, not by which function is called. A
//! [`Launch`] says *how* a [`RunConfig`] is started — the domain shape,
//! whether the final particle state is gathered, whether a balancing
//! square pillar's tiles follow the load or stay where the launch cut them
//! ([`Launch::fixed_tiles`]) and what every rank thread does before the
//! program ([`Launch::on_start`]) — and has two terminals:
//!
//! - [`Launch::run`], the **plain** launch: any shape, one world; a rank's
//!   panic resurfaces on the caller with its original payload.
//! - [`Launch::run_resilient`], the **resilient** launch (square pillar
//!   only): the recovery ladder as a [`Ladder`] value — relaunch from the
//!   last checkpoint, optionally a [`ResizePlan`] of world generations
//!   ([`crate::elastic`]). One generations × attempts loop runs both
//!   rungs; a rank death, a self-fence or a sentinel abort tears the world
//!   down and relaunches it.
//!
//! [`run`], [`run_with_snapshot`] and [`run_with_phase_times`] are one-line
//! forwards for the common plain launches.
//!
//! The headline property of the ladder (tested in [`crate::recover`] and
//! [`crate::elastic`], swept by `pcdlb-check sweep`):
//! a recovered or resized run's particle state and per-step
//! record series are **bitwise identical** to an uninterrupted run's, no
//! matter where a fault struck. Only the run-total message counters differ
//! (retransmission), which is why parity is asserted on
//! [`digest_recovery`] rather than [`digest_run`](crate::digest::digest_run).

use std::sync::{Mutex, PoisonError};

use pcdlb_domain::{DomainShape, PillarLayout};
use pcdlb_md::Particle;
use pcdlb_mp::{Comm, World, WorldError};

use crate::clock::WallTimer;
use crate::config::{ensure, ConfigError, RunConfig};
use crate::digest::digest_recovery;
use crate::elastic::{remap_drained_checkpoint, ResizeGeneration, ResizePlan, ResizeStage};
use crate::engine::{launch, run_launched, run_pe, Program, Start};
use crate::launch::{launch_plan, LaunchPlan, Placed};
use crate::pe::{initial_particles, PeResult};
use crate::recover::{RecoveryError, SimCheckpoint};
use crate::report::{PhaseTimes, RunReport, WireBytes};

/// What every rank thread runs before the program, given the launch
/// number and the rank's endpoint.
type StartHook = std::sync::Arc<dyn Fn(usize, &mut Comm) + Send + Sync>;

/// How to launch a [`RunConfig`] — see the [module docs](self).
#[derive(Clone)]
pub struct Launch {
    shape: DomainShape,
    snapshot: bool,
    fixed_tiles: bool,
    on_start: Option<StartHook>,
}

impl Default for Launch {
    fn default() -> Self {
        Self::new()
    }
}

/// What a plain launch produced.
#[derive(Debug)]
pub struct Run {
    /// Rank 0's report with communication totals aggregated over all ranks.
    pub report: RunReport,
    /// Final particle state, id-sorted, when [`Launch::snapshot`] asked for
    /// it (the gather costs P − 1 messages).
    pub snapshot: Option<Vec<Particle>>,
    /// Wall-clock phase breakdown summed over all ranks: measured, so it
    /// varies run to run, and read by no decision or digest.
    pub phases: PhaseTimes,
    /// Per-phase bytes on the wire summed over all ranks: always live, and
    /// deterministic.
    pub wire: WireBytes,
}

impl Run {
    /// The report and the snapshot of a launch that gathered one.
    pub fn into_snapshot(self) -> (RunReport, Vec<Particle>) {
        (self.report, self.snapshot.expect("snapshot requested"))
    }
}

/// The recovery ladder of a resilient launch, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ladder {
    /// Launches a world generation may take (first run + relaunches) before
    /// the run gives up with a [`RecoveryError`]. Every relaunch restores
    /// the last checkpoint: set `cfg.checkpoint_interval > 0` to bound the
    /// re-executed work (with it at 0 a relaunch restarts the generation).
    pub max_attempts: usize,
    /// Planned changes of the PE count (see [`crate::elastic`]); empty for
    /// a run that keeps its world. A non-empty plan needs `cfg.skin == 0`.
    pub plan: ResizePlan,
}

impl Default for Ladder {
    /// One world, up to 8 launches.
    fn default() -> Self {
        Self {
            max_attempts: 8,
            plan: ResizePlan::new(),
        }
    }
}

impl Ladder {
    /// Check this ladder over `cfg` launched as `shape` — the shape
    /// restores from a checkpoint, the configuration is sound
    /// ([`RunConfig::check`]), the plan is well-formed and cuts no skin
    /// epoch, there is an attempt to make — the first violated constraint
    /// as a [`ConfigError`].
    pub fn check(&self, cfg: &RunConfig, shape: DomainShape) -> Result<(), ConfigError> {
        use ConfigError::*;
        ensure(shape == DomainShape::SquarePillar, NotPillar)?;
        cfg.check(shape)?;
        let (steps, nc) = (cfg.steps, cfg.nc);
        let mut prev = 0u64;
        for &ResizeStage { at_step, p } in &self.plan.stages {
            ensure(at_step > prev, ResizeOrder { at_step, prev })?;
            ensure(at_step < steps, ResizePastEnd { at_step, steps })?;
            let side = (p as f64).sqrt().round() as usize;
            ensure(p > 0 && side * side == p, ResizeNotSquare { p })?;
            ensure(nc.is_multiple_of(side), ResizeSide { p, side, nc })?;
            ensure(side <= PillarLayout::MAX_SIDE, PillarTooWide { side })?;
            prev = at_step;
        }
        let keeps_epochs = self.plan.stages.is_empty() || cfg.skin == 0.0;
        ensure(keeps_epochs, ResizeWithSkin)?;
        ensure(self.max_attempts > 0, NoAttempts)
    }
}

/// What a resilient launch produced.
#[derive(Debug)]
pub struct LadderOutcome {
    /// Rank 0's assembled report: the **complete** record series from
    /// step 1 across every launch and generation (records ride the
    /// checkpoints), bitwise identical to an uninterrupted run's, with
    /// run-total message counters from the final launch only.
    pub report: RunReport,
    /// Final particle state, id-sorted — bitwise identical to an
    /// uninterrupted serial run.
    pub snapshot: Vec<Particle>,
    /// [`digest_recovery`] of the outcome — the parity invariant.
    pub digest: u64,
    /// Total launches across all generations (= number of generations
    /// when nothing failed).
    pub attempts: usize,
    /// Per-launch failure diagnostics for launches that died.
    pub failures: Vec<WorldError>,
    /// One entry per generation, in run order.
    pub generations: Vec<ResizeGeneration>,
}

impl Launch {
    /// The default launch: square pillar, no snapshot, tiles that follow
    /// the load.
    pub fn new() -> Self {
        Self {
            shape: DomainShape::SquarePillar,
            snapshot: false,
            fixed_tiles: false,
            on_start: None,
        }
    }

    /// Keep a balancing square pillar's tiles where the launch cuts them:
    /// the paper's scheme. The tiles are cut once, none under two columns
    /// wide so every tile keeps a movable column for the in-run balancer,
    /// and the run never checks its tiling again. Without it a balancing
    /// square pillar launches on tiles as thin as one column and
    /// re-examines them 2, 4, 8, … steps after they were last chosen,
    /// re-tiling in place where the modelled saving pays for the move
    /// ([`crate::launch`], [`crate::pe`]). No effect on any other run.
    pub fn fixed_tiles(mut self) -> Self {
        self.fixed_tiles = true;
        self
    }

    /// Whether a run of `cfg` re-tiles in place: a balancing square pillar
    /// launched without [`Launch::fixed_tiles`].
    fn retiles(&self, cfg: &RunConfig) -> bool {
        !self.fixed_tiles && self.shape == DomainShape::SquarePillar && cfg.dlb
    }

    /// What the ranks of a launch of `cfg` run, its tiling chosen at step
    /// `launched`.
    fn program(&self, cfg: &RunConfig, launched: u64, drain: bool) -> Program {
        Program {
            shape: self.shape,
            retile: self.retiles(cfg).then_some(launched),
            snapshot: self.snapshot,
            drain,
        }
    }

    /// Decompose the box into `shape` domains.
    pub fn shape(mut self, shape: DomainShape) -> Self {
        self.shape = shape;
        self
    }

    /// Gather the final particle state to rank 0 after the last step.
    pub fn snapshot(mut self) -> Self {
        self.snapshot = true;
        self
    }

    /// Run `hook(launch, comm)` on every rank's own thread before the
    /// program: the one place a sweep, a model checker or a test
    /// installs an event log, a delivery policy or a fault plan. `launch`
    /// numbers the worlds of a run from 0, across generations and
    /// relaunches alike (a plain launch is launch 0).
    pub fn on_start(mut self, hook: impl Fn(usize, &mut Comm) + Send + Sync + 'static) -> Self {
        self.on_start = Some(std::sync::Arc::new(hook));
        self
    }

    /// The world one launch of the (validated) `cfg` runs in: the only
    /// place a `World` is built.
    fn world(&self, cfg: &RunConfig, launch: usize) -> World {
        let world = World::new(cfg.p)
            .with_cost_model(crate::decomp::cost_model(self.shape, cfg))
            .with_comm_config(&cfg.comm);
        if let Some(hook) = self.on_start.clone() {
            return world.with_start_hook(move |comm| hook(launch, comm));
        }
        world
    }

    /// What every rank of a world that starts at step 0 starts from: the
    /// initial condition, generated and placed in its cells once, and —
    /// where the run balances — the tiling its launch plan chose and the
    /// transfers it makes on it ([`launch_plan`]).
    fn fresh(&self, cfg: &RunConfig) -> (Placed, LaunchPlan) {
        let placed = Placed::new(cfg, &initial_particles(cfg));
        let plan = launch_plan(self.shape, cfg, 0, &placed.column_work(), self.retiles(cfg));
        (placed, plan)
    }

    /// The plain launch: run `cfg` to completion in one world. Every rank
    /// replays the launch plan and adopts its cells' runs of the one
    /// read-only placement.
    pub fn run(&self, cfg: &RunConfig) -> Run {
        crate::decomp::validate(cfg, self.shape);
        let world = self.world(cfg, 0);
        let (placed, plan) = self.fresh(cfg);
        let program = self.program(cfg, 0, false);
        let start = Start::Fresh(&placed, &plan);
        let results = world.run(|comm| run_pe(comm, cfg, program, start, None));
        assemble(results, plan.decisions.len())
    }

    /// The resilient launch: run `cfg` under `ladder`. On any rank failure
    /// the world is torn down cleanly (collecting per-rank diagnostics)
    /// and relaunched from the last checkpoint — or the initial condition
    /// if none was taken yet — up to `ladder.max_attempts` times per
    /// generation; `ladder.plan` switches on the rung above that. The
    /// snapshot is always gathered (the parity digest
    /// needs it).
    ///
    /// Panics before any rank thread starts when the composition is not
    /// legal: only the square pillar restores from a checkpoint, and a
    /// resize cannot cut a skin epoch.
    pub fn run_resilient(
        &self,
        cfg: &RunConfig,
        ladder: &Ladder,
    ) -> Result<LadderOutcome, RecoveryError> {
        if let Err(e) = ladder.check(cfg, self.shape) {
            panic!("{e}");
        }
        let segments = ladder.plan.segments(cfg);
        let last_gen = segments.len() - 1;
        // One sink across all launches and generations: rank 0 deposits
        // checkpoints here, a relaunch restores whatever arrived last, and
        // a generation resumes from its predecessor's drain.
        let sink: Mutex<Option<SimCheckpoint>> = Mutex::new(None);
        // The initial condition does not depend on P: generated, placed and
        // planned once for every launch and rank of the first generation
        // (later ones start from their predecessor's drain, planned in
        // `remap_drained_checkpoint`).
        let (placed, plan) = self.fresh(cfg);
        let mut launch_transfers = plan.decisions.len();
        // The closure answer of the generation's launch plan: a relaunch
        // restores with it.
        let mut exchanges_once = plan.exchanges_once;
        let mut failures = Vec::new();
        let mut launches = 0;
        let mut generations = Vec::with_capacity(segments.len());
        let mut last_results = Vec::new();

        for (gen, seg) in segments.iter().enumerate() {
            let seg_cfg = generation(cfg, seg.p, seg.end);
            let retile = self.retiles(&seg_cfg);
            if gen > 0 {
                let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
                let ck = guard
                    .as_mut()
                    .expect("the previous generation drained a checkpoint");
                let gen_plan = remap_drained_checkpoint(ck, &seg_cfg, seg.start, retile);
                launch_transfers += gen_plan.decisions.len();
                exchanges_once = gen_plan.exchanges_once;
            }
            let drain = gen < last_gen;
            let program = Program {
                snapshot: true,
                ..self.program(&seg_cfg, seg.start, drain)
            };
            let completed = (0..ladder.max_attempts).find_map(|attempt| {
                let world = self.world(&seg_cfg, launches);
                launches += 1;
                // Every launch resumes from whatever checkpoint the sink
                // holds: the previous attempt's on a relaunch, the
                // predecessor's drain, or none at all (step 0).
                let ckpt = sink.lock().unwrap_or_else(PoisonError::into_inner).clone();
                // A restore's particles are placed here, once per launch.
                let restored = ckpt.map(|ck| {
                    let placed = Placed::new(&seg_cfg, &ck.particles);
                    (ck, placed)
                });
                let start = (restored.as_ref()).map_or(Start::Fresh(&placed, &plan), |(ck, at)| {
                    Start::Restore(ck, at, exchanges_once)
                });
                let outcome = world
                    .try_run(|comm: &mut Comm| run_pe(comm, &seg_cfg, program, start, Some(&sink)));
                match outcome {
                    Ok(results) => Some((attempt + 1, results)),
                    Err(e) => {
                        failures.push(e);
                        None
                    }
                }
            });
            let Some((attempts, results)) = completed else {
                return Err(RecoveryError {
                    attempts: launches,
                    failures,
                });
            };
            if drain {
                let guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
                let ck = guard.as_ref().expect("drain deposits a checkpoint");
                assert_eq!(
                    ck.step, seg.end,
                    "drain checkpoint must sit exactly on the resize boundary"
                );
            }
            generations.push(ResizeGeneration {
                p: seg.p,
                first_step: seg.start + 1,
                last_step: seg.end,
                attempts,
            });
            last_results = results;
        }

        let Run {
            report, snapshot, ..
        } = assemble(last_results, launch_transfers);
        let snapshot = snapshot.expect("resilient launches always gather a snapshot");
        let digest = digest_recovery(&report, &snapshot, cfg.load_metric);
        Ok(LadderOutcome {
            report,
            snapshot,
            digest,
            attempts: launches,
            failures,
            generations,
        })
    }

    /// For tests: run `cfg` as this launch would — from its own initial
    /// condition, or where `restart` says: from the checkpoint a first
    /// world of `cfg.p` ranks drains at `restart.at_step`, relaunched on
    /// `restart.p` ranks (on the same torus, as the ladder relaunches a
    /// world; on another, as it starts a resized generation, remapped the
    /// same way) — reading every rank's messages and bytes sent at the
    /// top of the measured world's first step. Returns those and the
    /// measured world's run, its snapshot gathered.
    #[doc(hidden)]
    pub fn sent_before_first_step(
        &self,
        cfg: &RunConfig,
        restart: Option<ResizeStage>,
    ) -> (Vec<(u64, u64)>, Run) {
        crate::decomp::validate(cfg, self.shape);
        let (placed, plan) = self.fresh(cfg);
        let measured = |cfg: &RunConfig, program: Program, start: Start| {
            let program = Program {
                snapshot: true,
                ..program
            };
            let ranks = self.world(cfg, 0).run(|comm| {
                let run_start = WallTimer::start();
                let pe = launch(comm.rank(), cfg, program.shape, program.retile, start);
                let sent = comm.stats();
                let result = run_launched(comm, cfg, program, start, pe, None, run_start);
                ((sent.msgs_sent, sent.bytes_sent), result)
            });
            let (sent, results): (Vec<_>, Vec<_>) = ranks.into_iter().unzip();
            (sent, assemble(results, plan.decisions.len()))
        };
        let Some(ResizeStage { at_step, p }) = restart else {
            let start = Start::Fresh(&placed, &plan);
            return measured(cfg, self.program(cfg, 0, false), start);
        };
        let first = generation(cfg, cfg.p, at_step);
        let sink = Mutex::new(None);
        let (drain, start) = (self.program(&first, 0, true), Start::Fresh(&placed, &plan));
        self.world(&first, 0)
            .run(|comm| run_pe(comm, &first, drain, start, Some(&sink)));
        let mut ck = (sink.into_inner().unwrap_or_else(PoisonError::into_inner))
            .expect("the first world drained a checkpoint");
        let next = generation(cfg, p, cfg.steps);
        let (launched, exchanges_once) = if p == cfg.p {
            (0, plan.exchanges_once)
        } else {
            let retile = self.retiles(&next);
            let gen_plan = remap_drained_checkpoint(&mut ck, &next, at_step, retile);
            (at_step, gen_plan.exchanges_once)
        };
        let at = Placed::new(&next, &ck.particles);
        let start = Start::Restore(&ck, &at, exchanges_once);
        measured(&next, self.program(&next, launched, false), start)
    }
}

/// Run a configuration to completion on the square pillar; returns rank
/// 0's report with communication totals aggregated over all ranks.
pub fn run(cfg: &RunConfig) -> RunReport {
    Launch::new().run(cfg).report
}

/// Like [`run`], but also returns the wall-clock phase breakdown and the
/// per-phase bytes-on-wire counters (see [`Run`]); gathers no snapshot.
pub fn run_with_phase_times(cfg: &RunConfig) -> (RunReport, PhaseTimes, WireBytes) {
    let out = Launch::new().run(cfg);
    (out.report, out.phases, out.wire)
}

/// Like [`run`], but also gathers the final particle state (sorted by
/// id) — the snapshot validation tests compare against the serial
/// reference.
pub fn run_with_snapshot(cfg: &RunConfig) -> (RunReport, Vec<Particle>) {
    Launch::new().snapshot().run(cfg).into_snapshot()
}

/// The configuration of a world generation of `cfg` on `p` ranks that
/// runs to step `steps`. DLB needs a torus side ≥ 3: a generation too
/// small for it runs DDM-only, and DLB resumes on the next big-enough
/// torus.
fn generation(cfg: &RunConfig, p: usize, steps: u64) -> RunConfig {
    RunConfig {
        p,
        steps,
        dlb: cfg.dlb && p >= 9,
        ..cfg.clone()
    }
}

/// Fold the per-rank results of a completed world, in rank order, into
/// rank 0's report with the totals over all ranks — and the transfers the
/// run's launches planned — filled in.
fn assemble(mut results: Vec<PeResult>, launch_transfers: usize) -> Run {
    let mut phases = PhaseTimes::default();
    let mut wire = WireBytes::default();
    for r in &results {
        phases.merge(&r.phase_times);
        wire.merge(&r.wire_bytes);
    }
    let comm_virtual: f64 = results.iter().map(|r| r.comm_stats.virtual_comm_s).sum();
    let msgs: u64 = results.iter().map(|r| r.comm_stats.msgs_sent).sum();
    let bytes: u64 = results.iter().map(|r| r.comm_stats.bytes_sent).sum();
    let retransmits: u64 = results.iter().map(|r| r.comm_stats.retransmits).sum();
    let suspicions: u64 = results.iter().map(|r| r.comm_stats.suspicions).sum();
    let cells_per_rank: Vec<usize> = results.iter().map(|r| r.cells).collect();
    let rank0 = results.swap_remove(0);
    let mut report = rank0.report.expect("rank 0 produces the report");
    report.comm_virtual_s = comm_virtual;
    report.msgs_sent = msgs;
    report.bytes_sent = bytes;
    report.retransmits = retransmits;
    report.suspicions = suspicions;
    report.cells_per_rank = cells_per_rank;
    report.launch_transfers = launch_transfers;
    Run {
        report,
        snapshot: rank0.snapshot,
        phases,
        wire,
    }
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
