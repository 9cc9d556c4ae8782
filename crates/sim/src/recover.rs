//! Distributed checkpoint/restart and the driver-level recovery loop.
//!
//! A long SPMD campaign must survive a rank dying mid-run (on the T3E: a
//! node failure; here: an injected fault or a real bug). The scheme is
//! the classic coordinated checkpoint: every `cfg.checkpoint_interval`
//! steps the ranks gather their particles and ownership view to rank 0
//! ([`SimCheckpoint`]), which embeds `pcdlb_md::checkpoint`'s exact
//! bit-preserving text format. [`run_with_recovery`] launches the world,
//! and when any rank fails it tears the world down cleanly (collecting
//! per-rank diagnostics), restores the last checkpoint, and relaunches
//! from there — repeating until the run completes or attempts run out.
//!
//! The headline property (tested here and swept exhaustively by
//! `pcdlb-check faults`): a recovered run's particle state and per-step
//! record series are **bitwise identical** to an uninterrupted run's, no
//! matter where the fault struck. Only the run-total message counters
//! differ (retransmission), which is why parity is asserted on
//! [`digest_recovery`](crate::digest::digest_recovery) rather than
//! [`digest_run`](crate::digest::digest_run).

use std::fmt;
use std::io::{self, BufRead, BufWriter, Write};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use pcdlb_domain::Col;
use pcdlb_md::checkpoint::Checkpoint;
use pcdlb_md::Particle;
use pcdlb_mp::comm::{DEFAULT_POLL_INTERVAL, DEFAULT_WATCHDOG};
use pcdlb_mp::{CostModel, World, WorldError};

use crate::config::RunConfig;
use crate::digest::digest_recovery;
use crate::driver::assemble;
use crate::pe::{initial_particles, pe_main_recoverable, PeResult};
use crate::report::{RunReport, StepRecord};
use crate::takeover::Start;

/// A restartable distributed simulation state: the global MD state (as a
/// [`Checkpoint`] in `pcdlb-md`'s exact format), the DLB ownership map,
/// and rank 0's per-step records up to the checkpointed step.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint {
    /// Particle phase space + step counter + box, id-sorted.
    pub md: Checkpoint,
    /// `(column, owner)` for every column, in column order.
    pub ownership: Vec<(Col, usize)>,
    /// Rank 0's step records for steps `1..=md.step`.
    pub records: Vec<StepRecord>,
}

impl SimCheckpoint {
    /// Serialise to any writer: a sim magic line, the embedded MD
    /// checkpoint text, then `ownership` and `records` sections. All
    /// `f64`s travel as IEEE-754 bit patterns in hex, so a round trip is
    /// exact.
    pub fn write_to(&self, w: impl Write) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        writeln!(w, "pcdlb-sim-checkpoint v1")?;
        self.md.write_to(&mut w)?;
        writeln!(w, "ownership {}", self.ownership.len())?;
        for &(c, owner) in &self.ownership {
            writeln!(w, "{} {} {}", c.cx, c.cy, owner)?;
        }
        writeln!(w, "records {}", self.records.len())?;
        for r in &self.records {
            writeln!(
                w,
                "{} {:016x} {:016x} {:016x} {:016x} {:016x} {} {:016x} {:016x} {} {} {:016x} {:016x} {:016x} {}",
                r.step,
                r.t_step.to_bits(),
                r.f_max.to_bits(),
                r.f_ave.to_bits(),
                r.f_min.to_bits(),
                r.wall_s.to_bits(),
                r.pair_checks,
                r.c0_over_c.to_bits(),
                r.n_factor.to_bits(),
                r.max_cells,
                r.transfers,
                r.kinetic.to_bits(),
                r.potential.to_bits(),
                r.temperature.to_bits(),
                r.rebuilt as u8,
            )?;
        }
        w.flush()
    }

    /// Parse from any reader. Errors carry the offending line.
    pub fn read_from(r: impl io::Read) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let lines: Vec<String> = io::BufReader::new(r).lines().collect::<io::Result<_>>()?;
        let mut it = lines.iter().map(String::as_str);
        let magic = it.next().ok_or_else(|| bad("empty checkpoint"))?;
        if magic.trim() != "pcdlb-sim-checkpoint v1" {
            return Err(bad(&format!("bad sim magic line: `{magic}`")));
        }
        // The MD block runs until the `ownership` section header; particle
        // lines always start with a digit, so the split is unambiguous.
        let rest: Vec<&str> = it.collect();
        let own_at = rest
            .iter()
            .position(|l| l.trim_start().starts_with("ownership "))
            .ok_or_else(|| bad("missing ownership section"))?;
        let md = Checkpoint::read_from(rest[..own_at].join("\n").as_bytes())?;

        let mut it = rest[own_at..].iter();
        let parse_header = |line: &str, what: &str| -> io::Result<usize> {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 2 || f[0] != what {
                return Err(bad(&format!("bad {what} header: `{line}`")));
            }
            f[1].parse()
                .map_err(|_| bad(&format!("bad {what} count: `{line}`")))
        };
        let n_own = parse_header(it.next().expect("position found the header"), "ownership")?;
        let mut ownership = Vec::with_capacity(n_own);
        for _ in 0..n_own {
            let line = it
                .next()
                .ok_or_else(|| bad("truncated ownership section"))?;
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 3 {
                return Err(bad(&format!("bad ownership line: `{line}`")));
            }
            let cx = f[0].parse().map_err(|_| bad("bad cx"))?;
            let cy = f[1].parse().map_err(|_| bad("bad cy"))?;
            let owner = f[2].parse().map_err(|_| bad("bad owner"))?;
            ownership.push((Col::new(cx, cy), owner));
        }
        let rec_line = it.next().ok_or_else(|| bad("missing records section"))?;
        let n_rec = parse_header(rec_line, "records")?;
        let mut records = Vec::with_capacity(n_rec);
        for _ in 0..n_rec {
            let line = it.next().ok_or_else(|| bad("truncated records section"))?;
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 15 {
                return Err(bad(&format!("bad record line: `{line}`")));
            }
            let hex = |s: &str| -> io::Result<f64> {
                Ok(f64::from_bits(
                    u64::from_str_radix(s, 16).map_err(|_| bad("bad f64 bits"))?,
                ))
            };
            records.push(StepRecord {
                step: f[0].parse().map_err(|_| bad("bad step"))?,
                t_step: hex(f[1])?,
                f_max: hex(f[2])?,
                f_ave: hex(f[3])?,
                f_min: hex(f[4])?,
                wall_s: hex(f[5])?,
                pair_checks: f[6].parse().map_err(|_| bad("bad pair_checks"))?,
                c0_over_c: hex(f[7])?,
                n_factor: hex(f[8])?,
                max_cells: f[9].parse().map_err(|_| bad("bad max_cells"))?,
                transfers: f[10].parse().map_err(|_| bad("bad transfers"))?,
                kinetic: hex(f[11])?,
                potential: hex(f[12])?,
                temperature: hex(f[13])?,
                rebuilt: f[14].parse::<u8>().map_err(|_| bad("bad rebuilt"))? != 0,
            });
        }
        Ok(Self {
            md,
            ownership,
            records,
        })
    }

    /// Serialise to an in-memory string (small systems, tests).
    pub fn to_string_repr(&self) -> String {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("in-memory write cannot fail");
        String::from_utf8(buf).expect("checkpoint text is ASCII")
    }
}

/// Knobs of the recovery loop.
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Maximum number of launches (first run + relaunches) before giving
    /// up and returning [`RecoveryError`].
    pub max_attempts: usize,
    /// Mailbox poll interval for every launched world.
    pub poll: Duration,
    /// Watchdog deadline: how long a blocking receive may wait with no
    /// matching message and no abort before the rank panics with a
    /// diagnostic. Tests inject faults and want this short; production
    /// runs want it generous.
    pub watchdog: Duration,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            poll: DEFAULT_POLL_INTERVAL,
            watchdog: DEFAULT_WATCHDOG,
        }
    }
}

/// What a (possibly recovered) run produced.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Rank 0's assembled report (records bitwise identical to an
    /// uninterrupted run; message totals include retransmission).
    pub report: RunReport,
    /// Final particle state, id-sorted (bitwise identical to an
    /// uninterrupted run).
    pub snapshot: Vec<Particle>,
    /// [`digest_recovery`] of the outcome — the crash-recovery parity
    /// invariant.
    pub digest: u64,
    /// Number of launches it took (1 = no fault).
    pub attempts: usize,
    /// Number of rank deaths the completing launch absorbed *in place*
    /// by buddy takeover ([`run_with_takeover`]) instead of a relaunch.
    /// Always 0 on the plain [`run_with_recovery`] path.
    pub takeovers: usize,
    /// Per-launch failure diagnostics for the attempts that died.
    pub failures: Vec<WorldError>,
}

/// The run kept failing: every allowed attempt died.
#[derive(Debug)]
pub struct RecoveryError {
    /// Attempts made (= `max_attempts`).
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

/// Run a configuration with checkpoint/restart recovery: launch, and on
/// any rank failure tear the world down, restore the last checkpoint
/// (or the initial condition if none was taken yet), and relaunch —
/// up to `opts.max_attempts` times.
///
/// Set `cfg.checkpoint_interval > 0` to bound the re-executed work;
/// with it at 0 every relaunch restarts from step 0 (still correct,
/// just slower).
pub fn run_with_recovery(
    cfg: &RunConfig,
    opts: &RecoveryOptions,
) -> Result<RecoveryOutcome, RecoveryError> {
    run_recovery_attempts(cfg, opts, |_attempt, world, start, sink| {
        world.try_run(|comm| pe_main_recoverable(comm, cfg, true, start, Some(sink)))
    })
}

/// [`run_with_recovery`] under seeded fault injection (`check` feature):
/// `plans(attempt, rank)` supplies each rank's fault plan for each
/// launch. The fault-schedule explorer in `pcdlb-check` drives this with
/// kill-point sweeps and asserts digest parity at every one.
#[cfg(feature = "check")]
pub fn run_with_recovery_faulted<P>(
    cfg: &RunConfig,
    opts: &RecoveryOptions,
    plans: P,
) -> Result<RecoveryOutcome, RecoveryError>
where
    P: Fn(usize, usize) -> Option<pcdlb_mp::FaultPlan> + Sync,
{
    run_recovery_attempts(cfg, opts, |attempt, world, start, sink| {
        world.try_run_with_faults(
            |rank| plans(attempt, rank),
            |comm| pe_main_recoverable(comm, cfg, true, start, Some(sink)),
        )
    })
}

/// Run a configuration with the full escalation ladder: the world is
/// launched in takeover mode, so a single rank death is absorbed *in
/// place* — the dead rank's buddy survivor adopts its virtual rank and
/// the run continues degraded on `n − 1` threads (see
/// [`crate::takeover`]) — while anything worse (a second death, a
/// takeover barrier timeout, an invariant-sentinel violation) tears the
/// world down and relaunches from the last checkpoint like
/// [`run_with_recovery`]. Degraded completions satisfy the same
/// [`digest_recovery`] parity invariant as uninterrupted runs.
pub fn run_with_takeover(
    cfg: &RunConfig,
    opts: &RecoveryOptions,
) -> Result<RecoveryOutcome, RecoveryError> {
    run_takeover_attempts(cfg, opts, |_attempt, world, initial, sink| {
        world.try_run_degraded(|comm| {
            crate::takeover::takeover_main(comm, cfg, initial, true, sink, false, false)
        })
    })
}

/// [`run_with_takeover`] under seeded fault injection (`check` feature):
/// `plans(attempt, rank)` supplies each rank's fault plan for each
/// launch. The takeover kill-point sweep in `pcdlb-check` drives this
/// and asserts digest parity and degraded completion at every kill site.
#[cfg(feature = "check")]
pub fn run_with_takeover_faulted<P>(
    cfg: &RunConfig,
    opts: &RecoveryOptions,
    plans: P,
) -> Result<RecoveryOutcome, RecoveryError>
where
    P: Fn(usize, usize) -> Option<pcdlb_mp::FaultPlan> + Sync,
{
    run_takeover_attempts(cfg, opts, |attempt, world, initial, sink| {
        world.try_run_degraded_with_faults(
            |rank| plans(attempt, rank),
            |comm| crate::takeover::takeover_main(comm, cfg, initial, true, sink, false, false),
        )
    })
}

/// [`run_with_takeover_faulted`] with full model-checker instrumentation:
/// besides the per-attempt fault plans, `policies(attempt, rank)` installs
/// each rank's delivery policy and `logs(attempt, rank)` binds each rank
/// thread to a protocol event log (see
/// [`ProtocolEvent`](pcdlb_mp::check::ProtocolEvent)). Returning the same
/// log for every attempt accumulates one trace per physical rank,
/// segmented by `Birth` markers — the shape the model checker consumes.
#[cfg(feature = "check")]
pub fn run_with_takeover_instrumented<P, Q, L>(
    cfg: &RunConfig,
    opts: &RecoveryOptions,
    plans: P,
    policies: Q,
    logs: L,
) -> Result<RecoveryOutcome, RecoveryError>
where
    P: Fn(usize, usize) -> Option<pcdlb_mp::FaultPlan> + Sync,
    Q: Fn(usize, usize) -> Box<dyn pcdlb_mp::check::DeliveryPolicy> + Sync,
    L: Fn(usize, usize) -> pcdlb_mp::check::EventLog + Sync,
{
    run_takeover_attempts(cfg, opts, |attempt, world, initial, sink| {
        world.try_run_degraded_instrumented(
            |rank| plans(attempt, rank),
            |rank| policies(attempt, rank),
            |rank| logs(attempt, rank),
            |comm| crate::takeover::takeover_main(comm, cfg, initial, true, sink, false, false),
        )
    })
}

type RolePeResults = Vec<(usize, PeResult)>;

fn run_takeover_attempts<A>(
    cfg: &RunConfig,
    opts: &RecoveryOptions,
    attempt_fn: A,
) -> Result<RecoveryOutcome, RecoveryError>
where
    A: Fn(
        usize,
        &World,
        &[Particle],
        &Mutex<Option<SimCheckpoint>>,
    ) -> Result<pcdlb_mp::DegradedOutcome<RolePeResults>, WorldError>,
{
    cfg.validate();
    assert!(opts.max_attempts > 0, "need at least one attempt");
    let sink: Mutex<Option<SimCheckpoint>> = Mutex::new(None);
    // Generated once for every launch and every rank of it.
    let initial = initial_particles(cfg);
    let mut failures = Vec::new();
    for attempt in 0..opts.max_attempts {
        let world = World::new(cfg.p)
            .with_cost_model(CostModel::t3e(Some(cfg.torus())))
            .with_comm_config(&cfg.comm)
            .with_poll_interval(opts.poll)
            .with_watchdog(opts.watchdog)
            .with_takeover();
        match attempt_fn(attempt, &world, &initial, &sink) {
            Ok(outcome) => {
                // Reassemble the virtual-rank results from whichever
                // threads ended up holding them.
                let takeovers = outcome.dead.len();
                let mut by_vrank: Vec<Option<PeResult>> = (0..cfg.p).map(|_| None).collect();
                for (v, r) in outcome.results.into_iter().flatten().flatten() {
                    by_vrank[v] = Some(r);
                }
                if by_vrank.iter().any(Option::is_none) {
                    // A death slipped into the post-handshake tail: some
                    // virtual rank finished nowhere. The degraded result
                    // is incomplete — fall back to a full relaunch.
                    let missing: Vec<usize> = by_vrank
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.is_none())
                        .map(|(v, _)| v)
                        .collect();
                    failures.push(WorldError {
                        failures: missing
                            .into_iter()
                            .map(|rank| pcdlb_mp::RankFailure {
                                rank,
                                message: "virtual rank unaccounted for after a degraded run \
                                          — relaunching from the last checkpoint"
                                    .to_string(),
                            })
                            .collect(),
                    });
                    continue;
                }
                let results: Vec<PeResult> =
                    by_vrank.into_iter().map(|r| r.expect("checked")).collect();
                let (report, snapshot) = assemble(results);
                let snapshot = snapshot.expect("recovery runs always gather a snapshot");
                let digest = digest_recovery(&report, &snapshot, cfg.load_metric);
                return Ok(RecoveryOutcome {
                    report,
                    snapshot,
                    digest,
                    attempts: attempt + 1,
                    takeovers,
                    failures,
                });
            }
            Err(e) => failures.push(e),
        }
    }
    Err(RecoveryError {
        attempts: opts.max_attempts,
        failures,
    })
}

fn run_recovery_attempts<A>(
    cfg: &RunConfig,
    opts: &RecoveryOptions,
    attempt_fn: A,
) -> Result<RecoveryOutcome, RecoveryError>
where
    A: Fn(usize, &World, Start, &Mutex<Option<SimCheckpoint>>) -> Result<Vec<PeResult>, WorldError>,
{
    cfg.validate();
    assert!(opts.max_attempts > 0, "need at least one attempt");
    // The sink outlives every world: rank 0 deposits checkpoints here, and
    // the next attempt (if any) restores whatever arrived last.
    let sink: Mutex<Option<SimCheckpoint>> = Mutex::new(None);
    // Generated once for every launch and every rank of it.
    let initial = initial_particles(cfg);
    let mut failures = Vec::new();
    for attempt in 0..opts.max_attempts {
        let ckpt = sink.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let start = ckpt.as_ref().map_or(Start::Fresh(&initial), Start::Restore);
        let world = World::new(cfg.p)
            .with_cost_model(CostModel::t3e(Some(cfg.torus())))
            .with_comm_config(&cfg.comm)
            .with_poll_interval(opts.poll)
            .with_watchdog(opts.watchdog);
        match attempt_fn(attempt, &world, start, &sink) {
            Ok(results) => {
                let (report, snapshot) = assemble(results);
                let snapshot = snapshot.expect("recovery runs always gather a snapshot");
                let digest = digest_recovery(&report, &snapshot, cfg.load_metric);
                return Ok(RecoveryOutcome {
                    report,
                    snapshot,
                    digest,
                    attempts: attempt + 1,
                    takeovers: 0,
                    failures,
                });
            }
            Err(e) => failures.push(e),
        }
    }
    Err(RecoveryError {
        attempts: opts.max_attempts,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Lattice;
    use crate::digest::digest_records;
    use crate::driver::{run, run_with_snapshot};

    /// A small but non-trivial 2×2 recovery workload: DDM only (P = 4
    /// cannot run DLB), clustered start so migration and ghost traffic
    /// are busy, thermostat firing mid-run.
    fn recovery_cfg() -> RunConfig {
        let mut cfg = RunConfig::new(216, 4, 4, 0.2);
        cfg.dlb = false;
        cfg.steps = 24;
        cfg.thermostat_interval = 10;
        cfg.lattice = Lattice::Cluster { fill: 0.8 };
        cfg.seed = 11;
        cfg.checkpoint_interval = 5;
        cfg
    }

    fn quick_opts() -> RecoveryOptions {
        RecoveryOptions {
            max_attempts: 3,
            poll: Duration::from_millis(2),
            watchdog: Duration::from_secs(20),
        }
    }

    #[test]
    fn sim_checkpoint_round_trip_is_exact() {
        let cfg = recovery_cfg();
        let ck = SimCheckpoint {
            md: Checkpoint::new(7, cfg.box_len(), initial_particles(&cfg)),
            ownership: vec![(Col::new(0, 0), 0), (Col::new(3, 2), 3)],
            records: run(&cfg).records,
        };
        let text = ck.to_string_repr();
        let back = SimCheckpoint::read_from(text.as_bytes()).expect("parse");
        assert_eq!(ck.md, back.md);
        assert_eq!(ck.ownership, back.ownership);
        assert_eq!(ck.records.len(), back.records.len());
        for (a, b) in ck.records.iter().zip(&back.records) {
            assert_eq!(a, b, "record round trip must be bitwise exact");
        }
    }

    #[test]
    fn corrupt_sim_checkpoints_are_rejected_with_context() {
        assert!(SimCheckpoint::read_from("".as_bytes()).is_err());
        assert!(SimCheckpoint::read_from("wrong\n".as_bytes()).is_err());
        let no_sections = "pcdlb-sim-checkpoint v1\npcdlb-checkpoint v1\nstep 0 box 0 n 0\n";
        let e = SimCheckpoint::read_from(no_sections.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("ownership"), "{e}");
        let truncated = format!("{no_sections}ownership 2\n0 0 0\n");
        let e = SimCheckpoint::read_from(truncated.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("truncated"), "{e}");
    }

    #[test]
    fn checkpointing_is_digest_neutral() {
        // The same run with and without periodic checkpoints must report
        // identical records and final state — the gathers add messages
        // but never perturb a t_step or the physics.
        let mut plain = recovery_cfg();
        plain.checkpoint_interval = 0;
        let checkpointed = recovery_cfg();
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

    #[test]
    fn recovery_without_faults_completes_in_one_attempt() {
        let cfg = recovery_cfg();
        let out = run_with_recovery(&cfg, &quick_opts()).expect("no faults");
        assert_eq!(out.attempts, 1);
        assert!(out.failures.is_empty());
        let (rep, snap) = run_with_snapshot(&cfg);
        assert_eq!(out.snapshot, snap);
        assert_eq!(out.digest, digest_recovery(&rep, &snap, cfg.load_metric));
    }

    #[cfg(feature = "check")]
    #[test]
    fn recovery_restores_the_last_checkpoint_and_matches_bitwise() {
        use pcdlb_mp::FaultPlan;
        let cfg = recovery_cfg();
        let reference = run_with_recovery(&cfg, &quick_opts()).expect("fault-free");
        // Kill rank 2 deep enough into the run that a checkpoint exists
        // (step 5's gather is well past rank 2's 40th send).
        let out = run_with_recovery_faulted(&cfg, &quick_opts(), |attempt, rank| {
            (attempt == 0 && rank == 2).then(|| FaultPlan::kill_at(160))
        })
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
    fn takeover_without_faults_matches_plain_recovery_bitwise() {
        let cfg = recovery_cfg();
        let out = run_with_takeover(&cfg, &quick_opts()).expect("no faults");
        assert_eq!(out.attempts, 1);
        assert_eq!(out.takeovers, 0);
        assert!(out.failures.is_empty());
        let reference = run_with_recovery(&cfg, &quick_opts()).expect("no faults");
        assert_eq!(out.digest, reference.digest);
        assert_eq!(out.snapshot, reference.snapshot);
    }

    #[test]
    fn takeover_runs_with_sentinel_are_digest_neutral() {
        let cfg = recovery_cfg();
        let mut watched = recovery_cfg();
        watched.sentinel_interval = 4;
        let plain = run_with_takeover(&cfg, &quick_opts()).expect("no faults");
        let out = run_with_takeover(&watched, &quick_opts()).expect("sentinel is quiet");
        assert_eq!(out.attempts, 1);
        assert_eq!(
            out.digest, plain.digest,
            "a quiet sentinel must not perturb any reported step"
        );
        assert_eq!(out.snapshot, plain.snapshot);
    }

    #[cfg(feature = "check")]
    #[test]
    fn takeover_absorbs_one_death_without_a_relaunch() {
        use pcdlb_mp::FaultPlan;
        let cfg = recovery_cfg();
        let reference = run_with_recovery(&cfg, &quick_opts()).expect("fault-free");
        // Kill rank 2 mid-run: its east buddy (rank 3 on the 2×2 torus)
        // must adopt virtual rank 2 and the same launch must complete
        // degraded on 3 OS threads.
        let out = run_with_takeover_faulted(&cfg, &quick_opts(), |attempt, rank| {
            (attempt == 0 && rank == 2).then(|| FaultPlan::kill_at(160))
        })
        .expect("the launch absorbs the death in place");
        assert_eq!(out.attempts, 1, "a single death must not cost a relaunch");
        assert_eq!(out.takeovers, 1);
        assert!(out.failures.is_empty());
        assert_eq!(
            out.digest, reference.digest,
            "degraded run must be bitwise identical to the uninterrupted run"
        );
        assert_eq!(out.snapshot, reference.snapshot);
    }

    #[cfg(feature = "check")]
    #[test]
    fn second_death_escalates_to_a_full_relaunch() {
        use pcdlb_mp::FaultPlan;
        let cfg = recovery_cfg();
        let reference = run_with_recovery(&cfg, &quick_opts()).expect("fault-free");
        // Two ranks die in attempt 0: the first is absorbed, the second
        // aborts the degraded world, and attempt 1 completes clean.
        let out = run_with_takeover_faulted(&cfg, &quick_opts(), |attempt, rank| {
            if attempt != 0 {
                return None;
            }
            match rank {
                1 => Some(FaultPlan::kill_at(120)),
                2 => Some(FaultPlan::kill_at(160)),
                _ => None,
            }
        })
        .expect("the relaunch recovers");
        assert_eq!(out.attempts, 2, "two deaths must fall back to a relaunch");
        assert_eq!(out.takeovers, 0, "the completing launch was undegraded");
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.digest, reference.digest);
        assert_eq!(out.snapshot, reference.snapshot);
    }

    #[cfg(feature = "check")]
    #[test]
    fn a_working_balancer_survives_a_death_bitwise() {
        use pcdlb_mp::FaultPlan;
        // 3×3, m = 4, the cluster on rank 0's tile: the balancer sheds a
        // column nearly every step, most of them past a fastest neighbour
        // that may take nothing. Which neighbour is offered the cell is a
        // pure function of the loads and the ownership view, so a run
        // restored from a checkpoint — or carried on by a buddy — makes
        // the same transfers as the uninterrupted one.
        let mut cfg = RunConfig::from_p_m_density(9, 4, 0.128);
        cfg.lattice = Lattice::Cluster { fill: 0.45 };
        cfg.dlb = true;
        cfg.steps = 16;
        cfg.checkpoint_interval = 5;
        let reference = run_with_recovery(&cfg, &quick_opts()).expect("fault-free");
        let transfers: u32 = reference.report.records.iter().map(|r| r.transfers).sum();
        assert!(
            transfers > 16,
            "the balancer is busy: {transfers} transfers"
        );
        // Rank 4 is the south-east neighbour the hot rank cannot send to.
        let kill = |attempt, rank| (attempt == 0 && rank == 4).then(|| FaultPlan::kill_at(200));
        let relaunched = run_with_recovery_faulted(&cfg, &quick_opts(), kill).expect("recovers");
        assert_eq!(relaunched.attempts, 2, "the run was restored, not replayed");
        assert_eq!(
            relaunched.digest, reference.digest,
            "relaunch from a checkpoint"
        );
        assert_eq!(relaunched.snapshot, reference.snapshot);
        let absorbed = run_with_takeover_faulted(&cfg, &quick_opts(), kill).expect("absorbed");
        assert_eq!((absorbed.attempts, absorbed.takeovers), (1, 1));
        assert_eq!(absorbed.digest, reference.digest, "buddy takeover");
        assert_eq!(absorbed.snapshot, reference.snapshot);
    }

    #[cfg(feature = "check")]
    #[test]
    fn recovery_gives_up_after_max_attempts_with_all_diagnostics() {
        use pcdlb_mp::FaultPlan;
        let cfg = recovery_cfg();
        let err = run_with_recovery_faulted(&cfg, &quick_opts(), |_attempt, rank| {
            (rank == 1).then(|| FaultPlan::kill_at(3))
        })
        .expect_err("every attempt dies");
        assert_eq!(err.attempts, 3);
        assert_eq!(err.failures.len(), 3);
        assert!(err.to_string().contains("all 3 attempt(s)"), "{err}");
    }
}
