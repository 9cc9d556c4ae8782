//! The fault-scenario table: bitwise parity under every disturbance.
//!
//! The SPMD scheme's non-negotiable property is that a run lands bitwise
//! on its uninterrupted, serial reference. One hand-picked fault cannot
//! substantiate that — the recovery path looks different depending on
//! *where* a rank died and *what* the substrate did to its frames — so
//! this module sweeps the claim over one table of [`Scenario`] rows, each
//! a workload, how it is launched, and the faulted runs made of it:
//!
//! - **Kills and relaunches**: every rank of a 2×2 world and of a 3×3
//!   clustered world that balances killed at every `stride`-th send op,
//!   and each non-root rank of the 2×2 world at each of its `CKPT_GATHER`
//!   contributions (the checkpoint being assembled dies mid-gather, so the
//!   relaunch falls back to the previous one); and seeded kill sites
//!   under a [`LossyProfile`] of the same seed (15 / 8 / 8 per mille
//!   dropped / duplicated / delayed) — a death on a Grid-like substrate,
//!   held to the run over the *reliable* channels. Every death tears the
//!   world down and relaunches it from the last checkpoint.
//! - **Elastic resizing**: shrink and grow plans at several step
//!   boundaries on three grids (one re-tiles in place before it drains,
//!   one is also run as a plane and a cube); and kills inside the resize
//!   window — each drain-gather contributor, each rank of a resumed
//!   generation at its first step frame (the first message it sends: a
//!   launch sends nothing), and every rank of every generation at strided
//!   send ops.
//! - **Transport chaos**: seeds × loss rates on all three decompositions
//!   (2×2 torus, 3×3 DLB torus, plane, cube), each lossy run held to the
//!   reliable one's [`digest_run`] — records, message counts and
//!   trajectory — and wire bytes; a partition window that heals by
//!   retransmission; a permanent isolation that escalates through
//!   self-fencing into relaunches, each of which the partition cuts
//!   again; and a reliable baseline, whose ranks build no link layer at
//!   all.
//!
//! The runner ([`run`]) makes each row's fault-free [`reference()`] once —
//! the row's configuration over the reliable transport, which must make
//! one launch per generation and land on [`run_serial`]
//! — and holds every run of the row to it ([`hold`]): a resilient run on
//! [`digest_recovery`](pcdlb_sim::digest_recovery) (a relaunch re-sends
//! messages), a plain one on [`digest_run`] and its wire bytes. The whole
//! table runs under one wall-clock deadline: the no-hang guarantee (a dead
//! peer or a dark link must never leave a survivor blocked forever) is
//! itself part of the claim, so a hang fails rather than wedging CI.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use pcdlb_core::protocol::tags;
use pcdlb_md::Particle;
use pcdlb_mp::collectives::ctag;
use pcdlb_mp::fault::splitmix64;
use pcdlb_mp::{FaultPlan, LossyProfile, Partition};
use pcdlb_sim::config::{Lattice, RunConfig};
use pcdlb_sim::{
    digest_run, run_serial, DomainShape, Ladder, Launch, ResizePlan, RunReport, WireBytes,
};

/// The kill-point stride of `pcdlb-check sweep`, in send ops.
pub const STRIDE: u64 = 8;
/// Seeds of its seeded lossy kills and of its loss matrix.
pub const SEEDS: u64 = 6;
/// The no-hang deadline over a whole table.
const DEADLINE: Duration = Duration::from_secs(600);

/// One kill site: rank `.1` of launch `.0` (numbered across generations
/// and relaunches) runs under the plan `.2`.
pub type Site = (usize, usize, FaultPlan);

/// The faulted runs of a row.
#[derive(Debug, Clone)]
pub enum Kills {
    /// These runs, each its kill sites (`vec![vec![]]`: one run, no kill).
    Runs(Vec<Vec<Site>>),
    /// One run per rank of each generation and send op `0, stride,
    /// 2·stride, …` below the reference's per-rank bound; ops past a
    /// rank's real count never fire.
    Strided(u64),
    /// Runs `1..=n`: run `k` kills a rank at a send op below what the
    /// quietest rank of the first launch sends, both drawn with
    /// [`splitmix64`] from `k`, over the row's transport reseeded with `k`.
    Seeded(u64),
}

/// What a row requires of its runs as a whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every run's kill fires.
    AllFire,
    /// The transport retransmitted: the disturbance engaged.
    Retransmits,
    /// No link layer engaged: no retransmit, no suspicion.
    Inert,
    /// The reference re-tiles in place at or before this step.
    RetilesBy(u64),
}

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub shape: DomainShape,
    /// The workload and its transport (`comm.chaos`); the reference runs
    /// it over the reliable one.
    pub cfg: RunConfig,
    /// The recovery ladder of a resilient launch; `None` is a plain
    /// [`Launch::run`], whose runs carry no kill site.
    pub ladder: Option<Ladder>,
    pub kills: Kills,
    pub expect: &'static [Expect],
}

impl Scenario {
    /// A square-pillar row that checks its reference alone.
    pub fn new(name: impl Into<String>, cfg: RunConfig, ladder: Option<Ladder>) -> Self {
        Self {
            name: name.into(),
            shape: DomainShape::SquarePillar,
            cfg,
            ladder,
            kills: Kills::Runs(Vec::new()),
            expect: &[],
        }
    }

    /// One launch of `cfg` under this row's shape and ladder, every rank
    /// thread starting under the plans `sites` give it.
    fn launch(&self, cfg: &RunConfig, sites: Vec<Site>) -> Result<Ran, String> {
        let launch = Launch::new()
            .shape(self.shape)
            .on_start(move |launch, comm| {
                for (l, r, plan) in &sites {
                    if (*l, *r) == (launch, comm.rank()) {
                        comm.set_fault_plan(plan.clone());
                    }
                }
            });
        let Some(ladder) = &self.ladder else {
            let run = launch.snapshot().run(cfg);
            let (wire, (report, snapshot)) = (run.wire, run.into_snapshot());
            return Ok(Ran {
                digest: digest_run(&report, &snapshot, cfg.load_metric),
                wire,
                report,
                snapshot,
                attempts: 1,
                ps: vec![cfg.p],
            });
        };
        let o = launch
            .run_resilient(cfg, ladder)
            .map_err(|e| format!("unrecovered: {e}"))?;
        Ok(Ran {
            digest: o.digest,
            // A relaunch re-sends, so resilient runs compare no wire bytes.
            wire: WireBytes::default(),
            report: o.report,
            snapshot: o.snapshot,
            attempts: o.attempts,
            ps: o.generations.iter().map(|g| g.p).collect(),
        })
    }

    /// The configuration and the kill sites of each run, laid out on
    /// `reference`.
    fn runs(&self, reference: &Ran) -> Vec<(RunConfig, Vec<Site>)> {
        // Ranks of these symmetric worlds send near-identical counts —
        // within a message a step of each other — so mean plus margin
        // bounds the busiest one, and mean less margin the quietest.
        let mean = reference.report.msgs_sent / self.cfg.p as u64;
        let bound = mean + self.cfg.steps;
        let runs = match &self.kills {
            Kills::Runs(runs) => runs.clone(),
            Kills::Strided(stride) => {
                let ops = (0..bound).step_by(*stride as usize);
                let mut runs = Vec::new();
                for (launch, &p) in reference.ps.iter().enumerate() {
                    for rank in 0..p {
                        runs.extend(
                            ops.clone()
                                .map(|op| vec![(launch, rank, FaultPlan::kill_at(op))]),
                        );
                    }
                }
                runs
            }
            Kills::Seeded(n) => {
                let seeded = (1..=*n).map(|seed| {
                    let mut cfg = self.cfg.clone();
                    if let Some(chaos) = &mut cfg.comm.chaos {
                        chaos.seed = seed;
                    }
                    let mut state = seed;
                    let rank = (splitmix64(&mut state) % cfg.p as u64) as usize;
                    // (Below every rank's count: each of these kills fires.)
                    let op = splitmix64(&mut state) % mean.saturating_sub(self.cfg.steps).max(1);
                    (cfg, vec![(0, rank, FaultPlan::kill_at(op))])
                });
                return seeded.collect();
            }
        };
        runs.into_iter()
            .map(|sites| (self.cfg.clone(), sites))
            .collect()
    }
}

/// What one completed launch produced.
#[derive(Debug)]
pub struct Ran {
    /// [`digest_run`] of a plain launch, `digest_recovery` of a resilient one.
    digest: u64,
    /// Bytes on the wire of a plain launch (zero for a resilient one).
    wire: WireBytes,
    report: RunReport,
    snapshot: Vec<Particle>,
    /// Launches across all generations.
    attempts: usize,
    /// The PE count of each generation.
    ps: Vec<usize>,
}

/// What a row's runs did.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub name: String,
    /// The reference's digest.
    pub reference: u64,
    pub runs: usize,
    /// Runs whose fault fired: a relaunch.
    pub fired: usize,
    /// Retransmissions and suspicion episodes of the runs' completing
    /// launches.
    pub retransmits: u64,
    pub suspicions: u64,
    /// Parity, liveness or expectation failures (empty when the row holds).
    pub violations: Vec<String>,
}

/// The fault-free reference of `row`: its configuration over the reliable
/// transport, launched as the row launches it. It must make one launch per
/// generation, keep every particle and every step's record, and land
/// bitwise on the serial run.
pub fn reference(row: &Scenario) -> Result<Ran, String> {
    let mut cfg = row.cfg.clone();
    cfg.comm.chaos = None;
    let r = row.launch(&cfg, Vec::new())?;
    let mut bad = Vec::new();
    if r.attempts != r.ps.len() {
        bad.push(format!(
            "{} launch(es) for {} generation(s)",
            r.attempts,
            r.ps.len()
        ));
    }
    if r.snapshot.len() != cfg.n_particles {
        bad.push(format!(
            "snapshot holds {} of {} particles",
            r.snapshot.len(),
            cfg.n_particles
        ));
    }
    let steps = r.report.records.iter().map(|rec| rec.step);
    if !steps.eq(1..=cfg.steps) {
        bad.push(format!(
            "record series incomplete ({} of {} steps)",
            r.report.records.len(),
            cfg.steps
        ));
    }
    if r.snapshot != run_serial(&cfg) {
        bad.push("snapshot diverged from the serial run".into());
    }
    if bad.is_empty() {
        Ok(r)
    } else {
        Err(bad.join("; "))
    }
}

/// Run every faulted run of `row` and hold it to `reference`, then check
/// the row's expectations.
pub fn hold(row: &Scenario, reference: &Ran) -> Outcome {
    let mut out = Outcome {
        name: row.name.clone(),
        reference: reference.digest,
        ..Outcome::default()
    };
    for (cfg, sites) in row.runs(reference) {
        let label = format!("{} {sites:?}", row.name);
        out.runs += 1;
        let r = match row.launch(&cfg, sites) {
            Ok(r) => r,
            Err(e) => {
                out.violations.push(format!("{label}: {e}"));
                continue;
            }
        };
        out.fired += usize::from(r.attempts > r.ps.len());
        out.retransmits += r.report.retransmits;
        out.suspicions += r.report.suspicions;
        if r.digest != reference.digest || r.wire != reference.wire {
            out.violations.push(format!(
                "{label}: digest {:#018x} != reference {:#018x}, wire {:?} vs {:?} \
                 ({} launch(es))",
                r.digest, reference.digest, r.wire, reference.wire, r.attempts
            ));
        }
    }
    for e in row.expect {
        let failed = match *e {
            Expect::AllFire => out.fired < out.runs,
            Expect::Retransmits => out.retransmits == 0,
            Expect::Inert => out.retransmits + out.suspicions > 0,
            Expect::RetilesBy(step) => !reference.report.retiles.iter().any(|r| r.0 <= step),
        };
        if failed {
            out.violations.push(format!(
                "{}: expected {e:?}: {} of {} run(s) fired, {} retransmit(s), {} suspicion(s)",
                row.name, out.fired, out.runs, out.retransmits, out.suspicions
            ));
        }
    }
    out
}

/// Run `rows` under one 600 s deadline: each row's reference is made once (rows
/// that launch one workload alike share it) and every run held to it.
pub fn run(rows: Vec<Scenario>) -> Result<Vec<Outcome>, String> {
    under_deadline(DEADLINE, "the fault-scenario sweep", move || {
        type Key = (DomainShape, RunConfig, Option<Ladder>);
        let mut references: Vec<(Key, Result<Ran, String>)> = Vec::new();
        let mut outcomes = Vec::new();
        for row in &rows {
            let mut cfg = row.cfg.clone();
            cfg.comm.chaos = None;
            let key = (row.shape, cfg, row.ladder.clone());
            let i = match references.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    references.push((key, reference(row)));
                    references.len() - 1
                }
            };
            outcomes.push(match &references[i].1 {
                Ok(r) => hold(row, r),
                Err(e) => Outcome {
                    name: row.name.clone(),
                    violations: vec![format!("{}: fault-free reference: {e}", row.name)],
                    ..Outcome::default()
                },
            });
        }
        outcomes
    })
}

/// The table at send-op `stride` and `seeds` seeds, run by [`run`];
/// `pcdlb-check sweep` is `sweep(STRIDE, SEEDS)`.
pub fn sweep(stride: u64, seeds: u64) -> Result<Vec<Outcome>, String> {
    run(table(stride, seeds))
}

/// Run `f` on a worker thread, failing with a diagnostic if it does not
/// finish within `deadline`.
fn under_deadline<T: Send + 'static>(
    deadline: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(deadline).map_err(|_| {
        format!(
            "{what} did not finish within its {}s deadline — a surviving rank is hung",
            deadline.as_secs()
        )
    })
}

/// The small-but-busy 2×2 workload: DDM only (P = 4 cannot run DLB), a
/// clustered start so migration and ghost traffic are heavy, the
/// thermostat firing mid-run, a checkpoint gathered every 5 of 24 steps.
fn ddm_2x2() -> RunConfig {
    let mut cfg = RunConfig::new(216, 4, 4, 0.2);
    cfg.dlb = false;
    cfg.steps = 24;
    cfg.thermostat_interval = 10;
    cfg.lattice = Lattice::Cluster { fill: 0.8 };
    cfg.seed = 11;
    cfg.checkpoint_interval = 5;
    cfg
}

/// Sweep deadlines for a resilient row: a tight poll so aborts propagate
/// fast, a watchdog generous enough for a loaded CI machine but short
/// enough that a wedged receive fails the run promptly.
fn resilient(mut cfg: RunConfig) -> RunConfig {
    cfg.comm.poll = Duration::from_millis(2);
    cfg.comm.watchdog = Duration::from_secs(10);
    cfg
}

fn ladder(plan: ResizePlan) -> Option<Ladder> {
    Some(Ladder {
        max_attempts: 6,
        plan,
    })
}

/// The loss rates of the loss matrix, (drop, dup, delay) per mille; the
/// seeded kills run under the first.
const LOSS_RATES: [(u32, u32, u32); 2] = [(15, 8, 8), (45, 20, 20)];

fn lossy(seed: u64, rates: (u32, u32, u32)) -> LossyProfile {
    let mut p = LossyProfile::new(seed);
    p.drop_per_mille = rates.0;
    p.dup_per_mille = rates.1;
    p.delay_per_mille = rates.2;
    p.delay_max = 3;
    p
}

/// The table: kill-point sweeps at send-op `stride`, `seeds` seeded lossy
/// kills and loss-matrix seeds.
pub fn table(stride: u64, seeds: u64) -> Vec<Scenario> {
    use Expect::*;
    let stride = stride.max(1);
    let once = || Kills::Runs(vec![Vec::new()]);
    let mut rows = Vec::new();

    let relaunch = ladder(ResizePlan::new());
    let cfg = resilient(ddm_2x2());
    rows.push(Scenario {
        kills: Kills::Strided(stride),
        ..Scenario::new("2x2 kill points", cfg.clone(), relaunch.clone())
    });
    // Rank 0 only receives in a gather; its deaths there are kill points.
    let gather = ctag(tags::CKPT_GATHER, 0);
    let gathers = (cfg.steps - 1) / cfg.checkpoint_interval;
    let kills = (1..cfg.p).flat_map(|rank| {
        (0..gathers).map(move |nth| vec![(0, rank, FaultPlan::kill_on_tag(gather, nth))])
    });
    rows.push(Scenario {
        kills: Kills::Runs(kills.collect()),
        expect: &[AllFire],
        ..Scenario::new("2x2 checkpoint-gather kills", cfg.clone(), relaunch.clone())
    });
    let mut lossy_kills = cfg.clone();
    lossy_kills.comm.chaos = Some(lossy(1, LOSS_RATES[0]));
    rows.push(Scenario {
        kills: Kills::Seeded(seeds),
        expect: &[AllFire, Retransmits],
        ..Scenario::new("2x2 seeded lossy kills", lossy_kills, relaunch.clone())
    });

    // Every rank of a 3×3 clustered world that balances — the smallest
    // grid that sends loads and decisions and moves the columns they name
    // — killed at strided send ops, a sentinel gathering every 6 steps.
    let mut c3 = resilient(RunConfig::new(600, 9, 9, 0.05));
    c3.lattice = Lattice::Cluster { fill: 0.5 };
    c3.steps = 20;
    c3.dlb = true;
    c3.seed = 3;
    c3.thermostat_interval = 10;
    c3.checkpoint_interval = 5;
    c3.sentinel_interval = 6;
    rows.push(Scenario {
        kills: Kills::Strided(stride),
        ..Scenario::new("3x3 kill points", c3, relaunch.clone())
    });

    // Elastic parity on the 4³ grid (a sentinel every 4 steps audits each
    // generation), on a 6³ DLB grid resized through a 2×2 generation and
    // back, and on a 4 × 4 cluster that re-tiles in place at step 8 before
    // it drains at 10.
    let cfg_4 = |checkpoint_interval| {
        let mut cfg = resilient(ddm_2x2());
        cfg.checkpoint_interval = checkpoint_interval;
        cfg.sentinel_interval = 4;
        cfg
    };
    let plans = [
        ResizePlan::new().resize(8, 16).resize(16, 4), // grow, shrink back
        ResizePlan::new().resize(12, 16),              // grow and stay grown
        ResizePlan::new().resize(5, 1).resize(10, 16).resize(18, 4), // through serial
        ResizePlan::new().resize(4, 16).resize(8, 1).resize(20, 16), // every direction
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        rows.push(Scenario::new(
            format!("4³ resize plan {i}"),
            cfg_4(5),
            ladder(plan),
        ));
    }
    let mut c6 = resilient(RunConfig::new(343, 6, 9, 0.08));
    c6.dlb = true;
    c6.steps = 18;
    c6.thermostat_interval = 7;
    c6.lattice = Lattice::Cluster { fill: 0.8 };
    c6.seed = 13;
    c6.checkpoint_interval = 6;
    c6.sentinel_interval = 3;
    let plan = ResizePlan::new().resize(6, 4).resize(12, 9);
    rows.push(Scenario::new("6³ resize, dlb", c6.clone(), ladder(plan)));
    // The same physics as a ring and as a block grid.
    for (shape, p) in [(DomainShape::Plane, 3), (DomainShape::Cube, 8)] {
        let mut cfg = c6.clone();
        cfg.p = p;
        cfg.dlb = false;
        rows.push(Scenario {
            shape,
            ..Scenario::new(format!("6³ {}", shape.name()), cfg, None)
        });
    }
    let mut c16 = resilient(RunConfig::from_p_m_density(16, 4, 0.128));
    c16.lattice = Lattice::Cluster { fill: 0.4 };
    c16.dlb = true;
    c16.seed = 1;
    c16.steps = 16;
    c16.checkpoint_interval = 5;
    c16.sentinel_interval = 4;
    rows.push(Scenario {
        expect: &[RetilesBy(10)],
        ..Scenario::new(
            "16² re-tile, resize",
            c16,
            ladder(ResizePlan::new().resize(10, 4).resize(14, 16)),
        )
    });

    // Kills in the resize window. Periodic checkpoints off: the only
    // CKPT_GATHER traffic is the two drains, so a drain kill lands in the
    // drain window by construction.
    let plan = ResizePlan::new().resize(8, 16).resize(16, 4);
    let first = cfg_4(0).p;
    let ps: Vec<usize> = [first]
        .into_iter()
        .chain(plan.stages.iter().map(|s| s.p))
        .collect();
    let elastic = ladder(plan);
    let drains = ps[..ps.len() - 1]
        .iter()
        .enumerate()
        .flat_map(|(launch, &p)| {
            (1..p).map(move |rank| vec![(launch, rank, FaultPlan::kill_on_tag(gather, 0))])
        });
    rows.push(Scenario {
        kills: Kills::Runs(drains.collect()),
        expect: &[AllFire],
        ..Scenario::new("4³ drain kills", cfg_4(0), elastic.clone())
    });
    // Every rank of a resumed generation dies at the first message it
    // sends, its first step frame.
    let first_frames = ps.iter().enumerate().skip(1).flat_map(|(launch, &p)| {
        (0..p).map(move |rank| vec![(launch, rank, FaultPlan::kill_on_tag(tags::STEP_FRAME, 0))])
    });
    rows.push(Scenario {
        kills: Kills::Runs(first_frames.collect()),
        expect: &[AllFire],
        ..Scenario::new("4³ first-frame kills", cfg_4(0), elastic.clone())
    });
    rows.push(Scenario {
        kills: Kills::Strided(stride),
        ..Scenario::new("4³ resize kill points", cfg_4(0), elastic)
    });

    // Transport chaos on the 2×2 torus, shortened; its reliable run is the
    // reference of every lossy torus cell, wire bytes included.
    let mut torus = ddm_2x2();
    torus.steps = 12;
    torus.checkpoint_interval = 0;
    rows.push(Scenario {
        kills: once(),
        expect: &[Inert],
        ..Scenario::new("2x2 reliable baseline", torus.clone(), None)
    });
    // A 3×3 DLB torus: lossy links also disturb the loads, the decisions
    // and the columns they move.
    let mut dlb = RunConfig::new(729, 6, 9, 0.2);
    dlb.dlb = true;
    dlb.steps = 8;
    dlb.thermostat_interval = 4;
    dlb.lattice = Lattice::Cluster { fill: 0.6 };
    dlb.seed = 5;
    let mut plane = torus.clone();
    plane.p = 3; // uneven slabs over nc = 4
    let mut cube = torus.clone();
    cube.p = 8;
    let cells = [
        ("2x2", DomainShape::SquarePillar, torus.clone()),
        ("3x3 dlb", DomainShape::SquarePillar, dlb),
        ("plane", DomainShape::Plane, plane),
        ("cube", DomainShape::Cube, cube),
    ];
    for seed in 1..=seeds {
        for (ri, &rates) in LOSS_RATES.iter().enumerate() {
            for (what, shape, cfg) in &cells {
                let mut cfg = cfg.clone();
                cfg.comm.chaos = Some(lossy(seed.wrapping_mul(0x9e37) ^ ri as u64, rates));
                rows.push(Scenario {
                    shape: *shape,
                    kills: once(),
                    ..Scenario::new(
                        format!("lossy {what}, seed {seed}, rates {rates:?}"),
                        cfg,
                        None,
                    )
                });
            }
        }
    }
    // Links 0↔1 go dark for a frame window mid-run, then heal: with no
    // relaunch to fall back on, completion plus parity is the proof.
    let mut cfg = torus;
    let mut chaos = LossyProfile::new(23);
    chaos.partitions = vec![Partition {
        a: 0,
        b: 1,
        from_frame: 4,
        to_frame: 12,
    }];
    cfg.comm.chaos = Some(chaos);
    rows.push(Scenario {
        kills: once(),
        expect: &[Retransmits],
        ..Scenario::new("2x2 healed partition", cfg, None)
    });
    // Rank 2 isolated for good mid-run: the world fences it and
    // relaunches. The partition re-arms in every new world (its frame
    // window counts from each world's start), so the run lands bitwise
    // only if each relaunch gets further than the last: it restores a
    // later checkpoint each time and completes within its six attempts.
    // Quicker φ fencing than the defaults keeps it well inside the
    // deadline.
    let mut cfg = resilient(ddm_2x2());
    cfg.comm.watchdog = Duration::from_secs(30);
    cfg.comm.heartbeat = Duration::from_millis(40);
    cfg.comm.suspicion_min = Duration::from_millis(300);
    cfg.comm.suspicion_max = Duration::from_millis(1200);
    cfg.comm.chaos = Some(LossyProfile::new(31).isolate(2, cfg.p, 30, u64::MAX));
    rows.push(Scenario {
        kills: once(),
        expect: &[AllFire],
        ..Scenario::new("2x2 permanent isolation", cfg, ladder(ResizePlan::new()))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows whose name starts with `prefix`, summed.
    fn total(out: &[Outcome], prefix: &str) -> (usize, Outcome) {
        let rows: Vec<&Outcome> = out.iter().filter(|o| o.name.starts_with(prefix)).collect();
        let mut sum = Outcome::default();
        for o in &rows {
            sum.runs += o.runs;
            sum.fired += o.fired;
            sum.retransmits += o.retransmits;
            assert_ne!(o.reference, 0, "{}", o.name);
        }
        (rows.len(), sum)
    }

    #[test]
    fn a_coarse_table_holds_parity_in_every_row() {
        // A coarse stride and two seeds keep this a smoke test; the table
        // itself is `pcdlb-check sweep`. (The stride still leaves two kill
        // points on every rank of the 2×2 world, which sends 89–96 ops a
        // rank now that its launch sends none.)
        let out = sweep(83, 2).expect("no hang");
        let violations: Vec<&String> = out.iter().flat_map(|o| &o.violations).collect();
        assert!(violations.is_empty(), "{violations:#?}");

        let (_, kills) = total(&out, "2x2 kill points");
        assert!(kills.runs >= 2 * 4, "at least two points per rank");
        assert!(kills.fired > 0, "the low kill points must fire");
        // 3 non-root ranks × 4 checkpoint gathers, each one contribution.
        let (_, ckpt) = total(&out, "2x2 checkpoint-gather kills");
        assert_eq!((ckpt.runs, ckpt.fired), (12, 12));
        let (_, seeded) = total(&out, "2x2 seeded lossy kills");
        assert_eq!((seeded.runs, seeded.fired), (2, 2));
        assert!(seeded.retransmits > 0);

        let (_, balancing) = total(&out, "3x3 kill points");
        assert!(balancing.runs >= 2 * 9, "at least two points per rank");
        assert!(balancing.fired > 0, "the low kill points must fire");

        let parity = ["4³ resize plan", "6³ resize", "16² re-tile"];
        let plans: usize = parity.iter().map(|p| total(&out, p).0).sum();
        assert_eq!(plans, 6);
        // 3 + 15 non-root drain contributors; 16 + 4 ranks across the two
        // resumed generations.
        let (_, drains) = total(&out, "4³ drain kills");
        assert_eq!((drains.runs, drains.fired), (18, 18));
        let (_, first_frames) = total(&out, "4³ first-frame kills");
        assert_eq!((first_frames.runs, first_frames.fired), (20, 20));
        let (_, strided) = total(&out, "4³ resize kill points");
        assert!(strided.runs >= 24, "one strided point per (launch, rank)");
        assert!(strided.fired > 0);

        // 2 seeds × 2 rates × 4 decompositions.
        let (cells, lossy) = total(&out, "lossy ");
        assert_eq!((cells, lossy.runs), (16, 16));
        assert!(lossy.retransmits > 0, "the disturbance must engage");
        let (_, healed) = total(&out, "2x2 healed partition");
        assert_eq!((healed.runs, healed.fired), (1, 0));
        let (_, isolated) = total(&out, "2x2 permanent isolation");
        assert_eq!((isolated.runs, isolated.fired), (1, 1));
        let (_, baseline) = total(&out, "2x2 reliable baseline");
        assert_eq!((baseline.runs, baseline.retransmits), (1, 0));
    }

    #[test]
    fn the_deadline_reports_a_hang() {
        let err = under_deadline(Duration::from_millis(20), "stall probe", || {
            thread::sleep(Duration::from_millis(400));
        })
        .expect_err("must time out");
        assert!(err.contains("stall probe"), "{err}");
        assert!(err.contains("deadline"), "{err}");
    }
}
