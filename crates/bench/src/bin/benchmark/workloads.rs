//! The seven pinned workloads, how one run of each is executed, and the
//! serial references their final states are checked against.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pcdlb_md::{CellGrid, LennardJones, Particle};
use pcdlb_mp::{CommConfig, LossyProfile};
use pcdlb_sim::cube::run_cube_with_snapshot;
use pcdlb_sim::{
    digest_particles, digest_records, run_with_phase_times, run_with_snapshot, serial_sim, Lattice,
    LoadMetric, PhaseTimes, RunConfig, RunReport, WireBytes,
};

use crate::trace::Recorder;

/// Modelled cost of one candidate pair evaluation (the T3E work model),
/// pinned here because the serial workloads' modelled step time uses it
/// too.
pub const SEC_PER_PAIR: f64 = 5e-8;

/// Serial runs save their cell grid every this many steps while the
/// recorder is on; the `md` probes run on those states.
pub const PROBE_EVERY: u64 = 50;

/// The skin the two Verlet workloads (and the Verlet kernel probes) use:
/// all that fits between the 2.56 cell and the 2.5 cutoff.
pub const VERLET_SKIN: f64 = 0.06;

/// Which library entry point executes the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `serial_sim` + `step()` on the driver thread.
    Serial,
    /// `run_with_snapshot`: square-pillar SPMD engine (`sim::pe`).
    Pillar,
    /// `run_cube_with_snapshot`: cube SPMD engine (`sim::cube`).
    Cube,
}

/// Workloads of one family share physics, hence one serial reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Gas,
    GasVerlet,
    Cluster,
}

impl Family {
    /// Length of the family's serial run: its longest member's.
    fn steps(self) -> u64 {
        match self {
            Family::Gas => 600,
            Family::GasVerlet => 900,
            Family::Cluster => 500,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, shown in `BENCHMARK.json`).
    pub why: &'static str,
    pub engine: Engine,
    pub family: Family,
    /// Steps of the family's serial run (a tenth with `--quick`).
    pub family_steps: u64,
    /// Every field pinned; `cfg.steps` is the workload's step count.
    pub cfg: RunConfig,
}

impl Workload {
    pub fn is_spmd(&self) -> bool {
        self.engine != Engine::Serial
    }

    /// The one-step run `setup_s` times. Under the lossy workload's own
    /// profile seed a rank's last frame of a one-step run is a delayed
    /// one in about half the runs, and a delayed frame with nothing
    /// behind it waits 30 to 90 ms for a timer: the median of the set-up
    /// runs then flips between 8 and 90 ms from one invocation to the
    /// next. So these runs, and only these, draw their fates from another
    /// seed, under which that happens in 2 to 6 % of them.
    pub fn setup_twin(&self) -> Workload {
        let mut twin = self.clone();
        if let Some(profile) = &mut twin.cfg.comm.chaos {
            profile.seed = 9;
        }
        twin
    }

    /// The family's serial run: the same physics stepped by the serial
    /// engine for the family's full length. Reference digests, per-step
    /// timings and `md` probe states come from it; the two serial
    /// workloads are their own families' serial runs.
    pub fn serial_twin(&self) -> Workload {
        let mut twin = self.clone();
        twin.engine = Engine::Serial;
        twin.cfg.steps = self.family_steps;
        twin
    }
}

/// Message-layer settings, every field spelled out (the values are the
/// library defaults at the commit that added the benchmark). The `mp`
/// probes run under the same settings.
pub fn comm(chaos: Option<LossyProfile>) -> CommConfig {
    CommConfig {
        poll: Duration::from_millis(20),
        watchdog: Duration::from_secs(60),
        send_retry_limit: 4,
        retransmit_budget: 64,
        retransmit_base: Duration::from_micros(500),
        retransmit_cap: Duration::from_millis(50),
        heartbeat: Duration::from_millis(100),
        suspicion_min: Duration::from_millis(750),
        suspicion_max: Duration::from_secs(8),
        chaos,
    }
}

/// The lossy transport with nothing to lose: every frame delivered once
/// and in order, the reliability layer (sequencing, acks, retransmit
/// timers, detector) running all the same.
pub fn lossless(seed: u64) -> LossyProfile {
    LossyProfile {
        seed,
        drop_per_mille: 0,
        dup_per_mille: 0,
        delay_per_mille: 0,
        delay_max: 0,
        partitions: Vec::new(),
    }
}

/// The common gas: nc = 12, ρ* = 0.256, N = 7422, T* = 0.722, simple
/// cubic start. Every `RunConfig` field is set here, so a later change
/// of the library's defaults cannot move a workload.
fn gas(seed: u64, p: usize, steps: u64) -> RunConfig {
    RunConfig {
        n_particles: 7422,
        nc: 12,
        p,
        density: 0.256,
        t_ref: 0.722,
        lj: LennardJones {
            epsilon: 1.0,
            sigma: 1.0,
            rcut: 2.5,
            shifted: true,
        },
        dt: 0.0025,
        steps,
        thermostat_interval: 50,
        dlb: false,
        dlb_interval: 1,
        dlb_min_gain: 0.0,
        seed,
        load_metric: LoadMetric::WorkModel {
            sec_per_pair: SEC_PER_PAIR,
        },
        lattice: Lattice::SimpleCubic,
        central_pull: 0.0,
        pull_corner: false,
        pull_frac: None,
        pull_rmax: None,
        checkpoint_interval: 0,
        overlap: true,
        sentinel_interval: 0,
        delta_ghosts: true,
        speed: None,
        speed_aware: false,
        ghost_desync_inject: None,
        comm: comm(None),
        skin: 0.0,
        verlet: false,
    }
}

fn verlet(mut cfg: RunConfig) -> RunConfig {
    cfg.skin = VERLET_SKIN;
    cfg.verlet = true;
    cfg
}

/// The seven workloads for `seed`. `quick` divides every step count by
/// ten (smoke runs only).
pub fn all(seed: u64, quick: bool) -> Vec<Workload> {
    let steps = |n: u64| if quick { n / 10 } else { n };
    let cluster = RunConfig {
        // `from_p_m_density(9, 4, 0.128)`: 3×3 torus, m = 4, cell 2.56.
        n_particles: 3711,
        density: 0.128,
        lattice: Lattice::Cluster { fill: 0.45 },
        dlb: true,
        dlb_min_gain: 0.02,
        ..gas(seed, 9, steps(500))
    };
    let lossy = RunConfig {
        comm: comm(Some(LossyProfile {
            // Which frames are disturbed is a pure function of this seed.
            seed: 7,
            drop_per_mille: 20,
            // The issue sized this workload with 10 per mille duplicated.
            // A duplicate of a rank's last frame (its part of the final
            // gather) can reach a peer that has already left, and the
            // sender then panics, "peer rank 0 is gone": a tear-down race
            // in `mp`, seen in 9 of 7500 one-step runs at 10 per mille
            // and in 0 of 9500 without. No operation of a workload may
            // fail, or every later comparison fails with it now and then,
            // so duplicates are off until the library is fixed.
            dup_per_mille: 0,
            delay_per_mille: 10,
            delay_max: 2,
            partitions: Vec::new(),
        })),
        ..gas(seed, 4, steps(400))
    };
    use Engine::*;
    use Family::*;
    let w = |name, engine, family: Family, cfg, why| Workload {
        name,
        why,
        engine,
        family,
        family_steps: steps(family.steps()),
        cfg,
    };
    vec![
        w(
            "gas_serial",
            Serial,
            Gas,
            gas(seed, 1, steps(600)),
            "Plain single-threaded baseline: the md half-shell walk plus per-step rebin is \
             nearly all the work; mp, sim and core do nothing.",
        ),
        w(
            "gas_serial_verlet",
            Serial,
            GasVerlet,
            verlet(gas(seed, 1, steps(900))),
            "Uses md differently: Verlet list recorded at rebuilds and replayed in between, so \
             a walk gain that costs the replay (or the reverse) shows against gas_serial.",
        ),
        w(
            "gas_pillar_p4",
            Pillar,
            Gas,
            gas(seed, 4, steps(600)),
            "Legacy-default SPMD step (skin 0) on a 2x2 torus: sim::pe plus mp ghost exchange \
             over gas_serial's physics, so the difference is protocol cost.",
        ),
        w(
            "gas_pillar_p4_verlet",
            Pillar,
            GasVerlet,
            verlet(gas(seed, 4, steps(800))),
            "The recommended configuration: frozen skin epochs, no migrate or DLB mid-epoch, \
             slot-route ghost refresh; uses sim differently from gas_pillar_p4.",
        ),
        w(
            "cluster_dlb_p9",
            Pillar,
            Cluster,
            cluster,
            "The paper's scenario: concentrated load on a 3x3 torus with permanent-cell \
             transfers every step; the only workload where core and domain run.",
        ),
        w(
            "gas_cube_p8",
            Cube,
            Gas,
            gas(seed, 8, steps(500)),
            "Non-pillar engine (sim::cube), 26-neighbour exchange with the most messages per \
             step, so mp point-to-point matching does the most work here.",
        ),
        w(
            "gas_pillar_p4_lossy",
            Pillar,
            Gas,
            lossy,
            "gas_pillar_p4 over a lossy transport (20 per mille dropped, 10 delayed; the issue's \
             10 duplicated left out: they hit a tear-down panic in mp): only here the mp \
             reliability layer works.",
        ),
    ]
}

/// What one run reports besides its final state. The modelled numbers
/// are the paper's deterministic quantities; for a serial run they are
/// the same work model at P = 1 (no communication, no imbalance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    pub steps: u64,
    /// Mean `StepRecord::t_step` × 1e3 (the paper's `Tt`).
    pub model_step_ms: f64,
    /// Mean `(f_max − f_min) / f_ave` over the back half of the run.
    pub model_imbalance: f64,
    pub pair_checks: u64,
    /// Counted by serial runs only (a `StepRecord` does not carry it).
    pub interacting_pairs: u64,
    pub rebuilds: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub retransmits: u64,
    pub suspicions: u64,
    pub transfers: u64,
    pub max_cells: usize,
    /// `digest_records` of the report: every step's modelled times, work
    /// and energies (0 for a serial run, which has no records).
    pub records_digest: u64,
}

impl RunStats {
    pub fn from_report(report: &RunReport, load_metric: LoadMetric) -> Self {
        let recs = &report.records;
        let n = recs.len() as f64;
        let tail = &recs[recs.len() / 2..];
        Self {
            steps: recs.len() as u64,
            model_step_ms: recs.iter().map(|r| r.t_step).sum::<f64>() / n * 1e3,
            model_imbalance: tail
                .iter()
                .map(|r| (r.f_max - r.f_min) / r.f_ave)
                .sum::<f64>()
                / tail.len() as f64,
            pair_checks: recs.iter().map(|r| r.pair_checks).sum(),
            interacting_pairs: 0,
            rebuilds: recs.iter().filter(|r| r.rebuilt).count() as u64,
            msgs: report.msgs_sent,
            bytes: report.bytes_sent,
            retransmits: report.retransmits,
            suspicions: report.suspicions,
            transfers: recs.iter().map(|r| u64::from(r.transfers)).sum(),
            max_cells: recs.iter().map(|r| r.max_cells).max().unwrap_or(0),
            records_digest: digest_records(report, load_metric),
        }
    }
}

/// One completed run.
pub struct Run {
    /// Wall of the whole call: set-up, steps and final gather.
    pub wall_s: f64,
    /// Final state, sorted by id.
    pub snapshot: Vec<Particle>,
    pub stats: RunStats,
    /// Serial runs with the recorder on: the cell grid after every
    /// [`PROBE_EVERY`]th step and after the last.
    pub grids: Vec<CellGrid>,
}

/// Call into the library: a panic anywhere in it comes back as `Err`
/// with its message, and the spans it unwound through are closed.
fn guarded<R>(rec: &mut Recorder, call: impl FnOnce(&mut Recorder) -> R) -> Result<R, String> {
    let depth = rec.depth();
    catch_unwind(AssertUnwindSafe(|| call(rec))).map_err(|payload| {
        rec.close_to(depth);
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("panic with a non-string payload")
            .to_string()
    })
}

/// Run `w` for `steps` steps on the calling thread (the library spawns
/// its own rank threads).
pub fn run_once(w: &Workload, steps: u64, rec: &mut Recorder) -> Result<Run, String> {
    let cfg = RunConfig {
        steps,
        ..w.cfg.clone()
    };
    guarded(rec, |rec| match w.engine {
        Engine::Serial => run_serial(&cfg, rec),
        Engine::Pillar => run_spmd(&cfg, rec, run_with_snapshot),
        Engine::Cube => run_spmd(&cfg, rec, run_cube_with_snapshot),
    })
}

/// A pillar run through `run_with_phase_times`, the only entry point
/// that reports bytes on the wire per phase (and, built with
/// `--features phase-timing`, the library's own phase timers). It
/// gathers no final state; its step records are what can be checked.
pub fn run_wire(
    cfg: &RunConfig,
    rec: &mut Recorder,
) -> Result<(RunStats, PhaseTimes, WireBytes), String> {
    guarded(rec, |rec| {
        let (report, phases, wire) = rec.span("spmd_call", |_| run_with_phase_times(cfg));
        (
            RunStats::from_report(&report, cfg.load_metric),
            phases,
            wire,
        )
    })
}

fn run_spmd(
    cfg: &RunConfig,
    rec: &mut Recorder,
    entry: fn(&RunConfig) -> (RunReport, Vec<Particle>),
) -> Run {
    let start = Instant::now();
    let (report, snapshot) = rec.span("spmd_call", |_| entry(cfg));
    Run {
        wall_s: start.elapsed().as_secs_f64(),
        snapshot,
        stats: RunStats::from_report(&report, cfg.load_metric),
        grids: Vec::new(),
    }
}

fn run_serial(cfg: &RunConfig, rec: &mut Recorder) -> Run {
    let start = Instant::now();
    let mut sim = rec.span("setup", |_| serial_sim(cfg));
    let (mut pair_checks, mut interacting_pairs, mut rebuilds) = (0u64, 0u64, 0u64);
    let mut grids = Vec::new();
    rec.span("steps", |rec| {
        for step in 1..=cfg.steps {
            let info = rec.span("step", |_| sim.step());
            pair_checks += info.work.pair_checks;
            interacting_pairs += info.work.interacting_pairs;
            rebuilds += u64::from(sim.last_step_rebuilt());
            if rec.enabled && (step % PROBE_EVERY == 0 || step == cfg.steps) {
                grids.push(sim.grid().clone());
            }
        }
    });
    let snapshot = rec.span("gather", |_| sim.snapshot());
    let wall_s = start.elapsed().as_secs_f64();
    let per_step = pair_checks as f64 / cfg.steps as f64;
    Run {
        wall_s,
        snapshot,
        stats: RunStats {
            steps: cfg.steps,
            model_step_ms: per_step * SEC_PER_PAIR * 1e3,
            model_imbalance: 0.0,
            pair_checks,
            interacting_pairs,
            rebuilds,
            msgs: 0,
            bytes: 0,
            retransmits: 0,
            suspicions: 0,
            transfers: 0,
            max_cells: 0,
            records_digest: 0,
        },
        grids,
    }
}

/// Serial reference digests of one family, by step number.
pub type Reference = BTreeMap<u64, u64>;

/// One serial reference per family present in `workloads`, with a digest
/// at step 1 (the set-up runs), at every member's step count and at the
/// end of the family's serial run.
pub fn references(workloads: &[Workload]) -> BTreeMap<Family, Reference> {
    let mut refs: BTreeMap<Family, Reference> = BTreeMap::new();
    for w in workloads {
        let family = refs.entry(w.family).or_default();
        for step in [1, w.cfg.steps, w.family_steps] {
            family.insert(step, 0);
        }
    }
    for (family, digests) in &mut refs {
        let w = workloads
            .iter()
            .find(|w| w.family == *family)
            .expect("family came from a workload");
        let mut sim = serial_sim(&w.cfg);
        for step in 1..=w.family_steps {
            sim.step();
            if let Some(d) = digests.get_mut(&step) {
                *d = digest_particles(&sim.snapshot());
            }
        }
    }
    refs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcdlb_sim::cube::validate_cube;

    #[test]
    fn every_workload_validates_and_is_pinned() {
        let ws = all(1, false);
        // (name, N, nc, P, steps, skin, cluster start)
        let pinned = [
            ("gas_serial", 7422, 12, 1, 600, 0.0, false),
            ("gas_serial_verlet", 7422, 12, 1, 900, 0.06, false),
            ("gas_pillar_p4", 7422, 12, 4, 600, 0.0, false),
            ("gas_pillar_p4_verlet", 7422, 12, 4, 800, 0.06, false),
            ("cluster_dlb_p9", 3711, 12, 9, 500, 0.0, true),
            ("gas_cube_p8", 7422, 12, 8, 500, 0.0, false),
            ("gas_pillar_p4_lossy", 7422, 12, 4, 400, 0.0, false),
        ];
        assert_eq!(ws.len(), pinned.len());
        for (w, (name, n, nc, p, steps, skin, cluster)) in ws.iter().zip(pinned) {
            assert_eq!(w.name, name);
            assert!(crate::json::valid_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{name}");
            match w.engine {
                Engine::Cube => validate_cube(&w.cfg),
                _ => w.cfg.validate(),
            }
            let c = &w.cfg;
            assert_eq!(
                (c.n_particles, c.nc, c.p, c.steps),
                (n, nc, p, steps),
                "{name}"
            );
            assert_eq!(c.skin, skin, "{name}");
            assert_eq!(c.verlet, skin > 0.0, "{name}");
            let lattice = if cluster {
                Lattice::Cluster { fill: 0.45 }
            } else {
                Lattice::SimpleCubic
            };
            assert_eq!(c.lattice, lattice, "{name}");
            assert_eq!(c.dlb, cluster, "only the cluster balances");
            assert_eq!(c.comm.chaos.is_some(), name.ends_with("lossy"), "{name}");
            assert_eq!(c.seed, 1);
            let longest = ws
                .iter()
                .filter(|o| o.family == w.family)
                .map(|o| o.cfg.steps)
                .max();
            assert_eq!(Some(w.family_steps), longest, "{name}");
            // Every serial run is long enough for a p98 with ten samples beyond.
            assert_eq!(
                crate::stats::tail_percentile(w.family_steps as usize),
                Some(98)
            );
        }
    }

    #[test]
    fn quick_divides_steps_by_ten() {
        let steps: Vec<u64> = all(1, true).iter().map(|w| w.cfg.steps).collect();
        assert_eq!(steps, [60, 90, 60, 80, 50, 50, 40]);
    }

    #[test]
    fn spmd_runs_match_their_serial_reference_bitwise() {
        let ws: Vec<Workload> = all(5, true)
            .into_iter()
            .filter(|w| w.family != Family::GasVerlet)
            .collect();
        let refs = references(&ws);
        let mut rec = Recorder::new();
        for w in &ws {
            let run = run_once(w, w.cfg.steps, &mut rec).expect(w.name);
            assert_eq!(
                digest_particles(&run.snapshot),
                refs[&w.family][&w.cfg.steps],
                "{}",
                w.name
            );
            assert_eq!(run.stats.steps, w.cfg.steps);
            assert_eq!(w.is_spmd(), run.stats.msgs > 0, "{}", w.name);
        }
    }

    #[test]
    fn a_library_panic_comes_back_as_an_error_with_its_spans_closed() {
        let mut w = all(1, true).remove(2);
        w.cfg.nc = 7; // not a multiple of the torus side
        let mut rec = Recorder::new();
        rec.enabled = true;
        for run in [
            run_once(&w, 1, &mut rec).err(),
            run_wire(&w.cfg, &mut rec).err(),
        ] {
            let err = run.expect("must fail");
            assert!(err.contains("multiple"), "{err}");
            assert_eq!(rec.depth(), 0);
        }
        let roots: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(roots, [("spmd_call", None), ("spmd_call", None)]);
    }

    #[test]
    fn the_wire_run_repeats_the_checked_runs_records() {
        for w in all(5, true).iter().filter(|w| w.engine == Engine::Pillar) {
            let mut rec = Recorder::new();
            let run = run_once(w, w.cfg.steps, &mut rec).expect(w.name);
            let (stats, _, wire) = run_wire(&w.cfg, &mut rec).expect(w.name);
            assert_eq!(stats.records_digest, run.stats.records_digest, "{}", w.name);
            assert_ne!(stats.records_digest, 0);
            assert_eq!(stats.model_step_ms, run.stats.model_step_ms);
            assert!(wire.ghost > 0 && wire.ghost_baseline >= wire.ghost);
        }
    }

    #[test]
    fn only_the_lossy_set_up_runs_draw_other_fates() {
        for w in all(1, false) {
            let twin = w.setup_twin();
            match (&w.cfg.comm.chaos, &twin.cfg.comm.chaos) {
                (None, None) => assert_eq!(twin.cfg, w.cfg),
                (Some(own), Some(setup)) => {
                    assert_eq!((own.seed, setup.seed), (7, 9));
                    assert_eq!(
                        (own.drop_per_mille, own.dup_per_mille, own.delay_per_mille),
                        (20, 0, 10)
                    );
                    let mut same_but_seed = setup.clone();
                    same_but_seed.seed = own.seed;
                    assert_eq!(&same_but_seed, own);
                }
                _ => panic!("{}: the twin changed transports", w.name),
            }
        }
    }
}
