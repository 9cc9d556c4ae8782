//! The measurement procedure: references, set-up runs, timed rounds
//! interleaved across workloads, then one traced pass with the layer
//! probes. One driver thread calls the library closed-loop, run after
//! run; the library spawns its own rank threads.

use std::collections::BTreeMap;
use std::time::Instant;

use pcdlb_sim::{digest_particles, PhaseTimes, WireBytes};

use crate::metrics::Values;
use crate::probes;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Recorder;
use crate::workloads::{
    lossless, references, run_once, run_wire, Engine, Family, Reference, Run, RunStats, Workload,
};

/// Set-up runs (`steps = 1`, 5 to 15 ms each) per workload before the
/// timed rounds, where they double as warm-up, and after each timed run.
/// Spread over the whole measurement like this, their median moved half
/// as much from one invocation to the next as that of 45 runs at the
/// start (inter-quartile spread over ten invocations on a noisy host:
/// 0.15, 0.11, 0.05, 0.07 against 0.33, 0.26, 0.06, 0.13 of the median
/// on `gas_serial_verlet`, `gas_pillar_p4`, `gas_cube_p8`,
/// `cluster_dlb_p9`): the host's disturbances come in bursts of a second
/// or so, longer than 45 runs take.
const SETUP_RUNS_FIRST: usize = 15;
const SETUP_RUNS_PER_ROUND: usize = 10;

/// How long the timed rounds go on.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// This many rounds over all workloads.
    Reps(usize),
    /// Whole rounds until this many seconds have passed (at least three).
    Seconds(f64),
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct Outcome {
    pub name: &'static str,
    pub p: usize,
    pub steps: u64,
    pub reps: usize,
    pub runs_attempted: u64,
    /// Why each failed run failed.
    pub failures: Vec<String>,
    /// A modelled number differed between two runs of this workload.
    pub model_drift: bool,
    /// End-to-end metrics, then (after a traced pass) the per-layer ones.
    pub values: Values,
}

struct State<'a> {
    index: usize,
    w: &'a Workload,
    reference: &'a Reference,
    setup_s: Vec<f64>,
    walls: Vec<f64>,
    /// Retransmits per message of every full-length run.
    retransmit_ratios: Vec<f64>,
    first: Option<RunStats>,
    attempted: u64,
    failures: Vec<String>,
    model_drift: bool,
}

impl State<'_> {
    /// Count one run, made and verified by `run` inside a `run` span; a
    /// failure is recorded with its reason.
    fn counted<R>(
        &mut self,
        what: &str,
        rec: &mut Recorder,
        run: impl FnOnce(&mut Recorder) -> Result<R, String>,
    ) -> Option<R> {
        self.attempted += 1;
        rec.workload = self.index;
        match rec.span("run", run) {
            Ok(done) => Some(done),
            Err(why) => {
                eprintln!("{}: {what} failed: {why}", self.w.name);
                self.failures.push(why);
                None
            }
        }
    }

    /// One run, its final state checked bitwise against the serial
    /// reference at the same step.
    fn checked_run(&mut self, w: &Workload, steps: u64, rec: &mut Recorder) -> Option<Run> {
        let reference = self.reference[&steps];
        self.counted(&format!("run of {steps} steps"), rec, |rec| {
            let run = run_once(w, steps, rec)?;
            let digest = rec.span("verify", |_| digest_particles(&run.snapshot));
            if digest == reference {
                Ok(run)
            } else {
                Err(format!(
                    "digest {digest:#018x} != serial reference {reference:#018x}"
                ))
            }
        })
    }

    /// The workload once more through `run_with_phase_times`, which
    /// gathers no final state: its step records must match, bit for bit,
    /// those of `checked`, a run whose state was checked.
    fn wire_run(
        &mut self,
        checked: &RunStats,
        rec: &mut Recorder,
    ) -> Option<(PhaseTimes, WireBytes)> {
        let w = self.w;
        let want = checked.records_digest;
        self.counted("wire run", rec, |rec| {
            let (stats, phases, wire) = run_wire(&w.cfg, rec)?;
            let got = stats.records_digest;
            if got == want {
                Ok((phases, wire))
            } else {
                Err(format!(
                    "records digest {got:#018x} != checked run's {want:#018x}"
                ))
            }
        })
    }

    /// `n` more of the one-step runs `setup_s` times.
    fn setup_runs(&mut self, n: usize, rec: &mut Recorder) {
        let setup = self.w.setup_twin();
        for _ in 0..n {
            if let Some(run) = self.checked_run(&setup, 1, rec) {
                self.setup_s.push(run.wall_s);
            }
        }
    }

    /// A full-length run of the workload itself; its modelled numbers
    /// must repeat bit for bit.
    fn full_run(&mut self, rec: &mut Recorder) -> Option<Run> {
        let run = self.checked_run(self.w, self.w.cfg.steps, rec)?;
        let s = run.stats;
        let first = *self.first.get_or_insert(s);
        self.model_drift |= (
            s.model_step_ms,
            s.model_imbalance,
            s.pair_checks,
            s.msgs,
            s.bytes,
        ) != (
            first.model_step_ms,
            first.model_imbalance,
            first.pair_checks,
            first.msgs,
            first.bytes,
        );
        if s.msgs > 0 {
            self.retransmit_ratios
                .push(s.retransmits as f64 / s.msgs as f64);
        }
        Some(run)
    }
}

/// Measure `workloads`: serial references once, set-up runs, timed
/// rounds round-robin (so host drift hits every workload equally) with
/// more set-up runs in between, and with `trace` one traced pass.
pub fn measure(
    workloads: &[Workload],
    budget: Budget,
    trace: bool,
    rec: &mut Recorder,
) -> Vec<Outcome> {
    let refs: BTreeMap<Family, Reference> = references(workloads);
    let mut states: Vec<State> = workloads
        .iter()
        .enumerate()
        .map(|(index, w)| State {
            index,
            w,
            reference: &refs[&w.family],
            setup_s: Vec::new(),
            walls: Vec::new(),
            retransmit_ratios: Vec::new(),
            first: None,
            attempted: 0,
            failures: Vec::new(),
            model_drift: false,
        })
        .collect();

    rec.enabled = false;
    for st in &mut states {
        st.setup_runs(SETUP_RUNS_FIRST, rec);
    }
    let start = Instant::now();
    for round in 0.. {
        let more = match budget {
            Budget::Reps(n) => round < n,
            Budget::Seconds(s) => round < 3 || start.elapsed().as_secs_f64() < s,
        };
        if !more {
            break;
        }
        for st in &mut states {
            if let Some(run) = st.full_run(rec) {
                st.walls.push(run.wall_s);
            }
            st.setup_runs(SETUP_RUNS_PER_ROUND, rec);
        }
    }

    states
        .into_iter()
        .map(|mut st| {
            let steps = st.w.cfg.steps;
            // A workload whose every run failed still reports: zeros,
            // with the failures counted.
            let med = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
            let steps_per_s = steps as f64 / med(&st.walls).max(f64::MIN_POSITIVE);
            let setup_s = med(&st.setup_s);
            let mut layers = Values::new();
            if trace {
                rec.enabled = true;
                traced_pass(&mut st, steps_per_s, rec, &mut layers);
                rec.enabled = false;
            }
            // After the traced pass: it makes (and may fail) runs too.
            let mut values = vec![
                ("steps_per_s", steps_per_s),
                ("model_step_ms", st.first.map_or(0.0, |s| s.model_step_ms)),
                (
                    "model_imbalance",
                    st.first.map_or(0.0, |s| s.model_imbalance),
                ),
                ("setup_s", setup_s),
                ("parity_failures", st.failures.len() as f64),
            ];
            values.append(&mut layers);
            Outcome {
                name: st.w.name,
                p: st.w.cfg.p,
                steps,
                reps: st.walls.len(),
                runs_attempted: st.attempted,
                failures: st.failures,
                model_drift: st.model_drift,
                values,
            }
        })
        .collect()
}

/// One more run of the workload with the recorder on, the serial twin's
/// per-step timings and saved grids, and every layer probe as a child
/// span of the workload.
fn traced_pass(st: &mut State, timed_steps_per_s: f64, rec: &mut Recorder, out: &mut Values) {
    let w = st.w;
    let cfg = &w.cfg;
    let steps = cfg.steps as f64;
    let first_span = rec.spans().len();

    let cpu_before = probes::cpu_seconds();
    let Some(traced) = st.full_run(rec) else {
        return; // counted as failed; the probes need a final state
    };
    let cpu_s = probes::cpu_seconds() - cpu_before;
    // Per-step timings and `md` probe states come from the family's
    // serial run; a serial workload's traced run is that already.
    let twin_run;
    let twin = if w.is_spmd() {
        let run = rec.span("serial_twin", |rec| {
            st.checked_run(&w.serial_twin(), w.family_steps, rec)
        });
        let Some(run) = run else { return };
        twin_run = run;
        &twin_run
    } else {
        &traced
    };
    let stats = traced.stats;

    let step_ms: Vec<f64> = rec
        .durations_us(first_span, st.index, "step")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let step_ms_p50 = median(&step_ms);
    rec.span("probe.md", |_| {
        probes::md(&twin.grids, cfg, step_ms_p50, out)
    });
    out.push((
        "md.verlet.rebuilds_per_100_steps",
        100.0 * stats.rebuilds as f64 / steps,
    ));
    out.push(("md.pair_checks_per_step", stats.pair_checks as f64 / steps));
    out.push((
        "md.force.hit_ratio",
        twin.stats.interacting_pairs as f64 / twin.stats.pair_checks as f64,
    ));
    out.push(("md.step_ms_p50", step_ms_p50));
    // The tail is the highest percentile with ten samples beyond it;
    // that is p98 at every full step count (short `--quick` runs have
    // too few samples and omit it).
    if tail_percentile(step_ms.len()) >= Some(98) {
        out.push(("md.step_ms_p98", percentile(&step_ms, 98)));
    }

    let msg_bytes = stats.bytes.checked_div(stats.msgs).unwrap_or(0) as usize;
    rec.span("probe.mp", |_| probes::mp(cfg.p, msg_bytes, cfg.seed, out));
    // Wasted work of the reliability layer: retransmits nothing was
    // lost to cause. The workload once more with its loss rates at zero;
    // 0 over the reliable transport, whose reliability layer is inert.
    let lossfree = match &cfg.comm.chaos {
        Some(profile) => {
            let mut quiet = w.clone();
            quiet.cfg.comm.chaos = Some(lossless(profile.seed));
            rec.span("lossfree_twin", |rec| {
                st.checked_run(&quiet, cfg.steps, rec)
            })
            .map_or(0.0, |run| {
                run.stats.retransmits as f64 / run.stats.msgs as f64
            })
        }
        None => 0.0,
    };
    out.push(("mp.rel.retransmits_per_msg.lossfree", lossfree));
    let ratios = &st.retransmit_ratios;
    out.push((
        "mp.rel.retransmits_per_msg.workload",
        ratios.last().copied().unwrap_or(0.0),
    ));
    out.push((
        "mp.rel.retransmits_per_msg.workload_min",
        ratios.iter().copied().reduce(f64::min).unwrap_or(0.0),
    ));
    out.push((
        "mp.rel.retransmits_per_msg.workload_max",
        ratios.iter().copied().reduce(f64::max).unwrap_or(0.0),
    ));
    out.push(("mp.msgs_per_step", stats.msgs as f64 / steps));
    out.push(("mp.bytes_per_step", stats.bytes as f64 / steps));
    out.push(("mp.suspicions", stats.suspicions as f64));

    out.push(("sim.cpu_ms_per_step", cpu_s * 1e3 / steps));
    // A workload of another engine has no per-phase wire counters.
    let (phases, wire) = if w.engine == Engine::Pillar {
        let Some(counted) = rec.span("wire_twin", |rec| st.wire_run(&stats, rec)) else {
            return;
        };
        counted
    } else {
        Default::default()
    };
    probes::sim_wire(steps, &phases, &wire, out);
    rec.span("probe.sim.codec", |_| {
        probes::sim_codec(&traced.snapshot, cfg, out)
    });
    out.push((
        "sim.trace_overhead",
        timed_steps_per_s / (steps / traced.wall_s),
    ));

    rec.span("probe.core_domain", |_| probes::core_domain(out));
    out.push((
        "core.transfers_per_100_steps",
        100.0 * stats.transfers as f64 / steps,
    ));
    out.push(("core.max_cells", stats.max_cells as f64));
    // The DDM twin (same run, balancer off) runs once, here; a workload
    // that never balances is its own twin.
    let ddm_model_ms = if cfg.dlb {
        let mut ddm = w.clone();
        ddm.cfg.dlb = false;
        rec.span("ddm_twin", |rec| st.checked_run(&ddm, cfg.steps, rec))
            .map_or(0.0, |run| run.stats.model_step_ms)
    } else {
        stats.model_step_ms
    };
    out.push(("core.dlb_model_gain", ddm_model_ms / stats.model_step_ms));
}
