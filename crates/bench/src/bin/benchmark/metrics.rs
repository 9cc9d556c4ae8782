//! Every metric the benchmark reports: name, unit, direction, and how
//! two sets of runs of the same code are compared (`--self-check`).
//! `BENCHMARK.json` is generated from these tables and the workload list.

use crate::json::{valid_name, Json};
use crate::workloads;

/// One workload's measured values, by metric name, in report order.
pub type Values = Vec<(&'static str, f64)>;

pub fn get(values: &Values, name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// How far a metric may move between two sets of runs of the same code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// A wall-clock median: at most `rel` of the first set's value, or
    /// `floor` in the metric's unit if that is larger.
    Bound { rel: f64, floor: f64 },
    /// Deterministic for a given `--seed`: any difference is a failure.
    Exact,
    /// A per-layer timing: reported, never gated.
    Free,
}

impl Check {
    /// How the check reads next to a printed value.
    pub fn label(self) -> String {
        match self {
            Check::Bound { rel, .. } => format!("bound {rel}"),
            Check::Exact => "exact".to_string(),
            Check::Free => String::new(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub check: Check,
}

const fn def(name: &'static str, unit: &'static str, better: Better, check: Check) -> Def {
    Def {
        name,
        unit,
        better,
        check,
    }
}

use Better::{Higher, Lower};
use Check::{Exact, Free};

/// What a user of the library sees, per workload. Wall throughput is
/// reported and not gated: on the shared host the benchmark was sized on
/// it cannot hold the issue's bound of a tenth (ten-seed inter-quartile
/// spreads of 0.02 to 0.28 of the median over eight batches, every
/// workload above a third of the bound in at least one), and a wall
/// metric that cannot hold its bound is demoted, not given a wider one.
/// The modelled numbers carry the unit `model_ms`/`ratio`: they are the
/// paper's deterministic T3E work-and-cost model, not wall clock.
pub const END_TO_END: [Def; 5] = [
    def("steps_per_s", "steps/s", Higher, Free),
    def("model_step_ms", "model_ms", Lower, Exact),
    def("model_imbalance", "ratio", Lower, Exact),
    def(
        "setup_s",
        "s",
        Lower,
        Check::Bound {
            rel: SETUP_BOUND,
            floor: 0.005,
        },
    ),
    def("parity_failures", "count", Lower, Exact),
];

/// The one bound of `setup_s`, in `--self-check` and in `BENCHMARK.json`
/// alike: the largest the benchmark contract allows.
const SETUP_BOUND: f64 = 0.25;

/// What `BENCHMARK.json` says for a metric that is exact at one seed.
/// The file's bounds apply to the median of ten runs at ten different
/// seeds, whose spread must stay below a third of the bound, and the
/// modelled step time moves with the seed: by 0.0013 to 0.0080 of the
/// median (inter-quartile, seeds 100 to 109) on the seven workloads.
const ACROSS_SEEDS_BOUND: f64 = 0.05;

/// Single layers, per workload, from the traced pass.
pub fn per_layer() -> Vec<Def> {
    let mut defs = vec![
        def("md.half_shell.ns_per_check", "ns", Lower, Free),
        def("md.soa_half_shell.ns_per_check", "ns", Lower, Free),
        def("md.verlet_replay.ns_per_check", "ns", Lower, Free),
        def("md.verlet_record.ms", "ms", Lower, Free),
        def("md.verlet.rebuilds_per_100_steps", "count", Lower, Exact),
        def("md.rebin.ms", "ms", Lower, Free),
        def("md.integrate.ns_per_particle", "ns", Lower, Free),
        def("md.pair_checks_per_step", "count", Lower, Exact),
        def("md.force.hit_ratio", "ratio", Higher, Exact),
        def("md.step_ms_p50", "ms", Lower, Free),
        def("md.step_ms_p98", "ms", Lower, Free),
        def("md.force_share", "ratio", Higher, Free),
        def("mp.p2p.roundtrip_us", "us", Lower, Free),
        def("mp.allreduce.us_p4", "us", Lower, Free),
        def("mp.allreduce.us_p9", "us", Lower, Free),
        def("mp.gather_bcast.us_p4", "us", Lower, Free),
        def("mp.gather_bcast.us_p9", "us", Lower, Free),
        def("mp.barrier.us_p9", "us", Lower, Free),
        def("mp.pool.checkout_checkin_ns", "ns", Lower, Free),
        def("mp.world_spawn_ms_p4", "ms", Lower, Free),
        def("mp.world_spawn_ms_p9", "ms", Lower, Free),
        def("mp.rel.p2p_roundtrip_us", "us", Lower, Free),
        def("mp.rel.overhead_ratio", "ratio", Lower, Free),
        def("mp.rel.retransmits_per_msg.lossfree", "ratio", Lower, Free),
        def("mp.rel.retransmits_per_msg.workload", "ratio", Lower, Free),
        def(
            "mp.rel.retransmits_per_msg.workload_min",
            "ratio",
            Lower,
            Free,
        ),
        def(
            "mp.rel.retransmits_per_msg.workload_max",
            "ratio",
            Lower,
            Free,
        ),
        def("mp.msgs_per_step", "count", Lower, Exact),
        def("mp.bytes_per_step", "B", Lower, Exact),
        def("mp.suspicions", "count", Lower, Free),
        def("sim.cpu_ms_per_step", "ms", Lower, Free),
        def("sim.wire.ghost_bytes_per_step", "B", Lower, Exact),
        def("sim.wire.migrate_bytes_per_step", "B", Lower, Exact),
        def("sim.wire.dlb_bytes_per_step", "B", Lower, Exact),
        def("sim.wire.ghost_ratio", "ratio", Higher, Exact),
        def("sim.frame.encode_ns_per_ghost", "ns", Lower, Free),
        def("sim.frame.decode_ns_per_ghost", "ns", Lower, Free),
        def("sim.digest.ns_per_particle", "ns", Lower, Free),
        def("sim.trace_overhead", "ratio", Lower, Free),
        def("core.decide.ns", "ns", Lower, Free),
        def("domain.ownership.transfer_check_ns", "ns", Lower, Free),
        def("core.transfers_per_100_steps", "count", Lower, Exact),
        def("core.max_cells", "count", Lower, Exact),
        def("core.dlb_model_gain", "ratio", Higher, Exact),
    ];
    if cfg!(feature = "phase-timing") {
        // Present only in a build that has the timers: never zeros.
        for name in [
            "sim.phase.force_s",
            "sim.phase.ghost_s",
            "sim.phase.migrate_s",
            "sim.phase.dlb_s",
        ] {
            defs.push(def(name, "s", Lower, Free));
        }
    }
    defs
}

/// The metrics of `BENCHMARK.json`, as the benchmark contract splits
/// them. Its `end_to_end` metrics are gated, and never 0 on any
/// workload: the modelled step time and the set-up time. The demoted
/// wall throughput and `model_imbalance` (0 on the serial workloads)
/// head `per_layer`. Parity failures travel in a run's
/// `failed`/`attempted` keys instead.
pub fn contract() -> (Vec<Def>, Vec<Def>) {
    let (gated, rest): (Vec<Def>, Vec<Def>) = END_TO_END
        .iter()
        .filter(|d| d.name != "parity_failures")
        .partition(|d| ["model_step_ms", "setup_s"].contains(&d.name));
    (gated, rest.into_iter().chain(per_layer()).collect())
}

/// A gated metric's `bound` in `BENCHMARK.json`.
fn contract_bound(d: &Def) -> f64 {
    match d.check {
        Check::Bound { rel, .. } => rel,
        Check::Exact => ACROSS_SEEDS_BOUND,
        Check::Free => unreachable!("`{}` is not gated", d.name),
    }
}

/// Seconds one contract run measures for.
pub const RUN_SECONDS: u64 = 10;

/// The benchmark's own directory, from the repository root.
pub const DIR: &str = "crates/bench/src/bin/benchmark";

/// `BENCHMARK.json`, generated: `benchmark --manifest > BENCHMARK.json`.
pub fn manifest() -> Json {
    let better = |b: Better| {
        Json::str(match b {
            Higher => "higher",
            Lower => "lower",
        })
    };
    let head = |d: &Def| {
        assert!(
            valid_name(d.name),
            "metric name `{}` breaks the rule",
            d.name
        );
        vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", better(d.better)),
        ]
    };
    let (end_to_end, per_layer) = contract();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "-p",
        "pcdlb-bench",
        "--bin",
        "benchmark",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(DIR)])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::all(1, false)
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                end_to_end
                    .iter()
                    .map(|d| {
                        let mut m = head(d);
                        m.push(("bound", Json::Num(contract_bound(d))));
                        Json::obj(m)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(per_layer.iter().map(|d| Json::obj(head(d))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_unique_and_units_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().copied().chain(per_layer()) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !d.unit.is_empty() && d.unit.len() <= 16 && d.unit.chars().all(unit_ok),
                "{}: unit {}",
                d.name,
                d.unit
            );
        }
        for d in contract().0 {
            let bound = contract_bound(&d);
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let m = manifest();
        let keys: Vec<&str> = match &m {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("manifest is an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let n = |key: &str| m.get(key).unwrap().items().len();
        assert!(n("command") <= 32);
        assert_eq!(n("workloads"), 7);
        assert!((1..=16).contains(&n("end_to_end")));
        assert!((1..=128).contains(&n("per_layer")));
        assert!((1..=60).contains(&RUN_SECONDS));
        let e2e = m.get("end_to_end").unwrap().items();
        assert!(
            e2e.iter()
                .any(|d| d.get("name").unwrap().as_str() == Some("setup_s")
                    && d.get("unit").unwrap().as_str() == Some("s")
                    && d.get("better").unwrap().as_str() == Some("lower")),
            "setup_s is required"
        );
        // The driver's run budget: 4 + 22 runs per workload, two builds.
        let runs = 4 + 22 * n("workloads");
        assert!(runs as u64 * (RUN_SECONDS + 8) + 2 * 120 <= 3420);
        assert!(m.pretty().len() <= 64 * 1024);
    }

    // The committed file describes the default build.
    #[cfg(not(feature = "phase-timing"))]
    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(crate::json::parse(committed).as_ref(), Ok(&manifest()));
        assert_eq!(committed, manifest().pretty(), "regenerate with --manifest");
    }

    #[test]
    fn phase_metrics_exist_only_with_the_feature() {
        let has = per_layer().iter().any(|d| d.name.starts_with("sim.phase."));
        assert_eq!(has, cfg!(feature = "phase-timing"));
    }
}
