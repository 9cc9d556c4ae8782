//! `benchmark` — the one benchmark of this repository: seven pinned
//! workloads, each reporting wall throughput, the paper's deterministic
//! modelled step time and imbalance, set-up time and parity failures,
//! plus per-layer probes of `md`, `mp`, `domain`, `core` and `sim` from
//! a separate traced pass. See `README.md` beside this file.
//!
//! ```text
//! benchmark [--seed 1] [--reps 7] [--quick] [--self-check]
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --manifest
//! ```
//!
//! The first form runs the whole suite, prints every metric by name with
//! its unit, and writes `target/benchmark/report.json` and
//! `target/benchmark/trace.json`. The second is the form `BENCHMARK.json`
//! names: one workload, measured for `--seconds`, one JSON object as the
//! last line of standard output. The third prints `BENCHMARK.json`.

mod json;
mod metrics;
mod probes;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use json::Json;
use metrics::{get, Check, Def, END_TO_END};
use suite::{measure, Budget, Outcome};
use trace::Recorder;

const OUT_DIR: &str = "target/benchmark";

/// `--key value` and bare `--flag` arguments.
fn parse_args(argv: &[String]) -> Result<BTreeMap<String, String>, String> {
    const KEYS: [&str; 9] = [
        "seed",
        "reps",
        "quick",
        "self-check",
        "workload",
        "seconds",
        "trace",
        "manifest",
        "help",
    ];
    let mut args = BTreeMap::new();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .filter(|k| KEYS.contains(k))
            .ok_or_else(|| format!("unknown argument `{arg}`"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
            _ => "true".to_string(),
        };
        args.insert(key.to_string(), value);
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(
    args: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} wants a number, got `{v}`")),
    }
}

/// Threads this process may run at once.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Logical processors of the machine (what `/proc/cpuinfo` lists), which
/// can exceed what this process may use.
fn hardware_threads() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(host_threads)
}

/// First line a tool prints, or "unknown" (the contract's checkout is
/// not a git repository, for one).
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn all_defs() -> Vec<Def> {
    END_TO_END
        .iter()
        .copied()
        .chain(metrics::per_layer())
        .collect()
}

fn print_outcome(o: &Outcome, defs: &[Def]) {
    let oversubscribed = if o.p > host_threads() {
        format!(
            ", oversubscribed: {} ranks on {} cores",
            o.p,
            host_threads()
        )
    } else {
        String::new()
    };
    println!(
        "\n== {} (P = {}, {} steps, {} timed reps{oversubscribed})",
        o.name, o.p, o.steps, o.reps
    );
    for d in defs {
        let Some(v) = get(&o.values, d.name) else {
            continue;
        };
        let note = d.check.label();
        println!("  {:<42} {:>16.6} {:<9} {note}", d.name, v, d.unit);
        if d.name == "parity_failures" {
            println!(
                "  {:<42} {:>16.6} {:<9} of {} runs attempted",
                "failed_share",
                v / o.runs_attempted as f64,
                "ratio",
                o.runs_attempted
            );
        }
    }
    if o.model_drift {
        println!("  !! a modelled number differed between runs of this workload");
    }
}

/// Ratios of `steps_per_s` medians across workloads, with their bases.
fn cross_ratios(outcomes: &[Outcome]) -> Vec<(&'static str, f64, String)> {
    let sps = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.name == name)
            .and_then(|o| get(&o.values, "steps_per_s"))
    };
    [
        ("sim.p4_over_serial", "gas_pillar_p4", "gas_serial"),
        ("sim.verlet_gain_serial", "gas_serial_verlet", "gas_serial"),
        (
            "sim.verlet_gain_p4",
            "gas_pillar_p4_verlet",
            "gas_pillar_p4",
        ),
        (
            "sim.lossy_over_reliable",
            "gas_pillar_p4_lossy",
            "gas_pillar_p4",
        ),
    ]
    .into_iter()
    .filter_map(|(name, top, base)| {
        let (t, b) = (sps(top)?, sps(base)?);
        Some((
            name,
            t / b,
            format!("{top} {t:.1} steps/s over {base} {b:.1} steps/s"),
        ))
    })
    .collect()
}

fn metrics_json(values: &metrics::Values, defs: &[Def]) -> Json {
    Json::obj(defs.iter().map(|d| {
        let value = get(values, d.name).unwrap_or(0.0);
        (
            d.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
        )
    }))
}

fn report_json(outcomes: &[Outcome], seed: u64, reps: usize) -> Json {
    let defs = all_defs();
    Json::obj([
        ("seed", Json::Int(seed)),
        ("reps", Json::Int(reps as u64)),
        ("nproc", Json::Int(host_threads() as u64)),
        ("hardware_threads", Json::Int(hardware_threads() as u64)),
        ("rustc", Json::Str(tool_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("phase_timing", Json::Bool(cfg!(feature = "phase-timing"))),
        (
            "workloads",
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        let present: Vec<Def> = defs
                            .iter()
                            .copied()
                            .filter(|d| get(&o.values, d.name).is_some())
                            .collect();
                        Json::obj([
                            ("name", Json::str(o.name)),
                            ("p", Json::Int(o.p as u64)),
                            ("steps", Json::Int(o.steps)),
                            ("oversubscribed", Json::Bool(o.p > host_threads())),
                            ("reps", Json::Int(o.reps as u64)),
                            ("runs_attempted", Json::Int(o.runs_attempted)),
                            (
                                "failed_share",
                                Json::Num(o.failures.len() as f64 / o.runs_attempted as f64),
                            ),
                            ("model_drift", Json::Bool(o.model_drift)),
                            ("metrics", metrics_json(&o.values, &present)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "ratios",
            Json::obj(cross_ratios(outcomes).into_iter().map(|(name, v, base)| {
                (
                    name,
                    Json::obj([("value", Json::Num(v)), ("base", Json::Str(base))]),
                )
            })),
        ),
    ])
}

fn write_out(file: &str, doc: &Json) {
    let path = format!("{OUT_DIR}/{file}");
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.pretty())) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn write_trace(rec: &Recorder, workloads: &[workloads::Workload]) {
    let names: Vec<&str> = workloads.iter().map(|w| w.name).collect();
    write_out("trace.json", &rec.chrome_trace(&names));
}

/// Whether every run of every workload passed and repeated exactly.
fn all_correct(outcomes: &[Outcome]) -> bool {
    outcomes
        .iter()
        .all(|o| o.failures.is_empty() && !o.model_drift)
}

/// Where two sets of runs of the same code disagree by more than the
/// benchmark's own bounds (or, for exact metrics, at all).
fn disagreements(a: &[Outcome], b: &[Outcome], defs: &[Def]) -> Vec<String> {
    let mut out = Vec::new();
    for (oa, ob) in a.iter().zip(b) {
        for d in defs {
            let (Some(va), Some(vb)) = (get(&oa.values, d.name), get(&ob.values, d.name)) else {
                continue;
            };
            let bad = match d.check {
                Check::Bound { rel, floor } => (va - vb).abs() > (rel * va.abs()).max(floor),
                Check::Exact => va.to_bits() != vb.to_bits(),
                Check::Free => false,
            };
            if bad {
                out.push(format!(
                    "{}: {} = {va:?} in set A, {vb:?} in set B ({})",
                    oa.name,
                    d.name,
                    d.check.label()
                ));
            }
        }
    }
    out
}

/// The whole suite once: all seven workloads, timed rounds interleaved,
/// then the traced pass.
fn run_suite(ws: &[workloads::Workload], reps: usize, rec: &mut Recorder) -> Vec<Outcome> {
    let outcomes = measure(ws, Budget::Reps(reps), true, rec);
    let defs = all_defs();
    for o in &outcomes {
        print_outcome(o, &defs);
    }
    println!("\n== across workloads (ratios of steps_per_s medians)");
    for (name, v, base) in cross_ratios(&outcomes) {
        println!("  {name:<42} {v:>16.6} {:<9} {base}", "ratio");
    }
    outcomes
}

fn suite_main(args: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let seed = number(args, "seed", 1u64)?;
    let quick = args.contains_key("quick");
    let reps = if quick {
        1
    } else {
        number(args, "reps", 7usize)?
    };
    if reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    println!(
        "benchmark: seed {seed}, {reps} reps, nproc {}, hardware threads {}{}",
        host_threads(),
        hardware_threads(),
        if quick {
            ", QUICK (steps / 10): smoke only"
        } else {
            ""
        }
    );
    let ws = workloads::all(seed, quick);
    let mut rec = Recorder::new();
    let a = run_suite(&ws, reps, &mut rec);
    let mut ok = all_correct(&a);
    if args.contains_key("self-check") {
        println!("\n==== self-check: second set of runs of the same code");
        let b = run_suite(&ws, reps, &mut rec);
        ok &= all_correct(&b);
        let diffs = disagreements(&a, &b, &all_defs());
        for d in &diffs {
            println!("DISAGREE {d}");
        }
        println!(
            "\nself-check: {} disagreement(s) between set A and set B",
            diffs.len()
        );
        ok &= diffs.is_empty();
    }
    write_trace(&rec, &ws);
    if quick {
        println!("\"quick\": true — not a baseline; no report written");
    } else {
        write_out("report.json", &report_json(&a, seed, reps));
    }
    let failed: usize = a.iter().map(|o| o.failures.len()).sum();
    println!("parity_failures = {failed} over all workloads");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The form `BENCHMARK.json` names: one workload, one JSON result line.
fn contract_main(args: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let name = &args["workload"];
    let seed = number(args, "seed", 1u64)?;
    let seconds = number(args, "seconds", metrics::RUN_SECONDS as f64)?;
    let trace = match args.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace wants 0 or 1, got `{other}`")),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds wants 0 < s <= 60, got {seconds}"));
    }
    let w = workloads::all(seed, false)
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let ws = [w];
    let mut rec = Recorder::new();
    // A traced run splits its time between the timed rounds (the base of
    // `sim.trace_overhead`) and the traced pass with its probes.
    let budget = Budget::Seconds(if trace { seconds / 2.0 } else { seconds });
    let outcomes = measure(&ws, budget, trace, &mut rec);
    let o = &outcomes[0];
    print_outcome(o, &all_defs());
    let (end_to_end, per_layer) = metrics::contract();
    let wanted = if trace { per_layer } else { end_to_end };
    let complete = wanted.iter().all(|d| get(&o.values, d.name).is_some());
    if trace {
        write_trace(&rec, &ws);
    }
    let correct = all_correct(&outcomes) && complete;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(o.runs_attempted)),
        ("failed", Json::Int(o.failures.len() as u64)),
        ("metrics", metrics_json(&o.values, &wanted)),
    ]);
    println!("{}", line.compact());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = parse_args(&argv).and_then(|args| {
        if args.contains_key("help") {
            println!(
                "benchmark [--seed 1] [--reps 7] [--quick] [--self-check]\n\
                 benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                 benchmark --manifest"
            );
            Ok(ExitCode::SUCCESS)
        } else if args.contains_key("manifest") {
            print!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        } else if args.contains_key("workload") {
            contract_main(&args)
        } else {
            suite_main(&args)
        }
    });
    run.unwrap_or_else(|why| {
        eprintln!("benchmark: {why}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(values: metrics::Values) -> Outcome {
        Outcome {
            name: "w",
            p: 4,
            steps: 600,
            reps: 7,
            runs_attempted: 23,
            failures: Vec::new(),
            model_drift: false,
            values,
        }
    }

    #[test]
    fn self_check_applies_bounds_floors_and_exactness() {
        let base = vec![
            ("steps_per_s", 500.0),
            ("model_step_ms", 12.267),
            ("setup_s", 0.02),
            ("md.rebin.ms", 0.5),
        ];
        let defs = all_defs();
        let same =
            |b: metrics::Values| disagreements(&[outcome(base.clone())], &[outcome(b)], &defs);
        assert!(same(base.clone()).is_empty());
        // Set-up within a quarter (or, below 20 ms, within the 5 ms
        // floor); wall throughput and per-layer numbers are free to move.
        let near = vec![
            ("steps_per_s", 300.0),
            ("model_step_ms", 12.267),
            ("setup_s", 0.0249),
            ("md.rebin.ms", 5.0),
        ];
        assert!(same(near).is_empty());
        let far = vec![
            ("model_step_ms", f64::from_bits(12.267_f64.to_bits() + 1)),
            ("setup_s", 0.0251),
        ];
        let diffs = same(far);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].contains("model_step_ms") && diffs[0].contains("exact"));
        let floor = |a, b| {
            disagreements(
                &[outcome(vec![("setup_s", a)])],
                &[outcome(vec![("setup_s", b)])],
                &defs,
            )
        };
        assert!(floor(0.006, 0.0109).is_empty());
        assert_eq!(floor(0.006, 0.0111).len(), 1);
    }

    #[test]
    fn arguments_parse_flags_and_reject_unknown_keys() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--quick --seed 9 --self-check")).unwrap();
        assert_eq!(a["quick"], "true");
        assert_eq!(number(&a, "seed", 1u64), Ok(9));
        assert_eq!(number(&a, "reps", 7usize), Ok(7));
        assert!(parse_args(&argv("--bogus 1")).is_err());
        assert!(parse_args(&argv("stray")).is_err());
        let a = parse_args(&argv("--seed x")).unwrap();
        assert!(number(&a, "seed", 1u64).is_err());
    }

    #[test]
    fn result_line_carries_exactly_the_wanted_metrics() {
        let (end_to_end, _) = metrics::contract();
        let values = vec![
            ("setup_s", 0.0048),
            ("extra", 1.0),
            ("model_step_ms", 12.267),
        ];
        let line = metrics_json(&values, &end_to_end).compact();
        let doc = json::parse(&line).unwrap();
        let Json::Obj(members) = &doc else { panic!() };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["model_step_ms", "setup_s"]);
        assert_eq!(
            doc.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
    }
}
