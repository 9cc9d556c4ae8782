//! The `pcdlb-check` command-line driver.
//!
//! ```text
//! pcdlb-check verify     [--max-side N]
//! pcdlb-check invariant  [--max-side N] [--max-m M] [--max-states K]
//! pcdlb-check interleave [--steps S] [--dfs-runs N] [--seeded-runs N]
//! pcdlb-check faults     [--stride N] [--seeds N] [--timeout-s N]
//! pcdlb-check takeover   [--stride N] [--max-side N] [--timeout-s N]
//! pcdlb-check resize     [--stride N] [--timeout-s N]
//! pcdlb-check chaos      [--seeds N] [--timeout-s N]
//! pcdlb-check model      [--steps S] [--steps-3x3 S] [--max-runs N]
//!                        [--runs-3x3 N] [--grid 0|2|3]
//! pcdlb-check lint       [--root PATH] [--strict-allow]
//! pcdlb-check all
//! ```
//!
//! Exit status 0 means every requested check passed; 1 means at least
//! one violation (or bad usage). Run from the repo root (CI does).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use pcdlb_check::chaos::chaos_sweep_with_timeout;
use pcdlb_check::explore::{config_2x2, explore};
use pcdlb_check::faults::fault_sweep_with_timeout;
use pcdlb_check::invariant::{verify_invariant, InvariantConfig};
use pcdlb_check::lint::run_lints;
use pcdlb_check::model::{model_check, standard_cases, Reduction};
use pcdlb_check::resize::resize_sweep_with_timeout;
use pcdlb_check::takeover::takeover_sweep_with_timeout;
use pcdlb_check::verify::verify_protocol;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            usage();
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "verify" => cmd_verify(rest),
        "invariant" => cmd_invariant(rest),
        "interleave" => cmd_interleave(rest),
        "faults" => cmd_faults(rest),
        "takeover" => cmd_takeover(rest),
        "resize" => cmd_resize(rest),
        "chaos" => cmd_chaos(rest),
        "model" => cmd_model(rest),
        "lint" => cmd_lint(rest),
        "all" => cmd_verify(&[])
            .and_then(|()| cmd_invariant(&[]))
            .and_then(|()| cmd_interleave(&[]))
            .and_then(|()| cmd_faults(&[]))
            .and_then(|()| cmd_takeover(&[]))
            .and_then(|()| cmd_resize(&[]))
            .and_then(|()| cmd_chaos(&[]))
            .and_then(|()| cmd_model(&[]))
            .and_then(|()| cmd_lint(&["--strict-allow".to_string()])),
        "--help" | "-h" | "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pcdlb-check: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: pcdlb-check <verify|invariant|interleave|faults|takeover|resize|chaos|model|lint|all> [options]\n\
         \n\
         verify     static protocol verification: tag table, send/recv\n\
         \u{20}          matching, deadlock freedom on all grids up to --max-side\n\
         \u{20}          (default 6)\n\
         invariant  the permanent-cell invariant search: every state\n\
         \u{20}          reachable on the even tiling and on uneven cut sets (a\n\
         \u{20}          one-column row, shifted origins, one wide tile) of each\n\
         \u{20}          grid up to --max-side (default 4), --max-m (default 3),\n\
         \u{20}          --max-states per tiling (default 20000), and the launch\n\
         \u{20}          plans of clustered starts replayed on their chosen tilings\n\
         \u{20}          (fixed and re-tiling), and the plans of a re-tiling run's\n\
         \u{20}          checks at steps 2..32\n\
         interleave determinism check: explore message-delivery orders on a\n\
         \u{20}          2x2 PE run (--steps 6 --dfs-runs 24 --seeded-runs 24)\n\
         \u{20}          and requiring a single digest\n\
         faults     crash-recovery parity sweep: kill each rank of a 2x2 run\n\
         \u{20}          at every --stride'th send op (default 16) and inside\n\
         \u{20}          each checkpoint gather, plus --seeds (default 6) seeded\n\
         \u{20}          kills over a lossy transport (15/8/8 per mille dropped/\n\
         \u{20}          duplicated/delayed) held to the reliable run's digest,\n\
         \u{20}          all under a global --timeout-s (default 600) deadline\n\
         takeover   degraded-mode takeover check: static buddy-map and\n\
         \u{20}          merged dual-role schedule verification up to --max-side\n\
         \u{20}          (default 6), then kill each rank of a 2x2 and a 3x3 run\n\
         \u{20}          at every --stride'th send op (default 32) asserting\n\
         \u{20}          bitwise recovery parity, under --timeout-s (default 900)\n\
         resize     elastic-resize sweep: shrink/grow parity plans at several\n\
         \u{20}          boundaries on three grids (serial/plane/cube bitwise\n\
         \u{20}          parity; one re-tiles in place inside a generation),\n\
         \u{20}          then kill every drain-gather contributor,\n\
         \u{20}          every resize-barrier participant, and each rank of each\n\
         \u{20}          generation at every --stride'th send op (default 24),\n\
         \u{20}          under --timeout-s (default 900)\n\
         chaos      transport-chaos sweep: --seeds (default 3) disturbance\n\
         \u{20}          seeds x loss rates over the lossy transport on all three\n\
         \u{20}          decompositions, asserting bitwise serial parity, a healed\n\
         \u{20}          partition window, a takeover-escalating permanent\n\
         \u{20}          isolation, and an inert reliable baseline, under\n\
         \u{20}          --timeout-s (default 600)\n\
         model      stateful protocol model checker: DFS over delivery\n\
         \u{20}          interleavings with partial-order reduction, checking the\n\
         \u{20}          typed safety properties (seq gaplessness, non-overtaking,\n\
         \u{20}          epoch monotonicity, pool balance, single adoption,\n\
         \u{20}          sentinel conservation) on every explored trace; matrix of\n\
         \u{20}          2x2 drained-frontier + 3x3 budget-bounded POR cases,\n\
         \u{20}          with and without takeover (--steps 6 --steps-3x3 6 --max-runs 200\n\
         \u{20}          --runs-3x3 10 --grid 0|2|3); emits a JSON summary line\n\
         lint       hazard lint over the repo tree (--root .); --strict-allow\n\
         \u{20}          also fails on allowlist entries matching no source line"
    );
}

/// Parse `--key value` options, all integers, with defaults.
fn opts(rest: &[String], keys: &[(&str, usize)]) -> Result<Vec<usize>, String> {
    let mut vals: Vec<usize> = keys.iter().map(|&(_, d)| d).collect();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let pos = keys
            .iter()
            .position(|&(k, _)| k == flag)
            .ok_or_else(|| format!("unknown option `{flag}`"))?;
        let val = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        vals[pos] = val
            .parse()
            .map_err(|_| format!("`{flag}` needs an integer, got `{val}`"))?;
    }
    Ok(vals)
}

fn cmd_verify(rest: &[String]) -> Result<(), String> {
    let v = opts(rest, &[("--max-side", 6)])?;
    let report = verify_protocol(v[0]);
    println!(
        "verify: {} schedules over sides {:?} checked",
        report.schedules_checked, report.sides
    );
    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("  {v}");
        }
        return Err(format!("{} protocol violation(s)", report.violations.len()));
    }
    Ok(())
}

/// The permanent-cell invariant search, uneven cut sets included.
fn cmd_invariant(rest: &[String]) -> Result<(), String> {
    let v = opts(
        rest,
        &[("--max-side", 4), ("--max-m", 3), ("--max-states", 20_000)],
    )?;
    let inv = verify_invariant(&InvariantConfig {
        max_side: v[0],
        max_m: v[1],
        max_states_per_config: v[2],
    })
    .map_err(|e| format!("permanent-cell invariant violated: {e}"))?;
    println!(
        "invariant: permanent cells hold over {} states on {} tilings ({} uneven) of {} configs{}",
        inv.states_visited,
        inv.tilings,
        inv.tilings - inv.configs,
        inv.configs,
        if inv.truncated > 0 {
            format!(" ({} truncated at the state cap)", inv.truncated)
        } else {
            String::new()
        }
    );
    println!(
        "invariant: {} launch plans replayed on their tilings ({} re-cut), {} planned transfers legal",
        inv.plans, inv.recut_plans, inv.planned_transfers
    );
    println!(
        "invariant: {} re-tile check plans replayed on their tilings",
        inv.check_plans
    );
    Ok(())
}

fn cmd_interleave(rest: &[String]) -> Result<(), String> {
    let v = opts(
        rest,
        &[("--steps", 6), ("--dfs-runs", 24), ("--seeded-runs", 24)],
    )?;
    // The run must be delivery-order independent: every explored
    // interleaving lands on one digest.
    let out = explore(&config_2x2(v[0] as u64), v[1], v[2]);
    println!(
        "interleave: {} runs, {} distinct delivery orders (max arity {}), {} digest(s)",
        out.runs,
        out.distinct_orders,
        out.max_arity,
        out.digests.len()
    );
    if out.digests.len() != 1 {
        return Err(format!(
            "simulation digest depends on message-delivery order: {:?}",
            out.digests
        ));
    }
    Ok(())
}

fn cmd_faults(rest: &[String]) -> Result<(), String> {
    let v = opts(
        rest,
        &[("--stride", 16), ("--seeds", 6), ("--timeout-s", 600)],
    )?;
    let (stride, seeds, timeout_s) = (v[0] as u64, v[1], v[2] as u64);
    let out = fault_sweep_with_timeout(stride, seeds, Duration::from_secs(timeout_s))?;
    println!(
        "faults: {} kill-point runs ({} fired), {} checkpoint-phase kills ({} fired), {} seeded lossy kills ({} fired, {} retransmits), reference digest {:#018x}",
        out.kill_runs,
        out.kills_fired,
        out.ckpt_runs,
        out.ckpt_kills_fired,
        out.seeded_runs,
        out.seeded_kills_fired,
        out.seeded_retransmits,
        out.reference_digest
    );
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("  {v}");
        }
        return Err(format!(
            "{} recovery-parity violation(s)",
            out.violations.len()
        ));
    }
    Ok(())
}

fn cmd_takeover(rest: &[String]) -> Result<(), String> {
    let v = opts(
        rest,
        &[("--stride", 32), ("--max-side", 6), ("--timeout-s", 900)],
    )?;
    let (stride, max_side, timeout_s) = (v[0] as u64, v[1], v[2] as u64);
    let out = takeover_sweep_with_timeout(stride, max_side, Duration::from_secs(timeout_s))?;
    println!(
        "takeover: {} buddy cases, {} merged schedules, {} kill runs ({} fired: {} degraded, {} relaunched), {} second-death run(s)",
        out.buddy_checks,
        out.merged_schedules,
        out.kill_runs,
        out.kills_fired,
        out.degraded,
        out.relaunched,
        out.second_death_runs
    );
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("  {v}");
        }
        return Err(format!("{} takeover violation(s)", out.violations.len()));
    }
    Ok(())
}

fn cmd_resize(rest: &[String]) -> Result<(), String> {
    let v = opts(rest, &[("--stride", 24), ("--timeout-s", 900)])?;
    let (stride, timeout_s) = (v[0] as u64, v[1] as u64);
    let out = resize_sweep_with_timeout(stride, Duration::from_secs(timeout_s))?;
    println!(
        "resize: {} parity plans, {} drain kills ({} fired), {} barrier kills ({} fired), {} kill-point runs ({} fired), reference digest {:#018x}",
        out.parity_runs,
        out.drain_runs,
        out.drain_kills_fired,
        out.barrier_runs,
        out.barrier_kills_fired,
        out.kill_runs,
        out.kills_fired,
        out.reference_digest
    );
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("  {v}");
        }
        return Err(format!(
            "{} elastic-resize violation(s)",
            out.violations.len()
        ));
    }
    Ok(())
}

fn cmd_chaos(rest: &[String]) -> Result<(), String> {
    let v = opts(rest, &[("--seeds", 3), ("--timeout-s", 600)])?;
    let (seeds, timeout_s) = (v[0] as u64, v[1] as u64);
    let out = chaos_sweep_with_timeout(seeds, Duration::from_secs(timeout_s))?;
    println!(
        "chaos: {} lossy parity runs, {} healed partition(s), {} takeover partition(s), {} reliable baseline run(s), {} retransmit(s), {} suspicion(s)",
        out.parity_runs,
        out.healed_partitions,
        out.takeover_partitions,
        out.inproc_runs,
        out.retransmits,
        out.suspicions
    );
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("  {v}");
        }
        return Err(format!(
            "{} transport-chaos violation(s)",
            out.violations.len()
        ));
    }
    Ok(())
}

fn cmd_model(rest: &[String]) -> Result<(), String> {
    let v = opts(
        rest,
        &[
            ("--steps", 6),
            ("--steps-3x3", 6),
            ("--max-runs", 200),
            ("--runs-3x3", 10),
            ("--grid", 0),
        ],
    )?;
    let (steps_2x2, steps_3x3, max_runs, runs_3x3, grid) =
        (v[0] as u64, v[1] as u64, v[2], v[3], v[4]);
    if grid != 0 && grid != 2 && grid != 3 {
        return Err(format!("`--grid` must be 0 (all), 2 or 3, got {grid}"));
    }
    let cases = standard_cases(steps_2x2, steps_3x3, max_runs, runs_3x3, grid);
    let mut failures: Vec<String> = Vec::new();
    let mut json_cases: Vec<String> = Vec::new();
    for case in &cases {
        let out = model_check(case)?;
        let mode = match out.mode {
            Reduction::Exhaustive => "exhaustive",
            Reduction::Por => "por",
        };
        println!(
            "model[{}]: {} runs ({}, {}), {} states, {} choice points (max arity {}), \
             {} forks, pruned {} independent / {} sleep / {} visited, \
             unreduced >= {} ({:.1}x reduction), {} events, {} digest(s), {} violation(s)",
            out.label,
            out.runs,
            mode,
            if out.exhausted {
                "exhausted"
            } else {
                "budget-capped"
            },
            out.distinct_states,
            out.choice_points,
            out.max_arity,
            out.forks,
            out.pruned_independent,
            out.pruned_sleep,
            out.pruned_visited,
            out.unreduced_estimate,
            out.reduction_factor(),
            out.events,
            out.digests.len(),
            out.violations.len(),
        );
        for viol in &out.violations {
            eprintln!("  {viol}");
        }
        json_cases.push(format!(
            "{{\"label\":\"{}\",\"mode\":\"{}\",\"runs\":{},\"exhausted\":{},\
             \"distinct_states\":{},\"choice_points\":{},\"max_arity\":{},\"forks\":{},\
             \"pruned_independent\":{},\"pruned_sleep\":{},\"pruned_visited\":{},\
             \"unreduced_estimate\":{},\"reduction_factor\":{:.2},\"events\":{},\
             \"digests\":{},\"violations\":{}}}",
            out.label,
            mode,
            out.runs,
            out.exhausted,
            out.distinct_states,
            out.choice_points,
            out.max_arity,
            out.forks,
            out.pruned_independent,
            out.pruned_sleep,
            out.pruned_visited,
            out.unreduced_estimate,
            out.reduction_factor(),
            out.events,
            out.digests.len(),
            out.violations.len(),
        ));
        if !out.violations.is_empty() {
            failures.push(format!(
                "{}: {} property violation(s)",
                out.label,
                out.violations.len()
            ));
        }
        if case.kill.is_none() && !out.exhausted {
            failures.push(format!(
                "{}: DPOR frontier did not drain within {} runs — fault-free \
                 cases must be verified exhaustively up to independence",
                out.label, case.max_runs
            ));
        }
        if (case.kill.is_some() || out.label.starts_with("3x3")) && out.reduction_factor() < 10.0 {
            failures.push(format!(
                "{}: partial-order reduction only {:.1}x (< 10x required)",
                out.label,
                out.reduction_factor()
            ));
        }
    }
    println!("{{\"model\":{{\"cases\":[{}]}}}}", json_cases.join(","));
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn cmd_lint(rest: &[String]) -> Result<(), String> {
    let mut root = PathBuf::from(".");
    let mut strict_allow = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("`--root` needs a path")?);
            }
            "--strict-allow" => strict_allow = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if !root.is_dir() {
        return Err(format!("lint root `{}` is not a directory", root.display()));
    }
    let report = run_lints(&root).map_err(|e| format!("lint I/O error: {e}"))?;
    if report.files_scanned == 0 {
        return Err(format!(
            "lint scanned no .rs files under `{}` — wrong --root?",
            root.display()
        ));
    }
    println!(
        "lint: {} files scanned, {} finding(s), {} suppressed by allowlist, {} dead allow(s)",
        report.files_scanned,
        report.findings.len(),
        report.suppressed,
        report.dead_allows.len()
    );
    if !report.findings.is_empty() {
        for f in &report.findings {
            eprintln!("  {f}");
        }
        return Err(format!("{} lint violation(s)", report.findings.len()));
    }
    if strict_allow && !report.dead_allows.is_empty() {
        for d in &report.dead_allows {
            eprintln!("  dead allowlist entry: {d}");
        }
        return Err(format!(
            "{} allowlist entr(y/ies) suppress nothing — remove them from lint-allow.txt",
            report.dead_allows.len()
        ));
    }
    Ok(())
}
