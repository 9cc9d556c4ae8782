//! The `pcdlb-check` command-line driver.
//!
//! ```text
//! pcdlb-check verify     [--max-side N]
//! pcdlb-check invariant  [--max-side N] [--max-m M] [--max-states K]
//! pcdlb-check interleave [--steps S] [--dfs-runs N] [--seeded-runs N]
//! pcdlb-check sweep
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

use pcdlb_check::explore::{config_2x2, explore};
use pcdlb_check::invariant::{verify_invariant, InvariantConfig};
use pcdlb_check::lint::run_lints;
use pcdlb_check::model::{model_check, standard_cases, Reduction};
use pcdlb_check::sweep::{sweep, SEEDS, STRIDE};
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
        "sweep" => cmd_sweep(rest),
        "model" => cmd_model(rest),
        "lint" => cmd_lint(rest),
        "all" => cmd_verify(&[])
            .and_then(|()| cmd_invariant(&[]))
            .and_then(|()| cmd_interleave(&[]))
            .and_then(|()| cmd_sweep(&[]))
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
        "usage: pcdlb-check <verify|invariant|interleave|sweep|model|lint|all> [options]\n\
         \n\
         verify     static protocol verification: tag table, send/recv\n\
         \u{20}          matching, deadlock freedom, the takeover buddy map and\n\
         \u{20}          merged dual-role schedules on all grids up to --max-side\n\
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
         sweep      the fault-scenario table, no options: kills at every\n\
         \u{20}          8th send op and inside the checkpoint gather, seeded\n\
         \u{20}          kills over a lossy transport, buddy takeover and a\n\
         \u{20}          second death on 2x2 and 3x3, elastic resize plans and\n\
         \u{20}          resize-window kills, and a loss and partition matrix on\n\
         \u{20}          all three decompositions, each run held bitwise to its\n\
         \u{20}          row's fault-free reference, under one 600 s deadline\n\
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
        "verify: {} schedules over sides {:?} checked, {} buddy-map cases, {} merged dual-role schedules",
        report.schedules_checked, report.sides, report.buddy_cases, report.merged_schedules
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

fn cmd_sweep(rest: &[String]) -> Result<(), String> {
    if let Some(flag) = rest.first() {
        return Err(format!("`sweep` takes no option, got `{flag}`"));
    }
    let rows = sweep(STRIDE, SEEDS)?;
    let mut violations = 0;
    for o in &rows {
        println!(
            "sweep: {}: {} run(s) ({} fired: {} in place, {} relaunched), {} retransmit(s), {} suspicion(s)",
            o.name, o.runs, o.fired, o.degraded, o.relaunched, o.retransmits, o.suspicions
        );
        for v in &o.violations {
            eprintln!("  {v}");
        }
        violations += o.violations.len();
    }
    let runs: usize = rows.iter().map(|o| o.runs).sum();
    println!(
        "sweep: {} rows, {runs} runs, {violations} violation(s)",
        rows.len()
    );
    if violations > 0 {
        return Err(format!("{violations} fault-scenario violation(s)"));
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
