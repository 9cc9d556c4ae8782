//! The `pcdlb-check` command-line driver.
//!
//! ```text
//! pcdlb-check verify
//! pcdlb-check invariant
//! pcdlb-check sweep
//! pcdlb-check model
//! pcdlb-check lint [--root PATH]
//! pcdlb-check all
//! ```
//!
//! Every check runs at the density CI gates on and takes no option;
//! `lint` takes the tree to scan. `all` runs the five in turn and is
//! CI's gate. Exit status 0 means every requested check passed; 1 means
//! at least one violation (or bad usage). Run from the repo root (CI
//! does).

use std::path::PathBuf;
use std::process::ExitCode;

use pcdlb_check::invariant::{verify_invariant, InvariantConfig};
use pcdlb_check::lint::run_lints;
use pcdlb_check::model::{model_check, standard_cases, SEEDED_ORDERS};
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
    let flagless = |check: fn() -> Result<(), String>| match rest.first() {
        Some(flag) => Err(format!("`{cmd}` takes no option, got `{flag}`")),
        None => check(),
    };
    let result = match cmd {
        "verify" => flagless(cmd_verify),
        "invariant" => flagless(cmd_invariant),
        "sweep" => flagless(cmd_sweep),
        "model" => flagless(cmd_model),
        "lint" => cmd_lint(rest),
        "all" => flagless(|| {
            cmd_verify()
                .and_then(|()| cmd_invariant())
                .and_then(|()| cmd_sweep())
                .and_then(|()| cmd_model())
                .and_then(|()| cmd_lint(&[]))
        }),
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
        "usage: pcdlb-check <verify|invariant|sweep|model|lint|all>\n\
         \n\
         verify     static protocol verification: tag table, send/recv\n\
         \u{20}          matching and deadlock freedom on all grids up to side 6\n\
         invariant  the permanent-cell invariant search: every state\n\
         \u{20}          reachable on the even tiling and on uneven cut sets (a\n\
         \u{20}          one-column row, shifted origins, one wide tile) of each\n\
         \u{20}          grid up to side 4 and m 3, 20000 states per tiling, the\n\
         \u{20}          launch plans of clustered starts replayed on their\n\
         \u{20}          chosen tilings (fixed and re-tiling), and the plans of a\n\
         \u{20}          re-tiling run's checks at steps 2..32\n\
         sweep      the fault-scenario table: kills at every 8th send op of\n\
         \u{20}          2x2 and 3x3 worlds and inside the checkpoint gather,\n\
         \u{20}          seeded kills over a lossy transport, elastic resize\n\
         \u{20}          plans and resize-window kills, and a loss and partition\n\
         \u{20}          matrix on all three decompositions, each death\n\
         \u{20}          relaunching from the last checkpoint and each run held\n\
         \u{20}          bitwise to its row's fault-free reference, under one\n\
         \u{20}          600 s deadline\n\
         model      stateful protocol model checker: DFS over delivery\n\
         \u{20}          interleavings with partial-order reduction, then 24\n\
         \u{20}          seeded delivery orders per fault-free case, checking one\n\
         \u{20}          digest and the typed safety properties (seq gaplessness,\n\
         \u{20}          non-overtaking, link acks, suspicion episodes, sentinel\n\
         \u{20}          conservation) on every trace; 6-step\n\
         \u{20}          2x2 and 3x3 cases, fault-free and with a death that\n\
         \u{20}          relaunches (200 runs for the fault-free 2x2 case, 100\n\
         \u{20}          for the others); emits a JSON summary line\n\
         lint       hazard lint over the repo tree (--root PATH, default .);\n\
         \u{20}          allowlist entries matching no source line fail it\n\
         all        the five above in turn: CI's gate"
    );
}

fn cmd_verify() -> Result<(), String> {
    let report = verify_protocol(6);
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
fn cmd_invariant() -> Result<(), String> {
    let inv = verify_invariant(&InvariantConfig {
        max_side: 4,
        max_m: 3,
        max_states_per_config: 20_000,
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

fn cmd_sweep() -> Result<(), String> {
    let rows = sweep(STRIDE, SEEDS)?;
    let mut violations = 0;
    for o in &rows {
        println!(
            "sweep: {}: {} run(s) ({} fired), {} retransmit(s), {} suspicion(s)",
            o.name, o.runs, o.fired, o.retransmits, o.suspicions
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

fn cmd_model() -> Result<(), String> {
    let cases = standard_cases(6, 200, 100);
    let mut failures: Vec<String> = Vec::new();
    let mut json_cases: Vec<String> = Vec::new();
    for case in &cases {
        let out = model_check(case)?;
        println!(
            "model[{}]: {} runs ({}{}), {} states, {} choice points (max arity {}), \
             {} forks, pruned {} independent / {} sleep / {} visited, \
             unreduced >= {} ({:.1}x reduction), {} distinct delivery orders, {} events, \
             {} digest(s), {} violation(s)",
            out.label,
            out.runs,
            if out.exhausted {
                "exhausted"
            } else {
                "budget-capped"
            },
            if case.kill.is_none() {
                format!(", +{SEEDED_ORDERS} seeded")
            } else {
                String::new()
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
            out.distinct_orders,
            out.events,
            out.digests.len(),
            out.violations.len(),
        );
        for viol in &out.violations {
            eprintln!("  {viol}");
        }
        json_cases.push(format!(
            "{{\"label\":\"{}\",\"runs\":{},\"exhausted\":{},\
             \"distinct_states\":{},\"choice_points\":{},\"max_arity\":{},\"forks\":{},\
             \"pruned_independent\":{},\"pruned_sleep\":{},\"pruned_visited\":{},\
             \"unreduced_estimate\":{},\"reduction_factor\":{:.2},\"distinct_orders\":{},\
             \"events\":{},\"digests\":{},\"violations\":{}}}",
            out.label,
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
            out.distinct_orders,
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
    let root = match rest {
        [] => PathBuf::from("."),
        [flag, path] if flag == "--root" => PathBuf::from(path),
        other => {
            return Err(format!(
                "`lint` takes only `--root PATH`, got `{}`",
                other.join(" ")
            ))
        }
    };
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
    if !report.dead_allows.is_empty() {
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
