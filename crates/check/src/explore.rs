//! The interleaving explorer: run the simulator under many
//! message-delivery orders and compare state digests.
//!
//! Two exploration modes feed off each other:
//!
//! - **Bounded DFS** over replay prefixes: run once with empty prefixes
//!   (lowest-source-first delivery), then for every observed choice point
//!   with more than one buffered candidate, fork a run that takes each
//!   alternative there. This systematically flips early delivery
//!   decisions the way a DPOR-style checker would.
//! - **Seeded breadth**: additional runs under per-rank pseudo-random
//!   policies, covering deep interleavings DFS cannot reach within its
//!   run budget.
//!
//! Because the *set* of physically-arrived messages at a choice point
//! depends on real thread timing, replay is best-effort (see
//! `pcdlb_mp::check`); runs are therefore deduplicated by their observed
//! traces, and the guarantee checked is: **every observed delivery order
//! yields the same digest**.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use pcdlb_mp::check::{ChoiceTrace, DeliveryPolicy, ReplayPolicy, SeededPolicy, TraceHandle};
use pcdlb_sim::config::RunConfig;
use pcdlb_sim::digest::Fnv1a;
use pcdlb_sim::{digest_run, Launch};

/// What an exploration observed.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Total runs performed.
    pub runs: usize,
    /// Distinct digests seen — `len() == 1` means delivery-order
    /// independent over everything explored.
    pub digests: BTreeSet<u64>,
    /// Distinct observed delivery orders (hashes of the per-rank choice
    /// traces).
    pub distinct_orders: usize,
    /// Largest candidate-set size seen at any choice point.
    pub max_arity: usize,
}

/// A factory of per-rank policies for one run.
enum RunKind {
    Replay(Vec<Vec<usize>>),
    Seeded(u64),
}

/// Run the simulator once under controlled delivery; returns the digest
/// and each rank's observed choice trace.
fn run_once(cfg: &RunConfig, kind: RunKind) -> (u64, Vec<ChoiceTrace>) {
    let handles: Arc<Mutex<Vec<Option<TraceHandle>>>> = Arc::new(Mutex::new(vec![None; cfg.p]));
    let handles_in = Arc::clone(&handles);
    let launch = Launch::new().snapshot().on_start(move |_launch, comm| {
        let rank = comm.rank();
        let (policy, handle): (Box<dyn DeliveryPolicy>, TraceHandle) = match &kind {
            RunKind::Replay(prefixes) => {
                let (p, h) = ReplayPolicy::new(prefixes.get(rank).cloned().unwrap_or_default());
                (Box::new(p), h)
            }
            RunKind::Seeded(seed) => {
                let (p, h) = SeededPolicy::new(
                    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(rank as u64),
                );
                (Box::new(p), h)
            }
        };
        handles_in.lock().expect("handle table")[rank] = Some(handle);
        comm.set_delivery_policy(policy);
    });
    let (report, snapshot) = launch.run(cfg).into_snapshot();
    let digest = digest_run(&report, &snapshot, cfg.load_metric);
    let traces = handles
        .lock()
        .expect("handle table")
        .iter()
        .map(|h| {
            h.as_ref()
                .map(|h| h.lock().expect("trace").clone())
                .unwrap_or_default()
        })
        .collect();
    (digest, traces)
}

/// Order-preserving hash of a full per-rank trace set.
fn trace_hash(traces: &[ChoiceTrace]) -> u64 {
    let mut h = Fnv1a::new();
    for (r, t) in traces.iter().enumerate() {
        h.write_u64(r as u64);
        h.write_u64(t.len() as u64);
        for cp in t {
            h.write_u64(cp.arity as u64);
            h.write_u64(cp.taken as u64);
        }
    }
    h.finish()
}

/// Cap on forks queued from a single run, to keep the frontier bounded.
const MAX_FORKS_PER_RUN: usize = 16;

/// Explore delivery orders of `cfg`: DFS over replay prefixes for up to
/// `dfs_runs` runs, then `seeded_runs` pseudo-random runs.
pub fn explore(cfg: &RunConfig, dfs_runs: usize, seeded_runs: usize) -> ExploreOutcome {
    let mut out = ExploreOutcome {
        runs: 0,
        digests: BTreeSet::new(),
        distinct_orders: 0,
        max_arity: 0,
    };
    let mut orders: BTreeSet<u64> = BTreeSet::new();
    let mut queued: BTreeSet<Vec<Vec<usize>>> = BTreeSet::new();
    let mut stack: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); cfg.p]];
    while let Some(prefixes) = stack.pop() {
        if out.runs >= dfs_runs {
            break;
        }
        let (digest, traces) = run_once(cfg, RunKind::Replay(prefixes.clone()));
        out.runs += 1;
        out.digests.insert(digest);
        orders.insert(trace_hash(&traces));
        let mut forks = 0;
        for (r, trace) in traces.iter().enumerate() {
            for (i, cp) in trace.iter().enumerate() {
                out.max_arity = out.max_arity.max(cp.arity);
                // Fork on multi-candidate choices not already forced by
                // this run's prefix.
                if cp.arity > 1 && i >= prefixes[r].len() && forks < MAX_FORKS_PER_RUN {
                    for alt in 0..cp.arity {
                        if alt == cp.taken {
                            continue;
                        }
                        let mut next = prefixes.clone();
                        next[r] = trace[..i].iter().map(|c| c.taken).collect();
                        next[r].push(alt);
                        if queued.insert(next.clone()) {
                            stack.push(next);
                            forks += 1;
                        }
                    }
                }
            }
        }
    }
    for seed in 0..seeded_runs as u64 {
        let (digest, traces) = run_once(cfg, RunKind::Seeded(seed + 1));
        out.runs += 1;
        out.digests.insert(digest);
        orders.insert(trace_hash(&traces));
        for t in &traces {
            for cp in t {
                out.max_arity = out.max_arity.max(cp.arity);
            }
        }
    }
    out.distinct_orders = orders.len();
    out
}

/// The 2×2 PE configuration the determinism acceptance check runs on:
/// small enough to explore many orders quickly, with migration, ghost
/// exchange, thermostat collectives and stats traffic all active.
pub fn config_2x2(steps: u64) -> RunConfig {
    let mut cfg = RunConfig::from_p_m_density(4, 1, 0.3);
    // A 2×2 torus has no distinct directional roles, so DLB is off — the
    // paper's protocol starts at side 3; delivery-order independence of
    // the remaining phases is exactly what this config checks.
    cfg.dlb = false;
    cfg.steps = steps;
    cfg.thermostat_interval = 2;
    cfg.seed = 7;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_hash_distinguishes_orders() {
        use pcdlb_mp::check::ChoicePoint;
        let a = vec![vec![ChoicePoint { arity: 2, taken: 0 }]];
        let b = vec![vec![ChoicePoint { arity: 2, taken: 1 }]];
        assert_ne!(trace_hash(&a), trace_hash(&b));
        assert_eq!(trace_hash(&a), trace_hash(&a.clone()));
    }

    #[test]
    fn explore_smoke_on_tiny_run() {
        let cfg = config_2x2(2);
        let out = explore(&cfg, 3, 2);
        assert_eq!(out.runs, 5);
        assert_eq!(
            out.digests.len(),
            1,
            "digest must not depend on delivery order"
        );
    }
}
