//! The stateful protocol model checker: explore message-delivery
//! interleavings of real simulator runs, prune commuting alternatives
//! with a dynamic partial-order reduction, and check **typed safety
//! properties** on every explored trace — not just digest equality.
//!
//! # How it works
//!
//! Each run executes the actual simulator under a [`ReplayPolicy`]
//! prefix with every rank thread bound to a protocol event log
//! ([`ProtocolEvent`]): sends, admissions, delivery choices (with the
//! full candidate set), consumptions, link-layer acks,
//! retransmissions and suspicions, and the simulator's conservation
//! sentinels.
//!
//! The DFS over replay prefixes then forks alternatives at delivery
//! choice points — but only *dependent* ones:
//!
//! - **Independence.** Two delivery alternatives at a choice point
//!   commute when both messages are later consumed. Every receive is a
//!   blocking exact-match `recv(src, tag)`, which cannot observe
//!   inter-stream delivery order (per-source FIFO is preserved either
//!   way), so swapping the two deliveries provably reaches the same
//!   state; the alternative is pruned (`pruned_independent`). An
//!   alternative is dependent — and forked — when either message is
//!   never consumed (its delivery races a death or shutdown).
//! - **Sleep sets.** A fork target identical to one already queued or
//!   explored (same full per-rank prefix) is skipped
//!   (`pruned_sleep`) — the backtrack-set dedup of DPOR.
//! - **State hashing.** Each run's canonical per-rank event projection
//!   is hashed; a run that lands on an already-visited state spawns no
//!   further forks (`pruned_visited`).
//!
//! Even a two-step 2×2 run has ~75 choice points of arity up to 3 per
//! trace, so unreduced DFS cannot drain any real configuration. The
//! standard matrix therefore verifies fault-free worlds *exhaustively up
//! to the independence relation*: the reduced frontier must drain
//! (`exhausted == true`), meaning every non-commuting interleaving was
//! explored. Because the fault-free frontiers drain in one run, each
//! fault-free case then runs [`SEEDED_ORDERS`] pseudo-random delivery
//! orders ([`SeededPolicy`]) through the same event logs and properties —
//! the empirical check on the independence relation: orders the
//! reduction never ran must land on the same digest. They fork nothing
//! and count towards neither `runs` nor `unreduced_estimate`;
//! `distinct_orders` counts the delivery orders observed over all runs.
//!
//! The reported `unreduced_estimate` is a *conservative lower bound* on
//! what exhaustive DFS would explore: every prefix the reduced search
//! runs would also be run exhaustively, plus every distinct alternative
//! it pruned would have been queued as at least one more run. The true
//! exhaustive count compounds per-branch and is strictly larger.
//!
//! # Property catalogue
//!
//! Checked on every explored trace, each violation reported with the
//! minimal offending event window (the last few events of the stream the
//! property tracks):
//!
//! | property            | statement                                                              |
//! |---------------------|------------------------------------------------------------------------|
//! | `send-gapless`      | per (src, dst) stream, sent seqs are 0, 1, 2, … with no gap            |
//! | `admit-gapless`     | per (dst, src) stream, admitted seqs are 0, 1, 2, …                    |
//! | `recv-non-overtaking` | per (dst, src, tag), consumed seqs strictly increase                 |
//! | `ack-monotone`      | per link, the cumulative ack only moves forward                        |
//! | `retransmit-valid`  | no frame is retransmitted once the cumulative ack covers it            |
//! | `suspect-episodic`  | suspicion of a peer is raised and cleared alternately                  |
//! | `sentinel-conservation` | every complete sentinel round sums to the configured particle count |
//!
//! Every property's state restarts at a `Birth`: each launch is a fresh
//! world. Relaunch runs reuse the same machinery through the resilient
//! launch and the same start hook: the replay prefix drives launch 0
//! (where the kill fires), logs accumulate across launches segmented by
//! `Birth` markers, and the messages the death leaves unconsumed make the
//! post-death window exactly where the checker forks.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pcdlb_core::protocol::tags;
use pcdlb_mp::check::{
    install_event_log, new_event_log, ChoiceTrace, DeliveryPolicy, EventLog, ProtocolEvent,
    ReplayPolicy, SeededPolicy, TraceHandle,
};
use pcdlb_mp::{FaultPlan, Tag};
use pcdlb_sim::config::{Lattice, RunConfig};
use pcdlb_sim::digest::Fnv1a;
use pcdlb_sim::{digest_run, Ladder, Launch};

// ---------------------------------------------------------------------------
// Outcome types
// ---------------------------------------------------------------------------

/// One typed safety-property violation, with the minimal offending event
/// window for diagnosis.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PropertyViolation {
    /// Which property failed (see the module-level catalogue).
    pub property: &'static str,
    /// Physical rank whose event log exhibits the violation (`usize::MAX`
    /// for cross-rank properties).
    pub rank: usize,
    /// What went wrong, with the concrete stream/key and values.
    pub detail: String,
    /// The offending tail of the relevant event stream, oldest first —
    /// only events the property actually tracks, ending at the violation.
    pub trace: Vec<String>,
}

impl std::fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.rank == usize::MAX {
            write!(f, "[{}] {}", self.property, self.detail)?;
        } else {
            write!(f, "[{}] rank {}: {}", self.property, self.rank, self.detail)?;
        }
        for ev in &self.trace {
            write!(f, "\n      {ev}")?;
        }
        Ok(())
    }
}

/// What one model-checking case observed.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// Case label, e.g. `3x3-relaunch`.
    pub label: String,
    /// DFS runs executed (the seeded orders not counted).
    pub runs: usize,
    /// True when the DFS frontier drained within the run budget — every
    /// discovered (non-pruned) alternative was explored.
    pub exhausted: bool,
    /// Distinct end-state digests — must be a singleton.
    pub digests: BTreeSet<u64>,
    /// Distinct canonical event-projection hashes seen.
    pub distinct_states: usize,
    /// Delivery choice points observed (cumulative over runs).
    pub choice_points: usize,
    /// Largest candidate set at any choice point.
    pub max_arity: usize,
    /// Distinct delivery orders observed (hashes of the per-rank choice
    /// traces), the seeded runs' included.
    pub distinct_orders: usize,
    /// Alternatives actually queued for exploration.
    pub forks: usize,
    /// Alternatives pruned because both deliveries commute (consumed by
    /// blocking exact-match receives).
    pub pruned_independent: usize,
    /// Fork targets dropped as already queued/explored (sleep set).
    pub pruned_sleep: usize,
    /// Runs landing on an already-visited state hash (no further forks).
    pub pruned_visited: usize,
    /// Conservative lower bound on the exhaustive-DFS run count for the
    /// same frontier (see the module docs).
    pub unreduced_estimate: usize,
    /// Protocol events recorded across all runs.
    pub events: usize,
    /// Deduplicated property violations across all explored traces.
    pub violations: Vec<PropertyViolation>,
}

impl ModelOutcome {
    /// Explored-interleaving reduction vs the unreduced lower bound.
    pub fn reduction_factor(&self) -> f64 {
        if self.runs == 0 {
            return 1.0;
        }
        self.unreduced_estimate as f64 / self.runs as f64
    }

    /// True when every explored trace satisfied every property and all
    /// digests agree.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.digests.len() <= 1
    }

    /// Fold one run's digest, event count and property violations in.
    fn absorb(&mut self, case: &ModelCase, digest: u64, logs: &[Vec<ProtocolEvent>]) {
        self.digests.insert(digest);
        self.events += logs.iter().map(Vec::len).sum::<usize>();
        self.violations.extend(check_all_properties(
            case.cfg.n_particles as u64,
            case.cfg.p,
            logs,
        ));
    }
}

// ---------------------------------------------------------------------------
// Typed safety properties
// ---------------------------------------------------------------------------

/// Tail window of the events `pred` selects, up to and including index
/// `upto`, rendered for a violation report.
fn window(
    events: &[ProtocolEvent],
    upto: usize,
    pred: impl Fn(&ProtocolEvent) -> bool,
) -> Vec<String> {
    const WINDOW: usize = 6;
    let mut picked: Vec<String> = events[..=upto]
        .iter()
        .filter(|e| pred(e))
        .map(|e| e.to_string())
        .collect();
    if picked.len() > WINDOW {
        picked.drain(..picked.len() - WINDOW);
        picked.insert(0, "…".to_string());
    }
    picked
}

/// Per-thread stream state, reset at every `Birth` (relaunch boundary).
#[derive(Default)]
struct ThreadState {
    /// (src, dst) → next expected seq for sends.
    send: BTreeMap<(usize, usize), u64>,
    /// (dst, src) → next expected seq for admissions.
    admit: BTreeMap<(usize, usize), u64>,
    /// (dst, src, tag) → last consumed seq.
    recv: BTreeMap<(usize, usize, Tag), u64>,
    /// Link layer: (src, dst) → last cumulative-ack point observed.
    acks: BTreeMap<(usize, usize), u64>,
    /// Failure detector: (rank, peer) pairs currently under suspicion.
    suspected: BTreeSet<(usize, usize)>,
}

/// Gapless-stream step shared by `send-gapless` and `admit-gapless`:
/// seqs start at 0 and increment by exactly 1.
fn gapless_step(next: &mut u64, seq: u64, what: &str) -> Result<(), String> {
    if seq != *next {
        return Err(format!("{what} seq {next} expected, got {seq}"));
    }
    *next += 1;
    Ok(())
}

/// Check every per-thread property on one rank's event log. Violations
/// carry the offending stream's event window.
pub fn check_thread_properties(rank: usize, events: &[ProtocolEvent]) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    let mut st = ThreadState::default();
    for (i, ev) in events.iter().enumerate() {
        match *ev {
            ProtocolEvent::Birth { .. } => st = ThreadState::default(),
            ProtocolEvent::Send { src, dst, seq, .. } => {
                let next = st.send.entry((src, dst)).or_default();
                if let Err(detail) = gapless_step(next, seq, &format!("send {src}->{dst}")) {
                    out.push(PropertyViolation {
                        property: "send-gapless",
                        rank,
                        detail,
                        trace: window(events, i, |e| {
                            matches!(e, ProtocolEvent::Send { src: s, dst: d, .. } if *s == src && *d == dst)
                        }),
                    });
                }
            }
            ProtocolEvent::Admit { dst, src, seq, .. } => {
                let next = st.admit.entry((dst, src)).or_default();
                if let Err(detail) = gapless_step(next, seq, &format!("admit {src}->{dst}")) {
                    out.push(PropertyViolation {
                        property: "admit-gapless",
                        rank,
                        detail,
                        trace: window(events, i, |e| {
                            matches!(e, ProtocolEvent::Admit { dst: d, src: s, .. } if *d == dst && *s == src)
                        }),
                    });
                }
            }
            ProtocolEvent::Recv { dst, src, tag, seq } => {
                let key = (dst, src, tag);
                if let Some(&last) = st.recv.get(&key) {
                    if seq <= last {
                        out.push(PropertyViolation {
                            property: "recv-non-overtaking",
                            rank,
                            detail: format!(
                                "consumed {src}->{dst} tag {tag} seq {seq} after seq {last}"
                            ),
                            trace: window(events, i, |e| {
                                matches!(e, ProtocolEvent::Recv { dst: d, src: s, tag: t, .. }
                                         if *d == dst && *s == src && *t == tag)
                            }),
                        });
                    }
                }
                st.recv.insert(key, seq);
            }
            ProtocolEvent::AckAdvance { src, dst, cum } => {
                let prev = st.acks.get(&(src, dst)).copied();
                if let Some(prev) = prev {
                    if cum <= prev {
                        out.push(PropertyViolation {
                            property: "ack-monotone",
                            rank,
                            detail: format!(
                                "link {src}->{dst} cumulative ack moved {prev} -> {cum} (not forward)"
                            ),
                            trace: window(events, i, |e| {
                                matches!(e, ProtocolEvent::AckAdvance { src: s, dst: d, .. }
                                         if *s == src && *d == dst)
                            }),
                        });
                    }
                }
                st.acks.insert((src, dst), cum);
            }
            ProtocolEvent::Retransmit { src, dst, seq } => {
                if let Some(&cum) = st.acks.get(&(src, dst)) {
                    if seq < cum {
                        out.push(PropertyViolation {
                            property: "retransmit-valid",
                            rank,
                            detail: format!(
                                "link {src}->{dst} retransmitted seq {seq} already covered by cum {cum}"
                            ),
                            trace: window(events, i, |e| {
                                matches!(e, ProtocolEvent::Retransmit { src: s, dst: d, .. }
                                         | ProtocolEvent::AckAdvance { src: s, dst: d, .. }
                                         if *s == src && *d == dst)
                            }),
                        });
                    }
                }
            }
            ProtocolEvent::Suspect { rank: r, peer } => {
                if !st.suspected.insert((r, peer)) {
                    out.push(PropertyViolation {
                        property: "suspect-episodic",
                        rank,
                        detail: format!(
                            "r{r} re-suspected r{peer} without an intervening unsuspect"
                        ),
                        trace: window(events, i, |e| {
                            matches!(e, ProtocolEvent::Suspect { rank: a, peer: b }
                                     | ProtocolEvent::Unsuspect { rank: a, peer: b }
                                     if *a == r && *b == peer)
                        }),
                    });
                }
            }
            ProtocolEvent::Unsuspect { rank: r, peer } => {
                if !st.suspected.remove(&(r, peer)) {
                    out.push(PropertyViolation {
                        property: "suspect-episodic",
                        rank,
                        detail: format!("r{r} cleared a suspicion of r{peer} it never raised"),
                        trace: window(events, i, |e| {
                            matches!(e, ProtocolEvent::Suspect { rank: a, peer: b }
                                     | ProtocolEvent::Unsuspect { rank: a, peer: b }
                                     if *a == r && *b == peer)
                        }),
                    });
                }
            }
            ProtocolEvent::Candidate { .. }
            | ProtocolEvent::Deliver { .. }
            | ProtocolEvent::Sentinel { .. } => {}
        }
    }
    out
}

/// Check the cross-rank property (`sentinel-conservation`) over all rank
/// logs of one exploration run.
pub fn check_global_properties(
    n_particles: u64,
    p: usize,
    logs: &[Vec<ProtocolEvent>],
) -> Vec<PropertyViolation> {
    let mut out = Vec::new();

    // sentinel-conservation: for every (attempt, step) sentinel round in
    // which ALL ranks reported, the counts must sum to the configured
    // particle total. Rounds truncated by a death are skipped.
    let mut rounds: BTreeMap<(usize, u64), BTreeMap<usize, u64>> = BTreeMap::new();
    for events in logs {
        let mut attempt = 0usize;
        let mut born = false;
        for ev in events {
            match *ev {
                ProtocolEvent::Birth { .. } => {
                    if born {
                        attempt += 1;
                    }
                    born = true;
                }
                ProtocolEvent::Sentinel { rank, step, count } => {
                    rounds
                        .entry((attempt, step))
                        .or_default()
                        .insert(rank, count);
                }
                _ => {}
            }
        }
    }
    for ((attempt, step), counts) in &rounds {
        if counts.len() == p {
            let total: u64 = counts.values().sum();
            if total != n_particles {
                out.push(PropertyViolation {
                    property: "sentinel-conservation",
                    rank: usize::MAX,
                    detail: format!(
                        "step {step} (attempt {attempt}): ranks report {total} particles, expected {n_particles}"
                    ),
                    trace: counts
                        .iter()
                        .map(|(r, c)| format!("sentinel r{r} step {step}: {c}"))
                        .collect(),
                });
            }
        }
    }
    out
}

/// All properties over one run's per-rank logs.
pub fn check_all_properties(
    n_particles: u64,
    p: usize,
    logs: &[Vec<ProtocolEvent>],
) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for (rank, events) in logs.iter().enumerate() {
        out.extend(check_thread_properties(rank, events));
    }
    out.extend(check_global_properties(n_particles, p, logs));
    out
}

// ---------------------------------------------------------------------------
// Choice-point reconstruction and the independence relation
// ---------------------------------------------------------------------------

/// A delivery choice point reconstructed from a `Candidate*`/`Deliver`
/// run in one rank's event log.
#[derive(Debug, Clone)]
struct Choice {
    /// All candidate stream heads, ordered by source rank (the order the
    /// policy saw them in).
    candidates: Vec<(usize, usize, Tag, u64)>, // (dst, src, tag, seq)
    /// Index of the delivered candidate.
    taken: usize,
}

/// Reconstruct the first-launch-segment choice points of one rank's log.
/// The k-th reconstructed choice corresponds to the k-th entry of the
/// rank's [`ChoiceTrace`] (the policy is consulted exactly once per
/// delivery).
fn choice_points(events: &[ProtocolEvent]) -> Vec<Choice> {
    let mut out = Vec::new();
    let mut pending: Vec<(usize, usize, Tag, u64)> = Vec::new();
    let mut births = 0;
    for ev in events {
        match *ev {
            ProtocolEvent::Birth { .. } => {
                births += 1;
                if births > 1 {
                    break; // forks only drive the first launch's policy
                }
            }
            ProtocolEvent::Candidate { dst, src, tag, seq } => pending.push((dst, src, tag, seq)),
            ProtocolEvent::Deliver {
                dst, src, tag, seq, ..
            } => {
                pending.push((dst, src, tag, seq));
                pending.sort_unstable_by_key(|&(_, s, ..)| s);
                let taken = pending
                    .iter()
                    .position(|&(_, s, t, q)| (s, t, q) == (src, tag, seq))
                    .expect("delivered head among candidates");
                out.push(Choice {
                    candidates: std::mem::take(&mut pending),
                    taken,
                });
            }
            _ => {}
        }
    }
    out
}

/// The messages consumed in the first launch segment, as
/// `(dst, src, tag, seq)`.
fn consumption(events: &[ProtocolEvent]) -> BTreeSet<(usize, usize, Tag, u64)> {
    let mut consumed = BTreeSet::new();
    let mut births = 0;
    for ev in events {
        match *ev {
            ProtocolEvent::Birth { .. } => {
                births += 1;
                if births > 1 {
                    break;
                }
            }
            ProtocolEvent::Recv { dst, src, tag, seq } => {
                consumed.insert((dst, src, tag, seq));
            }
            _ => {}
        }
    }
    consumed
}

/// Is swapping the delivery of `candidates[alt]` ahead of
/// `candidates[taken]` observable? See the module docs: only when either
/// message is never consumed — its delivery races a death or shutdown.
fn dependent(choice: &Choice, alt: usize, consumed: &BTreeSet<(usize, usize, Tag, u64)>) -> bool {
    let unconsumed = |c| !consumed.contains(c);
    unconsumed(&choice.candidates[choice.taken]) || unconsumed(&choice.candidates[alt])
}

/// Order-preserving hash of a full per-rank choice-trace set: one value
/// per observed delivery order.
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

/// Canonical per-rank projection hash of one run's full event trace —
/// the visited-state key for revisit pruning.
fn state_hash(logs: &[Vec<ProtocolEvent>]) -> u64 {
    let mut h = Fnv1a::new();
    for (rank, events) in logs.iter().enumerate() {
        h.write_u64(rank as u64);
        h.write_u64(events.len() as u64);
        for ev in events {
            // The Display form is a faithful canonical rendering of every
            // event variant (tested in pcdlb-mp); hashing it avoids a
            // second serialisation of the whole alphabet.
            for b in ev.to_string().as_bytes() {
                h.write_u64(*b as u64);
            }
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// One model-checking case: a configuration plus exploration knobs.
pub struct ModelCase {
    /// Display label, e.g. `2x2-relaunch`.
    pub label: String,
    /// Simulator configuration to model-check.
    pub cfg: RunConfig,
    /// Run budget; the DFS stops (non-exhausted) when it is spent.
    pub max_runs: usize,
    /// `Some((rank, op))`: kill `rank` at send op `op` on attempt 0 and
    /// model-check the relaunch from the last checkpoint.
    pub kill: Option<(usize, u64)>,
}

/// The ladder of relaunch cases.
fn model_ladder() -> Ladder {
    Ladder {
        max_attempts: 6,
        ..Ladder::default()
    }
}

/// A relaunch case's configuration: the case's, on deadlines short enough
/// that a run injecting a real death cannot hang the matrix.
fn relaunch_cfg(case: &ModelCase) -> RunConfig {
    let mut cfg = case.cfg.clone();
    cfg.comm.poll = Duration::from_millis(2);
    cfg.comm.watchdog = Duration::from_secs(10);
    cfg
}

/// The delivery order a run's first launch follows.
enum Order {
    /// Per-rank replay prefixes, then lowest source first.
    Replay(Vec<Vec<usize>>),
    /// Every choice drawn from a per-rank stream of this seed.
    Seeded(u64),
}

fn boxed<P: DeliveryPolicy + 'static>(
    (policy, handle): (P, TraceHandle),
) -> (Box<dyn DeliveryPolicy>, TraceHandle) {
    (Box::new(policy), handle)
}

/// Execute one run under `order`, with full instrumentation. Returns the
/// digest, per-rank choice traces and per-rank event logs.
#[allow(clippy::type_complexity)]
fn run_once(
    case: &ModelCase,
    order: Order,
) -> Result<(u64, Vec<ChoiceTrace>, Vec<Vec<ProtocolEvent>>), String> {
    let p = case.cfg.p;
    let handles: Arc<Mutex<Vec<Option<TraceHandle>>>> = Arc::new(Mutex::new(vec![None; p]));
    let logs: Vec<EventLog> = (0..p).map(|_| new_event_log()).collect();
    let (handles_in, logs_in) = (Arc::clone(&handles), logs.clone());
    let kill = case.kill;
    // One log per rank across every launch of the run: each
    // launch opens its segment with a `Birth` marker, before anything
    // else the rank does.
    let launch = Launch::new().snapshot().on_start(move |launch, comm| {
        let rank = comm.rank();
        install_event_log(logs_in[rank].clone(), rank);
        // The order steers launch 0 (where a kill fires); relaunches run
        // the deterministic default order.
        let (policy, handle) = match (launch, &order) {
            (0, Order::Replay(prefixes)) => boxed(ReplayPolicy::new(
                prefixes.get(rank).cloned().unwrap_or_default(),
            )),
            (0, Order::Seeded(seed)) => boxed(SeededPolicy::new(
                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(rank as u64),
            )),
            _ => boxed(ReplayPolicy::new(Vec::new())),
        };
        if launch == 0 {
            handles_in.lock().expect("handle table")[rank] = Some(handle);
        }
        comm.set_delivery_policy(policy);
        if let Some((_, op)) = kill.filter(|k| launch == 0 && k.0 == rank) {
            comm.set_fault_plan(FaultPlan::kill_at(op));
        }
    });
    let digest = match case.kill {
        None => {
            let (report, snapshot) = launch.run(&case.cfg).into_snapshot();
            digest_run(&report, &snapshot, case.cfg.load_metric)
        }
        Some((rank, op)) => {
            let outcome = launch
                .run_resilient(&relaunch_cfg(case), &model_ladder())
                .map_err(|e| format!("relaunch run failed to complete: {e:?}"))?;
            // The kill fired, on a step frame: a relaunch case that
            // relaunches nothing, or dies elsewhere, checks another case.
            let killed = format!("rank {rank} killed by injected fault at send op {op} ");
            let on_a_frame = format!("tag={})", tags::STEP_FRAME);
            let fired = (outcome.failures.iter().flat_map(|e| &e.failures))
                .any(|f| f.message.contains(&killed) && f.message.contains(&on_a_frame));
            if !fired {
                return Err(format!(
                    "the kill of rank {rank} at send op {op} did not fire on a step frame: {:?}",
                    outcome.failures
                ));
            }
            outcome.digest
        }
    };
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
    let events = logs
        .iter()
        .map(|l| l.lock().expect("event log").clone())
        .collect();
    Ok((digest, traces, events))
}

/// Seeded delivery orders each fault-free case runs after its DFS.
pub const SEEDED_ORDERS: u64 = 24;

/// Model-check one case: DFS over replay prefixes with partial-order
/// reduction, then (fault-free cases) [`SEEDED_ORDERS`] seeded orders,
/// checking every property on every trace.
pub fn model_check(case: &ModelCase) -> Result<ModelOutcome, String> {
    let p = case.cfg.p;
    let mut out = ModelOutcome {
        label: case.label.clone(),
        runs: 0,
        exhausted: true,
        digests: BTreeSet::new(),
        distinct_states: 0,
        choice_points: 0,
        max_arity: 0,
        distinct_orders: 0,
        forks: 0,
        pruned_independent: 0,
        pruned_sleep: 0,
        pruned_visited: 0,
        unreduced_estimate: 1,
        events: 0,
        violations: Vec::new(),
    };
    // For relaunch cases the explored digests must also equal the
    // fault-free reference — recovery parity folded into the digest set.
    if case.kill.is_some() {
        let reference = Launch::new()
            .run_resilient(&relaunch_cfg(case), &model_ladder())
            .map_err(|e| format!("fault-free relaunch reference failed: {e:?}"))?;
        out.digests.insert(reference.digest);
    }
    let mut orders: BTreeSet<u64> = BTreeSet::new();
    let mut visited: BTreeSet<u64> = BTreeSet::new();
    // Sleep set: every prefix ever queued (explored or waiting).
    let mut queued: BTreeSet<Vec<Vec<usize>>> = BTreeSet::new();
    // What exhaustive DFS would have queued from the same runs.
    let mut brute_queued: BTreeSet<Vec<Vec<usize>>> = BTreeSet::new();
    let initial = vec![Vec::new(); p];
    queued.insert(initial.clone());
    let mut stack: Vec<Vec<Vec<usize>>> = vec![initial];
    while let Some(prefixes) = stack.pop() {
        if out.runs >= case.max_runs {
            out.exhausted = false;
            break;
        }
        let (digest, traces, logs) = run_once(case, Order::Replay(prefixes.clone()))?;
        out.runs += 1;
        out.absorb(case, digest, &logs);
        orders.insert(trace_hash(&traces));
        if !visited.insert(state_hash(&logs)) {
            out.pruned_visited += 1;
            continue; // revisited state: nothing new can fork from here
        }
        out.distinct_states += 1;
        for rank in 0..p {
            let choices = choice_points(&logs[rank]);
            let consumed = consumption(&logs[rank]);
            let trace = &traces[rank];
            for (i, choice) in choices.iter().enumerate() {
                out.choice_points += 1;
                let arity = choice.candidates.len();
                out.max_arity = out.max_arity.max(arity);
                debug_assert!(
                    i >= trace.len() || trace[i].arity == arity,
                    "event log and choice trace disagree at rank {rank} choice {i}"
                );
                if arity < 2 || i < prefixes[rank].len() || i >= trace.len() {
                    continue;
                }
                for alt in 0..arity {
                    if alt == choice.taken {
                        continue;
                    }
                    let mut next = prefixes.clone();
                    next[rank] = trace[..i].iter().map(|c| c.taken).collect();
                    next[rank].push(alt);
                    brute_queued.insert(next.clone());
                    if !dependent(choice, alt, &consumed) {
                        out.pruned_independent += 1;
                    } else if queued.insert(next.clone()) {
                        stack.push(next);
                        out.forks += 1;
                    } else {
                        out.pruned_sleep += 1;
                    }
                }
            }
        }
    }
    out.unreduced_estimate = 1 + brute_queued.len();
    if case.kill.is_none() {
        for seed in 1..=SEEDED_ORDERS {
            let (digest, traces, logs) = run_once(case, Order::Seeded(seed))?;
            out.absorb(case, digest, &logs);
            orders.insert(trace_hash(&traces));
        }
    }
    out.distinct_orders = orders.len();
    let mut seen = BTreeSet::new();
    out.violations
        .retain(|v| seen.insert((v.property, v.rank, v.detail.clone())));
    if out.digests.len() > 1 {
        out.violations.push(PropertyViolation {
            property: "digest-equality",
            rank: usize::MAX,
            detail: format!(
                "explored interleavings produced {} distinct digests: {:?}",
                out.digests.len(),
                out.digests
            ),
            trace: Vec::new(),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The standard case matrix
// ---------------------------------------------------------------------------

/// 2×2 model configuration: small enough to explore many orders quickly,
/// with migration, ghost exchange, thermostat collectives, stats traffic,
/// checkpoints and the conservation sentinel all active. A 2×2 torus has
/// no distinct directional roles, so DLB is off — the paper's protocol
/// starts at side 3, where the 3×3 cases run it.
fn model_config_2x2(steps: u64) -> RunConfig {
    let mut cfg = RunConfig::from_p_m_density(4, 1, 0.3);
    cfg.dlb = false;
    cfg.steps = steps;
    cfg.thermostat_interval = 2;
    cfg.seed = 7;
    cfg.sentinel_interval = 3;
    cfg.checkpoint_interval = 2;
    cfg.validate();
    cfg
}

/// 3×3 model configuration: the clustered DLB workload of the sweep's
/// 3×3 kill points, shortened — the smallest grid that runs the full
/// balancing protocol: loads, decisions and the columns they move.
fn model_config_3x3(steps: u64) -> RunConfig {
    let mut cfg = RunConfig::new(600, 9, 9, 0.05);
    cfg.lattice = Lattice::Cluster { fill: 0.5 };
    cfg.steps = steps;
    cfg.dlb = true;
    cfg.seed = 3;
    cfg.thermostat_interval = 4;
    cfg.checkpoint_interval = 3;
    cfg.sentinel_interval = 3;
    cfg.validate();
    cfg
}

/// The standard model-checking matrix driven by `pcdlb-check model`:
/// 2×2 and 3×3, each fault-free and with a death that relaunches,
/// `steps` long. The fault-free 2×2 case gets `max_runs_2x2` DFS runs,
/// the others `max_runs`. Fault-free cases must exhaust; `pcdlb-check
/// model` gates relaunch and 3×3 cases on the reported reduction factor.
pub fn standard_cases(steps: u64, max_runs_2x2: usize, max_runs: usize) -> Vec<ModelCase> {
    let case = |label: &str, cfg: RunConfig, max_runs, kill| ModelCase {
        label: label.into(),
        cfg,
        max_runs,
        kill,
    };
    // Kill rank 1 on launch 0 at a send op of a step exchange (0-based,
    // counted from the first step: a launch sends nothing): on the 2×2,
    // the first frame of step 6, after the checkpoint of step 4; on the
    // 3×3, a frame of step 3, before its checkpoint. `run_once` fails a
    // case whose kill does not fire on a step frame.
    vec![
        case("2x2", model_config_2x2(steps), max_runs_2x2, None),
        case(
            "2x2-relaunch",
            model_config_2x2(steps),
            max_runs,
            Some((1, 20)),
        ),
        case("3x3", model_config_3x3(steps), max_runs, None),
        case(
            "3x3-relaunch",
            model_config_3x3(steps),
            max_runs,
            Some((1, 16)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_send(src: usize, dst: usize, tag: Tag, seq: u64) -> ProtocolEvent {
        ProtocolEvent::Send { src, dst, tag, seq }
    }

    #[test]
    fn gapless_send_stream_passes_and_gap_fails() {
        let birth = ProtocolEvent::Birth { rank: 0 };
        let ok = vec![
            birth,
            ev_send(0, 1, 7, 0),
            ev_send(0, 1, 7, 1),
            ev_send(0, 2, 7, 0),
        ];
        assert!(check_thread_properties(0, &ok).is_empty());
        let gap = vec![birth, ev_send(0, 1, 7, 0), ev_send(0, 1, 7, 2)];
        let v = check_thread_properties(0, &gap);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "send-gapless");
        assert!(!v[0].trace.is_empty(), "violation carries its event window");
    }

    #[test]
    fn ack_monotone_catches_regression_and_retransmit_below_cum() {
        let birth = ProtocolEvent::Birth { rank: 0 };
        let ok = vec![
            birth,
            ProtocolEvent::Retransmit {
                src: 0,
                dst: 1,
                seq: 0,
            },
            ProtocolEvent::AckAdvance {
                src: 0,
                dst: 1,
                cum: 1,
            },
            ProtocolEvent::Retransmit {
                src: 0,
                dst: 1,
                seq: 1,
            },
            ProtocolEvent::AckAdvance {
                src: 0,
                dst: 1,
                cum: 3,
            },
        ];
        assert!(check_thread_properties(0, &ok).is_empty());
        let regress = vec![
            birth,
            ProtocolEvent::AckAdvance {
                src: 0,
                dst: 1,
                cum: 3,
            },
            ProtocolEvent::AckAdvance {
                src: 0,
                dst: 1,
                cum: 2,
            },
        ];
        let v = check_thread_properties(0, &regress);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "ack-monotone");
        let stale_retx = vec![
            birth,
            ProtocolEvent::AckAdvance {
                src: 0,
                dst: 1,
                cum: 3,
            },
            ProtocolEvent::Retransmit {
                src: 0,
                dst: 1,
                seq: 2,
            },
        ];
        let v = check_thread_properties(0, &stale_retx);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "retransmit-valid");
    }

    #[test]
    fn suspicion_episodes_must_alternate() {
        let birth = ProtocolEvent::Birth { rank: 0 };
        let ok = vec![
            birth,
            ProtocolEvent::Suspect { rank: 0, peer: 2 },
            ProtocolEvent::Unsuspect { rank: 0, peer: 2 },
            ProtocolEvent::Suspect { rank: 0, peer: 2 },
        ];
        assert!(check_thread_properties(0, &ok).is_empty());
        let double = vec![
            birth,
            ProtocolEvent::Suspect { rank: 0, peer: 2 },
            ProtocolEvent::Suspect { rank: 0, peer: 2 },
        ];
        let v = check_thread_properties(0, &double);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "suspect-episodic");
        let orphan_clear = vec![birth, ProtocolEvent::Unsuspect { rank: 0, peer: 2 }];
        let v = check_thread_properties(0, &orphan_clear);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "suspect-episodic");
    }

    #[test]
    fn birth_resets_all_stream_state() {
        let relaunch = vec![
            ProtocolEvent::Birth { rank: 0 },
            ev_send(0, 1, 7, 0),
            ev_send(0, 1, 7, 1),
            ProtocolEvent::Birth { rank: 0 },
            ev_send(0, 1, 7, 0), // fresh world: seq restarts
        ];
        assert!(check_thread_properties(0, &relaunch).is_empty());
    }

    #[test]
    fn sentinel_round_sum_mismatch_is_caught() {
        let logs = vec![
            vec![
                ProtocolEvent::Birth { rank: 0 },
                ProtocolEvent::Sentinel {
                    rank: 0,
                    step: 3,
                    count: 40,
                },
            ],
            vec![
                ProtocolEvent::Birth { rank: 1 },
                ProtocolEvent::Sentinel {
                    rank: 1,
                    step: 3,
                    count: 59, // one particle missing
                },
            ],
        ];
        let v = check_global_properties(100, 2, &logs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "sentinel-conservation");
        // Incomplete rounds (a rank died mid-gather) are not violations.
        let partial = vec![logs[0].clone()];
        assert!(check_global_properties(100, 2, &partial).is_empty());
    }

    #[test]
    fn trace_hash_distinguishes_orders() {
        use pcdlb_mp::check::ChoicePoint;
        let a = vec![vec![ChoicePoint { arity: 2, taken: 0 }]];
        let b = vec![vec![ChoicePoint { arity: 2, taken: 1 }]];
        assert_ne!(trace_hash(&a), trace_hash(&b));
        assert_eq!(trace_hash(&a), trace_hash(&a.clone()));
    }

    #[test]
    fn choice_points_reconstruct_candidates_and_taken() {
        let events = vec![
            ProtocolEvent::Birth { rank: 2 },
            ProtocolEvent::Candidate {
                dst: 2,
                src: 0,
                tag: 7,
                seq: 0,
            },
            ProtocolEvent::Deliver {
                dst: 2,
                src: 3,
                tag: 9,
                seq: 1,
                arity: 2,
            },
        ];
        let cps = choice_points(&events);
        assert_eq!(cps.len(), 1);
        assert_eq!(cps[0].candidates.len(), 2);
        assert_eq!(cps[0].taken, 1, "src 3 sorts after src 0");
    }

    #[test]
    fn consumed_is_independent_never_consumed_is_dependent() {
        let choice = Choice {
            candidates: vec![(2, 0, 7, 0), (2, 3, 9, 1)],
            taken: 1,
        };
        let mut consumed = BTreeSet::from([(2, 0, 7, 0), (2, 3, 9, 1)]);
        assert!(!dependent(&choice, 0, &consumed), "both consumed: commute");
        consumed.remove(&(2, 0, 7, 0));
        assert!(
            dependent(&choice, 0, &consumed),
            "the alternative never consumed"
        );
        consumed.insert((2, 0, 7, 0));
        consumed.remove(&(2, 3, 9, 1));
        assert!(
            dependent(&choice, 0, &consumed),
            "the taken one never consumed"
        );
    }
}
