//! Model-checking hooks: controlled message-delivery scheduling.
//!
//! Compiled in every build and inert until a caller installs something:
//! a policy ([`Comm::set_delivery_policy`](crate::Comm::set_delivery_policy)),
//! an event log ([`install_event_log`]). The real network delivers each
//! rank's incoming messages in some arrival order the program cannot
//! control; a correct SPMD program must compute the same result under
//! *every* such order. This module makes the arrival order a first-class,
//! replayable choice:
//!
//! - [`Comm`](crate::Comm), under a policy, parks arrived messages in
//!   per-source FIFO streams instead of a single arrival queue;
//! - whenever the rank needs a message delivered, the installed
//!   [`DeliveryPolicy`] picks which stream's head message "arrives" next;
//! - per-source FIFO order is always preserved (real links do not reorder),
//!   so every policy run is a *legal* network behaviour — only the
//!   cross-source interleaving varies.
//!
//! Policies record a [`ChoiceTrace`] of `(arity, taken)` pairs. The one
//! explorer is the model checker of the `pcdlb-check` crate
//! (`pcdlb_check::model`): it runs the same program under many traces —
//! replayed prefixes for a DFS with partial-order reduction, seeded
//! pseudo-random orders for breadth — and asserts that an observable
//! digest of the final state is identical across all of them and that
//! the protocol's typed safety properties hold on every trace.
//!
//! Note on what is and is not controlled: the *set* of messages buffered
//! at a choice point still depends on real thread timing (a slow sender's
//! message may not have physically arrived yet). Every choice sequence is
//! therefore a valid interleaving, but replaying a prefix is best-effort:
//! [`ReplayPolicy`] clamps an out-of-range prefix choice instead of
//! failing, and the checker forks from the *observed* traces.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use crate::comm::Tag;

/// One deliverable message at a choice point: the head of source `src`'s
/// stream, carrying `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Sending rank.
    pub src: usize,
    /// Wire tag of the stream-head message.
    pub tag: Tag,
}

/// One recorded delivery decision: how many candidates were available and
/// which index was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChoicePoint {
    /// Number of candidates offered (≥ 1).
    pub arity: usize,
    /// Index chosen, `< arity`.
    pub taken: usize,
}

/// A rank's full sequence of delivery decisions for one run.
pub type ChoiceTrace = Vec<ChoicePoint>;

/// Shared handle through which a policy's recorded trace is read after
/// the world has finished.
pub type TraceHandle = Arc<Mutex<ChoiceTrace>>;

/// Decides, at each delivery point of one rank, which buffered message
/// arrives next. `candidates` is non-empty and ordered by source rank.
pub trait DeliveryPolicy: Send {
    /// Return the index into `candidates` to deliver.
    fn choose(&mut self, rank: usize, candidates: &[Candidate]) -> usize;
}

/// Deterministic-first policy with an optional replay prefix: choice `i`
/// takes `prefix[i]` (clamped to the arity) while the prefix lasts, then
/// index 0 — i.e. the lowest-source candidate. Records every decision.
pub struct ReplayPolicy {
    prefix: Vec<usize>,
    trace: TraceHandle,
}

impl ReplayPolicy {
    /// A policy replaying `prefix`, plus the handle its trace can be read
    /// back through.
    pub fn new(prefix: Vec<usize>) -> (Self, TraceHandle) {
        let trace: TraceHandle = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                prefix,
                trace: Arc::clone(&trace),
            },
            trace,
        )
    }
}

impl DeliveryPolicy for ReplayPolicy {
    fn choose(&mut self, _rank: usize, candidates: &[Candidate]) -> usize {
        let mut trace = self.trace.lock().expect("trace lock");
        let step = trace.len();
        let want = self.prefix.get(step).copied().unwrap_or(0);
        let taken = want.min(candidates.len() - 1);
        trace.push(ChoicePoint {
            arity: candidates.len(),
            taken,
        });
        taken
    }
}

/// Pseudo-random policy (splitmix64 stream): uniform choice among the
/// candidates. Different seeds explore different interleavings; the same
/// seed with the same physical arrival pattern repeats its decisions.
pub struct SeededPolicy {
    state: u64,
    trace: TraceHandle,
}

impl SeededPolicy {
    /// A policy drawing from `seed`, plus its trace handle.
    pub fn new(seed: u64) -> (Self, TraceHandle) {
        let trace: TraceHandle = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                // Avoid the all-zero fixed point and decorrelate seeds.
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
                trace: Arc::clone(&trace),
            },
            trace,
        )
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl DeliveryPolicy for SeededPolicy {
    fn choose(&mut self, _rank: usize, candidates: &[Candidate]) -> usize {
        let taken = (self.next_u64() % candidates.len() as u64) as usize;
        self.trace.lock().expect("trace lock").push(ChoicePoint {
            arity: candidates.len(),
            taken,
        });
        taken
    }
}

// ---------------------------------------------------------------------------
// Protocol event traces
// ---------------------------------------------------------------------------

/// One protocol-level action observed on an instrumented rank thread.
///
/// The model checker in `pcdlb-check` consumes these streams: delivery
/// choice points are reconstructed from the `Candidate*`/`Deliver` runs,
/// the independence relation is derived from how each delivered message
/// was eventually consumed (`Recv` with or without `probe`), and the typed
/// safety properties are predicates over whole per-thread traces.
///
/// Every variant is `Copy`; emission is a `Vec` push behind a mutex, so an
/// instrumented run stays cheap and an uninstrumented one pays only a
/// thread-local `Option` check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A world launch bound this thread's `Comm` to the installed event
    /// log. Separates attempt segments when logs accumulate across
    /// relaunches: every per-thread property resets its state here.
    Birth {
        /// Rank of the thread.
        rank: usize,
    },
    /// A message left `src` for `dst` with the next sequence number on
    /// that destination stream.
    Send {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Wire tag.
        tag: Tag,
        /// Per-(src, dst) stream sequence number.
        seq: u64,
    },
    /// An arrival passed the receiver's sequence check and was admitted
    /// into its per-source stream (or matched directly).
    Admit {
        /// Receiving rank.
        dst: usize,
        /// Sending rank.
        src: usize,
        /// Wire tag.
        tag: Tag,
        /// Stream sequence number.
        seq: u64,
    },
    /// A non-chosen stream head available at a delivery choice point.
    /// A maximal run of `Candidate` events followed by one `Deliver`
    /// reconstructs the full choice (candidates ordered by source rank).
    Candidate {
        /// Addressee of the stream-head envelope.
        dst: usize,
        /// Source rank of the stream.
        src: usize,
        /// Wire tag of the head message.
        tag: Tag,
        /// Stream sequence number of the head message.
        seq: u64,
    },
    /// The delivery the installed [`DeliveryPolicy`] chose at a choice
    /// point with `arity` candidates.
    Deliver {
        /// Addressee of the delivered envelope.
        dst: usize,
        /// Source rank of the chosen stream.
        src: usize,
        /// Wire tag.
        tag: Tag,
        /// Stream sequence number.
        seq: u64,
        /// Number of candidates offered (≥ 1).
        arity: usize,
    },
    /// A message was consumed by the application. `probe` marks
    /// timing-sensitive consumption (`try_recv` / `recv_deadline`), whose
    /// outcome can observe delivery order — the model checker treats such
    /// messages as dependent with every racing alternative.
    Recv {
        /// Consuming rank.
        dst: usize,
        /// Sending rank.
        src: usize,
        /// Wire tag.
        tag: Tag,
        /// Stream sequence number.
        seq: u64,
        /// Consumed through a deadline/probe receive.
        probe: bool,
    },
    /// Application-level conservation report: this rank owned `count`
    /// particles when the step-`step` sentinel fired (emitted by the
    /// simulator, not by `Comm`).
    Sentinel {
        /// Reporting rank.
        rank: usize,
        /// Simulation step of the sentinel round.
        step: u64,
        /// Particles owned by this rank at that step.
        count: u64,
    },
    /// The link layer retransmitted frame `seq` on the link
    /// `src -> dst` (lossy transports only).
    Retransmit {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Sequence number of the retransmitted frame.
        seq: u64,
    },
    /// A cumulative ack advanced the sender's link window: every frame
    /// with `seq < cum` on `src -> dst` is now known delivered.
    AckAdvance {
        /// Sending rank (whose window advanced).
        src: usize,
        /// Destination rank (who acked).
        dst: usize,
        /// New cumulative ack point.
        cum: u64,
    },
    /// The failure detector on `rank` started suspecting `peer` (quiet
    /// beyond the adaptive suspicion threshold).
    Suspect {
        /// Suspecting rank.
        rank: usize,
        /// Suspected peer.
        peer: usize,
    },
    /// `rank` heard from `peer` again and cleared its suspicion.
    Unsuspect {
        /// Formerly-suspecting rank.
        rank: usize,
        /// Formerly-suspected peer.
        peer: usize,
    },
}

impl std::fmt::Display for ProtocolEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ProtocolEvent::*;
        match *self {
            Birth { rank } => write!(f, "birth r{rank}"),
            Send { src, dst, tag, seq } => write!(f, "send {src}->{dst} tag {tag} seq {seq}"),
            Admit { dst, src, tag, seq } => write!(f, "admit {src}->{dst} tag {tag} seq {seq}"),
            Candidate { dst, src, tag, seq } => write!(f, "cand {src}->{dst} tag {tag} seq {seq}"),
            Deliver {
                dst,
                src,
                tag,
                seq,
                arity,
            } => write!(
                f,
                "deliver {src}->{dst} tag {tag} seq {seq} (arity {arity})"
            ),
            Recv {
                dst,
                src,
                tag,
                seq,
                probe,
            } => write!(
                f,
                "recv {src}->{dst} tag {tag} seq {seq}{}",
                if probe { " (probe)" } else { "" }
            ),
            Sentinel { rank, step, count } => {
                write!(f, "sentinel r{rank} step {step} count {count}")
            }
            Retransmit { src, dst, seq } => write!(f, "retx {src}->{dst} seq {seq}"),
            AckAdvance { src, dst, cum } => write!(f, "ack-advance {src}->{dst} cum {cum}"),
            Suspect { rank, peer } => write!(f, "suspect r{rank} ? r{peer}"),
            Unsuspect { rank, peer } => write!(f, "unsuspect r{rank} ? r{peer}"),
        }
    }
}

/// A shared per-thread event log. A world's start hook installs one per
/// rank thread; the model checker reads them back after the run.
pub type EventLog = Arc<Mutex<Vec<ProtocolEvent>>>;

/// A fresh, empty event log.
pub fn new_event_log() -> EventLog {
    Arc::new(Mutex::new(Vec::new()))
}

thread_local! {
    /// Where this thread's protocol events go, if anywhere. Rank threads
    /// are fresh OS threads per launch, so no cross-run leakage.
    static EVENT_SINK: RefCell<Option<EventLog>> = const { RefCell::new(None) };
}

/// Bind this thread's protocol events to `log` and open the launch's
/// segment with its [`Birth`](ProtocolEvent::Birth) marker. Call it first
/// thing in [`World::with_start_hook`](crate::World::with_start_hook), on
/// the rank's own thread, so the marker precedes every event of the
/// launch; logs may be shared across launches (events append).
pub fn install_event_log(log: EventLog, rank: usize) {
    EVENT_SINK.with(|s| *s.borrow_mut() = Some(log));
    emit(ProtocolEvent::Birth { rank });
}

/// Record one protocol event on this thread's installed log; a no-op when
/// no log is installed. Public so higher layers (the simulator's sentinel
/// hook) can contribute application-level events to the same trace.
pub fn emit(ev: ProtocolEvent) {
    EVENT_SINK.with(|s| {
        if let Some(log) = s.borrow().as_ref() {
            log.lock().expect("event log lock").push(ev);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(srcs: &[usize]) -> Vec<Candidate> {
        srcs.iter().map(|&src| Candidate { src, tag: 0 }).collect()
    }

    #[test]
    fn replay_follows_prefix_then_defaults_to_zero() {
        let (mut p, trace) = ReplayPolicy::new(vec![1, 2]);
        assert_eq!(p.choose(0, &cands(&[3, 5])), 1);
        assert_eq!(p.choose(0, &cands(&[3, 5, 7])), 2);
        assert_eq!(p.choose(0, &cands(&[3, 5])), 0, "past prefix → first");
        let t = trace.lock().unwrap();
        assert_eq!(
            *t,
            vec![
                ChoicePoint { arity: 2, taken: 1 },
                ChoicePoint { arity: 3, taken: 2 },
                ChoicePoint { arity: 2, taken: 0 },
            ]
        );
    }

    #[test]
    fn replay_clamps_out_of_range_prefix_entries() {
        let (mut p, trace) = ReplayPolicy::new(vec![9]);
        assert_eq!(p.choose(0, &cands(&[1, 2])), 1, "clamped to arity − 1");
        assert_eq!(trace.lock().unwrap()[0].taken, 1);
    }

    #[test]
    fn seeded_policy_is_reproducible_and_in_range() {
        let (mut a, _) = SeededPolicy::new(42);
        let (mut b, _) = SeededPolicy::new(42);
        for n in [2usize, 3, 5, 4, 2, 7] {
            let c = cands(&(0..n).collect::<Vec<_>>());
            let ca = a.choose(0, &c);
            assert_eq!(ca, b.choose(0, &c));
            assert!(ca < n);
        }
    }

    #[test]
    fn event_sink_records_only_when_installed() {
        // No sink installed on this thread yet: emission is a no-op.
        emit(ProtocolEvent::Birth { rank: 9 });
        let log = new_event_log();
        install_event_log(Arc::clone(&log), 1);
        let sentinel = ProtocolEvent::Sentinel {
            rank: 1,
            step: 2,
            count: 3,
        };
        emit(sentinel);
        let got = log.lock().unwrap().clone();
        assert_eq!(got, vec![ProtocolEvent::Birth { rank: 1 }, sentinel]);
    }

    #[test]
    fn event_display_is_compact() {
        let ev = ProtocolEvent::Deliver {
            dst: 2,
            src: 1,
            tag: 7,
            seq: 3,
            arity: 2,
        };
        assert_eq!(ev.to_string(), "deliver 1->2 tag 7 seq 3 (arity 2)");
    }

    #[test]
    fn different_seeds_diverge() {
        let (mut a, ta) = SeededPolicy::new(1);
        let (mut b, tb) = SeededPolicy::new(2);
        for _ in 0..32 {
            let c = cands(&[0, 1, 2, 3]);
            a.choose(0, &c);
            b.choose(0, &c);
        }
        assert_ne!(*ta.lock().unwrap(), *tb.lock().unwrap());
    }
}
