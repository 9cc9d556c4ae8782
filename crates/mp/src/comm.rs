//! Per-rank communication endpoint: typed point-to-point messaging.
//!
//! [`Comm`] is what an SPMD rank program holds. Semantics mirror a minimal
//! MPI subset:
//!
//! - `send(dst, tag, value)` is asynchronous and never blocks (buffered,
//!   like an `MPI_Isend` whose buffer always fits).
//! - `recv(src, tag)` blocks until a message from exactly `src` with
//!   exactly `tag` is available; messages that arrive earlier with a
//!   different `(src, tag)` are buffered and delivered to later receives
//!   (MPI's non-overtaking rule holds per `(src, tag)` pair because each
//!   sender's messages travel a FIFO channel).
//! - Message payloads are typed; receiving with the wrong type panics with
//!   a diagnostic, since in an SPMD program that is always a protocol bug.
//! - Payloads move between threads by pointer, never re-encoded; a hot
//!   path that wants to reuse its send buffers across steps sends
//!   `Arc<T>` values drawn from a [`crate::pool::BufferPool`] (the cost
//!   model charges the inner `T`'s wire size either way).
//!
//! # Virtual ranks and takeover
//!
//! Every endpoint speaks in **virtual ranks**: the stable rank ids of the
//! n-rank protocol. Normally each OS thread holds exactly one virtual rank
//! (its own), but in a takeover-enabled world
//! ([`crate::world::World::with_takeover`]) a survivor may [`Comm::adopt`]
//! a dead rank's virtual rank and then serve both, switching between them
//! with [`Comm::act_as`]. Each adopted identity is a `Persona`-internal
//! record with its own stats, virtual-time lap, and (in `check` builds)
//! sequence counters, so per-virtual-rank accounting is unchanged by who
//! physically hosts the rank. Envelopes carry their virtual destination
//! and a **takeover epoch**; receivers silently drop envelopes from dead
//! epochs and park envelopes from future epochs until
//! [`Comm::advance_epoch`] re-admits them, so stale pre-death traffic can
//! never corrupt the resumed run.
//!
//! # Failure surface
//!
//! Every failure a rank can observe is a [`CommError`]: a dead peer, a
//! world abort (another rank panicked), a watchdog/deadline expiry, a
//! takeover interrupt, or — in `check` builds with fault injection — a
//! detected transport fault (lost / duplicated / reordered / truncated
//! message). The fast-path API (`send`, `recv`, `sendrecv`) panics with
//! the error's message, which in an SPMD simulation is the right default:
//! the world tears down and [`crate::world::World::try_run`] turns the
//! per-rank panics into per-rank diagnostics. The one exception is a
//! takeover interrupt ([`CommErrorKind::Interrupted`]), which the fast
//! path raises as a typed [`TakeoverInterrupt`] panic payload so a
//! degraded-mode runner can catch it, absorb the death, and resume.
//! Programs that want to *handle* failure (e.g. a recovery driver) use
//! [`Comm::try_send`] and [`Comm::recv_deadline`], which return `Result`
//! instead.
//!
//! Blocking receives are bounded by a **watchdog deadline** (configured on
//! the [`crate::world::World`], default [`DEFAULT_WATCHDOG`]): a peer that
//! exits without sending — which closes no channel, because every rank
//! keeps a sender to every mailbox — used to hang the world forever; now
//! it surfaces as a structured timeout within the deadline.
//!
//! Every send/receive also charges the [`CostModel`] time to the virtual
//! rank's communication clock and bumps its [`CommStats`] counters.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::channel::{Receiver, RecvTimeoutError, Sender};

use crate::cost::CostModel;
use crate::transport::{Fate, Link, LossyProfile, Transport};
use crate::wire::WireSize;

/// Message tag. Programs namespace tags themselves (the simulator uses one
/// constant per communication phase).
pub type Tag = u64;

/// How long a blocking receive sleeps between checks of the abort flag and
/// the watchdog deadline. One named constant instead of scattered literals;
/// per-run via [`CommConfig::poll`].
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Default watchdog deadline for blocking receives: if no matching message
/// arrives within this window the receive fails with a structured
/// [`CommError`] instead of hanging forever. Generous, because legitimate
/// receives on an oversubscribed host can stall for a long time; tests and
/// the fault sweep tighten it via [`CommConfig::watchdog`].
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(60);

/// How many times a transiently failing send is retried in place (with
/// bounded exponential backoff) before the failure escalates as a
/// [`CommErrorKind::Transport`] error. Exercised by the `check` feature's
/// `FailSend` fault kind; the bound is what keeps a *persistent* fault
/// from stalling the protocol behind an endless retry loop.
pub const SEND_RETRY_LIMIT: u32 = 4;

/// Base backoff before the first send retry; doubles on each subsequent
/// attempt up to [`SEND_RETRY_LIMIT`].
#[cfg(feature = "check")]
const SEND_RETRY_BASE: Duration = Duration::from_micros(200);

/// How many retransmission attempts the reliability layer makes for one
/// unacknowledged frame over a lossy transport before escalating into
/// the fault ladder as a [`CommErrorKind::Transport`] error. Sized so
/// that, with backoff capped at [`DEFAULT_RETRANSMIT_CAP`], the budget
/// outlasts the suspicion horizon by a wide margin: an isolated peer
/// self-fences (and its death is absorbed by takeover) long before a
/// healthy majority rank gives up on it.
pub const DEFAULT_RETRANSMIT_BUDGET: u32 = 64;

/// Backoff before the first retransmission of an unacked frame.
pub const DEFAULT_RETRANSMIT_BASE: Duration = Duration::from_micros(500);

/// Ceiling for the per-link exponential retransmit backoff.
pub const DEFAULT_RETRANSMIT_CAP: Duration = Duration::from_millis(50);

/// How often a rank blocked in a receive emits liveness heartbeats to
/// its peers over a lossy transport.
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Lower clamp for the φ-style suspicion threshold: a peer is never
/// suspected before staying silent at least this long.
pub const DEFAULT_SUSPICION_MIN: Duration = Duration::from_millis(750);

/// Upper clamp for the suspicion threshold, bounding how long a noisy
/// inter-arrival history can postpone suspicion.
pub const DEFAULT_SUSPICION_MAX: Duration = Duration::from_secs(8);

/// Validated communication-layer configuration: the former hardcoded
/// timing/retry constants as data, plus the optional chaos profile.
///
/// The compile-time defaults are preserved exactly ([`Default`] mirrors
/// the constants), so a default `CommConfig` changes nothing; chaos CI
/// tightens deadlines and installs a [`LossyProfile`] without patching
/// source. Pure data (`PartialEq`, `Clone`), so it can live inside a run
/// configuration; the transport object itself is built from `chaos` at
/// world-construction time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommConfig {
    /// Sleep quantum between abort-flag / deadline checks while blocked.
    pub poll: Duration,
    /// Watchdog deadline for blocking receives.
    pub watchdog: Duration,
    /// Bounded in-place retries for a transiently failing send.
    pub send_retry_limit: u32,
    /// Retransmission attempts per unacked frame before escalation.
    pub retransmit_budget: u32,
    /// Initial per-link retransmit backoff.
    pub retransmit_base: Duration,
    /// Per-link retransmit backoff ceiling.
    pub retransmit_cap: Duration,
    /// Heartbeat emission interval while blocked on a lossy transport.
    pub heartbeat: Duration,
    /// Lower clamp of the φ-style suspicion threshold.
    pub suspicion_min: Duration,
    /// Upper clamp of the φ-style suspicion threshold.
    pub suspicion_max: Duration,
    /// Disturbance model to run under; `None` = the reliable in-process
    /// transport (reliability layer fully inactive).
    pub chaos: Option<LossyProfile>,
}

impl Default for CommConfig {
    fn default() -> Self {
        Self {
            poll: DEFAULT_POLL_INTERVAL,
            watchdog: DEFAULT_WATCHDOG,
            send_retry_limit: SEND_RETRY_LIMIT,
            retransmit_budget: DEFAULT_RETRANSMIT_BUDGET,
            retransmit_base: DEFAULT_RETRANSMIT_BASE,
            retransmit_cap: DEFAULT_RETRANSMIT_CAP,
            heartbeat: DEFAULT_HEARTBEAT_INTERVAL,
            suspicion_min: DEFAULT_SUSPICION_MIN,
            suspicion_max: DEFAULT_SUSPICION_MAX,
            chaos: None,
        }
    }
}

impl CommConfig {
    /// Panics with a descriptive message on an inconsistent configuration.
    pub fn validate(&self) {
        assert!(!self.poll.is_zero(), "CommConfig: poll must be non-zero");
        assert!(
            !self.watchdog.is_zero(),
            "CommConfig: watchdog must be non-zero"
        );
        assert!(
            self.poll <= self.watchdog,
            "CommConfig: poll {:?} exceeds watchdog {:?}",
            self.poll,
            self.watchdog
        );
        assert!(
            self.send_retry_limit >= 1,
            "CommConfig: send_retry_limit must be at least 1"
        );
        assert!(
            self.retransmit_budget >= 1,
            "CommConfig: retransmit_budget must be at least 1"
        );
        assert!(
            !self.retransmit_base.is_zero(),
            "CommConfig: retransmit_base must be non-zero"
        );
        assert!(
            self.retransmit_base <= self.retransmit_cap,
            "CommConfig: retransmit_base {:?} exceeds retransmit_cap {:?}",
            self.retransmit_base,
            self.retransmit_cap
        );
        assert!(
            !self.heartbeat.is_zero(),
            "CommConfig: heartbeat must be non-zero"
        );
        assert!(
            self.suspicion_min <= self.suspicion_max,
            "CommConfig: suspicion_min {:?} exceeds suspicion_max {:?}",
            self.suspicion_min,
            self.suspicion_max
        );
        assert!(
            self.heartbeat < self.suspicion_min,
            "CommConfig: heartbeat {:?} must undercut suspicion_min {:?} \
             or every quiet phase becomes a suspicion",
            self.heartbeat,
            self.suspicion_min
        );
        if let Some(p) = &self.chaos {
            p.validate();
        }
    }
}

/// The scalar reliability knobs a [`Comm`] endpoint carries, extracted
/// from a [`CommConfig`] at world-construction time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReliabilityParams {
    /// Only consulted by the fault injector's retry loop (`check` builds).
    #[cfg_attr(not(feature = "check"), allow(dead_code))]
    pub(crate) send_retry_limit: u32,
    pub(crate) retransmit_budget: u32,
    pub(crate) retransmit_base: Duration,
    pub(crate) retransmit_cap: Duration,
    pub(crate) heartbeat: Duration,
    pub(crate) suspicion_min: Duration,
    pub(crate) suspicion_max: Duration,
}

impl Default for ReliabilityParams {
    fn default() -> Self {
        Self {
            send_retry_limit: SEND_RETRY_LIMIT,
            retransmit_budget: DEFAULT_RETRANSMIT_BUDGET,
            retransmit_base: DEFAULT_RETRANSMIT_BASE,
            retransmit_cap: DEFAULT_RETRANSMIT_CAP,
            heartbeat: DEFAULT_HEARTBEAT_INTERVAL,
            suspicion_min: DEFAULT_SUSPICION_MIN,
            suspicion_max: DEFAULT_SUSPICION_MAX,
        }
    }
}

impl From<&CommConfig> for ReliabilityParams {
    fn from(cfg: &CommConfig) -> Self {
        Self {
            send_retry_limit: cfg.send_retry_limit,
            retransmit_budget: cfg.retransmit_budget,
            retransmit_base: cfg.retransmit_base,
            retransmit_cap: cfg.retransmit_cap,
            heartbeat: cfg.heartbeat,
            suspicion_min: cfg.suspicion_min,
            suspicion_max: cfg.suspicion_max,
        }
    }
}

/// Typed panic payload raised (via `std::panic::panic_any`) by the
/// panicking `send`/`recv` wrappers when a rank dies in a takeover-enabled
/// world. A degraded-mode runner catches the unwind, downcasts to this
/// type, and runs the takeover protocol instead of tearing the world down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TakeoverInterrupt;

/// What went wrong in a communication call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommErrorKind {
    /// The peer rank's thread is gone (its mailbox closed) without the
    /// world having aborted — it exited early or died mid-teardown.
    PeerDead,
    /// Another rank panicked; the world is tearing down.
    Aborted,
    /// No matching message arrived within the watchdog/deadline window.
    Timeout,
    /// A per-source sequence-number check failed at arrival (a message was
    /// dropped, duplicated, or reordered in transit), or a send's bounded
    /// retry budget was exhausted (`check` builds with fault injection).
    Transport,
    /// The payload was truncated on the wire (`check` builds with fault
    /// injection).
    Truncated,
    /// A rank died in a takeover-enabled world: the operation was
    /// interrupted so the survivor can run the takeover protocol.
    Interrupted,
}

/// Structured communication failure: who observed it, which peer and tag
/// were involved, and a human-readable diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommError {
    /// Failure class.
    pub kind: CommErrorKind,
    /// Rank that observed the failure.
    pub rank: usize,
    /// Peer rank involved (destination of a send, source of a receive).
    pub peer: usize,
    /// Tag of the operation that failed.
    pub tag: Tag,
    message: String,
}

impl CommError {
    fn new(kind: CommErrorKind, rank: usize, peer: usize, tag: Tag, message: String) -> Self {
        Self {
            kind,
            rank,
            peer,
            tag,
            message,
        }
    }

    /// The full diagnostic (also what `Display` prints).
    pub fn message(&self) -> &str {
        &self.message
    }

    fn aborted(rank: usize, op: &str, peer: usize, tag: Tag) -> Self {
        Self::new(
            CommErrorKind::Aborted,
            rank,
            peer,
            tag,
            format!("rank {rank} aborting {op}(peer={peer}, tag={tag}): another rank panicked"),
        )
    }

    fn peer_dead(rank: usize, op: &str, peer: usize, tag: Tag) -> Self {
        Self::new(
            CommErrorKind::PeerDead,
            rank,
            peer,
            tag,
            format!(
                "rank {rank} {op}(peer={peer}, tag={tag}): peer rank {peer} is gone \
                 (exited without completing the exchange)"
            ),
        )
    }

    fn timeout(rank: usize, peer: usize, tag: Tag, waited: Duration) -> Self {
        Self::new(
            CommErrorKind::Timeout,
            rank,
            peer,
            tag,
            format!(
                "rank {rank} recv(src={peer}, tag={tag}): watchdog deadline expired after \
                 {waited:?} with no matching message"
            ),
        )
    }

    fn interrupted(rank: usize, op: &str, peer: usize, tag: Tag) -> Self {
        Self::new(
            CommErrorKind::Interrupted,
            rank,
            peer,
            tag,
            format!(
                "rank {rank} {op}(peer={peer}, tag={tag}) interrupted: a rank died and \
                 takeover is pending"
            ),
        )
    }

    #[cfg(feature = "check")]
    fn transport(rank: usize, peer: usize, tag: Tag, expected: u64, got: u64) -> Self {
        let what = if got < expected {
            "duplicated or replayed"
        } else {
            "lost or reordered"
        };
        Self::new(
            CommErrorKind::Transport,
            rank,
            peer,
            tag,
            format!(
                "rank {rank} detected a transport fault from rank {peer} (tag={tag}): \
                 expected seq {expected}, got {got} (message {what})"
            ),
        )
    }

    #[cfg(feature = "check")]
    fn send_failed(rank: usize, peer: usize, tag: Tag, op: u64, retries: u32) -> Self {
        Self::new(
            CommErrorKind::Transport,
            rank,
            peer,
            tag,
            format!(
                "rank {rank} send(dst={peer}, tag={tag}): transient transport failure at \
                 send op {op} persisted after {retries} bounded-backoff retries"
            ),
        )
    }

    fn retransmit_exhausted(rank: usize, peer: usize, tag: Tag, rseq: u64, budget: u32) -> Self {
        Self::new(
            CommErrorKind::Transport,
            rank,
            peer,
            tag,
            format!(
                "rank {rank} link to rank {peer} (tag={tag}): frame rseq {rseq} is still \
                 unacknowledged after {budget} retransmissions — peer unreachable, \
                 escalating into the fault ladder"
            ),
        )
    }

    fn fenced(rank: usize, reachable: usize, live_peers: usize, quiet_for: Duration) -> Self {
        Self::new(
            CommErrorKind::Transport,
            rank,
            rank,
            0,
            format!(
                "rank {rank} self-fencing: heard from only {reachable} of {live_peers} live \
                 peers within the suspicion horizon (quietest link silent {quiet_for:?}) — \
                 this side of the partition is the minority and yields to takeover"
            ),
        )
    }

    #[cfg(feature = "check")]
    fn truncated(rank: usize, peer: usize, tag: Tag) -> Self {
        Self::new(
            CommErrorKind::Truncated,
            rank,
            peer,
            tag,
            format!("rank {rank} recv(src={peer}, tag={tag}): payload truncated on the wire"),
        )
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CommError {}

/// A message in flight.
pub(crate) struct Envelope {
    pub(crate) src: usize,
    /// Virtual destination rank. In a takeover world a mailbox can serve
    /// two virtual ranks; matching at the receiver is by `(dst, src, tag)`.
    pub(crate) dst: usize,
    /// Takeover epoch at send time. Receivers drop envelopes from older
    /// epochs (stale pre-death traffic) and park envelopes from newer
    /// epochs until their own [`Comm::advance_epoch`].
    pub(crate) epoch: u64,
    pub(crate) tag: Tag,
    pub(crate) wire_bytes: usize,
    pub(crate) payload: Box<dyn Any + Send>,
    pub(crate) type_name: &'static str,
    /// Physical host thread that put this frame on the wire. The
    /// link-layer reliability state at the receiver is keyed by host
    /// pair (the *network* endpoint), not by virtual rank.
    pub(crate) rsrc: usize,
    /// Per-(src host, dst host) link sequence number, stamped by the
    /// reliability layer over lossy transports; 0 and unused otherwise.
    pub(crate) rseq: u64,
    /// A header-only retransmission probe: the payload copy already
    /// physically reached the receiver's mailbox (the channel underneath
    /// is reliable), so this frame exists only to elicit a fresh ack and
    /// is never delivered to the application.
    pub(crate) hollow: bool,
    /// Per (sender, destination) sequence number, assigned at send time.
    /// Arrival-order checking against it is what makes injected drop /
    /// duplicate / delay faults *detectable* instead of silent.
    #[cfg(feature = "check")]
    pub(crate) seq: u64,
    /// Set by the truncate-payload fault; detected before unpacking.
    #[cfg(feature = "check")]
    pub(crate) truncated: bool,
}

/// Wire tag reserved for link-layer control frames (acks, heartbeats).
/// Application tags use [`crate::collectives::COLLECTIVE_BIT`] and below;
/// control frames are intercepted at admission and never delivered.
pub(crate) const LINK_CTRL_TAG: Tag = Tag::MAX;

/// Link-layer control payloads, exchanged only over lossy transports.
#[derive(Debug, Clone)]
enum LinkCtrl {
    /// Cumulative + selective acknowledgement of the reverse-direction
    /// link: all `rseq < cum` of `epoch` delivered in order; `sacks`
    /// lists out-of-order frames held in the reorder buffer, which the
    /// sender need not retransmit.
    Ack {
        epoch: u64,
        cum: u64,
        sacks: Vec<u64>,
    },
    /// Pure liveness signal while blocked in a receive.
    Heartbeat,
}

/// One frame awaiting acknowledgement on a sender's directed link.
struct PendingFrame {
    rseq: u64,
    /// Retransmission attempts so far (0 = only the original send).
    attempts: u32,
    /// Selectively acked: physically at the receiver, awaiting only the
    /// cumulative ack to advance past it. Not retransmitted.
    sacked: bool,
    /// `Some` while the payload has never physically left this host
    /// (the transport dropped every attempt so far); `None` once a copy
    /// reached the receiver's mailbox, after which retransmissions are
    /// header-only probes.
    env: Option<Envelope>,
}

/// Sender-side state of one directed link (this host → peer host).
#[derive(Default)]
struct LinkTx {
    /// Next link sequence number to stamp.
    next_rseq: u64,
    /// Physical transmission attempts on this link so far — the index
    /// the transport's fate function consumes. Monotone across epochs,
    /// so partition windows progress under retransmit pressure.
    frame_index: u64,
    /// Cumulative ack received: every `rseq < cum` is delivered.
    cum: u64,
    /// Unacknowledged frames, ascending by `rseq`.
    pending: VecDeque<PendingFrame>,
    /// Frames held back by a `Delay` fate: `(release_frame, held_since,
    /// frame)`. Released once `frame_index` passes `release_frame` or
    /// the hold has aged out (an idle link must still flush).
    held: VecDeque<(u64, Instant, Envelope)>,
    /// When the head-of-line pending frame is next retransmitted.
    next_retx: Option<Instant>,
    /// Current backoff; doubles per retransmission up to the cap.
    backoff: Duration,
}

/// Receiver-side state of one directed link (peer host → this host).
#[derive(Default)]
struct LinkRx {
    /// Next in-order link sequence number expected.
    expected: u64,
    /// Out-of-window arrivals parked until the gap fills (bounded
    /// reordering buffer; `BTreeMap` for deterministic iteration).
    buffer: BTreeMap<u64, Envelope>,
}

/// φ-style liveness record for one peer host: suspicion is raised from
/// the inter-arrival history, not a fixed timeout, so a slow peer and a
/// dead peer are distinguished adaptively.
struct PeerHealth {
    last_heard: Instant,
    /// Recent inter-arrival gaps, seconds (bounded ring).
    intervals: VecDeque<f64>,
    suspected: bool,
}

impl PeerHealth {
    fn new(now: Instant) -> Self {
        Self {
            last_heard: now,
            intervals: VecDeque::new(),
            suspected: false,
        }
    }

    /// Suspicion threshold: mean + 4σ of the observed inter-arrival
    /// gaps, clamped to the configured window. With no history yet the
    /// lower clamp applies — which doubles as the start-up grace period.
    fn threshold(&self, min: Duration, max: Duration) -> Duration {
        if self.intervals.is_empty() {
            return min;
        }
        let n = self.intervals.len() as f64;
        let mean = self.intervals.iter().sum::<f64>() / n;
        let var = self
            .intervals
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n;
        let phi = Duration::from_secs_f64(mean + 4.0 * var.sqrt());
        phi.clamp(min, max)
    }
}

/// Communication counters for one virtual rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Messages sent by this rank.
    pub msgs_sent: u64,
    /// Messages received by this rank.
    pub msgs_recvd: u64,
    /// Total bytes sent (wire-size accounting).
    pub bytes_sent: u64,
    /// Total bytes received.
    pub bytes_recvd: u64,
    /// Virtual communication time charged to this rank, seconds.
    pub virtual_comm_s: f64,
    /// Link-layer retransmissions issued (lossy transports only; always
    /// zero over a reliable transport). Excluded from `msgs_sent` /
    /// `bytes_sent`, so transport chaos never perturbs the digested
    /// communication totals.
    pub retransmits: u64,
    /// Times this endpoint newly suspected a peer of being partitioned
    /// or dead (lossy transports only).
    pub suspicions: u64,
}

/// One virtual rank served by an endpoint: its identity plus everything
/// accounted per virtual rank rather than per OS thread, so a survivor
/// serving two ranks keeps two independent clocks and counter sets — the
/// property that keeps per-step virtual-time accounting (and hence
/// `digest_recovery`) bitwise identical in degraded mode.
struct Persona {
    vrank: usize,
    stats: CommStats,
    /// Virtual comm seconds accrued since the last lap for this rank.
    lap_virtual_s: f64,
    /// Next sequence number to stamp on a send, per destination.
    #[cfg(feature = "check")]
    send_seq: Vec<u64>,
    /// Next sequence number expected at arrival, per source.
    #[cfg(feature = "check")]
    recv_seq: Vec<u64>,
}

impl Persona {
    fn new(vrank: usize, size: usize) -> Self {
        // `size` keys the per-peer sequence vectors in check builds.
        let _ = size;
        Self {
            vrank,
            stats: CommStats::default(),
            lap_virtual_s: 0.0,
            #[cfg(feature = "check")]
            send_seq: vec![0; size],
            #[cfg(feature = "check")]
            recv_seq: vec![0; size],
        }
    }
}

/// One rank's endpoint into the world.
pub struct Comm {
    /// Physical thread index: the virtual rank this thread was born as.
    phys: usize,
    size: usize,
    /// Virtual ranks served by this thread; index `active` is current.
    personas: Vec<Persona>,
    active: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Arrived-but-unmatched messages, searched before the channel.
    pending: VecDeque<Envelope>,
    /// Envelopes from a future takeover epoch, parked until
    /// [`Comm::advance_epoch`] re-admits them.
    future: VecDeque<Envelope>,
    /// Current wire epoch: `base_epoch` until the first takeover completes,
    /// then `base_epoch + deaths absorbed`.
    epoch_num: u64,
    /// Epoch this world launched at (see
    /// [`crate::world::World::with_base_epoch`]). Deaths absorbed within
    /// this launch are counted relative to this base.
    base_epoch: u64,
    model: CostModel,
    started: Instant,
    /// Set when any rank in the world panics; receives poll it so a dead
    /// peer aborts the world instead of deadlocking it.
    abort: Arc<AtomicBool>,
    /// True in a [`crate::world::World::with_takeover`] world: rank death
    /// raises [`TakeoverInterrupt`] instead of tearing the world down.
    takeover: bool,
    /// Count of registered rank deaths (takeover worlds).
    deaths: Arc<AtomicUsize>,
    /// Per-original-rank death flags (takeover worlds).
    dead: Arc<Vec<AtomicBool>>,
    /// Physical thread currently hosting each virtual rank. Identity until
    /// an adoption rewrites the dead rank's slot.
    routes: Arc<Vec<AtomicUsize>>,
    /// Sleep quantum between abort-flag / deadline checks while blocked.
    poll: Duration,
    /// Deadline for blocking receives with no explicit timeout.
    watchdog: Duration,
    /// The transport every outgoing physical frame is routed through.
    transport: Arc<dyn Transport>,
    /// Cached `!transport.reliable()`: the single hot-path branch that
    /// keeps the entire reliability layer free over in-process channels.
    lossy: bool,
    /// Scalar reliability knobs (budgets, backoffs, suspicion window).
    rel: ReliabilityParams,
    /// Sender-side link state, indexed by destination host.
    links_tx: Vec<LinkTx>,
    /// Receiver-side link state, indexed by source host.
    links_rx: Vec<LinkRx>,
    /// Liveness records, indexed by peer host.
    health: Vec<PeerHealth>,
    /// Last time heartbeats were emitted from a blocked receive.
    last_heartbeat: Instant,
    /// Per-source arrival streams (`check` mode): messages park here, in
    /// per-source FIFO order, until the delivery policy moves one to
    /// `pending`. Empty and unused when no policy is installed.
    #[cfg(feature = "check")]
    streams: Vec<VecDeque<Envelope>>,
    /// The controlled scheduler deciding cross-source delivery order.
    #[cfg(feature = "check")]
    delivery: Option<Box<dyn crate::check::DeliveryPolicy>>,
    /// Installed fault schedule (see [`crate::fault`]); `None` = faultless.
    #[cfg(feature = "check")]
    injector: Option<crate::fault::FaultInjector>,
}

/// The world-level supervision state every rank's [`Comm`] shares: the
/// common epoch for wall timestamps, the world abort flag, the pacing of
/// blocking receives (poll quantum + watchdog deadline), and the takeover
/// registries (death count and flags, virtual-rank routing table).
pub(crate) struct Supervision {
    pub(crate) epoch: Instant,
    pub(crate) abort: Arc<AtomicBool>,
    pub(crate) poll: Duration,
    pub(crate) watchdog: Duration,
    pub(crate) takeover: bool,
    pub(crate) base_epoch: u64,
    pub(crate) deaths: Arc<AtomicUsize>,
    pub(crate) dead: Arc<Vec<AtomicBool>>,
    pub(crate) routes: Arc<Vec<AtomicUsize>>,
    pub(crate) transport: Arc<dyn Transport>,
    pub(crate) rel: ReliabilityParams,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        senders: Vec<Sender<Envelope>>,
        inbox: Receiver<Envelope>,
        model: CostModel,
        sup: Supervision,
    ) -> Self {
        let size = senders.len();
        let now = Instant::now();
        let lossy = !sup.transport.reliable();
        Self {
            phys: rank,
            size,
            personas: vec![Persona::new(rank, size)],
            active: 0,
            senders,
            inbox,
            pending: VecDeque::new(),
            future: VecDeque::new(),
            epoch_num: sup.base_epoch,
            base_epoch: sup.base_epoch,
            model,
            started: sup.epoch,
            abort: sup.abort,
            takeover: sup.takeover,
            deaths: sup.deaths,
            dead: sup.dead,
            routes: sup.routes,
            poll: sup.poll,
            watchdog: sup.watchdog,
            transport: sup.transport,
            lossy,
            rel: sup.rel,
            links_tx: (0..size).map(|_| LinkTx::default()).collect(),
            links_rx: (0..size).map(|_| LinkRx::default()).collect(),
            health: (0..size).map(|_| PeerHealth::new(now)).collect(),
            last_heartbeat: now,
            #[cfg(feature = "check")]
            streams: (0..size).map(|_| VecDeque::new()).collect(),
            #[cfg(feature = "check")]
            delivery: None,
            #[cfg(feature = "check")]
            injector: None,
        }
    }

    /// Install a delivery policy: from now on, arrived messages become
    /// visible to receives only when the policy delivers them (`check`
    /// builds; see [`crate::check`]). Call it from
    /// [`World::with_start_hook`](crate::World::with_start_hook).
    #[cfg(feature = "check")]
    pub fn set_delivery_policy(&mut self, policy: Box<dyn crate::check::DeliveryPolicy>) {
        self.delivery = Some(policy);
    }

    /// Arm the fault injector with a schedule of send-op faults (`check`
    /// builds; see [`crate::fault`]). Call it from
    /// [`World::with_start_hook`](crate::World::with_start_hook).
    #[cfg(feature = "check")]
    pub fn set_fault_plan(&mut self, plan: crate::fault::FaultPlan) {
        self.injector = Some(crate::fault::FaultInjector::new(plan));
    }

    /// The **active virtual rank**, `0..size`. Equal to the physical
    /// thread index until [`Comm::act_as`] switches personas.
    #[inline]
    pub fn rank(&self) -> usize {
        self.personas[self.active].vrank
    }

    /// The physical thread index (the virtual rank this thread was born
    /// as); never changes across adoptions.
    #[inline]
    pub fn phys_rank(&self) -> usize {
        self.phys
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The virtual ranks this thread currently serves, in adoption order.
    pub fn roles(&self) -> Vec<usize> {
        self.personas.iter().map(|p| p.vrank).collect()
    }

    /// Switch the active persona to `vrank`. Panics if this thread does
    /// not hold that virtual rank (a protocol bug, not a runtime fault).
    pub fn act_as(&mut self, vrank: usize) {
        self.active = self
            .personas
            .iter()
            .position(|p| p.vrank == vrank)
            .unwrap_or_else(|| {
                panic!(
                    "act_as({vrank}): thread {} holds only {:?}",
                    self.phys,
                    self.roles()
                )
            });
    }

    /// Adopt a dead rank's virtual rank: this thread becomes its host and
    /// future sends to `vrank` (from every rank) are rerouted here. The
    /// adopted persona starts with fresh stats, laps, and sequence
    /// counters; the caller is expected to [`Comm::advance_epoch`] next so
    /// every rank's counters restart together. One adoption per thread:
    /// a second death escalates to relaunch instead.
    pub fn adopt(&mut self, vrank: usize) {
        assert!(
            self.takeover,
            "adopt({vrank}): not a takeover-enabled world"
        );
        assert!(vrank < self.size, "adopt: vrank {vrank} out of range");
        assert!(
            self.dead[vrank].load(Ordering::SeqCst),
            "adopt({vrank}): rank is not registered dead"
        );
        assert!(
            self.personas.len() < 2,
            "adopt({vrank}): thread {} already serves two ranks",
            self.phys
        );
        assert!(
            self.personas.iter().all(|p| p.vrank != vrank),
            "adopt({vrank}): already held"
        );
        self.personas.push(Persona::new(vrank, self.size));
        self.routes[vrank].store(self.phys, Ordering::SeqCst);
        #[cfg(feature = "check")]
        crate::check::emit(crate::check::ProtocolEvent::Adopt {
            phys: self.phys,
            vrank,
        });
    }

    /// Move this endpoint to takeover epoch `new_epoch`: discard every
    /// buffered envelope from the old epoch (stale pre-death traffic),
    /// reset all per-persona sequence counters, and re-admit any parked
    /// future-epoch envelopes. Every surviving rank calls this with the
    /// same epoch number during takeover, so post-takeover sequence
    /// numbering restarts coherently world-wide.
    pub fn advance_epoch(&mut self, new_epoch: u64) {
        assert!(
            new_epoch > self.epoch_num,
            "advance_epoch({new_epoch}): already at epoch {}",
            self.epoch_num
        );
        #[cfg(feature = "check")]
        crate::check::emit(crate::check::ProtocolEvent::EpochAdvance {
            rank: self.phys,
            epoch: new_epoch,
        });
        self.epoch_num = new_epoch;
        self.pending.clear();
        #[cfg(feature = "check")]
        {
            for s in &mut self.streams {
                s.clear();
            }
            for p in &mut self.personas {
                p.send_seq.iter_mut().for_each(|s| *s = 0);
                p.recv_seq.iter_mut().for_each(|s| *s = 0);
            }
        }
        if self.lossy {
            // Reset the link layer alongside the wire-epoch machinery:
            // acks are epoch-gated, so any in-flight state for the old
            // epoch is unrecoverable by design. `frame_index` stays
            // monotone so partition windows never re-fire post-takeover.
            let now = Instant::now();
            for lt in &mut self.links_tx {
                lt.next_rseq = 0;
                lt.cum = 0;
                lt.pending.clear();
                lt.held.clear();
                lt.next_retx = None;
                lt.backoff = self.rel.retransmit_base;
            }
            for lr in &mut self.links_rx {
                lr.expected = 0;
                lr.buffer.clear();
            }
            for h in &mut self.health {
                h.suspected = false;
                h.last_heard = now;
            }
        }
        let parked = std::mem::take(&mut self.future);
        for env in parked {
            if let Err(e) = self.admit(env) {
                // A transport fault straddling the epoch boundary: fatal
                // here, which in a takeover world escalates to relaunch.
                panic!("{e}");
            }
        }
    }

    /// Current wire epoch (the launch's base epoch until a takeover
    /// completes).
    pub fn epoch(&self) -> u64 {
        self.epoch_num
    }

    /// The epoch this world launched at (see
    /// [`World::with_base_epoch`](crate::World::with_base_epoch)).
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Number of rank deaths registered so far in this world.
    pub fn deaths_observed(&self) -> usize {
        self.deaths.load(Ordering::SeqCst)
    }

    /// The ranks registered dead so far, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.dead
            .iter()
            .enumerate()
            .filter(|(_, d)| d.load(Ordering::SeqCst))
            .map(|(r, _)| r)
            .collect()
    }

    /// The world watchdog deadline (used by runners to bound their own
    /// handshake receives).
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    /// True when this world was launched with
    /// [`World::with_takeover`](crate::World::with_takeover) — runners use
    /// it to decide whether the degraded-mode completion handshake runs.
    pub fn takeover_enabled(&self) -> bool {
        self.takeover
    }

    /// Raise the world abort flag, waking every blocked rank with a
    /// structured `Aborted` failure. A runner that decides a situation is
    /// unrecoverable in place (e.g. a second death, an invariant-sentinel
    /// violation) calls this *before* its fatal panic so the launch layer
    /// records a deliberate abort rather than another absorbable death.
    pub fn abort_world(&self) {
        #[cfg(feature = "check")]
        crate::check::emit(crate::check::ProtocolEvent::Abort { rank: self.phys });
        self.abort.store(true, Ordering::SeqCst);
    }

    /// True when a death has been registered that this endpoint has not
    /// yet absorbed by advancing its epoch.
    fn takeover_pending(&self) -> bool {
        self.takeover
            && self.deaths.load(Ordering::SeqCst) as u64 > self.epoch_num - self.base_epoch
    }

    /// Seconds of wall time since the world started (`MPI_Wtime`
    /// equivalent). On a timeshared host this measures elapsed real time,
    /// not per-rank compute; experiments that need per-rank *load* use the
    /// simulator's deterministic work model instead.
    pub fn wtime(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Communication counters accumulated so far by the active persona.
    pub fn stats(&self) -> CommStats {
        self.personas[self.active].stats
    }

    /// Virtual communication seconds accrued by the active persona since
    /// its previous lap (or since construction), resetting the lap
    /// accumulator to exactly zero. Unlike subtracting two
    /// [`CommStats::virtual_comm_s`] readings, every lap sum starts from
    /// `0.0`, so an identical message sequence yields a bitwise-identical
    /// delta regardless of what was charged before it — the property the
    /// simulator's per-step communication accounting (and checkpoint
    /// neutrality) relies on.
    pub fn lap_virtual_comm(&mut self) -> f64 {
        std::mem::take(&mut self.personas[self.active].lap_virtual_s)
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Send `value` to virtual rank `dst` with `tag`. Never blocks.
    /// Sending to self is allowed (the message is delivered through the
    /// same mailbox). Panics with the [`CommError`] diagnostic if the
    /// destination is gone — naming the peer and tag, and noting a world
    /// abort when that is the cause — or raises [`TakeoverInterrupt`] when
    /// the failure is an absorbable rank death in a takeover world;
    /// programs that want to survive a dead peer use [`Comm::try_send`].
    pub fn send<T>(&mut self, dst: usize, tag: Tag, value: T)
    where
        T: Any + Send + WireSize,
    {
        if let Err(e) = self.try_send(dst, tag, value) {
            if e.kind == CommErrorKind::Interrupted {
                std::panic::panic_any(TakeoverInterrupt);
            }
            panic!("{e}");
        }
    }

    /// Fallible send: like [`Comm::send`], but a dead destination (or a
    /// world abort, or a pending takeover) comes back as `Err(CommError)`
    /// instead of a panic. Accounting (stats, virtual time) reflects the
    /// attempt either way.
    pub fn try_send<T>(&mut self, dst: usize, tag: Tag, value: T) -> Result<(), CommError>
    where
        T: Any + Send + WireSize,
    {
        assert!(
            dst < self.size,
            "send: dst {dst} out of range (size {})",
            self.size
        );
        if self.takeover_pending() {
            return Err(CommError::interrupted(self.rank(), "send", dst, tag));
        }
        let wire_bytes = value.wire_size();
        let src = self.rank();
        let t = self.model.message_time(src, dst, wire_bytes);
        let persona = &mut self.personas[self.active];
        persona.stats.msgs_sent += 1;
        persona.stats.bytes_sent += wire_bytes as u64;
        persona.stats.virtual_comm_s += t;
        persona.lap_virtual_s += t;
        let env = Envelope {
            src,
            dst,
            epoch: self.epoch_num,
            tag,
            wire_bytes,
            payload: Box::new(value),
            type_name: std::any::type_name::<T>(),
            rsrc: self.phys,
            rseq: 0,
            hollow: false,
            #[cfg(feature = "check")]
            seq: {
                let seq = persona.send_seq[dst];
                persona.send_seq[dst] += 1;
                seq
            },
            #[cfg(feature = "check")]
            truncated: false,
        };
        #[cfg(feature = "check")]
        {
            let (sent_seq, sent_epoch) = (env.seq, env.epoch);
            let res = self.dispatch_checked(dst, env);
            // Only a message that reached the wire counts as sent: a
            // rolled-back send (retry exhaustion) must not appear in the
            // event trace or the gaplessness property would misfire.
            if res.is_ok() {
                crate::check::emit(crate::check::ProtocolEvent::Send {
                    src,
                    dst,
                    tag,
                    seq: sent_seq,
                    epoch: sent_epoch,
                });
            }
            res
        }
        #[cfg(not(feature = "check"))]
        {
            self.dispatch(dst, env)
        }
    }

    /// Route one application envelope toward its destination: the
    /// direct mailbox send over a reliable transport, or through the
    /// link-layer reliability machinery over a lossy one.
    fn dispatch(&mut self, dst: usize, env: Envelope) -> Result<(), CommError> {
        if self.lossy {
            self.dispatch_lossy(dst, env)
        } else {
            self.phys_dispatch(dst, env)
        }
    }

    /// Put one envelope on its destination's mailbox (resolving the
    /// virtual rank through the routing table), routing a closed channel
    /// through the abort-flag diagnostic: if the world is aborting the
    /// error says so; in a takeover world a closed mailbox is an
    /// absorbable death and surfaces as `Interrupted`; otherwise it names
    /// the dead peer and the tag.
    fn phys_dispatch(&mut self, dst: usize, env: Envelope) -> Result<(), CommError> {
        let host = self.routes[dst].load(Ordering::SeqCst);
        self.phys_send_host(host, dst, env)
    }

    /// The raw physical send to a host's mailbox, with the closed-channel
    /// diagnostic of [`Comm::phys_dispatch`]. `dst` is the virtual rank
    /// named in error messages.
    fn phys_send_host(&mut self, host: usize, dst: usize, env: Envelope) -> Result<(), CommError> {
        let tag = env.tag;
        if self.senders[host].send(env).is_err() {
            return Err(if self.abort.load(Ordering::Relaxed) {
                CommError::aborted(self.rank(), "send", dst, tag)
            } else if self.takeover {
                CommError::interrupted(self.rank(), "send", dst, tag)
            } else {
                CommError::peer_dead(self.rank(), "send", dst, tag)
            });
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Link-layer reliability (active only over lossy transports)
    // -----------------------------------------------------------------

    /// Stamp a link sequence number, ask the transport for the frame's
    /// fate, and track the frame until it is cumulatively acknowledged.
    /// Local (same-host) deliveries bypass the link layer: loopback is
    /// not a network link.
    fn dispatch_lossy(&mut self, dst: usize, mut env: Envelope) -> Result<(), CommError> {
        let host = self.routes[dst].load(Ordering::SeqCst);
        if host == self.phys {
            return self.phys_send_host(host, dst, env);
        }
        let rseq = self.links_tx[host].next_rseq;
        self.links_tx[host].next_rseq += 1;
        env.rsrc = self.phys;
        env.rseq = rseq;
        let retained = self.lossy_emit(host, dst, env)?;
        self.track(host, rseq, retained);
        self.release_held(host);
        Ok(())
    }

    /// Consume one frame index for `host`'s link and return the fate the
    /// transport assigns it.
    fn next_fate(&mut self, host: usize) -> Fate {
        let idx = self.links_tx[host].frame_index;
        self.links_tx[host].frame_index += 1;
        self.transport.disturb(
            Link {
                src: self.phys,
                dst: host,
            },
            idx,
        )
    }

    /// Physically transmit `env` on the link to `host` under the
    /// transport's fate. Returns the envelope back when the fate dropped
    /// it (the caller retains the payload for retransmission); `None`
    /// once a payload copy is guaranteed to reach the mailbox (delivered,
    /// duplicated, or parked in the delay hold queue).
    fn lossy_emit(
        &mut self,
        host: usize,
        dst: usize,
        env: Envelope,
    ) -> Result<Option<Envelope>, CommError> {
        match self.next_fate(host) {
            Fate::Drop => Ok(Some(env)),
            Fate::Deliver => {
                self.phys_send_host(host, dst, env)?;
                Ok(None)
            }
            Fate::Duplicate => {
                let dup = Self::hollow_copy(&env);
                self.phys_send_host(host, dst, env)?;
                // The original is in the mailbox; the receiver may consume
                // it and exit before the copy goes out. Like a late held
                // frame, a duplicate with nobody left to suppress it is
                // abandoned, never escalated.
                let _ = self.senders[host].send(dup);
                Ok(None)
            }
            Fate::Delay(k) => {
                let release = self.links_tx[host].frame_index + k.max(1) as u64;
                self.links_tx[host]
                    .held
                    .push_back((release, Instant::now(), env));
                Ok(None)
            }
        }
    }

    /// A header-only copy of `env` carrying the same link sequence
    /// number: the receiver's duplicate suppression absorbs it without
    /// ever seeing the unit payload.
    fn hollow_copy(env: &Envelope) -> Envelope {
        Envelope {
            src: env.src,
            dst: env.dst,
            epoch: env.epoch,
            tag: env.tag,
            wire_bytes: env.wire_bytes,
            payload: Box::new(()),
            type_name: env.type_name,
            rsrc: env.rsrc,
            rseq: env.rseq,
            hollow: true,
            #[cfg(feature = "check")]
            seq: env.seq,
            #[cfg(feature = "check")]
            truncated: env.truncated,
        }
    }

    /// Record an in-flight frame on `host`'s link; `retained` holds the
    /// payload when the transport dropped the original transmission.
    fn track(&mut self, host: usize, rseq: u64, retained: Option<Envelope>) {
        let base = self.rel.retransmit_base;
        let lt = &mut self.links_tx[host];
        lt.pending.push_back(PendingFrame {
            rseq,
            attempts: 0,
            sacked: false,
            env: retained,
        });
        if lt.next_retx.is_none() {
            lt.backoff = base;
            lt.next_retx = Some(Instant::now() + base);
        }
    }

    /// Flush delay-held frames whose release index has been passed (or
    /// that have aged out on an idle link). Send failures here mean the
    /// peer's mailbox is gone; the ordinary error paths will report that
    /// — a late frame is silently abandoned.
    fn release_held(&mut self, host: usize) {
        let age_out = self.rel.retransmit_cap;
        let now = Instant::now();
        loop {
            let due = match self.links_tx[host].held.front() {
                Some(&(release, since, _)) => {
                    release <= self.links_tx[host].frame_index
                        || now.duration_since(since) >= age_out
                }
                None => false,
            };
            if !due {
                return;
            }
            if let Some((_, _, env)) = self.links_tx[host].held.pop_front() {
                let _ = self.senders[host].send(env);
            }
        }
    }

    /// Build and (fate permitting) transmit a control frame to `host`.
    /// Control frames carry no application payload, are never tracked or
    /// retransmitted, bypass all statistics, and are idempotent at the
    /// receiver.
    fn emit_ctrl(&mut self, host: usize, ctrl: LinkCtrl) {
        let env = Envelope {
            src: self.phys,
            dst: host,
            epoch: self.epoch_num,
            tag: LINK_CTRL_TAG,
            wire_bytes: 0,
            payload: Box::new(ctrl),
            type_name: "LinkCtrl",
            rsrc: self.phys,
            rseq: 0,
            hollow: false,
            #[cfg(feature = "check")]
            seq: 0,
            #[cfg(feature = "check")]
            truncated: false,
        };
        match self.next_fate(host) {
            Fate::Drop => {}
            Fate::Delay(k) => {
                let release = self.links_tx[host].frame_index + k.max(1) as u64;
                self.links_tx[host]
                    .held
                    .push_back((release, Instant::now(), env));
            }
            // Duplicating an idempotent control frame adds nothing.
            Fate::Deliver | Fate::Duplicate => {
                let _ = self.senders[host].send(env);
            }
        }
    }

    /// Acknowledge the current receive state of `host`'s link: the
    /// cumulative next-expected sequence plus up to 16 selective acks
    /// for frames parked in the reorder buffer.
    fn send_ack(&mut self, host: usize) {
        let rx = &self.links_rx[host];
        let cum = rx.expected;
        let sacks: Vec<u64> = rx.buffer.keys().take(16).copied().collect();
        let epoch = self.epoch_num;
        self.emit_ctrl(host, LinkCtrl::Ack { epoch, cum, sacks });
    }

    /// Process an arrived control frame (ack / heartbeat). Never
    /// delivered to the application; stale-epoch acks are ignored so a
    /// pre-takeover ack cannot corrupt the restarted sequence space.
    fn handle_ctrl(&mut self, env: Envelope) {
        let from = env.rsrc;
        self.note_heard(from);
        let Ok(ctrl) = env.payload.downcast::<LinkCtrl>() else {
            return;
        };
        match *ctrl {
            LinkCtrl::Heartbeat => {}
            LinkCtrl::Ack {
                epoch,
                cum,
                ref sacks,
            } => {
                if epoch != self.epoch_num {
                    return;
                }
                let base = self.rel.retransmit_base;
                let lt = &mut self.links_tx[from];
                if cum > lt.cum {
                    lt.cum = cum;
                    while lt.pending.front().is_some_and(|p| p.rseq < cum) {
                        lt.pending.pop_front();
                    }
                    // Progress: restart the backoff ladder for the new
                    // head-of-line frame.
                    lt.backoff = base;
                    lt.next_retx = if lt.pending.is_empty() {
                        None
                    } else {
                        Some(Instant::now() + base)
                    };
                    #[cfg(feature = "check")]
                    crate::check::emit(crate::check::ProtocolEvent::AckAdvance {
                        src: self.phys,
                        dst: from,
                        cum,
                    });
                }
                for &s in sacks {
                    if let Some(pf) = lt.pending.iter_mut().find(|p| p.rseq == s) {
                        // Physically at the receiver: drop the payload
                        // copy and stop retransmitting it.
                        pf.sacked = true;
                        pf.env = None;
                    }
                }
            }
        }
    }

    /// Record liveness evidence from `host` and clear any suspicion.
    fn note_heard(&mut self, host: usize) {
        if host == self.phys {
            return;
        }
        let now = Instant::now();
        let h = &mut self.health[host];
        let dt = now.duration_since(h.last_heard).as_secs_f64();
        h.last_heard = now;
        if h.intervals.len() == 8 {
            h.intervals.pop_front();
        }
        h.intervals.push_back(dt);
        if h.suspected {
            h.suspected = false;
            #[cfg(feature = "check")]
            crate::check::emit(crate::check::ProtocolEvent::Unsuspect {
                rank: self.phys,
                peer: host,
            });
        }
    }

    /// One reliability-layer maintenance pass, run from every blocked
    /// receive poll over a lossy transport (no-op otherwise): flush
    /// delay-held frames, fire due retransmissions, emit heartbeats, and
    /// evaluate suspicion. Errors escalate into the fault ladder: a
    /// retransmit-budget exhaustion or a minority-side partition fence
    /// surfaces as a [`CommErrorKind::Transport`] failure of this rank.
    fn maintain_links(&mut self) -> Result<(), CommError> {
        if !self.lossy {
            return Ok(());
        }
        let now = Instant::now();
        for host in 0..self.size {
            if host != self.phys {
                self.release_held(host);
            }
        }
        self.retransmit_due(now)?;
        if now.duration_since(self.last_heartbeat) >= self.rel.heartbeat {
            self.last_heartbeat = now;
            for host in 0..self.size {
                if host != self.phys && !self.dead[host].load(Ordering::SeqCst) {
                    self.emit_ctrl(host, LinkCtrl::Heartbeat);
                }
            }
        }
        self.evaluate_suspicion(now)
    }

    /// Retransmit the head-of-line unsacked frame of every link whose
    /// backoff timer has expired, escalating once the budget is spent.
    fn retransmit_due(&mut self, now: Instant) -> Result<(), CommError> {
        for host in 0..self.size {
            if host == self.phys {
                continue;
            }
            if self.dead[host].load(Ordering::SeqCst) {
                // A registered-dead peer's frames are unrecoverable by
                // retransmission; takeover re-syncs state instead.
                self.links_tx[host].pending.clear();
                self.links_tx[host].next_retx = None;
                continue;
            }
            if self.links_tx[host].next_retx.is_none_or(|t| now < t) {
                continue;
            }
            let Some(pos) = self.links_tx[host].pending.iter().position(|p| !p.sacked) else {
                // Everything in flight is sacked: the cumulative ack is
                // imminent; check again next poll.
                self.links_tx[host].next_retx = Some(now + self.rel.retransmit_base);
                continue;
            };
            let (rseq, attempts, env_opt) = {
                let pf = &mut self.links_tx[host].pending[pos];
                pf.attempts += 1;
                (pf.rseq, pf.attempts, pf.env.take())
            };
            if attempts > self.rel.retransmit_budget {
                if env_opt.is_some() {
                    return Err(CommError::retransmit_exhausted(
                        self.rank(),
                        host,
                        0,
                        rseq,
                        self.rel.retransmit_budget,
                    ));
                }
                // The payload physically reached the peer's mailbox; only
                // the acks are missing (peer likely exited). Stop probing.
                self.links_tx[host].pending.remove(pos);
                continue;
            }
            let probe = match env_opt {
                Some(env) => env,
                // Payload already at the receiver: header-only probe to
                // elicit a fresh ack.
                None => Envelope {
                    src: self.phys,
                    dst: host,
                    epoch: self.epoch_num,
                    tag: 0,
                    wire_bytes: 0,
                    payload: Box::new(()),
                    type_name: "probe",
                    rsrc: self.phys,
                    rseq,
                    hollow: true,
                    #[cfg(feature = "check")]
                    seq: 0,
                    #[cfg(feature = "check")]
                    truncated: false,
                },
            };
            self.personas[0].stats.retransmits += 1;
            #[cfg(feature = "check")]
            crate::check::emit(crate::check::ProtocolEvent::Retransmit {
                src: self.phys,
                dst: host,
                rseq,
            });
            let dst = probe.dst;
            match self.lossy_emit(host, dst, probe) {
                Ok(Some(env)) => {
                    // Dropped again: keep the payload for the next try.
                    if let Some(pf) = self.links_tx[host].pending.get_mut(pos) {
                        if !env.hollow {
                            pf.env = Some(env);
                        }
                    }
                }
                Ok(None) => {}
                Err(_) => {
                    // Peer mailbox gone mid-retransmit: the frame can
                    // never be delivered; the ordinary dead-peer paths
                    // report the failure.
                    self.links_tx[host].pending.remove(pos);
                }
            }
            let cap = self.rel.retransmit_cap;
            let lt = &mut self.links_tx[host];
            lt.backoff = (lt.backoff * 2).min(cap);
            lt.next_retx = Some(now + lt.backoff);
        }
        Ok(())
    }

    /// Raise suspicion on peers past their φ threshold; self-fence when
    /// this rank can no longer reach a majority of the live peers — the
    /// minority side of a partition yields (panics, registering a death
    /// the survivors absorb by takeover) instead of diverging.
    fn evaluate_suspicion(&mut self, now: Instant) -> Result<(), CommError> {
        let mut live_peers = 0usize;
        let mut reachable = 0usize;
        let mut quietest = Duration::ZERO;
        for host in 0..self.size {
            if host == self.phys || self.dead[host].load(Ordering::SeqCst) {
                continue;
            }
            live_peers += 1;
            let quiet = now.duration_since(self.health[host].last_heard);
            let thr = self.health[host].threshold(self.rel.suspicion_min, self.rel.suspicion_max);
            if quiet > thr {
                quietest = quietest.max(quiet);
                if !self.health[host].suspected {
                    self.health[host].suspected = true;
                    self.personas[0].stats.suspicions += 1;
                    #[cfg(feature = "check")]
                    crate::check::emit(crate::check::ProtocolEvent::Suspect {
                        rank: self.phys,
                        peer: host,
                    });
                }
            } else {
                reachable += 1;
            }
        }
        if live_peers >= 1 && reachable * 2 < live_peers {
            return Err(CommError::fenced(
                self.rank(),
                reachable,
                live_peers,
                quietest,
            ));
        }
        Ok(())
    }

    /// Dispatch under the fault injector: each logical send is one fault
    /// opportunity; the injected fault decides what actually reaches the
    /// wire. Sequence numbers were already assigned, so a dropped or
    /// delayed envelope leaves a detectable gap at the receiver. Transient
    /// send failures (`FailSend`) are retried here with bounded
    /// exponential backoff — each retry consumes a fresh send-op index —
    /// so a one-off glitch never escalates beyond this call, while a
    /// persistent failure surfaces as a structured `Transport` error once
    /// [`SEND_RETRY_LIMIT`] is exhausted.
    #[cfg(feature = "check")]
    fn dispatch_checked(&mut self, dst: usize, mut env: Envelope) -> Result<(), CommError> {
        use crate::fault::FaultKind;
        let wire_tag = env.tag;
        let mut fired = self.injector.as_mut().and_then(|i| i.next_action(wire_tag));
        let mut attempts = 0u32;
        while let Some((op, FaultKind::FailSend)) = fired {
            attempts += 1;
            if attempts > self.rel.send_retry_limit {
                // The message never reached the wire and the caller is
                // told so: roll back the sequence number so the failure
                // is not *also* reported as a silent loss at the receiver.
                self.personas[self.active].send_seq[dst] -= 1;
                return Err(CommError::send_failed(
                    self.rank(),
                    dst,
                    wire_tag,
                    op,
                    self.rel.send_retry_limit,
                ));
            }
            std::thread::sleep(SEND_RETRY_BASE * (1 << (attempts - 1)));
            fired = self.injector.as_mut().and_then(|i| i.next_action(wire_tag));
        }
        match fired {
            None => {
                self.dispatch(dst, env)?;
                self.flush_held(dst)
            }
            Some((op, FaultKind::KillRank)) => panic!(
                "rank {} killed by injected fault at send op {op} (dst={dst}, tag={})",
                self.rank(),
                env.tag
            ),
            Some((_, FaultKind::DropMessage)) => Ok(()),
            Some((_, FaultKind::TruncatePayload)) => {
                env.truncated = true;
                self.dispatch(dst, env)?;
                self.flush_held(dst)
            }
            Some((_, FaultKind::DuplicateMessage)) => {
                // The payload is a `Box<dyn Any>` and cannot be cloned; the
                // duplicate carries a unit payload but the *same* sequence
                // number, so the receiver detects it at arrival, before any
                // downcast could observe the dummy payload.
                let dup = Envelope {
                    src: env.src,
                    dst: env.dst,
                    epoch: env.epoch,
                    tag: env.tag,
                    wire_bytes: env.wire_bytes,
                    payload: Box::new(()),
                    type_name: env.type_name,
                    rsrc: env.rsrc,
                    rseq: env.rseq,
                    hollow: env.hollow,
                    seq: env.seq,
                    truncated: env.truncated,
                };
                self.dispatch(dst, env)?;
                self.dispatch(dst, dup)?;
                self.flush_held(dst)
            }
            Some((_, FaultKind::DelayMessage)) => {
                // Park this envelope; it goes out right after the *next*
                // send to the same destination (a bounded reordering). At
                // most one envelope is held at a time — a second delay
                // fault releases the first.
                if let Some((d, old)) = self.injector.as_mut().and_then(|i| i.held.take()) {
                    self.dispatch(d, old)?;
                }
                if let Some(inj) = self.injector.as_mut() {
                    inj.held = Some((dst, env));
                }
                Ok(())
            }
            Some((_, FaultKind::FailSend)) => unreachable!("retry loop consumed FailSend"),
        }
    }

    /// Release a delayed envelope bound for `dst`, now that a newer message
    /// to `dst` has overtaken it.
    #[cfg(feature = "check")]
    fn flush_held(&mut self, dst: usize) -> Result<(), CommError> {
        let held = match self.injector.as_mut() {
            Some(inj) if inj.held.as_ref().is_some_and(|(d, _)| *d == dst) => inj.held.take(),
            _ => None,
        };
        match held {
            Some((d, env)) => self.dispatch(d, env),
            None => Ok(()),
        }
    }

    /// Record a consumption event for `env`. `probe` marks the
    /// timing-sensitive paths (`try_recv`, `recv_deadline`) whose outcome
    /// depends on what has been delivered so far.
    #[cfg(feature = "check")]
    fn emit_recv(env: &Envelope, probe: bool) {
        crate::check::emit(crate::check::ProtocolEvent::Recv {
            dst: env.dst,
            src: env.src,
            tag: env.tag,
            seq: env.seq,
            epoch: env.epoch,
            probe,
        });
    }

    /// Receive the next message from `src` with `tag` (addressed to the
    /// active persona), blocking until one arrives or the world watchdog
    /// expires. Panics with the [`CommError`] diagnostic on abort,
    /// timeout, or a detected transport fault, and on payload type
    /// mismatch; raises [`TakeoverInterrupt`] on an absorbable rank death;
    /// [`Comm::recv_deadline`] is the `Result`-returning form.
    pub fn recv<T>(&mut self, src: usize, tag: Tag) -> T
    where
        T: Any + Send + WireSize,
    {
        match self.recv_envelope(src, tag, None) {
            Ok(env) => {
                #[cfg(feature = "check")]
                Self::emit_recv(&env, false);
                self.unpack_or_panic(env)
            }
            Err(e) if e.kind == CommErrorKind::Interrupted => {
                std::panic::panic_any(TakeoverInterrupt)
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible receive with an explicit deadline: blocks up to `timeout`
    /// for a message from `src` with `tag`. Every failure — dead peer,
    /// world abort, deadline expiry, pending takeover, detected transport
    /// fault, truncated payload — comes back as `Err(CommError)`. A zero
    /// `timeout` makes this a structured probe. Payload type mismatch
    /// still panics (it is a protocol bug, not a runtime fault).
    pub fn recv_deadline<T>(
        &mut self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<T, CommError>
    where
        T: Any + Send + WireSize,
    {
        let env = self.recv_envelope(src, tag, Some(timeout))?;
        #[cfg(feature = "check")]
        {
            Self::emit_recv(&env, true);
            if env.truncated {
                return Err(CommError::truncated(self.rank(), env.src, env.tag));
            }
        }
        Ok(self.unpack(env))
    }

    /// The blocking-receive engine shared by `recv` and `recv_deadline`:
    /// notice a pending takeover, match the pending buffer, advance the
    /// delivery policy (`check` builds), and otherwise wait on the mailbox
    /// in `poll`-sized slices so the abort flag and the deadline are both
    /// observed promptly. `None` timeout means the world watchdog.
    fn recv_envelope(
        &mut self,
        src: usize,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Envelope, CommError> {
        assert!(
            src < self.size,
            "recv: src {src} out of range (size {})",
            self.size
        );
        let limit = timeout.unwrap_or(self.watchdog);
        let deadline = Instant::now() + limit;
        loop {
            // Checked before the pending buffer so even a satisfiable
            // receive notices a death promptly and the world converges on
            // the takeover barrier instead of racing ahead on stale state.
            if self.takeover_pending() {
                return Err(CommError::interrupted(self.rank(), "recv", src, tag));
            }
            self.maintain_links()?;
            if let Some(env) = self.match_pending(src, tag) {
                return Ok(env);
            }
            #[cfg(feature = "check")]
            if self.delivery.is_some() {
                self.pump_streams()?;
                if self.deliver_one() {
                    continue;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::timeout(self.rank(), src, tag, limit));
            }
            match self.inbox.recv_timeout(self.poll.min(deadline - now)) {
                Ok(env) => self.admit(env)?,
                Err(RecvTimeoutError::Timeout) => {
                    // A pending takeover outranks the abort flag: when a
                    // second death both registers and aborts, survivors
                    // must still surface the interrupt so the runner can
                    // observe the death count and escalate to relaunch.
                    if self.takeover_pending() {
                        return Err(CommError::interrupted(self.rank(), "recv", src, tag));
                    }
                    if self.abort.load(Ordering::Relaxed) {
                        return Err(CommError::aborted(self.rank(), "recv", src, tag));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::peer_dead(self.rank(), "recv", src, tag));
                }
            }
        }
    }

    /// Remove and return the first pending message matching `(src, tag)`
    /// addressed to the active persona.
    fn match_pending(&mut self, src: usize, tag: Tag) -> Option<Envelope> {
        let me = self.personas[self.active].vrank;
        let pos = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag && e.dst == me)?;
        Some(self.pending.remove(pos).expect("position was valid"))
    }

    /// Accept one physically-arrived envelope: intercept link-layer
    /// control frames (lossy transports), apply the epoch admission
    /// rules (drop stale, park future) — *before* the link layer, so a
    /// stale-epoch sequence number can never poison a reorder buffer —
    /// then run duplicate suppression / reorder buffering, and deliver
    /// in-order frames to the pending buffer (or stream, policy mode).
    fn admit(&mut self, env: Envelope) -> Result<(), CommError> {
        if self.lossy {
            if env.tag == LINK_CTRL_TAG {
                self.handle_ctrl(env);
                return Ok(());
            }
            self.note_heard(env.rsrc);
        }
        if env.epoch < self.epoch_num {
            // Stale pre-takeover traffic: silently dropped by design.
            // This is also what refuses a falsely-suspected rank's
            // pre-fence in-flight frames after its takeover: they carry
            // the dead epoch and never reach the link layer.
            #[cfg(feature = "check")]
            crate::check::emit(crate::check::ProtocolEvent::DropStale {
                dst: env.dst,
                src: env.src,
                tag: env.tag,
                seq: env.seq,
                epoch: env.epoch,
            });
            return Ok(());
        }
        if env.epoch > self.epoch_num {
            #[cfg(feature = "check")]
            crate::check::emit(crate::check::ProtocolEvent::Park {
                dst: env.dst,
                src: env.src,
                tag: env.tag,
                seq: env.seq,
                epoch: env.epoch,
            });
            self.future.push_back(env);
            return Ok(());
        }
        if self.lossy && env.rsrc != self.phys {
            return self.admit_link(env);
        }
        self.deliver_now(env)
    }

    /// Link-layer admission over a lossy transport: suppress duplicates,
    /// park out-of-order frames in the reorder buffer, deliver in-order
    /// frames (draining any now-contiguous buffered run), and ack every
    /// arrival so the sender's pending window advances.
    fn admit_link(&mut self, env: Envelope) -> Result<(), CommError> {
        let host = env.rsrc;
        if env.hollow {
            // A retransmission probe for a frame whose payload already
            // arrived. If we are past it, re-ack (the original ack was
            // lost); if not, the payload copy is still in flight in the
            // mailbox and will be admitted on its own.
            if env.rseq < self.links_rx[host].expected {
                self.send_ack(host);
            }
            return Ok(());
        }
        let expected = self.links_rx[host].expected;
        if env.rseq < expected {
            // Duplicate of an already-delivered frame: suppress, re-ack.
            self.send_ack(host);
            return Ok(());
        }
        if env.rseq > expected {
            // Out of order: park until the gap fills; the sack in the
            // ack tells the sender not to retransmit this one.
            self.links_rx[host].buffer.entry(env.rseq).or_insert(env);
            self.send_ack(host);
            return Ok(());
        }
        self.links_rx[host].expected += 1;
        self.deliver_now(env)?;
        loop {
            let next = self.links_rx[host].expected;
            match self.links_rx[host].buffer.remove(&next) {
                Some(e) => {
                    self.links_rx[host].expected += 1;
                    self.deliver_now(e)?;
                }
                None => break,
            }
        }
        self.send_ack(host);
        Ok(())
    }

    /// Final delivery of one in-order envelope: verify its per-source
    /// sequence number (`check` builds) and route it to its stream
    /// (policy mode) or straight to the pending buffer. Over a lossy
    /// transport this runs at the link layer's in-order delivery point,
    /// so the exact-FIFO check holds under chaos exactly as it does over
    /// a perfect channel.
    fn deliver_now(&mut self, env: Envelope) -> Result<(), CommError> {
        #[cfg(feature = "check")]
        {
            self.note_arrival(&env)?;
            crate::check::emit(crate::check::ProtocolEvent::Admit {
                dst: env.dst,
                src: env.src,
                tag: env.tag,
                seq: env.seq,
                epoch: env.epoch,
            });
            if self.delivery.is_some() {
                self.streams[env.src].push_back(env);
                return Ok(());
            }
        }
        self.pending.push_back(env);
        Ok(())
    }

    /// Per-source sequence check at arrival, against the counters of the
    /// persona the envelope addresses. Per-(src, dst) links are FIFO, so
    /// in a faultless world arrivals are always in send order; any gap or
    /// repeat is an injected (or real) transport fault, reported against
    /// the arriving message's source and tag.
    #[cfg(feature = "check")]
    fn note_arrival(&mut self, env: &Envelope) -> Result<(), CommError> {
        let Some(p) = self.personas.iter_mut().find(|p| p.vrank == env.dst) else {
            // Not addressed to any persona here: impossible under the
            // routing + epoch rules, but never worth crashing over.
            return Ok(());
        };
        let expected = p.recv_seq[env.src];
        if env.seq != expected {
            let observer = p.vrank;
            return Err(CommError::transport(
                observer, env.src, env.tag, expected, env.seq,
            ));
        }
        p.recv_seq[env.src] = expected + 1;
        Ok(())
    }

    /// Move everything that has physically arrived through the admission
    /// rules and into the per-source streams (no policy involvement:
    /// per-source FIFO is the network's own guarantee).
    #[cfg(feature = "check")]
    fn pump_streams(&mut self) -> Result<(), CommError> {
        while let Ok(env) = self.inbox.try_recv() {
            self.admit(env)?;
        }
        Ok(())
    }

    /// Ask the policy to deliver one stream-head message into `pending`.
    /// Returns false when every stream is empty.
    #[cfg(feature = "check")]
    fn deliver_one(&mut self) -> bool {
        // (src, tag, seq, epoch, dst) of each stream head, parallel to
        // `candidates` — the event trace records the full choice so the
        // model checker can reconstruct it.
        let mut heads: Vec<(usize, Tag, u64, u64, usize)> = Vec::new();
        let candidates: Vec<crate::check::Candidate> = self
            .streams
            .iter()
            .enumerate()
            .filter_map(|(src, q)| {
                q.front().map(|e| {
                    heads.push((src, e.tag, e.seq, e.epoch, e.dst));
                    crate::check::Candidate { src, tag: e.tag }
                })
            })
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let me = self.personas[self.active].vrank;
        let policy = self.delivery.as_mut().expect("deliver_one needs a policy");
        let i = policy.choose(me, &candidates);
        assert!(
            i < candidates.len(),
            "delivery policy chose {i} of {} candidates",
            candidates.len()
        );
        for (j, &(src, tag, seq, epoch, dst)) in heads.iter().enumerate() {
            if j != i {
                crate::check::emit(crate::check::ProtocolEvent::Candidate {
                    dst,
                    src,
                    tag,
                    seq,
                    epoch,
                });
            }
        }
        let (src, tag, seq, epoch, dst) = heads[i];
        crate::check::emit(crate::check::ProtocolEvent::Deliver {
            dst,
            src,
            tag,
            seq,
            epoch,
            arity: candidates.len(),
        });
        let env = self.streams[candidates[i].src]
            .pop_front()
            .expect("candidate stream had a head");
        self.pending.push_back(env);
        true
    }

    /// Combined send + receive with a peer (the `MPI_Sendrecv` pattern
    /// every ghost-exchange phase uses): sends `value` to `peer` with
    /// `tag` and receives that peer's message with the same tag. Safe
    /// against deadlock because sends never block. `peer` may be `self`.
    pub fn sendrecv<T>(&mut self, peer: usize, tag: Tag, value: T) -> T
    where
        T: Any + Send + WireSize,
    {
        self.send(peer, tag, value);
        self.recv(peer, tag)
    }

    /// Non-blocking receive: `Some(value)` if a matching message has
    /// already arrived, else `None`. Panics on a detected transport fault
    /// like `recv` does.
    pub fn try_recv<T>(&mut self, src: usize, tag: Tag) -> Option<T>
    where
        T: Any + Send + WireSize,
    {
        #[cfg(feature = "check")]
        if self.delivery.is_some() {
            // Under a policy, a physically-arrived message is only visible
            // once delivered: advance the schedule by at most one delivery
            // per poll, so the policy controls which source a racing
            // `try_recv` loop observes first.
            if let Err(e) = self.pump_streams() {
                panic!("{e}");
            }
            let me = self.personas[self.active].vrank;
            if !self
                .pending
                .iter()
                .any(|e| e.src == src && e.tag == tag && e.dst == me)
            {
                self.deliver_one();
            }
            let env = self.match_pending(src, tag)?;
            Self::emit_recv(&env, true);
            return Some(self.unpack_or_panic(env));
        }
        if self.lossy {
            // Polling loops must still drive retransmission/heartbeats,
            // or a dropped frame both sides are try_recv-ing for would
            // never be repaired.
            if let Err(e) = self.maintain_links() {
                panic!("{e}");
            }
        }
        // Drain the channel into pending so we see everything that arrived.
        while let Ok(env) = self.inbox.try_recv() {
            if let Err(e) = self.admit(env) {
                panic!("{e}");
            }
        }
        let env = self.match_pending(src, tag)?;
        #[cfg(feature = "check")]
        Self::emit_recv(&env, true);
        Some(self.unpack_or_panic(env))
    }

    /// Unpack for the panicking receive paths: a truncated payload (`check`
    /// builds) is a structured fault and panics with its diagnostic.
    fn unpack_or_panic<T>(&mut self, env: Envelope) -> T
    where
        T: Any + Send + WireSize,
    {
        #[cfg(feature = "check")]
        if env.truncated {
            let e = CommError::truncated(self.rank(), env.src, env.tag);
            panic!("{e}");
        }
        self.unpack(env)
    }

    fn unpack<T>(&mut self, env: Envelope) -> T
    where
        T: Any + Send + WireSize,
    {
        let t = self.model.message_time(env.src, env.dst, env.wire_bytes);
        let persona = &mut self.personas[self.active];
        persona.stats.msgs_recvd += 1;
        persona.stats.bytes_recvd += env.wire_bytes as u64;
        persona.stats.virtual_comm_s += t;
        persona.lap_virtual_s += t;
        let src = env.src;
        let tag = env.tag;
        let sent_type = env.type_name;
        match env.payload.downcast::<T>() {
            Ok(b) => *b,
            Err(_) => panic!(
                "recv type mismatch on rank {} for (src={src}, tag={tag}): \
                 sender sent `{sent_type}`, receiver expected `{}`",
                self.rank(),
                std::any::type_name::<T>()
            ),
        }
    }

    /// Number of buffered (arrived, unmatched) messages. Exposed for tests
    /// and leak assertions at phase boundaries.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Drain the link layer on clean exit (lossy transports only): keep
    /// retransmitting, releasing held frames, and admitting acks until
    /// every sent frame is either cumulatively acknowledged or its entry
    /// retired, bounded by the world watchdog. Without this, a final
    /// send whose only wire copy was dropped would exit with the payload
    /// still un-retransmitted and strand its receiver until timeout.
    pub(crate) fn quiesce(&mut self) {
        if !self.lossy {
            return;
        }
        let deadline = Instant::now() + self.watchdog;
        loop {
            let outstanding = self
                .links_tx
                .iter()
                .any(|lt| !lt.pending.is_empty() || !lt.held.is_empty());
            if !outstanding {
                return;
            }
            if Instant::now() >= deadline || self.abort.load(Ordering::Relaxed) {
                return;
            }
            // The run already completed; link faults here (budget
            // exhaustion against an already-exited peer, a fence verdict)
            // no longer have a ladder to escalate into — stop draining.
            if self.maintain_links().is_err() {
                return;
            }
            match self.inbox.recv_timeout(self.poll) {
                Ok(env) => {
                    if self.admit(env).is_err() {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Comm, CommConfig, CommError, CommErrorKind};
    use crate::transport::{LossyProfile, Partition};
    use crate::world::World;
    use std::time::Duration;

    /// A ring workload with enough traffic to exercise every link: each
    /// rank sends 20 tagged frames rightward and sums 20 from its left.
    fn ring_churn(comm: &mut Comm) -> u64 {
        let n = comm.size();
        let right = (comm.rank() + 1) % n;
        let left = (comm.rank() + n - 1) % n;
        let mut acc = 0u64;
        for round in 0..20u64 {
            comm.send(right, round, comm.rank() as u64 * 1000 + round);
            acc += comm.recv::<u64>(left, round);
        }
        acc
    }

    fn ring_expected(rank: usize, n: usize) -> u64 {
        let left = (rank + n - 1) % n;
        (0..20u64).map(|round| left as u64 * 1000 + round).sum()
    }

    #[test]
    fn lossy_transport_delivers_everything_in_order() {
        let cfg = CommConfig {
            chaos: Some(LossyProfile {
                drop_per_mille: 150,
                dup_per_mille: 80,
                delay_per_mille: 80,
                delay_max: 3,
                ..LossyProfile::new(42)
            }),
            ..CommConfig::default()
        };
        let out = World::new(4)
            .with_comm_config(&cfg)
            .run(|comm| (ring_churn(comm), comm.stats().retransmits));
        for (rank, (acc, _)) in out.iter().enumerate() {
            assert_eq!(*acc, ring_expected(rank, 4), "rank {rank} sum corrupted");
        }
        let total_retx: u64 = out.iter().map(|(_, r)| r).sum();
        assert!(
            total_retx > 0,
            "15% drop over 80 frames must force at least one retransmit"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "6500 interpreted 4-thread worlds are far too slow")]
    fn duplicate_of_a_last_frame_is_abandoned_once_the_receiver_has_left() {
        // The tear-down race the benchmark found: a rank's last frame (its
        // part of the final gather) is delivered, the root consumes it and
        // exits, and only then does the sender put the frame's duplicate
        // on the wire. Nobody is left to suppress it — and nobody needs
        // it: it must be dropped on the floor, not reported as a dead
        // peer. One-step P = 4 worlds shaped like a simulator run's tail
        // (a neighbour exchange, then the stats gather and the snapshot
        // gather back to back, every rank leaving right after its last
        // send): 6000 at the 10 ‰ duplicates the benchmark's lossy
        // workload was sized with — the rate at which its README counts 9
        // sender panics in 7500 runs; there are none now, so that workload
        // can duplicate again — then every frame duplicated, which hits
        // the window far more often (most such runs panicked "peer rank 0
        // is gone" before the fix).
        fn one_step(comm: &mut Comm) -> u64 {
            let n = comm.size();
            let (right, left) = ((comm.rank() + 1) % n, (comm.rank() + n - 1) % n);
            comm.send(right, 1, comm.rank() as u64);
            comm.send(left, 2, comm.rank() as u64);
            let acc = comm.recv::<u64>(left, 1) + comm.recv::<u64>(right, 2);
            if comm.rank() == 0 {
                let gathered: u64 = (3..=4)
                    .flat_map(|tag| (1..n).map(move |src| (src, tag)))
                    .map(|(src, tag)| comm.recv::<u64>(src, tag))
                    .sum();
                gathered / 2 + acc
            } else {
                comm.send(0, 3, acc);
                comm.send(0, 4, acc);
                acc
            }
        }
        for (runs, dup_per_mille) in [(6000u64, 10u32), (500, 1000)] {
            for seed in 0..runs {
                let cfg = CommConfig {
                    chaos: Some(LossyProfile {
                        dup_per_mille,
                        ..LossyProfile::new(seed)
                    }),
                    ..CommConfig::default()
                };
                let out = World::new(4).with_comm_config(&cfg).run(one_step);
                assert_eq!(out, [12, 2, 4, 2], "seed {seed} at {dup_per_mille} ‰");
            }
        }
    }

    #[test]
    fn inproc_transport_never_retransmits() {
        let out = World::new(4).run(|comm| (ring_churn(comm), comm.stats().retransmits));
        for (rank, (acc, retx)) in out.iter().enumerate() {
            assert_eq!(*acc, ring_expected(rank, 4));
            assert_eq!(*retx, 0, "rank {rank} retransmitted over a reliable link");
        }
    }

    #[test]
    fn short_partition_heals_without_takeover() {
        // Link 0<->1 is black-holed for frames [2, 6); retransmission
        // pressure advances the frame index past the window and every
        // payload still lands, with zero deaths and zero epochs burned.
        let mut profile = LossyProfile::new(7);
        profile.partitions.push(Partition {
            a: 0,
            b: 1,
            from_frame: 2,
            to_frame: 6,
        });
        let cfg = CommConfig {
            chaos: Some(profile),
            ..CommConfig::default()
        };
        let out = World::new(2)
            .with_comm_config(&cfg)
            .run(|comm| (ring_churn(comm), comm.stats().retransmits, comm.epoch()));
        for (rank, (acc, _, epoch)) in out.iter().enumerate() {
            assert_eq!(*acc, ring_expected(rank, 2));
            assert_eq!(*epoch, 0, "a healed partition must not burn an epoch");
        }
        assert!(out.iter().map(|(_, r, _)| r).sum::<u64>() > 0);
    }

    #[test]
    fn ping_pong_two_ranks() {
        let out = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 42u64);
                comm.recv::<u64>(1, 8)
            } else {
                let x = comm.recv::<u64>(0, 7);
                comm.send(0, 8, x + 1);
                x
            }
        });
        assert_eq!(out, vec![43, 42]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u32);
                comm.send(1, 2, 20u32);
                comm.send(1, 3, 30u32);
                0
            } else {
                // Receive in reverse tag order; earlier arrivals must wait
                // in the pending buffer.
                let c = comm.recv::<u32>(0, 3);
                let b = comm.recv::<u32>(0, 2);
                let a = comm.recv::<u32>(0, 1);
                assert_eq!(comm.pending_len(), 0);
                (a + b + c) as usize
            }
        });
        assert_eq!(out[1], 60);
    }

    #[test]
    fn per_sender_fifo_within_a_tag() {
        let out = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                for i in 0..100u64 {
                    comm.send(1, 5, i);
                }
                Vec::new()
            } else {
                (0..100).map(|_| comm.recv::<u64>(0, 5)).collect::<Vec<_>>()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn send_to_self_is_delivered() {
        let out = World::new(1).run(|comm| {
            comm.send(0, 9, 3.5f64);
            comm.recv::<f64>(0, 9)
        });
        assert_eq!(out, vec![3.5]);
    }

    #[test]
    fn messages_from_different_sources_do_not_cross() {
        let out = World::new(3).run(|comm| match comm.rank() {
            0 => {
                comm.send(2, 1, 100u64);
                0
            }
            1 => {
                comm.send(2, 1, 200u64);
                0
            }
            _ => {
                // Same tag, different sources: matching is per-source.
                let from1 = comm.recv::<u64>(1, 1);
                let from0 = comm.recv::<u64>(0, 1);
                assert_eq!((from0, from1), (100, 200));
                1
            }
        });
        assert_eq!(out[2], 1);
    }

    #[test]
    fn try_recv_returns_none_before_arrival() {
        let out = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                // Wait until rank 1 signals, then send.
                let _: u8 = comm.recv(1, 0);
                comm.send(1, 1, 77u8);
                0
            } else {
                assert!(comm.try_recv::<u8>(0, 1).is_none());
                comm.send(0, 0, 0u8);
                // Blocking recv still works after a failed try_recv.
                comm.recv::<u8>(0, 1) as usize
            }
        });
        assert_eq!(out[1], 77);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let out = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1.0f64; 10]);
                comm.stats()
            } else {
                let _ = comm.recv::<Vec<f64>>(0, 0);
                comm.stats()
            }
        });
        assert_eq!(out[0].msgs_sent, 1);
        assert_eq!(out[0].bytes_sent, 88);
        assert_eq!(out[1].msgs_recvd, 1);
        assert_eq!(out[1].bytes_recvd, 88);
        assert!(out[1].virtual_comm_s > 0.0);
    }

    #[test]
    fn interleaved_tags_do_not_overtake_within_a_stream() {
        // Non-overtaking is per (src, tag): interleaving two tag streams
        // from one sender must not reorder either stream, no matter how
        // the receiver alternates between them.
        let out = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                for i in 0..20u64 {
                    comm.send(1, 1, i);
                    comm.send(1, 2, 100 + i);
                }
                (Vec::new(), Vec::new())
            } else {
                // Drain tag 2 first — tag-1 messages pile up in pending —
                // then drain tag 1 from the buffer.
                let twos: Vec<u64> = (0..20).map(|_| comm.recv(0, 2)).collect();
                assert_eq!(comm.pending_len(), 20, "tag-1 stream should be buffered");
                let ones: Vec<u64> = (0..20).map(|_| comm.recv(0, 1)).collect();
                (ones, twos)
            }
        });
        let (ones, twos) = &out[1];
        assert_eq!(*ones, (0..20).collect::<Vec<_>>());
        assert_eq!(*twos, (100..120).collect::<Vec<_>>());
    }

    #[test]
    fn buffered_mismatches_are_visible_to_try_recv() {
        // A message buffered while a *different* (src, tag) was being
        // received must still be found by a later non-blocking probe.
        let out = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, 11u8); // arrives first, wanted last
                comm.send(1, 5, 22u8);
                0
            } else {
                let b = comm.recv::<u8>(0, 5);
                assert_eq!(comm.pending_len(), 1);
                let a = comm
                    .try_recv::<u8>(0, 4)
                    .expect("buffered mismatch must satisfy try_recv");
                assert_eq!(comm.pending_len(), 0);
                (a as usize) * 100 + b as usize
            }
        });
        assert_eq!(out[1], 1122);
    }

    #[test]
    fn blocked_recv_aborts_with_diagnostic_when_peer_panics() {
        // The abort-flag path: rank 1 blocks on a recv whose sender dies
        // first. The timeout poll must notice the abort flag and panic
        // with the "another rank panicked" diagnostic instead of hanging.
        let res = std::panic::catch_unwind(|| {
            World::new(2).run(|comm| {
                if comm.rank() == 0 {
                    panic!("sender dies before sending");
                }
                let _: u64 = comm.recv(0, 3);
            });
        });
        let payload = res.expect_err("world must resurface the panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        // Either rank's panic may win the race to the caller; both carry
        // a recognisable message, and neither outcome is a hang.
        assert!(
            msg.contains("another rank panicked") || msg.contains("sender dies"),
            "unexpected panic payload: {msg:?}"
        );
    }

    #[test]
    fn type_mismatch_panics_with_diagnostic() {
        let res = std::panic::catch_unwind(|| {
            World::new(2).run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, 1u64);
                } else {
                    let _ = comm.recv::<f32>(0, 0);
                }
            });
        });
        assert!(res.is_err());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "real-time deadline expiry is meaningless under interpretation"
    )]
    fn recv_deadline_times_out_then_succeeds() {
        let out = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                // Nothing has been sent yet: the deadline must expire with
                // a structured error, not a panic or a hang.
                let early = comm.recv_deadline::<u64>(1, 3, Duration::from_millis(50));
                let err = early.expect_err("no message yet");
                assert_eq!(err.kind, CommErrorKind::Timeout);
                assert_eq!((err.rank, err.peer, err.tag), (0, 1, 3));
                assert!(err.message().contains("watchdog deadline expired"));
                comm.send(1, 0, ()); // release the sender
                comm.recv_deadline::<u64>(1, 3, Duration::from_secs(10))
                    .expect("message was sent after the signal")
            } else {
                let () = comm.recv(0, 0);
                comm.send(0, 3, 99u64);
                99
            }
        });
        assert_eq!(out, vec![99, 99]);
    }

    #[test]
    fn recv_deadline_zero_acts_as_structured_probe() {
        let out = World::new(1).run(|comm| {
            let miss = comm.recv_deadline::<u8>(0, 1, Duration::ZERO);
            assert_eq!(
                miss.expect_err("empty mailbox").kind,
                CommErrorKind::Timeout
            );
            comm.send(0, 1, 5u8);
            // The message is queued but a zero deadline still admits it
            // only if it reaches pending first; probe via try_recv instead.
            comm.try_recv::<u8>(0, 1).expect("queued message visible")
        });
        assert_eq!(out, vec![5]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "sub-second watchdog races the interpreter")]
    fn watchdog_converts_a_silent_peer_into_a_panic_with_diagnostic() {
        // Rank 1 exits without ever sending; its mailbox senders stay open
        // (every rank holds one to every mailbox), so before the watchdog
        // this was an unbounded hang.
        let res = std::panic::catch_unwind(|| {
            World::new(2)
                .with_comm_config(&CommConfig {
                    watchdog: Duration::from_millis(100),
                    ..Default::default()
                })
                .run(|comm| {
                    if comm.rank() == 0 {
                        let _: u64 = comm.recv(1, 5);
                    }
                });
        });
        let payload = res.expect_err("watchdog must fire");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("watchdog deadline expired"),
            "unexpected panic payload: {msg:?}"
        );
    }

    #[test]
    fn try_send_reports_world_abort_with_peer_and_tag() {
        let out = World::new(2).try_run(|comm| {
            if comm.rank() == 0 {
                panic!("rank 0 dies immediately");
            }
            // Keep sending until rank 0's mailbox closes; the error must
            // carry the abort diagnostic plus the peer and tag.
            let err: CommError = loop {
                if let Err(e) = comm.try_send(0, 17, 1u8) {
                    break e;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            assert_eq!(err.kind, CommErrorKind::Aborted);
            assert_eq!((err.peer, err.tag), (0, 17));
            assert!(err.message().contains("another rank panicked"));
            true
        });
        let err = out.expect_err("world must report rank 0's death");
        assert!(err.failures.iter().any(|f| f.rank == 0));
    }

    #[test]
    fn try_send_reports_a_peer_that_exited_cleanly() {
        // Rank 1 exits without panicking: no abort flag, so the error is
        // PeerDead and names the destination and tag.
        let out = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                let err: CommError = loop {
                    if let Err(e) = comm.try_send(1, 8, 2u8) {
                        break e;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                };
                assert_eq!(err.kind, CommErrorKind::PeerDead);
                assert_eq!((err.peer, err.tag), (1, 8));
                assert!(err.message().contains("peer rank 1 is gone"));
                1
            } else {
                0
            }
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn epoch_advance_drops_stale_and_readmits_future_envelopes() {
        // Rank 0 sends one message per epoch plus one that is never
        // received before the boundary; rank 1 must see the epoch-0
        // message, then — after advancing — the epoch-1 message, while the
        // unconsumed epoch-0 straggler vanishes instead of corrupting the
        // resumed run.
        let out = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64); // epoch 0, consumed
                comm.send(1, 2, 66u64); // epoch 0, never consumed (stale)
                comm.send(1, 3, ()); // epoch-0 sync marker
                comm.advance_epoch(1);
                comm.send(1, 1, 20u64); // epoch 1
                0
            } else {
                assert_eq!(comm.recv::<u64>(0, 1), 10);
                let () = comm.recv(0, 3); // both epoch-0 messages arrived
                comm.advance_epoch(1);
                assert_eq!(comm.recv::<u64>(0, 1), 20);
                // The stale tag-2 envelope was dropped at the boundary.
                assert!(comm.try_recv::<u64>(0, 2).is_none());
                assert_eq!(comm.pending_len(), 0);
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }
}
