//! The link layer: reliable, in-order delivery over a lossy substrate.
//!
//! The paper's T3E delivers every message, and so do the in-process
//! channels a [`World`](crate::World) runs on: there a
//! [`Comm`](crate::Comm) holds no link, and a send is one mailbox push.
//! When a [`CommConfig`] names a [`LossyProfile`](crate::LossyProfile)
//! (`chaos`), every rank holds one [`Link`], and each frame between two
//! hosts passes through it:
//!
//! - **Sender:** the frame's per-(source, destination) sequence number
//!   (`seq`, stamped by `Comm::post`), the profile's fate for the frame
//!   — delivered, dropped, duplicated, or held back for `k` later frames
//!   — and a pending window until the cumulative ack passes it. A dropped payload is kept and retransmitted with
//!   exponential backoff; once a copy has reached the peer's mailbox,
//!   retransmissions are header-only probes that elicit a fresh ack. A
//!   payload that never left this host through the whole
//!   `retransmit_budget` is a [`CommErrorKind::Transport`] failure.
//! - **Receiver:** duplicate suppression, a reorder buffer for frames
//!   that arrive ahead of a gap, and a cumulative + selective ack per
//!   arrival.
//! - **Liveness:** heartbeats from a blocked receive, a φ-style detector
//!   per peer, and self-fencing when a majority of the live peers has
//!   gone quiet — the minority side of a partition yields, and the world
//!   relaunches.
//!
//! Every method takes the current `Instant`, so the layer runs, and is
//! tested, without a world or threads.
//!
//! [`CommErrorKind::Transport`]: crate::CommErrorKind::Transport

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use crate::channel::Sender;
use crate::comm::{CommConfig, CommError, CommStats, Envelope, Tag};
use crate::transport::Fate;
use crate::wire::{decode_all, Encode};

/// Wire tag reserved for link-layer control frames (acks, heartbeats).
/// Application tags use [`crate::collectives::COLLECTIVE_BIT`] and below;
/// control frames are intercepted at admission and never delivered, and
/// stay outside every statistic. An ack carries its cumulative and
/// selective acks; a heartbeat is empty — its arrival is all it says.
pub(crate) const LINK_CTRL_TAG: Tag = Tag::MAX;

/// One frame awaiting acknowledgement on a sender's directed link.
struct PendingFrame {
    seq: u64,
    /// Retransmission attempts so far (0 = only the original send).
    attempts: u32,
    /// Selectively acked: physically at the receiver, awaiting only the
    /// cumulative ack to advance past it. Not retransmitted.
    sacked: bool,
    /// `Some` while the payload has never physically left this host
    /// (every attempt so far was dropped); `None` once a copy reached
    /// the receiver's mailbox, after which retransmissions are
    /// header-only probes.
    env: Option<Envelope>,
}

/// Sender-side state of one directed link (this host → peer host).
#[derive(Default)]
struct LinkTx {
    /// Physical transmission attempts on this link so far — the index
    /// the profile's fate consumes. Monotone, so partition windows
    /// progress under retransmit pressure.
    frame_index: u64,
    /// Cumulative ack received: every `seq < cum` is delivered.
    cum: u64,
    /// Unacknowledged frames, ascending by `seq`.
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
    /// Next in-order sequence number expected.
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

/// The destination host's mailbox is gone.
pub(crate) struct Closed;

/// One host's end of its links to every peer host.
pub(crate) struct Link {
    /// This host's rank.
    rank: usize,
    /// Timers, retransmit budget and the disturbance profile (`chaos`).
    cfg: CommConfig,
    /// Sender-side state, indexed by destination host.
    tx: Vec<LinkTx>,
    /// Receiver-side state, indexed by source host.
    rx: Vec<LinkRx>,
    /// Liveness records, indexed by peer host.
    health: Vec<PeerHealth>,
    /// Last time heartbeats went out.
    last_heartbeat: Instant,
}

impl Link {
    /// Rank `rank`'s links in a world of `size` ranks, under `cfg`.
    pub(crate) fn new(rank: usize, size: usize, cfg: &CommConfig, now: Instant) -> Self {
        Self {
            rank,
            cfg: cfg.clone(),
            tx: (0..size).map(|_| LinkTx::default()).collect(),
            rx: (0..size).map(|_| LinkRx::default()).collect(),
            health: (0..size).map(|_| PeerHealth::new(now)).collect(),
            last_heartbeat: now,
        }
    }

    /// Send an application frame to peer `host` (loopback is not a
    /// link): put it on the wire, and track it by its sequence number
    /// until the cumulative ack passes it.
    pub(crate) fn send(
        &mut self,
        host: usize,
        env: Envelope,
        wire: &[Sender<Envelope>],
        now: Instant,
    ) -> Result<(), Closed> {
        let seq = env.seq;
        let retained = self.emit(host, env, wire, now)?;
        let base = self.cfg.retransmit_base;
        let lt = &mut self.tx[host];
        lt.pending.push_back(PendingFrame {
            seq,
            attempts: 0,
            sacked: false,
            env: retained,
        });
        if lt.next_retx.is_none() {
            lt.backoff = base;
            lt.next_retx = Some(now + base);
        }
        self.release_held(host, wire, now);
        Ok(())
    }

    /// Put `env` on the wire to `host` under the profile's fate for the
    /// link's next frame index — the one place a fate is applied. A
    /// dropped frame comes back (the caller keeps an application payload
    /// for retransmission); a delayed one waits in the hold queue. A
    /// duplicated application frame is followed by a header-only copy
    /// with the same sequence number, which the receiver's
    /// duplicate suppression absorbs; if the receiver has already left,
    /// nobody needs the copy and it is abandoned. Control frames are
    /// idempotent and never duplicated.
    fn emit(
        &mut self,
        host: usize,
        env: Envelope,
        wire: &[Sender<Envelope>],
        now: Instant,
    ) -> Result<Option<Envelope>, Closed> {
        let lt = &mut self.tx[host];
        let index = lt.frame_index;
        lt.frame_index += 1;
        let fate = match &self.cfg.chaos {
            Some(profile) => profile.fate(self.rank, host, index),
            None => Fate::Deliver,
        };
        match fate {
            Fate::Drop => return Ok(Some(env)),
            Fate::Delay(k) => {
                let release = lt.frame_index + k.max(1) as u64;
                lt.held.push_back((release, now, env));
                return Ok(None);
            }
            Fate::Deliver | Fate::Duplicate => {}
        }
        let copy = (fate == Fate::Duplicate && env.tag != LINK_CTRL_TAG).then(|| Envelope {
            payload: Vec::new(),
            hollow: true,
            ..env
        });
        wire[host].send(env).map_err(|_| Closed)?;
        if let Some(copy) = copy {
            let _ = wire[host].send(copy);
        }
        Ok(None)
    }

    /// Flush delay-held frames whose release index has been passed (or
    /// that have aged out on an idle link). A late frame whose peer's
    /// mailbox is gone is abandoned; the ordinary error paths report the
    /// dead peer.
    fn release_held(&mut self, host: usize, wire: &[Sender<Envelope>], now: Instant) {
        let age_out = self.cfg.retransmit_cap;
        let lt = &mut self.tx[host];
        while lt.held.front().is_some_and(|&(release, since, _)| {
            release <= lt.frame_index || now.duration_since(since) >= age_out
        }) {
            if let Some((_, _, env)) = lt.held.pop_front() {
                let _ = wire[host].send(env);
            }
        }
    }

    /// Put a control frame on the wire to `host`. Never tracked or
    /// retransmitted, and abandoned if the peer's mailbox is gone.
    fn send_ctrl(
        &mut self,
        host: usize,
        payload: Vec<u8>,
        wire: &[Sender<Envelope>],
        now: Instant,
    ) {
        let env = Envelope::new(self.rank, host, LINK_CTRL_TAG, payload);
        let _ = self.emit(host, env, wire, now);
    }

    /// Acknowledge the receive state of `host`'s link: the cumulative
    /// next-expected sequence (all `seq` below it delivered in order)
    /// plus up to 16 selective acks for frames parked in the reorder
    /// buffer, which the sender need not retransmit.
    pub(crate) fn ack(&mut self, host: usize, wire: &[Sender<Envelope>], now: Instant) {
        let rx = &self.rx[host];
        let sacks: Vec<u64> = rx.buffer.keys().take(16).copied().collect();
        let mut payload = Vec::new();
        (rx.expected, sacks).encode(&mut payload);
        self.send_ctrl(host, payload, wire, now);
    }

    /// First look at a physically arrived frame: evidence that its host
    /// is alive. A control frame (ack, heartbeat) is consumed here; any
    /// other frame comes back for [`Link::accept`].
    pub(crate) fn intercept(&mut self, env: Envelope, now: Instant) -> Option<Envelope> {
        let from = env.src;
        self.note_heard(from, now);
        if env.tag != LINK_CTRL_TAG {
            return Some(env);
        }
        // A heartbeat, or a control frame that does not decode, has
        // nothing more to say.
        let Ok((cum, sacks)) = decode_all::<(u64, Vec<u64>)>(&env.payload) else {
            return None;
        };
        let base = self.cfg.retransmit_base;
        let lt = &mut self.tx[from];
        if cum > lt.cum {
            lt.cum = cum;
            while lt.pending.front().is_some_and(|p| p.seq < cum) {
                lt.pending.pop_front();
            }
            // Progress: restart the backoff ladder for the new
            // head-of-line frame.
            lt.backoff = base;
            lt.next_retx = (!lt.pending.is_empty()).then(|| now + base);
            crate::check::emit(crate::check::ProtocolEvent::AckAdvance {
                src: self.rank,
                dst: from,
                cum,
            });
        }
        for s in sacks {
            if let Some(pf) = lt.pending.iter_mut().find(|p| p.seq == s) {
                // Physically at the receiver: drop the payload copy and
                // stop retransmitting it.
                pf.sacked = true;
                pf.env = None;
            }
        }
        None
    }

    /// Record liveness evidence from `host` and clear any suspicion.
    fn note_heard(&mut self, host: usize, now: Instant) {
        if host == self.rank {
            return;
        }
        let h = &mut self.health[host];
        let dt = now.duration_since(h.last_heard).as_secs_f64();
        h.last_heard = now;
        if h.intervals.len() == 8 {
            h.intervals.pop_front();
        }
        h.intervals.push_back(dt);
        if h.suspected {
            h.suspected = false;
            crate::check::emit(crate::check::ProtocolEvent::Unsuspect {
                rank: self.rank,
                peer: host,
            });
        }
    }

    /// Admit an application frame from a peer host.
    /// The next frame in order comes back, to be delivered, followed by
    /// [`Link::next_in_order`] until `None` and then [`Link::ack`]. Any
    /// other frame is dealt with here: a duplicate of a delivered frame
    /// is suppressed and re-acked; a frame ahead of a gap is parked, and
    /// the sack in its ack tells the sender not to retransmit it; a
    /// probe for a delivered frame is re-acked (the original ack was
    /// lost), and a probe for a frame not yet delivered is ignored —
    /// its payload copy is still in the mailbox and arrives on its own.
    pub(crate) fn accept(
        &mut self,
        env: Envelope,
        wire: &[Sender<Envelope>],
        now: Instant,
    ) -> Option<Envelope> {
        let host = env.src;
        let rx = &mut self.rx[host];
        if env.hollow {
            if env.seq >= rx.expected {
                return None;
            }
        } else if env.seq == rx.expected {
            rx.expected += 1;
            return Some(env);
        } else if env.seq > rx.expected {
            rx.buffer.entry(env.seq).or_insert(env);
        }
        self.ack(host, wire, now);
        None
    }

    /// The parked frame from `host` whose gap has just filled, if any.
    pub(crate) fn next_in_order(&mut self, host: usize) -> Option<Envelope> {
        let rx = &mut self.rx[host];
        let env = rx.buffer.remove(&rx.expected)?;
        rx.expected += 1;
        Some(env)
    }

    /// One maintenance pass, run from every blocked receive poll: flush
    /// delay-held frames, fire due retransmissions, emit heartbeats, and
    /// evaluate suspicion. A spent retransmit budget or a minority-side
    /// fence is a [`CommErrorKind::Transport`](crate::CommErrorKind)
    /// failure of this rank; `stats` counts retransmissions and
    /// suspicions.
    pub(crate) fn maintain(
        &mut self,
        now: Instant,
        wire: &[Sender<Envelope>],
        stats: &mut CommStats,
    ) -> Result<(), CommError> {
        let me = self.rank;
        for host in (0..self.tx.len()).filter(|&h| h != me) {
            self.release_held(host, wire, now);
        }
        self.retransmit_due(now, wire, stats)?;
        if now.duration_since(self.last_heartbeat) >= self.cfg.heartbeat {
            self.last_heartbeat = now;
            for host in (0..self.tx.len()).filter(|&h| h != me) {
                self.send_ctrl(host, Vec::new(), wire, now);
            }
        }
        self.evaluate_suspicion(now, stats)
    }

    /// Retransmit the head-of-line unsacked frame of every link whose
    /// backoff timer has expired, escalating once the budget is spent.
    fn retransmit_due(
        &mut self,
        now: Instant,
        wire: &[Sender<Envelope>],
        stats: &mut CommStats,
    ) -> Result<(), CommError> {
        let (budget, base, cap) = (
            self.cfg.retransmit_budget,
            self.cfg.retransmit_base,
            self.cfg.retransmit_cap,
        );
        let rank = self.rank;
        for host in (0..self.tx.len()).filter(|&h| h != rank) {
            let lt = &mut self.tx[host];
            if lt.next_retx.is_none_or(|t| now < t) {
                continue;
            }
            let Some(pos) = lt.pending.iter().position(|p| !p.sacked) else {
                // Everything in flight is sacked: the cumulative ack is
                // imminent; check again next poll.
                lt.next_retx = Some(now + base);
                continue;
            };
            let pf = &mut lt.pending[pos];
            pf.attempts += 1;
            let (seq, env) = (pf.seq, pf.env.take());
            if pf.attempts > budget {
                if env.is_some() {
                    return Err(CommError::retransmit_exhausted(rank, host, 0, seq, budget));
                }
                // The payload physically reached the peer's mailbox; only
                // the acks are missing (peer likely exited). Stop probing.
                lt.pending.remove(pos);
                continue;
            }
            // Payload already at the receiver: a header-only probe
            // elicits a fresh ack.
            let probe = env.unwrap_or_else(|| Envelope {
                seq,
                hollow: true,
                ..Envelope::new(rank, host, 0, Vec::new())
            });
            stats.retransmits += 1;
            crate::check::emit(crate::check::ProtocolEvent::Retransmit {
                src: self.rank,
                dst: host,
                seq,
            });
            match self.emit(host, probe, wire, now) {
                // Dropped again: keep the payload for the next try.
                Ok(Some(env)) if !env.hollow => {
                    if let Some(pf) = self.tx[host].pending.get_mut(pos) {
                        pf.env = Some(env);
                    }
                }
                Ok(_) => {}
                // Peer mailbox gone mid-retransmit: the frame can never
                // be delivered; the ordinary dead-peer paths report it.
                Err(Closed) => {
                    self.tx[host].pending.remove(pos);
                }
            }
            let lt = &mut self.tx[host];
            lt.backoff = (lt.backoff * 2).min(cap);
            lt.next_retx = Some(now + lt.backoff);
        }
        Ok(())
    }

    /// Raise suspicion on peers past their φ threshold; self-fence when
    /// this host can no longer reach a majority of its peers — the
    /// minority side of a partition yields (panics, and the world
    /// relaunches) instead of diverging.
    fn evaluate_suspicion(&mut self, now: Instant, stats: &mut CommStats) -> Result<(), CommError> {
        let (min, max) = (self.cfg.suspicion_min, self.cfg.suspicion_max);
        let mut live_peers = 0usize;
        let mut reachable = 0usize;
        let mut quietest = Duration::ZERO;
        for (host, h) in self.health.iter_mut().enumerate() {
            if host == self.rank {
                continue;
            }
            live_peers += 1;
            let quiet = now.duration_since(h.last_heard);
            if quiet <= h.threshold(min, max) {
                reachable += 1;
                continue;
            }
            quietest = quietest.max(quiet);
            if !h.suspected {
                h.suspected = true;
                stats.suspicions += 1;
                crate::check::emit(crate::check::ProtocolEvent::Suspect {
                    rank: self.rank,
                    peer: host,
                });
            }
        }
        if live_peers >= 1 && reachable * 2 < live_peers {
            return Err(CommError::fenced(
                self.rank, reachable, live_peers, quietest,
            ));
        }
        Ok(())
    }

    /// True while a sent frame awaits its ack or a held frame its
    /// release.
    pub(crate) fn busy(&self) -> bool {
        self.tx
            .iter()
            .any(|lt| !lt.pending.is_empty() || !lt.held.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{unbounded, Receiver};
    use crate::comm::CommErrorKind;
    use crate::transport::LossyProfile;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Two hosts' mailboxes: `wire[h]` puts a frame into `inbox[h]`.
    fn wire() -> (Vec<Sender<Envelope>>, Vec<Receiver<Envelope>>) {
        (0..2).map(|_| unbounded()).unzip()
    }

    /// A budget of 3 and backoffs of a few ms to step through by hand,
    /// with heartbeats and suspicion far beyond the steps.
    fn cfg(profile: LossyProfile) -> CommConfig {
        CommConfig {
            retransmit_budget: 3,
            retransmit_base: ms(1),
            retransmit_cap: ms(4),
            heartbeat: ms(30_000),
            suspicion_min: ms(60_000),
            suspicion_max: ms(60_000),
            chaos: Some(profile),
            ..CommConfig::default()
        }
    }

    /// Application frame `seq` from host 0 to host 1 carrying `value`.
    fn frame(seq: u64, value: u64) -> Envelope {
        Envelope {
            seq,
            ..Envelope::new(0, 1, 5, value.to_le_bytes().to_vec())
        }
    }

    fn drain(inbox: &Receiver<Envelope>) -> Vec<Envelope> {
        std::iter::from_fn(|| inbox.try_recv().ok()).collect()
    }

    /// `(seq, hollow)` of each frame.
    fn headers(frames: &[Envelope]) -> Vec<(u64, bool)> {
        frames.iter().map(|e| (e.seq, e.hollow)).collect()
    }

    /// `(cum, sacks)` of an ack frame.
    fn ack_of(env: &Envelope) -> (u64, Vec<u64>) {
        decode_all(&env.payload).expect("an ack")
    }

    fn value(env: Envelope) -> u64 {
        decode_all(&env.payload).expect("a u64 payload")
    }

    #[test]
    fn a_payload_dropped_on_every_attempt_escalates_after_the_budget() {
        let (wire, inbox) = wire();
        let t0 = Instant::now();
        let drop_all = LossyProfile {
            drop_per_mille: 1000,
            ..LossyProfile::new(1)
        };
        let mut a = Link::new(0, 2, &cfg(drop_all), t0);
        assert!(a.send(1, frame(0, 7), &wire, t0).is_ok());
        let mut stats = CommStats::default();
        // Every pass is past the backoff (capped at 4 ms): each retries.
        let err = (1..=10)
            .find_map(|i| a.maintain(t0 + ms(5 * i), &wire, &mut stats).err())
            .expect("the budget runs out");
        assert_eq!(err.kind, CommErrorKind::Transport);
        assert!(
            err.message()
                .contains("seq 0 is still unacknowledged after 3 retransmissions"),
            "{err}"
        );
        assert_eq!(stats.retransmits, 3);
        assert!(drain(&inbox[1]).is_empty(), "nothing reached host 1");
    }

    #[test]
    fn a_delivered_payload_whose_acks_are_all_lost_is_retired_without_error() {
        let (wire, inbox) = wire();
        let t0 = Instant::now();
        let mut a = Link::new(0, 2, &cfg(LossyProfile::new(1)), t0);
        assert!(a.send(1, frame(0, 7), &wire, t0).is_ok());
        let mut stats = CommStats::default();
        // No ack ever comes back: three header-only probes, then the
        // entry is retired on the fourth due pass.
        for i in 1..=4 {
            let pass = a.maintain(t0 + ms(5 * i), &wire, &mut stats);
            assert!(pass.is_ok(), "pass {i}: {pass:?}");
        }
        assert!(!a.busy(), "the frame is retired");
        assert_eq!(stats.retransmits, 3);
        let arrived = drain(&inbox[1]);
        assert_eq!(
            headers(&arrived),
            [(0, false), (0, true), (0, true), (0, true)]
        );
    }

    #[test]
    fn an_early_arrival_is_parked_and_sacked_and_delivered_once_the_gap_fills() {
        let (wire, inbox) = wire();
        let t0 = Instant::now();
        let quiet = cfg(LossyProfile::new(1));
        let (mut a, mut b) = (Link::new(0, 2, &quiet, t0), Link::new(1, 2, &quiet, t0));
        for (seq, v) in [(0, 10u64), (1, 11)] {
            assert!(a.send(1, frame(seq, v), &wire, t0).is_ok());
        }
        let mut sent = drain(&inbox[1]).into_iter();
        let (first, second) = (sent.next().expect("seq 0"), sent.next().expect("seq 1"));
        assert_eq!((first.seq, second.seq), (0, 1));
        // The wire holds seq 0 back: seq 1 arrives first and is parked.
        let second = b.intercept(second, t0).expect("an application frame");
        assert!(b.accept(second, &wire, t0).is_none(), "parked");
        let ack = inbox[0].try_recv().expect("host 1 acks the early frame");
        assert_eq!(ack_of(&ack), (0, vec![1]));
        assert!(a.intercept(ack, t0).is_none(), "host 0 consumes the ack");
        // Host 0 probes for seq 0 only: seq 1 is sacked.
        let mut stats = CommStats::default();
        for i in 1..=2 {
            let pass = a.maintain(t0 + ms(5 * i), &wire, &mut stats);
            assert!(pass.is_ok(), "pass {i}: {pass:?}");
        }
        let probes = drain(&inbox[1]);
        assert_eq!(headers(&probes), [(0, true), (0, true)]);
        // A probe ahead of delivery is ignored: its payload is in flight.
        for probe in probes {
            assert!(b.accept(probe, &wire, t0).is_none());
        }
        assert!(inbox[0].try_recv().is_err(), "no ack for an early probe");
        // The gap fills: seq 0, then the parked seq 1, in order.
        let first = b.accept(first, &wire, t0).expect("seq 0 is next");
        let parked = std::iter::from_fn(|| b.next_in_order(0));
        let delivered: Vec<u64> = std::iter::once(first).chain(parked).map(value).collect();
        assert_eq!(delivered, [10, 11]);
        b.ack(0, &wire, t0);
        let ack = inbox[0].try_recv().expect("the cumulative ack");
        assert_eq!(ack_of(&ack), (2, vec![]));
        assert!(a.intercept(ack, t0).is_none());
        assert!(!a.busy(), "both frames acknowledged");
    }

    #[test]
    fn a_duplicate_is_suppressed_and_re_acked() {
        let (wire, inbox) = wire();
        let t0 = Instant::now();
        let mut b = Link::new(1, 2, &cfg(LossyProfile::new(1)), t0);
        let delivered = b.accept(frame(0, 10), &wire, t0).expect("in order");
        assert_eq!(value(delivered), 10);
        b.ack(0, &wire, t0);
        assert_eq!(ack_of(&inbox[0].try_recv().expect("an ack")), (1, vec![]));
        // A second copy of the payload, and a header-only duplicate: both
        // are suppressed, and each is answered with a fresh ack.
        let hollow = Envelope {
            payload: Vec::new(),
            hollow: true,
            ..frame(0, 10)
        };
        for copy in [frame(0, 10), hollow] {
            assert!(b.accept(copy, &wire, t0).is_none(), "suppressed");
            assert_eq!(ack_of(&inbox[0].try_recv().expect("a re-ack")), (1, vec![]));
        }
        assert!(b.next_in_order(0).is_none());
    }
}
