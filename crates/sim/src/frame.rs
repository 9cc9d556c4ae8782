//! Flat framed message payloads for the steady-state hot path.
//!
//! The exchange phases ship pooled *frames* instead of nested payloads:
//! frames are `Default + Send + Sync`, live in a [`pcdlb_mp::BufferPool`]
//! across steps, and are refilled in place, so the hot path allocates
//! nothing in steady state.
//!
//! # The coalesced step message
//!
//! On a rebuild step (every step with `skin == 0`) a rank sends exactly
//! two [`StepFrame`]s to each neighbour under the single
//! `tags::STEP_FRAME` tag. Round 1 carries boundary crossers (migrants)
//! plus — in a balancing run — the sender's last-step load and, on DLB
//! steps, the decision it took at the top of the step with the work that
//! moves with it; round 2 carries the boundary-shell ghost frame.
//! One-byte sub-frame presence headers say which sections are populated,
//! and per-(src, dst, tag) FIFO ordering keeps the rounds matched. A
//! decomposition whose ownership can never change — or can change only
//! among ranks that are all neighbours of each other (a balancing torus
//! of side 3) — sends them as one frame with both sections populated
//! ([`StepFrame::begin_single`]): the sender's migrants for that
//! neighbour, and as ghosts every other particle it held before the step
//! whose new cell borders the neighbour's; in a balancing run also its
//! load and decision, which every receiver applies at the top of the next
//! rebuild step, when the moved columns' particles travel as the giver's
//! migrants. Between rebuilds of a skin
//! epoch nothing migrates and no shell changes membership, so a step
//! sends one frame per neighbour, carrying only a [`GhostRefresh`]
//! section.
//!
//! # Ghost shell frames and delta encoding
//!
//! Ghosts ship as `(id, position)` pairs only ([`GhostPart`]): force
//! evaluation never reads a ghost's velocity, so the 24 velocity bytes of
//! a full `Particle` never cross the wire. There is no column or block
//! directory either — the receiver re-bins each ghost by its position,
//! which also makes empty-cell traffic vanish structurally. A full frame
//! lists its ghosts in ascending id order, so the ids travel as unsigned
//! LEB128 gaps — the first id raw, then each id minus the one before, 7
//! value bits per byte — ahead of the positions, 24 bytes each: a ghost
//! whose id follows its predecessor's by less than 128 costs 25 bytes,
//! one that follows by less than 16384 costs 26.
//!
//! Between steps, shell membership is mostly stable and positions move by
//! ~`dt·v`, so a [`DeltaChannel`] pairs each (neighbour, direction) with
//! its previous frame and sends the diff: a survival bitmap over the
//! previous membership (ascending id), the survivors' new positions (24
//! bytes each), and the arrivals, gap-encoded like a full frame. The
//! sender computes both encodings' exact sizes and ships whichever is
//! smaller, so a membership discontinuity (a DLB transfer redrawing the
//! shell, a moving plane boundary) degrades to a full frame instead of a
//! bloated delta; an invalid channel — at startup or after a restore —
//! always sends full. A frame is
//! self-describing (`delta` flag), so only the sender needs this logic;
//! the receiver checks an FNV fingerprint of the membership it holds
//! against the one the delta was computed from, and a mismatch is a
//! structured [`DesyncError`] — the channel resets itself and the caller
//! chooses how to recover. The torus protocol in [`crate::pe`] degrades:
//! it drops that neighbour's ghosts for one step and raises the `resync`
//! bit in its next round-1 [`StepFrame`], which makes the peer reset its
//! send channel so the very next ghost frame arrives full and the stream
//! is clean again. One desynced channel costs one degraded step on one
//! rank instead of killing the world. On a single-exchange frame only
//! the ghost section is dropped — the migrants are applied regardless —
//! and the bit rides the rank's next frame, which crosses the peer's in
//! flight: that one is lost as well, and the full frame arrives a
//! rebuild step later (two degraded steps).
//!
//! # The frozen-epoch refresh
//!
//! With `skin > 0` the binning, ownership and shell membership are
//! frozen between rebuild steps, and the rebuild schedule is replicated
//! state: both ends of a link know, without exchanging a byte, that a
//! mid-epoch frame holds exactly the ghosts of the last rebuild frame.
//! Such a frame therefore carries positions only ([`GhostRefresh`], 24
//! bytes per ghost, no ids, no bitmap, no fingerprint) in the order the
//! sender packs its frozen shell cells — ascending (column, z cell, id),
//! which the receiver reproduces from its own frozen ghost slabs — and
//! never touches a [`DeltaChannel`]: the channels roll forward on
//! rebuild steps only, each delta diffing against the previous rebuild
//! frame. A refresh whose length disagrees with the receiver's recorded
//! routes is a [`DesyncError::Refresh`], absorbed like any other desync.
//!
//! # Canonical vs encoded bytes
//!
//! [`WireSize::wire_size`] — what the interconnect cost model charges —
//! is *content-based*: the full frame's size, `1 + 8 + Σ leb128(gap) +
//! 24·n` for a shell frame holding `n` ghosts, whether it travels as a
//! delta or as a full frame (a delta frame carries that size, recorded by
//! [`DeltaChannel::encode_into`] from the content it decodes to). Virtual
//! time feeds `t_step` and the run digests, and fallbacks fire on
//! non-deterministic events (a desync, a restore), so charging the actual
//! encoding would break bitwise reproducibility. The actual layout size is
//! reported separately through [`WireSize::encoded_size`], which feeds
//! the `bytes_on_wire` counters only. A refresh section is charged what
//! it ships, `1 + 8 + 24·n`: whether a step refreshes or rebuilds is a
//! pure function of replicated state (the displacement tracker and the
//! checkpoint cadence, on which restores land), never of a fallback, so
//! that size is as reproducible as the shell frame's.
//!
//! `wire_check.rs` pins both layouts against a reference encoder.

use pcdlb_core::protocol::Transfer;
use pcdlb_md::{Particle, Vec3};
use pcdlb_mp::WireSize;

/// One ghost particle on the wire: id + position. Velocities are never
/// read from ghosts, so they never travel. A ghost has no size of its
/// own: its id travels as the gap to the id before it in its frame, 1 to
/// 10 bytes, beside its 24-byte position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GhostPart {
    /// Particle id.
    pub id: u64,
    /// Wrapped position in the global box.
    pub pos: Vec3,
}

/// Bytes of `v` as an unsigned LEB128 varint: 7 value bits per byte.
fn leb128_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bytes of a strictly ascending id list as LEB128 gaps: the first id
/// raw, then each id minus the one before.
fn gap_bytes(ids: impl Iterator<Item = u64>) -> usize {
    let mut prev = 0;
    ids.map(|id| {
        let gap = leb128_len(id - prev);
        prev = id;
        gap
    })
    .sum()
}

/// FNV-1a over a membership list — the fingerprint a delta frame carries
/// so the receiver can prove its previous frame matches the sender's.
fn fnv_ids(ids: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &id in ids {
        for b in id.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A delta ghost frame arrived on a channel whose previous membership
/// does not match the one the delta was computed from. The decode side
/// resets its channel before returning this, so the stream recovers as
/// soon as the sender falls back to a full frame (which the torus
/// protocol requests via the round-1 `resync` bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesyncError {
    /// The membership sizes disagree (or the channel held no previous
    /// frame at all): `have` ids locally vs the `framed` count the delta
    /// was diffed against.
    Membership {
        /// Ids held on the receive channel.
        have: usize,
        /// `prev_len` the frame carried.
        framed: u32,
    },
    /// Sizes agree but the FNV-1a fingerprints differ: same-length
    /// memberships with different ids.
    Fingerprint {
        /// Fingerprint of the locally held membership.
        have: u64,
        /// `prev_check` the frame carried.
        framed: u64,
    },
    /// A mid-epoch positions-only refresh does not cover the ghosts the
    /// receiver recorded routes for at the last rebuild step (that
    /// step's own decode desynced, so it holds none of them).
    Refresh {
        /// Slots the recorded routes cover.
        have: usize,
        /// Positions the refresh carried.
        framed: usize,
    },
}

impl std::fmt::Display for DesyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DesyncError::Membership { have, framed } => write!(
                f,
                "delta ghost frame against a desynchronised channel \
                 (have {have} previous ids, frame diffed {framed})"
            ),
            DesyncError::Fingerprint { have, framed } => write!(
                f,
                "delta ghost frame fingerprint mismatch \
                 (have {have:#018x}, frame diffed {framed:#018x})"
            ),
            DesyncError::Refresh { have, framed } => write!(
                f,
                "ghost refresh against a desynchronised epoch \
                 (routes cover {have} ghosts, frame refreshed {framed})"
            ),
        }
    }
}

impl std::error::Error for DesyncError {}

/// One boundary-shell ghost shipment: either the full `(id, pos)` list or
/// a delta against the previous frame on the same [`DeltaChannel`].
#[derive(Debug, Clone, Default)]
pub struct GhostShellFrame {
    /// `false`: `full` is populated. `true`: the delta sections are.
    pub delta: bool,
    /// Full frame: the shell content, ascending id.
    pub full: Vec<GhostPart>,
    /// Delta: size of the previous membership the diff was computed from.
    pub prev_len: u32,
    /// Delta: FNV-1a fingerprint of that membership.
    pub prev_check: u64,
    /// Delta: survival bitmap over the previous membership, ascending id,
    /// bit `i` of byte `i / 8` = previous id `i` is still in the shell.
    pub survive: Vec<u8>,
    /// Delta: survivors' new positions, in previous-membership order.
    pub moved: Vec<Vec3>,
    /// Delta: ghosts not in the previous membership, ascending id.
    pub arrivals: Vec<GhostPart>,
    /// Delta: gap bytes of the decoded content's ids, recorded by
    /// [`DeltaChannel::encode_into`] so the frame is charged what its full
    /// form would be.
    content_ids: usize,
}

impl GhostShellFrame {
    /// Empty every section, keeping capacity.
    pub fn clear(&mut self) {
        self.delta = false;
        self.full.clear();
        self.prev_len = 0;
        self.prev_check = 0;
        self.survive.clear();
        self.moved.clear();
        self.arrivals.clear();
        self.content_ids = 0;
    }

    /// Number of ghosts the decoded frame holds.
    pub fn content_len(&self) -> usize {
        if self.delta {
            self.moved.len() + self.arrivals.len()
        } else {
            self.full.len()
        }
    }
}

impl WireSize for GhostShellFrame {
    fn wire_size(&self) -> usize {
        // Canonical (content-based): the full frame of the decoded
        // content — delta flag, length prefix, id gaps, positions —
        // regardless of how the frame is encoded.
        let ids = if self.delta {
            self.content_ids
        } else {
            gap_bytes(self.full.iter().map(|g| g.id))
        };
        1 + 8 + ids + 24 * self.content_len()
    }

    fn encoded_size(&self) -> usize {
        if self.delta {
            // flag + prev_len + prev_check + bitmap + survivor positions
            // + gap-encoded arrivals (each section length-prefixed).
            1 + 4
                + 8
                + (8 + self.survive.len())
                + (8 + 24 * self.moved.len())
                + (8 + gap_bytes(self.arrivals.iter().map(|g| g.id)) + 24 * self.arrivals.len())
        } else {
            self.wire_size()
        }
    }
}

/// The positions-only ghost refresh of a frozen skin epoch: the new
/// position of every ghost of the last rebuild frame on this link, in
/// the sender's pack order (see the module docs). On the wire it is the
/// third encoding of the ghost section — kind byte, then the
/// length-prefixed positions.
#[derive(Debug, Clone, Default)]
pub struct GhostRefresh {
    /// One position per ghost of the frozen shell.
    pub pos: Vec<Vec3>,
}

impl GhostRefresh {
    /// Check the refresh against the `have` slots the receiver recorded
    /// routes for; `Ok` yields the positions to write through them.
    pub fn positions_for(&self, have: usize) -> Result<&[Vec3], DesyncError> {
        if self.pos.len() == have {
            Ok(&self.pos)
        } else {
            Err(DesyncError::Refresh {
                have,
                framed: self.pos.len(),
            })
        }
    }
}

impl WireSize for GhostRefresh {
    fn wire_size(&self) -> usize {
        // Section kind byte + length-prefixed positions. Canonical and
        // encoded sizes coincide: there is one layout.
        1 + 8 + 24 * self.pos.len()
    }
}

/// Sender- or receiver-side state of one delta stream: the membership of
/// the previous frame, kept in ascending id order. One channel per
/// (neighbour, direction); symmetric on both ends because every frame
/// deterministically updates it.
#[derive(Debug, Default)]
pub struct DeltaChannel {
    /// False until the first frame after construction/reset: the next
    /// encode must produce a full frame.
    valid: bool,
    /// Previous frame's membership, ascending id.
    ids: Vec<u64>,
    /// Encode-side staging: callers push the current shell content here
    /// (any order) before [`DeltaChannel::encode_into`].
    pub scratch: Vec<(u64, Vec3)>,
}

impl DeltaChannel {
    /// Forget the previous frame; the next encode sends a full frame.
    pub fn reset(&mut self) {
        self.valid = false;
        self.ids.clear();
    }

    /// Whether the channel holds a previous frame a delta can apply to.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Encode the staged `scratch` content into `frame` — as a delta
    /// against the previous frame or as a full frame, whichever is
    /// smaller on the wire — then roll the channel forward. An invalid
    /// channel (startup, restore) or `!delta_ok`
    /// always produces a full frame. `scratch` is sorted in place and
    /// drained.
    pub fn encode_into(&mut self, delta_ok: bool, frame: &mut GhostShellFrame) {
        self.scratch.sort_unstable_by_key(|e| e.0);
        debug_assert!(
            self.scratch.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate ghost id staged on a delta channel"
        );
        // Min-size choice. A membership discontinuity (a DLB transfer
        // redrew the shell) simply makes the full frame win — no reset
        // plumbing needed, since the frame is self-describing either way.
        let as_delta = delta_ok && self.valid && self.delta_size() < self.full_size();
        self.encode_as(as_delta, frame);
    }

    /// Exact size of the sorted staged content as a full frame.
    fn full_size(&self) -> usize {
        9 + gap_bytes(self.scratch.iter().map(|e| e.0)) + 24 * self.scratch.len()
    }

    /// Exact size of the sorted staged content as a delta against the
    /// previous frame: section headers, the bitmap, one position per
    /// ghost and the arrivals' id gaps, which a merge walk over the two
    /// sorted id lists finds.
    fn delta_size(&self) -> usize {
        let (mut arrival_ids, mut prev, mut i) = (0usize, 0u64, 0usize);
        for &(id, _) in &self.scratch {
            while i < self.ids.len() && self.ids[i] < id {
                i += 1;
            }
            if self.ids.get(i) != Some(&id) {
                arrival_ids += leb128_len(id - prev);
                prev = id;
            }
        }
        37 + self.ids.len().div_ceil(8) + arrival_ids + 24 * self.scratch.len()
    }

    /// Write the sorted staged content into `frame`, as a delta or as a
    /// full frame, then roll the channel forward.
    pub(crate) fn encode_as(&mut self, delta: bool, frame: &mut GhostShellFrame) {
        frame.clear();
        if delta {
            frame.delta = true;
            frame.content_ids = gap_bytes(self.scratch.iter().map(|e| e.0));
            frame.prev_len = self.ids.len() as u32;
            frame.prev_check = fnv_ids(&self.ids);
            let mut byte = 0u8;
            for (i, &id) in self.ids.iter().enumerate() {
                if let Ok(k) = self.scratch.binary_search_by_key(&id, |e| e.0) {
                    byte |= 1 << (i % 8);
                    frame.moved.push(self.scratch[k].1);
                }
                if i % 8 == 7 {
                    frame.survive.push(byte);
                    byte = 0;
                }
            }
            if !self.ids.is_empty() && !self.ids.len().is_multiple_of(8) {
                frame.survive.push(byte);
            }
            for &(id, pos) in &self.scratch {
                if self.ids.binary_search(&id).is_err() {
                    frame.arrivals.push(GhostPart { id, pos });
                }
            }
        } else {
            frame
                .full
                .extend(self.scratch.iter().map(|&(id, pos)| GhostPart { id, pos }));
        }
        self.ids.clear();
        self.ids.extend(self.scratch.iter().map(|e| e.0));
        self.valid = true;
        self.scratch.clear();
    }

    /// Decode `frame` into `out` as `(id, pos)` in ascending id order,
    /// then roll the channel forward. A delta frame arriving on a channel
    /// whose previous membership does not match the one the delta was
    /// computed from is a [`DesyncError`]: the channel resets itself,
    /// `out` is left empty, and the caller decides how to recover (the
    /// torus protocol skips the neighbour's ghosts for one step and
    /// requests a full-frame resync; full frames always decode, so the
    /// stream heals as soon as one arrives).
    pub fn decode_into(
        &mut self,
        frame: &GhostShellFrame,
        out: &mut Vec<(u64, Vec3)>,
    ) -> Result<(), DesyncError> {
        out.clear();
        if frame.delta {
            if !self.valid || self.ids.len() != frame.prev_len as usize {
                let err = DesyncError::Membership {
                    have: self.ids.len(),
                    framed: frame.prev_len,
                };
                self.reset();
                return Err(err);
            }
            let have = fnv_ids(&self.ids);
            if have != frame.prev_check {
                let err = DesyncError::Fingerprint {
                    have,
                    framed: frame.prev_check,
                };
                self.reset();
                return Err(err);
            }
            let mut mi = 0usize;
            let mut ai = 0usize;
            for (i, &id) in self.ids.iter().enumerate() {
                if frame.survive[i / 8] >> (i % 8) & 1 == 1 {
                    while ai < frame.arrivals.len() && frame.arrivals[ai].id < id {
                        out.push((frame.arrivals[ai].id, frame.arrivals[ai].pos));
                        ai += 1;
                    }
                    out.push((id, frame.moved[mi]));
                    mi += 1;
                }
            }
            while ai < frame.arrivals.len() {
                out.push((frame.arrivals[ai].id, frame.arrivals[ai].pos));
                ai += 1;
            }
            debug_assert_eq!(mi, frame.moved.len());
        } else {
            out.extend(frame.full.iter().map(|g| (g.id, g.pos)));
        }
        self.ids.clear();
        self.ids.extend(out.iter().map(|e| e.0));
        self.valid = true;
        Ok(())
    }

    /// Test hook: corrupt the channel's previous-membership record so the
    /// next delta decode fails the fingerprint check. Used by the desync
    /// negative tests; never called on a healthy path.
    #[doc(hidden)]
    pub fn poison_membership(&mut self) {
        if let Some(last) = self.ids.last_mut() {
            *last ^= 1;
        } else {
            self.ids.push(u64::MAX);
            self.valid = true;
        }
    }
}

/// A flat particle shipment (migration, a re-tile's columns): identical wire
/// bytes to the `Vec<Particle>` it replaces, but poolable and refillable
/// in place.
#[derive(Debug, Clone, Default)]
pub struct ParticleFrame {
    /// The particles, id-sorted.
    pub parts: Vec<Particle>,
}

impl ParticleFrame {
    /// What a frame of `n` particles weighs on the wire, without building
    /// it: a length prefix and `n` particles.
    pub(crate) fn wire_size_of(n: usize) -> usize {
        8 + n * Particle::at_rest(0, Vec3::ZERO).wire_size()
    }
}

impl WireSize for ParticleFrame {
    fn wire_size(&self) -> usize {
        Self::wire_size_of(self.parts.len())
    }
}

/// The coalesced per-neighbour step message: one-byte presence headers
/// select which sections travel. Round 1 = migrants (+ load in a
/// balancing run, + decision on DLB steps); round 2 = the ghost shell; a
/// single-exchange rebuild step's only frame = both; a mid-epoch step's
/// only frame = the ghost refresh.
#[derive(Debug, Clone, Default)]
pub struct StepFrame {
    /// Round-1 marker: the migrant section travels.
    pub has_migrants: bool,
    /// Ghost-resync request: the receiver of the *previous* ghost frame
    /// on this neighbour pair hit a [`DesyncError`] and asks the sender to
    /// reset its delta channel, so its next shell frame — this step's
    /// round 2 — arrives full. Rides bit 1 of the migrant presence header
    /// byte, which every frame has: round-1 frames carry it on the
    /// two-round path, every frame of a single-exchange rank. Zero extra
    /// wire bytes, and never set on a healthy stream.
    pub resync: bool,
    /// Particles that crossed into the destination's columns, id-sorted.
    pub migrants: ParticleFrame,
    /// Sender's last-step load; `Some` in every round-1 and single frame
    /// of a balancing run.
    pub load: Option<f64>,
    /// The sender's balancer decision for this step, taken before the
    /// frame was packed, with the work that moves with it; `Some` only in
    /// the first frame of a DLB step on which the sender gives a cell away. Its
    /// presence rides bit 2 of the migrant presence header byte, so a
    /// frame without a decision is byte for byte the frame it always was.
    pub decision: Option<Transfer>,
    /// Round-2 marker: the ghost section travels.
    pub has_ghosts: bool,
    /// Boundary-shell ghosts.
    pub ghosts: GhostShellFrame,
    /// Mid-epoch marker: the ghost section travels as a positions-only
    /// refresh (never together with `has_ghosts`).
    pub has_refresh: bool,
    /// New positions of the frozen shell's ghosts.
    pub refresh: GhostRefresh,
}

impl StepFrame {
    /// Empty every section, keeping buffer capacity.
    fn clear(&mut self) {
        self.has_migrants = false;
        self.resync = false;
        self.migrants.parts.clear();
        self.load = None;
        self.decision = None;
        self.has_ghosts = false;
        self.ghosts.clear();
        self.has_refresh = false;
        self.refresh.pos.clear();
    }

    /// Reshape a pooled frame for round 1, keeping buffer capacity.
    pub fn begin_round1(&mut self, load: Option<f64>, decision: Option<Transfer>) {
        self.clear();
        self.has_migrants = true;
        self.load = load;
        self.decision = decision;
    }

    /// Bytes of the decision section (canonical = encoded: one layout).
    pub fn decision_size(&self) -> usize {
        self.decision.map_or(0, |t| t.wire_size())
    }

    /// Reshape a pooled frame for round 2, keeping buffer capacity.
    pub fn begin_round2(&mut self) {
        self.clear();
        self.has_ghosts = true;
    }

    /// Reshape a pooled frame for a single-exchange rebuild step — the
    /// migrant and the ghost section travel together, and in a balancing
    /// run the load and decision round 1 would carry — keeping buffer
    /// capacity.
    pub fn begin_single(&mut self, load: Option<f64>, decision: Option<Transfer>) {
        self.begin_round1(load, decision);
        self.has_ghosts = true;
    }

    /// Reshape a pooled frame for a mid-epoch ghost refresh, keeping
    /// buffer capacity.
    pub fn begin_refresh(&mut self) {
        self.clear();
        self.has_refresh = true;
    }

    /// The frame's size given the sizes of its migrant section and its
    /// shell frame (canonical or encoded; the other parts have one size).
    fn size_with(&self, migrants: usize, shell: usize) -> usize {
        debug_assert!(!(self.has_ghosts && self.has_refresh));
        let m = if self.has_migrants { migrants } else { 0 };
        let g = if self.has_ghosts {
            shell
        } else if self.has_refresh {
            self.refresh.wire_size()
        } else {
            0
        };
        // migrant header + section, load Option, decision section (its
        // presence is a header bit), ghost header + section.
        1 + m + self.load.wire_size() + self.decision_size() + 1 + g
    }
}

impl WireSize for StepFrame {
    fn wire_size(&self) -> usize {
        self.size_with(self.migrants.wire_size(), self.ghosts.wire_size())
    }

    fn encoded_size(&self) -> usize {
        self.size_with(self.migrants.encoded_size(), self.ghosts.encoded_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer() -> Transfer {
        let col = pcdlb_domain::Col::new(5, 7);
        let decision = pcdlb_core::protocol::DlbDecision {
            col,
            from: 4,
            to: 0,
        };
        Transfer {
            decision,
            work: 0.125,
        }
    }

    fn shell(n: usize, off: f64) -> Vec<(u64, Vec3)> {
        (0..n)
            .map(|i| (i as u64 * 3, Vec3::new(i as f64 + off, off, 0.0)))
            .collect()
    }

    #[test]
    fn full_frame_roundtrip_on_fresh_channels() {
        let mut tx = DeltaChannel::default();
        let mut rx = DeltaChannel::default();
        let mut frame = GhostShellFrame::default();
        let content = shell(5, 0.0);
        tx.scratch.extend(content.iter().copied());
        tx.encode_into(true, &mut frame);
        assert!(!frame.delta, "fresh channel must send a full frame");
        assert_eq!(frame.wire_size(), frame.encoded_size());
        let mut out = Vec::new();
        rx.decode_into(&frame, &mut out).expect("in sync");
        assert_eq!(out, content);
    }

    #[test]
    fn delta_roundtrip_with_moves_departures_and_arrivals() {
        let mut tx = DeltaChannel::default();
        let mut rx = DeltaChannel::default();
        let mut frame = GhostShellFrame::default();
        let mut out = Vec::new();
        tx.scratch.extend(shell(64, 0.0));
        tx.encode_into(true, &mut frame);
        rx.decode_into(&frame, &mut out).expect("in sync");
        // Step 2: ids 3,6,…,189 shift; id 0 departs; ids 1 and 500 arrive.
        let mut next: Vec<(u64, Vec3)> = shell(64, 0.25)[1..].to_vec();
        next.push((1, Vec3::new(9.0, 9.0, 9.0)));
        next.push((500, Vec3::new(2.0, 2.0, 2.0)));
        tx.scratch.extend(next.iter().copied());
        tx.encode_into(true, &mut frame);
        assert!(frame.delta);
        assert_eq!(frame.moved.len(), 63);
        assert_eq!(frame.arrivals.len(), 2);
        // Headers, a 64-bit bitmap, 65 positions, the arrivals' gaps 1
        // and 499: one survivor id byte saved per 24-byte position.
        assert_eq!(frame.encoded_size(), 37 + 8 + 24 * 65 + (1 + 2));
        // The delta is charged its content's full frame: 63 one-byte
        // gaps, the first id and the gap of 311 to id 500.
        assert_eq!(frame.wire_size(), 9 + (1 + 63 + 2) + 24 * 65);
        assert!(frame.encoded_size() < frame.wire_size());
        rx.decode_into(&frame, &mut out).expect("in sync");
        next.sort_unstable_by_key(|e| e.0);
        assert_eq!(out, next);
        let mut fresh = DeltaChannel::default();
        let mut full = GhostShellFrame::default();
        fresh.scratch.extend(next.iter().copied());
        fresh.encode_into(true, &mut full);
        assert!(!full.delta);
        assert_eq!(full.wire_size(), frame.wire_size());
    }

    #[test]
    fn empty_shells_ship_as_minimal_full_frames() {
        // An empty-to-empty delta would cost 37 bytes of section headers;
        // the min-size choice ships the 9-byte empty full frame instead.
        let mut tx = DeltaChannel::default();
        let mut rx = DeltaChannel::default();
        let mut frame = GhostShellFrame::default();
        let mut out = Vec::new();
        tx.encode_into(true, &mut frame);
        rx.decode_into(&frame, &mut out).expect("in sync");
        tx.encode_into(true, &mut frame);
        assert!(!frame.delta, "empty delta loses to empty full on size");
        assert_eq!(frame.encoded_size(), 9);
        rx.decode_into(&frame, &mut out).expect("in sync");
        assert!(out.is_empty());
    }

    #[test]
    fn total_turnover_ships_full_not_bloated_delta() {
        // Disjoint membership: every previous ghost departs, every new
        // one arrives. The delta (section headers + bitmap + the same
        // gap-encoded ghosts) would exceed the full frame, so the sender
        // must pick full.
        let mut tx = DeltaChannel::default();
        let mut rx = DeltaChannel::default();
        let mut frame = GhostShellFrame::default();
        let mut out = Vec::new();
        tx.scratch.extend(shell(8, 0.0));
        tx.encode_into(true, &mut frame);
        rx.decode_into(&frame, &mut out).expect("in sync");
        let next: Vec<(u64, Vec3)> = (0..8)
            .map(|i| (i as u64 * 3 + 1, Vec3::new(i as f64, 1.0, 2.0)))
            .collect();
        tx.scratch.extend(next.iter().copied());
        tx.encode_into(true, &mut frame);
        assert!(!frame.delta, "total turnover must fall back to full");
        rx.decode_into(&frame, &mut out).expect("in sync");
        assert_eq!(out, next);
    }

    #[test]
    fn reset_forces_full_fallback() {
        // The DLB-ownership-move fallback: an invalidated channel resends
        // a full frame and the receiver resynchronises off it.
        let mut tx = DeltaChannel::default();
        let mut rx = DeltaChannel::default();
        let mut frame = GhostShellFrame::default();
        let mut out = Vec::new();
        tx.scratch.extend(shell(4, 0.0));
        tx.encode_into(true, &mut frame);
        rx.decode_into(&frame, &mut out).expect("in sync");
        tx.reset();
        let content = shell(6, 0.5);
        tx.scratch.extend(content.iter().copied());
        tx.encode_into(true, &mut frame);
        assert!(!frame.delta, "reset channel must fall back to full");
        rx.decode_into(&frame, &mut out).expect("in sync");
        assert_eq!(out, content);
    }

    #[test]
    fn delta_disabled_always_sends_full() {
        let mut tx = DeltaChannel::default();
        let mut frame = GhostShellFrame::default();
        for k in 0..3 {
            tx.scratch.extend(shell(4, k as f64 * 0.1));
            tx.encode_into(false, &mut frame);
            assert!(!frame.delta);
        }
    }

    #[test]
    fn delta_against_wrong_membership_is_a_structured_error_and_resyncs() {
        let mut tx = DeltaChannel::default();
        let mut rx = DeltaChannel::default();
        let mut frame = GhostShellFrame::default();
        let mut out = Vec::new();
        tx.scratch.extend(shell(64, 0.0));
        tx.encode_into(true, &mut frame);
        rx.decode_into(&frame, &mut out).expect("in sync");
        // Receiver's membership record diverges (simulated corruption):
        // same length, different ids, so the fingerprint catches it.
        rx.poison_membership();
        tx.scratch.extend(shell(64, 0.1));
        tx.encode_into(true, &mut frame);
        assert!(frame.delta, "stable shell must have shipped a delta");
        let err = rx
            .decode_into(&frame, &mut out)
            .expect_err("fingerprint must catch the corruption");
        assert!(matches!(err, DesyncError::Fingerprint { .. }), "{err}");
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        assert!(out.is_empty(), "a failed decode must deliver nothing");
        // The failed decode reset the receive channel, so the next delta
        // is a Membership error (no previous frame held at all)...
        let err = rx
            .decode_into(&frame, &mut out)
            .expect_err("reset channel cannot take a delta");
        assert!(
            matches!(err, DesyncError::Membership { have: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("desynchronised"), "{err}");
        // ...and a full frame (what the resync request elicits from the
        // sender) heals the stream completely.
        tx.reset();
        let content = shell(64, 0.2);
        tx.scratch.extend(content.iter().copied());
        tx.encode_into(true, &mut frame);
        assert!(!frame.delta, "reset sender must fall back to full");
        rx.decode_into(&frame, &mut out)
            .expect("full frame resyncs");
        assert_eq!(out, content);
        // Back in steady state: deltas flow again.
        tx.scratch.extend(shell(64, 0.3));
        tx.encode_into(true, &mut frame);
        assert!(frame.delta);
        rx.decode_into(&frame, &mut out).expect("in sync again");
    }

    #[test]
    fn shell_frame_canonical_size_is_content_based() {
        // Gaps 0, 1, 127, 16384, 1 take 1 + 1 + 1 + 3 + 1 = 7 bytes.
        let content: Vec<(u64, Vec3)> = [0u64, 1, 128, 16512, 16513]
            .iter()
            .map(|&id| (id, Vec3::new(id as f64, 0.5, 0.25)))
            .collect();
        let mut tx = DeltaChannel::default();
        let mut rx = DeltaChannel::default();
        let mut frame = GhostShellFrame::default();
        let mut out = Vec::new();
        tx.scratch.extend(content.iter().copied());
        tx.encode_into(true, &mut frame);
        assert!(!frame.delta);
        assert_eq!(frame.wire_size(), 9 + 7 + 5 * 24);
        assert_eq!(frame.wire_size(), 136);
        assert_eq!(frame.encoded_size(), 136);
        rx.decode_into(&frame, &mut out).expect("in sync");
        // The same content as a delta against itself: every id survives,
        // so 5 positions travel behind 37 header bytes and a 1-byte
        // bitmap — larger than the full frame, which the min-size choice
        // therefore ships, but charged the same 136 bytes when it travels.
        tx.scratch.extend(content.iter().copied());
        tx.encode_as(true, &mut frame);
        assert!(frame.delta);
        assert_eq!(frame.wire_size(), 136);
        assert_eq!(frame.encoded_size(), 37 + 1 + 5 * 24);
        rx.decode_into(&frame, &mut out).expect("in sync");
        assert_eq!(out, content);
        tx.scratch.extend(content.iter().copied());
        tx.encode_into(true, &mut frame);
        assert!(!frame.delta, "a larger delta never ships");
        assert_eq!(frame.wire_size(), 136);
    }

    #[test]
    fn a_delta_ships_only_when_strictly_smaller_than_the_full_frame() {
        // n ids 200 apart, all surviving: the delta costs 28 bytes of
        // headers and a ⌈n/8⌉-byte bitmap where the full frame costs two
        // gap bytes per id. At n = 15 both take 399 bytes and the full
        // frame ships; at n = 16 the delta is 2 bytes smaller.
        for (n, delta) in [(15u64, false), (16, true)] {
            let content: Vec<(u64, Vec3)> = (1..=n)
                .map(|i| (i * 200, Vec3::new(i as f64, 0.0, 0.0)))
                .collect();
            let mut tx = DeltaChannel::default();
            let mut frame = GhostShellFrame::default();
            tx.scratch.extend(content.iter().copied());
            tx.encode_into(true, &mut frame);
            let full = frame.encoded_size();
            assert_eq!(full, 9 + 2 * n as usize + 24 * n as usize);
            tx.scratch.extend(content.iter().copied());
            tx.encode_into(true, &mut frame);
            assert_eq!(frame.delta, delta, "n = {n}");
            let as_delta = 37 + (n as usize).div_ceil(8) + 24 * n as usize;
            assert_eq!(frame.encoded_size(), full.min(as_delta));
            assert_eq!(frame.wire_size(), full);
        }
    }

    #[test]
    fn step_frame_sections_toggle_their_bytes() {
        let mut f = StepFrame::default();
        f.begin_round1(None, None);
        assert_eq!(f.wire_size(), 1 + 8 + 1 + 1); // header + empty migrants + None + header
        f.begin_round1(Some(0.25), None);
        assert_eq!(f.wire_size(), 1 + 8 + 9 + 1);
        f.migrants
            .parts
            .push(pcdlb_md::Particle::at_rest(0, Vec3::ZERO));
        assert_eq!(f.wire_size(), 1 + 8 + 56 + 9 + 1);
        // A decision costs its section and nothing else: the presence bit
        // rides the migrant header.
        f.begin_round1(Some(0.25), Some(transfer()));
        assert_eq!(f.decision_size(), 16 + 8 + 8 + 8);
        assert_eq!(f.wire_size(), 1 + 8 + 9 + 40 + 1);
        assert_eq!(f.wire_size(), f.encoded_size());
        f.begin_round2();
        assert_eq!(f.wire_size(), 1 + 1 + 1 + (1 + 8));
        assert_eq!(f.wire_size(), f.encoded_size());
        f.begin_refresh();
        assert_eq!(f.wire_size(), 1 + 1 + 1 + (1 + 8));
        f.refresh.pos.extend([Vec3::ZERO; 3]);
        assert_eq!(f.wire_size(), 1 + 1 + 1 + (1 + 8 + 24 * 3));
        assert_eq!(f.wire_size(), f.encoded_size());
    }

    #[test]
    fn refresh_round_trips_through_a_pooled_frame_and_checks_its_length() {
        // A pooled frame last used for a shell frame is reshaped for the
        // refresh: nothing of the old sections travels, the positions
        // come back in send order, and a receiver whose routes cover a
        // different number of ghosts gets a typed error, not a prefix.
        let mut tx = DeltaChannel::default();
        let mut f = StepFrame::default();
        f.begin_round2();
        tx.scratch.extend(shell(5, 0.0));
        tx.encode_into(true, &mut f.ghosts);
        f.begin_refresh();
        assert!(!f.has_ghosts && !f.has_migrants && f.ghosts.content_len() == 0);
        let sent: Vec<Vec3> = shell(5, 0.25).into_iter().map(|e| e.1).collect();
        f.refresh.pos.extend(sent.iter().copied());
        assert_eq!(
            f.refresh.positions_for(5).expect("lengths agree"),
            &sent[..]
        );
        let err = f.refresh.positions_for(0).expect_err("no routes recorded");
        assert_eq!(err, DesyncError::Refresh { have: 0, framed: 5 });
        assert!(err.to_string().contains("routes cover 0"), "{err}");
        // And back: a refresh frame reshaped for round 1 carries none of
        // it, and brings its decision out as it went in; the next use of
        // the pooled frame carries that decision no further.
        f.begin_round1(Some(1.5), Some(transfer()));
        assert!(!f.has_refresh && f.refresh.pos.is_empty());
        assert_eq!((f.load, f.decision), (Some(1.5), Some(transfer())));
        f.begin_round2();
        assert_eq!((f.load, f.decision), (None, None));
    }
}
