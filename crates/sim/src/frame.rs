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
//! # Ghost shell frames
//!
//! Ghosts ship as `(id, position)` pairs only ([`GhostPart`]): force
//! evaluation never reads a ghost's velocity, so the 24 velocity bytes of
//! a full `Particle` never cross the wire. There is no column or block
//! directory either — the receiver re-bins each ghost by its position,
//! which also makes empty-cell traffic vanish structurally. As in the
//! paper, every rebuild step ships the whole shell: a
//! [`GhostShellFrame`] has one layout — a kind byte, a length prefix,
//! the ids in ascending order as unsigned LEB128 gaps (the first id raw,
//! then each id minus the one before, 7 value bits per byte), then the
//! positions, 24 bytes each. A ghost whose id follows its predecessor's
//! by less than 128 costs 25 bytes, one that follows by less than 16384
//! costs 26. [`DeltaChannel`] is the per-neighbour codec that stages a
//! shell and packs it into a frame; the name and its ignored `bool`
//! survive from a delta layout the frozen benchmark's probe still spells.
//!
//! # The frozen-epoch refresh
//!
//! With `skin > 0` the binning, ownership and shell membership are
//! frozen between rebuild steps, and the rebuild schedule is replicated
//! state: both ends of a link know, without exchanging a byte, that a
//! mid-epoch frame holds exactly the ghosts of the last rebuild frame.
//! Such a frame therefore carries positions only ([`GhostRefresh`], 24
//! bytes per ghost, no ids) in the order the sender packs its frozen
//! shell cells — ascending (column, z cell, id), which the receiver
//! reproduces from its own frozen ghost slabs.
//!
//! # One size per payload
//!
//! [`WireSize::wire_size`] is both what the interconnect cost model
//! charges and what the `WireBytes` counters add up: `1 + 8 + Σ
//! leb128(gap) + 24·n` for a shell frame holding `n` ghosts, `1 + 8 +
//! 24·n` for a refresh. Virtual time feeds `t_step` and the run digests,
//! so the size is a function of content only.
//!
//! `wire_check.rs` pins every layout against a reference encoder.

use std::convert::Infallible;

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

/// One boundary-shell ghost shipment: the shell's `(id, pos)` list.
#[derive(Debug, Clone, Default)]
pub struct GhostShellFrame {
    /// The shell content, ascending id.
    pub parts: Vec<GhostPart>,
}

impl WireSize for GhostShellFrame {
    fn wire_size(&self) -> usize {
        // Kind byte, length prefix, id gaps, positions.
        1 + 8 + gap_bytes(self.parts.iter().map(|g| g.id)) + 24 * self.parts.len()
    }
}

/// The positions-only ghost refresh of a frozen skin epoch: the new
/// position of every ghost of the last rebuild frame on this link, in
/// the sender's pack order (see the module docs). On the wire it is the
/// ghost section's second kind — kind byte, then the length-prefixed
/// positions.
#[derive(Debug, Clone, Default)]
pub struct GhostRefresh {
    /// One position per ghost of the frozen shell.
    pub pos: Vec<Vec3>,
}

impl WireSize for GhostRefresh {
    fn wire_size(&self) -> usize {
        // Section kind byte + length-prefixed positions.
        1 + 8 + 24 * self.pos.len()
    }
}

/// The ghost-shell codec of one neighbour: callers stage the shell in
/// `scratch`, [`DeltaChannel::encode_into`] packs it into a frame and
/// [`DeltaChannel::decode_into`] unpacks one. It holds no stream state,
/// so nothing can fall out of step between the two ends.
#[derive(Debug, Default)]
pub struct DeltaChannel {
    /// Encode-side staging: callers push the current shell content here
    /// (any order) before [`DeltaChannel::encode_into`].
    pub scratch: Vec<(u64, Vec3)>,
}

impl DeltaChannel {
    /// Pack the staged `scratch` content into `frame`, ascending id.
    /// `scratch` is sorted in place and drained. The `bool` is ignored:
    /// there is one layout.
    pub fn encode_into(&mut self, _: bool, frame: &mut GhostShellFrame) {
        self.scratch.sort_unstable_by_key(|e| e.0);
        debug_assert!(
            self.scratch.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate ghost id staged on a shell codec"
        );
        let staged = self.scratch.drain(..);
        frame.parts.clear();
        frame
            .parts
            .extend(staged.map(|(id, pos)| GhostPart { id, pos }));
    }

    /// Unpack `frame` into `out` as `(id, pos)` in ascending id order.
    /// Every frame decodes.
    pub fn decode_into(
        &mut self,
        frame: &GhostShellFrame,
        out: &mut Vec<(u64, Vec3)>,
    ) -> Result<(), Infallible> {
        out.clear();
        out.extend(frame.parts.iter().map(|g| (g.id, g.pos)));
        Ok(())
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
    /// Particles that crossed into the destination's columns, id-sorted.
    pub migrants: ParticleFrame,
    /// Sender's last-step load; `Some` in every round-1 and single frame
    /// of a balancing run.
    pub load: Option<f64>,
    /// The sender's balancer decision for this step, taken before the
    /// frame was packed, with the work that moves with it; `Some` only in
    /// the first frame of a DLB step on which the sender gives a cell away. Its
    /// presence rides bit 1 of the migrant presence header byte, so a
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
        self.migrants.parts.clear();
        self.load = None;
        self.decision = None;
        self.has_ghosts = false;
        self.ghosts.parts.clear();
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

    /// Bytes of the decision section.
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
}

impl WireSize for StepFrame {
    fn wire_size(&self) -> usize {
        debug_assert!(!(self.has_ghosts && self.has_refresh));
        let m = if self.has_migrants {
            self.migrants.wire_size()
        } else {
            0
        };
        let g = if self.has_ghosts {
            self.ghosts.wire_size()
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
    fn a_shell_round_trips_in_ascending_id_order_at_its_gap_charge() {
        // Staged out of order; gaps 0, 1, 127, 16384, 1 take 1 + 1 + 1 +
        // 3 + 1 = 7 bytes.
        let content: Vec<(u64, Vec3)> = [16512u64, 0, 128, 16513, 1]
            .iter()
            .map(|&id| (id, Vec3::new(id as f64, 0.5, 0.25)))
            .collect();
        let (mut tx, mut rx) = (DeltaChannel::default(), DeltaChannel::default());
        let mut frame = GhostShellFrame::default();
        let mut out = Vec::new();
        tx.scratch.extend(content.iter().copied());
        tx.encode_into(true, &mut frame);
        assert!(tx.scratch.is_empty(), "the staging is drained");
        assert_eq!(frame.wire_size(), 9 + 7 + 5 * 24);
        let Ok(()) = rx.decode_into(&frame, &mut out);
        let mut sorted = content;
        sorted.sort_unstable_by_key(|e| e.0);
        assert_eq!(out, sorted);
        // A pooled frame refilled with an empty shell is the 9-byte
        // empty frame, and decodes to nothing.
        tx.encode_into(false, &mut frame);
        assert_eq!(frame.wire_size(), 9);
        let Ok(()) = rx.decode_into(&frame, &mut out);
        assert!(out.is_empty());
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
        f.begin_round2();
        assert_eq!(f.wire_size(), 1 + 1 + 1 + (1 + 8));
        f.begin_refresh();
        assert_eq!(f.wire_size(), 1 + 1 + 1 + (1 + 8));
        f.refresh.pos.extend([Vec3::ZERO; 3]);
        assert_eq!(f.wire_size(), 1 + 1 + 1 + (1 + 8 + 24 * 3));
    }

    #[test]
    fn a_pooled_frame_reshaped_for_a_refresh_carries_only_the_positions() {
        // A pooled frame last used for a shell frame is reshaped for the
        // refresh: nothing of the old sections travels, and the positions
        // come back in send order.
        let mut tx = DeltaChannel::default();
        let mut f = StepFrame::default();
        f.begin_round2();
        tx.scratch.extend(shell(5, 0.0));
        tx.encode_into(true, &mut f.ghosts);
        f.begin_refresh();
        assert!(!f.has_ghosts && !f.has_migrants && f.ghosts.parts.is_empty());
        let sent: Vec<Vec3> = shell(5, 0.25).into_iter().map(|e| e.1).collect();
        f.refresh.pos.extend(sent.iter().copied());
        assert_eq!(f.refresh.pos, sent);
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
