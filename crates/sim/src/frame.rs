//! Flat framed message payloads for the steady-state hot path.
//!
//! The exchange phases ship pooled *frames* instead of nested payloads:
//! frames are `Default + Send + Sync`, live in a [`pcdlb_mp::BufferPool`]
//! across steps, and are refilled in place, so the hot path allocates
//! nothing in steady state.
//!
//! # The staged step frame
//!
//! A step's neighbourhood exchange travels the rank torus one axis at a
//! time (see `pe::exchange`): a rank sends one [`StepFrame`] per hop
//! under the single `tags::STEP_FRAME` tag — to each distinct rank one
//! torus step away along the stage's axis — and relays, in its later
//! stages, what the earlier ones brought for ranks further on. A frame is
//! a list of *sections* per kind. Each section says which final
//! destinations its items are for (a mask of offsets from the origin,
//! only destinations behind the hop the section took out of its origin)
//! and which rank they come from, so an item several ranks need crosses
//! each link once, and a relay copies a section it passes on verbatim.
//!
//! The kinds: *migrants* (particles for their new owner; on a two-round
//! rebuild step round 1, and on a single-exchange rebuild step the frame
//! that also carries the ghosts), *loads* (a balancing run's load, and the
//! decision taken at the top of the step with the work that moves with
//! it, from each origin to every neighbour), *ghosts* (the boundary shell)
//! and, between the rebuilds of a skin epoch, *refresh* (the frozen
//! shell's new positions). A kind with no section costs nothing but its
//! bit in the frame's presence byte.
//!
//! # Ghost sections
//!
//! Ghosts ship as `(id, position)` pairs only ([`GhostPart`]): force
//! evaluation never reads a ghost's velocity, so the 24 velocity bytes of
//! a full `Particle` never cross the wire. There is no column or block
//! directory either — the receiver re-bins each ghost by its position,
//! which also makes empty-cell traffic vanish structurally. As in the
//! paper, every rebuild step ships the whole shell, in one layout: the
//! ids in ascending order as unsigned LEB128 gaps (the first id raw,
//! then each id minus the one before, 7 value bits per byte), then the
//! positions, 24 bytes each. [`DeltaChannel`] stages a section's shell
//! and packs it; the name and its ignored `bool` survive from a delta
//! layout the frozen benchmark's probe still spells, which times it on a
//! [`GhostShellFrame`].
//!
//! # The frozen-epoch refresh
//!
//! With `skin > 0` the binning, ownership and shell membership are
//! frozen between rebuild steps, and the rebuild schedule is replicated
//! state: both ends know, without exchanging a byte, that a mid-epoch
//! section holds exactly the ghosts the owner's section of the same mask
//! held at the last rebuild. It therefore carries positions only, 24
//! bytes per ghost, no ids, in the order the owner packs its frozen
//! shell cells — ascending (column, z cell, id), which the receiver
//! reproduces from its own frozen ghost slabs.
//!
//! # One size per payload
//!
//! [`WireSize::wire_size`] is both what the interconnect cost model
//! charges and what the `WireBytes` counters add up. A frame is its
//! presence byte, then per kind present a LEB128 section count and the
//! sections; a section is its LEB128 mask and origin, then its body — a
//! LEB128 count and 56 bytes per migrant; the load (8 bytes), a decision
//! flag byte and the decision; a LEB128 count, the id gaps and 24 bytes
//! per ghost; a LEB128 count and 24 bytes per refreshed position.
//! Virtual time feeds `t_step` and the run digests, so the size is a
//! function of content only.
//!
//! `wire_check.rs` pins every layout against a reference encoder and
//! decoder.

use std::convert::Infallible;

use pcdlb_core::protocol::Transfer;
use pcdlb_md::{Particle, Vec3};
use pcdlb_mp::WireSize;

/// One ghost particle on the wire: id + position. Velocities are never
/// read from ghosts, so they never travel. A ghost has no size of its
/// own: its id travels as the gap to the id before it in its section, 1
/// to 10 bytes, beside its 24-byte position.
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

/// A shell packed on its own, ascending id: what the codec probe of the
/// frozen benchmark times. The exchange packs its shells straight into
/// the ghost sections of a [`StepFrame`].
#[derive(Debug, Clone, Default)]
pub struct GhostShellFrame {
    /// The shell content, ascending id.
    pub parts: Vec<GhostPart>,
}

/// A ghost-shell codec: callers stage a shell in `scratch`,
/// [`DeltaChannel::pack_into`] sorts it into a section (or
/// [`DeltaChannel::encode_into`] into a frame of its own) and
/// [`DeltaChannel::decode_into`] unpacks one. It holds no stream state,
/// so nothing can fall out of step between the two ends.
#[derive(Debug, Default)]
pub struct DeltaChannel {
    /// Encode-side staging: callers push the current shell content here
    /// (any order) before packing it.
    pub scratch: Vec<(u64, Vec3)>,
}

impl DeltaChannel {
    /// Append the staged `scratch` content to `out`, ascending id.
    /// `scratch` is sorted in place and drained.
    pub fn pack_into(&mut self, out: &mut Vec<GhostPart>) {
        self.scratch.sort_unstable_by_key(|e| e.0);
        debug_assert!(
            self.scratch.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate ghost id staged on a shell codec"
        );
        let staged = self.scratch.drain(..);
        out.extend(staged.map(|(id, pos)| GhostPart { id, pos }));
    }

    /// Pack the staged `scratch` content into `frame`, ascending id. The
    /// `bool` is ignored: there is one layout.
    pub fn encode_into(&mut self, _: bool, frame: &mut GhostShellFrame) {
        frame.parts.clear();
        self.pack_into(&mut frame.parts);
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

/// A flat particle shipment (a re-tile's columns): identical wire bytes
/// to the `Vec<Particle>` it replaces, but poolable and refillable in
/// place.
#[derive(Debug, Clone, Default)]
pub struct ParticleFrame {
    /// The particles, id-sorted.
    pub parts: Vec<Particle>,
}

/// Wire bytes of one particle: id, position, velocity.
fn particle_size() -> usize {
    Particle::at_rest(0, Vec3::ZERO).wire_size()
}

impl ParticleFrame {
    /// What a frame of `n` particles weighs on the wire, without building
    /// it: a length prefix and `n` particles.
    pub(crate) fn wire_size_of(n: usize) -> usize {
        8 + n * particle_size()
    }
}

impl WireSize for ParticleFrame {
    fn wire_size(&self) -> usize {
        Self::wire_size_of(self.parts.len())
    }
}

/// A section's header, and where its items lie in its list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionHead {
    /// The final destinations of the items: a bit per offset from
    /// `origin`, only offsets behind the hop the section took out of its
    /// origin (see `pe::topology::dest_bit`).
    pub mask: u32,
    /// The rank the items come from.
    pub origin: usize,
    start: usize,
    end: usize,
}

impl SectionHead {
    /// Header bytes: the LEB128 mask and origin.
    fn size(mask: u32, origin: usize) -> usize {
        leb128_len(u64::from(mask)) + leb128_len(origin as u64)
    }
}

/// The sections of one kind in a frame, over one flat item list — so a
/// pooled frame refilled in place reuses every buffer.
#[derive(Debug, Clone)]
pub struct Sections<T> {
    heads: Vec<SectionHead>,
    items: Vec<T>,
}

impl<T> Default for Sections<T> {
    fn default() -> Self {
        Self {
            heads: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<T: Clone> Sections<T> {
    /// Open a section of `mask` from `origin`, let `fill` append its
    /// items, and keep it if it has any: an empty section does not
    /// travel.
    pub fn push(&mut self, mask: u32, origin: usize, fill: impl FnOnce(&mut Vec<T>)) {
        let start = self.items.len();
        fill(&mut self.items);
        let end = self.items.len();
        if end > start {
            self.heads.push(SectionHead {
                mask,
                origin,
                start,
                end,
            });
        }
    }

    /// A relay's copy of a section it passes on: header and items
    /// verbatim.
    pub fn copy(&mut self, head: &SectionHead, items: &[T]) {
        self.push(head.mask, head.origin, |out| out.extend_from_slice(items));
    }

    /// The sections, in the order they were pushed.
    pub fn iter(&self) -> impl Iterator<Item = (&SectionHead, &[T])> {
        self.heads.iter().map(|h| (h, &self.items[h.start..h.end]))
    }

    /// No section.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.items.clear();
    }

    /// Bytes of the list: nothing without a section, else the LEB128
    /// section count and each section's bytes ([`section_size`]).
    fn size(&self, body: impl Fn(&[T]) -> usize) -> usize {
        if self.is_empty() {
            return 0;
        }
        let sections = self.iter().map(|(h, items)| section_size(h, items, &body));
        leb128_len(self.heads.len() as u64) + sections.sum::<usize>()
    }
}

/// Bytes of one section: its header, the LEB128 count of its items and
/// their `body`.
fn section_size<T>(head: &SectionHead, items: &[T], body: impl Fn(&[T]) -> usize) -> usize {
    SectionHead::size(head.mask, head.origin) + leb128_len(items.len() as u64) + body(items)
}

/// Bytes of a migrant section.
pub(crate) fn migrant_section_size(head: &SectionHead, parts: &[Particle]) -> usize {
    section_size(head, parts, |p| p.len() * particle_size())
}

/// Bytes of a ghost section.
pub(crate) fn ghost_section_size(head: &SectionHead, parts: &[GhostPart]) -> usize {
    section_size(head, parts, ghost_body)
}

/// Bytes of a refresh section.
pub(crate) fn refresh_section_size(head: &SectionHead, pos: &[Vec3]) -> usize {
    section_size(head, pos, |p| 24 * p.len())
}

/// A ghost section's ids as gaps and its positions.
fn ghost_body(parts: &[GhostPart]) -> usize {
    gap_bytes(parts.iter().map(|g| g.id)) + 24 * parts.len()
}

/// A balancing run's load from one origin — measured by its last force
/// pass, with what landed at the top of the step booked — and the
/// decision it took at the top of the step, for every neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSection {
    /// The final destinations, as in [`SectionHead::mask`].
    pub mask: u32,
    /// The rank whose load it is.
    pub origin: usize,
    /// The load.
    pub load: f64,
    /// The origin's decision, with the work that moves with it.
    pub decision: Option<Transfer>,
}

impl LoadSection {
    fn decision_size(&self) -> usize {
        self.decision.map_or(0, |t| t.wire_size())
    }

    /// Bytes of the section: header, load, decision flag byte, decision.
    pub(crate) fn size(&self) -> usize {
        SectionHead::size(self.mask, self.origin) + 8 + 1 + self.decision_size()
    }
}

/// The per-hop step message: the sections of each kind that take the
/// hop — this PE's own and the ones it relays.
#[derive(Debug, Clone, Default)]
pub struct StepFrame {
    /// Particles for their new owner, id-sorted per section.
    pub migrants: Sections<Particle>,
    /// Loads and decisions.
    pub loads: Vec<LoadSection>,
    /// Boundary-shell ghosts, ascending id per section.
    pub ghosts: Sections<GhostPart>,
    /// New positions of the frozen shell's ghosts.
    pub refresh: Sections<Vec3>,
}

impl StepFrame {
    /// Empty every section, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.migrants.clear();
        self.loads.clear();
        self.ghosts.clear();
        self.refresh.clear();
    }

    /// Bytes of the migrant list.
    pub fn migrant_size(&self) -> usize {
        self.migrants.size(|parts| parts.len() * particle_size())
    }

    /// Bytes of the load list, decisions included.
    pub fn load_size(&self) -> usize {
        if self.loads.is_empty() {
            return 0;
        }
        leb128_len(self.loads.len() as u64)
            + self.loads.iter().map(LoadSection::size).sum::<usize>()
    }

    /// Bytes of the decisions alone.
    pub fn decision_size(&self) -> usize {
        self.loads.iter().map(LoadSection::decision_size).sum()
    }

    /// Bytes of the ghost and refresh lists.
    pub fn ghost_size(&self) -> usize {
        self.ghosts.size(ghost_body) + self.refresh.size(|pos| 24 * pos.len())
    }
}

impl WireSize for StepFrame {
    fn wire_size(&self) -> usize {
        // The presence byte, then each kind's list.
        1 + self.migrant_size() + self.load_size() + self.ghost_size()
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

    fn staged(ids: &[u64]) -> DeltaChannel {
        let mut tx = DeltaChannel::default();
        (tx.scratch).extend(ids.iter().map(|&id| (id, Vec3::new(id as f64, 0.5, 0.25))));
        tx
    }

    #[test]
    fn a_shell_round_trips_in_ascending_id_order_at_its_gap_charge() {
        // Staged out of order; gaps 0, 1, 127, 16384, 1 take 1 + 1 + 1 +
        // 3 + 1 = 7 bytes; mask 2 and origin 3 one byte each, the count
        // one more.
        let ids = [16512u64, 0, 128, 16513, 1];
        let mut tx = staged(&ids);
        let mut f = StepFrame::default();
        f.ghosts.push(2, 3, |out| tx.pack_into(out));
        assert!(tx.scratch.is_empty(), "the staging is drained");
        assert_eq!(f.ghost_size(), 1 + (1 + 1 + 1) + 7 + 5 * 24);
        assert_eq!(f.wire_size(), 1 + f.ghost_size());
        let (head, parts) = f.ghosts.iter().next().expect("one section");
        assert_eq!((head.mask, head.origin), (2, 3));
        let got: Vec<u64> = parts.iter().map(|g| g.id).collect();
        assert_eq!(got, [0, 1, 128, 16512, 16513]);
        // The probe's frame of its own decodes to the same.
        let mut tx = staged(&ids);
        let mut frame = GhostShellFrame::default();
        tx.encode_into(true, &mut frame);
        let mut out = Vec::new();
        let Ok(()) = DeltaChannel::default().decode_into(&frame, &mut out);
        assert_eq!(out.iter().map(|e| e.0).collect::<Vec<_>>(), got);
        // An empty shell opens no section.
        f.clear();
        f.ghosts
            .push(2, 3, |out| DeltaChannel::default().pack_into(out));
        assert!(f.ghosts.is_empty());
        assert_eq!(f.wire_size(), 1);
    }

    #[test]
    fn step_frame_sections_toggle_their_bytes() {
        let mut f = StepFrame::default();
        assert_eq!(f.wire_size(), 1); // the presence byte
        let p = pcdlb_md::Particle::at_rest(0, Vec3::ZERO);
        f.migrants.push(1 << 9, 300, |out| out.push(p));
        // Count, mask (2 bytes), origin (2), count, particle.
        assert_eq!(f.migrant_size(), 1 + 2 + 2 + 1 + 56);
        f.loads.push(LoadSection {
            mask: 2,
            origin: 1,
            load: 0.25,
            decision: None,
        });
        assert_eq!(f.load_size(), 1 + 1 + 1 + 8 + 1);
        // A decision costs its bytes and nothing else: its presence rides
        // the flag byte.
        f.loads[0].decision = Some(transfer());
        assert_eq!(f.decision_size(), 16 + 8 + 8 + 8);
        assert_eq!(f.load_size(), 1 + 1 + 1 + 8 + 1 + 40);
        f.refresh.push(2, 1, |out| out.extend([Vec3::ZERO; 3]));
        f.refresh.push(4, 1, |out| out.push(Vec3::ZERO));
        assert_eq!(f.ghost_size(), 1 + (3 + 24 * 3) + (3 + 24));
        assert_eq!(
            f.wire_size(),
            1 + f.migrant_size() + f.load_size() + f.ghost_size()
        );
    }

    #[test]
    fn a_relayed_section_is_its_origins_verbatim_and_a_cleared_frame_carries_nothing() {
        let mut tx = staged(&[3, 9, 4]);
        let mut first = StepFrame::default();
        first.ghosts.push(6, 2, |out| tx.pack_into(out));
        first.ghosts.push(8, 2, |out| {
            out.push(GhostPart {
                id: 1,
                pos: Vec3::ZERO,
            })
        });
        let mut relay = StepFrame::default();
        for (head, parts) in first.ghosts.iter() {
            relay.ghosts.copy(head, parts);
        }
        let sections = |f: &StepFrame| -> Vec<(u32, usize, Vec<u64>)> {
            let s = f.ghosts.iter();
            s.map(|(h, p)| (h.mask, h.origin, p.iter().map(|g| g.id).collect()))
                .collect()
        };
        assert_eq!(sections(&relay), sections(&first));
        assert_eq!(relay.wire_size(), first.wire_size());
        relay.clear();
        assert!(relay.ghosts.is_empty() && relay.loads.is_empty());
        assert_eq!(relay.wire_size(), 1);
    }
}
