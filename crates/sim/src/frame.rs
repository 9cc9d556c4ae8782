//! The step frame: the one layout a neighbourhood exchange travels in.
//!
//! A rank builds each outgoing frame in place — a [`StepFrame`] from a
//! [`pcdlb_mp::BufferPool`], refilled every step, its sections already in
//! their wire form — and [`StepFrame::encode_into`] writes it into the
//! message payload. The receiver decodes the payload into retained
//! buffers ([`Received::decode`]), checking every byte against what it
//! knows of the hop the frame came over. Nothing allocates in the steady
//! state.
//!
//! # The staged step frame
//!
//! A step's neighbourhood exchange travels the rank torus one axis at a
//! time (see `pe::exchange`): a rank sends one frame per hop under the
//! single `tags::STEP_FRAME` tag — to each distinct rank one torus step
//! away along the stage's axis — and relays, in its later stages, what
//! the earlier ones brought for ranks further on. A frame is a list of
//! *sections* per kind. Each section says which final destinations its
//! items are for (a mask of offsets from the origin, only destinations
//! behind the hop the section took out of its origin) and which rank they
//! come from, so an item several ranks need crosses each link once, and a
//! relay copies the byte range of a section it passes on verbatim
//! ([`StepFrame::relay`]).
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
//! Ghosts ship as `(id, position)` pairs only: force evaluation never
//! reads a ghost's velocity, so the 24 velocity bytes of a full
//! `Particle` never cross the wire. There is no column or block directory
//! either — the receiver re-bins each ghost by its position, which also
//! makes empty-cell traffic vanish structurally. As in the paper, every
//! rebuild step ships the whole shell, in one layout: the ids in
//! ascending order as unsigned LEB128 gaps (the first id raw, then each
//! id minus the one before, 7 value bits per byte), then the positions,
//! 24 bytes each. [`DeltaChannel`] stages a section's shell and packs it;
//! the name and its ignored `bool` survive from a delta layout the frozen
//! benchmark's probe still spells, which times the same codec on a
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
//! # The bytes
//!
//! A frame is its presence byte (bit 0 migrants, 1 loads, 2 ghosts, 3
//! refresh), then per kind present a LEB128 section count and the
//! sections. A section is its LEB128 mask and origin, then its body — a
//! LEB128 count and the migrants (id, position, velocity: 56 bytes); the
//! load (8 bytes), a decision flag byte and the decision (40); a LEB128
//! count, the id gaps and the positions; a LEB128 count and the refreshed
//! positions. Scalars are `pcdlb_mp::wire`'s. The payload's length is what
//! the cost model charges and the `WireBytes` counters add up; virtual
//! time feeds `t_step` and the run digests, so it is a function of
//! content only.

use std::ops::Range;

use pcdlb_core::protocol::Transfer;
use pcdlb_md::{Particle, Vec3};
use pcdlb_mp::wire::{put_leb128, Decode, DecodeError, Encode, Reader};

use crate::pe::{ahead, behind_first_hop, bit_offset, dest_bit, RankTorus};

/// The kinds, in frame order: each one's list index and presence bit.
const MIGRANTS: usize = 0;
const LOADS: usize = 1;
const GHOSTS: usize = 2;
const REFRESH: usize = 3;

/// Write a shell — `(id, position)` pairs, strictly ascending id — as a
/// ghost body: the LEB128 count, the ids as gaps, the positions.
fn put_shell(ghosts: &[(u64, Vec3)], out: &mut Vec<u8>) {
    put_leb128(ghosts.len() as u64, out);
    let mut prev = 0;
    for &(id, _) in ghosts {
        debug_assert!(id >= prev, "ghost ids must ascend");
        put_leb128(id - prev, out);
        prev = id;
    }
    for (_, pos) in ghosts {
        pos.encode(out);
    }
}

/// Read the `n` ghosts of a body whose count has been read, appending
/// them to `out` — a gap byte and a 24-byte position each at least, so a
/// count the bytes left cannot hold reserves nothing.
fn read_shell(r: &mut Reader, n: u64, out: &mut Vec<(u64, Vec3)>) -> Result<(), FrameError> {
    out.reserve(r.fits(n, 1 + 24)?);
    let first = out.len();
    let mut id = 0u64;
    for index in 0..n {
        let gap = r.leb128()?;
        if index > 0 && gap == 0 {
            return Err(FrameError::ZeroGap { index });
        }
        id = id.checked_add(gap).ok_or(DecodeError::Overflow)?;
        out.push((id, Vec3::ZERO));
    }
    for ghost in &mut out[first..] {
        ghost.1 = Vec3::decode(r)?;
    }
    Ok(())
}

/// A shell packed on its own — a ghost section's body: what the codec
/// probe of the frozen benchmark times. The exchange packs its shells
/// straight into the ghost sections of a [`StepFrame`].
#[derive(Debug, Clone, Default)]
pub struct GhostShellFrame {
    /// The encoded shell: count, id gaps, positions.
    pub bytes: Vec<u8>,
}

/// A ghost-shell codec: callers stage a shell in `scratch`,
/// [`DeltaChannel::pack_into`] sorts it into a section of a frame (or
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
    /// Sort the staged shell by id and drain it into a ghost section of
    /// `frame`, from `origin` for `mask`; an empty shell opens none.
    pub fn pack_into(&mut self, frame: &mut StepFrame, mask: u32, origin: usize) {
        self.sort();
        if !self.scratch.is_empty() {
            put_shell(&self.scratch, frame.open(GHOSTS, mask, origin));
        }
        self.scratch.clear();
    }

    /// Encode the staged `scratch` content into `frame`, ascending id.
    /// The `bool` is ignored: there is one layout.
    pub fn encode_into(&mut self, _: bool, frame: &mut GhostShellFrame) {
        self.sort();
        frame.bytes.clear();
        put_shell(&self.scratch, &mut frame.bytes);
        self.scratch.clear();
    }

    /// Decode `frame` into `out` as `(id, pos)` in ascending id order.
    pub fn decode_into(
        &mut self,
        frame: &GhostShellFrame,
        out: &mut Vec<(u64, Vec3)>,
    ) -> Result<(), FrameError> {
        out.clear();
        let mut r = Reader::new(&frame.bytes);
        let n = r.leb128()?;
        read_shell(&mut r, n, out)?;
        match r.remaining() {
            0 => Ok(()),
            bytes => Err(DecodeError::Trailing { bytes }.into()),
        }
    }

    fn sort(&mut self) {
        self.scratch.sort_unstable_by_key(|e| e.0);
        debug_assert!(
            self.scratch.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate ghost id staged on a shell codec"
        );
    }
}

/// One kind's sections in an outgoing frame: how many, and their bytes.
#[derive(Debug, Clone, Default)]
struct List {
    sections: u64,
    bytes: Vec<u8>,
}

/// The per-hop step message as it is built: the sections of each kind
/// that take the hop — this PE's own and the ones it relays — each kind's
/// in its wire form.
#[derive(Debug, Clone, Default)]
pub struct StepFrame {
    lists: [List; 4],
    /// Bytes of the decisions among the load sections.
    decision_bytes: usize,
}

/// What a frame's encoding took, by what it carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameBytes {
    /// The presence byte.
    pub presence: usize,
    /// The migrant list.
    pub migrants: usize,
    /// The load list, decisions included.
    pub loads: usize,
    /// The decisions alone.
    pub decisions: usize,
    /// The ghost and refresh lists.
    pub ghosts: usize,
}

impl StepFrame {
    /// Empty every list, keeping buffer capacity.
    pub fn clear(&mut self) {
        for list in &mut self.lists {
            list.sections = 0;
            list.bytes.clear();
        }
        self.decision_bytes = 0;
    }

    /// Open a section of kind `kind`, from `origin` for `mask`: its header
    /// is written, its body goes into the returned bytes.
    fn open(&mut self, kind: usize, mask: u32, origin: usize) -> &mut Vec<u8> {
        let list = &mut self.lists[kind];
        list.sections += 1;
        put_leb128(u64::from(mask), &mut list.bytes);
        put_leb128(origin as u64, &mut list.bytes);
        &mut list.bytes
    }

    /// A migrant section: `parts`, from `origin` for `mask`. An empty
    /// section does not travel.
    pub fn push_migrants(&mut self, mask: u32, origin: usize, parts: &[Particle]) {
        if parts.is_empty() {
            return;
        }
        let out = self.open(MIGRANTS, mask, origin);
        put_leb128(parts.len() as u64, out);
        for p in parts {
            p.encode(out);
        }
    }

    /// A load section: a balancing run's `load` of `origin` — measured by
    /// its last force pass, with what landed at the top of the step
    /// booked — then the decision flag byte and the `decision` it took at
    /// the top of the step, with the work that moves with it.
    pub fn push_load(&mut self, mask: u32, origin: usize, load: f64, decision: Option<Transfer>) {
        let out = self.open(LOADS, mask, origin);
        load.encode(out);
        decision.is_some().encode(out);
        let at = out.len();
        if let Some(t) = &decision {
            t.encode(out);
        }
        self.decision_bytes += self.lists[LOADS].bytes.len() - at;
    }

    /// A refresh section: the `n` positions `pos` yields, from `origin`
    /// for `mask`. An empty section does not travel.
    pub fn push_refresh(
        &mut self,
        mask: u32,
        origin: usize,
        n: usize,
        pos: impl IntoIterator<Item = Vec3>,
    ) {
        if n == 0 {
            return;
        }
        let out = self.open(REFRESH, mask, origin);
        put_leb128(n as u64, out);
        let at = out.len();
        for p in pos {
            p.encode(out);
        }
        let written = out.len() - at;
        assert_eq!(written, n * 24, "a refresh section of {n} positions");
    }

    /// A relay's copy of a section it passes on: `raw`, the section's
    /// bytes in the frame that brought it (see [`SectionHead::raw`]),
    /// verbatim.
    pub fn relay(&mut self, head: &SectionHead, raw: &[u8]) {
        let list = &mut self.lists[head.kind];
        list.sections += 1;
        list.bytes.extend_from_slice(raw);
        self.decision_bytes += head.decision_bytes;
    }

    /// Write the frame to `out` — the presence byte, then each present
    /// kind's section count and sections — and report what each part
    /// took.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> FrameBytes {
        let start = out.len();
        let present = self.lists.iter().enumerate();
        out.push(present.fold(0, |k, (bit, l)| k | u8::from(l.sections > 0) << bit));
        let presence = out.len() - start;
        let mut took = [0; 4];
        for (kind, list) in self.lists.iter().enumerate() {
            if list.sections > 0 {
                let at = out.len();
                put_leb128(list.sections, out);
                out.extend_from_slice(&list.bytes);
                took[kind] = out.len() - at;
            }
        }
        FrameBytes {
            presence,
            migrants: took[MIGRANTS],
            loads: took[LOADS],
            decisions: self.decision_bytes,
            ghosts: took[GHOSTS] + took[REFRESH],
        }
    }
}

/// A received section's header, and where its items and its bytes lie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionHead {
    /// The final destinations of the items: a bit per offset from
    /// `origin`, only offsets behind the hop the section took out of its
    /// origin (see `pe::topology::dest_bit`).
    pub mask: u32,
    /// The rank the items come from.
    pub origin: usize,
    kind: usize,
    items: Range<usize>,
    raw: Range<usize>,
    decision_bytes: usize,
}

impl SectionHead {
    /// The section's bytes in `frame`, the payload it was decoded from.
    pub fn raw<'a>(&self, frame: &'a [u8]) -> &'a [u8] {
        &frame[self.raw.clone()]
    }
}

/// The decoded sections of one kind, over one flat item list.
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

impl<T> Sections<T> {
    /// The sections, in frame order.
    pub fn iter(&self) -> impl Iterator<Item = (&SectionHead, &[T])> {
        self.heads.iter().map(|h| (h, &self.items[h.items.clone()]))
    }

    /// No section.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.items.clear();
    }

    /// The items and heads' capacities: what decoding has reserved.
    pub fn capacity(&self) -> (usize, usize) {
        (self.heads.capacity(), self.items.capacity())
    }
}

/// A received step frame, decoded into buffers kept from one frame to
/// the next.
#[derive(Debug, Clone, Default)]
pub struct Received {
    /// Particles for their new owner, id-sorted per section.
    pub migrants: Sections<Particle>,
    /// Loads and decisions: one `(load, decision)` per section.
    pub loads: Sections<(f64, Option<Transfer>)>,
    /// Boundary-shell ghosts, `(id, pos)`, ascending id per section.
    pub ghosts: Sections<(u64, Vec3)>,
    /// New positions of the frozen shell's ghosts.
    pub refresh: Sections<Vec3>,
    /// The `(origin, mask)` pairs of the kind being read.
    seen: Vec<(usize, u32)>,
}

/// Why [`Received::decode`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A scalar, varint or count that does not decode: the input ends
    /// inside it, a varint overflows, a count is zero, a flag byte is
    /// neither 0 nor 1, or bytes follow the last section.
    Decode(DecodeError),
    /// The presence byte names a kind there is none of.
    UnknownKinds(u8),
    /// A gap after the first id is zero: the ids would not ascend.
    ZeroGap {
        /// Index of the id the gap leads to.
        index: u64,
    },
    /// An origin that is no neighbour of the receiver, or none a section
    /// reaches it from over this hop.
    OriginNoNeighbour {
        /// The origin read.
        origin: u64,
    },
    /// A destination bit beyond the hop's reach: not behind the hop the
    /// section took out of its origin on this torus (a −1 along a side
    /// of 2, any step along a side of 1 included), or a mask that names
    /// nobody here or further on.
    BeyondReach {
        /// The mask read.
        mask: u64,
    },
    /// Two sections of one kind from the same origin for the same
    /// destinations.
    DuplicateOrigin {
        /// The origin read twice.
        origin: usize,
    },
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        Self::Decode(e)
    }
}

/// What a receiver knows of a frame before reading a byte of it: the
/// rank torus, itself, and the hop the frame came over — along `axis`,
/// by `dir` from its sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    torus: RankTorus,
    receiver: usize,
    axis: usize,
    dir: i64,
}

impl Arrival {
    /// A frame into `receiver` from `sender`, one step away along `axis`
    /// of `torus`.
    pub(crate) fn new(torus: RankTorus, sender: usize, receiver: usize, axis: usize) -> Self {
        let dir = torus.offset(sender, receiver).map_or(0, |d| d[axis]);
        Self {
            torus,
            receiver,
            axis,
            dir,
        }
    }

    /// Read and check a section header: an origin this hop can bring a
    /// section from, and a mask of destinations behind the origin's first
    /// hop that names this receiver or a rank further on, not seen before
    /// in this kind.
    fn head(
        &self,
        r: &mut Reader,
        seen: &mut Vec<(usize, u32)>,
    ) -> Result<(u32, usize), FrameError> {
        let mask = r.leb128()?;
        let origin = r.leb128()?;
        let no_neighbour = FrameError::OriginNoNeighbour { origin };
        let o = usize::try_from(origin).map_err(|_| no_neighbour)?;
        let sides = self.torus.0;
        let at = (o < sides.iter().product())
            .then(|| self.torus.offset(o, self.receiver))
            .flatten()
            .filter(|at| at[self.axis] == self.dir && at[self.axis + 1..].iter().all(|&d| d == 0))
            .ok_or(no_neighbour)?;
        // Every destination the torus can name behind the first hop.
        let canonical = |d: [i64; 3]| (0..3).all(|a| d[a] == 0 || sides[a] > 2 || d[a] == 1);
        let reach = (0..27)
            .filter(|&i| canonical(bit_offset(i)))
            .fold(0u64, |m, i| m | 1 << i)
            & u64::from(behind_first_hop(at));
        let here_or_on = (self.axis + 1..3)
            .flat_map(|axis| [-1, 1].map(|dir| ahead(at, axis, dir)))
            .fold(dest_bit(at), |m, a| m | a);
        if mask & !reach != 0 || mask & u64::from(here_or_on) == 0 {
            return Err(FrameError::BeyondReach { mask });
        }
        let key = (o, mask as u32);
        if seen.contains(&key) {
            return Err(FrameError::DuplicateOrigin { origin: o });
        }
        seen.push(key);
        Ok((key.1, o))
    }
}

impl Received {
    /// Decode `bytes`, a frame that came over `arrival`, replacing what
    /// was here. Every malformed input is a typed error, found before the
    /// caller applies anything; a count read off the wire reserves memory
    /// only once the bytes left are known to hold that many items, so a
    /// lying count costs none.
    pub fn decode(&mut self, bytes: &[u8], arrival: Arrival) -> Result<(), FrameError> {
        self.migrants.clear();
        self.loads.clear();
        self.ghosts.clear();
        self.refresh.clear();
        let mut r = Reader::new(bytes);
        let [kinds] = r.take::<1>()?;
        if kinds >> 4 != 0 {
            return Err(FrameError::UnknownKinds(kinds));
        }
        let seen = &mut self.seen;
        if kinds & 1 << MIGRANTS != 0 {
            read_list(
                &mut r,
                arrival,
                seen,
                MIGRANTS,
                &mut self.migrants,
                |r, out| {
                    let n = r.count()?;
                    out.reserve(r.fits(n, 56)?);
                    for _ in 0..n {
                        out.push(Particle::decode(r)?);
                    }
                    Ok(0)
                },
            )?;
        }
        if kinds & 1 << LOADS != 0 {
            read_list(&mut r, arrival, seen, LOADS, &mut self.loads, |r, out| {
                let (load, flagged) = <(f64, bool)>::decode(r)?;
                let at = r.position();
                let decision = flagged.then(|| Transfer::decode(r)).transpose()?;
                out.push((load, decision));
                Ok(r.position() - at)
            })?;
        }
        if kinds & 1 << GHOSTS != 0 {
            read_list(&mut r, arrival, seen, GHOSTS, &mut self.ghosts, |r, out| {
                let n = r.count()?;
                read_shell(r, n, out).map(|()| 0)
            })?;
        }
        if kinds & 1 << REFRESH != 0 {
            read_list(
                &mut r,
                arrival,
                seen,
                REFRESH,
                &mut self.refresh,
                |r, out| {
                    let n = r.count()?;
                    out.reserve(r.fits(n, 24)?);
                    for _ in 0..n {
                        out.push(Vec3::decode(r)?);
                    }
                    Ok(0)
                },
            )?;
        }
        match r.remaining() {
            0 => Ok(()),
            bytes => Err(DecodeError::Trailing { bytes }.into()),
        }
    }
}

/// Read one kind's list — its count, then each section's header (checked
/// against `arrival`) and its body (`body` appends the items and returns
/// the bytes of the decision among them) — into `into`.
fn read_list<T>(
    r: &mut Reader,
    arrival: Arrival,
    seen: &mut Vec<(usize, u32)>,
    kind: usize,
    into: &mut Sections<T>,
    body: impl Fn(&mut Reader, &mut Vec<T>) -> Result<usize, FrameError>,
) -> Result<(), FrameError> {
    seen.clear();
    // A section is at least its mask, origin and one byte of body.
    let n = r.count()?;
    r.fits(n, 3)?;
    for _ in 0..n {
        let start = r.position();
        let (mask, origin) = arrival.head(r, seen)?;
        let first = into.items.len();
        let decision_bytes = body(r, &mut into.items)?;
        into.heads.push(SectionHead {
            mask,
            origin,
            kind,
            items: first..into.items.len(),
            raw: start..r.position(),
            decision_bytes,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcdlb_core::protocol::DlbDecision;
    use pcdlb_domain::Col;
    use pcdlb_mp::wire::encoded_len;

    fn particle(id: u64) -> Particle {
        Particle {
            id,
            pos: Vec3::new(1.25, -0.5, 3.0),
            vel: Vec3::new(0.0, 2.0, -1.0),
        }
    }

    fn position(id: u64) -> Vec3 {
        Vec3::new(id as f64, -((id % 97) as f64), 0.5)
    }

    fn transfer() -> Transfer {
        let decision = DlbDecision {
            col: Col::new(5, 7),
            from: 4,
            to: 0,
        };
        Transfer {
            decision,
            work: 0.125,
        }
    }

    fn shell(ids: &[u64]) -> DeltaChannel {
        let mut tx = DeltaChannel::default();
        (tx.scratch).extend(ids.iter().map(|&id| (id, position(id))));
        tx
    }

    fn bytes(f: &StepFrame) -> (Vec<u8>, FrameBytes) {
        let mut out = Vec::new();
        let took = f.encode_into(&mut out);
        let total = took.presence + took.migrants + took.loads + took.ghosts;
        assert_eq!(total, out.len());
        (out, took)
    }

    #[test]
    fn a_shell_travels_in_ascending_id_order_at_its_gap_charge() {
        // Staged out of order; gaps 0, 1, 127, 16384, 1 take 1 + 1 + 1 +
        // 3 + 1 = 7 bytes; mask 2 and origin 3 one byte each, the count
        // one more.
        let ids = [16512u64, 0, 128, 16513, 1];
        let mut tx = shell(&ids);
        let mut f = StepFrame::default();
        tx.pack_into(&mut f, 2, 3);
        assert!(tx.scratch.is_empty(), "the staging is drained");
        let (_, took) = bytes(&f);
        assert_eq!(took.ghosts, 1 + (1 + 1 + 1) + 7 + 5 * 24);
        // The probe's frame of its own is the same body, and decodes.
        let mut frame = GhostShellFrame::default();
        shell(&ids).encode_into(true, &mut frame);
        assert_eq!(frame.bytes.len(), 1 + 7 + 5 * 24);
        let mut out = Vec::new();
        DeltaChannel::default()
            .decode_into(&frame, &mut out)
            .expect("a packed shell decodes");
        let got: Vec<u64> = out.iter().map(|e| e.0).collect();
        assert_eq!(got, [0, 1, 128, 16512, 16513]);
        assert_eq!(out[3].1, position(16512));
        // An empty shell opens no section.
        f.clear();
        DeltaChannel::default().pack_into(&mut f, 2, 3);
        assert_eq!(bytes(&f).0, [0]);
    }

    #[test]
    fn step_frame_sections_toggle_their_bytes() {
        let mut f = StepFrame::default();
        assert_eq!(bytes(&f).0, [0]); // the presence byte
        f.push_migrants(1 << 9, 300, &[particle(0)]);
        // Count, mask (2 bytes), origin (2), count, particle.
        assert_eq!(bytes(&f).1.migrants, 1 + 2 + 2 + 1 + 56);
        f.push_migrants(2, 1, &[]);
        assert_eq!(bytes(&f).1.migrants, 1 + 2 + 2 + 1 + 56, "an empty section");
        f.push_load(2, 1, 0.25, None);
        assert_eq!(bytes(&f).1.loads, 1 + 1 + 1 + 8 + 1);
        // A decision costs its bytes and nothing else: its presence rides
        // the flag byte.
        f.push_load(2, 1, 0.25, Some(transfer()));
        let took = bytes(&f).1;
        assert_eq!(took.decisions, 16 + 8 + 8 + 8);
        assert_eq!(took.loads, 1 + 2 * (1 + 1 + 8 + 1) + 40);
        f.push_refresh(2, 1, 3, [Vec3::ZERO; 3]);
        f.push_refresh(4, 1, 1, [Vec3::ZERO]);
        f.push_refresh(8, 1, 0, []);
        let (out, took) = bytes(&f);
        assert_eq!(took.ghosts, 1 + (3 + 24 * 3) + (3 + 24));
        assert_eq!(out[0], 0b1011, "migrants, loads and refresh present");
    }

    /// The 3 × 3 torus's centre, rank 4, receiving its y stage's frame
    /// from rank 1, below it: rank 1's own sections, and the ones it
    /// relays from ranks 0 and 2, whose x stage brought them.
    fn arrival() -> Arrival {
        Arrival::new(RankTorus([3, 3, 1]), 1, 4, 1)
    }

    /// The destinations of `offsets`, as a mask.
    fn mask(offsets: &[[i64; 3]]) -> u32 {
        offsets.iter().fold(0, |m, &d| m | dest_bit(d))
    }

    /// A y-stage frame into rank 4 as its exchange builds it: every kind,
    /// rank 1's own sections and relayed ones; `ids` are the ghosts of one
    /// relayed section. With it, the listing its decoding must show.
    fn staged_frame(ids: &[u64]) -> (StepFrame, String) {
        let up = mask(&[[0, 1, 0]]);
        // Rank 0's items for its x neighbour and the one above that (rank
        // 4); rank 2's for rank 4 alone.
        let (from_0, from_2) = (mask(&[[1, 0, 0], [1, 1, 0]]), mask(&[[-1, 1, 0]]));
        let migrants = [
            (up, 1, vec![particle(11)]),
            (from_2, 2, vec![particle(3), particle(5)]),
        ];
        let decision = Transfer {
            decision: DlbDecision {
                col: Col::new(1, 0),
                from: 0,
                to: 1,
            },
            work: 0.5,
        };
        let loads = [(up, 1, (1.5, None)), (from_0, 0, (1.5, Some(decision)))];
        let ghost = |id| (id, position(id));
        let ghosts = [
            (up, 1, vec![ghost(9)]),
            (from_0, 0, ids.iter().map(|&id| ghost(id)).collect()),
        ];
        let refresh = [(from_2, 2, vec![position(1), position(2)])];
        let mut f = StepFrame::default();
        for (mask, origin, parts) in &migrants {
            f.push_migrants(*mask, *origin, parts);
        }
        for &(mask, origin, (load, decision)) in &loads {
            f.push_load(mask, origin, load, decision);
        }
        for (mask, origin, shell) in &ghosts {
            let mut tx = DeltaChannel::default();
            tx.scratch.extend_from_slice(shell);
            tx.pack_into(&mut f, *mask, *origin);
        }
        for (mask, origin, pos) in &refresh {
            f.push_refresh(*mask, *origin, pos.len(), pos.iter().copied());
        }
        let ghosts = ghosts.iter().filter(|g| !g.2.is_empty());
        let loads = loads.map(|(mask, origin, load)| (mask, origin, vec![load]));
        let listing = format!(
            "{migrants:?} {loads:?} {:?} {refresh:?}",
            ghosts.collect::<Vec<_>>()
        );
        (f, listing)
    }

    /// The sections of every kind of `f`, as `staged_frame` lists them.
    fn listing(f: &Received) -> String {
        fn list<T: Clone>(s: &Sections<T>) -> Vec<(u32, usize, Vec<T>)> {
            s.iter()
                .map(|(h, p)| (h.mask, h.origin, p.to_vec()))
                .collect()
        }
        let (m, l) = (list(&f.migrants), list(&f.loads));
        let (g, r) = (list(&f.ghosts), list(&f.refresh));
        format!("{m:?} {l:?} {g:?} {r:?}")
    }

    /// Both ends' pins on one frame: it decodes back to what was staged,
    /// and a relay's copy of every section is the frame byte for byte.
    fn check_frame((f, staged): (StepFrame, String)) {
        let (sent, took) = bytes(&f);
        let mut got = Received::default();
        got.decode(&sent, arrival())
            .expect("a frame the exchange builds decodes");
        assert_eq!(listing(&got), staged);
        let mut relay = StepFrame::default();
        for (head, _) in got.migrants.iter() {
            relay.relay(head, head.raw(&sent));
        }
        for (head, _) in got.loads.iter() {
            relay.relay(head, head.raw(&sent));
        }
        for (head, _) in got.ghosts.iter() {
            relay.relay(head, head.raw(&sent));
        }
        for (head, _) in got.refresh.iter() {
            relay.relay(head, head.raw(&sent));
        }
        assert_eq!(bytes(&relay), (sent, took));
        relay.clear();
        assert_eq!(bytes(&relay).0, [0], "a cleared frame carries nothing");
    }

    #[test]
    fn the_compact_layout_prices_its_gaps_at_the_varint_boundaries() {
        // Gaps 127, 128, 16383, 16384 take 1, 2, 2, 3 bytes; the first id 0
        // one byte, the last gap to u64::MAX ten.
        let ids = [0, 127, 255, 16638, 33022, u64::MAX];
        let mut with = StepFrame::default();
        shell(&ids).pack_into(&mut with, 1, 0);
        assert_eq!(
            bytes(&with).1.ghosts,
            1 + 2 + 1 + (1 + 1 + 2 + 2 + 3 + 10) + 24 * 6
        );
        check_frame(staged_frame(&ids));
        check_frame(staged_frame(&ids[2..]));
        check_frame(staged_frame(&[u64::MAX]));
        check_frame(staged_frame(&[]));
        check_frame((StepFrame::default(), "[] [] [] []".to_string()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
        /// Any strictly ascending id set — from 0 or from anywhere, through
        /// gaps on both sides of each varint byte boundary, up to
        /// `u64::MAX` — round-trips in a relayed section, and so does every
        /// thinned copy of it.
        #[test]
        fn prop_staged_frames_round_trip(
            from_zero in proptest::strategy::any::<bool>(),
            start in proptest::strategy::any::<u64>(),
            steps in proptest::collection::vec((0usize..6, proptest::strategy::any::<u64>()), 0..48),
            keep in 1u64..5,
        ) {
            let mut id = if from_zero { 0 } else { start >> 16 };
            let mut ids = vec![id];
            for (kind, r) in steps {
                let gap = [127, 128, 16383, 16384, 1 + r % 100, 1 + (r >> 20)][kind];
                match id.checked_add(gap) {
                    Some(next) => id = next,
                    None => break,
                }
                ids.push(id);
            }
            if id < u64::MAX {
                ids.push(u64::MAX);
            }
            let thinned: Vec<u64> = ids.iter().copied().step_by(keep as usize).collect();
            check_frame(staged_frame(&ids));
            check_frame(staged_frame(&thinned));
        }
    }

    #[test]
    fn the_decoder_refuses_malformed_frames_with_typed_errors() {
        use DecodeError::{Empty, Overflow, Trailing, Truncated, VarintTooLong};
        let decode = |bytes: &[u8], arrival| Received::default().decode(bytes, arrival).err();
        let (good, _) = bytes(&staged_frame(&[3, 5, 300]).0);
        // Every strict prefix ends inside a section, or before one.
        for cut in 0..good.len() {
            assert_eq!(
                decode(&good[..cut], arrival()),
                Some(Truncated.into()),
                "cut {cut}"
            );
        }
        let mut trailing = good.clone();
        trailing.push(0);
        let decode = |bytes: &[u8]| decode(bytes, arrival());
        assert_eq!(decode(&trailing), Some(Trailing { bytes: 1 }.into()));
        assert_eq!(decode(&[0x10]), Some(FrameError::UnknownKinds(0x10)));
        // One ghost section from rank 1 for rank 4: `gaps` after its count.
        let ghosts = |mask: u64, origin: u64, n: u64, gaps: &[u8]| {
            let mut bytes = vec![4, 1];
            for v in [mask, origin, n] {
                put_leb128(v, &mut bytes);
            }
            bytes.extend_from_slice(gaps);
            bytes
        };
        let up = u64::from(mask(&[[0, 1, 0]]));
        // A truncated section: three ids promised, two there — and a count of
        // u64::MAX over three bytes, refused as truncated with nothing sized
        // from it.
        let mut short = ghosts(up, 1, 3, &[1, 1, 1]);
        short.extend([0; 48]);
        assert_eq!(decode(&short), Some(Truncated.into()));
        assert_eq!(
            decode(&ghosts(up, 1, u64::MAX, &[1, 1, 1])),
            Some(Truncated.into())
        );
        // A destination bit beyond the hop's reach: rank 1's section also for
        // the rank to its x side, which its y hop does not lead to; a step
        // along the side of 1; a bit past the 27 offsets. And a section of
        // rank 0's that names only rank 1, which it has reached already.
        for bad in [
            mask(&[[0, 1, 0], [1, 0, 0]]),
            mask(&[[0, 1, -1]]),
            mask(&[[0, 1, 0]]) | 1 << 27,
        ] {
            let mask = u64::from(bad);
            assert_eq!(
                decode(&ghosts(mask, 1, 1, &[0])),
                Some(FrameError::BeyondReach { mask }),
                "{mask:#x}"
            );
        }
        let served = u64::from(mask(&[[1, 0, 0]]));
        assert_eq!(
            decode(&ghosts(served, 0, 1, &[0])),
            Some(FrameError::BeyondReach { mask: served })
        );
        // An origin that is no neighbour: the receiver itself, one past the
        // torus, and on a 4 × 4 torus a rank two rows away; and rank 3, a
        // neighbour no y hop from below brings anything from.
        for origin in [4, 9, 3] {
            assert_eq!(
                decode(&ghosts(up, origin, 1, &[0])),
                Some(FrameError::OriginNoNeighbour { origin }),
                "origin {origin}"
            );
        }
        let four = Arrival::new(RankTorus([4, 4, 1]), 1, 5, 1);
        assert_eq!(
            Received::default()
                .decode(&ghosts(up, 13, 1, &[0]), four)
                .err(),
            Some(FrameError::OriginNoNeighbour { origin: 13 })
        );
        // A duplicated origin: rank 1's section for rank 4, twice.
        let mut twice = vec![4, 2];
        for _ in 0..2 {
            for v in [up, 1, 1, 9] {
                put_leb128(v, &mut twice);
            }
            twice.extend([0; 24]);
        }
        assert_eq!(
            decode(&twice),
            Some(FrameError::DuplicateOrigin { origin: 1 })
        );
        // A repeated id, an empty section, an overlong varint, one past
        // u64 — each with the positions its count promises behind it.
        let padded = |gaps: &[u8], n: usize| [gaps, &vec![0; 24 * n]].concat();
        assert_eq!(
            decode(&ghosts(up, 1, 2, &padded(&[0x05, 0x00], 2))),
            Some(FrameError::ZeroGap { index: 1 })
        );
        assert_eq!(decode(&ghosts(up, 1, 0, &[])), Some(Empty.into()));
        assert_eq!(
            decode(&ghosts(up, 1, 1, &padded(&[0x80; 11], 1))),
            Some(VarintTooLong.into())
        );
        let mut wide = vec![0xff; 9];
        wide.push(0x02);
        assert_eq!(
            decode(&ghosts(up, 1, 1, &padded(&wide, 1))),
            Some(Overflow.into())
        );
        // A decision flag that is neither 0 nor 1.
        let mut flag = vec![2, 1];
        for v in [up, 1] {
            put_leb128(v, &mut flag);
        }
        flag.extend(1.5f64.to_le_bytes());
        flag.push(7);
        assert_eq!(decode(&flag), Some(DecodeError::BadTag(7).into()));
    }

    #[test]
    fn every_other_payload_travels_at_its_pinned_size() {
        // pe/retile.rs: RETILE_XFER carries a Vec<Particle>.
        assert_eq!(encoded_len(&vec![particle(0), particle(1)]), 8 + 2 * 56);
        // pe/bookkeeping.rs: KE_GATHER a Vec<(u64, f64)>, KE_BCAST an f64.
        assert_eq!(encoded_len(&vec![(0u64, 0.5f64), (3, 1.25)]), 8 + 2 * 16);
        // pe/audit.rs: CKPT_GATHER carries the particles, the columns, the
        // load last announced and the transfers given still pending.
        let ckpt = (
            vec![particle(4)],
            vec![Col::new(0, 1)],
            Some(0.5f64),
            vec![transfer()],
        );
        assert_eq!(encoded_len(&ckpt), (8 + 56) + (8 + 16) + 9 + (8 + 40));
        // stats.rs: STATS gathers a StatsPacket per rank.
        let packet = crate::stats::StatsPacket {
            cells: 8,
            empty_cells: 1,
            particles: 100,
            force_virtual: 0.25,
            force_wall: 0.0,
            comm_virtual_delta: 0.125,
            pair_checks: 4242,
            potential: -3.5,
            kinetic: 2.25,
            transferred: 1,
        };
        assert_eq!(encoded_len(&packet), 10 * 8);
        let mut bytes = Vec::new();
        packet.encode(&mut bytes);
        let back: crate::stats::StatsPacket = pcdlb_mp::wire::decode_all(&bytes).expect("decodes");
        assert_eq!(format!("{back:?}"), format!("{packet:?}"));
    }
}
