//! Wire-size audit: every payload type the simulators actually send must
//! have a `WireSize` impl that matches a reference length-prefixed binary
//! encoding, so `CostModel::message_time` is never silently charged the
//! wrong byte count (or 0) when a message type is added or changed.
//!
//! The reference encoding mirrors the convention documented in
//! `pcdlb_mp::wire`: scalars are their `size_of` in little-endian bytes,
//! a `Vec` is an 8-byte length prefix plus its elements, an `Option` is a
//! 1-byte discriminant plus the payload, and tuples/structs concatenate
//! their fields.

use std::sync::Arc;

use pcdlb_core::protocol::{DlbDecision, Transfer};
use pcdlb_domain::Col;
use pcdlb_md::{Particle, Vec3};
use pcdlb_mp::WireSize;

use crate::frame::{GhostPart, LoadSection, ParticleFrame, Sections, StepFrame};
use crate::pe::{ahead, behind_first_hop, bit_offset, dest_bit, RankTorus};
use crate::stats::StatsPacket;

/// Reference encoder: actually serialize the value and count the bytes.
trait RefEncode {
    fn encode(&self, out: &mut Vec<u8>);

    fn encoded_len(&self) -> usize {
        let mut out = Vec::new();
        self.encode(&mut out);
        out.len()
    }
}

impl RefEncode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl RefEncode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl RefEncode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl<T: RefEncode> RefEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: RefEncode> RefEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<A: RefEncode, B: RefEncode> RefEncode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: RefEncode, B: RefEncode, C: RefEncode> RefEncode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}

impl<A: RefEncode, B: RefEncode, C: RefEncode, D: RefEncode> RefEncode for (A, B, C, D) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
        self.3.encode(out);
    }
}

impl RefEncode for Vec3 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.x.encode(out);
        self.y.encode(out);
        self.z.encode(out);
    }
}

impl RefEncode for Particle {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.pos.encode(out);
        self.vel.encode(out);
    }
}

impl RefEncode for Col {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.cx as u64).encode(out);
        (self.cy as u64).encode(out);
    }
}

impl RefEncode for Transfer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.decision.col.encode(out);
        (self.decision.from as u64).encode(out);
        (self.decision.to as u64).encode(out);
        self.work.encode(out);
    }
}

impl<T: RefEncode> RefEncode for Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        // Arc is a local-ownership wrapper; only the inner value is wired.
        (**self).encode(out);
    }
}

impl RefEncode for ParticleFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.parts.encode(out);
    }
}

/// Reference unsigned LEB128: 7 value bits per byte, low group first, the
/// top bit set on every byte but the last.
fn encode_leb128(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A section's header: LEB128 mask, LEB128 origin.
fn encode_head(mask: u32, origin: usize, out: &mut Vec<u8>) {
    encode_leb128(u64::from(mask), out);
    encode_leb128(origin as u64, out);
}

/// A ghost section's body: a LEB128 count, the ids as LEB128 gaps (the
/// first id raw, then each id minus the one before, strictly ascending),
/// then the positions.
fn encode_ghosts(ghosts: &[GhostPart], out: &mut Vec<u8>) {
    encode_leb128(ghosts.len() as u64, out);
    let mut prev = None;
    for g in ghosts {
        let gap = match prev {
            None => g.id,
            Some(p) => {
                assert!(g.id > p, "ghost ids must be strictly ascending");
                g.id - p
            }
        };
        encode_leb128(gap, out);
        prev = Some(g.id);
    }
    for g in ghosts {
        g.pos.encode(out);
    }
}

/// A list of sections: nothing when empty (its presence bit says so),
/// else the LEB128 count and each section's header and body.
fn encode_list<T>(sections: &Sections<T>, out: &mut Vec<u8>, body: impl Fn(&[T], &mut Vec<u8>))
where
    T: Clone,
{
    let heads: Vec<_> = sections.iter().collect();
    if heads.is_empty() {
        return;
    }
    encode_leb128(heads.len() as u64, out);
    for (head, items) in heads {
        encode_head(head.mask, head.origin, out);
        body(items, out);
    }
}

/// The presence byte: which kinds have sections.
fn kinds(f: &StepFrame) -> u8 {
    let present = [
        !f.migrants.is_empty(),
        !f.loads.is_empty(),
        !f.ghosts.is_empty(),
        !f.refresh.is_empty(),
    ];
    (present.iter().enumerate()).fold(0, |k, (bit, &on)| k | (on as u8) << bit)
}

impl RefEncode for StepFrame {
    /// The actual layout: the presence byte, then per kind present its
    /// section count and sections — migrants (count, particles), loads
    /// (load, decision flag byte, decision), ghosts (count, id gaps,
    /// positions), refresh (count, positions).
    fn encode(&self, out: &mut Vec<u8>) {
        kinds(self).encode(out);
        encode_list(&self.migrants, out, |parts, out| {
            encode_leb128(parts.len() as u64, out);
            parts.iter().for_each(|p| p.encode(out));
        });
        if !self.loads.is_empty() {
            encode_leb128(self.loads.len() as u64, out);
            for l in &self.loads {
                encode_head(l.mask, l.origin, out);
                l.load.encode(out);
                (l.decision.is_some() as u8).encode(out);
                if let Some(t) = &l.decision {
                    t.encode(out);
                }
            }
        }
        encode_list(&self.ghosts, out, encode_ghosts);
        encode_list(&self.refresh, out, |pos, out| {
            encode_leb128(pos.len() as u64, out);
            pos.iter().for_each(|p| p.encode(out));
        });
    }
}

/// Why [`decode_frame`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameError {
    /// The input ends inside the frame.
    Truncated,
    /// The presence byte names a kind there is none of.
    UnknownKinds(u8),
    /// A varint runs past the 10 bytes a `u64` needs.
    VarintTooLong,
    /// A varint, a gap, or the id it leads to, exceeds its type.
    Overflow,
    /// A gap after the first id is zero: the ids would not ascend.
    ZeroGap {
        /// Index of the id the gap leads to.
        index: u64,
    },
    /// A list or a section that holds nothing: none is ever sent.
    Empty,
    /// A decision flag byte other than 0 or 1.
    BadFlag(u8),
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
    /// Bytes follow the last section.
    Trailing {
        /// How many.
        bytes: usize,
    },
}

/// A cursor over untrusted bytes.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let (head, rest) = self
            .bytes
            .split_first_chunk::<N>()
            .ok_or(FrameError::Truncated)?;
        self.bytes = rest;
        Ok(*head)
    }

    fn leb128(&mut self) -> Result<u64, FrameError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let [b] = self.take::<1>()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(FrameError::Overflow);
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(FrameError::VarintTooLong)
    }

    /// A section or list count: a varint that is not zero.
    fn count(&mut self) -> Result<u64, FrameError> {
        match self.leb128()? {
            0 => Err(FrameError::Empty),
            n => Ok(n),
        }
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_le_bytes(self.take::<8>()?))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn vec3(&mut self) -> Result<Vec3, FrameError> {
        Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
    }

    fn particle(&mut self) -> Result<Particle, FrameError> {
        let id = self.u64()?;
        let (pos, vel) = (self.vec3()?, self.vec3()?);
        Ok(Particle { id, pos, vel })
    }

    fn transfer(&mut self) -> Result<Transfer, FrameError> {
        let col = Col::new(self.u64()? as usize, self.u64()? as usize);
        let (from, to) = (self.u64()? as usize, self.u64()? as usize);
        let decision = DlbDecision { col, from, to };
        Ok(Transfer {
            decision,
            work: self.f64()?,
        })
    }
}

/// What a receiver knows of a frame before reading a byte of it: the
/// rank torus, itself, and the hop the frame came over — along `axis`,
/// by `dir` from its sender.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    torus: RankTorus,
    receiver: usize,
    axis: usize,
    dir: i64,
}

impl Arrival {
    /// Read and check a section header: an origin this hop can bring a
    /// section from, and a mask of destinations behind the origin's first
    /// hop that names this receiver or a rank further on.
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

/// Reference decoder of a step frame arriving over `arrival`. Every
/// malformed input is a typed error; nothing is sized from a count read
/// off the wire, so a lying count costs no memory.
fn decode_frame(bytes: &[u8], arrival: Arrival) -> Result<StepFrame, FrameError> {
    let mut r = Reader { bytes };
    let [kinds] = r.take::<1>()?;
    if kinds >> 4 != 0 {
        return Err(FrameError::UnknownKinds(kinds));
    }
    let mut f = StepFrame::default();
    let mut seen = Vec::new();
    if kinds & 1 != 0 {
        for _ in 0..r.count()? {
            let (mask, origin) = arrival.head(&mut r, &mut seen)?;
            let n = r.count()?;
            let mut parts = Vec::new();
            for _ in 0..n {
                parts.push(r.particle()?);
            }
            f.migrants.push(mask, origin, |v| v.extend(parts));
        }
    }
    if kinds & 2 != 0 {
        seen.clear();
        for _ in 0..r.count()? {
            let (mask, origin) = arrival.head(&mut r, &mut seen)?;
            let load = r.f64()?;
            let decision = match r.take::<1>()? {
                [0] => None,
                [1] => Some(r.transfer()?),
                [flag] => return Err(FrameError::BadFlag(flag)),
            };
            f.loads.push(LoadSection {
                mask,
                origin,
                load,
                decision,
            });
        }
    }
    if kinds & 4 != 0 {
        seen.clear();
        for _ in 0..r.count()? {
            let (mask, origin) = arrival.head(&mut r, &mut seen)?;
            let n = r.count()?;
            let mut ids = Vec::new();
            let mut id = 0u64;
            for index in 0..n {
                let gap = r.leb128()?;
                if index > 0 && gap == 0 {
                    return Err(FrameError::ZeroGap { index });
                }
                id = id.checked_add(gap).ok_or(FrameError::Overflow)?;
                ids.push(id);
            }
            let mut ghosts = Vec::new();
            for id in ids {
                ghosts.push(GhostPart { id, pos: r.vec3()? });
            }
            f.ghosts.push(mask, origin, |v| v.extend(ghosts));
        }
    }
    if kinds & 8 != 0 {
        seen.clear();
        for _ in 0..r.count()? {
            let (mask, origin) = arrival.head(&mut r, &mut seen)?;
            let n = r.count()?;
            let mut pos = Vec::new();
            for _ in 0..n {
                pos.push(r.vec3()?);
            }
            f.refresh.push(mask, origin, |v| v.extend(pos));
        }
    }
    match r.bytes.len() {
        0 => Ok(f),
        bytes => Err(FrameError::Trailing { bytes }),
    }
}

impl RefEncode for StatsPacket {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cells.encode(out);
        self.empty_cells.encode(out);
        self.particles.encode(out);
        self.force_virtual.encode(out);
        self.force_wall.encode(out);
        self.comm_virtual_delta.encode(out);
        self.pair_checks.encode(out);
        self.potential.encode(out);
        self.kinetic.encode(out);
        self.transferred.encode(out);
    }
}

fn check<T: WireSize + RefEncode>(value: &T, what: &str) {
    assert_eq!(
        value.wire_size(),
        value.encoded_len(),
        "WireSize mismatch for {what}"
    );
}

fn particle(id: u64) -> Particle {
    Particle {
        id,
        pos: Vec3::new(1.25, -0.5, 3.0),
        vel: Vec3::new(0.0, 2.0, -1.0),
    }
}

#[test]
fn every_sent_payload_type_matches_the_reference_encoding() {
    // pe/audit.rs: SNAPSHOT carries Vec<Particle>.
    check(&Vec::<Particle>::new(), "empty Vec<Particle>");
    check(&vec![particle(0), particle(1)], "Vec<Particle>");
    // pe/retile.rs: RETILE_XFER carries an owned ParticleFrame.
    check(
        &ParticleFrame {
            parts: vec![particle(0), particle(1)],
        },
        "ParticleFrame",
    );
    check(&ParticleFrame::default(), "empty ParticleFrame");
    // pe/bookkeeping.rs: KE_BCAST broadcasts the f64 scale.
    check(&1.5f64, "f64 scale");
    // pe/exchange.rs: STEP_FRAME carries, per kind, sections from this
    // PE and the ones it relays — round 1 migrants and a balancing run's
    // loads and decisions, round 2 the ghost shells, a single exchange
    // both, a mid-epoch step the positions-only refresh.
    {
        let decision = DlbDecision {
            col: Col::new(2, 3),
            from: 4,
            to: 5,
        };
        let transfer = Transfer {
            decision,
            work: 0.0625,
        };
        check(&transfer, "decision section");
        let mut frame = StepFrame::default();
        check(&Arc::new(frame.clone()), "empty step frame");
        frame.migrants.push(2, 4, |v| v.push(particle(7)));
        check(&Arc::new(frame.clone()), "round-1 step frame");
        let load = |decision| LoadSection {
            mask: 2 | 1 << 4,
            origin: 130,
            load: 0.75,
            decision,
        };
        frame.loads.push(load(None));
        check(&Arc::new(frame.clone()), "round-1 step frame with load");
        let plain = frame.wire_size();
        frame.loads.push(load(Some(transfer)));
        check(&Arc::new(frame.clone()), "round-1 step frame with decision");
        // A second load section: header (the origin 2 bytes), load, flag
        // byte, decision.
        assert_eq!(frame.wire_size(), plain + 1 + 2 + 8 + 1 + 40);
        // Ids 0, 200, 400, …, 7800 take 1 + 39 × 2 gap bytes.
        frame.ghosts.push(1 << 9, 3, |v| {
            v.extend((0..40u64).map(|i| GhostPart {
                id: i * 200,
                pos: Vec3::new(i as f64, 1.0, 1.5),
            }))
        });
        check(&Arc::new(frame.clone()), "single-exchange step frame");
        let shells = StepFrame {
            ghosts: frame.ghosts.clone(),
            ..StepFrame::default()
        };
        assert_eq!(
            shells.wire_size(),
            1 + 1 + (2 + 1 + 1) + (1 + 39 * 2) + 24 * 40
        );
        let mut refresh = StepFrame::default();
        refresh.refresh.push(2, 0, |v| {
            v.extend((0..6).map(|i| Vec3::new(i as f64, 1.25, 1.5)))
        });
        check(&Arc::new(refresh.clone()), "refresh step frame");
        assert_eq!(refresh.wire_size(), 1 + 1 + 3 + 24 * 6);
    }
    // pe/bookkeeping.rs: KE_GATHER carries Vec<(u64, f64)>.
    check(&vec![(0u64, 0.5f64), (3u64, 1.25f64)], "KE gather");
    // plane.rs: LOAD_UP / LOAD_DOWN carry (u64, u64, f64).
    check(&(0u64, 4u64, 2.5f64), "plane load triple");
    // pe/audit.rs: CKPT_GATHER carries (Vec<Particle>, Vec<Col>, the load the
    // rank last announced, the transfer it gave this step).
    check(
        &(
            vec![particle(4), particle(5)],
            vec![Col::new(0, 1)],
            Some(0.5f64),
            None::<Transfer>,
        ),
        "checkpoint gather payload",
    );
    // stats.rs: STATS gathers a StatsPacket per rank.
    check(
        &StatsPacket {
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
        },
        "StatsPacket",
    );
}

fn position(id: u64) -> Vec3 {
    Vec3::new(id as f64, -((id % 97) as f64), 0.5)
}

/// The 3 × 3 torus's centre, rank 4, receiving its y stage's frame from
/// rank 1, below it: rank 1's own sections, and the ones it relays from
/// ranks 0 and 2, whose x stage brought them.
fn arrival() -> Arrival {
    Arrival {
        torus: RankTorus([3, 3, 1]),
        receiver: 4,
        axis: 1,
        dir: 1,
    }
}

/// The destinations of `offsets`, as a mask.
fn mask(offsets: &[[i64; 3]]) -> u32 {
    offsets.iter().fold(0, |m, &d| m | dest_bit(d))
}

/// A y-stage frame into rank 4 as its exchange builds it: every kind,
/// rank 1's own sections and relayed ones; `ids` are the ghosts of one
/// relayed section.
fn staged_frame(ids: &[u64]) -> StepFrame {
    let mut f = StepFrame::default();
    let up = mask(&[[0, 1, 0]]);
    // Rank 0's items for its x neighbour and the one above that (rank 4);
    // rank 2's for rank 4 alone.
    let (from_0, from_2) = (mask(&[[1, 0, 0], [1, 1, 0]]), mask(&[[-1, 1, 0]]));
    f.migrants.push(up, 1, |v| v.push(particle(11)));
    f.migrants
        .push(from_2, 2, |v| v.extend([particle(3), particle(5)]));
    let transfer = Transfer {
        decision: DlbDecision {
            col: Col::new(1, 0),
            from: 0,
            to: 1,
        },
        work: 0.5,
    };
    for (mask, origin, decision) in [(up, 1, None), (from_0, 0, Some(transfer))] {
        f.loads.push(LoadSection {
            mask,
            origin,
            load: 1.5,
            decision,
        });
    }
    f.ghosts.push(up, 1, |v| {
        v.push(GhostPart {
            id: 9,
            pos: position(9),
        })
    });
    let ghosts = ids.iter().map(|&id| GhostPart {
        id,
        pos: position(id),
    });
    f.ghosts.push(from_0, 0, |v| v.extend(ghosts));
    f.refresh
        .push(from_2, 2, |v| v.extend([position(1), position(2)]));
    f
}

/// The sections of every kind of `f`, for comparison.
fn listing(f: &StepFrame) -> String {
    let m: Vec<_> = f
        .migrants
        .iter()
        .map(|(h, p)| (h.mask, h.origin, p.to_vec()))
        .collect();
    let g: Vec<_> = f
        .ghosts
        .iter()
        .map(|(h, p)| (h.mask, h.origin, p.to_vec()))
        .collect();
    let r: Vec<_> = f
        .refresh
        .iter()
        .map(|(h, p)| (h.mask, h.origin, p.to_vec()))
        .collect();
    format!("{m:?} {:?} {g:?} {r:?}", f.loads)
}

/// Both ends' pins on one frame: its charge is its reference encoding,
/// which decodes back to it at the receiver.
fn check_frame(f: &StepFrame) {
    let mut bytes = Vec::new();
    f.encode(&mut bytes);
    assert_eq!(f.wire_size(), bytes.len(), "{}", listing(f));
    let decoded = decode_frame(&bytes, arrival()).expect("a frame the exchange builds decodes");
    assert_eq!(listing(&decoded), listing(f));
}

#[test]
fn the_compact_layout_prices_its_gaps_at_the_varint_boundaries() {
    // Gaps 127, 128, 16383, 16384 take 1, 2, 2, 3 bytes; the first id 0
    // one byte, the last gap to u64::MAX ten.
    let ids = [0, 127, 255, 16638, 33022, u64::MAX];
    let (mut with, without) = (StepFrame::default(), staged_frame(&[]));
    with.ghosts.push(1, 0, |v| {
        v.extend(ids.iter().map(|&id| GhostPart {
            id,
            pos: position(id),
        }))
    });
    assert_eq!(
        with.ghost_size(),
        1 + 2 + 1 + (1 + 1 + 2 + 2 + 3 + 10) + 24 * 6
    );
    check_frame(&staged_frame(&ids));
    check_frame(&staged_frame(&ids[2..]));
    check_frame(&staged_frame(&[u64::MAX]));
    check_frame(&without);
    check_frame(&StepFrame::default());
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
    /// Any strictly ascending id set — from 0 or from anywhere, through
    /// gaps on both sides of each varint byte boundary, up to `u64::MAX` —
    /// round-trips in a relayed section at the size `wire_size` charges,
    /// and so does every thinned copy of it.
    #[test]
    fn prop_staged_frames_round_trip_at_their_charge(
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
        check_frame(&staged_frame(&ids));
        check_frame(&staged_frame(&thinned));
    }
}

#[test]
fn the_reference_decoder_refuses_malformed_frames_with_typed_errors() {
    let encode = |f: &StepFrame| {
        let mut bytes = Vec::new();
        f.encode(&mut bytes);
        bytes
    };
    let good = encode(&staged_frame(&[3, 5, 300]));
    // Every strict prefix ends inside a section, or before one.
    for cut in 0..good.len() {
        assert_eq!(
            decode_frame(&good[..cut], arrival()).err(),
            Some(FrameError::Truncated),
            "cut {cut}"
        );
    }
    let mut trailing = good.clone();
    trailing.push(0);
    let decode = |bytes: &[u8]| decode_frame(bytes, arrival()).err();
    assert_eq!(decode(&trailing), Some(FrameError::Trailing { bytes: 1 }));
    assert_eq!(decode(&[0x10]), Some(FrameError::UnknownKinds(0x10)));
    // One ghost section from rank 1 for rank 4: `gaps` after its count.
    let ghosts = |mask: u64, origin: u64, n: u64, gaps: &[u8]| {
        let mut bytes = vec![4, 1];
        for v in [mask, origin, n] {
            encode_leb128(v, &mut bytes);
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
    assert_eq!(decode(&short), Some(FrameError::Truncated));
    assert_eq!(
        decode(&ghosts(up, 1, u64::MAX, &[1, 1, 1])),
        Some(FrameError::Truncated)
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
    let four = Arrival {
        torus: RankTorus([4, 4, 1]),
        receiver: 5,
        ..arrival()
    };
    assert_eq!(
        decode_frame(&ghosts(up, 13, 1, &[0]), four).err(),
        Some(FrameError::OriginNoNeighbour { origin: 13 })
    );
    // A duplicated origin: rank 1's section for rank 4, twice.
    let mut twice = vec![4, 2];
    for _ in 0..2 {
        for v in [up, 1, 1, 9] {
            encode_leb128(v, &mut twice);
        }
        twice.extend([0; 24]);
    }
    assert_eq!(
        decode(&twice),
        Some(FrameError::DuplicateOrigin { origin: 1 })
    );
    // A repeated id, an empty section, an overlong varint, one past u64.
    assert_eq!(
        decode(&ghosts(up, 1, 2, &[0x05, 0x00])),
        Some(FrameError::ZeroGap { index: 1 })
    );
    assert_eq!(decode(&ghosts(up, 1, 0, &[])), Some(FrameError::Empty));
    assert_eq!(
        decode(&ghosts(up, 1, 1, &[0x80; 11])),
        Some(FrameError::VarintTooLong)
    );
    let mut wide = vec![0xff; 9];
    wide.push(0x02);
    assert_eq!(decode(&ghosts(up, 1, 1, &wide)), Some(FrameError::Overflow));
    // A decision flag that is neither 0 nor 1.
    let mut flag = vec![2, 1];
    for v in [up, 1] {
        encode_leb128(v, &mut flag);
    }
    flag.extend(1.5f64.to_le_bytes());
    flag.push(7);
    assert_eq!(decode(&flag), Some(FrameError::BadFlag(7)));
}
