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

use crate::frame::{
    DeltaChannel, GhostPart, GhostRefresh, GhostShellFrame, ParticleFrame, StepFrame,
};
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

/// The compact ghost list: a length prefix, the ids as LEB128 gaps (the
/// first id raw, then each id minus the one before, strictly ascending),
/// then the positions.
fn encode_ghosts(ghosts: &[GhostPart], out: &mut Vec<u8>) {
    (ghosts.len() as u64).encode(out);
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

impl RefEncode for GhostShellFrame {
    /// Kind byte 0, then the compact list.
    fn encode(&self, out: &mut Vec<u8>) {
        0u8.encode(out);
        encode_ghosts(&self.parts, out);
    }
}

/// Why [`decode_full`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompactError {
    /// The input ends inside the frame.
    Truncated,
    /// The kind byte is not a shell frame's 0.
    NotShell(u8),
    /// A varint runs past the 10 bytes a `u64` needs.
    VarintTooLong,
    /// A gap, or the id it leads to, exceeds `u64::MAX`.
    Overflow,
    /// A gap after the first id is zero: the ids would not ascend.
    ZeroGap {
        /// Index of the id the gap leads to.
        index: u64,
    },
    /// Bytes follow the last position.
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
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CompactError> {
        let (head, rest) = self
            .bytes
            .split_first_chunk::<N>()
            .ok_or(CompactError::Truncated)?;
        self.bytes = rest;
        Ok(*head)
    }

    fn leb128(&mut self) -> Result<u64, CompactError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let [b] = self.take::<1>()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(CompactError::Overflow);
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CompactError::VarintTooLong)
    }

    fn f64(&mut self) -> Result<f64, CompactError> {
        Ok(f64::from_le_bytes(self.take::<8>()?))
    }
}

/// Reference decoder of a shell frame: kind byte, length prefix, id
/// gaps, positions. Every malformed input is a typed error; nothing is
/// sized from the length prefix, so a lying prefix costs no memory.
fn decode_full(bytes: &[u8]) -> Result<Vec<GhostPart>, CompactError> {
    let mut r = Reader { bytes };
    match r.take::<1>()? {
        [0] => {}
        [kind] => return Err(CompactError::NotShell(kind)),
    }
    let n = u64::from_le_bytes(r.take::<8>()?);
    let mut ids = Vec::new();
    let mut id = 0u64;
    for index in 0..n {
        let gap = r.leb128()?;
        if index > 0 && gap == 0 {
            return Err(CompactError::ZeroGap { index });
        }
        id = id.checked_add(gap).ok_or(CompactError::Overflow)?;
        ids.push(id);
    }
    let mut ghosts = Vec::new();
    for id in ids {
        let pos = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
        ghosts.push(GhostPart { id, pos });
    }
    match r.bytes.len() {
        0 => Ok(ghosts),
        bytes => Err(CompactError::Trailing { bytes }),
    }
}

impl RefEncode for GhostRefresh {
    /// The ghost section's second kind, after the shell frame (kind byte
    /// 0): kind byte 1, then the length-prefixed positions.
    fn encode(&self, out: &mut Vec<u8>) {
        1u8.encode(out);
        self.pos.encode(out);
    }
}

impl RefEncode for StepFrame {
    /// The actual layout: 1-byte presence header + migrant section,
    /// Option-encoded load, the decision section when its header bit is
    /// set, 1-byte presence header + ghost section (a shell frame or a
    /// mid-epoch refresh; its own first byte says which). The
    /// decision's presence rides bit 1 of the migrant presence header,
    /// so it costs no wire byte.
    fn encode(&self, out: &mut Vec<u8>) {
        let header = (self.has_migrants as u8) | ((self.decision.is_some() as u8) << 1);
        header.encode(out);
        if self.has_migrants {
            self.migrants.encode(out);
        }
        self.load.encode(out);
        if let Some(transfer) = &self.decision {
            transfer.encode(out);
        }
        ((self.has_ghosts || self.has_refresh) as u8).encode(out);
        if self.has_ghosts {
            self.ghosts.encode(out);
        } else if self.has_refresh {
            self.refresh.encode(out);
        }
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
    // pe/exchange.rs: STEP_FRAME round 1 carries migrants, in a balancing run the
    // sender's load, and on DLB steps its decision with the work that
    // moves with it.
    {
        let mut frame = StepFrame::default();
        frame.begin_round1(None, None);
        frame.migrants.parts.push(particle(7));
        check(&Arc::new(frame), "round-1 step frame");
        let mut dlb = StepFrame::default();
        dlb.begin_round1(Some(0.75), None);
        check(&Arc::new(dlb.clone()), "round-1 step frame with load");
        let plain = dlb.wire_size();
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
        dlb.begin_round1(Some(0.75), Some(transfer));
        check(&Arc::new(dlb.clone()), "round-1 step frame with decision");
        // The frame it always was + the section.
        assert_eq!(dlb.wire_size(), plain + 40);
    }
    // pe/exchange.rs: STEP_FRAME round 2 — or a single-exchange step's one
    // frame — carries the ghost shell; no message carries a bare one.
    {
        let mut tx = DeltaChannel::default();
        let mut frame = StepFrame::default();
        frame.begin_round2();
        for i in 0..40u64 {
            tx.scratch.push((i * 200, Vec3::new(i as f64, 1.0, 1.5)));
        }
        tx.encode_into(true, &mut frame.ghosts);
        check(&Arc::new(frame.clone()), "round-2 step frame");
        // Ids 0, 200, 400, …, 7800 take 1 + 39 × 2 gap bytes.
        assert_eq!(frame.ghosts.wire_size(), 1 + 8 + (1 + 39 * 2) + 24 * 40);
        check(&GhostShellFrame::default(), "empty ghost shell");
    }
    // pe/exchange.rs: STEP_FRAME on a mid-epoch step carries the positions-only
    // refresh and nothing else, at 24 bytes per ghost where the shell
    // frame adds each id's gap.
    {
        let mut frame = StepFrame::default();
        frame.begin_refresh();
        check(&frame.refresh, "empty ghost refresh");
        check(&Arc::new(frame.clone()), "empty refresh step frame");
        for i in 0..6 {
            frame.refresh.pos.push(Vec3::new(i as f64, 1.25, 1.5));
        }
        check(&frame.refresh, "ghost refresh");
        assert_eq!(frame.refresh.wire_size(), 1 + 8 + 24 * 6);
        check(&Arc::new(frame), "refresh step frame");
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

/// A shell frame holding `ids` (strictly ascending), built the way the
/// exchange builds one: staged on a codec and packed.
fn shell_frame(ids: &[u64]) -> GhostShellFrame {
    let mut tx = DeltaChannel::default();
    tx.scratch.extend(ids.iter().map(|&id| (id, position(id))));
    let mut frame = GhostShellFrame::default();
    tx.encode_into(false, &mut frame);
    frame
}

fn position(id: u64) -> Vec3 {
    Vec3::new(id as f64, -((id % 97) as f64), 0.5)
}

/// Both ends' pins on one id set: the frame's charge is its reference
/// encoding, which decodes back to it, and so does the codec.
fn check_compact(ids: &[u64]) {
    let frame = shell_frame(ids);
    let mut bytes = Vec::new();
    frame.encode(&mut bytes);
    assert_eq!(frame.wire_size(), bytes.len(), "shell frame of {ids:?}");
    assert_eq!(decode_full(&bytes), Ok(frame.parts.clone()));
    let mut out = Vec::new();
    let Ok(()) = DeltaChannel::default().decode_into(&frame, &mut out);
    let decoded: Vec<GhostPart> = out.iter().map(|&(id, pos)| GhostPart { id, pos }).collect();
    assert_eq!(decoded, frame.parts);
}

#[test]
fn the_compact_layout_prices_its_gaps_at_the_varint_boundaries() {
    // Gaps 127, 128, 16383, 16384 take 1, 2, 2, 3 bytes; the first id 0
    // one byte, the last gap to u64::MAX ten.
    let ids = [0, 127, 255, 16638, 33022, u64::MAX];
    let frame = shell_frame(&ids);
    assert_eq!(frame.wire_size(), 9 + (1 + 1 + 2 + 2 + 3 + 10) + 24 * 6);
    check_compact(&ids);
    check_compact(&ids[2..]);
    check_compact(&[u64::MAX]);
    check_compact(&[]);
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
    /// Any strictly ascending id set — from 0 or from anywhere, through
    /// gaps on both sides of each varint byte boundary, up to `u64::MAX` —
    /// round-trips through the reference layout at the size `wire_size`
    /// charges, and so does every thinned copy of it.
    #[test]
    fn prop_compact_frames_round_trip_at_their_charge(
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
        check_compact(&ids);
        check_compact(&thinned);
    }
}

#[test]
fn the_reference_decoder_refuses_malformed_frames_with_typed_errors() {
    let mut good = Vec::new();
    shell_frame(&[3, 5, 300]).encode(&mut good);
    // Every strict prefix ends inside the frame.
    for cut in 0..good.len() {
        assert_eq!(
            decode_full(&good[..cut]),
            Err(CompactError::Truncated),
            "cut {cut}"
        );
    }
    let mut trailing = good.clone();
    trailing.push(0);
    assert_eq!(
        decode_full(&trailing),
        Err(CompactError::Trailing { bytes: 1 })
    );
    // A refresh's kind byte.
    let mut refresh = good.clone();
    refresh[0] = 1;
    assert_eq!(decode_full(&refresh), Err(CompactError::NotShell(1)));
    let frame = |n: u64, gaps: &[u8]| {
        let mut bytes = vec![0];
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(gaps);
        bytes
    };
    // Eleven bytes, every one with its continuation bit set.
    assert_eq!(
        decode_full(&frame(1, &[0x80; 11])),
        Err(CompactError::VarintTooLong)
    );
    // A tenth byte holding more than the top bit of a u64.
    let mut wide = vec![0xff; 9];
    wide.push(0x02);
    assert_eq!(decode_full(&frame(1, &wide)), Err(CompactError::Overflow));
    // u64::MAX, then a gap of 1 past it.
    let mut past = vec![0xff; 9];
    past.extend([0x01, 0x01]);
    assert_eq!(decode_full(&frame(2, &past)), Err(CompactError::Overflow));
    // A repeated id.
    assert_eq!(
        decode_full(&frame(2, &[0x05, 0x00])),
        Err(CompactError::ZeroGap { index: 1 })
    );
    // A length prefix of u64::MAX over three bytes: refused as truncated,
    // and nothing was sized from it.
    assert_eq!(
        decode_full(&frame(u64::MAX, &[1, 1, 1])),
        Err(CompactError::Truncated)
    );
}
