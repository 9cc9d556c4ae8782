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

impl RefEncode for u32 {
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

impl RefEncode for GhostPart {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.pos.encode(out);
    }
}

impl RefEncode for GhostShellFrame {
    /// The *actual* layout (what `encoded_size` reports): a 1-byte delta
    /// flag, then either the length-prefixed full list or the delta
    /// sections (u32 prev_len, u64 fingerprint, then the length-prefixed
    /// bitmap, survivor positions, and arrivals).
    fn encode(&self, out: &mut Vec<u8>) {
        (self.delta as u8).encode(out);
        if self.delta {
            self.prev_len.encode(out);
            self.prev_check.encode(out);
            self.survive.encode(out);
            self.moved.encode(out);
            self.arrivals.encode(out);
        } else {
            self.full.encode(out);
        }
    }
}

impl RefEncode for GhostRefresh {
    /// The ghost section's third encoding, after full (kind byte 0) and
    /// delta (1): kind byte 2, then the length-prefixed positions.
    fn encode(&self, out: &mut Vec<u8>) {
        2u8.encode(out);
        self.pos.encode(out);
    }
}

impl RefEncode for StepFrame {
    /// The actual layout: 1-byte presence header + migrant section,
    /// Option-encoded load, the decision section when its header bit is
    /// set, 1-byte presence header + ghost section (a shell frame or a
    /// mid-epoch refresh; its own first byte says which). The
    /// ghost-resync request bit rides bit 1 of the round-1 presence
    /// header and the decision's presence bit 2, so neither costs a wire
    /// byte.
    fn encode(&self, out: &mut Vec<u8>) {
        let header = (self.has_migrants as u8)
            | ((self.resync as u8) << 1)
            | ((self.decision.is_some() as u8) << 2);
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

/// For frames whose canonical and actual layouts diverge (delta ghost
/// frames): the reference encoder pins the actual layout.
fn check_encoded<T: WireSize + RefEncode>(value: &T, what: &str) {
    assert_eq!(
        value.encoded_size(),
        value.encoded_len(),
        "encoded_size mismatch for {what}"
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
        check_encoded(&Arc::new(dlb.clone()), "round-1 step frame with decision");
        // Canonical = encoded = the frame it always was + the section.
        assert_eq!(dlb.wire_size(), plain + 40);
        let mut resync = StepFrame::default();
        resync.begin_round1(None, None);
        resync.resync = true;
        // The resync bit packs into the presence header: same byte count.
        check(&Arc::new(resync), "round-1 step frame with resync bit");
    }
    // pe/exchange.rs: STEP_FRAME round 2 carries the ghost shell; plane.rs and
    // cube.rs ship the bare shell frame on their own ghost tags.
    {
        let mut tx = DeltaChannel::default();
        let mut frame = StepFrame::default();
        frame.begin_round2();
        for i in 0..6u64 {
            tx.scratch.push((i * 2, Vec3::new(i as f64, 1.0, 1.5)));
        }
        tx.encode_into(true, &mut frame.ghosts);
        assert!(!frame.ghosts.delta, "first frame is full");
        check(&Arc::new(frame.clone()), "round-2 step frame, full ghosts");
        // Second frame on the channel: a real delta (moves + one leave +
        // one join), enough survivors for the delta to win on size.
        for i in 1..6u64 {
            tx.scratch.push((i * 2, Vec3::new(i as f64, 1.25, 1.5)));
        }
        tx.scratch.push((11, Vec3::new(3.0, 3.0, 3.0)));
        tx.encode_into(true, &mut frame.ghosts);
        assert!(frame.ghosts.delta);
        check_encoded(&frame.ghosts, "delta ghost shell");
        check_encoded(&Arc::new(frame.clone()), "round-2 step frame, delta");
        // The canonical charge stays content-based under either encoding.
        assert_eq!(frame.ghosts.wire_size(), 1 + 8 + 32 * 6);
        check(&GhostShellFrame::default(), "empty ghost shell");
    }
    // pe/exchange.rs: STEP_FRAME on a mid-epoch step carries the positions-only
    // refresh and nothing else — one layout, so canonical == encoded, at
    // 24 bytes per ghost where the shell frame is charged 32.
    {
        let mut frame = StepFrame::default();
        frame.begin_refresh();
        check(&frame.refresh, "empty ghost refresh");
        check(&Arc::new(frame.clone()), "empty refresh step frame");
        for i in 0..6 {
            frame.refresh.pos.push(Vec3::new(i as f64, 1.25, 1.5));
        }
        check(&frame.refresh, "ghost refresh");
        check_encoded(&frame.refresh, "ghost refresh");
        assert_eq!(frame.refresh.wire_size(), 1 + 8 + 24 * 6);
        check(&Arc::new(frame.clone()), "refresh step frame");
        check_encoded(&Arc::new(frame), "refresh step frame");
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
