//! The step-frame decoder on real frames, and on every way to break them.
//!
//! The frames are the ones a 3 × 3 balancing run's ranks received in one
//! step — migrants, loads with a decision, ghosts, all in the single
//! exchange a 3 × 3 torus sends — and in one mid-epoch refresh of the
//! same run with a skin. Each is cut at every byte, has bytes flipped at
//! seeded places, and has its counts raised past what it holds. Every
//! input decodes to a frame or a typed error, never a panic; the
//! truncations and the raised counts are always errors; and no buffer of
//! the decoder grows past twice the items the input's bytes could hold.

use pcdlb_mp::wire::put_leb128;
use pcdlb_sim::frame::{Arrival, FrameError, Received};
use pcdlb_sim::pe::received_frames;
use pcdlb_sim::{DomainShape, Lattice, RunConfig};

/// A clustered 3 × 3 pillar torus, balancing every step, run for `steps`.
fn balancing(steps: u64, skin: f64) -> RunConfig {
    let mut cfg = RunConfig::from_p_m_density(9, 2, 0.128);
    cfg.lattice = Lattice::Cluster { fill: 0.45 };
    cfg.dlb = true;
    cfg.skin = skin;
    cfg.steps = steps;
    cfg
}

/// The frames of the first run of `runs` whose last exchange brought one
/// that `wanted` accepts.
fn frames_where(
    runs: impl Iterator<Item = RunConfig>,
    wanted: impl Fn(&Received) -> bool,
) -> Vec<(Arrival, Vec<u8>)> {
    for cfg in runs {
        let frames = received_frames(&cfg, DomainShape::SquarePillar);
        let found = frames.iter().any(|(arrival, bytes)| {
            let mut got = Received::default();
            got.decode(bytes, *arrival).expect("a real frame decodes");
            wanted(&got)
        });
        if found {
            return frames;
        }
    }
    panic!("no run brought the frame wanted");
}

/// Decode `input` into a fresh decoder: the result, after checking that
/// no buffer was reserved past twice the items its bytes could hold.
fn decode(input: &[u8], arrival: Arrival) -> Result<(), FrameError> {
    let mut got = Received::default();
    let result = got.decode(input, arrival);
    let caps = [
        got.migrants.capacity(),
        got.loads.capacity(),
        got.ghosts.capacity(),
        got.refresh.capacity(),
    ];
    for (heads, items) in caps {
        let bound = 8.max(2 * input.len());
        assert!(
            heads <= bound && items <= bound,
            "{heads} heads, {items} items reserved for {} bytes",
            input.len()
        );
    }
    result
}

/// The offset and length of the LEB128 varint at `at`.
fn varint(bytes: &[u8], at: usize) -> (u64, usize) {
    let mut v = 0;
    for (i, b) in bytes[at..].iter().enumerate() {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return (v, i + 1);
        }
    }
    panic!("a varint runs off the frame");
}

/// `bytes` with the varint at `at` replaced by `v`.
fn with_varint(bytes: &[u8], at: usize, v: u64) -> Vec<u8> {
    let (_, len) = varint(bytes, at);
    let mut out = bytes[..at].to_vec();
    put_leb128(v, &mut out);
    out.extend_from_slice(&bytes[at + len..]);
    out
}

/// Everything that can be done to one frame; returns how many of its
/// byte flips still decoded.
fn attack(arrival: Arrival, frame: &[u8], seed: u64) -> usize {
    assert_eq!(decode(frame, arrival), Ok(()));
    for cut in 0..frame.len() {
        assert!(
            matches!(
                decode(&frame[..cut], arrival),
                Err(FrameError::Decode(pcdlb_mp::DecodeError::Truncated))
            ),
            "cut at {cut} of {}",
            frame.len()
        );
    }
    if frame.len() == 1 {
        return 0; // nothing but the presence byte: no count to raise
    }
    // The first list's section count, then its first section's mask,
    // origin and — but for a load section — item count.
    let (sections, len) = varint(frame, 1);
    let head = 1 + len;
    let (_, mask_len) = varint(frame, head);
    let (_, origin_len) = varint(frame, head + mask_len);
    let count_at = head + mask_len + origin_len;
    let mut claims = vec![(1, sections + 1), (1, sections * 1000), (1, u64::MAX)];
    if frame[0] & 0b10 == 0 || frame[0] & 0b01 != 0 {
        let (items, _) = varint(frame, count_at);
        claims.extend([items + 1, items * 1000, u64::MAX >> 1, u64::MAX].map(|c| (count_at, c)));
    }
    for (at, claim) in claims {
        let lying = with_varint(frame, at, claim);
        assert!(
            decode(&lying, arrival).is_err(),
            "a count of {claim} at byte {at} decoded"
        );
    }
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut decoded = 0;
    for _ in 0..200 {
        let mut flipped = frame.to_vec();
        let at = next() as usize % flipped.len();
        flipped[at] ^= 1 << (next() % 8);
        decoded += usize::from(decode(&flipped, arrival).is_ok());
    }
    decoded
}

#[test]
fn real_frames_decode_and_every_broken_one_is_a_typed_error() {
    // One step of the balancing torus whose frames carry migrants, a
    // decision and ghosts.
    let decides = |f: &Received| f.loads.iter().any(|(_, l)| l[0].1.is_some());
    let full = |f: &Received| !f.migrants.is_empty() && decides(f) && !f.ghosts.is_empty();
    let step = frames_where((1..=8).map(|steps| balancing(steps, 0.0)), full);
    // A mid-epoch step of the same torus with a skin: positions only.
    let refresh = |f: &Received| !f.refresh.is_empty();
    let epoch = frames_where((1..=8).map(|steps| balancing(steps, 0.05)), refresh);
    let (mut frames, mut flips, mut decoded) = (0, 0, 0);
    for (seed, (arrival, frame)) in step.iter().chain(&epoch).enumerate() {
        decoded += attack(*arrival, frame, seed as u64);
        (frames, flips) = (frames + 1, flips + 200);
    }
    assert_eq!(
        frames,
        2 * 9 * 4,
        "four hops into each of nine ranks, twice"
    );
    // A flip in a position or a load still decodes; one in the structure
    // mostly does not.
    assert!(decoded < flips, "{decoded} of {flips} flips decoded");
}
