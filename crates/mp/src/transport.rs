//! The disturbance model of a lossy substrate: what happens to a frame
//! between two rank hosts.
//!
//! The in-process world delivers every envelope exactly once, in order,
//! over the in-tree channel — a perfect network, as the paper's T3E was.
//! Real substrates (Grid nodes, commodity clusters) drop, duplicate,
//! reorder and stall frames. A [`LossyProfile`], set as
//! [`CommConfig::chaos`](crate::CommConfig::chaos), models that: it
//! assigns each physical frame on each directed host-to-host link a
//! **fate** — delivered, dropped, duplicated, or delayed (bounded
//! reordering: "let k later frames overtake this one") — and can cut
//! timed bidirectional partitions, expressed in per-link frame-index
//! windows. A fate is a *pure function* of the profile's seed, the link
//! and the frame's per-link index: no clocks, no RNG state, so the same
//! profile assigns the same fates in every run and chaos runs are
//! replayable. Without a profile no fate is ever asked, and no rank
//! builds the link layer that heals them (`crate::link`).
//!
//! Fates are consulted **before** the physical channel send, so a
//! "dropped" frame never reaches the receiver's mailbox and must be
//! re-sent by the end-to-end link layer; a "delivered" frame is
//! guaranteed present (the in-process channel underneath is reliable),
//! so later retransmissions of it travel as header-only probes.
//!
//! Partitions are windows in frame-index space rather than wall time:
//! every physical transmission attempt on a link — including
//! retransmissions and heartbeats — consumes one index, so a partition
//! window always heals under retransmit pressure and a chaos run never
//! depends on host timing to terminate.

/// What the profile does with one physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// The frame reaches the receiver's mailbox.
    Deliver,
    /// The frame vanishes; the sender keeps the payload for retransmit.
    Drop,
    /// The frame is delivered twice (the copy travels as a header-only
    /// duplicate with the same sequence number, so the receiver's
    /// duplicate suppression absorbs it).
    Duplicate,
    /// The frame is delivered late: up to `k` subsequent frames on the
    /// same link may overtake it (bounded reordering / latency jitter).
    Delay(u8),
}

/// A timed bidirectional partition between hosts `a` and `b`: every
/// frame in either direction whose per-link frame index falls in
/// `[from_frame, to_frame)` is dropped — data, retransmits, acks and
/// heartbeats alike. Because indices advance on every transmission
/// attempt, a finite window always heals under retransmit pressure;
/// `to_frame = u64::MAX` models a permanent partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// One endpoint host.
    pub a: usize,
    /// The other endpoint host.
    pub b: usize,
    /// First per-link frame index affected.
    pub from_frame: u64,
    /// First per-link frame index past the window (exclusive).
    pub to_frame: u64,
}

impl Partition {
    fn covers(&self, src: usize, dst: usize, frame_index: u64) -> bool {
        let pair = (src == self.a && dst == self.b) || (src == self.b && dst == self.a);
        pair && frame_index >= self.from_frame && frame_index < self.to_frame
    }
}

/// A seeded disturbance model: pure data, so it can live inside a run
/// configuration that derives `PartialEq`/`Clone`. Rates are per-mille
/// of physical frames; `seed` makes every run of the same profile assign
/// identical fates. [`CommConfig::check`](crate::CommConfig::check)
/// judges it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LossyProfile {
    /// Seed for the per-frame fate hash.
    pub seed: u64,
    /// Fraction of frames dropped, per mille.
    pub drop_per_mille: u32,
    /// Fraction of frames duplicated, per mille.
    pub dup_per_mille: u32,
    /// Fraction of frames delayed (bounded reordering), per mille.
    pub delay_per_mille: u32,
    /// Maximum number of later frames that may overtake a delayed one.
    pub delay_max: u8,
    /// Timed bidirectional partitions, in per-link frame-index windows.
    pub partitions: Vec<Partition>,
}

impl LossyProfile {
    /// A profile with the given seed and no disturbances. Callers set
    /// the rate fields and partitions they want.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Add partitions isolating `rank` from every other host of a
    /// `size`-rank world, starting at per-link frame index `from_frame`
    /// and lasting until `to_frame` (use `u64::MAX` for permanent).
    pub fn isolate(mut self, rank: usize, size: usize, from_frame: u64, to_frame: u64) -> Self {
        for other in 0..size {
            if other != rank {
                self.partitions.push(Partition {
                    a: rank,
                    b: other,
                    from_frame,
                    to_frame,
                });
            }
        }
        self
    }

    /// The fate of the `frame_index`-th physical frame from host `src`
    /// to host `dst`: a partition window drops it, else a splitmix64
    /// finalizer over `(seed, src, dst, frame_index)` picks by rate, so
    /// two equal profiles agree on the fate of every frame ever sent.
    /// The profile must have passed `CommConfig::check`.
    pub(crate) fn fate(&self, src: usize, dst: usize, frame_index: u64) -> Fate {
        if self
            .partitions
            .iter()
            .any(|p| p.covers(src, dst, frame_index))
        {
            return Fate::Drop;
        }
        let mut z = self
            .seed
            .wrapping_add((src as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((dst as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(frame_index.wrapping_mul(0x94d0_49bb_1331_11eb));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let h = z ^ (z >> 31);
        let r = (h % 1000) as u32;
        if r < self.drop_per_mille {
            Fate::Drop
        } else if r < self.drop_per_mille + self.dup_per_mille {
            Fate::Duplicate
        } else if r < self.drop_per_mille + self.dup_per_mille + self.delay_per_mille {
            let span = self.delay_max.max(1) as u64;
            Fate::Delay(1 + ((h >> 10) % span) as u8)
        } else {
            Fate::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(seed: u64) -> LossyProfile {
        LossyProfile {
            seed,
            drop_per_mille: 100,
            dup_per_mille: 50,
            delay_per_mille: 100,
            delay_max: 3,
            partitions: Vec::new(),
        }
    }

    #[test]
    fn a_quiet_profile_always_delivers() {
        let t = LossyProfile::new(5);
        for i in 0..64 {
            assert_eq!(t.fate(0, 1, i), Fate::Deliver);
        }
    }

    #[test]
    fn fates_are_deterministic_and_replayable() {
        let a = lossy(42);
        let b = lossy(42);
        for i in 0..4096 {
            assert_eq!(a.fate(2, 5, i), b.fate(2, 5, i));
        }
    }

    #[test]
    fn different_seeds_and_links_decorrelate() {
        let a = lossy(1);
        let b = lossy(2);
        let fa: Vec<Fate> = (0..512).map(|i| a.fate(0, 1, i)).collect();
        let fb: Vec<Fate> = (0..512).map(|i| b.fate(0, 1, i)).collect();
        assert_ne!(fa, fb, "seeds must decorrelate");
        let rev: Vec<Fate> = (0..512).map(|i| a.fate(1, 0, i)).collect();
        assert_ne!(fa, rev, "link directions must decorrelate");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let t = lossy(7);
        let n = 100_000u64;
        let dropped = (0..n).filter(|&i| t.fate(0, 3, i) == Fate::Drop).count();
        // 10% nominal; accept a generous band (hash, not exact stream).
        assert!((5_000..15_000).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn delay_is_bounded_by_delay_max() {
        let t = lossy(9);
        for i in 0..100_000 {
            if let Fate::Delay(k) = t.fate(1, 2, i) {
                assert!((1..=3).contains(&k), "delay {k} out of [1, 3]");
            }
        }
    }

    #[test]
    fn partition_drops_both_directions_within_window_only() {
        let t = LossyProfile {
            seed: 0,
            partitions: vec![Partition {
                a: 0,
                b: 1,
                from_frame: 10,
                to_frame: 20,
            }],
            ..LossyProfile::default()
        };
        for (src, dst) in [(0usize, 1usize), (1, 0)] {
            for i in 0..30 {
                let want = if (10..20).contains(&i) {
                    Fate::Drop
                } else {
                    Fate::Deliver
                };
                assert_eq!(t.fate(src, dst, i), want, "link {src}->{dst} frame {i}");
            }
        }
        // An uninvolved link is untouched.
        assert_eq!(t.fate(0, 2, 15), Fate::Deliver);
    }

    #[test]
    fn isolate_builds_partitions_to_every_peer() {
        let t = LossyProfile::new(3).isolate(2, 4, 40, u64::MAX);
        assert_eq!(t.partitions.len(), 3);
        for other in [0usize, 1, 3] {
            assert_eq!(t.fate(2, other, 40), Fate::Drop);
            assert_eq!(t.fate(other, 2, 39), Fate::Deliver);
        }
    }
}
