//! Collective operations built on point-to-point messaging.
//!
//! These mirror the MPI collectives the paper's SPMD implementation relies
//! on (`MPI_Barrier`, `MPI_Allreduce`, gathers for statistics collection),
//! implemented the way a distributed machine would: a dissemination
//! barrier, binomial-tree reduce/broadcast, and gather to a
//! root. All ranks must call the same collective with the same `tag`; the
//! tag keeps concurrent phases of a program from interfering.
//!
//! Tags passed in are offset into a reserved high range so that collective
//! traffic can never collide with application point-to-point tags.

use crate::comm::{Comm, Tag};
use crate::wire::{Decode, Encode};

/// Collective tags live above this bit so they cannot collide with
/// application tags (which the simulator keeps below it). Public so the
/// `pcdlb-check` static verifier can model the collective tag namespace
/// exactly as it exists on the wire.
pub const COLLECTIVE_BIT: Tag = 1 << 62;

/// The wire tag of round `round` of a collective using application tag
/// `tag` — the namespacing rule the verifier must share.
pub fn ctag(tag: Tag, round: u64) -> Tag {
    // Rounds of one collective call are separated by the round number;
    // successive collective calls reusing the same `tag` are safe because
    // per-(src,dst) delivery is FIFO and every rank participates in every
    // call in the same order.
    COLLECTIVE_BIT | (tag << 8) | round
}

/// Dissemination barrier: O(log P) rounds, each rank sends one token per
/// round. All ranks must call it with the same `tag`.
pub fn barrier(comm: &mut Comm, tag: Tag) {
    let p = comm.size();
    if p == 1 {
        return;
    }
    let rank = comm.rank();
    let mut step = 1usize;
    let mut round = 0u64;
    while step < p {
        let to = (rank + step) % p;
        let from = (rank + p - step) % p;
        comm.send(to, ctag(tag, round), ());
        let () = comm.recv(from, ctag(tag, round));
        step <<= 1;
        round += 1;
    }
}

/// Binomial-tree reduction to rank 0. Every rank must call it; only rank 0
/// receives `Some(result)`. `op` must be associative; evaluation order is
/// deterministic (tree order), so floating-point results are reproducible
/// run-to-run for a fixed `P`.
pub fn reduce<T, F>(comm: &mut Comm, tag: Tag, value: T, op: F) -> Option<T>
where
    T: Encode + Decode,
    F: Fn(T, T) -> T,
{
    let p = comm.size();
    let rank = comm.rank();
    let mut acc = value;
    let mut step = 1usize;
    // Standard binomial tree: in round k, ranks with the (k+1) low bits
    // zero receive from rank + 2^k; ranks with low bits == 2^k send.
    while step < p {
        if rank.is_multiple_of(2 * step) {
            let src = rank + step;
            if src < p {
                let other: T = comm.recv(src, ctag(tag, step as u64));
                acc = op(acc, other);
            }
        } else if rank % (2 * step) == step {
            let dst = rank - step;
            comm.send(dst, ctag(tag, step as u64), acc);
            // Sender's work is done; it still must keep a value to move
            // (ownership passed into send), so return None below.
            return {
                // Participate in no further rounds.
                None
            };
        }
        step <<= 1;
    }
    if rank == 0 {
        Some(acc)
    } else {
        None
    }
}

/// Binomial-tree broadcast from rank 0. All ranks must call it; rank 0
/// passes the value, other ranks pass a placeholder via `None` and get the
/// broadcast value back.
pub fn bcast<T: Encode + Decode>(comm: &mut Comm, tag: Tag, value: Option<T>) -> T {
    let p = comm.size();
    let rank = comm.rank();
    if rank == 0 {
        assert!(value.is_some(), "bcast: root must supply the value");
    }
    let mut have = value;
    // Mirror of the reduce tree: in round `step` (descending), holders at
    // multiples of 2*step send to rank+step.
    let mut top = 1usize;
    while top < p {
        top <<= 1;
    }
    let mut step = top >> 1;
    while step >= 1 {
        if rank.is_multiple_of(2 * step) {
            let dst = rank + step;
            if dst < p {
                let v = have.as_ref().expect("bcast: holder has value");
                comm.send(dst, ctag(tag, step as u64), v);
            }
        } else if rank % (2 * step) == step {
            let src = rank - step;
            let v: T = comm.recv(src, ctag(tag, step as u64));
            have = Some(v);
        }
        step >>= 1;
    }
    have.expect("bcast: every rank holds the value at the end")
}

/// Allreduce = reduce-to-0 followed by broadcast. Deterministic evaluation
/// order. All ranks receive the combined value.
pub fn allreduce<T, F>(comm: &mut Comm, tag: Tag, value: T, op: F) -> T
where
    T: Encode + Decode,
    F: Fn(T, T) -> T,
{
    let reduced = reduce(comm, tag, value, op);
    bcast(comm, tag.wrapping_add(1 << 20), reduced)
}

/// Gather every rank's value to rank 0 in rank order. Only rank 0 receives
/// `Some(vec)`.
pub fn gather<T: Encode + Decode>(comm: &mut Comm, tag: Tag, value: T) -> Option<Vec<T>> {
    let p = comm.size();
    let rank = comm.rank();
    if rank == 0 {
        let mut out = Vec::with_capacity(p);
        out.push(value);
        for src in 1..p {
            out.push(comm.recv(src, ctag(tag, 0)));
        }
        Some(out)
    } else {
        comm.send(0, ctag(tag, 0), value);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn barrier_completes_for_various_sizes() {
        for p in [1, 2, 3, 4, 7, 9, 16, 36] {
            World::new(p).run(|comm| {
                for round in 0..3 {
                    barrier(comm, 100 + round);
                }
                assert_eq!(comm.pending_len(), 0, "barrier left stray messages");
            });
        }
    }

    #[test]
    fn barrier_actually_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        World::new(8).run(|comm| {
            before.fetch_add(1, Ordering::SeqCst);
            barrier(comm, 1);
            // After the barrier, every rank must observe all 8 arrivals.
            if before.load(Ordering::SeqCst) != 8 {
                violations.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn reduce_sums_to_root_only() {
        for p in [1, 2, 5, 8, 13, 36] {
            let out =
                World::new(p).run(|comm| reduce(comm, 2, (comm.rank() + 1) as u64, |a, b| a + b));
            let expect: u64 = (1..=p as u64).sum();
            assert_eq!(out[0], Some(expect), "p={p}");
            assert!(out[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn bcast_delivers_to_all() {
        for p in [1, 2, 3, 6, 9, 17] {
            let out = World::new(p).run(|comm| {
                let v = if comm.rank() == 0 {
                    Some(vec![1u8, 2, 3])
                } else {
                    None
                };
                bcast(comm, 3, v)
            });
            assert!(out.into_iter().all(|v| v == vec![1, 2, 3]), "p={p}");
        }
    }

    #[test]
    fn allreduce_min_max_sum() {
        let p = 9;
        let out = World::new(p).run(|comm| {
            let r = comm.rank() as f64;
            let sum = allreduce(comm, 10, r, |a, b| a + b);
            let min = allreduce(comm, 11, r, f64::min);
            let max = allreduce(comm, 12, r, f64::max);
            (sum, min, max)
        });
        for (sum, min, max) in out {
            assert_eq!(sum, (0..p).sum::<usize>() as f64);
            assert_eq!(min, 0.0);
            assert_eq!(max, (p - 1) as f64);
        }
    }

    #[test]
    fn allreduce_is_deterministic_for_floats() {
        // Tree order is fixed, so repeated runs agree bitwise.
        let run = || {
            World::new(7).run(|comm| {
                let v = 0.1f64 * (comm.rank() as f64 + 1.0);
                allreduce(comm, 5, v, |a, b| a + b)
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = World::new(6).run(|comm| gather(comm, 4, comm.rank() as u32));
        assert_eq!(out[0], Some(vec![0, 1, 2, 3, 4, 5]));
        assert!(out[1..].iter().all(Option::is_none));
    }

    #[test]
    fn collectives_compose_in_sequence() {
        let out = World::new(4).run(|comm| {
            let mut acc = 0u64;
            for step in 0..10 {
                acc = allreduce(comm, 200 + step, acc + comm.rank() as u64, |a, b| a + b);
                barrier(comm, 300 + step);
            }
            acc
        });
        // All ranks agree after each allreduce, so all final values match.
        assert!(out.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let out = World::new(1).run(|comm| {
            barrier(comm, 0);
            let s = allreduce(comm, 1, 41u64, |a, b| a + b);
            gather(comm, 2, s + 1)
        });
        assert_eq!(out[0], Some(vec![42]));
    }
}

#[cfg(test)]
mod peer_death_tests {
    use super::*;
    use crate::comm::CommConfig;
    use crate::world::World;
    use std::time::Duration;

    // Tight enough that a hang fails fast, long enough that legitimate
    // progress on a loaded host is never cut short.
    fn world4() -> World {
        World::new(4).with_comm_config(&CommConfig {
            watchdog: Duration::from_secs(5),
            ..Default::default()
        })
    }

    fn assert_diagnosed(msg: &str) {
        assert!(
            msg.contains("another rank panicked")
                || msg.contains("dies mid-collective")
                || msg.contains("is gone")
                || msg.contains("watchdog deadline expired"),
            "survivor aborted without a recognisable diagnostic: {msg}"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "watchdog-bounded abort races the interpreter")]
    fn barrier_with_dead_rank_aborts_every_survivor() {
        // The dissemination barrier makes every rank transitively dependent
        // on every other, so with rank 2 dead no survivor may complete —
        // and none may hang: each must abort with its own diagnostic.
        let err = world4()
            .try_run(|comm| {
                if comm.rank() == 2 {
                    panic!("rank 2 dies mid-collective");
                }
                barrier(comm, 9);
            })
            .expect_err("the barrier cannot complete");
        let ranks: Vec<usize> = err.failures.iter().map(|f| f.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3], "every rank must report: {err}");
        for f in &err.failures {
            assert_diagnosed(&f.message);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "watchdog-bounded abort races the interpreter")]
    fn allreduce_with_dead_rank_aborts_every_survivor() {
        // Reduce-to-root + broadcast: the broadcast makes everyone depend
        // on the root, and the root depends on the dead subtree.
        let err = world4()
            .try_run(|comm| {
                if comm.rank() == 2 {
                    panic!("rank 2 dies mid-collective");
                }
                let _ = allreduce(comm, 21, comm.rank() as u64, |a, b| a + b);
            })
            .expect_err("the allreduce cannot complete");
        let ranks: Vec<usize> = err.failures.iter().map(|f| f.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3], "every rank must report: {err}");
        for f in &err.failures {
            assert_diagnosed(&f.message);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "watchdog-bounded abort races the interpreter")]
    fn gather_with_dead_rank_aborts_the_root_with_a_diagnostic() {
        // Gather is send-only for non-roots, so ranks 1 and 3 legitimately
        // complete; the root blocks on the dead rank and must abort with a
        // diagnostic (not hang), and the world still reports the failure.
        let err = world4()
            .try_run(|comm| {
                if comm.rank() == 2 {
                    panic!("rank 2 dies mid-collective");
                }
                let _ = gather(comm, 22, comm.rank() as u64);
            })
            .expect_err("the gather cannot complete at the root");
        let ranks: Vec<usize> = err.failures.iter().map(|f| f.rank).collect();
        assert!(ranks.contains(&0), "the blocked root must report: {err}");
        assert!(ranks.contains(&2), "the dead rank must report: {err}");
        for f in &err.failures {
            assert_diagnosed(&f.message);
        }
    }
}

#[cfg(test)]
mod sendrecv_tests {
    use crate::world::World;

    #[test]
    fn sendrecv_swaps_values() {
        let out = World::new(2).run(|comm| {
            let peer = 1 - comm.rank();
            comm.sendrecv(peer, 50, comm.rank() as u64 * 10)
        });
        assert_eq!(out, vec![10, 0]);
    }

    #[test]
    fn sendrecv_with_self_is_identity() {
        let out = World::new(1).run(|comm| comm.sendrecv(0, 51, 7u8));
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn sendrecv_ring_rotation() {
        let p = 5;
        let out = World::new(p).run(|comm| {
            // Everyone passes right and receives from the left — but with
            // sendrecv addressed per-peer we must split the two partners.
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(right, 52, comm.rank() as u64);
            comm.recv::<u64>(left, 52)
        });
        for (r, got) in out.into_iter().enumerate() {
            assert_eq!(got as usize, (r + p - 1) % p);
        }
    }
}
