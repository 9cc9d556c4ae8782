//! Loom model-checking tests for the two components of `pcdlb-mp` that
//! touch real synchronisation: the [`pcdlb_mp::pool::BufferPool`]
//! uniqueness argument (an `Arc` strong-count protocol racing a
//! receiver-side drop) and the [`pcdlb_mp::channel`] mutex + condvar
//! queue (wakeups on send and on disconnect, and the abort-flag
//! handoff protocol layered on `try_recv`).
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`, where the pool's `Arc`
//! and the channel's `Mutex`/`Condvar` come from the loom shim: every
//! clone/drop/lock/wait/notify is a schedule point and `loom::model`
//! explores all interleavings up to the preemption bound
//! (`LOOM_MAX_PREEMPTIONS`, default 2).
//!
//! `loom::deadlock_breaks()` counts how often the model had to expire a
//! timed wait because *nothing* else could run. A correct wakeup
//! protocol never needs that rescue, so asserting it stays `0` proves no
//! wakeup was lost — the blocked receiver was always woken by the
//! notify, never by its timeout.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use pcdlb_mp::channel::{unbounded, RecvTimeoutError};
use pcdlb_mp::pool::BufferPool;
use std::time::Duration;

/// The pool's soundness argument: a slot is handed out only when its
/// strong count is 1, and no other thread can mint a clone from a count
/// of 1 — so under EVERY interleaving of the receiver's drop with the
/// next checkout, the checked-out buffer is uniquely owned (`get_mut`
/// succeeds) and never aliases the in-flight message.
#[test]
fn pool_checkout_never_aliases_in_flight_buffer() {
    loom::model(|| {
        let mut pool: BufferPool<Vec<u64>> = BufferPool::new();
        let mut a = pool.checkout();
        Arc::get_mut(&mut a)
            .expect("fresh buffer is unique")
            .push(7);
        let in_flight = Arc::clone(&a); // the "message"
        pool.checkin(a);
        let receiver = loom::thread::spawn(move || drop(in_flight));
        // Racing the receiver's drop: this checkout must either reuse the
        // slot after the drop landed (count back to 1) or allocate fresh
        // — never hand out a buffer the receiver still reads.
        let mut b = pool.checkout();
        assert!(
            Arc::get_mut(&mut b).is_some(),
            "checkout handed out a buffer still shared with the receiver"
        );
        receiver.join().unwrap();
    });
}

/// A receiver blocked in `recv_timeout` is woken by the send's notify in
/// every schedule — including the one where the send's unlock and its
/// notify are separated by a context switch.
#[test]
fn channel_send_wakes_blocked_receiver() {
    loom::model(|| {
        let (tx, rx) = unbounded::<u64>();
        let sender = loom::thread::spawn(move || {
            tx.send(9).unwrap();
        });
        let got = rx.recv_timeout(Duration::from_secs(60));
        sender.join().unwrap();
        assert_eq!(got, Ok(9));
        assert_eq!(
            loom::deadlock_breaks(),
            0,
            "receiver had to be rescued by its timeout: lost wakeup"
        );
    });
}

/// Dropping the last sender must wake a blocked receiver into
/// `Disconnected` — the shutdown path every rank takes at teardown. A
/// lost disconnect wakeup would leave ranks parked for their full
/// watchdog timeout.
#[test]
fn channel_disconnect_wakes_blocked_receiver() {
    loom::model(|| {
        let (tx, rx) = unbounded::<u64>();
        let sender = loom::thread::spawn(move || drop(tx));
        let got = rx.recv_timeout(Duration::from_secs(60));
        sender.join().unwrap();
        assert_eq!(got, Err(RecvTimeoutError::Disconnected));
        assert_eq!(
            loom::deadlock_breaks(),
            0,
            "receiver had to be rescued by its timeout: lost wakeup"
        );
    });
}

/// The abort-flag handoff used by `Comm`: a message sent BEFORE the
/// abort flag is raised must never be lost by a receiver that polls
/// `try_recv` and exits on abort. The protocol requires one final drain
/// after observing the flag; this checks that ordering suffices under
/// every interleaving of send / store / poll.
#[test]
fn abort_flag_handoff_never_drops_prior_message() {
    loom::model(|| {
        let (tx, rx) = unbounded::<u64>();
        let abort = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&abort);
        let sender = loom::thread::spawn(move || {
            tx.send(1).unwrap(); // happens-before the abort store
            flag.store(true, Ordering::SeqCst);
        });
        let got;
        loop {
            if let Ok(v) = rx.try_recv() {
                got = Some(v);
                break;
            }
            if abort.load(Ordering::SeqCst) {
                // Abort observed: the send happened-before it, so one
                // final drain must find the message.
                got = rx.try_recv().ok();
                break;
            }
            loom::thread::yield_now();
        }
        sender.join().unwrap();
        assert_eq!(got, Some(1), "message sent before abort was dropped");
    });
}
