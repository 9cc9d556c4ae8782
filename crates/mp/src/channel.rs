//! The channel substrate: an unbounded MPMC queue on a mutex + condvar.
//!
//! This is the one piece of the message-passing layer that touches real
//! synchronisation primitives; everything above it ([`crate::comm`],
//! [`crate::collectives`]) is deterministic given `(src, tag)` matching.
//! Keeping the queue in-tree (rather than pulling in an external channel
//! crate) keeps the repo dependency-free and — more importantly for the
//! verification tooling — leaves a single, auditable point where message
//! *arrival order* is decided. The delivery policies a model checker
//! installs (see [`crate::check`]) permute delivery order above this queue.
//!
//! Semantics, matching what [`crate::world::World`] needs:
//!
//! - `send` never blocks (unbounded buffering) and fails only when every
//!   receiver is gone;
//! - `recv_timeout` blocks until a message, a timeout, or disconnection
//!   (queue empty and every sender dropped);
//! - senders are cheaply cloneable and `Sync`, one per destination rank.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

// Under `--cfg loom` the queue's sync primitives come from the loom shim,
// so `tests/loom.rs` can model-check send/recv/disconnect handoffs. The
// shim passes through to plain std behaviour outside `loom::model`, so the
// rest of the crate (which runs on real threads) is unaffected.
#[cfg(loom)]
use loom::sync::{Arc, Condvar, Mutex};
#[cfg(not(loom))]
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`Sender::send`] when all receivers are gone; carries
/// the unsent value back like `std::sync::mpsc::SendError`.
pub struct SendError<T>(pub T);

// Manual impl so `Result<(), SendError<T>>::expect` works for payloads that
// aren't themselves `Debug` (e.g. `Box<dyn Any>` envelopes).
impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout; senders still connected.
    Timeout,
    /// The queue is empty and every sender has been dropped.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message currently queued; senders still connected.
    Empty,
    /// The queue is empty and every sender has been dropped.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    arrived: Condvar,
}

/// The sending half of an unbounded channel. Clone one per producer.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half of an unbounded channel.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        arrived: Condvar::new(),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl<T> Sender<T> {
    /// Enqueue `value`; never blocks. Fails only when every receiver has
    /// been dropped (the value is handed back).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.chan.state.lock().expect("channel mutex poisoned");
        if st.receivers == 0 {
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        drop(st);
        self.chan.arrived.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        let mut st = self.chan.state.lock().expect("channel mutex poisoned");
        st.senders += 1;
        drop(st);
        Self {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock().expect("channel mutex poisoned");
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            // Wake receivers blocked in recv_timeout so they can observe
            // disconnection instead of sleeping out their full timeout.
            self.chan.arrived.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.chan.state.lock().expect("channel mutex poisoned");
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .chan
                .arrived
                .wait_timeout(st, deadline - now)
                .expect("channel mutex poisoned");
            st = guard;
        }
    }

    /// Dequeue the next message if one is already queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.chan.state.lock().expect("channel mutex poisoned");
        if let Some(v) = st.queue.pop_front() {
            return Ok(v);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.chan.state.lock().expect("channel mutex poisoned");
        st.receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_recv_roundtrips() {
        let (tx, rx) = unbounded();
        tx.send(42u64).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(42));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let (tx, rx) = unbounded();
        for i in 0..100u32 {
            tx.send(i).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(i));
        }
    }

    #[test]
    fn timeout_when_empty() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
    }

    #[test]
    fn disconnected_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u8>();
        let tx2 = tx.clone();
        tx2.send(1).unwrap();
        drop(tx);
        drop(tx2);
        // Queued message still delivered, then disconnection.
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(1));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_fails_after_receiver_drops() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(7).is_err());
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn blocked_receiver_wakes_on_send_from_other_thread() {
        let (tx, rx) = unbounded::<u64>();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        tx.send(9).unwrap();
        assert_eq!(h.join().unwrap(), Ok(9));
    }

    #[test]
    fn blocked_receiver_wakes_on_disconnect() {
        let (tx, rx) = unbounded::<u64>();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    }
}
