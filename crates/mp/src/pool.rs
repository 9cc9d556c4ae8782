//! Reusable buffer pooling for a steady state without allocation.
//!
//! A rank that builds a fresh value per step — an outgoing frame, say —
//! allocates every step. A [`BufferPool`] lets it keep a small set of
//! `Arc`-backed buffers alive across steps: it checks a buffer out,
//! fills it in place (the allocation's capacity is retained from previous
//! steps), uses it, and checks it back in; the next checkout reuses the
//! same allocation. What travels between ranks is never the buffer but
//! its encoding (see [`crate::wire`]).
//!
//! The pool is deliberately not thread-safe (each rank owns its own); what
//! makes reuse sound is the `Arc` strong count. A slot with
//! `strong_count == 1` is owned solely by the pool, and since clones can
//! only be minted from existing handles, no other thread can resurrect a
//! reference once the count has fallen to 1 — so handing that slot out as
//! a uniquely-owned buffer is race-free. A slot still shared with a clone
//! held elsewhere (count > 1) is simply skipped; the worst a racing drop
//! can cause is one extra allocation, never aliasing.

// Under `--cfg loom` the pool runs on the loom-shim `Arc`, whose clone /
// drop / strong-count operations are schedule points — the loom tests
// model-check the uniqueness argument above under every interleaving of a
// clone's drop on another thread with a checkout.
#[cfg(loom)]
use loom::sync::Arc;
#[cfg(not(loom))]
use std::sync::Arc;

/// A pool of reusable `Arc`-backed buffers. See the module docs for the
/// checkout → fill → checkin protocol.
#[derive(Debug)]
pub struct BufferPool<T> {
    slots: Vec<Arc<T>>,
}

impl<T: Default> BufferPool<T> {
    /// An empty pool; buffers are created on demand.
    pub fn new() -> Self {
        Self { slots: Vec::new() }
    }

    /// Hand out a buffer that is guaranteed uniquely owned (so
    /// `Arc::get_mut` succeeds): a checked-in slot no clone of which is
    /// left if one exists, otherwise a fresh default value. The caller
    /// fills it and returns it via [`BufferPool::checkin`].
    pub fn checkout(&mut self) -> Arc<T> {
        match self.slots.iter().position(|s| Arc::strong_count(s) == 1) {
            Some(i) => self.slots.swap_remove(i),
            None => Arc::new(T::default()),
        }
    }

    /// Return a buffer to the pool. Outstanding clones are fine: the slot
    /// only becomes reusable once they are dropped.
    pub fn checkin(&mut self, buf: Arc<T>) {
        self.slots.push(buf);
    }

    /// Number of slots currently held (reusable or awaiting the drop of
    /// their clones). Bounded by the peak number checked out at once, not
    /// by the number of steps.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the pool holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl<T: Default> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_released_allocations() {
        let mut pool: BufferPool<Vec<u64>> = BufferPool::new();
        let mut a = pool.checkout();
        Arc::get_mut(&mut a).unwrap().extend_from_slice(&[1, 2, 3]);
        let ptr = a.as_ptr();
        pool.checkin(a);
        // No outstanding clone: the same allocation comes straight back.
        let b = pool.checkout();
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(*b, vec![1, 2, 3]);
        pool.checkin(b);
    }

    #[test]
    fn in_flight_slots_are_skipped_until_dropped() {
        let mut pool: BufferPool<Vec<u64>> = BufferPool::new();
        let mut a = pool.checkout();
        Arc::get_mut(&mut a).unwrap().extend_from_slice(&[9, 9]);
        let in_flight = Arc::clone(&a);
        let ptr = a.as_ptr();
        pool.checkin(a);
        // Another holder keeps a clone: checkout must not alias it.
        let b = pool.checkout();
        assert_ne!(b.as_ptr(), ptr);
        assert!(Arc::get_mut(&mut pool.checkout()).is_some());
        drop(in_flight);
        // Clone gone: the original slot is reusable again.
        let mut found = false;
        for _ in 0..pool.len() {
            let s = pool.checkout();
            found |= s.as_ptr() == ptr;
        }
        assert!(found);
    }
}
