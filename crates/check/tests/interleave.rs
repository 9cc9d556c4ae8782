//! Control for the delivery policies the model checker drives: the
//! replayed and the seeded orders really change which source's message a
//! rank is handed first, and a program that receives by source and tag
//! cannot see it. The simulator's own delivery-order independence is
//! checked in `model_negative.rs`.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use pcdlb_mp::check::{ChoicePoint, DeliveryPolicy, ReplayPolicy, SeededPolicy, TraceHandle};
use pcdlb_mp::World;

/// Rank 0 receives from rank 1, then from rank 2, by name, after both
/// messages have had time to arrive, so its first delivery choice offers
/// both. `rank0_policy` makes rank 0's policy and the handle its trace is
/// read through; the senders keep the default order. Returns what rank 0
/// computed and rank 0's first choice point.
fn first_choice(
    rank0_policy: impl Fn() -> (Box<dyn DeliveryPolicy>, TraceHandle) + Send + Sync + 'static,
) -> (u64, ChoicePoint) {
    let slot: Arc<Mutex<Option<TraceHandle>>> = Arc::default();
    let handle = Arc::clone(&slot);
    let world = World::new(3).with_start_hook(move |comm| {
        let policy = if comm.rank() == 0 {
            let (policy, trace) = rank0_policy();
            *handle.lock().expect("handle lock") = Some(trace);
            policy
        } else {
            Box::new(ReplayPolicy::new(Vec::new()).0)
        };
        comm.set_delivery_policy(policy);
    });
    let outs = world.run(|comm| {
        if comm.rank() == 0 {
            // Let both messages physically arrive before the first choice.
            std::thread::sleep(std::time::Duration::from_millis(100));
            let a: u64 = comm.recv(1, 9);
            let b: u64 = comm.recv(2, 9);
            a * 10 + b
        } else {
            comm.send(0, 9, comm.rank() as u64);
            0
        }
    });
    let trace = slot.lock().expect("handle lock").take();
    let first = trace
        .expect("rank 0's trace handle")
        .lock()
        .expect("trace lock")[0];
    (outs[0], first)
}

#[test]
fn policies_change_delivery_order_and_a_receive_by_name_cannot_see_it() {
    // Candidates are ordered by source: at rank 0's first choice, index
    // 0 is source 1's message and index 1 source 2's.
    let source = |first: ChoicePoint| [1, 2][first.taken];
    // Prefix [0] delivers source 1 first, prefix [1] source 2; both
    // messages are buffered at that choice (arity 2).
    for (prefix, src) in [(0, 1), (1, 2)] {
        let (out, first) = first_choice(move || {
            let (policy, trace) = ReplayPolicy::new(vec![prefix]);
            (Box::new(policy), trace)
        });
        assert_eq!(first.arity, 2, "prefix [{prefix}]");
        assert_eq!(source(first), src, "prefix [{prefix}]");
        assert_eq!(out, 12, "prefix [{prefix}]");
    }
    // The seeded orders the model checker adds to its fault-free cases
    // deliver each source first across a few seeds, and never move the
    // result.
    let mut sources = BTreeSet::new();
    for seed in 0..8u64 {
        let (out, first) = first_choice(move || {
            let (policy, trace) = SeededPolicy::new(seed);
            (Box::new(policy), trace)
        });
        assert_eq!(first.arity, 2, "seed {seed}");
        assert_eq!(out, 12, "seed {seed}");
        sources.insert(source(first));
    }
    assert_eq!(sources, BTreeSet::from([1, 2]), "both orders occur");
}
