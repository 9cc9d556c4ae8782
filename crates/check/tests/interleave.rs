//! Controls for the delivery policies the model checker drives: both
//! the replayed and the seeded orders can observe order dependence in a
//! program that races on arrival timing, and the seeded orders cannot
//! move a program that receives by source. The simulator's own delivery-order
//! independence is checked in `model_negative.rs`.

use std::collections::BTreeSet;

use pcdlb_mp::check::{DeliveryPolicy, ReplayPolicy, SeededPolicy};
use pcdlb_mp::World;

/// A deliberately racy program: rank 0 polls two senders with `try_recv`
/// and reports which message became visible first. Which candidate the
/// delivery policy releases first is exactly the race — different
/// policies must be able to produce different outcomes, proving the
/// checker can distinguish delivery orders at all. `rank0_policy` makes
/// rank 0's policy; the senders keep the default order.
fn racy_first_seen(
    rank0_policy: impl Fn() -> Box<dyn DeliveryPolicy> + Send + Sync + 'static,
) -> u64 {
    let world = World::new(3).with_start_hook(move |comm| {
        let policy = if comm.rank() == 0 {
            rank0_policy()
        } else {
            Box::new(ReplayPolicy::new(Vec::new()).0)
        };
        comm.set_delivery_policy(policy);
    });
    let outs = world.run(|comm| {
        if comm.rank() == 0 {
            // Let both messages physically arrive so the first poll
            // faces a genuine two-candidate choice point.
            std::thread::sleep(std::time::Duration::from_millis(100));
            let mut order = Vec::new();
            while order.len() < 2 {
                if !order.contains(&1) {
                    if let Some(v) = comm.try_recv::<u64>(1, 9) {
                        order.push(v);
                    }
                }
                if !order.contains(&2) {
                    if let Some(v) = comm.try_recv::<u64>(2, 9) {
                        order.push(v);
                    }
                }
            }
            order[0]
        } else {
            comm.send(0, 9, comm.rank() as u64);
            0
        }
    });
    outs[0]
}

#[test]
fn racy_program_outcomes_differ_across_policies() {
    // Prefix [0]: deliver source 1's message first → rank 0 sees 1 first.
    // Prefix [1]: deliver source 2's message first → rank 0 sees 2 first.
    let replayed =
        |prefix: Vec<usize>| racy_first_seen(move || Box::new(ReplayPolicy::new(prefix.clone()).0));
    assert_eq!(replayed(vec![0]), 1);
    assert_eq!(replayed(vec![1]), 2);
    // The seeded orders the model checker adds to its fault-free cases
    // tell the two apart as well: across a few seeds, rank 0 sees each
    // sender first.
    let seeded: BTreeSet<u64> = (0..8u64)
        .map(|seed| racy_first_seen(move || Box::new(SeededPolicy::new(seed).0)))
        .collect();
    assert_eq!(seeded, BTreeSet::from([1, 2]));
}

#[test]
fn deterministic_blocking_program_is_policy_independent() {
    // The same exchange written with blocking recvs named by source is
    // immune to delivery order — across many seeded policies the result
    // is constant.
    let mut results = BTreeSet::new();
    for seed in 0..8u64 {
        let world = World::new(3).with_start_hook(move |comm| {
            let policy = SeededPolicy::new(seed * 100 + comm.rank() as u64).0;
            comm.set_delivery_policy(Box::new(policy));
        });
        let outs = world.run(|comm| {
            if comm.rank() == 0 {
                let a: u64 = comm.recv(1, 9);
                let b: u64 = comm.recv(2, 9);
                a * 10 + b
            } else {
                comm.send(0, 9, comm.rank() as u64);
                0
            }
        });
        results.insert(outs[0]);
    }
    assert_eq!(results, BTreeSet::from([12]));
}
