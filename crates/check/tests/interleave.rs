//! The determinism acceptance check: the simulation digest must be
//! identical across many message-delivery orders — plus a sanity check
//! that the machinery *can* observe order dependence in a program that
//! races on arrival timing.

use std::collections::BTreeSet;

use pcdlb_check::explore::{config_2x2, explore};
use pcdlb_mp::check::{ReplayPolicy, SeededPolicy};
use pcdlb_mp::World;

#[test]
fn digest_identical_across_at_least_24_delivery_orders_on_2x2() {
    let cfg = config_2x2(6);
    let out = explore(&cfg, 24, 24);
    assert_eq!(out.runs, 48);
    assert_eq!(
        out.digests.len(),
        1,
        "simulation digest depends on delivery order: {:?}",
        out.digests
    );
    assert!(
        out.distinct_orders >= 24,
        "only {} distinct delivery orders observed (need ≥ 24); max arity {}",
        out.distinct_orders,
        out.max_arity
    );
    assert!(
        out.max_arity >= 2,
        "no choice point ever had multiple candidates — nothing was explored"
    );
}

/// A deliberately racy program: rank 0 polls two senders with `try_recv`
/// and reports which message became visible first. Which candidate the
/// delivery policy releases first is exactly the race — different
/// policies must be able to produce different outcomes, proving the
/// explorer can distinguish delivery orders at all.
fn racy_first_seen(rank0_prefix: Vec<usize>) -> u64 {
    let world = World::new(3).with_start_hook(move |comm| {
        let prefix = if comm.rank() == 0 {
            rank0_prefix.clone()
        } else {
            Vec::new()
        };
        comm.set_delivery_policy(Box::new(ReplayPolicy::new(prefix).0));
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
    let first = racy_first_seen(vec![0]);
    let second = racy_first_seen(vec![1]);
    assert_eq!(first, 1);
    assert_eq!(second, 2);
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
