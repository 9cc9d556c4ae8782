//! `pcdlb-check` — static protocol verifier, protocol model checker,
//! fault-scenario sweep and lint pass for the message-passing layer.
//!
//! The paper's SPMD program is only correct if three things hold that the
//! type system cannot express:
//!
//! 1. **The wire protocol is well-formed** ([`schedule`], [`verify`]):
//!    every blocking receive in the per-step schedule has a matching send,
//!    no `(src, dst, phase)` reuses a tag, and the blocking-wait graph is
//!    acyclic (deadlock freedom) — checked for every PE grid up to a
//!    configurable size by extracting the schedule from the same
//!    `Torus2d` neighbour enumeration and
//!    [`pcdlb_core::protocol::tags::TAG_TABLE`] the simulator sends with.
//! 2. **The permanent-cell invariant holds** ([`invariant`]): no sequence
//!    of protocol-legal ownership transfers ever moves a permanent cell or
//!    breaks the 8-neighbour adjacency the communication pattern relies
//!    on — checked by bounded search over the reachable ownership states.
//! 3. **Results are delivery-order independent, and the protocol state
//!    machine is safe on every explored interleaving** ([`model`]): the
//!    simulation digest ([`pcdlb_sim::digest`]) must be bit-identical no
//!    matter in which order messages from different sources arrive. A
//!    stateful model checker re-runs the simulator under a controlled
//!    scheduler (`pcdlb-mp`'s `check` feature) with full protocol event
//!    tracing, prunes commuting delivery choices with a dynamic
//!    partial-order reduction (independence from blocking exact-match
//!    consumption, sleep-set dedup, visited-state hashing), adds seeded
//!    pseudo-random orders the reduction never runs, and checks one
//!    digest, per-stream sequence gaplessness, non-overtaking
//!    consumption and sentinel conservation on every trace — each
//!    violation reported with its minimal offending event window.
//!
//! A fourth property arrived with the recovery ladder and the lossy
//! transport:
//!
//! 4. **Every disturbance lands on the reference** ([`sweep`]): one table
//!    of fault scenarios — kills at every swept send op of a 2×2 and a
//!    3×3 balancing world and inside the checkpoint gather, seeded kills
//!    over a lossy transport, elastic resize plans and kills inside the
//!    resize window, and frame drops, duplicates, reordering and
//!    partitions on all three decompositions — each run held bitwise to
//!    its row's fault-free reference, which itself lands on the serial
//!    run, under one no-hang deadline. Every death relaunches the world
//!    from its last checkpoint.
//!
//! [`lint`] adds a repo lint pass for the hazards that produce such bugs:
//! wall-clock reads in deterministic crates, hash-order iteration in
//! protocol-facing code, and `unwrap()` / unaudited `expect()` on
//! send/recv paths.
//!
//! The `pcdlb-check` binary drives all of it; see `README.md`.

pub mod invariant;
pub mod lint;
pub mod model;
pub mod schedule;
pub mod sweep;
pub mod verify;
