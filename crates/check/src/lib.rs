//! `pcdlb-check` — static protocol verifier, interleaving-exploring
//! determinism checker, and lint pass for the message-passing layer.
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
//! 3. **Results are delivery-order independent** ([`explore`]): the
//!    simulation digest ([`pcdlb_sim::digest`]) must be bit-identical no
//!    matter in which order messages from different sources arrive —
//!    checked by re-running the simulator under a controlled scheduler
//!    (`pcdlb-mp`'s `check` feature) that permutes message-arrival order.
//!
//! A fourth property arrived with the recovery subsystem:
//!
//! 4. **Crash recovery restores bitwise parity** ([`faults`]): killing
//!    any rank at any send op — or mid checkpoint gather, or at a seeded
//!    site while a lossy transport drops, duplicates and delays frames —
//!    and restarting from the last distributed checkpoint must reproduce
//!    the uninterrupted run's records and particle state exactly (the
//!    lossy runs: those of the run over the reliable transport), checked
//!    by sweeping kill points across a 2×2 run under a global no-hang
//!    timeout.
//!
//! A fifth arrived with degraded-mode survivor takeover:
//!
//! 5. **Buddy takeover is sound** ([`takeover`]): the buddy map is
//!    total, deterministic, and 8-neighbour-adjacent on every grid; the
//!    merged dual-role schedule a surviving thread runs after adopting
//!    a dead virtual rank is deadlock-free (checked by a dedicated
//!    thread-program executor, since the rank-keyed blocking-wait graph
//!    no longer applies); and killing ranks at strided send ops on 2×2
//!    and 3×3 worlds completes — degraded on `n − 1` threads or via
//!    full relaunch — with `digest_recovery` bitwise equal to the
//!    fault-free reference.
//!
//! A sixth deepens the third from digest equality to typed safety:
//!
//! 6. **The protocol state machine is safe on every explored
//!    interleaving** ([`model`]): a stateful model checker replays the
//!    simulator under controlled delivery with full protocol event
//!    tracing, prunes commuting delivery choices with a dynamic
//!    partial-order reduction (independence from blocking exact-match
//!    consumption, sleep-set dedup, visited-state hashing), and checks
//!    per-stream sequence gaplessness, non-overtaking consumption,
//!    epoch monotonicity, pool checkout/checkin balance, single
//!    adoption per death, and sentinel conservation on every trace —
//!    each violation reported with its minimal offending event window.
//!
//! A seventh arrived with elastic world resizing:
//!
//! 7. **Elastic resizing preserves physics and absorbs faults**
//!    ([`resize`]): shrink and grow plans at several step boundaries on
//!    two cell grids must conserve the particle count, keep the record
//!    series complete, and land bitwise on the serial reference (and on
//!    the plane and cube decompositions) — and killing any rank inside
//!    the resize window itself (the drain checkpoint gather, the
//!    READY/GO resume barrier, or any strided send op of any
//!    generation) must complete with `digest_recovery` bitwise equal to
//!    the fault-free elastic reference.
//!
//! An eighth arrived with the transport abstraction and its
//! end-to-end reliability layer:
//!
//! 8. **The reliability layer is transparent** ([`chaos`]): runs over a
//!    seeded lossy transport (frame drops, duplicates, bounded
//!    reordering, timed bidirectional partitions) must land bitwise on
//!    the serial reference across all three decompositions — including
//!    record series, message counts and wire-byte accounting; a
//!    partition window that closes mid-run must heal silently by
//!    retransmission, a permanent isolation must escalate into the
//!    recovery ladder (self-fence → buddy takeover) with
//!    `digest_recovery` parity, and over the reliable in-process
//!    transport the layer must be fully inert (zero retransmits) — all
//!    under a global no-hang timeout.
//!
//! [`lint`] adds a repo lint pass for the hazards that produce such bugs:
//! wall-clock reads in deterministic crates, hash-order iteration in
//! protocol-facing code, and `unwrap()` / unaudited `expect()` on
//! send/recv paths.
//!
//! The `pcdlb-check` binary drives all of it; see `README.md`.

pub mod chaos;
pub mod explore;
pub mod faults;
pub mod invariant;
pub mod lint;
pub mod model;
pub mod resize;
pub mod schedule;
pub mod takeover;
pub mod verify;
