//! `pcdlb-mp` — an MPI-like SPMD message-passing substrate in pure Rust.
//!
//! The paper this workspace reproduces ran on a Cray T3E using MPI and
//! Fortran 90. This crate is the substitute for that substrate: it gives an
//! SPMD program the same primitives MPI gives — ranks, point-to-point
//! messages matched on `(source, tag)`, and collectives (barrier, reduce,
//! broadcast, gather, allreduce) built *on top of* point-to-point, exactly
//! as they would be on a distributed-memory machine.
//!
//! Each rank runs as an OS thread; messages travel over the in-tree
//! [`channel`] module's unbounded MPMC channels, each as its encoding in
//! the one byte format of [`wire`].
//! Because every receive names its source and tag, the data flow of a
//! program written against this crate is deterministic regardless of how
//! the OS schedules the threads.
//!
//! # Lossy substrates
//!
//! A [`CommConfig`] whose `chaos` names a [`LossyProfile`] runs the same
//! program over a seeded lossy, Grid-like link: frames are dropped,
//! duplicated, delayed or cut off by partitions ([`transport`]), and a
//! link layer under every [`Comm`] — sequence numbers, acks,
//! retransmission, a φ failure detector — still delivers each message
//! once and in order. Without `chaos` no rank builds that layer.
//!
//! # Virtual communication time
//!
//! The T3E's interconnect is modelled by [`cost::CostModel`]: every message
//! is charged `latency + hops·per_hop + bytes/bandwidth` seconds of
//! *virtual* time against both endpoints. This is an accounting model (not
//! a discrete-event simulation): it measures communication *volume and
//! frequency* in seconds so that experiments can compare communication cost
//! across domain shapes and protocols on a machine whose real wall-clock
//! timings are dominated by thread scheduling noise.
//!
//! # Quick example
//!
//! ```
//! use pcdlb_mp::{World, collectives};
//!
//! let sums = World::new(4).run(|comm| {
//!     let mine = (comm.rank() + 1) as u64;
//!     collectives::allreduce(comm, 0, mine, |a, b| a + b)
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

pub mod channel;
pub mod check;
pub mod collectives;
pub mod comm;
pub mod cost;
pub mod fault;
mod link;
pub mod pool;
pub mod topology;
pub mod transport;
pub mod wire;
pub mod world;

pub use comm::{Comm, CommConfig, CommError, CommErrorKind, CommStats, Tag};
pub use cost::CostModel;
pub use fault::FaultPlan;
pub use pool::BufferPool;
pub use topology::{Torus2d, Torus3d};
pub use transport::{LossyProfile, Partition};
pub use wire::{Decode, DecodeError, Encode};
pub use world::{RankFailure, World, WorldError};
