//! Reading a PE's whole state out: the checkpoint gather (a relaunch puts
//! it back through the one launch, [`crate::engine::Start`]), the
//! invariant sentinel, the final snapshot — and the step frames a run's
//! last exchange brought, for decoder tests. Collective,
//! on an interval or on demand — cold, so off the lint's hot-path list —
//! and digest-neutral: each gather's virtual comm cost is discarded.

use std::collections::BTreeMap;
use std::ops::Range;

use pcdlb_core::protocol::{tags, Transfer};
use pcdlb_domain::{Col, DomainShape};
use pcdlb_md::{place_by_id, Particle};
use pcdlb_mp::{collectives, Comm, World};

use super::{initial_particles, PeState};
use crate::config::RunConfig;
use crate::engine::{step_pe, Start};
use crate::frame::Arrival;
use crate::launch::{LaunchPlan, Placed};
use crate::recover::SimCheckpoint;
use crate::report::StepRecord;

/// The step frames every rank received in the last exchange of a run of
/// `cfg` on `shape` — `cfg.steps` steps from its own initial condition on
/// the even home tiles, nothing planned — each with what its receiver
/// knew of the hop it came over: real frames for decoder tests.
#[doc(hidden)]
pub fn received_frames(cfg: &RunConfig, shape: DomainShape) -> Vec<(Arrival, Vec<u8>)> {
    crate::decomp::validate(cfg, shape);
    let placed = Placed::new(cfg, &initial_particles(cfg));
    let plan = LaunchPlan::unplanned(shape, cfg, &placed.column_work());
    let world = World::new(cfg.p)
        .with_cost_model(crate::decomp::cost_model(shape, cfg))
        .with_comm_config(&cfg.comm);
    let start = Start::fresh(shape, cfg, &placed, &plan);
    let ranks = world.run(|comm| {
        let mut pe = PeState::new(comm.rank(), cfg, &start);
        for step in 1..=cfg.steps {
            step_pe(comm, &mut pe, step);
        }
        let inbox = pe.exchange.inbox().iter().enumerate();
        inbox
            .map(|(h, frame)| (pe.topology.arrival(h), frame.clone()))
            .collect::<Vec<_>>()
    });
    ranks.into_iter().flatten().collect()
}

impl PeState {
    /// Gather a restartable distributed checkpoint to rank 0
    /// (collective; every rank must call it at the same step). `records`
    /// is rank 0's per-step series so far, embedded so a restore can
    /// reproduce the full report. A balancing run also gathers what its
    /// next decision rests on: the load each rank last announced and the
    /// decision it gave that is still pending. The root puts each
    /// particle at its id ([`place_by_id`]), failing as the snapshot
    /// gather does where a particle was lost or doubled. The gather's
    /// virtual comm cost is excluded from the next step's delta, so
    /// checkpointing never changes any reported `t_step`.
    pub(crate) fn take_checkpoint(
        &mut self,
        comm: &mut Comm,
        step: u64,
        records: &[StepRecord],
    ) -> Option<SimCheckpoint> {
        let own_cols: Vec<Col> = self.columns.keys().copied().collect();
        let own_parts: Vec<Particle> = self.particles().copied().collect();
        let (announced, given) = self.balance.held(self.rank);
        let given: Vec<Transfer> = given.collect();
        let payload = (own_parts, own_cols, announced, given);
        let gathered = collectives::gather(comm, tags::CKPT_GATHER, payload);
        // (Only a shape with a tiling — the square pillar — restores from
        // a checkpoint; any other takes part in the gather and keeps
        // nothing.)
        let ck = gathered.zip(self.decomp.tiling()).map(|(chunks, tiling)| {
            let loads = chunks.iter().filter_map(|chunk| chunk.2).collect();
            // Rank order is `from` order: the order they land in.
            let transfers = chunks
                .iter()
                .flat_map(|chunk| chunk.3.iter().copied())
                .collect();
            let mut particles = Vec::new();
            let mut ownership = Vec::new();
            for (rank, (parts, cols, ..)) in chunks.into_iter().enumerate() {
                particles.extend(parts);
                ownership.extend(cols.into_iter().map(|c| (c, rank)));
            }
            ownership.sort_unstable_by_key(|&(c, _)| c);
            let n = self.cfg.n_particles;
            SimCheckpoint {
                step,
                particles: place_by_id(n, particles, |p| p.id),
                ownership,
                tiling,
                records: records.to_vec(),
                loads,
                transfers,
                retiles: self.retiles(),
            }
        });
        let _ = comm.lap_virtual_comm();
        ck
    }

    /// Runtime invariant sentinel: every `cfg.sentinel_interval` steps
    /// (collective; 0 disables), gather each rank's particle count and
    /// owned-column set to rank 0 and check the two global invariants the
    /// whole scheme rests on — particle-count conservation and ownership
    /// being an exact partition of the grid into the shape's granules
    /// (whole columns; a cube rank's z block of a column). A
    /// violation means state corruption that checkpoints would silently
    /// propagate, so the world is aborted with a structured diagnostic;
    /// under the resilient launch that escalates to a rollback (relaunch
    /// from the last checkpoint). Digest-neutral: the gather's
    /// lap cost is discarded like the checkpoint gather's.
    pub(crate) fn sentinel_check(&mut self, comm: &mut Comm, step: u64) {
        if self.cfg.sentinel_interval == 0 || !step.is_multiple_of(self.cfg.sentinel_interval) {
            return;
        }
        let own_cols: Vec<Col> = self.columns.keys().copied().collect();
        let count = self.num_particles() as u64;
        pcdlb_mp::check::emit(pcdlb_mp::check::ProtocolEvent::Sentinel {
            rank: comm.rank(),
            step,
            count,
        });
        if let Some(chunks) = collectives::gather(comm, tags::SENTINEL, (count, own_cols)) {
            let z_extent = |rank| self.decomp.z_extent(rank);
            if let Err(report) = validate_sentinel(&self.cfg, step, &chunks, z_extent) {
                panic!("{report}");
            }
        }
        let _ = comm.lap_virtual_comm();
    }

    /// Gather the full particle set to rank 0, in id order: the root puts
    /// each particle at its id ([`place_by_id`]), and fails naming the id
    /// where the gathered ids are not exactly `0..N`, each once.
    pub fn gather_snapshot(&self, comm: &mut Comm) -> Option<Vec<Particle>> {
        let mut own = Vec::with_capacity(self.num_particles());
        own.extend(self.particles().copied());
        let n = self.cfg.n_particles;
        collectives::gather(comm, tags::SNAPSHOT, own)
            .map(|chunks| place_by_id(n, chunks.into_iter().flatten(), |p| p.id))
    }
}

/// A sentinel violation: which global invariant broke, at which step,
/// with enough context to localise the corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentinelReport {
    /// Step at which the sentinel fired.
    pub step: u64,
    /// What broke, per violated invariant (non-empty).
    pub violations: Vec<String>,
}

impl std::fmt::Display for SentinelReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sentinel violation at step {}: {}",
            self.step,
            self.violations.join("; ")
        )
    }
}

/// Check the gathered per-rank `(particle count, owned columns)` chunks
/// against the two global invariants: the counts sum to `cfg.n_particles`
/// and the claimed granules — each claimed column over the claiming
/// rank's `z_extent` — form an exact partition of the `nc³` cells. Pure
/// so it unit-tests without a world.
fn validate_sentinel(
    cfg: &RunConfig,
    step: u64,
    chunks: &[(u64, Vec<Col>)],
    z_extent: impl Fn(usize) -> Range<usize>,
) -> Result<(), SentinelReport> {
    let mut violations = Vec::new();
    let total: u64 = chunks.iter().map(|(n, _)| n).sum();
    if total != cfg.n_particles as u64 {
        violations.push(format!(
            "global particle count {total} != configured {} (per-rank: {:?})",
            cfg.n_particles,
            chunks.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        ));
    }
    let mut owners: BTreeMap<(Col, usize), Vec<usize>> = BTreeMap::new();
    let mut cells = 0usize;
    for (rank, (_, cols)) in chunks.iter().enumerate() {
        let z = z_extent(rank);
        for &c in cols {
            let claimants = owners.entry((c, z.start)).or_default();
            if claimants.is_empty() && c.cx < cfg.nc && c.cy < cfg.nc {
                cells += z.len();
            }
            claimants.push(rank);
        }
    }
    for ((c, z0), ranks) in &owners {
        if ranks.len() > 1 {
            violations.push(format!(
                "column {c:?} (z from {z0}) owned by multiple ranks {ranks:?}"
            ));
        }
    }
    if cells != cfg.total_cells() || owners.keys().any(|(c, _)| c.cx >= cfg.nc || c.cy >= cfg.nc) {
        violations.push(format!(
            "ownership covers {cells} distinct cells, expected the full {} ({nc}×{nc}×{nc}) grid",
            cfg.total_cells(),
            nc = cfg.nc
        ));
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(SentinelReport { step, violations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_snapshot_gather_that_lost_or_doubled_a_particle_names_it() {
        // The root puts every gathered particle at its id: a set that is
        // not exactly 0..N, each once, fails there, not as a later digest
        // mismatch or a count mismatch at restore. Particle 7 is
        // relabelled 3 — 3 twice, 7 missing — on a 2 × 2 pillar whose
        // ranks adopt it from the one placement; the snapshot and the
        // checkpoint gather both name it.
        let shape = DomainShape::SquarePillar;
        let cfg = super::super::testkit::shape_cfg(shape);
        let mut particles = initial_particles(&cfg);
        particles[7].id = 3;
        let placed = Placed::new(&cfg, &particles);
        let plan = LaunchPlan::unplanned(shape, &cfg, &placed.column_work());
        let start = Start::fresh(shape, &cfg, &placed, &plan);
        type Gather = fn(&mut PeState, &mut Comm) -> Option<Vec<Particle>>;
        let gathers: [(&str, Gather); 2] = [
            ("snapshot", |pe, comm| pe.gather_snapshot(comm)),
            ("checkpoint", |pe, comm| {
                let ck = pe.take_checkpoint(comm, 0, &[]);
                ck.map(|ck| ck.particles)
            }),
        ];
        for (what, gather) in gathers {
            let gathered = std::panic::catch_unwind(|| {
                World::new(cfg.p).run(|comm| {
                    let mut pe = PeState::new(comm.rank(), &cfg, &start);
                    gather(&mut pe, comm)
                })
            });
            let payload = gathered.expect_err(what);
            let message = payload.downcast_ref::<String>().expect("a message");
            assert!(
                message.contains("particle id 3 came twice"),
                "{what}: {message}"
            );
        }
    }

    #[test]
    fn sentinel_accepts_an_exact_partition_with_conserved_count() {
        let cfg = RunConfig::new(216, 4, 4, 0.2);
        // 4 ranks, 16 columns split 4/4/4/4, counts summing to 216.
        let chunks: Vec<(u64, Vec<Col>)> = (0..4)
            .map(|r| {
                let cols = (0..4).map(|i| Col::new(r, i)).collect();
                (54, cols)
            })
            .collect();
        assert_eq!(validate_sentinel(&cfg, 7, &chunks, |_| 0..4), Ok(()));
    }

    #[test]
    fn sentinel_flags_lost_particles_and_broken_partitions() {
        let cfg = RunConfig::new(216, 4, 4, 0.2);
        let good: Vec<(u64, Vec<Col>)> = (0..4)
            .map(|r| (54, (0..4).map(|i| Col::new(r, i)).collect()))
            .collect();
        // Lost particles.
        let mut lost = good.clone();
        lost[2].0 = 53;
        let e = validate_sentinel(&cfg, 9, &lost, |_| 0..4).unwrap_err();
        assert_eq!(e.step, 9);
        assert!(e.to_string().contains("particle count 215"), "{e}");
        // A column claimed twice (and therefore one missing).
        let mut dup = good.clone();
        dup[0].1[0] = Col::new(1, 0);
        let e = validate_sentinel(&cfg, 9, &dup, |_| 0..4).unwrap_err();
        assert!(e.to_string().contains("owned by multiple ranks"), "{e}");
        assert!(e.to_string().contains("60 distinct cells"), "{e}");
        // A column off the grid.
        let mut off = good;
        off[3].1[3] = Col::new(9, 9);
        let e = validate_sentinel(&cfg, 9, &off, |_| 0..4).unwrap_err();
        assert!(e.to_string().contains("expected the full 64"), "{e}");
        // The cube's granule is a z block of a column: two ranks may hold
        // the same column, but not the same block of it.
        let halves: Vec<(u64, Vec<Col>)> = (0..2)
            .map(|_| (108, (0..16).map(|i| Col::new(i / 4, i % 4)).collect()))
            .collect();
        let z_half = |rank: usize| 2 * rank..2 * rank + 2;
        assert_eq!(validate_sentinel(&cfg, 9, &halves, z_half), Ok(()));
        let e = validate_sentinel(&cfg, 9, &halves, |_| 0..2).unwrap_err();
        assert!(e.to_string().contains("owned by multiple ranks"), "{e}");
        assert!(e.to_string().contains("32 distinct cells"), "{e}");
    }
}
