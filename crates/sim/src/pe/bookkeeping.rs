//! The per-step collectives: the rebuild vote of a skin epoch (ahead of
//! phase 1), the thermostat (phase 7) and the statistics gather (phase
//! 8). Each is a gather to rank 0 and, where every rank needs the answer,
//! a broadcast back.

use pcdlb_core::protocol::tags;
use pcdlb_md::verlet::{self, DispTracker};
use pcdlb_md::{observe, place_by_id};
use pcdlb_mp::{collectives, Comm};

use super::PeState;
use crate::report::StepRecord;
use crate::stats::StatsPacket;

/// The replicated state of the rebuild vote.
pub(super) struct Bookkeeping {
    /// Deterministic accumulated-displacement tracker driving the
    /// rebuild decision (`cfg.skin > 0` only). Fed the *global* max
    /// predicted travel via the rebuild collective, so every rank holds
    /// the identical value and rebuilds on the same step.
    tracker: DispTracker,
    /// True when the step being computed is a rebuild step (re-bin,
    /// migrate, DLB, ghost-membership refresh, list re-record). Always
    /// true with `cfg.skin == 0` — the legacy every-step schedule.
    rebuild_now: bool,
}

impl Bookkeeping {
    /// Construction and restore are rebuild boundaries.
    pub(super) fn new() -> Self {
        Self {
            tracker: DispTracker::new(),
            rebuild_now: true,
        }
    }

    /// Whether the step being computed is a rebuild step.
    pub(super) fn rebuilding(&self) -> bool {
        self.rebuild_now
    }
}

impl PeState {
    /// Rebuild-decision collective: whether this step re-binds the world.
    /// With `skin == 0` every step does, and no messages flow.
    ///
    /// Each rank folds its owned particles' predicted per-step travel
    /// into a local max and gathers it to rank 0 under
    /// `tags::REBUILD_GATHER`; the root folds the per-rank maxima
    /// (`f64::max` is order-independent, so the result equals the serial
    /// reference's whole-system max bitwise) and broadcasts it back.
    /// Every rank advances its displacement tracker by it and decides.
    /// The decision is a pure function of replicated state (tracker +
    /// global max + the checkpoint cadence), so every rank — and the
    /// serial reference — picks the identical step sequence.
    /// Checkpoint-cadence steps are *forced* rebuild steps whether or
    /// not a checkpoint is actually taken: restores re-bin from wrapped
    /// positions, so the cadence itself must be a rebuild boundary in
    /// every schedule that could be compared against.
    pub(crate) fn rebuild_vote(&mut self, comm: &mut Comm, step: u64) -> bool {
        if self.cfg.skin == 0.0 {
            return true;
        }
        let dt = self.cfg.dt;
        let per_column = self.force.per_column(&mut self.columns);
        let local = per_column.fold(0.0f64, |max, (slab, forces)| {
            max.max(verlet::max_predicted_travel2(slab.particles(), forces, dt))
        });
        let gathered = collectives::gather(comm, tags::REBUILD_GATHER, local);
        let root_max = gathered.map(|locals| locals.into_iter().fold(0.0f64, f64::max));
        let gmax2 = collectives::bcast(comm, tags::REBUILD_BCAST, root_max);
        let vote = &mut self.bookkeeping;
        vote.tracker.advance(gmax2, self.cfg.dt);
        let forced =
            self.cfg.checkpoint_interval > 0 && step.is_multiple_of(self.cfg.checkpoint_interval);
        let rebuild = forced || vote.tracker.exceeds(self.cfg.skin);
        if rebuild {
            vote.tracker.reset();
        }
        vote.rebuild_now = rebuild;
        rebuild
    }

    /// Phase 7: periodic global velocity rescale via an id-ordered
    /// kinetic energy sum (bitwise identical to the serial reference; the
    /// root puts each energy at its particle's id, [`place_by_id`]),
    /// on the steps the thermostat fires. Rank 0 computes the scale
    /// factor from the gathered energies and broadcasts it; every PE
    /// rescales its velocities.
    pub(crate) fn thermostat(&mut self, comm: &mut Comm, step: u64) {
        let th = self.cfg.thermostat();
        if !th.fires_at(step) {
            return;
        }
        let mut kes = Vec::with_capacity(self.num_particles());
        kes.extend(self.particles().map(|p| (p.id, 0.5 * p.vel.norm2())));
        let gathered = collectives::gather(comm, tags::KE_GATHER, kes);
        let scale = gathered.map(|chunks| {
            let n = self.cfg.n_particles;
            let all = place_by_id(n, chunks.into_iter().flatten(), |&(id, _)| id);
            let ke: f64 = all.iter().map(|&(_, k)| k).sum();
            let t_now = observe::temperature_from_ke(ke, self.cfg.n_particles);
            th.scale_factor(t_now)
        });
        let s = collectives::bcast(comm, tags::KE_BCAST, scale);
        for slab in self.columns.values_mut() {
            for p in slab.particles_mut() {
                p.vel = p.vel * s;
            }
        }
    }

    /// Phase 8: gather per-PE statistics; rank 0 assembles the record.
    pub(crate) fn collect_stats(
        &mut self,
        comm: &mut Comm,
        step: u64,
        transferred: u64,
        wall_s: f64,
    ) -> Option<StepRecord> {
        // Lap accumulator, not a running-total subtraction: the delta for
        // an identical message sequence is bitwise identical no matter
        // what was charged before it (checkpoint gathers shift the
        // running total's rounding base; laps always start from 0.0).
        let comm_delta = comm.lap_virtual_comm();

        // A slab spans all `nc` z cells; those outside the PE's z extent
        // are not its own (and always empty here).
        let foreign = self.nc - self.topology.own_z().len();
        let empty: usize = self
            .columns
            .values()
            .map(|slab| slab.empty_cells() - foreign)
            .sum();
        let kinetic: f64 = self.particles().map(|p| 0.5 * p.vel.norm2()).sum();
        let (force_virtual, force_wall) = self.force.times();
        let work = self.force.work();
        let packet = StatsPacket {
            cells: self.owned_cells() as u64,
            empty_cells: empty as u64,
            particles: self.num_particles() as u64,
            force_virtual,
            force_wall,
            comm_virtual_delta: comm_delta,
            pair_checks: work.pair_checks,
            potential: work.potential,
            kinetic,
            transferred,
        };
        let rebuilt = self.bookkeeping.rebuild_now;
        let rec = crate::stats::collect_step_record(comm, &self.cfg, step, packet, wall_s, rebuilt);
        // The stats gather itself is bookkeeping, not simulation
        // communication: charge it to no step, so each step's comm delta
        // covers exactly its own phases. A restored run (which re-runs no
        // past gathers) then reproduces every t_step bitwise.
        let _ = comm.lap_virtual_comm();
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{placed, shape_cfg};
    use pcdlb_domain::DomainShape;

    #[test]
    fn bookkeeping_collectives_leave_the_comm_lap_empty() {
        // A step's comm delta must cover exactly its own phases: after
        // every step — stats gather, checkpoint gather and sentinel
        // included — the lap accumulator reads zero on every rank, for
        // every shape, so nothing of step k is ever charged to k + 1.
        for shape in DomainShape::ALL {
            let mut cfg = shape_cfg(shape);
            cfg.steps = 6;
            cfg.thermostat_interval = 2;
            cfg.checkpoint_interval = 3;
            cfg.sentinel_interval = 2;
            let initial = placed(&cfg);
            let none = crate::launch::LaunchPlan::unplanned(shape, &cfg, &initial.column_work());
            let start = crate::engine::Start::fresh(shape, &cfg, &initial, &none);
            let laps: Vec<f64> = pcdlb_mp::World::new(cfg.p)
                .with_cost_model(crate::decomp::cost_model(shape, &cfg))
                .run(|comm| {
                    let program = crate::engine::Program {
                        retile: None,
                        snapshot: false,
                        drain: false,
                    };
                    crate::engine::run_pe(comm, &cfg, program, &start, None);
                    comm.lap_virtual_comm()
                });
            assert!(laps.iter().all(|&l| l == 0.0), "{shape:?}: {laps:?}");
        }
    }
}
