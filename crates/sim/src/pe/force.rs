//! The force work of a step (phases 1, 5 and 6): the two half-kicks, the
//! force pass over own + ghost cells — the walk of [`super::walk`]
//! evaluated live, or recorded into a Verlet list at rebuild steps and
//! replayed in between — and the load numbers the pass publishes. Purely
//! local. Work counters report the paper's full-shell directed-pair
//! counts (a both-sides half-shell evaluation counts as two checks), so
//! the load model and DLB decisions match the full-shell seed kernel.

use pcdlb_md::cells::CellSlab;
use pcdlb_md::force::{disjoint_ranges_mut, PairKernel, WorkCounters};
use pcdlb_md::integrate::{kick, kick_drift, kick_drift_nowrap};
use pcdlb_md::vec3::Vec3;
use pcdlb_md::verlet::{SegAction, Segment, VerletList};
use pcdlb_md::SoaField;

use super::topology::CellClass;
use super::walk::{Block, CellRef};
use super::{PeState, Slabs};
use crate::clock::WallTimer;
use crate::config::LoadMetric;

/// What the force pass keeps between steps.
#[derive(Default)]
pub(super) struct Force {
    /// Flat force storage: owned columns concatenated in ascending column
    /// order, aligned with each slab's particle order. Valid from
    /// `compute_forces` until the next migration reshuffles particles.
    forces: Vec<Vec3>,
    /// Per-home slot bases (owned slab, ghost slab) in the flat force /
    /// SoA layout, parallel to the home list; refilled by
    /// `force_prologue` each step (slab sizes — hence the bases — are
    /// frozen across a skin epoch).
    home_base: Vec<[usize; 2]>,
    /// Per-home-column work-counter buckets, parallel to the home list,
    /// folded ascending into `last_work` — the fold the Verlet replay
    /// shares with the live walk.
    col_work: Vec<WorkCounters>,
    last_work: WorkCounters,
    last_force_virtual: f64,
    last_force_wall: f64,
    /// The load value fed to the DLB decision. Equal to
    /// `last_force_virtual` except on a heterogeneous machine balancing
    /// with the work-based baseline metric (`speed_aware = false`), where
    /// reporting shows *time* but the balancer still sees raw work.
    last_balance: f64,
    /// SoA position/force field for the Verlet replay: owned slots in
    /// the flat force layout, ghost slots appended in ascending
    /// ghost-column order. Rebuilt each epoch, positions refreshed each
    /// step.
    soa: SoaField,
    /// The recorded half-shell walk replayed between rebuilds.
    vlist: VerletList,
}

impl Force {
    /// The load the last pass measured, as the balancer is fed it (per
    /// the configured metric and speed-awareness).
    pub(super) fn load(&self) -> f64 {
        self.last_balance
    }

    /// The last pass's work counters.
    pub(super) fn work(&self) -> WorkCounters {
        self.last_work
    }

    /// The last pass's reported force time: modelled and measured.
    pub(super) fn times(&self) -> (f64, f64) {
        (self.last_force_virtual, self.last_force_wall)
    }

    /// The per-home slot bases the last prologue laid out.
    pub(super) fn bases(&self) -> &[[usize; 2]] {
        &self.home_base
    }

    /// Each owned column beside its run of the flat force array — the
    /// owned columns concatenated in ascending order, so a running base
    /// realigns it.
    pub(super) fn per_column<'a>(
        &'a self,
        columns: &'a mut Slabs,
    ) -> impl Iterator<Item = (&'a mut CellSlab, &'a [Vec3])> {
        debug_assert_eq!(
            columns.values().map(CellSlab::len).sum::<usize>(),
            self.forces.len()
        );
        let mut base = 0usize;
        columns.values_mut().map(move |slab| {
            let run = &self.forces[base..base + slab.len()];
            base += slab.len();
            (slab, run)
        })
    }
}

/// The replay policy: what the live walk does with a recorded pair
/// segment (its home and neighbour class codes are `CellClass as u8`) —
/// store the owned sides, the replay crediting ½ of the potential per
/// stored side — so replaying the recording reproduces the walk bitwise,
/// including the full-shell `pair_checks` accounting. Intra triangles and
/// pull sweeps run whatever the flags say.
fn replay_action(seg: &Segment) -> SegAction {
    let owned = CellClass::Owned as u8;
    SegAction {
        sa: seg.ca == owned,
        sb: seg.cb == owned,
    }
}

impl PeState {
    /// Phase 1: half-kick with current forces, then drift. The periodic
    /// wrap is applied on rebuild steps only: between rebuilds the cell
    /// binning is frozen, and wrapping a drifted boundary particle would
    /// teleport it across the box while its frozen cell (and the
    /// recorded shift vectors) stay put. With `skin == 0` every step is
    /// a rebuild step and this is the legacy wrap-every-step schedule.
    pub(crate) fn kick_drift_all(&mut self) {
        let (dt, box_len) = (self.cfg.dt, self.box_len);
        let wrap = self.bookkeeping.rebuilding();
        for (slab, forces) in self.force.per_column(&mut self.columns) {
            for (p, f) in slab.particles_mut().iter_mut().zip(forces) {
                if wrap {
                    kick_drift(p, *f, dt, box_len);
                } else {
                    kick_drift_nowrap(p, *f, dt);
                }
            }
        }
    }

    /// Phase 6: second half-kick with the fresh forces.
    pub(crate) fn kick_all(&mut self) {
        let dt = self.cfg.dt;
        for (slab, forces) in self.force.per_column(&mut self.columns) {
            for (p, f) in slab.particles_mut().iter_mut().zip(forces) {
                kick(p, *f, dt);
            }
        }
    }

    /// Phase 5: the force pass, in the canonical half-shell order (see
    /// [`Walk::for_each_block`]), after the step's ghost receive; counts
    /// full-shell work and measures wall time.
    pub(crate) fn compute_forces(&mut self) {
        self.refresh_caches();
        let t0 = WallTimer::start();
        self.force_prologue();
        if self.cfg.verlet {
            self.force_pass_verlet();
        } else {
            self.force_pass_live();
        }
        self.force_epilogue(t0);
    }

    /// Lay out the flat force array over the owned columns (home-column
    /// order, so the same ascending concatenation the kicks walk), give
    /// the ghost slabs the slots behind it, and reset the per-home work
    /// buckets.
    fn force_prologue(&mut self) {
        let (homes, force) = (self.topology.homes(), &mut self.force);
        force.home_base.clear();
        force.home_base.resize(homes.len(), [0; 2]);
        let mut total = 0usize;
        for (home, base) in homes.iter().zip(&mut force.home_base) {
            if home.owned {
                base[0] = total;
                total += self.columns[&home.col].len();
            }
        }
        force.forces.clear();
        force.forces.resize(total, Vec3::ZERO);
        for (home, base) in homes.iter().zip(&mut force.home_base) {
            if home.ghost {
                base[1] = total;
                total += self.ghosts[&home.col].len();
            }
        }
        force.col_work.clear();
        force.col_work.resize(homes.len(), WorkCounters::default());
    }

    /// Phase 5, walked live: every kernel block of the half-shell walk
    /// evaluated on the slabs as they stand.
    fn force_pass_live(&mut self) {
        let box_len = self.box_len;
        let pull = self.cfg.pull();
        let kernel = PairKernel::new(self.cfg.lj);
        // (Taken out for the walk to borrow the rest; put back below.)
        let mut forces = std::mem::take(&mut self.force.forces);
        let mut col_work = std::mem::take(&mut self.force.col_work);
        // (Inlined into the walk, so each `match` arm below is resolved
        // at its one call site and no `Block` is ever built in memory.)
        self.walk().for_each_block(
            #[inline(always)]
            |bucket, block| {
                let w = &mut col_work[bucket];
                match block {
                    Block::Intra(h) => kernel.accumulate_intra(h.parts, &mut forces[h.slots()], w),
                    Block::Pair(h, n, shift) => {
                        let owned = |c: &CellRef| c.class == CellClass::Owned;
                        let (fa, fb) = match (owned(&h), owned(&n)) {
                            (true, true) => {
                                let (fa, fb) =
                                    disjoint_ranges_mut(&mut forces, h.slots(), n.slots());
                                (Some(fa), Some(fb))
                            }
                            (true, false) => (Some(&mut forces[h.slots()]), None),
                            (false, true) => (None, Some(&mut forces[n.slots()])),
                            (false, false) => {
                                unreachable!("pair with no owned side is not visited")
                            }
                        };
                        kernel.accumulate_pair(h.parts, fa, n.parts, fb, shift, w);
                    }
                    Block::Pull(h) => {
                        if !pull.is_none() {
                            for (p, f) in h.parts.iter().zip(forces[h.slots()].iter_mut()) {
                                *f += pull.force(p.pos, box_len);
                                w.potential += pull.energy(p.pos, box_len);
                            }
                        }
                    }
                }
            },
        );
        self.force.forces = forces;
        self.force.col_work = col_work;
    }

    /// Phase 5, Verlet replay path (`cfg.verlet`): on rebuild steps
    /// re-record the walk over the fresh binning (ghosts included, reach
    /// `r_c + skin`), then — every step — replay the recording against
    /// positions refreshed from the authoritative slabs, with the
    /// store policy of [`replay_action`]. The replayed sums are
    /// bitwise identical to the live walk over the same frozen binning.
    fn force_pass_verlet(&mut self) {
        if self.bookkeeping.rebuilding() {
            // Rebuild step: fresh binning, fresh SoA layout, fresh list.
            self.rebuild_verlet();
        } else {
            self.force.soa.zero_forces();
            self.reload_soa();
        }
        let force = &mut self.force;
        force.vlist.replay(
            &PairKernel::new(self.cfg.lj),
            &self.cfg.pull(),
            self.box_len,
            &mut force.soa,
            |seg| Some(replay_action(seg)),
            &mut force.col_work,
        );
        force.soa.fold_forces(&mut force.forces);
    }

    /// Refresh the SoA positions from the authoritative slabs, owned and
    /// ghost.
    fn reload_soa(&mut self) {
        let force = &mut self.force;
        for (home, base) in self.topology.homes().iter().zip(&force.home_base) {
            if home.ghost {
                (force.soa).load_positions(base[1], self.ghosts[&home.col].particles());
            }
            if home.owned {
                (force.soa).load_positions(base[0], self.columns[&home.col].particles());
            }
        }
    }

    /// Re-record the Verlet list at a rebuild step: lay the SoA out over
    /// the home columns (the slot layout `force_prologue` just made) and
    /// run the exact half-shell walk with the widened reach `r_c + skin`,
    /// recording every kernel block — classes and work buckets ride along
    /// so the replay stores and credits what the walk would — into room
    /// reserved at the walk's candidate bound.
    fn rebuild_verlet(&mut self) {
        let n_owned = self.force.forces.len();
        let n_ghost: usize = self.ghosts.values().map(CellSlab::len).sum();
        self.force.soa.reset(n_owned, n_owned + n_ghost);
        self.reload_soa();
        let reach = self.cfg.lj.rcut + self.cfg.skin;
        let reach2 = reach * reach;
        let pull = self.cfg.pull();
        let mut vlist = std::mem::take(&mut self.force.vlist);
        vlist.clear();
        let mut bound = 0;
        self.walk().for_each_block(|_, block| {
            bound += match block {
                Block::Intra(h) => VerletList::intra_candidates(h.parts.len()),
                Block::Pair(h, n, _) => VerletList::pair_candidates(h.parts.len(), n.parts.len()),
                Block::Pull(_) => 0,
            }
        });
        vlist.reserve(bound);
        let soa = &self.force.soa;
        self.walk().for_each_block(|bucket, block| {
            let bucket = bucket as u32;
            match block {
                Block::Intra(h) => {
                    vlist.record_intra(soa, h.slots(), reach2, h.class as u8, bucket)
                }
                Block::Pair(h, n, shift) => vlist.record_pair(
                    soa,
                    h.slots(),
                    n.slots(),
                    shift,
                    reach2,
                    h.class as u8,
                    n.class as u8,
                    bucket,
                ),
                Block::Pull(h) => vlist.record_pull(&pull, h.slots(), h.class as u8, bucket),
            }
        });
        self.force.vlist = vlist;
    }

    /// Tail of the force pass: book its wall time, fold the per-home
    /// buckets in ascending order and publish the step's load numbers.
    fn force_epilogue(&mut self, t0: WallTimer) {
        let dt = t0.elapsed_s();
        self.phase.force += dt;
        let force = &mut self.force;
        let mut work = WorkCounters::default();
        for w in &force.col_work {
            work.merge(w);
        }
        force.last_work = work;
        force.last_force_wall = dt;
        // Raw metric value: modelled work seconds.
        let LoadMetric::WorkModel { sec_per_pair } = self.cfg.load_metric;
        let raw = work.pair_checks as f64 * sec_per_pair;
        // On a heterogeneous machine the *reported* force time is the
        // modelled elapsed time on this step's processor speed; the
        // *balanced* quantity is that time only under the speed-aware
        // metric, raw work under the paper's baseline.
        force.last_force_virtual = match &self.cfg.speed {
            Some(s) => raw / s.speed(self.rank, self.cur_step),
            None => raw,
        };
        force.last_balance = if self.cfg.speed_aware {
            force.last_force_virtual
        } else {
            raw
        };
    }
}

#[cfg(test)]
impl Force {
    /// Pretend the last pass measured `load`.
    pub(super) fn set_load(&mut self, load: f64) {
        self.last_balance = load;
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::placed;
    use crate::config::{Lattice, RunConfig};
    use pcdlb_domain::DomainShape;

    #[test]
    fn a_planned_launch_measures_the_loads_its_plan_ends_on() {
        // A column's work is a function of the cell occupancies alone, so
        // the loads the plan ends on are — to the bit — what the launch's
        // first force pass measures on every rank, in work (`WorkModel`)
        // and in time (a `SpeedSchedule` balanced `speed_aware`).
        let drifting = crate::SpeedSchedule {
            base: vec![1.0, 0.7, 1.3],
            amplitude: 0.2,
            period: 8,
        };
        for (shape, p) in [(DomainShape::SquarePillar, 9), (DomainShape::Plane, 3)] {
            for speed in [None, Some(drifting.clone())] {
                let mut cfg = RunConfig::new(2000, 9, p, 2000.0 / 27.0f64.powi(3));
                // Everything over rank 0's tile (its slab).
                cfg.lattice = Lattice::Cluster { fill: 0.4 };
                cfg.dlb = true;
                cfg.dlb_min_gain = 0.0;
                cfg.speed_aware = speed.is_some();
                cfg.speed = speed;
                crate::decomp::validate(&cfg, shape);
                let initial = placed(&cfg);
                let work = initial.column_work();
                let plan = crate::launch::launch_plan(shape, &cfg, 0, &work, false);
                assert!(!plan.decisions.is_empty(), "{shape:?}: nothing planned");
                let start = crate::engine::Start::fresh(shape, &cfg, &initial, &plan);
                let measured = pcdlb_mp::World::new(cfg.p).run(|comm| {
                    let pe = super::PeState::new(comm.rank(), &cfg, &start);
                    pe.force.load().to_bits()
                });
                let planned: Vec<u64> = plan.loads.iter().map(|l| l.to_bits()).collect();
                assert_eq!(measured, planned, "{shape:?}, time: {}", cfg.speed_aware);
            }
        }
    }
}
