//! Serial reference simulator.
//!
//! Runs the identical physics to the parallel SPMD simulator — same cell
//! grid conventions, same canonical half-shell summation order, same
//! kernel, same id-ordered thermostat sum — on one thread. The
//! cross-crate validation tests assert that the parallel simulator
//! reproduces this one **bitwise** for any PE count, with and without
//! load balancing.
//!
//! The force pass visits home cells in ascending global index; each home
//! evaluates its triangular intra-cell loop and then the 13 forward
//! offsets of [`HALF_OFFSETS_13`], storing both reactions of every pair
//! from a single distance evaluation. Forces live in one flat array
//! aligned with the grid's contiguous particle storage.

use std::ops::Range;

use crate::cells::{CellGrid, HALF_OFFSETS_13};
use crate::force::{disjoint_ranges_mut, PairKernel, WorkCounters};
use crate::integrate::{kick, kick_drift, kick_drift_nowrap};
use crate::lj::LennardJones;
use crate::observe;
use crate::soa::SoaField;
use crate::thermostat::Thermostat;
use crate::vec3::Vec3;
use crate::verlet::{self, DispTracker, SegAction, VerletList};
use crate::Particle;

/// Per-step summary returned by [`SerialSim::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerialStepInfo {
    /// Step number just completed (1-based).
    pub step: u64,
    /// Force-evaluation work counters for this step.
    pub work: WorkCounters,
    /// Kinetic energy after the step (post-thermostat if it fired).
    pub kinetic: f64,
    /// Potential energy after the step.
    pub potential: f64,
    /// Instantaneous temperature after the step.
    pub temperature: f64,
    /// Whether the thermostat rescaled velocities this step.
    pub rescaled: bool,
}

/// Single-threaded cell-list MD simulator.
pub struct SerialSim {
    grid: CellGrid,
    /// Flat force array aligned with the grid's particle storage.
    forces: Vec<Vec3>,
    /// The forces (and, with Verlet replay, the recorded list) do not
    /// reflect the current positions, pull and skin settings yet: set-up
    /// calls only mark them, and the first use evaluates once.
    forces_stale: bool,
    kernel: PairKernel,
    dt: f64,
    thermostat: Thermostat,
    step_count: u64,
    last_work: WorkCounters,
    pull: crate::force::ExternalPull,
    /// Verlet skin radius; `0` disables skin epochs (legacy per-step
    /// rebinning, bit-for-bit the historical behaviour).
    skin: f64,
    /// Replay forces through the recorded Verlet list (requires
    /// `skin > 0`); off, mid-epoch steps re-walk the frozen binning.
    verlet: bool,
    /// When `> 0`, force a rebuild every this many steps — a pure
    /// function of configuration, mirrored by the parallel simulators at
    /// their checkpoint cadence so restores land on rebuild boundaries.
    forced_rebuild_interval: u64,
    tracker: DispTracker,
    soa: SoaField,
    vlist: VerletList,
    last_rebuild: bool,
    /// [`SerialSim::kinetic_energy_id_ordered`]'s energies by id and
    /// seen flags, kept between steps.
    ke_scratch: (Vec<f64>, Vec<bool>),
}

/// One half-shell force pass over a canonicalized grid: intra-cell
/// triangular loop plus the 13 forward offsets per home cell, in
/// ascending global cell order. Returns the work counters; `forces` is
/// resized and overwritten, aligned with [`CellGrid::particles`].
///
/// Exposed so the benchmark harness can time the force phase in
/// isolation against the seed full-shell kernel.
pub fn compute_forces_half_shell(
    grid: &CellGrid,
    kernel: &PairKernel,
    pull: &crate::force::ExternalPull,
    forces: &mut Vec<Vec3>,
) -> WorkCounters {
    let mut work = WorkCounters::default();
    forces.clear();
    forces.resize(grid.num_particles(), Vec3::ZERO);
    let box_len = grid.box_len();
    for idx in 0..grid.total_cells() {
        let hr = grid.cell_range(idx);
        if hr.is_empty() {
            continue;
        }
        let home = grid.coord_of(idx);
        let targets = grid.cell_by_index(idx);
        kernel.accumulate_intra(targets, &mut forces[hr.clone()], &mut work);
        for offset in HALF_OFFSETS_13 {
            let (ncell, shift) = grid.wrap_neighbor(home, offset);
            let nidx = grid.index(ncell);
            let nr = grid.cell_range(nidx);
            if nr.is_empty() {
                continue;
            }
            let neighbors = grid.cell_by_index(nidx);
            let (fa, fb) = disjoint_ranges_mut(forces, hr.clone(), nr);
            kernel.accumulate_pair(targets, Some(fa), neighbors, Some(fb), shift, &mut work);
        }
        if !pull.is_none() {
            for (p, f) in targets.iter().zip(forces[hr].iter_mut()) {
                *f += pull.force(p.pos, box_len);
                work.potential += pull.energy(p.pos, box_len);
            }
        }
    }
    work
}

impl SerialSim {
    /// Build a simulator over `nc³` cells in a box of side `box_len`,
    /// asserting the cell size is compatible with the cutoff. The
    /// particles' ids are `0..n`, as [`crate::init`] numbers them: the
    /// snapshot and the thermostat's sum place each particle at its id
    /// ([`crate::place_by_id`]). Initial
    /// forces are evaluated by the first [`SerialSim::step`], after
    /// [`SerialSim::set_pull`] and [`SerialSim::with_skin`] have had
    /// their say — once, not per call.
    pub fn new(
        particles: Vec<Particle>,
        nc: usize,
        box_len: f64,
        lj: LennardJones,
        dt: f64,
        thermostat: Thermostat,
    ) -> Self {
        assert!(dt > 0.0, "time step must be positive");
        let mut grid = CellGrid::new(nc, box_len);
        grid.assert_cutoff_ok(lj.rcut);
        for p in particles {
            assert!(p.is_in_box(box_len), "particle outside box");
            grid.insert(p);
        }
        grid.canonicalize();
        Self {
            forces: Vec::new(),
            forces_stale: true,
            grid,
            kernel: PairKernel::new(lj),
            dt,
            thermostat,
            step_count: 0,
            last_work: WorkCounters::default(),
            pull: crate::force::ExternalPull::None,
            skin: 0.0,
            verlet: false,
            forced_rebuild_interval: 0,
            tracker: DispTracker::new(),
            soa: SoaField::new(),
            vlist: VerletList::new(),
            last_rebuild: true,
            ke_scratch: Default::default(),
        }
    }

    /// Enable skin epochs: the cell binning is frozen between rebuild
    /// steps and positions stay unwrapped mid-epoch. With `verlet`, a
    /// segment list is recorded at each rebuild and replayed in between
    /// (bitwise identical to re-walking the frozen binning). Requires
    /// `cell_len ≥ r_c + skin` so the one-cell neighbourhood stays
    /// exhaustive over a whole epoch. Construction counts as a rebuild
    /// boundary.
    pub fn with_skin(mut self, skin: f64, verlet: bool) -> Self {
        assert!(skin >= 0.0, "skin must be non-negative");
        assert!(
            !verlet || skin > 0.0,
            "verlet replay requires a positive skin"
        );
        if skin > 0.0 {
            assert!(
                self.grid.cell_len() >= self.kernel.lj.rcut + skin - 1e-12,
                "cell length {} < cutoff {} + skin {skin}: the one-cell shell \
                 cannot stay exhaustive over a skin epoch",
                self.grid.cell_len(),
                self.kernel.lj.rcut,
            );
        }
        self.skin = skin;
        self.verlet = verlet;
        self.tracker.reset();
        self.forces_stale = true;
        self
    }

    /// Force a rebuild every `k` steps (`0` disables) — mirrored by the
    /// parallel simulators at their checkpoint cadence.
    pub fn set_forced_rebuild_interval(&mut self, k: u64) {
        self.forced_rebuild_interval = k;
    }

    /// Whether the most recent [`SerialSim::step`] rebuilt the binning
    /// (always true with `skin == 0`).
    pub fn last_step_rebuilt(&self) -> bool {
        self.last_rebuild
    }

    /// Set an arbitrary external pull field; the next step feels it
    /// immediately.
    pub fn set_pull(&mut self, pull: crate::force::ExternalPull) {
        self.pull = pull;
        self.forces_stale = true;
    }

    /// The cell grid (read access for metrics like `C₀`).
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// Steps completed so far.
    pub fn steps_done(&self) -> u64 {
        self.step_count
    }

    /// Work counters of the most recent force evaluation. A fresh or
    /// reconfigured simulator has none until its next step.
    pub fn last_work(&self) -> WorkCounters {
        assert!(
            !self.forces_stale,
            "no force evaluation since set-up: step the simulator first"
        );
        self.last_work
    }

    /// Bring forces (and the Verlet recording) up to date with the
    /// set-up calls made since they were last evaluated.
    pub(crate) fn ensure_forces(&mut self) {
        if self.forces_stale {
            self.forces_stale = false;
            if self.verlet {
                self.rebuild_verlet();
            }
            self.compute_forces();
        }
    }

    /// All particles, sorted by id — the canonical snapshot used to
    /// compare simulators.
    pub fn snapshot(&self) -> Vec<Particle> {
        let parts = self.grid.particles();
        crate::place_by_id(parts.len(), parts.iter().copied(), |p| p.id)
    }

    /// Advance one velocity-Verlet step (with migration/rebinning and the
    /// periodic thermostat), returning the step summary.
    pub fn step(&mut self) -> SerialStepInfo {
        let dt = self.dt;
        let box_len = self.grid.box_len();
        self.ensure_forces();
        debug_assert_eq!(self.grid.num_particles(), self.forces.len());

        // 0. Rebuild decision — before any state mutates, from exactly
        //    the inputs every parallel rank can reproduce: the global max
        //    predicted travel of this step plus the forced cadence. With
        //    skin == 0 every step rebuilds (the historical behaviour).
        let rebuild = if self.skin == 0.0 {
            true
        } else {
            let gmax2 = verlet::max_predicted_travel2(self.grid.particles(), &self.forces, dt);
            self.tracker.advance(gmax2, dt);
            let forced = self.forced_rebuild_interval > 0
                && (self.step_count + 1).is_multiple_of(self.forced_rebuild_interval);
            let r = forced || self.tracker.exceeds(self.skin);
            if r {
                self.tracker.reset();
            }
            r
        };
        self.last_rebuild = rebuild;

        // 1. Half-kick with current forces, drift. The flat force array
        //    is aligned with the grid's particle order. Positions wrap
        //    only on rebuild steps: mid-epoch the binning (and its shift
        //    vectors) is frozen, so wrapping would teleport a particle
        //    away from its frozen cell.
        if rebuild {
            for (p, f) in self.grid.particles_mut().iter_mut().zip(&self.forces) {
                kick_drift(p, *f, dt, box_len);
            }
            // 2. Rebin: particles to their new cells, (cell, id)-sorted.
            self.grid.rebin();
            if self.verlet {
                self.rebuild_verlet();
            }
        } else {
            for (p, f) in self.grid.particles_mut().iter_mut().zip(&self.forces) {
                kick_drift_nowrap(p, *f, dt);
            }
        }

        // 3. New forces.
        self.compute_forces();

        // 4. Second half-kick.
        for (p, f) in self.grid.particles_mut().iter_mut().zip(&self.forces) {
            kick(p, *f, dt);
        }

        self.step_count += 1;

        // 5. Thermostat (id-ordered sum; matches the parallel gather).
        let rescaled = self.thermostat.fires_at(self.step_count);
        if rescaled {
            let ke = self.kinetic_energy_id_ordered();
            let t_now = observe::temperature_from_ke(ke, self.grid.num_particles());
            let s = self.thermostat.scale_factor(t_now);
            for p in self.grid.particles_mut() {
                p.vel = p.vel * s;
            }
        }

        let kinetic = self.kinetic_energy_id_ordered();
        SerialStepInfo {
            step: self.step_count,
            work: self.last_work,
            kinetic,
            potential: self.last_work.potential,
            temperature: observe::temperature_from_ke(kinetic, self.grid.num_particles()),
            rescaled,
        }
    }

    /// Kinetic energy summed in ascending particle-id order — the
    /// canonical order shared with the parallel simulator's thermostat
    /// gather, so both produce bitwise identical scale factors. Placed in
    /// retained scratch: a step allocates nothing for it.
    pub fn kinetic_energy_id_ordered(&mut self) -> f64 {
        let parts = self.grid.particles();
        let kes = parts.iter().map(|p| (p.id, 0.5 * p.vel.norm2()));
        let (placed, seen) = &mut self.ke_scratch;
        crate::place_by_id_into(placed, seen, parts.len(), kes);
        placed.iter().sum()
    }

    /// Recompute all forces from scratch in the canonical order. With
    /// Verlet replay on, positions are reloaded from the (authoritative)
    /// grid into the SoA scratch and the recorded segment list is
    /// replayed fused — bitwise identical to re-walking the binning.
    fn compute_forces(&mut self) {
        if self.verlet && self.skin > 0.0 {
            let n = self.grid.num_particles();
            self.soa.load_positions(0, self.grid.particles());
            self.soa.zero_forces();
            let mut w = [WorkCounters::default()];
            let box_len = self.grid.box_len();
            self.vlist.replay(
                &self.kernel,
                &self.pull,
                box_len,
                &mut self.soa,
                |_| Some(SegAction::fused()),
                &mut w,
            );
            self.last_work = w[0];
            debug_assert_eq!(self.soa.n_owned(), n);
            self.soa.fold_forces(&mut self.forces);
        } else {
            let mut forces = std::mem::take(&mut self.forces);
            self.last_work =
                compute_forces_half_shell(&self.grid, &self.kernel, &self.pull, &mut forces);
            self.forces = forces;
        }
    }

    /// Record the Verlet segment list from the current (canonicalized)
    /// binning: the exact walk of [`compute_forces_half_shell`] — intra,
    /// the 13 forward offsets with their wrap shifts, then the pull —
    /// with candidate pairs admitted within `r_c + skin`, into room
    /// reserved at the walk's candidate bound.
    fn rebuild_verlet(&mut self) {
        let n = self.grid.num_particles();
        self.soa.reset(n, n);
        self.soa.load_positions(0, self.grid.particles());
        self.vlist.clear();
        let mut bound = 0;
        for_each_block(&self.grid, |block| {
            bound += match block {
                Block::Intra(h) => VerletList::intra_candidates(h.len()),
                Block::Pair(h, nb, _) => VerletList::pair_candidates(h.len(), nb.len()),
                Block::Pull(_) => 0,
            }
        });
        self.vlist.reserve(bound);
        let reach = self.kernel.lj.rcut + self.skin;
        let reach2 = reach * reach;
        let (soa, vlist, pull) = (&self.soa, &mut self.vlist, &self.pull);
        for_each_block(&self.grid, |block| match block {
            Block::Intra(h) => vlist.record_intra(soa, h, reach2, 0, 0),
            Block::Pair(h, nb, shift) => vlist.record_pair(soa, h, nb, shift, reach2, 0, 0, 0),
            Block::Pull(h) => vlist.record_pull(pull, h, 0, 0),
        });
    }
}

/// One kernel block of the serial half-shell walk, as slot ranges of the
/// grid's particle storage.
enum Block {
    /// A home cell's intra triangle.
    Intra(Range<usize>),
    /// A home cell against one forward neighbour cell and its shift.
    Pair(Range<usize>, Range<usize>, Vec3),
    /// The external pull on a home cell.
    Pull(Range<usize>),
}

/// The blocks of [`compute_forces_half_shell`]'s walk in its order:
/// for each non-empty home cell ascending, the intra triangle, the
/// non-empty forward neighbours of [`HALF_OFFSETS_13`], then the pull.
fn for_each_block(grid: &CellGrid, mut f: impl FnMut(Block)) {
    for idx in 0..grid.total_cells() {
        let hr = grid.cell_range(idx);
        if hr.is_empty() {
            continue;
        }
        let home = grid.coord_of(idx);
        f(Block::Intra(hr.clone()));
        for offset in HALF_OFFSETS_13 {
            let (ncell, shift) = grid.wrap_neighbor(home, offset);
            let nr = grid.cell_range(grid.index(ncell));
            if !nr.is_empty() {
                f(Block::Pair(hr.clone(), nr, shift));
            }
        }
        f(Block::Pull(hr));
    }
}

impl Particle {
    /// True when the position lies in `[0, box_len]³` (the closed upper
    /// bound tolerates a wrap landing exactly on `L`).
    pub fn is_in_box(&self, box_len: f64) -> bool {
        let ok = |v: f64| (0.0..=box_len).contains(&v);
        ok(self.pos.x) && ok(self.pos.y) && ok(self.pos.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn small_gas(n: usize, nc: usize, rho: f64, seed: u64) -> SerialSim {
        let box_len = (n as f64 / rho).cbrt();
        let mut ps = init::simple_cubic(n, box_len);
        init::maxwell_boltzmann(&mut ps, 0.722, seed);
        SerialSim::new(
            ps,
            nc,
            box_len,
            LennardJones::paper(),
            0.0025,
            Thermostat::off(),
        )
    }

    #[test]
    fn particle_count_is_conserved() {
        let mut sim = small_gas(200, 3, 0.20, 1);
        for _ in 0..20 {
            sim.step();
        }
        assert_eq!(sim.grid().num_particles(), 200);
    }

    #[test]
    fn nve_energy_is_conserved() {
        let mut sim = small_gas(200, 3, 0.20, 2);
        let first = sim.step();
        let e0 = first.kinetic + first.potential;
        let mut last = first;
        for _ in 0..200 {
            last = sim.step();
        }
        let e1 = last.kinetic + last.potential;
        let scale = e0.abs().max(1.0);
        assert!(
            ((e1 - e0) / scale).abs() < 1e-3,
            "NVE drift: E0={e0}, E1={e1}"
        );
    }

    #[test]
    fn momentum_stays_zero_without_thermostat() {
        let mut sim = small_gas(100, 3, 0.15, 3);
        for _ in 0..50 {
            sim.step();
        }
        let total = sim.snapshot().iter().fold(Vec3::ZERO, |acc, p| acc + p.vel);
        assert!(total.norm() < 1e-9, "net momentum {total:?}");
    }

    #[test]
    fn thermostat_pins_temperature() {
        let box_len = (200f64 / 0.2).cbrt();
        let mut ps = init::simple_cubic(200, box_len);
        init::maxwell_boltzmann(&mut ps, 0.722, 4);
        let mut sim = SerialSim::new(
            ps,
            3,
            box_len,
            LennardJones::paper(),
            0.0025,
            Thermostat {
                t_ref: 0.722,
                interval: 10,
            },
        );
        let mut info = sim.step();
        for _ in 0..30 {
            info = sim.step();
        }
        // Step 31 isn't a rescale step; run to 40 to land on one.
        for _ in 0..9 {
            info = sim.step();
        }
        assert!(info.rescaled);
        assert!(
            (info.temperature - 0.722).abs() < 1e-9,
            "T = {}",
            info.temperature
        );
    }

    #[test]
    fn work_counts_are_positive_and_stable() {
        let mut sim = small_gas(150, 3, 0.25, 5);
        let a = sim.step().work;
        let b = sim.step().work;
        assert!(a.pair_checks > 0);
        // One step at dt=0.0025 barely moves particles: counts are close.
        let rel = (a.pair_checks as f64 - b.pair_checks as f64).abs() / a.pair_checks as f64;
        assert!(
            rel < 0.2,
            "pair checks jumped: {} → {}",
            a.pair_checks,
            b.pair_checks
        );
    }

    #[test]
    fn pair_checks_match_full_shell_definition() {
        // The half-shell kernel must still report the paper's full-shell
        // candidate count: Σ over home cells of Σ over the 27 offsets of
        // |home|·|neighbour| − |home| (self-pairs excluded at offset 0).
        let mut sim = small_gas(150, 3, 0.25, 8);
        sim.ensure_forces();
        let grid = sim.grid();
        let mut expect = 0u64;
        for (c, ps) in grid.iter_cells() {
            let h = ps.len() as u64;
            for offset in crate::cells::NEIGHBOR_OFFSETS_27 {
                let (ncell, _) = grid.wrap_neighbor(c, offset);
                expect += h * grid.cell(ncell).len() as u64;
            }
            expect -= h; // the |home| self-pairs at offset (0,0,0)
        }
        assert_eq!(sim.last_work().pair_checks, expect);
    }

    #[test]
    fn snapshot_is_id_sorted_and_complete() {
        let sim = small_gas(64, 3, 0.1, 6);
        let snap = sim.snapshot();
        assert_eq!(snap.len(), 64);
        assert!(snap.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = small_gas(100, 3, 0.2, 7);
        let mut b = small_gas(100, 3, 0.2, 7);
        for _ in 0..10 {
            a.step();
            b.step();
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    /// A gas in a box whose cells are large enough to host a skin:
    /// nc = 4, box = 12 ⇒ cell_len = 3.0 ≥ 2.5 (r_c) + 0.4 (skin).
    fn skin_gas(seed: u64) -> Vec<Particle> {
        let mut ps = init::simple_cubic(180, 12.0);
        init::maxwell_boltzmann(&mut ps, 0.722, seed);
        ps
    }

    fn skin_sim(ps: Vec<Particle>, skin: f64, verlet: bool) -> SerialSim {
        SerialSim::new(
            ps,
            4,
            12.0,
            LennardJones::paper(),
            0.0025,
            Thermostat {
                t_ref: 0.722,
                interval: 10,
            },
        )
        .with_skin(skin, verlet)
    }

    #[test]
    fn verlet_replay_matches_frozen_walk_bitwise() {
        // Same skin, with and without the recorded-list replay: identical
        // rebuild schedule, so the trajectories must agree bit-for-bit.
        let mut walk = skin_sim(skin_gas(11), 0.4, false);
        let mut replay = skin_sim(skin_gas(11), 0.4, true);
        for s in 0..60 {
            let a = walk.step();
            let b = replay.step();
            assert_eq!(
                walk.last_step_rebuilt(),
                replay.last_step_rebuilt(),
                "rebuild schedule diverged at step {s}"
            );
            assert_eq!(a.work.interacting_pairs, b.work.interacting_pairs);
            assert_eq!(a.potential.to_bits(), b.potential.to_bits(), "step {s}");
        }
        let sa = walk.snapshot();
        let sb = replay.snapshot();
        for (p, q) in sa.iter().zip(&sb) {
            assert_eq!(p.pos.x.to_bits(), q.pos.x.to_bits());
            assert_eq!(p.pos.y.to_bits(), q.pos.y.to_bits());
            assert_eq!(p.pos.z.to_bits(), q.pos.z.to_bits());
            assert_eq!(p.vel.x.to_bits(), q.vel.x.to_bits());
        }
    }

    #[test]
    fn skin_epochs_match_per_step_rebinning_closely() {
        // Skin epochs change *when* wrapping/rebinning happens, which can
        // legally reorder FP sums relative to skin == 0 — but the physics
        // must agree to integration tolerance over a short window.
        let mut every = skin_sim(skin_gas(12), 0.0, false);
        let mut epochs = skin_sim(skin_gas(12), 0.4, true);
        let mut a = every.step();
        let mut b = epochs.step();
        for _ in 0..40 {
            a = every.step();
            b = epochs.step();
        }
        let ea = a.kinetic + a.potential;
        let eb = b.kinetic + b.potential;
        assert!(
            ((ea - eb) / ea.abs().max(1.0)).abs() < 1e-6,
            "energies diverged: {ea} vs {eb}"
        );
        // Mid-epoch positions are unwrapped; compare modulo the box.
        for (p, q) in every.snapshot().iter().zip(&epochs.snapshot()) {
            let d = (p.pos.rem_euclid(12.0) - q.pos.rem_euclid(12.0)).norm();
            assert!(!(1e-6..=11.0).contains(&d), "particle {} drifted {d}", p.id);
        }
    }

    #[test]
    fn rebuilds_are_a_minority_of_steps_with_a_skin() {
        let mut sim = skin_sim(skin_gas(13), 0.4, true);
        let mut rebuilds = 0;
        for _ in 0..50 {
            sim.step();
            if sim.last_step_rebuilt() {
                rebuilds += 1;
            }
        }
        assert!(rebuilds >= 1, "tracker never fired in 50 steps");
        assert!(
            rebuilds < 25,
            "rebuilt {rebuilds}/50 steps: skin buys nothing"
        );
    }

    #[test]
    fn forced_interval_rebuilds_on_schedule() {
        let mut sim = skin_sim(skin_gas(14), 0.4, true);
        sim.set_forced_rebuild_interval(7);
        for s in 1..=21u64 {
            sim.step();
            if s.is_multiple_of(7) {
                assert!(sim.last_step_rebuilt(), "step {s} should force a rebuild");
            }
        }
    }

    #[test]
    fn verlet_work_counters_keep_full_shell_accounting_on_rebuild_steps() {
        // On a rebuild step the replay must report the same directed
        // pair-check count as the walk over the same binning.
        let mut walk = skin_sim(skin_gas(15), 0.4, false);
        let mut replay = skin_sim(skin_gas(15), 0.4, true);
        loop {
            let a = walk.step();
            let b = replay.step();
            if walk.last_step_rebuilt() {
                // Post-rebuild forces came from the freshly recorded list.
                assert!(b.work.pair_checks > 0);
                assert_eq!(a.work.interacting_pairs, b.work.interacting_pairs);
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot stay exhaustive")]
    fn skin_too_thick_for_cells_is_rejected() {
        // cell_len = 3.0, r_c = 2.5 ⇒ max skin 0.5; 0.6 must panic.
        skin_sim(skin_gas(16), 0.6, false);
    }

    #[test]
    fn two_body_orbit_matches_direct_integration() {
        // Two particles well inside one cell: the cell-list simulator must
        // match a direct two-body velocity-Verlet integration bit-for-bit
        // arithmetic-wise (same kernel, same order).
        let box_len = 12.0;
        let lj = LennardJones::paper();
        let p0 = Particle::at_rest(0, Vec3::new(5.5, 6.0, 6.0));
        let p1 = Particle::at_rest(1, Vec3::new(7.0, 6.0, 6.0));
        let mut sim = SerialSim::new(vec![p0, p1], 3, box_len, lj, 0.001, Thermostat::off());
        // Direct reference.
        let mut q = [p0, p1];
        let force_pair = |a: &Particle, b: &Particle| {
            let r = b.pos - a.pos;
            let fr = lj.force_over_r_r2(r.norm2());
            -r * fr
        };
        let mut f = [force_pair(&q[0], &q[1]), force_pair(&q[1], &q[0])];
        for _ in 0..100 {
            sim.step();
            for i in 0..2 {
                kick_drift(&mut q[i], f[i], 0.001, box_len);
            }
            f = [force_pair(&q[0], &q[1]), force_pair(&q[1], &q[0])];
            for i in 0..2 {
                kick(&mut q[i], f[i], 0.001);
            }
        }
        let snap = sim.snapshot();
        for i in 0..2 {
            assert!(
                (snap[i].pos - q[i].pos).norm() < 1e-12,
                "particle {i} diverged"
            );
            assert!((snap[i].vel - q[i].vel).norm() < 1e-12);
        }
    }
}
