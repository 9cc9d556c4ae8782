//! The slow loop of a re-tiling run (a balancing square pillar launched
//! without `Launch::fixed_tiles`): 2, 4, 8, … steps after the tiling was
//! last chosen — its last re-tile, or the launch — and under skin epochs
//! the first rebuild step at or after each, rank 0 gathers the work map
//! the last force pass measured, decides with the launch's own chooser
//! and plan whether the tiles move ([`crate::launch::check`]), and
//! broadcasts the decision. A re-tile step drops the balancer's pending
//! decisions and has two rounds: round 1 runs as usual, then every column
//! whose owner changes goes straight to its new owner — one frame per
//! (old owner, new owner) pair, on a torus above 3 × 3 possibly a
//! non-neighbour — and every view is rebuilt on the new tiling and its
//! planned ownership, as a restore rebuilds them from a checkpoint. Every
//! message of it is charged to its step. Cold: nothing here runs in the
//! steady-state step.

use std::collections::BTreeMap;

use pcdlb_core::protocol::tags;
use pcdlb_domain::{Col, DomainShape, PillarLayout};
use pcdlb_md::cells::CellSlab;
use pcdlb_md::Particle;
use pcdlb_mp::{collectives, Comm};

use super::topology::all_columns;
use super::{Origin, PeState};
use crate::launch::{check, Retile, RetileWire};

/// Each owned column with its work and particle count: one rank's part
/// of a check's work map.
pub(crate) type Held = Vec<(Col, u64, u64)>;

/// What the slow loop keeps.
#[derive(Default)]
pub(super) struct Retiling {
    /// Whether this run re-examines its tiling. Fixed for the run.
    enabled: bool,
    /// The step the launch chose the tiling at: 0, or the resize boundary
    /// an elastic generation starts from.
    launched: u64,
    /// Every re-tile so far: its step, the tiling it moved to and the
    /// columns that changed hands.
    history: Vec<(u64, PillarLayout, usize)>,
}

impl PeState {
    /// Make this a re-tiling run's PE (a balancing square pillar only),
    /// whose launch chose its tiling at step `launched`.
    pub(crate) fn follow_the_load(&mut self, launched: u64) {
        debug_assert!(self.balances() && self.decomp.tiling().is_some());
        self.retiling.enabled = true;
        self.retiling.launched = launched;
    }

    /// The re-tiles of the run so far (restored ones included).
    pub(crate) fn retiles(&self) -> Vec<(u64, PillarLayout, usize)> {
        self.retiling.history.clone()
    }

    /// Carry on from the re-tiles a checkpoint recorded.
    pub(super) fn restore_retiles(&mut self, history: &[(u64, PillarLayout, usize)]) {
        self.retiling.history = history.to_vec();
    }

    /// The step the check schedule counts from: the later of the last
    /// re-tile and the launch.
    fn chosen_at(&self) -> u64 {
        let retiled = self.retiling.history.last().map_or(0, |r| r.0);
        retiled.max(self.retiling.launched)
    }

    /// Whether `step` checks the tiling: a rebuild step of a re-tiling
    /// run with a power of two `2^k ≥ 2` in `(last rebuild − b, step − b]`,
    /// `b` the step the tiling was chosen at. Ask before
    /// [`PeState::dlb_due`] moves the rebuild history on. Pure in
    /// replicated state — the re-tile history travels in every checkpoint
    /// — so every rank, and a restored run, agrees.
    pub(crate) fn retile_due(&self, step: u64, rebuild: bool) -> bool {
        if !(self.retiling.enabled && rebuild) {
            return false;
        }
        let base = self.chosen_at();
        let power = 1u64 << (step - base).ilog2();
        power >= 2 && power > self.balance.last_rebuild() - base
    }

    /// This PE's part of the work map.
    fn held(&self) -> Held {
        let mut around = Vec::new();
        let mut column = |(&col, slab): (&Col, &CellSlab)| {
            (col, self.column_checks(col, &mut around), slab.len() as u64)
        };
        self.columns.iter().map(&mut column).collect()
    }

    /// The check: every owned column with its work (see
    /// [`PeState::column_checks`]) and particle count goes to rank 0,
    /// which decides on the whole work map and broadcasts what it decided
    /// — `None` keeps the tiling. A re-tile plans from who holds what: the
    /// decisions still pending are dropped before the step's round 1.
    pub(crate) fn retile_check(&mut self, comm: &mut Comm, step: u64) -> Option<Retile> {
        let held = collectives::gather(comm, tags::RETILE_GATHER, self.held());
        let (model, since) = (*comm.cost_model(), step - self.chosen_at());
        let decided = held.map(|held| check(&self.cfg, step, since, &held, &model));
        let wire = collectives::bcast(
            comm,
            tags::RETILE_BCAST,
            decided.map(|r| r.map(Retile::into_wire)),
        );
        let on = self
            .tiling()
            .expect("a re-tiling run is on a pillar tiling");
        let rank = self.rank;
        let retile = wire.map(|w: RetileWire| {
            Retile::from_wire(w, on)
                .unwrap_or_else(|e| panic!("rank {rank}: a re-tile's cuts: {e}"))
        });
        if let Some(r) = &retile {
            (self.retiling.history).push((step, r.tiling, r.moves.len()));
            self.balance.drop_pending();
        }
        retile
    }

    /// The move, send half: the particles of the columns this PE gives up,
    /// one frame per new owner. Returns the number of columns sent.
    pub(crate) fn retile_send(&mut self, comm: &mut Comm, r: &Retile) -> u64 {
        let mine: Vec<_> = r.moves.iter().filter(|d| d.from == self.rank).collect();
        let mut frames: BTreeMap<usize, Vec<Particle>> = BTreeMap::new();
        for d in &mine {
            let slab = (self.columns.remove(&d.col)).expect("the old owner holds the column");
            frames
                .entry(d.to)
                .or_default()
                .extend_from_slice(slab.particles());
        }
        for (to, parts) in frames {
            self.wire.dlb += comm.send(to, tags::RETILE_XFER, parts) as u64;
        }
        mine.len() as u64
    }

    /// The move, receive half: the columns this PE takes over, one frame
    /// per old owner — then every view rebuilt on the new tiling.
    pub(crate) fn retile_recv(&mut self, comm: &mut Comm, r: &Retile) {
        let (nc, zbin) = (self.nc, self.zbin());
        let mut staging: BTreeMap<usize, BTreeMap<Col, Vec<Particle>>> = BTreeMap::new();
        for d in r.moves.iter().filter(|d| d.to == self.rank) {
            staging.entry(d.from).or_default().insert(d.col, Vec::new());
        }
        for (from, mut columns) in staging {
            let parts: Vec<Particle> = comm.recv(from, tags::RETILE_XFER);
            for p in parts {
                let col = self.col_of(p.pos);
                (columns.get_mut(&col))
                    .expect("a moved particle lies in a column moved to this PE")
                    .push(p);
            }
            for (col, parts) in columns {
                self.columns.insert(col, CellSlab::build(nc, &parts, zbin));
            }
        }
        self.adopt_tiling(r);
    }

    /// Rebuild every view on the re-tile's tiling and planned ownership,
    /// as a launch builds them ([`Origin`]): the decomposition, the
    /// topology (its caches are redrawn at their next use), the balancer's
    /// loads in hand — the plan's, nothing in flight. The neighbour set is
    /// read off the home tiles, before the plan lends anything: on any
    /// rectilinear tiling every rank borders the same eight torus
    /// neighbours there, so the channels stay, and so does the world's
    /// closure answer, which holds on any tiling.
    fn adopt_tiling(&mut self, r: &Retile) {
        let rank = self.rank;
        let origin = Origin {
            shape: DomainShape::SquarePillar,
            tiling: Some(&r.tiling),
            decisions: &r.decisions,
        };
        let (decomp, topology) = origin.own_view(rank, &self.cfg, self.exchanges_once());
        self.decomp = decomp;
        debug_assert!(
            all_columns(self.nc)
                .filter(|&col| self.decomp.owner_of(col, 0) == rank)
                .eq(self.columns.keys().copied()),
            "rank {rank}: the columns held are not the ones planned"
        );
        assert_eq!(
            topology.neighbors(),
            self.topology.neighbors(),
            "rank {rank}: a re-tile changed the neighbour set"
        );
        self.topology = topology;
        let neighbors = self.topology.neighbors();
        self.balance.resume(rank, neighbors, &r.loads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Lattice, RunConfig};
    use crate::launch::{launch_plan, Placed};
    use crate::pe::initial_particles;

    /// A corner cluster that re-tiles at its first check (step 2): on the
    /// 4 × 4 torus (`m = 4`, 40 % of the box), or the benchmark's
    /// `cluster_dlb_p9` on the 3 × 3.
    fn cluster(p: usize) -> RunConfig {
        let mut cfg = RunConfig::from_p_m_density(p, 4, 0.128);
        let fill = if p == 9 { 0.45 } else { 0.4 };
        cfg.lattice = Lattice::Cluster { fill };
        cfg.dlb = true;
        cfg.seed = 1;
        cfg.steps = 8;
        cfg
    }

    /// Drive `cfg` on its re-tiling launch, following the load or not, one
    /// rank per thread; `each` sees every PE after every step.
    fn drive<T: Send>(
        cfg: &RunConfig,
        follow: bool,
        each: impl Fn(u64, &mut PeState, &mut Comm) -> T + Sync,
    ) -> Vec<Vec<T>> {
        let shape = DomainShape::SquarePillar;
        let placed = Placed::new(cfg, &initial_particles(cfg));
        let plan = launch_plan(shape, cfg, 0, &placed.column_work(), true);
        let start = crate::engine::Start::fresh(shape, cfg, &placed, &plan);
        pcdlb_mp::World::new(cfg.p)
            .with_cost_model(crate::decomp::cost_model(shape, cfg))
            .run(|comm| {
                let retile = follow.then_some(0);
                let mut pe = crate::engine::launch(comm.rank(), cfg, retile, &start);
                (1..=cfg.steps)
                    .map(|step| {
                        crate::engine::step_pe(comm, &mut pe, step);
                        each(step, &mut pe, comm)
                    })
                    .collect()
            })
    }

    #[test]
    fn a_check_reads_the_work_map_of_the_state_it_sees() {
        // What a check gathers is, column for column, the full-shell work
        // `Placed::column_work` counts on the particles the ranks hold at
        // that moment — read off the slabs the last force pass ran on,
        // whoever owns a column.
        let cfg = cluster(16);
        let checked = drive(&cfg, true, |step, pe, comm| {
            let due = pe.retile_due(step + 1, true);
            let held = collectives::gather(comm, tags::SNAPSHOT, pe.held());
            let parts = pe.gather_snapshot(comm);
            let _ = comm.lap_virtual_comm();
            let Some((held, parts)) = held.zip(parts).filter(|_| due) else {
                return 0;
            };
            let mut work = vec![u64::MAX; cfg.nc * cfg.nc];
            for &(col, checks, _) in held.iter().flatten() {
                work[col.cx * cfg.nc + col.cy] = checks;
            }
            assert_eq!(
                work,
                Placed::new(&cfg, &parts).column_work(),
                "before step {}",
                step + 1
            );
            1
        });
        // The checks of steps 2, 4 and 6 (two and four steps after the
        // step-2 re-tile), as rank 0 saw them.
        assert_eq!(checked[0].iter().sum::<i32>(), 3);
    }

    #[test]
    fn a_re_tile_step_pays_for_its_messages_in_its_own_step() {
        // Same launch, same state up to the first re-tile (step 2): the
        // run that follows the load pays a gather and a broadcast on every
        // check step and the move — two rounds, and a frame per pair of
        // ranks a column passes between — on the re-tile step, all inside
        // the step; after it the comm lap is empty on every rank, so
        // nothing is charged to the next step or to no step at all. (On the
        // 3 × 3 torus every other step sends one exchange, whatever
        // columns the two runs move.)
        let cfg = cluster(9);
        let comm_after = |follow| {
            drive(&cfg, follow, |_, pe, comm| {
                assert_eq!(comm.lap_virtual_comm(), 0.0, "rank {}", pe.rank);
                let stats = comm.stats();
                let sent = [stats.virtual_comm_s, stats.msgs_sent as f64];
                (sent, pe.retiles().len())
            })
        };
        let (followed, fixed) = (comm_after(true), comm_after(false));
        // Over `step`, the largest per-rank increment of the comm time and
        // of the messages sent.
        let delta = |run: &[Vec<([f64; 2], usize)>], step: usize| -> [f64; 2] {
            std::array::from_fn(|k| {
                let per_rank = run.iter().map(|s| s[step - 1].0[k] - s[step - 2].0[k]);
                per_rank.fold(0.0, f64::max)
            })
        };
        let retiled: Vec<usize> = followed[0].iter().map(|s| s.1).collect();
        assert_eq!(retiled, [0, 1, 1, 1, 1, 1, 1, 1], "re-tiles at step 2");
        // The re-tile moves the schedule on: its checks come 2 and 4 steps
        // after it.
        for step in [2, 4, 6] {
            let ([time, msgs], [fixed_time, fixed_msgs]) =
                (delta(&followed, step), delta(&fixed, step));
            assert!(time > fixed_time && msgs > fixed_msgs, "step {step}");
        }
        for step in [3, 5, 7, 8] {
            assert_eq!(
                delta(&followed, step)[1],
                delta(&fixed, step)[1],
                "step {step}"
            );
        }
    }

    #[test]
    fn the_checks_count_doubling_steps_from_the_last_time_the_tiles_were_chosen() {
        // A walk over steps 1..=60 of rank 0 of a re-tiling run, its
        // rebuild steps given by `rebuilds`, with a re-tile written into
        // the history at step 34 as `retile_check` writes one: the steps
        // `retile_due` checks.
        let cfg = cluster(9);
        let placed = Placed::new(&cfg, &initial_particles(&cfg));
        let shape = DomainShape::SquarePillar;
        let plan = launch_plan(shape, &cfg, 0, &placed.column_work(), true);
        let start = crate::engine::Start::fresh(shape, &cfg, &placed, &plan);
        let checks = |rebuilds: &dyn Fn(u64) -> bool| {
            let mut pe = PeState::new(0, &cfg, &start);
            pe.follow_the_load(0);
            let tiling = pe.tiling().expect("a pillar PE has a tiling");
            let mut due = Vec::new();
            for step in 1..=60 {
                let rebuild = rebuilds(step);
                if pe.retile_due(step, rebuild) {
                    due.push(step);
                }
                if step == 34 {
                    pe.restore_retiles(&[(34, tiling, 1)]);
                }
                let _ = pe.dlb_due(step, rebuild);
            }
            due
        };
        // Every step rebuilds: 2, 4, 8, 16, 32 steps after the launch,
        // then 2, 4, 8, 16 after the re-tile.
        let scheduled = [2, 4, 8, 16, 32, 36, 38, 42, 50];
        assert_eq!(checks(&|_| true), scheduled);
        // Under skin epochs (here every third step rebuilds, 34 among
        // them) each check waits for the first rebuild step at or after
        // its scheduled one; two that wait for the same step are one.
        let epochs = |step: u64| step % 3 == 1;
        let mut waited: Vec<u64> = scheduled
            .iter()
            .map(|&at| (at..).find(|&s| epochs(s)).expect("a later rebuild"))
            .collect();
        waited.dedup();
        assert_eq!(waited, [4, 10, 16, 34, 37, 40, 43, 52]);
        assert_eq!(checks(&epochs), waited);
    }
}
