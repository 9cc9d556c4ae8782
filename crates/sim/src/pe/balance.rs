//! The balancer's glue (phase 3). The rule is the shape's
//! (`Decomposition::{decide, excludes, apply, granule}`: the pillar's
//! Case 1–3 rules toward the fastest neighbour that may take a cell and
//! stay below the giver, the column that evens the pair most; the plane's
//! moving boundary — see [`pcdlb_core::protocol`]); [`Balance`] keeps its
//! inputs between steps and is driven from loads and transfers alone.
//! What a candidate weighs is the work a [`Transfer`] carries — its
//! columns' candidate pairs, counted once per balancing step for every
//! held column, as a share of this PE's load — on the receiver's speed.
//!
//! When a decision takes effect depends on the step's frames
//! ([`super::exchange`]'s business). Where a rebuild step has two rounds,
//! the decisions round 1 brings are applied at once and their cells
//! follow (`CELL_XFER`). Where it is one frame per neighbour, the
//! decisions it brings are *pending*: every PE applies them at the top
//! of the next rebuild step ([`PeState::dlb_land`]) and the columns'
//! particles travel in that step's frames, from the giver, as migrants.
//! Either way a transfer stays in flight — booked onto the loads in hand
//! — until frames bring loads measured after it was applied: a pending
//! one for the two steps it spans, and for the step it lands in also
//! onto this PE's own load.

use std::collections::BTreeMap;
use std::sync::Arc;

use pcdlb_core::protocol::{book_in_flight, tags, DlbDecision, Transfer};
use pcdlb_domain::Col;
use pcdlb_md::cells::CellSlab;
use pcdlb_md::Particle;
use pcdlb_mp::{BufferPool, Comm, WireSize};

use super::topology::cells_around;
use super::PeState;
use crate::clock::WallTimer;
use crate::decomp::Decomposition;
use crate::frame::ParticleFrame;
use crate::recover::SimCheckpoint;

/// What the balancer knows between steps.
#[derive(Default)]
pub(super) struct Balance {
    /// Whether ownership can change this run: the shape has a balancer
    /// and `cfg.dlb` switches it on. Fixed for the run.
    enabled: bool,
    /// The neighbours' loads in hand, as the last frames that carried
    /// them brought them: each measured by the force pass before the step
    /// that announced it.
    nbr_loads: Vec<(usize, f64)>,
    /// `nbr_loads` with the in-flight transfers booked: what the balancer
    /// decides on (retained scratch).
    booked_loads: Vec<(usize, f64)>,
    /// The load this PE put into its last frames — what its neighbours
    /// hold for it, and so what a checkpoint must carry.
    announced_load: Option<f64>,
    /// This step's own decision, taken at the top of the step and waiting
    /// for the step's first frame to carry it.
    my_decision: Option<Transfer>,
    /// The decisions the step's first frames brought (this PE's and its
    /// neighbours'), ascending `from` once folded (retained scratch).
    decisions: Vec<Transfer>,
    /// Decisions a single frame brought, not yet applied: they land at
    /// the top of the next rebuild step.
    pending: Vec<Transfer>,
    /// The transfers applied since the loads in hand were measured, in
    /// the order they were applied (each step's ascending `from`): what
    /// those loads are brought up to date with before a decision. After a
    /// step's frames are in, exactly the transfers whose columns changed
    /// hands in that step.
    in_flight: Vec<Transfer>,
    /// How many of `in_flight`, at its end, landed at the top of this
    /// step — after this PE's own load was measured, too.
    landed: usize,
    /// Every held column's full-shell candidate-pair count, ascending by
    /// column, counted at the top of each balancing step (retained).
    checks: Vec<(Col, u64)>,
    /// Per-z scratch behind `checks`.
    around: Vec<u64>,
    /// The last rebuild step (the checkpointed step after a restore): a
    /// balancing step is due at the first rebuild that has a multiple of
    /// `dlb_interval` behind it since this one.
    last_rebuild: u64,
    /// Pooled flat-particle send buffers (cell transfer).
    part_pool: BufferPool<ParticleFrame>,
}

impl Balance {
    pub(super) fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Whether the balancer runs on `step`, and the step's entry in the
    /// rebuild history that answer depends on. Balancing is due at the
    /// first rebuild step at or after each multiple of `interval` — a
    /// multiple lies in `(previous rebuild, step]` — which is replicated
    /// state, is "every `interval`-th step" where every step rebuilds,
    /// and survives a restore (checkpoint steps are forced rebuilds).
    fn due(&mut self, step: u64, rebuild: bool, interval: u64) -> bool {
        if !rebuild {
            return false;
        }
        let due = self.enabled && step / interval > self.last_rebuild / interval;
        self.last_rebuild = step;
        due
    }

    /// The last rebuild step before the step being decided (see
    /// [`Balance::due`], which moves it on).
    pub(super) fn last_rebuild(&self) -> u64 {
        self.last_rebuild
    }

    /// Start over from per-rank `loads` every rank holds (a checkpoint's,
    /// a re-tile's): this PE's own as announced, its `neighbors`' as heard,
    /// nothing in flight and nothing pending.
    pub(super) fn resume(&mut self, rank: usize, neighbors: &[usize], loads: &[f64]) {
        self.announced_load = Some(loads[rank]);
        self.nbr_loads.clear();
        self.nbr_loads
            .extend(neighbors.iter().map(|&nb| (nb, loads[nb])));
        self.decisions.clear();
        self.pending.clear();
        self.in_flight.clear();
        self.landed = 0;
        self.my_decision = None;
    }

    /// The top of a rebuild step that does not re-tile: the pending
    /// decisions are applied to the ownership view, in the order they
    /// were folded, and are in flight from here.
    fn land(&mut self, decomp: &mut dyn Decomposition) {
        for t in &self.pending {
            decomp.apply(&t.decision);
        }
        self.landed = self.pending.len();
        self.in_flight.append(&mut self.pending);
    }

    /// The transfers that landed at the top of this step.
    pub(super) fn landed(&self) -> &[Transfer] {
        &self.in_flight[self.in_flight.len() - self.landed..]
    }

    /// The loads the shape's rule decides on: the neighbours' as the last
    /// frames brought them, with every transfer in flight booked onto
    /// them (`booked_loads`), and — returned — this PE's `own` as its last
    /// force pass measured it, with the transfers that landed since booked
    /// onto it (`on_receiver`: see [`book_in_flight`]).
    fn book(&mut self, rank: usize, own: f64, on_receiver: impl Fn(usize, usize) -> f64) -> f64 {
        self.booked_loads.clear();
        self.booked_loads.extend_from_slice(&self.nbr_loads);
        book_in_flight(&mut self.booked_loads, &self.in_flight, &on_receiver);
        let mut mine = [(rank, own)];
        book_in_flight(&mut mine, self.landed(), on_receiver);
        mine[0].1
    }

    /// What this PE's first frames of a step carry: `own_load` —
    /// remembered as announced — and the decision waiting to ride along.
    /// Nothing in a run that does not balance.
    pub(super) fn announce(&mut self, own_load: f64) -> (Option<f64>, Option<Transfer>) {
        self.announced_load = self.enabled.then_some(own_load);
        (self.announced_load, self.my_decision)
    }

    /// The step's first frames come in: the loads in hand are replaced,
    /// and with them every transfer in flight but the ones that landed
    /// at the top of this step (the loads coming in were measured before
    /// that); the round's decisions start from this PE's own.
    pub(super) fn open_round(&mut self) {
        self.nbr_loads.clear();
        self.in_flight.drain(..self.in_flight.len() - self.landed);
        self.decisions.clear();
        self.decisions.extend(self.my_decision.take());
    }

    /// What neighbour `nb`'s frame brought.
    pub(super) fn hear(&mut self, nb: usize, load: Option<f64>, decision: Option<Transfer>) {
        debug_assert_eq!(load.is_some(), self.enabled, "loads ride a balancing run");
        self.nbr_loads.extend(load.map(|load| (nb, load)));
        self.decisions.extend(decision);
    }

    /// Phase 3, step 4: put the round's decisions in ascending `from`
    /// order and void those that exclude each other, all of them: judged
    /// on the whole list (at most one per neighbour and this PE's own)
    /// before any is dropped.
    fn settle(&mut self, decomp: &dyn Decomposition) {
        self.decisions.sort_unstable_by_key(|t| t.decision.from);
        let mut void = 0u64;
        for (i, a) in self.decisions.iter().enumerate() {
            let clashes = |b: &Transfer| decomp.excludes(&a.decision, &b.decision);
            void |= u64::from(self.decisions.iter().any(clashes)) << i;
        }
        let mut at = 0;
        self.decisions.retain(|_| {
            at += 1;
            void >> (at - 1) & 1 == 0
        });
    }

    /// Two rounds: the settled decisions are applied to the ownership view
    /// now, and are in flight from here — with the ones that landed at
    /// the top of the step, all the loads just received have not seen.
    fn fold(&mut self, decomp: &mut dyn Decomposition) {
        self.settle(decomp);
        for t in &self.decisions {
            decomp.apply(&t.decision);
        }
        self.in_flight.extend_from_slice(&self.decisions);
    }

    /// One frame: the settled decisions wait for the next rebuild step.
    fn defer(&mut self, decomp: &dyn Decomposition) {
        self.settle(decomp);
        debug_assert!(self.pending.is_empty());
        std::mem::swap(&mut self.pending, &mut self.decisions);
    }

    /// The transfers whose cells travel this step by `CELL_XFER`: the ones
    /// two rounds applied after round 1.
    fn moved(&self) -> &[Transfer] {
        &self.in_flight[self.landed..]
    }

    /// What a checkpoint carries of the balancer: the load this PE last
    /// announced and the transfers `rank` gave that those loads have not
    /// seen — applied ones first, then one still pending.
    pub(super) fn held(&self, rank: usize) -> (Option<f64>, impl Iterator<Item = Transfer> + '_) {
        let all = self.in_flight.iter().chain(&self.pending);
        let given = all.filter(move |t| t.decision.from == rank).copied();
        (self.announced_load, given)
    }

    /// Resume at the step of checkpoint `ck` (a rebuild step in every
    /// schedule) holding what it carried: every rank's last announced
    /// load and the transfers those loads have not seen — of which this
    /// PE heard its own and its `neighbors`'. A transfer whose giver still
    /// holds the column (`held`) was pending at the checkpoint and lands
    /// at the next rebuild step; the others are in flight. A checkpoint
    /// without loads (a drain remapped onto another torus, a generation
    /// that did not balance) leaves the launch to announce them.
    pub(super) fn restore(
        &mut self,
        rank: usize,
        p: usize,
        neighbors: &[usize],
        ck: &SimCheckpoint,
        held: impl Fn(&DlbDecision) -> bool,
    ) {
        self.last_rebuild = ck.md.step;
        if self.enabled && !ck.loads.is_empty() {
            assert_eq!(
                ck.loads.len(),
                p,
                "checkpoint announces {} loads for {p} ranks",
                ck.loads.len()
            );
            self.resume(rank, neighbors, &ck.loads);
            let heard = |t: &&Transfer| {
                let from = t.decision.from;
                from == rank || neighbors.binary_search(&from).is_ok()
            };
            for t in ck.transfers.iter().filter(heard) {
                let list = if held(&t.decision) {
                    &mut self.pending
                } else {
                    &mut self.in_flight
                };
                list.push(*t);
            }
        }
    }
}

impl PeState {
    /// Whether this run balances: the shape has a balancer and `cfg.dlb`
    /// is on. Loads then ride every round-1 frame.
    pub(crate) fn balances(&self) -> bool {
        self.balance.enabled
    }

    /// Whether the balancer runs on this step (see [`Balance::due`]).
    pub(crate) fn dlb_due(&mut self, step: u64, rebuild: bool) -> bool {
        self.balance.due(step, rebuild, self.cfg.dlb_interval)
    }

    /// The top of a rebuild step that does not re-tile: the decisions the
    /// last single frames brought are applied to the ownership view (see
    /// [`Balance::land`]); their particles travel in this step's frames.
    /// Returns the number of them this PE gave.
    pub(crate) fn dlb_land(&mut self) -> u64 {
        if !self.balance.enabled {
            return 0;
        }
        self.balance.land(&mut *self.decomp);
        self.follow_decisions(self.balance.landed().len());
        let rank = self.rank;
        let given = self
            .balance
            .landed()
            .iter()
            .filter(|t| t.decision.from == rank);
        given.count() as u64
    }

    /// Phase 3 (DLB), steps 1–3, run at the top of the step: apply the
    /// shape's balancer rule to the loads in hand — this PE's own, which
    /// its last force pass measured, and its neighbours', each brought up
    /// to date with what changed hands since (see [`Balance::book`]) — and
    /// to the load each candidate would move. Purely local; the decision
    /// waits for the step's first frame.
    pub(crate) fn dlb_decide(&mut self) {
        let t0 = WallTimer::start();
        debug_assert_eq!(
            self.balance.nbr_loads.len(),
            self.topology.neighbors().len()
        );
        self.count_checks();
        let (cfg, step) = (&self.cfg, self.cur_step);
        // Where the run balances time, a share of the giver's time is
        // worth the two speeds' ratio on the receiver.
        let speeds = cfg.speed.as_ref().filter(|_| cfg.speed_aware);
        let on_receiver =
            |from, to| speeds.map_or(1.0, |s| s.speed(from, step) / s.speed(to, step));
        let own = self.force.load();
        let booked = self.balance.book(self.rank, own, on_receiver);
        // The load that changes hands, as a share of this PE's own: the
        // moved columns' candidate pairs over the last pass's total. A
        // column whose particles have not arrived yet has no count: it
        // cannot move on before it lands.
        let checks = &self.balance.checks;
        let share = |d: &DlbDecision| -> Option<f64> {
            let mut moved = 0u64;
            for col in self.decomp.granule(d) {
                moved += checks[checks.binary_search_by_key(&col, |c| c.0).ok()?].1;
            }
            Some(match self.force.work().pair_checks {
                0 => 0.0,
                total => own * (moved as f64 / total as f64),
            })
        };
        // What it weighs on the receiver.
        let weight =
            |d: &DlbDecision| share(d).map_or(f64::INFINITY, |w| w * on_receiver(d.from, d.to));
        let decision = self
            .decomp
            .decide(step, booked, &self.balance.booked_loads, &weight);
        self.balance.my_decision = decision.map(|d| Transfer {
            decision: d,
            work: share(&d).expect("a chosen granule is held"),
        });
        self.phase.dlb += t0.elapsed_s();
    }

    /// Count every held column's full-shell candidate pairs
    /// ([`PeState::column_checks`]) into the balancer's cache.
    fn count_checks(&mut self) {
        let mut checks = std::mem::take(&mut self.balance.checks);
        let mut around = std::mem::take(&mut self.balance.around);
        checks.clear();
        for &col in self.columns.keys() {
            checks.push((col, self.column_checks(col, &mut around)));
        }
        self.balance.checks = checks;
        self.balance.around = around;
    }

    /// The full-shell candidate-pair count of held column `col` — for
    /// every particle of it, the particles in its cell and the 26 around
    /// it, read off the occupancies of the owned and ghost slabs the last
    /// force pass ran on: the 3 × 3 columns around it summed per z cell
    /// into `around` (scratch), then three z cells at a time. It does not
    /// depend on who owns the column, and over the owned columns it sums
    /// to the pass's `pair_checks`.
    pub(super) fn column_checks(&self, col: Col, around: &mut Vec<u64>) -> u64 {
        let nc = self.nc;
        let slab = |c: &Col| self.columns.get(c).or_else(|| self.ghosts.get(c));
        around.clear();
        around.resize(nc, 0);
        for (c, _) in cells_around(nc, col, 0..nc) {
            if let Some(s) = slab(&c) {
                for (z, sum) in around.iter_mut().enumerate() {
                    *sum += s.cell(z).len() as u64;
                }
            }
        }
        let Some(here) = slab(&col) else {
            return 0;
        };
        let cell = |z: usize| {
            let n = here.cell(z).len() as u64;
            let shell = around[(z + nc - 1) % nc] + around[z] + around[(z + 1) % nc];
            if n == 0 {
                0
            } else {
                n * (shell - 1)
            }
        };
        (0..nc).map(cell).sum()
    }

    /// Decisions applied to the ownership view — the last `n` in flight:
    /// the routing/class caches must be rebuilt before the next ghost
    /// exchange or force pass — but only if they can differ. They are a
    /// function of the owned column set and of who owns the columns
    /// around it, so a transfer between two other PEs of a column that
    /// touches none of ours leaves them as they are (on a 3×3 torus every
    /// PE hears every decision).
    fn follow_decisions(&mut self, n: usize) {
        let applied = &self.balance.in_flight[self.balance.in_flight.len() - n..];
        if applied.iter().any(|t| self.redraws_caches(&t.decision)) {
            self.topology.mark_dirty();
        }
    }

    /// Phase 3, step 4, once round 1 is in: fold the neighbourhood's
    /// decisions into the ownership view (see [`Balance::fold`]), ready
    /// for the cell-transfer halves.
    pub(super) fn dlb_fold(&mut self) {
        let t0 = WallTimer::start();
        self.balance.fold(&mut *self.decomp);
        self.follow_decisions(self.balance.decisions.len());
        self.phase.dlb += t0.elapsed_s();
    }

    /// Phase 3, step 4, once a single exchange is in: the neighbourhood's
    /// decisions wait for the next rebuild step (see [`Balance::defer`]).
    pub(super) fn dlb_defer(&mut self) {
        self.balance.defer(&*self.decomp);
    }

    /// Phase 3, data-movement send half: ship the particles of the
    /// columns this PE gave away this step, one id-sorted frame per
    /// decision. Returns the number of transfers sent.
    pub(crate) fn dlb_send_cells(&mut self, comm: &mut Comm) -> u64 {
        let t0 = WallTimer::start();
        let mut sent = 0u64;
        for i in 0..self.balance.moved().len() {
            let d = self.balance.moved()[i].decision;
            if d.from == self.rank {
                let mut buf = self.balance.part_pool.checkout();
                let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
                frame.parts.clear();
                for col in self.decomp.granule(&d) {
                    let slab = self
                        .columns
                        .remove(&col)
                        .expect("sender owns the column data");
                    frame.parts.extend_from_slice(slab.particles());
                }
                frame.parts.sort_unstable_by_key(|p| p.id);
                self.wire.dlb += frame.encoded_size() as u64;
                comm.send(d.to, tags::CELL_XFER, Arc::clone(&buf));
                self.balance.part_pool.checkin(buf);
                sent += 1;
            }
        }
        self.phase.dlb += t0.elapsed_s();
        sent
    }

    /// Phase 3, data-movement receive half: collect columns granted to
    /// this PE (ordered by sender rank).
    pub(crate) fn dlb_recv_cells(&mut self, comm: &mut Comm) {
        let t0 = WallTimer::start();
        let zbin = self.zbin();
        for i in 0..self.balance.moved().len() {
            let d = self.balance.moved()[i].decision;
            if d.to == self.rank {
                let flat: Arc<ParticleFrame> = comm.recv(d.from, tags::CELL_XFER);
                let mut staging: BTreeMap<Col, Vec<Particle>> = self
                    .decomp
                    .granule(&d)
                    .into_iter()
                    .map(|c| (c, Vec::new()))
                    .collect();
                for p in &flat.parts {
                    staging
                        .get_mut(&self.cell_of(p.pos).0)
                        .expect("transferred particle lies in a transferred column")
                        .push(*p);
                }
                for (col, parts) in staging {
                    let slab = CellSlab::build(self.nc, parts, zbin);
                    self.columns.insert(col, slab);
                }
            }
        }
        self.phase.dlb += t0.elapsed_s();
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{fresh, placed};
    use super::super::Exchange;
    use super::*;
    use crate::config::{Lattice, RunConfig};
    use crate::launch::{LaunchPlan, Placed};
    use pcdlb_domain::DomainShape;
    use std::ops::Range;

    /// A decomposition that is nothing but the two answers the fold asks
    /// for: the plane's exclusion rule, and a log of what was applied.
    struct Ring(Vec<DlbDecision>);

    impl Decomposition for Ring {
        fn owner_of(&self, _: Col, _: usize) -> usize {
            unreachable!("the fold asks for no owner")
        }
        fn z_extent(&self, _: usize) -> Range<usize> {
            unreachable!("the fold asks for no extent")
        }
        fn excludes(&self, a: &DlbDecision, b: &DlbDecision) -> bool {
            (a.from, a.to) == (b.to, b.from)
        }
        fn apply(&mut self, d: &DlbDecision) {
            self.0.push(*d);
        }
    }

    fn give(from: usize, to: usize) -> DlbDecision {
        let col = Col::new(from, 0);
        DlbDecision { col, from, to }
    }

    #[test]
    fn loads_and_transfers_alone_drive_the_fold_and_the_booking() {
        // Rank 1 of a ring of four, with no PE, no world and no frame
        // around it. It decided 1 → 0; round 1 brings 2 → 3 from one
        // neighbour and 0 → 1 from the other — heard in that order.
        let work = |decision, work| Transfer { decision, work };
        let mut balance = Balance::new(true);
        let mut ring = Ring(Vec::new());
        balance.my_decision = Some(work(give(1, 0), 5.0));
        assert_eq!(balance.announce(7.0).0, Some(7.0));
        balance.open_round();
        balance.hear(2, Some(1.0), Some(work(give(2, 3), 1.0)));
        balance.hear(0, Some(4.0), Some(work(give(0, 1), 1e16)));
        // 0 → 1 and 1 → 0 cross one boundary: both are void, to both
        // ranks; what stands is applied, and stays in flight.
        balance.fold(&mut ring);
        assert_eq!(ring.0, [give(2, 3)]);
        assert_eq!(balance.in_flight, [work(give(2, 3), 1.0)]);
        assert_eq!(balance.held(1).1.count(), 0);
        // The next round's loads have seen that transfer: nothing of it
        // is booked onto them. What the round brings is booked in
        // ascending `from` order, whatever order it was heard in:
        // (1 + 1e16) + 1 is 1e16, (1 + 1) + 1e16 is not. This PE's own
        // load has seen them all.
        balance.open_round();
        balance.hear(2, Some(1.0), Some(work(give(3, 2), 1.0)));
        balance.hear(0, Some(4.0), Some(work(give(0, 2), 1e16)));
        balance.fold(&mut ring);
        assert_eq!(balance.book(1, 7.0, |_, _| 1.0), 7.0);
        assert_eq!(balance.booked_loads, [(2, 1e16), (0, 4.0 - 1e16)]);
        // One frame: what it brings is not applied but pending — a
        // checkpoint carries it after what is applied — and lands at the
        // top of the next rebuild step. From there it is in flight for
        // two rounds of loads, and this once for this PE's own load too.
        balance.open_round();
        balance.hear(2, Some(3.0), Some(work(give(2, 1), 2.0)));
        balance.hear(0, Some(5.0), None);
        balance.defer(&ring);
        assert_eq!(ring.0.len(), 3, "nothing applied yet");
        assert!(balance.in_flight.is_empty());
        let given: Vec<Transfer> = balance.held(2).1.collect();
        assert_eq!(given, [work(give(2, 1), 2.0)]);
        balance.land(&mut ring);
        assert_eq!(ring.0.last(), Some(&give(2, 1)));
        assert_eq!(balance.book(1, 7.0, |_, _| 1.0), 9.0);
        assert_eq!(balance.booked_loads, [(2, 1.0), (0, 5.0)]);
        balance.open_round();
        balance.hear(2, Some(1.5), None);
        balance.hear(0, Some(5.0), None);
        balance.defer(&ring);
        assert_eq!(balance.in_flight, [work(give(2, 1), 2.0)]);
        balance.land(&mut ring);
        assert_eq!(balance.book(1, 9.0, |_, _| 1.0), 9.0);
        assert_eq!(balance.booked_loads, [(2, -0.5), (0, 5.0)]);
        // A run that does not balance announces and books nothing.
        let mut idle = Balance::new(false);
        assert_eq!(idle.announce(7.0), (None, None));
        assert!(!idle.due(4, true, 1) && balance.due(4, true, 4) && !balance.due(5, true, 4));
    }

    /// A 3×3 pillar PE (m = 3) that has just come up, holding `loads` for
    /// its neighbours and `own` for itself.
    fn pe_with_loads(rank: usize, gain: f64, own: f64, loads: &[f64]) -> PeState {
        let mut cfg = RunConfig::from_p_m_density(9, 3, 0.05);
        cfg.dlb = true;
        cfg.dlb_min_gain = gain;
        let nobody = Placed::new(&cfg, &[]);
        let mut pe = PeState::new(
            rank,
            &cfg,
            DomainShape::SquarePillar,
            &nobody,
            &LaunchPlan::default(),
        );
        pe.force.set_load(own);
        pe.balance.nbr_loads = pe
            .neighbors()
            .iter()
            .copied()
            .zip(loads.iter().copied())
            .collect();
        pe
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn deciding_ahead_is_the_same_choice_on_the_loads_in_hand(
            rank in 0usize..9,
            gain_tenths in 0u32..3,
            own in 0u32..8,
            loads in proptest::collection::vec(0u32..8, 8..9),
            (giver, taker) in (0usize..8, 0usize..8),
            work in 0u32..4,
        ) {
            // With nothing in flight the engine hands the balancer the
            // loads exactly as round 1 brought them: the decision is the
            // one deciding after that round 1 would have been — the same
            // `choose` call on the same view. (Few load levels: ties and
            // sub-threshold gains are common.)
            use pcdlb_core::protocol::DlbProtocol;
            use pcdlb_domain::{OwnershipMap, PillarLayout};
            let gain = f64::from(gain_tenths) / 10.0;
            let loads: Vec<f64> = loads.into_iter().map(f64::from).collect();
            let mut pe = pe_with_loads(rank, gain, f64::from(own), &loads);
            let layout = PillarLayout::new(pe.cfg.nc, pe.cfg.torus());
            let protocol = DlbProtocol::new(layout, rank).with_min_relative_gain(gain);
            let view = OwnershipMap::initial(layout);
            pe.dlb_decide();
            let ahead = pe.balance.my_decision.map(|t| t.decision);
            let in_hand = &pe.balance.nbr_loads;
            proptest::prop_assert_eq!(ahead, protocol.choose(f64::from(own), in_hand, &view, |_| 0.0));
            // A transfer in flight between two neighbours moves its work
            // from the one's load to the other's first, and only there.
            let (from, to) = (pe.neighbors()[giver], pe.neighbors()[taker]);
            let decision = DlbDecision { col: Col::new(0, 0), from, to };
            pe.balance.in_flight.push(Transfer { decision, work: f64::from(work) });
            pe.dlb_decide();
            let mut booked = pe.balance.nbr_loads.clone();
            if giver != taker {
                booked[giver].1 -= f64::from(work);
                booked[taker].1 += f64::from(work);
            }
            let ahead = pe.balance.my_decision.map(|t| t.decision);
            proptest::prop_assert_eq!(ahead, protocol.choose(f64::from(own), &booked, &view, |_| 0.0));
        }
    }

    #[test]
    fn two_ranks_that_each_take_the_other_for_the_faster_move_no_plane() {
        // Deciding ahead, each PE has its own estimate of its neighbour's
        // load. On a ring of two, each is made to hold half its own load
        // for the other: both shed across the one boundary in the same
        // step. The plane excludes such a pair, both ranks hear both
        // decisions, and nothing moves — two planes crossing would have
        // left both slabs in pieces.
        let mut cfg = RunConfig::new(500, 4, 2, 500.0 / 12.0f64.powi(3));
        cfg.dlb = true;
        cfg.dlb_min_gain = 0.0;
        let shape = DomainShape::Plane;
        crate::decomp::validate(&cfg, shape);
        let moved = pcdlb_mp::World::new(cfg.p).run(|comm| {
            let mut pes = [(comm.rank(), fresh(comm.rank(), &cfg, shape))];
            crate::engine::exchange_ghosts_and_compute(comm, &mut pes, Exchange::Shells);
            crate::engine::announce_loads(comm, &mut pes);
            let pe = &mut pes[0].1;
            pe.balance.nbr_loads[0].1 = 0.5 * pe.force.load();
            pe.begin_step(1); // the step the ring's one boundary may move on
            pe.dlb_decide();
            assert!(pe.balance.my_decision.is_some(), "rank {} sheds", pe.rank);
            let before = pe.owned_cells();
            let recs = crate::engine::step_multi(comm, &cfg, &mut pes, 1);
            let transfers = recs[0].as_ref().map_or(0, |r| r.transfers);
            let pe = &pes[0].1;
            (
                pe.owned_cells() - before,
                pe.balance.in_flight.len(),
                transfers,
            )
        });
        assert_eq!(moved, [(0, 0, 0); 2]);
    }

    #[test]
    fn the_work_a_decision_announces_is_the_load_both_ends_then_measure() {
        // A transfer travels with the work that moves with it, read off
        // the giver's cell occupancies before anything moves. On the
        // force pass of the step its cells change hands in the giver
        // measures that much less and the receiver that much more — to the
        // motion of the step or two in between — whoever they are, column
        // (pillar, one frame per neighbour: the step after it was decided)
        // or plane (two rounds: the step it was decided in). Checked on
        // every transfer whose two ends take part in no other transfer
        // that step.
        for (shape, p) in [(DomainShape::SquarePillar, 9), (DomainShape::Plane, 3)] {
            let mut cfg = RunConfig::new(2000, 9, p, 2000.0 / 27.0f64.powi(3));
            cfg.lattice = Lattice::Cluster { fill: 0.7 };
            cfg.dlb = true;
            cfg.dlb_min_gain = 0.0;
            cfg.steps = 12;
            crate::decomp::validate(&cfg, shape);
            // No launch plan: the balancer has the whole shed before it.
            let initial = placed(&cfg);
            // Per rank and step: the load before, the transfers whose cells
            // changed hands, the load after.
            let ranks = pcdlb_mp::World::new(cfg.p).run(|comm| {
                let mut pes = [(
                    comm.rank(),
                    PeState::new(comm.rank(), &cfg, shape, &initial, &LaunchPlan::default()),
                )];
                crate::engine::exchange_ghosts_and_compute(comm, &mut pes, Exchange::Shells);
                crate::engine::announce_loads(comm, &mut pes);
                let mut steps = Vec::new();
                for step in 1..=cfg.steps {
                    let before = pes[0].1.force.load();
                    crate::engine::step_multi(comm, &cfg, &mut pes, step);
                    let pe = &pes[0].1;
                    // Column by column, the counts are the pass's total.
                    if shape == DomainShape::SquarePillar {
                        let mut around = Vec::new();
                        let mut column = |&col| pe.column_checks(col, &mut around);
                        let all: u64 = pe.columns.keys().map(&mut column).sum();
                        assert_eq!(
                            all,
                            pe.force.work().pair_checks,
                            "rank {} step {step}",
                            pe.rank
                        );
                    }
                    steps.push((before, pe.balance.in_flight.clone(), pe.force.load()));
                }
                steps
            });
            let mut checked = 0;
            // Every rank hears every decision on these small rings.
            for (step, (_, heard, _)) in ranks[0].iter().enumerate() {
                for t in heard {
                    let DlbDecision { from, to, .. } = t.decision;
                    let busy = |r: usize| {
                        let parts = heard
                            .iter()
                            .filter(|o| o.decision.from == r || o.decision.to == r);
                        parts.count() > 1
                    };
                    if busy(from) || busy(to) {
                        continue;
                    }
                    let (giver, receiver) = (&ranks[from][step], &ranks[to][step]);
                    for (what, measured) in [
                        ("giver", giver.0 - giver.2),
                        ("receiver", receiver.2 - receiver.0),
                    ] {
                        assert!(
                            (measured - t.work).abs() <= 0.02 * t.work,
                            "{shape:?} step {}: {what} measured {measured}, announced {}",
                            step + 1,
                            t.work
                        );
                    }
                    checked += usize::from(t.work > 0.0);
                }
            }
            assert!(checked >= 3, "{shape:?}: only {checked} transfers checked");
        }
    }
}
