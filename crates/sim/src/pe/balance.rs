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
//! A decision lands one way, whatever the step's frames
//! ([`super::exchange`]'s business): the decisions a step's first frames
//! bring are *pending*, every PE applies them at the top of the next
//! rebuild step ([`PeState::dlb_land`]), and the columns' particles travel
//! in that step's first frames, from the giver, as migrants. Every load
//! in hand was measured before that, so on the step a transfer lands it
//! is booked — onto this PE's own load, which the step's first frames
//! announce so, and onto its neighbours' loads in hand, announced at the
//! rebuild step before. From the next rebuild step on every load in hand
//! has seen it, and a PE that did not hear it (a transfer into a
//! neighbour from a PE it does not border) misses it for that one
//! decision only.

use pcdlb_core::protocol::{book_in_flight, DlbDecision, Transfer};
use pcdlb_domain::Col;

use super::topology::cells_around;
use super::PeState;
use crate::clock::WallTimer;
use crate::config::RunConfig;
use crate::decomp::Decomposition;
use crate::engine::Start;

/// What the balancer knows between steps.
#[derive(Default)]
pub(super) struct Balance {
    /// Whether ownership can change this run: the shape has a balancer
    /// and `cfg.dlb` switches it on. Fixed for the run.
    enabled: bool,
    /// The neighbours' loads in hand, as the last frames that carried
    /// them brought them: each measured by the force pass before the step
    /// that announced it, with what landed at the top of that step booked
    /// onto it.
    nbr_loads: Vec<(usize, f64)>,
    /// `nbr_loads` with what landed since booked: what the balancer
    /// decides on (retained scratch).
    booked_loads: Vec<(usize, f64)>,
    /// The load this PE put into its last frames — what its neighbours
    /// hold for it, and so what a checkpoint must carry.
    announced_load: Option<f64>,
    /// This step's own decision, taken at the top of the step and waiting
    /// for the step's first frame to carry it.
    my_decision: Option<Transfer>,
    /// The decisions the step's first frames brought (this PE's and its
    /// neighbours'), ascending `from` once settled (retained scratch).
    decisions: Vec<Transfer>,
    /// Decisions the last rebuild step's frames brought, not yet applied:
    /// they land at the top of the next rebuild step.
    pending: Vec<Transfer>,
    /// The transfers that landed at the top of the last rebuild step, in
    /// the order they were applied (ascending `from`): the ones whose
    /// columns changed hands in that step, and what a decision on it
    /// books onto the loads in hand, which were all measured before.
    landed: Vec<Transfer>,
    /// Every held column's full-shell candidate-pair count, ascending by
    /// column, counted at the top of each balancing step (retained).
    checks: Vec<(Col, u64)>,
    /// Per-z scratch behind `checks`.
    around: Vec<u64>,
    /// The last rebuild step (the checkpointed step after a restore): a
    /// balancing step is due at the first rebuild that has a multiple of
    /// `dlb_interval` behind it since this one.
    last_rebuild: u64,
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

    /// Start over from per-rank `loads` every rank holds (a launch plan's,
    /// a checkpoint's, a re-tile's): this PE's own as announced, its
    /// `neighbors`' as heard, nothing landed and nothing pending.
    pub(super) fn resume(&mut self, rank: usize, neighbors: &[usize], loads: &[f64]) {
        assert!(
            rank < loads.len() && neighbors.iter().all(|&nb| nb < loads.len()),
            "rank {rank}: a balancing start resumes from every rank's load, and it holds {}",
            loads.len()
        );
        self.announced_load = Some(loads[rank]);
        self.nbr_loads.clear();
        self.nbr_loads
            .extend(neighbors.iter().map(|&nb| (nb, loads[nb])));
        self.decisions.clear();
        self.drop_pending();
        self.my_decision = None;
    }

    /// The top of a rebuild step that does not re-tile: the pending
    /// decisions are applied to the ownership view, in the order they
    /// were settled, and are what landed from here.
    fn land(&mut self, decomp: &mut dyn Decomposition) {
        for t in &self.pending {
            decomp.apply(&t.decision);
        }
        self.landed.clear();
        std::mem::swap(&mut self.landed, &mut self.pending);
    }

    /// The top of a rebuild step that re-tiles: the re-tile plans its
    /// ownership whole from who holds what, so the pending decisions are
    /// dropped before its round 1, and nothing lands.
    pub(super) fn drop_pending(&mut self) {
        self.pending.clear();
        self.landed.clear();
    }

    /// The transfers that landed at the top of the last rebuild step.
    pub(super) fn landed(&self) -> &[Transfer] {
        &self.landed
    }

    /// This PE's `own` load as its last force pass measured it, with what
    /// landed since booked onto it (`on_receiver`: see
    /// [`book_in_flight`]): what it decides on and announces.
    fn own(&self, rank: usize, own: f64, on_receiver: impl Fn(usize, usize) -> f64) -> f64 {
        let mut mine = [(rank, own)];
        book_in_flight(&mut mine, &self.landed, on_receiver);
        mine[0].1
    }

    /// The neighbours' loads the shape's rule decides on: as the last
    /// frames brought them, with what landed since booked onto them
    /// (`booked_loads`).
    fn book(&mut self, on_receiver: impl Fn(usize, usize) -> f64) {
        self.booked_loads.clear();
        self.booked_loads.extend_from_slice(&self.nbr_loads);
        book_in_flight(&mut self.booked_loads, &self.landed, on_receiver);
    }

    /// What this PE's first frames of a step carry: `own_load` — brought
    /// up to date with what landed at the top of the step, and remembered
    /// as announced — and the decision waiting to ride along. Nothing in a
    /// run that does not balance.
    pub(super) fn announce(&mut self, own_load: f64) -> (Option<f64>, Option<Transfer>) {
        self.announced_load = self.enabled.then_some(own_load);
        (self.announced_load, self.my_decision)
    }

    /// The step's first frames come in: the loads in hand are replaced
    /// (the ones coming in have what landed at the top of this step
    /// booked); the round's decisions start from this PE's own.
    pub(super) fn open_round(&mut self) {
        self.nbr_loads.clear();
        self.decisions.clear();
        self.decisions.extend(self.my_decision.take());
    }

    /// What neighbour `nb`'s load section brought.
    pub(super) fn hear(&mut self, nb: usize, load: f64, decision: Option<Transfer>) {
        debug_assert!(self.enabled, "loads ride a balancing run");
        self.nbr_loads.push((nb, load));
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

    /// The step's first frames are in: the settled decisions wait for the
    /// next rebuild step.
    fn defer(&mut self, decomp: &dyn Decomposition) {
        self.settle(decomp);
        debug_assert!(self.pending.is_empty());
        std::mem::swap(&mut self.pending, &mut self.decisions);
    }

    /// What a checkpoint carries of the balancer: the load this PE last
    /// announced — which has seen every transfer that landed — and the
    /// decision `rank` gave that is still pending.
    pub(super) fn held(&self, rank: usize) -> (Option<f64>, impl Iterator<Item = Transfer> + '_) {
        let given = self.pending.iter().filter(move |t| t.decision.from == rank);
        (self.announced_load, given.copied())
    }

    /// Resume at the step a launch `start`s after (a rebuild step in every
    /// schedule) holding what it carries: every rank's load — a launch
    /// plan's, or the last one each announced before a checkpoint — and
    /// the pending decisions, of which this PE heard its own and its
    /// `neighbors`'; they land at the next rebuild step.
    pub(super) fn restore(&mut self, rank: usize, p: usize, neighbors: &[usize], start: &Start) {
        self.last_rebuild = start.step;
        if self.enabled {
            assert_eq!(
                start.loads.len(),
                p,
                "a balancing start holds {} loads for {p} ranks",
                start.loads.len()
            );
            self.resume(rank, neighbors, start.loads);
            let heard = |t: &&Transfer| {
                let from = t.decision.from;
                from == rank || neighbors.binary_search(&from).is_ok()
            };
            self.pending.extend(start.transfers.iter().filter(heard));
        }
    }
}

impl PeState {
    /// Whether this run balances: the shape has a balancer and `cfg.dlb`
    /// is on. Loads then ride every rebuild step's first frames.
    pub(crate) fn balances(&self) -> bool {
        self.balance.enabled
    }

    /// Whether the balancer runs on this step (see [`Balance::due`]).
    pub(crate) fn dlb_due(&mut self, step: u64, rebuild: bool) -> bool {
        self.balance.due(step, rebuild, self.cfg.dlb_interval)
    }

    /// The top of a rebuild step that does not re-tile: the decisions the
    /// last rebuild step's frames brought are applied to the ownership
    /// view (see [`Balance::land`]); their particles travel in this step's
    /// first frames. Returns the number of them this PE gave — a transfer
    /// counts on the step it lands.
    pub(crate) fn dlb_land(&mut self) -> u64 {
        if !self.balance.enabled {
            return 0;
        }
        self.balance.land(&mut *self.decomp);
        // The routing/class caches must be rebuilt before the next ghost
        // exchange or force pass — but only if they can differ. They are a
        // function of the owned column set and of who owns the columns
        // around it, so a transfer between two other PEs of a column that
        // touches none of ours leaves them as they are (on a 3×3 torus
        // every PE hears every decision).
        let landed = self.balance.landed();
        let redraw = landed.iter().any(|t| self.redraws_caches(&t.decision));
        let given = landed.iter().filter(|t| t.decision.from == self.rank);
        let given = given.count() as u64;
        if redraw {
            self.topology.mark_dirty();
        }
        given
    }

    /// What this PE's first frames of a step carry of the balancer (see
    /// [`Balance::announce`]): its own load, brought up to date with what
    /// landed at the top of the step — so a neighbour that did not hear a
    /// transfer into this PE sees it in the load — and its decision.
    pub(super) fn dlb_announce(&mut self) -> (Option<f64>, Option<Transfer>) {
        let on_receiver = on_receiver(&self.cfg, self.cur_step);
        let own = self.balance.own(self.rank, self.force.load(), on_receiver);
        self.balance.announce(own)
    }

    /// Phase 3 (DLB), steps 1–3, run at the top of the step: apply the
    /// shape's balancer rule to the loads in hand — this PE's own, which
    /// its last force pass measured, and its neighbours', each brought up
    /// to date with what landed since (see [`Balance::own`],
    /// [`Balance::book`]) — and to the load each candidate would move.
    /// Purely local; the decision waits for the step's first frame.
    pub(crate) fn dlb_decide(&mut self) {
        let t0 = WallTimer::start();
        debug_assert_eq!(
            self.balance.nbr_loads.len(),
            self.topology.neighbors().len()
        );
        self.count_checks();
        let (cfg, step) = (&self.cfg, self.cur_step);
        let on_receiver = on_receiver(cfg, step);
        let own = self.force.load();
        let booked = self.balance.own(self.rank, own, &on_receiver);
        self.balance.book(&on_receiver);
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

    /// Phase 3, step 4, once a step's first frames are in: the
    /// neighbourhood's decisions wait for the next rebuild step (see
    /// [`Balance::defer`]).
    pub(super) fn dlb_defer(&mut self) {
        self.balance.defer(&*self.decomp);
    }
}

/// What a unit of `from`'s load weighs on `to` at `step`: 1, or where the
/// run balances time, the two speeds' ratio.
fn on_receiver(cfg: &RunConfig, step: u64) -> impl Fn(usize, usize) -> f64 + '_ {
    let speeds = cfg.speed.as_ref().filter(|_| cfg.speed_aware);
    move |from, to| speeds.map_or(1.0, |s| s.speed(from, step) / s.speed(to, step))
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{fresh, placed};
    use super::*;
    use crate::config::{Lattice, RunConfig};
    use crate::launch::{LaunchPlan, Placed};
    use pcdlb_domain::DomainShape;
    use std::ops::Range;

    /// A decomposition that is nothing but the two answers a landing asks
    /// for: the plane's exclusion rule, and a log of what was applied.
    struct Ring(Vec<DlbDecision>);

    impl Decomposition for Ring {
        fn owner_of(&self, _: Col, _: usize) -> usize {
            unreachable!("a landing asks for no owner")
        }
        fn z_extent(&self, _: usize) -> Range<usize> {
            unreachable!("a landing asks for no extent")
        }
        fn rank_torus(&self) -> [usize; 3] {
            unreachable!("a landing asks for no torus")
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
    fn loads_and_transfers_alone_drive_the_landing_and_the_booking() {
        // Rank 1 of a ring of four, with no PE, no world and no frame
        // around it. It decided 1 → 0; the step's first frames bring
        // 2 → 3 from one neighbour and 0 → 1 from the other — heard in
        // that order.
        let work = |decision, work| Transfer { decision, work };
        let one = |_, _| 1.0;
        let mut balance = Balance::new(true);
        let mut ring = Ring(Vec::new());
        balance.my_decision = Some(work(give(1, 0), 5.0));
        assert_eq!(balance.announce(7.0).0, Some(7.0));
        balance.open_round();
        balance.hear(2, 1.0, Some(work(give(2, 3), 1.0)));
        balance.hear(0, 4.0, Some(work(give(0, 1), 1e16)));
        // 0 → 1 and 1 → 0 cross one boundary: both are void, to both
        // ranks. What stands is not applied but pending — what a
        // checkpoint carries of it — and lands at the top of the next
        // rebuild step.
        balance.defer(&ring);
        assert!(ring.0.is_empty(), "nothing applied yet");
        assert_eq!(balance.held(1).1.count(), 0);
        let given: Vec<Transfer> = balance.held(2).1.collect();
        assert_eq!(given, [work(give(2, 3), 1.0)]);
        balance.land(&mut ring);
        assert_eq!(ring.0, [give(2, 3)]);
        assert_eq!(balance.held(2).1.count(), 0);
        // Every load in hand was measured before it landed: it is booked
        // onto the neighbours' and onto this PE's own, which 2 → 3 does
        // not touch.
        balance.book(one);
        assert_eq!(balance.booked_loads, [(2, 0.0), (0, 4.0)]);
        assert_eq!(balance.own(1, 7.0, one), 7.0);
        // The loads this step's frames bring have it booked by the ranks
        // that announce them: it is not booked again. On the step 2 → 1
        // lands, this PE's own load is booked up and announced so.
        balance.open_round();
        balance.hear(2, 0.0, Some(work(give(2, 1), 2.0)));
        balance.hear(0, 5.0, None);
        balance.defer(&ring);
        balance.land(&mut ring);
        balance.book(one);
        assert_eq!(balance.booked_loads, [(2, -2.0), (0, 5.0)]);
        assert_eq!(balance.own(1, 7.0, one), 9.0);
        // What the next frames bring lands in ascending `from` order,
        // whatever order it was heard in: (1 + 1e16) + 1 is 1e16,
        // (1 + 1) + 1e16 is not.
        balance.open_round();
        balance.hear(2, 1.0, Some(work(give(3, 2), 1.0)));
        balance.hear(0, 5.0, Some(work(give(0, 2), 1e16)));
        balance.defer(&ring);
        balance.land(&mut ring);
        assert_eq!(ring.0[2..], [give(0, 2), give(3, 2)]);
        balance.book(one);
        assert_eq!(balance.booked_loads, [(2, 1e16), (0, 5.0 - 1e16)]);
        assert_eq!(balance.own(1, 9.0, one), 9.0);
        // A re-tile drops what is pending, and nothing lands.
        balance.open_round();
        balance.hear(2, 1.0, Some(work(give(2, 1), 1.0)));
        balance.hear(0, 5.0, None);
        balance.defer(&ring);
        balance.drop_pending();
        assert!(balance.landed().is_empty() && balance.held(2).1.next().is_none());
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
        let shape = DomainShape::SquarePillar;
        let plan = LaunchPlan::unplanned(shape, &cfg, &nobody.column_work());
        let mut pe = PeState::new(rank, &cfg, &Start::fresh(shape, &cfg, &nobody, &plan));
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
            // With nothing landed the engine hands the balancer the
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
            // A transfer that landed between two neighbours moves its work
            // from the one's load to the other's first, and only there.
            let (from, to) = (pe.neighbors()[giver], pe.neighbors()[taker]);
            let decision = DlbDecision { col: Col::new(0, 0), from, to };
            pe.balance.landed.push(Transfer { decision, work: f64::from(work) });
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
            let mut pe = fresh(comm.rank(), &cfg, shape);
            pe.balance.nbr_loads[0].1 = 0.5 * pe.force.load();
            pe.begin_step(1); // the step the ring's one boundary may move on
            pe.dlb_decide();
            assert!(pe.balance.my_decision.is_some(), "rank {} sheds", pe.rank);
            let before = pe.owned_cells();
            let rec = crate::engine::step_pe(comm, &mut pe, 1);
            let transfers = rec.map_or(0, |r| r.transfers);
            (
                pe.owned_cells() - before,
                pe.balance.landed().len(),
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
        // motion of the two steps in between — whoever they are, column
        // (pillar, one exchange) or plane (two rounds): the
        // step after it was decided either way. Checked on every transfer
        // whose two ends take part in no other transfer that step.
        for (shape, p) in [(DomainShape::SquarePillar, 9), (DomainShape::Plane, 3)] {
            let mut cfg = RunConfig::new(2000, 9, p, 2000.0 / 27.0f64.powi(3));
            cfg.lattice = Lattice::Cluster { fill: 0.7 };
            cfg.dlb = true;
            cfg.dlb_min_gain = 0.0;
            cfg.steps = 12;
            crate::decomp::validate(&cfg, shape);
            // No launch plan: the balancer has the whole shed before it.
            let initial = placed(&cfg);
            let none = LaunchPlan::unplanned(shape, &cfg, &initial.column_work());
            // Per rank and step: the load before, the transfers whose cells
            // changed hands, the load after.
            let start = Start::fresh(shape, &cfg, &initial, &none);
            let ranks = pcdlb_mp::World::new(cfg.p).run(|comm| {
                let mut pe = PeState::new(comm.rank(), &cfg, &start);
                let mut steps = Vec::new();
                for step in 1..=cfg.steps {
                    let before = pe.force.load();
                    crate::engine::step_pe(comm, &mut pe, step);
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
                    steps.push((before, pe.balance.landed().to_vec(), pe.force.load()));
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
