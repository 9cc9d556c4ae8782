//! What a PE sends its neighbours and does with what they send (phases 2
//! and 4): one coalesced [`StepFrame`] per neighbour and round under
//! `tags::STEP_FRAME`, in the three kinds of [`Exchange`] — round 1 and
//! the shells of a two-round rebuild step, a mid-epoch refresh written
//! through the slot routes, or migrants and ghosts in a single frame.
//! Ghost sections are `(id, pos)` pairs delta-encoded per channel (see
//! [`crate::frame`]); a stream that cannot be applied is a *desync* — the
//! receiver degrades for the step and asks for a full frame with the
//! resync bit of its next one. What the balancer puts into a step's first
//! frame and hears from it is [`super::balance`]'s; the first frames of a
//! balancing run's rebuild step also carry, as migrants, the particles of
//! the columns whose transfers landed at the top of the step.
//!
//! Allocation-free in the steady state: staging lists, per-neighbour
//! outboxes and pooled frames are reused across steps.

use std::collections::BTreeMap;
use std::sync::Arc;

use pcdlb_core::protocol::tags;
use pcdlb_domain::Col;
use pcdlb_md::cells::CellSlab;
use pcdlb_md::vec3::Vec3;
use pcdlb_md::{axis_bin, Particle};
use pcdlb_mp::{BufferPool, Comm, WireSize};

use super::topology::{foreign_around, push_run, CellClass, Route};
use super::{PeState, Slabs};
use crate::clock::WallTimer;
use crate::frame::{DeltaChannel, StepFrame};

/// What a step's neighbourhood exchange carries, one frame per neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exchange {
    /// Round 2 of a two-round rebuild step, and the initial exchange of
    /// every run: the boundary shells.
    Shells,
    /// A mid-epoch step's only frame: new positions of the frozen shells.
    Refresh,
    /// A single-exchange rebuild step's only frame: migrants and ghosts
    /// together, and in a balancing run the load and the decision (see
    /// [`PeState::exchanges_once`]).
    Single,
}

/// The per-neighbour channels (every `Vec` here is parallel to the
/// neighbour list) and the staging around them.
#[derive(Default)]
pub(super) struct Channels {
    /// Retained-particle staging for migration; key set kept equal to
    /// the owned columns' so the per-step rebinning reuses every
    /// allocation.
    migrate_staging: BTreeMap<Col, Vec<Particle>>,
    /// Per-neighbour emigrant staging.
    migrate_out: Vec<Vec<Particle>>,
    /// Per-neighbour ghost delta channels, send side: reset when the peer
    /// asks for a resync, so the next frame is a full fallback.
    send_chan: Vec<DeltaChannel>,
    /// Per-neighbour ghost delta channels, receive side. Never reset in
    /// steady state — a full frame is self-describing and resynchronises
    /// the channel on arrival. A [`DesyncError`](crate::frame::DesyncError)
    /// resets the channel and raises the matching `ghost_resync_req` bit.
    recv_chan: Vec<DeltaChannel>,
    /// Per-neighbour ghost-resync requests, pending for the next frame
    /// that can carry one (see [`Channels::desync`]).
    ghost_resync_req: Vec<bool>,
    /// Ghost frames that could not be applied — a delta decode that
    /// failed, a mid-epoch refresh that did not fit the recorded routes —
    /// and were absorbed by degrading.
    ghost_desyncs: u64,
    /// Desyncs the test-only [`DesyncInject`](crate::config::DesyncInject)
    /// hook has forced so far.
    desyncs_injected: u32,
    /// A single-exchange step's own departers whose new cell borders this
    /// PE: it ships them away and keeps seeing them as ghosts, so they
    /// are staged at the send and binned with the received ghosts.
    kept_ghosts: Vec<(u64, Vec3)>,
    /// Per-neighbour `(count, id sum)` of the ghosts binned this rebuild
    /// step into cells that neighbour owns — what the slot routes are
    /// proven against (`skin > 0` only).
    ghost_tally: Vec<(usize, u64)>,
    /// Retained ghost re-binning staging; key set kept equal to the
    /// ghost columns' so the per-step scatter reuses every allocation.
    ghost_staging: BTreeMap<Col, Vec<Particle>>,
    /// Retained delta-decode output scratch.
    ghost_decode: Vec<(u64, Vec3)>,
    /// Per-neighbour in-place ghost update routes, recorded at each
    /// rebuild step ([`PeState::record_ghost_slot_routes`]): the slot
    /// runs of the frozen ghost slabs that hold that neighbour's ghosts,
    /// in the order it packs them. Mid-epoch refresh frames carry the
    /// identical membership in that order, so the positions are written
    /// straight through the runs — no ids, no re-binning, no sorting.
    ghost_slot_routes: Vec<Route>,
    /// Pooled coalesced step-message send buffers, reused across steps.
    step_pool: BufferPool<StepFrame>,
}

impl Channels {
    /// Channels to `n_nbrs` neighbours. Once per run.
    pub(super) fn new(n_nbrs: usize) -> Self {
        Self {
            migrate_out: vec![Vec::new(); n_nbrs],
            send_chan: (0..n_nbrs).map(|_| DeltaChannel::default()).collect(),
            recv_chan: (0..n_nbrs).map(|_| DeltaChannel::default()).collect(),
            ghost_resync_req: vec![false; n_nbrs],
            ghost_tally: vec![(0, 0); n_nbrs],
            ghost_slot_routes: vec![Vec::new(); n_nbrs],
            ..Self::default()
        }
    }

    /// Ghost frames that could not be applied and were absorbed by
    /// degrading (always 0 on a healthy protocol).
    pub(super) fn desyncs(&self) -> u64 {
        self.ghost_desyncs
    }

    /// Keep the staging key sets equal to the owned and the ghost
    /// columns', preserving the allocations of surviving columns. Runs
    /// when ownership changed, never in the steady state.
    pub(super) fn follow_keys(&mut self, columns: &Slabs, ghosts: &Slabs) {
        for (staging, slabs) in [
            (&mut self.migrate_staging, columns),
            (&mut self.ghost_staging, ghosts),
        ] {
            staging.retain(|c, _| slabs.contains_key(c));
            for &c in slabs.keys() {
                staging.entry(c).or_default();
            }
        }
    }

    /// Stage `p` as a particle of owned column `col` for the rebuild.
    fn keep(&mut self, rank: usize, col: Col, p: &Particle) {
        (self.migrate_staging.get_mut(&col))
            .unwrap_or_else(|| panic!("rank {rank}: missing storage for owned column {col:?}"))
            .push(*p);
    }

    /// A ghost frame from neighbour `i` could not be applied: degrade —
    /// run this step without that neighbour's (fresh) ghosts — and ask
    /// for a full-frame resync in the next frame that can carry the
    /// request rather than killing the world over one bad stream. On the
    /// two-round path that is the next rebuild step's round 1, and the
    /// same step's round 2 heals the stream. A single-exchange rank's
    /// next frame crosses the peer's next frame in flight: that one is
    /// still a delta against the lost state and is dropped (and counted)
    /// the same way, and the full frame arrives one rebuild step later.
    fn desync(&mut self, i: usize) {
        self.ghost_resync_req[i] = true;
        self.ghost_desyncs += 1;
    }
}

impl PeState {
    /// Re-bin every owned particle by its drifted position: stayers into
    /// `migrate_staging`, departers into `migrate_out` by new owner. With
    /// `announce` (the single-exchange step) a departer is also staged as
    /// a ghost for everyone but its new owner whose cells border its new
    /// cell — on the neighbour's send channel, or in `kept_ghosts` when
    /// that is this PE — since no round 2 of the new owner will carry it.
    fn rebin_owned(&mut self, announce: bool) {
        let ch = &mut self.exchange;
        for v in ch.migrate_staging.values_mut() {
            v.clear();
        }
        for v in &mut ch.migrate_out {
            v.clear();
        }
        ch.kept_ghosts.clear();
        let (cell_len, nc, rank) = (self.cell_len, self.nc, self.rank);
        let bin = move |v: f64| axis_bin(v, cell_len, nc);
        let whole = self.topology.own_z().len() == nc;
        let decomp = &*self.decomp;
        let topology = &self.topology;
        for slab in self.columns.values() {
            for p in slab.particles() {
                let (ncol, ncz) = (Col::new(bin(p.pos.x), bin(p.pos.y)), bin(p.pos.z));
                let owner = decomp.owner_of(ncol, ncz);
                if owner == rank {
                    ch.keep(rank, ncol, p);
                    continue;
                }
                ch.migrate_out[topology.index_of(owner)].push(*p);
                if announce {
                    let span = if whole { 0..nc } else { ncz..ncz + 1 };
                    let mut told = [usize::MAX; 27];
                    let mut n = 0;
                    for (.., r) in foreign_around(decomp, nc, owner, ncol, span) {
                        if told[..n].contains(&r) {
                            continue;
                        }
                        told[n] = r;
                        n += 1;
                        if r == rank {
                            ch.kept_ghosts.push((p.id, p.pos));
                        } else {
                            let chan = &mut ch.send_chan[topology.index_of(r)];
                            chan.scratch.push((p.id, p.pos));
                        }
                    }
                }
            }
        }
    }

    /// Re-bin the owned particles for a rebuild step's first frames (see
    /// [`PeState::rebin_owned`]) under the ownership the step's landed
    /// decisions left ([`PeState::dlb_land`]): this PE holds an empty
    /// column for every one it was given — its own movers and the giver's
    /// frame fill it — and stages into it like into any other; a column it
    /// gave away goes whole, its particles staged as migrants to their new
    /// owners. Then the caches follow the owned columns.
    fn rebin_landed(&mut self, announce: bool) {
        self.take_landed_columns();
        self.rebin_owned(announce);
        self.drop_given_columns();
        self.refresh_caches();
    }

    /// Before the re-bin: an empty column for every one this PE was given.
    fn take_landed_columns(&mut self) {
        for i in 0..self.balance.landed().len() {
            let d = self.balance.landed()[i].decision;
            if d.to == self.rank {
                for col in self.decomp.granule(&d) {
                    self.columns.insert(col, CellSlab::empty(self.nc));
                    self.exchange.migrate_staging.entry(col).or_default();
                }
            }
        }
    }

    /// After it: the re-bin staged every particle of a column this PE gave
    /// away as a migrant to its new owner, so the column goes.
    fn drop_given_columns(&mut self) {
        for i in 0..self.balance.landed().len() {
            let d = self.balance.landed()[i].decision;
            if d.from == self.rank {
                for col in self.decomp.granule(&d) {
                    self.columns.remove(&col);
                }
            }
        }
    }

    /// Rebuild every owned column in place from its staged particles.
    fn rebuild_columns(&mut self) {
        let (nc, zbin) = (self.nc, self.zbin());
        for (col, slab) in self.columns.iter_mut() {
            let staged = (self.exchange.migrate_staging.get_mut(col))
                .expect("staging key set matches the owned columns");
            slab.rebuild_from(nc, staged, zbin);
        }
    }

    /// Fill the migrant section of the frame for neighbour `i` — its
    /// emigrants by id, plus a pending ghost-resync request (zero wire
    /// bytes: it rides the presence header) — and account its bytes.
    fn fill_migrants(&mut self, i: usize, frame: &mut StepFrame) {
        // A ghost frame that could not be applied asks this neighbour to
        // restart its delta stream with a full frame.
        frame.resync = std::mem::take(&mut self.exchange.ghost_resync_req[i]);
        let out = &self.exchange.migrate_out[i];
        frame.migrants.parts.extend_from_slice(out);
        // Deterministic payloads: order emigrants by id.
        frame.migrants.parts.sort_unstable_by_key(|p| p.id);
        // Pre-diet layout: one flat particle message, plus a separate
        // 8-byte load message where a load rides along.
        self.wire.migrate_baseline +=
            (8 + 56 * frame.migrants.parts.len() as u64) + if frame.load.is_some() { 8 } else { 0 };
    }

    /// Stage the immigrants of one received frame into their columns.
    fn stage_immigrants(&mut self, parts: &[Particle]) {
        let rank = self.rank;
        for p in parts {
            let (ncol, ncz) = self.cell_of(p.pos);
            debug_assert_eq!(
                self.decomp.owner_of(ncol, ncz),
                rank,
                "rank {rank}: received particle {} for column {ncol:?} it does not own",
                p.id
            );
            self.exchange.keep(rank, ncol, p);
        }
    }

    /// Phase 2 (+ the balancer's ride-along), send half: rebin locally
    /// and ship one round-1 [`StepFrame`] — emigrants, the particles of a
    /// column whose transfer from this PE landed at the top of the step
    /// among them, plus in a balancing run this PE's last-step load and,
    /// when it decided to give a cell away this step, the decision — to
    /// each neighbour owner; retained particles stay staged for
    /// [`PeState::step_recv_round1`]. Splitting the phase lets a thread
    /// running two virtual ranks post *both* ranks' sends before either
    /// blocks in a receive.
    /// Two-round rebuild steps only: mid-epoch the binning is frozen,
    /// nothing migrates, and no round-1 frame is sent at all; a
    /// single-exchange step migrates inside [`PeState::ghosts_send`].
    /// A launch that starts without loads in hand runs this round once
    /// before its first step, migrant-free, to announce them.
    pub(crate) fn step_send_round1(&mut self, comm: &mut Comm) {
        let t0 = WallTimer::start();
        self.rebin_landed(false);
        let (load, decision) = self.dlb_announce();
        for i in 0..self.topology.neighbors().len() {
            let nb = self.topology.neighbors()[i];
            let mut buf = self.exchange.step_pool.checkout();
            let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
            frame.begin_round1(load, decision);
            self.fill_migrants(i, frame);
            // The decision section stays on the balancer's account.
            let decision_bytes = frame.decision_size();
            self.wire.dlb += decision_bytes as u64;
            self.wire.migrate += (frame.encoded_size() - decision_bytes) as u64;
            comm.send(nb, tags::STEP_FRAME, Arc::clone(&buf));
            self.exchange.step_pool.checkin(buf);
        }
        self.phase.migrate += t0.elapsed_s();
    }

    /// Phase 2, receive half: collect immigrants and rebuild the columns
    /// in place, reusing every slab's storage. In a balancing run the
    /// same frames bring the neighbours' loads — kept for the next
    /// decision — and, on DLB steps, their decisions: merged with this
    /// PE's own, they land at the top of the next rebuild step
    /// ([`PeState::dlb_defer`]).
    pub(crate) fn step_recv_round1(&mut self, comm: &mut Comm) {
        let t0 = WallTimer::start();
        let rank = self.rank;
        self.balance.open_round();
        for i in 0..self.topology.neighbors().len() {
            let nb = self.topology.neighbors()[i];
            let incoming: Arc<StepFrame> = comm.recv(nb, tags::STEP_FRAME);
            debug_assert!(
                incoming.has_migrants && !incoming.has_ghosts,
                "rank {rank}: round-1 frame from {nb} has the wrong sections"
            );
            if incoming.resync {
                // The peer could not apply one of our ghost frames:
                // restart the stream so this step's round-2 frame (sent
                // after round-1 receives) arrives full and resyncs it.
                self.exchange.send_chan[i].reset();
            }
            self.balance.hear(nb, incoming.load, incoming.decision);
            self.stage_immigrants(&incoming.migrants.parts);
        }
        self.rebuild_columns();
        self.phase.migrate += t0.elapsed_s();
        self.dlb_defer();
    }

    /// Phase 4 (round 2), send half: post the boundary-shell ghosts to
    /// the neighbours, one pooled [`StepFrame`] per neighbour along the
    /// cached routes. Each frame ships `(id, pos)` pairs only — no
    /// velocities, no column directory, nothing for empty cells — and is
    /// delta-encoded against the previous rebuild step's frame on the
    /// same channel whenever the channel is valid (see [`DeltaChannel`]).
    ///
    /// [`Exchange::Refresh`] (mid-epoch): the shells are frozen, the frame
    /// is a positions-only refresh packed straight off the same routes,
    /// and the delta channels are not touched.
    ///
    /// [`Exchange::Single`]: phase 2 happens here too. The PE re-bins
    /// locally first and each frame carries both sections — *migrants*,
    /// the PE's particles whose new cell the neighbour owns, and *ghosts*,
    /// every other particle it held whose new cell borders a cell of the
    /// neighbour's: its stayers along the routes plus its departers to a
    /// third rank (see [`PeState::rebin_owned`]). Each particle is thus
    /// announced by the one rank that held it before the step, to exactly
    /// the ranks that hold it as a ghost under two rounds. In a balancing
    /// run the frame also carries the load and the decision, and a column
    /// whose transfer landed at the top of the step is re-binned under its
    /// new owner, as in round 1 (see [`PeState::rebin_landed`]).
    pub(crate) fn ghosts_send(&mut self, comm: &mut Comm, exchange: Exchange) {
        let t0 = WallTimer::start();
        let (mut load, mut decision) = (None, None);
        if exchange == Exchange::Single {
            (load, decision) = self.dlb_announce();
            self.rebin_landed(true);
            self.rebuild_columns();
        } else {
            self.refresh_caches();
        }
        let delta_ok = self.cfg.delta_ghosts;
        for i in 0..self.topology.neighbors().len() {
            let nb = self.topology.neighbors()[i];
            let mut buf = self.exchange.step_pool.checkout();
            let frame = Arc::get_mut(&mut buf).expect("fresh pool checkout is uniquely owned");
            let (mut migrant_bytes, mut decision_bytes) = (0, 0);
            match exchange {
                Exchange::Shells => frame.begin_round2(),
                Exchange::Single => {
                    frame.begin_single(load, decision);
                    self.fill_migrants(i, frame);
                    // The decision section stays on the balancer's account.
                    decision_bytes = frame.decision_size();
                    migrant_bytes =
                        frame.migrants.encoded_size() + frame.load.map_or(0, |l| l.wire_size());
                }
                Exchange::Refresh => {
                    frame.begin_refresh();
                    if self.topology.exchanges_once() {
                        frame.resync = std::mem::take(&mut self.exchange.ghost_resync_req[i]);
                    }
                }
            }
            let chan = &mut self.exchange.send_chan[i];
            let mut baseline = 8u64;
            for (col, span) in &self.topology.ghost_routes()[i] {
                let slab = &self.columns[col];
                let parts =
                    &slab.particles()[slab.range(span.start).start..slab.range(span.end - 1).end];
                baseline += 24 + 56 * parts.len() as u64;
                if exchange == Exchange::Refresh {
                    frame.refresh.pos.extend(parts.iter().map(|p| p.pos));
                } else {
                    chan.scratch.extend(parts.iter().map(|p| (p.id, p.pos)));
                }
            }
            if exchange != Exchange::Refresh {
                chan.encode_into(delta_ok, &mut frame.ghosts);
            }
            self.wire.dlb += decision_bytes as u64;
            self.wire.migrate += migrant_bytes as u64;
            self.wire.ghost += (frame.encoded_size() - migrant_bytes - decision_bytes) as u64;
            // Pre-diet layout: full particles with a per-column directory.
            self.wire.ghost_baseline += baseline;
            comm.send(nb, tags::STEP_FRAME, Arc::clone(&buf));
            self.exchange.step_pool.checkin(buf);
        }
        self.phase.ghost += t0.elapsed_s();
    }

    /// Phase 4 (round 2), receive half. On rebuild steps (every step with
    /// `skin == 0`): decode the neighbours' ghost frames through the
    /// per-channel delta state, re-bin each ghost by its position into
    /// the retained staging lists, and rebuild the ghost slabs in place —
    /// same `(cell, id)` order as before, no allocation in the steady
    /// state; an [`Exchange::Single`] frame also brings the step's
    /// immigrants, which are merged into the owned columns. Mid-epoch
    /// ([`Exchange::Refresh`]): the frames are positions-only refreshes of
    /// the identical membership, written straight into the frozen slab
    /// slots through the routes recorded at the last rebuild.
    pub(crate) fn ghosts_recv(&mut self, comm: &mut Comm, exchange: Exchange) {
        let t0 = WallTimer::start();
        match exchange {
            Exchange::Refresh => self.ghosts_recv_refresh(comm),
            _ => self.ghosts_recv_rebin(comm, exchange == Exchange::Single),
        }
        self.phase.ghost += t0.elapsed_s();
    }

    /// Stage one ghost into its column's re-binning list and, when slot
    /// routes will be recorded, tally it under the neighbour owning its
    /// cell.
    fn stage_ghost(&mut self, id: u64, pos: Vec3) {
        let rank = self.rank;
        let (col, cz) = self.cell_of(pos);
        (self.exchange.ghost_staging.get_mut(&col))
            .unwrap_or_else(|| panic!("rank {rank}: received unexpected ghost column {col:?}"))
            .push(Particle::at_rest(id, pos));
        if self.cfg.skin > 0.0 {
            let i = self.topology.index_of(self.decomp.owner_of(col, cz));
            let (n, sum) = &mut self.exchange.ghost_tally[i];
            *n += 1;
            *sum = sum.wrapping_add(id);
        }
    }

    fn ghosts_recv_rebin(&mut self, comm: &mut Comm, single: bool) {
        let rank = self.rank;
        for v in self.exchange.ghost_staging.values_mut() {
            v.clear();
        }
        self.exchange.ghost_tally.fill((0, 0));
        // (Empty except on a single-exchange step.)
        let mut staged = std::mem::take(&mut self.exchange.kept_ghosts);
        for (id, pos) in staged.drain(..) {
            self.stage_ghost(id, pos);
        }
        self.exchange.kept_ghosts = staged;
        if single {
            self.balance.open_round();
        }
        for i in 0..self.topology.neighbors().len() {
            let nb = self.topology.neighbors()[i];
            let frame: Arc<StepFrame> = comm.recv(nb, tags::STEP_FRAME);
            debug_assert!(
                frame.has_ghosts && frame.has_migrants == single && !frame.has_refresh,
                "rank {rank}: rebuild-step ghost frame from {nb} has the wrong sections"
            );
            if single {
                if frame.resync {
                    // Too late for the frame in hand (the peer sent it
                    // before it saw ours): its next rebuild frame is full.
                    self.exchange.send_chan[i].reset();
                }
                self.balance.hear(nb, frame.load, frame.decision);
                // Whatever becomes of the ghost section, the migrants are
                // applied: they exist nowhere else any more.
                self.stage_immigrants(&frame.migrants.parts);
            }
            let ch = &mut self.exchange;
            // Fault-injection hook (tests only): corrupt this channel's
            // membership record, whenever the stream is healthy, until
            // `times` desyncs have fired — back-to-back corruptions model
            // a resync storm.
            let poisoned = self.cfg.ghost_desync_inject.is_some_and(|inject| {
                inject.rank == rank
                    && inject.nbr == i
                    && ch.desyncs_injected < inject.times.max(1)
                    && ch.recv_chan[i].is_valid()
            });
            if poisoned {
                ch.recv_chan[i].poison_membership();
            }
            let mut decoded = std::mem::take(&mut ch.ghost_decode);
            if ch.recv_chan[i]
                .decode_into(&frame.ghosts, &mut decoded)
                .is_err()
            {
                // A desynchronised delta stream: the decode delivered
                // nothing and reset the channel.
                ch.desync(i);
                ch.desyncs_injected += poisoned as u32;
            }
            for &(id, pos) in &decoded {
                self.stage_ghost(id, pos);
            }
            self.exchange.ghost_decode = decoded;
        }
        let (nc, zbin) = (self.nc, self.zbin());
        for (col, slab) in self.ghosts.iter_mut() {
            let staged = (self.exchange.ghost_staging.get_mut(col))
                .expect("ghost staging key set matches the expected ghost columns");
            slab.rebuild_from(nc, staged, zbin);
        }
        if single {
            self.adopt_arrivals();
            self.dlb_defer();
        }
        if self.cfg.skin > 0.0 {
            self.record_ghost_slot_routes();
        }
    }

    /// Merge a single-exchange step's staged immigrants into the owned
    /// columns, which [`PeState::ghosts_send`] rebuilt from the stayers.
    fn adopt_arrivals(&mut self) {
        let (nc, zbin) = (self.nc, self.zbin());
        for (col, staged) in self.exchange.migrate_staging.iter_mut() {
            if !staged.is_empty() {
                let slab =
                    (self.columns.get_mut(col)).expect("staging key set matches the owned columns");
                staged.extend_from_slice(slab.particles());
                slab.rebuild_from(nc, staged, zbin);
            }
        }
    }

    /// Record the in-place update routes for the epoch that starts here.
    /// A neighbour packs its frames off its ghost routes: its owned
    /// shell cells in ascending (column, z) order, each cell's particles
    /// by id. Those are exactly this PE's ghost cells owned by that
    /// neighbour, and the freshly rebuilt ghost slabs hold them in the
    /// same (cell, id) order — so walking the ghost cells ascending and
    /// handing each cell's slot run to its owner reproduces every
    /// neighbour's pack order without a sort or an id lookup. Each route
    /// is proven against the ghosts this step's frames brought for the
    /// cells that neighbour owns (count and id sum, tallied as they were
    /// binned — whichever channel carried them: on a single-exchange step
    /// a particle entering a neighbour's shell is announced by the rank
    /// it left; after a desync the lost ghosts are in neither), and in
    /// debug builds every cell's run is checked to be in ascending id
    /// order, since a refresh carries no ids to catch a slot mix-up
    /// later. All buffers are retained.
    fn record_ghost_slot_routes(&mut self) {
        let (nc, rank) = (self.nc, self.rank);
        for route in &mut self.exchange.ghost_slot_routes {
            route.clear();
        }
        let homes = self.topology.homes();
        for (hi, home) in homes.iter().enumerate().filter(|(_, h)| h.ghost) {
            let slab = &self.ghosts[&home.col];
            for cz in 0..nc {
                let slots = slab.range(cz);
                if self.topology.classes(hi)[cz] != CellClass::Ghost || slots.is_empty() {
                    continue;
                }
                debug_assert!(
                    slab.particles()[slots.clone()]
                        .windows(2)
                        .all(|w| w[0].id < w[1].id),
                    "rank {rank}: ghost cell ({:?}, {cz}) is not in ascending id order",
                    home.col
                );
                let i = (self.topology).index_of(self.decomp.owner_of(home.col, cz));
                push_run(&mut self.exchange.ghost_slot_routes[i], home.col, slots);
            }
        }
        for (i, route) in self.exchange.ghost_slot_routes.iter().enumerate() {
            let routed = route
                .iter()
                .flat_map(|(col, run)| &self.ghosts[col].particles()[run.clone()])
                .fold((0usize, 0u64), |(n, sum), p| {
                    (n + 1, sum.wrapping_add(p.id))
                });
            assert_eq!(
                routed,
                self.exchange.ghost_tally[i],
                "rank {rank}: ghost routes for neighbour {} do not cover the ghosts received \
                 for its cells",
                self.topology.neighbors()[i]
            );
        }
    }

    fn ghosts_recv_refresh(&mut self, comm: &mut Comm) {
        let rank = self.rank;
        for i in 0..self.topology.neighbors().len() {
            let nb = self.topology.neighbors()[i];
            let frame: Arc<StepFrame> = comm.recv(nb, tags::STEP_FRAME);
            debug_assert!(
                frame.has_refresh && !frame.has_ghosts && !frame.has_migrants,
                "rank {rank}: mid-epoch frame from {nb} has the wrong sections"
            );
            let ch = &mut self.exchange;
            if frame.resync {
                // Only a single-exchange peer asks mid-epoch: its next
                // rebuild frame is its first chance otherwise, and ours
                // would cross it.
                ch.send_chan[i].reset();
            }
            let have = ch.ghost_slot_routes[i]
                .iter()
                .map(|(_, run)| run.len())
                .sum();
            let Ok(mut fresh) = frame.refresh.positions_for(have) else {
                // The rebuild step's decode from this neighbour desynced,
                // so none of its ghosts were binned and no route covers
                // them: they stay out for the rest of the epoch (the
                // layout is intact) and the next rebuild step heals the
                // stream.
                ch.desync(i);
                continue;
            };
            for (col, run) in &ch.ghost_slot_routes[i] {
                let slab =
                    (self.ghosts.get_mut(col)).expect("route targets an expected ghost column");
                let (now, rest) = fresh.split_at(run.len());
                for (p, &pos) in slab.particles_mut()[run.clone()].iter_mut().zip(now) {
                    p.pos = pos;
                }
                fresh = rest;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::initial_particles;
    use super::super::testkit::{fresh, run_world, shape_cfg};
    use super::*;
    use crate::config::RunConfig;
    use crate::launch::Placed;
    use crate::report::StepRecord;
    use pcdlb_domain::DomainShape;

    /// `shape_cfg` with a poisoned ghost receive channel on rank 1.
    fn desync_cfg(shape: DomainShape, steps: u64, times: u32) -> RunConfig {
        let mut cfg = shape_cfg(shape);
        cfg.steps = steps;
        cfg.sentinel_interval = 2;
        cfg.ghost_desync_inject = Some(crate::config::DesyncInject {
            rank: 1,
            nbr: 0,
            times,
        });
        cfg
    }

    /// Ghost frames one forced desync costs with `skin == 0`. Two rounds:
    /// the resync bit rides the next step's round 1 and that step's
    /// round 2 is already full — one. Single exchange: the bit rides the
    /// next step's only frame, which crosses the peer's in flight; that
    /// one is still a delta against the lost state and is dropped too,
    /// and the full frame arrives the step after — two.
    fn frames_lost_per_desync(cfg: &RunConfig, shape: DomainShape) -> u64 {
        1 + fresh(0, cfg, shape).exchanges_once() as u64
    }

    #[test]
    fn ghost_desync_degrades_and_resyncs() {
        // A poisoned ghost delta channel must not kill the world: the
        // receiver degrades, requests a full-frame resync via the resync
        // bit of its next frame, and the stream heals — one forced desync
        // over the whole run costs exactly the frames in flight until the
        // full frame can arrive, with conservation intact (the sentinel
        // would abort the run otherwise; a single-exchange frame's
        // migrants are applied even when its ghost section is dropped).
        // In every shape.
        for shape in DomainShape::ALL {
            let cfg = desync_cfg(shape, 12, 1);
            let results = run_world(&cfg, shape);
            assert_eq!(
                results.report.ghost_desyncs,
                frames_lost_per_desync(&cfg, shape),
                "{shape:?}: the poisoned stream desyncs once and the resync heals it"
            );
            let snapshot = results.snapshot.as_ref().expect("rank 0 snapshot");
            assert_eq!(snapshot.len(), cfg.n_particles, "conservation holds");
            // The uninjected run is desync-free.
            let mut clean_cfg = cfg.clone();
            clean_cfg.ghost_desync_inject = None;
            let clean = run_world(&clean_cfg, shape);
            assert_eq!(clean.report.ghost_desyncs, 0);
        }
    }

    #[test]
    fn ghost_resync_storm_degrades_a_fixed_number_of_steps_per_mismatch() {
        // Back-to-back fingerprint mismatches on one link: each forced
        // desync degrades exactly the steps its resync takes (so `times`
        // corruptions drop exactly `times` × that many frames — never
        // more), the stream heals after the storm, and the run completes
        // with conservation intact rather than livelocking in
        // degrade/resync ping-pong.
        for shape in DomainShape::ALL {
            let cfg = desync_cfg(shape, 16, 3);
            let results = run_world(&cfg, shape);
            assert_eq!(
                results.report.ghost_desyncs,
                3 * frames_lost_per_desync(&cfg, shape),
                "{shape:?}: a fixed price per injected mismatch, no further echo"
            );
            let snapshot = results.snapshot.as_ref().expect("rank 0 snapshot");
            assert_eq!(snapshot.len(), cfg.n_particles, "conservation holds");
        }
    }

    #[test]
    fn ghost_resync_storm_in_full_frame_mode_never_desyncs() {
        // With delta encoding off the sender always ships full frames, so
        // membership poison has nothing to mismatch against: the storm
        // injector is inert and the run completes without a single desync
        // (the full-frame path cannot livelock on resync requests).
        for shape in DomainShape::ALL {
            let mut cfg = desync_cfg(shape, 16, 3);
            cfg.delta_ghosts = false;
            let results = run_world(&cfg, shape);
            assert_eq!(
                results.report.ghost_desyncs, 0,
                "{shape:?}: full frames decode unconditionally; poison cannot desync them"
            );
            let snapshot = results.snapshot.as_ref().expect("rank 0 snapshot");
            assert_eq!(snapshot.len(), cfg.n_particles);
        }
    }

    #[test]
    fn ghost_desync_inside_a_skin_epoch_degrades_until_the_next_rebuild() {
        // With frozen epochs a delta stream only flows — and can only
        // heal — on rebuild steps. One poisoned rebuild-step decode
        // leaves that neighbour's ghosts out of the slabs, so no route
        // covers its mid-epoch refreshes: each is a typed, counted
        // degrade (never a silently refreshed prefix), the resync bit
        // rides the next rebuild step's round 1, and the full frame it
        // elicits heals the link. Conservation holds throughout (the
        // sentinel would abort the run otherwise). In every shape, walked
        // and replayed.
        for shape in DomainShape::ALL {
            for verlet in [false, true] {
                let mut cfg = desync_cfg(shape, 40, 1);
                cfg.skin = 0.1;
                cfg.verlet = verlet;
                let results = run_world(&cfg, shape);
                let rebuilds: Vec<u64> = results
                    .report
                    .records
                    .iter()
                    .filter(|r| r.rebuilt)
                    .map(|r| r.step)
                    .collect();
                assert!(
                    (3..20).contains(&rebuilds.len()),
                    "{shape:?}: epochs engage and the run outlasts the heal: {rebuilds:?}"
                );
                // The first rebuild step's delta hits the poison; every
                // step up to the second rebuild step is degraded.
                assert_eq!(
                    results.report.ghost_desyncs,
                    rebuilds[1] - rebuilds[0],
                    "{shape:?} verlet {verlet}: degraded from step {} until the rebuild at {}",
                    rebuilds[0],
                    rebuilds[1]
                );
                let snapshot = results.snapshot.as_ref().expect("rank 0 snapshot");
                assert_eq!(snapshot.len(), cfg.n_particles, "conservation holds");
                // The uninjected epochs are desync-free.
                cfg.ghost_desync_inject = None;
                let clean = run_world(&cfg, shape);
                assert_eq!(clean.report.ghost_desyncs, 0);
            }
        }
    }

    /// Ids in the order this PE packs a refresh for each neighbour, and
    /// in the order it writes each neighbour's refresh into its slabs.
    fn refresh_orders(pe: &PeState) -> [Vec<Vec<u64>>; 2] {
        let packed = pe.topology.ghost_routes().iter().map(|route| {
            let cells = route.iter().flat_map(|(col, span)| {
                let slab = &pe.columns[col];
                &slab.particles()[slab.range(span.start).start..slab.range(span.end - 1).end]
            });
            cells.map(|p| p.id).collect()
        });
        let routed = pe.exchange.ghost_slot_routes.iter().map(|route| {
            let slots = route
                .iter()
                .flat_map(|(col, run)| &pe.ghosts[col].particles()[run.clone()]);
            slots.map(|p| p.id).collect()
        });
        [packed.collect(), routed.collect()]
    }

    #[test]
    fn refresh_pack_order_is_the_receivers_route_order_in_every_shape() {
        // A refresh carries no ids: position k of the frame lands in slot
        // k of the receiver's route, so the sender's pack order and the
        // receiver's route order must name the same ghosts in the same
        // sequence — after every step, rebuild or not, and across the
        // ownership changes of both balancers.
        for shape in DomainShape::ALL {
            let mut cfg = shape_cfg(shape);
            if shape == DomainShape::SquarePillar {
                cfg.p = 9; // DLB needs a torus side ≥ 3
            }
            cfg.dlb = shape != DomainShape::Cube;
            cfg.skin = 0.1;
            cfg.steps = 24;
            crate::decomp::validate(&cfg, shape);
            let ranks = pcdlb_mp::World::new(cfg.p).run(|comm| {
                let mut pe = fresh(comm.rank(), &cfg, shape);
                crate::engine::exchange_ghosts_and_compute(comm, &mut pe, Exchange::Shells);
                crate::engine::announce_loads(comm, &mut pe);
                let mut orders = vec![refresh_orders(&pe)];
                let mut transfers = 0;
                for step in 1..=cfg.steps {
                    let rec = crate::engine::step_pe(comm, &mut pe, step);
                    transfers += rec.map_or(0, |r| r.transfers);
                    orders.push(refresh_orders(&pe));
                }
                (pe.neighbors().to_vec(), orders, transfers)
            });
            let transfers = ranks[0].2;
            assert_eq!(
                transfers > 0,
                cfg.dlb,
                "{shape:?}: {transfers} DLB transfers"
            );
            let mut compared = 0;
            for (rank, (nbrs, orders, _)) in ranks.iter().enumerate() {
                for (i, &nb) in nbrs.iter().enumerate() {
                    let back = ranks[nb].0.binary_search(&rank).expect("symmetric");
                    for (step, [_, routed]) in orders.iter().enumerate() {
                        let [packed, _] = &ranks[nb].1[step];
                        compared += routed[i].len();
                        assert_eq!(
                            routed[i], packed[back],
                            "{shape:?} step {step}: {nb} packs for {rank} in another order"
                        );
                    }
                }
            }
            assert!(
                compared > 1000,
                "{shape:?}: only {compared} ghosts compared"
            );
        }
    }

    /// Run `cfg.steps` steps of the cube on the engine, one PE per rank,
    /// after `setup` has had its way with each fresh PE; `look`
    /// reads each PE when the steps are done.
    fn drive_cube<T: Send>(
        cfg: &RunConfig,
        initial: &[Particle],
        setup: impl Fn(&mut PeState) + Sync,
        look: impl Fn(&PeState, &mut Comm) -> T + Sync,
    ) -> Vec<(Vec<StepRecord>, T)> {
        let shape = DomainShape::Cube;
        let initial = Placed::new(cfg, initial);
        pcdlb_mp::World::new(cfg.p)
            .with_cost_model(crate::decomp::cost_model(shape, cfg))
            .run(|comm| {
                let none = crate::launch::LaunchPlan::default();
                let mut pe = PeState::new(comm.rank(), cfg, shape, &initial, &none);
                setup(&mut pe);
                crate::engine::exchange_ghosts_and_compute(comm, &mut pe, Exchange::Shells);
                let _ = comm.lap_virtual_comm();
                let mut records = Vec::new();
                for step in 1..=cfg.steps {
                    records.extend(crate::engine::step_pe(comm, &mut pe, step));
                }
                (records, look(&pe, comm))
            })
    }

    #[test]
    fn a_particle_crossing_an_edge_or_a_corner_lands_once_in_every_halo_that_needs_it() {
        // 27 blocks of 3³ cells (cell length 3): the mover starts in the
        // top corner cell (5, 5, 4) or (5, 5, 5) of block (1, 1, 1) — rank
        // 13 — a hair below the block's faces and crosses two or three of
        // them in one step. Its new owner is not the rank that ships it as
        // a ghost: rank 13 tells the third parties and keeps its own copy.
        let mut cfg = RunConfig::new(2, 9, 27, 2.0 / 27.0f64.powi(3));
        cfg.dlb = false;
        cfg.thermostat_interval = 0;
        cfg.steps = 1;
        let block = |bx: usize, by: usize, bz: usize| (bz * 3 + by) * 3 + bx;
        let edge = 18.0 - 1e-4;
        for (z, vz, owner, halos) in [
            // Across the x and y faces in the block's middle z layer: the
            // new cell (6, 6, 4) touches blocks {1, 2} × {1, 2} × {1}.
            (
                13.5,
                0.0,
                block(2, 2, 1),
                vec![block(1, 1, 1), block(2, 1, 1), block(1, 2, 1)],
            ),
            // Across the corner into (6, 6, 6): {1, 2}³ but the owner.
            (edge, 1.0, block(2, 2, 2), {
                let all = (0..8).map(|i| block(1 + i % 2, 1 + i / 2 % 2, 1 + i / 4));
                all.filter(|&r| r != block(2, 2, 2)).collect()
            }),
        ] {
            let mut mover = Particle::at_rest(0, Vec3::new(edge, edge, z));
            mover.vel = Vec3::new(1.0, 1.0, vz);
            let far = Particle::at_rest(1, Vec3::new(1.0, 1.0, 1.0));
            let seen = drive_cube(
                &cfg,
                &[mover, far],
                |pe| assert!(pe.exchanges_once()),
                |pe, _| {
                    let count = |slabs: &Slabs| {
                        let all = slabs.values().flat_map(|s| s.particles());
                        all.filter(|p| p.id == 0).count()
                    };
                    (count(&pe.columns), count(&pe.ghosts))
                },
            );
            for (rank, (_, (owned, ghost))) in seen.iter().enumerate() {
                assert_eq!(*owned, (rank == owner) as usize, "rank {rank} owns it");
                assert_eq!(
                    *ghost,
                    halos.contains(&rank) as usize,
                    "rank {rank}'s halo (new owner {owner}, needed by {halos:?})"
                );
            }
        }
    }

    #[test]
    fn one_exchange_moves_only_the_comm_part_of_t_step() {
        // The same cube run with the rebuild step as one exchange and —
        // the flag forced off on every rank — as the two rounds it
        // replaces: same physics, same work, same loads, bit for bit;
        // one message per neighbour and step fewer, and a shorter modelled
        // step for it.
        let mut cfg = shape_cfg(DomainShape::Cube);
        cfg.steps = 20;
        let initial = initial_particles(&cfg);
        let run = |two_rounds: bool| {
            drive_cube(
                &cfg,
                &initial,
                |pe| {
                    if two_rounds {
                        pe.topology.force_two_rounds();
                    }
                },
                |pe, comm| (comm.stats().msgs_sent, pe.neighbors().len() as u64),
            )
        };
        let (one, two) = (run(false), run(true));
        for ((_, (sent_one, nbrs)), (_, (sent_two, _))) in one.iter().zip(&two) {
            assert_eq!(sent_two - sent_one, nbrs * cfg.steps);
        }
        let (one, two) = (&one[0].0, &two[0].0);
        assert_eq!(one.len(), cfg.steps as usize);
        for (a, b) in one.iter().zip(two) {
            let physics = |r: &StepRecord| {
                let floats = [r.f_max, r.f_ave, r.f_min, r.kinetic, r.potential];
                (floats.map(f64::to_bits), r.pair_checks)
            };
            assert_eq!(physics(a), physics(b), "step {}", a.step);
            assert!(
                a.t_step < b.t_step,
                "step {}: {} vs {}",
                a.step,
                a.t_step,
                b.t_step
            );
        }
    }

    #[test]
    fn a_desynced_single_exchange_frame_still_delivers_its_migrants() {
        // Rank 1's first delta from rank 0 is poisoned, and that very
        // frame carries a particle leaving rank 0 for rank 1: the ghost
        // section is dropped, the migrant is not — it exists nowhere else
        // any more.
        let cfg = desync_cfg(DomainShape::Cube, 1, 1);
        let initial = initial_particles(&cfg);
        // Rank 0 is block (0, 0, 0) of 3³ cells; rank 1 lies across
        // x = L/2, the far face of cell column (2, 0).
        let half = 0.5 * cfg.box_len();
        let bin = |v: f64| axis_bin(v, cfg.cell_len(), cfg.nc);
        let in_edge_column =
            |p: &&Particle| (bin(p.pos.x), bin(p.pos.y)) == (2, 0) && bin(p.pos.z) < 3;
        // (The one nearest the face, so the nudge crowds nobody.)
        let nearest = |a: &&Particle, b: &&Particle| a.pos.x.total_cmp(&b.pos.x);
        let mover = initial.iter().filter(in_edge_column).max_by(nearest);
        let mover = mover.expect("the column is populated").id;
        let seen = drive_cube(
            &cfg,
            &initial,
            |pe| {
                if pe.rank == 0 {
                    let slab = pe.columns.get_mut(&Col::new(2, 0)).unwrap();
                    let p = slab.particles_mut().iter_mut().find(|p| p.id == mover);
                    let p = p.expect("rank 0 adopted it");
                    p.pos.x = half - 1e-6;
                    p.vel.x = 1.0;
                }
            },
            |pe, _| {
                (
                    pe.ghost_desyncs(),
                    pe.particles().map(|p| p.id).collect::<Vec<_>>(),
                )
            },
        );
        let (desyncs, owned): (Vec<u64>, Vec<&Vec<u64>>) =
            seen.iter().map(|(_, (d, ids))| (*d, ids)).unzip();
        assert_eq!(desyncs, [0, 1, 0, 0, 0, 0, 0, 0]);
        assert!(owned[1].contains(&mover) && !owned[0].contains(&mover));
        assert_eq!(
            owned.iter().map(|ids| ids.len()).sum::<usize>(),
            cfg.n_particles
        );
    }
}
