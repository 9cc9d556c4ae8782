//! What a PE sends its neighbours and does with what they send (phases 2
//! and 4), in the four kinds of [`Exchange`] — round 1 and the shells of
//! a two-round rebuild step, migrants and ghosts in a single exchange, or
//! a mid-epoch refresh written through the slot routes.
//!
//! Every kind travels the same way: staged along the rank torus, x then y
//! then z, one [`StepFrame`] per hop under `tags::STEP_FRAME` — to each
//! distinct rank one torus step away along the stage's axis, and one back
//! from it (see `topology`'s routing). A PE computes what it originates
//! per destination: its emigrants by new owner, its shell cells by the
//! neighbours that need them, and in a balancing run its load and
//! decision for every neighbour. Each item takes the hop of
//! the first axis it has to cross and rides along the others in the
//! sections the relays pass on, so a diagonal neighbour's share rides
//! the face frames, and an item several neighbours need crosses each link
//! once. A relay keeps the sections that name it and copies the ones that
//! name ranks beyond it into its later frames; what a PE applies it
//! applies as if it had all come at once — immigrants and ghosts are
//! binned by position, loads and decisions heard in ascending origin.
//!
//! Each frame travels as its encoding ([`crate::frame`]): a PE builds
//! its outgoing frames in place and encodes each into the message; it
//! decodes each incoming one — checked against the hop it came over —
//! and copies the bytes of a section it passes on verbatim. A ghost
//! section is a shell as `(id, pos)` pairs, ids ascending; a mid-epoch
//! refresh section its positions alone.
//! What the balancer puts into a step's first frames and hears from them
//! is [`super::balance`]'s; the first frames of a balancing run's rebuild
//! step also carry, as migrants, the particles of the columns whose
//! transfers landed at the top of the step.
//!
//! Allocation-free in the steady state: staging lists, per-neighbour
//! outboxes, per-section codecs and routes, retained frames, the decoded
//! frame and the received payloads are reused across steps. Nor does a
//! particle cost a map lookup: a staging list is one index away, by
//! column or by home.

use pcdlb_core::protocol::{tags, Transfer};
use pcdlb_domain::Col;
use pcdlb_md::cells::CellSlab;
use pcdlb_md::vec3::Vec3;
use pcdlb_md::{axis_bin, Particle};
use pcdlb_mp::Comm;

use super::topology::{behind_first_hop, dest_bit, foreign_around, push_run, CellClass, Route};
use super::{Origin, PeState};
use crate::clock::WallTimer;
use crate::decomp::Decomposition;
use crate::frame::{DeltaChannel, FrameBytes, Received, SectionHead, StepFrame};
use crate::launch::Placed;

/// What a step's neighbourhood exchange carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exchange {
    /// Round 1 of a two-round rebuild step: migrants, and in a balancing
    /// run loads and decisions.
    Migrants,
    /// Round 2 of a two-round rebuild step: the boundary shells.
    Shells,
    /// A mid-epoch step's only exchange: new positions of the frozen
    /// shells.
    Refresh,
    /// A single-exchange rebuild step's only exchange: migrants and ghosts
    /// together, and in a balancing run the loads and the decisions (see
    /// [`PeState::exchanges_once`]).
    Single,
}

/// The per-neighbour and per-section channels and the staging around
/// them.
#[derive(Default)]
pub(super) struct Channels {
    /// Retained-particle staging for migration: one list per column of
    /// the box, by column index `cx · nc + cy`, so the per-step rebinning
    /// reuses every allocation whatever the owned columns are.
    migrate_staging: Vec<Vec<Particle>>,
    /// How many particles were staged into `migrate_staging` since the
    /// owned columns were last rebuilt from it.
    staged: usize,
    /// Per-neighbour emigrant staging (parallel to the neighbour list).
    migrate_out: Vec<Vec<Particle>>,
    /// Per-section ghost shell codecs, ascending by mask: the shell this
    /// PE originates for each section is staged on its codec and packed
    /// from there.
    shells: Vec<(u32, DeltaChannel)>,
    /// A single-exchange step's own departers whose new cell borders this
    /// PE: it ships them away and keeps seeing them as ghosts, so they
    /// are staged at the send and binned with the received ghosts.
    kept_ghosts: Vec<(u64, Vec3)>,
    /// Per-neighbour `(count, id sum)` of the ghosts binned this rebuild
    /// step into cells that neighbour owns — what the slot routes are
    /// proven against (`skin > 0` only).
    ghost_tally: Vec<(usize, u64)>,
    /// Per ghost cell (`nc` per home column), the mask of the section
    /// its owner sent it in this rebuild step; 0 where the owner sent
    /// nothing for it (`skin > 0` only).
    cell_masks: Vec<u32>,
    /// Retained ghost re-binning staging, one list per home column
    /// (parallel to the topology's home list; only the ghost homes' are
    /// used), so the per-step scatter reuses every allocation.
    ghost_staging: Vec<Vec<Particle>>,
    /// The loads and decisions this exchange brought: origin, load,
    /// decision.
    heard: Vec<(usize, f64, Option<Transfer>)>,
    /// In-place ghost update routes, recorded at each rebuild step
    /// ([`PeState::record_ghost_slot_routes`]), by (owner, mask) of the
    /// section the owner packs them in: the slot runs of the frozen ghost
    /// slabs that hold those ghosts, in the order it packs them. Mid-epoch
    /// refresh sections carry the identical membership in that order, so
    /// the positions are written straight through the runs — no ids, no
    /// re-binning, no sorting. Ascending by (owner, mask).
    ghost_slot_routes: Vec<(usize, u32, Route)>,
    /// How many ghost slots the routes hold, and how many this refresh
    /// wrote.
    routed: usize,
    refreshed: usize,
    /// This exchange's outgoing frames, one per hop, cleared at each
    /// exchange; what leaves the rank is a frame's encoding.
    out: Vec<StepFrame>,
    /// The payloads of the last exchange's incoming frames, by hop: kept
    /// until the next exchange replaces them.
    inbox: Vec<Vec<u8>>,
    /// The incoming frame being taken in, decoded.
    received: Received,
}

impl Channels {
    /// Channels to `n_nbrs` neighbours in a box of `nc × nc` columns.
    /// Once per run.
    pub(super) fn new(n_nbrs: usize, nc: usize) -> Self {
        Self {
            migrate_staging: vec![Vec::new(); nc * nc],
            migrate_out: vec![Vec::new(); n_nbrs],
            ghost_tally: vec![(0, 0); n_nbrs],
            ..Self::default()
        }
    }

    /// One ghost staging list per home column, preserving the allocations
    /// of the lists that stay. Runs when ownership changed, never in the
    /// steady state.
    pub(super) fn follow_homes(&mut self, homes: usize) {
        self.ghost_staging.resize_with(homes, Vec::new);
    }

    /// Stage `p` as a particle of the owned column of index `at`
    /// (`cx · nc + cy`) for the rebuild.
    fn keep(&mut self, at: usize, p: &Particle) {
        self.migrate_staging[at].push(*p);
        self.staged += 1;
    }

    /// The owned columns took `taken` staged particles: every one staged,
    /// or some lie in a column this PE holds no slab of.
    fn take_staged(&mut self, rank: usize, taken: usize) {
        assert_eq!(
            taken, self.staged,
            "rank {rank}: particles staged for a column it does not own"
        );
        self.staged = 0;
    }

    /// The payloads of the last exchange's incoming frames, by hop.
    pub(super) fn inbox(&self) -> &[Vec<u8>] {
        &self.inbox
    }

    /// The shell codec of the section of `mask`; a mask first met here
    /// (a departer's) gets one, kept from then on.
    fn shell(&mut self, mask: u32) -> &mut DeltaChannel {
        let at = match self.shells.binary_search_by_key(&mask, |s| s.0) {
            Ok(at) => at,
            Err(at) => {
                self.shells.insert(at, (mask, DeltaChannel::default()));
                at
            }
        };
        &mut self.shells[at].1
    }
}

/// The indices of the set bits of `bits`, ascending.
fn set_bits(bits: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |j| bits >> j & 1 != 0)
}

impl PeState {
    /// Re-bin every owned particle by its drifted position: stayers into
    /// `migrate_staging`, departers into `migrate_out` by new owner. With
    /// `announce` (the single-exchange step) a departer is also staged as
    /// a ghost for everyone but its new owner whose cells border its new
    /// cell — on the codecs of the sections toward them, or in
    /// `kept_ghosts` when that is this PE — since no round 2 of the new
    /// owner will carry it.
    fn rebin_owned(&mut self, announce: bool) {
        let ch = &mut self.exchange;
        for v in &mut ch.migrate_staging {
            v.clear();
        }
        ch.staged = 0;
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
                    ch.keep(ncol.cx * nc + ncol.cy, p);
                    continue;
                }
                ch.migrate_out[topology.index_of(owner)].push(*p);
                if announce {
                    let span = if whole { 0..nc } else { ncz..ncz + 1 };
                    let (mut kept, mut dests) = (false, 0);
                    for (.., r) in foreign_around(decomp, nc, owner, ncol, span) {
                        if r == rank {
                            kept = true;
                        } else {
                            dests |= topology.nbr_bit(topology.index_of(r));
                        }
                    }
                    if kept {
                        ch.kept_ghosts.push((p.id, p.pos));
                    }
                    for hop in topology.hops() {
                        if dests & hop.behind != 0 {
                            ch.shell(dests & hop.behind).scratch.push((p.id, p.pos));
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
        let ch = &mut self.exchange;
        let mut rebuilt = 0;
        for (col, slab) in self.columns.iter_mut() {
            let staged = &mut ch.migrate_staging[col.cx * nc + col.cy];
            rebuilt += staged.len();
            slab.rebuild_from(nc, staged, zbin);
        }
        ch.take_staged(self.rank, rebuilt);
    }

    /// Stage the immigrants of one received section into their columns.
    fn stage_immigrants(&mut self, parts: &[Particle]) {
        let rank = self.rank;
        for p in parts {
            let col = self.col_of(p.pos);
            debug_assert_eq!(
                self.decomp.owner_of(col, self.cell_of(p.pos).1),
                rank,
                "rank {rank}: received particle {} for column {col:?} it does not own",
                p.id
            );
            self.exchange.keep(col.cx * self.nc + col.cy, p);
        }
    }

    /// One neighbourhood exchange of kind `exchange`, staged along the
    /// rank torus (see the module docs).
    ///
    /// [`Exchange::Migrants`] (phase 2, round 1): re-bin locally and ship
    /// the emigrants — the particles of a column whose transfer from this
    /// PE landed at the top of the step among them — plus in a balancing
    /// run this PE's last-step load and, when it decided to give a cell
    /// away this step, the decision; immigrants rebuild the columns in
    /// place, and the neighbours' loads and decisions are heard — merged
    /// with this PE's own, the decisions land at the top of the next
    /// rebuild step ([`PeState::dlb_defer`]). Two-round rebuild steps
    /// only.
    ///
    /// [`Exchange::Shells`] (phase 4, round 2): the boundary-shell ghosts
    /// along the cached routes — `(id, pos)` pairs only, no velocities,
    /// no column directory, nothing for empty cells — decoded, re-binned
    /// by position into the retained staging lists and rebuilt into the
    /// ghost slabs in place, same `(cell, id)` order as before.
    ///
    /// [`Exchange::Refresh`] (mid-epoch): the shells are frozen, each
    /// section is a positions-only refresh packed straight off the same
    /// routes and written straight into the frozen slab slots through the
    /// routes recorded at the last rebuild.
    ///
    /// [`Exchange::Single`]: phase 2 happens here too. The PE re-bins
    /// locally first and ships both kinds — *migrants*, its particles
    /// whose new cell a neighbour owns, and *ghosts*, every other particle
    /// it held whose new cell borders a neighbour's cell: its stayers
    /// along the routes plus its departers to a third rank (see
    /// [`PeState::rebin_owned`]). Each particle is thus announced by the
    /// one rank that held it before the step, to exactly the ranks that
    /// hold it as a ghost under two rounds. In a balancing run the loads
    /// and decisions travel too, and a column whose transfer landed at the
    /// top of the step is re-binned under its new owner, as in round 1
    /// (see [`PeState::rebin_landed`]).
    pub(crate) fn exchange(&mut self, comm: &mut Comm, exchange: Exchange) {
        let t0 = WallTimer::start();
        let (mut load, mut decision) = (None, None);
        match exchange {
            Exchange::Migrants => {
                self.rebin_landed(false);
                (load, decision) = self.dlb_announce();
            }
            Exchange::Single => {
                (load, decision) = self.dlb_announce();
                self.rebin_landed(true);
                self.rebuild_columns();
            }
            Exchange::Shells | Exchange::Refresh => self.refresh_caches(),
        }
        let mut out = std::mem::take(&mut self.exchange.out);
        out.resize_with(self.topology.hops().len(), StepFrame::default);
        out.iter_mut().for_each(StepFrame::clear);
        match exchange {
            Exchange::Migrants => self.originate_migrants(&mut out, load, decision),
            Exchange::Single => {
                self.originate_migrants(&mut out, load, decision);
                self.originate_shells(&mut out);
            }
            Exchange::Shells => self.originate_shells(&mut out),
            Exchange::Refresh => self.originate_refresh(&mut out),
        }
        self.open_receipt(exchange);
        let hops = self.topology.hops().len();
        if self.exchange.inbox.len() < hops {
            self.exchange.inbox.resize_with(hops, Vec::default);
        }
        let mut first = 0;
        while first < hops {
            // One stage: every hop along one axis — all its frames out,
            // then all of theirs in, each passed on to the later hops.
            let axis = self.topology.hops()[first].axis;
            let mut end = first;
            while end < hops && self.topology.hops()[end].axis == axis {
                end += 1;
            }
            for (h, buf) in out.iter().enumerate().take(end).skip(first) {
                let to = self.topology.hops()[h].rank;
                let took = comm.send_with(to, tags::STEP_FRAME, |bytes| buf.encode_into(bytes));
                self.account(took, exchange);
            }
            for h in first..end {
                let from = self.topology.hops()[h].rank;
                let payload = comm.recv_payload(from, tags::STEP_FRAME);
                comm.recycle(std::mem::replace(&mut self.exchange.inbox[h], payload));
                self.take_in(h, end, &mut out[end..]);
            }
            first = end;
        }
        self.exchange.out = out;
        self.close_receipt(exchange);
        let elapsed = t0.elapsed_s();
        match exchange {
            Exchange::Migrants => self.phase.migrate += elapsed,
            _ => self.phase.ghost += elapsed,
        }
    }

    /// This PE's own migrant sections — one per neighbour it has emigrants
    /// for — and in a balancing run its load sections, one per hop.
    fn originate_migrants(
        &mut self,
        out: &mut [StepFrame],
        load: Option<f64>,
        decision: Option<Transfer>,
    ) {
        let rank = self.rank;
        for i in 0..self.topology.neighbors().len() {
            let mask = self.topology.nbr_bit(i);
            let parts = &mut self.exchange.migrate_out[i];
            // Deterministic payloads: order emigrants by id.
            parts.sort_unstable_by_key(|p| p.id);
            let hop = self.topology.hop_of(mask);
            out[hop].push_migrants(mask, rank, parts);
        }
        if let Some(load) = load {
            let all = self.topology.nbr_mask();
            for (buf, hop) in out.iter_mut().zip(self.topology.hops()) {
                let mask = all & hop.behind;
                if mask != 0 {
                    buf.push_load(mask, rank, load, decision);
                }
            }
        }
    }

    /// This PE's own ghost sections: each section's route cells, plus on a
    /// single-exchange step the departers staged for it, ascending id.
    fn originate_shells(&mut self, out: &mut [StepFrame]) {
        let rank = self.rank;
        for section in self.topology.sections() {
            let codec = self.exchange.shell(section.mask);
            for (col, span) in &section.route {
                let parts = self.columns[col].run(span.clone());
                codec.scratch.extend(parts.iter().map(|p| (p.id, p.pos)));
            }
        }
        for (mask, codec) in &mut self.exchange.shells {
            if !codec.scratch.is_empty() {
                let hop = self.topology.hop_of(*mask);
                codec.pack_into(&mut out[hop], *mask, rank);
            }
        }
        self.count_ghost_baseline();
    }

    /// This PE's own refresh sections: the positions of each section's
    /// route cells, in route order.
    fn originate_refresh(&mut self, out: &mut [StepFrame]) {
        let rank = self.rank;
        for section in self.topology.sections() {
            let runs =
                (section.route.iter()).map(|(col, span)| self.columns[col].run(span.clone()));
            let n = runs.clone().map(<[Particle]>::len).sum();
            let pos = runs.flatten().map(|p| p.pos);
            out[section.hop].push_refresh(section.mask, rank, n, pos);
        }
        self.count_ghost_baseline();
    }

    /// Pre-diet layout of the ghost phase: one message per neighbour of
    /// full particles with a per-column directory.
    fn count_ghost_baseline(&mut self) {
        for route in self.topology.ghost_routes() {
            let mut baseline = 8u64;
            for (col, span) in route {
                let n = self.columns[col].run(span.clone()).len();
                baseline += 24 + 56 * n as u64;
            }
            self.wire.ghost_baseline += baseline;
        }
    }

    /// Account what one outgoing frame's encoding took — relayed
    /// sections included — to its phases: the decisions to the balancer,
    /// migrants and loads to migration, the ghost kinds to the ghost
    /// phase; the presence byte to the exchange's own phase.
    fn account(&mut self, took: FrameBytes, exchange: Exchange) {
        self.wire.dlb += took.decisions as u64;
        self.wire.migrate += (took.migrants + took.loads - took.decisions) as u64;
        self.wire.ghost += took.ghosts as u64;
        match exchange {
            Exchange::Migrants => self.wire.migrate += took.presence as u64,
            _ => self.wire.ghost += took.presence as u64,
        }
    }

    /// Before the first stage: the receive side's staging for `exchange`.
    fn open_receipt(&mut self, exchange: Exchange) {
        self.exchange.heard.clear();
        match exchange {
            Exchange::Shells | Exchange::Single => {
                for v in &mut self.exchange.ghost_staging {
                    v.clear();
                }
                if self.cfg.skin > 0.0 {
                    self.exchange.ghost_tally.fill((0, 0));
                    let cells = self.topology.homes().len() * self.nc;
                    self.exchange.cell_masks.clear();
                    self.exchange.cell_masks.resize(cells, 0);
                }
                // (Empty except on a single-exchange step.)
                let mut kept = std::mem::take(&mut self.exchange.kept_ghosts);
                for &(id, pos) in &kept {
                    self.stage_ghost(id, pos, self.rank, 0);
                }
                kept.clear();
                self.exchange.kept_ghosts = kept;
            }
            Exchange::Refresh => self.exchange.refreshed = 0,
            Exchange::Migrants => {}
        }
    }

    /// The frame received over hop `h`: decode it, keep the sections
    /// that name this PE, and copy each one that names ranks beyond it
    /// into the frames of the later hops that lead there (`out[j]` is hop
    /// `later + j`). A frame that does not decode is a protocol fault.
    fn take_in(&mut self, h: usize, later: usize, out: &mut [StepFrame]) {
        let payload = std::mem::take(&mut self.exchange.inbox[h]);
        let mut frame = std::mem::take(&mut self.exchange.received);
        let arrival = self.topology.arrival(h);
        if let Err(e) = frame.decode(&payload, arrival) {
            let from = self.topology.hops()[h].rank;
            panic!(
                "rank {}: a malformed step frame from {from}: {e:?}",
                self.rank
            );
        }
        for (head, parts) in frame.migrants.iter() {
            if self.pass_on(head, &payload, later, out) {
                self.stage_immigrants(parts);
            }
        }
        for (head, load) in frame.loads.iter() {
            if self.pass_on(head, &payload, later, out) {
                let (load, decision) = load[0];
                self.exchange.heard.push((head.origin, load, decision));
            }
        }
        for (head, parts) in frame.ghosts.iter() {
            if self.pass_on(head, &payload, later, out) {
                for &(id, pos) in parts {
                    self.stage_ghost(id, pos, head.origin, head.mask);
                }
            }
        }
        for (head, fresh) in frame.refresh.iter() {
            if self.pass_on(head, &payload, later, out) {
                self.write_refresh(head.origin, head.mask, fresh);
            }
        }
        self.exchange.received = frame;
        self.exchange.inbox[h] = payload;
    }

    /// Pass one received section on, its bytes in `payload` verbatim, to
    /// the frames of the later hops it takes, counting them as relayed
    /// where this PE does not need it. Returns whether this PE is one of
    /// its destinations.
    fn pass_on(
        &mut self,
        head: &SectionHead,
        payload: &[u8],
        later: usize,
        out: &mut [StepFrame],
    ) -> bool {
        let (mine, onward) = self.topology.passage(head.origin, head.mask, later);
        let raw = head.raw(payload);
        for j in set_bits(onward) {
            out[j].relay(head, raw);
        }
        if !mine {
            self.wire.relayed += (raw.len() * onward.count_ones() as usize) as u64;
        }
        mine
    }

    /// After the last stage: rebuild what the exchange brought.
    fn close_receipt(&mut self, exchange: Exchange) {
        match exchange {
            Exchange::Migrants => {
                self.hear_round();
                self.rebuild_columns();
                self.dlb_defer();
            }
            Exchange::Shells | Exchange::Single => {
                let (nc, zbin) = (self.nc, self.zbin());
                // The ghost slabs and the ghost homes are the same columns,
                // both ascending (`PeState::refresh_caches`).
                let homes = self.topology.homes().iter().enumerate();
                let ghost_homes = homes.filter(|(_, h)| h.ghost);
                for ((col, slab), (hi, home)) in self.ghosts.iter_mut().zip(ghost_homes) {
                    assert_eq!(*col, home.col, "ghost slabs follow the ghost homes");
                    slab.rebuild_from(nc, &mut self.exchange.ghost_staging[hi], zbin);
                }
                if exchange == Exchange::Single {
                    self.hear_round();
                    self.adopt_arrivals();
                    self.dlb_defer();
                }
                if self.cfg.skin > 0.0 {
                    self.record_ghost_slot_routes();
                }
            }
            Exchange::Refresh => assert_eq!(
                self.exchange.refreshed, self.exchange.routed,
                "rank {}: the refresh does not cover the ghosts the routes hold",
                self.rank
            ),
        }
    }

    /// The round's loads and decisions, heard in ascending origin — the
    /// order every rank applies them in, whatever way they came.
    fn hear_round(&mut self) {
        self.balance.open_round();
        let heard = &mut self.exchange.heard;
        heard.sort_unstable_by_key(|h| h.0);
        for &(origin, load, decision) in heard.iter() {
            self.balance.hear(origin, load, decision);
        }
    }

    /// Stage one ghost, from `origin`'s section of `mask`, into its
    /// column's re-binning list and, when slot routes will be recorded,
    /// tally it under the neighbour owning its cell — and where that is
    /// `origin`, note the section for the cell.
    fn stage_ghost(&mut self, id: u64, pos: Vec3, origin: usize, mask: u32) {
        let rank = self.rank;
        let col = self.col_of(pos);
        let hi = self.topology.ghost_home(col);
        self.exchange.ghost_staging[hi].push(Particle::at_rest(id, pos));
        if self.cfg.skin > 0.0 {
            let cz = axis_bin(pos.z, self.cell_len, self.nc);
            let owner = self.decomp.owner_of(col, cz);
            let (n, sum) = &mut self.exchange.ghost_tally[self.topology.index_of(owner)];
            *n += 1;
            *sum = sum.wrapping_add(id);
            if owner == origin {
                let noted = &mut self.exchange.cell_masks[hi * self.nc + cz];
                debug_assert!(
                    *noted == 0 || *noted == mask,
                    "rank {rank}: cell ({col:?}, {cz}) came in two sections of {owner}"
                );
                *noted = mask;
            }
        }
    }

    /// Merge a single-exchange step's staged immigrants into the owned
    /// columns, which [`PeState::exchange`] rebuilt from the stayers.
    fn adopt_arrivals(&mut self) {
        let (nc, zbin) = (self.nc, self.zbin());
        let ch = &mut self.exchange;
        let mut adopted = 0;
        for (col, slab) in self.columns.iter_mut() {
            let staged = &mut ch.migrate_staging[col.cx * nc + col.cy];
            if !staged.is_empty() {
                adopted += staged.len();
                staged.extend_from_slice(slab.particles());
                slab.rebuild_from(nc, staged, zbin);
            }
        }
        ch.take_staged(self.rank, adopted);
    }

    /// The mask of the section `owner` packs its cell `(col, cz)` into
    /// for this PE: the neighbours of `owner` bordering the cell, behind
    /// `owner`'s hop toward this PE. Read off the ownership `view`, and so
    /// asked only where that is exact two cells out of this PE: for a cell
    /// whose owner sent no ghost of it this rebuild step — on a
    /// single-exchange step, where every particle now in the cell was
    /// announced by the rank it left, on this PE's own view (the closure
    /// test) — and at the launch, on the owner's own view
    /// ([`PeState::adopt_ghosts`]).
    fn refresh_mask(&self, view: &dyn Decomposition, owner: usize, col: Col, cz: usize) -> u32 {
        let nc = self.nc;
        let span = if self.topology.own_z().len() == nc {
            0..nc
        } else {
            cz..cz + 1
        };
        let torus = self.topology.torus();
        let offset = |r: usize| {
            (torus.offset(owner, r))
                .unwrap_or_else(|| panic!("rank {}: {r} is no neighbour of {owner}", self.rank))
        };
        let around = foreign_around(view, nc, owner, col, span);
        let dests = around.fold(0, |mask, (.., r)| mask | dest_bit(offset(r)));
        dests & behind_first_hop(offset(self.rank))
    }

    /// The launch's ghost cells, taken out of `placed` as the shells a
    /// first exchange would have brought: for every ghost home, the runs
    /// of its cells the caches class [`CellClass::Ghost`], as `(id, pos)`
    /// at rest, in the placement's (cell, id) order — the slab's own, so
    /// nothing is binned or sorted. Under skin epochs the slot routes of
    /// the first epoch follow, each ghost cell under the section its
    /// owner packs it in: read off the owner's own view as `origin`
    /// starts it — exact around every cell the owner holds, as the one
    /// the owner packs by — and proven against the ghosts adopted for
    /// each neighbour's cells.
    pub(super) fn adopt_ghosts(&mut self, placed: &Placed, origin: &Origin) {
        let (nc, zbin) = (self.nc, self.zbin());
        let homes = self.topology.homes().iter().enumerate();
        let ghost_homes = homes.filter(|(_, h)| h.ghost);
        for ((col, slab), (hi, home)) in self.ghosts.iter_mut().zip(ghost_homes) {
            assert_eq!(*col, home.col, "ghost slabs follow the ghost homes");
            let classes = self.topology.classes(hi);
            let staged = &mut self.exchange.ghost_staging[hi];
            let mut cz = 0;
            while cz < nc {
                let end = (cz..nc)
                    .find(|&z| classes[z] != CellClass::Ghost)
                    .unwrap_or(nc);
                let run = placed.column(*col, cz..end);
                staged.extend(run.iter().map(|p| Particle::at_rest(p.id, p.pos)));
                cz = end + 1;
            }
            slab.rebuild_sorted(nc, staged, zbin);
            staged.clear();
        }
        if self.cfg.skin == 0.0 {
            return;
        }
        let nbrs = self.topology.neighbors();
        let views: Vec<_> = nbrs.iter().map(|&nb| origin.view(nb, &self.cfg)).collect();
        self.exchange.ghost_tally.fill((0, 0));
        let mut masks = std::mem::take(&mut self.exchange.cell_masks);
        masks.clear();
        masks.resize(self.topology.homes().len() * nc, 0);
        for (hi, home) in self.topology.homes().iter().enumerate() {
            let Some(slab) = self.ghosts.get(&home.col) else {
                continue;
            };
            for cz in (0..nc).filter(|&cz| !slab.range(cz).is_empty()) {
                let owner = self.decomp.owner_of(home.col, cz);
                let i = self.topology.index_of(owner);
                let (n, sum) = &mut self.exchange.ghost_tally[i];
                for p in slab.cell(cz) {
                    *n += 1;
                    *sum = sum.wrapping_add(p.id);
                }
                masks[hi * nc + cz] = self.refresh_mask(&*views[i], owner, home.col, cz);
            }
        }
        self.exchange.cell_masks = masks;
        self.record_ghost_slot_routes();
    }

    /// Record the in-place update routes for the epoch that starts here.
    /// An owner packs each refresh section off its section routes: its
    /// owned shell cells of that mask in ascending (column, z) order, each
    /// cell's particles by id. Those are exactly this PE's ghost cells
    /// owned by that rank that came in its section of that mask, and the
    /// freshly rebuilt ghost slabs hold them in the same (cell, id) order
    /// — so walking the ghost cells ascending and handing each cell's slot
    /// run to its (owner, mask) reproduces every section's pack order
    /// without a sort or an id lookup. Each owner's routes are proven
    /// against the ghosts this step's frames brought for the cells it
    /// owns (count and id sum, tallied as they were binned — whichever
    /// frame carried them: on a single-exchange step a particle entering
    /// a neighbour's shell is announced by the rank it left), and in debug
    /// builds every cell's run is checked to be in ascending id order,
    /// since a refresh carries no ids to catch a slot mix-up later. All
    /// buffers are retained.
    fn record_ghost_slot_routes(&mut self) {
        let (nc, rank) = (self.nc, self.rank);
        for (.., route) in &mut self.exchange.ghost_slot_routes {
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
                let owner = self.decomp.owner_of(home.col, cz);
                let view = &*self.decomp;
                let mask = match self.exchange.cell_masks[hi * nc + cz] {
                    0 => self.refresh_mask(view, owner, home.col, cz),
                    noted => {
                        debug_assert!(
                            !self.exchanges_once()
                                || noted == self.refresh_mask(view, owner, home.col, cz),
                            "rank {rank}: {owner} sent ({:?}, {cz}) in another section",
                            home.col
                        );
                        noted
                    }
                };
                let routes = &mut self.exchange.ghost_slot_routes;
                let at = match routes.binary_search_by_key(&(owner, mask), |r| (r.0, r.1)) {
                    Ok(at) => at,
                    Err(at) => {
                        routes.insert(at, (owner, mask, Vec::new()));
                        at
                    }
                };
                push_run(&mut routes[at].2, home.col, slots);
            }
        }
        let slots = |route: &Route| route.iter().map(|(_, run)| run.len()).sum::<usize>();
        let routes = &self.exchange.ghost_slot_routes;
        self.exchange.routed = routes.iter().map(|r| slots(&r.2)).sum();
        for (i, &nb) in self.topology.neighbors().iter().enumerate() {
            let routed = (routes.iter().filter(|r| r.0 == nb))
                .flat_map(|(.., route)| route)
                .flat_map(|(col, run)| &self.ghosts[col].particles()[run.clone()])
                .fold((0usize, 0u64), |(n, sum), p| {
                    (n + 1, sum.wrapping_add(p.id))
                });
            assert_eq!(
                routed, self.exchange.ghost_tally[i],
                "rank {rank}: ghost routes for neighbour {nb} do not cover the ghosts received \
                 for its cells"
            );
        }
    }

    /// Write one refresh section from `origin` of `mask` through the route
    /// recorded for it.
    fn write_refresh(&mut self, origin: usize, mask: u32, fresh: &[Vec3]) {
        let rank = self.rank;
        let routes = &self.exchange.ghost_slot_routes;
        let at = routes.binary_search_by_key(&(origin, mask), |r| (r.0, r.1));
        let route = &routes[at.unwrap_or_else(|_| {
            panic!("rank {rank}: a refresh from {origin} for a section it never sent")
        })]
        .2;
        assert_eq!(
            fresh.len(),
            route.iter().map(|(_, run)| run.len()).sum::<usize>(),
            "rank {rank}: refresh from {origin} does not cover the ghosts its route holds"
        );
        let mut rest = fresh;
        for (col, run) in route {
            let slab = (self.ghosts.get_mut(col)).expect("route targets an expected ghost column");
            let (now, later) = rest.split_at(run.len());
            for (p, &pos) in slab.particles_mut()[run.clone()].iter_mut().zip(now) {
                p.pos = pos;
            }
            rest = later;
        }
        self.exchange.refreshed += fresh.len();
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{fresh, shape_cfg};
    use super::super::{initial_particles, Slabs};
    use super::*;
    use crate::config::RunConfig;
    use crate::launch::Placed;
    use crate::report::StepRecord;
    use pcdlb_core::protocol::DlbDecision;
    use pcdlb_domain::DomainShape;

    /// Ids in the order this PE packs each refresh section it
    /// originates, by mask; and in the order it writes each refresh
    /// section it receives into its slabs, by (owner, mask).
    #[allow(clippy::type_complexity)]
    fn refresh_orders(pe: &PeState) -> (Vec<(u32, Vec<u64>)>, Vec<(usize, u32, Vec<u64>)>) {
        let packed = pe.topology.sections().iter().map(|s| {
            let cells = (s.route.iter()).flat_map(|(col, span)| pe.columns[col].run(span.clone()));
            (s.mask, cells.map(|p| p.id).collect())
        });
        let routed = pe
            .exchange
            .ghost_slot_routes
            .iter()
            .map(|(owner, mask, route)| {
                let slots = route
                    .iter()
                    .flat_map(|(col, run)| &pe.ghosts[col].particles()[run.clone()]);
                (*owner, *mask, slots.map(|p| p.id).collect())
            });
        (packed.collect(), routed.collect())
    }

    #[test]
    fn refresh_pack_order_is_the_receivers_route_order_in_every_shape() {
        // A refresh carries no ids: position k of a section lands in slot
        // k of the receiver's route for that section, so the owner's pack
        // order and the receiver's route order must name the same ghosts
        // in the same sequence — after every step, rebuild or not, and
        // across the ownership changes of both balancers.
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
                let mut orders = vec![refresh_orders(&pe)];
                let mut transfers = 0;
                for step in 1..=cfg.steps {
                    let rec = crate::engine::step_pe(comm, &mut pe, step);
                    transfers += rec.map_or(0, |r| r.transfers);
                    orders.push(refresh_orders(&pe));
                }
                (orders, transfers)
            });
            let transfers = ranks[0].1;
            assert_eq!(
                transfers > 0,
                cfg.dlb,
                "{shape:?}: {transfers} DLB transfers"
            );
            let mut compared = 0;
            for (rank, (orders, _)) in ranks.iter().enumerate() {
                for (step, (_, routed)) in orders.iter().enumerate() {
                    for (owner, mask, ids) in routed.iter().filter(|r| !r.2.is_empty()) {
                        let (packed, _) = &ranks[*owner].0[step];
                        let at = packed.binary_search_by_key(mask, |p| p.0);
                        let sent = at.map(|at| &packed[at].1);
                        compared += ids.len();
                        assert_eq!(
                            Ok(ids),
                            sent,
                            "{shape:?} step {step}: {owner} packs its section {mask:#x} \
                             for {rank} in another order"
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

    #[test]
    fn a_column_for_a_diagonal_rides_a_relay_that_does_not_border_it() {
        // A 4 × 4 balancing torus, tiles of 3 × 3 columns. Rank 9's tile
        // (rows 6–8, columns 3–5) lends column (7, 4) to its N neighbour,
        // rank 5, and (7, 3) to its W neighbour, rank 8: rank 8 now needs
        // rank 5's (7, 4), one torus step away on both axes. The frame
        // goes one axis at a time, through rank 4 — whose columns lie two
        // away from it. Rank 8 sees every particle of the column once,
        // rank 4 none, and rank 4's frames carry it: its ghost bytes are
        // the same run's without the second loan, plus that one section.
        let mut cfg = RunConfig::from_p_m_density(16, 3, 0.2);
        cfg.dlb = true;
        let lend = |col, to| DlbDecision {
            col: Col::new(7, col),
            from: 9,
            to,
        };
        let far = Col::new(7, 4);
        let placed = super::super::testkit::placed(&cfg);
        let shape = DomainShape::SquarePillar;
        let unplanned = crate::launch::LaunchPlan::unplanned(shape, &cfg, &placed.column_work());
        let run = |decisions: Vec<DlbDecision>| {
            let plan = crate::launch::LaunchPlan {
                decisions,
                ..unplanned.clone()
            };
            let start = crate::engine::Start::fresh(shape, &cfg, &placed, &plan);
            pcdlb_mp::World::new(cfg.p).run(|comm| {
                let mut pe = PeState::new(comm.rank(), &cfg, &start);
                // (The launch adopted the ghosts; one shell exchange
                // brings them again, over the wire.)
                pe.exchange(comm, Exchange::Shells);
                let ids = |slabs: &Slabs| -> Vec<u64> {
                    let slab = slabs.get(&far);
                    slab.into_iter()
                        .flat_map(|s| s.particles())
                        .map(|p| p.id)
                        .collect()
                };
                let homes = pe.topology.homes().iter();
                let sees_far = homes.map(|h| h.col).any(|c| c == far);
                (
                    ids(&pe.columns),
                    ids(&pe.ghosts),
                    sees_far,
                    pe.wire_bytes(),
                    comm.stats(),
                )
            })
        };
        let relayed = run(vec![lend(4, 5), lend(3, 8)]);
        let direct = run(vec![lend(4, 5)]);
        let column = &relayed[5].0;
        assert!(column.len() > 3, "{} particles in the column", column.len());
        assert!(relayed[8].0.is_empty() && relayed[9].0.is_empty());
        let mut seen = relayed[8].1.clone();
        seen.sort_unstable();
        let mut held = column.clone();
        held.sort_unstable();
        assert_eq!(seen, held, "the diagonal sees each particle once");
        assert!(
            !relayed[4].2 && relayed[4].1.is_empty(),
            "the relay holds no ghost of it"
        );
        // Rank 8 borders the column through (7, 3) only.
        assert!(direct[8].1.is_empty());
        // The one section rank 4 passes on: mask (rank 8 from rank 5),
        // origin, count, ids and positions.
        let mut section = StepFrame::default();
        let torus = super::super::topology::RankTorus([4, 4, 1]);
        let mask = dest_bit(torus.offset(5, 8).expect("a diagonal neighbour"));
        let mut shell = DeltaChannel::default();
        (shell.scratch).extend(column.iter().map(|&id| (id, Vec3::ZERO)));
        shell.pack_into(&mut section, mask, 5);
        let took = section.encode_into(&mut Vec::new());
        let size = (took.ghosts - 1) as u64; // (the list's count byte)
        assert_eq!(relayed[4].3.ghost, direct[4].3.ghost + size);
        assert_eq!(relayed[4].3.relayed, direct[4].3.relayed + size);
        assert_eq!(relayed[4].4.bytes_sent, direct[4].4.bytes_sent + size);
        for (rank, (.., wire, stats)) in relayed.iter().enumerate() {
            assert_eq!(
                wire.total(),
                stats.bytes_sent,
                "rank {rank}: every frame byte is counted"
            );
        }
    }

    /// Run `cfg.steps` steps of the cube on the engine, one PE per rank,
    /// after `setup` has had its way with each launched PE; `look`
    /// reads each PE when the steps are done.
    fn drive_cube<T: Send>(
        cfg: &RunConfig,
        initial: &[Particle],
        setup: impl Fn(&mut PeState) + Sync,
        look: impl Fn(&PeState, &mut Comm) -> T + Sync,
    ) -> Vec<(Vec<StepRecord>, T)> {
        let shape = DomainShape::Cube;
        let initial = Placed::new(cfg, initial);
        let none = crate::launch::LaunchPlan::unplanned(shape, cfg, &[]);
        let start = crate::engine::Start::fresh(shape, cfg, &initial, &none);
        pcdlb_mp::World::new(cfg.p)
            .with_cost_model(crate::decomp::cost_model(shape, cfg))
            .run(|comm| {
                let mut pe = PeState::new(comm.rank(), cfg, &start);
                setup(&mut pe);
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
        // one frame per hop and step fewer, and a shorter modelled step
        // for it.
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
                |pe, comm| (comm.stats().msgs_sent, pe.topology.hops().len() as u64),
            )
        };
        let (one, two) = (run(false), run(true));
        for ((_, (sent_one, hops)), (_, (sent_two, _))) in one.iter().zip(&two) {
            assert_eq!(sent_two - sent_one, hops * cfg.steps);
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
}
