//! The cell-redistribution protocol (paper Sec. 2.3).
//!
//! The paper spends three dependent message rounds on a balancing step:
//! execution times out, the decision out, then cells and ghosts. Here the
//! decision is taken a step ahead, so it needs no round of its own. On a
//! balancing step each PE:
//!
//! 1. **decides at the top of the step**, before anything is sent, on the
//!    loads it already holds: its own last-step execution time and its 8
//!    neighbours' as they arrived with the *previous* step's first frames
//!    — each brought up to date by the transfers still **in flight** (see
//!    below);
//! 2. offers a cell to the fastest neighbour that may take one and stay
//!    below it,
//! 3. the cell being the one of those the paper's Case 1–3 rules allow
//!    that leaves the two loads closest;
//! 4. ships the decision, with the work that moves with it, **inside its
//!    first frame** beside its load — the frame every step sends anyway —
//!    and every PE applies its neighbourhood's decisions in `from` order,
//!    so everyone's ownership view stays consistent. The decisions a
//!    step's first frames bring are applied at the top of the next
//!    rebuild step, and the moved column's particles travel in that
//!    step's first frames from the giver, as migrants: a balancing step
//!    sends what a plain domain-decomposition step sends — one exchange
//!    where every rank a column can reach is a neighbour of every rank
//!    that can hold it (a torus side of 3), two rounds elsewhere —
//!    whatever the balancer decided.
//!
//! **In flight.** A neighbour's load in hand was measured by the force
//! pass *before* the step that announced it, so a transfer that lands
//! later is not in it yet. Deciding on such a load would
//! make every over-loaded PE offer twice before it saw its first offer
//! land. A decision therefore travels as a [`Transfer`]: the decision
//! plus the **work** that changes hands with the column — its full-shell
//! candidate-pair count, which does not depend on who owns the column,
//! expressed as a share of the giver's load — and every PE that hears it
//! books that work off the giver's load and onto the receiver's before it
//! next decides ([`book_in_flight`]). A decision is applied at the top of
//! the next rebuild step, after the force pass that measured every load
//! in hand, so on that step each PE books what landed onto its own load —
//! and announces it so in the step's first frames — and onto its
//! neighbours' loads in hand; from the next rebuild step on the loads in
//! hand have seen it, and nothing is booked twice. A PE that does not
//! border the giver does not hear a transfer into its neighbour, and
//! misses it for that one decision. With nothing in flight the
//! decision is, call for call, the one the paper's order would have
//! produced from the same loads.
//!
//! Each PE now holds its own estimate of a neighbour's load, so two
//! neighbours may each take the other for the faster one — something one
//! shared set of loads ruled out. Here that is harmless: the two
//! decisions concern different columns, each legal against the ownership
//! view both read, and any set of per-PE decisions equals some sequence
//! of them (the property test below draws every PE its own loads).
//!
//! **The launch plan is steps 2–3, iterated on exact loads.** A run that
//! *starts* unbalanced would spend its first (m − 1)² steps shedding one
//! column per PE and step, so before a rank thread exists the launch
//! (`pcdlb_sim::launch_plan`) runs this module's own rule to its floor on
//! the initial condition: under the work model a column's load is an
//! exact function of the cell occupancies, so every PE's load under any
//! ownership is known without a force pass; each iteration lets every PE
//! [`DlbProtocol::choose`] on those loads — each candidate weighed by the
//! exact work of its column on the receiver — applies the decisions to every
//! view, re-sums the loads from the map, and stops at the first iteration
//! that does not lower the largest load (which is not applied). Nothing
//! is *in flight* in a plan: an iteration's loads are summed from the map
//! its predecessor left — there is no stale load to bring up to date, so
//! no [`Transfer`], no [`book_in_flight`], and the decision is call for
//! call the run's rule on the same loads. Every planned transfer is a
//! `choose` result on a map every earlier one has been folded into —
//! Cases 1–3, the permanent wall and the checker's search cover a plan as
//! they cover a run — and the run itself starts as before: it announces
//! the loads its first force pass measured (they are the plan's, to the
//! bit) and step 1 decides on them.
//!
//! The decision rule, with `PE(i, j)` deciding and `PE_fast` the receiver
//! under consideration (paper's exact cases):
//!
//! - **Case 1** — `PE_fast ∈ {NW, N, W}` = `(i−1,j−1), (i−1,j), (i,j−1)`:
//!   send one of its *own movable* cells it still owns, else nothing
//!   (weightless, the one geometrically closest to `PE_fast`'s tile).
//! - **Case 2** — `PE_fast ∈ {NE, SW}` = `(i−1,j+1), (i+1,j−1)`: there is
//!   no cell that may move this way; send nothing.
//! - **Case 3** — `PE_fast ∈ {E, S, SE}` = `(i,j+1), (i+1,j), (i+1,j+1)`:
//!   if it currently holds cells whose *home* is `PE_fast` (previously
//!   received from there), return one; else nothing.
//!
//! Cells therefore only ever sit at their home PE or one step in the
//! NW / N / W direction from it — the invariant that, together with the
//! permanent-cell wall, preserves the 8-neighbour communication pattern
//! (property-tested below against arbitrary protocol executions).
//!
//! **Steps 2 and 3 deviate from the paper's wording, three times.** The
//! paper finds the one fastest PE among self and the 8 and only then asks
//! whether a cell may move that way; when it may not (Case 2, or Case 1 /
//! 3 with nothing left to send) the PE sends nothing, however overloaded
//! it is and however idle its other neighbours are. On an exact work
//! model the fastest PE is the same one for hundreds of steps, so a hot PE
//! whose fastest neighbour lies south-east stops shedding load for good.
//! [`DlbProtocol::choose`] instead walks the neighbours in ascending
//! `(load, rank)` and offers a cell to the first that may take one *and
//! stay below the giver*: a candidate `d` whose load — as it weighs on the
//! receiver — would lift the receiver to or above the giver (`to_load +
//! weight(d) >= own_load`) is passed over like one that may take nothing.
//! That second part is the rule for indivisible loads (move a token only
//! if that lowers the local difference); the paper moves a cell whatever
//! it weighs. The third is which cell: the paper says only "send one of
//! its movable cells", and `choose` sends, of the ones that pass, the one
//! that leaves the pair most even — Demirel & Sbalzarini's token choice —
//! so a PE whose closest column is too heavy for the gap still gives a
//! lighter one. Ties fall to the paper's order (closest to the receiver's
//! tile, then `(cx, cy)`; Case 3 in tile order), the order
//! [`DlbProtocol::decide`] picks by. Where nothing weighs — every weight 0
//! — every candidate evens the pair alike and `choose` is a strict
//! superset of the paper's rule: its first candidate *is* the paper's
//! fastest PE ([`DlbProtocol::fastest_pe`] is that first candidate), so
//! whenever the paper's rule transfers, the identical transfer comes out.
//! With weights it also drops the paper's transfers that would leave the
//! receiver at or above the giver, and with them the hand-back churn: on
//! exact loads, after a move `i → j` of weight `w` with `load_j + w <
//! load_i`, handing the column back would need `load_i − w + w < load_j +
//! w`, which the move itself ruled out — whichever column moved. Cases
//! 1–3, their directions and the permanent wall are untouched — `choose`
//! picks among the columns `decide` picks from, and the gate only removes
//! transfers. Deciding a step ahead changes none of this: these are
//! statements about `choose` on *whatever* loads and weights it is given,
//! and only its inputs changed — the ownership view it reads is the one
//! every earlier decision has already been folded into.
//!
//! Determinism notes (the paper ran on wall clocks, we also run on an
//! exact work model where ties are real): a neighbour is a candidate
//! only if it is strictly faster than the deciding PE — by more than
//! `min_relative_gain` of the PE's own load when that hysteresis is set
//! — and equal loads are ordered by rank, so a perfectly balanced system
//! performs no transfers. Both tests are applied per receiver exactly as
//! the paper's rule applied them to the fastest PE; the walk stops at the
//! first receiver that fails, every later one being slower still.

use std::fmt;

use pcdlb_domain::{Col, OwnershipMap, PillarLayout};

use crate::permanent::{is_movable, movable_columns};

/// Message tags of the square-pillar SPMD step, in one place so the
/// simulator (`pcdlb-sim`) and the static protocol verifier
/// (`pcdlb-check`) agree on the wire protocol by construction.
///
/// Tags 4 and 16–18 are matched point-to-point; 10–15 and 19–22
/// are *collective* tags, which `pcdlb_mp::collectives` moves into a
/// disjoint namespace by setting
/// [`pcdlb_mp::collectives::COLLECTIVE_BIT`] on the wire, so a collective
/// tag can never collide with a point-to-point tag even if the numbers
/// overlap.
pub mod tags {
    /// Re-tile (p2p): the particles of every column one rank hands
    /// another when the run re-tiles, in one frame per (old owner, new
    /// owner) pair — the two need not be torus neighbours.
    pub const RETILE_XFER: u64 = 4;
    /// The step message: a neighbourhood exchange travels the rank torus
    /// one axis at a time — x, then y, then z — a rank sending one frame
    /// under this one tag to each distinct rank one step away along the
    /// axis (on a 2-D torus 4 a round, 2 at a side of 2; on the cube 6,
    /// 3 at a side of 2) and relaying, in its later stages, the sections
    /// the earlier ones brought for ranks further on, so a diagonal
    /// neighbour's share rides the face frames. Each rebuild step (every
    /// step without a Verlet skin) has two rounds: round 1 carries
    /// boundary-crossing migrants (the particles of a column whose
    /// transfer from the sender landed at the top of the step among them)
    /// plus, in a balancing run, every rank's last-step load and (on DLB
    /// steps) the decision it took at the top of the step; round 2
    /// carries the boundary-shell ghosts, their ids as LEB128 gaps. A
    /// presence byte inside the frame says which kinds of section travel;
    /// per-(src,dst,tag) FIFO ordering keeps the rounds matched. A
    /// decomposition whose neighbour sets stay closed two cells out under
    /// every ownership it can reach — one whose ownership never changes,
    /// or the balancing 3 × 3 torus — sends both in one exchange instead,
    /// with the loads and the decisions. No column travels in a message of
    /// its own. Between the rebuilds of a skin epoch a step sends one
    /// exchange: the positions-only ghost refresh.
    pub const STEP_FRAME: u64 = 16;
    /// Phase 7 (collective): kinetic-energy gather to rank 0.
    pub const KE_GATHER: u64 = 10;
    /// Phase 7 (collective): thermostat scale factor broadcast from rank 0.
    pub const KE_BCAST: u64 = 11;
    /// Phase 8 (collective): per-step stats gather to rank 0.
    pub const STATS: u64 = 12;
    /// End of run (collective): final particle snapshot gather to rank 0.
    pub const SNAPSHOT: u64 = 13;
    /// Periodic (collective): distributed checkpoint gather to rank 0 —
    /// every owned column's particles plus the ownership view, so rank 0
    /// can assemble a restartable `pcdlb-sim` checkpoint.
    pub const CKPT_GATHER: u64 = 14;
    /// Periodic (collective): runtime invariant sentinel gather to rank 0
    /// — per-rank particle counts and owned columns, checked for global
    /// conservation and exact ownership partition.
    pub const SENTINEL: u64 = 15;
    /// Resize barrier (p2p, elastic worlds): READY announcement to the
    /// barrier root after a relaunched generation comes up on the remapped
    /// torus.
    pub const RESIZE_READY: u64 = 17;
    /// Resize barrier (p2p, elastic worlds): root GO release once every
    /// rank of the new generation has reported READY.
    pub const RESIZE_GO: u64 = 18;
    /// Skin epochs (collective): per-rank max predicted squared travel
    /// gathered to rank 0 at the top of each step (skin > 0 runs only).
    pub const REBUILD_GATHER: u64 = 19;
    /// Skin epochs (collective): rank 0's global max broadcast back, from
    /// which every rank derives the identical rebuild-now decision.
    pub const REBUILD_BCAST: u64 = 20;
    /// Re-tile check (collective): each rank's owned columns with their
    /// work and particle counts, gathered to rank 0 at a check step of a
    /// re-tiling run.
    pub const RETILE_GATHER: u64 = 21;
    /// Re-tile check (collective): rank 0's decision — keep the tiling, or
    /// the new one with its planned ownership — broadcast back.
    pub const RETILE_BCAST: u64 = 22;

    /// The communication phases of one simulated step, in program order.
    /// Every blocking receive in `pcdlb-sim`'s pillar step belongs to
    /// exactly one phase; phases are separated by the program structure
    /// (no message sent in one phase is received in another).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum CommPhase {
        /// Skin-epoch rebuild decision (collective): gather each rank's
        /// max predicted travel, broadcast the global max. Only present
        /// when `skin > 0`; runs before any particle state mutates so the
        /// decision is a pure function of the pre-step state.
        Rebuild,
        /// Re-tile check (collective, check steps of a re-tiling run
        /// only): gather the work map to rank 0, broadcast its decision.
        /// Runs before any particle state mutates, on the work the last
        /// force pass measured.
        RetileCheck,
        /// Round-1 coalesced exchange, staged along the rank torus one hop
        /// at a time (a diagonal neighbour's items relayed through a face
        /// neighbour): boundary-crossing particle migration, with the
        /// balancer's traffic riding along — last-step loads (the former
        /// standalone load exchange) and, on DLB steps, the decisions (the
        /// former decision broadcast).
        Migrate,
        /// Re-tile column movement (decision-driven, after round 1 of a
        /// re-tile step): one frame per (old owner, new owner) pair, which
        /// need not be neighbours.
        Retile,
        /// Ghost-layer exchange, staged along the rank torus one hop at a
        /// time like `Migrate`.
        Ghost,
        /// Thermostat gather + broadcast (collectives).
        Thermostat,
        /// Stats gather (collective).
        Stats,
        /// Final snapshot gather (collective).
        Snapshot,
        /// Periodic distributed checkpoint gather (collective).
        Checkpoint,
        /// Periodic invariant-sentinel gather (collective). Not part of
        /// the baseline step schedule: present only when the sentinel is
        /// enabled, and always downstream of `Checkpoint`.
        Sentinel,
        /// Elastic resize barrier (p2p, elastic worlds only): runs once at
        /// the start of each relaunched generation, before the first step
        /// on the remapped torus. Never part of the per-step schedule; its
        /// receives are deadline-bounded.
        Resize,
    }

    /// One row of [`TAG_TABLE`]: a tag, its name, the phase that uses it,
    /// and whether it travels through the collective namespace.
    #[derive(Debug, Clone, Copy)]
    pub struct TagSpec {
        /// The wire tag value (pre-namespacing for collectives).
        pub tag: u64,
        /// Human-readable name for verifier reports.
        pub name: &'static str,
        /// The step phase this tag belongs to.
        pub phase: CommPhase,
        /// True when the tag is used through `pcdlb_mp::collectives`.
        pub collective: bool,
    }

    /// Every tag of the pillar-simulator protocol. The static verifier
    /// checks this table for uniqueness per namespace and builds the
    /// per-phase message-flow graph from it.
    pub const TAG_TABLE: &[TagSpec] = &[
        // STEP_FRAME is the one neighbourhood point-to-point tag of the
        // steady-state step: round 1 in the Migrate phase, round 2 in the
        // Ghost phase. The table records the first phase that uses it;
        // FIFO per (src, dst, tag) keeps the rounds unambiguous.
        TagSpec {
            tag: STEP_FRAME,
            name: "STEP_FRAME",
            phase: CommPhase::Migrate,
            collective: false,
        },
        TagSpec {
            tag: KE_GATHER,
            name: "KE_GATHER",
            phase: CommPhase::Thermostat,
            collective: true,
        },
        TagSpec {
            tag: KE_BCAST,
            name: "KE_BCAST",
            phase: CommPhase::Thermostat,
            collective: true,
        },
        TagSpec {
            tag: STATS,
            name: "STATS",
            phase: CommPhase::Stats,
            collective: true,
        },
        TagSpec {
            tag: SNAPSHOT,
            name: "SNAPSHOT",
            phase: CommPhase::Snapshot,
            collective: true,
        },
        TagSpec {
            tag: CKPT_GATHER,
            name: "CKPT_GATHER",
            phase: CommPhase::Checkpoint,
            collective: true,
        },
        TagSpec {
            tag: SENTINEL,
            name: "SENTINEL",
            phase: CommPhase::Sentinel,
            collective: true,
        },
        TagSpec {
            tag: RESIZE_READY,
            name: "RESIZE_READY",
            phase: CommPhase::Resize,
            collective: false,
        },
        TagSpec {
            tag: RESIZE_GO,
            name: "RESIZE_GO",
            phase: CommPhase::Resize,
            collective: false,
        },
        TagSpec {
            tag: REBUILD_GATHER,
            name: "REBUILD_GATHER",
            phase: CommPhase::Rebuild,
            collective: true,
        },
        TagSpec {
            tag: REBUILD_BCAST,
            name: "REBUILD_BCAST",
            phase: CommPhase::Rebuild,
            collective: true,
        },
        TagSpec {
            tag: RETILE_GATHER,
            name: "RETILE_GATHER",
            phase: CommPhase::RetileCheck,
            collective: true,
        },
        TagSpec {
            tag: RETILE_BCAST,
            name: "RETILE_BCAST",
            phase: CommPhase::RetileCheck,
            collective: true,
        },
        TagSpec {
            tag: RETILE_XFER,
            name: "RETILE_XFER",
            phase: CommPhase::Retile,
            collective: false,
        },
    ];
}

/// Why a [`DlbDecision`] is illegal against an ownership view. Produced
/// by [`DlbProtocol::validate`]; each variant carries the offending
/// decision plus the fact that contradicts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The sender does not currently own the column.
    NotOwner {
        /// The offending decision.
        decision: DlbDecision,
        /// Who actually owns the column.
        actual_owner: usize,
    },
    /// The column is a permanent cell and may never move.
    PermanentCell {
        /// The offending decision.
        decision: DlbDecision,
    },
    /// Case 1 send of a column whose home is not the sender (forwarding a
    /// borrowed cell instead of returning it).
    ForeignForward {
        /// The offending decision.
        decision: DlbDecision,
        /// The column's home rank.
        home: usize,
    },
    /// Case 3 return addressed to a PE that is not the column's home.
    WrongReturn {
        /// The offending decision.
        decision: DlbDecision,
        /// The column's home rank.
        home: usize,
    },
    /// The transfer direction is not one of the six legal tile deltas.
    IllegalDirection {
        /// The offending decision.
        decision: DlbDecision,
        /// The (folded) tile delta from sender to receiver.
        delta: (i64, i64),
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotOwner {
                decision,
                actual_owner,
            } => write!(
                f,
                "{decision:?}: sender {} does not own the column (owner {actual_owner})",
                decision.from
            ),
            Self::PermanentCell { decision } => {
                write!(f, "{decision:?}: column is permanent")
            }
            Self::ForeignForward { decision, home } => write!(
                f,
                "{decision:?}: Case 1 send of a column whose home is {home}, not the sender"
            ),
            Self::WrongReturn { decision, home } => write!(
                f,
                "{decision:?}: Case 3 return to {}, but the column's home is {home}",
                decision.to
            ),
            Self::IllegalDirection { decision, delta } => {
                write!(f, "{decision:?}: illegal transfer direction {delta:?}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One ownership transfer: `from` hands `col` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlbDecision {
    /// The column changing hands.
    pub col: Col,
    /// Current owner (the deciding PE).
    pub from: usize,
    /// Receiving PE (the fastest in `from`'s neighbourhood).
    pub to: usize,
}

// Column, giver, receiver: 32 bytes.
pcdlb_mp::wire_struct!(DlbDecision { col, from, to });

/// A decision as it travels and is remembered: with the work that moves
/// with it (see the module docs, *in flight*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// What changes hands.
    pub decision: DlbDecision,
    /// The load that goes with it, as a share of the giver's own load —
    /// in whatever unit the run balances (modelled or measured seconds).
    pub work: f64,
}

// The decision, then the work: 40 bytes.
pcdlb_mp::wire_struct!(Transfer { decision, work });

/// Bring the neighbour `loads` in hand up to date with the transfers
/// applied since they were measured: each one's work comes off the
/// giver's load and goes onto the receiver's, wherever this PE holds a
/// load for that rank. `on_receiver(from, to)` is what a unit of the
/// giver's load weighs on the receiver — 1 on a homogeneous machine, the
/// ratio of the two processor speeds where the run balances time.
pub fn book_in_flight(
    loads: &mut [(usize, f64)],
    in_flight: &[Transfer],
    on_receiver: impl Fn(usize, usize) -> f64,
) {
    for t in in_flight {
        let DlbDecision { from, to, .. } = t.decision;
        for (rank, load) in loads.iter_mut() {
            if *rank == from {
                *load -= t.work;
            } else if *rank == to {
                *load += t.work * on_receiver(from, to);
            }
        }
    }
}

/// The per-PE decision logic. Stateless apart from the layout — all
/// dynamic state lives in the [`OwnershipMap`] each PE maintains.
#[derive(Debug, Clone, Copy)]
pub struct DlbProtocol {
    layout: PillarLayout,
    rank: usize,
    /// Minimum relative load advantage of the fastest PE for a transfer to
    /// fire: `(own − fastest)/own > min_relative_gain`. The paper uses 0
    /// (any measured difference triggers); a small hysteresis can be
    /// configured to suppress noise-driven churn on wall-clock loads.
    min_relative_gain: f64,
}

impl DlbProtocol {
    /// Protocol instance for `rank` over `layout`. Requires a torus side
    /// of at least 3 so the 8 directional neighbour roles are distinct.
    pub fn new(layout: PillarLayout, rank: usize) -> Self {
        assert!(
            layout.torus().rows() >= 3,
            "DLB needs a torus side of at least 3 (paper uses ≥ 4); got {}",
            layout.torus().rows()
        );
        assert!(rank < layout.num_ranks());
        Self {
            layout,
            rank,
            min_relative_gain: 0.0,
        }
    }

    /// Set the hysteresis threshold (see field docs).
    pub fn with_min_relative_gain(mut self, g: f64) -> Self {
        assert!(g >= 0.0);
        self.min_relative_gain = g;
        self
    }

    /// This PE's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The layout.
    pub fn layout(&self) -> &PillarLayout {
        &self.layout
    }

    /// The neighbours a cell may be offered to, fastest first: ascending
    /// `(load, rank)`, cut off at the first one that is not strictly
    /// faster than this PE by more than `min_relative_gain` of its own
    /// load — every later neighbour is slower still. Allocation-free:
    /// the (at most 8) neighbours are sorted in a stack array.
    fn faster_neighbors(
        &self,
        own_load: f64,
        neighbor_loads: &[(usize, f64)],
    ) -> impl Iterator<Item = (usize, f64)> {
        let n = neighbor_loads.len();
        assert!(n <= 8, "a PE has at most 8 distinct neighbours, got {n}");
        let mut sorted = [(0.0, 0); 8];
        for (slot, &(r, l)) in sorted.iter_mut().zip(neighbor_loads) {
            debug_assert_ne!(r, self.rank, "neighbour list must not contain self");
            *slot = (l, r);
        }
        sorted[..n].sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let gate = self.min_relative_gain;
        // Self wins ties; with a non-zero threshold the relative
        // advantage must exceed it, otherwise the load stays here.
        sorted
            .into_iter()
            .take(n)
            .take_while(move |&(load, _)| {
                load < own_load && (gate == 0.0 || (own_load - load) / own_load > gate)
            })
            .map(|(load, rank)| (rank, load))
    }

    /// Find the fastest PE among this PE and its neighbours (the paper's
    /// step 2). `neighbor_loads` carries `(rank, last-step load)` for the
    /// distinct 8-neighbours. Self wins ties; among neighbours the lowest
    /// rank wins ties — fully deterministic. This is the first candidate
    /// [`Self::choose`] considers.
    pub fn fastest_pe(&self, own_load: f64, neighbor_loads: &[(usize, f64)]) -> usize {
        self.faster_neighbors(own_load, neighbor_loads)
            .next()
            .map_or(self.rank, |(rank, _)| rank)
    }

    /// Steps 2–3 as this crate runs them: offer the column that best evens
    /// the pair to the fastest neighbour that may take one without ending
    /// up at or above this PE. Walks the neighbours that are faster than
    /// this PE (by more than `min_relative_gain`) from the fastest up; for
    /// each it weighs every column Cases 1–3 let it send there (see
    /// [`Self::decide`]), drops those that would lift the receiver to or
    /// above the giver — `to_load + weight(d) >= own_load`, where
    /// `weight(d)` is the load `d` moves, as it weighs on the receiver —
    /// and returns, from the first neighbour with any left, the one that
    /// leaves the two loads closest: the smallest `|(own_load − w) −
    /// (to_load + w)|`, ties in the paper's order of preference. `None`
    /// when no faster neighbour may legally receive anything that light.
    /// With every weight 0 the gate passes every candidate, every
    /// candidate evens the pair alike, and the pick is [`Self::decide`]'s.
    pub fn choose(
        &self,
        own_load: f64,
        neighbor_loads: &[(usize, f64)],
        ownership: &OwnershipMap,
        weight: impl Fn(&DlbDecision) -> f64,
    ) -> Option<DlbDecision> {
        self.faster_neighbors(own_load, neighbor_loads)
            .find_map(|(to, to_load)| {
                let spread = |w: f64| ((own_load - w) - (to_load + w)).abs();
                self.legal(ownership, to)
                    .map(|(d, order)| (d, weight(&d), order))
                    .filter(|&(_, w, _)| to_load + w < own_load)
                    .min_by(|a, b| spread(a.1).total_cmp(&spread(b.1)).then(a.2.cmp(&b.2)))
            })
            .map(|(d, ..)| d)
    }

    /// Decide what to send to `fastest` (paper step 3, Cases 1–3), given
    /// this PE's current ownership view: of the columns the case allows,
    /// the first in the paper's order of preference — Case 1 (`fastest`
    /// to the NW, N or W) one of this PE's own movable columns it still
    /// owns, the one geometrically closest to the receiver's tile (then
    /// lowest `(cx, cy)`), so domains stay compact as in the paper's Fig.
    /// 4; Case 2 (NE, SW) none; Case 3 (E, S, SE) the first column in
    /// `fastest`'s tile order that this PE holds (the paper says only
    /// "returns one of these cells"). Returns `None` when nothing may move
    /// (including when this PE is itself the fastest).
    pub fn decide(&self, ownership: &OwnershipMap, fastest: usize) -> Option<DlbDecision> {
        if fastest == self.rank {
            return None;
        }
        self.legal(ownership, fastest)
            .min_by_key(|&(_, order)| order)
            .map(|(d, _)| d)
    }

    /// Every transfer to `to` the paper's Cases 1–3 allow on `ownership`
    /// (see [`Self::decide`]), each with its place in the paper's order of
    /// preference: lower first, the first of equals in iteration order.
    fn legal<'a>(
        &'a self,
        ownership: &'a OwnershipMap,
        to: usize,
    ) -> impl Iterator<Item = (DlbDecision, (usize, usize, usize))> + 'a {
        let l = &self.layout;
        let case = match l.tile_delta(self.rank, to) {
            (-1, -1) | (-1, 0) | (0, -1) => 1,
            (-1, 1) | (1, -1) => 2,
            (0, 1) | (1, 0) | (1, 1) => 3,
            other => panic!(
                "rank {} asked to send toward non-neighbour {to} (tile delta {other:?})",
                self.rank
            ),
        };
        let own = (case == 1).then(|| movable_columns(l, self.rank));
        let lent = (case == 3).then(|| l.tile_columns(to));
        let own = own
            .into_iter()
            .flatten()
            .map(move |c| (c, (l.distance_to_tile(c, to), c.cx, c.cy)));
        let lent = lent.into_iter().flatten().map(|c| (c, (0, 0, 0)));
        own.chain(lent)
            .filter(move |&(c, _)| ownership.owner_of(c) == self.rank)
            .map(move |(col, order)| {
                let d = DlbDecision {
                    col,
                    from: self.rank,
                    to,
                };
                (d, order)
            })
    }

    /// Validate a decision against an ownership view: correct owner, a
    /// legal direction, movable cell, and (for Case 1) cell is the
    /// sender's own. Used by the simulator in debug builds, the property
    /// tests, and the `pcdlb-check` permanent-cell invariant search.
    pub fn validate(
        layout: &PillarLayout,
        ownership: &OwnershipMap,
        d: &DlbDecision,
    ) -> Result<(), ProtocolError> {
        if ownership.owner_of(d.col) != d.from {
            return Err(ProtocolError::NotOwner {
                decision: *d,
                actual_owner: ownership.owner_of(d.col),
            });
        }
        if !is_movable(layout, d.col) {
            return Err(ProtocolError::PermanentCell { decision: *d });
        }
        let home = layout.home_rank(d.col);
        let delta = layout.tile_delta(d.from, d.to);
        match delta {
            (-1, -1) | (-1, 0) | (0, -1) => {
                if home != d.from {
                    return Err(ProtocolError::ForeignForward { decision: *d, home });
                }
            }
            (0, 1) | (1, 0) | (1, 1) => {
                if home != d.to {
                    return Err(ProtocolError::WrongReturn { decision: *d, home });
                }
            }
            other => {
                return Err(ProtocolError::IllegalDirection {
                    decision: *d,
                    delta: other,
                })
            }
        }
        Ok(())
    }

    /// Apply a (validated) decision to an ownership view.
    pub fn apply(ownership: &mut OwnershipMap, d: &DlbDecision) {
        ownership.transfer(d.col, d.from, d.to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup(p: usize, m: usize) -> (PillarLayout, OwnershipMap) {
        let l = PillarLayout::from_p_and_m(p, m);
        let om = OwnershipMap::initial(l);
        (l, om)
    }

    /// Rank at torus coordinates, for readable tests.
    fn at(l: &PillarLayout, i: i64, j: i64) -> usize {
        l.torus().rank_wrapped(i, j)
    }

    #[test]
    fn fastest_prefers_self_on_ties() {
        let (l, _) = setup(9, 3);
        let p = DlbProtocol::new(l, 4);
        let nbrs: Vec<(usize, f64)> = l
            .torus()
            .distinct_neighbors8(4)
            .into_iter()
            .map(|r| (r, 1.0))
            .collect();
        assert_eq!(
            p.fastest_pe(1.0, &nbrs),
            4,
            "all equal → no transfer target"
        );
    }

    #[test]
    fn fastest_picks_strictly_smaller_load() {
        let (l, _) = setup(9, 3);
        let p = DlbProtocol::new(l, 4);
        let mut nbrs: Vec<(usize, f64)> = l
            .torus()
            .distinct_neighbors8(4)
            .into_iter()
            .map(|r| (r, 1.0))
            .collect();
        nbrs[3].1 = 0.5;
        assert_eq!(p.fastest_pe(1.0, &nbrs), nbrs[3].0);
    }

    #[test]
    fn fastest_tie_between_neighbors_goes_to_lowest_rank() {
        let (l, _) = setup(9, 3);
        let p = DlbProtocol::new(l, 4);
        let nbrs: Vec<(usize, f64)> = l
            .torus()
            .distinct_neighbors8(4)
            .into_iter()
            .map(|r| (r, 0.5))
            .collect();
        let min_rank = *nbrs.iter().map(|(r, _)| r).min().unwrap();
        assert_eq!(p.fastest_pe(1.0, &nbrs), min_rank);
    }

    #[test]
    fn hysteresis_suppresses_small_gains() {
        let (l, _) = setup(9, 3);
        let p = DlbProtocol::new(l, 4).with_min_relative_gain(0.10);
        let nbrs = vec![(0usize, 0.95)];
        assert_eq!(p.fastest_pe(1.0, &nbrs), 4, "5% gain under 10% threshold");
        let nbrs = vec![(0usize, 0.85)];
        assert_eq!(p.fastest_pe(1.0, &nbrs), 0, "15% gain over threshold");
    }

    /// `(rank, load)` for the distinct 8-neighbours of `me`, every load
    /// `base` except the listed overrides.
    fn loads_around(
        l: &PillarLayout,
        me: usize,
        base: f64,
        set: &[(usize, f64)],
    ) -> Vec<(usize, f64)> {
        l.torus()
            .distinct_neighbors8(me)
            .into_iter()
            .map(|r| {
                let load = set.iter().find(|&&(q, _)| q == r).map_or(base, |&(_, x)| x);
                (r, load)
            })
            .collect()
    }

    /// Test oracle: step 2 as the paper words it — the fastest PE among
    /// self and the 8 is found first, and only then is it asked whether a
    /// cell may move that way. Written out independently of
    /// `faster_neighbors` so the two can be compared.
    fn paper_rule(
        p: &DlbProtocol,
        own_load: f64,
        nbrs: &[(usize, f64)],
        om: &OwnershipMap,
    ) -> Option<DlbDecision> {
        let (mut best_rank, mut best_load) = (p.rank, own_load);
        for &(r, l) in nbrs {
            if l < best_load || (l == best_load && best_rank != p.rank && r < best_rank) {
                (best_rank, best_load) = (r, l);
            }
        }
        let held_back = p.min_relative_gain > 0.0
            && (own_load <= 0.0 || (own_load - best_load) / own_load <= p.min_relative_gain);
        if best_rank == p.rank || held_back {
            return None;
        }
        assert_eq!(p.fastest_pe(own_load, nbrs), best_rank);
        p.decide(om, best_rank)
    }

    /// Every decision weighs nothing: the gate passes every candidate.
    fn weightless(_: &DlbDecision) -> f64 {
        0.0
    }

    /// Test oracle: the neighbours faster than this PE (by more than the
    /// gain), fastest first. Written out independently of
    /// `faster_neighbors` so the two can be compared.
    fn walk(p: &DlbProtocol, own_load: f64, nbrs: &[(usize, f64)]) -> impl Iterator<Item = usize> {
        let mut sorted = nbrs.to_vec();
        sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let gain = p.min_relative_gain;
        sorted
            .into_iter()
            .take_while(move |&(_, l)| {
                l < own_load && (gain == 0.0 || (own_load - l) / own_load > gain)
            })
            .map(|(r, _)| r)
    }

    /// Test oracle: `choose` before it read any weight — the first
    /// `decide` result along the walk.
    fn weight_blind(
        p: &DlbProtocol,
        own_load: f64,
        nbrs: &[(usize, f64)],
        om: &OwnershipMap,
    ) -> Option<DlbDecision> {
        walk(p, own_load, nbrs).find_map(|r| p.decide(om, r))
    }

    #[test]
    fn choose_offers_to_the_second_fastest_when_the_fastest_may_take_nothing() {
        // The state cluster_dlb_p9 sticks in: 3×3, m = 4, nothing lent
        // yet, and the fastest PE lies in a direction that can receive
        // nothing — SE (Case 3, nothing to return) or NE (Case 2).
        let (l, om) = setup(9, 4);
        let me = at(&l, 1, 1);
        let nw = at(&l, 0, 0);
        let p = DlbProtocol::new(l, me);
        for blocked in [at(&l, 2, 2), at(&l, 0, 2)] {
            let nbrs = loads_around(&l, me, 8.0, &[(blocked, 1.0), (nw, 3.0)]);
            assert_eq!(p.fastest_pe(10.0, &nbrs), blocked);
            assert_eq!(paper_rule(&p, 10.0, &nbrs, &om), None);
            let d = p
                .choose(10.0, &nbrs, &om, weightless)
                .expect("NW may take a cell");
            assert_eq!(
                d,
                DlbDecision {
                    col: l.tile_origin(me),
                    from: me,
                    to: nw
                }
            );
            DlbProtocol::validate(&l, &om, &d).unwrap();
        }
    }

    #[test]
    fn choose_sends_nothing_without_a_sufficiently_faster_receiver() {
        let (l, om) = setup(9, 4);
        let me = at(&l, 1, 1);
        let (nw, se) = (at(&l, 0, 0), at(&l, 2, 2));
        // Balanced: no transfer, with or without hysteresis.
        let flat = loads_around(&l, me, 1.0, &[]);
        assert_eq!(
            DlbProtocol::new(l, me).choose(1.0, &flat, &om, weightless),
            None
        );
        let p = DlbProtocol::new(l, me).with_min_relative_gain(0.10);
        assert_eq!(p.choose(1.0, &flat, &om, weightless), None);
        // Every faster neighbour inside the threshold: nothing moves.
        let near = loads_around(&l, me, 1.2, &[(se, 0.92), (nw, 0.95)]);
        assert_eq!(p.choose(1.0, &near, &om, weightless), None);
        // The walk stops at the first neighbour that fails the gate: SE
        // clears it but may take nothing, NW is the next candidate and
        // does not clear it.
        let mixed = loads_around(&l, me, 1.2, &[(se, 0.5), (nw, 0.95)]);
        assert_eq!(p.choose(1.0, &mixed, &om, weightless), None);
        // … and NW is taken as soon as it clears the gate too.
        let clear = loads_around(&l, me, 1.2, &[(se, 0.5), (nw, 0.85)]);
        assert_eq!(
            p.choose(1.0, &clear, &om, weightless).map(|d| d.to),
            Some(nw)
        );
    }

    #[test]
    fn choose_prefers_the_fastest_receiver_whenever_it_may_take_a_cell() {
        let (l, mut om) = setup(9, 4);
        let me = at(&l, 1, 1);
        let (n, se) = (at(&l, 0, 1), at(&l, 2, 2));
        let p = DlbProtocol::new(l, me);
        // SE lends `me` a column, so SE — still the fastest — has one to
        // take back: Case 3 wins over the slower Case 1 receiver.
        let lend = DlbProtocol::new(l, se).decide(&om, me).expect("movable");
        DlbProtocol::apply(&mut om, &lend);
        let nbrs = loads_around(&l, me, 8.0, &[(se, 1.0), (n, 2.0)]);
        let d = p
            .choose(10.0, &nbrs, &om, weightless)
            .expect("returns SE's column");
        assert_eq!((d.col, d.to), (lend.col, se));
        assert_eq!(paper_rule(&p, 10.0, &nbrs, &om), Some(d));
    }

    #[test]
    fn choose_skips_a_receiver_the_column_would_lift_to_the_giver() {
        // NW and N may both take one of `me`'s own movable columns. A
        // candidate is skipped when what it would receive leaves it at or
        // above `me`, and the walk goes on to the next one.
        let (l, om) = setup(9, 4);
        let me = at(&l, 1, 1);
        let (nw, n) = (at(&l, 0, 0), at(&l, 0, 1));
        let p = DlbProtocol::new(l, me);
        let nbrs = loads_around(&l, me, 12.0, &[(nw, 3.0), (n, 4.0)]);
        let to = |d: Option<DlbDecision>| d.map(|d| d.to);
        assert_eq!(to(p.choose(10.0, &nbrs, &om, |_| 6.5)), Some(nw));
        // 3 + 7 is not below 10: equal is gated too, and so is N's 4 + 7.
        assert_eq!(p.choose(10.0, &nbrs, &om, |_| 7.0), None);
        // What NW would get is heavier than what N would: N takes it.
        let by_receiver = |d: &DlbDecision| if d.to == nw { 8.0 } else { 1.0 };
        let d = p
            .choose(10.0, &nbrs, &om, by_receiver)
            .expect("N stays below");
        assert_eq!(Some(d), p.decide(&om, n));
        // Weightless, the fastest receiver that may take a cell wins.
        assert_eq!(to(p.choose(10.0, &nbrs, &om, weightless)), Some(nw));
    }

    #[test]
    fn choose_sends_the_column_that_evens_the_pair() {
        // 3×3, m = 4: `me` may lend NW any of its nine movable columns.
        // The paper's pick, the one closest to NW's tile, is too heavy for
        // the gap; of the ones that pass, the one that leaves the two
        // loads closest goes, wherever it stands.
        let (l, om) = setup(9, 4);
        let me = at(&l, 1, 1);
        let nw = at(&l, 0, 0);
        let p = DlbProtocol::new(l, me);
        let nbrs = loads_around(&l, me, 12.0, &[(nw, 2.0)]);
        let closest = p.decide(&om, nw).expect("movable columns").col;
        assert_eq!(closest, l.tile_origin(me));
        let o = closest;
        let (light, even, far) = (
            Col::new(o.cx, o.cy + 1),
            Col::new(o.cx + 1, o.cy + 1),
            Col::new(o.cx + 2, o.cy + 2),
        );
        let weights = |d: &DlbDecision| match d.col {
            c if c == closest => 9.0,
            c if c == light => 1.0,
            c if c == even || c == far => 4.0,
            _ => 2.0,
        };
        // 2 + 9 is not below 10; 4 leaves 6 and 6.
        let d = p
            .choose(10.0, &nbrs, &om, weights)
            .expect("a lighter one passes");
        assert_eq!((d.col, d.to), (even, nw));
        DlbProtocol::validate(&l, &om, &d).unwrap();
        // `far` evens the pair alike, one column further from NW's tile:
        // ties go the paper's way.
        assert!(l.distance_to_tile(even, nw) < l.distance_to_tile(far, nw));
        // Weightless, the paper's pick.
        assert_eq!(
            p.choose(10.0, &nbrs, &om, weightless).map(|d| d.col),
            Some(closest)
        );
        // Nothing passes: nothing moves.
        assert_eq!(p.choose(10.0, &nbrs, &om, |_| 8.0), None);
    }

    #[test]
    fn in_flight_work_is_booked_off_the_giver_and_onto_the_receiver() {
        let transfer = |from, to, work| Transfer {
            decision: DlbDecision {
                col: Col::new(0, 0),
                from,
                to,
            },
            work,
        };
        let mut loads = [(1, 10.0), (2, 4.0), (5, 7.0)];
        // Rank 3 and rank 8 are not in hand: their halves are dropped.
        let in_flight = [
            transfer(1, 2, 1.5),
            transfer(5, 3, 2.0),
            transfer(8, 1, 0.25),
        ];
        book_in_flight(&mut loads, &in_flight, |_, _| 1.0);
        assert_eq!(loads, [(1, 8.75), (2, 5.5), (5, 5.0)]);
        // Where the run balances time, the receiver's share is rescaled:
        // here it runs at half the giver's speed.
        let mut loads = [(1, 10.0), (2, 4.0)];
        book_in_flight(&mut loads, &in_flight[..1], |from, to| {
            assert_eq!((from, to), (1, 2));
            2.0
        });
        assert_eq!(loads, [(1, 8.5), (2, 7.0)]);
        // Nothing in flight: the loads are the loads.
        let before = loads;
        book_in_flight(&mut loads, &[], |_, _| unreachable!());
        assert_eq!(loads, before);
    }

    #[test]
    fn case1_sends_own_movable_toward_nw() {
        let (l, om) = setup(9, 3);
        let me = at(&l, 1, 1);
        let nw = at(&l, 0, 0);
        let p = DlbProtocol::new(l, me);
        let d = p.decide(&om, nw).expect("has movable cells");
        assert_eq!(d.from, me);
        assert_eq!(d.to, nw);
        // Closest movable cell to the NW tile is the tile's NW corner.
        assert_eq!(d.col, l.tile_origin(me));
        DlbProtocol::validate(&l, &om, &d).unwrap();
    }

    #[test]
    fn case1_exhausts_movable_cells() {
        let (l, mut om) = setup(9, 2); // m = 2 → one movable cell per tile
        let me = at(&l, 1, 1);
        let n = at(&l, 0, 1);
        let p = DlbProtocol::new(l, me);
        let d = p.decide(&om, n).expect("one movable cell");
        DlbProtocol::apply(&mut om, &d);
        assert!(p.decide(&om, n).is_none(), "movable cell already lent out");
    }

    #[test]
    fn case2_directions_send_nothing() {
        let (l, om) = setup(9, 4);
        let me = at(&l, 1, 1);
        let p = DlbProtocol::new(l, me);
        assert!(p.decide(&om, at(&l, 0, 2)).is_none(), "NE");
        assert!(p.decide(&om, at(&l, 2, 0)).is_none(), "SW");
    }

    #[test]
    fn case3_returns_only_held_foreign_cells() {
        let (l, mut om) = setup(9, 3);
        let me = at(&l, 1, 1);
        let south = at(&l, 2, 1);
        let p_me = DlbProtocol::new(l, me);
        // Initially nothing to return.
        assert!(p_me.decide(&om, south).is_none());
        // South lends us one of its movable cells (we are its N neighbour).
        let p_south = DlbProtocol::new(l, south);
        let lend = p_south.decide(&om, me).expect("south has movable cells");
        DlbProtocol::apply(&mut om, &lend);
        // Now we can return exactly that cell.
        let ret = p_me.decide(&om, south).expect("can return");
        assert_eq!(ret.col, lend.col);
        DlbProtocol::validate(&l, &om, &ret).unwrap();
        DlbProtocol::apply(&mut om, &ret);
        assert!(p_me.decide(&om, south).is_none(), "ledger empty again");
    }

    #[test]
    fn self_fastest_means_no_decision() {
        let (l, om) = setup(9, 3);
        let p = DlbProtocol::new(l, 4);
        assert!(p.decide(&om, 4).is_none());
    }

    #[test]
    fn validate_rejects_permanent_cell_transfer() {
        let (l, om) = setup(9, 3);
        let me = at(&l, 1, 1);
        let o = l.tile_origin(me);
        let d = DlbDecision {
            col: pcdlb_domain::Col::new(o.cx + 2, o.cy), // permanent row
            from: me,
            to: at(&l, 0, 0),
        };
        let err = DlbProtocol::validate(&l, &om, &d).unwrap_err();
        assert_eq!(err, ProtocolError::PermanentCell { decision: d });
        assert!(err.to_string().contains("permanent"));
    }

    #[test]
    fn validate_rejects_forwarding_foreign_cells() {
        // A cell received from the south may not be passed on to the NW.
        let (l, mut om) = setup(9, 3);
        let me = at(&l, 1, 1);
        let south = at(&l, 2, 1);
        let p_south = DlbProtocol::new(l, south);
        let lend = p_south.decide(&om, me).unwrap();
        DlbProtocol::apply(&mut om, &lend);
        let d = DlbDecision {
            col: lend.col,
            from: me,
            to: at(&l, 0, 0),
        };
        let err = DlbProtocol::validate(&l, &om, &d).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::ForeignForward {
                decision: d,
                home: south
            }
        );
        assert!(err.to_string().contains("Case 1"));
    }

    #[test]
    fn validate_rejects_non_owned_and_non_neighbour_transfers() {
        let (l, om) = setup(9, 3);
        let me = at(&l, 1, 1);
        let nw = at(&l, 0, 0);
        // A movable column of the NW tile, which `me` does not own.
        let foreign = DlbDecision {
            col: l.tile_origin(nw),
            from: me,
            to: nw,
        };
        assert!(matches!(
            DlbProtocol::validate(&l, &om, &foreign).unwrap_err(),
            ProtocolError::NotOwner { actual_owner, .. } if actual_owner == nw
        ));
        // A legal column aimed past the 8-neighbourhood (delta (-1, -1) is
        // legal; (2, 0) folded on a 3-torus is (-1, 0)... use a 4-torus).
        let l4 = PillarLayout::from_p_and_m(16, 3);
        let om4 = OwnershipMap::initial(l4);
        let me4 = l4.torus().rank_wrapped(1, 1);
        let far = l4.torus().rank_wrapped(3, 1); // delta (2, 0) → folded 2
        let d = DlbDecision {
            col: l4.tile_origin(me4),
            from: me4,
            to: far,
        };
        assert!(matches!(
            DlbProtocol::validate(&l4, &om4, &d).unwrap_err(),
            ProtocolError::IllegalDirection { delta: (2, 0), .. }
        ));
    }

    #[test]
    fn tag_table_is_unique_per_namespace() {
        use std::collections::BTreeSet;
        for collective in [false, true] {
            let vals: Vec<u64> = tags::TAG_TABLE
                .iter()
                .filter(|s| s.collective == collective)
                .map(|s| s.tag)
                .collect();
            let set: BTreeSet<u64> = vals.iter().copied().collect();
            assert_eq!(
                vals.len(),
                set.len(),
                "duplicate tag (collective={collective})"
            );
        }
    }

    #[test]
    fn max_accumulation_matches_dlb_limit() {
        // Fig. 4's extreme: a PE receives every movable cell of its S, E
        // and SE neighbours, ending at m² + 3(m−1)² columns.
        let m = 3;
        let (l, mut om) = setup(9, m);
        let me = at(&l, 1, 1);
        let donors = [at(&l, 2, 1), at(&l, 1, 2), at(&l, 2, 2)];
        loop {
            let mut any = false;
            for &d in &donors {
                let p = DlbProtocol::new(l, d);
                if let Some(dec) = p.decide(&om, me) {
                    DlbProtocol::validate(&l, &om, &dec).unwrap();
                    DlbProtocol::apply(&mut om, &dec);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        assert_eq!(om.num_owned(me), m * m + 3 * (m - 1) * (m - 1));
        om.check_all().unwrap();
    }

    #[test]
    #[should_panic(expected = "torus side of at least 3")]
    fn tiny_torus_rejected() {
        let l = PillarLayout::from_p_and_m(4, 2);
        let _ = DlbProtocol::new(l, 0);
    }

    /// The central safety theorem, property-tested: under ANY sequence of
    /// decisions `choose` makes from arbitrary load patterns and arbitrary
    /// column weights, the ownership map keeps all structural invariants —
    /// tile distance, 8-neighbour preservation and ghost containment. On
    /// the way, every call is checked against the oracles: weightless,
    /// `choose` is the weight-blind walk, and wherever the paper's literal
    /// rule transfers it makes the same transfer; weighed, what it chooses
    /// is a legal transfer that leaves its receiver below this PE (so a
    /// faster one: no weight is negative), to the first receiver of the
    /// walk that any legal transfer passing the gate goes to, and no other
    /// such transfer to that receiver leaves the pair more even — every
    /// legal transfer found by brute force over the grid (`validate`), not
    /// by the rule's own candidate list; it goes to the weight-blind
    /// choice's receiver whenever that choice passes the gate. Loads are
    /// drawn from `levels` equally spaced values in `[0, 1)`, so a small
    /// `levels` makes ties (and sub-threshold gains) common; column
    /// weights from the same values times `heavy` (0: every column
    /// weightless, the weight-blind run). Every PE draws its *own* view of
    /// everyone's load: deciding a step ahead, two PEs need not agree on a
    /// third one's (or each other's) load.
    fn arbitrary_protocol_run(
        l: PillarLayout,
        loads_seed: u64,
        steps: usize,
        levels: u32,
        gain: f64,
        heavy: u32,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut om = OwnershipMap::initial(l);
        let mut rng = StdRng::seed_from_u64(loads_seed);
        let nranks = l.num_ranks();
        let grid = l.grid();
        let mut level = move || f64::from(rng.gen_range(0..levels)) / f64::from(levels);
        for _ in 0..steps {
            let weights: Vec<f64> = grid.iter().map(|_| level() * f64::from(heavy)).collect();
            let weight = |d: &DlbDecision| weights[grid.index(d.col)];
            // Every PE decides from the same ownership view (the simulator
            // keeps views consistent: each decision reaches the whole
            // neighbourhood) but from its own view of the loads.
            let decisions: Vec<DlbDecision> = (0..nranks)
                .filter_map(|r| {
                    let loads: Vec<f64> = (0..nranks).map(|_| level()).collect();
                    let proto = DlbProtocol::new(l, r).with_min_relative_gain(gain);
                    let nbrs: Vec<(usize, f64)> = l
                        .torus()
                        .distinct_neighbors8(r)
                        .into_iter()
                        .map(|q| (q, loads[q]))
                        .collect();
                    let blind = proto.choose(loads[r], &nbrs, &om, weightless);
                    assert_eq!(
                        blind,
                        weight_blind(&proto, loads[r], &nbrs, &om),
                        "rank {r}"
                    );
                    // Superset of the paper's rule where nothing weighs:
                    // wherever that transfers, this makes the identical
                    // transfer.
                    if let Some(d) = paper_rule(&proto, loads[r], &nbrs, &om) {
                        assert_eq!(blind, Some(d), "rank {r}");
                    }
                    let chosen = proto.choose(loads[r], &nbrs, &om, weight);
                    let spread = |d: &DlbDecision| {
                        let w = weight(d);
                        ((loads[r] - w) - (loads[d.to] + w)).abs()
                    };
                    // Every legal transfer to `to` the gate lets through.
                    let passing = |to: usize| -> Vec<DlbDecision> {
                        let to_each = grid.iter().map(|col| DlbDecision { col, from: r, to });
                        to_each
                            .filter(|d| DlbProtocol::validate(&l, &om, d).is_ok())
                            .filter(|d| loads[to] + weight(d) < loads[r])
                            .collect()
                    };
                    let receiver =
                        walk(&proto, loads[r], &nbrs).find(|&to| !passing(to).is_empty());
                    assert_eq!(chosen.map(|d| d.to), receiver, "rank {r}");
                    if let Some(d) = chosen {
                        let overshoots = loads[d.to] + weight(&d) >= loads[r];
                        assert!(!overshoots, "rank {r}: {d:?} overshoots");
                        DlbProtocol::validate(&l, &om, &d).unwrap();
                        let best = passing(d.to)
                            .iter()
                            .map(spread)
                            .fold(f64::INFINITY, f64::min);
                        assert_eq!(spread(&d), best, "rank {r}: {d:?} is not the most even");
                    }
                    if let Some(d) = blind.filter(|d| loads[d.to] + weight(d) < loads[r]) {
                        let to = chosen.map(|c| c.to);
                        assert_eq!(to, Some(d.to), "rank {r}: the gate dropped a light one");
                    }
                    chosen
                })
                .collect();
            for d in &decisions {
                DlbProtocol::validate(&l, &om, d).unwrap();
                DlbProtocol::apply(&mut om, d);
            }
            om.check_all().unwrap();
            // Accumulation never exceeds the DLB limit: a PE's own tile
            // plus the movable blocks of its S, E and SE tiles.
            for r in 0..nranks {
                assert!(
                    om.num_owned(r) <= crate::permanent::max_columns(&l, r),
                    "rank {r} exceeded the DLB limit on {l:?}"
                );
            }
        }
    }

    /// On exact loads — every PE's load the sum of the integer weights of
    /// the columns it owns, so nothing rounds — a transfer `choose` makes,
    /// whichever of the legal columns it picked, can never go back once it
    /// is applied: the gate that let `i → j` through (`load_j + w <
    /// load_i`) is the negation of the one `j → i` would need afterwards
    /// (`load_i − w + w < load_j + w`), so the way back is shut to every
    /// rule that gates, not just not chosen. Between the checks the state
    /// moves on as a run's does, every PE's decision of a step at once.
    fn gated_transfers_stay(l: PillarLayout, seed: u64, steps: usize, gain: f64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let (grid, nranks) = (l.grid(), l.num_ranks());
        let work: Vec<f64> = grid
            .iter()
            .map(|_| f64::from(rng.gen_range(0..64u32)))
            .collect();
        let weight = |d: &DlbDecision| work[grid.index(d.col)];
        let loads_of = |om: &OwnershipMap| {
            let mut loads = vec![0.0; nranks];
            for col in grid.iter() {
                loads[om.owner_of(col)] += work[grid.index(col)];
            }
            loads
        };
        let choice = |om: &OwnershipMap, loads: &[f64], r: usize| {
            let nbrs: Vec<(usize, f64)> = l
                .torus()
                .distinct_neighbors8(r)
                .into_iter()
                .map(|q| (q, loads[q]))
                .collect();
            let proto = DlbProtocol::new(l, r).with_min_relative_gain(gain);
            proto.choose(loads[r], &nbrs, om, weight)
        };
        let mut om = OwnershipMap::initial(l);
        for _ in 0..steps {
            let loads = loads_of(&om);
            let decisions: Vec<DlbDecision> =
                (0..nranks).filter_map(|r| choice(&om, &loads, r)).collect();
            for d in &decisions {
                let mut once = om.clone();
                DlbProtocol::apply(&mut once, d);
                let after = loads_of(&once);
                let back = choice(&once, &after, d.to);
                assert_ne!(back.map(|b| (b.col, b.to)), Some((d.col, d.from)), "{d:?}");
                let undo = DlbDecision {
                    col: d.col,
                    from: d.to,
                    to: d.from,
                };
                if DlbProtocol::validate(&l, &once, &undo).is_ok() {
                    let passes = after[d.from] + weight(&undo) < after[d.to];
                    assert!(!passes, "{d:?} could go back through the gate");
                }
            }
            for d in &decisions {
                DlbProtocol::apply(&mut om, d);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_invariants_hold_under_any_execution(
            p_side in 3usize..6,
            m in 1usize..5,
            seed in any::<u64>(),
            levels_log2 in 1u32..21,
            gain_tenths in 0u32..4,
            heavy in 0u32..3,
        ) {
            let gain = f64::from(gain_tenths) / 10.0;
            let even = PillarLayout::from_p_and_m(p_side * p_side, m);
            arbitrary_protocol_run(even, seed, 30, 1 << levels_log2, gain, heavy);
        }

        /// The same theorem where no two tiles need be alike: random cuts
        /// on both axes, width-1 tiles (all wall) and shifted origins
        /// included. Nothing in this file knows the difference.
        #[test]
        fn prop_invariants_hold_under_any_execution_on_any_rectilinear_tiling(
            p_side in 3usize..6,
            spare in 0usize..9,
            seed in any::<u64>(),
            levels_log2 in 1u32..21,
            gain_tenths in 0u32..4,
            heavy in 0u32..3,
        ) {
            let gain = f64::from(gain_tenths) / 10.0;
            let uneven = PillarLayout::arbitrary(p_side, spare, seed);
            arbitrary_protocol_run(uneven, seed, 30, 1 << levels_log2, gain, heavy);
        }

        #[test]
        fn prop_a_gated_transfer_is_never_handed_back(
            p_side in 3usize..6,
            m in 2usize..5,
            spare in 0usize..9,
            uneven in any::<bool>(),
            seed in any::<u64>(),
            gain_tenths in 0u32..3,
        ) {
            let gain = f64::from(gain_tenths) / 10.0;
            let l = if uneven {
                PillarLayout::arbitrary(p_side, spare, seed)
            } else {
                PillarLayout::from_p_and_m(p_side * p_side, m)
            };
            gated_transfers_stay(l, seed, 20, gain);
        }
    }

    #[test]
    fn long_execution_on_paper_configuration() {
        // P = 36, m = 4 (the paper's Fig. 5(a) layout), 200 steps of
        // random load churn, weightless and weighed.
        let paper = PillarLayout::from_p_and_m(36, 4);
        arbitrary_protocol_run(paper, 20260705, 200, 1 << 20, 0.0, 0);
        arbitrary_protocol_run(paper, 20260705, 200, 1 << 20, 0.0, 1);
    }
}
