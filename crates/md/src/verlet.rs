//! Verlet-list *replay* machinery shared by every simulator path.
//!
//! A [`VerletList`] is a flat CSR-style recording of one canonical
//! half-shell force walk over a frozen cell binning: the walk is run
//! once at a *rebuild step* with the widened reach `r_c + skin`,
//! recording — in exact walk order — the candidate pairs of every
//! kernel block (intra-cell triangle or cell-vs-cell pair block) that
//! fell within the reach, and a table of [`Segment`]s over them. Until
//! the next rebuild, every step *replays* the recording against fresh
//! positions: the same pairs, the same floating-point expressions in the
//! same per-slot order — which makes the replayed force sums **bitwise
//! identical** to re-running the full walk over the frozen binning,
//! while touching only `~ρ·4π(r_c+skin)³/3` candidates per particle
//! instead of the whole 27-cell neighbourhood.
//!
//! A segment is one intra triangle, one external-pull sweep over a home
//! cell's slots (recorded only while a pull is on), or a *run* of
//! consecutive pair blocks that replay alike: same class codes, bucket
//! and periodic shift. Such a run merges into one segment, its pairs
//! already contiguous and in walk order, so merging changes neither the
//! pairs nor the order they are replayed in. Shifts live in a small table
//! on the list (at most the 27 periodic images), which keeps a segment at
//! 24 bytes.
//!
//! Work accounting stays in the paper's full-shell directed-check
//! units: each segment caches its build-time candidate count (`|a|·|b|`
//! summed over its pair blocks, occupancy-based and constant while the
//! binning is frozen), so `pair_checks` totals are identical whether a
//! step walked or replayed — DLB decisions and the figures are
//! numerically unchanged.
//!
//! Segments carry two caller-defined *class codes* (`ca`, `cb` — the
//! pillar decomposition's owned / ghost) and a work *bucket*; replay
//! takes a policy closure mapping a segment to the sides it stores,
//! which is how the parallel engines store only the owned sides of a
//! block. A pair segment's potential is credited ½ per stored side, so a
//! pair a ghost shares is booked half here and half on the ghost's
//! owner.
//!
//! A rebuild records into room reserved once, at the walk's candidate
//! bound ([`VerletList::reserve`]): the branch-free sweep writes every
//! candidate at the cursor, so the bound — `Σ|a|·|b|` over the pair
//! blocks plus `Σ n(n−1)/2` over the intra triangles — is the most it
//! can touch, and the recording itself never reallocates the pair
//! storage.

use std::ops::Range;

use crate::force::{ExternalPull, PairKernel, WorkCounters};
use crate::soa::SoaField;
use crate::vec3::Vec3;
use crate::Particle;

/// What a [`Segment`] replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegKind {
    /// Triangular intra-cell loop (both reactions, unweighted energy).
    Intra,
    /// One home cell against one (shifted) neighbour cell.
    Pair,
    /// External-pull sweep over one home cell's slots.
    Pull,
}

/// One recorded kernel call of the frozen walk, or — for `Pair` — a run
/// of consecutive pair blocks with the same class codes, bucket and
/// shift. 24 bytes.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Segment kind.
    pub kind: SegKind,
    /// Caller-defined class code of the home side.
    pub ca: u8,
    /// Caller-defined class code of the neighbour side (pair segments).
    pub cb: u8,
    /// Index into the list's shift table: the periodic-image shift
    /// applied to the neighbour side (`Pair` segments).
    shift: u8,
    /// Index into the replay's `WorkCounters` slice.
    pub bucket: u32,
    /// Range into the pair list (`Intra`/`Pair`) or the flat slot range
    /// (`Pull`).
    start: u32,
    end: u32,
    /// Build-time candidate count in full-shell units: `|a|·|b|` summed
    /// over a pair segment's blocks, `n·(n−1)` for intra segments.
    occ: u64,
}

/// Per-segment replay decision returned by the policy closure: which
/// sides of a `Pair` segment store forces. Intra and pull segments run
/// whatever the flags say.
#[derive(Debug, Clone, Copy)]
pub struct SegAction {
    /// Store forces on the home side (`Pair` segments).
    pub sa: bool,
    /// Store forces on the neighbour side (`Pair` segments).
    pub sb: bool,
}

impl SegAction {
    /// The fused single-pass action: store both sides, full credit —
    /// what the serial simulator uses, and the step engine for a segment
    /// with no ghost side.
    pub fn fused() -> Self {
        Self { sa: true, sb: true }
    }
}

/// A recorded half-shell walk: flat pair list plus the segment table.
/// Buffers are retained across [`VerletList::clear`], so steady-state
/// rebuilds are allocation-free once capacity has grown.
#[derive(Debug, Clone, Default)]
pub struct VerletList {
    /// Pair storage. Only `pairs[..n_pairs]` is recorded; the tail is
    /// room the recorder has already written through and keeps, so a
    /// rebuild neither grows nor re-initialises it.
    pairs: Vec<(u32, u32)>,
    /// The recorder's cursor: number of recorded pairs.
    n_pairs: usize,
    /// The candidate bound of the recording under way, once
    /// [`VerletList::reserve`] has made room for it.
    reserved: Option<usize>,
    segs: Vec<Segment>,
    /// The distinct neighbour-side shifts, in order of first use;
    /// `Segment::shift` indexes it.
    shifts: Vec<Vec3>,
}

impl VerletList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the recording and its reservation, retaining capacity.
    pub fn clear(&mut self) {
        self.n_pairs = 0;
        self.reserved = None;
        self.segs.clear();
        self.shifts.clear();
    }

    /// Make room, once, for a recording whose blocks scan at most
    /// `bound` candidates — [`VerletList::pair_candidates`] and
    /// [`VerletList::intra_candidates`] summed over the walk's blocks,
    /// everything the branch-free sweeps can write — so recording them
    /// never reallocates the pair storage. Only capacity is taken: the
    /// sweeps initialise what they reach, which on a gas is a fraction
    /// of the bound. Call after [`VerletList::clear`]; the recording then
    /// stays inside the bound (debug builds assert it). A list recorded
    /// without a reservation grows its storage block by block instead.
    pub fn reserve(&mut self, bound: usize) {
        self.pairs.reserve(bound.saturating_sub(self.pairs.len()));
        self.reserved = Some(bound);
    }

    /// Candidates a pair block of `a` against `b` slots scans: `a·b`.
    pub fn pair_candidates(a: usize, b: usize) -> usize {
        a * b
    }

    /// Candidates the intra triangle over `n` slots scans: `n(n−1)/2`.
    pub fn intra_candidates(n: usize) -> usize {
        n * n.saturating_sub(1) / 2
    }

    /// Total recorded (half) pairs.
    pub fn num_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Room for `candidates` more pairs behind the cursor, as a slice
    /// the sweep can write every candidate into. The storage is extended
    /// only past its high-water mark, once per block — never per
    /// candidate — and inside a reservation without reallocating.
    fn room(&mut self, candidates: usize) -> &mut [(u32, u32)] {
        let end = self.n_pairs + candidates;
        debug_assert!(
            self.reserved.is_none_or(|bound| end <= bound),
            "a block writes past the reserved candidate bound"
        );
        if self.pairs.len() < end {
            self.pairs.resize(end, (0, 0));
        }
        &mut self.pairs[self.n_pairs..end]
    }

    /// Number of recorded segments.
    pub fn num_segments(&self) -> usize {
        self.segs.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Record one cell-vs-cell block: slots `a` against slots `b`
    /// displaced by `shift`, keeping candidates with
    /// `|b + shift − a|² < reach2`. Candidates are scanned in the
    /// kernel's `(i ∈ a) × (j ∈ b)` order, which replay preserves.
    /// No-op when either side is empty (the walk skips empty cells).
    #[allow(clippy::too_many_arguments)]
    pub fn record_pair(
        &mut self,
        soa: &SoaField,
        a: Range<usize>,
        b: Range<usize>,
        shift: Vec3,
        reach2: f64,
        ca: u8,
        cb: u8,
        bucket: u32,
    ) {
        if a.is_empty() || b.is_empty() {
            return;
        }
        // Branch-free sweep: every candidate is written at the cursor
        // and the cursor advances by the comparison result, so a miss is
        // simply overwritten by the next candidate. Same pairs, same
        // order as testing first and pushing the hits.
        let start = self.n_pairs;
        let out = self.room(Self::pair_candidates(a.len(), b.len()));
        let (xs, ys, zs) = (&soa.xs[b.clone()], &soa.ys[b.clone()], &soa.zs[b.clone()]);
        let mut at = 0usize;
        for i in a.clone() {
            let (xi, yi, zi) = (soa.xs[i], soa.ys[i], soa.zs[i]);
            for (k, j) in b.clone().enumerate() {
                let rx = (xs[k] + shift.x) - xi;
                let ry = (ys[k] + shift.y) - yi;
                let rz = (zs[k] + shift.z) - zi;
                out[at] = (i as u32, j as u32);
                at += (rx * rx + ry * ry + rz * rz < reach2) as usize;
            }
        }
        self.n_pairs += at;
        let shift = self.shift_index(shift);
        let (end, occ) = (self.n_pairs as u32, a.len() as u64 * b.len() as u64);
        // A block replaying like the segment before it extends that
        // segment: its pairs already follow on in the pair list.
        match self.segs.last_mut() {
            Some(last)
                if last.kind == SegKind::Pair
                    && (last.ca, last.cb, last.bucket, last.shift) == (ca, cb, bucket, shift) =>
            {
                debug_assert_eq!(last.end as usize, start);
                last.end = end;
                last.occ += occ;
            }
            _ => self.segs.push(Segment {
                kind: SegKind::Pair,
                ca,
                cb,
                shift,
                bucket,
                start: start as u32,
                end,
                occ,
            }),
        }
    }

    /// `shift`'s index in the shift table, bit for bit (a `-0.0` is not
    /// a `0.0`: replay must add exactly what the walk adds).
    fn shift_index(&mut self, shift: Vec3) -> u8 {
        let bits = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        let at = match self.shifts.iter().position(|s| bits(s) == bits(&shift)) {
            Some(at) => at,
            None => {
                self.shifts.push(shift);
                self.shifts.len() - 1
            }
        };
        u8::try_from(at).expect("more than 256 distinct periodic shifts")
    }

    /// Record one intra-cell triangle over slots `r` (candidates with
    /// any pair distance `< reach2`, scanned in `i < j` order). No-op
    /// for cells with fewer than two slots.
    pub fn record_intra(
        &mut self,
        soa: &SoaField,
        r: Range<usize>,
        reach2: f64,
        ca: u8,
        bucket: u32,
    ) {
        if r.len() < 2 {
            return;
        }
        let start = self.n_pairs;
        let out = self.room(Self::intra_candidates(r.len()));
        let mut at = 0usize;
        for i in r.clone() {
            for j in (i + 1)..r.end {
                let rx = soa.xs[j] - soa.xs[i];
                let ry = soa.ys[j] - soa.ys[i];
                let rz = soa.zs[j] - soa.zs[i];
                out[at] = (i as u32, j as u32);
                at += (rx * rx + ry * ry + rz * rz < reach2) as usize;
            }
        }
        self.n_pairs += at;
        let n = r.len() as u64;
        self.segs.push(Segment {
            kind: SegKind::Intra,
            ca,
            cb: ca,
            shift: 0,
            bucket,
            start: start as u32,
            end: self.n_pairs as u32,
            occ: n * (n - 1),
        });
    }

    /// Record one sweep of `pull` over slots `r`. No-op for empty ranges
    /// and for a pull that is off (`ExternalPull::None`): a list records
    /// the pull it was built with, and a caller that changes the pull
    /// rebuilds the list.
    pub fn record_pull(&mut self, pull: &ExternalPull, r: Range<usize>, ca: u8, bucket: u32) {
        if r.is_empty() || pull.is_none() {
            return;
        }
        self.segs.push(Segment {
            kind: SegKind::Pull,
            ca,
            cb: ca,
            shift: 0,
            bucket,
            start: r.start as u32,
            end: r.end as u32,
            occ: 0,
        });
    }

    /// Replay the recording against the positions in `soa`, accumulating
    /// forces there and work into `work[segment.bucket]`. The `policy`
    /// closure decides, per segment, which sides store (`None` skips the
    /// segment entirely); a pair segment books `pair_checks`,
    /// `interacting_pairs` and ½ of its potential per stored side, as
    /// [`PairKernel::accumulate_pair`] does. Passing
    /// `|_| Some(SegAction::fused())` reproduces the fused walk.
    pub fn replay<F>(
        &self,
        kernel: &PairKernel,
        pull: &ExternalPull,
        box_len: f64,
        soa: &mut SoaField,
        mut policy: F,
        work: &mut [WorkCounters],
    ) where
        F: FnMut(&Segment) -> Option<SegAction>,
    {
        let rcut2 = kernel.lj.rcut2();
        for seg in &self.segs {
            let Some(act) = policy(seg) else { continue };
            let w = &mut work[seg.bucket as usize];
            match seg.kind {
                SegKind::Intra => {
                    w.pair_checks += seg.occ;
                    for &(i, j) in &self.pairs[seg.start as usize..seg.end as usize] {
                        let (i, j) = (i as usize, j as usize);
                        let rx = soa.xs[j] - soa.xs[i];
                        let ry = soa.ys[j] - soa.ys[i];
                        let rz = soa.zs[j] - soa.zs[i];
                        let r2 = rx * rx + ry * ry + rz * rz;
                        if r2 < rcut2 {
                            w.interacting_pairs += 2;
                            let for_r = kernel.lj.force_over_r_r2(r2);
                            let (fx, fy, fz) = (rx * for_r, ry * for_r, rz * for_r);
                            soa.fxs[i] -= fx;
                            soa.fys[i] -= fy;
                            soa.fzs[i] -= fz;
                            soa.fxs[j] += fx;
                            soa.fys[j] += fy;
                            soa.fzs[j] += fz;
                            w.potential += kernel.lj.energy_r2(r2);
                        }
                    }
                }
                SegKind::Pair => {
                    if !act.sa && !act.sb {
                        continue;
                    }
                    let stores = act.sa as u64 + act.sb as u64;
                    w.pair_checks += stores * seg.occ;
                    self.replay_pair_block(kernel, seg, act, stores, rcut2, soa, w);
                }
                SegKind::Pull => {
                    if pull.is_none() {
                        continue;
                    }
                    for slot in seg.start as usize..seg.end as usize {
                        let p = soa.pos(slot);
                        soa.add_force(slot, pull.force(p, box_len));
                        w.potential += pull.energy(p, box_len);
                    }
                }
            }
        }
    }

    /// The pair-segment inner loop: recorded candidates in walk order,
    /// the AoS kernel's exact expressions.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn replay_pair_block(
        &self,
        kernel: &PairKernel,
        seg: &Segment,
        act: SegAction,
        stores: u64,
        rcut2: f64,
        soa: &mut SoaField,
        w: &mut WorkCounters,
    ) {
        let ps = &self.pairs[seg.start as usize..seg.end as usize];
        let shift = self.shifts[seg.shift as usize];
        let (sx, sy, sz) = (shift.x, shift.y, shift.z);
        for &(i, j) in ps {
            let (i, j) = (i as usize, j as usize);
            let rx = (soa.xs[j] + sx) - soa.xs[i];
            let ry = (soa.ys[j] + sy) - soa.ys[i];
            let rz = (soa.zs[j] + sz) - soa.zs[i];
            let r2 = rx * rx + ry * ry + rz * rz;
            if r2 < rcut2 {
                pair_hit(kernel, soa, i, j, rx, ry, rz, r2, act, stores, w);
            }
        }
    }

    /// Exhaustive O(N²) completeness audit (test/sentinel use only):
    /// counts slot pairs within `rcut` (minimum-image) that involve at
    /// least one owned slot but were not recorded. A correct build over
    /// a ghost shell of depth ≥ `r_c + skin` returns 0 for the whole
    /// epoch; a shell of depth `r_c` only starts missing pairs as soon
    /// as particles drift — which is exactly what the negative shell
    /// test asserts.
    pub fn audit_missing(&self, soa: &SoaField, box_len: f64, rcut: f64) -> usize {
        let mut have: Vec<(u32, u32)> = self.pairs[..self.n_pairs]
            .iter()
            .map(|&(i, j)| if i < j { (i, j) } else { (j, i) })
            .collect();
        have.sort_unstable();
        have.dedup();
        let rcut2 = rcut * rcut;
        let mut missing = 0;
        for i in 0..soa.len() {
            for j in (i + 1)..soa.len() {
                if i >= soa.n_owned() && j >= soa.n_owned() {
                    continue;
                }
                let d = crate::analysis::minimum_image(soa.pos(j), soa.pos(i), box_len);
                if d.norm2() < rcut2 && have.binary_search(&(i as u32, j as u32)).is_err() {
                    missing += 1;
                }
            }
        }
        missing
    }
}

/// Apply one in-range replayed pair — the AoS kernel's hit branch.
#[allow(clippy::too_many_arguments)]
#[inline]
fn pair_hit(
    kernel: &PairKernel,
    soa: &mut SoaField,
    i: usize,
    j: usize,
    rx: f64,
    ry: f64,
    rz: f64,
    r2: f64,
    act: SegAction,
    stores: u64,
    w: &mut WorkCounters,
) {
    w.interacting_pairs += stores;
    let for_r = kernel.lj.force_over_r_r2(r2);
    let (fx, fy, fz) = (rx * for_r, ry * for_r, rz * for_r);
    if act.sa {
        soa.fxs[i] -= fx;
        soa.fys[i] -= fy;
        soa.fzs[i] -= fz;
    }
    if act.sb {
        soa.fxs[j] += fx;
        soa.fys[j] += fy;
        soa.fzs[j] += fz;
    }
    w.potential += 0.5 * stores as f64 * kernel.lj.energy_r2(r2);
}

/// Squared magnitude of the largest *predicted* per-step velocity: for
/// each particle, the velocity it will drift with this step
/// (`v + f·Δt/2`, exactly the half-kick [`crate::integrate::kick_drift`]
/// applies). The per-step displacement bound is then
/// `Δt·√max` — exact, not an estimate, because the drift is linear.
///
/// `f64::max` is order-independent, so a serial max over all particles
/// equals a max of per-rank maxima bitwise — the property that lets
/// every rank (and the serial reference) agree on rebuild steps.
pub fn max_predicted_travel2(parts: &[Particle], forces: &[Vec3], dt: f64) -> f64 {
    debug_assert_eq!(parts.len(), forces.len());
    let mut m = 0.0f64;
    for (p, f) in parts.iter().zip(forces) {
        let v = p.vel + *f * (0.5 * dt);
        m = m.max(v.norm2());
    }
    m
}

/// Deterministic accumulated-displacement tracker driving the rebuild
/// decision: a list built with reach `r_c + skin` stays exhaustive while
/// every particle is within `skin/2` of its build position, so the walk
/// is replayed until the accumulated worst-case travel crosses that
/// bound. All inputs are pure functions of owned+ghost state, so every
/// rank computes the identical step sequence.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispTracker {
    acc: f64,
}

impl DispTracker {
    /// Fresh tracker (zero accumulated travel — a rebuild boundary).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one step's global max predicted travel (squared).
    pub fn advance(&mut self, max_travel2: f64, dt: f64) {
        self.acc += dt * max_travel2.sqrt();
    }

    /// True when accumulated travel exceeds `skin/2`.
    pub fn exceeds(&self, skin: f64) -> bool {
        self.acc > 0.5 * skin
    }

    /// Accumulated worst-case travel since the last reset.
    pub fn accumulated(&self) -> f64 {
        self.acc
    }

    /// Reset at a rebuild boundary.
    pub fn reset(&mut self) {
        self.acc = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{CellGrid, HALF_OFFSETS_13};
    use crate::init;
    use crate::lj::LennardJones;
    use crate::serial::compute_forces_half_shell;

    fn gas_grid(n: usize, nc: usize, box_len: f64, seed: u64) -> CellGrid {
        let mut ps = init::simple_cubic(n, box_len);
        init::maxwell_boltzmann(&mut ps, 0.722, seed);
        let mut grid = CellGrid::new(nc, box_len);
        for p in ps {
            grid.insert(p);
        }
        grid.canonicalize();
        grid
    }

    /// One block of the serial walk: home slots, neighbour slots and
    /// shift (`None` for the intra triangle), home and neighbour cells.
    type WalkBlock = (Range<usize>, Option<(Range<usize>, Vec3)>, usize, usize);

    /// The serial walk's blocks over `grid`, one list per non-empty home
    /// cell in walk order: its intra triangle (no neighbour), then its
    /// non-empty forward neighbours; the pull follows them.
    fn walk_blocks(grid: &CellGrid) -> Vec<Vec<WalkBlock>> {
        let mut homes = Vec::new();
        for idx in 0..grid.total_cells() {
            let hr = grid.cell_range(idx);
            if hr.is_empty() {
                continue;
            }
            let mut blocks = vec![(hr.clone(), None, idx, idx)];
            for offset in HALF_OFFSETS_13 {
                let (ncell, shift) = grid.wrap_neighbor(grid.coord_of(idx), offset);
                let nidx = grid.index(ncell);
                let nr = grid.cell_range(nidx);
                if !nr.is_empty() {
                    blocks.push((hr.clone(), Some((nr, shift)), idx, nidx));
                }
            }
            homes.push(blocks);
        }
        homes
    }

    /// The walk's candidate bound: what [`VerletList::reserve`] takes.
    fn walk_bound(grid: &CellGrid) -> usize {
        let blocks = walk_blocks(grid).into_iter().flatten();
        blocks
            .map(|(h, nb, ..)| match nb {
                None => VerletList::intra_candidates(h.len()),
                Some((nr, _)) => VerletList::pair_candidates(h.len(), nr.len()),
            })
            .sum()
    }

    /// Record the walk's blocks into `list` behind what it holds; cell
    /// `c`'s class code and work bucket are `key(c)`.
    fn record_blocks(
        grid: &CellGrid,
        soa: &SoaField,
        list: &mut VerletList,
        reach: f64,
        pull: &ExternalPull,
        key: impl Fn(usize) -> (u8, u32),
    ) {
        let reach2 = reach * reach;
        for blocks in walk_blocks(grid) {
            let home = blocks[0].0.clone();
            let (ca, bucket) = key(blocks[0].2);
            for (hr, nb, _, nidx) in blocks {
                match nb {
                    None => list.record_intra(soa, hr, reach2, ca, bucket),
                    Some((nr, shift)) => {
                        let cb = key(nidx).0;
                        list.record_pair(soa, hr, nr, shift, reach2, ca, cb, bucket)
                    }
                }
            }
            list.record_pull(pull, home, ca, bucket);
        }
    }

    /// Record the serial walk over `grid` into `list` (single bucket 0,
    /// single class 0, no pull), reserved at its candidate bound.
    fn record_walk(grid: &CellGrid, soa: &mut SoaField, list: &mut VerletList, reach: f64) {
        let n = grid.num_particles();
        soa.reset(n, n);
        soa.load_positions(0, grid.particles());
        list.clear();
        list.reserve(walk_bound(grid));
        record_blocks(grid, soa, list, reach, &ExternalPull::None, |_| (0, 0));
    }

    #[test]
    fn replay_is_bitwise_identical_to_walk() {
        // cell_len = 3.0 ≥ rcut 2.5 + skin 0.4: a verlet-valid geometry.
        let grid = gas_grid(400, 4, 12.0, 1);
        let kernel = PairKernel::new(LennardJones::paper());
        let skin = 0.4;
        for pull in [ExternalPull::None, ExternalPull::Center { k: 0.02 }] {
            let mut walk_forces = Vec::new();
            let w_walk = compute_forces_half_shell(&grid, &kernel, &pull, &mut walk_forces);
            let mut soa = SoaField::new();
            let mut list = VerletList::new();
            let n = grid.num_particles();
            soa.reset(n, n);
            soa.load_positions(0, grid.particles());
            record_blocks(&grid, &soa, &mut list, kernel.lj.rcut + skin, &pull, |_| {
                (0, 0)
            });
            soa.zero_forces();
            let mut work = [WorkCounters::default()];
            list.replay(
                &kernel,
                &pull,
                grid.box_len(),
                &mut soa,
                |_| Some(SegAction::fused()),
                &mut work,
            );
            let mut replay_forces = Vec::new();
            soa.fold_forces(&mut replay_forces);
            assert_eq!(walk_forces, replay_forces);
            assert_eq!(w_walk.pair_checks, work[0].pair_checks);
            assert_eq!(w_walk.interacting_pairs, work[0].interacting_pairs);
            assert_eq!(w_walk.potential.to_bits(), work[0].potential.to_bits());
        }
    }

    #[test]
    fn replay_stays_bitwise_through_sub_half_skin_drift() {
        // Drift every particle by less than skin/2 (no rebin, unwrapped
        // positions) and check replay still matches a frozen-binning walk.
        let mut grid = gas_grid(300, 4, 12.0, 2);
        let kernel = PairKernel::new(LennardJones::paper());
        let skin = 0.5;
        let mut soa = SoaField::new();
        let mut list = VerletList::new();
        record_walk(&grid, &mut soa, &mut list, kernel.lj.rcut + skin);
        // Deterministic sub-skin/2 displacement field; no rebinning, so
        // the frozen walk and the replay see the same cell structure.
        for (k, p) in grid.particles_mut().iter_mut().enumerate() {
            let s = 0.2 * ((k % 7) as f64 / 7.0 - 0.5);
            p.pos += Vec3::new(s, -s, 0.5 * s);
        }
        let mut walk_forces = Vec::new();
        let w_walk =
            compute_forces_half_shell(&grid, &kernel, &ExternalPull::None, &mut walk_forces);
        soa.load_positions(0, grid.particles());
        soa.zero_forces();
        let mut work = [WorkCounters::default()];
        list.replay(
            &kernel,
            &ExternalPull::None,
            grid.box_len(),
            &mut soa,
            |_| Some(SegAction::fused()),
            &mut work,
        );
        let mut replay_forces = Vec::new();
        soa.fold_forces(&mut replay_forces);
        assert_eq!(walk_forces, replay_forces);
        assert_eq!(w_walk.potential.to_bits(), work[0].potential.to_bits());
        assert_eq!(w_walk.pair_checks, work[0].pair_checks);
    }

    #[test]
    fn a_one_sided_replay_books_half_the_fused_potential() {
        // The step engine replays a pair block it shares with a ghost
        // storing its own side only: that side's forces are the fused
        // replay's, bitwise, and the block books half its checks and
        // exactly half its potential.
        let grid = gas_grid(400, 4, 12.0, 7);
        let kernel = PairKernel::new(LennardJones::paper());
        let (hr, nr, shift) = walk_blocks(&grid)
            .into_iter()
            .flatten()
            .find_map(|(hr, nb, ..)| nb.map(|(nr, shift)| (hr, nr, shift)))
            .expect("the gas has a pair block");
        let n = grid.num_particles();
        let mut soa = SoaField::new();
        soa.reset(n, n);
        soa.load_positions(0, grid.particles());
        let mut list = VerletList::new();
        let reach = kernel.lj.rcut + 0.4;
        list.record_pair(&soa, hr.clone(), nr.clone(), shift, reach * reach, 0, 1, 0);
        let mut replay = |act: SegAction| {
            soa.zero_forces();
            let mut work = [WorkCounters::default()];
            list.replay(
                &kernel,
                &ExternalPull::None,
                grid.box_len(),
                &mut soa,
                |_| Some(act),
                &mut work,
            );
            let mut forces = Vec::new();
            soa.fold_forces(&mut forces);
            (forces, work[0])
        };
        let (f_fused, w_fused) = replay(SegAction::fused());
        assert!(w_fused.interacting_pairs > 0);
        for (sa, side) in [(true, hr), (false, nr)] {
            let (f, w) = replay(SegAction { sa, sb: !sa });
            assert_eq!(f[side.clone()], f_fused[side]);
            assert_eq!(w.potential.to_bits(), (0.5 * w_fused.potential).to_bits());
            assert_eq!(2 * w.pair_checks, w_fused.pair_checks);
            assert_eq!(2 * w.interacting_pairs, w_fused.interacting_pairs);
        }
    }

    #[test]
    fn audit_finds_no_missing_pairs_for_valid_reach() {
        let grid = gas_grid(200, 4, 12.0, 3);
        let kernel = PairKernel::new(LennardJones::paper());
        let mut soa = SoaField::new();
        let mut list = VerletList::new();
        record_walk(&grid, &mut soa, &mut list, kernel.lj.rcut + 0.5);
        assert_eq!(list.audit_missing(&soa, grid.box_len(), kernel.lj.rcut), 0);
    }

    #[test]
    fn audit_catches_a_too_thin_reach_after_drift() {
        // Build with reach = r_c only (the too-thin shell), then drift:
        // pairs crossing the cutoff from just outside are missed, and the
        // audit reports them.
        let mut grid = gas_grid(300, 4, 12.0, 4);
        // Knock the lattice off-grid so pair distances fill the shell just
        // above the cutoff (a perfect lattice has no pairs in (2.5, 2.9)).
        for (k, p) in grid.particles_mut().iter_mut().enumerate() {
            let h = |m: usize| ((k.wrapping_mul(m) % 97) as f64 / 97.0 - 0.5) * 0.5;
            p.pos = (p.pos + Vec3::new(h(31), h(53), h(71))).rem_euclid(12.0);
        }
        grid.rebin();
        let kernel = PairKernel::new(LennardJones::paper());
        let mut soa = SoaField::new();
        let mut list = VerletList::new();
        record_walk(&grid, &mut soa, &mut list, kernel.lj.rcut);
        assert_eq!(
            list.audit_missing(&soa, grid.box_len(), kernel.lj.rcut),
            0,
            "at build time even the thin list is complete"
        );
        // Drift particles toward each other by up to 0.2σ.
        for (k, p) in grid.particles_mut().iter_mut().enumerate() {
            let s = 0.2 * ((k % 5) as f64 / 5.0 - 0.5);
            p.pos += Vec3::new(s, s, -s);
        }
        soa.load_positions(0, grid.particles());
        assert!(
            list.audit_missing(&soa, grid.box_len(), kernel.lj.rcut) > 0,
            "a reach of r_c only must start missing pairs once particles drift"
        );
    }

    /// The test-then-push recorder the branch-free sweep replaced, kept
    /// as its reference: the candidates of one block within reach, in
    /// scan order. `a == b` with a zero shift is the intra triangle.
    fn reference_block(
        soa: &SoaField,
        a: Range<usize>,
        b: Range<usize>,
        shift: Vec3,
        reach2: f64,
        intra: bool,
    ) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for i in a {
            let js = if intra { (i + 1)..b.end } else { b.clone() };
            for j in js {
                let d = (soa.pos(j) + shift) - soa.pos(i);
                if d.x * d.x + d.y * d.y + d.z * d.z < reach2 {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        pairs
    }

    /// An `nc³` grid of 3σ cells with `occ[c]` particles in cell `c`, on
    /// a jittered sub-lattice so no two coincide.
    fn grid_with_occupancy(nc: usize, occ: &[usize]) -> CellGrid {
        let mut grid = CellGrid::new(nc, 3.0 * nc as f64);
        let mut id = 0u64;
        for (c, &n) in occ.iter().enumerate().take(nc * nc * nc) {
            let origin = Vec3::new(
                (c / (nc * nc)) as f64,
                (c / nc % nc) as f64,
                (c % nc) as f64,
            );
            for k in 0..n {
                let jitter = (id.wrapping_mul(0x9e37_79b9) % 101) as f64 * 1e-3;
                let slot = Vec3::new((k / 25) as f64, (k / 5 % 5) as f64, (k % 5) as f64);
                grid.insert(Particle::at_rest(
                    id,
                    origin * 3.0 + slot * 0.58 + Vec3::new(0.1 + jitter, 0.1, 0.1 + 0.5 * jitter),
                ));
                id += 1;
            }
        }
        grid.canonicalize();
        grid
    }

    /// A segment as (kind, ca, cb, bucket, shift bits, start, end, occ).
    type SegRow = (SegKind, u8, u8, u32, [u64; 3], usize, usize, u64);

    /// What a recording of [`record_blocks`] must hold, built block by
    /// block from the push reference: the flat pair list, and the
    /// segments — a pair block merged into the segment before it exactly
    /// when that is a pair segment with its class codes, bucket and
    /// shift.
    fn expected_recording(
        grid: &CellGrid,
        soa: &SoaField,
        reach: f64,
        pull: &ExternalPull,
        key: impl Fn(usize) -> (u8, u32),
    ) -> (Vec<(u32, u32)>, Vec<SegRow>) {
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        let (mut pairs, mut segs) = (Vec::new(), Vec::<SegRow>::new());
        for blocks in walk_blocks(grid) {
            let home = blocks[0].0.clone();
            let (ca, bucket) = key(blocks[0].2);
            for (hr, nb, _, nidx) in blocks {
                let start = pairs.len();
                let n = hr.len() as u64;
                let (kind, cb, shift, occ) = match nb {
                    None if hr.len() < 2 => continue,
                    None => {
                        pairs.extend(reference_block(
                            soa,
                            hr.clone(),
                            hr,
                            Vec3::ZERO,
                            reach * reach,
                            true,
                        ));
                        (SegKind::Intra, ca, Vec3::ZERO, n * (n - 1))
                    }
                    Some((nr, shift)) => {
                        let occ = n * nr.len() as u64;
                        pairs.extend(reference_block(soa, hr, nr, shift, reach * reach, false));
                        (SegKind::Pair, key(nidx).0, shift, occ)
                    }
                };
                let seg = (kind, ca, cb, bucket, bits(shift), start, pairs.len(), occ);
                match segs.last_mut() {
                    Some(last)
                        if kind == SegKind::Pair
                            && (last.0, last.1, last.2, last.3, last.4)
                                == (seg.0, seg.1, seg.2, seg.3, seg.4) =>
                    {
                        last.6 = seg.6;
                        last.7 += occ;
                    }
                    _ => segs.push(seg),
                }
            }
            if !pull.is_none() {
                let (s, e) = (home.start, home.end);
                segs.push((SegKind::Pull, ca, ca, bucket, bits(Vec3::ZERO), s, e, 0));
            }
        }
        (pairs, segs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn prop_branch_free_recorder_equals_the_push_recorder(
            draws in proptest::collection::vec(0usize..100, 64..65),
            nc in 3usize..5,
            pull_on in 0u8..2,
        ) {
            use proptest::prelude::*;
            // A third of the cells empty, some with one particle (no
            // intra segment), most small, a few above 64. On 3³ every
            // home has forward offsets that wrap, so shifts change
            // inside each home's run of blocks and merges must break.
            let occ: Vec<usize> = draws
                .iter()
                .map(|&d| match d {
                    0..=32 => 0,
                    33..=45 => 1,
                    46..=85 => d - 44,
                    _ => d - 20,
                })
                .collect();
            let grid = grid_with_occupancy(nc, &occ);
            let kernel = PairKernel::new(LennardJones::paper());
            let reach = kernel.lj.rcut + 0.4;
            let pull = if pull_on == 1 { ExternalPull::Center { k: 0.02 } } else { ExternalPull::None };
            // Class codes and buckets that change along the walk: a
            // bucket per column of cells along z (as the parallel
            // engines bucket), a class per x parity.
            let key = |c: usize| ((c / (nc * nc) % 2) as u8, (c / nc) as u32);
            let mut soa = SoaField::new();
            let mut list = VerletList::new();
            let np = grid.num_particles();
            soa.reset(np, np);
            soa.load_positions(0, grid.particles());
            // Record twice: the second pass reuses the written-through
            // tail of the pair storage, which must not leak into it.
            for _ in 0..2 {
                list.clear();
                list.reserve(walk_bound(&grid));
                record_blocks(&grid, &soa, &mut list, reach, &pull, key);
            }
            let (pairs, segs) = expected_recording(&grid, &soa, reach, &pull, key);
            prop_assert_eq!(&list.pairs[..list.num_pairs()], &pairs[..]);
            let got: Vec<SegRow> = list
                .segs
                .iter()
                .map(|s| {
                    let pair = s.kind == SegKind::Pair;
                    let shift = if pair { list.shifts[s.shift as usize] } else { Vec3::ZERO };
                    let bits = [shift.x.to_bits(), shift.y.to_bits(), shift.z.to_bits()];
                    (s.kind, s.ca, s.cb, s.bucket, bits, s.start as usize, s.end as usize, s.occ)
                })
                .collect();
            prop_assert_eq!(&got, &segs);
            // Σ occ per bucket, block by block: the full-shell
            // accounting survives merging.
            let mut occ_of = vec![0u64; nc * nc];
            for blocks in walk_blocks(&grid) {
                let bucket = key(blocks[0].2).1 as usize;
                for (hr, nb, ..) in blocks {
                    let h = hr.len() as u64;
                    occ_of[bucket] += match nb {
                        None => h * h.saturating_sub(1),
                        Some((nr, _)) => h * nr.len() as u64,
                    };
                }
            }
            let mut seg_occ = vec![0u64; nc * nc];
            for s in &list.segs {
                seg_occ[s.bucket as usize] += s.occ;
            }
            prop_assert_eq!(seg_occ, occ_of);
            prop_assert_eq!(list.audit_missing(&soa, grid.box_len(), kernel.lj.rcut), 0);
            // And the replay of the recording is the walk, bit for bit.
            let mut walk_forces = Vec::new();
            let w_walk = compute_forces_half_shell(&grid, &kernel, &pull, &mut walk_forces);
            soa.zero_forces();
            let mut work = vec![WorkCounters::default(); nc * nc];
            list.replay(
                &kernel,
                &pull,
                grid.box_len(),
                &mut soa,
                |_| Some(SegAction::fused()),
                &mut work,
            );
            let mut replay_forces = Vec::new();
            soa.fold_forces(&mut replay_forces);
            let bits = |f: &[Vec3]| -> Vec<[u64; 3]> {
                f.iter().map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect()
            };
            prop_assert_eq!(bits(&walk_forces), bits(&replay_forces));
            let total = |f: fn(&WorkCounters) -> u64| work.iter().map(f).sum::<u64>();
            prop_assert_eq!(w_walk.pair_checks, total(|w| w.pair_checks));
            prop_assert_eq!(w_walk.interacting_pairs, total(|w| w.interacting_pairs));
        }
    }

    #[test]
    fn tracker_crosses_half_skin_deterministically() {
        let mut t = DispTracker::new();
        let dt = 0.005;
        // One particle moving at |v| = 10 → travel 0.05 per step.
        let parts = [Particle {
            id: 0,
            pos: Vec3::ZERO,
            vel: Vec3::new(10.0, 0.0, 0.0),
        }];
        let forces = [Vec3::ZERO];
        let skin = 0.4; // skin/2 = 0.2 → 5th step crosses (0.25 > 0.2)
        let mut crossed_at = None;
        for step in 1..=10 {
            t.advance(max_predicted_travel2(&parts, &forces, dt), dt);
            if t.exceeds(skin) {
                crossed_at = Some(step);
                break;
            }
        }
        assert_eq!(crossed_at, Some(5));
        t.reset();
        assert_eq!(t.accumulated(), 0.0);
        assert!(!t.exceeds(skin));
    }

    #[test]
    fn rebuild_only_records_nonempty_blocks_and_a_pull_that_is_on() {
        let mut soa = SoaField::new();
        soa.reset(4, 4);
        let mut list = VerletList::new();
        let pull = ExternalPull::Center { k: 0.02 };
        list.record_pair(&soa, 0..0, 0..4, Vec3::ZERO, 1.0, 0, 0, 0);
        list.record_intra(&soa, 2..3, 1.0, 0, 0);
        list.record_pull(&pull, 1..1, 0, 0);
        list.record_pull(&ExternalPull::None, 0..2, 0, 0);
        assert!(
            list.is_empty(),
            "empty blocks and an off pull record nothing"
        );
        list.record_pull(&pull, 0..2, 0, 0);
        assert_eq!(list.num_segments(), 1);
    }

    #[test]
    fn a_segment_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Segment>(), 24);
    }

    #[test]
    fn a_reserved_rebuild_never_regrows_the_pair_storage() {
        let grid = gas_grid(800, 4, 12.0, 5);
        let reach = LennardJones::paper().rcut + 0.4;
        let mut soa = SoaField::new();
        let n = grid.num_particles();
        soa.reset(n, n);
        soa.load_positions(0, grid.particles());
        let mut list = VerletList::new();
        for _ in 0..2 {
            list.clear();
            let bound = walk_bound(&grid);
            list.reserve(bound);
            let capacity = list.pairs.capacity();
            record_blocks(&grid, &soa, &mut list, reach, &ExternalPull::None, |_| {
                (0, 0)
            });
            assert_eq!(
                list.pairs.capacity(),
                capacity,
                "the recording grew the storage"
            );
            assert!(list.num_pairs() <= bound);
        }
        // One class, one bucket: a home's forward blocks that share a
        // shift replay as one segment.
        let blocks: usize = walk_blocks(&grid).iter().map(Vec::len).sum();
        assert!(
            list.num_segments() < blocks,
            "{} segments",
            list.num_segments()
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reserved candidate bound")]
    fn recording_past_the_reservation_is_caught() {
        let grid = gas_grid(200, 4, 12.0, 6);
        let mut soa = SoaField::new();
        let n = grid.num_particles();
        soa.reset(n, n);
        soa.load_positions(0, grid.particles());
        let mut list = VerletList::new();
        list.reserve(walk_bound(&grid) / 8);
        record_blocks(&grid, &soa, &mut list, 2.9, &ExternalPull::None, |_| (0, 0));
    }
}
