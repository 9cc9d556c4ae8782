//! The shared pair-interaction kernel.
//!
//! Both the serial reference simulator and the parallel SPMD simulator
//! compute forces by calling [`PairKernel::accumulate`] once per
//! (home cell, neighbour cell) pair, iterating neighbour cells in the
//! canonical [`crate::cells::NEIGHBOR_OFFSETS_27`] order with id-sorted
//! particle lists. Because the floating-point operations and their order
//! are identical, the two simulators produce bitwise identical forces —
//! the property the cross-crate validation tests assert.
//!
//! The kernel also counts *work*: the number of candidate pair distance
//! evaluations, which is the deterministic stand-in for the per-PE force
//! computation time the paper measures with `MPI_Wtime` (see DESIGN.md,
//! substitutions). The paper's program "computes distances between two
//! molecules with every combination of molecules within each cell and its
//! neighbouring 26 cells" (Sec. 3.2) — i.e. work ∝ candidate pairs, which
//! is what we count.

use std::ops::Range;

use crate::lj::LennardJones;
use crate::vec3::Vec3;
use crate::Particle;

/// Split one flat force buffer into two disjoint cell ranges, mutably —
/// the home and neighbour slices of a half-shell evaluation. Panics if
/// the ranges overlap (distinct cells never do).
pub fn disjoint_ranges_mut<T>(
    buf: &mut [T],
    a: Range<usize>,
    b: Range<usize>,
) -> (&mut [T], &mut [T]) {
    if a.end <= b.start {
        let (lo, hi) = buf.split_at_mut(b.start);
        (&mut lo[a.start..a.end], &mut hi[..b.end - b.start])
    } else {
        assert!(b.end <= a.start, "ranges {a:?} and {b:?} overlap");
        let (lo, hi) = buf.split_at_mut(a.start);
        (&mut hi[..a.end - a.start], &mut lo[b.start..b.end])
    }
}

/// Work and thermodynamic accumulators for one force evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkCounters {
    /// Candidate pair distance evaluations (the load-model unit).
    pub pair_checks: u64,
    /// Pairs found within the cutoff.
    pub interacting_pairs: u64,
    /// Potential energy, accumulated as ½·V per *directed* pair so that
    /// summing over all home cells (serial) or all PEs (parallel) yields
    /// the total potential exactly once.
    pub potential: f64,
}

impl WorkCounters {
    /// Combine two counters (e.g. across cells or ranks).
    pub fn merge(&mut self, o: &WorkCounters) {
        self.pair_checks += o.pair_checks;
        self.interacting_pairs += o.interacting_pairs;
        self.potential += o.potential;
    }
}

/// Harmonic central-well force, `F = k·(center − pos)`, used as a
/// *concentration driver*: the paper reaches high particle concentration
/// by letting a supercooled gas condense over ~10⁴ steps; a weak central
/// pull traverses the same `(n, C₀/C)` trajectory in a controllable,
/// budget-friendly number of steps (see DESIGN.md substitutions). Both
/// the serial and parallel simulators add this term with the identical
/// expression, preserving bitwise parity.
#[inline]
pub fn central_pull_force(pos: Vec3, center: Vec3, k: f64) -> Vec3 {
    (center - pos) * k
}

/// Potential energy of the central well, `½k·|pos − center|²`.
#[inline]
pub fn central_pull_energy(pos: Vec3, center: Vec3, k: f64) -> f64 {
    0.5 * k * (pos - center).norm2()
}

/// Harmonic pull toward the box corner at the origin, with the
/// displacement folded per axis by minimum image (the corner's periodic
/// images at `0` and `L` are the same point). Unlike the centre pull,
/// this concentrates the whole system onto *one PE's corner*, producing
/// the extreme single-domain hotspot that probes the DLB limit at any
/// density.
#[inline]
pub fn corner_pull_force(pos: Vec3, box_len: f64, k: f64) -> Vec3 {
    let fold = |v: f64| if v > 0.5 * box_len { v - box_len } else { v };
    Vec3::new(-k * fold(pos.x), -k * fold(pos.y), -k * fold(pos.z))
}

/// Potential energy of the corner well (minimum-image folded).
#[inline]
pub fn corner_pull_energy(pos: Vec3, box_len: f64, k: f64) -> f64 {
    let fold = |v: f64| if v > 0.5 * box_len { v - box_len } else { v };
    let d = Vec3::new(fold(pos.x), fold(pos.y), fold(pos.z));
    0.5 * k * d.norm2()
}

/// An optional external single-particle force field.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ExternalPull {
    /// No external field.
    #[default]
    None,
    /// Harmonic well at the box centre (spring constant `k`).
    Center {
        /// Spring constant.
        k: f64,
    },
    /// Harmonic well at the box corner, minimum-image folded.
    Corner {
        /// Spring constant.
        k: f64,
    },
    /// Harmonic well at an arbitrary point given as box fractions,
    /// minimum-image folded. Targeting the centre of one PE's domain
    /// creates the single-domain hotspot of the paper's maximum-domain
    /// analysis (Fig. 8) at any density.
    Point {
        /// Spring constant.
        k: f64,
        /// Target as fractions of the box side, each in `[0, 1)`.
        frac: Vec3,
    },
    /// A *localized* well: harmonic within radius `rmax` of the target,
    /// constant-magnitude (`k·rmax`) beyond it. Distant gas drifts in at a
    /// steady rate, so a depletion zone grows around the hot domain —
    /// empties concentrate near it (raising the concentration factor `n`)
    /// while far regions stay gassy, the geometry natural condensation
    /// produces around a dominant droplet.
    Well {
        /// Spring constant inside the harmonic core.
        k: f64,
        /// Target as fractions of the box side.
        frac: Vec3,
        /// Radius of the harmonic core (reduced units).
        rmax: f64,
    },
}

/// Minimum-image displacement from `target` to `pos` in a periodic box.
#[inline]
fn folded_displacement(pos: Vec3, target: Vec3, box_len: f64) -> Vec3 {
    let fold = |d: f64| {
        if d > 0.5 * box_len {
            d - box_len
        } else if d < -0.5 * box_len {
            d + box_len
        } else {
            d
        }
    };
    Vec3::new(
        fold(pos.x - target.x),
        fold(pos.y - target.y),
        fold(pos.z - target.z),
    )
}

impl ExternalPull {
    /// Force on a particle at `pos` in a box of side `box_len`.
    #[inline]
    pub fn force(&self, pos: Vec3, box_len: f64) -> Vec3 {
        match *self {
            ExternalPull::None => Vec3::ZERO,
            ExternalPull::Center { k } => central_pull_force(pos, Vec3::splat(0.5 * box_len), k),
            ExternalPull::Corner { k } => corner_pull_force(pos, box_len, k),
            ExternalPull::Point { k, frac } => {
                let target = frac * box_len;
                folded_displacement(pos, target, box_len) * (-k)
            }
            ExternalPull::Well { k, frac, rmax } => {
                let target = frac * box_len;
                let d = folded_displacement(pos, target, box_len);
                let r = d.norm();
                if r <= rmax || r == 0.0 {
                    d * (-k)
                } else {
                    d * (-k * rmax / r)
                }
            }
        }
    }

    /// Potential energy of a particle at `pos`.
    #[inline]
    pub fn energy(&self, pos: Vec3, box_len: f64) -> f64 {
        match *self {
            ExternalPull::None => 0.0,
            ExternalPull::Center { k } => central_pull_energy(pos, Vec3::splat(0.5 * box_len), k),
            ExternalPull::Corner { k } => corner_pull_energy(pos, box_len, k),
            ExternalPull::Point { k, frac } => {
                let target = frac * box_len;
                0.5 * k * folded_displacement(pos, target, box_len).norm2()
            }
            ExternalPull::Well { k, frac, rmax } => {
                let target = frac * box_len;
                let r = folded_displacement(pos, target, box_len).norm();
                if r <= rmax {
                    0.5 * k * r * r
                } else {
                    0.5 * k * rmax * rmax + k * rmax * (r - rmax)
                }
            }
        }
    }

    /// True when the field exerts no force.
    pub fn is_none(&self) -> bool {
        matches!(self, ExternalPull::None)
    }
}

/// A force kernel specialised to one pair potential.
#[derive(Debug, Clone, Copy)]
pub struct PairKernel {
    /// The pair potential.
    pub lj: LennardJones,
}

impl PairKernel {
    /// Kernel for the given potential.
    pub fn new(lj: LennardJones) -> Self {
        Self { lj }
    }

    /// Accumulate forces on `targets` from `neighbors` displaced by
    /// `shift` (the periodic-image displacement of the neighbour cell).
    ///
    /// `forces[i]` must correspond to `targets[i]`. Pairs with equal ids
    /// are skipped: with `shift == 0` that is the self-pair; with a
    /// non-zero shift it is a particle's own periodic image, which lies at
    /// least `L ≥ 2·r_c` away and cannot interact anyway.
    pub fn accumulate(
        &self,
        targets: &[Particle],
        forces: &mut [Vec3],
        neighbors: &[Particle],
        shift: Vec3,
        w: &mut WorkCounters,
    ) {
        debug_assert_eq!(targets.len(), forces.len());
        let rcut2 = self.lj.rcut2();
        for (t, f) in targets.iter().zip(forces.iter_mut()) {
            for nb in neighbors {
                if nb.id == t.id {
                    continue;
                }
                w.pair_checks += 1;
                let r = (nb.pos + shift) - t.pos;
                let r2 = r.norm2();
                if r2 < rcut2 {
                    w.interacting_pairs += 1;
                    let for_r = self.lj.force_over_r_r2(r2);
                    // Force on the target points away from the neighbour
                    // when repulsive: F_t = -(F/r)·r, with r = nb - t.
                    *f -= r * for_r;
                    w.potential += 0.5 * self.lj.energy_r2(r2);
                }
            }
        }
    }

    /// Half-shell intra-cell loop: each unordered pair within one cell is
    /// evaluated once (`i < j` over the id-sorted slice) and both
    /// reactions applied. Work accounting stays in the paper's
    /// *full-shell* units: every pair counts as two directed checks, and
    /// the potential carries its full (2 × ½) weight, so
    /// [`WorkCounters`] totals are identical to evaluating both
    /// directions.
    pub fn accumulate_intra(&self, parts: &[Particle], forces: &mut [Vec3], w: &mut WorkCounters) {
        debug_assert_eq!(parts.len(), forces.len());
        let rcut2 = self.lj.rcut2();
        let n = parts.len() as u64;
        // n·(n−1) ordered pairs = the paper's candidate count for a cell
        // against itself (self-pairs skipped).
        w.pair_checks += n * n.saturating_sub(1);
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                let r = parts[j].pos - parts[i].pos;
                let r2 = r.norm2();
                if r2 < rcut2 {
                    w.interacting_pairs += 2;
                    let for_r = self.lj.force_over_r_r2(r2);
                    let f = r * for_r;
                    forces[i] -= f;
                    forces[j] += f;
                    w.potential += self.lj.energy_r2(r2);
                }
            }
        }
    }

    /// Half-shell cell-pair loop: every `(a[i], b[j])` combination is
    /// evaluated once, with `b` displaced by `shift`. `fa`/`fb` select
    /// which side's forces are stored — the parallel simulators pass
    /// `None` for ghost cells, whose forces belong to another PE.
    ///
    /// Work accounting scales with the number of stored sides, keeping
    /// the full-shell invariants: with both sides stored a combination
    /// counts as two directed checks (as the seed kernel's two mirrored
    /// calls did) and its whole potential; with one side stored it counts
    /// as one check and half the potential — exactly the directed check
    /// the owning PE used to perform, the ghost's owner booking the other
    /// half — so per-PE and global [`WorkCounters`] totals are unchanged.
    pub fn accumulate_pair(
        &self,
        a: &[Particle],
        fa: Option<&mut [Vec3]>,
        b: &[Particle],
        fb: Option<&mut [Vec3]>,
        shift: Vec3,
        w: &mut WorkCounters,
    ) {
        match (fa, fb) {
            (Some(fa), Some(fb)) => self.pair_impl::<true, true>(a, fa, b, fb, shift, w),
            (Some(fa), None) => self.pair_impl::<true, false>(a, fa, b, &mut [], shift, w),
            (None, Some(fb)) => self.pair_impl::<false, true>(a, &mut [], b, fb, shift, w),
            (None, None) => {}
        }
    }

    fn pair_impl<const SA: bool, const SB: bool>(
        &self,
        a: &[Particle],
        fa: &mut [Vec3],
        b: &[Particle],
        fb: &mut [Vec3],
        shift: Vec3,
        w: &mut WorkCounters,
    ) {
        debug_assert!(!SA || a.len() == fa.len());
        debug_assert!(!SB || b.len() == fb.len());
        let stores = SA as u64 + SB as u64;
        let credit = 0.5 * stores as f64;
        let rcut2 = self.lj.rcut2();
        w.pair_checks += stores * a.len() as u64 * b.len() as u64;
        for (i, pa) in a.iter().enumerate() {
            for (j, pb) in b.iter().enumerate() {
                let r = (pb.pos + shift) - pa.pos;
                let r2 = r.norm2();
                if r2 < rcut2 {
                    w.interacting_pairs += stores;
                    let for_r = self.lj.force_over_r_r2(r2);
                    let f = r * for_r;
                    if SA {
                        fa[i] -= f;
                    }
                    if SB {
                        fb[j] += f;
                    }
                    w.potential += credit * self.lj.energy_r2(r2);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(id: u64, x: f64) -> Particle {
        Particle::at_rest(id, Vec3::new(x, 0.0, 0.0))
    }

    #[test]
    fn two_particles_feel_equal_opposite_forces() {
        let k = PairKernel::new(LennardJones::paper());
        let a = [one(0, 0.0)];
        let b = [one(1, 1.1)];
        let mut fa = [Vec3::ZERO];
        let mut fb = [Vec3::ZERO];
        let mut w = WorkCounters::default();
        k.accumulate(&a, &mut fa, &b, Vec3::ZERO, &mut w);
        k.accumulate(&b, &mut fb, &a, Vec3::ZERO, &mut w);
        assert!((fa[0].x + fb[0].x).abs() < 1e-15, "Newton's third law");
        assert_eq!(fa[0].y, 0.0);
        // At r = 1.1 < r_min the pair is repulsive: a is pushed to -x.
        assert!(fa[0].x < 0.0);
        assert_eq!(w.pair_checks, 2);
        assert_eq!(w.interacting_pairs, 2);
    }

    #[test]
    fn self_pairs_are_skipped() {
        let k = PairKernel::new(LennardJones::paper());
        let a = [one(7, 1.0)];
        let mut f = [Vec3::ZERO];
        let mut w = WorkCounters::default();
        k.accumulate(&a, &mut f, &a, Vec3::ZERO, &mut w);
        assert_eq!(w.pair_checks, 0);
        assert_eq!(f[0], Vec3::ZERO);
    }

    #[test]
    fn beyond_cutoff_counts_check_but_no_interaction() {
        let k = PairKernel::new(LennardJones::paper());
        let a = [one(0, 0.0)];
        let b = [one(1, 3.0)];
        let mut f = [Vec3::ZERO];
        let mut w = WorkCounters::default();
        k.accumulate(&a, &mut f, &b, Vec3::ZERO, &mut w);
        assert_eq!(w.pair_checks, 1);
        assert_eq!(w.interacting_pairs, 0);
        assert_eq!(f[0], Vec3::ZERO);
        assert_eq!(w.potential, 0.0);
    }

    #[test]
    fn shift_translates_the_neighbor_image() {
        let k = PairKernel::new(LennardJones::paper());
        // Neighbour canonically at x = 9.0 in a box of L = 10; with shift
        // -L it appears at -1.0, i.e. distance 1.0 from the target.
        let a = [one(0, 0.0)];
        let b = [one(1, 9.0)];
        let mut f = [Vec3::ZERO];
        let mut w = WorkCounters::default();
        k.accumulate(&a, &mut f, &b, Vec3::new(-10.0, 0.0, 0.0), &mut w);
        assert_eq!(w.interacting_pairs, 1);
        // Image at -1.0 < r_min pushes the target toward +x.
        assert!(f[0].x > 0.0);
    }

    #[test]
    fn directed_half_weights_sum_to_full_potential() {
        let lj = LennardJones::paper();
        let k = PairKernel::new(lj);
        let a = [one(0, 0.0)];
        let b = [one(1, 1.5)];
        let mut f = [Vec3::ZERO];
        let mut w = WorkCounters::default();
        k.accumulate(&a, &mut f, &b, Vec3::ZERO, &mut w);
        k.accumulate(&b, &mut f, &a, Vec3::ZERO, &mut w);
        let expect = lj.energy_r2(1.5 * 1.5);
        assert!((w.potential - expect).abs() < 1e-15);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = WorkCounters {
            pair_checks: 1,
            interacting_pairs: 1,
            potential: 2.0,
        };
        let b = WorkCounters {
            pair_checks: 10,
            interacting_pairs: 5,
            potential: -1.0,
        };
        a.merge(&b);
        assert_eq!(a.pair_checks, 11);
        assert_eq!(a.interacting_pairs, 6);
        assert_eq!(a.potential, 1.0);
    }

    fn gas_cell(id0: u64, n: usize, origin: Vec3, seed: u64) -> Vec<Particle> {
        // Deterministic LCG scatter inside a 2.56-sided cell at `origin`.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let p = Vec3::new(next(), next(), next()) * 2.56;
                Particle::at_rest(id0 + i as u64, origin + p)
            })
            .collect()
    }

    #[test]
    fn intra_matches_full_shell_bitwise() {
        let k = PairKernel::new(LennardJones::paper());
        let cell = gas_cell(0, 12, Vec3::ZERO, 7);
        // Full shell: the cell against itself, self-pairs skipped.
        let mut f_full = vec![Vec3::ZERO; cell.len()];
        let mut w_full = WorkCounters::default();
        k.accumulate(&cell, &mut f_full, &cell, Vec3::ZERO, &mut w_full);
        // Half shell: triangular loop, both reactions stored.
        let mut f_half = vec![Vec3::ZERO; cell.len()];
        let mut w_half = WorkCounters::default();
        k.accumulate_intra(&cell, &mut f_half, &mut w_half);
        assert_eq!(w_half.pair_checks, w_full.pair_checks);
        assert_eq!(w_half.interacting_pairs, w_full.interacting_pairs);
        assert!((w_half.potential - w_full.potential).abs() < 1e-12);
        // Forces are bitwise identical: a slot's contributions arrive in
        // the same ascending-j order, and `x += (−f)` is IEEE-identical
        // to `x −= f`.
        assert_eq!(f_half, f_full);
    }

    #[test]
    fn pair_both_sides_matches_two_directed_calls() {
        let k = PairKernel::new(LennardJones::paper());
        let a = gas_cell(0, 9, Vec3::ZERO, 1);
        let b = gas_cell(100, 11, Vec3::new(2.56, 0.0, 0.0), 2);
        let shift = Vec3::new(1.0, -0.5, 0.25); // arbitrary, same both ways
        let mut fa_full = vec![Vec3::ZERO; a.len()];
        let mut fb_full = vec![Vec3::ZERO; b.len()];
        let mut w_full = WorkCounters::default();
        k.accumulate(&a, &mut fa_full, &b, shift, &mut w_full);
        k.accumulate(&b, &mut fb_full, &a, shift * -1.0, &mut w_full);
        let mut fa = vec![Vec3::ZERO; a.len()];
        let mut fb = vec![Vec3::ZERO; b.len()];
        let mut w = WorkCounters::default();
        k.accumulate_pair(&a, Some(&mut fa), &b, Some(&mut fb), shift, &mut w);
        assert_eq!(w.pair_checks, w_full.pair_checks);
        assert_eq!(w.interacting_pairs, w_full.interacting_pairs);
        assert!((w.potential - w_full.potential).abs() < 1e-12);
        // The home side sees the identical expression → bitwise equal.
        assert_eq!(fa, fa_full);
        // The reaction side agrees to rounding (the mirrored full-shell
        // call groups `pos + shift` differently).
        for (x, y) in fb.iter().zip(&fb_full) {
            assert!((*x - *y).norm() < 1e-9);
        }
    }

    #[test]
    fn pair_single_side_counts_one_directed_check() {
        let k = PairKernel::new(LennardJones::paper());
        let a = gas_cell(0, 5, Vec3::ZERO, 3);
        let b = gas_cell(50, 7, Vec3::new(2.56, 0.0, 0.0), 4);
        let mut fa = vec![Vec3::ZERO; a.len()];
        let mut w = WorkCounters::default();
        k.accumulate_pair(&a, Some(&mut fa), &b, None, Vec3::ZERO, &mut w);
        assert_eq!(w.pair_checks, (a.len() * b.len()) as u64);
        // Reference: the directed seed call from a's side.
        let mut fa_ref = vec![Vec3::ZERO; a.len()];
        let mut w_ref = WorkCounters::default();
        k.accumulate(&a, &mut fa_ref, &b, Vec3::ZERO, &mut w_ref);
        assert_eq!(fa, fa_ref);
        assert_eq!(w.interacting_pairs, w_ref.interacting_pairs);
        assert_eq!(w.potential, w_ref.potential);
    }

    #[test]
    fn one_sided_stores_book_half_the_both_sides_potential() {
        // A pair block an owned cell shares with a ghost is evaluated on
        // both PEs, each storing its own side: each call books half the
        // checks and half the potential of the both-sides call — bitwise,
        // since halving every term halves every partial sum exactly — and
        // stores exactly the forces the both-sides call stores there.
        let k = PairKernel::new(LennardJones::paper());
        let a = gas_cell(0, 9, Vec3::ZERO, 5);
        let b = gas_cell(100, 11, Vec3::new(2.56, 0.0, 0.0), 6);
        let shift = Vec3::new(0.75, -1.25, 0.5);
        let mut fa_both = vec![Vec3::ZERO; a.len()];
        let mut fb_both = vec![Vec3::ZERO; b.len()];
        let mut w_both = WorkCounters::default();
        k.accumulate_pair(
            &a,
            Some(&mut fa_both),
            &b,
            Some(&mut fb_both),
            shift,
            &mut w_both,
        );
        assert!(w_both.interacting_pairs > 0);
        let mut fa = vec![Vec3::ZERO; a.len()];
        let mut w_a = WorkCounters::default();
        k.accumulate_pair(&a, Some(&mut fa), &b, None, shift, &mut w_a);
        let mut fb = vec![Vec3::ZERO; b.len()];
        let mut w_b = WorkCounters::default();
        k.accumulate_pair(&a, None, &b, Some(&mut fb), shift, &mut w_b);
        assert_eq!(fa, fa_both);
        assert_eq!(fb, fb_both);
        for w in [w_a, w_b] {
            assert_eq!(w.potential.to_bits(), (0.5 * w_both.potential).to_bits());
            assert_eq!(2 * w.pair_checks, w_both.pair_checks);
            assert_eq!(2 * w.interacting_pairs, w_both.interacting_pairs);
        }
    }

    #[test]
    fn disjoint_ranges_split_either_order() {
        let mut buf: Vec<u32> = (0..10).collect();
        let (a, b) = disjoint_ranges_mut(&mut buf, 1..3, 6..9);
        assert_eq!(a, &[1, 2]);
        assert_eq!(b, &[6, 7, 8]);
        let (a, b) = disjoint_ranges_mut(&mut buf, 6..9, 1..3);
        assert_eq!(a, &[6, 7, 8]);
        assert_eq!(b, &[1, 2]);
        // Adjacent ranges are fine.
        let (a, b) = disjoint_ranges_mut(&mut buf, 0..5, 5..10);
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 5);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_ranges_panic() {
        let mut buf = [0u8; 8];
        let _ = disjoint_ranges_mut(&mut buf, 0..4, 3..6);
    }

    #[test]
    fn work_counts_every_candidate_combination() {
        // 3 targets × 4 neighbours, no shared ids → 12 checks regardless
        // of distance.
        let k = PairKernel::new(LennardJones::paper());
        let ts: Vec<Particle> = (0..3).map(|i| one(i, i as f64 * 100.0)).collect();
        let ns: Vec<Particle> = (10..14).map(|i| one(i, i as f64 * 100.0)).collect();
        let mut f = vec![Vec3::ZERO; 3];
        let mut w = WorkCounters::default();
        k.accumulate(&ts, &mut f, &ns, Vec3::ZERO, &mut w);
        assert_eq!(w.pair_checks, 12);
    }
}
