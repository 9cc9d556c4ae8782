//! Concentration metrics (paper Sec. 4.1–4.2 and Fig. 8).
//!
//! Per time step the simulator produces one [`PeCellStats`] per PE; from
//! these we compute the paper's measurement quantities:
//!
//! - `C₀/C` — the particle concentration ratio (fraction of empty cells in
//!   the whole space);
//! - `C'`, `C₀'` — cells / empty cells of the *maximum domain*;
//! - `n = (C₀'/C') / (C₀/C)` — the concentration factor, estimated the way
//!   the paper does: "n is estimated by using the average C₀'/C' of two
//!   PEs: one PE has the maximum number of cells, and the other PE has the
//!   maximum number of cells that contain no particle" (Sec. 4.2);
//! - trajectory points in `(n, C₀/C)` space (Fig. 9).

/// Per-PE cell statistics for one time step (3-D cell counts, i.e.
/// columns × `nc` cells per column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeCellStats {
    /// The PE's rank.
    pub rank: usize,
    /// Cells currently owned (the PE's domain size).
    pub cells: usize,
    /// Owned cells containing no particles.
    pub empty_cells: usize,
    /// Particles currently owned.
    pub particles: usize,
}

/// One point of the `(n, C₀/C)` trajectory (paper Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcentrationPoint {
    /// Time step the point was measured at.
    pub step: u64,
    /// Concentration factor estimate `n ≥ 1`.
    pub n: f64,
    /// Particle concentration ratio `C₀/C ∈ [0, 1]`.
    pub c0_over_c: f64,
}

/// Compute the concentration point for one step from all PEs' stats.
///
/// `total_cells` is the paper's `C`. The estimator mirrors Sec. 4.2: the
/// per-domain empty fraction `C₀'/C'` is averaged over the PE owning the
/// most cells and the PE owning the most empty cells (ties broken toward
/// the lower rank, deterministically), then divided by the global `C₀/C`.
/// The result is clamped to `n ≥ 1` (by definition the concentration
/// factor cannot be below uniform).
pub fn concentration_point(
    step: u64,
    stats: &[PeCellStats],
    total_cells: usize,
) -> ConcentrationPoint {
    assert!(!stats.is_empty(), "need at least one PE");
    assert!(total_cells > 0);
    let c0: usize = stats.iter().map(|s| s.empty_cells).sum();
    let cells_sum: usize = stats.iter().map(|s| s.cells).sum();
    debug_assert_eq!(cells_sum, total_cells, "per-PE cells must partition C");
    let c0_over_c = c0 as f64 / total_cells as f64;

    let max_cells_pe = stats
        .iter()
        .max_by(|a, b| a.cells.cmp(&b.cells).then(b.rank.cmp(&a.rank)))
        .expect("non-empty");
    let max_empty_pe = stats
        .iter()
        .max_by(|a, b| a.empty_cells.cmp(&b.empty_cells).then(b.rank.cmp(&a.rank)))
        .expect("non-empty");

    let frac = |s: &PeCellStats| {
        if s.cells == 0 {
            0.0
        } else {
            s.empty_cells as f64 / s.cells as f64
        }
    };
    let avg_frac = 0.5 * (frac(max_cells_pe) + frac(max_empty_pe));
    let n = if c0_over_c > 0.0 {
        (avg_frac / c0_over_c).max(1.0)
    } else {
        1.0
    };
    ConcentrationPoint { step, n, c0_over_c }
}

/// Least-squares fit of a line `y = a + b·n` through boundary points —
/// the paper's "experimental boundary" through the per-density boundary
/// points in `(n, C₀/C)` space (Fig. 10).
pub fn least_squares_line(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "degenerate fit: all x values coincide");
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(rank: usize, cells: usize, empty: usize, parts: usize) -> PeCellStats {
        PeCellStats {
            rank,
            cells,
            empty_cells: empty,
            particles: parts,
        }
    }

    #[test]
    fn uniform_distribution_has_n_equal_one() {
        // 4 PEs × 25 cells, every PE 40% empty → C₀/C = 0.4, n = 1.
        let stats: Vec<_> = (0..4).map(|r| st(r, 25, 10, 30)).collect();
        let p = concentration_point(7, &stats, 100);
        assert_eq!(p.step, 7);
        assert!((p.c0_over_c - 0.4).abs() < 1e-12);
        assert!((p.n - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concentrated_case_matches_paper_fig8() {
        // Paper Fig. 8 numbers: C = 81, C₀ = 36, max domain C' = 21 with
        // C₀' = 16 → n = (16/21)/(36/81) ≈ 1.7.
        // Model: PE 0 is both the max-cells and max-empty PE.
        let mut stats = vec![st(0, 21, 16, 10)];
        // Remaining 60 cells, 20 empty, spread over 8 PEs.
        for r in 1..=8 {
            stats.push(st(
                r,
                60 / 8 + usize::from(r <= 60 % 8),
                20 / 8 + usize::from(r <= 20 % 8),
                10,
            ));
        }
        let total_cells: usize = stats.iter().map(|s| s.cells).sum();
        let c0: usize = stats.iter().map(|s| s.empty_cells).sum();
        assert_eq!(total_cells, 81);
        assert_eq!(c0, 36);
        let p = concentration_point(0, &stats, 81);
        let expect = (16.0 / 21.0) / (36.0 / 81.0);
        assert!((p.n - expect).abs() < 1e-12, "n = {}, expect {expect}", p.n);
        assert!((expect - 1.714).abs() < 0.01); // the paper's ≈1.7
    }

    #[test]
    fn estimator_averages_two_distinct_pes() {
        // PE 0 owns the most cells (low empty fraction); PE 1 owns the
        // most empty cells (high fraction). n uses their average.
        let stats = vec![st(0, 40, 4, 100), st(1, 30, 21, 5), st(2, 30, 5, 50)];
        let p = concentration_point(0, &stats, 100);
        let c0r = 30.0 / 100.0;
        let expect = (0.5 * (4.0 / 40.0 + 21.0 / 30.0)) / c0r;
        assert!((p.n - expect).abs() < 1e-12);
    }

    #[test]
    fn n_clamps_at_one_from_below() {
        // Max-cells PE emptier than average is impossible combinatorially
        // here, but the estimator must still never report n < 1.
        let stats = vec![st(0, 50, 1, 100), st(1, 50, 48, 2)];
        let p = concentration_point(0, &stats, 100);
        assert!(p.n >= 1.0);
    }

    #[test]
    fn zero_empty_cells_defines_n_one() {
        let stats = vec![st(0, 50, 0, 10), st(1, 50, 0, 10)];
        let p = concentration_point(0, &stats, 100);
        assert_eq!(p.n, 1.0);
        assert_eq!(p.c0_over_c, 0.0);
    }

    #[test]
    fn tie_break_is_deterministic_toward_low_rank() {
        let a = vec![st(0, 50, 10, 10), st(1, 50, 10, 10)];
        let b = vec![st(1, 50, 10, 10), st(0, 50, 10, 10)];
        let pa = concentration_point(0, &a, 100);
        let pb = concentration_point(0, &b, 100);
        assert_eq!(pa, pb);
    }

    #[test]
    fn least_squares_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let x = 1.0 + i as f64 * 0.3;
                (x, 0.2 - 0.05 * x)
            })
            .collect();
        let (a, b) = least_squares_line(&pts);
        assert!((a - 0.2).abs() < 1e-12);
        assert!((b + 0.05).abs() < 1e-12);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        let pts = vec![(1.0, 0.30), (1.5, 0.22), (2.0, 0.18), (3.0, 0.10)];
        let (a, b) = least_squares_line(&pts);
        let res =
            |a: f64, b: f64| -> f64 { pts.iter().map(|(x, y)| (y - a - b * x).powi(2)).sum() };
        let base = res(a, b);
        for da in [-0.01, 0.01] {
            for db in [-0.01, 0.01] {
                assert!(res(a + da, b + db) >= base);
            }
        }
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn vertical_line_rejected() {
        let _ = least_squares_line(&[(1.0, 0.1), (1.0, 0.2)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_stats() -> impl Strategy<Value = Vec<PeCellStats>> {
        proptest::collection::vec((1usize..200, 0usize..200, 0usize..500), 1..20).prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(rank, (cells, empty, parts))| PeCellStats {
                    rank,
                    cells,
                    empty_cells: empty.min(cells),
                    particles: parts,
                })
                .collect()
        })
    }

    proptest! {
        /// The estimator always produces n ≥ 1 and C₀/C ∈ [0, 1].
        #[test]
        fn prop_concentration_point_is_well_formed(stats in arb_stats()) {
            let total: usize = stats.iter().map(|s| s.cells).sum();
            let p = concentration_point(3, &stats, total);
            prop_assert!(p.n >= 1.0);
            prop_assert!((0.0..=1.0).contains(&p.c0_over_c));
        }

        /// Permuting the PE list never changes the estimate (rank ids are
        /// carried inside the stats).
        #[test]
        fn prop_estimator_is_order_independent(stats in arb_stats()) {
            let total: usize = stats.iter().map(|s| s.cells).sum();
            let a = concentration_point(0, &stats, total);
            let mut rev = stats.clone();
            rev.reverse();
            let b = concentration_point(0, &rev, total);
            prop_assert_eq!(a, b);
        }

        /// The least-squares line goes through the data's centroid.
        #[test]
        fn prop_ls_line_passes_centroid(
            pts in proptest::collection::vec((1.0f64..5.0, -1.0f64..1.0), 2..20)
        ) {
            // Skip near-degenerate x spreads.
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let spread = xs.iter().cloned().fold(f64::MIN, f64::max)
                - xs.iter().cloned().fold(f64::MAX, f64::min);
            prop_assume!(spread > 1e-3);
            let (a, b) = least_squares_line(&pts);
            let n = pts.len() as f64;
            let cx = pts.iter().map(|p| p.0).sum::<f64>() / n;
            let cy = pts.iter().map(|p| p.1).sum::<f64>() / n;
            prop_assert!((cy - (a + b * cx)).abs() < 1e-9);
        }
    }
}
