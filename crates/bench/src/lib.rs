//! `pcdlb-bench` — the paper's evaluation harness.
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index): `fig5`, `fig6`, `fig9`, `fig10`, `table1`, plus the `shapes`,
//! `shapes_measured`, `baseline1d` and `dlb_freq` ablations. Each prints
//! the same rows/series the paper reports, in plain gnuplot-friendly
//! columns. `benchmark` is the one performance ruler (`BENCHMARK.json`).
//!
//! Scaling: the default invocations are sized to finish on a laptop-class
//! single-core host in minutes; `--scale paper` runs the full paper
//! parameters (hours). `EXPERIMENTS.md` records which scale produced the
//! committed numbers. The paper reached high particle concentration by
//! running a supercooled gas for ~10⁴ steps; by default the harness
//! drives concentration with the central-pull substitution
//! (`--pull 0` + `--steps 10000` restores the paper's natural
//! condensation; see DESIGN.md).

use std::collections::BTreeMap;

use pcdlb_core::boundary::BoundaryDetector;
use pcdlb_core::theory;
use pcdlb_domain::PillarLayout;
use pcdlb_sim::pe::initial_particles;
use pcdlb_sim::{launch_plan, DomainShape, Launch, Placed, RunConfig, RunReport};

/// Minimal `--key value` / `--flag` argument parser for the experiment
/// binaries (no CLI dependency in the approved crate list).
#[derive(Debug, Default)]
pub struct Args {
    map: BTreeMap<String, String>,
}

impl Args {
    /// Parse `std::env::args`, treating `--key value` as a pair and a
    /// trailing/bare `--flag` as `flag=true`.
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::from_slice(&argv)
    }

    /// Parse from a slice (testable).
    pub fn from_slice(argv: &[String]) -> Self {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let key = a.trim_start_matches('-').to_string();
            assert!(
                a.starts_with("--"),
                "unexpected argument `{a}` (use --key value)"
            );
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                map.insert(key, argv[i + 1].clone());
                i += 2;
            } else {
                map.insert(key, "true".to_string());
                i += 1;
            }
        }
        Self { map }
    }

    /// String value with default.
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.map.get(key).map(String::as_str).unwrap_or(default)
    }

    /// `f64` value with default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.map
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} wants a number, got `{v}`"))
            })
            .unwrap_or(default)
    }

    /// `u64` value with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.map
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} wants an integer, got `{v}`"))
            })
            .unwrap_or(default)
    }

    /// `usize` value with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get_u64(key, default as u64) as usize
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key, "false") == "true"
    }
}

/// Print a column header with a `#` prefix (gnuplot comment convention).
pub fn print_header(cols: &[&str]) {
    println!("# {}", cols.join("\t"));
}

/// Run `cfg` on the square pillar as the paper's figures measure it: on
/// tiles cut once, at launch ([`Launch::fixed_tiles`]). Every experiment
/// binary launches this way; the "DLB + re-tile" series beside Fig. 9 is
/// the one exception, and says so.
pub fn run_fixed(cfg: &RunConfig) -> RunReport {
    Launch::new().fixed_tiles().run(cfg).report
}

/// The tiling a square-pillar run of `cfg` launches on under
/// [`run_fixed`]: the paper's `m × m` tiles unless the run balances and
/// its launch re-cut them.
pub fn launch_tiling(cfg: &RunConfig) -> PillarLayout {
    let work = Placed::new(cfg, &initial_particles(cfg)).column_work();
    launch_plan(DomainShape::SquarePillar, cfg, 0, &work, false).tiling()
}

/// What an experiment binary's header says beside `m` about the tiling a
/// balancing run launched on: nothing for the paper's `m × m` tiles, the
/// widths (`", launched on widths 2·1·3 from 0 × 2·2·2 from 0"`) where
/// the launch re-cut them.
pub fn widths_note(tiling: &PillarLayout) -> String {
    if tiling.is_even() {
        String::new()
    } else {
        format!(", launched on widths {tiling}")
    }
}

/// One boundary-experiment result for a `(P, m, ρ)` cell.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryPoint {
    /// PE count.
    pub p: usize,
    /// Tile size.
    pub m: usize,
    /// Reduced density.
    pub density: f64,
    /// Boundary step found by the detector.
    pub step: u64,
    /// Concentration factor at the boundary.
    pub n: f64,
    /// Concentration ratio `C₀/C` at the boundary.
    pub c0_over_c: f64,
    /// Theoretical bound `f(m, n)` at that `n`.
    pub theory: f64,
}

impl BoundaryPoint {
    /// The paper's E/T ratio for this point.
    pub fn e_over_t(&self) -> f64 {
        self.c0_over_c / self.theory
    }
}

/// Find the experimental boundary step index of a run (paper Sec. 4.2).
///
/// Detection runs on the `Fave`-normalised spread `(Fmax − Fmin)/Fave`:
/// under a concentration driver the *total* work grows even while
/// perfectly balanced, so the raw difference would drift upward without
/// any loss of balance. The flat-segment minimum skips the settling phase
/// in which DLB is still spreading the initial lattice imbalance.
pub fn detect_boundary_index(report: &pcdlb_sim::RunReport) -> Option<usize> {
    let series: Vec<f64> = report
        .records
        .iter()
        .map(|r| (r.f_max - r.f_min) / r.f_ave.max(1e-300))
        .collect();
    let detector = BoundaryDetector {
        min_flat: 200,
        min_rise: 100,
        ..BoundaryDetector::default()
    };
    detector.detect(&series).map(|b| b.index)
}

/// The configuration of one boundary experiment: a DLB run on
/// `(P, m, ρ)` whose concentration is driven at `pull` for `steps`.
pub fn boundary_cfg(
    p: usize,
    m: usize,
    density: f64,
    steps: u64,
    pull: f64,
    seed: u64,
) -> RunConfig {
    let mut cfg = RunConfig::from_p_m_density(p, m, density);
    cfg.steps = steps;
    cfg.dlb = true;
    cfg.central_pull = pull;
    // Corner hotspot: concentrates the gas onto one corner of the PE grid
    // so the DLB limit is approached quasi-statically. At high densities
    // the trajectory can saturate below the bound — DLB then stays
    // effective for the whole run and no boundary exists (reported as
    // such), which the paper's natural condensation avoided by reaching
    // higher concentration factors n.
    cfg.pull_corner = true;
    cfg.dlb_min_gain = 0.05; // suppress churn on noise-level imbalance
    cfg.seed = seed;
    cfg
}

/// Run one boundary experiment ([`boundary_cfg`]) on fixed tiles
/// ([`run_fixed`]), with the experimental boundary detected from the
/// `Fmax − Fmin` series (paper Sec. 4.2). Returns `None` if the imbalance
/// never starts a significant rise within the budget (the DLB limit was
/// not reached).
pub fn measure_boundary(
    p: usize,
    m: usize,
    density: f64,
    steps: u64,
    pull: f64,
    seed: u64,
) -> Option<BoundaryPoint> {
    let report = run_fixed(&boundary_cfg(p, m, density, steps, pull, seed));
    let idx = detect_boundary_index(&report)?;
    let rec = &report.records[idx];
    let n = rec.n_factor;
    Some(BoundaryPoint {
        p,
        m,
        density,
        step: rec.step,
        n,
        c0_over_c: rec.c0_over_c,
        theory: theory::upper_bound(m, n),
    })
}

/// Average boundary points over seeds (the paper averages ten runs per
/// point); `None` when no seed produced a detection.
pub fn measure_boundary_averaged(
    p: usize,
    m: usize,
    density: f64,
    steps: u64,
    pull: f64,
    seeds: &[u64],
) -> Option<BoundaryPoint> {
    let pts: Vec<BoundaryPoint> = seeds
        .iter()
        .filter_map(|&s| measure_boundary(p, m, density, steps, pull, s))
        .collect();
    if pts.is_empty() {
        return None;
    }
    let k = pts.len() as f64;
    let n = pts.iter().map(|b| b.n).sum::<f64>() / k;
    let c0 = pts.iter().map(|b| b.c0_over_c).sum::<f64>() / k;
    Some(BoundaryPoint {
        p,
        m,
        density,
        step: (pts.iter().map(|b| b.step).sum::<u64>() as f64 / k) as u64,
        n,
        c0_over_c: c0,
        theory: theory::upper_bound(m, n),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcdlb_md::cells::{CellGrid, NEIGHBOR_OFFSETS_27};
    use pcdlb_md::force::{PairKernel, WorkCounters};
    use pcdlb_md::Vec3;

    fn args(s: &[&str]) -> Args {
        Args::from_slice(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = args(&["--steps", "100", "--paper", "--pull", "0.05"]);
        assert_eq!(a.get_u64("steps", 1), 100);
        assert!(a.flag("paper"));
        assert!(!a.flag("other"));
        assert_eq!(a.get_f64("pull", 0.0), 0.05);
        assert_eq!(a.get("scale", "small"), "small");
    }

    #[test]
    #[should_panic(expected = "wants a number")]
    fn bad_number_rejected() {
        args(&["--pull", "abc"]).get_f64("pull", 0.0);
    }

    /// The pre-half-shell force pass, the whole-grid oracle of the test
    /// below: every home cell runs the directed kernel against all 27
    /// neighbour images, so each interacting pair is evaluated twice
    /// (once from each end).
    fn full_shell_forces(
        grid: &CellGrid,
        kernel: &PairKernel,
        forces: &mut Vec<Vec3>,
    ) -> WorkCounters {
        let mut work = WorkCounters::default();
        forces.clear();
        forces.resize(grid.num_particles(), Vec3::ZERO);
        for idx in 0..grid.total_cells() {
            let hr = grid.cell_range(idx);
            if hr.is_empty() {
                continue;
            }
            let home = grid.coord_of(idx);
            let targets = grid.cell_by_index(idx);
            for offset in NEIGHBOR_OFFSETS_27 {
                let (ncell, shift) = grid.wrap_neighbor(home, offset);
                let neighbors = grid.cell(ncell);
                if neighbors.is_empty() {
                    continue;
                }
                kernel.accumulate(
                    targets,
                    &mut forces[hr.clone()],
                    neighbors,
                    shift,
                    &mut work,
                );
            }
        }
        work
    }

    #[test]
    fn full_shell_baseline_matches_half_shell_kernel() {
        // The half-shell walk must compute the same physics and book the
        // same full-shell work units as the paper's 27-neighbour sweep
        // over a whole grid (`crates/md`'s own tests compare one cell or
        // one cell pair at a time).
        use pcdlb_md::force::ExternalPull;
        use pcdlb_md::{init, LennardJones};

        let box_len: f64 = 2.56 * 5.0;
        let n = (0.256 * box_len.powi(3)) as usize;
        let mut ps = init::simple_cubic(n, box_len);
        init::maxwell_boltzmann(&mut ps, 0.722, 7);
        let mut grid = CellGrid::new(5, box_len);
        for p in ps {
            grid.insert(p);
        }
        grid.canonicalize();
        let kernel = PairKernel::new(LennardJones::paper());

        let mut f_full = Vec::new();
        let w_full = full_shell_forces(&grid, &kernel, &mut f_full);
        let mut f_half = Vec::new();
        let w_half = pcdlb_md::serial::compute_forces_half_shell(
            &grid,
            &kernel,
            &ExternalPull::None,
            &mut f_half,
        );

        assert_eq!(w_full.pair_checks, w_half.pair_checks);
        assert_eq!(w_full.interacting_pairs, w_half.interacting_pairs);
        assert!((w_full.potential - w_half.potential).abs() < 1e-9);
        assert!((w_full.virial - w_half.virial).abs() < 1e-9);
        assert_eq!(f_full.len(), f_half.len());
        for (a, b) in f_full.iter().zip(&f_half) {
            assert!(
                (*a - *b).norm2().sqrt() < 1e-9,
                "forces diverged: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn e_over_t_ratio() {
        let b = BoundaryPoint {
            p: 36,
            m: 2,
            density: 0.256,
            step: 100,
            n: 1.5,
            c0_over_c: 0.3,
            theory: 0.46,
        };
        assert!((b.e_over_t() - 0.3 / 0.46).abs() < 1e-12);
    }
}
