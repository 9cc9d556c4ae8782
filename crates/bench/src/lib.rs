//! `pcdlb-bench` — the paper's evaluation harness.
//!
//! [`EXPERIMENTS`] is the table of every file in `results/` (DESIGN.md's
//! experiment index): the paper's Figs. 5, 6, 9 and 10 and Table 1, the
//! re-tiling series beside Fig. 9, and the `shapes`, `shapes_measured`,
//! `dlb_freq` and `baseline1d` ablations. An entry names its file, the runs
//! it needs ([`RunSpec`]) and a render function that prints the rows the
//! paper reports, in plain gnuplot-friendly columns. The `paper` binary
//! runs the selected entries through one [`Lab`], which makes each distinct
//! run once however many entries read it, and writes `<out>/<name>.txt`:
//!
//! ```text
//! paper [NAME…] [--paper] [--seeds S] [--steps N] [--pull K] [--out DIR]
//! ```
//!
//! With no flags it rewrites `results/` (52 runs). The defaults are sized
//! to finish in minutes; `--paper` runs the paper's geometries and PE
//! counts (hours). The paper reached high particle concentration by running
//! a supercooled gas for ~10⁴ steps; by default the harness drives
//! concentration with the central-pull substitution (`--pull 0` + `--steps
//! 10000` restores the paper's natural condensation; see DESIGN.md).
//! `benchmark` is the one performance ruler (`BENCHMARK.json`).

use std::io::{self, Write};
use std::path::PathBuf;

use pcdlb_core::boundary::BoundaryDetector;
use pcdlb_core::metrics::least_squares_line;
use pcdlb_core::theory;
use pcdlb_mp::CostModel;
use pcdlb_sim::{DomainShape, Lattice, Launch, RunConfig, RunReport, StepRecord};

/// What the `paper` binary was asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// `--paper`: the paper's sizes where an entry has them — Figs. 5 and 6
    /// on the `fig5a` / `fig5b` geometries for 10⁴ steps at pull 0, Fig. 10
    /// at P = 36, Table 1 at P ∈ {16, 36, 64}.
    pub paper: bool,
    /// `--seeds S`: Fig. 10 and Table 1 average seeds 1..=S per point.
    pub seeds: u64,
    /// `--steps N`: every run's step count in place of its entry's own.
    pub steps: Option<u64>,
    /// `--pull K`: every driven run's central pull in place of its entry's.
    pub pull: Option<f64>,
    /// `--out DIR`: where the files go.
    pub out: PathBuf,
    /// The entries asked for by name; all of them where empty.
    pub names: Vec<String>,
}

impl Default for Opts {
    /// No flags: what `results/` holds.
    fn default() -> Self {
        Self {
            paper: false,
            seeds: 1,
            steps: None,
            pull: None,
            out: PathBuf::from("results"),
            names: Vec::new(),
        }
    }
}

impl Opts {
    /// The command line's options, or what is wrong with it: an unknown
    /// flag or entry, a value that does not parse, or an off-default flag
    /// without `--out` (so it cannot overwrite the committed `results/`).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
            let value = value.ok_or(format!("{flag} wants a value"))?;
            value
                .parse()
                .map_err(|_| format!("{flag} wants a number, got `{value}`"))
        }
        let mut o = Self::default();
        let mut out = None;
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper" => o.paper = true,
                "--seeds" => o.seeds = number(arg, args.next())?,
                "--steps" => o.steps = Some(number(arg, args.next())?),
                "--pull" => o.pull = Some(number(arg, args.next())?),
                "--out" => out = Some(args.next().ok_or("--out wants a directory")?.into()),
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                name if EXPERIMENTS.iter().any(|e| e.name == name) => o.names.push(name.into()),
                name => return Err(format!("unknown experiment `{name}`")),
            }
        }
        if o.seeds == 0 || o.steps == Some(0) {
            return Err("--seeds and --steps want at least 1".into());
        }
        let off_default = o.paper || o.seeds != 1 || o.steps.is_some() || o.pull.is_some();
        match out {
            Some(dir) => o.out = dir,
            None if off_default => return Err("--paper/--seeds/--steps/--pull need --out".into()),
            None => {}
        }
        Ok(o)
    }

    /// The entries to run, in table order.
    pub fn selected(&self) -> impl Iterator<Item = &'static Experiment> + '_ {
        EXPERIMENTS
            .iter()
            .filter(|e| self.names.is_empty() || self.names.iter().any(|n| n == e.name))
    }
}

/// One simulation an experiment reads. Entries that need the same one
/// share one run ([`Lab`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// What to run.
    pub cfg: RunConfig,
    /// The decomposition it runs on.
    pub shape: DomainShape,
    /// Tiles that follow the load instead of the paper's scheme, tiles cut
    /// once at launch ([`Launch::fixed_tiles`]). Only the series beside
    /// Fig. 9 re-tiles.
    pub retile: bool,
}

impl RunSpec {
    /// `cfg` on `shape`, on tiles cut once at launch where it has tiles.
    pub fn on(shape: DomainShape, cfg: RunConfig) -> Self {
        let retile = false;
        Self { cfg, shape, retile }
    }

    /// `cfg` on the square pillar, on tiles cut once at launch.
    pub fn fixed(cfg: RunConfig) -> Self {
        Self::on(DomainShape::SquarePillar, cfg)
    }

    /// Run it.
    pub fn run(&self) -> RunReport {
        let launch = Launch::new().shape(self.shape);
        let launch = if self.retile {
            launch
        } else {
            launch.fixed_tiles()
        };
        launch.run(&self.cfg).report
    }
}

/// A run an entry asked for, and its report.
pub type Done<'a> = (&'a RunSpec, &'a RunReport);

/// One file of `results/`.
pub struct Experiment {
    /// The file's stem: `results/<name>.txt`.
    pub name: &'static str,
    /// Its first line, after the `# `.
    pub title: &'static str,
    /// The runs it reads, in the order `render` receives them.
    pub runs: fn(&Opts) -> Vec<RunSpec>,
    /// Write the rest of the file from those runs.
    pub render: fn(&Opts, &[Done<'_>], &mut dyn Write) -> io::Result<()>,
}

/// Every file of `results/`, in the paper's order.
pub static EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        name: "fig5",
        title: "Fig. 5 reproduction: execution time per step, DDM vs DLB-DDM",
        runs: |o| [fig5_pair(o, o.paper, 4), fig5_pair(o, o.paper, 2)].concat(),
        render: fig5,
    },
    Experiment {
        name: "fig6",
        title: "Fig. 6 reproduction: Tt / Fmax / Fave / Fmin per step",
        runs: |o| fig5_pair(o, o.paper, 4).to_vec(),
        render: fig6,
    },
    Experiment {
        name: "fig9",
        title: "Fig. 9 reproduction: trajectory in (n, C0/C) space",
        runs: |o| vec![fig9_run(o, false)],
        render: trajectory,
    },
    Experiment {
        name: "fig9_retile",
        title: "Fig. 9 beside the paper: DLB + re-tile (tiles follow the load)",
        runs: |o| vec![fig9_run(o, true), fig9_run(o, false)],
        render: trajectory,
    },
    Experiment {
        name: "fig10",
        title: "Fig. 10 reproduction: theoretical bound vs experimental boundary",
        runs: |o| boundary_runs(o, &[if o.paper { 36 } else { 9 }]),
        render: fig10,
    },
    Experiment {
        name: "table1",
        title: "Table 1 reproduction: ratio E/T of experimental boundary to theoretical bound",
        runs: |o| boundary_runs(o, table1_pes(o)),
        render: table1,
    },
    Experiment {
        name: "shapes",
        title: "Domain-shape ablation: modelled ghost-exchange time per step per PE",
        runs: |_| Vec::new(),
        render: shapes,
    },
    Experiment {
        name: "shapes_measured",
        title: "Measured per-PE per-step communication of the three domain shapes",
        runs: shapes_measured_runs,
        render: shapes_measured,
    },
    Experiment {
        name: "dlb_freq",
        title: "DLB-frequency ablation on a concentrating workload",
        runs: dlb_freq_runs,
        render: dlb_freq,
    },
    Experiment {
        name: "baseline1d",
        title: "Permanent-cell DLB vs 1-D moving-boundary baseline",
        runs: baseline1d_runs,
        render: baseline1d,
    },
];

/// The runs one invocation has made: each distinct [`RunSpec`] once.
#[derive(Default)]
pub struct Lab {
    made: Vec<(RunSpec, RunReport)>,
}

impl Lab {
    /// Write `e`'s text to `out`, first making the runs it needs that this
    /// lab has not made yet.
    pub fn render(&mut self, e: &Experiment, o: &Opts, out: &mut dyn Write) -> io::Result<()> {
        let specs = (e.runs)(o);
        for spec in &specs {
            if self.find(spec).is_none() {
                let report = spec.run();
                self.made.push((spec.clone(), report));
            }
        }
        let done: Option<Vec<Done<'_>>> = specs.iter().map(|s| self.find(s)).collect();
        writeln!(out, "# {}", e.title)?;
        (e.render)(o, &done.expect("every run made above"), out)
    }

    /// The run of `spec`, if this lab made it.
    fn find(&self, spec: &RunSpec) -> Option<Done<'_>> {
        self.made
            .iter()
            .find(|(s, _)| s == spec)
            .map(|(s, r)| (s, r))
    }

    /// How many simulations this lab has run.
    pub fn runs(&self) -> usize {
        self.made.len()
    }
}

/// The records a series prints: every `steps / 50`-th.
fn rows(rep: &RunReport) -> impl Iterator<Item = &StepRecord> {
    let every = (rep.records.len() as u64 / 50).max(1);
    rep.records
        .iter()
        .filter(move |r| r.step.is_multiple_of(every))
}

/// Mean of `f` over `records`.
fn mean<T>(records: &[T], f: impl Fn(&T) -> f64) -> f64 {
    records.iter().map(f).sum::<f64>() / records.len() as f64
}

/// The last `1/part` of a run: what the late-phase summaries average.
fn last(rep: &RunReport, part: usize) -> &[StepRecord] {
    &rep.records[rep.records.len() * (part - 1) / part..]
}

/// Columns moved during the run's steps.
fn transfers(rep: &RunReport) -> u32 {
    rep.records.iter().map(|r| r.transfers).sum()
}

/// What a header says beside `m` about the tiling a fixed-tile pillar run
/// launched on: nothing for the paper's `m × m` tiles, the widths
/// (`", launched on widths 2·1·3 from 0 × 2·2·2 from 0"`) where it re-cut.
fn widths_note(rep: &RunReport) -> String {
    let tiling = rep.tiling.as_ref().expect("a pillar tiling");
    if tiling.is_even() {
        String::new()
    } else {
        format!(", launched on widths {tiling}")
    }
}

/// The Fig. 5 workload on `m × m` tiles (4 for (a), 2 for (b)), DDM and
/// DLB-DDM: P = 9 driven at pull 0.08 for 2000 steps, or on the `paper`'s
/// P = 36 geometry condensing on its own for 10⁴ steps.
fn fig5_pair(o: &Opts, paper: bool, m: usize) -> [RunSpec; 2] {
    let mut cfg = match (paper, m) {
        (false, _) => RunConfig::from_p_m_density(9, m, 0.256),
        (true, 4) => RunConfig::fig5a(),
        (true, _) => RunConfig::fig5b(),
    };
    cfg.steps = o.steps.unwrap_or(if paper { 10_000 } else { 2000 });
    cfg.central_pull = o.pull.unwrap_or(if paper { 0.0 } else { 0.08 });
    cfg.dlb_min_gain = 0.05;
    [false, true].map(|dlb| RunSpec::fixed(RunConfig { dlb, ..cfg.clone() }))
}

/// Paper Fig. 5: execution time per step, DDM vs DLB-DDM, (a) m = 4 and
/// (b) m = 2 (Sec. 3.3).
fn fig5(o: &Opts, done: &[Done<'_>], out: &mut dyn Write) -> io::Result<()> {
    let c = &done[0].0.cfg;
    let (steps, pull, gain) = (c.steps, c.central_pull, c.dlb_min_gain);
    let scale = if o.paper { "paper" } else { "small" };
    writeln!(out, "# scale={scale} steps={steps} pull={pull} gain={gain}")?;
    for (pair, label) in done.chunks(2).zip(["a(m=4)", "b(m=2)"]) {
        let ((spec, ddm), (_, dlb)) = (pair[0], pair[1]);
        let (c, note) = (&spec.cfg, widths_note(dlb));
        let (p, n, cells, m) = (c.p, c.n_particles, c.total_cells(), c.m());
        writeln!(out, "\n## Fig 5({label}) P={p} N={n} C={cells} m={m}{note}")?;
        writeln!(out, "# step\tTt_DDM[s]\tTt_DLB-DDM[s]\tC0/C\tn")?;
        for (a, b) in rows(ddm).zip(rows(dlb)) {
            writeln!(
                out,
                "{}\t{:.6}\t{:.6}\t{:.4}\t{:.3}",
                a.step, a.t_step, b.t_step, b.c0_over_c, b.n_factor
            )?;
        }
        let t_ddm = mean(last(ddm, 5), |r| r.t_step);
        let t_dlb = mean(last(dlb, 5), |r| r.t_step);
        writeln!(
            out,
            "# late-phase mean Tt: DDM {t_ddm:.6} s, DLB-DDM {t_dlb:.6} s, speedup {:.2}x",
            t_ddm / t_dlb
        )?;
        writeln!(out, "# DLB transfers over the run: {}", transfers(dlb))?;
    }
    Ok(())
}

/// Paper Fig. 6, on Fig. 5(a)'s runs: `Tt`, `Fmax`, `Fave`, `Fmin` per step
/// for (a) DDM and (b) DLB-DDM, and how fast `Fmax − Fmin` grows
/// (Sec. 3.3).
fn fig6(o: &Opts, done: &[Done<'_>], out: &mut dyn Write) -> io::Result<()> {
    let ((spec, ddm), (_, dlb)) = (done[0], done[1]);
    let c = &spec.cfg;
    let scale = if o.paper { "paper" } else { "small" };
    let (p, n, cells, m) = (c.p, c.n_particles, c.total_cells(), c.m());
    let (steps, pull) = (c.steps, c.central_pull);
    writeln!(
        out,
        "# scale={scale} P={p} N={n} C={cells} m={m} steps={steps} pull={pull}"
    )?;
    let dlb_title = format!("(b) DLB-DDM{}", widths_note(dlb));
    for (title, rep) in [("(a) DDM", ddm), (dlb_title.as_str(), dlb)] {
        writeln!(out, "\n## {title}")?;
        writeln!(out, "# step\tTt[s]\tFmax[s]\tFave[s]\tFmin[s]")?;
        for r in rows(rep) {
            writeln!(
                out,
                "{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
                r.step, r.t_step, r.f_max, r.f_ave, r.f_min
            )?;
        }
        let gap = |r: &StepRecord| r.f_max - r.f_min;
        let early = mean(&rep.records[..rep.records.len() / 5], gap);
        let late = mean(last(rep, 5), gap);
        writeln!(
            out,
            "# mean Fmax-Fmin: early {early:.6} s, late {late:.6} s, growth {:.2}x",
            late / early.max(1e-12)
        )?;
    }
    Ok(())
}

/// Fig. 9's run, Fig. 5(b)'s DLB run at P = 9 whatever `--paper` says, on
/// fixed tiles or `retile`-ing.
fn fig9_run(o: &Opts, retile: bool) -> RunSpec {
    let [_, mut dlb] = fig5_pair(o, false, 2);
    dlb.retile = retile;
    dlb
}

/// Paper Fig. 9: a run's trajectory in `(n, C₀/C)` space beside `f(m, n)`,
/// and its experimental boundary point (Sec. 4.2). A re-tiling run also
/// lists its re-tiles and compares its mean `Tt` with the fixed-tile run
/// that follows it in `done`.
fn trajectory(_: &Opts, done: &[Done<'_>], out: &mut dyn Write) -> io::Result<()> {
    let (spec, report) = done[0];
    let (c, m) = (&spec.cfg, spec.cfg.m());
    let (p, rho, n, steps, pull) = (c.p, c.density, c.n_particles, c.steps, c.central_pull);
    writeln!(
        out,
        "# P={p} m={m} rho={rho} N={n} steps={steps} pull={pull}"
    )?;
    writeln!(out, "# step\tn\tC0/C\tf(m,n)\tFmax-Fmin[s]")?;
    for r in rows(report) {
        writeln!(
            out,
            "{}\t{:.4}\t{:.4}\t{:.4}\t{:.6}",
            r.step,
            r.n_factor,
            r.c0_over_c,
            theory::upper_bound(m, r.n_factor),
            r.imbalance()
        )?;
    }
    match cell_boundary(&done[..1]) {
        Some(b) => writeln!(
            out,
            "# experimental boundary point: step {} at (n={:.4}, C0/C={:.4}); \
             theoretical bound f({m},{:.4})={:.4}; E/T={:.3}",
            b.step,
            b.n,
            b.c0_over_c,
            b.n,
            b.theory,
            b.e_over_t()
        )?,
        None => writeln!(
            out,
            "# no boundary detected within {} steps — DLB kept the load \
             balanced for the whole run (increase --steps or --pull)",
            c.steps
        )?,
    }
    if let Some(&(_, fixed)) = done.get(1) {
        for (step, tiling, moved) in &report.retiles {
            writeln!(
                out,
                "# re-tiled at step {step}: tile widths {tiling}, {moved} columns moved"
            )?;
        }
        let mean_ms = |r: &RunReport| mean(&r.records, |r| r.t_step) * 1e3;
        writeln!(
            out,
            "# mean Tt: {:.4} model_ms on fixed tiles, {:.4} with re-tiling",
            mean_ms(fixed),
            mean_ms(report)
        )?;
    }
    Ok(())
}

/// The reduced densities of Fig. 10 and Table 1.
const DENSITIES: [f64; 4] = [0.128, 0.256, 0.384, 0.512];

/// Table 1's PE counts: {9, 16} keep the default run in minutes; the
/// paper's {16, 36, 64} are much heavier (N grows with P at fixed m
/// because the cell size is pinned to the cutoff).
fn table1_pes(o: &Opts) -> &'static [usize] {
    if o.paper {
        &[16, 36, 64]
    } else {
        &[9, 16]
    }
}

/// The boundary runs of m = 2, 3, 4 (outermost) and every `P`: at each
/// density one run per seed.
fn boundary_runs(o: &Opts, pes: &[usize]) -> Vec<RunSpec> {
    let (steps, pull) = (o.steps.unwrap_or(2200), o.pull.unwrap_or(0.08));
    let mut runs = Vec::new();
    for m in [2, 3, 4] {
        for &p in pes {
            for rho in DENSITIES {
                let cfgs = (1..=o.seeds).map(|seed| boundary_cfg(p, m, rho, steps, pull, seed));
                runs.extend(cfgs.map(RunSpec::fixed));
            }
        }
    }
    runs
}

/// Paper Fig. 10: the bound `f(m, n)` and the experimental boundary points
/// and line in `(n, C₀/C)` space for m = 2, 3, 4, one point per density.
fn fig10(o: &Opts, done: &[Done<'_>], out: &mut dyn Write) -> io::Result<()> {
    let c = &done[0].0.cfg;
    let (p, steps, pull, seeds) = (c.p, c.steps, c.central_pull, o.seeds);
    writeln!(out, "# P={p} steps={steps} pull={pull} seeds={seeds}")?;
    let mut cells = done.chunks(o.seeds as usize);
    for m in [2usize, 3, 4] {
        writeln!(out, "\n## Fig 10 (m={m})")?;
        writeln!(out, "# theoretical bound f({m}, n):\n# n\tf(m,n)")?;
        for k in [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0] {
            writeln!(out, "{k:.2}\t{:.4}", theory::upper_bound(m, k))?;
        }
        writeln!(out, "# experimental boundary points:")?;
        writeln!(out, "# rho\tn\tC0/C\tf(m,n)\tE/T\tboundary_step")?;
        let mut pts: Vec<BoundaryPoint> = Vec::new();
        for rho in DENSITIES {
            let cell = cells.next().expect("one cell per (m, rho)");
            // (The lattice positions, and so the tiling, are the same at
            // every seed. `f(m, n)` is the bound for m × m tiles.)
            let note = widths_note(cell[0].1);
            if !note.is_empty() {
                writeln!(out, "# rho={rho}{note}")?;
            }
            match cell_boundary(cell) {
                Some(b) => {
                    writeln!(
                        out,
                        "{rho}\t{:.4}\t{:.4}\t{:.4}\t{:.3}\t{}",
                        b.n,
                        b.c0_over_c,
                        b.theory,
                        b.e_over_t(),
                        b.step
                    )?;
                    pts.push(b);
                }
                None => writeln!(out, "{rho}\t-\t-\t-\t-\t(no boundary within budget)")?,
            }
        }
        if pts.len() >= 2 {
            let (a, b) =
                least_squares_line(&pts.iter().map(|b| (b.n, b.c0_over_c)).collect::<Vec<_>>());
            writeln!(
                out,
                "# experimental boundary (least squares): C0/C = {a:.4} + {b:.4}*n"
            )?;
        }
        if !pts.is_empty() {
            let below = pts.iter().filter(|b| b.e_over_t() < 1.0).count();
            writeln!(
                out,
                "# mean E/T = {:.3} ({below}/{} points below the theoretical bound)",
                mean(&pts, BoundaryPoint::e_over_t),
                pts.len()
            )?;
        }
    }
    Ok(())
}

/// Paper Table 1: E/T for m = 2, 3, 4 across PE counts, each cell the mean
/// over the density sweep as in Fig. 10.
fn table1(o: &Opts, done: &[Done<'_>], out: &mut dyn Write) -> io::Result<()> {
    let c = &done[0].0.cfg;
    let (steps, pull, seeds) = (c.steps, c.central_pull, o.seeds);
    writeln!(
        out,
        "# steps={steps} pull={pull} seeds={seeds} densities={DENSITIES:?}"
    )?;
    let columns: Vec<String> = table1_pes(o).iter().map(|p| format!("{p}PEs")).collect();
    writeln!(out, "#\n# m \\ P\t{}", columns.join("\t"))?;
    let mut cells = done.chunks(o.seeds as usize);
    // The cells whose launch re-cut the tiles: named under the table.
    let mut recut = String::new();
    for m in [2usize, 3, 4] {
        let mut row = format!("{m}");
        for p in table1_pes(o) {
            let mut pts = Vec::new();
            for rho in DENSITIES {
                let cell = cells.next().expect("one cell per (m, P, rho)");
                let note = widths_note(cell[0].1);
                if !note.is_empty() {
                    recut += &format!("#  m={m} P={p} rho={rho}{note}\n");
                }
                pts.extend(cell_boundary(cell));
            }
            if pts.is_empty() {
                row += "\t-";
            } else {
                row += &format!("\t{:.2}", mean(&pts, BoundaryPoint::e_over_t));
            }
        }
        writeln!(out, "{row}")?;
    }
    out.write_all(TABLE1_NOTE.as_bytes())?;
    if !recut.is_empty() {
        writeln!(
            out,
            "# (f(m, n) is the bound for m × m tiles; not on them:\n{recut}#  )"
        )?;
    }
    Ok(())
}

const TABLE1_NOTE: &str = "\
# (each cell: mean over the density sweep of C0/C at the detected
#  boundary divided by f(m, n) at the measured concentration factor)
";

/// Ablation (paper Fig. 2, Sec. 2.2): the modelled per-step ghost-exchange
/// time of plane / square-pillar / cube domains under the T3E-flavoured
/// postal cost model, and the winner.
fn shapes(_: &Opts, _: &[Done<'_>], out: &mut dyn Write) -> io::Result<()> {
    // Paper Fig. 5(a)'s average occupancy × bytes per particle.
    let bytes_per_cell = 4.3 * 56.0;
    let model = CostModel::t3e(None);
    writeln!(
        out,
        "# postal model: {} us latency, {} MB/s; {bytes_per_cell} bytes/cell",
        model.latency_s * 1e6,
        model.bandwidth_bps / 1e6
    )?;
    writeln!(out, "# nc\tP\tplane[us]\tpillar[us]\tcube[us]\twinner")?;
    let configs: [(usize, usize); 8] = [
        (8, 4),
        (12, 16),
        (24, 36), // paper Fig. 5(a)
        (12, 36), // paper Fig. 5(b)
        (32, 64),
        (64, 256),
        (128, 1024),
        (512, 4096),
    ];
    for (nc, p) in configs {
        let t = DomainShape::ALL.map(|s| s.ghost_exchange_time(nc, p, bytes_per_cell, &model));
        let fastest = (0..3).min_by(|&a, &b| t[a].partial_cmp(&t[b]).expect("finite"));
        let winner = DomainShape::ALL[fastest.expect("three shapes")].name();
        let [plane, pillar, cube] = t.map(|t| t * 1e6);
        writeln!(
            out,
            "{nc}\t{p}\t{plane:.1}\t{pillar:.1}\t{cube:.1}\t{winner}"
        )?;
    }
    writeln!(out, "# ghost cells per PE (volume term only):")?;
    writeln!(out, "# nc\tP\tplane\tpillar\tcube")?;
    for (nc, p) in configs {
        let [plane, pillar, cube] = DomainShape::ALL.map(|s| s.ghost_cells(nc, p));
        writeln!(out, "{nc}\t{p}\t{plane:.0}\t{pillar:.0}\t{cube:.0}")?;
    }
    Ok(())
}

/// The two machines of `shapes_measured`: a label, `nc`, the PE counts of
/// the plane, pillar and cube (compatible ones; the rows are per PE) and
/// the steps.
fn machines(o: &Opts) -> [(&'static str, usize, [usize; 3], u64); 2] {
    let steps = o.steps.unwrap_or(40);
    [
        ("small machine", 8, [4, 4, 8], steps),
        ("mid-size machine", 16, [16, 16, 64], steps.min(25)),
    ]
}

/// The same uniform gas, unbalanced, on each machine's three shapes.
fn shapes_measured_runs(o: &Opts) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for (_, nc, pes, steps) in machines(o) {
        let density = 0.25;
        let n = (density * (2.56 * nc as f64).powi(3)).round() as usize;
        for (shape, p) in DomainShape::ALL.into_iter().zip(pes) {
            let mut cfg = RunConfig::new(n, nc, p, density);
            cfg.steps = steps;
            cfg.dlb = false;
            runs.push(RunSpec::on(shape, cfg));
        }
    }
    runs
}

/// Ablation: the measured communication of the three domain shapes of
/// paper Fig. 2 on the one step engine and wire protocol — the analytic
/// `shapes` checked against real message counts and wire bytes.
fn shapes_measured(o: &Opts, done: &[Done<'_>], out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "# (uniform gas, DDM, no balancing)")?;
    for ((label, ..), runs) in machines(o).iter().zip(done.chunks(3)) {
        let c = &runs[0].0.cfg;
        let (nc, n, steps) = (c.nc, c.n_particles, c.steps);
        writeln!(out, "\n## {label}: nc={nc} N={n} steps={steps}")?;
        writeln!(
            out,
            "# shape\tP\tmsgs/PE/step\tKiB/PE/step\tmodel_ms/PE/step"
        )?;
        for (name, &(spec, rep)) in ["plane", "pillar", "cube"].iter().zip(runs) {
            let per_pe_step = spec.cfg.p as f64 * spec.cfg.steps as f64;
            writeln!(
                out,
                "{name}\t{}\t{:.1}\t{:.1}\t{:.3}",
                spec.cfg.p,
                rep.msgs_sent as f64 / per_pe_step,
                rep.bytes_sent as f64 / per_pe_step / 1024.0,
                rep.comm_virtual_s / per_pe_step * 1e3
            )?;
        }
    }
    out.write_all(SHAPES_MEASURED_NOTE.as_bytes())
}

const SHAPES_MEASURED_NOTE: &str = "
# model_ms uses the T3E postal cost model. Every exchange is staged
# along the rank torus: one frame per distinct rank one step away along
# an axis (2 on a ring and on the 2x2 torus, 4 on larger tori, 3 on the
# 2x2x2 block grid, 6 on larger ones), the diagonal neighbours' shares
# riding them. Expected: plane cheapest on the small machine (~3
# msgs/PE/step, as many as the 2x2 torus sends; the 2x2x2 block grid
# ~4). At mid-size the analytic `shapes` bench, which prices one
# message per neighbour (paper Sec. 2.2), has the pillar cheapest;
# measured, the cube is: its 26 neighbours cost it ~7 messages, not
# ~28, and it ships the fewest bytes. The plane ships the most, and
# the pillar sits between on bytes.
";

/// One concentrating workload, unbalanced and balanced every k steps.
fn dlb_freq_runs(o: &Opts) -> Vec<RunSpec> {
    let mut base = RunConfig::from_p_m_density(9, 4, 0.256);
    base.steps = o.steps.unwrap_or(1500);
    base.central_pull = o.pull.unwrap_or(0.08);
    base.dlb_min_gain = 0.05;
    let every = [(false, 1), (true, 1), (true, 5), (true, 25), (true, 100)];
    let runs = every.map(|(dlb, dlb_interval)| RunConfig {
        dlb,
        dlb_interval,
        ..base.clone()
    });
    runs.map(RunSpec::fixed).to_vec()
}

/// Ablation: DLB every k steps against the paper's claim (Sec. 2.3) that
/// its overhead is small enough to balance every step.
fn dlb_freq(_: &Opts, done: &[Done<'_>], out: &mut dyn Write) -> io::Result<()> {
    let (spec, off) = done[0];
    let (c, note) = (&spec.cfg, widths_note(done[1].1));
    let (p, m, n, steps, pull) = (c.p, c.m(), c.n_particles, c.steps, c.central_pull);
    writeln!(out, "# P={p} m={m} N={n} steps={steps} pull={pull}{note}")?;
    writeln!(
        out,
        "# dlb_every\tlate_Tt[s]\tlate_Fmax-Fmin[s]\ttransfers\tdlb_msgs_share"
    )?;
    let late = |rep: &RunReport| {
        let late = last(rep, 5);
        (mean(late, |r| r.t_step), mean(late, |r| r.f_max - r.f_min))
    };
    let (t_off, gap_off) = late(off);
    writeln!(out, "off\t{t_off:.6}\t{gap_off:.6}\t0\t0.00")?;
    for &(spec, rep) in &done[1..] {
        let (t, gap) = late(rep);
        // Share of messages beyond the DDM baseline, attributable to DLB.
        let extra = rep.msgs_sent.saturating_sub(off.msgs_sent) as f64;
        writeln!(
            out,
            "{}\t{t:.6}\t{gap:.6}\t{}\t{:.2}",
            spec.cfg.dlb_interval,
            transfers(rep),
            extra / rep.msgs_sent.max(1) as f64
        )?;
    }
    writeln!(out, "# late_* values average the final 20% of steps")
}

/// `baseline1d`'s workloads, in the order of its runs.
const BASELINE1D_WORKLOADS: [&str; 3] = [
    "slab workload (clustered in low-x slabs)",
    "granularity workload (same slab, nc = P: one plane per PE)",
    "hotspot workload (pull toward one PE tile's centre)",
];

/// Each workload four ways — pillar and plane, balanced and not — so that
/// each balancer is compared with its own decomposition's static
/// distribution.
fn baseline1d_runs(o: &Opts) -> Vec<RunSpec> {
    let steps = o.steps.unwrap_or(900);
    // m = 6 gives nc = 18 planes over 9 PEs — exactly 2 planes per PE.
    // The plane method needs nc >> P to have any balancing freedom at all
    // (its granularity is a whole plane, the pillar's is a column of nc
    // cells out of m²·nc); the printout quantifies what remains.
    let mut base = RunConfig::from_p_m_density(9, 6, 0.128);
    base.steps = steps;
    base.dlb_min_gain = 0.08;
    let slab = |mut c: RunConfig| {
        c.density = 0.04;
        c.lattice = Lattice::Cluster { fill: 0.5 };
        c
    };
    // The granularity wall: the same slab, but at P = nc every PE owns
    // exactly one plane, so the 1-D balancer has no move left (a whole
    // plane is its smallest unit); the permanent-cell scheme's unit is one
    // column out of m² per tile, so it still works.
    let mut tight = RunConfig::from_p_m_density(9, 3, 0.128); // nc = 9 = P
    tight.steps = steps;
    tight.dlb_min_gain = base.dlb_min_gain;
    // A single-tile hotspot (2-D concentration) needs a longer, harder
    // drive than the slab for the concentration to build up.
    let mut hot = base.clone();
    hot.steps = 2 * steps;
    hot.central_pull = o.pull.unwrap_or(0.3);
    hot.pull_frac = Some(hot.hot_tile_frac());
    let mut runs = Vec::new();
    for c in [slab(base), slab(tight), hot] {
        for shape in [DomainShape::SquarePillar, DomainShape::Plane] {
            for dlb in [false, true] {
                runs.push(RunSpec::on(shape, RunConfig { dlb, ..c.clone() }));
            }
        }
    }
    runs
}

/// Baseline: permanent-cell DLB against the 1-D moving-boundary balancer of
/// the prior art the paper cites (Brugé & Fornili \[4\], Kohring \[5\]),
/// which "are not extended to 3-dimensional MD simulations easily".
fn baseline1d(_: &Opts, done: &[Done<'_>], out: &mut dyn Write) -> io::Result<()> {
    let c = &done[0].0.cfg;
    let (p, m, n, steps) = (c.p, c.m(), c.n_particles, c.steps);
    writeln!(out, "# P={p} m={m} N={n} steps={steps}")?;
    let labels = [
        "pillar-static",
        "pillar-dlb",
        "plane-static",
        "plane-1d-dlb",
    ];
    for (title, runs) in BASELINE1D_WORKLOADS.iter().zip(done.chunks(4)) {
        writeln!(out, "\n## {title}")?;
        writeln!(out, "# balancer\tlate_Fmax/Fave\tlate_Tt[s]\ttransfers")?;
        for (label, &(_, rep)) in labels.iter().zip(runs) {
            let late = last(rep, 4);
            writeln!(
                out,
                "{label}\t{:.2}\t{:.6}\t{}",
                mean(late, |r| r.f_max / r.f_ave.max(1e-300)),
                mean(late, |r| r.t_step),
                transfers(rep)
            )?;
            if *label == "pillar-dlb" && !widths_note(rep).is_empty() {
                writeln!(out, "# (pillar-dlb{})", widths_note(rep))?;
            }
        }
    }
    out.write_all(BASELINE1D_NOTE.as_bytes())
}

const BASELINE1D_NOTE: &str = "\
# expectation: with planes to spare the 1-D balancer wins its
# home turf (x slab); at P = nc it is frozen (0 transfers) while
# the permanent-cell scheme still balances; on the hotspot both
# help — the pillar scheme's real edge at scale is communication
# volume and P ≤ nc (see the `shapes` bench and DESIGN.md).
";

/// One experimental boundary point (paper Sec. 4.2): one run's, or the
/// mean of a cell's seeds.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryPoint {
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
fn detect_boundary_index(report: &RunReport) -> Option<usize> {
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
fn boundary_cfg(p: usize, m: usize, density: f64, steps: u64, pull: f64, seed: u64) -> RunConfig {
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

/// The boundary point of one `(P, m, ρ)` cell, runs on `m × m` tiles: the
/// mean over those of its seeds' runs whose imbalance starts a significant
/// rise (the paper averages ten runs per point); `None` where none does
/// (the DLB limit was not reached).
fn cell_boundary(cell: &[Done<'_>]) -> Option<BoundaryPoint> {
    let found: Vec<StepRecord> = cell
        .iter()
        .filter_map(|&(_, rep)| Some(rep.records[detect_boundary_index(rep)?]))
        .collect();
    if found.is_empty() {
        return None;
    }
    let k = found.len() as f64;
    let n = mean(&found, |r| r.n_factor);
    Some(BoundaryPoint {
        step: (found.iter().map(|r| r.step).sum::<u64>() as f64 / k) as u64,
        n,
        c0_over_c: mean(&found, |r| r.c0_over_c),
        theory: theory::upper_bound(cell[0].0.cfg.m(), n),
    })
}

/// Run one boundary experiment — a DLB run on `(P, m, ρ)` driven toward a
/// corner at `pull` for `steps` — on fixed tiles, with the experimental
/// boundary detected from the `Fmax − Fmin` series (paper Sec. 4.2).
/// Returns `None` if the imbalance never starts a significant rise within
/// the budget (the DLB limit was not reached).
pub fn measure_boundary(
    p: usize,
    m: usize,
    density: f64,
    steps: u64,
    pull: f64,
    seed: u64,
) -> Option<BoundaryPoint> {
    let spec = RunSpec::fixed(boundary_cfg(p, m, density, steps, pull, seed));
    cell_boundary(&[(&spec, &spec.run())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcdlb_md::cells::{CellGrid, NEIGHBOR_OFFSETS_27};
    use pcdlb_md::force::{PairKernel, WorkCounters};
    use pcdlb_md::Vec3;

    fn parse(argv: &str) -> Result<Opts, String> {
        Opts::parse(
            &argv
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_the_five_flags_and_names() {
        let o = parse("fig10 --paper --seeds 5 --steps 9 --pull 0.5 --out x table1").expect("ok");
        assert_eq!(
            (o.paper, o.seeds, o.steps, o.pull),
            (true, 5, Some(9), Some(0.5))
        );
        assert_eq!(o.out, PathBuf::from("x"));
        let names: Vec<_> = o.selected().map(|e| e.name).collect();
        assert_eq!(names, ["fig10", "table1"]);
        assert_eq!(parse(""), Ok(Opts::default()));
        assert_eq!(Opts::default().selected().count(), EXPERIMENTS.len());
    }

    #[test]
    fn unknown_or_malformed_input_is_an_error() {
        let bad = [
            "--seed 5",
            "fig9 --retile",
            "--scale paper",
            "fig11",
            "--pull abc --out x",
        ];
        for argv in bad
            .into_iter()
            .chain(["--steps --out x", "--seeds 0 --out x", "--out"])
        {
            assert!(parse(argv).is_err(), "`{argv}` accepted");
        }
        // Off-default output needs a directory, so it never overwrites
        // the committed `results/`.
        for argv in ["--paper", "--seeds 5", "--steps 10", "--pull 0"] {
            assert!(parse(argv).is_err(), "`{argv}` accepted");
            assert!(
                parse(&format!("{argv} --out target/paper")).is_ok(),
                "{argv}"
            );
        }
    }

    #[test]
    fn the_table_names_exactly_the_committed_results() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut stems: Vec<String> = std::fs::read_dir(dir)
            .expect("results/ exists")
            .map(|e| e.expect("readable").path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| {
                p.file_stem()
                    .expect("a file")
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        stems.sort();
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort();
        assert_eq!(stems, names);
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
            step: 100,
            n: 1.5,
            c0_over_c: 0.3,
            theory: 0.46,
        };
        assert!((b.e_over_t() - 0.3 / 0.46).abs() < 1e-12);
    }
}
