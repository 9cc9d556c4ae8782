//! Run configuration for the parallel simulator.
//!
//! Mirrors the paper's experiment parameters (Sec. 3.2–3.3): particle
//! count `N`, cell count `C = nc³`, PE count `P`, reduced density ρ* and
//! temperature T*, cutoff, time step, thermostat interval, and whether the
//! permanent-cell load balancer runs.

use std::fmt;

use pcdlb_domain::{DomainShape, PillarLayout};
use pcdlb_md::lj::LennardJones;
use pcdlb_md::thermostat::Thermostat;
use pcdlb_mp::comm::CommConfigError;
use pcdlb_mp::{CommConfig, Torus2d};

/// How per-PE load (the force-computation "time" fed to the balancer and
/// reported as Fmax/Fave/Fmin) is measured. One metric: a measured one
/// (wall or CPU time) is new work that must first win a benchmark row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMetric {
    /// Deterministic work model: `seconds = pair_checks × sec_per_pair`.
    /// This substitutes for `MPI_Wtime` on dedicated T3E CPUs (see
    /// DESIGN.md): it measures exactly the quantity DDM load imbalance is
    /// made of, reproducibly, on a timeshared host.
    WorkModel {
        /// Modelled cost of one candidate pair evaluation, seconds. The
        /// default 5×10⁻⁸ s ≈ 30 flops on the T3E's 600 MFLOPS Alpha.
        sec_per_pair: f64,
    },
}

impl Default for LoadMetric {
    fn default() -> Self {
        LoadMetric::WorkModel { sec_per_pair: 5e-8 }
    }
}

/// A deterministic per-PE speed model emulating heterogeneous and
/// time-varying processors (shared nodes, thermal throttling, Grid-style
/// background load): rank `r`'s speed factor at step `s` is a base
/// factor (cycled from `base` by rank) modulated by a triangle wave of
/// the given `amplitude` and `period`, phase-shifted per rank so the
/// ranks drift against each other. Speed 1.0 = the reference processor;
/// 0.5 = half as fast (modelled force time doubles).
///
/// The schedule is a pure function of `(rank, step)` — no clocks, no
/// RNG — so heterogeneous runs stay bitwise reproducible and
/// checkpoint/restart replay the exact same speeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedSchedule {
    /// Per-rank base speed factors, cycled by `rank % base.len()`. All
    /// must be > 0.
    pub base: Vec<f64>,
    /// Drift amplitude as a fraction of the base factor, in `[0, 1)`:
    /// the instantaneous factor swings across
    /// `base·(1 ± amplitude)`. 0 = static heterogeneity.
    pub amplitude: f64,
    /// Triangle-wave period in steps. 0 = static heterogeneity.
    pub period: u64,
}

impl SpeedSchedule {
    /// A static heterogeneous machine: fixed per-rank factors, no drift.
    pub fn fixed(base: Vec<f64>) -> Self {
        Self {
            base,
            amplitude: 0.0,
            period: 0,
        }
    }

    /// Rank `rank`'s speed factor at step `step` (always > 0 for a
    /// validated schedule).
    pub fn speed(&self, rank: usize, step: u64) -> f64 {
        let base = self.base[rank % self.base.len()];
        if self.period == 0 || self.amplitude == 0.0 {
            return base;
        }
        // Deterministic triangle wave, phase-shifted per rank (the ×97
        // stride just spreads ranks across the period).
        let x = ((step + rank as u64 * 97) % self.period) as f64 / self.period as f64;
        let tri = 4.0 * (x - 0.5).abs() - 1.0; // in [-1, 1]
        base * (1.0 + self.amplitude * tri)
    }
}

/// Initial particle placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lattice {
    /// Simple cubic over the whole box (the paper's supercooled-gas
    /// start). [`pcdlb_md::init::simple_cubic`] fills its sites in
    /// lexicographic order, so unless the particle count is a perfect
    /// cube the last x-layers stay empty or part-filled; ROADMAP item 16
    /// spreads them.
    SimpleCubic,
    /// Simple cubic confined to the corner sub-box `[0, fill·L)³` — an
    /// artificially concentrated start that makes DDM load imbalance (and
    /// hence DLB activity) immediate, used by tests and demos without
    /// waiting thousands of steps for condensation.
    Cluster {
        /// Fraction of the box side the cluster occupies, in `(0, 1]`.
        fill: f64,
    },
    /// Simple cubic compressed along y only (`[0, fill·L)` in y, full
    /// extent in x and z): a load profile that is *flat along x*, hence
    /// invisible to an x-sliced plane balancer but balanceable by the
    /// 2-D permanent-cell scheme — the `baseline1d` bench's key workload.
    SlabY {
        /// Fraction of the box side the slab occupies in y, in `(0, 1]`.
        fill: f64,
    },
}

/// A configuration mistake: what [`RunConfig::check`] and
/// [`Ladder::check`](crate::driver::Ladder::check) return before any rank
/// thread starts. `Display` is the message the panicking front doors
/// ([`RunConfig::validate`], `Launch::run`, `Launch::run_resilient`) die
/// with.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A scalar that must be a finite number > 0 is not.
    NotPositive { field: &'static str, value: f64 },
    /// A scalar that must be finite is not.
    NotFinite { field: &'static str, value: f64 },
    /// `n_particles < 2`.
    TooFewParticles,
    /// `steps == 0`.
    NoSteps,
    /// `dlb_interval == 0`.
    DlbIntervalZero,
    /// `dlb_min_gain` negative or NaN.
    DlbMinGain(f64),
    /// `central_pull` negative or not finite.
    CentralPull(f64),
    /// A `pull_frac` component outside `[0, 1)`.
    PullFrac(f64, f64, f64),
    /// `pull_rmax` not > 0.
    PullRmax(f64),
    /// Square pillar: `p` is not a perfect square.
    NotSquare { p: usize },
    /// Square pillar: the torus side does not divide `nc`.
    PillarSide { nc: usize, side: usize },
    /// Square pillar: a torus side above `PillarLayout::MAX_SIDE`.
    PillarTooWide { side: usize },
    /// Square pillar: `dlb` on a torus side below 3.
    DlbTorusTooSmall { p: usize },
    /// Plane: `p == 0`.
    NoPe,
    /// Plane: more PEs than planes.
    PlaneTooThin { p: usize, nc: usize },
    /// Cube: `p` is not a perfect cube.
    NotCubic { p: usize },
    /// Cube: the torus side `k` does not divide `nc`.
    CubeSide { nc: usize, k: usize },
    /// Cube: `dlb` is on.
    CubeBalances,
    /// Cells shorter than the cutoff.
    CellBelowCutoff { cell_len: f64, rcut: f64 },
    /// A speed schedule without base factors.
    SpeedNoBase,
    /// A speed base factor not > 0.
    SpeedFactor,
    /// A speed drift amplitude outside `[0, 1)`.
    SpeedAmplitude(f64),
    /// `skin` negative or NaN.
    NegativeSkin,
    /// `verlet` without a positive skin.
    VerletWithoutSkin,
    /// Cells shorter than cutoff + skin.
    CellBelowSkin { cell_len: f64, rcut: f64, skin: f64 },
    /// A resilient launch of a shape that does not restore.
    NotPillar,
    /// A resize boundary not after its predecessor (or step 0).
    ResizeOrder { at_step: u64, prev: u64 },
    /// A resize boundary at or past the last step.
    ResizePastEnd { at_step: u64, steps: u64 },
    /// A resize target that is not a perfect square.
    ResizeNotSquare { p: usize },
    /// A resize target whose torus side does not divide `nc`.
    ResizeSide { p: usize, side: usize, nc: usize },
    /// A resize plan over skin epochs.
    ResizeWithSkin,
    /// `max_attempts == 0`.
    NoAttempts,
    /// The message layer refuses `comm` ([`CommConfig::check`]).
    Comm(CommConfigError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ConfigError::*;
        match *self {
            NotPositive { field, value } => {
                write!(f, "{field} must be a finite number > 0; got {value}")
            }
            NotFinite { field, value } => write!(f, "{field} must be finite; got {value}"),
            TooFewParticles => write!(f, "need at least two particles"),
            NoSteps => write!(f, "steps must be ≥ 1"),
            DlbIntervalZero => write!(f, "dlb_interval must be ≥ 1"),
            DlbMinGain(g) => write!(f, "dlb_min_gain must be a number ≥ 0; got {g}"),
            CentralPull(k) => write!(
                f,
                "central_pull must be a finite number ≥ 0 (0 switches the pull off); got {k}"
            ),
            PullFrac(fx, fy, fz) => write!(
                f,
                "pull_frac components are box fractions in [0, 1); got ({fx}, {fy}, {fz})"
            ),
            PullRmax(r) => write!(f, "pull_rmax must be a number > 0 (a radius); got {r}"),
            NotSquare { p } => {
                write!(f, "square torus needs a perfect-square rank count, got {p}")
            }
            PillarSide { nc, side } => write!(f, "nc = {nc} must be a multiple of √P = {side}"),
            PillarTooWide { side } => {
                let max = PillarLayout::MAX_SIDE;
                write!(
                    f,
                    "a tile layout holds a torus side of {max} at most, got √P = {side}"
                )
            }
            DlbTorusTooSmall { p } => {
                write!(f, "DLB needs a torus side ≥ 3 (P ≥ 9); got P = {p}")
            }
            NoPe => write!(f, "need at least one PE"),
            PlaneTooThin { p, nc } => write!(
                f,
                "plane decomposition needs at least one plane per PE (P = {p}, nc = {nc})"
            ),
            NotCubic { p } => write!(f, "cube decomposition needs P = k³, got {p}"),
            CubeSide { nc, k } => write!(f, "nc = {nc} must be a multiple of k = {k}"),
            CubeBalances => write!(f, "the cube decomposition is DDM-only (see module docs)"),
            CellBelowCutoff { cell_len, rcut } => write!(
                f,
                "cell length {cell_len:.4} below cutoff {rcut}; reduce nc or density"
            ),
            SpeedNoBase => write!(f, "speed schedule needs base factors"),
            SpeedFactor => write!(f, "speed factors must be > 0"),
            SpeedAmplitude(a) => write!(f, "speed drift amplitude must be in [0, 1); got {a}"),
            NegativeSkin => write!(f, "skin must be non-negative"),
            VerletWithoutSkin => write!(f, "verlet replay requires a positive skin"),
            CellBelowSkin {
                cell_len,
                rcut,
                skin,
            } => write!(
                f,
                "cell length {cell_len:.4} below cutoff {rcut} + skin {skin}: the one-cell \
                 ghost shell cannot stay exhaustive over a skin epoch"
            ),
            NotPillar => write!(
                f,
                "a resilient launch needs the square pillar: \
                 only that shape restores from a checkpoint"
            ),
            ResizeOrder { at_step, prev } => write!(
                f,
                "resize boundaries must be strictly increasing and positive \
                 (got {at_step} after {prev})"
            ),
            ResizePastEnd { at_step, steps } => write!(
                f,
                "resize at step {at_step} is at or past the end of the {steps}-step run"
            ),
            ResizeNotSquare { p } => {
                write!(f, "resize target {p} is not a perfect-square PE count")
            }
            ResizeSide { p, side, nc } => write!(
                f,
                "resize target {p}: torus side {side} does not divide nc = {nc}"
            ),
            ResizeWithSkin => write!(
                f,
                "elastic resizing does not support skin epochs yet: a resize \
                 boundary re-bins mid-epoch, which would break the frozen-binning \
                 invariant the Verlet replay depends on"
            ),
            NoAttempts => write!(f, "need at least one attempt"),
            Comm(ref e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// `Ok` where `holds`, the configuration mistake `e` where not.
pub(crate) fn ensure(holds: bool, e: ConfigError) -> Result<(), ConfigError> {
    if holds {
        Ok(())
    } else {
        Err(e)
    }
}

/// Full configuration of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Number of particles `N`.
    pub n_particles: usize,
    /// Cells per side, `nc = C^(1/3)`.
    pub nc: usize,
    /// Number of PEs `P` (perfect square for the square-pillar layout).
    pub p: usize,
    /// Reduced density ρ* = N/V.
    pub density: f64,
    /// Target reduced temperature T*.
    pub t_ref: f64,
    /// Pair potential.
    pub lj: LennardJones,
    /// Time step Δt (reduced units).
    pub dt: f64,
    /// Steps to run.
    pub steps: u64,
    /// Thermostat interval (paper: 50). 0 disables.
    pub thermostat_interval: u64,
    /// Run the permanent-cell dynamic load balancer.
    pub dlb: bool,
    /// Run DLB every this many steps (paper: 1).
    pub dlb_interval: u64,
    /// DLB hysteresis: minimum relative load advantage a neighbour needs
    /// over this PE to be offered a cell (paper: 0 — wall-clock noise provides its
    /// own dead band; with the exact work model a small threshold avoids
    /// transfer churn on noise-level imbalance).
    pub dlb_min_gain: f64,
    /// RNG seed for the initial condition.
    pub seed: u64,
    /// Load measurement mode.
    pub load_metric: LoadMetric,
    /// Initial placement.
    pub lattice: Lattice,
    /// Harmonic-well spring constant — the concentration driver
    /// (0 disables; see `pcdlb_md::force::ExternalPull` and DESIGN.md
    /// substitutions). Boundary-range experiments use it to traverse the
    /// `(n, C₀/C)` trajectory in a bounded number of steps.
    pub central_pull: f64,
    /// Pull toward the box corner (one PE's domain corner — the extreme
    /// hotspot) instead of the box centre. Only meaningful when
    /// `central_pull > 0`.
    pub pull_corner: bool,
    /// Pull toward an arbitrary point given as box fractions; overrides
    /// `pull_corner`. Targeting the centre of one PE's tile creates the
    /// single-domain hotspot of the paper's maximum-domain analysis.
    pub pull_frac: Option<(f64, f64, f64)>,
    /// With `pull_frac`, limit the harmonic core to this radius (constant
    /// force beyond): a localized well that grows a depletion zone, as
    /// natural condensation does around a dominant droplet.
    pub pull_rmax: Option<f64>,
    /// Take a distributed checkpoint (gather to rank 0) every this many
    /// steps. 0 disables. The gather's communication cost is excluded from
    /// the per-step stats so checkpointing never perturbs `t_step` — a
    /// checkpointed run reports identically to an uncheckpointed one.
    pub checkpoint_interval: u64,
    /// Inert: read by nothing. It selected the overlapped
    /// Interior/Boundary force schedule, deleted because it never won a
    /// paired run against the sequenced step that is now the only one
    /// (DESIGN.md, "Removed: the overlapped schedule"). The field stays,
    /// set in [`RunConfig::new`], only because the frozen benchmark
    /// spells out every field of its `RunConfig` literal; it goes with
    /// ROADMAP item 5 (i)'s knob census, when that literal may change.
    pub overlap: bool,
    /// Run the global invariant sentinel every this many steps. 0 disables
    /// (the default). When it fires, the ranks gather their particle count
    /// and owned-column set to rank 0, which asserts global particle-count
    /// conservation and that the ownership map is an exact partition of
    /// the `nc²` columns. A violation aborts the world with a structured
    /// diagnostic — under the recovery driver that escalates to a rollback
    /// to the last checkpoint. Like checkpointing, the sentinel gather is
    /// excluded from the per-step stats, so it never perturbs `t_step`.
    pub sentinel_interval: u64,
    /// Inert: read by nothing. It selected a delta layout for ghost shell
    /// frames, deleted because it never reached the cost model and saved
    /// ~3 % of ghost bytes against the gap-encoded shell frame that is now
    /// the only layout (DESIGN.md, "Comm-volume diet"). The field stays
    /// only because the frozen benchmark spells out every field of its
    /// `RunConfig` literal, like [`RunConfig::overlap`].
    pub delta_ghosts: bool,
    /// Heterogeneous-machine emulation: per-PE speed factors, optionally
    /// drifting over time (see [`SpeedSchedule`]). `None` (the default)
    /// models the paper's dedicated equal-speed T3E CPUs. With a schedule
    /// installed, each rank's modelled force time becomes
    /// `work / speed(rank, step)` — the imbalance the balancer sees (and
    /// Fmax/Fave/Fmin report) is then *time* imbalance, which differs
    /// from work imbalance exactly when speeds differ.
    pub speed: Option<SpeedSchedule>,
    /// With a [`SpeedSchedule`] installed, feed the speed-adjusted *time*
    /// to the DLB decision (equalise time on unequal processors — the
    /// Zhakhovskii-style metric). `false` keeps the paper's work-based
    /// metric as the balancing signal even on a heterogeneous machine
    /// (reporting still shows time), which is the baseline the bench
    /// compares against. No effect without a schedule.
    pub speed_aware: bool,
    /// Inert: `None` is the only value it can hold. It injected faults
    /// into the delta layout's stream state, which went with that layout;
    /// it stays for the same reason as [`RunConfig::delta_ghosts`].
    #[doc(hidden)]
    pub ghost_desync_inject: Option<std::convert::Infallible>,
    /// Message-layer configuration: poll/watchdog deadlines, retry and
    /// retransmission budgets, failure-detector horizons, and — for chaos
    /// runs — a seeded lossy-transport profile. The default preserves the
    /// compiled-in constants (and a perfect in-process transport).
    pub comm: CommConfig,
    /// Verlet skin radius added to the cutoff for neighbour discovery.
    /// `0` (the default) rebins and re-exchanges every step — the
    /// historical behaviour, bit-for-bit. With `skin > 0` the binning,
    /// ownership and ghost shells freeze between rebuild steps (skin
    /// epochs): a rebuild fires only when the deterministic global
    /// max-displacement tracker crosses `skin/2` (or on the checkpoint
    /// cadence). Requires `cell_len ≥ r_c + skin` so the one-cell-deep
    /// ghost shell stays exhaustive over a whole epoch.
    pub skin: f64,
    /// Replay forces through the Verlet segment list recorded at each
    /// rebuild instead of re-walking the frozen binning. Bitwise
    /// identical either way; the replay skips far pairs. Requires
    /// `skin > 0`.
    pub verlet: bool,
}

impl RunConfig {
    /// A config from the paper's core knobs, with paper defaults for the
    /// rest (T* = 0.722, r_c = 2.5, Δt = 0.0025, thermostat every 50).
    pub fn new(n_particles: usize, nc: usize, p: usize, density: f64) -> Self {
        Self {
            n_particles,
            nc,
            p,
            density,
            t_ref: 0.722,
            lj: LennardJones::paper(),
            dt: 0.0025,
            steps: 100,
            thermostat_interval: 50,
            dlb: true,
            dlb_interval: 1,
            dlb_min_gain: 0.0,
            seed: 1,
            load_metric: LoadMetric::default(),
            lattice: Lattice::SimpleCubic,
            central_pull: 0.0,
            pull_corner: false,
            pull_frac: None,
            pull_rmax: None,
            checkpoint_interval: 0,
            overlap: true,
            sentinel_interval: 0,
            delta_ghosts: true,
            speed: None,
            speed_aware: false,
            ghost_desync_inject: None,
            comm: CommConfig::default(),
            skin: 0.0,
            verlet: false,
        }
    }

    /// Paper Fig. 5(a): P = 36, m = 4 — N = 59319, C = 24³, ρ* = 0.256.
    pub fn fig5a() -> Self {
        Self::new(59319, 24, 36, 0.256)
    }

    /// Paper Fig. 5(b): P = 36, m = 2 — N = 8000, C = 12³, ρ* = 0.256.
    pub fn fig5b() -> Self {
        Self::new(8000, 12, 36, 0.256)
    }

    /// A geometrically consistent config from `(P, m, ρ*)` with the cell
    /// size pinned near the paper's (≈ 2.56, just above r_c = 2.5):
    /// `nc = m·√P`, `N = ρ·(cell·nc)³`, as in Fig. 10 / Table 1 sweeps.
    pub fn from_p_m_density(p: usize, m: usize, density: f64) -> Self {
        let side = (p as f64).sqrt().round() as usize;
        assert_eq!(side * side, p, "P must be a perfect square");
        let nc = m * side;
        let cell = 2.56;
        let volume = (cell * nc as f64).powi(3);
        let n = (density * volume).round() as usize;
        Self::new(n, nc, p, density)
    }

    /// Box side length `L = (N/ρ)^(1/3)`.
    pub fn box_len(&self) -> f64 {
        (self.n_particles as f64 / self.density).cbrt()
    }

    /// Cell side length `L/nc`.
    pub fn cell_len(&self) -> f64 {
        self.box_len() / self.nc as f64
    }

    /// Tile size `m = nc/√P`.
    pub fn m(&self) -> usize {
        self.nc / self.torus().rows()
    }

    /// The PE torus.
    pub fn torus(&self) -> Torus2d {
        Torus2d::square(self.p)
    }

    /// The thermostat implied by this config.
    pub fn thermostat(&self) -> Thermostat {
        if self.thermostat_interval == 0 {
            Thermostat::off()
        } else {
            Thermostat {
                t_ref: self.t_ref,
                interval: self.thermostat_interval,
            }
        }
    }

    /// The external pull field implied by this config.
    pub fn pull(&self) -> pcdlb_md::force::ExternalPull {
        if self.central_pull <= 0.0 {
            pcdlb_md::force::ExternalPull::None
        } else if let Some((fx, fy, fz)) = self.pull_frac {
            let frac = pcdlb_md::Vec3::new(fx, fy, fz);
            match self.pull_rmax {
                Some(rmax) => pcdlb_md::force::ExternalPull::Well {
                    k: self.central_pull,
                    frac,
                    rmax,
                },
                None => pcdlb_md::force::ExternalPull::Point {
                    k: self.central_pull,
                    frac,
                },
            }
        } else if self.pull_corner {
            pcdlb_md::force::ExternalPull::Corner {
                k: self.central_pull,
            }
        } else {
            pcdlb_md::force::ExternalPull::Center {
                k: self.central_pull,
            }
        }
    }

    /// Box-fraction coordinates of the centre of the torus-middle PE's
    /// tile — the canonical single-domain hotspot target. (For odd torus
    /// sides this is the box centre; for even sides it is offset so the
    /// hotspot sits inside one tile instead of on a tile corner.)
    pub fn hot_tile_frac(&self) -> (f64, f64, f64) {
        let side = self.torus().rows() as f64;
        let f = ((side / 2.0).floor() + 0.5) / side;
        (f, f, 0.5)
    }

    /// Total number of 3-D cells `C = nc³`.
    pub fn total_cells(&self) -> usize {
        self.nc * self.nc * self.nc
    }

    /// Validate geometric consistency for the square-pillar layout; call
    /// before running. Panics with a description of the first violated
    /// constraint. (Every launch validates the config for its own shape.)
    pub fn validate(&self) {
        crate::decomp::validate(self, DomainShape::SquarePillar);
    }

    /// Check this configuration for `shape`: the rules every run shares,
    /// then the shape's own geometry — the first violated constraint as a
    /// [`ConfigError`]. `comm` is `pcdlb-mp`'s to judge, first
    /// ([`CommConfig::check`]).
    pub fn check(&self, shape: DomainShape) -> Result<(), ConfigError> {
        use ConfigError::*;
        self.comm.check().map_err(Comm)?;
        let positive = |field, value: f64| {
            ensure(
                value.is_finite() && value > 0.0,
                NotPositive { field, value },
            )
        };
        ensure(self.n_particles > 1, TooFewParticles)?;
        positive("density", self.density)?;
        positive("t_ref", self.t_ref)?;
        positive("dt", self.dt)?;
        ensure(self.steps > 0, NoSteps)?;
        // A negative cutoff would pass every cell-length rule below and
        // run with its square over a one-cell shell.
        positive("lj.rcut", self.lj.rcut)?;
        positive("lj.sigma", self.lj.sigma)?;
        let (field, value) = ("lj.epsilon", self.lj.epsilon);
        ensure(value.is_finite(), NotFinite { field, value })?;
        ensure(self.dlb_interval > 0, DlbIntervalZero)?;
        ensure(self.dlb_min_gain >= 0.0, DlbMinGain(self.dlb_min_gain))?;
        let pull = self.central_pull;
        ensure(pull >= 0.0 && pull.is_finite(), CentralPull(pull))?;
        if let Some((fx, fy, fz)) = self.pull_frac {
            let inside = [fx, fy, fz].iter().all(|f| (0.0..1.0).contains(f));
            ensure(inside, PullFrac(fx, fy, fz))?;
        }
        if let Some(rmax) = self.pull_rmax {
            ensure(rmax > 0.0, PullRmax(rmax))?;
        }
        let (p, nc) = (self.p, self.nc);
        match shape {
            DomainShape::SquarePillar => {
                let side = (p as f64).sqrt().round() as usize;
                ensure(side * side == p, NotSquare { p })?;
                ensure(nc.is_multiple_of(side), PillarSide { nc, side })?;
                ensure(side <= PillarLayout::MAX_SIDE, PillarTooWide { side })?;
                ensure(!self.dlb || side >= 3, DlbTorusTooSmall { p })?;
            }
            // Unlike the square pillar the plane accepts any `P ≤ nc`,
            // square or not.
            DomainShape::Plane => {
                ensure(p >= 1, NoPe)?;
                ensure(p <= nc, PlaneTooThin { p, nc })?;
            }
            DomainShape::Cube => {
                let k = (p as f64).cbrt().round() as usize;
                ensure(k * k * k == p, NotCubic { p })?;
                ensure(nc.is_multiple_of(k), CubeSide { nc, k })?;
                ensure(!self.dlb, CubeBalances)?;
            }
        }
        let (cell_len, rcut, skin) = (self.cell_len(), self.lj.rcut, self.skin);
        ensure(cell_len >= rcut - 1e-12, CellBelowCutoff { cell_len, rcut })?;
        if let Some(s) = &self.speed {
            ensure(!s.base.is_empty(), SpeedNoBase)?;
            ensure(s.base.iter().all(|&b| b > 0.0), SpeedFactor)?;
            for &value in &s.base {
                let field = "speed.base";
                ensure(value.is_finite(), NotFinite { field, value })?;
            }
            let a = s.amplitude;
            ensure((0.0..1.0).contains(&a), SpeedAmplitude(a))?;
        }
        ensure(skin >= 0.0, NegativeSkin)?;
        ensure(!self.verlet || skin > 0.0, VerletWithoutSkin)?;
        let fits = skin <= 0.0 || cell_len >= rcut + skin - 1e-12;
        ensure(
            fits,
            CellBelowSkin {
                cell_len,
                rcut,
                skin,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_geometry_matches_paper() {
        let c = RunConfig::fig5a();
        c.validate();
        assert_eq!(c.m(), 4);
        assert_eq!(c.total_cells(), 13824);
        // L = (59319/0.256)^(1/3) ≈ 61.4, cell ≈ 2.56 ≥ r_c = 2.5.
        assert!((c.box_len() - 61.42).abs() < 0.05);
        assert!(c.cell_len() >= 2.5);
    }

    #[test]
    fn fig5b_geometry_matches_paper() {
        let c = RunConfig::fig5b();
        c.validate();
        assert_eq!(c.m(), 2);
        assert_eq!(c.total_cells(), 1728);
        assert!((c.box_len() - 31.50).abs() < 0.05);
        assert!(c.cell_len() >= 2.5);
    }

    #[test]
    fn from_p_m_density_produces_valid_configs() {
        for p in [16, 36, 64] {
            for m in [2, 3, 4] {
                for rho in [0.128, 0.256, 0.384, 0.512] {
                    let c = RunConfig::from_p_m_density(p, m, rho);
                    c.validate();
                    assert_eq!(c.m(), m);
                    // Cell length should come out at the pinned ≈2.56.
                    assert!((c.cell_len() - 2.56).abs() < 0.02, "cell {}", c.cell_len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "below cutoff")]
    fn too_many_cells_rejected() {
        // nc so large that cells shrink below r_c.
        let c = RunConfig::new(1000, 12, 9, 0.5);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "torus side ≥ 3")]
    fn dlb_on_tiny_torus_rejected() {
        let mut c = RunConfig::new(8000, 8, 4, 0.2);
        c.dlb = true;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "dlb_min_gain")]
    fn negative_dlb_min_gain_rejected() {
        let mut c = RunConfig::new(1000, 12, 9, 0.5);
        c.dlb_min_gain = -0.1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "dlb_min_gain")]
    fn nan_dlb_min_gain_rejected_on_the_plane_too() {
        let mut c = RunConfig::new(1000, 12, 4, 0.5);
        c.dlb_min_gain = f64::NAN;
        crate::decomp::validate(&c, pcdlb_domain::DomainShape::Plane);
    }

    #[test]
    #[should_panic(expected = "central_pull")]
    fn nan_central_pull_rejected_on_the_cube_too() {
        // `NaN <= 0.0` is false: unvalidated, `pull()` builds a NaN spring
        // and the run dies of an index panic inside a rank thread.
        let mut c = RunConfig::new(1000, 6, 8, 0.05);
        c.central_pull = f64::NAN;
        crate::decomp::validate(&c, pcdlb_domain::DomainShape::Cube);
    }

    #[test]
    #[should_panic(expected = "central_pull")]
    fn negative_central_pull_rejected() {
        // (Was taken silently as "off".)
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.central_pull = -0.1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "pull_frac")]
    fn pull_frac_outside_the_box_rejected() {
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.central_pull = 0.1;
        c.pull_frac = Some((0.5, 1.0, 0.5));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "pull_rmax")]
    fn negative_pull_rmax_rejected() {
        // A negative radius turns the well into a repulsive field with
        // negative energy.
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.central_pull = 0.1;
        c.pull_frac = Some(c.hot_tile_frac());
        c.pull_rmax = Some(-3.0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "lj.rcut must be a finite number > 0; got -5")]
    fn negative_cutoff_rejected() {
        // Passed `cell_len ≥ rcut` trivially and ran with a squared
        // cutoff of 25 over a one-cell shell — serial and parallel alike,
        // so no parity test could see the missed pairs.
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.lj.rcut = -5.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "lj.sigma must be a finite number > 0; got 0")]
    fn zero_sigma_rejected_on_the_cube_too() {
        let mut c = RunConfig::new(1000, 6, 8, 0.05);
        c.dlb = false;
        c.lj.sigma = 0.0;
        crate::decomp::validate(&c, DomainShape::Cube);
    }

    #[test]
    #[should_panic(expected = "lj.epsilon must be finite; got NaN")]
    fn nan_epsilon_rejected() {
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.lj.epsilon = f64::NAN;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "dt must be a finite number > 0; got inf")]
    fn infinite_time_step_rejected() {
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.dt = f64::INFINITY;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "density must be a finite number > 0; got inf")]
    fn infinite_density_rejected() {
        // (An infinite density is a box of length 0.)
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.density = f64::INFINITY;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "t_ref must be a finite number > 0; got NaN")]
    fn nan_temperature_rejected() {
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.t_ref = f64::NAN;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "speed.base must be finite; got inf")]
    fn infinite_speed_factor_rejected() {
        // (`inf > 0` holds; every load on that rank would read 0.)
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.speed = Some(SpeedSchedule::fixed(vec![1.0, f64::INFINITY]));
        c.validate();
    }

    #[test]
    fn mistakes_come_back_as_variants_before_anything_runs() {
        use crate::driver::Ladder;
        use crate::elastic::ResizePlan;
        let good = RunConfig::from_p_m_density(9, 2, 0.2);
        assert_eq!(good.check(DomainShape::SquarePillar), Ok(()));
        // One mistake, three shapes, three answers.
        assert_eq!(
            good.check(DomainShape::Cube),
            Err(ConfigError::NotCubic { p: 9 })
        );
        assert_eq!(
            RunConfig {
                p: 7,
                ..good.clone()
            }
            .check(DomainShape::SquarePillar),
            Err(ConfigError::NotSquare { p: 7 })
        );
        let vast = RunConfig {
            p: 33 * 33,
            nc: 66,
            ..good.clone()
        };
        assert_eq!(
            vast.check(DomainShape::SquarePillar),
            Err(ConfigError::PillarTooWide { side: 33 })
        );
        assert_eq!(
            RunConfig {
                p: 7,
                ..good.clone()
            }
            .check(DomainShape::Plane),
            Err(ConfigError::PlaneTooThin { p: 7, nc: 6 })
        );
        let frozen = RunConfig {
            steps: 0,
            ..good.clone()
        };
        assert_eq!(
            frozen.check(DomainShape::SquarePillar),
            Err(ConfigError::NoSteps)
        );
        // The ladder's own rules come after the configuration's.
        let ladder = |max_attempts, plan| Ladder { max_attempts, plan };
        let pillar = DomainShape::SquarePillar;
        let check = |l: Ladder, shape| l.check(&good, shape);
        assert_eq!(check(Ladder::default(), pillar), Ok(()));
        assert_eq!(
            check(Ladder::default(), DomainShape::Plane),
            Err(ConfigError::NotPillar)
        );
        assert_eq!(
            ladder(3, ResizePlan::new()).check(&frozen, pillar),
            Err(ConfigError::NoSteps)
        );
        assert_eq!(
            check(ladder(0, ResizePlan::new()), pillar),
            Err(ConfigError::NoAttempts)
        );
        let past_the_end = ResizePlan::new().resize(100, 4);
        assert_eq!(
            check(ladder(3, past_the_end), pillar),
            Err(ConfigError::ResizePastEnd {
                at_step: 100,
                steps: 100
            })
        );
        assert_eq!(
            check(ladder(3, ResizePlan::new().resize(10, 8)), pillar),
            Err(ConfigError::ResizeNotSquare { p: 8 })
        );
    }

    #[test]
    fn a_comm_config_the_message_layer_refuses_is_a_config_error() {
        let mut cfg = RunConfig::from_p_m_density(9, 2, 0.2);
        cfg.comm.poll = std::time::Duration::ZERO;
        let err = cfg
            .check(DomainShape::SquarePillar)
            .expect_err("a zero poll");
        assert_eq!(err, ConfigError::Comm(CommConfigError::Zero("poll")));
        assert_eq!(err.to_string(), "CommConfig: poll must be non-zero");
        let ladder = crate::driver::Ladder::default();
        let refused = ladder.check(&cfg, DomainShape::SquarePillar);
        assert_eq!(refused, Err(err));
    }

    #[test]
    fn chaos_rates_that_wrap_a_u32_are_refused_not_run() {
        use pcdlb_mp::LossyProfile;
        // u32::MAX + 1 wraps to 0 in `u32`: summed that way every frame
        // would be dropped at run time instead.
        let mut cfg = RunConfig::from_p_m_density(9, 2, 0.2);
        cfg.comm.chaos = Some(LossyProfile {
            drop_per_mille: u32::MAX,
            dup_per_mille: 1,
            ..LossyProfile::new(3)
        });
        for shape in [DomainShape::SquarePillar, DomainShape::Plane] {
            assert_eq!(
                cfg.check(shape),
                Err(ConfigError::Comm(CommConfigError::Rates(u32::MAX, 1, 0)))
            );
        }
    }

    #[test]
    fn ddm_only_allowed_on_tiny_torus() {
        let mut c = RunConfig::new(8000, 8, 4, 0.2);
        c.dlb = false;
        c.validate();
    }

    #[test]
    fn speed_schedule_is_deterministic_positive_and_bounded() {
        let s = SpeedSchedule {
            base: vec![1.0, 0.5, 0.8],
            amplitude: 0.4,
            period: 16,
        };
        for rank in 0..9 {
            let b = s.base[rank % 3];
            for step in 0..64 {
                let v = s.speed(rank, step);
                assert_eq!(v, s.speed(rank, step), "pure function of (rank, step)");
                assert!(v > 0.0);
                assert!(v >= b * (1.0 - s.amplitude) - 1e-12);
                assert!(v <= b * (1.0 + s.amplitude) + 1e-12);
            }
            // The wave actually drifts over a period. (Half-period
            // points can coincide — the triangle is symmetric — so scan
            // the whole period for movement.)
            assert!((1..s.period).any(|st| s.speed(rank, st) != s.speed(rank, 0)));
        }
        // Static schedules ignore step entirely.
        let fixed = SpeedSchedule::fixed(vec![2.0, 0.25]);
        assert_eq!(fixed.speed(0, 0), 2.0);
        assert_eq!(fixed.speed(1, 999), 0.25);
        assert_eq!(fixed.speed(2, 7), 2.0, "base factors cycle by rank");
    }

    #[test]
    fn speed_schedule_phases_differ_between_ranks() {
        let s = SpeedSchedule {
            base: vec![1.0],
            amplitude: 0.5,
            period: 32,
        };
        // Same base, different phase: at some step the two ranks must
        // disagree, or the drift could never create imbalance.
        assert!((0..32).any(|t| s.speed(0, t) != s.speed(1, t)));
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn zero_speed_factors_rejected() {
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.speed = Some(SpeedSchedule::fixed(vec![1.0, 0.0]));
        c.validate();
    }

    #[test]
    fn skin_with_roomy_cells_validates() {
        // nc = 6 at ρ chosen so cell_len = 3.0 ≥ 2.5 + 0.4.
        let n = (0.1 * 18.0f64.powi(3)).round() as usize;
        let mut c = RunConfig::new(n, 6, 9, 0.1);
        // box = (n/ρ)^{1/3} ≈ 18 ⇒ cell ≈ 3.0.
        assert!((c.cell_len() - 3.0).abs() < 0.01, "cell {}", c.cell_len());
        c.skin = 0.4;
        c.verlet = true;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cannot stay exhaustive")]
    fn skin_on_paper_tight_cells_rejected() {
        // The paper's cell ≈ 2.56 leaves no room for a 0.4 skin: a ghost
        // shell one cell deep would be thinner than r_c + skin.
        let mut c = RunConfig::from_p_m_density(9, 2, 0.256);
        c.skin = 0.4;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "requires a positive skin")]
    fn verlet_without_skin_rejected() {
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.verlet = true;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn full_amplitude_drift_rejected() {
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        c.speed = Some(SpeedSchedule {
            base: vec![1.0],
            amplitude: 1.0,
            period: 8,
        });
        c.validate();
    }
}

#[cfg(test)]
mod pull_tests {
    use super::*;
    use pcdlb_md::force::ExternalPull;

    #[test]
    fn pull_mapping_covers_all_variants() {
        let mut c = RunConfig::from_p_m_density(9, 2, 0.2);
        assert!(c.pull().is_none());
        c.central_pull = 0.1;
        assert!(matches!(c.pull(), ExternalPull::Center { .. }));
        c.pull_corner = true;
        assert!(matches!(c.pull(), ExternalPull::Corner { .. }));
        c.pull_frac = Some((0.25, 0.5, 0.5));
        assert!(matches!(c.pull(), ExternalPull::Point { .. }));
        c.pull_rmax = Some(3.0);
        assert!(matches!(c.pull(), ExternalPull::Well { .. }));
    }

    #[test]
    fn hot_tile_frac_centers_one_tile() {
        // Odd torus side: the box centre is the middle tile's centre.
        let c9 = RunConfig::from_p_m_density(9, 2, 0.2);
        let (fx, fy, fz) = c9.hot_tile_frac();
        assert_eq!((fx, fy, fz), (0.5, 0.5, 0.5));
        // Even side: offset so the hotspot sits inside tile (side/2, ·).
        let c16 = RunConfig::from_p_m_density(16, 2, 0.2);
        let (fx, _, _) = c16.hot_tile_frac();
        assert!((fx - 0.625).abs() < 1e-12);
        // The target is interior to tile (side/2, side/2): its tile-start
        // fraction is 0.5 and its tile-end fraction is 0.75.
        assert!(fx > 0.5 && fx < 0.75);
    }
}
