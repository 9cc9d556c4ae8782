//! Cube-domain decomposition (paper Fig. 2(c)) — the third domain shape,
//! "suitable for large-scale MD simulations on massively parallel
//! computers". PEs form a 3-D torus of side `k` (`P = k³`); each owns an
//! `s³` block of cells (`s = nc/k`) and exchanges ghosts with the ranks
//! around it (26 distinct ones from `k = 3` up, 7 at `k = 2`).
//!
//! The paper notes that "the number of neighbouring PEs with cube domain
//! is large and DLB becomes more difficult" — matching that scope, the
//! cube is DDM only: it answers who owns a cell and offers the balancer
//! nothing to move. It exists to complete the domain-shape comparison
//! with *measured* communication volumes (the `shapes` analysis validated
//! against a real run) and as a third check of the physics: on the shared
//! engine in [`crate::pe`] it reproduces the serial reference **bitwise**.
//!
//! The cube is the one shape whose ownership depends on z: a rank holds
//! only its block's z cells of each of its columns, and the cells just
//! above and below are ghosts under the same column key.
//!
//! Two things buy the cube back most of that price. The exchange is
//! staged along the torus axes: a rank sends one frame to each distinct
//! rank one step away along an axis, and the edge and corner neighbours'
//! shares ride those frames — 6 frames per rank and round instead of 26
//! (3 instead of 7 at `k = 2`). And having no balancer, nothing can move
//! ownership between a step's migration and its ghost exchange, so the
//! engine sends both in one exchange — 6 (or 3) messages per rank-step
//! instead of twice that — wherever blocks are at least two cells wide or
//! the torus side is at most 3 (the closure test of
//! [`PeState::exchanges_once`](crate::pe::PeState::exchanges_once)).

use std::ops::Range;

use pcdlb_domain::{Col, DomainShape};
use pcdlb_md::Particle;

use crate::config::RunConfig;
use crate::decomp::Decomposition;
use crate::report::RunReport;

/// Validate a config for the cube decomposition: `P` a perfect cube whose
/// side divides `nc`.
pub fn validate_cube(cfg: &RunConfig) {
    crate::decomp::validate(cfg, DomainShape::Cube);
}

/// The static block layout: cell `(cx, cy, cz)` belongs to the rank at
/// torus coordinates `(cx/s, cy/s, cz/s)`.
pub(crate) struct Cube {
    /// Blocks per axis.
    k: usize,
    /// Block side in cells.
    s: usize,
    /// Block coordinate of each cell coordinate (`c / s`, tabulated: the
    /// engine asks for an owner per particle per step).
    block: Vec<usize>,
}

impl Cube {
    pub(crate) fn new(cfg: &RunConfig) -> Self {
        let k = (cfg.p as f64).cbrt().round() as usize;
        let s = cfg.nc / k;
        Self {
            k,
            s,
            block: (0..cfg.nc).map(|c| c / s).collect(),
        }
    }
}

impl Decomposition for Cube {
    /// Rank `(bz·k + by)·k + bx` of block `(bx, by, bz)`: x fastest, the
    /// numbering [`pcdlb_mp::Torus3d`] maps, so `pcdlb-check` can name a
    /// cube rank's neighbours with it.
    fn owner_of(&self, col: Col, cz: usize) -> usize {
        (self.block[cz] * self.k + self.block[col.cy]) * self.k + self.block[col.cx]
    }

    fn z_extent(&self, rank: usize) -> Range<usize> {
        let bz = rank / (self.k * self.k);
        bz * self.s..(bz + 1) * self.s
    }

    fn rank_torus(&self) -> [usize; 3] {
        [self.k; 3]
    }
}

/// Run the cube-domain simulator and gather the final particle state: a
/// forward to [`Launch::shape`](crate::driver::Launch::shape).
pub fn run_cube_with_snapshot(cfg: &RunConfig) -> (RunReport, Vec<Particle>) {
    let launch = crate::driver::Launch::new().shape(DomainShape::Cube);
    launch.snapshot().run(cfg).into_snapshot()
}
