//! Communication-volume analysis of the three domain shapes (paper
//! Fig. 2 and the discussion in Sec. 2.2 / ref. \[8\]).
//!
//! For `C = nc³` cells on `P` PEs the per-PE ghost import per step is the
//! one-cell-thick shell around the domain:
//!
//! | shape | domain | neighbours | ghost cells |
//! |---|---|---|---|
//! | plane | `(nc/P) × nc × nc` | 2 (ring) | `2·nc²` |
//! | square pillar | `m × m × nc`, `m = nc/√P` | 8 (2-D torus) | `((m+2)² − m²)·nc` |
//! | cube | `s³`, `s = nc/P^(1/3)` | 26 (3-D torus) | `(s+2)³ − s³` |
//!
//! Combined with a postal cost model (`messages·α + bytes/β`) this
//! reproduces the paper's claim that the square pillar is the best shape
//! for mid-size simulations on mid-size machines: the plane pays too much
//! bandwidth, the cube too much latency (26 neighbour messages), and the
//! pillar sits in between. The `shapes` bench regenerates the comparison.

use pcdlb_mp::CostModel;

/// The three 3-D domain shapes of paper Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainShape {
    /// Full slabs along one axis; PEs form a ring.
    Plane,
    /// Full-z columns with an `m × m` cross-section; PEs form a 2-D torus.
    SquarePillar,
    /// Cubic blocks; PEs form a 3-D torus.
    Cube,
}

impl DomainShape {
    /// All three shapes, for sweeps.
    pub const ALL: [DomainShape; 3] = [
        DomainShape::Plane,
        DomainShape::SquarePillar,
        DomainShape::Cube,
    ];

    /// Number of neighbouring PEs a domain exchanges ghosts with.
    pub fn neighbor_count(&self) -> usize {
        match self {
            DomainShape::Plane => 2,
            DomainShape::SquarePillar => 8,
            DomainShape::Cube => 26,
        }
    }

    /// Ghost (imported) cells per PE per step, allowing fractional domain
    /// extents for analysis sweeps.
    pub fn ghost_cells(&self, nc: usize, p: usize) -> f64 {
        let ncf = nc as f64;
        let pf = p as f64;
        match self {
            DomainShape::Plane => 2.0 * ncf * ncf,
            DomainShape::SquarePillar => {
                let m = ncf / pf.sqrt();
                ((m + 2.0) * (m + 2.0) - m * m) * ncf
            }
            DomainShape::Cube => {
                let s = ncf / pf.cbrt();
                (s + 2.0).powi(3) - s.powi(3)
            }
        }
    }

    /// Modelled per-step ghost-exchange time for one PE: one message per
    /// neighbour plus the ghost volume over the wire, with
    /// `bytes_per_cell` the average payload of one cell's particles.
    pub fn ghost_exchange_time(
        &self,
        nc: usize,
        p: usize,
        bytes_per_cell: f64,
        model: &CostModel,
    ) -> f64 {
        let msgs = self.neighbor_count() as f64;
        let bytes = self.ghost_cells(nc, p) * bytes_per_cell;
        msgs * (model.latency_s + model.per_hop_s) + bytes / model.bandwidth_bps
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            DomainShape::Plane => "plane",
            DomainShape::SquarePillar => "square pillar",
            DomainShape::Cube => "cube",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghost_cells_closed_forms() {
        // nc = 24, P = 36: plane 2·576 = 1152; pillar m = 4 → 20·24 = 480.
        assert_eq!(DomainShape::Plane.ghost_cells(24, 36), 1152.0);
        assert_eq!(DomainShape::SquarePillar.ghost_cells(24, 36), 480.0);
        // Cube with integral s: nc = 24, P = 64 → s = 6 → 8³−6³ = 296.
        assert_eq!(DomainShape::Cube.ghost_cells(24, 64), 296.0);
    }

    #[test]
    fn cube_has_least_volume_but_most_messages() {
        let (nc, p) = (24, 64);
        assert!(
            DomainShape::Cube.ghost_cells(nc, p) < DomainShape::SquarePillar.ghost_cells(nc, p)
        );
        assert!(
            DomainShape::SquarePillar.ghost_cells(nc, p) < DomainShape::Plane.ghost_cells(nc, p)
        );
        assert!(DomainShape::Cube.neighbor_count() > DomainShape::SquarePillar.neighbor_count());
    }

    #[test]
    fn pillar_wins_the_paper_midsize_configuration() {
        // The paper's Fig. 5(a) configuration: C = 24³, P = 36, ~4.3
        // particles per cell at 56 B each.
        let model = CostModel::t3e(None);
        let bytes_per_cell = 4.3 * 56.0;
        let t: Vec<f64> = DomainShape::ALL
            .iter()
            .map(|s| s.ghost_exchange_time(24, 36, bytes_per_cell, &model))
            .collect();
        let (plane, pillar, cube) = (t[0], t[1], t[2]);
        assert!(pillar < plane, "pillar {pillar} should beat plane {plane}");
        assert!(pillar < cube, "pillar {pillar} should beat cube {cube}");
    }

    #[test]
    fn plane_wins_at_tiny_pe_counts() {
        // With P = 4 the pillar's extra messages cost more than the
        // plane's modest bandwidth edge at small nc.
        let model = CostModel::t3e(None);
        let plane = DomainShape::Plane.ghost_exchange_time(8, 4, 100.0, &model);
        let pillar = DomainShape::SquarePillar.ghost_exchange_time(8, 4, 100.0, &model);
        assert!(plane < pillar, "plane {plane} vs pillar {pillar}");
    }

    #[test]
    fn cube_wins_at_massive_scale() {
        // The paper: "cube domain is suitable for large-scale MD
        // simulations on massively parallel computers". Large C and P,
        // bandwidth-dominated.
        let model = CostModel::t3e(None);
        let bytes_per_cell = 10.0 * 56.0;
        let pillar =
            DomainShape::SquarePillar.ghost_exchange_time(512, 4096, bytes_per_cell, &model);
        let cube = DomainShape::Cube.ghost_exchange_time(512, 4096, bytes_per_cell, &model);
        assert!(cube < pillar, "cube {cube} vs pillar {pillar}");
    }
}
