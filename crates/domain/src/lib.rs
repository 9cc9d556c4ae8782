//! `pcdlb-domain` — domain decomposition for 3-D cell-based MD.
//!
//! The paper's Sec. 2.2: the `C = nc³` cells of the simulation box are
//! grouped into *domains*, one per PE. Three shapes exist (Fig. 2) —
//! plane, square pillar and cube — and the paper argues the **square
//! pillar** is best for mid-size runs: PEs form a virtual 2-D torus with a
//! simple 8-neighbour relationship, which is the property the
//! permanent-cell load balancer preserves.
//!
//! With square pillars the unit of decomposition (and of load-balancing
//! transfer) is a cell *column*: all `nc` cells sharing an `(cx, cy)`
//! cross-section coordinate. Each PE's home *tile* is an `m × m` block of
//! columns, `m = C^(1/3) / P^(1/2)` (paper Fig. 7).
//!
//! - [`mod@column`]: the cross-section grid of columns and its 8-adjacency;
//! - [`pillar`]: the tile layout mapping columns to home PEs;
//! - [`ownership`]: the dynamic column→owner map plus the structural
//!   invariants the permanent-cell scheme guarantees;
//! - [`shapes`]: communication-volume analysis of the three domain shapes.

pub mod column;
pub mod ownership;
pub mod pillar;
pub mod shapes;

pub use column::{Col, ColumnGrid};
pub use ownership::OwnershipMap;
pub use pillar::PillarLayout;
pub use shapes::DomainShape;
