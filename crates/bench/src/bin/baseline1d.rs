//! Baseline comparison: permanent-cell DLB (this paper) vs the 1-D
//! moving-boundary balancer of the prior art it cites (Brugé & Fornili
//! \[4\], Kohring \[5\]), on identical workloads.
//!
//! The paper's argument for permanent cells: 1-D methods "are not
//! extended to 3-dimensional MD simulations easily" — a plane balancer
//! only redistributes along one axis, so any concentration that varies in
//! the other two axes is invisible to it. Two workloads make the point:
//!
//! - **slab**: particles clustered in low-x slabs (uniform in y, z) — the
//!   best case for the 1-D balancer;
//! - **hotspot**: a pull toward the centre of one PE tile (varies in x
//!   *and* y) — balanceable by the 2-D permanent-cell scheme, mostly
//!   invisible to the 1-D one.
//!
//! Usage: baseline1d [--p P] [--m M] [--steps N] [--pull K]

use pcdlb_bench::{print_header, run_fixed, widths_note, Args};
use pcdlb_sim::{DomainShape, Lattice, Launch, RunConfig, RunReport};

fn late_imbalance(rep: &RunReport) -> (f64, f64) {
    let from = rep.records.len() * 3 / 4;
    let late = &rep.records[from..];
    let n = late.len() as f64;
    let ratio = late
        .iter()
        .map(|r| r.f_max / r.f_ave.max(1e-300))
        .sum::<f64>()
        / n;
    let t = late.iter().map(|r| r.t_step).sum::<f64>() / n;
    (ratio, t)
}

fn report_row(label: &str, rep: &RunReport) {
    let (ratio, t) = late_imbalance(rep);
    let transfers: u32 = rep.records.iter().map(|r| r.transfers).sum();
    println!("{label}\t{ratio:.2}\t{t:.6}\t{transfers}");
}

/// Both decompositions, balanced and not, so that each balancer is
/// compared against its own decomposition's static distribution.
fn run_all_four(base: &RunConfig) {
    let mut c = base.clone();
    c.dlb = false;
    report_row("pillar-static", &run_fixed(&c));
    c.dlb = true;
    let dlb = run_fixed(&c);
    report_row("pillar-dlb", &dlb);
    let tiling = dlb.tiling.expect("a pillar run reports its tiling");
    if !tiling.is_even() {
        println!("# (pillar-dlb{})", widths_note(&tiling));
    }
    let plane = Launch::new().shape(DomainShape::Plane).fixed_tiles();
    c.dlb = false;
    report_row("plane-static", &plane.run(&c).report);
    c.dlb = true;
    report_row("plane-1d-dlb", &plane.run(&c).report);
}

fn main() {
    let args = Args::parse();
    let p = args.get_usize("p", 9);
    // m = 6 gives nc = 18 planes over 9 PEs — exactly 2 planes per PE.
    // The plane method needs nc >> P to have any balancing freedom at
    // all (its granularity is a whole plane, the pillar's is a column of
    // nc cells out of m²·nc); the printout quantifies what remains.
    let m = args.get_usize("m", 6);
    let steps = args.get_u64("steps", 900);
    let pull = args.get_f64("pull", 0.12);

    let mut base = RunConfig::from_p_m_density(p, m, 0.128);
    base.steps = steps;
    base.dlb_min_gain = 0.08;

    println!("# Permanent-cell DLB vs 1-D moving-boundary baseline");
    println!("# P={p} m={m} N={} steps={steps}", base.n_particles);

    // Workload 1: slab imbalance (1-D balancer's best case).
    println!("\n## slab workload (clustered in low-x slabs)");
    let mut slab = base.clone();
    slab.density = 0.04;
    slab.lattice = Lattice::Cluster { fill: 0.5 };
    print_header(&["balancer", "late_Fmax/Fave", "late_Tt[s]", "transfers"]);
    run_all_four(&slab);

    // Workload 2: the granularity wall — the same slab imbalance, but at
    // P = nc every PE owns exactly one plane, so the 1-D balancer has no
    // move left (a whole plane is its smallest unit); the permanent-cell
    // scheme's unit is one column out of m² per tile, so it still works.
    println!("\n## granularity workload (same slab, nc = P: one plane per PE)");
    let mut tight = RunConfig::from_p_m_density(p, 3, 0.128); // nc = 9 = P
    tight.steps = steps;
    tight.dlb_min_gain = base.dlb_min_gain;
    tight.density = 0.04;
    tight.lattice = Lattice::Cluster { fill: 0.5 };
    print_header(&["balancer", "late_Fmax/Fave", "late_Tt[s]", "transfers"]);
    run_all_four(&tight);

    // Workload 3: single-tile hotspot (2-D concentration). Needs a longer,
    // harder drive than the slab for the concentration to build up.
    println!("\n## hotspot workload (pull toward one PE tile's centre)");
    let mut hot = base.clone();
    hot.steps = args.get_u64("hot-steps", 2 * steps);
    hot.central_pull = pull;
    hot.pull_frac = Some(hot.hot_tile_frac());
    print_header(&["balancer", "late_Fmax/Fave", "late_Tt[s]", "transfers"]);
    run_all_four(&hot);
    println!("# expectation: with planes to spare the 1-D balancer wins its");
    println!("# home turf (x slab); at P = nc it is frozen (0 transfers) while");
    println!("# the permanent-cell scheme still balances; on the hotspot both");
    println!("# help — the pillar scheme's real edge at scale is communication");
    println!("# volume and P ≤ nc (see the `shapes` bench and DESIGN.md).");
}
