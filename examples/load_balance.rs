//! Watching the permanent-cell balancer work, PE by PE.
//!
//!     cargo run --release --example load_balance
//!
//! Starts from a deliberately unbalanced state — all particles clustered
//! in one corner of the box (`Lattice::Cluster`) — and runs the same
//! workload twice: plain DDM, then DLB-DDM. Prints the launch plan — the
//! columns each PE gives and takes before the first step, where the
//! balancer's own rule takes the initial condition — then each PE's
//! owned-cell count and the force-time spread, showing ownership flown
//! away from the loaded corner while the 8-neighbour pattern stays intact
//! (the run would panic otherwise — ghost exchange asserts it). Exits
//! non-zero if DLB-DDM's late-phase `Fmax/Fave` is not below DDM's (CI
//! runs it).

use pcdlb::core::theory;
use pcdlb::sim::pe::initial_particles;
use pcdlb::sim::{launch_plan, run, DomainShape, Lattice, Placed, RunConfig};

fn main() {
    let mut cfg = RunConfig::from_p_m_density(9, 3, 0.128);
    cfg.lattice = Lattice::Cluster { fill: 0.45 };
    cfg.steps = 250;
    cfg.dlb_min_gain = 0.02;

    println!(
        "Clustered start: {} particles packed into the corner 45% of a {}-cell box, 9 PEs (m = 3).",
        cfg.n_particles,
        cfg.total_cells()
    );
    println!(
        "The DLB limit allows a PE to grow to {:.2}× its initial cells (paper Fig. 4: m = 3 → ~2.3×).\n",
        theory::dlb_limit_ratio(cfg.m())
    );

    let mut imbalance = [0.0; 2];
    for dlb in [false, true] {
        let mut c = cfg.clone();
        c.dlb = dlb;
        let label = if dlb { "DLB-DDM" } else { "DDM" };
        let report = run(&c);
        let late = &report.records[report.records.len() - 50..];
        let fmax = late.iter().map(|r| r.f_max).sum::<f64>() / late.len() as f64;
        let fave = late.iter().map(|r| r.f_ave).sum::<f64>() / late.len() as f64;
        let fmin = late.iter().map(|r| r.f_min).sum::<f64>() / late.len() as f64;
        let transfers: u32 = report.records.iter().map(|r| r.transfers).sum();
        let max_cells = late.last().expect("records").max_cells;
        imbalance[usize::from(dlb)] = fmax / fave;
        println!("{label:8}: Fmax {fmax:.6}s  Fave {fave:.6}s  Fmin {fmin:.6}s");
        println!(
            "          imbalance (Fmax/Fave) {:.2}, largest domain holds {max_cells} cells, \
             {} transfers at launch + {transfers} in the run",
            fmax / fave,
            report.launch_transfers
        );
        if dlb {
            // The plan the run launched on (the same pure function of the
            // configuration the driver called).
            let placed = Placed::new(&c, &initial_particles(&c));
            let plan = launch_plan(DomainShape::SquarePillar, &c, 0, &placed);
            let (mut given, mut taken) = (vec![0; c.p], vec![0; c.p]);
            for d in &plan.decisions {
                given[d.from] += 1;
                taken[d.to] += 1;
            }
            println!(
                "          launch plan, {} iterations: largest load {:.6}s → {:.6}s",
                plan.round_ends.len(),
                plan.peaks[0],
                plan.peaks[plan.peaks.len() - 1]
            );
            println!("          columns given per PE:  {given:?}");
            println!("          columns taken per PE:  {taken:?}");
        }
        println!("          cells per PE: {:?}", report.cells_per_rank);
        if dlb {
            println!(
                "          largest domain grew to {:.2}× its initial size (limit {:.2}×)",
                max_cells as f64 / (cfg.m() * cfg.m() * cfg.nc) as f64,
                theory::dlb_limit_ratio(cfg.m())
            );
        }
        println!();
    }

    // The cluster sits on PE 0's tile. The launch plan runs the balancer's
    // rule on the initial condition — PE 0 offers a column to the fastest
    // neighbour that may take one, iteration after iteration — so the run
    // starts with PE 0 on its 2m − 1 = 5 permanent columns (45 of its 81
    // cells): four iterations, PE 0 giving its four movable columns, the
    // largest load down to 5/9 of the tile's. The in-run balancer carries
    // on from there as the cluster spreads, and the late imbalance falls
    // from ~4.4 to ~2.5 — about 5/9 of DDM's, the share of the hot tile
    // that may never move.
    let [ddm, dlb] = imbalance;
    println!(
        "Expected: PE 0 launched on its {} permanent cells (4 columns given at launch); \
         DLB-DDM imbalance ~2.5 against DDM ~4.4.",
        (2 * cfg.m() - 1) * cfg.nc
    );
    if dlb >= ddm {
        eprintln!("FAILED: DLB-DDM imbalance {dlb:.2} is not below DDM's {ddm:.2}");
        std::process::exit(1);
    }
}
