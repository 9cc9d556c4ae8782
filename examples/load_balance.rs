//! Watching the permanent-cell balancer work, PE by PE.
//!
//!     cargo run --release --example load_balance
//!
//! Starts from a deliberately unbalanced state — all particles clustered
//! in one corner of the box (`Lattice::Cluster`) — and runs the same
//! workload twice: plain DDM, then DLB-DDM. Prints the launch — the
//! tiling the balancing run's tiles are cut on, where the load is, and
//! the columns each PE gives and takes before the first step, where the
//! balancer's own rule takes the initial condition from there — and the
//! re-tiles the run made as the load moved (`RunReport::retiles`), then
//! each PE's owned-cell count and the force-time spread, showing ownership
//! flown away from the loaded corner while the 8-neighbour pattern stays
//! intact (the run would panic otherwise — ghost exchange asserts it). Exits
//! non-zero if DLB-DDM's late-phase `Fmax/Fave` is not below DDM's (CI
//! runs it).

use pcdlb::core::permanent::max_columns;
use pcdlb::core::theory;
use pcdlb::domain::PillarLayout;
use pcdlb::sim::pe::initial_particles;
use pcdlb::sim::{launch_plan, launch_plan_on, run, DomainShape, Lattice, Placed, RunConfig};

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
        "On m × m tiles the DLB limit allows a PE to grow to {:.2}× its initial cells (paper Fig. 4: m = 3 → ~2.3×).\n",
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
            // The launch the run started from (the same pure function of
            // the configuration the driver called), and what the paper's
            // tiling would have started it on.
            let work = Placed::new(&c, &initial_particles(&c)).column_work();
            let plan = launch_plan(DomainShape::SquarePillar, &c, 0, &work, true);
            let tiling = plan.tiling();
            let even = launch_plan_on(PillarLayout::new(c.nc, c.torus()), &c, 0, &work);
            println!("          launch tiling: tile widths {tiling}");
            println!(
                "          largest load on m × m tiles {:.6}s, planned down to {:.6}s ({} transfers)",
                even.peaks[0],
                even.peaks[even.peaks.len() - 1],
                even.decisions.len()
            );
            let (mut given, mut taken) = (vec![0; c.p], vec![0; c.p]);
            for d in &plan.decisions {
                given[d.from] += 1;
                taken[d.to] += 1;
            }
            println!(
                "          on the chosen tiles {:.6}s, launch plan of {} iterations → {:.6}s",
                plan.peaks[0],
                plan.round_ends.len(),
                plan.peaks[plan.peaks.len() - 1]
            );
            println!("          columns given per PE:  {given:?}");
            println!("          columns taken per PE:  {taken:?}");
            if report.retiles.is_empty() {
                println!("          re-tiled: never (no check at steps 2 … 128 paid for a move)");
            }
            for (step, tiling, moved) in &report.retiles {
                println!("          re-tiled at step {step}: tile widths {tiling}, {moved} columns moved");
            }
            let last = report.tiling.expect("a pillar run reports its tiling");
            let caps: Vec<usize> = (0..c.p).map(|r| max_columns(&last, r) * c.nc).collect();
            println!("          cells per PE: {:?}", report.cells_per_rank);
            println!("          limit per PE: {caps:?}");
        } else {
            println!("          cells per PE: {:?}", report.cells_per_rank);
        }
        println!();
    }

    // On the paper's 3 × 3 tiles the cluster sits on PE 0's: the plan can
    // strip PE 0 to its 2m − 1 = 5 permanent columns and no further, so
    // the largest load stays at 5/9 of the tile's and the late imbalance
    // at ~2.5 against DDM's ~4.4. That is the DLB limit reached before
    // the first step, so the launch cuts the tiles through the cluster
    // instead. Tiles cut once (`Launch::fixed_tiles()`) keep a movable
    // column each: 2·5·2 from 0 on both axes, 3 transfers at launch and
    // 26 in the run, late imbalance ~1.55. This run may re-tile later, so
    // its launch may cut tiles one column wide: 1·1·7 from 1, a thin row
    // and column of single-column tiles — all wall, nothing to plan —
    // round the cluster's core, and the wide tiles take the cluster as
    // it spreads, 76 columns in 250 steps, each the one that evens its
    // pair most. No check finds a move worth its cost; the late imbalance
    // reads ~1.51.
    let [ddm, dlb] = imbalance;
    println!(
        "Expected: tile widths 1·1·7 from 1 on both axes, never re-tiled; 0 transfers at launch \
         + 76 in the run; DLB-DDM imbalance ~1.51 against DDM ~4.4."
    );
    if dlb >= ddm {
        eprintln!("FAILED: DLB-DDM imbalance {dlb:.2} is not below DDM's {ddm:.2}");
        std::process::exit(1);
    }
}
