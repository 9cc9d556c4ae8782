//! Regenerates paper Fig. 9: the trajectory of one MD simulation in
//! `(n, C₀/C)` space, with the experimental boundary point marked.
//!
//! The run concentrates over time, so `C₀/C` climbs; the boundary point is
//! the step at which `Fmax − Fmin` of the DLB run begins a sustained
//! increase (paper Sec. 4.2). The theoretical bound `f(m, n)` is printed
//! alongside so the crossing is visible in the numbers.
//!
//! The paper's figure measures tiles cut once, at launch
//! (`Launch::fixed_tiles`). `--retile` prints the "DLB + re-tile" series
//! beside it instead — the same run with tiles that follow the load, each
//! re-tile marked — and the mean `Tt` of both runs.
//!
//! Usage: fig9 [--p P] [--m M] [--density RHO] [--steps N] [--pull K]
//!             [--gain G] [--every E] [--retile]

use pcdlb_bench::{detect_boundary_index, print_header, run_fixed, Args};
use pcdlb_core::theory;
use pcdlb_sim::{run, RunConfig, RunReport};

fn main() {
    let args = Args::parse();
    let p = args.get_usize("p", 9);
    let m = args.get_usize("m", 2);
    let density = args.get_f64("density", 0.256);
    let steps = args.get_u64("steps", 2000);
    let pull = args.get_f64("pull", 0.08);
    let every = args.get_u64("every", (steps / 50).max(1));

    let mut cfg = RunConfig::from_p_m_density(p, m, density);
    cfg.steps = steps;
    cfg.central_pull = pull;
    cfg.dlb = true;
    cfg.pull_corner = args.flag("corner");
    cfg.dlb_min_gain = args.get_f64("gain", 0.05);

    let retile = args.flag("retile");
    if retile {
        println!("# Fig. 9 beside the paper: DLB + re-tile (tiles follow the load)");
    } else {
        println!("# Fig. 9 reproduction: trajectory in (n, C0/C) space");
    }
    println!(
        "# P={p} m={m} rho={density} N={} steps={steps} pull={pull}",
        cfg.n_particles
    );
    let report = if retile { run(&cfg) } else { run_fixed(&cfg) };

    let boundary = detect_boundary_index(&report);
    print_header(&["step", "n", "C0/C", "f(m,n)", "Fmax-Fmin[s]"]);
    for r in &report.records {
        if r.step.is_multiple_of(every) {
            println!(
                "{}\t{:.4}\t{:.4}\t{:.4}\t{:.6}",
                r.step,
                r.n_factor,
                r.c0_over_c,
                theory::upper_bound(m, r.n_factor),
                r.imbalance()
            );
        }
    }
    match boundary {
        Some(idx) => {
            let rec = &report.records[idx];
            println!(
                "# experimental boundary point: step {} at (n={:.4}, C0/C={:.4}); \
                 theoretical bound f({m},{:.4})={:.4}; E/T={:.3}",
                rec.step,
                rec.n_factor,
                rec.c0_over_c,
                rec.n_factor,
                theory::upper_bound(m, rec.n_factor),
                rec.c0_over_c / theory::upper_bound(m, rec.n_factor),
            );
        }
        None => println!(
            "# no boundary detected within {steps} steps — DLB kept the load \
             balanced for the whole run (increase --steps or --pull)"
        ),
    }
    if retile {
        for (step, tiling, moved) in &report.retiles {
            println!("# re-tiled at step {step}: tile widths {tiling}, {moved} columns moved");
        }
        let mean_ms = |r: &RunReport| r.mean_t_step(0, r.records.len()) * 1e3;
        println!(
            "# mean Tt: {:.4} model_ms on fixed tiles, {:.4} with re-tiling",
            mean_ms(&run_fixed(&cfg)),
            mean_ms(&report)
        );
    }
}
