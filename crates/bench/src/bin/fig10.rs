//! Regenerates paper Fig. 10: theoretical upper bounds `f(m, n)` and
//! experimental boundary points/lines in `(n, C₀/C)` space for
//! m = 2, 3, 4, one boundary point per reduced density
//! ρ* ∈ {0.128, 0.256, 0.384, 0.512}.
//!
//! The paper's findings this must reproduce:
//! - every experimental boundary point lies **below** the theoretical
//!   bound (`E/T < 1`);
//! - the experimental boundary sits closer to the bound for larger `m`.
//!
//! Usage: fig10 [--p P] [--steps N] [--pull K] [--seeds S] [--paper]
//!   (--paper uses P = 36 as in the paper; default P = 9 — the bound does
//!    not depend on P and Table 1 shows E/T barely does.)

use pcdlb_bench::{
    boundary_cfg, launch_tiling, measure_boundary_averaged, print_header, widths_note, Args,
};
use pcdlb_core::metrics::least_squares_line;
use pcdlb_core::theory;

fn main() {
    let args = Args::parse();
    let p = if args.flag("paper") {
        36
    } else {
        args.get_usize("p", 9)
    };
    let steps = args.get_u64("steps", 2200);
    let pull = args.get_f64("pull", 0.08);
    let nseeds = args.get_u64("seeds", 1);
    let seeds: Vec<u64> = (1..=nseeds).collect();
    let densities = [0.128, 0.256, 0.384, 0.512];

    println!("# Fig. 10 reproduction: theoretical bound vs experimental boundary");
    println!("# P={p} steps={steps} pull={pull} seeds={nseeds}");

    for m in [2usize, 3, 4] {
        println!("\n## Fig 10 (m={m})");
        println!("# theoretical bound f({m}, n):");
        print_header(&["n", "f(m,n)"]);
        let mut k = 1.0;
        while k <= 4.0 + 1e-9 {
            println!("{k:.2}\t{:.4}", theory::upper_bound(m, k));
            k += 0.5;
        }
        println!("# experimental boundary points:");
        print_header(&["rho", "n", "C0/C", "f(m,n)", "E/T", "boundary_step"]);
        let mut pts: Vec<(f64, f64)> = Vec::new();
        let mut ratios: Vec<f64> = Vec::new();
        for &rho in &densities {
            // (The lattice positions, and so the tiling, are the same at
            // every seed. `f(m, n)` is the bound for m × m tiles.)
            let tiling = launch_tiling(&boundary_cfg(p, m, rho, steps, pull, seeds[0]));
            if !tiling.is_even() {
                println!("# rho={rho}{}", widths_note(&tiling));
            }
            match measure_boundary_averaged(p, m, rho, steps, pull, &seeds) {
                Some(b) => {
                    println!(
                        "{rho}\t{:.4}\t{:.4}\t{:.4}\t{:.3}\t{}",
                        b.n,
                        b.c0_over_c,
                        b.theory,
                        b.e_over_t(),
                        b.step
                    );
                    pts.push((b.n, b.c0_over_c));
                    ratios.push(b.e_over_t());
                }
                None => println!("{rho}\t-\t-\t-\t-\t(no boundary within budget)"),
            }
        }
        if pts.len() >= 2 {
            let (a, b) = least_squares_line(&pts);
            println!("# experimental boundary (least squares): C0/C = {a:.4} + {b:.4}*n");
        }
        if !ratios.is_empty() {
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            let below = ratios.iter().filter(|&&r| r < 1.0).count();
            println!(
                "# mean E/T = {mean:.3} ({below}/{} points below the theoretical bound)",
                ratios.len()
            );
        }
    }
}
