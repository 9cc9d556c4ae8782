//! Regenerates paper Table 1: the ratio E/T of the experimental boundary
//! to the theoretical upper bound, for m = 2, 3, 4 across PE counts.
//!
//! The paper's findings this must reproduce:
//! - E/T barely depends on the number of PEs (columns nearly equal);
//! - E/T grows with m (the experimental boundary approaches the bound);
//! - E/T exceeds one half for most cases.
//!
//! Each cell averages `C₀/C(boundary) / f(m, n(boundary))` over the
//! density sweep, as in Fig. 10.
//!
//! Usage: table1 [--steps N] [--pull K] [--seeds S] [--paper]
//!   Default PE counts {9, 16} keep the default run in minutes;
//!   `--paper` uses the paper's {16, 36, 64} (much heavier: N grows with
//!   P at fixed m because the cell size is pinned to the cutoff).

use pcdlb_bench::{boundary_cfg, launch_tiling, measure_boundary_averaged, widths_note, Args};

fn main() {
    let args = Args::parse();
    let steps = args.get_u64("steps", 2200);
    let pull = args.get_f64("pull", 0.08);
    let nseeds = args.get_u64("seeds", 1);
    let seeds: Vec<u64> = (1..=nseeds).collect();
    let pes: Vec<usize> = if args.flag("paper") {
        vec![16, 36, 64]
    } else {
        vec![9, 16]
    };
    let densities = [0.128, 0.256, 0.384, 0.512];

    println!("# Table 1 reproduction: ratio E/T of experimental boundary to theoretical bound");
    println!("# steps={steps} pull={pull} seeds={nseeds} densities={densities:?}");
    println!(
        "#\n# m \\ P\t{}",
        pes.iter()
            .map(|p| format!("{p}PEs"))
            .collect::<Vec<_>>()
            .join("\t")
    );

    // The cells whose launch re-cut the tiles: named under the table.
    let mut recut = Vec::new();
    for m in [2usize, 3, 4] {
        let mut row = format!("{m}");
        for &p in &pes {
            let ratios: Vec<f64> = densities
                .iter()
                .filter_map(|&rho| {
                    let tiling = launch_tiling(&boundary_cfg(p, m, rho, steps, pull, seeds[0]));
                    if !tiling.is_even() {
                        recut.push(format!("#  m={m} P={p} rho={rho}{}", widths_note(&tiling)));
                    }
                    measure_boundary_averaged(p, m, rho, steps, pull, &seeds).map(|b| b.e_over_t())
                })
                .collect();
            if ratios.is_empty() {
                row.push_str("\t-");
            } else {
                let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
                row.push_str(&format!("\t{mean:.2}"));
            }
        }
        println!("{row}");
    }
    println!("# (each cell: mean over the density sweep of C0/C at the detected");
    println!("#  boundary divided by f(m, n) at the measured concentration factor)");
    if !recut.is_empty() {
        println!("# (f(m, n) is the bound for m × m tiles; not on them:");
        for line in &recut {
            println!("{line}");
        }
        println!("#  )");
    }
}
