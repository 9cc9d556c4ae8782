//! Regenerates paper Fig. 6: the decomposition of execution time into
//! `Tt`, `Fmax`, `Fave`, `Fmin` as a function of time step, for (a) DDM
//! and (b) DLB-DDM on the Fig. 5(a) workload.
//!
//! The paper's observations (Sec. 3.3): `Tt` tracks `Fmax` (synchronous
//! steps run at the slowest PE's speed); under DDM the `Fmax − Fmin` gap
//! widens rapidly with concentration; under DLB-DDM it stays small until
//! the concentration exceeds the DLB limit, after which it starts to
//! grow.
//!
//! Usage: fig6 [--scale small|mid|paper] [--steps N] [--pull K]
//!             [--gain G] [--every E]

use pcdlb_bench::{print_header, run_fixed, widths_note, Args};
use pcdlb_sim::{RunConfig, RunReport};

fn print_series(title: &str, rep: &RunReport, every: u64) {
    println!("\n## {title}");
    print_header(&["step", "Tt[s]", "Fmax[s]", "Fave[s]", "Fmin[s]"]);
    for r in &rep.records {
        if r.step.is_multiple_of(every) {
            println!(
                "{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
                r.step, r.t_step, r.f_max, r.f_ave, r.f_min
            );
        }
    }
    // Quantify the paper's qualitative observations.
    let late = &rep.records[rep.records.len() * 4 / 5..];
    let gap_late: f64 = late.iter().map(|r| r.f_max - r.f_min).sum::<f64>() / late.len() as f64;
    let early = &rep.records[..rep.records.len() / 5];
    let gap_early: f64 = early.iter().map(|r| r.f_max - r.f_min).sum::<f64>() / early.len() as f64;
    println!(
        "# mean Fmax-Fmin: early {gap_early:.6} s, late {gap_late:.6} s, growth {:.2}x",
        gap_late / gap_early.max(1e-12)
    );
}

fn main() {
    let args = Args::parse();
    let scale = args.get("scale", "small");
    let steps = args.get_u64("steps", if scale == "paper" { 10_000 } else { 2000 });
    let pull = args.get_f64("pull", if scale == "paper" { 0.0 } else { 0.08 });
    let gain = args.get_f64("gain", 0.05);
    let every = args.get_u64("every", (steps / 50).max(1));

    let mut base = match scale {
        "small" => RunConfig::from_p_m_density(9, 4, 0.256),
        "mid" | "paper" => RunConfig::fig5a(),
        other => panic!("unknown --scale `{other}`"),
    };
    base.steps = steps;
    base.central_pull = pull;
    base.dlb_min_gain = gain;

    println!("# Fig. 6 reproduction: Tt / Fmax / Fave / Fmin per step");
    println!(
        "# scale={scale} P={} N={} C={} m={} steps={steps} pull={pull}",
        base.p,
        base.n_particles,
        base.total_cells(),
        base.m()
    );

    let mut ddm = base.clone();
    ddm.dlb = false;
    print_series("(a) DDM", &run_fixed(&ddm), every);

    let mut dlb = base.clone();
    dlb.dlb = true;
    let dlb = run_fixed(&dlb);
    let tiling = dlb.tiling.expect("a pillar run reports its tiling");
    let title = format!("(b) DLB-DDM{}", widths_note(&tiling));
    print_series(&title, &dlb, every);
}
