//! Regenerates paper Fig. 5: execution time per time step as a function
//! of time step, DDM vs DLB-DDM, for (a) m = 4 and (b) m = 2.
//!
//! The paper's claim (Sec. 3.3): as the supercooled gas concentrates, DDM
//! execution time rises steeply while DLB-DDM stays nearly flat, and the
//! effect is stronger for m = 4 (9/16 of the domain movable) than m = 2
//! (1/4 movable).
//!
//! Usage:
//!   fig5 [--scale small|mid|paper] [--steps N] [--pull K] [--every E]
//!
//! - `small` (default): P = 9 versions of the two workloads with the
//!   central-pull concentration driver — minutes on one core;
//! - `mid`: the paper's P = 36 geometries, shortened, driven;
//! - `paper`: P = 36, N = 59319 / 8000, natural condensation (no pull),
//!   10⁴ steps — the full experiment.

use pcdlb_bench::{print_header, run_fixed, widths_note, Args};
use pcdlb_sim::{RunConfig, RunReport};

struct Variant {
    label: &'static str,
    cfg: RunConfig,
}

fn variants(scale: &str, steps: u64, pull: f64, gain: f64) -> Vec<Variant> {
    let build = |label, mut cfg: RunConfig| {
        cfg.steps = steps;
        cfg.central_pull = pull;
        cfg.dlb_min_gain = gain;
        Variant { label, cfg }
    };
    match scale {
        "small" => vec![
            build("a(m=4)", RunConfig::from_p_m_density(9, 4, 0.256)),
            build("b(m=2)", RunConfig::from_p_m_density(9, 2, 0.256)),
        ],
        "mid" => vec![
            build("a(m=4)", RunConfig::fig5a()),
            build("b(m=2)", RunConfig::fig5b()),
        ],
        "paper" => vec![
            build("a(m=4)", RunConfig::fig5a()),
            build("b(m=2)", RunConfig::fig5b()),
        ],
        other => panic!("unknown --scale `{other}` (small|mid|paper)"),
    }
}

fn run_pair(v: &Variant) -> (RunReport, RunReport) {
    let mut ddm = v.cfg.clone();
    ddm.dlb = false;
    let mut dlb = v.cfg.clone();
    dlb.dlb = true;
    (run_fixed(&ddm), run_fixed(&dlb))
}

fn main() {
    let args = Args::parse();
    let scale = args.get("scale", "small");
    let default_steps = if scale == "paper" { 10_000 } else { 2000 };
    let default_pull = if scale == "paper" { 0.0 } else { 0.08 };
    let steps = args.get_u64("steps", default_steps);
    let pull = args.get_f64("pull", default_pull);
    let every = args.get_u64("every", (steps / 50).max(1));
    let gain = args.get_f64("gain", 0.05);

    println!("# Fig. 5 reproduction: execution time per step, DDM vs DLB-DDM");
    println!("# scale={scale} steps={steps} pull={pull} gain={gain}");
    for v in variants(scale, steps, pull, gain) {
        let (ddm, dlb) = run_pair(&v);
        let tiling = dlb.tiling.expect("a pillar run reports its tiling");
        println!(
            "\n## Fig 5({}) P={} N={} C={} m={}{}",
            v.label,
            v.cfg.p,
            v.cfg.n_particles,
            v.cfg.total_cells(),
            v.cfg.m(),
            widths_note(&tiling)
        );
        print_header(&["step", "Tt_DDM[s]", "Tt_DLB-DDM[s]", "C0/C", "n"]);
        for (a, b) in ddm.records.iter().zip(&dlb.records) {
            if a.step.is_multiple_of(every) {
                println!(
                    "{}\t{:.6}\t{:.6}\t{:.4}\t{:.3}",
                    a.step, a.t_step, b.t_step, b.c0_over_c, b.n_factor
                );
            }
        }
        // Late-phase summary: mean over the final 20% of steps.
        let from = (ddm.records.len() * 4) / 5;
        let to = ddm.records.len();
        let t_ddm = ddm.mean_t_step(from, to);
        let t_dlb = dlb.mean_t_step(from, to);
        println!(
            "# late-phase mean Tt: DDM {t_ddm:.6} s, DLB-DDM {t_dlb:.6} s, speedup {:.2}x",
            t_ddm / t_dlb
        );
        let transfers: u32 = dlb.records.iter().map(|r| r.transfers).sum();
        println!("# DLB transfers over the run: {transfers}");
    }
}
