//! Ablation: DLB invocation frequency.
//!
//! The paper asserts (Sec. 2.3): "The overhead of DLB is small so that MD
//! simulations are able to execute DLB operations every time step." This
//! ablation runs the same concentrating workload with DLB every
//! k ∈ {1, 5, 25, 100} steps (and off) and reports late-phase execution
//! time and total transfers — quantifying both the claim (k = 1 is
//! affordable) and the cost of balancing too rarely.
//!
//! Usage: dlb_freq [--p P] [--m M] [--steps N] [--pull K] [--gain G]

use pcdlb_bench::{launch_tiling, print_header, run_fixed, widths_note, Args};
use pcdlb_sim::RunConfig;

fn main() {
    let args = Args::parse();
    let p = args.get_usize("p", 9);
    let m = args.get_usize("m", 4);
    let steps = args.get_u64("steps", 1500);
    let pull = args.get_f64("pull", 0.08);

    println!("# DLB-frequency ablation on a concentrating workload");
    let base = {
        let mut c = RunConfig::from_p_m_density(p, m, 0.256);
        c.steps = steps;
        c.central_pull = pull;
        c.dlb_min_gain = args.get_f64("gain", 0.05);
        c
    };
    let mut balancing = base.clone();
    balancing.dlb = true;
    println!(
        "# P={p} m={m} N={} steps={steps} pull={pull}{}",
        base.n_particles,
        widths_note(&launch_tiling(&balancing))
    );
    print_header(&[
        "dlb_every",
        "late_Tt[s]",
        "late_Fmax-Fmin[s]",
        "transfers",
        "dlb_msgs_share",
    ]);

    let mut off = base.clone();
    off.dlb = false;
    let off_rep = run_fixed(&off);
    let late = |rep: &pcdlb_sim::RunReport| {
        let from = rep.records.len() * 4 / 5;
        let n = (rep.records.len() - from) as f64;
        let t = rep.records[from..].iter().map(|r| r.t_step).sum::<f64>() / n;
        let gap = rep.records[from..]
            .iter()
            .map(|r| r.f_max - r.f_min)
            .sum::<f64>()
            / n;
        (t, gap)
    };
    let (t_off, gap_off) = late(&off_rep);
    println!("off\t{t_off:.6}\t{gap_off:.6}\t0\t0.00");

    for k in [1u64, 5, 25, 100] {
        let mut cfg = base.clone();
        cfg.dlb = true;
        cfg.dlb_interval = k;
        let rep = run_fixed(&cfg);
        let (t, gap) = late(&rep);
        let transfers: u32 = rep.records.iter().map(|r| r.transfers).sum();
        // Share of messages beyond the DDM baseline, attributable to DLB.
        let extra = rep.msgs_sent.saturating_sub(off_rep.msgs_sent) as f64;
        println!(
            "{k}\t{t:.6}\t{gap:.6}\t{transfers}\t{:.2}",
            extra / rep.msgs_sent.max(1) as f64
        );
    }
    println!("# late_* values average the final 20% of steps");
}
