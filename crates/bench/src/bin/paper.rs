//! Regenerates the paper's evaluation: each entry of the experiment table
//! (`pcdlb_bench::EXPERIMENTS`) asked for, all of them by default, written
//! to `<out>/<name>.txt` (`results/` by default), each run the entries
//! share made once.
//!
//! Usage: paper [NAME…] [--paper] [--seeds S] [--steps N] [--pull K] [--out DIR]

use std::fs;
use std::time::Instant;

use pcdlb_bench::{Lab, Opts};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = Opts::parse(&argv).unwrap_or_else(|e| {
        eprintln!("paper: {e}");
        eprintln!("usage: paper [NAME…] [--paper] [--seeds S] [--steps N] [--pull K] [--out DIR]");
        std::process::exit(2)
    });
    fs::create_dir_all(&opts.out).expect("create the output directory");
    let start = Instant::now();
    let mut lab = Lab::default();
    for e in opts.selected() {
        // Rendered whole before the file is opened: a run that panics
        // leaves the previous file in place, not half of a new one.
        let mut text = Vec::new();
        lab.render(e, &opts, &mut text).expect("render to memory");
        let path = opts.out.join(format!("{}.txt", e.name));
        fs::write(&path, text).expect("write the results file");
        let secs = start.elapsed().as_secs_f64();
        eprintln!(
            "paper: {} ({} runs, {secs:.0} s)",
            path.display(),
            lab.runs()
        );
    }
}
