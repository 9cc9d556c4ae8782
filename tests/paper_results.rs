//! The experiment table behind `results/`: the files that take seconds to
//! remake are remade and compared byte for byte (CI's `paper results` job
//! remakes all of them), and the runs several files share are made once.

use pcdlb_bench::{Lab, Opts, RunSpec, EXPERIMENTS};

fn entry(name: &str) -> &'static pcdlb_bench::Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .expect("a table entry")
}

fn assert_matches_committed(name: &str) {
    let mut text = Vec::new();
    Lab::default()
        .render(entry(name), &Opts::default(), &mut text)
        .expect("render to memory");
    let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("the committed file");
    assert_eq!(
        String::from_utf8(text).expect("utf-8"),
        committed,
        "{path} is stale: regenerate it with \
         `cargo run --release -p pcdlb-bench --bin paper -- {name}`"
    );
}

#[test]
fn shapes_matches_its_committed_file() {
    assert_matches_committed("shapes");
}

#[test]
fn shapes_measured_matches_its_committed_file() {
    assert_matches_committed("shapes_measured");
}

#[test]
fn shared_runs_are_made_once() {
    // Fig. 6's runs are Fig. 5(a)'s; Fig. 9's is Fig. 5(b)'s balancing run,
    // which the re-tile series compares with; Fig. 10's are Table 1's
    // P = 9 column. Of 68 runs asked for, 52 are distinct.
    let runs = |name| (entry(name).runs)(&Opts::default());
    let fig5 = runs("fig5");
    assert_eq!(runs("fig6"), fig5[..2]);
    assert_eq!(runs("fig9"), fig5[3..]);
    assert_eq!(runs("fig9_retile")[1..], fig5[3..]);
    let table1_p9: Vec<RunSpec> = runs("table1")
        .into_iter()
        .filter(|s| s.cfg.p == 9)
        .collect();
    assert_eq!(runs("fig10"), table1_p9);
    let all: Vec<RunSpec> = EXPERIMENTS
        .iter()
        .flat_map(|e| (e.runs)(&Opts::default()))
        .collect();
    let distinct = all
        .iter()
        .enumerate()
        .filter(|&(i, s)| !all[..i].contains(s));
    assert_eq!((all.len(), distinct.count()), (68, 52));
}
