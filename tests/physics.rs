//! Cross-crate physics validation: the parallel stack must reproduce
//! textbook molecular-dynamics behaviour, not just agree with itself.

use pcdlb::md::analysis::radial_distribution;
use pcdlb::md::{observe, Vec3};
use pcdlb::sim::{run, run_serial, Launch, RunConfig};

#[test]
fn nve_energy_conservation_through_the_parallel_stack() {
    // Thermostat off, no pull: kinetic + potential must be conserved to
    // fine tolerance across hundreds of parallel steps (migration, ghost
    // exchange and DLB must not leak energy).
    let mut cfg = RunConfig::from_p_m_density(9, 2, 0.20);
    cfg.steps = 300;
    cfg.thermostat_interval = 0;
    cfg.dlb = true;
    let report = run(&cfg);
    let e0 = report.records[0].kinetic + report.records[0].potential;
    let e1 = {
        let r = report.records.last().unwrap();
        r.kinetic + r.potential
    };
    let scale = e0.abs().max(1.0);
    assert!(
        ((e1 - e0) / scale).abs() < 2e-3,
        "NVE drift through the parallel stack: {e0} → {e1}"
    );
}

#[test]
fn thermostat_holds_the_paper_temperature() {
    let mut cfg = RunConfig::from_p_m_density(9, 2, 0.256);
    cfg.steps = 150;
    cfg.thermostat_interval = 50; // the paper's interval
    let report = run(&cfg);
    // On rescale steps the temperature is exactly T*.
    for r in report.records.iter().filter(|r| r.step % 50 == 0) {
        assert!(
            (r.temperature - 0.722).abs() < 1e-9,
            "step {}: T = {}",
            r.step,
            r.temperature
        );
    }
}

#[test]
fn supercooled_gas_stays_physical_over_a_longer_run() {
    // The paper's natural workload (no pull): T* pinned and energy
    // finite through the full parallel stack (momentum: the next test).
    let mut cfg = RunConfig::from_p_m_density(9, 2, 0.256);
    cfg.steps = 500;
    let report = run(&cfg);
    for r in &report.records {
        assert!(r.kinetic.is_finite() && r.potential.is_finite());
        assert!(
            r.temperature > 0.3 && r.temperature < 1.5,
            "T = {}",
            r.temperature
        );
    }
}

#[test]
fn total_momentum_stays_zero_through_a_balancing_run() {
    // Migration, ghost exchange, column transfers and the thermostat's
    // rescale must neither create nor lose momentum: the final snapshot
    // of a balancing 3 × 3 run sums to zero velocity, on the half-shell
    // walk and on the Verlet replay alike.
    for verlet in [false, true] {
        let mut cfg = RunConfig::from_p_m_density(9, 2, 0.256);
        cfg.steps = 300;
        cfg.dlb = true;
        if verlet {
            cfg.skin = 0.06;
            cfg.verlet = true;
        }
        let (_, snapshot) = Launch::new().snapshot().run(&cfg).into_snapshot();
        let p = snapshot.iter().fold(Vec3::ZERO, |sum, part| sum + part.vel);
        assert!(
            p.norm() < 1e-9,
            "verlet {verlet}: |Σ v| = {:e} after {} steps",
            p.norm(),
            cfg.steps
        );
    }
}

#[test]
fn serial_and_parallel_observables_agree() {
    // Beyond bitwise particle-state agreement (tested in pcdlb-sim):
    // the *observables* computed through the two paths agree too.
    let mut cfg = RunConfig::from_p_m_density(9, 2, 0.25);
    cfg.steps = 40;
    cfg.seed = 5;
    let report = run(&cfg);
    let serial_final = run_serial(&cfg);
    let t_serial = observe::temperature(serial_final.iter().map(|p| p.vel));
    let t_parallel = report.records.last().unwrap().temperature;
    assert!(
        (t_serial - t_parallel).abs() < 1e-12,
        "temperatures diverged: serial {t_serial}, parallel {t_parallel}"
    );
}

#[test]
fn work_model_load_tracks_particle_distribution() {
    // A clustered start means the loaded PE's force time dominates; as
    // DLB balances, Fmax/Fave must come down — on the paper's tiles, cut
    // once at launch.
    let mut cfg = RunConfig::from_p_m_density(9, 3, 0.128);
    cfg.lattice = pcdlb::sim::Lattice::Cluster { fill: 0.45 };
    cfg.steps = 200;
    cfg.dlb = true;
    let ratios = |report: &pcdlb::sim::RunReport| {
        let ratio = |r: &pcdlb::sim::StepRecord| r.f_max / r.f_ave;
        (
            ratio(&report.records[2]),
            ratio(report.records.last().unwrap()),
        )
    };
    let (early, late) = ratios(&Launch::new().fixed_tiles().run(&cfg).report);
    assert!(
        late < early,
        "DLB should reduce the Fmax/Fave ratio: early {early:.2}, late {late:.2}"
    );
    // Tiles that follow the load start on thin tiles cut through the
    // cluster, already near the late ratio of fixed tiles, and stay below
    // it (measured: 1.25 early and 1.46 late against 2.18 and 1.60).
    let (thin_early, thin_late) = ratios(&run(&cfg));
    assert!(
        thin_early < early && thin_late < late,
        "early {thin_early:.2} vs {early:.2}, late {thin_late:.2} vs {late:.2}"
    );
}

#[test]
fn both_force_paths_give_a_liquid_first_peak_and_the_same_rdf() {
    // One seeded gas (ρ* = 0.256, T* = 0.722, 928 particles on a 2 × 2
    // torus), thermalised for 400 steps under the paper's thermostat,
    // run through each surviving force path: the AoS half-shell walk at
    // skin 0 and the Verlet replay at the benchmark's skin of 0.06.
    // Each g(r) must put its first peak where a Lennard-Jones fluid
    // does, near 2^(1/6) σ ≈ 1.12 σ (measured: the 1.1–1.2 σ bin, g =
    // 2.18, in both). Measured bin by bin, the two g(r) differ by 0.0 —
    // the replay reproduces the walk bitwise — where seeds 1–6 of the
    // same gas differ by up to 0.19; the gate allows 1e-12.
    const PEAK_WINDOW: std::ops::Range<f64> = 1.05..1.25;
    const TOLERANCE: f64 = 1e-12;
    let rdf = |verlet: bool| {
        let mut cfg = RunConfig::from_p_m_density(4, 3, 0.256);
        cfg.steps = 400;
        cfg.dlb = false;
        cfg.seed = 3;
        if verlet {
            cfg.skin = 0.06;
            cfg.verlet = true;
        }
        let (_, snapshot) = Launch::new().snapshot().run(&cfg).into_snapshot();
        radial_distribution(&snapshot, cfg.box_len(), 3.0, 30)
    };
    let (walked, replayed) = (rdf(false), rdf(true));
    for (path, g) in [("walk", &walked), ("Verlet replay", &replayed)] {
        let peak = g.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1));
        let (r_peak, g_peak) = peak.expect("g(r) has bins");
        assert!(
            PEAK_WINDOW.contains(&r_peak) && g_peak > 1.5,
            "{path}: first peak g = {g_peak:.3} at r = {r_peak:.2} σ, \
             outside {PEAK_WINDOW:?} σ"
        );
    }
    for ((r, a), (_, b)) in walked.iter().zip(&replayed) {
        assert!(
            (a - b).abs() <= TOLERANCE,
            "g({r:.2} σ): walk {a:.6} vs Verlet replay {b:.6}"
        );
    }
}
