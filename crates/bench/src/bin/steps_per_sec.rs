//! `steps-per-sec` — end-to-end throughput harness for the half-shell
//! force kernel, writing machine-readable results to `BENCH_force.json`.
//!
//! Two measurements:
//!
//! 1. **Force phase in isolation** — four kernels on the same
//!    paper-density gas grid, in historical order: the seed's full-shell
//!    27-offset pass (`pcdlb_bench::full_shell_forces`, each pair
//!    evaluated from both ends), the production 13-offset half-shell
//!    pass (`pcdlb_md::serial::compute_forces_half_shell`), its SoA
//!    twin (`pcdlb_md::soa::compute_forces_half_shell_soa`, flat x/y/z
//!    arrays the compiler can vectorize), and the Verlet replay of a
//!    recorded CSR pair list (`VerletList`, candidates within
//!    `r_c + skin`, including the per-call position reload production
//!    pays). All four book identical full-shell `WorkCounters`, so
//!    checks/sec are directly comparable; `speedup` (half vs full,
//!    target ≥ 1.6×), `soa_speedup` (SoA walk vs half-shell, reported
//!    and ungated) and `verlet_speedup` (replay vs half-shell, target
//!    ≥ 2×) each stand on their own, `verlet_record_ms` is what the
//!    list costs to record at a rebuild step, and
//!    `checks_per_sec_trend` records the whole progression.
//! 2. **Whole steps per second** — the serial reference and the SPMD
//!    simulator swept over P ∈ {1, 4, 9, 16} PE grids (ranks are
//!    threads; on a single-core host the parallel rows measure protocol
//!    overhead, not speedup — see README). The sweep writes
//!    `BENCH_scaling.json` with speedups vs serial and, when built with
//!    `--features phase-timing`, a wall-clock per-phase breakdown
//!    (force / ghost / migrate / DLB) summed over ranks.
//!
//! Every SPMD row also carries `bytes_on_wire`: per-phase byte totals of
//! the frames actually shipped (delta ghost frames, coalesced step
//! messages) next to the bytes the same content would cost as pre-diet
//! full frames — `ghost_ratio` is the comm-volume-diet figure of merit.
//! Unlike the timings these are deterministic, so CI gates on them.
//!
//! A third, heterogeneous scenario runs the P = 9 grid twice under a
//! drifting per-PE [`SpeedSchedule`] — once with the work-based
//! LoadMetric, once speed-aware — and records each run's mean relative
//! time imbalance `(F_max − F_min) / F_ave` over the back half of the
//! run. The figures derive from modelled virtual step times, not wall
//! clock, so they are deterministic and gateable.
//!
//! Usage: `cargo run --release -p pcdlb-bench --bin steps_per_sec`
//! (options: `--nc`, `--density`, `--iters`, `--steps`, `--out`,
//! `--scaling-out`, `--assert-p4-ratio <min>`,
//! `--assert-verlet-ratio <min>`, `--assert-p9-ghost-ratio <min>`,
//! `--assert-hetero-gain <min>`). `--assert-verlet-ratio` makes the run
//! fail when the Verlet replay does not beat the half-shell baseline by
//! `<min>`× — a same-host, same-run timing comparison, so no
//! hardware-thread caveat applies. The SoA walk and the list recorder
//! have no gate: their rows say what they are worth.
//! `--assert-p4-ratio` makes the run fail when the P = 4 speedup is
//! below `<min>`, but downgrades to a warning on hosts with fewer than
//! 4 hardware threads, where a parallel speedup is physically
//! impossible. `--assert-p9-ghost-ratio` fails the run when the P = 9
//! ghost-phase wire bytes are not at least `<min>` times smaller than
//! the full-frame baseline (no hardware caveat: byte counts are
//! deterministic). `--assert-hetero-gain` fails the run when the
//! speed-aware metric does not cut the heterogeneous time imbalance by
//! at least `<min>`× vs work-based (also deterministic).

use std::fmt::Write as _;
use std::time::Instant;

use pcdlb_bench::{full_shell_forces, Args};
use pcdlb_md::cells::HALF_OFFSETS_13;
use pcdlb_md::force::ExternalPull;
use pcdlb_md::serial::compute_forces_half_shell;
use pcdlb_md::soa::compute_forces_half_shell_soa;
use pcdlb_md::{init, CellGrid, LennardJones, PairKernel, SegAction, SoaField, Vec3, VerletList};
use pcdlb_sim::{
    run, run_with_phase_times, serial_sim, PhaseTimes, RunConfig, RunReport, SpeedSchedule,
    WireBytes,
};

/// One kernel's timing over `iters` repeated full force passes.
struct KernelTiming {
    seconds_per_call: f64,
    pair_checks: u64,
    checks_per_sec: f64,
}

fn time_kernel<F: FnMut() -> u64>(iters: u64, mut pass: F) -> KernelTiming {
    // Warm-up pass (also yields the per-call pair count).
    let pair_checks = pass();
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..iters {
        sink = sink.wrapping_add(pass());
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let seconds_per_call = secs / iters as f64;
    KernelTiming {
        seconds_per_call,
        pair_checks,
        checks_per_sec: pair_checks as f64 / seconds_per_call,
    }
}

/// One whole-simulation throughput row.
struct StepRow {
    mode: &'static str,
    p: usize,
    steps: u64,
    seconds: f64,
    pair_checks: u64,
    /// Per-phase wall-clock totals over all ranks; all zeros unless the
    /// `phase-timing` feature is enabled (or for the serial row).
    phase: PhaseTimes,
    /// Per-phase bytes-on-wire totals over all ranks (deterministic;
    /// always live). Zeros for the serial row.
    wire: WireBytes,
    /// Ghost delta-channel desyncs summed over all ranks (0 in healthy
    /// runs; a healed desync costs one degraded step on one link).
    ghost_desyncs: u64,
    /// Link-layer retransmissions over all ranks (0 over the perfect
    /// in-process transport).
    retransmits: u64,
    /// Failure-detector suspicion episodes over all ranks (0 over the
    /// perfect in-process transport).
    suspicions: u64,
}

fn json_row(out: &mut String, row: &StepRow) {
    let sps = row.steps as f64 / row.seconds;
    let cps = row.pair_checks as f64 / row.seconds;
    let _ = write!(
        out,
        "    {{ \"mode\": \"{}\", \"p\": {}, \"steps\": {}, \"seconds\": {:.6}, \
         \"steps_per_sec\": {:.3}, \"pair_checks_per_sec\": {:.3e} }}",
        row.mode, row.p, row.steps, row.seconds, sps, cps
    );
}

fn json_scaling_row(out: &mut String, row: &StepRow, serial_sps: f64) {
    let sps = row.steps as f64 / row.seconds;
    let _ = write!(
        out,
        "    {{ \"mode\": \"{}\", \"p\": {}, \"steps\": {}, \"seconds\": {:.6}, \
         \"steps_per_sec\": {:.3}, \"speedup_vs_serial\": {:.3}, \
         \"phases\": {{ \"force\": {:.6}, \"ghost\": {:.6}, \"migrate\": {:.6}, \
         \"dlb\": {:.6}, \"total\": {:.6} }}, \
         \"bytes_on_wire\": {{ \"ghost\": {}, \"ghost_baseline\": {}, \
         \"ghost_ratio\": {:.3}, \"migrate\": {}, \"migrate_baseline\": {}, \
         \"dlb\": {}, \"total\": {} }}, \
         \"reliability\": {{ \"ghost_desyncs\": {}, \"retransmits\": {}, \
         \"suspicions\": {} }} }}",
        row.mode,
        row.p,
        row.steps,
        row.seconds,
        sps,
        sps / serial_sps,
        row.phase.force,
        row.phase.ghost,
        row.phase.migrate,
        row.phase.dlb,
        row.phase.total(),
        row.wire.ghost,
        row.wire.ghost_baseline,
        ghost_ratio(&row.wire),
        row.wire.migrate,
        row.wire.migrate_baseline,
        row.wire.dlb,
        row.wire.total(),
        row.ghost_desyncs,
        row.retransmits,
        row.suspicions
    );
}

/// Comm-volume-diet figure of merit: how many times smaller the ghost
/// phase is on the wire than the pre-diet full-frame layout.
fn ghost_ratio(wire: &WireBytes) -> f64 {
    if wire.ghost == 0 {
        return 1.0;
    }
    wire.ghost_baseline as f64 / wire.ghost as f64
}

/// Mean relative time imbalance `(F_max − F_min) / F_ave` over the back
/// half of a run (DLB has warmed up by then). With a speed schedule
/// installed the `f_*` figures are modelled virtual times — pure
/// functions of the config, so deterministic across hosts.
fn mean_time_imbalance(records: &[pcdlb_sim::StepRecord]) -> f64 {
    let tail = &records[records.len() / 2..];
    tail.iter()
        .map(|r| (r.f_max - r.f_min) / r.f_ave)
        .sum::<f64>()
        / tail.len() as f64
}

fn json_hetero_row(out: &mut String, metric: &str, report: &RunReport, seconds: f64) {
    let steps = report.records.len() as f64;
    let transfers: u32 = report.records.iter().map(|r| r.transfers).sum();
    let _ = write!(
        out,
        "      {{ \"metric\": \"{}\", \"steps_per_sec\": {:.3}, \
         \"time_imbalance\": {:.4}, \"transfers\": {} }}",
        metric,
        steps / seconds,
        mean_time_imbalance(&report.records),
        transfers
    );
}

fn main() {
    let args = Args::parse();
    // nc must divide evenly onto every torus side used below (1, 2, 3).
    let nc = args.get_usize("nc", 12);
    let density = args.get_f64("density", 0.256);
    let iters = args.get_u64("iters", 20);
    let steps = args.get_u64("steps", 30);
    let out_path = args.get("out", "BENCH_force.json").to_string();
    let scaling_path = args.get("scaling-out", "BENCH_scaling.json").to_string();
    // 0.0 disables the assertions (the default).
    let assert_p4 = args.get_f64("assert-p4-ratio", 0.0);
    let assert_verlet = args.get_f64("assert-verlet-ratio", 0.0);
    let assert_p9_ghost = args.get_f64("assert-p9-ghost-ratio", 0.0);
    let assert_hetero = args.get_f64("assert-hetero-gain", 0.0);

    // --- 1. Force phase: full-shell baseline vs half-shell kernel. ---
    let box_len = 2.56 * nc as f64;
    let n = (density * box_len.powi(3)).round() as usize;
    let mut ps = init::simple_cubic(n, box_len);
    init::maxwell_boltzmann(&mut ps, 0.722, 1);
    let mut grid = CellGrid::new(nc, box_len);
    for p in ps {
        grid.insert(p);
    }
    grid.canonicalize();
    let kernel = PairKernel::new(LennardJones::paper());

    let mut forces: Vec<Vec3> = Vec::new();
    let full = time_kernel(iters, || {
        full_shell_forces(&grid, &kernel, &mut forces).pair_checks
    });
    let half = time_kernel(iters, || {
        compute_forces_half_shell(&grid, &kernel, &ExternalPull::None, &mut forces).pair_checks
    });
    let mut soa = SoaField::new();
    let soa_row = time_kernel(iters, || {
        compute_forces_half_shell_soa(&grid, &kernel, &ExternalPull::None, &mut soa, &mut forces)
            .pair_checks
    });

    // Verlet: time recording the CSR candidate list (what a rebuild step
    // adds: SoA reset + position load + the candidate sweep), then the
    // steady-state replay — including the per-call position reload and
    // force fold the production epochs pay every step. The paper-tight
    // cells leave `cell_len − r_c` of slack, which is exactly the skin
    // budget a production epoch on this grid would have.
    let skin = (grid.box_len() / nc as f64 - kernel.lj.rcut).max(0.0);
    let reach2 = (kernel.lj.rcut + skin).powi(2);
    let np = grid.num_particles();
    let mut vlist = VerletList::new();
    let record = time_kernel(iters, || {
        soa.reset(np, np);
        soa.load_positions(0, grid.particles());
        vlist.clear();
        for idx in 0..grid.total_cells() {
            let hr = grid.cell_range(idx);
            if hr.is_empty() {
                continue;
            }
            let home = grid.coord_of(idx);
            vlist.record_intra(&soa, hr.clone(), reach2, 0, 0);
            for offset in HALF_OFFSETS_13 {
                let (ncell, shift) = grid.wrap_neighbor(home, offset);
                let nr = grid.cell_range(grid.index(ncell));
                if nr.is_empty() {
                    continue;
                }
                vlist.record_pair(&soa, hr.clone(), nr, shift, reach2, 0, 0, 0);
            }
        }
        vlist.num_pairs() as u64
    });
    let box_len_grid = grid.box_len();
    let verlet = time_kernel(iters, || {
        soa.load_positions(0, grid.particles());
        soa.zero_forces();
        let mut w = [pcdlb_md::WorkCounters::default()];
        vlist.replay(
            &kernel,
            &ExternalPull::None,
            box_len_grid,
            &mut soa,
            |_| Some(SegAction::fused()),
            &mut w,
        );
        soa.fold_forces(&mut forces);
        w[0].pair_checks
    });

    for (name, row) in [("half", &half), ("soa", &soa_row), ("verlet", &verlet)] {
        assert_eq!(
            full.pair_checks, row.pair_checks,
            "work accounting diverged between the full-shell and {name} kernels"
        );
    }
    let speedup = full.seconds_per_call / half.seconds_per_call;
    let soa_speedup = half.seconds_per_call / soa_row.seconds_per_call;
    let verlet_speedup = half.seconds_per_call / verlet.seconds_per_call;
    let verlet_record_ms = record.seconds_per_call * 1e3;
    eprintln!(
        "force phase: N = {n}, nc = {nc}, {} full-shell checks/pass, verlet skin {skin:.3}",
        full.pair_checks
    );
    eprintln!(
        "  full-shell {:.3} ms/pass, half-shell {:.3} ms/pass -> speedup {speedup:.2}x",
        full.seconds_per_call * 1e3,
        half.seconds_per_call * 1e3
    );
    eprintln!(
        "  soa {:.3} ms/pass ({soa_speedup:.2}x vs half), verlet replay {:.3} ms/pass \
         ({verlet_speedup:.2}x vs half), verlet record {verlet_record_ms:.3} ms/rebuild",
        soa_row.seconds_per_call * 1e3,
        verlet.seconds_per_call * 1e3
    );

    // --- 2. Whole steps/sec: serial vs P ∈ {4, 9, 16} SPMD grids. ---
    let mk_cfg = |p: usize| {
        let mut cfg = RunConfig::new(n, nc, p, density);
        cfg.steps = steps;
        cfg.dlb = p >= 9; // DLB needs a torus side ≥ 3
        cfg.seed = 1;
        cfg
    };
    let mut rows = Vec::new();

    let cfg1 = mk_cfg(1);
    let mut serial = serial_sim(&cfg1);
    let start = Instant::now();
    let mut serial_checks = 0u64;
    for _ in 0..steps {
        serial.step();
        serial_checks += serial.last_work().pair_checks;
    }
    rows.push(StepRow {
        mode: "serial",
        p: 1,
        steps,
        seconds: start.elapsed().as_secs_f64(),
        pair_checks: serial_checks,
        phase: PhaseTimes::default(),
        wire: WireBytes::default(),
        ghost_desyncs: 0,
        retransmits: 0,
        suspicions: 0,
    });

    for p in [4usize, 9, 16] {
        let cfg = mk_cfg(p);
        let start = Instant::now();
        let (report, phase, wire) = run_with_phase_times(&cfg);
        let seconds = start.elapsed().as_secs_f64();
        rows.push(StepRow {
            mode: "spmd",
            p,
            steps,
            seconds,
            pair_checks: report.records.iter().map(|r| r.pair_checks).sum(),
            phase,
            wire,
            ghost_desyncs: report.ghost_desyncs,
            retransmits: report.retransmits,
            suspicions: report.suspicions,
        });
    }
    // --- 3. Heterogeneous machine: work-based vs speed-aware DLB. ---
    // A drifting per-PE speed schedule on the P = 9 grid (fast torus
    // column west of the slow one, so the paper's NW-directed transfer
    // rules give the bottleneck a legal shed route). The work-based
    // LoadMetric sees uniform work and does nothing; the speed-aware
    // metric sees the speed spread as *time* imbalance and moves cells
    // toward the fast PEs. The imbalance figures derive from the
    // modelled virtual step times (`f_max/f_ave/f_min`), not wall
    // clock, so they are deterministic and CI can gate on them.
    let hetero_base = [0.5f64, 1.0, 2.0];
    let (hetero_amplitude, hetero_period) = (0.2f64, 16u64);
    let mk_hetero = |speed_aware: bool| {
        let mut cfg = mk_cfg(9);
        cfg.speed = Some(SpeedSchedule {
            base: hetero_base.to_vec(),
            amplitude: hetero_amplitude,
            period: hetero_period,
        });
        cfg.speed_aware = speed_aware;
        cfg
    };
    let run_hetero = |speed_aware: bool| {
        let start = Instant::now();
        let report = run(&mk_hetero(speed_aware));
        let seconds = start.elapsed().as_secs_f64();
        (report, seconds)
    };
    let (hetero_work, hetero_work_secs) = run_hetero(false);
    let (hetero_time, hetero_time_secs) = run_hetero(true);
    let imb_work = mean_time_imbalance(&hetero_work.records);
    let imb_time = mean_time_imbalance(&hetero_time.records);
    let hetero_gain = imb_work / imb_time;
    eprintln!(
        "hetero P=9: time imbalance {imb_work:.3} (work-based) -> {imb_time:.3} \
         (speed-aware), {hetero_gain:.2}x gain"
    );

    for r in &rows {
        if r.wire.total() == 0 {
            eprintln!(
                "{:>6} P={}: {:.2} steps/sec",
                r.mode,
                r.p,
                r.steps as f64 / r.seconds
            );
        } else {
            eprintln!(
                "{:>6} P={}: {:.2} steps/sec, ghost {} B on wire \
                 (full-frame baseline {} B, {:.2}x smaller)",
                r.mode,
                r.p,
                r.steps as f64 / r.seconds,
                r.wire.ghost,
                r.wire.ghost_baseline,
                ghost_ratio(&r.wire)
            );
        }
    }

    // --- Emit BENCH_force.json (hand-rolled; no serde in the workspace). ---
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"nc\": {nc}, \"density\": {density}, \"n_particles\": {n}, \
         \"iters\": {iters}, \"steps\": {steps} }},"
    );
    json.push_str("  \"force_phase\": {\n");
    let _ = writeln!(
        json,
        "    \"full_shell\": {{ \"seconds_per_call\": {:.6e}, \"pair_checks_per_call\": {}, \
         \"checks_per_sec\": {:.3e} }},",
        full.seconds_per_call, full.pair_checks, full.checks_per_sec
    );
    let _ = writeln!(
        json,
        "    \"half_shell\": {{ \"seconds_per_call\": {:.6e}, \"pair_checks_per_call\": {}, \
         \"checks_per_sec\": {:.3e} }},",
        half.seconds_per_call, half.pair_checks, half.checks_per_sec
    );
    let _ = writeln!(
        json,
        "    \"soa_half_shell\": {{ \"seconds_per_call\": {:.6e}, \"pair_checks_per_call\": {}, \
         \"checks_per_sec\": {:.3e} }},",
        soa_row.seconds_per_call, soa_row.pair_checks, soa_row.checks_per_sec
    );
    let _ = writeln!(
        json,
        "    \"verlet\": {{ \"seconds_per_call\": {:.6e}, \"pair_checks_per_call\": {}, \
         \"checks_per_sec\": {:.3e}, \"skin\": {skin:.4} }},",
        verlet.seconds_per_call, verlet.pair_checks, verlet.checks_per_sec
    );
    let _ = writeln!(
        json,
        "    \"checks_per_sec_trend\": [{:.3e}, {:.3e}, {:.3e}, {:.3e}],",
        full.checks_per_sec, half.checks_per_sec, soa_row.checks_per_sec, verlet.checks_per_sec
    );
    let _ = writeln!(json, "    \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "    \"soa_speedup\": {soa_speedup:.3},");
    let _ = writeln!(json, "    \"verlet_speedup\": {verlet_speedup:.3},");
    let _ = writeln!(json, "    \"verlet_record_ms\": {verlet_record_ms:.3}");
    json.push_str("  },\n");
    json.push_str("  \"steps_per_sec\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json_row(&mut json, row);
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    // --- Emit BENCH_scaling.json: the P-sweep with phase breakdowns. ---
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial_sps = rows[0].steps as f64 / rows[0].seconds;
    let p4_speedup = rows
        .iter()
        .find(|r| r.p == 4)
        .map(|r| (r.steps as f64 / r.seconds) / serial_sps)
        .expect("P = 4 row present");

    let mut scaling = String::new();
    scaling.push_str("{\n");
    let _ = writeln!(
        scaling,
        "  \"config\": {{ \"nc\": {nc}, \"density\": {density}, \"n_particles\": {n}, \
         \"steps\": {steps} }},"
    );
    let _ = writeln!(scaling, "  \"hardware_threads\": {hw_threads},");
    let _ = writeln!(
        scaling,
        "  \"phase_timing_enabled\": {},",
        cfg!(feature = "phase-timing")
    );
    let _ = writeln!(scaling, "  \"p4_speedup_vs_serial\": {p4_speedup:.3},");
    scaling.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json_scaling_row(&mut scaling, row, serial_sps);
        scaling.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    scaling.push_str("  ],\n");
    scaling.push_str("  \"heterogeneous\": {\n");
    let _ = writeln!(
        scaling,
        "    \"p\": 9, \"speed_base\": [{}], \"speed_amplitude\": {hetero_amplitude}, \
         \"speed_period\": {hetero_period},",
        hetero_base
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    scaling.push_str("    \"rows\": [\n");
    json_hetero_row(&mut scaling, "work", &hetero_work, hetero_work_secs);
    scaling.push_str(",\n");
    json_hetero_row(&mut scaling, "time", &hetero_time, hetero_time_secs);
    scaling.push_str("\n    ],\n");
    let _ = writeln!(scaling, "    \"time_imbalance_gain\": {hetero_gain:.3}");
    scaling.push_str("  }\n}\n");
    std::fs::write(&scaling_path, &scaling).unwrap_or_else(|e| panic!("write {scaling_path}: {e}"));
    eprintln!("wrote {scaling_path}");

    if assert_p4 > 0.0 {
        if hw_threads < 4 {
            eprintln!(
                "warning: P = 4 speedup is {p4_speedup:.2}x (goal >= {assert_p4}), but this \
                 host has only {hw_threads} hardware thread(s) — 4 ranks time-share cores, so \
                 the goal is unattainable here; skipping the assertion"
            );
        } else {
            assert!(
                p4_speedup >= assert_p4,
                "P = 4 speedup {p4_speedup:.2}x is below the required {assert_p4}x \
                 on a {hw_threads}-thread host"
            );
            eprintln!("P = 4 speedup {p4_speedup:.2}x meets the {assert_p4}x goal");
        }
    }

    if assert_verlet > 0.0 {
        // Both sides of this ratio come from the same single-threaded
        // run on the same host, so unlike the P = 4 gate there is no
        // hardware-thread caveat.
        assert!(
            verlet_speedup >= assert_verlet,
            "Verlet replay speedup {verlet_speedup:.2}x over the half-shell baseline is \
             below the required {assert_verlet}x"
        );
        eprintln!("Verlet replay speedup {verlet_speedup:.2}x meets the {assert_verlet}x goal");
    }

    if assert_p9_ghost > 0.0 {
        // Byte counts are deterministic, so this gate has no
        // hardware-thread caveat: a regression is a code change.
        let p9 = rows.iter().find(|r| r.p == 9).expect("P = 9 row present");
        let ratio = ghost_ratio(&p9.wire);
        assert!(
            ratio >= assert_p9_ghost,
            "P = 9 ghost bytes-on-wire ratio {ratio:.2}x is below the required \
             {assert_p9_ghost}x ({} B shipped vs {} B full-frame baseline)",
            p9.wire.ghost,
            p9.wire.ghost_baseline
        );
        eprintln!("P = 9 ghost wire ratio {ratio:.2}x meets the {assert_p9_ghost}x goal");
    }

    if assert_hetero > 0.0 {
        // The imbalance figures come from modelled virtual step times,
        // so like the ghost-byte gate this one has no hardware caveat:
        // a regression is a code change.
        assert!(
            hetero_gain >= assert_hetero,
            "speed-aware DLB time-imbalance gain {hetero_gain:.2}x is below the \
             required {assert_hetero}x (imbalance {imb_time:.3} speed-aware vs \
             {imb_work:.3} work-based)"
        );
        eprintln!("hetero time-imbalance gain {hetero_gain:.2}x meets the {assert_hetero}x goal");
    }
}
