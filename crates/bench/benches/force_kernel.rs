//! Microbenchmarks of the Lennard-Jones pair kernel — the inner loop that
//! the work model (pair checks × unit cost) abstracts. Calibrating
//! `sec_per_pair` for a given host is done by dividing the measured time
//! per `accumulate` call by the pair count reported here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcdlb_md::force::{PairKernel, WorkCounters};
use pcdlb_md::{LennardJones, Particle, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cell_of_particles(n: usize, origin: f64, seed: u64) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            Particle::at_rest(
                (seed * 1000 + i as u64) * 2,
                Vec3::new(
                    origin + rng.gen::<f64>() * 2.56,
                    rng.gen::<f64>() * 2.56,
                    rng.gen::<f64>() * 2.56,
                ),
            )
        })
        .collect()
}

fn bench_pair_kernel(c: &mut Criterion) {
    let kernel = PairKernel::new(LennardJones::paper());
    let mut g = c.benchmark_group("pair_kernel");
    for occupancy in [2usize, 4, 8, 16] {
        let targets = cell_of_particles(occupancy, 0.0, 1);
        let neighbors = cell_of_particles(occupancy, 2.56, 2);
        let pairs = (occupancy * occupancy) as u64;
        g.throughput(Throughput::Elements(pairs));
        g.bench_with_input(
            BenchmarkId::new("cell_vs_cell", occupancy),
            &occupancy,
            |b, _| {
                let mut forces = vec![Vec3::ZERO; targets.len()];
                b.iter(|| {
                    let mut w = WorkCounters::default();
                    forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
                    kernel.accumulate(
                        std::hint::black_box(&targets),
                        &mut forces,
                        std::hint::black_box(&neighbors),
                        Vec3::ZERO,
                        &mut w,
                    );
                    w.pair_checks
                });
            },
        );
    }
    g.finish();
}

fn bench_neighbor_list_vs_cells(c: &mut Criterion) {
    // The classic trade: 27-cell search checks every candidate each step;
    // a Verlet list pays a build now and then for far fewer checks.
    use pcdlb_md::neighbors::NeighborList;
    use pcdlb_md::serial::SerialSim;
    use pcdlb_md::thermostat::Thermostat;
    use pcdlb_md::{init, LennardJones};

    let box_len = 15.4; // 6 cells of 2.56
    let n = (0.256 * box_len * box_len * box_len) as usize;
    let mut ps = init::simple_cubic(n, box_len);
    init::maxwell_boltzmann(&mut ps, 0.722, 1);
    let lj = LennardJones::paper();

    let mut g = c.benchmark_group("force_evaluation");
    g.bench_function("cell_search_27", |b| {
        // Reuse one instance, stepping it per iteration (each step
        // recomputes the forces).
        let mut sim = SerialSim::new(ps.clone(), 6, box_len, lj, 1e-9, Thermostat::off());
        b.iter(|| {
            sim.step();
            sim.last_work().pair_checks
        });
    });
    g.bench_function("verlet_list_reuse", |b| {
        let list = NeighborList::build(&ps, box_len, &lj, 0.4);
        b.iter(|| list.compute_forces(&ps, &lj).1.pair_checks);
    });
    g.bench_function("verlet_list_build", |b| {
        b.iter(|| NeighborList::build(&ps, box_len, &lj, 0.4).num_pairs());
    });
    g.finish();
}

fn bench_half_vs_full_shell(c: &mut Criterion) {
    // The whole-grid force pass: the seed's 27-offset full-shell sweep
    // (each pair evaluated from both ends) against the production
    // 13-offset half-shell kernel. Same grid, same reported WorkCounters;
    // the throughput gap is the kernel speedup `steps-per-sec` records in
    // BENCH_force.json.
    use pcdlb_bench::full_shell_forces;
    use pcdlb_md::cells::CellGrid;
    use pcdlb_md::force::ExternalPull;
    use pcdlb_md::init;
    use pcdlb_md::serial::compute_forces_half_shell;

    let nc = 8usize;
    let box_len = 2.56 * nc as f64;
    let n = (0.256 * box_len.powi(3)) as usize;
    let mut ps = init::simple_cubic(n, box_len);
    init::maxwell_boltzmann(&mut ps, 0.722, 1);
    let mut grid = CellGrid::new(nc, box_len);
    for p in ps {
        grid.insert(p);
    }
    grid.canonicalize();
    let kernel = PairKernel::new(LennardJones::paper());
    let mut forces = Vec::new();
    let checks = full_shell_forces(&grid, &kernel, &mut forces).pair_checks;

    let mut g = c.benchmark_group("force_pass");
    g.throughput(Throughput::Elements(checks));
    g.bench_function("full_shell_27", |b| {
        b.iter(|| full_shell_forces(std::hint::black_box(&grid), &kernel, &mut forces).pair_checks)
    });
    g.bench_function("half_shell_13", |b| {
        b.iter(|| {
            compute_forces_half_shell(
                std::hint::black_box(&grid),
                &kernel,
                &ExternalPull::None,
                &mut forces,
            )
            .pair_checks
        })
    });
    g.finish();
}

fn bench_lj_scalar(c: &mut Criterion) {
    let lj = LennardJones::paper();
    c.bench_function("lj_force_energy_at_r1.2", |b| {
        b.iter(|| {
            let r2 = std::hint::black_box(1.44);
            (lj.force_over_r_r2(r2), lj.energy_r2(r2))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_pair_kernel, bench_neighbor_list_vs_cells, bench_half_vs_full_shell, bench_lj_scalar
}
criterion_main!(benches);
