//! Deterministic state digests for determinism checking.
//!
//! The model checker in `pcdlb-check` runs the same configuration
//! under many message-delivery orders and asserts that this digest is
//! bit-identical across all of them. The digest therefore covers exactly
//! the state that *must* be delivery-order independent — the final
//! particle phase-space (ids, position bits, velocity bits) and the
//! deterministic per-step report series — and excludes wall-clock
//! measurements (`wall_s`, and the force times under
//! [`LoadMetric::WallClock`]),
//! which legitimately vary run to run.

use pcdlb_md::Particle;

use crate::config::LoadMetric;
use crate::report::RunReport;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorb one word, byte by byte.
    pub fn write_u64(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a float's exact bit pattern.
    pub fn write_f64(&mut self, f: f64) {
        self.write_u64(f.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Digest of a particle snapshot: ids and exact position/velocity bits,
/// in the given order (callers pass id-sorted snapshots).
pub fn digest_particles(particles: &[Particle]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(particles.len() as u64);
    for p in particles {
        h.write_u64(p.id);
        for v in [p.pos, p.vel] {
            h.write_f64(v.x);
            h.write_f64(v.y);
            h.write_f64(v.z);
        }
    }
    h.finish()
}

/// Digest of the delivery-order-independent parts of a run report.
///
/// `load_metric` controls whether the force-time series is included: under
/// the deterministic work model it must reproduce exactly; under wall
/// clocks it is measurement noise and is skipped.
pub fn digest_report(report: &RunReport, load_metric: LoadMetric) -> u64 {
    let mut h = Fnv1a::new();
    absorb_records(&mut h, report, load_metric);
    h.write_u64(report.msgs_sent);
    h.write_u64(report.bytes_sent);
    h.finish()
}

/// Digest of the per-step record series only — [`digest_report`] without
/// the run-total message counters. A run that recovers from a fault by
/// restoring a checkpoint legitimately re-sends messages, so its totals
/// differ from an uninterrupted run even though every simulated quantity
/// is bitwise identical; this is the digest crash-recovery parity is
/// asserted on.
pub fn digest_records(report: &RunReport, load_metric: LoadMetric) -> u64 {
    let mut h = Fnv1a::new();
    absorb_records(&mut h, report, load_metric);
    h.finish()
}

fn absorb_records(h: &mut Fnv1a, report: &RunReport, load_metric: LoadMetric) {
    let deterministic_loads = matches!(load_metric, LoadMetric::WorkModel { .. });
    h.write_u64(report.records.len() as u64);
    for r in &report.records {
        h.write_u64(r.step);
        if deterministic_loads {
            h.write_f64(r.t_step);
            h.write_f64(r.f_max);
            h.write_f64(r.f_ave);
            h.write_f64(r.f_min);
        }
        h.write_u64(r.pair_checks);
        h.write_f64(r.c0_over_c);
        h.write_f64(r.n_factor);
        h.write_u64(r.max_cells as u64);
        h.write_u64(r.transfers as u64);
        h.write_f64(r.kinetic);
        h.write_f64(r.potential);
        h.write_f64(r.temperature);
        h.write_u64(r.rebuilt as u64);
    }
}

/// Combined run digest: snapshot ⊕-chained with the report digest.
pub fn digest_run(report: &RunReport, snapshot: &[Particle], load_metric: LoadMetric) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(digest_particles(snapshot));
    h.write_u64(digest_report(report, load_metric));
    h.finish()
}

/// Combined recovery digest: like [`digest_run`] but over
/// [`digest_records`], so a recovered run and an uninterrupted run of the
/// same configuration must produce the **same** value (retransmitted
/// message totals excluded).
pub fn digest_recovery(report: &RunReport, snapshot: &[Particle], load_metric: LoadMetric) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(digest_particles(snapshot));
    h.write_u64(digest_records(report, load_metric));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcdlb_md::Vec3;

    fn particle(id: u64, x: f64) -> Particle {
        Particle {
            id,
            pos: Vec3 { x, y: 0.5, z: 1.5 },
            vel: Vec3 {
                x: -x,
                y: 0.0,
                z: 2.0,
            },
        }
    }

    #[test]
    fn particle_digest_is_stable_and_sensitive() {
        let a = vec![particle(0, 1.0), particle(1, 2.0)];
        assert_eq!(digest_particles(&a), digest_particles(&a.clone()));
        // Any bit flip in any field changes the digest.
        let mut b = a.clone();
        b[1].vel.z = 2.0000000000000004; // one ulp away
        assert_ne!(digest_particles(&a), digest_particles(&b));
        let mut c = a.clone();
        c[0].id = 7;
        assert_ne!(digest_particles(&a), digest_particles(&c));
    }

    #[test]
    fn particle_digest_depends_on_order_and_length() {
        let ab = vec![particle(0, 1.0), particle(1, 2.0)];
        let ba = vec![particle(1, 2.0), particle(0, 1.0)];
        assert_ne!(digest_particles(&ab), digest_particles(&ba));
        assert_ne!(digest_particles(&ab), digest_particles(&ab[..1]));
    }

    #[test]
    fn the_launch_plan_is_in_no_digest() {
        // How many columns the launch plan moved is a fact about where the
        // run started, not about any step, and where a run re-tiled is a
        // fact about ownership: a report hashes the same with and without
        // either.
        let a = RunReport {
            records: vec![record()],
            ..Default::default()
        };
        let mut b = a.clone();
        b.launch_transfers = 55;
        b.cells_per_rank = vec![84, 180];
        let thin = pcdlb_domain::PillarLayout::rectilinear(
            6,
            pcdlb_mp::Torus2d::new(3, 3),
            &[0, 1, 2],
            &[0, 1, 2],
        );
        b.retiles = vec![(4, thin.expect("three cuts of a ring of six"), 9)];
        let wm = LoadMetric::default();
        assert_eq!(digest_report(&a, wm), digest_report(&b, wm));
        assert_eq!(digest_records(&a, wm), digest_records(&b, wm));
        // Run for run: the plan moves ownership, never physics. A uniform
        // start (12³ particles on 6³ cells) plans nothing and a clustered
        // one plans a shed on the paper's fixed tiles; either way the
        // balancing run ends on its DDM twin's particles, and only the
        // clustered one reports a plan.
        for (lattice, planned) in [
            (crate::Lattice::SimpleCubic, false),
            (crate::Lattice::Cluster { fill: 0.6 }, true),
        ] {
            let mut dlb = crate::RunConfig::new(1728, 6, 9, 0.1);
            dlb.steps = 4;
            dlb.dlb = true;
            dlb.lattice = lattice;
            let mut ddm = dlb.clone();
            ddm.dlb = false;
            let fixed = crate::Launch::new().fixed_tiles().snapshot();
            let (dlb_report, dlb_snapshot) = fixed.run(&dlb).into_snapshot();
            let (ddm_report, ddm_snapshot) = crate::run_with_snapshot(&ddm);
            assert_eq!(dlb_report.launch_transfers > 0, planned, "{lattice:?}");
            assert_eq!(ddm_report.launch_transfers, 0);
            assert_eq!(
                digest_particles(&dlb_snapshot),
                digest_particles(&ddm_snapshot),
                "{lattice:?}"
            );
        }
    }

    fn record() -> crate::report::StepRecord {
        crate::report::StepRecord {
            step: 1,
            t_step: 0.25,
            f_max: 0.2,
            f_ave: 0.15,
            f_min: 0.1,
            wall_s: 0.0,
            pair_checks: 10,
            c0_over_c: 0.5,
            n_factor: 1.0,
            max_cells: 4,
            transfers: 0,
            kinetic: 1.0,
            potential: -1.0,
            temperature: 0.7,
            rebuilt: true,
        }
    }

    #[test]
    fn report_digest_ignores_wall_clock_fields() {
        let rec = record();
        let mut a = RunReport {
            records: vec![rec],
            ..Default::default()
        };
        let mut b = a.clone();
        b.records[0].wall_s = 123.456;
        b.wall_s = 99.0;
        let wm = LoadMetric::default();
        assert!(matches!(wm, LoadMetric::WorkModel { .. }));
        assert_eq!(digest_report(&a, wm), digest_report(&b, wm));
        // But deterministic series are covered.
        b.records[0].kinetic += 1e-13;
        assert_ne!(digest_report(&a, wm), digest_report(&b, wm));
        // Under wall-clock loads, the force-time series is excluded too.
        a.records[0].f_max = 0.9;
        let base = digest_report(&b, LoadMetric::WallClock);
        a.records[0].kinetic = b.records[0].kinetic;
        assert_eq!(digest_report(&a, LoadMetric::WallClock), base);
    }
}
