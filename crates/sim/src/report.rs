//! Per-step records and whole-run reports.
//!
//! These are the quantities the paper plots: per-step execution time `Tt`
//! and the force-time spread `Fmax/Fave/Fmin` (Figs. 5–6), the
//! concentration trajectory `(n, C₀/C)` (Fig. 9), plus energies and DLB
//! activity for diagnostics. [`RunReport::to_tsv`] dumps reports as
//! tab-separated text for external plotting — like the checkpoint format
//! in `pcdlb-md`, the dump is hand-rolled so the workspace carries no
//! serialisation dependency.

use pcdlb_core::metrics::ConcentrationPoint;
use pcdlb_domain::PillarLayout;
use std::fmt::Write as _;

/// One time step's measurements, assembled on rank 0 from all PEs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Step number (1-based).
    pub step: u64,
    /// Modelled execution time of the step: `max` over PEs of force time
    /// plus modelled communication time (synchronous steps run at the
    /// speed of the slowest PE — paper Sec. 3.3, "Tt depends on Fmax").
    pub t_step: f64,
    /// Maximum per-PE force-computation time (selected load metric).
    pub f_max: f64,
    /// Average per-PE force-computation time.
    pub f_ave: f64,
    /// Minimum per-PE force-computation time.
    pub f_min: f64,
    /// Wall-clock duration of the step measured on rank 0 (timeshared
    /// hosts make this noisy; informational only).
    pub wall_s: f64,
    /// Total candidate pair evaluations across PEs.
    pub pair_checks: u64,
    /// Fraction of empty cells, `C₀/C`.
    pub c0_over_c: f64,
    /// Concentration factor estimate `n` (paper Sec. 4.2 estimator).
    pub n_factor: f64,
    /// Cells owned by the PE with the largest domain (tracks the DLB
    /// limit).
    pub max_cells: usize,
    /// Ownership transfers performed by DLB this step.
    pub transfers: u32,
    /// Total kinetic energy.
    pub kinetic: f64,
    /// Total potential energy.
    pub potential: f64,
    /// Instantaneous temperature.
    pub temperature: f64,
    /// Whether this step rebuilt the cell binning / neighbour lists.
    /// Always `true` with `skin == 0` (the historical every-step rebind);
    /// with skin epochs it records the deterministic rebuild schedule,
    /// which must be identical across serial and every PE grid.
    pub rebuilt: bool,
}

impl StepRecord {
    /// The concentration point of this step (Fig. 9 trajectory sample).
    pub fn concentration(&self) -> ConcentrationPoint {
        ConcentrationPoint {
            step: self.step,
            n: self.n_factor,
            c0_over_c: self.c0_over_c,
        }
    }

    /// Force-time imbalance `Fmax − Fmin`, the boundary-detection series.
    pub fn imbalance(&self) -> f64 {
        self.f_max - self.f_min
    }
}

/// Wall-clock seconds accumulated per step phase, summed over a run.
/// Measured, so they vary run to run; purely informational — phase times
/// never feed `StepRecord`, digests, or DLB decisions, so they cannot
/// perturb a run's reported results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Force computation.
    pub force: f64,
    /// Ghost exchange (sends + receives + ghost-slab rebuilds).
    pub ghost: f64,
    /// Migration (routing, sends, receives, column rebuilds).
    pub migrate: f64,
    /// DLB decision (the load exchange and the moved columns ride the
    /// migration frames).
    pub dlb: f64,
}

impl PhaseTimes {
    /// Accumulate another rank's (or run's) phase times into this one.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.force += other.force;
        self.ghost += other.ghost;
        self.migrate += other.migrate;
        self.dlb += other.dlb;
    }

    /// Sum of all tracked phases.
    pub fn total(&self) -> f64 {
        self.force + self.ghost + self.migrate + self.dlb
    }
}

/// Bytes shipped per communication phase, summed over a run, next to the
/// bytes the ghosts would have cost in the pre-diet layout. The shipped
/// bytes are the encoded payload bytes the cost model charges (coalesced
/// step messages, shell-only ghosts with gap-encoded ids);
/// `ghost_baseline` reconstructs the pre-diet ghost layout (full
/// `Particle` ghosts per route column with an 8-byte per-column header).
/// The ratio `ghost_baseline / ghost` is the comm-volume-diet figure of
/// merit.
/// Deterministic given a deterministic trajectory — unlike [`PhaseTimes`]
/// these are byte counts, not clocks — so CI can gate on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireBytes {
    /// Ghost-phase bytes shipped.
    pub ghost: u64,
    /// Ghost-phase bytes under the pre-diet layout.
    pub ghost_baseline: u64,
    /// Migration-phase bytes shipped (round-1 step frames,
    /// including the DLB loads that ride along).
    pub migrate: u64,
    /// DLB decision and re-tile column bytes (same layout before and
    /// after the diet; tracked for the per-phase breakdown).
    pub dlb: u64,
    /// Of the shipped bytes, those of the sections a rank passed on in
    /// the staged exchange without being one of their destinations: what
    /// a diagonal neighbour's items cost on the way through a relay that
    /// does not need them (none on even tiles).
    pub relayed: u64,
}

impl WireBytes {
    /// Accumulate another rank's (or run's) byte counts into this one.
    pub fn merge(&mut self, other: &WireBytes) {
        self.ghost += other.ghost;
        self.ghost_baseline += other.ghost_baseline;
        self.migrate += other.migrate;
        self.dlb += other.dlb;
        self.relayed += other.relayed;
    }

    /// Total bytes shipped across tracked phases.
    pub fn total(&self) -> u64 {
        self.ghost + self.migrate + self.dlb
    }
}

/// A whole run's results (rank 0's view).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// One record per completed step.
    pub records: Vec<StepRecord>,
    /// Total modelled communication seconds summed over PEs.
    pub comm_virtual_s: f64,
    /// Total messages sent across all PEs.
    pub msgs_sent: u64,
    /// Total bytes sent across all PEs (wire-size accounting).
    pub bytes_sent: u64,
    /// Link-layer retransmissions summed over all PEs — always zero over
    /// the perfect in-process transport.
    pub retransmits: u64,
    /// Failure-detector suspicion episodes summed over all PEs — always
    /// zero over the perfect in-process transport.
    pub suspicions: u64,
    /// Wall-clock duration of the whole run, seconds.
    pub wall_s: f64,
    /// Cells each PE owned after the last step, in rank order — where the
    /// balancer left the domains. One entry per rank of the world that
    /// finished the run: after a resize that is the last generation's
    /// ranks only. Not part of any digest.
    pub cells_per_rank: Vec<usize>,
    /// Transfers the run's launch plans made before a first step ran
    /// (`launch_plan` in `pcdlb_sim`; summed over the generations of a
    /// resized run): where the balancer's own rule took the initial
    /// condition. `StepRecord::transfers` counts only what moved during a
    /// step. Not part of any digest.
    pub launch_transfers: usize,
    /// The tiling the run finished on: the one its last launch cut
    /// (`launch_plan` chooses it where a square-pillar run balances; the
    /// even `m × m` one otherwise) — after a resize, the last generation's
    /// — or the one it last re-tiled to. `None` for the plane and the
    /// cube. Not part of any digest.
    pub tiling: Option<PillarLayout>,
    /// Every re-tile of a re-tiling run, in step order: `(step, tiling,
    /// columns moved)` — the step whose DLB slot it took, the tiling it
    /// moved to, the columns that changed hands (each also counted in that
    /// step's `StepRecord::transfers`). Empty under
    /// `Launch::fixed_tiles`. Not part of any digest.
    pub retiles: Vec<(u64, PillarLayout, usize)>,
}

impl RunReport {
    /// The `Fmax − Fmin` series for boundary detection.
    pub fn imbalance_series(&self) -> Vec<f64> {
        self.records.iter().map(StepRecord::imbalance).collect()
    }

    /// The `(n, C₀/C)` trajectory (Fig. 9).
    pub fn concentration_trajectory(&self) -> Vec<ConcentrationPoint> {
        self.records.iter().map(StepRecord::concentration).collect()
    }

    /// Mean `t_step` over a step range (for Fig. 5-style summaries).
    pub fn mean_t_step(&self, from: usize, to: usize) -> f64 {
        let slice = &self.records[from.min(self.records.len())..to.min(self.records.len())];
        assert!(!slice.is_empty(), "empty step range");
        slice.iter().map(|r| r.t_step).sum::<f64>() / slice.len() as f64
    }

    /// Dump the per-step records as tab-separated text with a header row
    /// (one column per [`StepRecord`] field) followed by run totals as
    /// `# key value` comment lines (the message totals, the wall time and
    /// `launch_transfers`). Floats use `{:?}` so the round-trip through
    /// text is lossless for plotting scripts that re-parse it.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "step\tt_step\tf_max\tf_ave\tf_min\twall_s\tpair_checks\t\
             c0_over_c\tn_factor\tmax_cells\ttransfers\tkinetic\t\
             potential\ttemperature\n",
        );
        for r in &self.records {
            writeln!(
                out,
                "{}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{}\t{:?}\t{:?}\t{}\t{}\t{:?}\t{:?}\t{:?}",
                r.step,
                r.t_step,
                r.f_max,
                r.f_ave,
                r.f_min,
                r.wall_s,
                r.pair_checks,
                r.c0_over_c,
                r.n_factor,
                r.max_cells,
                r.transfers,
                r.kinetic,
                r.potential,
                r.temperature
            )
            .expect("writing to String cannot fail");
        }
        writeln!(out, "# comm_virtual_s {:?}", self.comm_virtual_s).unwrap();
        writeln!(out, "# msgs_sent {}", self.msgs_sent).unwrap();
        writeln!(out, "# bytes_sent {}", self.bytes_sent).unwrap();
        writeln!(out, "# wall_s {:?}", self.wall_s).unwrap();
        writeln!(out, "# launch_transfers {}", self.launch_transfers).unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: u64, fmax: f64, fmin: f64) -> StepRecord {
        StepRecord {
            step,
            t_step: fmax + 0.01,
            f_max: fmax,
            f_ave: 0.5 * (fmax + fmin),
            f_min: fmin,
            wall_s: 0.0,
            pair_checks: 100,
            c0_over_c: 0.1,
            n_factor: 1.2,
            max_cells: 64,
            transfers: 0,
            kinetic: 1.0,
            potential: -1.0,
            temperature: 0.722,
            rebuilt: true,
        }
    }

    #[test]
    fn imbalance_is_max_minus_min() {
        assert_eq!(rec(1, 0.5, 0.2).imbalance(), 0.3);
    }

    #[test]
    fn trajectory_and_series_align_with_records() {
        let rep = RunReport {
            records: (1..=5).map(|s| rec(s, 0.1 * s as f64, 0.05)).collect(),
            ..Default::default()
        };
        assert_eq!(rep.imbalance_series().len(), 5);
        assert_eq!(rep.concentration_trajectory()[2].step, 3);
        let m = rep.mean_t_step(0, 5);
        assert!((m - (0.1 + 0.2 + 0.3 + 0.4 + 0.5) / 5.0 - 0.01).abs() < 1e-12);
    }

    #[test]
    fn tsv_dump_has_header_rows_and_totals() {
        let rep = RunReport {
            records: (1..=3).map(|s| rec(s, 0.1 * s as f64, 0.05)).collect(),
            msgs_sent: 7,
            ..Default::default()
        };
        let tsv = rep.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert!(lines[0].starts_with("step\tt_step\t"));
        assert_eq!(lines[0].split('\t').count(), 14);
        assert_eq!(lines.len(), 1 + 3 + 5);
        assert_eq!(lines[1].split('\t').count(), 14);
        assert!(lines.contains(&"# msgs_sent 7"));
    }

    #[test]
    fn concentration_point_copies_fields() {
        let p = rec(9, 1.0, 0.5).concentration();
        assert_eq!(p.step, 9);
        assert_eq!(p.n, 1.2);
        assert_eq!(p.c0_over_c, 0.1);
    }
}
