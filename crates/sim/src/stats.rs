//! Per-step statistics collection of the step engine ([`crate::pe`]).
//!
//! Every rank builds a [`StatsPacket`] at the end of a step; a gather to
//! rank 0 assembles the [`StepRecord`] the paper's figures are drawn
//! from.

use pcdlb_core::metrics::{concentration_point, PeCellStats};
use pcdlb_core::protocol::tags;
use pcdlb_md::observe;
use pcdlb_mp::{collectives, Comm};

use crate::config::RunConfig;
use crate::report::StepRecord;

/// One rank's contribution to a step record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StatsPacket {
    pub cells: u64,
    pub empty_cells: u64,
    pub particles: u64,
    pub force_virtual: f64,
    pub force_wall: f64,
    pub comm_virtual_delta: f64,
    pub pair_checks: u64,
    pub potential: f64,
    pub kinetic: f64,
    pub transferred: u64,
}

// The ten fields in order, 8 bytes each.
pcdlb_mp::wire_struct!(StatsPacket {
    cells,
    empty_cells,
    particles,
    force_virtual,
    force_wall,
    comm_virtual_delta,
    pair_checks,
    potential,
    kinetic,
    transferred
});

/// Gather packets to rank 0 and assemble the step record there
/// (`None` on other ranks).
pub(crate) fn collect_step_record(
    comm: &mut Comm,
    cfg: &RunConfig,
    step: u64,
    packet: StatsPacket,
    wall_s: f64,
    rebuilt: bool,
) -> Option<StepRecord> {
    let gathered = collectives::gather(comm, tags::STATS, packet)?;

    let load = |s: &StatsPacket| s.force_virtual;
    let f_max = gathered.iter().map(&load).fold(f64::MIN, f64::max);
    let f_min = gathered.iter().map(&load).fold(f64::MAX, f64::min);
    let f_ave = gathered.iter().map(&load).sum::<f64>() / gathered.len() as f64;
    let t_step = gathered
        .iter()
        .map(|s| load(s) + s.comm_virtual_delta)
        .fold(f64::MIN, f64::max);
    let cell_stats: Vec<PeCellStats> = gathered
        .iter()
        .enumerate()
        .map(|(rank, s)| PeCellStats {
            rank,
            cells: s.cells as usize,
            empty_cells: s.empty_cells as usize,
            particles: s.particles as usize,
        })
        .collect();
    let conc = concentration_point(step, &cell_stats, cfg.total_cells());
    let kinetic: f64 = gathered.iter().map(|s| s.kinetic).sum();
    let potential: f64 = gathered.iter().map(|s| s.potential).sum();
    Some(StepRecord {
        step,
        t_step,
        f_max,
        f_ave,
        f_min,
        wall_s,
        pair_checks: gathered.iter().map(|s| s.pair_checks).sum(),
        c0_over_c: conc.c0_over_c,
        n_factor: conc.n,
        max_cells: gathered.iter().map(|s| s.cells as usize).max().unwrap_or(0),
        transfers: gathered.iter().map(|s| s.transferred).sum::<u64>() as u32,
        kinetic,
        potential,
        temperature: observe::temperature_from_ke(kinetic, cfg.n_particles),
        rebuilt,
    })
}
