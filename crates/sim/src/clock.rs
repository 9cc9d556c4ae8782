//! Wall-clock instrumentation: the simulator's one wall clock.
//!
//! The simulator crate is deterministic by design: under the work model
//! (`LoadMetric::WorkModel`, the one load metric), every reported quantity
//! except the wall times is a pure function of the configuration.
//! Reading a real clock is exactly the hazard `pcdlb-check lint` flags in
//! this crate, so the only sanctioned access point is this module.
//! [`WallTimer`] always reads the real clock, and what it measures goes
//! only into the reported wall times (`StepRecord::wall_s`,
//! `RunReport::wall_s`, `PhaseTimes`, `StatsPacket::force_wall`): no
//! balancer decision and no digest reads a wall time, so the physics
//! trajectory and every modelled number are bitwise the same run to run.

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct WallTimer(Instant);

impl WallTimer {
    /// Start timing now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Seconds elapsed since [`WallTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::WallTimer;

    #[test]
    fn timer_is_monotone_nonnegative() {
        let t = WallTimer::start();
        let a = t.elapsed_s();
        let b = t.elapsed_s();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
