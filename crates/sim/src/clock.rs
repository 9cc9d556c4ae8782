//! Wall-clock instrumentation, gated behind the off-by-default
//! `wallclock-instrumentation` feature.
//!
//! The simulator crate is deterministic by design: under the work model
//! (`LoadMetric::WorkModel`, the one load metric), every reported quantity
//! except the wall times is a pure function of the configuration.
//! Reading a real clock is exactly the hazard `pcdlb-check lint` flags in
//! this crate, so the only sanctioned access point is this module. With
//! the feature disabled (the default, and what CI tests), [`WallTimer`]
//! reports `0.0` for every interval, so the `wall_s` / `force_wall`
//! fields read 0. No balancer decision reads a wall time: enable the
//! feature for real timing studies; the physics trajectory is bitwise
//! identical either way.

#[cfg(feature = "wallclock-instrumentation")]
mod imp {
    use std::time::Instant;

    /// A started wall-clock timer (real `Instant`-backed).
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
}

#[cfg(not(feature = "wallclock-instrumentation"))]
mod imp {
    /// A started wall-clock timer (disabled: always reads 0.0).
    #[derive(Debug, Clone, Copy)]
    pub struct WallTimer;

    impl WallTimer {
        /// Start timing now (no-op without the feature).
        pub fn start() -> Self {
            Self
        }

        /// Seconds elapsed — always `0.0` without the feature.
        pub fn elapsed_s(&self) -> f64 {
            0.0
        }
    }
}

pub use imp::WallTimer;

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

    #[cfg(not(feature = "wallclock-instrumentation"))]
    #[test]
    fn disabled_timer_reads_zero() {
        let t = WallTimer::start();
        assert_eq!(t.elapsed_s(), 0.0);
    }
}
