//! SPMD world launcher.
//!
//! [`World::run`] spawns one OS thread per rank, hands each a [`Comm`]
//! endpoint, runs the same closure on all of them (SPMD, as the paper's
//! T3E implementation, Sec. 3.1), and returns the per-rank results in rank
//! order. If any rank panics, the panic is resurfaced on the caller after
//! all threads have stopped, so a failing assertion inside a rank fails the
//! enclosing test rather than deadlocking it.
//!
//! [`World::try_run`] is the recoverable form: instead of re-raising one
//! winning panic it joins every rank and returns a [`WorldError`] carrying
//! one diagnostic per failed rank — the clean-teardown surface a recovery
//! driver (e.g. `pcdlb-sim`'s resilient launch) builds on. Those two are
//! the only launchers; one hook, [`World::with_start_hook`], says what
//! each rank thread does before the program (install a delivery policy,
//! arm a kill site, bind an event log).
//!
//! Every launch builds a fresh channel set and joins every rank thread
//! before it returns, so no frame of one world can reach the next, however
//! many worlds a driver launches one after another.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::channel::unbounded;

use crate::comm::{Comm, CommConfig, Envelope};
use crate::cost::CostModel;

/// One rank's failure in a [`WorldError`]: the rank id and the panic
/// message (for a comm-layer failure, the diagnostic naming the rank,
/// the peer and the tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    /// Rank that failed.
    pub rank: usize,
    /// Its panic message.
    pub message: String,
}

/// Clean-teardown error from [`World::try_run`]: every rank was joined,
/// and each failed rank contributed one diagnostic, in rank order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldError {
    /// Per-rank diagnostics, ordered by rank.
    pub failures: Vec<RankFailure>,
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "world aborted on {} rank(s):", self.failures.len())?;
        for rf in &self.failures {
            write!(f, "\n  rank {}: {}", rf.rank, rf.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for WorldError {}

/// What each rank thread runs before the program.
#[derive(Clone)]
struct StartHook(Arc<dyn Fn(&mut Comm) + Send + Sync>);

impl std::fmt::Debug for StartHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StartHook(..)")
    }
}

/// Configuration for an SPMD launch.
#[derive(Debug, Clone)]
pub struct World {
    size: usize,
    model: CostModel,
    comm: CommConfig,
    start: Option<StartHook>,
}

impl World {
    /// A world of `size` ranks with the default (T3E-flavoured, untopologied)
    /// cost model. Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world needs at least one rank");
        Self {
            size,
            model: CostModel::default(),
            comm: CommConfig::default(),
            start: None,
        }
    }

    /// Replace the interconnect cost model.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Run under `cfg`: poll interval, watchdog, retransmission knobs,
    /// and — when `chaos` names a [`LossyProfile`](crate::LossyProfile)
    /// — a link layer on every rank. Panics with the
    /// [`CommConfig::check`] diagnostic on a configuration it refuses,
    /// mirroring the other builder asserts.
    pub fn with_comm_config(mut self, cfg: &CommConfig) -> Self {
        if let Err(e) = cfg.check() {
            panic!("{e}");
        }
        self.comm = cfg.clone();
        self
    }

    /// Run `hook` on every rank's own thread, once, before the program
    /// starts — the one place a model checker, a fault sweep or a test
    /// prepares a rank: [`Comm::set_delivery_policy`],
    /// [`Comm::set_fault_plan`],
    /// [`install_event_log`](crate::check::install_event_log). Applies to
    /// every launcher.
    pub fn with_start_hook(mut self, hook: impl Fn(&mut Comm) + Send + Sync + 'static) -> Self {
        self.start = Some(StartHook(Arc::new(hook)));
        self
    }

    /// Number of ranks this world will launch.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` on every rank; returns per-rank results in rank order.
    ///
    /// The closure is shared by reference across threads, so it must be
    /// `Sync`; per-rank state lives inside the closure body. The
    /// lowest-numbered failed rank's panic is resurfaced after all threads
    /// have been joined.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let (results, mut panics) = self.launch(f);
        if let Some((_rank, payload)) = panics.drain(..).next() {
            std::panic::resume_unwind(payload);
        }
        Self::unwrap_results(results)
    }

    /// Run `f` on every rank with clean teardown: never re-raises a rank's
    /// panic. On success, per-rank results in rank order; on any failure, a
    /// [`WorldError`] with one diagnostic per failed rank. Every thread is
    /// joined either way, so the caller can immediately launch a fresh
    /// world (the recovery loop does exactly that).
    pub fn try_run<R, F>(&self, f: F) -> Result<Vec<R>, WorldError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let (results, panics) = self.launch(f);
        Self::collect(results, panics)
    }

    fn unwrap_results<R>(results: Vec<Option<R>>) -> Vec<R> {
        results
            .into_iter()
            .map(|r| r.expect("non-panicked rank produced a result"))
            .collect()
    }

    fn collect<R>(
        results: Vec<Option<R>>,
        panics: Vec<(usize, Box<dyn std::any::Any + Send>)>,
    ) -> Result<Vec<R>, WorldError> {
        if panics.is_empty() {
            return Ok(Self::unwrap_results(results));
        }
        Err(WorldError {
            failures: panics
                .into_iter()
                .map(|(rank, payload)| RankFailure {
                    rank,
                    message: panic_message(payload.as_ref()),
                })
                .collect(),
        })
    }

    /// Spawn all ranks, join all of them, and hand back per-rank results
    /// plus the captured panic payloads in rank order. The common core of
    /// the two launchers.
    fn launch<R, F>(&self, f: F) -> LaunchOutcome<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        // Set when any rank panics; receives poll it so a dead peer
        // aborts the world instead of deadlocking it.
        let abort = Arc::new(AtomicBool::new(false));
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..self.size).map(|_| unbounded::<Envelope>()).unzip();

        let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
        let results: Vec<Option<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, rx)| {
                    let senders = senders.clone();
                    let (model, cfg, f) = (self.model, &self.comm, &f);
                    let start = self.start.as_ref();
                    let abort = Arc::clone(&abort);
                    scope.spawn(move || {
                        let mut comm = Comm::new(rank, senders, rx, model, cfg, Arc::clone(&abort));
                        if let Some(StartHook(hook)) = start {
                            hook(&mut comm);
                        }
                        let result =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
                        if result.is_ok() {
                            // Clean exit: drain the link layer, if any, so
                            // a dropped final frame is still retransmitted
                            // before this sender disappears.
                            comm.quiesce();
                        }
                        if result.is_err() {
                            // Wake every rank blocked on this rank's output.
                            abort.store(true, Ordering::SeqCst);
                        }
                        result
                    })
                })
                .collect();
            // Drop the launcher's copies of the senders so that a rank
            // blocked in recv whose peers have all exited sees the channel
            // close (and fails with a diagnostic) instead of hanging.
            drop(senders);
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| match h.join() {
                    Ok(Ok(r)) => Some(r),
                    Ok(Err(payload)) => {
                        // Captured inside the rank: keep the payload so the
                        // caller decides whether to re-raise or report.
                        panics.push((rank, payload));
                        None
                    }
                    Err(payload) => {
                        // The thread died outside catch_unwind (e.g. a
                        // panic while dropping); still record it.
                        panics.push((rank, payload));
                        None
                    }
                })
                .collect()
        });
        (results, panics)
    }
}

type LaunchOutcome<R> = (Vec<Option<R>>, Vec<(usize, Box<dyn std::any::Any + Send>)>);

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_numbered_and_sized() {
        let out = World::new(5).run(|comm| (comm.rank(), comm.size()));
        for (r, (rank, size)) in out.into_iter().enumerate() {
            assert_eq!(rank, r);
            assert_eq!(size, 5);
        }
    }

    #[test]
    fn results_come_back_in_rank_order() {
        let out = World::new(8).run(|comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_rank_world_works() {
        let out = World::new(1).run(|comm| comm.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = World::new(0);
    }

    #[test]
    fn rank_panic_propagates_to_caller() {
        let res = std::panic::catch_unwind(|| {
            World::new(3).run(|comm| {
                if comm.rank() == 1 {
                    panic!("boom on rank 1");
                }
                comm.rank()
            });
        });
        assert!(res.is_err());
    }

    #[test]
    fn panic_while_peer_blocked_in_recv_does_not_deadlock() {
        let res = std::panic::catch_unwind(|| {
            World::new(2).run(|comm| {
                if comm.rank() == 0 {
                    panic!("rank 0 dies before sending");
                }
                // Rank 1 waits for a message that will never come; the
                // abort flag must wake it up.
                let _: u64 = comm.recv(0, 0);
            });
        });
        assert!(res.is_err());
    }

    #[test]
    fn try_run_returns_results_when_all_ranks_succeed() {
        let out = World::new(4).try_run(|comm| comm.rank() * 2);
        assert_eq!(out.expect("no failures"), vec![0, 2, 4, 6]);
    }

    #[test]
    fn try_run_reports_every_failed_rank_in_order() {
        // Rank 1 dies; ranks 0 and 2 block on it and must each abort with
        // their own diagnostic — a clean teardown, not a panic race.
        let err = World::new(3)
            .try_run(|comm| {
                if comm.rank() == 1 {
                    panic!("boom on rank 1");
                }
                let _: u64 = comm.recv(1, 0);
            })
            .expect_err("the world must fail");
        let ranks: Vec<usize> = err.failures.iter().map(|f| f.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2]);
        assert!(err.failures[1].message.contains("boom on rank 1"));
        for r in [0, 2] {
            assert!(
                err.failures[r].message.contains("another rank panicked"),
                "rank {r} diagnostic: {}",
                err.failures[r].message
            );
        }
        // Display stitches the diagnostics together for logs.
        let text = err.to_string();
        assert!(text.contains("world aborted on 3 rank(s)"));
        assert!(text.contains("rank 1: boom on rank 1"));
    }

    #[test]
    fn try_run_does_not_unwind_the_caller() {
        let res = std::panic::catch_unwind(|| {
            World::new(2)
                .try_run(|comm| {
                    if comm.rank() == 0 {
                        panic!("contained");
                    }
                })
                .is_err()
        });
        assert_eq!(res.ok(), Some(true), "try_run must contain the panic");
    }

    #[test]
    fn start_hook_runs_once_per_rank_on_its_thread_before_the_program() {
        use std::sync::Mutex;
        use std::thread::{current, ThreadId};
        let calls: Arc<Mutex<Vec<(usize, ThreadId)>>> = Arc::default();
        let seen = Arc::clone(&calls);
        let world = World::new(3).with_start_hook(move |comm| {
            seen.lock().unwrap().push((comm.rank(), current().id()));
        });
        // How often the hook has already run for this rank on this thread
        // when the program starts.
        let program = |comm: &mut Comm| {
            let me = (comm.rank(), current().id());
            calls.lock().unwrap().iter().filter(|&&c| c == me).count()
        };
        let expect_one_each = |launcher: &str, counts: Vec<usize>| {
            assert_eq!(counts, [1, 1, 1], "{launcher}: before the program");
            let mut ranks: Vec<usize> = calls.lock().unwrap().drain(..).map(|c| c.0).collect();
            ranks.sort_unstable();
            assert_eq!(ranks, [0, 1, 2], "{launcher}: once per rank");
        };
        expect_one_each("run", world.run(program));
        expect_one_each("try_run", world.try_run(program).expect("no failures"));
    }

    #[test]
    #[cfg_attr(miri, ignore = "64 interpreted threads are far too slow")]
    fn many_ranks_oversubscribed() {
        // 64 ranks on however few cores the host has must still complete.
        let out = World::new(64).run(|comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 0, comm.rank() as u64);
            comm.recv::<u64>(prev, 0)
        });
        for (r, got) in out.into_iter().enumerate() {
            assert_eq!(got as usize, (r + 64 - 1) % 64);
        }
    }
}
