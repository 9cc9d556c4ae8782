//! Distributed checkpoint/restart: the bottom rung of the recovery ladder.
//!
//! A long SPMD campaign must survive a rank dying mid-run (on the T3E: a
//! node failure; here: an injected fault or a real bug). The scheme is
//! the classic coordinated checkpoint: every `cfg.checkpoint_interval`
//! steps the ranks gather their particles and ownership view to rank 0
//! ([`SimCheckpoint`]), which embeds `pcdlb_md::checkpoint`'s exact
//! bit-preserving text format. A resilient launch
//! ([`Launch::run_resilient`](crate::driver::Launch::run_resilient))
//! launches the world, and when any rank fails it tears the world down
//! cleanly (collecting per-rank diagnostics), restores the last
//! checkpoint, and relaunches from there — repeating until the run
//! completes or attempts run out ([`RecoveryError`]).
//!
//! The headline property (tested here and swept exhaustively by
//! `pcdlb-check sweep`): a recovered run's particle state and per-step
//! record series are **bitwise identical** to an uninterrupted run's, no
//! matter where the fault struck. Only the run-total message counters
//! differ (retransmission), which is why parity is asserted on
//! [`digest_recovery`](crate::digest::digest_recovery) rather than
//! [`digest_run`](crate::digest::digest_run).

use std::fmt;
use std::io::{self, BufRead, BufWriter, Write};

use pcdlb_core::protocol::{DlbDecision, Transfer};
use pcdlb_domain::{Col, PillarLayout};
use pcdlb_md::checkpoint::Checkpoint;
use pcdlb_mp::{Torus2d, WorldError};

use crate::config::RunConfig;
use crate::report::StepRecord;

/// The first line of a serialised [`SimCheckpoint`]. Version 2 added the
/// `tiling` section, version 3 the `retiles` section; an older file is
/// refused by name.
const SIM_MAGIC: &str = "pcdlb-sim-checkpoint v3";

/// A restartable distributed simulation state: the global MD state (as a
/// [`Checkpoint`] in `pcdlb-md`'s exact format), the DLB ownership map
/// and the tiling whose home tiles it started from, rank 0's per-step
/// records up to the checkpointed step, and — the balancer decides a step
/// ahead — what its next decision rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint {
    /// Particle phase space + step counter + box, id-sorted.
    pub md: Checkpoint,
    /// `(column, owner)` for every column, in column order.
    pub ownership: Vec<(Col, usize)>,
    /// The tiling the run stands on at the checkpointed step — the one it
    /// was launched on ([`crate::launch`]) or last re-tiled to: which PE is
    /// home to which column, and so which columns are permanent. A
    /// relaunch and a sentinel rollback both rebuild their views on it.
    pub tiling: PillarLayout,
    /// Rank 0's step records for steps `1..=md.step`.
    pub records: Vec<StepRecord>,
    /// The load each rank last announced to its neighbours, by rank: what
    /// every neighbour holds for it when the next step decides. Empty when
    /// the run does not balance, or when the state was remapped onto
    /// another torus — a launch restored from it announces afresh.
    pub loads: Vec<f64>,
    /// The decisions the last rebuild step's frames brought, with their
    /// work, ascending `from`: not applied yet — their givers still hold
    /// the columns in `ownership` — so a restored run lands them at its
    /// first rebuild step. (What landed before, `loads` have seen.)
    pub transfers: Vec<Transfer>,
    /// The run's re-tiles up to the checkpointed step, as
    /// `RunReport::retiles` lists them: `(step, tiling, columns moved)`.
    pub retiles: Vec<(u64, PillarLayout, usize)>,
}

impl SimCheckpoint {
    /// Serialise to any writer: a sim magic line, the embedded MD
    /// checkpoint text, then `ownership`, `tiling`, `records`, `loads`,
    /// `transfers` and `retiles` sections. All `f64`s travel as IEEE-754
    /// bit patterns in hex, so a round trip is exact.
    pub fn write_to(&self, w: impl Write) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        writeln!(w, "{SIM_MAGIC}")?;
        self.md.write_to(&mut w)?;
        writeln!(w, "ownership {}", self.ownership.len())?;
        for &(c, owner) in &self.ownership {
            writeln!(w, "{} {} {}", c.cx, c.cy, owner)?;
        }
        let join = |starts: Vec<usize>, by: &str| {
            let starts: Vec<String> = starts.iter().map(usize::to_string).collect();
            starts.join(by)
        };
        let (nc, side) = (self.tiling.grid().nc(), self.tiling.torus().rows());
        writeln!(w, "tiling {nc} {side}")?;
        writeln!(w, "{}", join(self.tiling.xs(), " "))?;
        writeln!(w, "{}", join(self.tiling.ys(), " "))?;
        writeln!(w, "records {}", self.records.len())?;
        for r in &self.records {
            writeln!(
                w,
                "{} {:016x} {:016x} {:016x} {:016x} {:016x} {} {:016x} {:016x} {} {} {:016x} {:016x} {:016x} {}",
                r.step,
                r.t_step.to_bits(),
                r.f_max.to_bits(),
                r.f_ave.to_bits(),
                r.f_min.to_bits(),
                r.wall_s.to_bits(),
                r.pair_checks,
                r.c0_over_c.to_bits(),
                r.n_factor.to_bits(),
                r.max_cells,
                r.transfers,
                r.kinetic.to_bits(),
                r.potential.to_bits(),
                r.temperature.to_bits(),
                r.rebuilt as u8,
            )?;
        }
        writeln!(w, "loads {}", self.loads.len())?;
        for load in &self.loads {
            writeln!(w, "{:016x}", load.to_bits())?;
        }
        writeln!(w, "transfers {}", self.transfers.len())?;
        for t in &self.transfers {
            let DlbDecision { col, from, to } = t.decision;
            let work = t.work.to_bits();
            writeln!(w, "{} {} {from} {to} {work:016x}", col.cx, col.cy)?;
        }
        // A re-tile's tiling cuts the checkpoint's grid on its torus: one
        // line each, its cut starts comma-separated.
        writeln!(w, "retiles {}", self.retiles.len())?;
        for (step, tiling, moved) in &self.retiles {
            let (xs, ys) = (join(tiling.xs(), ","), join(tiling.ys(), ","));
            writeln!(w, "{step} {moved} {xs} {ys}")?;
        }
        w.flush()
    }

    /// Parse from any reader. Errors carry the offending line.
    pub fn read_from(r: impl io::Read) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let lines: Vec<String> = io::BufReader::new(r).lines().collect::<io::Result<_>>()?;
        let mut it = lines.iter().map(String::as_str);
        let magic = it.next().ok_or_else(|| bad("empty checkpoint"))?;
        for (old, lacks) in [("v1", "their tiling"), ("v2", "their re-tiles")] {
            if magic.trim() == format!("pcdlb-sim-checkpoint {old}") {
                return Err(bad(&format!(
                    "`{}` is a version {} checkpoint, written before checkpoints carried \
                     {lacks}; this build reads `{SIM_MAGIC}` only",
                    magic.trim(),
                    &old[1..]
                )));
            }
        }
        if magic.trim() != SIM_MAGIC {
            return Err(bad(&format!("bad sim magic line: `{magic}`")));
        }
        // The MD block runs until the `ownership` section header; particle
        // lines always start with a digit, so the split is unambiguous.
        let rest: Vec<&str> = it.collect();
        let own_at = rest
            .iter()
            .position(|l| l.trim_start().starts_with("ownership "))
            .ok_or_else(|| bad("missing ownership section"))?;
        let md = Checkpoint::read_from(rest[..own_at].join("\n").as_bytes())?;

        let mut it = rest[own_at..].iter();
        let parse_header = |line: &str, what: &str| -> io::Result<usize> {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 2 || f[0] != what {
                return Err(bad(&format!("bad {what} header: `{line}`")));
            }
            f[1].parse()
                .map_err(|_| bad(&format!("bad {what} count: `{line}`")))
        };
        let n_own = parse_header(it.next().expect("position found the header"), "ownership")?;
        let mut ownership = Vec::new();
        for _ in 0..n_own {
            let line = it
                .next()
                .ok_or_else(|| bad("truncated ownership section"))?;
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 3 {
                return Err(bad(&format!("bad ownership line: `{line}`")));
            }
            let cx = f[0].parse().map_err(|_| bad("bad cx"))?;
            let cy = f[1].parse().map_err(|_| bad("bad cy"))?;
            let owner = f[2].parse().map_err(|_| bad("bad owner"))?;
            ownership.push((Col::new(cx, cy), owner));
        }
        // The cuts: a header naming the grid and the torus side, then one
        // line of starts per axis. `PillarLayout::rectilinear` judges
        // them — a cut set that does not tile its ring once is an error
        // here, not a panic in some rank's scaffold.
        let tiling_line = it.next().ok_or_else(|| bad("missing tiling section"))?;
        let (nc, side) = match tiling_line.split_whitespace().collect::<Vec<_>>()[..] {
            ["tiling", nc, side] => nc.parse::<usize>().ok().zip(side.parse::<usize>().ok()),
            _ => None,
        }
        .ok_or_else(|| bad(&format!("bad tiling header: `{tiling_line}`")))?;
        let mut cuts = || -> io::Result<Vec<usize>> {
            let line = it.next().ok_or_else(|| bad("truncated tiling section"))?;
            let starts: Result<Vec<usize>, _> = line.split_whitespace().map(str::parse).collect();
            starts.map_err(|_| bad(&format!("bad tiling line: `{line}`")))
        };
        let (xs, ys) = (cuts()?, cuts()?);
        if side == 0 || side > PillarLayout::MAX_SIDE {
            return Err(bad(&format!("bad tiling: torus side {side}")));
        }
        let torus = Torus2d::new(side, side);
        let tiling = PillarLayout::rectilinear(nc, torus, &xs, &ys)
            .map_err(|e| bad(&format!("bad tiling: {e}")))?;
        let rec_line = it.next().ok_or_else(|| bad("missing records section"))?;
        let n_rec = parse_header(rec_line, "records")?;
        let hex = |s: &str| -> io::Result<f64> {
            Ok(f64::from_bits(
                u64::from_str_radix(s, 16).map_err(|_| bad("bad f64 bits"))?,
            ))
        };
        let mut records = Vec::new();
        for _ in 0..n_rec {
            let line = it.next().ok_or_else(|| bad("truncated records section"))?;
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 15 {
                return Err(bad(&format!("bad record line: `{line}`")));
            }
            records.push(StepRecord {
                step: f[0].parse().map_err(|_| bad("bad step"))?,
                t_step: hex(f[1])?,
                f_max: hex(f[2])?,
                f_ave: hex(f[3])?,
                f_min: hex(f[4])?,
                wall_s: hex(f[5])?,
                pair_checks: f[6].parse().map_err(|_| bad("bad pair_checks"))?,
                c0_over_c: hex(f[7])?,
                n_factor: hex(f[8])?,
                max_cells: f[9].parse().map_err(|_| bad("bad max_cells"))?,
                transfers: f[10].parse().map_err(|_| bad("bad transfers"))?,
                kinetic: hex(f[11])?,
                potential: hex(f[12])?,
                temperature: hex(f[13])?,
                rebuilt: f[14].parse::<u8>().map_err(|_| bad("bad rebuilt"))? != 0,
            });
        }
        let loads_line = it.next().ok_or_else(|| bad("missing loads section"))?;
        let n_loads = parse_header(loads_line, "loads")?;
        let mut loads = Vec::new();
        for _ in 0..n_loads {
            let line = it.next().ok_or_else(|| bad("truncated loads section"))?;
            loads.push(hex(line.trim()).map_err(|_| bad(&format!("bad load line: `{line}`")))?);
        }
        let transfers_line = it.next().ok_or_else(|| bad("missing transfers section"))?;
        let n_transfers = parse_header(transfers_line, "transfers")?;
        let mut transfers = Vec::new();
        for _ in 0..n_transfers {
            let line = it
                .next()
                .ok_or_else(|| bad("truncated transfers section"))?;
            let parsed = match line.split_whitespace().collect::<Vec<_>>()[..] {
                [cx, cy, from, to, work] => (|| {
                    let col = Col::new(cx.parse().ok()?, cy.parse().ok()?);
                    let (from, to) = (from.parse().ok()?, to.parse().ok()?);
                    let decision = DlbDecision { col, from, to };
                    let work = hex(work).ok()?;
                    Some(Transfer { decision, work })
                })(),
                _ => None,
            };
            transfers.push(parsed.ok_or_else(|| bad(&format!("bad transfer line: `{line}`")))?);
        }
        let retiles_line = it.next().ok_or_else(|| bad("missing retiles section"))?;
        let n_retiles = parse_header(retiles_line, "retiles")?;
        let mut retiles = Vec::new();
        for _ in 0..n_retiles {
            let line = it.next().ok_or_else(|| bad("truncated retiles section"))?;
            let starts =
                |s: &str| -> Option<Vec<usize>> { s.split(',').map(|v| v.parse().ok()).collect() };
            let parsed = match line.split_whitespace().collect::<Vec<_>>()[..] {
                [step, moved, xs, ys] => (|| {
                    let (step, moved) = (step.parse().ok()?, moved.parse().ok()?);
                    let layout = PillarLayout::rectilinear(nc, torus, &starts(xs)?, &starts(ys)?);
                    Some((step, layout.ok()?, moved))
                })(),
                _ => None,
            };
            retiles.push(parsed.ok_or_else(|| bad(&format!("bad retile line: `{line}`")))?);
        }
        if it.any(|line| !line.trim().is_empty()) {
            return Err(bad("trailing lines after the retiles section"));
        }
        Ok(Self {
            md,
            ownership,
            tiling,
            records,
            loads,
            transfers,
            retiles,
        })
    }

    /// The checkpointed tiling as the layout of a run of `cfg` — an error
    /// when it was cut for another grid or another torus.
    pub fn tiling_for(&self, cfg: &RunConfig) -> io::Result<PillarLayout> {
        let (nc, p) = (self.tiling.grid().nc(), self.tiling.num_ranks());
        if (nc, p) != (cfg.nc, cfg.p) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint tiled for nc = {nc}, P = {p}; the configuration has nc = {}, P = {}",
                    cfg.nc, cfg.p
                ),
            ));
        }
        Ok(self.tiling)
    }

    /// Serialise to an in-memory string (small systems, tests).
    pub fn to_string_repr(&self) -> String {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("in-memory write cannot fail");
        String::from_utf8(buf).expect("checkpoint text is ASCII")
    }
}

/// The run kept failing: a world generation died on every attempt its
/// ladder allowed.
#[derive(Debug)]
pub struct RecoveryError {
    /// Launches made, over all generations.
    pub attempts: usize,
    /// Per-launch failure diagnostics, in attempt order.
    pub failures: Vec<WorldError>,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run failed on all {} attempt(s)", self.attempts)?;
        if let Some(last) = self.failures.last() {
            write!(f, "; last failure: {last}")?;
        }
        Ok(())
    }
}

impl std::error::Error for RecoveryError {}

#[cfg(test)]
pub(crate) mod tests {
    use std::time::Duration;

    use super::*;
    use crate::config::{Lattice, RunConfig};
    use crate::digest::{digest_records, digest_recovery};
    use crate::driver::{run, run_with_snapshot, Ladder, LadderOutcome, Launch};
    use crate::elastic::ResizePlan;
    use crate::pe::initial_particles;

    /// A small but non-trivial 2×2 recovery workload: DDM only (P = 4
    /// cannot run DLB), clustered start so migration and ghost traffic
    /// are busy, thermostat firing mid-run. A tight poll so aborts
    /// propagate fast, a watchdog short enough that a wedged receive
    /// fails the test promptly.
    pub(crate) fn recovery_cfg() -> RunConfig {
        let mut cfg = RunConfig::new(216, 4, 4, 0.2);
        cfg.dlb = false;
        cfg.steps = 24;
        cfg.thermostat_interval = 10;
        cfg.lattice = Lattice::Cluster { fill: 0.8 };
        cfg.seed = 11;
        cfg.checkpoint_interval = 5;
        cfg.comm.poll = Duration::from_millis(2);
        cfg.comm.watchdog = Duration::from_secs(20);
        cfg
    }

    /// Relaunch from the last checkpoint.
    fn ladder() -> Ladder {
        Ladder {
            max_attempts: 3,
            plan: ResizePlan::new(),
        }
    }

    fn fault_free(cfg: &RunConfig) -> LadderOutcome {
        Launch::new()
            .run_resilient(cfg, &ladder())
            .expect("no faults")
    }

    /// A launch whose rank threads run under the plans `plans(launch,
    /// rank)` gives them.
    #[cfg(feature = "check")]
    pub(crate) fn faulted(
        plans: impl Fn(usize, usize) -> Option<pcdlb_mp::FaultPlan> + Send + Sync + 'static,
    ) -> Launch {
        Launch::new().on_start(move |launch, comm| {
            if let Some(plan) = plans(launch, comm.rank()) {
                comm.set_fault_plan(plan);
            }
        })
    }

    fn transfer(from: usize, to: usize, work: f64) -> Transfer {
        let col = Col::new(from, to);
        let decision = DlbDecision { col, from, to };
        Transfer { decision, work }
    }

    #[test]
    fn sim_checkpoint_round_trip_is_exact() {
        let cfg = recovery_cfg();
        let ck = SimCheckpoint {
            md: Checkpoint::new(7, cfg.box_len(), initial_particles(&cfg)),
            ownership: vec![(Col::new(0, 0), 0), (Col::new(3, 2), 3)],
            tiling: PillarLayout::rectilinear(4, cfg.torus(), &[3, 1], &[0, 2]).unwrap(),
            records: run(&cfg).records,
            loads: vec![0.1, 0.25, -0.0, 1e-300],
            transfers: vec![transfer(3, 0, 0.1 / 3.0), transfer(1, 2, 0.0)],
            retiles: vec![
                (
                    2,
                    PillarLayout::rectilinear(4, cfg.torus(), &[1, 2], &[0, 3]).unwrap(),
                    5,
                ),
                (16, PillarLayout::new(4, cfg.torus()), 0),
            ],
        };
        let text = ck.to_string_repr();
        let back = SimCheckpoint::read_from(text.as_bytes()).expect("parse");
        assert_eq!(ck.md, back.md);
        assert_eq!(ck.ownership, back.ownership);
        assert_eq!(ck.tiling, back.tiling);
        let bits = |loads: &[f64]| loads.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ck.loads), bits(&back.loads));
        assert_eq!(ck.transfers, back.transfers);
        assert_eq!(ck.retiles, back.retiles);
        assert_eq!(ck.records.len(), back.records.len());
        for (a, b) in ck.records.iter().zip(&back.records) {
            assert_eq!(a, b, "record round trip must be bitwise exact");
        }
    }

    #[test]
    fn corrupt_sim_checkpoints_are_rejected_with_context() {
        assert!(SimCheckpoint::read_from("".as_bytes()).is_err());
        assert!(SimCheckpoint::read_from("wrong\n".as_bytes()).is_err());
        let no_sections = "pcdlb-sim-checkpoint v3\npcdlb-checkpoint v1\nstep 0 box 0 n 0\n";
        let e = SimCheckpoint::read_from(no_sections.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("ownership"), "{e}");
        // A checkpoint of a format before the `tiling` or the `retiles`
        // section is turned away by its version, not by the section it
        // lacks.
        for old in [1, 2] {
            let text = no_sections.replace("sim-checkpoint v3", &format!("sim-checkpoint v{old}"));
            let e = SimCheckpoint::read_from(text.as_bytes()).unwrap_err();
            assert!(
                e.to_string().contains(&format!("version {old} checkpoint")),
                "{e}"
            );
        }
        let truncated = format!("{no_sections}ownership 2\n0 0 0\n");
        let e = SimCheckpoint::read_from(truncated.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("truncated"), "{e}");
        // A count no file backs is an error, not an allocation of its size.
        for n in ["18446744073709551615", "1000000000000"] {
            for text in [
                format!("{no_sections}ownership {n}\n0 0 0\n"),
                format!("{no_sections}ownership 0\ntiling 4 2\n0 2\n0 2\nrecords {n}\n"),
            ] {
                let e = SimCheckpoint::read_from(text.as_bytes()).expect_err(&text);
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "`{text}`: {e}");
                assert!(e.to_string().contains("truncated"), "`{text}`: {e}");
            }
        }
    }

    #[test]
    fn malformed_decide_ahead_sections_are_typed_errors() {
        // What the balancer's next decision rests on rides the tail of
        // the checkpoint. Cut that tail anywhere, mis-size its counts or
        // garble a line: the reader answers with an error naming the
        // section — it never panics, never allocates for a count it has
        // not seen the lines of, and never hands back a shortened state.
        let head = "pcdlb-sim-checkpoint v3\npcdlb-checkpoint v1\nstep 0 box 0 n 0\n\
                    ownership 0\ntiling 4 2\n0 2\n0 2\nrecords 0\n";
        let load = format!("{:016x}", 0.5f64.to_bits());
        let tail = format!("loads 2\n{load}\n{load}\ntransfers 1\n3 0 3 0 {load}\nretiles 0\n");
        let whole = format!("{head}{tail}");
        let ck = SimCheckpoint::read_from(whole.as_bytes()).expect("well-formed");
        assert_eq!(ck.loads, [0.5, 0.5]);
        assert_eq!(ck.transfers, [transfer(3, 0, 0.5)]);
        // Every proper prefix that ends on a line boundary is short of
        // something, and the error says of what.
        for (cut, _) in tail.match_indices('\n').rev().skip(1) {
            let text = format!("{head}{}", &tail[..=cut]);
            let e = SimCheckpoint::read_from(text.as_bytes()).expect_err(&text);
            let msg = e.to_string();
            assert!(
                msg.contains("missing") || msg.contains("truncated"),
                "cut at {cut}: {msg}"
            );
        }
        let e = SimCheckpoint::read_from(head.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("missing loads"), "{e}");
        for (garbled, what) in [
            // Counts that disagree with the lines that follow.
            (tail.replace("loads 2", "loads 3"), "bad load line"),
            (tail.replace("loads 2", "loads 1"), "bad transfers header"),
            (
                tail.replace("transfers 1", "transfers 2"),
                "bad transfer line",
            ),
            (
                tail.replace("transfers 1", "transfers 0"),
                "bad retiles header",
            ),
            (
                tail.replace("loads 2", "loads 18446744073709551615"),
                "bad load line",
            ),
            (tail.replace("loads 2", "loads -1"), "bad loads count"),
            (
                tail.replace("transfers 1", "transfers many"),
                "bad transfers count",
            ),
            (
                tail.replace("transfers 1", "transfers"),
                "bad transfers header",
            ),
            // Lines of the wrong shape.
            (tail.replace("3 0 3 0", "3 0 3"), "bad transfer line"),
            (tail.replace("3 0 3 0", "3 0 3 0 0"), "bad transfer line"),
            (tail.replace("3 0 3 0", "3 0 -3 0"), "bad transfer line"),
            (tail.replacen(&load, "0.5", 1), "bad load line"),
            (tail.replacen(&load, "", 1), "bad load line"),
        ] {
            let text = format!("{head}{garbled}");
            let e = SimCheckpoint::read_from(text.as_bytes()).expect_err(&text);
            assert!(e.to_string().contains(what), "`{garbled}`: {e}");
        }
    }

    #[test]
    fn malformed_tiling_sections_are_typed_errors() {
        // The cuts a restored rank builds its home tiles on come off the
        // file: a cut set that does not tile its ring once, a torus no
        // layout describes, a line cut short or garbled — each is an
        // error naming the tiling, never a panic in a rank's scaffold and
        // never an allocation sized by a number in the file.
        let head = "pcdlb-sim-checkpoint v3\npcdlb-checkpoint v1\nstep 0 box 0 n 0\n\
                    ownership 0\n";
        let tail = "records 0\nloads 0\ntransfers 0\nretiles 0\n";
        let read = |tiling: &str| {
            let text = format!("{head}{tiling}{tail}");
            SimCheckpoint::read_from(text.as_bytes())
        };
        let ck = read("tiling 12 3\n0 2 3\n2 3 5\n").expect("well-formed");
        assert_eq!(ck.tiling.to_string(), "2·1·9 from 0 × 1·2·9 from 2");
        assert_eq!(ck.tiling.num_ranks(), 9);
        for (tiling, what) in [
            ("", "bad tiling header"),
            ("tiling 12\n0 2 3\n2 3 5\n", "bad tiling header"),
            ("tiling 12 three\n0 2 3\n2 3 5\n", "bad tiling header"),
            ("tiling 12 3\n0 2 3\n", "bad tiling line"),
            ("tiling 12 3\n0 2 x\n2 3 5\n", "bad tiling line"),
            ("tiling 12 3\n0 2 -3\n2 3 5\n", "bad tiling line"),
            // Cuts that do not cover each axis once.
            ("tiling 12 3\n0 2\n2 3 5\n", "2 x cuts"),
            ("tiling 12 3\n0 2 3\n2 3 5 7\n", "4 y cuts"),
            ("tiling 12 3\n0 2 2\n2 3 5\n", "do not cover"),
            ("tiling 12 3\n0 3 2\n2 3 5\n", "do not cover"),
            ("tiling 12 3\n0 2 12\n2 3 5\n", "off the 12-column grid"),
            // Sizes no layout has.
            ("tiling 12 0\n\n\n", "torus side 0"),
            ("tiling 12 33\n0\n0\n", "torus side 33"),
            (
                "tiling 12 18446744073709551615\n0\n0\n",
                "torus side 18446744073709551615",
            ),
            ("tiling 1 1\n0\n0\n", "off the supported range"),
            (
                "tiling 18446744073709551615 1\n0\n0\n",
                "off the supported range",
            ),
        ] {
            let e = read(tiling).expect_err(tiling);
            assert!(e.to_string().contains(what), "`{tiling}`: {e}");
        }
        let e = SimCheckpoint::read_from(head.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("missing tiling"), "{e}");
        let cut = format!("{head}tiling 12 3\n0 2 3\n");
        let e = SimCheckpoint::read_from(cut.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("truncated tiling"), "{e}");
        // Well-formed cuts for another grid or torus than the run's.
        assert!(ck.tiling_for(&busy_balancer_cfg()).is_ok());
        for (p, nc) in [(16, 12), (9, 9)] {
            let other = RunConfig::new(1000, nc, p, 0.05);
            let e = ck.tiling_for(&other).unwrap_err();
            assert!(e.to_string().contains("nc = 12, P = 9"), "{e}");
        }
    }

    #[test]
    fn malformed_retile_sections_are_typed_errors() {
        // The re-tile history rides the end of the checkpoint, each entry
        // a tiling of the checkpoint's own grid and torus: an entry whose
        // cuts do not tile that ring, or a line of the wrong shape, is an
        // error naming the section.
        let head = "pcdlb-sim-checkpoint v3\npcdlb-checkpoint v1\nstep 0 box 0 n 0\n\
                    ownership 0\ntiling 12 3\n0 4 8\n0 4 8\nrecords 0\nloads 0\ntransfers 0\n";
        let read = |retiles: &str| SimCheckpoint::read_from(format!("{head}{retiles}").as_bytes());
        let ck =
            read("retiles 2\n64 65 0,2,3 2,3,11\n128 13 0,2,3 2,10,11\n").expect("well-formed");
        let entries: Vec<String> = ck
            .retiles
            .iter()
            .map(|(step, tiling, moved)| format!("{step} {tiling} {moved}"))
            .collect();
        assert_eq!(
            entries,
            [
                "64 2·1·9 from 0 × 1·8·3 from 2 65",
                "128 2·1·9 from 0 × 8·1·3 from 2 13"
            ]
        );
        for (retiles, what) in [
            ("", "missing retiles"),
            ("retiles 1\n", "truncated retiles"),
            ("retiles 1\n64 65 0,2,3\n", "bad retile line"),
            ("retiles 1\n64 65 0,2 2,3,11\n", "bad retile line"),
            ("retiles 1\n64 65 0,2,12 2,3,11\n", "bad retile line"),
            ("retiles 1\n64 x 0,2,3 2,3,11\n", "bad retile line"),
            ("retiles 1\n64 65 0,2,3 2;3;11\n", "bad retile line"),
            ("retiles 0\n64 65 0,2,3 2,3,11\n", "trailing lines"),
            ("retiles many\n", "bad retiles count"),
        ] {
            let e = read(retiles).expect_err(retiles);
            assert!(e.to_string().contains(what), "`{retiles}`: {e}");
        }
    }

    /// 3×3, m = 4, the cluster on rank 0's tile of the paper's tiling —
    /// the benchmark's `cluster_dlb_p9`: the launch cuts the tiles through
    /// the cluster (2·1·9 × 1·2·9 where they follow the load, 2·2·8 ×
    /// 2·2·8 where they are fixed), and the balancer moves a column or two
    /// on most of the first steps; the re-tile check at step 2 refines the
    /// tiling, those at steps 4, 8 and 16 keep it.
    fn busy_balancer_cfg() -> RunConfig {
        let mut cfg = RunConfig::from_p_m_density(9, 4, 0.128);
        cfg.lattice = Lattice::Cluster { fill: 0.45 };
        cfg.dlb = true;
        cfg.steps = 16;
        cfg.checkpoint_interval = 5;
        cfg.comm = recovery_cfg().comm;
        cfg
    }

    #[test]
    fn checkpointing_is_digest_neutral() {
        // The same run with and without periodic checkpoints must report
        // identical records and final state — the gathers add messages
        // but never perturb a t_step or the physics. Nor a decision: a
        // balancer deciding a step ahead carries loads across the
        // checkpoint step like across any other.
        for checkpointed in [recovery_cfg(), busy_balancer_cfg()] {
            let mut plain = checkpointed.clone();
            plain.checkpoint_interval = 0;
            let (rep_a, snap_a) = run_with_snapshot(&plain);
            let (rep_b, snap_b) = run_with_snapshot(&checkpointed);
            assert_eq!(snap_a, snap_b, "checkpoint gathers must not touch physics");
            assert_eq!(
                digest_records(&rep_a, plain.load_metric),
                digest_records(&rep_b, checkpointed.load_metric),
                "checkpoint gathers must not perturb any reported step"
            );
            assert!(
                rep_b.msgs_sent > rep_a.msgs_sent,
                "the checkpointed run did send extra gather messages"
            );
        }
    }

    #[test]
    fn a_run_restored_between_its_checks_checks_where_it_would_have() {
        use crate::engine::{run_pe, Program, Start};
        use crate::launch::{launch_plan, Placed};
        use pcdlb_domain::DomainShape;
        use std::sync::Mutex;
        // The benchmark's `cluster_dlb_p9` (seed 1) re-tiles at step 2, so
        // its next checks are due 4 and 8 steps later — at steps 6 and 10,
        // not 8 and 16. A checkpoint of step 5 falls between the re-tile
        // and those checks. The re-tile history it carries is what the
        // schedule counts from, so the run restored from it checks, and
        // re-tiles, where the uninterrupted one does.
        let mut cfg = busy_balancer_cfg();
        cfg.dlb_min_gain = 0.02;
        cfg.seed = 1;
        cfg.steps = 40;
        cfg.checkpoint_interval = 0;
        let (reference, reference_snapshot) = run_with_snapshot(&cfg);
        let steps = |retiles: &[(u64, PillarLayout, usize)]| -> Vec<u64> {
            retiles.iter().map(|r| r.0).collect()
        };
        assert_eq!(steps(&reference.retiles), [2, 34, 38]);
        let shape = DomainShape::SquarePillar;
        let world = || {
            pcdlb_mp::World::new(cfg.p)
                .with_cost_model(crate::decomp::cost_model(shape, &cfg))
                .with_comm_config(&cfg.comm)
        };
        let program = |snapshot, drain| Program {
            shape,
            retile: Some(0),
            snapshot,
            drain,
        };
        // Step 5's checkpoint, taken by a run that drains there.
        let mut to_5 = cfg.clone();
        to_5.steps = 5;
        let sink = Mutex::new(None);
        let placed = Placed::new(&to_5, &initial_particles(&to_5));
        let plan = launch_plan(shape, &to_5, 0, &placed.column_work(), true);
        let drain = program(false, true);
        let start = Start::Fresh(&placed, &plan);
        world().run(|comm| run_pe(comm, &to_5, drain, start, Some(&sink)));
        let at_5 = sink.into_inner().unwrap().expect("a drain at step 5");
        assert_eq!((at_5.md.step, steps(&at_5.retiles)), (5, vec![2]));
        let resume = program(true, false);
        let start = Start::Restore(&at_5);
        let mut restored = world().run(|comm| run_pe(comm, &cfg, resume, start, None));
        let rank0 = restored.swap_remove(0);
        let report = rank0.report.expect("rank 0 reports");
        let snapshot = rank0.snapshot.expect("rank 0 gathers the snapshot");
        assert_eq!(report.retiles, reference.retiles);
        assert_eq!(
            digest_recovery(&report, &snapshot, cfg.load_metric),
            digest_recovery(&reference, &reference_snapshot, cfg.load_metric)
        );
    }

    #[test]
    fn recovery_without_faults_completes_in_one_attempt() {
        let cfg = recovery_cfg();
        let out = fault_free(&cfg);
        assert_eq!(out.attempts, 1);
        assert!(out.failures.is_empty());
        let (rep, snap) = run_with_snapshot(&cfg);
        assert_eq!(out.snapshot, snap);
        assert_eq!(out.digest, digest_recovery(&rep, &snap, cfg.load_metric));
    }

    #[cfg(feature = "check")]
    #[test]
    fn recovery_restores_the_last_checkpoint_and_matches_bitwise() {
        use pcdlb_mp::FaultPlan;
        let cfg = recovery_cfg();
        let reference = fault_free(&cfg);
        // Kill rank 2 deep enough into the run that a checkpoint exists
        // (it sends some three messages a step — a frame per hop and its
        // stats — so step 5's gather is its 18th or so, and its 70th send
        // falls in step 21, after the checkpoint of step 20).
        let kill = |launch, rank| (launch == 0 && rank == 2).then(|| FaultPlan::kill_at(70));
        let out = faulted(kill)
            .run_resilient(&cfg, &ladder())
            .expect("second attempt recovers");
        assert_eq!(out.attempts, 2);
        assert_eq!(out.failures.len(), 1);
        assert!(
            out.failures[0]
                .failures
                .iter()
                .any(|f| f.rank == 2 && f.message.contains("killed by injected fault")),
            "diagnostics name the injected kill: {}",
            out.failures[0]
        );
        assert_eq!(
            out.digest, reference.digest,
            "recovered run must be bitwise identical to the uninterrupted run"
        );
        assert_eq!(out.snapshot, reference.snapshot);
        assert_eq!(out.report.records.len(), reference.report.records.len());
        for (a, b) in out.report.records.iter().zip(&reference.report.records) {
            // wall_s legitimately differs; every deterministic field must not.
            assert_eq!((a.step, a.t_step.to_bits()), (b.step, b.t_step.to_bits()));
            assert_eq!(a.kinetic.to_bits(), b.kinetic.to_bits());
        }
    }

    #[test]
    fn resilient_runs_with_sentinel_are_digest_neutral() {
        let cfg = recovery_cfg();
        let mut watched = recovery_cfg();
        watched.sentinel_interval = 4;
        let plain = fault_free(&cfg);
        let out = fault_free(&watched);
        assert_eq!(out.attempts, 1, "the sentinel is quiet");
        assert_eq!(
            out.digest, plain.digest,
            "a quiet sentinel must not perturb any reported step"
        );
        assert_eq!(out.snapshot, plain.snapshot);
    }

    #[cfg(feature = "check")]
    #[test]
    fn a_working_balancer_survives_a_death_bitwise() {
        use crate::engine::{run_pe, Program, Start};
        use crate::launch::{launch_plan, Placed};
        use pcdlb_core::protocol::tags;
        use pcdlb_domain::DomainShape;
        use pcdlb_mp::collectives::ctag;
        use pcdlb_mp::FaultPlan;
        use std::sync::Mutex;
        // Which neighbour is offered the cell is a pure function of the
        // loads in hand, the pending decisions and the ownership view —
        // all of which a checkpoint carries — so a run restored from a
        // checkpoint makes the same transfers as the uninterrupted one.
        let cfg = busy_balancer_cfg();
        let reference = fault_free(&cfg);
        // The checkpoint the relaunch restores — step 5's, taken here by
        // a run that drains there — carries a pending decision: the
        // restored ranks land it and book its work before they decide.
        let mut to_5 = cfg.clone();
        to_5.steps = 5;
        let (shape, sink) = (DomainShape::SquarePillar, Mutex::new(None));
        let placed = Placed::new(&to_5, &initial_particles(&to_5));
        let plan = launch_plan(shape, &to_5, 0, &placed.column_work(), true);
        let program = Program {
            shape,
            retile: Some(0),
            snapshot: false,
            drain: true,
        };
        let start = Start::Fresh(&placed, &plan);
        pcdlb_mp::World::new(to_5.p).run(|comm| run_pe(comm, &to_5, program, start, Some(&sink)));
        let at_5 = sink.into_inner().unwrap().expect("a drain at step 5");
        assert_eq!(at_5.md.step, 5);
        assert!(!at_5.transfers.is_empty(), "nothing pending at step 5");
        // Rank 4 is the south-east neighbour the hot rank cannot send to.
        // It dies on its sixth stats gather: in step 6, the step that
        // decided on what the checkpoint at step 5 had to carry.
        let in_step_6 = || FaultPlan::kill_on_tag(ctag(tags::STATS, 0), 5);
        let kill = move |launch, rank| (launch == 0 && rank == 4).then(in_step_6);
        let relaunched = faulted(kill).run_resilient(&cfg, &ladder());
        let relaunched = relaunched.expect("recovers");
        assert_eq!(relaunched.attempts, 2, "the run was restored, not replayed");
        assert_eq!(
            relaunched.digest, reference.digest,
            "relaunch from a checkpoint"
        );
        assert_eq!(relaunched.snapshot, reference.snapshot);
    }

    #[cfg(feature = "check")]
    #[test]
    fn a_run_on_uneven_tiles_is_restored_bitwise() {
        use pcdlb_core::protocol::tags;
        use pcdlb_mp::collectives::ctag;
        use pcdlb_mp::FaultPlan;
        // The benchmark's `cluster_dlb_p9` to the letter, a sentinel
        // watching. The tiling is part of what a checkpoint carries: a
        // world restored from one rebuilds its home tiles — which PE is home to which column, which
        // columns are wall — on the cuts the step-2 check refined from
        // the launch's (2·1·9 × 1·2·9), not on the even ones `cfg` alone
        // implies.
        let mut cfg = busy_balancer_cfg();
        cfg.dlb_min_gain = 0.02;
        cfg.seed = 1;
        cfg.sentinel_interval = 4;
        let reference = fault_free(&cfg);
        let tiling = reference.report.tiling.expect("a pillar run");
        assert_eq!(tiling.to_string(), "2·1·9 from 0 × 1·3·8 from 2");
        assert_eq!(reference.report.retiles.len(), 1);
        // Rank 8 holds the 9 × 8 tile that does the lending. It dies on
        // its eighth stats gather: in step 8, three steps after the
        // checkpoint the relaunch restores.
        let in_step_8 = || FaultPlan::kill_on_tag(ctag(tags::STATS, 0), 7);
        let kill = move |launch, rank| (launch == 0 && rank == 8).then(in_step_8);
        let relaunched = faulted(kill).run_resilient(&cfg, &ladder());
        let relaunched = relaunched.expect("recovers");
        assert_eq!(relaunched.attempts, 2, "the run was restored, not replayed");
        assert_eq!(relaunched.digest, reference.digest, "relaunch");
        assert_eq!(relaunched.report.records, reference.report.records);
        assert_eq!(relaunched.snapshot, reference.snapshot);
        assert_eq!(relaunched.report.tiling, Some(tiling));
        assert_eq!(
            relaunched.report.cells_per_rank,
            reference.report.cells_per_rank
        );
    }

    #[cfg(feature = "check")]
    #[test]
    fn a_planned_launch_survives_a_death_before_its_first_checkpoint_bitwise() {
        use pcdlb_core::protocol::tags;
        use pcdlb_mp::collectives::ctag;
        use pcdlb_mp::FaultPlan;
        // The launch plan is a pure function of the configuration and the
        // initial condition, so a world that starts over from step 0 — a
        // relaunch with no checkpoint to restore — starts where the first
        // launch started, and ends where an uninterrupted run ends.
        let cfg = busy_balancer_cfg();
        let reference = fault_free(&cfg);
        let tiling = reference.report.tiling.expect("a pillar run");
        assert!(!tiling.is_even(), "the tiles are cut through the cluster");
        assert!(reference.report.launch_transfers > 0);
        // Rank 4 dies on its third stats gather: in step 3, two steps
        // before the first checkpoint.
        let in_step_3 = || FaultPlan::kill_on_tag(ctag(tags::STATS, 0), 2);
        let kill = move |launch, rank| (launch == 0 && rank == 4).then(in_step_3);
        let relaunched = faulted(kill).run_resilient(&cfg, &ladder());
        let relaunched = relaunched.expect("recovers");
        assert_eq!(relaunched.attempts, 2);
        assert_eq!(
            relaunched.digest, reference.digest,
            "relaunch from the initial condition"
        );
        assert_eq!(relaunched.report.records, reference.report.records);
        assert_eq!(relaunched.snapshot, reference.snapshot);
        assert_eq!(
            relaunched.report.launch_transfers,
            reference.report.launch_transfers
        );
        assert_eq!(relaunched.report.tiling, Some(tiling));
    }

    #[cfg(feature = "check")]
    #[test]
    fn a_re_tile_survives_a_death_inside_it_and_restores_onto_its_tiling() {
        use pcdlb_core::protocol::tags;
        use pcdlb_mp::collectives::ctag;
        use pcdlb_mp::FaultPlan;
        // A 4 × 4 corner cluster that re-tiles at step 2 (its first check),
        // 10, 14 and 16 — 8, 4 and 2 steps after the re-tile before — with
        // checkpoints every 5 steps and a sentinel watching. The check and
        // the move are the step's messages like any other, and the re-tile
        // is a pure function of the state the check sees, so a world that
        // dies inside such a step — in the check's gather, or sending a
        // moved column — replays it to the bit by relaunch: the step-10 check from the checkpoint of step 5, the step-2 move
        // from the launch. One that dies after the checkpoint of step 10
        // restores onto the tiling the step-10 re-tile left, counts its
        // checks from there and makes the last two as the run did.
        let mut cfg = RunConfig::from_p_m_density(16, 4, 0.128);
        cfg.lattice = Lattice::Cluster { fill: 0.4 };
        cfg.dlb = true;
        cfg.seed = 1;
        cfg.steps = 20;
        cfg.checkpoint_interval = 5;
        cfg.sentinel_interval = 4;
        cfg.comm = recovery_cfg().comm;
        let reference = fault_free(&cfg);
        let retiled: Vec<u64> = reference.report.retiles.iter().map(|r| r.0).collect();
        assert_eq!(retiled, [2, 10, 14, 16]);
        let tiling = reference.report.retiles[3].1;
        assert_eq!(reference.report.tiling, Some(tiling));
        let parity = |out: &LadderOutcome, what: &str| {
            assert_eq!(out.digest, reference.digest, "{what}");
            assert_eq!(out.snapshot, reference.snapshot, "{what}");
            assert_eq!(out.report.retiles, reference.report.retiles, "{what}");
            assert_eq!(out.report.tiling, Some(tiling), "{what}");
        };
        // After the checkpoint of step 10: restored onto the step-10
        // re-tile's tiling, ahead of the checks that make the next two.
        let in_step_11 = || FaultPlan::kill_on_tag(ctag(tags::STATS, 0), 10);
        let kill = move |launch, rank| (launch == 0 && rank == 5).then(in_step_11);
        let restored = faulted(kill)
            .run_resilient(&cfg, &ladder())
            .expect("recovers");
        assert_eq!(restored.attempts, 2);
        parity(&restored, "restored between the re-tiles");
        // Inside a re-tile step: in the check's gather (the fourth a
        // non-root rank contributes to: step 10's), or at the first frame
        // of moved columns a rank sends (step 2's).
        let deaths: [(&str, u64, u64); 2] = [
            ("check", ctag(tags::RETILE_GATHER, 0), 3),
            ("move", tags::RETILE_XFER, 0),
        ];
        for (what, tag, nth) in deaths {
            let fired = (1..cfg.p).find_map(|rank| {
                let kill = move |launch, r| {
                    (launch == 0 && r == rank).then(|| FaultPlan::kill_on_tag(tag, nth))
                };
                let out = faulted(kill).run_resilient(&cfg, &ladder()).expect(what);
                (out.attempts == 2).then_some(out)
            });
            let relaunched = fired.unwrap_or_else(|| panic!("no {what} kill fired"));
            parity(&relaunched, what);
        }
    }

    #[cfg(feature = "check")]
    #[test]
    fn recovery_gives_up_after_max_attempts_with_all_diagnostics() {
        use pcdlb_mp::FaultPlan;
        let cfg = recovery_cfg();
        let err = faulted(|_launch, rank| (rank == 1).then(|| FaultPlan::kill_at(3)))
            .run_resilient(&cfg, &ladder())
            .expect_err("every attempt dies");
        assert_eq!(err.attempts, 3);
        assert_eq!(err.failures.len(), 3);
        assert!(err.to_string().contains("all 3 attempt(s)"), "{err}");
    }

    #[cfg(feature = "check")]
    #[test]
    fn a_resilient_launch_takes_its_deadlines_from_the_config() {
        // The ladder has no timing of its own: every world it launches
        // waits as `cfg.comm` says.
        use std::sync::{Arc, Mutex};
        let mut cfg = recovery_cfg();
        cfg.comm.watchdog = Duration::from_secs(7);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let watchdogs = Arc::clone(&seen);
        let launch = Launch::new().on_start(move |_launch, comm| {
            watchdogs.lock().unwrap().push(comm.watchdog());
        });
        launch.run_resilient(&cfg, &ladder()).expect("no faults");
        assert_eq!(*seen.lock().unwrap(), [cfg.comm.watchdog; 4]);
    }
}
