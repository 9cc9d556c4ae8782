//! Repo lint pass for determinism and protocol-robustness hazards.
//!
//! Seven rules, each scoped to the code where the hazard is real:
//!
//! - `wallclock-in-deterministic-crate`: no `Instant::now` / `SystemTime`
//!   in `pcdlb-md`, `pcdlb-core`, `pcdlb-domain`, `pcdlb-sim`. Physics and
//!   protocol decisions must be wall-clock free; the only sanctioned clock
//!   access is `pcdlb-sim`'s `clock` module, whose timers feed only the
//!   reported wall times and which is allowlisted in `lint-allow.txt`.
//! - `hash-iteration-in-protocol-code`: no `HashMap`/`HashSet` in
//!   `pcdlb-mp`, `pcdlb-sim` or the protocol module — hash iteration
//!   order varies between runs, which silently breaks bitwise
//!   reproducibility when it reaches message payloads or summation order.
//! - `unwrap-in-send-recv-path`: no bare `.unwrap()` on the send/recv
//!   paths (`comm`, `link`, `world`, `collectives`, `channel`, `fault`)
//!   or in the protocol module; failures there must carry a message (`expect`)
//!   or a typed error (`ProtocolError`).
//! - `expect-in-send-recv-path`: every `.expect(...)` on those same paths
//!   is a panic site a transport fault might reach. Each one must either
//!   be converted to a structured `CommError` or individually audited and
//!   allowlisted as guarding a local invariant (a poisoned lock, a
//!   just-checked index) that no remote input can violate.
//! - `unbounded-recv-in-recovery-path`: no indefinitely blocking
//!   `.recv(...)` or `.recv_payload(...)` in the files recovery flows
//!   through (`pcdlb-sim`'s step
//!   engine — every module of `pe/`, the run loop in `engine.rs` and the
//!   decompositions — plus `driver.rs`' ladder loop, `recover.rs` and the
//!   resize remap in `elastic.rs`). A recovery path waiting
//!   forever on a peer that may already be dead defeats the no-hang
//!   guarantee; waits there must be `recv_deadline` (which
//!   escalates to a world abort) or an audited step-schedule receive
//!   whose matching send the static verifier proves and whose liveness
//!   the watchdog bounds — each allowlisted individually.
//! - `per-step-allocation-in-hot-path`: no allocating constructors
//!   (`Vec::new`, `Vec::with_capacity`, `vec![`, `BTreeMap::new`,
//!   `BTreeSet::new`, `.to_vec()`, `.collect()`) in the files the steady-state step flows through
//!   (`frame.rs`, the run loop in `engine.rs` and the per-step modules of
//!   `pe/` in `pcdlb-sim`; in `pcdlb-md` the cell slab's rebuild, which
//!   both engines run every step, the SoA/Verlet force path and the
//!   serial simulator's step). The step is allocation-free by
//!   construction — retained frames and scratch — and a stray
//!   allocation silently reintroduces per-step heap churn. `pe/topology.rs`
//!   is listed too: `Topology::refresh` runs whenever a transfer redraws a
//!   PE's caches, on a balancing run a rank-step in five. A file in which
//!   nothing runs every step (`pe/audit.rs`, `pe/retile.rs`, `launch.rs`)
//!   is not listed; the cold lines that share a file with a phase (a
//!   component's constructor, a transfer's staging, the once-per-launch
//!   closure test) are audited one by one in `lint-allow.txt`.
//! - `hardcoded-duration-in-comm-path`: no inline `Duration::from_*`
//!   literals in the communication and recovery paths (`comm.rs`,
//!   `link.rs`, `world.rs`, `transport.rs` in `pcdlb-mp`; `driver.rs`
//!   and `recover.rs` in `pcdlb-sim`). Timing knobs there — polls,
//!   watchdogs, retransmit backoffs, heartbeat and suspicion horizons —
//!   must flow from `CommConfig` so callers can tune them; a literal
//!   buried mid-function is an untunable magic timeout. The one
//!   sanctioned place for the literals, `CommConfig::default()`, is
//!   allowlisted line by line.
//!
//! The scanner is textual by design (no rustc plumbing): it skips
//! `#[cfg(test)]` blocks by brace counting and strips `//` comments
//! before matching. Justified exceptions go in `lint-allow.txt` at the
//! repo root: `rule  path-suffix  line-substring` per line.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint hit.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// The rule that fired.
    pub rule: &'static str,
    /// File containing the hit.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.snippet
        )
    }
}

/// Outcome of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Violations (after allowlist filtering).
    pub findings: Vec<LintFinding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by the allowlist.
    pub suppressed: usize,
    /// Allowlist entries that suppressed nothing — stale audits whose
    /// code has since been fixed or removed. Rendered as the original
    /// `rule  path-suffix  line-substring` lines. `pcdlb-check lint`
    /// fails on them, so the allowlist can only shrink with the code it
    /// audits.
    pub dead_allows: Vec<String>,
}

struct Rule {
    name: &'static str,
    /// Directories (relative to the repo root) whose `.rs` files are in
    /// scope.
    dirs: &'static [&'static str],
    /// Individual files in scope.
    files: &'static [&'static str],
    /// Substrings that constitute a violation.
    patterns: &'static [&'static str],
}

const RULES: &[Rule] = &[
    Rule {
        name: "wallclock-in-deterministic-crate",
        dirs: &[
            "crates/md/src",
            "crates/core/src",
            "crates/domain/src",
            "crates/sim/src",
        ],
        files: &[],
        patterns: &["Instant::now", "SystemTime"],
    },
    Rule {
        name: "hash-iteration-in-protocol-code",
        dirs: &["crates/mp/src", "crates/sim/src"],
        files: &["crates/core/src/protocol.rs"],
        patterns: &["HashMap", "HashSet"],
    },
    Rule {
        name: "unwrap-in-send-recv-path",
        dirs: &[],
        files: &[
            "crates/mp/src/comm.rs",
            "crates/mp/src/link.rs",
            "crates/mp/src/world.rs",
            "crates/mp/src/collectives.rs",
            "crates/mp/src/channel.rs",
            "crates/mp/src/fault.rs",
            "crates/core/src/protocol.rs",
        ],
        patterns: &[".unwrap()"],
    },
    Rule {
        name: "expect-in-send-recv-path",
        dirs: &[],
        files: &[
            "crates/mp/src/comm.rs",
            "crates/mp/src/link.rs",
            "crates/mp/src/world.rs",
            "crates/mp/src/collectives.rs",
            "crates/mp/src/channel.rs",
            "crates/mp/src/fault.rs",
            "crates/core/src/protocol.rs",
        ],
        patterns: &[".expect("],
    },
    Rule {
        name: "unbounded-recv-in-recovery-path",
        dirs: &[],
        files: &[
            // The step engine, whole: the per-PE phases, the run loop and
            // the three decompositions it asks for ownership (which must
            // stay free of communication altogether).
            "crates/sim/src/pe/mod.rs",
            "crates/sim/src/pe/topology.rs",
            "crates/sim/src/pe/walk.rs",
            "crates/sim/src/pe/force.rs",
            "crates/sim/src/pe/exchange.rs",
            "crates/sim/src/pe/balance.rs",
            "crates/sim/src/pe/bookkeeping.rs",
            "crates/sim/src/pe/audit.rs",
            "crates/sim/src/pe/retile.rs",
            "crates/sim/src/engine.rs",
            "crates/sim/src/decomp.rs",
            "crates/sim/src/plane.rs",
            "crates/sim/src/cube.rs",
            // The ladder's generations × attempts loop, the checkpoint it
            // restores and the remap a resized generation starts from.
            "crates/sim/src/driver.rs",
            "crates/sim/src/recover.rs",
            "crates/sim/src/elastic.rs",
        ],
        // `.recv(` / `.recv::<` / `.recv_payload(` match the indefinitely
        // blocking receives only: `recv_deadline` and `try_recv` have a
        // different character after "recv" and stay legal.
        patterns: &[".recv(", ".recv::<", ".recv_payload("],
    },
    Rule {
        name: "per-step-allocation-in-hot-path",
        dirs: &[],
        files: &[
            "crates/sim/src/frame.rs",
            // What runs every step: the run loop and the per-step phases,
            // and the cache refresh a transfer triggers (`pe/topology.rs`:
            // 855 of the 4 500 rank-steps of the paper's balancing
            // scenario). (`pe/audit.rs` and `pe/retile.rs` hold nothing
            // that does.)
            "crates/sim/src/engine.rs",
            "crates/sim/src/pe/topology.rs",
            "crates/sim/src/pe/mod.rs",
            "crates/sim/src/pe/walk.rs",
            "crates/sim/src/pe/force.rs",
            "crates/sim/src/pe/exchange.rs",
            "crates/sim/src/pe/balance.rs",
            "crates/sim/src/pe/bookkeeping.rs",
            "crates/sim/src/decomp.rs",
            "crates/sim/src/plane.rs",
            "crates/sim/src/cube.rs",
            // The SoA/Verlet force path, the slab rebuild and the serial
            // simulator's step run every step: scratch must be retained
            // (reset + reuse), never reallocated per pass.
            "crates/md/src/cells.rs",
            "crates/md/src/serial.rs",
            "crates/md/src/soa.rs",
            "crates/md/src/verlet.rs",
        ],
        patterns: &[
            "Vec::new(",
            "Vec::with_capacity(",
            "vec![",
            "BTreeMap::new(",
            "BTreeSet::new(",
            ".to_vec()",
            ".collect()",
        ],
    },
    Rule {
        name: "hardcoded-duration-in-comm-path",
        dirs: &[],
        files: &[
            "crates/mp/src/comm.rs",
            "crates/mp/src/link.rs",
            "crates/mp/src/world.rs",
            "crates/mp/src/transport.rs",
            "crates/sim/src/driver.rs",
            "crates/sim/src/recover.rs",
        ],
        // Integer-literal constructors only: `from_secs_f64(` has a
        // different suffix and stays legal (virtual-time arithmetic).
        patterns: &[
            "Duration::from_millis(",
            "Duration::from_secs(",
            "Duration::from_micros(",
            "Duration::from_nanos(",
        ],
    },
];

/// One allowlist entry: suppress `rule` findings in files ending with
/// `file_suffix` on lines containing `substring`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule name, or `*` for any rule.
    pub rule: String,
    /// Path suffix the file must end with.
    pub file_suffix: String,
    /// Substring the offending line must contain.
    pub substring: String,
}

/// Parse `lint-allow.txt` content. Lines are
/// `rule  path-suffix  line-substring`; `#` starts a comment.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        if let (Some(rule), Some(suffix), Some(sub)) = (parts.next(), parts.next(), parts.next()) {
            out.push(AllowEntry {
                rule: rule.to_string(),
                file_suffix: suffix.to_string(),
                substring: sub.trim().to_string(),
            });
        }
    }
    out
}

/// Index of the first allowlist entry suppressing `finding`, if any.
fn allowed(entry: &[AllowEntry], finding: &LintFinding) -> Option<usize> {
    let path = finding.file.to_string_lossy().replace('\\', "/");
    entry.iter().position(|e| {
        (e.rule == "*" || e.rule == finding.rule)
            && path.ends_with(&e.file_suffix)
            && finding.snippet.contains(&e.substring)
    })
}

/// Collect `.rs` files under `dir`, recursively, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan one file's source against one rule.
fn scan_source(rule: &Rule, file: &Path, source: &str, findings: &mut Vec<LintFinding>) {
    // `#[cfg(test)]` skipping: after the attribute, skip the next item —
    // either a braced block (tracked by brace depth) or a single
    // `;`-terminated line.
    let mut pending_skip = false;
    let mut depth = 0usize;
    for (idx, raw) in source.lines().enumerate() {
        let code = raw.split("//").next().unwrap_or("");
        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        if depth > 0 {
            depth = (depth + opens).saturating_sub(closes);
            continue;
        }
        if pending_skip {
            if opens > closes {
                depth = opens - closes;
                pending_skip = false;
            } else if code.contains(';') || opens > 0 {
                pending_skip = false;
            }
            continue;
        }
        if code.trim_start().starts_with("#[cfg(test)") {
            pending_skip = true;
            continue;
        }
        for pat in rule.patterns {
            if code.contains(pat) {
                findings.push(LintFinding {
                    rule: rule.name,
                    file: file.to_path_buf(),
                    line: idx + 1,
                    snippet: raw.trim().to_string(),
                });
            }
        }
    }
}

/// Run every rule against the tree rooted at `root`, applying the
/// allowlist at `root/lint-allow.txt` if present.
pub fn run_lints(root: &Path) -> io::Result<LintReport> {
    let allow = match fs::read_to_string(root.join("lint-allow.txt")) {
        Ok(text) => parse_allowlist(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut report = LintReport::default();
    let mut entry_hits = vec![0usize; allow.len()];
    for rule in RULES {
        let mut files: Vec<PathBuf> = Vec::new();
        for d in rule.dirs {
            rs_files(&root.join(d), &mut files)?;
        }
        for f in rule.files {
            let p = root.join(f);
            if p.is_file() {
                files.push(p);
            }
        }
        report.files_scanned += files.len();
        for file in &files {
            let source = fs::read_to_string(file)?;
            let mut found = Vec::new();
            scan_source(rule, file, &source, &mut found);
            for f in found {
                if let Some(i) = allowed(&allow, &f) {
                    entry_hits[i] += 1;
                    report.suppressed += 1;
                } else {
                    report.findings.push(f);
                }
            }
        }
    }
    report.dead_allows = allow
        .iter()
        .zip(&entry_hits)
        .filter(|&(_, &hits)| hits == 0)
        .map(|(e, _)| format!("{}  {}  {}", e.rule, e.file_suffix, e.substring))
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A scratch repo tree with the given `(relative path, contents)`
    /// files; removed on drop.
    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new(files: &[(&str, &str)]) -> Self {
            let root = std::env::temp_dir().join(format!(
                "pcdlb-lint-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            for (rel, contents) in files {
                let path = root.join(rel);
                fs::create_dir_all(path.parent().expect("fixture files have parents"))
                    .expect("mkdir fixture");
                fs::write(&path, contents).expect("write fixture");
            }
            Self { root }
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn every_file_and_directory_a_rule_names_exists() {
        // `run_lints` skips a listed path that is not there, so a rename
        // would drop its coverage in silence; this test fails instead.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rule in RULES {
            for d in rule.dirs {
                assert!(root.join(d).is_dir(), "{}: no directory {d}", rule.name);
            }
            for f in rule.files {
                assert!(root.join(f).is_file(), "{}: no file {f}", rule.name);
            }
        }
    }

    #[test]
    fn clean_tree_has_no_findings() {
        let fx = Fixture::new(&[(
            "crates/md/src/lib.rs",
            "pub fn f() -> u64 { 42 } // no clocks here\n",
        )]);
        let r = run_lints(&fx.root).expect("lint runs");
        assert!(r.findings.is_empty());
        assert_eq!(r.files_scanned, 1);
    }

    #[test]
    fn wallclock_in_md_is_flagged() {
        let fx = Fixture::new(&[(
            "crates/md/src/force.rs",
            "use std::time::Instant;\npub fn t() { let _ = Instant::now(); }\n",
        )]);
        let r = run_lints(&fx.root).expect("lint runs");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "wallclock-in-deterministic-crate");
        assert_eq!(r.findings[0].line, 2);
    }

    #[test]
    fn hash_collections_in_mp_are_flagged() {
        let fx = Fixture::new(&[(
            "crates/mp/src/comm.rs",
            "use std::collections::HashMap;\nstruct S { m: HashMap<u64, u64> }\n",
        )]);
        let r = run_lints(&fx.root).expect("lint runs");
        assert_eq!(r.findings.len(), 2);
        assert!(r
            .findings
            .iter()
            .all(|f| f.rule == "hash-iteration-in-protocol-code"));
    }

    #[test]
    fn unwrap_on_send_path_is_flagged_but_not_in_tests() {
        let fx = Fixture::new(&[(
            "crates/mp/src/comm.rs",
            concat!(
                "pub fn recv() { q.pop().unwrap(); }\n",
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    fn ok() { x.unwrap(); }\n",
                "    fn also_ok() { y.unwrap(); }\n",
                "}\n",
                "pub fn send() { tx.send(v).unwrap(); }\n",
            ),
        )]);
        let r = run_lints(&fx.root).expect("lint runs");
        let lines: Vec<usize> = r
            .findings
            .iter()
            .filter(|f| f.rule == "unwrap-in-send-recv-path")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![1, 7], "test-module unwraps must be skipped");
    }

    #[test]
    fn expect_on_send_path_is_flagged_unless_allowlisted() {
        let fx = Fixture::new(&[
            (
                "crates/mp/src/fault.rs",
                concat!(
                    "fn arm() { plan.sites.first().expect(\"plan is non-empty\"); }\n",
                    "fn ok() { self.state.lock().expect(\"mutex poisoned\"); }\n",
                ),
            ),
            (
                "lint-allow.txt",
                "expect-in-send-recv-path fault.rs mutex poisoned\n",
            ),
        ]);
        let r = run_lints(&fx.root).expect("lint runs");
        let hits: Vec<usize> = r
            .findings
            .iter()
            .filter(|f| f.rule == "expect-in-send-recv-path")
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, vec![1], "only the unaudited expect is reported");
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn unbounded_recv_in_recovery_path_is_flagged_but_deadline_recv_is_not() {
        let fx = Fixture::new(&[(
            "crates/sim/src/elastic.rs",
            concat!(
                "fn barrier(comm: &mut Comm) {\n",
                "    let x: () = comm.recv(0, tags::RESIZE_GO);\n",
                "    let y = comm.recv::<()>(1, tags::RESIZE_READY);\n",
                "    let ok = comm.recv_deadline::<()>(0, tags::RESIZE_GO, t);\n",
                "    let raw = comm.recv_payload(0, tags::RESIZE_GO);\n",
                "}\n",
            ),
        )]);
        let r = run_lints(&fx.root).expect("lint runs");
        let lines: Vec<usize> = r
            .findings
            .iter()
            .filter(|f| f.rule == "unbounded-recv-in-recovery-path")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![2, 3, 5], "deadline-bounded receives stay legal");
    }

    #[test]
    fn per_step_allocation_in_hot_path_is_flagged() {
        let fx = Fixture::new(&[
            (
                "crates/sim/src/pe/exchange.rs",
                concat!(
                    "fn ghosts_send(&mut self) {\n",
                    "    let mut payload = Vec::new();\n",
                    "    let ids: Vec<u64> = parts.iter().map(|p| p.id).collect();\n",
                    "    let copy = parts.to_vec();\n",
                    "    let mut sized = Vec::with_capacity(pes.len());\n",
                    "    frame.parts.extend_from_slice(parts); // pooled: fine\n",
                    "}\n",
                ),
            ),
            // The class map's refresh runs whenever a transfer redraws a
            // PE's caches: a grid allocated per refresh is flagged (and the
            // file is one recovery flows through).
            (
                "crates/sim/src/pe/topology.rs",
                concat!(
                    "fn refresh(&mut self) {\n",
                    "    let mut grid = vec![CellClass::Unseen; nc * nc * nc];\n",
                    "    let x: u64 = comm.recv(0, tags::STEP_FRAME);\n",
                    "}\n",
                ),
            ),
            // Both engines rebuild their cell slabs every step.
            (
                "crates/md/src/cells.rs",
                concat!(
                    "fn rebuild_from(&mut self) {\n",
                    "    self.cells.clear();\n",
                    "    let mut order: Vec<usize> = Vec::new();\n",
                    "}\n",
                ),
            ),
        ]);
        let r = run_lints(&fx.root).expect("lint runs");
        let hits = |rule: &str| -> Vec<(String, usize)> {
            let of_rule = r.findings.iter().filter(|f| f.rule == rule);
            let name =
                |f: &LintFinding| f.file.file_name().map(|n| n.to_string_lossy().into_owned());
            of_rule
                .map(|f| (name(f).unwrap_or_default(), f.line))
                .collect()
        };
        let mut flagged = hits("per-step-allocation-in-hot-path");
        flagged.sort();
        assert_eq!(
            flagged,
            [
                ("cells.rs", 3),
                ("exchange.rs", 2),
                ("exchange.rs", 3),
                ("exchange.rs", 4),
                ("exchange.rs", 5),
                ("topology.rs", 2)
            ]
            .map(|(file, line)| (file.to_string(), line)),
            "pooled reuse must stay legal"
        );
        assert_eq!(
            hits("unbounded-recv-in-recovery-path"),
            [("topology.rs".to_string(), 3)]
        );
    }

    #[test]
    fn hardcoded_duration_in_comm_path_is_flagged_but_float_secs_are_not() {
        let fx = Fixture::new(&[(
            "crates/mp/src/comm.rs",
            concat!(
                "fn wait(&self) {\n",
                "    std::thread::sleep(Duration::from_millis(50));\n",
                "    let t = Duration::from_secs(60);\n",
                "    let v = Duration::from_secs_f64(self.cost.latency); // virtual time: fine\n",
                "}\n",
            ),
        )]);
        let r = run_lints(&fx.root).expect("lint runs");
        let lines: Vec<usize> = r
            .findings
            .iter()
            .filter(|f| f.rule == "hardcoded-duration-in-comm-path")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![2, 3], "float-seconds virtual time stays legal");
    }

    #[test]
    fn comments_do_not_trigger() {
        let fx = Fixture::new(&[(
            "crates/core/src/lib.rs",
            "// Instant::now would be wrong here\npub fn f() {}\n",
        )]);
        let r = run_lints(&fx.root).expect("lint runs");
        assert!(r.findings.is_empty());
    }

    #[test]
    fn allowlist_suppresses_matching_findings() {
        let fx = Fixture::new(&[
            (
                "crates/mp/src/channel.rs",
                "fn lock() { self.q.lock().unwrap(); }\nfn other() { v.pop().unwrap(); }\n",
            ),
            (
                "lint-allow.txt",
                "# poisoned-mutex unwrap is idiomatic\nunwrap-in-send-recv-path channel.rs lock().unwrap()\n",
            ),
        ]);
        let r = run_lints(&fx.root).expect("lint runs");
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 2);
    }

    #[test]
    fn dead_allowlist_entry_is_reported_and_live_one_is_not() {
        let fx = Fixture::new(&[
            (
                "crates/mp/src/channel.rs",
                "fn lock() { self.q.lock().unwrap(); }\n",
            ),
            (
                "lint-allow.txt",
                concat!(
                    "unwrap-in-send-recv-path channel.rs lock().unwrap()\n",
                    "unwrap-in-send-recv-path channel.rs pop().unwrap()\n",
                ),
            ),
        ]);
        let r = run_lints(&fx.root).expect("lint runs");
        assert_eq!(r.suppressed, 1);
        assert_eq!(
            r.dead_allows,
            vec!["unwrap-in-send-recv-path  channel.rs  pop().unwrap()".to_string()],
            "the entry whose code was fixed must surface as dead"
        );
    }

    #[test]
    fn shadowed_allowlist_entry_counts_as_dead() {
        // Two entries both match the same finding; only the first gets
        // credit, so the redundant second is reported dead.
        let fx = Fixture::new(&[
            (
                "crates/mp/src/channel.rs",
                "fn lock() { self.q.lock().unwrap(); }\n",
            ),
            (
                "lint-allow.txt",
                concat!(
                    "* channel.rs lock().unwrap()\n",
                    "unwrap-in-send-recv-path channel.rs lock().unwrap()\n",
                ),
            ),
        ]);
        let r = run_lints(&fx.root).expect("lint runs");
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.dead_allows.len(), 1);
        assert!(r.dead_allows[0].starts_with("unwrap-in-send-recv-path"));
    }

    #[test]
    fn cfg_test_attribute_on_single_item_skips_only_that_item() {
        let fx = Fixture::new(&[(
            "crates/domain/src/lib.rs",
            "#[cfg(test)]\nuse std::time::SystemTime;\npub fn f() { let _ = SystemTime::now(); }\n",
        )]);
        let r = run_lints(&fx.root).expect("lint runs");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].line, 3);
    }

    #[test]
    fn the_real_repo_is_clean() {
        // The crate sits at <root>/crates/check; the repo root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("repo root")
            .to_path_buf();
        let r = run_lints(&root).expect("lint runs");
        assert!(
            r.findings.is_empty(),
            "lint violations in the real tree:\n{}",
            r.findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            r.dead_allows.is_empty(),
            "stale lint-allow.txt entries:\n{}",
            r.dead_allows.join("\n")
        );
        assert!(r.files_scanned > 10);
    }
}
