//! Seeded-mutation tests for the protocol model checker: take a *legal*
//! event trace — hand-built or captured from a real instrumented 2×2
//! run — inject one protocol bug, and assert the matching typed property
//! (and only it) catches the mutation. This is the checker's checker:
//! a property that cannot see its target bug is dead weight.

use pcdlb_check::model::{
    check_all_properties, check_thread_properties, model_check, standard_cases,
};
use pcdlb_mp::check::{install_event_log, new_event_log, EventLog, ProtocolEvent, ReplayPolicy};
use pcdlb_sim::Launch;

// ---------------------------------------------------------------------------
// Hand-built traces
// ---------------------------------------------------------------------------

/// A small legal per-rank trace exercising the stream properties: a
/// send stream, an admitted stream under two tags, and ordered
/// consumption.
fn legal_thread_trace() -> Vec<ProtocolEvent> {
    vec![
        ProtocolEvent::Birth { rank: 0 },
        ProtocolEvent::Send {
            src: 0,
            dst: 1,
            tag: 7,
            seq: 0,
        },
        ProtocolEvent::Send {
            src: 0,
            dst: 1,
            tag: 7,
            seq: 1,
        },
        ProtocolEvent::Admit {
            dst: 0,
            src: 1,
            tag: 7,
            seq: 0,
        },
        ProtocolEvent::Recv {
            dst: 0,
            src: 1,
            tag: 7,
            seq: 0,
        },
        ProtocolEvent::Admit {
            dst: 0,
            src: 1,
            tag: 7,
            seq: 1,
        },
        ProtocolEvent::Recv {
            dst: 0,
            src: 1,
            tag: 7,
            seq: 1,
        },
        ProtocolEvent::Admit {
            dst: 0,
            src: 1,
            tag: 9,
            seq: 2,
        },
    ]
}

/// Every mutation below starts from a trace the checker accepts.
#[test]
fn legal_trace_is_clean() {
    assert!(check_thread_properties(0, &legal_thread_trace()).is_empty());
}

/// Mutation: skip a seq increment — the second send jumps 0 → 2.
#[test]
fn skipped_seq_increment_is_caught_by_send_gapless() {
    let mut t = legal_thread_trace();
    let pos = t
        .iter()
        .position(|e| matches!(e, ProtocolEvent::Send { seq: 1, .. }))
        .expect("trace has a second send");
    t[pos] = ProtocolEvent::Send {
        src: 0,
        dst: 1,
        tag: 7,
        seq: 2,
    };
    let v = check_thread_properties(0, &t);
    assert_eq!(v.len(), 1, "exactly the targeted property fires: {v:?}");
    assert_eq!(v[0].property, "send-gapless");
    assert!(v[0].detail.contains("seq 1 expected"), "{}", v[0].detail);
}

/// Mutation: consume seq 1 before seq 0 on the same stream.
#[test]
fn reordered_consumption_is_caught_by_recv_non_overtaking() {
    let mut t = legal_thread_trace();
    let recvs: Vec<usize> = t
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, ProtocolEvent::Recv { .. }))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(recvs.len(), 2);
    t.swap(recvs[0], recvs[1]);
    let v = check_thread_properties(0, &t);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].property, "recv-non-overtaking");
    assert!(v[0].detail.contains("seq 0 after seq 1"), "{}", v[0].detail);
}

// ---------------------------------------------------------------------------
// Mutations of real captured logs
// ---------------------------------------------------------------------------

/// Run the real 2×2 simulator with full instrumentation (default
/// delivery order) and return the per-rank event logs.
fn captured_2x2_logs() -> (Vec<Vec<ProtocolEvent>>, u64, usize) {
    let case = &standard_cases(4, 50, 5)[0];
    let logs: Vec<EventLog> = (0..case.cfg.p).map(|_| new_event_log()).collect();
    let log_refs = logs.clone();
    let launch = Launch::new().on_start(move |_launch, comm| {
        install_event_log(log_refs[comm.rank()].clone(), comm.rank());
        comm.set_delivery_policy(Box::new(ReplayPolicy::new(Vec::new()).0));
    });
    launch.snapshot().run(&case.cfg);
    let rank_logs = logs
        .iter()
        .map(|l| l.lock().expect("log lock").clone())
        .collect();
    (rank_logs, case.cfg.n_particles as u64, case.cfg.p)
}

/// The unmutated capture satisfies every property — the baseline every
/// seeded deletion below perturbs.
#[test]
fn captured_logs_are_clean_and_mutations_are_caught() {
    let (logs, n_particles, p) = captured_2x2_logs();
    for (rank, log) in logs.iter().enumerate() {
        assert_eq!(
            log.first(),
            Some(&ProtocolEvent::Birth { rank }),
            "the launch's marker opens rank {rank}'s log"
        );
    }
    assert!(
        check_all_properties(n_particles, p, &logs).is_empty(),
        "real run must satisfy every property"
    );

    // Seeded deletion: drop the first admission of a stream that admits
    // again. The survivor's seq now has a gap.
    let mut mutated = logs.clone();
    let (rank, pos) = find_deletable_admit(&mutated).expect("2x2 run admits repeatedly");
    mutated[rank].remove(pos);
    let v = check_all_properties(n_particles, p, &mutated);
    assert!(
        v.iter().any(|v| v.property == "admit-gapless"),
        "deleting an admission must open a seq gap: {v:?}"
    );

    // Seeded corruption: one sentinel report loses a particle; the
    // round's conservation sum no longer matches.
    let mut mutated = logs;
    let (rank, pos, ev) = find_sentinel(&mutated).expect("sentinel interval fired");
    if let ProtocolEvent::Sentinel {
        rank: r,
        step,
        count,
    } = ev
    {
        mutated[rank][pos] = ProtocolEvent::Sentinel {
            rank: r,
            step,
            count: count - 1,
        };
    }
    let v = check_all_properties(n_particles, p, &mutated);
    assert!(
        v.iter().any(|v| v.property == "sentinel-conservation"),
        "losing a particle must break the sentinel sum: {v:?}"
    );
}

fn find_deletable_admit(logs: &[Vec<ProtocolEvent>]) -> Option<(usize, usize)> {
    for (rank, events) in logs.iter().enumerate() {
        for (i, ev) in events.iter().enumerate() {
            if let ProtocolEvent::Admit {
                dst, src, seq: 0, ..
            } = *ev
            {
                let succ = events.iter().skip(i + 1).any(|e| {
                    matches!(*e, ProtocolEvent::Admit { dst: d, src: s, seq: 1, .. }
                             if d == dst && s == src)
                });
                if succ {
                    return Some((rank, i));
                }
            }
        }
    }
    None
}

fn find_sentinel(logs: &[Vec<ProtocolEvent>]) -> Option<(usize, usize, ProtocolEvent)> {
    for (rank, events) in logs.iter().enumerate() {
        for (i, ev) in events.iter().enumerate() {
            if matches!(ev, ProtocolEvent::Sentinel { count, .. } if *count > 0) {
                return Some((rank, i, *ev));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// End-to-end: the checker accepts the real protocol
// ---------------------------------------------------------------------------

/// The fault-free 2×2 case `pcdlb-check model` runs drains its DPOR
/// frontier with zero violations, and its seeded orders — at least 24
/// distinct delivery orders over choice points with several candidates —
/// land on the one digest: the positive control for the mutations above.
#[test]
fn short_2x2_model_check_is_clean_and_exhausts() {
    let case = &standard_cases(6, 200, 5)[0];
    let out = model_check(case).expect("model check runs");
    assert!(out.exhausted, "2x2 frontier must drain: {out:?}");
    assert!(out.clean(), "violations: {out:?}");
    assert_eq!(
        out.digests.len(),
        1,
        "simulation digest depends on delivery order: {:?}",
        out.digests
    );
    assert!(
        out.distinct_orders >= 24,
        "only {} distinct delivery orders observed (need ≥ 24)",
        out.distinct_orders
    );
    assert!(
        out.max_arity >= 2,
        "no choice point ever had multiple candidates — nothing was explored"
    );
}
