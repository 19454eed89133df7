//! Linearizability of the quorum fast read path under fault injection.
//!
//! The fast path answers `rd`/`rdp`/`count` in one round, with no total
//! ordering. What keeps it linearizable with respect to the ordered
//! writes is the client-side acceptance rule: `f+1` replicas agreeing on
//! `(seq, digest)` at `seq ≥` the client's watermark — the highest
//! quorum-backed sequence number the client has ever had acknowledged.
//! These tests drive the rule through the deterministic simulation
//! harness, whose clients run the deployed read policy (an `f+1` probe
//! window that widens, then the ordered fallback): stale replicas,
//! Byzantine reply forgers, watermark inflation, and reads across a view
//! change.

use peats_netsim::NetConfig;
use peats_policy::{OpCall, Policy, PolicyParams};
use peats_replication::sim_harness::SimCluster;
use peats_replication::{FaultMode, OpResult};
use peats_tuplespace::{template, tuple};

fn cluster(f: usize, clients: &[u64]) -> SimCluster {
    SimCluster::new(
        Policy::allow_all(),
        PolicyParams::new(),
        f,
        clients,
        NetConfig::default(),
    )
}

#[test]
fn fast_read_serves_without_ordering() {
    let mut c = cluster(1, &[100]);
    assert_eq!(
        c.invoke(0, OpCall::out(tuple!["A", 1])),
        Some(OpResult::Done)
    );
    let execs_before = c.last_execs();
    let watermark = c.watermark(0);
    assert!(watermark > 0, "the accepted write must set the watermark");

    assert_eq!(
        c.invoke_read(0, OpCall::rdp(template!["A", ?x])),
        Some(OpResult::Tuple(Some(tuple!["A", 1])))
    );
    assert_eq!(
        c.invoke_read(0, OpCall::count(template!["A", ?x])),
        Some(OpResult::Count(1))
    );
    assert_eq!(c.fast_reads(0), (2, 0), "both decided in one round");
    // The reads went through no ordering round: no replica executed
    // anything new.
    assert_eq!(c.last_execs(), execs_before, "reads must not be ordered");
}

#[test]
fn stale_replica_reply_neither_wins_nor_blocks() {
    // Replica 1 — in the first probe window, {0, 1} — sleeps through the
    // writes, then wakes stale: its fast-read answer (at its old
    // last_exec) must be rejected by the watermark rule, and the read
    // widens to the fresh replicas, which form the f+1 quorum.
    let mut c = cluster(1, &[100]);
    c.set_fault(1, FaultMode::Crashed);
    for i in 0..3i64 {
        assert_eq!(
            c.invoke(0, OpCall::out(tuple!["W", i])),
            Some(OpResult::Done)
        );
    }
    c.set_fault(1, FaultMode::Correct);
    let watermark = c.watermark(0);
    assert!(watermark > 0);
    assert_eq!(c.last_execs()[1], 0, "replica 1 must actually be stale");

    assert_eq!(
        c.invoke_read(0, OpCall::rdp(template!["W", 2i64])),
        Some(OpResult::Tuple(Some(tuple!["W", 2i64]))),
        "read-your-writes: the write must be visible"
    );
    assert_eq!(c.fast_reads(0), (1, 0), "the fresh quorum decides");
}

#[test]
fn byzantine_forgery_is_masked_and_does_not_inflate_watermark() {
    // Replica 1 forges every reply (result → Denied, claimed seq →
    // u64::MAX). The forged result must not reach f+1; the inflated seq
    // must not drag the client watermark up — which would wedge every
    // future fast read into permanent fallback.
    let mut c = cluster(1, &[100]);
    c.set_fault(1, FaultMode::CorruptReplies);
    assert_eq!(
        c.invoke(0, OpCall::out(tuple!["B", 9])),
        Some(OpResult::Done)
    );
    let watermark = c.watermark(0);
    assert!(
        watermark < u64::MAX / 2,
        "forged seq inflated the watermark: {watermark}"
    );

    for round in 0..2 {
        assert_eq!(
            c.invoke_read(0, OpCall::rdp(template!["B", ?x])),
            Some(OpResult::Tuple(Some(tuple!["B", 9]))),
            "round {round}: correct quorum must mask the forger"
        );
        // An accepted read advances the watermark to its seq.
        assert!(
            c.watermark(0) < u64::MAX / 2,
            "round {round}: forged seq accepted"
        );
    }
    assert_eq!(c.fast_reads(0), (2, 0), "both rounds decided fast");
}

#[test]
fn all_stale_replies_force_ordered_fallback() {
    // An artificially inflated watermark makes every reply stale: the
    // fast path must never accept, and the read falls back to the ordered
    // path, which still answers correctly.
    let mut c = cluster(1, &[100]);
    assert_eq!(
        c.invoke(0, OpCall::out(tuple!["C", 5])),
        Some(OpResult::Done)
    );
    let inflated = c.watermark(0) + 1_000;
    c.raise_watermark(0, inflated);
    assert_eq!(
        c.invoke_read(0, OpCall::rdp(template!["C", ?x])),
        Some(OpResult::Tuple(Some(tuple!["C", 5])))
    );
    assert_eq!(c.fast_reads(0), (0, 1), "no reply at or above {inflated}");
}

#[test]
fn read_your_writes_holds_across_view_change() {
    // The primary of view 0 crashes; the write is ordered under the new
    // view. A fast read right after must see it: the watermark carried
    // from the ordered reply pins the read to post-write state, with only
    // three live replicas left to form the f+1 quorum (the crashed one
    // sits in the probe window, so the read widens).
    let mut c = cluster(1, &[100]);
    c.set_fault(0, FaultMode::Crashed);
    assert_eq!(
        c.invoke(0, OpCall::out(tuple!["V", 7])),
        Some(OpResult::Done)
    );
    assert!(c.views().iter().any(|v| *v > 0), "views: {:?}", c.views());

    assert_eq!(
        c.invoke_read(0, OpCall::rdp(template!["V", ?x])),
        Some(OpResult::Tuple(Some(tuple!["V", 7]))),
        "the post-view-change write must be visible to the fast read"
    );
    assert_eq!(c.fast_reads(0), (1, 0), "three live replicas decide");
}

#[test]
fn invoke_read_falls_back_transparently() {
    // With a crashed replica AND a reply forger there are only two honest
    // fresh voters — exactly f+1, so the fast path still decides; and when
    // the fast path cannot (inflated watermark), invoke_read's fallback
    // returns the same answer the ordered path would.
    let mut c = cluster(1, &[100]);
    c.set_fault(2, FaultMode::Crashed);
    c.set_fault(1, FaultMode::CorruptReplies);
    assert_eq!(
        c.invoke(0, OpCall::out(tuple!["D", 1])),
        Some(OpResult::Done)
    );
    assert_eq!(
        c.invoke_read(0, OpCall::rdp(template!["D", ?x])),
        Some(OpResult::Tuple(Some(tuple!["D", 1])))
    );
    assert_eq!(
        c.invoke_read(0, OpCall::count(template!["D", ?x])),
        Some(OpResult::Count(1))
    );
    assert_eq!(c.fast_reads(0), (2, 0));
    c.raise_watermark(0, c.watermark(0) + 1_000);
    assert_eq!(
        c.invoke_read(0, OpCall::rdp(template!["D", ?x])),
        Some(OpResult::Tuple(Some(tuple!["D", 1])))
    );
    assert_eq!(c.fast_reads(0), (2, 1));
}
