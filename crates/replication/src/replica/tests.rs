use super::*;
use crate::messages::WaitKind;
use crate::service::PeatsService;
use peats_policy::{OpCall, Policy, PolicyParams};
use peats_tuplespace::tuple;

const CLIENT_NODE: u64 = 4;
const CLIENT_PID: u64 = 100;

fn mk_replica(id: ReplicaId, batch_cap: usize, max_in_flight: usize) -> Replica {
    let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
    let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
    Replica::new(
        ReplicaConfig {
            batch_cap,
            max_in_flight,
            ..ReplicaConfig::new(id, 4, 1)
        },
        service,
        registry,
    )
}

fn mk_primary(batch_cap: usize, max_in_flight: usize) -> Replica {
    mk_replica(0, batch_cap, max_in_flight)
}

fn req(i: u64) -> Request {
    Request::call(CLIENT_PID, i, OpCall::out(tuple!["T", i as i64]))
}

fn pre_prepares(out: &[(Dest, Message)]) -> Vec<(Seq, Vec<Request>)> {
    out.iter()
        .filter_map(|(_, m)| match m {
            Message::PrePrepare { seq, requests, .. } => Some((*seq, requests.clone())),
            _ => None,
        })
        .collect()
}

fn reply_ids(out: &[(Dest, Message)]) -> Vec<u64> {
    out.iter()
        .filter_map(|(_, m)| match m {
            Message::Reply { req_id, .. } => Some(*req_id),
            _ => None,
        })
        .collect()
}

/// Drives slot `seq` (digest of `batch`) through prepare+commit votes
/// from `voters`; returns the outputs of the last commit (where
/// execution happens).
fn commit_slot_with(
    p: &mut Replica,
    seq: Seq,
    batch: &[Request],
    voters: [u32; 2],
) -> Vec<(Dest, Message)> {
    commit_slot_via(p, seq, batch, voters, Replica::on_message)
}

/// [`commit_slot_with`], delivering through `deliver` (`on_message`, or
/// the no-sync `step`).
fn commit_slot_via(
    p: &mut Replica,
    seq: Seq,
    batch: &[Request],
    voters: [u32; 2],
    deliver: fn(&mut Replica, u64, Message) -> Vec<(Dest, Message)>,
) -> Vec<(Dest, Message)> {
    let digest = batch_digest(batch);
    for r in voters {
        let prepare = Message::Prepare {
            view: p.view(),
            seq,
            digest,
            replica: r,
        };
        deliver(p, u64::from(r), prepare);
    }
    let mut out = Vec::new();
    for r in voters {
        let commit = Message::Commit {
            view: p.view(),
            seq,
            digest,
            replica: r,
        };
        out = deliver(p, u64::from(r), commit);
    }
    out
}

fn commit_slot(p: &mut Replica, seq: Seq, batch: &[Request]) -> Vec<(Dest, Message)> {
    commit_slot_with(p, seq, batch, [1, 2])
}

#[test]
fn primary_batches_backlog_when_window_is_full() {
    let mut p = mk_primary(8, 1);
    let out1 = p.on_message(CLIENT_NODE, Message::Request(req(1)));
    assert_eq!(pre_prepares(&out1), vec![(1, vec![req(1)])]);
    // Window (1 slot) full: the next two requests accumulate.
    assert!(pre_prepares(&p.on_message(CLIENT_NODE, Message::Request(req(2)))).is_empty());
    assert!(pre_prepares(&p.on_message(CLIENT_NODE, Message::Request(req(3)))).is_empty());
    let out = commit_slot(&mut p, 1, &[req(1)]);
    // Execution freed the window: the backlog ships as one batch.
    assert_eq!(reply_ids(&out), vec![1]);
    assert_eq!(pre_prepares(&out), vec![(2, vec![req(2), req(3)])]);
    assert_eq!(p.last_exec(), 1);
}

#[test]
fn batch_cap_splits_the_backlog() {
    let mut p = mk_primary(2, 1);
    p.on_message(CLIENT_NODE, Message::Request(req(1)));
    for i in 2..=6 {
        p.on_message(CLIENT_NODE, Message::Request(req(i)));
    }
    let out = commit_slot(&mut p, 1, &[req(1)]);
    // Window of one slot, cap of two requests: exactly [2, 3] ships.
    assert_eq!(pre_prepares(&out), vec![(2, vec![req(2), req(3)])]);
}

#[test]
fn batch_cap_of_one_assigns_a_slot_per_request() {
    let mut p = {
        let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
        Replica::new(
            ReplicaConfig {
                batch_cap: 1,
                max_in_flight: usize::MAX,
                ..ReplicaConfig::new(0, 4, 1)
            },
            service,
            registry,
        )
    };
    for i in 1..=3 {
        let out = p.on_message(CLIENT_NODE, Message::Request(req(i)));
        assert_eq!(pre_prepares(&out), vec![(i, vec![req(i)])]);
    }
}

#[test]
#[should_panic(expected = "checkpoint_interval must be at least 1")]
fn zero_checkpoint_interval_is_refused() {
    let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
    Replica::new(
        ReplicaConfig {
            checkpoint_interval: 0,
            ..ReplicaConfig::new(0, 4, 1)
        },
        service,
        BTreeMap::new(),
    );
}

#[test]
fn whole_batch_executes_with_a_reply_per_request() {
    let mut p = mk_primary(8, 1);
    p.on_message(CLIENT_NODE, Message::Request(req(1)));
    for i in 2..=4 {
        p.on_message(CLIENT_NODE, Message::Request(req(i)));
    }
    commit_slot(&mut p, 1, &[req(1)]);
    let out = commit_slot(&mut p, 2, &[req(2), req(3), req(4)]);
    assert_eq!(reply_ids(&out), vec![2, 3, 4]);
    assert_eq!(p.last_exec(), 2);
}

#[test]
fn interleaved_req_ids_from_cloned_handles_all_execute() {
    // Cloned client handles share a pid but interleave req_ids: here
    // req 2 executes before req 1 even arrives. A last-req_id-per-client
    // dedup would drop req 1 as "stale"; the per-request reply map must
    // order it.
    let mut p = mk_primary(8, 4);
    p.on_message(CLIENT_NODE, Message::Request(req(2)));
    commit_slot(&mut p, 1, &[req(2)]);
    let out = p.on_message(CLIENT_NODE, Message::Request(req(1)));
    assert_eq!(pre_prepares(&out), vec![(2, vec![req(1)])]);
    let out = commit_slot(&mut p, 2, &[req(1)]);
    assert_eq!(reply_ids(&out), vec![1]);
}

fn register_req(i: u64) -> Request {
    Request {
        client: CLIENT_PID,
        req_id: i,
        op: RequestOp::Register {
            template: peats_tuplespace::template!["T", ?x],
            kind: WaitKind::Take,
            persistent: false,
        },
    }
}

fn wakes(out: &[(Dest, Message)]) -> Vec<(u64, Seq, OpResult)> {
    out.iter()
        .filter_map(|(dest, m)| match m {
            Message::Wake {
                req_id,
                seq,
                result,
                ..
            } => {
                assert_eq!(*dest, Dest::Client(CLIENT_NODE), "wakes go to the waiter");
                Some((*req_id, *seq, result.clone()))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn committed_out_pushes_a_wake_and_prunes_the_registration() {
    let mut p = mk_primary(8, 1);
    p.on_message(CLIENT_NODE, Message::Request(register_req(1)));
    let out = commit_slot(&mut p, 1, &[register_req(1)]);
    assert_eq!(reply_ids(&out), vec![1], "the park itself is acknowledged");
    assert_eq!(p.footprint().registrations, 1);

    p.on_message(CLIENT_NODE, Message::Request(req(2)));
    let out = commit_slot(&mut p, 2, &[req(2)]);
    // The out's commit pushes the wake — same slot, the matched tuple —
    // and the one-shot registration is gone.
    assert_eq!(
        wakes(&out),
        vec![(1, 2, OpResult::Tuple(Some(tuple!["T", 2i64])))]
    );
    assert_eq!(p.footprint().registrations, 0);
    // The take consumed the tuple before it ever entered the space.
    assert_eq!(
        p.service.execute(
            CLIENT_PID,
            &OpCall::rdp(peats_tuplespace::template!["T", ?x])
        ),
        OpResult::Tuple(None)
    );
}

#[test]
fn register_retransmission_replays_the_woken_result() {
    // The wake overwrites the Register's cached reply at match time, so
    // a client that lost the Wake message recovers it with a standard
    // retransmission — liveness never depends on the push arriving.
    let mut p = mk_primary(8, 1);
    p.on_message(CLIENT_NODE, Message::Request(register_req(1)));
    commit_slot(&mut p, 1, &[register_req(1)]);
    p.on_message(CLIENT_NODE, Message::Request(req(2)));
    commit_slot(&mut p, 2, &[req(2)]);
    let out = p.on_message(CLIENT_NODE, Message::Request(register_req(1)));
    let replayed: Vec<_> = out
        .iter()
        .filter_map(|(_, m)| match m {
            Message::Reply { seq, result, .. } => Some((*seq, result.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        replayed,
        vec![(2, OpResult::Tuple(Some(tuple!["T", 2i64])))],
        "the cache must hold the match, not the stale Registered ack"
    );
    assert_eq!(p.last_exec(), 2, "no re-execution");
}

#[test]
fn committed_cancel_prunes_the_registration() {
    let mut p = mk_primary(8, 1);
    p.on_message(CLIENT_NODE, Message::Request(register_req(1)));
    commit_slot(&mut p, 1, &[register_req(1)]);
    assert_eq!(p.footprint().registrations, 1);
    let cancel = Request {
        client: CLIENT_PID,
        req_id: 2,
        op: RequestOp::Cancel { target: 1 },
    };
    p.on_message(CLIENT_NODE, Message::Request(cancel.clone()));
    let out = commit_slot(&mut p, 2, &[cancel]);
    assert_eq!(reply_ids(&out), vec![2]);
    assert_eq!(p.footprint().registrations, 0, "cancelled waiter pruned");
    // A later matching out wakes nobody and lands in the space.
    p.on_message(CLIENT_NODE, Message::Request(req(3)));
    let out = commit_slot(&mut p, 3, &[req(3)]);
    assert!(wakes(&out).is_empty(), "no ghost waiter");
    assert_eq!(
        p.service.execute(
            CLIENT_PID,
            &OpCall::rdp(peats_tuplespace::template!["T", ?x])
        ),
        OpResult::Tuple(Some(tuple!["T", 3i64]))
    );
}

#[test]
fn executed_retransmission_re_replies_without_re_execution() {
    let mut p = mk_primary(8, 1);
    p.on_message(CLIENT_NODE, Message::Request(req(1)));
    commit_slot(&mut p, 1, &[req(1)]);
    let out = p.on_message(CLIENT_NODE, Message::Request(req(1)));
    assert_eq!(reply_ids(&out), vec![1]);
    assert!(pre_prepares(&out).is_empty());
    assert_eq!(p.last_exec(), 1, "no re-execution");
}

#[test]
fn duplicate_request_across_batches_executes_once() {
    // A Byzantine primary double-orders req 1 (slots 1 and 2). At a
    // backup, the second execution must be a no-op or replica states
    // diverge from replicas that deduped.
    let mut b = mk_replica(1, 8, 4);
    for (seq, batch) in [(1u64, vec![req(1)]), (2, vec![req(2), req(1)])] {
        b.on_message(
            0,
            Message::PrePrepare {
                view: 0,
                seq,
                requests: batch.clone(),
            },
        );
        let digest = batch_digest(&batch);
        b.on_message(
            2,
            Message::Prepare {
                view: 0,
                seq,
                digest,
                replica: 2,
            },
        );
        let mut out = Vec::new();
        for r in [0u32, 2] {
            out = b.on_message(
                u64::from(r),
                Message::Commit {
                    view: 0,
                    seq,
                    digest,
                    replica: r,
                },
            );
        }
        if seq == 1 {
            assert_eq!(reply_ids(&out), vec![1]);
        } else {
            assert_eq!(reply_ids(&out), vec![2], "req 1 must not re-execute");
        }
    }
    assert_eq!(b.last_exec(), 2);
}

#[test]
fn view_change_does_not_double_order_pending_requests() {
    // A backup holding a pending backlog becomes primary: the NewView
    // assignments place that backlog into slots. Once the first slot
    // executes and `try_assign` runs again, the requests placed in the
    // *later* slot must not be drained out of `pending` into a third
    // slot — that would certify them at two sequence numbers.
    let mut p = mk_replica(1, 2, 2);
    // Backup of view 0: the requests pend.
    for i in 1..=4 {
        p.on_message(CLIENT_NODE, Message::Request(req(i)));
    }
    // View change to view 1 (this replica is its primary): own vote
    // via the progress timeout, then two peer votes.
    p.on_progress_timeout();
    let mut nv = Vec::new();
    for r in [2u32, 3] {
        nv = p.on_message(
            u64::from(r),
            Message::ViewChange {
                new_view: 1,
                last_exec: 0,
                stable_seq: 0,
                stable_digest: [0u8; 32],
                prepared: vec![],
                replica: r,
            },
        );
    }
    // The backlog was placed as two capped batches.
    assert_eq!(
        pre_prepares(&nv),
        Vec::<(Seq, Vec<Request>)>::new(),
        "NewView carries assignments, not PrePrepares"
    );
    assert_eq!(p.view(), 1);
    // Commit slot 1 with votes from replicas 2 and 3.
    let out = commit_slot_with(&mut p, 1, &[req(1), req(2)], [2, 3]);
    assert_eq!(reply_ids(&out), vec![1, 2], "slot 1 executed");
    assert_eq!(
        pre_prepares(&out),
        Vec::<(Seq, Vec<Request>)>::new(),
        "requests already assigned to slot 2 must not be re-ordered"
    );
}

#[test]
fn byzantine_view_change_report_with_huge_seq_is_bounded() {
    // One faulty replica's ViewChange reports an assignment at seq
    // u64::MAX. The new primary must drop it: sequence allocation must
    // not overflow (debug panic) or jump to the top of the space, and
    // fresh requests still get ordinary low sequence numbers.
    let mut p = mk_replica(1, 8, 2);
    p.on_message(CLIENT_NODE, Message::Request(req(1)));
    p.on_progress_timeout();
    p.on_message(
        2,
        Message::ViewChange {
            new_view: 1,
            last_exec: 0,
            stable_seq: 0,
            stable_digest: [0u8; 32],
            prepared: vec![(u64::MAX, vec![req(9)])],
            replica: 2,
        },
    );
    let nv = p.on_message(
        3,
        Message::ViewChange {
            new_view: 1,
            last_exec: 0,
            stable_seq: 0,
            stable_digest: [0u8; 32],
            prepared: vec![],
            replica: 3,
        },
    );
    let assignments = nv
        .iter()
        .find_map(|(_, m)| match m {
            Message::NewView { assignments, .. } => Some(assignments.clone()),
            _ => None,
        })
        .expect("new primary must install the view");
    assert!(
        assignments.iter().all(|(s, _)| *s <= SEQ_WINDOW),
        "no assignment may keep the poisoned sequence number: {assignments:?}"
    );
    assert!(
        assignments
            .iter()
            .any(|(s, b)| *s == 1 && b.contains(&req(1))),
        "the pending request must land at an ordinary low slot"
    );
}

/// Feeds back matching checkpoint votes from replicas 1 and 2 for every
/// `Checkpoint` the replica just broadcast, completing the `2f+1`
/// stability quorum (f = 1).
fn echo_checkpoints(p: &mut Replica, out: &[(Dest, Message)]) {
    echo_checkpoints_from(p, out, [1, 2]);
}

fn mk_checkpointing_primary(interval: Seq) -> Replica {
    let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
    let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
    Replica::new(
        ReplicaConfig {
            batch_cap: 1,
            max_in_flight: usize::MAX,
            checkpoint_interval: interval,
            ..ReplicaConfig::new(0, 4, 1)
        },
        service,
        registry,
    )
}

#[test]
fn stable_checkpoints_garbage_collect_slots_and_hints() {
    let interval = 4;
    let mut p = mk_checkpointing_primary(interval);
    for i in 1..=12u64 {
        p.on_message(CLIENT_NODE, Message::Request(req(i)));
        let out = commit_slot(&mut p, i, &[req(i)]);
        echo_checkpoints(&mut p, &out);
    }
    assert_eq!(p.last_exec(), 12);
    assert_eq!(p.stable_seq(), 12, "the boundary at 12 must stabilize");
    let fp = p.footprint();
    assert_eq!(fp.slots, 0, "all slots at or below h are pruned");
    assert_eq!(fp.ordered, 0, "ordering hints at or below h are pruned");
    assert!(
        fp.checkpoint_votes <= 4,
        "at most one live checkpoint vote per replica, got {}",
        fp.checkpoint_votes
    );
    // Votes for pruned slots must not re-materialize them.
    p.on_message(
        1,
        Message::Prepare {
            view: 0,
            seq: 3,
            digest: batch_digest(&[req(3)]),
            replica: 1,
        },
    );
    assert_eq!(p.footprint().slots, 0, "a vote below h must stay dropped");
}

#[test]
fn view_change_report_is_bounded_by_the_stable_checkpoint() {
    let interval = 4;
    let mut p = mk_checkpointing_primary(interval);
    for i in 1..=8u64 {
        p.on_message(CLIENT_NODE, Message::Request(req(i)));
        let out = commit_slot(&mut p, i, &[req(i)]);
        echo_checkpoints(&mut p, &out);
    }
    // One in-flight (unexecuted) slot above the checkpoint plus a
    // pending request so the progress check fires.
    p.on_message(CLIENT_NODE, Message::Request(req(9)));
    let msgs = p.on_progress_timeout();
    let (stable_seq, prepared) = msgs
        .iter()
        .find_map(|(_, m)| match m {
            Message::ViewChange {
                stable_seq,
                prepared,
                ..
            } => Some((*stable_seq, prepared.clone())),
            _ => None,
        })
        .expect("stalled replica must vote a view change");
    assert_eq!(stable_seq, 8);
    assert!(
        prepared.iter().all(|(s, _)| *s > 8),
        "the report must not carry garbage-collected history: {prepared:?}"
    );
    assert!(
        prepared.len() <= 1,
        "report bounded by the in-flight window, got {}",
        prepared.len()
    );
}

#[test]
fn repeated_timeouts_escalate_past_consecutively_faulty_primaries() {
    // Backup 3 of a 4-replica cluster with a pending request: the first
    // timeout votes view 1; if that view's primary never answers, the
    // next timeout must move on to view 2 instead of re-voting view 1
    // forever.
    let mut b = mk_replica(3, 8, 2);
    b.on_message(CLIENT_NODE, Message::Request(req(1)));
    let first = b.on_progress_timeout();
    let view_of = |msgs: &[(Dest, Message)]| {
        msgs.iter()
            .find_map(|(_, m)| match m {
                Message::ViewChange { new_view, .. } => Some(*new_view),
                _ => None,
            })
            .expect("a stalled backup votes")
    };
    assert_eq!(view_of(&first), 1);
    assert_eq!(view_of(&b.on_progress_timeout()), 2);
    assert_eq!(view_of(&b.on_progress_timeout()), 3);
}

#[test]
fn stalled_replica_joins_a_peer_voted_view_instead_of_leapfrogging() {
    // f+1 = 2 peers already voted view 5; our next escalation target
    // would be 1, but joining 5 is what lets the quorum form.
    let mut b = mk_replica(3, 8, 2);
    b.on_message(CLIENT_NODE, Message::Request(req(1)));
    for r in [1u32, 2] {
        b.on_message(
            u64::from(r),
            Message::ViewChange {
                new_view: 5,
                last_exec: 0,
                stable_seq: 0,
                stable_digest: [0u8; 32],
                prepared: vec![],
                replica: r,
            },
        );
    }
    let msgs = b.on_progress_timeout();
    let voted = msgs
        .iter()
        .find_map(|(_, m)| match m {
            Message::ViewChange { new_view, .. } => Some(*new_view),
            _ => None,
        })
        .unwrap();
    assert_eq!(voted, 5, "must join the f+1-backed view change");
}

#[test]
fn any_replica_with_a_stable_checkpoint_answers_a_stale_view_change() {
    // Replica 1 is NOT the view-0 primary; it must still offer a
    // snapshot to a replica stranded below its stable checkpoint.
    let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
    let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
    let mut b = Replica::new(
        ReplicaConfig {
            batch_cap: 1,
            max_in_flight: usize::MAX,
            checkpoint_interval: 4,
            ..ReplicaConfig::new(1, 4, 1)
        },
        service,
        registry,
    );
    // Drive 4 slots to execution as a backup (pre-prepares from the
    // primary, votes from 0 and 2), then stabilize.
    for i in 1..=4u64 {
        b.on_message(
            0,
            Message::PrePrepare {
                view: 0,
                seq: i,
                requests: vec![req(i)],
            },
        );
        let out = commit_slot_with(&mut b, i, &[req(i)], [0, 2]);
        echo_checkpoints_from(&mut b, &out, [0, 2]);
    }
    assert_eq!(b.stable_seq(), 4);
    let out = b.on_message(
        3,
        Message::ViewChange {
            new_view: 0,
            last_exec: 0,
            stable_seq: 0,
            stable_digest: [0u8; 32],
            prepared: vec![],
            replica: 3,
        },
    );
    assert!(
        out.iter().any(|(dest, m)| *dest == Dest::Replica(3)
            && matches!(m, Message::StateSnapshot { seq: 4, .. })),
        "a non-primary holding a stable checkpoint must offer it: {out:?}"
    );
    // ... but only once per stable checkpoint: the stranded replica's
    // timeout loop must not pull a fresh O(state) payload per tick.
    let again = b.on_message(
        3,
        Message::ViewChange {
            new_view: 0,
            last_exec: 0,
            stable_seq: 0,
            stable_digest: [0u8; 32],
            prepared: vec![],
            replica: 3,
        },
    );
    assert!(
        !again
            .iter()
            .any(|(_, m)| matches!(m, Message::StateSnapshot { .. })),
        "unsolicited offers are deduped per stable checkpoint"
    );
}

/// `echo_checkpoints` with an explicit voter pair.
fn echo_checkpoints_from(p: &mut Replica, out: &[(Dest, Message)], voters: [u32; 2]) {
    let ckpts: Vec<(Seq, Digest)> = out
        .iter()
        .filter_map(|(_, m)| match m {
            Message::Checkpoint { seq, digest, .. } => Some((*seq, *digest)),
            _ => None,
        })
        .collect();
    for (seq, digest) in ckpts {
        for r in voters {
            p.on_message(
                u64::from(r),
                Message::Checkpoint {
                    seq,
                    digest,
                    replica: r,
                },
            );
        }
    }
}

#[test]
fn snapshot_installs_only_with_attestation_and_matching_digest() {
    // Donor: a primary that executed through a stable checkpoint at 4.
    let mut donor = mk_checkpointing_primary(4);
    for i in 1..=4u64 {
        donor.on_message(CLIENT_NODE, Message::Request(req(i)));
        let out = commit_slot(&mut donor, i, &[req(i)]);
        echo_checkpoints(&mut donor, &out);
    }
    assert_eq!(donor.stable_seq(), 4);
    let answer = donor.on_message(
        3,
        Message::FetchState {
            last_exec: 0,
            replica: 3,
        },
    );
    let (seq, digest, snapshot) = answer
        .iter()
        .find_map(|(_, m)| match m {
            Message::StateSnapshot {
                seq,
                digest,
                snapshot,
                ..
            } => Some((*seq, *digest, snapshot.clone())),
            _ => None,
        })
        .expect("a fetch against a stable checkpoint is answered");

    // A fresh replica 3 (restarted from nothing).
    let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
    let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
    let mut fresh = Replica::new(
        ReplicaConfig {
            checkpoint_interval: 4,
            ..ReplicaConfig::new(3, 4, 1)
        },
        service,
        registry,
    );
    // A lying payload under the attested digest must be rejected by the
    // recompute even once attested.
    let mut poisoned = snapshot.clone();
    poisoned.replies.push((999, vec![(1, 1, OpResult::Done)]));
    fresh.on_message(
        0,
        Message::StateSnapshot {
            seq,
            digest,
            snapshot: poisoned,
            replica: 0,
        },
    );
    fresh.on_message(
        1,
        Message::Checkpoint {
            seq,
            digest,
            replica: 1,
        },
    );
    assert_eq!(fresh.last_exec(), 0, "poisoned payload must not install");

    // The genuine payload with one attester (the sender alone) must
    // wait for f+1 = 2 distinct attestations...
    let mut fresh2 = {
        let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
        Replica::new(
            ReplicaConfig {
                checkpoint_interval: 4,
                ..ReplicaConfig::new(3, 4, 1)
            },
            service,
            registry,
        )
    };
    fresh2.on_message(
        0,
        Message::StateSnapshot {
            seq,
            digest,
            snapshot: snapshot.clone(),
            replica: 0,
        },
    );
    assert_eq!(fresh2.last_exec(), 0, "one attester is not enough");
    // ...and install as soon as the second lands.
    let out = fresh2.on_message(
        1,
        Message::Checkpoint {
            seq,
            digest,
            replica: 1,
        },
    );
    assert_eq!(fresh2.last_exec(), 4, "attested snapshot installs");
    assert_eq!(fresh2.stable_seq(), 4);
    assert_eq!(
        fresh2.state_digest(),
        donor.state_digest(),
        "restored service state must match the donor's"
    );
    assert!(
        out.iter()
            .any(|(_, m)| matches!(m, Message::Checkpoint { seq: 4, .. })),
        "the installer re-attests so the next straggler can count it"
    );
    // A retransmission of an executed request is re-replied from the
    // restored reply retention, not re-executed.
    let re = fresh2.on_message(CLIENT_NODE, Message::Request(req(2)));
    assert_eq!(reply_ids(&re), vec![2]);
    assert_eq!(fresh2.last_exec(), 4, "no re-execution after restore");
}

#[test]
fn byzantine_view_change_claims_cannot_poison_sequence_allocation() {
    // One faulty voter claims last_exec and stable_seq of u64::MAX.
    // The claims are only f+1-trusted, so formation proceeds, no
    // arithmetic overflows, and fresh requests still land at ordinary
    // low sequence numbers.
    let mut p = mk_replica(1, 8, 2);
    p.on_message(CLIENT_NODE, Message::Request(req(1)));
    p.on_progress_timeout();
    p.on_message(
        2,
        Message::ViewChange {
            new_view: 1,
            last_exec: u64::MAX,
            stable_seq: u64::MAX,
            stable_digest: [9u8; 32],
            prepared: vec![],
            replica: 2,
        },
    );
    let nv = p.on_message(
        3,
        Message::ViewChange {
            new_view: 1,
            last_exec: 0,
            stable_seq: 0,
            stable_digest: [0u8; 32],
            prepared: vec![],
            replica: 3,
        },
    );
    let assignments = nv
        .iter()
        .find_map(|(_, m)| match m {
            Message::NewView { assignments, .. } => Some(assignments.clone()),
            _ => None,
        })
        .expect("a lone liar must not block view formation");
    assert!(
        assignments
            .iter()
            .any(|(s, b)| *s == 1 && b.contains(&req(1))),
        "fresh requests must keep ordinary low slots: {assignments:?}"
    );
    // The lone stable claim must not have pinned a fetch either: no
    // FetchState goes out on the next timeout.
    p.on_message(CLIENT_NODE, Message::Request(req(2)));
    assert!(
        !p.on_progress_timeout()
            .iter()
            .any(|(_, m)| matches!(m, Message::FetchState { .. })),
        "a single unbacked stable claim must not trigger state fetching"
    );
}

#[test]
fn stale_view_change_with_absurd_last_exec_does_not_panic() {
    let mut p = mk_primary(8, 2);
    p.on_message(CLIENT_NODE, Message::Request(req(1)));
    commit_slot(&mut p, 1, &[req(1)]);
    // Stale (new_view 0 == current view) with last_exec u64::MAX: the
    // suffix range must saturate, not overflow.
    let out = p.on_message(
        3,
        Message::ViewChange {
            new_view: 0,
            last_exec: u64::MAX,
            stable_seq: 0,
            stable_digest: [0u8; 32],
            prepared: vec![],
            replica: 3,
        },
    );
    assert!(
        !out.iter().any(|(_, m)| matches!(m, Message::NewView { .. })
            && matches!(m, Message::NewView { assignments, .. } if !assignments.is_empty())),
        "nothing to ship to a sender claiming to be ahead"
    );
}

#[test]
fn fetch_state_flood_is_rate_limited_per_stable_checkpoint() {
    let mut donor = mk_checkpointing_primary(4);
    for i in 1..=4u64 {
        donor.on_message(CLIENT_NODE, Message::Request(req(i)));
        let out = commit_slot(&mut donor, i, &[req(i)]);
        echo_checkpoints(&mut donor, &out);
    }
    assert_eq!(donor.stable_seq(), 4);
    let mut snapshots = 0;
    for _ in 0..10 {
        let out = donor.on_message(
            3,
            Message::FetchState {
                last_exec: 0,
                replica: 3,
            },
        );
        snapshots += out
            .iter()
            .filter(|(_, m)| matches!(m, Message::StateSnapshot { .. }))
            .count();
    }
    assert!(
        snapshots <= 3,
        "a fetch loop must not draw unbounded O(state) payloads, got {snapshots}"
    );
}

#[test]
fn diverged_replica_rolls_back_to_the_canonical_checkpoint() {
    // Replica 3 executed a different request at slot 4 than the rest of
    // the cluster: same last_exec, different digest. Once 2f+1 matching
    // checkpoint votes prove its state wrong, it must fetch and install
    // the canonical snapshot even though the checkpoint seq is not past
    // its own last_exec.
    let mut donor = mk_checkpointing_primary(4);
    for i in 1..=4u64 {
        donor.on_message(CLIENT_NODE, Message::Request(req(i)));
        let out = commit_slot(&mut donor, i, &[req(i)]);
        echo_checkpoints(&mut donor, &out);
    }
    let canonical = donor
        .on_message(
            3,
            Message::FetchState {
                last_exec: 0,
                replica: 3,
            },
        )
        .into_iter()
        .find_map(|(_, m)| match m {
            Message::StateSnapshot {
                seq,
                digest,
                snapshot,
                ..
            } => Some((seq, digest, snapshot)),
            _ => None,
        })
        .expect("donor answers");

    // The divergent replica: backup that executed req(99) at slot 4.
    let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
    let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
    let mut div = Replica::new(
        ReplicaConfig {
            batch_cap: 1,
            max_in_flight: usize::MAX,
            checkpoint_interval: 4,
            ..ReplicaConfig::new(3, 4, 1)
        },
        service,
        registry,
    );
    for i in 1..=4u64 {
        let batch = if i == 4 { vec![req(99)] } else { vec![req(i)] };
        div.on_message(
            0,
            Message::PrePrepare {
                view: 0,
                seq: i,
                requests: batch.clone(),
            },
        );
        commit_slot_with(&mut div, i, &batch, [0, 1]);
    }
    assert_eq!(div.last_exec(), 4);
    assert_ne!(div.state_digest(), donor.state_digest(), "setup: diverged");
    // 2f+1 canonical votes arrive; replica 3's own vote disagrees.
    let (seq, digest, snapshot) = canonical;
    let mut out = Vec::new();
    for r in [0u32, 1, 2] {
        out = div.on_message(
            u64::from(r),
            Message::Checkpoint {
                seq,
                digest,
                replica: r,
            },
        );
    }
    assert!(
        out.iter()
            .any(|(_, m)| matches!(m, Message::FetchState { .. })),
        "a proven-diverged replica must request the canonical state"
    );
    // The canonical snapshot arrives (sender 0 attests; votes from 1, 2
    // already counted), and installs DESPITE seq == its last_exec.
    div.on_message(
        0,
        Message::StateSnapshot {
            seq,
            digest,
            snapshot,
            replica: 0,
        },
    );
    assert_eq!(div.last_exec(), 4);
    assert_eq!(div.stable_seq(), 4);
    assert_eq!(
        div.state_digest(),
        donor.state_digest(),
        "rolled back onto the canonical state"
    );
}

#[test]
fn junk_checkpoint_votes_stay_bounded() {
    let mut p = mk_checkpointing_primary(4);
    // A Byzantine replica votes at 1000 distinct plausible boundaries;
    // supersession keeps only its newest.
    for i in 1..=1000u64 {
        p.on_message(
            2,
            Message::Checkpoint {
                seq: i * 4,
                digest: [7u8; 32],
                replica: 2,
            },
        );
    }
    let fp = p.footprint();
    assert!(
        fp.checkpoint_votes <= 1,
        "one live vote per replica, got {}",
        fp.checkpoint_votes
    );
    // Off-interval and ancient seqs are rejected outright.
    p.on_message(
        2,
        Message::Checkpoint {
            seq: 4003,
            digest: [7u8; 32],
            replica: 2,
        },
    );
    assert!(p.footprint().checkpoint_votes <= 1);
}

#[test]
fn junk_prepares_never_certify_or_trigger_view_change() {
    // The Flooder fault's junk vote: a prepare for a batchless slot at
    // seq u64::MAX. It must not certify, not trip the progress check,
    // and not poison fresh sequence-number allocation.
    let mut p = mk_primary(8, 2);
    for r in [1u32, 2, 3] {
        let out = p.on_message(
            u64::from(r),
            Message::Prepare {
                view: 0,
                seq: u64::MAX,
                digest: [0u8; 32],
                replica: r,
            },
        );
        assert!(out
            .iter()
            .all(|(_, m)| !matches!(m, Message::Commit { .. })));
    }
    assert!(p.on_progress_timeout().is_empty());
    // A real request still gets an ordinary low sequence number.
    let out = p.on_message(CLIENT_NODE, Message::Request(req(1)));
    assert_eq!(pre_prepares(&out), vec![(1, vec![req(1)])]);
}

fn read_request(req_id: u64, op: OpCall<'static>) -> Message {
    Message::ReadRequest {
        client: CLIENT_PID,
        req_id,
        op,
        watermark: 0,
    }
}

#[test]
fn read_request_is_answered_from_executed_state() {
    use peats_tuplespace::template;
    let mut p = mk_primary(8, 1);
    p.on_message(CLIENT_NODE, Message::Request(req(1)));
    commit_slot(&mut p, 1, &[req(1)]);
    let out = p.on_message(
        CLIENT_NODE,
        read_request(50, OpCall::rdp(template!["T", 1i64])),
    );
    let [(
        dest,
        Message::ReadReply {
            req_id,
            seq,
            digest,
            result,
            replica,
        },
    )] = &out[..]
    else {
        panic!("expected exactly one ReadReply, got {out:?}");
    };
    assert_eq!(*dest, Dest::Client(CLIENT_NODE));
    assert_eq!((*req_id, *seq, *replica), (50, 1, 0));
    assert_eq!(*result, OpResult::Tuple(Some(tuple!["T", 1i64])));
    assert_eq!(*digest, result.digest());
}

#[test]
fn fast_reads_leave_no_serving_state() {
    // Satellite 3: fast-read serving is stateless. A flood of reads
    // must leave the replica's footprint, reply cache, and service
    // state digest exactly where they were — replica memory cannot be
    // grown by (or diverge under) read traffic.
    use peats_tuplespace::template;
    let mut p = mk_primary(8, 1);
    p.on_message(CLIENT_NODE, Message::Request(req(1)));
    commit_slot(&mut p, 1, &[req(1)]);
    let footprint = p.footprint();
    let digest = p.state_digest();
    for i in 0..1_000u64 {
        let op = match i % 3 {
            0 => OpCall::rdp(template!["T", ?x]),
            1 => OpCall::rd(template!["T", ?x]),
            _ => OpCall::count(template!["T", ?x]),
        };
        let out = p.on_message(CLIENT_NODE, read_request(1_000 + i, op));
        assert_eq!(out.len(), 1, "each read gets exactly one reply");
    }
    assert_eq!(p.footprint(), footprint, "reads must not grow any store");
    assert_eq!(p.state_digest(), digest, "reads must not mutate state");
    assert_eq!(p.last_exec(), 1, "reads must not advance execution");
}

#[test]
fn read_requests_refuse_mutations_and_strangers() {
    use peats_tuplespace::template;
    let mut p = mk_primary(8, 1);
    // A mutating op smuggled into a ReadRequest is dropped, not
    // executed: the space must stay empty.
    let out = p.on_message(
        CLIENT_NODE,
        read_request(1, OpCall::out(tuple!["SMUGGLED"])),
    );
    assert!(out.is_empty(), "mutating fast read must be dropped");
    let out = p.on_message(
        CLIENT_NODE,
        read_request(2, OpCall::rdp(template!["SMUGGLED"])),
    );
    assert!(
        matches!(
            &out[..],
            [(
                _,
                Message::ReadReply {
                    result: OpResult::Tuple(None),
                    ..
                }
            )]
        ),
        "{out:?}"
    );
    // An unregistered node (impersonation) is dropped entirely.
    let out = p.on_message(99, read_request(3, OpCall::rdp(template!["T", ?x])));
    assert!(out.is_empty(), "unregistered reader must be dropped");
}

/// A primary (one request per slot, two slots in flight) logging to a
/// fresh temp dir.
fn mk_durable_primary(tag: &str) -> (Replica, std::path::PathBuf) {
    let dir = crate::wal::fresh_dir(tag);
    let (store, recovery) = DurableStore::open(&dir, Default::default()).unwrap();
    let mut p = mk_primary(1, 2);
    p.restore_durable(store, recovery);
    (p, dir)
}

#[test]
fn a_pass_of_two_slots_appends_twice_and_syncs_once() {
    let (mut p, dir) = mk_durable_primary("pass");
    p.step(CLIENT_NODE, Message::Request(req(1)));
    p.step(CLIENT_NODE, Message::Request(req(2)));
    let out1 = commit_slot_via(&mut p, 1, &[req(1)], [1, 2], Replica::step);
    // The committing step hands back the reply with nothing synced yet:
    // holding it until the sync is the caller's half of the contract.
    assert_eq!(reply_ids(&out1), vec![1]);
    assert_eq!((p.footprint().wal_appends, p.footprint().wal_syncs), (1, 0));
    let out2 = commit_slot_via(&mut p, 2, &[req(2)], [1, 2], Replica::step);
    assert_eq!(reply_ids(&out2), vec![2]);
    assert_eq!((p.footprint().wal_appends, p.footprint().wal_syncs), (2, 0));
    p.sync();
    assert_eq!((p.footprint().wal_appends, p.footprint().wal_syncs), (2, 1));
    p.sync();
    assert_eq!(
        p.footprint().wal_syncs,
        1,
        "a clean log has nothing to sync"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn on_message_syncs_what_it_executed_before_returning() {
    let (mut p, dir) = mk_durable_primary("one");
    p.on_message(CLIENT_NODE, Message::Request(req(1)));
    assert_eq!(p.footprint().wal_syncs, 0, "nothing executed yet");
    let out = commit_slot(&mut p, 1, &[req(1)]);
    assert_eq!(reply_ids(&out), vec![1]);
    assert_eq!((p.footprint().wal_appends, p.footprint().wal_syncs), (1, 1));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs a durable primary through slots 1..=8, persisting a snapshot at
/// seq 4 and one at seq 8 (whose attestation is forged when
/// `forge_at_8`), then recovers a fresh replica from its data dir.
fn recover_from_two_snapshots(tag: &str, forge_at_8: bool) -> (RecoveryReport, Replica) {
    let (mut p, dir) = mk_durable_primary(tag);
    for seq in 1..=8 {
        p.on_message(CLIENT_NODE, Message::Request(req(seq)));
        commit_slot(&mut p, seq, &[req(seq)]);
        if seq % 4 == 0 {
            let honest = p.checkpoint_digest();
            let snap = DurableSnapshot {
                stable_seq: seq,
                stable_digest: honest,
                exec_seq: seq,
                attested: if forge_at_8 && seq == 8 {
                    [0xAA; 32]
                } else {
                    honest
                },
                snapshot: p.build_snapshot(),
            };
            p.store.as_mut().unwrap().persist_checkpoint(&snap).unwrap();
        }
    }
    drop(p);
    let (store, recovery) = DurableStore::open(&dir, Default::default()).unwrap();
    let mut fresh = mk_primary(1, 2);
    let report = fresh.restore_durable(store, recovery);
    std::fs::remove_dir_all(&dir).unwrap();
    (report, fresh)
}

#[test]
fn recovery_falls_back_past_a_snapshot_whose_attestation_fails() {
    let (report, forged) = recover_from_two_snapshots("fallback-forged", true);
    assert!(report.fell_back, "{report:?}");
    assert_eq!(report.snapshot_seq, Some(4));
    assert_eq!((report.replayed, report.last_exec), (4, 8));
    let (report, honest) = recover_from_two_snapshots("fallback-honest", false);
    assert!(!report.fell_back, "{report:?}");
    assert_eq!(report.snapshot_seq, Some(8));
    assert_eq!((report.replayed, report.last_exec), (0, 8));
    assert_eq!(forged.state_digest(), honest.state_digest());
}
