//! Byzantine replica fault modes for the Fig. 2 experiments, and the
//! harness-side wrapper that injects them.
//!
//! A [`Replica`] knows nothing of faults: it is the protocol `peatsd`
//! deploys. The test harnesses (`Cluster` on either fabric, `SimCluster`)
//! drive each replica through a `Faulty`, which rewrites what the
//! replica's `step` and progress timeout return as its [`FaultMode`] says.
//! A new fault mode is a variant here and an arm in the rewrite.

use crate::messages::{Message, OpResult, ReplicaId, Seq};
use crate::replica::{Dest, Replica};
use crate::runtime::Node;

/// How a replica misbehaves.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Follows the protocol.
    #[default]
    Correct,
    /// Fail-stop: processes nothing, sends nothing.
    Crashed,
    /// Receives and updates state but never sends (a silent Byzantine
    /// replica — clients must still assemble `f+1` matching replies).
    Mute,
    /// Executes correctly but lies to clients in every `Reply` — client
    /// voting must mask it.
    CorruptReplies,
    /// As primary, sends conflicting `PrePrepare`s to different backups —
    /// the prepare quorum must refuse to certify both.
    EquivocatingPrimary,
    /// Follows the protocol but also broadcasts a junk `Prepare` to every
    /// replica for each message it processes. Two flooders sustain a
    /// permanent traffic loop (each one's junk triggers the other), so the
    /// cluster's mailboxes are never quiet — the starvation scenario for a
    /// progress check that only fires after a fully idle period.
    Flooder,
    /// Answers clients as itself *and* as the next `f` replicas: every
    /// client-bound `Reply`, `Wake` and `ReadReply` goes out `f+1` times,
    /// each copy claiming another replica id and all with the same forged
    /// result. One node, `f+1` matching claims: a client must count the
    /// authenticated sender, not the claimed id, to outvote it.
    ImpersonatesReplicas,
}

/// A replica under fault injection: what the harnesses drive in place of
/// a bare [`Replica`]. A `Crashed` replica processes nothing; every other
/// mode runs the protocol and rewrites its outputs.
#[derive(Debug)]
pub(crate) struct Faulty {
    /// The protocol state machine.
    pub(crate) replica: Replica,
    /// The fault injected into it.
    pub(crate) fault: FaultMode,
}

impl Faulty {
    /// `replica`, following the protocol until a fault is set.
    pub(crate) fn new(replica: Replica) -> Self {
        Faulty {
            replica,
            fault: FaultMode::Correct,
        }
    }

    /// The fault's rewrite of what one `step` or timeout returned.
    fn rewrite(&self, out: Vec<(Dest, Message)>) -> Vec<(Dest, Message)> {
        let cfg = self.replica.config();
        match &self.fault {
            FaultMode::Correct => out,
            FaultMode::Crashed | FaultMode::Mute => Vec::new(),
            FaultMode::CorruptReplies => out
                .into_iter()
                .flat_map(|(dest, mut msg)| {
                    // Forge the result AND inflate the claimed seq: a
                    // Byzantine replica lying about its execution point must
                    // neither win a vote nor drag correct clients' read
                    // watermarks to u64::MAX (which would force every future
                    // fast read into the ordered fallback). Each reply also
                    // grows a spurious forged Wake — an attempt to complete
                    // a blocked invoke that never matched.
                    let wake = match msg {
                        Message::Reply {
                            req_id, replica, ..
                        } => Some(Message::Wake {
                            req_id,
                            seq: u64::MAX,
                            result: OpResult::Tuple(None),
                            replica,
                        }),
                        _ => None,
                    };
                    let corrupted = OpResult::Denied("corrupted".into());
                    forge(&mut msg, &corrupted, |_, seq| *seq = u64::MAX);
                    std::iter::once((dest, msg)).chain(wake.map(|wake| (dest, wake)))
                })
                .collect(),
            FaultMode::EquivocatingPrimary => out
                .into_iter()
                .flat_map(|(dest, msg)| match (dest, &msg) {
                    (
                        Dest::AllReplicas,
                        Message::PrePrepare {
                            view,
                            seq,
                            requests,
                        },
                    ) => {
                        // Send conflicting assignments to odd/even replicas.
                        let mut forged = requests.clone();
                        if let Some(first) = forged.first_mut() {
                            first.req_id = first.req_id.wrapping_add(1_000_000);
                        }
                        let mut msgs = Vec::new();
                        for r in 0..cfg.n as ReplicaId {
                            if r == cfg.id {
                                continue;
                            }
                            let m = if r % 2 == 0 {
                                Message::PrePrepare {
                                    view: *view,
                                    seq: *seq,
                                    requests: requests.clone(),
                                }
                            } else {
                                Message::PrePrepare {
                                    view: *view,
                                    seq: *seq,
                                    requests: forged.clone(),
                                }
                            };
                            msgs.push((Dest::Replica(r), m));
                        }
                        msgs
                    }
                    _ => vec![(dest, msg)],
                })
                .collect(),
            FaultMode::Flooder => {
                // Correct outputs plus one junk prepare vote broadcast per
                // processed input: a self-sustaining noise loop once two
                // flooders feed each other. The vote lands in a batchless
                // slot at a sequence number no real assignment reaches, so
                // it can never certify anything.
                let mut out = out;
                out.push((
                    Dest::AllReplicas,
                    Message::Prepare {
                        view: self.replica.view(),
                        seq: u64::MAX,
                        digest: [0u8; 32],
                        replica: cfg.id,
                    },
                ));
                out
            }
            FaultMode::ImpersonatesReplicas => {
                let forged = OpResult::Tuple(Some(peats_tuplespace::tuple!["FORGED"]));
                let as_id = |i| ((cfg.id as usize + i) % cfg.n) as ReplicaId;
                out.into_iter()
                    .flat_map(|(dest, msg)| match dest {
                        // Clients are sent only `Reply`, `Wake` and
                        // `ReadReply`.
                        Dest::Client(_) => (0..=cfg.f)
                            .map(|i| {
                                let mut copy = msg.clone();
                                forge(&mut copy, &forged, |replica, _| *replica = as_id(i));
                                (dest, copy)
                            })
                            .collect(),
                        _ => vec![(dest, msg)],
                    })
                    .collect()
            }
        }
    }
}

/// Rewrites a reply to a client in place: its result becomes `forged`
/// (a `ReadReply`'s digest to match), and `edit` may change the replica
/// and seq it claims. Other messages pass unchanged.
fn forge(msg: &mut Message, forged: &OpResult, edit: impl FnOnce(&mut ReplicaId, &mut Seq)) {
    if let Message::Reply {
        replica,
        seq,
        result,
        ..
    }
    | Message::Wake {
        replica,
        seq,
        result,
        ..
    }
    | Message::ReadReply {
        replica,
        seq,
        result,
        ..
    } = msg
    {
        *result = forged.clone();
        edit(replica, seq);
    }
    if let Message::ReadReply { digest, .. } = msg {
        *digest = forged.digest();
    }
}

impl Node for Faulty {
    fn step(&mut self, from: u64, msg: Message) -> Vec<(Dest, Message)> {
        if self.fault == FaultMode::Crashed {
            return Vec::new();
        }
        let out = self.replica.step(from, msg);
        self.rewrite(out)
    }

    /// A crashed or mute replica skips the timeout entirely: it neither
    /// votes for a view change nor escalates its own view target.
    fn on_progress_timeout(&mut self) -> Vec<(Dest, Message)> {
        if matches!(self.fault, FaultMode::Crashed | FaultMode::Mute) {
            return Vec::new();
        }
        let out = self.replica.on_progress_timeout();
        self.rewrite(out)
    }

    fn sync(&mut self) {
        self.replica.sync();
    }

    fn last_exec(&self) -> Seq {
        self.replica.last_exec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{batch_digest, Request};
    use crate::replica::ReplicaConfig;
    use crate::service::PeatsService;
    use peats_policy::{OpCall, Policy, PolicyParams};
    use peats_tuplespace::tuple;

    const CLIENT_NODE: u64 = 4;
    const CLIENT_PID: u64 = 100;

    fn faulty(id: ReplicaId, fault: FaultMode) -> Faulty {
        let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
        let mut node = Faulty::new(Replica::new(
            ReplicaConfig::new(id, 4, 1),
            service,
            registry,
        ));
        node.fault = fault;
        node
    }

    fn req(i: u64) -> Request {
        Request::call(CLIENT_PID, i, OpCall::out(tuple!["T", i as i64]))
    }

    /// Walks backup `node` through slot 1 holding `batch`: the primary's
    /// pre-prepare, then prepares and commits from replicas 0 and 2.
    fn commit_slot_one(node: &mut Faulty, batch: &[Request]) -> Vec<(Dest, Message)> {
        let digest = batch_digest(batch);
        let mut out = node.step(
            0,
            Message::PrePrepare {
                view: 0,
                seq: 1,
                requests: batch.to_vec(),
            },
        );
        for replica in [0, 2] {
            let prepare = Message::Prepare {
                view: 0,
                seq: 1,
                digest,
                replica,
            };
            out.extend(node.step(u64::from(replica), prepare));
        }
        for replica in [0, 2] {
            let commit = Message::Commit {
                view: 0,
                seq: 1,
                digest,
                replica,
            };
            out.extend(node.step(u64::from(replica), commit));
        }
        out
    }

    #[test]
    fn equivocating_primary_sends_each_backup_its_own_pre_prepare() {
        let mut node = faulty(0, FaultMode::EquivocatingPrimary);
        let out = node.step(CLIENT_NODE, Message::Request(req(1)));
        let digests: Vec<_> = out
            .iter()
            .map(|(dest, msg)| match (dest, msg) {
                (
                    Dest::Replica(r),
                    Message::PrePrepare {
                        seq: 1, requests, ..
                    },
                ) => (*r, batch_digest(requests)),
                other => panic!("unexpected output {other:?}"),
            })
            .collect();
        let backups: Vec<ReplicaId> = digests.iter().map(|(r, _)| *r).collect();
        assert_eq!(backups, vec![1, 2, 3], "one pre-prepare per backup");
        let to = |r: ReplicaId| digests[r as usize - 1].1;
        assert_eq!(to(2), batch_digest(&[req(1)]), "even backups get the batch");
        assert_eq!(to(1), to(3), "odd backups get one forgery");
        assert_ne!(to(1), to(2), "odd and even backups disagree");
    }

    #[test]
    fn flooder_appends_one_junk_prepare_per_call() {
        let mut node = faulty(1, FaultMode::Flooder);
        let mut twin = faulty(1, FaultMode::Correct);
        let junk = (
            Dest::AllReplicas,
            Message::Prepare {
                view: 0,
                seq: u64::MAX,
                digest: [0u8; 32],
                replica: 1,
            },
        );
        let batch = [req(1)];
        let inputs = [
            Message::Request(req(1)),
            Message::PrePrepare {
                view: 0,
                seq: 1,
                requests: batch.to_vec(),
            },
        ];
        for msg in inputs {
            let mut expected = twin.step(0, msg.clone());
            expected.push(junk.clone());
            assert_eq!(node.step(0, msg), expected);
        }
        let mut expected = twin.on_progress_timeout();
        expected.push(junk);
        assert_eq!(node.on_progress_timeout(), expected);
    }

    #[test]
    fn corrupt_replies_forges_every_client_bound_message() {
        let node = faulty(2, FaultMode::CorruptReplies);
        let to_client = Dest::Client(CLIENT_NODE);
        let honest = OpResult::Tuple(Some(tuple!["T", 1]));
        let prepare = Message::Prepare {
            view: 0,
            seq: 3,
            digest: [7u8; 32],
            replica: 2,
        };
        let out = node.rewrite(vec![
            (
                to_client,
                Message::Reply {
                    view: 0,
                    seq: 3,
                    req_id: 9,
                    replica: 2,
                    result: OpResult::Done,
                },
            ),
            (
                to_client,
                Message::ReadReply {
                    req_id: 10,
                    seq: 3,
                    digest: honest.digest(),
                    result: honest.clone(),
                    replica: 2,
                },
            ),
            (
                to_client,
                Message::Wake {
                    req_id: 11,
                    seq: 3,
                    result: honest,
                    replica: 2,
                },
            ),
            (Dest::AllReplicas, prepare.clone()),
        ]);
        let corrupted = OpResult::Denied("corrupted".into());
        let expected = vec![
            (
                to_client,
                Message::Reply {
                    view: 0,
                    seq: u64::MAX,
                    req_id: 9,
                    replica: 2,
                    result: corrupted.clone(),
                },
            ),
            (
                to_client,
                Message::Wake {
                    req_id: 9,
                    seq: u64::MAX,
                    result: OpResult::Tuple(None),
                    replica: 2,
                },
            ),
            (
                to_client,
                Message::ReadReply {
                    req_id: 10,
                    seq: u64::MAX,
                    digest: corrupted.digest(),
                    result: corrupted.clone(),
                    replica: 2,
                },
            ),
            (
                to_client,
                Message::Wake {
                    req_id: 11,
                    seq: u64::MAX,
                    result: corrupted,
                    replica: 2,
                },
            ),
            (Dest::AllReplicas, prepare),
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn impersonator_answers_clients_as_f_plus_one_replicas() {
        let node = faulty(3, FaultMode::ImpersonatesReplicas);
        let to_client = Dest::Client(CLIENT_NODE);
        let honest = OpResult::Tuple(Some(tuple!["T", 1]));
        let prepare = Message::Prepare {
            view: 0,
            seq: 3,
            digest: [7u8; 32],
            replica: 3,
        };
        let read_reply = |replica, result: &OpResult| Message::ReadReply {
            req_id: 10,
            seq: 3,
            digest: result.digest(),
            result: result.clone(),
            replica,
        };
        let wake = |replica, result: &OpResult| Message::Wake {
            req_id: 11,
            seq: 4,
            result: result.clone(),
            replica,
        };
        let reply = |replica, result: &OpResult| Message::Reply {
            view: 0,
            seq: 5,
            req_id: 12,
            replica,
            result: result.clone(),
        };
        let out = node.rewrite(vec![
            (to_client, reply(3, &OpResult::Done)),
            (to_client, read_reply(3, &honest)),
            (to_client, wake(3, &honest)),
            (Dest::AllReplicas, prepare.clone()),
        ]);
        let forged = OpResult::Tuple(Some(tuple!["FORGED"]));
        // f = 1: as itself and as replica 0, the next id round the ring.
        let expected = vec![
            (to_client, reply(3, &forged)),
            (to_client, reply(0, &forged)),
            (to_client, read_reply(3, &forged)),
            (to_client, read_reply(0, &forged)),
            (to_client, wake(3, &forged)),
            (to_client, wake(0, &forged)),
            (Dest::AllReplicas, prepare),
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn mute_replica_executes_but_sends_nothing() {
        let mut node = faulty(1, FaultMode::Mute);
        assert!(node.step(CLIENT_NODE, Message::Request(req(2))).is_empty());
        assert!(commit_slot_one(&mut node, &[req(1)]).is_empty());
        assert_eq!(node.last_exec(), 1, "a mute replica still executes");
        // Request 2 is pending and unordered: a correct replica would vote
        // for a view change here.
        assert!(node.on_progress_timeout().is_empty());
        assert_eq!(node.replica.footprint().view_votes, 0, "no vote cast");
        assert_eq!(node.replica.view(), 0);
    }

    #[test]
    fn crashed_replica_processes_nothing() {
        let mut node = faulty(1, FaultMode::Crashed);
        assert!(node.step(CLIENT_NODE, Message::Request(req(2))).is_empty());
        assert!(commit_slot_one(&mut node, &[req(1)]).is_empty());
        assert_eq!(node.last_exec(), 0);
        assert_eq!(
            node.replica.footprint().pending,
            0,
            "input never reached it"
        );
        assert!(node.on_progress_timeout().is_empty());
    }
}
