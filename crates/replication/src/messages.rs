//! Protocol messages of the BFT replication layer, with wire codecs and
//! MAC envelopes.
//!
//! The protocol is a PBFT-style three-phase commit (pre-prepare / prepare /
//! commit) with a simplified view change — the "replica coordination
//! protocol … usually through an atomic multicast" of §4 / Fig. 2. Clients
//! broadcast requests; the primary of the current view orders them; replicas
//! execute in order and reply directly to the client, which accepts a result
//! vouched for by `f+1` distinct replicas.
//!
//! Every type here but the [`Sealed`] envelope is declared through
//! [`peats_codec::wire!`], so its declaration is its wire format: fields go
//! on the wire in the order written, and each variant's tag is the number
//! beside it. Adding a variant or a field is one edit of the declaration,
//! plus a sample in `tests/golden_bytes.rs` and a bump of
//! `peats_net::PROTOCOL_VERSION`, since peers of the old version can no
//! longer read the new bytes.

use peats_auth::{sha256, Digest, KeyTable};
use peats_codec::{wire, Codec, Decode, DecodeError, Encode, Reader};
use peats_policy::OpCall;
use peats_tuplespace::{SpaceSnapshot, Template, Tuple};

/// Replica index (`0..n_replicas`).
pub type ReplicaId = u32;
/// View number; the primary of view `v` is replica `v mod n`.
pub type View = u64;
/// Sequence number assigned by the primary.
pub type Seq = u64;
/// Logical process identity of a client (what the reference monitor sees).
pub type ClientPid = u64;

wire! {
    /// Result of executing one PEATS operation on the replicated service.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum OpResult {
        /// `out` succeeded.
        Done = 0,
        /// `rdp`/`inp` result (present or absent).
        Tuple(found: Option<Tuple>) = 1,
        /// `cas` result: `inserted`, plus the matched tuple when not inserted.
        Cas {
            /// `true` iff the entry was inserted.
            inserted: bool,
            /// The matched tuple when `inserted` is false.
            found: Option<Tuple>,
        } = 2,
        /// The reference monitor denied the invocation.
        Denied(why: String) = 3,
        /// `count` result: number of stored matches.
        Count(n: u64) = 4,
        /// A [`RequestOp::Register`] found no match and parked the template:
        /// the final result arrives later as a [`Message::Wake`] (and
        /// overwrites this entry in the replicas' reply caches, so a
        /// retransmission of the `Register` replays the woken result).
        Registered = 5,
    }
}

impl OpResult {
    /// Digest of the wire encoding — the matching key of the read fast
    /// path: clients group `ReadReply`s on `(seq, digest)` so a quorum
    /// certifies the exact result bytes, and replicas ship the digest so a
    /// mismatched `(digest, result)` pair is detectable without trust.
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }
}

wire! {
    /// What a blocked waiter is waiting for: a read of a matching tuple
    /// (`rd` — the tuple stays in the space, every matching waiter is served)
    /// or its removal (`in` — exactly one waiter consumes it).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum WaitKind {
        /// Blocking read: wake with a copy, leave the tuple in the space.
        Rd = 0,
        /// Blocking take: wake with the tuple, which never enters the space.
        Take = 1,
    }
}

wire! {
    /// The payload of an ordered client request: either a direct PEATS call
    /// or a blocking-wait registration management operation. `Register` and
    /// `Cancel` ride the same batch/ordering pipeline as calls, so the
    /// registration table is deterministic replicated state.
    #[derive(Clone, Debug, PartialEq)]
    pub enum RequestOp {
        /// A PEATS operation executed immediately against the space.
        Call(op: OpCall<'static>) = 0,
        /// A blocking `rd`/`take`: served at once from a match already in the
        /// space, or parked server-side until the first matching `out`
        /// commits, which replicas announce with an unsolicited
        /// [`Message::Wake`]. A registration fires once and is gone.
        Register {
            /// The template waited on.
            template: Template,
            /// Read (all matching waiters served) or take (one winner).
            kind: WaitKind,
            /// Always `false`; a set flag does not decode. Kept so the wire
            /// encoding is unchanged; removed by the next benchmark change.
            persistent: bool as Unset,
        } = 1,
        /// Remove the registration installed by this client's request
        /// `target`. A no-op when it already fired or never existed.
        Cancel {
            /// The `req_id` of the `Register` being cancelled.
            target: u64,
        } = 2,
    }
}

/// The wire form of [`RequestOp::Register`]'s `persistent` flag: a `bool`
/// byte of which only `0` decodes.
struct Unset;

impl Codec<bool> for Unset {
    fn encode(v: &bool, buf: &mut Vec<u8>) {
        v.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            tag => {
                let ty = "RequestOp::Register persistent flag";
                Err(DecodeError::BadTag { tag, ty })
            }
        }
    }
}

wire! {
    /// A client request: one PEATS operation invocation.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Request {
        /// The invoking process, as seen by the reference monitor.
        pub client: ClientPid,
        /// Client-local request number (dedup + reply matching).
        pub req_id: u64,
        /// The operation (owned: messages outlive their sender's borrows).
        pub op: RequestOp,
    }
}

impl Request {
    /// A direct-call request (the common case).
    pub fn call(client: ClientPid, req_id: u64, op: OpCall<'static>) -> Request {
        Request {
            client,
            req_id,
            op: RequestOp::Call(op),
        }
    }

    /// Digest binding all request fields (used by prepare/commit votes).
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }
}

/// Digest binding an ordered batch of requests — what prepare/commit votes
/// certify: the *sequence* of requests assigned to one slot, not any single
/// request. Hashes exactly the batch's wire encoding, so batches
/// with the same requests in a different order (or different boundaries)
/// digest differently.
pub fn batch_digest(batch: &[Request]) -> Digest {
    sha256(&batch.to_bytes())
}

wire! {
    /// One parked blocking `rd`/`take`, as stored by the service's
    /// registration table and carried by snapshots; it is removed when it
    /// fires or is cancelled. The table key (a deterministic arrival counter)
    /// rides separately so match order — and therefore which `take` waiter
    /// wins — is identical at every replica.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Registration {
        /// The waiting client's logical pid.
        pub client: ClientPid,
        /// The `Register` request that installed this entry; wakes echo it.
        pub req_id: u64,
        /// The template waited on.
        pub template: Template,
        /// Read or take.
        pub kind: WaitKind,
    }
}

/// The registration-table rows of a snapshot: `(table_key, registration)`.
pub type RegistrationRows = Vec<(u64, Registration)>;

/// Retained execution results per client, as carried by a snapshot:
/// `(pid, [(req_id, seq, result)])` rows of each client's dedup window.
pub type ReplyRows = Vec<(u64, Vec<(u64, Seq, OpResult)>)>;

wire! {
    /// A codec-encodable copy of everything a replica needs to adopt a peer's
    /// checkpoint instead of replaying history: the full service state plus the
    /// protocol-level per-client data. Shipped inside
    /// [`Message::StateSnapshot`]; its integrity is pinned by the checkpoint
    /// digest (which covers all three fields), recomputed by the receiver after
    /// restoration.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ReplicaSnapshot {
        /// The tuple-space state (entries + seq counter + selection rng).
        pub space: SpaceSnapshot,
        /// Client transport-node → logical pid bindings.
        pub client_registry: Vec<(u64, u64)>,
        /// Retained execution results per client:
        /// `(pid, [(req_id, seq, result)])` — the sequence number each result
        /// executed at rides along so a restored replica replays cached replies
        /// (and their read-your-writes watermarks) exactly. Without the cache a
        /// restored replica would re-execute retransmissions of
        /// already-answered requests.
        pub replies: ReplyRows,
        /// Parked blocking-wait registrations: the restored replica resumes
        /// serving waiters it never saw register.
        pub registrations: RegistrationRows,
        /// The service's next registration-table key (monotone; part of the
        /// state digest, so it must restore exactly).
        pub next_reg: u64,
    }
}

/// The checkpoint-attestation digest over a `(service digest, client
/// registry, retained replies)` triple — the *one* fold used everywhere a
/// replica's full state is attested or verified: emitting a checkpoint
/// vote, verifying a state-transfer snapshot after restoration, and
/// verifying a disk snapshot during recovery. Reuses the
/// [`ReplicaSnapshot`] wire encoding (with an empty space and empty
/// registration rows — both are pinned by `service_digest`, which also
/// covers the seq counter, rng word, and registration arrival counter raw
/// rows would miss), so the attested digest and every restored-state
/// recompute are byte-for-byte the same computation.
pub fn attestation_digest(
    service_digest: Digest,
    client_registry: Vec<(u64, u64)>,
    replies: ReplyRows,
) -> Digest {
    let meta = ReplicaSnapshot {
        space: SpaceSnapshot::default(),
        client_registry,
        replies,
        registrations: RegistrationRows::new(),
        next_reg: 0,
    };
    let mut buf = service_digest.to_vec();
    meta.encode(&mut buf);
    sha256(&buf)
}

wire! {
    /// Protocol messages.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Message {
        /// Client → replicas.
        Request(request: Request) = 0,
        /// Primary → backups: assigns `seq` to an ordered batch of requests in
        /// `view`. One three-phase round orders the whole batch; replicas
        /// execute its requests in batch order and reply to each client.
        PrePrepare {
            /// View in which the assignment is made.
            view: View,
            /// Assigned sequence number.
            seq: Seq,
            /// The ordered request batch (never empty).
            requests: Vec<Request>,
        } = 1,
        /// Replica → replicas: vote that `digest` is assigned `seq` in `view`.
        Prepare {
            /// View of the vote.
            view: View,
            /// Sequence number voted on.
            seq: Seq,
            /// Digest of the request.
            digest: Digest,
            /// The voting replica.
            replica: ReplicaId,
        } = 2,
        /// Replica → replicas: commit vote.
        Commit {
            /// View of the vote.
            view: View,
            /// Sequence number voted on.
            seq: Seq,
            /// Digest of the request.
            digest: Digest,
            /// The voting replica.
            replica: ReplicaId,
        } = 3,
        /// Replica → client: execution result.
        Reply {
            /// View in which the request executed.
            view: View,
            /// The sequence number the request executed at — advances the
            /// client's read-your-writes watermark once `f+1` replicas agree
            /// on `(seq, result)`.
            seq: Seq,
            /// Echoed client request number.
            req_id: u64,
            /// The replying replica.
            replica: ReplicaId,
            /// Execution result.
            result: OpResult,
        } = 4,
        /// Replica → replicas: vote to move to `new_view` (simplified — carries
        /// the replica's prepared-but-unexecuted requests for re-ordering,
        /// without per-message signature certificates; see the module docs of
        /// [`crate::replica`] on the simplifications). The report covers only
        /// slots above the sender's stable checkpoint — checkpoint GC has
        /// pruned everything below, so the message size is bounded by the log
        /// window, not the executed history.
        ViewChange {
            /// The proposed view.
            new_view: View,
            /// Sender's last executed sequence number.
            last_exec: Seq,
            /// Sender's stable checkpoint (`0` when none yet): the low
            /// watermark its report starts above, so a new primary can anchor
            /// sequence allocation and spot replicas needing state transfer.
            stable_seq: Seq,
            /// Digest of the stable checkpoint (all zero when `stable_seq` is
            /// `0`) — the simplified stable-checkpoint proof.
            stable_digest: Digest,
            /// Prepared batches the new primary must re-order.
            prepared: Vec<(Seq, Vec<Request>)>,
            /// The voting replica.
            replica: ReplicaId,
        } = 5,
        /// New primary → replicas: installs `view` and re-orders batches.
        NewView {
            /// The installed view.
            view: View,
            /// Re-issued batch assignments.
            assignments: Vec<(Seq, Vec<Request>)>,
        } = 6,
        /// Replica → replicas: "I executed through `seq` and my checkpoint
        /// digest there is `digest`" — broadcast every
        /// [`checkpoint_interval`](crate::replica::ReplicaConfig::checkpoint_interval)
        /// executed slots. `2f+1` matching digests form a *stable checkpoint*:
        /// the sender set can garbage-collect everything at or below `seq`.
        Checkpoint {
            /// The executed sequence number the digest was taken at.
            seq: Seq,
            /// The sender's checkpoint digest at `seq` (service state +
            /// client registry + retained replies).
            digest: Digest,
            /// The voting replica.
            replica: ReplicaId,
        } = 7,
        /// Replica → replicas: "my `last_exec` fell below a stable checkpoint —
        /// send me a snapshot." Any replica holding a stable checkpoint above
        /// `last_exec` answers with [`Message::StateSnapshot`].
        FetchState {
            /// The requester's last executed sequence number.
            last_exec: Seq,
            /// The requesting replica.
            replica: ReplicaId,
        } = 8,
        /// Replica → replica: a stable-checkpoint snapshot for state transfer.
        /// The receiver installs it only once `f+1` distinct replicas attest
        /// `(seq, digest)` (via `Checkpoint` or `StateSnapshot` messages) *and*
        /// the snapshot's recomputed checkpoint digest equals `digest` — a
        /// Byzantine sender can neither forge the attestation quorum nor slip a
        /// payload that does not hash to the attested digest.
        StateSnapshot {
            /// The stable checkpoint's sequence number.
            seq: Seq,
            /// The stable checkpoint's digest.
            digest: Digest,
            /// The full replica state at `seq`.
            snapshot: ReplicaSnapshot,
            /// The sending replica.
            replica: ReplicaId,
        } = 9,
        /// Client → replicas: a one-round read (`rd`/`rdp`/`count`) served from
        /// executed state without entering the ordering pipeline. Policy
        /// enforcement still runs at every replica; non-read operations are
        /// dropped.
        ReadRequest {
            /// The invoking process, as seen by the reference monitor.
            client: ClientPid,
            /// Client-local request number (reply matching only — fast reads
            /// are not deduplicated; serving them is stateless).
            req_id: u64,
            /// The read operation.
            op: OpCall<'static>,
            /// The client's read-your-writes watermark: replicas whose
            /// `last_exec` is below it are known-stale (their replies will be
            /// rejected); they answer anyway so the client can diagnose.
            watermark: Seq,
        } = 10,
        /// Replica → client: a fast-read answer at the replica's current
        /// execution watermark. The client accepts a result once `f+1`
        /// replicas agree on `(seq, digest, result)` at `seq ≥` its watermark,
        /// and falls back to the ordered path on timeout or conflict.
        ReadReply {
            /// Echoed client request number.
            req_id: u64,
            /// The replica's `last_exec` when it served the read.
            seq: Seq,
            /// [`OpResult::digest`] of `result` — the quorum matching key.
            digest: Digest,
            /// The read's result at `seq`.
            result: OpResult,
            /// The replying replica.
            replica: ReplicaId,
        } = 11,
        /// Replica → client, unsolicited: a parked registration matched a
        /// committed `out`. The client completes the blocked invoke once
        /// `f+1` replicas agree on `(seq, result)` for the registration's
        /// `req_id` — the same vote it runs over ordered `Reply`s, so a
        /// Byzantine replica cannot wake a waiter alone. Lost wakes are
        /// healed by retransmitting the original `Register`: replicas
        /// overwrite its cached reply with the woken result at match time.
        Wake {
            /// The `req_id` of the `Register` that parked the waiter.
            req_id: u64,
            /// The slot at which the matching `out` executed (identical at
            /// every correct replica — the quorum matching key).
            seq: Seq,
            /// The woken result (the matched tuple, for `rd`/`take`).
            result: OpResult,
            /// The waking replica.
            replica: ReplicaId,
        } = 12,
    }
}

/// MAC envelope: `(sender, mac, body)` — the authenticated channel of §4.
#[derive(Clone, Debug, PartialEq)]
pub struct Sealed {
    /// Sending node (transport identity).
    pub from: u64,
    /// `HMAC(pair_key(from, to), body)`.
    pub mac: Digest,
    /// Encoded [`Message`].
    pub body: Vec<u8>,
}

impl Sealed {
    /// Seals `msg` from `keys.id()` to `to`.
    pub fn seal(keys: &KeyTable, to: u64, msg: &Message) -> Sealed {
        let body = msg.to_bytes();
        Sealed {
            from: keys.id(),
            mac: keys.sign_for(to, &body),
            body,
        }
    }

    /// The wire bytes of `body` (an encoded [`Message`]) sealed from
    /// `keys.id()` to `to` — exactly `Sealed::seal(keys, to, msg).to_bytes()`
    /// for `body == msg.to_bytes()`. A broadcast encodes its message once
    /// and calls this per recipient: only the MAC differs between them.
    pub fn frame(keys: &KeyTable, to: u64, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + 32 + 4 + body.len());
        write_envelope(&mut buf, keys.id(), &keys.sign_for(to, body), body);
        buf
    }

    /// Verifies and decodes, returning the authenticated sender and the
    /// message. `None` on any MAC/codec failure (Byzantine input).
    pub fn open(&self, keys: &KeyTable) -> Option<(u64, Message)> {
        open_parts(keys, self.from, &self.mac, &self.body)
    }

    /// [`Sealed::from_bytes`] + [`open`](Sealed::open) on a received
    /// `frame` without the owned envelope in between: the body is MAC'd
    /// and decoded where it lies. The receive path of `replica_main` and
    /// of the client handle.
    pub fn open_bytes(keys: &KeyTable, frame: &[u8]) -> Option<(u64, Message)> {
        let mut r = Reader::new(frame);
        let (from, mac, body) = read_envelope(&mut r).ok()?;
        if r.remaining() > 0 {
            return None; // `from_bytes` rejects trailing bytes
        }
        open_parts(keys, from, &mac, body)
    }
}

fn open_parts(keys: &KeyTable, from: u64, mac: &Digest, body: &[u8]) -> Option<(u64, Message)> {
    if !keys.verify_from(from, body, mac) {
        return None;
    }
    Message::from_bytes(body).ok().map(|m| (from, m))
}

/// The three fields of an envelope, the body still in the input buffer.
fn read_envelope<'a>(r: &mut Reader<'a>) -> Result<(u64, Digest, &'a [u8]), DecodeError> {
    let from = u64::decode(r)?;
    let mac = Digest::decode(r)?;
    let n = u32::decode(r)? as usize;
    if n > r.remaining() {
        return Err(DecodeError::LengthOverflow);
    }
    Ok((from, mac, r.bytes(n)?))
}

fn write_envelope(buf: &mut Vec<u8>, from: u64, mac: &Digest, body: &[u8]) {
    from.encode(buf);
    buf.extend_from_slice(mac);
    (body.len() as u32).encode(buf);
    buf.extend_from_slice(body);
}

impl Encode for Sealed {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_envelope(buf, self.from, &self.mac, &self.body);
    }
}

impl Decode for Sealed {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (from, mac, body) = read_envelope(r)?;
        Ok(Sealed {
            from,
            mac,
            body: body.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats_codec::Tagged;
    use peats_tuplespace::{template, tuple};
    use std::collections::BTreeSet;

    fn sample_request() -> Request {
        Request::call(9, 3, OpCall::cas(template!["D", ?x], tuple!["D", 1]))
    }

    fn second_request() -> Request {
        Request::call(9, 4, OpCall::out(tuple!["E", 2]))
    }

    fn register_request() -> Request {
        Request {
            client: 9,
            req_id: 5,
            op: RequestOp::Register {
                template: template!["D", ?x],
                kind: WaitKind::Take,
                persistent: false,
            },
        }
    }

    fn cancel_request() -> Request {
        Request {
            client: 9,
            req_id: 6,
            op: RequestOp::Cancel { target: 5 },
        }
    }

    /// At least one message of every tag in [`Message::TAGS`].
    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Request(sample_request()),
            Message::Request(register_request()),
            Message::Request(cancel_request()),
            Message::PrePrepare {
                view: 1,
                seq: 7,
                requests: vec![sample_request(), second_request(), register_request()],
            },
            Message::Prepare {
                view: 1,
                seq: 7,
                digest: batch_digest(&[sample_request()]),
                replica: 2,
            },
            Message::Commit {
                view: 1,
                seq: 7,
                digest: batch_digest(&[sample_request()]),
                replica: 3,
            },
            Message::Reply {
                view: 1,
                seq: 7,
                req_id: 3,
                replica: 0,
                result: OpResult::Cas {
                    inserted: false,
                    found: Some(tuple!["D", 1]),
                },
            },
            Message::Reply {
                view: 0,
                seq: 2,
                req_id: 5,
                replica: 1,
                result: OpResult::Count(42),
            },
            Message::ViewChange {
                new_view: 2,
                last_exec: 5,
                stable_seq: 4,
                stable_digest: sha256(b"stable"),
                prepared: vec![(6, vec![sample_request(), second_request()]), (7, vec![])],
                replica: 1,
            },
            Message::NewView {
                view: 2,
                assignments: vec![(6, vec![sample_request()])],
            },
            Message::Checkpoint {
                seq: 8,
                digest: sha256(b"ckpt"),
                replica: 2,
            },
            Message::FetchState {
                last_exec: 3,
                replica: 1,
            },
            Message::StateSnapshot {
                seq: 8,
                digest: sha256(b"ckpt"),
                snapshot: ReplicaSnapshot {
                    space: peats_tuplespace::SpaceSnapshot {
                        entries: vec![(0, tuple!["A", 1]), (4, tuple!["B", 2])],
                        next_seq: 5,
                        rng_state: 0,
                    },
                    client_registry: vec![(4, 100), (5, 101)],
                    replies: vec![(
                        100,
                        vec![(1, 1, OpResult::Done), (2, 3, OpResult::Registered)],
                    )],
                    registrations: vec![(
                        2,
                        Registration {
                            client: 100,
                            req_id: 2,
                            template: template!["D", ?x],
                            kind: WaitKind::Rd,
                        },
                    )],
                    next_reg: 3,
                },
                replica: 3,
            },
            Message::ReadRequest {
                client: 9,
                req_id: 11,
                op: OpCall::rdp(template!["D", ?x]),
                watermark: 6,
            },
            Message::ReadRequest {
                client: 9,
                req_id: 12,
                op: OpCall::count(template!["D", _]),
                watermark: 0,
            },
            Message::ReadReply {
                req_id: 11,
                seq: 7,
                digest: OpResult::Tuple(Some(tuple!["D", 1])).digest(),
                result: OpResult::Tuple(Some(tuple!["D", 1])),
                replica: 2,
            },
            Message::ReadReply {
                req_id: 12,
                seq: 7,
                digest: OpResult::Count(3).digest(),
                result: OpResult::Count(3),
                replica: 0,
            },
            Message::Wake {
                req_id: 5,
                seq: 9,
                result: OpResult::Tuple(Some(tuple!["D", 1])),
                replica: 2,
            },
        ]
    }

    #[test]
    fn message_roundtrips() {
        let msgs = sample_messages();
        let tags: BTreeSet<u8> = msgs.iter().map(|m| m.to_bytes()[0]).collect();
        assert!(tags.iter().eq(Message::TAGS), "tags sampled: {tags:?}");
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(Message::from_bytes(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn result_digest_separates_results() {
        assert_ne!(OpResult::Done.digest(), OpResult::Tuple(None).digest());
        assert_ne!(OpResult::Count(1).digest(), OpResult::Count(2).digest());
        assert_eq!(
            OpResult::Tuple(Some(tuple!["A"])).digest(),
            OpResult::Tuple(Some(tuple!["A"])).digest()
        );
    }

    #[test]
    fn digest_changes_with_content() {
        let a = sample_request();
        let mut b = sample_request();
        b.req_id += 1;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn batch_digest_is_order_and_boundary_sensitive() {
        let (a, b) = (sample_request(), second_request());
        let ab = batch_digest(&[a.clone(), b.clone()]);
        let ba = batch_digest(&[b.clone(), a.clone()]);
        assert_ne!(ab, ba, "batch order must be certified");
        assert_ne!(
            batch_digest(std::slice::from_ref(&a)),
            ab,
            "a prefix must not collide with the full batch"
        );
        assert_eq!(ab, batch_digest(&[a, b]));
    }

    #[test]
    fn seal_and_open() {
        let alice = KeyTable::new(1, b"master".to_vec());
        let bob = KeyTable::new(2, b"master".to_vec());
        let msg = Message::Request(sample_request());
        let sealed = Sealed::seal(&alice, 2, &msg);
        let (from, opened) = sealed.open(&bob).expect("valid");
        assert_eq!(from, 1);
        assert_eq!(opened, msg);
    }

    #[test]
    fn tampered_seal_is_rejected() {
        let alice = KeyTable::new(1, b"master".to_vec());
        let bob = KeyTable::new(2, b"master".to_vec());
        let mut sealed = Sealed::seal(&alice, 2, &Message::Request(sample_request()));
        sealed.body[0] ^= 1;
        assert!(sealed.open(&bob).is_none());
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let alice = KeyTable::new(1, b"master".to_vec());
        let carol = KeyTable::new(3, b"master".to_vec());
        let sealed = Sealed::seal(&alice, 2, &Message::Request(sample_request()));
        assert!(sealed.open(&carol).is_none());
    }

    #[test]
    fn sealed_roundtrips_on_wire() {
        let alice = KeyTable::new(1, b"master".to_vec());
        let sealed = Sealed::seal(&alice, 2, &Message::Request(sample_request()));
        let bytes = sealed.to_bytes();
        assert_eq!(Sealed::from_bytes(&bytes).unwrap(), sealed);
    }

    #[test]
    fn a_set_persistent_flag_does_not_decode() {
        let alice = KeyTable::new(1, b"master".to_vec());
        let bob = KeyTable::new(2, b"master".to_vec());
        let unset = Message::Request(register_request());
        let (_, opened) = Sealed::seal(&alice, 2, &unset).open(&bob).expect("valid");
        assert_eq!(opened, unset);

        let mut set = register_request();
        if let RequestOp::Register { persistent, .. } = &mut set.op {
            *persistent = true;
        }
        let set = Message::Request(set);
        assert!(Sealed::seal(&alice, 2, &set).open(&bob).is_none());
        assert!(matches!(
            Message::from_bytes(&set.to_bytes()),
            Err(DecodeError::BadTag { tag: 1, .. })
        ));
    }

    /// Wire bytes captured before `KeyTable` cached keyed HMAC states and
    /// before `frame` existed: neither may change a bit of an envelope.
    #[test]
    fn sealed_request_matches_golden_bytes() {
        const GOLDEN: &str = "01000000000000002648476bc824d74a33a2740ebc3be6fa\
            92dc7a4b3ae71cedd4642f85835b7bab38000000000900000000000000030000\
            0000000000000502000000000301000000440201000000780002000000030100\
            000044010100000000000000";
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let keys = KeyTable::new(1, b"deployment".to_vec());
        let msg = Message::Request(sample_request());
        // Cold, then from the cached state, then by the seal-once path.
        assert_eq!(hex(&Sealed::seal(&keys, 2, &msg).to_bytes()), GOLDEN);
        assert_eq!(hex(&Sealed::seal(&keys, 2, &msg).to_bytes()), GOLDEN);
        assert_eq!(hex(&Sealed::frame(&keys, 2, &msg.to_bytes())), GOLDEN);
    }

    #[test]
    fn forged_senders_never_open_and_never_grow_the_key_cache() {
        let alice = KeyTable::new(1, b"master".to_vec());
        let bob = KeyTable::new(2, b"master".to_vec());
        let sealed = Sealed::seal(&alice, 2, &Message::Request(sample_request()));
        assert!(sealed.open(&bob).is_some());
        let cached = bob.cached_peers();
        for forged in 1_000..11_000 {
            let spoofed = Sealed {
                from: forged,
                ..sealed.clone()
            };
            assert!(spoofed.open(&bob).is_none(), "sender {forged}");
        }
        assert_eq!(bob.cached_peers(), cached);
    }
}
