//! Protocol messages of the BFT replication layer, with wire codecs and
//! MAC envelopes.
//!
//! The protocol is a PBFT-style three-phase commit (pre-prepare / prepare /
//! commit) with a simplified view change — the "replica coordination
//! protocol … usually through an atomic multicast" of §4 / Fig. 2. Clients
//! broadcast requests; the primary of the current view orders them; replicas
//! execute in order and reply directly to the client, which accepts a result
//! vouched for by `f+1` distinct replicas.

use peats_auth::{sha256, Digest, KeyTable};
use peats_codec::{Decode, DecodeError, Encode, Reader};
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

/// Result of executing one PEATS operation on the replicated service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// `out` succeeded.
    Done,
    /// `rdp`/`inp` result (present or absent).
    Tuple(Option<Tuple>),
    /// `cas` result: `inserted`, plus the matched tuple when not inserted.
    Cas {
        /// `true` iff the entry was inserted.
        inserted: bool,
        /// The matched tuple when `inserted` is false.
        found: Option<Tuple>,
    },
    /// The reference monitor denied the invocation.
    Denied(String),
    /// `count` result: number of stored matches.
    Count(u64),
    /// A [`RequestOp::Register`] found no match and parked the template:
    /// the final result arrives later as a [`Message::Wake`] (and
    /// overwrites this entry in the replicas' reply caches, so a
    /// retransmission of the `Register` replays the woken result).
    Registered,
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

impl Encode for OpResult {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            OpResult::Done => buf.push(0),
            OpResult::Tuple(t) => {
                buf.push(1);
                t.encode(buf);
            }
            OpResult::Cas { inserted, found } => {
                buf.push(2);
                inserted.encode(buf);
                found.encode(buf);
            }
            OpResult::Denied(why) => {
                buf.push(3);
                why.clone().encode(buf);
            }
            OpResult::Count(n) => {
                buf.push(4);
                n.encode(buf);
            }
            OpResult::Registered => buf.push(5),
        }
    }
}

impl Decode for OpResult {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => OpResult::Done,
            1 => OpResult::Tuple(Option::decode(r)?),
            2 => OpResult::Cas {
                inserted: bool::decode(r)?,
                found: Option::decode(r)?,
            },
            3 => OpResult::Denied(String::decode(r)?),
            4 => OpResult::Count(u64::decode(r)?),
            5 => OpResult::Registered,
            tag => {
                return Err(DecodeError::BadTag {
                    tag,
                    ty: "OpResult",
                })
            }
        })
    }
}

/// What a blocked waiter is waiting for: a read of a matching tuple
/// (`rd` — the tuple stays in the space, every matching waiter is served)
/// or its removal (`in` — exactly one waiter consumes it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitKind {
    /// Blocking read: wake with a copy, leave the tuple in the space.
    Rd,
    /// Blocking take: wake with the tuple, which never enters the space.
    Take,
}

impl Encode for WaitKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            WaitKind::Rd => 0,
            WaitKind::Take => 1,
        });
    }
}

impl Decode for WaitKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => WaitKind::Rd,
            1 => WaitKind::Take,
            tag => {
                return Err(DecodeError::BadTag {
                    tag,
                    ty: "WaitKind",
                })
            }
        })
    }
}

/// The payload of an ordered client request: either a direct PEATS call
/// or a blocking-wait registration management operation. `Register` and
/// `Cancel` ride the same batch/ordering pipeline as calls, so the
/// registration table is deterministic replicated state.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestOp {
    /// A PEATS operation executed immediately against the space.
    Call(OpCall<'static>),
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
        persistent: bool,
    },
    /// Remove the registration installed by this client's request
    /// `target`. A no-op when it already fired or never existed.
    Cancel {
        /// The `req_id` of the `Register` being cancelled.
        target: u64,
    },
}

impl Encode for RequestOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            RequestOp::Call(op) => {
                buf.push(0);
                op.encode(buf);
            }
            RequestOp::Register {
                template,
                kind,
                persistent,
            } => {
                buf.push(1);
                template.encode(buf);
                kind.encode(buf);
                persistent.encode(buf);
            }
            RequestOp::Cancel { target } => {
                buf.push(2);
                target.encode(buf);
            }
        }
    }
}

impl Decode for RequestOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => RequestOp::Call(OpCall::decode(r)?),
            1 => RequestOp::Register {
                template: Template::decode(r)?,
                kind: WaitKind::decode(r)?,
                persistent: match u8::decode(r)? {
                    0 => false,
                    tag => {
                        let ty = "RequestOp::Register persistent flag";
                        return Err(DecodeError::BadTag { tag, ty });
                    }
                },
            },
            2 => RequestOp::Cancel {
                target: u64::decode(r)?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    tag,
                    ty: "RequestOp",
                })
            }
        })
    }
}

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
    let mut buf = Vec::new();
    encode_batch(batch, &mut buf);
    sha256(&buf)
}

impl Encode for Request {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.req_id.encode(buf);
        self.op.encode(buf);
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Request {
            client: u64::decode(r)?,
            req_id: u64::decode(r)?,
            op: RequestOp::decode(r)?,
        })
    }
}

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

impl Encode for Registration {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.req_id.encode(buf);
        self.template.encode(buf);
        self.kind.encode(buf);
    }
}

impl Decode for Registration {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Registration {
            client: u64::decode(r)?,
            req_id: u64::decode(r)?,
            template: Template::decode(r)?,
            kind: WaitKind::decode(r)?,
        })
    }
}

/// The registration-table rows of a snapshot: `(table_key, registration)`.
pub type RegistrationRows = Vec<(u64, Registration)>;

/// Retained execution results per client, as carried by a snapshot:
/// `(pid, [(req_id, seq, result)])` rows of each client's dedup window.
pub type ReplyRows = Vec<(u64, Vec<(u64, Seq, OpResult)>)>;

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

impl Encode for ReplicaSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.space.encode(buf);
        (self.client_registry.len() as u32).encode(buf);
        for (node, pid) in &self.client_registry {
            node.encode(buf);
            pid.encode(buf);
        }
        (self.replies.len() as u32).encode(buf);
        for (client, per) in &self.replies {
            client.encode(buf);
            (per.len() as u32).encode(buf);
            for (req_id, seq, result) in per {
                req_id.encode(buf);
                seq.encode(buf);
                result.encode(buf);
            }
        }
        (self.registrations.len() as u32).encode(buf);
        for (key, reg) in &self.registrations {
            key.encode(buf);
            reg.encode(buf);
        }
        self.next_reg.encode(buf);
    }
}

impl Decode for ReplicaSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let space = SpaceSnapshot::decode(r)?;
        let n = u32::decode(r)? as usize;
        if n > r.remaining() + 1 {
            return Err(DecodeError::LengthOverflow);
        }
        let mut client_registry = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            client_registry.push((u64::decode(r)?, u64::decode(r)?));
        }
        let n = u32::decode(r)? as usize;
        if n > r.remaining() + 1 {
            return Err(DecodeError::LengthOverflow);
        }
        let mut replies = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let client = u64::decode(r)?;
            let k = u32::decode(r)? as usize;
            if k > r.remaining() + 1 {
                return Err(DecodeError::LengthOverflow);
            }
            let mut per = Vec::with_capacity(k.min(1024));
            for _ in 0..k {
                per.push((u64::decode(r)?, u64::decode(r)?, OpResult::decode(r)?));
            }
            replies.push((client, per));
        }
        let n = u32::decode(r)? as usize;
        if n > r.remaining() + 1 {
            return Err(DecodeError::LengthOverflow);
        }
        let mut registrations = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            registrations.push((u64::decode(r)?, Registration::decode(r)?));
        }
        let next_reg = u64::decode(r)?;
        Ok(ReplicaSnapshot {
            space,
            client_registry,
            replies,
            registrations,
            next_reg,
        })
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

/// Protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Client → replicas.
    Request(Request),
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
    },
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
    },
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
    },
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
    },
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
    },
    /// New primary → replicas: installs `view` and re-orders batches.
    NewView {
        /// The installed view.
        view: View,
        /// Re-issued batch assignments.
        assignments: Vec<(Seq, Vec<Request>)>,
    },
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
    },
    /// Replica → replicas: "my `last_exec` fell below a stable checkpoint —
    /// send me a snapshot." Any replica holding a stable checkpoint above
    /// `last_exec` answers with [`Message::StateSnapshot`].
    FetchState {
        /// The requester's last executed sequence number.
        last_exec: Seq,
        /// The requesting replica.
        replica: ReplicaId,
    },
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
    },
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
    },
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
    },
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
    },
}

impl Encode for Message {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Request(req) => {
                buf.push(0);
                req.encode(buf);
            }
            Message::PrePrepare {
                view,
                seq,
                requests,
            } => {
                buf.push(1);
                view.encode(buf);
                seq.encode(buf);
                encode_batch(requests, buf);
            }
            Message::Prepare {
                view,
                seq,
                digest,
                replica,
            } => {
                buf.push(2);
                view.encode(buf);
                seq.encode(buf);
                buf.extend_from_slice(digest);
                replica.encode(buf);
            }
            Message::Commit {
                view,
                seq,
                digest,
                replica,
            } => {
                buf.push(3);
                view.encode(buf);
                seq.encode(buf);
                buf.extend_from_slice(digest);
                replica.encode(buf);
            }
            Message::Reply {
                view,
                seq,
                req_id,
                replica,
                result,
            } => {
                buf.push(4);
                view.encode(buf);
                seq.encode(buf);
                req_id.encode(buf);
                replica.encode(buf);
                result.encode(buf);
            }
            Message::ViewChange {
                new_view,
                last_exec,
                stable_seq,
                stable_digest,
                prepared,
                replica,
            } => {
                buf.push(5);
                new_view.encode(buf);
                last_exec.encode(buf);
                stable_seq.encode(buf);
                buf.extend_from_slice(stable_digest);
                (prepared.len() as u32).encode(buf);
                for (s, b) in prepared {
                    s.encode(buf);
                    encode_batch(b, buf);
                }
                replica.encode(buf);
            }
            Message::NewView { view, assignments } => {
                buf.push(6);
                view.encode(buf);
                (assignments.len() as u32).encode(buf);
                for (s, b) in assignments {
                    s.encode(buf);
                    encode_batch(b, buf);
                }
            }
            Message::Checkpoint {
                seq,
                digest,
                replica,
            } => {
                buf.push(7);
                seq.encode(buf);
                buf.extend_from_slice(digest);
                replica.encode(buf);
            }
            Message::FetchState { last_exec, replica } => {
                buf.push(8);
                last_exec.encode(buf);
                replica.encode(buf);
            }
            Message::StateSnapshot {
                seq,
                digest,
                snapshot,
                replica,
            } => {
                buf.push(9);
                seq.encode(buf);
                buf.extend_from_slice(digest);
                snapshot.encode(buf);
                replica.encode(buf);
            }
            Message::ReadRequest {
                client,
                req_id,
                op,
                watermark,
            } => {
                buf.push(10);
                client.encode(buf);
                req_id.encode(buf);
                op.encode(buf);
                watermark.encode(buf);
            }
            Message::ReadReply {
                req_id,
                seq,
                digest,
                result,
                replica,
            } => {
                buf.push(11);
                req_id.encode(buf);
                seq.encode(buf);
                buf.extend_from_slice(digest);
                result.encode(buf);
                replica.encode(buf);
            }
            Message::Wake {
                req_id,
                seq,
                result,
                replica,
            } => {
                buf.push(12);
                req_id.encode(buf);
                seq.encode(buf);
                result.encode(buf);
                replica.encode(buf);
            }
        }
    }
}

pub(crate) fn encode_batch(batch: &[Request], buf: &mut Vec<u8>) {
    (batch.len() as u32).encode(buf);
    for req in batch {
        req.encode(buf);
    }
}

fn decode_batch(r: &mut Reader<'_>) -> Result<Vec<Request>, DecodeError> {
    let n = u32::decode(r)? as usize;
    if n > r.remaining() + 1 {
        return Err(DecodeError::LengthOverflow);
    }
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(Request::decode(r)?);
    }
    Ok(out)
}

fn decode_assignments(r: &mut Reader<'_>) -> Result<Vec<(Seq, Vec<Request>)>, DecodeError> {
    let n = u32::decode(r)? as usize;
    if n > r.remaining() + 1 {
        return Err(DecodeError::LengthOverflow);
    }
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push((u64::decode(r)?, decode_batch(r)?));
    }
    Ok(out)
}

impl Decode for Message {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => Message::Request(Request::decode(r)?),
            1 => Message::PrePrepare {
                view: u64::decode(r)?,
                seq: u64::decode(r)?,
                requests: decode_batch(r)?,
            },
            2 => Message::Prepare {
                view: u64::decode(r)?,
                seq: u64::decode(r)?,
                digest: Digest::decode(r)?,
                replica: u32::decode(r)?,
            },
            3 => Message::Commit {
                view: u64::decode(r)?,
                seq: u64::decode(r)?,
                digest: Digest::decode(r)?,
                replica: u32::decode(r)?,
            },
            4 => Message::Reply {
                view: u64::decode(r)?,
                seq: u64::decode(r)?,
                req_id: u64::decode(r)?,
                replica: u32::decode(r)?,
                result: OpResult::decode(r)?,
            },
            5 => {
                let new_view = u64::decode(r)?;
                let last_exec = u64::decode(r)?;
                let stable_seq = u64::decode(r)?;
                let stable_digest = Digest::decode(r)?;
                let prepared = decode_assignments(r)?;
                let replica = u32::decode(r)?;
                Message::ViewChange {
                    new_view,
                    last_exec,
                    stable_seq,
                    stable_digest,
                    prepared,
                    replica,
                }
            }
            6 => Message::NewView {
                view: u64::decode(r)?,
                assignments: decode_assignments(r)?,
            },
            7 => Message::Checkpoint {
                seq: u64::decode(r)?,
                digest: Digest::decode(r)?,
                replica: u32::decode(r)?,
            },
            8 => Message::FetchState {
                last_exec: u64::decode(r)?,
                replica: u32::decode(r)?,
            },
            9 => Message::StateSnapshot {
                seq: u64::decode(r)?,
                digest: Digest::decode(r)?,
                snapshot: ReplicaSnapshot::decode(r)?,
                replica: u32::decode(r)?,
            },
            10 => Message::ReadRequest {
                client: u64::decode(r)?,
                req_id: u64::decode(r)?,
                op: OpCall::decode(r)?,
                watermark: u64::decode(r)?,
            },
            11 => Message::ReadReply {
                req_id: u64::decode(r)?,
                seq: u64::decode(r)?,
                digest: Digest::decode(r)?,
                result: OpResult::decode(r)?,
                replica: u32::decode(r)?,
            },
            12 => Message::Wake {
                req_id: u64::decode(r)?,
                seq: u64::decode(r)?,
                result: OpResult::decode(r)?,
                replica: u32::decode(r)?,
            },
            tag => return Err(DecodeError::BadTag { tag, ty: "Message" }),
        })
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
    use peats_tuplespace::{template, tuple};

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

    #[test]
    fn message_roundtrips() {
        let msgs = vec![
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
        ];
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
