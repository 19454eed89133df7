//! The sans-io client: `f+1` reply votes (§4: "basic voting protocols can
//! be executed by the processes to determine the operation results"), and
//! the op machines that drive them.
//!
//! The vote sessions share the voting idea but differ in what "matching"
//! means:
//!
//! - [`ClientSession`] votes on the **ordered path**: a request goes through
//!   the full agreement pipeline, replicas reply with the `(seq, result)`
//!   pair recorded at execution, and the client accepts once `f+1` replicas
//!   agree on both. Committed slots keep their sequence numbers across view
//!   changes and correct replicas execute contiguously, so correct replicas
//!   always report the same pair — grouping on it costs no liveness while
//!   denying a Byzantine replica the chance to sneak a forged seq into the
//!   accepted pair.
//! - [`ReadSession`] votes on the **fast read path**: `rd`/`rdp`/`count` are
//!   answered by each replica directly from its executed state, with no
//!   ordering round. The client accepts a result backed by `f+1` replicas
//!   that agree on `(seq, digest)` **at or above its watermark** — the
//!   highest quorum-backed seq it has observed — which preserves
//!   read-your-writes: a quorum at `seq ≥ watermark` has executed every
//!   write this client ever had acknowledged. Stale replicas are rejected
//!   individually; if all `n` answer and no fresh quorum forms (replicas
//!   caught mid-write disagree), the session reports [`ReadPoll::NoQuorum`]
//!   and the caller falls back to the ordered path.
//! - [`BlockingSession`] votes on a blocked `rd`/`take`: first on the
//!   registration's park, then on the wake.
//!
//! Everything else a client does for one op — send, retry, probe, widen,
//! fall back, cancel — is one sans-io machine per op (`OpMachine`): fed
//! the replies and the time, it returns what to send to which replicas,
//! when it next needs the time, and at last the outcome. The deployed
//! handle ([`ReplicatedPeats`](crate::ReplicatedPeats)) runs the machines
//! on `Instant`, the simulator ([`SimCluster`](crate::SimCluster)) on
//! simulated time: the two clients differ only in clock and fabric.

use crate::messages::{Message, OpResult, ReplicaId, Request, RequestOp, Seq, WaitKind};
use peats::{SpaceError, SpaceResult};
use peats_auth::Digest;
use peats_policy::OpCall;
use peats_tuplespace::Template;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Client-side timing knobs, shared by every clone of one handle.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Re-broadcast an undecided request after this long without a
    /// decision. Each retry resets the timer from *now*, so a stall never
    /// banks a burst of back-to-back rebroadcasts.
    pub retry_interval: Duration,
    /// Give up on an invocation (`SpaceError::Unavailable`) after this
    /// long. Also the end-to-end deadline of a blocked `rd`/`take`: past
    /// it the registration is cancelled with an ordered `Cancel` and the
    /// invoke reports `Unavailable` (unless the cancel lost the race to a
    /// committed match, in which case the tuple is returned).
    pub invoke_timeout: Duration,
    /// Request ids start above this value. Replicas dedup requests by
    /// `(pid, req_id)` and re-reply the cached result on a repeat, so a
    /// *short-lived* client process re-using a long-lived pid (the `peats`
    /// CLI) must seed this with something fresh — e.g. a wall-clock
    /// timestamp — or its first requests replay earlier invocations'
    /// replies. Long-lived handles keep the 0 default.
    pub first_request_id: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retry_interval: Duration::from_millis(500),
            invoke_timeout: Duration::from_secs(10),
            first_request_id: 0,
        }
    }
}

/// Give up on a fast-read round (and fall back to the ordered path) after
/// this long without `f+1` fresh matching replies.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// How long a fast read waits for its `f+1` probe window before widening
/// to every replica.
pub(crate) const READ_PROBE_TIMEOUT: Duration = Duration::from_millis(25);

/// The claim at least `f+1` of `claims` match, if any (the first such, in
/// order of first appearance). Equal claims are grouped linearly: results
/// are not `Ord`, and `n` is at most a few dozen replicas.
fn quorum<C: PartialEq>(claims: impl IntoIterator<Item = C>, f: usize) -> Option<C> {
    let mut groups: Vec<(C, usize)> = Vec::new();
    for claim in claims {
        match groups.iter_mut().find(|(group, _)| *group == claim) {
            Some((_, count)) => *count += 1,
            None => groups.push((claim, 1)),
        }
    }
    groups
        .into_iter()
        .find(|(_, count)| *count > f)
        .map(|(claim, _)| claim)
}

/// One in-flight ordered request from one client.
#[derive(Debug)]
pub struct ClientSession {
    request: Request,
    f: usize,
    replies: BTreeMap<ReplicaId, (Seq, OpResult)>,
    decided: Option<(Seq, OpResult)>,
}

impl ClientSession {
    /// Starts a session for `op` as logical process `client` with request
    /// number `req_id`, tolerating `f` faulty replicas.
    pub fn new(client: u64, req_id: u64, op: OpCall<'static>, f: usize) -> Self {
        Self::new_op(client, req_id, RequestOp::Call(op), f)
    }

    /// Starts a session for an arbitrary [`RequestOp`] (registrations and
    /// cancels ride the same ordered pipeline as calls).
    pub fn new_op(client: u64, req_id: u64, op: RequestOp, f: usize) -> Self {
        ClientSession {
            request: Request { client, req_id, op },
            f,
            replies: BTreeMap::new(),
            decided: None,
        }
    }

    /// The request to broadcast to all replicas (and rebroadcast on
    /// timeout).
    pub fn request_message(&self) -> Message {
        Message::Request(self.request.clone())
    }

    /// Feeds a `Reply`; returns the accepted `(seq, result)` once `f+1`
    /// replicas sent identical pairs for this request. The seq is the slot
    /// the cluster executed the request at — the caller advances its read
    /// watermark to it, and because acceptance required `f+1` matching
    /// claims, a lone Byzantine replica cannot inflate the watermark and
    /// wedge every future fast read into the ordered fallback.
    pub fn on_reply(
        &mut self,
        replica: ReplicaId,
        req_id: u64,
        seq: Seq,
        result: OpResult,
    ) -> Option<(Seq, OpResult)> {
        if self.decided.is_some() || req_id != self.request.req_id {
            return self.decided.clone();
        }
        self.replies.insert(replica, (seq, result));
        self.decided = quorum(self.replies.values(), self.f).cloned();
        self.decided.clone()
    }

    /// The accepted `(seq, result)`, if already decided.
    pub fn decided(&self) -> Option<&(Seq, OpResult)> {
        self.decided.as_ref()
    }
}

/// Progress of a blocked invoke (register → wait → wake).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockingPoll {
    /// No quorum of any kind yet.
    Pending,
    /// `f+1` replicas confirmed the registration parked at this slot —
    /// the waiter is durably installed in replicated state; keep waiting
    /// for the wake.
    Parked(Seq),
    /// `f+1` replicas agreed on the final `(seq, result)` — either an
    /// immediate match served in the ordered reply, or a wake at the
    /// matching `out`'s slot.
    Decided(Seq, OpResult),
}

/// One blocked invoke: a `Register` broadcast once, then woken by
/// unsolicited `Wake`s and/or re-replies to retransmissions. Votes on the
/// *latest* `(seq, result)` claim per replica — a replica first answers
/// `(s₀, Registered)` and later upgrades its claim to the woken
/// `(s₁, tuple)`; grouping the latest claims means `f+1` matching
/// `Registered`s signal "parked" while `f+1` matching final results
/// decide, and a Byzantine replica forging wake seqs or tuples can do
/// neither alone.
#[derive(Debug)]
pub struct BlockingSession {
    request: Request,
    f: usize,
    replies: BTreeMap<ReplicaId, (Seq, OpResult)>,
    parked_at: Option<Seq>,
    decided: Option<(Seq, OpResult)>,
}

impl BlockingSession {
    /// Starts a blocked invoke for `template` as process `client` under
    /// request `req_id`, tolerating `f` faulty replicas.
    pub fn new(client: u64, req_id: u64, template: Template, kind: WaitKind, f: usize) -> Self {
        let op = RequestOp::Register {
            template,
            kind,
            persistent: false,
        };
        BlockingSession::revote(Request { client, req_id, op }, f)
    }

    /// A fresh vote on `request`.
    fn revote(request: Request, f: usize) -> Self {
        BlockingSession {
            request,
            f,
            replies: BTreeMap::new(),
            parked_at: None,
            decided: None,
        }
    }

    /// The `Register` to broadcast (and rebroadcast on timeout — replicas
    /// re-reply from their caches, which hold the woken result once the
    /// match committed, so retransmission heals lost wakes).
    pub fn request_message(&self) -> Message {
        Message::Request(self.request.clone())
    }

    /// Feeds a `Reply` or `Wake` claim for this request.
    pub fn on_reply(
        &mut self,
        replica: ReplicaId,
        req_id: u64,
        seq: Seq,
        result: OpResult,
    ) -> BlockingPoll {
        if self.decided.is_none() && req_id == self.request.req_id {
            // Latest claim per replica, with one exception: a `Registered`
            // never downgrades a final claim (a delayed parked ack can
            // arrive after the wake it precedes).
            match self.replies.get(&replica) {
                Some((_, prev))
                    if *prev != OpResult::Registered && result == OpResult::Registered => {}
                _ => {
                    self.replies.insert(replica, (seq, result));
                }
            }
            let parked = |(_, result): &&(Seq, OpResult)| *result == OpResult::Registered;
            let claims = self.replies.values();
            self.decided = quorum(claims.clone().filter(|c| !parked(c)), self.f).cloned();
            if let Some((seq, _)) = quorum(claims.filter(parked), self.f) {
                self.parked_at = Some(*seq);
            }
        }
        match (&self.decided, self.parked_at) {
            (Some((seq, result)), _) => BlockingPoll::Decided(*seq, result.clone()),
            (None, Some(seq)) => BlockingPoll::Parked(seq),
            (None, None) => BlockingPoll::Pending,
        }
    }

    /// The slot a registration quorum confirmed parking at, if any — the
    /// caller's read-your-writes watermark advances to it (registering is
    /// a write to replicated state).
    pub fn parked_at(&self) -> Option<Seq> {
        self.parked_at
    }
}

/// Progress of a fast-read vote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadPoll {
    /// Quorum not yet reached; keep waiting (or time out and fall back).
    Pending,
    /// `f+1` replicas agreed on this result at `seq ≥ watermark`.
    Accepted {
        /// The execution point the quorum answered at.
        seq: Seq,
        /// The agreed result.
        result: OpResult,
    },
    /// Every replica answered and no fresh quorum formed — replicas were
    /// caught mid-write or Byzantine; the caller must fall back to the
    /// ordered path.
    NoQuorum,
}

/// One in-flight fast read from one client.
#[derive(Debug)]
pub struct ReadSession {
    req_id: u64,
    watermark: Seq,
    f: usize,
    n: usize,
    /// Fresh (votable) replies: `replica → (seq, digest, result)`.
    replies: BTreeMap<ReplicaId, (Seq, Digest, OpResult)>,
    /// Replicas whose reply was rejected (stale seq or digest mismatch).
    /// They still count toward "all n answered" for `NoQuorum`.
    rejected: BTreeMap<ReplicaId, Seq>,
    decided: Option<(Seq, OpResult)>,
}

impl ReadSession {
    /// Starts a fast-read vote for request `req_id`, requiring a quorum at
    /// `seq ≥ watermark`, tolerating `f` faults among `n` replicas.
    pub fn new(req_id: u64, watermark: Seq, f: usize, n: usize) -> Self {
        ReadSession {
            req_id,
            watermark,
            f,
            n,
            replies: BTreeMap::new(),
            rejected: BTreeMap::new(),
            decided: None,
        }
    }

    /// Feeds a `ReadReply`. Replies below the watermark, or whose digest
    /// does not match the carried result (a forgery that would let two
    /// colluding replicas agree on a digest while shipping different
    /// results), are rejected but still count toward the all-`n`-answered
    /// check.
    pub fn on_read_reply(
        &mut self,
        replica: ReplicaId,
        req_id: u64,
        seq: Seq,
        digest: Digest,
        result: OpResult,
    ) -> ReadPoll {
        if let Some((seq, result)) = &self.decided {
            return ReadPoll::Accepted {
                seq: *seq,
                result: result.clone(),
            };
        }
        if req_id != self.req_id || (replica as usize) >= self.n {
            return ReadPoll::Pending;
        }
        if seq < self.watermark || digest != result.digest() {
            self.replies.remove(&replica);
            self.rejected.insert(replica, seq);
        } else {
            self.rejected.remove(&replica);
            self.replies.insert(replica, (seq, digest, result));
            // Group on (seq, digest): the digest pins the full result, so a
            // match means f+1 replicas computed the identical answer at the
            // identical execution point.
            let fresh = self.replies.values().map(|(s, d, r)| (s, d, r));
            if let Some((&seq, _, result)) = quorum(fresh, self.f) {
                let result = result.clone();
                self.decided = Some((seq, result.clone()));
                return ReadPoll::Accepted { seq, result };
            }
        }
        if self.replies.len() + self.rejected.len() >= self.n {
            return ReadPoll::NoQuorum;
        }
        ReadPoll::Pending
    }

    /// Replies rejected as stale or forged so far (diagnostics).
    pub fn rejected(&self) -> usize {
        self.rejected.len()
    }

    /// Distinct replicas heard from (counted or rejected) — what the
    /// optimistic probe phase checks to decide it should widen.
    pub fn responders(&self) -> usize {
        self.replies.len() + self.rejected.len()
    }

    /// The accepted `(seq, result)`, if already decided.
    pub fn decided(&self) -> Option<&(Seq, OpResult)> {
        self.decided.as_ref()
    }
}

/// A reply to a client, from the replica that sent it: an ordered-path
/// `Reply`, a pushed `Wake` (the same fields, voted on alike), or a fast
/// read's `ReadReply`, which alone carries a `digest`.
#[derive(Debug)]
pub(crate) struct ReplyEnvelope {
    pub(crate) replica: ReplicaId,
    pub(crate) req_id: u64,
    pub(crate) seq: Seq,
    pub(crate) result: OpResult,
    pub(crate) digest: Option<Digest>,
}

impl ReplyEnvelope {
    /// The reply `msg` carries, if it is one, as authenticated from node
    /// `from`. A reply claiming a replica other than its sender, or from a
    /// node that is none of the `n` replicas, is dropped: one node casts
    /// one vote — the rule replicas apply to each other's protocol
    /// messages.
    pub(crate) fn of(from: u64, msg: Message, n: usize) -> Option<ReplyEnvelope> {
        let (replica, req_id, seq, result, digest) = match msg {
            Message::Reply {
                replica,
                req_id,
                seq,
                result,
                ..
            }
            | Message::Wake {
                replica,
                req_id,
                seq,
                result,
            } => (replica, req_id, seq, result, None),
            Message::ReadReply {
                replica,
                req_id,
                seq,
                digest,
                result,
            } => (replica, req_id, seq, result, Some(digest)),
            _ => return None,
        };
        let envelope = ReplyEnvelope {
            replica,
            req_id,
            seq,
            result,
            digest,
        };
        (u64::from(replica) == from && (replica as usize) < n).then_some(envelope)
    }
}

/// One client: who it is, the group it talks to, its timing, and the state
/// all its ops share. Every op machine of the client reads and advances
/// it; the clones of a handle share one.
#[derive(Debug, Default)]
pub(crate) struct ClientCore {
    pub(crate) pid: u64,
    pub(crate) f: usize,
    pub(crate) n: usize,
    pub(crate) cfg: ClientConfig,
    pub(crate) next_req: AtomicU64,
    /// Read watermark: the highest *quorum-backed* seq this client has
    /// observed — advanced by every accepted ordered reply, parked
    /// registration and accepted fast read. Fast reads demand a quorum at
    /// or above it, which is exactly read-your-writes: the quorum has
    /// executed every operation this client ever had acknowledged. Only
    /// quorum-backed seqs advance it, so a Byzantine replica claiming
    /// `seq = u64::MAX` cannot wedge the client into permanent fallback.
    watermark: AtomicU64,
    /// Start of the preferred `f+1` probe window for fast reads. Rotated
    /// whenever a probe fails to decide, so a crashed, slow, or Byzantine
    /// replica only taxes the first read that probes it.
    probe_offset: AtomicU64,
    // What the handle reports.
    pub(crate) rebroadcasts: AtomicU64,
    pub(crate) in_flight: AtomicU64,
    pub(crate) max_in_flight: AtomicU64,
    pub(crate) fast_served: AtomicU64,
    pub(crate) fast_read_fallbacks: AtomicU64,
}

impl ClientCore {
    /// Process `pid` against `n` replicas tolerating `f` faults.
    pub(crate) fn new(pid: u64, f: usize, n: usize, cfg: ClientConfig) -> Self {
        let next_req = AtomicU64::new(cfg.first_request_id);
        let core = ClientCore::default();
        ClientCore {
            pid,
            f,
            n,
            cfg,
            next_req,
            ..core
        }
    }

    /// A request id no earlier request of this client used.
    pub(crate) fn fresh_req_id(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current read watermark.
    pub(crate) fn watermark(&self) -> Seq {
        self.watermark.load(Ordering::Relaxed)
    }

    /// Advances the read watermark to the quorum-backed `seq`.
    pub(crate) fn observe(&self, seq: Seq) {
        self.watermark.fetch_max(seq, Ordering::Relaxed);
    }
}

/// What an op machine asks of its driver after each input.
#[derive(Debug)]
pub(crate) enum Io {
    /// Send [`OpMachine::message`] to the replicas `send` names, if any —
    /// replica `i % n` for each ring position `i` — then feed the machine
    /// every reply, and the time once `until` has come.
    Wait {
        send: Option<Range<usize>>,
        until: Duration,
    },
    /// The op is over: the agreed result, or why there is none.
    Done(SpaceResult<OpResult>),
}

impl Io {
    fn wait(until: Duration) -> Io {
        Io::Wait { send: None, until }
    }

    fn send(to: Range<usize>, until: Duration) -> Io {
        let send = Some(to);
        Io::Wait { send, until }
    }
}

/// One op of one client, from its first message to its outcome. Times are
/// offsets from an epoch the driver picks. The driver feeds it the replies
/// to its first and its current [`OpMachine::req_id`], and the time once
/// an `Io::Wait`'s deadline has come (early calls are harmless).
#[derive(Debug)]
pub(crate) struct OpMachine {
    first: u64,
    phase: Phase,
    /// What the op sends: its request, or the fast read's.
    msg: Message,
    /// When the phase gives up: the op fails, falls back, or cancels.
    deadline: Duration,
    /// When `msg` goes out again (or the read widens); at `deadline` or
    /// later for never.
    retry: Duration,
}

#[derive(Debug)]
enum Phase {
    /// An ordered request: a call, or a fast read's fallback.
    Ordered(ClientSession),
    /// A fast read of `op`, probing the `f+1` window from replica `probe`
    /// until it widens.
    Read {
        op: OpCall<'static>,
        session: ReadSession,
        probe: usize,
    },
    /// A blocked `rd`/`take`: registering, then parked until a wake.
    Blocked(BlockingSession),
    /// A blocked op past its deadline: the ordered `Cancel` of its
    /// `register` request.
    Cancel {
        cancel: ClientSession,
        register: Request,
    },
    /// The cancel is ordered: one retransmit of the registration reads the
    /// race's outcome from the replicas' reply caches, on a fresh vote —
    /// the acks that parked the registration would outvote the first
    /// cached tuple to come back.
    Settle(BlockingSession),
}

impl OpMachine {
    /// An ordered `op`, and what to do first.
    pub(crate) fn ordered(core: &ClientCore, op: RequestOp, now: Duration) -> (Self, Io) {
        let session = ClientSession::new_op(core.pid, core.fresh_req_id(), op, core.f);
        let (first, msg) = (session.request.req_id, session.request_message());
        Self::start(first, Phase::Ordered(session), msg, core, now)
    }

    /// A read-only `op` (`rdp`/`count`) on the one-round fast path. It
    /// first *probes* a preferred `f+1` window of replicas — the cheapest
    /// quorum that can decide. If the window answers without deciding or
    /// stays silent past [`READ_PROBE_TIMEOUT`], the read *widens* to the
    /// other replicas and rotates the window past the unhelpful one. On
    /// disagreement or timeout it falls back to the ordered path.
    pub(crate) fn read(core: &ClientCore, op: OpCall<'static>, now: Duration) -> (Self, Io) {
        let (req_id, watermark) = (core.fresh_req_id(), core.watermark());
        let msg = Message::ReadRequest {
            client: core.pid,
            req_id,
            op: op.clone(),
            watermark,
        };
        let session = ReadSession::new(req_id, watermark, core.f, core.n);
        let probe = (core.probe_offset.load(Ordering::Relaxed) % core.n as u64) as usize;
        let window = probe..probe + (core.f + 1).min(core.n);
        let read = OpMachine {
            first: req_id,
            phase: Phase::Read { op, session, probe },
            msg,
            deadline: now + READ_TIMEOUT,
            retry: now + READ_PROBE_TIMEOUT,
        };
        let io = Io::send(window, read.wake_at());
        (read, io)
    }

    /// A blocking `rd`/`take`: one ordered `Register` parks `template` at
    /// every replica, which push a `Wake` when a committed `out` matches —
    /// one consensus round however long the op blocks. Past
    /// `invoke_timeout` an ordered `Cancel` detaches the registration; it
    /// races a concurrent match in the total order, and one `Register`
    /// retransmit reads the winner from the replicas' reply caches (a
    /// match's tuple is ours: reporting `Unavailable` would leak it).
    pub(crate) fn blocking(
        core: &ClientCore,
        template: Template,
        kind: WaitKind,
        now: Duration,
    ) -> (Self, Io) {
        let req_id = core.fresh_req_id();
        let session = BlockingSession::new(core.pid, req_id, template, kind, core.f);
        let msg = session.request_message();
        Self::start(req_id, Phase::Blocked(session), msg, core, now)
    }

    fn start(first: u64, phase: Phase, msg: Message, c: &ClientCore, now: Duration) -> (Self, Io) {
        let (deadline, retry) = (now, now);
        let mut op = OpMachine {
            first,
            phase,
            msg,
            deadline,
            retry,
        };
        let io = op.order(c, now);
        (op, io)
    }

    /// The request id the op started under.
    pub(crate) fn first_req_id(&self) -> u64 {
        self.first
    }

    /// What the op sends now.
    pub(crate) fn message(&self) -> &Message {
        &self.msg
    }

    /// The request id the op sends under now: the first, or that of its
    /// fallback or its cancel.
    pub(crate) fn req_id(&self) -> u64 {
        match &self.phase {
            Phase::Ordered(session)
            | Phase::Cancel {
                cancel: session, ..
            } => session.request.req_id,
            _ => self.first,
        }
    }

    fn wake_at(&self) -> Duration {
        self.retry.min(self.deadline)
    }

    /// Feeds one reply.
    pub(crate) fn on_reply(&mut self, core: &ClientCore, env: ReplyEnvelope, now: Duration) -> Io {
        let ReplyEnvelope {
            replica,
            req_id,
            seq,
            result,
            digest,
        } = env;
        match (&mut self.phase, digest) {
            (Phase::Read { op, session, probe }, Some(digest)) => {
                match session.on_read_reply(replica, req_id, seq, digest, result) {
                    ReadPoll::Accepted { seq, result } => {
                        core.fast_served.fetch_add(1, Ordering::Relaxed);
                        return decided(core, seq, result);
                    }
                    ReadPoll::NoQuorum => {
                        let op = op.clone();
                        return self.fall_back(core, op, now);
                    }
                    // The whole probe window answered without deciding.
                    ReadPoll::Pending
                        if self.retry < self.deadline && session.responders() > core.f =>
                    {
                        let probe = *probe;
                        return self.widen(core, probe);
                    }
                    ReadPoll::Pending => {}
                }
            }
            (Phase::Ordered(session), None) => {
                if let Some((seq, result)) = session.on_reply(replica, req_id, seq, result) {
                    return decided(core, seq, result);
                }
            }
            (Phase::Blocked(session), None) => match session.on_reply(replica, req_id, seq, result)
            {
                BlockingPoll::Decided(seq, result) => return decided(core, seq, result),
                // The registration committed at `seq`: read-your-writes
                // covers it like any write. The next message owed is a
                // pushed wake, not a reply, so retries stop.
                BlockingPoll::Parked(seq) => {
                    core.observe(seq);
                    self.retry = self.deadline;
                }
                BlockingPoll::Pending => {}
            },
            (Phase::Cancel { cancel, register }, None) => {
                if let Some((seq, _)) = cancel.on_reply(replica, req_id, seq, result) {
                    core.observe(seq);
                    let settle = BlockingSession::revote(register.clone(), core.f);
                    self.msg = settle.request_message();
                    self.phase = Phase::Settle(settle);
                    (self.deadline, self.retry) = (now + core.cfg.retry_interval, Duration::MAX);
                    return Io::send(0..core.n, self.deadline);
                }
            }
            (Phase::Settle(settle), None) => match settle.on_reply(replica, req_id, seq, result) {
                BlockingPoll::Decided(seq, result) => return decided(core, seq, result),
                // Still parked in the caches after the cancel: the cancel
                // won.
                BlockingPoll::Parked(_) => return give_up(CANCELLED),
                BlockingPoll::Pending => {}
            },
            // A fast read's reply to an ordered phase, or the reverse.
            _ => {}
        }
        Io::wait(self.wake_at())
    }

    /// Feeds the time: what is due at `now` happens.
    pub(crate) fn on_deadline(&mut self, core: &ClientCore, now: Duration) -> Io {
        if now >= self.deadline {
            return match &self.phase {
                Phase::Read { op, .. } => {
                    let op = op.clone();
                    self.fall_back(core, op, now)
                }
                Phase::Blocked(session) => {
                    let register = session.request.clone();
                    let op = RequestOp::Cancel { target: self.first };
                    let cancel = ClientSession::new_op(core.pid, core.fresh_req_id(), op, core.f);
                    self.msg = cancel.request_message();
                    self.phase = Phase::Cancel { cancel, register };
                    self.order(core, now)
                }
                Phase::Settle(_) => give_up(CANCELLED),
                Phase::Ordered(_) | Phase::Cancel { .. } => give_up(TIMED_OUT),
            };
        }
        if now < self.retry {
            return Io::wait(self.wake_at());
        }
        if let Phase::Read { probe, .. } = self.phase {
            return self.widen(core, probe);
        }
        core.rebroadcasts.fetch_add(1, Ordering::Relaxed);
        self.resend(core, now)
    }

    /// Starts an ordered phase: `msg` goes to every replica until `f+1`
    /// agree or `invoke_timeout` passes.
    fn order(&mut self, core: &ClientCore, now: Duration) -> Io {
        self.deadline = now + core.cfg.invoke_timeout;
        self.resend(core, now)
    }

    /// Sends `msg` to every replica, and again after `retry_interval` —
    /// counted from *now*, so a stall never banks a burst of back-to-back
    /// rebroadcasts.
    fn resend(&mut self, core: &ClientCore, now: Duration) -> Io {
        self.retry = now + core.cfg.retry_interval;
        Io::send(0..core.n, self.wake_at())
    }

    fn widen(&mut self, core: &ClientCore, probe: usize) -> Io {
        self.retry = self.deadline;
        core.probe_offset.fetch_add(1, Ordering::Relaxed);
        let rest = probe + core.f + 1..probe + core.n;
        Io::send(rest, self.deadline)
    }

    fn fall_back(&mut self, core: &ClientCore, op: OpCall<'static>, now: Duration) -> Io {
        core.fast_read_fallbacks.fetch_add(1, Ordering::Relaxed);
        let op = RequestOp::Call(op);
        let session = ClientSession::new_op(core.pid, core.fresh_req_id(), op, core.f);
        self.msg = session.request_message();
        self.phase = Phase::Ordered(session);
        self.order(core, now)
    }
}

/// An agreed `(seq, result)`: the op's outcome, and its seq the watermark's.
fn decided(core: &ClientCore, seq: Seq, result: OpResult) -> Io {
    core.observe(seq);
    Io::Done(Ok(result))
}

const TIMED_OUT: &str = "no f+1 matching replies before timeout";
const CANCELLED: &str = "blocked operation timed out and was cancelled";

/// The op's outcome: `Unavailable`, for `why`.
fn give_up(why: &str) -> Io {
    Io::Done(Err(SpaceError::Unavailable(why.into())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats_tuplespace::{template, tuple, Tuple};

    fn mk_session() -> ClientSession {
        ClientSession::new(9, 1, OpCall::out(tuple!["A"]), 1)
    }

    #[test]
    fn accepts_after_f_plus_one_matching() {
        let mut s = mk_session();
        assert_eq!(s.on_reply(0, 1, 7, OpResult::Done), None);
        assert_eq!(
            s.on_reply(1, 1, 7, OpResult::Done),
            Some((7, OpResult::Done))
        );
    }

    #[test]
    fn lone_divergent_reply_is_outvoted() {
        let mut s = mk_session();
        assert_eq!(s.on_reply(0, 1, 7, OpResult::Denied("lie".into())), None);
        assert_eq!(s.on_reply(1, 1, 7, OpResult::Done), None);
        assert_eq!(
            s.on_reply(2, 1, 7, OpResult::Done),
            Some((7, OpResult::Done))
        );
    }

    #[test]
    fn matching_results_at_forged_seq_do_not_pair() {
        // A Byzantine replica agreeing on the result but lying about the
        // seq must not contribute to the pair's quorum (else it could drag
        // the accepted seq — and the client watermark — to u64::MAX).
        let mut s = mk_session();
        assert_eq!(s.on_reply(0, 1, u64::MAX, OpResult::Done), None);
        assert_eq!(s.on_reply(1, 1, 7, OpResult::Done), None);
        assert_eq!(
            s.on_reply(2, 1, 7, OpResult::Done),
            Some((7, OpResult::Done))
        );
    }

    #[test]
    fn duplicate_replica_replies_do_not_double_count() {
        let mut s = mk_session();
        assert_eq!(s.on_reply(0, 1, 7, OpResult::Done), None);
        assert_eq!(s.on_reply(0, 1, 7, OpResult::Done), None);
    }

    #[test]
    fn mismatched_req_id_is_ignored() {
        let mut s = mk_session();
        assert_eq!(s.on_reply(0, 99, 7, OpResult::Done), None);
        assert_eq!(s.on_reply(1, 99, 7, OpResult::Done), None);
        assert_eq!(s.decided(), None);
    }

    fn tuple_reply(t: Option<Tuple>) -> (Digest, OpResult) {
        let r = OpResult::Tuple(t);
        (r.digest(), r)
    }

    #[test]
    fn fast_read_accepts_f_plus_one_at_watermark() {
        let mut s = ReadSession::new(5, 10, 1, 4);
        let (d, r) = tuple_reply(Some(tuple!["A"]));
        assert_eq!(s.on_read_reply(0, 5, 12, d, r.clone()), ReadPoll::Pending);
        assert_eq!(
            s.on_read_reply(1, 5, 12, d, r.clone()),
            ReadPoll::Accepted { seq: 12, result: r }
        );
    }

    #[test]
    fn stale_f_plus_one_match_below_watermark_is_rejected() {
        // Two replicas agree — but at a seq below the client's watermark:
        // they have not yet executed a write this client already had
        // acknowledged, so accepting would break read-your-writes.
        let mut s = ReadSession::new(5, 10, 1, 4);
        let (d, r) = tuple_reply(None);
        assert_eq!(s.on_read_reply(0, 5, 9, d, r.clone()), ReadPoll::Pending);
        assert_eq!(s.on_read_reply(1, 5, 9, d, r.clone()), ReadPoll::Pending);
        assert_eq!(s.decided(), None);
        assert_eq!(s.rejected(), 2);
        // Fresh replicas still decide.
        let (d2, r2) = tuple_reply(Some(tuple!["A"]));
        assert_eq!(s.on_read_reply(2, 5, 10, d2, r2.clone()), ReadPoll::Pending);
        assert_eq!(
            s.on_read_reply(3, 5, 10, d2, r2.clone()),
            ReadPoll::Accepted {
                seq: 10,
                result: r2
            }
        );
    }

    #[test]
    fn conflicting_fresh_replies_force_fallback() {
        // All four replicas answer at fresh seqs but no f+1 group agrees
        // (caught mid-write): the session must demand the ordered path,
        // not hang or guess.
        let mut s = ReadSession::new(5, 0, 1, 4);
        let (d0, r0) = tuple_reply(None);
        let (d1, r1) = tuple_reply(Some(tuple!["A"]));
        assert_eq!(s.on_read_reply(0, 5, 3, d0, r0.clone()), ReadPoll::Pending);
        assert_eq!(s.on_read_reply(1, 5, 4, d0, r0), ReadPoll::Pending);
        assert_eq!(s.on_read_reply(2, 5, 5, d1, r1.clone()), ReadPoll::Pending);
        assert_eq!(s.on_read_reply(3, 5, 6, d1, r1), ReadPoll::NoQuorum);
    }

    #[test]
    fn forged_digest_result_mismatch_is_rejected() {
        // Colluding replicas agreeing on a digest while shipping different
        // results must not reach quorum: the client recomputes the digest
        // from the carried result and rejects mismatches.
        let mut s = ReadSession::new(5, 0, 1, 4);
        let (d, _) = tuple_reply(Some(tuple!["A"]));
        let forged = OpResult::Tuple(Some(tuple!["B"]));
        assert_eq!(
            s.on_read_reply(0, 5, 3, d, forged.clone()),
            ReadPoll::Pending
        );
        assert_eq!(s.on_read_reply(1, 5, 3, d, forged), ReadPoll::Pending);
        assert_eq!(s.decided(), None);
        assert_eq!(s.rejected(), 2);
    }

    fn mk_blocking() -> BlockingSession {
        BlockingSession::new(9, 1, peats_tuplespace::template!["A", ?x], WaitKind::Rd, 1)
    }

    #[test]
    fn blocking_session_parks_then_decides_on_wakes() {
        let mut s = mk_blocking();
        // f+1 Registered at the register's slot: parked, not decided.
        assert_eq!(
            s.on_reply(0, 1, 5, OpResult::Registered),
            BlockingPoll::Pending
        );
        assert_eq!(
            s.on_reply(1, 1, 5, OpResult::Registered),
            BlockingPoll::Parked(5)
        );
        assert_eq!(s.parked_at(), Some(5));
        // Wakes upgrade each replica's claim; f+1 matching decide.
        let woken = OpResult::Tuple(Some(tuple!["A", 1]));
        assert_eq!(s.on_reply(0, 1, 9, woken.clone()), BlockingPoll::Parked(5));
        assert_eq!(
            s.on_reply(2, 1, 9, woken.clone()),
            BlockingPoll::Decided(9, woken)
        );
    }

    #[test]
    fn blocking_session_takes_immediate_match_without_parking() {
        let mut s = mk_blocking();
        let served = OpResult::Tuple(Some(tuple!["A", 2]));
        assert_eq!(s.on_reply(3, 1, 4, served.clone()), BlockingPoll::Pending);
        assert_eq!(
            s.on_reply(1, 1, 4, served.clone()),
            BlockingPoll::Decided(4, served)
        );
    }

    #[test]
    fn forged_wakes_alone_cannot_decide_a_blocked_invoke() {
        let mut s = mk_blocking();
        s.on_reply(0, 1, 5, OpResult::Registered);
        s.on_reply(1, 1, 5, OpResult::Registered);
        s.on_reply(2, 1, 5, OpResult::Registered);
        // One Byzantine replica sprays forged wakes: different seqs,
        // different results, repeatedly — never more than one vote.
        let forged = OpResult::Tuple(Some(tuple!["A", 666]));
        for seq in [u64::MAX, 7, 8, 9] {
            assert_eq!(
                s.on_reply(3, 1, seq, forged.clone()),
                BlockingPoll::Parked(5),
                "a lone forger must not complete the invoke"
            );
        }
        // Nor can it team with one honest wake at a different seq.
        let woken = OpResult::Tuple(Some(tuple!["A", 1]));
        assert_eq!(s.on_reply(0, 1, 9, woken.clone()), BlockingPoll::Parked(5));
        // The honest quorum still decides with the honest value.
        assert_eq!(
            s.on_reply(2, 1, 9, woken.clone()),
            BlockingPoll::Decided(9, woken)
        );
    }

    #[test]
    fn late_registered_ack_does_not_downgrade_a_wake_claim() {
        let mut s = mk_blocking();
        let woken = OpResult::Tuple(Some(tuple!["A", 1]));
        assert_eq!(s.on_reply(0, 1, 9, woken.clone()), BlockingPoll::Pending);
        // The delayed parked ack from replica 0 arrives after its wake.
        assert_eq!(
            s.on_reply(0, 1, 5, OpResult::Registered),
            BlockingPoll::Pending
        );
        assert_eq!(
            s.on_reply(1, 1, 9, woken.clone()),
            BlockingPoll::Decided(9, woken)
        );
    }

    #[test]
    fn fast_read_ignores_foreign_req_id_and_fake_replicas() {
        let mut s = ReadSession::new(5, 0, 1, 4);
        let (d, r) = tuple_reply(None);
        assert_eq!(s.on_read_reply(0, 99, 3, d, r.clone()), ReadPoll::Pending);
        // Replica id beyond n must not vote (a Byzantine node inventing
        // identities would otherwise stuff the ballot).
        assert_eq!(s.on_read_reply(9, 5, 3, d, r.clone()), ReadPoll::Pending);
        assert_eq!(s.on_read_reply(7, 5, 3, d, r), ReadPoll::Pending);
        assert_eq!(s.decided(), None);
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// The ring positions an `Io` sends to, and its deadline.
    fn sends(io: Io) -> (Option<Range<usize>>, Duration) {
        match io {
            Io::Wait { send, until } => (send, until),
            Io::Done(outcome) => panic!("decided early: {outcome:?}"),
        }
    }

    #[test]
    fn a_silent_read_widens_then_falls_back_on_its_own_clock() {
        let core = ClientCore::new(9, 1, 4, ClientConfig::default());
        let (mut op, io) = OpMachine::read(&core, OpCall::rdp(template!["A"]), ms(0));
        assert_eq!(sends(io), (Some(0..2), READ_PROBE_TIMEOUT), "probe f+1");
        assert_eq!(
            sends(op.on_deadline(&core, ms(10))),
            (None, READ_PROBE_TIMEOUT)
        );
        assert_eq!(
            sends(op.on_deadline(&core, ms(25))),
            (Some(2..4), READ_TIMEOUT)
        );
        assert!(matches!(
            op.message(),
            Message::ReadRequest { req_id: 1, .. }
        ));
        // Past READ_TIMEOUT: the ordered fallback, under a request id of
        // its own, retried every retry interval.
        assert_eq!(
            sends(op.on_deadline(&core, ms(500))),
            (Some(0..4), ms(1_000))
        );
        assert_eq!((op.first_req_id(), op.req_id()), (1, 2));
        assert_eq!(
            sends(op.on_deadline(&core, ms(1_000))),
            (Some(0..4), ms(1_500))
        );
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        assert_eq!(
            (load(&core.fast_read_fallbacks), load(&core.rebroadcasts)),
            (1, 1)
        );
        let reply = |replica| ReplyEnvelope {
            replica,
            req_id: 2,
            seq: 3,
            result: OpResult::Tuple(None),
            digest: None,
        };
        assert_eq!(
            sends(op.on_reply(&core, reply(0), ms(1_001))),
            (None, ms(1_500))
        );
        match op.on_reply(&core, reply(3), ms(1_002)) {
            Io::Done(outcome) => assert_eq!(outcome, Ok(OpResult::Tuple(None))),
            other => panic!("f+1 replies must decide: {other:?}"),
        }
        assert_eq!(core.watermark(), 3);
    }

    #[test]
    fn a_parked_take_stops_retrying_and_cancels_at_its_deadline() {
        let core = ClientCore::new(9, 1, 4, ClientConfig::default());
        let take = template!["J", ?x];
        let (mut op, io) = OpMachine::blocking(&core, take, WaitKind::Take, ms(0));
        assert_eq!(sends(io), (Some(0..4), ms(500)));
        let parked = |replica| ReplyEnvelope {
            replica,
            req_id: 1,
            seq: 4,
            result: OpResult::Registered,
            digest: None,
        };
        op.on_reply(&core, parked(0), ms(1));
        // Parked: the next message owed is a wake, so only the deadline
        // is left to wait for.
        assert_eq!(
            sends(op.on_reply(&core, parked(1), ms(2))),
            (None, ms(10_000))
        );
        assert_eq!(sends(op.on_deadline(&core, ms(600))), (None, ms(10_000)));
        assert_eq!(core.rebroadcasts.load(Ordering::Relaxed), 0);
        assert_eq!(
            sends(op.on_deadline(&core, ms(10_000))),
            (Some(0..4), ms(10_500))
        );
        let cancel = RequestOp::Cancel { target: 1 };
        assert!(matches!(op.message(), Message::Request(r) if r.req_id == 2 && r.op == cancel));
    }
}
