//! Transport-generic deployment runtime: the replica event loop and the
//! concurrent client handle, written against the
//! [`Transport`]/[`Mailbox`](peats_netsim::Mailbox) trait pair so the same
//! code drives every wall-clock tier — in-memory channels
//! ([`ThreadNet`](peats_netsim::ThreadNet), the fast verification tier) and
//! real TCP sockets (`peats-net`, the `peatsd` deployment tier).
//!
//! Cloned [`ReplicatedPeats`] handles invoke **concurrently**, and a handle
//! has no thread of its own. Its node's mailbox sits behind a mutex in the
//! state the clones share, and *whichever invocation is waiting reads it*:
//! the first to wait becomes the reader, keeps the replies to its own
//! `req_id` and routes every other to the channel of the in-flight
//! invocation it answers; the rest block on those channels. A reader that
//! leaves — decided, timed out, or unwinding — hands the role to a session
//! that is blocked in a wait at that moment, never to one that is merely
//! registered (a [`Subscription`] nobody is polling). So a reply to a
//! handle with one invocation in flight goes from the transport straight
//! to the thread that wants it, no invocation eats another's replies, and
//! waiting is event-driven: reply latency is set by the cluster, not by a
//! poll tick. A handle with no invocation waiting does not read at all;
//! what arrives meanwhile — the `n − (f+1)` replies that come in after a
//! decision — stays in the mailbox until the next wait drops it.

use crate::client::{
    BlockingPoll, BlockingSession, ClientSession, ReadPoll, ReadSession, WakeStreamSession,
};
use crate::messages::{Message, OpResult, ReplicaId, RequestOp, Sealed, Seq, WaitKind};
use crate::replica::{Dest, Replica};
use peats::{CasOutcome, SpaceError, SpaceResult, TupleSpace};
use peats_auth::Digest;
use peats_auth::KeyTable;
use peats_codec::Encode;
use peats_netsim::{Mailbox, NodeId, ThreadNet, Transport};
use peats_policy::OpCall;
use peats_tuplespace::{Template, Tuple};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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
    /// Serve `rd`/`rdp`/`count` over the one-round quorum fast path
    /// (default). Disable to force every read through the ordering
    /// pipeline — the baseline the `read_fast_path` benchmark compares
    /// against.
    pub fast_reads: bool,
    /// Give up on a fast-read round (and fall back to the ordered path)
    /// after this long without `f+1` fresh matching replies.
    pub read_timeout: Duration,
    /// How long the optimistic probe phase of a fast read waits before
    /// widening to every replica. A fast read first asks only a preferred
    /// `f+1` quorum — the cheapest read that can still decide — and widens
    /// (rotating the preference past the unhelpful replica) if that window
    /// stays silent this long or answers without deciding.
    pub read_probe_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retry_interval: Duration::from_millis(500),
            invoke_timeout: Duration::from_secs(10),
            first_request_id: 0,
            fast_reads: true,
            read_timeout: Duration::from_millis(500),
            read_probe_timeout: Duration::from_millis(25),
        }
    }
}

/// Seals a batch of replica outputs and hands it to the transport as one
/// [`Transport::send_batch`].
pub fn ship<T: Transport>(
    net: &T,
    keys: &KeyTable,
    me: NodeId,
    n: usize,
    outputs: Vec<(Dest, Message)>,
) {
    let mut frames = Vec::new();
    for (dest, msg) in outputs {
        // Encoded once per output: the frames of a broadcast differ only in
        // their MAC.
        let body = msg.to_bytes();
        let mut seal = |peer: u64| frames.push((peer as NodeId, Sealed::frame(keys, peer, &body)));
        match dest {
            Dest::Replica(r) => seal(u64::from(r)),
            Dest::AllReplicas => (0..n as u64).filter(|&r| r != u64::from(me)).for_each(seal),
            Dest::Client(node) => seal(node),
        }
    }
    net.send_batch(me, frames);
}

/// Most envelopes one pass takes from the mailbox before it flushes: a
/// flooding peer can keep the mailbox from ever running empty, but cannot
/// postpone a flush or the progress-timeout check by more than one capped
/// pass.
const MAX_PASS: usize = 64;

/// The replica event loop: drives one [`Replica`] state machine from a
/// transport mailbox until `stop` is set or the transport disconnects.
/// This is the loop a replica thread runs in [`ThreadedCluster`] and the
/// loop `peatsd` runs as a whole OS process — same code, different
/// [`Transport`].
///
/// The loop works in *passes*. It blocks for one envelope, then takes
/// whatever else is already waiting (up to `MAX_PASS`, 64), feeding each
/// message to [`Replica::step`] and collecting the outputs. Then it
/// flushes: outputs for other replicas (votes, checkpoints) are shipped,
/// the write-ahead log is synced — once, however many batches the pass
/// executed — and only then are the outputs for clients shipped. A client
/// therefore never sees a result that is not yet on this replica's disk,
/// and this replica's fsync is off the other replicas' critical path.
///
/// [`ThreadedCluster`]: crate::ThreadedCluster
pub fn replica_main<T: Transport>(
    replica: Arc<parking_lot::Mutex<Replica>>,
    keys: KeyTable,
    mailbox: T::Mailbox,
    net: T,
    n: usize,
    stop: Arc<AtomicBool>,
    progress_period: Duration,
) {
    let me = mailbox.id();
    let mut last_seen_exec = 0;
    // Deadline-based progress check: the next check time only moves when a
    // check actually runs, never because a message arrived. A quiet-period
    // timer (reset on every receipt) is starved forever by steady traffic —
    // a flooding Byzantine peer or staggered client retransmits could
    // suppress view changes indefinitely.
    //
    // The replica is behind a mutex (uncontended except for test
    // introspection and fault/restart injection); the lock is never held
    // across a blocking receive or a send.
    let mut next_check = Instant::now() + progress_period;
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        if now >= next_check {
            let outputs = {
                let mut replica = replica.lock();
                let last = replica.last_exec();
                let outputs = if last == last_seen_exec {
                    replica.on_progress_timeout()
                } else {
                    Vec::new()
                };
                last_seen_exec = last;
                outputs
            };
            ship(&net, &keys, me, n, outputs);
            next_check = Instant::now() + progress_period;
        }
        let wait = next_check.saturating_duration_since(Instant::now());
        let first = match mailbox.recv_timeout(wait) {
            Ok(Some(envelope)) => envelope,
            Ok(None) => continue, // deadline reached; handled at the top of the loop
            Err(_) => return,     // transport gone
        };
        let mut outputs = Vec::new();
        {
            let mut replica = replica.lock();
            let waiting = std::iter::from_fn(|| mailbox.try_recv());
            for (_, payload) in std::iter::once(first).chain(waiting).take(MAX_PASS) {
                if let Some((sender, msg)) = Sealed::open_bytes(&keys, &payload) {
                    outputs.extend(replica.step(sender, msg));
                }
            }
        }
        let (to_clients, to_replicas) = outputs
            .into_iter()
            .partition(|(dest, _)| matches!(dest, Dest::Client(_)));
        ship(&net, &keys, me, n, to_replicas);
        replica.lock().sync();
        ship(&net, &keys, me, n, to_clients);
    }
}

/// A reply addressed to an in-flight invocation by `req_id`.
enum ReplyEnvelope {
    /// An ordered-path `Reply`: the `(seq, result)` pair the replica
    /// recorded at execution.
    Ordered {
        replica: ReplicaId,
        req_id: u64,
        seq: Seq,
        result: OpResult,
    },
    /// A fast-path `ReadReply`: the replica's answer at its current
    /// execution point.
    Fast {
        replica: ReplicaId,
        req_id: u64,
        seq: Seq,
        digest: Digest,
        result: OpResult,
    },
}

impl ReplyEnvelope {
    /// The reply an opened message carries, if it is one.
    fn of(msg: Message) -> Option<ReplyEnvelope> {
        match msg {
            // A replica-pushed wake carries the same fields as an ordered
            // reply and answers the same blocked registration, so both
            // funnel into the one `Ordered` envelope; the session layer's
            // per-replica voting treats them identically.
            Message::Reply {
                req_id,
                seq,
                replica,
                result,
                ..
            }
            | Message::Wake {
                req_id,
                seq,
                result,
                replica,
            } => Some(ReplyEnvelope::Ordered {
                replica,
                req_id,
                seq,
                result,
            }),
            Message::ReadReply {
                req_id,
                seq,
                digest,
                result,
                replica,
            } => Some(ReplyEnvelope::Fast {
                replica,
                req_id,
                seq,
                digest,
                result,
            }),
            _ => None,
        }
    }

    fn req_id(&self) -> u64 {
        match self {
            ReplyEnvelope::Ordered { req_id, .. } | ReplyEnvelope::Fast { req_id, .. } => *req_id,
        }
    }

    /// The arguments of the ordered sessions' `on_reply`/`on_wake`; `None`
    /// for a fast reply (fast reads never share a `req_id` with an ordered
    /// request).
    fn ordered(self) -> Option<(ReplicaId, u64, Seq, OpResult)> {
        match self {
            ReplyEnvelope::Ordered {
                replica,
                req_id,
                seq,
                result,
            } => Some((replica, req_id, seq, result)),
            ReplyEnvelope::Fast { .. } => None,
        }
    }
}

/// What a session's channel carries.
enum Routed {
    /// A reply the reader received on this session's behalf.
    Reply(ReplyEnvelope),
    /// The reader left and offers this session the role.
    TakeOver,
}

/// One registered `req_id`.
struct Session {
    tx: mpsc::Sender<Routed>,
    /// Its owner is blocked on the channel inside [`ReplyDemux::wait`]. A
    /// registered session need not be: a [`Subscription`] between two
    /// `next_timeout` calls, or a blocked `take` while its `Cancel` runs
    /// on the same thread.
    waiting: bool,
}

/// The reader role: who receives from the mailbox.
enum Role {
    /// Nobody: no invocation is waiting.
    Free,
    /// The reader left and woke this waiting session to take over; until
    /// it does, any session entering a wait may take the role instead.
    Offered(u64),
    /// This session is inside [`ReplyDemux::wait`], receiving.
    Held(u64),
}

struct Sessions {
    by_req: BTreeMap<u64, Session>,
    reader: Role,
    /// The mailbox disconnected: nothing registers any more.
    closed: bool,
}

/// Result of one [`ReplyDemux::wait`].
enum Waited<R> {
    /// The caller's closure returned `Some`.
    Decided(R),
    /// `until` passed first.
    TimedOut,
    /// The transport is gone.
    Closed,
}

/// The client node's mailbox and the in-flight invocations it answers,
/// shared by all clones of one handle. No thread of its own: *whichever
/// invocation is waiting reads the mailbox*, keeps the replies to its own
/// `req_id` and routes the others to the channel of the session they
/// answer, so a reply to a handle with one invocation in flight wakes
/// nobody but the transport's receiver. See [`ReplyDemux::wait`].
struct ReplyDemux {
    /// Locked by the reader for as long as it reads. Who that is, is
    /// decided under `sessions` (see [`Role`]), so nobody ever queues on
    /// this lock behind a blocked receive.
    mailbox: parking_lot::Mutex<Box<dyn Mailbox>>,
    keys: KeyTable,
    /// Never held across a receive.
    sessions: parking_lot::Mutex<Sessions>,
}

impl ReplyDemux {
    fn new(mailbox: Box<dyn Mailbox>, keys: KeyTable) -> Self {
        ReplyDemux {
            mailbox: parking_lot::Mutex::new(mailbox),
            keys,
            sessions: parking_lot::Mutex::new(Sessions {
                by_req: BTreeMap::new(),
                reader: Role::Free,
                closed: false,
            }),
        }
    }

    fn register(&self, req_id: u64) -> mpsc::Receiver<Routed> {
        let (tx, rx) = mpsc::channel();
        // The closed check must happen under the sessions lock: checked
        // outside, a concurrent `close` could clear the map between the
        // check and the insert, leaving a sender that never disconnects
        // (the invocation would burn its whole timeout instead of failing
        // fast).
        let mut sessions = self.sessions.lock();
        if !sessions.closed {
            let waiting = false;
            sessions.by_req.insert(req_id, Session { tx, waiting });
        }
        // When closed, the sender is dropped here and the receiver reports
        // Disconnected immediately.
        rx
    }

    fn deregister(&self, req_id: u64) {
        self.sessions.lock().by_req.remove(&req_id);
    }

    fn route(&self, env: ReplyEnvelope) {
        if let Some(session) = self.sessions.lock().by_req.get(&env.req_id()) {
            let _ = session.tx.send(Routed::Reply(env));
        }
        // No session with that req_id: a late reply for a completed (or
        // abandoned) invocation — drop it.
    }

    fn close(&self) {
        let mut sessions = self.sessions.lock();
        sessions.closed = true;
        // Dropping the senders disconnects every waiting invocation.
        sessions.by_req.clear();
    }

    /// Waits until `until` for replies to `req_id`, handing each to
    /// `on_reply` until it returns `Some` — the one place a client
    /// invocation blocks.
    ///
    /// First comes what a sibling already routed to `rx`. Then, if no other
    /// session is reading, this one becomes the reader: it receives from
    /// the mailbox, opens each frame, keeps the replies to `req_id` and
    /// routes the rest. Otherwise it blocks on `rx`, where the reader
    /// delivers its replies and, when the reader leaves, possibly the role.
    ///
    /// The reader checks `until` before every receive, so a peer flooding
    /// the mailbox cannot keep it past its deadline, and drops what answers
    /// no registered session — including the `n − (f+1)` replies that
    /// arrived after the previous invocation decided: a handle with no
    /// invocation waiting does not read, and its mailbox keeps them until
    /// the next wait.
    fn wait<R>(
        &self,
        req_id: u64,
        rx: &mpsc::Receiver<Routed>,
        until: Instant,
        mut on_reply: impl FnMut(ReplyEnvelope) -> Option<R>,
    ) -> Waited<R> {
        let mut turn = Turn {
            demux: self,
            req_id,
            mailbox: None,
        };
        loop {
            if !turn.claim() {
                return Waited::Closed;
            }
            // As the reader, nobody routes to `rx` any more; as a waiting
            // session, the reader's sends from here on wake the receive
            // below. Either way this drains what came before.
            loop {
                match rx.try_recv() {
                    Ok(Routed::Reply(env)) => {
                        if let Some(decided) = on_reply(env) {
                            return Waited::Decided(decided);
                        }
                    }
                    Ok(Routed::TakeOver) => {} // an offer already passed on
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => return Waited::Closed,
                }
            }
            if let Some(mailbox) = &turn.mailbox {
                loop {
                    let left = until.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Waited::TimedOut;
                    }
                    let payload = match mailbox.recv_timeout(left) {
                        Ok(Some((_, payload))) => payload,
                        Ok(None) => return Waited::TimedOut,
                        Err(_) => {
                            // The transport is gone: fail every waiter fast.
                            self.close();
                            return Waited::Closed;
                        }
                    };
                    let Some(env) = Sealed::open_bytes(&self.keys, &payload)
                        .and_then(|(_, msg)| ReplyEnvelope::of(msg))
                    else {
                        continue;
                    };
                    if env.req_id() != req_id {
                        self.route(env);
                    } else if let Some(decided) = on_reply(env) {
                        return Waited::Decided(decided);
                    }
                }
            }
            loop {
                let left = until.saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(Routed::Reply(env)) => {
                        if let Some(decided) = on_reply(env) {
                            return Waited::Decided(decided);
                        }
                    }
                    Ok(Routed::TakeOver) => break, // claim it
                    Err(mpsc::RecvTimeoutError::Timeout) => return Waited::TimedOut,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return Waited::Closed,
                }
            }
        }
    }
}

/// One session's stay inside [`ReplyDemux::wait`]: the reader while
/// `mailbox` is held, blocked on its own channel otherwise. Dropping it —
/// decided, timed out, or unwinding from a panic — releases the mailbox
/// and passes the reader role on.
struct Turn<'a> {
    demux: &'a ReplyDemux,
    req_id: u64,
    mailbox: Option<parking_lot::MutexGuard<'a, Box<dyn Mailbox>>>,
}

impl Turn<'_> {
    /// Takes the reader role unless another session holds it, in which
    /// case this one counts as waiting. `false` when the demux is closed.
    fn claim(&mut self) -> bool {
        let reads = {
            let mut sessions = self.demux.sessions.lock();
            let reads = !matches!(sessions.reader, Role::Held(_));
            let Some(session) = sessions.by_req.get_mut(&self.req_id) else {
                return false;
            };
            session.waiting = !reads;
            if reads {
                sessions.reader = Role::Held(self.req_id);
            }
            reads
        };
        if reads {
            // Free: a reader releases it before it gives up the role.
            self.mailbox = Some(self.demux.mailbox.lock());
        }
        true
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.mailbox = None;
        let sessions = &mut *self.demux.sessions.lock();
        if let Some(session) = sessions.by_req.get_mut(&self.req_id) {
            session.waiting = false;
        }
        // Holding the role, or an offer of it this session did not take up
        // (its reply came first): hand it to a session that is blocked in
        // `wait` right now — a registered session whose owner is elsewhere
        // would sit on the role while every waiter starved.
        if matches!(sessions.reader, Role::Held(id) | Role::Offered(id) if id == self.req_id) {
            let next = sessions.by_req.iter().find(|(_, session)| session.waiting);
            sessions.reader = match next {
                Some((&req_id, session)) => {
                    let _ = session.tx.send(Routed::TakeOver);
                    Role::Offered(req_id)
                }
                None => Role::Free,
            };
        }
    }
}

/// Deregisters an invocation's demux session on every exit path.
struct SessionGuard<'a> {
    demux: &'a ReplyDemux,
    req_id: u64,
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.demux.deregister(self.req_id);
    }
}

/// Observability counters shared by all clones of one handle.
#[derive(Debug, Default)]
struct ClientStats {
    rebroadcasts: AtomicU64,
    in_flight: AtomicU64,
    max_in_flight: AtomicU64,
    fast_reads: AtomicU64,
    fast_read_fallbacks: AtomicU64,
}

/// Client handle onto a replicated PEATS cluster reached over any
/// [`Transport`]; implements [`peats::TupleSpace`], so all algorithms run
/// on it unchanged. Clones share the node's identity, request counter, and
/// mailbox — and invoke **concurrently**.
///
/// The default transport parameter keeps the thread-backed tier's spelling:
/// `ReplicatedPeats` is the in-memory handle handed out by
/// [`ThreadedCluster::handle`](crate::ThreadedCluster::handle), while
/// `ReplicatedPeats<TcpTransport>` is a real network client.
#[derive(Clone)]
pub struct ReplicatedPeats<T: Transport = ThreadNet> {
    net: T,
    demux: Arc<ReplyDemux>,
    keys: KeyTable,
    node: NodeId,
    pid: u64,
    f: usize,
    n_replicas: usize,
    next_req: Arc<AtomicU64>,
    cfg: ClientConfig,
    stats: Arc<ClientStats>,
    /// Read watermark: the highest *quorum-backed* seq this handle has
    /// observed — advanced by every accepted ordered reply and every
    /// accepted fast read. Fast reads demand a quorum at or above it,
    /// which is exactly read-your-writes: the quorum has executed every
    /// operation this handle ever had acknowledged. Only quorum-backed
    /// seqs advance it, so a Byzantine replica claiming `seq = u64::MAX`
    /// cannot wedge the handle into permanent ordered fallback.
    watermark: Arc<AtomicU64>,
    /// Start of the preferred `f+1` probe window for fast reads. Rotated
    /// whenever a probe fails to decide, so a crashed, slow, or Byzantine
    /// replica only taxes the first read that probes it.
    probe_offset: Arc<AtomicU64>,
}

impl<T: Transport> ReplicatedPeats<T> {
    /// Builds a client handle for logical process `pid` at transport node
    /// `mailbox.id()`. The handle keeps `mailbox` (until its last clone
    /// and last [`Subscription`] are dropped) and starts no thread: replies
    /// are received by whichever invocation is waiting for one. The
    /// cluster has `n_replicas = 3f+1` replicas at node ids
    /// `0..n_replicas`; `keys` must hold this node's pairwise MACs.
    pub fn connect(
        net: T,
        mailbox: T::Mailbox,
        keys: KeyTable,
        pid: u64,
        f: usize,
        n_replicas: usize,
        cfg: ClientConfig,
    ) -> Self {
        let node = mailbox.id();
        ReplicatedPeats {
            net,
            demux: Arc::new(ReplyDemux::new(Box::new(mailbox), keys.clone())),
            keys,
            node,
            pid,
            f,
            n_replicas,
            next_req: Arc::new(AtomicU64::new(cfg.first_request_id)),
            cfg,
            stats: Arc::new(ClientStats::default()),
            watermark: Arc::new(AtomicU64::new(0)),
            probe_offset: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Sends `msg` to every replica: encoded once, MAC'd per recipient.
    fn broadcast(&self, msg: &Message) {
        let body = msg.to_bytes();
        for r in 0..self.n_replicas as NodeId {
            let frame = Sealed::frame(&self.keys, u64::from(r), &body);
            self.net.send(self.node, r, frame);
        }
    }

    fn invoke(&self, op: OpCall<'static>) -> SpaceResult<OpResult> {
        self.invoke_op(RequestOp::Call(op))
    }

    fn invoke_op(&self, op: RequestOp) -> SpaceResult<OpResult> {
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        let rx = self.demux.register(req_id);
        let _session_guard = SessionGuard {
            demux: &self.demux,
            req_id,
        };
        let mut session = ClientSession::new_op(self.pid, req_id, op, self.f);
        self.broadcast(&session.request_message());
        // Track in-flight depth (tests assert clones genuinely overlap).
        let depth = self.stats.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.max_in_flight.fetch_max(depth, Ordering::Relaxed);
        let result = (|| {
            let deadline = Instant::now() + self.cfg.invoke_timeout;
            let mut next_retry = Instant::now() + self.cfg.retry_interval;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    return Err(SpaceError::Unavailable(
                        "no f+1 matching replies before timeout".into(),
                    ));
                }
                if now >= next_retry {
                    self.broadcast(&session.request_message());
                    self.stats.rebroadcasts.fetch_add(1, Ordering::Relaxed);
                    // Reset from *now*, not the missed tick: after a long
                    // stall (`+= interval` drifting behind the clock) every
                    // banked tick would fire a rebroadcast back-to-back.
                    next_retry = Instant::now() + self.cfg.retry_interval;
                }
                // Event-driven wait, until the earlier of the retry and
                // overall deadlines: latency is the cluster's decision
                // time, not a poll-tick quantum.
                let until = next_retry.min(deadline);
                match self.demux.wait(req_id, &rx, until, |env| {
                    let (replica, rid, seq, result) = env.ordered()?;
                    session.on_reply(replica, rid, seq, result)
                }) {
                    Waited::Decided((seq, result)) => {
                        // Read-your-writes: every future fast read must
                        // come from a quorum that has executed this slot.
                        self.watermark.fetch_max(seq, Ordering::Relaxed);
                        return Ok(result);
                    }
                    Waited::TimedOut => {}
                    Waited::Closed => return Err(shut_down()),
                }
            }
        })();
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        result
    }

    /// Read-only invocation: try the one-round quorum fast path, falling
    /// back to the full ordering pipeline on timeout or when replicas
    /// disagree. `op` must be `rd`/`rdp`/`count` — replicas refuse to
    /// fast-serve anything else.
    fn invoke_read(&self, op: OpCall<'static>) -> SpaceResult<OpResult> {
        if !self.cfg.fast_reads {
            return self.invoke(op);
        }
        match self.try_fast_read(&op) {
            Some(result) => {
                self.stats.fast_reads.fetch_add(1, Ordering::Relaxed);
                Ok(result)
            }
            None => {
                self.stats
                    .fast_read_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
                self.invoke(op)
            }
        }
    }

    /// One fast-read round: ask replicas for the read, accept a result
    /// backed by `f+1` replicas agreeing on `(seq, digest)` at
    /// `seq ≥ watermark`. `None` means fall back (timeout, disagreement,
    /// or shutdown — the ordered path reports the terminal error).
    ///
    /// The request goes out in two phases. The *probe* asks only a
    /// preferred `f+1` window of replicas — exactly the quorum that can
    /// decide, so the common fault-free case pays for `f+1` request/reply
    /// pairs instead of `3f+1`. If the window answers without deciding
    /// (stale, Byzantine, or conflicting replies) or stays silent past
    /// `read_probe_timeout`, the read *widens* to the remaining replicas
    /// and rotates the preferred window, so an unhelpful replica only
    /// taxes the reads that first discover it.
    fn try_fast_read(&self, op: &OpCall<'static>) -> Option<OpResult> {
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        let rx = self.demux.register(req_id);
        let _session_guard = SessionGuard {
            demux: &self.demux,
            req_id,
        };
        let watermark = self.watermark.load(Ordering::Relaxed);
        let mut session = ReadSession::new(req_id, watermark, self.f, self.n_replicas);
        let msg = Message::ReadRequest {
            client: self.pid,
            req_id,
            op: op.clone(),
            watermark,
        };
        let quorum = self.f + 1;
        let probe = self.probe_offset.load(Ordering::Relaxed) as usize % self.n_replicas;
        let body = msg.to_bytes();
        let send_to = |i: usize| {
            let r = ((probe + i) % self.n_replicas) as NodeId;
            let frame = Sealed::frame(&self.keys, u64::from(r), &body);
            self.net.send(self.node, r, frame);
        };
        for i in 0..quorum.min(self.n_replicas) {
            send_to(i);
        }
        let deadline = Instant::now() + self.cfg.read_timeout;
        let probe_deadline =
            Instant::now() + self.cfg.read_probe_timeout.min(self.cfg.read_timeout);
        let mut widened = quorum >= self.n_replicas;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if !widened && (now >= probe_deadline || session.responders() >= quorum) {
                widened = true;
                self.probe_offset.fetch_add(1, Ordering::Relaxed);
                for i in quorum..self.n_replicas {
                    send_to(i);
                }
            }
            let until = if widened {
                deadline
            } else {
                probe_deadline.min(deadline)
            };
            let poll = self.demux.wait(req_id, &rx, until, |env| {
                let ReplyEnvelope::Fast {
                    replica,
                    req_id: rid,
                    seq,
                    digest,
                    result,
                } = env
                else {
                    return None;
                };
                match session.on_read_reply(replica, rid, seq, digest, result) {
                    // Undecided, and nothing at the top of the loop to do
                    // about it (the probe window has not all answered, or
                    // the read is as wide as it gets): keep waiting.
                    ReadPoll::Pending if widened || session.responders() < quorum => None,
                    poll => Some(poll),
                }
            });
            match poll {
                Waited::Decided(ReadPoll::Accepted { seq, result }) => {
                    // An accepted fast read is quorum-backed: it, too,
                    // advances the watermark (monotonic reads).
                    self.watermark.fetch_max(seq, Ordering::Relaxed);
                    return Some(result);
                }
                Waited::Decided(ReadPoll::NoQuorum) | Waited::Closed => return None,
                // The probe window answered without deciding, or ran out
                // of time: loop back to widen. The overall deadline check
                // at the top of the loop ends the round.
                Waited::Decided(ReadPoll::Pending) | Waited::TimedOut => {}
            }
        }
    }

    /// Blocking `rd`/`take`: one ordered `Register` parks a template at
    /// every replica, then the invocation *waits* — replicas push a `Wake`
    /// when a committed `out` matches, so a blocked read costs exactly one
    /// consensus round (plus one for the wake-carrying `out` it shares)
    /// instead of a consensus round per poll tick.
    ///
    /// Past `invoke_timeout` the registration is detached with an ordered
    /// `Cancel`; the cancel and a concurrent match race *in the total
    /// order*, so one final `Register` retransmit reads the authoritative
    /// outcome from the replicas' reply caches: a cached tuple means the
    /// match committed first (the tuple is ours — returning `Unavailable`
    /// would leak it), a cached `Registered` means the cancel won.
    fn invoke_blocking(&self, template: &Template, kind: WaitKind) -> SpaceResult<Tuple> {
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        let rx = self.demux.register(req_id);
        let _session_guard = SessionGuard {
            demux: &self.demux,
            req_id,
        };
        let mut session =
            BlockingSession::new(self.pid, req_id, template.clone(), kind, false, self.f);
        self.broadcast(&session.request_message());
        let depth = self.stats.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.max_in_flight.fetch_max(depth, Ordering::Relaxed);
        let result = (|| {
            let deadline = Instant::now() + self.cfg.invoke_timeout;
            let mut next_retry = Instant::now() + self.cfg.retry_interval;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                if now >= next_retry && session.parked_at().is_none() {
                    // Only the un-acknowledged phase retransmits: once f+1
                    // replicas confirmed the park, the next message we are
                    // owed is a pushed wake, not a reply.
                    self.broadcast(&session.request_message());
                    self.stats.rebroadcasts.fetch_add(1, Ordering::Relaxed);
                    next_retry = Instant::now() + self.cfg.retry_interval;
                }
                // Parked, there is no retry to wake up for: a retry tick
                // already in the past would turn this wait into a spin.
                let until = match session.parked_at() {
                    Some(_) => deadline,
                    None => next_retry.min(deadline),
                };
                match self.demux.wait(req_id, &rx, until, |env| {
                    let (replica, rid, seq, result) = env.ordered()?;
                    match session.on_reply(replica, rid, seq, result) {
                        BlockingPoll::Decided(seq, result) => Some((seq, result)),
                        BlockingPoll::Parked(seq) => {
                            // The registration itself committed at `seq`;
                            // read-your-writes covers it like any write.
                            self.watermark.fetch_max(seq, Ordering::Relaxed);
                            None
                        }
                        BlockingPoll::Pending => None,
                    }
                }) {
                    Waited::Decided((seq, result)) => {
                        self.watermark.fetch_max(seq, Ordering::Relaxed);
                        return self.finish_blocking(result);
                    }
                    Waited::TimedOut => {}
                    Waited::Closed => return Err(shut_down()),
                }
            }
            // Deadline passed while parked (or never acknowledged). Detach
            // the registration in the total order, then settle the race.
            // This thread is outside `wait` here, so the cancel's own wait
            // can read the mailbox although `req_id` is still registered.
            self.invoke_op(RequestOp::Cancel { target: req_id })?;
            // A new vote: the acks that parked the old one would outvote
            // the first cached tuple to come back and call the race for
            // the cancel.
            let mut session =
                BlockingSession::new(self.pid, req_id, template.clone(), kind, false, self.f);
            self.broadcast(&session.request_message());
            let settle = Instant::now() + self.cfg.retry_interval;
            match self.demux.wait(req_id, &rx, settle, |env| {
                let (replica, rid, seq, result) = env.ordered()?;
                match session.on_reply(replica, rid, seq, result) {
                    BlockingPoll::Decided(seq, result) => Some(Some((seq, result))),
                    // Still `Registered` in the caches: the cancel won.
                    BlockingPoll::Parked(_) => Some(None),
                    BlockingPoll::Pending => None,
                }
            }) {
                Waited::Decided(Some((seq, result))) => {
                    self.watermark.fetch_max(seq, Ordering::Relaxed);
                    self.finish_blocking(result)
                }
                Waited::Decided(None) | Waited::TimedOut => Err(SpaceError::Unavailable(
                    "blocked operation timed out and was cancelled".into(),
                )),
                Waited::Closed => Err(shut_down()),
            }
        })();
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn finish_blocking(&self, result: OpResult) -> SpaceResult<Tuple> {
        match result {
            OpResult::Tuple(Some(t)) => Ok(t),
            OpResult::Denied(d) => Err(denied(d)),
            other => Err(SpaceError::Unavailable(format!(
                "unexpected result {other:?}"
            ))),
        }
    }

    /// Parks a *persistent* registration for `template`: every future
    /// committed `out` that matches is pushed to the returned
    /// [`Subscription`] as a certified event, in commit order, without any
    /// client polling. The live tail starts at the registration's commit
    /// slot — tuples already in the space are not replayed (pair with
    /// [`rdp`](TupleSpace::rdp) for a snapshot-then-follow pattern).
    pub fn subscribe(&self, template: &Template) -> SpaceResult<Subscription<T>> {
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        let rx = self.demux.register(req_id);
        let mut park = BlockingSession::new(
            self.pid,
            req_id,
            template.clone(),
            WaitKind::Rd,
            true,
            self.f,
        );
        let mut stream = WakeStreamSession::new(req_id, self.f, self.n_replicas);
        let mut pending = VecDeque::new();
        self.broadcast(&park.request_message());
        let deadline = Instant::now() + self.cfg.invoke_timeout;
        let mut next_retry = Instant::now() + self.cfg.retry_interval;
        let registered = loop {
            let now = Instant::now();
            if now >= deadline {
                break Err(SpaceError::Unavailable(
                    "no f+1 registration acks before timeout".into(),
                ));
            }
            if now >= next_retry {
                self.broadcast(&park.request_message());
                self.stats.rebroadcasts.fetch_add(1, Ordering::Relaxed);
                next_retry = Instant::now() + self.cfg.retry_interval;
            }
            let until = next_retry.min(deadline);
            match self.demux.wait(req_id, &rx, until, |env| {
                let (replica, rid, seq, result) = env.ordered()?;
                // Wakes racing the park acknowledgement are certified
                // through the stream session and queued so the subscriber
                // sees them; `Registered` acks feed the park vote. Both
                // sessions are fed — each ignores what the other consumes.
                if let Some((seq, result)) = stream.on_wake(replica, rid, seq, result.clone()) {
                    self.watermark.fetch_max(seq, Ordering::Relaxed);
                    match result {
                        OpResult::Tuple(Some(t)) => pending.push_back(t),
                        OpResult::Denied(d) => return Some(Err(denied(d))),
                        _ => {}
                    }
                }
                match park.on_reply(replica, rid, seq, result) {
                    BlockingPoll::Decided(seq, OpResult::Denied(d)) => {
                        self.watermark.fetch_max(seq, Ordering::Relaxed);
                        Some(Err(denied(d)))
                    }
                    // Parked is the normal ack; a decided (non-denied)
                    // quorum means wakes outran the `Registered` acks —
                    // the registration is committed and live either way.
                    BlockingPoll::Parked(seq) | BlockingPoll::Decided(seq, _) => {
                        self.watermark.fetch_max(seq, Ordering::Relaxed);
                        Some(Ok(()))
                    }
                    BlockingPoll::Pending => None,
                }
            }) {
                Waited::Decided(registered) => break registered,
                Waited::TimedOut => {}
                Waited::Closed => break Err(shut_down()),
            }
        };
        match registered {
            Ok(()) => Ok(Subscription {
                handle: self.clone(),
                req_id,
                rx,
                stream,
                pending,
                cancelled: false,
            }),
            Err(e) => {
                self.demux.deregister(req_id);
                Err(e)
            }
        }
    }

    fn expect_tuple(&self, r: OpResult) -> SpaceResult<Option<Tuple>> {
        match r {
            OpResult::Tuple(t) => Ok(t),
            OpResult::Denied(d) => Err(denied(d)),
            other => Err(SpaceError::Unavailable(format!(
                "unexpected result {other:?}"
            ))),
        }
    }

    /// Total requests issued through this handle and its clones (each is
    /// one consensus round).
    pub fn issued_requests(&self) -> u64 {
        self.next_req.load(Ordering::Relaxed) - self.cfg.first_request_id
    }

    /// Total retry re-broadcasts issued by this handle and its clones. A
    /// healthy cluster decides well inside the retry interval, so this
    /// staying at zero is how tests prove no reply was lost or eaten.
    pub fn rebroadcasts(&self) -> u64 {
        self.stats.rebroadcasts.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently in-flight invocations across all
    /// clones of this handle.
    pub fn max_concurrent_invokes(&self) -> u64 {
        self.stats.max_in_flight.load(Ordering::Relaxed)
    }

    /// Reads served by the one-round fast path (no ordering round).
    pub fn fast_reads_served(&self) -> u64 {
        self.stats.fast_reads.load(Ordering::Relaxed)
    }

    /// Fast-read rounds that fell back to the ordered path (timeout or
    /// replica disagreement). A healthy quiescent cluster keeps this at 0.
    pub fn fast_read_fallbacks(&self) -> u64 {
        self.stats.fast_read_fallbacks.load(Ordering::Relaxed)
    }

    /// The handle's current read watermark (highest quorum-backed seq
    /// observed).
    pub fn read_watermark(&self) -> Seq {
        self.watermark.load(Ordering::Relaxed)
    }
}

/// A live, certified stream of tuples matching a persistent registration:
/// the replicated pub/sub primitive. Every committed `out` whose tuple
/// matches the subscribed template is pushed by the replicas as a `Wake`;
/// the subscription delivers each commit slot exactly once, in order, and
/// only after `f+1` replicas agree on the slot's payload — a Byzantine
/// replica cannot inject, reorder, or duplicate events.
///
/// Dropping the subscription fires a best-effort `Cancel` broadcast (the
/// replicas prune the registration when it commits); call
/// [`cancel`](Subscription::cancel) instead to *confirm* removal with a
/// full ordered round.
pub struct Subscription<T: Transport = ThreadNet> {
    handle: ReplicatedPeats<T>,
    req_id: u64,
    rx: mpsc::Receiver<Routed>,
    stream: WakeStreamSession,
    /// Events certified while the subscribe handshake was still in flight.
    pending: VecDeque<Tuple>,
    cancelled: bool,
}

impl<T: Transport> Subscription<T> {
    /// Waits up to `timeout` for the next certified event. `Ok(None)`
    /// means no event arrived in time — the subscription stays live.
    pub fn next_timeout(&mut self, timeout: Duration) -> SpaceResult<Option<Tuple>> {
        if let Some(t) = self.pending.pop_front() {
            return Ok(Some(t));
        }
        // Inside this call the subscription is a waiting session like any
        // invocation (it may read the mailbox for its siblings); between
        // calls it is only registered, and siblings queue its events.
        let until = Instant::now() + timeout;
        let event = self.handle.demux.wait(self.req_id, &self.rx, until, |env| {
            let (replica, rid, seq, result) = env.ordered()?;
            let (seq, result) = self.stream.on_wake(replica, rid, seq, result)?;
            self.handle.watermark.fetch_max(seq, Ordering::Relaxed);
            match result {
                OpResult::Tuple(Some(t)) => Some(Ok(t)),
                OpResult::Denied(d) => Some(Err(denied(d))),
                _ => None,
            }
        });
        match event {
            Waited::Decided(event) => event.map(Some),
            Waited::TimedOut => Ok(None),
            Waited::Closed => Err(shut_down()),
        }
    }

    /// Tears the registration down with a full ordered `Cancel` round —
    /// on `Ok`, the replicas have provably pruned it.
    pub fn cancel(mut self) -> SpaceResult<()> {
        self.cancelled = true;
        self.handle.demux.deregister(self.req_id);
        self.handle.invoke_op(RequestOp::Cancel {
            target: self.req_id,
        })?;
        Ok(())
    }
}

impl<T: Transport> Drop for Subscription<T> {
    fn drop(&mut self) {
        self.handle.demux.deregister(self.req_id);
        if self.cancelled {
            return;
        }
        // Best-effort detach: one unacknowledged Cancel broadcast. Blocking
        // on an ordered round inside Drop could stall the caller for the
        // whole invoke timeout; if every copy of this broadcast is lost the
        // registration survives until a later Cancel with the same target
        // (replicas bound registration memory per client, not per drop).
        let cancel = crate::messages::Request {
            client: self.handle.pid,
            req_id: self
                .handle
                .next_req
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1,
            op: RequestOp::Cancel {
                target: self.req_id,
            },
        };
        self.handle.broadcast(&Message::Request(cancel));
    }
}

/// What a waiter reports once the transport is gone.
fn shut_down() -> SpaceError {
    SpaceError::Unavailable("cluster shut down".into())
}

fn denied(detail: String) -> SpaceError {
    SpaceError::Denied(peats_policy::Decision::Denied {
        attempts: vec![("replicated".into(), detail)],
    })
}

impl<T: Transport> TupleSpace for ReplicatedPeats<T> {
    fn out(&self, entry: Tuple) -> SpaceResult<()> {
        match self.invoke(OpCall::out(entry))? {
            OpResult::Done => Ok(()),
            OpResult::Denied(d) => Err(denied(d)),
            other => Err(SpaceError::Unavailable(format!(
                "unexpected result {other:?}"
            ))),
        }
    }

    fn rdp(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        let r = self.invoke_read(OpCall::rdp(template.clone()))?;
        self.expect_tuple(r)
    }

    fn inp(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        let r = self.invoke(OpCall::inp(template.clone()))?;
        self.expect_tuple(r)
    }

    fn cas(&self, template: &Template, entry: Tuple) -> SpaceResult<CasOutcome> {
        match self.invoke(OpCall::cas(template.clone(), entry))? {
            OpResult::Cas { inserted: true, .. } => Ok(CasOutcome::Inserted),
            OpResult::Cas {
                inserted: false,
                found: Some(t),
            } => Ok(CasOutcome::Found(t)),
            OpResult::Denied(d) => Err(denied(d)),
            other => Err(SpaceError::Unavailable(format!(
                "unexpected result {other:?}"
            ))),
        }
    }

    fn rd(&self, template: &Template) -> SpaceResult<Tuple> {
        // Blocking semantics are server-driven: one ordered Register parks
        // the template at every replica, and the matching `out`'s commit
        // pushes the wake — no client polling, no consensus round per tick.
        self.invoke_blocking(template, WaitKind::Rd)
    }

    fn take(&self, template: &Template) -> SpaceResult<Tuple> {
        self.invoke_blocking(template, WaitKind::Take)
    }

    fn count(&self, template: &Template) -> SpaceResult<usize> {
        match self.invoke_read(OpCall::count(template.clone()))? {
            OpResult::Count(n) => Ok(usize::try_from(n).unwrap_or(usize::MAX)),
            OpResult::Denied(d) => Err(denied(d)),
            other => Err(SpaceError::Unavailable(format!(
                "unexpected result {other:?}"
            ))),
        }
    }

    fn process_id(&self) -> peats_policy::ProcessId {
        self.pid
    }
}

impl<T: Transport> std::fmt::Debug for ReplicatedPeats<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedPeats")
            .field("pid", &self.pid)
            .field("replicas", &self.n_replicas)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{batch_digest, Request};
    use crate::replica::ReplicaConfig;
    use crate::service::PeatsService;
    use crate::wal::DurableStore;
    use peats_netsim::{Disconnected, Envelope};
    use peats_policy::{Policy, PolicyParams};
    use peats_tuplespace::{template, tuple};

    const MASTER: &[u8] = b"runtime-test-master";
    const CLIENT_NODE: NodeId = 4;
    const CLIENT_PID: u64 = 100;

    /// One frame `replica_main` sent: where to, which message, and how many
    /// WAL syncs the replica had done by then.
    struct Sent {
        to: NodeId,
        msg: Message,
        syncs_before: u64,
    }

    /// A transport that delivers nothing and records everything.
    #[derive(Clone)]
    struct RecordingNet {
        replica: Arc<parking_lot::Mutex<Replica>>,
        sent: Arc<parking_lot::Mutex<Vec<Sent>>>,
    }

    impl Transport for RecordingNet {
        type Mailbox = ScriptedMailbox;

        fn send(&self, _from: NodeId, to: NodeId, payload: Vec<u8>) {
            let syncs_before = self.replica.lock().footprint().wal_syncs;
            self.sent.lock().push(Sent {
                to,
                msg: opened_by(to, &payload),
                syncs_before,
            });
        }

        fn peers(&self) -> Vec<NodeId> {
            (0..4).collect()
        }
    }

    /// What a test can see of a [`ScriptedMailbox`] it gave away.
    #[derive(Default)]
    struct Seen {
        /// Envelopes taken out of it (the flood's not counted).
        received: AtomicU64,
        dropped: AtomicBool,
    }

    /// A mailbox fed by the test; with `flood` set it is never empty — a
    /// peer refilling it faster than the loop drains it, with no memory.
    struct ScriptedMailbox {
        id: NodeId,
        rx: mpsc::Receiver<Envelope>,
        flood: Option<Envelope>,
        seen: Arc<Seen>,
    }

    impl ScriptedMailbox {
        fn new(id: NodeId, rx: mpsc::Receiver<Envelope>) -> Self {
            ScriptedMailbox {
                id,
                rx,
                flood: None,
                seen: Arc::default(),
            }
        }

        fn took(&self, envelope: Envelope) -> Envelope {
            self.seen.received.fetch_add(1, Ordering::Relaxed);
            envelope
        }
    }

    impl Drop for ScriptedMailbox {
        fn drop(&mut self) {
            self.seen.dropped.store(true, Ordering::SeqCst);
        }
    }

    impl Mailbox for ScriptedMailbox {
        fn id(&self) -> NodeId {
            self.id
        }

        fn recv(&self) -> Option<Envelope> {
            self.rx.recv().ok().map(|e| self.took(e))
        }

        fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Disconnected> {
            if let Some(envelope) = self.try_recv() {
                return Ok(Some(envelope));
            }
            match self.rx.recv_timeout(timeout) {
                Ok(envelope) => Ok(Some(self.took(envelope))),
                Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(Disconnected),
            }
        }

        fn try_recv(&self) -> Option<Envelope> {
            let queued = self.rx.try_recv().ok().map(|e| self.took(e));
            queued.or_else(|| self.flood.clone())
        }
    }

    fn replica(id: u32) -> Replica {
        Replica::new(
            ReplicaConfig {
                batch_cap: 1,
                max_in_flight: 2,
                ..ReplicaConfig::new(id, 4, 1)
            },
            PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap(),
            [(u64::from(CLIENT_NODE), CLIENT_PID)].into_iter().collect(),
        )
    }

    fn request(i: u64) -> Request {
        Request::call(CLIENT_PID, i, OpCall::out(tuple!["T", i as i64]))
    }

    /// The message in `frame`, which must open with node `to`'s keys: the
    /// code under test seals every frame for the node it sends it to.
    fn opened_by(to: NodeId, frame: &[u8]) -> Message {
        let keys = KeyTable::new(u64::from(to), MASTER.to_vec());
        let (_, msg) = Sealed::open_bytes(&keys, frame).expect("sealed for its recipient");
        msg
    }

    /// `msg` as node `from` would put it on the wire for replica `to`.
    fn sealed(from: NodeId, to: u32, msg: &Message) -> Envelope {
        let keys = KeyTable::new(u64::from(from), MASTER.to_vec());
        (from, Sealed::frame(&keys, u64::from(to), &msg.to_bytes()))
    }

    /// Runs `replica_main` for `replica` (node `id`) over a scripted mailbox until
    /// `done` holds for the frames it sent (or 10 s pass).
    fn run_until(
        id: NodeId,
        replica: Replica,
        script: Vec<Envelope>,
        flood: Option<Envelope>,
        progress_period: Duration,
        done: impl Fn(&[Sent]) -> bool,
    ) -> (Vec<Sent>, Replica) {
        let replica = Arc::new(parking_lot::Mutex::new(replica));
        let net = RecordingNet {
            replica: Arc::clone(&replica),
            sent: Arc::default(),
        };
        let (tx, rx) = mpsc::channel();
        script.into_iter().for_each(|e| tx.send(e).unwrap());
        let mut mailbox = ScriptedMailbox::new(id, rx);
        mailbox.flood = flood;
        let stop = Arc::new(AtomicBool::new(false));
        let main = {
            let (replica, net, stop) = (Arc::clone(&replica), net.clone(), Arc::clone(&stop));
            let keys = KeyTable::new(u64::from(id), MASTER.to_vec());
            std::thread::spawn(move || {
                replica_main::<RecordingNet>(replica, keys, mailbox, net, 4, stop, progress_period)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done(&net.sent.lock()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Checked before the join: a loop stuck inside one endless pass
        // never looks at `stop`, and must fail the test, not hang it.
        assert!(done(&net.sent.lock()), "replica_main never got there");
        stop.store(true, Ordering::Relaxed);
        drop(tx); // an idle loop wakes on the disconnect
        main.join().expect("replica_main panicked");
        let sent = std::mem::take(&mut *net.sent.lock());
        drop(net);
        let replica = Arc::try_unwrap(replica)
            .unwrap_or_else(|_| panic!("replica_main kept the replica"))
            .into_inner();
        (sent, replica)
    }

    #[test]
    fn a_pass_ships_votes_before_its_one_sync_and_replies_after() {
        let dir = crate::wal::fresh_dir("runtime-pass");
        let (store, recovery) = DurableStore::open(&dir, Default::default()).unwrap();
        let mut primary = replica(0);
        primary.restore_durable(store, recovery);

        // Everything two slots need, waiting in the mailbox before the loop
        // starts: one pass.
        let mut script = vec![
            sealed(CLIENT_NODE, 0, &Message::Request(request(1))),
            sealed(CLIENT_NODE, 0, &Message::Request(request(2))),
        ];
        for seq in [1, 2] {
            let digest = batch_digest(&[request(seq)]);
            for replica in [1, 2] {
                let prepare = Message::Prepare {
                    view: 0,
                    seq,
                    digest,
                    replica,
                };
                script.push(sealed(replica, 0, &prepare));
            }
            for replica in [1, 2] {
                let commit = Message::Commit {
                    view: 0,
                    seq,
                    digest,
                    replica,
                };
                script.push(sealed(replica, 0, &commit));
            }
        }
        let replies = |sent: &[Sent]| sent.iter().filter(|s| s.to == CLIENT_NODE).count();
        let (sent, primary) =
            run_until(0, primary, script, None, Duration::from_secs(60), |sent| {
                replies(sent) == 2
            });

        assert_eq!(replies(&sent), 2, "both slots executed and answered");
        let fp = primary.footprint();
        assert_eq!(
            (fp.wal_appends, fp.wal_syncs),
            (2, 1),
            "two slots in one pass"
        );
        for s in &sent {
            match s.to {
                CLIENT_NODE => {
                    assert!(matches!(s.msg, Message::Reply { .. }));
                    assert_eq!(s.syncs_before, 1, "a reply waits for its pass's sync");
                }
                _ => assert_eq!(s.syncs_before, 0, "{:?} must not wait for it", s.msg),
            }
        }
        let commits_out = sent
            .iter()
            .filter(|s| matches!(s.msg, Message::Commit { .. }))
            .count();
        assert_eq!(commits_out, 2 * 3, "both slots' commit votes, to 3 peers");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_mailbox_that_never_runs_empty_cannot_starve_the_progress_check() {
        // A backup holding a request its (dead) primary never orders, and a
        // peer whose junk keeps `try_recv` from ever returning `None`: only
        // the pass cap gets the loop back to its progress deadline.
        let script = vec![sealed(CLIENT_NODE, 1, &Message::Request(request(1)))];
        let junk = (3, Vec::new());
        // The view-change vote must go out despite the flood.
        run_until(
            1,
            replica(1),
            script,
            Some(junk),
            Duration::from_millis(20),
            |sent| {
                sent.iter()
                    .any(|s| matches!(s.msg, Message::ViewChange { .. }))
            },
        );
    }

    // ---- The client handle over scripted replicas ----

    /// What each scripted replica answers to each message it is sent.
    type Answer = dyn Fn(ReplicaId, &Message) -> Vec<Message> + Send + Sync;

    /// The cluster as a client handle sees it: every frame the handle sends
    /// is opened as the replica it addresses and answered, into the
    /// client's mailbox, with whatever `answer` has that replica say.
    #[derive(Clone)]
    struct ScriptedReplicas {
        /// `None` once the test shut the transport down.
        inbox: Arc<parking_lot::Mutex<Option<mpsc::Sender<Envelope>>>>,
        answer: Arc<Answer>,
    }

    impl ScriptedReplicas {
        fn push(&self, envelope: Envelope) {
            if let Some(inbox) = &*self.inbox.lock() {
                let _ = inbox.send(envelope);
            }
        }

        /// Delivers `msg` from `replica` to the client.
        fn deliver(&self, replica: ReplicaId, msg: &Message) {
            self.push(sealed(replica, CLIENT_NODE, msg));
        }

        /// Drops the only sender: the client's mailbox disconnects.
        fn shut_down(&self) {
            self.inbox.lock().take();
        }
    }

    impl Transport for ScriptedReplicas {
        type Mailbox = ScriptedMailbox;

        fn send(&self, _from: NodeId, to: NodeId, payload: Vec<u8>) {
            for reply in (self.answer)(to, &opened_by(to, &payload)) {
                self.deliver(to, &reply);
            }
        }

        fn peers(&self) -> Vec<NodeId> {
            (0..4).collect()
        }
    }

    struct Client {
        handle: ReplicatedPeats<ScriptedReplicas>,
        net: ScriptedReplicas,
        seen: Arc<Seen>,
    }

    impl Client {
        fn received(&self) -> u64 {
            self.seen.received.load(Ordering::Relaxed)
        }

        /// The session holding the reader role, if one does.
        fn reader(&self) -> Option<u64> {
            match self.handle.demux.sessions.lock().reader {
                Role::Held(req_id) => Some(req_id),
                Role::Offered(_) | Role::Free => None,
            }
        }

        /// Nobody reads, and nobody was asked to.
        fn role_is_free(&self) -> bool {
            matches!(self.handle.demux.sessions.lock().reader, Role::Free)
        }

        /// The sessions blocked on their own channel inside `wait`.
        fn waiting(&self) -> Vec<u64> {
            let sessions = self.handle.demux.sessions.lock();
            let waiting = sessions.by_req.iter().filter(|(_, s)| s.waiting);
            waiting.map(|(&req_id, _)| req_id).collect()
        }
    }

    /// A handle for `CLIENT_PID` at `CLIENT_NODE` (f = 1) onto four
    /// replicas that answer as `answer` says.
    fn client(
        cfg: ClientConfig,
        flood: Option<Envelope>,
        answer: impl Fn(ReplicaId, &Message) -> Vec<Message> + Send + Sync + 'static,
    ) -> Client {
        let (tx, rx) = mpsc::channel();
        let net = ScriptedReplicas {
            inbox: Arc::new(parking_lot::Mutex::new(Some(tx))),
            answer: Arc::new(answer),
        };
        let mut mailbox = ScriptedMailbox::new(CLIENT_NODE, rx);
        mailbox.flood = flood;
        let seen = Arc::clone(&mailbox.seen);
        let keys = KeyTable::new(u64::from(CLIENT_NODE), MASTER.to_vec());
        let handle = ReplicatedPeats::connect(net.clone(), mailbox, keys, CLIENT_PID, 1, 4, cfg);
        Client { handle, net, seen }
    }

    fn reply(replica: ReplicaId, req_id: u64, result: OpResult) -> Message {
        Message::Reply {
            view: 0,
            seq: req_id,
            req_id,
            replica,
            result,
        }
    }

    /// Every replica executes every request, at slot `req_id`, to `result`.
    fn all_reply(result: OpResult) -> impl Fn(ReplicaId, &Message) -> Vec<Message> + Send + Sync {
        move |replica, msg| match msg {
            Message::Request(request) => vec![reply(replica, request.req_id, result.clone())],
            _ => Vec::new(),
        }
    }

    /// Replicas that park registrations and answer nothing else.
    fn only_registers(replica: ReplicaId, msg: &Message) -> Vec<Message> {
        match msg {
            Message::Request(Request {
                req_id,
                op: RequestOp::Register { .. },
                ..
            }) => vec![reply(replica, *req_id, OpResult::Registered)],
            _ => Vec::new(),
        }
    }

    /// Waits (10 s at most) for another thread to bring `cond` about.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "never happened: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn unavailable(result: SpaceResult<()>) -> String {
        match result {
            Err(SpaceError::Unavailable(why)) => why,
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn a_handle_with_no_invocation_waiting_does_not_read() {
        let c = client(ClientConfig::default(), None, all_reply(OpResult::Done));
        c.handle.out(tuple!["A"]).unwrap();
        assert_eq!(c.received(), 2, "f+1 replies decide; two stay queued");
        assert!(c.role_is_free());
        c.handle.out(tuple!["B"]).unwrap();
        assert_eq!(
            c.received(),
            6,
            "the next wait drops the two late replies, then takes its own f+1"
        );
        assert_eq!(c.handle.rebroadcasts(), 0);
    }

    #[test]
    fn junk_queued_on_an_idle_handle_delays_the_next_op_by_a_bounded_amount() {
        let c = client(ClientConfig::default(), None, all_reply(OpResult::Done));
        for i in 0..10_000u64 {
            if i % 2 == 0 {
                c.net.push((3, vec![0xFF; 64]));
            } else {
                // What really piles up: authentic replies to requests long
                // decided. Each costs a MAC check and a routing miss.
                c.net.deliver(3, &reply(3, 1_000_000 + i, OpResult::Done));
            }
        }
        let start = Instant::now();
        c.handle.out(tuple!["A"]).unwrap();
        let took = start.elapsed();
        assert_eq!(c.received(), 10_002, "all of it was in the way");
        assert!(took < Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn a_flooding_replica_cannot_keep_an_invocation_past_its_timeout() {
        let cfg = ClientConfig {
            invoke_timeout: Duration::from_millis(200),
            retry_interval: Duration::from_millis(50),
            ..ClientConfig::default()
        };
        // Replica 3 refills the mailbox faster than any reader drains it,
        // with authentic replies to a request nobody made.
        let flood = sealed(3, CLIENT_NODE, &reply(3, u64::MAX, OpResult::Done));
        let c = client(cfg, Some(flood), |_, _| Vec::new());
        let start = Instant::now();
        let why = unavailable(c.handle.out(tuple!["A"]));
        assert!(why.contains("timeout"), "{why}");
        assert!(start.elapsed() < Duration::from_secs(2));
        assert!(c.handle.rebroadcasts() >= 2, "retries kept their pace");
    }

    #[test]
    fn nothing_of_a_handle_outlives_its_last_clone() {
        let Client { handle, seen, .. } = client(ClientConfig::default(), None, only_registers);
        let clone = handle.clone();
        let subscription = handle.subscribe(&template!["E", ?x]).unwrap();
        drop(handle);
        drop(clone);
        assert!(
            !seen.dropped.load(Ordering::SeqCst),
            "the subscription still receives through the mailbox"
        );
        drop(subscription);
        assert!(
            seen.dropped.load(Ordering::SeqCst),
            "the last owner gone, the mailbox must go with it"
        );
    }

    /// The two wakes that certify one event of subscription `req_id`.
    fn deliver_event(net: &ScriptedReplicas, req_id: u64, seq: Seq, event: &Tuple) {
        for replica in [0, 1] {
            let wake = Message::Wake {
                req_id,
                seq,
                result: OpResult::Tuple(Some(event.clone())),
                replica,
            };
            net.deliver(replica, &wake);
        }
    }

    #[test]
    fn a_reader_that_times_out_hands_the_role_to_a_session_that_is_waiting() {
        let cfg = ClientConfig {
            invoke_timeout: Duration::from_millis(300),
            retry_interval: Duration::from_secs(60),
            ..ClientConfig::default()
        };
        let c = client(cfg, None, only_registers);
        let mut subscription = c.handle.subscribe(&template!["E", ?x]).unwrap(); // req 1
        std::thread::scope(|scope| {
            let doomed = scope.spawn(|| c.handle.out(tuple!["A"])); // req 2
            eventually("the out reads", || c.reader() == Some(2));
            let tail = scope.spawn(|| subscription.next_timeout(Duration::from_secs(30)));
            eventually("the subscriber waits", || c.waiting() == [1]);

            let why = unavailable(doomed.join().unwrap());
            assert!(why.contains("timeout"), "{why}");
            // Nobody else is left to read this: only a subscriber that took
            // the role over sees it.
            deliver_event(&c.net, 1, 7, &tuple!["E", 1]);
            assert_eq!(tail.join().unwrap().unwrap(), Some(tuple!["E", 1]));
        });
    }

    #[test]
    fn a_registered_session_nobody_waits_in_is_never_made_the_reader() {
        let cfg = ClientConfig {
            invoke_timeout: Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let c = client(cfg, None, only_registers);
        let mut subscription = c.handle.subscribe(&template!["E", ?x]).unwrap(); // req 1

        // A reader leaves while the subscription is registered but idle.
        unavailable(c.handle.out(tuple!["A"]));
        assert!(
            c.role_is_free(),
            "an idle subscription cannot read: the role must not go to it"
        );

        // Events pushed while nobody waits stay where they are...
        let before = c.received();
        for (seq, i) in [(5, 1), (6, 2), (9, 3)] {
            deliver_event(&c.net, 1, seq, &tuple!["E", i]);
        }
        assert_eq!(c.received(), before);
        // ...and the next `next_timeout` delivers them, in order.
        for i in 1..=3 {
            let event = subscription.next_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(event, Some(tuple!["E", i]));
        }
        assert_eq!(
            subscription
                .next_timeout(Duration::from_millis(10))
                .unwrap(),
            None
        );
    }

    #[test]
    fn a_disconnected_mailbox_fails_every_waiter_fast() {
        let cfg = ClientConfig {
            retry_interval: Duration::from_secs(60),
            invoke_timeout: Duration::from_secs(120),
            ..ClientConfig::default()
        };
        let c = client(cfg, None, |_, _| Vec::new());
        std::thread::scope(|scope| {
            let invokers: Vec<_> = (0..3)
                .map(|i| {
                    let handle = c.handle.clone();
                    scope.spawn(move || handle.out(tuple!["A", i]))
                })
                .collect();
            eventually("one reads, two wait", || {
                c.reader().is_some() && c.waiting().len() == 2
            });
            let start = Instant::now();
            c.net.shut_down();
            for invoker in invokers {
                let why = unavailable(invoker.join().unwrap());
                assert!(why.contains("shut down"), "{why}");
            }
            assert!(start.elapsed() < Duration::from_secs(5));
        });
        // Closed for good: a later invocation does not wait at all.
        let why = unavailable(c.handle.out(tuple!["B"]));
        assert!(why.contains("shut down"), "{why}");
    }

    /// How the race between a timed-out `take`'s `Cancel` and a matching
    /// `out` ended, and whether the wakes of a match got through.
    #[derive(Clone, Copy)]
    enum Race {
        CancelWon,
        MatchWon { wakes_lost: bool },
    }

    fn timed_out_take(race: Race) -> SpaceResult<Tuple> {
        let cfg = ClientConfig {
            invoke_timeout: Duration::from_millis(100),
            retry_interval: Duration::from_secs(5),
            ..ClientConfig::default()
        };
        let matched = || OpResult::Tuple(Some(tuple!["JOB", 1]));
        let cancelled = AtomicBool::new(false);
        let c = client(cfg, None, move |replica, msg| {
            let Message::Request(request) = msg else {
                return Vec::new();
            };
            let req_id = request.req_id;
            match (&request.op, race) {
                // The take is request 1. Until its cancel is ordered the
                // registration is parked; afterwards the reply cache holds
                // the outcome of the race.
                (RequestOp::Register { .. }, Race::MatchWon { .. })
                    if cancelled.load(Ordering::SeqCst) =>
                {
                    vec![reply(replica, req_id, matched())]
                }
                (RequestOp::Register { .. }, _) => {
                    vec![reply(replica, req_id, OpResult::Registered)]
                }
                (RequestOp::Cancel { target }, _) => {
                    cancelled.store(true, Ordering::SeqCst);
                    let wake = Message::Wake {
                        req_id: *target,
                        seq: 2,
                        result: matched(),
                        replica,
                    };
                    let done = reply(replica, req_id, OpResult::Done);
                    match race {
                        // The match committed just ahead of the cancel, and
                        // its wakes reach the client while the cancel runs.
                        Race::MatchWon { wakes_lost: false } => vec![wake, done],
                        _ => vec![done],
                    }
                }
                _ => Vec::new(),
            }
        });
        c.handle.take(&template!["JOB", ?x])
    }

    #[test]
    fn a_timed_out_take_settles_its_race_with_the_cancel_either_way() {
        match timed_out_take(Race::CancelWon) {
            Err(SpaceError::Unavailable(why)) => assert!(why.contains("cancelled"), "{why}"),
            other => panic!("the cancel won, yet: {other:?}"),
        }
        // The tuple was taken on this client's behalf: reporting a timeout
        // would leak it — also when every wake was lost and only the reply
        // caches remember.
        for wakes_lost in [false, true] {
            assert_eq!(
                timed_out_take(Race::MatchWon { wakes_lost }).unwrap(),
                tuple!["JOB", 1],
                "wakes lost: {wakes_lost}"
            );
        }
    }
}
