//! Transport-generic deployment runtime: the replica event loop and the
//! concurrent client handle, written against the
//! [`Transport`]/[`Mailbox`](peats_netsim::Mailbox) trait pair so the same
//! code drives every wall-clock tier — in-memory channels
//! ([`ThreadNet`](peats_netsim::ThreadNet), the fast verification tier) and
//! real TCP sockets (`peats-net`, the `peatsd` deployment tier).
//!
//! Cloned [`ReplicatedPeats`] handles invoke **concurrently**: a dedicated
//! router thread owns the client node's mailbox and demultiplexes each
//! `Reply` to the in-flight invocation it answers by `req_id`, so no
//! invocation ever holds the mailbox (or eats another invocation's
//! replies) while it waits. Waiting is event-driven — the invocation
//! blocks on its own reply channel until the earlier of its retry or
//! overall deadline, so reply latency is set by the cluster, not by a poll
//! tick.

use crate::client::{
    BlockingPoll, BlockingSession, ClientSession, ReadPoll, ReadSession, WakeStreamSession,
};
use crate::messages::{Message, OpResult, ReplicaId, RequestOp, Sealed, Seq, WaitKind};
use crate::replica::{Dest, Replica};
use peats::{CasOutcome, SpaceError, SpaceResult, TupleSpace};
use peats_auth::Digest;
use peats_auth::KeyTable;
use peats_codec::{Decode, Encode};
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
                let opened = Sealed::from_bytes(&payload)
                    .ok()
                    .and_then(|sealed| sealed.open(&keys));
                if let Some((sender, msg)) = opened {
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

/// A reply routed to an in-flight invocation by `req_id`.
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
    fn req_id(&self) -> u64 {
        match self {
            ReplyEnvelope::Ordered { req_id, .. } | ReplyEnvelope::Fast { req_id, .. } => *req_id,
        }
    }
}

/// Routes each incoming `Reply` to the in-flight invocation (by `req_id`)
/// it answers. Shared by all clones of one client handle; the router
/// thread owns the node's mailbox, so an invocation never holds it — and
/// never discards replies addressed to other in-flight requests.
#[derive(Default)]
struct ReplyDemux {
    sessions: parking_lot::Mutex<BTreeMap<u64, mpsc::Sender<ReplyEnvelope>>>,
    closed: AtomicBool,
}

impl ReplyDemux {
    fn register(&self, req_id: u64) -> mpsc::Receiver<ReplyEnvelope> {
        let (tx, rx) = mpsc::channel();
        // The closed check must happen under the sessions lock: checked
        // outside, a concurrent `close` could clear the map between the
        // check and the insert, leaving a sender that never disconnects
        // (the invocation would burn its whole timeout instead of failing
        // fast).
        let mut sessions = self.sessions.lock();
        if !self.closed.load(Ordering::Acquire) {
            sessions.insert(req_id, tx);
        }
        // When closed, the sender is dropped here and the receiver reports
        // Disconnected immediately.
        rx
    }

    fn deregister(&self, req_id: u64) {
        self.sessions.lock().remove(&req_id);
    }

    fn route(&self, env: ReplyEnvelope) {
        if let Some(tx) = self.sessions.lock().get(&env.req_id()) {
            let _ = tx.send(env);
        }
        // No session with that req_id: a late reply for a completed (or
        // abandoned) invocation — drop it.
    }

    fn close(&self) {
        let mut sessions = self.sessions.lock();
        self.closed.store(true, Ordering::Release);
        // Dropping the senders disconnects every waiting invocation.
        sessions.clear();
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

fn client_router<M: Mailbox>(mailbox: M, keys: KeyTable, demux: Arc<ReplyDemux>) {
    while let Some((_, payload)) = mailbox.recv() {
        let Ok(sealed) = Sealed::from_bytes(&payload) else {
            continue;
        };
        let Some((_, msg)) = sealed.open(&keys) else {
            continue;
        };
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
            } => {
                demux.route(ReplyEnvelope::Ordered {
                    replica,
                    req_id,
                    seq,
                    result,
                });
            }
            Message::ReadReply {
                req_id,
                seq,
                digest,
                result,
                replica,
            } => {
                demux.route(ReplyEnvelope::Fast {
                    replica,
                    req_id,
                    seq,
                    digest,
                    result,
                });
            }
            _ => {}
        }
    }
    // Mailbox disconnected: the transport is gone. Wake every waiter.
    demux.close();
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
/// reply router — and invoke **concurrently**.
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
    /// `mailbox.id()`, spawning the reply-router thread that owns
    /// `mailbox`. The cluster has `n_replicas = 3f+1` replicas at node ids
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
        let demux = Arc::new(ReplyDemux::default());
        {
            let keys = keys.clone();
            let demux = Arc::clone(&demux);
            // The router exits (and closes the demux) when the mailbox
            // disconnects — i.e. when the transport shuts down.
            std::thread::spawn(move || client_router(mailbox, keys, demux));
        }
        ReplicatedPeats {
            net,
            demux,
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
                // Event-driven wait: block on the reply channel until the
                // earlier of the retry and overall deadlines. A reply wakes
                // the invocation immediately — latency is the cluster's
                // decision time, not a poll-tick quantum.
                let wait = next_retry
                    .min(deadline)
                    .saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(ReplyEnvelope::Ordered {
                        replica,
                        req_id: rid,
                        seq,
                        result,
                    }) => {
                        if let Some((seq, result)) = session.on_reply(replica, rid, seq, result) {
                            // Read-your-writes: every future fast read must
                            // come from a quorum that has executed this slot.
                            self.watermark.fetch_max(seq, Ordering::Relaxed);
                            return Ok(result);
                        }
                    }
                    Ok(ReplyEnvelope::Fast { .. }) => {} // fast replies never share a req_id with an ordered request
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(SpaceError::Unavailable("cluster shut down".into()));
                    }
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
            let wait = until.saturating_duration_since(Instant::now());
            match rx.recv_timeout(wait) {
                Ok(ReplyEnvelope::Fast {
                    replica,
                    req_id: rid,
                    seq,
                    digest,
                    result,
                }) => match session.on_read_reply(replica, rid, seq, digest, result) {
                    ReadPoll::Accepted { seq, result } => {
                        // An accepted fast read is quorum-backed: it, too,
                        // advances the watermark (monotonic reads).
                        self.watermark.fetch_max(seq, Ordering::Relaxed);
                        return Some(result);
                    }
                    ReadPoll::NoQuorum => return None,
                    ReadPoll::Pending => {}
                },
                Ok(ReplyEnvelope::Ordered { .. }) => {}
                // A probe-phase timeout loops back to widen; the overall
                // deadline check at the top of the loop ends the round.
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
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
                let wait = next_retry
                    .min(deadline)
                    .saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(ReplyEnvelope::Ordered {
                        replica,
                        req_id: rid,
                        seq,
                        result,
                    }) => match session.on_reply(replica, rid, seq, result) {
                        BlockingPoll::Decided(seq, result) => {
                            self.watermark.fetch_max(seq, Ordering::Relaxed);
                            return self.finish_blocking(result);
                        }
                        BlockingPoll::Parked(seq) => {
                            // The registration itself committed at `seq`;
                            // read-your-writes covers it like any write.
                            self.watermark.fetch_max(seq, Ordering::Relaxed);
                        }
                        BlockingPoll::Pending => {}
                    },
                    Ok(ReplyEnvelope::Fast { .. }) => {}
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(SpaceError::Unavailable("cluster shut down".into()));
                    }
                }
            }
            // Deadline passed while parked (or never acknowledged). Detach
            // the registration in the total order, then settle the race.
            self.invoke_op(RequestOp::Cancel { target: req_id })?;
            self.broadcast(&session.request_message());
            let settle = Instant::now() + self.cfg.retry_interval;
            loop {
                let wait = settle.saturating_duration_since(Instant::now());
                if wait.is_zero() {
                    return Err(SpaceError::Unavailable(
                        "blocked operation timed out and was cancelled".into(),
                    ));
                }
                match rx.recv_timeout(wait) {
                    Ok(ReplyEnvelope::Ordered {
                        replica,
                        req_id: rid,
                        seq,
                        result,
                    }) => match session.on_reply(replica, rid, seq, result) {
                        BlockingPoll::Decided(seq, result) => {
                            self.watermark.fetch_max(seq, Ordering::Relaxed);
                            return self.finish_blocking(result);
                        }
                        // Still `Registered` in the caches: the cancel won.
                        BlockingPoll::Parked(_) => {
                            return Err(SpaceError::Unavailable(
                                "blocked operation timed out and was cancelled".into(),
                            ));
                        }
                        BlockingPoll::Pending => {}
                    },
                    Ok(ReplyEnvelope::Fast { .. }) => {}
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(SpaceError::Unavailable("cluster shut down".into()));
                    }
                }
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
        loop {
            let now = Instant::now();
            if now >= deadline {
                self.demux.deregister(req_id);
                return Err(SpaceError::Unavailable(
                    "no f+1 registration acks before timeout".into(),
                ));
            }
            if now >= next_retry {
                self.broadcast(&park.request_message());
                self.stats.rebroadcasts.fetch_add(1, Ordering::Relaxed);
                next_retry = Instant::now() + self.cfg.retry_interval;
            }
            let wait = next_retry
                .min(deadline)
                .saturating_duration_since(Instant::now());
            match rx.recv_timeout(wait) {
                Ok(ReplyEnvelope::Ordered {
                    replica,
                    req_id: rid,
                    seq,
                    result,
                }) => {
                    // Wakes racing the park acknowledgement are certified
                    // through the stream session and queued so the
                    // subscriber sees them; `Registered` acks feed the park
                    // vote. Both sessions are fed — each ignores what the
                    // other consumes.
                    if let Some((seq, result)) = stream.on_wake(replica, rid, seq, result.clone()) {
                        self.watermark.fetch_max(seq, Ordering::Relaxed);
                        match result {
                            OpResult::Tuple(Some(t)) => pending.push_back(t),
                            OpResult::Denied(d) => {
                                self.demux.deregister(req_id);
                                return Err(denied(d));
                            }
                            _ => {}
                        }
                    }
                    match park.on_reply(replica, rid, seq, result) {
                        BlockingPoll::Decided(seq, OpResult::Denied(d)) => {
                            self.watermark.fetch_max(seq, Ordering::Relaxed);
                            self.demux.deregister(req_id);
                            return Err(denied(d));
                        }
                        // Parked is the normal ack; a decided (non-denied)
                        // quorum means wakes outran the `Registered` acks —
                        // the registration is committed and live either way.
                        BlockingPoll::Parked(seq) | BlockingPoll::Decided(seq, _) => {
                            self.watermark.fetch_max(seq, Ordering::Relaxed);
                            return Ok(Subscription {
                                handle: self.clone(),
                                req_id,
                                rx,
                                stream,
                                pending,
                                cancelled: false,
                            });
                        }
                        BlockingPoll::Pending => {}
                    }
                }
                Ok(ReplyEnvelope::Fast { .. }) => {}
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    self.demux.deregister(req_id);
                    return Err(SpaceError::Unavailable("cluster shut down".into()));
                }
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
    rx: mpsc::Receiver<ReplyEnvelope>,
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
        let deadline = Instant::now() + timeout;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                return Ok(None);
            }
            match self.rx.recv_timeout(wait) {
                Ok(ReplyEnvelope::Ordered {
                    replica,
                    req_id,
                    seq,
                    result,
                }) => {
                    if let Some((seq, result)) = self.stream.on_wake(replica, req_id, seq, result) {
                        self.handle.watermark.fetch_max(seq, Ordering::Relaxed);
                        match result {
                            OpResult::Tuple(Some(t)) => return Ok(Some(t)),
                            OpResult::Denied(d) => return Err(denied(d)),
                            _ => {}
                        }
                    }
                }
                Ok(ReplyEnvelope::Fast { .. }) => {}
                Err(mpsc::RecvTimeoutError::Timeout) => return Ok(None),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(SpaceError::Unavailable("cluster shut down".into()));
                }
            }
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
    use peats_tuplespace::tuple;

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
            let keys = KeyTable::new(u64::from(to), MASTER.to_vec());
            let (_, msg) = Sealed::from_bytes(&payload)
                .ok()
                .and_then(|sealed| sealed.open(&keys))
                .expect("replica_main seals for the frame's recipient");
            self.sent.lock().push(Sent {
                to,
                msg,
                syncs_before,
            });
        }

        fn peers(&self) -> Vec<NodeId> {
            (0..4).collect()
        }
    }

    /// A mailbox fed by the test; with `flood` set it is never empty — a
    /// peer refilling it faster than the loop drains it, with no memory.
    struct ScriptedMailbox {
        id: NodeId,
        rx: mpsc::Receiver<Envelope>,
        flood: Option<Envelope>,
    }

    impl Mailbox for ScriptedMailbox {
        fn id(&self) -> NodeId {
            self.id
        }

        fn recv(&self) -> Option<Envelope> {
            self.rx.recv().ok()
        }

        fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Disconnected> {
            if let Some(envelope) = self.try_recv() {
                return Ok(Some(envelope));
            }
            match self.rx.recv_timeout(timeout) {
                Ok(envelope) => Ok(Some(envelope)),
                Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(Disconnected),
            }
        }

        fn try_recv(&self) -> Option<Envelope> {
            self.rx.try_recv().ok().or_else(|| self.flood.clone())
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
        let mailbox = ScriptedMailbox { id, rx, flood };
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
}
