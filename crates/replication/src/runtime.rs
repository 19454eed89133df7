//! Transport-generic deployment runtime: the replica event loop and the
//! concurrent client handle, written against the [`Transport`]/[`Mailbox`]
//! trait pair so the same code drives every wall-clock tier — in-memory
//! channels ([`ThreadNet`], the fast verification tier) and real TCP
//! sockets (`peats-net`, the `peatsd` deployment tier).
//!
//! Each invocation of a [`ReplicatedPeats`] handle runs one op machine of
//! [`client`](crate::client) on `Instant`. Clones invoke **concurrently**,
//! and a handle has no thread of its own. Its mailbox sits behind a mutex
//! in the state the clones share, and *whichever invocation is waiting
//! reads it*: the first to wait becomes the reader, keeps the replies to
//! its own requests and routes every other to the channel of the in-flight
//! invocation it answers; the rest block on those channels. A reader that
//! leaves — decided, timed out, or unwinding — hands the role to a session
//! that is blocked in a wait at that moment, never to one that is merely
//! registered (an op that is sending, before its first wait or between
//! two). So a reply to a handle with one invocation in flight goes from
//! the transport straight to the thread that wants it, no invocation eats
//! another's replies, and waiting is event-driven: reply latency is set by
//! the cluster, not by a poll tick. A handle with no invocation waiting
//! does not read at all; what arrives meanwhile — the `n − (f+1)` replies
//! that come in after a decision — stays in the mailbox until the next
//! wait drops it.

use crate::client::{ClientConfig, ClientCore, Io, OpMachine, ReplyEnvelope};
use crate::messages::{Message, OpResult, RequestOp, Sealed, Seq, WaitKind};
use crate::replica::{Dest, Replica};
use peats::{CasOutcome, SpaceError, SpaceResult, TupleSpace};
use peats_auth::KeyTable;
use peats_codec::Encode;
use peats_netsim::{Mailbox, NodeId, ThreadNet, Transport};
use peats_policy::OpCall;
use peats_tuplespace::{Template, Tuple};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Seals replica outputs into `(to, frame)` pairs: a [`Dest`] becomes the
/// node ids it names (every replica but this one for
/// [`Dest::AllReplicas`]), each frame MAC'd for its recipient. The one
/// routing step of every replica driver — [`ship`] here, the simulator's
/// replica actor in [`sim_harness`](crate::sim_harness).
pub fn seal_outputs(
    keys: &KeyTable,
    n: usize,
    outputs: Vec<(Dest, Message)>,
) -> Vec<(NodeId, Vec<u8>)> {
    let me = keys.id();
    let mut frames = Vec::new();
    for (dest, msg) in outputs {
        // Encoded once per output: the frames of a broadcast differ only in
        // their MAC.
        let body = msg.to_bytes();
        let mut seal = |peer: u64| frames.push((peer as NodeId, Sealed::frame(keys, peer, &body)));
        match dest {
            Dest::Replica(r) => seal(u64::from(r)),
            Dest::AllReplicas => (0..n as u64).filter(|&r| r != me).for_each(seal),
            Dest::Client(node) => seal(node),
        }
    }
    frames
}

/// Seals a batch of replica outputs ([`seal_outputs`]) and hands it to the
/// transport as one [`Transport::send_batch`].
pub fn ship<T: Transport>(
    net: &T,
    keys: &KeyTable,
    me: NodeId,
    n: usize,
    outputs: Vec<(Dest, Message)>,
) {
    net.send_batch(me, seal_outputs(keys, n, outputs));
}

/// Most envelopes one pass takes from the mailbox before it flushes: a
/// flooding peer can keep the mailbox from ever running empty, but cannot
/// postpone a flush or the progress-timeout check by more than one capped
/// pass.
const MAX_PASS: usize = 64;

/// What a replica's driver feeds: the state machine's inputs and outputs,
/// plus the progress check. A bare [`Replica`] is one (what `peatsd`
/// runs); a test harness wraps a replica in its fault injection.
pub trait Node {
    /// Handles one authenticated message ([`Replica::step`]).
    fn step(&mut self, from: u64, msg: Message) -> Vec<(Dest, Message)>;
    /// Fires the progress timeout ([`Replica::on_progress_timeout`]).
    fn on_progress_timeout(&mut self) -> Vec<(Dest, Message)>;
    /// Makes what the steps executed durable ([`Replica::sync`]).
    fn sync(&mut self);
    /// Last executed sequence number.
    fn last_exec(&self) -> Seq;

    /// The periodic progress check: fires the timeout only when
    /// `last_exec` has not moved since the previous check, whose value
    /// `seen` carries from one call to the next.
    fn check_progress(&mut self, seen: &mut Seq) -> Vec<(Dest, Message)> {
        let last = self.last_exec();
        let stalled = last == *seen;
        *seen = last;
        if stalled {
            self.on_progress_timeout()
        } else {
            Vec::new()
        }
    }
}

impl Node for Replica {
    fn step(&mut self, from: u64, msg: Message) -> Vec<(Dest, Message)> {
        Replica::step(self, from, msg)
    }

    fn on_progress_timeout(&mut self) -> Vec<(Dest, Message)> {
        Replica::on_progress_timeout(self)
    }

    fn sync(&mut self) {
        Replica::sync(self);
    }

    fn last_exec(&self) -> Seq {
        Replica::last_exec(self)
    }
}

/// The replica event loop: drives one replica [`Node`] from a
/// transport mailbox until `stop` is set or the transport disconnects, then
/// hands the mailbox back (a harness respawns the replica on it).
/// This is the loop a replica thread runs in [`ThreadedCluster`] and the
/// loop `peatsd` runs as a whole OS process — same code, different
/// [`Transport`].
///
/// The loop works in *passes*. It blocks for one envelope, then takes
/// whatever else is already waiting (up to `MAX_PASS`, 64), feeding each
/// message to [`Node::step`] and collecting the outputs. Then it
/// flushes: outputs for other replicas (votes, checkpoints) are shipped,
/// the write-ahead log is synced — once, however many batches the pass
/// executed — and only then are the outputs for clients shipped. A client
/// therefore never sees a result that is not yet on this replica's disk,
/// and this replica's fsync is off the other replicas' critical path.
///
/// [`ThreadedCluster`]: crate::ThreadedCluster
pub fn replica_main<T: Transport>(
    replica: Arc<parking_lot::Mutex<impl Node>>,
    keys: KeyTable,
    mailbox: T::Mailbox,
    net: T,
    n: usize,
    stop: Arc<AtomicBool>,
    progress_period: Duration,
) -> T::Mailbox {
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
            return mailbox;
        }
        let now = Instant::now();
        if now >= next_check {
            let outputs = replica.lock().check_progress(&mut last_seen_exec);
            ship(&net, &keys, me, n, outputs);
            next_check = Instant::now() + progress_period;
        }
        let wait = next_check.saturating_duration_since(Instant::now());
        let first = match mailbox.recv_timeout(wait) {
            Ok(Some(envelope)) => envelope,
            Ok(None) => continue, // deadline reached; handled at the top of the loop
            Err(_) => return mailbox, // transport gone
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
    /// The request id the session was registered under: this one, or that
    /// of the op whose fallback or cancel it routes.
    owner: u64,
    /// Its owner is blocked on the channel inside [`ReplyDemux::wait`]. A
    /// registered session need not be: `drive` registers before its first
    /// wait and stays registered between waits, while it sends.
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
    /// Replicas in the group: only they may send replies.
    n: usize,
    /// Never held across a receive.
    sessions: parking_lot::Mutex<Sessions>,
}

impl ReplyDemux {
    fn new(mailbox: Box<dyn Mailbox>, keys: KeyTable, n: usize) -> Self {
        ReplyDemux {
            mailbox: parking_lot::Mutex::new(mailbox),
            keys,
            n,
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
            let (owner, waiting) = (req_id, false);
            sessions
                .by_req
                .insert(req_id, Session { tx, owner, waiting });
        }
        // When closed, the sender is dropped here and the receiver reports
        // Disconnected immediately.
        rx
    }

    /// Routes the replies to `alias` to the session of `req_id` too.
    fn alias(&self, req_id: u64, alias: u64) {
        let mut sessions = self.sessions.lock();
        if let Some(tx) = sessions.by_req.get(&req_id).map(|s| s.tx.clone()) {
            let (owner, waiting) = (req_id, false);
            sessions
                .by_req
                .insert(alias, Session { tx, owner, waiting });
        }
    }

    /// Drops the session of `req_id`, and its aliases.
    fn deregister(&self, req_id: u64) {
        self.sessions.lock().by_req.retain(|_, s| s.owner != req_id);
    }

    fn route(&self, env: ReplyEnvelope) {
        if let Some(session) = self.sessions.lock().by_req.get(&env.req_id) {
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

    /// Waits until `until` for the replies of session `req_id` — those
    /// whose request id is `mine` — handing each to `on_reply` until it
    /// returns `Some`: the one place a client invocation blocks.
    ///
    /// First comes what a sibling already routed to `rx`. Then, if no other
    /// session is reading, this one becomes the reader: it receives from
    /// the mailbox, opens each frame, keeps its own replies and routes the
    /// rest. Otherwise it blocks on `rx`, where the reader delivers its
    /// replies and, when the reader leaves, possibly the role.
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
        mine: impl Fn(u64) -> bool,
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
                        .and_then(|(from, msg)| ReplyEnvelope::of(from, msg, self.n))
                    else {
                        continue;
                    };
                    if !mine(env.req_id) {
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
    node: NodeId,
    core: Arc<ClientCore>,
    /// What the op machines' times are offsets from.
    epoch: Instant,
}

impl<T: Transport> ReplicatedPeats<T> {
    /// Builds a client handle for logical process `pid` at transport node
    /// `mailbox.id()`. The handle keeps `mailbox` (until its last clone is
    /// dropped) and starts no thread: replies are received by whichever
    /// invocation is waiting for one. The cluster has `n_replicas = 3f+1`
    /// replicas at node ids `0..n_replicas`; `keys` must hold this node's
    /// pairwise MACs.
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
            demux: Arc::new(ReplyDemux::new(Box::new(mailbox), keys, n_replicas)),
            node,
            core: Arc::new(ClientCore::new(pid, f, n_replicas, cfg)),
            epoch: Instant::now(),
        }
    }

    /// Sends `msg` to replica `i % n` for each `i` of `to`: encoded once,
    /// MAC'd per recipient.
    fn send(&self, msg: &Message, to: Range<usize>) {
        let body = msg.to_bytes();
        for r in to.map(|i| (i % self.core.n) as NodeId) {
            let frame = Sealed::frame(&self.demux.keys, u64::from(r), &body);
            self.net.send(self.node, r, frame);
        }
    }

    fn invoke(&self, op: OpCall<'static>) -> SpaceResult<OpResult> {
        self.drive(|core, now| OpMachine::ordered(core, RequestOp::Call(op), now))
    }

    /// Runs the op machine `start` makes to its outcome — the loop of
    /// every invocation: send what it asks for, feed it its replies in
    /// [`ReplyDemux::wait`], and the time once its deadline has come.
    fn drive(
        &self,
        start: impl FnOnce(&ClientCore, Duration) -> (OpMachine, Io),
    ) -> SpaceResult<OpResult> {
        let (mut op, mut io) = start(&self.core, self.epoch.elapsed());
        let first = op.first_req_id();
        let rx = self.demux.register(first);
        let _session = SessionGuard {
            demux: &self.demux,
            req_id: first,
        };
        // Track in-flight depth (tests assert clones genuinely overlap).
        let depth = self.core.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.core.max_in_flight.fetch_max(depth, Ordering::Relaxed);
        let result = loop {
            let current = op.req_id();
            let until = match io {
                Io::Done(outcome) => break outcome,
                Io::Wait { send, until } => {
                    // Routed here before any reply to it can arrive.
                    if current != first {
                        self.demux.alias(first, current);
                    }
                    if let Some(to) = send {
                        self.send(op.message(), to);
                    }
                    until
                }
            };
            let mine = |req_id| req_id == first || req_id == current;
            let waited = self
                .demux
                .wait(first, mine, &rx, self.epoch + until, |reply| {
                    let io = op.on_reply(&self.core, reply, self.epoch.elapsed());
                    // Nothing to send and the same deadline: keep waiting.
                    (!matches!(io, Io::Wait { send: None, until: next } if next == until))
                        .then_some(io)
                });
            io = match waited {
                Waited::Decided(io) => io,
                Waited::TimedOut => op.on_deadline(&self.core, self.epoch.elapsed()),
                Waited::Closed => break Err(shut_down()),
            };
        };
        self.core.in_flight.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn read(&self, op: OpCall<'static>) -> SpaceResult<OpResult> {
        self.drive(|core, now| OpMachine::read(core, op, now))
    }

    fn blocking(&self, template: &Template, kind: WaitKind) -> SpaceResult<Tuple> {
        let template = template.clone();
        match self.drive(|core, now| OpMachine::blocking(core, template, kind, now))? {
            OpResult::Tuple(Some(t)) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    /// Total requests issued through this handle and its clones (each is
    /// one consensus round).
    pub fn issued_requests(&self) -> u64 {
        self.core.next_req.load(Ordering::Relaxed) - self.core.cfg.first_request_id
    }

    /// Total retry re-broadcasts issued by this handle and its clones. A
    /// healthy cluster decides well inside the retry interval, so this
    /// staying at zero is how tests prove no reply was lost or eaten.
    pub fn rebroadcasts(&self) -> u64 {
        self.core.rebroadcasts.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently in-flight invocations across all
    /// clones of this handle.
    pub fn max_concurrent_invokes(&self) -> u64 {
        self.core.max_in_flight.load(Ordering::Relaxed)
    }

    /// Reads served by the one-round fast path (no ordering round).
    pub fn fast_reads_served(&self) -> u64 {
        self.core.fast_served.load(Ordering::Relaxed)
    }

    /// Fast-read rounds that fell back to the ordered path (timeout or
    /// replica disagreement). A healthy quiescent cluster keeps this at 0.
    pub fn fast_read_fallbacks(&self) -> u64 {
        self.core.fast_read_fallbacks.load(Ordering::Relaxed)
    }

    /// The handle's current read watermark (highest quorum-backed seq
    /// observed).
    pub fn read_watermark(&self) -> Seq {
        self.core.watermark()
    }
}

/// What a waiter reports once the transport is gone.
fn shut_down() -> SpaceError {
    SpaceError::Unavailable("cluster shut down".into())
}

/// What an op that returned `result` reports: a denial, or a result of
/// the wrong kind.
fn unexpected(result: OpResult) -> SpaceError {
    match result {
        OpResult::Denied(d) => denied(d),
        other => SpaceError::Unavailable(format!("unexpected result {other:?}")),
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
            other => Err(unexpected(other)),
        }
    }

    fn rdp(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        match self.read(OpCall::rdp(template.clone()))? {
            OpResult::Tuple(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    fn inp(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        match self.invoke(OpCall::inp(template.clone()))? {
            OpResult::Tuple(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    fn cas(&self, template: &Template, entry: Tuple) -> SpaceResult<CasOutcome> {
        match self.invoke(OpCall::cas(template.clone(), entry))? {
            OpResult::Cas { inserted: true, .. } => Ok(CasOutcome::Inserted),
            OpResult::Cas {
                inserted: false,
                found: Some(t),
            } => Ok(CasOutcome::Found(t)),
            other => Err(unexpected(other)),
        }
    }

    fn rd(&self, template: &Template) -> SpaceResult<Tuple> {
        // Blocking semantics are server-driven: one ordered Register parks
        // the template at every replica, and the matching `out`'s commit
        // pushes the wake — no client polling, no consensus round per tick.
        self.blocking(template, WaitKind::Rd)
    }

    fn take(&self, template: &Template) -> SpaceResult<Tuple> {
        self.blocking(template, WaitKind::Take)
    }

    fn count(&self, template: &Template) -> SpaceResult<usize> {
        match self.read(OpCall::count(template.clone()))? {
            OpResult::Count(n) => Ok(usize::try_from(n).unwrap_or(usize::MAX)),
            other => Err(unexpected(other)),
        }
    }

    fn process_id(&self) -> peats_policy::ProcessId {
        self.core.pid
    }
}

impl<T: Transport> std::fmt::Debug for ReplicatedPeats<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedPeats")
            .field("pid", &self.core.pid)
            .field("replicas", &self.core.n)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{batch_digest, ReplicaId, Request};
    use crate::replica::ReplicaConfig;
    use crate::service::PeatsService;
    use crate::wal::DurableStore;
    use peats_netsim::{Disconnected, Envelope};
    use peats_policy::{Policy, PolicyParams};
    use peats_tuplespace::{template, tuple};
    use std::sync::atomic::AtomicU64;

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
        let Client { handle, seen, .. } =
            client(ClientConfig::default(), None, all_reply(OpResult::Done));
        let clone = handle.clone();
        drop(handle);
        assert!(
            !seen.dropped.load(Ordering::SeqCst),
            "the clone still receives through the mailbox"
        );
        clone.out(tuple!["A"]).unwrap();
        drop(clone);
        assert!(
            seen.dropped.load(Ordering::SeqCst),
            "the last clone gone, the mailbox must go with it"
        );
    }

    /// The two wakes that decide the blocked op `req_id` with `tuple`.
    fn deliver_wake(net: &ScriptedReplicas, req_id: u64, seq: Seq, tuple: &Tuple) {
        for replica in [0, 1] {
            let wake = Message::Wake {
                req_id,
                seq,
                result: OpResult::Tuple(Some(tuple.clone())),
                replica,
            };
            net.deliver(replica, &wake);
        }
    }

    #[test]
    fn a_reader_that_times_out_hands_the_role_to_a_session_that_is_waiting() {
        let cfg = ClientConfig {
            invoke_timeout: Duration::from_secs(2),
            retry_interval: Duration::from_secs(60),
            ..ClientConfig::default()
        };
        let c = client(cfg, None, only_registers);
        std::thread::scope(|scope| {
            let doomed = scope.spawn(|| c.handle.out(tuple!["A"])); // req 1
            eventually("the out reads", || c.reader() == Some(1));
            // Started half a timeout later, the take outlives the reader
            // by as much: its deadline is not what this test is about.
            std::thread::sleep(Duration::from_secs(1));
            let take = scope.spawn(|| c.handle.take(&template!["E", ?x])); // req 2
            eventually("the take waits", || c.waiting() == [2]);

            let why = unavailable(doomed.join().unwrap());
            assert!(why.contains("timeout"), "{why}");
            // Nobody else is left to read this: only a parked take that
            // took the role over sees it.
            deliver_wake(&c.net, 2, 7, &tuple!["E", 1]);
            assert_eq!(take.join().unwrap().unwrap(), tuple!["E", 1]);
        });
    }

    #[test]
    fn a_registered_session_nobody_waits_in_is_never_made_the_reader() {
        let cfg = ClientConfig {
            invoke_timeout: Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let c = client(cfg, None, only_registers);
        let demux = &c.handle.demux;
        let idle = c.handle.core.fresh_req_id(); // req 1
        let rx = demux.register(idle);

        // A reader leaves while the session is registered but idle.
        unavailable(c.handle.out(tuple!["A"]));
        assert!(
            c.role_is_free(),
            "an idle session cannot read: the role must not go to it"
        );

        // Replies pushed while nobody waits stay where they are...
        let before = c.received();
        for replica in [0, 1, 2] {
            c.net
                .deliver(replica, &reply(replica, idle, OpResult::Done));
        }
        assert_eq!(c.received(), before);
        // ...and the session's next wait hands them over, in order.
        let mut from = Vec::new();
        let until = Instant::now() + Duration::from_secs(10);
        let waited = demux.wait(
            idle,
            |id| id == idle,
            &rx,
            until,
            |env| {
                from.push(env.replica);
                (from.len() == 3).then_some(())
            },
        );
        assert!(matches!(waited, Waited::Decided(())));
        assert_eq!(from, [0, 1, 2]);
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

    /// A result no correct replica returns.
    fn forged() -> OpResult {
        OpResult::Tuple(Some(tuple!["FORGED"]))
    }

    fn short_timeout() -> ClientConfig {
        ClientConfig {
            invoke_timeout: Duration::from_millis(100),
            retry_interval: Duration::from_secs(5),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn a_replica_cannot_vote_as_another_on_the_ordered_path() {
        // Replica 3 alone answers, claiming to be replicas 0 and 1.
        let c = client(short_timeout(), None, |replica, msg| match msg {
            Message::Request(request) if replica == 3 => {
                let req_id = request.req_id;
                vec![reply(0, req_id, forged()), reply(1, req_id, forged())]
            }
            _ => Vec::new(),
        });
        let why = unavailable(c.handle.inp(&template!["A"]).map(drop));
        assert!(why.contains("timeout"), "{why}");
    }

    #[test]
    fn a_replica_cannot_vote_as_another_on_the_fast_path() {
        // Replica 0, first in the probe window {0, 1}, answers for itself
        // and for replica 1; every other replica answers honestly.
        let c = client(ClientConfig::default(), None, |replica, msg| {
            let Message::ReadRequest { req_id, .. } = msg else {
                return Vec::new();
            };
            let read_reply = |replica, result: OpResult| Message::ReadReply {
                req_id: *req_id,
                seq: 0,
                digest: result.digest(),
                result,
                replica,
            };
            match replica {
                0 => vec![read_reply(0, forged()), read_reply(1, forged())],
                _ => vec![read_reply(replica, OpResult::Tuple(None))],
            }
        });
        assert_eq!(c.handle.rdp(&template!["A"]).unwrap(), None);
        assert_eq!(c.handle.fast_reads_served(), 1);
    }

    #[test]
    fn a_client_cannot_cast_replica_votes() {
        // Node 5, another client with keys of its own, pushes replies to
        // this handle's first request, claiming replicas 0 and 1.
        let c = client(short_timeout(), None, |_, _| Vec::new());
        for replica in [0, 1] {
            c.net
                .push(sealed(5, CLIENT_NODE, &reply(replica, 1, forged())));
        }
        let why = unavailable(c.handle.inp(&template!["A"]).map(drop));
        assert!(why.contains("timeout"), "{why}");
    }

    #[test]
    fn a_replica_cannot_wake_a_parked_take_as_another() {
        // Replica 3 parks the take like the others, and pushes wakes
        // claiming to come from replicas 0 and 1.
        let c = client(short_timeout(), None, |replica, msg| {
            let Message::Request(request) = msg else {
                return Vec::new();
            };
            let req_id = request.req_id;
            match &request.op {
                RequestOp::Register { .. } => {
                    let mut answer = vec![reply(replica, req_id, OpResult::Registered)];
                    if replica == 3 {
                        answer.extend([0, 1].map(|replica| Message::Wake {
                            req_id,
                            seq: 9,
                            result: forged(),
                            replica,
                        }));
                    }
                    answer
                }
                RequestOp::Cancel { .. } => vec![reply(replica, req_id, OpResult::Done)],
                RequestOp::Call(_) => Vec::new(),
            }
        });
        match c.handle.take(&template!["JOB", ?x]) {
            Err(SpaceError::Unavailable(why)) => assert!(why.contains("cancelled"), "{why}"),
            other => panic!("forged wakes decided the take: {other:?}"),
        }
    }
}
