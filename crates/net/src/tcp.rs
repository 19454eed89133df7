//! [`TcpTransport`]: the [`Transport`]/[`Mailbox`] trait pair over real
//! `std::net` sockets.
//!
//! Wire format: every connection carries length-prefixed frames
//! ([`peats_codec::frame`]); a frame's payload is the 4-byte LE node id of
//! the sender followed by the opaque message bytes the layer above
//! produced (a MAC-sealed envelope — the transport-level sender id is
//! advisory, authentication happens above). An empty-body frame is a
//! *hello*: it announces the dialer's id so the acceptor can route replies
//! back over the same connection before any request arrives.
//!
//! Topology: every endpoint dials its configured peers
//! (thread-per-connection, automatic reconnect with exponential backoff)
//! and — when bound — accepts connections from anyone. Accepted
//! connections register a *reverse link* keyed by the peer's announced id,
//! which is how replicas reach clients they have no configured address
//! for: the reply rides the connection the client opened.
//!
//! A send costs its caller at most one bounded socket write. When the
//! link to the peer is up and nothing is queued on it, the caller's frames
//! — a whole event-loop pass of them, through
//! [`Transport::send_batch`] — are written from the calling thread with
//! one `write` under the fixed [`WRITE_TIMEOUT`]. A write that fails or
//! times out tears the connection down, counts its frames as dropped and
//! hands the link back to its dialer, so a peer that stops draining its
//! socket costs a correct sender at most one timeout per socket buffer of
//! traffic. Everything else goes to the link's bounded queue, which sheds
//! its *oldest* frame when full and is drained by the link's own thread:
//! frames for a link that is down or backlogged, frames behind injected
//! latency ([`TcpConfig::send_delay`] — the caller never sleeps), and
//! bursts over [`DIRECT_MAX`], which an honest slow link may need longer
//! than one timeout to take. Which path a frame takes is read off the
//! link's state, never configured. Either way the semantics are those of
//! [`ThreadNet::send`](peats_netsim::ThreadNet): messages may be dropped;
//! the protocol layer retransmits. Malformed, oversized, or truncated
//! frames disconnect the offending connection — never panic, never stall
//! other connections; a dialed peer is re-dialed (its reader's EOF wakes
//! the dialer at once, so nothing is written into a dead socket), a
//! hostile accepted peer is simply gone.

use crate::TcpConfig;
use peats_codec::frame::{append_frame, FrameReader};
use peats_netsim::{Disconnected, Envelope, Mailbox, NodeId, Transport};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often blocked link drainers and the accept loop re-check the stop
/// flag.
const STOP_POLL: Duration = Duration::from_millis(50);

/// The socket write timeout of every connection: the longest a
/// [`Transport::send`] can hold its caller. Long enough that a peer merely
/// descheduled with a full socket buffer is not mistaken for a dead one.
pub const WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// Largest burst written from the calling thread. A pass of protocol
/// messages is far below it; a multi-megabyte state snapshot over an honest
/// slow link can need longer than [`WRITE_TIMEOUT`], so it is left to the
/// link's drainer, whose writes are bounded per syscall, not per frame.
pub const DIRECT_MAX: usize = 64 * 1024;

/// What a link's drainer thread should do next.
enum Next {
    /// Write this frame; the drainer holds the write token.
    Frame(Vec<u8>),
    Timeout,
    /// The drainer's connection is no longer the link's.
    Down,
    Closed,
}

/// One peer's outbound side: the live connection (if any), the write token
/// that serializes writers on it, and the bounded drop-oldest queue the
/// link's drainer thread empties.
struct Link {
    state: parking_lot::Mutex<LinkState>,
    /// Wakes the drainer: a frame queued, the token returned, the
    /// connection gone, or the link closed.
    cv: parking_lot::Condvar,
    dropped: AtomicU64,
}

struct LinkState {
    /// Length-prefixed frames waiting for the drainer.
    queue: VecDeque<Vec<u8>>,
    closed: bool,
    /// Write half of the live connection; `None` while the link is down.
    conn: Option<Arc<TcpStream>>,
    /// The write token: set by whoever is inside a `write` on `conn` — a
    /// sender on the direct path or the drainer — so frames never
    /// interleave and nobody holds the lock across a syscall.
    writing: bool,
}

impl LinkState {
    fn is_conn(&self, conn: &Arc<TcpStream>) -> bool {
        self.conn.as_ref().is_some_and(|c| Arc::ptr_eq(c, conn))
    }

    /// Tears `conn` down; the link goes down with it if it was still the
    /// link's connection.
    fn drop_conn(&mut self, conn: &Arc<TcpStream>) {
        if self.is_conn(conn) {
            self.conn = None;
        }
        let _ = conn.shutdown(Shutdown::Both);
    }
}

impl Link {
    fn new(conn: Option<Arc<TcpStream>>) -> Arc<Link> {
        Arc::new(Link {
            state: parking_lot::Mutex::new(LinkState {
                queue: VecDeque::new(),
                closed: false,
                conn,
                writing: false,
            }),
            cv: parking_lot::Condvar::new(),
            dropped: AtomicU64::new(0),
        })
    }

    /// Enqueues a frame, shedding the oldest when `depth` is reached.
    fn push(&self, frame: Vec<u8>, depth: usize) {
        let mut st = self.state.lock();
        if st.closed {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        while st.queue.len() >= depth.max(1) {
            st.queue.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        st.queue.push_back(frame);
        self.cv.notify_one();
    }

    /// Claims the write token for the calling thread when the link is up
    /// and nothing is queued ahead of it (order is per link).
    fn begin_direct(&self) -> Option<Arc<TcpStream>> {
        let mut st = self.state.lock();
        if st.closed || st.writing || !st.queue.is_empty() {
            return None;
        }
        let conn = st.conn.clone()?;
        st.writing = true;
        Some(conn)
    }

    /// Returns the write token; a failed write takes the connection down.
    fn end_write(&self, conn: &Arc<TcpStream>, ok: bool) {
        let mut st = self.state.lock();
        st.writing = false;
        if !ok {
            st.drop_conn(conn);
        }
        if !ok || !st.queue.is_empty() {
            self.cv.notify_one();
        }
    }

    /// Marks the link down if `conn` is still its connection.
    fn disconnect(&self, conn: &Arc<TcpStream>) {
        self.state.lock().drop_conn(conn);
        self.cv.notify_one();
    }

    /// The drainer's wait: the next queued frame (with the write token)
    /// once no direct write is in flight on `conn`.
    fn next(&self, conn: &Arc<TcpStream>, poll: Duration) -> Next {
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return Next::Closed;
            }
            if !st.is_conn(conn) {
                return Next::Down;
            }
            if !st.writing {
                if let Some(frame) = st.queue.pop_front() {
                    st.writing = true;
                    return Next::Frame(frame);
                }
            }
            if self.cv.wait_for(&mut st, poll) {
                return Next::Timeout;
            }
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

/// State shared by every clone of one [`TcpTransport`] and all its
/// connection threads.
struct Shared {
    me: NodeId,
    cfg: TcpConfig,
    stop: AtomicBool,
    inbox_tx: crossbeam::channel::Sender<Envelope>,
    /// Outbound links to configured peers (we dial these; fixed set).
    dial_links: BTreeMap<NodeId, Arc<Link>>,
    /// Reverse links over accepted connections, keyed by announced id.
    accepted: parking_lot::Mutex<BTreeMap<NodeId, Arc<Link>>>,
    /// Stream clones for shutdown (close them to unblock reader threads).
    streams: parking_lot::Mutex<BTreeMap<u64, TcpStream>>,
    next_stream_token: AtomicU64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn register_stream(&self, stream: &TcpStream) -> u64 {
        let token = self.next_stream_token.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.streams.lock().insert(token, clone);
        }
        // If we raced a shutdown, close immediately so no thread blocks on
        // a stream the shutdown sweep never saw.
        if self.stopping() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        token
    }

    fn unregister_stream(&self, token: u64) {
        self.streams.lock().remove(&token);
    }

    /// Sends `payloads` to `to`, in order: one `write` from this thread when
    /// the link allows it, the link's queue otherwise (see the module docs).
    fn send_to(&self, to: NodeId, mut payloads: Vec<Vec<u8>>) {
        if self.stopping() {
            return;
        }
        if to == self.me {
            // Loopback: straight into the local mailbox.
            for payload in payloads {
                let _ = self.inbox_tx.send((self.me, payload));
            }
            return;
        }
        // A configured peer's dial link, else the reverse link of a
        // connection `to` opened to us. Neither: no configured address and
        // no live connection from that peer — drop, exactly like
        // ThreadNet's unknown-destination case.
        let accepted = || self.accepted.lock().get(&to).cloned();
        let Some(link) = self.dial_links.get(&to).cloned().or_else(accepted) else {
            return;
        };
        let me = self.me.to_le_bytes();
        let max = self.cfg.max_frame;
        // The peer would reject an oversized frame and drop the connection
        // with it: fail at the writer, where the bug is.
        let offered = payloads.len();
        payloads.retain(|p| me.len() + p.len() <= max);
        link.dropped
            .fetch_add((offered - payloads.len()) as u64, Ordering::Relaxed);
        let framed = |buf: &mut Vec<u8>, payload: &[u8]| {
            append_frame(buf, &me, payload, max).expect("length checked above");
        };
        let burst_len: usize = payloads.iter().map(|p| 4 + me.len() + p.len()).sum();
        let direct = self.cfg.send_delay.is_zero() && (1..=DIRECT_MAX).contains(&burst_len);
        match direct.then(|| link.begin_direct()).flatten() {
            Some(conn) => {
                let mut burst = Vec::with_capacity(burst_len);
                payloads.iter().for_each(|p| framed(&mut burst, p));
                let ok = write_once(&conn, &burst);
                if !ok {
                    link.dropped
                        .fetch_add(payloads.len() as u64, Ordering::Relaxed);
                }
                link.end_write(&conn, ok);
            }
            None => {
                for payload in payloads {
                    let mut frame = Vec::with_capacity(4 + me.len() + payload.len());
                    framed(&mut frame, &payload);
                    link.push(frame, self.cfg.queue_depth);
                }
            }
        }
    }

    /// Sleeps `total` in small slices, returning early on stop.
    fn interruptible_sleep(&self, total: Duration) {
        let mut left = total;
        while !left.is_zero() && !self.stopping() {
            let slice = left.min(STOP_POLL);
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }
}

/// A cheaply cloneable handle onto one node's TCP endpoint.
#[derive(Clone)]
pub struct TcpTransport {
    shared: Arc<Shared>,
}

/// The receiving half of a [`TcpTransport`] endpoint.
pub struct TcpMailbox {
    id: NodeId,
    rx: crossbeam::channel::Receiver<Envelope>,
}

impl TcpTransport {
    /// Binds `listen` and connects to `peers` (node id → address; an entry
    /// for the local id is ignored). Returns the transport and the node's
    /// mailbox. Replicas use this; they both dial their peers and accept
    /// dial-ins from other replicas and from clients.
    ///
    /// # Errors
    ///
    /// Returns the bind error; dial failures are not errors (peers come
    /// and go — the dialers retry with backoff forever).
    pub fn bind(
        me: NodeId,
        listen: SocketAddr,
        peers: BTreeMap<NodeId, SocketAddr>,
        cfg: TcpConfig,
    ) -> std::io::Result<(TcpTransport, TcpMailbox)> {
        let listener = TcpListener::bind(listen)?;
        Self::from_listener(me, listener, peers, cfg)
    }

    /// [`TcpTransport::bind`] over an already-bound listener. Lets a
    /// harness keep one listener alive across replica restarts (the port
    /// never has to be re-bound) and lets tests bind port 0 first to learn
    /// every address before wiring the peer maps.
    ///
    /// # Errors
    ///
    /// Returns the error from inspecting or configuring the listener.
    pub fn from_listener(
        me: NodeId,
        listener: TcpListener,
        peers: BTreeMap<NodeId, SocketAddr>,
        cfg: TcpConfig,
    ) -> std::io::Result<(TcpTransport, TcpMailbox)> {
        listener.set_nonblocking(true)?;
        let (transport, mailbox) = Self::connect(me, peers, cfg);
        {
            let shared = Arc::clone(&transport.shared);
            std::thread::spawn(move || accept_loop(shared, listener));
        }
        Ok((transport, mailbox))
    }

    /// A dial-only endpoint: connects to `peers` but accepts nothing.
    /// Clients use this — replies arrive over the connections the client
    /// itself opened (the replicas' reverse links).
    pub fn connect(
        me: NodeId,
        peers: BTreeMap<NodeId, SocketAddr>,
        cfg: TcpConfig,
    ) -> (TcpTransport, TcpMailbox) {
        let (inbox_tx, inbox_rx) = crossbeam::channel::unbounded();
        let dial_links: BTreeMap<NodeId, Arc<Link>> = peers
            .keys()
            .filter(|&&id| id != me)
            .map(|&id| (id, Link::new(None)))
            .collect();
        let shared = Arc::new(Shared {
            me,
            cfg,
            stop: AtomicBool::new(false),
            inbox_tx,
            dial_links,
            accepted: parking_lot::Mutex::new(BTreeMap::new()),
            streams: parking_lot::Mutex::new(BTreeMap::new()),
            next_stream_token: AtomicU64::new(0),
        });
        for (&id, link) in &shared.dial_links {
            let addr = peers[&id];
            let shared = Arc::clone(&shared);
            let link = Arc::clone(link);
            std::thread::spawn(move || dial_loop(shared, addr, link));
        }
        (
            TcpTransport { shared },
            TcpMailbox {
                id: me,
                rx: inbox_rx,
            },
        )
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.shared.me
    }

    /// Total outbound frames shed by bounded queues or closed links since
    /// start (observability; the protocol layer's retransmits absorb
    /// these).
    pub fn dropped_outbound(&self) -> u64 {
        let dial: u64 = self
            .shared
            .dial_links
            .values()
            .map(|l| l.dropped.load(Ordering::Relaxed))
            .sum();
        let accepted: u64 = self
            .shared
            .accepted
            .lock()
            .values()
            .map(|l| l.dropped.load(Ordering::Relaxed))
            .sum();
        dial + accepted
    }

    /// Stops every connection thread: closes all links, shuts down all
    /// streams (unblocking readers), and stops the accept and dial loops.
    /// Queued-but-unsent frames are dropped (asynchronous model). Safe to
    /// call more than once.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for link in self.shared.dial_links.values() {
            link.close();
        }
        for link in self.shared.accepted.lock().values() {
            link.close();
        }
        for stream in self.shared.streams.lock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Transport for TcpTransport {
    type Mailbox = TcpMailbox;

    fn send(&self, _from: NodeId, to: NodeId, payload: Vec<u8>) {
        self.shared.send_to(to, vec![payload]);
    }

    fn send_batch(&self, _from: NodeId, batch: Vec<(NodeId, Vec<u8>)>) {
        // Group by peer, keeping each peer's frames in order.
        let mut by_peer: Vec<(NodeId, Vec<Vec<u8>>)> = Vec::new();
        for (to, payload) in batch {
            match by_peer.iter_mut().find(|(peer, _)| *peer == to) {
                Some((_, payloads)) => payloads.push(payload),
                None => by_peer.push((to, vec![payload])),
            }
        }
        for (to, payloads) in by_peer {
            self.shared.send_to(to, payloads);
        }
    }

    fn peers(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.shared.dial_links.keys().copied().collect();
        ids.push(self.shared.me);
        ids.sort_unstable();
        ids
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.shared.me)
            .field("dial_peers", &self.shared.dial_links.len())
            .finish()
    }
}

impl TcpMailbox {
    /// This mailbox's node identity.
    pub fn id(&self) -> NodeId {
        self.id
    }
}

impl Mailbox for TcpMailbox {
    fn id(&self) -> NodeId {
        self.id
    }

    fn recv(&self) -> Option<Envelope> {
        self.rx.recv().ok()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Disconnected> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(Disconnected),
        }
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }
}

impl std::fmt::Debug for TcpMailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpMailbox").field("id", &self.id).finish()
    }
}

/// Accepts connections until stop; one reader thread per connection.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.stopping() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(false).is_err() || !prepare(&stream) {
                    continue;
                }
                let shared = Arc::clone(&shared);
                // Accepted connections register reverse links: the reader
                // learns the peer's id from its frames and wires a link
                // over this same stream.
                std::thread::spawn(move || reader_loop(shared, stream, Role::Accepted));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(STOP_POLL.min(Duration::from_millis(20)));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake...):
                // back off briefly and keep accepting.
                std::thread::sleep(STOP_POLL);
            }
        }
    }
}

/// Socket options of every connection. The write timeout is what bounds a
/// send (module docs), so a socket that will not take it is not used.
fn prepare(stream: &TcpStream) -> bool {
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_ok()
}

/// One `write` of a whole burst: `true` only if the socket took all of it.
/// On these blocking sockets a short count means [`WRITE_TIMEOUT`] expired
/// with the peer not draining — the stream is torn mid-frame either way.
fn write_once(mut conn: &TcpStream, burst: &[u8]) -> bool {
    loop {
        match conn.write(burst) {
            Ok(n) => return n == burst.len(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Which end of a connection a reader serves.
enum Role {
    /// The peer dialed us: its first frame registers a reverse link whose
    /// writers share this stream.
    Accepted,
    /// We dialed: the write half already belongs to this link (a reverse
    /// link here would put two writers on one stream and tear frames), and
    /// the link goes down the moment this reader sees the connection end.
    Dialed(Arc<Link>, Arc<TcpStream>),
}

/// Reads frames off one connection into the inbox until EOF, a malformed
/// frame, stream error, or shutdown.
fn reader_loop(shared: Arc<Shared>, stream: TcpStream, role: Role) {
    let token = shared.register_stream(&stream);
    let mut reverse: Option<(NodeId, Arc<Link>)> = None;
    let mut frames = FrameReader::new(&stream, shared.cfg.max_frame);
    // A clean EOF, oversized length claim (hostile), or stream error
    // (including truncation mid-frame) falls out of the `while let` and
    // disconnects this connection. Dialed peers get re-dialed by their
    // dial loop; accepted peers must dial back in.
    while let Ok(Some(frame)) = frames.next_frame() {
        if frame.len() < 4 {
            // Malformed: no room for the sender id. Drop the connection;
            // never panic.
            break;
        }
        let (id, body) = frame.split_at(4);
        let from = NodeId::from_le_bytes(id.try_into().expect("split at 4"));
        if matches!(role, Role::Accepted) && reverse.as_ref().map(|(id, _)| *id) != Some(from) {
            match register_reverse_link(&shared, &stream, from) {
                Some(link) => reverse = Some((from, link)),
                None => break, // stream unusable for writing
            }
        }
        // A 4-byte frame is a hello: registration only, nothing to deliver.
        if !body.is_empty() && shared.inbox_tx.send((from, body.to_vec())).is_err() {
            break; // mailbox gone: endpoint is shutting down
        }
    }
    if let Role::Dialed(link, conn) = &role {
        link.disconnect(conn);
    }
    if let Some((id, link)) = reverse {
        link.close();
        let mut accepted = shared.accepted.lock();
        // Only deregister if the map still points at *this* connection's
        // link — the peer may have reconnected and replaced it already.
        if accepted.get(&id).is_some_and(|l| Arc::ptr_eq(l, &link)) {
            accepted.remove(&id);
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    shared.unregister_stream(token);
}

/// Wires a reverse link for an accepted connection: a link that is up from
/// the start, plus a drainer thread, both over a clone of the stream.
fn register_reverse_link(
    shared: &Arc<Shared>,
    stream: &TcpStream,
    peer: NodeId,
) -> Option<Arc<Link>> {
    let conn = Arc::new(stream.try_clone().ok()?);
    let link = Link::new(Some(Arc::clone(&conn)));
    if let Some(old) = shared.accepted.lock().insert(peer, Arc::clone(&link)) {
        // The peer reconnected; the old connection's drainer winds down.
        old.close();
    }
    {
        let shared = Arc::clone(shared);
        let link = Arc::clone(&link);
        std::thread::spawn(move || {
            let token = shared.register_stream(&conn);
            // No reconnect here: the *peer* owns reconnection, so however
            // the drain ends, the link is done.
            drain(&shared, &link, &conn);
            link.close();
            shared.unregister_stream(token);
        });
    }
    Some(link)
}

/// Writes `link`'s queued frames to `conn` until the connection stops
/// being the link's (`false`: the caller may reconnect) or the link closes
/// or the endpoint stops (`true`).
fn drain(shared: &Shared, link: &Link, conn: &Arc<TcpStream>) -> bool {
    loop {
        match link.next(conn, STOP_POLL) {
            Next::Frame(frame) => {
                if !shared.cfg.send_delay.is_zero() {
                    std::thread::sleep(shared.cfg.send_delay);
                }
                // A frame whose write fails is lost (asynchronous model);
                // everything still queued survives for the next connection.
                let ok = (&**conn).write_all(&frame).is_ok();
                if !ok {
                    link.dropped.fetch_add(1, Ordering::Relaxed);
                }
                link.end_write(conn, ok);
            }
            Next::Timeout => {
                if shared.stopping() {
                    return true;
                }
            }
            Next::Down => return false,
            Next::Closed => return true,
        }
    }
}

/// Owns the outbound connection to one configured peer: connect (with
/// exponential backoff), announce ourselves with a hello frame, bring the
/// link up, spawn a reader for whatever the peer sends back on this
/// connection, then drain the link's queue; when the connection goes down
/// — a failed write from any thread, or the reader seeing it end —
/// reconnect and keep going.
fn dial_loop(shared: Arc<Shared>, addr: SocketAddr, link: Arc<Link>) {
    let mut backoff = shared.cfg.reconnect_min;
    while !shared.stopping() {
        let stream = match TcpStream::connect_timeout(&addr, shared.cfg.connect_timeout) {
            Ok(s) if prepare(&s) => s,
            _ => {
                shared.interruptible_sleep(backoff);
                backoff = (backoff * 2).min(shared.cfg.reconnect_max);
                continue;
            }
        };
        backoff = shared.cfg.reconnect_min;
        let token = shared.register_stream(&stream);
        let read_half = stream.try_clone();
        let conn = Arc::new(stream);
        // Hello: announce our id so the acceptor can route to us before we
        // send any real traffic. Nobody else can write yet — the link is
        // still down.
        let mut hello = Vec::new();
        append_frame(&mut hello, &shared.me.to_le_bytes(), &[], 4)
            .expect("4 bytes under a cap of 4");
        let mut stopped = false;
        if (&*conn).write_all(&hello).is_ok() {
            link.state.lock().conn = Some(Arc::clone(&conn));
            if let Ok(read_half) = read_half {
                let shared = Arc::clone(&shared);
                let role = Role::Dialed(Arc::clone(&link), Arc::clone(&conn));
                // The peer's replies can ride this connection.
                std::thread::spawn(move || reader_loop(shared, read_half, role));
            }
            stopped = drain(&shared, &link, &conn);
        }
        shared.unregister_stream(token);
        if stopped {
            return;
        }
        // A peer that accepts and hangs up at once must not turn this into
        // a busy loop.
        shared.interruptible_sleep(backoff);
    }
}
