//! [`TcpTransport`]: the [`Transport`]/[`Mailbox`] trait pair over real
//! `std::net` sockets.
//!
//! Wire format: every connection carries length-prefixed frames
//! ([`peats_codec::frame`]); a frame's payload is the 4-byte LE node id of
//! the sender — one id per connection — followed by the opaque message
//! bytes the layer above produced (a MAC-sealed envelope — the
//! transport-level sender id is advisory, authentication happens above).
//! An empty-body frame is a *hello*: it announces the dialer's id so the
//! acceptor can route replies back over the same connection before any
//! request arrives.
//!
//! Topology: every endpoint dials its configured peers (one thread per
//! peer, automatic reconnect with exponential backoff) and — when bound —
//! accepts connections from anyone. Accepted connections register a
//! *reverse link* keyed by the peer's announced id, which is how replicas
//! reach clients they have no configured address for: the reply rides the
//! connection the client opened.
//!
//! # Receiving: the mailbox is the reader
//!
//! No thread is dedicated to reading. The thread that calls
//! [`Mailbox::recv_timeout`] or [`Mailbox::try_recv`] — a replica's event
//! loop, or the client invocation that is waiting — waits in one `poll(2)`
//! ([`peats_poll`]) over the node's listener, its connections and a
//! wake-up socket, does one `read` of at most 64 KiB on each connection
//! the kernel reported, and cuts the complete frames out of that
//! connection's buffer into the queue it then returns from. A message
//! therefore wakes one thread, not a reader and then the thread the reader
//! hands it to. A connection that sent half a frame keeps its half and
//! holds up nobody; a connection that floods gets one `read` per round
//! like every other. Before the mailbox sleeps it does what a thread
//! channel's receiver does (`shims/crossbeam`): it looks again across
//! `SNOOZE_ROUNDS` (4) rounds of `yield_now` — here a `poll` with a zero
//! timeout — because the next message of a protocol round is usually a few
//! microseconds away and a sleep costs more than that. Timeouts round *up*
//! to `poll`'s millisecond.
//!
//! The same pass does what else the read side owes: it accepts pending
//! connections, registers an accepted peer's reverse link at its hello,
//! drops a connection that sent a malformed, oversized or truncated frame
//! or, having been accepted under one sender id, a frame under another
//! (never a panic, never a stall for the others; a dialed peer is re-dialed,
//! a hostile accepted peer is simply gone), and marks a dialed link down
//! when its connection ends, which wakes its dialer at once, so nothing is
//! written into a dead socket. **All of it happens only while something
//! reads the mailbox** — see [`Mailbox`]. A replica always does; a client
//! does inside every invocation, and between invocations its socket
//! buffers hold what arrives.
//!
//! The mailbox is the endpoint's receiving half: dropping it shuts the
//! endpoint down, like [`TcpTransport::shutdown`].
//!
//! # Sending
//!
//! A send costs its caller at most one bounded socket write. When the
//! link to the peer is up and nothing is queued on it, the caller's frames
//! — a whole event-loop pass of them, through
//! [`Transport::send_batch`] — are written from the calling thread with
//! one `write` under the fixed [`WRITE_TIMEOUT`] (sockets stay blocking;
//! the mailbox reads them only when `poll` says a `read` will not wait). A
//! write that fails or times out tears the connection down, counts its
//! frames as dropped and hands the link back to its dialer, so a peer that
//! stops draining its socket costs a correct sender at most one timeout
//! per socket buffer of traffic. Everything else goes to the link's
//! bounded queue, which sheds its *oldest* frame when full and is drained
//! by the link's own thread: frames for a link that is down or backlogged,
//! frames behind injected latency ([`TcpConfig::send_delay`] — the caller
//! never sleeps), and bursts over [`DIRECT_MAX`], which an honest slow
//! link may need longer than one timeout to take. Which path a frame takes
//! is read off the link's state, never configured. Either way the
//! semantics are those of [`ThreadNet::send`](peats_netsim::ThreadNet):
//! messages may be dropped; the protocol layer retransmits.

use crate::TcpConfig;
use peats_codec::frame::{append_frame, FrameReader};
use peats_netsim::{Disconnected, Envelope, Mailbox, NodeId, Transport};
use peats_poll::PollFd;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often blocked link drainers re-check the stop flag.
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

/// How many times a blocking receive looks again at its sockets, yielding
/// the processor in between, before it sleeps in `poll`: the count thread
/// mailboxes use (`SNOOZE_YIELDS` in `shims/crossbeam`, where the curve it
/// is the knee of is written down).
const SNOOZE_ROUNDS: u32 = 4;

/// Most connections one pass accepts: a burst of dial-ins cannot keep the
/// pass from the connections that already have input (the rest stay
/// pending and make the next `poll` return at once).
const ACCEPTS_PER_PASS: usize = 16;

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

    /// Closes the link for good, and its connection with it: the peer sees
    /// the end of the stream, the local mailbox the end of its read side.
    fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        if let Some(conn) = st.conn.take() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        self.cv.notify_all();
    }

    /// Brings a dialed link up on `conn` unless it was closed meanwhile.
    fn connect(&self, conn: &Arc<TcpStream>) -> bool {
        let mut st = self.state.lock();
        if !st.closed {
            st.conn = Some(Arc::clone(conn));
        }
        !st.closed
    }
}

/// What another thread leaves for the mailbox.
enum Handoff {
    /// A message the node sent itself.
    Envelope(Envelope),
    /// A connection a dialer just brought up: the mailbox reads what the
    /// peer sends back on it and reports its end to the link.
    Dialed(Arc<Link>, Arc<TcpStream>),
}

/// State shared by every clone of one [`TcpTransport`], its mailbox and its
/// link threads.
struct Shared {
    me: NodeId,
    cfg: TcpConfig,
    stop: AtomicBool,
    /// Outbound links to configured peers (we dial these; fixed set).
    dial_links: BTreeMap<NodeId, Arc<Link>>,
    /// Reverse links over accepted connections, keyed by announced id.
    accepted: parking_lot::Mutex<BTreeMap<NodeId, Arc<Link>>>,
    /// Taken by the mailbox when the wake-up socket says so.
    handoff: parking_lot::Mutex<Vec<Handoff>>,
    /// Write end of the mailbox's wake-up socket (non-blocking): a byte
    /// ends the mailbox's `poll`.
    wake: UnixStream,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Ends the mailbox's wait, now or the next time it waits. A socket
    /// too full to take the byte holds unread wake-ups already.
    fn wake(&self) {
        let _ = (&self.wake).write(&[1]);
    }

    /// Leaves `items` for the mailbox. Every push is followed by a wake-up,
    /// and the mailbox empties the socket before it takes the items, so
    /// none is left behind.
    fn hand(&self, items: impl IntoIterator<Item = Handoff>) {
        self.handoff.lock().extend(items);
        self.wake();
    }

    /// See [`TcpTransport::shutdown`].
    fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        for link in self.dial_links.values() {
            link.close();
        }
        for link in self.accepted.lock().values() {
            link.close();
        }
        self.wake();
    }

    /// Sends `payloads` to `to`, in order: one `write` from this thread when
    /// the link allows it, the link's queue otherwise (see the module docs).
    fn send_to(&self, to: NodeId, mut payloads: Vec<Vec<u8>>) {
        if self.stopping() {
            return;
        }
        if to == self.me {
            // Loopback: straight into the local mailbox.
            let me = self.me;
            self.hand(payloads.into_iter().map(|p| Handoff::Envelope((me, p))));
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

/// The receiving half of a [`TcpTransport`] endpoint, and the only reader
/// of its sockets (module docs). Dropping it shuts the endpoint down.
pub struct TcpMailbox {
    shared: Arc<Shared>,
    /// One thread at a time receives ([`Mailbox`]); the trait's methods
    /// take `&self`.
    reader: RefCell<Reader>,
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
    /// Returns the error from inspecting or configuring the listener, or
    /// from creating the mailbox's wake-up socket.
    pub fn from_listener(
        me: NodeId,
        listener: TcpListener,
        peers: BTreeMap<NodeId, SocketAddr>,
        cfg: TcpConfig,
    ) -> std::io::Result<(TcpTransport, TcpMailbox)> {
        // `poll` can report a connection that is gone by the time it is
        // accepted; the mailbox's thread must not wait for the next one.
        listener.set_nonblocking(true)?;
        Self::start(me, Some(listener), peers, cfg)
    }

    /// A dial-only endpoint: connects to `peers` but accepts nothing.
    /// Clients use this — replies arrive over the connections the client
    /// itself opened (the replicas' reverse links).
    ///
    /// # Panics
    ///
    /// Panics if the process cannot open the mailbox's wake-up socket pair
    /// (out of descriptors before the first connection).
    pub fn connect(
        me: NodeId,
        peers: BTreeMap<NodeId, SocketAddr>,
        cfg: TcpConfig,
    ) -> (TcpTransport, TcpMailbox) {
        Self::start(me, None, peers, cfg).expect("a socket pair for the mailbox's wake-ups")
    }

    fn start(
        me: NodeId,
        listener: Option<TcpListener>,
        peers: BTreeMap<NodeId, SocketAddr>,
        cfg: TcpConfig,
    ) -> std::io::Result<(TcpTransport, TcpMailbox)> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let dial_links: BTreeMap<NodeId, Arc<Link>> = peers
            .keys()
            .filter(|&&id| id != me)
            .map(|&id| (id, Link::new(None)))
            .collect();
        let shared = Arc::new(Shared {
            me,
            cfg,
            stop: AtomicBool::new(false),
            dial_links,
            accepted: parking_lot::Mutex::new(BTreeMap::new()),
            handoff: parking_lot::Mutex::new(Vec::new()),
            wake: wake_tx,
        });
        for (&id, link) in &shared.dial_links {
            let addr = peers[&id];
            let shared = Arc::clone(&shared);
            let link = Arc::clone(link);
            std::thread::spawn(move || dial_loop(shared, addr, link));
        }
        let mailbox = TcpMailbox {
            shared: Arc::clone(&shared),
            reader: RefCell::new(Reader {
                wake: wake_rx,
                listener,
                conns: Vec::new(),
                fds: Vec::new(),
                ready: VecDeque::new(),
            }),
        };
        Ok((TcpTransport { shared }, mailbox))
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

    /// Shuts the endpoint down: closes every link and with it its
    /// connection, so peers see the end of the stream at once; stops the
    /// dialers and drainers; and wakes the mailbox, which closes the
    /// connections that never said hello, stops listening, and reports
    /// [`Disconnected`] from then on. Queued-but-unsent frames are dropped
    /// (asynchronous model). Safe to call more than once.
    pub fn shutdown(&self) {
        self.shared.shutdown();
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
        self.shared.me
    }

    /// The next message, waiting for it until `deadline` (`None`: for as
    /// long as it takes): first what is already cut, then the sockets —
    /// looked at at least once, however short the wait.
    fn next(&self, deadline: Option<Instant>) -> Result<Option<Envelope>, Disconnected> {
        let mut reader = self.reader.borrow_mut();
        let mut looks_left = SNOOZE_ROUNDS;
        let mut timed_out = false;
        loop {
            if let Some(envelope) = reader.ready.pop_front() {
                return Ok(Some(envelope));
            }
            if self.shared.stopping() {
                reader.close(&self.shared);
                return Err(Disconnected);
            }
            if timed_out {
                return Ok(None);
            }
            let left = match deadline {
                Some(deadline) => deadline.saturating_duration_since(Instant::now()),
                None => Duration::MAX,
            };
            // The deadline is checked every round, whatever the round
            // found: input that completes no message (a slow large frame,
            // a stream of hellos) cannot keep the caller past it.
            timed_out = left.is_zero();
            if timed_out || looks_left > 0 {
                looks_left = looks_left.saturating_sub(1);
                if !reader.pass(&self.shared, Duration::ZERO) && !timed_out {
                    std::thread::yield_now();
                }
            } else {
                reader.pass(&self.shared, left);
            }
        }
    }
}

impl Mailbox for TcpMailbox {
    fn id(&self) -> NodeId {
        self.shared.me
    }

    fn recv(&self) -> Option<Envelope> {
        self.next(None).ok().flatten()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Disconnected> {
        self.next(Some(Instant::now() + timeout))
    }

    fn try_recv(&self) -> Option<Envelope> {
        let mut reader = self.reader.borrow_mut();
        if reader.ready.is_empty() && !self.shared.stopping() {
            reader.pass(&self.shared, Duration::ZERO);
        }
        reader.ready.pop_front()
    }
}

impl Drop for TcpMailbox {
    fn drop(&mut self) {
        self.shared.shutdown();
        self.reader.get_mut().close(&self.shared);
    }
}

impl std::fmt::Debug for TcpMailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpMailbox")
            .field("id", &self.shared.me)
            .finish()
    }
}

/// The mailbox's side of the sockets: everything one `poll` watches, and
/// the messages cut out of what it read.
struct Reader {
    /// Read end of the wake-up socket (non-blocking).
    wake: UnixStream,
    listener: Option<TcpListener>,
    conns: Vec<Conn>,
    /// The poll set, rebuilt every pass: the wake-up socket, the listener,
    /// then `conns` in order.
    fds: Vec<PollFd>,
    /// Complete messages not yet received, oldest first.
    ready: VecDeque<Envelope>,
}

impl Reader {
    /// One round: waits up to `timeout` for input, then serves every
    /// descriptor that has some — one `read` per connection, pending
    /// accepts, what other threads handed over. `false` when nothing
    /// happened in time.
    fn pass(&mut self, shared: &Arc<Shared>, timeout: Duration) -> bool {
        self.fds.clear();
        self.fds.push(PollFd::readable(&self.wake));
        self.fds.extend(self.listener.iter().map(PollFd::readable));
        let first_conn = self.fds.len();
        let streams = self.conns.iter().map(|conn| &*conn.stream);
        self.fds.extend(streams.map(PollFd::readable));
        match peats_poll::wait(&mut self.fds, timeout) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(_) => {
                // Nothing a retry at once would fix (the kernel is out of
                // memory for the call): do not spin on it.
                std::thread::sleep(timeout.min(STOP_POLL));
                return false;
            }
        }
        // Connections first, while their indices are still the poll set's
        // (last to first: removing one moves only a connection already
        // served).
        for i in (0..self.conns.len()).rev() {
            if self.fds[first_conn + i].is_ready()
                && !self.conns[i].read_once(shared, &mut self.ready)
            {
                self.conns.swap_remove(i).close(shared);
            }
        }
        if let Some(listener) = &self.listener {
            if self.fds[1].is_ready() {
                accept_pending(listener, &mut self.conns, shared);
            }
        }
        if self.fds[0].is_ready() {
            // Empty the socket, then take what was handed over: whoever
            // hands over next writes a fresh byte.
            let mut sink = [0; 64];
            while matches!((&self.wake).read(&mut sink), Ok(n) if n == sink.len()) {}
            for item in std::mem::take(&mut *shared.handoff.lock()) {
                match item {
                    Handoff::Envelope(envelope) => self.ready.push_back(envelope),
                    Handoff::Dialed(link, stream) => {
                        self.conns
                            .push(Conn::new(stream, Role::Dialed(link), shared));
                    }
                }
            }
        }
        true
    }

    /// Closes every connection and stops listening.
    fn close(&mut self, shared: &Arc<Shared>) {
        for conn in self.conns.drain(..) {
            conn.close(shared);
        }
        self.listener = None;
    }
}

/// Accepts what `listener` has pending into `conns`; the connections are
/// read from the next round on.
fn accept_pending(listener: &TcpListener, conns: &mut Vec<Conn>, shared: &Arc<Shared>) {
    use std::io::ErrorKind::{ConnectionAborted, Interrupted, WouldBlock};
    for _ in 0..ACCEPTS_PER_PASS {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Accepted connections register reverse links: the peer's
                // id comes with its frames.
                if stream.set_nonblocking(false).is_ok() && prepare(&stream) {
                    conns.push(Conn::new(Arc::new(stream), Role::Accepted(None), shared));
                }
            }
            Err(e) if e.kind() == WouldBlock => return,
            // The connection was gone before it was accepted: on to the
            // next.
            Err(e) if matches!(e.kind(), ConnectionAborted | Interrupted) => {}
            Err(_) => {
                // Out of descriptors, most likely: the pending connection
                // stays pending and `poll` keeps reporting it, so pause
                // rather than spin until one is free.
                std::thread::sleep(Duration::from_millis(1));
                return;
            }
        }
    }
}

/// The read half of a connection whose write half a [`Link`] shares.
struct ReadHalf(Arc<TcpStream>);

impl Read for ReadHalf {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self.0).read(buf)
    }
}

/// Which end of a connection the mailbox reads.
enum Role {
    /// The peer dialed us: its first frame registers a reverse link (held
    /// here with the id it announced) whose writers share this stream.
    Accepted(Option<(NodeId, Arc<Link>)>),
    /// We dialed: the write half already belongs to this link (a reverse
    /// link here would put two writers on one stream and tear frames), and
    /// the link goes down the moment the mailbox sees the connection end.
    Dialed(Arc<Link>),
}

/// One connection as the mailbox sees it.
struct Conn {
    stream: Arc<TcpStream>,
    frames: FrameReader<ReadHalf>,
    role: Role,
}

impl Conn {
    fn new(stream: Arc<TcpStream>, role: Role, shared: &Arc<Shared>) -> Conn {
        Conn {
            frames: FrameReader::new(ReadHalf(Arc::clone(&stream)), shared.cfg.max_frame),
            stream,
            role,
        }
    }

    /// One `read`, then every frame it completed into `ready`. `false`
    /// when the connection is done for: a clean EOF, an oversized length
    /// claim (hostile), a frame with no room for a sender id, an accepted
    /// connection's frame under another id than its first, or a stream
    /// error (including an end inside a frame).
    fn read_once(&mut self, shared: &Arc<Shared>, ready: &mut VecDeque<Envelope>) -> bool {
        if !matches!(self.frames.fill_once(), Ok(n) if n > 0) {
            return false;
        }
        loop {
            let frame = match self.frames.buffered_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return true,
                Err(_) => return false,
            };
            if frame.len() < 4 {
                return false;
            }
            let (id, body) = frame.split_at(4);
            let from = NodeId::from_le_bytes(id.try_into().expect("split at 4"));
            if let Role::Accepted(reverse) = &mut self.role {
                match reverse {
                    None => {
                        let link = register_reverse_link(shared, &self.stream, from);
                        *reverse = Some((from, link));
                    }
                    // One connection, one peer: a second id is malformed.
                    Some((announced, _)) if *announced != from => return false,
                    Some(_) => {}
                }
            }
            // A 4-byte frame is a hello: registration only, nothing to
            // deliver.
            if !body.is_empty() {
                ready.push_back((from, body.to_vec()));
            }
        }
    }

    /// Closes the connection. Dialed peers get re-dialed by their dial
    /// loop; accepted peers must dial back in.
    fn close(self, shared: &Arc<Shared>) {
        match self.role {
            Role::Dialed(link) => link.disconnect(&self.stream),
            Role::Accepted(reverse) => {
                if let Some(reverse) = reverse {
                    retire_reverse_link(shared, reverse);
                }
                let _ = self.stream.shutdown(Shutdown::Both);
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

/// Wires a reverse link for an accepted connection: a link that is up from
/// the start, plus a drainer thread, both sharing the stream the mailbox
/// reads.
fn register_reverse_link(shared: &Arc<Shared>, conn: &Arc<TcpStream>, peer: NodeId) -> Arc<Link> {
    let link = Link::new(Some(Arc::clone(conn)));
    if let Some(old) = shared.accepted.lock().insert(peer, Arc::clone(&link)) {
        // The peer reconnected; the old connection winds down.
        old.close();
    }
    {
        let shared = Arc::clone(shared);
        let (link, conn) = (Arc::clone(&link), Arc::clone(conn));
        std::thread::spawn(move || {
            // No reconnect here: the *peer* owns reconnection, so however
            // the drain ends, the link is done.
            drain(&shared, &link, &conn);
            link.close();
        });
    }
    link
}

/// Closes a reverse link whose connection ended and deregisters it —
/// unless the map already points at another connection's link: the peer
/// may have reconnected and replaced it.
fn retire_reverse_link(shared: &Shared, (peer, link): (NodeId, Arc<Link>)) {
    link.close();
    let mut accepted = shared.accepted.lock();
    if accepted.get(&peer).is_some_and(|l| Arc::ptr_eq(l, &link)) {
        accepted.remove(&peer);
    }
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
/// link up, hand the connection to the mailbox — which reads whatever the
/// peer sends back on it — then drain the link's queue; when the
/// connection goes down — a failed write from any thread, or the mailbox
/// seeing it end — reconnect and keep going.
fn dial_loop(shared: Arc<Shared>, addr: SocketAddr, link: Arc<Link>) {
    let mut backoff = shared.cfg.reconnect_min;
    while !shared.stopping() {
        let conn = match TcpStream::connect_timeout(&addr, shared.cfg.connect_timeout) {
            Ok(s) if prepare(&s) => Arc::new(s),
            _ => {
                shared.interruptible_sleep(backoff);
                backoff = (backoff * 2).min(shared.cfg.reconnect_max);
                continue;
            }
        };
        backoff = shared.cfg.reconnect_min;
        // Hello: announce our id so the acceptor can route to us before we
        // send any real traffic. Nobody else can write yet — the link is
        // still down.
        let mut hello = Vec::new();
        append_frame(&mut hello, &shared.me.to_le_bytes(), &[], 4)
            .expect("4 bytes under a cap of 4");
        if (&*conn).write_all(&hello).is_ok() {
            if !link.connect(&conn) {
                // Closed while dialing: the shutdown sweep never saw this
                // connection.
                let _ = conn.shutdown(Shutdown::Both);
                return;
            }
            shared.hand([Handoff::Dialed(Arc::clone(&link), Arc::clone(&conn))]);
            if drain(&shared, &link, &conn) {
                return;
            }
        }
        // A peer that accepts and hangs up at once must not turn this into
        // a busy loop.
        shared.interruptible_sleep(backoff);
    }
}
