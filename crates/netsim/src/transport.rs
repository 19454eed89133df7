//! The pluggable transport abstraction the replication layer runs on.
//!
//! Every deployment tier moves the same thing — opaque byte payloads
//! between dense [`NodeId`]s under the asynchronous model (sends may be
//! dropped, delayed, or reordered; they are never corrupted *undetectably*,
//! because everything above the transport travels MAC-sealed) — so the
//! replication harnesses are written against this trait pair instead of a
//! concrete fabric:
//!
//! * [`ThreadNet`](crate::ThreadNet) — in-memory channels between threads
//!   (the fast, deterministic-ish verification tier);
//! * `peats-net`'s `TcpTransport` — length-prefixed frames over real
//!   sockets (the deployment tier: `peatsd` daemons and the `peats` CLI).
//!
//! The deterministic simulator ([`crate::sim`]) stays sans-io and does not
//! implement these traits; it drives the replica state machines directly.

use crate::sim::NodeId;
use std::time::Duration;

/// A message in flight: `(sender, payload)`. The sender id is advisory at
/// this layer — authentication happens above the transport, via the MAC
/// envelope carried inside the payload.
pub type Envelope = (NodeId, Vec<u8>);

/// Error returned by [`Mailbox::recv_timeout`] when the transport has shut
/// down and no further message can ever arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("transport disconnected: no sender can reach this mailbox")
    }
}

impl std::error::Error for Disconnected {}

/// The receiving half of a node's transport endpoint.
///
/// Exactly one mailbox exists per node, read by one thread at a time: the
/// node's event loop (`replica_main`), or whichever invocation of a client
/// handle is waiting for a reply.
///
/// **A node takes part in its transport only while its mailbox is being
/// read.** A transport may do all of its receive-side work inside these
/// three methods, on the caller's thread — `peats-net`'s `TcpMailbox` does:
/// that is where it reads its sockets, accepts connections, learns which
/// peer an inbound connection belongs to (so that sends to that peer start
/// to work) and notices that a connection closed (so that it is re-dialed).
/// A node whose mailbox nobody reads receives nothing, answers no inbound
/// peer and keeps writing into connections that are gone until a write
/// fails; what was sent to it meanwhile waits, in the transport's buffers
/// or the kernel's, for the next read. A replica reads all the time; a
/// client reads inside every invocation, which is the only time it expects
/// anything. Sending never needs a reader.
pub trait Mailbox: Send {
    /// This mailbox's node identity.
    fn id(&self) -> NodeId;

    /// Blocks for the next message; `None` once the transport is gone.
    fn recv(&self) -> Option<Envelope>;

    /// Blocks up to `timeout`; `Ok(None)` on timeout, `Err(Disconnected)`
    /// when the transport is gone.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Disconnected>;

    /// Nonblocking poll.
    fn try_recv(&self) -> Option<Envelope>;
}

/// The sending half: a cheaply cloneable handle onto the whole fabric.
///
/// Sends are fire-and-forget with asynchronous-model semantics: a message
/// to an unknown, crashed, or unreachable peer — or one shed by a bounded
/// outbound queue — is silently dropped. Retransmission and timeouts are
/// the protocol layer's job, never the transport's.
pub trait Transport: Clone + Send + 'static {
    /// The mailbox type paired with this transport.
    type Mailbox: Mailbox + 'static;

    /// Sends `payload` from `from` to `to`.
    fn send(&self, from: NodeId, to: NodeId, payload: Vec<u8>);

    /// Sends every `(to, payload)` of `batch` from `from`, in order. One
    /// event-loop pass hands its whole output here so a transport can
    /// amortize over it (a socket transport writes each peer's frames in
    /// one syscall); the default is a loop over [`send`](Self::send).
    fn send_batch(&self, from: NodeId, batch: Vec<(NodeId, Vec<u8>)>) {
        for (to, payload) in batch {
            self.send(from, to, payload);
        }
    }

    /// The node ids this transport can address (the configured peer set,
    /// including the local node where it is addressable).
    fn peers(&self) -> Vec<NodeId>;

    /// Broadcasts to every known peer except `from`.
    fn broadcast(&self, from: NodeId, payload: &[u8]) {
        for to in self.peers() {
            if to != from {
                self.send(from, to, payload.to_vec());
            }
        }
    }
}
