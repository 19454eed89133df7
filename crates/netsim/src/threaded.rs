//! Thread-backed transport for wall-clock benchmarks.
//!
//! Same addressing model as the simulator ([`NodeId`]s, opaque byte
//! payloads) but messages move over `crossbeam` channels between real
//! threads — this is what the replicated-PEATS performance experiments
//! (E12) run on. A blocking receive gets the channel's wait strategy: a
//! few rounds of yielding while the queue stays empty, then a park. Implements the [`Transport`]/[`Mailbox`] trait pair, so
//! every harness written against the traits runs on it unchanged.

use crate::sim::NodeId;
use crate::transport::{Disconnected, Envelope, Mailbox, Transport};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Shared fabric connecting a fixed set of nodes.
#[derive(Clone)]
pub struct ThreadNet {
    inboxes: Arc<Vec<Sender<Envelope>>>,
}

/// The receiving end owned by one node.
#[derive(Debug)]
pub struct ThreadMailbox {
    id: NodeId,
    rx: Receiver<Envelope>,
}

impl ThreadNet {
    /// Builds a fabric for `nodes` nodes; returns it plus each node's
    /// mailbox (index = [`NodeId`]).
    pub fn new(nodes: usize) -> (Self, Vec<ThreadMailbox>) {
        let mut senders = Vec::with_capacity(nodes);
        let mut mailboxes = Vec::with_capacity(nodes);
        for id in 0..nodes {
            let (tx, rx) = unbounded();
            senders.push(tx);
            mailboxes.push(ThreadMailbox {
                id: id as NodeId,
                rx,
            });
        }
        (
            ThreadNet {
                inboxes: Arc::new(senders),
            },
            mailboxes,
        )
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.inboxes.len()
    }

    /// `true` when the fabric has no nodes.
    pub fn is_empty(&self) -> bool {
        self.inboxes.is_empty()
    }

    /// Sends `payload` from `from` to `to`. Messages to unknown or
    /// shut-down nodes are silently dropped (asynchronous model).
    pub fn send(&self, from: NodeId, to: NodeId, payload: Vec<u8>) {
        if let Some(tx) = self.inboxes.get(to as usize) {
            let _ = tx.send((from, payload));
        }
    }

    /// Broadcasts to all nodes except `from`.
    pub fn broadcast(&self, from: NodeId, payload: &[u8]) {
        for to in 0..self.inboxes.len() as NodeId {
            if to != from {
                self.send(from, to, payload.to_vec());
            }
        }
    }
}

impl Transport for ThreadNet {
    type Mailbox = ThreadMailbox;

    fn send(&self, from: NodeId, to: NodeId, payload: Vec<u8>) {
        ThreadNet::send(self, from, to, payload);
    }

    fn peers(&self) -> Vec<NodeId> {
        (0..self.inboxes.len() as NodeId).collect()
    }

    fn broadcast(&self, from: NodeId, payload: &[u8]) {
        ThreadNet::broadcast(self, from, payload);
    }
}

impl std::fmt::Debug for ThreadNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadNet")
            .field("nodes", &self.inboxes.len())
            .finish()
    }
}

impl ThreadMailbox {
    /// This mailbox's node identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Blocks for the next message.
    pub fn recv(&self) -> Option<Envelope> {
        self.rx.recv().ok()
    }

    /// Blocks up to `timeout`; `Ok(None)` on timeout, `Err(Disconnected)`
    /// when the fabric is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Disconnected> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Disconnected),
        }
    }

    /// Nonblocking poll.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }
}

impl Mailbox for ThreadMailbox {
    fn id(&self) -> NodeId {
        ThreadMailbox::id(self)
    }

    fn recv(&self) -> Option<Envelope> {
        ThreadMailbox::recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Disconnected> {
        ThreadMailbox::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Option<Envelope> {
        ThreadMailbox::try_recv(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let (net, mut boxes) = ThreadNet::new(2);
        let b1 = boxes.remove(1);
        net.send(0, 1, b"hi".to_vec());
        assert_eq!(b1.recv(), Some((0, b"hi".to_vec())));
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let (net, boxes) = ThreadNet::new(3);
        net.broadcast(0, b"x");
        assert!(boxes[0].try_recv().is_none());
        assert_eq!(boxes[1].recv().unwrap().1, b"x");
        assert_eq!(boxes[2].recv().unwrap().1, b"x");
    }

    #[test]
    fn cross_thread_echo() {
        let (net, mut boxes) = ThreadNet::new(2);
        let server_box = boxes.remove(1);
        let client_box = boxes.remove(0);
        let server_net = net.clone();
        let server = thread::spawn(move || {
            let (from, msg) = server_box.recv().unwrap();
            server_net.send(1, from, msg);
        });
        net.send(0, 1, b"echo".to_vec());
        assert_eq!(client_box.recv(), Some((1, b"echo".to_vec())));
        server.join().unwrap();
    }

    #[test]
    fn unknown_destination_is_dropped() {
        let (net, _boxes) = ThreadNet::new(1);
        net.send(0, 42, b"void".to_vec()); // must not panic
    }

    #[test]
    fn recv_timeout_expires() {
        let (_net, boxes) = ThreadNet::new(1);
        let r = boxes[0].recv_timeout(Duration::from_millis(10));
        assert_eq!(r, Ok(None));
    }

    #[test]
    fn trait_object_view_matches_inherent_api() {
        // The generic harnesses see ThreadNet only through the traits.
        fn through_traits<T: Transport>(net: T, boxes: Vec<T::Mailbox>) {
            assert_eq!(net.peers().len(), boxes.len());
            Transport::broadcast(&net, 0, b"t");
            for b in &boxes[1..] {
                assert_eq!(Mailbox::recv(b).unwrap().1, b"t");
            }
        }
        let (net, boxes) = ThreadNet::new(3);
        through_traits(net, boxes);
    }
}
