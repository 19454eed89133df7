//! Thread-backed transport for wall-clock benchmarks.
//!
//! Same addressing model as the simulator ([`NodeId`]s, opaque byte
//! payloads) but messages move over `crossbeam` channels between real
//! threads — this is what the replicated-PEATS performance experiments
//! (E12) run on. A blocking receive gets the channel's wait strategy: a
//! few rounds of yielding while the queue stays empty, then a park.
//!
//! [`ThreadNet`] and [`ThreadMailbox`] have no API beyond their
//! constructor and the [`Transport`]/[`Mailbox`] trait pair, so every
//! harness written against the traits runs on them unchanged; bring the
//! traits into scope to send or receive.

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
}

impl Transport for ThreadNet {
    type Mailbox = ThreadMailbox;

    /// Messages to unknown nodes are silently dropped (asynchronous
    /// model).
    fn send(&self, from: NodeId, to: NodeId, payload: Vec<u8>) {
        if let Some(tx) = self.inboxes.get(to as usize) {
            let _ = tx.send((from, payload));
        }
    }
}

impl std::fmt::Debug for ThreadNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadNet")
            .field("nodes", &self.inboxes.len())
            .finish()
    }
}

impl Mailbox for ThreadMailbox {
    fn id(&self) -> NodeId {
        self.id
    }

    fn recv(&self) -> Option<Envelope> {
        self.rx.recv().ok()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Disconnected> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Disconnected),
        }
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
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
}
