//! [`TcpCluster`]: the replicated PEATS over real loopback sockets, inside
//! one process — `peats-replication`'s [`Cluster`] over a [`TcpFabric`].
//!
//! Every replica's endpoint is a [`TcpTransport`] on a listener bound to
//! `127.0.0.1:0`, and every client handle dials the replicas, so every
//! message crosses the kernel's socket layer: the closest in-process
//! approximation of the multi-process `peatsd` deployment. Killing a
//! replica resets its connections (peers reconnect with backoff);
//! respawning it brings it back wiped on the same address, to recover
//! over sockets through checkpoint state transfer.

use crate::{TcpConfig, TcpMailbox, TcpTransport};
use peats_netsim::NodeId;
use peats_policy::{Policy, PolicyError, PolicyParams};
use peats_replication::{Cluster, ClusterConfig, Fabric};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};

/// Configuration for a [`TcpCluster`]: the protocol/timing knobs shared
/// with the threaded tier plus the socket-level transport knobs.
#[derive(Clone, Debug, Default)]
pub struct TcpClusterConfig {
    /// Batching, pipelining, checkpointing, and client timing.
    pub cluster: ClusterConfig,
    /// Socket transport tuning (frame cap, queue depth, reconnect
    /// backoff, injected per-send latency).
    pub tcp: TcpConfig,
}

/// Loopback sockets: one listener per replica, bound for the fabric's
/// whole life so a respawned replica reuses it instead of re-binding the
/// port.
#[derive(Debug)]
pub struct TcpFabric {
    listeners: Vec<TcpListener>,
    addrs: BTreeMap<NodeId, SocketAddr>,
    /// Each replica's current transport (for [`TcpCluster::dropped_outbound`]).
    replicas: BTreeMap<NodeId, TcpTransport>,
    tcp: TcpConfig,
}

impl TcpFabric {
    /// The address every replica listens on (what a `peatsd`-style config
    /// would list as `--peer`s).
    pub fn replica_addrs(&self) -> &BTreeMap<NodeId, SocketAddr> {
        &self.addrs
    }
}

impl Fabric for TcpFabric {
    type Net = TcpTransport;

    /// A replica's endpoint is a new transport on its listener, dialing
    /// every other replica (a killed replica's old mailbox is already shut
    /// down); a client's dials every replica.
    fn endpoint(&mut self, node: NodeId, _old: Option<TcpMailbox>) -> (TcpTransport, TcpMailbox) {
        let Some(listener) = self.listeners.get(node as usize) else {
            return TcpTransport::connect(node, self.addrs.clone(), self.tcp.clone());
        };
        let mut peers = self.addrs.clone();
        peers.remove(&node);
        let listener = listener.try_clone().expect("clone listener");
        let (net, mailbox) = TcpTransport::from_listener(node, listener, peers, self.tcp.clone())
            .expect("configure listener");
        self.replicas.insert(node, net.clone());
        (net, mailbox)
    }

    fn close(&self, net: &TcpTransport, _node: NodeId) {
        net.shutdown();
    }
}

/// A running socket-backed replicated PEATS on loopback: a [`Cluster`]
/// over a [`TcpFabric`], reached through `Deref`.
#[derive(Debug)]
pub struct TcpCluster(Cluster<TcpFabric>);

impl TcpCluster {
    /// Binds `3f+1` replicas on ephemeral loopback ports, wires them to
    /// each other over TCP, and provisions one client slot per entry of
    /// `client_pids`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] when the policy declares unset
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if loopback sockets cannot be bound (no meaningful recovery
    /// in a test/bench harness).
    pub fn start(
        policy: Policy,
        params: PolicyParams,
        f: usize,
        client_pids: &[u64],
        config: TcpClusterConfig,
    ) -> Result<Self, PolicyError> {
        // Bind every listener first so every peer map is complete before
        // any replica starts dialing.
        let listeners: Vec<TcpListener> = (0..3 * f + 1)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let addrs = listeners
            .iter()
            .enumerate()
            .map(|(id, l)| (id as NodeId, l.local_addr().expect("local addr")))
            .collect();
        let fabric = TcpFabric {
            listeners,
            addrs,
            replicas: BTreeMap::new(),
            tcp: config.tcp,
        };
        Cluster::launch(fabric, policy, params, f, client_pids, &[], config.cluster).map(TcpCluster)
    }

    /// Total outbound frames shed by the replicas' bounded queues.
    pub fn dropped_outbound(&self) -> u64 {
        let replicas = self.fabric().replicas.values();
        replicas.map(TcpTransport::dropped_outbound).sum()
    }

    /// Stops every replica thread and client transport and waits for the
    /// replica threads to exit.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

impl std::ops::Deref for TcpCluster {
    type Target = Cluster<TcpFabric>;

    fn deref(&self) -> &Cluster<TcpFabric> {
        &self.0
    }
}

impl std::ops::DerefMut for TcpCluster {
    fn deref_mut(&mut self) -> &mut Cluster<TcpFabric> {
        &mut self.0
    }
}
