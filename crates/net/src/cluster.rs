//! [`TcpCluster`]: the replicated PEATS over real loopback sockets, inside
//! one process.
//!
//! Every replica runs [`replica_main`] on its own thread behind a
//! [`TcpTransport`] bound to `127.0.0.1:0`; every client handle dials the
//! replicas over TCP. Same shape as
//! [`ThreadedCluster`](peats_replication::ThreadedCluster), but every
//! message crosses the kernel's socket layer — this is the harness the
//! socket-transport benchmarks and tests use, and the closest in-process
//! approximation of the multi-process `peatsd` deployment.
//!
//! Beyond the `ThreadedCluster` API it supports [`kill_replica`] /
//! [`respawn_replica`](TcpCluster::respawn_replica): tearing a replica's
//! transport down (connections reset, peers reconnect-with-backoff) and
//! bringing it back *wiped* on the same address, exercising reconnection
//! plus checkpoint/state-transfer recovery over sockets.
//!
//! [`kill_replica`]: TcpCluster::kill_replica

use crate::{TcpConfig, TcpTransport};
use peats_auth::KeyTable;
use peats_netsim::NodeId;
use peats_policy::{Policy, PolicyError, PolicyParams};
use peats_replication::replica::{Replica, ReplicaFootprint};
use peats_replication::{replica_main, ClusterConfig, ReplicatedPeats};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// One replica's seat: everything that survives a kill/respawn.
struct Seat {
    /// The listening socket, held for the cluster's whole life so a
    /// respawned replica reuses it instead of re-binding the port.
    listener: TcpListener,
    addr: SocketAddr,
    replica: Arc<parking_lot::Mutex<Replica>>,
    transport: TcpTransport,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

/// A running socket-backed replicated PEATS on loopback.
pub struct TcpCluster {
    seats: Vec<Seat>,
    replica_addrs: BTreeMap<NodeId, SocketAddr>,
    n_replicas: usize,
    f: usize,
    master: Vec<u8>,
    client_slots: Vec<Option<u64>>,
    client_transports: Vec<TcpTransport>,
    policy: Policy,
    params: PolicyParams,
    registry: BTreeMap<u64, u64>,
    config: TcpClusterConfig,
}

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
        let n_replicas = 3 * f + 1;
        let master = b"peats-tcp-master".to_vec();
        let registry: BTreeMap<u64, u64> = client_pids
            .iter()
            .enumerate()
            .map(|(i, pid)| ((n_replicas + i) as u64, *pid))
            .collect();

        // Bind everything first so every peer map is complete before any
        // replica starts dialing.
        let listeners: Vec<TcpListener> = (0..n_replicas)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let replica_addrs: BTreeMap<NodeId, SocketAddr> = listeners
            .iter()
            .enumerate()
            .map(|(id, l)| (id as NodeId, l.local_addr().expect("local addr")))
            .collect();

        let mut cluster = TcpCluster {
            seats: Vec::with_capacity(n_replicas),
            replica_addrs,
            n_replicas,
            f,
            master,
            client_slots: client_pids.iter().map(|pid| Some(*pid)).collect(),
            client_transports: Vec::new(),
            policy,
            params,
            registry,
            config,
        };
        for (id, listener) in listeners.into_iter().enumerate() {
            let addr = cluster.replica_addrs[&(id as NodeId)];
            let replica = Arc::new(parking_lot::Mutex::new(cluster.fresh_replica(id)?));
            let (transport, stop, join) = cluster.spawn_replica(id, &listener, &replica);
            cluster.seats.push(Seat {
                listener,
                addr,
                replica,
                transport,
                stop,
                join: Some(join),
            });
        }
        Ok(cluster)
    }

    fn fresh_replica(&self, id: usize) -> Result<Replica, PolicyError> {
        self.config
            .cluster
            .build_replica(id, self.f, &self.policy, &self.params, &self.registry)
    }

    fn spawn_replica(
        &self,
        id: usize,
        listener: &TcpListener,
        replica: &Arc<parking_lot::Mutex<Replica>>,
    ) -> (TcpTransport, Arc<AtomicBool>, JoinHandle<()>) {
        let me = id as NodeId;
        let mut peers = self.replica_addrs.clone();
        peers.remove(&me);
        let (transport, mailbox) = TcpTransport::from_listener(
            me,
            listener.try_clone().expect("clone listener"),
            peers,
            self.config.tcp.clone(),
        )
        .expect("configure listener");
        let stop = Arc::new(AtomicBool::new(false));
        let keys = KeyTable::new(id as u64, self.master.clone());
        let join = {
            let replica = Arc::clone(replica);
            let net = transport.clone();
            let stop = Arc::clone(&stop);
            let n = self.n_replicas;
            let progress_period = self.config.cluster.progress_period;
            std::thread::spawn(move || {
                replica_main::<TcpTransport>(replica, keys, mailbox, net, n, stop, progress_period);
            })
        };
        (transport, stop, join)
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    /// The loopback address replica `id` listens on.
    pub fn replica_addr(&self, id: usize) -> SocketAddr {
        self.seats[id].addr
    }

    /// Replica `id`'s last executed sequence number.
    pub fn last_exec(&self, id: usize) -> u64 {
        self.seats[id].replica.lock().last_exec()
    }

    /// Replica `id`'s stable checkpoint.
    pub fn stable_seq(&self, id: usize) -> u64 {
        self.seats[id].replica.lock().stable_seq()
    }

    /// Replica `id`'s memory footprint.
    pub fn replica_footprint(&self, id: usize) -> ReplicaFootprint {
        self.seats[id].replica.lock().footprint()
    }

    /// Replica `id`'s service state digest (divergence checks).
    pub fn state_digest(&self, id: usize) -> peats_auth::Digest {
        self.seats[id].replica.lock().state_digest()
    }

    /// Tears replica `id` down hard: stops its event loop and shuts its
    /// transport, resetting every connection mid-stream. Peers see dead
    /// sockets and fall back to reconnect-with-backoff. The listening
    /// socket stays bound (held by the seat) so the address stays
    /// reserved.
    ///
    /// # Panics
    ///
    /// Panics if the replica's thread panicked.
    pub fn kill_replica(&mut self, id: usize) {
        let seat = &mut self.seats[id];
        seat.stop.store(true, Ordering::Relaxed);
        seat.transport.shutdown();
        if let Some(join) = seat.join.take() {
            join.join().expect("replica thread panicked");
        }
    }

    /// Brings a killed replica back *wiped* — fresh state machine, empty
    /// log, view 0 — listening on its original address. Recovery must go
    /// through reconnection, checkpoint detection, and snapshot state
    /// transfer, exactly like a process restarted after a crash.
    ///
    /// # Panics
    ///
    /// Panics if the replica was not killed first.
    pub fn respawn_replica(&mut self, id: usize) {
        assert!(
            self.seats[id].join.is_none(),
            "respawn_replica requires kill_replica first"
        );
        let fresh = self
            .fresh_replica(id)
            .expect("policy parameters were already validated at start");
        *self.seats[id].replica.lock() = fresh;
        let (transport, stop, join) =
            self.spawn_replica(id, &self.seats[id].listener, &self.seats[id].replica);
        let seat = &mut self.seats[id];
        seat.transport = transport;
        seat.stop = stop;
        seat.join = Some(join);
    }

    /// The replica address map a client needs to dial in (also what a
    /// `peatsd`-style config would list as `--peers`).
    pub fn client_peer_map(&self) -> BTreeMap<NodeId, SocketAddr> {
        self.replica_addrs.clone()
    }

    /// Takes the [`TupleSpace`](peats::TupleSpace) handle for client slot
    /// `idx`: dials every replica over TCP. The handle starts no thread of
    /// its own — whichever invocation is waiting receives from its mailbox,
    /// which is what reads the connections. Clones of the handle share
    /// the connections and invoke concurrently.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already taken.
    pub fn handle(&mut self, idx: usize) -> ReplicatedPeats<TcpTransport> {
        let pid = self.client_slots[idx]
            .take()
            .expect("client slot already taken");
        let node = (self.n_replicas + idx) as NodeId;
        let (transport, mailbox) =
            TcpTransport::connect(node, self.replica_addrs.clone(), self.config.tcp.clone());
        self.client_transports.push(transport.clone());
        let keys = KeyTable::new(u64::from(node), self.master.clone());
        ReplicatedPeats::connect(
            transport,
            mailbox,
            keys,
            pid,
            self.f,
            self.n_replicas,
            self.config.cluster.client.clone(),
        )
    }

    /// Total outbound frames shed by the replicas' bounded queues.
    pub fn dropped_outbound(&self) -> u64 {
        self.seats
            .iter()
            .map(|s| s.transport.dropped_outbound())
            .sum()
    }

    /// Stops every replica thread and client transport and waits for the
    /// replica threads to exit.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        for seat in &self.seats {
            seat.stop.store(true, Ordering::Relaxed);
            seat.transport.shutdown();
        }
        for t in &self.client_transports {
            t.shutdown();
        }
        for seat in &mut self.seats {
            if let Some(join) = seat.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        self.teardown();
    }
}

impl std::fmt::Debug for TcpCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCluster")
            .field("replicas", &self.n_replicas)
            .field("addrs", &self.replica_addrs)
            .finish()
    }
}
