//! The in-process deployment: `3f+1` replica threads behind
//! authenticated channels — the paper's Fig. 2 inside one process.
//!
//! [`Cluster`] is the one harness for both fabrics. It owns each replica's
//! seat (state machine, stop flag, thread, endpoint), the client registry
//! and slots, the master key, introspection, fault injection, and
//! kill/respawn/shutdown. Every replica thread runs [`replica_main`] and
//! every client handle is a [`ReplicatedPeats`] — the code `peatsd` and
//! the `peats` CLI run as separate processes. All that differs is how a
//! node gets its endpoint, the [`Fabric`]: [`ThreadFabric`]'s in-memory
//! channels ([`ThreadedCluster`], the fast wall-clock tier) or
//! `peats-net`'s loopback sockets (`TcpCluster`). A scenario written
//! against `Cluster<F>` runs on both unchanged, and because the handle
//! implements [`peats::TupleSpace`], so does every algorithm in
//! `peats-consensus` and `peats-universal`.
//!
//! The simulator ([`SimCluster`](crate::SimCluster)) is not an instance:
//! its clients run the handle's op machines on simulated time.

use crate::faults::{FaultMode, Faulty};
use crate::replica::{
    Replica, ReplicaConfig, ReplicaFootprint, DEFAULT_BATCH_CAP, DEFAULT_CHECKPOINT_INTERVAL,
    DEFAULT_MAX_IN_FLIGHT,
};
use crate::service::PeatsService;
use crate::wal::{DurableConfig, DurableStore};
use crate::{replica_main, ClientConfig, ReplicatedPeats};
use peats_auth::KeyTable;
use peats_netsim::{NodeId, ThreadMailbox, ThreadNet, Transport};
use peats_policy::{Policy, PolicyError, PolicyParams};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Deployment-wide configuration of a [`Cluster`] (either fabric).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Maximum requests per `PrePrepare` batch (see
    /// [`ReplicaConfig::batch_cap`]).
    pub batch_cap: usize,
    /// Maximum assigned-but-unexecuted slots in flight (see
    /// [`ReplicaConfig::max_in_flight`]).
    pub max_in_flight: usize,
    /// Checkpoint interval in executed slots, at least 1 (see
    /// [`ReplicaConfig::checkpoint_interval`]).
    pub checkpoint_interval: u64,
    /// Interval of the replicas' progress check (the view-change trigger).
    /// The check runs on a deadline — it fires even under continuous
    /// message traffic, so a flooding peer cannot starve it.
    pub progress_period: Duration,
    /// Timing knobs handed to every client handle.
    pub client: ClientConfig,
    /// Root directory for durable replica state. When set, each replica
    /// opens a [`DurableStore`] under `data_dir/replica-<id>`, recovers
    /// from any state found there, and write-ahead-logs every executed
    /// batch. `None` (the default) runs memory-only.
    pub data_dir: Option<std::path::PathBuf>,
    /// Durability knobs (fsync policy, segment size) applied when
    /// `data_dir` is set.
    pub durable: DurableConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            batch_cap: DEFAULT_BATCH_CAP,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            progress_period: Duration::from_millis(300),
            client: ClientConfig::default(),
            data_dir: None,
            durable: DurableConfig::default(),
        }
    }
}

/// The mailbox paired with a fabric's transport.
type FabricMailbox<F> = <<F as Fabric>::Net as Transport>::Mailbox;

/// How the nodes of a [`Cluster`] get their endpoints: the one part of a
/// harness that depends on the transport.
pub trait Fabric: Sized {
    /// The transport every endpoint sends on.
    type Net: Transport;

    /// Node `node`'s endpoint: a replica's (nodes `0..3f+1`) or a
    /// client's. For a respawned replica, `old` is the mailbox its last
    /// event loop handed back when it was killed; `None` otherwise.
    fn endpoint(
        &mut self,
        node: NodeId,
        old: Option<FabricMailbox<Self>>,
    ) -> (Self::Net, FabricMailbox<Self>);

    /// Closes node `node`'s endpoint `net`: a thread blocked in its mailbox
    /// returns.
    fn close(&self, net: &Self::Net, node: NodeId);
}

/// One replica: its state machine, stop flag, thread and endpoint.
struct Seat<T: Transport> {
    /// The state machine under its fault injection, shared with the
    /// replica's thread. Introspection locks it between two passes of the
    /// loop, never waiting on a receive.
    node: Arc<parking_lot::Mutex<Faulty>>,
    stop: Arc<AtomicBool>,
    net: T,
    /// The running loop; it hands its mailbox back when it stops.
    thread: Option<JoinHandle<T::Mailbox>>,
    /// A killed replica's mailbox, kept for its respawn.
    parked: Option<T::Mailbox>,
}

/// A running replicated PEATS inside one process: `3f+1` replica threads
/// over the fabric `F`, plus one client slot per provisioned pid.
pub struct Cluster<F: Fabric> {
    fabric: F,
    seats: Vec<Seat<F::Net>>,
    f: usize,
    master: Vec<u8>,
    client_slots: Vec<Option<u64>>,
    /// The endpoints handed to client handles, closed at shutdown.
    clients: Vec<(NodeId, F::Net)>,
    /// Everything needed to build a fresh replica on a respawn.
    policy: Policy,
    params: PolicyParams,
    registry: BTreeMap<u64, u64>,
    config: ClusterConfig,
}

impl<F: Fabric> Cluster<F> {
    /// Starts `3f+1` replicas hosting a PEATS with `policy`/`params` on
    /// `fabric`, and provisions one client slot per entry of
    /// `client_pids` (client `i` is node `3f+1+i`). `faults[i]` (when
    /// provided) injects a fault into replica `i`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] when the policy declares unset
    /// parameters.
    pub fn launch(
        fabric: F,
        policy: Policy,
        params: PolicyParams,
        f: usize,
        client_pids: &[u64],
        faults: &[FaultMode],
        config: ClusterConfig,
    ) -> Result<Self, PolicyError> {
        let n_replicas = 3 * f + 1;
        let registry = client_pids
            .iter()
            .enumerate()
            .map(|(i, pid)| ((n_replicas + i) as u64, *pid))
            .collect();
        let mut cluster = Cluster {
            fabric,
            seats: Vec::with_capacity(n_replicas),
            f,
            master: b"peats-cluster-master".to_vec(),
            client_slots: client_pids.iter().map(|pid| Some(*pid)).collect(),
            clients: Vec::new(),
            policy,
            params,
            registry,
            config,
        };
        for id in 0..n_replicas {
            let mut node = Faulty::new(cluster.build_replica(id)?);
            node.fault = faults.get(id).cloned().unwrap_or_default();
            let seat = cluster.spawn(id, Arc::new(parking_lot::Mutex::new(node)), None);
            cluster.seats.push(seat);
        }
        Ok(cluster)
    }

    /// Builds replica `id`: a fresh service over the cluster's policy,
    /// batched, pipelined and checkpointed as its config says. With a
    /// `data_dir`, the replica recovers from any state under
    /// `data_dir/replica-<id>` and write-ahead-logs there. Disk failure is
    /// non-fatal: the replica keeps running memory-only, matching the
    /// degrade policy of the [`wal`](crate::wal) module.
    fn build_replica(&self, id: usize) -> Result<Replica, PolicyError> {
        let service = PeatsService::new(self.policy.clone(), self.params.clone())?;
        let config = &self.config;
        let mut replica = Replica::new(
            ReplicaConfig {
                batch_cap: config.batch_cap,
                max_in_flight: config.max_in_flight,
                checkpoint_interval: config.checkpoint_interval,
                ..ReplicaConfig::new(id as u32, 3 * self.f + 1, self.f)
            },
            service,
            self.registry.clone(),
        );
        if let Some(root) = &config.data_dir {
            match DurableStore::open(&root.join(format!("replica-{id}")), config.durable) {
                Ok((store, recovery)) => {
                    replica.restore_durable(store, recovery);
                }
                Err(e) => eprintln!("replica {id}: disk unavailable ({e}); running memory-only"),
            }
        }
        Ok(replica)
    }

    /// Runs `replica` as replica `id` on a thread of its own.
    fn spawn(
        &mut self,
        id: usize,
        node: Arc<parking_lot::Mutex<Faulty>>,
        old: Option<FabricMailbox<F>>,
    ) -> Seat<F::Net> {
        let (net, mailbox) = self.fabric.endpoint(id as NodeId, old);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (node, net, stop) = (Arc::clone(&node), net.clone(), Arc::clone(&stop));
            let keys = KeyTable::new(id as u64, self.master.clone());
            let (n, period) = (3 * self.f + 1, self.config.progress_period);
            std::thread::spawn(move || replica_main(node, keys, mailbox, net, n, stop, period))
        };
        Seat {
            node,
            stop,
            net,
            thread: Some(thread),
            parked: None,
        }
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.seats.len()
    }

    /// The fabric the cluster runs on.
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// Injects a fault mode into a running replica (crash/recover
    /// experiments).
    pub fn set_fault(&self, id: usize, fault: FaultMode) {
        self.seats[id].node.lock().fault = fault;
    }

    /// Replica `id`'s last executed sequence number.
    pub fn last_exec(&self, id: usize) -> u64 {
        self.seats[id].node.lock().replica.last_exec()
    }

    /// Replica `id`'s stable checkpoint.
    pub fn stable_seq(&self, id: usize) -> u64 {
        self.seats[id].node.lock().replica.stable_seq()
    }

    /// Replica `id`'s memory footprint (bounded-memory assertions).
    pub fn replica_footprint(&self, id: usize) -> ReplicaFootprint {
        self.seats[id].node.lock().replica.footprint()
    }

    /// Replica `id`'s service state digest (divergence checks).
    pub fn state_digest(&self, id: usize) -> peats_auth::Digest {
        self.seats[id].node.lock().replica.state_digest()
    }

    /// Stops replica `id` hard: its event loop ends and its endpoint is
    /// closed (over sockets, every connection resets and peers fall back
    /// to reconnect-with-backoff). Its state machine stays readable.
    ///
    /// # Panics
    ///
    /// Panics if the replica's thread panicked.
    pub fn kill_replica(&mut self, id: usize) {
        let seat = &mut self.seats[id];
        seat.stop.store(true, Ordering::Relaxed);
        self.fabric.close(&seat.net, id as NodeId);
        if let Some(thread) = seat.thread.take() {
            seat.parked = Some(thread.join().expect("replica thread panicked"));
        }
    }

    /// Brings a killed replica back *wiped* — fresh state machine, empty
    /// log, view 0 — on its old endpoint (mailbox or address). Like a
    /// process restarted after a crash, it recovers from its `data_dir`
    /// if it has one, and otherwise through checkpoint state transfer.
    ///
    /// # Panics
    ///
    /// Panics if the replica was not killed first.
    pub fn respawn_replica(&mut self, id: usize) {
        assert!(
            self.seats[id].thread.is_none(),
            "respawn_replica requires kill_replica first"
        );
        let fresh = self
            .build_replica(id)
            .expect("policy parameters were already validated at start");
        *self.seats[id].node.lock() = Faulty::new(fresh);
        let old = self.seats[id].parked.take();
        let node = Arc::clone(&self.seats[id].node);
        self.seats[id] = self.spawn(id, node, old);
    }

    /// A crash-and-restart of replica `id`:
    /// [`kill_replica`](Self::kill_replica) then
    /// [`respawn_replica`](Self::respawn_replica).
    pub fn restart_replica(&mut self, id: usize) {
        self.kill_replica(id);
        self.respawn_replica(id);
    }

    /// Takes the [`TupleSpace`](peats::TupleSpace) handle for client slot
    /// `idx`. The handle starts no thread of its own: whichever invocation
    /// is waiting receives from its mailbox (see [`runtime`](crate::runtime)).
    /// Clones of the handle share the mailbox and invoke concurrently.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already taken.
    pub fn handle(&mut self, idx: usize) -> ReplicatedPeats<F::Net> {
        let pid = self.client_slots[idx]
            .take()
            .expect("client slot already taken");
        let node = (self.n_replicas() + idx) as NodeId;
        let (net, mailbox) = self.fabric.endpoint(node, None);
        self.clients.push((node, net.clone()));
        let keys = KeyTable::new(u64::from(node), self.master.clone());
        ReplicatedPeats::connect(
            net,
            mailbox,
            keys,
            pid,
            self.f,
            self.n_replicas(),
            self.config.client.clone(),
        )
    }

    /// Stops every replica thread and client endpoint and waits for the
    /// replica threads to exit (what dropping the cluster does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<F: Fabric> Drop for Cluster<F> {
    fn drop(&mut self) {
        for (id, seat) in self.seats.iter().enumerate() {
            seat.stop.store(true, Ordering::Relaxed);
            self.fabric.close(&seat.net, id as NodeId);
        }
        for (node, net) in &self.clients {
            self.fabric.close(net, *node);
        }
        for seat in &mut self.seats {
            if let Some(thread) = seat.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

impl<F: Fabric> std::fmt::Debug for Cluster<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("replicas", &self.seats.len())
            .finish()
    }
}

/// In-memory channels: every node's mailbox is made up front and handed
/// out once; a respawned replica gets its old mailbox back, with whatever
/// arrived while it was down.
#[derive(Debug)]
pub struct ThreadFabric {
    net: ThreadNet,
    mailboxes: Vec<Option<ThreadMailbox>>,
}

impl Fabric for ThreadFabric {
    type Net = ThreadNet;

    fn endpoint(&mut self, node: NodeId, old: Option<ThreadMailbox>) -> (ThreadNet, ThreadMailbox) {
        let mailbox = old.or_else(|| self.mailboxes[node as usize].take());
        (
            self.net.clone(),
            mailbox.expect("endpoint already handed out"),
        )
    }

    /// A channel has no end to close while other nodes hold its sender:
    /// an empty frame wakes the reader instead (it fails authentication
    /// and is dropped), and a stopped loop then returns.
    fn close(&self, net: &ThreadNet, node: NodeId) {
        net.send(node, node, Vec::new());
    }
}

/// The cluster over in-memory channels.
pub type ThreadedCluster = Cluster<ThreadFabric>;

impl ThreadedCluster {
    /// Spawns `3f+1` replica threads hosting a PEATS with
    /// `policy`/`params` under the default [`ClusterConfig`]; provisions
    /// one client slot per entry of `client_pids`. `faults[i]` (when
    /// provided) injects a fault into replica `i`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] when the policy declares unset
    /// parameters.
    pub fn start(
        policy: Policy,
        params: PolicyParams,
        f: usize,
        client_pids: &[u64],
        faults: &[FaultMode],
    ) -> Result<Self, PolicyError> {
        Self::start_with(
            policy,
            params,
            f,
            client_pids,
            faults,
            ClusterConfig::default(),
        )
    }

    /// [`ThreadedCluster::start`] with explicit batching/pipelining and
    /// timing configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] when the policy declares unset
    /// parameters.
    pub fn start_with(
        policy: Policy,
        params: PolicyParams,
        f: usize,
        client_pids: &[u64],
        faults: &[FaultMode],
        config: ClusterConfig,
    ) -> Result<Self, PolicyError> {
        let (net, mailboxes) = ThreadNet::new(3 * f + 1 + client_pids.len());
        let fabric = ThreadFabric {
            net,
            mailboxes: mailboxes.into_iter().map(Some).collect(),
        };
        Cluster::launch(fabric, policy, params, f, client_pids, faults, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats::{CasOutcome, TupleSpace};
    use peats_tuplespace::{template, tuple, Template, Tuple};
    use std::time::Instant;

    #[test]
    fn end_to_end_out_rdp_cas() {
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100, 101],
            &[],
        )
        .unwrap();
        let a = cluster.handle(0);
        let b = cluster.handle(1);
        a.out(tuple!["JOB", 1]).unwrap();
        assert_eq!(
            b.rdp(&template!["JOB", ?x]).unwrap(),
            Some(tuple!["JOB", 1])
        );
        assert!(a
            .cas(&template!["D", ?x], tuple!["D", 7])
            .unwrap()
            .inserted());
        let out = b.cas(&template!["D", ?x], tuple!["D", 9]).unwrap();
        assert_eq!(out.found(), Some(&tuple!["D", 7]));
        cluster.shutdown();
    }

    #[test]
    fn blocked_rd_is_one_registration_not_a_poll_loop() {
        let mut cluster =
            ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[50, 51], &[])
                .unwrap();
        let reader = cluster.handle(0);
        let writer = cluster.handle(1);
        // `next_req` is shared between clones, so the probe observes how
        // many requests — each a full consensus round — the blocked rd
        // issued while it waited.
        let probe = reader.clone();
        let t = std::thread::spawn(move || reader.rd(&template!["SLOW", ?x]).unwrap());
        std::thread::sleep(Duration::from_millis(300));
        writer.out(tuple!["SLOW", 1]).unwrap();
        assert_eq!(t.join().unwrap(), tuple!["SLOW", 1]);
        // Server-side wakes: the whole blocked rd is exactly one ordered
        // request (the Register) — O(1) consensus rounds however long the
        // block lasts, where the old poll loop issued a round per tick.
        assert_eq!(
            probe.issued_requests(),
            1,
            "a blocked rd must cost exactly one ordered registration"
        );
        assert_eq!(probe.rebroadcasts(), 0, "a parked read must not retry");
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clones_demux_replies_without_serializing() {
        // Regression: a clone used to hold the shared mailbox lock for its
        // whole `invoke`, serializing concurrent clients and eating replies
        // addressed to other in-flight requests (forcing them onto the
        // rebroadcast path). With the reply demux, invocations from clones
        // genuinely overlap (max in-flight ≥ 2 — impossible under the old
        // lock, which held broadcast-to-decision as one critical section)
        // and none of them needs a single retry round, however often the
        // reader role changes hands between them. The retry interval
        // is generous so a scheduler stall on a loaded CI box cannot
        // legitimately trigger a rebroadcast — only a lost/eaten reply can.
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[],
            ClusterConfig {
                client: ClientConfig {
                    retry_interval: Duration::from_secs(5),
                    ..ClientConfig::default()
                },
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        let clones = 8;
        let ops = 200;
        let barrier = Arc::new(std::sync::Barrier::new(clones));
        let joins: Vec<_> = (0..clones)
            .map(|c| {
                let h = h.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..ops {
                        h.out(tuple!["C", c as i64, i]).unwrap();
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert!(
            h.max_concurrent_invokes() >= 2,
            "cloned handles must overlap in flight, saw {}",
            h.max_concurrent_invokes()
        );
        assert_eq!(
            h.rebroadcasts(),
            0,
            "no reply may be eaten: every invoke must decide on its first broadcast"
        );
        assert_eq!(h.issued_requests(), (clones * ops) as u64);
        cluster.shutdown();
    }

    #[test]
    fn a_parked_take_does_not_slow_its_sibling_clones() {
        // One clone sits in a `take` nothing matches — registered, parked,
        // waiting, and for most of the run the session the reader role
        // falls back to. Its siblings' replies must reach them as they
        // arrive: an op that had to wait for the take's next wake-up
        // (there is none before its deadline) would show as a stall of a
        // retry interval.
        let mut cluster =
            ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], &[])
                .unwrap();
        let retry_interval = cluster.config.client.retry_interval;
        let h = cluster.handle(0);
        let parked = {
            let h = h.clone();
            std::thread::spawn(move || h.take(&template!["NEVER", ?x]))
        };
        while cluster.replica_footprint(0).registrations == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let time = |op: &dyn Fn()| {
            let start = Instant::now();
            op();
            start.elapsed()
        };
        let mut latencies: Vec<Duration> = (0..500i64)
            .flat_map(|i| {
                [
                    time(&|| h.out(tuple!["S", i]).unwrap()),
                    time(&|| assert!(h.rdp(&template!["S", i]).unwrap().is_some())),
                ]
            })
            .collect();
        latencies.sort();
        let p99 = latencies[latencies.len() * 99 / 100];
        assert!(
            p99 < retry_interval / 10,
            "p99 {p99:?} of 500 outs and 500 rdps beside a parked take"
        );
        assert_eq!(h.rebroadcasts(), 0, "nothing waited for a retry tick");
        h.out(tuple!["NEVER", 1]).unwrap();
        assert_eq!(parked.join().unwrap().unwrap(), tuple!["NEVER", 1]);
        cluster.shutdown();
    }

    #[test]
    fn view_change_fires_under_flooding_traffic() {
        // Regression: the progress check used to require a fully quiet
        // progress period; two flooding peers keep every mailbox busy
        // forever, so a crashed primary was never voted out and the client
        // timed out. The deadline-based check fires under continuous
        // traffic: the op below completes via a view change.
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[
                FaultMode::Crashed, // primary of view 0
                FaultMode::Flooder,
                FaultMode::Flooder,
                FaultMode::Correct,
            ],
        )
        .unwrap();
        let h = cluster.handle(0);
        let start = Instant::now();
        h.out(tuple!["F", 1]).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(8),
            "progress check must fire on its deadline despite the flood"
        );
        assert_eq!(h.rdp(&template!["F", ?x]).unwrap(), Some(tuple!["F", 1]));
        cluster.shutdown();
    }

    #[test]
    fn flooded_mailbox_still_changes_view_and_orders_ops() {
        // The primary of view 0 is dead, and a Byzantine client node pours
        // garbage into the mailbox of replica 1 — the primary of
        // view 1 — in bursts of twice the event loop's pass cap, for the
        // whole run. Every pass still ends (the cap), so replica 1 reaches
        // its progress deadline, votes the dead primary out, and then
        // orders requests between the bursts.
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100, 666],
            &[FaultMode::Crashed],
        )
        .unwrap();
        let h = cluster.handle(0);
        let flooder = (cluster.n_replicas() + 1) as peats_netsim::NodeId;
        let flooding = Arc::new(AtomicBool::new(true));
        let flood = {
            let (net, flooding) = (cluster.fabric.net.clone(), Arc::clone(&flooding));
            std::thread::spawn(move || {
                while flooding.load(Ordering::Relaxed) {
                    for _ in 0..128 {
                        net.send(flooder, 1, vec![0xFF; 8]);
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            })
        };
        let start = Instant::now();
        for i in 0..8i64 {
            h.out(tuple!["FLOOD", i]).unwrap();
        }
        assert!(
            start.elapsed() < Duration::from_secs(8),
            "a flooded mailbox must not postpone the progress check"
        );
        assert!(
            cluster.seats[1].node.lock().replica.view() >= 1,
            "view change fired"
        );
        assert_eq!(h.count(&template!["FLOOD", ?i]).unwrap(), 8);
        flooding.store(false, Ordering::Relaxed);
        flood.join().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn retry_timer_resets_from_now_after_a_stall() {
        // A cluster that stays unresponsive longer than several retry
        // intervals (crashed primary + slow progress period) must produce
        // at most one rebroadcast per interval of wall time — the old
        // `next_retry += interval` arithmetic banked the missed ticks and
        // fired them back-to-back once the invoke thread was rescheduled.
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[FaultMode::Crashed],
            ClusterConfig {
                // Recovery takes ≥ 600ms, guaranteeing several 100ms retry
                // windows pass while the cluster is unresponsive.
                progress_period: Duration::from_millis(600),
                client: ClientConfig {
                    retry_interval: Duration::from_millis(100),
                    ..ClientConfig::default()
                },
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        let start = Instant::now();
        h.out(tuple!["R", 1]).unwrap();
        let elapsed = start.elapsed();
        let intervals = (elapsed.as_millis() / 100) as u64;
        assert!(
            h.rebroadcasts() <= intervals + 1,
            "rebroadcasts must be paced ({} in {} intervals)",
            h.rebroadcasts(),
            intervals
        );
        cluster.shutdown();
    }

    #[test]
    fn restarted_replica_recovers_via_state_transfer_mid_flood() {
        // Replica 2 is wiped mid-run (fresh state machine, nothing on
        // disk) while replica 3 floods junk votes into every mailbox. The
        // healthy majority keeps committing and checkpointing; the history
        // replica 2 missed is garbage-collected, so the ONLY way its
        // last_exec can move is a verified snapshot install — which the
        // checkpoint broadcasts of ongoing traffic must trigger.
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[
                FaultMode::Correct,
                FaultMode::Correct,
                FaultMode::Correct,
                FaultMode::Flooder,
            ],
            ClusterConfig {
                batch_cap: 2,
                max_in_flight: 2,
                checkpoint_interval: 2,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        for i in 0..16i64 {
            h.out(tuple!["PRE", i]).unwrap();
        }
        // Let the checkpoint exchange settle so GC provably ran before the
        // restart (history below h is gone cluster-wide).
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.stable_seq(0) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let stable_before = cluster.stable_seq(0);
        assert!(stable_before > 0, "cluster must stabilize under traffic");

        cluster.restart_replica(2);
        assert_eq!(cluster.last_exec(2), 0, "restart wiped the replica");
        // Sustained traffic crosses new boundaries; their votes tell the
        // blank replica it sits below a stable checkpoint.
        for i in 0..16i64 {
            h.out(tuple!["POST", i]).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.last_exec(2) < stable_before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            cluster.last_exec(2) >= stable_before,
            "restarted replica must adopt a snapshot past the pruned history \
             (last_exec {}, stable before restart {stable_before})",
            cluster.last_exec(2)
        );
        assert!(
            cluster.stable_seq(2) >= stable_before,
            "restarted replica must re-establish a stable checkpoint"
        );
        // Once caught up it serves reads like everyone else.
        assert_eq!(h.rdp(&template!["PRE", 0]).unwrap(), Some(tuple!["PRE", 0]));
        cluster.shutdown();
    }

    #[test]
    fn sustained_traffic_keeps_threaded_replica_memory_bounded() {
        let interval = 4u64;
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[],
            ClusterConfig {
                batch_cap: 2,
                max_in_flight: 2,
                checkpoint_interval: interval,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        for i in 0..120i64 {
            h.out(tuple!["M", i]).unwrap();
        }
        // Stragglers may still be exchanging the last checkpoint votes.
        let deadline = Instant::now() + Duration::from_secs(5);
        let bound = (interval as usize + 2) * 2;
        while Instant::now() < deadline
            && (0..cluster.n_replicas()).any(|id| cluster.replica_footprint(id).slots > bound)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        for id in 0..cluster.n_replicas() {
            let fp = cluster.replica_footprint(id);
            assert!(
                fp.slots <= bound,
                "replica {id} retains {} slots after 120 requests (bound {bound})",
                fp.slots
            );
            assert!(
                fp.ordered <= bound * 2,
                "replica {id} retains {} ordering hints",
                fp.ordered
            );
        }
        cluster.shutdown();
    }

    /// The durable tier through the threaded driver: sustained traffic
    /// keeps the on-disk footprint bounded by the size of the state (a
    /// snapshot is taken when the log has outgrown the last one, and
    /// prunes the segments and snapshots behind it), and replicas come
    /// back from their data dirs — a restart between two snapshots replays
    /// the log since the older one to exactly the state that was lost,
    /// synchronously, before a single network message could have carried
    /// state transfer.
    #[test]
    fn durable_cluster_bounds_disk_and_restarts_from_disk() {
        const INTERVAL: u64 = 4;
        const OPS: u64 = 160;
        let dir =
            std::env::temp_dir().join(format!("peats-threaded-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ClusterConfig {
            checkpoint_interval: INTERVAL,
            data_dir: Some(dir.clone()),
            ..ClusterConfig::default()
        };
        let start = |config: &ClusterConfig| {
            ThreadedCluster::start_with(
                Policy::allow_all(),
                PolicyParams::new(),
                1,
                &[100],
                &[],
                config.clone(),
            )
            .unwrap()
        };
        let mut cluster = start(&config);
        let h = cluster.handle(0);
        for i in 0..OPS as i64 {
            h.out(tuple!["D", i]).unwrap();
        }
        // Wait until every replica has executed everything and the last
        // checkpoint has settled.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline
            && (0..cluster.n_replicas())
                .any(|id| cluster.last_exec(id) < OPS || cluster.stable_seq(id) < OPS)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        let snapshot_files = |id: usize| {
            let mut names: Vec<String> = std::fs::read_dir(dir.join(format!("replica-{id}")))
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("snap-") && n.ends_with(".bin"))
                .collect();
            names.sort();
            names
        };
        // Generous for one logged `out`: the real record is ~60 bytes.
        let interval_bytes = INTERVAL * 128;
        for id in 0..cluster.n_replicas() {
            let fp = cluster.replica_footprint(id);
            assert!(fp.snapshot_bytes > 0, "replica {id} never wrote a snapshot");
            assert!(
                fp.wal_segments <= 3,
                "replica {id} retains {} WAL segments after pruning",
                fp.wal_segments
            );
            // The log between the two retained snapshots, and the log
            // since: each under its snapshot's size plus the interval that
            // tipped it over.
            assert!(
                fp.wal_bytes <= fp.snapshot_bytes + 2 * interval_bytes,
                "replica {id}: {} WAL bytes beside {} of snapshots",
                fp.wal_bytes,
                fp.snapshot_bytes
            );
            assert_eq!(snapshot_files(id).len(), 2, "replica {id}");
        }

        // Crash-and-restart replica 0: its fresh state machine must load
        // the durable snapshot + WAL suffix during `restart_replica`
        // itself (the other replicas haven't even been asked yet). The
        // newest snapshot is far older than the newest stable checkpoint —
        // a state of a hundred tuples is worth some twenty intervals of
        // log — so the suffix is a long one.
        let (exec, digest) = (cluster.last_exec(0), cluster.state_digest(0));
        assert_eq!(exec, OPS);
        cluster.restart_replica(0);
        assert!(
            cluster.stable_seq(0) + 4 * INTERVAL <= OPS,
            "snapshot at {}: nearly every checkpoint was persisted",
            cluster.stable_seq(0)
        );
        assert_eq!(cluster.last_exec(0), exec);
        assert_eq!(cluster.state_digest(0), digest);

        // And it still participates: fresh writes land cluster-wide.
        h.out(tuple!["POST", 1]).unwrap();
        assert_eq!(
            h.rdp(&template!["POST", 1]).unwrap(),
            Some(tuple!["POST", 1])
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline
            && (0..cluster.n_replicas()).any(|id| cluster.last_exec(id) <= OPS)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        let (exec, digest) = (cluster.last_exec(1), cluster.state_digest(1));
        cluster.shutdown();

        // Full-cluster stop; replica 0's newest snapshot rots on disk. It
        // falls back to the older one and a longer replay, the others take
        // their newest, and all of them are where they stopped.
        let newest = snapshot_files(0).pop().unwrap();
        let path = dir.join("replica-0").join(newest);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let cluster = start(&config);
        for id in 0..cluster.n_replicas() {
            assert_eq!(cluster.last_exec(id), exec, "replica {id}");
            assert_eq!(cluster.state_digest(id), digest, "replica {id}");
        }
        assert!(cluster.stable_seq(0) < cluster.stable_seq(1));
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Algorithm 1 inlined (the full object lives in `peats-consensus`,
    /// which cannot be a dev-dependency here without a cycle).
    fn weak_propose(space: &ReplicatedPeats, v: peats::Value) -> peats::Value {
        let t = Template::new(vec![
            peats_tuplespace::Field::exact("DECISION"),
            peats_tuplespace::Field::formal("d"),
        ]);
        let e = Tuple::new(vec![peats::Value::from("DECISION"), v.clone()]);
        match space.cas(&t, e).unwrap() {
            CasOutcome::Inserted => v,
            CasOutcome::Found(t) => t.get(1).cloned().unwrap_or(peats::Value::Null),
        }
    }

    #[test]
    fn fast_path_serves_reads_without_ordering() {
        let mut cluster =
            ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], &[])
                .unwrap();
        let h = cluster.handle(0);
        h.out(tuple!["FR", 1]).unwrap();
        h.out(tuple!["FR", 2]).unwrap();
        // Wait for every replica to finish executing both writes before
        // snapshotting: the write commits as soon as 2f+1 replicas have
        // it, so a straggler may still be executing when out() returns.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let execs: Vec<u64> = loop {
            let execs: Vec<u64> = (0..cluster.n_replicas())
                .map(|id| cluster.last_exec(id))
                .collect();
            if execs.iter().all(|e| *e == 2) || std::time::Instant::now() >= deadline {
                break execs;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        for _ in 0..10 {
            assert_eq!(h.rdp(&template!["FR", 1]).unwrap(), Some(tuple!["FR", 1]));
        }
        assert_eq!(h.count(&template!["FR", ?x]).unwrap(), 2);
        assert_eq!(
            h.fast_reads_served(),
            11,
            "every read must ride the fast path"
        );
        assert_eq!(h.fast_read_fallbacks(), 0, "no healthy read may fall back");
        // No replica ordered (executed) anything for the reads.
        let after: Vec<u64> = (0..cluster.n_replicas())
            .map(|id| cluster.last_exec(id))
            .collect();
        assert_eq!(after, execs, "reads must not enter the ordering pipeline");
        cluster.shutdown();
    }

    #[test]
    fn fast_reads_mask_byzantine_replies() {
        // One reply forger (corrupt result, seq inflated to u64::MAX): the
        // three correct replicas still form the f+1 read quorum, and the
        // forged seq must not poison the handle's watermark (which would
        // wedge every later read into fallback).
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[FaultMode::Correct, FaultMode::CorruptReplies],
        )
        .unwrap();
        let h = cluster.handle(0);
        h.out(tuple!["BZ", 1]).unwrap();
        for _ in 0..5 {
            assert_eq!(h.rdp(&template!["BZ", ?x]).unwrap(), Some(tuple!["BZ", 1]));
        }
        assert_eq!(h.fast_reads_served(), 5);
        assert_eq!(h.fast_read_fallbacks(), 0);
        assert!(
            h.read_watermark() < u64::MAX / 2,
            "forged seq inflated the watermark: {}",
            h.read_watermark()
        );
        cluster.shutdown();
    }

    #[test]
    fn fast_reads_widen_past_a_silent_probe_target() {
        // Replica 1 sits in the initial f+1 probe window but never
        // answers. The first read pays one probe timeout, widens to the
        // remaining replicas, decides, and rotates the preferred window —
        // after which reads stop probing the dead replica and every read
        // is still served fast (no ordered fallback).
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[FaultMode::Correct, FaultMode::Crashed],
        )
        .unwrap();
        let h = cluster.handle(0);
        h.out(tuple!["SIL", 1]).unwrap();
        for _ in 0..10 {
            assert_eq!(
                h.rdp(&template!["SIL", ?x]).unwrap(),
                Some(tuple!["SIL", 1])
            );
        }
        assert_eq!(h.fast_reads_served(), 10);
        assert_eq!(h.fast_read_fallbacks(), 0);
        cluster.shutdown();
    }

    #[test]
    fn blocked_rd_wakes_at_push_latency_however_long_it_waited() {
        // With server-side wakes there is no poll tick or backoff to sit
        // out: a rd blocked for 1.5s must return within push latency of
        // the matching write, because the committing replicas push the
        // wake the moment the `out` executes.
        let mut cluster =
            ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], &[])
                .unwrap();
        let h = cluster.handle(0);
        let writer = h.clone();
        let t = std::thread::spawn(move || h.rd(&template!["WAKE", ?x]).unwrap());
        std::thread::sleep(Duration::from_millis(1_500));
        let written = Instant::now();
        writer.out(tuple!["WAKE", 1]).unwrap();
        assert_eq!(t.join().unwrap(), tuple!["WAKE", 1]);
        assert!(
            written.elapsed() < Duration::from_millis(900),
            "blocked rd must wake on the committed write, took {:?}",
            written.elapsed()
        );
        cluster.shutdown();
    }

    #[test]
    fn blocked_take_times_out_with_a_cancelled_registration() {
        // A blocked take whose deadline passes is detached with an ordered
        // Cancel: the invoke reports Unavailable, the registration is
        // pruned from every replica (bounded memory), and a later `out` of
        // a matching tuple stays in the space instead of being consumed by
        // a ghost waiter.
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[],
            ClusterConfig {
                client: ClientConfig {
                    invoke_timeout: Duration::from_millis(400),
                    retry_interval: Duration::from_millis(100),
                    ..ClientConfig::default()
                },
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let h = cluster.handle(0);
        let err = h.take(&template!["GHOST", ?x]).unwrap_err();
        assert!(matches!(err, peats::SpaceError::Unavailable(_)), "{err:?}");
        h.out(tuple!["GHOST", 1]).unwrap();
        // The tuple survives: no cancelled waiter consumed it.
        assert_eq!(
            h.rdp(&template!["GHOST", ?x]).unwrap(),
            Some(tuple!["GHOST", 1])
        );
        wait_for_no_registrations(&cluster);
        cluster.shutdown();
    }

    #[test]
    fn a_watcher_follows_numbered_events_with_one_blocking_rd_each() {
        // How a watcher follows a stream: the writer numbers its events and
        // the watcher blocks in `rd` on the next number — one ordered op
        // per event, and no registration outlives its `rd`.
        let mut cluster = ThreadedCluster::start(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100, 101],
            &[],
        )
        .unwrap();
        let (writer, watcher) = (cluster.handle(0), cluster.handle(1));
        let watching = std::thread::spawn(move || {
            let seen: Vec<Tuple> = (1..=20i64)
                .map(|i| watcher.rd(&template!["EVT", i, _]).unwrap())
                .collect();
            (seen, watcher.issued_requests())
        });
        for i in 1..=20i64 {
            writer.out(tuple!["EVT", i, i * i]).unwrap();
        }
        let (seen, ops) = watching.join().unwrap();
        let events: Vec<Tuple> = (1..=20i64).map(|i| tuple!["EVT", i, i * i]).collect();
        assert_eq!(seen, events);
        assert_eq!(ops, 20);
        wait_for_no_registrations(&cluster);
        cluster.shutdown();
    }

    /// The ordered Cancel is acknowledged by f+1 replicas; stragglers
    /// execute it moments later. Poll briefly so the bounded-memory
    /// assertion covers *every* replica without racing the laggards.
    fn wait_for_no_registrations(cluster: &ThreadedCluster) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let counts: Vec<usize> = (0..cluster.n_replicas())
                .map(|id| cluster.replica_footprint(id).registrations)
                .collect();
            if counts.iter().all(|c| *c == 0) {
                return;
            }
            if Instant::now() >= deadline {
                panic!("registrations must be pruned on every replica, got {counts:?}");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn weak_consensus_runs_on_replicated_space() {
        // Algorithm 1 over the real replicated PEATS (Fig. 2 end-to-end),
        // with the Fig. 3 policy enforced at every replica.
        let mut cluster = ThreadedCluster::start(
            peats::policies::weak_consensus(),
            PolicyParams::new(),
            1,
            &[1, 2],
            &[],
        )
        .unwrap();
        let c1 = cluster.handle(0);
        let c2 = cluster.handle(1);
        let j1 = std::thread::spawn(move || weak_propose(&c1, peats::Value::from("x")));
        let j2 = std::thread::spawn(move || weak_propose(&c2, peats::Value::from("y")));
        let (d1, d2) = (j1.join().unwrap(), j2.join().unwrap());
        assert_eq!(d1, d2);
        cluster.shutdown();
    }
}
