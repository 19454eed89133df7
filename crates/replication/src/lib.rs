//! # peats-replication
//!
//! The Byzantine fault-tolerant replicated PEATS — the Fig. 2 / DepSpace
//! architecture of §4 of Bessani et al.:
//!
//! * [`service`] — the deterministic PEATS service with its per-replica
//!   reference monitor (the "interceptor");
//! * [`messages`] — the wire protocol with MAC-sealed envelopes
//!   (authenticated channels);
//! * [`replica`] — a sans-io PBFT-style replica state machine
//!   (pre-prepare / prepare / commit, simplified view change), one file
//!   per state machine it contains: ordering, checkpoints and state
//!   transfer, view change, durability;
//! * [`client`] — the sans-io client: `f+1` reply voting, and the op
//!   machines (send, retry, probe, widen, fall back, cancel) that both
//!   client drivers run;
//! * [`faults`] — injectable replica fault modes and `Faulty`, the
//!   wrapper the test harnesses drive in place of a bare [`Replica`];
//! * [`sim_harness`] — a deterministic simulated deployment
//!   ([`SimCluster`]) for fault experiments, its clients driving the op
//!   machines on simulated time;
//! * [`runtime`] — the transport-generic deployment runtime: the replica
//!   event loop ([`replica_main`], generic over a [`Node`](runtime::Node))
//!   and the concurrent client handle ([`ReplicatedPeats`], driving the op
//!   machines on `Instant`), written against `peats-netsim`'s
//!   [`Transport`](peats_netsim::Transport) trait so the same code runs
//!   over in-memory channels and over real TCP sockets (`peats-net`);
//! * [`threaded`] — the in-process deployment: one [`Cluster`] harness
//!   (replica threads, client slots, introspection, fault injection,
//!   kill/respawn) over a small [`Fabric`] trait that only hands nodes
//!   their endpoints. [`ThreadedCluster`] is the cluster over in-memory
//!   channels ([`ThreadNet`](peats_netsim::ThreadNet)); `peats-net`'s
//!   `TcpCluster` is the same cluster over loopback sockets. The client
//!   handle implements [`peats::TupleSpace`], so every consensus object and
//!   universal construction runs on the real replicated service
//!   unchanged.
//!
//! Safety requires `n = 3f+1` replicas; this is the *replica* fault bound
//! `f`, independent of the *process* fault bound `t` of the algorithms
//! running on top (the paper's two-level model: a fixed set of "controlled"
//! servers serving an open set of untrusted processes, §4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod messages;
pub mod replica;
pub mod runtime;
pub mod service;
pub mod sim_harness;
pub mod threaded;
pub mod wal;

pub use client::{
    BlockingPoll, BlockingSession, ClientConfig, ClientSession, ReadPoll, ReadSession,
};
pub use faults::FaultMode;
pub use messages::{
    batch_digest, Message, OpResult, Registration, ReplicaId, ReplicaSnapshot, Request, RequestOp,
    Sealed, Seq, View, WaitKind,
};
pub use replica::{Dest, Replica, ReplicaConfig, ReplicaFootprint};
pub use runtime::{replica_main, ship, ReplicatedPeats};
pub use service::PeatsService;
pub use sim_harness::SimCluster;
pub use threaded::{Cluster, ClusterConfig, Fabric, ThreadedCluster};
pub use wal::{
    DiskMetrics, DurableConfig, DurableSnapshot, DurableStore, Recovery, RecoveryReport, WalRecord,
};
