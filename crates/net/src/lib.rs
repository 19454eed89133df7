//! # peats-net
//!
//! The real-deployment layer of the PEATS reproduction: the
//! [`Transport`](peats_netsim::Transport) trait implemented over
//! `std::net` TCP sockets, so the same transport-generic replica and
//! client code that runs over in-memory channels
//! ([`ThreadNet`](peats_netsim::ThreadNet)) runs as separate OS processes
//! over a real network.
//!
//! * [`tcp`] — [`TcpTransport`]/[`TcpMailbox`]: length-prefixed frames,
//!   read by whichever thread receives from the mailbox (one `poll(2)`
//!   over the node's listener and connections — no reader threads; a node
//!   is served while its mailbox is read), reconnect with backoff, sends
//!   written from the calling thread (one bounded `write` per peer per
//!   batch) with a bounded drop-oldest queue behind every link that is
//!   down or backlogged;
//! * [`cluster`] — [`TcpCluster`]: an in-process loopback harness (every
//!   replica a thread, every connection a real socket) for tests and
//!   benchmarks;
//! * [`text`] — the human-readable tuple/template syntax shared by the
//!   `peats` CLI and the daemon's configuration;
//! * the binaries: `peatsd` (one replica of the policy-enforced tuple
//!   space) and `peats` (a command-line client).
//!
//! Unix only: the mailbox waits in `poll(2)` (through `peats-poll`, the
//! workspace's one crate with `unsafe` code) and is woken through a
//! `UnixStream` pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

pub mod cluster;
pub mod config;
pub mod tcp;
pub mod text;

pub use cluster::{TcpCluster, TcpClusterConfig, TcpFabric};
pub use tcp::{TcpMailbox, TcpTransport};

/// The version of what peers send each other: the replication messages,
/// and the snapshots state transfer carries. A dialer's hello announces it,
/// and an acceptor drops a connection that announces another (see
/// [`tcp`]). Bump it with every change to an encoding a peer reads.
pub const PROTOCOL_VERSION: u32 = 1;

/// Tuning knobs for a [`TcpTransport`] endpoint.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Largest frame accepted or produced; bigger inbound lengths
    /// disconnect the peer before any allocation.
    pub max_frame: usize,
    /// Bound on each link's outbound queue (where frames wait while the
    /// link is down or backlogged); when full the oldest frame is shed
    /// (asynchronous model — the protocol retransmits).
    pub queue_depth: usize,
    /// First reconnect delay after a failed dial.
    pub reconnect_min: Duration,
    /// Backoff ceiling for reconnect delays.
    pub reconnect_max: Duration,
    /// Per-attempt dial timeout.
    pub connect_timeout: Duration,
    /// Artificial delay before each frame write — injected network
    /// latency for benchmarks; zero (the default) disables it. Slept by the
    /// link's own thread, never by the sender.
    pub send_delay: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            max_frame: peats_codec::DEFAULT_MAX_FRAME,
            queue_depth: 1024,
            reconnect_min: Duration::from_millis(10),
            reconnect_max: Duration::from_secs(1),
            connect_timeout: Duration::from_secs(1),
            send_delay: Duration::ZERO,
        }
    }
}
