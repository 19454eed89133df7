//! The sans-io BFT replica state machine.
//!
//! A PBFT-style three-phase protocol: the view-`v` primary (`v mod n`)
//! assigns sequence numbers to request *batches* in `PrePrepare`s; replicas
//! exchange `Prepare` and `Commit` votes over the batch digest; a batch
//! executes once its slot is committed and all earlier slots are executed.
//! Safety needs `n ≥ 3f+1` replicas: a prepared certificate is `2f`
//! prepares + the pre-prepare, a committed certificate is `2f+1` commits.
//!
//! Throughput comes from **batching by backpressure**: the primary keeps at
//! most [`ReplicaConfig::max_in_flight`] assigned-but-unexecuted slots
//! open; requests arriving while the window is full wait in `pending` and
//! are drained as one batch (≤ [`ReplicaConfig::batch_cap`] requests) when
//! a slot executes — light load keeps single-request latency, heavy load
//! amortizes the three-phase round over the whole backlog.
//!
//! The state machine is *sans-io*: inputs are `(sender, Message)` pairs and
//! timeout ticks; outputs are `(destination, Message)` pairs. Three drivers
//! wrap it — the deterministic simulator ([`SimCluster`](crate::SimCluster)),
//! the thread harness [`Cluster`](crate::Cluster) over channels or loopback
//! sockets, and the `peatsd` daemon — so the protocol logic is exercised
//! identically in all three. Fault injection is the harnesses' business
//! ([`crate::faults`]); a replica only runs the protocol.
//!
//! **Checkpoints and garbage collection.** Every
//! [`ReplicaConfig::checkpoint_interval`] executed slots a replica
//! broadcasts a `Checkpoint { seq, digest }` over its full state (service +
//! client registry + retained replies). `2f+1` matching digests form a
//! *stable checkpoint* at `h`: slots, ordering hints, checkpoint votes, and
//! view-change reports at or below `h` are pruned, and the vote acceptance
//! window becomes `(h, max(h, last_exec) + L]` — so a replica's memory is
//! bounded by the checkpoint interval plus the in-flight window, not by the
//! executed history. A replica whose `last_exec` falls below a stable
//! checkpoint (crash, flood, partition) cannot replay pruned history;
//! instead it fetches a [`Message::StateSnapshot`] and rejoins in O(state):
//! snapshots install only when `f+1` distinct replicas attest the
//! `(seq, digest)` pair *and* the restored state re-hashes to the attested
//! digest.
//!
//! Remaining simplifications versus full PBFT (also noted in the module
//! docs of [`crate::messages`]): view-change and checkpoint messages carry
//! no per-message signature certificates — the MAC-authenticated channels
//! plus quorum counting stand in for them — which is sufficient for the
//! fault modes the experiments inject (crash, mute, equivocating primary,
//! corrupt replies, flooding).

use crate::messages::{
    attestation_digest, batch_digest, Message, OpResult, ReplicaId, ReplicaSnapshot, ReplyRows,
    Request, RequestOp, Seq, View,
};
use crate::service::PeatsService;
use crate::wal::{DurableSnapshot, DurableStore, Recovery, RecoveryReport};
use peats_auth::Digest;
use peats_policy::OpCall;
use peats_tuplespace::{diff_buckets, BucketKey};
use std::collections::{BTreeMap, BTreeSet};

mod checkpoint;
mod durable;
mod ordering;
#[cfg(test)]
mod tests;
mod view_change;

/// A replica's view-change report: the batches it knows an ordering for.
type PreparedReport = Vec<(Seq, Vec<Request>)>;

/// One stored view-change vote: what the sender reported about its state.
#[derive(Debug)]
struct VcVote {
    last_exec: Seq,
    stable_seq: Seq,
    prepared: PreparedReport,
}

/// Sizes of a replica's growable in-memory structures, for bounded-memory
/// assertions (see [`Replica::footprint`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaFootprint {
    /// Live protocol slots (assigned or voted-on sequence numbers).
    pub slots: usize,
    /// `(client, req_id)` → slot retransmission hints.
    pub ordered: usize,
    /// Pending-but-unordered requests.
    pub pending: usize,
    /// Stored view-change votes across all tracked views.
    pub view_votes: usize,
    /// Stored checkpoint votes (at most one per replica).
    pub checkpoint_votes: usize,
    /// Buffered state-transfer snapshot payloads.
    pub pending_snapshots: usize,
    /// Largest per-client retained-reply map.
    pub max_replies_per_client: usize,
    /// Parked blocking-wait registrations in the service table.
    pub registrations: usize,
    /// Bytes across live write-ahead-log segments (`0` without a data
    /// dir). Bounded-disk regressions assert this stays flat across stable
    /// checkpoints, exactly like the in-memory fields above.
    pub wal_bytes: u64,
    /// Live write-ahead-log segment files.
    pub wal_segments: usize,
    /// Bytes across retained snapshot files.
    pub snapshot_bytes: u64,
    /// Batches appended to the write-ahead log since it was opened.
    pub wal_appends: u64,
    /// Log syncs that had something to flush since it was opened.
    pub wal_syncs: u64,
}

/// Destination of an output message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// Another replica.
    Replica(ReplicaId),
    /// All other replicas.
    AllReplicas,
    /// The transport node of a client.
    Client(u64),
}

/// Default cap on requests per `PrePrepare` batch.
pub const DEFAULT_BATCH_CAP: usize = 64;
/// Default cap on assigned-but-unexecuted slots the primary keeps open.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 2;
/// Default checkpoint interval: every this many executed slots a replica
/// broadcasts a `Checkpoint`, and a `2f+1` digest match garbage-collects
/// everything at or below it.
pub const DEFAULT_CHECKPOINT_INTERVAL: Seq = 128;
/// Cap on `StateSnapshot` answers per requester per stable checkpoint: an
/// explicit `FetchState` may be retried (the answer can be lost), but a
/// Byzantine replica looping cheap fetches must not draw an unbounded
/// stream of O(state) payloads from every correct peer.
const MAX_SNAPSHOT_RESENDS: u32 = 3;
/// Cap on concurrently tracked view-change view buckets. Escalation walks
/// views one at a time, so live votes cluster near the current view; the
/// highest (furthest-future, i.e. junk) buckets are evicted first.
const MAX_TRACKED_VIEWS: usize = 16;
/// Floor on executed results retained per client for retransmission
/// re-replies (the effective retention scales with the configured
/// in-flight volume, see [`Replica::reply_retention`]).
const REPLY_RETENTION_FLOOR: usize = 64;
/// Ceiling on per-client reply retention (memory bound).
const REPLY_RETENTION_CEIL: usize = 4096;
/// The log window `L`: sequence numbers are accepted only inside
/// `(h, max(h, last_exec) + L]`, PBFT's low/high water marks. Votes,
/// pre-prepares, and view-change reports naming a sequence number beyond
/// the high mark are dropped (a single Byzantine replica reporting seq
/// `u64::MAX` would otherwise poison the new primary's sequence allocation
/// and permanently occupy an in-flight window slot); anything at or below
/// the low mark `h` (the stable checkpoint) is garbage-collected history
/// and must not re-materialize a slot.
const SEQ_WINDOW: Seq = 1 << 20;

/// Static replica configuration.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// This replica's index.
    pub id: ReplicaId,
    /// Total replicas (`n ≥ 3f+1`).
    pub n: usize,
    /// Tolerated replica faults.
    pub f: usize,
    /// Maximum requests the primary packs into one `PrePrepare` batch.
    pub batch_cap: usize,
    /// Maximum assigned-but-unexecuted slots the primary keeps in flight.
    /// Requests arriving while the window is full wait in `pending` and are
    /// drained as one batch when a slot executes — batching by
    /// backpressure: light load keeps single-request latency, heavy load
    /// amortizes the three-phase round over the whole backlog.
    pub max_in_flight: usize,
    /// Broadcast a `Checkpoint` every this many executed slots (at least
    /// 1; see [`Replica::new`]).
    pub checkpoint_interval: Seq,
}

impl ReplicaConfig {
    /// Configuration with the default batching/pipelining window.
    pub fn new(id: ReplicaId, n: usize, f: usize) -> Self {
        ReplicaConfig {
            id,
            n,
            f,
            batch_cap: DEFAULT_BATCH_CAP,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
        }
    }

    /// The primary of `view`.
    pub fn primary_of(&self, view: View) -> ReplicaId {
        (view % self.n as u64) as ReplicaId
    }
}

#[derive(Debug, Default)]
struct Slot {
    batch: Option<Vec<Request>>,
    digest: Option<Digest>,
    prepares: BTreeSet<ReplicaId>,
    commits: BTreeSet<ReplicaId>,
    committed: bool,
    executed: bool,
}

/// The replica state machine.
pub struct Replica {
    cfg: ReplicaConfig,
    view: View,
    service: PeatsService,
    slots: BTreeMap<Seq, Slot>,
    next_seq: Seq,
    last_exec: Seq,
    /// Client transport-node bindings: authenticated transport node →
    /// logical process id (the certificate→principal map of §4).
    client_registry: BTreeMap<u64, u64>,
    /// Executed results per `(client pid, req_id)`, each with the sequence
    /// number it executed at — dedup + re-reply on retransmission. Keyed
    /// per request (not "last request per client") because cloned client
    /// handles keep several req_ids of one pid in flight at once; pruned to
    /// the newest [`Replica::reply_retention`] per client.
    replies: BTreeMap<u64, BTreeMap<u64, (Seq, OpResult)>>,
    /// Pending-but-unordered requests: the primary's batching backlog, and
    /// every backup's reserve for re-ordering after a view change.
    pending: Vec<Request>,
    /// `(client, req_id)` → slot hint for the retransmission fast path —
    /// without it every fresh request scans all historical slots, a
    /// quadratic term over a run. A hit is verified against the slot
    /// (view changes may have voided it); entries at or below the stable
    /// checkpoint are pruned together with the slots they point at.
    ordered: BTreeMap<(u64, u64), Seq>,
    view_votes: BTreeMap<View, BTreeMap<ReplicaId, VcVote>>,
    /// Highest view this replica has cast a `ViewChange` vote for. Repeated
    /// progress timeouts escalate past it, so two (or more) consecutive
    /// faulty primaries cannot wedge the cluster on one view number.
    vc_target: View,
    /// The stable checkpoint `h`: `2f+1` replicas attested identical state
    /// digests at this executed slot, so everything at or below it is
    /// garbage-collected.
    stable_seq: Seq,
    /// Digest of the stable checkpoint (what snapshots shipped to stragglers
    /// must re-hash to).
    stable_digest: Option<Digest>,
    /// Checkpoint votes per boundary; one live vote per replica (a newer
    /// vote supersedes its older ones), so this holds at most `n` entries.
    checkpoint_votes: BTreeMap<Seq, BTreeMap<ReplicaId, Digest>>,
    /// Each replica's newest checkpoint vote seq (the supersession index
    /// for `checkpoint_votes`).
    latest_ckpt: BTreeMap<ReplicaId, Seq>,
    /// Buffered state-transfer payloads awaiting their `f+1` attestation —
    /// at most one per *sender*, so `n` bounds the buffer and a Byzantine
    /// flood of junk snapshots can neither exhaust memory nor evict a
    /// genuine payload buffered from a correct sender.
    pending_snapshots: BTreeMap<ReplicaId, (Seq, Digest, ReplicaSnapshot)>,
    /// Per-target `(stable seq, answers sent at that seq)` — bounds the
    /// O(state) snapshot payloads any one peer can draw per stable
    /// checkpoint (see [`MAX_SNAPSHOT_RESENDS`]).
    snapshot_sent: BTreeMap<ReplicaId, (Seq, u32)>,
    /// Highest stable checkpoint this replica has requested a snapshot for
    /// (`0` when not fetching): dedups `FetchState` broadcasts.
    fetch_target: Seq,
    /// Non-zero when a `2f+1` checkpoint quorum proved our own state
    /// digest wrong at this boundary: our state is unsalvageable, and the
    /// snapshot install path must accept a canonical checkpoint at or
    /// above this seq even though it is ≤ our (worthless) `last_exec`.
    rollback_target: Seq,
    /// Durable log + snapshot store, when the replica has a data dir.
    /// Dropped (with a warning) on the first disk error: a replica that
    /// cannot write its log degrades to memory-only instead of wedging the
    /// protocol — it simply rejoins by state transfer after a restart.
    store: Option<DurableStore>,
    /// Buckets the last verified state transfer proved diverged (empty for
    /// pure catch-up installs): the Merkle tree localizes *which* channels
    /// a rolled-back replica disagreed on, not just that it disagreed.
    diverged: Vec<BucketKey>,
}

impl Replica {
    /// Creates a replica around its service copy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.checkpoint_interval` is 0: checkpoints are what
    /// garbage-collect the log and drive snapshot state transfer.
    pub fn new(
        cfg: ReplicaConfig,
        service: PeatsService,
        client_registry: BTreeMap<u64, u64>,
    ) -> Self {
        assert!(
            cfg.checkpoint_interval > 0,
            "checkpoint_interval must be at least 1"
        );
        Replica {
            cfg,
            view: 0,
            service,
            slots: BTreeMap::new(),
            next_seq: 0,
            last_exec: 0,
            client_registry,
            replies: BTreeMap::new(),
            pending: Vec::new(),
            ordered: BTreeMap::new(),
            view_votes: BTreeMap::new(),
            vc_target: 0,
            stable_seq: 0,
            stable_digest: None,
            checkpoint_votes: BTreeMap::new(),
            latest_ckpt: BTreeMap::new(),
            pending_snapshots: BTreeMap::new(),
            snapshot_sent: BTreeMap::new(),
            fetch_target: 0,
            rollback_target: 0,
            store: None,
            diverged: Vec::new(),
        }
    }

    /// The static configuration.
    pub(crate) fn config(&self) -> &ReplicaConfig {
        &self.cfg
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Last executed sequence number.
    pub fn last_exec(&self) -> Seq {
        self.last_exec
    }

    /// `true` if this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.cfg.primary_of(self.view) == self.cfg.id
    }

    /// State digest of the hosted service (divergence checks).
    pub fn state_digest(&self) -> Digest {
        self.service.state_digest()
    }

    /// The stable checkpoint `h` (`0` before the first one forms).
    pub fn stable_seq(&self) -> Seq {
        self.stable_seq
    }

    /// The index buckets (arity + leading channel) the last verified
    /// rollback proved diverged from the quorum state — empty after pure
    /// catch-up installs. The Merkle digest tree localizes *where* a
    /// Byzantine or corrupted replica disagreed, not just that it did.
    pub fn diverged_buckets(&self) -> &[BucketKey] {
        &self.diverged
    }

    /// Sizes of every growable structure — what the bounded-memory
    /// regression tests assert stays flat under sustained traffic.
    pub fn footprint(&self) -> ReplicaFootprint {
        let disk = self
            .store
            .as_ref()
            .map(DurableStore::metrics)
            .unwrap_or_default();
        ReplicaFootprint {
            slots: self.slots.len(),
            ordered: self.ordered.len(),
            pending: self.pending.len(),
            view_votes: self.view_votes.values().map(|v| v.len()).sum(),
            checkpoint_votes: self.checkpoint_votes.values().map(|v| v.len()).sum(),
            pending_snapshots: self.pending_snapshots.len(),
            max_replies_per_client: self
                .replies
                .values()
                .map(|per| per.len())
                .max()
                .unwrap_or(0),
            registrations: self.service.registrations_len(),
            wal_bytes: disk.wal_bytes,
            wal_segments: disk.wal_segments,
            snapshot_bytes: disk.snapshot_bytes,
            wal_appends: disk.appends,
            wal_syncs: disk.syncs,
        }
    }

    fn quorum_prepare(&self) -> usize {
        2 * self.cfg.f
    }

    fn quorum_commit(&self) -> usize {
        2 * self.cfg.f + 1
    }

    /// Handles an authenticated message from transport node `from`
    /// (replicas are nodes `0..n`; clients are higher node ids).
    /// Returns the messages to send; everything returned is safe to send —
    /// what the message executed is on disk. A pass of one:
    /// [`step`](Self::step), then [`sync`](Self::sync).
    pub fn on_message(&mut self, from: u64, msg: Message) -> Vec<(Dest, Message)> {
        let out = self.step(from, msg);
        self.sync();
        out
    }

    /// [`on_message`](Self::on_message) without the sync, so an event loop
    /// can feed a whole pass of messages and sync once: batches executed
    /// here are appended to the log but not yet synced. Outputs for other
    /// replicas may be sent at once; outputs for clients ([`Dest::Client`])
    /// must wait for [`sync`](Self::sync).
    pub fn step(&mut self, from: u64, msg: Message) -> Vec<(Dest, Message)> {
        let mut out = Vec::new();
        match msg {
            Message::Request(req) => self.on_request(from, req, &mut out),
            Message::PrePrepare {
                view,
                seq,
                requests,
            } => self.on_pre_prepare(from, view, seq, requests, &mut out),
            Message::Prepare {
                view: _,
                seq,
                digest,
                replica,
            } => {
                // Votes are view-agnostic: the digest pins the batch, so a
                // prepare from a sender that has already moved views still
                // certifies the same assignment (simplification vs PBFT,
                // safe because conflicting digests never share a slot).
                if replica as u64 == from {
                    self.on_prepare(seq, digest, replica, &mut out);
                }
            }
            Message::Commit {
                view: _,
                seq,
                digest,
                replica,
            } => {
                if replica as u64 == from {
                    self.on_commit(seq, digest, replica, &mut out);
                }
            }
            Message::ViewChange {
                new_view,
                last_exec,
                stable_seq,
                stable_digest: _,
                prepared,
                replica,
            } => {
                if self.sender_is_replica(from, replica) {
                    self.on_view_change(
                        new_view, last_exec, stable_seq, prepared, replica, &mut out,
                    );
                }
            }
            Message::NewView { view, assignments } => {
                self.on_new_view(from, view, assignments, &mut out);
            }
            Message::Checkpoint {
                seq,
                digest,
                replica,
            } => {
                if self.sender_is_replica(from, replica) {
                    self.on_checkpoint(seq, digest, replica, &mut out);
                }
            }
            Message::FetchState { last_exec, replica } => {
                if self.sender_is_replica(from, replica) {
                    self.on_fetch_state(last_exec, replica, &mut out);
                }
            }
            Message::StateSnapshot {
                seq,
                digest,
                snapshot,
                replica,
            } => {
                if self.sender_is_replica(from, replica) {
                    self.on_state_snapshot(seq, digest, snapshot, replica, &mut out);
                }
            }
            Message::ReadRequest {
                client,
                req_id,
                op,
                watermark: _,
            } => self.on_read_request(from, client, req_id, &op, &mut out),
            Message::Reply { .. } | Message::ReadReply { .. } | Message::Wake { .. } => {} // replicas ignore replies
        }
        out
    }

    /// `true` when the claimed sender id is consistent with the transport
    /// node the message arrived on and names a real replica (a Byzantine
    /// client must not be able to speak replica protocol).
    fn sender_is_replica(&self, from: u64, replica: ReplicaId) -> bool {
        u64::from(replica) == from && (replica as usize) < self.cfg.n
    }

    /// Per-client reply retention: must exceed the number of requests one
    /// client pid can have in flight at once (a full pipeline of full
    /// batches, or any number of concurrent clones of one handle), or a
    /// pruned entry makes a retransmission look fresh and the request
    /// re-executes.
    fn reply_retention(&self) -> usize {
        self.cfg
            .batch_cap
            .saturating_mul(self.cfg.max_in_flight)
            .clamp(REPLY_RETENTION_FLOOR, REPLY_RETENTION_CEIL)
    }

    /// `true` for sequence numbers inside the acceptance window
    /// `(h, max(h, last_exec) + L]` — the only ones votes and assignments
    /// may name. Below or at `h` is garbage-collected history (a vote there
    /// must not re-materialize a pruned slot); past the high mark is a
    /// Byzantine absurdity.
    fn seq_in_window(&self, seq: Seq) -> bool {
        seq > self.stable_seq
            && seq
                <= self
                    .stable_seq
                    .max(self.last_exec)
                    .saturating_add(SEQ_WINDOW)
    }

    /// `true` when `req` already executed here (its reply is retained).
    fn executed_already(&self, req: &Request) -> bool {
        self.replies
            .get(&req.client)
            .is_some_and(|per| per.contains_key(&req.req_id))
    }

    /// Records an executed result and the slot it executed at, pruning each
    /// client's retained replies to the newest
    /// [`Replica::reply_retention`].
    fn record_reply(&mut self, client: u64, req_id: u64, seq: Seq, result: OpResult) {
        let retention = self.reply_retention();
        let per = self.replies.entry(client).or_default();
        per.insert(req_id, (seq, result));
        while per.len() > retention {
            per.pop_first();
        }
    }

    /// The transport node bound to logical pid `client`, if registered.
    fn client_node_of(&self, client: u64) -> Option<u64> {
        self.client_registry
            .iter()
            .find(|(_, pid)| **pid == client)
            .map(|(node, _)| *node)
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.cfg.id)
            .field("view", &self.view)
            .field("last_exec", &self.last_exec)
            .finish()
    }
}
