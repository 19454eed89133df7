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
//! timeout ticks; outputs are `(destination, Message)` pairs. The netsim
//! driver (tests, fault experiments) and the threaded driver (benchmarks)
//! both wrap it, so the protocol logic is exercised identically in both.
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

use crate::faults::FaultMode;
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

/// A replica's view-change report: the batches it knows an ordering for.
type PreparedReport = Vec<(Seq, Vec<Request>)>;

/// One stored view-change vote: what the sender reported about its state.
#[derive(Debug)]
struct VcVote {
    last_exec: Seq,
    stable_seq: Seq,
    prepared: PreparedReport,
}

/// The largest value at least `f + 1` of the given claims reach — i.e. a
/// value some *correct* replica genuinely claims, no matter which `f` of
/// the claimants are Byzantine. The PBFT way to act on self-reported
/// sequence numbers without letting one liar poison them.
fn quorum_backed_max(values: impl Iterator<Item = Seq>, f: usize) -> Seq {
    let mut sorted: Vec<Seq> = values.collect();
    sorted.sort_unstable_by_key(|v| std::cmp::Reverse(*v));
    sorted.get(f).copied().unwrap_or(0)
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
    fault: FaultMode,
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
            fault: FaultMode::Correct,
        }
    }

    /// Injects a fault mode (experiments only).
    pub fn set_fault(&mut self, fault: FaultMode) {
        self.fault = fault;
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

    /// Adopts recovered on-disk state and attaches the durable store. Must
    /// run on a freshly constructed replica, before any messages.
    ///
    /// Disk-first recovery: adopt the newest snapshot whose attestation
    /// digest verifies after restoration (the *same* fold checkpoint votes
    /// attest, so a corrupted-but-checksummed or buggy snapshot cannot
    /// install silently wrong state), replay the contiguous log suffix
    /// above its execution point, and leave whatever tail the disk does
    /// not cover to ordinary state transfer once the cluster is back. A
    /// snapshot that fails verification falls back to the previous one —
    /// the store retains two, plus the log suffix the older one needs.
    pub fn restore_durable(&mut self, store: DurableStore, recovery: Recovery) -> RecoveryReport {
        let mut report = RecoveryReport {
            truncated_log: recovery.truncated_log,
            corrupt_snapshots: recovery.corrupt_snapshots,
            ..RecoveryReport::default()
        };
        for (nth, snap) in recovery.snapshots.iter().enumerate() {
            let mut restored = self.service.clone();
            restored.restore(&snap.snapshot.space);
            restored.restore_registrations(&snap.snapshot.registrations, snap.snapshot.next_reg);
            let recomputed = attestation_digest(
                restored.state_digest(),
                snap.snapshot.client_registry.clone(),
                snap.snapshot.replies.clone(),
            );
            if recomputed != snap.attested {
                report.fell_back = true;
                continue;
            }
            self.service = restored;
            self.client_registry = snap.snapshot.client_registry.iter().copied().collect();
            self.replies = snap
                .snapshot
                .replies
                .iter()
                .map(|(client, per)| {
                    (
                        *client,
                        per.iter()
                            .map(|(req_id, seq, result)| (*req_id, (*seq, result.clone())))
                            .collect(),
                    )
                })
                .collect();
            self.last_exec = snap.exec_seq;
            self.stable_seq = snap.stable_seq;
            self.stable_digest = Some(snap.stable_digest);
            report.snapshot_seq = Some(snap.stable_seq);
            report.fell_back |= nth > 0;
            break;
        }
        // Replay the log suffix: the same execution the batches got the
        // first time (execution is deterministic), minus the outputs —
        // every reply this produces was already sent in a previous life,
        // and retransmissions re-serve it from the restored reply cache.
        for (seq, batch) in recovery.replay_from(self.last_exec) {
            for req in batch {
                if self.executed_already(&req) {
                    continue;
                }
                let result = match &req.op {
                    RequestOp::Call(op) => self.service.execute(req.client, op),
                    RequestOp::Register {
                        template,
                        kind,
                        persistent,
                    } => {
                        self.service
                            .register(req.client, req.req_id, template, *kind, *persistent)
                    }
                    RequestOp::Cancel { target } => self.service.cancel(req.client, *target),
                };
                self.record_reply(req.client, req.req_id, seq, result);
                for wake in self.service.take_wakes() {
                    self.record_reply(wake.client, wake.req_id, seq, wake.result);
                }
            }
            self.last_exec = seq;
            report.replayed += 1;
        }
        self.next_seq = self.next_seq.max(self.last_exec).max(self.stable_seq);
        report.last_exec = self.last_exec;
        self.store = Some(store);
        report
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
        if matches!(self.fault, FaultMode::Crashed) {
            return Vec::new();
        }
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
        if matches!(self.fault, FaultMode::Mute) {
            return Vec::new();
        }
        self.apply_output_faults(out)
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

    /// Assigned-but-unexecuted slots (execution is contiguous, so these are
    /// exactly the batch-bearing slots above `last_exec`).
    fn slots_in_flight(&self) -> usize {
        self.slots
            .range(self.last_exec + 1..)
            .filter(|(_, s)| s.batch.is_some() && !s.executed)
            .count()
    }

    /// Records where each request of a just-installed batch was ordered.
    fn index_batch(&mut self, seq: Seq, batch: &[Request]) {
        for req in batch {
            self.ordered.insert((req.client, req.req_id), seq);
        }
    }

    /// Primary only: drains `pending` into new slots while the in-flight
    /// window has room, one batch (≤ `batch_cap` requests) per slot.
    fn try_assign(&mut self, out: &mut Vec<(Dest, Message)>) {
        if !self.is_primary() {
            return;
        }
        while !self.pending.is_empty() && self.slots_in_flight() < self.cfg.max_in_flight {
            let take = self.pending.len().min(self.cfg.batch_cap.max(1));
            let batch: Vec<Request> = self.pending.drain(..take).collect();
            // Skip sequence numbers another view already used.
            loop {
                self.next_seq += 1;
                if !self
                    .slots
                    .get(&self.next_seq)
                    .is_some_and(|s| s.batch.is_some())
                {
                    break;
                }
            }
            let seq = self.next_seq;
            let digest = batch_digest(&batch);
            let slot = self.slots.entry(seq).or_default();
            slot.batch = Some(batch.clone());
            slot.digest = Some(digest);
            slot.prepares.insert(self.cfg.id);
            self.index_batch(seq, &batch);
            out.push((
                Dest::AllReplicas,
                Message::PrePrepare {
                    view: self.view,
                    seq,
                    requests: batch,
                },
            ));
        }
    }

    fn on_request(&mut self, from: u64, req: Request, out: &mut Vec<(Dest, Message)>) {
        // Authenticate the principal binding: the claimed pid must be the
        // one registered for the sending transport node.
        match self.client_registry.get(&from) {
            Some(pid) if *pid == req.client => {}
            _ => return, // impersonation attempt or unknown client: drop
        }
        // Retransmission of an executed request: re-reply. Executed req_ids
        // older than the retained window are dropped outright — re-ordering
        // them would double-execute.
        if let Some(per) = self.replies.get(&req.client) {
            if let Some((seq, result)) = per.get(&req.req_id) {
                out.push((
                    Dest::Client(from),
                    Message::Reply {
                        view: self.view,
                        seq: *seq,
                        req_id: req.req_id,
                        replica: self.cfg.id,
                        result: result.clone(),
                    },
                ));
                return;
            }
            if per.len() >= self.reply_retention()
                && per
                    .first_key_value()
                    .is_some_and(|(id, _)| req.req_id < *id)
            {
                return; // below the retained window: ancient retransmission
            }
        }
        if self.is_primary() {
            // Already ordered? (client broadcast + retransmissions). If the
            // slot has not executed yet, the original pre-prepare may have
            // been lost: re-broadcast it instead of staying silent, or the
            // slot can stall forever on a lossy network. The hint is
            // verified against the live slot — a view change may have
            // voided the ordering, in which case the request pends again.
            if let Some(seq) = self.ordered.get(&(req.client, req.req_id)).copied() {
                if let Some(slot) = self.slots.get(&seq) {
                    if slot.batch.as_ref().is_some_and(|b| b.contains(&req)) {
                        if !slot.executed {
                            out.push((
                                Dest::AllReplicas,
                                Message::PrePrepare {
                                    view: self.view,
                                    seq,
                                    requests: slot.batch.clone().expect("verified above"),
                                },
                            ));
                        }
                        return;
                    }
                }
            }
            if !self.pending.contains(&req) {
                self.pending.push(req);
            }
            self.try_assign(out);
        } else {
            // Backups hold the request for potential re-ordering after a
            // view change; the primary got its own copy via the client's
            // broadcast.
            if !self.pending.contains(&req) {
                self.pending.push(req);
            }
        }
    }

    /// Fast-path read: answer `rd`/`rdp`/`count` directly from executed
    /// state at `last_exec`, skipping the ordering pipeline. Policy still
    /// runs per replica inside `execute_read`. Serving is stateless — no
    /// dedup, no retained replies, nothing added to `footprint()` — so a
    /// flood of reads cannot grow replica memory. A replica that lags the
    /// quorum answers anyway (with its lower seq); the client's watermark
    /// check rejects the stale reply.
    fn on_read_request(
        &mut self,
        from: u64,
        client: u64,
        req_id: u64,
        op: &OpCall<'_>,
        out: &mut Vec<(Dest, Message)>,
    ) {
        // Same principal authentication as ordered requests: the claimed
        // pid must be the one registered for the sending transport node.
        match self.client_registry.get(&from) {
            Some(pid) if *pid == client => {}
            _ => return,
        }
        // Mutating ops must never ride the fast path; `execute_read`
        // refuses them.
        let Some(result) = self.service.execute_read(client, op) else {
            return;
        };
        out.push((
            Dest::Client(from),
            Message::ReadReply {
                req_id,
                seq: self.last_exec,
                digest: result.digest(),
                result,
                replica: self.cfg.id,
            },
        ));
    }

    fn on_pre_prepare(
        &mut self,
        from: u64,
        view: View,
        seq: Seq,
        requests: Vec<Request>,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if view != self.view
            || from != u64::from(self.cfg.primary_of(view))
            || requests.is_empty()
            || !self.seq_in_window(seq)
        {
            return;
        }
        let digest = batch_digest(&requests);
        let keys: Vec<(u64, u64)> = requests.iter().map(|r| (r.client, r.req_id)).collect();
        let slot = self.slots.entry(seq).or_default();
        match &slot.digest {
            Some(d) if *d != digest => return, // equivocation: refuse
            _ => {}
        }
        if slot.batch.is_none() {
            slot.batch = Some(requests);
            slot.digest = Some(digest);
            for key in keys {
                self.ordered.insert(key, seq);
            }
        }
        // The pre-prepare is the primary's prepare vote.
        slot.prepares.insert(self.cfg.primary_of(view));
        slot.prepares.insert(self.cfg.id);
        out.push((
            Dest::AllReplicas,
            Message::Prepare {
                view,
                seq,
                digest,
                replica: self.cfg.id,
            },
        ));
        // A 2-replica quorum may already be satisfied (f small).
        self.maybe_commit_phase(seq, out);
    }

    fn on_prepare(
        &mut self,
        seq: Seq,
        digest: Digest,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if !self.seq_in_window(seq) {
            return; // junk vote: don't even materialize a slot for it
        }
        let me = self.cfg.id;
        let view = self.view;
        let slot = self.slots.entry(seq).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        let newly_seen = slot.prepares.insert(replica);
        if slot.executed {
            // A prepare for a slot we executed long ago comes from a replica
            // replaying history after rejoining (our original votes predate
            // its recovery). Re-send our votes directly; the `newly_seen`
            // guard stops two executed replicas from ping-ponging.
            if newly_seen {
                out.push((
                    Dest::Replica(replica),
                    Message::Prepare {
                        view,
                        seq,
                        digest,
                        replica: me,
                    },
                ));
                out.push((
                    Dest::Replica(replica),
                    Message::Commit {
                        view,
                        seq,
                        digest,
                        replica: me,
                    },
                ));
            }
            return;
        }
        self.maybe_commit_phase(seq, out);
    }

    fn maybe_commit_phase(&mut self, seq: Seq, out: &mut Vec<(Dest, Message)>) {
        let quorum = self.quorum_prepare();
        let me = self.cfg.id;
        let view = self.view;
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        let (Some(digest), Some(_)) = (slot.digest, slot.batch.as_ref()) else {
            return;
        };
        // Prepared: pre-prepare (counted via own id) + 2f prepares total.
        if slot.prepares.len() > quorum && slot.commits.insert(me) {
            out.push((
                Dest::AllReplicas,
                Message::Commit {
                    view,
                    seq,
                    digest,
                    replica: me,
                },
            ));
            self.maybe_execute(seq, out);
        }
    }

    fn on_commit(
        &mut self,
        seq: Seq,
        digest: Digest,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if !self.seq_in_window(seq) {
            return;
        }
        let slot = self.slots.entry(seq).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        slot.commits.insert(replica);
        self.maybe_execute(seq, out);
    }

    fn maybe_execute(&mut self, seq: Seq, out: &mut Vec<(Dest, Message)>) {
        {
            let quorum = self.quorum_commit();
            let Some(slot) = self.slots.get_mut(&seq) else {
                return;
            };
            if slot.commits.len() >= quorum && slot.batch.is_some() {
                slot.committed = true;
            }
        }
        self.execute_ready(out);
    }

    /// Executes committed slots in order while possible (also the resume
    /// point after a snapshot install jumps `last_exec` forward).
    fn execute_ready(&mut self, out: &mut Vec<(Dest, Message)>) {
        loop {
            let next = self.last_exec + 1;
            let ready = self
                .slots
                .get(&next)
                .is_some_and(|s| s.committed && !s.executed && s.batch.is_some());
            if !ready {
                break;
            }
            let slot = self.slots.get_mut(&next).expect("checked above");
            slot.executed = true;
            let batch = slot.batch.clone().expect("checked above");
            // Write-ahead: the batch reaches the log before any of its
            // effects reach the service. Synced once per pass (`sync`).
            if let Some(store) = self.store.as_mut() {
                if let Err(e) = store.append_batch(next, &batch) {
                    Self::warn_disk(self.cfg.id, "wal append", &e);
                    self.store = None;
                }
            }
            self.last_exec = next;
            for req in batch {
                // A request double-ordered across batches (Byzantine
                // primary, or a view change re-placing a reported batch
                // whose requests partially overlap another) executes only
                // once — the first placement's result stands.
                if self.executed_already(&req) {
                    continue;
                }
                let result = match &req.op {
                    RequestOp::Call(op) => self.service.execute(req.client, op),
                    RequestOp::Register {
                        template,
                        kind,
                        persistent,
                    } => {
                        self.service
                            .register(req.client, req.req_id, template, *kind, *persistent)
                    }
                    RequestOp::Cancel { target } => self.service.cancel(req.client, *target),
                };
                self.record_reply(req.client, req.req_id, next, result.clone());
                self.pending.retain(|r| *r != req);
                if let Some(node) = self.client_node_of(req.client) {
                    out.push((
                        Dest::Client(node),
                        Message::Reply {
                            view: self.view,
                            seq: next,
                            req_id: req.req_id,
                            replica: self.cfg.id,
                            result,
                        },
                    ));
                }
                // Serve wakes fired by this request (an `out`/`cas` that
                // matched parked waiters): the woken result overwrites
                // each waiter's cached `Registered` reply at this slot —
                // so a lost Wake is healed by retransmitting the original
                // Register — and an unsolicited Wake pushes it now.
                for wake in self.service.take_wakes() {
                    self.record_reply(wake.client, wake.req_id, next, wake.result.clone());
                    if let Some(node) = self.client_node_of(wake.client) {
                        out.push((
                            Dest::Client(node),
                            Message::Wake {
                                req_id: wake.req_id,
                                seq: next,
                                result: wake.result,
                                replica: self.cfg.id,
                            },
                        ));
                    }
                }
            }
            // Checkpoint boundary: attest the post-execution state and try
            // to stabilize (our vote may be the 2f+1st).
            if next % self.cfg.checkpoint_interval == 0 {
                self.emit_checkpoint(next, out);
            }
        }
        // Executed slots free the in-flight window: the primary drains any
        // backlog that accumulated while the window was full.
        self.try_assign(out);
    }

    /// Makes every batch appended since the last sync durable: one fsync
    /// per pass — heavy load amortizes it over everything the pass
    /// executed, light load pays it per request. Nothing to do (and nothing
    /// counted) when no batch was appended.
    pub fn sync(&mut self) {
        if let Some(store) = self.store.as_mut() {
            if let Err(e) = store.sync() {
                Self::warn_disk(self.cfg.id, "wal sync", &e);
                self.store = None;
            }
        }
    }

    /// Disk failures degrade the replica to memory-only rather than
    /// wedging the protocol: correctness never depended on the disk (a
    /// restarted replica can still rejoin by state transfer while any
    /// peer survives), only full-cluster crash recovery does.
    fn warn_disk(id: ReplicaId, context: &str, err: &std::io::Error) {
        eprintln!("replica {id}: disk error during {context}: {err}; continuing memory-only");
    }

    // ------------------------------------------------------------------
    // Checkpoints, garbage collection, and snapshot state transfer.
    // ------------------------------------------------------------------

    /// The checkpoint digest: the service state digest folded with the
    /// protocol-level per-client state (registry + retained replies) —
    /// everything a snapshot ships, so a receiver can re-derive exactly
    /// this digest from a restored snapshot. Delegates to the shared
    /// [`attestation_digest`], the same fold the snapshot-verification and
    /// disk-recovery paths recompute.
    fn checkpoint_digest(&self) -> Digest {
        attestation_digest(
            self.service.state_digest(),
            self.registry_rows(),
            self.reply_rows(),
        )
    }

    fn registry_rows(&self) -> Vec<(u64, u64)> {
        self.client_registry
            .iter()
            .map(|(node, pid)| (*node, *pid))
            .collect()
    }

    fn reply_rows(&self) -> ReplyRows {
        self.replies
            .iter()
            .map(|(client, per)| {
                (
                    *client,
                    per.iter()
                        .map(|(id, (seq, r))| (*id, *seq, r.clone()))
                        .collect(),
                )
            })
            .collect()
    }

    /// The full state-transfer payload for the current execution point.
    fn build_snapshot(&self) -> ReplicaSnapshot {
        ReplicaSnapshot {
            space: self.service.snapshot(),
            client_registry: self.registry_rows(),
            replies: self.reply_rows(),
            registrations: self.service.registration_rows(),
            next_reg: self.service.next_reg(),
        }
    }

    /// Executed through a checkpoint boundary: attest the state and see
    /// whether our vote completes a stable checkpoint.
    fn emit_checkpoint(&mut self, seq: Seq, out: &mut Vec<(Dest, Message)>) {
        let digest = self.checkpoint_digest();
        self.record_checkpoint_vote(seq, digest, self.cfg.id);
        out.push((
            Dest::AllReplicas,
            Message::Checkpoint {
                seq,
                digest,
                replica: self.cfg.id,
            },
        ));
        self.try_stabilize(seq, out);
    }

    /// `true` for checkpoint sequence numbers a correct replica could emit:
    /// a multiple of the interval above our stable checkpoint. (No high
    /// bound — a replica that fell far behind must still learn of stable
    /// checkpoints arbitrarily past its own window.)
    fn checkpoint_seq_plausible(&self, seq: Seq) -> bool {
        seq > self.stable_seq && seq % self.cfg.checkpoint_interval == 0
    }

    /// Stores `replica`'s checkpoint attestation, superseding its older
    /// votes — at most one live vote per replica, so the vote store holds
    /// at most `n` entries no matter what a Byzantine flood claims.
    fn record_checkpoint_vote(&mut self, seq: Seq, digest: Digest, replica: ReplicaId) {
        if self.latest_ckpt.get(&replica).is_some_and(|s| *s > seq) {
            return; // older than the replica's newest vote: stale
        }
        if let Some(old) = self.latest_ckpt.insert(replica, seq) {
            if old != seq {
                if let Some(votes) = self.checkpoint_votes.get_mut(&old) {
                    votes.remove(&replica);
                    if votes.is_empty() {
                        self.checkpoint_votes.remove(&old);
                    }
                }
            }
        }
        self.checkpoint_votes
            .entry(seq)
            .or_default()
            .insert(replica, digest);
    }

    fn on_checkpoint(
        &mut self,
        seq: Seq,
        digest: Digest,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if !self.checkpoint_seq_plausible(seq) {
            return;
        }
        self.record_checkpoint_vote(seq, digest, replica);
        self.try_stabilize(seq, out);
        // The vote may be the f+1st attestation a buffered state-transfer
        // snapshot was waiting for.
        if !self.pending_snapshots.is_empty() {
            self.try_install_snapshot(out);
        }
    }

    /// The digest `2f+1` checkpoint votes at `seq` agree on, if any.
    fn stable_digest_at(&self, seq: Seq) -> Option<Digest> {
        let votes = self.checkpoint_votes.get(&seq)?;
        let quorum = self.quorum_commit();
        votes
            .values()
            .find(|d| votes.values().filter(|e| e == d).count() >= quorum)
            .copied()
    }

    /// Checks whether `seq` just became a stable checkpoint; if so, either
    /// garbage-collects (we executed through it and our state matches) or
    /// requests state transfer (we fell behind it, or — worse — diverged).
    fn try_stabilize(&mut self, seq: Seq, out: &mut Vec<(Dest, Message)>) {
        if seq <= self.stable_seq {
            return;
        }
        let Some(digest) = self.stable_digest_at(seq) else {
            return;
        };
        let behind = seq > self.last_exec;
        let diverged = self
            .checkpoint_votes
            .get(&seq)
            .and_then(|v| v.get(&self.cfg.id))
            .is_some_and(|own| *own != digest);
        if behind || diverged {
            // We cannot anchor on this checkpoint from local state: the
            // history below it is (or will be) pruned cluster-wide, so the
            // only way forward is a snapshot.
            if diverged {
                // A quorum proved our own digest wrong: our state is
                // unsalvageable, and the install path must accept the
                // canonical checkpoint even though its seq ≤ our last_exec.
                self.rollback_target = seq;
            }
            self.request_state(seq, out);
            self.try_install_snapshot(out);
            return;
        }
        self.collect_garbage(seq, digest);
    }

    /// Advances the low watermark to `h` and prunes everything at or below
    /// it: slots, ordering hints, checkpoint votes, buffered snapshots, and
    /// view-change report entries. After this, no structure retains data
    /// about executed history older than the stable checkpoint.
    fn collect_garbage(&mut self, h: Seq, digest: Digest) {
        if h <= self.stable_seq {
            return;
        }
        self.stable_seq = h;
        self.stable_digest = Some(digest);
        self.slots = self.slots.split_off(&(h + 1));
        self.ordered.retain(|_, seq| *seq > h);
        self.checkpoint_votes = self.checkpoint_votes.split_off(&(h + 1));
        self.latest_ckpt.retain(|_, s| *s > h);
        self.pending_snapshots.retain(|_, (s, _, _)| *s > h);
        for votes in self.view_votes.values_mut() {
            for vote in votes.values_mut() {
                vote.prepared.retain(|(s, _)| *s > h);
            }
        }
        if self.fetch_target <= h {
            self.fetch_target = 0;
        }
        // Never assign below the watermark again.
        self.next_seq = self.next_seq.max(h);
        // On disk, the log alone carries most checkpoints: the store says
        // when it has grown enough to be worth folding into a snapshot.
        if self
            .store
            .as_ref()
            .is_some_and(DurableStore::wants_snapshot)
        {
            self.persist_stable(h, digest);
        }
    }

    /// Writes a snapshot anchored at stable checkpoint `h` to disk and
    /// prunes the log behind it (no-op without a data dir). The persisted
    /// attestation is recomputed over the state actually captured:
    /// stabilization can trail execution, so `last_exec` may sit past `h`
    /// — the snapshot records both points and recovery replays from
    /// `exec_seq`.
    fn persist_stable(&mut self, h: Seq, digest: Digest) {
        if self.store.is_none() {
            return;
        }
        let snap = DurableSnapshot {
            stable_seq: h,
            stable_digest: digest,
            exec_seq: self.last_exec,
            attested: self.checkpoint_digest(),
            snapshot: self.build_snapshot(),
        };
        let store = self.store.as_mut().expect("checked above");
        if let Err(e) = store.persist_checkpoint(&snap) {
            Self::warn_disk(self.cfg.id, "checkpoint persist", &e);
            self.store = None;
        }
    }

    /// The `last_exec` value our `FetchState` requests carry: normally our
    /// real execution point, but a rolling-back replica must ask *below*
    /// the canonical checkpoint it needs, or peers (whose stable checkpoint
    /// may be ≤ our worthless `last_exec`) would refuse to answer.
    fn fetch_floor(&self) -> Seq {
        if self.rollback_target != 0 {
            self.rollback_target.saturating_sub(1).min(self.last_exec)
        } else {
            self.last_exec
        }
    }

    /// Broadcasts a `FetchState` for stable checkpoint `target` (deduped:
    /// one broadcast per target; the progress timeout retries if no
    /// snapshot lands).
    fn request_state(&mut self, target: Seq, out: &mut Vec<(Dest, Message)>) {
        let rolling_back = self.rollback_target != 0 && target >= self.rollback_target;
        if (target <= self.last_exec && !rolling_back) || target <= self.fetch_target {
            return;
        }
        self.fetch_target = target;
        out.push((
            Dest::AllReplicas,
            Message::FetchState {
                last_exec: self.fetch_floor(),
                replica: self.cfg.id,
            },
        ));
    }

    fn on_fetch_state(
        &mut self,
        sender_last_exec: Seq,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if replica != self.cfg.id {
            self.maybe_send_snapshot(replica, sender_last_exec, true, out);
        }
    }

    /// Ships our stable-checkpoint snapshot to `to` if it sits below it,
    /// within the per-target budget: one unsolicited offer per stable
    /// checkpoint (stale `ViewChange` answers — a stranded replica's
    /// timeout loop must not draw an O(state) payload from every peer on
    /// every tick) and up to [`MAX_SNAPSHOT_RESENDS`] explicit-fetch
    /// answers (retries for lost answers, without handing a Byzantine
    /// fetch loop an unbounded amplification primitive). The budget resets
    /// whenever the stable checkpoint advances.
    fn maybe_send_snapshot(
        &mut self,
        to: ReplicaId,
        their_last_exec: Seq,
        explicit: bool,
        out: &mut Vec<(Dest, Message)>,
    ) {
        let Some(digest) = self.stable_digest else {
            return;
        };
        if self.stable_seq <= their_last_exec {
            return;
        }
        let entry = self.snapshot_sent.entry(to).or_insert((0, 0));
        if entry.0 < self.stable_seq {
            *entry = (self.stable_seq, 0);
        }
        let budget = if explicit { MAX_SNAPSHOT_RESENDS } else { 1 };
        if entry.1 >= budget {
            return;
        }
        entry.1 += 1;
        out.push((
            Dest::Replica(to),
            Message::StateSnapshot {
                seq: self.stable_seq,
                digest,
                snapshot: self.build_snapshot(),
                replica: self.cfg.id,
            },
        ));
    }

    fn on_state_snapshot(
        &mut self,
        seq: Seq,
        digest: Digest,
        snapshot: ReplicaSnapshot,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if !self.snapshot_seq_useful(seq) || !self.checkpoint_seq_plausible(seq) {
            return;
        }
        // The offer is also the sender's attestation of (seq, digest). One
        // buffered payload per sender: a newer offer replaces that sender's
        // older one, and junk can never evict a correct sender's payload.
        self.record_checkpoint_vote(seq, digest, replica);
        self.pending_snapshots
            .insert(replica, (seq, digest, snapshot));
        self.try_install_snapshot(out);
    }

    /// `true` when installing a checkpoint at `seq` would move us forward:
    /// past our execution point, or — when a quorum proved our state
    /// diverged — at/above the canonical boundary we must roll back to.
    fn snapshot_seq_useful(&self, seq: Seq) -> bool {
        seq > self.last_exec || (self.rollback_target != 0 && seq >= self.rollback_target)
    }

    /// Installs the newest buffered snapshot that (a) `f+1` distinct
    /// replicas attest and (b) re-hashes to its attested digest after
    /// restoration — at least one correct replica vouches for the pair, and
    /// the recompute catches a payload that does not match its claim.
    fn try_install_snapshot(&mut self, out: &mut Vec<(Dest, Message)>) {
        // Newest checkpoint first.
        let mut candidates: Vec<(ReplicaId, Seq, Digest)> = self
            .pending_snapshots
            .iter()
            .map(|(sender, (seq, digest, _))| (*sender, *seq, *digest))
            .collect();
        candidates.sort_unstable_by_key(|c| std::cmp::Reverse(c.1));
        for (sender, seq, digest) in candidates {
            if !self.snapshot_seq_useful(seq) {
                self.pending_snapshots.remove(&sender);
                continue;
            }
            let attesters = self
                .checkpoint_votes
                .get(&seq)
                .map_or(0, |v| v.values().filter(|d| **d == digest).count());
            if attesters <= self.cfg.f {
                continue; // not yet vouched for by a correct replica
            }
            let snapshot = &self.pending_snapshots[&sender].2;
            let mut restored = self.service.clone();
            restored.restore(&snapshot.space);
            // Registrations restore before the digest recompute: the
            // service digest covers the table, so a lying row set (or a
            // forged arrival counter) fails verification right here.
            restored.restore_registrations(&snapshot.registrations, snapshot.next_reg);
            let recomputed = attestation_digest(
                restored.state_digest(),
                snapshot.client_registry.clone(),
                snapshot.replies.clone(),
            );
            if recomputed != digest {
                // Attested digest, lying payload: discard it (another
                // sender's copy may still arrive under the same claim).
                self.pending_snapshots.remove(&sender);
                continue;
            }
            let (_, _, snapshot) = self.pending_snapshots.remove(&sender).expect("present");
            self.install_snapshot(seq, digest, restored, snapshot, out);
            return;
        }
    }

    /// Adopts a verified snapshot: replaces the service and per-client
    /// state, jumps `last_exec` to the checkpoint, garbage-collects below
    /// it, and resumes execution of any committed slots above it. When this
    /// is a divergence *rollback* (`seq ≤` our old `last_exec`), every slot
    /// is dropped first — they were executed against state a quorum proved
    /// wrong, and will be re-learned from the protocol.
    fn install_snapshot(
        &mut self,
        seq: Seq,
        digest: Digest,
        restored: PeatsService,
        snapshot: ReplicaSnapshot,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if seq <= self.last_exec {
            self.slots.clear();
            self.ordered.clear();
            // A rollback replaces state a quorum proved wrong — the hash
            // trees of the two states localize the disagreement to the
            // differing buckets (arity + leading channel), turning "your
            // digest is wrong" into "these channels diverged".
            self.diverged =
                diff_buckets(&self.service.bucket_digests(), &restored.bucket_digests());
        } else {
            self.diverged = Vec::new();
        }
        self.rollback_target = 0;
        self.service = restored;
        self.client_registry = snapshot.client_registry.into_iter().collect();
        self.replies = snapshot
            .replies
            .into_iter()
            .map(|(client, per)| {
                (
                    client,
                    per.into_iter()
                        .map(|(req_id, seq, result)| (req_id, (seq, result)))
                        .collect(),
                )
            })
            .collect();
        self.last_exec = seq;
        self.record_checkpoint_vote(seq, digest, self.cfg.id);
        // The history this jumped over never went through our log, so only
        // a snapshot makes the disk reach `last_exec` again — whatever the
        // log's size says.
        self.persist_stable(seq, digest);
        self.collect_garbage(seq, digest);
        // Requests the snapshot's history already answered must not be
        // re-ordered.
        let replies = &self.replies;
        self.pending.retain(|req| {
            !replies
                .get(&req.client)
                .is_some_and(|per| per.contains_key(&req.req_id))
        });
        // Our attestation helps the next straggler (and lets peers observe
        // we caught up).
        out.push((
            Dest::AllReplicas,
            Message::Checkpoint {
                seq,
                digest,
                replica: self.cfg.id,
            },
        ));
        self.execute_ready(out);
    }

    /// Local progress timeout: the driver calls this when requests are
    /// pending but execution has not advanced — the PBFT view-change
    /// trigger. Returns the messages to send.
    pub fn on_progress_timeout(&mut self) -> Vec<(Dest, Message)> {
        if matches!(self.fault, FaultMode::Crashed | FaultMode::Mute) {
            return Vec::new();
        }
        let mut msgs = Vec::new();
        // Still waiting for a snapshot (behind a stable checkpoint, or
        // rolling back from proven divergence): the earlier FetchState (or
        // its answer) may have been lost — retry.
        if self.fetch_target > self.last_exec || self.rollback_target != 0 {
            msgs.push((
                Dest::AllReplicas,
                Message::FetchState {
                    last_exec: self.fetch_floor(),
                    replica: self.cfg.id,
                },
            ));
        }
        if self.pending.is_empty() && self.slots.values().all(|s| s.executed || s.batch.is_none()) {
            return self.apply_output_faults(msgs);
        }
        // Escalating view target: a repeated timeout means the view we last
        // voted for never made progress — its primary may be faulty too, so
        // the next vote must move past it (two consecutive crashed
        // primaries previously wedged the cluster re-voting one view
        // forever). Votes already gathered from f+1 peers for an even
        // higher view are joined instead of leapfrogged, so escalating
        // replicas converge on a common target. (f+1, so a lone Byzantine
        // vote cannot drag the cluster through the view space.)
        let joinable = self
            .view_votes
            .iter()
            .rev()
            .find(|(view, votes)| **view > self.view && votes.len() > self.cfg.f)
            .map(|(view, _)| *view)
            .unwrap_or(0);
        let new_view = (self.view + 1).max(self.vc_target + 1).max(joinable);
        self.vc_target = new_view;
        // Report every slot above the stable checkpoint we know a batch
        // for, executed ones included: a new primary that never received
        // some pre-prepare can only learn the batch (and its sequence
        // number) from these reports. Below the checkpoint the report would
        // be wasted bytes — a straggling primary-elect recovers that prefix
        // via state transfer, never by re-voting — which is what keeps
        // ViewChange size bounded by the log window instead of the run
        // length.
        let prepared: PreparedReport = self
            .slots
            .range(self.stable_seq + 1..)
            .filter_map(|(seq, s)| s.batch.clone().map(|b| (*seq, b)))
            .collect();
        msgs.push((
            Dest::AllReplicas,
            Message::ViewChange {
                new_view,
                last_exec: self.last_exec,
                stable_seq: self.stable_seq,
                stable_digest: self.stable_digest.unwrap_or([0u8; 32]),
                prepared: prepared.clone(),
                replica: self.cfg.id,
            },
        ));
        // Vote for the view change ourselves.
        self.store_view_vote(
            new_view,
            VcVote {
                last_exec: self.last_exec,
                stable_seq: self.stable_seq,
                prepared,
            },
            self.cfg.id,
        );
        self.apply_output_faults(msgs)
    }

    /// Stores a view-change vote, bounding the number of tracked view
    /// buckets (junk votes for far-future views are evicted first).
    fn store_view_vote(&mut self, view: View, vote: VcVote, replica: ReplicaId) {
        self.view_votes
            .entry(view)
            .or_default()
            .insert(replica, vote);
        while self.view_votes.len() > MAX_TRACKED_VIEWS {
            self.view_votes.pop_last();
        }
    }

    fn on_view_change(
        &mut self,
        new_view: View,
        sender_last_exec: Seq,
        sender_stable: Seq,
        prepared: PreparedReport,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        // Note: a lone sender's `stable_seq`/`last_exec` claims are NEVER
        // acted on directly — a single Byzantine vote naming `u64::MAX`
        // must not pin `fetch_target`, wedge view formation, or poison
        // sequence allocation. Being behind a real stable checkpoint is
        // learned from `2f+1` matching `Checkpoint` votes (try_stabilize)
        // or from the f+1-backed vote quorum below.
        if new_view <= self.view {
            // A replica stranded in an older view keeps asking for a view
            // change the rest of the cluster already completed.
            if replica != self.cfg.id {
                // Any replica holding a stable checkpoint past the
                // sender's execution point offers a snapshot — the old
                // primary-only answer left a stranded replica unserved
                // whenever the primary itself was briefly down, and pruned
                // history cannot be re-voted at all.
                self.maybe_send_snapshot(replica, sender_last_exec, false, out);
                if self.is_primary() {
                    // Assignments we still hold (necessarily above our
                    // stable checkpoint) let it replay the recent suffix.
                    let assignments: PreparedReport = self
                        .slots
                        .range(sender_last_exec.max(self.stable_seq).saturating_add(1)..)
                        .filter_map(|(seq, s)| s.batch.clone().map(|b| (*seq, b)))
                        .collect();
                    out.push((
                        Dest::Replica(replica),
                        Message::NewView {
                            view: self.view,
                            assignments,
                        },
                    ));
                }
            }
            return;
        }
        // Store only in-window report entries: anything at or below our
        // stable checkpoint is pruned history, anything past the high mark
        // is Byzantine.
        let prepared: PreparedReport = prepared
            .into_iter()
            .filter(|(seq, _)| self.seq_in_window(*seq))
            .collect();
        self.store_view_vote(
            new_view,
            VcVote {
                last_exec: sender_last_exec,
                stable_seq: sender_stable,
                prepared,
            },
            replica,
        );
        let votes_len = self.view_votes.get(&new_view).map_or(0, |v| v.len());
        if votes_len >= 2 * self.cfg.f + 1 && self.cfg.primary_of(new_view) == self.cfg.id {
            // Claims are trusted only at f+1 strength: the (f+1)-th highest
            // value among the 2f+1 votes is backed by at least one correct
            // replica, so a Byzantine minority can neither inflate it (seq
            // poisoning, formation wedging) nor is a genuine quorum-backed
            // value ever missed.
            let trusted_stable = self.view_votes.get(&new_view).map_or(0, |votes| {
                quorum_backed_max(votes.values().map(|v| v.stable_seq), self.cfg.f)
            });
            // Anchoring guard: if a quorum-backed stable checkpoint outruns
            // our execution, we are missing pruned history and must not
            // lead — re-ordering on top of a gap would assign sequence
            // numbers the rest of the cluster already garbage-collected.
            // Fetch state first; the voters keep re-voting (escalating) and
            // formation re-triggers once we caught up.
            if trusted_stable > self.last_exec {
                self.request_state(trusted_stable, out);
                return;
            }
            // Become primary of the new view. Reported slots keep their
            // reported sequence numbers and their exact batches — a batch
            // that committed (or even executed) at some replica must stay
            // at its slot unaltered or replica states diverge. Only
            // requests no replica reports ordered get fresh slots, placed
            // after every number any replica may have seen.
            let votes = self.view_votes.remove(&new_view).unwrap_or_default();
            // Fresh assignments must land above every sequence number a
            // correct voter has already executed — an executed slot
            // silently ignores a conflicting assignment at that replica
            // while others accept it, and states diverge. f+1-backed for
            // the same anti-poisoning reason as the stable anchor.
            let trusted_exec = quorum_backed_max(votes.values().map(|v| v.last_exec), self.cfg.f);
            let mut assignments: BTreeMap<Seq, Vec<Request>> = BTreeMap::new();
            // Placement tracking by (client, req_id) key: deep Request
            // comparisons over the whole history would make a view change
            // quadratic in everything ever executed.
            let mut placed: BTreeSet<(u64, u64)> = self
                .slots
                .values()
                .filter_map(|s| s.batch.as_ref())
                .flatten()
                .map(|r| (r.client, r.req_id))
                .collect();
            let mut reported_max: Seq = 0;
            for vote in votes.values() {
                for (seq, batch) in &vote.prepared {
                    if !self.seq_in_window(*seq) {
                        // A Byzantine report naming an absurd sequence
                        // number must not poison `next_seq` or occupy an
                        // in-flight slot execution can never reach.
                        continue;
                    }
                    reported_max = reported_max.max(*seq);
                    let seq_taken = assignments.contains_key(seq)
                        || self.slots.get(seq).is_some_and(|s| s.batch.is_some());
                    // A reported batch is kept whole (its digest covers the
                    // exact request sequence); requests it shares with an
                    // already-placed batch are defused by execution-time
                    // dedup. Skip it only when it adds nothing new.
                    if seq_taken || batch.iter().all(|r| placed.contains(&(r.client, r.req_id))) {
                        continue; // first placement wins, ours preferred
                    }
                    assignments.insert(*seq, batch.clone());
                    placed.extend(batch.iter().map(|r| (r.client, r.req_id)));
                }
            }
            // Re-issue our own slots' assignments so the NewView is the
            // complete history backups may need to catch up.
            for (s, slot) in &self.slots {
                if let Some(batch) = &slot.batch {
                    assignments.entry(*s).or_insert_with(|| batch.clone());
                }
            }
            // Fresh sequence numbers for pending requests nobody ordered,
            // batched under the same cap as the steady-state path. (The
            // max over our own slots ignores batchless entries — stray
            // votes for junk sequence numbers must not exhaust the space.)
            // Anchored above every voter's stable checkpoint: those seqs
            // are garbage-collected at the voters and would be dropped by
            // their acceptance windows.
            let mut seq = reported_max
                .max(
                    self.slots
                        .iter()
                        .filter(|(_, s)| s.batch.is_some())
                        .map(|(k, _)| *k)
                        .max()
                        .unwrap_or(0),
                )
                .max(self.last_exec)
                .max(self.next_seq)
                .max(trusted_exec)
                .max(trusted_stable)
                .max(self.stable_seq);
            let fresh: Vec<Request> = self
                .pending
                .clone()
                .into_iter()
                .filter(|req| {
                    !self.executed_already(req) && !placed.contains(&(req.client, req.req_id))
                })
                .collect();
            for chunk in fresh.chunks(self.cfg.batch_cap.max(1)) {
                seq += 1;
                assignments.insert(seq, chunk.to_vec());
            }
            self.next_seq = seq;
            self.install_view(new_view, &assignments);
            let assignments: PreparedReport = assignments.into_iter().collect();
            out.push((
                Dest::AllReplicas,
                Message::NewView {
                    view: new_view,
                    assignments: assignments.clone(),
                },
            ));
            // Locally treat each unexecuted assignment as pre-prepared;
            // broadcast prepares.
            for (seq, batch) in assignments {
                let digest = batch_digest(&batch);
                {
                    let slot = self.slots.entry(seq).or_default();
                    if slot.executed {
                        continue;
                    }
                    slot.prepares.insert(self.cfg.id);
                }
                out.push((
                    Dest::AllReplicas,
                    Message::Prepare {
                        view: new_view,
                        seq,
                        digest,
                        replica: self.cfg.id,
                    },
                ));
                self.maybe_commit_phase(seq, out);
            }
        }
    }

    fn on_new_view(
        &mut self,
        from: u64,
        view: View,
        assignments: PreparedReport,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if view <= self.view || from != u64::from(self.cfg.primary_of(view)) {
            return;
        }
        // Drop assignments beyond the sequence window: a Byzantine new
        // primary naming absurd sequence numbers must not create slots
        // execution can never reach.
        let map: BTreeMap<Seq, Vec<Request>> = assignments
            .into_iter()
            .filter(|(seq, _)| self.seq_in_window(*seq))
            .collect();
        self.install_view(view, &map);
        for (seq, batch) in map {
            let digest = batch_digest(&batch);
            let me = self.cfg.id;
            let slot = self.slots.entry(seq).or_default();
            if slot.executed || slot.committed {
                // Re-cast our votes for slots we already decided: the new
                // primary may have missed them and cannot fill its execution
                // gap otherwise. Directly to the primary — the only replica
                // known to need them — not broadcast.
                if slot.digest == Some(digest) {
                    let primary = Dest::Replica(self.cfg.primary_of(view));
                    out.push((
                        primary,
                        Message::Prepare {
                            view,
                            seq,
                            digest,
                            replica: me,
                        },
                    ));
                    out.push((
                        primary,
                        Message::Commit {
                            view,
                            seq,
                            digest,
                            replica: me,
                        },
                    ));
                }
                continue;
            }
            slot.batch = Some(batch);
            slot.digest = Some(digest);
            slot.prepares.insert(me);
            out.push((
                Dest::AllReplicas,
                Message::Prepare {
                    view,
                    seq,
                    digest,
                    replica: me,
                },
            ));
            self.maybe_commit_phase(seq, out);
        }
    }

    fn install_view(&mut self, view: View, assignments: &BTreeMap<Seq, Vec<Request>>) {
        self.view = view;
        // The escalation target restarts from the installed view: the next
        // stall votes `view + 1`, not wherever the last escalation run got
        // to.
        self.vc_target = view;
        // Executed/committed slots survive (votes are view-agnostic), but
        // our own uncommitted orderings from older views are void: the new
        // primary's assignments are authoritative. A stale divergent slot
        // kept here would reject the new assignment's votes forever.
        // Orphaned requests go back to `pending` so they are re-ordered
        // rather than lost.
        let mut orphaned: Vec<Request> = Vec::new();
        self.slots.retain(|seq, slot| {
            let keep = slot.executed || slot.committed || assignments.contains_key(seq);
            if !keep {
                if let Some(batch) = slot.batch.take() {
                    orphaned.extend(batch);
                }
            }
            keep
        });
        for req in orphaned {
            if !self.executed_already(&req) && !self.pending.contains(&req) {
                self.pending.push(req);
            }
        }
        for (seq, batch) in assignments {
            let slot = self.slots.entry(*seq).or_default();
            if slot.executed || slot.committed {
                continue;
            }
            let digest = batch_digest(batch);
            if slot.digest != Some(digest) {
                slot.batch = Some(batch.clone());
                slot.digest = Some(digest);
                slot.prepares.clear();
                slot.commits.clear();
            }
            for req in batch {
                self.ordered.insert((req.client, req.req_id), *seq);
            }
        }
        // Every request the assignments placed is ordered now — it must
        // leave `pending`, or the next `try_assign` (first post-view-change
        // execution) would drain it into a second slot and double-order it.
        // (Keyed set: a linear `batch.contains` per pending entry would be
        // quadratic in the assignment history.)
        let assigned: BTreeSet<(u64, u64)> = assignments
            .values()
            .flatten()
            .map(|r| (r.client, r.req_id))
            .collect();
        self.pending
            .retain(|req| !assigned.contains(&(req.client, req.req_id)));
        self.view_votes.retain(|v, _| *v > view);
    }

    fn apply_output_faults(&self, out: Vec<(Dest, Message)>) -> Vec<(Dest, Message)> {
        match &self.fault {
            FaultMode::Correct => out,
            FaultMode::Crashed | FaultMode::Mute => Vec::new(),
            FaultMode::CorruptReplies => out
                .into_iter()
                .flat_map(|(dest, msg)| match msg {
                    // Forge the result AND inflate the claimed seq: a
                    // Byzantine replica lying about its execution point must
                    // neither win a vote nor drag correct clients' read
                    // watermarks to u64::MAX (which would force every future
                    // fast read into the ordered fallback). Each reply also
                    // grows a spurious forged Wake — an attempt to complete
                    // a blocked invoke that never matched.
                    Message::Reply {
                        view,
                        req_id,
                        replica,
                        ..
                    } => vec![
                        (
                            dest,
                            Message::Reply {
                                view,
                                seq: u64::MAX,
                                req_id,
                                replica,
                                result: OpResult::Denied("corrupted".into()),
                            },
                        ),
                        (
                            dest,
                            Message::Wake {
                                req_id,
                                seq: u64::MAX,
                                result: OpResult::Tuple(None),
                                replica,
                            },
                        ),
                    ],
                    Message::ReadReply {
                        req_id, replica, ..
                    } => {
                        let result = OpResult::Denied("corrupted".into());
                        vec![(
                            dest,
                            Message::ReadReply {
                                req_id,
                                seq: u64::MAX,
                                digest: result.digest(),
                                result,
                                replica,
                            },
                        )]
                    }
                    // A genuine wake turns into a lie about both the match
                    // seq and the tuple.
                    Message::Wake {
                        req_id, replica, ..
                    } => vec![(
                        dest,
                        Message::Wake {
                            req_id,
                            seq: u64::MAX,
                            result: OpResult::Denied("corrupted".into()),
                            replica,
                        },
                    )],
                    other => vec![(dest, other)],
                })
                .collect(),
            FaultMode::EquivocatingPrimary => out
                .into_iter()
                .flat_map(|(dest, msg)| match (dest, &msg) {
                    (
                        Dest::AllReplicas,
                        Message::PrePrepare {
                            view,
                            seq,
                            requests,
                        },
                    ) => {
                        // Send conflicting assignments to odd/even replicas.
                        let mut forged = requests.clone();
                        if let Some(first) = forged.first_mut() {
                            first.req_id = first.req_id.wrapping_add(1_000_000);
                        }
                        let mut msgs = Vec::new();
                        for r in 0..self.cfg.n as ReplicaId {
                            if r == self.cfg.id {
                                continue;
                            }
                            let m = if r % 2 == 0 {
                                Message::PrePrepare {
                                    view: *view,
                                    seq: *seq,
                                    requests: requests.clone(),
                                }
                            } else {
                                Message::PrePrepare {
                                    view: *view,
                                    seq: *seq,
                                    requests: forged.clone(),
                                }
                            };
                            msgs.push((Dest::Replica(r), m));
                        }
                        msgs
                    }
                    _ => vec![(dest, msg)],
                })
                .collect(),
            FaultMode::Flooder => {
                // Correct outputs plus one junk prepare vote broadcast per
                // processed input: a self-sustaining noise loop once two
                // flooders feed each other. The vote lands in a batchless
                // slot at a sequence number no real assignment reaches, so
                // it can never certify anything.
                let mut out = out;
                out.push((
                    Dest::AllReplicas,
                    Message::Prepare {
                        view: self.view,
                        seq: u64::MAX,
                        digest: [0u8; 32],
                        replica: self.cfg.id,
                    },
                ));
                out
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::WaitKind;
    use crate::service::PeatsService;
    use peats_policy::{OpCall, Policy, PolicyParams};
    use peats_tuplespace::tuple;

    const CLIENT_NODE: u64 = 4;
    const CLIENT_PID: u64 = 100;

    fn mk_replica(id: ReplicaId, batch_cap: usize, max_in_flight: usize) -> Replica {
        let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
        Replica::new(
            ReplicaConfig {
                batch_cap,
                max_in_flight,
                ..ReplicaConfig::new(id, 4, 1)
            },
            service,
            registry,
        )
    }

    fn mk_primary(batch_cap: usize, max_in_flight: usize) -> Replica {
        mk_replica(0, batch_cap, max_in_flight)
    }

    fn req(i: u64) -> Request {
        Request::call(CLIENT_PID, i, OpCall::out(tuple!["T", i as i64]))
    }

    fn pre_prepares(out: &[(Dest, Message)]) -> Vec<(Seq, Vec<Request>)> {
        out.iter()
            .filter_map(|(_, m)| match m {
                Message::PrePrepare { seq, requests, .. } => Some((*seq, requests.clone())),
                _ => None,
            })
            .collect()
    }

    fn reply_ids(out: &[(Dest, Message)]) -> Vec<u64> {
        out.iter()
            .filter_map(|(_, m)| match m {
                Message::Reply { req_id, .. } => Some(*req_id),
                _ => None,
            })
            .collect()
    }

    /// Drives slot `seq` (digest of `batch`) through prepare+commit votes
    /// from `voters`; returns the outputs of the last commit (where
    /// execution happens).
    fn commit_slot_with(
        p: &mut Replica,
        seq: Seq,
        batch: &[Request],
        voters: [u32; 2],
    ) -> Vec<(Dest, Message)> {
        commit_slot_via(p, seq, batch, voters, Replica::on_message)
    }

    /// [`commit_slot_with`], delivering through `deliver` (`on_message`, or
    /// the no-sync `step`).
    fn commit_slot_via(
        p: &mut Replica,
        seq: Seq,
        batch: &[Request],
        voters: [u32; 2],
        deliver: fn(&mut Replica, u64, Message) -> Vec<(Dest, Message)>,
    ) -> Vec<(Dest, Message)> {
        let digest = batch_digest(batch);
        for r in voters {
            let prepare = Message::Prepare {
                view: p.view(),
                seq,
                digest,
                replica: r,
            };
            deliver(p, u64::from(r), prepare);
        }
        let mut out = Vec::new();
        for r in voters {
            let commit = Message::Commit {
                view: p.view(),
                seq,
                digest,
                replica: r,
            };
            out = deliver(p, u64::from(r), commit);
        }
        out
    }

    fn commit_slot(p: &mut Replica, seq: Seq, batch: &[Request]) -> Vec<(Dest, Message)> {
        commit_slot_with(p, seq, batch, [1, 2])
    }

    #[test]
    fn primary_batches_backlog_when_window_is_full() {
        let mut p = mk_primary(8, 1);
        let out1 = p.on_message(CLIENT_NODE, Message::Request(req(1)));
        assert_eq!(pre_prepares(&out1), vec![(1, vec![req(1)])]);
        // Window (1 slot) full: the next two requests accumulate.
        assert!(pre_prepares(&p.on_message(CLIENT_NODE, Message::Request(req(2)))).is_empty());
        assert!(pre_prepares(&p.on_message(CLIENT_NODE, Message::Request(req(3)))).is_empty());
        let out = commit_slot(&mut p, 1, &[req(1)]);
        // Execution freed the window: the backlog ships as one batch.
        assert_eq!(reply_ids(&out), vec![1]);
        assert_eq!(pre_prepares(&out), vec![(2, vec![req(2), req(3)])]);
        assert_eq!(p.last_exec(), 1);
    }

    #[test]
    fn batch_cap_splits_the_backlog() {
        let mut p = mk_primary(2, 1);
        p.on_message(CLIENT_NODE, Message::Request(req(1)));
        for i in 2..=6 {
            p.on_message(CLIENT_NODE, Message::Request(req(i)));
        }
        let out = commit_slot(&mut p, 1, &[req(1)]);
        // Window of one slot, cap of two requests: exactly [2, 3] ships.
        assert_eq!(pre_prepares(&out), vec![(2, vec![req(2), req(3)])]);
    }

    #[test]
    fn batch_cap_of_one_assigns_a_slot_per_request() {
        let mut p = {
            let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
            let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
            Replica::new(
                ReplicaConfig {
                    batch_cap: 1,
                    max_in_flight: usize::MAX,
                    ..ReplicaConfig::new(0, 4, 1)
                },
                service,
                registry,
            )
        };
        for i in 1..=3 {
            let out = p.on_message(CLIENT_NODE, Message::Request(req(i)));
            assert_eq!(pre_prepares(&out), vec![(i, vec![req(i)])]);
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint_interval must be at least 1")]
    fn zero_checkpoint_interval_is_refused() {
        let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        Replica::new(
            ReplicaConfig {
                checkpoint_interval: 0,
                ..ReplicaConfig::new(0, 4, 1)
            },
            service,
            BTreeMap::new(),
        );
    }

    #[test]
    fn whole_batch_executes_with_a_reply_per_request() {
        let mut p = mk_primary(8, 1);
        p.on_message(CLIENT_NODE, Message::Request(req(1)));
        for i in 2..=4 {
            p.on_message(CLIENT_NODE, Message::Request(req(i)));
        }
        commit_slot(&mut p, 1, &[req(1)]);
        let out = commit_slot(&mut p, 2, &[req(2), req(3), req(4)]);
        assert_eq!(reply_ids(&out), vec![2, 3, 4]);
        assert_eq!(p.last_exec(), 2);
    }

    #[test]
    fn interleaved_req_ids_from_cloned_handles_all_execute() {
        // Cloned client handles share a pid but interleave req_ids: here
        // req 2 executes before req 1 even arrives. A last-req_id-per-client
        // dedup would drop req 1 as "stale"; the per-request reply map must
        // order it.
        let mut p = mk_primary(8, 4);
        p.on_message(CLIENT_NODE, Message::Request(req(2)));
        commit_slot(&mut p, 1, &[req(2)]);
        let out = p.on_message(CLIENT_NODE, Message::Request(req(1)));
        assert_eq!(pre_prepares(&out), vec![(2, vec![req(1)])]);
        let out = commit_slot(&mut p, 2, &[req(1)]);
        assert_eq!(reply_ids(&out), vec![1]);
    }

    fn register_req(i: u64) -> Request {
        Request {
            client: CLIENT_PID,
            req_id: i,
            op: RequestOp::Register {
                template: peats_tuplespace::template!["T", ?x],
                kind: WaitKind::Take,
                persistent: false,
            },
        }
    }

    fn wakes(out: &[(Dest, Message)]) -> Vec<(u64, Seq, OpResult)> {
        out.iter()
            .filter_map(|(dest, m)| match m {
                Message::Wake {
                    req_id,
                    seq,
                    result,
                    ..
                } => {
                    assert_eq!(*dest, Dest::Client(CLIENT_NODE), "wakes go to the waiter");
                    Some((*req_id, *seq, result.clone()))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn committed_out_pushes_a_wake_and_prunes_the_registration() {
        let mut p = mk_primary(8, 1);
        p.on_message(CLIENT_NODE, Message::Request(register_req(1)));
        let out = commit_slot(&mut p, 1, &[register_req(1)]);
        assert_eq!(reply_ids(&out), vec![1], "the park itself is acknowledged");
        assert_eq!(p.footprint().registrations, 1);

        p.on_message(CLIENT_NODE, Message::Request(req(2)));
        let out = commit_slot(&mut p, 2, &[req(2)]);
        // The out's commit pushes the wake — same slot, the matched tuple —
        // and the one-shot registration is gone.
        assert_eq!(
            wakes(&out),
            vec![(1, 2, OpResult::Tuple(Some(tuple!["T", 2i64])))]
        );
        assert_eq!(p.footprint().registrations, 0);
        // The take consumed the tuple before it ever entered the space.
        assert_eq!(
            p.service.execute(
                CLIENT_PID,
                &OpCall::rdp(peats_tuplespace::template!["T", ?x])
            ),
            OpResult::Tuple(None)
        );
    }

    #[test]
    fn register_retransmission_replays_the_woken_result() {
        // The wake overwrites the Register's cached reply at match time, so
        // a client that lost the Wake message recovers it with a standard
        // retransmission — liveness never depends on the push arriving.
        let mut p = mk_primary(8, 1);
        p.on_message(CLIENT_NODE, Message::Request(register_req(1)));
        commit_slot(&mut p, 1, &[register_req(1)]);
        p.on_message(CLIENT_NODE, Message::Request(req(2)));
        commit_slot(&mut p, 2, &[req(2)]);
        let out = p.on_message(CLIENT_NODE, Message::Request(register_req(1)));
        let replayed: Vec<_> = out
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Reply { seq, result, .. } => Some((*seq, result.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            replayed,
            vec![(2, OpResult::Tuple(Some(tuple!["T", 2i64])))],
            "the cache must hold the match, not the stale Registered ack"
        );
        assert_eq!(p.last_exec(), 2, "no re-execution");
    }

    #[test]
    fn committed_cancel_prunes_the_registration() {
        let mut p = mk_primary(8, 1);
        p.on_message(CLIENT_NODE, Message::Request(register_req(1)));
        commit_slot(&mut p, 1, &[register_req(1)]);
        assert_eq!(p.footprint().registrations, 1);
        let cancel = Request {
            client: CLIENT_PID,
            req_id: 2,
            op: RequestOp::Cancel { target: 1 },
        };
        p.on_message(CLIENT_NODE, Message::Request(cancel.clone()));
        let out = commit_slot(&mut p, 2, &[cancel]);
        assert_eq!(reply_ids(&out), vec![2]);
        assert_eq!(p.footprint().registrations, 0, "cancelled waiter pruned");
        // A later matching out wakes nobody and lands in the space.
        p.on_message(CLIENT_NODE, Message::Request(req(3)));
        let out = commit_slot(&mut p, 3, &[req(3)]);
        assert!(wakes(&out).is_empty(), "no ghost waiter");
        assert_eq!(
            p.service.execute(
                CLIENT_PID,
                &OpCall::rdp(peats_tuplespace::template!["T", ?x])
            ),
            OpResult::Tuple(Some(tuple!["T", 3i64]))
        );
    }

    #[test]
    fn executed_retransmission_re_replies_without_re_execution() {
        let mut p = mk_primary(8, 1);
        p.on_message(CLIENT_NODE, Message::Request(req(1)));
        commit_slot(&mut p, 1, &[req(1)]);
        let out = p.on_message(CLIENT_NODE, Message::Request(req(1)));
        assert_eq!(reply_ids(&out), vec![1]);
        assert!(pre_prepares(&out).is_empty());
        assert_eq!(p.last_exec(), 1, "no re-execution");
    }

    #[test]
    fn duplicate_request_across_batches_executes_once() {
        // A Byzantine primary double-orders req 1 (slots 1 and 2). At a
        // backup, the second execution must be a no-op or replica states
        // diverge from replicas that deduped.
        let mut b = mk_replica(1, 8, 4);
        for (seq, batch) in [(1u64, vec![req(1)]), (2, vec![req(2), req(1)])] {
            b.on_message(
                0,
                Message::PrePrepare {
                    view: 0,
                    seq,
                    requests: batch.clone(),
                },
            );
            let digest = batch_digest(&batch);
            b.on_message(
                2,
                Message::Prepare {
                    view: 0,
                    seq,
                    digest,
                    replica: 2,
                },
            );
            let mut out = Vec::new();
            for r in [0u32, 2] {
                out = b.on_message(
                    u64::from(r),
                    Message::Commit {
                        view: 0,
                        seq,
                        digest,
                        replica: r,
                    },
                );
            }
            if seq == 1 {
                assert_eq!(reply_ids(&out), vec![1]);
            } else {
                assert_eq!(reply_ids(&out), vec![2], "req 1 must not re-execute");
            }
        }
        assert_eq!(b.last_exec(), 2);
    }

    #[test]
    fn view_change_does_not_double_order_pending_requests() {
        // A backup holding a pending backlog becomes primary: the NewView
        // assignments place that backlog into slots. Once the first slot
        // executes and `try_assign` runs again, the requests placed in the
        // *later* slot must not be drained out of `pending` into a third
        // slot — that would certify them at two sequence numbers.
        let mut p = mk_replica(1, 2, 2);
        // Backup of view 0: the requests pend.
        for i in 1..=4 {
            p.on_message(CLIENT_NODE, Message::Request(req(i)));
        }
        // View change to view 1 (this replica is its primary): own vote
        // via the progress timeout, then two peer votes.
        p.on_progress_timeout();
        let mut nv = Vec::new();
        for r in [2u32, 3] {
            nv = p.on_message(
                u64::from(r),
                Message::ViewChange {
                    new_view: 1,
                    last_exec: 0,
                    stable_seq: 0,
                    stable_digest: [0u8; 32],
                    prepared: vec![],
                    replica: r,
                },
            );
        }
        // The backlog was placed as two capped batches.
        assert_eq!(
            pre_prepares(&nv),
            Vec::<(Seq, Vec<Request>)>::new(),
            "NewView carries assignments, not PrePrepares"
        );
        assert_eq!(p.view(), 1);
        // Commit slot 1 with votes from replicas 2 and 3.
        let out = commit_slot_with(&mut p, 1, &[req(1), req(2)], [2, 3]);
        assert_eq!(reply_ids(&out), vec![1, 2], "slot 1 executed");
        assert_eq!(
            pre_prepares(&out),
            Vec::<(Seq, Vec<Request>)>::new(),
            "requests already assigned to slot 2 must not be re-ordered"
        );
    }

    #[test]
    fn byzantine_view_change_report_with_huge_seq_is_bounded() {
        // One faulty replica's ViewChange reports an assignment at seq
        // u64::MAX. The new primary must drop it: sequence allocation must
        // not overflow (debug panic) or jump to the top of the space, and
        // fresh requests still get ordinary low sequence numbers.
        let mut p = mk_replica(1, 8, 2);
        p.on_message(CLIENT_NODE, Message::Request(req(1)));
        p.on_progress_timeout();
        p.on_message(
            2,
            Message::ViewChange {
                new_view: 1,
                last_exec: 0,
                stable_seq: 0,
                stable_digest: [0u8; 32],
                prepared: vec![(u64::MAX, vec![req(9)])],
                replica: 2,
            },
        );
        let nv = p.on_message(
            3,
            Message::ViewChange {
                new_view: 1,
                last_exec: 0,
                stable_seq: 0,
                stable_digest: [0u8; 32],
                prepared: vec![],
                replica: 3,
            },
        );
        let assignments = nv
            .iter()
            .find_map(|(_, m)| match m {
                Message::NewView { assignments, .. } => Some(assignments.clone()),
                _ => None,
            })
            .expect("new primary must install the view");
        assert!(
            assignments.iter().all(|(s, _)| *s <= SEQ_WINDOW),
            "no assignment may keep the poisoned sequence number: {assignments:?}"
        );
        assert!(
            assignments
                .iter()
                .any(|(s, b)| *s == 1 && b.contains(&req(1))),
            "the pending request must land at an ordinary low slot"
        );
    }

    /// Feeds back matching checkpoint votes from replicas 1 and 2 for every
    /// `Checkpoint` the replica just broadcast, completing the `2f+1`
    /// stability quorum (f = 1).
    fn echo_checkpoints(p: &mut Replica, out: &[(Dest, Message)]) {
        echo_checkpoints_from(p, out, [1, 2]);
    }

    fn mk_checkpointing_primary(interval: Seq) -> Replica {
        let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
        Replica::new(
            ReplicaConfig {
                batch_cap: 1,
                max_in_flight: usize::MAX,
                checkpoint_interval: interval,
                ..ReplicaConfig::new(0, 4, 1)
            },
            service,
            registry,
        )
    }

    #[test]
    fn stable_checkpoints_garbage_collect_slots_and_hints() {
        let interval = 4;
        let mut p = mk_checkpointing_primary(interval);
        for i in 1..=12u64 {
            p.on_message(CLIENT_NODE, Message::Request(req(i)));
            let out = commit_slot(&mut p, i, &[req(i)]);
            echo_checkpoints(&mut p, &out);
        }
        assert_eq!(p.last_exec(), 12);
        assert_eq!(p.stable_seq(), 12, "the boundary at 12 must stabilize");
        let fp = p.footprint();
        assert_eq!(fp.slots, 0, "all slots at or below h are pruned");
        assert_eq!(fp.ordered, 0, "ordering hints at or below h are pruned");
        assert!(
            fp.checkpoint_votes <= 4,
            "at most one live checkpoint vote per replica, got {}",
            fp.checkpoint_votes
        );
        // Votes for pruned slots must not re-materialize them.
        p.on_message(
            1,
            Message::Prepare {
                view: 0,
                seq: 3,
                digest: batch_digest(&[req(3)]),
                replica: 1,
            },
        );
        assert_eq!(p.footprint().slots, 0, "a vote below h must stay dropped");
    }

    #[test]
    fn view_change_report_is_bounded_by_the_stable_checkpoint() {
        let interval = 4;
        let mut p = mk_checkpointing_primary(interval);
        for i in 1..=8u64 {
            p.on_message(CLIENT_NODE, Message::Request(req(i)));
            let out = commit_slot(&mut p, i, &[req(i)]);
            echo_checkpoints(&mut p, &out);
        }
        // One in-flight (unexecuted) slot above the checkpoint plus a
        // pending request so the progress check fires.
        p.on_message(CLIENT_NODE, Message::Request(req(9)));
        let msgs = p.on_progress_timeout();
        let (stable_seq, prepared) = msgs
            .iter()
            .find_map(|(_, m)| match m {
                Message::ViewChange {
                    stable_seq,
                    prepared,
                    ..
                } => Some((*stable_seq, prepared.clone())),
                _ => None,
            })
            .expect("stalled replica must vote a view change");
        assert_eq!(stable_seq, 8);
        assert!(
            prepared.iter().all(|(s, _)| *s > 8),
            "the report must not carry garbage-collected history: {prepared:?}"
        );
        assert!(
            prepared.len() <= 1,
            "report bounded by the in-flight window, got {}",
            prepared.len()
        );
    }

    #[test]
    fn repeated_timeouts_escalate_past_consecutively_faulty_primaries() {
        // Backup 3 of a 4-replica cluster with a pending request: the first
        // timeout votes view 1; if that view's primary never answers, the
        // next timeout must move on to view 2 instead of re-voting view 1
        // forever.
        let mut b = mk_replica(3, 8, 2);
        b.on_message(CLIENT_NODE, Message::Request(req(1)));
        let first = b.on_progress_timeout();
        let view_of = |msgs: &[(Dest, Message)]| {
            msgs.iter()
                .find_map(|(_, m)| match m {
                    Message::ViewChange { new_view, .. } => Some(*new_view),
                    _ => None,
                })
                .expect("a stalled backup votes")
        };
        assert_eq!(view_of(&first), 1);
        assert_eq!(view_of(&b.on_progress_timeout()), 2);
        assert_eq!(view_of(&b.on_progress_timeout()), 3);
    }

    #[test]
    fn stalled_replica_joins_a_peer_voted_view_instead_of_leapfrogging() {
        // f+1 = 2 peers already voted view 5; our next escalation target
        // would be 1, but joining 5 is what lets the quorum form.
        let mut b = mk_replica(3, 8, 2);
        b.on_message(CLIENT_NODE, Message::Request(req(1)));
        for r in [1u32, 2] {
            b.on_message(
                u64::from(r),
                Message::ViewChange {
                    new_view: 5,
                    last_exec: 0,
                    stable_seq: 0,
                    stable_digest: [0u8; 32],
                    prepared: vec![],
                    replica: r,
                },
            );
        }
        let msgs = b.on_progress_timeout();
        let voted = msgs
            .iter()
            .find_map(|(_, m)| match m {
                Message::ViewChange { new_view, .. } => Some(*new_view),
                _ => None,
            })
            .unwrap();
        assert_eq!(voted, 5, "must join the f+1-backed view change");
    }

    #[test]
    fn any_replica_with_a_stable_checkpoint_answers_a_stale_view_change() {
        // Replica 1 is NOT the view-0 primary; it must still offer a
        // snapshot to a replica stranded below its stable checkpoint.
        let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
        let mut b = Replica::new(
            ReplicaConfig {
                batch_cap: 1,
                max_in_flight: usize::MAX,
                checkpoint_interval: 4,
                ..ReplicaConfig::new(1, 4, 1)
            },
            service,
            registry,
        );
        // Drive 4 slots to execution as a backup (pre-prepares from the
        // primary, votes from 0 and 2), then stabilize.
        for i in 1..=4u64 {
            b.on_message(
                0,
                Message::PrePrepare {
                    view: 0,
                    seq: i,
                    requests: vec![req(i)],
                },
            );
            let out = commit_slot_with(&mut b, i, &[req(i)], [0, 2]);
            echo_checkpoints_from(&mut b, &out, [0, 2]);
        }
        assert_eq!(b.stable_seq(), 4);
        let out = b.on_message(
            3,
            Message::ViewChange {
                new_view: 0,
                last_exec: 0,
                stable_seq: 0,
                stable_digest: [0u8; 32],
                prepared: vec![],
                replica: 3,
            },
        );
        assert!(
            out.iter().any(|(dest, m)| *dest == Dest::Replica(3)
                && matches!(m, Message::StateSnapshot { seq: 4, .. })),
            "a non-primary holding a stable checkpoint must offer it: {out:?}"
        );
        // ... but only once per stable checkpoint: the stranded replica's
        // timeout loop must not pull a fresh O(state) payload per tick.
        let again = b.on_message(
            3,
            Message::ViewChange {
                new_view: 0,
                last_exec: 0,
                stable_seq: 0,
                stable_digest: [0u8; 32],
                prepared: vec![],
                replica: 3,
            },
        );
        assert!(
            !again
                .iter()
                .any(|(_, m)| matches!(m, Message::StateSnapshot { .. })),
            "unsolicited offers are deduped per stable checkpoint"
        );
    }

    /// `echo_checkpoints` with an explicit voter pair.
    fn echo_checkpoints_from(p: &mut Replica, out: &[(Dest, Message)], voters: [u32; 2]) {
        let ckpts: Vec<(Seq, Digest)> = out
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Checkpoint { seq, digest, .. } => Some((*seq, *digest)),
                _ => None,
            })
            .collect();
        for (seq, digest) in ckpts {
            for r in voters {
                p.on_message(
                    u64::from(r),
                    Message::Checkpoint {
                        seq,
                        digest,
                        replica: r,
                    },
                );
            }
        }
    }

    #[test]
    fn snapshot_installs_only_with_attestation_and_matching_digest() {
        // Donor: a primary that executed through a stable checkpoint at 4.
        let mut donor = mk_checkpointing_primary(4);
        for i in 1..=4u64 {
            donor.on_message(CLIENT_NODE, Message::Request(req(i)));
            let out = commit_slot(&mut donor, i, &[req(i)]);
            echo_checkpoints(&mut donor, &out);
        }
        assert_eq!(donor.stable_seq(), 4);
        let answer = donor.on_message(
            3,
            Message::FetchState {
                last_exec: 0,
                replica: 3,
            },
        );
        let (seq, digest, snapshot) = answer
            .iter()
            .find_map(|(_, m)| match m {
                Message::StateSnapshot {
                    seq,
                    digest,
                    snapshot,
                    ..
                } => Some((*seq, *digest, snapshot.clone())),
                _ => None,
            })
            .expect("a fetch against a stable checkpoint is answered");

        // A fresh replica 3 (restarted from nothing).
        let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
        let mut fresh = Replica::new(
            ReplicaConfig {
                checkpoint_interval: 4,
                ..ReplicaConfig::new(3, 4, 1)
            },
            service,
            registry,
        );
        // A lying payload under the attested digest must be rejected by the
        // recompute even once attested.
        let mut poisoned = snapshot.clone();
        poisoned.replies.push((999, vec![(1, 1, OpResult::Done)]));
        fresh.on_message(
            0,
            Message::StateSnapshot {
                seq,
                digest,
                snapshot: poisoned,
                replica: 0,
            },
        );
        fresh.on_message(
            1,
            Message::Checkpoint {
                seq,
                digest,
                replica: 1,
            },
        );
        assert_eq!(fresh.last_exec(), 0, "poisoned payload must not install");

        // The genuine payload with one attester (the sender alone) must
        // wait for f+1 = 2 distinct attestations...
        let mut fresh2 = {
            let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
            let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
            Replica::new(
                ReplicaConfig {
                    checkpoint_interval: 4,
                    ..ReplicaConfig::new(3, 4, 1)
                },
                service,
                registry,
            )
        };
        fresh2.on_message(
            0,
            Message::StateSnapshot {
                seq,
                digest,
                snapshot: snapshot.clone(),
                replica: 0,
            },
        );
        assert_eq!(fresh2.last_exec(), 0, "one attester is not enough");
        // ...and install as soon as the second lands.
        let out = fresh2.on_message(
            1,
            Message::Checkpoint {
                seq,
                digest,
                replica: 1,
            },
        );
        assert_eq!(fresh2.last_exec(), 4, "attested snapshot installs");
        assert_eq!(fresh2.stable_seq(), 4);
        assert_eq!(
            fresh2.state_digest(),
            donor.state_digest(),
            "restored service state must match the donor's"
        );
        assert!(
            out.iter()
                .any(|(_, m)| matches!(m, Message::Checkpoint { seq: 4, .. })),
            "the installer re-attests so the next straggler can count it"
        );
        // A retransmission of an executed request is re-replied from the
        // restored reply retention, not re-executed.
        let re = fresh2.on_message(CLIENT_NODE, Message::Request(req(2)));
        assert_eq!(reply_ids(&re), vec![2]);
        assert_eq!(fresh2.last_exec(), 4, "no re-execution after restore");
    }

    #[test]
    fn byzantine_view_change_claims_cannot_poison_sequence_allocation() {
        // One faulty voter claims last_exec and stable_seq of u64::MAX.
        // The claims are only f+1-trusted, so formation proceeds, no
        // arithmetic overflows, and fresh requests still land at ordinary
        // low sequence numbers.
        let mut p = mk_replica(1, 8, 2);
        p.on_message(CLIENT_NODE, Message::Request(req(1)));
        p.on_progress_timeout();
        p.on_message(
            2,
            Message::ViewChange {
                new_view: 1,
                last_exec: u64::MAX,
                stable_seq: u64::MAX,
                stable_digest: [9u8; 32],
                prepared: vec![],
                replica: 2,
            },
        );
        let nv = p.on_message(
            3,
            Message::ViewChange {
                new_view: 1,
                last_exec: 0,
                stable_seq: 0,
                stable_digest: [0u8; 32],
                prepared: vec![],
                replica: 3,
            },
        );
        let assignments = nv
            .iter()
            .find_map(|(_, m)| match m {
                Message::NewView { assignments, .. } => Some(assignments.clone()),
                _ => None,
            })
            .expect("a lone liar must not block view formation");
        assert!(
            assignments
                .iter()
                .any(|(s, b)| *s == 1 && b.contains(&req(1))),
            "fresh requests must keep ordinary low slots: {assignments:?}"
        );
        // The lone stable claim must not have pinned a fetch either: no
        // FetchState goes out on the next timeout.
        p.on_message(CLIENT_NODE, Message::Request(req(2)));
        assert!(
            !p.on_progress_timeout()
                .iter()
                .any(|(_, m)| matches!(m, Message::FetchState { .. })),
            "a single unbacked stable claim must not trigger state fetching"
        );
    }

    #[test]
    fn stale_view_change_with_absurd_last_exec_does_not_panic() {
        let mut p = mk_primary(8, 2);
        p.on_message(CLIENT_NODE, Message::Request(req(1)));
        commit_slot(&mut p, 1, &[req(1)]);
        // Stale (new_view 0 == current view) with last_exec u64::MAX: the
        // suffix range must saturate, not overflow.
        let out = p.on_message(
            3,
            Message::ViewChange {
                new_view: 0,
                last_exec: u64::MAX,
                stable_seq: 0,
                stable_digest: [0u8; 32],
                prepared: vec![],
                replica: 3,
            },
        );
        assert!(
            !out.iter().any(|(_, m)| matches!(m, Message::NewView { .. })
                && matches!(m, Message::NewView { assignments, .. } if !assignments.is_empty())),
            "nothing to ship to a sender claiming to be ahead"
        );
    }

    #[test]
    fn fetch_state_flood_is_rate_limited_per_stable_checkpoint() {
        let mut donor = mk_checkpointing_primary(4);
        for i in 1..=4u64 {
            donor.on_message(CLIENT_NODE, Message::Request(req(i)));
            let out = commit_slot(&mut donor, i, &[req(i)]);
            echo_checkpoints(&mut donor, &out);
        }
        assert_eq!(donor.stable_seq(), 4);
        let mut snapshots = 0;
        for _ in 0..10 {
            let out = donor.on_message(
                3,
                Message::FetchState {
                    last_exec: 0,
                    replica: 3,
                },
            );
            snapshots += out
                .iter()
                .filter(|(_, m)| matches!(m, Message::StateSnapshot { .. }))
                .count();
        }
        assert!(
            snapshots <= 3,
            "a fetch loop must not draw unbounded O(state) payloads, got {snapshots}"
        );
    }

    #[test]
    fn diverged_replica_rolls_back_to_the_canonical_checkpoint() {
        // Replica 3 executed a different request at slot 4 than the rest of
        // the cluster: same last_exec, different digest. Once 2f+1 matching
        // checkpoint votes prove its state wrong, it must fetch and install
        // the canonical snapshot even though the checkpoint seq is not past
        // its own last_exec.
        let mut donor = mk_checkpointing_primary(4);
        for i in 1..=4u64 {
            donor.on_message(CLIENT_NODE, Message::Request(req(i)));
            let out = commit_slot(&mut donor, i, &[req(i)]);
            echo_checkpoints(&mut donor, &out);
        }
        let canonical = donor
            .on_message(
                3,
                Message::FetchState {
                    last_exec: 0,
                    replica: 3,
                },
            )
            .into_iter()
            .find_map(|(_, m)| match m {
                Message::StateSnapshot {
                    seq,
                    digest,
                    snapshot,
                    ..
                } => Some((seq, digest, snapshot)),
                _ => None,
            })
            .expect("donor answers");

        // The divergent replica: backup that executed req(99) at slot 4.
        let service = PeatsService::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        let registry = [(CLIENT_NODE, CLIENT_PID)].into_iter().collect();
        let mut div = Replica::new(
            ReplicaConfig {
                batch_cap: 1,
                max_in_flight: usize::MAX,
                checkpoint_interval: 4,
                ..ReplicaConfig::new(3, 4, 1)
            },
            service,
            registry,
        );
        for i in 1..=4u64 {
            let batch = if i == 4 { vec![req(99)] } else { vec![req(i)] };
            div.on_message(
                0,
                Message::PrePrepare {
                    view: 0,
                    seq: i,
                    requests: batch.clone(),
                },
            );
            commit_slot_with(&mut div, i, &batch, [0, 1]);
        }
        assert_eq!(div.last_exec(), 4);
        assert_ne!(div.state_digest(), donor.state_digest(), "setup: diverged");
        // 2f+1 canonical votes arrive; replica 3's own vote disagrees.
        let (seq, digest, snapshot) = canonical;
        let mut out = Vec::new();
        for r in [0u32, 1, 2] {
            out = div.on_message(
                u64::from(r),
                Message::Checkpoint {
                    seq,
                    digest,
                    replica: r,
                },
            );
        }
        assert!(
            out.iter()
                .any(|(_, m)| matches!(m, Message::FetchState { .. })),
            "a proven-diverged replica must request the canonical state"
        );
        // The canonical snapshot arrives (sender 0 attests; votes from 1, 2
        // already counted), and installs DESPITE seq == its last_exec.
        div.on_message(
            0,
            Message::StateSnapshot {
                seq,
                digest,
                snapshot,
                replica: 0,
            },
        );
        assert_eq!(div.last_exec(), 4);
        assert_eq!(div.stable_seq(), 4);
        assert_eq!(
            div.state_digest(),
            donor.state_digest(),
            "rolled back onto the canonical state"
        );
    }

    #[test]
    fn junk_checkpoint_votes_stay_bounded() {
        let mut p = mk_checkpointing_primary(4);
        // A Byzantine replica votes at 1000 distinct plausible boundaries;
        // supersession keeps only its newest.
        for i in 1..=1000u64 {
            p.on_message(
                2,
                Message::Checkpoint {
                    seq: i * 4,
                    digest: [7u8; 32],
                    replica: 2,
                },
            );
        }
        let fp = p.footprint();
        assert!(
            fp.checkpoint_votes <= 1,
            "one live vote per replica, got {}",
            fp.checkpoint_votes
        );
        // Off-interval and ancient seqs are rejected outright.
        p.on_message(
            2,
            Message::Checkpoint {
                seq: 4003,
                digest: [7u8; 32],
                replica: 2,
            },
        );
        assert!(p.footprint().checkpoint_votes <= 1);
    }

    #[test]
    fn junk_prepares_never_certify_or_trigger_view_change() {
        // The Flooder fault's junk vote: a prepare for a batchless slot at
        // seq u64::MAX. It must not certify, not trip the progress check,
        // and not poison fresh sequence-number allocation.
        let mut p = mk_primary(8, 2);
        for r in [1u32, 2, 3] {
            let out = p.on_message(
                u64::from(r),
                Message::Prepare {
                    view: 0,
                    seq: u64::MAX,
                    digest: [0u8; 32],
                    replica: r,
                },
            );
            assert!(out
                .iter()
                .all(|(_, m)| !matches!(m, Message::Commit { .. })));
        }
        assert!(p.on_progress_timeout().is_empty());
        // A real request still gets an ordinary low sequence number.
        let out = p.on_message(CLIENT_NODE, Message::Request(req(1)));
        assert_eq!(pre_prepares(&out), vec![(1, vec![req(1)])]);
    }

    fn read_request(req_id: u64, op: OpCall<'static>) -> Message {
        Message::ReadRequest {
            client: CLIENT_PID,
            req_id,
            op,
            watermark: 0,
        }
    }

    #[test]
    fn read_request_is_answered_from_executed_state() {
        use peats_tuplespace::template;
        let mut p = mk_primary(8, 1);
        p.on_message(CLIENT_NODE, Message::Request(req(1)));
        commit_slot(&mut p, 1, &[req(1)]);
        let out = p.on_message(
            CLIENT_NODE,
            read_request(50, OpCall::rdp(template!["T", 1i64])),
        );
        let [(
            dest,
            Message::ReadReply {
                req_id,
                seq,
                digest,
                result,
                replica,
            },
        )] = &out[..]
        else {
            panic!("expected exactly one ReadReply, got {out:?}");
        };
        assert_eq!(*dest, Dest::Client(CLIENT_NODE));
        assert_eq!((*req_id, *seq, *replica), (50, 1, 0));
        assert_eq!(*result, OpResult::Tuple(Some(tuple!["T", 1i64])));
        assert_eq!(*digest, result.digest());
    }

    #[test]
    fn fast_reads_leave_no_serving_state() {
        // Satellite 3: fast-read serving is stateless. A flood of reads
        // must leave the replica's footprint, reply cache, and service
        // state digest exactly where they were — replica memory cannot be
        // grown by (or diverge under) read traffic.
        use peats_tuplespace::template;
        let mut p = mk_primary(8, 1);
        p.on_message(CLIENT_NODE, Message::Request(req(1)));
        commit_slot(&mut p, 1, &[req(1)]);
        let footprint = p.footprint();
        let digest = p.state_digest();
        for i in 0..1_000u64 {
            let op = match i % 3 {
                0 => OpCall::rdp(template!["T", ?x]),
                1 => OpCall::rd(template!["T", ?x]),
                _ => OpCall::count(template!["T", ?x]),
            };
            let out = p.on_message(CLIENT_NODE, read_request(1_000 + i, op));
            assert_eq!(out.len(), 1, "each read gets exactly one reply");
        }
        assert_eq!(p.footprint(), footprint, "reads must not grow any store");
        assert_eq!(p.state_digest(), digest, "reads must not mutate state");
        assert_eq!(p.last_exec(), 1, "reads must not advance execution");
    }

    #[test]
    fn read_requests_refuse_mutations_and_strangers() {
        use peats_tuplespace::template;
        let mut p = mk_primary(8, 1);
        // A mutating op smuggled into a ReadRequest is dropped, not
        // executed: the space must stay empty.
        let out = p.on_message(
            CLIENT_NODE,
            read_request(1, OpCall::out(tuple!["SMUGGLED"])),
        );
        assert!(out.is_empty(), "mutating fast read must be dropped");
        let out = p.on_message(
            CLIENT_NODE,
            read_request(2, OpCall::rdp(template!["SMUGGLED"])),
        );
        assert!(
            matches!(
                &out[..],
                [(
                    _,
                    Message::ReadReply {
                        result: OpResult::Tuple(None),
                        ..
                    }
                )]
            ),
            "{out:?}"
        );
        // An unregistered node (impersonation) is dropped entirely.
        let out = p.on_message(99, read_request(3, OpCall::rdp(template!["T", ?x])));
        assert!(out.is_empty(), "unregistered reader must be dropped");
    }

    /// A primary (one request per slot, two slots in flight) logging to a
    /// fresh temp dir.
    fn mk_durable_primary(tag: &str) -> (Replica, std::path::PathBuf) {
        let dir = crate::wal::fresh_dir(tag);
        let (store, recovery) = DurableStore::open(&dir, Default::default()).unwrap();
        let mut p = mk_primary(1, 2);
        p.restore_durable(store, recovery);
        (p, dir)
    }

    #[test]
    fn a_pass_of_two_slots_appends_twice_and_syncs_once() {
        let (mut p, dir) = mk_durable_primary("pass");
        p.step(CLIENT_NODE, Message::Request(req(1)));
        p.step(CLIENT_NODE, Message::Request(req(2)));
        let out1 = commit_slot_via(&mut p, 1, &[req(1)], [1, 2], Replica::step);
        // The committing step hands back the reply with nothing synced yet:
        // holding it until the sync is the caller's half of the contract.
        assert_eq!(reply_ids(&out1), vec![1]);
        assert_eq!((p.footprint().wal_appends, p.footprint().wal_syncs), (1, 0));
        let out2 = commit_slot_via(&mut p, 2, &[req(2)], [1, 2], Replica::step);
        assert_eq!(reply_ids(&out2), vec![2]);
        assert_eq!((p.footprint().wal_appends, p.footprint().wal_syncs), (2, 0));
        p.sync();
        assert_eq!((p.footprint().wal_appends, p.footprint().wal_syncs), (2, 1));
        p.sync();
        assert_eq!(
            p.footprint().wal_syncs,
            1,
            "a clean log has nothing to sync"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn on_message_syncs_what_it_executed_before_returning() {
        let (mut p, dir) = mk_durable_primary("one");
        p.on_message(CLIENT_NODE, Message::Request(req(1)));
        assert_eq!(p.footprint().wal_syncs, 0, "nothing executed yet");
        let out = commit_slot(&mut p, 1, &[req(1)]);
        assert_eq!(reply_ids(&out), vec![1]);
        assert_eq!((p.footprint().wal_appends, p.footprint().wal_syncs), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
