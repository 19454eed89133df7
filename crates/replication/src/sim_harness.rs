//! Deterministic simulation harness: a full Fig. 2 deployment (replicas +
//! clients + authenticated links) inside `peats-netsim`.
//!
//! Node numbering: replicas occupy nodes `0..n`; client `i` occupies node
//! `n + i`. Every message on the wire is a MAC-sealed [`Sealed`] envelope;
//! replicas drop anything that fails authentication, which is what stops a
//! Byzantine client from impersonating a correct process (§2.1).
//!
//! Frames are sealed and opened by the runtime's own code
//! ([`seal_outputs`], [`Sealed::open_bytes`]) and replies are classified
//! by the envelope the runtime handle routes, so only the driving differs
//! from `replica_main`: simulated time instead of threads, and clients
//! that are step-driven sessions instead of handles.

use crate::client::{BlockingPoll, BlockingSession, ClientSession, ReadPoll, ReadSession};
use crate::faults::{FaultMode, Faulty};
use crate::messages::{Message, OpResult, ReplicaId, Sealed, Seq, WaitKind};
use crate::replica::{Dest, Replica, ReplicaConfig};
use crate::runtime::{seal_outputs, Node, ReplyEnvelope};
use crate::service::PeatsService;
use peats_auth::KeyTable;
use peats_codec::Encode;
use peats_netsim::{Actor, Context, NetConfig, NodeId, SimNet};
use peats_policy::{OpCall, Policy, PolicyParams};
use peats_tuplespace::Template;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Timer token used by replica actors for the progress/view-change check.
const PROGRESS_TIMER: u64 = 1;
/// Simulated time between progress checks.
const PROGRESS_PERIOD: u64 = 4_000;

struct ReplicaActor {
    node: Rc<RefCell<Faulty>>,
    keys: KeyTable,
    n_replicas: usize,
    last_seen_exec: u64,
}

impl ReplicaActor {
    fn ship(&self, ctx: &mut Context<'_>, outputs: Vec<(Dest, Message)>) {
        for (to, frame) in seal_outputs(&self.keys, self.n_replicas, outputs) {
            ctx.send(to, frame);
        }
    }
}

impl Actor for ReplicaActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(PROGRESS_PERIOD, PROGRESS_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: &[u8]) {
        let Some((sender, msg)) = Sealed::open_bytes(&self.keys, payload) else {
            return; // garbage or bad MAC: drop
        };
        let outputs = {
            let mut node = self.node.borrow_mut();
            let outputs = node.step(sender, msg);
            node.sync();
            outputs
        };
        self.ship(ctx, outputs);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != PROGRESS_TIMER {
            return;
        }
        let outputs = self
            .node
            .borrow_mut()
            .check_progress(&mut self.last_seen_exec);
        self.ship(ctx, outputs);
        ctx.set_timer(PROGRESS_PERIOD, PROGRESS_TIMER);
    }
}

/// The replies a simulated client received, in arrival order: ordered
/// replies and pushed wakes as [`ReplyEnvelope::Ordered`], fast-read
/// answers as [`ReplyEnvelope::Fast`] — what the runtime handle routes.
type ReplyLog = Rc<RefCell<Vec<ReplyEnvelope>>>;

struct ClientActor {
    keys: KeyTable,
    replies: ReplyLog,
}

impl Actor for ClientActor {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, payload: &[u8]) {
        let opened = Sealed::open_bytes(&self.keys, payload);
        if let Some(reply) = opened.and_then(|(_, msg)| ReplyEnvelope::of(msg)) {
            self.replies.borrow_mut().push(reply);
        }
    }
}

struct ClientSlot {
    node: NodeId,
    pid: u64,
    keys: KeyTable,
    replies: ReplyLog,
    next_req_id: u64,
    /// Highest quorum-backed seq this client has observed (mirrors the
    /// runtime handle's read watermark).
    watermark: Seq,
}

/// Outcome of one simulated fast-read round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FastRead {
    /// `f+1` replicas agreed at `seq ≥` the round's watermark.
    Accepted {
        /// Execution point the quorum answered at.
        seq: Seq,
        /// The agreed result.
        result: OpResult,
    },
    /// All replicas answered, no fresh quorum formed — the client must
    /// fall back to the ordered path.
    NoQuorum,
    /// The step budget ran out without a decision.
    Timeout,
}

/// A simulated replicated-PEATS deployment.
///
/// # Examples
///
/// ```
/// use peats_replication::sim_harness::SimCluster;
/// use peats_policy::{OpCall, Policy, PolicyParams};
/// use peats_netsim::NetConfig;
/// use peats_tuplespace::tuple;
///
/// let mut cluster = SimCluster::new(
///     Policy::allow_all(), PolicyParams::new(), 1, &[100], NetConfig::default());
/// let result = cluster.invoke(0, OpCall::out(tuple!["hello"])).expect("replied");
/// # let _ = result;
/// ```
pub struct SimCluster {
    net: SimNet,
    replicas: Vec<Rc<RefCell<Faulty>>>,
    clients: Vec<ClientSlot>,
    f: usize,
    step_budget: u64,
}

impl SimCluster {
    /// Builds `3f+1` replicas hosting a PEATS with `policy`/`params`, plus
    /// one client per entry of `client_pids` (the logical process ids the
    /// reference monitor will see).
    ///
    /// # Panics
    ///
    /// Panics if the policy parameters are inconsistent (a deployment-time
    /// configuration error).
    pub fn new(
        policy: Policy,
        params: PolicyParams,
        f: usize,
        client_pids: &[u64],
        config: NetConfig,
    ) -> Self {
        let n = 3 * f + 1;
        Self::new_with(policy, params, f, client_pids, config, |id| {
            ReplicaConfig::new(id, n, f)
        })
    }

    /// [`SimCluster::new`] with per-replica configuration (tests tune the
    /// batching window and checkpoint interval).
    ///
    /// # Panics
    ///
    /// Panics if the policy parameters are inconsistent (a deployment-time
    /// configuration error).
    pub fn new_with(
        policy: Policy,
        params: PolicyParams,
        f: usize,
        client_pids: &[u64],
        config: NetConfig,
        mk_cfg: impl Fn(ReplicaId) -> ReplicaConfig,
    ) -> Self {
        let n_replicas = 3 * f + 1;
        let master = b"peats-deployment-master".to_vec();
        let mut net = SimNet::new(config);

        let registry: BTreeMap<u64, u64> = client_pids
            .iter()
            .enumerate()
            .map(|(i, pid)| ((n_replicas + i) as u64, *pid))
            .collect();

        let mut replicas = Vec::new();
        for id in 0..n_replicas {
            let service = PeatsService::new(policy.clone(), params.clone())
                .expect("policy parameters are consistent");
            let replica = Replica::new(mk_cfg(id as ReplicaId), service, registry.clone());
            let node = Rc::new(RefCell::new(Faulty::new(replica)));
            replicas.push(Rc::clone(&node));
            net.add_node(Box::new(ReplicaActor {
                node,
                keys: KeyTable::new(id as u64, master.clone()),
                n_replicas,
                last_seen_exec: 0,
            }));
        }

        let mut clients = Vec::new();
        for (i, pid) in client_pids.iter().enumerate() {
            let node_id = (n_replicas + i) as u64;
            let replies: ReplyLog = Rc::new(RefCell::new(Vec::new()));
            let keys = KeyTable::new(node_id, master.clone());
            let node = net.add_node(Box::new(ClientActor {
                keys: keys.clone(),
                replies: Rc::clone(&replies),
            }));
            clients.push(ClientSlot {
                node,
                pid: *pid,
                keys,
                replies,
                next_req_id: 0,
                watermark: 0,
            });
        }

        SimCluster {
            net,
            replicas,
            clients,
            f,
            step_budget: 200_000,
        }
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Injects a fault mode into replica `id`.
    pub fn set_fault(&mut self, id: ReplicaId, fault: FaultMode) {
        self.replicas[id as usize].borrow_mut().fault = fault;
    }

    /// The view each replica currently sits in.
    pub fn views(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.borrow().replica.view())
            .collect()
    }

    /// State digests of all replicas (divergence check).
    pub fn state_digests(&self) -> Vec<peats_auth::Digest> {
        self.replicas
            .iter()
            .map(|r| r.borrow().replica.state_digest())
            .collect()
    }

    /// Each replica's last executed sequence number.
    pub fn last_execs(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.borrow().replica.last_exec())
            .collect()
    }

    /// Each replica's stable checkpoint.
    pub fn stable_seqs(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.borrow().replica.stable_seq())
            .collect()
    }

    /// Each replica's memory footprint (bounded-memory assertions).
    pub fn footprints(&self) -> Vec<crate::replica::ReplicaFootprint> {
        self.replicas
            .iter()
            .map(|r| r.borrow().replica.footprint())
            .collect()
    }

    /// Steps the simulation up to `steps` times with no client activity —
    /// lets trailing protocol traffic (commit votes to stragglers,
    /// checkpoint exchanges, state transfer) drain before an assertion
    /// about replica state.
    pub fn settle(&mut self, steps: u64) {
        for _ in 0..steps {
            if !self.net.step() {
                break;
            }
        }
    }

    /// Invokes `op` from client `client_idx`; runs the simulation until the
    /// client accepts a result (`f+1` matching replies) or the step budget
    /// runs out (`None` — e.g. when too many replicas are faulty).
    pub fn invoke(&mut self, client_idx: usize, op: OpCall<'static>) -> Option<OpResult> {
        self.invoke_many(vec![(client_idx, op)]).pop().flatten()
    }

    /// Injects every request up-front — all concurrently in flight, so the
    /// primary orders them through its batching/pipelining window — and
    /// runs the simulation until every client accepted a result or the
    /// step budget runs out. Returns one result per input, in input order.
    pub fn invoke_many(&mut self, ops: Vec<(usize, OpCall<'static>)>) -> Vec<Option<OpResult>> {
        type Decided = Option<(Seq, OpResult)>;
        let mut sessions: Vec<(usize, ClientSession, Decided)> = Vec::new();
        for (client_idx, op) in ops {
            let c = &mut self.clients[client_idx];
            c.next_req_id += 1;
            c.replies.borrow_mut().clear();
            let session = ClientSession::new(c.pid, c.next_req_id, op, self.f);
            sessions.push((client_idx, session, None));
        }

        let broadcast = |cluster: &mut SimCluster, sessions: &[(usize, ClientSession, Decided)]| {
            for (client_idx, session, decided) in sessions {
                if decided.is_some() {
                    continue;
                }
                cluster.broadcast(*client_idx, &session.request_message());
            }
        };
        broadcast(self, &sessions);

        let mut steps = 0u64;
        let mut next_retransmit = 20_000u64;
        while steps < self.step_budget && sessions.iter().any(|(_, _, d)| d.is_none()) {
            if !self.net.step() {
                // Queue drained: retransmit (messages may have been
                // dropped).
                broadcast(self, &sessions);
            }
            steps += 1;
            if steps == next_retransmit {
                broadcast(self, &sessions);
                next_retransmit += 20_000;
            }
            let client_ids: Vec<usize> = sessions.iter().map(|(c, _, _)| *c).collect();
            for client_idx in client_ids {
                for reply in self.take_replies(client_idx) {
                    let Some((replica, rid, seq, result)) = reply.ordered() else {
                        continue; // late fast-read replies: not ours
                    };
                    // `on_reply` ignores foreign req_ids, so feeding every
                    // session of this client is safe.
                    for (idx, session, decided) in sessions.iter_mut() {
                        if *idx != client_idx || decided.is_some() {
                            continue;
                        }
                        if let Some(pair) = session.on_reply(replica, rid, seq, result.clone()) {
                            *decided = Some(pair);
                        }
                    }
                }
            }
        }
        // Accepted (quorum-backed) seqs advance the clients' read
        // watermarks — the fast path's read-your-writes anchor.
        for (client_idx, _, decided) in &sessions {
            if let Some((seq, _)) = decided {
                let w = &mut self.clients[*client_idx].watermark;
                *w = (*w).max(*seq);
            }
        }
        sessions
            .into_iter()
            .map(|(_, _, d)| d.map(|(_, r)| r))
            .collect()
    }

    /// Takes every reply client `client_idx` has received so far.
    fn take_replies(&self, client_idx: usize) -> Vec<ReplyEnvelope> {
        std::mem::take(&mut *self.clients[client_idx].replies.borrow_mut())
    }

    /// The client's current read watermark.
    pub fn watermark(&self, client_idx: usize) -> Seq {
        self.clients[client_idx].watermark
    }

    /// One fast-read round from `client_idx` at its current watermark.
    /// Accepted reads advance the watermark (monotonic reads).
    pub fn try_fast_read(&mut self, client_idx: usize, op: OpCall<'static>) -> FastRead {
        let watermark = self.clients[client_idx].watermark;
        self.try_fast_read_with_watermark(client_idx, op, watermark)
    }

    /// One fast-read round with an explicit watermark — tests inflate it to
    /// force every reply stale and prove the ordered fallback engages.
    pub fn try_fast_read_with_watermark(
        &mut self,
        client_idx: usize,
        op: OpCall<'static>,
        watermark: Seq,
    ) -> FastRead {
        let n_replicas = self.replicas.len();
        let (req_id, msg) = {
            let c = &mut self.clients[client_idx];
            c.next_req_id += 1;
            c.replies.borrow_mut().clear();
            (
                c.next_req_id,
                Message::ReadRequest {
                    client: c.pid,
                    req_id: c.next_req_id,
                    op,
                    watermark,
                },
            )
        };
        let mut session = ReadSession::new(req_id, watermark, self.f, n_replicas);
        self.broadcast(client_idx, &msg);
        let mut steps = 0u64;
        while steps < self.step_budget {
            let live = self.net.step();
            steps += 1;
            for reply in self.take_replies(client_idx) {
                let ReplyEnvelope::Fast {
                    replica,
                    req_id: rid,
                    seq,
                    digest,
                    result,
                } = reply
                else {
                    continue;
                };
                match session.on_read_reply(replica, rid, seq, digest, result) {
                    ReadPoll::Accepted { seq, result } => {
                        let w = &mut self.clients[client_idx].watermark;
                        *w = (*w).max(seq);
                        return FastRead::Accepted { seq, result };
                    }
                    ReadPoll::NoQuorum => return FastRead::NoQuorum,
                    ReadPoll::Pending => {}
                }
            }
            if !live {
                break; // network drained without a quorum
            }
        }
        FastRead::Timeout
    }

    /// Read-only invocation mirroring the runtime handle: fast path first,
    /// ordered fallback on `NoQuorum`/timeout.
    pub fn invoke_read(&mut self, client_idx: usize, op: OpCall<'static>) -> Option<OpResult> {
        match self.try_fast_read(client_idx, op.clone()) {
            FastRead::Accepted { result, .. } => Some(result),
            FastRead::NoQuorum | FastRead::Timeout => self.invoke(client_idx, op),
        }
    }

    /// Injects `msg` from `client_idx` to every replica: encoded once,
    /// MAC'd per recipient (as `ReplicatedPeats::broadcast` does).
    fn broadcast(&mut self, client_idx: usize, msg: &Message) {
        let body = msg.to_bytes();
        let c = &self.clients[client_idx];
        for r in 0..self.replicas.len() as NodeId {
            let frame = Sealed::frame(&c.keys, u64::from(r), &body);
            self.net.inject(c.node, r, frame);
        }
    }

    /// Broadcasts an ordered `Register` from `client_idx` and runs the
    /// simulation until `f+1` replicas acknowledge the park (returning the
    /// in-flight block) or the call decides immediately against a tuple
    /// already in the space (returning `Some(result)` alongside it).
    ///
    /// # Panics
    ///
    /// Panics if the registration is neither acknowledged nor decided
    /// within the step budget.
    pub fn begin_blocking(
        &mut self,
        client_idx: usize,
        template: Template,
        kind: WaitKind,
    ) -> (SimBlocked, Option<OpResult>) {
        let c = &mut self.clients[client_idx];
        c.next_req_id += 1;
        c.replies.borrow_mut().clear();
        let mut session = BlockingSession::new(c.pid, c.next_req_id, template, kind, false, self.f);
        self.broadcast(client_idx, &session.request_message());
        let mut steps = 0u64;
        while steps < self.step_budget {
            if !self.net.step() {
                self.broadcast(client_idx, &session.request_message());
            }
            steps += 1;
            for reply in self.take_replies(client_idx) {
                let Some((replica, req_id, seq, result)) = reply.ordered() else {
                    continue;
                };
                match session.on_reply(replica, req_id, seq, result) {
                    BlockingPoll::Decided(_, result) => {
                        return (
                            SimBlocked {
                                client_idx,
                                session,
                            },
                            Some(result),
                        )
                    }
                    BlockingPoll::Parked(_) => {
                        return (
                            SimBlocked {
                                client_idx,
                                session,
                            },
                            None,
                        )
                    }
                    BlockingPoll::Pending => {}
                }
            }
        }
        panic!("registration was neither acknowledged nor decided within the step budget");
    }

    /// Runs the simulation feeding the blocked client's pushed wakes into
    /// its session until the invoke decides or `budget` steps elapse
    /// (`None`: still blocked — which is the *correct* outcome while no
    /// matching tuple has been written and forged wakes are in flight).
    pub fn pump_blocked(&mut self, blocked: &mut SimBlocked, budget: u64) -> Option<OpResult> {
        let mut steps = 0u64;
        loop {
            for reply in self.take_replies(blocked.client_idx) {
                let Some((replica, req_id, seq, result)) = reply.ordered() else {
                    continue;
                };
                if let BlockingPoll::Decided(_, result) =
                    blocked.session.on_reply(replica, req_id, seq, result)
                {
                    return Some(result);
                }
            }
            if steps >= budget {
                return None;
            }
            self.net.step();
            steps += 1;
        }
    }
}

/// An in-flight blocked `rd`/`take` at a simulated client: the ordered
/// `Register` committed and `f+1` replicas confirmed the park. Feed it to
/// [`SimCluster::pump_blocked`] to collect the pushed wakes.
pub struct SimBlocked {
    client_idx: usize,
    session: BlockingSession,
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster")
            .field("replicas", &self.replicas.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats_tuplespace::{template, tuple};

    fn cluster(f: usize, clients: &[u64]) -> SimCluster {
        SimCluster::new(
            Policy::allow_all(),
            PolicyParams::new(),
            f,
            clients,
            NetConfig::default(),
        )
    }

    #[test]
    fn out_then_rdp_roundtrip() {
        let mut c = cluster(1, &[100]);
        assert_eq!(
            c.invoke(0, OpCall::out(tuple!["A", 1])),
            Some(OpResult::Done)
        );
        assert_eq!(
            c.invoke(0, OpCall::rdp(template!["A", ?x])),
            Some(OpResult::Tuple(Some(tuple!["A", 1])))
        );
        // All replicas converged to the same state.
        let digests = c.state_digests();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cas_is_exclusive_across_clients() {
        let mut c = cluster(1, &[100, 101]);
        let op = |v: i64| OpCall::cas(template!["D", ?x], tuple!["D", v]);
        let r1 = c.invoke(0, op(1)).unwrap();
        let r2 = c.invoke(1, op(2)).unwrap();
        assert_eq!(
            r1,
            OpResult::Cas {
                inserted: true,
                found: None
            }
        );
        assert_eq!(
            r2,
            OpResult::Cas {
                inserted: false,
                found: Some(tuple!["D", 1])
            }
        );
    }

    #[test]
    fn crashed_replica_does_not_block_progress() {
        let mut c = cluster(1, &[100]);
        c.set_fault(3, FaultMode::Crashed);
        assert_eq!(c.invoke(0, OpCall::out(tuple!["A"])), Some(OpResult::Done));
    }

    #[test]
    fn corrupt_replies_are_outvoted() {
        let mut c = cluster(1, &[100]);
        c.set_fault(2, FaultMode::CorruptReplies);
        assert_eq!(c.invoke(0, OpCall::out(tuple!["A"])), Some(OpResult::Done));
    }

    #[test]
    fn pipelined_requests_batch_and_all_complete() {
        // Six requests in flight at once from two clients: the primary's
        // window forces batching, every request must still decide, and the
        // replicas must converge.
        let mut c = cluster(1, &[100, 101]);
        let ops: Vec<(usize, OpCall<'static>)> = (0..6i64)
            .map(|i| ((i % 2) as usize, OpCall::out(tuple!["B", i])))
            .collect();
        let results = c.invoke_many(ops);
        assert_eq!(results, vec![Some(OpResult::Done); 6]);
        let digests = c.state_digests();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
        // All six tuples are actually in the space.
        for i in 0..6i64 {
            assert_eq!(
                c.invoke(0, OpCall::rdp(template!["B", i])),
                Some(OpResult::Tuple(Some(tuple!["B", i])))
            );
        }
    }

    #[test]
    fn batched_requests_survive_view_change() {
        // Crashed primary with a backlog of concurrent requests: the view
        // change must re-order the pending batches under the new primary
        // without losing or double-executing any request.
        let mut c = cluster(1, &[100, 101]);
        c.set_fault(0, FaultMode::Crashed); // primary of view 0
        let ops: Vec<(usize, OpCall<'static>)> = (0..6i64)
            .map(|i| ((i % 2) as usize, OpCall::out(tuple!["V", i])))
            .collect();
        let results = c.invoke_many(ops);
        assert_eq!(results, vec![Some(OpResult::Done); 6]);
        assert!(c.views().iter().any(|v| *v > 0), "views: {:?}", c.views());
        // A 2f+1 quorum of correct replicas share the post-recovery state.
        let digests = c.state_digests();
        let max_agree = digests
            .iter()
            .map(|d| digests.iter().filter(|e| *e == d).count())
            .max()
            .unwrap();
        assert!(max_agree >= 3, "no 2f+1 quorum shares a state digest");
        for i in 0..6i64 {
            assert_eq!(
                c.invoke(1, OpCall::rdp(template!["V", i])),
                Some(OpResult::Tuple(Some(tuple!["V", i])))
            );
        }
    }

    #[test]
    fn crashed_primary_triggers_view_change() {
        let mut c = cluster(1, &[100]);
        c.set_fault(0, FaultMode::Crashed); // primary of view 0
        assert_eq!(c.invoke(0, OpCall::out(tuple!["A"])), Some(OpResult::Done));
        // Some correct replica moved past view 0.
        assert!(c.views().iter().any(|v| *v > 0), "views: {:?}", c.views());
    }

    #[test]
    fn two_consecutive_crashed_primaries_still_commit() {
        // Primaries of views 0 AND 1 are crashed (f = 2, so n = 7 tolerates
        // both). Replicas first vote view 1; when its primary never forms
        // it, repeated timeouts must escalate to view 2 — re-voting view 1
        // forever was the wedge this regression test pins.
        let mut c = cluster(2, &[100]);
        c.set_fault(0, FaultMode::Crashed);
        c.set_fault(1, FaultMode::Crashed);
        assert_eq!(c.invoke(0, OpCall::out(tuple!["E"])), Some(OpResult::Done));
        assert!(
            c.views().iter().any(|v| *v >= 2),
            "the cluster must move past the second crashed primary: {:?}",
            c.views()
        );
        assert_eq!(
            c.invoke(0, OpCall::rdp(template!["E"])),
            Some(OpResult::Tuple(Some(tuple!["E"])))
        );
    }

    fn checkpointing_cluster(
        f: usize,
        clients: &[u64],
        interval: u64,
        batch_cap: usize,
    ) -> SimCluster {
        let n = 3 * f + 1;
        SimCluster::new_with(
            Policy::allow_all(),
            PolicyParams::new(),
            f,
            clients,
            NetConfig::default(),
            move |id| ReplicaConfig {
                batch_cap,
                max_in_flight: 2,
                checkpoint_interval: interval,
                ..ReplicaConfig::new(id, n, f)
            },
        )
    }

    #[test]
    fn sustained_traffic_keeps_replica_memory_bounded() {
        // N ≫ checkpoint interval requests: every replica's slot log,
        // ordering hints, and vote stores must stay bounded by the interval
        // plus the in-flight window — not grow with the run.
        let interval = 4u64;
        let (batch_cap, in_flight) = (2usize, 2u64);
        let mut c = checkpointing_cluster(1, &[100, 101], interval, batch_cap);
        let rounds = 40;
        for r in 0..rounds {
            let ops: Vec<(usize, OpCall<'static>)> = (0..4i64)
                .map(|i| ((i % 2) as usize, OpCall::out(tuple!["L", r, i])))
                .collect();
            let results = c.invoke_many(ops);
            assert!(results.iter().all(|r| r.is_some()), "round {r} stalled");
        }
        c.settle(50_000);
        let slot_bound = (interval + in_flight) as usize * 2;
        for (id, fp) in c.footprints().into_iter().enumerate() {
            assert!(
                fp.slots <= slot_bound,
                "replica {id} retains {} slots after 160 requests (bound {slot_bound})",
                fp.slots
            );
            assert!(
                fp.ordered <= slot_bound * batch_cap,
                "replica {id} retains {} ordering hints (bound {})",
                fp.ordered,
                slot_bound * batch_cap
            );
            assert!(
                fp.max_replies_per_client <= 64,
                "replica {id} reply retention leaked: {}",
                fp.max_replies_per_client
            );
            assert!(
                fp.checkpoint_votes <= c.n_replicas(),
                "replica {id} checkpoint votes leaked: {}",
                fp.checkpoint_votes
            );
        }
        let stables = c.stable_seqs();
        let execs = c.last_execs();
        for id in 0..c.n_replicas() {
            assert!(
                stables[id] + slot_bound as u64 >= execs[id],
                "replica {id} stable checkpoint {} lags execution {}",
                stables[id],
                execs[id]
            );
        }
    }

    #[test]
    fn crashed_replica_rejoins_via_state_transfer_after_gc() {
        // Replica 3 sleeps through enough traffic that the history it
        // missed is garbage-collected cluster-wide. On waking it cannot
        // replay pruned slots; only a snapshot install can move its
        // last_exec — which is exactly what must happen.
        let interval = 2u64;
        let mut c = checkpointing_cluster(1, &[100], interval, 4);
        c.set_fault(3, FaultMode::Crashed);
        for i in 0..12i64 {
            assert_eq!(
                c.invoke(0, OpCall::out(tuple!["H", i])),
                Some(OpResult::Done)
            );
        }
        c.settle(50_000);
        let stable_while_down = c.stable_seqs()[0];
        assert!(
            stable_while_down > 0,
            "healthy replicas must stabilize while 3 is down"
        );
        assert_eq!(c.last_execs()[3], 0, "crashed replica executed nothing");

        c.set_fault(3, FaultMode::Correct);
        // Fresh traffic crosses new checkpoint boundaries; their broadcast
        // votes are what tells replica 3 it fell behind a stable
        // checkpoint, triggering FetchState → StateSnapshot.
        for i in 0..8i64 {
            assert_eq!(
                c.invoke(0, OpCall::out(tuple!["R", i])),
                Some(OpResult::Done)
            );
        }
        c.settle(100_000);
        let execs = c.last_execs();
        assert!(
            execs[3] >= stable_while_down,
            "rejoined replica must adopt a checkpoint past the pruned history: {execs:?}"
        );
        assert!(
            c.stable_seqs()[3] >= stable_while_down,
            "rejoined replica must hold a stable checkpoint of its own"
        );
        // And its service state must agree with the quorum.
        let digests = c.state_digests();
        let agree = digests.iter().filter(|d| **d == digests[3]).count();
        assert!(
            agree >= 3,
            "restored replica must share the quorum state (agree={agree})"
        );
    }

    #[test]
    fn lossy_network_still_completes() {
        let mut c = SimCluster::new(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            NetConfig {
                drop_probability: 0.05,
                ..NetConfig::default()
            },
        );
        assert_eq!(c.invoke(0, OpCall::out(tuple!["A"])), Some(OpResult::Done));
    }

    #[test]
    fn registration_survives_a_view_change_mid_block() {
        // The registration table is replicated state: a waiter parked in
        // view 0 must still be woken by an `out` that commits under the
        // view-1 primary after the original primary crashes mid-block.
        let mut c = cluster(1, &[100, 101]);
        let (mut blocked, immediate) = c.begin_blocking(0, template!["VC", ?x], WaitKind::Rd);
        assert_eq!(immediate, None, "nothing to match yet: the rd must park");
        c.set_fault(0, FaultMode::Crashed); // primary of view 0
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["VC", 7])),
            Some(OpResult::Done)
        );
        assert!(c.views().iter().any(|v| *v > 0), "views: {:?}", c.views());
        assert_eq!(
            c.pump_blocked(&mut blocked, 50_000),
            Some(OpResult::Tuple(Some(tuple!["VC", 7]))),
            "the new view's commits must wake the view-0 waiter"
        );
    }

    #[test]
    fn rejoined_replica_wakes_a_waiter_it_never_saw_register() {
        // Replica 3 sleeps through a waiter's registration AND the
        // checkpoint that garbage-collects the Register's slot, so the only
        // way it can learn about the waiter is the snapshot's registration
        // table. The fault pattern afterwards (one crashed original, one
        // reply-corrupting original) leaves exactly two honest wake
        // sources — one of which is the rejoined replica — so the blocked
        // invoke completes only if the snapshot carried the registration.
        let interval = 2u64;
        let mut c = checkpointing_cluster(1, &[100, 101], interval, 4);
        c.set_fault(3, FaultMode::Crashed);
        let (mut blocked, immediate) = c.begin_blocking(0, template!["XFER", ?x], WaitKind::Rd);
        assert_eq!(immediate, None);
        // Unrelated traffic crosses checkpoint boundaries; the Register's
        // slot is pruned cluster-wide.
        for i in 0..12i64 {
            assert_eq!(
                c.invoke(1, OpCall::out(tuple!["NOISE", i])),
                Some(OpResult::Done)
            );
        }
        c.settle(50_000);
        assert!(c.stable_seqs()[0] > 0, "history must have been GC'd");
        assert_eq!(c.last_execs()[3], 0, "replica 3 slept through it all");

        c.set_fault(3, FaultMode::Correct);
        for i in 0..8i64 {
            assert_eq!(
                c.invoke(1, OpCall::out(tuple!["NOISE2", i])),
                Some(OpResult::Done)
            );
        }
        c.settle(100_000);
        let fp = c.footprints();
        assert_eq!(
            fp[3].registrations, 1,
            "the snapshot must have carried the registration table"
        );

        // Only replicas 0 and 3 now send honest wakes: the waiter's f+1
        // quorum *requires* the snapshot-restored replica's wake.
        c.set_fault(1, FaultMode::CorruptReplies);
        c.set_fault(2, FaultMode::Crashed);
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["XFER", 9])),
            Some(OpResult::Done)
        );
        assert_eq!(
            c.pump_blocked(&mut blocked, 100_000),
            Some(OpResult::Tuple(Some(tuple!["XFER", 9]))),
            "the rejoined replica's wake must complete the quorum"
        );
    }

    #[test]
    fn forged_wakes_cannot_complete_a_blocked_invoke() {
        // A reply-corrupting replica attaches a forged Wake (absurd seq,
        // fabricated result) to everything it sends. One faulty replica is
        // below the f+1 vote threshold, so the waiter must stay blocked
        // until a *committed* matching write produces an honest quorum —
        // and must then decide on the true tuple, not the forgery.
        let mut c = cluster(1, &[100, 101]);
        c.set_fault(1, FaultMode::CorruptReplies);
        let (mut blocked, immediate) = c.begin_blocking(0, template!["FORGE", ?x], WaitKind::Take);
        assert_eq!(immediate, None);
        // Unrelated traffic makes the corrupt replica chatter (every reply
        // it owes anyone is accompanied by a forged wake).
        for i in 0..4i64 {
            assert_eq!(
                c.invoke(1, OpCall::out(tuple!["OTHER", i])),
                Some(OpResult::Done)
            );
        }
        assert_eq!(
            c.pump_blocked(&mut blocked, 30_000),
            None,
            "forged wakes alone must not complete the blocked take"
        );
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["FORGE", 1])),
            Some(OpResult::Done)
        );
        assert_eq!(
            c.pump_blocked(&mut blocked, 50_000),
            Some(OpResult::Tuple(Some(tuple!["FORGE", 1]))),
            "the honest quorum's wakes decide with the true tuple"
        );
        // The take consumed the tuple at its commit slot: it is gone from
        // the space on every correct replica.
        assert_eq!(
            c.invoke(1, OpCall::rdp(template!["FORGE", ?x])),
            Some(OpResult::Tuple(None))
        );
    }

    #[test]
    fn policy_is_enforced_at_every_replica() {
        let mut c = SimCluster::new(
            peats::policies::strong_consensus(),
            PolicyParams::n_t(2, 1),
            1,
            &[0, 1],
            NetConfig::default(),
        );
        // Client with pid 0 proposes as itself: allowed.
        let r = c.invoke(0, OpCall::out(tuple!["PROPOSE", 0u64, 1]));
        assert_eq!(r, Some(OpResult::Done));
        // Client with pid 1 tries to impersonate pid 0: denied by every
        // correct replica's reference monitor.
        let r = c.invoke(1, OpCall::out(tuple!["PROPOSE", 0u64, 0]));
        assert!(matches!(r, Some(OpResult::Denied(_))), "{r:?}");
    }
}
