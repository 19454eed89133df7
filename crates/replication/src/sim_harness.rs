//! Deterministic simulation harness: a full Fig. 2 deployment (replicas +
//! clients + authenticated links) inside `peats-netsim`.
//!
//! Node numbering: replicas occupy nodes `0..n`; client `i` occupies node
//! `n + i`. Every message on the wire is a MAC-sealed [`Sealed`] envelope;
//! replicas drop anything that fails authentication, which is what stops a
//! Byzantine client from impersonating a correct process (§2.1).
//!
//! Frames are sealed and opened by the runtime's own code
//! ([`seal_outputs`], [`Sealed::open_bytes`]), and a client runs the op
//! machines of `client.rs` that the deployed handle runs: its actor feeds
//! each reply to the op whose request it answers, and sets a timer for
//! each deadline an op asks for. So the simulated deployment differs from
//! `replica_main` and [`ReplicatedPeats`](crate::ReplicatedPeats) only in
//! its clock — simulated microseconds instead of `Instant` — and its
//! fabric.

use crate::client::{ClientConfig, ClientCore, Io, OpMachine, ReplyEnvelope};
use crate::faults::{FaultMode, Faulty};
use crate::messages::{Message, OpResult, ReplicaId, RequestOp, Sealed, Seq};
use crate::replica::{Dest, Replica, ReplicaConfig};
use crate::runtime::{seal_outputs, Node};
use crate::service::PeatsService;
use peats::SpaceResult;
use peats_auth::KeyTable;
use peats_codec::Encode;
use peats_netsim::{Actor, Context, NetConfig, NodeId, SimNet, SimTime};
use peats_policy::{OpCall, Policy, PolicyParams};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

/// What one input to an op asks of the network: frames to send, and a
/// timer to set (its delay and token).
type Effects = (Vec<(NodeId, Vec<u8>)>, Option<(SimTime, u64)>);

/// A simulated client: the core its ops share, and its op machines.
struct SimClient {
    core: ClientCore,
    keys: KeyTable,
    /// Ops in flight by first request id, each with the deadline its
    /// timer is set for.
    ops: BTreeMap<u64, (OpMachine, SimTime)>,
    outcomes: BTreeMap<u64, SpaceResult<OpResult>>,
}

impl SimClient {
    /// Feeds the op that `req_id` belongs to a reply, or else the time.
    fn feed(&mut self, req_id: u64, reply: Option<ReplyEnvelope>, now: SimTime) -> Effects {
        let mut ops = self.ops.iter_mut();
        let owner = ops.find(|(_, (op, _))| op.first_req_id() == req_id || op.req_id() == req_id);
        let Some((&first, (op, _))) = owner else {
            return Effects::default(); // late: its op is over
        };
        let at = Duration::from_micros(now);
        let io = match reply {
            Some(reply) => op.on_reply(&self.core, reply, at),
            None => op.on_deadline(&self.core, at),
        };
        self.apply(first, io, now)
    }

    /// Seals what op `first` sends, sets a timer for a new deadline, and
    /// records an outcome.
    fn apply(&mut self, first: u64, io: Io, now: SimTime) -> Effects {
        match io {
            Io::Done(outcome) => {
                self.ops.remove(&first);
                self.outcomes.insert(first, outcome);
                Effects::default()
            }
            Io::Wait { send, until } => {
                let (op, armed) = self.ops.get_mut(&first).expect("in flight");
                let until = until.as_micros() as SimTime;
                let timer = (*armed != until).then(|| {
                    *armed = until;
                    (until.saturating_sub(now), first)
                });
                let mut frames = Vec::new();
                if let Some(to) = send {
                    let body = op.message().to_bytes();
                    for r in to.map(|i| (i % self.core.n) as NodeId) {
                        frames.push((r, Sealed::frame(&self.keys, u64::from(r), &body)));
                    }
                }
                (frames, timer)
            }
        }
    }
}

struct ClientActor(Rc<RefCell<SimClient>>);

impl ClientActor {
    fn deliver(ctx: &mut Context<'_>, (frames, timer): Effects) {
        for (to, frame) in frames {
            ctx.send(to, frame);
        }
        if let Some((delay, token)) = timer {
            ctx.set_timer(delay, token);
        }
    }
}

impl Actor for ClientActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: &[u8]) {
        let mut client = self.0.borrow_mut();
        let n = client.core.n;
        let opened = Sealed::open_bytes(&client.keys, payload);
        let Some(reply) = opened.and_then(|(from, msg)| ReplyEnvelope::of(from, msg, n)) else {
            return;
        };
        let effects = client.feed(reply.req_id, Some(reply), ctx.now());
        drop(client);
        Self::deliver(ctx, effects);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let effects = self.0.borrow_mut().feed(token, None, ctx.now());
        Self::deliver(ctx, effects);
    }
}

/// An op started with `SimCluster::start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OpId {
    client: usize,
    req_id: u64,
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
    clients: Vec<Rc<RefCell<SimClient>>>,
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
            let node = (n_replicas + i) as NodeId;
            let client = Rc::new(RefCell::new(SimClient {
                core: ClientCore::new(*pid, f, n_replicas, ClientConfig::default()),
                keys: KeyTable::new(u64::from(node), master.clone()),
                ops: BTreeMap::new(),
                outcomes: BTreeMap::new(),
            }));
            net.add_node(Box::new(ClientActor(Rc::clone(&client))));
            clients.push(client);
        }

        SimCluster {
            net,
            replicas,
            clients,
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

    fn each<R>(&self, f: impl Fn(&Replica) -> R) -> Vec<R> {
        self.replicas
            .iter()
            .map(|r| f(&r.borrow().replica))
            .collect()
    }

    /// The view each replica currently sits in.
    pub fn views(&self) -> Vec<u64> {
        self.each(Replica::view)
    }

    /// State digests of all replicas (divergence check).
    pub fn state_digests(&self) -> Vec<peats_auth::Digest> {
        self.each(Replica::state_digest)
    }

    /// Each replica's last executed sequence number.
    pub fn last_execs(&self) -> Vec<u64> {
        self.each(Replica::last_exec)
    }

    /// Each replica's stable checkpoint.
    pub fn stable_seqs(&self) -> Vec<u64> {
        self.each(Replica::stable_seq)
    }

    /// Each replica's memory footprint (bounded-memory assertions).
    pub fn footprints(&self) -> Vec<crate::replica::ReplicaFootprint> {
        self.each(Replica::footprint)
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

    /// Starts the op machine `start` makes at client `client_idx`: its
    /// first messages go out now.
    pub(crate) fn start(
        &mut self,
        client_idx: usize,
        start: impl FnOnce(&ClientCore, Duration) -> (OpMachine, Io),
    ) -> OpId {
        let now = self.net.now();
        let mut client = self.clients[client_idx].borrow_mut();
        let (op, io) = start(&client.core, Duration::from_micros(now));
        let req_id = op.first_req_id();
        client.ops.insert(req_id, (op, SimTime::MAX));
        let (frames, timer) = client.apply(req_id, io, now);
        drop(client);
        let node = (self.replicas.len() + client_idx) as NodeId;
        for (to, frame) in frames {
            self.net.inject(node, to, frame);
        }
        if let Some((delay, token)) = timer {
            self.net.set_timer(node, delay, token);
        }
        OpId {
            client: client_idx,
            req_id,
        }
    }

    /// Runs the simulation until every op of `ops` has an outcome or the
    /// step budget runs out.
    pub(crate) fn run(&mut self, ops: &[OpId]) {
        let mut steps = 0u64;
        let pending = |c: &Self| ops.iter().any(|&op| c.outcome(op).is_none());
        while steps < self.step_budget && pending(self) && self.net.step() {
            steps += 1;
        }
    }

    /// The outcome of `op`, once it has one: the result `f+1` replicas
    /// agreed on, or the error the deployed handle would report.
    pub(crate) fn outcome(&self, op: OpId) -> Option<SpaceResult<OpResult>> {
        let client = self.clients[op.client].borrow();
        client.outcomes.get(&op.req_id).cloned()
    }

    /// Invokes `op` from client `client_idx` on the ordered path; runs the
    /// simulation until the client accepts a result (`f+1` matching
    /// replies) — `None` if it gives up first (e.g. when too many replicas
    /// are faulty).
    pub fn invoke(&mut self, client_idx: usize, op: OpCall<'static>) -> Option<OpResult> {
        let op = RequestOp::Call(op);
        let id = self.start(client_idx, |core, now| OpMachine::ordered(core, op, now));
        self.run(&[id]);
        self.outcome(id)?.ok()
    }

    /// Read-only invocation as the deployed handle runs it: fast path
    /// first, ordered fallback on disagreement or timeout.
    pub fn invoke_read(&mut self, client_idx: usize, op: OpCall<'static>) -> Option<OpResult> {
        let id = self.start(client_idx, |core, now| OpMachine::read(core, op, now));
        self.run(&[id]);
        self.outcome(id)?.ok()
    }

    fn core<R>(&self, client_idx: usize, f: impl FnOnce(&ClientCore) -> R) -> R {
        f(&self.clients[client_idx].borrow().core)
    }

    /// The client's current read watermark.
    pub fn watermark(&self, client_idx: usize) -> Seq {
        self.core(client_idx, ClientCore::watermark)
    }

    /// Raises the client's read watermark to `seq`, as if a quorum had
    /// acknowledged it — tests inflate it to make every reply stale.
    pub fn raise_watermark(&mut self, client_idx: usize, seq: Seq) {
        self.core(client_idx, |core| core.observe(seq));
    }

    /// Reads the client served on the fast path, and reads it fell back
    /// to the ordered path for.
    pub fn fast_reads(&self, client_idx: usize) -> (u64, u64) {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        self.core(client_idx, |c| {
            (load(&c.fast_served), load(&c.fast_read_fallbacks))
        })
    }
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
    use crate::messages::WaitKind;
    use peats::SpaceError;
    use peats_tuplespace::{template, tuple, Template};

    /// Starts a blocking op at `client` and runs until it has parked.
    fn park(c: &mut SimCluster, client: usize, template: Template, kind: WaitKind) -> OpId {
        let op = c.start(client, |core, now| {
            OpMachine::blocking(core, template, kind, now)
        });
        c.settle(1_000);
        assert_eq!(
            c.outcome(op),
            None,
            "nothing to match yet: the op must park"
        );
        op
    }

    /// Starts every op up-front — all concurrently in flight, so the
    /// primary orders them through its batching/pipelining window — and
    /// runs until each has an outcome.
    fn invoke_many(
        c: &mut SimCluster,
        ops: Vec<(usize, OpCall<'static>)>,
    ) -> Vec<Option<OpResult>> {
        let ordered =
            |op| move |core: &ClientCore, now| OpMachine::ordered(core, RequestOp::Call(op), now);
        let ids: Vec<OpId> = ops
            .into_iter()
            .map(|(i, op)| c.start(i, ordered(op)))
            .collect();
        c.run(&ids);
        ids.into_iter().map(|id| c.outcome(id)?.ok()).collect()
    }

    /// Runs until `op` has an outcome, and returns it.
    fn finish(c: &mut SimCluster, op: OpId) -> Option<SpaceResult<OpResult>> {
        c.run(&[op]);
        c.outcome(op)
    }

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
        let results = invoke_many(&mut c, ops);
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
        let results = invoke_many(&mut c, ops);
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
            let results = invoke_many(&mut c, ops);
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
        let blocked = park(&mut c, 0, template!["VC", ?x], WaitKind::Rd);
        c.set_fault(0, FaultMode::Crashed); // primary of view 0
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["VC", 7])),
            Some(OpResult::Done)
        );
        assert!(c.views().iter().any(|v| *v > 0), "views: {:?}", c.views());
        assert_eq!(
            finish(&mut c, blocked),
            Some(Ok(OpResult::Tuple(Some(tuple!["VC", 7])))),
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
        let blocked = park(&mut c, 0, template!["XFER", ?x], WaitKind::Rd);
        // Unrelated traffic crosses checkpoint boundaries; the Register's
        // slot is pruned cluster-wide.
        for i in 0..12i64 {
            assert_eq!(
                c.invoke(1, OpCall::out(tuple!["NOISE", i])),
                Some(OpResult::Done)
            );
        }
        // Short settles: past `invoke_timeout` (10 s of simulated time,
        // ~10k idle steps) the waiter would cancel its registration.
        c.settle(1_000);
        assert!(c.stable_seqs()[0] > 0, "history must have been GC'd");
        assert_eq!(c.last_execs()[3], 0, "replica 3 slept through it all");

        c.set_fault(3, FaultMode::Correct);
        for i in 0..8i64 {
            assert_eq!(
                c.invoke(1, OpCall::out(tuple!["NOISE2", i])),
                Some(OpResult::Done)
            );
        }
        c.settle(2_000);
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
            finish(&mut c, blocked),
            Some(Ok(OpResult::Tuple(Some(tuple!["XFER", 9])))),
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
        let blocked = park(&mut c, 0, template!["FORGE", ?x], WaitKind::Take);
        // Unrelated traffic makes the corrupt replica chatter (every reply
        // it owes anyone is accompanied by a forged wake).
        for i in 0..4i64 {
            assert_eq!(
                c.invoke(1, OpCall::out(tuple!["OTHER", i])),
                Some(OpResult::Done)
            );
        }
        c.settle(2_000);
        assert_eq!(
            c.outcome(blocked),
            None,
            "forged wakes alone must not complete the blocked take"
        );
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["FORGE", 1])),
            Some(OpResult::Done)
        );
        assert_eq!(
            finish(&mut c, blocked),
            Some(Ok(OpResult::Tuple(Some(tuple!["FORGE", 1])))),
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

    #[test]
    fn a_fast_read_widens_past_a_crashed_probe_replica_on_virtual_time() {
        let mut c = cluster(1, &[100]);
        assert_eq!(
            c.invoke(0, OpCall::out(tuple!["P", 1])),
            Some(OpResult::Done)
        );
        // Replica 1 sits in the first probe window, {0, 1}: the window
        // stays one answer short of f+1 until the probe times out.
        c.set_fault(1, FaultMode::Crashed);
        let start = c.net.now();
        assert_eq!(
            c.invoke_read(0, OpCall::rdp(template!["P", ?x])),
            Some(OpResult::Tuple(Some(tuple!["P", 1])))
        );
        let probe = crate::client::READ_PROBE_TIMEOUT.as_micros() as SimTime;
        let took = c.net.now() - start;
        assert!(
            (probe..2 * probe).contains(&took),
            "decided after {took} µs; the probe times out after {probe} µs"
        );
        assert_eq!(c.fast_reads(0), (1, 0), "served fast, not by the fallback");
    }

    /// A `take` at client 0 that outlives `invoke_timeout`. With
    /// `match_first`, an `out` of a match commits while the taker is cut
    /// off from every replica: the match's wakes are lost, and only the
    /// replicas' reply caches remember who won.
    fn timed_out_take(match_first: bool) -> (SimCluster, Option<SpaceResult<OpResult>>) {
        let mut c = cluster(1, &[100, 101]);
        let take = park(&mut c, 0, template!["JOB", ?x], WaitKind::Take);
        let taker = c.n_replicas() as NodeId;
        if match_first {
            (0..taker).for_each(|r| c.net.partition(r, taker));
            let out = c.invoke(1, OpCall::out(tuple!["JOB", 1]));
            assert_eq!(out, Some(OpResult::Done));
            (0..taker).for_each(|r| c.net.heal(r, taker));
        }
        let outcome = finish(&mut c, take);
        let timeout = ClientConfig::default().invoke_timeout.as_micros() as SimTime;
        assert!(c.net.now() > timeout, "settled before the take timed out");
        (c, outcome)
    }

    #[test]
    fn a_timed_out_take_settles_its_race_with_the_cancel_either_way() {
        let (mut c, outcome) = timed_out_take(false);
        match outcome {
            Some(Err(SpaceError::Unavailable(why))) => assert!(why.contains("cancelled"), "{why}"),
            other => panic!("the cancel won, yet: {other:?}"),
        }
        // The cancelled registration takes nothing.
        let job = || OpResult::Tuple(Some(tuple!["JOB", 2]));
        assert_eq!(
            c.invoke(1, OpCall::out(tuple!["JOB", 2])),
            Some(OpResult::Done)
        );
        assert_eq!(c.invoke(1, OpCall::rdp(template!["JOB", ?x])), Some(job()));

        // The tuple was taken on the taker's behalf: reporting a timeout
        // would leak it.
        let (mut c, outcome) = timed_out_take(true);
        assert_eq!(outcome, Some(Ok(OpResult::Tuple(Some(tuple!["JOB", 1])))));
        let gone = c.invoke(1, OpCall::rdp(template!["JOB", ?x]));
        assert_eq!(gone, Some(OpResult::Tuple(None)));
    }

    #[test]
    fn a_replica_cannot_vote_under_other_replicas_ids() {
        // Replica 0 answers as itself and as replica 1, the rest of the
        // first probe window, with one forged result: f+1 matching claims
        // from one node, on every path.
        let mut c = cluster(1, &[100, 101]);
        c.set_fault(0, FaultMode::ImpersonatesReplicas);
        let take = park(&mut c, 0, template!["J", ?x], WaitKind::Take);
        for i in 0..3i64 {
            let written = c.invoke(1, OpCall::out(tuple!["I", i]));
            assert_eq!(written, Some(OpResult::Done));
            let read = c.invoke_read(1, OpCall::rdp(template!["I", i]));
            assert_eq!(read, Some(OpResult::Tuple(Some(tuple!["I", i]))));
        }
        let written = c.invoke(1, OpCall::out(tuple!["J", 1]));
        assert_eq!(written, Some(OpResult::Done));
        let taken = finish(&mut c, take);
        assert_eq!(taken, Some(Ok(OpResult::Tuple(Some(tuple!["J", 1])))));
    }
}
