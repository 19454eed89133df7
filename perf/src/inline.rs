//! The traced pass: a single-threaded cluster built here, in the benchmark's
//! own files — four `Replica`s and the client sessions, with every message
//! moved by hand the way `replica_main`, `ship` and `client_router` move it
//! — so that a span can be recorded around every call into a layer, and so
//! that the per-op counts repeat exactly for a seed.

use crate::gen::{self, Expect, Step, CLIENT_PIDS};
use crate::workloads::{owner_policy, F};
use peats_auth::KeyTable;
use peats_codec::{Decode, Encode};
use peats_policy::PolicyParams;
use peats_replication::{
    ClientSession, Dest, DurableConfig, DurableStore, Message, OpResult, PeatsService, ReadPoll,
    ReadSession, Replica, ReplicaConfig, RequestOp, Sealed, WaitKind,
};
use peats_tuplespace::Template;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const N_REPLICAS: usize = 3 * F + 1;
const MASTER: &[u8] = b"peats-perf-inline-master";

/// One recorded call into a layer (or a grouping span: `op`, `deliver`).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The `Message` kind the call handled, when it handled one.
    pub kind: &'static str,
    pub node: u32,
    /// The op this span belongs to.
    pub op: u32,
    /// Id (index + 1) of the span that caused this one; 0 for an op.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the traced pass does on the side to split a span it cannot see
    /// into (re-encoding a message to time the codec inside `seal`); it is
    /// not on the path and is left out of sums over the path.
    pub shadow: bool,
}

impl Span {
    pub fn ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// Span recorder; free when disabled.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    op: u32,
    parent: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            op: 0,
            parent: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, kind: &'static str, node: u32, shadow: bool) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            kind,
            node,
            op: self.op,
            parent: self.parent,
            start_ns,
            end_ns: start_ns,
            shadow,
        });
        self.spans.len() as u32
    }

    /// Times `f` as a leaf span.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        kind: &'static str,
        node: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.push(name, kind, node, false);
        let r = f();
        self.spans[id as usize - 1].end_ns = self.now();
        r
    }

    /// Times `f` as side work (see [`Span::shadow`]); skipped when disabled.
    fn shadow(&mut self, name: &'static str, kind: &'static str, node: u32, f: impl FnOnce()) {
        if self.enabled {
            let id = self.push(name, kind, node, true);
            f();
            self.spans[id as usize - 1].end_ns = self.now();
        }
    }

    /// Opens a grouping span and makes it the parent of what follows.
    fn open(&mut self, name: &'static str, node: u32) -> (u32, u32) {
        if !self.enabled {
            return (0, 0);
        }
        let outer = self.parent;
        let id = self.push(name, "", node, false);
        self.parent = id;
        (id, outer)
    }

    fn close(&mut self, (id, outer): (u32, u32)) {
        if id > 0 {
            self.spans[id as usize - 1].end_ns = self.now();
            self.parent = outer;
        }
    }

    /// Names the message kind on the last `n` spans (known only once the
    /// envelope has been opened).
    fn label_last(&mut self, n: usize, kind: &'static str) {
        let len = self.spans.len();
        for s in &mut self.spans[len.saturating_sub(n)..] {
            s.kind = kind;
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"kind\":\"{}\",\"node\":{},\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"shadow\":{}}}",
                i + 1,
                s.name,
                s.kind,
                s.node,
                s.op,
                s.parent,
                s.start_ns,
                s.end_ns,
                s.shadow
            )?;
        }
        w.flush()
    }
}

pub fn kind_of(msg: &Message) -> &'static str {
    match msg {
        Message::Request(_) => "request",
        Message::PrePrepare { .. } => "pre-prepare",
        Message::Prepare { .. } => "prepare",
        Message::Commit { .. } => "commit",
        Message::Reply { .. } => "reply",
        Message::ViewChange { .. } => "view-change",
        Message::NewView { .. } => "new-view",
        Message::Checkpoint { .. } => "checkpoint",
        Message::FetchState { .. } => "fetch-state",
        Message::StateSnapshot { .. } => "state-snapshot",
        Message::ReadRequest { .. } => "read-request",
        Message::ReadReply { .. } => "read-reply",
        Message::Wake { .. } => "wake",
    }
}

/// Counts taken where the work happens. With one thread and one seed they
/// repeat exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub seals: u64,
    pub opens: u64,
    /// Bytes fed to HMAC: each sealed or opened message body.
    pub bytes_macd: u64,
    /// Bytes handed to the transport.
    pub wire_bytes: u64,
    pub msgs: BTreeMap<&'static str, u64>,
    pub wal_appends: u64,
    pub wal_syncs: u64,
}

/// The hand-moved network: a FIFO of sealed frames, with the tracer and the
/// counters every send and delivery goes through.
struct Net {
    queue: VecDeque<(u32, u32, Vec<u8>)>,
    tracer: Tracer,
    counts: Counts,
}

impl Net {
    /// `ship`'s inner step: seal for one recipient, encode, hand over.
    fn send(&mut self, keys: &KeyTable, from: u32, to: u32, msg: &Message) {
        let kind = kind_of(msg);
        self.tracer.shadow("codec.encode_message", kind, from, || {
            std::hint::black_box(msg.to_bytes());
        });
        let sealed = self.tracer.call("auth.seal", kind, from, || {
            Sealed::seal(keys, u64::from(to), msg)
        });
        let frame = self
            .tracer
            .call("codec.encode", kind, from, || sealed.to_bytes());
        self.counts.seals += 1;
        self.counts.bytes_macd += sealed.body.len() as u64;
        self.counts.wire_bytes += frame.len() as u64;
        *self.counts.msgs.entry(kind).or_default() += 1;
        self.queue.push_back((from, to, frame));
    }

    /// The receive half of `replica_main` / `client_router`: decode the
    /// envelope, verify the MAC, decode the message.
    fn open(&mut self, keys: &KeyTable, node: u32, frame: &[u8]) -> Option<(u64, Message)> {
        let sealed = self
            .tracer
            .call("codec.decode", "", node, || Sealed::from_bytes(frame))
            .ok()?;
        self.counts.opens += 1;
        self.counts.bytes_macd += sealed.body.len() as u64;
        let (sender, msg) = self
            .tracer
            .call("auth.open", "", node, || sealed.open(keys))?;
        let kind = kind_of(&msg);
        self.tracer.label_last(2, kind);
        self.tracer.shadow("codec.decode_message", kind, node, || {
            let _ = std::hint::black_box(Message::from_bytes(&sealed.body));
        });
        Some((sender, msg))
    }
}

enum Session {
    Ordered(ClientSession),
    /// A registration `f+1` replicas confirmed parked: the vote now runs
    /// over the pushed wakes, and late `Registered` replies are not votes.
    Parked(ClientSession),
    Read(ReadSession),
}

struct ClientNode {
    node: u32,
    pid: u64,
    keys: KeyTable,
    next_req: u64,
    watermark: u64,
    sessions: BTreeMap<u64, Session>,
    decided: BTreeMap<u64, OpResult>,
}

pub struct InlineCluster {
    replicas: Vec<Replica>,
    replica_keys: Vec<KeyTable>,
    clients: Vec<ClientNode>,
    net: Net,
    durable: bool,
}

impl InlineCluster {
    /// Four fresh replicas under `owner.peats`, each with a `DurableStore`
    /// (fsync on) under `wal_dir` when one is given, and both clients.
    pub fn new(wal_dir: Option<&Path>, traced: bool) -> std::io::Result<Self> {
        let registry: BTreeMap<u64, u64> = CLIENT_PIDS
            .iter()
            .enumerate()
            .map(|(i, pid)| ((N_REPLICAS + i) as u64, *pid))
            .collect();
        let mut replicas = Vec::new();
        for id in 0..N_REPLICAS {
            let service = PeatsService::new(owner_policy(), PolicyParams::new())
                .expect("owner.peats is analysis-clean");
            let mut replica = Replica::new(
                ReplicaConfig::new(id as u32, N_REPLICAS, F),
                service,
                registry.clone(),
            );
            if let Some(dir) = wal_dir {
                let (store, recovery) = DurableStore::open(
                    &dir.join(format!("replica-{id}")),
                    DurableConfig {
                        fsync: true,
                        ..DurableConfig::default()
                    },
                )?;
                replica.restore_durable(store, recovery);
            }
            replicas.push(replica);
        }
        Ok(InlineCluster {
            replicas,
            replica_keys: (0..N_REPLICAS)
                .map(|id| KeyTable::new(id as u64, MASTER))
                .collect(),
            clients: registry
                .iter()
                .map(|(&node, &pid)| ClientNode {
                    node: node as u32,
                    pid,
                    keys: KeyTable::new(node, MASTER),
                    next_req: 0,
                    watermark: 0,
                    sessions: BTreeMap::new(),
                    decided: BTreeMap::new(),
                })
                .collect(),
            net: Net {
                queue: VecDeque::new(),
                tracer: Tracer::new(traced),
                counts: Counts::default(),
            },
            durable: wal_dir.is_some(),
        })
    }

    /// Forgets what set-up cost: spans and counts start at the first
    /// measured op.
    pub fn reset_measurement(&mut self) {
        let traced = self.net.tracer.enabled;
        self.net.tracer = Tracer::new(traced);
        self.net.counts = Counts::default();
    }

    /// Ends the pass: what it counted and what it traced.
    pub fn finish(self) -> (Counts, Tracer) {
        (self.net.counts, self.net.tracer)
    }

    pub fn last_execs(&self) -> Vec<u64> {
        self.replicas.iter().map(Replica::last_exec).collect()
    }

    /// Broadcasts an ordered request, as `ReplicatedPeats::invoke_op` does.
    fn submit(&mut self, client: usize, op: RequestOp) -> u64 {
        let c = &mut self.clients[client];
        c.next_req += 1;
        let req_id = c.next_req;
        let session = ClientSession::new_op(c.pid, req_id, op, F);
        let msg = session.request_message();
        c.sessions.insert(req_id, Session::Ordered(session));
        for r in 0..N_REPLICAS as u32 {
            self.net.send(&c.keys, c.node, r, &msg);
        }
        req_id
    }

    /// Delivers frames until none is in flight.
    fn pump(&mut self) {
        while let Some((_, to, frame)) = self.net.queue.pop_front() {
            let group = self.net.tracer.open("deliver", to);
            if (to as usize) < N_REPLICAS {
                self.deliver_to_replica(to as usize, &frame);
            } else {
                self.deliver_to_client(to as usize - N_REPLICAS, &frame);
            }
            self.net.tracer.close(group);
        }
    }

    fn deliver_to_replica(&mut self, id: usize, frame: &[u8]) {
        let node = id as u32;
        let Some((sender, msg)) = self.net.open(&self.replica_keys[id], node, frame) else {
            return;
        };
        let kind = kind_of(&msg);
        let replica = &mut self.replicas[id];
        let before = replica.last_exec();
        let outputs = self
            .net
            .tracer
            .call("replication.on_message", kind, node, || {
                replica.on_message(sender, msg)
            });
        let executed = replica.last_exec() - before;
        if self.durable && executed > 0 {
            // One append per executed slot, one sync per execution pass.
            self.net.counts.wal_appends += executed;
            self.net.counts.wal_syncs += 1;
        }
        let keys = &self.replica_keys[id];
        for (dest, msg) in outputs {
            match dest {
                Dest::Replica(r) => self.net.send(keys, node, r, &msg),
                Dest::AllReplicas => {
                    for r in (0..N_REPLICAS as u32).filter(|r| *r != node) {
                        self.net.send(keys, node, r, &msg);
                    }
                }
                Dest::Client(c) => self.net.send(keys, node, c as u32, &msg),
            }
        }
    }

    fn deliver_to_client(&mut self, client: usize, frame: &[u8]) {
        let c = &mut self.clients[client];
        let Some((_, msg)) = self.net.open(&c.keys, c.node, frame) else {
            return;
        };
        let kind = kind_of(&msg);
        match msg {
            Message::Reply {
                req_id,
                seq,
                replica,
                result,
                ..
            }
            | Message::Wake {
                req_id,
                seq,
                result,
                replica,
            } => {
                let session = match c.sessions.get_mut(&req_id) {
                    Some(Session::Ordered(s)) => s,
                    Some(Session::Parked(s)) if result != OpResult::Registered => s,
                    _ => return,
                };
                let decided = self
                    .net
                    .tracer
                    .call("replication.client_vote", kind, c.node, || {
                        session.on_reply(replica, req_id, seq, result)
                    });
                if let Some((seq, result)) = decided {
                    c.watermark = c.watermark.max(seq);
                    c.sessions.remove(&req_id);
                    if result == OpResult::Registered {
                        let wakes = ClientSession::new_op(
                            c.pid,
                            req_id,
                            RequestOp::Cancel { target: req_id },
                            F,
                        );
                        c.sessions.insert(req_id, Session::Parked(wakes));
                    }
                    c.decided.insert(req_id, result);
                }
            }
            Message::ReadReply {
                req_id,
                seq,
                digest,
                result,
                replica,
            } => {
                let Some(Session::Read(session)) = c.sessions.get_mut(&req_id) else {
                    return;
                };
                let poll = self
                    .net
                    .tracer
                    .call("replication.client_vote", kind, c.node, || {
                        session.on_read_reply(replica, req_id, seq, digest, result)
                    });
                if let ReadPoll::Accepted { seq, result } = poll {
                    c.watermark = c.watermark.max(seq);
                    c.sessions.remove(&req_id);
                    c.decided.insert(req_id, result);
                }
            }
            _ => {}
        }
    }

    /// One ordered op, run to quiescence.
    fn ordered(&mut self, client: usize, op: RequestOp) -> Option<OpResult> {
        let req_id = self.submit(client, op);
        self.pump();
        self.clients[client].decided.remove(&req_id)
    }

    /// One fast read as `ReplicatedPeats::try_fast_read` runs it: probe a
    /// window of `f+1` replicas, widen to the rest if that does not decide.
    fn fast_read(&mut self, client: usize, step: &Step) -> Option<OpResult> {
        let c = &mut self.clients[client];
        c.next_req += 1;
        let req_id = c.next_req;
        let msg = Message::ReadRequest {
            client: c.pid,
            req_id,
            op: step.op.to_call(),
            watermark: c.watermark,
        };
        c.sessions.insert(
            req_id,
            Session::Read(ReadSession::new(req_id, c.watermark, F, N_REPLICAS)),
        );
        for window in [0..F + 1, F + 1..N_REPLICAS] {
            let c = &self.clients[client];
            for r in window {
                self.net.send(&c.keys, c.node, r as u32, &msg);
            }
            self.pump();
            if let Some(result) = self.clients[client].decided.remove(&req_id) {
                return Some(result);
            }
        }
        self.clients[client].sessions.remove(&req_id);
        None
    }

    /// Runs one generated op for `client`; `true` when the answer is the
    /// expected one.
    pub fn run_step(&mut self, client: usize, step: &Step) -> bool {
        let group = self.begin_op();
        let result = if step.op.is_read() {
            match self.fast_read(client, step) {
                Some(r) => Some(r),
                None => self.ordered(client, RequestOp::Call(step.op.to_call())),
            }
        } else {
            self.ordered(client, RequestOp::Call(step.op.to_call()))
        };
        self.net.tracer.close(group);
        match (result, &step.expect) {
            (Some(OpResult::Done), Expect::Done)
            | (Some(OpResult::Cas { inserted: true, .. }), Expect::Inserted)
            | (Some(OpResult::Denied(_)), Expect::Denied) => true,
            (Some(OpResult::Tuple(Some(got))), Expect::Found(want)) => got == *want,
            _ => false,
        }
    }

    fn begin_op(&mut self) -> (u32, u32) {
        self.net.counts.ops += 1;
        self.net.tracer.op += 1;
        self.net.tracer.open("op", 0)
    }

    /// Parks a `take` for `client`; `Some(req_id)` once `f+1` replicas
    /// confirmed it registered.
    fn park_take(&mut self, client: usize, template: Template) -> Option<u64> {
        let req_id = self.submit(
            client,
            RequestOp::Register {
                template,
                kind: WaitKind::Take,
                persistent: false,
            },
        );
        self.pump();
        (self.clients[client].decided.remove(&req_id) == Some(OpResult::Registered))
            .then_some(req_id)
    }

    /// One hand-off round trip, each take parked before its match is sent:
    /// B parks for the TASK, A parks for the DONE, A outs the TASK (waking
    /// B), B outs the DONE (waking A). `true` when both wakes carried the
    /// right tuple.
    pub fn run_handoff(&mut self, id: i64) -> bool {
        let [a, b] = CLIENT_PIDS;
        let group = self.begin_op();
        let task = gen::mail("TASK", a, b, id);
        let done = gen::mail("DONE", b, a, id);
        let ok = (|| {
            let b_take = self.park_take(1, Template::exact(&task))?;
            let a_take = self.park_take(0, Template::exact(&done))?;
            let sent = self.ordered(0, RequestOp::Call(gen::Op::Out(task.clone()).to_call()))?;
            let woken_b = self.clients[1].decided.remove(&b_take)?;
            let answered =
                self.ordered(1, RequestOp::Call(gen::Op::Out(done.clone()).to_call()))?;
            let woken_a = self.clients[0].decided.remove(&a_take)?;
            Some(
                sent == OpResult::Done
                    && answered == OpResult::Done
                    && woken_b == OpResult::Tuple(Some(task.clone()))
                    && woken_a == OpResult::Tuple(Some(done.clone())),
            )
        })();
        self.net.tracer.close(group);
        for c in &mut self.clients {
            c.sessions.clear();
        }
        ok == Some(true)
    }
}
