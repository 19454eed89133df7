//! Deterministic discrete-event network simulation.
//!
//! The paper's model is an asynchronous message-passing system (§2.1, §4).
//! This simulator makes Byzantine schedules *reproducible*: given a seed,
//! message delays, drops and partitions are a pure function of the
//! configuration, so every fault-injection test replays identically —
//! something a real async runtime cannot promise (and the reason this
//! reproduction does not use one).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Identity of a simulated node.
pub type NodeId = u32;

/// Simulated time (abstract "microseconds").
pub type SimTime = u64;

/// An actor mounted on a simulated node.
pub trait Actor {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let _ = (ctx, token);
    }
}

/// The effects an actor can produce during a callback.
#[derive(Debug)]
pub struct Context<'a> {
    node: NodeId,
    now: SimTime,
    outbox: &'a mut Vec<(NodeId, NodeId, Vec<u8>)>,
    timers: &'a mut Vec<(NodeId, SimTime, u64)>,
}

impl Context<'_> {
    /// This node's identity.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `payload` to `to` (subject to link delay/drops/partitions).
    pub fn send(&mut self, to: NodeId, payload: Vec<u8>) {
        self.outbox.push((self.node, to, payload));
    }

    /// Broadcasts to every node in `targets`.
    pub fn send_all(&mut self, targets: impl IntoIterator<Item = NodeId>, payload: &[u8]) {
        for to in targets {
            self.send(to, payload.to_vec());
        }
    }

    /// Schedules [`Actor::on_timer`] with `token` after `delay` time units.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.timers.push((self.node, self.now + delay, token));
    }
}

/// Link behaviour configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Minimum per-message delay.
    pub min_delay: SimTime,
    /// Maximum per-message delay (inclusive).
    pub max_delay: SimTime,
    /// Probability a message is silently dropped (asynchrony/fault model).
    pub drop_probability: f64,
    /// Seed for all randomness (delays, drops).
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            min_delay: 1,
            max_delay: 10,
            drop_probability: 0.0,
            seed: 42,
        }
    }
}

#[derive(Debug)]
enum EventKind {
    Deliver {
        from: NodeId,
        to: NodeId,
        payload: Vec<u8>,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
}

#[derive(Debug)]
struct Event {
    at: SimTime,
    seq: u64, // tiebreaker for determinism
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The simulated network: nodes, event queue, link model.
pub struct SimNet {
    actors: Vec<Box<dyn Actor>>,
    queue: BinaryHeap<Reverse<Event>>,
    config: NetConfig,
    rng: StdRng,
    now: SimTime,
    next_seq: u64,
    partitioned: BTreeSet<(NodeId, NodeId)>,
    delivered: u64,
    dropped: u64,
    started_count: usize,
}

impl SimNet {
    /// Creates an empty network with the given link model.
    pub fn new(config: NetConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        SimNet {
            actors: Vec::new(),
            queue: BinaryHeap::new(),
            config,
            rng,
            now: 0,
            next_seq: 0,
            partitioned: BTreeSet::new(),
            delivered: 0,
            dropped: 0,
            started_count: 0,
        }
    }

    /// Mounts an actor; returns its [`NodeId`] (assigned densely from 0).
    pub fn add_node(&mut self, actor: Box<dyn Actor>) -> NodeId {
        let id = self.actors.len() as NodeId;
        self.actors.push(actor);
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// `true` when no nodes are mounted.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped (by probability or partition) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Cuts the link between `a` and `b` in both directions.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitioned.insert((a.min(b), a.max(b)));
    }

    /// Restores the link between `a` and `b`.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitioned.remove(&(a.min(b), a.max(b)));
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Event { at, seq, kind }));
    }

    fn flush_effects(
        &mut self,
        outbox: Vec<(NodeId, NodeId, Vec<u8>)>,
        timers: Vec<(NodeId, SimTime, u64)>,
    ) {
        for (from, to, payload) in outbox {
            if to as usize >= self.actors.len() {
                continue; // message to a nonexistent node: dropped
            }
            let cut = self.partitioned.contains(&(from.min(to), from.max(to)));
            let dropped = cut
                || (self.config.drop_probability > 0.0
                    && self.rng.gen_bool(self.config.drop_probability));
            if dropped {
                self.dropped += 1;
                continue;
            }
            let delay = self
                .rng
                .gen_range(self.config.min_delay..=self.config.max_delay);
            let at = self.now + delay;
            self.push_event(at, EventKind::Deliver { from, to, payload });
        }
        for (node, at, token) in timers {
            self.push_event(at, EventKind::Timer { node, token });
        }
    }

    fn dispatch<F: FnOnce(&mut dyn Actor, &mut Context<'_>)>(&mut self, node: NodeId, f: F) {
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        {
            let mut ctx = Context {
                node,
                now: self.now,
                outbox: &mut outbox,
                timers: &mut timers,
            };
            // Temporarily take the actor out to avoid aliasing self.
            f(&mut *self.actors[node as usize], &mut ctx);
        }
        self.flush_effects(outbox, timers);
    }

    /// Starts any actors added since the last call — actors mounted after
    /// the simulation began get their `on_start` on the next step.
    fn ensure_started(&mut self) {
        while self.started_count < self.actors.len() {
            let id = self.started_count as NodeId;
            self.started_count += 1;
            self.dispatch(id, |a, ctx| a.on_start(ctx));
        }
    }

    /// Injects a message from outside the simulation (e.g. a test harness
    /// acting as a client), subject to the normal link model.
    pub fn inject(&mut self, from: NodeId, to: NodeId, payload: Vec<u8>) {
        self.flush_effects(vec![(from, to, payload)], Vec::new());
    }

    /// Schedules [`Actor::on_timer`] at `node` with `token` after `delay`
    /// time units, as the node's own [`Context::set_timer`] would.
    pub fn set_timer(&mut self, node: NodeId, delay: SimTime, token: u64) {
        self.push_event(self.now + delay, EventKind::Timer { node, token });
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        self.now = ev.at;
        match ev.kind {
            EventKind::Deliver { from, to, payload } => {
                self.delivered += 1;
                self.dispatch(to, |a, ctx| a.on_message(ctx, from, &payload));
            }
            EventKind::Timer { node, token } => {
                self.dispatch(node, |a, ctx| a.on_timer(ctx, token));
            }
        }
        true
    }

    /// Runs until the event queue drains or `max_steps` events have been
    /// processed; returns the number of events processed.
    pub fn run(&mut self, max_steps: u64) -> u64 {
        self.ensure_started();
        let mut steps = 0;
        while steps < max_steps && self.step() {
            steps += 1;
        }
        steps
    }

    /// Runs until `predicate` holds (checked after every event) or
    /// `max_steps` is exceeded. Returns `true` iff the predicate held.
    pub fn run_until(&mut self, max_steps: u64, mut predicate: impl FnMut(&Self) -> bool) -> bool {
        self.ensure_started();
        let mut steps = 0;
        while steps < max_steps {
            if predicate(self) {
                return true;
            }
            if !self.step() {
                return predicate(self);
            }
            steps += 1;
        }
        predicate(self)
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("nodes", &self.actors.len())
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test actor: pings a peer on start, counts pongs.
    struct PingPong {
        peer: NodeId,
        initiator: bool,
        pub rounds: u32,
    }

    impl Actor for PingPong {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.initiator {
                ctx.send(self.peer, b"ping".to_vec());
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
            self.rounds += 1;
            if self.rounds < 5 {
                let reply = if payload == b"ping" { b"pong" } else { b"ping" };
                ctx.send(from, reply.to_vec());
            }
        }
    }

    fn two_node_net(config: NetConfig) -> SimNet {
        let mut net = SimNet::new(config);
        net.add_node(Box::new(PingPong {
            peer: 1,
            initiator: true,
            rounds: 0,
        }));
        net.add_node(Box::new(PingPong {
            peer: 0,
            initiator: false,
            rounds: 0,
        }));
        net
    }

    #[test]
    fn messages_flow_and_time_advances() {
        let mut net = two_node_net(NetConfig::default());
        net.run(100);
        assert!(net.delivered() >= 9);
        assert!(net.now() > 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let trace = |seed| {
            let mut net = two_node_net(NetConfig {
                seed,
                drop_probability: 0.2,
                ..NetConfig::default()
            });
            net.run(1000);
            (net.now(), net.delivered(), net.dropped())
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }

    #[test]
    fn partition_blocks_messages() {
        let mut net = two_node_net(NetConfig::default());
        net.partition(0, 1);
        net.run(100);
        assert_eq!(net.delivered(), 0);
        assert!(net.dropped() >= 1);
    }

    #[test]
    fn heal_restores_flow() {
        let mut net = two_node_net(NetConfig::default());
        net.partition(0, 1);
        net.run(10);
        net.heal(0, 1);
        // Re-trigger: a timer-less protocol needs a new start; simulate by
        // direct send from node 0.
        struct Kick;
        impl Actor for Kick {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(0, b"pong".to_vec());
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        }
        net.add_node(Box::new(Kick));
        // New node's on_start runs on next step.
        net.run(100);
        assert!(net.delivered() > 0);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerActor {
            fired: Vec<u64>,
        }
        impl Actor for TimerActor {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(30, 3);
                ctx.set_timer(10, 1);
                ctx.set_timer(20, 2);
            }
            fn on_message(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
            fn on_timer(&mut self, _: &mut Context<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut net = SimNet::new(NetConfig::default());
        net.add_node(Box::new(TimerActor { fired: vec![] }));
        net.run(10);
        // Inspect through Any-style downcast is unavailable; re-run with
        // run_until and check time ordering instead.
        assert_eq!(net.now(), 30);
    }

    #[test]
    fn run_until_predicate() {
        let mut net = two_node_net(NetConfig::default());
        let reached = net.run_until(1000, |n| n.delivered() >= 3);
        assert!(reached);
        assert!(net.delivered() >= 3);
    }
}
