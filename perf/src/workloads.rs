//! The six workloads: what each deploys, the closed loop that drives it, and
//! the checks that every answer and the final state are the correct ones.
//!
//! Load model, identical everywhere: closed loop, one thread per client,
//! two clients, zero think time, zero injected message delay. A client's
//! next op is issued when the previous one returned — the PEATS client API
//! is synchronous, so this is how a process uses it.

use crate::gen::{
    self, Expect, HandoffIds, HandoffStep, Mix, Op, Step, Stream, CLIENT_PIDS, HANDOFF_STOP,
    PARKED_PIDS,
};
use crate::stats;
use peats::{LocalHandle, LocalPeats, TupleSpace};
use peats_auth::Digest;
use peats_net::{TcpCluster, TcpClusterConfig, TcpTransport};
use peats_netsim::Transport;
use peats_policy::{parse_policy, Policy, PolicyParams};
use peats_replication::{ClusterConfig, DurableConfig, ReplicatedPeats, ThreadedCluster};
use peats_tuplespace::{Field, Template, Value};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The policy every workload runs under.
pub const OWNER_POLICY: &str = include_str!("../policies/owner.peats");

pub fn owner_policy() -> Policy {
    parse_policy(OWNER_POLICY).expect("policies/owner.peats parses")
}

/// Replica fault bound of every replicated deployment (`3f+1 = 4` replicas).
pub const F: usize = 1;
/// Stream ops each client runs before the window (so 800 per deployment, the
/// 200 cycles the window would otherwise spend warming caches and pools).
pub const WARM_OPS_PER_CLIENT: usize = 400;
/// Hand-off round trips before the window.
pub const WARM_ROUND_TRIPS: usize = 200;
/// Ops per timed block on `cycle.local`: two clock reads would be a third
/// of an uncontended op, so the clock is read once per block and the
/// block's mean is the sample. Blocks are long (tens of ms) because the two
/// clients alternate, for milliseconds at a time, between fighting over
/// `LocalPeats`' full-lock `cas` (~7 µs an op) and running alone (~1.3 µs):
/// at 128 ops a block the samples were bimodal and their median flipped
/// between the modes from run to run (2.3–14.8 µs over ten seeds). A
/// multiple of the forbidden-attempt period.
pub const LOCAL_BLOCK_OPS: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// `LocalPeats`, plus four takers parked on quiet channels.
    Local,
    /// `ThreadedCluster`, f = 1, no WAL.
    Threads,
    /// `TcpCluster` on loopback, f = 1, WAL with fsync.
    TcpWal,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Stream { mix: Mix, payload: usize },
    Handoff,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub deployment: Deployment,
    pub kind: Kind,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "cycle.local",
        deployment: Deployment::Local,
        kind: Kind::Stream { mix: Mix::Cycle, payload: 16 },
        why: "Single-node baseline: only policy, tuplespace and LocalPeats' sharded locking work (4 takers parked on quiet channels); replication, auth, codec, transport and disk do nothing.",
    },
    Workload {
        name: "cycle.threads",
        deployment: Deployment::Threads,
        kind: Kind::Stream { mix: Mix::Cycle, payload: 16 },
        why: "Ordering, MAC seal/verify and thread hand-offs dominate; sockets and disk do nothing. The bypass workload for any transport or WAL change, and where batching can show.",
    },
    Workload {
        name: "cycle.tcp-wal",
        deployment: Deployment::TcpWal,
        kind: Kind::Stream { mix: Mix::Cycle, payload: 16 },
        why: "The deployed configuration (what peatsd --data-dir runs): against cycle.threads it isolates what loopback sockets plus fsync cost.",
    },
    Workload {
        name: "cycle-4k.tcp-wal",
        deployment: Deployment::TcpWal,
        kind: Kind::Stream { mix: Mix::Cycle, payload: 4096 },
        why: "Same message count, 36x the bytes: codec, SHA-256 in every MAC, bitwise crc32, socket and disk writes do most of the work here and little in cycle.tcp-wal.",
    },
    Workload {
        name: "read-mostly.tcp-wal",
        deployment: Deployment::TcpWal,
        kind: Kind::Stream { mix: Mix::ReadMostly, payload: 16 },
        why: "One-round f+1 quorum reads beside ordered writes (9 rdp to 1 ordered op): a write-path gain that costs the read path shows as a loss here.",
    },
    Workload {
        name: "handoff.threads",
        deployment: Deployment::Threads,
        kind: Kind::Handoff,
        why: "The blocking path (register, wake, client vote) that no cycle op touches: A outs a TASK and takes the DONE that B, woken from its take, outs back.",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Client-side counters a deployment exposes (all zero on `LocalPeats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Requests that went through the ordering protocol.
    pub ordered: u64,
    pub rebroadcasts: u64,
    pub fast_reads: u64,
    pub fast_read_fallbacks: u64,
}

impl Counters {
    fn minus(self, earlier: Counters) -> Counters {
        Counters {
            ordered: self.ordered - earlier.ordered,
            rebroadcasts: self.rebroadcasts - earlier.rebroadcasts,
            fast_reads: self.fast_reads - earlier.fast_reads,
            fast_read_fallbacks: self.fast_read_fallbacks - earlier.fast_read_fallbacks,
        }
    }

    fn plus(self, other: Counters) -> Counters {
        Counters {
            ordered: self.ordered + other.ordered,
            rebroadcasts: self.rebroadcasts + other.rebroadcasts,
            fast_reads: self.fast_reads + other.fast_reads,
            fast_read_fallbacks: self.fast_read_fallbacks + other.fast_read_fallbacks,
        }
    }
}

pub trait ClientHandle: TupleSpace + Clone + Send + 'static {
    fn counters(&self) -> Counters;
}

impl ClientHandle for LocalHandle {
    fn counters(&self) -> Counters {
        Counters::default()
    }
}

impl<T: Transport> ClientHandle for ReplicatedPeats<T> {
    fn counters(&self) -> Counters {
        let fast_reads = self.fast_reads_served();
        let fast_read_fallbacks = self.fast_read_fallbacks();
        Counters {
            // Every fast-read round draws a request id of its own.
            ordered: self.issued_requests() - fast_reads - fast_read_fallbacks,
            rebroadcasts: self.rebroadcasts(),
            fast_reads,
            fast_read_fallbacks,
        }
    }
}

/// What the runner needs from a deployment, through calls a client or an
/// operator of the cluster could make.
pub trait Cluster: Sized {
    type Handle: ClientHandle;
    /// Boots the deployment under `owner.peats`; `scratch` is where a
    /// durable one keeps its WAL.
    fn boot(scratch: &Path) -> Self;
    fn handle(&mut self, client: usize) -> Self::Handle;
    fn replicas(&self) -> usize;
    fn last_exec(&self, replica: usize) -> u64;
    fn state_digest(&self, replica: usize) -> Digest;
    fn dropped_outbound(&self) -> u64;
    /// Stops it; `Err` names what went wrong while it ran.
    fn shutdown(self) -> Result<(), String>;
}

/// `LocalPeats` with four threads parked in `take` on channels nobody
/// writes until shutdown: the one case where `ShardedSpace` was measured to
/// matter (a writer must not wake, or contend with, unrelated waiters).
pub struct LocalDeployment {
    space: LocalPeats,
    takers: Vec<JoinHandle<bool>>,
}

fn quiet_tag(i: usize) -> String {
    format!("QUIET{i}")
}

impl Cluster for LocalDeployment {
    type Handle = LocalHandle;

    fn boot(_scratch: &Path) -> Self {
        let space = LocalPeats::new(owner_policy(), PolicyParams::new())
            .expect("owner.peats is analysis-clean");
        let takers = PARKED_PIDS
            .iter()
            .enumerate()
            .map(|(i, &pid)| {
                let h = space.handle(pid);
                std::thread::spawn(move || {
                    let template = Template::new(vec![
                        Field::exact(quiet_tag(i)),
                        Field::exact(gen::pid_value(pid)),
                        Field::any(),
                        Field::any(),
                    ]);
                    h.take(&template).is_ok()
                })
            })
            .collect();
        LocalDeployment { space, takers }
    }

    fn handle(&mut self, client: usize) -> LocalHandle {
        self.space.handle(CLIENT_PIDS[client])
    }

    fn replicas(&self) -> usize {
        0
    }

    fn last_exec(&self, _replica: usize) -> u64 {
        0
    }

    fn state_digest(&self, _replica: usize) -> Digest {
        [0; 32]
    }

    fn dropped_outbound(&self) -> u64 {
        0
    }

    fn shutdown(self) -> Result<(), String> {
        for (i, &pid) in PARKED_PIDS.iter().enumerate() {
            self.space
                .handle(pid)
                .out(peats_tuplespace::Tuple::new(vec![
                    Value::from(quiet_tag(i)),
                    gen::pid_value(pid),
                    Value::Int(0),
                    Value::Int(0),
                ]))
                .map_err(|e| format!("releasing parked taker {i}: {e}"))?;
        }
        for (i, t) in self.takers.into_iter().enumerate() {
            if !t.join().map_err(|_| format!("parked taker {i} panicked"))? {
                return Err(format!("parked taker {i} was refused"));
            }
        }
        Ok(())
    }
}

impl Cluster for ThreadedCluster {
    type Handle = ReplicatedPeats;

    fn boot(_scratch: &Path) -> Self {
        ThreadedCluster::start_with(
            owner_policy(),
            PolicyParams::new(),
            F,
            &CLIENT_PIDS,
            &[],
            ClusterConfig::default(),
        )
        .expect("owner.peats is analysis-clean")
    }

    fn handle(&mut self, client: usize) -> ReplicatedPeats {
        ThreadedCluster::handle(self, client)
    }

    fn replicas(&self) -> usize {
        3 * F + 1
    }

    fn last_exec(&self, replica: usize) -> u64 {
        ThreadedCluster::last_exec(self, replica)
    }

    fn state_digest(&self, replica: usize) -> Digest {
        ThreadedCluster::state_digest(self, replica)
    }

    fn dropped_outbound(&self) -> u64 {
        0
    }

    fn shutdown(self) -> Result<(), String> {
        ThreadedCluster::shutdown(self);
        Ok(())
    }
}

/// `TcpCluster` with a write-ahead log under a scratch directory that is
/// removed again at shutdown.
pub struct TcpWalDeployment {
    cluster: TcpCluster,
    data_dir: PathBuf,
}

impl Cluster for TcpWalDeployment {
    type Handle = ReplicatedPeats<TcpTransport>;

    fn boot(scratch: &Path) -> Self {
        let data_dir = scratch.to_path_buf();
        std::fs::create_dir_all(&data_dir).expect("create WAL scratch directory");
        let cluster = TcpCluster::start(
            owner_policy(),
            PolicyParams::new(),
            F,
            &CLIENT_PIDS,
            TcpClusterConfig {
                cluster: ClusterConfig {
                    data_dir: Some(data_dir.clone()),
                    durable: DurableConfig {
                        fsync: true,
                        ..DurableConfig::default()
                    },
                    ..ClusterConfig::default()
                },
                ..TcpClusterConfig::default()
            },
        )
        .expect("owner.peats is analysis-clean");
        TcpWalDeployment { cluster, data_dir }
    }

    fn handle(&mut self, client: usize) -> Self::Handle {
        self.cluster.handle(client)
    }

    fn replicas(&self) -> usize {
        3 * F + 1
    }

    fn last_exec(&self, replica: usize) -> u64 {
        self.cluster.last_exec(replica)
    }

    fn state_digest(&self, replica: usize) -> Digest {
        self.cluster.state_digest(replica)
    }

    fn dropped_outbound(&self) -> u64 {
        self.cluster.dropped_outbound()
    }

    fn shutdown(self) -> Result<(), String> {
        let wrote_wal = (0..self.replicas()).all(|id| {
            std::fs::read_dir(self.data_dir.join(format!("replica-{id}")))
                .is_ok_and(|mut entries| entries.next().is_some())
        });
        self.cluster.shutdown();
        std::fs::remove_dir_all(&self.data_dir)
            .map_err(|e| format!("removing {}: {e}", self.data_dir.display()))?;
        if wrote_wal {
            Ok(())
        } else {
            Err("a replica wrote no WAL: the durable path did not run".into())
        }
    }
}

/// One timed sample: a single op, or on `cycle.local` a block of them.
#[derive(Clone, Copy, Debug)]
struct Rec {
    /// Completion time, ns after the window opened.
    end_ns: u64,
    /// Latency of the op (mean per op for a block).
    lat_ns: f64,
    ops: u32,
    failed: u32,
}

struct Client<H> {
    handle: H,
    stream: Stream,
}

fn run_checked<H: TupleSpace>(h: &H, step: Step) -> bool {
    step.op.run(h).satisfies(&step.expect)
}

/// Runs `steps` untimed; returns how many gave a wrong answer.
fn run_all<H: TupleSpace>(h: &H, steps: impl IntoIterator<Item = Step>) -> u64 {
    steps
        .into_iter()
        .map(|s| u64::from(!run_checked(h, s)))
        .sum()
}

impl<H: ClientHandle> Client<H> {
    /// Runs stream ops until `n` are done and the stream is at a boundary.
    fn warm(&mut self, n: usize) -> u64 {
        let mut wrong = 0;
        let mut done = 0;
        while done < n || !self.stream.at_boundary() {
            let step = self.stream.next().expect("streams are endless");
            wrong += u64::from(!run_checked(&self.handle, step));
            done += 1;
        }
        wrong
    }

    /// The closed loop, one clock pair per op.
    fn timed_ops(&mut self, start: Instant, window: Duration) -> Vec<Rec> {
        let mut recs = Vec::with_capacity(1 << 16);
        loop {
            let t0 = Instant::now();
            let in_window = t0.duration_since(start) < window;
            if !in_window && self.stream.at_boundary() {
                return recs;
            }
            let step = self.stream.next().expect("streams are endless");
            let outcome = step.op.run(&self.handle);
            let t1 = Instant::now();
            if in_window {
                recs.push(Rec {
                    end_ns: t1.duration_since(start).as_nanos() as u64,
                    lat_ns: t1.duration_since(t0).as_nanos() as f64,
                    ops: 1,
                    failed: u32::from(!outcome.satisfies(&step.expect)),
                });
            }
        }
    }

    /// The closed loop, one clock pair per block of [`LOCAL_BLOCK_OPS`];
    /// generation and checking stay outside the timed region.
    fn timed_blocks(&mut self, start: Instant, window: Duration) -> Vec<Rec> {
        let mut recs = Vec::with_capacity(1 << 12);
        let mut ops = Vec::with_capacity(LOCAL_BLOCK_OPS);
        let mut expects = Vec::with_capacity(LOCAL_BLOCK_OPS);
        let mut outcomes = Vec::with_capacity(LOCAL_BLOCK_OPS);
        while start.elapsed() < window {
            for step in self.stream.by_ref().take(LOCAL_BLOCK_OPS) {
                ops.push(step.op);
                expects.push(step.expect);
            }
            let t0 = Instant::now();
            for op in ops.drain(..) {
                outcomes.push(op.run(&self.handle));
            }
            let t1 = Instant::now();
            let failed = outcomes
                .drain(..)
                .zip(expects.drain(..))
                .filter(|(got, want)| !got.satisfies(want))
                .count();
            recs.push(Rec {
                end_ns: t1.duration_since(start).as_nanos() as u64,
                lat_ns: t1.duration_since(t0).as_nanos() as f64 / LOCAL_BLOCK_OPS as f64,
                ops: LOCAL_BLOCK_OPS as u32,
                failed: failed as u32,
            });
        }
        while !self.stream.at_boundary() {
            let step = self.stream.next().expect("streams are endless");
            if !run_checked(&self.handle, step) {
                if let Some(last) = recs.last_mut() {
                    last.failed += 1;
                }
            }
        }
        recs
    }
}

/// B's side of the hand-off: take the next TASK, answer it with a DONE,
/// until the stop id arrives. Returns the number of wrong answers seen.
fn handoff_b<H: TupleSpace>(h: &H) -> u64 {
    let [a, b] = CLIENT_PIDS;
    let any_task = Template::new(vec![
        Field::exact("TASK"),
        Field::exact(gen::pid_value(a)),
        Field::exact(gen::pid_value(b)),
        Field::formal("id"),
    ]);
    let mut wrong = 0;
    loop {
        let id = match h.take(&any_task) {
            Ok(t) => t.get(3).and_then(Value::as_int),
            Err(_) => None,
        };
        let Some(id) = id else {
            // Without an id there is nothing to answer; A's take times out
            // and is counted there.
            return wrong + 1;
        };
        wrong += u64::from(h.out(gen::mail("DONE", b, a, id)).is_err());
        if id == HANDOFF_STOP {
            return wrong;
        }
    }
}

/// One round trip at A: out the TASK, take the DONE that answers it.
fn round_trip<H: TupleSpace>(h: &H, id: i64) -> bool {
    let [a, b] = CLIENT_PIDS;
    let done = gen::mail("DONE", b, a, id);
    h.out(gen::mail("TASK", a, b, id)).is_ok()
        && h.take(&Template::exact(&done)).is_ok_and(|t| t == done)
}

fn handoff_a<H: TupleSpace>(
    h: &H,
    ids: &mut HandoffIds,
    start: Instant,
    window: Duration,
    limit: Option<usize>,
) -> Vec<Rec> {
    let mut recs = Vec::with_capacity(1 << 15);
    let mut trips = 0;
    loop {
        let t0 = Instant::now();
        let in_window = t0.duration_since(start) < window;
        if limit.map_or(!in_window, |n| trips >= n) {
            return recs;
        }
        let ok = match ids.next().expect("ids are endless") {
            HandoffStep::RoundTrip(id) => {
                trips += 1;
                round_trip(h, id)
            }
            HandoffStep::Forbidden => run_checked(h, gen::forbidden_attempt(CLIENT_PIDS[1])),
        };
        let t1 = Instant::now();
        recs.push(Rec {
            end_ns: t1.duration_since(start).as_nanos() as u64,
            lat_ns: t1.duration_since(t0).as_nanos() as f64,
            ops: 1,
            failed: u32::from(!ok),
        });
    }
}

/// A metric's value for a run — the median of its per-slice values — with
/// the lowest and the highest slice beside it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spread {
    pub value: f64,
    pub slice_min: f64,
    pub slice_max: f64,
}

impl Spread {
    fn of(slices: &[f64]) -> Spread {
        let (slice_min, slice_max) = stats::min_max(slices);
        Spread {
            value: stats::median(slices),
            slice_min,
            slice_max,
        }
    }
}

/// Everything one run of one workload measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Measured seconds, all windows together.
    pub window_s: f64,
    pub slices: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind the percentiles (ops, or blocks on
    /// `cycle.local`).
    pub samples: usize,
    pub op_p50_us: Spread,
    /// The 99th percentile over every sample of the run (the slices beside
    /// it are per-slice 99th percentiles).
    pub op_p99_us: Spread,
    pub ops_per_s: Spread,
    pub cpu_us_per_op: Spread,
    pub setup_s: f64,
    pub setup_runs: Vec<f64>,
    /// Layer metrics visible from outside a real run.
    pub ops_per_slot: f64,
    pub rebroadcasts_per_op: f64,
    pub fast_read_hit_share: f64,
    pub dropped_outbound: u64,
    /// Broken expectations other than wrong op results.
    pub violations: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

struct Booted<C: Cluster> {
    cluster: C,
    clients: Vec<Client<C::Handle>>,
    ids: HandoffIds,
}

/// Boot, connect, preload, prologue, warm-up: everything `setup_s` times.
fn set_up<C: Cluster>(w: &Workload, seed: u64, scratch: &Path) -> (Booted<C>, u64) {
    let mut cluster = C::boot(scratch);
    let (mix, payload) = match w.kind {
        Kind::Stream { mix, payload } => (mix, payload),
        Kind::Handoff => (Mix::Cycle, 16),
    };
    let mut clients: Vec<Client<C::Handle>> = (0..CLIENT_PIDS.len())
        .map(|c| Client {
            handle: cluster.handle(c),
            stream: Stream::new(mix, payload, seed, c),
        })
        .collect();
    let mut ids = HandoffIds::new(seed);
    let wrong = std::thread::scope(|s| {
        let preloads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let background = gen::background(seed, c).into_iter().map(|t| Step {
                        op: Op::Out(t),
                        expect: Expect::Done,
                    });
                    let mut wrong = run_all(&client.handle, background);
                    if let Kind::Stream { .. } = w.kind {
                        wrong += run_all(&client.handle, client.stream.prologue());
                        wrong += client.warm(WARM_OPS_PER_CLIENT);
                    }
                    wrong
                })
            })
            .collect();
        preloads
            .into_iter()
            .map(|t| t.join().expect("preload thread"))
            .sum::<u64>()
    });
    let wrong = wrong
        + match w.kind {
            Kind::Stream { .. } => 0,
            Kind::Handoff => {
                // Handles are shared by cloning, not by reference: they need
                // not be `Sync`.
                let (a, b) = (&clients[0].handle, clients[1].handle.clone());
                std::thread::scope(|s| {
                    let echo = s.spawn(move || handoff_b(&b));
                    let start = Instant::now();
                    let recs =
                        handoff_a(a, &mut ids, start, Duration::ZERO, Some(WARM_ROUND_TRIPS));
                    let stopped = round_trip(a, HANDOFF_STOP);
                    recs.iter().map(|r| u64::from(r.failed)).sum::<u64>()
                        + u64::from(!stopped)
                        + echo.join().expect("echo thread")
                })
            }
        };
    (
        Booted {
            cluster,
            clients,
            ids,
        },
        wrong,
    )
}

fn counters_of<H: ClientHandle>(clients: &[Client<H>]) -> Counters {
    clients
        .iter()
        .map(|c| c.handle.counters())
        .fold(Counters::default(), Counters::plus)
}

/// One slice of a measured window.
struct Slice {
    p50_us: f64,
    p99_us: f64,
    ops_per_s: f64,
    cpu_us_per_op: f64,
}

/// What one measured window gave.
struct Measured {
    slices: Vec<Slice>,
    /// Latencies of the correct ops, µs.
    latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Correct ops inside the window (fractional where a block straddles
    /// its end).
    good: f64,
    counters: Counters,
    slots: u64,
    dropped: u64,
}

/// Runs the closed loop for `window`, sampling process CPU at the `n_slices`
/// slice boundaries from this thread.
fn measure<C: Cluster>(
    w: &Workload,
    booted: &mut Booted<C>,
    window: Duration,
    n_slices: usize,
) -> Measured {
    let Booted {
        cluster,
        clients,
        ids,
    } = booted;
    let counters0 = counters_of(clients);
    let dropped0 = cluster.dropped_outbound();
    let exec0 = cluster.last_exec(0);
    // Far enough ahead that both client threads are waiting on it.
    let start = Instant::now() + Duration::from_millis(20);
    let wait_for_start = move || {
        if let Some(d) = start.checked_duration_since(Instant::now()) {
            std::thread::sleep(d);
        }
    };
    let slice = window / n_slices as u32;
    let (recs, cpu_us) = std::thread::scope(|s| {
        let workers: Vec<_> = match w.kind {
            Kind::Stream { .. } => clients
                .iter_mut()
                .map(|client| {
                    s.spawn(move || {
                        wait_for_start();
                        match w.deployment {
                            Deployment::Local => client.timed_blocks(start, window),
                            _ => client.timed_ops(start, window),
                        }
                    })
                })
                .collect(),
            Kind::Handoff => {
                let (a, b) = (clients[0].handle.clone(), clients[1].handle.clone());
                vec![
                    s.spawn(move || {
                        wait_for_start();
                        let mut recs = handoff_a(&a, ids, start, window, None);
                        if !round_trip(&a, HANDOFF_STOP) {
                            if let Some(last) = recs.last_mut() {
                                last.failed += 1;
                            }
                        }
                        recs
                    }),
                    // B's ops are not timed; a record of no ops carries its
                    // wrong answers into the run's failures.
                    s.spawn(move || {
                        let wrong = handoff_b(&b);
                        vec![Rec {
                            end_ns: 0,
                            lat_ns: 0.0,
                            ops: 0,
                            failed: wrong as u32,
                        }]
                    }),
                ]
            }
        };
        let mut cpu_us = Vec::with_capacity(n_slices + 1);
        for i in 0..=n_slices as u32 {
            if let Some(d) = (start + slice * i).checked_duration_since(Instant::now()) {
                std::thread::sleep(d);
            }
            cpu_us.push(stats::process_cpu_us());
        }
        let recs: Vec<Rec> = workers
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect();
        (recs, cpu_us)
    });

    let slice_ns = slice.as_nanos() as f64;
    let mut per_slice: Vec<(Vec<f64>, f64)> = vec![(Vec::new(), 0.0); n_slices];
    let mut latencies = Vec::with_capacity(recs.len());
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in &recs {
        attempted += u64::from(r.ops);
        failed += u64::from(r.failed);
        if r.ops == 0 {
            continue;
        }
        // A record's correct ops count in the slices it ran through, by
        // the share of its time spent in each: a block of thousands of ops
        // is not all credited to the slice it happened to end in.
        let ran_ns = r.lat_ns * f64::from(r.ops);
        let (begin, end) = (r.end_ns as f64 - ran_ns, r.end_ns as f64);
        for (i, (lats, good)) in per_slice.iter_mut().enumerate() {
            let (lo, hi) = (i as f64 * slice_ns, (i + 1) as f64 * slice_ns);
            let overlap = hi.min(end) - lo.max(begin);
            if overlap > 0.0 {
                *good += f64::from(r.ops - r.failed) * overlap / ran_ns;
            }
            if r.failed == 0 && (lo..hi).contains(&end) {
                lats.push(r.lat_ns / 1e3);
                latencies.push(r.lat_ns / 1e3);
            }
        }
    }
    let good = per_slice.iter().map(|(_, n)| n).sum();
    let slices = per_slice
        .iter_mut()
        .enumerate()
        .map(|(i, (lats, n))| {
            lats.sort_by(f64::total_cmp);
            Slice {
                p50_us: stats::quantile(lats, 0.5),
                p99_us: stats::quantile(lats, 0.99),
                ops_per_s: *n / slice.as_secs_f64(),
                cpu_us_per_op: (cpu_us[i + 1] - cpu_us[i]) / n.max(1.0),
            }
        })
        .collect();
    Measured {
        slices,
        latencies,
        attempted,
        failed,
        good,
        counters: counters_of(clients).minus(counters0),
        slots: cluster.last_exec(0).saturating_sub(exec0),
        dropped: cluster.dropped_outbound() - dropped0,
    }
}

/// Folds the windows of a run into its report. Every gated metric is the
/// median of its per-slice values: a burst of neighbour noise shorter than
/// half the run moves the slices it hits, not the value.
fn summarize(windows: Vec<Measured>, report: &mut Report) {
    let slices: Vec<&Slice> = windows.iter().flat_map(|m| &m.slices).collect();
    let column = |f: fn(&Slice) -> f64| -> Vec<f64> { slices.iter().map(|s| f(s)).collect() };
    report.slices = slices.len();
    report.op_p50_us = Spread::of(&column(|s| s.p50_us));
    report.ops_per_s = Spread::of(&column(|s| s.ops_per_s));
    report.cpu_us_per_op = Spread::of(&column(|s| s.cpu_us_per_op));
    let mut latencies: Vec<f64> = windows.iter().flat_map(|m| &m.latencies).copied().collect();
    latencies.sort_by(f64::total_cmp);
    report.samples = latencies.len();
    report.op_p99_us = Spread {
        value: stats::quantile(&latencies, 0.99),
        ..Spread::of(&column(|s| s.p99_us))
    };
    let total = |f: fn(&Measured) -> u64| -> u64 { windows.iter().map(f).sum() };
    report.attempted = total(|m| m.attempted);
    report.failed += total(|m| m.failed);
    let good = windows.iter().map(|m| m.good).sum::<f64>().max(1.0);
    let counters = windows
        .iter()
        .map(|m| m.counters)
        .fold(Counters::default(), Counters::plus);
    let slots = total(|m| m.slots);
    report.ops_per_slot = if slots > 0 {
        counters.ordered as f64 / slots as f64
    } else {
        0.0
    };
    report.rebroadcasts_per_op = counters.rebroadcasts as f64 / good;
    let reads = counters.fast_reads + counters.fast_read_fallbacks;
    report.fast_read_hit_share = if reads > 0 {
        counters.fast_reads as f64 / reads as f64
    } else {
        0.0
    };
    report.dropped_outbound = total(|m| m.dropped);
}

/// After the clients stopped: the space must be back to its preloaded
/// contents and the replicas must agree on it.
fn verify_final_state<C: Cluster>(booted: &mut Booted<C>, violations: &mut Vec<String>) {
    let Booted {
        cluster, clients, ..
    } = booted;
    for client in clients.iter() {
        let wrong = run_all(&client.handle, client.stream.epilogue());
        if wrong > 0 {
            violations.push(format!("{wrong} epilogue ops gave a wrong answer"));
        }
    }
    let h = &clients[0].handle;
    let count = |template: &Template| h.count(template).map_err(|e| e.to_string());
    for (tag, arity) in [
        ("JOB", 4),
        ("LOCK", 3),
        ("TASK", 4),
        ("DONE", 4),
        ("HOT", 4),
    ] {
        match count(&gen::channel_template(tag, arity)) {
            Ok(0) => {}
            Ok(n) => violations.push(format!("{n} {tag} tuples left in the space")),
            Err(e) => violations.push(format!("count({tag}) failed: {e}")),
        }
    }
    let background: Result<usize, String> = (0..gen::BACKGROUND_CHANNELS)
        .map(|c| count(&gen::channel_template(&gen::background_tag(c), 4)))
        .sum();
    match background {
        Ok(n) if n == gen::BACKGROUND_TUPLES => {}
        Ok(n) => violations.push(format!(
            "{n} background tuples, expected {}",
            gen::BACKGROUND_TUPLES
        )),
        Err(e) => violations.push(format!("count(background) failed: {e}")),
    }
    let n = cluster.replicas();
    if n == 0 {
        return;
    }
    // No client is active: once every replica has executed the same slot
    // their states must be byte-for-byte the same.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let execs: Vec<u64> = (0..n).map(|i| cluster.last_exec(i)).collect();
        let digests: Vec<Digest> = (0..n).map(|i| cluster.state_digest(i)).collect();
        let settled = (0..n).all(|i| cluster.last_exec(i) == execs[0]);
        if settled {
            if digests.iter().any(|d| *d != digests[0]) {
                violations.push(format!("state digests differ at last_exec {}", execs[0]));
            }
            return;
        }
        if Instant::now() >= deadline {
            violations.push(format!("last_exec never converged: {execs:?}"));
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// How a run spends its measured seconds.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The workload is set up this many times, each set-up followed by an
    /// equal share of the measured seconds: a run then samples a longer
    /// stretch of the machine's moods than one window would, and `setup_s`
    /// is a median.
    pub windows: usize,
    pub slices_per_window: usize,
    /// While the set-ups so far took less than this in total, set up again
    /// (without a window) so that the median of a millisecond-scale set-up
    /// rests on more than three samples; at most `max_extra_setups` times.
    pub extra_setup_budget: Duration,
    pub max_extra_setups: usize,
}

impl Plan {
    /// What the driver's runs and `run` use.
    pub const THREE_WINDOWS: Plan = Plan {
        windows: 3,
        slices_per_window: 3,
        extra_setup_budget: Duration::from_secs(1),
        max_extra_setups: 38,
    };
    /// One set-up, one window: the traced run and `--smoke`.
    pub const ONE_WINDOW: Plan = Plan {
        windows: 1,
        slices_per_window: 5,
        extra_setup_budget: Duration::ZERO,
        max_extra_setups: 0,
    };
}

fn run_on<C: Cluster>(
    w: &Workload,
    seed: u64,
    seconds: Duration,
    plan: Plan,
    scratch: &Path,
) -> Report {
    let mut report = Report::default();
    let mut windows = Vec::with_capacity(plan.windows);
    let window = seconds / plan.windows as u32;
    loop {
        let rep = report.setup_runs.len();
        let t0 = Instant::now();
        let (mut booted, wrong) = set_up::<C>(w, seed, &scratch.join(format!("{}-{rep}", w.name)));
        report.setup_runs.push(t0.elapsed().as_secs_f64());
        if wrong > 0 {
            report
                .violations
                .push(format!("{wrong} set-up ops gave a wrong answer"));
        }
        if rep < plan.windows {
            windows.push(measure(w, &mut booted, window, plan.slices_per_window));
        }
        verify_final_state(&mut booted, &mut report.violations);
        drop(booted.clients);
        if let Err(e) = booted.cluster.shutdown() {
            report.violations.push(e);
        }
        let reps = rep + 1;
        let extra = reps - plan.windows.min(reps);
        let setting_up_is_quick =
            report.setup_runs.iter().sum::<f64>() < plan.extra_setup_budget.as_secs_f64();
        if reps >= plan.windows && !(setting_up_is_quick && extra < plan.max_extra_setups) {
            break;
        }
    }
    report.window_s = window.as_secs_f64() * plan.windows as f64;
    report.setup_s = stats::median(&report.setup_runs);
    summarize(windows, &mut report);
    report
}

/// Sets the workload up, measures, checks every answer and the final state,
/// and tears everything down — as often as `plan` says.
pub fn run(w: &Workload, seed: u64, seconds: Duration, plan: Plan, scratch: &Path) -> Report {
    match w.deployment {
        Deployment::Local => run_on::<LocalDeployment>(w, seed, seconds, plan, scratch),
        Deployment::Threads => run_on::<ThreadedCluster>(w, seed, seconds, plan, scratch),
        Deployment::TcpWal => run_on::<TcpWalDeployment>(w, seed, seconds, plan, scratch),
    }
}
