//! Single layers timed by calling them directly, on the same ops the
//! workloads issue: the reference monitor per rule, the sequential space,
//! its Merkle root, the service, the WAL, the codec, and one transport hop.
//! These are the parts of `Replica::on_message` that cannot be told apart
//! from outside it.

use crate::gen::{self, Expect, Op, Step, CLIENT_PIDS};
use crate::workloads::owner_policy;
use peats_codec::{crc32, Decode, Encode};
use peats_net::{TcpConfig, TcpTransport};
use peats_netsim::{Mailbox, ThreadNet, Transport};
use peats_policy::{Invocation, OpCall, PolicyParams, ReferenceMonitor};
use peats_replication::{DurableConfig, DurableStore, Message, PeatsService, Request, WalRecord};
use peats_tuplespace::{Field, SequentialSpace, Template, Tuple};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

/// Named samples in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: impl Into<String>, ns: f64) {
        self.0.entry(name.into()).or_default().push(ns);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| crate::stats::median(v))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }

    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }
}

/// What one `Instant::now()` pair costs with nothing between: taken off
/// every directly timed call, which at ~100 ns would otherwise be a third
/// clock.
pub fn clock_overhead_ns() -> f64 {
    let mut pairs: Vec<f64> = (0..2001)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            t1.duration_since(t0).as_nanos() as f64
        })
        .collect();
    pairs.sort_by(f64::total_cmp);
    pairs[pairs.len() / 2]
}

struct Stopwatch {
    overhead_ns: f64,
}

impl Stopwatch {
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let ns = t0.elapsed().as_nanos() as f64;
        (r, (ns - self.overhead_ns).max(0.0))
    }
}

/// The rule of `owner.peats` that decides `step`.
fn rule_of(step: &Step) -> &'static str {
    match (&step.expect, &step.op) {
        (Expect::Denied, _) => "denied",
        (_, Op::Out(_)) => "Rout",
        (_, Op::Cas(..)) => "Rcas",
        (_, Op::Rdp(_)) => "Rread",
        (_, Op::Inp(t)) if t.len() == 3 => "RinpLock",
        (_, Op::Inp(_)) => "RinpOwn",
    }
}

/// Invocations granted by the two rules no stream exercises (`take` on
/// `LocalPeats` and the hand-off's registration probe).
fn unexercised_rules() -> [(&'static str, OpCall<'static>); 2] {
    let [a, b] = CLIENT_PIDS;
    let mine = Template::new(vec![
        Field::exact("QUIET0"),
        Field::exact(gen::pid_value(a)),
        Field::any(),
        Field::any(),
    ]);
    let to_me = Template::new(vec![
        Field::exact("TASK"),
        Field::exact(gen::pid_value(b)),
        Field::exact(gen::pid_value(a)),
        Field::any(),
    ]);
    [
        ("RinOwn", OpCall::take(mine)),
        ("RinpTo", OpCall::inp(to_me)),
    ]
}

/// Runs `steps` (client 0's stream) against a monitor, a space and a
/// service preloaded with `background`, and — when `wal_dir` is given —
/// appends every ordered op to a `DurableStore` with fsync on. Every call
/// is timed on its own; the first `untimed` steps only bring the state to
/// where the timed ones start. Returns the samples and the WAL bytes the
/// timed ops wrote.
pub fn direct_pass(
    steps: &[Step],
    untimed: usize,
    background: &[Tuple],
    wal_dir: Option<&Path>,
) -> std::io::Result<(Samples, u64)> {
    let pid = CLIENT_PIDS[0];
    let watch = Stopwatch {
        overhead_ns: clock_overhead_ns(),
    };
    let mut samples = Samples::default();
    let monitor = ReferenceMonitor::new(owner_policy(), PolicyParams::new())
        .expect("owner.peats is analysis-clean");
    let mut space = SequentialSpace::new();
    let mut service = PeatsService::new(owner_policy(), PolicyParams::new())
        .expect("owner.peats is analysis-clean");
    for t in background {
        space.out(t.clone());
        service.execute(
            t.get(1).and_then(|v| v.as_int()).unwrap_or(0) as u64,
            &OpCall::out(t),
        );
    }
    space.state_root();
    let mut store = match wal_dir {
        Some(dir) => Some(
            DurableStore::open(
                dir,
                DurableConfig {
                    fsync: true,
                    ..DurableConfig::default()
                },
            )?
            .0,
        ),
        None => None,
    };

    for (i, step) in steps.iter().enumerate() {
        if i == untimed {
            // What ran so far only brought the state to where the timed
            // ops start.
            samples = Samples::default();
            space.state_root();
        }
        let seq = i as u64 + 1;
        let call = step.op.to_call();
        let msg = Message::Request(Request::call(pid, seq, call.clone()));

        let (bytes, ns) = watch.time(|| msg.to_bytes());
        samples.add("codec.encode_ns", ns);
        let (_, ns) = watch.time(|| Message::from_bytes(&bytes).is_ok());
        samples.add("codec.decode_ns", ns);

        let (granted, ns) = watch.time(|| {
            monitor
                .permits(&Invocation::new(pid, call.as_borrowed()), &space)
                .is_ok()
        });
        samples.add(format!("policy.permits_ns.{}", rule_of(step)), ns);
        if granted {
            match step.op.clone() {
                Op::Out(t) => samples.add("tuplespace.out_ns", watch.time(|| space.out(t)).1),
                Op::Cas(tmpl, t) => {
                    samples.add("tuplespace.cas_ns", watch.time(|| space.cas(&tmpl, t)).1);
                }
                Op::Inp(tmpl) => {
                    samples.add("tuplespace.inp_ns", watch.time(|| space.inp(&tmpl)).1)
                }
                Op::Rdp(tmpl) => {
                    samples.add("tuplespace.rdp_ns", watch.time(|| space.rdp(&tmpl)).1)
                }
            }
            if !step.op.is_read() {
                samples.add(
                    "tuplespace.merkle_update_ns",
                    watch.time(|| space.state_root()).1,
                );
            }
        }

        if step.op.is_read() {
            let ns = watch.time(|| service.execute_read(pid, &call)).1;
            samples.add("service.execute_read_ns", ns);
        } else {
            let ns = watch.time(|| service.execute(pid, &call)).1;
            samples.add("service.execute_ns", ns);
        }

        if step.op.is_read() || i < untimed {
            continue;
        }
        let batch = [Request::call(pid, seq, call)];
        let record = WalRecord::Batch {
            seq,
            batch: batch.to_vec(),
        }
        .to_bytes();
        samples.add("codec.crc32_ns", watch.time(|| crc32(&record)).1);
        if let Some(store) = store.as_mut() {
            let (r, ns) = watch.time(|| store.append_batch(seq, &batch));
            r?;
            samples.add("wal.append_ns", ns);
            let (r, ns) = watch.time(|| store.sync());
            r?;
            samples.add("wal.sync_ns", ns);
        }
    }

    for (rule, call) in unexercised_rules() {
        let inv = Invocation::new(pid, call);
        for _ in 0..256 {
            let (_, ns) = watch.time(|| monitor.permits(&inv, &space).is_ok());
            samples.add(format!("policy.permits_ns.{rule}"), ns);
        }
    }

    drop(store);
    let mut wal_bytes = 0;
    if let Some(dir) = wal_dir {
        for entry in std::fs::read_dir(dir)? {
            wal_bytes += entry?.metadata()?.len();
        }
    }
    Ok((samples, wal_bytes))
}

const HOP_WARM_ROUNDS: usize = 64;
const HOP_TIMEOUT: Duration = Duration::from_secs(5);

/// Ping-pongs `payload_len` bytes between nodes 0 and 1 and returns the
/// median one-way time (half a round trip) in µs; `None` if the link never
/// came up.
fn ping_pong<T: Transport>(
    net0: T,
    box0: T::Mailbox,
    net1: T,
    box1: T::Mailbox,
    payload_len: usize,
    rounds: usize,
) -> Option<f64> {
    let payload = vec![0xA5u8; payload_len];
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            // An empty frame ends the echo.
            while let Ok(Some((_, bytes))) = box1.recv_timeout(HOP_TIMEOUT) {
                if bytes.is_empty() {
                    break;
                }
                net1.send(1, 0, bytes);
            }
        });
        let mut halves = Vec::with_capacity(rounds);
        let mut up = true;
        for round in 0..HOP_WARM_ROUNDS + rounds {
            let t0 = Instant::now();
            net0.send(0, 1, payload.clone());
            if !matches!(box0.recv_timeout(HOP_TIMEOUT), Ok(Some(_))) {
                up = false;
                break;
            }
            if round >= HOP_WARM_ROUNDS {
                halves.push(t0.elapsed().as_nanos() as f64 / 2e3);
            }
        }
        net0.send(0, 1, Vec::new());
        let _ = echo.join();
        up.then(|| crate::stats::median(&halves))
    })
}

/// One hop over in-memory channels.
pub fn hop_us_threads(payload_len: usize, rounds: usize) -> Option<f64> {
    let (net, mut boxes) = ThreadNet::new(2);
    let box1 = boxes.pop()?;
    let box0 = boxes.pop()?;
    ping_pong(net.clone(), box0, net, box1, payload_len, rounds)
}

/// One hop over a loopback TCP connection.
pub fn hop_us_tcp(payload_len: usize, rounds: usize) -> Option<f64> {
    let l0 = TcpListener::bind("127.0.0.1:0").ok()?;
    let l1 = TcpListener::bind("127.0.0.1:0").ok()?;
    let peers: BTreeMap<u32, std::net::SocketAddr> =
        [(0, l0.local_addr().ok()?), (1, l1.local_addr().ok()?)].into();
    let (net0, box0) =
        TcpTransport::from_listener(0, l0, peers.clone(), TcpConfig::default()).ok()?;
    let (net1, box1) = TcpTransport::from_listener(1, l1, peers, TcpConfig::default()).ok()?;
    let hop = ping_pong(net0.clone(), box0, net1.clone(), box1, payload_len, rounds);
    net0.shutdown();
    net1.shutdown();
    hop
}
