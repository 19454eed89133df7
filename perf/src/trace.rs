//! The traced per-layer pass: the inline cluster run untraced and traced on
//! a workload's op stream, the direct layer calls on the same ops, and the
//! budget table that adds them up beside the real workload's CPU per op.

use crate::gen::{self, HandoffIds, HandoffStep, Mix, Step, Stream};
use crate::inline::{Counts, InlineCluster, Span, N_REPLICAS};
use crate::layers::{self, Samples};
use crate::stats;
use crate::workloads::{self, Deployment, Kind, Plan, Report, Workload, F};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Ops of the stream the inline cluster runs per pass. A fixed count, so
/// that every per-op count repeats exactly for a seed.
pub const INLINE_OPS: usize = 512;
pub const INLINE_OPS_SMOKE: usize = 64;
/// Ops run before the counted ones, after the preload.
const INLINE_WARM_OPS: usize = 64;
const HOP_ROUNDS: usize = 2000;

/// `(name, unit, better)` of every per-layer metric, in print order.
/// A value of 0 means the workload does not exercise that layer.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // From the real run, through client- and cluster-visible calls.
    ("client.op_p99_us", "us", "lower"),
    ("replication.ops_per_slot", "count", "higher"),
    ("client.rebroadcasts_per_op", "count", "lower"),
    ("client.fast_read_hit_share", "share", "higher"),
    ("net.dropped_outbound", "count", "lower"),
    ("transport.hop_us", "us", "lower"),
    ("transport.residual_us", "us", "lower"),
    // The inline cluster, untraced: one thread's CPU and wall time per op
    // (the wall includes waiting for fsync), and what tracing added.
    ("inline.cpu_us_per_op", "us", "lower"),
    ("inline.wall_us_per_op", "us", "lower"),
    ("trace.overhead_share", "share", "lower"),
    // Counts per committed op; they repeat exactly for a seed.
    ("auth.seals_per_op", "count", "lower"),
    ("auth.opens_per_op", "count", "lower"),
    ("auth.bytes_macd_per_op", "B", "lower"),
    ("codec.wire_bytes_per_op", "B", "lower"),
    ("replication.msgs_per_op", "count", "lower"),
    ("replication.msgs_per_op.request", "count", "lower"),
    ("replication.msgs_per_op.pre-prepare", "count", "lower"),
    ("replication.msgs_per_op.prepare", "count", "lower"),
    ("replication.msgs_per_op.commit", "count", "lower"),
    ("replication.msgs_per_op.reply", "count", "lower"),
    ("replication.msgs_per_op.checkpoint", "count", "lower"),
    ("replication.msgs_per_op.read-request", "count", "lower"),
    ("replication.msgs_per_op.read-reply", "count", "lower"),
    ("replication.msgs_per_op.wake", "count", "lower"),
    ("wal.appends_per_op", "count", "lower"),
    ("wal.syncs_per_op", "count", "lower"),
    ("wal.bytes_per_op", "B", "lower"),
    // Median time per call.
    ("auth.seal_ns", "ns", "lower"),
    ("auth.open_ns", "ns", "lower"),
    ("codec.encode_ns", "ns", "lower"),
    ("codec.decode_ns", "ns", "lower"),
    ("codec.crc32_ns", "ns", "lower"),
    ("replication.on_message_ns", "ns", "lower"),
    ("replication.on_message_ns.request", "ns", "lower"),
    ("replication.on_message_ns.pre-prepare", "ns", "lower"),
    ("replication.on_message_ns.prepare", "ns", "lower"),
    ("replication.on_message_ns.commit", "ns", "lower"),
    ("replication.on_message_ns.checkpoint", "ns", "lower"),
    ("replication.on_message_ns.read-request", "ns", "lower"),
    ("replication.client_vote_ns", "ns", "lower"),
    ("service.execute_ns", "ns", "lower"),
    ("service.execute_read_ns", "ns", "lower"),
    ("policy.permits_ns.Rread", "ns", "lower"),
    ("policy.permits_ns.Rout", "ns", "lower"),
    ("policy.permits_ns.RinpOwn", "ns", "lower"),
    ("policy.permits_ns.RinOwn", "ns", "lower"),
    ("policy.permits_ns.RinpTo", "ns", "lower"),
    ("policy.permits_ns.RinpLock", "ns", "lower"),
    ("policy.permits_ns.Rcas", "ns", "lower"),
    ("policy.permits_ns.denied", "ns", "lower"),
    ("tuplespace.out_ns", "ns", "lower"),
    ("tuplespace.cas_ns", "ns", "lower"),
    ("tuplespace.inp_ns", "ns", "lower"),
    ("tuplespace.rdp_ns", "ns", "lower"),
    ("tuplespace.merkle_update_ns", "ns", "lower"),
    ("wal.append_ns", "ns", "lower"),
    ("wal.sync_ns", "ns", "lower"),
    // The budget: wall µs per op by layer in the traced pass.
    ("budget.auth_us", "us", "lower"),
    ("budget.codec_us", "us", "lower"),
    ("budget.replication_us", "us", "lower"),
    ("budget.service_us", "us", "lower"),
    ("budget.wal_us", "us", "lower"),
    ("budget.other_us", "us", "lower"),
];

/// Per-layer metric values, every name of [`PER_LAYER`] present.
pub type Layers = BTreeMap<&'static str, f64>;

fn empty_layers() -> Layers {
    PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect()
}

fn set(layers: &mut Layers, name: &str, value: f64) {
    *layers
        .get_mut(name)
        .unwrap_or_else(|| panic!("`{name}` is not a declared per-layer metric")) = value;
}

/// The directly called layers report under their metric names.
fn set_direct_medians(layers: &mut Layers, direct: &Samples) {
    for (name, samples) in &direct.0 {
        set(layers, name, stats::median(samples));
    }
}

/// What the inline cluster is fed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InlineStream {
    Ops { mix: Mix, payload: usize },
    Handoff,
}

impl InlineStream {
    pub fn name(&self) -> &'static str {
        match self {
            InlineStream::Ops {
                mix: Mix::Cycle,
                payload: 4096,
            } => "cycle-4k",
            InlineStream::Ops {
                mix: Mix::Cycle, ..
            } => "cycle",
            InlineStream::Ops {
                mix: Mix::ReadMostly,
                ..
            } => "read-mostly",
            InlineStream::Handoff => "handoff",
        }
    }
}

/// One pass of the inline cluster over `n_ops` ops.
pub struct InlinePass {
    pub counts: Counts,
    pub wall_ns: f64,
    /// CPU time of the thread over the same ops (the wall time where the
    /// kernel keeps no per-thread clock).
    pub cpu_ns: f64,
    pub spans: Vec<Span>,
    pub failed: u64,
}

/// Boots the inline cluster, preloads it like every deployment, and runs
/// `n_ops` ops of the stream. `trace_file` makes it the traced pass.
pub fn inline_pass(
    stream: InlineStream,
    seed: u64,
    n_ops: usize,
    wal_dir: Option<&Path>,
    trace_file: Option<&Path>,
) -> std::io::Result<InlinePass> {
    let mut cluster = InlineCluster::new(wal_dir, trace_file.is_some())?;
    let mut failed = 0u64;
    for client in 0..gen::CLIENT_PIDS.len() {
        for t in gen::background(seed, client) {
            let step = Step {
                op: gen::Op::Out(t),
                expect: gen::Expect::Done,
            };
            failed += u64::from(!cluster.run_step(client, &step));
        }
    }
    let (wall_ns, cpu_ns);
    let clocks = || (Instant::now(), stats::thread_cpu_ns());
    let since = |(t0, cpu0): (Instant, Option<f64>)| {
        let wall = t0.elapsed().as_nanos() as f64;
        let cpu = stats::thread_cpu_ns()
            .zip(cpu0)
            .map_or(wall, |(c1, c0)| c1 - c0);
        (wall, cpu)
    };
    match stream {
        InlineStream::Ops { mix, payload } => {
            let mut ops = Stream::new(mix, payload, seed, 0);
            for step in ops.prologue() {
                failed += u64::from(!cluster.run_step(0, &step));
            }
            for step in ops.by_ref().take(INLINE_WARM_OPS) {
                failed += u64::from(!cluster.run_step(0, &step));
            }
            cluster.reset_measurement();
            let t0 = clocks();
            for step in ops.by_ref().take(n_ops) {
                failed += u64::from(!cluster.run_step(0, &step));
            }
            (wall_ns, cpu_ns) = since(t0);
        }
        InlineStream::Handoff => {
            let mut ids = HandoffIds::new(seed).filter_map(|s| match s {
                HandoffStep::RoundTrip(id) => Some(id),
                HandoffStep::Forbidden => None,
            });
            for id in ids.by_ref().take(INLINE_WARM_OPS / 4) {
                failed += u64::from(!cluster.run_handoff(id));
            }
            cluster.reset_measurement();
            let t0 = clocks();
            for id in ids.take(n_ops) {
                failed += u64::from(!cluster.run_handoff(id));
            }
            (wall_ns, cpu_ns) = since(t0);
        }
    }
    let execs = cluster.last_execs();
    if execs.iter().any(|e| *e != execs[0]) {
        failed += 1;
    }
    let (counts, tracer) = cluster.finish();
    if let Some(path) = trace_file {
        tracer.write_jsonl(path)?;
    }
    Ok(InlinePass {
        counts,
        wall_ns,
        cpu_ns,
        spans: tracer.spans,
        failed,
    })
}

/// The inline cluster's side of a trace: both passes and the direct calls.
pub struct InlineResult {
    pub layers: Layers,
    pub failed: u64,
    /// The rows of the budget table, for printing.
    pub rows: Vec<BudgetRow>,
}

#[derive(Clone, Debug)]
pub struct BudgetRow {
    pub name: String,
    pub calls_per_op: f64,
    pub median_ns: f64,
    pub us_per_op: f64,
}

/// Runs the stream through the inline cluster untraced, then traced, then
/// through the directly called layers, and fills in every metric the three
/// give. `wal` attaches a `DurableStore` (fsync on) to each replica.
pub fn trace_stream(
    stream: InlineStream,
    seed: u64,
    n_ops: usize,
    wal: bool,
    scratch: &Path,
    trace_file: &Path,
) -> std::io::Result<InlineResult> {
    let dir = |label: &str| scratch.join(format!("inline-{}-{label}", stream.name()));
    let wal_dir = |label: &str| wal.then(|| dir(label));
    let cleanup = |label: &str| {
        if wal {
            let _ = std::fs::remove_dir_all(dir(label));
        }
    };

    let untraced = inline_pass(stream, seed, n_ops, wal_dir("untraced").as_deref(), None);
    cleanup("untraced");
    let untraced = untraced?;
    let traced = inline_pass(
        stream,
        seed,
        n_ops,
        wal_dir("traced").as_deref(),
        Some(trace_file),
    );
    cleanup("traced");
    let traced = traced?;
    let mut failed = untraced.failed + traced.failed;
    if untraced.counts != traced.counts {
        // The two passes run the same ops on the same code: any
        // difference in what they counted is a bug in the benchmark.
        failed += 1;
    }

    // A span's two clock reads are inside it; take one pair's cost off.
    let clock_ns = layers::clock_overhead_ns();
    let mut spans = Samples::default();
    for s in traced
        .spans
        .iter()
        .filter(|s| s.name != "op" && s.name != "deliver")
    {
        let ns = (s.ns() - clock_ns).max(0.0);
        spans.add(s.name, ns);
        if !s.kind.is_empty() {
            spans.add(format!("{}.{}", s.name, s.kind), ns);
        }
    }

    let (direct, wal_bytes) = match stream {
        InlineStream::Ops { mix, payload } => {
            let mut ops = Stream::new(mix, payload, seed, 0);
            let mut background: Vec<_> = (0..gen::CLIENT_PIDS.len())
                .flat_map(|c| gen::background(seed, c))
                .collect();
            // The hot tuple of a read-mostly stream is part of the state.
            background.extend(ops.prologue().into_iter().filter_map(|s| match s.op {
                gen::Op::Out(t) => Some(t),
                _ => None,
            }));
            let steps: Vec<Step> = ops.by_ref().take(INLINE_WARM_OPS + n_ops).collect();
            let r = layers::direct_pass(
                &steps,
                INLINE_WARM_OPS,
                &background,
                wal_dir("direct").as_deref(),
            );
            cleanup("direct");
            r?
        }
        InlineStream::Handoff => (Samples::default(), 0),
    };

    let ops = traced.counts.ops.max(1) as f64;
    let c = &traced.counts;
    let mut layers = empty_layers();
    set(
        &mut layers,
        "inline.cpu_us_per_op",
        untraced.cpu_ns / ops / 1e3,
    );
    set(
        &mut layers,
        "inline.wall_us_per_op",
        untraced.wall_ns / ops / 1e3,
    );
    set(
        &mut layers,
        "trace.overhead_share",
        (traced.wall_ns - untraced.wall_ns) / untraced.wall_ns,
    );
    set(&mut layers, "auth.seals_per_op", c.seals as f64 / ops);
    set(&mut layers, "auth.opens_per_op", c.opens as f64 / ops);
    set(
        &mut layers,
        "auth.bytes_macd_per_op",
        c.bytes_macd as f64 / ops,
    );
    set(
        &mut layers,
        "codec.wire_bytes_per_op",
        c.wire_bytes as f64 / ops,
    );
    set(
        &mut layers,
        "replication.msgs_per_op",
        c.msgs.values().sum::<u64>() as f64 / ops,
    );
    for (kind, n) in &c.msgs {
        let name = format!("replication.msgs_per_op.{kind}");
        if layers.contains_key(name.as_str()) {
            set(&mut layers, &name, *n as f64 / ops);
        }
    }
    set(
        &mut layers,
        "wal.appends_per_op",
        c.wal_appends as f64 / ops,
    );
    set(&mut layers, "wal.syncs_per_op", c.wal_syncs as f64 / ops);
    // The direct pass logs each ordered op once; every replica logs it.
    set(
        &mut layers,
        "wal.bytes_per_op",
        wal_bytes as f64 * N_REPLICAS as f64 / ops,
    );

    // Medians per call: the direct calls first, then what the spans saw
    // (for the message codec that is every message kind of the stream, not
    // the request alone).
    set_direct_medians(&mut layers, &direct);
    for (name, _, _) in PER_LAYER {
        if let Some(kind) = name.strip_prefix("replication.on_message_ns.") {
            let median = spans.median(&format!("replication.on_message.{kind}"));
            set(&mut layers, name, median);
        }
    }
    for (name, span) in [
        ("auth.seal_ns", "auth.seal"),
        ("auth.open_ns", "auth.open"),
        ("codec.encode_ns", "codec.encode_message"),
        ("codec.decode_ns", "codec.decode_message"),
        ("replication.on_message_ns", "replication.on_message"),
        ("replication.client_vote_ns", "replication.client_vote"),
    ] {
        set(&mut layers, name, spans.median(span));
    }

    // The budget, µs per op. Spans on the path, grouped by the layer that
    // did the work; what `seal`/`open`/`on_message` hide is split off with
    // the side measurements (message codec re-done in the traced pass,
    // service and WAL called directly on the same ops). Every replica
    // executes and logs each ordered op; a fast read is executed by the
    // f+1 replicas asked.
    let per_op = |ns: f64| ns / ops / 1e3;
    let (all, quorum) = (N_REPLICAS as f64, (F + 1) as f64);
    let message_codec_us =
        per_op(spans.sum("codec.encode_message") + spans.sum("codec.decode_message"));
    let envelope_codec_us = per_op(spans.sum("codec.encode") + spans.sum("codec.decode"));
    let auth_us = per_op(spans.sum("auth.seal") + spans.sum("auth.open")) - message_codec_us;
    let service_us = per_op(
        direct.sum("service.execute_ns") * all + direct.sum("service.execute_read_ns") * quorum,
    );
    let wal_us = per_op((direct.sum("wal.append_ns") + direct.sum("wal.sync_ns")) * all);
    let replication_us =
        per_op(spans.sum("replication.on_message") + spans.sum("replication.client_vote"))
            - service_us
            - wal_us;
    let codec_us = message_codec_us + envelope_codec_us;
    // What the traced pass spent outside every span: moving frames, and
    // the tracer itself.
    let other_us = per_op(traced.wall_ns)
        - message_codec_us
        - (auth_us + codec_us + replication_us + service_us + wal_us);
    set(&mut layers, "budget.auth_us", auth_us);
    set(&mut layers, "budget.codec_us", codec_us);
    set(&mut layers, "budget.replication_us", replication_us);
    set(&mut layers, "budget.service_us", service_us);
    set(&mut layers, "budget.wal_us", wal_us);
    set(&mut layers, "budget.other_us", other_us);

    let span_row = |label: &str, key: &str| BudgetRow {
        name: label.to_owned(),
        calls_per_op: spans.count(key) as f64 / ops,
        median_ns: spans.median(key),
        us_per_op: per_op(spans.sum(key)),
    };
    let direct_row = |label: &str, key: &str, copies: f64| BudgetRow {
        name: label.to_owned(),
        calls_per_op: direct.count(key) as f64 * copies / ops,
        median_ns: direct.median(key),
        us_per_op: per_op(direct.sum(key) * copies),
    };
    let mut rows = vec![
        span_row("auth.seal (incl. message encode)", "auth.seal"),
        span_row("auth.open (incl. message decode)", "auth.open"),
        span_row("  of which codec: message encode", "codec.encode_message"),
        span_row("  of which codec: message decode", "codec.decode_message"),
        span_row("codec: envelope encode", "codec.encode"),
        span_row("codec: envelope decode", "codec.decode"),
        span_row(
            "replication.on_message (incl. service, wal)",
            "replication.on_message",
        ),
    ];
    // By message kind: a median hides what the one commit in 128 that
    // persists a checkpoint costs; the sum does not.
    for kind in c.msgs.keys() {
        let key = format!("replication.on_message.{kind}");
        if spans.count(&key) > 0 {
            rows.push(span_row(&format!("  on_message({kind})"), &key));
        }
    }
    rows.extend([
        direct_row("  of which service.execute", "service.execute_ns", all),
        direct_row(
            "  of which service.execute_read",
            "service.execute_read_ns",
            quorum,
        ),
        direct_row("  of which wal.append", "wal.append_ns", all),
        direct_row(
            "  of which wal.sync (wall, waits for the disk)",
            "wal.sync_ns",
            all,
        ),
        span_row("replication.client_vote", "replication.client_vote"),
    ]);
    Ok(InlineResult {
        layers,
        failed,
        rows,
    })
}

/// The inline stream and WAL setting that mirror a workload; `None` for
/// the deployment with no replication at all.
pub fn inline_for(w: &Workload) -> Option<(InlineStream, bool)> {
    let wal = match w.deployment {
        Deployment::Local => return None,
        Deployment::Threads => false,
        Deployment::TcpWal => true,
    };
    Some(match w.kind {
        Kind::Stream { mix, payload } => (InlineStream::Ops { mix, payload }, wal),
        Kind::Handoff => (InlineStream::Handoff, wal),
    })
}

/// Everything the traced run of one workload produced.
pub struct TraceReport {
    pub real: Report,
    pub layers: Layers,
    pub rows: Vec<BudgetRow>,
    pub failed: u64,
}

/// The traced run of one workload: a real run for what clients and the
/// cluster can see, then the inline and direct passes on the same stream.
pub fn trace_workload(
    w: &Workload,
    seed: u64,
    window: Duration,
    n_ops: usize,
    scratch: &Path,
    trace_dir: &Path,
) -> std::io::Result<TraceReport> {
    let real = workloads::run(w, seed, window, Plan::ONE_WINDOW, scratch);
    let (mut layers, rows, mut failed) = match inline_for(w) {
        Some((stream, wal)) => {
            let file = trace_dir.join(format!("trace-{}.jsonl", w.name));
            let r = trace_stream(stream, seed, n_ops, wal, scratch, &file)?;
            (r.layers, r.rows, r.failed)
        }
        None => {
            // No replication to trace: the direct calls alone.
            let Kind::Stream { mix, payload } = w.kind else {
                unreachable!("the local deployment runs a stream");
            };
            let background: Vec<_> = (0..gen::CLIENT_PIDS.len())
                .flat_map(|c| gen::background(seed, c))
                .collect();
            let steps: Vec<Step> = Stream::new(mix, payload, seed, 0).take(n_ops).collect();
            let (direct, _) = layers::direct_pass(&steps, 0, &background, None)?;
            let mut layers = empty_layers();
            set_direct_medians(&mut layers, &direct);
            (layers, Vec::new(), 0)
        }
    };
    failed += real.failed + real.violations.len() as u64;

    set(&mut layers, "client.op_p99_us", real.op_p99_us.value);
    set(&mut layers, "replication.ops_per_slot", real.ops_per_slot);
    set(
        &mut layers,
        "client.rebroadcasts_per_op",
        real.rebroadcasts_per_op,
    );
    set(
        &mut layers,
        "client.fast_read_hit_share",
        real.fast_read_hit_share,
    );
    set(
        &mut layers,
        "net.dropped_outbound",
        real.dropped_outbound as f64,
    );
    let payload = match w.kind {
        Kind::Stream { payload: 4096, .. } => 4096,
        _ => 128,
    };
    let hop = match w.deployment {
        Deployment::Local => Some(0.0),
        Deployment::Threads => layers::hop_us_threads(payload, HOP_ROUNDS),
        Deployment::TcpWal => layers::hop_us_tcp(payload, HOP_ROUNDS),
    };
    match hop {
        Some(us) => set(&mut layers, "transport.hop_us", us),
        None => failed += 1,
    }
    if layers["inline.cpu_us_per_op"] > 0.0 {
        let residual = real.cpu_us_per_op.value - layers["inline.cpu_us_per_op"];
        set(&mut layers, "transport.residual_us", residual);
    }
    Ok(TraceReport {
        real,
        layers,
        rows,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let exe = std::env::current_exe().expect("path of the test binary");
        exe.parent()
            .expect("binary has a directory")
            .join(format!("peats-perf-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn per_layer_names_are_declared_once() {
        let mut names: Vec<_> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn two_traced_passes_with_one_seed_count_the_same() {
        let dir = scratch("counts");
        let streams = [
            (
                InlineStream::Ops {
                    mix: Mix::Cycle,
                    payload: 16,
                },
                false,
            ),
            (
                InlineStream::Ops {
                    mix: Mix::Cycle,
                    payload: 4096,
                },
                true,
            ),
            (
                InlineStream::Ops {
                    mix: Mix::ReadMostly,
                    payload: 16,
                },
                false,
            ),
            (InlineStream::Handoff, false),
        ];
        for (stream, wal) in streams {
            let pass = |n: usize| {
                let wal_dir = wal.then(|| dir.join(format!("wal-{n}")));
                let trace = dir.join(format!("trace-{n}.jsonl"));
                let r = inline_pass(stream, 42, 96, wal_dir.as_deref(), Some(&trace));
                r.expect("inline pass")
            };
            let (first, second) = (pass(1), pass(2));
            assert_eq!(
                first.failed, 0,
                "{stream:?}: every answer is the expected one"
            );
            assert_eq!(first.counts, second.counts, "{stream:?}");
            assert_eq!(first.counts.ops, 96);
            assert_eq!(first.spans.len(), second.spans.len(), "{stream:?}");
            assert_eq!(first.counts.wal_appends > 0, wal, "{stream:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_ordered_op_is_five_hops_and_32_messages() {
        let pass = inline_pass(
            InlineStream::Ops {
                mix: Mix::Cycle,
                payload: 16,
            },
            1,
            64,
            None,
            None,
        )
        .expect("inline pass");
        let per_op = |kind: &str| pass.counts.msgs.get(kind).copied().unwrap_or(0) as f64 / 64.0;
        assert_eq!(per_op("request"), 4.0);
        assert_eq!(per_op("pre-prepare"), 3.0);
        assert_eq!(per_op("prepare"), 9.0);
        assert_eq!(per_op("commit"), 12.0);
        assert_eq!(per_op("reply"), 4.0);
        assert_eq!(pass.counts.seals, pass.counts.opens);
    }
}
