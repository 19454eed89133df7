//! `peats-perf`: the repository's benchmark.
//!
//! ```text
//! peats-perf --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! peats-perf run   [--seed N] [--seconds S] [--smoke] [--out FILE]
//! peats-perf trace [--seed N] [--seconds S] [--smoke] [--out FILE]
//! peats-perf compare A.json[,A2.json…] B.json[,B2.json…]
//! ```
//!
//! See `README.md` beside this crate for what is measured and why.

mod compare;
mod gen;
mod inline;
mod json;
mod layers;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Plan, Report, Spread, Workload, WORKLOADS};

/// `(name, unit, better, bound)` of every end-to-end metric. The bound is
/// the share of the parent's median by which a change may worsen the
/// metric; `BENCHMARK.json` states the same table.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("op_p50_us", "us", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

const LOAD_MODEL: &str = "closed loop, 2 client threads with one handle each, zero think time, \
    zero injected message delay (over loopback and in-memory channels, latency is processor and \
    scheduler time only), f=1 (4 replicas), WAL with fsync on the .tcp-wal workloads";

/// Window of `run`/`trace` when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            other => parsed.positional.push(other.to_owned()),
        }
    }
    Ok(parsed)
}

/// Where the benchmark may write: beside its own binary, inside the build
/// directory of the checkout it was built in.
struct Dirs {
    scratch: PathBuf,
    traces: PathBuf,
}

impl Dirs {
    fn new() -> Dirs {
        let exe = std::env::current_exe().expect("path of this binary");
        let profile_dir = exe.parent().expect("binary has a directory");
        let target_dir = profile_dir.parent().unwrap_or(profile_dir);
        Dirs {
            scratch: profile_dir.join(format!("peats-perf-scratch-{}", std::process::id())),
            traces: target_dir.join("perf"),
        }
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

fn end_to_end_value(r: &Report, name: &str) -> Spread {
    match name {
        "op_p50_us" => r.op_p50_us,
        "op_p99_us" => r.op_p99_us,
        "ops_per_s" => r.ops_per_s,
        "cpu_us_per_op" => r.cpu_us_per_op,
        "setup_s" => {
            let (lo, hi) = stats::min_max(&r.setup_runs);
            Spread {
                value: r.setup_s,
                slice_min: lo,
                slice_max: hi,
            }
        }
        other => unreachable!("`{other}` is not an end-to-end metric"),
    }
}

fn report_json(w: &Workload, r: &Report) -> Json {
    let spread = |s: Spread, unit: &str| {
        vec![
            ("value".to_owned(), Json::Num(s.value)),
            ("unit".to_owned(), Json::str(unit)),
            ("slice_min".to_owned(), Json::Num(s.slice_min)),
            ("slice_max".to_owned(), Json::Num(s.slice_max)),
        ]
    };
    let mut metrics: Vec<(String, Json)> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            let mut fields = spread(end_to_end_value(r, name), unit);
            fields.push(("better".to_owned(), Json::str(*better)));
            fields.push(("bound".to_owned(), Json::Num(*bound)));
            ((*name).to_owned(), Json::Obj(fields))
        })
        .collect();
    // Reported beside the gated metrics, ungated: see README, "op_p99_us".
    metrics.push(("op_p99_us".to_owned(), Json::Obj(spread(r.op_p99_us, "us"))));
    metrics.push((
        "failed_share".to_owned(),
        Json::metric(r.failed as f64 / r.attempted.max(1) as f64, "share"),
    ));
    Json::obj([
        ("why", Json::str(w.why)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("samples", Json::Num(r.samples as f64)),
        ("window_s", Json::Num(r.window_s)),
        ("slices", Json::Num(r.slices as f64)),
        ("metrics", Json::Obj(metrics)),
        (
            "setup_runs_s",
            Json::Arr(r.setup_runs.iter().map(|s| Json::Num(*s)).collect()),
        ),
        (
            "layers",
            Json::obj([
                (
                    "replication.ops_per_slot",
                    Json::metric(r.ops_per_slot, "count"),
                ),
                (
                    "client.rebroadcasts_per_op",
                    Json::metric(r.rebroadcasts_per_op, "count"),
                ),
                (
                    "client.fast_read_hit_share",
                    Json::metric(r.fast_read_hit_share, "share"),
                ),
                (
                    "net.dropped_outbound",
                    Json::metric(r.dropped_outbound as f64, "count"),
                ),
            ]),
        ),
        (
            "violations",
            Json::Arr(r.violations.iter().map(Json::str).collect()),
        ),
    ])
}

fn print_report(w: &Workload, r: &Report) {
    eprintln!(
        "{}: {} ops attempted, {} failed, {} latency samples, {:.1} s in {} slices, \
         set-up {:.3} s (median of {})",
        w.name,
        r.attempted,
        r.failed,
        r.samples,
        r.window_s,
        r.slices,
        r.setup_s,
        r.setup_runs.len()
    );
    for (name, s, unit) in [
        ("op_p50_us", r.op_p50_us, "us"),
        ("op_p99_us", r.op_p99_us, "us"),
        ("ops_per_s", r.ops_per_s, "1/s"),
        ("cpu_us_per_op", r.cpu_us_per_op, "us"),
    ] {
        eprintln!(
            "  {name:<14} {:>12.3} {unit:<4} slices {:.3} .. {:.3}",
            s.value, s.slice_min, s.slice_max
        );
    }
    for v in &r.violations {
        eprintln!("  VIOLATION: {v}");
    }
}

fn header(seed: u64, seconds: f64) -> Vec<(String, Json)> {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("benchmark".to_owned(), Json::str("peats-perf")),
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("window_s".to_owned(), Json::Num(seconds)),
        (
            "available_parallelism".to_owned(),
            Json::Num(threads as f64),
        ),
        ("load_model".to_owned(), Json::str(LOAD_MODEL)),
    ]
}

fn emit(doc: &Json, out: Option<&Path>) -> Result<(), String> {
    let text = doc.pretty();
    if let Some(path) = out {
        std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{text}");
    Ok(())
}

/// The driver's entry: one workload, one line of JSON last on stdout.
fn cmd_workload(args: &Args, name: &str) -> Result<bool, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {names:?}")
    })?;
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let dirs = Dirs::new();
    let (correct, attempted, failed, metrics) = if args.trace {
        // Half the time on the real run, the rest on the inline passes.
        let t = trace::trace_workload(
            w,
            args.seed,
            Duration::from_secs_f64(seconds / 2.0),
            trace::INLINE_OPS,
            &dirs.scratch,
            &dirs.traces,
        )
        .map_err(|e| format!("trace of {name}: {e}"))?;
        print_report(w, &t.real);
        print_budget(w.name, &t);
        (
            t.failed == 0,
            t.real.attempted,
            t.failed,
            layers_json(&t.layers),
        )
    } else {
        let r = workloads::run(
            w,
            args.seed,
            Duration::from_secs_f64(seconds),
            Plan::THREE_WINDOWS,
            &dirs.scratch,
        );
        print_report(w, &r);
        let metrics = END_TO_END.iter().map(|(name, unit, _, _)| {
            let value = end_to_end_value(&r, name).value;
            (*name, Json::metric(value, unit))
        });
        let failed = r.failed + r.violations.len() as u64;
        (r.correct(), r.attempted, failed, Json::obj(metrics))
    };
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let plan = if args.smoke {
        Plan::ONE_WINDOW
    } else {
        Plan::THREE_WINDOWS
    };
    let dirs = Dirs::new();
    let mut all_correct = true;
    let mut cells = Vec::new();
    for w in &WORKLOADS {
        let r = workloads::run(
            w,
            args.seed,
            Duration::from_secs_f64(seconds),
            plan,
            &dirs.scratch,
        );
        print_report(w, &r);
        all_correct &= r.correct();
        cells.push((w.name.to_owned(), report_json(w, &r)));
    }
    let mut doc = header(args.seed, seconds);
    doc.push(("correct".to_owned(), Json::Bool(all_correct)));
    doc.push(("workloads".to_owned(), Json::Obj(cells)));
    emit(&Json::Obj(doc), args.out.as_deref())?;
    Ok(all_correct)
}

fn print_budget(title: &str, t: &trace::TraceReport) {
    if t.rows.is_empty() {
        return;
    }
    let l = &t.layers;
    eprintln!("budget for {title} (inline cluster, one client, µs per op):");
    eprintln!(
        "  {:<46} {:>9} {:>11} {:>10}",
        "span", "calls/op", "median ns", "us/op"
    );
    for row in &t.rows {
        eprintln!(
            "  {:<46} {:>9.2} {:>11.0} {:>10.2}",
            row.name, row.calls_per_op, row.median_ns, row.us_per_op
        );
    }
    eprintln!("  by layer (wall time in the traced pass):");
    const LAYERS: [&str; 6] = ["auth", "codec", "replication", "service", "wal", "other"];
    let budget = |layer: &str| l[format!("budget.{layer}_us").as_str()];
    let total: f64 = LAYERS.iter().map(|layer| budget(layer)).sum();
    for layer in LAYERS {
        eprintln!(
            "    {:<44} {:>10.2} {:>6.1}%",
            layer,
            budget(layer),
            100.0 * budget(layer) / total
        );
    }
    eprintln!(
        "    {:<44} {:>10.2}",
        "= traced pass, side work excluded", total
    );
    eprintln!(
        "    {:<44} {:>10.2}",
        "inline.wall_us_per_op (untraced pass)", l["inline.wall_us_per_op"]
    );
    eprintln!(
        "    {:<44} {:>10.2}",
        "inline.cpu_us_per_op (untraced pass)", l["inline.cpu_us_per_op"]
    );
    eprintln!(
        "    {:<44} {:>10.2}  (at {:.2} ops per slot)",
        "real cpu_us_per_op", t.real.cpu_us_per_op.value, l["replication.ops_per_slot"]
    );
    eprintln!(
        "    {:<44} {:>10.2}",
        "transport.residual_us", l["transport.residual_us"]
    );
    eprintln!("    trace.overhead_share {:.3}", l["trace.overhead_share"]);
}

fn layers_json(layers: &trace::Layers) -> Json {
    Json::Obj(
        trace::PER_LAYER
            .iter()
            .map(|(name, unit, _)| ((*name).to_owned(), Json::metric(layers[name], unit)))
            .collect(),
    )
}

fn cmd_trace(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS / 2.0
    });
    let n_ops = if args.smoke {
        trace::INLINE_OPS_SMOKE
    } else {
        trace::INLINE_OPS
    };
    let dirs = Dirs::new();
    let mut all_correct = true;
    let mut cells = Vec::new();
    for w in &WORKLOADS {
        let t = trace::trace_workload(
            w,
            args.seed,
            Duration::from_secs_f64(seconds),
            n_ops,
            &dirs.scratch,
            &dirs.traces,
        )
        .map_err(|e| format!("trace of {}: {e}", w.name))?;
        print_report(w, &t.real);
        print_budget(w.name, &t);
        all_correct &= t.failed == 0;
        cells.push((
            w.name.to_owned(),
            Json::obj([
                ("correct", Json::Bool(t.failed == 0)),
                (
                    "cpu_us_per_op",
                    Json::metric(t.real.cpu_us_per_op.value, "us"),
                ),
                ("layers", layers_json(&t.layers)),
            ]),
        ));
    }
    // The two streams whose WAL-off side no workload runs.
    let mut inline_only = Vec::new();
    for (mix, payload) in [(gen::Mix::Cycle, 4096), (gen::Mix::ReadMostly, 16)] {
        let stream = trace::InlineStream::Ops { mix, payload };
        let label = format!("{}.wal-off", stream.name());
        let file = dirs.traces.join(format!("trace-{label}.jsonl"));
        let r = trace::trace_stream(stream, args.seed, n_ops, false, &dirs.scratch, &file)
            .map_err(|e| format!("trace of {label}: {e}"))?;
        all_correct &= r.failed == 0;
        inline_only.push((label, layers_json(&r.layers)));
    }
    let traces = dirs.traces.display().to_string();
    let mut doc = header(args.seed, seconds);
    doc.push(("correct".to_owned(), Json::Bool(all_correct)));
    doc.push(("inline_ops".to_owned(), Json::Num(n_ops as f64)));
    doc.push(("trace_files".to_owned(), Json::str(traces)));
    doc.push(("workloads".to_owned(), Json::Obj(cells)));
    doc.push(("inline_only".to_owned(), Json::Obj(inline_only)));
    emit(&Json::Obj(doc), args.out.as_deref())?;
    Ok(all_correct)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two arguments: A.json[,A2.json…] B.json[,B2.json…]".into());
    };
    let load = |list: &str| -> Result<Vec<Json>, String> {
        list.split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect()
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (
        count(compare::Verdict::Worse),
        count(compare::Verdict::Unresolved),
    );
    println!(
        "{} compared, {} worse, {} unresolved",
        rows.len(),
        worse,
        unresolved
    );
    Ok(worse == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace" | "compare")) => (cmd, &argv[1..]),
        _ => ("workload", &argv[..]),
    };
    let outcome = parse_args(rest).and_then(|args| match command {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "compare" => cmd_compare(&args),
        _ => match args.workload.clone() {
            Some(name) => cmd_workload(&args, &name),
            None => Err(
                "usage: peats-perf --workload W --seed N --seconds S --trace 0|1 \
                         | run | trace | compare A B"
                    .into(),
            ),
        },
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("peats-perf: {e}");
            ExitCode::from(2)
        }
    }
}
