//! `peats` — command-line client for a replicated PEATS cluster.
//!
//! ```text
//! peats --servers 0=127.0.0.1:7100,1=...,2=...,3=... --node 4 --pid 100 \
//!       out '<"JOB", 1, "payload">'
//! peats ... take '<"JOB", ?id: int, *>'
//! ```
//!
//! One process = one invocation: the client dials every replica,
//! broadcasts the MAC-sealed request, waits for `f+1` matching replies,
//! prints the outcome, and exits. Exit status: 0 success (including
//! "no match" from the non-blocking `rdp`/`inp`), 2 policy denial,
//! 3 cluster unavailable, 1 usage error.
//!
//! Flags may come from the environment as `PEATS_<FLAG>`; flags win.

use peats::{SpaceError, TupleSpace};
use peats_net::config::{parse_param, parse_peer_list, Flags};
use peats_net::text::{parse_template, parse_tuple};
use peats_net::{TcpConfig, TcpTransport};
use peats_netsim::NodeId;
use peats_policy::{analyze_with, digest_hex, parse_policy_spanned, PolicyParams, Severity};
use peats_replication::{ClientConfig, ReplicatedPeats};
use std::time::Duration;

const USAGE: &str = "\
peats — client CLI for the BFT-replicated policy-enforced tuple space

Usage: peats [options] <op> <tuple-or-template> [tuple]

Operations (tuple syntax: '<\"tag\", 42, true, *, ?x: int>'):
  out  '<tuple>'               insert a tuple
  rdp  '<template>'            read a match, non-blocking
  inp  '<template>'            remove a match, non-blocking
  rd   '<template>'            read a match, blocking
  take '<template>'            remove a match, blocking
  cas  '<template>' '<tuple>'  insert the tuple iff no match exists
  count '<template>'           number of stored matches (quorum fast read)
  watch '<template>'           follow future matching writes (pub/sub): a
                               persistent server-side registration streams
                               every committed match, one per line, until
                               --events N are printed (default: forever)

Policy tooling (no cluster connection):
  policy check <file>          statically analyze a policy file: prints the
                               canonical policy digest and every diagnostic
                               (PA001..PA008) with source positions, then
                               exits 0 when the policy is loadable (warnings
                               allowed) or 2 on parse/analysis errors
  --params NAME=VALUE,...      policy parameter values for the analysis
                               (repeatable, or one comma list)

Connection (flags may come from the environment as PEATS_<FLAG>):
  --servers ID=HOST:PORT,...   every replica's address (required)
  --node N                     this client's transport node id (default n,
                               i.e. the first id after the replicas)
  --pid P                      logical process id (default: same as node);
                               the pair must be registered with the
                               daemons via their --client NODE=PID flag
  --f N                        tolerated replica faults (default 1)
  --master SECRET              shared MAC master secret
  --timeout-ms MS              give up after MS (default 10000)
  --retry-ms MS                rebroadcast interval (default 500)
  --events N                   watch: exit after N events (default 0 = run
                               until killed)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    match run(args) {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("peats: error: {msg}");
            std::process::exit(1);
        }
    }
}

fn run(args: Vec<String>) -> Result<i32, String> {
    let flags = Flags::scan("PEATS", args)?;

    // `peats policy ...` works offline — dispatch before any connection
    // flags are required.
    let pos = flags.positional();
    if pos.first().map(String::as_str) == Some("policy") {
        return match (pos.get(1).map(String::as_str), pos.get(2), pos.len()) {
            (Some("check"), Some(file), 3) => policy_check(file, &flags),
            _ => Err("usage: peats policy check <file> [--params NAME=VALUE,...]".to_owned()),
        };
    }

    let servers = parse_peer_list(&flags.require("servers")?)?;
    let f: usize = flags.parse_or("f", 1)?;
    let n = 3 * f + 1;
    if servers.len() != n {
        return Err(format!(
            "--servers lists {} replicas, but f={f} needs n=3f+1={n}",
            servers.len()
        ));
    }
    let node: NodeId = flags.parse_or("node", n as NodeId)?;
    let pid: u64 = flags.parse_or("pid", u64::from(node))?;
    let master = flags
        .get("master")
        .unwrap_or_else(|| "peats-dev-master".to_owned())
        .into_bytes();
    let cfg = ClientConfig {
        invoke_timeout: Duration::from_millis(flags.parse_or("timeout-ms", 10_000u64)?),
        retry_interval: Duration::from_millis(flags.parse_or("retry-ms", 500u64)?),
        // Replicas dedup by (pid, req_id) and replay cached replies; each
        // one-shot CLI process shares its pid with every past invocation,
        // so request ids must advance across processes. Wall-clock
        // microseconds mostly do — but two CLI processes launched in the
        // same microsecond (a shell loop, xargs -P) would collide and one
        // would be served the other's cached reply, so the OS pid is mixed
        // into the low bits to separate same-instant siblings.
        // Milliseconds shifted up 20 bits stay monotone across runs and
        // fit u64 for centuries; the pid occupies the low bits.
        first_request_id: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| {
                u64::try_from(d.as_millis()).unwrap_or(u64::MAX >> 21)
            })
            << 20
            | u64::from(std::process::id() & 0xF_FFFF),
    };

    let (op, first, second) = match flags.positional() {
        [op, first] => (op.as_str(), first, None),
        [op, first, second] => (op.as_str(), first, Some(second)),
        other => {
            return Err(format!(
                "expected `<op> <tuple-or-template> [tuple]`, got {} arguments (see --help)",
                other.len()
            ))
        }
    };

    let (transport, mailbox) = TcpTransport::connect(node, servers, TcpConfig::default());
    let keys = peats_auth::KeyTable::new(u64::from(node), master);
    let space = ReplicatedPeats::connect(transport, mailbox, keys, pid, f, n, cfg);

    if op == "watch" {
        if second.is_some() {
            return Err("`watch` takes one argument".to_owned());
        }
        let events: u64 = flags.parse_or("events", 0u64)?;
        return watch(
            &space,
            &parse_template(first).map_err(|e| e.to_string())?,
            events,
        );
    }

    let outcome = match (op, second) {
        ("out", None) => space
            .out(parse_tuple(first).map_err(|e| e.to_string())?)
            .map(|()| "ok".to_owned()),
        ("rdp", None) => space
            .rdp(&parse_template(first).map_err(|e| e.to_string())?)
            .map(|r| r.map_or_else(|| "(no match)".to_owned(), |t| t.to_string())),
        ("inp", None) => space
            .inp(&parse_template(first).map_err(|e| e.to_string())?)
            .map(|r| r.map_or_else(|| "(no match)".to_owned(), |t| t.to_string())),
        ("rd", None) => space
            .rd(&parse_template(first).map_err(|e| e.to_string())?)
            .map(|t| t.to_string()),
        ("take", None) => space
            .take(&parse_template(first).map_err(|e| e.to_string())?)
            .map(|t| t.to_string()),
        ("count", None) => space
            .count(&parse_template(first).map_err(|e| e.to_string())?)
            .map(|n| n.to_string()),
        ("cas", Some(entry)) => space
            .cas(
                &parse_template(first).map_err(|e| e.to_string())?,
                parse_tuple(entry).map_err(|e| e.to_string())?,
            )
            .map(|out| match out.found() {
                None => "inserted".to_owned(),
                Some(t) => format!("found {t}"),
            }),
        ("cas", None) => return Err("cas needs both a template and a tuple".to_owned()),
        (op, Some(_)) => return Err(format!("`{op}` takes one argument")),
        (op, _) => return Err(format!("unknown operation `{op}` (see --help)")),
    };

    match outcome {
        Ok(line) => {
            println!("{line}");
            Ok(0)
        }
        Err(SpaceError::Denied(decision)) => {
            eprintln!("peats: denied by policy: {decision}");
            Ok(2)
        }
        Err(SpaceError::Unavailable(why)) => {
            eprintln!("peats: cluster unavailable: {why}");
            Ok(3)
        }
    }
}

/// `peats policy check <file>`: parse and statically analyze a policy,
/// print its canonical digest and diagnostics, and report loadability via
/// the exit status (0 loadable, 2 parse/analysis errors).
fn policy_check(path: &str, flags: &Flags) -> Result<i32, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (policy, spans) = match parse_policy_spanned(&src) {
        Ok(parsed) => parsed,
        Err(e) => {
            println!("{path}: parse error: {e}");
            return Ok(2);
        }
    };
    let mut params = PolicyParams::new();
    for entry in flags.all("params") {
        for part in entry.split(',').filter(|p| !p.trim().is_empty()) {
            let (name, value) = parse_param(part)?;
            params.set(name, value);
        }
    }

    println!(
        "policy {} ({} rule{}) digest {}",
        policy.name,
        policy.rules.len(),
        if policy.rules.len() == 1 { "" } else { "s" },
        digest_hex(&policy.digest())
    );
    let diagnostics = analyze_with(&policy, &spans, Some(&params));
    for d in &diagnostics {
        println!("{path}: {d}");
        if let Some(help) = &d.help {
            println!("  help: {help}");
        }
    }
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics.len() - errors;
    println!(
        "{errors} error{}, {warnings} warning{}/note{}",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
    );
    Ok(if errors > 0 { 2 } else { 0 })
}

/// One persistent registration, a stream of certified events: each line is
/// a committed `out` that matched, pushed by the replicas and accepted on
/// `f+1` agreeing wakes. Lines flush immediately so `peats watch | ...`
/// pipelines see events as they commit.
fn watch(
    space: &ReplicatedPeats<peats_net::TcpTransport>,
    template: &peats_tuplespace::Template,
    events: u64,
) -> Result<i32, String> {
    use std::io::Write;
    let mut sub = match space.subscribe(template) {
        Ok(sub) => sub,
        Err(SpaceError::Denied(decision)) => {
            eprintln!("peats: denied by policy: {decision}");
            return Ok(2);
        }
        Err(SpaceError::Unavailable(why)) => {
            eprintln!("peats: cluster unavailable: {why}");
            return Ok(3);
        }
    };
    let mut seen = 0u64;
    while events == 0 || seen < events {
        match sub.next_timeout(Duration::from_secs(1)) {
            Ok(Some(t)) => {
                println!("{t}");
                let _ = std::io::stdout().flush();
                seen += 1;
            }
            Ok(None) => {}
            Err(SpaceError::Denied(decision)) => {
                eprintln!("peats: denied by policy: {decision}");
                return Ok(2);
            }
            Err(SpaceError::Unavailable(why)) => {
                eprintln!("peats: cluster unavailable: {why}");
                return Ok(3);
            }
        }
    }
    match sub.cancel() {
        Ok(()) => Ok(0),
        Err(_) => Ok(0), // events were delivered; teardown is best-effort
    }
}
