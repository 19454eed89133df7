//! Runs the built `peats-perf` end to end with 1 s windows and checks that
//! what it prints is what `BENCHMARK.json` promises.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_peats-perf");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, section: &str) -> Vec<(String, Json)> {
    spec.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has `{section}`"))
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str).expect("a name");
            (name.to_owned(), entry.clone())
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn smoke_run_prints_every_metric_of_every_workload() {
    let spec = benchmark_json();
    let out = tmp("smoke-run.json");
    let status = Command::new(BIN)
        .args(["run", "--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("peats-perf runs");
    assert!(status.success(), "run --smoke exited with {status}");
    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("run output parses");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));

    for (workload, entry) in names(&spec, "workloads") {
        let cell = doc
            .get("workloads")
            .and_then(|w| w.get(&workload))
            .unwrap_or_else(|| panic!("{workload} missing from the run"));
        assert_eq!(
            cell.get("why"),
            entry.get("why"),
            "{workload}: BENCHMARK.json and the binary give different reasons"
        );
        let metrics = cell.get("metrics").expect("metrics");
        for (metric, declared) in names(&spec, "end_to_end") {
            let got = metrics
                .get(&metric)
                .unwrap_or_else(|| panic!("{workload}/{metric} missing"));
            let value = got.get("value").and_then(Json::as_f64).expect("a value");
            assert!(value > 0.0, "{workload}/{metric} = {value}");
            for key in ["unit", "better", "bound"] {
                assert_eq!(
                    got.get(key),
                    declared.get(key),
                    "{workload}/{metric} `{key}`"
                );
            }
        }
        let failed_share = metrics
            .get("failed_share")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(failed_share, Some(0.0), "{workload} failed ops");
        assert_eq!(cell.get("violations"), Some(&Json::Arr(Vec::new())));
    }
}

/// The line the driver reads: the last one on stdout.
fn driver_line(workload: &str, trace: &str) -> Json {
    let output = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("peats-perf runs");
    assert!(
        output.status.success(),
        "{workload} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line parses")
}

fn assert_driver_shape(line: &Json, declared: &[(String, Json)]) {
    let keys: Vec<&str> = line
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64) >= Some(1.0));
    let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, want, "exactly the declared metrics, in order");
    for ((name, metric), (_, spec)) in metrics.iter().zip(declared) {
        assert!(
            metric.get("value").and_then(Json::as_f64).is_some(),
            "{name}"
        );
        assert_eq!(metric.get("unit"), spec.get("unit"), "{name}");
    }
}

#[test]
fn driver_lines_carry_exactly_the_declared_metrics() {
    let spec = benchmark_json();
    assert_driver_shape(
        &driver_line("cycle.threads", "0"),
        &names(&spec, "end_to_end"),
    );
    assert_driver_shape(
        &driver_line("read-mostly.tcp-wal", "1"),
        &names(&spec, "per_layer"),
    );
}

#[test]
fn compare_flags_a_regression_and_exits_non_zero() {
    let run = |p50: f64| {
        format!(
            r#"{{"workloads":{{"w":{{"metrics":{{"op_p50_us":{{"value":{p50},"unit":"us",
            "slice_min":{p50},"slice_max":{p50},"better":"lower","bound":0.1}}}}}}}}}}"#
        )
    };
    let (a, b) = (tmp("compare-a.json"), tmp("compare-b.json"));
    std::fs::write(&a, run(100.0)).unwrap();
    std::fs::write(&b, run(125.0)).unwrap();
    let compare = |x: &PathBuf, y: &PathBuf| {
        Command::new(BIN)
            .arg("compare")
            .args([x, y])
            .output()
            .expect("peats-perf runs")
    };
    let same = compare(&a, &a);
    assert!(same.status.success());
    let worse = compare(&a, &b);
    assert_eq!(worse.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&worse.stdout).contains("worse"));
}
