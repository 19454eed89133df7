//! `peats-perf compare A B`: two sets of `run` outputs side by side, every
//! end-to-end metric on every workload judged against its bound.

use crate::json::Json;
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// A side's own spread is wider than the bound, so a difference of
    /// the size of the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One side's value of a metric: the median over the set's runs, and the
/// set's spread as a share of that median — between the runs when there
/// are several, between the slices of the one run otherwise.
fn side(runs: &[Json], workload: &str, metric: &str) -> Option<(f64, f64)> {
    let cells: Vec<&Json> = runs
        .iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)
        })
        .collect();
    let values: Vec<f64> = cells
        .iter()
        .filter_map(|c| c.get("value")?.as_f64())
        .collect();
    if values.is_empty() || values.len() != runs.len() {
        return None;
    }
    let value = stats::median(&values);
    let (lo, hi) = match cells.as_slice() {
        [one] => (
            one.get("slice_min").and_then(Json::as_f64).unwrap_or(value),
            one.get("slice_max").and_then(Json::as_f64).unwrap_or(value),
        ),
        _ => stats::min_max(&values),
    };
    Some((value, (hi - lo) / value.abs().max(f64::MIN_POSITIVE)))
}

/// Compares set `b` against set `a`; the metric list, directions and
/// bounds are the ones printed in `a`'s first run.
pub fn compare(a: &[Json], b: &[Json]) -> Result<Vec<Row>, String> {
    let first = a.first().ok_or("set A is empty")?;
    let workloads = first
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("no `workloads` in A")?;
    let mut rows = Vec::new();
    for (workload, cell) in workloads {
        let metrics = cell
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("no metrics for {workload}"))?;
        for (metric, spec) in metrics {
            let bound = spec.get("bound").and_then(Json::as_f64);
            let better = spec.get("better").and_then(Json::as_str);
            let (Some(bound), Some(better)) = (bound, better) else {
                continue; // reported, not gated
            };
            let missing = |set: &str| format!("{workload}/{metric} missing from a run of {set}");
            let (va, spread_a) = side(a, workload, metric).ok_or_else(|| missing("A"))?;
            let (vb, spread_b) = side(b, workload, metric).ok_or_else(|| missing("B"))?;
            let delta = if better == "higher" { va - vb } else { vb - va };
            let worse_by = delta / va.abs().max(f64::MIN_POSITIVE);
            let verdict = if spread_a > bound || spread_b > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: va,
                b: vb,
                worse_by,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(p50: f64, lo: f64, hi: f64, rate: f64) -> Json {
        let metric = |value: f64, lo: f64, hi: f64, better: &str| {
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str("x")),
                ("slice_min", Json::Num(lo)),
                ("slice_max", Json::Num(hi)),
                ("better", Json::str(better)),
                ("bound", Json::Num(0.1)),
            ])
        };
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([(
                    "metrics",
                    Json::obj([
                        ("op_p50_us", metric(p50, lo, hi, "lower")),
                        ("ops_per_s", metric(rate, rate, rate, "higher")),
                    ]),
                )]),
            )]),
        )])
    }

    fn verdicts(a: &[Json], b: &[Json]) -> Vec<Verdict> {
        compare(a, b).unwrap().iter().map(|r| r.verdict).collect()
    }

    #[test]
    fn judges_each_direction_against_the_bound() {
        let base = [run(100.0, 99.0, 101.0, 1000.0)];
        assert_eq!(
            verdicts(&base, &[run(105.0, 104.0, 106.0, 950.0)]),
            [Verdict::Ok, Verdict::Ok]
        );
        assert_eq!(
            verdicts(&base, &[run(115.0, 114.0, 116.0, 1200.0)]),
            [Verdict::Worse, Verdict::Ok]
        );
        assert_eq!(
            verdicts(&base, &[run(90.0, 89.0, 91.0, 800.0)]),
            [Verdict::Ok, Verdict::Worse]
        );
        // Slices 30 % apart: nothing can be said at a 10 % bound.
        assert_eq!(
            verdicts(&base, &[run(100.0, 85.0, 115.0, 1000.0)]),
            [Verdict::Unresolved, Verdict::Ok]
        );
    }

    #[test]
    fn sets_compare_by_median_and_spread_between_runs() {
        let a = [
            run(100.0, 1.0, 900.0, 1000.0),
            run(102.0, 1.0, 900.0, 1000.0),
            run(98.0, 1.0, 900.0, 1000.0),
        ];
        let b = [
            run(101.0, 1.0, 900.0, 1000.0),
            run(120.0, 1.0, 900.0, 1000.0),
            run(80.0, 1.0, 900.0, 1000.0),
        ];
        // A's runs agree within 4 %; B's are 40 % apart.
        assert_eq!(verdicts(&a, &a), [Verdict::Ok, Verdict::Ok]);
        assert_eq!(verdicts(&a, &b), [Verdict::Unresolved, Verdict::Ok]);
    }
}
