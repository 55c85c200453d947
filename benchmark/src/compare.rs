//! `regbal-benchmark compare`: the repeated-runs comparison.
//!
//! Each input file holds one JSON record per run (written by `--record`);
//! metric directions and bounds come from `BENCHMARK.json` in the
//! working directory.
//!
//! For every (workload, metric) the command prints the median and
//! quartiles of each file's runs and the spread between the quartiles
//! as a share of the median. With two files — the parent's runs first,
//! the change's second — it also counts the pairs (matched by seed) the
//! change wins and judges the metric against its bound: `regressed`
//! when the change's median is worse than the parent's by more than the
//! bound, `unresolved` when either side's spread is wider than the bound
//! and not every change run beats every parent run, `ok` otherwise.

use regbal_eval::{json, Json};
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement, and the bound of an
/// end-to-end metric.
struct MetricDef {
    higher_is_better: bool,
    bound: Option<f64>,
}

/// The metric definitions of `BENCHMARK.json`.
fn definitions(path: &str) -> Result<BTreeMap<String, MetricDef>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut defs = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!(
                    "{path}: a `{section}` metric lacks `name` or `better`"
                ));
            };
            defs.insert(
                name.to_string(),
                MetricDef {
                    higher_is_better: better == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(defs)
}

/// One recorded run: its seed and metric values.
struct Record {
    seed: u64,
    values: BTreeMap<String, f64>,
}

/// Runs per (workload, metric), in file order.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn read(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no `workload`", n + 1))?;
        let record = Record {
            seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(n as u64),
            values: match doc.get("result").and_then(|r| r.get("metrics")) {
                Some(Json::Obj(members)) => members
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect(),
                _ => return Err(format!("{path}:{}: no `result.metrics`", n + 1)),
            },
        };
        for (metric, value) in record.values {
            runs.entry((workload.to_string(), metric))
                .or_default()
                .push((record.seed, value));
        }
    }
    Ok(runs)
}

/// The median as Python's `statistics.median` computes it.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The first and third quartiles as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Median, quartiles and relative spread of one side's runs.
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
}

fn summarise(runs: &[(u64, f64)]) -> Summary {
    let mut sorted: Vec<f64> = runs.iter().map(|r| r.1).collect();
    sorted.sort_by(f64::total_cmp);
    let median = median(&sorted);
    let (q1, q3) = quartiles(&sorted);
    let spread = if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    };
    Summary {
        median,
        q1,
        q3,
        spread,
    }
}

/// How much worse `b` is than `a` as a share of `a` (negative: better).
fn worse(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    if def.higher_is_better {
        -delta
    } else {
        delta
    }
}

fn better(def: &MetricDef, a: f64, b: f64) -> bool {
    worse(def, a, b) < 0.0
}

fn side(s: &Summary) -> String {
    format!(
        "median {:<12.6} q1 {:<12.6} q3 {:<12.6} spread {:>6.2}%",
        s.median,
        s.q1,
        s.q3,
        s.spread * 100.0
    )
}

/// Runs the comparison over one or two record files; returns whether no
/// metric regressed.
///
/// # Errors
///
/// Unreadable or malformed record files or `BENCHMARK.json`.
pub fn compare(paths: &[String]) -> Result<bool, String> {
    let (first, second) = match paths {
        [a] => (read(a)?, None),
        [a, b] => (read(a)?, Some(read(b)?)),
        _ => return Err("usage: regbal-benchmark compare <runs.jsonl> [<runs.jsonl>]".into()),
    };
    let defs = definitions("BENCHMARK.json")?;
    let (mut regressed, mut unresolved) = (0, 0);
    for ((workload, metric), a_runs) in &first {
        let Some(def) = defs.get(metric) else {
            continue;
        };
        let a = summarise(a_runs);
        let bound = def
            .bound
            .map_or("      -".to_string(), |b| format!("{:>6.2}%", b * 100.0));
        let head = format!("{workload:<11} {metric:<36} n={:<3}", a_runs.len());
        let Some(b_runs) = second
            .as_ref()
            .and_then(|s| s.get(&(workload.clone(), metric.clone())))
        else {
            let steadiness = match def.bound {
                Some(b) if a.spread < b / 3.0 => "steady",
                Some(b) if a.spread <= b => "within-bound",
                Some(_) => "noisy",
                None => "-",
            };
            println!("{head} {} bound {bound} {steadiness}", side(&a));
            continue;
        };
        let b = summarise(b_runs);
        let pairs: Vec<(f64, f64)> = a_runs
            .iter()
            .filter_map(|(seed, x)| {
                b_runs
                    .iter()
                    .find(|(s, _)| s == seed)
                    .map(|(_, y)| (*x, *y))
            })
            .collect();
        let wins = pairs.iter().filter(|(x, y)| better(def, *x, *y)).count();
        let change = worse(def, a.median, b.median);
        let all_better = b_runs
            .iter()
            .all(|(_, y)| a_runs.iter().all(|(_, x)| better(def, *x, *y)));
        let verdict = match def.bound {
            None => "-",
            Some(bound) if change > bound => {
                regressed += 1;
                "regressed"
            }
            Some(bound) if (a.spread > bound || b.spread > bound) && !all_better => {
                unresolved += 1;
                "unresolved"
            }
            Some(_) => "ok",
        };
        println!(
            "{head} a: {} | b: {} | worse {:>+7.2}% wins {wins}/{} bound {bound} {verdict}",
            side(&a),
            side(&b),
            change * 100.0,
            pairs.len()
        );
    }
    if second.is_some() {
        println!("{regressed} regressed, {unresolved} unresolved");
    }
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 8.25));
        assert_eq!(median(&data), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
    }
}
