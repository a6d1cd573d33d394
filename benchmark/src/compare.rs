//! `benchmark compare PARENT.jsonl CHANGE.jsonl`: the pair rule of the
//! benchmark, applied per workload and end-to-end metric.
//!
//! Each input file holds one JSON object per line,
//! `{"workload": W, "result": R}`, where `R` is the result line of one
//! untraced run. The i-th run of a workload in one file pairs with the
//! i-th run of the same workload in the other; the runs are expected to
//! alternate between the two commits. A metric is:
//!
//! * `regressed` when the change's median is worse than the parent's by
//!   more than the metric's bound in `BENCHMARK.json`;
//! * `improved` when the change wins at least 9 of every 10 pairs (ties
//!   count for neither side) and the medians differ by more than the
//!   parent's interquartile range;
//! * `unresolved` with fewer than 10 pairs, or when the parent's
//!   interquartile range is wider than the bound and not every change run
//!   reads better than every parent run;
//! * `unchanged` otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hpu_obs::json::Json;

use crate::stats::{median, quartiles};

/// Pairs needed before any verdict but `unresolved`.
const MIN_PAIRS: usize = 10;
/// Share of pairs the change must win to claim a gain.
const WIN_SHARE: f64 = 0.9;

/// One end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end rules of a `BENCHMARK.json` document.
pub fn rules(spec: &str) -> Result<Vec<Rule>, String> {
    let doc = Json::parse(spec)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Rule {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Runs of one file: workload → run results in file order.
pub type Runs = BTreeMap<String, Vec<Json>>;

pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let result = rec
            .get("result")
            .cloned()
            .ok_or(format!("line {}: no result", i + 1))?;
        runs.entry(workload.to_string()).or_default().push(result);
    }
    Ok(runs)
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failed(runs: &[Json]) -> f64 {
    runs.iter()
        .filter_map(|r| r.get("failed").and_then(Json::as_f64))
        .sum()
}

/// One metric of one workload, compared.
#[derive(Debug)]
pub struct Assessment {
    pub parent_median: f64,
    pub change_median: f64,
    /// The parent's interquartile range.
    pub iqr: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: &'static str,
}

pub fn assess(rule: &Rule, parent: &[f64], change: &[f64]) -> Assessment {
    let better = |c: f64, p: f64| if rule.higher_is_better { c > p } else { c < p };
    let pairs = parent.len().min(change.len());
    let (mp, mc) = (median(parent), median(change));
    let iqr = quartiles(parent).map_or(f64::INFINITY, |[q1, _, q3]| q3 - q1);
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse = if rule.higher_is_better {
        mp - mc
    } else {
        mc - mp
    };
    let verdict = if pairs < MIN_PAIRS || (iqr > rule.bound * mp.abs() && !all_better) {
        "unresolved"
    } else if worse > rule.bound * mp.abs() {
        "regressed"
    } else if wins as f64 >= WIN_SHARE * pairs as f64 && better(mc, mp) && (mc - mp).abs() > iqr {
        "improved"
    } else {
        "unchanged"
    };
    Assessment {
        parent_median: mp,
        change_median: mc,
        iqr,
        wins,
        pairs,
        verdict,
    }
}

/// The comparison table, one row per workload and metric, and whether
/// anything regressed or failed more often.
pub fn compare(rules: &[Rule], parent: &Runs, change: &Runs) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<15} {:>14} {:>14} {:>8} {:>6} {:>8}  verdict\n",
        "workload", "metric", "parent_median", "change_median", "change", "wins", "iqr"
    );
    let mut bad = false;
    for (workload, p_runs) in parent {
        let Some(c_runs) = change.get(workload) else {
            let _ = writeln!(out, "{workload:<14} missing from the change's runs");
            bad = true;
            continue;
        };
        if failed(c_runs) > failed(p_runs) {
            let _ = writeln!(
                out,
                "{workload:<14} more failed operations: {} against {}",
                failed(c_runs),
                failed(p_runs)
            );
            bad = true;
        }
        for rule in rules {
            let a = assess(
                rule,
                &values(p_runs, &rule.name),
                &values(c_runs, &rule.name),
            );
            bad |= a.verdict == "regressed";
            let pct = |x: f64| 100.0 * x / a.parent_median.abs().max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "{workload:<14} {:<15} {:>14.6} {:>14.6} {:>+7.2}% {:>3}/{:<2} {:>7.2}%  {}",
                rule.name,
                a.parent_median,
                a.change_median,
                pct(a.change_median - a.parent_median),
                a.wins,
                a.pairs,
                pct(a.iqr),
                a.verdict,
            );
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool) -> Rule {
        Rule {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    fn around(center: f64) -> Vec<f64> {
        (0..10).map(|i| center + f64::from(i) * 0.001).collect()
    }

    #[test]
    fn the_pair_rule() {
        let verdict = |r, p: &[f64], c: &[f64]| assess(&r, p, c).verdict;
        let parent = around(1.0);
        assert_eq!(verdict(rule(true), &parent, &around(1.0)), "unchanged");
        assert_eq!(verdict(rule(true), &parent, &around(1.05)), "improved");
        assert_eq!(verdict(rule(false), &parent, &around(1.05)), "unchanged");
        assert_eq!(verdict(rule(false), &parent, &around(1.2)), "regressed");
        assert_eq!(verdict(rule(true), &parent, &around(0.8)), "regressed");
        assert_eq!(
            verdict(rule(true), &parent[..9], &around(2.0)),
            "unresolved"
        );
        let wide: Vec<f64> = (0..10).map(|i| 1.0 + f64::from(i) * 0.1).collect();
        assert_eq!(verdict(rule(true), &wide, &wide), "unresolved");
        assert_eq!(verdict(rule(true), &wide, &around(5.0)), "improved");
    }

    #[test]
    fn rows_per_workload_and_failed_operations_count() {
        let line = |w: &str, v: f64, failed: u32| {
            format!(
                "{{\"workload\":\"{w}\",\"result\":{{\"correct\":true,\"attempted\":1,\"failed\":{failed},\"metrics\":{{\"m\":{{\"value\":{v},\"unit\":\"s\"}}}}}}}}"
            )
        };
        let file = |v: f64, failed: u32| {
            (0..10)
                .flat_map(|i| [line("a", v + f64::from(i) * 1e-3, 0), line("b", v, failed)])
                .collect::<Vec<_>>()
                .join("\n")
        };
        let parent = parse_runs(&file(1.0, 0)).unwrap();
        let change = parse_runs(&file(1.0, 1)).unwrap();
        let (table, bad) = compare(&[rule(true)], &parent, &change);
        assert!(bad, "{table}");
        assert_eq!(
            table.lines().filter(|l| l.starts_with("a ")).count(),
            1,
            "{table}"
        );
        assert!(table.contains("more failed operations"), "{table}");
    }

    #[test]
    fn rules_come_from_the_benchmark_spec() {
        let spec = r#"{"end_to_end":[{"name":"x","unit":"s","better":"lower","bound":0.2}]}"#;
        assert_eq!(
            rules(spec).unwrap(),
            vec![Rule {
                name: "x".into(),
                higher_is_better: false,
                bound: 0.2
            }]
        );
    }
}
