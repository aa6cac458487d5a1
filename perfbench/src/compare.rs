//! Compare mode: two sets of recorded runs of the same benchmark, one
//! verdict per workload × end-to-end metric.
//!
//! The rule (a change is "improved" only when it wins nearly every
//! pair and moves the median by more than the parent's own spread;
//! "unresolved" when the runs spread wider than the metric's bound):
//!
//! * **improved** — the change wins at least 9 of 10 pairs (ties count
//!   for neither side) and its median is better than the base median
//!   by more than the distance between the base's quartiles;
//! * **unresolved** — otherwise, when either side's quartile spread
//!   exceeds the bound, unless every change run beats every base run;
//! * **worse** — otherwise, when the change median is worse than the
//!   base median by more than the bound;
//! * **unchanged** — otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::cli::CompareArgs;
use crate::json::{self, Value};
use crate::stats::{quartiles, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Worse,
    Unchanged,
    Unresolved,
}

#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    pub base: Summary,
    pub change: Summary,
    /// Share of index-paired runs the change won.
    pub wins: f64,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Applies the rule above. `bound` is the share of the base median by
/// which the metric may worsen.
pub fn compare(base: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Comparison {
    let (b, c) = (Summary::of(base), Summary::of(change));
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let pairs = base.len().min(change.len());
    let won = base.iter().zip(change).filter(|&(&x, &y)| better(y, x)).count();
    let wins = if pairs == 0 { 0.0 } else { won as f64 / pairs as f64 };
    let all_better = if lower_is_better {
        change.iter().copied().fold(f64::MIN, f64::max)
            < base.iter().copied().fold(f64::MAX, f64::min)
    } else {
        change.iter().copied().fold(f64::MAX, f64::min)
            > base.iter().copied().fold(f64::MIN, f64::max)
    };
    let (bq1, bq3) = quartiles(base);
    let worse_by = if lower_is_better { c.median - b.median } else { b.median - c.median };
    let verdict = if pairs > 0
        && wins >= 0.9
        && better(c.median, b.median)
        && (c.median - b.median).abs() > bq3 - bq1
    {
        Verdict::Improved
    } else if (b.spread() > bound || c.spread() > bound) && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound * b.median.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    Comparison { base: b, change: c, wins, pairs, verdict }
}

/// `(name, lower_is_better, bound)` of each end-to-end metric in the
/// spec.
fn spec_metrics(spec: &Value) -> Result<Vec<(String, bool, f64)>, String> {
    let list =
        spec.get("end_to_end").and_then(Value::as_array).ok_or("spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let lower = match m.get("better").and_then(Value::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), lower, bound))
        })
        .collect()
}

/// Untraced run records in a log, grouped by workload, in file order:
/// workload → metric → values.
fn load_runs(text: &str) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in text.lines() {
        let Ok(v) = json::parse(line.trim()) else { continue };
        if v.get("record").and_then(Value::as_str) != Some("perfbench")
            || v.get("trace").and_then(Value::as_f64) != Some(0.0)
        {
            continue;
        }
        let (Some(workload), Some(metrics)) = (
            v.get("workload").and_then(Value::as_str),
            v.get("metrics").and_then(Value::as_object),
        ) else {
            continue;
        };
        let slot = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                slot.entry(name.clone()).or_default().push(x);
            }
        }
    }
    runs
}

pub fn run(args: &CompareArgs) -> Result<String, String> {
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let spec =
        json::parse(&read(&args.spec)?).map_err(|e| format!("{}: {e}", args.spec.display()))?;
    let metrics = spec_metrics(&spec)?;
    let (base, change) = (load_runs(&read(&args.base)?), load_runs(&read(&args.change)?));
    if base.is_empty() || change.is_empty() {
        return Err("each log needs at least one untraced perfbench record line".into());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<16} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for (workload, b_runs) in &base {
        let Some(c_runs) = change.get(workload) else {
            let _ = writeln!(out, "{workload:<16} (no change runs)");
            continue;
        };
        for (name, lower, bound) in &metrics {
            let (Some(b), Some(c)) = (b_runs.get(name), c_runs.get(name)) else { continue };
            let r = compare(b, c, *lower, *bound);
            let fmt = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            let _ = writeln!(
                out,
                "{workload:<16} {name:<16} {:>30} {:>30} {:>5.0}%  {:?} (n={}/{}, {} pairs, bound {:.0}%)",
                fmt(&r.base),
                fmt(&r.change),
                r.wins * 100.0,
                r.verdict,
                r.base.n,
                r.change.n,
                r.pairs,
                bound * 100.0
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| center * (1.0 + j)).collect()
    }

    const JITTER: [f64; 10] =
        [-0.01, 0.004, 0.012, -0.006, 0.0, 0.008, -0.011, 0.003, -0.002, 0.009];
    const JITTER2: [f64; 10] =
        [0.006, -0.009, 0.001, 0.011, -0.004, -0.012, 0.007, 0.002, -0.001, 0.01];

    #[test]
    fn the_same_distribution_is_unchanged() {
        let r = compare(&around(100.0, &JITTER), &around(100.0, &JITTER2), true, 0.1);
        assert_eq!(r.verdict, Verdict::Unchanged);
        assert_eq!(r.pairs, 10);
    }

    #[test]
    fn a_change_that_wins_every_pair_by_more_than_the_spread_is_improved() {
        // Lower is better: a 10% faster change.
        let r = compare(&around(100.0, &JITTER), &around(90.0, &JITTER2), true, 0.1);
        assert_eq!(r.verdict, Verdict::Improved);
        assert_eq!(r.wins, 1.0);
        // Higher is better: 10% more throughput.
        let r = compare(&around(100.0, &JITTER), &around(110.0, &JITTER2), false, 0.1);
        assert_eq!(r.verdict, Verdict::Improved);
    }

    #[test]
    fn a_small_consistent_gain_within_the_spread_is_not_improved() {
        // Wins most pairs but moves the median by less than the base's
        // quartile distance.
        let r = compare(&around(100.0, &JITTER), &around(99.5, &JITTER), true, 0.1);
        assert_ne!(r.verdict, Verdict::Improved);
        assert_eq!(r.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse() {
        let r = compare(&around(100.0, &JITTER), &around(115.0, &JITTER2), true, 0.1);
        assert_eq!(r.verdict, Verdict::Worse);
        let r = compare(&around(100.0, &JITTER), &around(85.0, &JITTER2), false, 0.1);
        assert_eq!(r.verdict, Verdict::Worse);
        // Within the bound it is unchanged.
        let r = compare(&around(100.0, &JITTER), &around(105.0, &JITTER2), true, 0.1);
        assert_eq!(r.verdict, Verdict::Unchanged);
    }

    #[test]
    fn runs_that_spread_wider_than_the_bound_are_unresolved() {
        let wide = [-0.3, 0.2, 0.25, -0.2, 0.0, 0.3, -0.25, 0.1, -0.1, 0.05];
        let r = compare(&around(100.0, &wide), &around(108.0, &wide), true, 0.1);
        assert_eq!(r.verdict, Verdict::Unresolved);
        // Unless every change run beats every base run.
        let base = around(100.0, &[0.0, 0.2, 0.4, 0.1, 0.3, 0.05, 0.15, 0.25, 0.35, 0.45]);
        let change = around(50.0, &[0.0, 0.2, 0.4, 0.1, 0.3, 0.05, 0.15, 0.25, 0.35, 0.45]);
        assert_eq!(compare(&base, &change, true, 0.1).verdict, Verdict::Improved);
    }

    #[test]
    fn reads_untraced_records_from_a_log() {
        let log = "noise\n\
            {\"record\":\"perfbench\",\"workload\":\"w\",\"trace\":0,\"metrics\":{\"m\":{\"value\":1.5,\"unit\":\"s\"}}}\n\
            {\"record\":\"perfbench\",\"workload\":\"w\",\"trace\":1,\"metrics\":{\"m\":{\"value\":9,\"unit\":\"s\"}}}\n\
            {\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n\
            {\"record\":\"perfbench\",\"workload\":\"w\",\"trace\":0,\"metrics\":{\"m\":{\"value\":2.5,\"unit\":\"s\"}}}\n";
        let runs = load_runs(log);
        assert_eq!(runs["w"]["m"], vec![1.5, 2.5]);
    }
}
