//! `compare <a.json> <b.json>`: the A/A check and the A/B tool. For
//! every workload × end-to-end metric of two result files written by
//! `all`, prints both medians, the relative difference, the bound and a
//! verdict.

use fastbn::telemetry::Json;

use crate::report::{Better, MetricDef, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The spread inside either run is wider than the bound: the two
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match def.better {
        Better::Higher => -change,
        Better::Lower => change,
    }
}

/// `spread_*` are the runs' own inter-quartile ranges as shares of their
/// medians.
pub fn verdict(def: &MetricDef, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics have bounds");
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worsening(def, a, b) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(median, iqr / median)` of one metric of one workload's clean run.
fn reading(file: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let run = file.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace").and_then(Json::as_u64) == Some(0)
    })?;
    let m = run.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let iqr = m.get("iqr").and_then(Json::as_f64).unwrap_or(0.0);
    Some((value, iqr / value.abs().max(f64::MIN_POSITIVE)))
}

/// Prints the table; `Ok(true)` when no pairing is worse.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (path, file) in [(path_a, &a), (path_b, &b)] {
        if file.get("comparable").and_then(|c| match c {
            Json::Bool(flag) => Some(*flag),
            _ => None,
        }) != Some(true)
        {
            return Err(format!("{path}: a --quick result compares with nothing"));
        }
    }
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound", "spread"
    );
    let mut clean = true;
    for workload in crate::model::Workload::ALL {
        for def in END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) = (
                reading(&a, workload.name(), def.name),
                reading(&b, workload.name(), def.name),
            ) else {
                return Err(format!(
                    "{} {} is missing from one of the files",
                    workload.name(),
                    def.name
                ));
            };
            let v = verdict(def, va, vb, sa, sb);
            clean &= v != Verdict::Worse;
            println!(
                "{:<14} {:<14} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}% {:>7.2}%  {}",
                workload.name(),
                def.name,
                va,
                vb,
                100.0 * worsening(def, va, vb),
                100.0 * def.bound.unwrap_or(0.0),
                100.0 * sa.max(sb),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::end_to_end;

    #[test]
    fn direction_decides_what_worse_means() {
        let qps = end_to_end("qps").unwrap();
        let p50 = end_to_end("p50_us").unwrap();
        assert!((worsening(qps, 100.0, 80.0) - 0.20).abs() < 1e-12);
        assert!((worsening(qps, 100.0, 120.0) + 0.20).abs() < 1e-12);
        assert!((worsening(p50, 100.0, 120.0) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let qps = end_to_end("qps").unwrap();
        let bound = qps.bound.unwrap();
        assert_eq!(
            verdict(qps, 100.0, 100.0 * (1.0 - bound / 2.0), 0.01, 0.01),
            Verdict::Ok
        );
        assert_eq!(
            verdict(qps, 100.0, 100.0 * (1.0 - 2.0 * bound), 0.01, 0.01),
            Verdict::Worse
        );
        assert_eq!(verdict(qps, 100.0, 150.0, 0.01, 0.01), Verdict::Ok);
        assert_eq!(
            verdict(qps, 100.0, 100.0, 0.01, 2.0 * bound),
            Verdict::Unresolved
        );
    }
}
