//! `--compare A.json B.json`: two sets of runs, side by side.
//!
//! Each file holds the rows `bench --out` appends, one JSON object per
//! line. For every (workload, metric) present in both, the report gives
//! each side's median and quartiles and B's change against A, oriented
//! so that positive is worse. An end-to-end metric is labelled
//! `regressed` when B is worse by more than the metric's bound,
//! `unresolved` when either side's quartile spread exceeds the bound
//! (the runs are too noisy to tell), and `agree` otherwise. Per-layer
//! metrics have no bound: counts are labelled `agree` or `changed`, times
//! are reported without a label.

use crate::json::{self, Json};
use crate::{metric_def, quartiles, spread, Better};
use std::collections::BTreeMap;

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Reads the rows of one `--out` file.
///
/// # Errors
///
/// A line that is not a row object.
pub fn read_rows(text: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let row = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| row.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(w), Some(m)) = (field("workload"), field("metric")) else {
            return Err(format!("line {}: missing workload or metric", n + 1));
        };
        // Non-finite values are written as null; they stay out of the
        // statistics.
        if let Some(v) = row.get("value").and_then(Json::as_f64) {
            out.entry((w, m)).or_default().push(v);
        }
    }
    Ok(out)
}

/// The comparison report, and whether any end-to-end metric regressed.
pub fn compare(a: &Samples, b: &Samples) -> (String, bool) {
    let mut report = format!(
        "{:<16} {:<28} {:>12} {:>23} {:>12} {:>23} {:>8}  {}\n",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse", "label"
    );
    let mut regressed = false;
    for (key, av) in a {
        let Some(bv) = b.get(key) else { continue };
        let (qa, qb) = (quartiles(av), quartiles(bv));
        let def = metric_def(&key.1);
        let sign = match def.map(|d| d.better) {
            Some(Better::Higher) => -1.0,
            _ => 1.0,
        };
        let worse = sign * (qb[1] - qa[1]) / qa[1].abs();
        let label = match def {
            Some(d) => match d.bound {
                Some(bound) => {
                    if spread(av) > bound || spread(bv) > bound {
                        "unresolved"
                    } else if worse > bound {
                        regressed = true;
                        "regressed"
                    } else {
                        "agree"
                    }
                }
                None if matches!(d.unit, "count" | "slices") => {
                    if qa == qb && av.iter().chain(bv).all(|&v| v == qa[1]) {
                        "agree"
                    } else {
                        "changed"
                    }
                }
                None => "",
            },
            None => "",
        };
        report.push_str(&format!(
            "{:<16} {:<28} {:>12.4} {:>11.4}..{:<11.4} {:>12.4} {:>11.4}..{:<11.4} {:>7.1}%  {}\n",
            key.0,
            key.1,
            qa[1],
            qa[0],
            qa[2],
            qb[1],
            qb[0],
            qb[2],
            worse * 100.0,
            label
        ));
    }
    (report, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(metric: &str, values: &[f64]) -> String {
        values
            .iter()
            .map(|v| format!("{{\"workload\":\"w\",\"metric\":\"{metric}\",\"value\":{v}}}\n"))
            .collect()
    }

    #[test]
    fn labels_follow_bounds_and_direction() {
        let a = read_rows(
            &(rows("latency_ms", &[10.0, 10.1, 9.9, 10.0])
                + &rows("throughput_per_s", &[100.0, 101.0, 99.0, 100.0])),
        )
        .unwrap();
        let slower = read_rows(
            &(rows("latency_ms", &[13.0, 13.1, 12.9, 13.0])
                + &rows("throughput_per_s", &[130.0, 131.0, 129.0, 130.0])),
        )
        .unwrap();
        let (report, regressed) = compare(&a, &slower);
        assert!(regressed);
        let line = |m: &str| report.lines().find(|l| l.contains(m)).unwrap().to_string();
        assert!(line("latency_ms").ends_with("regressed"), "{report}");
        // Higher throughput is better: +30% is an improvement.
        assert!(line("throughput_per_s").ends_with("agree"), "{report}");

        let noisy = read_rows(&rows("latency_ms", &[5.0, 10.0, 20.0, 40.0])).unwrap();
        let (report, regressed) = compare(&a, &noisy);
        assert!(!regressed);
        assert!(report.contains("unresolved"), "{report}");
    }

    #[test]
    fn counts_agree_only_when_identical() {
        let a = read_rows(&rows("netlist.cells", &[500.0, 500.0])).unwrap();
        let b = read_rows(&rows("netlist.cells", &[500.0, 501.0])).unwrap();
        assert!(compare(&a, &a).0.contains("agree"));
        assert!(compare(&a, &b).0.contains("changed"));
        assert!(read_rows("not json").is_err());
    }
}
