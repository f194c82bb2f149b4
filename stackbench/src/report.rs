//! The run's output: a human-readable block, then one JSON line.

use crate::run::Outcome;
use crate::stats::valid_metric_name;

/// Renders the JSON result line: `correct`, `attempted`, `failed` and
/// `metrics` (each metric's value and unit).
///
/// # Errors
///
/// A metric with an illegal name or a non-finite value.
pub fn json_line(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for &(name, value, unit) in &outcome.metrics {
        if !valid_metric_name(name) {
            return Err(format!("illegal metric name {name:?}"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

/// Renders the human-readable report: one metric per line with its unit,
/// then notes and failed checks.
#[must_use]
pub fn table(workload: &str, outcome: &Outcome) -> String {
    let mut out = format!("workload {workload}\n");
    for &(name, value, unit) in &outcome.metrics {
        out.push_str(&format!("  {name:<32} {value:>16.6} {unit}\n"));
    }
    for note in &outcome.notes {
        out.push_str(&format!("  note: {note}\n"));
    }
    for error in &outcome.errors {
        out.push_str(&format!("  FAILED CHECK: {error}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("latency_p50_ms", 1.25, "ms"), ("setup_s", 0.5, "s")],
            ..Outcome::default()
        };
        assert_eq!(
            json_line(&outcome).unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_line_refuses_bad_metrics() {
        let bad_name = Outcome {
            metrics: vec![("bad name", 1.0, "s")],
            ..Outcome::default()
        };
        assert!(json_line(&bad_name).is_err());
        let nan = Outcome {
            metrics: vec![("x", f64::NAN, "s")],
            ..Outcome::default()
        };
        assert!(json_line(&nan).is_err());
    }
}
