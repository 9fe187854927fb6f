//! What one run reports: metrics with units, the failure tally, the
//! run facts, and the result line the driver reads.

use crate::stats::Tally;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, full precision.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `bytes`.
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Run facts (`key`, `value`) printed with the report.
    pub facts: Vec<(String, String)>,
    /// Human-readable trace summary (traced runs only).
    pub trace_table: String,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends a run fact.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Whether every operation passed its checks and every metric is
    /// a finite number.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0
            && self.tally.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The human-readable report: facts, metrics and the trace table.
    pub fn human(&self, workload: &str) -> String {
        let mut out = format!("== {workload} ==\n");
        for (k, v) in &self.facts {
            let _ = writeln!(out, "  {k:<28} {v}");
        }
        let _ = writeln!(
            out,
            "  {:<28} {} of {} ({})",
            "failed_fraction",
            self.tally.failed,
            self.tally.attempted,
            self.tally.failed_fraction()
        );
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<28} {} {}", m.name, m.value, m.unit);
        }
        out.push_str(&self.trace_table);
        out
    }
}

/// Renders a finite float with every digit Rust keeps (shortest
/// round-trip form); non-finite values become `null`, which fails the
/// run's `correct` flag instead of printing invalid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host's last-level cache size as the kernel reports it.
pub fn l3_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.tally.record(true);
        o.metric("setup_s", 0.5, "s");
        o.metric("updates_per_s", 12.25, "1/s");
        let line = o.result_line();
        let parsed = fedsz_telemetry::json::parse(&line).unwrap();
        let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(true));
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn a_failed_check_or_a_nan_metric_is_not_correct() {
        let mut o = Outcome::default();
        o.tally.record(true);
        o.tally.record(false);
        assert!(!o.correct());
        let mut o = Outcome::default();
        o.tally.record(true);
        o.metric("x", f64::NAN, "s");
        assert!(!o.correct());
        assert!(o.result_line().contains("null"));
    }
}
