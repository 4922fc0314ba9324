//! The result line: metric names, units and the JSON object the benchmark
//! prints last.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Value as measured, printed with every digit.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// A metric name: 1 to 64 letters, digits, `_`, `.` and `-`, starting with
/// a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Problems that make a metric list unprintable: a bad name or unit, a
/// duplicate, or a value JSON cannot hold.
pub fn metric_problems(metrics: &[Metric]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(m.name) {
            problems.push(format!("invalid metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            problems.push(format!("invalid unit {:?} for {}", m.unit, m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite ({})", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            problems.push(format!("duplicate metric {}", m.name));
        }
    }
    problems
}

/// `metrics` as a JSON object `{"<name>": {"value": .., "unit": ".."}, ..}`.
/// Names and units must already satisfy [`metric_problems`].
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` on f64 is the shortest representation that round-trips,
        // so every measured digit is kept.
        write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push('}');
    out
}

/// The last line the benchmark prints:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metric_grammar() {
        for ok in [
            "setup_s",
            "sim.run_ms",
            "audit.conflict_ratio",
            "a-b.c_9",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".sim",
            "_x",
            "sim run",
            "sim/run",
            "µs",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn units_follow_the_unit_grammar() {
        for ok in ["ms", "s", "1/s", "count", "%", "s/s", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn problems_flag_duplicates_and_non_finite_values() {
        let metrics = [
            Metric::new("a", 1.0, "s"),
            Metric::new("a", 2.0, "s"),
            Metric::new("b", f64::NAN, "s"),
            Metric::new("c d", 1.0, "s"),
        ];
        let problems = metric_problems(&metrics);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(metric_problems(&metrics[..1]).is_empty());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("latency_ms", 1.203_456_789_012_3, "ms"),
                Metric::new("detect_quanta", 2.0, "quanta"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, \
             \"detect_quanta\": {\"value\": 2.0, \"unit\": \"quanta\"}}}"
        );
    }
}
