//! What one benchmark process measured, and how it is printed.

use std::fmt::Write as _;

use crate::manifest::{self, Kind, Workload};

/// Operations attempted and failed: matrix cells, or serve requests.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Metric values of one workload run, in the order they were measured.
pub struct Report {
    pub workload: &'static Workload,
    rows: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(workload: &'static Workload) -> Self {
        Report {
            workload,
            rows: Vec::new(),
        }
    }

    /// Records `value` for the declared metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the metric table does not declare, on a second
    /// value for one name, or on a value that is not finite: all three are
    /// bugs in the harness.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(manifest::metric(name).is_some(), "undeclared metric {name}");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(self.get(name).is_none(), "{name} measured twice");
        self.rows.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Gives every declared per-layer metric this run did not measure the
    /// value 0: a layer the workload never enters did no work.
    pub fn zero_unmeasured_layers(&mut self) {
        for m in manifest::METRICS {
            if m.kind == Kind::Layer && self.get(m.name).is_none() {
                self.rows.push((m.name, 0.0));
            }
        }
    }

    /// One `workload name value unit` line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.rows {
            let unit = manifest::metric(name).expect("checked in put").unit;
            let _ = writeln!(out, "{} {name} {value} {unit}", self.workload.name);
        }
        out
    }

    /// The result line the acceptance driver reads: exactly the metrics
    /// `BENCHMARK.json` declares for this kind of run.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was not measured.
    pub fn result_line(&self, traced: bool, correct: bool, tally: Tally) -> String {
        let mut metrics = Vec::new();
        for m in manifest::METRICS {
            if (m.kind == Kind::Layer) != traced || !m.declared() {
                continue;
            }
            let value = self
                .get(m.name)
                .unwrap_or_else(|| panic!("{} was not measured", m.name));
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let w = &manifest::WORKLOADS[0];
        let mut untraced = Report::new(w);
        for (i, m) in manifest::METRICS.iter().enumerate() {
            if matches!(m.kind, Kind::EndToEnd { on, .. } if on.covers(w)) {
                untraced.put(m.name, 1.5 + i as f64);
            }
        }
        let line = untraced.result_line(
            false,
            true,
            Tally {
                attempted: 40,
                failed: 0,
            },
        );
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(40.0));
        let got: Vec<&str> = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        let mut want: Vec<&str> = manifest::METRICS
            .iter()
            .filter(|m| m.kind != Kind::Layer && m.declared())
            .map(|m| m.name)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(want.contains(&"setup_s") && !want.contains(&"failed_share"));

        let mut traced = Report::new(w);
        traced.put("vm.steady_ms", 12.25);
        traced.zero_unmeasured_layers();
        let doc = json::parse(&traced.result_line(
            true,
            true,
            Tally {
                attempted: 1,
                failed: 0,
            },
        ))
        .unwrap();
        let metrics = doc.get("metrics").and_then(Value::as_obj).unwrap();
        let layers = manifest::METRICS
            .iter()
            .filter(|m| m.kind == Kind::Layer)
            .count();
        assert_eq!(metrics.len(), layers);
        let steady = metrics["vm.steady_ms"].get("value").and_then(Value::as_f64);
        assert_eq!(steady, Some(12.25));
        assert_eq!(
            metrics["vm.steady_ms"].get("unit").and_then(Value::as_str),
            Some("ms")
        );
    }

    #[test]
    fn lines_are_four_fields_and_integers_print_whole() {
        let mut r = Report::new(&manifest::WORKLOADS[3]);
        r.put("sim_cycles", 508_358_548.0);
        r.put("wall_s", 5.25);
        let text = r.lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "serve-fleet sim_cycles 508358548 cycles");
        assert_eq!(lines[1], "serve-fleet wall_s 5.25 s");
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn an_undeclared_name_cannot_be_printed() {
        Report::new(&manifest::WORKLOADS[0]).put("vm.made_up", 1.0);
    }

    #[test]
    fn peak_rss_is_positive_here() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
