//! What one child process measured, and the pooled view of a run.
//!
//! A child prints its [`Report`] as plain lines on standard output
//! (`S name v…` sample lists, `T name v` totals, `F message` failed
//! checks); the runner parses and merges the reports of all its
//! children, so every metric of a run pools the samples of several
//! fresh processes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// First line of a child's report.
pub const HEADER: &str = "#perfbench-report";

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub samples: BTreeMap<String, Vec<f64>>,
    pub totals: BTreeMap<String, f64>,
    pub failures: Vec<String>,
}

impl Report {
    /// Appends one sample to a named list.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    /// Adds to a named total.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.totals.entry(name.to_owned()).or_default() += value;
    }

    /// Records a failed output check.
    pub fn fail(&mut self, message: impl Into<String>) {
        let message: String = message.into();
        self.failures.push(message.replace('\n', " "));
    }

    /// Records a failed check unless `ok`; the message is only built on
    /// failure.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of a sample list (0 when empty).
    pub fn sum(&self, name: &str) -> f64 {
        // An empty float sum is -0.0; report it as 0.
        self.get(name).iter().sum::<f64>() + 0.0
    }

    pub fn merge(&mut self, other: Report) {
        for (k, mut v) in other.samples {
            self.samples.entry(k).or_default().append(&mut v);
        }
        for (k, v) in other.totals {
            self.add(&k, v);
        }
        self.failures.extend(other.failures);
    }

    pub fn to_text(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for (name, values) in &self.samples {
            out.push_str("S ");
            out.push_str(name);
            for v in values {
                write!(out, " {v:e}").expect("writing to a String");
            }
            out.push('\n');
        }
        for (name, v) in &self.totals {
            writeln!(out, "T {name} {v:e}").expect("writing to a String");
        }
        for f in &self.failures {
            writeln!(out, "F {f}").expect("writing to a String");
        }
        out
    }

    /// Parses [`Self::to_text`] output: everything after the header
    /// line (earlier lines are ignored).
    pub fn parse(text: &str) -> Result<Report, String> {
        let body = text
            .split_once(&format!("{HEADER}\n"))
            .map(|(_, b)| b)
            .ok_or_else(|| "no report header".to_owned())?;
        let mut r = Report::default();
        let num = |s: &str| s.parse::<f64>().map_err(|e| format!("bad number {s:?}: {e}"));
        for line in body.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kind {
                "S" => {
                    let mut parts = rest.split(' ');
                    let name = parts.next().unwrap_or_default();
                    let values = parts.map(num).collect::<Result<Vec<_>, _>>()?;
                    r.samples.entry(name.to_owned()).or_default().extend(values);
                }
                "T" => {
                    let (name, v) = rest.split_once(' ').ok_or("total without value")?;
                    r.add(name, num(v)?);
                }
                "F" => r.failures.push(rest.to_owned()),
                "" => {}
                other => return Err(format!("unknown report line kind {other:?}")),
            }
        }
        Ok(r)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
