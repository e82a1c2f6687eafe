//! The run's result: human-readable notes and the one-line JSON object
//! the benchmark ends with.

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output matched the reference and nothing was refused.
    pub correct: bool,
    /// Events offered.
    pub attempted: u64,
    /// Refused events plus reactions missing, extra or not byte-equal.
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the JSON.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric (also as a note line).
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.notes
            .push(format!("  {name:<34} {value:>14.6} {unit}"));
        self.metrics.push((name, value, unit));
    }

    /// Print a figure that is reported but not part of the JSON line.
    pub fn figure(&mut self, name: &str, value: f64, unit: &str, why: &str) {
        self.notes
            .push(format!("  {name:<34} {value:>14.6} {unit} ({why})"));
    }

    /// Add a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
