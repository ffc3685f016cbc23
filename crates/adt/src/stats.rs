//! Lightweight phase timing for the benchmark harness.
//!
//! The paper times each analysis phase separately (auxiliary analysis,
//! memory SSA, SVFG construction, versioning, main phase). [`PhaseTimer`]
//! records named phase durations in order, plus named integer counters
//! (task counts, steal counts, worker counts from the parallel phases),
//! and can render both as a JSON object for `BENCH_*.json` outputs.

use std::time::{Duration, Instant};

/// Records the wall-clock duration of named phases.
///
/// # Examples
///
/// ```
/// use vsfs_adt::stats::PhaseTimer;
///
/// let mut t = PhaseTimer::new();
/// t.time("setup", || { /* work */ });
/// assert_eq!(t.phases().len(), 1);
/// assert_eq!(t.phases()[0].0, "setup");
/// ```
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    phases: Vec<(String, Duration)>,
    counters: Vec<(String, u64)>,
}

impl PhaseTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        PhaseTimer::default()
    }

    /// Runs `f`, recording its duration under `name`, and returns its value.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.phases.push((name.to_string(), start.elapsed()));
        out
    }

    /// Records an externally measured duration.
    pub fn record(&mut self, name: &str, d: Duration) {
        self.phases.push((name.to_string(), d));
    }

    /// The recorded `(name, duration)` pairs, in recording order.
    pub fn phases(&self) -> &[(String, Duration)] {
        &self.phases
    }

    /// The duration of the most recently recorded phase named `name`.
    pub fn duration(&self, name: &str) -> Option<Duration> {
        self.phases.iter().rev().find(|(n, _)| n == name).map(|(_, d)| *d)
    }

    /// Sum of all recorded phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }

    /// Records (or accumulates into) a named integer counter.
    pub fn count(&mut self, name: &str, value: u64) {
        if let Some((_, v)) = self.counters.iter_mut().find(|(n, _)| n == name) {
            *v += value;
        } else {
            self.counters.push((name.to_string(), value));
        }
    }

    /// The recorded `(name, value)` counters, in recording order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// The value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Renders phases (in seconds) and counters as a JSON object:
    /// `{"phases": {...}, "counters": {...}}`. Duplicate phase names
    /// accumulate.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"phases\": {");
        let mut merged: Vec<(String, f64)> = Vec::new();
        for (n, d) in &self.phases {
            if let Some((_, v)) = merged.iter_mut().find(|(m, _)| m == n) {
                *v += d.as_secs_f64();
            } else {
                merged.push((n.clone(), d.as_secs_f64()));
            }
        }
        for (i, (n, secs)) in merged.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {:.6}", json_string(n), secs));
        }
        out.push_str("}, \"counters\": {");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_string(n), v));
        }
        out.push_str("}}");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_phases_in_order() {
        let mut t = PhaseTimer::new();
        let v = t.time("a", || 41) + 1;
        assert_eq!(v, 42);
        t.record("b", Duration::from_millis(5));
        assert_eq!(t.phases().len(), 2);
        assert_eq!(t.phases()[0].0, "a");
        assert_eq!(t.duration("b"), Some(Duration::from_millis(5)));
        assert!(t.total() >= Duration::from_millis(5));
        assert_eq!(t.duration("missing"), None);
    }

    #[test]
    fn counters_accumulate_and_render_as_json() {
        let mut t = PhaseTimer::new();
        t.record("solve", Duration::from_millis(250));
        t.count("solve.tasks", 10);
        t.count("solve.tasks", 5);
        t.count("solve.workers", 4);
        assert_eq!(t.counter("solve.tasks"), Some(15));
        assert_eq!(t.counter("absent"), None);
        let json = t.to_json();
        assert!(json.contains("\"solve\": 0.250000"), "{json}");
        assert!(json.contains("\"solve.tasks\": 15"), "{json}");
        assert!(json.contains("\"solve.workers\": 4"), "{json}");
    }
}
