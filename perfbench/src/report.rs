//! Metric records, sample statistics and the result line.

use std::fmt::Write as _;
use std::time::Instant;

use sj_telemetry::{Event, Value};

/// Which clock (or kind of quantity) a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock seconds, timed from outside the library call.
    Wall,
    /// Deterministic simulated seconds from the warp-simulator model.
    Model,
    /// A count or a dimensionless ratio.
    Count,
    /// Resident memory of the workload process.
    Memory,
}

impl Clock {
    /// The label printed next to each metric.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "host wall",
            Clock::Model => "model",
            Clock::Count => "count",
            Clock::Memory => "memory",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Clock the value was read from.
    pub clock: Clock,
    /// How the value was formed (sample count, statistic).
    pub note: String,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (setups, joins, serve requests).
    pub attempted: u64,
    /// Operations that failed, answered wrongly, or drifted.
    pub failed: u64,
    /// One line per failure, printed before the result line.
    pub failures: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        clock: Clock,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            clock,
            note: note.into(),
        });
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Checks `actual == expected` and records a failure otherwise.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        actual: T,
        expected: T,
    ) {
        if actual != expected {
            self.fail(format!("{what}: got {actual:?}, expected {expected:?}"));
        }
    }

    /// Records the process's peak resident memory so far. Workloads call
    /// this before their untimed reference check, so the figure is the
    /// system's, not the checker's.
    pub fn peak_rss(&mut self) -> Result<(), String> {
        let mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        self.metric(
            "peak_rss_mb",
            mb,
            "MiB",
            Clock::Memory,
            "VmHWM of the workload process",
        );
        Ok(())
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable lines: one per failure and one per metric.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self.failures.iter().map(|f| format!("FAIL {f}")).collect();
        for m in &self.metrics {
            out.push(format!(
                "{:<28} {:>18} {:<6} [{}] {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.clock.label(),
                m.note
            ));
        }
        out
    }

    /// The machine-readable result line.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                format_value(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Formats a finite number with all its digits (shortest round-trip form);
/// a non-finite value, which is never a valid measurement, prints as `null`.
pub fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Seconds elapsed since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `reps` calls of `f`, returning the seconds of each and the last
/// value.
pub fn timed<T>(reps: usize, f: impl FnMut() -> T) -> (Vec<f64>, T) {
    repeat_for(reps, reps, 0.0, f)
}

/// Sum and count of an `f64` or `u64` field over the events of
/// `scope`/`name`.
pub fn sum_field(events: &[Event], scope: &str, name: &str, field: &str) -> (f64, usize) {
    let hits: Vec<f64> = events
        .iter()
        .filter(|e| e.scope == scope && e.name == name)
        .filter_map(|e| match e.field(field) {
            Some(Value::U64(v)) => Some(*v as f64),
            Some(Value::F64(v)) => Some(*v),
            _ => None,
        })
        .collect();
    (hits.iter().sum(), hits.len())
}

/// Repeats `f` at least `min_reps` times and until `budget_s` seconds
/// have passed, at most `max_reps` times; returns the seconds of each call
/// and the last value.
pub fn repeat_for<T>(
    min_reps: usize,
    max_reps: usize,
    budget_s: f64,
    mut f: impl FnMut() -> T,
) -> (Vec<f64>, T) {
    let start = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let v = std::hint::black_box(f());
        secs.push(since(t));
        let done = secs.len() >= max_reps || (secs.len() >= min_reps && since(start) >= budget_s);
        if done {
            return (secs, v);
        }
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 0 {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail latency of `samples`: the highest nearest-rank percentile, up
/// to p99, that leaves at least ten samples beyond it (the median when
/// there are too few), with that percentile.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 50.0);
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n
        .saturating_sub(10)
        .min((99 * n).div_ceil(100))
        .max(n.div_ceil(2));
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(tail(&v), (90.0, 90.0));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), (1980.0, 99.0));
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 2.0);
    }

    #[test]
    fn json_line_is_strict_json() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_p50_s", 0.125, "s", Clock::Wall, "");
        o.metric("model_s", 1e-7, "s", Clock::Model, "");
        let doc = sj_telemetry::json::parse(&o.json_line()).expect("strict JSON");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        let m = doc.get("metrics").and_then(|m| m.get("model_s")).unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1e-7));
    }
}
