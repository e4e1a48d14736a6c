//! Metric records, order statistics, process counters and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Builds the metric list of one run in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Latency samples of one job class, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// One sample per group of repeats of one computation: the group's
    /// fastest. On a shared host the fastest repeat is the one least slowed
    /// by other tenants. Empty groups give no sample.
    pub fn bests(groups: &[Samples]) -> Samples {
        Samples(
            groups
                .iter()
                .filter(|g| !g.is_empty())
                .map(|g| g.0.iter().copied().fold(f64::INFINITY, f64::min))
                .collect(),
        )
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn median(&self) -> f64 {
        median(self.0.clone())
    }

    /// The highest order statistic with at least ten samples above it, and
    /// the percentile it stands for. Below twenty samples that statistic
    /// would not even reach the median, so the maximum is returned as the
    /// 100th percentile instead.
    pub fn tail(&self) -> (f64, f64) {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        if n < 20 {
            return (v[n - 1], 100.0);
        }
        (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    }
}

/// The median (mean of the two middle values for even counts; 0 if none).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// A sum that does not depend on the order its terms arrived in: they are
/// sorted first, so the same terms always give the same bits whatever the
/// seed's job order or the connections' interleaving.
pub fn order_free_sum(terms: &[f64]) -> f64 {
    let mut terms = terms.to_vec();
    terms.sort_by(f64::total_cmp);
    terms.iter().sum()
}

/// Wall and CPU time of one stretch of a run: a batch pass or a serve
/// session.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    pub jobs: usize,
    pub wall: Duration,
    pub cpu: Duration,
}

/// Times one stretch.
pub struct StretchTimer {
    started: Instant,
    cpu0: Duration,
}

impl StretchTimer {
    pub fn start() -> Self {
        StretchTimer {
            cpu0: process_cpu(),
            started: Instant::now(),
        }
    }

    pub fn stop(self, jobs: usize) -> Stretch {
        Stretch {
            jobs,
            wall: self.started.elapsed(),
            cpu: process_cpu().saturating_sub(self.cpu0),
        }
    }
}

/// Throughput (jobs per second) and CPU seconds per job of the fastest
/// stretch, each taken separately.
pub fn best_rates(stretches: &[Stretch]) -> (f64, f64) {
    let throughput = stretches
        .iter()
        .map(|s| share(s.jobs as f64, s.wall.as_secs_f64()))
        .fold(0.0, f64::max);
    let cpu = stretches
        .iter()
        .map(|s| share(s.cpu.as_secs_f64(), s.jobs as f64))
        .fold(f64::INFINITY, f64::min);
    (throughput, cpu)
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`.
pub fn process_cpu() -> Duration {
    // Fields 14 and 15 (utime, stime) in clock ticks of USER_HZ = 100,
    // counted after the parenthesised command name, which may hold spaces.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<u64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Duration::from_millis(10 * fields.iter().sum::<u64>())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a few set-up durations, in seconds.
pub fn median_secs(durations: &[Duration]) -> f64 {
    median(durations.iter().map(Duration::as_secs_f64).collect())
}

/// Share `part / whole`, 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the metrics, each with its value and unit.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest round-tripping form of an f64, which
        // keeps every digit as measured; non-finite values are not JSON.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let mut s = Samples::default();
        for i in 1..=40 {
            s.push_ms(f64::from(i));
        }
        assert_eq!(s.tail(), (30.0, 75.0));
        assert_eq!(s.median(), 20.5);
    }

    #[test]
    fn bests_keep_one_sample_per_group() {
        let group = |ms: &[f64]| {
            let mut g = Samples::default();
            ms.iter().for_each(|&v| g.push_ms(v));
            g
        };
        let bests = Samples::bests(&[group(&[3.0, 1.0]), group(&[]), group(&[9.0, 7.0, 8.0])]);
        assert_eq!(bests.len(), 2);
        // Below twenty samples the tail is the slowest group's best.
        assert_eq!(bests.tail(), (7.0, 100.0));
        assert_eq!(bests.median(), 4.0);
    }

    #[test]
    fn order_free_sum_ignores_arrival_order() {
        // Plain left-to-right sums of these differ in the last bit.
        assert_ne!(0.1 + 0.2 + 0.3, 0.3 + 0.2 + 0.1);
        assert_eq!(
            order_free_sum(&[0.1, 0.2, 0.3]).to_bits(),
            order_free_sum(&[0.3, 0.2, 0.1]).to_bits()
        );
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("a_ms", "ms", 1.5);
        m.push("b", "count", 3.0);
        assert_eq!(
            result_line(4, 0, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
