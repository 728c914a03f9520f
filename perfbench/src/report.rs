//! Metric collection, the order statistics the metrics are built from, and
//! the JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records (or overwrites) `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name, value, unit)),
        }
    }

    /// The recorded value of `name`, or 0 when it was never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    /// Adds `delta` to `name` (creating it at 0).
    pub fn add(&mut self, name: &str, delta: f64, unit: &'static str) {
        let v = self.get(name);
        self.set(name, v + delta, unit);
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of each
    /// value.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Timing of one query (a cursor, a planned call or a service session),
/// measured from its open.
#[derive(Clone, Debug)]
pub struct QueryTime {
    /// The query class the medians are grouped by.
    pub class: String,
    /// Open → first result (open → end when the query produced nothing).
    pub first_ms: f64,
    /// Open → last result.
    pub last_ms: f64,
    /// Open → end of stream, `STOP AFTER`, or the consumer's stop.
    pub end_ms: f64,
    /// Results delivered.
    pub pairs: u64,
}

/// Median of `v` (the mean of the middle two for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`; 0 if empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Geometric mean of positive values; 0 if empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let logs: f64 = v.iter().map(|x| x.max(1e-9).ln()).sum();
    (logs / v.len() as f64).exp()
}

/// Per-class medians of `pick`, in class order.
pub fn class_medians(queries: &[QueryTime], pick: impl Fn(&QueryTime) -> f64) -> Vec<f64> {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for q in queries {
        by_class.entry(&q.class).or_default().push(pick(q));
    }
    by_class.values().map(|v| median(v)).collect()
}

/// The end-to-end metrics every workload reports. Latencies are the
/// geometric mean over query classes of each class's median, so a run that
/// ends mid-cycle does not shift them between classes.
pub fn end_to_end(queries: &[QueryTime], timed_s: f64, setup_s: f64) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set(
        "first_result_ms",
        geomean(&class_medians(queries, |q| q.first_ms)),
        "ms",
    );
    m.set(
        "last_result_ms",
        geomean(&class_medians(queries, |q| q.last_ms)),
        "ms",
    );
    m.set(
        "query_ms",
        geomean(&class_medians(queries, |q| q.end_ms)),
        "ms",
    );
    let pairs: u64 = queries.iter().map(|q| q.pairs).sum();
    m.set("pairs_per_s", pairs as f64 / timed_s.max(1e-9), "pairs/s");
    m
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 99.0), 4.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_json_keeps_order_and_digits() {
        let mut m = Metrics::default();
        m.set("b", 1.25, "ms");
        m.set("a", 3.0, "s");
        m.add("b", 1.0, "ms");
        assert_eq!(
            m.to_json(),
            "{\"b\": {\"value\": 2.25, \"unit\": \"ms\"}, \"a\": {\"value\": 3, \"unit\": \"s\"}}"
        );
    }
}
