//! Counters and time series.
//!
//! The paper's figures plot cumulative quantities ("number of result tuples
//! output", "number of index probes made") against time. [`Series`] records
//! exactly that: monotone `(time, value)` step points. [`Metrics`] is a
//! string-keyed registry of counters and series attached to an execution.

use crate::{to_secs, Time};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named time series of `(virtual time, value)` observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    points: Vec<(Time, f64)>,
}

impl Series {
    pub fn new() -> Series {
        Series::default()
    }

    /// Append an observation. Time must be non-decreasing.
    pub fn push(&mut self, t: Time, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|(pt, _)| *pt <= t),
            "series time went backwards"
        );
        self.points.push((t, v));
    }

    /// All raw points.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// Last observed value (0.0 if empty).
    pub fn last_value(&self) -> f64 {
        self.points.last().map_or(0.0, |(_, v)| *v)
    }

    /// Time of the last observation.
    pub fn end_time(&self) -> Option<Time> {
        self.points.last().map(|(t, _)| *t)
    }

    /// The value in effect at time `t` (step interpolation; 0.0 before the
    /// first point).
    pub fn value_at(&self, t: Time) -> f64 {
        match self.points.partition_point(|(pt, _)| *pt <= t) {
            0 => 0.0,
            i => self.points[i - 1].1,
        }
    }

    /// Resample to `n+1` equally spaced points over `[0, horizon]` — used
    /// for printing figure rows and for CSV export.
    pub fn sample_grid(&self, horizon: Time, n: usize) -> Vec<(Time, f64)> {
        assert!(n > 0);
        (0..=n)
            .map(|i| {
                let t = horizon / n as u64 * i as u64;
                (t, self.value_at(t))
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Metric registry for one execution: monotone counters (most of which are
/// mirrored into series for plotting) and named series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    series: BTreeMap<String, Series>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `delta` to a counter and record the new value in the counter's
    /// series at time `t`. Allocates only the first time a name is seen.
    pub fn bump(&mut self, name: &str, t: Time, delta: u64) {
        let v = match self.counters.get_mut(name) {
            Some(c) => {
                *c += delta;
                *c
            }
            None => {
                self.counters.insert(name.to_string(), delta);
                delta
            }
        };
        self.observe(name, t, v as f64);
    }

    /// Record a raw (non-counter) observation in a named series, e.g.
    /// memory footprint or a routing fraction.
    pub fn observe(&mut self, name: &str, t: Time, v: f64) {
        match self.series.get_mut(name) {
            Some(s) => s.push(t, v),
            None => {
                let mut s = Series::new();
                s.push(t, v);
                self.series.insert(name.to_string(), s);
            }
        }
    }

    /// Current counter value (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fetch a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Names of all recorded series.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Render selected series as CSV: `time_secs,<name1>,<name2>,...` on a
    /// uniform grid of `n+1` rows over `[0, horizon]`.
    pub fn to_csv(&self, names: &[&str], horizon: Time, n: usize) -> String {
        let mut out = String::new();
        out.push_str("time_secs");
        for name in names {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        for i in 0..=n {
            let t = horizon / n as u64 * i as u64;
            let _ = write!(out, "{:.3}", to_secs(t));
            for name in names {
                let v = self.series(name).map_or(0.0, |s| s.value_at(t));
                let _ = write!(out, ",{v:.3}");
            }
            out.push('\n');
        }
        out
    }

    /// Merge another metrics object (used when a run is composed of phases).
    pub fn absorb(&mut self, other: Metrics) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, s) in other.series {
            let entry = self.series.entry(k).or_default();
            for (t, v) in s.points {
                entry.points.push((t, v));
            }
            entry.points.sort_by_key(|(t, _)| *t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_step_interpolation() {
        let mut s = Series::new();
        s.push(10, 1.0);
        s.push(20, 2.0);
        s.push(20, 3.0);
        assert_eq!(s.value_at(5), 0.0);
        assert_eq!(s.value_at(10), 1.0);
        assert_eq!(s.value_at(15), 1.0);
        assert_eq!(s.value_at(20), 3.0);
        assert_eq!(s.value_at(100), 3.0);
        assert_eq!(s.last_value(), 3.0);
        assert_eq!(s.end_time(), Some(20));
    }

    #[test]
    fn sample_grid_covers_horizon() {
        let mut s = Series::new();
        s.push(0, 0.0);
        s.push(50, 5.0);
        let g = s.sample_grid(100, 4);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], (0, 0.0));
        assert_eq!(g[2], (50, 5.0));
        assert_eq!(g[4], (100, 5.0));
    }

    #[test]
    fn counters_mirror_into_series() {
        let mut m = Metrics::new();
        m.bump("results", 100, 1);
        m.bump("results", 200, 2);
        assert_eq!(m.counter("results"), 3);
        assert_eq!(m.counter("absent"), 0);
        let s = m.series("results").unwrap();
        assert_eq!(s.points(), &[(100, 1.0), (200, 3.0)]);
    }

    #[test]
    fn observe_records_raw_values() {
        let mut m = Metrics::new();
        m.observe("mem", 0, 10.0);
        m.observe("mem", 5, 7.0); // may go down
        assert_eq!(m.series("mem").unwrap().value_at(6), 7.0);
    }

    #[test]
    fn csv_layout() {
        let mut m = Metrics::new();
        m.bump("a", 0, 1);
        m.bump("b", 50, 2);
        let csv = m.to_csv(&["a", "b"], 100, 2);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_secs,a,b");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("0.000,1.000,0.000"));
        assert!(lines[3].contains(",1.000,2.000"));
    }

    #[test]
    fn absorb_merges() {
        let mut a = Metrics::new();
        a.bump("x", 1, 1);
        let mut b = Metrics::new();
        b.bump("x", 2, 5);
        b.observe("y", 3, 1.5);
        a.absorb(b);
        assert_eq!(a.counter("x"), 6);
        assert!(a.series("y").is_some());
    }
}
