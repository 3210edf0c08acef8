//! Shared harness for the experiment binaries.
//!
//! Every binary regenerates one figure (or reconstructed experiment) of
//! the paper: it runs the SteM architecture and its baselines on the same
//! workload, prints the figure's series as aligned rows and an ASCII
//! chart, writes a CSV to `results/`, and evaluates the paper's
//! qualitative claims as explicit SHAPE-CHECK lines.
//!
//! Binaries (one per experiment):
//! `fig7`, `fig8`, `exp_competition`, `exp_spanning_tree`, `exp_reorder`,
//! `exp_nary_shj`, `exp_grace_hybrid`, `exp_buildfirst`. The `bench_*`
//! perf-trajectory binaries share the [`harness`] module.

pub mod harness;

use std::fmt::Write as _;
use std::path::PathBuf;
use stems_sim::{ascii_plot, to_secs, PlotSpec, Series, Time};

/// Where CSV outputs go: `$STEMS_RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("STEMS_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Write a CSV file into the results directory, reporting the path.
pub fn save_csv(name: &str, content: &str) {
    let path = results_dir().join(name);
    match std::fs::write(&path, content) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  ! could not write {}: {e}", path.display()),
    }
}

/// Render several series as an aligned table sampled on a uniform time
/// grid — the textual equivalent of one paper figure panel.
pub fn series_table(title: &str, horizon: Time, rows: usize, series: &[(&str, &Series)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n{title}");
    let _ = write!(out, "{:>10}", "time(s)");
    for (name, _) in series {
        let _ = write!(out, "{name:>16}");
    }
    let _ = writeln!(out);
    for i in 0..=rows {
        let t = (horizon as u128 * i as u128 / rows as u128) as Time;
        let _ = write!(out, "{:>10.1}", to_secs(t));
        for (_, s) in series {
            let _ = write!(out, "{:>16.1}", s.value_at(t));
        }
        let _ = writeln!(out);
    }
    out
}

/// Render the figure as an ASCII chart.
pub fn chart(title: &str, y_label: &str, horizon: Time, series: &[(&str, &Series)]) -> String {
    let spec = PlotSpec {
        title: title.to_string(),
        y_label: y_label.to_string(),
        horizon,
        ..PlotSpec::default()
    };
    ascii_plot(&spec, series)
}

/// Positive-integer environment knob shared by the bench binaries
/// (`STEMS_BENCH_ROWS`, `STEMS_BENCH_RUNS`, ...). A set-but-invalid
/// value panics rather than silently benchmarking the default workload.
pub fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("{name} must be a positive integer, got {s:?}"),
        },
        Err(e) => panic!("{name} is not valid unicode: {e}"),
    }
}

/// FNV-1a over a byte slice — the deterministic primitive behind the
/// bench binaries' result hashes.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = seed;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A machine-independent hash of a result multiset, rendered as 16 hex
/// digits. Rows are rendered to strings by the caller; the hash sorts
/// them first, so emission order never matters — two series hash equal
/// iff they produced the same result multiset. Benchmarks embed this as
/// the `result_hash` JSON field, and `tools/bench_check.py` gates CI on
/// cross-series (and cross-commit) equality.
pub fn result_hash(mut rows: Vec<String>) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    rows.sort_unstable();
    let mut h = OFFSET;
    for row in &rows {
        h = fnv1a(h, row.as_bytes());
        h = fnv1a(h, &[0x1e]); // row separator
    }
    h = fnv1a(h, &rows.len().to_le_bytes());
    format!("{h:016x}")
}

/// Render a canonical result multiset (`Report::canonical`) for hashing.
pub fn render_canonical(rows: &[Vec<stems_types::Value>]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join("\u{1f}")
        })
        .collect()
}

/// Evaluate and print one qualitative claim from the paper. Returns the
/// outcome so binaries can exit non-zero when a shape check fails.
pub fn shape_check(claim: &str, ok: bool) -> bool {
    println!(
        "  SHAPE-CHECK [{}] {claim}",
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

/// Standard binary epilogue: exit code reflects shape checks.
pub fn finish(all_ok: bool) {
    if all_ok {
        println!("\nall shape checks passed");
    } else {
        println!("\nSOME SHAPE CHECKS FAILED");
        std::process::exit(1);
    }
}

/// Convenience: the fraction of grid points in `[from, to]` where series
/// `a` ≥ series `b` (used for "curve X dominates curve Y" claims).
pub fn dominance_fraction(a: &Series, b: &Series, from: Time, to: Time, points: usize) -> f64 {
    let mut wins = 0;
    for i in 0..=points {
        let t = from + ((to - from) as u128 * i as u128 / points as u128) as Time;
        if a.value_at(t) >= b.value_at(t) {
            wins += 1;
        }
    }
    wins as f64 / (points + 1) as f64
}

/// Linearity measure: maximum absolute deviation of a cumulative series
/// from the straight line through (0,0)–(horizon, final), normalized by
/// the final value. Small ⇒ the curve is nearly linear (fig 7's SteM
/// curve); large ⇒ strongly convex/concave (the index join parabola).
pub fn linearity_deviation(s: &Series, horizon: Time, points: usize) -> f64 {
    let total = s.value_at(horizon);
    if total <= 0.0 {
        return 0.0;
    }
    let mut max_dev = 0.0f64;
    for i in 0..=points {
        let t = (horizon as u128 * i as u128 / points as u128) as Time;
        let line = total * t as f64 / horizon as f64;
        max_dev = max_dev.max((s.value_at(t) - line).abs());
    }
    max_dev / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(rate: f64, horizon: Time) -> Series {
        let mut s = Series::new();
        for i in 0..=100u64 {
            let t = horizon * i / 100;
            s.push(t, rate * to_secs(t));
        }
        s
    }

    fn quadratic(scale: f64, horizon: Time) -> Series {
        let mut s = Series::new();
        for i in 0..=100u64 {
            let t = horizon * i / 100;
            s.push(t, scale * to_secs(t) * to_secs(t));
        }
        s
    }

    #[test]
    fn dominance_of_faster_series() {
        let fast = linear(2.0, 1_000_000);
        let slow = linear(1.0, 1_000_000);
        assert_eq!(dominance_fraction(&fast, &slow, 0, 1_000_000, 20), 1.0);
        assert!(dominance_fraction(&slow, &fast, 100, 1_000_000, 20) < 0.1);
    }

    #[test]
    fn linearity_separates_line_from_parabola() {
        let h = stems_sim::secs(100);
        let line = linear(5.0, h);
        let para = quadratic(0.05, h);
        assert!(linearity_deviation(&line, h, 50) < 0.02);
        assert!(linearity_deviation(&para, h, 50) > 0.15);
    }

    #[test]
    fn table_contains_header_and_values() {
        let s = linear(1.0, 1_000_000);
        let t = series_table("fig", 1_000_000, 4, &[("stems", &s)]);
        assert!(t.contains("stems"));
        assert!(t.contains("time(s)"));
        assert!(t.lines().count() >= 7);
    }

    #[test]
    fn results_dir_exists() {
        let d = results_dir();
        assert!(d.exists());
    }

    #[test]
    fn result_hash_is_order_insensitive_and_content_sensitive() {
        let a = result_hash(vec!["r1".into(), "r2".into()]);
        let b = result_hash(vec!["r2".into(), "r1".into()]);
        assert_eq!(a, b, "multiset hash must ignore emission order");
        assert_eq!(a.len(), 16);
        assert_ne!(a, result_hash(vec!["r1".into()]));
        assert_ne!(a, result_hash(vec!["r1".into(), "r3".into()]));
        // Duplicates count: a multiset, not a set.
        assert_ne!(
            result_hash(vec!["r1".into(), "r1".into()]),
            result_hash(vec!["r1".into()])
        );
    }

    #[test]
    fn render_canonical_distinguishes_types() {
        use stems_types::Value;
        let a = render_canonical(&[vec![Value::Int(1), Value::Null]]);
        let b = render_canonical(&[vec![Value::Float(1.0), Value::Null]]);
        assert_ne!(a, b, "Int(1) and Float(1.0) are distinct result values");
        assert_eq!(a.len(), 1);
    }
}
