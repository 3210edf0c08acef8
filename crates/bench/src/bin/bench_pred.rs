//! Expensive-predicate memoization, emitted as `BENCH_9.json` — the ninth
//! point of the perf trajectory (`BENCH_8`: parallel server drain).
//!
//! Drives the full eddy engine over a high-cost selection chain — a
//! duplicate-heavy scan filtered by `SIEVE(a, ppm, cost_us)`, the UDF-style
//! predicate whose every *computed* verdict charges `cost_us` of virtual
//! latency — and sweeps the two work-avoidance levers of the expensive-
//! predicate fast path:
//!
//! * **udf_dedup** — one verdict computation per distinct key per routing
//!   envelope (`Sm::apply_batch_udf`), duplicates share it;
//! * **memo** — the sharded cross-batch verdict cache ([`stems_core`'s
//!   `MemoCache`]): each distinct key is computed once per *query*, every
//!   later envelope is served from the cache.
//!
//! The metric is **virtual end time**: the levers don't change a single
//! verdict (the memo keys on the value's equality key, and the sieve is a
//! pure function of it), they only avoid re-paying `cost_us`. With `d`
//! distinct keys over `n` rows the plain cell pays `n · cost_us`, the
//! memo+dedup cell pays `d · cost_us` — the gap is the speedup. All four
//! memo×dedup cells must report the same `result_hash` (asserted here and
//! by the CI `bench_check` gate), and the combined cell must finish at
//! least [`MIN_SPEEDUP`]× sooner than the plain one.
//!
//! Quick mode for CI smoke: `STEMS_BENCH_ROWS` (default 20000) and
//! `STEMS_BENCH_RUNS` (default 3) shrink the workload. Output lands in
//! `./BENCH_9.json` (`stems_bench::harness::BenchEnv` names the override).

use std::collections::HashMap;
use std::time::Instant;
use stems_bench::harness::{run_series, BenchEnv, Body, Fields, Outcome};
use stems_bench::result_hash;
use stems_catalog::{Catalog, QuerySpec, ScanSpec};
use stems_core::{EddyExecutor, ExecConfig};
use stems_datagen::{gen::ColGen, TableBuilder};
use stems_sql::parse_query;

/// Distinct sieve keys: 20k rows repeat each key ~500 times, so the memo
/// pays the virtual cost 40 times instead of 20000.
const DISTINCT: i64 = 40;

/// Virtual µs charged per *computed* sieve verdict.
const COST_US: u64 = 1_000;

/// The combined memo+dedup cell must beat the plain cell by at least this
/// factor of virtual time (the acceptance bar; the analytic gap at the
/// default shape is ~ rows/distinct = 500×).
const MIN_SPEEDUP: f64 = 3.0;

fn workload(rows: usize) -> (Catalog, QuerySpec) {
    let mut catalog = Catalog::new();
    TableBuilder::new("R", rows, 91)
        .col("a", ColGen::ModShuffled(DISTINCT))
        .register(&mut catalog)
        .unwrap();
    // Chunked delivery: rows land 64 at a time, so routing envelopes are
    // real batches and the dedup-only cell has duplicates to share.
    catalog
        .add_scan(
            stems_catalog::SourceId(0),
            ScanSpec::with_rate(1e6).with_chunk(64),
        )
        .unwrap();
    // Through the SQL surface: pass half the keys, 1ms per computed call.
    let query = parse_query(
        &catalog,
        &format!("SELECT * FROM R WHERE SIEVE(R.a, 500, {COST_US})"),
    )
    .unwrap();
    (catalog, query)
}

/// One run of a memo × dedup cell.
struct Cell {
    secs: f64,
    end_time_us: u64,
    udf_calls: u64,
    memo_hits: u64,
    results: usize,
    result_hash: String,
}

impl Outcome for Cell {
    fn secs(&self) -> f64 {
        self.secs
    }
    fn result_hash(&self) -> &str {
        &self.result_hash
    }
}

fn run_cell(catalog: &Catalog, query: &QuerySpec, memo: bool, dedup: bool) -> Cell {
    let config = ExecConfig {
        memo,
        udf_dedup: dedup,
        ..ExecConfig::default()
    };
    let exec = EddyExecutor::build(catalog, query, config).expect("plan");
    let start = Instant::now();
    let report = exec.run();
    let secs = start.elapsed().as_secs_f64();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let canonical = report.canonical(catalog, query);
    let rendered: Vec<String> = canonical.iter().map(|row| format!("{row:?}")).collect();
    Cell {
        secs,
        end_time_us: report.end_time,
        udf_calls: report.counter("udf_calls"),
        memo_hits: report.counter("memo_hits"),
        results: canonical.len(),
        result_hash: result_hash(rendered),
    }
}

fn main() {
    let env = BenchEnv::from_env("BENCH_9.json", 20_000, 3);
    let (catalog, query) = workload(env.rows);

    // Observational equivalence: the levers must not change one verdict,
    // so every cell reports the same result hash.
    let series =
        [(false, false), (false, true), (true, false), (true, true)].map(|(memo, dedup)| {
            (
                format!("memo{}_dedup{}", memo as u8, dedup as u8),
                (memo, dedup),
            )
        });
    let mut end_times: HashMap<(bool, bool), u64> = HashMap::new();
    let cells = run_series(env.runs, &series, |&(memo, dedup)| {
        let cell = run_cell(&catalog, &query, memo, dedup);
        let first = *end_times.entry((memo, dedup)).or_insert(cell.end_time_us);
        assert_eq!(first, cell.end_time_us, "virtual time must be exact");
        cell
    });

    let plain = &cells[0];
    let entries = series
        .iter()
        .zip(&cells)
        .map(|((label, (memo, dedup)), c)| {
            Fields::new()
                .str("label", label)
                .bool("memo", *memo)
                .bool("dedup", *dedup)
                .int("end_time_us", c.end_time_us)
                .int("udf_calls", c.udf_calls)
                .int("memo_hits", c.memo_hits)
                .int("results", c.results)
                .num("median_secs", c.secs, 6)
                .str("result_hash", &c.result_hash)
                .num(
                    "speedup_vs_plain",
                    plain.end_time_us as f64 / c.end_time_us.max(1) as f64,
                    3,
                )
        })
        .collect();
    // The acceptance bar: memo+dedup ≥ MIN_SPEEDUP× in virtual time.
    let both = cells.last().expect("four cells");
    let speedup = plain.end_time_us as f64 / both.end_time_us.max(1) as f64;
    println!(
        "memo+dedup speedup vs plain: {speedup:.1}x virtual time \
         ({} µs -> {} µs)",
        plain.end_time_us, both.end_time_us
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "memo+dedup speedup {speedup:.2}x below the {MIN_SPEEDUP}x bar"
    );

    let rows = env.rows;
    env.write(
        &format!("memoized_expensive_predicate_{rows}x{DISTINCT}"),
        "virtual_end_time_us",
        Fields::new()
            .int("distinct", DISTINCT as u64)
            .int("cost_us", COST_US),
        Body::Series(entries),
    );
}
