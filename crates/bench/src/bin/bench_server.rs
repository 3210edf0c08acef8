//! Multi-query server throughput under shared-SteM folding, emitted as
//! `BENCH_8.json` — the eighth point of the perf trajectory (`BENCH_6`:
//! worker-pool scaling, `BENCH_7`: the PR 7 serial drain at up to 100
//! concurrent queries).
//!
//! Drives the 3-table chain (R ⋈ S ⋈ T) as a *query stream*: N
//! concurrent queries, identical joins with per-query selection cuts,
//! all submitted at once to a [`stems_core::QueryServer`] — once with
//! folding off (the server degenerates to N private classic executors,
//! the baseline) and once with folding on (one shared SteM per join
//! column set, one scan stream per source; every row is built once and
//! probed by all N queries). The per-workload claim gated in CI via
//! `result_hash` is observational equivalence: folding must not change
//! any query's result multiset at any concurrency level. The wall-clock
//! `queries_per_sec` ratio documents the throughput gain — fold-on skips
//! N−1 of every N builds, so the gain grows with concurrency (visible
//! from ~10 queries; `shared_builds` records the build work actually
//! performed).
//!
//! New at this point: the **1000-query workload** (single run — the
//! stream dominates wall time), exercising the active-set drain
//! batching and, on multi-core hosts, the parallel step phase. Its
//! fold-on wall throughput is the headline the CI gate compares against
//! the PR 7 serial drain at N=100.
//!
//! Latency percentiles are *virtual* (deterministic simulation time from
//! admission to completion), so they are reproducible on any host;
//! wall-clock fields are noisy and deliberately ungated.
//!
//! Quick mode for CI smoke: `STEMS_BENCH_ROWS` (default 2000) and
//! `STEMS_BENCH_RUNS` (default 3) shrink the workload. Output lands in
//! `./BENCH_8.json` (`stems_bench::harness::BenchEnv` names the override).

use std::time::Instant;
use stems_bench::harness::{run_series, BenchEnv, Body, Fields, Outcome};
use stems_bench::{render_canonical, result_hash};
use stems_catalog::{Catalog, QuerySpec, ScanSpec, SourceId, TableInstance};
use stems_core::{QueryServer, QueryStatus, ServerReport, Submission};
use stems_datagen::{gen::ColGen, TableBuilder};
use stems_types::{CmpOp, ColRef, PredId, Predicate, TableIdx, Value};

/// The 3-table chain over generated tables (schema: `key` + attribute
/// cols): R(key, a), S(key, x, y), T(key, b), keys 1:1 across the joins.
fn build_catalog(rows: usize) -> Catalog {
    let domain = rows as i64;
    let mut catalog = Catalog::new();
    TableBuilder::new("R", rows, 71)
        .col("a", ColGen::Mod(domain))
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("S", rows, 72)
        .col("x", ColGen::Mod(domain))
        .col("y", ColGen::Mod(domain))
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("T", rows, 73)
        .col("b", ColGen::Mod(domain))
        .register(&mut catalog)
        .unwrap();
    for src in (0..3).map(SourceId) {
        catalog.add_scan(src, ScanSpec::with_rate(1e6)).unwrap();
    }
    catalog
}

/// Query `i` of the stream: the shared chain joins plus a per-query
/// selection cut on R — five distinct cuts cycle, so result sets differ
/// across the stream while every SteM still folds.
fn query_for(catalog: &Catalog, rows: usize, i: usize) -> QuerySpec {
    let cut = (rows / 2 + (i % 5) * rows / 20) as i64;
    let inst = |s: u32, alias: &str| TableInstance {
        source: SourceId(s),
        alias: alias.into(),
    };
    QuerySpec::new(
        catalog,
        vec![inst(0, "r"), inst(1, "s"), inst(2, "t")],
        vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 1),
            ),
            Predicate::join(
                PredId(1),
                ColRef::new(TableIdx(1), 2),
                CmpOp::Eq,
                ColRef::new(TableIdx(2), 1),
            ),
            Predicate::selection(
                PredId(2),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Lt,
                Value::Int(cut),
            ),
        ],
        None,
    )
    .unwrap()
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// One served stream, reduced to what the JSON records.
struct ServerRun {
    secs: f64,
    results_total: usize,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    shared_stems: usize,
    shared_builds: u64,
    result_hash: String,
}

impl Outcome for ServerRun {
    fn secs(&self) -> f64 {
        self.secs
    }
    fn result_hash(&self) -> &str {
        &self.result_hash
    }
}

/// Submit the whole stream to one server and time `serve()`.
fn serve_stream(catalog: &Catalog, queries: &[QuerySpec], fold: bool) -> ServerRun {
    let mut server = QueryServer::builder(catalog).fold(fold).build().unwrap();
    for q in queries {
        server.submit(Submission::new(q.clone())).unwrap();
    }
    let start = Instant::now();
    let (handles, stats) = server.serve();
    let secs = start.elapsed().as_secs_f64();
    let reports: Vec<ServerReport> = handles
        .into_iter()
        .map(|h| {
            assert_eq!(h.status, QueryStatus::Completed);
            h.report.expect("completed query has a report")
        })
        .collect();
    let mut rendered = Vec::new();
    let mut results_total = 0;
    for (i, sr) in reports.iter().enumerate() {
        results_total += sr.report.results.len();
        for line in render_canonical(&sr.report.canonical(catalog, &queries[i])) {
            rendered.push(format!("q{i}|{line}"));
        }
    }
    let mut latencies: Vec<u64> = reports.iter().map(ServerReport::latency).collect();
    latencies.sort_unstable();
    ServerRun {
        secs,
        results_total,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        shared_stems: stats.shared_stems,
        shared_builds: stats.shared_builds,
        result_hash: result_hash(rendered),
    }
}

fn main() {
    let env = BenchEnv::from_env("BENCH_8.json", 2000, 3);
    let rows = env.rows;
    let catalog = build_catalog(rows);

    let mut blocks = Vec::new();
    for n in [1usize, 10, 100, 1000] {
        // The 1000-query stream dominates wall time; one run suffices
        // (virtual metrics and result hashes are deterministic anyway).
        let n_runs = if n >= 1000 { 1 } else { env.runs };
        let queries: Vec<QuerySpec> = (0..n).map(|i| query_for(&catalog, rows, i)).collect();
        // Folding must not change the result multiset at any concurrency
        // level.
        let series =
            [("fold_off", false), ("fold_on", true)].map(|(l, f)| (format!("q{n}/{l}"), (l, f)));
        let outs = run_series(n_runs, &series, |&(_, fold)| {
            serve_stream(&catalog, &queries, fold)
        });
        let (off, on) = (&outs[0], &outs[1]);
        println!(
            "q{n}: fold_off {:>8.2} q/s | fold_on {:>8.2} q/s ({:.2}x, {} shared builds vs {} \
             private; virtual p50/p95/p99 {}/{}/{} µs)",
            n as f64 / off.secs,
            n as f64 / on.secs,
            off.secs / on.secs,
            on.shared_builds,
            n * 3 * rows, // N queries x (R + S + T) rows built privately
            on.p50_us,
            on.p95_us,
            on.p99_us,
        );
        let entries = series
            .iter()
            .zip(&outs)
            .map(|((_, (label, _)), e)| {
                Fields::new()
                    .str("label", label)
                    .int("queries", n)
                    .num("queries_per_sec", n as f64 / e.secs, 3)
                    .num("median_secs", e.secs, 6)
                    .int("results_total", e.results_total)
                    .int("latency_p50_us", e.p50_us)
                    .int("latency_p95_us", e.p95_us)
                    .int("latency_p99_us", e.p99_us)
                    .int("shared_stems", e.shared_stems)
                    .int("shared_builds", e.shared_builds)
                    .str("result_hash", &e.result_hash)
            })
            .collect();
        blocks.push((format!("q{n}"), entries));
    }

    env.write(
        &format!("query_server_chain3_{rows}x{rows}x{rows}"),
        "wall_queries_per_sec_folding_on_vs_off",
        Fields::new(),
        Body::Workloads(blocks),
    );
}
