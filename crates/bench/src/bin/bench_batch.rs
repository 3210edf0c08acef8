//! Scalar-vs-batched routing throughput, emitted as `BENCH_1.json`.
//!
//! Runs a three-table chain join — the workload where intermediate
//! results dominate routing traffic — through the eddy at batch sizes
//! {1, 64, 256} (1 = the paper's tuple-at-a-time routing; 64 is the
//! engine default) and reports wall-clock throughput in input rows per
//! second. The adaptive benefit/cost policy is used so every routing
//! decision actually scores candidates; batching amortizes those scores
//! over same-destination tuples. The JSON lands in `./BENCH_1.json`
//! (`stems_bench::harness::BenchEnv` names the override), so later PRs
//! have a perf trajectory to regress against.
//!
//! The result multiset is asserted identical across batch sizes — this
//! binary doubles as a smoke test of batch/scalar equivalence — and each
//! series embeds the `result_hash` that `tools/bench_check.py` compares
//! against the committed baseline in CI. `STEMS_BENCH_ROWS` (default
//! 3000) / `STEMS_BENCH_RUNS` (default 5) shrink the workload.

use stems_bench::harness::{benefit_cost, eddy_run, run_series, BenchEnv, Body, Fields};
use stems_catalog::{Catalog, ScanSpec};
use stems_datagen::{gen::ColGen, TableBuilder};
use stems_sql::parse_query;

fn main() {
    let env = BenchEnv::from_env("BENCH_1.json", 3000, 5);
    let rows = env.rows;
    let mut catalog = Catalog::new();
    let r = TableBuilder::new("R", rows, 71)
        .col("a", ColGen::Mod(500))
        .register(&mut catalog)
        .unwrap();
    let s = TableBuilder::new("S", rows, 72)
        .col("x", ColGen::Mod(500))
        .col("y", ColGen::Mod(400))
        .register(&mut catalog)
        .unwrap();
    let t = TableBuilder::new("T", rows, 73)
        .col("b", ColGen::Mod(400))
        .register(&mut catalog)
        .unwrap();
    catalog.add_scan(r, ScanSpec::with_rate(100_000.0)).unwrap();
    catalog.add_scan(s, ScanSpec::with_rate(100_000.0)).unwrap();
    catalog.add_scan(t, ScanSpec::with_rate(100_000.0)).unwrap();
    let query = parse_query(
        &catalog,
        "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b",
    )
    .unwrap();
    let input_rows = (3 * rows) as f64;

    let series = [1usize, 64, 256].map(|b| (format!("batch{b}"), b));
    let outs = run_series(env.runs, &series, |&batch_size| {
        eddy_run(&catalog, &query, benefit_cost(batch_size))
    });
    let entries = series
        .iter()
        .zip(&outs)
        .map(|((label, batch_size), out)| {
            Fields::new()
                .str("label", label)
                .int("batch_size", *batch_size)
                .num("rows_per_sec", input_rows / out.secs, 0)
                .num("median_secs", out.secs, 6)
                .int("results", out.results)
                .str("result_hash", &out.result_hash)
                .num("speedup_vs_scalar", outs[0].secs / out.secs, 3)
        })
        .collect();

    env.write(
        &format!("eddy_chain3_{rows}x{rows}x{rows}_benefit_cost"),
        "input_rows_per_sec_wall",
        Fields::new(),
        Body::Series(entries),
    );
}
