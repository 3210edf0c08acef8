//! Chunked-ingestion + vectorized-kernel throughput, emitted as
//! `BENCH_2.json` — the second point of the perf trajectory started by
//! `bench_batch` (`BENCH_1.json`).
//!
//! Runs a selection-heavy three-table chain join — every table carries a
//! column-vs-Int-constant selection, so base-table rows dominate routing
//! traffic and Selection Modules dominate module work. That is exactly the
//! workload PR 1's batching could not speed up: scans emitted one row per
//! simulation event, so singleton ingestion paid per-row envelopes no
//! matter the batch size. Chunked scans (`ScanSpec::chunk`) ride the
//! batched path end to end, and `Sm::apply_batch` runs the column-at-a-time
//! Int kernels over each envelope.
//!
//! Series: scalar (chunk 1, batch 1), PR 1's best (chunk 1, batch 64),
//! chunked ingestion (chunk 64, batch 64; chunk 256, batch 256). The JSON
//! lands in `./BENCH_2.json` (`stems_bench::harness::BenchEnv` names the
//! override); `speedup_vs_pr1` > 1 on
//! the chunked rows is the win this PR claims. The result multiset is
//! asserted identical across series — the binary doubles as a smoke test of
//! chunked/scalar equivalence — and each series embeds a `result_hash`
//! that `tools/bench_check.py` compares against the committed baseline in
//! CI. `STEMS_BENCH_ROWS` / `STEMS_BENCH_RUNS` shrink the workload (CI
//! runs the committed row count with 1 run so hashes stay comparable).

use stems_bench::harness::{
    benefit_cost, eddy_run, run_series, sel3_chain_workload, BenchEnv, Body, Fields,
};

fn main() {
    let env = BenchEnv::from_env("BENCH_2.json", 3000, 5);
    let rows = env.rows;
    let input_rows = (3 * rows) as f64;
    // (label, (scan chunk, routing batch size, workload at that chunk))
    let series: Vec<_> = [
        ("scalar", 1, 1),
        ("pr1_batch64", 1, 64),
        ("chunked_batch64", 64, 64),
        ("chunked_batch256", 256, 256),
    ]
    .into_iter()
    .map(|(label, chunk, batch_size)| {
        (label, (chunk, batch_size, sel3_chain_workload(rows, chunk)))
    })
    .collect();

    // Every series must produce the same result *multiset* — the bench
    // doubles as a smoke test of chunked/scalar (and sharded, under
    // STEMS_NUM_SHARDS) equivalence, and CI's bench_check gate keys on
    // the hash.
    let outs = run_series(env.runs, &series, |(_, batch_size, (catalog, query))| {
        eddy_run(catalog, query, benefit_cost(*batch_size))
    });
    let entries = series
        .iter()
        .zip(&outs)
        .map(|((label, (chunk, batch_size, _)), out)| {
            Fields::new()
                .str("label", label)
                .int("chunk", *chunk)
                .int("batch_size", *batch_size)
                .num("rows_per_sec", input_rows / out.secs, 0)
                .num("median_secs", out.secs, 6)
                .int("results", out.results)
                .str("result_hash", &out.result_hash)
                .num("speedup_vs_scalar", outs[0].secs / out.secs, 3)
                .num("speedup_vs_pr1", outs[1].secs / out.secs, 3)
        })
        .collect();

    env.write(
        &format!("eddy_chain3_sel3_{rows}x{rows}x{rows}_benefit_cost"),
        "input_rows_per_sec_wall",
        Fields::new(),
        Body::Series(entries),
    );
}
