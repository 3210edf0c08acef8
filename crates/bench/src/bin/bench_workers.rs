//! Worker-pool scaling of the sharded SteM hot path, emitted as
//! `BENCH_6.json` — the sixth point of the perf trajectory (`BENCH_4`:
//! sharded SteMs, `BENCH_5`: flat probe pipeline).
//!
//! Drives the same 3-table chain build+probe traffic as `bench_shards`
//! (the shared `stems_bench::harness::chain3_stem_run` driver), but
//! holds the shard fan-out fixed at 8 and sweeps the **worker budget**
//! {1, 2, 4, 8} of the persistent work-stealing pool
//! ([`stems_core::runtime::WorkerPool`]) that services the fan-outs.
//! Workers = 1 is the serial engine: every lane runs on the calling
//! thread. Larger budgets dispatch per-shard build lanes and skew-chunked
//! probe lanes to long-lived pool workers (no per-envelope thread
//! spawn/join, per-shard queue affinity, round-robin stealing).
//!
//! Every series must produce the identical result multiset — asserted
//! internally and gated in CI via `result_hash`, which is the
//! load-bearing claim on a single-core runner: the pool must be a pure
//! scheduling device, bit-invisible at every budget. `speedup_vs_1`
//! reports the wall-clock scaling actually observed; it is ≥ 1.5× at
//! workers = 4 only when the host grants real cores (`cores` records
//! what was available; on a 1-core container the series documents pool
//! overhead, not speedup).
//!
//! Quick mode for CI smoke: `STEMS_BENCH_ROWS` (default 60000),
//! `STEMS_BENCH_RUNS` (default 5) and `STEMS_BENCH_ENVELOPE` (default
//! 4096) shrink the workload. Output lands in `./BENCH_6.json`
//! (`stems_bench::harness::BenchEnv` names the override).

use stems_bench::env_usize;
use stems_bench::harness::{
    chain3_stem_run, chain3_workload, run_series, BenchEnv, Body, Fields, Outcome,
};
use stems_core::StemOptions;

/// Shard fan-out under test: enough lanes that every worker budget in the
/// sweep has parallel work available.
const NUM_SHARDS: usize = 8;

fn main() {
    let env = BenchEnv::from_env("BENCH_6.json", 60_000, 5);
    let envelope = env_usize("STEMS_BENCH_ENVELOPE", 4096);
    let (catalog, query) = chain3_workload(env.rows, 1);

    let series = [1usize, 2, 4, 8].map(|w| (format!("workers{w}"), w));
    let outs = run_series(env.runs, &series, |&workers| {
        let options = StemOptions {
            num_shards: NUM_SHARDS,
            workers: Some(workers),
            ..StemOptions::default()
        };
        chain3_stem_run(&catalog, &query, envelope, &options)
    });

    let rows = series
        .iter()
        .zip(&outs)
        .map(|((label, workers), out)| {
            Fields::new()
                .str("label", label)
                .int("workers", *workers)
                .num("ops_per_sec", out.ops_per_sec(), 0)
                .num("median_secs", out.secs(), 6)
                .num("build_secs", out.build_secs, 6)
                .num("probe_secs", out.probe_secs, 6)
                .num("speedup_vs_1", out.ops_per_sec() / outs[0].ops_per_sec(), 3)
                .int("results", out.results)
                .str("result_hash", &out.result_hash)
        })
        .collect();

    let rows_n = env.rows;
    env.write(
        &format!("worker_pool_chain3_{rows_n}x{rows_n}x{rows_n}_shards{NUM_SHARDS}"),
        "wall_ops_per_sec_vs_worker_budget",
        Fields::new()
            .int("envelope", envelope)
            .int("num_shards", NUM_SHARDS),
        Body::Series(rows),
    );
}
