//! Sharded-SteM build+probe throughput, emitted as `BENCH_4.json` — the
//! fourth point of the perf trajectory (`BENCH_1`: batched routing,
//! `BENCH_2`: chunked ingestion + Int kernels, `BENCH_3`: kernel family).
//!
//! Drives the SteM layer directly with the build/probe traffic of the
//! 3-table chain workload (R ⋈ S on `R.a = S.x`, S ⋈ T on `S.y = T.b`):
//! all three relations build into their SteMs in envelope-sized batches
//! (T first, then S, then R, so the TimeStamp rule lets the probe wave
//! generate every result), then the stamped R singletons probe SteM S and
//! the R⋈S concatenations probe SteM T. That is exactly the traffic the
//! eddy routes on this workload, minus the routing machinery — which is
//! the point: the series isolates what hash-partition sharding
//! ([`stems_core::ShardedStem`]) buys on the module hot path itself, at
//! envelope sizes where the scoped-thread fan-out engages.
//!
//! Series: shard fan-outs {1, 2, 4} over identical input (shard 1 is the
//! unsharded PR-3 SteM). Every series must produce the identical result
//! multiset — asserted via the same `result_hash` the CI bench_check gate
//! consumes.
//!
//! Two speedup measurements per shard count:
//!
//! * **`virtual_speedup_vs_shards1`** — the full eddy runs the chain
//!   query under the parallel-server cost model
//!   (`CostModel::shard_parallel_service`: an envelope's SteM service
//!   time is the *busiest shard's* load, the discrete-event expression of
//!   per-shard servers). Virtual completion time is deterministic —
//!   independent of host core count and CI noise — so this is the
//!   headline scaling series and the ≥ 1.3× at 4 shards the PR claims.
//! * **`wall_speedup_vs_shards1`** — measured wall clock of the direct
//!   build+probe loop. Faithful to the machine it ran on: ≥ 1 only when
//!   the host grants real cores (`cores` records what was available;
//!   on a single-core runner the scoped fan-out stays serial by design
//!   and this ratio just reports the sharding layer's overhead).
//!
//! Quick mode for CI smoke: `STEMS_BENCH_ROWS` (default 60000),
//! `STEMS_BENCH_RUNS` (default 5) and `STEMS_BENCH_ENVELOPE` (default
//! 4096) shrink the workload. Output lands in `./BENCH_4.json`
//! (`stems_bench::harness::BenchEnv` names the override). The wall
//! series runs `stems_bench::harness::chain3_stem_run`, the direct driver
//! `bench_workers` shares.

use stems_bench::env_usize;
use stems_bench::harness::{
    benefit_cost, chain3_stem_run, chain3_workload, run_series, BenchEnv, Body, Fields, Outcome,
};
use stems_core::engine::CostModel;
use stems_core::{EddyExecutor, ExecConfig, StemOptions};

fn main() {
    let env = BenchEnv::from_env("BENCH_4.json", 60_000, 5);
    let envelope = env_usize("STEMS_BENCH_ENVELOPE", 4096);
    // The virtual series runs the full eddy, which is slower per row than
    // the direct loop — a smaller relation keeps the bench snappy without
    // affecting the (deterministic) virtual ratios.
    let vrows = env_usize("STEMS_BENCH_VROWS", 8000);
    let vbatch = envelope.min(1024);
    let (catalog, query) = chain3_workload(env.rows, 1);
    let (vcatalog, vquery) = chain3_workload(vrows, vbatch);

    // Wall-clock series: the direct build+probe loop.
    let series = [1usize, 2, 4].map(|n| (format!("shards{n}"), n));
    let wall = run_series(env.runs, &series, |&num_shards| {
        let options = StemOptions {
            num_shards,
            ..StemOptions::default()
        };
        chain3_stem_run(&catalog, &query, envelope, &options)
    });

    let mut rows = Vec::new();
    let mut virtual_first: Option<(f64, usize)> = None;
    for ((label, num_shards), out) in series.iter().zip(&wall) {
        // Virtual series: the full eddy under the parallel-server cost
        // model. Deterministic — one run suffices.
        let config = ExecConfig {
            num_shards: *num_shards,
            costs: CostModel {
                shard_parallel_service: true,
                ..CostModel::default()
            },
            ..benefit_cost(vbatch)
        };
        let report = EddyExecutor::build(&vcatalog, &vquery, config)
            .expect("plan")
            .run();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let virtual_end_secs = stems_sim::to_secs(report.end_time);
        let (virtual_base, want) =
            *virtual_first.get_or_insert((virtual_end_secs, report.results.len()));
        assert_eq!(
            report.results.len(),
            want,
            "{label} changed the engine result count"
        );
        rows.push(
            Fields::new()
                .str("label", label)
                .int("num_shards", *num_shards)
                .num("virtual_end_secs", virtual_end_secs, 6)
                .num("speedup_vs_shards1", virtual_base / virtual_end_secs, 3)
                .num("ops_per_sec", out.ops_per_sec(), 0)
                .num("median_secs", out.secs(), 6)
                .num("build_secs", out.build_secs, 6)
                .num("probe_secs", out.probe_secs, 6)
                .num(
                    "wall_speedup_vs_shards1",
                    out.ops_per_sec() / wall[0].ops_per_sec(),
                    3,
                )
                .int("results", out.results)
                .str("result_hash", &out.result_hash),
        );
    }

    let rows_n = env.rows;
    env.write(
        &format!("sharded_stem_chain3_{rows_n}x{rows_n}x{rows_n}"),
        "virtual_chain_speedup_and_wall_ops_per_sec",
        Fields::new()
            .int("virtual_rows", vrows)
            .int("envelope", envelope),
        Body::Series(rows),
    );
}
