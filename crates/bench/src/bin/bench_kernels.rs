//! Kernel-family throughput, emitted as `BENCH_3.json` — the third point
//! of the perf trajectory (`BENCH_1.json`: batched routing, `BENCH_2.json`:
//! chunked ingestion + Int kernels).
//!
//! Two workloads:
//!
//! * **int_chain** — the exact selection-heavy pure-Int chain of
//!   `bench_ingest` (`BENCH_2.json`). The partial-gather rebuild must not
//!   regress it: every batch is all-Int, so the typed lane covers whole
//!   batches just like the PR-2 kernels did.
//! * **mixed_chain** — the same 3-table chain shape with mixed-type
//!   selection columns: a NULL-sprinkled Float column (`<` against a Float
//!   constant), a NULL-sprinkled Str column (`IN` list), a second Int
//!   selection on the same table (conjunction fusion), and a NULL-sprinkled
//!   Int column. Under the PR-2 kernels every wave containing one NULL (or
//!   any non-Int value) re-ran the whole scalar loop after a failed gather
//!   — the double-scan bug this PR fixes; the partial gather keeps the
//!   typed lanes engaged and only the exception rows go scalar. The
//!   `unfused_batch64` series isolates the conjunction-fusion share of the
//!   win.
//!
//! Quick mode for CI smoke: `STEMS_BENCH_ROWS` (default 3000) and
//! `STEMS_BENCH_RUNS` (default 5) shrink the workload; the binary still
//! asserts cross-series result equality, and the shared writer re-reads
//! the JSON it wrote, so a rotted bench binary fails loudly rather than
//! silently emitting garbage. Output lands in `./BENCH_3.json`
//! (`stems_bench::harness::BenchEnv` names the override).

use stems_bench::harness::{
    benefit_cost, eddy_run, run_series, sel3_chain_workload, BenchEnv, Body, Fields,
};
use stems_catalog::{Catalog, QuerySpec, ScanSpec};
use stems_core::ExecConfig;
use stems_datagen::{gen::ColGen, TableBuilder};
use stems_sql::parse_query;

/// The mixed-type variant: Float / Str / NULL-sprinkled selection columns,
/// an IN-list, and two selections on one table (fusion).
fn build_mixed(rows: usize, chunk: usize) -> (Catalog, QuerySpec) {
    let mut catalog = Catalog::new();
    TableBuilder::new("R", rows, 81)
        .col("a", ColGen::Mod(500))
        .col("u", ColGen::FloatMod(500).with_nulls(11))
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("S", rows, 82)
        .col("x", ColGen::Mod(500))
        .col("y", ColGen::Mod(400))
        .col("v", ColGen::StrMod(8).with_nulls(13))
        .col("w", ColGen::Mod(500))
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("T", rows, 83)
        .col("b", ColGen::Mod(400))
        .col("w", ColGen::Mod(500).with_nulls(7))
        .register(&mut catalog)
        .unwrap();
    for src in (0..3).map(stems_catalog::SourceId) {
        catalog
            .add_scan(src, ScanSpec::with_rate(100_000.0).with_chunk(chunk))
            .unwrap();
    }
    // FloatMod(500) spans 0.0..250.0 → `< 150.0` keeps ~60%; StrMod(8) IN
    // 5-of-8 keeps ~62%; S.w/T.w Int selections keep 60% — selectivities
    // comparable to the int_chain workload.
    let query = parse_query(
        &catalog,
        "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b \
         AND R.u < 150.0 AND S.v IN ('s0', 's1', 's2', 's3', 's4') \
         AND S.w < 300 AND T.w < 300",
    )
    .unwrap();
    (catalog, query)
}

/// Run one workload's series — (label, scan chunk, routing batch,
/// fuse_selections) — and render them as the workload's JSON block.
fn run_workload(
    env: &BenchEnv,
    name: &str,
    series: &[(&str, usize, usize, bool)],
    build: fn(usize, usize) -> (Catalog, QuerySpec),
) -> (String, Vec<Fields>) {
    let input_rows = (3 * env.rows) as f64;
    let series: Vec<_> = series
        .iter()
        .map(|&(label, chunk, batch, fuse)| {
            (
                format!("{name}/{label}"),
                (label, chunk, batch, fuse, build(env.rows, chunk)),
            )
        })
        .collect();
    // Hash, not just count: the series must agree on the result
    // *multiset* — the kernels must be scalar-equivalent.
    let outs = run_series(
        env.runs,
        &series,
        |(_, _, batch, fuse, (catalog, query))| {
            let config = ExecConfig {
                fuse_selections: *fuse,
                ..benefit_cost(*batch)
            };
            eddy_run(catalog, query, config)
        },
    );
    let entries = series
        .iter()
        .zip(&outs)
        .map(|((_, (label, chunk, batch_size, _, _)), out)| {
            Fields::new()
                .str("label", label)
                .int("chunk", *chunk)
                .int("batch_size", *batch_size)
                .num("rows_per_sec", input_rows / out.secs, 0)
                .num("median_secs", out.secs, 6)
                .int("results", out.results)
                .str("result_hash", &out.result_hash)
                .num("speedup_vs_scalar", outs[0].secs / out.secs, 3)
        })
        .collect();
    (name.to_string(), entries)
}

fn main() {
    let env = BenchEnv::from_env("BENCH_3.json", 3000, 5);

    // (label, scan chunk, routing batch, fuse_selections). The scalar
    // baselines run unfused: they are the strict one-SM-per-hop cascade
    // the speedups claim to beat (fusion is batch-size-independent, so a
    // fused "scalar" row would already carry part of this PR's win).
    let int_chain = run_workload(
        &env,
        "int_chain",
        &[("scalar", 1, 1, false), ("chunked_batch64", 64, 64, true)],
        // BENCH_2's pure-Int workload: no regression allowed here.
        sel3_chain_workload,
    );
    let mixed_chain = run_workload(
        &env,
        "mixed_chain",
        &[
            ("scalar", 1, 1, false),
            ("unfused_batch64", 64, 64, false),
            ("chunked_batch64", 64, 64, true),
        ],
        build_mixed,
    );

    let rows = env.rows;
    env.write(
        &format!("kernel_family_chain3_{rows}x{rows}x{rows}_benefit_cost"),
        "input_rows_per_sec_wall",
        Fields::new(),
        Body::Workloads(vec![int_chain, mixed_chain]),
    );
}
