//! Probe-pipeline throughput, emitted as `BENCH_5.json` — the fifth point
//! of the perf trajectory (`BENCH_1`: batched routing, `BENCH_2`: chunked
//! ingestion + Int kernels, `BENCH_3`: kernel family, `BENCH_4`: sharded
//! SteMs).
//!
//! Drives SteM probes directly (the eddy's dominant operation) and
//! measures what the hash-once, allocation-lean flat pipeline buys at
//! envelope sizes where its savings engage, against the same engine at
//! envelope 1 — the scalar per-tuple probe path, which pays the pre-PR
//! per-probe costs (one index descent, one hash, one candidate
//! materialization per probe; one scan snapshot per unbindable probe).
//!
//! Three workloads, chosen so each lever is visible:
//!
//! * **dup_keys** — Int-keyed probes with ~`DUP_DOMAIN` distinct keys per
//!   relation: a 4096-probe envelope repeats each key dozens of times, so
//!   key-run dedup resolves the index once per *distinct* key and
//!   duplicate probes share one candidate span. Most of the wave is
//!   §3.5-style re-probe traffic (stamped older than the store, so the
//!   TimeStamp rule filters the matches) — the realistic duplicate-heavy
//!   stream, and the one where fetch cost, not result concatenation,
//!   dominates; every 8th probe is live and forms results.
//! * **str_keys** — string join keys: every probe key is hashed exactly
//!   once at the envelope boundary and the prehashed index descends
//!   without re-hashing (the scalar path re-hashes the string per probe).
//! * **fanout** — a predicate-free (cartesian) probe: unbindable probes
//!   share one scan snapshot per envelope instead of materializing the
//!   scan per probe.
//!
//! Every series of a workload must produce identical replies — asserted
//! internally via the same `result_hash` the CI bench_check gate
//! consumes. The hash covers the result multiset AND the per-probe
//! `raw_matches` profile, so a candidate-fetch bug (e.g. bad dedup
//! sharing) fails the gate even for probes whose matches the timestamp
//! rules filter out.
//!
//! Quick mode for CI smoke: `STEMS_BENCH_ROWS` (default 30000),
//! `STEMS_BENCH_RUNS` (default 3) and `STEMS_BENCH_ENVELOPE` (default
//! 4096) shrink the workload. Output lands in `./BENCH_5.json`
//! (`stems_bench::harness::BenchEnv` names the override).

use std::time::Instant;
use stems_bench::harness::{run_series, BenchEnv, Body, Fields, Run};
use stems_bench::{env_usize, result_hash};
use stems_catalog::{Catalog, QuerySpec, ScanSpec, TableInstance};
use stems_core::stem::ProbeReplySet;
use stems_core::{ShardedStem, StemOptions, TupleState};
use stems_datagen::{gen::ColGen, TableBuilder};
use stems_sql::parse_query;
use stems_types::{TableIdx, Timestamp, Tuple, TupleBatch};

/// Distinct join-key count of the duplicate-heavy workload: a 4096-probe
/// envelope carries each key ~42 times.
const DUP_DOMAIN: i64 = 97;

struct Workload {
    name: &'static str,
    catalog: Catalog,
    query: QuerySpec,
    /// Probe timestamp: large = every stored row passes the TimeStamp
    /// rule (keyed workloads), small = only the first build does (keeps
    /// the cartesian result set linear in probes, not probes × rows).
    probe_ts: Timestamp,
    /// Every `stride`-th probe keeps `probe_ts`; the rest are stamped
    /// `ts = 1` — re-probe traffic whose matches the TimeStamp rule
    /// filters (fetch-dominated). `1` = every probe is live.
    live_stride: usize,
}

/// R ⋈ S on `R.a = S.x`; column generators pick the key shape.
fn keyed_workload(
    name: &'static str,
    rows: usize,
    r_gen: ColGen,
    s_gen: ColGen,
    live_stride: usize,
) -> Workload {
    let mut catalog = Catalog::new();
    TableBuilder::new("R", rows, 51)
        .col("a", r_gen)
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("S", rows, 52)
        .col("x", s_gen)
        .register(&mut catalog)
        .unwrap();
    for src in (0..2).map(stems_catalog::SourceId) {
        catalog.add_scan(src, ScanSpec::with_rate(1e7)).unwrap();
    }
    let query = parse_query(&catalog, "SELECT * FROM R, S WHERE R.a = S.x").unwrap();
    Workload {
        name,
        catalog,
        query,
        probe_ts: u64::MAX - 1,
        live_stride,
    }
}

/// Predicate-free R × S: every probe is unbindable and takes the scan
/// path. Probes are stamped just above the first build so each one forms
/// exactly one result (the fetch, not the concat, is what's measured).
fn fanout_workload(rows: usize) -> Workload {
    let mut catalog = Catalog::new();
    TableBuilder::new("R", rows, 53)
        .col("a", ColGen::Serial)
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("S", rows, 54)
        .col("x", ColGen::Serial)
        .register(&mut catalog)
        .unwrap();
    for src in (0..2).map(stems_catalog::SourceId) {
        catalog.add_scan(src, ScanSpec::with_rate(1e7)).unwrap();
    }
    let tables = vec![
        TableInstance {
            source: stems_catalog::SourceId(0),
            alias: "r".into(),
        },
        TableInstance {
            source: stems_catalog::SourceId(1),
            alias: "s".into(),
        },
    ];
    let query = QuerySpec::new(&catalog, tables, vec![], None).unwrap();
    Workload {
        name: "fanout",
        catalog,
        query,
        probe_ts: 2,
        live_stride: 1,
    }
}

/// Build SteM S of a workload once, and stamp its probe tuples.
fn build_stem(w: &Workload) -> (ShardedStem, Vec<Tuple>) {
    let s_idx = TableIdx(1);
    let mut stem = ShardedStem::new(
        s_idx,
        w.query.tables[1].source,
        &w.query.join_cols_of(s_idx),
        true,
        false,
        StemOptions::default(),
    );
    let mut ts: Timestamp = 0;
    let s_rows = w.catalog.table_expect(w.query.tables[1].source).rows();
    for chunk in s_rows.chunks(4096) {
        let batch: TupleBatch = chunk
            .iter()
            .map(|row| Tuple::singleton(s_idx, row.clone()))
            .collect();
        let states = vec![TupleState::new(); batch.len()];
        stem.build_batch(&batch, &states, &mut ts);
    }

    let probes: Vec<Tuple> = w
        .catalog
        .table_expect(w.query.tables[0].source)
        .rows()
        .iter()
        .enumerate()
        .map(|(k, row)| {
            let ts = if k % w.live_stride == 0 {
                w.probe_ts
            } else {
                1
            };
            Tuple::singleton(TableIdx(0), row.clone()).with_timestamp(TableIdx(0), ts)
        })
        .collect();
    (stem, probes)
}

/// One timed pass of probe envelopes of the given size, then an untimed
/// pass that renders the replies for the result hash.
fn probe_run(
    w: &Workload,
    stem: &ShardedStem,
    probes: &[Tuple],
    envelope: usize,
    replies: &mut ProbeReplySet,
) -> Run {
    let mut pass = |visit: &mut dyn FnMut(usize, &ProbeReplySet)| {
        for (c, chunk) in probes.chunks(envelope).enumerate() {
            let batch: TupleBatch = chunk.iter().cloned().collect();
            let states = vec![TupleState::new(); batch.len()];
            replies.clear();
            stem.probe_batch_into(batch.as_slice(), &states, &w.query, replies);
            visit(c * envelope, replies);
        }
    };
    // Timed pass: touch replies only enough to keep them from being
    // optimized away.
    let mut touched = 0usize;
    let start = Instant::now();
    pass(&mut |_, replies| {
        for (meta, results) in replies.iter() {
            touched += results.len() + meta.raw_matches;
        }
    });
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(touched);

    let mut results = 0usize;
    let mut rendered: Vec<String> = Vec::new();
    pass(&mut |first, replies| {
        for (p, (meta, reply_results)) in replies.iter().enumerate() {
            results += reply_results.len();
            rendered.extend(reply_results.iter().map(|(tuple, _)| tuple.to_string()));
            rendered.push(format!("raw:{}:{}", first + p, meta.raw_matches));
        }
    });
    Run {
        secs,
        results,
        result_hash: result_hash(rendered),
    }
}

fn main() {
    let env = BenchEnv::from_env("BENCH_5.json", 30_000, 3);
    let rows = env.rows;
    let envelope = env_usize("STEMS_BENCH_ENVELOPE", 4096);

    let workloads = [
        keyed_workload("dup_keys", rows, ColGen::Mod(DUP_DOMAIN), ColGen::Serial, 8),
        keyed_workload(
            "str_keys",
            rows,
            ColGen::StrMod(DUP_DOMAIN * 4),
            ColGen::StrMod(rows as i64),
            8,
        ),
        fanout_workload((rows / 10).max(200)),
    ];
    let mut blocks = Vec::new();
    for w in &workloads {
        let (stem, probes) = build_stem(w);
        // One reply arena per workload — the steady-state
        // (allocation-free) reply path. Every envelope must produce the
        // same replies as envelope 1: the flat pipeline is
        // scalar-equivalent.
        let mut replies = ProbeReplySet::new();
        let series = [1usize, envelope].map(|e| (format!("{}/envelope{e}", w.name), e));
        let outs = run_series(env.runs, &series, |&e| {
            probe_run(w, &stem, &probes, e, &mut replies)
        });
        let entries = series
            .iter()
            .zip(&outs)
            .map(|((_, e), out)| {
                Fields::new()
                    .str("label", &format!("envelope{e}"))
                    .int("envelope", *e)
                    .num("probes_per_sec", probes.len() as f64 / out.secs, 0)
                    .num("median_secs", out.secs, 6)
                    .int("results", out.results)
                    .str("result_hash", &out.result_hash)
                    .num("speedup_vs_scalar", outs[0].secs / out.secs, 3)
            })
            .collect();
        blocks.push((w.name.to_string(), entries));
    }

    env.write(
        &format!("flat_probe_pipeline_{rows}x{rows}"),
        "probes_per_sec_wall",
        Fields::new().int("envelope", envelope),
        Body::Workloads(blocks),
    );
}
