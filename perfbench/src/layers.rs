//! Per-layer replays: the workload's own generated rows pushed through
//! each layer's public batch functions, timed from outside.
//!
//! * SteM — `ShardedStem::build_batch` / `probe_batch_into` on the first
//!   join edge of the workload's first join query, at the engine's
//!   envelope size, shard fan-out and worker budget (and at 1 worker,
//!   for the pool speed-up);
//! * storage — `DictStore::insert_batch` / `lookup_eq_flat` of the same
//!   rows into the hash store a SteM shard uses;
//! * SM and kernels — `Sm::apply_batch` / `apply_batch_fused` /
//!   `apply_batch_udf` and `Predicate::eval_batch` of every selection
//!   of the workload's queries over its table's rows;
//! * memo — `MemoCache::lookup` / `insert` of every SIEVE input key;
//! * metrics — `Metrics::bump` over the counter names the run produced.
//!
//! Each replay repeats [`REPLAY_REPS`] times and reports its median.

use crate::stats::{median, ratio};
use crate::workload::{Workload, BATCH_SIZE};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use stems_catalog::{Catalog, QuerySpec};
use stems_core::memo::{MemoCache, DEFAULT_MEMO_BYTES, DEFAULT_MEMO_SHARDS};
use stems_core::stem::{BuildResult, ProbeReplySet};
use stems_core::{ShardedStem, Sm, StemOptions, TupleState};
use stems_sim::Metrics;
use stems_storage::{CandidateBuf, StoreKind};
use stems_types::{HashedKey, Operand, Predicate, Row, TableIdx, Tuple, TupleBatch, Value};

pub const REPLAY_REPS: usize = 5;

/// One replayed figure: name, value, unit.
pub type Figure = (&'static str, f64, &'static str);

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn rows_of<'a>(catalog: &'a Catalog, q: &QuerySpec, t: TableIdx) -> &'a [Arc<Row>] {
    catalog.table_expect(q.tables[t.0 as usize].source).rows()
}

fn batches(rows: &[Arc<Row>], t: TableIdx) -> Vec<TupleBatch> {
    rows.chunks(BATCH_SIZE)
        .map(|c| c.iter().map(|r| Tuple::singleton(t, r.clone())).collect())
        .collect()
}

fn col_of(op: &Operand) -> Option<(TableIdx, usize)> {
    match op {
        Operand::Col(c) => Some((c.table, c.col)),
        _ => None,
    }
}

/// The replayed join edge: probe side `a`, build side `b`.
struct Edge<'a> {
    query: &'a QuerySpec,
    a: (TableIdx, usize),
    b: (TableIdx, usize),
}

fn first_edge(queries: &[QuerySpec]) -> Option<Edge<'_>> {
    queries.iter().find_map(|q| {
        let p = q.joins().next()?;
        Some(Edge {
            query: q,
            a: col_of(&p.left)?,
            b: col_of(&p.right)?,
        })
    })
}

struct StemTimes {
    build_s: f64,
    probe_s: f64,
    built_rows: usize,
    probes: usize,
    matches: usize,
}

/// Build side `b`, then side `a` (so its tuples carry later build
/// timestamps and pass the TimeStamp rule), then probe `b`'s SteM with
/// `a`'s freshly built tuples.
fn stem_pass(w: &Workload, catalog: &Catalog, e: &Edge, workers: usize) -> StemTimes {
    let q = e.query;
    let stem = |t: TableIdx| {
        let source = q.tables[t.0 as usize].source;
        ShardedStem::new(
            t,
            source,
            &q.join_cols_of(t),
            catalog.has_scan(source),
            catalog.has_index(source),
            StemOptions {
                num_shards: w.config.num_shards,
                workers: Some(workers),
                parallel_min_rows: Some(w.config.parallel_min_rows),
                ..StemOptions::default()
            },
        )
    };
    let (mut stem_a, mut stem_b) = (stem(e.a.0), stem(e.b.0));
    let (batches_a, batches_b) = (
        batches(rows_of(catalog, q, e.a.0), e.a.0),
        batches(rows_of(catalog, q, e.b.0), e.b.0),
    );
    let states = vec![TupleState::new(); BATCH_SIZE];
    let mut ts = 0;
    let mut probers: Vec<Tuple> = Vec::new();
    let build_s = secs(|| {
        for b in &batches_b {
            black_box(stem_b.build_batch(b, &states[..b.len()], &mut ts));
        }
        for b in &batches_a {
            for r in stem_a.build_batch(b, &states[..b.len()], &mut ts) {
                if let BuildResult::Fresh(t) = r {
                    probers.push(t);
                }
            }
        }
    });
    let built_rows = batches_a
        .iter()
        .chain(&batches_b)
        .map(TupleBatch::len)
        .sum();
    let mut replies = ProbeReplySet::new();
    let mut matches = 0;
    let probe_s = secs(|| {
        for chunk in probers.chunks(BATCH_SIZE) {
            replies.clear();
            stem_b.probe_batch_into(chunk, &states[..chunk.len()], q, &mut replies);
            matches += replies.total_results();
        }
    });
    StemTimes {
        build_s,
        probe_s,
        built_rows,
        probes: probers.len(),
        matches,
    }
}

fn stem_figures(w: &Workload, catalog: &Catalog, e: &Edge, out: &mut Vec<Figure>) {
    let workers = w.config.workers;
    let (mut build, mut probe, mut total, mut serial) = (vec![], vec![], vec![], vec![]);
    let (mut built, mut probes, mut matches) = (0, 0, 0);
    for _ in 0..REPLAY_REPS {
        let s = stem_pass(w, catalog, e, 1);
        serial.push(s.build_s + s.probe_s);
        let p = stem_pass(w, catalog, e, workers);
        build.push(p.build_s);
        probe.push(p.probe_s);
        total.push(p.build_s + p.probe_s);
        (built, probes, matches) = (p.built_rows, p.probes, p.matches);
    }
    out.push((
        "stem.build_ns_per_row",
        ratio(median(&build) * 1e9, built as f64),
        "ns",
    ));
    out.push((
        "stem.probe_ns_per_row",
        ratio(median(&probe) * 1e9, probes as f64),
        "ns",
    ));
    out.push((
        "stem.matches_per_probe",
        ratio(matches as f64, probes as f64),
        "count",
    ));
    out.push((
        "runtime.pool_speedup",
        ratio(median(&serial), median(&total)),
        "x",
    ));
}

fn storage_figures(catalog: &Catalog, e: &Edge, out: &mut Vec<Figure>) {
    let q = e.query;
    let build_rows = rows_of(catalog, q, e.b.0);
    let keys: Vec<HashedKey> = rows_of(catalog, q, e.a.0)
        .iter()
        .map(|r| HashedKey::new(r.values()[e.a.1].clone()))
        .collect();
    let indexed = q.join_cols_of(e.b.0);
    let (mut insert, mut lookup) = (vec![], vec![]);
    let mut candidates = 0;
    for _ in 0..REPLAY_REPS {
        let chunks: Vec<Vec<Arc<Row>>> = build_rows.chunks(BATCH_SIZE).map(<[_]>::to_vec).collect();
        let mut store = StoreKind::Hash.build(&indexed);
        insert.push(secs(|| {
            for c in chunks {
                store.insert_batch(c);
            }
        }));
        let mut buf = CandidateBuf::new();
        candidates = 0;
        lookup.push(secs(|| {
            for c in keys.chunks(BATCH_SIZE) {
                store.lookup_eq_flat(e.b.1, c, &mut buf);
                candidates += (0..c.len()).map(|i| buf.candidates(i).len()).sum::<usize>();
            }
        }));
    }
    out.push((
        "storage.insert_ns_per_row",
        ratio(median(&insert) * 1e9, build_rows.len() as f64),
        "ns",
    ));
    out.push((
        "storage.lookup_ns_per_key",
        ratio(median(&lookup) * 1e9, keys.len() as f64),
        "ns",
    ));
    out.push((
        "storage.candidates_per_key",
        ratio(candidates as f64, keys.len() as f64),
        "count",
    ));
}

/// Selections of every query grouped by table instance: `(query,
/// instance, plain selections, UDF selections)`.
fn selection_groups(
    queries: &[QuerySpec],
) -> Vec<(&QuerySpec, TableIdx, Vec<&Predicate>, Vec<&Predicate>)> {
    let mut out = Vec::new();
    for q in queries {
        for t in 0..q.n_tables() {
            let t = TableIdx(t as u8);
            let on_t = |p: &&Predicate| p.tables().contains(t);
            let plain: Vec<&Predicate> = q
                .selections()
                .filter(on_t)
                .filter(|p| p.udf_spec().is_none())
                .collect();
            let udf: Vec<&Predicate> = q
                .selections()
                .filter(on_t)
                .filter(|p| p.udf_spec().is_some())
                .collect();
            if !plain.is_empty() || !udf.is_empty() {
                out.push((q, t, plain, udf));
            }
        }
    }
    out
}

fn sm_figures(catalog: &Catalog, queries: &[QuerySpec], out: &mut Vec<Figure>) {
    let groups = selection_groups(queries);
    let inputs: Vec<Vec<TupleBatch>> = groups
        .iter()
        .map(|(q, t, _, _)| batches(rows_of(catalog, q, *t), *t))
        .collect();
    let (mut sm_s, mut kernel_s, mut udf_s, mut memo_s) = (vec![], vec![], vec![], vec![]);
    let (mut sm_rows, mut kernel_rows, mut udf_rows, mut lookups) = (0, 0, 0, 0);
    for _ in 0..REPLAY_REPS {
        let (mut sm_t, mut kernel_t, mut udf_t, mut memo_t) = (0.0, 0.0, 0.0, 0.0);
        (sm_rows, kernel_rows, udf_rows, lookups) = (0, 0, 0, 0);
        for ((_, _, plain, udf), input) in groups.iter().zip(&inputs) {
            let rows: usize = input.iter().map(TupleBatch::len).sum();
            let sms: Vec<Sm> = plain.iter().map(|p| Sm::new((*p).clone())).collect();
            for sm in &sms {
                sm_t += secs(|| {
                    for b in input {
                        black_box(sm.apply_batch(b));
                    }
                });
                sm_rows += rows;
            }
            if let [head, rest @ ..] = sms.as_slice() {
                if !rest.is_empty() {
                    let siblings: Vec<&Sm> = rest.iter().collect();
                    sm_t += secs(|| {
                        for b in input {
                            black_box(head.apply_batch_fused(b, &siblings));
                        }
                    });
                    sm_rows += rows;
                }
            }
            for p in plain {
                kernel_t += secs(|| {
                    for b in input {
                        black_box(p.eval_batch(b));
                    }
                });
                kernel_rows += rows;
            }
            for p in udf {
                let mut sm = Sm::new((*p).clone());
                sm.set_memo(Some(MemoCache::cell(
                    DEFAULT_MEMO_SHARDS,
                    DEFAULT_MEMO_BYTES,
                )));
                udf_t += secs(|| {
                    for b in input {
                        black_box(sm.apply_batch_udf(b, true));
                    }
                });
                udf_rows += rows;
                memo_t += memo_pass(p, input, &mut lookups);
            }
        }
        sm_s.push(sm_t);
        kernel_s.push(kernel_t);
        udf_s.push(udf_t);
        memo_s.push(memo_t);
    }
    let ns = |s: &[f64], n: usize| ratio(median(s) * 1e9, n as f64);
    out.push(("sm.ns_per_row", ns(&sm_s, sm_rows), "ns"));
    out.push(("sm.udf_ns_per_row", ns(&udf_s, udf_rows), "ns"));
    out.push(("kernel.ns_per_row", ns(&kernel_s, kernel_rows), "ns"));
    out.push(("memo.lookup_ns", ns(&memo_s, lookups), "ns"));
}

/// Fill a fresh memo with every input key's verdict, then time one warm
/// `MemoCache::lookup` per row.
fn memo_pass(p: &Predicate, input: &[TupleBatch], lookups: &mut usize) -> f64 {
    let spec = *p.udf_spec().expect("UDF selection");
    let col = p.udf_input_col().expect("UDF input column");
    let keyed: Vec<(HashedKey, Value)> = input
        .iter()
        .flat_map(|b| b.iter())
        .filter_map(|t| t.value(col.table, col.col))
        .filter(|v| !v.is_null())
        .map(|v| (HashedKey::new(v.clone()), v.clone()))
        .collect();
    let cache = MemoCache::new(DEFAULT_MEMO_SHARDS, DEFAULT_MEMO_BYTES);
    for (k, v) in &keyed {
        if cache.lookup(k).is_none() {
            cache.insert(k, spec.verdict(v));
        }
    }
    *lookups += keyed.len();
    secs(|| {
        for (k, _) in &keyed {
            black_box(cache.lookup(k));
        }
    })
}

fn metrics_figures(counter_names: &[String], bumps: u64, out: &mut Vec<Figure>) {
    let mut times = vec![];
    for _ in 0..REPLAY_REPS {
        let mut m = Metrics::new();
        times.push(secs(|| {
            for (i, name) in counter_names
                .iter()
                .cycle()
                .take(bumps as usize)
                .enumerate()
            {
                m.bump(name, i as u64, 1);
            }
        }));
        black_box(&m);
    }
    out.push((
        "metrics.bump_ns",
        ratio(median(&times) * 1e9, bumps as f64),
        "ns",
    ));
}

/// Upper bound on replayed `Metrics::bump` calls.
const MAX_BUMPS: u64 = 1_000_000;

/// Every replayed figure for `w`. `counter_names` and `series_points`
/// come from the traced repetition the other per-layer figures use.
pub fn replay(
    w: &Workload,
    catalog: &Catalog,
    queries: &[QuerySpec],
    counter_names: &[String],
    series_points: u64,
) -> Vec<Figure> {
    let mut out = Vec::new();
    if let Some(e) = first_edge(queries) {
        stem_figures(w, catalog, &e, &mut out);
        storage_figures(catalog, &e, &mut out);
    }
    sm_figures(catalog, queries, &mut out);
    if !counter_names.is_empty() {
        metrics_figures(counter_names, series_points.clamp(1, MAX_BUMPS), &mut out);
    }
    out
}
