//! Allocation accounting for the steady-state probe reply path and the
//! SteM build path.
//!
//! The probe pipeline promises **zero per-tuple heap allocations** once
//! its pooled buffers are warm: replies land in a caller-owned
//! [`ProbeReplySet`] arena, candidate fetch runs through the pooled
//! `ProbeScratch`, predicate sets resolve through the span-level cache,
//! and bounce decisions allocate nothing when no keyed EOTs are
//! registered. What remains is a small *per-envelope* constant (the span
//! table and eval cache are envelope-local).
//!
//! A counting global allocator turns that promise into an assertion: with
//! everything warmed up, probing an envelope of 4N stale tuples must cost
//! (almost) exactly the same number of allocations as an envelope of N —
//! any per-tuple allocation would scale the count ~4×. Probes are stale
//! (stamped at-or-before every build) so every candidate is fetched and
//! then timestamp-filtered: the fetch/reply plumbing is exercised, while
//! result formation — which inherently allocates the concatenated tuple —
//! stays out of the measurement.
//!
//! The build path makes the same promise for a [`HashStore`]: its
//! secondary indexes are flat position chains, so inserting rows costs
//! only amortized growth of a few arrays and head tables, never an
//! allocation per row or per distinct key.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use stems::catalog::{Catalog, QuerySpec, ScanSpec, SourceId, TableDef, TableInstance};
use stems::core::stem::{ProbeReplySet, StemOptions};
use stems::core::{ShardedStem, TupleState};
use stems::storage::{DictStore, HashStore};
use stems::types::{
    CmpOp, ColRef, ColumnType, PredId, Predicate, Row, Schema, TableIdx, Timestamp, Tuple,
    TupleBatch, Value,
};

fn setup() -> (Catalog, QuerySpec) {
    let mut c = Catalog::new();
    let r = c
        .add_table(TableDef::new(
            "R",
            Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
        ))
        .unwrap();
    let s = c
        .add_table(TableDef::new(
            "S",
            Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
        ))
        .unwrap();
    c.add_scan(r, ScanSpec::default()).unwrap();
    c.add_scan(s, ScanSpec::default()).unwrap();
    let q = QuerySpec::new(
        &c,
        vec![
            TableInstance {
                source: r,
                alias: "r".into(),
            },
            TableInstance {
                source: s,
                alias: "s".into(),
            },
        ],
        vec![Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        )],
        None,
    )
    .unwrap();
    (c, q)
}

/// The allocation counter is process-wide: tests that read it run one at
/// a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Count allocations across `f`. Deallocations are free by design: the
/// reply path may *return* pooled memory, it just may never take more.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn steady_state_probe_reply_path_is_allocation_free_per_tuple() {
    let _serial = serial();
    // One shard and a sharded fan-out take the same lane path; both must
    // hold the promise.
    for num_shards in [1, 8] {
        probe_reply_path_is_allocation_free_per_tuple(num_shards);
    }
}

fn probe_reply_path_is_allocation_free_per_tuple(num_shards: usize) {
    const ROWS: usize = 4096;
    const SMALL: usize = ROWS / 4;
    let (_c, q) = setup();
    // One worker: a pooled fan-out checks a probe scratch out per chunk
    // running at that moment, and how many chunks overlap is up to the
    // scheduler, so no warm-up could size every scratch for sure. The
    // lane path measured here is the same serial or pooled.
    let mut stem = ShardedStem::new(
        TableIdx(1),
        SourceId(1),
        &[0],
        true,
        false,
        StemOptions {
            num_shards,
            workers: Some(1),
            ..StemOptions::default()
        },
    );
    // Int-keyed builds, one distinct key per row, stamped 1..=ROWS.
    let mut ts: Timestamp = 0;
    let batch: TupleBatch = (0..ROWS as i64)
        .map(|i| Tuple::singleton_of(TableIdx(1), vec![Value::Int(i), Value::Int(i)]))
        .collect();
    let states = vec![TupleState::new(); batch.len()];
    stem.build_batch(&batch, &states, &mut ts);

    // Stale keyed probes: stamped 1, so every probe fetches its one
    // candidate and the TimeStamp rule filters it (ts(probe) > ts(match)
    // fails) — raw_matches > 0, zero results, zero concatenations.
    let mk_probes = |n: usize| -> Vec<Tuple> {
        (0..n as i64)
            .map(|i| {
                Tuple::singleton_of(
                    TableIdx(0),
                    vec![Value::Int(i), Value::Int(i % ROWS as i64)],
                )
                .with_timestamp(TableIdx(0), 1)
            })
            .collect()
    };
    let small = mk_probes(SMALL);
    let small_states = vec![TupleState::new(); SMALL];
    let big = mk_probes(ROWS);
    let big_states = vec![TupleState::new(); ROWS];
    let mut replies = ProbeReplySet::new();

    // Warm-up: size every pooled buffer (scratch, arena, span cache
    // capacity) for the largest envelope.
    replies.clear();
    stem.probe_batch_into(&big, &big_states, &q, &mut replies);
    assert_eq!(replies.len(), ROWS);
    assert_eq!(replies.total_results(), 0, "stale probes must form nothing");
    let fetched: usize = replies.iter().map(|(m, _)| m.raw_matches).sum();
    assert_eq!(fetched, ROWS, "every probe must fetch its candidate");

    let (small_allocs, ()) = allocs_during(|| {
        replies.clear();
        stem.probe_batch_into(&small, &small_states, &q, &mut replies);
    });
    assert_eq!(replies.len(), SMALL);
    let (big_allocs, ()) = allocs_during(|| {
        replies.clear();
        stem.probe_batch_into(&big, &big_states, &q, &mut replies);
    });
    assert_eq!(replies.len(), ROWS);

    // Per-envelope constants cancel; a single per-tuple allocation would
    // show up as ≈ 3 × SMALL extra counts on the big envelope.
    assert!(
        big_allocs <= small_allocs + 8,
        "probe reply path allocates per tuple at {num_shards} shards: {SMALL} probes cost \
         {small_allocs} allocations, {ROWS} probes cost {big_allocs}"
    );
}

#[test]
fn hash_store_build_path_allocates_no_memory_per_row() {
    const WARM: i64 = 1024;
    const SMALL: i64 = 2048;
    let _serial = serial();
    // Indexed on a unique column (one new chain per row) and on a
    // 7-valued one (long chains); col 2 is a NULL every third row.
    let rows = |from: i64, n: i64| -> Vec<Arc<Row>> {
        (from..from + n)
            .map(|i| {
                let c2 = if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                };
                Row::shared(vec![Value::Int(i), Value::Int(i % 7), c2])
            })
            .collect()
    };
    let warm_store = || {
        let mut s = HashStore::new(&[0, 1, 2]);
        s.insert_batch(rows(0, WARM));
        s
    };
    let (mut small_store, mut big_store) = (warm_store(), warm_store());
    let (small, big) = (rows(WARM, SMALL), rows(WARM, 4 * SMALL));

    let (small_allocs, ()) = allocs_during(|| small_store.insert_batch(small));
    let (big_allocs, ()) = allocs_during(|| big_store.insert_batch(big));
    assert_eq!(small_store.len(), (WARM + SMALL) as usize);
    assert_eq!(big_store.len(), (WARM + 4 * SMALL) as usize);
    let threes = (0..WARM + 4 * SMALL).filter(|i| i % 7 == 3).count();
    assert_eq!(big_store.lookup_eq(1, &Value::Int(3)).len(), threes);

    // Growth doubles, so 4x the rows costs a couple more reallocations per
    // array; one allocation per row or per key would add ≈ 3 × SMALL.
    assert!(
        big_allocs <= small_allocs + 8,
        "HashStore build path allocates per row: {SMALL} rows cost {small_allocs} allocations, \
         {} rows cost {big_allocs}",
        4 * SMALL
    );
}
