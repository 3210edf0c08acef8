//! The SteM as the engine sees it: [`ShardedStem`] owns build, window,
//! release and probe fan-out; each shard is a [`Stem`] dictionary.
//!
//! A single dictionary serializes every build and probe for its table —
//! fine for the paper's tuple-at-a-time eddy, but a hard throughput cap
//! once envelopes carry thousands of rows. [`ShardedStem`] splits SteM
//! *storage* by join-key hash into `num_shards` independent shards plus,
//! when there is more than one, a dedicated **overflow shard** for rows
//! whose key is un-hashable (NULL/EOT — the same lane discipline as
//! `stems_storage::PartitionedStore`). It fans `build_batch` /
//! `probe_batch_into` envelopes out across the shards on the persistent
//! work-stealing worker pool ([`crate::runtime::WorkerPool`] — long-lived
//! workers, per-shard affinity, no per-envelope thread spawn/join). The
//! batched envelopes are the natural unit of distribution: the eddy stays
//! single-threaded and deterministic, and parallelism lives entirely
//! inside one module service call.
//!
//! One path serves every shard count. With `num_shards: 1` there is one
//! shard and no overflow shard; every envelope still takes the same
//! route → ingest → stamp build, the same window sweep and release merge,
//! and the same lane fan-out and reply merge (a one-lane fan-out skips
//! the timestamp merge, so the Sorted backend keeps its value order).
//!
//! A lane is a list of indices into the caller's envelope: no tuple,
//! state or binding is copied on the way to a shard, and the lane
//! buffers of both directions are pooled across envelopes.
//!
//! Probe fan-outs are additionally **skew-aware**: the routing pass
//! counts the rows landing in each lane, and every lane is cut into
//! chunks of at most `ceil(total / workers)` rows before dispatch — a
//! hot shard (every probe keyed to one value, say) is split across idle
//! workers instead of serializing the envelope behind one lane. Chunking
//! is deterministic and read-only (probes never mutate the dictionary),
//! so replies are bit-identical at every worker count. Build lanes are
//! *not* split: per-shard dedup is order-dependent, so a build lane is
//! one worker's unit of work by construction.
//!
//! # Semantics: the same at every shard count
//!
//! Sharding must be invisible to every observable of the engine
//! (`tests/prop_batch_equivalence.rs` locks shard counts {1, 2, 4, 7}
//! verdict-for-verdict to the single-shard engine):
//!
//! * **Routing** — a row lands in shard `stable_key_hash(key) %
//!   num_shards` of its first join column (the same column the deferred
//!   bounce-back partitioner uses). [`stems_types::Value::stable_key_hash`]
//!   agrees with equality-key normalization, so every row a probe key can
//!   `sql_eq` lives in the probe key's shard and partitioned equality
//!   lookups stay complete. Un-hashable keys go to the overflow shard,
//!   which equality probes on the key column never need to visit.
//! * **Timestamps** — dictionary work (dedup + insert) runs per shard,
//!   in parallel for large envelopes; global build-timestamp assignment
//!   stays serial, in batch order (`Stem::ingest_batch` /
//!   `Stem::stamp_fresh`). Duplicates co-locate with their original
//!   (same row ⇒ same key ⇒ same shard), so per-shard dedup is exact.
//! * **EOT-versioning** — EOT tuples are recorded in every shard's EOT
//!   index, so each shard answers coverage/bounce questions for the whole
//!   SteM and [`ShardedStem::eot_version`] can read any one shard.
//! * **Probe merge** — a probe bound on the shard key column is answered
//!   by its one shard (plus nothing else: overflow rows cannot match).
//!   Any other probe fans out to all shards and the per-shard results are
//!   merged by ascending build timestamp — which *is* global insertion
//!   order, so the merged [`ProbeReply`](crate::stem::ProbeReply) is
//!   bit-identical to the single-shard reply for insertion-ordered
//!   backends (List/Hash/Adaptive/Partitioned; the Sorted backend
//!   orders by value and is multiset-equal only).
//! * **Deferred release** — per-shard deferred queues are merged and
//!   clustered by `(bounce partition, build timestamp)`: a stable
//!   partition sort over build order.
//! * **Window sweeps** — a FIFO window is enforced *globally*: the victim
//!   is always the shard holding the minimum oldest build timestamp. A
//!   windowed SteM runs the build passes one row at a time, each followed
//!   by the sweep, so an evicted row that re-arrives later in the same
//!   envelope is built fresh again.

use crate::runtime::{default_parallel_min_rows, default_workers, WorkerPool};
use crate::stem::{
    equi_binding, linking_for, BuildResult, ProbeBinding, ProbeEnvelope, ProbeReplySet, ReplyMeta,
    SpanLinks, Stem, StemOptions,
};
use crate::sync::{lock_recover, Mutex, MutexGuard};
use crate::tuple_state::TupleState;
use stems_catalog::{QuerySpec, SourceId};
use stems_types::{HashedKey, Row, TableIdx, Timestamp, Tuple, TupleBatch, Value, UNBUILT_TS};

/// Route marker of an EOT row in [`BuildPool::route`]: recorded in every
/// shard, ingested by none.
const EOT_ROUTE: usize = usize::MAX;

/// Reset per-lane index lists for a new envelope (capacity survives).
fn reset_lanes(lanes: &mut Vec<Vec<usize>>, n_lanes: usize) {
    lanes.resize_with(n_lanes, Vec::new);
    for lane in lanes.iter_mut() {
        lane.clear();
    }
}

/// Pooled build fan-out buffers, reused across envelopes (capacity
/// survives; contents are per envelope). Builds run through `&mut self`,
/// so no lock is needed.
#[derive(Debug, Default)]
struct BuildPool {
    /// Per envelope member: its shard, or [`EOT_ROUTE`].
    route: Vec<usize>,
    /// Per shard: the envelope indices routed there, in batch order.
    lanes: Vec<Vec<usize>>,
    /// Per shard: [`Stem::ingest_batch`]'s fresh/duplicate verdicts.
    fresh: Vec<Vec<bool>>,
    /// Per shard: how many verdicts the stamping pass has consumed.
    cursors: Vec<usize>,
}

/// Pooled probe fan-out buffers, reused across envelopes (capacity
/// survives; contents are per envelope). Behind a [`Mutex`] because
/// probes run through `&self`; the lock is taken once per envelope.
#[derive(Debug, Default)]
struct ProbePool {
    /// Per envelope member: its span's index in the envelope's span cache
    /// and its binding, resolved and hashed once.
    plans: Vec<(usize, ProbeBinding)>,
    /// Per shard: the envelope indices probing it, in batch order.
    lanes: Vec<Vec<usize>>,
    /// Per envelope member: its one lane, or `None` when it fans out.
    lane_of: Vec<Option<usize>>,
    /// Dispatch units of the current envelope: `(lane, start, end)`
    /// sub-ranges of each lane, lane-major — the skew-aware chunking of
    /// hot lanes (see the module docs).
    tasks: Vec<(usize, usize, usize)>,
    /// One reply arena per dispatch unit (capacity reused).
    chunk_sets: Vec<ProbeReplySet>,
    /// Per lane: index of the task the merge is currently consuming.
    cursors: Vec<usize>,
}

/// A State Module whose dictionary is hash-partitioned across
/// `num_shards` independent [`Stem`] shards (plus one overflow shard when
/// `num_shards > 1`).
///
/// This is the type the engine instantiates per table instance
/// ([`crate::plan::Module::Stem`]); its accessors sum (or max) across
/// shards.
pub struct ShardedStem {
    pub instance: TableIdx,
    pub source: SourceId,
    pub has_scan_am: bool,
    pub has_index_am: bool,
    /// `num_shards` keyed shards, followed — when `num_shards > 1` — by
    /// the overflow shard, so the last shard always takes un-hashable
    /// keys.
    shards: Vec<Stem>,
    num_shards: usize,
    /// First join column — the shard key (also the deferred-bounce
    /// partition column inside each shard).
    key_col: usize,
    /// Global FIFO window across all shards (`None` = unbounded).
    window: Option<usize>,
    /// Worker-pool budget for this SteM's envelope fan-outs (resolved
    /// from [`StemOptions::workers`] at construction).
    workers: usize,
    /// Minimum routed rows before an envelope dispatches to the pool
    /// (resolved from [`StemOptions::parallel_min_rows`]).
    parallel_min_rows: usize,
    /// Pooled build fan-out buffers (see [`BuildPool`]).
    build_pool: BuildPool,
    /// Pooled probe fan-out buffers (see [`ProbePool`]).
    probe_pool: Mutex<ProbePool>,
}

impl std::fmt::Debug for ShardedStem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStem")
            .field("instance", &self.instance)
            .field("num_shards", &self.num_shards)
            .field("len", &self.len())
            .field("backend", &self.backend())
            .field("max_ts", &self.max_ts())
            .finish()
    }
}

impl ShardedStem {
    /// Create the SteM for `instance` of `source`. `opts.num_shards`
    /// decides the fan-out and `opts.eviction_window` the global window;
    /// all other options apply to every shard.
    pub fn new(
        instance: TableIdx,
        source: SourceId,
        join_cols: &[usize],
        has_scan_am: bool,
        has_index_am: bool,
        opts: StemOptions,
    ) -> ShardedStem {
        let num_shards = opts.num_shards.max(1);
        let overflow = usize::from(num_shards > 1);
        let shards = (0..num_shards + overflow)
            .map(|_| {
                Stem::new(
                    instance,
                    source,
                    join_cols,
                    has_scan_am,
                    has_index_am,
                    opts.clone(),
                )
            })
            .collect();
        ShardedStem {
            instance,
            source,
            has_scan_am,
            has_index_am,
            shards,
            num_shards,
            key_col: join_cols.first().copied().unwrap_or(0),
            window: opts.eviction_window,
            workers: opts.workers.unwrap_or_else(default_workers).max(1),
            parallel_min_rows: opts
                .parallel_min_rows
                .unwrap_or_else(default_parallel_min_rows)
                .max(1),
            build_pool: BuildPool::default(),
            probe_pool: Mutex::new(ProbePool::default()),
        }
    }

    /// Re-point this SteM at a different table instance. All stored state
    /// (rows, timestamps, dedup, EOT marks) is instance-agnostic — the
    /// instance index only tags tuples routed in and out — so a SteM
    /// built under one query can serve another whose instance numbering
    /// differs. The query server uses this to fold N queries' probes onto
    /// one shared SteM; callers must retarget *before* building or
    /// probing on behalf of the new instance.
    pub fn retarget(&mut self, instance: TableIdx) {
        self.instance = instance;
        for shard in &mut self.shards {
            shard.instance = instance;
        }
    }

    /// Lock the probe fan-out pool, recovering from poison: the pool
    /// holds only envelope-lifetime scratch (lanes, tasks, reply arenas),
    /// so after a prober panics mid-envelope the cheapest safe recovery
    /// is a fresh pool — shared-SteM queries behind the panicking one
    /// keep running.
    fn lock_probe_pool(&self) -> MutexGuard<'_, ProbePool> {
        lock_recover(&self.probe_pool, |pool| *pool = ProbePool::default())
    }

    /// The shards, keyed shards first (test hook for per-shard state).
    #[cfg(test)]
    pub(crate) fn shards(&self) -> &[Stem] {
        &self.shards
    }

    /// Mutable shard access (test hook for per-shard state).
    #[cfg(test)]
    pub(crate) fn shard_mut(&mut self, i: usize) -> &mut Stem {
        &mut self.shards[i]
    }

    // ------------------------------------------------------------------
    // Aggregate accessors (sum / max / any-shard across the fan-out)
    // ------------------------------------------------------------------

    /// Keyed shard fan-out.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Stored (non-EOT) tuples across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Stem::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard row counts (keyed shards first, overflow last when
    /// sharded) — balance diagnostics for benches and tests.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(Stem::len).collect()
    }

    /// Per-shard approximate memory (same order as [`Self::shard_lens`]).
    pub fn shard_bytes(&self) -> Vec<usize> {
        self.shards.iter().map(Stem::approx_bytes).collect()
    }

    /// Has the full relation arrived? (EOTs reach every shard, any shard
    /// answers.)
    pub fn scan_complete(&self) -> bool {
        self.shards[0].scan_complete()
    }

    /// EOT change counter — every shard records every EOT, so any one
    /// shard's count is the SteM's.
    pub fn eot_version(&self) -> u64 {
        self.shards[0].eot_version()
    }

    /// Max build timestamp across shards (timestamps are global).
    pub fn max_ts(&self) -> Timestamp {
        self.shards.iter().map(|s| s.max_ts).max().unwrap_or(0)
    }

    /// Fresh (non-EOT) builds accepted, across shards.
    pub fn build_count(&self) -> u64 {
        self.shards.iter().map(|s| s.build_count).sum()
    }

    /// Set-semantics duplicates absorbed, across shards.
    pub fn duplicates_absorbed(&self) -> u64 {
        self.shards.iter().map(|s| s.duplicates_absorbed).sum()
    }

    /// FIFO evictions performed, across shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions).sum()
    }

    /// Approximate memory footprint: the sum over every keyed shard's
    /// store plus the overflow lane's.
    pub fn approx_bytes(&self) -> usize {
        self.shards.iter().map(Stem::approx_bytes).sum()
    }

    /// Dictionary backend in use (identical across shards).
    pub fn backend(&self) -> &'static str {
        self.shards[0].backend()
    }

    /// Withheld bounce-backs across all shards.
    pub fn deferred_len(&self) -> usize {
        self.shards.iter().map(Stem::deferred_len).sum()
    }

    /// Virtual service units for one envelope under the parallel-server
    /// cost model (`CostModel::shard_parallel_service`): each shard is an
    /// independent server, so the envelope completes when the *busiest*
    /// shard does — the unit count is the max per-shard load, computed
    /// with the same routing the envelope will actually take (keyed
    /// probes hit one shard; fan-out probes and EOTs load every shard).
    /// One shard is one serial server: units = batch length.
    pub fn parallel_service_units(
        &self,
        batch: &TupleBatch,
        query: &QuerySpec,
        probe: bool,
    ) -> u64 {
        let mut loads = vec![0u64; self.shards.len()];
        let mut load = |lane: Option<usize>| match lane {
            Some(l) => loads[l] += 1,
            None => loads.iter_mut().for_each(|l| *l += 1),
        };
        if probe {
            let mut links: SpanLinks = Vec::new();
            for tuple in batch.iter() {
                let (_, binding) = self.probe_plan(&mut links, tuple, query);
                load(self.probe_lane(&binding));
            }
        } else {
            for tuple in batch.iter() {
                let row = &tuple.components()[0].row;
                load((!row.is_eot()).then(|| self.shard_of_row(row)));
            }
        }
        loads.into_iter().max().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// The shard that takes un-hashable keys (NULL/EOT): the overflow
    /// shard, or the only shard.
    fn overflow_shard(&self) -> usize {
        self.shards.len() - 1
    }

    /// The shard a row's key belongs to (a lone shard takes every row
    /// without hashing its key).
    fn shard_of_row(&self, row: &Row) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        match row.get(self.key_col).and_then(Value::stable_key_hash) {
            Some(h) => (h % self.num_shards as u64) as usize,
            None => self.overflow_shard(),
        }
    }

    /// A probe's span-cache index and equi binding, its key resolved and
    /// hashed once ([`HashedKey`]). `links` is the envelope's span cache
    /// (probe batches are usually span-uniform, so it stays one entry).
    fn probe_plan<'q>(
        &self,
        links: &mut SpanLinks<'q>,
        tuple: &Tuple,
        query: &'q QuerySpec,
    ) -> (usize, ProbeBinding) {
        let t = self.instance;
        let li = linking_for(links, query, tuple.span(), t);
        let binding =
            equi_binding(&links[li].1, tuple, t).map(|(col, val)| (col, HashedKey::new(val)));
        (li, binding)
    }

    /// Lane decision for one probe, read from its already-hashed binding —
    /// the single source of truth shared by
    /// [`ShardedStem::probe_batch_into`] and the parallel-server cost model
    /// ([`ShardedStem::parallel_service_units`]), so the virtual speedup
    /// series can never drift from the routing the engine performs.
    ///
    /// `Some(shard)`: an equi binding on the shard key column pins the
    /// probe to one shard (equal keys co-locate, and overflow rows can
    /// never equal a probe key — that shard answers completely;
    /// un-hashable keys ride the overflow lane). `None`: bound on a
    /// non-key column, or no binding at all — the matching rows are
    /// spread across every lane, so the probe fans out.
    fn probe_lane(&self, binding: &ProbeBinding) -> Option<usize> {
        match binding {
            Some((col, key)) if *col == self.key_col => Some(match key.hash() {
                Some(h) => h.shard(self.num_shards),
                None => self.overflow_shard(),
            }),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Build
    // ------------------------------------------------------------------

    /// Build a whole envelope, consuming timestamps from `ts_counter` as
    /// fresh inserts happen. Dedup, timestamping and bounce decisions
    /// stay per tuple (intra-batch duplicates are absorbed exactly like
    /// cross-batch ones). Dictionary work (dedup + insert) is fanned out
    /// across shards — on the persistent worker pool once the envelope
    /// is large enough — while timestamp assignment stays serial in
    /// batch order, so results are identical at any shard and worker
    /// count. A windowed SteM builds one row at a time, sweeping the
    /// window after each.
    pub fn build_batch(
        &mut self,
        batch: &TupleBatch,
        states: &[TupleState],
        ts_counter: &mut Timestamp,
    ) -> Vec<BuildResult> {
        debug_assert_eq!(batch.len(), states.len());
        let mut results = Vec::with_capacity(batch.len());
        let mut pool = std::mem::take(&mut self.build_pool);
        let step = if self.window.is_some() {
            1
        } else {
            batch.len().max(1)
        };
        for (rows, row_states) in batch.as_slice().chunks(step).zip(states.chunks(step)) {
            self.build_rows(&mut pool, rows, row_states, ts_counter, &mut results);
            self.enforce_window();
        }
        self.build_pool = pool;
        results
    }

    /// The three build passes over `batch`, appending one result per
    /// member to `results`: route (serial), ingest (per shard, parallel
    /// when large), stamp (serial, batch order).
    fn build_rows(
        &mut self,
        pool: &mut BuildPool,
        batch: &[Tuple],
        states: &[TupleState],
        ts_counter: &mut Timestamp,
        results: &mut Vec<BuildResult>,
    ) {
        let n_lanes = self.shards.len();
        let BuildPool {
            route,
            lanes,
            fresh,
            cursors,
        } = pool;
        route.clear();
        route.reserve(batch.len());
        reset_lanes(lanes, n_lanes);
        fresh.resize_with(n_lanes, Vec::new);
        cursors.clear();
        cursors.resize(n_lanes, 0);

        // Pass 1 (serial): route rows to shards; record EOTs in every
        // shard at once (they touch no dictionary state, so their
        // position within the batch is irrelevant).
        for (i, tuple) in batch.iter().enumerate() {
            let row = &tuple.components()[0].row;
            if row.is_eot() {
                for shard in &mut self.shards {
                    shard.record_eot(row);
                }
                route.push(EOT_ROUTE);
            } else {
                let s = self.shard_of_row(row);
                lanes[s].push(i);
                route.push(s);
            }
        }

        // Pass 2: per-shard dedup + dictionary insert, one pool task per
        // busy lane with the lane index as worker affinity (the worker
        // that last built a shard re-runs it, caches warm).
        let routed: usize = lanes.iter().map(Vec::len).sum();
        let busy_lanes = lanes.iter().filter(|l| !l.is_empty()).count();
        let lane_work = self
            .shards
            .iter_mut()
            .zip(lanes.iter())
            .zip(fresh.iter_mut());
        if routed >= self.parallel_min_rows && busy_lanes > 1 && self.workers > 1 {
            WorkerPool::global().scope(self.workers, |scope| {
                for (lane_i, ((shard, lane), out)) in lane_work.enumerate() {
                    if !lane.is_empty() {
                        scope.spawn(lane_i, move || shard.ingest_batch(batch, lane, out));
                    }
                }
            });
        } else {
            for ((shard, lane), out) in lane_work {
                if !lane.is_empty() {
                    shard.ingest_batch(batch, lane, out);
                }
            }
        }

        // Pass 3 (serial): global timestamps in batch order. Each lane's
        // verdicts are in batch order, so one cursor per lane suffices.
        for ((tuple, state), &s) in batch.iter().zip(states).zip(route.iter()) {
            results.push(if s == EOT_ROUTE {
                BuildResult::Eot
            } else {
                let is_fresh = fresh[s][cursors[s]];
                cursors[s] += 1;
                if is_fresh {
                    *ts_counter += 1;
                    self.shards[s].stamp_fresh(tuple, state, *ts_counter)
                } else {
                    BuildResult::Duplicate
                }
            });
        }
    }

    /// Enforce the global FIFO window: evict from whichever shard holds
    /// the globally oldest row (minimum build timestamp) until the total
    /// population fits.
    fn enforce_window(&mut self) {
        let Some(window) = self.window else {
            return;
        };
        while self.len() > window {
            let victim = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.oldest_ts().map(|ts| (ts, i)))
                .min();
            match victim {
                Some((_, i)) => {
                    self.shards[i].evict_oldest();
                }
                None => break,
            }
        }
    }

    // ------------------------------------------------------------------
    // Probe
    // ------------------------------------------------------------------

    /// Probe a whole envelope into the caller-owned reply arena, appending
    /// one reply per tuple in batch order. Probes bound on the shard key
    /// column go to exactly their key's shard; all other probes fan out
    /// to every shard and, when there is more than one, the partial
    /// replies are merged by ascending build timestamp — global insertion
    /// order, i.e. the single-shard candidate order.
    ///
    /// Hash-once: the routing pass resolves and hashes every binding key
    /// exactly one time ([`HashedKey`]); the shard index `h % num_shards`
    /// and the shard dictionary's index descent read that same
    /// annotation. Lanes are index lists into `batch`; they, the dispatch
    /// chunks and the per-chunk reply arenas live in a pool reused across
    /// fan-outs, so a steady probe stream allocates no envelope buffers.
    ///
    /// Skew rebalancing: each lane is cut into chunks of at most
    /// `ceil(routed / workers)` rows, so one hot lane spreads across the
    /// worker budget; probes are read-only, so chunking cannot change any
    /// reply. The serial path (small envelope / one worker) runs the same
    /// code with one chunk per lane.
    pub fn probe_batch_into(
        &self,
        batch: &[Tuple],
        states: &[TupleState],
        query: &QuerySpec,
        out: &mut ProbeReplySet,
    ) {
        debug_assert_eq!(batch.len(), states.len());
        let t = self.instance;
        let n_lanes = self.shards.len();
        let mut pool = self.lock_probe_pool();
        let ProbePool {
            plans,
            lanes,
            lane_of,
            tasks,
            chunk_sets,
            cursors,
        } = &mut *pool;
        plans.clear();
        plans.reserve(batch.len());
        reset_lanes(lanes, n_lanes);
        lane_of.clear();
        lane_of.reserve(batch.len());

        // Pass 1 (serial): binding resolution + hash + routing decision
        // per probe, all from one computation. A fanned-out probe still
        // carries its binding to every shard for the shard's own index
        // descent.
        let mut links: SpanLinks = Vec::new();
        for (i, tuple) in batch.iter().enumerate() {
            let plan = self.probe_plan(&mut links, tuple, query);
            let lane = self.probe_lane(&plan.1);
            match lane {
                Some(l) => lanes[l].push(i),
                None => lanes.iter_mut().for_each(|lane| lane.push(i)),
            }
            lane_of.push(lane);
            plans.push(plan);
        }
        let env = ProbeEnvelope {
            batch,
            states,
            query,
            links: &links,
            plans,
        };

        // Pass 2: cut lanes into dispatch chunks and run them, on the
        // pool when the envelope is large enough. A keyed-skewed envelope
        // (every probe hashing to one shard) yields chunks that spread
        // across the worker budget instead of serializing behind one
        // lane, so — unlike the build fan-out — probe parallelism does
        // not require more than one busy lane.
        let work: usize = lanes.iter().map(Vec::len).sum();
        let parallel = work >= self.parallel_min_rows && self.workers > 1 && work > 1;
        let chunk_target = if parallel {
            work.div_ceil(self.workers).max(1)
        } else {
            usize::MAX
        };
        tasks.clear();
        cursors.clear();
        for (lane_i, lane) in lanes.iter().enumerate() {
            // The merge pass starts each lane at its first chunk.
            cursors.push(tasks.len());
            let mut start = 0;
            while start < lane.len() {
                let end = start.saturating_add(chunk_target).min(lane.len());
                tasks.push((lane_i, start, end));
                start = end;
            }
        }
        // The prober records the whole SteM's max timestamp, not one
        // shard's.
        let observed_ts = self.max_ts();
        if let [(lane_i, start, end)] = tasks[..] {
            // One chunk holds the whole envelope in batch order (one lane,
            // or every probe keyed to one shard): its replies need no
            // merge and go straight into `out`.
            let first = out.len();
            self.shards[lane_i].probe_lane_into(&env, &lanes[lane_i][start..end], out);
            out.set_observed_ts(first, observed_ts);
            return;
        }
        chunk_sets.resize_with(tasks.len().max(chunk_sets.len()), ProbeReplySet::new);
        for set in chunk_sets.iter_mut() {
            set.clear();
        }
        let chunks = tasks.iter().zip(chunk_sets.iter_mut());
        if parallel {
            let (shards, env) = (&self.shards, &env);
            WorkerPool::global().scope(self.workers, |scope| {
                for (&(lane_i, start, end), set) in chunks {
                    let (shard, chunk) = (&shards[lane_i], &lanes[lane_i][start..end]);
                    scope.spawn(lane_i, move || shard.probe_lane_into(env, chunk, set));
                }
            });
        } else {
            for (&(lane_i, start, end), set) in chunks {
                self.shards[lane_i].probe_lane_into(&env, &lanes[lane_i][start..end], set);
            }
        }

        // Pass 3 (serial): merge back into batch order. Each lane's
        // chunks hold its probes in batch order, so one task cursor per
        // lane suffices; replies move between arenas without
        // reallocating.
        for &lane_opt in lane_of.iter() {
            match lane_opt {
                Some(lane) => {
                    let meta = pull_reply(lane, tasks, cursors, chunk_sets, out);
                    out.push_meta(ReplyMeta {
                        observed_ts,
                        ..meta
                    });
                }
                None => {
                    let start = out.total_results();
                    let mut raw_matches = 0usize;
                    let mut outcome = None;
                    for lane in 0..n_lanes {
                        let meta = pull_reply(lane, tasks, cursors, chunk_sets, out);
                        raw_matches += meta.raw_matches;
                        match outcome {
                            None => outcome = Some(meta.outcome),
                            // Bounce decisions depend only on the EOT
                            // index and AM flags — equal in every shard.
                            Some(o) => debug_assert_eq!(o, meta.outcome),
                        }
                    }
                    if n_lanes > 1 {
                        // Ascending build timestamp = global insertion
                        // order, the single-shard candidate order (stored
                        // timestamps are unique). One lane is already in
                        // its store's order.
                        out.results_tail_mut(start).sort_by_key(|(tup, _)| {
                            tup.component(t).map(|c| c.ts).unwrap_or(UNBUILT_TS)
                        });
                    }
                    out.push_meta(ReplyMeta {
                        outcome: outcome.expect("at least one lane"),
                        observed_ts,
                        raw_matches,
                        len: out.total_results() - start,
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Deferred release (Grace mode)
    // ------------------------------------------------------------------

    /// Release withheld bounce-backs, clustered by hash partition (the
    /// Grace "asynchronous" bounce, §3.1). Called by the engine when the
    /// table's scan completes. The per-shard queues are merged and sorted
    /// by `(bounce partition, build timestamp)` — a stable partition sort
    /// over global build order.
    pub fn release_deferred(&mut self) -> Vec<(Tuple, TupleState)> {
        let mut all: Vec<(Tuple, TupleState)> = Vec::with_capacity(self.deferred_len());
        for shard in &mut self.shards {
            all.append(&mut shard.take_deferred());
        }
        let partitioner = &self.shards[0];
        all.sort_by_key(|(tuple, _)| {
            let row = &tuple.components()[0].row;
            (partitioner.partition_of(row), tuple.timestamp())
        });
        all
    }
}

/// Take the next unconsumed reply of `lane` out of its chunk arenas,
/// moving its results into `out` and returning its header. Chunks are
/// lane-major and each holds its probes in batch order, so advancing the
/// lane's task cursor past drained chunks walks the lane's replies in
/// exactly the order the routing pass pushed its probes.
fn pull_reply(
    lane: usize,
    tasks: &[(usize, usize, usize)],
    cursors: &mut [usize],
    chunk_sets: &mut [ProbeReplySet],
    out: &mut ProbeReplySet,
) -> ReplyMeta {
    let mut ti = cursors[lane];
    loop {
        debug_assert!(
            ti < tasks.len() && tasks[ti].0 == lane,
            "lane {lane} reply underflow"
        );
        if chunk_sets[ti].remaining() > 0 {
            cursors[lane] = ti;
            return chunk_sets[ti].take_results_into(out);
        }
        ti += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stem::{make_eot_row, make_scan_eot_row, ProbeOutcome, ProbeReply};
    use stems_catalog::{Catalog, ScanSpec, TableDef, TableInstance};
    use stems_storage::StoreKind;
    use stems_types::{CmpOp, ColRef, ColumnType, PredId, Predicate, Schema};

    /// Build one tuple as a one-member envelope.
    fn build_tuple(stem: &mut ShardedStem, tuple: Tuple) -> BuildResult {
        let mut ts = stem.max_ts();
        stem.build_batch(&TupleBatch::single(tuple), &[TupleState::new()], &mut ts)
            .pop()
            .expect("one result per member")
    }

    /// Probe one fresh tuple through the envelope path, as a scalar reply.
    fn probe_one(stem: &ShardedStem, tuple: &Tuple, q: &QuerySpec) -> ProbeReply {
        let mut set = ProbeReplySet::new();
        stem.probe_batch_into(
            std::slice::from_ref(tuple),
            &[TupleState::new()],
            q,
            &mut set,
        );
        set.into_single_reply()
    }

    /// R(key, a) ⋈ S(x, y) on R.a = S.x — S's SteM key column is 0.
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

    fn sharded(num_shards: usize, opts: StemOptions) -> ShardedStem {
        ShardedStem::new(
            TableIdx(1),
            SourceId(1),
            &[0],
            true,
            false,
            StemOptions { num_shards, ..opts },
        )
    }

    fn s_tuple(x: i64, y: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(1), vec![Value::Int(x), Value::Int(y)])
    }

    fn s_null_key(y: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(1), vec![Value::Null, Value::Int(y)])
    }

    fn r_tuple(key: i64, a: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(0), vec![Value::Int(key), Value::Int(a)])
    }

    /// Build the same mixed workload (dups, NULL keys, keyed + scan EOTs)
    /// into stems at every shard count; every observable must agree.
    fn build_workload(stem: &mut ShardedStem) -> (Vec<BuildResult>, Timestamp) {
        let mut tuples: Vec<Tuple> = Vec::new();
        for i in 0..40 {
            tuples.push(s_tuple(i % 13, i));
        }
        tuples.push(s_null_key(1));
        tuples.push(s_tuple(3, 3)); // duplicate of i=3? (3 % 13 == 3, y=3) yes
        tuples.push(s_null_key(1)); // duplicate in the overflow shard
        tuples.push(Tuple::singleton(
            TableIdx(1),
            make_eot_row(2, &[(0, Value::Int(5))]),
        ));
        let batch: TupleBatch = tuples.into_iter().collect();
        let states = vec![TupleState::new(); batch.len()];
        let mut ts = 0;
        let results = stem.build_batch(&batch, &states, &mut ts);
        (results, ts)
    }

    /// Tuple equality ignores timestamps (execution metadata), so pull
    /// the stamped build timestamps out explicitly for bit-identity
    /// comparisons.
    fn stamped_ts(results: &[BuildResult]) -> Vec<Option<Timestamp>> {
        results
            .iter()
            .map(|r| match r {
                BuildResult::Fresh(t) => Some(t.timestamp()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn build_results_match_single_shard_bit_for_bit() {
        let mut one = sharded(1, StemOptions::default());
        let (r1, ts1) = build_workload(&mut one);
        for shards in [2usize, 4, 7] {
            let mut many = sharded(shards, StemOptions::default());
            let (rn, tsn) = build_workload(&mut many);
            assert_eq!(r1, rn, "{shards} shards: BuildResults diverged");
            assert_eq!(
                stamped_ts(&r1),
                stamped_ts(&rn),
                "{shards} shards: timestamp assignment diverged"
            );
            assert_eq!(ts1, tsn, "{shards} shards: timestamp counter diverged");
            assert_eq!(one.len(), many.len());
            assert_eq!(one.max_ts(), many.max_ts());
            assert_eq!(one.build_count(), many.build_count());
            assert_eq!(one.duplicates_absorbed(), many.duplicates_absorbed());
            assert_eq!(one.eot_version(), many.eot_version());
        }
    }

    #[test]
    fn probe_replies_match_single_shard_bit_for_bit() {
        let (_c, q) = setup();
        let mut one = sharded(1, StemOptions::default());
        let mut four = sharded(4, StemOptions::default());
        build_workload(&mut one);
        build_workload(&mut four);
        // Keyed probes (single-lane fast path), incl. a missing key and a
        // NULL key; probe after all builds so the TimeStamp rule passes.
        for probe_key in [0i64, 3, 5, 12, 99] {
            let r = r_tuple(1, probe_key).with_timestamp(TableIdx(0), 1_000);
            let p1 = probe_one(&one, &r, &q);
            let p4 = probe_one(&four, &r, &q);
            assert_eq!(p1.results, p4.results, "key {probe_key}");
            let match_ts = |p: &ProbeReply| -> Vec<Timestamp> {
                p.results
                    .iter()
                    .map(|(t, _)| t.component(TableIdx(1)).unwrap().ts)
                    .collect()
            };
            assert_eq!(match_ts(&p1), match_ts(&p4), "key {probe_key}");
            assert_eq!(p1.outcome, p4.outcome, "key {probe_key}");
            assert_eq!(p1.observed_ts, p4.observed_ts, "key {probe_key}");
            assert_eq!(p1.raw_matches, p4.raw_matches, "key {probe_key}");
        }
        // NULL probe key: routed to the overflow lane, matches nothing
        // (SQL equality), same bounce as unsharded.
        let rn = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Null])
            .with_timestamp(TableIdx(0), 1_000);
        let p1 = probe_one(&one, &rn, &q);
        let p4 = probe_one(&four, &rn, &q);
        assert!(p4.results.is_empty());
        assert_eq!(p1.outcome, p4.outcome);
    }

    #[test]
    fn cartesian_probe_merges_in_global_insertion_order() {
        let (c, q) = setup();
        let q = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let mut one = sharded(1, StemOptions::default());
        let mut four = sharded(4, StemOptions::default());
        build_workload(&mut one);
        build_workload(&mut four);
        let r = r_tuple(1, 999).with_timestamp(TableIdx(0), 1_000);
        let p1 = probe_one(&one, &r, &q);
        let p4 = probe_one(&four, &r, &q);
        assert!(!p4.results.is_empty());
        // Bit-identical: same results in the same (insertion) order.
        assert_eq!(p1.results, p4.results);
        assert_eq!(p1.raw_matches, p4.raw_matches);
        // And the order really is ascending build timestamp.
        let ts: Vec<Timestamp> = p4
            .results
            .iter()
            .map(|(t, _)| t.component(TableIdx(1)).unwrap().ts)
            .collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    /// Satellite fix: reported memory must equal the sum of the shard
    /// stores plus the overflow lane — not one shard's view.
    #[test]
    fn approx_bytes_and_deferred_len_aggregate_across_shards() {
        let mut stem = sharded(4, StemOptions::default());
        build_workload(&mut stem);
        let per_shard = stem.shard_bytes();
        assert_eq!(per_shard.len(), 5, "4 keyed shards + overflow lane");
        assert!(
            per_shard.iter().filter(|b| **b > 0).count() >= 2,
            "workload must actually spread across shards: {per_shard:?}"
        );
        assert_eq!(
            stem.approx_bytes(),
            per_shard.iter().sum::<usize>(),
            "approx_bytes must be the sum of shard stores + overflow lane"
        );
        // The overflow lane holds the NULL-keyed row and is counted.
        assert_eq!(*stem.shard_lens().last().unwrap(), 1);

        // Deferred queues aggregate the same way.
        let opts = StemOptions {
            deferred_bounce: true,
            partitions: 4,
            ..StemOptions::default()
        };
        let mut one = sharded(1, opts.clone());
        let mut four = sharded(4, opts);
        let batch: TupleBatch = (0..20).map(|i| s_tuple(i, i)).collect();
        let states = vec![TupleState::new(); batch.len()];
        let (mut t1, mut t4) = (0, 0);
        one.build_batch(&batch, &states, &mut t1);
        four.build_batch(&batch, &states, &mut t4);
        assert_eq!(one.deferred_len(), 20);
        assert_eq!(four.deferred_len(), 20, "deferred_len must sum shards");
        // Clustered release order is identical to the unsharded engine's.
        let r1: Vec<Tuple> = one.release_deferred().into_iter().map(|(t, _)| t).collect();
        let r4: Vec<Tuple> = four
            .release_deferred()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(r1, r4);
        assert_eq!(four.deferred_len(), 0);
    }

    #[test]
    fn eot_broadcast_keeps_coverage_and_versioning_global() {
        let (_c, q) = setup();
        let mut stem = ShardedStem::new(
            TableIdx(1),
            SourceId(1),
            &[0],
            false,
            true,
            StemOptions {
                num_shards: 4,
                ..StemOptions::default()
            },
        );
        // Keyed EOT for x=10 covers only matching probes.
        build_tuple(
            &mut stem,
            Tuple::singleton(TableIdx(1), make_eot_row(2, &[(0, Value::Int(10))])),
        );
        assert_eq!(stem.eot_version(), 1);
        let covered = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        assert_eq!(
            probe_one(&stem, &covered, &q).outcome,
            ProbeOutcome::Consumed
        );
        let uncovered = r_tuple(2, 20).with_timestamp(TableIdx(0), 2);
        assert!(matches!(
            probe_one(&stem, &uncovered, &q).outcome,
            ProbeOutcome::Bounced(_)
        ));
        // Scan EOT covers everything, from any shard's perspective.
        build_tuple(
            &mut stem,
            Tuple::singleton(TableIdx(1), make_scan_eot_row(2)),
        );
        assert!(stem.scan_complete());
        assert_eq!(stem.eot_version(), 2);
        assert_eq!(
            probe_one(&stem, &uncovered, &q).outcome,
            ProbeOutcome::Consumed
        );
    }

    #[test]
    fn windowed_sharded_stem_sweeps_global_fifo() {
        let opts = StemOptions {
            eviction_window: Some(3),
            ..StemOptions::default()
        };
        let mut one = sharded(1, opts.clone());
        let mut four = sharded(4, opts);
        let mut ts1 = 0;
        let mut ts4 = 0;
        // Interleave duplicates and evicted re-arrivals; both engines must
        // agree on every BuildResult and every aggregate, batch by batch.
        for round in 0..6i64 {
            let batch: TupleBatch = (0..7)
                .map(|i| {
                    let k = (round * 3 + i) % 10;
                    s_tuple(k, k)
                })
                .collect();
            let states = vec![TupleState::new(); batch.len()];
            let r1 = one.build_batch(&batch, &states, &mut ts1);
            let r4 = four.build_batch(&batch, &states, &mut ts4);
            assert_eq!(r1, r4, "round {round}");
            assert_eq!(ts1, ts4, "round {round}");
            assert_eq!(one.len(), four.len(), "round {round}");
            assert!(four.len() <= 3, "window overrun");
            assert_eq!(one.evictions(), four.evictions(), "round {round}");
        }
        assert!(four.evictions() > 0);
    }

    /// Probe a batch into a fresh arena and flatten it into comparable
    /// per-reply views.
    #[allow(clippy::type_complexity)]
    fn probe_flat(
        stem: &ShardedStem,
        probes: &TupleBatch,
        states: &[TupleState],
        q: &QuerySpec,
    ) -> Vec<(ReplyMeta, Vec<(Tuple, stems_types::PredSet)>)> {
        let mut set = ProbeReplySet::new();
        stem.probe_batch_into(probes.as_slice(), states, q, &mut set);
        set.iter().map(|(m, r)| (*m, r.to_vec())).collect()
    }

    #[test]
    fn parallel_threshold_path_matches_serial_path() {
        // A batch big enough to cross the dispatch threshold: the pooled
        // fan-out must produce exactly what the serial fan-out produces.
        let (_c, q) = setup();
        let rows = crate::runtime::DEFAULT_PARALLEL_MIN_ROWS * 2;
        let batch: TupleBatch = (0..rows as i64).map(|i| s_tuple(i % 101, i)).collect();
        let states = vec![TupleState::new(); batch.len()];
        let mut one = sharded(1, StemOptions::default());
        let mut four = sharded(4, StemOptions::default());
        let (mut t1, mut t4) = (0, 0);
        let r1 = one.build_batch(&batch, &states, &mut t1);
        let r4 = four.build_batch(&batch, &states, &mut t4);
        assert_eq!(r1, r4);
        assert!(
            four.shard_lens()[..4].iter().all(|l| *l > 0),
            "a large keyed workload must populate every shard: {:?}",
            four.shard_lens()
        );
        // Large probe envelope (keyed): parallel path, identical replies.
        let probes: TupleBatch = (0..rows as i64)
            .map(|i| r_tuple(i, i % 101).with_timestamp(TableIdx(0), 1_000_000))
            .collect();
        let pstates = vec![TupleState::new(); probes.len()];
        let p1 = probe_flat(&one, &probes, &pstates, &q);
        let p4 = probe_flat(&four, &probes, &pstates, &q);
        assert_eq!(p1, p4);
    }

    #[test]
    fn worker_count_is_invariant_for_pooled_fanouts() {
        // Same workload at worker budgets {1, 2, 4, 8} (threshold forced
        // to 1 so every envelope dispatches): builds and probe replies
        // must be bit-identical — the pool decides the schedule, never
        // the result.
        let (_c, q) = setup();
        let rows = 600i64;
        let batch: TupleBatch = (0..rows).map(|i| s_tuple(i % 37, i)).collect();
        let states = vec![TupleState::new(); batch.len()];
        let probes: TupleBatch = (0..rows)
            .map(|i| r_tuple(i, i % 37).with_timestamp(TableIdx(0), 1_000_000))
            .collect();
        let pstates = vec![TupleState::new(); probes.len()];
        let at_workers = |w: usize| {
            let mut stem = sharded(
                4,
                StemOptions {
                    workers: Some(w),
                    parallel_min_rows: Some(1),
                    ..StemOptions::default()
                },
            );
            let mut ts = 0;
            let builds = stem.build_batch(&batch, &states, &mut ts);
            let replies = probe_flat(&stem, &probes, &pstates, &q);
            let stamps = stamped_ts(&builds);
            (builds, stamps, ts, replies)
        };
        let base = at_workers(1);
        for w in [2usize, 4, 8] {
            assert_eq!(base, at_workers(w), "workers={w} diverged");
        }
    }

    #[test]
    fn skewed_single_lane_chunks_match_serial() {
        // Every probe keyed to ONE value: a single hot lane. The chunked
        // dispatch must split it across workers and still merge replies
        // bit-identically to the serial single-chunk path.
        let (_c, q) = setup();
        let mut stem = sharded(
            4,
            StemOptions {
                workers: Some(4),
                parallel_min_rows: Some(1),
                ..StemOptions::default()
            },
        );
        let mut serial = sharded(
            4,
            StemOptions {
                workers: Some(1),
                ..StemOptions::default()
            },
        );
        let batch: TupleBatch = (0..200i64).map(|i| s_tuple(7, i)).collect();
        let states = vec![TupleState::new(); batch.len()];
        let (mut t1, mut t2) = (0, 0);
        stem.build_batch(&batch, &states, &mut t1);
        serial.build_batch(&batch, &states, &mut t2);
        let probes: TupleBatch = (0..300i64)
            .map(|i| r_tuple(i, 7).with_timestamp(TableIdx(0), 1_000_000))
            .collect();
        let pstates = vec![TupleState::new(); probes.len()];
        let chunked = probe_flat(&stem, &probes, &pstates, &q);
        let unchunked = probe_flat(&serial, &probes, &pstates, &q);
        assert_eq!(chunked, unchunked);
        // Every probe really matched the whole hot lane.
        assert!(chunked
            .iter()
            .all(|(m, r)| m.raw_matches == 200 && r.len() == 200));
    }

    #[test]
    fn parallel_service_units_take_the_busiest_shard() {
        let (c, q) = setup();
        let mut one = sharded(1, StemOptions::default());
        let mut four = sharded(4, StemOptions::default());
        let batch: TupleBatch = (0..40).map(|i| s_tuple(i, i)).collect();
        let states = vec![TupleState::new(); batch.len()];

        // Unsharded: a serial server — units are the whole envelope.
        assert_eq!(one.parallel_service_units(&batch, &q, false), 40);

        // Sharded build: units equal the busiest shard's load.
        let build_units = four.parallel_service_units(&batch, &q, false);
        let (mut t1, mut t4) = (0, 0);
        one.build_batch(&batch, &states, &mut t1);
        four.build_batch(&batch, &states, &mut t4);
        let max_lane = *four.shard_lens().iter().max().unwrap() as u64;
        assert_eq!(build_units, max_lane);
        assert!(build_units < 40, "distinct keys must spread across shards");

        // Keyed probes spread the same way …
        let probes: TupleBatch = (0..40)
            .map(|i| r_tuple(i, i).with_timestamp(TableIdx(0), 1_000))
            .collect();
        let probe_units = four.parallel_service_units(&probes, &q, true);
        assert!(probe_units < 40);
        assert_eq!(one.parallel_service_units(&probes, &q, true), 40);

        // … but fan-out probes (no equi binding) load every shard fully.
        let qx = QuerySpec::new(&c, q.tables.clone(), vec![], None).unwrap();
        assert_eq!(four.parallel_service_units(&probes, &qx, true), 40);
    }

    #[test]
    fn store_kinds_shard_consistently() {
        // The sharding layer composes with every insertion-ordered
        // backend; result multisets (and for these backends, order) match
        // the single shard.
        let (_c, q) = setup();
        for store in [
            StoreKind::List,
            StoreKind::Hash,
            StoreKind::Adaptive { threshold: 4 },
        ] {
            let opts = StemOptions {
                store: store.clone(),
                ..StemOptions::default()
            };
            let mut one = sharded(1, opts.clone());
            let mut four = sharded(4, opts);
            build_workload(&mut one);
            build_workload(&mut four);
            let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 1_000);
            let p1 = probe_one(&one, &r, &q);
            let p4 = probe_one(&four, &r, &q);
            assert_eq!(p1.results, p4.results, "{store:?}");
        }
    }

    /// A mixed-type key pool: ints, integral and fractional floats,
    /// strings, bools and NULL (every equality-normalization edge a
    /// stored row can carry).
    fn random_key(rng: &mut stems_sim::SimRng) -> Value {
        match rng.below(7) {
            0 | 1 => Value::Int(rng.range_inclusive(0, 12)),
            2 => Value::Float(rng.range_inclusive(0, 12) as f64), // coerces to Int
            3 => Value::Float(rng.range_inclusive(0, 12) as f64 + 0.5),
            4 => Value::str(["a", "b", "cc", "ddd"][rng.below(4) as usize]),
            5 => Value::Bool(rng.below(2) == 0),
            _ => Value::Null,
        }
    }

    /// A reply's results with the build timestamp of S's component —
    /// tuple equality ignores timestamps, so order and stamps are compared
    /// through this view.
    fn stamped_results(
        results: &[(Tuple, stems_types::PredSet)],
    ) -> Vec<(Timestamp, Tuple, stems_types::PredSet)> {
        results
            .iter()
            .map(|(t, done)| (t.component(TableIdx(1)).unwrap().ts, t.clone(), *done))
            .collect()
    }

    /// The envelope probe path at shard counts {1, 4} must agree with the
    /// scalar reference [`Stem::probe`] of the one-shard SteM, reply for
    /// reply — results, order, stamps, outcome, observed_ts, raw_matches —
    /// on every backend and on mixed envelopes of keyed, NULL-keyed,
    /// coercing and unbindable probes. Results compare as multisets only
    /// for the Sorted backend at more than one shard: it orders candidates
    /// by value, while the fan-out merge orders them by build timestamp.
    #[test]
    fn probe_batch_replies_equal_scalar_probe_replies() {
        let mut c = Catalog::new();
        let r = c
            .add_table(TableDef::new(
                "R",
                Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Float)]),
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
        let tables = vec![
            TableInstance {
                source: r,
                alias: "r".into(),
            },
            TableInstance {
                source: s,
                alias: "s".into(),
            },
        ];
        let keyed = QuerySpec::new(
            &c,
            tables.clone(),
            vec![Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            )],
            None,
        )
        .unwrap();
        let cartesian = QuerySpec::new(&c, tables, vec![], None).unwrap();
        let kinds = [
            StoreKind::List,
            StoreKind::Hash,
            StoreKind::Adaptive { threshold: 16 },
            StoreKind::Partitioned {
                partitions: 4,
                mem_resident: 1,
            },
            StoreKind::Sorted,
        ];

        for seed in 0..24u64 {
            let mut rng = stems_sim::SimRng::new(0x9B0B ^ seed);
            let rows: TupleBatch = (0..rng.below(60))
                .map(|_| {
                    let y = Value::Int(rng.range_inclusive(0, 5));
                    Tuple::singleton_of(TableIdx(1), vec![random_key(&mut rng), y])
                })
                .collect();
            let states = vec![TupleState::new(); rows.len()];
            let probes: Vec<(Vec<Tuple>, &QuerySpec, &str)> =
                [(&keyed, "keyed"), (&cartesian, "scan")]
                    .into_iter()
                    .map(|(q, label)| {
                        let n = rng.below(40) + 1;
                        let batch = (0..n)
                            .map(|k| {
                                let a = match rng.below(8) {
                                    7 => Value::Eot,
                                    _ => random_key(&mut rng),
                                };
                                Tuple::singleton_of(TableIdx(0), vec![Value::Int(k as i64), a])
                                    .with_timestamp(TableIdx(0), 1_000 + k)
                            })
                            .collect();
                        (batch, q, label)
                    })
                    .collect();
            for kind in &kinds {
                let opts = |num_shards| StemOptions {
                    store: kind.clone(),
                    num_shards,
                    ..StemOptions::default()
                };
                let mut oracle = sharded(1, opts(1));
                oracle.build_batch(&rows, &states, &mut 0);
                for shards in [1usize, 4] {
                    let mut stem = sharded(shards, opts(shards));
                    stem.build_batch(&rows, &states, &mut 0);
                    let multiset = matches!(kind, StoreKind::Sorted) && shards > 1;
                    for (batch, q, label) in &probes {
                        let ctx = format!("seed {seed} {kind:?} {shards} shards {label}");
                        let pstates = vec![TupleState::new(); batch.len()];
                        let mut replies = ProbeReplySet::new();
                        stem.probe_batch_into(batch, &pstates, q, &mut replies);
                        assert_eq!(replies.len(), batch.len(), "{ctx}");
                        for ((tuple, state), (meta, results)) in
                            batch.iter().zip(&pstates).zip(replies.iter())
                        {
                            let want = oracle.shards()[0].probe(tuple, state, q);
                            let (mut want_rs, mut got_rs) =
                                (stamped_results(&want.results), stamped_results(results));
                            if multiset {
                                want_rs.sort_by_key(|r| r.0);
                                got_rs.sort_by_key(|r| r.0);
                            }
                            assert_eq!(want_rs, got_rs, "{ctx}: {tuple}");
                            assert_eq!(want.outcome, meta.outcome, "{ctx}: {tuple}");
                            assert_eq!(want.observed_ts, meta.observed_ts, "{ctx}: {tuple}");
                            assert_eq!(want.raw_matches, meta.raw_matches, "{ctx}: {tuple}");
                        }
                    }
                }
            }
        }
    }
}
