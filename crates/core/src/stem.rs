//! The State Module — a "half join" (paper §2.1.4).
//!
//! A [`Stem`] is the dictionary of one shard of a SteM: singleton tuples
//! from one table instance, plus the per-shard bookkeeping that the
//! dictionary's contents decide:
//!
//! * **ingest** — insert with set-semantics duplicate absorption (§3.2);
//!   the build timestamp (§3.1) is stamped in a second, globally ordered
//!   pass, which also takes the bounce/defer decision. EOT tuples are
//!   recorded in an EOT index that tracks which probes the SteM can
//!   answer *completely*;
//! * **probe** — find matches, concatenate, filter by the TimeStamp and
//!   LastMatchTimeStamp rules, and decide whether to bounce the probe back
//!   (SteM BounceBack, Table 2 + §3.3/§4.1). [`Stem::probe`] is the scalar
//!   reference; the envelope pipeline answers a lane of probes at once;
//! * **deferred bounce-backs** — the §3.1 "asynchronous hash index" trick
//!   that makes routing simulate a Grace hash join: build acknowledgements
//!   are withheld in a per-shard queue.
//!
//! What spans shards lives one layer up, in
//! [`crate::sharded::ShardedStem`], at every shard count: routing rows and
//! probes to shards, the optional FIFO eviction window (the CACQ/PSoup
//! extension for unbounded streams, §2.3, §6), the clustered release of
//! deferred bounce-backs, and the probe fan-out and merge.

use crate::sync::{Arc, ScratchPool};
use crate::tuple_state::{CompletionNeed, TupleState};
use stems_catalog::{QuerySpec, SourceId};
use stems_storage::fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
use stems_storage::{index_key, CandidateBuf, DictStore, RowSet, StoreKind};
use stems_types::{
    HashedKey, PredSet, Row, TableIdx, TableSet, Timestamp, Tuple, Value, UNBUILT_TS,
};

/// A probe tuple's equality binding, resolved and hashed exactly once at
/// the envelope boundary: the bound store column plus the annotated key.
/// `None` means the probe binds nothing and must scan.
pub(crate) type ProbeBinding = Option<(usize, HashedKey)>;

/// Linking predicates per distinct probe span of one envelope (see
/// [`linking_for`]).
pub(crate) type SpanLinks<'q> = Vec<(TableSet, Vec<&'q stems_types::Predicate>)>;

/// One probe envelope as the shard layer hands it to every shard it
/// reaches: the caller's tuples and states, the envelope's span cache, and
/// per tuple its span's index in that cache plus its equality binding —
/// resolved and hashed once by
/// [`crate::sharded::ShardedStem::probe_batch_into`]. A shard reads the
/// members its lane names by index; nothing is copied.
pub(crate) struct ProbeEnvelope<'a, 'q> {
    pub(crate) batch: &'a [Tuple],
    pub(crate) states: &'a [TupleState],
    pub(crate) query: &'q QuerySpec,
    pub(crate) links: &'a SpanLinks<'q>,
    pub(crate) plans: &'a [(usize, ProbeBinding)],
}

/// Cap on the scratch free-list: a concurrency burst may check out many
/// scratches at once, but only this many are kept when they come back —
/// the rest are dropped so the pool's footprint tracks steady-state
/// concurrency, not the historical high-water mark.
const MAX_POOLED_SCRATCH: usize = 8;

/// Reusable per-shard probe scratch. Everything the probe pipeline
/// materializes per lane — key groups, flat candidate arenas, plans —
/// lives here and keeps its capacity across envelopes, so steady-state
/// probing allocates nothing. Kept in a mutexed free-list on the shard
/// because probes run through `&self` and the shard layer may split one
/// shard's probe lane into chunks serviced concurrently by several pool
/// workers ([`crate::runtime::WorkerPool`]): each chunk checks a scratch
/// out and returns it after, so the lock is taken twice per chunk, never
/// per tuple, and concurrent chunks never serialize on a shared buffer.
#[derive(Debug, Default)]
struct ProbeScratch {
    /// Distinct probe columns of the current lane.
    cols: Vec<usize>,
    /// Key list per column slot (capacity pooled across envelopes).
    keys: Vec<Vec<HashedKey>>,
    /// Flat candidate arena per column slot.
    bufs: Vec<CandidateBuf>,
    /// Per lane member: optional (column slot, key slot).
    plans: Vec<Option<(usize, usize)>>,
}

/// Configuration of one SteM.
#[derive(Debug, Clone, PartialEq)]
pub struct StemOptions {
    /// Dictionary backend.
    pub store: StoreKind,
    /// FIFO eviction window (None = unbounded, the paper's default for
    /// snapshot queries).
    pub eviction_window: Option<usize>,
    /// Withhold build bounce-backs until the table's scan completes, then
    /// release them clustered by hash partition (§3.1 Grace simulation).
    pub deferred_bounce: bool,
    /// Partition fan-out used to cluster deferred bounce-backs, and how
    /// many of those partitions bounce immediately ("memory-resident",
    /// yielding Hybrid-Hash, §3.1).
    pub partitions: usize,
    pub mem_partitions: usize,
    /// Hash-partition shard fan-out of the SteM's dictionary
    /// ([`crate::sharded::ShardedStem`]). Every value runs the same build,
    /// window, release and probe path; `1` (the default) keeps the whole
    /// dictionary in one shard, larger values split it by join-key hash
    /// (plus an overflow shard for un-hashable keys) so build/probe
    /// envelopes parallelize across threads. A [`Stem`] is one shard.
    pub num_shards: usize,
    /// Worker-pool budget for this SteM's sharded envelope fan-outs.
    /// `None` (the default) inherits `ExecConfig::workers` (and thus
    /// `STEMS_WORKERS` / host parallelism); `Some(n)` pins this SteM's
    /// budget — interpreted by `ShardedStem`.
    pub workers: Option<usize>,
    /// Minimum routed rows in one envelope before the sharded fan-out
    /// dispatches to the worker pool. `None` (the default) inherits
    /// `ExecConfig::parallel_min_rows` (and thus
    /// `STEMS_PARALLEL_MIN_ROWS` /
    /// [`crate::runtime::DEFAULT_PARALLEL_MIN_ROWS`]).
    pub parallel_min_rows: Option<usize>,
}

impl Default for StemOptions {
    fn default() -> Self {
        StemOptions {
            store: StoreKind::Hash,
            eviction_window: None,
            deferred_bounce: false,
            partitions: 8,
            mem_partitions: 0,
            num_shards: 1,
            workers: None,
            parallel_min_rows: None,
        }
    }
}

/// Result of building a tuple into a SteM.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildResult {
    /// Inserted; the returned tuple carries its new build timestamp and
    /// must be bounced back to the eddy ("so that \[it\] can probe the other
    /// SteMs", Table 2).
    Fresh(Tuple),
    /// Inserted, but the bounce-back is withheld for clustered release
    /// (Grace mode). The engine gets it later from
    /// [`ShardedStem::release_deferred`](crate::sharded::ShardedStem::release_deferred).
    Deferred,
    /// Absorbed as a set-semantics duplicate (§3.2) — removed from the
    /// dataflow.
    Duplicate,
    /// An EOT tuple; recorded in the EOT index and absorbed.
    Eot,
}

/// Whether a probed tuple is bounced back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// All matches were returned; the probe tuple leaves the SteM's
    /// responsibility ("never bounce back probe tuples" in the
    /// fully-covered case).
    Consumed,
    /// Bounced back per SteM BounceBack; the tuple becomes a prior prober
    /// for this table (Definition 3).
    Bounced(CompletionNeed),
}

/// Everything a probe produces.
#[derive(Debug)]
pub struct ProbeReply {
    /// Concatenated results with their updated donebits.
    pub results: Vec<(Tuple, PredSet)>,
    pub outcome: ProbeOutcome,
    /// The SteM's max build timestamp at probe time — recorded into the
    /// prober's LastMatchTimeStamp when bounced (§3.5).
    pub observed_ts: Timestamp,
    /// Matches found (before timestamp filtering) — policy feedback.
    pub raw_matches: usize,
}

/// Header of one probe reply stored flat in a [`ProbeReplySet`] arena:
/// everything a [`ProbeReply`] carries except the result tuples, which
/// live contiguously in the arena ( `len` of them per reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyMeta {
    pub outcome: ProbeOutcome,
    /// The SteM's max build timestamp at probe time (§3.5).
    pub observed_ts: Timestamp,
    /// Matches found before timestamp filtering — policy feedback.
    pub raw_matches: usize,
    /// Result tuples this reply wrote into the arena.
    pub len: usize,
}

/// Envelope-lifetime probe-reply arena: all replies of one probe envelope,
/// stored as one flat `(tuple, donebits)` vector plus one [`ReplyMeta`]
/// header per probe tuple, in batch order. Callers own the set and reuse
/// it across envelopes, so the steady-state reply path performs **zero
/// per-tuple heap allocations** — the per-reply `Vec`s the old
/// `Vec<ProbeReply>` API materialized are gone (`tests/alloc_probe.rs`
/// pins this with a counting allocator). The sharded merge additionally
/// moves replies *between* sets without reallocating.
#[derive(Debug, Default)]
pub struct ProbeReplySet {
    /// Flat result arena: each reply's results are contiguous.
    results: Vec<(Tuple, PredSet)>,
    /// One header per probe tuple, batch order.
    metas: Vec<ReplyMeta>,
    /// Consumption cursors for [`ProbeReplySet::take_results_into`].
    meta_cursor: usize,
    result_cursor: usize,
}

impl ProbeReplySet {
    pub fn new() -> ProbeReplySet {
        ProbeReplySet::default()
    }

    /// Drop contents, keep capacity (arena reuse across envelopes).
    pub fn clear(&mut self) {
        self.results.clear();
        self.metas.clear();
        self.meta_cursor = 0;
        self.result_cursor = 0;
    }

    /// Number of replies (== probe tuples of the envelope).
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Total result tuples across all replies.
    pub fn total_results(&self) -> usize {
        self.results.len()
    }

    /// Walk the replies in batch order as `(header, results)` views.
    pub fn iter(&self) -> impl Iterator<Item = (&ReplyMeta, &[(Tuple, PredSet)])> {
        let mut off = 0usize;
        self.metas.iter().map(move |m| {
            let slice = &self.results[off..off + m.len];
            off += m.len;
            (m, slice)
        })
    }

    /// Split-borrow accessor for owning consumption: the headers plus a
    /// draining iterator over the flat results (the engine walks the
    /// headers and takes `meta.len` results for each; dropping the drain
    /// keeps the arena's capacity).
    pub fn metas_and_results(&mut self) -> (&[ReplyMeta], std::vec::Drain<'_, (Tuple, PredSet)>) {
        self.meta_cursor = 0;
        self.result_cursor = 0;
        (&self.metas, self.results.drain(..))
    }

    /// Move the next unconsumed reply's *results* into `out`'s arena
    /// (no header is pushed — the caller merges headers itself, e.g. the
    /// sharded fan-out combines several per-lane replies into one) and
    /// return its header. Moved-from slots are left as empty placeholder
    /// tuples; no allocation happens in either set beyond `out`'s arena
    /// growth, which amortizes to zero across reused envelopes.
    pub(crate) fn take_results_into(&mut self, out: &mut ProbeReplySet) -> ReplyMeta {
        let meta = self.metas[self.meta_cursor];
        self.meta_cursor += 1;
        let start = self.result_cursor;
        for slot in &mut self.results[start..start + meta.len] {
            out.results
                .push(std::mem::replace(slot, (Tuple::empty(), PredSet::EMPTY)));
        }
        self.result_cursor = start + meta.len;
        meta
    }

    /// Append a reply header (sharded merge tail; results were already
    /// appended via [`ProbeReplySet::take_results_into`]).
    pub(crate) fn push_meta(&mut self, meta: ReplyMeta) {
        self.metas.push(meta);
    }

    /// Replies not yet consumed by [`ProbeReplySet::take_results_into`].
    pub(crate) fn remaining(&self) -> usize {
        self.metas.len() - self.meta_cursor
    }

    /// Overwrite the observed timestamp of every reply from index `from`
    /// on (the shard layer reports the whole SteM's max build timestamp).
    pub(crate) fn set_observed_ts(&mut self, from: usize, ts: Timestamp) {
        for meta in &mut self.metas[from..] {
            meta.observed_ts = ts;
        }
    }

    /// Mutable tail of the result arena from `start` — the sharded
    /// fan-out merge sorts a freshly merged reply's results in place.
    pub(crate) fn results_tail_mut(&mut self, start: usize) -> &mut [(Tuple, PredSet)] {
        &mut self.results[start..]
    }

    /// Convert a single-reply set into the scalar [`ProbeReply`].
    pub(crate) fn into_single_reply(mut self) -> ProbeReply {
        debug_assert_eq!(self.metas.len(), 1);
        let meta = self.metas[0];
        ProbeReply {
            results: std::mem::take(&mut self.results),
            outcome: meta.outcome,
            observed_ts: meta.observed_ts,
            raw_matches: meta.raw_matches,
        }
    }
}

/// One shard of a State Module over one table instance: the dictionary
/// plus its dedup filter, timestamp map, EOT index, deferred queue and
/// probe pipeline. The engine reaches it only through
/// [`crate::sharded::ShardedStem`], which owns every cross-shard concern.
///
/// Self-joins note: the paper shares one SteM per *source* across FROM
/// instances; we share row storage via `Arc<Row>` but keep per-instance
/// dictionaries, which preserves the memory-sharing benefit while keeping
/// the timestamp bookkeeping per instance.
pub struct Stem {
    pub instance: TableIdx,
    pub source: SourceId,
    store: Box<dyn DictStore + Send + Sync>,
    dedup: RowSet,
    ts_of: FxHashMap<Arc<Row>, Timestamp>,
    /// Scan EOT seen: the full relation is present.
    eot_full: bool,
    /// Index-probe EOTs: sorted `(col, value)` binding sets known complete.
    eot_keys: FxHashSet<Vec<(usize, Value)>>,
    /// Max build timestamp among stored tuples.
    pub max_ts: Timestamp,
    /// Builds accepted (fresh, non-EOT).
    pub build_count: u64,
    /// Duplicates absorbed (§3.2 competition bookkeeping).
    pub duplicates_absorbed: u64,
    /// Evictions performed.
    pub evictions: u64,
    pub has_scan_am: bool,
    pub has_index_am: bool,
    opts: StemOptions,
    /// Build tuples whose bounce-back is withheld (Grace mode).
    deferred: Vec<(Tuple, TupleState)>,
    /// Column used to cluster deferred bounce-backs (first join column).
    part_col: usize,
    hasher: FxBuildHasher,
    /// Free-list of envelope-lifetime probe buffers (see
    /// [`ProbeScratch`]): one per chunk probing this SteM concurrently.
    /// Boxed so checking a scratch in/out under the lock moves one
    /// pointer, not the ~20-vector struct.
    scratch: ScratchPool<Box<ProbeScratch>>,
}

impl std::fmt::Debug for Stem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stem")
            .field("instance", &self.instance)
            .field("len", &self.store.len())
            .field("backend", &self.store.backend())
            .field("eot_full", &self.eot_full)
            .field("max_ts", &self.max_ts)
            .finish()
    }
}

impl Stem {
    /// Create a SteM for `instance` of `source`, indexing `join_cols`
    /// ("one main-memory index on each column involved in a join
    /// predicate", §2.1.4).
    pub fn new(
        instance: TableIdx,
        source: SourceId,
        join_cols: &[usize],
        has_scan_am: bool,
        has_index_am: bool,
        opts: StemOptions,
    ) -> Stem {
        Stem {
            instance,
            source,
            store: opts.store.build(join_cols),
            dedup: RowSet::new(),
            ts_of: FxHashMap::default(),
            eot_full: false,
            eot_keys: FxHashSet::default(),
            max_ts: 0,
            build_count: 0,
            duplicates_absorbed: 0,
            evictions: 0,
            has_scan_am,
            has_index_am,
            opts,
            deferred: Vec::new(),
            part_col: join_cols.first().copied().unwrap_or(0),
            hasher: FxBuildHasher::default(),
            scratch: ScratchPool::new(MAX_POOLED_SCRATCH),
        }
    }

    /// Check a probe scratch out of the free-list (or grow the list).
    /// The pool recovers from poison by discarding the free-list: a
    /// prober that panicked mid-probe leaves only scratch buffers
    /// behind, and those are pure caches — a clean pool keeps every
    /// later query on a shared SteM running.
    fn acquire_scratch(&self) -> Box<ProbeScratch> {
        self.scratch.acquire()
    }

    /// Return a scratch to the free-list. The pool is capped at
    /// [`MAX_POOLED_SCRATCH`]: a burst of concurrent probers would
    /// otherwise pin its high-water-mark capacity forever, so scratches
    /// beyond the cap are simply dropped.
    fn release_scratch(&self, scratch: Box<ProbeScratch>) {
        self.scratch.release(scratch);
    }

    /// Number of scratches currently pooled (test hook for the cap).
    #[cfg(test)]
    pub(crate) fn pooled_scratches(&self) -> usize {
        self.scratch.pooled()
    }

    /// Number of stored (non-EOT) tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Has the full relation arrived (scan EOT)?
    pub fn scan_complete(&self) -> bool {
        self.eot_full
    }

    /// EOT change counter (keyed EOTs + scan completion); combined with
    /// `build_count` it forms the SteM's version for re-probe gating.
    pub fn eot_version(&self) -> u64 {
        self.eot_keys.len() as u64 + self.eot_full as u64
    }

    /// Approximate memory footprint.
    pub fn approx_bytes(&self) -> usize {
        self.store.approx_bytes() + self.dedup.approx_bytes()
    }

    /// Which dictionary backend is currently in use.
    pub fn backend(&self) -> &'static str {
        self.store.backend()
    }

    // ------------------------------------------------------------------
    // Build passes (driven by `crate::sharded::ShardedStem`)
    //
    // A build assigns global timestamps in batch order while the
    // per-shard dictionary work may run on worker threads. The split:
    // `ingest_batch` (per shard, possibly parallel — dedup + dictionary
    // insert, no timestamps) followed by `stamp_fresh` (serial, global
    // batch order — timestamping, bounce/defer decision). EOTs go to
    // `record_eot` on every shard.
    // ------------------------------------------------------------------

    /// Record an EOT row in the EOT index: a keyed EOT marks its binding
    /// set complete, a full-relation EOT the whole relation. EOTs consume
    /// no timestamp and are not stored as data.
    pub(crate) fn record_eot(&mut self, row: &Row) {
        match eot_bindings(row) {
            Some(bindings) => {
                self.eot_keys.insert(bindings);
            }
            None => self.eot_full = true,
        }
    }

    /// Pass 1 of a build: set-semantics dedup plus the dictionary insert
    /// for the (non-EOT) data rows of `batch` that `lane` names, in lane
    /// order. Writes one flag per lane member into `fresh`: `true` for a
    /// fresh insert, `false` for an absorbed duplicate (the
    /// `duplicates_absorbed` counter is bumped here).
    pub(crate) fn ingest_batch(&mut self, batch: &[Tuple], lane: &[usize], fresh: &mut Vec<bool>) {
        fresh.clear();
        for &i in lane {
            let row = &batch[i].components()[0].row;
            debug_assert!(!row.is_eot(), "EOT rows are recorded, not ingested");
            let is_fresh = self.dedup.insert(row.clone());
            if is_fresh {
                self.store.insert(row.clone());
            } else {
                self.duplicates_absorbed += 1;
            }
            fresh.push(is_fresh);
        }
    }

    /// Pass 2 of a build: stamp one row `ingest_batch` reported fresh with
    /// its globally-ordered timestamp and take the bounce/defer decision.
    pub(crate) fn stamp_fresh(
        &mut self,
        tuple: &Tuple,
        state: &TupleState,
        ts: Timestamp,
    ) -> BuildResult {
        debug_assert!(tuple.is_singleton(), "SteMs store singleton tuples only");
        debug_assert_eq!(
            tuple.components()[0].table,
            self.instance,
            "build routed to wrong SteM"
        );
        let row = &tuple.components()[0].row;
        self.ts_of.insert(row.clone(), ts);
        self.max_ts = self.max_ts.max(ts);
        self.build_count += 1;
        let stamped = tuple.with_timestamp(self.instance, ts);
        if self.opts.deferred_bounce && !self.partition_is_resident(row) {
            self.deferred.push((stamped, state.clone()));
            BuildResult::Deferred
        } else {
            BuildResult::Fresh(stamped)
        }
    }

    /// One FIFO eviction step: forget the oldest stored row in the store,
    /// the dedup filter and the timestamp map together.
    /// [`crate::sharded::ShardedStem`] runs the FIFO window across shards
    /// with it (the globally oldest row is the one with the minimum
    /// [`Stem::oldest_ts`]).
    pub(crate) fn evict_oldest(&mut self) -> bool {
        if let Some(old) = self.store.oldest() {
            self.store.remove(&old);
            self.dedup.forget(&old);
            self.ts_of.remove(&old);
            self.evictions += 1;
            true
        } else {
            false
        }
    }

    /// Build timestamp of the oldest stored row (`None` when empty) — the
    /// cross-shard FIFO ordering key of the window.
    pub(crate) fn oldest_ts(&self) -> Option<Timestamp> {
        self.store
            .oldest()
            .map(|r| *self.ts_of.get(&r).unwrap_or(&UNBUILT_TS))
    }

    fn partition_is_resident(&self, row: &Row) -> bool {
        if self.opts.mem_partitions == 0 {
            return false;
        }
        self.partition_of(row) < self.opts.mem_partitions
    }

    /// The deferred-bounce partition of a row (hash of the first join
    /// column modulo [`StemOptions::partitions`]) — the clustering key of
    /// the Grace release.
    pub(crate) fn partition_of(&self, row: &Row) -> usize {
        use std::hash::BuildHasher;
        let key = row.get(self.part_col).cloned().unwrap_or(Value::Null);
        (self.hasher.hash_one(&key) % self.opts.partitions.max(1) as u64) as usize
    }

    /// How many bounce-backs are currently withheld.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Drain the withheld bounce-backs in build order;
    /// [`crate::sharded::ShardedStem::release_deferred`] merges every
    /// shard's queue and clusters the union.
    pub(crate) fn take_deferred(&mut self) -> Vec<(Tuple, TupleState)> {
        std::mem::take(&mut self.deferred)
    }

    /// Probe the SteM with `tuple` (spanning tables other than this
    /// instance). Returns concatenated matches passing every newly
    /// evaluable predicate and both timestamp rules, plus the bounce
    /// decision per SteM BounceBack.
    pub fn probe(&self, tuple: &Tuple, state: &TupleState, query: &QuerySpec) -> ProbeReply {
        let t = self.instance;
        let linking: Vec<&stems_types::Predicate> = query
            .preds_linking(tuple.span(), t)
            .into_iter()
            .map(|id| query.predicate(id))
            .collect();
        // Candidate fetch: use an equi predicate's hash index when we have
        // one; otherwise scan-filter.
        let candidates: Vec<Arc<Row>> = match equi_binding(&linking, tuple, t) {
            Some((col, val)) => self.store.lookup_eq(col, &val),
            None => self.store.scan(),
        };
        // Per-call recomputation of the newly evaluable set — the batched
        // path caches this per (span, done) pair; the unit suite pins the
        // two against each other.
        let result_span = tuple.span().with(t);
        let newly: Vec<&stems_types::Predicate> = query
            .predicates
            .iter()
            .filter(|p| p.evaluable_on(result_span) && !state.done.contains(p.id))
            .collect();
        let mut done_union = state.done;
        for p in &newly {
            done_union.insert(p.id);
        }
        let mut set = ProbeReplySet::default();
        self.probe_with_candidates(
            tuple,
            state,
            query,
            &linking,
            &newly,
            done_union,
            &candidates,
            &mut set,
        );
        set.into_single_reply()
    }

    /// The probe pipeline over one lane of an envelope: the members of
    /// `env` that `lane` names, in lane order, appending one reply per
    /// member to `out`. The per-tuple semantics (timestamp rules,
    /// predicate re-verification, bounce decisions) are identical to
    /// [`Stem::probe`]; the amortization is in the fetch and the reply
    /// path: keys are grouped per column and every column's keys go
    /// through a single [`DictStore::lookup_eq_flat`] index descent into
    /// a reusable arena (the keys arrive hashed, duplicate keys share one
    /// candidate span; unbindable probes share one scan snapshot), the
    /// newly-evaluable predicate set is resolved once per distinct
    /// `(result span, donebits)` pair, and results land in `out`'s flat
    /// arena instead of per-reply `Vec`s. `lane` may be any sub-slice of
    /// a routed lane: the shard layer chunks hot lanes across pool
    /// workers, each chunk probing with its own scratch and arena.
    pub(crate) fn probe_lane_into(
        &self,
        env: &ProbeEnvelope<'_, '_>,
        lane: &[usize],
        out: &mut ProbeReplySet,
    ) {
        let t = self.instance;
        let query = env.query;
        let mut scratch = self.acquire_scratch();
        let ProbeScratch {
            cols,
            keys,
            bufs,
            plans,
        } = &mut *scratch;
        cols.clear();
        plans.clear();

        // Pass 1: group the prehashed keys by column.
        for &i in lane {
            let plan = env.plans[i].1.as_ref().map(|(col, key)| {
                let ci = match cols.iter().position(|c| c == col) {
                    Some(ci) => ci,
                    None => {
                        cols.push(*col);
                        let ci = cols.len() - 1;
                        if keys.len() <= ci {
                            keys.push(Vec::new());
                            bufs.push(CandidateBuf::new());
                        }
                        keys[ci].clear();
                        ci
                    }
                };
                keys[ci].push(key.clone());
                (ci, keys[ci].len() - 1)
            });
            plans.push(plan);
        }
        // One flat descent per column: the store dedups identical keys and
        // reads the precomputed hashes, never re-hashing.
        for (ci, col) in cols.iter().enumerate() {
            self.store.lookup_eq_flat(*col, &keys[ci], &mut bufs[ci]);
        }
        // Unbindable probes share one scan snapshot for the whole lane
        // instead of cloning the materialized scan per tuple.
        let mut full_scan: Option<Vec<Arc<Row>>> = None;

        // Span-level predicate cache: `newly_evaluable` is a pure
        // function of (result span, donebits), so resolve it once per
        // distinct pair per lane instead of per tuple (envelopes are
        // usually span- and done-uniform, so this stays one entry). The
        // donebits union every surviving result carries is equally
        // uniform per pair and precomputed here.
        let mut evals: Vec<(TableSet, PredSet, Vec<&stems_types::Predicate>, PredSet)> = Vec::new();

        // Pass 2: per-tuple result formation, exactly the scalar path.
        for (&i, plan) in lane.iter().zip(plans.iter()) {
            let (tuple, state) = (&env.batch[i], &env.states[i]);
            let candidates: &[Arc<Row>] = match plan {
                Some((ci, ki)) => bufs[*ci].candidates(*ki),
                None => full_scan.get_or_insert_with(|| self.store.scan()),
            };
            let result_span = tuple.span().with(t);
            let ei = match evals
                .iter()
                .position(|(s, d, _, _)| *s == result_span && *d == state.done)
            {
                Some(ei) => ei,
                None => {
                    let newly: Vec<&stems_types::Predicate> = query
                        .predicates
                        .iter()
                        .filter(|p| p.evaluable_on(result_span) && !state.done.contains(p.id))
                        .collect();
                    let mut done_union = state.done;
                    for p in &newly {
                        done_union.insert(p.id);
                    }
                    evals.push((result_span, state.done, newly, done_union));
                    evals.len() - 1
                }
            };
            let (_, _, newly, done_union) = &evals[ei];
            self.probe_with_candidates(
                tuple,
                state,
                query,
                &env.links[env.plans[i].0].1,
                newly,
                *done_union,
                candidates,
                out,
            );
        }
        self.release_scratch(scratch);
    }

    /// Shared probe tail: filter candidates by the timestamp rules,
    /// concatenate, verify the (caller-resolved) newly evaluable
    /// predicates, decide the bounce; append one reply to `out`. The only
    /// allocations are the surviving result tuples themselves (one
    /// component vec each, via [`Tuple::concat_row`]) — `newly` comes
    /// from the span cache, `done_union` is a precomputed copy, and the
    /// results land in `out`'s arena.
    #[allow(clippy::too_many_arguments)]
    fn probe_with_candidates(
        &self,
        tuple: &Tuple,
        state: &TupleState,
        query: &QuerySpec,
        linking: &[&stems_types::Predicate],
        newly: &[&stems_types::Predicate],
        done_union: PredSet,
        candidates: &[Arc<Row>],
        out: &mut ProbeReplySet,
    ) {
        let t = self.instance;
        debug_assert!(!tuple.span().contains(t), "probe tuple already spans {t}");
        let probe_ts = tuple.timestamp();

        let raw_matches = candidates.len();
        let start = out.results.len();
        for row in candidates {
            let ts_u = *self.ts_of.get(row).unwrap_or(&UNBUILT_TS);
            // TimeStamp rule (§3.1): only the later-built side generates
            // the result. LastMatchTimeStamp rule (§3.5): repeated probes
            // skip matches already returned.
            if ts_u >= probe_ts || ts_u <= state.last_match_ts {
                continue;
            }
            let cand = tuple.concat_row(t, row.clone(), ts_u);
            if newly.iter().all(|p| p.eval(&cand).unwrap_or(false)) {
                out.results.push((cand, done_union));
            }
        }

        let outcome = self.bounce_decision(linking, tuple, query);
        out.metas.push(ReplyMeta {
            outcome,
            observed_ts: self.max_ts,
            raw_matches,
            len: out.results.len() - start,
        });
    }

    /// SteM BounceBack (paper Table 2, plus the §4.1 refinement for tables
    /// with index AMs).
    fn bounce_decision(
        &self,
        linking: &[&stems_types::Predicate],
        tuple: &Tuple,
        query: &QuerySpec,
    ) -> ProbeOutcome {
        if self.covers(linking, tuple, query) {
            return ProbeOutcome::Consumed;
        }
        let all_built = tuple.components().iter().all(|c| c.ts != UNBUILT_TS);
        if !all_built {
            // §3.5: the prober is not cached anywhere, so it must keep
            // re-probing this SteM until coverage (LastMatchTimeStamp
            // prevents duplicate concatenations).
            return ProbeOutcome::Bounced(CompletionNeed::Required);
        }
        match (self.has_scan_am, self.has_index_am) {
            // Scan covers completeness; no index to offer: consume.
            (true, false) => ProbeOutcome::Consumed,
            // Index AM available: bounce so the policy *may* probe it
            // (§4.1; completeness already covered by the scan, so the
            // policy may also drop the tuple).
            (true, true) => ProbeOutcome::Bounced(CompletionNeed::Optional),
            // No scan: the probe MUST complete through an AM (§3.3).
            (false, _) => ProbeOutcome::Bounced(CompletionNeed::Required),
        }
    }

    /// Does the EOT index guarantee all matches for this probe are present?
    fn covers(
        &self,
        linking: &[&stems_types::Predicate],
        tuple: &Tuple,
        query: &QuerySpec,
    ) -> bool {
        if self.eot_full {
            return true;
        }
        if self.eot_keys.is_empty() {
            return false;
        }
        let bindings = probe_bindings(linking, tuple, self.instance, query);
        let options = in_list_options(query, self.instance);
        if options.is_empty() {
            return self.covered_by(&bindings);
        }
        // Multi-member IN lists make the probe a family of sub-probes,
        // one per member combination (index AMs answer them with one EOT
        // per member key). The probe is complete only when EVERY
        // combination is covered.
        if self.covered_by(&bindings) {
            return true;
        }
        // Fast path, exact for a single list and sufficient for several:
        // if ONE option list has every member covered together with the
        // fixed bindings, every combination is covered (each combination
        // contains some member of that list, so its witness EOT subset
        // applies). This is linear in Σ|list| — no member-combination
        // blowup for the common shapes, however long the list.
        let member_covered = |col: usize, v: &Value| {
            let mut merged = bindings.clone();
            merged.push((col, v.clone()));
            merged.sort_by_key(|a| a.0);
            merged.dedup();
            self.covered_by(&merged)
        };
        if options
            .iter()
            .any(|(col, vals)| vals.iter().all(|v| member_covered(*col, v)))
        {
            return true;
        }
        if options.len() == 1 {
            // One list: the per-member check above was the exact
            // condition, so failing it means genuinely uncovered.
            return false;
        }
        // Several lists and no single list covers alone: EOTs may bind
        // members of multiple lists at once (a multi-bind-col AM), so
        // enumerate member combinations — exactly as many as the lookups
        // `bind_value_sets` fans out for this probe. A product too large
        // to even count could never have been probed; report uncovered.
        let Some(total) = options
            .iter()
            .try_fold(1usize, |acc, (_, vals)| acc.checked_mul(vals.len()))
        else {
            return false;
        };
        for combo in 0..total {
            let mut merged = bindings.clone();
            let mut rem = combo;
            for (col, vals) in &options {
                merged.push((*col, vals[rem % vals.len()].clone()));
                rem /= vals.len();
            }
            merged.sort_by_key(|a| a.0);
            merged.dedup();
            if !self.covered_by(&merged) {
                return false;
            }
        }
        true
    }

    /// Is one binding set covered by the EOT index? An EOT for binding
    /// set B covers any probe whose bindings ⊇ B; bindings are tiny
    /// (1–3 columns), so enumerate non-empty subsets.
    fn covered_by(&self, bindings: &[(usize, Value)]) -> bool {
        if bindings.is_empty() {
            return false;
        }
        let n = bindings.len().min(16);
        for mask in 1u32..(1 << n) {
            let mut subset: Vec<(usize, Value)> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| bindings[i].clone())
                .collect();
            subset.sort_by_key(|a| a.0);
            if self.eot_keys.contains(&subset) {
                return true;
            }
        }
        false
    }
}

/// The `(col, value)` pairs a probe binds on table `t`: equi-join columns
/// fed from the probe tuple, plus constant equality selections on `t`.
/// Values are normalized through [`index_key`] so coverage matching agrees
/// with what index AMs put into their EOT tuples; un-indexable values
/// (NULL/EOT) bind nothing.
pub fn probe_bindings(
    linking: &[&stems_types::Predicate],
    tuple: &Tuple,
    t: TableIdx,
    query: &QuerySpec,
) -> Vec<(usize, Value)> {
    let mut out: Vec<(usize, Value)> = Vec::new();
    for p in linking {
        if let Some((l, r)) = p.equi_join_cols() {
            let (tcol, ocol) = if l.table == t { (l, r) } else { (r, l) };
            if let Some(v) = tuple.value(ocol.table, ocol.col).and_then(index_key) {
                out.push((tcol.col, v));
            }
        }
    }
    for p in query.predicates.iter() {
        if p.op == stems_types::CmpOp::Eq {
            if let (stems_types::Operand::Col(c), stems_types::Operand::Const(v)) =
                (&p.left, &p.right)
            {
                if c.table == t {
                    if let Some(v) = index_key(v) {
                        out.push((c.col, v));
                    }
                }
            } else if let (stems_types::Operand::Const(v), stems_types::Operand::Col(c)) =
                (&p.left, &p.right)
            {
                if c.table == t {
                    if let Some(v) = index_key(v) {
                        out.push((c.col, v));
                    }
                }
            }
        } else if p.op == stems_types::CmpOp::In {
            // A single-member IN-list (or scalar IN) is a degenerate
            // equality and binds like one — the same rule the feasibility
            // fixpoint applies (`stems_catalog::feasible`), so a query
            // admitted through an `IN (v)` binding is actually probeable
            // at runtime.
            let single = match (&p.left, &p.right) {
                (stems_types::Operand::Col(c), stems_types::Operand::List(items))
                    if items.len() == 1 =>
                {
                    Some((c, &items[0]))
                }
                (stems_types::Operand::Col(c), stems_types::Operand::Const(v)) => Some((c, v)),
                _ => None,
            };
            if let Some((c, v)) = single {
                if c.table == t {
                    if let Some(v) = index_key(v) {
                        out.push((c.col, v));
                    }
                }
            }
        }
    }
    out.sort_by_key(|a| a.0);
    out.dedup();
    out
}

/// The multi-member IN-list binding *options* on table `t`: for each
/// `col IN (v1, ..., vk)` predicate with more than one member, the
/// equality-normalized member values (members that can never satisfy SQL
/// equality — NULL/EOT — match no row and are dropped). Single-member
/// lists are degenerate equalities and live in [`probe_bindings`]
/// instead. Index AMs fan a probe out across these members (one lookup
/// key per member, answered through the multi-key flat path), and
/// the SteM's coverage check requires every member's EOT before declaring the
/// probe complete — the same rule `stems_catalog::feasible` applies, so
/// a query admitted through a multi-member IN binding is actually
/// probeable at runtime.
pub fn in_list_options(query: &QuerySpec, t: TableIdx) -> Vec<(usize, Vec<Value>)> {
    let mut out: Vec<(usize, Vec<Value>)> = Vec::new();
    for p in query.predicates.iter() {
        if p.op != stems_types::CmpOp::In {
            continue;
        }
        if let (stems_types::Operand::Col(c), stems_types::Operand::List(items)) =
            (&p.left, &p.right)
        {
            if c.table == t && items.len() > 1 {
                let mut vals: Vec<Value> = Vec::with_capacity(items.len());
                for v in items.iter().filter_map(index_key) {
                    if !vals.contains(&v) {
                        vals.push(v);
                    }
                }
                if !vals.is_empty() {
                    out.push((c.col, vals));
                }
            }
        }
    }
    out
}

/// Resolve (and cache) the linking predicates for one probe span: the
/// per-envelope span cache of [`crate::sharded::ShardedStem`]'s probe
/// fan-out, which every shard's pipeline reads. Returns the span's index
/// in `spans`; batches are usually span-uniform, so the cache stays one
/// entry.
pub(crate) fn linking_for<'q>(
    spans: &mut SpanLinks<'q>,
    query: &'q QuerySpec,
    span: TableSet,
    t: TableIdx,
) -> usize {
    match spans.iter().position(|(s, _)| *s == span) {
        Some(i) => i,
        None => {
            let linking = query
                .preds_linking(span, t)
                .into_iter()
                .map(|id| query.predicate(id))
                .collect();
            spans.push((span, linking));
            spans.len() - 1
        }
    }
}

/// First equi-join predicate that binds a column of `t` from the probe
/// tuple — the hash-lookup opportunity (and, for sharded SteMs, the
/// shard-routing opportunity when it binds the shard key column).
pub(crate) fn equi_binding(
    linking: &[&stems_types::Predicate],
    tuple: &Tuple,
    t: TableIdx,
) -> Option<(usize, Value)> {
    for p in linking {
        if let Some((l, r)) = p.equi_join_cols() {
            let (tcol, ocol) = if l.table == t { (l, r) } else { (r, l) };
            if let Some(v) = tuple.value(ocol.table, ocol.col) {
                return Some((tcol.col, v.clone()));
            }
        }
    }
    None
}

/// Decode an EOT row into its binding set; `None` means a full-relation
/// (scan) EOT. Paper §2.1.3: "the EOT tuple is a regular tuple with a
/// special EOT value in all the non-bound fields".
pub(crate) fn eot_bindings(row: &Row) -> Option<Vec<(usize, Value)>> {
    let bound: Vec<(usize, Value)> = row
        .values()
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_eot())
        .map(|(i, v)| (i, v.clone()))
        .collect();
    if bound.is_empty() {
        None
    } else {
        Some(bound)
    }
}

/// Build the EOT row for an index probe answering `bindings` over a table
/// of the given arity.
pub fn make_eot_row(arity: usize, bindings: &[(usize, Value)]) -> Arc<Row> {
    let mut vals = vec![Value::Eot; arity];
    for (c, v) in bindings {
        vals[*c] = v.clone();
    }
    Row::shared(vals)
}

/// The full-relation EOT row a scan emits when exhausted.
pub fn make_scan_eot_row(arity: usize) -> Arc<Row> {
    Row::shared(vec![Value::Eot; arity])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedStem;
    use stems_catalog::{Catalog, ScanSpec, TableDef, TableInstance};
    use stems_types::TupleBatch;
    use stems_types::{CmpOp, ColRef, ColumnType, PredId, Predicate, Schema};

    /// Two-table setup: R(key, a) ⋈ S(x, y) on R.a = S.x.
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

    /// A one-shard SteM over S with default options. Stem-level tests
    /// build through the SteM's envelope path and probe the one shard
    /// with the scalar reference [`Stem::probe`].
    fn s_stem(has_scan: bool, has_index: bool) -> ShardedStem {
        s_stem_with(has_scan, has_index, StemOptions::default())
    }

    fn s_stem_with(has_scan: bool, has_index: bool, opts: StemOptions) -> ShardedStem {
        ShardedStem::new(TableIdx(1), SourceId(1), &[0], has_scan, has_index, opts)
    }

    /// A windowed SteM over S at `num_shards` shards.
    fn windowed(window: usize, num_shards: usize) -> ShardedStem {
        s_stem_with(
            true,
            false,
            StemOptions {
                eviction_window: Some(window),
                num_shards,
                ..StemOptions::default()
            },
        )
    }

    fn s_tuple(x: i64, y: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(1), vec![Value::Int(x), Value::Int(y)])
    }

    fn r_tuple(key: i64, a: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(0), vec![Value::Int(key), Value::Int(a)])
    }

    /// Build one tuple as a one-member envelope; `ts` is the timestamp a
    /// fresh insert takes.
    fn build(stem: &mut ShardedStem, t: &Tuple, ts: Timestamp) -> BuildResult {
        let mut counter = ts.saturating_sub(1);
        let batch = TupleBatch::single(t.clone());
        stem.build_batch(&batch, &[TupleState::new()], &mut counter)
            .pop()
            .expect("one result per member")
    }

    fn build_fresh(stem: &mut ShardedStem, t: &Tuple, ts: Timestamp) -> Tuple {
        match build(stem, t, ts) {
            BuildResult::Fresh(stamped) => stamped,
            other => panic!("expected Fresh, got {other:?}"),
        }
    }

    /// The scalar reference probe of a one-shard SteM.
    fn probe(stem: &ShardedStem, t: &Tuple, state: &TupleState, q: &QuerySpec) -> ProbeReply {
        assert_eq!(stem.num_shards(), 1, "the oracle reads the one shard");
        stem.shards()[0].probe(t, state, q)
    }

    #[test]
    fn build_assigns_timestamp_and_bounces() {
        let mut stem = s_stem(true, false);
        let stamped = build_fresh(&mut stem, &s_tuple(10, 1), 5);
        assert_eq!(stamped.timestamp(), 5);
        assert_eq!(stem.len(), 1);
        assert_eq!(stem.max_ts(), 5);
        assert_eq!(stem.build_count(), 1);
    }

    #[test]
    fn duplicate_builds_absorbed() {
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        // Same row value from a competing AM: absorbed (§3.2).
        let r = build(&mut stem, &s_tuple(10, 1), 2);
        assert_eq!(r, BuildResult::Duplicate);
        assert_eq!(stem.len(), 1);
        assert_eq!(stem.duplicates_absorbed(), 1);
        // max_ts unchanged — the duplicate consumed no timestamp.
        assert_eq!(stem.max_ts(), 1);
    }

    #[test]
    fn probe_finds_matches_and_concatenates() {
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        build_fresh(&mut stem, &s_tuple(20, 2), 2);
        // r (built later, ts 3) probes: matches only x=10.
        let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 3);
        let reply = probe(&stem, &r, &TupleState::new(), &q);
        assert_eq!(reply.results.len(), 1);
        let (result, done) = &reply.results[0];
        assert_eq!(result.span().len(), 2);
        assert!(done.contains(PredId(0)));
        assert_eq!(result.value(TableIdx(1), 1), Some(&Value::Int(1)));
    }

    #[test]
    fn timestamp_rule_suppresses_earlier_side() {
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        // s built at ts 7, probe r built at ts 3: 7 ≥ 3 ⇒ suppressed; the
        // s tuple's own probe path is responsible for this result.
        build_fresh(&mut stem, &s_tuple(10, 1), 7);
        let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 3);
        let reply = probe(&stem, &r, &TupleState::new(), &q);
        assert!(reply.results.is_empty());
        assert_eq!(reply.raw_matches, 1);
    }

    #[test]
    fn unbuilt_probe_sees_everything() {
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 7);
        // Unbuilt probe has ts = ∞ (paper: "before building, ts is ∞").
        let r = r_tuple(100, 10);
        let reply = probe(&stem, &r, &TupleState::new(), &q);
        assert_eq!(reply.results.len(), 1);
    }

    #[test]
    fn last_match_timestamp_dedups_reprobes() {
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        build_fresh(&mut stem, &s_tuple(10, 2), 2);
        let r = r_tuple(100, 10); // unbuilt, re-probing per §3.5
        let mut state = TupleState::new();
        let first = probe(&stem, &r, &state, &q);
        assert_eq!(first.results.len(), 2);
        // Record observed ts, as the engine does on bounce.
        state.last_match_ts = first.observed_ts;
        // New tuple arrives, then re-probe: only the new one returned.
        build_fresh(&mut stem, &s_tuple(10, 3), 9);
        let second = probe(&stem, &r, &state, &q);
        assert_eq!(second.results.len(), 1);
        assert_eq!(
            second.results[0].0.value(TableIdx(1), 1),
            Some(&Value::Int(3))
        );
    }

    #[test]
    fn bounce_rules_follow_table2() {
        let (_c, q) = setup();
        let r_built = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let state = TupleState::new();

        // scan-only, incomplete, prober built ⇒ consumed (scan covers it).
        let stem = s_stem(true, false);
        assert_eq!(
            probe(&stem, &r_built, &state, &q).outcome,
            ProbeOutcome::Consumed
        );

        // index AM present ⇒ optional bounce (§4.1 hybridization hook).
        let stem = s_stem(true, true);
        assert_eq!(
            probe(&stem, &r_built, &state, &q).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Optional)
        );

        // no scan ⇒ required bounce (§3.3 index join flow).
        let stem = s_stem(false, true);
        assert_eq!(
            probe(&stem, &r_built, &state, &q).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required)
        );

        // unbuilt prober ⇒ required bounce regardless (§3.5 re-probe).
        let stem = s_stem(true, false);
        let r_unbuilt = r_tuple(1, 10);
        assert_eq!(
            probe(&stem, &r_unbuilt, &state, &q).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required)
        );
    }

    #[test]
    fn scan_eot_makes_everything_covered() {
        let (_c, q) = setup();
        let mut stem = s_stem(false, true);
        let eot = Tuple::singleton(TableIdx(1), make_scan_eot_row(2));
        assert_eq!(build(&mut stem, &eot, 99), BuildResult::Eot);
        assert!(stem.scan_complete());
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        assert_eq!(
            probe(&stem, &r, &TupleState::new(), &q).outcome,
            ProbeOutcome::Consumed
        );
        // EOT consumed no timestamp and is not a data row.
        assert_eq!(stem.len(), 0);
        assert_eq!(stem.max_ts(), 0);
    }

    #[test]
    fn keyed_eot_covers_matching_probes_only() {
        let (_c, q) = setup();
        let mut stem = s_stem(false, true);
        // Index answered bindings {x=10}: EOT row (10, EOT).
        let eot = Tuple::singleton(TableIdx(1), make_eot_row(2, &[(0, Value::Int(10))]));
        build(&mut stem, &eot, 50);
        let state = TupleState::new();
        let covered = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        assert_eq!(
            probe(&stem, &covered, &state, &q).outcome,
            ProbeOutcome::Consumed
        );
        let uncovered = r_tuple(2, 20).with_timestamp(TableIdx(0), 2);
        assert_eq!(
            probe(&stem, &uncovered, &state, &q).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required)
        );
    }

    #[test]
    fn multi_member_in_coverage_requires_every_member() {
        // Query: R ⋈ S on R.a = S.x, plus `S.y IN (1, 2)`. An index AM
        // answers the probe one member key at a time; the SteM may
        // declare the probe complete only once EVERY member's EOT landed.
        let (c, q) = setup();
        let mut q2 = q.clone();
        q2.predicates.push(Predicate::in_list(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            vec![Value::Int(1), Value::Int(2)],
        ));
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        assert_eq!(
            in_list_options(&q2, TableIdx(1)),
            vec![(1, vec![Value::Int(1), Value::Int(2)])]
        );
        let mut stem = s_stem(false, true);
        let state = TupleState::new();
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 5);

        // Nothing answered yet.
        assert_eq!(
            probe(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required)
        );
        // Member 1 answered (the index AM binds the IN column and emits
        // one keyed EOT per member lookup): still incomplete — the
        // member-2 sub-probe has no coverage.
        build(
            &mut stem,
            &Tuple::singleton(TableIdx(1), make_eot_row(2, &[(1, Value::Int(1))])),
            0,
        );
        assert_eq!(
            probe(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required)
        );
        // Member 2 answered too: every sub-probe is covered now.
        build(
            &mut stem,
            &Tuple::singleton(TableIdx(1), make_eot_row(2, &[(1, Value::Int(2))])),
            0,
        );
        assert_eq!(
            probe(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Consumed
        );
    }

    #[test]
    fn huge_in_list_coverage_is_linear_not_capped() {
        // A 1500-member IN list on the indexed column: coverage must
        // complete once every member's EOT landed — the per-member rule
        // is linear in the list, so no combination cap can strand the
        // probe (the old 2^10 cap livelocked index-only queries here).
        let (c, q) = setup();
        let members: Vec<Value> = (0..1500).map(Value::Int).collect();
        let mut q2 = q.clone();
        q2.predicates.push(Predicate::in_list(
            PredId(1),
            ColRef::new(TableIdx(1), 0),
            members.clone(),
        ));
        // Join through y instead, so col 0 stays IN-bound only.
        q2.predicates[0] = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        );
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        let mut stem = s_stem(false, true);
        let state = TupleState::new();
        let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 5);
        for m in &members[..1499] {
            build(
                &mut stem,
                &Tuple::singleton(TableIdx(1), make_eot_row(2, &[(0, m.clone())])),
                0,
            );
        }
        assert_eq!(
            probe(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required),
            "one member still unanswered"
        );
        build(
            &mut stem,
            &Tuple::singleton(TableIdx(1), make_eot_row(2, &[(0, members[1499].clone())])),
            0,
        );
        assert_eq!(
            probe(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Consumed
        );
    }

    #[test]
    fn cross_list_coverage_enumerates_member_combinations() {
        // Two IN lists on different columns, answered by a two-bind-col
        // AM whose EOTs pair one member of each list: no single list is
        // covered alone, so coverage must enumerate the combinations.
        let (c, q) = setup();
        let mut q2 = q.clone();
        q2.predicates = vec![
            Predicate::in_list(
                PredId(0),
                ColRef::new(TableIdx(1), 0),
                vec![Value::Int(1), Value::Int(2)],
            ),
            Predicate::in_list(
                PredId(1),
                ColRef::new(TableIdx(1), 1),
                vec![Value::Int(5), Value::Int(6)],
            ),
        ];
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        let mut stem = s_stem(false, true);
        let state = TupleState::new();
        let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 5);
        let pairs = [(1, 5), (1, 6), (2, 5), (2, 6)];
        for (x, y) in &pairs[..3] {
            build(
                &mut stem,
                &Tuple::singleton(
                    TableIdx(1),
                    // Arity-3 EOT row so a column stays EOT-marked.
                    make_eot_row(3, &[(0, Value::Int(*x)), (1, Value::Int(*y))]),
                ),
                0,
            );
        }
        assert_eq!(
            probe(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required),
            "one member pair still unanswered"
        );
        build(
            &mut stem,
            &Tuple::singleton(
                TableIdx(1),
                make_eot_row(3, &[(0, Value::Int(2)), (1, Value::Int(6))]),
            ),
            0,
        );
        assert_eq!(
            probe(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Consumed
        );
    }

    #[test]
    fn in_list_options_normalize_and_skip_degenerates() {
        let (c, q) = setup();
        let mut q2 = q.clone();
        // Single-member list: a degenerate equality, not an option set.
        q2.predicates.push(Predicate::in_list(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            vec![Value::Int(7)],
        ));
        // Multi-member list with coercing/duplicate/NULL members.
        q2.predicates.push(Predicate::in_list(
            PredId(2),
            ColRef::new(TableIdx(1), 0),
            vec![Value::Int(3), Value::Float(3.0), Value::Null, Value::Int(4)],
        ));
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        assert_eq!(
            in_list_options(&q2, TableIdx(1)),
            vec![(0, vec![Value::Int(3), Value::Int(4)])]
        );
        assert!(in_list_options(&q2, TableIdx(0)).is_empty());
    }

    #[test]
    fn probe_results_skip_eot_rows() {
        let (_c, q) = setup();
        let mut stem = s_stem(false, true);
        build(
            &mut stem,
            &Tuple::singleton(TableIdx(1), make_eot_row(2, &[(0, Value::Int(10))])),
            1,
        );
        build_fresh(&mut stem, &s_tuple(10, 5), 2);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 9);
        let reply = probe(&stem, &r, &TupleState::new(), &q);
        // Only the data row joins; the EOT "row" never appears in results.
        assert_eq!(reply.results.len(), 1);
        assert_eq!(
            reply.results[0].0.value(TableIdx(1), 1),
            Some(&Value::Int(5))
        );
    }

    #[test]
    fn eviction_window_fifo() {
        for shards in [1usize, 4] {
            let mut stem = windowed(2, shards);
            build_fresh(&mut stem, &s_tuple(1, 1), 1);
            build_fresh(&mut stem, &s_tuple(2, 2), 2);
            build_fresh(&mut stem, &s_tuple(3, 3), 3);
            assert_eq!(stem.len(), 2, "{shards} shards");
            assert_eq!(stem.evictions(), 1, "{shards} shards");
            // Evicted row may re-enter (dedup forgot it).
            match build(&mut stem, &s_tuple(1, 1), 4) {
                BuildResult::Fresh(_) => {}
                other => panic!("{shards} shards: evicted row should rebuild, got {other:?}"),
            }
        }
    }

    #[test]
    fn windowed_build_batch_matches_scalar_eviction() {
        // window=2, batch [r1, r2, r3, r1]: inserting r2/r3 evicts r1 and
        // forgets it, so the second r1 must re-enter as Fresh — exactly
        // what per-tuple builds do. A batch-deferred insert would wrongly
        // absorb it as a duplicate.
        for shards in [1usize, 4] {
            let mut stem = windowed(2, shards);
            let batch: TupleBatch = [s_tuple(1, 1), s_tuple(2, 2), s_tuple(3, 3), s_tuple(1, 1)]
                .into_iter()
                .collect();
            let states = vec![TupleState::new(); 4];
            let mut ts = 0;
            let results = stem.build_batch(&batch, &states, &mut ts);
            assert!(matches!(results[0], BuildResult::Fresh(_)));
            assert!(matches!(results[1], BuildResult::Fresh(_)));
            assert!(matches!(results[2], BuildResult::Fresh(_)));
            assert!(
                matches!(results[3], BuildResult::Fresh(_)),
                "{shards} shards: evicted row must rebuild mid-batch, got {:?}",
                results[3]
            );
            assert_eq!(stem.len(), 2, "{shards} shards");
            assert_eq!(stem.evictions(), 2, "{shards} shards");
            assert_eq!(ts, 4, "{shards} shards");
        }
    }

    /// The side maps (`dedup`, `ts_of`) and the store of every shard must
    /// agree on membership and length — the window sweep must forget a
    /// victim in all three together.
    fn assert_side_maps_consistent(stem: &ShardedStem) {
        for shard in stem.shards() {
            assert_eq!(shard.ts_of.len(), shard.store.len(), "ts_of vs store len");
            assert_eq!(shard.dedup.len(), shard.store.len(), "dedup vs store len");
            for row in shard.store.scan() {
                assert!(
                    shard.ts_of.contains_key(&row),
                    "stored row missing from ts_of: {row:?}"
                );
                assert!(
                    shard.dedup.contains(&row),
                    "stored row missing from dedup: {row:?}"
                );
            }
        }
    }

    #[test]
    fn windowed_side_maps_stay_consistent_across_sweeps() {
        for shards in [1usize, 4] {
            let mut stem = windowed(3, shards);
            // Drive far past the window, with duplicates interleaved, so
            // many sweeps run; the maps must agree after every build.
            for i in 0..40i64 {
                let key = i % 10;
                build(&mut stem, &s_tuple(key, key), (i + 1) as u64);
                assert_side_maps_consistent(&stem);
                assert!(stem.len() <= 3, "{shards} shards: window overrun at i={i}");
            }
            assert!(stem.evictions() > 0);
            // An evicted row must be forgotten everywhere: it rebuilds
            // Fresh, and the maps stay in step.
            let victim = s_tuple(0, 0);
            assert!(matches!(
                build(&mut stem, &victim, 99),
                BuildResult::Fresh(_)
            ));
            assert_side_maps_consistent(&stem);
        }
    }

    #[test]
    fn windowed_side_maps_survive_intra_batch_duplicate_rearrival() {
        // window=2, batch [r1, r2, r3, r1, r1]: inserting r2/r3 evicts r1
        // and must forget it in `dedup` and `ts_of`; the first re-arrival
        // rebuilds Fresh (and re-enters both maps), the second is a true
        // duplicate again. After the sweep, store/dedup/ts_of agree.
        for shards in [1usize, 4] {
            let mut stem = windowed(2, shards);
            let batch: TupleBatch = [
                s_tuple(1, 1),
                s_tuple(2, 2),
                s_tuple(3, 3),
                s_tuple(1, 1),
                s_tuple(1, 1),
            ]
            .into_iter()
            .collect();
            let states = vec![TupleState::new(); 5];
            let mut ts = 0;
            let results = stem.build_batch(&batch, &states, &mut ts);
            assert!(
                matches!(results[3], BuildResult::Fresh(_)),
                "{shards} shards"
            );
            assert_eq!(results[4], BuildResult::Duplicate, "{shards} shards");
            assert_side_maps_consistent(&stem);
            assert_eq!(stem.len(), 2, "{shards} shards");
            // The re-built r1 carries its *new* timestamp in ts_of.
            let r1 = s_tuple(1, 1);
            let ts_r1 = stem
                .shards()
                .iter()
                .find_map(|shard| shard.ts_of.get(&r1.components()[0].row))
                .expect("r1 stored");
            assert_eq!(*ts_r1, 4, "{shards} shards: re-arrival must be re-stamped");
        }
    }

    #[test]
    fn unbounded_stem_side_maps_consistent() {
        let mut stem = s_stem(true, false);
        for i in 0..10 {
            build(&mut stem, &s_tuple(i, i), (i + 1) as u64);
        }
        // Duplicates leave the maps untouched.
        build(&mut stem, &s_tuple(3, 3), 50);
        assert_side_maps_consistent(&stem);
        assert_eq!(stem.len(), 10);
    }

    #[test]
    fn deferred_bounce_clusters_by_partition() {
        let opts = StemOptions {
            deferred_bounce: true,
            partitions: 4,
            ..StemOptions::default()
        };
        let mut stem = s_stem_with(true, false, opts);
        for i in 0..20 {
            let r = build(&mut stem, &s_tuple(i, i), (i + 1) as u64);
            assert_eq!(r, BuildResult::Deferred);
        }
        assert_eq!(stem.deferred_len(), 20);
        let released = stem.release_deferred();
        assert_eq!(released.len(), 20);
        assert_eq!(stem.deferred_len(), 0);
        // Released order is clustered: partition ids are non-decreasing.
        let parts: Vec<usize> = released
            .iter()
            .map(|(t, _)| stem.shards()[0].partition_of(&t.components()[0].row))
            .collect();
        let mut sorted = parts.clone();
        sorted.sort_unstable();
        assert_eq!(parts, sorted);
    }

    #[test]
    fn hybrid_mem_partitions_bounce_immediately() {
        let opts = StemOptions {
            deferred_bounce: true,
            partitions: 2,
            mem_partitions: 1,
            ..StemOptions::default()
        };
        let mut stem = s_stem_with(true, false, opts);
        let mut fresh = 0;
        let mut deferred = 0;
        for i in 0..50 {
            match build(&mut stem, &s_tuple(i, i), (i + 1) as u64) {
                BuildResult::Fresh(_) => fresh += 1,
                BuildResult::Deferred => deferred += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        // Both behaviours must occur (hybrid-hash: memory-resident
        // partitions pipeline, the rest wait).
        assert!(fresh > 0, "no immediate bounces");
        assert!(deferred > 0, "no deferred bounces");
    }

    #[test]
    fn selection_predicates_checked_at_concat() {
        let (c, q) = setup();
        // Add a selection on S.y > 3.
        let mut q2 = q.clone();
        q2.predicates.push(Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Gt,
            Value::Int(3),
        ));
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1); // fails y > 3
        build_fresh(&mut stem, &s_tuple(10, 9), 2); // passes
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 5);
        let reply = probe(&stem, &r, &TupleState::new(), &q2);
        assert_eq!(reply.results.len(), 1);
        let (tup, done) = &reply.results[0];
        assert_eq!(tup.value(TableIdx(1), 1), Some(&Value::Int(9)));
        assert!(done.contains(PredId(0)) && done.contains(PredId(1)));
    }

    #[test]
    fn cartesian_probe_scans_store() {
        // Query with no predicates: probe returns cross product rows.
        let (c, q) = setup();
        let q = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        build_fresh(&mut stem, &s_tuple(20, 2), 2);
        let r = r_tuple(1, 999).with_timestamp(TableIdx(0), 5);
        let reply = probe(&stem, &r, &TupleState::new(), &q);
        assert_eq!(reply.results.len(), 2);
    }

    #[test]
    fn evict_oldest_and_oldest_ts_walk_fifo_order() {
        let mut stem = s_stem(true, false);
        for i in 0..4 {
            build_fresh(&mut stem, &s_tuple(i, i), (i + 1) as u64);
        }
        assert_eq!(stem.shards()[0].oldest_ts(), Some(1));
        assert!(stem.shard_mut(0).evict_oldest());
        assert_eq!(stem.shards()[0].oldest_ts(), Some(2));
        assert_eq!(stem.len(), 3);
        assert_eq!(stem.evictions(), 1);
        assert_side_maps_consistent(&stem);
        // The evicted row was forgotten everywhere: it can rebuild fresh.
        assert!(matches!(
            build(&mut stem, &s_tuple(0, 0), 9),
            BuildResult::Fresh(_)
        ));
        while stem.shard_mut(0).evict_oldest() {}
        assert_eq!(stem.shards()[0].oldest_ts(), None);
        assert!(stem.is_empty());
    }

    #[test]
    fn probe_bindings_include_constant_selections() {
        let (c, q) = setup();
        let mut q2 = q.clone();
        q2.predicates.push(Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Eq,
            Value::Int(7),
        ));
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        let linking: Vec<&Predicate> = q2
            .preds_linking(TableSet::single(TableIdx(0)), TableIdx(1))
            .into_iter()
            .map(|id| q2.predicate(id))
            .collect();
        let r = r_tuple(1, 10);
        let b = probe_bindings(&linking, &r, TableIdx(1), &q2);
        assert_eq!(b, vec![(0, Value::Int(10)), (1, Value::Int(7))]);
    }

    /// The batched probe path resolves `newly_evaluable` once per distinct
    /// `(result_span, done)` pair per envelope (the span-level predicate
    /// cache); the scalar probe recomputes it per call. On an envelope
    /// mixing probe spans {R}, {T} and {R,T} with varied done-sets —
    /// including pairs that share a span but differ in done bits — the two
    /// must agree reply for reply.
    #[test]
    fn span_predicate_cache_matches_per_tuple_recomputation() {
        use stems_catalog::SourceId as Src;
        // Three tables, two joins through S, plus a selection on S:
        // R.a = S.x, S.y = T.b, S.y < 25.
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
        let t = c
            .add_table(TableDef::new("T", Schema::of(&[("b", ColumnType::Int)])))
            .unwrap();
        for src in [r, s, t] {
            c.add_scan(src, ScanSpec::default()).unwrap();
        }
        let inst = |source: Src, alias: &str| TableInstance {
            source,
            alias: alias.into(),
        };
        let q = QuerySpec::new(
            &c,
            vec![inst(r, "r"), inst(s, "s"), inst(t, "t")],
            vec![
                Predicate::join(
                    PredId(0),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 0),
                ),
                Predicate::join(
                    PredId(1),
                    ColRef::new(TableIdx(1), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(2), 0),
                ),
                Predicate::selection(
                    PredId(2),
                    ColRef::new(TableIdx(1), 1),
                    CmpOp::Lt,
                    Value::Int(25),
                ),
            ],
            None,
        )
        .unwrap();

        let mut stem = ShardedStem::new(
            TableIdx(1),
            Src(1),
            &[0, 1],
            true,
            false,
            StemOptions::default(),
        );
        for i in 0..40i64 {
            build_fresh(&mut stem, &s_tuple(i % 10, i), (i + 1) as Timestamp);
        }

        // Mixed envelope: span {R} (live + stale), span {T}, span {R,T},
        // with done-sets that differ *within* a shared span.
        let mut probes: Vec<Tuple> = Vec::new();
        let mut states: Vec<TupleState> = Vec::new();
        let mut push = |tuple: Tuple, done: &[u16]| {
            probes.push(tuple);
            let mut st = TupleState::new();
            for &p in done {
                st.done.insert(PredId(p));
            }
            states.push(st);
        };
        for i in 0..12i64 {
            let r_probe = r_tuple(i, i % 10).with_timestamp(TableIdx(0), 1_000 + i as u64);
            push(r_probe.clone(), &[]);
            push(r_probe, &[2]); // same span, different done bits
            let t_probe = Tuple::singleton_of(TableIdx(2), vec![Value::Int(i % 30)])
                .with_timestamp(TableIdx(2), 2_000 + i as u64);
            push(t_probe.clone(), &[]);
            push(
                r_tuple(i, i % 10)
                    .with_timestamp(TableIdx(0), 3_000 + i as u64)
                    .concat(&t_probe),
                &[2],
            );
        }

        let mut batched = ProbeReplySet::new();
        stem.probe_batch_into(&probes, &states, &q, &mut batched);
        assert_eq!(batched.len(), probes.len());
        let mut seen_results = 0usize;
        for ((tuple, state), (meta, results)) in probes.iter().zip(&states).zip(batched.iter()) {
            let want = probe(&stem, tuple, state, &q);
            assert_eq!(want.results, results, "probe {tuple}");
            assert_eq!(want.outcome, meta.outcome, "probe {tuple}");
            assert_eq!(want.observed_ts, meta.observed_ts, "probe {tuple}");
            assert_eq!(want.raw_matches, meta.raw_matches, "probe {tuple}");
            seen_results += results.len();
        }
        assert!(seen_results > 0, "workload must form results");
    }

    #[test]
    fn scratch_pool_capped_after_burst() {
        let stem = s_stem(true, false);
        // A burst of concurrent probers checks out far more scratches than
        // the cap, then returns them all.
        let burst: Vec<_> = (0..4 * MAX_POOLED_SCRATCH)
            .map(|_| stem.shards()[0].acquire_scratch())
            .collect();
        for scratch in burst {
            stem.shards()[0].release_scratch(scratch);
        }
        let pooled = stem.shards()[0].pooled_scratches();
        assert!(
            pooled <= MAX_POOLED_SCRATCH,
            "free-list kept {pooled} scratches, cap is {MAX_POOLED_SCRATCH}"
        );
    }

    #[test]
    fn scratch_pool_recovers_from_poison() {
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        // Poison the scratch mutex: panic while holding the free-list
        // lock (the unwinding drop marks it poisoned).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stem.shards()[0]
                .scratch
                .with_slots(|_| panic!("prober died mid-probe"));
        }));
        assert!(result.is_err());
        assert!(stem.shards()[0].scratch.is_poisoned());
        // A later query's probe must still succeed — the pool discards the
        // poisoned free-list instead of propagating the panic. The batch
        // path is the one that checks scratch out of the pool.
        let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 3);
        let mut out = ProbeReplySet::new();
        stem.probe_batch_into(&[r], &[TupleState::new()], &q, &mut out);
        assert_eq!(out.results.len(), 1);
        assert!(
            !stem.shards()[0].scratch.is_poisoned(),
            "poison mark must be cleared"
        );
    }

    #[test]
    fn scratch_poisoned_while_checked_out_recovers_on_release() {
        // A chunk holds a checked-out scratch (no lock held) while the
        // pool's free-list is poisoned underneath it — the in-flight
        // chunk's release must recover the pool, not deadlock or lose
        // the poison repair.
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        let held = stem.shards()[0].acquire_scratch();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stem.shards()[0]
                .scratch
                .with_slots(|_| panic!("sibling chunk died mid-envelope"));
        }));
        assert!(result.is_err());
        assert!(stem.shards()[0].scratch.is_poisoned());
        // The surviving chunk finishes its envelope and returns its
        // scratch: release goes through poison recovery and re-pools it.
        stem.shards()[0].release_scratch(held);
        assert!(
            !stem.shards()[0].scratch.is_poisoned(),
            "release must clear poison"
        );
        assert_eq!(stem.shards()[0].pooled_scratches(), 1);
        let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 3);
        let mut out = ProbeReplySet::new();
        stem.probe_batch_into(&[r], &[TupleState::new()], &q, &mut out);
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn worker_panic_replay_with_concurrent_scratch_checkout() {
        // End-to-end satellite: a pool scope where one task poisons the
        // scratch free-list by panicking inside it while a sibling task
        // concurrently holds a checked-out scratch and releases it
        // mid-recovery. The panic must replay to the scope caller after
        // the barrier (never lost, never a deadlock), and the SteM must
        // stay fully usable afterwards.
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        let pool = crate::runtime::WorkerPool::global();
        let stem_ref = &stem;
        let q_ref = &q;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(2, |scope| {
                scope.spawn(0, move || {
                    stem_ref.shards()[0]
                        .scratch
                        .with_slots(|_| panic!("worker died holding the free-list"));
                });
                scope.spawn(1, move || {
                    // Concurrent envelope: checkout → probe → release,
                    // racing the sibling's poisoning. Must complete
                    // whether it runs before, during, or after.
                    let scratch = stem_ref.shards()[0].acquire_scratch();
                    let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 3);
                    let mut out = ProbeReplySet::new();
                    stem_ref.probe_batch_into(&[r], &[TupleState::new()], q_ref, &mut out);
                    assert_eq!(out.results.len(), 1);
                    stem_ref.shards()[0].release_scratch(scratch);
                });
            });
        }));
        assert!(result.is_err(), "worker panic must replay to the caller");
        // The pool recovered (either at the sibling's release or at the
        // next acquire) and the SteM still probes.
        let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 3);
        let mut out = ProbeReplySet::new();
        stem.probe_batch_into(&[r], &[TupleState::new()], &q, &mut out);
        assert_eq!(out.results.len(), 1);
        assert!(!stem.shards()[0].scratch.is_poisoned());
    }

    use stems_types::TableSet;
}
