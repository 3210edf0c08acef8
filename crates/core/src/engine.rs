//! The eddy executor: a discrete-event loop that routes tuples between
//! modules (paper §2.1.1).
//!
//! "The eddy's role is to continuously route tuples among the rest of the
//! modules, according to a routing policy. ... A tuple is removed from the
//! eddy's dataflow and sent to the output if it spans all base tables and
//! is verified to pass all predicates. The eddy terminates the query when
//! there are no tuples in the dataflow, and each module has finished
//! processing all the tuples sent to it."
//!
//! Every module runs as a serial server with its own input queue and
//! per-operation virtual service times; index AMs additionally answer
//! probes asynchronously with their configured latency. Termination is the
//! natural emptiness of the event agenda — exactly the paper's condition.
//!
//! # Batched routing
//!
//! The default engine path routes [`TupleBatch`]es, not single tuples.
//! Whenever a set of tuples re-enters the eddy together (a probe's
//! concatenations, an index AM's response, a Grace release, an unpark
//! wave), the eddy computes each tuple's legal candidate set — the Table 2
//! constraint checks stay **per tuple** — and then groups tuples whose
//! candidate sets are identical. Each group of up to
//! [`ExecConfig::batch_size`] tuples pays *one* routing-policy decision,
//! one envelope, and one pair of start/complete events, amortizing the
//! per-tuple adaptivity overhead that tuple-at-a-time eddies suffer.
//! `batch_size: 1` reproduces the scalar tuple-at-a-time engine exactly.

use crate::am::IndexProbeOutcome;
use crate::plan::{instantiate, Module, PlanLayout, PlanOptions};
use crate::policy::{Feedback, Hint, RoutingPolicy, RoutingPolicyKind};
use crate::report::Report;
use crate::router::{self, Action, NoCandidates};
use crate::stem::{eot_bindings, BuildResult, ProbeOutcome, ProbeReplySet};
use crate::tuple_state::{CompletionNeed, PriorProber, TupleState};
use std::collections::VecDeque;
use stems_catalog::{Catalog, QuerySpec};
use stems_sim::{EventQueue, Metrics, SimRng, Time};
use stems_storage::fxhash::FxHashSet;
use stems_types::{
    Predicate, Result, StemsError, TableIdx, Timestamp, Tuple, TupleBatch, Value, MAX_TABLES,
};

/// The `span{n}_formed` counter names, indexed by span size `n`: static,
/// so counting a formed result allocates no name.
#[rustfmt::skip]
const SPAN_FORMED: [&str; MAX_TABLES + 1] = [
    "span0_formed", "span1_formed", "span2_formed", "span3_formed", "span4_formed",
    "span5_formed", "span6_formed", "span7_formed", "span8_formed", "span9_formed",
    "span10_formed", "span11_formed", "span12_formed", "span13_formed", "span14_formed",
    "span15_formed", "span16_formed", "span17_formed", "span18_formed", "span19_formed",
    "span20_formed", "span21_formed", "span22_formed", "span23_formed", "span24_formed",
    "span25_formed", "span26_formed", "span27_formed", "span28_formed", "span29_formed",
    "span30_formed", "span31_formed", "span32_formed",
];

/// Virtual service times of local (in-process) operations, in µs. These
/// stand in for the CPU costs of the paper's Java modules; remote costs
/// (scan rates, index latencies) come from the access-method specs.
#[derive(Debug, Clone)]
pub struct CostModel {
    pub stem_build_us: u64,
    pub stem_probe_us: u64,
    pub per_match_us: u64,
    pub sm_us: u64,
    pub am_accept_us: u64,
    /// Probe-cost multiplier for Grace-mode clustered releases (< 1.0
    /// models the I/O locality of partition-clustered probing, §3.1).
    pub clustered_probe_discount: f64,
    /// Model each SteM shard as an independent server: an envelope's
    /// build/probe service time scales with the *busiest* shard's load
    /// (max over shards) instead of the total —
    /// [`crate::sharded::ShardedStem::parallel_service_units`]. This is
    /// the simulation-native expression of the wall-clock parallelism
    /// sharding provides on multi-core hosts (`bench_shards` uses it for
    /// its deterministic, hardware-independent speedup series). Off by
    /// default so the virtual timeline is identical at every shard count
    /// — the shard-invariance equivalence suites rely on that.
    pub shard_parallel_service: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            stem_build_us: 20,
            stem_probe_us: 30,
            per_match_us: 5,
            sm_us: 10,
            am_accept_us: 10,
            clustered_probe_discount: 1.0,
            shard_parallel_service: false,
        }
    }
}

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    pub policy: RoutingPolicyKind,
    pub seed: u64,
    pub costs: CostModel,
    /// Instantiation options (SteM backends, BuildFirst mode, §3.5
    /// exemptions).
    pub plan: PlanOptions,
    /// Restrict SteM probes to these join-graph edges (static spanning
    /// tree emulation, §3.4). `None` = fully dynamic.
    pub probe_edges: Option<Vec<(TableIdx, TableIdx)>>,
    /// User-interest predicate (§4.1): matching tuples jump module queues
    /// and their results are counted separately.
    pub priority_pred: Option<Predicate>,
    /// Maximum tuples routed per policy decision / module envelope, and
    /// the cap on rows a scan may emit per event (chunked ingestion). `1`
    /// reproduces the scalar tuple-at-a-time engine; larger values
    /// amortize routing overhead over same-destination tuples. The
    /// default (64) can be overridden with the `STEMS_BATCH_SIZE`
    /// environment variable — CI runs the whole suite at 1 and 64 so
    /// scalar-engine equivalence is enforced on every push.
    pub batch_size: usize,
    /// SteM shard fan-out: every SteM's dictionary is hash-partitioned by
    /// join key into this many shards (plus, above one, an overflow shard
    /// for un-hashable keys) and build/probe envelopes fan out across
    /// them — see [`crate::sharded::ShardedStem`], which runs the same
    /// path at every count. `1` (the default) keeps each SteM in one
    /// shard. Overridable with the `STEMS_NUM_SHARDS`
    /// environment variable; CI crosses it with the batch-size matrix so
    /// shard-count invariance is enforced on every push. Folded into the
    /// plan's *default* SteM options at build time, unless the plan
    /// already sets a non-default fan-out there (explicit plan settings
    /// win); per-instance `stem_overrides` always keep their own
    /// `num_shards`.
    pub num_shards: usize,
    /// Worker budget for the persistent worker pool
    /// ([`crate::runtime::WorkerPool`]) that services sharded SteM
    /// build/probe fan-outs. Defaults to the host's available
    /// parallelism, overridable with the `STEMS_WORKERS` environment
    /// variable; CI crosses it with the shard matrix so worker-count
    /// invariance is enforced on every push. Folded into the plan's
    /// default SteM options at build time exactly like `num_shards`
    /// (explicit plan settings win). `1` keeps every fan-out serial on
    /// the calling thread.
    pub workers: usize,
    /// Minimum rows routed in one envelope before a sharded SteM
    /// dispatches its per-shard lanes to the worker pool; smaller
    /// envelopes run serially (pool hand-off costs ~1–2µs per task, so
    /// tiny envelopes lose). Defaults to
    /// [`crate::runtime::DEFAULT_PARALLEL_MIN_ROWS`], overridable with
    /// the `STEMS_PARALLEL_MIN_ROWS` environment variable. Folded into
    /// the plan's default SteM options like `num_shards`.
    pub parallel_min_rows: usize,
    /// Conjunction fusion: when a batch is routed to a Selection Module,
    /// also apply every *sibling* selection over the same table instance
    /// that all batch members are still eligible for, in one pass with
    /// short-circuit verdict merging ([`crate::sm::Sm::apply_batch_fused`]).
    /// Per-predicate feedback and virtual cost are charged exactly as the
    /// sequential cascade would have been; the saving is the dropped
    /// routing hops and envelopes. `false` reproduces the strict
    /// one-SM-per-hop cascade.
    pub fuse_selections: bool,
    /// Verdict memoization for expensive UDF predicates: when `true`
    /// (the default), every UDF predicate gets a [`crate::memo::MemoCache`]
    /// so its verdict is computed — and its virtual latency paid — once
    /// per distinct input key; the query server additionally folds one
    /// cache across queries sharing a predicate identity. Overridable
    /// with `STEMS_MEMO` (`0`/`1`). Verdicts are bit-identical either
    /// way; only computed-call counts and virtual time change.
    pub memo: bool,
    /// Byte budget per memo cache, enforced shard-locally with
    /// clock/second-chance eviction over `Value::approx_bytes`
    /// accounting. Overridable with `STEMS_MEMO_BYTES`.
    pub memo_bytes: usize,
    /// Envelope-level dedup for UDF predicates: group an envelope's rows
    /// by input key and evaluate one representative per distinct key
    /// ([`crate::sm::Sm::apply_batch_udf`]). Independent of `memo` (the
    /// four on/off combinations are swept by `bench_pred`). Overridable
    /// with `STEMS_UDF_DEDUP` (`0`/`1`).
    pub udf_dedup: bool,
    /// BoundedRepetition backstop.
    pub max_hops: u32,
    /// Simulation guards.
    pub max_events: u64,
    pub max_time: Option<Time>,
    /// Verify invariants while running (tests); violations are collected
    /// in the report instead of panicking.
    pub check_constraints: bool,
    /// Record a routing trace (capped at `trace_limit` events) — the
    /// observability hook for debugging policies and demos.
    pub trace: bool,
    pub trace_limit: usize,
}

/// A rejected engine configuration — a malformed environment knob or an
/// invalid field value. Long-lived callers (the query server, binaries
/// that want a clean exit) handle this as a startup error; the
/// [`Default`] impl below remains a thin panicking shim for tests and
/// one-shot binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Read a positive-integer environment knob. Not present falls back to
/// `default`; a set-but-invalid value is an error — a misconfigured CI
/// leg (or server deployment) must fail loudly, not silently re-test the
/// default engine while claiming coverage.
pub(crate) fn env_knob(var: &str, default: usize) -> std::result::Result<usize, ConfigError> {
    match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => Ok(default),
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(ConfigError(format!(
                "{var} must be a positive integer, got {s:?}"
            ))),
        },
        Err(e) => Err(ConfigError(format!("{var} is not valid unicode: {e}"))),
    }
}

/// Read a boolean (`0`/`1`) environment knob. Same failure discipline as
/// [`env_knob`]: absent falls back, set-but-invalid fails loudly.
pub(crate) fn env_flag(var: &str, default: bool) -> std::result::Result<bool, ConfigError> {
    match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => Ok(default),
        Ok(s) => match s.trim() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(ConfigError(format!("{var} must be 0 or 1, got {s:?}"))),
        },
        Err(e) => Err(ConfigError(format!("{var} is not valid unicode: {e}"))),
    }
}

impl ExecConfig {
    /// Build the default configuration from the environment, failing on
    /// malformed knobs instead of panicking. This is what a server uses
    /// at startup; `ExecConfig::default()` is the panicking shim over it.
    pub fn from_env() -> std::result::Result<ExecConfig, ConfigError> {
        let config = ExecConfig {
            policy: RoutingPolicyKind::default(),
            seed: 42,
            costs: CostModel::default(),
            plan: PlanOptions::default(),
            probe_edges: None,
            priority_pred: None,
            batch_size: env_knob("STEMS_BATCH_SIZE", 64)?,
            num_shards: env_knob("STEMS_NUM_SHARDS", 1)?,
            workers: crate::runtime::try_default_workers()?,
            parallel_min_rows: crate::runtime::try_default_parallel_min_rows()?,
            fuse_selections: true,
            memo: env_flag("STEMS_MEMO", true)?,
            memo_bytes: env_knob("STEMS_MEMO_BYTES", crate::memo::DEFAULT_MEMO_BYTES)?,
            udf_dedup: env_flag("STEMS_UDF_DEDUP", true)?,
            max_hops: 1_000_000,
            max_events: 200_000_000,
            max_time: None,
            check_constraints: false,
            trace: false,
            trace_limit: 100_000,
        };
        config.validate()?;
        Ok(config)
    }

    /// Reject field values no engine layer can run with. Called by
    /// [`EddyExecutor::build`] (and thus the server at admission) so a
    /// zero smuggled in programmatically fails as loudly as a zero from
    /// the environment.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        for (name, value) in [
            ("batch_size", self.batch_size),
            ("num_shards", self.num_shards),
            ("workers", self.workers),
            ("parallel_min_rows", self.parallel_min_rows),
            ("memo_bytes", self.memo_bytes),
        ] {
            if value == 0 {
                return Err(ConfigError(format!("ExecConfig.{name} must be >= 1")));
            }
        }
        Ok(())
    }

    /// Fold the engine-level SteM knobs into the plan options, producing
    /// what [`crate::plan::instantiate`] will actually see. The shard
    /// knob overrides only the untouched default (1); the pool knobs fill
    /// only a `None` — explicit plan settings always win, so neither
    /// configuration surface silently clobbers the other. The query
    /// server calls this too, to derive the SteM options a query's plan
    /// will use when matching SteMs for sharing.
    pub(crate) fn resolved_plan_opts(&self) -> PlanOptions {
        let mut plan_opts = self.plan.clone();
        if plan_opts.default_stem.num_shards == 1 {
            plan_opts.default_stem.num_shards = self.num_shards;
        }
        if plan_opts.default_stem.workers.is_none() {
            plan_opts.default_stem.workers = Some(self.workers);
        }
        if plan_opts.default_stem.parallel_min_rows.is_none() {
            plan_opts.default_stem.parallel_min_rows = Some(self.parallel_min_rows);
        }
        plan_opts
    }
}

impl Default for ExecConfig {
    /// The panicking shim over [`ExecConfig::from_env`] — convenient for
    /// tests and one-shot binaries; servers call `from_env` directly.
    fn default() -> Self {
        ExecConfig::from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A batch of same-destination tuples handed to a module's input queue.
/// `states` runs parallel to `batch`; all members were routed by one
/// policy decision and are processed under one service envelope.
#[derive(Debug)]
struct Envelope {
    batch: TupleBatch,
    states: Vec<TupleState>,
    purpose: Purpose,
    clustered: bool,
    prioritized: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    Build,
    Probe,
    Select,
    /// Probe an index AM *for* the given table instance.
    AmProbe(TableIdx),
}

/// A tuple re-entering the eddy after a module finished with it.
struct Delivery {
    tuple: Tuple,
    state: TupleState,
    clustered: bool,
}

/// Signal attached to a completed build, used to wake parked tuples.
enum UnparkSignal {
    AnyBuild(TableIdx),
    Eot {
        table: TableIdx,
        /// `None` = full-relation (scan) EOT.
        bindings: Option<Vec<(usize, Value)>>,
    },
}

enum Event {
    /// A module may begin its next queued envelope.
    Start(usize),
    /// A module finished an envelope: deliver its emissions.
    Complete(usize, Vec<Delivery>, Vec<UnparkSignal>),
    /// A scan emits its next row (or EOT).
    ScanEmit(usize),
    /// An index lookup entered service (fig-7(ii)'s probe counter).
    AmIssue(usize),
    /// An index lookup finished; deliver matches + EOT.
    AmResponse(usize, Vec<Value>),
    /// A later wave of a chunked index reply ([`IndexSpec::reply_chunk`]):
    /// tuples already produced by the lookup, arriving on the burst-gap
    /// cadence. The response event carved the reply and scheduled these;
    /// the AM itself is not consulted again.
    AmReplyWave(usize, Vec<Tuple>),
}

enum ParkKind {
    /// Unbuilt re-prober (§3.5): any build to the table may help.
    AnyBuild,
    /// Built prior prober awaiting coverage: only a matching EOT helps.
    Coverage(Vec<(usize, Value)>),
}

struct ParkedTuple {
    tuple: Tuple,
    state: TupleState,
    table: TableIdx,
    kind: ParkKind,
}

struct ModuleRt {
    queue: VecDeque<Envelope>,
    busy: bool,
}

/// A routing group: tuples sharing one legal candidate set, awaiting a
/// single policy decision. While the group is open it accumulates members;
/// once it flushes (fills up, or the wave ends) it becomes a *deferred
/// wave*. Queue-backlog hints are **not** captured at flush time: earlier
/// waves of the same delivery burst shift module backlogs between flush
/// and dispatch, so any snapshot taken here would go stale (ROADMAP
/// "hint freshness"). `Hint::est_cost_us` is computed only when the wave
/// is actually dequeued, in [`EddyExecutor::dispatch_group`].
struct RouteGroup {
    actions: Vec<Action>,
    batch: TupleBatch,
    states: Vec<TupleState>,
    clustered: bool,
    prioritized: bool,
}

/// The eddy executor. Build one with [`EddyExecutor::build`], run it to
/// completion with [`EddyExecutor::run`].
pub struct EddyExecutor {
    query: QuerySpec,
    config: ExecConfig,
    modules: Vec<Module>,
    rt: Vec<ModuleRt>,
    layout: PlanLayout,
    agenda: EventQueue<Event>,
    policy: Box<dyn RoutingPolicy>,
    rng: SimRng,
    now: Time,
    ts_counter: Timestamp,
    /// A simulation guard tripped: the executor stops stepping for good.
    halted: bool,
    /// The guard that halted us was `max_time` — the query's deadline —
    /// rather than `max_events`. The query server reaps deadline halts
    /// as `QueryStatus::TimedOut`.
    timed_out: bool,
    parked: Vec<ParkedTuple>,
    results: Vec<Tuple>,
    metrics: Metrics,
    events: u64,
    violations: Vec<String>,
    output_seen: FxHashSet<Tuple>,
    trace: Vec<crate::report::TraceEvent>,
    /// Reusable probe-reply arena: one per executor, cleared per probe
    /// envelope, so the steady-state reply path never allocates per tuple.
    reply_set: ProbeReplySet,
    /// Per table instance, the name of its `stem_bytes_{t}` series
    /// (formatted once, not per sample).
    stem_bytes_names: Vec<String>,
}

impl EddyExecutor {
    /// Instantiate the query (paper §2.2 steps 1–4) and seed the scans
    /// at virtual time 0 (step 5).
    pub fn build(catalog: &Catalog, query: &QuerySpec, config: ExecConfig) -> Result<Self> {
        let mut exec = Self::build_unseeded(catalog, query, config)?;
        exec.seed_scans(0);
        Ok(exec)
    }

    /// Instantiate without seeding the scans. The query server builds
    /// every query this way: it either seeds the private scans at the
    /// admission instant ([`Self::seed_scans`]) or drives the scans itself
    /// (one shared scan per source, fanned out to all interested queries)
    /// and feeds this executor through [`Self::deliver_folded_wave`] /
    /// [`Self::deliver_raw_wave`].
    pub(crate) fn build_unseeded(
        catalog: &Catalog,
        query: &QuerySpec,
        config: ExecConfig,
    ) -> Result<Self> {
        config
            .validate()
            .map_err(|e| StemsError::Schema(e.to_string()))?;
        if let Some(p) = &config.priority_pred {
            if !p.is_selection() {
                return Err(StemsError::Schema(
                    "priority predicate must be a selection".into(),
                ));
            }
        }
        let plan_opts = config.resolved_plan_opts();
        let (mut modules, layout) = instantiate(catalog, query, &plan_opts)?;
        // Attach a private verdict memo to every UDF SM — one cache per
        // distinct UDF spec, shared by same-spec SMs within the query
        // (a verdict function's memo entries are query-agnostic, keyed
        // only on input values). The server later *replaces* these cells
        // with registry-shared ones when folding compatible queries.
        if config.memo {
            let mut cells: Vec<(stems_types::UdfSpec, crate::memo::MemoCell)> = Vec::new();
            for &(_, mid) in &layout.sm_mids {
                let Module::Sm(sm) = &mut modules[mid] else {
                    continue;
                };
                let Some(&spec) = sm.pred.udf_spec() else {
                    continue;
                };
                let cell = match cells.iter().find(|(s, _)| *s == spec) {
                    Some((_, c)) => c.clone(),
                    None => {
                        let c = crate::memo::MemoCache::cell(
                            crate::memo::DEFAULT_MEMO_SHARDS,
                            config.memo_bytes,
                        );
                        cells.push((spec, c.clone()));
                        c
                    }
                };
                sm.set_memo(Some(cell));
            }
        }
        let rt = modules
            .iter()
            .map(|_| ModuleRt {
                queue: VecDeque::new(),
                busy: false,
            })
            .collect();
        let policy = config.policy.build();
        let rng = SimRng::new(config.seed);
        let mut exec = EddyExecutor {
            query: query.clone(),
            modules,
            rt,
            layout,
            agenda: EventQueue::new(),
            policy,
            rng,
            now: 0,
            ts_counter: 0,
            halted: false,
            timed_out: false,
            parked: Vec::new(),
            results: Vec::new(),
            metrics: Metrics::new(),
            events: 0,
            violations: Vec::new(),
            output_seen: FxHashSet::default(),
            trace: Vec::new(),
            reply_set: ProbeReplySet::new(),
            stem_bytes_names: (0..query.tables.len())
                .map(|t| format!("stem_bytes_{}", TableIdx(t as u8)))
                .collect(),
            config,
        };
        // Emission chunks are capped at the routing batch size — a larger
        // burst would only be split again at ingestion (the server clamps
        // its shared scans the same way).
        let batch_size = exec.config.batch_size;
        for &mid in &exec.layout.scan_mids {
            if let Module::ScanAm(scan) = &mut exec.modules[mid] {
                scan.clamp_chunk(batch_size);
            }
        }
        Ok(exec)
    }

    /// Step 5: seed tuples to the scans, with every scan's first emission
    /// scheduled relative to virtual time `at`.
    pub(crate) fn seed_scans(&mut self, at: Time) {
        for &mid in &self.layout.scan_mids {
            if let Module::ScanAm(scan) = &self.modules[mid] {
                self.agenda
                    .push(at + scan.first_emit_time(), Event::ScanEmit(mid));
            }
        }
    }

    /// Run to completion and produce the report.
    pub fn run(mut self) -> Report {
        while self.step() {}
        self.finish()
    }

    /// Process one event off the agenda. Returns `false` when the agenda
    /// is exhausted or a simulation guard (max_time / max_events)
    /// tripped — after which the executor is permanently halted. The
    /// query server interleaves many executors by stepping each one up to
    /// the global virtual time.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some((t, ev)) = self.agenda.pop() else {
            return false;
        };
        self.events += 1;
        if !self.advance_to(t) {
            return false;
        }
        if self.events > self.config.max_events {
            self.violations
                .push("max_events exceeded — possible routing livelock".into());
            self.halted = true;
            return false;
        }
        match ev {
            Event::Start(mid) => self.on_start(mid),
            Event::Complete(mid, deliveries, unpark) => self.on_complete(mid, deliveries, unpark),
            Event::ScanEmit(mid) => self.on_scan_emit(mid),
            Event::AmIssue(_mid) => {
                self.metrics.bump("index_probes", self.now, 1);
            }
            Event::AmResponse(mid, key) => self.on_am_response(mid, key),
            Event::AmReplyWave(mid, tuples) => self.on_am_reply_wave(mid, tuples),
        }
        true
    }

    /// Move the clock to `t` under the `max_time` guard — the one deadline
    /// check for stepped agenda events and server-delivered waves alike.
    /// Past the deadline the executor halts as timed out with `now` at the
    /// reap point (so `end_time` records when the deadline was detected),
    /// and the caller drops the event or wave: no work is done after the
    /// guard trips. Returns whether the caller may proceed.
    fn advance_to(&mut self, t: Time) -> bool {
        self.now = t;
        if self.config.max_time.is_some_and(|max| t > max) {
            self.halted = true;
            self.timed_out = true;
            return false;
        }
        true
    }

    /// Virtual time of the next pending event (`None` when drained or
    /// halted) — the server's merge key for interleaving executors.
    pub fn next_time(&self) -> Option<Time> {
        if self.halted {
            None
        } else {
            self.agenda.peek_time()
        }
    }

    /// Step every pending event up to and including virtual time `t`,
    /// returning the next pending time past the horizon (`None` when
    /// drained or halted). The server's per-wave batch: one call per
    /// executor per wave, so the drain loop reads each agenda head once
    /// instead of polling around every `step`.
    pub fn step_until(&mut self, t: Time) -> Option<Time> {
        loop {
            match self.next_time() {
                Some(nt) if nt <= t => {
                    self.step();
                }
                nt => return nt,
            }
        }
    }

    /// Current virtual time (last processed event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Produce the final report after the agenda drained.
    pub fn finish(mut self) -> Report {
        self.metrics.observe("end", self.now, 1.0);
        Report {
            results: self.results,
            metrics: self.metrics,
            end_time: self.now,
            events: self.events,
            violations: self.violations,
            policy_name: self.policy.name(),
            trace: self.trace,
        }
    }

    fn record(&mut self, kind: crate::report::TraceKind, tuple: &Tuple) {
        if self.config.trace && self.trace.len() < self.config.trace_limit {
            self.trace.push(crate::report::TraceEvent {
                t: self.now,
                kind,
                tuple: tuple.to_string(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_start(&mut self, mid: usize) {
        if self.rt[mid].busy {
            return;
        }
        let Some(env) = self.rt[mid].queue.pop_front() else {
            return;
        };
        self.rt[mid].busy = true;
        let (dur, deliveries, unpark) = self.process(mid, env);
        self.agenda.push(
            self.now + dur.max(1),
            Event::Complete(mid, deliveries, unpark),
        );
    }

    fn on_complete(&mut self, mid: usize, deliveries: Vec<Delivery>, unparks: Vec<UnparkSignal>) {
        self.rt[mid].busy = false;
        if !self.rt[mid].queue.is_empty() {
            self.agenda.push(self.now, Event::Start(mid));
        }
        self.after_build(deliveries, unparks);
    }

    /// The post-build step shared by completed module envelopes and
    /// server-built (folded) scan waves: sample total SteM memory if a
    /// build happened, route the emitted tuples, then route every parked
    /// tuple the build's signals wake.
    fn after_build(&mut self, deliveries: Vec<Delivery>, unparks: Vec<UnparkSignal>) {
        if unparks
            .iter()
            .any(|u| matches!(u, UnparkSignal::AnyBuild(_)))
        {
            // A build happened: sample total SteM memory (the fig-2
            // singleton-vs-intermediate storage comparison watches this).
            let total: usize = self
                .modules
                .iter()
                .filter_map(|m| match m {
                    Module::Stem(s) => Some(s.lock().approx_bytes()),
                    _ => None,
                })
                .sum();
            self.metrics
                .observe("stem_bytes_total", self.now, total as f64);
        }
        self.route_deliveries(deliveries);
        let mut woken = Vec::new();
        for sig in unparks {
            woken.append(&mut self.unpark(sig));
        }
        self.route_deliveries(woken);
    }

    fn on_scan_emit(&mut self, mid: usize) {
        let Module::ScanAm(scan) = &mut self.modules[mid] else {
            return;
        };
        let (batch, next) = scan.emit_next(self.now);
        if let Some(nt) = next {
            self.agenda.push(nt, Event::ScanEmit(mid));
        }
        let deliveries = self.ingest_scan_rows(batch);
        self.route_deliveries(deliveries);
    }

    fn on_am_response(&mut self, mid: usize, key: Vec<Value>) {
        let mut module = std::mem::replace(&mut self.modules[mid], Module::Hole);
        let mut next = None;
        let mut waves = Vec::new();
        if let Module::IndexAm(am) = &mut module {
            let tuples = am.respond(&key, &self.query);
            // The freed server picks up the next pending lookup
            // (prioritized first, §4.1).
            next = am.dequeue_pending(self.now);
            // A chunked-reply spec streams the answer back on the
            // burst-gap cadence; the default is one wave at `now`.
            waves = am.chunk_reply(tuples, self.now);
        }
        self.modules[mid] = module;
        if let Some((key2, start, complete)) = next {
            self.agenda.push(start, Event::AmIssue(mid));
            self.agenda.push(complete, Event::AmResponse(mid, key2));
        }
        self.metrics.bump("am_responses", self.now, 1);
        for (at, tuples) in waves {
            if at <= self.now {
                self.on_am_reply_wave(mid, tuples);
            } else {
                self.agenda.push(at, Event::AmReplyWave(mid, tuples));
            }
        }
    }

    /// One arrival wave of an index reply re-enters the eddy together:
    /// its matches share a destination and route as a batch. An unchunked
    /// reply is a single wave fired inline by the response event.
    fn on_am_reply_wave(&mut self, mid: usize, tuples: Vec<Tuple>) {
        let deliveries = tuples
            .into_iter()
            .map(|t| self.ingest(t, Some(mid)))
            .collect();
        self.route_deliveries(deliveries);
    }

    // ------------------------------------------------------------------
    // Module processing (at service start)
    // ------------------------------------------------------------------

    fn process(&mut self, mid: usize, env: Envelope) -> (u64, Vec<Delivery>, Vec<UnparkSignal>) {
        let mut module = std::mem::replace(&mut self.modules[mid], Module::Hole);
        let out = match (&mut module, env.purpose) {
            (Module::Stem(cell), Purpose::Build) => {
                let table = self.table_of_stem_mid(mid);
                let mut stem = cell.lock();
                if stem.instance != table {
                    stem.retarget(table);
                }
                self.process_build(&mut stem, env)
            }
            (Module::Stem(cell), Purpose::Probe) => {
                let table = self.table_of_stem_mid(mid);
                let mut stem = cell.lock();
                if stem.instance != table {
                    stem.retarget(table);
                }
                self.process_probe(&mut stem, env)
            }
            (Module::Sm(sm), Purpose::Select) => self.process_select(sm, env),
            (Module::IndexAm(am), Purpose::AmProbe(t)) => self.process_am_probe(mid, am, env, t),
            _ => {
                self.violations
                    .push(format!("envelope {:?} routed to wrong module", env.purpose));
                (1, Vec::new(), Vec::new())
            }
        };
        self.modules[mid] = module;
        out
    }

    /// The table instance whose SteM lives at module `mid` — derived from
    /// the layout rather than read off the SteM itself, because a shared
    /// SteM may currently be targeted at another query's instance
    /// numbering (the caller retargets it under the cell lock before
    /// operating; see [`crate::sharded::ShardedStem::retarget`]).
    fn table_of_stem_mid(&self, mid: usize) -> TableIdx {
        let t = self
            .layout
            .stem_mid
            .iter()
            .position(|m| *m == Some(mid))
            .expect("stem module not in layout");
        TableIdx(t as u8)
    }

    fn process_build(
        &mut self,
        stem: &mut crate::sharded::ShardedStem,
        env: Envelope,
    ) -> (u64, Vec<Delivery>, Vec<UnparkSignal>) {
        let table = stem.instance;
        let units = if self.config.costs.shard_parallel_service {
            stem.parallel_service_units(&env.batch, &self.query, false)
        } else {
            env.batch.len() as u64
        };
        let dur = self.config.costs.stem_build_us * units.max(1);
        let mut ts = self.ts_counter;
        let builds_before = stem.build_count();
        let results = stem.build_batch(&env.batch, &env.states, &mut ts);
        self.ts_counter = ts;
        let mut deliveries = Vec::new();
        let mut unparks = Vec::new();
        let mut any_fresh = false;
        for ((tuple, state), result) in env.batch.iter().zip(env.states).zip(results) {
            match result {
                BuildResult::Fresh(stamped) => {
                    self.observe_am_build(&state, true);
                    any_fresh = true;
                    deliveries.push(Delivery {
                        tuple: stamped,
                        state,
                        clustered: false,
                    });
                    unparks.push(UnparkSignal::AnyBuild(table));
                }
                BuildResult::Deferred => {
                    self.observe_am_build(&state, true);
                    unparks.push(UnparkSignal::AnyBuild(table));
                }
                BuildResult::Duplicate => {
                    self.observe_am_build(&state, false);
                    self.metrics.bump("duplicates_absorbed", self.now, 1);
                }
                BuildResult::Eot => {
                    if stem.scan_complete() && stem.deferred_len() > 0 {
                        // Grace mode: the build phase ended; release the
                        // withheld bounce-backs clustered by partition.
                        for (tuple, state) in stem.release_deferred() {
                            deliveries.push(Delivery {
                                tuple,
                                state,
                                clustered: true,
                            });
                        }
                    }
                    unparks.push(UnparkSignal::Eot {
                        table,
                        bindings: eot_bindings(&tuple.components()[0].row),
                    });
                }
            }
        }
        if any_fresh {
            self.observe_stem_mem(stem, builds_before);
        }
        // Collapse redundant AnyBuild signals: one wake-up per batch is
        // enough (parked tuples re-park if still not helped).
        let mut seen_any_build = false;
        unparks.retain(|u| match u {
            UnparkSignal::AnyBuild(_) => {
                let keep = !seen_any_build;
                seen_any_build = true;
                keep
            }
            UnparkSignal::Eot { .. } => true,
        });
        (dur, deliveries, unparks)
    }

    fn process_probe(
        &mut self,
        stem: &mut crate::sharded::ShardedStem,
        env: Envelope,
    ) -> (u64, Vec<Delivery>, Vec<UnparkSignal>) {
        let table = stem.instance;
        // Probe into the executor's reusable reply arena (taken out for
        // the borrow, restored below): no per-tuple `Vec`s are built.
        let mut reply_set = std::mem::take(&mut self.reply_set);
        reply_set.clear();
        stem.probe_batch_into(
            env.batch.as_slice(),
            &env.states,
            &self.query,
            &mut reply_set,
        );
        let stem_version = router::stem_version(stem);
        let probe_units = if self.config.costs.shard_parallel_service {
            stem.parallel_service_units(&env.batch, &self.query, true)
        } else {
            env.batch.len() as u64
        };
        let clustered = env.clustered;

        let mut deliveries: Vec<Delivery> = Vec::new();
        let (metas, mut results) = reply_set.metas_and_results();
        for ((tuple, state), reply) in env.batch.into_iter().zip(env.states).zip(metas) {
            self.policy.feedback(&Feedback::StemProbe {
                table,
                emitted: reply.len,
            });
            self.metrics.bump("stem_probes", self.now, 1);
            for (result, done) in results.by_ref().take(reply.len) {
                // Track intermediate-result formation per span size — the
                // §3.4 spanning-tree experiments watch these to see
                // progress continue while a source is stalled.
                self.metrics
                    .bump(SPAN_FORMED[result.span().len()], self.now, 1);
                let mut rstate = TupleState::for_result(done);
                rstate.prioritized = state.prioritized || self.is_prioritized(&result);
                deliveries.push(Delivery {
                    tuple: result,
                    state: rstate,
                    clustered: false,
                });
            }

            match reply.outcome {
                ProbeOutcome::Consumed => {
                    self.metrics.bump("probes_consumed", self.now, 1);
                }
                ProbeOutcome::Bounced(need) => {
                    let mut state = state;
                    state.mark_probed(table);
                    state.last_match_ts = state.last_match_ts.max(reply.observed_ts);
                    state.last_probe_version = stem_version;
                    match state.prior_prober {
                        // Re-bounce of an existing prior prober for the
                        // same table: once the need has weakened to
                        // Optional it never strengthens back to Required.
                        Some(pp) if pp.table == table => {
                            let need = if pp.need == CompletionNeed::Optional {
                                CompletionNeed::Optional
                            } else {
                                need
                            };
                            state.prior_prober = Some(PriorProber { table, need });
                        }
                        // A prior prober for a *different* table probed
                        // this SteM: the router must never allow that.
                        Some(pp) => {
                            self.violations.push(format!(
                                "ProbeCompletion violated: prior prober for {} probed {}",
                                pp.table, table
                            ));
                        }
                        None => {
                            state.prior_prober = Some(PriorProber { table, need });
                        }
                    }
                    self.metrics.bump("probes_bounced", self.now, 1);
                    deliveries.push(Delivery {
                        tuple,
                        state,
                        clustered: false,
                    });
                }
            }
        }
        drop(results);
        self.reply_set = reply_set;

        let base = self.config.costs.stem_probe_us * probe_units.max(1)
            + self.config.costs.per_match_us * deliveries.len() as u64;
        let dur = if clustered {
            ((base as f64) * self.config.costs.clustered_probe_discount).max(1.0) as u64
        } else {
            base
        };
        (dur, deliveries, Vec::new())
    }

    fn process_select(
        &mut self,
        sm: &crate::sm::Sm,
        env: Envelope,
    ) -> (u64, Vec<Delivery>, Vec<UnparkSignal>) {
        // Expensive UDF predicates take their own path: per-call cost
        // charging, envelope dedup, and the verdict memo. They are also
        // excluded from fusion chains (below) — fusing one would tangle
        // a milliseconds-scale call into a cheap comparison cascade and
        // bypass the dedup/memo accounting.
        if sm.is_udf() {
            return self.select_udf(sm, env);
        }
        // Conjunction fusion: sibling SMs pinned to the same table
        // instance whose predicate every envelope member is still eligible
        // for ride this pass, in ascending predicate order (the order the
        // fixed cascade would visit them in), each through its own cached
        // kernel. Members of one envelope share a candidate signature, so
        // their pending-selection sets agree; the per-member check below
        // is the safety net, not the common case.
        let siblings: Vec<&crate::sm::Sm> = if self.config.fuse_selections {
            self.layout
                .sm_mids
                .iter()
                .filter(|(pid, _)| *pid != sm.pred_id())
                .filter_map(|(_, mid)| match &self.modules[*mid] {
                    Module::Sm(other) => Some(other),
                    _ => None,
                })
                .filter(|other| {
                    let p = &other.pred;
                    !other.is_udf()
                        && p.tables() == sm.pred.tables()
                        && env.states.iter().all(|s| !s.done.contains(p.id))
                        && env.batch.iter().all(|t| p.evaluable_on(t.span()))
                })
                .collect()
        } else {
            Vec::new()
        };
        if siblings.is_empty() {
            // Nothing to fuse: the plain single-predicate kernel path,
            // with no per-tuple cascade bookkeeping.
            return self.select_single(sm, env);
        }
        let verdicts = sm.apply_batch_fused(&env.batch, &siblings);
        // Virtual cost: one SM service per member (exactly the unfused
        // charge) plus one per extra sibling evaluation actually performed
        // — fusion saves routing hops and envelopes, not predicate work.
        let total_evals: usize = verdicts.iter().map(|v| v.evals.len()).sum();
        let dur = self.config.costs.sm_us
            * (env.batch.len() + total_evals.saturating_sub(env.batch.len())).max(1) as u64;
        let mut deliveries = Vec::new();
        for ((tuple, mut state), fused) in env.batch.into_iter().zip(env.states).zip(verdicts) {
            for (pred, passed) in &fused.evals {
                self.metrics.bump("sm_applied", self.now, 1);
                self.policy.feedback(&Feedback::Selected {
                    pred: *pred,
                    passed: *passed,
                });
            }
            match fused.verdict {
                Some(true) => {
                    state.done = state.done.union(fused.passed);
                    deliveries.push(Delivery {
                        tuple,
                        state,
                        clustered: false,
                    });
                }
                Some(false) => {
                    self.metrics.bump("filtered", self.now, 1);
                }
                None => {
                    self.violations.push(format!(
                        "selection {} not evaluable on routed tuple",
                        sm.describe()
                    ));
                }
            }
        }
        self.metrics
            .bump("fused_selects", self.now, siblings.len() as u64);
        (dur, deliveries, Vec::new())
    }

    /// The unfused Select hop: apply exactly this SM's predicate to the
    /// whole envelope.
    fn select_single(
        &mut self,
        sm: &crate::sm::Sm,
        env: Envelope,
    ) -> (u64, Vec<Delivery>, Vec<UnparkSignal>) {
        let dur = self.config.costs.sm_us * env.batch.len().max(1) as u64;
        let verdicts = sm.apply_batch(&env.batch);
        let deliveries = self.apply_verdicts(sm, env, verdicts);
        (dur, deliveries, Vec::new())
    }

    /// Charge one SM's per-member verdicts: passing members continue with
    /// the predicate marked done, failing ones are filtered, and every
    /// evaluated member feeds `Selected` back to the policy.
    fn apply_verdicts(
        &mut self,
        sm: &crate::sm::Sm,
        env: Envelope,
        verdicts: Vec<Option<bool>>,
    ) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        for ((tuple, mut state), verdict) in env.batch.into_iter().zip(env.states).zip(verdicts) {
            let Some(passed) = verdict else {
                self.violations.push(format!(
                    "selection {} not evaluable on routed tuple",
                    sm.describe()
                ));
                continue;
            };
            self.metrics.bump("sm_applied", self.now, 1);
            self.policy.feedback(&Feedback::Selected {
                pred: sm.pred_id(),
                passed,
            });
            if passed {
                state.done.insert(sm.pred_id());
                deliveries.push(Delivery {
                    tuple,
                    state,
                    clustered: false,
                });
            } else {
                self.metrics.bump("filtered", self.now, 1);
            }
        }
        deliveries
    }

    /// The Select hop for an expensive UDF predicate: evaluate through
    /// the dedup/memo pipeline ([`crate::sm::Sm::apply_batch_udf`]),
    /// charge the configured per-call virtual latency only for verdicts
    /// actually *computed*, and feed the observed envelope cost back to
    /// the routing policy so benefit/cost ranking learns to defer
    /// expensive selections behind selective joins. Verdicts go through
    /// the same [`Self::apply_verdicts`] as [`Self::select_single`] —
    /// memo and dedup change time, never semantics.
    fn select_udf(
        &mut self,
        sm: &crate::sm::Sm,
        env: Envelope,
    ) -> (u64, Vec<Delivery>, Vec<UnparkSignal>) {
        let spec = *sm.pred.udf_spec().expect("select_udf on a UDF SM");
        let out = sm.apply_batch_udf(&env.batch, self.config.udf_dedup);
        let dur =
            self.config.costs.sm_us * env.batch.len().max(1) as u64 + spec.cost_us * out.computed;
        self.metrics.bump("udf_calls", self.now, out.computed);
        if out.memo.hits > 0 {
            self.metrics.bump("memo_hits", self.now, out.memo.hits);
        }
        if out.memo.misses > 0 {
            self.metrics.bump("memo_misses", self.now, out.memo.misses);
        }
        if out.memo.evictions > 0 {
            self.metrics
                .bump("memo_evictions", self.now, out.memo.evictions);
        }
        let rows = env.batch.len();
        let deliveries = self.apply_verdicts(sm, env, out.verdicts);
        // Observed cost: what this envelope actually charged, per row —
        // with an effective memo this decays toward `sm_us`, without one
        // it stays near `cost_us`, and the policy's EWMA tracks it.
        self.policy.feedback(&Feedback::SelectCost {
            pred: sm.pred_id(),
            rows,
            cost_us: dur,
        });
        (dur, deliveries, Vec::new())
    }

    fn process_am_probe(
        &mut self,
        mid: usize,
        am: &mut crate::am::IndexAm,
        env: Envelope,
        t: TableIdx,
    ) -> (u64, Vec<Delivery>, Vec<UnparkSignal>) {
        let dur = self.config.costs.am_accept_us * env.batch.len().max(1) as u64;
        let mut deliveries = Vec::new();
        for (tuple, mut state) in env.batch.into_iter().zip(env.states) {
            // One outcome per bound key — a multi-member IN binding fans
            // the probe out across member lookups.
            for (outcome, key) in am.probe(&tuple, t, &self.query, self.now, state.prioritized) {
                match outcome {
                    IndexProbeOutcome::Scheduled { start, complete } => {
                        self.agenda.push(start, Event::AmIssue(mid));
                        self.agenda.push(
                            complete,
                            Event::AmResponse(mid, key.expect("scheduled key")),
                        );
                    }
                    IndexProbeOutcome::Queued => {
                        self.metrics.bump("probes_queued", self.now, 1);
                    }
                    IndexProbeOutcome::Coalesced => {
                        self.metrics.bump("probes_coalesced", self.now, 1);
                    }
                    IndexProbeOutcome::Unbindable => {
                        self.violations
                            .push("router sent an unbindable probe to an index AM".into());
                    }
                }
            }
            // The AM asynchronously bounces back each probe tuple (Table 1).
            state.mark_am_probed(t);
            deliveries.push(Delivery {
                tuple,
                state,
                clustered: false,
            });
        }
        (dur, deliveries, Vec::new())
    }

    // ------------------------------------------------------------------
    // The eddy: ingestion, routing, output, parking
    // ------------------------------------------------------------------

    /// Wrap a singleton entering the dataflow from an AM.
    fn ingest(&mut self, tuple: Tuple, origin_am: Option<usize>) -> Delivery {
        let mut state = TupleState::new();
        state.origin_am = origin_am;
        state.prioritized = self.is_prioritized(&tuple);
        Delivery {
            tuple,
            state,
            clustered: false,
        }
    }

    /// Scan rows entering the dataflow — the one ingestion path for a
    /// private scan's emission and for both kinds of server-delivered
    /// wave. A wave enters routing together: same-span singletons share
    /// a candidate set, so they ride one envelope instead of exploding
    /// into per-row deliveries with per-row policy decisions.
    fn ingest_scan_rows(&mut self, rows: impl IntoIterator<Item = Tuple>) -> Vec<Delivery> {
        rows.into_iter()
            .map(|t| {
                if !t.is_eot() {
                    self.metrics.bump("scanned", self.now, 1);
                }
                self.ingest(t, None)
            })
            .collect()
    }

    fn is_prioritized(&self, tuple: &Tuple) -> bool {
        self.config
            .priority_pred
            .as_ref()
            .is_some_and(|p| p.eval(tuple) == Some(true))
    }

    /// Route a wave of tuples re-entering the eddy together.
    ///
    /// Per tuple (constraint side, paper Table 2): hop accounting, output
    /// detection, candidate computation, parking and retirement. Tuples
    /// whose legal candidate sets are identical are then grouped, and each
    /// group of up to `batch_size` tuples is routed by **one** policy
    /// decision into **one** module envelope — the batching that amortizes
    /// per-tuple adaptivity overhead. With `batch_size == 1` every group
    /// closes immediately and this is exactly the scalar routing loop.
    ///
    /// Groups flush into deferred waves (full groups first, in fill
    /// order, then the wave's leftovers) and are dispatched in that order
    /// after the whole wave is grouped; [`EddyExecutor::dispatch_group`]
    /// re-costs each wave's candidates at dequeue time.
    fn route_deliveries(&mut self, deliveries: Vec<Delivery>) {
        let cap = self.config.batch_size.max(1);
        let mut groups: Vec<RouteGroup> = Vec::new();
        let mut waves: Vec<RouteGroup> = Vec::new();
        for d in deliveries {
            let Delivery {
                tuple,
                mut state,
                clustered,
            } = d;
            state.hops += 1;
            if state.hops > self.config.max_hops {
                self.metrics.bump("hops_exceeded", self.now, 1);
                self.violations
                    .push("BoundedRepetition backstop hit (max_hops)".into());
                continue;
            }

            let acts: Vec<Action> = if tuple.is_eot() {
                // EOTs go straight to their table's SteM; they join the
                // same build group as sibling data rows so arrival order
                // into the SteM is preserved.
                let t = tuple.components()[0].table;
                match self.layout.stem_mid[t.as_usize()] {
                    Some(mid) => vec![Action::Build { mid, table: t }],
                    None => continue,
                }
            } else if tuple.span() == self.query.full_span()
                && state.done.is_superset_of(self.query.all_preds())
            {
                self.output(tuple, &state);
                continue;
            } else {
                match router::candidates(
                    &self.modules,
                    &self.layout,
                    &self.query,
                    &tuple,
                    &state,
                    self.config.probe_edges.as_deref(),
                ) {
                    Err(NoCandidates::Retire) => {
                        self.metrics.bump("retired", self.now, 1);
                        self.record(crate::report::TraceKind::Retire, &tuple);
                        continue;
                    }
                    Err(NoCandidates::Park { table }) => {
                        self.record(crate::report::TraceKind::Park { table }, &tuple);
                        self.park(tuple, state, table);
                        continue;
                    }
                    Ok(acts) => acts,
                }
            };

            // Find the open group with the same candidate signature, or
            // open a new one. Signature equality is what lets one policy
            // decision stand for every member.
            let prio = state.prioritized;
            match groups
                .iter_mut()
                .find(|g| g.actions == acts && g.clustered == clustered && g.prioritized == prio)
            {
                Some(g) => {
                    g.batch.push(tuple);
                    g.states.push(state);
                }
                None => groups.push(RouteGroup {
                    actions: acts,
                    batch: TupleBatch::single(tuple),
                    states: vec![state],
                    clustered,
                    prioritized: prio,
                }),
            }
            // A full group flushes immediately into the wave queue (with
            // cap 1 this degenerates to the scalar per-tuple loop,
            // preserving its decision order exactly).
            if let Some(i) = groups.iter().position(|g| g.batch.len() >= cap) {
                waves.push(groups.remove(i));
            }
        }
        waves.append(&mut groups);
        // Modules earlier dispatches of this burst routed into — any later
        // wave offering one of them had a stale flush-time backlog view.
        let mut touched: FxHashSet<usize> = FxHashSet::default();
        for g in waves {
            self.dispatch_group(g, &mut touched);
        }
    }

    /// Dispatch one deferred wave: a single policy decision, per-tuple
    /// constraint verification, one envelope. Candidate costs are
    /// **computed here, at dequeue time** — earlier dispatches of the
    /// same burst (`touched`) may have shifted module backlogs since the
    /// group flushed, and a decision taken on a flush-time snapshot would
    /// route into queues that no longer look like the estimate.
    fn dispatch_group(&mut self, group: RouteGroup, touched: &mut FxHashSet<usize>) {
        let RouteGroup {
            actions,
            batch,
            states,
            clustered,
            prioritized,
        } = group;
        // The RoutingPolicy contract requires non-empty batches; groups
        // only ever open around a first member, so an empty flush is an
        // engine bug, caught here rather than inside the policy.
        debug_assert!(
            !batch.is_empty(),
            "dispatch_group flushed an empty batch; RoutingPolicy::choose_batch requires ≥ 1 member"
        );
        debug_assert_eq!(batch.len(), states.len());
        // Observability: this wave's candidate set includes a module an
        // earlier wave of the same burst just routed into — a flush-time
        // backlog estimate would have been stale here.
        if actions
            .iter()
            .any(|a| a.mid().is_some_and(|m| touched.contains(&m)))
        {
            self.metrics.bump("hints_recosted", self.now, 1);
        }
        let pairs: Vec<(Action, Hint)> = actions
            .into_iter()
            .map(|a| {
                let h = self.hint_for(&a);
                (a, h)
            })
            .collect();
        let idx = if pairs.len() == 1 {
            0
        } else {
            self.policy
                .choose_batch(&batch, &states[0], &pairs, &mut self.rng)
        };
        let (action, _) = pairs[idx];
        if self.config.trace {
            for tuple in batch.iter().filter(|t| !t.is_eot()) {
                self.record(
                    crate::report::TraceKind::Route {
                        action: action.kind(),
                        table: match action {
                            Action::Build { table, .. }
                            | Action::ProbeStem { table, .. }
                            | Action::ProbeAm { table, .. } => Some(table),
                            _ => None,
                        },
                    },
                    tuple,
                );
            }
        }
        if self.config.check_constraints {
            // Constraints are per tuple: every member is verified against
            // the chosen action, not just a representative.
            for (tuple, state) in batch.iter().zip(&states) {
                if !tuple.is_eot() {
                    self.check_choice(tuple, state, &action);
                }
            }
        }
        let purpose = match action {
            Action::Drop => {
                self.metrics
                    .bump("policy_drops", self.now, batch.len() as u64);
                return;
            }
            Action::Build { .. } => Purpose::Build,
            Action::ProbeStem { .. } => Purpose::Probe,
            Action::Select { .. } => Purpose::Select,
            Action::ProbeAm { table, .. } => {
                self.metrics
                    .bump("am_probe_choices", self.now, batch.len() as u64);
                Purpose::AmProbe(table)
            }
        };
        let mid = action.mid().expect("drop handled above");
        self.metrics.bump("route_batches", self.now, 1);
        touched.insert(mid);
        self.enqueue(
            mid,
            Envelope {
                batch,
                states,
                purpose,
                clustered,
                prioritized,
            },
        );
    }

    fn enqueue(&mut self, mid: usize, env: Envelope) {
        // §4.1: prioritized tuples jump the queue so their partial results
        // surface sooner.
        if env.prioritized {
            self.rt[mid].queue.push_front(env);
        } else {
            self.rt[mid].queue.push_back(env);
        }
        if !self.rt[mid].busy {
            self.agenda.push(self.now, Event::Start(mid));
        }
    }

    fn output(&mut self, tuple: Tuple, state: &TupleState) {
        self.record(crate::report::TraceKind::Output, &tuple);
        if self.config.check_constraints && !self.output_seen.insert(tuple.clone()) {
            self.violations
                .push(format!("duplicate result emitted: {tuple}"));
        }
        self.metrics.bump("results", self.now, 1);
        if state.prioritized {
            self.metrics.bump("priority_results", self.now, 1);
        }
        self.results.push(tuple);
    }

    fn park(&mut self, tuple: Tuple, state: TupleState, table: TableIdx) {
        let all_built = tuple
            .components()
            .iter()
            .all(|c| c.ts != stems_types::UNBUILT_TS);
        let kind = if all_built {
            // Compute the coverage bindings this tuple is waiting for.
            let linking: Vec<&Predicate> = self
                .query
                .preds_linking(tuple.span(), table)
                .into_iter()
                .map(|id| self.query.predicate(id))
                .collect();
            let mut bindings = crate::stem::probe_bindings(&linking, &tuple, table, &self.query);
            // Multi-member IN probes wait on one EOT per member: any
            // member's EOT must wake the tuple so the SteM can re-judge
            // coverage (it requires *all* members before consuming).
            for (col, vals) in crate::stem::in_list_options(&self.query, table) {
                for v in vals {
                    bindings.push((col, v));
                }
            }
            ParkKind::Coverage(bindings)
        } else {
            ParkKind::AnyBuild
        };
        self.metrics.bump("parked", self.now, 1);
        self.parked.push(ParkedTuple {
            tuple,
            state,
            table,
            kind,
        });
    }

    /// Wake parked tuples matched by the signal; the caller routes the
    /// returned wave (batched with any siblings).
    fn unpark(&mut self, sig: UnparkSignal) -> Vec<Delivery> {
        let woken: Vec<ParkedTuple> = match &sig {
            UnparkSignal::AnyBuild(t) => {
                let mut woken = Vec::new();
                let mut keep = Vec::new();
                for p in self.parked.drain(..) {
                    if p.table == *t && matches!(p.kind, ParkKind::AnyBuild) {
                        woken.push(p);
                    } else {
                        keep.push(p);
                    }
                }
                self.parked = keep;
                woken
            }
            UnparkSignal::Eot { table, bindings } => {
                let mut woken = Vec::new();
                let mut keep = Vec::new();
                for p in self.parked.drain(..) {
                    let wake = p.table == *table
                        && match (&p.kind, bindings) {
                            (ParkKind::AnyBuild, _) => true,
                            (ParkKind::Coverage(_), None) => true,
                            (ParkKind::Coverage(pb), Some(eb)) => eb.iter().all(|b| pb.contains(b)),
                        };
                    if wake {
                        woken.push(p);
                    } else {
                        keep.push(p);
                    }
                }
                self.parked = keep;
                woken
            }
        };
        woken
            .into_iter()
            .map(|p| {
                self.metrics.bump("unparked", self.now, 1);
                Delivery {
                    tuple: p.tuple,
                    state: p.state,
                    clustered: false,
                }
            })
            .collect()
    }

    /// Rough cost estimate per candidate action — queue backlog plus one
    /// service (for AMs: lookup latency and server backlog).
    fn hint_for(&self, a: &Action) -> Hint {
        let c = &self.config.costs;
        let est = match a {
            Action::Build { mid, .. } => c.stem_build_us * (1 + self.rt[*mid].queue.len() as u64),
            Action::ProbeStem { mid, .. } => {
                c.stem_probe_us * (1 + self.rt[*mid].queue.len() as u64)
            }
            Action::Select { mid, .. } => {
                // Expensive UDF predicates carry a declared per-verdict
                // latency on top of the SM service cost. The hint stays a
                // static worst case (memo/dedup savings are reported back
                // through `Feedback::SelectCost` instead) so routing
                // decisions are identical across memo configurations.
                let per_row = match &self.modules[*mid] {
                    Module::Sm(sm) => c.sm_us + sm.pred.udf_spec().map_or(0, |s| s.cost_us),
                    _ => c.sm_us,
                };
                per_row * (1 + self.rt[*mid].queue.len() as u64)
            }
            Action::ProbeAm { mid, .. } => {
                let backlog = match &self.modules[*mid] {
                    Module::IndexAm(am) => am.queue_delay(self.now) + am.spec.latency_us,
                    _ => 0,
                };
                backlog + c.am_accept_us * (1 + self.rt[*mid].queue.len() as u64)
            }
            Action::Drop => 1,
        };
        Hint { est_cost_us: est }
    }

    /// Extra runtime verification of the Table 2 constraints (tests only).
    fn check_choice(&mut self, tuple: &Tuple, state: &TupleState, action: &Action) {
        // BuildFirst: an unbuilt singleton from a build-required table may
        // only build.
        if tuple.is_singleton() {
            let t = tuple.components()[0].table;
            let unbuilt = tuple.components()[0].ts == stems_types::UNBUILT_TS;
            if unbuilt
                && self.layout.build_required[t.as_usize()]
                && !matches!(action, Action::Build { .. })
            {
                self.violations
                    .push(format!("BuildFirst violated for {tuple}"));
            }
        }
        // ProbeCompletion: prior probers only touch their completion table.
        if let Some(pp) = state.prior_prober {
            match action {
                Action::ProbeStem { table, .. } | Action::ProbeAm { table, .. }
                    if *table != pp.table =>
                {
                    self.violations.push(format!(
                        "ProbeCompletion violated: {tuple} bound to {} routed to {table}",
                        pp.table
                    ));
                }
                Action::Drop if state.completion_required() => {
                    self.violations
                        .push(format!("required prior prober {tuple} dropped by policy"));
                }
                _ => {}
            }
        }
    }

    fn observe_am_build(&mut self, state: &TupleState, fresh: bool) {
        if let Some(mid) = state.origin_am {
            self.policy.feedback(&Feedback::AmBuild { mid, fresh });
            if fresh {
                self.metrics.bump("am_fresh_builds", self.now, 1);
            } else {
                self.metrics.bump("am_dup_builds", self.now, 1);
            }
        }
    }

    /// Sample a SteM's footprint after an envelope with fresh builds, once
    /// per envelope whose builds crossed a multiple of 64 (sampled
    /// sparsely to keep the series small; one-row envelopes sample at
    /// every 64th build).
    fn observe_stem_mem(&mut self, stem: &crate::sharded::ShardedStem, builds_before: u64) {
        if builds_before / 64 != stem.build_count() / 64 {
            self.metrics.observe(
                &self.stem_bytes_names[stem.instance.as_usize()],
                self.now,
                stem.approx_bytes() as f64,
            );
        }
    }

    // ------------------------------------------------------------------
    // Query-server hooks (SteM folding, server-driven scans)
    // ------------------------------------------------------------------

    /// Current global-timestamp counter (the server threads one counter
    /// through every folded executor so TimeStamp comparisons agree with
    /// the shared SteMs' stamps).
    pub(crate) fn ts_counter(&self) -> Timestamp {
        self.ts_counter
    }

    pub(crate) fn set_ts_counter(&mut self, ts: Timestamp) {
        self.ts_counter = ts;
    }

    /// Tighten this executor's deadline to `max(now) <= t` — the server
    /// resolves per-query deadlines (submission deadline, server
    /// default) to absolute virtual time at admission and installs the
    /// minimum here, so one mechanism (the `max_time` guard in
    /// [`Self::step`] and the wave-delivery paths) enforces them all.
    pub(crate) fn clamp_max_time(&mut self, t: Time) {
        let max = self.config.max_time.get_or_insert(t);
        *max = (*max).min(t);
    }

    /// The executor halted because its `max_time` deadline passed (not
    /// `max_events`): the server retires it as timed out.
    pub(crate) fn hit_deadline(&self) -> bool {
        self.timed_out
    }

    /// Whether instance `t` has a SteM in this plan (`no_stem`-relaxed
    /// instances do not). The server uses this to decide whether an
    /// executor can ever consume global build timestamps: only
    /// stem-bearing instances *not* folded onto a shared entry route
    /// private Build envelopes, and only those consume the counter — an
    /// executor with none is timestamp-independent and safe to step in
    /// parallel with its peers.
    pub(crate) fn has_stem(&self, t: TableIdx) -> bool {
        self.layout.stem_mid[t.as_usize()].is_some()
    }

    /// Replace instance `t`'s SteM with a shared cell from the server's
    /// registry: this executor's probes now hit the SteM another query
    /// built (and its own builds would land there too — the server only
    /// folds instances whose builds it takes over, so the router never
    /// offers a Build here).
    pub(crate) fn fold_stem(&mut self, t: TableIdx, cell: &crate::plan::StemCell) {
        let mid = self.layout.stem_mid[t.as_usize()].expect("folding a no-stem instance");
        self.modules[mid] = Module::Stem(cell.share());
    }

    /// Whether this executor memoizes UDF verdicts ([`ExecConfig::memo`]):
    /// the server only folds memo cells between queries that both opted
    /// in, so a memo-off query keeps paying full price — and keeps its
    /// bit-identical memo-off timeline.
    pub(crate) fn memo_enabled(&self) -> bool {
        self.config.memo
    }

    /// The distinct UDF specs among this query's selection predicates —
    /// the server's memo-folding identities. A verdict is a pure function
    /// of (spec, input value), so any two queries running the same spec
    /// can share one cache regardless of which column or table they
    /// filter.
    pub(crate) fn udf_specs(&self) -> Vec<stems_types::UdfSpec> {
        let mut specs = Vec::new();
        for &(_, mid) in &self.layout.sm_mids {
            if let Module::Sm(sm) = &self.modules[mid] {
                if let Some(&spec) = sm.pred.udf_spec() {
                    if !specs.contains(&spec) {
                        specs.push(spec);
                    }
                }
            }
        }
        specs
    }

    /// Replace every `spec`-matching SM's memo cell with a shared one
    /// from the server's registry — the memo analogue of
    /// [`Self::fold_stem`]: query B never re-pays a verdict query A
    /// bought. Only meaningful when [`ExecConfig::memo`] is on.
    pub(crate) fn fold_memo(&mut self, spec: stems_types::UdfSpec, cell: &crate::memo::MemoCell) {
        for i in 0..self.layout.sm_mids.len() {
            let mid = self.layout.sm_mids[i].1;
            if let Module::Sm(sm) = &mut self.modules[mid] {
                if sm.pred.udf_spec() == Some(&spec) {
                    sm.set_memo(Some(cell.clone()));
                }
            }
        }
    }

    /// Deliver one shared-scan wave for a *folded* instance: the server
    /// already built `stamped` into the shared SteM (dedup happened
    /// there), so the tuples enter this query's dataflow exactly where a
    /// private build would have dropped them — stamped, then through the
    /// same post-build step as a completed build envelope, with the
    /// AnyBuild/Eot wake-ups a private build would have raised. `eot`
    /// marks the final wave (scan complete).
    pub(crate) fn deliver_folded_wave(
        &mut self,
        now: Time,
        table: TableIdx,
        stamped: &[Tuple],
        eot: bool,
    ) {
        if self.halted || !self.advance_to(now) {
            return;
        }
        let deliveries = self.ingest_scan_rows(stamped.iter().cloned());
        let mut unparks = Vec::new();
        if !stamped.is_empty() {
            unparks.push(UnparkSignal::AnyBuild(table));
        }
        if eot {
            unparks.push(UnparkSignal::Eot {
                table,
                bindings: None,
            });
        }
        self.after_build(deliveries, unparks);
    }

    /// Deliver one shared-scan wave for an *unfolded* (private-SteM)
    /// instance: exactly what [`Self::on_scan_emit`] would have done had
    /// this executor owned the scan — the rows (EOT markers included)
    /// enter unstamped and route to this query's own SteM for building.
    pub(crate) fn deliver_raw_wave(&mut self, now: Time, tuples: Vec<Tuple>) {
        if self.halted || !self.advance_to(now) {
            return;
        }
        let deliveries = self.ingest_scan_rows(tuples);
        self.route_deliveries(deliveries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BenefitCostPolicy;
    use stems_catalog::{ScanSpec, TableDef, TableInstance};
    use stems_types::{CmpOp, ColRef, ColumnType, PredId, Schema};

    #[test]
    fn span_formed_names_match_their_index() {
        for (n, name) in SPAN_FORMED.iter().enumerate() {
            assert_eq!(*name, format!("span{n}_formed"));
        }
    }

    /// Star query R ⋈ S, R ⋈ T on column `a` — gives a bounced R tuple two
    /// competing SteM-probe candidates.
    fn star3() -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int), ("a", ColumnType::Int)]);
        let mut sources = Vec::new();
        for name in ["R", "S", "T"] {
            let rows = (0..8i64).map(|i| vec![i.into(), (i % 3).into()]).collect();
            let id = c
                .add_table(TableDef::new(name, schema.clone()).with_rows(rows))
                .unwrap();
            c.add_scan(id, ScanSpec::default()).unwrap();
            sources.push(id);
        }
        let q = QuerySpec::new(
            &c,
            sources
                .iter()
                .zip(["r", "s", "t"])
                .map(|(src, a)| TableInstance {
                    source: *src,
                    alias: a.into(),
                })
                .collect(),
            vec![
                Predicate::join(
                    PredId(0),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 1),
                ),
                Predicate::join(
                    PredId(1),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(2), 1),
                ),
            ],
            None,
        )
        .unwrap();
        (c, q)
    }

    fn dummy_env() -> Envelope {
        Envelope {
            batch: TupleBatch::new(),
            states: Vec::new(),
            purpose: Purpose::Probe,
            clustered: false,
            prioritized: false,
        }
    }

    /// The hint-freshness guard: `dispatch_group` computes candidate
    /// costs only at dequeue. The test materializes the snapshot a
    /// flush-time capture *would* have taken, shifts the backlog the way
    /// earlier dispatches of a burst do, and shows the snapshot-fed
    /// decision differs from the dispatch-time one — i.e. re-costing at
    /// dequeue changes the chosen action under a shifted backlog, which
    /// is why no flush-time snapshot may ever reach the policy.
    #[test]
    fn recosting_at_dispatch_changes_choice_under_shifted_backlog() {
        let (catalog, query) = star3();
        let config = ExecConfig {
            policy: RoutingPolicyKind::BenefitCost {
                epsilon: 0.0,
                drop_rate: 0.0,
            },
            ..ExecConfig::default()
        };
        let mut exec = EddyExecutor::build(&catalog, &query, config).unwrap();
        let m1 = exec.layout.stem_mid[1].expect("S SteM");
        let m2 = exec.layout.stem_mid[2].expect("T SteM");
        let actions = vec![
            Action::ProbeStem {
                mid: m1,
                table: TableIdx(1),
            },
            Action::ProbeStem {
                mid: m2,
                table: TableIdx(2),
            },
        ];
        // Flush-time backlog: m2 busy, m1 free — the snapshot favors m1.
        for _ in 0..6 {
            exec.rt[m2].queue.push_back(dummy_env());
        }
        let flushed: Vec<Hint> = actions.iter().map(|a| exec.hint_for(a)).collect();
        // The backlog shifts before the wave is dequeued: m2 drains, m1
        // fills (earlier waves of the same burst routed into it).
        exec.rt[m2].queue.clear();
        for _ in 0..6 {
            exec.rt[m1].queue.push_back(dummy_env());
        }

        // A decision taken on the stale snapshot would route to m1 …
        let tuple = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Int(1)])
            .with_timestamp(TableIdx(0), 1);
        let stale_pairs: Vec<(Action, Hint)> = actions
            .iter()
            .copied()
            .zip(flushed.iter().copied())
            .collect();
        let mut stale_policy = BenefitCostPolicy::new(0.0, 0.0);
        let stale = stale_policy.choose(
            &tuple,
            &TupleState::new(),
            &stale_pairs,
            &mut SimRng::new(1),
        );
        assert!(
            matches!(stale_pairs[stale].0, Action::ProbeStem { mid, .. } if mid == m1),
            "stale snapshot should favor the then-empty m1"
        );

        // … but the dispatcher costs at dequeue and routes to m2. The
        // backlog shift came from earlier dispatches of the same burst
        // (`touched`), which also drives the staleness counter.
        let before = exec.rt[m1].queue.len();
        let mut touched = FxHashSet::default();
        touched.insert(m1);
        exec.dispatch_group(
            RouteGroup {
                actions,
                batch: TupleBatch::single(tuple),
                states: vec![TupleState::new()],
                clustered: false,
                prioritized: false,
            },
            &mut touched,
        );
        assert_eq!(
            exec.rt[m2].queue.len(),
            1,
            "re-costed decision must route to the now-cheaper module"
        );
        assert_eq!(
            exec.rt[m1].queue.len(),
            before,
            "m1 must not receive the wave"
        );
        assert_eq!(exec.metrics.counter("hints_recosted"), 1);
        // The dispatched wave's destination joins the touched set, so a
        // following wave offering m2 would count as re-costed too.
        assert!(touched.contains(&m2));
    }

    /// A 64-row envelope of fresh builds records exactly one
    /// `stem_bytes_{t}` point: the footprint is sampled once per envelope
    /// that crosses a multiple of 64 builds, not once per fresh row.
    #[test]
    fn stem_memory_is_sampled_once_per_envelope() {
        let (catalog, query) = star3();
        let mut exec = EddyExecutor::build(&catalog, &query, ExecConfig::default()).unwrap();
        let mid = exec.layout.stem_mid[1].expect("S SteM");
        let envelope = |from: i64, n: i64| {
            let batch: TupleBatch = (from..from + n)
                .map(|i| Tuple::singleton_of(TableIdx(1), vec![Value::Int(i), Value::Int(i)]))
                .collect();
            Envelope {
                states: vec![TupleState::new(); batch.len()],
                batch,
                purpose: Purpose::Build,
                clustered: false,
                prioritized: false,
            }
        };
        let points =
            |exec: &EddyExecutor| exec.metrics.series("stem_bytes_t1").map_or(0, |s| s.len());
        exec.process(mid, envelope(100, 64));
        assert_eq!(points(&exec), 1, "one 64-row fresh envelope, one point");
        // 63 more builds stay below the next multiple of 64 …
        exec.process(mid, envelope(200, 63));
        assert_eq!(points(&exec), 1);
        // … and an envelope crossing two (128 and 192) samples once.
        exec.process(mid, envelope(300, 65));
        assert_eq!(points(&exec), 2);
    }

    /// Selection-heavy workload for the fusion tests: two selections over
    /// R plus a join, so a fused Select hop can retire both predicates.
    fn sel2() -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let r = c
            .add_table(
                TableDef::new(
                    "R",
                    Schema::of(&[
                        ("k", ColumnType::Int),
                        ("u", ColumnType::Int),
                        ("v", ColumnType::Int),
                    ]),
                )
                .with_rows(
                    (0..40i64)
                        .map(|i| vec![i.into(), (i % 4).into(), (i % 3).into()])
                        .collect(),
                ),
            )
            .unwrap();
        let s = c
            .add_table(
                TableDef::new("S", Schema::of(&[("k", ColumnType::Int)]))
                    .with_rows((0..40i64).map(|i| vec![i.into()]).collect()),
            )
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
            vec![
                Predicate::join(
                    PredId(0),
                    ColRef::new(TableIdx(0), 0),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 0),
                ),
                Predicate::selection(
                    PredId(1),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Lt,
                    Value::Int(2),
                ),
                Predicate::selection(
                    PredId(2),
                    ColRef::new(TableIdx(0), 2),
                    CmpOp::Lt,
                    Value::Int(2),
                ),
            ],
            None,
        )
        .unwrap();
        (c, q)
    }

    /// Fused and unfused runs must emit the same result multiset, and —
    /// under the deterministic fixed policy, whose cascade order equals
    /// the fused chain order — the same per-predicate evaluation count
    /// (`Feedback::Selected` parity with the scalar cascade), while the
    /// fused run schedules no more events.
    #[test]
    fn fused_selections_match_unfused_cascade() {
        let (catalog, query) = sel2();
        let run = |fuse: bool| {
            let config = ExecConfig {
                fuse_selections: fuse,
                check_constraints: true,
                ..ExecConfig::default()
            };
            EddyExecutor::build(&catalog, &query, config)
                .expect("plan")
                .run()
        };
        let fused = run(true);
        let unfused = run(false);
        assert!(fused.violations.is_empty(), "{:?}", fused.violations);
        assert!(unfused.violations.is_empty(), "{:?}", unfused.violations);
        assert_eq!(
            fused.canonical(&catalog, &query),
            unfused.canonical(&catalog, &query)
        );
        // And both must match the reference nested-loop executor.
        let expected = stems_catalog::reference::canonical(
            &catalog,
            &query,
            &stems_catalog::reference::execute(&catalog, &query),
        );
        assert_eq!(fused.canonical(&catalog, &query), expected);
        assert_eq!(
            fused.counter("sm_applied"),
            unfused.counter("sm_applied"),
            "fusion must evaluate exactly what the cascade evaluates"
        );
        assert_eq!(fused.counter("filtered"), unfused.counter("filtered"));
        assert!(fused.counter("fused_selects") > 0, "fusion never engaged");
        assert_eq!(unfused.counter("fused_selects"), 0);
        assert!(
            fused.events <= unfused.events,
            "fusion must not schedule more events ({} vs {})",
            fused.events,
            unfused.events
        );
    }
}
