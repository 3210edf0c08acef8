//! One repetition of a workload: set-up, the timed query set, and the
//! result check.
//!
//! Set-up is catalog registration from the generated rows, SQL parsing,
//! and either `EddyExecutor::build` of every query (solo workloads) or
//! `ServerBuilder::build` plus every `submit` (`server_fold`). The timed
//! part runs the query set: solo queries one after another, each to
//! completion; the server's whole batch in one `serve`. Checking happens
//! after the clock stops.

use crate::check::{self, Expected};
use crate::trace::{span, StepFold, Tracer};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::time::Instant;
use stems_catalog::{Catalog, QuerySpec};
use stems_core::{EddyExecutor, QueryServer, QueryStatus, Report, ServerStats, Submission};
use stems_sim::Time;

/// What one repetition measured. Every per-layer figure of a traced run
/// is taken from a single `Rep`, never mixed across repetitions.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Per-query wall time (solo workloads only).
    pub query_wall_s: Vec<f64>,
    /// Per-query virtual latency: `Report::end_time`, or
    /// `ServerReport::latency` on the server.
    pub virtual_latency_us: Vec<Time>,
    /// Per-query `Report::time_to_fraction(0.5)` from admission (queries
    /// with results).
    pub t50_us: Vec<Time>,
    pub attempted: usize,
    pub failed: usize,
    /// `Report::counter` summed over the queries.
    pub counters: BTreeMap<String, u64>,
    pub events: u64,
    pub results: u64,
    /// Points across every `Report::metrics` series.
    pub series_points: u64,
    pub stats: Option<ServerStats>,
    pub tracer: Option<Tracer>,
}

impl Rep {
    fn new(setup_s: f64, wall_s: f64, tracer: Option<Tracer>) -> Rep {
        Rep {
            setup_s,
            wall_s,
            query_wall_s: Vec::new(),
            virtual_latency_us: Vec::new(),
            t50_us: Vec::new(),
            attempted: 0,
            failed: 0,
            counters: BTreeMap::new(),
            events: 0,
            results: 0,
            series_points: 0,
            stats: None,
            tracer,
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record one query. `report` is `None` when the query never
    /// completed; `ok` is the status check. Report times are on the
    /// server's shared clock, so they count from `admitted_at`.
    fn record(
        &mut self,
        report: Option<&Report>,
        admitted_at: Time,
        latency: Time,
        ok: bool,
        check: impl FnOnce(&Report) -> bool,
    ) {
        self.attempted += 1;
        let Some(report) = report else {
            self.failed += 1;
            return;
        };
        if !(ok && report.violations.is_empty() && check(report)) {
            self.failed += 1;
        }
        self.virtual_latency_us.push(latency);
        if let Some(t) = report.time_to_fraction(0.5) {
            self.t50_us.push(t.saturating_sub(admitted_at));
        }
        self.events += report.events;
        self.results += report.results.len() as u64;
        for name in report.metrics.series_names() {
            self.series_points += report.metrics.series(name).map_or(0, |s| s.len()) as u64;
            *self.counters.entry(name.to_string()).or_default() += report.counter(name);
        }
    }
}

/// The oracle's answers, computed once per process before any timing.
pub struct Checker {
    expected: Vec<Expected>,
}

impl Checker {
    pub fn new(w: &Workload) -> Result<Checker, String> {
        let catalog = w.register();
        let queries = parse_all(w, &catalog, &mut None)?;
        Ok(Checker {
            expected: check::expected(w, &catalog, &queries),
        })
    }
}

fn parse_all(
    w: &Workload,
    catalog: &Catalog,
    tracer: &mut Option<Tracer>,
) -> Result<Vec<QuerySpec>, String> {
    w.sql
        .iter()
        .enumerate()
        .map(|(i, sql)| {
            span(tracer, "parse_query", Some(i), || {
                stems_sql::parse_query(catalog, sql)
            })
            .map_err(|e| format!("query {i} ({sql}): {e}"))
        })
        .collect()
}

/// Run one repetition. With `execute: false` only set-up runs (extra
/// set-up samples); the returned `Rep` then has no queries.
pub fn rep(w: &Workload, checker: &Checker, trace: bool, execute: bool) -> Result<Rep, String> {
    if w.kind.served() {
        served_rep(w, checker, trace, execute)
    } else {
        solo_rep(w, checker, trace, execute)
    }
}

fn solo_rep(w: &Workload, checker: &Checker, trace: bool, execute: bool) -> Result<Rep, String> {
    let mut tracer = trace.then(Tracer::new);
    let t0 = Instant::now();
    let catalog = span(&mut tracer, "Workload::register", None, || w.register());
    let queries = parse_all(w, &catalog, &mut tracer)?;
    let mut execs = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let exec = span(&mut tracer, "EddyExecutor::build", Some(i), || {
            EddyExecutor::build(&catalog, q, w.config.clone())
        })
        .map_err(|e| format!("query {i}: build failed: {e}"))?;
        execs.push(exec);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    if !execute {
        return Ok(Rep::new(setup_s, 0.0, None));
    }

    let mut reports = Vec::with_capacity(execs.len());
    let mut query_wall_s = Vec::with_capacity(execs.len());
    let t1 = Instant::now();
    for (i, mut exec) in execs.into_iter().enumerate() {
        let tq = Instant::now();
        let report = match &mut tracer {
            None => exec.run(),
            Some(tr) => {
                let run = tr.begin("query", Some(i), None);
                let mut steps = StepFold::default();
                loop {
                    let s = tr.now_ns();
                    let more = exec.step();
                    steps.add(s, tr.now_ns());
                    if !more {
                        break;
                    }
                }
                tr.push_fold("EddyExecutor::step", Some(i), Some(run), steps);
                let fin = tr.begin("EddyExecutor::finish", Some(i), Some(run));
                let report = exec.finish();
                tr.end(fin);
                tr.end(run);
                report
            }
        };
        query_wall_s.push(tq.elapsed().as_secs_f64());
        reports.push(report);
    }
    let wall_s = t1.elapsed().as_secs_f64();

    let mut rep = Rep::new(setup_s, wall_s, tracer);
    rep.query_wall_s = query_wall_s;
    for ((report, q), exp) in reports.iter().zip(&queries).zip(&checker.expected) {
        rep.record(Some(report), 0, report.end_time, true, |r| {
            check::check(exp, r, &catalog, q).is_exact()
        });
    }
    Ok(rep)
}

fn served_rep(w: &Workload, checker: &Checker, trace: bool, execute: bool) -> Result<Rep, String> {
    let mut tracer = trace.then(Tracer::new);
    let t0 = Instant::now();
    let catalog = span(&mut tracer, "Workload::register", None, || w.register());
    let queries = parse_all(w, &catalog, &mut tracer)?;
    let mut server = span(&mut tracer, "ServerBuilder::build", None, || {
        QueryServer::builder(&catalog)
            .config(w.config.clone())
            .build()
    })
    .map_err(|e| format!("server build failed: {e}"))?;
    for (i, q) in queries.iter().enumerate() {
        let submission = Submission::new(q.clone()).at(w.admit_at[i]);
        span(&mut tracer, "QueryServer::submit", Some(i), || {
            server.submit(submission)
        })
        .map_err(|e| format!("query {i}: submit failed: {e}"))?;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    if !execute {
        return Ok(Rep::new(setup_s, 0.0, None));
    }

    let t1 = Instant::now();
    let (handles, stats) = span(&mut tracer, "QueryServer::serve", None, || server.serve());
    let wall_s = t1.elapsed().as_secs_f64();

    let mut rep = Rep::new(setup_s, wall_s, tracer);
    rep.stats = Some(stats);
    for h in &handles {
        let i = h.id.0;
        let sr = h.report.as_ref();
        rep.record(
            sr.map(|sr| &sr.report),
            sr.map_or(0, |sr| sr.admitted_at),
            sr.map_or(0, |sr| sr.latency()),
            h.status == QueryStatus::Completed,
            |r| check::check(&checker.expected[i], r, &catalog, &queries[i]).is_exact(),
        );
    }
    Ok(rep)
}
