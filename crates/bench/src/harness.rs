//! The shared harness of the `bench_*` binaries.
//!
//! Every perf-trajectory binary (one `BENCH_*.json` each) is the same
//! pipeline: read the workload knobs, run each series of a workload
//! several times, keep the median run, check that every series returned
//! the same result multiset, and write one JSON document that
//! `tools/bench_check.py` gates on. This module is that pipeline, once:
//!
//! * [`BenchEnv`] — `STEMS_BENCH_ROWS` / `STEMS_BENCH_RUNS` /
//!   `STEMS_BENCH_OUT`, the host's `cores` and the ambient `workers`.
//! * [`run_series`] — the round-robin run loop and the `result_hash`
//!   check; [`eddy_run`] is the timed engine run most series use.
//! * [`Fields`] / [`Body`] / [`BenchEnv::write`] — the JSON writer.
//! * [`chain3_workload`] / [`chain3_stem_run`] — the direct chain3 SteM
//!   build+probe driver behind `BENCH_4` and `BENCH_6`;
//!   [`sel3_chain_workload`] — the selection chain of `BENCH_2`/`BENCH_3`.

use std::fmt::{Display, Write as _};
use std::time::Instant;
use stems_catalog::{Catalog, QuerySpec, ScanSpec, SourceId};
use stems_core::stem::{BuildResult, ProbeReplySet};
use stems_core::{
    EddyExecutor, ExecConfig, RoutingPolicyKind, ShardedStem, StemOptions, TupleState,
};
use stems_datagen::{gen::ColGen, TableBuilder};
use stems_types::{TableIdx, Timestamp, Tuple, TupleBatch};

use crate::{env_usize, render_canonical, result_hash};

/// The knobs and host facts every bench binary records.
#[derive(Debug)]
pub struct BenchEnv {
    /// Rows per table (`STEMS_BENCH_ROWS`).
    pub rows: usize,
    /// Timed runs per series (`STEMS_BENCH_RUNS`).
    pub runs: usize,
    /// Hardware threads the host grants.
    cores: usize,
    /// The engine's ambient worker budget.
    workers: usize,
    /// Where [`BenchEnv::write`] puts the document (`STEMS_BENCH_OUT`).
    out: String,
}

impl BenchEnv {
    /// Read the environment, falling back to the binary's defaults.
    pub fn from_env(default_out: &str, default_rows: usize, default_runs: usize) -> BenchEnv {
        BenchEnv {
            rows: env_usize("STEMS_BENCH_ROWS", default_rows),
            runs: env_usize("STEMS_BENCH_RUNS", default_runs),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: stems_core::runtime::default_workers(),
            out: std::env::var("STEMS_BENCH_OUT").unwrap_or_else(|_| default_out.into()),
        }
    }

    /// Render the document (header: `benchmark`, `metric`, `rows`,
    /// `runs`, then `extra`, then `cores` and `workers`), write it to
    /// `$STEMS_BENCH_OUT` or the binary's default file, and echo it to
    /// stdout. The file is read back, so
    /// a truncated write fails here rather than in the CI gate.
    pub fn write(&self, benchmark: &str, metric: &str, extra: Fields, body: Body) {
        let mut header = Fields::new()
            .str("benchmark", benchmark)
            .str("metric", metric)
            .int("rows", self.rows)
            .int("runs", self.runs);
        header.0.extend(extra.0);
        let header = header.int("cores", self.cores).int("workers", self.workers);
        let json = render(&header, &body);
        let path = &self.out;
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        let on_disk = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        assert_eq!(on_disk, json, "{path} does not hold what was written");
        print!("{json}");
        println!("wrote {path}");
    }
}

/// One timed run of a series, as the run loop sees it.
pub trait Outcome {
    /// Wall-clock seconds of the run's timed region.
    fn secs(&self) -> f64;
    /// The run's [`result_hash`].
    fn result_hash(&self) -> &str;
}

/// Run every series of one workload `runs` times, round-robin (run 1 of
/// every series, then run 2 of every series, …) so a swing in host speed
/// hits every series alike. Returns, per series and in input order, the
/// outcome of its median run (upper median for even `runs`), so the
/// outcome's [`Outcome::secs`] *is* the series' median and every other
/// figure it carries comes from that same run.
///
/// Panics, naming the series, if a run's `result_hash` differs from its
/// series' first run or a series' hash differs from the first series'.
pub fn run_series<L: Display, S, T: Outcome>(
    runs: usize,
    series: &[(L, S)],
    mut run: impl FnMut(&S) -> T,
) -> Vec<T> {
    assert!(runs >= 1 && !series.is_empty(), "nothing to run");
    let mut samples: Vec<Vec<T>> = series.iter().map(|_| Vec::with_capacity(runs)).collect();
    for _ in 0..runs {
        for ((_, spec), out) in series.iter().zip(samples.iter_mut()) {
            out.push(run(spec));
        }
    }
    let medians: Vec<T> = series
        .iter()
        .zip(samples)
        .map(|((label, _), mut outs)| {
            for (k, out) in outs.iter().enumerate() {
                assert_eq!(
                    out.result_hash(),
                    outs[0].result_hash(),
                    "series {label}: run {k} changed the result multiset of run 0"
                );
            }
            outs.sort_by(|a, b| a.secs().total_cmp(&b.secs()));
            outs.swap_remove(outs.len() / 2)
        })
        .collect();
    let (first_label, first) = (&series[0].0, medians[0].result_hash());
    for ((label, _), m) in series.iter().zip(&medians) {
        assert_eq!(
            m.result_hash(),
            first,
            "series {label} changed the result multiset of series {first_label}"
        );
    }
    medians
}

/// The common outcome: seconds, result count and result hash.
#[derive(Debug, Clone)]
pub struct Run {
    pub secs: f64,
    pub results: usize,
    pub result_hash: String,
}

impl Outcome for Run {
    fn secs(&self) -> f64 {
        self.secs
    }
    fn result_hash(&self) -> &str {
        &self.result_hash
    }
}

/// The adaptive benefit/cost routing every eddy bench runs under, so
/// each routing decision actually scores its candidates.
pub fn benefit_cost(batch_size: usize) -> ExecConfig {
    ExecConfig {
        batch_size,
        policy: RoutingPolicyKind::BenefitCost {
            epsilon: 0.05,
            drop_rate: 1.0,
        },
        ..ExecConfig::default()
    }
}

/// Plan and run `query` under `config`, timing both; the run must
/// report no correctness violations.
pub fn eddy_run(catalog: &Catalog, query: &QuerySpec, config: ExecConfig) -> Run {
    let start = Instant::now();
    let report = EddyExecutor::build(catalog, query, config)
        .expect("plan")
        .run();
    let secs = start.elapsed().as_secs_f64();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    Run {
        secs,
        results: report.results.len(),
        result_hash: result_hash(render_canonical(&report.canonical(catalog, query))),
    }
}

/// An integer JSON field value.
pub trait JsonInt: Display {}
impl JsonInt for usize {}
impl JsonInt for u64 {}

/// An ordered list of JSON fields, each value already rendered.
#[derive(Debug, Clone, Default)]
pub struct Fields(Vec<(&'static str, String)>);

impl Fields {
    pub fn new() -> Fields {
        Fields::default()
    }

    fn push(mut self, key: &'static str, json: String) -> Fields {
        self.0.push((key, json));
        self
    }

    pub fn int(self, key: &'static str, v: impl JsonInt) -> Fields {
        self.push(key, v.to_string())
    }

    /// A number with `decimals` fractional digits; non-finite values
    /// (a ratio over a zero) render as `null`.
    pub fn num(self, key: &'static str, v: f64, decimals: usize) -> Fields {
        let json = if v.is_finite() {
            format!("{v:.decimals$}")
        } else {
            "null".into()
        };
        self.push(key, json)
    }

    pub fn bool(self, key: &'static str, v: bool) -> Fields {
        self.push(key, v.to_string())
    }

    pub fn str(self, key: &'static str, v: &str) -> Fields {
        self.push(key, quote(v))
    }

    fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The body of a bench document: one list of series, or named workloads
/// each holding a list of series.
#[derive(Debug, Clone)]
pub enum Body {
    Series(Vec<Fields>),
    Workloads(Vec<(String, Vec<Fields>)>),
}

/// Render a document: one header field per line, one series per line.
fn render(header: &Fields, body: &Body) -> String {
    let rows = |series: &[Fields], indent: &str| -> String {
        let lines: Vec<String> = series
            .iter()
            .map(|s| format!("{indent}{}", s.render()))
            .collect();
        lines.join(",\n")
    };
    let mut out = String::from("{\n");
    for (k, v) in &header.0 {
        let _ = writeln!(out, "  \"{k}\": {v},");
    }
    match body {
        Body::Series(series) => {
            let _ = write!(out, "  \"series\": [\n{}\n  ]", rows(series, "    "));
        }
        Body::Workloads(workloads) => {
            let blocks: Vec<String> = workloads
                .iter()
                .map(|(name, series)| {
                    format!(
                        "    {{\"name\": {}, \"series\": [\n{}\n    ]}}",
                        quote(name),
                        rows(series, "      ")
                    )
                })
                .collect();
            let _ = write!(out, "  \"workloads\": [\n{}\n  ]", blocks.join(",\n"));
        }
    }
    out.push_str("\n}\n");
    out
}

/// The selection-heavy pure-Int chain of `BENCH_2` (and `BENCH_3`'s
/// `int_chain`): R ⋈ S ⋈ T with a column-vs-constant selection on every
/// table, every scan delivering `chunk` rows per event. Seeds are fixed,
/// so every chunk size sees the same rows.
pub fn sel3_chain_workload(rows: usize, chunk: usize) -> (Catalog, QuerySpec) {
    let mut catalog = Catalog::new();
    TableBuilder::new("R", rows, 81)
        .col("a", ColGen::Mod(500))
        .col("u", ColGen::Mod(500))
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("S", rows, 82)
        .col("x", ColGen::Mod(500))
        .col("y", ColGen::Mod(400))
        .col("v", ColGen::Mod(500))
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("T", rows, 83)
        .col("b", ColGen::Mod(400))
        .col("w", ColGen::Mod(500))
        .register(&mut catalog)
        .unwrap();
    for src in (0..3).map(SourceId) {
        catalog
            .add_scan(src, ScanSpec::with_rate(100_000.0).with_chunk(chunk))
            .unwrap();
    }
    let query = stems_sql::parse_query(
        &catalog,
        "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b \
         AND R.u < 300 AND S.v < 300 AND T.w < 300",
    )
    .unwrap();
    (catalog, query)
}

/// The 3-table chain R ⋈ S on `R.a = S.x`, S ⋈ T on `S.y = T.b`, join
/// keys spanning ~`rows` distinct values so probes stay selective (≈1
/// match each) and builds spread evenly across shards. Scans deliver
/// `chunk`-row bursts fast enough that SteM service dominates the
/// virtual timeline; the direct driver reads the catalog rows itself.
pub fn chain3_workload(rows: usize, chunk: usize) -> (Catalog, QuerySpec) {
    let domain = rows as i64;
    let mut catalog = Catalog::new();
    TableBuilder::new("R", rows, 91)
        .col("a", ColGen::Mod(domain))
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("S", rows, 92)
        .col("x", ColGen::Mod(domain))
        .col("y", ColGen::Mod(domain))
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("T", rows, 93)
        .col("b", ColGen::Mod(domain))
        .register(&mut catalog)
        .unwrap();
    for src in (0..3).map(SourceId) {
        catalog
            .add_scan(src, ScanSpec::with_rate(1e7).with_chunk(chunk))
            .unwrap();
    }
    let query = stems_sql::parse_query(
        &catalog,
        "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b",
    )
    .unwrap();
    (catalog, query)
}

/// One pass of [`chain3_stem_run`].
#[derive(Debug, Clone)]
pub struct ChainRun {
    pub build_secs: f64,
    pub probe_secs: f64,
    /// Builds performed + probe tuples issued — the work unit throughput
    /// divides by (identical across SteM options).
    pub ops: usize,
    pub results: usize,
    pub result_hash: String,
}

impl ChainRun {
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs()
    }
}

impl Outcome for ChainRun {
    fn secs(&self) -> f64 {
        self.build_secs + self.probe_secs
    }
    fn result_hash(&self) -> &str {
        &self.result_hash
    }
}

/// Drive the SteM layer directly with the chain3 workload's build/probe
/// traffic, every SteM built with `options`: all three relations build in
/// `envelope`-sized batches (T, then S, then R, so the TimeStamp rule
/// passes every match), then the stamped R singletons probe SteM S and
/// the R⋈S concatenations probe SteM T. That is the traffic the eddy
/// routes on this workload, minus the routing machinery.
pub fn chain3_stem_run(
    catalog: &Catalog,
    query: &QuerySpec,
    envelope: usize,
    options: &StemOptions,
) -> ChainRun {
    let mk = |t: usize| {
        let ti = TableIdx(t as u8);
        let cols = query.join_cols_of(ti);
        ShardedStem::new(
            ti,
            query.tables[t].source,
            &cols,
            true,
            false,
            options.clone(),
        )
    };
    let (mut stem_r, mut stem_s, mut stem_t) = (mk(0), mk(1), mk(2));
    let singletons = |t: usize| -> Vec<Tuple> {
        catalog
            .table_expect(query.tables[t].source)
            .rows()
            .iter()
            .map(|row| Tuple::singleton(TableIdx(t as u8), row.clone()))
            .collect()
    };
    let (r_rows, s_rows, t_rows) = (singletons(0), singletons(1), singletons(2));
    let mut ops = 0usize;
    let mut ts: Timestamp = 0;

    let build_start = Instant::now();
    let mut stamped_r: Vec<Tuple> = Vec::with_capacity(r_rows.len());
    for (stem, rows, keep) in [
        (&mut stem_t, &t_rows, false),
        (&mut stem_s, &s_rows, false),
        (&mut stem_r, &r_rows, true),
    ] {
        for chunk in rows.chunks(envelope) {
            let batch: TupleBatch = chunk.iter().cloned().collect();
            let states = vec![TupleState::new(); batch.len()];
            let results = stem.build_batch(&batch, &states, &mut ts);
            ops += batch.len();
            if keep {
                for r in results {
                    if let BuildResult::Fresh(t) = r {
                        stamped_r.push(t);
                    }
                }
            }
        }
    }
    let build_secs = build_start.elapsed().as_secs_f64();

    // One reply arena serves every envelope — the steady-state reply path.
    let probe_start = Instant::now();
    let mut final_results: Vec<Tuple> = Vec::new();
    let mut intermediates: Vec<(Tuple, TupleState)> = Vec::new();
    let mut replies = ProbeReplySet::new();
    for chunk in stamped_r.chunks(envelope) {
        let batch: TupleBatch = chunk.iter().cloned().collect();
        let states = vec![TupleState::new(); batch.len()];
        ops += batch.len();
        replies.clear();
        stem_s.probe_batch_into(batch.as_slice(), &states, query, &mut replies);
        let (metas, mut results) = replies.metas_and_results();
        for meta in metas {
            for (tuple, done) in results.by_ref().take(meta.len) {
                intermediates.push((tuple, TupleState::for_result(done)));
            }
        }
    }
    for chunk in intermediates.chunks(envelope) {
        let batch: TupleBatch = chunk.iter().map(|(t, _)| t.clone()).collect();
        let states: Vec<TupleState> = chunk.iter().map(|(_, s)| s.clone()).collect();
        ops += batch.len();
        replies.clear();
        stem_t.probe_batch_into(batch.as_slice(), &states, query, &mut replies);
        let (_, results) = replies.metas_and_results();
        final_results.extend(results.map(|(tuple, _)| tuple));
    }
    let probe_secs = probe_start.elapsed().as_secs_f64();

    ChainRun {
        build_secs,
        probe_secs,
        ops,
        results: final_results.len(),
        result_hash: result_hash(final_results.iter().map(|t| t.to_string()).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A fake run: fixed timings, a build/probe split, and the run index.
    struct Fake {
        build: f64,
        probe: f64,
        run: usize,
        hash: String,
    }

    impl Outcome for Fake {
        fn secs(&self) -> f64 {
            self.build + self.probe
        }
        fn result_hash(&self) -> &str {
            &self.hash
        }
    }

    #[test]
    fn run_series_returns_the_median_run_round_robin() {
        // Per-series totals by run: 2.0, 3.0, 1.0 — the median is run 0,
        // the last run is the fastest. A loop that kept the last run
        // would report run 2's split.
        let totals = [2.0, 3.0, 1.0];
        let calls = RefCell::new(Vec::new());
        let series = [("a", 0usize), ("b", 1)];
        let out = run_series(3, &series, |&s| {
            let mut calls = calls.borrow_mut();
            let run = calls.iter().filter(|&&c| c == s).count();
            calls.push(s);
            let total = totals[run] + s as f64;
            Fake {
                build: total / 4.0,
                probe: total * 3.0 / 4.0,
                run,
                hash: "h".into(),
            }
        });
        assert_eq!(*calls.borrow(), vec![0, 1, 0, 1, 0, 1], "round-robin order");
        assert_eq!(out.len(), 2);
        for (s, m) in out.iter().enumerate() {
            assert_eq!(m.run, 0, "series {s} must report its median run");
            assert_eq!(m.secs(), 2.0 + s as f64);
            assert_eq!(m.build + m.probe, m.secs());
        }
    }

    #[test]
    #[should_panic(expected = "series slow changed the result multiset of series fast")]
    fn run_series_names_the_series_whose_hash_drifted() {
        let series = [("fast", "x"), ("slow", "y")];
        run_series(1, &series, |&h| Fake {
            build: 0.0,
            probe: 1.0,
            run: 0,
            hash: h.into(),
        });
    }

    /// Just enough JSON to read back what [`render`] writes.
    #[derive(Debug, PartialEq)]
    enum J {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<J>),
        Obj(Vec<(String, J)>),
    }

    impl J {
        fn get(&self, key: &str) -> &J {
            match self {
                J::Obj(fields) => fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("missing field {key}")),
                _ => panic!("{key}: not an object"),
            }
        }
        fn arr(&self) -> &[J] {
            match self {
                J::Arr(xs) => xs,
                _ => panic!("not an array"),
            }
        }
        fn str(&self) -> &str {
            match self {
                J::Str(s) => s,
                _ => panic!("not a string"),
            }
        }
        fn num(&self) -> f64 {
            match self {
                J::Num(x) => *x,
                _ => panic!("not a number"),
            }
        }
    }

    fn parse(text: &str) -> J {
        fn ws(s: &mut &[u8]) {
            while let [b' ' | b'\n' | b'\r' | b'\t', rest @ ..] = s {
                *s = rest;
            }
        }
        fn eat(s: &mut &[u8], lit: &[u8]) {
            assert!(
                s.starts_with(lit),
                "expected {:?}",
                std::str::from_utf8(lit)
            );
            *s = &s[lit.len()..];
        }
        fn string(s: &mut &[u8]) -> String {
            eat(s, b"\"");
            let mut out = Vec::new();
            loop {
                match s[0] {
                    b'"' => break,
                    b'\\' => {
                        let c = s[1];
                        *s = &s[2..];
                        match c {
                            b'n' => out.push(b'\n'),
                            b'u' => {
                                let hex = std::str::from_utf8(&s[..4]).unwrap();
                                let c = char::from_u32(u32::from_str_radix(hex, 16).unwrap());
                                out.extend(c.unwrap().to_string().bytes());
                                *s = &s[4..];
                            }
                            c => out.push(c),
                        }
                        continue;
                    }
                    c => out.push(c),
                }
                *s = &s[1..];
            }
            eat(s, b"\"");
            String::from_utf8(out).unwrap()
        }
        fn value(s: &mut &[u8]) -> J {
            ws(s);
            let v = match s[0] {
                b'{' => {
                    eat(s, b"{");
                    let mut fields = Vec::new();
                    ws(s);
                    while s[0] != b'}' {
                        ws(s);
                        let k = string(s);
                        ws(s);
                        eat(s, b":");
                        fields.push((k, value(s)));
                        if s[0] == b',' {
                            eat(s, b",");
                        }
                    }
                    eat(s, b"}");
                    J::Obj(fields)
                }
                b'[' => {
                    eat(s, b"[");
                    let mut xs = Vec::new();
                    ws(s);
                    while s[0] != b']' {
                        xs.push(value(s));
                        if s[0] == b',' {
                            eat(s, b",");
                        }
                        ws(s);
                    }
                    eat(s, b"]");
                    J::Arr(xs)
                }
                b'"' => J::Str(string(s)),
                b't' => (eat(s, b"true"), J::Bool(true)).1,
                b'f' => (eat(s, b"false"), J::Bool(false)).1,
                b'n' => (eat(s, b"null"), J::Null).1,
                _ => {
                    let n = s
                        .iter()
                        .take_while(|c| c.is_ascii_digit() || b"-+.eE".contains(c))
                        .count();
                    let x = std::str::from_utf8(&s[..n]).unwrap().parse().unwrap();
                    *s = &s[n..];
                    J::Num(x)
                }
            };
            ws(s);
            v
        }
        let mut s = text.as_bytes();
        let v = value(&mut s);
        assert!(s.is_empty(), "trailing bytes after the document");
        v
    }

    fn header() -> Fields {
        Fields::new()
            .str("benchmark", "demo")
            .int("rows", 3000usize)
            .int("cores", 2usize)
            .int("workers", 4u64)
    }

    fn series(label: &str, hash: &str) -> Fields {
        Fields::new()
            .str("label", label)
            .num("median_secs", 0.1234567, 6)
            .num("speedup", f64::INFINITY, 3)
            .bool("memo", true)
            .str("result_hash", hash)
    }

    /// The fields `tools/bench_check.py` reads, checked on one series.
    fn check_series(s: &J, label: &str, hash: &str) {
        assert_eq!(s.get("label").str(), label);
        assert_eq!(s.get("result_hash").str(), hash);
        assert_eq!(s.get("median_secs").num(), 0.123457);
        assert_eq!(*s.get("speedup"), J::Null);
        assert_eq!(*s.get("memo"), J::Bool(true));
    }

    fn check_header(doc: &J) {
        assert_eq!(doc.get("rows").num(), 3000.0);
        assert_eq!(doc.get("cores").num(), 2.0);
        assert_eq!(doc.get("workers").num(), 4.0);
    }

    #[test]
    fn writer_renders_series_and_workloads_documents() {
        let odd = "say \"hi\" \\ tab\t";
        let text = render(
            &header(),
            &Body::Series(vec![series("plain", "00ff"), series(odd, "00ff")]),
        );
        let doc = parse(&text);
        check_header(&doc);
        let rows = doc.get("series").arr();
        assert_eq!(rows.len(), 2);
        check_series(&rows[0], "plain", "00ff");
        check_series(&rows[1], odd, "00ff");

        let text = render(
            &header(),
            &Body::Workloads(vec![
                ("w1".into(), vec![series("a", "01")]),
                (odd.into(), vec![series("a", "02"), series("b", "02")]),
            ]),
        );
        let doc = parse(&text);
        check_header(&doc);
        let workloads = doc.get("workloads").arr();
        assert_eq!(workloads.len(), 2);
        assert_eq!(workloads[0].get("name").str(), "w1");
        check_series(&workloads[0].get("series").arr()[0], "a", "01");
        assert_eq!(workloads[1].get("name").str(), odd);
        check_series(&workloads[1].get("series").arr()[1], "b", "02");
    }
}
