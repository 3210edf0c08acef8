//! The repository benchmark: one command that runs a workload of the
//! stems engine, checks every query's result, and prints every metric by
//! name with its unit.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chain3_scan --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads (`BENCHMARK.json` says why each was chosen):
//! `chain3_scan`, `server_fold`, `adaptive_mix`. Every workload is a
//! closed batch of queries known up front and run on the engine's
//! virtual clock; the benchmark starts no client threads. A run repeats
//! the workload (fresh set-up each time) until `--seconds` are spent and
//! reports medians over the repetitions.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` is the traced
//! run: it alternates untraced and traced repetitions, takes every
//! per-layer figure from the traced repetition with the median wall
//! time, replays the workload's rows through each layer's batch
//! functions, reports the tracing overhead, and writes that
//! repetition's spans to `perfbench/out/<workload>.spans.tsv`.
//!
//! Output: a `context` line (host cores, engine knobs, sizes, commit),
//! one line per metric, and as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A wrong result, a
//! query that did not complete, or a reported violation makes the run
//! incorrect and the exit code 1.

mod check;
mod layers;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Checker, Rep};
use stats::{median, peak_rss_mb, percentile, ratio};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use stems_core::ServerStats;
use workload::{host_cores, Kind, Workload, BATCH_SIZE};

/// End-to-end metrics, printed by `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_wall_p50_ms", "ms"),
    ("query_wall_p90_ms", "ms"),
    ("virtual_latency_p50_ms", "ms"),
    ("virtual_latency_p90_ms", "ms"),
    ("virtual_t50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by `--trace 1`. A layer a workload does
/// not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.build_ms", "ms"),
    ("engine.step_ns_per_event", "ns"),
    ("engine.events_per_result", "count"),
    ("engine.step_busy_share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("metrics.points_per_result", "count"),
    ("metrics.bump_ns", "ns"),
    ("policy.route_batches", "count"),
    ("policy.drops", "count"),
    ("policy.hints_recosted", "count"),
    ("stem.build_ns_per_row", "ns"),
    ("stem.probe_ns_per_row", "ns"),
    ("stem.matches_per_probe", "count"),
    ("stem.bounce_share", "ratio"),
    ("stem.duplicates_absorbed", "count"),
    ("storage.insert_ns_per_row", "ns"),
    ("storage.lookup_ns_per_key", "ns"),
    ("storage.candidates_per_key", "count"),
    ("runtime.pool_speedup", "x"),
    ("runtime.workers_spawned", "count"),
    ("sm.applied", "count"),
    ("sm.pass_ratio", "ratio"),
    ("sm.fused_selects", "count"),
    ("sm.ns_per_row", "ns"),
    ("sm.udf_ns_per_row", "ns"),
    ("kernel.ns_per_row", "ns"),
    ("memo.hit_ratio", "ratio"),
    ("memo.udf_calls", "count"),
    ("memo.evictions", "count"),
    ("memo.lookup_ns", "ns"),
    ("am.scanned", "count"),
    ("am.index_probes", "count"),
    ("am.fresh_ratio", "ratio"),
    ("server.submit_us", "us"),
    ("server.serve_ms_per_query", "ms"),
    ("server.shared_builds", "count"),
    ("server.shared_stems", "count"),
    ("server.scan_streams", "count"),
    ("server.shared_memos", "count"),
    ("server.queued", "count"),
    ("server.stem_bytes_peak_mb", "MB"),
    ("sql.parse_us_per_query", "us"),
];

/// Set-up samples taken per run at least (extra set-ups are run without
/// queries when the repetitions alone give fewer).
const MIN_SETUPS: usize = 7;

const USAGE: &str =
    "usage: perfbench --workload <chain3_scan|server_fold|adaptive_mix> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("invalid {flag} value {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(Kind::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the benchmark; `Ok(correct)`.
fn bench(args: &Args) -> Result<bool, String> {
    let w = workload::generate(args.workload, args.seed)?;
    let checker = Checker::new(&w)?;
    let context = context_json(&w, args);
    println!("context {context}");
    let (metrics, attempted, failed) = if args.trace {
        traced(&w, &checker, args.seconds, &context)?
    } else {
        measured(&w, &checker, args.seconds)?
    };
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>18.6} {unit}");
    }
    println!(
        "{:<28} {:>18.6} share ({failed} of {attempted} queries failed)",
        "failed_frac",
        ratio(failed as f64, attempted as f64)
    );
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

type Metric = (&'static str, f64, &'static str);

/// Order `values` as `spec` lists them. Names missing from `values`
/// read `default` when given, else are a bug in this program.
fn in_order(
    spec: &[(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
    default: Option<f64>,
) -> Vec<Metric> {
    spec.iter()
        .map(|&(name, unit)| {
            let v = values
                .get(name)
                .copied()
                .or(default)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            (name, v, unit)
        })
        .collect()
}

/// Repeat `rep` until `seconds` are spent (at least once), stopping
/// before a repetition that would overrun.
fn repeat(seconds: f64, mut rep: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    let mut n = 0;
    loop {
        rep()?;
        n += 1;
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / n as f64 > seconds {
            return Ok(());
        }
    }
}

fn measured(
    w: &Workload,
    checker: &Checker,
    seconds: f64,
) -> Result<(Vec<Metric>, usize, usize), String> {
    let mut reps: Vec<Rep> = Vec::new();
    repeat(seconds, || {
        reps.push(run::rep(w, checker, false, true)?);
        Ok(())
    })?;
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(run::rep(w, checker, false, false)?.setup_s);
    }
    let n = w.sql.len() as f64;
    let over_reps = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    // Per-query wall time where queries run one at a time; on the server
    // the batch runs concurrently, so both read the amortized wall per
    // query (serve wall / queries).
    let query_wall_ms = |q: f64| {
        over_reps(&|r: &Rep| {
            if r.query_wall_s.is_empty() {
                r.wall_s / n * 1e3
            } else {
                percentile(&r.query_wall_s, q) * 1e3
            }
        })
    };
    let ms = |us: &[u64]| us.iter().map(|&t| t as f64 / 1e3).collect::<Vec<_>>();
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", median(&setups)),
        ("wall_s", over_reps(&|r: &Rep| r.wall_s)),
        ("queries_per_s", over_reps(&|r: &Rep| n / r.wall_s)),
        ("query_wall_p50_ms", query_wall_ms(0.5)),
        ("query_wall_p90_ms", query_wall_ms(0.9)),
        (
            "virtual_latency_p50_ms",
            over_reps(&|r: &Rep| percentile(&ms(&r.virtual_latency_us), 0.5)),
        ),
        (
            "virtual_latency_p90_ms",
            over_reps(&|r: &Rep| percentile(&ms(&r.virtual_latency_us), 0.9)),
        ),
        (
            "virtual_t50_ms",
            over_reps(&|r: &Rep| median(&ms(&r.t50_us))),
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    println!(
        "samples: {} repetitions x {} queries, {} set-ups; wall_s per repetition {:?}",
        reps.len(),
        w.sql.len(),
        setups.len(),
        reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()
    );
    let attempted = reps.iter().map(|r| r.attempted).sum();
    let failed = reps.iter().map(|r| r.failed).sum();
    Ok((in_order(END_TO_END, &values, None), attempted, failed))
}

fn traced(
    w: &Workload,
    checker: &Checker,
    seconds: f64,
    context: &str,
) -> Result<(Vec<Metric>, usize, usize), String> {
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    repeat(seconds, || {
        plain.push(run::rep(w, checker, false, true)?);
        traced.push(run::rep(w, checker, true, true)?);
        Ok(())
    })?;
    let attempted = plain.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed = plain.iter().chain(&traced).map(|r| r.failed).sum();
    let walls = |reps: &[Rep]| reps.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    let (traced_wall, plain_wall) = (median(&walls(&traced)), median(&walls(&plain)));

    // Every figure below comes from this one repetition.
    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let r = &traced[(traced.len() - 1) / 2];
    let tr = r.tracer.as_ref().expect("traced repetition has a tracer");
    let n = w.sql.len() as f64;
    let (engine_build_ns, busy_ns) = if w.kind.served() {
        (
            tr.busy_ns("ServerBuilder::build") + tr.busy_ns("QueryServer::submit"),
            tr.busy_ns("QueryServer::serve"),
        )
    } else {
        (
            tr.busy_ns("EddyExecutor::build"),
            tr.busy_ns("EddyExecutor::step"),
        )
    };
    let c = |name: &str| r.counter(name) as f64;
    let st = |f: fn(&ServerStats) -> usize| r.stats.as_ref().map_or(0.0, |s| f(s) as f64);
    let mut values: BTreeMap<&str, f64> = BTreeMap::from([
        ("engine.build_ms", engine_build_ns as f64 / 1e6),
        (
            "engine.step_ns_per_event",
            ratio(busy_ns as f64, r.events as f64),
        ),
        (
            "engine.events_per_result",
            ratio(r.events as f64, r.results as f64),
        ),
        (
            "engine.step_busy_share",
            ratio(busy_ns as f64 / 1e9, r.wall_s),
        ),
        ("trace.wall_s", r.wall_s),
        ("trace.untraced_wall_s", plain_wall),
        ("trace.overhead_s", traced_wall - plain_wall),
        (
            "metrics.points_per_result",
            ratio(r.series_points as f64, r.results as f64),
        ),
        ("policy.route_batches", c("route_batches")),
        ("policy.drops", c("policy_drops")),
        ("policy.hints_recosted", c("hints_recosted")),
        (
            "stem.bounce_share",
            ratio(c("probes_bounced"), c("stem_probes")),
        ),
        ("stem.duplicates_absorbed", c("duplicates_absorbed")),
        (
            "runtime.workers_spawned",
            stems_core::WorkerPool::global().workers_spawned() as f64,
        ),
        ("sm.applied", c("sm_applied")),
        (
            "sm.pass_ratio",
            ratio(c("sm_applied") - c("filtered"), c("sm_applied")),
        ),
        ("sm.fused_selects", c("fused_selects")),
        (
            "memo.hit_ratio",
            ratio(c("memo_hits"), c("memo_hits") + c("memo_misses")),
        ),
        ("memo.udf_calls", c("udf_calls")),
        ("memo.evictions", c("memo_evictions")),
        ("am.scanned", c("scanned")),
        ("am.index_probes", c("index_probes")),
        (
            "am.fresh_ratio",
            ratio(
                c("am_fresh_builds"),
                c("am_fresh_builds") + c("am_dup_builds"),
            ),
        ),
        (
            "server.submit_us",
            tr.busy_ns("QueryServer::submit") as f64 / n / 1e3,
        ),
        (
            "server.serve_ms_per_query",
            tr.busy_ns("QueryServer::serve") as f64 / n / 1e6,
        ),
        ("server.shared_builds", st(|s| s.shared_builds as usize)),
        ("server.shared_stems", st(|s| s.shared_stems)),
        ("server.scan_streams", st(|s| s.scan_streams)),
        ("server.shared_memos", st(|s| s.shared_memos)),
        ("server.queued", st(|s| s.queued)),
        (
            "server.stem_bytes_peak_mb",
            st(|s| s.stem_bytes_peak) / (1024.0 * 1024.0),
        ),
        (
            "sql.parse_us_per_query",
            ratio(
                tr.busy_ns("parse_query") as f64 / 1e3,
                tr.calls("parse_query") as f64,
            ),
        ),
    ]);

    let catalog = w.register();
    let queries: Vec<_> = w
        .sql
        .iter()
        .map(|s| stems_sql::parse_query(&catalog, s))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("parse failed: {e}"))?;
    let names: Vec<String> = r.counters.keys().cloned().collect();
    for (name, v, _) in layers::replay(w, &catalog, &queries, &names, r.series_points) {
        values.insert(name, v);
    }
    println!(
        "samples: {} untraced + {} traced repetitions x {} queries; figures from the median traced one",
        plain.len(),
        traced.len(),
        w.sql.len()
    );
    write_spans(w.kind, &format!("# context {context}\n{}", tr.to_tsv()));
    Ok((in_order(PER_LAYER, &values, Some(0.0)), attempted, failed))
}

fn write_spans(kind: Kind, tsv: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}.spans.tsv", kind.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tsv)) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn context_json(w: &Workload, args: &Args) -> String {
    let rows: Vec<String> = w
        .tables
        .iter()
        .map(|t| format!("\"{}\": {}", t.name, t.rows.len()))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"cores\": {}, \
         \"workers\": {}, \"num_shards\": {}, \"batch_size\": {}, \"rows\": {{{}}}, \
         \"total_rows\": {}, \"queries\": {}, \"git_commit\": \"{}\"}}",
        w.kind.name(),
        w.seed,
        args.seconds,
        args.trace,
        host_cores(),
        w.config.workers,
        w.config.num_shards,
        BATCH_SIZE,
        rows.join(", "),
        w.total_rows(),
        w.sql.len(),
        git_commit(),
    )
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).unwrap();
            let end = text[start..].find(']').unwrap() + start;
            text[start..end].to_string()
        };
        for (key, spec) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let s = section(key);
            assert_eq!(s.matches("\"name\"").count(), spec.len(), "{key}");
            for (name, unit) in spec {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(s.contains(&entry), "{key}: {entry} missing");
            }
        }
        let workloads = section("workloads");
        for k in Kind::ALL {
            assert!(workloads.contains(&format!("\"name\": \"{}\"", k.name())));
        }
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload server_fold --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Kind::ServerFold, 3, 10.0, true)
        );
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload server_fold --seed 3 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload server_fold --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload server_fold --seed 3 --seconds 10").is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
