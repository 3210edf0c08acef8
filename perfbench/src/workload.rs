//! The three workloads, generated from the workload seed.
//!
//! The benchmark makes every input itself — table rows, SQL text,
//! admission times — so the engine receives only generated data. The
//! same seed always gives the same inputs; the knobs that shape the
//! engine (`batch_size`, `num_shards`, `workers`, ...) are pinned here,
//! not read from the environment, so a stray `STEMS_*` variable cannot
//! change what is measured.

use stems_catalog::{Catalog, IndexSpec, ScanSpec, TableDef};
use stems_core::{ExecConfig, RoutingPolicyKind};
use stems_sim::{SimRng, Time};
use stems_types::{ColumnType, Schema, Value};

/// Routing envelope size for every workload (the engine default).
pub const BATCH_SIZE: usize = 64;

/// Rows per table of `chain3_scan`: SteM state well past the CPU caches.
const CHAIN3_ROWS: usize = 100_000;
/// SteM shard fan-out of `chain3_scan`.
const CHAIN3_SHARDS: usize = 8;

/// Rows per table of `server_fold`: small and cache resident.
const SERVER_ROWS: usize = 400;
/// Concurrent queries submitted to the one server of `server_fold`.
const SERVER_QUERIES: usize = 300;
/// Distinct selection cuts the server queries draw from.
const SERVER_CUTS: u64 = 8;
/// Admission waves: query `i` is admitted at wave `i * WAVES / QUERIES`.
const SERVER_WAVES: usize = 6;
/// Virtual µs between admission waves — shorter than one query's
/// latency, so later waves join while earlier SteMs are still building
/// and must replay the shared build log.
const SERVER_WAVE_GAP_US: Time = 4_000;

/// Solo queries of `adaptive_mix`.
const ADAPTIVE_QUERIES: usize = 120;
const ADAPTIVE_P_ROWS: usize = 200;
const ADAPTIVE_Q_ROWS: usize = 200;
const ADAPTIVE_U_ROWS: usize = 120;

/// Upper bound on the engine's worker budget: the benchmark host has 2
/// cores, and a larger host runs the same work so figures stay
/// comparable (the host's `cores` are recorded next to every result).
const MAX_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Chain3Scan,
    ServerFold,
    AdaptiveMix,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Chain3Scan, Kind::ServerFold, Kind::AdaptiveMix];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Chain3Scan => "chain3_scan",
            Kind::ServerFold => "server_fold",
            Kind::AdaptiveMix => "adaptive_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Queries run through one `QueryServer` rather than one at a time.
    pub fn served(self) -> bool {
        self == Kind::ServerFold
    }
}

/// One generated table and the access methods registered for it.
pub struct Table {
    pub name: &'static str,
    pub schema: Schema,
    pub rows: Vec<Vec<Value>>,
    pub scan: ScanSpec,
    pub index: Option<IndexSpec>,
}

/// How a workload's results are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// The nested-loop `stems_catalog::reference` executor, per query.
    Reference,
    /// A hash join the benchmark computes itself over the generated rows
    /// of R(k, a), S(k, x, y), T(k, b): `R.a = S.x AND S.y = T.b AND
    /// R.k < cut`. The nested-loop oracle is quadratic at this size.
    Chain3 { cut: i64 },
}

pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub tables: Vec<Table>,
    pub sql: Vec<String>,
    /// Virtual admission time per query (`server_fold` only).
    pub admit_at: Vec<Time>,
    pub config: ExecConfig,
    pub oracle: Oracle,
}

impl Workload {
    /// Catalog registration from the generated rows — part of set-up.
    pub fn register(&self) -> Catalog {
        let mut catalog = Catalog::new();
        for t in &self.tables {
            let def = TableDef::new(t.name, t.schema.clone()).with_rows(t.rows.clone());
            let id = catalog
                .add_table(def)
                .expect("generated table matches its schema");
            catalog
                .add_scan(id, t.scan.clone())
                .expect("generated scan spec is valid");
            if let Some(index) = &t.index {
                catalog
                    .add_index(id, index.clone())
                    .expect("generated index spec is valid");
            }
        }
        catalog
    }

    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }
}

/// The host's available parallelism (`nproc`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Generate `kind`'s inputs from `seed`. Fails only when the environment
/// holds a malformed `STEMS_*` engine knob.
pub fn generate(kind: Kind, seed: u64) -> Result<Workload, String> {
    let mut rng = SimRng::new(seed ^ 0x5eed_0000_0000_0000);
    let base = ExecConfig::from_env().map_err(|e| format!("engine configuration: {e}"))?;
    let config = |num_shards: usize, policy: RoutingPolicyKind| ExecConfig {
        policy,
        batch_size: BATCH_SIZE,
        num_shards,
        workers: host_cores().min(MAX_WORKERS),
        parallel_min_rows: stems_core::runtime::DEFAULT_PARALLEL_MIN_ROWS,
        fuse_selections: true,
        memo: true,
        memo_bytes: stems_core::memo::DEFAULT_MEMO_BYTES,
        udf_dedup: true,
        ..base.clone()
    };
    let fixed = RoutingPolicyKind::Fixed { probe_order: None };
    let w = match kind {
        Kind::Chain3Scan => {
            let n = CHAIN3_ROWS;
            let cut = (n * 88 / 100) as i64 + rng.below(n as u64 / 25) as i64;
            Workload {
                kind,
                seed,
                tables: chain_tables(&mut rng, n, 1e6, None),
                sql: vec![format!(
                    "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b AND R.k < {cut}"
                )],
                admit_at: Vec::new(),
                config: config(CHAIN3_SHARDS, fixed),
                oracle: Oracle::Chain3 { cut },
            }
        }
        Kind::ServerFold => {
            let n = SERVER_ROWS;
            // One cut per stratum of [n/5, n), jittered by the seed.
            let stratum = n as u64 * 4 / 5 / SERVER_CUTS;
            let cuts: Vec<u64> = (0..SERVER_CUTS)
                .map(|j| n as u64 / 5 + j * stratum + rng.below(stratum))
                .collect();
            let mut sql = Vec::with_capacity(SERVER_QUERIES);
            for i in 0..SERVER_QUERIES {
                let cut = cuts[i % SERVER_CUTS as usize];
                let mut q =
                    format!("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b AND R.k < {cut}");
                // A third of the stream shares one SIEVE identity, so its
                // memo cells fold onto one shared cache.
                if i % 3 == 0 {
                    q.push_str(" AND SIEVE(R.c, 500, 100)");
                }
                sql.push(q);
            }
            let admit_at = (0..SERVER_QUERIES)
                .map(|i| (i * SERVER_WAVES / SERVER_QUERIES) as Time * SERVER_WAVE_GAP_US)
                .collect();
            Workload {
                kind,
                seed,
                tables: chain_tables(&mut rng, n, 1e6, Some(32)),
                sql,
                admit_at,
                config: config(1, fixed),
                oracle: Oracle::Reference,
            }
        }
        Kind::AdaptiveMix => Workload {
            kind,
            seed,
            tables: mixed_tables(&mut rng),
            sql: (0..ADAPTIVE_QUERIES)
                .map(|i| mixed_query(&mut rng, i))
                .collect(),
            admit_at: Vec::new(),
            config: config(
                1,
                RoutingPolicyKind::BenefitCost {
                    epsilon: 0.05,
                    drop_rate: 0.5,
                },
            ),
            oracle: Oracle::Reference,
        },
    };
    Ok(w)
}

fn permutation(rng: &mut SimRng, n: usize) -> Vec<i64> {
    let mut p: Vec<i64> = (0..n as i64).collect();
    rng.shuffle(&mut p);
    p
}

fn schema(cols: &[(&str, ColumnType)]) -> Schema {
    Schema::of(cols)
}

/// R(k, a[, c]), S(k, x, y), T(k, b): serial keys `k`, join columns that
/// are independent permutations of `0..n`, so every join is 1:1. `c`,
/// when asked for, takes `c_distinct` values — the duplicate-heavy SIEVE
/// input.
fn chain_tables(rng: &mut SimRng, n: usize, rate: f64, c_distinct: Option<u64>) -> Vec<Table> {
    use ColumnType::Int;
    let (pa, px, py, pb) = (
        permutation(rng, n),
        permutation(rng, n),
        permutation(rng, n),
        permutation(rng, n),
    );
    let r_rows = (0..n)
        .map(|i| {
            let mut row = vec![Value::Int(i as i64), Value::Int(pa[i])];
            if let Some(d) = c_distinct {
                row.push(Value::Int(rng.below(d) as i64));
            }
            row
        })
        .collect();
    let r_schema = if c_distinct.is_some() {
        schema(&[("k", Int), ("a", Int), ("c", Int)])
    } else {
        schema(&[("k", Int), ("a", Int)])
    };
    let scan = ScanSpec::with_rate(rate);
    vec![
        Table {
            name: "R",
            schema: r_schema,
            rows: r_rows,
            scan: scan.clone(),
            index: None,
        },
        Table {
            name: "S",
            schema: schema(&[("k", Int), ("x", Int), ("y", Int)]),
            rows: (0..n)
                .map(|i| vec![Value::Int(i as i64), Value::Int(px[i]), Value::Int(py[i])])
                .collect(),
            scan: scan.clone(),
            index: None,
        },
        Table {
            name: "T",
            schema: schema(&[("k", Int), ("b", Int)]),
            rows: (0..n)
                .map(|i| vec![Value::Int(i as i64), Value::Int(pb[i])])
                .collect(),
            scan,
            index: None,
        },
    ]
}

/// A column of `n` values cycling through `distinct` values (`k %
/// distinct`), NULL at every `null_every`-th position when given, then
/// shuffled across rows: value frequencies, NULL counts and hence join
/// fan-outs are the same for every seed; only which row carries which
/// value is drawn.
fn balanced(
    rng: &mut SimRng,
    n: usize,
    distinct: u64,
    null_every: Option<u64>,
) -> Vec<Option<u64>> {
    let mut col: Vec<Option<u64>> = (0..n as u64)
        .map(|k| match null_every {
            Some(e) if k % e == e - 1 => None,
            _ => Some(k % distinct),
        })
        .collect();
    rng.shuffle(&mut col);
    col
}

/// The mixed-type tables of `adaptive_mix`, every column
/// [`balanced`]:
/// * P(k, s Str, f Float, i Int) — `s` and `f` carry NULLs; half of the
///   `f` values are integral, so `P.f = Q.g` exercises Int↔Float
///   coercion; `i` spreads evenly over 0..1000;
/// * Q(k, s Str, g Int, d Int) — `d` has 10 distinct values, the
///   duplicate-heavy SIEVE input and the join key into U;
/// * U(k, x Int, w Int) — reachable by a slow scan *and* an index on
///   `x`, so bounced probes choose between them (§4.3 hybrid).
fn mixed_tables(rng: &mut SimRng) -> Vec<Table> {
    use ColumnType::{Float, Int, Str};
    let str_of = |v: Option<u64>| v.map_or(Value::Null, |v| Value::str(&format!("s{v}")));
    let int_of = |v: Option<u64>| v.map_or(Value::Null, |v| Value::Int(v as i64));
    let spread = |n: usize, v: Option<u64>| int_of(v.map(|v| v * 1000 / n as u64));
    let (n_p, n_q, n_u) = (ADAPTIVE_P_ROWS, ADAPTIVE_Q_ROWS, ADAPTIVE_U_ROWS);
    let (p_s, p_f, p_i) = (
        balanced(rng, n_p, 40, Some(13)),
        balanced(rng, n_p, 60, Some(17)),
        balanced(rng, n_p, n_p as u64, None),
    );
    let p_rows = (0..n_p)
        .map(|k| {
            let f = p_f[k].map_or(Value::Null, |v| Value::Float(v as f64 / 2.0));
            vec![Value::Int(k as i64), str_of(p_s[k]), f, spread(n_p, p_i[k])]
        })
        .collect();
    let (q_s, q_g, q_d) = (
        balanced(rng, n_q, 40, Some(11)),
        balanced(rng, n_q, 30, None),
        balanced(rng, n_q, 10, None),
    );
    let q_rows = (0..n_q)
        .map(|k| {
            vec![
                Value::Int(k as i64),
                str_of(q_s[k]),
                int_of(q_g[k]),
                int_of(q_d[k]),
            ]
        })
        .collect();
    let (u_x, u_w) = (
        balanced(rng, n_u, 10, None),
        balanced(rng, n_u, n_u as u64, None),
    );
    let u_rows = (0..n_u)
        .map(|k| vec![Value::Int(k as i64), int_of(u_x[k]), spread(n_u, u_w[k])])
        .collect();
    vec![
        Table {
            name: "P",
            schema: schema(&[("k", Int), ("s", Str), ("f", Float), ("i", Int)]),
            rows: p_rows,
            scan: ScanSpec::with_rate(50_000.0),
            index: None,
        },
        Table {
            name: "Q",
            schema: schema(&[("k", Int), ("s", Str), ("g", Int), ("d", Int)]),
            rows: q_rows,
            scan: ScanSpec::with_rate(50_000.0),
            index: None,
        },
        Table {
            name: "U",
            schema: schema(&[("k", Int), ("x", Int), ("w", Int)]),
            rows: u_rows,
            scan: ScanSpec::with_rate(2_000.0),
            index: Some(IndexSpec::new(vec![1], 3_000)),
        },
    ]
}

/// `k` distinct values below `n`, rendered as an SQL list body.
fn int_list(rng: &mut SimRng, k: usize, n: u64) -> String {
    let mut vals: Vec<u64> = Vec::new();
    while vals.len() < k {
        let v = rng.below(n);
        if !vals.contains(&v) {
            vals.push(v);
        }
    }
    vals.iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// `lo + width * (k % STRATA) / STRATA`, jittered within its stratum:
/// successive queries of a template sweep the parameter range evenly, so
/// the total work of a query set varies little from seed to seed.
fn stratified(rng: &mut SimRng, k: usize, lo: u64, width: u64) -> u64 {
    const STRATA: u64 = 8;
    let step = width / STRATA;
    lo + (k as u64 % STRATA) * step + rng.below(step)
}

/// Query `i` of `adaptive_mix`, as SQL text: five templates over P, Q,
/// U in turn — Str and Float↔Int join keys, IN lists, fused range
/// selections, SIEVE on the duplicate-heavy `Q.d`. Templates rotate
/// rather than being drawn at random so every seed has the same mix: two
/// in five queries reach the slow-scanned U and one in five joins all
/// three tables, which keeps the virtual latency median and 90th
/// percentile each inside one template's spread.
fn mixed_query(rng: &mut SimRng, i: usize) -> String {
    let k = i / 5;
    match i % 5 {
        0 | 3 => {
            let lo = stratified(rng, k, 0, 640);
            let hi = lo + 350;
            let mut q =
                format!("SELECT * FROM P, Q WHERE P.s = Q.s AND P.i >= {lo} AND P.i < {hi}");
            if i % 5 == 3 {
                q.push_str(&format!(" AND Q.d IN ({})", int_list(rng, 4, 10)));
            }
            q
        }
        1 => {
            let strs = (0..12)
                .map(|_| format!("'s{}'", rng.below(40)))
                .collect::<Vec<_>>()
                .join(", ");
            let f = stratified(rng, k, 0, 16);
            format!("SELECT * FROM P, Q WHERE P.f = Q.g AND P.s IN ({strs}) AND P.f >= {f}.5")
        }
        2 => {
            let ppm = stratified(rng, k, 300, 400);
            let cost = 200 + rng.below(600);
            let mut q = format!("SELECT * FROM Q, U WHERE Q.d = U.x AND SIEVE(Q.d, {ppm}, {cost})");
            if k.is_multiple_of(2) {
                q.push_str(&format!(" AND U.w < {}", stratified(rng, k / 2, 300, 640)));
            }
            q
        }
        _ => {
            // Wide enough that every 3-way query outlasts U's scan: the
            // slowest fifth of the mix, where the 90th percentile falls.
            let c = stratified(rng, k, 300, 400);
            format!("SELECT * FROM P, Q, U WHERE P.s = Q.s AND Q.d = U.x AND P.i < {c}")
        }
    }
}
