//! Result checking, independent of the engine under test.
//!
//! Every query's result multiset is compared with an oracle that shares
//! no code with `stems-core`: the nested-loop reference executor of
//! `stems-catalog` on the small workloads, and a hash join the benchmark
//! computes itself on `chain3_scan`. A miss or a duplicate fails the
//! query.

use crate::workload::{Oracle, Workload};
use std::collections::HashMap;
use stems_catalog::{reference, Catalog, QuerySpec};
use stems_core::Report;
use stems_types::{TableIdx, Tuple, Value};

/// A query's expected result, in the canonical form its check compares.
#[derive(Clone)]
pub enum Expected {
    /// Sorted rendered rows (`stems_catalog::reference::canonical`).
    Rows(Vec<String>),
    /// Sorted `(R.k, S.k, T.k)` triples.
    Keys(Vec<(i64, i64, i64)>),
}

/// Rows missing from, and rows in excess of, the expected multiset.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Diff {
    pub missing: usize,
    pub extra: usize,
}

impl Diff {
    pub fn is_exact(self) -> bool {
        self.missing == 0 && self.extra == 0
    }
}

/// Compare two sorted multisets.
pub fn diff_sorted<T: Ord>(expected: &[T], actual: &[T]) -> Diff {
    let (mut i, mut j) = (0, 0);
    let mut d = Diff::default();
    while i < expected.len() && j < actual.len() {
        match expected[i].cmp(&actual[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                d.missing += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                d.extra += 1;
                j += 1;
            }
        }
    }
    d.missing += expected.len() - i;
    d.extra += actual.len() - j;
    d
}

/// Render canonical rows so values of different types never compare
/// equal (`Int(1)` vs `Float(1.0)`), then sort.
fn render(rows: &[Vec<Value>]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join("\u{1f}")
        })
        .collect();
    out.sort_unstable();
    out
}

fn key_of(t: &Tuple, table: u8) -> i64 {
    match t.value(TableIdx(table), 0) {
        Some(Value::Int(k)) => *k,
        other => panic!("chain3 result lacks an Int key for table {table}: {other:?}"),
    }
}

/// Expected results of every query of `w`, in query order. Queries with
/// the same SQL text share one oracle run.
pub fn expected(w: &Workload, catalog: &Catalog, queries: &[QuerySpec]) -> Vec<Expected> {
    match w.oracle {
        Oracle::Chain3 { cut } => queries.iter().map(|_| chain3_oracle(w, cut)).collect(),
        Oracle::Reference => {
            let mut memo: HashMap<&str, usize> = HashMap::new();
            let mut out: Vec<Expected> = Vec::with_capacity(queries.len());
            for (sql, q) in w.sql.iter().zip(queries) {
                let e = match memo.get(sql.as_str()) {
                    Some(&i) => out[i].clone(),
                    None => {
                        memo.insert(sql, out.len());
                        let tuples = reference::execute(catalog, q);
                        Expected::Rows(render(&reference::canonical(catalog, q, &tuples)))
                    }
                };
                out.push(e);
            }
            out
        }
    }
}

/// `R ⋈ S ⋈ T` on `R.a = S.x AND S.y = T.b AND R.k < cut` by hashing S
/// on `x` and T on `b` (tables in generation order: R, S, T).
fn chain3_oracle(w: &Workload, cut: i64) -> Expected {
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("chain3 column is not Int: {other:?}"),
    };
    let [r, s, t] = [&w.tables[0].rows, &w.tables[1].rows, &w.tables[2].rows];
    let mut s_by_x: HashMap<i64, Vec<&Vec<Value>>> = HashMap::new();
    for row in s {
        s_by_x.entry(int(&row[1])).or_default().push(row);
    }
    let mut t_by_b: HashMap<i64, Vec<&Vec<Value>>> = HashMap::new();
    for row in t {
        t_by_b.entry(int(&row[1])).or_default().push(row);
    }
    let mut keys = Vec::new();
    for rr in r.iter().filter(|row| int(&row[0]) < cut) {
        for sr in s_by_x.get(&int(&rr[1])).into_iter().flatten() {
            for tr in t_by_b.get(&int(&sr[2])).into_iter().flatten() {
                keys.push((int(&rr[0]), int(&sr[0]), int(&tr[0])));
            }
        }
    }
    keys.sort_unstable();
    Expected::Keys(keys)
}

/// Compare one query's report against its expected result.
pub fn check(expected: &Expected, report: &Report, catalog: &Catalog, query: &QuerySpec) -> Diff {
    match expected {
        Expected::Rows(rows) => diff_sorted(rows, &render(&report.canonical(catalog, query))),
        Expected::Keys(keys) => {
            let mut got: Vec<(i64, i64, i64)> = report
                .results
                .iter()
                .map(|t| (key_of(t, 0), key_of(t, 1), key_of(t, 2)))
                .collect();
            got.sort_unstable();
            diff_sorted(keys, &got)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Kind};
    use stems_core::EddyExecutor;

    /// `adaptive_mix`'s first query, checked by the reference executor.
    fn reference_case() -> (Workload, Catalog, QuerySpec) {
        let w = generate(Kind::AdaptiveMix, 7).unwrap();
        let catalog = w.register();
        let q = stems_sql::parse_query(&catalog, &w.sql[0]).unwrap();
        (w, catalog, q)
    }

    /// The chain3 query over `server_fold`'s small chain tables, checked
    /// by the hash-join oracle (the `chain3_scan` tables are too large
    /// for an unoptimized test build).
    fn chain3_case() -> (Workload, Catalog, QuerySpec) {
        let w = generate(Kind::ServerFold, 7).unwrap();
        let cut = 300;
        let w = Workload {
            oracle: Oracle::Chain3 { cut },
            sql: vec![format!(
                "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b AND R.k < {cut}"
            )],
            ..w
        };
        let catalog = w.register();
        let q = stems_sql::parse_query(&catalog, &w.sql[0]).unwrap();
        (w, catalog, q)
    }

    #[test]
    fn diff_counts_misses_and_duplicates() {
        assert!(diff_sorted(&[1, 2, 2, 3], &[1, 2, 2, 3]).is_exact());
        let d = |e: &[i32], a: &[i32]| {
            let d = diff_sorted(e, a);
            (d.missing, d.extra)
        };
        assert_eq!(d(&[1, 2, 2, 3], &[1, 2, 3]), (1, 0));
        assert_eq!(d(&[1, 2, 3], &[1, 2, 2, 3]), (0, 1));
        assert_eq!(d(&[1, 3], &[1, 2]), (1, 1));
    }

    /// The check passes on the engine's own result and trips when one
    /// result row is dropped or duplicated — on both oracles.
    #[test]
    fn dropping_or_duplicating_a_row_trips_the_check() {
        for (w, catalog, q) in [reference_case(), chain3_case()] {
            let exp = expected(&w, &catalog, std::slice::from_ref(&q)).remove(0);
            let mut report = EddyExecutor::build(&catalog, &q, w.config.clone())
                .unwrap()
                .run();
            assert!(!report.results.is_empty(), "{}: empty result", w.sql[0]);
            assert!(check(&exp, &report, &catalog, &q).is_exact());

            let row = report.results.pop().unwrap();
            let d = check(&exp, &report, &catalog, &q);
            assert_eq!((d.missing, d.extra), (1, 0), "drop: {}", w.sql[0]);

            report.results.push(row.clone());
            report.results.push(row);
            let d = check(&exp, &report, &catalog, &q);
            assert_eq!((d.missing, d.extra), (0, 1), "duplicate: {}", w.sql[0]);
        }
    }

    /// The hash-join oracle agrees with the nested-loop reference.
    #[test]
    fn chain3_oracle_matches_reference() {
        let (w, catalog, q) = chain3_case();
        let Oracle::Chain3 { cut } = w.oracle else {
            unreachable!()
        };
        let Expected::Keys(keys) = chain3_oracle(&w, cut) else {
            unreachable!()
        };
        let mut reference: Vec<(i64, i64, i64)> = reference::execute(&catalog, &q)
            .iter()
            .map(|t| (key_of(t, 0), key_of(t, 1), key_of(t, 2)))
            .collect();
        reference.sort_unstable();
        assert_eq!(keys.len(), 300);
        assert_eq!(keys, reference);
    }
}
