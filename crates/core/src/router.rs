//! The constraint layer: which modules may a tuple be routed to *right
//! now*? (paper Table 2, routing-policy side.)
//!
//! The router computes the legal candidate set; the
//! [`crate::policy::RoutingPolicy`] picks among candidates. This split is
//! the paper's central separation of concerns: "the SteM BounceBack and
//! Timestamp rules are implemented internally to the AMs and SteMs, and the
//! routing policy implementor need not be aware of them at all" — while
//! BuildFirst / BoundedRepetition / ProbeCompletion live here, so *no*
//! policy can produce wrong answers.

use crate::plan::{Module, PlanLayout};
use crate::tuple_state::TupleState;
use stems_catalog::QuerySpec;
use stems_types::{PredId, TableIdx, Tuple};

/// One legal routing destination for a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Build into the SteM on the tuple's own table (BuildFirst).
    Build { mid: usize, table: TableIdx },
    /// Probe the SteM on `table`.
    ProbeStem { mid: usize, table: TableIdx },
    /// Apply the selection module for `pred`.
    Select { mid: usize, pred: PredId },
    /// Probe an index AM on `table` (prior probers only, §3.3).
    ProbeAm { mid: usize, table: TableIdx },
    /// Leave the dataflow. Offered only when correctness permits it
    /// (optional-completion prior probers, §4.1) — this is the "wait for
    /// the scan instead" arm of index/hash hybridization.
    Drop,
}

impl Action {
    /// The destination module id; `None` for [`Action::Drop`].
    pub fn mid(&self) -> Option<usize> {
        match self {
            Action::Build { mid, .. }
            | Action::ProbeStem { mid, .. }
            | Action::Select { mid, .. }
            | Action::ProbeAm { mid, .. } => Some(*mid),
            Action::Drop => None,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Action::Build { .. } => "build",
            Action::ProbeStem { .. } => "probe_stem",
            Action::Select { .. } => "select",
            Action::ProbeAm { .. } => "probe_am",
            Action::Drop => "drop",
        }
    }
}

/// Why `candidates` returned an empty set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoCandidates {
    /// The tuple's useful life is over (it has done everything it may do);
    /// remove it from the dataflow. This is the normal fate of most
    /// tuples — results are carried forward by their concatenations.
    Retire,
    /// A prior prober whose completion is still pending: park it until the
    /// completion table's SteM changes (new builds or EOTs).
    Park { table: TableIdx },
}

/// Compute the candidate actions for a tuple, or the reason there are none.
///
/// `probe_edges`: optional restriction of SteM probes to a fixed set of
/// join-graph edges — used to emulate a *static spanning tree* for the
/// §3.4 experiments. `None` = all edges (dynamic spanning trees).
pub fn candidates(
    modules: &[Module],
    layout: &PlanLayout,
    query: &QuerySpec,
    tuple: &Tuple,
    state: &TupleState,
    probe_edges: Option<&[(TableIdx, TableIdx)]>,
) -> Result<Vec<Action>, NoCandidates> {
    let span = tuple.span();

    // BuildFirst (Table 2): an unbuilt singleton from a build-required
    // table may do nothing else.
    if tuple.is_singleton() {
        let t = tuple.components()[0].table;
        let unbuilt = tuple.components()[0].ts == stems_types::UNBUILT_TS;
        if unbuilt && layout.build_required[t.as_usize()] {
            if let Some(mid) = layout.stem_mid[t.as_usize()] {
                return Ok(vec![Action::Build { mid, table: t }]);
            }
        }
    }

    let mut acts: Vec<Action> = Vec::new();

    // Selections not yet passed and evaluable on the current span.
    for (pred, mid) in &layout.sm_mids {
        if !state.done.contains(*pred) && query.predicate(*pred).evaluable_on(span) {
            acts.push(Action::Select {
                mid: *mid,
                pred: *pred,
            });
        }
    }

    if let Some(pp) = state.prior_prober {
        // ProbeCompletion (Table 2): only the completion table's SteM and
        // AMs are reachable.
        let ct = pp.table;
        // Re-probe the completion SteM, but only if it changed since our
        // last probe (BoundedRepetition).
        if let Some(mid) = layout.stem_mid[ct.as_usize()] {
            if let Module::Stem(cell) = &modules[mid] {
                if stem_version(&cell.lock()) > state.last_probe_version {
                    acts.push(Action::ProbeStem { mid, table: ct });
                }
            }
        }
        // Index AMs on the completion table, each at most once, and only
        // if this tuple can bind their lookup columns.
        if !state.probed_ams.contains(ct) {
            for &mid in &layout.index_mids[ct.as_usize()] {
                if let Module::IndexAm(am) = &modules[mid] {
                    if am.can_bind(tuple, ct, query) {
                        acts.push(Action::ProbeAm { mid, table: ct });
                    }
                }
            }
        }
        match pp.need {
            crate::tuple_state::CompletionNeed::Optional => acts.push(Action::Drop),
            crate::tuple_state::CompletionNeed::Required => {
                if acts.is_empty() {
                    return Err(NoCandidates::Park { table: ct });
                }
            }
        }
        if acts.is_empty() {
            return Err(NoCandidates::Retire);
        }
        return Ok(acts);
    }

    // SteM probes: adjacent (predicate-linked) tables outside the span;
    // if no predicate links anything (cross product), every remaining
    // table is a candidate.
    let graph = query.join_graph();
    let mut frontier = graph.frontier(span);
    if frontier.is_empty() {
        frontier = query.full_span().minus(span);
    }
    for t in frontier.iter() {
        if state.probed_stems.contains(t) {
            continue; // BoundedRepetition: one probe per SteM per tuple.
        }
        if let Some(edges) = probe_edges {
            let allowed = span.iter().any(|s| {
                edges
                    .iter()
                    .any(|(a, b)| (*a == s && *b == t) || (*a == t && *b == s))
            });
            if !allowed {
                continue;
            }
        }
        if let Some(mid) = layout.stem_mid[t.as_usize()] {
            acts.push(Action::ProbeStem { mid, table: t });
        }
    }

    if acts.is_empty() {
        Err(NoCandidates::Retire)
    } else {
        Ok(acts)
    }
}

/// A SteM's change counter: any build, EOT or scan-completion bumps it.
/// Aggregated across shards, so a build into any shard re-offers the
/// re-probe.
pub fn stem_version(stem: &crate::sharded::ShardedStem) -> u64 {
    stem.build_count() + stem.eot_version()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{instantiate, PlanOptions};
    use crate::stem::{make_scan_eot_row, BuildResult};
    use crate::tuple_state::{CompletionNeed, PriorProber};
    use stems_catalog::{Catalog, IndexSpec, ScanSpec, TableDef, TableInstance};
    use stems_types::{CmpOp, ColRef, ColumnType, Predicate, Schema, Timestamp, TupleBatch, Value};

    fn setup(index_on_s: bool) -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let r = c
            .add_table(TableDef::new(
                "R",
                Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
            ))
            .unwrap();
        let s = c
            .add_table(
                TableDef::new(
                    "S",
                    Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
                )
                .with_rows(vec![vec![10.into(), 1.into()]]),
            )
            .unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        if index_on_s {
            c.add_index(s, IndexSpec::new(vec![0], 1000)).unwrap();
        } else {
            c.add_scan(s, ScanSpec::default()).unwrap();
        }
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
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 0),
                ),
                Predicate::selection(
                    PredId(1),
                    ColRef::new(TableIdx(0), 0),
                    CmpOp::Gt,
                    Value::Int(0),
                ),
            ],
            None,
        )
        .unwrap();
        (c, q)
    }

    fn plan(c: &Catalog, q: &QuerySpec) -> (Vec<Module>, PlanLayout) {
        instantiate(c, q, &PlanOptions::default()).unwrap()
    }

    fn r_tuple(key: i64, a: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(0), vec![Value::Int(key), Value::Int(a)])
    }

    #[test]
    fn unbuilt_singleton_must_build_first() {
        let (c, q) = setup(true);
        let (m, l) = plan(&c, &q);
        let acts = candidates(&m, &l, &q, &r_tuple(1, 10), &TupleState::new(), None).unwrap();
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            acts[0],
            Action::Build {
                table: TableIdx(0),
                ..
            }
        ));
    }

    #[test]
    fn built_singleton_gets_selects_and_probes() {
        let (c, q) = setup(true);
        let (m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let acts = candidates(&m, &l, &q, &r, &TupleState::new(), None).unwrap();
        let kinds: Vec<_> = acts.iter().map(Action::kind).collect();
        assert!(kinds.contains(&"select"));
        assert!(kinds.contains(&"probe_stem"));
        assert!(!kinds.contains(&"probe_am"), "AMs only after a SteM bounce");
    }

    #[test]
    fn probed_stem_not_offered_again() {
        let (c, q) = setup(true);
        let (m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let mut st = TupleState::new();
        st.done.insert(PredId(1));
        st.mark_probed(TableIdx(1));
        match candidates(&m, &l, &q, &r, &st, None) {
            Err(NoCandidates::Retire) => {}
            other => panic!("expected retire, got {other:?}"),
        }
    }

    #[test]
    fn required_prior_prober_goes_to_am_then_parks() {
        let (c, q) = setup(true);
        let (m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let mut st = TupleState::new();
        st.done.insert(PredId(1));
        st.mark_probed(TableIdx(1));
        st.prior_prober = Some(PriorProber {
            table: TableIdx(1),
            need: CompletionNeed::Required,
        });
        let acts = candidates(&m, &l, &q, &r, &st, None).unwrap();
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            acts[0],
            Action::ProbeAm {
                table: TableIdx(1),
                ..
            }
        ));
        assert!(!acts.contains(&Action::Drop));
        // After probing the AM (and with the stem unchanged): park.
        st.mark_am_probed(TableIdx(1));
        match candidates(&m, &l, &q, &r, &st, None) {
            Err(NoCandidates::Park { table: TableIdx(1) }) => {}
            other => panic!("expected park, got {other:?}"),
        }
    }

    #[test]
    fn optional_prior_prober_may_drop() {
        let (c, q) = setup(true);
        let (m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let mut st = TupleState::new();
        st.done.insert(PredId(1));
        st.mark_probed(TableIdx(1));
        st.prior_prober = Some(PriorProber {
            table: TableIdx(1),
            need: CompletionNeed::Optional,
        });
        let acts = candidates(&m, &l, &q, &r, &st, None).unwrap();
        assert!(acts.contains(&Action::Drop));
        assert!(acts.iter().any(|a| matches!(a, Action::ProbeAm { .. })));
        // ProbeCompletion: no other SteM may be probed.
        assert!(!acts.iter().any(|a| matches!(
            a,
            Action::ProbeStem {
                table: TableIdx(0),
                ..
            }
        )));
    }

    #[test]
    fn reprobe_offered_only_after_stem_change() {
        let (c, q) = setup(true);
        let (mut m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let mut st = TupleState::new();
        st.done.insert(PredId(1));
        st.mark_probed(TableIdx(1));
        st.mark_am_probed(TableIdx(1));
        st.prior_prober = Some(PriorProber {
            table: TableIdx(1),
            need: CompletionNeed::Required,
        });
        st.last_probe_version = 0;
        // Unchanged stem: park.
        assert!(matches!(
            candidates(&m, &l, &q, &r, &st, None),
            Err(NoCandidates::Park { .. })
        ));
        // Build an EOT into SteM_S: version bumps, re-probe offered.
        let smid = l.stem_mid[1].unwrap();
        if let Module::Stem(cell) = &mut m[smid] {
            let eot = TupleBatch::single(Tuple::singleton(TableIdx(1), make_scan_eot_row(2)));
            let mut ts: Timestamp = 0;
            assert_eq!(
                cell.lock().build_batch(&eot, &[TupleState::new()], &mut ts),
                vec![BuildResult::Eot]
            );
        }
        let acts = candidates(&m, &l, &q, &r, &st, None).unwrap();
        assert!(matches!(
            acts[0],
            Action::ProbeStem {
                table: TableIdx(1),
                ..
            }
        ));
    }

    #[test]
    fn probe_edges_restrict_spanning_tree() {
        // Triangle query; restricting to edges (0,1),(1,2) forbids 0–2.
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int)]);
        let ids: Vec<_> = ["A", "B", "C"]
            .iter()
            .map(|n| {
                let id = c.add_table(TableDef::new(n, schema.clone())).unwrap();
                c.add_scan(id, ScanSpec::default()).unwrap();
                id
            })
            .collect();
        let q = QuerySpec::new(
            &c,
            ids.iter()
                .zip(["a", "b", "cc"])
                .map(|(s, al)| TableInstance {
                    source: *s,
                    alias: al.into(),
                })
                .collect(),
            vec![
                Predicate::join(
                    PredId(0),
                    ColRef::new(TableIdx(0), 0),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 0),
                ),
                Predicate::join(
                    PredId(1),
                    ColRef::new(TableIdx(1), 0),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(2), 0),
                ),
                Predicate::join(
                    PredId(2),
                    ColRef::new(TableIdx(0), 0),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(2), 0),
                ),
            ],
            None,
        )
        .unwrap();
        let (m, l) = plan(&c, &q);
        let a =
            Tuple::singleton_of(TableIdx(0), vec![Value::Int(1)]).with_timestamp(TableIdx(0), 1);
        // Unrestricted: both SteM_B and SteM_C are candidates.
        let acts = candidates(&m, &l, &q, &a, &TupleState::new(), None).unwrap();
        assert_eq!(acts.len(), 2);
        // Restricted to the chain tree: only SteM_B.
        let tree = vec![(TableIdx(0), TableIdx(1)), (TableIdx(1), TableIdx(2))];
        let acts = candidates(&m, &l, &q, &a, &TupleState::new(), Some(&tree)).unwrap();
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            acts[0],
            Action::ProbeStem {
                table: TableIdx(1),
                ..
            }
        ));
    }

    #[test]
    fn cross_product_probes_offered_without_predicates() {
        let (c, q) = setup(false);
        let q = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let (m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let acts = candidates(&m, &l, &q, &r, &TupleState::new(), None).unwrap();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::ProbeStem {
                table: TableIdx(1),
                ..
            }
        )));
    }
}
