//! In-memory spans around the benchmark's calls into the engine.
//!
//! The traced run wraps every public call the benchmark makes —
//! `parse_query`, `EddyExecutor::build`/`step`/`finish`,
//! `ServerBuilder::build`, `QueryServer::submit`/`serve` — in a span
//! kept in memory and written out as TSV when the run ends. The engine
//! itself is not instrumented. `EddyExecutor::step` runs ~2M times per
//! `chain3_scan` query, so its spans are folded into one record per
//! query as they are taken: `count` steps, `busy_ns` their summed
//! duration, `start`/`end` the first start and last end.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub query: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
    pub busy_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Step spans of one query, folded while they are taken.
#[derive(Default)]
pub struct StepFold {
    start_ns: u64,
    end_ns: u64,
    count: u64,
    busy_ns: u64,
}

impl StepFold {
    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        if self.count == 0 {
            self.start_ns = start_ns;
        }
        self.end_ns = end_ns;
        self.count += 1;
        self.busy_ns += end_ns - start_ns;
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        query: Option<usize>,
        parent: Option<usize>,
    ) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            query,
            start_ns: now,
            end_ns: now,
            count: 1,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
    }

    /// Record a folded run of `name` spans.
    pub fn push_fold(
        &mut self,
        name: &'static str,
        query: Option<usize>,
        parent: Option<usize>,
        f: StepFold,
    ) {
        self.spans.push(Span {
            name,
            parent,
            query,
            start_ns: f.start_ns,
            end_ns: f.end_ns,
            count: f.count,
            busy_ns: f.busy_ns,
        });
    }

    /// Summed busy time of every `name` span, in ns.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum()
    }

    /// Number of `name` calls recorded (folded spans count each call).
    pub fn calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    }

    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tquery\tname\tstart_ns\tend_ns\tcount\tbusy_ns\n");
        let opt = |o: Option<usize>| o.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                opt(s.query),
                s.name,
                s.start_ns,
                s.end_ns,
                s.count,
                s.busy_ns
            );
        }
        out
    }
}

/// Time `f` as a span named `name` when tracing.
pub fn span<R>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    query: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        None => f(),
        Some(tr) => {
            let id = tr.begin(name, query, None);
            let r = f();
            tr.end(id);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_folds_sum_by_name() {
        let mut tr = Some(Tracer::new());
        let x = span(&mut tr, "outer", Some(3), || 41 + 1);
        assert_eq!(x, 42);
        let tr = tr.as_mut().unwrap();
        let mut f = StepFold::default();
        f.add(10, 15);
        f.add(20, 22);
        tr.push_fold("step", Some(3), Some(0), f);
        assert_eq!(tr.calls("outer"), 1);
        assert_eq!(tr.calls("step"), 2);
        assert_eq!(tr.busy_ns("step"), 7);
        let tsv = tr.to_tsv();
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.contains("\tstep\t10\t22\t2\t7"));
    }
}
