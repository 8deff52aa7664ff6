//! `bulk`: multi-statement transactions of Appendix A set-oriented
//! inserts on a ~1 MiB document, each followed by a transaction that
//! deletes exactly the inserted fragments. A circuit of grouped counts
//! over Q2 and Q6 is synced after every commit. Two workers, no static
//! analysis. A round is every transaction pair of
//! [`crate::gen::BULK_ROUND`], each followed by one read.

use std::time::{Duration, Instant};

use crate::gen::{bulk_stream, doc_config, BulkPair, LARGE_DOC_TARGET};
use crate::report::Report;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workload::{
    check_stores_against_recompute, construct, micros, read_all, record_commit, record_setup,
    run_phases, ChildArgs, Mode, Workload,
};
use xivm_circuit::{Circuit, CircuitExt, Datum, Row};
use xivm_core::{Commit, Database, Error, ViewHandle};
use xivm_update::statement::parse_statement;
use xivm_xmark::{generate, view_pattern, VIEW_NAMES};
use xivm_xml::{parse_document, serialize_document};

const SETUP_REPS: usize = 5;
/// Rounds every child times at least, however slow the host: with six
/// children that is 120 commits, so the p90 always has at least 10
/// samples beyond it.
const MIN_TIMED_ROUNDS: usize = 2;

struct Bulk {
    db: Database,
    handles: Vec<ViewHandle>,
    circuit: Circuit,
}

/// Group key: the row's first text field (Q2: the increase).
fn text_key(row: &Row) -> Row {
    let text = row.datums().iter().find(|d| d.as_str().is_some()).cloned();
    Row::new(vec![text.unwrap_or(Datum::Null)])
}

/// Group key: the size of the row's first text field in 64-byte
/// buckets (Q6: the serialized item).
fn size_key(row: &Row) -> Row {
    let len = row.datums().iter().find_map(|d| d.as_str()).map_or(0, str::len);
    Row::new(vec![Datum::Int((len / 64) as i64)])
}

fn setup(text: &str, report: &mut Report) -> Result<Bulk, String> {
    let t0 = Instant::now();
    let doc = parse_document(text).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    let mut b = Database::builder().document(doc).workers(2).pipeline(1);
    for v in VIEW_NAMES {
        b = b.view(v, view_pattern(v));
    }
    let mut db = b.build().map_err(|e| format!("build: {e}"))?;
    let t2 = Instant::now();
    let mut cb = db.circuit();
    let q2 = cb.source("Q2").map_err(|e| format!("circuit: {e}"))?;
    cb.count(q2, text_key);
    let q6 = cb.source("Q6").map_err(|e| format!("circuit: {e}"))?;
    cb.count(q6, size_key);
    let circuit = cb.build();
    record_setup(report, [t0, t1, t2, Instant::now()]);
    let handles = db.handles();
    Ok(Bulk { db, handles, circuit })
}

impl Bulk {
    /// One transaction, then a circuit sync.
    fn commit(
        &mut self,
        statements: &[String],
        mode: Mode,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Option<Commit> {
        report.add("ops.attempted", 1.0);
        let start = Instant::now();
        let mut parse_spans = Vec::new();
        let (result, call) = if mode == Mode::Traced {
            tracer.begin_commit();
            let parsed: Result<Vec<_>, Error> = statements
                .iter()
                .map(|s| {
                    let (p, span) = tracer.span("update.parse", None, || parse_statement(s));
                    parse_spans.push(span);
                    p.map_err(Error::from)
                })
                .collect();
            let call = Instant::now();
            let result = parsed.and_then(|ss| {
                ss.into_iter().fold(self.db.transaction(), |tx, s| tx.statement(s)).commit()
            });
            (result, call)
        } else {
            let tx =
                statements.iter().fold(self.db.transaction(), |tx, s| tx.statement(s.as_str()));
            (tx.commit(), start)
        };
        let sealed = Instant::now();
        let commit = match result {
            Ok(c) => c,
            Err(e) => {
                report.add("ops.failed", 1.0);
                report.fail(format!("transaction failed: {e}"));
                tracer.end_commit();
                return None;
            }
        };
        let commit_span = tracer.record("commit", start, sealed, None);
        for span in parse_spans {
            tracer.adopt(span, commit_span);
        }
        if mode == Mode::Traced {
            record_commit(report, tracer, commit_span, call, &commit);
        }
        let circuit = &mut self.circuit;
        let db = &mut self.db;
        tracer.span("circuit.sync", None, || circuit.sync(db));
        let fresh = Instant::now();
        tracer.end_commit();
        if mode == Mode::Timed {
            report.sample("commit", micros(sealed - start));
            report.sample("freshness", micros(fresh - start));
        }
        Some(commit)
    }

    /// One round: every transaction pair, each followed by an output
    /// check of the document and one read (a read per pair, not per
    /// round, gives `read_p50_us` enough samples at this commit rate).
    /// Returns time spent in output checks.
    fn round(
        &mut self,
        round: &[BulkPair],
        baseline: &str,
        mode: Mode,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Duration {
        let mut paused = Duration::ZERO;
        for pair in round {
            let inserted = self.commit(&pair.inserts, mode, tracer, report);
            let removed = self.commit(&pair.deletes, mode, tracer, report);
            let t = Instant::now();
            if let (Some(ins), Some(del)) = (inserted, removed) {
                for &h in &self.handles {
                    let (a, d) = (ins.delta(h), del.delta(h));
                    report.check(
                        a.inserted.len() == d.removed.len() && a.removed.len() == d.inserted.len(),
                        || {
                            format!(
                                "{:?} on {}: the inverse removed {} of {} inserted tuples",
                                pair.names,
                                self.db.name(h),
                                d.removed.len(),
                                a.inserted.len()
                            )
                        },
                    );
                }
            }
            report.check(self.db.serialize() == baseline, || {
                format!("document not restored after {:?}", pair.names)
            });
            paused += t.elapsed();
            report.add("ops.attempted", 1.0);
            read_all(&self.db, &self.handles, tracer, report, mode != Mode::Warmup);
        }
        paused
    }
}

/// The bulk workload over its seeded stream, cycled round by round.
struct BulkRun<'a> {
    b: Bulk,
    stream: &'a [Vec<BulkPair>],
    text: &'a str,
    next: usize,
}

impl Workload for BulkRun<'_> {
    fn commits(&self) -> u64 {
        self.b.db.last_seq()
    }

    fn threads_spawned(&self) -> u64 {
        self.b.db.threads_spawned()
    }

    fn round(&mut self, mode: Mode, tracer: &mut Tracer, report: &mut Report) -> Duration {
        let i = self.next % self.stream.len();
        self.next += 1;
        self.b.round(&self.stream[i], self.text, mode, tracer, report)
    }
}

pub fn run(args: &ChildArgs, report: &mut Report) {
    let text =
        serialize_document(&generate(&doc_config(args.seed, args.proc_index, LARGE_DOC_TARGET)));
    let stream = bulk_stream(Rng::derive(args.seed, 3000 + args.proc_index).next_u64());
    let Some(b) = construct(SETUP_REPS, report, |r| setup(&text, r)) else { return };
    let mut run = BulkRun { b, stream: &stream, text: &text, next: 0 };
    run_phases(&mut run, args, 1, MIN_TIMED_ROUNDS, report);

    let b = &run.b;
    check_stores_against_recompute(&b.db, report);
    let fresh = b.circuit.recompute(&b.db);
    for (node, want) in b.circuit.nodes().into_iter().zip(&fresh) {
        report.check(b.circuit.store(node).same_content_as(want), || {
            format!(
                "circuit node {} differs from recomputation: {}",
                b.circuit.label(node),
                b.circuit.store(node).diff_description(want)
            )
        });
    }
}
