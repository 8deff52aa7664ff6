//! `point`: single-entity commits on a ~1 MiB document with every view
//! subscribed and drained into consumer copies after each commit.
//!
//! Each pair inserts one person, item or open auction (fresh `@id`)
//! into its container and deletes it again by `@id`; a round is the
//! pairs of [`crate::gen::ENTITY_ROUND`] plus one read (a snapshot and a full scan of all
//! seven views). The database runs with two workers and static
//! analysis over the XMark DTD.

use std::time::{Duration, Instant};

use crate::gen::{doc_config, entity_stream, fragment_in_context, EntityPair, LARGE_DOC_TARGET};
use crate::report::Report;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workload::{
    check_stores_against_recompute, construct, micros, read_all, record_commit, record_setup,
    run_phases, same_bytes, ChildArgs, Mode, Workload,
};
use xivm_core::{
    AnalyzeMode, Commit, Database, SlowConsumerPolicy, Subscription, ViewHandle, ViewStore,
};
use xivm_ivma::recompute_store;
use xivm_update::statement::parse_statement;
use xivm_xmark::{generate, view_pattern, xmark_dtd, VIEW_NAMES};
use xivm_xml::{parse_document, serialize_document};

/// Constructions per child; `setup_s` is their median over the run.
const SETUP_REPS: usize = 5;

struct Point {
    db: Database,
    handles: Vec<ViewHandle>,
    subs: Vec<Subscription>,
    /// Consumer copies, kept current by replaying drained deltas.
    copies: Vec<ViewStore>,
}

/// Per view: (tuples, derivations) one insert of a pair must add.
type Expected = Vec<(usize, u64)>;

fn setup(text: &str, report: &mut Report) -> Result<Point, String> {
    let t0 = Instant::now();
    let doc = parse_document(text).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    let mut b = Database::builder()
        .document(doc)
        .dtd(xmark_dtd())
        .analyze(AnalyzeMode::Warn)
        .workers(2)
        .pipeline(1);
    for v in VIEW_NAMES {
        b = b.view(v, view_pattern(v));
    }
    let mut db = b.build().map_err(|e| format!("build: {e}"))?;
    let t2 = Instant::now();
    let handles = db.handles();
    let subs: Vec<Subscription> =
        handles.iter().map(|&h| db.subscribe_with(h, None, SlowConsumerPolicy::Block)).collect();
    let copies = handles.iter().map(|&h| db.store(h).clone()).collect();
    record_setup(report, [t0, t1, t2, Instant::now()]);
    Ok(Point { db, handles, subs, copies })
}

impl Point {
    /// One commit followed by draining every subscription into the
    /// copies. Returns the commit, or `None` when it failed.
    fn commit(
        &mut self,
        text: &str,
        mode: Mode,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Option<Commit> {
        report.add("ops.attempted", 1.0);
        let start = Instant::now();
        let (result, call, parse_span) = if mode == Mode::Traced {
            tracer.begin_commit();
            let (parsed, span) = tracer.span("update.parse", None, || parse_statement(text));
            let call = Instant::now();
            (parsed.map_err(xivm_core::Error::from).and_then(|s| self.db.apply(s)), call, span)
        } else {
            (self.db.apply(text), start, None)
        };
        let sealed = Instant::now();
        let commit = match result {
            Ok(c) => c,
            Err(e) => {
                report.add("ops.failed", 1.0);
                report.fail(format!("commit failed: {e}"));
                tracer.end_commit();
                return None;
            }
        };
        let commit_span = tracer.record("commit", start, sealed, None);
        tracer.adopt(parse_span, commit_span);
        if mode == Mode::Traced {
            record_commit(report, tracer, commit_span, call, &commit);
        }
        for (sub, copy) in self.subs.iter().zip(&mut self.copies) {
            let (events, _) = tracer.span("subscribe.drain", None, || sub.drain());
            if mode == Mode::Traced {
                report.add("subscribe.drains", 1.0);
                report.add("subscribe.events", events.len() as f64);
            }
            for event in events {
                match event.delta() {
                    Some(ev) => {
                        tracer.span("subscribe.replay", None, || ev.delta.replay(copy));
                    }
                    None => report.fail("point subscription lagged"),
                }
            }
        }
        let fresh = Instant::now();
        tracer.end_commit();
        if mode == Mode::Timed {
            report.sample("commit", micros(sealed - start));
            report.sample("freshness", micros(fresh - start));
        }
        Some(commit)
    }

    /// One round: every pair, then one read. Returns time spent in
    /// output checks.
    fn round(
        &mut self,
        round: &[EntityPair],
        expected: &[Expected],
        baseline: Option<&str>,
        mode: Mode,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Duration {
        let mut paused = Duration::ZERO;
        for (pair, want) in round.iter().zip(expected) {
            let inserted = self.commit(&pair.insert, mode, tracer, report);
            let removed = self.commit(&pair.delete, mode, tracer, report);
            let t = Instant::now();
            if let (Some(ins), Some(del)) = (inserted, removed) {
                self.check_pair(pair, want, &ins, &del, report);
            }
            if let Some(base) = baseline {
                report.check(self.db.serialize() == base, || {
                    format!("document not restored after the {} pair", pair.kind.name())
                });
            }
            paused += t.elapsed();
        }
        report.add("ops.attempted", 1.0);
        read_all(&self.db, &self.handles, tracer, report, mode != Mode::Warmup);
        paused
    }

    /// The insert added exactly the tuples its fragment implies, and
    /// the delete removed exactly those.
    fn check_pair(
        &self,
        pair: &EntityPair,
        want: &Expected,
        ins: &Commit,
        del: &Commit,
        report: &mut Report,
    ) {
        for (i, &h) in self.handles.iter().enumerate() {
            let (tuples, derivations) = want[i];
            let added = ins.delta(h);
            let gone = del.delta(h);
            let added_d: u64 = added.inserted.iter().map(|(_, c)| c).sum();
            let gone_d: u64 = gone.removed.iter().map(|(_, c)| c).sum();
            report.check(
                added.inserted.len() == tuples
                    && added_d == derivations
                    && added.removed.is_empty()
                    && gone.removed.len() == tuples
                    && gone_d == derivations
                    && gone.inserted.is_empty(),
                || {
                    format!(
                        "{} pair on view {}: expected +{tuples}/-{tuples} tuples, \
                         got +{}/-{} (removed {} on insert, added {} on delete)",
                        pair.kind.name(),
                        self.db.name(h),
                        added.inserted.len(),
                        gone.removed.len(),
                        added.removed.len(),
                        gone.inserted.len()
                    )
                },
            );
        }
    }
}

/// Per pair: the tuples each view gains from the pair's fragment,
/// counted by evaluating the views from scratch over the fragment in
/// the skeleton of its container.
fn expected_counts(stream: &[Vec<EntityPair>]) -> Result<Vec<Vec<Expected>>, String> {
    let patterns: Vec<_> = VIEW_NAMES.iter().map(|v| view_pattern(v)).collect();
    stream
        .iter()
        .map(|round| {
            round
                .iter()
                .map(|pair| {
                    let mini = parse_document(&fragment_in_context(pair))
                        .map_err(|e| format!("fragment does not parse: {e}"))?;
                    Ok(patterns
                        .iter()
                        .map(|p| {
                            let s = recompute_store(&mini, p);
                            (s.len(), s.total_derivations())
                        })
                        .collect())
                })
                .collect()
        })
        .collect()
}

/// The point workload over its seeded stream, cycled round by round.
struct PointRun<'a> {
    p: Point,
    stream: &'a [Vec<EntityPair>],
    expected: &'a [Vec<Expected>],
    text: &'a str,
    next: usize,
}

impl Workload for PointRun<'_> {
    fn commits(&self) -> u64 {
        self.p.db.last_seq()
    }

    fn threads_spawned(&self) -> u64 {
        self.p.db.threads_spawned()
    }

    /// Warm-up rounds check the document after every pair; timed
    /// rounds check it once, at the round's end (the pairs of a round
    /// touch disjoint entities, so a pair that fails to restore it
    /// still shows).
    fn round(&mut self, mode: Mode, tracer: &mut Tracer, report: &mut Report) -> Duration {
        let i = self.next % self.stream.len();
        self.next += 1;
        let per_pair = (mode == Mode::Warmup).then_some(self.text);
        let checks =
            self.p.round(&self.stream[i], &self.expected[i], per_pair, mode, tracer, report);
        if per_pair.is_some() {
            return checks;
        }
        let t = Instant::now();
        report.check(self.p.db.serialize() == self.text, || {
            "document not restored after a round".into()
        });
        checks + t.elapsed()
    }
}

pub fn run(args: &ChildArgs, report: &mut Report) {
    let text =
        serialize_document(&generate(&doc_config(args.seed, args.proc_index, LARGE_DOC_TARGET)));
    let stream = entity_stream(Rng::derive(args.seed, 2000 + args.proc_index).next_u64());
    let expected = match expected_counts(&stream) {
        Ok(e) => e,
        Err(e) => return report.fail(e),
    };
    let Some(p) = construct(SETUP_REPS, report, |r| setup(&text, r)) else { return };
    let mut run = PointRun { p, stream: &stream, expected: &expected, text: &text, next: 0 };
    run_phases(&mut run, args, 2, 1, report);

    let p = &run.p;
    check_stores_against_recompute(&p.db, report);
    for (i, &h) in p.handles.iter().enumerate() {
        report.check(same_bytes(&p.copies[i], p.db.store(h)), || {
            format!("consumer copy of {} differs from the served store", p.db.name(h))
        });
    }
    report.check(p.db.serialize() == text, || "final document differs from the initial".into());
}
