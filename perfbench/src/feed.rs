//! `feed`: tiny `apply_async` commits on a ~64 KiB document, pipeline
//! depth 4, two workers, Q6 and Q13 under deferred maintenance, and Q2
//! served by a [`FeedServer`] to an in-process [`ReplicaClient`] over
//! localhost TCP. Every burst has the same make-up: submit one round of
//! entity pairs ([`crate::gen::ENTITY_ROUND`]), wait for their tickets,
//! `flush`, one `refresh_all`, `pump`, `sync_to`, one read.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{doc_config, entity_stream, EntityPair, SMALL_DOC_TARGET};
use crate::report::Report;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workload::{
    check_stores_against_recompute, construct, micros, read_all, record_commit, record_setup,
    run_phases, ChildArgs, Mode, Workload,
};
use xivm_core::snapshot::encode_event;
use xivm_core::{Commit, Database, DeltaEvent, Error, FeedEvent, Ticket, ViewHandle};
use xivm_feed::{FeedServer, ReplicaClient};
use xivm_update::statement::parse_statement;
use xivm_xmark::{generate, view_pattern, VIEW_NAMES};
use xivm_xml::{parse_document, serialize_document};

const SETUP_REPS: usize = 16;
const DEFERRED: [&str; 2] = ["Q6", "Q13"];
const SERVED: &str = "Q2";
/// Events the server retains for replicas that fall behind.
const RETAIN: usize = 64;

struct Feed {
    db: Database,
    handles: Vec<ViewHandle>,
    served: ViewHandle,
    server: FeedServer,
    replica: ReplicaClient,
    /// Submitted commits sealed so far (refresh commits excluded).
    sealed: u64,
}

fn setup(text: &str, report: &mut Report) -> Result<Feed, String> {
    let t0 = Instant::now();
    let doc = parse_document(text).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    let mut b = Database::builder().document(doc).workers(2).pipeline(4);
    for v in VIEW_NAMES {
        b = if DEFERRED.contains(&v) {
            b.view_deferred(v, view_pattern(v))
        } else {
            b.view(v, view_pattern(v))
        };
    }
    let mut db = b.build().map_err(|e| format!("build: {e}"))?;
    let t2 = Instant::now();
    let served = db.view(SERVED).map_err(|e| format!("served view: {e}"))?;
    let server = FeedServer::bind("127.0.0.1:0", &mut db, served, RETAIN)
        .map_err(|e| format!("feed server: {e}"))?;
    let mut replica = ReplicaClient::connect(server.local_addr(), SERVED)
        .map_err(|e| format!("replica connect: {e}"))?;
    replica.sync_to(db.last_seq()).map_err(|e| format!("replica bootstrap: {e}"))?;
    record_setup(report, [t0, t1, t2, Instant::now()]);
    let handles = db.handles();
    Ok(Feed { db, handles, served, server, replica, sealed: 0 })
}

/// One submitted commit awaiting its seal.
struct Pending {
    start: Instant,
    /// When `apply_async` returned.
    submitted: Instant,
    ticket: Ticket,
    commit_id: u64,
    spans: Vec<Option<usize>>,
}

impl Feed {
    fn submit(
        &mut self,
        text: &str,
        mode: Mode,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Option<Pending> {
        report.add("ops.attempted", 1.0);
        let start = Instant::now();
        let (result, spans, commit_id) = if mode == Mode::Traced {
            let id = tracer.begin_commit();
            let (parsed, parse_span) = tracer.span("update.parse", None, || parse_statement(text));
            let db = &mut self.db;
            let (result, submit_span) = tracer.span("service.submit", None, || {
                parsed.map_err(Error::from).and_then(|s| db.apply_async([s]))
            });
            tracer.end_commit();
            (result, vec![parse_span, submit_span], id)
        } else {
            (self.db.apply_async([text]), Vec::new(), 0)
        };
        let submitted = Instant::now();
        match result {
            Ok(ticket) => Some(Pending { start, submitted, ticket, commit_id, spans }),
            Err(e) => {
                report.add("ops.failed", 1.0);
                report.fail(format!("submit failed: {e}"));
                None
            }
        }
    }

    /// One burst. Returns time spent in output checks and encoding the
    /// served events (traced), which is not timed.
    fn burst(
        &mut self,
        round: &[EntityPair],
        baseline: &str,
        mode: Mode,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Duration {
        let mut pending = Vec::new();
        for pair in round {
            for text in [&pair.insert, &pair.delete] {
                pending.extend(self.submit(text, mode, tracer, report));
            }
        }
        let mut traced: Vec<Commit> = Vec::new();
        let mut starts = Vec::with_capacity(pending.len());
        for p in pending {
            let result = p.ticket.wait();
            let at = Instant::now();
            match result {
                Ok(commit) => {
                    if mode == Mode::Traced {
                        tracer.set_commit(p.commit_id);
                        let span = tracer.record("commit", p.start, at, None);
                        for child in p.spans {
                            tracer.adopt(child, span);
                        }
                        record_commit(report, tracer, span, p.submitted, &commit);
                        tracer.end_commit();
                    } else if mode == Mode::Timed {
                        report.sample("commit", micros(at - p.start));
                    }
                    starts.push(p.start);
                    if mode == Mode::Traced {
                        traced.push(commit);
                    }
                    self.sealed += 1;
                }
                Err(e) => {
                    report.add("ops.failed", 1.0);
                    report.fail(format!("async commit failed: {e}"));
                }
            }
        }
        let db = &mut self.db;
        let (flushed, _) = tracer.span("service.flush", None, || db.flush());
        if let Err(e) = flushed {
            report.fail(format!("flush: {e}"));
        }
        let (refreshed, _) = tracer.span("deferred.refresh", None, || db.refresh_all());
        match refreshed {
            Ok(commits) if mode == Mode::Traced => traced.extend(commits),
            Ok(_) => {}
            Err(e) => report.fail(format!("refresh_all: {e}")),
        }
        let server = &mut self.server;
        tracer.span("feed.pump", None, || server.pump(db));
        let target = db.last_seq();
        let replica = &mut self.replica;
        let (synced, _) = tracer.span("feed.sync", None, || replica.sync_to(target));
        let fresh = Instant::now();
        if let Err(e) = synced {
            report.fail(format!("replica sync: {e}"));
        }
        if mode == Mode::Timed {
            for start in starts {
                report.sample("freshness", micros(fresh - start));
            }
        }
        report.add("ops.attempted", 1.0);
        read_all(&self.db, &self.handles, tracer, report, mode != Mode::Warmup);

        let t = Instant::now();
        // The served view's event of every commit, as the wire carries
        // it (refresh commits included).
        for c in &traced {
            let event = FeedEvent::Delta(DeltaEvent {
                seq: c.seq,
                folded: c.report(self.served).coalesced.clone(),
                delta: Arc::new(c.delta(self.served).clone()),
            });
            report.sample("feed.event_bytes", encode_event(&event).len() as f64);
        }
        report.check(self.db.serialize() == baseline, || {
            "document not restored after a burst".into()
        });
        report.check(self.replica.identical_to(self.db.store(self.served)), || {
            format!("replica of {SERVED} differs from the served store")
        });
        t.elapsed()
    }
}

/// The feed workload over its seeded stream, one burst per round.
struct FeedRun<'a> {
    f: Feed,
    stream: &'a [Vec<EntityPair>],
    text: &'a str,
    next: usize,
}

impl Workload for FeedRun<'_> {
    fn commits(&self) -> u64 {
        self.f.sealed
    }

    fn threads_spawned(&self) -> u64 {
        self.f.db.threads_spawned()
    }

    fn round(&mut self, mode: Mode, tracer: &mut Tracer, report: &mut Report) -> Duration {
        let i = self.next % self.stream.len();
        self.next += 1;
        self.f.burst(&self.stream[i], self.text, mode, tracer, report)
    }
}

pub fn run(args: &ChildArgs, report: &mut Report) {
    let text =
        serialize_document(&generate(&doc_config(args.seed, args.proc_index, SMALL_DOC_TARGET)));
    let stream = entity_stream(Rng::derive(args.seed, 4000 + args.proc_index).next_u64());
    let Some(f) = construct(SETUP_REPS, report, |r| setup(&text, r)) else { return };
    let mut run = FeedRun { f, stream: &stream, text: &text, next: 0 };
    run_phases(&mut run, args, 2, 1, report);

    let f = &run.f;
    check_stores_against_recompute(&f.db, report);
    report.check(f.replica.identical_to(f.db.store(f.served)), || {
        format!("final replica of {SERVED} differs from the served store")
    });
}
