//! The parts every workload shares: the child's arguments, the
//! round-based timed loop, snapshot reads, commit bookkeeping, and the
//! end-of-run checks against from-scratch recomputation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::Report;
use crate::trace::{EngineWork, Tracer};
use xivm_core::snapshot::encode_store;
use xivm_core::{Commit, Database, ViewHandle, ViewStore};
use xivm_ivma::recompute_store;

/// What one child process runs.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    /// Timed seconds of this child (its share of the run).
    pub seconds: f64,
    pub trace: bool,
    /// Position among the run's children (decorrelates inputs).
    pub proc_index: u64,
}

/// Warm-up before the timed phase (excluded from every metric).
pub const WARMUP: Duration = Duration::from_millis(400);

/// What measuring does in a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Rounds before the timed phases: nothing is sampled.
    Warmup,
    /// End-to-end samples; the tracer is off.
    Timed,
    /// Spans are recorded; no end-to-end samples.
    Traced,
}

/// One workload, ready to run rounds.
pub trait Workload {
    /// Commits sealed so far (refresh commits excluded).
    fn commits(&self) -> u64;
    /// Worker threads the database has spawned so far.
    fn threads_spawned(&self) -> u64;
    /// Runs the next round. Returns the time spent in output checks,
    /// which is not timed.
    fn round(&mut self, mode: Mode, tracer: &mut Tracer, report: &mut Report) -> Duration;
}

/// Builds a workload's state `reps` times, keeping the last
/// construction (each earlier one is torn down before the next starts,
/// so every construction is timed alike). `None` after a failed
/// construction, which is reported.
pub fn construct<S>(
    reps: usize,
    report: &mut Report,
    mut setup: impl FnMut(&mut Report) -> Result<S, String>,
) -> Option<S> {
    let mut live = None;
    for _ in 0..reps {
        drop(live.take());
        match setup(report) {
            Ok(s) => live = Some(s),
            Err(e) => {
                report.fail(e);
                return None;
            }
        }
    }
    live
}

/// Records one construction's set-up samples from its four instants:
/// start, document parsed, database built, consumers bootstrapped.
pub fn record_setup(report: &mut Report, [t0, t1, t2, t3]: [Instant; 4]) {
    report.sample("setup.parse", (t1 - t0).as_secs_f64());
    report.sample("setup.build", (t2 - t1).as_secs_f64());
    report.sample("setup.bootstrap", (t3 - t2).as_secs_f64());
    report.sample("setup.total", (t3 - t0).as_secs_f64());
}

/// Warm-up (at least `warmup_rounds` rounds and [`WARMUP`]), then the
/// timed phase of `args.seconds`, of at least `min_rounds` rounds (the
/// end-to-end tail percentiles need them) — or, with tracing, an
/// untraced half and a traced half.
pub fn run_phases(
    w: &mut impl Workload,
    args: &ChildArgs,
    warmup_rounds: usize,
    min_rounds: usize,
    report: &mut Report,
) {
    let mut tracer = Tracer::new(false);
    let warm = Instant::now();
    for i in 0.. {
        if i >= warmup_rounds && warm.elapsed() >= WARMUP {
            break;
        }
        w.round(Mode::Warmup, &mut tracer, report);
    }
    let (phases, min_rounds): (&[(Mode, f64)], usize) = if args.trace {
        (&[(Mode::Timed, 0.5), (Mode::Traced, 0.5)], 1)
    } else {
        (&[(Mode::Timed, 1.0)], min_rounds)
    };
    for &(mode, share) in phases {
        tracer = Tracer::new(mode == Mode::Traced);
        let budget = Duration::from_secs_f64(args.seconds * share);
        let (commits0, spawned0, cpu0, t0) =
            (w.commits(), w.threads_spawned(), cpu_seconds(), Instant::now());
        let timed = run_rounds(budget, min_rounds, || w.round(mode, &mut tracer, report));
        let totals = PhaseTotals {
            commits: (w.commits() - commits0) as usize,
            timed,
            elapsed: t0.elapsed(),
            cpu_s: cpu_seconds() - cpu0,
            threads_spawned: w.threads_spawned() - spawned0,
        };
        if mode == Mode::Traced {
            totals.record(report, "traced");
            crate::metrics::fold_spans(&tracer, report);
        } else {
            totals.record(report, "timed");
        }
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs whole rounds until `budget` of timed wall has accumulated
/// (and at least `min_rounds`). `round` returns the time it spent in
/// output checks, which is not timed. Returns the timed wall.
fn run_rounds(
    budget: Duration,
    min_rounds: usize,
    mut round: impl FnMut() -> Duration,
) -> Duration {
    let mut timed = Duration::ZERO;
    let mut rounds = 0;
    while timed < budget || rounds < min_rounds {
        let start = Instant::now();
        let paused = round();
        timed += start.elapsed().saturating_sub(paused);
        rounds += 1;
    }
    timed
}

/// Process CPU time (user + system) from `/proc/self/stat`, in
/// seconds; 0 where unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per
    // second on Linux).
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One read: a snapshot, then a full scan of every view. Returns the
/// tuples scanned.
pub fn read_all(
    db: &Database,
    handles: &[ViewHandle],
    tracer: &mut Tracer,
    report: &mut Report,
    measured: bool,
) -> usize {
    let start = Instant::now();
    let snap = db.snapshot();
    let taken = Instant::now();
    let mut tuples = 0usize;
    for &h in handles {
        for (tuple, count) in snap.cursor(h) {
            black_box(tuple);
            tuples += count as usize;
        }
    }
    let end = Instant::now();
    if measured {
        if tracer.is_on() {
            tracer.record("snapshot.take", start, taken, None);
            tracer.record("snapshot.scan", taken, end, None);
            report.sample("snapshot.tuples", tuples as f64);
        } else {
            report.sample("read", micros(end - start));
        }
    }
    tuples
}

/// Traced bookkeeping of one sealed commit: engine work, optimizer and
/// analysis counters, delta sizes.
pub fn record_commit(
    report: &mut Report,
    tracer: &mut Tracer,
    commit_span: Option<usize>,
    layout_from: Instant,
    commit: &Commit,
) {
    let work = EngineWork::from_timings(commit.iter().map(|(_, r)| &r.timings));
    tracer.attach_engine_from(commit_span, layout_from, &work);
    let Some(span) = commit_span else { return };
    let wall = tracer.spans()[span].nanos() as f64 / 1e3;
    let names = ["delta_tables", "update_expr", "execute", "lattice"];
    for (name, d) in names.iter().zip(work.phases) {
        report.sample(&format!("engine.cpu.{name}"), micros(d));
    }
    let room = (wall - micros(work.find) - micros(work.apply)).max(0.0);
    report.add("parallel.busy_us", micros(work.busy()));
    report.add("parallel.room_us", room);
    report.add("commits.traced", 1.0);
    report.add("pulopt.naive_ops", commit.naive_ops as f64);
    report.add("pulopt.optimized_ops", commit.optimized_ops as f64);
    report.add("analyze.skipped_views", commit.static_skips() as f64);
    let maintained =
        commit.iter().filter(|(_, r)| !r.statically_skipped && !r.deferred).count() as f64;
    report.add("engine.views_maintained", maintained);
    let tuples: usize = commit.iter().map(|(_, r)| r.delta.len()).sum();
    report.add("engine.delta_tuples", tuples as f64);
    let (ins, del) = commit.prune_totals();
    report.add("engine.terms_before", (ins.before + del.before) as f64);
    report.add("engine.terms_kept", (ins.after_id_reasoning + del.after_id_reasoning) as f64);
}

/// End-of-run check: every view store holds exactly what a
/// from-scratch evaluation over the final document gives.
pub fn check_stores_against_recompute(db: &Database, report: &mut Report) {
    for h in db.handles() {
        let fresh = recompute_store(db.document(), db.pattern(h));
        report.check(db.store(h).same_content_as(&fresh), || {
            format!(
                "view {} differs from recomputation: {}",
                db.name(h),
                db.store(h).diff_description(&fresh)
            )
        });
    }
}

/// Byte identity of a consumer's copy with the served store.
pub fn same_bytes(a: &ViewStore, b: &ViewStore) -> bool {
    encode_store(a) == encode_store(b)
}

/// Totals of one timed phase of one child.
struct PhaseTotals {
    commits: usize,
    /// Timed wall: the rounds' wall time less their output checks.
    timed: Duration,
    /// The phase's whole wall time, checks included.
    elapsed: Duration,
    /// Process CPU time over the whole phase.
    cpu_s: f64,
    threads_spawned: u64,
}

impl PhaseTotals {
    /// Adds the totals under `prefix` (`timed` or `traced`).
    fn record(&self, report: &mut Report, prefix: &str) {
        report.add(&format!("{prefix}.commits"), self.commits as f64);
        report.add(&format!("{prefix}.wall_s"), self.timed.as_secs_f64());
        report.add(&format!("{prefix}.elapsed_s"), self.elapsed.as_secs_f64());
        report.add(&format!("{prefix}.cpu_s"), self.cpu_s);
        report.add(&format!("{prefix}.threads_spawned"), self.threads_spawned as f64);
    }
}
