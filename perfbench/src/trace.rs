//! The traced run's span recorder.
//!
//! When switched on, the workloads wrap every call they make into a
//! layer's public API in a span: name, start, end, parent and the id
//! of the commit the span belongs to. A commit's own span has the
//! engine's per-phase [`Timings`] attached as child spans, so self time
//! of the commit span is the part of commit wall no layer accounts for
//! (`commit.other`). Spans stay in memory and are folded into the
//! per-layer metrics when the run ends. Switched off, a span is one
//! branch and the wrapped call.

use std::time::{Duration, Instant};
use xivm_core::Timings;

/// Span names of the layers inside one commit, in attribution order.
pub const COMMIT_LAYERS: [&str; 6] = [
    "update.find_targets",
    "update.apply_pul",
    "engine.delta_tables",
    "engine.update_expr",
    "engine.execute",
    "engine.lattice",
];

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The commit this span belongs to (0 for spans outside commits).
    pub commit: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The per-view maintenance work the engine reports for one commit,
/// summed over views (CPU time: views run in parallel on the pool).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineWork {
    pub find: Duration,
    pub apply: Duration,
    /// delta tables, update expression, execute, lattice.
    pub phases: [Duration; 4],
}

impl EngineWork {
    /// Folds the per-view timings of one commit: find-targets and the
    /// document update are stamped identically on every view (take the
    /// largest), the four maintenance phases are per view (sum them).
    pub fn from_timings<'a>(timings: impl IntoIterator<Item = &'a Timings>) -> Self {
        let mut w = EngineWork::default();
        for t in timings {
            w.find = w.find.max(t.find_target_nodes);
            w.apply = w.apply.max(t.apply_document);
            w.phases[0] += t.compute_delta_tables;
            w.phases[1] += t.get_update_expression;
            w.phases[2] += t.execute_update;
            w.phases[3] += t.update_lattice;
        }
        w
    }

    pub fn busy(&self) -> Duration {
        self.phases.iter().sum()
    }
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    commit: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), commit: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a new commit id; spans recorded until the next call
    /// belong to it.
    pub fn begin_commit(&mut self) -> u64 {
        self.commit += 1;
        self.commit
    }

    /// Re-enters the scope of an earlier commit (async commits record
    /// their spans at submission and again when they seal).
    pub fn set_commit(&mut self, id: u64) {
        self.commit = id;
    }

    /// Leaves commit scope: later spans belong to no commit.
    pub fn end_commit(&mut self) {
        self.commit = 0;
    }

    /// Records a span that ran from `start` to `end`. Returns its index
    /// (for children), `None` when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start, end) = (self.stamp(start), self.stamp(end));
        self.spans.push(Span { name, start, end, parent, commit: self.commit });
        Some(self.spans.len() - 1)
    }

    /// Makes `child` a child of `parent` (for spans recorded before
    /// their enclosing span's end was known).
    pub fn adopt(&mut self, child: Option<usize>, parent: Option<usize>) {
        if let (Some(c), Some(_)) = (child, parent) {
            self.spans[c].parent = parent;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent);
        (out, id)
    }

    /// Attaches the engine's layers to a recorded commit span as child
    /// spans laid end to end from `from` (the moment the commit call
    /// was made, after any statement parsing): find-targets, the
    /// document update, then the four maintenance phases. The phases
    /// ran on the worker pool, possibly overlapping; each gets its
    /// share of the wall time left after find-targets and the update,
    /// never more than it worked, so the children never outlast their
    /// commit and the commit span's self time is what no layer
    /// accounts for.
    pub fn attach_engine_from(
        &mut self,
        commit_span: Option<usize>,
        from: Instant,
        work: &EngineWork,
    ) {
        let Some(parent) = commit_span else { return };
        let Span { start, end, commit, .. } = self.spans[parent].clone();
        let from = self.stamp(from).clamp(start, end);
        let wall = end - from;
        let find = (work.find.as_nanos() as u64).min(wall);
        let apply = (work.apply.as_nanos() as u64).min(wall - find);
        let room = wall - find - apply;
        let busy = work.busy().as_nanos() as u64;
        let scale = if busy > room { room as f64 / busy as f64 } else { 1.0 };
        let mut at = from;
        let mut lens = vec![find, apply];
        lens.extend(work.phases.iter().map(|p| (p.as_nanos() as f64 * scale) as u64));
        for (name, len) in COMMIT_LAYERS.iter().zip(lens) {
            self.spans.push(Span { name, start: at, end: at + len, parent: Some(parent), commit });
            at += len;
        }
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.nanos());
            }
        }
        out
    }
}
