//! The benchmark's metrics, computed from a run's pooled [`Report`].
//!
//! End-to-end metrics come from untraced timed phases only; per-layer
//! metrics come from the traced phase's spans. The two name lists here
//! are the ones `BENCHMARK.json` declares (a test keeps them in step).

use crate::report::{Metric, Report};
use crate::stats::{median, percentile, sorted, tail_is_supported};
use crate::trace::{Tracer, COMMIT_LAYERS};

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("commits_per_s", "1/s"),
    ("commit_p50_us", "us"),
    ("commit_p90_us", "us"),
    ("freshness_p50_us", "us"),
    ("freshness_p90_us", "us"),
    ("read_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("setup.parse_s", "s"),
    ("setup.build_s", "s"),
    ("setup.bootstrap_s", "s"),
    ("update.parse_us", "us"),
    ("update.parse_share", "%"),
    ("update.find_targets_us", "us"),
    ("update.find_targets_share", "%"),
    ("update.apply_pul_us", "us"),
    ("update.apply_pul_share", "%"),
    ("pulopt.naive_ops", "count"),
    ("pulopt.optimized_ops", "count"),
    ("engine.delta_tables_us", "us"),
    ("engine.delta_tables_share", "%"),
    ("engine.update_expr_us", "us"),
    ("engine.update_expr_share", "%"),
    ("engine.execute_us", "us"),
    ("engine.execute_share", "%"),
    ("engine.lattice_us", "us"),
    ("engine.lattice_share", "%"),
    ("engine.views_maintained", "count"),
    ("engine.delta_tuples", "count"),
    ("engine.us_per_delta_tuple", "us"),
    ("engine.terms_kept_ratio", "ratio"),
    ("analyze.skipped_views", "count"),
    ("parallel.busy_ratio", "ratio"),
    ("parallel.threads_spawned", "count"),
    ("parallel.cpu_per_wall", "ratio"),
    ("commit.wall_us", "us"),
    ("commit.other_us", "us"),
    ("commit.other_share", "%"),
    ("service.submit_us", "us"),
    ("service.flush_us", "us"),
    ("deferred.refresh_us", "us"),
    ("subscribe.drain_us", "us"),
    ("subscribe.events_per_drain", "count"),
    ("subscribe.replay_us", "us"),
    ("circuit.sync_us", "us"),
    ("snapshot.take_us", "us"),
    ("snapshot.scan_us", "us"),
    ("snapshot.tuples_scanned", "count"),
    ("feed.pump_us", "us"),
    ("feed.sync_us", "us"),
    ("feed.event_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Folds a traced phase's spans into the report: one `span.<name>`
/// sample (µs) per span, plus `span.commit.other` — the self time of
/// each commit span, the commit wall no layer accounts for.
pub fn fold_spans(tracer: &Tracer, report: &mut Report) {
    let selfs = tracer.self_nanos();
    for (span, self_ns) in tracer.spans().iter().zip(selfs) {
        report.sample(&format!("span.{}", span.name), span.nanos() as f64 / 1e3);
        if span.name == "commit" {
            report.sample("span.commit.other", self_ns as f64 / 1e3);
        }
    }
    report.add("trace.spans", tracer.spans().len() as f64);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Commits of a phase (`timed` or `traced`) over its timed wall,
/// summed over the run's children.
fn throughput(report: &Report, phase: &str) -> f64 {
    ratio(report.total(&format!("{phase}.commits")), report.total(&format!("{phase}.wall_s")))
}

fn med(report: &Report, name: &str) -> f64 {
    median(report.get(name)).unwrap_or(0.0)
}

fn pct(report: &Report, name: &str, q: f64) -> f64 {
    percentile(&sorted(report.get(name)), q).unwrap_or(0.0)
}

/// Every end-to-end metric, plus the failures of the statistical
/// checks (a tail percentile without enough samples beyond it).
pub fn end_to_end(r: &Report) -> (Vec<Metric>, Vec<String>) {
    let mut problems = Vec::new();
    for name in ["commit", "freshness"] {
        if !tail_is_supported(r.get(name).len(), 0.9) {
            problems.push(format!("{name}: too few samples ({}) for a p90", r.get(name).len()));
        }
    }
    if r.get("read").is_empty() {
        problems.push("no read samples".to_owned());
    }
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => med(r, "setup.total"),
            "commits_per_s" => throughput(r, "timed"),
            "commit_p50_us" => pct(r, "commit", 0.5),
            "commit_p90_us" => pct(r, "commit", 0.9),
            "freshness_p50_us" => pct(r, "freshness", 0.5),
            "freshness_p90_us" => pct(r, "freshness", 0.9),
            "read_p50_us" => pct(r, "read", 0.5),
            "peak_rss_mb" => med(r, "rss.peak_mb"),
            other => unreachable!("unknown end-to-end metric {other}"),
        }
    };
    let metrics =
        END_TO_END.iter().map(|&(name, unit)| Metric { name, unit, value: value(name) }).collect();
    (metrics, problems)
}

/// Every per-layer metric. Layers a workload does not use read 0.
pub fn per_layer(r: &Report) -> Vec<Metric> {
    let commit_wall = r.sum("span.commit");
    let share = |span: &str| 100.0 * ratio(r.sum(&format!("span.{span}")), commit_wall);
    let per_commit = |name: &str| ratio(r.total(name), r.total("commits.traced"));
    let value = |name: &str| -> f64 {
        match name {
            "setup.parse_s" => med(r, "setup.parse"),
            "setup.build_s" => med(r, "setup.build"),
            "setup.bootstrap_s" => med(r, "setup.bootstrap"),
            "update.parse_us" => med(r, "span.update.parse"),
            "update.parse_share" => share("update.parse"),
            "update.find_targets_us" => med(r, "span.update.find_targets"),
            "update.find_targets_share" => share("update.find_targets"),
            "update.apply_pul_us" => med(r, "span.update.apply_pul"),
            "update.apply_pul_share" => share("update.apply_pul"),
            "pulopt.naive_ops" => per_commit("pulopt.naive_ops"),
            "pulopt.optimized_ops" => per_commit("pulopt.optimized_ops"),
            "engine.delta_tables_us" => med(r, "engine.cpu.delta_tables"),
            "engine.delta_tables_share" => share("engine.delta_tables"),
            "engine.update_expr_us" => med(r, "engine.cpu.update_expr"),
            "engine.update_expr_share" => share("engine.update_expr"),
            "engine.execute_us" => med(r, "engine.cpu.execute"),
            "engine.execute_share" => share("engine.execute"),
            "engine.lattice_us" => med(r, "engine.cpu.lattice"),
            "engine.lattice_share" => share("engine.lattice"),
            "engine.views_maintained" => per_commit("engine.views_maintained"),
            "engine.delta_tuples" => per_commit("engine.delta_tuples"),
            "engine.us_per_delta_tuple" => {
                ratio(r.total("parallel.busy_us"), r.total("engine.delta_tuples"))
            }
            "engine.terms_kept_ratio" => {
                ratio(r.total("engine.terms_kept"), r.total("engine.terms_before"))
            }
            "analyze.skipped_views" => per_commit("analyze.skipped_views"),
            "parallel.busy_ratio" => {
                ratio(r.total("parallel.busy_us"), r.total("parallel.room_us"))
            }
            "parallel.threads_spawned" => {
                r.total("timed.threads_spawned") + r.total("traced.threads_spawned")
            }
            "parallel.cpu_per_wall" => ratio(
                r.total("timed.cpu_s") + r.total("traced.cpu_s"),
                r.total("timed.elapsed_s") + r.total("traced.elapsed_s"),
            ),
            "commit.wall_us" => med(r, "span.commit"),
            "commit.other_us" => med(r, "span.commit.other"),
            "commit.other_share" => share("commit.other"),
            "service.submit_us" => med(r, "span.service.submit"),
            "service.flush_us" => med(r, "span.service.flush"),
            "deferred.refresh_us" => med(r, "span.deferred.refresh"),
            "subscribe.drain_us" => med(r, "span.subscribe.drain"),
            "subscribe.events_per_drain" => {
                ratio(r.total("subscribe.events"), r.total("subscribe.drains"))
            }
            "subscribe.replay_us" => med(r, "span.subscribe.replay"),
            "circuit.sync_us" => med(r, "span.circuit.sync"),
            "snapshot.take_us" => med(r, "span.snapshot.take"),
            "snapshot.scan_us" => med(r, "span.snapshot.scan"),
            "snapshot.tuples_scanned" => median(r.get("snapshot.tuples")).unwrap_or(0.0),
            "feed.pump_us" => med(r, "span.feed.pump"),
            "feed.sync_us" => med(r, "span.feed.sync"),
            "feed.event_bytes" => {
                ratio(r.sum("feed.event_bytes"), r.get("feed.event_bytes").len() as f64)
            }
            "trace.overhead_pct" => {
                100.0 * (ratio(throughput(r, "timed"), throughput(r, "traced")) - 1.0)
            }
            "trace.spans" => r.total("trace.spans"),
            other => unreachable!("unknown per-layer metric {other}"),
        }
    };
    PER_LAYER.iter().map(|&(name, unit)| Metric { name, unit, value: value(name) }).collect()
}

/// Shares of commit wall attributed to each commit layer plus the
/// unattributed remainder; they add up to 100% of traced commit wall.
pub fn commit_breakdown(r: &Report) -> Vec<(String, f64)> {
    let wall = r.sum("span.commit");
    ["update.parse", "service.submit"]
        .into_iter()
        .chain(COMMIT_LAYERS)
        .chain(std::iter::once("commit.other"))
        .map(|l| (l.to_owned(), 100.0 * ratio(r.sum(&format!("span.{l}")), wall)))
        .collect()
}
