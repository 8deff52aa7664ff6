//! The xivm benchmark: three closed-loop workloads (`point`, `bulk`,
//! `feed`) driven through the public `Database` API, with output checks
//! against from-scratch computations and an optional span trace that
//! attributes each commit to the layers it passes through. See
//! `README.md` next to this package's manifest.

pub mod affinity;
pub mod bulk;
pub mod feed;
pub mod gen;
pub mod metrics;
pub mod point;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workload;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["point", "bulk", "feed"];

/// Runs one child's share of a workload into `report`.
pub fn run_child(args: &workload::ChildArgs, report: &mut report::Report) {
    match args.workload.as_str() {
        "point" => point::run(args, report),
        "bulk" => bulk::run(args, report),
        "feed" => feed::run(args, report),
        other => report.fail(format!("unknown workload {other}")),
    }
    report.sample("rss.peak_mb", workload::peak_rss_mib());
}
