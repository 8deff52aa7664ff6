//! Benchmark runner.
//!
//! ```text
//! perfbench --workload <point|bulk|feed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload in a few fresh child processes, in waves of one
//! child per CPU (at most two), each child pinned to its own CPU and
//! measuring its wave's share of `--seconds`, and pools their samples
//! so no figure rests on one process's memory layout or one CPU's
//! moment of host load. Prints a summary on
//! standard error and, as the last line of standard output, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`).

use std::process::{Command, ExitCode, Stdio};

use xivm_perfbench::metrics::{commit_breakdown, end_to_end, per_layer};
use xivm_perfbench::report::{result_json, Report};
use xivm_perfbench::stats::{quartiles, relative_spread};
use xivm_perfbench::workload::ChildArgs;
use xivm_perfbench::{affinity, run_child, WORKLOADS};

/// Child processes per run (an even number, so the CPUs get as many each).
const CHILDREN: u64 = 6;

/// Children that run at once, each pinned to a CPU of its own. Two
/// pinned children keep at most two threads busy at any moment.
const MAX_WAVE: usize = 2;

/// Environment overrides of the database defaults; children run
/// without them so every run uses the workload's own settings.
const ENV_OVERRIDES: [&str; 3] = ["XIVM_WORKERS", "XIVM_PIPELINE", "XIVM_SUB_CAPACITY"];

struct Args {
    child: ChildArgs,
    is_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut proc_index = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--child" => proc_index = Some(value()?.parse().map_err(|e| format!("--child: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (expected one of {WORKLOADS:?})"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        is_child: proc_index.is_some(),
        child: ChildArgs { workload, seed, seconds, trace, proc_index: proc_index.unwrap_or(0) },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <point|bulk|feed> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.is_child {
        let mut report = Report::default();
        if affinity::pin_to_nth_cpu(args.child.proc_index as usize).is_none() {
            eprintln!("perfbench: could not pin child {} to a CPU", args.child.proc_index);
        }
        run_child(&args.child, &mut report);
        print!("{}", report.to_text());
        return ExitCode::SUCCESS;
    }
    match run_parent(&args.child) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_parent(args: &ChildArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the runner: {e}"))?;
    let wave = affinity::allowed_cpus().len().clamp(1, MAX_WAVE) as u64;
    let share = args.seconds * wave as f64 / CHILDREN as f64;
    let child = |i: u64| -> Result<Report, String> {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &share.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--child", &i.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        for var in ENV_OVERRIDES {
            cmd.env_remove(var);
        }
        let out = cmd.output().map_err(|e| format!("starting child {i}: {e}"))?;
        if !out.status.success() {
            return Err(format!("child {i} exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        Report::parse(&text).map_err(|e| format!("child {i} report: {e}"))
    };
    let mut pooled = Report::default();
    // Each child's throughput, to show how far the host drifted over the run.
    let phase = if args.trace { "traced" } else { "timed" };
    let mut child_cps = Vec::new();
    for first in (0..CHILDREN).step_by(wave as usize) {
        // Every child of a wave is waited for before any error returns.
        let reports: Vec<Result<Report, String>> = std::thread::scope(|s| {
            let running: Vec<_> =
                (first..(first + wave).min(CHILDREN)).map(|i| s.spawn(move || child(i))).collect();
            running.into_iter().map(|h| h.join().expect("child waiter panicked")).collect()
        });
        for report in reports {
            let report = report?;
            child_cps.push(
                report.total(&format!("{phase}.commits"))
                    / report.total(&format!("{phase}.wall_s")),
            );
            pooled.merge(report);
        }
    }

    let (metrics, problems) = if args.trace {
        let breakdown = commit_breakdown(&pooled);
        eprintln!("# commit wall by layer (traced; shares add up to 100%):");
        for (layer, share) in &breakdown {
            eprintln!("#   {layer:<24} {share:6.2}%");
        }
        let total: f64 = breakdown.iter().map(|(_, s)| s).sum();
        eprintln!("#   {:<24} {total:6.2}%", "sum");
        (per_layer(&pooled), Vec::new())
    } else {
        end_to_end(&pooled)
    };
    eprintln!("# {} over {CHILDREN} processes, {wave} at a time:", args.workload);
    if let (Some([q1, q2, q3]), Some(spread)) = (quartiles(&child_cps), relative_spread(&child_cps))
    {
        eprintln!(
            "#   per-child throughput: q1 {q1:.2}, median {q2:.2}, q3 {q3:.2} commits/s \
             (spread {:.1}%)",
            spread * 100.0
        );
    }
    for m in &metrics {
        eprintln!("#   {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in pooled.failures.iter().chain(&problems) {
        eprintln!("# CHECK FAILED: {f}");
    }
    let correct = pooled.failures.is_empty() && problems.is_empty();
    let attempted = pooled.total("ops.attempted") as u64;
    let failed = pooled.total("ops.failed") as u64;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(())
}
