//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-steady|fleet-churn|device-irq|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every series runs in a child process of its own (this binary,
//! re-executed with `--series`), so its peak RSS and CPU belong to that
//! series alone. `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` runs a short untraced series and a traced
//! one, and reports the per-layer metrics plus the tracing overhead.
//! Each metric is printed by name with its unit; the last line of
//! standard output is one JSON object with the result. `--repeat <n>`
//! runs seeds `seed .. seed + n` and adds each metric's median and
//! spread, the stability check a metric's bound is held to. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod device;
mod fleet;
mod layers;
mod live;
mod procfs;
mod script;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["fleet-steady", "fleet-churn", "device-irq"];

/// The end-to-end metrics every `--trace 0` run reports, in order.
const END_TO_END: [&str; 6] = [
    "sessions_per_sec",
    "round_ms_p50",
    "round_ms_p99",
    "verifier_cpu_us_per_session",
    "setup_s",
    "peak_rss_mib",
];

/// Wall time the set-up series spends setting its world up and
/// tearing it down again, and the shortest batch of set-ups it times as
/// one sample. `setup_s` is the median of the batches' per-set-up
/// times. A batch spans many set-ups (a `device-irq` set-up takes a few
/// ms, a `fleet-churn` one ~0.1 s), so it averages over the host's
/// speed phases, which last seconds, rather than sampling one of them.
const SETUP_BUDGET: Duration = Duration::from_secs(5);
const SETUP_BATCH: Duration = Duration::from_secs(1);
/// The fewest batches a set-up series times.
const MIN_SETUP_BATCHES: usize = 5;

/// Shares of `--seconds` a traced run spends on its untraced series,
/// its traced live series, and its per-layer probes.
const TRACE_UNTRACED_SHARE: f64 = 0.35;
const TRACE_LIVE_SHARE: f64 = 0.35;
const TRACE_PROBE_SHARE: f64 = 0.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    series: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut series = None;
    let mut repeat = 1;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--series" => series = Some(value),
            "--repeat" => {
                repeat = value.parse().map_err(|_| "--repeat takes a count")?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        repeat,
        series,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
                 [--repeat <runs>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(series) = &args.series {
        return child(series, &args);
    }
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for workload in workloads {
        if let Err(e) = parent(workload, &args) {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// Parent: runs the series as children, prints and checks the result.

/// What a series reported; also one run of a workload, its series
/// combined.
#[derive(Default)]
struct RunResult {
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    info: Vec<(String, String)>,
}

impl RunResult {
    fn info(&self, key: &str) -> Option<&str> {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn run_child(series: &str, workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--series", series, "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {series} series: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {series} series failed: {}", output.status));
    }
    let mut out = RunResult::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let fields: Vec<&str> = line.splitn(4, ' ').collect();
        match fields.as_slice() {
            ["metric", name, value, unit] => {
                let value = value
                    .parse()
                    .map_err(|_| format!("bad metric line {line}"))?;
                out.metrics
                    .push((name.to_string(), value, unit.to_string()));
            }
            ["count", "attempted", n] => out.attempted = n.parse().unwrap_or(0),
            ["count", "failed", n] => out.failed = n.parse().unwrap_or(u64::MAX),
            ["info", key, rest @ ..] => out.info.push((key.to_string(), rest.join(" "))),
            _ => return Err(format!("unexpected line from the {series} series: {line}")),
        }
    }
    Ok(out)
}

/// Runs the series of one workload at `seed` as child processes.
fn collect(workload: &str, seed: u64, args: &Args) -> Result<RunResult, String> {
    if !args.trace {
        let setup = run_child("setup", workload, seed, args.seconds)?;
        let mut out = run_child("run", workload, seed, args.seconds)?;
        out.metrics.extend(setup.metrics);
        out.metrics
            .sort_by_key(|m| END_TO_END.iter().position(|e| *e == m.0));
        out.info.extend(setup.info);
        return Ok(out);
    }
    let untraced = run_child("run", workload, seed, args.seconds * TRACE_UNTRACED_SHARE)?;
    let traced = run_child("traced", workload, seed, args.seconds)?;
    let untraced_rate: f64 = untraced
        .metrics
        .iter()
        .find(|m| m.0 == "sessions_per_sec")
        .map(|m| m.1)
        .ok_or("the untraced series reported no sessions_per_sec")?;
    let traced_rate: f64 = traced
        .info("sessions_per_sec")
        .and_then(|v| v.parse().ok())
        .ok_or("the traced series reported no sessions_per_sec")?;
    let mut metrics = traced.metrics;
    metrics.push((
        "trace.rate_ratio".into(),
        traced_rate / untraced_rate,
        "ratio".into(),
    ));
    let mut info = traced.info;
    info.push((
        "untraced_sessions_per_sec".into(),
        untraced_rate.to_string(),
    ));
    info.push((
        "trace.overhead_pct".into(),
        ((1.0 - traced_rate / untraced_rate) * 100.0).to_string(),
    ));
    Ok(RunResult {
        metrics,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed.saturating_add(traced.failed),
        info,
    })
}

/// Prints a run's metrics by name with their units, then the result
/// as one JSON line.
fn report(workload: &str, seed: u64, args: &Args, run: &RunResult) {
    println!(
        "perfbench {workload}: seed {seed} seconds {} trace {}",
        args.seconds, args.trace as u8
    );
    for (key, value) in &run.info {
        println!("  {key:<34} {value}");
    }
    for (name, value, unit) in &run.metrics {
        println!("  {name:<34} {value} {unit}");
    }
    let (attempted, failed) = (run.attempted, run.failed);
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!(
        "  {:<34} {failed_share} ({failed} of {attempted})",
        "failed_share"
    );

    let missing: Vec<&str> = if args.trace {
        Vec::new()
    } else {
        END_TO_END
            .iter()
            .filter(|name| !run.metrics.iter().any(|m| m.0 == **name))
            .copied()
            .collect()
    };
    if !missing.is_empty() {
        eprintln!("perfbench: {workload}: missing metrics {missing:?}");
    }
    let correct = failed == 0 && attempted > 0 && missing.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in run.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Runs one workload at seeds `seed .. seed + repeat` and prints each
/// metric's median and spread (interquartile distance over median,
/// the rule a metric's bound is held to).
fn parent(workload: &str, args: &Args) -> Result<(), String> {
    let mut runs = Vec::new();
    for i in 0..args.repeat {
        let seed = args.seed.wrapping_add(i);
        let run = collect(workload, seed, args)?;
        report(workload, seed, args, &run);
        runs.push(run);
    }
    if runs.len() > 1 {
        println!("perfbench {workload}: {} runs", runs.len());
        for (name, _, unit) in &runs[0].metrics {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| &m.0 == name).map(|m| m.1))
                .collect();
            let median = stats::median(&values).unwrap_or(f64::NAN);
            let spread = stats::spread(&values).unwrap_or(f64::NAN);
            println!("  {name:<34} median {median} {unit}  spread {spread:.4}");
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Child: one series in this process.

/// A set-up workload of either family.
enum Series {
    Fleet(Box<fleet::FleetSeries>),
    Irq(device::IrqSeries),
}

impl Series {
    fn setup(workload: &str, seed: u64) -> Series {
        match workload {
            "fleet-steady" => Series::Fleet(Box::new(fleet::FleetSeries::setup(
                fleet::Kind::Steady,
                seed,
            ))),
            "fleet-churn" => Series::Fleet(Box::new(fleet::FleetSeries::setup(
                fleet::Kind::Churn,
                seed,
            ))),
            "device-irq" => Series::Irq(device::IrqSeries::setup(seed)),
            other => unreachable!("workload {other} was validated"),
        }
    }

    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> live::LiveStats {
        match self {
            Series::Fleet(s) => s.run(seconds, tracer),
            Series::Irq(s) => s.run(seconds, tracer),
        }
    }

    fn prover_tids(&self) -> Vec<u64> {
        match self {
            Series::Fleet(s) => s.prover_tids(),
            Series::Irq(s) => s.prover_tids(),
        }
    }

    /// Workload facts printed beside the numbers.
    fn describe(&self) -> Vec<(String, String)> {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let mut info = vec![("nproc".to_string(), nproc.to_string())];
        match self {
            Series::Fleet(s) => {
                info.push(("mac_pool_workers".into(), s.mac_pool().to_string()));
                info.push((
                    "transport".into(),
                    format!(
                        "{} host-local socketpairs, 1 reactor, no real link",
                        fleet::CONNECTIONS
                    ),
                ));
            }
            Series::Irq(s) => {
                let r = s.reference();
                info.push(("timer_period_cycles".into(), s.period().to_string()));
                info.push(("steps_per_session".into(), r.steps.to_string()));
                info.push(("irqs_per_session".into(), r.irqs().to_string()));
                info.push((
                    "transport".into(),
                    "none: prover and verifier share one thread".into(),
                ));
            }
        }
        info
    }

    /// Verifier-side CPU over a run: every task but the prover threads
    /// for the fleet; for `device-irq`, whose one thread plays both
    /// parts, the time inside the verifier's calls.
    fn verifier_ns(&self, stats: &live::LiveStats) -> u64 {
        match self {
            Series::Fleet(_) => stats.rest.run_ns,
            Series::Irq(_) => stats.verifier_ns,
        }
    }

    /// Simulated steps per session (zero for the fleet workloads).
    fn steps_per_session(&self) -> u64 {
        match self {
            Series::Fleet(_) => 0,
            Series::Irq(s) => s.reference().steps,
        }
    }

    fn finish(self) {
        if let Series::Fleet(s) = self {
            s.finish();
        }
    }
}

fn child(series: &str, args: &Args) -> ExitCode {
    match series {
        "setup" => setup(args),
        "run" => measure(args),
        "traced" => traced(args),
        other => {
            eprintln!("perfbench: unknown series {other}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn metric(name: &str, value: f64, unit: &str) {
    println!("metric {name} {value} {unit}");
}

fn info(key: &str, value: impl std::fmt::Display) {
    println!("info {key} {value}");
}

fn counts(attempted: u64, failed: u64) {
    println!("count attempted {attempted}");
    println!("count failed {failed}");
}

/// The set-up series: after one untimed set-up (first-touch page
/// faults, allocator growth), sets the workload's world up and tears it
/// down again for [`SETUP_BUDGET`], timing the set-ups in batches of at
/// least [`SETUP_BATCH`]. A process of its own, so the measured series'
/// peak RSS holds one world only.
fn setup(args: &Args) {
    Series::setup(&args.workload, args.seed).finish();
    let start = Instant::now();
    let mut batches = Vec::new();
    let mut setups = 0;
    while batches.len() < MIN_SETUP_BATCHES || start.elapsed() < SETUP_BUDGET {
        let (mut spent, mut n) = (Duration::ZERO, 0u32);
        while n == 0 || spent < SETUP_BATCH {
            let t = Instant::now();
            let series = Series::setup(&args.workload, args.seed);
            spent += t.elapsed();
            n += 1;
            series.finish();
        }
        batches.push(spent.as_secs_f64() / f64::from(n));
        setups += n;
    }
    info("setups", setups);
    info("setup_batches", batches.len());
    metric(
        "setup_s",
        stats::median(&batches).expect("set-ups ran"),
        "s",
    );
}

/// The untraced series: one set-up, then `--seconds` of measurement.
fn measure(args: &Args) {
    let mut series = Series::setup(&args.workload, args.seed);
    for (key, value) in series.describe() {
        info(&key, value);
    }
    let mut off = Tracer::new(Instant::now(), false);
    let stats = series.run(args.seconds, &mut off);
    let steps = series.steps_per_session();
    let verifier_ns = series.verifier_ns(&stats);
    series.finish();

    let sessions = stats.sessions.max(1) as f64;
    info("sessions", stats.sessions);
    let v = stats.check;
    info(
        "verdicts",
        format!(
            "{} verified, {} bad_mac, {} wire-rejected, {} wrong",
            v.verified, v.bad_mac, v.frame, v.failed
        ),
    );
    info("wall_s", stats.wall_s);
    info("round_samples", stats.latencies_ms.len());
    if steps > 0 {
        info("steps_per_sec", stats.sessions_per_sec * steps as f64);
    }
    metric("sessions_per_sec", stats.sessions_per_sec, "1/s");
    metric(
        "round_ms_p50",
        stats::percentile(&stats.latencies_ms, 50.0).unwrap_or(f64::NAN),
        "ms",
    );
    metric(
        "round_ms_p99",
        stats::percentile(&stats.latencies_ms, 99.0).unwrap_or(f64::NAN),
        "ms",
    );
    metric(
        "verifier_cpu_us_per_session",
        verifier_ns as f64 / 1e3 / sessions,
        "us",
    );
    metric(
        "peak_rss_mib",
        procfs::peak_rss_mib().unwrap_or(f64::NAN),
        "MiB",
    );
    counts(stats.check.attempted as u64, stats.check.failed as u64);
}

/// The traced series: a live segment with spans on, then the per-layer
/// probes; writes every span out at the end.
fn traced(args: &Args) {
    let mut series = Series::setup(&args.workload, args.seed);
    for (key, value) in series.describe() {
        info(&key, value);
    }
    let base = Instant::now();
    let mut tracer = Tracer::new(base, true);
    let stats = series.run(args.seconds * TRACE_LIVE_SHARE, &mut tracer);
    let provers = series.prover_tids();
    let verifier_ns = series.verifier_ns(&stats);
    series.finish();

    let probes = layers::probe_all(
        base,
        args.seed,
        Duration::from_secs_f64(args.seconds * TRACE_PROBE_SHARE),
    );
    tracer.append(probes.spans);
    let spans = tracer.into_spans();

    let sessions = stats.sessions.max(1) as f64;
    info("sessions_per_sec", stats.sessions_per_sec);
    info("provers", format!("{provers:?}"));
    for (name, value) in &probes.derived {
        info(&format!("{name}_derived"), value);
    }
    for (name, value, unit) in &probes.figures {
        metric(name, *value, unit);
    }
    metric(
        "runtime.verifier_busy_cores",
        verifier_ns as f64 / 1e9 / stats.wall_s,
        "cores",
    );
    metric(
        "runtime.read_syscalls_per_session",
        stats.socket_reads as f64 / stats.sessions.max(1) as f64,
        "count",
    );
    metric(
        "runtime.write_syscalls_per_session",
        stats.socket_writes as f64 / stats.sessions.max(1) as f64,
        "count",
    );
    metric(
        "prover.cpu_us_per_session",
        stats.prover.run_ns as f64 / 1e3 / sessions,
        "us",
    );
    metric(
        "prover.wait_share",
        stats.prover.wait_ns as f64 / (stats.prover.run_ns + stats.prover.wait_ns).max(1) as f64,
        "ratio",
    );
    metric("trace.spans", spans.len() as f64, "count");

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{}.jsonl", args.workload, args.seed);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace::to_jsonl(&spans)))
    {
        Ok(()) => info("trace_file", &path),
        Err(e) => eprintln!("perfbench: writing {path}: {e}"),
    }
    counts(
        stats.check.attempted as u64,
        stats.check.failed as u64 + probes.wrong,
    );
}
