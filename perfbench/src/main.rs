//! Paper-frame serving benchmark.
//!
//! Drives the release `serve_agent` binary through its own protocol and
//! reports end-to-end metrics (untraced run) or a per-layer split (traced
//! run). Usage:
//!
//! ```text
//! perfbench --server <serve_agent> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable tables go to stderr; the last stdout line is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod client;
mod metrics;
mod probe;
mod reference;
mod stats;
mod workload;

use client::{Agent, LoadLog, ServerReport};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Load, Workload};

/// Server start-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// An open-loop run is invalid when the 99th percentile of how late its
/// requests left the client exceeds this many frame periods: the generator
/// could not keep the clock, so the offered load fell short.
const MAX_LATE_P99_PERIODS: f64 = 5.0;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        server: server.ok_or("missing --server")?,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the served phase of a run established.
struct Served {
    log: LoadLog,
    server: ServerReport,
    /// Requests attempted in the measured window.
    attempted: u64,
    /// Measured-window requests that were not ok, lost or mismatched.
    failed: u64,
    /// Every check passed (outputs, float tolerance, open-loop clock).
    valid: bool,
    /// Measured-window latencies in ms, ascending.
    latencies: Vec<f64>,
    /// The same latencies by stream, each ascending.
    per_stream: Vec<Vec<f64>>,
    /// Completed measured requests per second of window.
    frames_per_s: f64,
}

fn run(args: &Args) -> Result<String, String> {
    let workload = &args.workload;
    let config = workload.scenario(args.seed);
    eprintln!(
        "perfbench: workload {} seed {} ({} s, trace {}), {} threads",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        runtime::default_threads()
    );

    let mut setups = Vec::new();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    for _ in 1..repeats {
        let agent = Agent::start(&args.server, &config)?;
        setups.push(agent.setup.as_secs_f64());
        agent.shutdown()?;
    }
    let agent = Agent::start(&args.server, &config)?;
    setups.push(agent.setup.as_secs_f64());
    let log = client::run_load(
        workload,
        agent.port,
        args.seed,
        Duration::from_millis(workload.warmup_ms),
        Duration::from_secs(args.seconds),
    )?;
    let server = agent.shutdown()?;
    let served = check_served(workload, &config, log, server)?;

    if args.trace {
        let mut metrics = Metrics::new(&PER_LAYER);
        let traced_ok = probe::trace(
            workload,
            &config,
            &served.log,
            &served.server,
            served.frames_per_s,
            &mut metrics,
        )?;
        let missing = metrics.missing();
        if !missing.is_empty() {
            return Err(format!("traced run left metrics unset: {missing:?}"));
        }
        return Ok(metrics::result_line(
            served.valid && traced_ok,
            served.attempted,
            served.failed,
            &metrics,
        ));
    }

    let mut metrics = Metrics::new(&END_TO_END);
    let percentile = |p: f64| stats::percentile(&served.latencies, p);
    // Round-robin streams each get an equal share of requests, so the
    // workload's median is the mean of the streams' medians. Pooled, the
    // ladder's median would fall in the lower tail of its slow rungs'
    // latencies and jump between them from run to run.
    let p50 = stats::mean(
        &served
            .per_stream
            .iter()
            .map(|own| stats::percentile(own, 50.0))
            .collect::<Vec<_>>(),
    );
    metrics.set("frames_per_s", served.frames_per_s);
    metrics.set("latency_p50_ms", p50);
    metrics.set("setup_s", stats::median(&setups));
    metrics.set("server_rss_mb", served.server.rss_kb / 1024.0);
    let n = served.latencies.len();
    eprintln!("end to end ({n} measured requests, nearest-rank percentiles):");
    eprintln!("  frames/s            {:10.3}", served.frames_per_s);
    eprintln!(
        "  latency p50         {p50:10.3} ms  (pooled {:.3} ms)",
        percentile(50.0)
    );
    for (backend, own) in workload.backends.iter().zip(&served.per_stream) {
        eprintln!(
            "    {backend:<16} n {:5}  p50 {:9.3} ms",
            own.len(),
            stats::percentile(own, 50.0)
        );
    }
    // The tail is printed, not gated: on `das_stream` its run-to-run spread
    // is wider than any bound the gate may use (see README.md).
    if let Some(p) = stats::highest_supported(n, &[90.0, 99.0, 99.9]) {
        eprintln!(
            "  latency p{p:<4}       {:10.3} ms  (highest supported; not gated)",
            percentile(p)
        );
    }
    eprintln!(
        "  latency mean        {:10.3} ms",
        stats::mean(&served.latencies)
    );
    eprintln!(
        "  setup (median of {}) {:9.3} s   {setups:.3?}",
        setups.len(),
        stats::median(&setups)
    );
    eprintln!(
        "  server VmHWM        {:10.1} MiB",
        served.server.rss_kb / 1024.0
    );
    eprintln!(
        "  failed_share        {:10.4}  ({} of {})",
        served.failed as f64 / served.attempted.max(1) as f64,
        served.failed,
        served.attempted
    );
    let missing = metrics.missing();
    if !missing.is_empty() {
        return Err(format!("run left metrics unset: {missing:?}"));
    }
    Ok(metrics::result_line(
        served.valid,
        served.attempted,
        served.failed,
        &metrics,
    ))
}

/// Checks every reply against the reference images, counts failures and
/// summarises the measured window.
fn check_served(
    workload: &Workload,
    config: &bench::harness::ScenarioConfig,
    log: LoadLog,
    server: ServerReport,
) -> Result<Served, String> {
    let used: BTreeSet<(usize, usize)> = log.sent.iter().map(|s| (s.stream, s.slot)).collect();
    let (specs, pools) = bench::agent::build_streams(config);
    let reference = reference::checksums(&specs, &pools, &used)?;

    // Failures count against the measured window; one anywhere, warm-up
    // included, fails the run.
    let (mut not_ok, mut lost, mut mismatched, mut anywhere) = (0u64, 0u64, 0u64, 0u64);
    for (sent, reply) in log.sent.iter().zip(&log.replies) {
        let counter = match reply {
            None => &mut lost,
            Some(r) if !r.ok => &mut not_ok,
            Some(r) if r.sum != reference[&(sent.stream, sent.slot)] => &mut mismatched,
            Some(_) => continue,
        };
        *counter += u64::from(sent.measured);
        anywhere += 1;
    }
    let attempted = log.measured().count() as u64;
    let failed = not_ok + lost + mismatched;
    eprintln!(
        "outputs: {} distinct frames checked against in-process references; measured window: {not_ok} not ok, {lost} lost, {mismatched} checksum mismatches; {anywhere} failures in all",
        reference.len()
    );
    let mut valid = anywhere == 0;

    if let Some(&(stream, slot)) = used
        .iter()
        .find(|(stream, _)| workload.backends[*stream] == "tiny-vbf-fp")
    {
        let deviation = reference::float_deviation(&specs[stream], &pools[stream][slot])?;
        let within = deviation <= reference::FLOAT_TOLERANCE;
        eprintln!(
            "float rung vs TinyVbf::infer_row: max |Δ| = {deviation:.3e} (tolerance {:.0e}) {}",
            reference::FLOAT_TOLERANCE,
            if within { "ok" } else { "FAILED" }
        );
        valid &= within;
    }

    if let Load::Open { rate_hz } = workload.load {
        let period = 1.0 / rate_hz;
        let late: Vec<f64> = log
            .measured()
            .map(|id| log.sent[id].late.as_secs_f64())
            .collect();
        let late_share =
            late.iter().filter(|&&l| l > period).count() as f64 / late.len().max(1) as f64;
        let sorted_late = stats::sorted(&late);
        let keeps_clock = stats::percentile(&sorted_late, 99.0) <= MAX_LATE_P99_PERIODS * period;
        eprintln!(
            "open-loop clock {rate_hz} frames/s: sends late by p50 {:.1} µs, p99 {:.1} µs, max {:.1} µs; {:.2}% later than one period{}",
            stats::percentile(&sorted_late, 50.0) * 1e6,
            stats::percentile(&sorted_late, 99.0) * 1e6,
            sorted_late.last().copied().unwrap_or(0.0) * 1e6,
            late_share * 100.0,
            if keeps_clock { "" } else { " — INVALID: the generator could not keep the clock" }
        );
        valid &= keeps_clock;
    }

    let ok_ids: Vec<usize> = log
        .measured()
        .filter(|&id| log.replies[id].as_ref().is_some_and(|r| r.ok))
        .collect();
    let latencies = stats::sorted(
        &ok_ids
            .iter()
            .filter_map(|&id| log.latency_ms(id))
            .collect::<Vec<_>>(),
    );
    let per_stream = (0..workload.backends.len())
        .map(|stream| {
            let own: Vec<f64> = ok_ids
                .iter()
                .filter(|&&id| log.sent[id].stream == stream)
                .filter_map(|&id| log.latency_ms(id))
                .collect();
            stats::sorted(&own)
        })
        .collect();
    // The window runs from the first measured request's due time to the
    // last measured reply.
    let window_start = log.measured().map(|id| log.sent[id].due).min();
    let window_end = ok_ids
        .iter()
        .filter_map(|&id| log.replies[id].as_ref().map(|r| r.at))
        .max();
    let frames_per_s = match (window_start, window_end) {
        (Some(start), Some(end)) if end > start => {
            ok_ids.len() as f64 / (end - start).as_secs_f64()
        }
        _ => 0.0,
    };
    Ok(Served {
        log,
        server,
        attempted,
        failed,
        valid,
        latencies,
        per_stream,
        frames_per_s,
    })
}
