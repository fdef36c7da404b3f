//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload offline-b32|serve-heavy|tcp-sparse-swap
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets up the workload, measures it for `S` seconds with
//! tracing off and reports the end-to-end metrics. `--trace 1` is the
//! separate traced run: it times each layer's public calls and runs short
//! traced passes of all three workloads for the per-layer metrics (see
//! `layers.rs`), whichever workload is named. Either way every output is
//! checked bit for bit against references computed before timing starts.
//!
//! Stdout carries run metadata, a human-readable metric listing (with the
//! sample count behind every median and percentile) and, as its last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 0 for a correct run, 1 when any output was wrong or any
//! request failed, and 2 on a usage error.

mod fixture;
mod layers;
mod report;
mod stats;
mod workloads;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Heavy, Offline, Swaps, Tcp, Traffic};

const USAGE: &str = "usage: perfbench --workload offline-b32|serve-heavy|tcp-sparse-swap \
                     --seed N --seconds S --trace 0|1";

pub const WORKLOADS: [&str; 3] = ["offline-b32", "serve-heavy", "tcp-sparse-swap"];

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ips", "img/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("swap_p50_ms", "ms"),
];

/// The per-layer metrics the traced run reports.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("pipeline.quantize_ms", "ms"),
    ("export.export_ms", "ms"),
    ("export.import_ms", "ms"),
    ("verify.verify_plan_us", "us"),
    ("server.load_ms", "ms"),
    ("fleet.load_artifact_ms", "ms"),
    ("integer.plan_compile_us", "us"),
    ("integer.kernel_rows_per_call", "count"),
    ("integer.gemm_us_per_image", "us"),
    ("im2col.patches_us_per_image", "us"),
    ("pool.dispatch_us", "us"),
    ("pool.tasks_per_call", "count"),
    ("engine.run_plan_b1_us", "us"),
    ("engine.run_plan_b32_us", "us"),
    ("engine.ops_per_image.mults", "count"),
    ("engine.ops_per_image.shifts", "count"),
    ("engine.ops_per_image.adds", "count"),
    ("engine.step.conv_us_per_image", "us"),
    ("engine.step.gemm_us_per_image", "us"),
    ("engine.step.pool_us_per_image", "us"),
    ("engine.step.add_us_per_image", "us"),
    ("engine.step.other_us_per_image", "us"),
    ("engine.bytes_moved_per_image", "B"),
    ("engine.arena_high_water_bytes", "B"),
    ("server.admit_us_p50", "us"),
    ("server.mean_batch", "count"),
    ("server.queue_depth_max", "count"),
    ("server.rejected", "count"),
    ("fleet.replica_share.r0", "frac"),
    ("fleet.replica_share.r1", "frac"),
    ("fleet.replica_mean_batch", "count"),
    ("health.evictions", "count"),
    ("wire.stats_rtt_us", "us"),
    ("wire.codec_us", "us"),
    ("gen.heavy.late_ms_p99", "ms"),
    ("gen.heavy.sent", "count"),
    ("gen.tcp.late_ms_p99", "ms"),
    ("gen.tcp.sent", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.dropped", "count"),
    ("trace.events", "count"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err("--seconds needs an integer in 1..=600".into()),
            },
            "--trace" => match value {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace needs 0 or 1".into()),
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit being measured, read from the checkout's own `.git` when
/// there is one (a source export has none: "unknown").
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let hash = match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        }),
        None => Some(head),
    };
    match hash.map(|h| h.trim().to_string()) {
        Some(h) if !h.is_empty() => h,
        _ => "unknown".into(),
    }
}

/// Facts that decide whether two runs are comparable.
fn print_metadata(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} simd_detected={:?} \
         simd_active={:?} force_scalar={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        mixmatch_tensor::simd::detected_tier(),
        mixmatch_tensor::simd::active_tier(),
        std::env::var_os("MIXMATCH_FORCE_SCALAR").is_some(),
        commit(),
    );
}

/// Adds the metrics every workload shares to `report`. `setup_s` holds
/// set-ups from before and after the window, so a slow spell of the host
/// during one of them does not decide the median. `swaps` holds the swaps
/// timed apart from the measured calls or arrivals; without them, the
/// swaps timed under traffic in `traffic` give `swap_p50_ms`.
fn end_to_end(
    report: &mut Report,
    setup_s: &mut stats::Samples,
    traffic: &Traffic,
    swaps: Option<Swaps>,
) {
    let n = Some(traffic.latency.len());
    report.add_n("setup_s", "s", setup_s.median(), Some(setup_s.len()));
    report.add("throughput_ips", "img/s", traffic.throughput_ips());
    report.add_n("latency_p50_ms", "ms", traffic.latency_ms(50.0), n);
    report.add_n("latency_p90_ms", "ms", traffic.latency_ms(90.0), n);
    let swap_ms = match swaps {
        Some(mut swaps) => {
            report.attempted += swaps.sent;
            report.failed += swaps.failed;
            report.mismatches += swaps.mismatches;
            (swaps.ms.median(), swaps.ms.len())
        }
        None => (traffic.swap_p50_ms(), traffic.swap.len()),
    };
    report.add_n("swap_p50_ms", "ms", swap_ms.0, Some(swap_ms.1));
    report.attempted += traffic.sent;
    report.failed += traffic.failed + traffic.rejected;
    report.mismatches += traffic.mismatches;
    let failed_frac = (report.failed + report.mismatches) as f64 / report.attempted.max(1) as f64;
    report.note("failed_frac", "frac", failed_frac, None);
    report.note("gen.sent", "count", traffic.sent as f64, None);
    // The tail the result line leaves out: too unsteady on a shared host
    // to hold a bound, but shown with its sample count.
    report.note(
        "latency_p99_ms",
        "ms",
        traffic.latency.all().percentile(99.0),
        n,
    );
    if traffic.late_ms.len() > 0 {
        let mut late = traffic.late_ms.clone();
        report.note(
            "gen.late_ms_p99",
            "ms",
            late.percentile(99.0),
            Some(late.len()),
        );
    }
}

fn measure(args: &Args) -> Report {
    let span = Duration::from_secs(args.seconds);
    let schedule_seed = fixture::derive(args.seed, fixture::SCHEDULE);
    let mut report = Report::default();
    match args.workload {
        "offline-b32" => {
            let mut offline = Offline::setup(args.seed);
            let mut swaps = Swaps::default();
            let traffic = offline.run(span, Some(&mut swaps));
            offline.setup_s.extend(Offline::setup(args.seed).setup_s);
            end_to_end(&mut report, &mut offline.setup_s, &traffic, Some(swaps));
        }
        "serve-heavy" => {
            let mut heavy = Heavy::setup(args.seed);
            let mut swaps = Swaps::default();
            heavy.swaps(&mut swaps);
            let traffic = heavy.window(workloads::HEAVY_RATE, span, schedule_seed);
            heavy.swaps(&mut swaps);
            heavy.server.shutdown();
            heavy.setup_s.extend(Heavy::setup(args.seed).setup_s);
            end_to_end(&mut report, &mut heavy.setup_s, &traffic, Some(swaps));
        }
        "tcp-sparse-swap" => {
            let mut tcp = Tcp::setup(args.seed);
            let traffic = tcp.window(workloads::TCP_RATE, span, schedule_seed);
            let mut setup_s = std::mem::take(&mut tcp.setup_s);
            tcp.shutdown();
            setup_s.extend(Tcp::setup(args.seed).setup_s);
            end_to_end(&mut report, &mut setup_s, &traffic, None);
        }
        other => unreachable!("workload {other} was validated by parse_args"),
    }
    report
}

/// Fails unless `report` carries exactly the declared metrics.
fn check_declared(report: &Report, declared: &[(&str, &str)]) -> Result<(), String> {
    report.validate()?;
    let mut got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let mut want = declared.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "emitted metrics {got:?} differ from declared {want:?}"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print_metadata(&args);
    let (report, declared) = if args.trace {
        (layers::run(args.seed, args.seconds), &PER_LAYER[..])
    } else {
        (measure(&args), &END_TO_END[..])
    };
    print!("{}", report.listing());
    if let Err(e) = check_declared(&report, declared) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} failed requests, {} wrong outputs",
            report.failed, report.mismatches
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` declares under `key`, in file order.
    fn declared_in_benchmark_json(key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn declared_metric_names_are_legal_and_unique() {
        for list in [&END_TO_END[..], &PER_LAYER[..]] {
            for (i, (name, unit)) in list.iter().enumerate() {
                assert!(report::valid_name(name), "{name}");
                assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
                assert!(list[..i].iter().all(|(n, _)| n != name), "{name} twice");
            }
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared_in_benchmark_json("end_to_end"), names(&END_TO_END));
        assert_eq!(declared_in_benchmark_json("per_layer"), names(&PER_LAYER));
        assert_eq!(declared_in_benchmark_json("workloads"), WORKLOADS.to_vec());
    }

    #[test]
    fn check_declared_rejects_missing_and_extra_metrics() {
        let mut r = Report::default();
        for (name, unit) in END_TO_END {
            r.add(name, unit, 1.0);
        }
        assert!(check_declared(&r, &END_TO_END).is_ok());
        r.add("extra", "ms", 1.0);
        assert!(check_declared(&r, &END_TO_END).is_err());
        r.metrics.truncate(2);
        assert!(check_declared(&r, &END_TO_END).is_err());
    }
}
