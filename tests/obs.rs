//! Observability contracts: the tracing recorder under concurrency, the
//! profiled execution path's bit-identity, the `METRICS` wire verb, and
//! snapshot arithmetic.
//!
//! The trace recorder and the metrics registry are process-global, so the
//! tests that enable/drain tracing serialize on a shared lock and filter
//! drained events by names they own — other tests in this binary may run
//! concurrently and emit their own events.

mod common;

use mixmatch::obs::trace::{self, TraceEvent};
use mixmatch::obs::{chrome_trace, EventKind, LatencyHistogram, Registry};
use mixmatch::prelude::*;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::serve::wire::{read_frame, verb, write_frame};
use proptest::prelude::*;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serializes tests that enable/drain the process-global trace recorder.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A small quantized ResNet with a compiled multi-step plan.
fn mini_resnet() -> CompiledModel {
    let mut rng = TensorRng::seed_from(23);
    let mut model = mixmatch::nn::models::ResNet::new(
        mixmatch::nn::models::ResNetConfig::mini(10).with_act_bits(4),
        &mut rng,
    );
    QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z045).with_input_size(8))
        .quantize(&mut model)
        .expect("quantize resnet-mini")
}

// ---------------------------------------------------------------- tracing

#[test]
fn concurrent_recorders_produce_a_well_formed_trace() {
    let _guard = trace_lock();
    trace::enable(true);
    trace::drain();
    const THREADS: usize = 8;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                let outer = trace::span("obs-test", format!("outer-{t}"));
                for i in 0..2 {
                    let _inner = trace::span("obs-test", format!("inner-{t}-{i}"));
                    std::hint::black_box(
                        (0..500u64).fold(t as u64, |a, b| a.wrapping_mul(31).wrapping_add(b)),
                    );
                }
                trace::instant("obs-test", format!("mark-{t}"));
                drop(outer);
            });
        }
    });
    trace::enable(false);
    let events: Vec<TraceEvent> = trace::drain()
        .into_iter()
        .filter(|e| e.cat == "obs-test")
        .collect();
    assert_eq!(events.len(), THREADS * 4, "3 spans + 1 instant per thread");

    for t in 0..THREADS {
        let expected = [
            format!("outer-{t}"),
            format!("inner-{t}-0"),
            format!("inner-{t}-1"),
            format!("mark-{t}"),
        ];
        let mine: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| expected.contains(&e.name))
            .collect();
        assert_eq!(mine.len(), 4, "thread {t} events intact (no tearing)");
        // All of one thread's events carry the same recorder tid.
        let tid = mine[0].tid;
        assert!(mine.iter().all(|e| e.tid == tid), "thread {t} single tid");
        let outer = mine
            .iter()
            .find(|e| e.name == format!("outer-{t}"))
            .expect("outer span");
        assert_eq!(outer.kind, EventKind::Span);
        assert_eq!(outer.depth, 0);
        for i in 0..2 {
            let inner = mine
                .iter()
                .find(|e| e.name == format!("inner-{t}-{i}"))
                .expect("inner span");
            assert_eq!(inner.depth, 1, "spans nest");
            // Inner spans sit inside the outer span's interval.
            assert!(inner.ts_us >= outer.ts_us);
            assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1);
        }
        let mark = mine
            .iter()
            .find(|e| e.name == format!("mark-{t}"))
            .expect("instant");
        assert_eq!(mark.kind, EventKind::Instant);
        // Completion order per thread: the local buffer preserves it, so
        // this thread's subsequence has non-decreasing end times.
        let mut last_end = 0u64;
        for e in events.iter().filter(|e| e.tid == tid) {
            let end = e.ts_us + e.dur_us;
            assert!(end >= last_end, "per-tid completion order");
            last_end = end;
        }
    }

    let json = chrome_trace(&events);
    assert!(json.starts_with(r#"{"traceEvents":["#));
    assert!(json.contains(r#""ph":"X""#), "complete spans present");
    assert!(json.contains(r#""ph":"i""#), "instants present");
}

#[test]
fn disabled_tracing_records_nothing() {
    let _guard = trace_lock();
    trace::enable(false);
    trace::drain();
    {
        let _span = trace::span("obs-test-off", "ignored");
        trace::instant("obs-test-off", "also ignored");
    }
    assert!(trace::drain()
        .iter()
        .all(|e| !e.cat.starts_with("obs-test-off")));
}

// ----------------------------------------------------------- plan profiler

#[test]
fn profiled_run_is_bit_identical_and_accounts_for_the_wall() {
    let compiled = mini_resnet();
    let plan = compiled.plan().expect("resnet compiles to a plan");
    let mut rng = TensorRng::seed_from(5);
    let images: Vec<Tensor> = (0..6)
        .map(|_| Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng))
        .collect();
    // One worker: the per-step walls come from a single chunk, so their
    // sum is bounded by the measured total.
    let engine = BatchEngine::with_threads(1);
    let plain = engine
        .run_plan(compiled.model(), plan, &images)
        .expect("plain run");
    let (profiled, profile) = engine
        .run_plan_profiled(compiled.model(), plan, &images)
        .expect("profiled run");
    for (a, b) in plain.outputs.iter().zip(&profiled.outputs) {
        assert_eq!(a.as_slice(), b.as_slice(), "profiling changes no bits");
    }
    assert_eq!(plain.ops, profiled.ops);

    assert_eq!(profile.steps.len(), plan.steps().len());
    assert_eq!(profile.images, images.len());
    assert!(profile.step_wall_total() <= profile.total);
    assert!(profile.total > Duration::ZERO);
    assert!(profile.arena_high_water_bytes > 0);
    for (i, step) in profile.steps.iter().enumerate() {
        assert_eq!(step.index, i);
        assert!(!step.label.is_empty());
        assert!(step.bytes_moved > 0);
    }
    // GEMM steps carry a kernel tier and row split; weight-free steps do
    // not. The FPGA-anchored model predicts a positive cost per GEMM step.
    let gemm_steps = profile.steps.iter().filter(|s| s.tier.is_some()).count();
    assert!(gemm_steps > 0, "resnet plan has GEMM steps");
    for step in &profile.steps {
        if step.tier.is_some() {
            assert!(step.packed_rows + step.dense_rows > 0);
            assert!(step.predicted.expect("fpga prediction") > Duration::ZERO);
        } else {
            assert_eq!(step.packed_rows + step.dense_rows, 0);
            assert!(step.predicted.is_none());
        }
    }
    let table = profile.table();
    assert!(table.contains("skew"), "predictions render a skew column");

    // Multi-threaded profiled execution stays bit-identical too.
    let wide = BatchEngine::with_threads(4);
    let (wide_run, wide_profile) = wide
        .run_plan_profiled(compiled.model(), plan, &images)
        .expect("wide profiled run");
    for (a, b) in plain.outputs.iter().zip(&wide_run.outputs) {
        assert_eq!(a.as_slice(), b.as_slice());
    }
    assert_eq!(wide_profile.steps.len(), plan.steps().len());
}

#[test]
fn kernel_tier_counters_observe_compiled_rows() {
    let before = Registry::global()
        .snapshot()
        .counter("mixmatch_kernel_rows_total", &[("tier", "avx2")])
        .unwrap_or(0)
        + Registry::global()
            .snapshot()
            .counter("mixmatch_kernel_rows_total", &[("tier", "scalar")])
            .unwrap_or(0);
    let compiled = mini_resnet();
    let plan = compiled.plan().expect("plan");
    let mut rng = TensorRng::seed_from(11);
    let images = vec![Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng)];
    BatchEngine::with_threads(1)
        .run_plan(compiled.model(), plan, &images)
        .expect("run");
    let after = Registry::global()
        .snapshot()
        .counter("mixmatch_kernel_rows_total", &[("tier", "avx2")])
        .unwrap_or(0)
        + Registry::global()
            .snapshot()
            .counter("mixmatch_kernel_rows_total", &[("tier", "scalar")])
            .unwrap_or(0);
    // Whatever tier the host dispatches to, compiling the plan's GEMMs
    // must surface rows under it.
    assert!(after > before, "row counters advanced");
}

// ------------------------------------------------------------ METRICS verb

#[test]
fn metrics_verb_serves_well_formed_prometheus_text() {
    let fleet = Arc::new(FleetServer::start(
        FleetConfig::default(),
        vec![ReplicaSpec::new("r0", FpgaDevice::XC7Z045)],
    ));
    let wire = WireServer::bind("127.0.0.1:0", Arc::clone(&fleet)).expect("bind wire");
    let addr = wire.local_addr();
    let mut client = FleetClient::connect(addr).expect("connect");
    client.load("mlp", &common::mlp_artifact(3)).expect("load");
    let mut rng = TensorRng::seed_from(8);
    for _ in 0..3 {
        let image = Tensor::rand_uniform(&[12], 0.0, 1.0, &mut rng);
        client.infer("mlp", &image).expect("infer");
    }

    let page = client.metrics().expect("metrics page");
    assert!(
        page.contains("# TYPE mixmatch_request_stage_seconds histogram"),
        "stage histograms are typed: {page}"
    );
    for stage in ["total", "queue", "coalesce", "execute", "route"] {
        assert!(
            page.contains(&format!("stage=\"{stage}\"")),
            "stage {stage} present in:\n{page}"
        );
    }
    // Well-formed exposition: every non-comment line is `name{...} value`
    // with a parseable number, and every histogram series ends at +Inf.
    for line in page
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let value = line.rsplit(' ').next().expect("value field");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample line: {line}"
        );
    }
    assert!(page.contains("le=\"+Inf\""));

    // The stats verb carries the per-stage percentiles end-to-end.
    let stats = client.stats().expect("stats");
    let model = stats.replicas[0]
        .models
        .iter()
        .find(|m| m.model == "mlp")
        .expect("mlp stats");
    for stage in ["queue", "coalesce", "execute"] {
        let s = model.stage(stage).expect("stage in wire stats");
        assert!(s.count > 0, "stage {stage} recorded");
    }

    // A METRICS frame with a garbage payload is still answered (the verb
    // takes no arguments; the payload is ignored, like STATS).
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    write_frame(&mut stream, verb::METRICS, b"\xde\xad\xbe\xef").expect("write");
    let (v, body) = read_frame(&mut stream).expect("read");
    assert_eq!(v, verb::OK);
    assert!(String::from_utf8(body).is_ok(), "page is UTF-8");

    wire.stop();
    fleet.shutdown();
}

// ------------------------------------------------------ snapshot arithmetic

proptest! {
    /// Counter deltas recover exactly the increments between snapshots.
    #[test]
    fn counter_delta_recovers_increments(
        first in proptest::collection::vec(0u64..1_000, 0..8),
        second in proptest::collection::vec(0u64..1_000, 0..8),
    ) {
        let reg = Registry::new();
        let c = reg.counter("events_total", &[("src", "prop")]);
        for v in &first { c.add(*v); }
        let early = reg.snapshot();
        for v in &second { c.add(*v); }
        let delta = reg.snapshot().delta(&early);
        prop_assert_eq!(
            delta.counter("events_total", &[("src", "prop")]),
            Some(second.iter().sum::<u64>())
        );
    }

    /// Histogram deltas: bucket counts, totals and sums all subtract.
    #[test]
    fn histogram_delta_isolates_the_second_window(
        first in proptest::collection::vec(0u64..1_000_000, 0..16),
        second in proptest::collection::vec(0u64..1_000_000, 0..16),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("lat_seconds", &[]);
        for us in &first { h.record_micros(*us); }
        let early = reg.snapshot();
        for us in &second { h.record_micros(*us); }
        let delta = reg.snapshot().delta(&early);
        let snap = delta.histogram("lat_seconds", &[]).expect("series");
        prop_assert_eq!(snap.count, second.len() as u64);
        prop_assert_eq!(snap.sum_us, second.iter().sum::<u64>());
        // The isolated window matches a histogram fed only `second`.
        let reference = LatencyHistogram::new();
        for us in &second { reference.record_micros(*us); }
        prop_assert_eq!(snap.buckets, reference.bucket_counts());
    }

    /// Percentiles are monotone in `q` and every recorded value respects
    /// its bucket's upper bound.
    #[test]
    fn percentiles_are_monotone_and_bound_the_data(
        values in proptest::collection::vec(0u64..10_000_000, 1..32),
    ) {
        let h = LatencyHistogram::new();
        for us in &values { h.record_micros(*us); }
        let mut last = Duration::ZERO;
        for q in [10.0, 50.0, 90.0, 99.0, 100.0] {
            let p = h.percentile(q);
            prop_assert!(p >= last, "monotone in q");
            last = p;
        }
        // p100 is the max bucket's upper bound, so it dominates the max.
        prop_assert!(h.percentile(100.0).as_micros() as u64 >= *values.iter().max().expect("nonempty"));
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum_micros(), values.iter().sum::<u64>());
    }
}
