//! The traced run: per-layer metrics.
//!
//! Tracing is on throughout. Each probe calls one layer's public functions
//! directly, inside a `bench` span of its own, and times the calls; the
//! program's counters are read only as counts. Short passes of the three
//! workloads then give the serving-layer numbers, and an untraced twin of
//! the offline pass gives the tracing overhead. The trace is drained after
//! every probe and pass, written as a chrome trace, and reduced to per-span
//! self times (a span's duration minus its same-thread children).

use crate::fixture::{self, MODEL, SERVE_HW};
use crate::report::Report;
use crate::stats::Samples;
use crate::workloads::{self, Heavy, Offline, Tcp, Traffic};
use mixmatch_obs::trace::{self, EventKind, TraceEvent};
use mixmatch_obs::{Registry, SampleValue};
use mixmatch_quant::engine::BatchEngine;
use mixmatch_quant::pipeline::{CompiledModel, DeployForm};
use mixmatch_quant::StepOp;
use mixmatch_serve::{wire, FleetStats, ModelServer};
use mixmatch_tensor::im2col::{im2col_patches_into, ConvGeometry};
use mixmatch_tensor::pool::WorkerPool;
use mixmatch_tensor::Tensor;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Where the chrome trace of the traced run is written.
const TRACE_PATH: &str = "perfbench/out/trace.json";

/// Times `f` `reps` times inside a `bench` span named `name`; returns the
/// per-call wall times in microseconds.
fn time_us<T>(name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> Samples {
    let mut s = Samples::new();
    for _ in 0..reps {
        let _span = trace::span("bench", name);
        let t = Instant::now();
        black_box(f());
        s.push_us(t.elapsed());
    }
    s
}

/// Sum of a counter over all its label sets, read from the global registry.
fn counter_total(name: &str) -> u64 {
    Registry::global()
        .snapshot()
        .samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            SampleValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// Change of counter `name` across `f`.
fn counter_delta(name: &str, f: impl FnOnce()) -> u64 {
    let before = counter_total(name);
    f();
    counter_total(name) - before
}

/// `(batches, images)` the server has dispatched, read from its counters.
fn batch_counts(server: &ModelServer) -> (u64, u64) {
    let stats = server.stats(MODEL).expect("model registered");
    (
        stats.batches,
        (stats.mean_batch * stats.batches as f64).round() as u64,
    )
}

/// Per-replica `(completed, batches, batched images, evictions)` counts
/// from a fleet snapshot.
fn replica_counts(stats: &FleetStats) -> Vec<(u64, u64, u64, u64)> {
    stats
        .replicas
        .iter()
        .map(|r| {
            let (mut completed, mut batches, mut images) = (0, 0, 0);
            for m in &r.models {
                completed += m.completed;
                batches += m.batches;
                images += (m.mean_batch * m.batches as f64).round() as u64;
            }
            (completed, batches, images, r.health.evictions)
        })
        .collect()
}

/// Every conv step of the plan with the dims of the map it reads.
fn conv_inputs(compiled: &CompiledModel) -> Vec<(usize, Vec<usize>)> {
    let plan = compiled.require_plan().expect("plan");
    let mut dims: Vec<Vec<usize>> = vec![Vec::new(); plan.buffer_sizes().len()];
    dims[plan.input_buffer()] = plan.input_dims().to_vec();
    let mut convs = Vec::new();
    for step in plan.steps() {
        if let StepOp::Conv { layer } | StepOp::FusedConv { layer, .. } = step.op {
            convs.push((layer, dims[step.srcs[0]].clone()));
        }
        dims[step.dst] = step.dims.clone();
    }
    convs
}

/// The deployed conv behind plan layer `layer`.
fn conv_layer(compiled: &CompiledModel, layer: usize) -> &mixmatch_quant::deploy::QuantizedConv {
    match &compiled.model().layers()[layer].form {
        DeployForm::Conv(conv) => conv,
        DeployForm::Matrix(_) => panic!("plan conv step names a matrix layer"),
    }
}

/// All of one image's im2col patches for one conv, as `f32`.
fn patches(geom: &ConvGeometry, input: &Tensor, group: usize, dst: &mut Vec<f32>) -> usize {
    let n = geom.output_size(input.dims()[1]) * geom.output_size(input.dims()[2]);
    dst.resize(n * geom.gemm_k(), 0.0);
    im2col_patches_into(input, geom, group, 0, n, dst);
    n
}

/// Probes of the quantize → export → import → load path.
fn setup_layers(report: &mut Report, seed: u64, heavy: &Heavy, tcp: &Tcp) -> CompiledModel {
    let model_seed = fixture::derive(seed, fixture::MODEL_A);
    let mut compiled = None;
    let quantize = time_us("pipeline.quantize", 5, || {
        compiled = Some(fixture::quantize(model_seed, SERVE_HW));
    });
    let compiled = compiled.expect("quantized");
    let mut bytes = Vec::new();
    let export = time_us("export.export_compiled", 5, || {
        bytes = fixture::export(&compiled)
    });
    let import = time_us("export.import_compiled", 5, || fixture::import(&bytes));
    let plan = compiled.require_plan().expect("plan");
    let descs = compiled.layer_descs();
    let mut verify = time_us("verify.verify", 50, || {
        assert!(mixmatch_quant::verify::verify(plan, &descs).is_clean());
    });
    let server_load = time_us("server.load_artifact", 5, || {
        heavy
            .server
            .load_artifact(MODEL, &bytes)
            .expect("server load")
    });
    let fleet_load = time_us("fleet.load_artifact", 5, || {
        tcp.fleet.load_artifact(MODEL, &bytes).expect("fleet load")
    });
    for (name, mut s, scale) in [
        ("pipeline.quantize_ms", quantize, 1e-3),
        ("export.export_ms", export, 1e-3),
        ("export.import_ms", import, 1e-3),
        ("server.load_ms", server_load, 1e-3),
        ("fleet.load_artifact_ms", fleet_load, 1e-3),
    ] {
        report.add_n(name, "ms", s.median() * scale, Some(s.len()));
    }
    report.add_n(
        "verify.verify_plan_us",
        "us",
        verify.median(),
        Some(verify.len()),
    );
    fixture::import(&bytes)
}

/// Probes of `quant::integer`, `tensor::im2col`, `tensor::pool` and
/// `quant::engine`, on the 8-px serving model and the 16-px offline one.
fn engine_layers(report: &mut Report, served: &CompiledModel, offline: &Offline) {
    let engine = BatchEngine::new();
    let model = served.model();
    let plan = served.require_plan().expect("plan");
    let image = &fixture::images(0, SERVE_HW, 1)[..];

    // The per-call GEMM-plan compile `run_plan` pays: try_plan + check_act
    // for every layer.
    let mut compile = time_us("integer.try_plan+check_act", 50, || {
        for layer in model.layers() {
            let act = match &layer.form {
                DeployForm::Conv(conv) => conv.act_quantizer(),
                DeployForm::Matrix(_) => model.act_quantizer(),
            };
            let gemm = layer.matrix().try_plan().expect("plan compiles");
            gemm.check_act(act).expect("activations fit");
        }
    });
    report.add_n(
        "integer.plan_compile_us",
        "us",
        compile.median(),
        Some(compile.len()),
    );
    let rows = counter_delta("mixmatch_kernel_rows_total", || {
        engine.run_plan(model, plan, image).expect("b1 run");
    });
    report.add("integer.kernel_rows_per_call", "count", rows as f64);

    // Largest conv of the 16-px model, one thread, one image.
    let big = &offline.compiled;
    let convs = conv_inputs(big);
    let (layer, dims) = convs
        .iter()
        .max_by_key(|(layer, dims)| {
            let g = conv_layer(big, *layer).geometry();
            g.out_channels * g.gemm_k() * g.output_size(dims[1]) * g.output_size(dims[2])
        })
        .expect("resnet has convs");
    let conv = conv_layer(big, *layer);
    let geom = *conv.geometry();
    assert_eq!(geom.groups, 1, "largest conv is dense");
    let input = Tensor::rand_uniform(
        dims,
        0.0,
        conv.act_quantizer().clip,
        &mut mixmatch_tensor::TensorRng::seed_from(5),
    );
    let mut cols = Vec::new();
    let n = patches(&geom, &input, 0, &mut cols);
    let quantized = conv.act_quantizer().quantize(&cols);
    let gemm = conv.try_plan().expect("plan compiles");
    let mut out = vec![0.0f32; geom.out_channels * n];
    let mut gemm_us = time_us("integer.matmul_patches_into", 50, || {
        gemm.matmul_patches_into(&quantized, n, conv.act_quantizer(), &mut out, n, 0, None)
    });
    report.add_n(
        "integer.gemm_us_per_image",
        "us",
        gemm_us.median(),
        Some(gemm_us.len()),
    );

    // im2col of every conv of one 16-px image.
    let inputs: Vec<(ConvGeometry, Tensor)> = convs
        .iter()
        .map(|(layer, dims)| {
            let g = *conv_layer(big, *layer).geometry();
            (
                g,
                Tensor::rand_uniform(
                    dims,
                    0.0,
                    1.0,
                    &mut mixmatch_tensor::TensorRng::seed_from(6),
                ),
            )
        })
        .collect();
    let mut im2col = time_us("im2col.patches", 50, || {
        for (g, x) in &inputs {
            for group in 0..g.groups {
                patches(g, x, group, &mut cols);
            }
        }
    });
    report.add_n(
        "im2col.patches_us_per_image",
        "us",
        im2col.median(),
        Some(im2col.len()),
    );

    let pool = WorkerPool::global();
    let mut dispatch = time_us("pool.run", 500, || {
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..pool.threads())
            .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
            .collect();
        pool.run(tasks);
    });
    report.add_n(
        "pool.dispatch_us",
        "us",
        dispatch.median(),
        Some(dispatch.len()),
    );
    let tasks = counter_delta("mixmatch_pool_tasks_total", || {
        engine
            .run_plan_batch(big, &offline.batches[0])
            .expect("b32 run");
    });
    report.add("pool.tasks_per_call", "count", tasks as f64);

    let mut b1 = time_us("engine.run_plan_b1", 300, || {
        engine.run_plan(model, plan, image)
    });
    report.add_n("engine.run_plan_b1_us", "us", b1.median(), Some(b1.len()));
    let batch = &offline.batches[0];
    let mut b32 = time_us("engine.run_plan_b32", 20, || {
        engine.run_plan_batch(big, batch)
    });
    report.add_n(
        "engine.run_plan_b32_us",
        "us",
        b32.median(),
        Some(b32.len()),
    );
    let ops = engine.run_plan_batch(big, batch).expect("b32 run").ops;
    let per_image = |x: usize| x as f64 / batch.len() as f64;
    report.add("engine.ops_per_image.mults", "count", per_image(ops.mults));
    report.add(
        "engine.ops_per_image.shifts",
        "count",
        per_image(ops.shifts),
    );
    report.add("engine.ops_per_image.adds", "count", per_image(ops.adds));

    // Per-step classes from the profiler, median over repeated batches.
    let big_plan = big.require_plan().expect("plan");
    let classes = ["conv", "gemm", "pool", "add", "other"];
    let mut by_class: Vec<Samples> = vec![Samples::new(); classes.len()];
    let mut bytes_moved = 0u64;
    let mut arena = 0u64;
    for _ in 0..10 {
        let _span = trace::span("bench", "engine.run_plan_profiled");
        let (_, profile) = engine
            .run_plan_profiled(big.model(), big_plan, batch)
            .expect("profiled run");
        let mut sums = [0.0f64; 5];
        for step in &profile.steps {
            let kind = step.label.split(' ').next().unwrap_or("");
            let class = match kind {
                "conv" | "fused-conv" => 0,
                "gemm" | "fused-gemm" => 1,
                "pool" => 2,
                "residual-add" => 3,
                _ => 4,
            };
            sums[class] += step.measured_us_per_image(profile.images);
        }
        for (s, v) in by_class.iter_mut().zip(sums) {
            s.push(v);
        }
        bytes_moved =
            profile.steps.iter().map(|s| s.bytes_moved).sum::<u64>() / profile.images as u64;
        arena = profile.arena_high_water_bytes;
    }
    for (class, mut s) in classes.iter().zip(by_class) {
        report.add_n(
            &format!("engine.step.{class}_us_per_image"),
            "us",
            s.median(),
            Some(s.len()),
        );
    }
    report.add("engine.bytes_moved_per_image", "B", bytes_moved as f64);
    report.add("engine.arena_high_water_bytes", "B", arena as f64);

    // Wire codec: one INFER request and its reply tensor, both ways.
    let reply = engine
        .run_plan(model, plan, image)
        .expect("b1 run")
        .outputs
        .remove(0);
    let mut codec = time_us("wire.codec", 1000, || {
        let request = wire::encode_infer_request(MODEL, &image[0]).expect("encode request");
        let decoded = wire::decode_infer_request(&request).expect("decode request");
        let mut body = Vec::new();
        wire::encode_tensor(&mut body, &reply).expect("encode reply");
        (decoded, wire::decode_tensor(&body).expect("decode reply"))
    });
    report.add_n("wire.codec_us", "us", codec.median(), Some(codec.len()));
}

/// Self time per span name: duration minus the same-thread children
/// directly nested in it. Returns `(name, total self µs, count)`, largest
/// total first.
pub fn self_times(events: &[TraceEvent]) -> Vec<(String, u64, u64)> {
    let mut spans: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    // Parents open no later than their children and sit one level up.
    spans.sort_by_key(|e| (e.tid, e.ts_us, e.depth));
    let mut self_us: Vec<i64> = spans.iter().map(|e| e.dur_us as i64).collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, e) in spans.iter().enumerate() {
        if open.last().is_some_and(|&p| spans[p].tid != e.tid) {
            open.clear();
        }
        open.truncate(e.depth as usize);
        let parent = open
            .last()
            .copied()
            .filter(|_| e.depth > 0 && open.len() == e.depth as usize);
        if let Some(p) = parent.filter(|&p| spans[p].ts_us + spans[p].dur_us >= e.ts_us) {
            self_us[p] -= e.dur_us as i64;
        }
        open.push(i);
    }
    let mut by_name: HashMap<String, (u64, u64)> = HashMap::new();
    for (e, s) in spans.iter().zip(self_us) {
        let slot = by_name.entry(format!("{}:{}", e.cat, e.name)).or_default();
        slot.0 += s.max(0) as u64;
        slot.1 += 1;
    }
    let mut rows: Vec<(String, u64, u64)> =
        by_name.into_iter().map(|(k, (s, n))| (k, s, n)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

pub fn run(seed: u64, seconds: u64) -> Report {
    let budget = Duration::from_secs(seconds);
    let schedule_seed = fixture::derive(seed, fixture::SCHEDULE);
    let mut report = Report::default();
    let offline = Offline::setup(seed);
    let heavy = Heavy::setup(seed);
    let mut tcp = Tcp::setup(seed);

    trace::set_ring_capacity(1 << 21);
    let mut events: Vec<TraceEvent> = Vec::new();
    trace::enable(true);
    let served = setup_layers(&mut report, seed, &heavy, &tcp);
    events.extend(trace::drain());
    engine_layers(&mut report, &served, &offline);
    events.extend(trace::drain());

    // Offline: short untraced and traced passes, alternated so that drift
    // in host speed falls on both alike.
    let (mut plain, mut traced) = (Traffic::default(), Traffic::default());
    for _ in 0..6 {
        trace::enable(false);
        plain.merge(offline.run(budget.mul_f64(0.025), None));
        trace::enable(true);
        traced.merge(offline.run(budget.mul_f64(0.025), None));
    }
    events.extend(trace::drain());
    report.add_n(
        "trace.overhead_frac",
        "frac",
        traced.latency.all().median() / plain.latency.all().median() - 1.0,
        Some(traced.latency.len().min(plain.latency.len())),
    );

    // serve-heavy at its fixed rate.
    let before = batch_counts(&heavy.server);
    let mut h = heavy.window(workloads::HEAVY_RATE, budget.mul_f64(0.25), schedule_seed);
    let after = batch_counts(&heavy.server);
    events.extend(trace::drain());
    report.add_n(
        "server.admit_us_p50",
        "us",
        h.admit_us.median(),
        Some(h.admit_us.len()),
    );
    report.add(
        "server.mean_batch",
        "count",
        (after.1 - before.1) as f64 / (after.0 - before.0).max(1) as f64,
    );
    report.add("server.queue_depth_max", "count", h.queue_max as f64);
    report.add("server.rejected", "count", h.rejected as f64);
    report.add_n(
        "gen.heavy.late_ms_p99",
        "ms",
        h.late_ms.percentile(99.0),
        Some(h.late_ms.len()),
    );
    report.add("gen.heavy.sent", "count", h.sent as f64);

    // tcp-sparse-swap at its fixed rate, then STATS round trips.
    let before = replica_counts(&tcp.fleet.stats());
    let mut t = tcp.window(workloads::TCP_RATE, budget.mul_f64(0.25), schedule_seed);
    let after = replica_counts(&tcp.fleet.stats());
    let delta: Vec<(u64, u64, u64, u64)> = before
        .iter()
        .zip(&after)
        .map(|(b, a)| (a.0 - b.0, a.1 - b.1, a.2 - b.2, a.3 - b.3))
        .collect();
    let completed: u64 = delta.iter().map(|d| d.0).sum();
    for (i, d) in delta.iter().enumerate() {
        report.add(
            &format!("fleet.replica_share.r{i}"),
            "frac",
            d.0 as f64 / completed.max(1) as f64,
        );
    }
    let (batches, images) = delta
        .iter()
        .fold((0, 0), |acc, d| (acc.0 + d.1, acc.1 + d.2));
    report.add(
        "fleet.replica_mean_batch",
        "count",
        images as f64 / batches.max(1) as f64,
    );
    report.add(
        "health.evictions",
        "count",
        delta.iter().map(|d| d.3).sum::<u64>() as f64,
    );
    report.add_n(
        "gen.tcp.late_ms_p99",
        "ms",
        t.late_ms.percentile(99.0),
        Some(t.late_ms.len()),
    );
    report.add("gen.tcp.sent", "count", t.sent as f64);
    let client = &mut tcp.clients[0];
    let mut rtt = time_us("wire.stats", 50, || client.stats().expect("STATS"));
    report.add_n("wire.stats_rtt_us", "us", rtt.median(), Some(rtt.len()));
    tcp.shutdown();
    heavy.server.shutdown();
    trace::enable(false);
    events.extend(trace::drain());

    for pass in [&mut plain, &mut traced, &mut h, &mut t] {
        report.attempted += pass.sent;
        report.failed += pass.failed + pass.rejected;
        report.mismatches += pass.mismatches;
    }
    let dropped = trace::dropped();
    report.add("trace.dropped", "count", dropped as f64);
    report.add("trace.events", "count", events.len() as f64);
    if dropped > 0 {
        eprintln!("perfbench: the trace ring dropped {dropped} events");
    }

    println!("self time by span (top 20 of {} events):", events.len());
    for (name, us, n) in self_times(&events).into_iter().take(20) {
        println!("  {name:<40} {:>12.3} ms  n={n}", us as f64 / 1e3);
    }
    match std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(TRACE_PATH, mixmatch_obs::chrome_trace(&events)))
    {
        Ok(()) => println!("wrote {TRACE_PATH}"),
        Err(e) => eprintln!("perfbench: {TRACE_PATH}: {e}"),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u64, ts_us: u64, dur_us: u64, depth: u32, name: &str) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: "t",
            tid,
            ts_us,
            dur_us,
            depth,
            kind: EventKind::Span,
        }
    }

    #[test]
    fn self_time_subtracts_direct_same_thread_children_only() {
        let events = vec![
            // tid 1: outer 0..100 holds mid 10..60 (which holds leaf 20..30)
            // and a second child 70..80.
            span(1, 0, 100, 0, "outer"),
            span(1, 10, 50, 1, "mid"),
            span(1, 20, 10, 2, "leaf"),
            span(1, 70, 10, 1, "leaf"),
            // tid 2 overlaps in time but is another thread: no effect.
            span(2, 5, 40, 0, "other"),
        ];
        let rows: HashMap<String, (u64, u64)> = self_times(&events)
            .into_iter()
            .map(|(n, s, c)| (n, (s, c)))
            .collect();
        assert_eq!(rows["t:outer"], (100 - 50 - 10, 1));
        assert_eq!(rows["t:mid"], (50 - 10, 1));
        assert_eq!(rows["t:leaf"], (20, 2));
        assert_eq!(rows["t:other"], (40, 1));
    }
}
