//! Compile-once accounting: a loaded model compiles each layer's GEMM row
//! plan on its first run and reuses it for every later call, batch and
//! replica, so `mixmatch_kernel_rows_total` counts compiles, not calls.
//!
//! The counter is process-global, so this suite lives in a binary of its
//! own and its tests take turns under one lock.

use mixmatch::fpga::device::FpgaDevice;
use mixmatch::nn::layers::{Linear, Relu};
use mixmatch::nn::module::Sequential;
use mixmatch::obs::SampleValue;
use mixmatch::prelude::*;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::export::{export_compiled, import_compiled};
use mixmatch::quant::integer::ActQuantizer;
use std::sync::Mutex;

/// Serializes the tests: each reads the global counter before and after.
static COUNTER: Mutex<()> = Mutex::new(());

/// Rows compiled so far, summed over every tier label.
fn compiled_rows() -> u64 {
    Registry::global()
        .snapshot()
        .samples
        .iter()
        .filter(|s| s.name == "mixmatch_kernel_rows_total")
        .map(|s| match s.value {
            SampleValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// A small quantized MLP (`[12] → [10]`) with a compiled plan.
fn mlp(seed: u64) -> CompiledModel {
    let mut rng = TensorRng::seed_from(seed);
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc1", 12, 16, true, &mut rng));
    model.push(Relu::new());
    model.push(Linear::with_name("fc2", 16, 10, false, &mut rng));
    QuantPipeline::from_policy(MsqPolicy::msq_half())
        .with_input_shape(&[12])
        .quantize(&mut model)
        .expect("quantize mlp")
}

/// GEMM rows across the model's layers: what one compile of it counts.
fn model_rows(compiled: &CompiledModel) -> u64 {
    compiled.layers().iter().map(|l| l.desc.rows as u64).sum()
}

fn image(seed: u64) -> Tensor {
    Tensor::rand_uniform(&[12], 0.0, 1.0, &mut TensorRng::seed_from(seed))
}

#[test]
fn repeated_run_plan_calls_compile_the_model_once() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let compiled = mlp(1);
    let plan = compiled.require_plan().expect("plan");
    let engine = BatchEngine::with_threads(2);
    let images: Vec<Tensor> = (0..3).map(image).collect();
    let before = compiled_rows();
    for n in [1, 3, 1, 2] {
        engine
            .run_plan(compiled.model(), plan, &images[..n])
            .expect("run_plan");
    }
    engine
        .run_plan_profiled(compiled.model(), plan, &images)
        .expect("profiled run");
    assert_eq!(compiled_rows() - before, model_rows(&compiled));
}

#[test]
fn a_fleet_load_compiles_once_across_replicas() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let compiled = mlp(2);
    let rows = model_rows(&compiled);
    let bytes = export_compiled(&compiled).expect("export");
    // Twin devices tie on cost, so the router spreads a burst by queue
    // depth and both replicas serve.
    let fleet = FleetServer::start(
        FleetConfig::default().with_replica_config(ServeConfig::default().with_threads(1)),
        vec![
            ReplicaSpec::new("r0", FpgaDevice::XC7Z020),
            ReplicaSpec::new("r1", FpgaDevice::XC7Z020),
        ],
    );
    let before = compiled_rows();
    fleet.load_artifact("mlp", &bytes).expect("load");
    let served = |fleet: &FleetServer| -> Vec<u64> {
        fleet
            .stats()
            .replicas
            .iter()
            .map(|r| r.models.iter().map(|m| m.completed).sum())
            .collect()
    };
    for burst in 0..50 {
        let pending: Vec<_> = (0..16)
            .map(|i| fleet.infer("mlp", image(burst * 16 + i)).expect("admit"))
            .collect();
        for p in pending {
            p.wait().expect("reply");
        }
        if served(&fleet).iter().all(|&n| n > 0) {
            break;
        }
    }
    assert!(
        served(&fleet).iter().all(|&n| n > 0),
        "both replicas served: {:?}",
        served(&fleet)
    );
    assert_eq!(compiled_rows() - before, rows);
}

#[test]
fn a_fresh_import_compiles_again() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let compiled = mlp(3);
    let rows = model_rows(&compiled);
    let bytes = export_compiled(&compiled).expect("export");
    let engine = BatchEngine::with_threads(1);
    let before = compiled_rows();
    for expected in [rows, 2 * rows] {
        let imported = import_compiled(&bytes).expect("import");
        for seed in 0..2 {
            engine
                .run_plan_batch(&imported, &[image(seed)])
                .expect("run");
        }
        assert_eq!(compiled_rows() - before, expected);
    }
}

/// Rows compiled so far under one tier label.
fn rows_under(tier: &str) -> u64 {
    Registry::global()
        .snapshot()
        .counter("mixmatch_kernel_rows_total", &[("tier", tier)])
        .unwrap_or(0)
}

#[test]
fn kernel_rows_count_under_the_kernel_they_run() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    // 4-bit P2 rows over K = 4096 sum to Σ|num| ≈ 52k, past the vector
    // kernel's i32 bound for 16-bit activations (i32::MAX / 65535 = 32768),
    // and 16-bit codes exceed the kernel's i16 lanes anyway: every row runs
    // the scalar oracle, so every row counts as `scalar`, on any host.
    let mut rng = TensorRng::seed_from(4);
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc", 4096, 3, false, &mut rng));
    let compiled = QuantPipeline::from_policy(MsqPolicy::single(Scheme::Pow2, 4))
        .with_act_quantizer(ActQuantizer::new(16, 1.0))
        .with_input_shape(&[4096])
        .quantize(&mut model)
        .expect("quantize one-dense model");
    let input = Tensor::rand_uniform(&[4096], 0.0, 1.0, &mut rng);
    let (avx2, scalar) = (rows_under("avx2"), rows_under("scalar"));
    BatchEngine::with_threads(1)
        .run_plan_batch(&compiled, &[input])
        .expect("run");
    assert_eq!(rows_under("scalar") - scalar, 3, "scalar-run rows");
    assert_eq!(rows_under("avx2"), avx2, "no row runs the vector kernel");
}
