//! Serving integrity: the dynamic batcher loses no request, duplicates
//! none, and never routes a response to a neighboring caller.
//!
//! Every test compares server responses against `BatchEngine::run_plan`
//! on the *same* `CompiledModel` — responses must be **bit-identical** to
//! the single-image plan result for the caller's own input, across batching
//! configurations (`max_batch` ∈ {1, 3, 32}), pool sizes (1 and the host
//! parallelism) and concurrent submission. An over-rate burst must shed
//! load with typed `ServeError::Overloaded` rejections while every admitted
//! request still completes correctly.

mod common;

use mixmatch::nn::layers::{Linear, Relu};
use mixmatch::nn::module::Sequential;
use mixmatch::prelude::*;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::export::import_compiled;
use proptest::prelude::*;
use std::sync::Arc;

/// Unique request payloads: no two images share a value pattern, so a
/// response routed to the wrong caller cannot accidentally match.
fn unique_images(n: usize, dims: &[usize], seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed_from(seed);
    (0..n)
        .map(|_| Tensor::rand_uniform(dims, 0.0, 1.0, &mut rng))
        .collect()
}

/// Single-image plan results through a deterministic one-thread engine —
/// the bit-exact reference every server response is held to.
fn references(compiled: &CompiledModel, images: &[Tensor]) -> Vec<Vec<f32>> {
    let engine = BatchEngine::with_threads(1);
    images
        .iter()
        .map(|img| {
            let run = engine
                .run_plan_batch(compiled, std::slice::from_ref(img))
                .expect("reference run");
            run.outputs[0].as_slice().to_vec()
        })
        .collect()
}

#[test]
fn concurrent_requests_are_bit_identical_to_run_plan_across_configs() {
    let artifact = common::mlp_artifact(1);
    let compiled = import_compiled(&artifact).expect("import");
    const THREADS: usize = 8;
    const PER_THREAD: usize = 6;
    let images = unique_images(THREADS * PER_THREAD, &[12], 2);
    let refs = references(&compiled, &images);
    // Unique payloads must produce pairwise-distinct logits; then "matches
    // my own reference" also proves "is not a neighbor's response".
    for i in 0..refs.len() {
        for j in i + 1..refs.len() {
            assert_ne!(refs[i], refs[j], "fixture degenerate: {i} vs {j}");
        }
    }

    let host = std::thread::available_parallelism().map_or(1, |v| v.get());
    for max_batch in [1usize, 3, 32] {
        for pool_threads in [1usize, host] {
            let server = Arc::new(ModelServer::start(
                ServeConfig::default()
                    .with_max_batch(max_batch)
                    .with_queue_depth(2 * THREADS * PER_THREAD)
                    .with_threads(pool_threads),
            ));
            server.load_artifact("mlp", &artifact).expect("load");
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let server = Arc::clone(&server);
                    let images = &images;
                    let refs = &refs;
                    scope.spawn(move || {
                        // Submit the thread's whole share first (async), then
                        // join — so requests from all threads interleave in
                        // the batcher.
                        let span = t * PER_THREAD..(t + 1) * PER_THREAD;
                        let pending: Vec<(usize, Pending)> = span
                            .map(|i| (i, server.infer("mlp", images[i].clone()).expect("admit")))
                            .collect();
                        for (i, p) in pending {
                            let out = p.wait().expect("inference");
                            assert_eq!(
                                out.as_slice(),
                                &refs[i][..],
                                "request {i} got a foreign response \
                                 (max_batch {max_batch}, pool {pool_threads})"
                            );
                        }
                    });
                }
            });
            let stats = server.stats("mlp").expect("stats");
            assert_eq!(stats.completed, (THREADS * PER_THREAD) as u64);
            assert_eq!(stats.rejected, 0);
            assert_eq!(stats.failed, 0);
            assert!(stats.batches >= 1);
            assert!(
                stats.mean_batch <= max_batch as f64,
                "mean batch {} exceeds max_batch {max_batch}",
                stats.mean_batch
            );
        }
    }
}

#[test]
fn over_rate_burst_sheds_load_without_corrupting_in_flight_requests() {
    // A wider MLP so each batch takes the batcher long enough for a rapid
    // burst to fill the shallow admission queue deterministically.
    let mut rng = TensorRng::seed_from(3);
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc1", 256, 256, true, &mut rng));
    model.push(Relu::new());
    model.push(Linear::with_name("fc2", 256, 256, true, &mut rng));
    model.push(Relu::new());
    model.push(Linear::with_name("fc3", 256, 16, false, &mut rng));
    let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
        .with_input_shape(&[256])
        .quantize(&mut model)
        .expect("quantize wide mlp");

    const BURST: usize = 600;
    let images = unique_images(BURST, &[256], 4);
    let refs = references(&compiled, &images);

    let server = ModelServer::start(
        ServeConfig::default()
            .with_max_batch(16)
            .with_queue_depth(8)
            .with_threads(1),
    );
    server.load("wide", compiled).expect("load");
    let mut admitted: Vec<(usize, Pending)> = Vec::new();
    let mut overloaded = 0usize;
    for (i, image) in images.iter().enumerate() {
        match server.infer("wide", image.clone()) {
            Ok(p) => admitted.push((i, p)),
            Err(ServeError::Overloaded { queue_depth }) => {
                assert_eq!(queue_depth, 8);
                overloaded += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert!(overloaded > 0, "burst of {BURST} never overloaded depth 8");
    assert_eq!(admitted.len() + overloaded, BURST);
    for (i, p) in admitted {
        let out = p.wait().expect("admitted request completes");
        assert_eq!(out.as_slice(), &refs[i][..], "in-flight request {i}");
    }
    let stats = server.stats("wide").expect("stats");
    assert_eq!(stats.rejected, overloaded as u64);
    assert_eq!(stats.completed + stats.rejected, BURST as u64);
}

#[test]
fn hot_swap_serves_new_weights_and_keeps_counters() {
    let a1 = common::mlp_artifact(10);
    let a2 = common::mlp_artifact(20);
    let m1 = import_compiled(&a1).expect("import v1");
    let m2 = import_compiled(&a2).expect("import v2");
    let image = unique_images(1, &[12], 5).remove(0);
    let r1 = references(&m1, std::slice::from_ref(&image)).remove(0);
    let r2 = references(&m2, std::slice::from_ref(&image)).remove(0);
    assert_ne!(r1, r2, "fixtures must differ");

    let server = ModelServer::start(ServeConfig::default().with_threads(1));
    server.load_artifact("mlp", &a1).expect("load v1");
    let out = server.infer_blocking("mlp", image.clone()).expect("v1");
    assert_eq!(out.as_slice(), &r1[..]);
    // Hot swap: same name, new weights, counters persist.
    server.load_artifact("mlp", &a2).expect("swap to v2");
    let out = server.infer_blocking("mlp", image).expect("v2");
    assert_eq!(out.as_slice(), &r2[..]);
    let stats = server.stats("mlp").expect("stats");
    assert_eq!(stats.completed, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for any batching window and payload set, every response
    /// equals `run_plan` on its own input.
    #[test]
    fn batcher_preserves_request_response_pairing(
        max_batch in 1usize..9,
        seed in 0u64..1000,
    ) {
        let artifact = common::mlp_artifact(7);
        let compiled = import_compiled(&artifact).expect("import");
        let images = unique_images(12, &[12], seed);
        let refs = references(&compiled, &images);
        let server = ModelServer::start(
            ServeConfig::default()
                .with_max_batch(max_batch)
                .with_queue_depth(64)
                .with_threads(2),
        );
        server.load_artifact("mlp", &artifact).expect("load");
        let pending: Vec<Pending> = images
            .iter()
            .map(|img| server.infer("mlp", img.clone()).expect("admit"))
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            let out = p.wait().expect("inference");
            prop_assert_eq!(out.as_slice(), &refs[i][..]);
        }
    }
}
