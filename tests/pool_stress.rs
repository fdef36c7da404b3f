//! Stress test for the shared process-wide `WorkerPool`: many OS threads
//! submitting overlapping scoped runs concurrently — server batchers,
//! direct `BatchEngine` users and raw `pool.run` callers all at once — must
//! neither deadlock nor panic, and every computation must stay
//! bit-identical to its sequential reference.
//!
//! The whole stress runs under a watchdog thread with a generous timeout so
//! a regression that deadlocks the pool fails CI instead of hanging it.

use mixmatch::nn::layers::{Linear, Relu};
use mixmatch::nn::module::Sequential;
use mixmatch::prelude::*;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::tensor::pool::WorkerPool;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Generous bound for the whole stress; normal runtime is well under a
/// second, so tripping this means the pool hung.
const WATCHDOG: Duration = Duration::from_secs(120);

fn compiled_mlp(seed: u64) -> CompiledModel {
    let mut rng = TensorRng::seed_from(seed);
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc1", 10, 14, true, &mut rng));
    model.push(Relu::new());
    model.push(Linear::with_name("fc2", 14, 6, false, &mut rng));
    QuantPipeline::from_policy(MsqPolicy::msq_half())
        .with_input_shape(&[10])
        .quantize(&mut model)
        .expect("quantize mlp")
}

#[test]
fn overlapping_scoped_runs_on_the_global_pool_stay_correct() {
    let (done_tx, done_rx) = mpsc::channel();
    let stress = std::thread::spawn(move || {
        let compiled = Arc::new(compiled_mlp(1));
        let mut rng = TensorRng::seed_from(2);
        let images: Vec<Tensor> = (0..12)
            .map(|_| Tensor::rand_uniform(&[10], 0.0, 1.0, &mut rng))
            .collect();
        // Sequential reference on a single-thread private pool.
        let reference: Vec<Vec<f32>> = {
            let engine = BatchEngine::with_threads(1);
            images
                .iter()
                .map(|img| {
                    engine
                        .run_plan_batch(&compiled, std::slice::from_ref(img))
                        .expect("reference")
                        .outputs[0]
                        .as_slice()
                        .to_vec()
                })
                .collect()
        };

        const ENGINE_THREADS: usize = 4;
        const RAW_THREADS: usize = 3;
        const SERVER_THREADS: usize = 2;
        const ITERS: usize = 25;
        // One server whose batcher also drives the global pool, while the
        // engine/raw threads below compete for the same workers.
        let server = Arc::new(ModelServer::start(
            ServeConfig::default()
                .with_max_batch(4)
                .with_queue_depth(256),
        ));
        let compiled_for_server = compiled_mlp(1);
        server.load("mlp", compiled_for_server).expect("load");

        std::thread::scope(|scope| {
            // Direct BatchEngine users on the global pool.
            for _ in 0..ENGINE_THREADS {
                let compiled = Arc::clone(&compiled);
                let images = &images;
                let reference = &reference;
                scope.spawn(move || {
                    let engine = BatchEngine::new();
                    for _ in 0..ITERS {
                        let run = engine.run_plan_batch(&compiled, images).expect("batch");
                        for (out, expect) in run.outputs.iter().zip(reference) {
                            assert_eq!(out.as_slice(), &expect[..], "engine result drifted");
                        }
                    }
                });
            }
            // Raw scoped runs, including nested re-entrant fan-out.
            for t in 0..RAW_THREADS {
                scope.spawn(move || {
                    let pool = WorkerPool::global();
                    for i in 0..ITERS {
                        let mut slots = [0u64; 16];
                        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                            .iter_mut()
                            .enumerate()
                            .map(|(k, slot)| {
                                Box::new(move || {
                                    // Re-entrant: the task fans out again
                                    // through the same pool.
                                    let mut inner = [0u64; 3];
                                    let sub: Vec<Box<dyn FnOnce() + Send + '_>> = inner
                                        .iter_mut()
                                        .map(|s| {
                                            Box::new(move || *s = 1)
                                                as Box<dyn FnOnce() + Send + '_>
                                        })
                                        .collect();
                                    WorkerPool::global().run(sub);
                                    *slot = (t + i + k) as u64 + inner.iter().sum::<u64>();
                                }) as Box<dyn FnOnce() + Send + '_>
                            })
                            .collect();
                        pool.run(tasks);
                        for (k, v) in slots.iter().enumerate() {
                            assert_eq!(*v, (t + i + k) as u64 + 3, "raw task result drifted");
                        }
                    }
                });
            }
            // Server callers: async submit + join against the references.
            for _ in 0..SERVER_THREADS {
                let server = Arc::clone(&server);
                let images = &images;
                let reference = &reference;
                scope.spawn(move || {
                    for _ in 0..ITERS {
                        let pending: Vec<Pending> = images
                            .iter()
                            .map(|img| server.infer("mlp", img.clone()).expect("admit"))
                            .collect();
                        for (p, expect) in pending.into_iter().zip(reference) {
                            let out = p.wait().expect("inference");
                            assert_eq!(out.as_slice(), &expect[..], "served result drifted");
                        }
                    }
                });
            }
        });
        server.shutdown();
        done_tx.send(()).expect("report completion");
    });

    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) => stress.join().expect("stress thread panicked"),
        Err(_) => panic!("global-pool stress did not finish within {WATCHDOG:?} — deadlock?"),
    }
}
