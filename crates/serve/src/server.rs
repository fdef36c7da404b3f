//! [`ModelServer`]: the async serving front end over compiled models.
//!
//! ```text
//! callers ── infer(name, image) ──▶ bounded queue ──▶ batcher thread
//!    ▲                              (admission:        │ drain queued
//!    │                               Overloaded        │ ≤ max_batch
//!    └── Pending::wait ◀── reply ◀── when full)        ▼
//!                                              BatchEngine::run_plan_batch
//!                                              (WorkerPool::global())
//! ```
//!
//! One batcher thread owns the queue: it blocks for the first request,
//! drains whatever else is already queued into a batch, without a timer
//! (per [`crate::batcher::coalesce`]), groups the batch by model, and
//! drives each group through `BatchEngine::run_plan_batch`. A lone request
//! runs at once; under load, requests queue while a batch executes and
//! ride the engine's batched throughput together. Every request carries
//! its own reply channel plus a server-unique id, so responses can never
//! cross callers; correctness is pinned by `tests/serving.rs`
//! (bit-identical to `run_plan` on the caller's own input, under
//! concurrent load).

use crate::batcher::coalesce;
use crate::error::ServeError;
use crate::metrics::{ModelMetrics, ModelStats};
use mixmatch_quant::engine::BatchEngine;
use mixmatch_quant::error::QuantError;
use mixmatch_quant::export::import_compiled;
use mixmatch_quant::pipeline::CompiledModel;
use mixmatch_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// The registry shares `CompiledModel`s across the batcher and every caller;
// this compiles only because `HardwareTarget: Send + Sync`.
const _: fn() = || {
    fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<CompiledModel>();
};

/// Serving knobs. `max_batch` caps one drain of the queue at the engine's
/// sweet spot (batch 32); tune `queue_depth` against the acceptable
/// overload backlog.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch handed to the engine (≥ 1).
    pub max_batch: usize,
    /// Bounded admission-queue depth; a full queue rejects with
    /// [`ServeError::Overloaded`] instead of growing the backlog.
    pub queue_depth: usize,
    /// Worker threads for a private engine pool, or `None` for the shared
    /// process-wide `WorkerPool::global()` (the default — never a second
    /// per-core thread set).
    pub threads: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            queue_depth: 256,
            threads: None,
        }
    }
}

impl ServeConfig {
    /// Sets the largest engine batch (clamped to ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the bounded admission-queue depth (clamped to ≥ 1).
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Pins a private engine pool with `threads` workers (tests and
    /// pinned-parallelism runs).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

/// One registry slot: the hot-swappable artifact plus the name's counters.
/// Requests resolve the entry at admission, then read the `Arc` at batch
/// time — a swap lands on the next batch boundary without disturbing
/// requests already grouped against the old weights.
struct ModelEntry {
    compiled: RwLock<Arc<CompiledModel>>,
    metrics: ModelMetrics,
}

/// One admitted request, queued for the batcher.
struct Request {
    id: u64,
    entry: Arc<ModelEntry>,
    image: Tensor,
    admitted: Instant,
    reply: mpsc::Sender<Reply>,
}

/// A request minus its payload: what the batcher needs to route and meter
/// the reply after the image has been moved into the engine batch.
struct RequestMeta {
    id: u64,
    admitted: Instant,
    reply: mpsc::Sender<Reply>,
}

impl Request {
    /// Splits the owned payload from the routing metadata.
    fn into_parts(self) -> (Tensor, RequestMeta) {
        (
            self.image,
            RequestMeta {
                id: self.id,
                admitted: self.admitted,
                reply: self.reply,
            },
        )
    }
}

/// The batcher's answer, routed back on the request's own channel.
struct Reply {
    id: u64,
    result: Result<Tensor, ServeError>,
}

/// Handle to one in-flight request. `infer` returns immediately; the
/// caller joins the result here (or polls with [`Pending::try_wait`]).
#[derive(Debug)]
pub struct Pending {
    id: u64,
    rx: mpsc::Receiver<Reply>,
}

impl Pending {
    /// The server-unique request id (what the reply is routed by).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::Inference`] when the engine rejected the request,
    /// [`ServeError::Dropped`] when the server was torn down first.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        match self.rx.recv() {
            Ok(reply) => {
                debug_assert_eq!(reply.id, self.id, "reply routed to the wrong caller");
                reply.result
            }
            Err(_) => Err(ServeError::Dropped),
        }
    }

    /// Blocks until the response arrives or `timeout` elapses — the guard
    /// against a replica dying mid-batch with the caller parked forever.
    /// Consumes the handle either way; a reply that arrives after the
    /// timeout lands in a closed channel and is discarded.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when the deadline passes first, plus
    /// everything [`Pending::wait`] can return.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Tensor, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => {
                debug_assert_eq!(reply.id, self.id, "reply routed to the wrong caller");
                reply.result
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::Timeout { waited: timeout }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Dropped),
        }
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&mut self) -> Option<Result<Tensor, ServeError>> {
        match self.rx.try_recv() {
            Ok(reply) => {
                debug_assert_eq!(reply.id, self.id, "reply routed to the wrong caller");
                Some(reply.result)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Dropped)),
        }
    }
}

/// Asynchronous model server: a registry of named [`CompiledModel`]s
/// served through a dynamic batcher. See the module docs for the dataflow.
pub struct ModelServer {
    config: ServeConfig,
    registry: Mutex<HashMap<String, Arc<ModelEntry>>>,
    /// Admission side of the bounded queue; `None` once shutdown started.
    queue: Mutex<Option<SyncSender<Request>>>,
    batcher: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
}

impl ModelServer {
    /// Starts a server (and its batcher thread) with the given knobs.
    pub fn start(config: ServeConfig) -> Self {
        let config = ServeConfig {
            max_batch: config.max_batch.max(1),
            queue_depth: config.queue_depth.max(1),
            ..config
        };
        let (tx, rx) = mpsc::sync_channel(config.queue_depth);
        let engine = match config.threads {
            Some(threads) => BatchEngine::with_threads(threads),
            None => BatchEngine::new(),
        };
        let max_batch = config.max_batch;
        let batcher = std::thread::Builder::new()
            .name("mixmatch-serve-batcher".into())
            .spawn(move || batcher_loop(&rx, &engine, max_batch))
            .expect("spawn batcher thread");
        ModelServer {
            config,
            registry: Mutex::new(HashMap::new()),
            queue: Mutex::new(Some(tx)),
            batcher: Mutex::new(Some(batcher)),
            next_id: AtomicU64::new(0),
        }
    }

    /// Starts a server with [`ServeConfig::default`].
    pub fn with_defaults() -> Self {
        Self::start(ServeConfig::default())
    }

    /// The knobs this server runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Registers `compiled` under `name`, hot-swapping atomically if the
    /// name is already serving: requests admitted before the swap finish on
    /// the old weights, every later batch reads the new `Arc`. Counters for
    /// the name persist across swaps. An `Arc` shared with other servers
    /// (a fleet's replicas) shares the model's lazily compiled GEMM plans
    /// too, so the model compiles once however many servers hold it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Inference`] ([`QuantError::NoLoweredGraph`]) when the
    /// artifact carries no execution plan — the batcher only runs plans.
    ///
    /// [`ServeError::Verification`] when the plan fails the static
    /// verifier against the model's layer table — the server never
    /// registers a model the engine could fault on mid-batch.
    pub fn load(
        &self,
        name: &str,
        compiled: impl Into<Arc<CompiledModel>>,
    ) -> Result<(), ServeError> {
        let compiled = compiled.into();
        let plan = compiled.require_plan()?;
        let report = mixmatch_quant::verify::verify(plan, &compiled.layer_descs());
        if !report.is_clean() {
            return Err(ServeError::Verification {
                report: report.to_string(),
            });
        }
        self.install(name, compiled);
        Ok(())
    }

    /// Registers an already-verified model under `name` (see
    /// [`ModelServer::load`] for the hot-swap semantics). The artifact
    /// paths land here: `import_compiled` verified the plan against the
    /// layer table it decoded, so it is not verified again.
    pub(crate) fn install(&self, name: &str, compiled: Arc<CompiledModel>) {
        let mut registry = self.registry.lock().expect("registry poisoned");
        match registry.get(name) {
            Some(entry) => {
                *entry.compiled.write().expect("entry poisoned") = compiled;
            }
            None => {
                registry.insert(
                    name.to_string(),
                    Arc::new(ModelEntry {
                        compiled: RwLock::new(compiled),
                        metrics: ModelMetrics::for_model(name),
                    }),
                );
            }
        }
    }

    /// Restores a serialized `MMCM` artifact (`export_compiled` bytes) and
    /// registers it under `name` — the deployment path: artifacts come off
    /// the wire or disk, never a live pipeline.
    ///
    /// # Errors
    ///
    /// [`ServeError::Inference`] ([`QuantError::Artifact`]) on a malformed
    /// artifact, [`ServeError::Verification`] when the bytes parse but the
    /// decoded plan fails the static verifier `import_compiled` runs.
    pub fn load_artifact(&self, name: &str, bytes: &[u8]) -> Result<(), ServeError> {
        self.install(name, Arc::new(import_compiled(bytes)?));
        Ok(())
    }

    /// Removes `name` from the registry. In-flight requests resolved
    /// against the entry still complete. Returns whether the name was
    /// registered.
    pub fn unload(&self, name: &str) -> bool {
        self.registry
            .lock()
            .expect("registry poisoned")
            .remove(name)
            .is_some()
    }

    /// Registered model names (unordered).
    pub fn models(&self) -> Vec<String> {
        self.registry
            .lock()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Submits one image for inference against `model`, without blocking on
    /// the result. Admission control runs here: an unknown name or a full
    /// queue fails synchronously and typed.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::Overloaded`],
    /// [`ServeError::ShuttingDown`].
    pub fn infer(&self, model: &str, image: Tensor) -> Result<Pending, ServeError> {
        self.infer_reclaim(model, image).map_err(|(e, _)| e)
    }

    /// [`ModelServer::infer`] that hands the image back on admission
    /// failure — what a fleet needs to fail a request over to another
    /// replica without cloning every payload up front.
    ///
    /// # Errors
    ///
    /// The same errors as [`ModelServer::infer`], paired with the
    /// unconsumed image.
    pub fn infer_reclaim(
        &self,
        model: &str,
        image: Tensor,
    ) -> Result<Pending, (ServeError, Tensor)> {
        let entry = match self
            .registry
            .lock()
            .expect("registry poisoned")
            .get(model)
            .cloned()
        {
            Some(entry) => entry,
            None => {
                return Err((
                    ServeError::UnknownModel {
                        model: model.to_string(),
                    },
                    image,
                ))
            }
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::channel();
        // Raise the gauge before enqueueing: the batcher's decrement in
        // `respond` must never observe a count this admission hasn't
        // contributed yet.
        entry.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let request = Request {
            id,
            entry: Arc::clone(&entry),
            image,
            admitted: Instant::now(),
            reply: reply_tx,
        };
        let queue = self.queue.lock().expect("queue poisoned");
        let tx = match queue.as_ref() {
            Some(tx) => tx,
            None => {
                entry.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
                return Err((ServeError::ShuttingDown, request.image));
            }
        };
        match tx.try_send(request) {
            Ok(()) => Ok(Pending { id, rx: reply_rx }),
            Err(TrySendError::Full(request)) => {
                entry.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
                entry.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err((
                    ServeError::Overloaded {
                        queue_depth: self.config.queue_depth,
                    },
                    request.image,
                ))
            }
            Err(TrySendError::Disconnected(request)) => {
                entry.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
                Err((ServeError::ShuttingDown, request.image))
            }
        }
    }

    /// Total requests admitted but not yet answered, across every
    /// registered model — the live load signal a fleet combines with
    /// per-device latency predictions when it places each request.
    pub fn queue_len(&self) -> u64 {
        self.registry
            .lock()
            .expect("registry poisoned")
            .values()
            .map(|e| e.metrics.in_flight.load(Ordering::Relaxed))
            .sum()
    }

    /// [`ModelServer::infer`] + [`Pending::wait`] in one call.
    ///
    /// # Errors
    ///
    /// Everything either half can return.
    pub fn infer_blocking(&self, model: &str, image: Tensor) -> Result<Tensor, ServeError> {
        self.infer(model, image)?.wait()
    }

    /// Counters for one model name.
    pub fn stats(&self, model: &str) -> Option<ModelStats> {
        self.registry
            .lock()
            .expect("registry poisoned")
            .get(model)
            .map(|e| e.metrics.snapshot(model))
    }

    /// Counters for every registered model (unordered).
    pub fn all_stats(&self) -> Vec<ModelStats> {
        self.registry
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, e)| e.metrics.snapshot(name))
            .collect()
    }

    /// Stops admission, drains every already-admitted request, and joins
    /// the batcher. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        // Dropping the sender ends the batcher's queue: it finishes the
        // buffered requests, then its blocking receive disconnects.
        drop(self.queue.lock().expect("queue poisoned").take());
        if let Some(handle) = self.batcher.lock().expect("batcher poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ModelServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The batcher thread: block for one request, drain the queued ones into
/// its batch, execute, repeat until the queue disconnects (shutdown) and
/// is fully drained.
fn batcher_loop(rx: &Receiver<Request>, engine: &BatchEngine, max_batch: usize) {
    while let Ok(first) = rx.recv() {
        let opened = Instant::now();
        let batch = coalesce(rx, first, max_batch);
        // The drain is a property of the whole batch, so its time is
        // attributed to each member.
        let batch_wait = opened.elapsed();
        execute_batch(engine, batch, batch_wait);
    }
}

/// Executes one coalesced batch: group by model entry (arrival order
/// preserved within a group), pre-validate each image against the plan so
/// one malformed request answers alone instead of poisoning its neighbors,
/// then run each group through the engine and route every output back by
/// id.
fn execute_batch(engine: &BatchEngine, batch: Vec<Request>, batch_wait: Duration) {
    // Group while preserving order; a serving batch holds few distinct
    // models, so a linear scan beats hashing the Arcs.
    let mut groups: Vec<(Arc<ModelEntry>, Vec<Request>)> = Vec::new();
    for request in batch {
        match groups
            .iter_mut()
            .find(|(entry, _)| Arc::ptr_eq(entry, &request.entry))
        {
            Some((_, members)) => members.push(request),
            None => groups.push((Arc::clone(&request.entry), vec![request])),
        }
    }
    for (entry, members) in groups {
        // The hot-swap point: one atomic Arc read per group.
        let compiled = Arc::clone(&entry.compiled.read().expect("entry poisoned"));
        let plan_dims = match compiled.require_plan() {
            Ok(plan) => plan.input_dims().to_vec(),
            // Unreachable through `load`, but a typed answer beats a panic.
            Err(e) => {
                for request in members {
                    respond(
                        &entry,
                        request.into_parts().1,
                        Err(ServeError::Inference(e.clone())),
                    );
                }
                continue;
            }
        };
        let (valid, invalid): (Vec<Request>, Vec<Request>) = members
            .into_iter()
            .partition(|r| r.image.dims() == plan_dims);
        for request in invalid {
            let got = request.image.dims().to_vec();
            respond(
                &entry,
                request.into_parts().1,
                Err(ServeError::Inference(QuantError::ShapeMismatch {
                    context: "serving request disagrees with the model's plan".into(),
                    expected: plan_dims.clone(),
                    got,
                })),
            );
        }
        if valid.is_empty() {
            continue;
        }
        // Move the images out of the requests — the batch is owned here, so
        // the engine reads the caller's buffers with zero payload copies.
        let (images, metas): (Vec<Tensor>, Vec<RequestMeta>) =
            valid.into_iter().map(Request::into_parts).unzip();
        entry.metrics.batches.fetch_add(1, Ordering::Relaxed);
        entry
            .metrics
            .batched_images
            .fetch_add(images.len() as u64, Ordering::Relaxed);
        // Lifecycle stages: how long each member sat admitted before its
        // batch started, the queue drain, and the engine wall time.
        let exec_start = Instant::now();
        for meta in &metas {
            entry
                .metrics
                .queue_wait
                .record(exec_start.saturating_duration_since(meta.admitted));
            entry.metrics.coalesce.record(batch_wait);
        }
        let span = mixmatch_obs::trace::span("serve", "execute_batch");
        let outcome = engine.run_plan_batch(&compiled, &images);
        drop(span);
        let exec_elapsed = exec_start.elapsed();
        for _ in &metas {
            entry.metrics.execute.record(exec_elapsed);
        }
        match outcome {
            Ok(run) => {
                for (meta, output) in metas.into_iter().zip(run.outputs) {
                    respond(&entry, meta, Ok(output));
                }
            }
            Err(e) => {
                for meta in metas {
                    respond(&entry, meta, Err(ServeError::Inference(e.clone())));
                }
            }
        }
    }
}

/// Routes one result back to its caller and settles the name's counters.
/// A caller that dropped its [`Pending`] just discards the send.
fn respond(entry: &ModelEntry, meta: RequestMeta, result: Result<Tensor, ServeError>) {
    entry.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    match &result {
        Ok(_) => {
            entry.metrics.latency.record(meta.admitted.elapsed());
            entry.metrics.completed.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            entry.metrics.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    let _ = meta.reply.send(Reply {
        id: meta.id,
        result,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixmatch_quant::msq::MsqPolicy;
    use mixmatch_quant::pipeline::QuantPipeline;
    use mixmatch_tensor::TensorRng;

    /// A tiny quantized MLP ([6] → [3]) with a compiled plan.
    fn mlp_model(seed: u64) -> CompiledModel {
        let mut rng = TensorRng::seed_from(seed);
        let mut model = mixmatch_nn::module::Sequential::new();
        model.push(mixmatch_nn::layers::Linear::with_name(
            "fc1", 6, 8, true, &mut rng,
        ));
        model.push(mixmatch_nn::layers::Relu::new());
        model.push(mixmatch_nn::layers::Linear::with_name(
            "fc2", 8, 3, false, &mut rng,
        ));
        QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_input_shape(&[6])
            .quantize(&mut model)
            .expect("quantize fixture")
    }

    #[test]
    fn infer_round_trips_through_the_batcher() {
        let server = ModelServer::start(ServeConfig::default().with_threads(1));
        // Stage histograms live in the process-global registry keyed by model
        // name, so this test needs a name no other test in the binary loads.
        server.load("mlp-roundtrip", mlp_model(1)).expect("load");
        let mut rng = TensorRng::seed_from(2);
        let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
        let out = server
            .infer_blocking("mlp-roundtrip", image)
            .expect("infer");
        assert_eq!(out.dims(), &[3]);
        let stats = server.stats("mlp-roundtrip").expect("stats");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.batches, 1);
        assert!(stats.p50 > Duration::ZERO);
        // Lifecycle stages were stamped exactly once for the one request.
        for stage in ["queue", "coalesce", "execute"] {
            assert_eq!(stats.stage(stage).expect("stage present").count, 1);
        }
    }

    #[test]
    fn unknown_model_and_shutdown_are_typed() {
        let server = ModelServer::with_defaults();
        let err = server.infer("ghost", Tensor::zeros(&[6])).unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));
        server.load("mlp", mlp_model(3)).expect("load");
        server.shutdown();
        let err = server.infer("mlp", Tensor::zeros(&[6])).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn malformed_request_fails_alone() {
        let server = ModelServer::start(ServeConfig::default().with_threads(1));
        server.load("mlp", mlp_model(4)).expect("load");
        let mut rng = TensorRng::seed_from(5);
        let good_img = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
        let good = server.infer("mlp", good_img).expect("admit good");
        let bad = server.infer("mlp", Tensor::zeros(&[5])).expect("admit bad");
        assert!(matches!(
            bad.wait(),
            Err(ServeError::Inference(QuantError::ShapeMismatch { .. }))
        ));
        assert_eq!(good.wait().expect("good survives").dims(), &[3]);
        let stats = server.stats("mlp").expect("stats");
        assert_eq!((stats.completed, stats.failed), (1, 1));
    }

    #[test]
    fn plan_free_model_is_rejected_at_load() {
        let compiled = mlp_model(6);
        let plan_free = CompiledModel::from_parts(compiled.into_model(), None);
        let server = ModelServer::with_defaults();
        assert!(matches!(
            server.load("mlp", plan_free),
            Err(ServeError::Inference(QuantError::NoLoweredGraph))
        ));
        assert!(server.models().is_empty());
    }

    #[test]
    fn wait_timeout_fails_typed_while_the_batch_is_held_open() {
        // Holding the entry's write lock parks the batcher at its hot-swap
        // read: the caller's timeout must fire first, typed.
        let server = ModelServer::start(ServeConfig::default().with_max_batch(32).with_threads(1));
        server.load("mlp", mlp_model(8)).expect("load");
        let entry = Arc::clone(&server.registry.lock().expect("registry poisoned")["mlp"]);
        let held = entry.compiled.write().expect("entry poisoned");
        let mut rng = TensorRng::seed_from(9);
        let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
        let pending = server.infer("mlp", image).expect("admit");
        assert_eq!(server.queue_len(), 1, "admitted request raises the gauge");
        assert_eq!(server.stats("mlp").expect("stats").queue_depth, 1);
        let err = pending
            .wait_timeout(Duration::from_millis(20))
            .expect_err("deadline fires first");
        assert!(matches!(err, ServeError::Timeout { .. }));
        // Shutdown drains the held batch; the late reply is discarded and
        // the gauge settles back to zero.
        drop(held);
        server.shutdown();
        assert_eq!(server.queue_len(), 0);
    }

    #[test]
    fn infer_reclaim_returns_the_image_on_admission_failure() {
        let server = ModelServer::with_defaults();
        let image = Tensor::zeros(&[6]);
        let (err, image) = server.infer_reclaim("ghost", image).unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));
        assert_eq!(image.dims(), &[6]);
        server.load("mlp", mlp_model(10)).expect("load");
        server.shutdown();
        let (err, image) = server.infer_reclaim("mlp", image).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        assert_eq!(image.dims(), &[6]);
    }

    #[test]
    fn unload_and_models_reflect_the_registry() {
        let server = ModelServer::with_defaults();
        server.load("a", mlp_model(7)).expect("load");
        assert_eq!(server.models(), vec!["a".to_string()]);
        assert!(server.unload("a"));
        assert!(!server.unload("a"));
        assert!(server.stats("a").is_none());
    }
}
