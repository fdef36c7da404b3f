//! [`FleetServer`]: N serving replicas over heterogeneous simulated FPGA
//! devices, with one queue per replica; requests are placed in the
//! caller's thread.
//!
//! ```text
//! callers ── infer(name, image), placed in the calling thread:
//!    ▲         one request probes a due evicted replica; the rest go by
//!    │         router::place(cost_us × (queue_depth + 1)) over the
//!    │         healthy replicas, failing over down the ranking
//!    │            │ probe?           │ best healthy     │ failover
//!    │            ▼                  ▼                  ▼
//!    │       replica 0          replica 1     …    replica N-1
//!    │      (ModelServer       (ModelServer        (evicted —
//!    │       on 7Z045)          on ZU5CG)           skipped)
//!    └──── FleetPending::wait ◀─ the replica's own queue, batcher + engine
//! ```
//!
//! Each replica is a full [`ModelServer`] bound to its own
//! [`HardwareTarget`] (a device from the `FpgaDevice` catalog, typically):
//! the target prices the served plan through the cycle simulator once per
//! load, and [`FleetServer::infer`] hands each request straight to the
//! replica with the lowest estimated completion time — predicted
//! per-image device latency times (live queue depth + 1). The replica's
//! queue is the only one a request waits in, and its batcher drains it
//! without a timer ([`crate::batcher`]), so a lone request executes at
//! once while concurrent ones still batch together. Replica failures trip
//! a per-replica circuit breaker ([`crate::health`]): consecutive failures
//! evict, a timed half-open probe re-admits. Loading an artifact imports
//! it once and rolls the same `Arc<CompiledModel>` across the fleet
//! replica by replica, so the fleet compiles each model once; in-flight
//! requests finish on the weights they were admitted under (each
//! replica's swap lands on its next batch boundary), so a fleet-wide
//! hot-swap drops nothing.

use crate::error::ServeError;
use crate::health::{Health, HealthPolicy, HealthSnapshot};
use crate::metrics::ModelStats;
use crate::router;
use crate::server::{ModelServer, Pending, ServeConfig};
use mixmatch_quant::export::import_compiled;
use mixmatch_quant::pipeline::HardwareTarget;
use mixmatch_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Per-image cost assumed for a replica whose target cannot price the
/// model (µs) — keeps the router total-ordered instead of special-casing.
const DEFAULT_COST_US: f64 = 1_000.0;

/// One replica to be enrolled in a fleet: a display label plus the
/// hardware target that prices plans for the router.
pub struct ReplicaSpec {
    label: String,
    target: Box<dyn HardwareTarget>,
}

impl ReplicaSpec {
    /// A replica named `label` bound to `target`. The target is prepared
    /// once at enrollment (a bare `FpgaDevice` runs its design-space
    /// exploration here, not per request).
    pub fn new(label: impl Into<String>, target: impl HardwareTarget + 'static) -> Self {
        ReplicaSpec {
            label: label.into(),
            target: target.into_prepared(),
        }
    }
}

/// Fleet-level knobs. Per-replica serving knobs (engine batch size,
/// replica queue depth, worker threads) ride in [`FleetConfig::replica`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Knobs for each replica's own [`ModelServer`].
    pub replica: ServeConfig,
    /// Eviction/re-admission policy for every replica.
    pub health: HealthPolicy,
    /// How long a blocking caller (and the wire front end) waits for a
    /// reply before failing with [`ServeError::Timeout`].
    pub reply_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replica: ServeConfig::default(),
            health: HealthPolicy::default(),
            reply_timeout: Duration::from_secs(30),
        }
    }
}

impl FleetConfig {
    /// Sets every replica's [`ModelServer`] knobs.
    pub fn with_replica_config(mut self, replica: ServeConfig) -> Self {
        self.replica = replica;
        self
    }

    /// Sets the eviction/re-admission policy.
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Sets the blocking-caller reply timeout.
    pub fn with_reply_timeout(mut self, reply_timeout: Duration) -> Self {
        self.reply_timeout = reply_timeout;
        self
    }
}

/// One enrolled replica: its server, its pricing target, its breaker.
struct Replica {
    label: String,
    target: Box<dyn HardwareTarget>,
    server: ModelServer,
    /// Shared with every [`FleetPending`] placed here, which reports its
    /// outcome to it.
    health: Arc<Health>,
    /// Model name → predicted µs per image on this replica's device,
    /// refreshed at every (re)load.
    costs: RwLock<HashMap<String, f64>>,
}

impl Replica {
    fn cost_us(&self, model: &str) -> f64 {
        self.costs
            .read()
            .expect("costs poisoned")
            .get(model)
            .copied()
            .unwrap_or(DEFAULT_COST_US)
    }
}

/// Handle to one in-flight fleet request: the admitting replica's
/// [`Pending`]. Joining it also reports the outcome to that replica's
/// health cell.
#[derive(Debug)]
pub struct FleetPending {
    health: Arc<Health>,
    pending: Pending,
}

impl FleetPending {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Exactly what [`Pending::wait`] returns.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        settle(&self.health, self.pending.wait())
    }

    /// Blocks until the response arrives or `timeout` elapses, so a
    /// replica dying mid-batch cannot park the caller forever.
    ///
    /// # Errors
    ///
    /// Exactly what [`Pending::wait_timeout`] returns.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Tensor, ServeError> {
        settle(&self.health, self.pending.wait_timeout(timeout))
    }
}

/// Reports a joined result to the replica's breaker. Only replica faults
/// count against health — a caller's own bad payload
/// ([`ServeError::Inference`]) is not the replica's fault.
fn settle(health: &Health, result: Result<Tensor, ServeError>) -> Result<Tensor, ServeError> {
    match &result {
        Ok(_) => health.record_success(),
        Err(ServeError::Dropped) | Err(ServeError::Timeout { .. }) => {
            health.record_failure();
        }
        Err(_) => {}
    }
    result
}

/// Health/load/traffic snapshot for one replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaStats {
    /// The replica's enrollment label.
    pub label: String,
    /// Its hardware target's label (device + design ratio).
    pub target: String,
    /// Breaker state and eviction history.
    pub health: HealthSnapshot,
    /// Requests admitted to the replica but not yet answered.
    pub queue_depth: u64,
    /// Predicted per-image cost per model (router inputs), sorted by name.
    pub costs: Vec<ModelCost>,
    /// Per-model serving counters, sorted by name.
    pub models: Vec<ModelStats>,
}

/// The router's predicted cost for one model on one replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCost {
    /// The model name.
    pub model: String,
    /// Predicted device latency per image, microseconds.
    pub cost_per_image_us: f64,
}

/// Point-in-time fleet snapshot: one entry per replica, enrollment order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Per-replica snapshots.
    pub replicas: Vec<ReplicaStats>,
}

/// Multi-replica serving fleet. See the module docs for the dataflow.
pub struct FleetServer {
    config: FleetConfig,
    replicas: Vec<Replica>,
    /// Set by [`FleetServer::shutdown`]; `infer` refuses from then on.
    closed: AtomicBool,
}

impl FleetServer {
    /// Starts a fleet with one replica per spec. Panics on an empty spec
    /// list — a fleet of zero replicas can never serve.
    pub fn start(config: FleetConfig, specs: Vec<ReplicaSpec>) -> Self {
        assert!(!specs.is_empty(), "a fleet needs at least one replica");
        let replicas = specs
            .into_iter()
            .map(|spec| Replica {
                label: spec.label,
                target: spec.target,
                server: ModelServer::start(config.replica.clone()),
                health: Arc::new(Health::new(config.health.clone())),
                costs: RwLock::new(HashMap::new()),
            })
            .collect();
        FleetServer {
            config,
            replicas,
            closed: AtomicBool::new(false),
        }
    }

    /// The knobs this fleet runs with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of enrolled replicas (evicted ones included).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Restores a serialized `MMCM` artifact once and rolls it across the
    /// whole fleet under `name` — every replica shares the one imported
    /// model (and so its compiled GEMM plans), prices it on its own
    /// hardware target (the router's cost input), and hot-swaps at its
    /// next batch boundary. In-flight requests finish on the weights they
    /// were admitted under; nothing is dropped.
    ///
    /// # Errors
    ///
    /// Everything [`ModelServer::load_artifact`] rejects. The artifact
    /// bytes are imported (and so verified, once) before any replica
    /// swaps, so a malformed artifact cannot leave the fleet half-rolled.
    pub fn load_artifact(&self, name: &str, bytes: &[u8]) -> Result<(), ServeError> {
        let compiled = Arc::new(import_compiled(bytes)?);
        for replica in &self.replicas {
            let cost = compiled
                .predict_with(replica.target.as_ref(), 1)
                .map_or(DEFAULT_COST_US, |s| f64::from(s.latency_ms) * 1_000.0);
            replica.server.install(name, Arc::clone(&compiled));
            replica
                .costs
                .write()
                .expect("costs poisoned")
                .insert(name.to_string(), cost);
        }
        Ok(())
    }

    /// Places one image for `model` on a replica, in the calling thread,
    /// without blocking on the result. At most one request goes to an
    /// evicted replica whose re-admission probe is due; otherwise the
    /// healthy replicas are tried in [`router::place`] order, failing over
    /// on every admission refusal but [`ServeError::UnknownModel`].
    /// Replica faults count against the replica's breaker; backpressure
    /// ([`ServeError::Overloaded`]) does not.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] as the first replica tried answers it
    /// (`load_artifact` registers a name on every replica),
    /// [`ServeError::ShuttingDown`] after [`FleetServer::shutdown`],
    /// [`ServeError::Overloaded`] when every replica tried refused for
    /// backpressure, [`ServeError::NoReplica`] otherwise.
    pub fn infer(&self, model: &str, image: Tensor) -> Result<FleetPending, ServeError> {
        if self.closed.load(Ordering::Relaxed) {
            return Err(ServeError::ShuttingDown);
        }
        let admitted = Instant::now();
        // Claiming the probe moves that replica out of the healthy set, so
        // it is never ranked twice.
        let probe = self
            .replicas
            .iter()
            .position(|r| r.health.try_begin_probe());
        let candidates: Vec<router::Candidate> = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.health.is_healthy())
            .map(|(index, r)| router::Candidate {
                replica: index,
                cost_per_image_us: r.cost_us(model),
                queue_depth: r.server.queue_len(),
            })
            .collect();
        let ranked = router::place(&candidates)
            .into_iter()
            .map(|i| candidates[i].replica);
        let no_replica = || ServeError::NoReplica {
            model: model.to_string(),
        };
        // `Overloaded` only while every refusal so far was backpressure.
        let mut refusal = None;
        let mut image = image;
        for index in probe.into_iter().chain(ranked) {
            let replica = &self.replicas[index];
            match replica.server.infer_reclaim(model, image) {
                Ok(pending) => {
                    // Fleet admission → replica handoff is the `route`
                    // stage on the shared Prometheus page.
                    mixmatch_obs::Registry::global()
                        .histogram(
                            crate::metrics::STAGE_METRIC,
                            &[("model", model), ("stage", "route")],
                        )
                        .record(admitted.elapsed());
                    return Ok(FleetPending {
                        health: Arc::clone(&replica.health),
                        pending,
                    });
                }
                Err((error @ ServeError::UnknownModel { .. }, _)) => return Err(error),
                Err((error, returned)) => {
                    image = returned;
                    if matches!(error, ServeError::Overloaded { .. }) {
                        refusal.get_or_insert(error);
                    } else {
                        replica.health.record_failure();
                        refusal = Some(no_replica());
                    }
                }
            }
        }
        Err(refusal.unwrap_or_else(no_replica))
    }

    /// [`FleetServer::infer`] + [`FleetPending::wait_timeout`] at the
    /// configured [`FleetConfig::reply_timeout`].
    ///
    /// # Errors
    ///
    /// Everything either half can return.
    pub fn infer_blocking(&self, model: &str, image: Tensor) -> Result<Tensor, ServeError> {
        self.infer(model, image)?
            .wait_timeout(self.config.reply_timeout)
    }

    /// The fleet snapshot: per-replica health, load, costs and counters.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            replicas: self
                .replicas
                .iter()
                .map(|r| {
                    let mut costs: Vec<ModelCost> = r
                        .costs
                        .read()
                        .expect("costs poisoned")
                        .iter()
                        .map(|(model, &cost_per_image_us)| ModelCost {
                            model: model.clone(),
                            cost_per_image_us,
                        })
                        .collect();
                    costs.sort_by(|a, b| a.model.cmp(&b.model));
                    let mut models = r.server.all_stats();
                    models.sort_by(|a, b| a.model.cmp(&b.model));
                    ReplicaStats {
                        label: r.label.clone(),
                        target: r.target.label(),
                        health: r.health.snapshot(),
                        queue_depth: r.server.queue_len(),
                        costs,
                        models,
                    }
                })
                .collect(),
        }
    }

    /// Fault injection (tests, chaos drills): tears replica `index`'s
    /// server down. Its queued requests drain to completion first; every
    /// placement attempted afterwards fails, so the breaker evicts it
    /// while the rest of the fleet keeps serving. Returns `false` for an
    /// out-of-range index.
    pub fn kill_replica(&self, index: usize) -> bool {
        match self.replicas.get(index) {
            Some(replica) => {
                replica.server.shutdown();
                true
            }
            None => false,
        }
    }

    /// Stops fleet admission, then drains every replica and joins its
    /// batcher thread. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::Relaxed);
        for replica in &self.replicas {
            replica.server.shutdown();
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthState;
    use mixmatch_nn::quantize::QuantLayerDesc;
    use mixmatch_quant::export::export_compiled;
    use mixmatch_quant::graph::ExecutionPlan;
    use mixmatch_quant::msq::MsqPolicy;
    use mixmatch_quant::pipeline::{HardwareSummary, QuantPipeline};
    use mixmatch_tensor::TensorRng;

    /// A stub target whose only job is a fixed per-image latency — the
    /// fleet never needs a real device to route.
    struct FixedLatency {
        label: &'static str,
        latency_ms: f32,
    }

    impl HardwareTarget for FixedLatency {
        fn label(&self) -> String {
            self.label.to_string()
        }

        fn derive_policy(&self) -> MsqPolicy {
            MsqPolicy::msq_half()
        }

        fn summarize_plan(
            &self,
            layers: &[QuantLayerDesc],
            _plan: &ExecutionPlan,
            _batch: usize,
        ) -> Option<HardwareSummary> {
            if layers.is_empty() {
                return None;
            }
            Some(HardwareSummary {
                device: self.label.to_string(),
                ratio_label: "1:1".into(),
                gops: 1.0,
                latency_ms: self.latency_ms,
                pe_utilization: 1.0,
                lut: 0.0,
                ff: 0.0,
                bram36: 0.0,
                dsp: 0.0,
                lut_utilization: 0.0,
            })
        }
    }

    fn mlp_artifact(seed: u64) -> Vec<u8> {
        let mut rng = TensorRng::seed_from(seed);
        let mut model = mixmatch_nn::module::Sequential::new();
        model.push(mixmatch_nn::layers::Linear::with_name(
            "fc1", 6, 8, true, &mut rng,
        ));
        model.push(mixmatch_nn::layers::Linear::with_name(
            "fc2", 8, 3, false, &mut rng,
        ));
        let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_input_shape(&[6])
            .quantize(&mut model)
            .expect("quantize fixture");
        export_compiled(&compiled).expect("export fixture")
    }

    fn two_replica_fleet(config: FleetConfig) -> FleetServer {
        FleetServer::start(
            config,
            vec![
                ReplicaSpec::new(
                    "r0",
                    FixedLatency {
                        label: "fast",
                        latency_ms: 0.1,
                    },
                ),
                ReplicaSpec::new(
                    "r1",
                    FixedLatency {
                        label: "slow",
                        latency_ms: 0.4,
                    },
                ),
            ],
        )
    }

    #[test]
    fn fleet_serves_and_prices_replicas_from_their_targets() {
        let fleet = two_replica_fleet(
            FleetConfig::default().with_replica_config(ServeConfig::default().with_threads(1)),
        );
        fleet
            .load_artifact("mlp", &mlp_artifact(1))
            .expect("roll artifact");
        let stats = fleet.stats();
        assert_eq!(stats.replicas.len(), 2);
        assert!((stats.replicas[0].costs[0].cost_per_image_us - 100.0).abs() < 1e-3);
        assert!((stats.replicas[1].costs[0].cost_per_image_us - 400.0).abs() < 1e-3);
        let mut rng = TensorRng::seed_from(2);
        let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
        let out = fleet.infer_blocking("mlp", image).expect("infer");
        assert_eq!(out.dims(), &[3]);
        let total: u64 = fleet
            .stats()
            .replicas
            .iter()
            .flat_map(|r| r.models.iter())
            .map(|m| m.completed)
            .sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn unknown_model_and_shutdown_are_typed() {
        let fleet = two_replica_fleet(FleetConfig::default());
        let err = fleet.infer("ghost", Tensor::zeros(&[6])).unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));
        fleet
            .load_artifact("mlp", &mlp_artifact(3))
            .expect("roll artifact");
        fleet.shutdown();
        let err = fleet.infer("mlp", Tensor::zeros(&[6])).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn killed_replica_is_evicted_and_the_fleet_keeps_answering() {
        let fleet = two_replica_fleet(
            FleetConfig::default()
                .with_health(
                    HealthPolicy::default()
                        .with_evict_after(2)
                        .with_probe_after(Duration::from_secs(60)),
                )
                .with_replica_config(ServeConfig::default().with_threads(1)),
        );
        fleet
            .load_artifact("mlp", &mlp_artifact(4))
            .expect("roll artifact");
        assert!(fleet.kill_replica(0));
        assert!(!fleet.kill_replica(9));
        let mut rng = TensorRng::seed_from(5);
        for _ in 0..6 {
            let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
            let out = fleet.infer_blocking("mlp", image).expect("failover");
            assert_eq!(out.dims(), &[3]);
        }
        let stats = fleet.stats();
        assert_eq!(stats.replicas[0].health.state, HealthState::Evicted);
        assert_eq!(stats.replicas[1].health.state, HealthState::Healthy);
        let survivor: u64 = stats.replicas[1].models.iter().map(|m| m.completed).sum();
        assert_eq!(survivor, 6);
    }

    #[test]
    fn a_request_no_replica_admits_fails_at_admission() {
        let fleet = two_replica_fleet(FleetConfig::default());
        fleet
            .load_artifact("mlp", &mlp_artifact(7))
            .expect("roll artifact");
        assert!(fleet.kill_replica(0));
        assert!(fleet.kill_replica(1));
        let err = fleet.infer("mlp", Tensor::zeros(&[6])).unwrap_err();
        assert_eq!(
            err,
            ServeError::NoReplica {
                model: "mlp".into()
            }
        );
    }

    #[test]
    fn malformed_artifact_rolls_nothing() {
        let fleet = two_replica_fleet(FleetConfig::default());
        let mut bytes = mlp_artifact(6);
        bytes.truncate(bytes.len() / 2);
        assert!(fleet.load_artifact("mlp", &bytes).is_err());
        assert!(fleet
            .stats()
            .replicas
            .iter()
            .all(|r| r.models.is_empty() && r.costs.is_empty()));
    }
}
