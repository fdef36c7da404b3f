//! # mixmatch-serve
//!
//! Async model server with **dynamic request batching** over compiled
//! execution plans — the serving layer that turns independent single-image
//! requests into the large batches where `BatchEngine`'s throughput lives.
//!
//! The paper's accelerator (and its software twin, the
//! [`BatchEngine`](mixmatch_quant::engine::BatchEngine)) loads a model's
//! weights once and streams each frame through its GEMM cores as it
//! arrives; per-call setup amortises across a batch, so batches beat
//! single images on throughput. Real traffic arrives one image at a time,
//! though. [`ModelServer`] serves both cases:
//!
//! * a **registry** of named [`CompiledModel`]s, loadable from serialized
//!   `MMCM` artifacts and hot-swappable behind an `Arc` swap,
//! * a **bounded admission queue** — a full queue rejects with
//!   [`ServeError::Overloaded`] instead of growing an unbounded backlog,
//! * a **dynamic batcher** that, whenever the engine comes free, drains
//!   every queued request (up to `max_batch`) without a timer and drives
//!   `BatchEngine::run_plan_batch` on the shared process-wide worker pool:
//!   a lone request runs at once, and batches grow under load because
//!   requests queue while a batch executes,
//! * per-request **reply channels + ids**, so a response can never reach a
//!   neighboring caller, and
//! * per-model **latency/throughput counters** (p50/p95/p99/p99.9 from a
//!   fixed-bucket histogram; no wall-clock reads in the hot path beyond
//!   the two `Instant` stamps).
//!
//! On top of the single server sits the **fleet layer** ([`fleet`]): N
//! replicas, each a full [`ModelServer`] bound to its own simulated FPGA
//! [`HardwareTarget`](mixmatch_quant::pipeline::HardwareTarget), with one
//! queue per replica; requests are placed in the caller's thread, by
//! predicted device cost × live queue depth ([`router`]). The fleet evicts
//! failing replicas through a per-replica circuit breaker ([`health`]) and
//! speaks a hand-rolled length-prefixed TCP protocol ([`wire`]) so callers
//! on real sockets get bit-identical answers and typed errors.
//!
//! [`CompiledModel`]: mixmatch_quant::pipeline::CompiledModel
//!
//! # Example
//!
//! ```
//! use mixmatch_serve::{ModelServer, ServeConfig};
//! use mixmatch_quant::msq::MsqPolicy;
//! use mixmatch_quant::pipeline::QuantPipeline;
//! use mixmatch_nn::layers::Linear;
//! use mixmatch_nn::module::Sequential;
//! use mixmatch_tensor::{Tensor, TensorRng};
//!
//! // Quantize a model (any pipeline output with a compiled plan works).
//! let mut rng = TensorRng::seed_from(0);
//! let mut model = Sequential::new();
//! model.push(Linear::with_name("fc", 8, 4, true, &mut rng));
//! let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
//!     .with_input_shape(&[8])
//!     .quantize(&mut model)
//!     .expect("quantize");
//!
//! // Serve it: submit asynchronously, join the handle for the logits.
//! let server = ModelServer::start(ServeConfig::default().with_max_batch(8));
//! server.load("mlp", compiled).expect("load");
//! let pending = server.infer("mlp", Tensor::zeros(&[8])).expect("admit");
//! let logits = pending.wait().expect("inference");
//! assert_eq!(logits.dims(), &[4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod error;
pub mod fleet;
pub mod health;
pub mod metrics;
pub mod router;
pub mod server;
pub mod wire;

pub use error::ServeError;
pub use fleet::{
    FleetConfig, FleetPending, FleetServer, FleetStats, ModelCost, ReplicaSpec, ReplicaStats,
};
pub use health::{Health, HealthPolicy, HealthSnapshot, HealthState};
pub use metrics::{LatencyHistogram, ModelStats, StageStats};
pub use server::{ModelServer, Pending, ServeConfig};
pub use wire::{FleetClient, WireServer};
