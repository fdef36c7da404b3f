//! # mixmatch
//!
//! Facade crate for the **Mix and Match** reproduction — an FPGA-centric
//! deep-neural-network quantization framework (HPCA 2021).
//!
//! The paper's contribution is reproduced across five crates, re-exported
//! here:
//!
//! | Module | Crate | What it holds |
//! |---|---|---|
//! | [`tensor`] | `mixmatch-tensor` | dense tensors, GEMM, im2col, stats |
//! | [`nn`] | `mixmatch-nn` | layers, CNN/RNN models, losses, optimizers, metrics |
//! | [`quant`] | `mixmatch-quant` | **the core**: SP2 scheme, MSQ row-wise mixing, ADMM+STE training, bit-exact integer kernels, [`QuantPipeline`](quant::QuantPipeline) |
//! | [`data`] | `mixmatch-data` | synthetic stand-ins for CIFAR/ImageNet/COCO/PTB/TIMIT/IMDB |
//! | [`fpga`] | `mixmatch-fpga` | device DB, resource cost model, heterogeneous-GEMM cycle simulator, DSE |
//! | [`serve`] | `mixmatch-serve` | async [`ModelServer`](serve::ModelServer): dynamic request batching, model registry, admission control, latency metrics; [`FleetServer`](serve::FleetServer): multi-replica routing over heterogeneous devices with a TCP wire protocol |
//! | [`obs`] | `mixmatch-obs` | observability: tracing spans with a chrome://tracing exporter, unified metrics [`Registry`](obs::Registry), Prometheus text exposition |
//!
//! # Quickstart
//!
//! The whole device-to-deployment loop is one pipeline: the FPGA's LUT/DSP
//! budget fixes the SP2:fixed ratio, the ratio drives row-wise MSQ
//! projection, and the result deploys as bit-exact integer kernels.
//!
//! ```
//! use mixmatch::prelude::*;
//!
//! // Build a small model (any QuantizableModel: ResNet, MobileNet, YOLO,
//! // the RNNs, or a plain Sequential).
//! let mut rng = TensorRng::seed_from(0);
//! let mut model = mixmatch::nn::module::Sequential::new();
//! model.push(mixmatch::nn::layers::Linear::with_name("fc1", 16, 32, true, &mut rng));
//! model.push(mixmatch::nn::layers::Linear::with_name("fc2", 32, 4, true, &mut rng));
//!
//! // Device → policy → projection → deployment artifact, in one chain.
//! let quantized = QuantPipeline::for_device(FpgaDevice::XC7Z045)
//!     .quantize(&mut model)
//!     .expect("quantize");
//!
//! // The XC7Z045 characterization yields the paper's 1:2 ratio (2/3 SP2).
//! let report = quantized.report();
//! let fc1 = quantized.layer("fc1.weight").expect("layer");
//! assert!((fc1.report.sp2_fraction() - 2.0 / 3.0).abs() < 0.05);
//! // ...and the report carries the cycle-simulator performance prediction.
//! assert!(report.hardware.expect("fpga summary").gops > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mixmatch_data as data;
pub use mixmatch_fpga as fpga;
pub use mixmatch_nn as nn;
pub use mixmatch_obs as obs;
pub use mixmatch_quant as quant;
pub use mixmatch_serve as serve;
pub use mixmatch_tensor as tensor;

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most common imports, for examples and downstream experiments.
pub mod prelude {
    pub use mixmatch_fpga::arch::AcceleratorConfig;
    pub use mixmatch_fpga::bridge::FpgaTarget;
    pub use mixmatch_fpga::device::FpgaDevice;
    pub use mixmatch_nn::module::{Layer, Param};
    pub use mixmatch_nn::quantize::{QuantLayerDesc, QuantLayerKind, QuantizableModel};
    pub use mixmatch_obs::{LatencyHistogram, Registry, Snapshot};
    pub use mixmatch_quant::admm::{AdmmConfig, AdmmQuantizer};
    pub use mixmatch_quant::error::QuantError;
    pub use mixmatch_quant::graph::ExecutionPlan;
    pub use mixmatch_quant::msq::MsqPolicy;
    pub use mixmatch_quant::pipeline::{
        CompiledModel, HardwareSummary, HardwareTarget, PipelineReport, QuantPipeline,
        QuantizedModel,
    };
    pub use mixmatch_quant::qat::QatConfig;
    pub use mixmatch_quant::rowwise::PartitionRatio;
    pub use mixmatch_quant::schemes::Scheme;
    pub use mixmatch_serve::{
        FleetClient, FleetConfig, FleetServer, FleetStats, HealthPolicy, HealthState, ModelServer,
        ModelStats, Pending, ReplicaSpec, ServeConfig, ServeError, WireServer,
    };
    pub use mixmatch_tensor::{Tensor, TensorRng};
}
