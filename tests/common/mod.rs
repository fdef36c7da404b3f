//! Shared fixtures for the integration suites:
//!
//! * one-layer models for the plan-parity suites (`kernel_parity`,
//!   `engine_batch`): a single conv or dense layer quantized through the
//!   pipeline, so `run_plan` exercises exactly one GEMM step whose
//!   interpreter (`forward_image` / `matvec`) the tests compare against;
//! * a small MLP and its `MMCM` artifact for the serving, fleet and wire
//!   suites, plus a byte-valid but unverifiable variant for the import
//!   and load trust boundaries (`artifact_fuzz`, `fleet`).
//!
//! Each suite uses a subset, so unused items are expected per binary.
#![allow(dead_code)]

use mixmatch::nn::layers::{Conv2d, Linear, Relu};
use mixmatch::nn::lower::{GraphBuilder, LoweredGraph};
use mixmatch::nn::module::Sequential;
use mixmatch::prelude::*;
use mixmatch::quant::deploy::QuantizedConv;
use mixmatch::quant::export::export_compiled;
use mixmatch::quant::graph::StepOp;
use mixmatch::quant::integer::ActQuantizer;
use mixmatch::quant::msq::MsqPolicy;
use mixmatch::quant::pipeline::DeployForm;
use mixmatch::tensor::im2col::ConvGeometry;

/// One `Conv2d` as a whole model, so `run_plan` exercises a single conv
/// step. A `Sequential` holding the same layer does not do: its default
/// descriptors carry no conv geometry, so compiling its plan fails with
/// `QuantError::Geometry` (`layer "conv.weight" is not a convolution`).
struct OneConv(Conv2d);

impl QuantizableModel for OneConv {
    fn model_params(&self) -> Vec<&Param> {
        self.0.params()
    }

    fn model_params_mut(&mut self) -> Vec<&mut Param> {
        self.0.params_mut()
    }

    fn quantizable_layers(&self) -> Vec<QuantLayerDesc> {
        vec![QuantLayerDesc::for_conv(&self.0)]
    }

    fn lower(&self) -> Option<LoweredGraph> {
        let mut g = GraphBuilder::new();
        let x = g.input();
        let y = g.conv(self.0.weight().name(), x);
        Some(g.finish(y))
    }
}

/// A random one-conv model quantized under `policy` and `act`, with its
/// plan compiled for `[in_channels, hw, hw]` images.
pub fn one_conv(
    geom: ConvGeometry,
    policy: MsqPolicy,
    act: ActQuantizer,
    hw: usize,
    rng: &mut TensorRng,
) -> CompiledModel {
    let mut model = OneConv(Conv2d::with_geometry("conv", geom, false, rng));
    QuantPipeline::from_policy(policy)
        .with_act_quantizer(act)
        .with_input_shape(&[geom.in_channels, hw, hw])
        .quantize(&mut model)
        .expect("quantize one-conv model")
}

/// The interpreter for `compiled`'s only layer.
pub fn conv_of(compiled: &CompiledModel) -> &QuantizedConv {
    match &compiled.layers()[0].form {
        DeployForm::Conv(conv) => conv,
        DeployForm::Matrix(_) => panic!("one-conv model deployed as a matrix"),
    }
}

/// A random one-`Linear` model (`cols` → `rows`) quantized under `policy`
/// and `act`, with its plan compiled for `[cols]` inputs.
pub fn one_dense(
    rows: usize,
    cols: usize,
    policy: MsqPolicy,
    act: ActQuantizer,
    rng: &mut TensorRng,
) -> CompiledModel {
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc", cols, rows, false, rng));
    QuantPipeline::from_policy(policy)
        .with_act_quantizer(act)
        .with_input_shape(&[cols])
        .quantize(&mut model)
        .expect("quantize one-dense model")
}

/// A small quantized MLP (`[12] → [10]`, through a 16-wide ReLU layer),
/// its plan compiled for `[12]` inputs.
pub fn mlp(seed: u64) -> CompiledModel {
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

/// [`mlp`] exported to an `MMCM` artifact — servers load it through the
/// same path deployments use.
pub fn mlp_artifact(seed: u64) -> Vec<u8> {
    export_compiled(&mlp(seed)).expect("export mlp")
}

/// An `MMCM` artifact that is byte-level valid but whose plan lies about
/// its GEMM outputs: a 12 → 16 → 10 MLP whose every `Gemm` step claims one
/// row too many, with the other steps' dims rewritten to keep the stream
/// structurally valid. `from_parts` without a layer table takes GEMM
/// outputs at face value, so it builds; checked against the packed layer
/// table, the plan fires `geom-gemm`.
pub fn unverifiable_mlp_artifact() -> Vec<u8> {
    let clean = mlp(1);
    let plan = clean.plan().expect("plan");
    let mut steps = plan.steps().to_vec();
    let mut dims_end: Vec<Vec<usize>> = vec![plan.input_dims().to_vec(); plan.buffer_count()];
    let mut sizes = vec![0usize; plan.buffer_count()];
    sizes[plan.input_buffer()] = plan.input_dims().iter().product();
    for s in &mut steps {
        match s.op {
            StepOp::Gemm { .. } => s.dims = vec![s.dims[0] + 1],
            _ => s.dims = dims_end[s.srcs[0]].clone(),
        }
        sizes[s.dst] = sizes[s.dst].max(s.dims.iter().product());
        dims_end[s.dst] = s.dims.clone();
    }
    let lying = ExecutionPlan::from_parts(
        plan.input_dims().to_vec(),
        dims_end[plan.output_buffer()].clone(),
        steps,
        sizes,
        plan.input_buffer(),
        plan.output_buffer(),
        None,
    )
    .expect("model-independent rules accept the lie");
    let tampered = CompiledModel::from_parts(clean.into_model(), Some(lying));
    export_compiled(&tampered).expect("export tampered mlp")
}
