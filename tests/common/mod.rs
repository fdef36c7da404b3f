//! One-layer models for the plan-parity suites (`kernel_parity`,
//! `engine_batch`): a single conv or dense layer quantized through the
//! pipeline, so `run_plan` exercises exactly one GEMM step whose
//! interpreter (`forward_image` / `matvec`) the tests compare against.

use mixmatch::nn::layers::{Conv2d, Linear};
use mixmatch::nn::lower::{GraphBuilder, LoweredGraph};
use mixmatch::nn::module::Sequential;
use mixmatch::prelude::*;
use mixmatch::quant::deploy::QuantizedConv;
use mixmatch::quant::integer::ActQuantizer;
use mixmatch::quant::msq::MsqPolicy;
use mixmatch::quant::pipeline::DeployForm;
use mixmatch::tensor::im2col::ConvGeometry;

/// One `Conv2d` as a whole model, so `run_plan` exercises a single conv
/// step. A `Sequential` holding the same layer does not do: its default
/// descriptors carry no conv geometry, so compiling its plan fails with
/// `QuantError::Geometry` ("layer conv.weight is not a convolution").
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
