//! Model-side quantization interface: [`QuantizableModel`].
//!
//! The paper's pipeline treats a network as a list of GEMM-lowered weight
//! matrices (conv filters row-per-output-channel, linear weights, recurrent
//! `W_ih`/`W_hh`). `mixmatch-quant`'s `QuantPipeline` consumes that list
//! uniformly for every model family; this module defines the descriptor
//! type and the trait models implement to expose it, keeping `mixmatch-nn`
//! free of any dependency on the quantization crate.

use crate::layers::Conv2d;
use crate::module::{Layer, Param, Sequential};
use mixmatch_tensor::im2col::ConvGeometry;
use mixmatch_tensor::Tensor;

/// What kind of GEMM operand a quantizable layer is — determines its
/// deployment form (plain integer matrix vs im2col-driven convolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantLayerKind {
    /// A linear / fully-connected weight (`[out, in]`).
    Dense,
    /// A dense convolution in GEMM form (`[Cout, Cin·k·k]`).
    Conv(ConvGeometry),
    /// A depthwise convolution (`groups == channels`, one row per channel).
    DepthwiseConv(ConvGeometry),
    /// A recurrent cell matrix (`W_ih` / `W_hh`), applied once per time step.
    Recurrent,
}

/// Descriptor of one quantizable weight matrix.
///
/// `name` is the parameter's dotted path (`"stage0.block0.conv1.weight"`),
/// the key joining training-time reports to deployment forms.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLayerDesc {
    /// Parameter name of the weight.
    pub name: String,
    /// Weight-matrix rows (output channels / units).
    pub rows: usize,
    /// Weight-matrix columns (reduction length).
    pub cols: usize,
    /// Operand kind.
    pub kind: QuantLayerKind,
}

impl QuantLayerDesc {
    /// Descriptor for a convolution layer, dense or depthwise according to
    /// its geometry.
    pub fn for_conv(conv: &Conv2d) -> Self {
        let geom = *conv.geometry();
        let kind = if geom.groups == 1 {
            QuantLayerKind::Conv(geom)
        } else {
            QuantLayerKind::DepthwiseConv(geom)
        };
        QuantLayerDesc {
            name: conv.weight().name().to_string(),
            rows: geom.out_channels,
            cols: geom.gemm_k(),
            kind,
        }
    }

    /// Descriptor derived from a bare parameter, when no structural
    /// information is available: recurrent matrices by name suffix,
    /// everything else dense. Returns `None` for non-quantizable parameters.
    pub fn for_param(param: &Param) -> Option<Self> {
        if !is_quantizable(param) {
            return None;
        }
        let name = param.name().to_string();
        let kind = if name.ends_with(".w_ih") || name.ends_with(".w_hh") {
            QuantLayerKind::Recurrent
        } else {
            QuantLayerKind::Dense
        };
        Some(QuantLayerDesc {
            rows: param.value.dims()[0],
            cols: param.value.dims()[1],
            name,
            kind,
        })
    }

    /// The convolution geometry, when the layer is a convolution.
    pub fn geometry(&self) -> Option<&ConvGeometry> {
        match &self.kind {
            QuantLayerKind::Conv(g) | QuantLayerKind::DepthwiseConv(g) => Some(g),
            _ => None,
        }
    }
}

/// Should this parameter be quantized? Rank-2 weights of GEMM-lowered layers
/// — conv/linear `.weight`, recurrent `.w_ih`/`.w_hh` — excluding embeddings
/// (table lookups, not GEMM operands on the accelerator). This is the single
/// source of truth: `mixmatch_quant::admm::default_target_filter` delegates
/// here, so descriptors and training-time reports line up one-to-one.
pub fn is_quantizable(param: &Param) -> bool {
    let name = param.name();
    let is_weight = name.ends_with(".weight") || name.ends_with(".w_ih") || name.ends_with(".w_hh");
    is_weight && param.value.shape().rank() == 2 && !name.starts_with("embedding")
}

/// Inference-mode batched forward for any [`Layer`]-backed model: the float
/// software twin of the integer engine's batched execution
/// (`mixmatch_quant::engine::BatchEngine`). Models implementing
/// [`QuantizableModel`] use this to fulfil
/// [`QuantizableModel::forward_batch`].
pub fn layer_forward_batch<M: Layer + ?Sized>(model: &mut M, inputs: &[Tensor]) -> Vec<Tensor> {
    inputs.iter().map(|x| model.forward(x, false)).collect()
}

/// Derives descriptors from a flat parameter list (the fallback used by the
/// trait's default implementation and by [`Sequential`]).
pub fn descs_from_params(params: &[&Param]) -> Vec<QuantLayerDesc> {
    params
        .iter()
        .filter_map(|p| QuantLayerDesc::for_param(p))
        .collect()
}

/// A model whose quantizable GEMM layers can be enumerated uniformly —
/// the surface `QuantPipeline` drives for ResNet, MobileNet, YOLO and the
/// RNN families alike.
///
/// `model_params` / `model_params_mut` mirror [`crate::module::Layer`]'s
/// accessors under different names so that models which are not `Layer`s
/// (the token-driven RNNs) can still participate, and so that implementing
/// both traits never creates method ambiguity.
pub trait QuantizableModel {
    /// All trainable parameters, in a stable order.
    fn model_params(&self) -> Vec<&Param>;

    /// Mutable access to the same parameters, same order.
    fn model_params_mut(&mut self) -> Vec<&mut Param>;

    /// Descriptors of every quantizable layer. The default derives them from
    /// the parameter list (no conv geometry); structured models override to
    /// attach geometries so convolutions deploy through the im2col path.
    fn quantizable_layers(&self) -> Vec<QuantLayerDesc> {
        descs_from_params(&self.model_params())
    }

    /// Batched float forward in inference mode — `Some(outputs)` with one
    /// output per input, or `None` for models without a single-tensor
    /// forward (the token-driven RNN families). Feed-forward models
    /// override via [`layer_forward_batch`].
    fn forward_batch(&mut self, inputs: &[Tensor]) -> Option<Vec<Tensor>> {
        let _ = inputs;
        None
    }

    /// Lowers the model into the dataflow graph the compiled integer
    /// `ExecutionPlan` is built from (see [`crate::lower`]): a
    /// topologically-ordered step list covering convolutions, GEMMs,
    /// pooling, residual adds, activations, flatten and requantization.
    /// `None` for models the plan compiler cannot express (the token-driven
    /// RNN families); the structured CNN families and [`Sequential`]
    /// override this.
    fn lower(&self) -> Option<crate::lower::LoweredGraph> {
        None
    }
}

impl QuantizableModel for Sequential {
    fn model_params(&self) -> Vec<&Param> {
        crate::module::Layer::params(self)
    }

    fn model_params_mut(&mut self) -> Vec<&mut Param> {
        crate::module::Layer::params_mut(self)
    }

    fn forward_batch(&mut self, inputs: &[Tensor]) -> Option<Vec<Tensor>> {
        Some(layer_forward_batch(self, inputs))
    }

    fn lower(&self) -> Option<crate::lower::LoweredGraph> {
        self.lower_graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::module::Layer;
    use mixmatch_tensor::{Tensor, TensorRng};

    #[test]
    fn param_descriptors_classify_by_name() {
        let wih = Param::new("lstm0.w_ih", Tensor::zeros(&[16, 4]));
        let desc = QuantLayerDesc::for_param(&wih).expect("recurrent weight");
        assert_eq!(desc.kind, QuantLayerKind::Recurrent);
        assert_eq!((desc.rows, desc.cols), (16, 4));
        let emb = Param::new("embedding.weight", Tensor::zeros(&[10, 4]));
        assert!(QuantLayerDesc::for_param(&emb).is_none());
        let bias = Param::new("fc.bias", Tensor::zeros(&[4]));
        assert!(QuantLayerDesc::for_param(&bias).is_none());
    }

    #[test]
    fn conv_descriptors_carry_geometry() {
        let mut rng = TensorRng::seed_from(0);
        let conv = Conv2d::with_geometry("stem", ConvGeometry::new(3, 8, 3, 1, 1), false, &mut rng);
        let desc = QuantLayerDesc::for_conv(&conv);
        assert_eq!(desc.name, "stem.weight");
        assert_eq!((desc.rows, desc.cols), (8, 27));
        assert!(matches!(desc.kind, QuantLayerKind::Conv(_)));
        let dw = Conv2d::with_geometry("dw", ConvGeometry::depthwise(4, 3, 1, 1), false, &mut rng);
        assert!(matches!(
            QuantLayerDesc::for_conv(&dw).kind,
            QuantLayerKind::DepthwiseConv(_)
        ));
    }

    #[test]
    fn sequential_forward_batch_matches_per_input_forward() {
        let mut rng = TensorRng::seed_from(2);
        let mut net = Sequential::new();
        net.push(Linear::with_name("a", 4, 6, true, &mut rng));
        net.push(crate::layers::Relu::new());
        net.push(Linear::with_name("b", 6, 2, false, &mut rng));
        let inputs: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[1, 4], &mut rng)).collect();
        let batched = QuantizableModel::forward_batch(&mut net, &inputs).expect("feed-forward");
        assert_eq!(batched.len(), 3);
        for (x, y) in inputs.iter().zip(&batched) {
            let single = net.forward(x, false);
            assert_eq!(y.as_slice(), single.as_slice());
        }
    }

    #[test]
    fn sequential_enumerates_linear_weights() {
        let mut rng = TensorRng::seed_from(1);
        let mut net = Sequential::new();
        net.push(Linear::with_name("a", 4, 8, true, &mut rng));
        net.push(Linear::with_name("b", 8, 2, false, &mut rng));
        let descs = net.quantizable_layers();
        assert_eq!(descs.len(), 2);
        assert_eq!(descs[0].name, "a.weight");
        assert_eq!(descs[1].kind, QuantLayerKind::Dense);
        assert_eq!(net.model_params().len(), net.params().len());
    }
}
