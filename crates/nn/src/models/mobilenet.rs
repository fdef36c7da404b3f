//! MobileNet-v2-style network (inverted residual blocks with depthwise conv).

use crate::layers::{
    BatchNorm2d, Conv2d, FakeQuant, FakeQuantConfig, GlobalAvgPool, Linear, Relu6,
};
use crate::module::{Layer, Param};
use crate::quantize::{QuantLayerDesc, QuantizableModel};
use mixmatch_tensor::im2col::ConvGeometry;
use mixmatch_tensor::{Tensor, TensorRng};

/// Configuration of a [`MobileNetV2`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MobileNetConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Stem output width.
    pub stem_width: usize,
    /// Per block: `(expansion factor, output channels, stride)`.
    pub blocks: Vec<(usize, usize, usize)>,
    /// Output classes.
    pub num_classes: usize,
    /// When set, activations pass through fixed-point [`FakeQuant`] layers of
    /// this bit-width (the paper's W/A = m/n regime).
    pub act_bits: Option<u32>,
}

impl MobileNetConfig {
    /// A small MobileNet-v2 for CPU-feasible quantization experiments: four
    /// inverted-residual blocks with the canonical expand-depthwise-project
    /// structure.
    pub fn mini(num_classes: usize) -> Self {
        MobileNetConfig {
            in_channels: 3,
            stem_width: 8,
            blocks: vec![(1, 8, 1), (4, 12, 2), (4, 12, 1), (4, 16, 2)],
            num_classes,
            act_bits: None,
        }
    }

    /// Returns this configuration with activation quantization enabled.
    pub fn with_act_bits(mut self, bits: u32) -> Self {
        self.act_bits = Some(bits);
        self
    }

    /// The full MobileNet-v2 block table (for shape experiments; training it
    /// here is impractical on CPU).
    pub fn full(num_classes: usize) -> Self {
        let mut blocks = Vec::new();
        // (t, c, n, s) table from the MobileNet-v2 paper.
        for &(t, c, n, s) in &[
            (1usize, 16usize, 1usize, 1usize),
            (6, 24, 2, 2),
            (6, 32, 3, 2),
            (6, 64, 4, 2),
            (6, 96, 3, 1),
            (6, 160, 3, 2),
            (6, 320, 1, 1),
        ] {
            for i in 0..n {
                blocks.push((t, c, if i == 0 { s } else { 1 }));
            }
        }
        MobileNetConfig {
            in_channels: 3,
            stem_width: 32,
            blocks,
            num_classes,
            act_bits: None,
        }
    }
}

/// Inverted residual: 1×1 expand → 3×3 depthwise → 1×1 project (linear), with
/// a skip connection when stride is 1 and widths match.
struct InvertedResidual {
    expand: Option<(Conv2d, BatchNorm2d, Relu6)>,
    depthwise: Conv2d,
    dw_bn: BatchNorm2d,
    dw_act: Relu6,
    project: Conv2d,
    proj_bn: BatchNorm2d,
    use_skip: bool,
    cached_input: Option<Tensor>,
}

impl InvertedResidual {
    fn new(
        name: &str,
        in_ch: usize,
        expansion: usize,
        out_ch: usize,
        stride: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let hidden = in_ch * expansion;
        let expand = (expansion != 1).then(|| {
            (
                Conv2d::with_geometry(
                    &format!("{name}.expand"),
                    ConvGeometry::new(in_ch, hidden, 1, 1, 0),
                    false,
                    rng,
                ),
                BatchNorm2d::with_name(&format!("{name}.expand_bn"), hidden),
                Relu6::new(),
            )
        });
        let depthwise = Conv2d::with_geometry(
            &format!("{name}.dw"),
            ConvGeometry::depthwise(hidden, 3, stride, 1),
            false,
            rng,
        );
        let project = Conv2d::with_geometry(
            &format!("{name}.project"),
            ConvGeometry::new(hidden, out_ch, 1, 1, 0),
            false,
            rng,
        );
        InvertedResidual {
            expand,
            depthwise,
            dw_bn: BatchNorm2d::with_name(&format!("{name}.dw_bn"), hidden),
            dw_act: Relu6::new(),
            project,
            proj_bn: BatchNorm2d::with_name(&format!("{name}.proj_bn"), out_ch),
            use_skip: stride == 1 && in_ch == out_ch,
            cached_input: None,
        }
    }
}

impl Layer for InvertedResidual {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        if let Some((conv, bn, act)) = &mut self.expand {
            x = conv.forward(&x, train);
            x = bn.forward(&x, train);
            x = act.forward(&x, train);
        }
        x = self.depthwise.forward(&x, train);
        x = self.dw_bn.forward(&x, train);
        x = self.dw_act.forward(&x, train);
        x = self.project.forward(&x, train);
        x = self.proj_bn.forward(&x, train);
        if self.use_skip {
            if train {
                self.cached_input = Some(input.clone());
            }
            &x + input
        } else {
            x
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = self.proj_bn.backward(grad_output);
        g = self.project.backward(&g);
        g = self.dw_act.backward(&g);
        g = self.dw_bn.backward(&g);
        g = self.depthwise.backward(&g);
        if let Some((conv, bn, act)) = &mut self.expand {
            g = act.backward(&g);
            g = bn.backward(&g);
            g = conv.backward(&g);
        }
        if self.use_skip {
            self.cached_input = None;
            &g + grad_output
        } else {
            g
        }
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = Vec::new();
        if let Some((c, b, _)) = &self.expand {
            v.extend(c.params());
            v.extend(b.params());
        }
        v.extend(self.depthwise.params());
        v.extend(self.dw_bn.params());
        v.extend(self.project.params());
        v.extend(self.proj_bn.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = Vec::new();
        if let Some((c, b, _)) = &mut self.expand {
            v.extend(c.params_mut());
            v.extend(b.params_mut());
        }
        v.extend(self.depthwise.params_mut());
        v.extend(self.dw_bn.params_mut());
        v.extend(self.project.params_mut());
        v.extend(self.proj_bn.params_mut());
        v
    }
}

/// MobileNet-v2-style classifier on `[B, C, H, W]` images.
///
/// # Example
///
/// ```
/// use mixmatch_nn::models::{MobileNetV2, MobileNetConfig};
/// use mixmatch_nn::module::Layer;
/// use mixmatch_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut net = MobileNetV2::new(MobileNetConfig::mini(10), &mut rng);
/// let x = Tensor::randn(&[1, 3, 16, 16], &mut rng);
/// assert_eq!(net.forward(&x, false).dims(), &[1, 10]);
/// ```
pub struct MobileNetV2 {
    input_quant: Option<FakeQuant>,
    stem_conv: Conv2d,
    stem_bn: BatchNorm2d,
    stem_act: Relu6,
    act_quants: Vec<FakeQuant>,
    blocks: Vec<InvertedResidual>,
    pool: GlobalAvgPool,
    fc: Linear,
    config: MobileNetConfig,
}

impl MobileNetV2 {
    /// Builds the network described by `config`.
    ///
    /// # Panics
    ///
    /// Panics when the block table is empty.
    pub fn new(config: MobileNetConfig, rng: &mut TensorRng) -> Self {
        assert!(!config.blocks.is_empty(), "MobileNetV2 needs blocks");
        let stem_conv = Conv2d::with_geometry(
            "stem",
            ConvGeometry::new(config.in_channels, config.stem_width, 3, 1, 1),
            false,
            rng,
        );
        let mut blocks = Vec::new();
        let mut in_ch = config.stem_width;
        for (i, &(t, c, s)) in config.blocks.iter().enumerate() {
            blocks.push(InvertedResidual::new(
                &format!("block{i}"),
                in_ch,
                t,
                c,
                s,
                rng,
            ));
            in_ch = c;
        }
        let fc = Linear::with_name("fc", in_ch, config.num_classes, true, rng);
        let (input_quant, act_quants) = match config.act_bits {
            Some(bits) => {
                let n = blocks.len() + 1;
                // Block outputs come from a *linear* (signed) projection in
                // MobileNet-v2, so quantize them symmetrically.
                (
                    Some(FakeQuant::new(FakeQuantConfig::signed_bits(bits))),
                    (0..n)
                        .map(|_| FakeQuant::new(FakeQuantConfig::signed_bits(bits)))
                        .collect(),
                )
            }
            None => (None, Vec::new()),
        };
        MobileNetV2 {
            input_quant,
            stem_conv,
            stem_bn: BatchNorm2d::with_name("stem.bn", config.stem_width),
            stem_act: Relu6::new(),
            act_quants,
            blocks,
            pool: GlobalAvgPool::new(),
            fc,
            config,
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &MobileNetConfig {
        &self.config
    }
}

impl Layer for MobileNetV2 {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = match &mut self.input_quant {
            Some(q) => q.forward(input, train),
            None => input.clone(),
        };
        x = self.stem_conv.forward(&x, train);
        x = self.stem_bn.forward(&x, train);
        x = self.stem_act.forward(&x, train);
        if let Some(q) = self.act_quants.first_mut() {
            x = q.forward(&x, train);
        }
        for (i, b) in self.blocks.iter_mut().enumerate() {
            x = b.forward(&x, train);
            if let Some(q) = self.act_quants.get_mut(i + 1) {
                x = q.forward(&x, train);
            }
        }
        let pooled = self.pool.forward(&x, train);
        self.fc.forward(&pooled, train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = self.fc.backward(grad_output);
        g = self.pool.backward(&g);
        for (i, b) in self.blocks.iter_mut().enumerate().rev() {
            if let Some(q) = self.act_quants.get_mut(i + 1) {
                g = q.backward(&g);
            }
            g = b.backward(&g);
        }
        if let Some(q) = self.act_quants.first_mut() {
            g = q.backward(&g);
        }
        g = self.stem_act.backward(&g);
        g = self.stem_bn.backward(&g);
        g = self.stem_conv.backward(&g);
        match &mut self.input_quant {
            Some(q) => q.backward(&g),
            None => g,
        }
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = Vec::new();
        v.extend(self.stem_conv.params());
        v.extend(self.stem_bn.params());
        for b in &self.blocks {
            v.extend(b.params());
        }
        v.extend(self.fc.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = Vec::new();
        v.extend(self.stem_conv.params_mut());
        v.extend(self.stem_bn.params_mut());
        for b in &mut self.blocks {
            v.extend(b.params_mut());
        }
        v.extend(self.fc.params_mut());
        v
    }
}

impl QuantizableModel for MobileNetV2 {
    fn model_params(&self) -> Vec<&Param> {
        self.params()
    }

    fn model_params_mut(&mut self) -> Vec<&mut Param> {
        self.params_mut()
    }

    fn quantizable_layers(&self) -> Vec<QuantLayerDesc> {
        let mut v = vec![QuantLayerDesc::for_conv(&self.stem_conv)];
        for b in &self.blocks {
            if let Some((conv, _, _)) = &b.expand {
                v.push(QuantLayerDesc::for_conv(conv));
            }
            v.push(QuantLayerDesc::for_conv(&b.depthwise));
            v.push(QuantLayerDesc::for_conv(&b.project));
        }
        v.extend(QuantLayerDesc::for_param(self.fc.weight()));
        v
    }

    /// Lowers the inverted-residual dataflow: stem conv → ReLU6, then per
    /// block `expand → ReLU6 → depthwise → ReLU6 → project` (the project
    /// output is linear) with a residual add where the skip applies,
    /// finished by global average pooling, flatten and the classifier
    /// GEMM. Batch-norm is skipped on the integer path (folding is future
    /// work).
    fn lower(&self) -> Option<crate::lower::LoweredGraph> {
        use crate::lower::{ActKind, GraphBuilder, PoolKind};
        let mut g = GraphBuilder::new();
        let mut x = g.input();
        x = g.conv(self.stem_conv.weight().name(), x);
        x = g.activation(ActKind::Relu6, x);
        for b in &self.blocks {
            let block_in = x;
            let mut y = block_in;
            if let Some((conv, _, _)) = &b.expand {
                y = g.conv(conv.weight().name(), y);
                y = g.activation(ActKind::Relu6, y);
            }
            y = g.conv(b.depthwise.weight().name(), y);
            y = g.activation(ActKind::Relu6, y);
            y = g.conv(b.project.weight().name(), y);
            x = if b.use_skip {
                g.residual_add(y, block_in)
            } else {
                y
            };
        }
        x = g.pool(PoolKind::GlobalAvg, x);
        x = g.flatten(x);
        x = g.gemm(self.fc.weight().name(), x);
        Some(g.finish(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy;
    use crate::optim::Sgd;

    #[test]
    fn mini_shapes() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = MobileNetV2::new(MobileNetConfig::mini(10), &mut rng);
        let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
        assert_eq!(net.forward(&x, false).dims(), &[2, 10]);
    }

    #[test]
    fn full_config_has_17_blocks() {
        assert_eq!(MobileNetConfig::full(1000).blocks.len(), 17);
    }

    #[test]
    fn contains_depthwise_convs() {
        let mut rng = TensorRng::seed_from(1);
        let net = MobileNetV2::new(MobileNetConfig::mini(4), &mut rng);
        let dw = net
            .params()
            .iter()
            .filter(|p| p.name().contains(".dw."))
            .count();
        assert!(dw >= 4, "expected one depthwise weight per block");
    }

    #[test]
    fn skip_connection_used_when_shapes_match() {
        let mut rng = TensorRng::seed_from(2);
        let net = MobileNetV2::new(MobileNetConfig::mini(4), &mut rng);
        // Block 2 in mini config: (4, 12, 1) after a 12-wide block → skip.
        assert!(net.blocks[2].use_skip);
        assert!(!net.blocks[1].use_skip);
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let mut rng = TensorRng::seed_from(3);
        let mut net = MobileNetV2::new(MobileNetConfig::mini(4), &mut rng);
        let x = Tensor::randn(&[4, 3, 8, 8], &mut rng);
        let targets = [0usize, 1, 2, 3];
        let mut opt = Sgd::new(0.05);
        let y0 = net.forward(&x, true);
        let (l0, g) = cross_entropy(&y0, &targets);
        net.backward(&g);
        opt.step(&mut net.params_mut());
        net.zero_grad();
        let y1 = net.forward(&x, true);
        let (l1, _) = cross_entropy(&y1, &targets);
        assert!(l1 < l0, "loss should drop: {l0} -> {l1}");
    }
}
