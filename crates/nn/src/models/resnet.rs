//! Residual networks (CIFAR-style ResNet family, including ResNet-18 shape).

use crate::layers::{BatchNorm2d, Conv2d, FakeQuant, FakeQuantConfig, GlobalAvgPool, Linear, Relu};
use crate::module::{Layer, Param};
use crate::quantize::{QuantLayerDesc, QuantizableModel};
use mixmatch_tensor::im2col::ConvGeometry;
use mixmatch_tensor::{Tensor, TensorRng};

/// Configuration of a [`ResNet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Input channels (3 for RGB).
    pub in_channels: usize,
    /// Stem width; stage widths are `base_width · 2^stage`.
    pub base_width: usize,
    /// Residual blocks per stage.
    pub blocks_per_stage: Vec<usize>,
    /// Output classes.
    pub num_classes: usize,
    /// When set, activations (network input and every block output) pass
    /// through fixed-point [`FakeQuant`] layers of this bit-width, giving the
    /// paper's W/A = m/n regime.
    pub act_bits: Option<u32>,
}

impl ResNetConfig {
    /// ResNet-18-style configuration: four stages of two basic blocks.
    pub fn resnet18(num_classes: usize) -> Self {
        ResNetConfig {
            in_channels: 3,
            base_width: 64,
            blocks_per_stage: vec![2, 2, 2, 2],
            num_classes,
            act_bits: None,
        }
    }

    /// A small ResNet for CPU-feasible quantization experiments: three stages
    /// of one block at width 8 (≈ 30k parameters). Same block structure as
    /// ResNet-18, scaled down.
    pub fn mini(num_classes: usize) -> Self {
        ResNetConfig {
            in_channels: 3,
            base_width: 8,
            blocks_per_stage: vec![1, 1, 1],
            num_classes,
            act_bits: None,
        }
    }

    /// Returns this configuration with activation quantization enabled.
    pub fn with_act_bits(mut self, bits: u32) -> Self {
        self.act_bits = Some(bits);
        self
    }
}

/// Basic residual block: two 3×3 convs with BN/ReLU and an identity or
/// 1×1-projection shortcut.
struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    cached_pre_relu: Option<Tensor>,
}

impl BasicBlock {
    fn new(name: &str, in_ch: usize, out_ch: usize, stride: usize, rng: &mut TensorRng) -> Self {
        let conv1 = Conv2d::with_geometry(
            &format!("{name}.conv1"),
            ConvGeometry::new(in_ch, out_ch, 3, stride, 1),
            false,
            rng,
        );
        let conv2 = Conv2d::with_geometry(
            &format!("{name}.conv2"),
            ConvGeometry::new(out_ch, out_ch, 3, 1, 1),
            false,
            rng,
        );
        let shortcut = (stride != 1 || in_ch != out_ch).then(|| {
            (
                Conv2d::with_geometry(
                    &format!("{name}.downsample"),
                    ConvGeometry::new(in_ch, out_ch, 1, stride, 0),
                    false,
                    rng,
                ),
                BatchNorm2d::with_name(&format!("{name}.bn_down"), out_ch),
            )
        });
        BasicBlock {
            conv1,
            bn1: BatchNorm2d::with_name(&format!("{name}.bn1"), out_ch),
            relu1: Relu::new(),
            conv2,
            bn2: BatchNorm2d::with_name(&format!("{name}.bn2"), out_ch),
            shortcut,
            cached_pre_relu: None,
        }
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut main = self.conv1.forward(input, train);
        main = self.bn1.forward(&main, train);
        main = self.relu1.forward(&main, train);
        main = self.conv2.forward(&main, train);
        main = self.bn2.forward(&main, train);
        let residual = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(input, train);
                bn.forward(&s, train)
            }
            None => input.clone(),
        };
        let pre_relu = &main + &residual;
        if train {
            self.cached_pre_relu = Some(pre_relu.clone());
        }
        pre_relu.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let pre = self
            .cached_pre_relu
            .take()
            .expect("BasicBlock::backward without cached forward");
        let g = grad_output.zip(&pre, |go, p| if p > 0.0 { go } else { 0.0 });
        // Main branch.
        let mut gm = self.bn2.backward(&g);
        gm = self.conv2.backward(&gm);
        gm = self.relu1.backward(&gm);
        gm = self.bn1.backward(&gm);
        let gx_main = self.conv1.backward(&gm);
        // Shortcut branch.
        let gx_short = match &mut self.shortcut {
            Some((conv, bn)) => {
                let gs = bn.backward(&g);
                conv.backward(&gs)
            }
            None => g,
        };
        &gx_main + &gx_short
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = Vec::new();
        v.extend(self.conv1.params());
        v.extend(self.bn1.params());
        v.extend(self.conv2.params());
        v.extend(self.bn2.params());
        if let Some((c, b)) = &self.shortcut {
            v.extend(c.params());
            v.extend(b.params());
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = Vec::new();
        v.extend(self.conv1.params_mut());
        v.extend(self.bn1.params_mut());
        v.extend(self.conv2.params_mut());
        v.extend(self.bn2.params_mut());
        if let Some((c, b)) = &mut self.shortcut {
            v.extend(c.params_mut());
            v.extend(b.params_mut());
        }
        v
    }
}

/// A residual classification network on `[B, C, H, W]` images producing
/// `[B, classes]` logits.
///
/// # Example
///
/// ```
/// use mixmatch_nn::models::{ResNet, ResNetConfig};
/// use mixmatch_nn::module::Layer;
/// use mixmatch_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut net = ResNet::new(ResNetConfig::mini(10), &mut rng);
/// let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
/// assert_eq!(net.forward(&x, false).dims(), &[2, 10]);
/// ```
pub struct ResNet {
    input_quant: Option<FakeQuant>,
    stem_conv: Conv2d,
    stem_bn: BatchNorm2d,
    stem_relu: Relu,
    /// One per block plus one after the stem, present when `act_bits` is set.
    act_quants: Vec<FakeQuant>,
    blocks: Vec<BasicBlock>,
    pool: GlobalAvgPool,
    fc: Linear,
    config: ResNetConfig,
}

impl ResNet {
    /// Builds the network described by `config`.
    ///
    /// # Panics
    ///
    /// Panics when `blocks_per_stage` is empty.
    pub fn new(config: ResNetConfig, rng: &mut TensorRng) -> Self {
        assert!(
            !config.blocks_per_stage.is_empty(),
            "ResNet needs at least one stage"
        );
        let stem_conv = Conv2d::with_geometry(
            "stem",
            ConvGeometry::new(config.in_channels, config.base_width, 3, 1, 1),
            false,
            rng,
        );
        let stem_bn = BatchNorm2d::with_name("stem.bn", config.base_width);
        let mut blocks = Vec::new();
        let mut in_ch = config.base_width;
        for (stage, &n) in config.blocks_per_stage.iter().enumerate() {
            let out_ch = config.base_width << stage;
            for b in 0..n {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                blocks.push(BasicBlock::new(
                    &format!("stage{stage}.block{b}"),
                    in_ch,
                    out_ch,
                    stride,
                    rng,
                ));
                in_ch = out_ch;
            }
        }
        let fc = Linear::with_name("fc", in_ch, config.num_classes, true, rng);
        let (input_quant, act_quants) = match config.act_bits {
            Some(bits) => {
                let n = blocks.len() + 1;
                let mut fq = FakeQuantConfig::act4();
                fq.bits = bits;
                (
                    Some(FakeQuant::new(FakeQuantConfig::signed_bits(bits))),
                    (0..n).map(|_| FakeQuant::new(fq)).collect(),
                )
            }
            None => (None, Vec::new()),
        };
        ResNet {
            input_quant,
            stem_conv,
            stem_bn,
            stem_relu: Relu::new(),
            act_quants,
            blocks,
            pool: GlobalAvgPool::new(),
            fc,
            config,
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &ResNetConfig {
        &self.config
    }
}

impl Layer for ResNet {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = match &mut self.input_quant {
            Some(q) => q.forward(input, train),
            None => input.clone(),
        };
        x = self.stem_conv.forward(&x, train);
        x = self.stem_bn.forward(&x, train);
        x = self.stem_relu.forward(&x, train);
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
        g = self.stem_relu.backward(&g);
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

impl QuantizableModel for ResNet {
    fn model_params(&self) -> Vec<&Param> {
        self.params()
    }

    fn model_params_mut(&mut self) -> Vec<&mut Param> {
        self.params_mut()
    }

    fn quantizable_layers(&self) -> Vec<QuantLayerDesc> {
        let mut v = vec![QuantLayerDesc::for_conv(&self.stem_conv)];
        for b in &self.blocks {
            v.push(QuantLayerDesc::for_conv(&b.conv1));
            v.push(QuantLayerDesc::for_conv(&b.conv2));
            if let Some((conv, _)) = &b.shortcut {
                v.push(QuantLayerDesc::for_conv(conv));
            }
        }
        v.extend(QuantLayerDesc::for_param(self.fc.weight()));
        v
    }

    /// Lowers the residual dataflow: stem conv → ReLU, then per block
    /// `conv1 → ReLU → conv2` joined to the (possibly projected) shortcut
    /// by a residual add and a trailing ReLU, finished by global average
    /// pooling, flatten and the classifier GEMM. Batch-norm is skipped on
    /// the integer path (folding is future work); a `Requantize` step
    /// follows the stem and each block when the model was built with
    /// `act_bits`, mirroring its `FakeQuant` layers.
    fn lower(&self) -> Option<crate::lower::LoweredGraph> {
        use crate::lower::{ActKind, GraphBuilder, PoolKind};
        let mut g = GraphBuilder::new();
        let mut x = g.input();
        x = g.conv(self.stem_conv.weight().name(), x);
        x = g.activation(ActKind::Relu, x);
        if !self.act_quants.is_empty() {
            x = g.requantize(x);
        }
        for b in &self.blocks {
            let block_in = x;
            let mut y = g.conv(b.conv1.weight().name(), block_in);
            y = g.activation(ActKind::Relu, y);
            y = g.conv(b.conv2.weight().name(), y);
            let shortcut = match &b.shortcut {
                Some((conv, _)) => g.conv(conv.weight().name(), block_in),
                None => block_in,
            };
            x = g.residual_add(y, shortcut);
            x = g.activation(ActKind::Relu, x);
            if !self.act_quants.is_empty() {
                x = g.requantize(x);
            }
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
    fn mini_resnet_shapes() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = ResNet::new(ResNetConfig::mini(10), &mut rng);
        let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
        let y = net.forward(&x, false);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn resnet18_has_expected_block_count() {
        let mut rng = TensorRng::seed_from(1);
        let net = ResNet::new(
            ResNetConfig {
                in_channels: 3,
                base_width: 4, // tiny width, real 18-layer depth
                blocks_per_stage: vec![2, 2, 2, 2],
                num_classes: 10,
                act_bits: None,
            },
            &mut rng,
        );
        assert_eq!(net.blocks.len(), 8);
        // 8 blocks × 2 convs + 3 downsample convs + stem + fc = 21 weighted
        // layers; count weight params (conv weights + fc weight).
        let weights = net
            .params()
            .iter()
            .filter(|p| p.name().ends_with(".weight"))
            .count();
        assert_eq!(weights, 8 * 2 + 3 + 1 + 1);
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut rng = TensorRng::seed_from(2);
        let mut net = ResNet::new(ResNetConfig::mini(4), &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let y = net.forward(&x, true);
        let (_, grad) = cross_entropy(&y, &[0, 1]);
        let gx = net.backward(&grad);
        assert_eq!(gx.dims(), x.dims());
        assert!(gx.norm() > 0.0);
    }

    #[test]
    fn quantized_activation_mode_trains() {
        let mut rng = TensorRng::seed_from(9);
        let mut net = ResNet::new(ResNetConfig::mini(4).with_act_bits(4), &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let y = net.forward(&x, true);
        let (_, g) = cross_entropy(&y, &[0, 1]);
        let gx = net.backward(&g);
        assert_eq!(gx.dims(), x.dims());
        // Clip thresholds must have calibrated away from the initial 1.0
        // default or stayed finite.
        assert!(net.act_quants.iter().all(|q| q.clip_value() > 0.0));
    }

    #[test]
    fn one_sgd_step_reduces_loss_on_fixed_batch() {
        let mut rng = TensorRng::seed_from(3);
        let mut net = ResNet::new(ResNetConfig::mini(4), &mut rng);
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
