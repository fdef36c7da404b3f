//! Grid-based fully-convolutional detector (YOLO-style).
//!
//! Table V quantizes YOLO-v3 on COCO. The trainable stand-in here is a
//! YOLO-style single-anchor grid detector: a small conv backbone with stride-2
//! downsampling and a 1×1 detection head predicting, per grid cell,
//! `(tx, ty, tw, th, objectness, class scores…)`. It exercises the same
//! quantization-relevant structure — a deep FCN whose output head is
//! sensitive to weight precision — while remaining trainable on CPU.

use crate::layers::{BatchNorm2d, Conv2d, FakeQuant, FakeQuantConfig, LeakyRelu, MaxPool2d};
use crate::metrics::DetBox;
use crate::module::{Layer, Param};
use crate::quantize::{QuantLayerDesc, QuantizableModel};
use mixmatch_tensor::im2col::ConvGeometry;
use mixmatch_tensor::{Tensor, TensorRng};

/// Configuration of a [`YoloDetector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YoloConfig {
    /// Input image edge (square). Must be divisible by `2^downsamples`.
    pub image_size: usize,
    /// Backbone widths; each stage ends with a 2× max-pool.
    pub widths: Vec<usize>,
    /// Number of object classes.
    pub num_classes: usize,
    /// When set, activations pass through fixed-point [`FakeQuant`] layers of
    /// this bit-width.
    pub act_bits: Option<u32>,
}

impl YoloConfig {
    /// A small detector for 32×32 synthetic scenes with `classes` classes.
    pub fn mini(num_classes: usize) -> Self {
        YoloConfig {
            image_size: 32,
            widths: vec![8, 16, 32],
            num_classes,
            act_bits: None,
        }
    }

    /// Returns this configuration with activation quantization enabled.
    pub fn with_act_bits(mut self, bits: u32) -> Self {
        self.act_bits = Some(bits);
        self
    }

    /// Grid edge: image size after all downsampling stages.
    pub fn grid(&self) -> usize {
        self.image_size >> self.widths.len()
    }

    /// Channels per cell: 5 box/objectness values plus class scores.
    pub fn cell_channels(&self) -> usize {
        5 + self.num_classes
    }
}

/// Ground-truth object for the YOLO loss, in normalised image coordinates
/// (`0..1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YoloTarget {
    /// Centre x in `[0, 1)`.
    pub cx: f32,
    /// Centre y in `[0, 1)`.
    pub cy: f32,
    /// Width in `(0, 1]`.
    pub w: f32,
    /// Height in `(0, 1]`.
    pub h: f32,
    /// Class id.
    pub class: usize,
}

/// Grid detector producing a `[B, 5+C, S, S]` raw prediction map.
pub struct YoloDetector {
    input_quant: Option<FakeQuant>,
    stages: Vec<(Conv2d, BatchNorm2d, LeakyRelu, MaxPool2d)>,
    act_quants: Vec<FakeQuant>,
    head: Conv2d,
    config: YoloConfig,
}

impl YoloDetector {
    /// Builds the detector.
    ///
    /// # Panics
    ///
    /// Panics when `image_size` is not divisible by `2^stages`.
    pub fn new(config: YoloConfig, rng: &mut TensorRng) -> Self {
        assert!(
            config.image_size.is_multiple_of(1 << config.widths.len()),
            "image size must be divisible by 2^stages"
        );
        let mut stages = Vec::new();
        let mut in_ch = 3;
        for (i, &w) in config.widths.iter().enumerate() {
            stages.push((
                Conv2d::with_geometry(
                    &format!("backbone{i}"),
                    ConvGeometry::new(in_ch, w, 3, 1, 1),
                    false,
                    rng,
                ),
                BatchNorm2d::with_name(&format!("backbone{i}.bn"), w),
                LeakyRelu::new(),
                MaxPool2d::new(2),
            ));
            in_ch = w;
        }
        let head = Conv2d::with_geometry(
            "head",
            ConvGeometry::new(in_ch, config.cell_channels(), 1, 1, 0),
            true,
            rng,
        );
        let (input_quant, act_quants) = match config.act_bits {
            Some(bits) => (
                Some(FakeQuant::new(FakeQuantConfig::signed_bits(bits))),
                // LeakyReLU outputs are signed.
                (0..config.widths.len())
                    .map(|_| FakeQuant::new(FakeQuantConfig::signed_bits(bits)))
                    .collect(),
            ),
            None => (None, Vec::new()),
        };
        YoloDetector {
            input_quant,
            stages,
            act_quants,
            head,
            config,
        }
    }

    /// The configuration the detector was built with.
    pub fn config(&self) -> &YoloConfig {
        &self.config
    }

    /// YOLO loss on raw predictions, returning `(loss, grad_wrt_raw)`.
    ///
    /// Responsible cells (those containing an object centre) incur box MSE,
    /// objectness BCE towards 1 and class cross-entropy; all other cells only
    /// incur objectness BCE towards 0.
    ///
    /// # Panics
    ///
    /// Panics when `raw` shape disagrees with the config or `targets.len()`
    /// differs from the batch size.
    pub fn loss(&self, raw: &Tensor, targets: &[Vec<YoloTarget>]) -> (f32, Tensor) {
        let s = self.config.grid();
        let cc = self.config.cell_channels();
        let b = raw.dims()[0];
        assert_eq!(raw.dims(), &[b, cc, s, s], "raw prediction shape mismatch");
        assert_eq!(targets.len(), b, "one target list per image");
        let nc = self.config.num_classes;
        let mut grad = Tensor::zeros(raw.dims());
        let mut loss = 0.0f32;
        let lambda_box = 5.0f32;
        let lambda_noobj = 0.5f32;
        let cells = s * s;
        let norm = (b * cells) as f32;
        let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
        // Map (batch, channel, cell) to flat index.
        let idx = |bi: usize, ch: usize, cy: usize, cx: usize| ((bi * cc + ch) * s + cy) * s + cx;
        // Mark responsible cells.
        for bi in 0..b {
            let mut responsible: Vec<Option<&YoloTarget>> = vec![None; cells];
            for t in &targets[bi] {
                let gx = ((t.cx * s as f32) as usize).min(s - 1);
                let gy = ((t.cy * s as f32) as usize).min(s - 1);
                responsible[gy * s + gx] = Some(t);
            }
            for cy in 0..s {
                for cx in 0..s {
                    let obj_raw = raw.as_slice()[idx(bi, 4, cy, cx)];
                    let obj = sigmoid(obj_raw);
                    match responsible[cy * s + cx] {
                        Some(t) => {
                            // Box terms: predicted offsets relative to cell.
                            let tx = t.cx * s as f32 - cx as f32;
                            let ty = t.cy * s as f32 - cy as f32;
                            let targets_box = [tx, ty, t.w, t.h];
                            for (ci, &tv) in targets_box.iter().enumerate() {
                                let pr_raw = raw.as_slice()[idx(bi, ci, cy, cx)];
                                let p = sigmoid(pr_raw);
                                let diff = p - tv;
                                loss += lambda_box * diff * diff / norm;
                                grad.as_mut_slice()[idx(bi, ci, cy, cx)] +=
                                    lambda_box * 2.0 * diff * p * (1.0 - p) / norm;
                            }
                            // Objectness towards 1 (BCE through the sigmoid).
                            let eps = 1e-6f32;
                            loss += -(obj.max(eps)).ln() / norm;
                            grad.as_mut_slice()[idx(bi, 4, cy, cx)] += (obj - 1.0) / norm;
                            // Class cross-entropy (softmax over class channels).
                            let mut mx = f32::NEG_INFINITY;
                            for c in 0..nc {
                                mx = mx.max(raw.as_slice()[idx(bi, 5 + c, cy, cx)]);
                            }
                            let mut denom = 0.0f32;
                            for c in 0..nc {
                                denom += (raw.as_slice()[idx(bi, 5 + c, cy, cx)] - mx).exp();
                            }
                            for c in 0..nc {
                                let p = (raw.as_slice()[idx(bi, 5 + c, cy, cx)] - mx).exp() / denom;
                                let y = if c == t.class { 1.0 } else { 0.0 };
                                if c == t.class {
                                    loss += -(p.max(1e-6)).ln() / norm;
                                }
                                grad.as_mut_slice()[idx(bi, 5 + c, cy, cx)] += (p - y) / norm;
                            }
                        }
                        None => {
                            // Objectness towards 0, down-weighted.
                            let eps = 1e-6f32;
                            loss += -lambda_noobj * ((1.0 - obj).max(eps)).ln() / norm;
                            grad.as_mut_slice()[idx(bi, 4, cy, cx)] += lambda_noobj * obj / norm;
                        }
                    }
                }
            }
        }
        (loss, grad)
    }

    /// Decodes raw predictions into boxes (normalised coordinates), applying
    /// an objectness threshold. The caller typically follows with
    /// [`crate::metrics::nms`].
    pub fn decode(&self, raw: &Tensor, obj_threshold: f32) -> Vec<Vec<DetBox>> {
        let s = self.config.grid();
        let cc = self.config.cell_channels();
        let b = raw.dims()[0];
        let nc = self.config.num_classes;
        let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
        let idx = |bi: usize, ch: usize, cy: usize, cx: usize| ((bi * cc + ch) * s + cy) * s + cx;
        let mut out = Vec::with_capacity(b);
        for bi in 0..b {
            let mut boxes = Vec::new();
            for cy in 0..s {
                for cx in 0..s {
                    let obj = sigmoid(raw.as_slice()[idx(bi, 4, cy, cx)]);
                    if obj < obj_threshold {
                        continue;
                    }
                    let px = sigmoid(raw.as_slice()[idx(bi, 0, cy, cx)]);
                    let py = sigmoid(raw.as_slice()[idx(bi, 1, cy, cx)]);
                    let pw = sigmoid(raw.as_slice()[idx(bi, 2, cy, cx)]);
                    let ph = sigmoid(raw.as_slice()[idx(bi, 3, cy, cx)]);
                    // Class argmax with softmax score.
                    let mut best_c = 0usize;
                    let mut best_v = f32::NEG_INFINITY;
                    for c in 0..nc {
                        let v = raw.as_slice()[idx(bi, 5 + c, cy, cx)];
                        if v > best_v {
                            best_v = v;
                            best_c = c;
                        }
                    }
                    let mut denom = 0.0f32;
                    for c in 0..nc {
                        denom += (raw.as_slice()[idx(bi, 5 + c, cy, cx)] - best_v).exp();
                    }
                    let cls_p = 1.0 / denom;
                    boxes.push(DetBox {
                        cx: (cx as f32 + px) / s as f32,
                        cy: (cy as f32 + py) / s as f32,
                        w: pw,
                        h: ph,
                        score: obj * cls_p,
                        class: best_c,
                    });
                }
            }
            out.push(boxes);
        }
        out
    }
}

impl Layer for YoloDetector {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = match &mut self.input_quant {
            Some(q) => q.forward(input, train),
            None => input.clone(),
        };
        for (i, (conv, bn, act, pool)) in self.stages.iter_mut().enumerate() {
            x = conv.forward(&x, train);
            x = bn.forward(&x, train);
            x = act.forward(&x, train);
            x = pool.forward(&x, train);
            if let Some(q) = self.act_quants.get_mut(i) {
                x = q.forward(&x, train);
            }
        }
        self.head.forward(&x, train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = self.head.backward(grad_output);
        for (i, (conv, bn, act, pool)) in self.stages.iter_mut().enumerate().rev() {
            if let Some(q) = self.act_quants.get_mut(i) {
                g = q.backward(&g);
            }
            g = pool.backward(&g);
            g = act.backward(&g);
            g = bn.backward(&g);
            g = conv.backward(&g);
        }
        match &mut self.input_quant {
            Some(q) => q.backward(&g),
            None => g,
        }
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = Vec::new();
        for (conv, bn, _, _) in &self.stages {
            v.extend(conv.params());
            v.extend(bn.params());
        }
        v.extend(self.head.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = Vec::new();
        for (conv, bn, _, _) in &mut self.stages {
            v.extend(conv.params_mut());
            v.extend(bn.params_mut());
        }
        v.extend(self.head.params_mut());
        v
    }
}

impl QuantizableModel for YoloDetector {
    fn model_params(&self) -> Vec<&Param> {
        self.params()
    }

    fn model_params_mut(&mut self) -> Vec<&mut Param> {
        self.params_mut()
    }

    fn quantizable_layers(&self) -> Vec<QuantLayerDesc> {
        let mut v: Vec<QuantLayerDesc> = self
            .stages
            .iter()
            .map(|(conv, _, _, _)| QuantLayerDesc::for_conv(conv))
            .collect();
        v.push(QuantLayerDesc::for_conv(&self.head));
        v
    }

    /// Lowers the detector dataflow: per backbone stage
    /// `conv → LeakyReLU → 2× max-pool`, then the 1×1 detection-head conv.
    /// The output is the raw `[5+C, S, S]` prediction map; batch-norm is
    /// skipped on the integer path (folding is future work).
    fn lower(&self) -> Option<crate::lower::LoweredGraph> {
        use crate::lower::{ActKind, GraphBuilder, PoolKind};
        let mut g = GraphBuilder::new();
        let mut x = g.input();
        for (conv, _, _, pool) in &self.stages {
            x = g.conv(conv.weight().name(), x);
            x = g.activation(ActKind::LeakyRelu, x);
            x = g.pool(
                PoolKind::Max {
                    window: pool.window(),
                },
                x,
            );
        }
        x = g.conv(self.head.weight().name(), x);
        Some(g.finish(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;

    #[test]
    fn output_grid_shape() {
        let mut rng = TensorRng::seed_from(0);
        let cfg = YoloConfig::mini(3);
        assert_eq!(cfg.grid(), 4);
        let mut net = YoloDetector::new(cfg, &mut rng);
        let x = Tensor::randn(&[2, 3, 32, 32], &mut rng);
        let y = net.forward(&x, false);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(1);
        let net = YoloDetector::new(YoloConfig::mini(2), &mut rng);
        let raw = Tensor::randn(&[1, 7, 4, 4], &mut rng);
        let targets = vec![vec![YoloTarget {
            cx: 0.3,
            cy: 0.6,
            w: 0.2,
            h: 0.25,
            class: 1,
        }]];
        let (_, grad) = net.loss(&raw, &targets);
        let h = 1e-2f32;
        for i in (0..raw.len()).step_by(7) {
            let mut rp = raw.clone();
            rp.as_mut_slice()[i] += h;
            let mut rm = raw.clone();
            rm.as_mut_slice()[i] -= h;
            let numeric = (net.loss(&rp, &targets).0 - net.loss(&rm, &targets).0) / (2.0 * h);
            let analytic = grad.as_slice()[i];
            let denom = analytic.abs().max(numeric.abs()).max(1e-3);
            assert!(
                (analytic - numeric).abs() / denom < 5e-2,
                "yolo loss grad mismatch at {i}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn decode_thresholds_objectness() {
        let mut rng = TensorRng::seed_from(2);
        let net = YoloDetector::new(YoloConfig::mini(2), &mut rng);
        // All raw zero → objectness sigmoid = 0.5.
        let raw = Tensor::zeros(&[1, 7, 4, 4]);
        assert_eq!(net.decode(&raw, 0.6)[0].len(), 0);
        assert_eq!(net.decode(&raw, 0.4)[0].len(), 16);
    }

    #[test]
    fn training_step_reduces_loss() {
        let mut rng = TensorRng::seed_from(3);
        let mut net = YoloDetector::new(YoloConfig::mini(2), &mut rng);
        let x = Tensor::randn(&[2, 3, 32, 32], &mut rng);
        let targets = vec![
            vec![YoloTarget {
                cx: 0.25,
                cy: 0.25,
                w: 0.3,
                h: 0.3,
                class: 0,
            }],
            vec![YoloTarget {
                cx: 0.7,
                cy: 0.7,
                w: 0.2,
                h: 0.4,
                class: 1,
            }],
        ];
        let mut opt = Sgd::new(0.5);
        let raw0 = net.forward(&x, true);
        let (l0, g) = net.loss(&raw0, &targets);
        net.backward(&g);
        opt.step(&mut net.params_mut());
        net.zero_grad();
        let raw1 = net.forward(&x, true);
        let (l1, _) = net.loss(&raw1, &targets);
        assert!(l1 < l0, "loss should drop: {l0} -> {l1}");
    }
}
