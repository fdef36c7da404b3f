//! Layer-level integer deployment.
//!
//! Bridges training-time layers to the hardware arithmetic: a trained,
//! MSQ-projected convolution or linear layer re-executes through
//! [`QuantizedMatrix`]'s integer kernels (im2col → shift/add / DSP-multiply
//! GEMM → per-row rescale), reproducing the float-quantized forward pass to
//! f32 rounding. This is the software twin of Figure 3's datapath for one
//! layer.

use crate::error::QuantError;
use crate::integer::{ActQuantizer, QuantizedMatrix};
use crate::msq::MsqPolicy;
use mixmatch_tensor::im2col::{im2col, ConvGeometry};
use mixmatch_tensor::Tensor;

/// A convolution layer in deployment form: integer weight codes + the
/// activation quantizer feeding it.
#[derive(Debug, Clone)]
pub struct QuantizedConv {
    geom: ConvGeometry,
    matrix: QuantizedMatrix,
    act: ActQuantizer,
}

impl QuantizedConv {
    /// Encodes a conv layer's GEMM-form weights (`[Cout, (Cin/g)·k·k]`)
    /// under `policy`, taking activations through `act`.
    ///
    /// # Panics
    ///
    /// Panics when the weight shape disagrees with `geom` or the geometry is
    /// grouped (depthwise deployment uses one matrix per group; see
    /// [`QuantizedConv::depthwise`]). The pipeline path uses the
    /// non-panicking [`QuantizedConv::try_new`].
    pub fn new(geom: ConvGeometry, weight: &Tensor, policy: &MsqPolicy, act: ActQuantizer) -> Self {
        Self::try_new(geom, weight, policy, act).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`QuantizedConv::new`].
    ///
    /// # Errors
    ///
    /// [`QuantError::Geometry`] for grouped geometries,
    /// [`QuantError::ShapeMismatch`] when the weight is not the geometry's
    /// GEMM form.
    pub fn try_new(
        geom: ConvGeometry,
        weight: &Tensor,
        policy: &MsqPolicy,
        act: ActQuantizer,
    ) -> Result<Self, QuantError> {
        if geom.groups != 1 {
            return Err(QuantError::Geometry {
                context: "use QuantizedConv::depthwise for groups".into(),
            });
        }
        Self::checked(geom, weight, policy, act)
    }

    /// Depthwise variant: each channel is a 1-row matrix; rows are stacked
    /// so the row index is the channel.
    ///
    /// # Panics
    ///
    /// Panics on a non-depthwise geometry or a shape mismatch; see
    /// [`QuantizedConv::try_depthwise`].
    pub fn depthwise(
        geom: ConvGeometry,
        weight: &Tensor,
        policy: &MsqPolicy,
        act: ActQuantizer,
    ) -> Self {
        Self::try_depthwise(geom, weight, policy, act).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`QuantizedConv::depthwise`].
    ///
    /// # Errors
    ///
    /// [`QuantError::Geometry`] unless `groups == in_channels`,
    /// [`QuantError::ShapeMismatch`] on a wrong weight shape.
    pub fn try_depthwise(
        geom: ConvGeometry,
        weight: &Tensor,
        policy: &MsqPolicy,
        act: ActQuantizer,
    ) -> Result<Self, QuantError> {
        if geom.groups != geom.in_channels {
            return Err(QuantError::Geometry {
                context: "depthwise geometry required".into(),
            });
        }
        Self::checked(geom, weight, policy, act)
    }

    fn checked(
        geom: ConvGeometry,
        weight: &Tensor,
        policy: &MsqPolicy,
        act: ActQuantizer,
    ) -> Result<Self, QuantError> {
        if weight.dims() != [geom.out_channels, geom.gemm_k()] {
            return Err(QuantError::ShapeMismatch {
                context: "weight must be in GEMM form".into(),
                expected: vec![geom.out_channels, geom.gemm_k()],
                got: weight.dims().to_vec(),
            });
        }
        Ok(QuantizedConv {
            geom,
            matrix: QuantizedMatrix::from_float(weight, policy),
            act,
        })
    }

    /// Wraps an already-encoded matrix (the pipeline path, which preserves
    /// the training-time row assignment instead of re-deriving it).
    ///
    /// # Errors
    ///
    /// [`QuantError::ShapeMismatch`] when the matrix dimensions disagree
    /// with the geometry's GEMM form.
    pub fn from_matrix(
        geom: ConvGeometry,
        matrix: QuantizedMatrix,
        act: ActQuantizer,
    ) -> Result<Self, QuantError> {
        if (matrix.rows(), matrix.cols()) != (geom.out_channels, geom.gemm_k()) {
            return Err(QuantError::ShapeMismatch {
                context: "encoded matrix must be in GEMM form".into(),
                expected: vec![geom.out_channels, geom.gemm_k()],
                got: vec![matrix.rows(), matrix.cols()],
            });
        }
        Ok(QuantizedConv { geom, matrix, act })
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geom
    }

    /// The underlying integer-code matrix.
    pub fn matrix(&self) -> &QuantizedMatrix {
        &self.matrix
    }

    /// The activation quantizer feeding this layer.
    pub fn act_quantizer(&self) -> &ActQuantizer {
        &self.act
    }

    /// The layer's weights in the packed 4-bit deployment format — the
    /// byte stream the SIMD kernels decode in-register.
    ///
    /// # Panics
    ///
    /// Panics when the layer was not quantized at 4 bits.
    pub fn packed(&self) -> crate::integer::PackedMatrix {
        self.matrix.pack()
    }

    /// Compiles this layer's batched [`GemmPlan`](crate::integer::GemmPlan)
    /// and statically proves its accumulator bound against the layer's own
    /// activation quantizer — the one-call path from a deployed conv to an
    /// executable, overflow-checked kernel plan.
    ///
    /// # Errors
    ///
    /// [`QuantError::Overflow`] when a numerator is unrepresentable or the
    /// activation ceiling could wrap the accumulator.
    pub fn try_plan(&self) -> Result<crate::integer::GemmPlan, QuantError> {
        let plan = self.matrix.try_plan()?;
        plan.check_act(&self.act)?;
        Ok(plan)
    }

    /// The dequantized GEMM weight (for parity checks against the float
    /// path).
    pub fn dequantized_weight(&self) -> Tensor {
        self.matrix.to_float()
    }

    /// Validates that `image` is a rank-3 `[C, H, W]` map with this layer's
    /// channel count, returning the output spatial edges.
    pub(crate) fn check_image(&self, image: &Tensor) -> Result<(usize, usize), QuantError> {
        if image.shape().rank() != 3 {
            return Err(QuantError::ShapeMismatch {
                context: "conv input must be a rank-3 [C, H, W] image".into(),
                expected: vec![self.geom.in_channels],
                got: image.dims().to_vec(),
            });
        }
        let (c, h, w) = (image.dims()[0], image.dims()[1], image.dims()[2]);
        if c != self.geom.in_channels {
            return Err(QuantError::ShapeMismatch {
                context: "conv input channel count mismatch".into(),
                expected: vec![self.geom.in_channels, h, w],
                got: image.dims().to_vec(),
            });
        }
        Ok((self.geom.output_size(h), self.geom.output_size(w)))
    }

    /// Runs one image `[C, H, W]` through the integer datapath, returning
    /// the output feature map `[Cout, OH, OW]`.
    ///
    /// # Panics
    ///
    /// Panics on a rank or channel mismatch; the non-panicking path is
    /// [`QuantizedConv::try_forward_image`].
    pub fn forward_image(&self, image: &Tensor) -> Tensor {
        self.try_forward_image(image)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`QuantizedConv::forward_image`].
    ///
    /// # Errors
    ///
    /// [`QuantError::ShapeMismatch`] when `image` is not rank-3 or its
    /// channel count disagrees with the geometry.
    pub fn try_forward_image(&self, image: &Tensor) -> Result<Tensor, QuantError> {
        let (oh, ow) = self.check_image(image)?;
        let patches = oh * ow;
        let mut out = Tensor::zeros(&[self.geom.out_channels, oh, ow]);
        if self.geom.groups == 1 {
            let cols = im2col(image, &self.geom, 0);
            let xq = self.act.quantize(cols.as_slice());
            let (y, _) = self.matrix.matmul(&xq, patches, &self.act);
            out.as_mut_slice().copy_from_slice(y.as_slice());
        } else {
            // Depthwise: one single-row GEMM per channel group, using the
            // channel's already-encoded codes and group α.
            for g in 0..self.geom.groups {
                let cols = im2col(image, &self.geom, g);
                let xq = self.act.quantize(cols.as_slice());
                let (y, _) = self.matrix.matmul_row(g, &xq, patches, &self.act);
                out.as_mut_slice()[g * patches..(g + 1) * patches].copy_from_slice(&y);
            }
        }
        Ok(out)
    }

    /// Sequential batched forward: `images[i]` → output `i`. This is the
    /// single-threaded reference the pooled engine
    /// (`mixmatch_quant::engine::BatchEngine`) is pinned bit-identical to.
    ///
    /// # Errors
    ///
    /// As [`QuantizedConv::try_forward_image`], for the first offending
    /// image.
    pub fn forward_batch(&self, images: &[Tensor]) -> Result<Vec<Tensor>, QuantError> {
        images
            .iter()
            .map(|img| self.try_forward_image(img))
            .collect()
    }
}

/// Parity check: maximum absolute difference between the integer datapath
/// and the float reference (dequantized weights × quantized-dequantized
/// activations) over one image.
pub fn conv_parity(conv: &QuantizedConv, image: &Tensor) -> f32 {
    let integer = conv.forward_image(image);
    // Float reference path.
    let geom = conv.geom;
    let h = image.dims()[1];
    let oh = geom.output_size(h);
    let ow = geom.output_size(image.dims()[2]);
    let patches = oh * ow;
    let wf = conv.dequantized_weight();
    let mut reference = Tensor::zeros(&[geom.out_channels, oh, ow]);
    let cpg = geom.out_channels / geom.groups;
    for g in 0..geom.groups {
        let cols = im2col(image, &geom, g);
        let xd = conv.act.dequantize(&conv.act.quantize(cols.as_slice()));
        let xd = Tensor::from_vec(xd, cols.dims()).expect("same shape");
        for r in 0..cpg {
            let row = g * cpg + r;
            for p in 0..patches {
                let mut acc = 0.0f32;
                for k in 0..geom.gemm_k() {
                    acc += wf.row(row)[k] * xd.at(&[k, p]);
                }
                reference.as_mut_slice()[row * patches + p] = acc;
            }
        }
    }
    integer.max_abs_diff(&reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::Scheme;
    use mixmatch_tensor::TensorRng;

    #[test]
    fn dense_conv_integer_path_matches_float_reference() {
        let mut rng = TensorRng::seed_from(0);
        let geom = ConvGeometry::new(3, 8, 3, 1, 1);
        let w = Tensor::randn(&[8, 27], &mut rng);
        let conv = QuantizedConv::new(
            geom,
            &w,
            &MsqPolicy::msq_optimal(),
            ActQuantizer::new(4, 2.0),
        );
        let img = Tensor::rand_uniform(&[3, 6, 6], 0.0, 2.0, &mut rng);
        let diff = conv_parity(&conv, &img);
        assert!(diff < 1e-3, "integer/float divergence {diff}");
    }

    #[test]
    fn strided_conv_output_shape() {
        let mut rng = TensorRng::seed_from(1);
        let geom = ConvGeometry::new(2, 4, 3, 2, 1);
        let w = Tensor::randn(&[4, 18], &mut rng);
        let conv = QuantizedConv::new(
            geom,
            &w,
            &MsqPolicy::single(Scheme::Sp2, 4),
            ActQuantizer::new(4, 1.0),
        );
        let img = Tensor::rand_uniform(&[2, 8, 8], 0.0, 1.0, &mut rng);
        let out = conv.forward_image(&img);
        assert_eq!(out.dims(), &[4, 4, 4]);
    }

    #[test]
    fn depthwise_integer_path_matches_float_reference() {
        let mut rng = TensorRng::seed_from(2);
        let geom = ConvGeometry::depthwise(4, 3, 1, 1);
        let w = Tensor::randn(&[4, 9], &mut rng);
        let conv = QuantizedConv::depthwise(
            geom,
            &w,
            &MsqPolicy::single(Scheme::Fixed, 4),
            ActQuantizer::new(4, 1.5),
        );
        let img = Tensor::rand_uniform(&[4, 5, 5], 0.0, 1.5, &mut rng);
        let diff = conv_parity(&conv, &img);
        assert!(diff < 1e-3, "depthwise divergence {diff}");
    }

    #[test]
    fn forward_image_rejects_bad_rank_and_channels() {
        let mut rng = TensorRng::seed_from(7);
        let geom = ConvGeometry::new(3, 4, 3, 1, 1);
        let w = Tensor::randn(&[4, 27], &mut rng);
        let conv = QuantizedConv::new(geom, &w, &MsqPolicy::msq_half(), ActQuantizer::new(4, 1.0));
        // Rank mismatch surfaces as a typed error, not an index panic.
        let flat = Tensor::zeros(&[3 * 6 * 6]);
        assert!(matches!(
            conv.try_forward_image(&flat),
            Err(crate::error::QuantError::ShapeMismatch { .. })
        ));
        // Channel mismatch likewise.
        let wrong_c = Tensor::zeros(&[2, 6, 6]);
        assert!(matches!(
            conv.try_forward_image(&wrong_c),
            Err(crate::error::QuantError::ShapeMismatch { .. })
        ));
        // The panicking wrapper routes through the same validation.
        let good = Tensor::rand_uniform(&[3, 6, 6], 0.0, 1.0, &mut rng);
        assert_eq!(conv.forward_image(&good).dims(), &[4, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "channel count mismatch")]
    fn forward_image_panics_on_channel_mismatch() {
        let geom = ConvGeometry::new(3, 4, 3, 1, 1);
        let w = Tensor::zeros(&[4, 27]);
        let conv = QuantizedConv::new(geom, &w, &MsqPolicy::msq_half(), ActQuantizer::new(4, 1.0));
        let _ = conv.forward_image(&Tensor::zeros(&[5, 6, 6]));
    }

    #[test]
    fn sequential_forward_batch_matches_per_image_calls() {
        let mut rng = TensorRng::seed_from(8);
        let geom = ConvGeometry::new(2, 3, 3, 1, 1);
        let w = Tensor::randn(&[3, 18], &mut rng);
        let conv = QuantizedConv::new(geom, &w, &MsqPolicy::msq_half(), ActQuantizer::new(4, 1.0));
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[2, 5, 5], 0.0, 1.0, &mut rng))
            .collect();
        let batch = conv.forward_batch(&images).expect("batch");
        for (img, out) in images.iter().zip(&batch) {
            assert_eq!(out.as_slice(), conv.forward_image(img).as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "GEMM form")]
    fn wrong_weight_shape_panics() {
        let geom = ConvGeometry::new(3, 8, 3, 1, 1);
        let w = Tensor::zeros(&[8, 26]);
        let _ = QuantizedConv::new(geom, &w, &MsqPolicy::msq_half(), ActQuantizer::new(4, 1.0));
    }
}
