//! `im2col` / `col2im` transforms.
//!
//! Convolutions in `mixmatch-nn` — and on the modelled FPGA — are lowered to
//! GEMM: the input feature map is unrolled into a patch matrix (`im2col`) and
//! multiplied by the filter matrix whose **rows are output channels**. That
//! row-per-filter layout is exactly the weight matrix the paper's Algorithm 2
//! partitions between SP2 and fixed-point schemes.

use crate::tensor::Tensor;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (rows of the GEMM weight matrix).
    pub out_channels: usize,
    /// Square kernel edge.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on each border.
    pub padding: usize,
    /// Groups (1 = dense conv, `in_channels` = depthwise).
    pub groups: usize,
}

impl ConvGeometry {
    /// Dense convolution geometry.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        ConvGeometry {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups: 1,
        }
    }

    /// Depthwise convolution geometry (`groups == in_channels == out_channels`).
    pub fn depthwise(channels: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        ConvGeometry {
            in_channels: channels,
            out_channels: channels,
            kernel,
            stride,
            padding,
            groups: channels,
        }
    }

    /// Output spatial edge for a square input of edge `input`.
    ///
    /// # Panics
    ///
    /// Panics when the kernel does not fit in the padded input.
    pub fn output_size(&self, input: usize) -> usize {
        let padded = input + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {}",
            self.kernel,
            padded
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// GEMM reduction length `K = (Cin/groups)·k·k`.
    pub fn gemm_k(&self) -> usize {
        (self.in_channels / self.groups) * self.kernel * self.kernel
    }

    /// Non-panicking [`ConvGeometry::output_size`]: `None` when the kernel
    /// does not fit in the padded input (or the stride is zero). Validation
    /// paths that handle untrusted geometry — deserialized execution plans,
    /// serving-time shape checks — use this instead of the asserting form.
    pub fn checked_output_size(&self, input: usize) -> Option<usize> {
        let padded = input.checked_add(2usize.checked_mul(self.padding)?)?;
        if padded < self.kernel || self.stride == 0 {
            return None;
        }
        Some((padded - self.kernel) / self.stride + 1)
    }
}

/// Unrolls an input feature map `[c, h, w]` into the patch matrix
/// `[(c/groups)·k·k, out_h·out_w]` for one group.
///
/// The output is laid out so that `weights [Cout/g, K] × patches [K, P]`
/// directly yields the output feature map rows.
///
/// # Panics
///
/// Panics when `input` is not rank-3 or channels disagree with `geom`.
pub fn im2col(input: &Tensor, geom: &ConvGeometry, group: usize) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "im2col expects [c, h, w] input");
    let (h, w) = (input.dims()[1], input.dims()[2]);
    let cg = geom.in_channels / geom.groups;
    let k = geom.kernel;
    let mut cols = Tensor::zeros(&[cg * k * k, geom.output_size(h) * geom.output_size(w)]);
    im2col_into(input, geom, group, cols.as_mut_slice());
    cols
}

/// Allocation-free core of [`im2col`]: writes the patch matrix into `dst`
/// (zeroing it first), so batched-inference workers can reuse one scratch
/// buffer per thread instead of allocating a fresh matrix per image.
///
/// # Panics
///
/// Panics when `input` is not rank-3, channels disagree with `geom`, or
/// `dst` is not exactly `(c/groups)·k²·out_h·out_w` long.
pub fn im2col_into(input: &Tensor, geom: &ConvGeometry, group: usize, dst: &mut [f32]) {
    assert_eq!(input.shape().rank(), 3, "im2col expects [c, h, w] input");
    let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    assert_eq!(c, geom.in_channels, "channel count mismatch");
    assert!(group < geom.groups, "group index out of range");
    let cg = geom.in_channels / geom.groups;
    let out_h = geom.output_size(h);
    let out_w = geom.output_size(w);
    let k = geom.kernel;
    assert_eq!(
        dst.len(),
        cg * k * k * out_h * out_w,
        "im2col destination length mismatch"
    );
    dst.fill(0.0);
    let src = input.as_slice();
    let patches = out_h * out_w;
    for cc in 0..cg {
        let src_c = (group * cg + cc) * h * w;
        for ky in 0..k {
            for kx in 0..k {
                let row = (cc * k * k + ky * k + kx) * patches;
                for oy in 0..out_h {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..out_w {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[row + oy * out_w + ox] = src[src_c + iy as usize * w + ix as usize];
                    }
                }
            }
        }
    }
}

/// Patch-major tile variant of [`im2col_into`]: unrolls patches
/// `p0..p0 + count` of the feature map into `dst` as a `[count, K]` matrix —
/// one contiguous K-long reduction per patch, with the same k-index order
/// (`c·k² + ky·k + kx`) as the row-major form.
///
/// This is the cache-tiling building block: laying each patch out
/// contiguously lets the GEMM reduce over `K` without a transposed scratch
/// copy, and a small tile stays in L1/L2 between im2col and GEMM. The
/// batched engine runs the element-generic core,
/// [`im2col_patches_slice_into`], on integer activation codes.
///
/// # Panics
///
/// Panics when `input` is not rank-3, channels disagree with `geom`, the
/// patch range exceeds `out_h·out_w`, or `dst` is shorter than `count·K`.
pub fn im2col_patches_into(
    input: &Tensor,
    geom: &ConvGeometry,
    group: usize,
    p0: usize,
    count: usize,
    dst: &mut [f32],
) {
    assert_eq!(input.shape().rank(), 3, "im2col expects [c, h, w] input");
    let d = input.dims();
    im2col_patches_slice_into(
        input.as_slice(),
        [d[0], d[1], d[2]],
        geom,
        group,
        p0,
        count,
        dst,
    );
}

/// Element-generic core of [`im2col_patches_into`] over a flat `[c, h, w]`
/// map `src` of any element type: padding positions read `T::default()`
/// (zero for `f32` and for integer codes).
///
/// # Panics
///
/// Panics when `src` does not hold `c·h·w` elements, channels disagree
/// with `geom`, the patch range exceeds `out_h·out_w`, or `dst` is shorter
/// than `count·K`.
pub fn im2col_patches_slice_into<T: Copy + Default>(
    src: &[T],
    [c, h, w]: [usize; 3],
    geom: &ConvGeometry,
    group: usize,
    p0: usize,
    count: usize,
    dst: &mut [T],
) {
    assert_eq!(src.len(), c * h * w, "im2col source length mismatch");
    assert_eq!(c, geom.in_channels, "channel count mismatch");
    assert!(group < geom.groups, "group index out of range");
    let cg = geom.in_channels / geom.groups;
    let out_h = geom.output_size(h);
    let out_w = geom.output_size(w);
    let k = geom.kernel;
    let kk = cg * k * k;
    assert!(
        p0 + count <= out_h * out_w,
        "patch range {}..{} exceeds {} patches",
        p0,
        p0 + count,
        out_h * out_w
    );
    assert!(dst.len() >= count * kk, "im2col tile destination too short");
    let tile = &mut dst[..count * kk];
    tile.fill(T::default());
    for p in 0..count {
        let (oy, ox) = ((p0 + p) / out_w, (p0 + p) % out_w);
        let patch = &mut tile[p * kk..(p + 1) * kk];
        for cc in 0..cg {
            let src_c = (group * cg + cc) * h * w;
            for ky in 0..k {
                let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let src_row = src_c + iy as usize * w;
                for kx in 0..k {
                    let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    patch[cc * k * k + ky * k + kx] = src[src_row + ix as usize];
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters a patch-matrix gradient back onto the input
/// feature map (accumulating where patches overlap). Needed by the conv
/// backward pass.
///
/// # Panics
///
/// Panics when shapes are inconsistent with `geom` and `(h, w)`.
pub fn col2im(cols: &Tensor, geom: &ConvGeometry, group: usize, h: usize, w: usize) -> Tensor {
    let cg = geom.in_channels / geom.groups;
    let out_h = geom.output_size(h);
    let out_w = geom.output_size(w);
    let k = geom.kernel;
    assert_eq!(
        cols.dims(),
        &[cg * k * k, out_h * out_w],
        "col2im input shape mismatch"
    );
    assert!(group < geom.groups, "group index out of range");
    let mut out = Tensor::zeros(&[geom.in_channels, h, w]);
    let dst = out.as_mut_slice();
    let src = cols.as_slice();
    let patches = out_h * out_w;
    for cc in 0..cg {
        let dst_c = (group * cg + cc) * h * w;
        for ky in 0..k {
            for kx in 0..k {
                let row = (cc * k * k + ky * k + kx) * patches;
                for oy in 0..out_h {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..out_w {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[dst_c + iy as usize * w + ix as usize] += src[row + oy * out_w + ox];
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;
    use proptest::prelude::*;

    #[test]
    fn output_size_formula() {
        let g = ConvGeometry::new(3, 8, 3, 1, 1);
        assert_eq!(g.output_size(8), 8);
        let g2 = ConvGeometry::new(3, 8, 3, 2, 1);
        assert_eq!(g2.output_size(8), 4);
        let g3 = ConvGeometry::new(3, 8, 1, 1, 0);
        assert_eq!(g3.output_size(8), 8);
    }

    #[test]
    fn gemm_k_accounts_for_groups() {
        assert_eq!(ConvGeometry::new(8, 16, 3, 1, 1).gemm_k(), 72);
        assert_eq!(ConvGeometry::depthwise(8, 3, 1, 1).gemm_k(), 9);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel, stride 1, no padding: the patch matrix is the input
        // flattened per channel.
        let mut rng = TensorRng::seed_from(2);
        let x = Tensor::randn(&[2, 4, 4], &mut rng);
        let g = ConvGeometry::new(2, 2, 1, 1, 0);
        let cols = im2col(&x, &g, 0);
        assert_eq!(cols.dims(), &[2, 16]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn im2col_values_at_known_positions() {
        // 1 channel, 3x3 input, 2x2 kernel, stride 1, no padding.
        let x = Tensor::from_vec((1..=9).map(|i| i as f32).collect(), &[1, 3, 3]).unwrap();
        let g = ConvGeometry::new(1, 1, 2, 1, 0);
        let cols = im2col(&x, &g, 0);
        assert_eq!(cols.dims(), &[4, 4]);
        // Patch (0,0) = [1,2,4,5] read down the first column.
        let got: Vec<f32> = (0..4).map(|r| cols.at(&[r, 0])).collect();
        assert_eq!(got, vec![1.0, 2.0, 4.0, 5.0]);
        // Patch (1,1) = [5,6,8,9] in the last column.
        let got: Vec<f32> = (0..4).map(|r| cols.at(&[r, 3])).collect();
        assert_eq!(got, vec![5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn padding_produces_zeros_on_border_patches() {
        let x = Tensor::ones(&[1, 2, 2]);
        let g = ConvGeometry::new(1, 1, 3, 1, 1);
        let cols = im2col(&x, &g, 0);
        // Top-left patch: only the bottom-right 2x2 sub-window overlaps input.
        assert_eq!(cols.at(&[0, 0]), 0.0); // (ky=0,kx=0) off-image
        assert_eq!(cols.at(&[4, 0]), 1.0); // centre on-image
    }

    #[test]
    fn depthwise_groups_select_single_channel() {
        let mut x = Tensor::zeros(&[3, 2, 2]);
        for c in 0..3 {
            for i in 0..4 {
                x.as_mut_slice()[c * 4 + i] = (c * 10 + i) as f32;
            }
        }
        let g = ConvGeometry::depthwise(3, 1, 1, 0);
        let c1 = im2col(&x, &g, 1);
        assert_eq!(c1.as_slice(), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn patch_tiles_agree_with_row_major_im2col() {
        let mut rng = TensorRng::seed_from(7);
        for &(ch, h, k, stride, pad, groups) in &[
            (2usize, 6usize, 3usize, 1usize, 1usize, 1usize),
            (3, 5, 2, 2, 0, 1),
            (4, 4, 3, 1, 1, 4),
            (1, 7, 3, 2, 1, 1),
        ] {
            let g = ConvGeometry {
                in_channels: ch,
                out_channels: ch,
                kernel: k,
                stride,
                padding: pad,
                groups,
            };
            let x = Tensor::randn(&[ch, h, h], &mut rng);
            // An integer code map and its f32 twin: codes 1..=len are
            // distinct and non-zero, so the generic core must gather every
            // code to where the f32 path puts its value, and pad with code
            // 0 where the f32 path pads with 0.0.
            let codes: Vec<u32> = (1..=x.len() as u32).collect();
            let twin =
                Tensor::from_vec(codes.iter().map(|&c| c as f32).collect(), x.dims()).unwrap();
            let patches = g.output_size(h) * g.output_size(h);
            let kk = g.gemm_k();
            for group in 0..groups {
                let cols = im2col(&x, &g, group);
                let twin_cols = im2col(&twin, &g, group);
                // Walk the patch space in uneven tiles, including a 1-patch
                // tile, and compare each element against the row-major form.
                let mut tile = vec![f32::NAN; 3 * kk];
                let mut code_tile = vec![u32::MAX; 3 * kk];
                let mut p0 = 0;
                for &count in [1usize, 3, 2, patches].iter() {
                    let count = count.min(patches - p0);
                    if count == 0 {
                        break;
                    }
                    tile.resize(count * kk, f32::NAN);
                    code_tile.resize(count * kk, u32::MAX);
                    im2col_patches_into(&x, &g, group, p0, count, &mut tile);
                    im2col_patches_slice_into(
                        &codes,
                        [ch, h, h],
                        &g,
                        group,
                        p0,
                        count,
                        &mut code_tile,
                    );
                    for p in 0..count {
                        for ki in 0..kk {
                            assert_eq!(
                                tile[p * kk + ki],
                                cols.at(&[ki, p0 + p]),
                                "group {group} patch {} k {ki}",
                                p0 + p
                            );
                            assert_eq!(
                                code_tile[p * kk + ki] as f32,
                                twin_cols.at(&[ki, p0 + p]),
                                "code: group {group} patch {} k {ki}",
                                p0 + p
                            );
                        }
                    }
                    p0 += count;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn col2im_is_adjoint_of_im2col(
            h in 3usize..7, k in 1usize..4, stride in 1usize..3, pad in 0usize..2, seed in 0u64..50
        ) {
            // <im2col(x), y> == <x, col2im(y)> for all x, y: the defining
            // property of an adjoint pair, which is exactly what correct
            // backprop through convolution requires.
            prop_assume!(h + 2 * pad >= k);
            let mut rng = TensorRng::seed_from(seed);
            let g = ConvGeometry::new(2, 4, k, stride, pad);
            let x = Tensor::randn(&[2, h, h], &mut rng);
            let cols = im2col(&x, &g, 0);
            let y = Tensor::randn(cols.dims(), &mut rng);
            let lhs = cols.dot(&y);
            let back = col2im(&y, &g, 0, h, h);
            let rhs = x.dot(&back);
            prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
        }
    }
}
