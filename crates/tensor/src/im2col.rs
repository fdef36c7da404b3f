//! `im2col` / `col2im` transforms.
//!
//! Convolutions in `mixmatch-nn` — and on the modelled FPGA — are lowered to
//! GEMM: the input feature map is unrolled into a patch matrix (`im2col`) and
//! multiplied by the filter matrix whose **rows are output channels**. That
//! row-per-filter layout is exactly the weight matrix the paper's Algorithm 2
//! partitions between SP2 and fixed-point schemes.
//!
//! Three layouts serve three consumers. The row-major [`im2col`] /
//! [`im2col_into`] (`[K, patches]`, bounds-tested per element) feed the
//! float conv layers and are the test oracle. The integer engine reads a
//! zero-bordered map that [`border_map_into`] writes once per input, so
//! every kernel window lies inside it, and [`gather_pairs`] writes the
//! GEMM kernel's k-pair tile straight from that map: per pair of reduction
//! indices, one run of codes per output row, interleaved as 16-bit halves,
//! with the tile's per-`k` non-zero census. The patch-major
//! [`im2col_patches_into`] (`[patches, K]`, via [`gather_patches`]) serves
//! callers outside the engine.

use crate::tensor::Tensor;
use std::ops::Range;

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
/// It writes a bordered copy of `input` with [`border_map_into`] (one
/// allocation per call) and runs [`gather_patches`] with stride `K`.
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
    let dims = [d[0], d[1], d[2]];
    let mut map = Vec::new();
    border_map_into(
        input.as_slice(),
        dims,
        geom.padding,
        &mut map,
        |src, out| out.copy_from_slice(src),
    );
    gather_patches(&map, dims, geom, group, p0..p0 + count, geom.gemm_k(), dst);
}

/// Writes the `[c, h, w]` map `src` into `dst` as the zero-bordered
/// `[c, h + 2·pad, w + 2·pad]` map [`gather_pairs`] and [`gather_patches`]
/// read, converting the interior with `convert` (called on whole rows, or
/// on the whole map when `pad` is 0). `dst` is resized to fit, and every
/// border element is rewritten with `T::default()` on each call, so nothing
/// from an earlier map survives in it.
///
/// # Panics
///
/// Panics when `src` does not hold `c·h·w` elements.
pub fn border_map_into<S, T: Copy + Default>(
    src: &[S],
    [c, h, w]: [usize; 3],
    pad: usize,
    dst: &mut Vec<T>,
    convert: impl FnMut(&[S], &mut [T]),
) {
    assert_eq!(src.len(), c * h * w, "bordered map source length mismatch");
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    dst.resize(c * hp * wp, T::default());
    #[cfg(target_arch = "x86_64")]
    if crate::simd::active_tier() == crate::simd::SimdTier::Avx2 {
        /// The same copy compiled for AVX2, so an inlined `convert`
        /// vectorises to 256-bit lanes.
        #[target_feature(enable = "avx2")]
        fn avx2<S, T: Copy + Default>(
            src: &[S],
            dims: [usize; 3],
            dst: &mut [T],
            convert: impl FnMut(&[S], &mut [T]),
        ) {
            border_rows(src, dims, dst, convert)
        }
        // SAFETY: the active tier is AVX2 only on a CPU that reports it.
        #[allow(unsafe_code)]
        unsafe {
            avx2(src, [h, w, pad], dst, convert)
        };
        return;
    }
    border_rows(src, [h, w, pad], dst, convert)
}

/// The body of [`border_map_into`] on a map already sized to fit.
#[inline(always)]
fn border_rows<S, T: Copy + Default>(
    src: &[S],
    [h, w, pad]: [usize; 3],
    dst: &mut [T],
    mut convert: impl FnMut(&[S], &mut [T]),
) {
    if pad == 0 {
        convert(src, dst);
        return;
    }
    let wp = w + 2 * pad;
    dst.fill(T::default());
    if h * w == 0 {
        return;
    }
    for (plane, rows) in dst
        .chunks_exact_mut((h + 2 * pad) * wp)
        .zip(src.chunks_exact(h * w))
    {
        let interior = plane[pad * wp..].chunks_exact_mut(wp);
        for (row, from) in interior.zip(rows.chunks_exact(w)) {
            convert(from, &mut row[pad..pad + w]);
        }
    }
}

/// Gathers patches `patches` of group `group` from a zero-bordered map (as
/// written by [`border_map_into`] for an input of dims `[c, h, w]` and
/// `geom.padding`) into `dst`, one patch per `stride`-long row: the first
/// `K = (c/groups)·k²` elements of each row in the k-index order
/// `c·k² + ky·k + kx` of [`im2col`], the rest `T::default()`. Each patch is
/// `(c/groups)·k` runs of `k` contiguous elements with no image-edge test,
/// because the border holds every off-image position. The padding past `K`
/// is rewritten on every call.
///
/// # Panics
///
/// Panics when `map` is not `c·(h + 2p)·(w + 2p)` long, channels disagree
/// with `geom`, `group` is out of range, the kernel does not fit, the patch
/// range exceeds `out_h·out_w`, `stride < K`, or `dst` is shorter than
/// `patches.len()·stride`.
pub fn gather_patches<T: Copy + Default>(
    map: &[T],
    [c, h, w]: [usize; 3],
    geom: &ConvGeometry,
    group: usize,
    patches: Range<usize>,
    stride: usize,
    dst: &mut [T],
) {
    let (hp, wp) = (h + 2 * geom.padding, w + 2 * geom.padding);
    assert_eq!(map.len(), c * hp * wp, "bordered map length mismatch");
    assert_eq!(c, geom.in_channels, "channel count mismatch");
    assert!(group < geom.groups, "group index out of range");
    let total = geom.output_size(h) * geom.output_size(w);
    assert!(
        patches.end <= total,
        "patch range {patches:?} exceeds {total} patches"
    );
    assert!(stride >= geom.gemm_k(), "patch stride shorter than K");
    assert!(
        dst.len() >= patches.len() * stride,
        "im2col tile destination too short"
    );
    if stride == 0 {
        // K = 0 (no input channels): every patch is empty.
        return;
    }
    let dst = &mut dst[..patches.len() * stride];
    // Compile-time kernel edges cover every conv in this workspace's
    // models; any other edge runs the same loop with a runtime `k`.
    match geom.kernel {
        1 => gather_runs::<T, 1>(map, [hp, wp], geom, group, patches, stride, dst),
        3 => gather_runs::<T, 3>(map, [hp, wp], geom, group, patches, stride, dst),
        _ => gather_runs::<T, 0>(map, [hp, wp], geom, group, patches, stride, dst),
    }
}

/// The patch gather behind [`gather_patches`], with the kernel edge `K`
/// fixed at compile time (`K = 0` reads it from `geom` at run time).
fn gather_runs<T: Copy + Default, const K: usize>(
    map: &[T],
    [hp, wp]: [usize; 2],
    geom: &ConvGeometry,
    group: usize,
    patches: Range<usize>,
    stride: usize,
    dst: &mut [T],
) {
    let k = if K == 0 { geom.kernel } else { K };
    let cg = geom.in_channels / geom.groups;
    let s = geom.stride;
    let out_w = (wp - k) / s + 1;
    let plane = hp * wp;
    let base = group * cg * plane;
    for (row, p) in dst.chunks_exact_mut(stride).zip(patches) {
        let origin = base + (p / out_w) * s * wp + (p % out_w) * s;
        let (runs, pad) = row.split_at_mut(cg * k * k);
        for (cc, window) in runs.chunks_exact_mut(k * k).enumerate() {
            let at = origin + cc * plane;
            for (ky, run) in window.chunks_exact_mut(k).enumerate() {
                let from = at + ky * wp;
                run.copy_from_slice(&map[from..from + k]);
            }
        }
        pad.fill(T::default());
    }
}

/// Gathers patches `patches` of group `group` from a zero-bordered `u16`
/// code map (as written by [`border_map_into`] for an input of dims
/// `[c, h, w]` and `geom.padding`) straight into the integer GEMM's k-pair
/// tile (see [`crate::simd`]): `kp/2` rows of `np` words, where word
/// `(q, j)` holds patch `j`'s codes `2q` (low half) and `2q + 1` (high
/// half) in the k order `c·k² + ky·k + kx` of [`im2col`]. Lanes
/// `patches.len()..np` and codes past `K = (c/groups)·k²` are zero; every
/// word is rewritten on each call. `nonzero[k]` receives how many of the
/// tile's patches hold a non-zero code at `k` — the census the SP2 add
/// count needs — and is 0 past `K`.
///
/// For each k-pair the gather walks the tile's output rows: one output
/// row contributes one run per `k`, which for stride 1 is a contiguous
/// slice of the map, so the two runs interleave as 16-bit halves.
///
/// # Panics
///
/// Panics when `map` is not `c·(h + 2p)·(w + 2p)` long, channels disagree
/// with `geom`, `group` is out of range, the kernel does not fit, the patch
/// range exceeds `out_h·out_w`, `kp` is odd or below `K`, `np` is below the
/// patch count, `dst` is shorter than `kp/2 · np` or `nonzero` shorter than
/// `kp`.
#[allow(clippy::too_many_arguments)]
pub fn gather_pairs(
    map: &[u16],
    [c, h, w]: [usize; 3],
    geom: &ConvGeometry,
    group: usize,
    patches: Range<usize>,
    kp: usize,
    np: usize,
    dst: &mut [u32],
    nonzero: &mut [u32],
) {
    let (hp, wp) = (h + 2 * geom.padding, w + 2 * geom.padding);
    assert_eq!(map.len(), c * hp * wp, "bordered map length mismatch");
    assert_eq!(c, geom.in_channels, "channel count mismatch");
    assert!(group < geom.groups, "group index out of range");
    let out_w = geom.output_size(w);
    let total = geom.output_size(h) * out_w;
    assert!(
        patches.end <= total,
        "patch range {patches:?} exceeds {total} patches"
    );
    let kk = geom.gemm_k();
    assert!(
        kp.is_multiple_of(2) && kp >= kk,
        "kp must be K rounded up to even"
    );
    let n = patches.len();
    assert!(np >= n, "np below the patch count");
    assert!(dst.len() >= kp / 2 * np, "pair tile destination too short");
    assert!(nonzero.len() >= kp, "census shorter than kp");
    let (dst, nonzero) = (&mut dst[..kp / 2 * np], &mut nonzero[..kp]);
    if np == 0 {
        nonzero.fill(0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if crate::simd::active_tier() == crate::simd::SimdTier::Avx2 {
        /// The same gather compiled for AVX2, so its loops vectorise to
        /// 256-bit lanes; integer results are the same at either width.
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = "avx2")]
        fn avx2(
            map: &[u16],
            hw: [usize; 2],
            geom: &ConvGeometry,
            group: usize,
            patches: Range<usize>,
            np: usize,
            dst: &mut [u32],
            nonzero: &mut [u32],
        ) {
            gather_pairs_into(map, hw, geom, group, patches, np, dst, nonzero)
        }
        // SAFETY: the active tier is AVX2 only on a CPU that reports it.
        #[allow(unsafe_code)]
        unsafe {
            avx2(map, [hp, wp], geom, group, patches, np, dst, nonzero)
        };
        return;
    }
    gather_pairs_into(map, [hp, wp], geom, group, patches, np, dst, nonzero)
}

/// The body of [`gather_pairs`] on checked arguments: `dst` is the whole
/// tile and `nonzero` the whole census.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gather_pairs_into(
    map: &[u16],
    [hp, wp]: [usize; 2],
    geom: &ConvGeometry,
    group: usize,
    patches: Range<usize>,
    np: usize,
    dst: &mut [u32],
    nonzero: &mut [u32],
) {
    let (k, s, n) = (geom.kernel, geom.stride, patches.len());
    let out_w = (wp - k) / s + 1;
    let (cg, plane) = (geom.in_channels / geom.groups, hp * wp);
    // Map offset of each reduction index from a patch's origin, stepped in
    // k order: `kx` fastest, then `ky`, then the channel.
    let (mut kx, mut ky, mut at, mut left) = (0, 0, group * cg * plane, cg * k * k);
    let mut tap = || {
        if left == 0 {
            return None;
        }
        let this = at;
        (left, kx, at) = (left - 1, kx + 1, at + 1);
        if kx == k {
            (kx, ky, at) = (0, ky + 1, at + wp - k);
            if ky == k {
                (ky, at) = (0, at + plane - k * wp);
            }
        }
        Some(this)
    };
    let (oy0, ox0) = (patches.start / out_w, patches.start % out_w);
    dst.fill(0);
    for (row, counts) in dst.chunks_exact_mut(np).zip(nonzero.chunks_exact_mut(2)) {
        if let (Some(a), b) = (tap(), tap()) {
            // One run per output row the tile touches.
            let (mut oy, mut ox, mut j) = (oy0, ox0, 0);
            while j < n {
                let len = (out_w - ox).min(n - j);
                let origin = oy * s * wp + ox * s;
                let (a, b) = (origin + a, b.map(|b| origin + b));
                let run = &mut row[j..j + len];
                match (s, b) {
                    (1, Some(b)) => interleave(run, &map[a..a + len], &map[b..b + len]),
                    _ => {
                        for (i, d) in run.iter_mut().enumerate() {
                            let hi = b.map_or(0, |b| map[b + i * s]);
                            *d = map[a + i * s] as u32 | (hi as u32) << 16;
                        }
                    }
                }
                (oy, ox, j) = (oy + 1, 0, j + len);
            }
        }
        let mut count = [0u32; 2];
        for &word in row.iter() {
            count[0] += (word & 0xffff != 0) as u32;
            count[1] += (word >> 16 != 0) as u32;
        }
        counts.copy_from_slice(&count);
    }
}

/// Writes `lo[i] | hi[i] << 16` into `run`, 8 words per step so that runs
/// as short as one vector still vectorise.
#[inline(always)]
fn interleave(run: &mut [u32], lo: &[u16], hi: &[u16]) {
    let (len, mut i) = (run.len(), 0);
    let (lo, hi) = (&lo[..len], &hi[..len]);
    while i + 8 <= len {
        let (d, a, b) = (&mut run[i..i + 8], &lo[i..i + 8], &hi[i..i + 8]);
        for t in 0..8 {
            d[t] = a[t] as u32 | (b[t] as u32) << 16;
        }
        i += 8;
    }
    for t in i..len {
        run[t] = lo[t] as u32 | (hi[t] as u32) << 16;
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
            (2, 7, 5, 3, 2, 1),
            (3, 4, 1, 2, 0, 3),
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
                // The code tile is gathered from a bordered map at a padded
                // stride, into a buffer full of stale non-zero codes: each
                // row's padding past K must come back zero.
                let row_len = kk.next_multiple_of(16);
                let mut map = vec![u32::MAX; 7];
                border_map_into(&codes, [ch, h, h], pad, &mut map, |src, out| {
                    out.copy_from_slice(src)
                });
                let mut code_tile = vec![u32::MAX; patches * row_len];
                let mut p0 = 0;
                for &count in [1usize, 3, 2, patches].iter() {
                    let count = count.min(patches - p0);
                    if count == 0 {
                        break;
                    }
                    tile.resize(count * kk, f32::NAN);
                    code_tile.fill(u32::MAX);
                    im2col_patches_into(&x, &g, group, p0, count, &mut tile);
                    gather_patches(
                        &map,
                        [ch, h, h],
                        &g,
                        group,
                        p0..p0 + count,
                        row_len,
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
                                code_tile[p * row_len + ki] as f32,
                                twin_cols.at(&[ki, p0 + p]),
                                "code: group {group} patch {} k {ki}",
                                p0 + p
                            );
                        }
                        assert!(
                            code_tile[p * row_len + kk..(p + 1) * row_len]
                                .iter()
                                .all(|&c| c == 0),
                            "code: group {group} patch {} padding",
                            p0 + p
                        );
                    }
                    p0 += count;
                }
            }
        }
    }

    #[test]
    fn pair_tiles_agree_with_row_major_im2col() {
        for &(ch, h, k, stride, pad, groups) in &[
            (2usize, 6usize, 3usize, 1usize, 1usize, 1usize),
            (3, 5, 2, 2, 0, 1),
            (4, 4, 3, 1, 1, 4),
            (1, 7, 3, 2, 1, 1),
            (2, 7, 5, 3, 2, 1),
            (3, 4, 1, 2, 0, 3),
            (3, 9, 3, 1, 1, 1),
            (8, 2, 3, 1, 1, 1),
        ] {
            let g = ConvGeometry {
                in_channels: ch,
                out_channels: ch,
                kernel: k,
                stride,
                padding: pad,
                groups,
            };
            // Distinct non-zero codes, every fifth one zero, and their f32
            // twin for the row-major oracle.
            let codes: Vec<u16> = (1..=(ch * h * h) as u16)
                .map(|c| if c % 5 == 0 { 0 } else { c })
                .collect();
            let twin = Tensor::from_vec(codes.iter().map(|&c| c as f32).collect(), &[ch, h, h]);
            let twin = twin.unwrap();
            let mut map = vec![u16::MAX; 3];
            border_map_into(&codes, [ch, h, h], pad, &mut map, |src, out| {
                out.copy_from_slice(src)
            });
            let patches = g.output_size(h) * g.output_size(h);
            let kk = g.gemm_k();
            let kp = kk.next_multiple_of(2);
            for group in 0..groups {
                let cols = im2col(&twin, &g, group);
                let code = |ki: usize, p: usize| if ki < kk { cols.at(&[ki, p]) as u32 } else { 0 };
                // Uneven tiles into buffers of stale words and counts.
                let mut p0 = 0;
                for &count in [1usize, 3, 2, 9, patches].iter() {
                    let count = count.min(patches - p0);
                    if count == 0 {
                        break;
                    }
                    let np = count.next_multiple_of(8);
                    let mut tile = vec![u32::MAX; kp / 2 * np + 5];
                    let mut nonzero = vec![u32::MAX; kp + 1];
                    let range = p0..p0 + count;
                    gather_pairs(
                        &map,
                        [ch, h, h],
                        &g,
                        group,
                        range,
                        kp,
                        np,
                        &mut tile,
                        &mut nonzero,
                    );
                    for q in 0..kp / 2 {
                        for j in 0..np {
                            let want = if j < count {
                                code(2 * q, p0 + j) | code(2 * q + 1, p0 + j) << 16
                            } else {
                                0
                            };
                            assert_eq!(
                                tile[q * np + j],
                                want,
                                "group {group} tile {p0} q {q} lane {j}"
                            );
                        }
                    }
                    for ki in 0..kp {
                        let want = (p0..p0 + count).filter(|&p| code(ki, p) != 0).count();
                        assert_eq!(
                            nonzero[ki] as usize, want,
                            "group {group} tile {p0} census k {ki}"
                        );
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
