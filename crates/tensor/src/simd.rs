//! Runtime-dispatched SIMD micro-kernels for packed 4-bit integer GEMM.
//!
//! The quantization schemes this workspace deploys (fixed-point, P2, SP2 —
//! all 4-bit) collapse every weight to a small signed integer *numerator*
//! (|numerator| ≤ 64), two codes packed per byte. That makes the integer
//! GEMM inner loop a perfect fit for in-register nibble decode: a 16-entry
//! `pshufb` table lookup turns 32 packed codes into 32 `i8` numerators
//! without ever materializing an unpacked weight row in memory.
//!
//! Three kernel tiers execute the same reduction:
//!
//! * [`PackedKernel::I16x16`] — AVX2, 16 lanes: nibbles → `i8` numerators →
//!   sign-extended `i16`, activations packed `u32 → u16`, `madd_epi16`
//!   multiply-accumulate into 8 × `i32` partial sums. Requires activations
//!   ≤ [`MADD_MAX_LEVEL`] and the caller-proven accumulator bound.
//! * [`PackedKernel::I32x8`] — AVX2, 8 lanes: nibbles → `i32` numerators,
//!   `mullo_epi32` against `u32` activations (any activation width up to
//!   16 bits). Same accumulator bound requirement.
//! * [`PackedKernel::Scalar`] — portable unrolled loop over packed bytes
//!   (two codes per iteration), exact `i64` accumulation. Always available,
//!   on every architecture; the reference the vector tiers are pinned to.
//!
//! The vector tiers consume [`K_GRANULE`] codes per step and reduce each
//! block of up to [`MAX_COL_BLOCK`] columns in one horizontal pass: an
//! `hadd` tree over the columns' accumulators and add counts together, and
//! one store. A reduction whose length is not a multiple of [`K_GRANULE`]
//! finishes in the scalar loop. The batched engine pads its code tiles and
//! compiled weight rows to the granule with zero codes, so only unpadded
//! public calls ever run that tail.
//!
//! **Exactness.** Integer addition is associative and commutative, so lane
//! splitting and horizontal reduction produce the *same* accumulator value
//! as the sequential scalar loop — bit-identical, not approximately equal —
//! provided no intermediate wraps. The vector tiers accumulate in 32-bit
//! lanes, so callers must prove `Σ|numerator| × max_activation ≤ i32::MAX`
//! per row before selecting them; [`select_kernel`] encodes exactly that
//! rule and falls back to [`PackedKernel::Scalar`] otherwise. Every partial
//! sum — a lane, or a pair of lanes in the `hadd` tree — adds a subset of
//! the row's products, so the same bound covers it.
//!
//! Dispatch is resolved once per process ([`active_tier`]): AVX2 when the
//! CPU reports it, scalar otherwise, and scalar unconditionally when the
//! `MIXMATCH_FORCE_SCALAR` environment variable is set to anything but
//! `0`/empty — the switch CI uses to run the differential suites on the
//! portable path.

use std::sync::OnceLock;

/// Maximum activation level the 16-lane `madd` kernel accepts: activations
/// are reinterpreted as *signed* 16-bit lanes, so they must stay within
/// `i16::MAX`.
pub const MADD_MAX_LEVEL: u32 = i16::MAX as u32;

/// Instruction tier the process dispatches packed kernels to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// AVX2 vector kernels (x86-64 with runtime-detected AVX2).
    Avx2,
    /// Portable scalar-unrolled kernels.
    Scalar,
}

/// The concrete kernel chosen for one packed row × activation-width pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedKernel {
    /// 16-lane `i16` madd kernel (AVX2).
    I16x16,
    /// 8-lane `i32` mullo kernel (AVX2).
    I32x8,
    /// Portable scalar loop, exact `i64` accumulation.
    Scalar,
}

/// The process-wide kernel tier, resolved once: `MIXMATCH_FORCE_SCALAR`
/// (any value other than empty or `0`) forces [`SimdTier::Scalar`];
/// otherwise AVX2 is used when the CPU supports it.
pub fn active_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let forced = std::env::var("MIXMATCH_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if forced {
            return SimdTier::Scalar;
        }
        detected_tier()
    })
}

/// The best tier the hardware supports, ignoring the environment override —
/// what [`active_tier`] resolves to on an unforced process.
pub fn detected_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdTier::Avx2;
        }
    }
    SimdTier::Scalar
}

/// Picks the kernel for one packed row.
///
/// `sum_abs` is the row's `Σ|numerator|` and `max_level` the largest
/// activation value the quantizer can emit. The vector kernels are selected
/// only when every possible accumulator stays within `i32` —
/// `sum_abs × max_level ≤ i32::MAX` — which makes their 32-bit lane partial
/// sums exact and therefore bit-identical to the scalar `i64` loop.
pub fn select_kernel(tier: SimdTier, max_level: u32, sum_abs: u128) -> PackedKernel {
    if tier == SimdTier::Scalar {
        return PackedKernel::Scalar;
    }
    if sum_abs * max_level as u128 > i32::MAX as u128 {
        return PackedKernel::Scalar;
    }
    if max_level <= MADD_MAX_LEVEL {
        PackedKernel::I16x16
    } else {
        PackedKernel::I32x8
    }
}

/// 16-entry decode table for packed 4-bit codes: signed numerator plus the
/// "counts an addition when the activation is non-zero" flag per nibble.
///
/// Numerators must fit `i8` — true for every 4-bit scheme in this
/// workspace (fixed ≤ 7, P2 ≤ 64, SP2 ≤ 8) — which is what makes the
/// single-`pshufb` decode possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NibbleLut {
    nums: [i8; 16],
    adds: [u8; 16],
    has_adds: bool,
}

impl NibbleLut {
    /// Builds the table from per-nibble numerators and addability flags.
    pub fn new(nums: [i8; 16], addable: [bool; 16]) -> Self {
        let mut adds = [0u8; 16];
        for (slot, &a) in adds.iter_mut().zip(&addable) {
            *slot = a as u8;
        }
        NibbleLut {
            nums,
            adds,
            has_adds: addable.iter().any(|&a| a),
        }
    }

    /// Numerator for `nibble` (low 4 bits).
    #[inline]
    pub fn num(&self, nibble: u8) -> i64 {
        self.nums[(nibble & 0xf) as usize] as i64
    }

    /// Whether `nibble` charges an addition on a non-zero activation.
    #[inline]
    pub fn addable(&self, nibble: u8) -> bool {
        self.adds[(nibble & 0xf) as usize] != 0
    }

    /// `true` when any nibble is addable (rows without addable codes skip
    /// the per-element non-zero test entirely).
    pub fn has_adds(&self) -> bool {
        self.has_adds
    }
}

/// Widest column block the vector kernels decode per pass; callers split
/// tiles into blocks of up to this many columns so one in-register nibble
/// decode feeds several reductions.
pub const MAX_COL_BLOCK: usize = 4;

/// Reduction-length granule of the vector kernels: a `len` that is a
/// multiple of this many codes runs entirely in vector lanes, with no
/// scalar tail.
pub const K_GRANULE: usize = 16;

/// Computes `N` packed-row dot products sharing one weight decode:
/// `out[j] = (Σ_k cols[j][k] × num(code_k), Σ_k addable(code_k) & (cols[j][k] != 0))`.
///
/// `packed` holds `len` 4-bit codes, two per byte, low nibble first. Every
/// column slice must hold at least `len` activations, and `N` is at most
/// [`MAX_COL_BLOCK`] (checked at compile time). The vector kernels
/// additionally require the caller-proven `i32` accumulator bound (see
/// [`select_kernel`]); [`PackedKernel::I16x16`] also requires every
/// activation ≤ [`MADD_MAX_LEVEL`]. A vector kernel requested on hardware
/// without AVX2 silently runs the scalar path, so the function is safe to
/// call with any `kernel` value.
///
/// # Panics
///
/// Panics when `packed` holds fewer than `len` nibbles or any column is
/// shorter than `len`.
pub fn packed_dot_cols<const N: usize>(
    kernel: PackedKernel,
    lut: &NibbleLut,
    packed: &[u8],
    len: usize,
    cols: [&[u32]; N],
) -> ([i64; N], [usize; N]) {
    const { assert!(N <= MAX_COL_BLOCK, "column block wider than MAX_COL_BLOCK") };
    assert!(packed.len() * 2 >= len, "packed stream shorter than len");
    for col in &cols {
        assert!(col.len() >= len, "activation column shorter than len");
    }
    match kernel {
        PackedKernel::Scalar => {
            let mut accs = [0i64; N];
            let mut adds = [0usize; N];
            for j in 0..N {
                let (a, c) = scalar_dot_range(lut, packed, 0, len, cols[j]);
                accs[j] = a;
                adds[j] = c;
            }
            (accs, adds)
        }
        #[cfg(target_arch = "x86_64")]
        PackedKernel::I16x16 | PackedKernel::I32x8 => {
            if !std::arch::is_x86_feature_detected!("avx2") {
                return packed_dot_cols(PackedKernel::Scalar, lut, packed, len, cols);
            }
            // SAFETY: AVX2 support was just verified on this CPU.
            #[allow(unsafe_code)]
            unsafe {
                if kernel == PackedKernel::I16x16 {
                    if lut.has_adds {
                        avx2::dot_i16::<N, true>(lut, packed, len, cols)
                    } else {
                        avx2::dot_i16::<N, false>(lut, packed, len, cols)
                    }
                } else if lut.has_adds {
                    avx2::dot_i32::<N, true>(lut, packed, len, cols)
                } else {
                    avx2::dot_i32::<N, false>(lut, packed, len, cols)
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        PackedKernel::I16x16 | PackedKernel::I32x8 => {
            packed_dot_cols(PackedKernel::Scalar, lut, packed, len, cols)
        }
    }
}

/// Scalar reference reduction over codes `k0..k1` of the packed stream —
/// the exact loop the vector kernels are pinned bit-identical to, and the
/// tail handler for lengths that are not a lane-width multiple. `k0` must
/// be even (a byte boundary).
fn scalar_dot_range(
    lut: &NibbleLut,
    packed: &[u8],
    k0: usize,
    k1: usize,
    col: &[u32],
) -> (i64, usize) {
    debug_assert_eq!(k0 % 2, 0, "tail must start on a byte boundary");
    let mut acc = 0i64;
    let mut adds = 0usize;
    let mut k = k0;
    // Two codes per byte: decode both nibbles, multiply-accumulate each.
    while k + 2 <= k1 {
        let byte = packed[k / 2];
        let (a0, a1) = (col[k] as i64, col[k + 1] as i64);
        acc += a0 * lut.num(byte);
        acc += a1 * lut.num(byte >> 4);
        if lut.has_adds {
            adds += (lut.addable(byte) && a0 != 0) as usize;
            adds += (lut.addable(byte >> 4) && a1 != 0) as usize;
        }
        k += 2;
    }
    if k < k1 {
        let byte = packed[k / 2];
        let a = col[k] as i64;
        acc += a * lut.num(byte);
        if lut.has_adds {
            adds += (lut.addable(byte) && a != 0) as usize;
        }
    }
    (acc, adds)
}

/// AVX2 kernels. The whole submodule is the crate's second sanctioned
/// `unsafe` island (next to the worker-pool scoped-task transmute): every
/// function is `unsafe fn` gated on the caller having verified AVX2 at
/// runtime, and the only unsafe operations are unaligned vector loads from
/// bounds-checked slices.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::NibbleLut;
    use std::arch::x86_64::*;

    /// Decoded numerators for 16 consecutive codes, as 16 × `i8` in element
    /// order (low nibble of byte 0 first).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn decode16(table: __m128i, bytes: __m128i) -> (__m128i, __m128i) {
        let low_mask = _mm_set1_epi8(0x0f);
        let lo = _mm_and_si128(bytes, low_mask);
        let hi = _mm_and_si128(_mm_srli_epi16::<4>(bytes), low_mask);
        let even = _mm_shuffle_epi8(table, lo);
        let odd = _mm_shuffle_epi8(table, hi);
        // Interleaving even/odd byte lanes restores element order:
        // lo-nibble code 0, hi-nibble code 0, lo-nibble code 1, …
        (_mm_unpacklo_epi8(even, odd), _mm_unpackhi_epi8(even, odd))
    }

    /// Loads 16 `u32` activations starting at `col[k]` and packs them to 16
    /// unsigned 16-bit lanes in element order. Values must fit `u16`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_act16(col: &[u32], k: usize) -> __m256i {
        debug_assert!(k + 16 <= col.len());
        let a = _mm256_loadu_si256(col.as_ptr().add(k) as *const __m256i);
        let b = _mm256_loadu_si256(col.as_ptr().add(k + 8) as *const __m256i);
        // packus interleaves 128-bit halves; permute restores order.
        _mm256_permute4x64_epi64::<0b11011000>(_mm256_packus_epi32(a, b))
    }

    /// One horizontal pass over a block of up to 4 columns: the 8 `i32`
    /// lanes of each column's accumulator and add count are summed by an
    /// `hadd` tree (missing columns read as zero) and leave in one store.
    /// Exact under the row's `i32` bound: every partial sum adds a subset
    /// of the column's products.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_block<const N: usize>(
        acc: [__m256i; N],
        cnt: [__m256i; N],
    ) -> ([i64; N], [usize; N]) {
        let zero = _mm256_setzero_si256();
        let at = |v: &[__m256i; N], j: usize| if j < N { v[j] } else { zero };
        // Per 128-bit half: [Σ col0, Σ col1, Σ col2, Σ col3] over 4 lanes.
        let a = _mm256_hadd_epi32(
            _mm256_hadd_epi32(at(&acc, 0), at(&acc, 1)),
            _mm256_hadd_epi32(at(&acc, 2), at(&acc, 3)),
        );
        let c = _mm256_hadd_epi32(
            _mm256_hadd_epi32(at(&cnt, 0), at(&cnt, 1)),
            _mm256_hadd_epi32(at(&cnt, 2), at(&cnt, 3)),
        );
        // [a.lo + a.hi, c.lo + c.hi]: four accumulators, then four counts.
        let sums = _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(a, c),
            _mm256_permute2x128_si256::<0x31>(a, c),
        );
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, sums);
        (
            std::array::from_fn(|j| lanes[j] as i64),
            std::array::from_fn(|j| lanes[4 + j] as usize),
        )
    }

    /// Adds the scalar reduction of codes `k..len` — only reached when
    /// `len` is not a multiple of [`super::K_GRANULE`].
    #[inline]
    fn add_tail<const N: usize>(
        sums: &mut ([i64; N], [usize; N]),
        lut: &NibbleLut,
        packed: &[u8],
        k: usize,
        len: usize,
        cols: [&[u32]; N],
    ) {
        if k < len {
            for j in 0..N {
                let (tail_acc, tail_adds) = super::scalar_dot_range(lut, packed, k, len, cols[j]);
                sums.0[j] += tail_acc;
                sums.1[j] += tail_adds;
            }
        }
    }

    /// 16-lane kernel: `madd_epi16` over `i16` numerators × `u16`
    /// activations, `N` columns per weight decode. Caller guarantees AVX2,
    /// activations ≤ `i16::MAX`, and the per-row `i32` accumulator bound.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i16<const N: usize, const COUNT: bool>(
        lut: &NibbleLut,
        packed: &[u8],
        len: usize,
        cols: [&[u32]; N],
    ) -> ([i64; N], [usize; N]) {
        let table = _mm_loadu_si128(lut.nums.as_ptr() as *const __m128i);
        let add_table = _mm_loadu_si128(lut.adds.as_ptr() as *const __m128i);
        let ones = _mm256_set1_epi16(1);
        let zero = _mm256_setzero_si256();
        let mut acc = [zero; N];
        let mut cnt = [zero; N];
        let mut k = 0usize;
        while k + 32 <= len {
            let bytes = _mm_loadu_si128(packed.as_ptr().add(k / 2) as *const __m128i);
            let (seq0, seq1) = decode16(table, bytes);
            let n0 = _mm256_cvtepi8_epi16(seq0);
            let n1 = _mm256_cvtepi8_epi16(seq1);
            let (m0, m1) = if COUNT {
                let (s0, s1) = decode16(add_table, bytes);
                (_mm256_cvtepi8_epi16(s0), _mm256_cvtepi8_epi16(s1))
            } else {
                (zero, zero)
            };
            for j in 0..N {
                let a0 = load_act16(cols[j], k);
                let a1 = load_act16(cols[j], k + 16);
                acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(a0, n0));
                acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(a1, n1));
                if COUNT {
                    let nz0 = _mm256_andnot_si256(_mm256_cmpeq_epi16(a0, zero), ones);
                    let nz1 = _mm256_andnot_si256(_mm256_cmpeq_epi16(a1, zero), ones);
                    cnt[j] = _mm256_add_epi32(cnt[j], _mm256_madd_epi16(m0, nz0));
                    cnt[j] = _mm256_add_epi32(cnt[j], _mm256_madd_epi16(m1, nz1));
                }
            }
            k += 32;
        }
        if k + 16 <= len {
            let bytes = _mm_loadl_epi64(packed.as_ptr().add(k / 2) as *const __m128i);
            let (seq0, _) = decode16(table, bytes);
            let n0 = _mm256_cvtepi8_epi16(seq0);
            let m0 = if COUNT {
                let (s0, _) = decode16(add_table, bytes);
                _mm256_cvtepi8_epi16(s0)
            } else {
                zero
            };
            for j in 0..N {
                let a0 = load_act16(cols[j], k);
                acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(a0, n0));
                if COUNT {
                    let nz0 = _mm256_andnot_si256(_mm256_cmpeq_epi16(a0, zero), ones);
                    cnt[j] = _mm256_add_epi32(cnt[j], _mm256_madd_epi16(m0, nz0));
                }
            }
            k += 16;
        }
        let mut sums = hsum_block(acc, cnt);
        add_tail(&mut sums, lut, packed, k, len, cols);
        sums
    }

    /// 8-lane kernel: `mullo_epi32` over `i32` numerators × `u32`
    /// activations (full 16-bit activation range), `N` columns per decode.
    /// Caller guarantees AVX2 and the per-row `i32` accumulator bound.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i32<const N: usize, const COUNT: bool>(
        lut: &NibbleLut,
        packed: &[u8],
        len: usize,
        cols: [&[u32]; N],
    ) -> ([i64; N], [usize; N]) {
        let table = _mm_loadu_si128(lut.nums.as_ptr() as *const __m128i);
        let add_table = _mm_loadu_si128(lut.adds.as_ptr() as *const __m128i);
        let ones = _mm256_set1_epi32(1);
        let zero = _mm256_setzero_si256();
        let mut acc = [zero; N];
        let mut cnt = [zero; N];
        let mut k = 0usize;
        while k + 16 <= len {
            let bytes = _mm_loadl_epi64(packed.as_ptr().add(k / 2) as *const __m128i);
            let (seq, _) = decode16(table, bytes);
            let n0 = _mm256_cvtepi8_epi32(seq);
            let n1 = _mm256_cvtepi8_epi32(_mm_srli_si128::<8>(seq));
            let (m0, m1) = if COUNT {
                let (s, _) = decode16(add_table, bytes);
                (
                    _mm256_cvtepi8_epi32(s),
                    _mm256_cvtepi8_epi32(_mm_srli_si128::<8>(s)),
                )
            } else {
                (zero, zero)
            };
            for j in 0..N {
                let a0 = _mm256_loadu_si256(cols[j].as_ptr().add(k) as *const __m256i);
                let a1 = _mm256_loadu_si256(cols[j].as_ptr().add(k + 8) as *const __m256i);
                acc[j] = _mm256_add_epi32(acc[j], _mm256_mullo_epi32(a0, n0));
                acc[j] = _mm256_add_epi32(acc[j], _mm256_mullo_epi32(a1, n1));
                if COUNT {
                    let nz0 = _mm256_andnot_si256(_mm256_cmpeq_epi32(a0, zero), ones);
                    let nz1 = _mm256_andnot_si256(_mm256_cmpeq_epi32(a1, zero), ones);
                    cnt[j] = _mm256_add_epi32(cnt[j], _mm256_and_si256(m0, nz0));
                    cnt[j] = _mm256_add_epi32(cnt[j], _mm256_and_si256(m1, nz1));
                }
            }
            k += 16;
        }
        let mut sums = hsum_block(acc, cnt);
        add_tail(&mut sums, lut, packed, k, len, cols);
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    /// A LUT resembling the 4-bit schemes: mixed signs, a couple of
    /// addable entries, magnitudes up to 64.
    fn test_lut(addable_any: bool) -> NibbleLut {
        let nums: [i8; 16] = [0, 1, -2, 3, -4, 5, -6, 7, 8, -12, 16, -24, 32, -48, 64, -5];
        let mut addable = [false; 16];
        if addable_any {
            addable[3] = true;
            addable[9] = true;
            addable[14] = true;
        }
        NibbleLut::new(nums, addable)
    }

    fn random_case(
        rng: &mut TensorRng,
        len: usize,
        max_level: u32,
        zero_every: usize,
    ) -> (Vec<u8>, Vec<u32>) {
        let packed: Vec<u8> = (0..len.div_ceil(2))
            .map(|_| (rng.uniform_in(0.0, 255.9) as u32) as u8)
            .collect();
        let col: Vec<u32> = (0..len)
            .map(|i| {
                if zero_every > 0 && i % zero_every == 0 {
                    0
                } else {
                    rng.uniform_in(0.0, max_level as f32 + 0.9) as u32
                }
            })
            .collect();
        (packed, col)
    }

    /// Naive per-element reference, independent of the kernel loops.
    fn naive(lut: &NibbleLut, packed: &[u8], len: usize, col: &[u32]) -> (i64, usize) {
        let mut acc = 0i64;
        let mut adds = 0usize;
        for k in 0..len {
            let byte = packed[k / 2];
            let nib = if k % 2 == 0 { byte & 0xf } else { byte >> 4 };
            acc += col[k] as i64 * lut.num(nib);
            adds += (lut.addable(nib) && col[k] != 0) as usize;
        }
        (acc, adds)
    }

    #[test]
    fn scalar_kernel_matches_naive_reference() {
        let mut rng = TensorRng::seed_from(1);
        for &len in &[0usize, 1, 2, 3, 15, 16, 17, 31, 32, 33, 64, 100] {
            for addable in [false, true] {
                let lut = test_lut(addable);
                let (packed, col) = random_case(&mut rng, len, 15, 3);
                let (accs, adds) =
                    packed_dot_cols::<1>(PackedKernel::Scalar, &lut, &packed, len, [&col]);
                let (r_acc, r_adds) = naive(&lut, &packed, len, &col);
                assert_eq!((accs[0], adds[0]), (r_acc, r_adds), "len {len}");
            }
        }
    }

    #[test]
    fn vector_kernels_are_bit_identical_to_scalar() {
        if detected_tier() != SimdTier::Avx2 {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let mut rng = TensorRng::seed_from(2);
        for &len in &[
            1usize, 7, 15, 16, 17, 27, 31, 32, 33, 48, 63, 64, 65, 96, 577,
        ] {
            for addable in [false, true] {
                for &(kernel, max_level) in &[
                    (PackedKernel::I16x16, 15u32),
                    (PackedKernel::I16x16, MADD_MAX_LEVEL),
                    (PackedKernel::I32x8, 65535),
                ] {
                    let lut = test_lut(addable);
                    let (packed, col) = random_case(&mut rng, len, max_level, 4);
                    let scalar =
                        packed_dot_cols::<1>(PackedKernel::Scalar, &lut, &packed, len, [&col]);
                    let vector = packed_dot_cols::<1>(kernel, &lut, &packed, len, [&col]);
                    assert_eq!(vector, scalar, "kernel {kernel:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn column_blocks_match_single_column_calls() {
        let mut rng = TensorRng::seed_from(3);
        let lut = test_lut(true);
        for kernel in [
            PackedKernel::Scalar,
            PackedKernel::I16x16,
            PackedKernel::I32x8,
        ] {
            let len = 53;
            let (packed, _) = random_case(&mut rng, len, 15, 0);
            let cols: Vec<Vec<u32>> = (0..4)
                .map(|j| random_case(&mut rng, len, 15, 2 + j).1)
                .collect();
            let (accs, adds) = packed_dot_cols::<4>(
                kernel,
                &lut,
                &packed,
                len,
                [&cols[0], &cols[1], &cols[2], &cols[3]],
            );
            for j in 0..4 {
                let (a1, c1) = packed_dot_cols::<1>(kernel, &lut, &packed, len, [&cols[j]]);
                assert_eq!((accs[j], adds[j]), (a1[0], c1[0]), "{kernel:?} col {j}");
            }
        }
    }

    #[test]
    fn select_kernel_enforces_the_i32_bound() {
        // Comfortably inside the bound: vector tiers allowed.
        assert_eq!(
            select_kernel(SimdTier::Avx2, 15, 64 * 1024),
            PackedKernel::I16x16
        );
        assert_eq!(
            select_kernel(SimdTier::Avx2, 65535, 100),
            PackedKernel::I32x8
        );
        // Exactly at the bound: still allowed.
        let at = (i32::MAX as u128) / 15;
        assert_eq!(select_kernel(SimdTier::Avx2, 15, at), PackedKernel::I16x16);
        // One past: scalar.
        assert_eq!(
            select_kernel(SimdTier::Avx2, 15, at + 1),
            PackedKernel::Scalar
        );
        // Scalar tier never vectorizes.
        assert_eq!(select_kernel(SimdTier::Scalar, 15, 1), PackedKernel::Scalar);
    }

    #[test]
    fn saturated_activations_at_madd_limit_stay_exact() {
        let lut = test_lut(true);
        let len = 40;
        let packed: Vec<u8> = (0..20).map(|i| (i * 13 + 7) as u8).collect();
        let col = vec![MADD_MAX_LEVEL; len];
        let scalar = packed_dot_cols::<1>(PackedKernel::Scalar, &lut, &packed, len, [&col]);
        let vector = packed_dot_cols::<1>(PackedKernel::I16x16, &lut, &packed, len, [&col]);
        assert_eq!(vector, scalar);
        let wide = packed_dot_cols::<1>(PackedKernel::I32x8, &lut, &packed, len, [&col]);
        assert_eq!(wide, scalar);
    }
}
