//! Runtime-dispatched SIMD micro-kernel for the integer GEMM.
//!
//! The quantization schemes this workspace deploys (fixed-point, P2, SP2)
//! collapse every weight to a small signed integer *numerator*, and every
//! activation to an unsigned code of at most `act.levels()` (≤ 65535). The
//! kernel reduces a block of weight rows against a **k-pair tile** of codes:
//!
//! * a row is `Kp` `i16` numerators (`Kp` = `K` rounded up to
//!   [`K_GRANULE`], zero past `K`), read as `Kp/2` `i32` words with the
//!   even `k` in the low half;
//! * a tile is `[Kp/2][np]` `u32` words: word `(q, j)` holds patch `j`'s
//!   codes `2q` (low half) and `2q + 1` (high half), and `np` is the
//!   patch count rounded up to [`LANES`]. Lanes past the patch count and
//!   codes past `K` are zero.
//!
//! Two kernel tiers execute the same reduction:
//!
//! * [`PackedKernel::I16x16`] — AVX2: a block of up to [`ROW_BLOCK`] rows ×
//!   [`PATCH_BLOCK`] patches accumulates in 8 `madd_epi16` registers, one
//!   output per `i32` lane, so there is no horizontal reduction. Each step
//!   loads two tile vectors (16 patches × one k-pair), broadcasts each
//!   row's pair with `set1_epi32` and multiply-adds; an 8-patch block
//!   covers the tail. Outputs leave as `cvtepi32_ps × scale`, 8 per store.
//! * [`PackedKernel::Scalar`] — the portable oracle over the same tile,
//!   exact `i64` accumulation, for any numerator width
//!   ([`gemm_scalar`]). Always available, on every architecture; the
//!   reference the vector tier is pinned to.
//!
//! **Exactness.** Integer addition is associative and commutative, so lane
//! splitting produces the *same* accumulator value as the sequential
//! scalar loop — bit-identical, not approximately equal — provided no
//! intermediate wraps. `madd_epi16` reads codes as *signed* 16-bit lanes
//! and accumulates in 32 bits, so callers must prove
//! `act.levels() ≤ i16::MAX` and `Σ|numerator| × act.levels() ≤ i32::MAX`
//! per row before selecting it; [`select_kernel`] encodes exactly that rule
//! and falls back to [`PackedKernel::Scalar`] otherwise. Every lane's
//! partial sum adds a subset of the row's products, so the same bound
//! covers it, and `cvtepi32_ps` of an `i32` equals `as f32` of the same
//! value held in an `i64`.
//!
//! Dispatch is resolved once per process ([`active_tier`]): AVX2 when the
//! CPU reports it, scalar otherwise, and scalar unconditionally when the
//! `MIXMATCH_FORCE_SCALAR` environment variable is set to anything but
//! `0`/empty — the switch CI uses to run the differential suites on the
//! portable path.

use std::sync::OnceLock;

/// Maximum activation level the `madd` kernel accepts: codes are read as
/// *signed* 16-bit lanes, so they must stay within `i16::MAX`.
pub const MADD_MAX_LEVEL: u32 = i16::MAX as u32;

/// Codes per tile word and numerators per broadcast word: rows and tiles
/// are zero-padded from `K` to a multiple of this.
pub const K_GRANULE: usize = 2;

/// Patch lanes per vector: tile rows hold a multiple of this many words.
pub const LANES: usize = 8;

/// Patches per vector-kernel block (two vectors; an 8-patch block covers
/// the tail).
pub const PATCH_BLOCK: usize = 16;

/// Most rows one kernel call reduces together.
pub const ROW_BLOCK: usize = 4;

/// Instruction tier the process dispatches packed kernels to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// AVX2 vector kernels (x86-64 with runtime-detected AVX2).
    Avx2,
    /// Portable scalar kernels.
    Scalar,
}

/// The concrete kernel chosen for one row × activation-width pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedKernel {
    /// Row-blocked `i16` madd kernel (AVX2).
    I16x16,
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

/// Picks the kernel for one `i16`-numerator row.
///
/// `sum_abs` is the row's `Σ|numerator|` and `max_level` the largest
/// activation code the quantizer can emit. The vector kernel is selected
/// only when every code fits a signed 16-bit lane (`max_level ≤`
/// [`MADD_MAX_LEVEL`]) and every possible accumulator stays within `i32`
/// (`sum_abs × max_level ≤ i32::MAX`), which makes its 32-bit lane sums
/// exact and therefore bit-identical to the scalar `i64` loop.
pub fn select_kernel(tier: SimdTier, max_level: u32, sum_abs: u128) -> PackedKernel {
    if tier == SimdTier::Scalar
        || max_level > MADD_MAX_LEVEL
        || sum_abs * max_level as u128 > i32::MAX as u128
    {
        return PackedKernel::Scalar;
    }
    PackedKernel::I16x16
}

/// Reduces up to [`ROW_BLOCK`] `i16` rows against a k-pair tile:
/// `out[r·out_stride + j] = (Σ_k rows[r][k] × code(k, j)) as f32 × scales[r]`
/// for `j < n`. See the [module docs](self) for the row and tile layouts.
///
/// [`PackedKernel::I16x16`] requires the caller-proven bounds of
/// [`select_kernel`]; requested on hardware without AVX2 it runs the
/// scalar oracle, so the function is safe to call with any `kernel`.
///
/// # Panics
///
/// Panics on more than [`ROW_BLOCK`] rows, or on any layout mismatch that
/// [`gemm_scalar`] refuses.
#[allow(clippy::too_many_arguments)]
pub fn gemm_pairs(
    kernel: PackedKernel,
    rows: &[&[i16]],
    scales: &[f32],
    tile: &[u32],
    np: usize,
    n: usize,
    out: &mut [f32],
    out_stride: usize,
) {
    assert!(rows.len() <= ROW_BLOCK, "row block wider than ROW_BLOCK");
    let pairs = check_layout(rows, scales, tile, np, n, out, out_stride);
    match kernel {
        #[cfg(target_arch = "x86_64")]
        PackedKernel::I16x16 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: AVX2 support was just verified on this CPU, and
            // `check_layout` proved every load and store in bounds.
            #[allow(unsafe_code)]
            unsafe {
                match rows.len() {
                    1 => avx2::gemm_i16::<1>(rows, scales, tile, np, n, pairs, out, out_stride),
                    2 => avx2::gemm_i16::<2>(rows, scales, tile, np, n, pairs, out, out_stride),
                    3 => avx2::gemm_i16::<3>(rows, scales, tile, np, n, pairs, out, out_stride),
                    4 => avx2::gemm_i16::<4>(rows, scales, tile, np, n, pairs, out, out_stride),
                    _ => {}
                }
            }
        }
        _ => gemm_scalar(rows, scales, tile, np, n, out, out_stride),
    }
}

/// The portable oracle of [`gemm_pairs`], for rows of any numerator width
/// and any number of rows: the same tile, the same outputs, exact `i64`
/// accumulation (the caller proves `Σ|numerator| × max code ≤ i64::MAX`).
///
/// # Panics
///
/// Panics when `scales` does not hold one scale per row, the rows differ
/// in length or hold an odd number of numerators, `np` is not a multiple
/// of [`LANES`] or is smaller than `n`, `tile` is shorter than
/// `Kp/2 × np` words, or `out` is shorter than `[rows, out_stride]` with
/// `n` outputs in the last row.
pub fn gemm_scalar<W: Copy + Into<i64>>(
    rows: &[&[W]],
    scales: &[f32],
    tile: &[u32],
    np: usize,
    n: usize,
    out: &mut [f32],
    out_stride: usize,
) {
    check_layout(rows, scales, tile, np, n, out, out_stride);
    for (r, (row, &scale)) in rows.iter().zip(scales).enumerate() {
        let dst = &mut out[r * out_stride..][..n];
        for (j0, block) in (0..n).step_by(LANES).zip(dst.chunks_mut(LANES)) {
            let mut acc = [0i64; LANES];
            for (q, pair) in row.chunks_exact(2).enumerate() {
                let (lo, hi): (i64, i64) = (pair[0].into(), pair[1].into());
                for (a, &word) in acc.iter_mut().zip(&tile[q * np + j0..][..LANES]) {
                    *a += (word & 0xffff) as i64 * lo + (word >> 16) as i64 * hi;
                }
            }
            for (y, &a) in block.iter_mut().zip(&acc) {
                *y = a as f32 * scale;
            }
        }
    }
}

/// Checks the layout both kernels share and returns the k-pair count.
fn check_layout<W>(
    rows: &[&[W]],
    scales: &[f32],
    tile: &[u32],
    np: usize,
    n: usize,
    out: &[f32],
    out_stride: usize,
) -> usize {
    assert_eq!(rows.len(), scales.len(), "one scale per row");
    let len = rows.first().map_or(0, |r| r.len());
    assert!(
        len.is_multiple_of(2) && rows.iter().all(|r| r.len() == len),
        "rows must hold the same even number of numerators"
    );
    assert!(
        np.is_multiple_of(LANES) && n <= np,
        "np must be n rounded up to LANES"
    );
    let pairs = len / 2;
    assert!(
        tile.len() >= pairs * np,
        "tile shorter than Kp/2 × np words"
    );
    assert!(
        rows.is_empty() || (rows.len() - 1) * out_stride + n <= out.len(),
        "output buffer too short for [rows, out_stride]"
    );
    pairs
}

/// The AVX2 kernel. The whole submodule is the crate's second sanctioned
/// `unsafe` island (next to the worker-pool scoped-task transmute): every
/// function is `unsafe fn` gated on the caller having verified AVX2 at
/// runtime, the loads read within slices whose lengths the safe wrapper
/// checked, and the stores go through bounds-checked slices.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    /// `R` rows against the tile, 16 patches per block plus an 8-patch
    /// tail. Caller guarantees AVX2, the layout `check_layout` checks,
    /// codes ≤ `i16::MAX` and each row's `i32` bound.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_i16<const R: usize>(
        rows: &[&[i16]],
        scales: &[f32],
        tile: &[u32],
        np: usize,
        n: usize,
        pairs: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        let weights: [*const i32; R] = std::array::from_fn(|r| rows[r].as_ptr() as *const i32);
        let mut scale = [_mm256_setzero_ps(); R];
        for r in 0..R {
            scale[r] = _mm256_set1_ps(scales[r]);
        }
        let mut j = 0;
        while j < n {
            // `np` is `n` rounded up to 8, so a block past `j + 8` has 16
            // lanes of tile.
            let mut t = tile.as_ptr().add(j);
            if j + 8 < n {
                let mut acc = [[_mm256_setzero_si256(); 2]; R];
                for q in 0..pairs {
                    let a0 = _mm256_loadu_si256(t as *const __m256i);
                    let a1 = _mm256_loadu_si256(t.add(8) as *const __m256i);
                    for r in 0..R {
                        let w = _mm256_set1_epi32(weights[r].add(q).read_unaligned());
                        acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(a0, w));
                        acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(a1, w));
                    }
                    t = t.add(np);
                }
                for r in 0..R {
                    store(out, r * out_stride + j, n - j, acc[r][0], scale[r]);
                    store(out, r * out_stride + j + 8, n - j - 8, acc[r][1], scale[r]);
                }
                j += 16;
            } else {
                let mut acc = [_mm256_setzero_si256(); R];
                for q in 0..pairs {
                    let a = _mm256_loadu_si256(t as *const __m256i);
                    for r in 0..R {
                        let w = _mm256_set1_epi32(weights[r].add(q).read_unaligned());
                        acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(a, w));
                    }
                    t = t.add(np);
                }
                for r in 0..R {
                    store(out, r * out_stride + j, n - j, acc[r], scale[r]);
                }
                j += 8;
            }
        }
    }

    /// Stores `min(count, 8)` outputs `acc as f32 × scale` at `out[at..]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(out: &mut [f32], at: usize, count: usize, acc: __m256i, scale: __m256) {
        let y = _mm256_mul_ps(_mm256_cvtepi32_ps(acc), scale);
        if count >= 8 {
            _mm256_storeu_ps(out[at..at + 8].as_mut_ptr(), y);
        } else {
            let mut lanes = [0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), y);
            out[at..at + count].copy_from_slice(&lanes[..count]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    /// A random block: `rows` rows of `kp` numerators within `±max_num`
    /// (zero past `k`), and a `[kp/2][np]` tile of `n` patches' codes up
    /// to `max_level`, every `zero_every`-th one zero.
    fn random_block(
        rng: &mut TensorRng,
        (rows, k, n): (usize, usize, usize),
        max_num: i16,
        max_level: u32,
    ) -> (Vec<Vec<i16>>, Vec<u32>, usize) {
        let kp = k.next_multiple_of(K_GRANULE);
        let np = n.next_multiple_of(LANES);
        let nums = (0..rows)
            .map(|_| {
                (0..kp)
                    .map(|i| {
                        if i < k {
                            rng.uniform_in(-(max_num as f32), max_num as f32 + 0.9) as i16
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        let mut tile = vec![0u32; kp / 2 * np];
        for kk in 0..k {
            for j in 0..n {
                let code = if (kk + j) % 4 == 0 {
                    0
                } else {
                    rng.uniform_in(0.0, max_level as f32 + 0.9) as u32
                };
                tile[kk / 2 * np + j] |= code.min(max_level) << (16 * (kk % 2));
            }
        }
        (nums, tile, np)
    }

    /// Naive per-element reference, independent of both kernels' loops.
    fn naive(nums: &[Vec<i16>], tile: &[u32], np: usize, n: usize, scales: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        for (row, &scale) in nums.iter().zip(scales) {
            for j in 0..n {
                let acc: i64 = (0..row.len())
                    .map(|k| {
                        let code = (tile[k / 2 * np + j] >> (16 * (k % 2))) & 0xffff;
                        code as i64 * row[k] as i64
                    })
                    .sum();
                out.push(acc as f32 * scale);
            }
        }
        out
    }

    /// Runs `kernel` over `nums` with `out_stride = n`.
    fn run(kernel: PackedKernel, nums: &[Vec<i16>], tile: &[u32], np: usize, n: usize) -> Vec<f32> {
        let scales: Vec<f32> = (0..nums.len()).map(|r| 0.013 * (r + 1) as f32).collect();
        let mut out = vec![f32::NAN; nums.len() * n];
        for (block, (chunk, sc)) in out
            .chunks_mut(ROW_BLOCK * n)
            .zip(nums.chunks(ROW_BLOCK).zip(scales.chunks(ROW_BLOCK)))
        {
            let rows: Vec<&[i16]> = chunk.iter().map(|r| &r[..]).collect();
            gemm_pairs(kernel, &rows, sc, tile, np, n, block, n);
        }
        out
    }

    #[test]
    fn scalar_kernel_matches_naive_reference() {
        let mut rng = TensorRng::seed_from(1);
        for &(rows, k, n) in &[(1, 0, 1), (1, 1, 1), (3, 7, 5), (4, 32, 16), (9, 77, 33)] {
            let (nums, tile, np) = random_block(&mut rng, (rows, k, n), 64, 15);
            let scales: Vec<f32> = (0..rows).map(|r| 0.013 * (r + 1) as f32).collect();
            assert_eq!(
                run(PackedKernel::Scalar, &nums, &tile, np, n),
                naive(&nums, &tile, np, n, &scales),
                "rows {rows} k {k} n {n}"
            );
        }
    }

    #[test]
    fn vector_kernels_are_bit_identical_to_scalar() {
        if detected_tier() != SimdTier::Avx2 {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let mut rng = TensorRng::seed_from(2);
        // Ragged rows (1–9), n (1–40) and Kp (16–304), at 4-bit codes and
        // at the `madd` ceiling.
        for rows in 1..=9 {
            for &n in &[1usize, 7, 8, 9, 15, 16, 17, 24, 31, 33, 40] {
                for &k in &[16usize, 17, 31, 144, 303] {
                    for max_level in [15, MADD_MAX_LEVEL] {
                        let (nums, tile, np) = random_block(&mut rng, (rows, k, n), 64, max_level);
                        assert_eq!(
                            run(PackedKernel::I16x16, &nums, &tile, np, n),
                            run(PackedKernel::Scalar, &nums, &tile, np, n),
                            "rows {rows} n {n} k {k} level {max_level}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn saturated_activations_at_madd_limit_stay_exact() {
        // Every code at 32767 against numerators whose Σ|num| × 32767 is
        // exactly the largest multiple of 32767 within i32::MAX: the
        // accumulator peaks at the bound, in both signs.
        let max_sum = (i32::MAX as u32 / MADD_MAX_LEVEL) as usize; // 65538
        assert_eq!(
            select_kernel(SimdTier::Avx2, MADD_MAX_LEVEL, max_sum as u128),
            PackedKernel::I16x16
        );
        let k = max_sum.div_ceil(i16::MAX as usize);
        let n = 19usize;
        let np = n.next_multiple_of(LANES);
        let mut left = max_sum;
        let row: Vec<i16> = (0..k.next_multiple_of(K_GRANULE))
            .map(|_| {
                let v = left.min(i16::MAX as usize);
                left -= v;
                v as i16
            })
            .collect();
        let negated: Vec<i16> = row.iter().map(|&v| -v).collect();
        let word = MADD_MAX_LEVEL | MADD_MAX_LEVEL << 16;
        let mut tile = vec![0u32; row.len() / 2 * np];
        for q in 0..row.len() / 2 {
            tile[q * np..q * np + n].fill(word);
        }
        let nums = vec![row, negated];
        let scalar = run(PackedKernel::Scalar, &nums, &tile, np, n);
        let peak = (max_sum as i64 * MADD_MAX_LEVEL as i64) as f32 * 0.013;
        assert_eq!(scalar[0], peak);
        assert_eq!(run(PackedKernel::I16x16, &nums, &tile, np, n), scalar);
    }

    #[test]
    fn column_blocks_match_single_column_calls() {
        // A tile of 33 patches (two 16-patch blocks and an 8-lane tail)
        // equals each patch reduced as a one-patch tile of its own.
        let mut rng = TensorRng::seed_from(4);
        let n = 33;
        let (nums, tile, np) = random_block(&mut rng, (4, 45, n), 64, 15);
        for kernel in [PackedKernel::Scalar, PackedKernel::I16x16] {
            let full = run(kernel, &nums, &tile, np, n);
            for j in 0..n {
                let column: Vec<u32> = tile
                    .chunks(np)
                    .flat_map(|row| [row[j], 0, 0, 0, 0, 0, 0, 0])
                    .collect();
                let single = run(kernel, &nums, &column, LANES, 1);
                for r in 0..4 {
                    assert_eq!(single[r], full[r * n + j], "{kernel:?} row {r} patch {j}");
                }
            }
        }
    }

    #[test]
    fn select_kernel_enforces_the_i32_bound() {
        // Comfortably inside the bound: the vector kernel is allowed.
        assert_eq!(
            select_kernel(SimdTier::Avx2, 15, 64 * 1024),
            PackedKernel::I16x16
        );
        // Levels above i16::MAX (16-bit activations) select Scalar,
        // however small the row.
        assert_eq!(
            select_kernel(SimdTier::Avx2, 65535, 1),
            PackedKernel::Scalar
        );
        assert_eq!(
            select_kernel(SimdTier::Avx2, MADD_MAX_LEVEL + 1, 1),
            PackedKernel::Scalar
        );
        // Exactly at the bound: still allowed; one past: scalar.
        for level in [15, MADD_MAX_LEVEL] {
            let at = (i32::MAX as u128) / level as u128;
            assert_eq!(
                select_kernel(SimdTier::Avx2, level, at),
                PackedKernel::I16x16
            );
            assert_eq!(
                select_kernel(SimdTier::Avx2, level, at + 1),
                PackedKernel::Scalar
            );
        }
        // Scalar tier never vectorizes.
        assert_eq!(select_kernel(SimdTier::Scalar, 15, 1), PackedKernel::Scalar);
    }

    #[test]
    fn wide_numerators_run_the_generic_oracle() {
        // i64 rows through `gemm_scalar` equal the same values as i16
        // rows through either tier.
        let mut rng = TensorRng::seed_from(3);
        let (nums, tile, np) = random_block(&mut rng, (3, 53, 21), 64, 255);
        let wide: Vec<Vec<i64>> = nums
            .iter()
            .map(|r| r.iter().map(|&v| v as i64).collect())
            .collect();
        let rows: Vec<&[i64]> = wide.iter().map(|r| &r[..]).collect();
        let scales = [0.013, 0.026, 0.039];
        let mut out = vec![0.0; 3 * 21];
        gemm_scalar(&rows, &scales, &tile, np, 21, &mut out, 21);
        assert_eq!(out, run(PackedKernel::Scalar, &nums, &tile, np, 21));
        assert_eq!(out, run(PackedKernel::I16x16, &nums, &tile, np, 21));
    }
}
