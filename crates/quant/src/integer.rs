//! Bit-exact integer inference kernels.
//!
//! [`QuantizedMatrix`] is the deployment form of an MSQ-quantized weight
//! matrix: per-row hardware codes plus per-row `α`. Its
//! [`matvec`](QuantizedMatrix::matvec) runs entirely in integer arithmetic —
//! DSP-style multiplies for fixed rows, shift/add for SP2 rows — and is the
//! functional model the FPGA simulator (and Table I's operation analysis)
//! rests on. A float reference path exists purely to validate exactness.
//!
//! [`GemmPlan`] compiles a matrix once for batched execution, in the
//! paper's processing-element form: every row keeps its exact integer
//! numerators — as `i16` pairs (2 bytes per weight) that the row-blocked
//! kernel of [`mixmatch_tensor::simd`] broadcasts against a tile of
//! activation-code pairs, or as `i64` when a numerator is wider — plus the
//! `k` of its two-term SP2 codes, whose adds are charged per tile from the
//! tile's non-zero census rather than inside the kernel.

use crate::codes::{OpCounts, WeightCode};
use crate::error::QuantError;
use crate::graph::{apply_epilogue, Epilogue};
use crate::msq::SchemeBooks;
use crate::rowwise::RowAssignment;
use crate::schemes::Scheme;
use mixmatch_tensor::simd::{self, PackedKernel, SimdTier, K_GRANULE, LANES, ROW_BLOCK};
use mixmatch_tensor::Tensor;
use std::ops::Range;

/// Uniform unsigned quantizer for activations (the paper's n-bit fixed-point
/// activation format): maps `[0, clip]` to integers `0..=2^bits − 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActQuantizer {
    /// Activation bit-width.
    pub bits: u32,
    /// Clip threshold; values above saturate.
    pub clip: f32,
}

impl ActQuantizer {
    /// Creates the quantizer.
    ///
    /// # Panics
    ///
    /// Panics when `clip <= 0` or `bits` is outside `2..=16`.
    pub fn new(bits: u32, clip: f32) -> Self {
        assert!(clip > 0.0, "clip must be positive");
        assert!((2..=16).contains(&bits), "activation bits out of range");
        ActQuantizer { bits, clip }
    }

    /// Number of non-zero integer levels (`2^bits − 1`).
    pub fn levels(&self) -> u32 {
        (1 << self.bits) - 1
    }

    /// Real value represented per integer step.
    pub fn step(&self) -> f32 {
        self.clip / self.levels() as f32
    }

    /// Quantizes one activation to its integer level: `x` clamped to
    /// `[0, clip]`, divided by [`step`](Self::step), and rounded half away
    /// from zero — bit-identical to `(c / step).round()`, with no libm call
    /// and no saturating float-to-int cast, so loops over this body
    /// vectorise.
    ///
    /// The scaled value `y` lies in `[0, levels] ⊂ [0, 2^23)`, so
    /// `m = y + 2^23` holds `2^23 + n` exactly, where `n` is `y` rounded to
    /// nearest-even: the low bits of `m` are `n`, and `m − 2^23` is `n` as
    /// an `f32`. `y − n` is exact (the operands are within 0.5 of each
    /// other), and it is exactly 0.5 only on the ties nearest-even rounded
    /// down to an even `n`; adding 1 there rounds them away from zero.
    ///
    /// `NaN` maps deterministically to level 0 (the hardware treats a
    /// malformed activation as silence, not saturation): `f32::max`
    /// returns its non-`NaN` operand, so a `NaN` input clamps to 0.0 before
    /// the divide. Only a degenerate clip (infinite, or so small that
    /// `step` is subnormal) can make the quotient `NaN` (`0/0`, `∞/∞`) or
    /// overshoot `levels`; those pin to 0 and `levels`, so every code is at
    /// most `levels()` and `quantize_one(0.0)` is 0 for every quantizer.
    #[inline]
    pub fn quantize_one(&self, x: f32) -> u32 {
        const SHIFT: f32 = 8_388_608.0; // 2^23
        let y = x.max(0.0).min(self.clip) / self.step();
        let y = if y >= 0.0 {
            y.min(self.levels() as f32)
        } else {
            0.0
        };
        let m = y + SHIFT;
        (m.to_bits() - SHIFT.to_bits()) + (y - (m - SHIFT) >= 0.5) as u32
    }

    /// Quantizes a slice of activations to integers.
    pub fn quantize(&self, xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|&x| self.quantize_one(x)).collect()
    }

    /// Quantizes `xs` into the equally long code slice `out` — the
    /// allocation-free path batched-inference workers take once per GEMM
    /// input (each row of a conv's input map, or a dense layer's vector).
    /// Every code is at most `levels()`, so it fits `u16` for every
    /// quantizer of `2..=16` bits.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != xs.len()`.
    #[inline]
    pub fn quantize_into(&self, xs: &[f32], out: &mut [u16]) {
        assert_eq!(out.len(), xs.len(), "code slice length mismatch");
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.quantize_one(x) as u16;
        }
    }

    /// Dequantizes integers back to real values.
    pub fn dequantize(&self, qs: &[u32]) -> Vec<f32> {
        qs.iter().map(|&q| q as f32 * self.step()).collect()
    }
}

/// One row of quantized weights: codes + scale.
#[derive(Debug, Clone)]
struct QuantRow {
    scheme: Scheme,
    alpha: f32,
    /// Integer denominator shared by every code in the row.
    denominator: u128,
    codes: Vec<WeightCode>,
}

/// A weight matrix in deployment (integer-code) form.
///
/// # Example
///
/// ```
/// use mixmatch_quant::integer::{ActQuantizer, QuantizedMatrix};
/// use mixmatch_quant::msq::MsqPolicy;
/// use mixmatch_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let w = Tensor::randn(&[4, 16], &mut rng);
/// let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_half());
/// let act = ActQuantizer::new(4, 1.0);
/// let x: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
/// let (y, ops) = qm.matvec(&act.quantize(&x), &act);
/// assert_eq!(y.len(), 4);
/// assert!(ops.shifts > 0 || ops.mults > 0);
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    rows: Vec<QuantRow>,
    cols: usize,
}

impl QuantizedMatrix {
    /// Quantizes a float matrix under `policy` and encodes it.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is not rank-2.
    pub fn from_float(weight: &Tensor, policy: &crate::msq::MsqPolicy) -> Self {
        let assignment = policy.assignment_for(weight);
        Self::encode(weight, &assignment, policy.bits, policy.alpha)
    }

    /// Quantizes with an explicit row assignment at per-group α.
    ///
    /// # Panics
    ///
    /// Panics on rank/row-count mismatch.
    pub fn from_float_with_assignment(
        weight: &Tensor,
        assignment: &RowAssignment,
        bits: u32,
    ) -> Self {
        Self::encode(
            weight,
            assignment,
            bits,
            crate::msq::AlphaGranularity::PerGroup,
        )
    }

    /// Quantizes with an explicit row assignment and α granularity — the
    /// pipeline path, which reuses the training-time assignment instead of
    /// re-ranking rows of the already-projected weights.
    ///
    /// # Panics
    ///
    /// Panics on rank/row-count mismatch.
    pub fn from_float_with(
        weight: &Tensor,
        assignment: &RowAssignment,
        bits: u32,
        granularity: crate::msq::AlphaGranularity,
    ) -> Self {
        Self::encode(weight, assignment, bits, granularity)
    }

    fn encode(
        weight: &Tensor,
        assignment: &RowAssignment,
        bits: u32,
        granularity: crate::msq::AlphaGranularity,
    ) -> Self {
        assert_eq!(weight.shape().rank(), 2, "weights must be [rows, cols]");
        let books = SchemeBooks::new(bits);
        let (q, info) = crate::msq::project_rowwise_with(weight, assignment, bits, granularity);
        let cols = weight.dims()[1];
        let mut rows = Vec::with_capacity(assignment.rows());
        for r in 0..assignment.rows() {
            let scheme = info[r].scheme;
            let alpha = info[r].alpha;
            let cb = books.get(scheme);
            let codes: Vec<WeightCode> = q
                .row(r)
                .iter()
                .map(|&w| {
                    if alpha == 0.0 {
                        cb.nearest(0.0).code
                    } else {
                        cb.nearest(w / alpha).code
                    }
                })
                .collect();
            let denominator = codes.first().map(|c| c.denominator()).unwrap_or(1);
            rows.push(QuantRow {
                scheme,
                alpha,
                denominator,
                codes,
            });
        }
        QuantizedMatrix { rows, cols }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Scheme of row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn row_scheme(&self, r: usize) -> Scheme {
        self.rows[r].scheme
    }

    /// The dequantized float matrix (for validation against the float path).
    pub fn to_float(&self) -> Tensor {
        let mut t = Tensor::zeros(&[self.rows(), self.cols]);
        for (r, row) in self.rows.iter().enumerate() {
            for (c, code) in row.codes.iter().enumerate() {
                t.set(&[r, c], row.alpha * code.value());
            }
        }
        t
    }

    /// Integer matrix–vector product against quantized activations.
    ///
    /// Per row, the integer accumulator collects
    /// `Σ_k activation_k × code_k × denominator` exactly; the single float
    /// scaling at the end multiplies by `α × step / denominator`. Returns the
    /// real-valued outputs and the total hardware operation counts.
    ///
    /// # Panics
    ///
    /// Panics when `activations.len() != cols`.
    pub fn matvec(&self, activations: &[u32], act: &ActQuantizer) -> (Vec<f32>, OpCounts) {
        assert_eq!(activations.len(), self.cols, "activation length mismatch");
        let mut out = Vec::with_capacity(self.rows());
        let mut ops = OpCounts::default();
        for row in &self.rows {
            let mut acc = 0i64;
            for (code, &a) in row.codes.iter().zip(activations) {
                ops = ops.merge(code.mac(a, &mut acc));
            }
            let scale = row.alpha * act.step() / row.denominator as f32;
            out.push(acc as f32 * scale);
        }
        (out, ops)
    }

    /// Integer matrix–matrix product: `activations` is `[cols, n]`
    /// column-major-free (row-major `[cols][n]` as a flat slice). Returns a
    /// `[rows, n]` tensor.
    ///
    /// # Panics
    ///
    /// Panics when the activation slice length is not a multiple of `cols`.
    pub fn matmul(&self, activations: &[u32], n: usize, act: &ActQuantizer) -> (Tensor, OpCounts) {
        assert_eq!(
            activations.len(),
            self.cols * n,
            "activation matrix must be cols × n"
        );
        let mut out = Tensor::zeros(&[self.rows(), n]);
        let mut ops = OpCounts::default();
        for j in 0..n {
            let col: Vec<u32> = (0..self.cols).map(|k| activations[k * n + j]).collect();
            let (y, o) = self.matvec(&col, act);
            ops = ops.merge(o);
            for (r, &v) in y.iter().enumerate() {
                out.set(&[r, j], v);
            }
        }
        (out, ops)
    }

    /// Integer product of **one row** against an activation matrix
    /// `[cols, n]` (flat, row-major) — the depthwise-deployment primitive
    /// where each output channel owns a private patch matrix.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range or the activation slice is not
    /// `cols × n`.
    pub fn matmul_row(
        &self,
        r: usize,
        activations: &[u32],
        n: usize,
        act: &ActQuantizer,
    ) -> (Vec<f32>, OpCounts) {
        assert!(r < self.rows(), "row index out of range");
        assert_eq!(
            activations.len(),
            self.cols * n,
            "activation matrix must be cols × n"
        );
        let row = &self.rows[r];
        let scale = row.alpha * act.step() / row.denominator as f32;
        let mut out = Vec::with_capacity(n);
        let mut ops = OpCounts::default();
        for j in 0..n {
            let mut acc = 0i64;
            for (k, code) in row.codes.iter().enumerate() {
                ops = ops.merge(code.mac(activations[k * n + j], &mut acc));
            }
            out.push(acc as f32 * scale);
        }
        (out, ops)
    }

    /// Serialises a 4-bit matrix into the packed deployment format
    /// (two codes per byte plus per-row `(scheme, α)` metadata) — the
    /// paper's "8× compression" in concrete bytes.
    ///
    /// # Panics
    ///
    /// Panics when the matrix was not quantized at 4 bits.
    pub fn pack(&self) -> PackedMatrix {
        let mut data = Vec::new();
        let mut row_meta = Vec::with_capacity(self.rows());
        for row in &self.rows {
            row_meta.push((row.scheme, row.alpha));
            data.extend(crate::export::pack_nibbles(&row.codes));
        }
        PackedMatrix {
            rows: self.rows(),
            cols: self.cols,
            row_meta,
            data,
        }
    }

    /// Compiles the per-row code plans once for batched execution: every
    /// [`WeightCode`] collapses to its exact integer numerator, so the
    /// engine's inner loop is a plain integer dot product instead of an enum
    /// dispatch per element. Rows whose numerators all fit `i16` (every
    /// 4-bit row) keep them as the pairs the vector kernel broadcasts, rows
    /// with wider numerators become `i64` numerators for the scalar oracle,
    /// and each row records its worst-case accumulator magnitude for
    /// [`GemmPlan::check_act`] and the `k` of its two-term SP2 codes for the
    /// add census. Every row is zero-padded to a multiple of [`K_GRANULE`]
    /// codes. See [`GemmPlan`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Overflow`] when a code's numerator itself
    /// exceeds the `i64` accumulator — possible only for adversarially wide
    /// P2 codebooks (`2^{bits−1} − 2 ≥ 63` shift positions), which the
    /// previous implementation silently wrapped on.
    pub fn try_plan(&self) -> Result<GemmPlan, QuantError> {
        let rows = self
            .rows
            .iter()
            .enumerate()
            .map(|(r, row)| plan_row(r, row))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GemmPlan {
            rows,
            cols: self.cols,
            tier: simd::active_tier(),
        })
    }

    /// Ops for one full matrix–vector pass, split per scheme — the data behind
    /// the Table I comparison at matrix granularity.
    pub fn op_profile(&self) -> (OpCounts, OpCounts) {
        let mut fixed = OpCounts::default();
        let mut shift = OpCounts::default();
        let probe = 1u32;
        for row in &self.rows {
            let mut acc = 0i64;
            let mut row_ops = OpCounts::default();
            for code in &row.codes {
                row_ops = row_ops.merge(code.mac(probe, &mut acc));
            }
            match row.scheme {
                Scheme::Fixed => fixed = fixed.merge(row_ops),
                _ => shift = shift.merge(row_ops),
            }
        }
        (fixed, shift)
    }
}

/// Collapses one code to `(numerator, activation-independent ops, add-mask)`
/// such that `acc += activation × numerator` reproduces
/// [`WeightCode::mac`]'s accumulator update exactly, and the op counts
/// reproduce its accounting: the only activation-*dependent* count is the
/// SP2 two-term add, which `mac` charges iff the activation is non-zero.
///
/// `None` when the numerator cannot be represented in the `i64` accumulator
/// (a P2 shift of 63+ positions) — the caller turns this into a typed
/// [`QuantError::Overflow`] instead of the silent wrap the old plan
/// compiler performed.
fn try_plan_code(code: &WeightCode) -> Option<(i64, OpCounts, bool)> {
    match *code {
        WeightCode::Fixed {
            sign, magnitude, ..
        } => Some((
            sign as i64 * magnitude as i64,
            OpCounts {
                mults: 1,
                ..OpCounts::default()
            },
            false,
        )),
        WeightCode::Pow2 {
            sign,
            exponent,
            max_exponent,
        } => {
            if sign == 0 {
                return Some((0, OpCounts::default(), false));
            }
            let shift = max_exponent - exponent;
            if shift > 62 {
                return None;
            }
            Some((
                sign as i64 * (1i64 << shift),
                OpCounts {
                    shifts: 1,
                    ..OpCounts::default()
                },
                false,
            ))
        }
        WeightCode::Sp2 { sign, e1, e2, exps } => {
            if sign == 0 {
                return Some((0, OpCounts::default(), false));
            }
            let d = exps.denom_log2();
            let mut num = 0i64;
            let mut shifts = 0usize;
            for e in [e1, e2].into_iter().flatten() {
                if d - e > 62 {
                    return None;
                }
                num = num.checked_add(1i64 << (d - e))?;
                shifts += 1;
            }
            Some((
                sign as i64 * num,
                OpCounts {
                    shifts,
                    ..OpCounts::default()
                },
                e1.is_some() && e2.is_some(),
            ))
        }
    }
}

/// Compiles one quantized row: numerators, op tally, worst-case accumulator
/// bound, and the `k` indices of its two-term SP2 codes. The numerators are
/// zero-padded from `K` to the next multiple of [`K_GRANULE`]. Only zero
/// activation codes ever meet the padding, and a zero code adds 0 to the
/// accumulator and charges no add whatever the weight, so outputs and op
/// counts are those of the unpadded row. A row whose numerators all fit
/// `i16` keeps them as the pairs the vector kernel broadcasts; a wider
/// numerator keeps the whole row in `i64` for the scalar oracle.
fn plan_row(r: usize, row: &QuantRow) -> Result<PlannedRow, QuantError> {
    let padded = row.codes.len().next_multiple_of(K_GRANULE);
    let mut nums = Vec::with_capacity(padded);
    let mut addable = Vec::new();
    let mut base_ops = OpCounts::default();
    let mut sum_abs: u128 = 0;
    for (k, code) in row.codes.iter().enumerate() {
        let (num, ops, add) = try_plan_code(code)
            .ok_or_else(|| QuantError::overflow(r, pow2_bound(code), i64::MAX as u128))?;
        nums.push(num);
        if add {
            addable.push(k as u32);
        }
        base_ops = base_ops.merge(ops);
        sum_abs += num.unsigned_abs() as u128;
    }
    nums.resize(padded, 0);
    let nums = match nums.iter().map(|&v| i16::try_from(v)).collect() {
        Ok(pairs) => RowNums::Pairs(pairs),
        Err(_) => RowNums::Wide(nums),
    };
    Ok(PlannedRow {
        nums,
        addable,
        alpha: row.alpha,
        denominator: row.denominator,
        base_ops,
        sum_abs,
    })
}

/// Worst-case magnitude of an unrepresentable P2/SP2 numerator, for the
/// overflow diagnostic.
fn pow2_bound(code: &WeightCode) -> u128 {
    match *code {
        WeightCode::Pow2 {
            exponent,
            max_exponent,
            ..
        } => 1u128 << (max_exponent - exponent).min(127),
        WeightCode::Sp2 { e1, exps, .. } => {
            let e = e1.unwrap_or(1);
            1u128 << (exps.denom_log2().saturating_sub(e)).min(127)
        }
        WeightCode::Fixed { magnitude, .. } => magnitude as u128,
    }
}

/// One row of a [`GemmPlan`]: the numerators plus the row scale inputs,
/// the activation-independent op tally for one pass, the worst-case
/// accumulator magnitude per unit activation, and where the row charges
/// activation-dependent adds.
#[derive(Debug, Clone)]
struct PlannedRow {
    nums: RowNums,
    /// `k` of every two-term SP2 code: each charges one add per non-zero
    /// activation, matching [`WeightCode::mac`].
    addable: Vec<u32>,
    alpha: f32,
    denominator: u128,
    base_ops: OpCounts,
    /// `Σ_k |numerator_k|`: multiplied by the activation ceiling this bounds
    /// the accumulator statically ([`GemmPlan::check_act`]) and decides
    /// whether the vector kernel provably cannot wrap.
    sum_abs: u128,
}

/// A planned row's numerators, zero-padded to a multiple of [`K_GRANULE`]
/// (see [`plan_row`]).
#[derive(Debug, Clone)]
enum RowNums {
    /// Every numerator fits `i16`: the vector kernel reads them as `i32`
    /// pairs, even `k` in the low half (2 bytes per weight).
    Pairs(Vec<i16>),
    /// Some numerator is wider: `i64`s for the scalar oracle.
    Wide(Vec<i64>),
}

/// The kernel one compiled row runs under a plan's tier and an activation
/// quantizer — the same selection the engine makes, and the label
/// `mixmatch_kernel_rows_total` counts the row under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKernel {
    /// `i16` pairs on the AVX2 kernel.
    Vector,
    /// `i16` pairs on the scalar oracle: the scalar tier, levels above
    /// `i16::MAX`, or a row past the `i32` bound.
    Scalar,
    /// `i64` numerators on the scalar oracle.
    Wide,
}

impl RowKernel {
    /// The metrics label: `avx2`, `scalar` or `dense`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            RowKernel::Vector => "avx2",
            RowKernel::Scalar => "scalar",
            RowKernel::Wide => "dense",
        }
    }
}

impl PlannedRow {
    /// The same final scaling expression [`QuantizedMatrix::matvec`] uses,
    /// evaluated identically so outputs stay bit-identical.
    fn scale(&self, act: &ActQuantizer) -> f32 {
        self.alpha * act.step() / self.denominator as f32
    }

    /// The kernel this row runs under `tier` for activations from `act`.
    fn kernel(&self, tier: SimdTier, act: &ActQuantizer) -> RowKernel {
        match self.nums {
            RowNums::Pairs(_) => match simd::select_kernel(tier, act.levels(), self.sum_abs) {
                PackedKernel::I16x16 => RowKernel::Vector,
                PackedKernel::Scalar => RowKernel::Scalar,
            },
            RowNums::Wide(_) => RowKernel::Wide,
        }
    }

    /// The `i16` numerators (empty for a wide row).
    fn pairs(&self) -> &[i16] {
        match &self.nums {
            RowNums::Pairs(pairs) => pairs,
            RowNums::Wide(_) => &[],
        }
    }
}

/// A [`QuantizedMatrix`] compiled for batched execution.
///
/// Integer accumulation is exact (no rounding, no intermediate wrap — see
/// [`GemmPlan::check_act`]), and the final per-output scaling is the same
/// `f32` expression as [`QuantizedMatrix::matvec`], so plan execution is
/// **bit-identical** to the interpreted kernels while replacing the
/// per-element `WeightCode` match with a row-blocked SIMD kernel over `i16`
/// numerator pairs (every 4-bit row) or a flat `i64` multiply (rows with
/// wider numerators). The instruction tier is resolved once per process
/// ([`simd::active_tier`]); [`GemmPlan::with_tier`] forces a specific tier
/// for differential testing and benchmarking.
#[derive(Debug, Clone)]
pub struct GemmPlan {
    rows: Vec<PlannedRow>,
    cols: usize,
    tier: SimdTier,
}

impl GemmPlan {
    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Column count (reduction length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The instruction tier this plan dispatches to.
    pub fn tier(&self) -> SimdTier {
        self.tier
    }

    /// Returns the plan pinned to `tier` — the seam differential tests and
    /// the kernel bench use to compare scalar and vector execution of the
    /// *same* plan.
    pub fn with_tier(mut self, tier: SimdTier) -> Self {
        self.tier = tier;
        self
    }

    /// Number of rows compiled to the packed `i16`-pair layout.
    pub fn packed_rows(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.nums, RowNums::Pairs(_)))
            .count()
    }

    /// The kernel each row runs for activations from `act`, in row order.
    pub(crate) fn row_kernels(&self, act: &ActQuantizer) -> impl Iterator<Item = RowKernel> + '_ {
        let act = *act;
        self.rows.iter().map(move |r| r.kernel(self.tier, &act))
    }

    /// Statically proves that no accumulator can wrap for activations from
    /// `act`: per row, `Σ|numerator| × max_level` must fit the `i64`
    /// accumulator. The engine calls this once per compiled layer, before
    /// its first fan-out, turning what used to be silent wraparound on
    /// adversarial artifacts into a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ActQuantizer`] when `act.bits` is outside
    /// `2..=16` or `act.clip` is not finite and positive — checked first,
    /// so `levels()` never shifts past its width — and
    /// [`QuantError::Overflow`] naming the first row whose bound fails.
    pub fn check_act(&self, act: &ActQuantizer) -> Result<(), QuantError> {
        if !((2..=16).contains(&act.bits) && act.clip.is_finite() && act.clip > 0.0) {
            return Err(QuantError::ActQuantizer {
                bits: act.bits,
                clip: act.clip,
            });
        }
        let limit = i64::MAX as u128;
        for (r, row) in self.rows.iter().enumerate() {
            let bound = row.sum_abs * act.levels() as u128;
            if bound > limit {
                return Err(QuantError::overflow(r, bound, limit));
            }
        }
        Ok(())
    }

    /// Integer GEMM over a **patch-major tile**: `patches` holds `n`
    /// contiguous `cols`-long activation columns (`[n, cols]`), and outputs
    /// land at column offset `j0` of a `[rows, out_stride]` buffer. When
    /// `epilogue` is given, its post-op chain runs over each row's outputs
    /// after the kernel stores them (bit-identical to a separate pass —
    /// every post-op is elementwise). Without one, the output is
    /// bit-identical to [`QuantizedMatrix::matmul`] on the same activations
    /// laid out `[cols, n]`, op counts included. The columns are laid out
    /// as the kernel's k-pair tile internally (one allocation per call).
    ///
    /// # Panics
    ///
    /// Panics when `patches` is shorter than `n × cols`, any of those codes
    /// exceeds `act.levels()` (the vector kernel's exactness bound assumes
    /// codes from `act`), or the output window `[rows, j0 + n]` exceeds the
    /// `out` buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_patches_into(
        &self,
        patches: &[u32],
        n: usize,
        act: &ActQuantizer,
        out: &mut [f32],
        out_stride: usize,
        j0: usize,
        epilogue: Option<&Epilogue>,
    ) -> OpCounts {
        assert_codes_fit(patches, self.cols * n, act);
        let (mut tile, mut nonzero) = (Vec::new(), Vec::new());
        let np = self.pair_tile_into(patches, n, &mut tile, &mut nonzero);
        let rows = 0..self.rows();
        self.matmul_tile_into(
            rows, &tile, np, n, &nonzero, act, out, out_stride, j0, epilogue,
        )
    }

    /// Patch-major depthwise primitive: one row against a tile of `n`
    /// contiguous `cols`-long patches, with the optional epilogue after the
    /// store — the planned, tiled twin of [`QuantizedMatrix::matmul_row`],
    /// bit-identical to it (op counts included) when no epilogue is given.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range, `patches` is shorter than
    /// `n × cols`, any of those codes exceeds `act.levels()`, or `out` is
    /// shorter than `n`.
    pub fn row_matmul_patches_into(
        &self,
        r: usize,
        patches: &[u32],
        n: usize,
        act: &ActQuantizer,
        out: &mut [f32],
        epilogue: Option<&Epilogue>,
    ) -> OpCounts {
        assert!(r < self.rows(), "row index out of range");
        assert_codes_fit(patches, self.cols * n, act);
        let (mut tile, mut nonzero) = (Vec::new(), Vec::new());
        let np = self.pair_tile_into(patches, n, &mut tile, &mut nonzero);
        self.matmul_tile_into(r..r + 1, &tile, np, n, &nonzero, act, out, n, 0, epilogue)
    }

    /// Lays out `n` patch-major columns of `cols` codes each as the
    /// kernel's k-pair tile (see [`simd`]): `padded_cols()/2` rows of `np`
    /// words, `np` being `n` rounded up to [`LANES`], zero past `cols` and
    /// past `n`. `nonzero[k]` receives how many columns hold a non-zero
    /// code at `k`. Returns `np`. Codes must fit `u16`.
    ///
    /// # Panics
    ///
    /// Panics when `patches` is shorter than `n × cols`.
    pub(crate) fn pair_tile_into<C: Copy + Into<u32>>(
        &self,
        patches: &[C],
        n: usize,
        tile: &mut Vec<u32>,
        nonzero: &mut Vec<u32>,
    ) -> usize {
        let (cols, kp) = (self.cols, self.padded_cols());
        assert!(
            patches.len() >= cols * n,
            "patch tile must hold n × cols activations"
        );
        let np = n.next_multiple_of(LANES);
        tile.clear();
        tile.resize(kp / 2 * np, 0);
        nonzero.clear();
        nonzero.resize(kp, 0);
        for j in 0..n {
            for (k, &code) in patches[j * cols..(j + 1) * cols].iter().enumerate() {
                let code: u32 = code.into();
                tile[k / 2 * np + j] |= code << (16 * (k % 2));
                nonzero[k] += (code != 0) as u32;
            }
        }
        np
    }

    /// The engine's entry under both public ones: rows `rows` against the
    /// `n` patches of a k-pair `tile` with `np` lanes per row (see
    /// [`simd`]), whose per-`k` non-zero counts are `nonzero`. Row
    /// `rows.start + i` lands at `out[i·out_stride + j0..][..n]`. Runs of up
    /// to [`simd::ROW_BLOCK`] consecutive rows with the same kernel reduce
    /// together; then each row's epilogue runs over its stored outputs, and
    /// its SP2 adds come from the census, `Σ_{k addable} nonzero[k]`. Codes
    /// are not scanned: they must not exceed `act.levels()`, which holds for
    /// every code from [`ActQuantizer::quantize_one`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn matmul_tile_into(
        &self,
        rows: Range<usize>,
        tile: &[u32],
        np: usize,
        n: usize,
        nonzero: &[u32],
        act: &ActQuantizer,
        out: &mut [f32],
        out_stride: usize,
        j0: usize,
        epilogue: Option<&Epilogue>,
    ) -> OpCounts {
        assert!(j0 + n <= out_stride, "tile exceeds output row stride");
        assert!(
            rows.is_empty() || (rows.len() - 1) * out_stride + j0 + n <= out.len(),
            "output buffer too short for [rows, stride]"
        );
        assert!(nonzero.len() >= self.cols, "census shorter than cols");
        let mut r = rows.start;
        while r < rows.end {
            let kernel = self.rows[r].kernel(self.tier, act);
            let mut end = r + 1;
            while kernel != RowKernel::Wide
                && end < rows.end
                && end - r < ROW_BLOCK
                && self.rows[end].kernel(self.tier, act) == kernel
            {
                end += 1;
            }
            let block = &self.rows[r..end];
            let scales: [f32; ROW_BLOCK] =
                std::array::from_fn(|i| block.get(i).map_or(0.0, |row| row.scale(act)));
            let scales = &scales[..block.len()];
            let dst = &mut out[(r - rows.start) * out_stride + j0..];
            match &block[0].nums {
                // A wide row is a block of its own.
                RowNums::Wide(nums) => {
                    simd::gemm_scalar(&[&nums[..]], scales, tile, np, n, dst, out_stride)
                }
                RowNums::Pairs(_) => {
                    let pairs: [&[i16]; ROW_BLOCK] =
                        std::array::from_fn(|i| block.get(i).map_or(&[][..], PlannedRow::pairs));
                    let pairs = &pairs[..block.len()];
                    let kernel = match kernel {
                        RowKernel::Vector => PackedKernel::I16x16,
                        _ => PackedKernel::Scalar,
                    };
                    simd::gemm_pairs(kernel, pairs, scales, tile, np, n, dst, out_stride)
                }
            }
            r = end;
        }
        let mut ops = OpCounts::default();
        for (i, row) in self.rows[rows].iter().enumerate() {
            if let Some(e) = epilogue {
                apply_epilogue(e, act, &mut out[i * out_stride + j0..][..n]);
            }
            let adds: usize = row
                .addable
                .iter()
                .map(|&k| nonzero[k as usize] as usize)
                .sum();
            ops.mults += row.base_ops.mults * n;
            ops.shifts += row.base_ops.shifts * n;
            ops.adds += row.base_ops.adds * n + adds;
        }
        ops
    }

    /// Reduction length padded to a multiple of [`K_GRANULE`]: the length of
    /// every planned row, and twice the pair count of the engine's tiles.
    pub(crate) fn padded_cols(&self) -> usize {
        self.cols.next_multiple_of(K_GRANULE)
    }
}

/// Panics unless each of the first `len` codes is at most `act.levels()` —
/// the public GEMM entries' guard for the vector kernel, whose 16-bit
/// lanes and `i32` bound assume codes from `act`.
fn assert_codes_fit(codes: &[u32], len: usize, act: &ActQuantizer) {
    let max = codes.iter().take(len).fold(0, |m, &c| m.max(c));
    assert!(
        max <= act.levels(),
        "activation code {max} exceeds the quantizer's {} levels",
        act.levels()
    );
}

/// A [`QuantizedMatrix`] in serialized form: packed nibbles plus per-row
/// scheme/α metadata. See [`crate::export`] for the bit layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    row_meta: Vec<(Scheme, f32)>,
    data: Vec<u8>,
}

impl PackedMatrix {
    /// Reassembles a packed matrix from serialized parts (the export
    /// import path).
    ///
    /// # Errors
    ///
    /// Returns [`UnpackError::Truncated`](crate::export::UnpackError) when
    /// `row_meta` does not hold `rows` entries or `data` is shorter than
    /// `rows · ⌈cols/2⌉` bytes.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_meta: Vec<(Scheme, f32)>,
        data: Vec<u8>,
    ) -> Result<Self, crate::export::UnpackError> {
        let need = rows * cols.div_ceil(2);
        if row_meta.len() != rows || data.len() < need {
            return Err(crate::export::UnpackError::Truncated {
                expected: rows * cols,
                available: data.len() * 2,
            });
        }
        Ok(PackedMatrix {
            rows,
            cols,
            row_meta,
            data,
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row `(scheme, α)` metadata.
    pub fn row_meta(&self) -> &[(Scheme, f32)] {
        &self.row_meta
    }

    /// Packed nibble stream (`⌈cols/2⌉` bytes per row).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The packed byte slice of row `r` — the exact bytes the SIMD kernels
    /// decode in-register.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn row_bytes(&self, r: usize) -> &[u8] {
        assert!(r < self.rows, "row index out of range");
        let bpr = self.cols.div_ceil(2);
        &self.data[r * bpr..(r + 1) * bpr]
    }

    /// Compiles an executable [`GemmPlan`] by unpacking into a
    /// [`QuantizedMatrix`] and planning that (`self.unpack()?.try_plan()`).
    /// Every 4-bit numerator fits `i16`, so the resulting plan keeps all
    /// rows in the packed pair layout — which is how deserialized artifacts
    /// reach the vector kernel.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Unpack`] on a corrupt nibble stream.
    pub fn try_plan(&self) -> Result<GemmPlan, QuantError> {
        self.unpack()?.try_plan()
    }

    /// Packed weight bytes (excluding metadata).
    pub fn data_len(&self) -> usize {
        self.data.len()
    }

    /// Total serialized size in bytes: packed codes + 5 bytes/row metadata.
    pub fn byte_size(&self) -> usize {
        self.data.len() + self.row_meta.len() * 5
    }

    /// Deserialises back into an executable [`QuantizedMatrix`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::export::UnpackError`] on a corrupt stream.
    pub fn unpack(&self) -> Result<QuantizedMatrix, crate::export::UnpackError> {
        let bytes_per_row = self.cols.div_ceil(2);
        let mut rows = Vec::with_capacity(self.rows);
        for (r, &(scheme, alpha)) in self.row_meta.iter().enumerate() {
            let slice = self
                .data
                .get(r * bytes_per_row..(r + 1) * bytes_per_row)
                .ok_or(crate::export::UnpackError::Truncated {
                    expected: self.cols,
                    available: 0,
                })?;
            let codes = crate::export::unpack_nibbles(slice, self.cols, scheme)?;
            let denominator = codes.first().map(|c| c.denominator()).unwrap_or(1);
            rows.push(QuantRow {
                scheme,
                alpha,
                denominator,
                codes,
            });
        }
        Ok(QuantizedMatrix {
            rows,
            cols: self.cols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msq::MsqPolicy;
    use crate::rowwise::PartitionRatio;
    use mixmatch_tensor::TensorRng;
    use proptest::prelude::*;

    /// Transposes a `[cols, n]` activation matrix (the interpreter's
    /// layout) into the `[n, cols]` patch-major tile the planned kernels
    /// read.
    fn patch_major(xq: &[u32], cols: usize, n: usize) -> Vec<u32> {
        let mut tile = vec![0u32; cols * n];
        for k in 0..cols {
            for j in 0..n {
                tile[j * cols + k] = xq[k * n + j];
            }
        }
        tile
    }

    #[test]
    fn act_quantizer_round_trips_on_grid() {
        let act = ActQuantizer::new(4, 1.5);
        let grid: Vec<f32> = (0..=15).map(|i| i as f32 * act.step()).collect();
        let q = act.quantize(&grid);
        let d = act.dequantize(&q);
        for (a, b) in grid.iter().zip(&d) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(act.quantize(&[99.0])[0], 15); // saturation
        assert_eq!(act.quantize(&[-1.0])[0], 0); // floor
    }

    #[test]
    fn nan_activations_quantize_to_zero_deterministically() {
        let act = ActQuantizer::new(4, 1.5);
        assert_eq!(act.quantize(&[f32::NAN])[0], 0);
        assert_eq!(act.quantize_one(f32::NAN), 0);
        // Non-NaN behaviour is unchanged: saturation above, floor below.
        assert_eq!(act.quantize_one(f32::INFINITY), act.levels());
        assert_eq!(act.quantize_one(f32::NEG_INFINITY), 0);
        let mut buf = vec![99u16; 3];
        act.quantize_into(&[f32::NAN, 0.75, -2.0], &mut buf);
        assert_eq!(buf, vec![0, act.quantize_one(0.75) as u16, 0]);
    }

    /// The quantizer's former body: clamp, divide, libm `round`.
    fn libm_round_reference(act: &ActQuantizer, x: f32) -> u32 {
        if x.is_nan() {
            return 0;
        }
        (x.clamp(0.0, act.clip) / act.step()).round() as u32
    }

    #[test]
    fn quantize_one_matches_the_libm_round_reference() {
        let mut special = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        // NaN payloads (quiet and signalling, both signs) and subnormals.
        special.extend(
            [
                0x7fc0_0000u32,
                0x7fc0_0001,
                0x7f80_0001,
                0x7fff_ffff,
                0xffc0_0000,
                0xff80_0001,
                0x0000_0001,
                0x0000_0002,
                0x0000_ffff,
                0x007f_ffff,
                0x8000_0001,
                0x807f_ffff,
            ]
            .map(f32::from_bits),
        );
        // A stride over every bit pattern.
        special.extend((0..=u32::MAX).step_by(65_521).map(f32::from_bits));
        for bits in [2, 4, 8, 15, 16] {
            for clip in [1e-3, 1.0, 6.0, 1e30] {
                let act = ActQuantizer::new(bits, clip);
                // Each level's half-way point and its ±1–2 ulp neighbours:
                // the inputs whose scaled value sits on or beside a tie.
                let ties = (0..act.levels()).flat_map(|i| {
                    let half = ((i as f32 + 0.5) * act.step()).to_bits();
                    (half - 2..=half + 2).map(f32::from_bits)
                });
                for x in special.iter().copied().chain(ties) {
                    assert_eq!(
                        act.quantize_one(x),
                        libm_round_reference(&act, x),
                        "bits {bits}, clip {clip:e}, x {x:e} ({:#010x})",
                        x.to_bits()
                    );
                }
            }
        }
    }

    /// A 4×32 `msq_half` plan, a 4-bit quantizer, and 32 codes of which
    /// every third is 40000 — far above the quantizer's 15 levels.
    fn plan_with_codes_above_levels() -> (GemmPlan, ActQuantizer, Vec<u32>) {
        let mut rng = TensorRng::seed_from(37);
        let w = Tensor::randn(&[4, 32], &mut rng);
        let plan = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_half())
            .try_plan()
            .unwrap();
        let codes = (0..32u32)
            .map(|i| if i % 3 == 0 { 40_000 } else { i % 16 })
            .collect();
        (plan, ActQuantizer::new(4, 1.0), codes)
    }

    #[test]
    #[should_panic(expected = "exceeds the quantizer")]
    fn matmul_patches_into_refuses_codes_above_the_quantizer_levels() {
        let (plan, act, codes) = plan_with_codes_above_levels();
        let mut out = vec![0.0f32; 4];
        plan.matmul_patches_into(&codes, 1, &act, &mut out, 1, 0, None);
    }

    #[test]
    #[should_panic(expected = "exceeds the quantizer")]
    fn row_matmul_patches_into_refuses_codes_above_the_quantizer_levels() {
        let (plan, act, codes) = plan_with_codes_above_levels();
        let mut out = vec![0.0f32; 1];
        plan.row_matmul_patches_into(2, &codes, 1, &act, &mut out, None);
    }

    #[test]
    fn plan_matmul_is_bit_identical_to_interpreted_matmul() {
        let mut rng = TensorRng::seed_from(21);
        let w = Tensor::randn(&[9, 17], &mut rng);
        for policy in [
            MsqPolicy::single(Scheme::Fixed, 4),
            MsqPolicy::single(Scheme::Pow2, 4),
            MsqPolicy::single(Scheme::Sp2, 4),
            MsqPolicy::msq_half(),
            MsqPolicy::msq_optimal(),
        ] {
            let qm = QuantizedMatrix::from_float(&w, &policy);
            let act = ActQuantizer::new(4, 1.3);
            let n = 5;
            // Include zeros so the SP2 add accounting is exercised on both
            // branches.
            let x: Vec<f32> = (0..17 * n)
                .map(|i| {
                    if i % 4 == 0 {
                        0.0
                    } else {
                        rng.uniform_in(0.0, 1.3)
                    }
                })
                .collect();
            let xq = act.quantize(&x);
            let (y_ref, ops_ref) = qm.matmul(&xq, n, &act);
            let plan = qm.try_plan().unwrap();
            assert_eq!((plan.rows(), plan.cols()), (9, 17));
            let mut out = vec![0.0f32; 9 * n];
            let tile = patch_major(&xq, 17, n);
            let ops = plan.matmul_patches_into(&tile, n, &act, &mut out, n, 0, None);
            assert_eq!(out, y_ref.as_slice(), "outputs must be bit-identical");
            assert_eq!(ops, ops_ref, "op accounting must match the interpreter");
        }
    }

    #[test]
    fn plan_row_matmul_is_bit_identical_to_matmul_row() {
        let mut rng = TensorRng::seed_from(22);
        let w = Tensor::randn(&[4, 9], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_optimal());
        let act = ActQuantizer::new(4, 1.0);
        let n = 6;
        let x: Vec<f32> = (0..9 * n)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    rng.uniform_in(0.0, 1.0)
                }
            })
            .collect();
        let xq = act.quantize(&x);
        let plan = qm.try_plan().unwrap();
        let tile = patch_major(&xq, 9, n);
        for r in 0..4 {
            let (y_ref, ops_ref) = qm.matmul_row(r, &xq, n, &act);
            let mut out = vec![0.0f32; n];
            let ops = plan.row_matmul_patches_into(r, &tile, n, &act, &mut out, None);
            assert_eq!(out, y_ref, "row {r} outputs must be bit-identical");
            assert_eq!(ops, ops_ref, "row {r} ops must match");
        }
    }

    #[test]
    fn integer_matvec_matches_float_reference_exactly() {
        // The headline property: integer shift/add arithmetic reproduces the
        // float-domain quantized product to f32 rounding.
        let mut rng = TensorRng::seed_from(0);
        let w = Tensor::randn(&[8, 32], &mut rng);
        for policy in [
            MsqPolicy::single(Scheme::Fixed, 4),
            MsqPolicy::single(Scheme::Pow2, 4),
            MsqPolicy::single(Scheme::Sp2, 4),
            MsqPolicy::msq_half(),
            MsqPolicy::msq_optimal(),
        ] {
            let qm = QuantizedMatrix::from_float(&w, &policy);
            let act = ActQuantizer::new(4, 2.0);
            let x: Vec<f32> = (0..32).map(|_| rng.uniform_in(0.0, 2.0)).collect();
            let xq = act.quantize(&x);
            let (y_int, _) = qm.matvec(&xq, &act);
            // Float reference: dequantized weights × dequantized activations.
            let wf = qm.to_float();
            let xd = act.dequantize(&xq);
            for r in 0..8 {
                let y_float: f32 = wf.row(r).iter().zip(&xd).map(|(&a, &b)| a * b).sum();
                assert!(
                    (y_int[r] - y_float).abs() < 1e-3 * (1.0 + y_float.abs()),
                    "row {r}: int {} vs float {y_float}",
                    y_int[r]
                );
            }
        }
    }

    #[test]
    fn fixed_rows_use_multiplies_sp2_rows_use_shifts() {
        let mut rng = TensorRng::seed_from(1);
        let w = Tensor::randn(&[10, 16], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_half());
        let (fixed_ops, shift_ops) = qm.op_profile();
        assert!(fixed_ops.mults > 0);
        assert_eq!(fixed_ops.shifts, 0);
        assert!(shift_ops.shifts > 0);
        assert_eq!(shift_ops.mults, 0);
    }

    #[test]
    fn sp2_ops_at_most_two_shifts_one_add_per_mac() {
        let mut rng = TensorRng::seed_from(2);
        let w = Tensor::randn(&[6, 64], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::single(Scheme::Sp2, 4));
        let act = ActQuantizer::new(4, 1.0);
        let x = vec![1u32; 64];
        let (_, ops) = qm.matvec(&x, &act);
        let macs = 6 * 64;
        assert!(ops.shifts <= 2 * macs);
        assert!(ops.adds <= macs);
        assert_eq!(ops.mults, 0);
    }

    #[test]
    fn matmul_agrees_with_repeated_matvec() {
        let mut rng = TensorRng::seed_from(3);
        let w = Tensor::randn(&[5, 12], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_optimal());
        let act = ActQuantizer::new(4, 1.0);
        let x: Vec<f32> = (0..12 * 3).map(|_| rng.uniform_in(0.0, 1.0)).collect();
        let xq = act.quantize(&x);
        let (y, _) = qm.matmul(&xq, 3, &act);
        for j in 0..3 {
            let col: Vec<u32> = (0..12).map(|k| xq[k * 3 + j]).collect();
            let (yv, _) = qm.matvec(&col, &act);
            for r in 0..5 {
                assert!((y.at(&[r, j]) - yv[r]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn row_schemes_follow_assignment() {
        let mut rng = TensorRng::seed_from(4);
        let w = Tensor::randn(&[4, 8], &mut rng);
        let assignment = RowAssignment::from_schemes(vec![
            Scheme::Sp2,
            Scheme::Fixed,
            Scheme::Sp2,
            Scheme::Fixed,
        ]);
        let qm = QuantizedMatrix::from_float_with_assignment(&w, &assignment, 4);
        assert_eq!(qm.row_scheme(0), Scheme::Sp2);
        assert_eq!(qm.row_scheme(1), Scheme::Fixed);
    }

    #[test]
    fn zero_row_is_exact() {
        let w = Tensor::zeros(&[1, 8]);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::single(Scheme::Sp2, 4));
        let act = ActQuantizer::new(4, 1.0);
        let (y, _) = qm.matvec(&[7u32; 8], &act);
        assert_eq!(y[0], 0.0);
    }

    #[test]
    fn pack_unpack_preserves_inference_exactly() {
        let mut rng = TensorRng::seed_from(11);
        let w = Tensor::randn(&[16, 33], &mut rng); // odd cols exercise padding
        for policy in [
            MsqPolicy::single(Scheme::Fixed, 4),
            MsqPolicy::single(Scheme::Pow2, 4),
            MsqPolicy::msq_optimal(),
        ] {
            let qm = QuantizedMatrix::from_float(&w, &policy);
            let packed = qm.pack();
            let restored = packed.unpack().expect("round trip");
            let act = ActQuantizer::new(4, 1.0);
            let x: Vec<u32> = (0..33).map(|i| (i % 16) as u32).collect();
            let (y0, _) = qm.matvec(&x, &act);
            let (y1, _) = restored.matvec(&x, &act);
            assert_eq!(y0, y1, "packed round trip changed outputs");
        }
    }

    #[test]
    fn packed_size_approaches_8x_compression() {
        let mut rng = TensorRng::seed_from(12);
        let w = Tensor::randn(&[64, 512], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_half());
        let packed = qm.pack();
        let float_bytes = 64 * 512 * 4;
        let rate = float_bytes as f32 / packed.byte_size() as f32;
        assert!(rate > 7.5, "compression rate {rate}");
    }

    #[test]
    fn four_bit_rows_compile_to_the_packed_layout() {
        let mut rng = TensorRng::seed_from(30);
        let w = Tensor::randn(&[6, 20], &mut rng);
        for policy in [
            MsqPolicy::single(Scheme::Fixed, 4),
            MsqPolicy::single(Scheme::Pow2, 4),
            MsqPolicy::single(Scheme::Sp2, 4),
            MsqPolicy::msq_half(),
        ] {
            let qm = QuantizedMatrix::from_float(&w, &policy);
            let plan = qm.try_plan().expect("4-bit plan");
            assert_eq!(plan.packed_rows(), 6, "every 4-bit row should pack");
        }
        // 6-bit fixed numerators (≤ 31) still fit the i16 pairs.
        let qm6 = QuantizedMatrix::from_float(&w, &MsqPolicy::single(Scheme::Fixed, 6));
        assert_eq!(qm6.try_plan().expect("6-bit plan").packed_rows(), 6);
        // Numerators past i16 (6-bit P2 reaches 2^30) must fall back to the
        // wide layout, not silently truncate, and still match the
        // interpreter under both tiers.
        let p6 = QuantizedMatrix::from_float(&w, &MsqPolicy::single(Scheme::Pow2, 6));
        let plan = p6.try_plan().expect("6-bit P2 plan");
        assert_eq!(plan.packed_rows(), 0, "every 6-bit P2 row is wide");
        let act = ActQuantizer::new(4, 1.0);
        plan.check_act(&act).expect("bound holds");
        let x: Vec<u32> = (0..20).map(|i| (i * 7 % 16) as u32).collect();
        let (y_ref, ops_ref) = p6.matvec(&x, &act);
        for tier in [SimdTier::Scalar, simd::detected_tier()] {
            let mut y = vec![0.0f32; 6];
            let ops = plan
                .clone()
                .with_tier(tier)
                .matmul_patches_into(&x, 1, &act, &mut y, 1, 0, None);
            assert_eq!((y.as_slice(), ops), (&y_ref[..], ops_ref), "{tier:?}");
        }
    }

    #[test]
    fn wide_pow2_codebooks_fail_plan_with_typed_overflow() {
        // P2 at 8 bits has 2^7 − 2 = 126 shift positions: the numerator
        // itself cannot live in an i64 accumulator. The old compiler
        // silently wrapped here; now it is a typed error.
        let mut rng = TensorRng::seed_from(31);
        let w = Tensor::randn(&[3, 8], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::single(Scheme::Pow2, 8));
        match qm.try_plan() {
            Err(crate::error::QuantError::Overflow(o)) => {
                assert!(o.bound > o.limit);
            }
            other => panic!("expected Overflow, got {other:?}"),
        }
    }

    #[test]
    fn check_act_rejects_plans_whose_accumulator_could_wrap() {
        // P2 at 7 bits compiles (shifts ≤ 62) but Σ|num| × levels overflows
        // i64 for any activation width — check_act must say so.
        let mut rng = TensorRng::seed_from(32);
        let w = Tensor::randn(&[2, 16], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::single(Scheme::Pow2, 7));
        let plan = qm.try_plan().expect("7-bit plan compiles");
        let act = ActQuantizer::new(4, 1.0);
        assert!(matches!(
            plan.check_act(&act),
            Err(crate::error::QuantError::Overflow(_))
        ));
        // An ordinary 4-bit plan passes for the full activation range.
        let qm4 = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_half());
        let plan4 = qm4.try_plan().unwrap();
        plan4.check_act(&ActQuantizer::new(16, 1.0)).unwrap();
    }

    #[test]
    fn check_act_rejects_out_of_range_quantizers_typed() {
        // The fields are public, so a struct literal bypasses `new`'s
        // assert. At 32+ bits `levels()` would shift past `u32` (a debug
        // panic; zero levels and all-zero activations in release), so each
        // out-of-range quantizer must fail typed before any level is
        // computed.
        let mut rng = TensorRng::seed_from(36);
        let w = Tensor::randn(&[3, 10], &mut rng);
        let plan = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_half())
            .try_plan()
            .unwrap();
        for (bits, clip) in [
            (32, 1.0),
            (40, 1.0),
            (17, 1.0),
            (1, 1.0),
            (0, 1.0),
            (8, 0.0),
            (8, -1.0),
            (8, f32::NAN),
            (8, f32::INFINITY),
        ] {
            match plan.check_act(&ActQuantizer { bits, clip }) {
                Err(QuantError::ActQuantizer { bits: b, .. }) => assert_eq!(b, bits),
                other => panic!("{bits} bits, clip {clip}: expected typed error, got {other:?}"),
            }
        }
        for bits in [2, 16] {
            plan.check_act(&ActQuantizer { bits, clip: 1.0 }).unwrap();
        }
    }

    #[test]
    fn patch_tiles_reproduce_full_matmul_at_any_offset() {
        let mut rng = TensorRng::seed_from(33);
        let w = Tensor::randn(&[7, 19], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_optimal());
        let act = ActQuantizer::new(4, 1.0);
        let n = 11;
        let x: Vec<f32> = (0..19 * n)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    rng.uniform_in(0.0, 1.0)
                }
            })
            .collect();
        let xq = act.quantize(&x);
        let plan = qm.try_plan().unwrap();
        let (full, ops_full) = qm.matmul(&xq, n, &act);
        // Run in uneven patch tiles against the transposed activations and
        // stitch the output back together at matching offsets.
        let patches = patch_major(&xq, 19, n);
        let mut tiled = vec![0.0f32; 7 * n];
        let mut ops_tiled = OpCounts::default();
        let mut j0 = 0;
        for tile in [1usize, 4, 3, 11] {
            let count = tile.min(n - j0);
            if count == 0 {
                break;
            }
            let tile_acts = &patches[j0 * 19..(j0 + count) * 19];
            ops_tiled = ops_tiled
                .merge(plan.matmul_patches_into(tile_acts, count, &act, &mut tiled, n, j0, None));
            j0 += count;
        }
        assert_eq!(
            tiled,
            full.as_slice(),
            "tiled outputs must be bit-identical"
        );
        assert_eq!(ops_tiled, ops_full, "tiled op accounting must match");
        // Depthwise: per-row tile calls match matmul_row.
        for r in 0..7 {
            let (row_ref, ops_ref) = qm.matmul_row(r, &xq, n, &act);
            let mut row_tiled = vec![0.0f32; n];
            let ops_t = plan.row_matmul_patches_into(r, &patches, n, &act, &mut row_tiled, None);
            assert_eq!(row_tiled, row_ref, "row {r}");
            assert_eq!(ops_t, ops_ref, "row {r} ops");
        }
    }

    #[test]
    fn forced_scalar_tier_matches_default_tier_bit_exactly() {
        let mut rng = TensorRng::seed_from(34);
        let w = Tensor::randn(&[9, 33], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_half());
        let act = ActQuantizer::new(8, 1.2);
        let n = 6;
        let x: Vec<f32> = (0..33 * n).map(|_| rng.uniform_in(0.0, 1.2)).collect();
        let xq = act.quantize(&x);
        let plan = qm.try_plan().unwrap();
        let scalar_plan = plan
            .clone()
            .with_tier(mixmatch_tensor::simd::SimdTier::Scalar);
        let (mut a, mut b) = (vec![0.0f32; 9 * n], vec![0.0f32; 9 * n]);
        let tile = patch_major(&xq, 33, n);
        let ops_a = plan.matmul_patches_into(&tile, n, &act, &mut a, n, 0, None);
        let ops_b = scalar_plan.matmul_patches_into(&tile, n, &act, &mut b, n, 0, None);
        assert_eq!(a, b, "tiers must agree bit-exactly");
        assert_eq!(ops_a, ops_b, "op accounting must be tier-independent");
    }

    #[test]
    fn packed_matrix_plans_equivalently_to_unpacked() {
        let mut rng = TensorRng::seed_from(35);
        let w = Tensor::randn(&[5, 21], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_optimal());
        let packed = qm.pack();
        assert_eq!(packed.row_bytes(0).len(), 21usize.div_ceil(2));
        let plan = packed.try_plan().expect("plan from packed bytes");
        assert_eq!(plan.packed_rows(), 5);
        let act = ActQuantizer::new(4, 1.0);
        let x: Vec<u32> = (0..21).map(|i| (i % 16) as u32).collect();
        let (y_ref, _) = qm.matvec(&x, &act);
        let mut y = vec![0.0f32; 5];
        // A single column is already patch-major.
        plan.matmul_patches_into(&x, 1, &act, &mut y, 1, 0, None);
        assert_eq!(y, y_ref, "packed-bytes plan must match the interpreter");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn accumulator_bound_is_tight_at_the_i64_edge(shift in 50u32..63, cols in 1usize..8) {
            // Build a synthetic row at the representability edge and verify
            // check_act accepts exactly when Σ|num| × levels ≤ i64::MAX.
            let exps = (0..cols).map(|_| shift).collect::<Vec<_>>();
            let codes: Vec<WeightCode> = exps
                .iter()
                .map(|&s| WeightCode::pow2(1, 62 - s, 62))
                .collect();
            let mut sum_abs: u128 = 0;
            for code in &codes {
                let (num, _, _) = try_plan_code(code).expect("shift ≤ 62 is representable");
                sum_abs += num.unsigned_abs() as u128;
            }
            for bits in [2u32, 8, 16] {
                let act = ActQuantizer::new(bits, 1.0);
                let fits = sum_abs * act.levels() as u128 <= i64::MAX as u128;
                // Mirror of check_act's rule on a hand-built row.
                prop_assert_eq!(fits, sum_abs.checked_mul(act.levels() as u128)
                    .map(|b| b <= i64::MAX as u128).unwrap_or(false));
                if fits {
                    // When the bound holds the scalar reduction at the max
                    // activation level must not wrap: compute it exactly.
                    let max_a = act.levels() as i64;
                    let mut acc: i64 = 0;
                    for code in &codes {
                        let (num, _, _) = try_plan_code(code).unwrap();
                        acc = acc.checked_add(max_a.checked_mul(num).expect("no wrap"))
                            .expect("no wrap");
                    }
                    prop_assert!(acc as u128 <= sum_abs * act.levels() as u128);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn integer_path_is_exact_for_random_ratios(seed in 0u64..500, ratio in 0.0f32..1.0) {
            let mut rng = TensorRng::seed_from(seed);
            let w = Tensor::randn(&[4, 8], &mut rng);
            let policy = MsqPolicy::mixed(PartitionRatio::new(ratio), 4);
            let qm = QuantizedMatrix::from_float(&w, &policy);
            let act = ActQuantizer::new(4, 1.0);
            let x: Vec<f32> = (0..8).map(|_| rng.uniform_in(0.0, 1.0)).collect();
            let xq = act.quantize(&x);
            let (y, _) = qm.matvec(&xq, &act);
            let wf = qm.to_float();
            let xd = act.dequantize(&xq);
            for r in 0..4 {
                let yf: f32 = wf.row(r).iter().zip(&xd).map(|(&a, &b)| a * b).sum();
                prop_assert!((y[r] - yf).abs() < 1e-3 * (1.0 + yf.abs()));
            }
        }
    }
}
