//! Packed deployment format for quantized weights.
//!
//! The paper's Table V headlines "4-bit quantization = 8× compression rate";
//! this module makes that concrete: every weight code of every scheme packs
//! into exactly 4 bits (for `m = 4`), so a layer ships as
//! `⌈rows·cols/2⌉` bytes plus one `(scheme, α)` pair per row.
//!
//! Bit layouts (4-bit example):
//!
//! * Fixed: `sign | magnitude(3)` — sign-magnitude, as Eq. 1 implies.
//! * P2: `sign | exponent-code(3)` where code 0 = value 0, code `e` = `2^{e-7}`.
//! * SP2: `sign | e1-code(2) | e2-code(1)` — the two shift exponents.

use crate::codes::{Sp2Exponents, WeightCode};
use crate::deploy::QuantizedConv;
use crate::error::QuantError;
use crate::graph::{Epilogue, ExecutionPlan, PlanStep, PostOp, StepOp, MAX_FUSED_POST_OPS};
use crate::integer::PackedMatrix;
use crate::msq::{AlphaGranularity, MsqPolicy, RowQuantInfo, SchemeChoice};
use crate::pipeline::{CompiledModel, DeployForm, QuantizedLayer, QuantizedModel};
use crate::rowwise::PartitionRatio;
use crate::schemes::{sp2_split, Scheme};
use crate::verify::VerifyReport;
use mixmatch_nn::lower::{ActKind, PoolKind};
use mixmatch_nn::quantize::{QuantLayerDesc, QuantLayerKind};
use mixmatch_tensor::im2col::ConvGeometry;
use std::error::Error;
use std::fmt;

/// Error from unpacking a serialized weight row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnpackError {
    /// The byte stream ended before `count` codes were read.
    Truncated {
        /// Codes expected.
        expected: usize,
        /// Codes available.
        available: usize,
    },
    /// A nibble decodes to no valid code under the scheme.
    InvalidCode {
        /// Offending nibble value.
        nibble: u8,
    },
}

impl fmt::Display for UnpackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnpackError::Truncated {
                expected,
                available,
            } => write!(
                f,
                "stream truncated: expected {expected} codes, got {available}"
            ),
            UnpackError::InvalidCode { nibble } => {
                write!(f, "nibble {nibble:#x} is not a valid code")
            }
        }
    }
}

impl Error for UnpackError {}

/// Encodes one 4-bit weight code as a nibble.
///
/// # Panics
///
/// Panics when the code was not built at 4-bit precision (magnitudes or
/// exponents out of nibble range).
pub fn encode_nibble(code: &WeightCode) -> u8 {
    try_encode_nibble(code).expect("code not encodable in 4 bits")
}

/// Non-panicking [`encode_nibble`]: `None` when the code was not built at
/// 4-bit precision (magnitude or exponent outside nibble range). The plan
/// compiler uses this as its packability probe — rows whose codes all
/// encode run the in-register packed kernels, anything else falls back to
/// the dense layout.
pub fn try_encode_nibble(code: &WeightCode) -> Option<u8> {
    match *code {
        WeightCode::Fixed {
            sign, magnitude, ..
        } => {
            if magnitude >= 8 {
                return None;
            }
            let s = u8::from(sign < 0) << 3;
            Some(s | magnitude as u8)
        }
        WeightCode::Pow2 { sign, exponent, .. } => {
            if sign == 0 {
                return Some(0);
            }
            // Value 2^-e with e in 0..=6 → code 7-e in 1..=7.
            if exponent > 6 {
                return None;
            }
            let s = u8::from(sign < 0) << 3;
            Some(s | (7 - exponent as u8))
        }
        WeightCode::Sp2 { sign, e1, e2, .. } => {
            if sign == 0 {
                return Some(0);
            }
            let s = u8::from(sign < 0) << 3;
            // e1 ∈ {None, 1, 2, 3} → 2 bits; e2 ∈ {None, 1} → 1 bit.
            let c1 = match e1 {
                None => 0u8,
                Some(e) if (1..=3).contains(&e) => e as u8,
                Some(_) => return None,
            };
            if matches!(e2, Some(e) if e != 1) {
                return None;
            }
            let c2 = u8::from(e2.is_some());
            Some(s | (c1 << 1) | c2)
        }
    }
}

/// Decodes one nibble back to a 4-bit weight code.
///
/// # Errors
///
/// Returns [`UnpackError::InvalidCode`] for nibbles that encode "negative
/// zero" (no scheme uses them).
pub fn decode_nibble(nibble: u8, scheme: Scheme) -> Result<WeightCode, UnpackError> {
    let sign_bit = (nibble >> 3) & 1;
    let payload = nibble & 0b0111;
    if payload == 0 && sign_bit == 1 {
        return Err(UnpackError::InvalidCode { nibble });
    }
    let sign: i8 = if payload == 0 {
        0
    } else if sign_bit == 1 {
        -1
    } else {
        1
    };
    match scheme {
        Scheme::Fixed => Ok(WeightCode::fixed(sign, payload as u32, 7)),
        Scheme::Pow2 => {
            if sign == 0 {
                Ok(WeightCode::pow2_zero(6))
            } else {
                Ok(WeightCode::pow2(sign, 7 - payload as u32, 6))
            }
        }
        Scheme::Sp2 => {
            let (m1, m2) = sp2_split(4);
            let exps = Sp2Exponents::new(m1, m2);
            if sign == 0 {
                return Ok(WeightCode::sp2(0, None, None, exps));
            }
            let c1 = (payload >> 1) & 0b11;
            let c2 = payload & 1;
            let e1 = (c1 != 0).then_some(c1 as u32);
            let e2 = (c2 != 0).then_some(1u32);
            if e1.is_none() && e2.is_none() {
                return Err(UnpackError::InvalidCode { nibble });
            }
            Ok(WeightCode::sp2(sign, e1, e2, exps))
        }
    }
}

/// Packs a sequence of 4-bit codes into bytes, two per byte (low nibble
/// first).
pub fn pack_nibbles(codes: &[WeightCode]) -> Vec<u8> {
    let mut out = Vec::with_capacity(codes.len().div_ceil(2));
    for pair in codes.chunks(2) {
        let lo = encode_nibble(&pair[0]);
        let hi = pair.get(1).map(encode_nibble).unwrap_or(0);
        out.push(lo | (hi << 4));
    }
    out
}

/// Unpacks `count` codes from packed bytes.
///
/// # Errors
///
/// Returns [`UnpackError::Truncated`] when `bytes` holds fewer than `count`
/// nibbles, or [`UnpackError::InvalidCode`] on an undecodable nibble.
pub fn unpack_nibbles(
    bytes: &[u8],
    count: usize,
    scheme: Scheme,
) -> Result<Vec<WeightCode>, UnpackError> {
    if bytes.len() * 2 < count {
        return Err(UnpackError::Truncated {
            expected: count,
            available: bytes.len() * 2,
        });
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let byte = bytes[i / 2];
        let nibble = if i % 2 == 0 { byte & 0xF } else { byte >> 4 };
        out.push(decode_nibble(nibble, scheme)?);
    }
    Ok(out)
}

/// Compression rate versus 32-bit floats for a packed layer (per-row α and
/// scheme tags amortise away for realistic widths).
pub fn compression_rate(rows: usize, cols: usize) -> f32 {
    let float_bytes = (rows * cols * 4) as f32;
    // Packed codes + per-row f32 α + per-row scheme byte.
    let packed_bytes = (rows * cols).div_ceil(2) as f32 + (rows * 5) as f32;
    float_bytes / packed_bytes
}

// ---------------------------------------------------------------------------
// Compiled-model artifact: plan + packed weights as one loadable blob.
// ---------------------------------------------------------------------------

/// Artifact magic: `MMCM` ("Mix-and-Match Compiled Model") + format version.
const ARTIFACT_MAGIC: &[u8; 4] = b"MMCM";
const ARTIFACT_VERSION: u32 = 1;

/// Serializes a [`CompiledModel`] — execution plan plus every layer's
/// packed 4-bit weights, per-row `(scheme, α, MSE)` metadata, geometry and
/// the activation quantizer — into one loadable artifact.
/// [`import_compiled`] restores a runnable model: same logits, same plan.
///
/// # Errors
///
/// [`QuantError::NoLoweredGraph`] when the artifact has no compiled plan;
/// [`QuantError::BitWidth`] when any layer lacks a packed form (only 4-bit
/// layers pack — the paper's deployment precision).
pub fn export_compiled(compiled: &CompiledModel) -> Result<Vec<u8>, QuantError> {
    let plan = compiled.require_plan()?;
    let model = compiled.model();
    let mut w = Writer::default();
    w.bytes.extend_from_slice(ARTIFACT_MAGIC);
    w.u32(ARTIFACT_VERSION);
    w.str(model.label());
    w.u32(model.act_quantizer().bits);
    w.f32(model.act_quantizer().clip);
    write_policy(&mut w, model.policy());
    write_plan(&mut w, plan);
    w.u32(model.layers().len() as u32);
    for layer in model.layers() {
        let packed = layer.packed.as_ref().ok_or(QuantError::BitWidth {
            bits: model.policy().bits,
        })?;
        write_layer(&mut w, layer, packed);
    }
    Ok(w.bytes)
}

/// Restores a [`CompiledModel`] from [`export_compiled`] bytes. The
/// restored artifact carries no hardware target, training logs or dataflow
/// graph — it is the runnable deployment form: plan + weights + reports.
///
/// # Errors
///
/// [`QuantError::Artifact`] on **any** malformed stream — truncation,
/// corrupt section lengths or counts, undecodable weight rows, degenerate
/// geometry. The parser never panics and never allocates from an
/// untrusted count, so arbitrary bytes are safe to feed here (the serving
/// stack loads artifacts from callers).
///
/// [`QuantError::Verify`] when the bytes parse but the decoded plan fails
/// the static verifier ([`crate::verify`]), which runs once, against the
/// decoded layer table, after the whole stream has been read — the report
/// pinpoints every violated rule.
pub fn import_compiled(bytes: &[u8]) -> Result<CompiledModel, QuantError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != ARTIFACT_MAGIC {
        return Err(QuantError::Artifact {
            context: "bad magic".into(),
        });
    }
    let version = r.u32()?;
    if version != ARTIFACT_VERSION {
        return Err(QuantError::Artifact {
            context: format!("unsupported version {version}"),
        });
    }
    let label = r.str()?;
    let act_bits = r.u32()?;
    let act_clip = r.f32()?;
    // `ActQuantizer::new` asserts on these; an artifact must fail typed.
    if !(2..=16).contains(&act_bits) || act_clip <= 0.0 || !act_clip.is_finite() {
        return Err(QuantError::Artifact {
            context: format!("bad activation quantizer ({act_bits} bits, clip {act_clip})"),
        });
    }
    let policy = read_policy(&mut r)?;
    let plan_parts = read_plan(&mut r)?;
    let n_layers = r.u32()? as usize;
    let act = crate::integer::ActQuantizer::new(act_bits, act_clip);
    // Counts are untrusted: never pre-allocate from them (a corrupt header
    // must fail on its first short read, not abort on a huge reservation).
    let mut layers = Vec::new();
    for _ in 0..n_layers {
        layers.push(read_layer(&mut r, &act)?);
    }
    if r.pos != r.bytes.len() {
        return Err(QuantError::Artifact {
            context: format!("{} trailing bytes", r.bytes.len() - r.pos),
        });
    }
    let model = QuantizedModel::from_parts(label, policy, act, layers);
    // The stream parsed, but an adversarial (or optimizer-mangled) artifact
    // can still encode a plan whose IR violates the invariants the engine
    // executes under. Prove it against the layer table it names before
    // handing back a runnable.
    let plan = plan_parts(&model.layer_descs()).map_err(|report| QuantError::Verify { report })?;
    Ok(CompiledModel::from_parts(model, Some(plan)))
}

fn write_policy(w: &mut Writer, policy: &MsqPolicy) {
    w.u32(policy.bits);
    w.u8(match policy.alpha {
        AlphaGranularity::PerGroup => 0,
        AlphaGranularity::PerRow => 1,
    });
    match policy.choice {
        SchemeChoice::Single(s) => {
            w.u8(0);
            w.u8(scheme_tag(s));
        }
        SchemeChoice::Mixed(r) => {
            w.u8(1);
            w.f32(r.sp2_fraction());
        }
    }
}

fn read_policy(r: &mut Reader) -> Result<MsqPolicy, QuantError> {
    let bits = r.u32()?;
    let alpha = match r.u8()? {
        0 => AlphaGranularity::PerGroup,
        1 => AlphaGranularity::PerRow,
        t => {
            return Err(QuantError::Artifact {
                context: format!("bad alpha granularity tag {t}"),
            })
        }
    };
    let choice = match r.u8()? {
        0 => SchemeChoice::Single(read_scheme(r)?),
        1 => {
            let f = r.f32()?;
            if !(0.0..=1.0).contains(&f) {
                return Err(QuantError::Artifact {
                    context: format!("sp2 fraction {f} out of [0, 1]"),
                });
            }
            SchemeChoice::Mixed(PartitionRatio::new(f))
        }
        t => {
            return Err(QuantError::Artifact {
                context: format!("bad scheme-choice tag {t}"),
            })
        }
    };
    Ok(MsqPolicy {
        choice,
        bits,
        alpha,
    })
}

fn write_plan(w: &mut Writer, plan: &ExecutionPlan) {
    w.dims(plan.input_dims());
    w.dims(plan.output_dims());
    w.dims(plan.buffer_sizes());
    w.u32(plan.input_buffer() as u32);
    w.u32(plan.output_buffer() as u32);
    w.u32(plan.steps().len() as u32);
    for step in plan.steps() {
        match step.op {
            StepOp::Conv { layer } => {
                w.u8(0);
                w.u32(layer as u32);
            }
            StepOp::Gemm { layer } => {
                w.u8(1);
                w.u32(layer as u32);
            }
            StepOp::Pool(kind) => {
                w.u8(2);
                match kind {
                    PoolKind::Max { window } => {
                        w.u8(0);
                        w.u32(window as u32);
                    }
                    PoolKind::Avg { window } => {
                        w.u8(1);
                        w.u32(window as u32);
                    }
                    PoolKind::GlobalAvg => w.u8(2),
                }
            }
            StepOp::ResidualAdd => w.u8(3),
            StepOp::Activation(kind) => {
                w.u8(4);
                w.u8(match kind {
                    ActKind::Relu => 0,
                    ActKind::Relu6 => 1,
                    ActKind::LeakyRelu => 2,
                });
            }
            StepOp::Flatten => w.u8(5),
            StepOp::Requantize => w.u8(6),
            StepOp::FusedConv { layer, epilogue } => {
                w.u8(7);
                w.u32(layer as u32);
                write_epilogue(w, &epilogue);
            }
            StepOp::FusedGemm { layer, epilogue } => {
                w.u8(8);
                w.u32(layer as u32);
                write_epilogue(w, &epilogue);
            }
        }
        w.dims(&step.srcs);
        w.u32(step.dst as u32);
        w.dims(&step.dims);
        w.u32(step.value as u32);
        w.dims(&step.src_values);
    }
}

/// Reads the plan section. The plan is built (and so verified) by the
/// returned closure, once the layer table it names has been read.
fn read_plan(
    r: &mut Reader,
) -> Result<impl FnOnce(&[QuantLayerDesc]) -> Result<ExecutionPlan, VerifyReport>, QuantError> {
    let input_dims = r.dims()?;
    let output_dims = r.dims()?;
    let buffer_sizes = r.dims()?;
    let input_buffer = r.u32()? as usize;
    let output_buffer = r.u32()? as usize;
    let n_steps = r.u32()? as usize;
    // Untrusted count — no pre-allocation (see import_compiled).
    let mut steps = Vec::new();
    for _ in 0..n_steps {
        let op = match r.u8()? {
            0 => StepOp::Conv {
                layer: r.u32()? as usize,
            },
            1 => StepOp::Gemm {
                layer: r.u32()? as usize,
            },
            2 => StepOp::Pool(match r.u8()? {
                0 => PoolKind::Max {
                    window: r.u32()? as usize,
                },
                1 => PoolKind::Avg {
                    window: r.u32()? as usize,
                },
                2 => PoolKind::GlobalAvg,
                t => {
                    return Err(QuantError::Artifact {
                        context: format!("bad pool tag {t}"),
                    })
                }
            }),
            3 => StepOp::ResidualAdd,
            4 => StepOp::Activation(match r.u8()? {
                0 => ActKind::Relu,
                1 => ActKind::Relu6,
                2 => ActKind::LeakyRelu,
                t => {
                    return Err(QuantError::Artifact {
                        context: format!("bad activation tag {t}"),
                    })
                }
            }),
            5 => StepOp::Flatten,
            6 => StepOp::Requantize,
            7 => StepOp::FusedConv {
                layer: r.u32()? as usize,
                epilogue: read_epilogue(r)?,
            },
            8 => StepOp::FusedGemm {
                layer: r.u32()? as usize,
                epilogue: read_epilogue(r)?,
            },
            t => {
                return Err(QuantError::Artifact {
                    context: format!("bad step tag {t}"),
                })
            }
        };
        let srcs = r.dims()?;
        let dst = r.u32()? as usize;
        let dims = r.dims()?;
        let value = r.u32()? as usize;
        let src_values = r.dims()?;
        steps.push(PlanStep {
            op,
            srcs,
            dst,
            dims,
            value,
            src_values,
        });
    }
    Ok(move |layers: &[QuantLayerDesc]| {
        ExecutionPlan::from_parts(
            input_dims,
            output_dims,
            steps,
            buffer_sizes,
            input_buffer,
            output_buffer,
            Some(layers),
        )
    })
}

fn write_epilogue(w: &mut Writer, epilogue: &Epilogue) {
    w.u8(epilogue.len() as u8);
    for op in epilogue.iter() {
        match op {
            PostOp::Activation(kind) => {
                w.u8(0);
                w.u8(match kind {
                    ActKind::Relu => 0,
                    ActKind::Relu6 => 1,
                    ActKind::LeakyRelu => 2,
                });
            }
            PostOp::Requantize => w.u8(1),
        }
    }
}

fn read_epilogue(r: &mut Reader) -> Result<Epilogue, QuantError> {
    let count = r.u8()? as usize;
    if count > MAX_FUSED_POST_OPS {
        return Err(QuantError::Artifact {
            context: format!("fused epilogue claims {count} post-ops (max {MAX_FUSED_POST_OPS})"),
        });
    }
    let mut epilogue = Epilogue::new();
    for _ in 0..count {
        let op = match r.u8()? {
            0 => PostOp::Activation(match r.u8()? {
                0 => ActKind::Relu,
                1 => ActKind::Relu6,
                2 => ActKind::LeakyRelu,
                t => {
                    return Err(QuantError::Artifact {
                        context: format!("bad epilogue activation tag {t}"),
                    })
                }
            }),
            1 => PostOp::Requantize,
            t => {
                return Err(QuantError::Artifact {
                    context: format!("bad epilogue post-op tag {t}"),
                })
            }
        };
        epilogue.push(op);
    }
    Ok(epilogue)
}

fn write_layer(w: &mut Writer, layer: &QuantizedLayer, packed: &PackedMatrix) {
    w.str(&layer.desc.name);
    match &layer.desc.kind {
        QuantLayerKind::Dense => w.u8(0),
        QuantLayerKind::Recurrent => w.u8(1),
        QuantLayerKind::Conv(g) => {
            w.u8(2);
            w.geom(g);
        }
        QuantLayerKind::DepthwiseConv(g) => {
            w.u8(3);
            w.geom(g);
        }
    }
    w.u32(layer.desc.rows as u32);
    w.u32(layer.desc.cols as u32);
    // Two α streams per row: the packed matrix's encode-time α (what
    // rebuilds the weights bit-identically) and the training report's
    // fitted α (what round-trips the report).
    for (info, &(scheme, packed_alpha)) in layer.report.rows.iter().zip(packed.row_meta()) {
        debug_assert_eq!(info.scheme, scheme);
        w.u8(scheme_tag(scheme));
        w.f32(packed_alpha);
        w.f32(info.alpha);
        w.f32(info.mse);
    }
    w.u32(packed.data().len() as u32);
    w.bytes.extend_from_slice(packed.data());
}

fn read_layer(
    r: &mut Reader,
    act: &crate::integer::ActQuantizer,
) -> Result<QuantizedLayer, QuantError> {
    let name = r.str()?;
    let kind = match r.u8()? {
        0 => QuantLayerKind::Dense,
        1 => QuantLayerKind::Recurrent,
        2 => QuantLayerKind::Conv(r.geom()?),
        3 => QuantLayerKind::DepthwiseConv(r.geom()?),
        t => {
            return Err(QuantError::Artifact {
                context: format!("bad layer-kind tag {t}"),
            })
        }
    };
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    // Untrusted counts — no pre-allocation (see import_compiled).
    let mut row_meta = Vec::new();
    let mut report_rows = Vec::new();
    for _ in 0..rows {
        let scheme = read_scheme(r)?;
        let packed_alpha = r.f32()?;
        let alpha = r.f32()?;
        let mse = r.f32()?;
        row_meta.push((scheme, packed_alpha));
        report_rows.push(RowQuantInfo { scheme, alpha, mse });
    }
    let data_len = r.u32()? as usize;
    let data = r.take(data_len)?.to_vec();
    // Decode failures inside an artifact are artifact corruption: fold them
    // into `Artifact` so `import_compiled` has a single error contract.
    let packed =
        PackedMatrix::from_parts(rows, cols, row_meta, data).map_err(|e| QuantError::Artifact {
            context: format!("layer {name}: {e}"),
        })?;
    let matrix = packed.unpack().map_err(|e| QuantError::Artifact {
        context: format!("layer {name}: {e}"),
    })?;
    let desc = QuantLayerDesc {
        name: name.clone(),
        rows,
        cols,
        kind,
    };
    let form = match &desc.kind {
        QuantLayerKind::Conv(geom) | QuantLayerKind::DepthwiseConv(geom) => DeployForm::Conv(
            QuantizedConv::from_matrix(*geom, matrix, *act).map_err(|e| QuantError::Artifact {
                context: format!("layer {name}: {e}"),
            })?,
        ),
        QuantLayerKind::Dense | QuantLayerKind::Recurrent => DeployForm::Matrix(matrix),
    };
    Ok(QuantizedLayer {
        desc,
        report: crate::admm::LayerQuantReport {
            name,
            rows: report_rows,
        },
        form,
        packed: Some(packed),
        gemm: std::sync::OnceLock::new(),
    })
}

fn scheme_tag(s: Scheme) -> u8 {
    match s {
        Scheme::Fixed => 0,
        Scheme::Pow2 => 1,
        Scheme::Sp2 => 2,
    }
}

fn read_scheme(r: &mut Reader) -> Result<Scheme, QuantError> {
    match r.u8()? {
        0 => Ok(Scheme::Fixed),
        1 => Ok(Scheme::Pow2),
        2 => Ok(Scheme::Sp2),
        t => Err(QuantError::Artifact {
            context: format!("bad scheme tag {t}"),
        }),
    }
}

/// Little-endian byte writer.
#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    fn dims(&mut self, dims: &[usize]) {
        self.u32(dims.len() as u32);
        for &d in dims {
            self.u32(d as u32);
        }
    }

    fn geom(&mut self, g: &ConvGeometry) {
        for v in [
            g.in_channels,
            g.out_channels,
            g.kernel,
            g.stride,
            g.padding,
            g.groups,
        ] {
            self.u32(v as u32);
        }
    }
}

/// Little-endian byte reader with typed `Artifact` errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], QuantError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or_else(|| QuantError::Artifact {
                context: format!("truncated at byte {}", self.pos),
            })?;
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, QuantError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, QuantError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn f32(&mut self) -> Result<f32, QuantError> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn str(&mut self) -> Result<String, QuantError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| QuantError::Artifact {
            context: "non-utf8 string".into(),
        })
    }

    fn dims(&mut self) -> Result<Vec<usize>, QuantError> {
        let len = self.u32()? as usize;
        // Untrusted length: push one validated element at a time so a
        // corrupt count fails on its first short read instead of
        // pre-allocating through `collect`'s size hint.
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(self.u32()? as usize);
        }
        Ok(out)
    }

    fn geom(&mut self) -> Result<ConvGeometry, QuantError> {
        /// Per-field sanity bound. Real conv dimensions sit far below this,
        /// and bounding every field keeps derived products
        /// (`gemm_k = (Cin/groups)·k·k`, output maps) far from `usize`
        /// overflow when the artifact is corrupt.
        const MAX_DIM: usize = 1 << 20;
        let v: Vec<usize> = (0..6)
            .map(|_| Ok(self.u32()? as usize))
            .collect::<Result<_, QuantError>>()?;
        if v[2] == 0 || v[3] == 0 || v[5] == 0 || v.iter().any(|&x| x > MAX_DIM) {
            return Err(QuantError::Artifact {
                context: format!("degenerate conv geometry {v:?}"),
            });
        }
        let mut g = ConvGeometry::new(v[0], v[1], v[2], v[3], v[4]);
        g.groups = v[5];
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::Codebook;
    use proptest::prelude::*;

    #[test]
    fn every_4bit_code_round_trips() {
        for scheme in [Scheme::Fixed, Scheme::Pow2, Scheme::Sp2] {
            let cb = Codebook::new(scheme, 4);
            for level in cb.levels() {
                let nibble = encode_nibble(&level.code);
                assert!(nibble < 16);
                let decoded = decode_nibble(nibble, scheme).expect("valid nibble");
                assert!(
                    (decoded.value() - level.value).abs() < 1e-6,
                    "{scheme}: {} -> {nibble:#x} -> {}",
                    level.value,
                    decoded.value()
                );
            }
        }
    }

    #[test]
    fn pack_unpack_round_trips_odd_lengths() {
        let cb = Codebook::new(Scheme::Sp2, 4);
        let codes: Vec<WeightCode> = cb.levels().iter().map(|l| l.code).collect();
        let packed = pack_nibbles(&codes);
        assert_eq!(packed.len(), codes.len().div_ceil(2));
        let unpacked = unpack_nibbles(&packed, codes.len(), Scheme::Sp2).expect("round trip");
        for (a, b) in codes.iter().zip(&unpacked) {
            assert!((a.value() - b.value()).abs() < 1e-6);
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let err = unpack_nibbles(&[0u8], 3, Scheme::Fixed).unwrap_err();
        assert_eq!(
            err,
            UnpackError::Truncated {
                expected: 3,
                available: 2
            }
        );
    }

    #[test]
    fn negative_zero_is_invalid() {
        assert!(decode_nibble(0b1000, Scheme::Fixed).is_err());
        assert!(decode_nibble(0b1000, Scheme::Sp2).is_err());
    }

    #[test]
    fn compression_approaches_8x() {
        let r = compression_rate(512, 4608); // a ResNet layer
        assert!(r > 7.8 && r <= 8.0, "rate {r}");
        // Tiny layers amortise worse.
        assert!(compression_rate(4, 8) < 7.0);
    }

    #[test]
    fn corrupt_artifact_counts_fail_typed_without_huge_allocation() {
        // Valid magic + version, then a header whose u32 counts are absurd:
        // the reader must fail on the first short read, never pre-allocate
        // from the untrusted count.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"MMCM");
        bytes.extend_from_slice(&1u32.to_le_bytes()); // version
        bytes.extend_from_slice(&0u32.to_le_bytes()); // empty label
        bytes.extend_from_slice(&4u32.to_le_bytes()); // act bits
        bytes.extend_from_slice(&1.0f32.to_le_bytes()); // act clip
        bytes.extend_from_slice(&4u32.to_le_bytes()); // policy bits
        bytes.push(0); // PerGroup
        bytes.push(0); // Single
        bytes.push(2); // Sp2
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // input_dims len!
        let err = crate::export::import_compiled(&bytes).unwrap_err();
        assert!(matches!(err, QuantError::Artifact { .. }), "{err}");
    }

    proptest! {
        #[test]
        fn arbitrary_valid_nibbles_decode_and_reencode(nibble in 0u8..16) {
            for scheme in [Scheme::Fixed, Scheme::Pow2, Scheme::Sp2] {
                if let Ok(code) = decode_nibble(nibble, scheme) {
                    prop_assert_eq!(encode_nibble(&code), nibble);
                }
            }
        }
    }
}
