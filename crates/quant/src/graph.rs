//! Compiled graph IR: [`ExecutionPlan`] — the single lowered artifact the
//! batched engine, the cycle simulator and the export format all consume.
//!
//! [`QuantizableModel::lower`](mixmatch_nn::quantize::QuantizableModel::lower)
//! describes a network as an SSA dataflow graph ([`LoweredGraph`]); this
//! module compiles that graph **once** against the quantized layer
//! descriptors and a concrete input shape:
//!
//! * every intermediate shape is inferred at compile time (a forward pass
//!   does zero shape inference),
//! * weight-bearing nodes are resolved to layer indices (a forward pass
//!   does zero name lookups), and
//! * SSA values are assigned to a small set of arena buffers with liveness
//!   analysis — a value's buffer is recycled (ping-pong) as soon as its
//!   last reader has run, so a whole forward pass runs in
//!   `buffer_count() ≪ values` preallocated buffers with near-zero
//!   allocation. The optimizer's passes end in the same allocator.
//!
//! The planner never aliases a step's output onto a buffer that is still
//! live — including the step's own inputs — which is what the
//! `BufferArena` split borrows rely on and what the property tests pin.
//!
//! Every plan is built through [`ExecutionPlan::from_parts`], which runs
//! the static verifier ([`crate::verify`]), so every `ExecutionPlan` value
//! satisfies the model-independent rules. One shape rule gives a step's
//! output dims from its op and source dims; compile infers with it, the
//! verifier checks claimed dims against it, and the engine checks a
//! plan's pairing with a model by it.
//!
//! ```text
//! QuantizableModel ── lower() ──▶ LoweredGraph ── compile ──▶ ExecutionPlan
//!                                                              │
//!                                      ┌───────────────────────┼──────────────────┐
//!                                      ▼                       ▼                  ▼
//!                        BatchEngine::run_plan_batch   FpgaTarget cycle sim   export artifact
//! ```

use crate::error::QuantError;
use crate::integer::ActQuantizer;
use crate::verify::{self, PlanParts, VerifyReport};
use mixmatch_nn::lower::{ActKind, LoweredGraph, LoweredOp, PoolKind};
use mixmatch_nn::quantize::QuantLayerDesc;
use mixmatch_tensor::Tensor;

/// One compiled operation. `Conv`/`Gemm` reference the quantized layer by
/// index into the model's layer list (resolution happened at compile time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOp {
    /// Integer convolution through layer `layer` (dense or depthwise).
    Conv {
        /// Index into `QuantizedModel::layers()`.
        layer: usize,
    },
    /// Integer matrix–vector product through layer `layer`.
    Gemm {
        /// Index into `QuantizedModel::layers()`.
        layer: usize,
    },
    /// Spatial pooling.
    Pool(PoolKind),
    /// Elementwise two-input addition.
    ResidualAdd,
    /// Elementwise activation.
    Activation(ActKind),
    /// Collapse to a rank-1 vector (pure copy; the shape change was
    /// compiled into the step's output dims).
    Flatten,
    /// Activation-quantizer round trip with the model-wide quantizer.
    Requantize,
    /// Integer convolution through layer `layer` with an elementwise
    /// epilogue applied in place on the output — one pass over the data
    /// instead of one per fused step (the optimizer emits these; lowering
    /// never does).
    FusedConv {
        /// Index into `QuantizedModel::layers()`.
        layer: usize,
        /// Post-ops applied in place, in order.
        epilogue: Epilogue,
    },
    /// Integer matrix–vector product through layer `layer` with an
    /// elementwise epilogue. Unlike `Gemm`, the source buffer may hold any
    /// shape with `cols` elements — the step reads it flat, which is what
    /// lets the optimizer fold a `Flatten` copy into the GEMM read.
    FusedGemm {
        /// Index into `QuantizedModel::layers()`.
        layer: usize,
        /// Post-ops applied in place, in order.
        epilogue: Epilogue,
    },
}

impl StepOp {
    /// The model layer a `Conv`/`Gemm` step (fused or not) runs through;
    /// `None` for weight-free steps.
    pub fn layer(&self) -> Option<usize> {
        match *self {
            StepOp::Conv { layer }
            | StepOp::Gemm { layer }
            | StepOp::FusedConv { layer, .. }
            | StepOp::FusedGemm { layer, .. } => Some(layer),
            _ => None,
        }
    }
}

/// One elementwise operation fused into a `FusedConv`/`FusedGemm` epilogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOp {
    /// Elementwise activation.
    Activation(ActKind),
    /// Activation-quantizer round trip with the model-wide quantizer.
    Requantize,
}

/// Longest post-op chain a fused step carries (`Activation` then
/// `Requantize` is the deepest chain lowering produces).
pub const MAX_FUSED_POST_OPS: usize = 2;

/// An ordered, bounded list of [`PostOp`]s applied in place on a fused
/// step's output. Fixed-capacity so [`StepOp`] stays `Copy`; occupied
/// slots always precede empty ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Epilogue {
    ops: [Option<PostOp>; MAX_FUSED_POST_OPS],
}

impl Epilogue {
    /// The empty epilogue (a fused step that is just a relaxed-shape GEMM).
    pub fn new() -> Self {
        Epilogue::default()
    }

    /// Number of post-ops.
    pub fn len(&self) -> usize {
        self.ops.iter().filter(|o| o.is_some()).count()
    }

    /// `true` when no post-op is attached.
    pub fn is_empty(&self) -> bool {
        self.ops[0].is_none()
    }

    /// `true` when another post-op can still be attached.
    pub fn has_room(&self) -> bool {
        self.ops[MAX_FUSED_POST_OPS - 1].is_none()
    }

    /// Appends `op`; returns `false` (unchanged) when full.
    pub fn push(&mut self, op: PostOp) -> bool {
        for slot in &mut self.ops {
            if slot.is_none() {
                *slot = Some(op);
                return true;
            }
        }
        false
    }

    /// The post-ops in application order.
    pub fn iter(&self) -> impl Iterator<Item = PostOp> + '_ {
        self.ops.iter().filter_map(|o| *o)
    }
}

/// One step of an [`ExecutionPlan`]: an op reading `srcs` buffers and
/// writing `dst` in shape `dims`. The `value`/`src_values` fields record
/// the SSA provenance the buffers were assigned from — they let tests (and
/// debuggers) verify that no live value is ever clobbered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// The operation.
    pub op: StepOp,
    /// Source buffer ids (1 for most ops, 2 for `ResidualAdd`).
    pub srcs: Vec<usize>,
    /// Destination buffer id — never equal to any entry of `srcs`.
    pub dst: usize,
    /// Output dims the step writes.
    pub dims: Vec<usize>,
    /// SSA value this step defines.
    pub value: usize,
    /// SSA values consumed, parallel to `srcs`.
    pub src_values: Vec<usize>,
}

/// A lowered model compiled against one input shape: topologically-ordered
/// steps over a planned buffer arena. See the module docs for the diagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionPlan {
    input_dims: Vec<usize>,
    output_dims: Vec<usize>,
    steps: Vec<PlanStep>,
    /// Element-count high-water mark per buffer id.
    buffer_sizes: Vec<usize>,
    input_buffer: usize,
    output_buffer: usize,
}

impl ExecutionPlan {
    /// Compiles `graph` against the quantized-layer descriptors (the same
    /// list `QuantizedModel::layers()` was packaged from, in the same
    /// order) and a concrete input shape, then assigns buffers and proves
    /// the plan through [`ExecutionPlan::from_parts`].
    ///
    /// # Errors
    ///
    /// [`QuantError::MissingParam`] when a graph node references a weight
    /// name absent from `layers`; [`QuantError::ShapeMismatch`] /
    /// [`QuantError::Geometry`] when shape inference fails (wrong conv
    /// input rank/channels, a map smaller than its conv kernel, pool window
    /// not dividing the map, GEMM width mismatch, residual operands of
    /// different shapes); [`QuantError::Verify`] when the compiled plan
    /// fails the verifier — a node whose result never reaches the graph
    /// output fires `dead-step`.
    pub fn compile(
        graph: &LoweredGraph,
        layers: &[QuantLayerDesc],
        input_dims: &[usize],
    ) -> Result<Self, QuantError> {
        let mut dims_of: Vec<Option<Vec<usize>>> = vec![None; graph.values()];
        dims_of[0] = Some(input_dims.to_vec());
        let mut steps = Vec::with_capacity(graph.nodes().len());
        for node in graph.nodes() {
            let op = match &node.op {
                LoweredOp::Conv { name } => StepOp::Conv {
                    layer: resolve_layer(name, layers)?,
                },
                LoweredOp::Gemm { name } => StepOp::Gemm {
                    layer: resolve_layer(name, layers)?,
                },
                LoweredOp::Pool(kind) => StepOp::Pool(*kind),
                LoweredOp::ResidualAdd => StepOp::ResidualAdd,
                LoweredOp::Activation(kind) => StepOp::Activation(*kind),
                LoweredOp::Flatten => StepOp::Flatten,
                LoweredOp::Requantize => StepOp::Requantize,
            };
            let srcs: Vec<&[usize]> = node
                .inputs
                .iter()
                .map(|&v| {
                    dims_of[v]
                        .as_deref()
                        .expect("graph is topologically ordered")
                })
                .collect();
            let dims = step_dims(&op, &srcs, op.layer().map(|l| &layers[l]))?;
            dims_of[node.output] = Some(dims.clone());
            steps.push(ValueStep {
                op,
                dims,
                value: node.output,
                src_values: node.inputs.clone(),
            });
        }
        ValuePlan {
            input_dims: input_dims.to_vec(),
            output_dims: dims_of[graph.output()]
                .clone()
                .expect("output shape inferred"),
            steps,
            output_value: graph.output(),
        }
        .allocate(Some(layers))
        .map_err(|report| QuantError::Verify { report })
    }

    /// Assembles a plan from its parts and proves it with the static
    /// verifier ([`verify::verify_parts`]), so every `ExecutionPlan` value
    /// satisfies the model-independent rules: SSA discipline, buffer
    /// safety and exact high-water marks, weight-free shape flow, and
    /// reachability. With `layers`, each Conv/Gemm step is also checked
    /// against the layer it names; without, its claimed output is taken at
    /// face value, and `BatchEngine::run_plan` checks it against the model
    /// it is paired with before any fan-out.
    ///
    /// # Errors
    ///
    /// The verifier's report when any rule fires.
    pub fn from_parts(
        input_dims: Vec<usize>,
        output_dims: Vec<usize>,
        steps: Vec<PlanStep>,
        buffer_sizes: Vec<usize>,
        input_buffer: usize,
        output_buffer: usize,
        layers: Option<&[QuantLayerDesc]>,
    ) -> Result<Self, VerifyReport> {
        let plan = ExecutionPlan {
            input_dims,
            output_dims,
            steps,
            buffer_sizes,
            input_buffer,
            output_buffer,
        };
        let report = verify::verify_parts(&PlanParts::from(&plan), layers);
        if report.is_clean() {
            Ok(plan)
        } else {
            Err(report)
        }
    }

    /// Steps in execution order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// The input shape the plan was compiled for.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// The network-output shape.
    pub fn output_dims(&self) -> &[usize] {
        &self.output_dims
    }

    /// Number of arena buffers a forward pass needs (≤ SSA value count —
    /// usually far fewer, thanks to recycling).
    pub fn buffer_count(&self) -> usize {
        self.buffer_sizes.len()
    }

    /// Element-count high-water mark per buffer id — what a
    /// `BufferArena::with_sizes` preallocates.
    pub fn buffer_sizes(&self) -> &[usize] {
        &self.buffer_sizes
    }

    /// Buffer id holding the network input at step 0.
    pub fn input_buffer(&self) -> usize {
        self.input_buffer
    }

    /// Buffer id holding the network output after the last step.
    pub fn output_buffer(&self) -> usize {
        self.output_buffer
    }

    /// Indices of the model layers the plan executes, in step order — the
    /// GEMM schedule the cycle simulator walks.
    pub fn gemm_layers(&self) -> impl Iterator<Item = usize> + '_ {
        self.steps.iter().filter_map(|s| s.op.layer())
    }
}

/// Checked element count of a dim list.
pub(crate) fn element_count(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// The shape rule: the dims `op` writes when it reads sources of `srcs`
/// dims. `layer` is the descriptor a Conv/Gemm step names (`None` when the
/// layer table has no such index). A fused conv follows the conv rule; a
/// fused GEMM reads its source flat, so any shape holding exactly `cols`
/// elements feeds it. Compile infers dims with this rule, the verifier
/// checks each step's claimed dims against it, and the engine checks a
/// plan-vs-model pairing with it.
///
/// # Errors
///
/// [`QuantError::MissingParam`] (`plan layer #N`) for a missing layer,
/// [`QuantError::ShapeMismatch`] for a source of the wrong rank, channel
/// count or width, and [`QuantError::Geometry`] for a wrong source count,
/// a layer of the wrong kind or an impossible map (kernel larger than the
/// padded input, pool window not tiling it, element count overflowing
/// `usize`).
pub(crate) fn step_dims(
    op: &StepOp,
    srcs: &[&[usize]],
    layer: Option<&QuantLayerDesc>,
) -> Result<Vec<usize>, QuantError> {
    let src = match (op, srcs) {
        (StepOp::ResidualAdd, [a, b]) => {
            return if a == b {
                Ok(a.to_vec())
            } else {
                Err(QuantError::ShapeMismatch {
                    context: "residual operands must share a shape".into(),
                    expected: a.to_vec(),
                    got: b.to_vec(),
                })
            };
        }
        (StepOp::ResidualAdd, _) | (_, [_, _, ..] | []) => {
            return Err(QuantError::Geometry {
                context: format!("{op:?} cannot read {} sources", srcs.len()),
            })
        }
        (_, [src]) => *src,
    };
    let desc = op
        .layer()
        .map(|index| {
            layer.ok_or_else(|| QuantError::MissingParam {
                name: format!("plan layer #{index}"),
            })
        })
        .transpose()?;
    match (op, desc) {
        (StepOp::Conv { .. } | StepOp::FusedConv { .. }, Some(desc)) => {
            let Some(geom) = desc.geometry() else {
                return Err(QuantError::Geometry {
                    context: format!("layer {:?} is not a convolution", desc.name),
                });
            };
            // A corrupt artifact can desynchronize the packed rows/cols
            // from the geometry they claim.
            if desc.rows != geom.out_channels || desc.cols != geom.gemm_k() {
                return Err(QuantError::Geometry {
                    context: format!(
                        "layer {:?} packs [{}, {}] weights, geometry wants [{}, {}]",
                        desc.name,
                        desc.rows,
                        desc.cols,
                        geom.out_channels,
                        geom.gemm_k()
                    ),
                });
            }
            if src.len() != 3 || src[0] != geom.in_channels {
                return Err(QuantError::ShapeMismatch {
                    context: format!("layer {:?} input must be [Cin, H, W]", desc.name),
                    expected: vec![geom.in_channels],
                    got: src.to_vec(),
                });
            }
            match (
                geom.checked_output_size(src[1]),
                geom.checked_output_size(src[2]),
            ) {
                (Some(oh), Some(ow)) => Ok(vec![geom.out_channels, oh, ow]),
                _ => Err(QuantError::Geometry {
                    context: format!(
                        "layer {:?} input {src:?} smaller than its kernel",
                        desc.name
                    ),
                }),
            }
        }
        (StepOp::Gemm { .. } | StepOp::FusedGemm { .. }, Some(desc)) => {
            if desc.geometry().is_some() {
                return Err(QuantError::Geometry {
                    context: format!("layer {:?} is a convolution, not a GEMM", desc.name),
                });
            }
            let fits = match op {
                StepOp::FusedGemm { .. } => element_count(src) == Some(desc.cols),
                _ => src == [desc.cols],
            };
            if !fits {
                return Err(QuantError::ShapeMismatch {
                    context: format!("layer {:?} input must hold [cols]", desc.name),
                    expected: vec![desc.cols],
                    got: src.to_vec(),
                });
            }
            Ok(vec![desc.rows])
        }
        (StepOp::Pool(kind), _) => {
            if src.len() != 3 {
                return Err(QuantError::ShapeMismatch {
                    context: "pool input must be [C, H, W]".into(),
                    expected: vec![3],
                    got: src.to_vec(),
                });
            }
            match *kind {
                PoolKind::Max { window } | PoolKind::Avg { window } => {
                    if window == 0
                        || !src[1].is_multiple_of(window)
                        || !src[2].is_multiple_of(window)
                    {
                        return Err(QuantError::Geometry {
                            context: format!("pool window {window} does not tile {src:?}"),
                        });
                    }
                    Ok(vec![src[0], src[1] / window, src[2] / window])
                }
                PoolKind::GlobalAvg => Ok(vec![src[0], 1, 1]),
            }
        }
        (StepOp::Flatten, _) => {
            element_count(src)
                .map(|n| vec![n])
                .ok_or_else(|| QuantError::Geometry {
                    context: format!("flatten of {src:?} overflows the element count"),
                })
        }
        _ => Ok(src.to_vec()),
    }
}

/// Looks a weight name up in the packaged layer order.
fn resolve_layer(name: &str, layers: &[QuantLayerDesc]) -> Result<usize, QuantError> {
    layers
        .iter()
        .position(|d| d.name == name)
        .ok_or_else(|| QuantError::MissingParam { name: name.into() })
}

/// One plan step before buffer assignment: pure SSA dataflow.
#[derive(Debug, Clone)]
pub(crate) struct ValueStep {
    pub(crate) op: StepOp,
    pub(crate) dims: Vec<usize>,
    pub(crate) value: usize,
    pub(crate) src_values: Vec<usize>,
}

/// A plan at the SSA-value level — what compile emits and what optimizer
/// passes rewrite. [`ValuePlan::allocate`] derives the buffers, so no pass
/// reasons about arena recycling.
pub(crate) struct ValuePlan {
    pub(crate) input_dims: Vec<usize>,
    pub(crate) output_dims: Vec<usize>,
    pub(crate) steps: Vec<ValueStep>,
    /// The SSA value the plan's output buffer holds at the end.
    pub(crate) output_value: usize,
}

impl ValuePlan {
    /// Largest value id the plan names.
    pub(crate) fn max_value(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| s.src_values.iter().chain(std::iter::once(&s.value)))
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.output_value)
    }

    /// Greedy liveness-driven buffer assignment, the one allocator every
    /// plan goes through: allocate a step's output before freeing its
    /// inputs (so an output never aliases a live input), reuse the largest
    /// free buffer (fewest storage regrows), free a double-read value once,
    /// and keep the output value alive to the end. Ends in
    /// [`ExecutionPlan::from_parts`]. A value read before its definition
    /// gets an out-of-range buffer id, which the verifier reports.
    pub(crate) fn allocate(
        self,
        layers: Option<&[QuantLayerDesc]>,
    ) -> Result<ExecutionPlan, VerifyReport> {
        let n = self.max_value() + 1;
        let mut last_use = vec![0usize; n];
        for (i, step) in self.steps.iter().enumerate() {
            for &v in &step.src_values {
                last_use[v] = last_use[v].max(i);
            }
        }
        last_use[self.output_value] = usize::MAX;

        let mut buffer_of: Vec<Option<usize>> = vec![None; n];
        let mut buffer_sizes: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut alloc = |dims: &[usize], free: &mut Vec<usize>| -> usize {
            let slot = match free
                .iter()
                .enumerate()
                .max_by_key(|(_, &b)| buffer_sizes[b])
                .map(|(i, _)| i)
            {
                Some(i) => free.swap_remove(i),
                None => {
                    buffer_sizes.push(0);
                    buffer_sizes.len() - 1
                }
            };
            let len = element_count(dims).unwrap_or(usize::MAX);
            buffer_sizes[slot] = buffer_sizes[slot].max(len);
            slot
        };
        buffer_of[0] = Some(alloc(&self.input_dims, &mut free));
        let mut steps = Vec::with_capacity(self.steps.len());
        for (i, step) in self.steps.into_iter().enumerate() {
            let dst = alloc(&step.dims, &mut free);
            buffer_of[step.value] = Some(dst);
            let srcs = step
                .src_values
                .iter()
                .map(|&v| buffer_of[v].unwrap_or(usize::MAX))
                .collect();
            for (slot, &v) in step.src_values.iter().enumerate() {
                if last_use[v] == i && !step.src_values[..slot].contains(&v) {
                    free.extend(buffer_of[v]);
                }
            }
            steps.push(PlanStep {
                op: step.op,
                srcs,
                dst,
                dims: step.dims,
                value: step.value,
                src_values: step.src_values,
            });
        }
        let output_buffer = buffer_of[self.output_value].unwrap_or(usize::MAX);
        ExecutionPlan::from_parts(
            self.input_dims,
            self.output_dims,
            steps,
            buffer_sizes,
            buffer_of[0].expect("input allocated"),
            output_buffer,
            layers,
        )
    }
}

// ---------------------------------------------------------------------------
// Weight-free step kernels (the engine runs Conv/Gemm through its compiled
// GEMM plans; everything else executes here).
// ---------------------------------------------------------------------------

/// Elementwise activation `dst[i] = kind(src[i])`.
pub fn activation_into(kind: ActKind, src: &Tensor, dst: &mut Tensor) {
    for (o, &x) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *o = kind.apply(x);
    }
}

/// Elementwise `dst[i] = a[i] + b[i]`.
pub fn residual_add_into(a: &Tensor, b: &Tensor, dst: &mut Tensor) {
    for ((o, &x), &y) in dst
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = x + y;
    }
}

/// Activation-quantizer round trip `dst[i] = dequantize(quantize(src[i]))` —
/// the deployed twin of a `FakeQuant` layer.
pub fn requantize_into(act: &ActQuantizer, src: &Tensor, dst: &mut Tensor) {
    let step = act.step();
    for (o, &x) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *o = act.quantize_one(x) as f32 * step;
    }
}

/// Applies a fused epilogue in place over `data`: one pass per post-op,
/// with the dispatch and the quantizer's step hoisted out of the element
/// loop, so each pass vectorises. Per element this is exactly the
/// arithmetic of the standalone [`activation_into`] / [`requantize_into`]
/// kernels, and every post-op is elementwise, so a fused plan's logits stay
/// bit-identical to its unfused twin's. An empty epilogue is a no-op.
pub fn apply_epilogue(epilogue: &Epilogue, act: &ActQuantizer, data: &mut [f32]) {
    fn each(data: &mut [f32], f: impl Fn(f32) -> f32) {
        for x in data {
            *x = f(*x);
        }
    }
    for op in epilogue.iter() {
        match op {
            PostOp::Activation(ActKind::Relu) => each(data, |x| ActKind::Relu.apply(x)),
            PostOp::Activation(ActKind::Relu6) => each(data, |x| ActKind::Relu6.apply(x)),
            PostOp::Activation(ActKind::LeakyRelu) => each(data, |x| ActKind::LeakyRelu.apply(x)),
            PostOp::Requantize => {
                let step = act.step();
                each(data, |x| act.quantize_one(x) as f32 * step)
            }
        }
    }
}

/// Rank-changing copy (`Flatten`): same elements, the compiled output dims.
pub fn flatten_into(src: &Tensor, dst: &mut Tensor) {
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}

/// Pooling over a `[C, H, W]` map into the compiled output shape.
pub fn pool_into(kind: PoolKind, src: &Tensor, dst: &mut Tensor) {
    let (c, h, w) = (src.dims()[0], src.dims()[1], src.dims()[2]);
    let x = src.as_slice();
    let out = dst.as_mut_slice();
    match kind {
        PoolKind::Max { window: k } => {
            let (oh, ow) = (h / k, w / k);
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for dy in 0..k {
                            for dx in 0..k {
                                best = best.max(x[(ch * h + oy * k + dy) * w + ox * k + dx]);
                            }
                        }
                        out[(ch * oh + oy) * ow + ox] = best;
                    }
                }
            }
        }
        PoolKind::Avg { window: k } => {
            let (oh, ow) = (h / k, w / k);
            let inv = 1.0 / (k * k) as f32;
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut sum = 0.0f32;
                        for dy in 0..k {
                            for dx in 0..k {
                                sum += x[(ch * h + oy * k + dy) * w + ox * k + dx];
                            }
                        }
                        out[(ch * oh + oy) * ow + ox] = sum * inv;
                    }
                }
            }
        }
        PoolKind::GlobalAvg => {
            let inv = 1.0 / (h * w) as f32;
            for ch in 0..c {
                out[ch] = x[ch * h * w..(ch + 1) * h * w].iter().sum::<f32>() * inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Rule;
    use mixmatch_nn::lower::GraphBuilder;
    use mixmatch_nn::quantize::QuantLayerKind;
    use mixmatch_tensor::im2col::ConvGeometry;

    /// The post-op chain applied to one value at a time, each result
    /// passed through `black_box` so no loop around it vectorises: the
    /// reference the hoisted passes of [`apply_epilogue`] must equal.
    fn epilogue_one(epilogue: &Epilogue, act: &ActQuantizer, mut x: f32) -> f32 {
        for op in epilogue.iter() {
            x = std::hint::black_box(match op {
                PostOp::Activation(kind) => kind.apply(x),
                PostOp::Requantize => act.quantize_one(x) as f32 * act.step(),
            });
        }
        x
    }

    #[test]
    fn hoisted_epilogue_equals_the_per_element_chain_bit_for_bit() {
        let chain = |ops: &[PostOp]| {
            let mut e = Epilogue::new();
            for &op in ops {
                assert!(e.push(op));
            }
            e
        };
        let (relu, requantize) = (PostOp::Activation(ActKind::Relu), PostOp::Requantize);
        let chains = [
            chain(&[relu]),
            chain(&[PostOp::Activation(ActKind::Relu6)]),
            chain(&[PostOp::Activation(ActKind::LeakyRelu)]),
            chain(&[requantize]),
            chain(&[relu, requantize]),
        ];
        // ±0, ±Inf, extremes, NaN payloads (quiet and signalling, both
        // signs), subnormals, and values around Relu6's cap.
        let mut special = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
        ];
        special.extend([
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            6.0,
            -6.0,
            1e30,
            -1e30,
        ]);
        special.extend(
            [
                0x7fc0_0000u32,
                0x7fc0_0001,
                0x7f80_0001,
                0x7fff_ffff,
                0xffc0_0000,
                0xff80_0001,
                0x0000_0001,
                0x007f_ffff,
                0x8000_0001,
                0x807f_ffff,
            ]
            .map(f32::from_bits),
        );
        special.push(6.0f32.next_up());
        for bits in [2, 4, 8, 15, 16] {
            let act = ActQuantizer::new(bits, 1.5);
            let mut values = special.clone();
            // Past the clip, and each level's half-way tie ±1 ulp.
            values.extend([act.clip, act.clip.next_up(), 2.0 * act.clip]);
            for i in 0..act.levels() {
                let half = ((i as f32 + 0.5) * act.step()).to_bits();
                values.extend((half - 1..=half + 1).map(f32::from_bits));
            }
            for epilogue in &chains {
                let mut data = values.clone();
                apply_epilogue(epilogue, &act, &mut data);
                for (&x, &y) in values.iter().zip(&data) {
                    assert_eq!(
                        y.to_bits(),
                        epilogue_one(epilogue, &act, x).to_bits(),
                        "{epilogue:?} at {bits} bits, x {x:e} ({:#010x})",
                        x.to_bits()
                    );
                }
            }
        }
        // An empty epilogue leaves every value as it was.
        let mut data = special.clone();
        apply_epilogue(&Epilogue::new(), &ActQuantizer::new(4, 1.5), &mut data);
        assert_eq!(bits_of(&data), bits_of(&special));
    }

    fn bits_of(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn conv_desc(name: &str, geom: ConvGeometry) -> QuantLayerDesc {
        QuantLayerDesc {
            name: name.into(),
            rows: geom.out_channels,
            cols: geom.gemm_k(),
            kind: if geom.groups == 1 {
                QuantLayerKind::Conv(geom)
            } else {
                QuantLayerKind::DepthwiseConv(geom)
            },
        }
    }

    fn dense_desc(name: &str, rows: usize, cols: usize) -> QuantLayerDesc {
        QuantLayerDesc {
            name: name.into(),
            rows,
            cols,
            kind: QuantLayerKind::Dense,
        }
    }

    /// stem conv → relu → global pool → flatten → fc, on 8×8 inputs.
    fn tiny_plan() -> ExecutionPlan {
        let mut g = GraphBuilder::new();
        let x = g.input();
        let a = g.conv("stem.weight", x);
        let b = g.activation(ActKind::Relu, a);
        let p = g.pool(PoolKind::GlobalAvg, b);
        let f = g.flatten(p);
        let y = g.gemm("fc.weight", f);
        let graph = g.finish(y);
        let layers = vec![
            conv_desc("stem.weight", ConvGeometry::new(3, 4, 3, 1, 1)),
            dense_desc("fc.weight", 10, 4),
        ];
        ExecutionPlan::compile(&graph, &layers, &[3, 8, 8]).expect("compile")
    }

    #[test]
    fn shapes_and_layer_indices_are_compiled_in() {
        let plan = tiny_plan();
        assert_eq!(plan.input_dims(), &[3, 8, 8]);
        assert_eq!(plan.output_dims(), &[10]);
        let dims: Vec<&[usize]> = plan.steps().iter().map(|s| &s.dims[..]).collect();
        assert_eq!(
            dims,
            vec![&[4, 8, 8][..], &[4, 8, 8], &[4, 1, 1], &[4], &[10]]
        );
        assert_eq!(plan.gemm_layers().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn dead_buffers_are_recycled() {
        let plan = tiny_plan();
        // 6 SSA values fit in a ping-pong pair: with the no-same-step
        // aliasing rule a straight-line chain needs exactly 2 buffers.
        assert_eq!(plan.buffer_count(), 2);
        for step in plan.steps() {
            assert!(!step.srcs.contains(&step.dst), "output aliases an input");
        }
    }

    #[test]
    fn residual_keeps_block_input_alive() {
        let mut g = GraphBuilder::new();
        let x = g.input();
        let a = g.conv("c1.weight", x);
        let b = g.conv("c2.weight", a);
        let s = g.residual_add(b, x);
        let graph = g.finish(s);
        let layers = vec![
            conv_desc("c1.weight", ConvGeometry::new(4, 4, 3, 1, 1)),
            conv_desc("c2.weight", ConvGeometry::new(4, 4, 3, 1, 1)),
        ];
        let plan = ExecutionPlan::compile(&graph, &layers, &[4, 6, 6]).expect("compile");
        // x (buffer for value 0) must not be recycled before the add.
        let add = plan.steps().last().unwrap();
        assert_eq!(add.src_values, vec![2, 0]);
        let x_buf = plan.input_buffer();
        for step in &plan.steps()[..2] {
            assert_ne!(step.dst, x_buf, "live input buffer was clobbered");
        }
    }

    #[test]
    fn double_read_of_one_value_frees_its_buffer_once() {
        // `x + x` reads one value in both slots; the planner must not free
        // its buffer twice (a double free would hand one buffer to two
        // live values downstream).
        let mut g = GraphBuilder::new();
        let x = g.input();
        let a = g.activation(ActKind::Relu, x);
        let doubled = g.residual_add(a, a); // a's last use — both slots
        let b = g.activation(ActKind::Relu, doubled);
        let c = g.requantize(b);
        let y = g.residual_add(b, c); // b must still be intact here
        let graph = g.finish(y);
        let plan = ExecutionPlan::compile(&graph, &[], &[2, 2, 2]).expect("compile");
        // Replay the plan's provenance: every source buffer must still
        // hold the value the step expects.
        let mut holds = vec![None; plan.buffer_count()];
        holds[plan.input_buffer()] = Some(0usize);
        for step in plan.steps() {
            for (&buf, &value) in step.srcs.iter().zip(&step.src_values) {
                assert_eq!(holds[buf], Some(value), "live value clobbered");
            }
            assert!(!step.srcs.contains(&step.dst));
            holds[step.dst] = Some(step.value);
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_shape_flow() {
        let plan = tiny_plan();
        let reassemble = |mutate: fn(&mut Vec<PlanStep>)| {
            let mut steps = plan.steps().to_vec();
            mutate(&mut steps);
            ExecutionPlan::from_parts(
                plan.input_dims().to_vec(),
                plan.output_dims().to_vec(),
                steps,
                plan.buffer_sizes().to_vec(),
                plan.input_buffer(),
                plan.output_buffer(),
                None,
            )
        };
        // Unmodified parts round-trip.
        assert_eq!(reassemble(|_| {}).expect("valid"), tiny_plan());
        // A flatten step claiming a different element count fails typed.
        let err = reassemble(|steps| steps[3].dims = vec![5]).unwrap_err();
        assert!(err.fired(Rule::ShapeFlow), "{err}");
        // An elementwise step changing shape fails typed.
        let err = reassemble(|steps| steps[1].dims = vec![4, 7, 8]).unwrap_err();
        assert!(err.fired(Rule::ShapeFlow), "{err}");
        // A pool step with impossible tiling fails typed.
        let err = reassemble(|steps| {
            steps[2].op = StepOp::Pool(mixmatch_nn::lower::PoolKind::Max { window: 3 });
        })
        .unwrap_err();
        assert!(err.fired(Rule::ShapeFlow), "{err}");
    }

    #[test]
    fn compile_errors_are_typed() {
        let mut g = GraphBuilder::new();
        let x = g.input();
        let y = g.conv("missing.weight", x);
        let graph = g.finish(y);
        assert!(matches!(
            ExecutionPlan::compile(&graph, &[], &[3, 8, 8]),
            Err(QuantError::MissingParam { .. })
        ));

        let mut g = GraphBuilder::new();
        let x = g.input();
        let y = g.conv("c.weight", x);
        let graph = g.finish(y);
        let layers = vec![conv_desc("c.weight", ConvGeometry::new(3, 4, 3, 1, 1))];
        // Wrong channel count.
        assert!(matches!(
            ExecutionPlan::compile(&graph, &layers, &[2, 8, 8]),
            Err(QuantError::ShapeMismatch { .. })
        ));

        let mut g = GraphBuilder::new();
        let x = g.input();
        let y = g.pool(PoolKind::Max { window: 3 }, x);
        let graph = g.finish(y);
        // 8 is not divisible by 3.
        assert!(matches!(
            ExecutionPlan::compile(&graph, &[], &[1, 8, 8]),
            Err(QuantError::Geometry { .. })
        ));

        let mut g = GraphBuilder::new();
        let x = g.input();
        let y = g.conv("c.weight", x);
        let graph = g.finish(y);
        let layers = vec![conv_desc("c.weight", ConvGeometry::new(3, 4, 3, 1, 0))];
        // A 2×2 map is smaller than the unpadded 3×3 kernel.
        assert!(matches!(
            ExecutionPlan::compile(&graph, &layers, &[3, 2, 2]),
            Err(QuantError::Geometry { .. })
        ));
    }

    #[test]
    fn compile_refuses_nodes_that_never_reach_the_output() {
        let mut g = GraphBuilder::new();
        let x = g.input();
        let _dead = g.activation(ActKind::Relu, x);
        let y = g.requantize(x);
        let graph = g.finish(y);
        match ExecutionPlan::compile(&graph, &[], &[4]) {
            Err(QuantError::Verify { report }) => assert!(report.fired(Rule::DeadStep), "{report}"),
            other => panic!("expected a dead-step refusal, got {other:?}"),
        }
    }

    #[test]
    fn step_kernels_match_reference_semantics() {
        let src = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[1, 2, 2]).unwrap();
        let mut dst = Tensor::zeros(&[1, 2, 2]);
        activation_into(ActKind::Relu, &src, &mut dst);
        assert_eq!(dst.as_slice(), &[1.0, 0.0, 3.0, 0.0]);

        let mut pooled = Tensor::zeros(&[1, 1, 1]);
        pool_into(PoolKind::Max { window: 2 }, &src, &mut pooled);
        assert_eq!(pooled.as_slice(), &[3.0]);
        pool_into(PoolKind::GlobalAvg, &src, &mut pooled);
        assert_eq!(pooled.as_slice(), &[-0.5]);
        pool_into(PoolKind::Avg { window: 2 }, &src, &mut pooled);
        assert_eq!(pooled.as_slice(), &[-0.5]);

        let act = ActQuantizer::new(4, 1.0);
        let mut rq = Tensor::zeros(&[1, 2, 2]);
        requantize_into(&act, &src, &mut rq);
        let reference = act.dequantize(&act.quantize(src.as_slice()));
        assert_eq!(rq.as_slice(), &reference[..]);
    }
}
