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
//!   allocation.
//!
//! The planner never aliases a step's output onto a buffer that is still
//! live — including the step's own inputs — which is what the
//! `BufferArena` split borrows rely on and what the property tests pin.
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
use mixmatch_nn::lower::{ActKind, LoweredGraph, LoweredOp, PoolKind};
use mixmatch_nn::quantize::{QuantLayerDesc, QuantLayerKind};
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
    /// order) and a concrete input shape.
    ///
    /// # Errors
    ///
    /// [`QuantError::MissingParam`] when a graph node references a weight
    /// name absent from `layers`; [`QuantError::ShapeMismatch`] /
    /// [`QuantError::Geometry`] when shape inference fails (wrong conv
    /// input rank/channels, pool window not dividing the map, GEMM width
    /// mismatch, residual operands of different shapes).
    pub fn compile(
        graph: &LoweredGraph,
        layers: &[QuantLayerDesc],
        input_dims: &[usize],
    ) -> Result<Self, QuantError> {
        // --- Pass 1: shape inference + layer resolution, per SSA value. ---
        let mut dims_of: Vec<Option<Vec<usize>>> = vec![None; graph.values()];
        dims_of[0] = Some(input_dims.to_vec());
        let mut ops = Vec::with_capacity(graph.nodes().len());
        for node in graph.nodes() {
            let in_dims: Vec<&[usize]> = node
                .inputs
                .iter()
                .map(|&v| {
                    dims_of[v]
                        .as_deref()
                        .expect("graph is topologically ordered")
                })
                .collect();
            let (op, out) = infer_step(&node.op, &in_dims, layers)?;
            dims_of[node.output] = Some(out);
            ops.push(op);
        }

        // --- Pass 2: liveness — last reader per value. ---
        let mut last_use = vec![0usize; graph.values()];
        for (i, node) in graph.nodes().iter().enumerate() {
            for &v in &node.inputs {
                last_use[v] = last_use[v].max(i);
            }
        }
        // The graph output must survive the whole plan.
        last_use[graph.output()] = usize::MAX;

        // --- Pass 3: greedy buffer assignment with recycling. ---
        let mut buffer_of = vec![usize::MAX; graph.values()];
        let mut buffer_sizes: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let alloc = |value: usize,
                     free: &mut Vec<usize>,
                     sizes: &mut Vec<usize>,
                     dims_of: &[Option<Vec<usize>>]|
         -> usize {
            let len: usize = dims_of[value]
                .as_ref()
                .expect("shape inferred")
                .iter()
                .product();
            // Reuse the largest free buffer (fewest storage regrows).
            let slot = match free
                .iter()
                .enumerate()
                .max_by_key(|(_, &b)| sizes[b])
                .map(|(i, _)| i)
            {
                Some(i) => free.swap_remove(i),
                None => {
                    sizes.push(0);
                    sizes.len() - 1
                }
            };
            sizes[slot] = sizes[slot].max(len);
            slot
        };
        buffer_of[0] = alloc(0, &mut free, &mut buffer_sizes, &dims_of);
        // The network input may be read by no node at all (degenerate
        // single-value graphs); it is still the output then.
        let mut steps = Vec::with_capacity(graph.nodes().len());
        for (i, (node, op)) in graph.nodes().iter().zip(ops).enumerate() {
            // Allocate the output first: inputs whose last use is this step
            // are freed only *after* it, so an output never aliases a live
            // input.
            let dst = alloc(node.output, &mut free, &mut buffer_sizes, &dims_of);
            buffer_of[node.output] = dst;
            let srcs: Vec<usize> = node.inputs.iter().map(|&v| buffer_of[v]).collect();
            steps.push(PlanStep {
                op,
                srcs,
                dst,
                dims: dims_of[node.output].clone().expect("shape inferred"),
                value: node.output,
                src_values: node.inputs.clone(),
            });
            for (slot, &v) in node.inputs.iter().enumerate() {
                // A node may read one value in both input slots (`x + x`);
                // free its buffer once, not per slot.
                if last_use[v] == i && !node.inputs[..slot].contains(&v) {
                    free.push(buffer_of[v]);
                }
            }
        }
        Ok(ExecutionPlan {
            input_dims: input_dims.to_vec(),
            output_dims: dims_of[graph.output()]
                .clone()
                .expect("output shape inferred"),
            steps,
            buffer_sizes,
            input_buffer: buffer_of[0],
            output_buffer: buffer_of[graph.output()],
        })
    }

    /// Reassembles a plan from deserialized parts, re-validating every
    /// structural invariant the executor relies on — buffer ids in range,
    /// step arity, no same-step aliasing, output shape consistency, and
    /// the shape *flow* of every weight-free step (elementwise counts,
    /// flatten counts, pool rank and tiling) — so a corrupt artifact fails
    /// typed instead of panicking mid-execution. Conv/Gemm input shapes
    /// depend on the model the plan is paired with and are re-validated by
    /// `BatchEngine::run_plan` before any fan-out.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn from_parts(
        input_dims: Vec<usize>,
        output_dims: Vec<usize>,
        steps: Vec<PlanStep>,
        buffer_sizes: Vec<usize>,
        input_buffer: usize,
        output_buffer: usize,
    ) -> Result<Self, String> {
        let buffers = buffer_sizes.len();
        if input_buffer >= buffers || output_buffer >= buffers {
            return Err(format!(
                "input/output buffer out of range ({input_buffer}/{output_buffer} of {buffers})"
            ));
        }
        // Track each buffer's dims through the step list so shape-flow
        // violations surface here, not as slice-length panics at run time.
        // Element counts go through checked multiplication (artifact dims
        // are untrusted u32s — a corrupt step must not overflow-panic), and
        // every buffer's high-water mark is recomputed so a corrupt
        // `buffer_sizes` section can neither under-allocate (slice panics
        // mid-execution) nor over-allocate (a multi-gigabyte arena per
        // worker at run time).
        let count = |d: &[usize]| -> Result<usize, String> {
            d.iter()
                .try_fold(1usize, |acc, &x| acc.checked_mul(x))
                .ok_or_else(|| format!("dims {d:?} overflow the element count"))
        };
        let mut dims: Vec<Option<&[usize]>> = vec![None; buffers];
        let mut high_water = vec![0usize; buffers];
        dims[input_buffer] = Some(&input_dims);
        high_water[input_buffer] = count(&input_dims)?;
        for (i, step) in steps.iter().enumerate() {
            let arity = match step.op {
                StepOp::ResidualAdd => 2,
                _ => 1,
            };
            if step.srcs.len() != arity || step.src_values.len() != arity {
                return Err(format!("step {i} has wrong arity"));
            }
            if step.srcs.iter().any(|&s| s >= buffers) || step.dst >= buffers {
                return Err(format!("step {i} references a buffer out of range"));
            }
            if step.srcs.contains(&step.dst) {
                return Err(format!("step {i} output aliases an input"));
            }
            if step.dims.is_empty() {
                return Err(format!("step {i} has no output dims"));
            }
            let src_dims: Vec<&[usize]> = step
                .srcs
                .iter()
                .map(|&s| {
                    dims[s].ok_or_else(|| format!("step {i} reads buffer {s} before any write"))
                })
                .collect::<Result<_, String>>()?;
            match step.op {
                StepOp::Activation(_) | StepOp::Requantize => {
                    if src_dims[0] != step.dims {
                        return Err(format!("step {i} elementwise shape mismatch"));
                    }
                }
                StepOp::ResidualAdd => {
                    if src_dims[0] != step.dims || src_dims[1] != step.dims {
                        return Err(format!("step {i} residual shape mismatch"));
                    }
                }
                StepOp::Flatten => {
                    if count(src_dims[0])? != count(&step.dims)? {
                        return Err(format!("step {i} flatten changes the element count"));
                    }
                }
                StepOp::Pool(kind) => {
                    let d = src_dims[0];
                    let ok = d.len() == 3
                        && match kind {
                            PoolKind::Max { window } | PoolKind::Avg { window } => {
                                window > 0
                                    && d[1].checked_rem(window) == Some(0)
                                    && d[2].checked_rem(window) == Some(0)
                                    && step.dims == [d[0], d[1] / window, d[2] / window]
                            }
                            PoolKind::GlobalAvg => step.dims == [d[0], 1, 1],
                        };
                    if !ok {
                        return Err(format!("step {i} pool shape mismatch"));
                    }
                }
                // Conv/Gemm outputs (fused or not) are taken at face value
                // here; the engine and the verifier's shape pass re-check
                // them against the paired model's layer geometry.
                StepOp::Conv { .. }
                | StepOp::Gemm { .. }
                | StepOp::FusedConv { .. }
                | StepOp::FusedGemm { .. } => {}
            }
            high_water[step.dst] = high_water[step.dst].max(count(&step.dims)?);
            dims[step.dst] = Some(&step.dims);
        }
        let final_dims = dims[output_buffer].unwrap_or(&input_dims);
        if final_dims != output_dims {
            return Err(format!(
                "output buffer ends as {final_dims:?}, plan claims {output_dims:?}"
            ));
        }
        // The compiler sets each buffer's size to exactly the largest value
        // it ever holds; a deserialized plan must agree.
        for (b, (&claimed, &needed)) in buffer_sizes.iter().zip(&high_water).enumerate() {
            if claimed != needed {
                return Err(format!(
                    "buffer {b} claims {claimed} elements, steps need {needed}"
                ));
            }
        }
        Ok(ExecutionPlan {
            input_dims,
            output_dims,
            steps,
            buffer_sizes,
            input_buffer,
            output_buffer,
        })
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
        self.steps.iter().filter_map(|s| match s.op {
            StepOp::Conv { layer }
            | StepOp::Gemm { layer }
            | StepOp::FusedConv { layer, .. }
            | StepOp::FusedGemm { layer, .. } => Some(layer),
            _ => None,
        })
    }
}

/// Shape inference + layer resolution for one node.
fn infer_step(
    op: &LoweredOp,
    in_dims: &[&[usize]],
    layers: &[QuantLayerDesc],
) -> Result<(StepOp, Vec<usize>), QuantError> {
    match op {
        LoweredOp::Conv { name } => {
            let (layer, desc) = resolve_layer(name, layers)?;
            let geom = match &desc.kind {
                QuantLayerKind::Conv(g) | QuantLayerKind::DepthwiseConv(g) => *g,
                _ => {
                    return Err(QuantError::Geometry {
                        context: format!("layer {name} is not a convolution"),
                    })
                }
            };
            let d = in_dims[0];
            if d.len() != 3 || d[0] != geom.in_channels {
                return Err(QuantError::ShapeMismatch {
                    context: format!("conv {name} input must be [Cin, H, W]"),
                    expected: vec![geom.in_channels],
                    got: d.to_vec(),
                });
            }
            let (oh, ow) = (geom.output_size(d[1]), geom.output_size(d[2]));
            if oh == 0 || ow == 0 {
                return Err(QuantError::Geometry {
                    context: format!("conv {name} input {d:?} smaller than its kernel"),
                });
            }
            Ok((StepOp::Conv { layer }, vec![geom.out_channels, oh, ow]))
        }
        LoweredOp::Gemm { name } => {
            let (layer, desc) = resolve_layer(name, layers)?;
            let d = in_dims[0];
            if d.len() != 1 || d[0] != desc.cols {
                return Err(QuantError::ShapeMismatch {
                    context: format!("gemm {name} input must be [cols]"),
                    expected: vec![desc.cols],
                    got: d.to_vec(),
                });
            }
            Ok((StepOp::Gemm { layer }, vec![desc.rows]))
        }
        LoweredOp::Pool(kind) => {
            let d = in_dims[0];
            if d.len() != 3 {
                return Err(QuantError::ShapeMismatch {
                    context: "pool input must be [C, H, W]".into(),
                    expected: vec![3],
                    got: d.to_vec(),
                });
            }
            let out = match kind {
                PoolKind::Max { window } | PoolKind::Avg { window } => {
                    if *window == 0
                        || !d[1].is_multiple_of(*window)
                        || !d[2].is_multiple_of(*window)
                    {
                        return Err(QuantError::Geometry {
                            context: format!("pool window {window} does not tile {d:?}"),
                        });
                    }
                    vec![d[0], d[1] / window, d[2] / window]
                }
                PoolKind::GlobalAvg => vec![d[0], 1, 1],
            };
            Ok((StepOp::Pool(*kind), out))
        }
        LoweredOp::ResidualAdd => {
            if in_dims[0] != in_dims[1] {
                return Err(QuantError::ShapeMismatch {
                    context: "residual operands must share a shape".into(),
                    expected: in_dims[0].to_vec(),
                    got: in_dims[1].to_vec(),
                });
            }
            Ok((StepOp::ResidualAdd, in_dims[0].to_vec()))
        }
        LoweredOp::Activation(kind) => Ok((StepOp::Activation(*kind), in_dims[0].to_vec())),
        LoweredOp::Flatten => Ok((StepOp::Flatten, vec![in_dims[0].iter().product()])),
        LoweredOp::Requantize => Ok((StepOp::Requantize, in_dims[0].to_vec())),
    }
}

/// Looks a weight name up in the packaged layer order.
fn resolve_layer<'d>(
    name: &str,
    layers: &'d [QuantLayerDesc],
) -> Result<(usize, &'d QuantLayerDesc), QuantError> {
    layers
        .iter()
        .enumerate()
        .find(|(_, d)| d.name == name)
        .ok_or_else(|| QuantError::MissingParam { name: name.into() })
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

/// Applies a fused epilogue in place over `data` — per element, exactly the
/// arithmetic of the standalone [`activation_into`] / [`requantize_into`]
/// kernels, so a fused plan's logits stay bit-identical to its unfused
/// twin's.
pub fn apply_epilogue(epilogue: &Epilogue, act: &ActQuantizer, data: &mut [f32]) {
    for x in data.iter_mut() {
        *x = apply_epilogue_one(epilogue, act, *x);
    }
}

/// Single-element form of [`apply_epilogue`]: folds the post-op chain over
/// one value. Every post-op is elementwise, so applying the chain per
/// element inside a GEMM kernel's write-back produces bit-identical results
/// to the whole-buffer pass — this is what lets the integer kernels fuse
/// the epilogue into the output store instead of re-walking the buffer.
#[inline]
pub fn apply_epilogue_one(epilogue: &Epilogue, act: &ActQuantizer, mut x: f32) -> f32 {
    for op in epilogue.iter() {
        x = match op {
            PostOp::Activation(kind) => kind.apply(x),
            PostOp::Requantize => act.quantize_one(x) as f32 * act.step(),
        };
    }
    x
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
    use mixmatch_nn::lower::GraphBuilder;
    use mixmatch_tensor::im2col::ConvGeometry;

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
            )
        };
        // Unmodified parts round-trip.
        assert_eq!(reassemble(|_| {}).expect("valid"), tiny_plan());
        // A flatten step claiming a different element count fails typed.
        let err = reassemble(|steps| steps[3].dims = vec![5]).unwrap_err();
        assert!(err.contains("flatten"), "{err}");
        // An elementwise step changing shape fails typed.
        let err = reassemble(|steps| steps[1].dims = vec![4, 7, 8]).unwrap_err();
        assert!(err.contains("elementwise"), "{err}");
        // A pool step with impossible tiling fails typed.
        let err = reassemble(|steps| {
            steps[2].op = StepOp::Pool(mixmatch_nn::lower::PoolKind::Max { window: 3 });
        })
        .unwrap_err();
        assert!(err.contains("pool"), "{err}");
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
