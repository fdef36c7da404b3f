//! Batched, multi-threaded integer inference over deployment forms.
//!
//! The paper's accelerator streams whole batches through its dual-core GEMM
//! datapath; [`BatchEngine`] is the software twin of that serving mode. It
//! runs over a persistent [`WorkerPool`] (the shared process-wide pool by
//! default, or a private one via [`BatchEngine::with_threads`] — workers
//! are spawned once and reused for every batch, with no per-call thread
//! spawning and no hard-coded thread clamp), compiles each
//! layer's [`GemmPlan`] once per loaded model, on
//! first use, so the inner loops run on flat integer numerators instead of
//! re-matching [`WeightCode`](crate::codes::WeightCode) enums per element,
//! and keeps per-worker activation-code scratch (each GEMM input quantized
//! once into integer codes, plus one im2col code tile) so the inner loops run
//! allocation-free, with per-call setup amortised across each worker's
//! share of the batch.
//!
//! Outputs are **bit-identical** to the single-image path
//! ([`QuantizedConv::forward_image`] / [`QuantizedMatrix::matvec`]): integer
//! accumulation is exact and order-preserving, and the final scaling is the
//! same `f32` expression. Aggregated [`OpCounts`] match the interpreted
//! kernels' accounting, so a batch can be handed straight to the cycle
//! simulator (via [`HardwareTarget::summarize_batch`]) for batched GOPS/fps
//! next to measured wall-clock throughput.
//!
//! [`HardwareTarget::summarize_batch`]: crate::pipeline::HardwareTarget::summarize_batch
//!
//! # Example
//!
//! ```
//! use mixmatch_quant::deploy::QuantizedConv;
//! use mixmatch_quant::engine::BatchEngine;
//! use mixmatch_quant::integer::ActQuantizer;
//! use mixmatch_quant::msq::MsqPolicy;
//! use mixmatch_tensor::im2col::ConvGeometry;
//! use mixmatch_tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::seed_from(0);
//! let geom = ConvGeometry::new(3, 8, 3, 1, 1);
//! let w = Tensor::randn(&[8, 27], &mut rng);
//! let conv = QuantizedConv::new(geom, &w, &MsqPolicy::msq_half(), ActQuantizer::new(4, 1.0));
//! let images: Vec<Tensor> = (0..4)
//!     .map(|_| Tensor::rand_uniform(&[3, 6, 6], 0.0, 1.0, &mut rng))
//!     .collect();
//! let engine = BatchEngine::with_threads(2);
//! let run = engine.forward_conv_batch(&conv, &images).expect("batch");
//! assert_eq!(run.outputs.len(), 4);
//! assert_eq!(run.outputs[0].as_slice(), conv.forward_image(&images[0]).as_slice());
//! ```

use crate::codes::OpCounts;
use crate::deploy::QuantizedConv;
use crate::error::QuantError;
use crate::graph::{self, Epilogue, ExecutionPlan, StepOp};
use crate::integer::{ActQuantizer, GemmPlan, QuantizedMatrix};
use crate::pipeline::{CompiledModel, DeployForm, QuantizedLayer, QuantizedModel};
use crate::profile::{PlanProfile, StepProfile};
use mixmatch_nn::quantize::QuantLayerKind;
use mixmatch_tensor::arena::BufferArena;
use mixmatch_tensor::im2col::{im2col_patches_slice_into, ConvGeometry};
use mixmatch_tensor::pool::WorkerPool;
use mixmatch_tensor::simd::SimdTier;
use mixmatch_tensor::{Tensor, TensorRng};

/// Result of one batched pass: per-input outputs plus the aggregate
/// hardware-operation census across the whole batch.
#[derive(Debug)]
pub struct BatchRun {
    /// `outputs[i]` corresponds to input `i`.
    pub outputs: Vec<Tensor>,
    /// Total integer-op counts over the batch (Table I accounting).
    pub ops: OpCounts,
}

/// Per-layer inputs for a whole-model batched pass: `inputs[l][i]` feeds
/// layer `l` with batch element `i`.
///
/// Deployment layers are independent GEMM stages (residual adds, pooling and
/// normalization live between them in the float model), so a model-level
/// serving workload drives every layer with its own correctly-shaped batch.
#[derive(Debug)]
pub struct ModelBatch {
    /// Batch inputs per layer, in model order.
    pub inputs: Vec<Vec<Tensor>>,
}

impl ModelBatch {
    /// Samples a synthetic serving batch for every layer of `model`:
    /// convolution layers get `[Cin, H, H]` maps (spatial size composed
    /// through the strides from `input_hw`, mirroring the cycle simulator's
    /// lowering), dense/recurrent layers get `[cols]` vectors, all uniform
    /// in `[0, clip]`.
    pub fn sample(
        model: &QuantizedModel,
        input_hw: usize,
        batch: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let clip = model.act_quantizer().clip;
        let mut h = input_hw;
        let inputs = model
            .layers()
            .iter()
            .map(|layer| {
                let dims: Vec<usize> = match &layer.desc.kind {
                    QuantLayerKind::Conv(geom) | QuantLayerKind::DepthwiseConv(geom) => {
                        let h_in = h.max(geom.kernel);
                        h = (h_in / geom.stride).max(1);
                        vec![geom.in_channels, h_in, h_in]
                    }
                    QuantLayerKind::Dense | QuantLayerKind::Recurrent => vec![layer.desc.cols],
                };
                (0..batch)
                    .map(|_| Tensor::rand_uniform(&dims, 0.0, clip, rng))
                    .collect()
            })
            .collect();
        ModelBatch { inputs }
    }

    /// Number of batch elements (0 for an empty layer list).
    pub fn batch_size(&self) -> usize {
        self.inputs.first().map_or(0, Vec::len)
    }
}

/// Result of a whole-model batched pass.
#[derive(Debug)]
pub struct ModelRun {
    /// `outputs[l][i]` is layer `l`'s output for batch element `i`.
    pub outputs: Vec<Vec<Tensor>>,
    /// Aggregate op counts over every layer and batch element.
    pub ops: OpCounts,
}

/// Per-worker scratch, reused across a worker's share of the batch:
/// `codes` holds the current GEMM input (a conv's whole input map, or a
/// dense layer's vector) quantized once to activation codes, and `tile`
/// one patch-major im2col tile gathered from those codes, sized to the
/// cache-tiled chain's budget (see [`conv_tile_patches`]) instead of the
/// whole `[K, patches]` image matrix.
#[derive(Default)]
struct ConvScratch {
    codes: Vec<u32>,
    tile: Vec<u32>,
}

/// How a plan step's input geometry is validated against its layer: a conv
/// map, a strict `[cols]` vector, or any shape read flat as `cols`
/// elements (fused GEMM).
#[derive(Clone, Copy)]
enum GemmFlavor {
    Conv,
    Strict,
    Flat,
}

/// The engine's worker pool: the shared process-wide pool by default, or a
/// privately owned one when the caller pins a thread count.
enum EnginePool {
    Global(&'static WorkerPool),
    Owned(WorkerPool),
}

/// Batched integer-inference runtime over a persistent worker pool.
pub struct BatchEngine {
    pool: EnginePool,
}

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchEngine {
    /// Engine on the process-wide pool (one worker per core, shared with
    /// the parallel GEMM path — no second set of per-core threads).
    pub fn new() -> Self {
        BatchEngine {
            pool: EnginePool::Global(WorkerPool::global()),
        }
    }

    /// Engine owning a private pool with an explicit worker count (at least
    /// one) — for pinned-parallelism runs and tests.
    pub fn with_threads(threads: usize) -> Self {
        BatchEngine {
            pool: EnginePool::Owned(WorkerPool::new(threads)),
        }
    }

    fn pool(&self) -> &WorkerPool {
        match &self.pool {
            EnginePool::Global(pool) => pool,
            EnginePool::Owned(pool) => pool,
        }
    }

    /// Number of pooled workers.
    pub fn threads(&self) -> usize {
        self.pool().threads()
    }

    /// Batched convolution: `images[i]` → output feature map `i`,
    /// bit-identical to [`QuantizedConv::forward_image`] per element.
    /// Images are validated up front, the row plan is compiled once, and
    /// contiguous image chunks are fanned out over the pool with per-worker
    /// scratch.
    ///
    /// # Errors
    ///
    /// [`QuantError::ShapeMismatch`] when any image is not a rank-3 map
    /// with the layer's channel count.
    pub fn forward_conv_batch(
        &self,
        conv: &QuantizedConv,
        images: &[Tensor],
    ) -> Result<BatchRun, QuantError> {
        let geom = *conv.geometry();
        let act = *conv.act_quantizer();
        let mut outputs = Vec::with_capacity(images.len());
        for image in images {
            let (oh, ow) = conv.check_image(image)?;
            outputs.push(Tensor::zeros(&[geom.out_channels, oh, ow]));
        }
        let plan = conv.matrix().try_plan()?;
        plan.check_act(&act)?;
        note_kernel_rows(&plan);
        let ops = self.dispatch(images, &mut outputs, |image, out, scratch| {
            conv_image_planned(&plan, &geom, &act, image, out, scratch, None)
        });
        Ok(BatchRun { outputs, ops })
    }

    /// Batched dense/recurrent product: each rank-1 `[cols]` input maps to
    /// a rank-1 `[rows]` output, bit-identical to
    /// [`QuantizedMatrix::matvec`] on that input's quantized activations.
    ///
    /// # Errors
    ///
    /// [`QuantError::ShapeMismatch`] when an input is not `[cols]`.
    pub fn forward_matrix_batch(
        &self,
        matrix: &QuantizedMatrix,
        act: &ActQuantizer,
        inputs: &[Tensor],
    ) -> Result<BatchRun, QuantError> {
        for input in inputs {
            if input.shape().rank() != 1 || input.dims()[0] != matrix.cols() {
                return Err(QuantError::ShapeMismatch {
                    context: "dense layer input must be a rank-1 [cols] vector".into(),
                    expected: vec![matrix.cols()],
                    got: input.dims().to_vec(),
                });
            }
        }
        let act = *act;
        let rows = matrix.rows();
        let mut outputs: Vec<Tensor> = inputs.iter().map(|_| Tensor::zeros(&[rows])).collect();
        let plan = matrix.try_plan()?;
        plan.check_act(&act)?;
        note_kernel_rows(&plan);
        let ops = self.dispatch(inputs, &mut outputs, |input, out, scratch| {
            gemm_planned(&plan, &act, input, out, scratch, None)
        });
        Ok(BatchRun { outputs, ops })
    }

    /// Batched forward through one deployed layer, dispatching on its form
    /// (`act` is the model-wide activation quantizer, used by the matrix
    /// form; convolutions carry their own).
    ///
    /// # Errors
    ///
    /// As [`BatchEngine::forward_conv_batch`] /
    /// [`BatchEngine::forward_matrix_batch`].
    pub fn forward_layer_batch(
        &self,
        layer: &QuantizedLayer,
        act: &ActQuantizer,
        inputs: &[Tensor],
    ) -> Result<BatchRun, QuantError> {
        match &layer.form {
            DeployForm::Conv(conv) => self.forward_conv_batch(conv, inputs),
            DeployForm::Matrix(matrix) => self.forward_matrix_batch(matrix, act, inputs),
        }
    }

    /// Whole-model batched pass: every layer processes its batch from
    /// `batch.inputs`, outputs land in the same `[layer][element]` layout,
    /// and op counts aggregate across the model — one serving "tick" of the
    /// software twin, comparable against
    /// [`QuantizedModel::summarize_batched`].
    ///
    /// # Errors
    ///
    /// [`QuantError::ShapeMismatch`] when `batch` does not provide inputs
    /// for every layer, or any input disagrees with its layer.
    pub fn forward_batch(
        &self,
        model: &QuantizedModel,
        batch: &ModelBatch,
    ) -> Result<ModelRun, QuantError> {
        if batch.inputs.len() != model.layers().len() {
            return Err(QuantError::ShapeMismatch {
                context: "model batch must provide one input list per layer".into(),
                expected: vec![model.layers().len()],
                got: vec![batch.inputs.len()],
            });
        }
        let act = *model.act_quantizer();
        let mut outputs = Vec::with_capacity(model.layers().len());
        let mut ops = OpCounts::default();
        for (layer, inputs) in model.layers().iter().zip(&batch.inputs) {
            let run = self.forward_layer_batch(layer, &act, inputs)?;
            ops = ops.merge(run.ops);
            outputs.push(run.outputs);
        }
        Ok(ModelRun { outputs, ops })
    }

    /// End-to-end batched inference through a [`CompiledModel`]'s plan:
    /// raw images in, network outputs (logits / prediction maps) out — no
    /// per-layer input feeding. See [`BatchEngine::run_plan`].
    ///
    /// # Errors
    ///
    /// [`QuantError::NoLoweredGraph`] for plan-free artifacts, plus
    /// everything [`BatchEngine::run_plan`] can return.
    pub fn run_plan_batch(
        &self,
        compiled: &CompiledModel,
        images: &[Tensor],
    ) -> Result<BatchRun, QuantError> {
        self.run_plan(compiled.model(), compiled.require_plan()?, images)
    }

    /// Runs `images` through every step of `plan` against `model`'s
    /// deployment forms: each worker owns one [`BufferArena`] sized to the
    /// plan's buffer high-water marks plus one scratch set, so a whole
    /// forward pass does zero shape inference and near-zero allocation.
    /// Each layer's GEMM row plan is compiled on the model's first call and
    /// reused by every later one. Per-layer results are bit-identical to
    /// [`BatchEngine::forward_layer_batch`] on the same inputs (same
    /// compiled GEMM plans, same kernels); `ops` aggregates the GEMM steps'
    /// Table I accounting (pool/add/activation steps are ALU work the GEMM
    /// census does not count).
    ///
    /// # Errors
    ///
    /// [`QuantError::ShapeMismatch`] when an image is not the plan's input
    /// shape, [`QuantError::MissingParam`] when the plan references a layer
    /// index the model does not have (a plan compiled from a different
    /// model).
    pub fn run_plan(
        &self,
        model: &QuantizedModel,
        plan: &ExecutionPlan,
        images: &[Tensor],
    ) -> Result<BatchRun, QuantError> {
        let gemm_plans = validate_and_compile(model, plan, images)?;
        Ok(self.execute_plan(model, plan, &gemm_plans, images, None))
    }

    /// [`BatchEngine::run_plan`] with per-step clocks: the same validated
    /// fan-out and bit-identical outputs, plus a [`PlanProfile`] that
    /// attributes the batch's time to individual plan steps (and diffs it
    /// against the anchored hardware target's predicted per-step cost when
    /// the model carries one). The only runtime difference is one
    /// monotonic-clock read pair around each step.
    ///
    /// # Errors
    ///
    /// Exactly what [`BatchEngine::run_plan`] returns.
    pub fn run_plan_profiled(
        &self,
        model: &QuantizedModel,
        plan: &ExecutionPlan,
        images: &[Tensor],
    ) -> Result<(BatchRun, PlanProfile), QuantError> {
        let gemm_plans = validate_and_compile(model, plan, images)?;
        let mut step_nanos = vec![0u64; plan.steps().len()];
        let start = std::time::Instant::now();
        let run = self.execute_plan(model, plan, &gemm_plans, images, Some(&mut step_nanos));
        let total = start.elapsed();
        let profile = build_profile(model, plan, &gemm_plans, images.len(), &step_nanos, total);
        Ok((run, profile))
    }

    /// The shared plan fan-out: contiguous image chunks over the pool, one
    /// arena + scratch set per chunk. With `step_nanos`, each chunk clocks
    /// every plan step and the per-chunk clocks are summed (CPU time
    /// across workers) after the barrier.
    fn execute_plan(
        &self,
        model: &QuantizedModel,
        plan: &ExecutionPlan,
        gemm_plans: &[Option<&GemmPlan>],
        images: &[Tensor],
        step_nanos: Option<&mut [u64]>,
    ) -> BatchRun {
        let act = *model.act_quantizer();
        let mut outputs: Vec<Tensor> = images
            .iter()
            .map(|_| Tensor::zeros(plan.output_dims()))
            .collect();
        if images.is_empty() {
            return BatchRun {
                outputs,
                ops: OpCounts::default(),
            };
        }
        let profiling = step_nanos.is_some();
        let nsteps = plan.steps().len();
        let chunk = images.len().div_ceil(self.pool().threads()).max(1);
        let chunks = images.len().div_ceil(chunk);
        let mut chunk_ops = vec![OpCounts::default(); chunks];
        let mut chunk_clocks: Vec<Vec<u64>> = (0..chunks)
            .map(|_| {
                if profiling {
                    vec![0u64; nsteps]
                } else {
                    Vec::new()
                }
            })
            .collect();
        {
            // Workers capture only the layer forms — the model's hardware
            // target box is never touched on this path.
            let layers = model.layers();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = images
                .chunks(chunk)
                .zip(outputs.chunks_mut(chunk))
                .zip(chunk_ops.iter_mut())
                .zip(chunk_clocks.iter_mut())
                .map(|(((ins, outs), ops_slot), clock_slot)| {
                    Box::new(move || {
                        let _span = mixmatch_obs::trace::span("engine", "plan_chunk");
                        let mut arena = BufferArena::with_sizes(plan.buffer_sizes());
                        let mut scratch = ConvScratch::default();
                        let mut ops = OpCounts::default();
                        for (image, out) in ins.iter().zip(outs) {
                            ops = ops.merge(run_plan_single(
                                layers,
                                plan,
                                gemm_plans,
                                &act,
                                image,
                                out,
                                &mut arena,
                                &mut scratch,
                                if profiling {
                                    Some(clock_slot.as_mut_slice())
                                } else {
                                    None
                                },
                            ));
                        }
                        *ops_slot = ops;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.pool().run(tasks);
        }
        if let Some(step_nanos) = step_nanos {
            for clocks in &chunk_clocks {
                for (slot, v) in step_nanos.iter_mut().zip(clocks) {
                    *slot += v;
                }
            }
        }
        BatchRun {
            outputs,
            ops: chunk_ops
                .into_iter()
                .fold(OpCounts::default(), OpCounts::merge),
        }
    }

    /// Fans `(input, output)` pairs out over the pool in contiguous chunks
    /// — one task per worker share, one scratch set per task — and merges
    /// the per-chunk op counts.
    fn dispatch<F>(&self, inputs: &[Tensor], outputs: &mut [Tensor], kernel: F) -> OpCounts
    where
        F: Fn(&Tensor, &mut Tensor, &mut ConvScratch) -> OpCounts + Send + Sync,
    {
        if inputs.is_empty() {
            return OpCounts::default();
        }
        let chunk = inputs.len().div_ceil(self.pool().threads()).max(1);
        let chunks = inputs.len().div_ceil(chunk);
        let mut chunk_ops = vec![OpCounts::default(); chunks];
        {
            let kernel = &kernel;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = inputs
                .chunks(chunk)
                .zip(outputs.chunks_mut(chunk))
                .zip(chunk_ops.iter_mut())
                .map(|((ins, outs), ops_slot)| {
                    Box::new(move || {
                        let mut scratch = ConvScratch::default();
                        let mut ops = OpCounts::default();
                        for (input, out) in ins.iter().zip(outs) {
                            ops = ops.merge(kernel(input, out, &mut scratch));
                        }
                        *ops_slot = ops;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.pool().run(tasks);
        }
        chunk_ops
            .into_iter()
            .fold(OpCounts::default(), OpCounts::merge)
    }
}

/// Validates a plan against a model and batch before any fan-out, and
/// fetches each referenced layer's GEMM row plan (see [`layer_plan`]).
///
/// Debug builds first re-prove the plan's model-independent invariants
/// (SSA, buffer liveness, weight-free shape flow, reachability).
/// Structural-only on purpose: plan-vs-model pairing is validated here
/// with typed errors, which callers rely on. Every image must match the
/// plan's input shape, and every GEMM step's shape flow must agree with
/// this model's geometry — a plan paired with the wrong model fails typed
/// here, never by panic in a worker.
fn validate_and_compile<'m>(
    model: &'m QuantizedModel,
    plan: &ExecutionPlan,
    images: &[Tensor],
) -> Result<Vec<Option<&'m GemmPlan>>, QuantError> {
    #[cfg(debug_assertions)]
    {
        let report = crate::verify::verify_plan(plan);
        debug_assert!(report.is_clean(), "{report}");
    }
    for image in images {
        if image.dims() != plan.input_dims() {
            return Err(QuantError::ShapeMismatch {
                context: "plan input shape mismatch".into(),
                expected: plan.input_dims().to_vec(),
                got: image.dims().to_vec(),
            });
        }
    }
    let mut gemm_plans: Vec<Option<&GemmPlan>> = vec![None; model.layers().len()];
    let mut dims: Vec<Option<&[usize]>> = vec![None; plan.buffer_sizes().len()];
    dims[plan.input_buffer()] = Some(plan.input_dims());
    for step in plan.steps() {
        // Fused steps follow their base op's contract, except a fused
        // GEMM reads its source flat: any shape with `cols` elements.
        let resolved = match step.op {
            StepOp::Conv { layer } | StepOp::FusedConv { layer, .. } => {
                Some((layer, GemmFlavor::Conv))
            }
            StepOp::Gemm { layer } => Some((layer, GemmFlavor::Strict)),
            StepOp::FusedGemm { layer, .. } => Some((layer, GemmFlavor::Flat)),
            _ => None,
        };
        if let Some((layer, flavor)) = resolved {
            let l = model
                .layers()
                .get(layer)
                .ok_or_else(|| QuantError::MissingParam {
                    name: format!("plan layer #{layer}"),
                })?;
            let src = dims[step.srcs[0]].unwrap_or(&[]);
            let flow_ok = match (&l.form, flavor) {
                (DeployForm::Conv(conv), GemmFlavor::Conv) => {
                    let geom = conv.geometry();
                    // `checked_output_size` so a plan whose flow shrank
                    // a map below the kernel fails typed, not by panic.
                    src.len() == 3
                        && src[0] == geom.in_channels
                        && geom
                            .checked_output_size(src[1])
                            .zip(geom.checked_output_size(src[2]))
                            .is_some_and(|(oh, ow)| step.dims == [geom.out_channels, oh, ow])
                }
                (DeployForm::Matrix(m), GemmFlavor::Strict) => {
                    src == [m.cols()] && step.dims == [m.rows()]
                }
                (DeployForm::Matrix(m), GemmFlavor::Flat) => {
                    src.iter().try_fold(1usize, |a, &d| a.checked_mul(d)) == Some(m.cols())
                        && step.dims == [m.rows()]
                }
                _ => false,
            };
            if !flow_ok {
                return Err(QuantError::Geometry {
                    context: format!(
                        "plan step disagrees with layer {} (form or shapes)",
                        l.desc.name
                    ),
                });
            }
            // Typed overflow errors surface here, before fan-out.
            gemm_plans[layer] = Some(layer_plan(l, model.act_quantizer())?);
        }
        dims[step.dst] = Some(&step.dims);
    }
    Ok(gemm_plans)
}

/// `layer`'s compiled GEMM row plan, built on its first use and cached on
/// the layer, so a loaded model compiles each layer once however many
/// calls, batches and replicas share it. The plan must be representable,
/// and the activation ceiling (the conv's own quantizer, else the model's
/// `model_act`) must provably fit the accumulator; a layer that fails
/// either check caches and returns the same typed error on every call.
fn layer_plan<'m>(
    layer: &'m QuantizedLayer,
    model_act: &ActQuantizer,
) -> Result<&'m GemmPlan, QuantError> {
    layer
        .gemm
        .get_or_init(|| {
            let gemm = layer.matrix().try_plan()?;
            gemm.check_act(match &layer.form {
                DeployForm::Conv(conv) => conv.act_quantizer(),
                DeployForm::Matrix(_) => model_act,
            })?;
            note_kernel_rows(&gemm);
            Ok(gemm)
        })
        .as_ref()
        .map_err(Clone::clone)
}

/// Reports a freshly compiled GEMM plan's row layout to the global
/// metrics registry as `mixmatch_kernel_rows_total{tier=...}`: packed
/// rows under the selected SIMD tier, dense-fallback rows under `dense`.
/// It counts compiles, so a plan run's layers count once per loaded model.
/// This makes a silent drop to scalar dispatch (a `MIXMATCH_FORCE_SCALAR`
/// leak, a CPU without AVX2) observable on the metrics page.
fn note_kernel_rows(plan: &GemmPlan) {
    let reg = mixmatch_obs::Registry::global();
    let tier = match plan.tier() {
        SimdTier::Avx2 => "avx2",
        SimdTier::Scalar => "scalar",
    };
    let packed = plan.packed_rows() as u64;
    let dense = plan.rows() as u64 - packed;
    if packed > 0 {
        reg.counter("mixmatch_kernel_rows_total", &[("tier", tier)])
            .add(packed);
    }
    if dense > 0 {
        reg.counter("mixmatch_kernel_rows_total", &[("tier", "dense")])
            .add(dense);
    }
}

/// Assembles the [`PlanProfile`] for one profiled batch: step labels from
/// the op kind + layer name, bytes moved from the dims flow (src reads +
/// dst writes × 4 bytes × images), kernel tier/row split from the
/// compiled GEMM plans, and the cycle simulator's predicted per-image
/// cost per step when the model is anchored to a target that models one.
fn build_profile(
    model: &QuantizedModel,
    plan: &ExecutionPlan,
    gemm_plans: &[Option<&GemmPlan>],
    images: usize,
    step_nanos: &[u64],
    total: std::time::Duration,
) -> PlanProfile {
    let layers = model.layers();
    let predicted = model.predict_plan_step_us(plan);
    let mut elems: Vec<usize> = vec![0; plan.buffer_sizes().len()];
    elems[plan.input_buffer()] = plan.input_dims().iter().product();
    let steps = plan
        .steps()
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let src_elems: usize = step.srcs.iter().map(|&s| elems[s]).sum();
            let dst_elems: usize = step.dims.iter().product();
            elems[step.dst] = dst_elems;
            let gemm = match step.op {
                StepOp::Conv { layer }
                | StepOp::FusedConv { layer, .. }
                | StepOp::Gemm { layer }
                | StepOp::FusedGemm { layer, .. } => {
                    Some((layer, gemm_plans[layer].expect("compiled")))
                }
                _ => None,
            };
            let label = match step.op {
                StepOp::Conv { layer } => format!("conv {}", layers[layer].desc.name),
                StepOp::FusedConv { layer, .. } => {
                    format!("fused-conv {}", layers[layer].desc.name)
                }
                StepOp::Gemm { layer } => format!("gemm {}", layers[layer].desc.name),
                StepOp::FusedGemm { layer, .. } => {
                    format!("fused-gemm {}", layers[layer].desc.name)
                }
                StepOp::Pool(_) => "pool".to_string(),
                StepOp::Activation(_) => "activation".to_string(),
                StepOp::ResidualAdd => "residual-add".to_string(),
                StepOp::Flatten => "flatten".to_string(),
                StepOp::Requantize => "requantize".to_string(),
            };
            let (tier, packed_rows, dense_rows) = match gemm {
                Some((_, g)) => {
                    let tier = match g.tier() {
                        SimdTier::Avx2 => "avx2",
                        SimdTier::Scalar => "scalar",
                    };
                    (
                        Some(tier.to_string()),
                        g.packed_rows(),
                        g.rows() - g.packed_rows(),
                    )
                }
                None => (None, 0, 0),
            };
            StepProfile {
                index: i,
                label,
                wall: std::time::Duration::from_nanos(step_nanos[i]),
                bytes_moved: ((src_elems + dst_elems) * 4) as u64 * images as u64,
                tier,
                packed_rows,
                dense_rows,
                predicted: predicted
                    .as_ref()
                    .and_then(|p| p.get(i))
                    .filter(|us| **us > 0.0)
                    .map(|us| std::time::Duration::from_secs_f64(us / 1e6)),
            }
        })
        .collect();
    PlanProfile {
        steps,
        images,
        total,
        arena_high_water_bytes: plan.buffer_sizes().iter().sum::<usize>() as u64 * 4,
    }
}

/// Patch-tile size for the cache-tiled conv chain: about 8 Ki activation
/// codes (32 KiB of `u32`) per tile, so a tile and the code map it is
/// gathered from stay in L1/L2 between im2col and GEMM. Rounded to the
/// kernels' column-block width.
fn conv_tile_patches(k: usize) -> usize {
    const TILE_CODES: usize = 8 * 1024;
    let raw = (TILE_CODES / k.max(1)).clamp(4, 4096);
    raw - raw % 4
}

/// One image through the planned conv datapath: the input map is quantized
/// once into activation codes, then tiled over the patch space — per tile, a
/// patch-major im2col slab of codes is gathered and reduced by the packed
/// integer GEMM while still cache-resident, so the whole-image
/// `[K, patches]` matrix is never materialized and no element is quantized
/// twice. Dense convs run all rows per tile; depthwise convs run their
/// group's single row. When `epilogue` is given its post-ops are applied
/// inside the GEMM write-back. Bit-identical to
/// `QuantizedConv::try_forward_image` plus a separate epilogue pass:
/// quantization is elementwise and pads with `quantize_one(0.0) == 0`,
/// integer accumulation per output element is exact and complete per tile,
/// and the epilogue is elementwise.
fn conv_image_planned(
    plan: &GemmPlan,
    geom: &ConvGeometry,
    act: &ActQuantizer,
    image: &Tensor,
    out: &mut Tensor,
    scratch: &mut ConvScratch,
    epilogue: Option<&Epilogue>,
) -> OpCounts {
    let (oh, ow) = (out.dims()[1], out.dims()[2]);
    let patches = oh * ow;
    let kk = geom.gemm_k();
    let tile = conv_tile_patches(kk);
    let d = image.dims();
    let ConvScratch {
        codes,
        tile: tile_codes,
    } = scratch;
    act.quantize_into(image.as_slice(), codes);
    tile_codes.resize(tile.min(patches.max(1)) * kk, 0);
    let mut ops = OpCounts::default();
    for g in 0..geom.groups {
        let mut p0 = 0;
        while p0 < patches {
            let count = tile.min(patches - p0);
            let tile_codes = &mut tile_codes[..count * kk];
            im2col_patches_slice_into(codes, [d[0], d[1], d[2]], geom, g, p0, count, tile_codes);
            ops = ops.merge(if geom.groups == 1 {
                plan.matmul_patches_into(
                    tile_codes,
                    count,
                    act,
                    out.as_mut_slice(),
                    patches,
                    p0,
                    epilogue,
                )
            } else {
                plan.row_matmul_patches_into(
                    g,
                    tile_codes,
                    count,
                    act,
                    &mut out.as_mut_slice()[g * patches + p0..g * patches + p0 + count],
                    epilogue,
                )
            });
            p0 += count;
        }
    }
    ops
}

/// One input read flat (any shape with `cols` elements) through a planned
/// GEMM: quantized once into activation codes and reduced as a single
/// patch, with `epilogue`'s post-ops applied in the write-back.
fn gemm_planned(
    plan: &GemmPlan,
    act: &ActQuantizer,
    input: &Tensor,
    out: &mut Tensor,
    scratch: &mut ConvScratch,
    epilogue: Option<&Epilogue>,
) -> OpCounts {
    act.quantize_into(input.as_slice(), &mut scratch.codes);
    plan.matmul_patches_into(&scratch.codes, 1, act, out.as_mut_slice(), 1, 0, epilogue)
}

/// One image through every plan step: load the input buffer, execute steps
/// over the arena's split borrows, copy the output buffer out. All layer
/// indices and shapes were validated before the fan-out, so this path is
/// infallible. With `clock`, each step's elapsed nanoseconds accumulate
/// into the matching slot — the only difference on the profiled path, so
/// outputs stay bit-identical.
#[allow(clippy::too_many_arguments)]
fn run_plan_single(
    layers: &[QuantizedLayer],
    plan: &ExecutionPlan,
    gemm_plans: &[Option<&GemmPlan>],
    act: &ActQuantizer,
    image: &Tensor,
    out: &mut Tensor,
    arena: &mut BufferArena,
    scratch: &mut ConvScratch,
    mut clock: Option<&mut [u64]>,
) -> OpCounts {
    arena
        .buffer_mut(plan.input_buffer(), image.dims())
        .as_mut_slice()
        .copy_from_slice(image.as_slice());
    let mut ops = OpCounts::default();
    for (si, step) in plan.steps().iter().enumerate() {
        let t0 = clock.is_some().then(std::time::Instant::now);
        match step.op {
            StepOp::Conv { layer } => {
                let conv = match &layers[layer].form {
                    DeployForm::Conv(c) => c,
                    DeployForm::Matrix(_) => unreachable!("validated before fan-out"),
                };
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                ops = ops.merge(conv_image_planned(
                    gemm_plans[layer].expect("compiled before fan-out"),
                    conv.geometry(),
                    conv.act_quantizer(),
                    src,
                    dst,
                    scratch,
                    None,
                ));
            }
            StepOp::Gemm { layer } => {
                let gemm = gemm_plans[layer].expect("compiled before fan-out");
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                ops = ops.merge(gemm_planned(gemm, act, src, dst, scratch, None));
            }
            StepOp::Pool(kind) => {
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                graph::pool_into(kind, src, dst);
            }
            StepOp::Activation(kind) => {
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                graph::activation_into(kind, src, dst);
            }
            StepOp::ResidualAdd => {
                let (a, b, dst) = arena.src2_dst(step.srcs[0], step.srcs[1], step.dst, &step.dims);
                graph::residual_add_into(a, b, dst);
            }
            StepOp::Flatten => {
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                graph::flatten_into(src, dst);
            }
            StepOp::Requantize => {
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                graph::requantize_into(act, src, dst);
            }
            StepOp::FusedConv { layer, epilogue } => {
                let conv = match &layers[layer].form {
                    DeployForm::Conv(c) => c,
                    DeployForm::Matrix(_) => unreachable!("validated before fan-out"),
                };
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                // The epilogue rides inside the GEMM write-back: each
                // output element is scaled and post-processed once, while
                // still register-resident.
                ops = ops.merge(conv_image_planned(
                    gemm_plans[layer].expect("compiled before fan-out"),
                    conv.geometry(),
                    conv.act_quantizer(),
                    src,
                    dst,
                    scratch,
                    Some(&epilogue),
                ));
            }
            StepOp::FusedGemm { layer, epilogue } => {
                // The source is read flat — it may hold an un-flattened
                // map whose `Flatten` copy the optimizer removed. The
                // epilogue is fused into the write-back.
                let gemm = gemm_plans[layer].expect("compiled before fan-out");
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                ops = ops.merge(gemm_planned(gemm, act, src, dst, scratch, Some(&epilogue)));
            }
        }
        if let (Some(clock), Some(t0)) = (clock.as_deref_mut(), t0) {
            clock[si] += t0.elapsed().as_nanos() as u64;
        }
    }
    out.as_mut_slice()
        .copy_from_slice(arena.buffer(plan.output_buffer()).as_slice());
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msq::MsqPolicy;
    use crate::schemes::Scheme;

    fn conv_fixture(seed: u64, geom: ConvGeometry, policy: &MsqPolicy) -> QuantizedConv {
        let mut rng = TensorRng::seed_from(seed);
        let w = Tensor::randn(&[geom.out_channels, geom.gemm_k()], &mut rng);
        if geom.groups == 1 {
            QuantizedConv::new(geom, &w, policy, ActQuantizer::new(4, 1.2))
        } else {
            QuantizedConv::depthwise(geom, &w, policy, ActQuantizer::new(4, 1.2))
        }
    }

    #[test]
    fn dense_conv_batch_is_bit_identical_to_single_path() {
        let conv = conv_fixture(
            1,
            ConvGeometry::new(3, 6, 3, 1, 1),
            &MsqPolicy::msq_optimal(),
        );
        let mut rng = TensorRng::seed_from(2);
        let images: Vec<Tensor> = (0..5)
            .map(|_| Tensor::rand_uniform(&[3, 7, 7], 0.0, 1.2, &mut rng))
            .collect();
        for threads in [1, 2, 4] {
            let engine = BatchEngine::with_threads(threads);
            let run = engine.forward_conv_batch(&conv, &images).expect("batch");
            for (img, out) in images.iter().zip(&run.outputs) {
                let single = conv.forward_image(img);
                assert_eq!(out.dims(), single.dims());
                assert_eq!(out.as_slice(), single.as_slice(), "threads {threads}");
            }
        }
    }

    #[test]
    fn depthwise_conv_batch_is_bit_identical_to_single_path() {
        let conv = conv_fixture(
            3,
            ConvGeometry::depthwise(4, 3, 1, 1),
            &MsqPolicy::single(Scheme::Sp2, 4),
        );
        let mut rng = TensorRng::seed_from(4);
        let images: Vec<Tensor> = (0..4)
            .map(|_| Tensor::rand_uniform(&[4, 6, 6], 0.0, 1.2, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(2);
        let run = engine.forward_conv_batch(&conv, &images).expect("batch");
        for (img, out) in images.iter().zip(&run.outputs) {
            assert_eq!(out.as_slice(), conv.forward_image(img).as_slice());
        }
    }

    #[test]
    fn batch_ops_equal_sum_of_single_image_ops() {
        let geom = ConvGeometry::new(2, 4, 3, 1, 0);
        let conv = conv_fixture(5, geom, &MsqPolicy::msq_half());
        let mut rng = TensorRng::seed_from(6);
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[2, 5, 5], 0.0, 1.2, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(2);
        let run = engine.forward_conv_batch(&conv, &images).expect("batch");
        // Reference accounting through the interpreted kernels.
        let act = *conv.act_quantizer();
        let mut expect = OpCounts::default();
        for img in &images {
            let cols = mixmatch_tensor::im2col::im2col(img, &geom, 0);
            let xq = act.quantize(cols.as_slice());
            let (_, ops) = conv.matrix().matmul(&xq, cols.dims()[1], &act);
            expect = expect.merge(ops);
        }
        assert_eq!(run.ops, expect);
    }

    #[test]
    fn matrix_batch_is_bit_identical_to_matvec() {
        let mut rng = TensorRng::seed_from(7);
        let w = Tensor::randn(&[6, 11], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_optimal());
        let act = ActQuantizer::new(4, 1.0);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::rand_uniform(&[11], 0.0, 1.0, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(3);
        let run = engine
            .forward_matrix_batch(&qm, &act, &inputs)
            .expect("batch");
        let mut expect_ops = OpCounts::default();
        for (x, out) in inputs.iter().zip(&run.outputs) {
            let (y, ops) = qm.matvec(&act.quantize(x.as_slice()), &act);
            expect_ops = expect_ops.merge(ops);
            assert_eq!(out.as_slice(), &y[..]);
        }
        assert_eq!(run.ops, expect_ops);
    }

    #[test]
    fn engine_rejects_malformed_inputs_without_panicking() {
        let conv = conv_fixture(9, ConvGeometry::new(3, 4, 3, 1, 1), &MsqPolicy::msq_half());
        let engine = BatchEngine::with_threads(1);
        let bad = vec![Tensor::zeros(&[2, 5, 5])];
        assert!(matches!(
            engine.forward_conv_batch(&conv, &bad),
            Err(QuantError::ShapeMismatch { .. })
        ));
        let mut rng = TensorRng::seed_from(10);
        let w = Tensor::randn(&[3, 8], &mut rng);
        let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_half());
        let act = ActQuantizer::new(4, 1.0);
        assert!(matches!(
            engine.forward_matrix_batch(&qm, &act, &[Tensor::zeros(&[7])]),
            Err(QuantError::ShapeMismatch { .. })
        ));
        // A struct-literal quantizer past 16 bits fails typed before
        // fan-out on both entry points, not by a shift panic in a worker.
        let wide = ActQuantizer {
            bits: 32,
            clip: 1.0,
        };
        let w = Tensor::randn(&[4, 27], &mut rng);
        let conv32 = QuantizedConv::new(*conv.geometry(), &w, &MsqPolicy::msq_half(), wide);
        assert!(matches!(
            engine.forward_conv_batch(&conv32, &[Tensor::zeros(&[3, 5, 5])]),
            Err(QuantError::ActQuantizer { bits: 32, .. })
        ));
        assert!(matches!(
            engine.forward_matrix_batch(&qm, &wide, &[Tensor::zeros(&[8])]),
            Err(QuantError::ActQuantizer { bits: 32, .. })
        ));
    }

    #[test]
    fn empty_batch_yields_empty_run() {
        let conv = conv_fixture(11, ConvGeometry::new(2, 2, 3, 1, 1), &MsqPolicy::msq_half());
        let engine = BatchEngine::with_threads(2);
        let run = engine.forward_conv_batch(&conv, &[]).expect("empty");
        assert!(run.outputs.is_empty());
        assert_eq!(run.ops, OpCounts::default());
    }

    #[test]
    fn run_plan_batch_handles_batch_sizes_zero_and_one() {
        use mixmatch_nn::layers::{Linear, Relu};
        use mixmatch_nn::module::Sequential;

        let mut rng = TensorRng::seed_from(12);
        let mut model = Sequential::new();
        model.push(Linear::with_name("fc1", 6, 9, true, &mut rng));
        model.push(Relu::new());
        model.push(Linear::with_name("fc2", 9, 4, false, &mut rng));
        let compiled = crate::pipeline::QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_input_shape(&[6])
            .quantize(&mut model)
            .expect("quantize mlp");

        for threads in [1, 2] {
            let engine = BatchEngine::with_threads(threads);
            // Batch 0: empty result, zero ops — consistently across the
            // plan path and the per-layer paths (no error, no panic).
            let run = engine.run_plan_batch(&compiled, &[]).expect("empty batch");
            assert!(run.outputs.is_empty());
            assert_eq!(run.ops, OpCounts::default());

            // Batch 1: one output, bit-identical to the same image run in
            // a larger batch.
            let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
            let one = engine
                .run_plan_batch(&compiled, std::slice::from_ref(&image))
                .expect("batch of one");
            assert_eq!(one.outputs.len(), 1);
            assert_eq!(one.outputs[0].dims(), &[4]);
            let pair = engine
                .run_plan_batch(&compiled, &[image.clone(), image.clone()])
                .expect("batch of two");
            assert_eq!(pair.outputs[0].as_slice(), one.outputs[0].as_slice());
            assert_eq!(pair.outputs[1].as_slice(), one.outputs[0].as_slice());
        }
    }
}
