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
//! once into `u16` codes — a conv's into a zero-bordered map — plus one
//! k-pair code tile the GEMM kernel reads, gathered straight from those
//! codes) so the inner loops run allocation-free, with per-call setup
//! amortised across each worker's share of the batch.
//!
//! Every conv and GEMM step is **bit-identical** to the interpreted
//! single-image kernels ([`QuantizedConv::forward_image`] /
//! [`QuantizedMatrix::matvec`]) on that step's input: integer accumulation
//! is exact and order-preserving, and the final scaling is the same `f32`
//! expression. Aggregated [`OpCounts`] match the interpreted kernels'
//! accounting, so a batch can be handed straight to the cycle simulator
//! (via [`HardwareTarget::summarize_batch`]) for batched GOPS/fps next to
//! measured wall-clock throughput.
//!
//! [`QuantizedConv::forward_image`]: crate::deploy::QuantizedConv::forward_image
//! [`QuantizedMatrix::matvec`]: crate::integer::QuantizedMatrix::matvec
//! [`HardwareTarget::summarize_batch`]: crate::pipeline::HardwareTarget::summarize_batch
//!
//! # Example
//!
//! ```
//! use mixmatch_nn::layers::{Linear, Relu};
//! use mixmatch_nn::module::Sequential;
//! use mixmatch_quant::engine::BatchEngine;
//! use mixmatch_quant::msq::MsqPolicy;
//! use mixmatch_quant::pipeline::QuantPipeline;
//! use mixmatch_tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::seed_from(0);
//! let mut model = Sequential::new();
//! model.push(Linear::with_name("fc1", 8, 16, true, &mut rng));
//! model.push(Relu::new());
//! model.push(Linear::with_name("fc2", 16, 4, false, &mut rng));
//! let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
//!     .with_input_shape(&[8])
//!     .quantize(&mut model)
//!     .expect("quantize");
//! let images: Vec<Tensor> = (0..4)
//!     .map(|_| Tensor::rand_uniform(&[8], 0.0, 1.0, &mut rng))
//!     .collect();
//! let engine = BatchEngine::with_threads(2);
//! let run = engine.run_plan_batch(&compiled, &images).expect("batch");
//! assert_eq!(run.outputs.len(), 4);
//! assert_eq!(run.outputs[0].dims(), &[4]);
//! ```

use crate::codes::OpCounts;
use crate::error::QuantError;
use crate::graph::{self, Epilogue, ExecutionPlan, StepOp};
use crate::integer::{ActQuantizer, GemmPlan, RowKernel};
use crate::pipeline::{CompiledModel, DeployForm, QuantizedLayer, QuantizedModel};
use crate::profile::{PlanProfile, StepProfile};
use mixmatch_tensor::arena::BufferArena;
use mixmatch_tensor::im2col::{border_map_into, gather_pairs, ConvGeometry};
use mixmatch_tensor::pool::WorkerPool;
use mixmatch_tensor::simd::{LANES, PATCH_BLOCK};
use mixmatch_tensor::Tensor;

/// Result of one batched pass: per-input outputs plus the aggregate
/// hardware-operation census across the whole batch.
#[derive(Debug)]
pub struct BatchRun {
    /// `outputs[i]` corresponds to input `i`.
    pub outputs: Vec<Tensor>,
    /// Total integer-op counts over the batch (Table I accounting).
    pub ops: OpCounts,
}

/// Per-worker scratch, reused across a worker's share of the batch:
/// `codes` holds the current GEMM input quantized once to `u16` activation
/// codes (a conv's input map as a zero-bordered `[c, h + 2p, w + 2p]` map,
/// or a dense layer's vector); `tile` one k-pair tile of those codes in the
/// GEMM kernel's layout (`[Kp/2][np]` words, two codes each; see
/// [`mixmatch_tensor::simd`]), sized to the cache-tiled chain's budget (see
/// [`conv_tile_patches`]) instead of the whole `[K, patches]` image
/// matrix; and `nonzero` the tile's per-`k` count of non-zero codes, from
/// which the GEMM charges SP2 adds. Every border, padding lane and count is
/// rewritten on each use, so nothing from an earlier image, layer or batch
/// reaches a later one.
#[derive(Default)]
struct ConvScratch {
    codes: Vec<u16>,
    tile: Vec<u32>,
    nonzero: Vec<u32>,
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
    /// reused by every later one. Every conv/GEMM step is bit-identical to
    /// the interpreted single-image kernels on that step's input (see the
    /// [module docs](crate::engine)); `ops` aggregates the GEMM steps' Table I
    /// accounting (pool/add/activation steps are ALU work the GEMM census
    /// does not count).
    ///
    /// The plan itself was verified when it was built (see
    /// [`ExecutionPlan::from_parts`]); what is checked here, before any
    /// fan-out, is its pairing with `model` and the batch.
    ///
    /// # Errors
    ///
    /// [`QuantError::ShapeMismatch`] when an image is not the plan's input
    /// shape; [`QuantError::MissingParam`] (`plan layer #N`) when the plan
    /// references a layer index the model does not have, and
    /// [`QuantError::Geometry`] when a Conv/Gemm step disagrees with the
    /// layer it names (both mean a plan compiled for a different model);
    /// [`QuantError::ActQuantizer`] / [`QuantError::Overflow`] when a
    /// layer's GEMM plan cannot run under its activation quantizer.
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
}

/// Validates a plan's pairing with a model and batch before any fan-out,
/// and fetches each referenced layer's GEMM row plan (see [`layer_plan`]).
/// The plan passed the verifier when it was built, so only what depends on
/// this model and batch is checked: every image must match the plan's
/// input shape, and every Conv/Gemm step's output must be what
/// [`graph::step_dims`] gives for the layer it names — a plan paired with
/// the wrong model fails typed here, never by panic in a worker. A layer's
/// deployment form is built from its descriptor's kind, so checking the
/// descriptor checks the form the workers match on.
fn validate_and_compile<'m>(
    model: &'m QuantizedModel,
    plan: &ExecutionPlan,
    images: &[Tensor],
) -> Result<Vec<Option<&'m GemmPlan>>, QuantError> {
    for image in images {
        if image.dims() != plan.input_dims() {
            return Err(QuantError::ShapeMismatch {
                context: "plan input shape mismatch".into(),
                expected: plan.input_dims().to_vec(),
                got: image.dims().to_vec(),
            });
        }
    }
    let layers = model.layers();
    let mut gemm_plans: Vec<Option<&GemmPlan>> = vec![None; layers.len()];
    let mut dims: Vec<&[usize]> = vec![&[]; plan.buffer_count()];
    dims[plan.input_buffer()] = plan.input_dims();
    for step in plan.steps() {
        if let Some(layer) = step.op.layer() {
            let l = layers.get(layer);
            match graph::step_dims(&step.op, &[dims[step.srcs[0]]], l.map(|l| &l.desc)) {
                Ok(want) if want == step.dims => {}
                Err(e @ QuantError::MissingParam { .. }) => return Err(e),
                _ => {
                    return Err(QuantError::Geometry {
                        context: format!(
                            "plan step disagrees with layer {} (form or shapes)",
                            layers[layer].desc.name
                        ),
                    })
                }
            }
            // Typed overflow errors surface here, before fan-out.
            gemm_plans[layer] = Some(layer_plan(&layers[layer], model.act_quantizer())?);
        }
        dims[step.dst] = &step.dims;
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
            let act = layer_act(layer, model_act);
            gemm.check_act(act)?;
            note_kernel_rows(&gemm, act);
            Ok(gemm)
        })
        .as_ref()
        .map_err(Clone::clone)
}

/// The activation quantizer `layer`'s GEMM reads codes from: a conv's own,
/// else the model-wide `model_act`.
fn layer_act<'m>(layer: &'m QuantizedLayer, model_act: &'m ActQuantizer) -> &'m ActQuantizer {
    match &layer.form {
        DeployForm::Conv(conv) => conv.act_quantizer(),
        DeployForm::Matrix(_) => model_act,
    }
}

/// Row counts of `plan` per kernel under `act`: `(label, rows)` for the
/// vector (`avx2`), scalar-oracle (`scalar`) and wide-numerator (`dense`)
/// rows — the selection the GEMM makes for every tile.
fn kernel_row_counts(plan: &GemmPlan, act: &ActQuantizer) -> [(&'static str, usize); 3] {
    [RowKernel::Vector, RowKernel::Scalar, RowKernel::Wide].map(|kernel| {
        (
            kernel.label(),
            plan.row_kernels(act).filter(|&k| k == kernel).count(),
        )
    })
}

/// Reports a freshly compiled GEMM plan's rows to the global metrics
/// registry as `mixmatch_kernel_rows_total{tier=...}`, each under the
/// kernel it runs for activations from `act`: `avx2`, `scalar` or `dense`
/// (see [`RowKernel`]). It counts compiles, so a plan run's layers count
/// once per loaded model. This makes a silent drop to scalar dispatch (a
/// `MIXMATCH_FORCE_SCALAR` leak, a CPU without AVX2, activations too wide
/// for the vector kernel) observable on the metrics page.
fn note_kernel_rows(plan: &GemmPlan, act: &ActQuantizer) {
    let reg = mixmatch_obs::Registry::global();
    for (tier, rows) in kernel_row_counts(plan, act) {
        if rows > 0 {
            reg.counter("mixmatch_kernel_rows_total", &[("tier", tier)])
                .add(rows as u64);
        }
    }
}

/// Assembles the [`PlanProfile`] for one profiled batch: step labels from
/// the op kind + layer name, bytes moved from the dims flow (src reads +
/// dst writes × 4 bytes × images), the kernel and row split from the
/// compiled GEMM plans under each layer's quantizer, and the cycle
/// simulator's predicted per-image cost per step when the model is
/// anchored to a target that models one.
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
            let gemm = step
                .op
                .layer()
                .map(|layer| gemm_plans[layer].expect("compiled"));
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
            let (tier, packed_rows, dense_rows) = match (step.op.layer(), gemm) {
                (Some(layer), Some(g)) => {
                    // Every kernel the step's rows run, e.g. `avx2+dense`.
                    let act = layer_act(&layers[layer], model.act_quantizer());
                    let kernels: Vec<&str> = kernel_row_counts(g, act)
                        .into_iter()
                        .filter_map(|(label, rows)| (rows > 0).then_some(label))
                        .collect();
                    let tier = Some(kernels.join("+"));
                    (tier, g.packed_rows(), g.rows() - g.packed_rows())
                }
                _ => (None, 0, 0),
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
/// codes (16 KiB of `u16` pairs) per tile of patches `kp` codes deep (`K`
/// padded to the kernel's granule), so a tile and the code map it is
/// gathered from stay in L1/L2 between gather and GEMM. Rounded to the
/// kernel's patch-block width.
fn conv_tile_patches(kp: usize) -> usize {
    const TILE_CODES: usize = 8 * 1024;
    let raw = (TILE_CODES / kp.max(1)).clamp(PATCH_BLOCK, 4096);
    raw - raw % PATCH_BLOCK
}

/// One image through the planned conv datapath: the input map is quantized
/// once into a zero-bordered `u16` code map, then tiled over the patch
/// space — per tile, the gather writes the GEMM kernel's k-pair tile
/// straight from the map (per k-pair, one run per output row, with no
/// image-edge tests: the border holds every off-image position) and counts
/// each `k`'s non-zero codes, and the row-blocked kernel reduces the tile
/// while it is still cache-resident and stores scaled outputs into `out`.
/// The whole-image `[K, patches]` matrix is never materialized, no element
/// is quantized twice, and no relayout pass runs between gather and
/// kernel. Dense convs run all rows per tile; depthwise convs run their
/// group's single row. When `epilogue` is given its post-ops run over each
/// row's stored outputs. Bit-identical to `QuantizedConv::try_forward_image`
/// plus a separate epilogue pass: quantization is elementwise, the border
/// and the padding hold `quantize_one(0.0) == 0` (what the interpreter's
/// padding reads), a zero code adds nothing to an accumulator or an add
/// count, integer accumulation per output element is exact and complete
/// per tile, and the epilogue is elementwise.
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
    let kp = plan.padded_cols();
    let tile = conv_tile_patches(kp);
    let d = image.dims();
    let dims = [d[0], d[1], d[2]];
    let ConvScratch {
        codes,
        tile: words,
        nonzero,
    } = scratch;
    border_map_into(image.as_slice(), dims, geom.padding, codes, |xs, out| {
        act.quantize_into(xs, out)
    });
    words.resize(kp / 2 * tile.min(patches).next_multiple_of(LANES), 0);
    nonzero.resize(kp, 0);
    let out = out.as_mut_slice();
    let mut ops = OpCounts::default();
    for g in 0..geom.groups {
        // Dense convs write every row; a depthwise group its own row.
        let (rows, out) = if geom.groups == 1 {
            (0..plan.rows(), &mut out[..])
        } else {
            (g..g + 1, &mut out[g * patches..])
        };
        let mut p0 = 0;
        while p0 < patches {
            let count = tile.min(patches - p0);
            let np = count.next_multiple_of(LANES);
            let words = &mut words[..kp / 2 * np];
            gather_pairs(codes, dims, geom, g, p0..p0 + count, kp, np, words, nonzero);
            ops = ops.merge(plan.matmul_tile_into(
                rows.clone(),
                words,
                np,
                count,
                nonzero,
                act,
                out,
                patches,
                p0,
                epilogue,
            ));
            p0 += count;
        }
    }
    ops
}

/// One input read flat (any shape with `cols` elements) through a planned
/// GEMM: quantized once into activation codes, laid out as a one-patch
/// k-pair tile, and reduced by the same kernel, with `epilogue`'s post-ops
/// run over the stored outputs.
fn gemm_planned(
    plan: &GemmPlan,
    act: &ActQuantizer,
    input: &Tensor,
    out: &mut Tensor,
    scratch: &mut ConvScratch,
    epilogue: Option<&Epilogue>,
) -> OpCounts {
    let ConvScratch {
        codes,
        tile,
        nonzero,
    } = scratch;
    codes.resize(plan.cols(), 0);
    act.quantize_into(input.as_slice(), codes);
    let np = plan.pair_tile_into(codes, 1, tile, nonzero);
    let (rows, out) = (0..plan.rows(), out.as_mut_slice());
    plan.matmul_tile_into(rows, tile, np, 1, nonzero, act, out, 1, 0, epilogue)
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
    use crate::deploy::QuantizedConv;
    use crate::msq::MsqPolicy;
    use crate::pipeline::QuantPipeline;
    use crate::schemes::Scheme;
    use mixmatch_nn::layers::{Conv2d, Linear, Relu};
    use mixmatch_nn::lower::{GraphBuilder, LoweredGraph};
    use mixmatch_nn::models::{ResNet, ResNetConfig};
    use mixmatch_nn::module::{Layer, Param, Sequential};
    use mixmatch_nn::quantize::{QuantLayerDesc, QuantizableModel};
    use mixmatch_tensor::TensorRng;

    /// One `Conv2d` as a whole model, so a plan is a single conv step.
    struct OneConv(Conv2d);

    impl QuantizableModel for OneConv {
        fn model_params(&self) -> Vec<&Param> {
            self.0.params()
        }

        fn model_params_mut(&mut self) -> Vec<&mut Param> {
            self.0.params_mut()
        }

        fn quantizable_layers(&self) -> Vec<QuantLayerDesc> {
            vec![QuantLayerDesc::for_conv(&self.0)]
        }

        fn lower(&self) -> Option<LoweredGraph> {
            let mut g = GraphBuilder::new();
            let x = g.input();
            let y = g.conv(self.0.weight().name(), x);
            Some(g.finish(y))
        }
    }

    /// A random one-conv model under `policy` and a 4-bit quantizer, its
    /// plan compiled for `[in_channels, hw, hw]` images.
    fn conv_fixture(seed: u64, geom: ConvGeometry, policy: MsqPolicy, hw: usize) -> CompiledModel {
        let mut rng = TensorRng::seed_from(seed);
        let mut model = OneConv(Conv2d::with_geometry("conv", geom, false, &mut rng));
        QuantPipeline::from_policy(policy)
            .with_act_quantizer(ActQuantizer::new(4, 1.2))
            .with_input_shape(&[geom.in_channels, hw, hw])
            .quantize(&mut model)
            .expect("quantize one-conv model")
    }

    /// The interpreter for a one-conv model's only layer.
    fn conv_of(compiled: &CompiledModel) -> &QuantizedConv {
        match &compiled.layers()[0].form {
            DeployForm::Conv(conv) => conv,
            DeployForm::Matrix(_) => panic!("one-conv model deployed as a matrix"),
        }
    }

    #[test]
    fn dense_conv_batch_is_bit_identical_to_single_path() {
        let geom = ConvGeometry::new(3, 6, 3, 1, 1);
        let compiled = conv_fixture(1, geom, MsqPolicy::msq_optimal(), 7);
        let conv = conv_of(&compiled);
        let mut rng = TensorRng::seed_from(2);
        let images: Vec<Tensor> = (0..5)
            .map(|_| Tensor::rand_uniform(&[3, 7, 7], 0.0, 1.2, &mut rng))
            .collect();
        for threads in [1, 2, 4] {
            let engine = BatchEngine::with_threads(threads);
            let run = engine.run_plan_batch(&compiled, &images).expect("batch");
            assert_eq!(run.outputs.len(), images.len());
            for (img, out) in images.iter().zip(&run.outputs) {
                let single = conv.forward_image(img);
                assert_eq!(out.dims(), single.dims());
                assert_eq!(out.as_slice(), single.as_slice(), "threads {threads}");
            }
        }
    }

    #[test]
    fn depthwise_conv_batch_is_bit_identical_to_single_path() {
        let geom = ConvGeometry::depthwise(4, 3, 1, 1);
        let compiled = conv_fixture(3, geom, MsqPolicy::single(Scheme::Sp2, 4), 6);
        let conv = conv_of(&compiled);
        let mut rng = TensorRng::seed_from(4);
        let images: Vec<Tensor> = (0..4)
            .map(|_| Tensor::rand_uniform(&[4, 6, 6], 0.0, 1.2, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(2);
        let run = engine.run_plan_batch(&compiled, &images).expect("batch");
        assert_eq!(run.outputs.len(), images.len());
        for (img, out) in images.iter().zip(&run.outputs) {
            assert_eq!(out.as_slice(), conv.forward_image(img).as_slice());
        }
    }

    #[test]
    fn batch_ops_equal_sum_of_single_image_ops() {
        let geom = ConvGeometry::new(2, 4, 3, 1, 0);
        let compiled = conv_fixture(5, geom, MsqPolicy::msq_half(), 5);
        let conv = conv_of(&compiled);
        let mut rng = TensorRng::seed_from(6);
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[2, 5, 5], 0.0, 1.2, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(2);
        let run = engine.run_plan_batch(&compiled, &images).expect("batch");
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
        let mut model = Sequential::new();
        model.push(Linear::with_name("fc", 11, 6, false, &mut rng));
        let act = ActQuantizer::new(4, 1.0);
        let compiled = QuantPipeline::from_policy(MsqPolicy::msq_optimal())
            .with_act_quantizer(act)
            .with_input_shape(&[11])
            .quantize(&mut model)
            .expect("quantize one-dense model");
        let qm = compiled.layers()[0].matrix();
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::rand_uniform(&[11], 0.0, 1.0, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(3);
        let run = engine.run_plan_batch(&compiled, &inputs).expect("batch");
        assert_eq!(run.outputs.len(), inputs.len());
        let mut expect_ops = OpCounts::default();
        for (x, out) in inputs.iter().zip(&run.outputs) {
            let (y, ops) = qm.matvec(&act.quantize(x.as_slice()), &act);
            expect_ops = expect_ops.merge(ops);
            assert_eq!(out.as_slice(), &y[..]);
        }
        assert_eq!(run.ops, expect_ops);
    }

    #[test]
    fn empty_batch_yields_empty_run() {
        let geom = ConvGeometry::new(2, 2, 3, 1, 1);
        let compiled = conv_fixture(11, geom, MsqPolicy::msq_half(), 5);
        let engine = BatchEngine::with_threads(2);
        let run = engine.run_plan_batch(&compiled, &[]).expect("empty");
        assert!(run.outputs.is_empty());
        assert_eq!(run.ops, OpCounts::default());
    }

    /// A 6 → 9 → 4 MLP compiled for `[6]` inputs under `act`.
    fn mlp(rng: &mut TensorRng, act: ActQuantizer) -> CompiledModel {
        let mut model = Sequential::new();
        model.push(Linear::with_name("fc1", 6, 9, true, rng));
        model.push(Relu::new());
        model.push(Linear::with_name("fc2", 9, 4, false, rng));
        QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_act_quantizer(act)
            .with_input_shape(&[6])
            .quantize(&mut model)
            .expect("quantize mlp")
    }

    #[test]
    fn engine_rejects_malformed_inputs_without_panicking() {
        let mut rng = TensorRng::seed_from(9);
        let engine = BatchEngine::with_threads(1);
        let compiled = mlp(&mut rng, ActQuantizer::new(4, 1.0));
        let plan = compiled.require_plan().expect("plan");
        assert!(matches!(
            engine.run_plan(compiled.model(), plan, &[Tensor::zeros(&[7])]),
            Err(QuantError::ShapeMismatch { .. })
        ));
        // A struct-literal quantizer past 16 bits fails typed before
        // fan-out on both arms of `layer_plan` (the model-wide quantizer of
        // a dense layer, a conv's own), not by a shift panic in a worker.
        let wide = ActQuantizer {
            bits: 32,
            clip: 1.0,
        };
        let dense = mlp(&mut rng, wide);
        let plan = dense.require_plan().expect("plan");
        assert!(matches!(
            engine.run_plan(dense.model(), plan, &[Tensor::zeros(&[6])]),
            Err(QuantError::ActQuantizer { bits: 32, .. })
        ));
        let mut resnet = ResNet::new(ResNetConfig::mini(10), &mut rng);
        let conv = QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_act_quantizer(wide)
            .with_input_shape(&[3, 8, 8])
            .quantize(&mut resnet)
            .expect("quantize resnet-mini");
        let plan = conv.require_plan().expect("plan");
        assert!(matches!(
            plan.steps().first().map(|s| s.op),
            Some(StepOp::Conv { .. } | StepOp::FusedConv { .. })
        ));
        assert!(matches!(
            engine.run_plan(conv.model(), plan, &[Tensor::zeros(&[3, 8, 8])]),
            Err(QuantError::ActQuantizer { bits: 32, .. })
        ));
    }

    #[test]
    fn run_plan_rejects_plans_compiled_for_another_model() {
        let mut rng = TensorRng::seed_from(13);
        let act = ActQuantizer::new(4, 1.0);
        let mut dense = |widths: &[usize]| {
            let mut model = Sequential::new();
            for (i, pair) in widths.windows(2).enumerate() {
                let name = format!("fc{}", i + 1);
                model.push(Linear::with_name(&name, pair[0], pair[1], false, &mut rng));
            }
            QuantPipeline::from_policy(MsqPolicy::msq_half())
                .with_act_quantizer(act)
                .with_input_shape(&widths[..1])
                .quantize(&mut model)
                .expect("quantize mlp")
        };
        let wider = dense(&[6, 11, 4]);
        let shorter = dense(&[6, 9]);
        let mlp = mlp(&mut rng, act);
        let mut resnet = ResNet::new(ResNetConfig::mini(10), &mut rng);
        let resnet = QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_act_quantizer(act)
            .with_input_shape(&[3, 8, 8])
            .quantize(&mut resnet)
            .expect("quantize resnet-mini");
        let engine = BatchEngine::with_threads(1);
        // `plan_of`'s plan on `model`'s layers, through both entry points:
        // each must refuse typed, before fan-out, with the same error.
        let refusal = |model: &CompiledModel, plan_of: &CompiledModel| {
            let plan = plan_of.require_plan().expect("plan");
            let images = [Tensor::zeros(plan.input_dims())];
            let plain = engine.run_plan(model.model(), plan, &images).map(|_| ());
            let profiled = engine
                .run_plan_profiled(model.model(), plan, &images)
                .map(|_| ());
            assert_eq!(plain, profiled);
            plain.expect_err("mispaired plan ran")
        };
        // 6 → 9 → 4 on 6 → 11 → 4: the first GEMM's output disagrees.
        assert!(matches!(refusal(&wider, &mlp), QuantError::Geometry { .. }));
        // 6 → 9 → 4 on 6 → 9: the second GEMM names a missing layer.
        assert_eq!(
            refusal(&shorter, &mlp),
            QuantError::MissingParam {
                name: "plan layer #1".into()
            }
        );
        // Conv steps on dense layers, and GEMM steps on conv layers.
        assert!(matches!(
            refusal(&mlp, &resnet),
            QuantError::Geometry { .. }
        ));
        assert!(matches!(
            refusal(&resnet, &mlp),
            QuantError::Geometry { .. }
        ));
    }

    #[test]
    fn run_plan_batch_handles_batch_sizes_zero_and_one() {
        let mut rng = TensorRng::seed_from(12);
        let compiled = mlp(&mut rng, ActQuantizer::new(4, 1.0));

        for threads in [1, 2] {
            let engine = BatchEngine::with_threads(threads);
            // Batch 0: empty result, zero ops (no error, no panic).
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
