//! `QuantPipeline` — the single device-to-deployment entry point.
//!
//! The paper's workflow is one hardware-coupled loop: the FPGA's LUT/DSP
//! budget fixes the SP2:fixed partition ratio (§V-A), the ratio drives
//! row-wise MSQ projection during ADMM training (Algorithms 1–2), and the
//! trained model lands in bit-exact integer kernels (§V-B). Historically the
//! repo exposed that loop as six disconnected APIs that every example wired
//! by hand; this module is the typed pipeline that replaces the hand-wiring:
//!
//! ```text
//! QuantPipeline::for_device(FpgaDevice::XC7Z045)   // DSE → 1:2 → MsqPolicy
//!     .with_qat(QatConfig::quantized(...))          // optional stage overrides
//!     .calibrate(&activation_sample)                // activation clip fit
//!     .train_and_quantize(&mut model, batches)?     // Algorithm 1 + deployment
//!     .report()                                     // layers + cycle-sim summary
//! ```
//!
//! The builder is typestate-flavored: a pipeline can only be obtained with a
//! resolved policy (from a [`HardwareTarget`] or an explicit [`MsqPolicy`]),
//! every stage consumes and returns the builder, and the terminal
//! `quantize*` calls consume it into a [`CompiledModel`] artifact (the
//! [`QuantizedModel`] plus the compiled
//! [`ExecutionPlan`] lowered from it) — there
//! is no orderable-but-invalid call sequence to misuse.
//!
//! The hardware side stays decoupled through the [`HardwareTarget`] trait:
//! `mixmatch-fpga` implements it for `FpgaDevice` (design-space exploration
//! for the policy, the cycle simulator for [`HardwareSummary`]), so this
//! crate never depends on the FPGA crate even though
//! `QuantPipeline::for_device(FpgaDevice::XC7Z045)` reads as if it did.

use crate::admm::{AdmmConfig, AdmmQuantizer, LayerOverride, LayerQuantReport};
use crate::deploy::QuantizedConv;
use crate::error::QuantError;
use crate::graph::ExecutionPlan;
use crate::integer::{ActQuantizer, GemmPlan, PackedMatrix, QuantizedMatrix};
use crate::msq::MsqPolicy;
use crate::qat::{train_classifier_with_quantizer, EpochLog, QatConfig};
use crate::rowwise::RowAssignment;
use crate::schemes::Codebook;
use mixmatch_nn::lower::{LoweredGraph, LoweredOp};
use mixmatch_nn::module::{Layer, Param};
use mixmatch_nn::quantize::{QuantLayerDesc, QuantLayerKind, QuantizableModel};
use mixmatch_tensor::{stats, Tensor};
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

/// Input feature-map edge assumed when neither the pipeline nor its
/// hardware target pins one (matches `FpgaTarget`'s default).
const DEFAULT_INPUT_EDGE: usize = 32;

/// A deployment substrate that can anchor a pipeline: it derives the
/// quantization policy from its resource model and (optionally) predicts
/// performance for a quantized model's layer shapes.
///
/// `mixmatch-fpga` implements this for `FpgaDevice` and its `FpgaTarget`;
/// tests can implement it with a stub.
///
/// Targets must be `Send + Sync`: the [`QuantizedModel`] that owns one is
/// shared across threads by the serving stack (`mixmatch-serve` keeps
/// hot-swappable `Arc<CompiledModel>`s in a registry read by the batcher
/// and every caller). Targets are plain resource/calibration data, so this
/// costs implementors nothing.
pub trait HardwareTarget: Send + Sync {
    /// Human-readable name (device + design ratio).
    fn label(&self) -> String;

    /// The MSQ policy this hardware wants (partition ratio from its
    /// LUT/DSP characterization).
    fn derive_policy(&self) -> MsqPolicy;

    /// Performance/resource prediction for a model's layer shapes, if the
    /// target models one. The default declines.
    fn summarize(&self, layers: &[QuantLayerDesc]) -> Option<HardwareSummary> {
        let _ = layers;
        None
    }

    /// Batched variant of [`HardwareTarget::summarize`]: prediction for
    /// `batch` inputs streamed back-to-back (`latency_ms` then covers the
    /// whole batch). The default only handles `batch == 1`; targets with a
    /// real performance model override it — `mixmatch-fpga`'s target scales
    /// the GEMM workload so the cycle simulator reports batched GOPS/fps
    /// next to the engine's measured wall-clock throughput.
    fn summarize_batch(&self, layers: &[QuantLayerDesc], batch: usize) -> Option<HardwareSummary> {
        if batch == 1 {
            self.summarize(layers)
        } else {
            None
        }
    }

    /// Batched prediction scheduled from a compiled [`ExecutionPlan`]
    /// rather than a bare layer list: plan steps carry the exact
    /// compile-time spatial shapes (pooling, strides and residual topology
    /// included), so targets with a real performance model override this
    /// to schedule cycles from the same artifact the engine executes. The
    /// default falls back to the layer-derived estimate.
    fn summarize_plan(
        &self,
        layers: &[QuantLayerDesc],
        plan: &ExecutionPlan,
        batch: usize,
    ) -> Option<HardwareSummary> {
        let _ = plan;
        self.summarize_batch(layers, batch)
    }

    /// Predicted per-image cost of each plan step, in microseconds —
    /// the cycle simulator's per-layer attribution mapped back onto plan
    /// step order, so a measured [`PlanProfile`](crate::profile::PlanProfile)
    /// can be diffed against the model the auto-tuner will search with.
    /// Weight-free steps (pool, activation, copies) report `0.0`. The
    /// default declines.
    fn predict_plan_step_us(
        &self,
        layers: &[QuantLayerDesc],
        plan: &ExecutionPlan,
    ) -> Option<Vec<f64>> {
        let _ = (layers, plan);
        None
    }

    /// The square input feature-map edge this target assumes for
    /// convolutional workloads, when it models one — the pipeline uses it
    /// to pick the plan-compilation input shape. The default declines.
    fn input_edge(&self) -> Option<usize> {
        None
    }

    /// One-time hook run when the pipeline takes ownership of the target:
    /// targets whose derivations are expensive resolve them here once (a
    /// bare `FpgaDevice` runs its design-space exploration and hands back
    /// the explored form) so later `label`/`derive_policy`/`summarize`
    /// calls don't repeat the work. The default keeps `self` as-is.
    fn into_prepared(self) -> Box<dyn HardwareTarget>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// Latency/resource summary from a hardware target's performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareSummary {
    /// Device name.
    pub device: String,
    /// `fixed : SP2` lane ratio label (e.g. `"1:2"`).
    pub ratio_label: String,
    /// Achieved throughput in GOPS.
    pub gops: f32,
    /// End-to-end latency per input, milliseconds.
    pub latency_ms: f32,
    /// Achieved / peak throughput.
    pub pe_utilization: f32,
    /// Absolute LUT usage.
    pub lut: f32,
    /// Absolute flip-flop usage.
    pub ff: f32,
    /// Absolute BRAM36 usage.
    pub bram36: f32,
    /// Absolute DSP usage.
    pub dsp: f32,
    /// Full-bitstream LUT utilization fraction.
    pub lut_utilization: f32,
}

/// Builder for the device-to-deployment quantization flow. See the module
/// docs for the stage diagram.
pub struct QuantPipeline {
    label: String,
    policy: MsqPolicy,
    target: Option<Box<dyn HardwareTarget>>,
    qat: Option<QatConfig>,
    act: ActQuantizer,
    overrides: Vec<LayerOverride>,
    input_shape: Option<Vec<usize>>,
    optimize_plan: bool,
}

impl QuantPipeline {
    /// Anchors the pipeline to a hardware target: the target's resource
    /// model picks the `MsqPolicy` (the paper's §V-A procedure), and the
    /// final report will include the target's performance prediction.
    pub fn for_device(target: impl HardwareTarget + 'static) -> Self {
        let target = target.into_prepared();
        QuantPipeline {
            label: target.label(),
            policy: target.derive_policy(),
            target: Some(target),
            qat: None,
            act: ActQuantizer::new(4, 1.0),
            overrides: Vec::new(),
            input_shape: None,
            optimize_plan: true,
        }
    }

    /// Starts from an explicit policy with no hardware anchor (ablations,
    /// scheme comparisons).
    pub fn from_policy(policy: MsqPolicy) -> Self {
        QuantPipeline {
            label: format!("policy {policy:?}"),
            policy,
            target: None,
            qat: None,
            act: ActQuantizer::new(4, 1.0),
            overrides: Vec::new(),
            input_shape: None,
            optimize_plan: true,
        }
    }

    /// Stage: toggles the plan optimizer ([`crate::optimize`]) applied to
    /// the compiled execution plan — epilogue fusion and copy elimination,
    /// both bit-identical. On
    /// by default; `with_plan_optimizer(false)` ships the raw lowering
    /// (debugging, step-level diffing via `mmcheck --dump`).
    pub fn with_plan_optimizer(mut self, enabled: bool) -> Self {
        self.optimize_plan = enabled;
        self
    }

    /// Stage: pins the input shape the execution plan is compiled for
    /// (`[C, H, W]` for convolutional models, `[features]` for dense ones).
    /// Without this stage the pipeline infers a shape from the lowered
    /// graph and the target's [`HardwareTarget::input_edge`] hint; with it,
    /// plan compilation failures become hard errors instead of a plan-free
    /// artifact.
    pub fn with_input_shape(mut self, dims: &[usize]) -> Self {
        self.input_shape = Some(dims.to_vec());
        self
    }

    /// Stage: overrides the derived policy.
    pub fn with_policy(mut self, policy: MsqPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Stage: configures the ADMM training loop used by
    /// [`QuantPipeline::train_and_quantize`]. The config's own `policy`
    /// field is ignored — the pipeline's policy is authoritative.
    pub fn with_qat(mut self, qat: QatConfig) -> Self {
        self.qat = Some(qat);
        self
    }

    /// Stage: replaces the default 4-bit/clip-1.0 activation quantizer.
    pub fn with_act_quantizer(mut self, act: ActQuantizer) -> Self {
        self.act = act;
        self
    }

    /// Stage: fits the activation clip to a sample of representative
    /// activations (99.9th percentile — the standard saturating-calibration
    /// rule), keeping the current activation bit-width.
    pub fn calibrate(mut self, activations: &[f32]) -> Self {
        if !activations.is_empty() {
            let clip = stats::percentile(activations, 99.9).max(f32::MIN_POSITIVE);
            self.act = ActQuantizer::new(self.act.bits, clip);
        }
        self
    }

    /// Stage: per-layer policy override (inter-layer multi-precision, §I).
    pub fn with_layer_override(mut self, layer: LayerOverride) -> Self {
        self.overrides.push(layer);
        self
    }

    /// The policy currently in effect.
    pub fn policy(&self) -> &MsqPolicy {
        &self.policy
    }

    /// The activation quantizer currently in effect.
    pub fn act_quantizer(&self) -> &ActQuantizer {
        &self.act
    }

    /// The policy in effect for a specific parameter name (after overrides).
    pub fn policy_for(&self, name: &str) -> MsqPolicy {
        self.overrides
            .iter()
            .find(|o| name.contains(&o.name_contains))
            .map(|o| o.policy)
            .unwrap_or(self.policy)
    }

    /// An [`AdmmQuantizer`] wired with this pipeline's policy, ρ and layer
    /// overrides — for models whose training loop the generic classifier
    /// driver cannot express (detection losses, token-driven RNNs). After
    /// the custom loop, finish with [`QuantPipeline::quantize`].
    pub fn admm_quantizer(&self, params: &[&Param]) -> AdmmQuantizer {
        let mut admm = AdmmConfig::new(self.policy);
        if let Some(qat) = &self.qat {
            admm.rho = qat.rho;
        }
        let mut q = AdmmQuantizer::attach(params, admm);
        for o in &self.overrides {
            q = q.with_override(o.clone());
        }
        q
    }

    /// Terminal stage, post-training path: hard-projects the model's
    /// quantizable weights onto their scheme grids (`W ← proj_S(W)`) and
    /// packages the deployment artifact. Projection is idempotent, so this
    /// is also the correct finisher after a custom ADMM loop.
    ///
    /// # Errors
    ///
    /// [`QuantError::NoQuantizableLayers`] for models without GEMM weights,
    /// [`QuantError::BitWidth`] / [`QuantError::ShapeMismatch`] /
    /// [`QuantError::Geometry`] when a layer cannot be encoded.
    pub fn quantize<M: QuantizableModel>(self, model: &mut M) -> Result<CompiledModel, QuantError> {
        self.validate_bits()?;
        let mut quantizer = self.admm_quantizer(&model.model_params());
        let reports = quantizer.project_final(&mut model.model_params_mut());
        self.package(model, reports, Vec::new())
    }

    /// Surfaces invalid bit-widths (base policy or overrides) as errors
    /// before any projection could hit the panicking codebook constructor.
    fn validate_bits(&self) -> Result<(), QuantError> {
        Codebook::try_new(crate::schemes::Scheme::Sp2, self.policy.bits)?;
        for o in &self.overrides {
            Codebook::try_new(crate::schemes::Scheme::Sp2, o.policy.bits)?;
        }
        Ok(())
    }

    /// Terminal stage, training path: runs the full Algorithm 1 loop
    /// (per-epoch `Z`/`U` updates, proximal penalty per batch, final hard
    /// projection, BN recalibration) and packages the deployment artifact.
    /// Uses the config from [`QuantPipeline::with_qat`], or the paper's
    /// defaults when none was staged.
    ///
    /// # Errors
    ///
    /// As [`QuantPipeline::quantize`].
    pub fn train_and_quantize<M, F>(
        self,
        model: &mut M,
        batches: F,
    ) -> Result<CompiledModel, QuantError>
    where
        M: QuantizableModel + Layer,
        F: FnMut(usize) -> Vec<(Tensor, Vec<usize>)>,
    {
        self.validate_bits()?;
        let mut cfg = self
            .qat
            .clone()
            .unwrap_or_else(|| QatConfig::quantized(self.policy, 8, 0.05));
        cfg.policy = Some(self.policy);
        let quantizer = Some(self.admm_quantizer(&Layer::params(model)));
        let outcome = train_classifier_with_quantizer(model, batches, &cfg, quantizer);
        self.package(model, outcome.reports, outcome.logs)
    }

    /// Validates the policy, encodes every quantizable layer into its
    /// deployment form (preserving the training-time row assignments),
    /// captures the model's lowered dataflow graph and compiles it into an
    /// [`ExecutionPlan`] — one artifact for the engine, the cycle
    /// simulator and export.
    fn package<M: QuantizableModel>(
        self,
        model: &M,
        reports: Vec<LayerQuantReport>,
        logs: Vec<EpochLog>,
    ) -> Result<CompiledModel, QuantError> {
        let graph = model.lower();
        let descs = model.quantizable_layers();
        if descs.is_empty() {
            return Err(QuantError::NoQuantizableLayers);
        }
        let params = model.model_params();
        let mut layers = Vec::with_capacity(descs.len());
        for desc in descs {
            let policy = self.policy_for(&desc.name);
            let param = params
                .iter()
                .find(|p| p.name() == desc.name)
                .ok_or_else(|| QuantError::MissingParam {
                    name: desc.name.clone(),
                })?;
            let report = reports
                .iter()
                .find(|r| r.name == desc.name)
                .ok_or_else(|| QuantError::MissingParam {
                    name: desc.name.clone(),
                })?
                .clone();
            if param.value.dims() != [desc.rows, desc.cols] {
                return Err(QuantError::ShapeMismatch {
                    context: format!("layer {} disagrees with its descriptor", desc.name),
                    expected: vec![desc.rows, desc.cols],
                    got: param.value.dims().to_vec(),
                });
            }
            // Re-encode under the *training-time* assignment so deployment
            // codes match the reports bit for bit (re-ranking the projected
            // rows by variance could flip borderline rows).
            let assignment =
                RowAssignment::from_schemes(report.rows.iter().map(|r| r.scheme).collect());
            let matrix = QuantizedMatrix::from_float_with(
                &param.value,
                &assignment,
                policy.bits,
                policy.alpha,
            );
            // The packed nibble format exists only at 4-bit precision.
            let packed = (policy.bits == 4).then(|| matrix.pack());
            let form = match &desc.kind {
                QuantLayerKind::Conv(geom) | QuantLayerKind::DepthwiseConv(geom) => {
                    DeployForm::Conv(QuantizedConv::from_matrix(*geom, matrix, self.act)?)
                }
                QuantLayerKind::Dense | QuantLayerKind::Recurrent => DeployForm::Matrix(matrix),
            };
            layers.push(QuantizedLayer {
                desc,
                report,
                form,
                packed,
                gemm: OnceLock::new(),
            });
        }
        let input_shape = self.input_shape.clone();
        let edge = self
            .target
            .as_ref()
            .and_then(|t| t.input_edge())
            .unwrap_or(DEFAULT_INPUT_EDGE);
        let quantized = QuantizedModel {
            label: self.label,
            policy: self.policy,
            act: self.act,
            target: self.target,
            layers,
            logs,
            graph,
        };
        let plan = match (&quantized.graph, &input_shape) {
            // Explicit input shape: compilation failures are hard errors.
            (Some(_), Some(dims)) => Some(quantized.compile(dims)?),
            // Inferred shape: best effort — a model whose graph cannot
            // compile at the guessed shape still quantizes, it just ships
            // without a plan.
            (Some(graph), None) => infer_input_dims(graph, &quantized.layers, edge)
                .and_then(|dims| quantized.compile(&dims).ok()),
            (None, Some(_)) => return Err(QuantError::NoLoweredGraph),
            (None, None) => None,
        };
        // Optimizer stage: rewrite the raw lowering into its fused,
        // copy-free, re-packed twin. `QuantizedModel::compile` stays raw —
        // the knob governs only what the pipeline ships.
        let plan = match plan {
            Some(p) if self.optimize_plan => Some(crate::optimize::optimize(&p)),
            other => other,
        };
        Ok(CompiledModel {
            model: quantized,
            plan,
        })
    }
}

/// Guesses the plan-compilation input shape from the first *shape-fixing*
/// consumer of the network input: `[Cin, edge, edge]` when it is a
/// convolution, `[cols]` when it is a GEMM. Shape-preserving ops in
/// between (activations, requantize — e.g. a leading `FakeQuant` in a QAT
/// stack) are walked through; anything else (pooling, flatten) leaves the
/// shape underdetermined → `None`.
fn infer_input_dims(
    graph: &LoweredGraph,
    layers: &[QuantizedLayer],
    edge: usize,
) -> Option<Vec<usize>> {
    let desc_of = |name: &str| layers.iter().find(|l| l.desc.name == name).map(|l| &l.desc);
    let mut value = 0;
    for _ in 0..=graph.nodes().len() {
        let node = graph.nodes().iter().find(|n| n.inputs.contains(&value))?;
        match &node.op {
            LoweredOp::Conv { name } => {
                let geom = *desc_of(name)?.geometry()?;
                return Some(vec![geom.in_channels, edge, edge]);
            }
            LoweredOp::Gemm { name } => return Some(vec![desc_of(name)?.cols]),
            LoweredOp::Activation(_) | LoweredOp::Requantize => value = node.output,
            _ => return None,
        }
    }
    None
}

/// One layer of a [`QuantizedModel`]: descriptor, training-time report and
/// executable integer form.
pub struct QuantizedLayer {
    /// Structural descriptor (name, dims, kind).
    pub desc: QuantLayerDesc,
    /// Per-row scheme/α/MSE report from the final projection.
    pub report: LayerQuantReport,
    /// Executable deployment form.
    pub form: DeployForm,
    /// Packed 4-bit serialization (`None` when the layer's bit-width ≠ 4).
    pub packed: Option<PackedMatrix>,
    /// The compiled, overflow-checked GEMM row plan (or its typed error),
    /// filled by the engine on the layer's first use and shared by every
    /// later call, batch and replica holding the model.
    pub(crate) gemm: OnceLock<Result<GemmPlan, QuantError>>,
}

impl QuantizedLayer {
    /// The integer-code matrix behind this layer, whatever its form.
    pub fn matrix(&self) -> &QuantizedMatrix {
        match &self.form {
            DeployForm::Matrix(m) => m,
            DeployForm::Conv(c) => c.matrix(),
        }
    }

    /// Serialized size in bytes, when packable.
    pub fn packed_bytes(&self) -> Option<usize> {
        self.packed.as_ref().map(|p| p.byte_size())
    }
}

/// Executable deployment form of one layer.
pub enum DeployForm {
    /// Plain integer matrix (linear / recurrent weights).
    Matrix(QuantizedMatrix),
    /// im2col-driven integer convolution.
    Conv(QuantizedConv),
}

/// The pipeline's artifact: per-layer deployment forms, packed bytes,
/// quantization reports, training logs and the (optional) hardware target
/// for performance reporting.
pub struct QuantizedModel {
    label: String,
    policy: MsqPolicy,
    act: ActQuantizer,
    target: Option<Box<dyn HardwareTarget>>,
    layers: Vec<QuantizedLayer>,
    logs: Vec<EpochLog>,
    graph: Option<LoweredGraph>,
}

impl fmt::Debug for QuantizedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantizedModel")
            .field("label", &self.label)
            .field("policy", &self.policy)
            .field("layers", &self.layers.len())
            .finish_non_exhaustive()
    }
}

impl QuantizedModel {
    /// Pipeline label (device + ratio, or the explicit policy).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The model-wide policy the pipeline quantized with.
    pub fn policy(&self) -> &MsqPolicy {
        &self.policy
    }

    /// The activation quantizer deployment runs with.
    pub fn act_quantizer(&self) -> &ActQuantizer {
        &self.act
    }

    /// All quantized layers, in model order.
    pub fn layers(&self) -> &[QuantizedLayer] {
        &self.layers
    }

    /// Looks a layer up by parameter name.
    pub fn layer(&self, name: &str) -> Option<&QuantizedLayer> {
        self.layers.iter().find(|l| l.desc.name == name)
    }

    /// Per-layer quantization reports, in model order.
    pub fn reports(&self) -> Vec<&LayerQuantReport> {
        self.layers.iter().map(|l| &l.report).collect()
    }

    /// Per-epoch training diagnostics (empty on the post-training path).
    pub fn logs(&self) -> &[EpochLog] {
        &self.logs
    }

    /// Total packed deployment bytes across packable layers.
    pub fn packed_bytes(&self) -> usize {
        self.layers.iter().filter_map(|l| l.packed_bytes()).sum()
    }

    /// Float bytes of the same weights (4 bytes per element).
    pub fn float_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.desc.rows * l.desc.cols * 4)
            .sum()
    }

    /// Float bytes of the *packable* (4-bit) layers only — the correct
    /// numerator for [`QuantizedModel::compression_rate`] when layer
    /// overrides keep some layers at other bit-widths.
    pub fn packable_float_bytes(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.packed.is_some())
            .map(|l| l.desc.rows * l.desc.cols * 4)
            .sum()
    }

    /// Measured compression rate of the packed artifact vs the f32 form of
    /// the same (packable) layers — the paper's Table V headline is 8× at
    /// 4 bits. Layers kept at other bit-widths by overrides are excluded
    /// from both sides of the ratio.
    pub fn compression_rate(&self) -> f32 {
        let packed = self.packed_bytes();
        if packed == 0 {
            return 1.0;
        }
        self.packable_float_bytes() as f32 / packed as f32
    }

    /// The per-layer quantization descriptors in model order — the layer
    /// shapes every [`HardwareTarget`] performance model schedules from.
    pub fn layer_descs(&self) -> Vec<QuantLayerDesc> {
        self.layers.iter().map(|l| l.desc.clone()).collect()
    }

    /// Batched hardware prediction from the anchored target: performance
    /// for `batch` inputs streamed back-to-back, or `None` without a target
    /// (or when the target cannot model the batch). The batched engine
    /// (`crate::engine::BatchEngine`) reports its measured throughput next
    /// to this prediction.
    pub fn summarize_batched(&self, batch: usize) -> Option<HardwareSummary> {
        let descs = self.layer_descs();
        self.target
            .as_ref()
            .and_then(|t| t.summarize_batch(&descs, batch))
    }

    /// Batched hardware prediction scheduled from a compiled plan (see
    /// [`HardwareTarget::summarize_plan`]), or `None` without a target.
    pub fn summarize_plan(&self, plan: &ExecutionPlan, batch: usize) -> Option<HardwareSummary> {
        let descs = self.layer_descs();
        self.target
            .as_ref()
            .and_then(|t| t.summarize_plan(&descs, plan, batch))
    }

    /// Predicted per-image microseconds for each of `plan`'s steps from
    /// the anchored target ([`HardwareTarget::predict_plan_step_us`]), or
    /// `None` without a target (or one with no per-step model).
    pub fn predict_plan_step_us(&self, plan: &ExecutionPlan) -> Option<Vec<f64>> {
        let descs = self.layer_descs();
        self.target
            .as_ref()
            .and_then(|t| t.predict_plan_step_us(&descs, plan))
    }

    /// The lowered dataflow graph captured at packaging time, when the
    /// model implements `QuantizableModel::lower` (imported artifacts and
    /// RNN families carry none).
    pub fn lowered_graph(&self) -> Option<&LoweredGraph> {
        self.graph.as_ref()
    }

    /// Compiles the captured dataflow graph into an [`ExecutionPlan`] for
    /// a concrete input shape — recompile at will for other shapes; the
    /// weights stay here, the plan is a pure schedule.
    ///
    /// # Errors
    ///
    /// [`QuantError::NoLoweredGraph`] when no graph was captured, plus any
    /// [`ExecutionPlan::compile`] shape/geometry error.
    pub fn compile(&self, input_dims: &[usize]) -> Result<ExecutionPlan, QuantError> {
        let graph = self.graph.as_ref().ok_or(QuantError::NoLoweredGraph)?;
        ExecutionPlan::compile(graph, &self.layer_descs(), input_dims)
    }

    /// Reassembles a model from deserialized parts (the export/import
    /// path; no hardware target, no training logs, no dataflow graph).
    pub(crate) fn from_parts(
        label: String,
        policy: MsqPolicy,
        act: ActQuantizer,
        layers: Vec<QuantizedLayer>,
    ) -> Self {
        QuantizedModel {
            label,
            policy,
            act,
            target: None,
            layers,
            logs: Vec::new(),
            graph: None,
        }
    }

    /// Builds the pipeline report: per-layer quantization summary plus, when
    /// a hardware target anchors the pipeline, the cycle-simulator
    /// latency/resource prediction for this model's layer shapes.
    pub fn report(&self) -> PipelineReport {
        let descs = self.layer_descs();
        PipelineReport {
            label: self.label.clone(),
            layers: self
                .layers
                .iter()
                .map(|l| LayerReportRow {
                    name: l.desc.name.clone(),
                    rows: l.desc.rows,
                    cols: l.desc.cols,
                    sp2_fraction: l.report.sp2_fraction(),
                    mean_mse: l.report.mean_mse(),
                    packed_bytes: l.packed_bytes(),
                })
                .collect(),
            hardware: self.target.as_ref().and_then(|t| t.summarize(&descs)),
            packed_bytes: self.packed_bytes(),
            float_bytes: self.float_bytes(),
            packable_float_bytes: self.packable_float_bytes(),
        }
    }
}

/// The pipeline's terminal artifact: the quantized model plus the compiled
/// [`ExecutionPlan`] lowered from it. One `CompiledModel` drives all three
/// deployment consumers — `BatchEngine::run_plan_batch` (end-to-end integer
/// inference), the hardware target's plan-scheduled cycle summaries, and
/// the serialized export artifact.
///
/// Derefs to [`QuantizedModel`], so every per-layer accessor and report
/// keeps working on the compiled artifact.
pub struct CompiledModel {
    model: QuantizedModel,
    plan: Option<ExecutionPlan>,
}

impl Deref for CompiledModel {
    type Target = QuantizedModel;

    fn deref(&self) -> &QuantizedModel {
        &self.model
    }
}

impl fmt::Debug for CompiledModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledModel")
            .field("model", &self.model)
            .field("plan_steps", &self.plan.as_ref().map(|p| p.steps().len()))
            .finish()
    }
}

impl CompiledModel {
    /// Wraps an already-quantized model with an explicitly compiled plan
    /// (the import path, and tests that compile at custom shapes).
    pub fn from_parts(model: QuantizedModel, plan: Option<ExecutionPlan>) -> Self {
        CompiledModel { model, plan }
    }

    /// The quantized model.
    pub fn model(&self) -> &QuantizedModel {
        &self.model
    }

    /// Unwraps the quantized model, dropping the plan.
    pub fn into_model(self) -> QuantizedModel {
        self.model
    }

    /// The compiled execution plan — `None` when the model did not lower
    /// (RNN families) or no input shape could be inferred; compile one
    /// explicitly with [`QuantizedModel::compile`].
    pub fn plan(&self) -> Option<&ExecutionPlan> {
        self.plan.as_ref()
    }

    /// The plan, or a typed error for plan-free artifacts.
    ///
    /// # Errors
    ///
    /// [`QuantError::NoLoweredGraph`] when the artifact carries no plan.
    pub fn require_plan(&self) -> Result<&ExecutionPlan, QuantError> {
        self.plan.as_ref().ok_or(QuantError::NoLoweredGraph)
    }

    /// Batched hardware prediction: scheduled from the compiled plan when
    /// one exists (exact compile-time shapes), falling back to the
    /// layer-derived estimate otherwise. Shadows the deref'd
    /// [`QuantizedModel::summarize_batched`] so the compiled artifact
    /// always reports plan-consistent numbers.
    pub fn summarize_batched(&self, batch: usize) -> Option<HardwareSummary> {
        match &self.plan {
            Some(plan) => self.model.summarize_plan(plan, batch),
            None => self.model.summarize_batched(batch),
        }
    }

    /// Batched prediction against an *external* target — the fleet-serving
    /// path, where one imported artifact (which carries no target of its
    /// own) is replicated across heterogeneous devices and each replica
    /// prices the same plan on its own hardware model. Plan-scheduled when
    /// the artifact carries a plan, layer-derived otherwise.
    pub fn predict_with(
        &self,
        target: &dyn HardwareTarget,
        batch: usize,
    ) -> Option<HardwareSummary> {
        let descs = self.model.layer_descs();
        match &self.plan {
            Some(plan) => target.summarize_plan(&descs, plan, batch),
            None => target.summarize_batch(&descs, batch),
        }
    }

    /// The pipeline report with its hardware prediction scheduled from the
    /// compiled plan when one exists — shadows the deref'd
    /// [`QuantizedModel::report`] so every number the artifact prints comes
    /// from the same compiled steps the engine executes.
    pub fn report(&self) -> PipelineReport {
        let mut report = self.model.report();
        if let Some(hw) = self.summarize_batched(1) {
            report.hardware = Some(hw);
        }
        report
    }
}

/// One row of a [`PipelineReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReportRow {
    /// Parameter name.
    pub name: String,
    /// Weight rows.
    pub rows: usize,
    /// Weight columns.
    pub cols: usize,
    /// Fraction of rows on SP2.
    pub sp2_fraction: f32,
    /// Mean per-row projection MSE.
    pub mean_mse: f32,
    /// Packed bytes, when the layer packs.
    pub packed_bytes: Option<usize>,
}

/// Human-readable pipeline summary; render with `{}`.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Pipeline label.
    pub label: String,
    /// Per-layer rows.
    pub layers: Vec<LayerReportRow>,
    /// Hardware prediction, when a target anchors the pipeline.
    pub hardware: Option<HardwareSummary>,
    /// Total packed bytes.
    pub packed_bytes: usize,
    /// Total float bytes across all layers.
    pub float_bytes: usize,
    /// Float bytes of the packable (4-bit) layers only.
    pub packable_float_bytes: usize,
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "quantized model [{}]", self.label)?;
        writeln!(
            f,
            "  {:<28} {:>6} {:>6} {:>8} {:>10} {:>10}",
            "layer", "rows", "cols", "SP2", "mean MSE", "packed B"
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "  {:<28} {:>6} {:>6} {:>7.0}% {:>10.2e} {:>10}",
                l.name,
                l.rows,
                l.cols,
                l.sp2_fraction * 100.0,
                l.mean_mse,
                l.packed_bytes.map_or("-".to_string(), |b| b.to_string()),
            )?;
        }
        if self.packed_bytes > 0 {
            writeln!(
                f,
                "  packed {} B vs float {} B ({:.2}x compression)",
                self.packed_bytes,
                self.packable_float_bytes,
                self.packable_float_bytes as f32 / self.packed_bytes as f32
            )?;
        }
        if let Some(hw) = &self.hardware {
            writeln!(
                f,
                "  {} @ {}: {:.1} GOPS, {:.2} ms/input, PE util {:.1}%, LUT {:.0} ({:.0}%), DSP {:.0}",
                hw.device,
                hw.ratio_label,
                hw.gops,
                hw.latency_ms,
                hw.pe_utilization * 100.0,
                hw.lut,
                hw.lut_utilization * 100.0,
                hw.dsp,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowwise::PartitionRatio;
    use crate::schemes::Scheme;
    use mixmatch_nn::layers::Linear;
    use mixmatch_nn::module::Sequential;
    use mixmatch_tensor::TensorRng;

    struct StubTarget;

    impl HardwareTarget for StubTarget {
        fn label(&self) -> String {
            "stub (1:2)".into()
        }

        fn derive_policy(&self) -> MsqPolicy {
            MsqPolicy::mixed(PartitionRatio::from_fixed_sp2(1.0, 2.0), 4)
        }

        fn summarize(&self, layers: &[QuantLayerDesc]) -> Option<HardwareSummary> {
            Some(HardwareSummary {
                device: "stub".into(),
                ratio_label: "1:2".into(),
                gops: layers.len() as f32,
                latency_ms: 1.0,
                pe_utilization: 0.5,
                lut: 0.0,
                ff: 0.0,
                bram36: 0.0,
                dsp: 0.0,
                lut_utilization: 0.0,
            })
        }
    }

    fn toy_model(rng: &mut TensorRng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Linear::with_name("fc1", 8, 12, true, rng));
        net.push(Linear::with_name("fc2", 12, 4, false, rng));
        net
    }

    #[test]
    fn for_device_derives_policy_and_summary() {
        let mut rng = TensorRng::seed_from(0);
        let mut model = toy_model(&mut rng);
        let pipeline = QuantPipeline::for_device(StubTarget);
        match pipeline.policy().choice {
            crate::msq::SchemeChoice::Mixed(r) => {
                assert!((r.sp2_fraction() - 2.0 / 3.0).abs() < 1e-6)
            }
            other => panic!("expected mixed policy, got {other:?}"),
        }
        let quantized = pipeline.quantize(&mut model).expect("quantize");
        assert_eq!(quantized.layers().len(), 2);
        let report = quantized.report();
        assert!(report.to_string().contains("fc1.weight"));
        let hw = report.hardware.expect("stub summarizes");
        assert_eq!(hw.gops, 2.0);
    }

    #[test]
    fn quantize_projects_weights_onto_grid() {
        let mut rng = TensorRng::seed_from(1);
        let mut model = toy_model(&mut rng);
        let quantized = QuantPipeline::from_policy(MsqPolicy::msq_half())
            .quantize(&mut model)
            .expect("quantize");
        // The in-place model weights now equal the deployment matrices.
        for layer in quantized.layers() {
            let dq = layer.matrix().to_float();
            let param = mixmatch_nn::module::Layer::params(&model)
                .into_iter()
                .find(|p| p.name() == layer.desc.name)
                .expect("param")
                .value
                .clone();
            assert!(dq.max_abs_diff(&param) < 1e-5, "{}", layer.desc.name);
        }
    }

    #[test]
    fn packed_bytes_present_only_at_4_bits() {
        let mut rng = TensorRng::seed_from(2);
        let mut model = toy_model(&mut rng);
        let q4 = QuantPipeline::from_policy(MsqPolicy::single(Scheme::Sp2, 4))
            .quantize(&mut model)
            .expect("4-bit");
        assert!(q4.packed_bytes() > 0);
        // Layers this small amortise the per-row (scheme, α) metadata badly;
        // realistic widths approach 8× (see the export module tests).
        assert!(q4.compression_rate() > 3.5, "{}", q4.compression_rate());
        let mut model6 = toy_model(&mut rng);
        let q6 = QuantPipeline::from_policy(MsqPolicy::single(Scheme::Fixed, 6))
            .quantize(&mut model6)
            .expect("6-bit");
        assert_eq!(q6.packed_bytes(), 0);
        assert_eq!(q6.compression_rate(), 1.0);
    }

    #[test]
    fn invalid_bit_width_is_an_error_not_a_panic() {
        let mut rng = TensorRng::seed_from(3);
        let mut model = toy_model(&mut rng);
        let err = QuantPipeline::from_policy(MsqPolicy::single(Scheme::Fixed, 12))
            .quantize(&mut model)
            .unwrap_err();
        assert_eq!(err, QuantError::BitWidth { bits: 12 });
    }

    #[test]
    fn empty_model_is_an_error() {
        let mut model = Sequential::new();
        let err = QuantPipeline::from_policy(MsqPolicy::msq_half())
            .quantize(&mut model)
            .unwrap_err();
        assert_eq!(err, QuantError::NoQuantizableLayers);
    }

    #[test]
    fn layer_overrides_flow_through_packaging() {
        let mut rng = TensorRng::seed_from(4);
        let mut model = toy_model(&mut rng);
        let quantized = QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_layer_override(LayerOverride {
                name_contains: "fc1".into(),
                policy: MsqPolicy::single(Scheme::Fixed, 6),
            })
            .quantize(&mut model)
            .expect("quantize");
        let fc1 = quantized.layer("fc1.weight").expect("fc1");
        assert!(fc1.packed.is_none(), "6-bit layer must not pack");
        assert!(fc1.report.rows.iter().all(|r| r.scheme == Scheme::Fixed));
        let fc2 = quantized.layer("fc2.weight").expect("fc2");
        assert!(fc2.packed.is_some());
        assert!((fc2.report.sp2_fraction() - 0.5).abs() < 0.26);
        // The compression ratio compares packed bytes against the float
        // form of the *packed* layers only — the 6-bit fc1 stays out of
        // both sides, so the rate stays in the physical 4-bit band.
        assert_eq!(
            quantized.packable_float_bytes(),
            fc2.desc.rows * fc2.desc.cols * 4
        );
        assert!(
            quantized.compression_rate() <= 8.0,
            "rate {} exceeds the 4-bit bound",
            quantized.compression_rate()
        );
    }

    #[test]
    fn input_inference_walks_past_leading_requantize() {
        use mixmatch_nn::layers::{FakeQuant, FakeQuantConfig};
        let mut rng = TensorRng::seed_from(5);
        let mut model = Sequential::new();
        // A QAT-style stack: fake-quant on the input, then the GEMM.
        model.push(FakeQuant::new(FakeQuantConfig::act4()));
        model.push(Linear::with_name("fc", 6, 3, false, &mut rng));
        let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
            .quantize(&mut model)
            .expect("quantize");
        let plan = compiled.plan().expect("shape inferred through requantize");
        assert_eq!(plan.input_dims(), &[6]);
        assert_eq!(plan.output_dims(), &[3]);
    }

    #[test]
    fn calibrate_sets_activation_clip_by_percentile() {
        let sample: Vec<f32> = (0..1000).map(|i| i as f32 / 1000.0).collect();
        let p = QuantPipeline::from_policy(MsqPolicy::msq_half()).calibrate(&sample);
        let clip = p.act_quantizer().clip;
        assert!((0.95..=1.0).contains(&clip), "clip {clip}");
    }
}
