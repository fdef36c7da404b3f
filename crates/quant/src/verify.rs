//! Static plan verifier: a pass pipeline over [`ExecutionPlan`] that
//! *proves* a plan is well-formed without executing anything.
//!
//! The compiled graph IR is the single artifact the engine, the cycle
//! simulator, export and the whole serving fleet drive from — and it is the
//! artifact every future optimizer pass (fusion, copy elimination, arena
//! re-packing) will rewrite. This module is the machine-checked statement
//! of the invariants those rewrites must preserve, in the
//! verify-before-you-transform discipline of TensorRT/FINN-style graph
//! compilers:
//!
//! * **SSA discipline** — every value is defined exactly once, defined
//!   before use, and the step list is genuinely topological
//!   ([`Rule::SsaUniqueDef`], [`Rule::SsaDefBeforeUse`],
//!   [`Rule::SsaTopologicalOrder`]).
//! * **Buffer safety** — no step writes a buffer it reads
//!   ([`Rule::BufferAlias`]), arena assignments respect liveness intervals
//!   (a buffer is never recycled while the value it holds is still needed —
//!   [`Rule::BufferLiveness`]), and the declared `buffer_sizes` high-water
//!   marks exactly match the liveness-derived requirement
//!   ([`Rule::BufferHighWater`]).
//! * **Shape flow** — every weight-free step's output shape is consistent
//!   with its operands ([`Rule::ShapeFlow`]), and every `Conv`/`Gemm`
//!   step's geometry is internally consistent with the packed weights it
//!   names ([`Rule::GeomConv`], [`Rule::GeomGemm`]), including the fused
//!   step kinds the optimizer emits ([`Rule::GeomFused`]).
//! * **Reachability** — no dead steps, no values unreachable from the
//!   input, and the plan's input edge and logits output are actually
//!   connected ([`Rule::DeadStep`], [`Rule::UnreachableValue`],
//!   [`Rule::IoConnected`]).
//!
//! Each rule family is an independent [`Pass`] emitting structured
//! [`Diagnostic`]s (rule id, step index, value/buffer ids, message) rather
//! than a bool, so violations compose into one [`VerifyReport`].
//!
//! The verifier runs at every trust boundary: `import_compiled` refuses
//! artifacts whose plans do not verify
//! ([`QuantError::Verify`](crate::error::QuantError::Verify)),
//! `mixmatch-serve` refuses them at model load, `BatchEngine::run_plan`
//! re-checks structural invariants under `debug_assertions`, and the
//! `mmcheck` bin lints artifacts from the command line.
//!
//! # Example
//!
//! ```
//! use mixmatch_quant::pipeline::QuantPipeline;
//! use mixmatch_quant::msq::MsqPolicy;
//! use mixmatch_quant::verify;
//! use mixmatch_nn::layers::Linear;
//! use mixmatch_nn::module::Sequential;
//! use mixmatch_tensor::TensorRng;
//!
//! let mut rng = TensorRng::seed_from(0);
//! let mut model = Sequential::new();
//! model.push(Linear::with_name("fc", 8, 4, false, &mut rng));
//! let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
//!     .with_input_shape(&[8])
//!     .quantize(&mut model)
//!     .unwrap();
//! let report = verify::verify(compiled.plan().unwrap(), &compiled.layer_descs());
//! assert!(report.is_clean());
//! ```

use crate::graph::{ExecutionPlan, PlanStep, StepOp};
use mixmatch_nn::lower::PoolKind;
use mixmatch_nn::quantize::{QuantLayerDesc, QuantLayerKind};
use std::fmt;

/// Identifier of one verifier rule. Every [`Diagnostic`] names the rule it
/// fired under, so violations are machine-matchable (tests pin exact rule
/// ids; `mmcheck` groups its report by rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A step's arity, buffer/step record shape is malformed (wrong number
    /// of sources, buffer id out of range, empty output dims, element
    /// count overflowing `usize`). Structural soundness is the
    /// precondition every other pass assumes.
    Structure,
    /// An SSA value is defined more than once (or a step redefines the
    /// network-input value 0).
    SsaUniqueDef,
    /// A step consumes an SSA value no step (and not the input) defines.
    SsaDefBeforeUse,
    /// A step consumes an SSA value that is only defined by a *later*
    /// step — the step list is not topologically ordered.
    SsaTopologicalOrder,
    /// A step writes its output onto a buffer it also reads — the arena's
    /// split borrows forbid same-step aliasing.
    BufferAlias,
    /// A buffer was recycled while the value it held was still live: a
    /// step reads a buffer that no longer holds (or never held) the value
    /// its provenance claims, or a write clobbers a value with remaining
    /// readers.
    BufferLiveness,
    /// A declared per-buffer high-water element count disagrees with the
    /// liveness-derived requirement (under-allocation panics mid-batch;
    /// over-allocation wastes arena memory on every worker).
    BufferHighWater,
    /// A weight-free step's output shape is inconsistent with its operand
    /// shapes (elementwise/residual shape change, flatten changing the
    /// element count, pool window not tiling the map).
    ShapeFlow,
    /// A `Conv` step disagrees with the layer it names: missing layer,
    /// non-conv layer kind, descriptor rows/cols inconsistent with the
    /// packed geometry, input channels or output map not matching the
    /// geometry.
    GeomConv,
    /// A `Gemm` step disagrees with the layer it names: missing layer,
    /// conv layer kind, input width ≠ `cols`, output ≠ `[rows]`.
    GeomGemm,
    /// A `FusedConv`/`FusedGemm` step disagrees with the layer it names.
    /// Fused conv follows the `GeomConv` contract; fused GEMM relaxes the
    /// input-shape rule to "any shape holding exactly `cols` elements"
    /// (the optimizer folds `Flatten` copies into the GEMM read), but the
    /// element count and `[rows]` output are still checked exactly.
    GeomFused,
    /// A step's result can never reach the plan output — dead work the
    /// executor would still run.
    DeadStep,
    /// A value (and the step defining it) is not reachable forward from
    /// the network input — it computes from nothing.
    UnreachableValue,
    /// The plan's input edge and its output are not connected: the output
    /// buffer is never written (and is not the input buffer), or the final
    /// value held there does not trace back to the input.
    IoConnected,
}

impl Rule {
    /// The stable, kebab-case rule id (what `mmcheck` prints and tests
    /// match on).
    pub fn id(&self) -> &'static str {
        match self {
            Rule::Structure => "plan-structure",
            Rule::SsaUniqueDef => "ssa-unique-def",
            Rule::SsaDefBeforeUse => "ssa-def-before-use",
            Rule::SsaTopologicalOrder => "ssa-topological-order",
            Rule::BufferAlias => "buf-alias",
            Rule::BufferLiveness => "buf-liveness",
            Rule::BufferHighWater => "buf-high-water",
            Rule::ShapeFlow => "shape-flow",
            Rule::GeomConv => "geom-conv",
            Rule::GeomGemm => "geom-gemm",
            Rule::GeomFused => "geom-fused",
            Rule::DeadStep => "dead-step",
            Rule::UnreachableValue => "unreachable-value",
            Rule::IoConnected => "io-connected",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One structured verifier finding: which rule fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Step index the violation anchors to, when it anchors to one.
    pub step: Option<usize>,
    /// SSA value id involved, when one is.
    pub value: Option<usize>,
    /// Buffer id involved, when one is.
    pub buffer: Option<usize>,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    fn new(rule: Rule, message: String) -> Self {
        Diagnostic {
            rule,
            step: None,
            value: None,
            buffer: None,
            message,
        }
    }

    fn at_step(mut self, step: usize) -> Self {
        self.step = Some(step);
        self
    }

    fn on_value(mut self, value: usize) -> Self {
        self.value = Some(value);
        self
    }

    fn on_buffer(mut self, buffer: usize) -> Self {
        self.buffer = Some(buffer);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.rule.id())?;
        if let Some(step) = self.step {
            write!(f, " step {step}")?;
        }
        if let Some(value) = self.value {
            write!(f, " value {value}")?;
        }
        if let Some(buffer) = self.buffer {
            write!(f, " buffer {buffer}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The composed result of a verifier run: every diagnostic from every pass,
/// in pass order. Renders as a line-per-diagnostic report with `{}`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// All diagnostics, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` when no rule fired — the plan is proven well-formed.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Did `rule` fire at least once?
    pub fn fired(&self, rule: Rule) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// The distinct rules that fired, in first-emission order.
    pub fn rules_fired(&self) -> Vec<Rule> {
        let mut rules = Vec::new();
        for d in &self.diagnostics {
            if !rules.contains(&d.rule) {
                rules.push(d.rule);
            }
        }
        rules
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("plan verifies clean (0 diagnostics)");
        }
        writeln!(
            f,
            "plan fails verification ({} diagnostics)",
            self.diagnostics.len()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// The raw IR pieces one verifier run analyzes — exactly the fields
/// [`ExecutionPlan::from_parts`] assembles, borrowed. Tests hand-build
/// these to express invalid plans the plan constructors would refuse to
/// produce; [`verify`]/[`verify_plan`] borrow them from a real plan.
#[derive(Debug, Clone, Copy)]
pub struct PlanParts<'a> {
    /// The plan's input shape.
    pub input_dims: &'a [usize],
    /// The plan's claimed output shape.
    pub output_dims: &'a [usize],
    /// Steps in execution order.
    pub steps: &'a [PlanStep],
    /// Declared per-buffer element-count high-water marks.
    pub buffer_sizes: &'a [usize],
    /// Buffer holding the network input at step 0.
    pub input_buffer: usize,
    /// Buffer holding the network output after the last step.
    pub output_buffer: usize,
}

impl<'a> From<&'a ExecutionPlan> for PlanParts<'a> {
    fn from(plan: &'a ExecutionPlan) -> Self {
        PlanParts {
            input_dims: plan.input_dims(),
            output_dims: plan.output_dims(),
            steps: plan.steps(),
            buffer_sizes: plan.buffer_sizes(),
            input_buffer: plan.input_buffer(),
            output_buffer: plan.output_buffer(),
        }
    }
}

impl PlanParts<'_> {
    fn arity(op: &StepOp) -> usize {
        match op {
            StepOp::ResidualAdd => 2,
            _ => 1,
        }
    }

    /// Checked element count of a dim list.
    fn count(dims: &[usize]) -> Option<usize> {
        dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
    }
}

/// One verifier rule family: inspects the plan parts (and the layer table,
/// when the caller has one) and appends structured diagnostics. Passes are
/// independent — each assumes only *structural* soundness (see
/// [`Rule::Structure`]), never the absence of other passes' violations.
pub trait Pass {
    /// Short pass name (diagnostics grouping, debug output).
    fn name(&self) -> &'static str;

    /// Runs the pass, appending any violations to `out`.
    fn run(
        &self,
        parts: &PlanParts<'_>,
        layers: Option<&[QuantLayerDesc]>,
        out: &mut Vec<Diagnostic>,
    );
}

/// The verifier: an ordered pass pipeline. [`Verifier::standard`] holds
/// every built-in rule family; optimizer-pass authors can extend it with
/// their own invariants via [`Verifier::with_pass`].
pub struct Verifier {
    passes: Vec<Box<dyn Pass>>,
}

impl Default for Verifier {
    fn default() -> Self {
        Self::standard()
    }
}

impl Verifier {
    /// The full built-in pipeline: structure → SSA → buffers → shapes →
    /// reachability.
    pub fn standard() -> Self {
        Verifier {
            passes: vec![
                Box::new(SsaPass),
                Box::new(BufferPass),
                Box::new(ShapePass),
                Box::new(ReachabilityPass),
            ],
        }
    }

    /// Appends a custom pass to the pipeline.
    #[must_use]
    pub fn with_pass(mut self, pass: Box<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Runs the pipeline over raw plan parts. A structural pre-check
    /// (arity, buffer/index ranges, dim sanity — [`Rule::Structure`]) gates
    /// the pass pipeline: structurally broken plans report only their
    /// structural diagnostics, because no deeper analysis is meaningful
    /// (or safe to index) on top of them.
    pub fn run(&self, parts: &PlanParts<'_>, layers: Option<&[QuantLayerDesc]>) -> VerifyReport {
        let mut diagnostics = Vec::new();
        check_structure(parts, &mut diagnostics);
        if diagnostics.is_empty() {
            for pass in &self.passes {
                pass.run(parts, layers, &mut diagnostics);
            }
        }
        VerifyReport { diagnostics }
    }
}

/// Verifies a plan against the layer table it executes — the full rule set
/// including conv/gemm geometry consistency. This is what the import and
/// serving trust boundaries run.
pub fn verify(plan: &ExecutionPlan, layers: &[QuantLayerDesc]) -> VerifyReport {
    Verifier::standard().run(&PlanParts::from(plan), Some(layers))
}

/// Verifies a plan's model-independent invariants (SSA, buffers, shape
/// flow of weight-free steps, reachability). Conv/Gemm outputs are taken
/// at face value, exactly as [`ExecutionPlan::from_parts`] takes them —
/// pairing a plan with a concrete model is what [`verify`] checks.
pub fn verify_plan(plan: &ExecutionPlan) -> VerifyReport {
    Verifier::standard().run(&PlanParts::from(plan), None)
}

// ---------------------------------------------------------------------------
// Structural pre-check
// ---------------------------------------------------------------------------

/// Arity, index ranges and dim sanity — the invariants every pass indexes
/// through. Violations gate the pipeline (see [`Verifier::run`]).
fn check_structure(parts: &PlanParts<'_>, out: &mut Vec<Diagnostic>) {
    let buffers = parts.buffer_sizes.len();
    if parts.input_buffer >= buffers {
        out.push(
            Diagnostic::new(
                Rule::Structure,
                format!(
                    "input buffer {} out of range ({buffers} buffers)",
                    parts.input_buffer
                ),
            )
            .on_buffer(parts.input_buffer),
        );
    }
    if parts.output_buffer >= buffers {
        out.push(
            Diagnostic::new(
                Rule::Structure,
                format!(
                    "output buffer {} out of range ({buffers} buffers)",
                    parts.output_buffer
                ),
            )
            .on_buffer(parts.output_buffer),
        );
    }
    if PlanParts::count(parts.input_dims).is_none() {
        out.push(Diagnostic::new(
            Rule::Structure,
            format!(
                "input dims {:?} overflow the element count",
                parts.input_dims
            ),
        ));
    }
    for (i, step) in parts.steps.iter().enumerate() {
        let arity = PlanParts::arity(&step.op);
        if step.srcs.len() != arity || step.src_values.len() != arity {
            out.push(
                Diagnostic::new(
                    Rule::Structure,
                    format!(
                        "op {:?} takes {arity} sources, step has {} buffers / {} values",
                        step.op,
                        step.srcs.len(),
                        step.src_values.len()
                    ),
                )
                .at_step(i),
            );
        }
        for &src in &step.srcs {
            if src >= buffers {
                out.push(
                    Diagnostic::new(
                        Rule::Structure,
                        format!("source buffer {src} out of range ({buffers} buffers)"),
                    )
                    .at_step(i)
                    .on_buffer(src),
                );
            }
        }
        if step.dst >= buffers {
            out.push(
                Diagnostic::new(
                    Rule::Structure,
                    format!(
                        "destination buffer {} out of range ({buffers} buffers)",
                        step.dst
                    ),
                )
                .at_step(i)
                .on_buffer(step.dst),
            );
        }
        if step.dims.is_empty() {
            out.push(Diagnostic::new(Rule::Structure, "step has no output dims".into()).at_step(i));
        }
        if PlanParts::count(&step.dims).is_none() {
            out.push(
                Diagnostic::new(
                    Rule::Structure,
                    format!("output dims {:?} overflow the element count", step.dims),
                )
                .at_step(i),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// SSA pass
// ---------------------------------------------------------------------------

/// SSA discipline: unique definitions, definition-before-use, topological
/// step order.
struct SsaPass;

impl Pass for SsaPass {
    fn name(&self) -> &'static str {
        "ssa"
    }

    fn run(
        &self,
        parts: &PlanParts<'_>,
        _layers: Option<&[QuantLayerDesc]>,
        out: &mut Vec<Diagnostic>,
    ) {
        // Step index (plus one, with 0 = the network input) defining each
        // value, in list order.
        let mut defined_at: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        defined_at.insert(0, 0);
        for (i, step) in parts.steps.iter().enumerate() {
            if let Some(&prior) = defined_at.get(&step.value) {
                let message = if step.value == 0 {
                    "step redefines the network-input value 0".to_string()
                } else {
                    format!("value already defined by step {}", prior - 1)
                };
                out.push(
                    Diagnostic::new(Rule::SsaUniqueDef, message)
                        .at_step(i)
                        .on_value(step.value),
                );
            } else {
                defined_at.insert(step.value, i + 1);
            }
        }
        for (i, step) in parts.steps.iter().enumerate() {
            for &v in &step.src_values {
                match defined_at.get(&v) {
                    None => out.push(
                        Diagnostic::new(
                            Rule::SsaDefBeforeUse,
                            "consumed value is never defined".into(),
                        )
                        .at_step(i)
                        .on_value(v),
                    ),
                    Some(&def) if def > i => out.push(
                        Diagnostic::new(
                            Rule::SsaTopologicalOrder,
                            format!("consumed value is defined later, by step {}", def - 1),
                        )
                        .at_step(i)
                        .on_value(v),
                    ),
                    Some(_) => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Buffer pass
// ---------------------------------------------------------------------------

/// Buffer safety: no same-step aliasing, liveness-respecting recycling,
/// exact high-water accounting.
struct BufferPass;

impl Pass for BufferPass {
    fn name(&self) -> &'static str {
        "buffers"
    }

    fn run(
        &self,
        parts: &PlanParts<'_>,
        _layers: Option<&[QuantLayerDesc]>,
        out: &mut Vec<Diagnostic>,
    ) {
        // Last step index consuming each value; the value left in the
        // output buffer at the end is live to infinity.
        let mut last_use: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for (i, step) in parts.steps.iter().enumerate() {
            for &v in &step.src_values {
                last_use.insert(v, i);
            }
        }
        let output_value = parts
            .steps
            .iter()
            .rev()
            .find(|s| s.dst == parts.output_buffer)
            .map(|s| s.value)
            .or((parts.output_buffer == parts.input_buffer).then_some(0));
        if let Some(v) = output_value {
            last_use.insert(v, usize::MAX);
        }

        // Replay the arena: `holds[b]` is the value buffer `b` holds.
        let mut holds: Vec<Option<usize>> = vec![None; parts.buffer_sizes.len()];
        let mut high_water = vec![0usize; parts.buffer_sizes.len()];
        holds[parts.input_buffer] = Some(0);
        high_water[parts.input_buffer] = PlanParts::count(parts.input_dims).unwrap_or(0);
        for (i, step) in parts.steps.iter().enumerate() {
            if step.srcs.contains(&step.dst) {
                out.push(
                    Diagnostic::new(
                        Rule::BufferAlias,
                        "step writes a buffer it also reads".into(),
                    )
                    .at_step(i)
                    .on_buffer(step.dst),
                );
            }
            for (&buf, &value) in step.srcs.iter().zip(&step.src_values) {
                if holds[buf] != Some(value) {
                    let held = match holds[buf] {
                        Some(h) => format!("holds value {h}"),
                        None => "was never written".to_string(),
                    };
                    out.push(
                        Diagnostic::new(
                            Rule::BufferLiveness,
                            format!("step expects value {value} in buffer {buf}, which {held}"),
                        )
                        .at_step(i)
                        .on_value(value)
                        .on_buffer(buf),
                    );
                }
            }
            if let Some(clobbered) = holds[step.dst] {
                if last_use.get(&clobbered).copied().unwrap_or(0) > i {
                    out.push(
                        Diagnostic::new(
                            Rule::BufferLiveness,
                            format!("write clobbers live value {clobbered} (still has readers)"),
                        )
                        .at_step(i)
                        .on_value(clobbered)
                        .on_buffer(step.dst),
                    );
                }
            }
            holds[step.dst] = Some(step.value);
            high_water[step.dst] =
                high_water[step.dst].max(PlanParts::count(&step.dims).unwrap_or(0));
        }

        // Declared sizes must equal the replay-derived requirement exactly:
        // smaller panics mid-batch, larger over-allocates every worker
        // arena (the compiler emits exact sizes, so any drift is a bug).
        for (b, (&claimed, &needed)) in parts.buffer_sizes.iter().zip(&high_water).enumerate() {
            if claimed != needed {
                out.push(
                    Diagnostic::new(
                        Rule::BufferHighWater,
                        format!("declared size {claimed} elements, steps need exactly {needed}"),
                    )
                    .on_buffer(b),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shape pass
// ---------------------------------------------------------------------------

/// Shape flow of weight-free steps, plus conv/gemm geometry consistency
/// against the layer table when the caller supplies one.
struct ShapePass;

impl Pass for ShapePass {
    fn name(&self) -> &'static str {
        "shapes"
    }

    fn run(
        &self,
        parts: &PlanParts<'_>,
        layers: Option<&[QuantLayerDesc]>,
        out: &mut Vec<Diagnostic>,
    ) {
        // Dims per buffer as the step list executes. Steps whose sources
        // are unwritten (a liveness violation, reported by BufferPass)
        // fall back to the empty shape; the pass never panics on them.
        let mut dims: Vec<Option<&[usize]>> = vec![None; parts.buffer_sizes.len()];
        dims[parts.input_buffer] = Some(parts.input_dims);
        for (i, step) in parts.steps.iter().enumerate() {
            let src = |slot: usize| dims[step.srcs[slot]].unwrap_or(&[]);
            match step.op {
                StepOp::Activation(_) | StepOp::Requantize => {
                    if src(0) != step.dims {
                        out.push(
                            Diagnostic::new(
                                Rule::ShapeFlow,
                                format!("elementwise step maps {:?} to {:?}", src(0), step.dims),
                            )
                            .at_step(i),
                        );
                    }
                }
                StepOp::ResidualAdd => {
                    if src(0) != step.dims || src(1) != step.dims {
                        out.push(
                            Diagnostic::new(
                                Rule::ShapeFlow,
                                format!(
                                    "residual add of {:?} and {:?} claims {:?}",
                                    src(0),
                                    src(1),
                                    step.dims
                                ),
                            )
                            .at_step(i),
                        );
                    }
                }
                StepOp::Flatten => {
                    let (a, b) = (PlanParts::count(src(0)), PlanParts::count(&step.dims));
                    if a != b || a.is_none() {
                        out.push(
                            Diagnostic::new(
                                Rule::ShapeFlow,
                                format!(
                                    "flatten maps {:?} to {:?} (element counts differ)",
                                    src(0),
                                    step.dims
                                ),
                            )
                            .at_step(i),
                        );
                    }
                }
                StepOp::Pool(kind) => {
                    let d = src(0);
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
                        out.push(
                            Diagnostic::new(
                                Rule::ShapeFlow,
                                format!("pool {kind:?} maps {d:?} to {:?}", step.dims),
                            )
                            .at_step(i),
                        );
                    }
                }
                StepOp::Conv { layer } => {
                    if let Some(layers) = layers {
                        check_conv(i, layer, src(0), &step.dims, layers, out);
                    }
                }
                StepOp::Gemm { layer } => {
                    if let Some(layers) = layers {
                        check_gemm(i, layer, src(0), &step.dims, layers, out);
                    }
                }
                StepOp::FusedConv { layer, .. } => {
                    if let Some(layers) = layers {
                        check_fused_conv(i, layer, src(0), &step.dims, layers, out);
                    }
                }
                StepOp::FusedGemm { layer, .. } => {
                    if let Some(layers) = layers {
                        check_fused_gemm(i, layer, src(0), &step.dims, layers, out);
                    }
                }
            }
            dims[step.dst] = Some(&step.dims);
        }
        let final_dims = dims[parts.output_buffer].unwrap_or(parts.input_dims);
        if final_dims != parts.output_dims {
            out.push(
                Diagnostic::new(
                    Rule::ShapeFlow,
                    format!(
                        "output buffer ends as {final_dims:?}, plan claims {:?}",
                        parts.output_dims
                    ),
                )
                .on_buffer(parts.output_buffer),
            );
        }
    }
}

/// Conv step vs the packed layer it names.
fn check_conv(
    step: usize,
    layer: usize,
    src: &[usize],
    dims: &[usize],
    layers: &[QuantLayerDesc],
    out: &mut Vec<Diagnostic>,
) {
    check_conv_rule(Rule::GeomConv, step, layer, src, dims, layers, out);
}

/// Fused conv geometry: identical to the plain-conv contract (the epilogue
/// is elementwise and cannot change the map), reported under `geom-fused`.
fn check_fused_conv(
    step: usize,
    layer: usize,
    src: &[usize],
    dims: &[usize],
    layers: &[QuantLayerDesc],
    out: &mut Vec<Diagnostic>,
) {
    check_conv_rule(Rule::GeomFused, step, layer, src, dims, layers, out);
}

fn check_conv_rule(
    rule: Rule,
    step: usize,
    layer: usize,
    src: &[usize],
    dims: &[usize],
    layers: &[QuantLayerDesc],
    out: &mut Vec<Diagnostic>,
) {
    let mut fail = |message: String| {
        out.push(Diagnostic::new(rule, message).at_step(step));
    };
    let Some(desc) = layers.get(layer) else {
        fail(format!(
            "references layer #{layer}, model has {}",
            layers.len()
        ));
        return;
    };
    let geom = match &desc.kind {
        QuantLayerKind::Conv(g) | QuantLayerKind::DepthwiseConv(g) => *g,
        other => {
            fail(format!(
                "layer {:?} ({other:?}) is not a convolution",
                desc.name
            ));
            return;
        }
    };
    // The descriptor's packed rows/cols must agree with its own geometry —
    // a corrupted artifact can desynchronize them.
    if desc.rows != geom.out_channels || desc.cols != geom.gemm_k() {
        fail(format!(
            "layer {:?} packs [{}, {}] weights, geometry wants [{}, {}]",
            desc.name,
            desc.rows,
            desc.cols,
            geom.out_channels,
            geom.gemm_k()
        ));
        return;
    }
    if src.len() != 3 || src[0] != geom.in_channels {
        fail(format!(
            "layer {:?} wants [{}, H, W] input, step feeds {src:?}",
            desc.name, geom.in_channels
        ));
        return;
    }
    let out_dims = geom
        .checked_output_size(src[1])
        .zip(geom.checked_output_size(src[2]))
        .map(|(oh, ow)| [geom.out_channels, oh, ow]);
    if out_dims.as_ref().map(|d| &d[..]) != Some(dims) {
        fail(format!(
            "layer {:?} maps {src:?} to {:?}, step claims {dims:?}",
            desc.name,
            out_dims.map(|d| d.to_vec())
        ));
    }
}

/// Gemm step vs the packed layer it names.
fn check_gemm(
    step: usize,
    layer: usize,
    src: &[usize],
    dims: &[usize],
    layers: &[QuantLayerDesc],
    out: &mut Vec<Diagnostic>,
) {
    let mut fail = |message: String| {
        out.push(Diagnostic::new(Rule::GeomGemm, message).at_step(step));
    };
    let Some(desc) = layers.get(layer) else {
        fail(format!(
            "references layer #{layer}, model has {}",
            layers.len()
        ));
        return;
    };
    if desc.geometry().is_some() {
        fail(format!(
            "layer {:?} is a convolution, step runs it as a GEMM",
            desc.name
        ));
        return;
    }
    if src != [desc.cols] {
        fail(format!(
            "layer {:?} wants [{}] input, step feeds {src:?}",
            desc.name, desc.cols
        ));
    }
    if dims != [desc.rows] {
        fail(format!(
            "layer {:?} produces [{}], step claims {dims:?}",
            desc.name, desc.rows
        ));
    }
}

/// Fused GEMM vs the packed layer it names: the source may hold *any*
/// shape with exactly `cols` elements (the step reads it flat — that is
/// what lets the optimizer fold a `Flatten` into the GEMM), the output
/// must still be `[rows]`.
fn check_fused_gemm(
    step: usize,
    layer: usize,
    src: &[usize],
    dims: &[usize],
    layers: &[QuantLayerDesc],
    out: &mut Vec<Diagnostic>,
) {
    let mut fail = |message: String| {
        out.push(Diagnostic::new(Rule::GeomFused, message).at_step(step));
    };
    let Some(desc) = layers.get(layer) else {
        fail(format!(
            "references layer #{layer}, model has {}",
            layers.len()
        ));
        return;
    };
    if desc.geometry().is_some() {
        fail(format!(
            "layer {:?} is a convolution, step runs it as a fused GEMM",
            desc.name
        ));
        return;
    }
    if PlanParts::count(src) != Some(desc.cols) {
        fail(format!(
            "layer {:?} wants {} input elements, step feeds {src:?}",
            desc.name, desc.cols
        ));
    }
    if dims != [desc.rows] {
        fail(format!(
            "layer {:?} produces [{}], step claims {dims:?}",
            desc.name, desc.rows
        ));
    }
}

// ---------------------------------------------------------------------------
// Reachability pass
// ---------------------------------------------------------------------------

/// Dead steps, unreachable values, and input→output connectivity.
struct ReachabilityPass;

impl Pass for ReachabilityPass {
    fn name(&self) -> &'static str {
        "reachability"
    }

    fn run(
        &self,
        parts: &PlanParts<'_>,
        _layers: Option<&[QuantLayerDesc]>,
        out: &mut Vec<Diagnostic>,
    ) {
        // The plan output is whatever value the output buffer holds after
        // the last step (the input value for degenerate identity plans).
        let output_value = parts
            .steps
            .iter()
            .rev()
            .find(|s| s.dst == parts.output_buffer)
            .map(|s| s.value)
            .or((parts.output_buffer == parts.input_buffer).then_some(0));
        let Some(output_value) = output_value else {
            out.push(
                Diagnostic::new(
                    Rule::IoConnected,
                    "output buffer is never written and is not the input buffer".into(),
                )
                .on_buffer(parts.output_buffer),
            );
            return;
        };

        // Backward sweep: values the output transitively needs. The step
        // list is processed in reverse so one sweep suffices on
        // topologically ordered plans; out-of-order plans additionally
        // trip the SSA pass.
        let mut needed: std::collections::HashSet<usize> = std::collections::HashSet::new();
        needed.insert(output_value);
        for step in parts.steps.iter().rev() {
            if needed.contains(&step.value) {
                needed.extend(step.src_values.iter().copied());
            }
        }
        for (i, step) in parts.steps.iter().enumerate() {
            if !needed.contains(&step.value) {
                out.push(
                    Diagnostic::new(
                        Rule::DeadStep,
                        format!("result of {:?} never reaches the plan output", step.op),
                    )
                    .at_step(i)
                    .on_value(step.value),
                );
            }
        }

        // Forward sweep: values computable from the network input. On an
        // SSA-clean plan every step chains back to value 0, so violations
        // here pinpoint exactly the values cut off from the input edge.
        let mut from_input: std::collections::HashSet<usize> = std::collections::HashSet::new();
        from_input.insert(0);
        for step in parts.steps {
            if step.src_values.iter().all(|v| from_input.contains(v)) {
                from_input.insert(step.value);
            }
        }
        for (i, step) in parts.steps.iter().enumerate() {
            if !from_input.contains(&step.value) {
                out.push(
                    Diagnostic::new(
                        Rule::UnreachableValue,
                        "value is not computable from the network input".into(),
                    )
                    .at_step(i)
                    .on_value(step.value),
                );
            }
        }
        if !from_input.contains(&output_value) {
            out.push(
                Diagnostic::new(
                    Rule::IoConnected,
                    format!("output value {output_value} does not trace back to the input edge"),
                )
                .on_value(output_value)
                .on_buffer(parts.output_buffer),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixmatch_nn::lower::{ActKind, GraphBuilder};
    use mixmatch_tensor::im2col::ConvGeometry;

    fn conv_desc(name: &str, geom: ConvGeometry) -> QuantLayerDesc {
        QuantLayerDesc {
            name: name.into(),
            rows: geom.out_channels,
            cols: geom.gemm_k(),
            kind: QuantLayerKind::Conv(geom),
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

    /// stem conv → relu → global pool → flatten → fc on 8×8 inputs — the
    /// same plan the graph tests compile.
    fn tiny() -> (ExecutionPlan, Vec<QuantLayerDesc>) {
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
        let plan = ExecutionPlan::compile(&graph, &layers, &[3, 8, 8]).expect("compile");
        (plan, layers)
    }

    #[test]
    fn compiled_plans_verify_clean() {
        let (plan, layers) = tiny();
        let report = verify(&plan, &layers);
        assert!(report.is_clean(), "{report}");
        assert!(verify_plan(&plan).is_clean());
    }

    #[test]
    fn structural_breakage_gates_the_pipeline() {
        let (plan, layers) = tiny();
        let mut steps = plan.steps().to_vec();
        steps[1].srcs = vec![99];
        let parts = PlanParts {
            input_dims: plan.input_dims(),
            output_dims: plan.output_dims(),
            steps: &steps,
            buffer_sizes: plan.buffer_sizes(),
            input_buffer: plan.input_buffer(),
            output_buffer: plan.output_buffer(),
        };
        let report = Verifier::standard().run(&parts, Some(&layers));
        assert!(report.fired(Rule::Structure), "{report}");
        assert_eq!(report.rules_fired(), vec![Rule::Structure]);
    }

    #[test]
    fn diagnostics_render_with_anchors() {
        let d = Diagnostic::new(Rule::BufferAlias, "boom".into())
            .at_step(3)
            .on_value(7)
            .on_buffer(1);
        let line = d.to_string();
        assert!(
            line.contains("[buf-alias]") && line.contains("step 3"),
            "{line}"
        );
        assert!(
            line.contains("value 7") && line.contains("buffer 1"),
            "{line}"
        );
    }

    #[test]
    fn rule_ids_are_stable_and_distinct() {
        let all = [
            Rule::Structure,
            Rule::SsaUniqueDef,
            Rule::SsaDefBeforeUse,
            Rule::SsaTopologicalOrder,
            Rule::BufferAlias,
            Rule::BufferLiveness,
            Rule::BufferHighWater,
            Rule::ShapeFlow,
            Rule::GeomConv,
            Rule::GeomGemm,
            Rule::GeomFused,
            Rule::DeadStep,
            Rule::UnreachableValue,
            Rule::IoConnected,
        ];
        let ids: std::collections::HashSet<&str> = all.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), all.len());
    }
}
