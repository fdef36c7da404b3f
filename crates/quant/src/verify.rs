//! Static plan verifier: the one authority that *proves* an
//! [`ExecutionPlan`] well-formed without executing anything.
//!
//! The compiled graph IR is the single artifact the engine, the cycle
//! simulator, export and the whole serving fleet drive from, and the
//! artifact the optimizer's passes rewrite. This module is the
//! machine-checked statement of the invariants those rewrites must
//! preserve, in the verify-before-you-transform discipline of
//! TensorRT/FINN-style graph compilers:
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
//! * **Shape flow** — every step's claimed output dims equal what the one
//!   shape rule computes from its sources: weight-free steps under
//!   [`Rule::ShapeFlow`], and, when a layer table is supplied, `Conv`/`Gemm`
//!   steps against the packed layer they name ([`Rule::GeomConv`],
//!   [`Rule::GeomGemm`]), including the fused step kinds the optimizer
//!   emits ([`Rule::GeomFused`]).
//! * **Reachability** — no dead steps, no values unreachable from the
//!   input, and the plan's input edge and logits output are actually
//!   connected ([`Rule::DeadStep`], [`Rule::UnreachableValue`],
//!   [`Rule::IoConnected`]).
//!
//! [`verify_parts`] runs a structural gate and then each rule family,
//! emitting structured [`Diagnostic`]s (rule id, step index, value/buffer
//! ids, message) rather than a bool, so violations compose into one
//! [`VerifyReport`].
//!
//! Each plan is verified once, where it is built:
//! [`ExecutionPlan::from_parts`] runs the verifier, so compile, the
//! optimizer and the artifact importer can only hand out plans that pass
//! it. `import_compiled` verifies against the decoded layer table and
//! refuses failures with
//! [`QuantError::Verify`](crate::error::QuantError::Verify);
//! `mixmatch-serve` verifies an in-memory model at load; and the `mmcheck`
//! bin lints artifacts and fresh lowerings from the command line.
//! `BatchEngine::run_plan` trusts the plan and checks only its pairing with
//! the model it runs, through the same shape rule.
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

use crate::graph::{self, element_count, ExecutionPlan, PlanStep, StepOp};
use mixmatch_nn::quantize::QuantLayerDesc;
use std::fmt;

/// Identifier of one verifier rule. Every [`Diagnostic`] names the rule it
/// fired under, so violations are machine-matchable (tests pin exact rule
/// ids; `mmcheck` groups its report by rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A step's arity, buffer/step record shape is malformed (wrong number
    /// of sources, buffer id out of range, empty output dims, element
    /// count overflowing `usize`). Structural soundness is the
    /// precondition every other rule assumes.
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
    /// shapes (elementwise/residual shape change, a flatten not writing
    /// `[count]`, pool window not tiling the map), or the output buffer
    /// ends in a shape other than the plan's claimed output dims.
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

/// The composed result of a verifier run: every diagnostic from every rule
/// family, in run order. Renders as a line-per-diagnostic report with `{}`.
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
/// these to express invalid plans `from_parts` refuses to build;
/// [`verify`] borrows them from a real plan.
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

impl PlanParts<'_> {
    /// The value the output buffer holds after the last step (the input
    /// value 0 for an identity plan), or `None` when the output buffer is
    /// never written and is not the input buffer.
    pub(crate) fn output_value(&self) -> Option<usize> {
        self.steps
            .iter()
            .rev()
            .find(|s| s.dst == self.output_buffer)
            .map(|s| s.value)
            .or((self.output_buffer == self.input_buffer).then_some(0))
    }
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

/// Runs every rule over raw plan parts: a structural gate (arity,
/// buffer/index ranges, dim sanity — [`Rule::Structure`]) and then the
/// four rule families, SSA → buffers → shapes → reachability. A
/// structurally broken plan reports only its structural diagnostics,
/// because no deeper analysis is meaningful (or safe to index) on top of
/// it. With `layers`, every Conv/Gemm step is checked against the layer it
/// names; without, its claimed output is taken at face value. This is what
/// [`ExecutionPlan::from_parts`] runs on every plan it builds.
pub fn verify_parts(parts: &PlanParts<'_>, layers: Option<&[QuantLayerDesc]>) -> VerifyReport {
    let mut diagnostics = Vec::new();
    check_structure(parts, &mut diagnostics);
    if diagnostics.is_empty() {
        check_ssa(parts, &mut diagnostics);
        check_buffers(parts, &mut diagnostics);
        check_shapes(parts, layers, &mut diagnostics);
        check_reachability(parts, &mut diagnostics);
    }
    VerifyReport { diagnostics }
}

/// Verifies a plan against the layer table it executes — the full rule set
/// including conv/gemm geometry. Every plan already passed the
/// model-independent rules when it was built; this adds the pairing with
/// one model, which is what the import and serving trust boundaries run.
pub fn verify(plan: &ExecutionPlan, layers: &[QuantLayerDesc]) -> VerifyReport {
    verify_parts(&PlanParts::from(plan), Some(layers))
}

// ---------------------------------------------------------------------------
// Structural pre-check
// ---------------------------------------------------------------------------

/// Arity, index ranges and dim sanity — the invariants every rule family
/// indexes through. Violations gate the rest (see [`verify_parts`]).
fn check_structure(parts: &PlanParts<'_>, out: &mut Vec<Diagnostic>) {
    let buffers = parts.buffer_sizes.len();
    let out_of_range = |what: &str, buffer: usize| {
        Diagnostic::new(
            Rule::Structure,
            format!("{what} buffer {buffer} out of range ({buffers} buffers)"),
        )
        .on_buffer(buffer)
    };
    for (what, buffer) in [
        ("input", parts.input_buffer),
        ("output", parts.output_buffer),
    ] {
        if buffer >= buffers {
            out.push(out_of_range(what, buffer));
        }
    }
    if element_count(parts.input_dims).is_none() {
        out.push(Diagnostic::new(
            Rule::Structure,
            format!(
                "input dims {:?} overflow the element count",
                parts.input_dims
            ),
        ));
    }
    for (i, step) in parts.steps.iter().enumerate() {
        let arity = if step.op == StepOp::ResidualAdd { 2 } else { 1 };
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
        let srcs = step.srcs.iter().map(|&src| ("source", src));
        for (what, buffer) in srcs.chain([("destination", step.dst)]) {
            if buffer >= buffers {
                out.push(out_of_range(what, buffer).at_step(i));
            }
        }
        if step.dims.is_empty() {
            out.push(Diagnostic::new(Rule::Structure, "step has no output dims".into()).at_step(i));
        }
        if element_count(&step.dims).is_none() {
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
// SSA rules
// ---------------------------------------------------------------------------

/// SSA discipline: unique definitions, definition-before-use, topological
/// step order.
fn check_ssa(parts: &PlanParts<'_>, out: &mut Vec<Diagnostic>) {
    // Step index (plus one, with 0 = the network input) defining each
    // value, in list order.
    let mut defined_at: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
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

// ---------------------------------------------------------------------------
// Buffer rules
// ---------------------------------------------------------------------------

/// Buffer safety: no same-step aliasing, liveness-respecting recycling,
/// exact high-water accounting.
fn check_buffers(parts: &PlanParts<'_>, out: &mut Vec<Diagnostic>) {
    // Last step index consuming each value; the value left in the
    // output buffer at the end is live to infinity.
    let mut last_use: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for (i, step) in parts.steps.iter().enumerate() {
        for &v in &step.src_values {
            last_use.insert(v, i);
        }
    }
    if let Some(v) = parts.output_value() {
        last_use.insert(v, usize::MAX);
    }

    // Replay the arena: `holds[b]` is the value buffer `b` holds.
    let mut holds: Vec<Option<usize>> = vec![None; parts.buffer_sizes.len()];
    let mut high_water = vec![0usize; parts.buffer_sizes.len()];
    holds[parts.input_buffer] = Some(0);
    high_water[parts.input_buffer] = element_count(parts.input_dims).unwrap_or(0);
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
        high_water[step.dst] = high_water[step.dst].max(element_count(&step.dims).unwrap_or(0));
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

// ---------------------------------------------------------------------------
// Shape rules
// ---------------------------------------------------------------------------

/// Every step's claimed dims against [`graph::step_dims`], the shape rule
/// compile infers with. Conv/Gemm steps are checked only when the caller
/// supplies the layer table. A step reports its first violation, under the
/// rule its op kind names.
fn check_shapes(
    parts: &PlanParts<'_>,
    layers: Option<&[QuantLayerDesc]>,
    out: &mut Vec<Diagnostic>,
) {
    // Dims per buffer as the step list executes. Steps whose sources are
    // unwritten (a liveness violation, reported by the buffer rules) read
    // the empty shape; the check never panics on them.
    let mut dims: Vec<Option<&[usize]>> = vec![None; parts.buffer_sizes.len()];
    dims[parts.input_buffer] = Some(parts.input_dims);
    for (i, step) in parts.steps.iter().enumerate() {
        let srcs: Vec<&[usize]> = step.srcs.iter().map(|&b| dims[b].unwrap_or(&[])).collect();
        let (rule, layer) = match (step.op, layers) {
            (StepOp::Conv { layer }, Some(table)) => (Rule::GeomConv, table.get(layer)),
            (StepOp::Gemm { layer }, Some(table)) => (Rule::GeomGemm, table.get(layer)),
            (StepOp::FusedConv { layer, .. } | StepOp::FusedGemm { layer, .. }, Some(table)) => {
                (Rule::GeomFused, table.get(layer))
            }
            (op, _) if op.layer().is_none() => (Rule::ShapeFlow, None),
            // No layer table: a Conv/Gemm output is taken at face value.
            _ => {
                dims[step.dst] = Some(&step.dims);
                continue;
            }
        };
        let want = graph::step_dims(&step.op, &srcs, layer);
        if !matches!(&want, Ok(d) if *d == step.dims) {
            let message = match want {
                Ok(want) => {
                    let op = layer.map_or_else(
                        || format!("{:?}", step.op),
                        |d| format!("layer {:?}", d.name),
                    );
                    let from = match srcs[..] {
                        [src] => format!("{src:?}"),
                        _ => format!("{srcs:?}"),
                    };
                    format!("{op} maps {from} to {want:?}, step claims {:?}", step.dims)
                }
                Err(e) => e.to_string(),
            };
            out.push(Diagnostic::new(rule, message).at_step(i));
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

// ---------------------------------------------------------------------------
// Reachability rules
// ---------------------------------------------------------------------------

/// Dead steps, unreachable values, and input→output connectivity.
fn check_reachability(parts: &PlanParts<'_>, out: &mut Vec<Diagnostic>) {
    let Some(output_value) = parts.output_value() else {
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
    // trip the SSA rules.
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

#[cfg(test)]
mod tests {
    use super::*;
    use mixmatch_nn::lower::{ActKind, GraphBuilder, PoolKind};
    use mixmatch_nn::quantize::QuantLayerKind;
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
        let report = verify_parts(&parts, Some(&layers));
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
