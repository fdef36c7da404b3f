//! Plan optimizer: a pass pipeline that rewrites an [`ExecutionPlan`]
//! into a cheaper, bit-identical twin.
//!
//! The compiled IR out of [`ExecutionPlan::compile`] is a faithful
//! transcription of the lowered layer list: every
//! `Conv/Gemm → Activation → Requantize` chain makes one full pass over
//! its output *per step*, and every `Flatten` burns a ping-pong copy whose
//! only effect is a shape change `Tensor::reset_to` could absorb. This
//! module is the optimizer stage between lowering and plan emission —
//! independent passes over [`PlanParts`] (the same raw form
//! [`crate::verify`] analyzes):
//!
//! 1. **[`OptPass::FuseEpilogues`]** — folds elementwise
//!    `Activation`/`Requantize` consumers into the producing
//!    `Conv`/`Gemm`, emitting [`StepOp::FusedConv`]/[`StepOp::FusedGemm`]
//!    steps whose epilogue the engine applies in place: one pass over the
//!    output instead of up to three.
//! 2. **[`OptPass::EliminateCopies`]** — removes `Flatten` copies whose
//!    readers can take the un-flattened buffer directly (`FusedGemm` reads
//!    its source flat), plus identity reshapes.
//! 3. **[`OptPass::EliminateDeadValues`]** — drops steps whose results
//!    never reach the plan output, then renumbers SSA values densely.
//!
//! Every pass transforms the plan at the SSA-value level and then
//! re-allocates buffers with the exact liveness-driven greedy allocator
//! `compile` uses, so the arena always fits the rewritten step list and no
//! separate repacking pass is needed. Each pass *individually* yields a
//! plan that is `verify`-clean and produces bit-identical logits (the
//! epilogue kernels share their arithmetic with the standalone step
//! kernels — see [`crate::graph::apply_epilogue`]). `tests/plan_optimize.rs`
//! pins both properties per pass and for the full pipeline.

use crate::graph::{Epilogue, ExecutionPlan, PlanStep, PostOp, StepOp};
use crate::verify::PlanParts;

/// One optimizer pass. Passes are independent: each maps a valid plan to a
/// valid plan, in any order — [`optimize`] runs them in the canonical
/// fuse → copy-elim → DVE order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptPass {
    /// Fuse elementwise `Activation`/`Requantize` consumers into their
    /// producing `Conv`/`Gemm` step.
    FuseEpilogues,
    /// Remove `Flatten`/identity-reshape copies by letting readers take
    /// the source buffer directly.
    EliminateCopies,
    /// Drop steps whose results never reach the output; renumber values
    /// densely.
    EliminateDeadValues,
}

impl OptPass {
    /// Stable kebab-case pass name (bench JSON keys, logs).
    pub fn name(&self) -> &'static str {
        match self {
            OptPass::FuseEpilogues => "fuse-epilogues",
            OptPass::EliminateCopies => "eliminate-copies",
            OptPass::EliminateDeadValues => "eliminate-dead-values",
        }
    }
}

/// The canonical full pipeline, in application order.
pub const ALL_PASSES: [OptPass; 3] = [
    OptPass::FuseEpilogues,
    OptPass::EliminateCopies,
    OptPass::EliminateDeadValues,
];

/// Plan measurements after one pass, as [`optimize_with_stats`] reports
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// [`OptPass::name`] of the pass that just ran.
    pub pass: &'static str,
    /// Step count after the pass.
    pub plan_steps: usize,
    /// Arena high-water mark after the pass, in f32 elements (sum of
    /// `buffer_sizes`).
    pub high_water_elems: usize,
}

/// Arena high-water mark of a plan in f32 elements.
pub fn high_water_elems(plan: &ExecutionPlan) -> usize {
    plan.buffer_sizes().iter().sum()
}

/// Runs the full canonical pass pipeline. Infallible by construction: a
/// pass that cannot apply leaves the plan unchanged, and an internal
/// inconsistency falls back to the input plan (and panics under
/// `debug_assertions` — the per-pass test suite keeps this path dead).
pub fn optimize(plan: &ExecutionPlan) -> ExecutionPlan {
    optimize_with_stats(plan).0
}

/// [`optimize`], also reporting per-pass step-count / high-water stats.
pub fn optimize_with_stats(plan: &ExecutionPlan) -> (ExecutionPlan, Vec<PassStats>) {
    let mut current = plan.clone();
    let mut stats = Vec::with_capacity(ALL_PASSES.len());
    for pass in ALL_PASSES {
        current = run_pass(&current, pass);
        stats.push(PassStats {
            pass: pass.name(),
            plan_steps: current.steps().len(),
            high_water_elems: high_water_elems(&current),
        });
    }
    (current, stats)
}

/// Runs one pass. Same fallback contract as [`optimize`].
pub fn run_pass(plan: &ExecutionPlan, pass: OptPass) -> ExecutionPlan {
    match run_pass_parts(PlanParts::from(plan), pass) {
        Ok(optimized) => optimized,
        Err(e) => {
            debug_assert!(false, "optimizer pass {} broke the plan: {e}", pass.name());
            plan.clone()
        }
    }
}

/// Runs one pass over raw plan parts (the verifier's borrowed view),
/// yielding a freshly buffer-allocated plan.
///
/// # Errors
///
/// The [`ExecutionPlan::from_parts`] re-validation message when the
/// rewritten step list violates a plan invariant — which the pass
/// algorithms are designed (and tested) never to do on a verify-clean
/// input.
pub fn run_pass_parts(parts: PlanParts<'_>, pass: OptPass) -> Result<ExecutionPlan, String> {
    let mut plan = ValuePlan::from_parts(&parts);
    match pass {
        OptPass::FuseEpilogues => fuse_epilogues(&mut plan),
        OptPass::EliminateCopies => eliminate_copies(&mut plan),
        OptPass::EliminateDeadValues => eliminate_dead_values(&mut plan),
    }
    plan.allocate()
}

// ---------------------------------------------------------------------------
// Value-level working form
// ---------------------------------------------------------------------------

/// One step stripped of buffer assignments — pure SSA dataflow.
#[derive(Debug, Clone)]
struct ValueStep {
    op: StepOp,
    dims: Vec<usize>,
    value: usize,
    src_values: Vec<usize>,
}

/// A plan at the SSA-value level. Passes rewrite this form; buffers are
/// re-derived afterwards by [`ValuePlan::allocate`], so no pass ever has
/// to reason about arena recycling.
struct ValuePlan {
    input_dims: Vec<usize>,
    output_dims: Vec<usize>,
    steps: Vec<ValueStep>,
    /// The SSA value the plan's output buffer holds at the end.
    output_value: usize,
}

impl ValuePlan {
    fn from_parts(parts: &PlanParts<'_>) -> Self {
        let output_value = parts
            .steps
            .iter()
            .rev()
            .find(|s| s.dst == parts.output_buffer)
            .map(|s| s.value)
            .unwrap_or(0);
        ValuePlan {
            input_dims: parts.input_dims.to_vec(),
            output_dims: parts.output_dims.to_vec(),
            steps: parts
                .steps
                .iter()
                .map(|s| ValueStep {
                    op: s.op,
                    dims: s.dims.clone(),
                    value: s.value,
                    src_values: s.src_values.clone(),
                })
                .collect(),
            output_value,
        }
    }

    /// Uses per value across all steps.
    fn use_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.max_value() + 1];
        for step in &self.steps {
            for &v in &step.src_values {
                counts[v] += 1;
            }
        }
        counts
    }

    fn max_value(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| s.src_values.iter().chain(std::iter::once(&s.value)))
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.output_value)
    }

    /// Dims of each SSA value (input value 0 has the input dims).
    fn dims_of(&self) -> Vec<Option<Vec<usize>>> {
        let mut dims = vec![None; self.max_value() + 1];
        dims[0] = Some(self.input_dims.clone());
        for step in &self.steps {
            dims[step.value] = Some(step.dims.clone());
        }
        dims
    }

    /// Greedy liveness-driven buffer assignment — the same allocator
    /// `ExecutionPlan::compile` runs (allocate the output before freeing
    /// inputs, reuse the largest free slot, free a double-read value
    /// once), finalized through `from_parts` so every structural invariant
    /// is re-proven.
    fn allocate(self) -> Result<ExecutionPlan, String> {
        let dims_of = self.dims_of();
        let n = dims_of.len();
        let mut last_use = vec![0usize; n];
        for (i, step) in self.steps.iter().enumerate() {
            for &v in &step.src_values {
                last_use[v] = last_use[v].max(i);
            }
        }
        last_use[self.output_value] = usize::MAX;

        let mut buffer_of = vec![usize::MAX; n];
        let mut buffer_sizes: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut alloc = |value: usize, free: &mut Vec<usize>| -> Result<usize, String> {
            let len = dims_of[value]
                .as_ref()
                .ok_or_else(|| format!("value {value} read before any definition"))?
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .ok_or("element count overflow")?;
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
            buffer_sizes[slot] = buffer_sizes[slot].max(len);
            Ok(slot)
        };
        buffer_of[0] = alloc(0, &mut free)?;
        let mut steps = Vec::with_capacity(self.steps.len());
        for (i, step) in self.steps.iter().enumerate() {
            let dst = alloc(step.value, &mut free)?;
            buffer_of[step.value] = dst;
            let srcs = step
                .src_values
                .iter()
                .map(|&v| {
                    let b = buffer_of[v];
                    if b == usize::MAX {
                        return Err(format!("value {v} read before any definition"));
                    }
                    Ok(b)
                })
                .collect::<Result<Vec<_>, String>>()?;
            steps.push(PlanStep {
                op: step.op,
                srcs,
                dst,
                dims: step.dims.clone(),
                value: step.value,
                src_values: step.src_values.clone(),
            });
            for (slot, &v) in step.src_values.iter().enumerate() {
                if last_use[v] == i && !step.src_values[..slot].contains(&v) {
                    free.push(buffer_of[v]);
                }
            }
        }
        let output_buffer = buffer_of[self.output_value];
        if output_buffer == usize::MAX {
            return Err(format!(
                "output value {} is never defined",
                self.output_value
            ));
        }
        ExecutionPlan::from_parts(
            self.input_dims,
            self.output_dims,
            steps,
            buffer_sizes,
            buffer_of[0],
            output_buffer,
        )
    }
}

// ---------------------------------------------------------------------------
// Pass 1: epilogue fusion
// ---------------------------------------------------------------------------

/// `true` when `op` can absorb another post-op, and the fused/fusable
/// layer index.
fn fusable(op: &StepOp) -> bool {
    match op {
        StepOp::Conv { .. } | StepOp::Gemm { .. } => true,
        StepOp::FusedConv { epilogue, .. } | StepOp::FusedGemm { epilogue, .. } => {
            epilogue.has_room()
        }
        _ => false,
    }
}

/// The post-op an elementwise step fuses as, if it is one.
fn as_post_op(op: &StepOp) -> Option<PostOp> {
    match op {
        StepOp::Activation(kind) => Some(PostOp::Activation(*kind)),
        StepOp::Requantize => Some(PostOp::Requantize),
        _ => None,
    }
}

/// Folds single-use elementwise consumers into their producing Conv/Gemm.
/// Iterates to fixpoint so a `Conv → Activation → Requantize` chain fuses
/// completely (first the activation, then the requantize on the already
/// fused step).
fn fuse_epilogues(plan: &mut ValuePlan) {
    loop {
        let counts = plan.use_counts();
        // Find a consumer step j whose single producer i can absorb it.
        let pair = plan.steps.iter().enumerate().find_map(|(j, consumer)| {
            let post = as_post_op(&consumer.op)?;
            let src = consumer.src_values[0];
            // The producer's value must die at this consumer: exactly one
            // use, and it is not the plan output.
            if counts[src] != 1 || src == plan.output_value {
                return None;
            }
            let i = plan.steps.iter().position(|s| s.value == src)?;
            // `i < j` always holds on a topologically ordered plan; guard
            // anyway so `remove(j)` can never shift the producer index.
            (i < j && fusable(&plan.steps[i].op)).then_some((i, j, post))
        });
        let Some((i, j, post)) = pair else { break };
        let consumer = plan.steps.remove(j);
        let producer = &mut plan.steps[i];
        producer.op = match producer.op {
            StepOp::Conv { layer } => {
                let mut epilogue = Epilogue::new();
                epilogue.push(post);
                StepOp::FusedConv { layer, epilogue }
            }
            StepOp::Gemm { layer } => {
                let mut epilogue = Epilogue::new();
                epilogue.push(post);
                StepOp::FusedGemm { layer, epilogue }
            }
            StepOp::FusedConv {
                layer,
                mut epilogue,
            } => {
                epilogue.push(post);
                StepOp::FusedConv { layer, epilogue }
            }
            StepOp::FusedGemm {
                layer,
                mut epilogue,
            } => {
                epilogue.push(post);
                StepOp::FusedGemm { layer, epilogue }
            }
            other => other, // unreachable: `fusable` gated this
        };
        // The fused step now defines what the consumer defined. Elementwise
        // ops preserve dims, so the producer's dims already match.
        producer.value = consumer.value;
    }
}

// ---------------------------------------------------------------------------
// Pass 2: copy / reshape elimination
// ---------------------------------------------------------------------------

/// Removes `Flatten` steps whose readers can take the un-flattened source
/// directly: GEMM readers become `FusedGemm` (which reads its source
/// flat), and identity reshapes (source already has the target dims)
/// forward to any reader. Iterates to fixpoint for flatten-of-flatten
/// chains.
fn eliminate_copies(plan: &mut ValuePlan) {
    loop {
        let dims_of = plan.dims_of();
        let candidate = plan.steps.iter().enumerate().find_map(|(f, step)| {
            if !matches!(step.op, StepOp::Flatten) || step.value == plan.output_value {
                return None;
            }
            let src_dims = dims_of[step.src_values[0]].as_deref()?;
            let identity = src_dims == step.dims;
            let all_gemm = plan
                .steps
                .iter()
                .filter(|r| r.src_values.contains(&step.value))
                .all(|r| matches!(r.op, StepOp::Gemm { .. } | StepOp::FusedGemm { .. }));
            (identity || all_gemm).then_some(f)
        });
        let Some(f) = candidate else { break };
        let flatten = plan.steps.remove(f);
        let (dead_value, fwd_value) = (flatten.value, flatten.src_values[0]);
        for reader in &mut plan.steps {
            for (slot, v) in reader.src_values.iter_mut().enumerate() {
                if *v == dead_value {
                    *v = fwd_value;
                    // A GEMM whose input lost its flatten must read flat.
                    if slot == 0 {
                        if let StepOp::Gemm { layer } = reader.op {
                            reader.op = StepOp::FusedGemm {
                                layer,
                                epilogue: Epilogue::new(),
                            };
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 3: dead-value elimination
// ---------------------------------------------------------------------------

/// Drops steps whose results never reach the output value, then renumbers
/// the surviving SSA values densely (input stays 0; step `k` defines value
/// `k + 1`) so downstream consumers see a compact value space.
fn eliminate_dead_values(plan: &mut ValuePlan) {
    let mut needed = vec![false; plan.max_value() + 1];
    needed[plan.output_value] = true;
    for step in plan.steps.iter().rev() {
        if needed[step.value] {
            for &v in &step.src_values {
                needed[v] = true;
            }
        }
    }
    plan.steps.retain(|s| needed[s.value]);

    let mut remap = vec![usize::MAX; plan.max_value() + 1];
    remap[0] = 0;
    for (k, step) in plan.steps.iter().enumerate() {
        remap[step.value] = k + 1;
    }
    for step in &mut plan.steps {
        step.value = remap[step.value];
        for v in &mut step.src_values {
            *v = remap[*v];
        }
    }
    plan.output_value = remap[plan.output_value];
}
