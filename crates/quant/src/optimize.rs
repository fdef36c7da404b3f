//! Plan optimizer: a pass pipeline that rewrites an [`ExecutionPlan`]
//! into a cheaper, bit-identical twin.
//!
//! The compiled IR out of [`ExecutionPlan::compile`] is a faithful
//! transcription of the lowered layer list: every
//! `Conv/Gemm → Activation → Requantize` chain makes one full pass over
//! its output *per step*, and every `Flatten` burns a ping-pong copy whose
//! only effect is a shape change `Tensor::reset_to` could absorb. This
//! module is the optimizer stage between lowering and plan emission —
//! independent passes over the plan's SSA-value form:
//!
//! 1. **[`OptPass::FuseEpilogues`]** — folds elementwise
//!    `Activation`/`Requantize` consumers into the producing
//!    `Conv`/`Gemm`, emitting [`StepOp::FusedConv`]/[`StepOp::FusedGemm`]
//!    steps whose epilogue the engine applies in place: one pass over the
//!    output instead of up to three.
//! 2. **[`OptPass::EliminateCopies`]** — removes `Flatten` copies whose
//!    readers can take the un-flattened buffer directly (`FusedGemm` reads
//!    its source flat), plus identity reshapes.
//!
//! No pass removes dead steps: every plan is verified where it is built
//! ([`ExecutionPlan::from_parts`]), and the verifier's `dead-step` rule
//! refuses a plan with a step whose result never reaches the output. So
//! no dead step reaches the optimizer, and neither pass creates one.
//!
//! Every pass transforms the plan at the SSA-value level and then
//! re-allocates buffers with the liveness-driven allocator `compile` uses,
//! so the arena always fits the rewritten step list and no separate
//! repacking pass is needed. Each pass *individually* yields a plan that is
//! `verify`-clean and produces bit-identical logits (the epilogue kernels
//! share their arithmetic with the standalone step kernels — see
//! [`crate::graph::apply_epilogue`]). `tests/plan_optimize.rs` pins both
//! properties per pass and for the full pipeline.

use crate::graph::{Epilogue, ExecutionPlan, PostOp, StepOp, ValuePlan, ValueStep};
use crate::verify::PlanParts;

/// One optimizer pass. Passes are independent: each maps a valid plan to a
/// valid plan, in any order — [`optimize`] runs them in the canonical
/// fuse → copy-elim order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptPass {
    /// Fuse elementwise `Activation`/`Requantize` consumers into their
    /// producing `Conv`/`Gemm` step.
    FuseEpilogues,
    /// Remove `Flatten`/identity-reshape copies by letting readers take
    /// the source buffer directly.
    EliminateCopies,
}

impl OptPass {
    /// Stable kebab-case pass name (bench JSON keys, logs).
    pub fn name(&self) -> &'static str {
        match self {
            OptPass::FuseEpilogues => "fuse-epilogues",
            OptPass::EliminateCopies => "eliminate-copies",
        }
    }
}

/// The canonical full pipeline, in application order.
pub const ALL_PASSES: [OptPass; 2] = [OptPass::FuseEpilogues, OptPass::EliminateCopies];

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

/// Runs one pass. Same fallback contract as [`optimize`]: the rewritten
/// plan is verified as it is built, and one that fails yields the input.
pub fn run_pass(plan: &ExecutionPlan, pass: OptPass) -> ExecutionPlan {
    let mut values = value_plan(plan);
    match pass {
        OptPass::FuseEpilogues => fuse_epilogues(&mut values),
        OptPass::EliminateCopies => eliminate_copies(&mut values),
    }
    match values.allocate(None) {
        Ok(optimized) => optimized,
        Err(report) => {
            debug_assert!(
                false,
                "optimizer pass {} broke the plan: {report}",
                pass.name()
            );
            plan.clone()
        }
    }
}

/// `plan` stripped of its buffer assignments.
fn value_plan(plan: &ExecutionPlan) -> ValuePlan {
    ValuePlan {
        input_dims: plan.input_dims().to_vec(),
        output_dims: plan.output_dims().to_vec(),
        steps: plan
            .steps()
            .iter()
            .map(|s| ValueStep {
                op: s.op,
                dims: s.dims.clone(),
                value: s.value,
                src_values: s.src_values.clone(),
            })
            .collect(),
        output_value: PlanParts::from(plan).output_value().unwrap_or(0),
    }
}

/// Uses per value across all steps.
fn use_counts(plan: &ValuePlan) -> Vec<usize> {
    let mut counts = vec![0usize; plan.max_value() + 1];
    for step in &plan.steps {
        for &v in &step.src_values {
            counts[v] += 1;
        }
    }
    counts
}

/// Dims of each SSA value (input value 0 has the input dims).
fn dims_of(plan: &ValuePlan) -> Vec<Option<&[usize]>> {
    let mut dims = vec![None; plan.max_value() + 1];
    dims[0] = Some(&plan.input_dims[..]);
    for step in &plan.steps {
        dims[step.value] = Some(&step.dims[..]);
    }
    dims
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
        let counts = use_counts(plan);
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
            StepOp::Conv { layer } => StepOp::FusedConv {
                layer,
                epilogue: Epilogue::new(),
            },
            StepOp::Gemm { layer } => StepOp::FusedGemm {
                layer,
                epilogue: Epilogue::new(),
            },
            fused => fused,
        };
        // `fusable` gated this: the producer is now a fused step with room.
        if let StepOp::FusedConv { epilogue, .. } | StepOp::FusedGemm { epilogue, .. } =
            &mut producer.op
        {
            epilogue.push(post);
        }
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
        let dims_of = dims_of(plan);
        let candidate = plan.steps.iter().enumerate().find_map(|(f, step)| {
            if !matches!(step.op, StepOp::Flatten) || step.value == plan.output_value {
                return None;
            }
            let src_dims = dims_of[step.src_values[0]]?;
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
