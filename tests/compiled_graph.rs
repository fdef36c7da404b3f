//! Integration tests for the compiled graph IR: one `CompiledModel` must
//! drive all three consumers coherently —
//!
//! * `BatchEngine::run_plan_batch` produces logits from raw images,
//!   bit-identical to a hand-chained per-layer reference that executes the
//!   same plan through the interpreted single-image kernels,
//! * the FPGA target schedules cycle summaries from the plan's exact
//!   compile-time shapes (agreeing with the descriptor-derived estimate
//!   where that estimate is exact), and
//! * `export_compiled`/`import_compiled` round-trip plan + packed weights
//!   into a runnable artifact with identical logits.
//!
//! Plus the planner property: buffer recycling never aliases two live
//! values (proptest over random model configurations).

mod common;

use mixmatch::nn::layers::{Linear, Relu};
use mixmatch::nn::lower::{ActKind, PoolKind};
use mixmatch::nn::models::{
    MobileNetConfig, MobileNetV2, ResNet, ResNetConfig, YoloConfig, YoloDetector,
};
use mixmatch::nn::module::Sequential;
use mixmatch::prelude::*;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::export::{export_compiled, import_compiled};
use mixmatch::quant::graph::{Epilogue, PostOp, StepOp};
use mixmatch::quant::integer::ActQuantizer;
use mixmatch::quant::pipeline::DeployForm;
use mixmatch::tensor::im2col::ConvGeometry;
use mixmatch::tensor::{Tensor, TensorRng};
use proptest::prelude::*;

fn quantized_resnet(input_hw: usize) -> CompiledModel {
    let mut rng = TensorRng::seed_from(11);
    let mut model = ResNet::new(ResNetConfig::mini(10).with_act_bits(4), &mut rng);
    QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z045).with_input_size(input_hw))
        .quantize(&mut model)
        .expect("quantize resnet-mini")
}

/// Executes `plan` through the interpreted per-layer kernels
/// (`forward_image` / `matvec`) and naive step implementations, holding
/// every SSA value in its own tensor — the aliasing-free reference the
/// arena-based engine is pinned against.
fn reference_forward(model: &QuantizedModel, plan: &ExecutionPlan, image: &Tensor) -> Tensor {
    let act = *model.act_quantizer();
    // Value ids may be sparse on optimized plans (fusion collapses steps
    // without renumbering) — size the table by the largest id in use.
    let max_value = plan
        .steps()
        .iter()
        .flat_map(|s| s.src_values.iter().chain(std::iter::once(&s.value)))
        .copied()
        .max()
        .unwrap_or(0);
    let mut values: Vec<Option<Tensor>> = vec![None; max_value + 1];
    values[0] = Some(image.clone());
    // Naive elementwise twins of the fused-epilogue post-ops, kept
    // independent of `graph::apply_epilogue` so the parity tests pin the
    // fused arithmetic against a second implementation.
    let apply_act = |kind: ActKind, t: &Tensor| {
        t.map(|x| match kind {
            ActKind::Relu => x.max(0.0),
            ActKind::Relu6 => x.clamp(0.0, 6.0),
            ActKind::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.1 * x
                }
            }
        })
    };
    let apply_requant = |t: &Tensor| {
        let dq = act.dequantize(&act.quantize(t.as_slice()));
        Tensor::from_vec(dq, t.dims()).expect("same shape")
    };
    let apply_epilogue = |epilogue: &Epilogue, mut t: Tensor| {
        for op in epilogue.iter() {
            t = match op {
                PostOp::Activation(kind) => apply_act(kind, &t),
                PostOp::Requantize => apply_requant(&t),
            };
        }
        t
    };
    for step in plan.steps() {
        let input = values[step.src_values[0]].clone().expect("value defined");
        let out = match step.op {
            StepOp::Conv { layer } => match &model.layers()[layer].form {
                DeployForm::Conv(conv) => conv.forward_image(&input),
                DeployForm::Matrix(_) => panic!("conv step on matrix layer"),
            },
            StepOp::Gemm { layer } => {
                let (y, _) = model.layers()[layer]
                    .matrix()
                    .matvec(&act.quantize(input.as_slice()), &act);
                Tensor::from_vec(y, &step.dims).expect("gemm output shape")
            }
            StepOp::Pool(kind) => {
                let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
                let mut out = Tensor::zeros(&step.dims);
                match kind {
                    PoolKind::GlobalAvg => {
                        for ch in 0..c {
                            let sum: f32 =
                                input.as_slice()[ch * h * w..(ch + 1) * h * w].iter().sum();
                            out.as_mut_slice()[ch] = sum * (1.0 / (h * w) as f32);
                        }
                    }
                    PoolKind::Max { window: k } => {
                        let (oh, ow) = (h / k, w / k);
                        for ch in 0..c {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let mut best = f32::NEG_INFINITY;
                                    for dy in 0..k {
                                        for dx in 0..k {
                                            best = best.max(
                                                input.as_slice()
                                                    [(ch * h + oy * k + dy) * w + ox * k + dx],
                                            );
                                        }
                                    }
                                    out.as_mut_slice()[(ch * oh + oy) * ow + ox] = best;
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
                                            sum += input.as_slice()
                                                [(ch * h + oy * k + dy) * w + ox * k + dx];
                                        }
                                    }
                                    out.as_mut_slice()[(ch * oh + oy) * ow + ox] = sum * inv;
                                }
                            }
                        }
                    }
                }
                out
            }
            StepOp::ResidualAdd => {
                let rhs = values[step.src_values[1]].clone().expect("value defined");
                &input + &rhs
            }
            StepOp::Activation(kind) => apply_act(kind, &input),
            StepOp::Flatten => input.reshape(&step.dims),
            StepOp::Requantize => apply_requant(&input),
            StepOp::FusedConv { layer, epilogue } => {
                let base = match &model.layers()[layer].form {
                    DeployForm::Conv(conv) => conv.forward_image(&input),
                    DeployForm::Matrix(_) => panic!("fused conv step on matrix layer"),
                };
                apply_epilogue(&epilogue, base)
            }
            StepOp::FusedGemm { layer, epilogue } => {
                // Fused GEMM reads its source flat (the optimizer may have
                // folded away a Flatten): quantize the raw slice.
                let (y, _) = model.layers()[layer]
                    .matrix()
                    .matvec(&act.quantize(input.as_slice()), &act);
                let base = Tensor::from_vec(y, &step.dims).expect("gemm output shape");
                apply_epilogue(&epilogue, base)
            }
        };
        assert_eq!(out.dims(), &step.dims[..], "compiled shape disagrees");
        values[step.value] = Some(out);
    }
    // The output is whatever value the plan's output buffer holds at the
    // end (the last step on optimized plans, but derive it properly).
    let output_value = plan
        .steps()
        .iter()
        .rev()
        .find(|s| s.dst == plan.output_buffer())
        .map(|s| s.value)
        .unwrap_or(0);
    values
        .into_iter()
        .nth(output_value)
        .flatten()
        .expect("plan defines its output")
}

/// The tentpole acceptance property: end-to-end logits from raw images,
/// bit-identical to the hand-chained per-layer reference, at 1 / 2 / host
/// worker threads.
#[test]
fn run_plan_batch_matches_hand_chained_reference_on_pipeline_resnet() {
    let compiled = quantized_resnet(16);
    let plan = compiled.plan().expect("resnet lowers to a plan");
    assert_eq!(plan.input_dims(), &[3, 16, 16]);
    assert_eq!(plan.output_dims(), &[10]);
    // Residual blocks + downsample shortcuts are in the plan.
    assert!(plan
        .steps()
        .iter()
        .any(|s| matches!(s.op, StepOp::ResidualAdd)));
    let mut rng = TensorRng::seed_from(12);
    let images: Vec<Tensor> = (0..5)
        .map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng))
        .collect();
    let expected: Vec<Tensor> = images
        .iter()
        .map(|img| reference_forward(&compiled, plan, img))
        .collect();
    let host = BatchEngine::new().threads();
    for threads in [1, 2, host] {
        let engine = BatchEngine::with_threads(threads);
        let run = engine
            .run_plan_batch(&compiled, &images)
            .expect("plan batch");
        assert_eq!(run.outputs.len(), images.len());
        for (out, want) in run.outputs.iter().zip(&expected) {
            assert_eq!(out.dims(), &[10]);
            assert_eq!(out.as_slice(), want.as_slice(), "threads {threads}");
        }
        assert!(run.ops.mults + run.ops.shifts > 0, "GEMM census missing");
    }
}

/// Max-pool and LeakyReLU steps (the YOLO path) run bit-identically too,
/// and the output is the raw prediction map, not a logits vector.
#[test]
fn run_plan_batch_matches_reference_on_yolo_detector() {
    let mut rng = TensorRng::seed_from(13);
    let mut model = YoloDetector::new(YoloConfig::mini(3), &mut rng);
    let compiled = QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z020))
        .with_input_shape(&[3, 32, 32])
        .quantize(&mut model)
        .expect("quantize yolo-mini");
    let plan = compiled.plan().expect("yolo lowers to a plan");
    assert_eq!(plan.output_dims(), &[8, 4, 4]); // 5+3 channels, 32 / 2^3 grid
    let images: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect();
    let engine = BatchEngine::with_threads(2);
    let run = engine
        .run_plan_batch(&compiled, &images)
        .expect("plan batch");
    for (img, out) in images.iter().zip(&run.outputs) {
        let want = reference_forward(&compiled, plan, img);
        assert_eq!(out.as_slice(), want.as_slice());
    }
}

/// A dense `Sequential` MLP lowers through the generic per-layer hook and
/// serves vectors end-to-end.
#[test]
fn sequential_mlp_lowers_and_serves_end_to_end() {
    let mut rng = TensorRng::seed_from(14);
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc1", 12, 20, true, &mut rng));
    model.push(Relu::new());
    model.push(Linear::with_name("fc2", 20, 4, false, &mut rng));
    let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
        .quantize(&mut model)
        .expect("quantize mlp");
    let plan = compiled.plan().expect("mlp lowers to a plan");
    assert_eq!(plan.input_dims(), &[12]);
    assert_eq!(plan.output_dims(), &[4]);
    let inputs: Vec<Tensor> = (0..4)
        .map(|_| Tensor::rand_uniform(&[12], 0.0, 1.0, &mut rng))
        .collect();
    let engine = BatchEngine::with_threads(2);
    let run = engine.run_plan_batch(&compiled, &inputs).expect("batch");
    for (x, out) in inputs.iter().zip(&run.outputs) {
        let want = reference_forward(&compiled, plan, x);
        assert_eq!(out.as_slice(), want.as_slice());
    }
    // Wrong input shape is a typed error, not a panic.
    assert!(matches!(
        engine.run_plan_batch(&compiled, &[Tensor::zeros(&[13])]),
        Err(QuantError::ShapeMismatch { .. })
    ));
}

/// Acceptance: the cycle simulator schedules from plan steps. Where the
/// descriptor estimate is already exact (MobileNet: every spatial change
/// is a strided conv, no pooling between layers, no projection shortcuts),
/// the plan-scheduled summary must equal the layer-derived one — same
/// artifact, same numbers.
#[test]
fn plan_scheduled_cycle_summary_matches_layer_derived_where_exact() {
    let mut rng = TensorRng::seed_from(15);
    let mut model = MobileNetV2::new(MobileNetConfig::mini(10), &mut rng);
    let target = FpgaTarget::new(FpgaDevice::XC7Z045).with_input_size(16);
    let compiled = QuantPipeline::for_device(target)
        .quantize(&mut model)
        .expect("quantize mobilenet-mini");
    let plan = compiled.plan().expect("mobilenet lowers to a plan");
    assert_eq!(plan.input_dims(), &[3, 16, 16]);
    for batch in [1usize, 8] {
        let from_plan = compiled.summarize_batched(batch).expect("plan summary");
        let from_layers = compiled.model().summarize_batched(batch).expect("layers");
        assert_eq!(from_plan, from_layers, "batch {batch}");
    }
    // The report's hardware block comes from the same plan numbers.
    let report = compiled.report();
    assert_eq!(report.hardware, compiled.summarize_batched(1));
}

/// Acceptance: export serializes plan + packed weights as one artifact
/// that round-trips into a runnable model with identical logits.
#[test]
fn export_round_trips_plan_and_weights_into_identical_logits() {
    let compiled = quantized_resnet(8);
    let bytes = export_compiled(&compiled).expect("export");
    assert!(!bytes.is_empty());
    let restored = import_compiled(&bytes).expect("import");
    assert_eq!(restored.plan(), compiled.plan());
    assert_eq!(restored.layers().len(), compiled.layers().len());
    assert_eq!(restored.packed_bytes(), compiled.packed_bytes());
    for (a, b) in compiled.layers().iter().zip(restored.layers()) {
        assert_eq!(a.desc, b.desc);
        assert_eq!(a.report.rows, b.report.rows, "{}", a.desc.name);
    }
    let mut rng = TensorRng::seed_from(16);
    let images: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng))
        .collect();
    let engine = BatchEngine::with_threads(2);
    let original = engine.run_plan_batch(&compiled, &images).expect("original");
    let roundtrip = engine.run_plan_batch(&restored, &images).expect("restored");
    for (a, b) in original.outputs.iter().zip(&roundtrip.outputs) {
        assert_eq!(a.as_slice(), b.as_slice());
    }
    assert_eq!(original.ops, roundtrip.ops);
    // Corruption fails typed, never panics.
    assert!(matches!(
        import_compiled(&bytes[..bytes.len() - 3]),
        Err(QuantError::Artifact { .. })
    ));
    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        import_compiled(&bad_magic),
        Err(QuantError::Artifact { .. })
    ));
}

#[test]
fn compiling_for_a_map_smaller_than_the_kernel_fails_typed() {
    // A 3×3 unpadded conv cannot read a 2×2 map: compile refuses it with a
    // typed error instead of panicking in the geometry arithmetic.
    let mut rng = TensorRng::seed_from(53);
    let compiled = common::one_conv(
        ConvGeometry::new(3, 4, 3, 1, 0),
        MsqPolicy::msq_half(),
        ActQuantizer::new(4, 1.0),
        8,
        &mut rng,
    );
    assert!(matches!(
        compiled.compile(&[3, 2, 2]),
        Err(QuantError::Geometry { .. })
    ));
}

/// Walks a plan asserting the planner's aliasing contract: every source
/// buffer still holds the SSA value the step expects (no live value was
/// clobbered by recycling), and no step writes onto its own input.
fn assert_no_live_aliasing(plan: &ExecutionPlan) {
    let mut holds: Vec<Option<usize>> = vec![None; plan.buffer_count()];
    holds[plan.input_buffer()] = Some(0);
    for (i, step) in plan.steps().iter().enumerate() {
        for (&buf, &value) in step.srcs.iter().zip(&step.src_values) {
            assert_eq!(
                holds[buf],
                Some(value),
                "step {i}: buffer {buf} was recycled while value {value} was live"
            );
        }
        assert!(
            !step.srcs.contains(&step.dst),
            "step {i}: output aliases an input"
        );
        holds[step.dst] = Some(step.value);
    }
    assert!(holds[plan.output_buffer()].is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite property: across random ResNet shapes (and input sizes),
    /// buffer planning never aliases two live values, and recycling
    /// actually compresses the buffer set below the SSA value count.
    #[test]
    fn resnet_buffer_planning_never_aliases_live_buffers(
        base_width in 2usize..5,
        stages in proptest::collection::vec(1usize..3, 1..4),
        act_flag in 0usize..2,
        edge_pow in 3usize..5,
    ) {
        let mut rng = TensorRng::seed_from(17);
        let config = ResNetConfig {
            in_channels: 3,
            base_width,
            blocks_per_stage: stages,
            num_classes: 4,
            act_bits: (act_flag == 1).then_some(4),
        };
        let model = ResNet::new(config, &mut rng);
        let graph = model.lower().expect("resnet lowers");
        let descs = model.quantizable_layers();
        let edge = 1usize << edge_pow;
        let plan = ExecutionPlan::compile(&graph, &descs, &[3, edge, edge])
            .expect("compile");
        assert_no_live_aliasing(&plan);
        prop_assert!(plan.buffer_count() <= 4,
            "straight-line residual nets plan in ≤4 buffers, got {}",
            plan.buffer_count());
        prop_assert!(plan.buffer_count() < graph.values());
    }

    /// The same property over dense MLP pipelines lowered through the
    /// generic `Sequential` hook.
    #[test]
    fn mlp_buffer_planning_never_aliases_live_buffers(
        widths in proptest::collection::vec(2usize..24, 2..6),
    ) {
        let mut rng = TensorRng::seed_from(18);
        let mut model = Sequential::new();
        for (i, pair) in widths.windows(2).enumerate() {
            model.push(Linear::with_name(&format!("fc{i}"), pair[0], pair[1], true, &mut rng));
            model.push(Relu::new());
        }
        let graph = QuantizableModel::lower(&model).expect("mlp lowers");
        let descs = model.quantizable_layers();
        let plan = ExecutionPlan::compile(&graph, &descs, &[widths[0]]).expect("compile");
        assert_no_live_aliasing(&plan);
        prop_assert_eq!(plan.buffer_count(), 2);
    }
}
