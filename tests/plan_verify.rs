//! The static plan verifier's contract, from both sides:
//!
//! * **Negative**: every rule has a minimal hand-built failing plan that
//!   fires exactly that rule id. Violations `ExecutionPlan`'s constructors
//!   refuse to produce are expressed through raw [`PlanParts`] — the
//!   verifier analyzes IR as data, so it can judge plans no constructor
//!   would sign off on (exactly what a buggy optimizer pass would hand it).
//! * **Positive**: every plan the compiler produces — fixed mini models and
//!   proptest-randomized ResNet/MLP/YOLO configurations — verifies with
//!   zero diagnostics, and so does a plan round-tripped through the `MMCM`
//!   artifact format.
//! * **Boundaries**: `ModelServer::load` and `ExecutionPlan::from_parts`
//!   refuse what the verifier refuses.

use mixmatch::nn::layers::{Linear, Relu};
use mixmatch::nn::lower::{ActKind, PoolKind};
use mixmatch::nn::models::{
    MobileNetConfig, MobileNetV2, ResNet, ResNetConfig, YoloConfig, YoloDetector,
};
use mixmatch::nn::module::Sequential;
use mixmatch::prelude::*;
use mixmatch::quant::export::{export_compiled, import_compiled};
use mixmatch::quant::graph::{Epilogue, PlanStep, PostOp, StepOp};
use mixmatch::quant::verify::{self, PlanParts, Rule, VerifyReport};
use mixmatch::serve::error::ServeError;
use mixmatch::serve::server::ModelServer;
use mixmatch::tensor::im2col::ConvGeometry;
use mixmatch::tensor::TensorRng;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A hand-buildable plan: the same fields `ExecutionPlan::from_parts`
/// takes, without the verifier run `from_parts` ends in.
struct RawPlan {
    input_dims: Vec<usize>,
    output_dims: Vec<usize>,
    steps: Vec<PlanStep>,
    buffer_sizes: Vec<usize>,
    input_buffer: usize,
    output_buffer: usize,
}

impl RawPlan {
    fn verify(&self, layers: Option<&[QuantLayerDesc]>) -> VerifyReport {
        verify::verify_parts(
            &PlanParts {
                input_dims: &self.input_dims,
                output_dims: &self.output_dims,
                steps: &self.steps,
                buffer_sizes: &self.buffer_sizes,
                input_buffer: self.input_buffer,
                output_buffer: self.output_buffer,
            },
            layers,
        )
    }
}

fn step(
    op: StepOp,
    srcs: &[usize],
    src_values: &[usize],
    dst: usize,
    value: usize,
    dims: &[usize],
) -> PlanStep {
    PlanStep {
        op,
        srcs: srcs.to_vec(),
        dst,
        dims: dims.to_vec(),
        value,
        src_values: src_values.to_vec(),
    }
}

fn requantize(src: usize, src_value: usize, dst: usize, value: usize, dims: &[usize]) -> PlanStep {
    step(StepOp::Requantize, &[src], &[src_value], dst, value, dims)
}

/// Asserts `rule` fired and returns the report for further inspection.
fn assert_fires(report: &VerifyReport, rule: Rule) {
    assert!(
        report.fired(rule),
        "expected rule {} to fire, got: {report}",
        rule.id()
    );
}

// ---------------------------------------------------------------------------
// Negative: one minimal failing plan per rule
// ---------------------------------------------------------------------------

#[test]
fn structure_rejects_out_of_range_buffer() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![requantize(5, 0, 1, 1, &[4])],
        buffer_sizes: vec![4, 4],
        input_buffer: 0,
        output_buffer: 1,
    };
    let report = plan.verify(None);
    assert_fires(&report, Rule::Structure);
    // Structural breakage gates every deeper pass.
    assert_eq!(report.rules_fired(), vec![Rule::Structure], "{report}");
}

#[test]
fn structure_rejects_wrong_arity() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        // ResidualAdd takes two operands; this one names one.
        steps: vec![step(StepOp::ResidualAdd, &[0], &[0], 1, 1, &[4])],
        buffer_sizes: vec![4, 4],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&plan.verify(None), Rule::Structure);
}

#[test]
fn ssa_rejects_double_definition() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![
            requantize(0, 0, 1, 1, &[4]),
            // Second definition of value 1.
            requantize(1, 1, 0, 1, &[4]),
        ],
        buffer_sizes: vec![4, 4],
        input_buffer: 0,
        output_buffer: 0,
    };
    assert_fires(&plan.verify(None), Rule::SsaUniqueDef);
}

#[test]
fn ssa_rejects_undefined_value_use() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        // Consumes value 7, which nothing defines.
        steps: vec![requantize(0, 7, 1, 1, &[4])],
        buffer_sizes: vec![4, 4],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&plan.verify(None), Rule::SsaDefBeforeUse);
}

#[test]
fn ssa_rejects_non_topological_order() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![
            // Step 0 consumes value 2, defined only by step 1.
            requantize(1, 2, 2, 1, &[4]),
            requantize(0, 0, 1, 2, &[4]),
        ],
        buffer_sizes: vec![4, 4, 4],
        input_buffer: 0,
        output_buffer: 2,
    };
    assert_fires(&plan.verify(None), Rule::SsaTopologicalOrder);
}

#[test]
fn buffers_reject_same_step_aliasing() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![
            requantize(0, 0, 1, 1, &[4]),
            // Reads and writes buffer 1 in the same step.
            step(StepOp::Activation(ActKind::Relu), &[1], &[1], 1, 2, &[4]),
        ],
        buffer_sizes: vec![4, 4],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&plan.verify(None), Rule::BufferAlias);
}

#[test]
fn buffers_reject_recycling_a_live_value() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![
            requantize(0, 0, 1, 1, &[4]),
            // Claims buffer 0 still holds value 1; it holds the input.
            requantize(0, 1, 2, 2, &[4]),
        ],
        buffer_sizes: vec![4, 4, 4],
        input_buffer: 0,
        output_buffer: 2,
    };
    assert_fires(&plan.verify(None), Rule::BufferLiveness);
}

#[test]
fn buffers_reject_clobbering_a_value_with_readers() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![
            requantize(0, 0, 1, 1, &[4]),
            // Overwrites buffer 0 (the input) ...
            requantize(1, 1, 0, 2, &[4]),
            // ... but the input value 0 still has this reader.
            step(StepOp::ResidualAdd, &[0, 1], &[0, 1], 2, 3, &[4]),
        ],
        buffer_sizes: vec![4, 4, 4],
        input_buffer: 0,
        output_buffer: 2,
    };
    assert_fires(&plan.verify(None), Rule::BufferLiveness);
}

#[test]
fn buffers_reject_wrong_high_water_marks() {
    let over = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![requantize(0, 0, 1, 1, &[4])],
        // Buffer 1 claims 999 elements; the steps need exactly 4.
        buffer_sizes: vec![4, 999],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&over.verify(None), Rule::BufferHighWater);
    let under = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![requantize(0, 0, 1, 1, &[4])],
        buffer_sizes: vec![4, 2],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&under.verify(None), Rule::BufferHighWater);
}

#[test]
fn shapes_reject_inconsistent_elementwise_flow() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![5],
        // An activation cannot map [4] to [5].
        steps: vec![step(
            StepOp::Activation(ActKind::Relu),
            &[0],
            &[0],
            1,
            1,
            &[5],
        )],
        buffer_sizes: vec![4, 5],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&plan.verify(None), Rule::ShapeFlow);
}

#[test]
fn shapes_reject_flatten_not_writing_a_vector() {
    let plan = RawPlan {
        input_dims: vec![2, 2],
        output_dims: vec![2, 2],
        // Same element count, but a flatten writes `[count]`: here `[4]`.
        steps: vec![step(StepOp::Flatten, &[0], &[0], 1, 1, &[2, 2])],
        buffer_sizes: vec![4, 4],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&plan.verify(None), Rule::ShapeFlow);
}

#[test]
fn shapes_reject_pool_window_not_tiling_the_map() {
    let plan = RawPlan {
        input_dims: vec![2, 5, 5],
        output_dims: vec![2, 2, 2],
        // A 2×2 window does not tile a 5×5 map.
        steps: vec![step(
            StepOp::Pool(PoolKind::Max { window: 2 }),
            &[0],
            &[0],
            1,
            1,
            &[2, 2, 2],
        )],
        buffer_sizes: vec![50, 8],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&plan.verify(None), Rule::ShapeFlow);
}

#[test]
fn geom_rejects_conv_step_disagreeing_with_its_layer() {
    let geom = ConvGeometry::new(3, 4, 3, 1, 1);
    let layers = vec![QuantLayerDesc {
        name: "stem.weight".into(),
        rows: geom.out_channels,
        cols: geom.gemm_k(),
        kind: QuantLayerKind::Conv(geom),
    }];
    // 3×3 stride-1 pad-1 conv preserves H×W: the real output of [3, 8, 8]
    // is [4, 8, 8], not the [4, 4, 4] the step claims.
    let plan = RawPlan {
        input_dims: vec![3, 8, 8],
        output_dims: vec![4, 4, 4],
        steps: vec![step(
            StepOp::Conv { layer: 0 },
            &[0],
            &[0],
            1,
            1,
            &[4, 4, 4],
        )],
        buffer_sizes: vec![192, 64],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&plan.verify(Some(&layers)), Rule::GeomConv);
    // Model-independent verification takes conv outputs at face value.
    assert!(plan.verify(None).is_clean(), "{}", plan.verify(None));
    // A step naming a layer the model does not have fires too.
    let missing = RawPlan {
        steps: vec![step(
            StepOp::Conv { layer: 9 },
            &[0],
            &[0],
            1,
            1,
            &[4, 8, 8],
        )],
        output_dims: vec![4, 8, 8],
        buffer_sizes: vec![192, 256],
        ..plan
    };
    assert_fires(&missing.verify(Some(&layers)), Rule::GeomConv);
}

#[test]
fn geom_rejects_gemm_step_disagreeing_with_its_layer() {
    let layers = vec![QuantLayerDesc {
        name: "fc.weight".into(),
        rows: 10,
        cols: 4,
        kind: QuantLayerKind::Dense,
    }];
    // fc.weight reduces over 4 inputs; the step feeds it 6.
    let plan = RawPlan {
        input_dims: vec![6],
        output_dims: vec![10],
        steps: vec![step(StepOp::Gemm { layer: 0 }, &[0], &[0], 1, 1, &[10])],
        buffer_sizes: vec![6, 10],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&plan.verify(Some(&layers)), Rule::GeomGemm);
}

#[test]
fn geom_fused_rejects_fused_gemm_with_wrong_element_count() {
    let layers = vec![QuantLayerDesc {
        name: "fc.weight".into(),
        rows: 10,
        cols: 4,
        kind: QuantLayerKind::Dense,
    }];
    let mut epilogue = Epilogue::new();
    assert!(epilogue.push(PostOp::Activation(ActKind::Relu)));
    // A fused GEMM reads its source flat, but the element count must still
    // equal the layer's reduction width: [2, 3] has 6 elements, not 4.
    let plan = RawPlan {
        input_dims: vec![2, 3],
        output_dims: vec![10],
        steps: vec![step(
            StepOp::FusedGemm { layer: 0, epilogue },
            &[0],
            &[0],
            1,
            1,
            &[10],
        )],
        buffer_sizes: vec![6, 10],
        input_buffer: 0,
        output_buffer: 1,
    };
    let report = plan.verify(Some(&layers));
    assert_fires(&report, Rule::GeomFused);
    assert_eq!(Rule::GeomFused.id(), "geom-fused");
    // The same layer fed a flat-compatible shape (any dims with exactly
    // `cols` elements) is legal — that relaxation is what lets the
    // optimizer fold a Flatten into the fused step.
    let ok = RawPlan {
        input_dims: vec![2, 2],
        buffer_sizes: vec![4, 10],
        ..plan
    };
    let report = ok.verify(Some(&layers));
    assert!(report.is_clean(), "{report}");
}

#[test]
fn geom_fused_rejects_fused_conv_disagreeing_with_its_layer() {
    let geom = ConvGeometry::new(3, 4, 3, 1, 1);
    let layers = vec![QuantLayerDesc {
        name: "stem.weight".into(),
        rows: geom.out_channels,
        cols: geom.gemm_k(),
        kind: QuantLayerKind::Conv(geom),
    }];
    let mut epilogue = Epilogue::new();
    assert!(epilogue.push(PostOp::Requantize));
    // Same geometry lie as the unfused conv case: the epilogue is
    // elementwise, so the fused step owes the layer's exact output shape.
    let plan = RawPlan {
        input_dims: vec![3, 8, 8],
        output_dims: vec![4, 4, 4],
        steps: vec![step(
            StepOp::FusedConv { layer: 0, epilogue },
            &[0],
            &[0],
            1,
            1,
            &[4, 4, 4],
        )],
        buffer_sizes: vec![192, 64],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&plan.verify(Some(&layers)), Rule::GeomFused);
}

#[test]
fn reachability_rejects_dead_steps() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![
            // Computes value 1, which nothing consumes.
            requantize(0, 0, 1, 1, &[4]),
            requantize(0, 0, 2, 2, &[4]),
        ],
        buffer_sizes: vec![4, 4, 4],
        input_buffer: 0,
        output_buffer: 2,
    };
    let report = plan.verify(None);
    assert_fires(&report, Rule::DeadStep);
    let diag = report
        .diagnostics()
        .iter()
        .find(|d| d.rule == Rule::DeadStep)
        .expect("dead-step diagnostic");
    assert_eq!((diag.step, diag.value), (Some(0), Some(1)), "{report}");
}

#[test]
fn reachability_rejects_values_cut_off_from_the_input() {
    let plan = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![
            // Values 1 and 2 form a cycle fed by nothing.
            requantize(1, 2, 2, 1, &[4]),
            requantize(2, 1, 1, 2, &[4]),
            // The output itself is honestly connected.
            requantize(0, 0, 3, 3, &[4]),
        ],
        buffer_sizes: vec![4, 4, 4, 4],
        input_buffer: 0,
        output_buffer: 3,
    };
    assert_fires(&plan.verify(None), Rule::UnreachableValue);
}

#[test]
fn reachability_rejects_disconnected_io() {
    // No step ever writes the output buffer.
    let unwritten = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![],
        buffer_sizes: vec![4, 0],
        input_buffer: 0,
        output_buffer: 1,
    };
    assert_fires(&unwritten.verify(None), Rule::IoConnected);
    // The output buffer is written, but its final value chains back to a
    // self-contained cycle, not to the input edge.
    let cut = RawPlan {
        input_dims: vec![4],
        output_dims: vec![4],
        steps: vec![requantize(1, 2, 2, 1, &[4]), requantize(2, 1, 1, 2, &[4])],
        buffer_sizes: vec![4, 4, 4],
        input_buffer: 0,
        output_buffer: 2,
    };
    assert_fires(&cut.verify(None), Rule::IoConnected);
}

// ---------------------------------------------------------------------------
// Positive: compiler output always verifies clean
// ---------------------------------------------------------------------------

fn assert_clean(compiled: &CompiledModel) {
    let plan = compiled.plan().expect("carries a plan");
    let report = verify::verify(plan, &compiled.layer_descs());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn mini_model_zoo_verifies_clean_including_artifact_round_trip() {
    let mut rng = TensorRng::seed_from(23);
    let mut resnet = ResNet::new(ResNetConfig::mini(10).with_act_bits(4), &mut rng);
    let compiled =
        QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z045).with_input_size(16))
            .quantize(&mut resnet)
            .expect("quantize resnet-mini");
    assert_clean(&compiled);
    // import_compiled re-verifies; a clean plan must survive the round trip.
    let back = import_compiled(&export_compiled(&compiled).expect("export")).expect("import");
    assert_clean(&back);

    let mut yolo = YoloDetector::new(YoloConfig::mini(3), &mut rng);
    let compiled = QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z020))
        .with_input_shape(&[3, 32, 32])
        .quantize(&mut yolo)
        .expect("quantize yolo-mini");
    assert_clean(&compiled);

    let mut mobilenet = MobileNetV2::new(MobileNetConfig::mini(10), &mut rng);
    let compiled = QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z020))
        .with_input_shape(&[3, 16, 16])
        .quantize(&mut mobilenet)
        .expect("quantize mobilenet-mini");
    assert_clean(&compiled);
}

// ---------------------------------------------------------------------------
// Boundaries: server load and plan construction
// ---------------------------------------------------------------------------

#[test]
fn server_refuses_models_that_fail_verification() {
    let mut rng = TensorRng::seed_from(29);
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc", 8, 4, false, &mut rng));
    let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
        .quantize(&mut model)
        .expect("quantize");
    let plan = compiled.plan().expect("plan").clone();
    // Rewrite the GEMM's claimed output to [5]: `from_parts` takes GEMM
    // outputs at face value, but fc.weight produces [4] — only the
    // verifier's geometry pass catches the disagreement.
    let mut steps = plan.steps().to_vec();
    let mut dims_end: Vec<Vec<usize>> = vec![plan.input_dims().to_vec(); plan.buffer_count()];
    let mut sizes = vec![0usize; plan.buffer_count()];
    sizes[plan.input_buffer()] = plan.input_dims().iter().product();
    for s in &mut steps {
        if let StepOp::Gemm { .. } = s.op {
            s.dims = vec![5];
        } else {
            // Keep weight-free steps flow-consistent downstream of the lie.
            s.dims = dims_end[s.srcs[0]].clone();
        }
        sizes[s.dst] = sizes[s.dst].max(s.dims.iter().product());
        dims_end[s.dst] = s.dims.clone();
    }
    let output_dims = dims_end[plan.output_buffer()].clone();
    let broken = ExecutionPlan::from_parts(
        plan.input_dims().to_vec(),
        output_dims,
        steps,
        sizes,
        plan.input_buffer(),
        plan.output_buffer(),
        None,
    )
    .expect("structurally fine, geometrically wrong");
    let model = compiled.into_model();
    let mispaired = CompiledModel::from_parts(model, Some(broken));

    let server = ModelServer::with_defaults();
    let err = server.load("bad", mispaired).expect_err("must refuse");
    match err {
        ServeError::Verification { report } => {
            assert!(report.contains("geom-gemm"), "{report}")
        }
        other => panic!("expected Verification, got {other:?}"),
    }
    assert!(server.models().is_empty());
    server.shutdown();
}

/// SSA provenance (`value`/`src_values`) drift is exactly the kind a buggy
/// optimizer pass could introduce. `from_parts` runs the verifier, so such
/// a plan cannot be built at all: no engine ever sees it.
#[test]
fn from_parts_refuses_unverifiable_plans() {
    let mut rng = TensorRng::seed_from(31);
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc", 8, 4, false, &mut rng));
    let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
        .quantize(&mut model)
        .expect("quantize");
    let plan = compiled.plan().expect("plan");
    let mut steps = plan.steps().to_vec();
    steps[0].src_values = vec![99]; // nothing defines value 99
    let report = ExecutionPlan::from_parts(
        plan.input_dims().to_vec(),
        plan.output_dims().to_vec(),
        steps,
        plan.buffer_sizes().to_vec(),
        plan.input_buffer(),
        plan.output_buffer(),
        None,
    )
    .expect_err("from_parts verifies SSA provenance");
    assert!(report.fired(Rule::SsaDefBeforeUse), "{report}");
}

// ---------------------------------------------------------------------------
// Proptest: randomly-lowered plans always verify clean
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random residual-topology ResNets: compile → verify clean.
    #[test]
    fn random_resnet_plans_verify_clean(
        base_width in 2usize..6,
        stages in proptest::collection::vec(1usize..3, 1..4),
        act_flag in 0usize..2,
        edge_pow in 3usize..5,
    ) {
        let mut rng = TensorRng::seed_from(37);
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
        let plan = ExecutionPlan::compile(&graph, &descs, &[3, edge, edge]).expect("compile");
        let report = verify::verify(&plan, &descs);
        prop_assert!(report.is_clean(), "{report}");
    }

    /// Random dense MLP pipelines: compile → verify clean.
    #[test]
    fn random_mlp_plans_verify_clean(
        widths in proptest::collection::vec(2usize..24, 2..6),
    ) {
        let mut rng = TensorRng::seed_from(41);
        let mut model = Sequential::new();
        for (i, pair) in widths.windows(2).enumerate() {
            model.push(Linear::with_name(&format!("fc{i}"), pair[0], pair[1], true, &mut rng));
            model.push(Relu::new());
        }
        let graph = QuantizableModel::lower(&model).expect("mlp lowers");
        let descs = model.quantizable_layers();
        let plan = ExecutionPlan::compile(&graph, &descs, &[widths[0]]).expect("compile");
        let report = verify::verify(&plan, &descs);
        prop_assert!(report.is_clean(), "{report}");
    }

    /// Random YOLO input resolutions: compile → verify clean.
    #[test]
    fn random_yolo_plans_verify_clean(
        edge_pow in 4usize..6,
        classes in 1usize..5,
    ) {
        let mut rng = TensorRng::seed_from(43);
        let model = YoloDetector::new(YoloConfig::mini(classes), &mut rng);
        let graph = model.lower().expect("yolo lowers");
        let descs = model.quantizable_layers();
        let edge = 1usize << edge_pow;
        let plan = ExecutionPlan::compile(&graph, &descs, &[3, edge, edge]).expect("compile");
        let report = verify::verify(&plan, &descs);
        prop_assert!(report.is_clean(), "{report}");
    }
}
