//! The plan optimizer's contract, pass by pass:
//!
//! * **Parity**: every pass, applied individually to a raw compiled plan
//!   and cumulatively in pipeline order, preserves end-to-end logits
//!   bit-identically on ResNet / MLP / YOLO at 1 / 2 / host threads.
//! * **Soundness**: the plan is verify-clean after every pass — never
//!   just at the end — and `optimize` equals the cumulative pipeline.
//! * **Effect**: golden step-count and arena high-water assertions pin
//!   what each fixture actually gains, and the `QuantPipeline` knob
//!   (`with_plan_optimizer`) selects between raw and optimized plans.
//! * **Proptest**: random lowerings optimize verify-clean.

use mixmatch::nn::layers::{Linear, Relu};
use mixmatch::nn::models::{ResNet, ResNetConfig, YoloConfig, YoloDetector};
use mixmatch::nn::module::Sequential;
use mixmatch::prelude::*;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::graph::StepOp;
use mixmatch::quant::optimize::{self, OptPass, ALL_PASSES};
use mixmatch::quant::verify;
use mixmatch::tensor::{Tensor, TensorRng};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Fixtures: each returns a compiled model with the optimizer DISABLED, so
// its plan is the raw lowering the passes are pinned against.
// ---------------------------------------------------------------------------

fn raw_resnet() -> CompiledModel {
    let mut rng = TensorRng::seed_from(11);
    let mut model = ResNet::new(ResNetConfig::mini(10).with_act_bits(4), &mut rng);
    QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z045).with_input_size(16))
        .with_plan_optimizer(false)
        .quantize(&mut model)
        .expect("quantize resnet-mini")
}

fn raw_mlp() -> CompiledModel {
    let mut rng = TensorRng::seed_from(14);
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc1", 12, 20, true, &mut rng));
    model.push(Relu::new());
    model.push(Linear::with_name("fc2", 20, 4, false, &mut rng));
    QuantPipeline::from_policy(MsqPolicy::msq_half())
        .with_input_shape(&[12])
        .with_plan_optimizer(false)
        .quantize(&mut model)
        .expect("quantize mlp")
}

fn raw_yolo() -> CompiledModel {
    let mut rng = TensorRng::seed_from(13);
    let mut model = YoloDetector::new(YoloConfig::mini(3), &mut rng);
    QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z020))
        .with_input_shape(&[3, 32, 32])
        .with_plan_optimizer(false)
        .quantize(&mut model)
        .expect("quantize yolo-mini")
}

fn images(dims: &[usize], n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed_from(seed);
    (0..n)
        .map(|_| Tensor::rand_uniform(dims, 0.0, 1.0, &mut rng))
        .collect()
}

fn outputs(
    compiled: &CompiledModel,
    plan: &ExecutionPlan,
    imgs: &[Tensor],
    threads: usize,
) -> Vec<Tensor> {
    BatchEngine::with_threads(threads)
        .run_plan(compiled.model(), plan, imgs)
        .expect("run plan")
        .outputs
}

/// The core property: `plan` is verify-clean against `compiled`'s layers
/// and produces byte-for-byte the `expected` outputs at 1 / 2 / host
/// threads.
fn assert_clean_and_bit_identical(
    compiled: &CompiledModel,
    plan: &ExecutionPlan,
    imgs: &[Tensor],
    expected: &[Tensor],
    context: &str,
) {
    let report = verify::verify(plan, &compiled.layer_descs());
    assert!(report.is_clean(), "{context}: {report}");
    let host = BatchEngine::new().threads();
    for threads in [1, 2, host] {
        let got = outputs(compiled, plan, imgs, threads);
        assert_eq!(got.len(), expected.len(), "{context}");
        for (g, w) in got.iter().zip(expected) {
            assert_eq!(
                g.as_slice(),
                w.as_slice(),
                "{context}: logits drifted at {threads} threads"
            );
        }
    }
}

/// Runs the full per-pass discipline on one fixture: each pass alone,
/// then the cumulative pipeline (checking cleanliness at every stage),
/// then `optimize` against the cumulative result.
fn per_pass_parity(compiled: &CompiledModel, imgs: &[Tensor]) {
    let raw = compiled.plan().expect("raw plan");
    let expected = outputs(compiled, raw, imgs, 1);

    for pass in ALL_PASSES {
        let plan = optimize::run_pass(raw, pass);
        assert_clean_and_bit_identical(compiled, &plan, imgs, &expected, pass.name());
    }

    let mut plan = raw.clone();
    for pass in ALL_PASSES {
        plan = optimize::run_pass(&plan, pass);
        assert_clean_and_bit_identical(
            compiled,
            &plan,
            imgs,
            &expected,
            &format!("cumulative through {}", pass.name()),
        );
    }

    let full = optimize::optimize(raw);
    assert_eq!(
        full.steps(),
        plan.steps(),
        "optimize() must equal the cumulative pass pipeline"
    );
    assert!(
        full.steps().len() < raw.steps().len(),
        "optimizer was a no-op"
    );
    assert!(
        optimize::high_water_elems(&full) <= optimize::high_water_elems(raw),
        "repack grew the arena"
    );
}

#[test]
fn per_pass_parity_on_resnet() {
    let compiled = raw_resnet();
    per_pass_parity(&compiled, &images(&[3, 16, 16], 3, 112));
}

#[test]
fn per_pass_parity_on_mlp() {
    let compiled = raw_mlp();
    per_pass_parity(&compiled, &images(&[12], 6, 114));
}

#[test]
fn per_pass_parity_on_yolo() {
    let compiled = raw_yolo();
    per_pass_parity(&compiled, &images(&[3, 32, 32], 2, 116));
}

// ---------------------------------------------------------------------------
// The pipeline knob
// ---------------------------------------------------------------------------

/// The pipeline's default plan IS the optimized plan: same steps as
/// running `optimize` over the knob-off plan, fused kinds present, and
/// end-to-end logits bit-identical to the raw plan's.
#[test]
fn pipeline_knob_selects_optimized_plans_with_identical_logits() {
    let raw = raw_mlp();
    let mut rng = TensorRng::seed_from(14);
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc1", 12, 20, true, &mut rng));
    model.push(Relu::new());
    model.push(Linear::with_name("fc2", 20, 4, false, &mut rng));
    let opt = QuantPipeline::from_policy(MsqPolicy::msq_half())
        .with_input_shape(&[12])
        .quantize(&mut model)
        .expect("quantize mlp");

    let raw_plan = raw.plan().expect("raw plan");
    let opt_plan = opt.plan().expect("optimized plan");
    assert_eq!(opt_plan.steps(), optimize::optimize(raw_plan).steps());
    assert!(opt_plan
        .steps()
        .iter()
        .any(|s| matches!(s.op, StepOp::FusedGemm { .. })));

    let imgs = images(&[12], 4, 118);
    let engine = BatchEngine::with_threads(2);
    let a = engine.run_plan_batch(&raw, &imgs).expect("raw");
    let b = engine.run_plan_batch(&opt, &imgs).expect("optimized");
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        assert_eq!(x.as_slice(), y.as_slice());
    }
}

// ---------------------------------------------------------------------------
// Golden effect sizes
// ---------------------------------------------------------------------------

/// Pins what the optimizer actually buys on each fixture. These numbers
/// are load-bearing: a pass that silently stops firing shows up here as
/// a step-count regression, not a perf mystery later.
#[test]
fn golden_step_counts_and_high_water() {
    let cases: [(&str, CompiledModel); 3] = [
        ("resnet", raw_resnet()),
        ("mlp", raw_mlp()),
        ("yolo", raw_yolo()),
    ];
    for (name, compiled) in &cases {
        let raw = compiled.plan().expect("plan");
        let (opt, stats) = optimize::optimize_with_stats(raw);
        let summary: Vec<(&str, usize, usize)> = stats
            .iter()
            .map(|s| (s.pass, s.plan_steps, s.high_water_elems))
            .collect();
        match *name {
            // 3 steps (Gemm, Relu, Gemm) → 2 fused steps in 2 buffers.
            "mlp" => {
                assert_eq!(raw.steps().len(), 3, "{summary:?}");
                assert_eq!(opt.steps().len(), 2, "{summary:?}");
                assert_eq!(opt.buffer_sizes().len(), 2, "{summary:?}");
            }
            "resnet" => {
                assert_eq!(raw.steps().len(), 26, "{summary:?}");
                assert_eq!(opt.steps().len(), 20, "{summary:?}");
            }
            "yolo" => {
                assert_eq!(raw.steps().len(), 10, "{summary:?}");
                assert_eq!(opt.steps().len(), 7, "{summary:?}");
            }
            _ => unreachable!(),
        }
        assert!(
            optimize::high_water_elems(&opt) <= optimize::high_water_elems(raw),
            "{name}: {summary:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Proptest: random lowerings optimize verify-clean
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random dense MLPs: compile raw → every pass prefix verifies clean.
    #[test]
    fn random_mlp_lowerings_optimize_verify_clean(
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
        let mut plan = ExecutionPlan::compile(&graph, &descs, &[widths[0]]).expect("compile");
        for pass in ALL_PASSES {
            plan = optimize::run_pass(&plan, pass);
            let report = verify::verify(&plan, &descs);
            prop_assert!(report.is_clean(), "{}: {report}", pass.name());
        }
    }

    /// Random residual-topology ResNets: compile raw → optimize → clean,
    /// with strictly fewer steps (every lowering has fusable epilogues).
    #[test]
    fn random_resnet_lowerings_optimize_verify_clean(
        base_width in 2usize..6,
        stages in proptest::collection::vec(1usize..3, 1..4),
        act_flag in 0usize..2,
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
        let plan = ExecutionPlan::compile(&graph, &descs, &[3, 16, 16]).expect("compile");
        let opt = optimize::optimize(&plan);
        let report = verify::verify(&opt, &descs);
        prop_assert!(report.is_clean(), "{report}");
        prop_assert!(opt.steps().len() < plan.steps().len());
    }
}

/// `OptPass` names are stable identifiers (they key bench JSON series
/// and `--dump` output) and `ALL_PASSES` is the documented order.
#[test]
fn pass_names_are_stable_and_ordered() {
    let names: Vec<&str> = ALL_PASSES.iter().map(|p| p.name()).collect();
    assert_eq!(names, vec!["fuse-epilogues", "eliminate-copies"]);
    assert_eq!(OptPass::FuseEpilogues.name(), "fuse-epilogues");
}
