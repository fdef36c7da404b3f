//! Integration tests for batched execution through the plan engine: a
//! `run_plan_batch` call must be **bit-identical** to the single-image
//! path — on one-layer plans against the interpreted kernels
//! (`QuantizedConv::forward_image` / `QuantizedMatrix::matvec`), and on the
//! pipeline model against the same images run one at a time — and the
//! batched hardware summary must sit next to the measured path coherently.
//!
//! CI runs this suite under default dispatch and with
//! `MIXMATCH_FORCE_SCALAR=1`, like `kernel_parity`.

mod common;

use common::{conv_of, one_conv, one_dense};
use mixmatch::nn::models::{ResNet, ResNetConfig};
use mixmatch::prelude::*;
use mixmatch::quant::codes::OpCounts;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::graph::StepOp;
use mixmatch::quant::integer::ActQuantizer;
use mixmatch::tensor::im2col::{im2col, ConvGeometry};
use proptest::prelude::*;

fn quantized_resnet(input_hw: usize) -> CompiledModel {
    let mut rng = TensorRng::seed_from(5);
    let mut model = ResNet::new(ResNetConfig::mini(10).with_act_bits(4), &mut rng);
    QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z045).with_input_size(input_hw))
        .quantize(&mut model)
        .expect("quantize resnet-mini")
}

/// The acceptance property on the pipeline model: each image's logits from
/// a batched run equal the same image run alone, bit for bit, with the op
/// census summed, at several thread counts. Per-step parity of this model
/// against the interpreter is `compiled_graph`'s
/// `run_plan_batch_matches_hand_chained_reference_on_pipeline_resnet`.
#[test]
fn engine_batch_is_bit_identical_to_single_image_path_on_pipeline_model() {
    let quantized = quantized_resnet(8);
    let plan = quantized.require_plan().expect("plan");
    assert!(
        plan.steps()
            .iter()
            .any(|s| matches!(s.op, StepOp::Conv { .. } | StepOp::FusedConv { .. })),
        "resnet must exercise the conv path"
    );
    assert!(
        plan.steps()
            .iter()
            .any(|s| matches!(s.op, StepOp::Gemm { .. } | StepOp::FusedGemm { .. })),
        "resnet must exercise the dense path"
    );
    let mut rng = TensorRng::seed_from(6);
    let images: Vec<Tensor> = (0..4)
        .map(|_| Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng))
        .collect();
    let host = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    for threads in [1, 2, host] {
        let engine = BatchEngine::with_threads(threads);
        let run = engine.run_plan_batch(&quantized, &images).expect("batched");
        assert_eq!(run.outputs.len(), images.len());
        let mut ops = OpCounts::default();
        for (image, output) in images.iter().zip(&run.outputs) {
            let single = engine
                .run_plan_batch(&quantized, std::slice::from_ref(image))
                .expect("single image");
            ops = ops.merge(single.ops);
            assert_eq!(
                output.as_slice(),
                single.outputs[0].as_slice(),
                "threads {threads}"
            );
        }
        assert_eq!(run.ops, ops, "threads {threads}");
    }
}

/// The batched cycle-simulator prediction rides along with the engine:
/// larger batches amortise weight traffic, so simulated images/sec must
/// grow with the batch while batch 1 matches the unbatched report.
#[test]
fn batched_hardware_summary_accompanies_the_engine() {
    let quantized = quantized_resnet(8);
    let one = quantized.summarize_batched(1).expect("batch 1 summary");
    let report = quantized.report();
    assert_eq!(Some(one.clone()), report.hardware);
    let thirty_two = quantized.summarize_batched(32).expect("batch 32 summary");
    let ips_1 = 1_000.0 / one.latency_ms;
    let ips_32 = 32.0 * 1_000.0 / thirty_two.latency_ms;
    assert!(
        ips_32 > ips_1,
        "batched sim throughput {ips_32} !> single {ips_1}"
    );
    assert!(thirty_two.gops >= one.gops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A one-conv plan's output `i` is bit-identical to `forward_image` on
    /// image `i` for random **dense** convolutions, and its op census is
    /// the interpreter's summed over the batch.
    #[test]
    fn dense_conv_forward_batch_bit_identical(
        seed in 0u64..200,
        cin in 1usize..4,
        cout in 1usize..5,
        kernel in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..3,
        hw in 5usize..8,
        threads in 1usize..4,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let geom = ConvGeometry::new(cin, cout, kernel, stride, pad);
        let act = ActQuantizer::new(4, 1.1);
        let compiled = one_conv(geom, MsqPolicy::msq_optimal(), act, hw, &mut rng);
        let conv = conv_of(&compiled);
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[cin, hw, hw], -0.2, 1.3, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(threads);
        let run = engine.run_plan_batch(&compiled, &images).expect("batch");
        let mut ops = OpCounts::default();
        for (img, out) in images.iter().zip(&run.outputs) {
            let single = conv.forward_image(img);
            prop_assert_eq!(out.as_slice(), single.as_slice());
            let cols = im2col(img, &geom, 0);
            let xq = act.quantize(cols.as_slice());
            ops = ops.merge(conv.matrix().matmul(&xq, cols.dims()[1], &act).1);
        }
        prop_assert_eq!(run.ops, ops);
    }

    /// Same property for random **depthwise** convolutions.
    #[test]
    fn depthwise_conv_forward_batch_bit_identical(
        seed in 0u64..200,
        channels in 1usize..6,
        stride in 1usize..3,
        hw in 5usize..8,
        threads in 1usize..4,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let geom = ConvGeometry::depthwise(channels, 3, stride, 1);
        let compiled = one_conv(
            geom, MsqPolicy::msq_half(), ActQuantizer::new(4, 1.0), hw, &mut rng);
        let conv = conv_of(&compiled);
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[channels, hw, hw], 0.0, 1.0, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(threads);
        let run = engine.run_plan_batch(&compiled, &images).expect("batch");
        for (img, out) in images.iter().zip(&run.outputs) {
            let single = conv.forward_image(img);
            prop_assert_eq!(out.as_slice(), single.as_slice());
        }
    }

    /// Dense matrices: a one-GEMM plan vs `matvec`, including the op
    /// census.
    #[test]
    fn matrix_forward_batch_bit_identical(
        seed in 0u64..200,
        rows in 1usize..8,
        cols in 1usize..16,
        batch in 1usize..6,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let act = ActQuantizer::new(4, 1.0);
        let compiled = one_dense(rows, cols, MsqPolicy::msq_optimal(), act, &mut rng);
        let qm = compiled.layers()[0].matrix();
        let inputs: Vec<Tensor> = (0..batch)
            .map(|_| Tensor::rand_uniform(&[cols], 0.0, 1.0, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(2);
        let run = engine.run_plan_batch(&compiled, &inputs).expect("batch");
        let mut ops = OpCounts::default();
        for (x, out) in inputs.iter().zip(&run.outputs) {
            let (y, o) = qm.matvec(&act.quantize(x.as_slice()), &act);
            ops = ops.merge(o);
            prop_assert_eq!(out.as_slice(), &y[..]);
        }
        prop_assert_eq!(run.ops, ops);
    }
}
