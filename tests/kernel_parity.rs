//! Differential suite for the integer GEMM kernels: SIMD == scalar ==
//! interpreted reference, **bit-identically**, over adversarial shapes —
//! reduction lengths that are not lane-width multiples, 0/1-row matrices,
//! single-scheme and mixed rows, activation widths straddling both vector
//! kernels' limits, and NaN/Inf activations ahead of quantization.
//!
//! CI runs this suite twice: once with default dispatch (AVX2 where the
//! host has it) and once with `MIXMATCH_FORCE_SCALAR=1`, so the forced
//! scalar path is pinned against the same references. Independently of the
//! environment, the `with_tier` seam compares both tiers of the *same*
//! plan in-process.

mod common;

use common::{conv_of, one_conv, one_dense};
use mixmatch::nn::lower::ActKind;
use mixmatch::prelude::*;
use mixmatch::quant::codes::OpCounts;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::graph::{apply_epilogue, Epilogue, PostOp};
use mixmatch::quant::integer::{ActQuantizer, QuantizedMatrix};
use mixmatch::quant::msq::MsqPolicy;
use mixmatch::quant::rowwise::RowAssignment;
use mixmatch::quant::schemes::Scheme;
use mixmatch::tensor::im2col::ConvGeometry;
use mixmatch::tensor::simd::{detected_tier, SimdTier};
use mixmatch::tensor::Tensor;
use proptest::prelude::*;

fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
}

/// Transposes a `[cols, n]` activation matrix (the interpreter's layout)
/// into the `[n, cols]` patch-major tile the planned kernels read.
fn patch_major(xq: &[u32], cols: usize, n: usize) -> Vec<u32> {
    let mut tile = vec![0u32; cols * n];
    for k in 0..cols {
        for j in 0..n {
            tile[j * cols + k] = xq[k * n + j];
        }
    }
    tile
}

/// Activations with the full adversarial mix: zeros (SP2 add accounting),
/// NaN (must quantize to level 0), ±Inf (saturate to ceiling / floor), and
/// ordinary in-range values.
fn adversarial_activations(rng: &mut TensorRng, len: usize, clip: f32) -> Vec<f32> {
    (0..len)
        .map(|i| match i % 7 {
            0 => 0.0,
            1 => f32::NAN,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            _ => rng.uniform_in(-0.2, clip * 1.1),
        })
        .collect()
}

/// The post-op chains a fused step carries: none, `Relu`, and
/// `Relu → Requantize`.
fn epilogues() -> [Epilogue; 3] {
    let mut relu = Epilogue::new();
    relu.push(PostOp::Activation(ActKind::Relu));
    let mut relu_requantize = relu;
    relu_requantize.push(PostOp::Requantize);
    [Epilogue::new(), relu, relu_requantize]
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// One matrix through three executions of the same shapes: the interpreted
/// reference, the scalar-pinned plan, and the host-dispatched plan. All
/// three must agree bit-for-bit on outputs *and* op accounting, with and
/// without an epilogue in the write-back.
fn assert_three_way_parity(qm: &QuantizedMatrix, act: &ActQuantizer, n: usize, seed: u64) {
    let mut rng = TensorRng::seed_from(seed);
    let x = adversarial_activations(&mut rng, qm.cols() * n, act.clip);
    let xq = act.quantize(&x);
    let (y_ref, ops_ref) = qm.matmul(&xq, n, act);
    let plan = qm.try_plan().expect("plan");
    plan.check_act(act)
        .expect("bound holds for 4-bit numerators");
    let tile = patch_major(&xq, qm.cols(), n);
    for tier in [SimdTier::Scalar, detected_tier()] {
        let tiered = plan.clone().with_tier(tier);
        let mut out = vec![f32::NAN; qm.rows() * n];
        let ops = tiered.matmul_patches_into(&tile, n, act, &mut out, n, 0, None);
        assert_eq!(
            out,
            y_ref.as_slice(),
            "{tier:?} diverged from the interpreter (rows {}, cols {}, n {n}, act bits {})",
            qm.rows(),
            qm.cols(),
            act.bits
        );
        assert_eq!(ops, ops_ref, "{tier:?} op accounting diverged");
        for epilogue in epilogues() {
            let mut expect = y_ref.as_slice().to_vec();
            apply_epilogue(&epilogue, act, &mut expect);
            let mut out = vec![f32::NAN; qm.rows() * n];
            let ops = tiered.matmul_patches_into(&tile, n, act, &mut out, n, 0, Some(&epilogue));
            assert_eq!(bits(&out), bits(&expect), "{tier:?} {epilogue:?}");
            assert_eq!(ops, ops_ref, "{tier:?} {epilogue:?} op accounting");
        }
    }
}

#[test]
fn kernel_parity_across_schemes_shapes_and_activation_widths() {
    let mut rng = TensorRng::seed_from(100);
    // cols hit scalar-only (< 16), one-full-block, non-multiples of 16/32,
    // and a large reduction; n crosses the 4-column block boundary.
    for &(rows, cols, n) in &[
        (1usize, 7usize, 1usize),
        (3, 16, 4),
        (5, 17, 3),
        (4, 33, 5),
        (2, 64, 2),
        (6, 100, 9),
        (3, 577, 2),
    ] {
        let w = Tensor::randn(&[rows, cols], &mut rng);
        for policy in [
            MsqPolicy::single(Scheme::Fixed, 4),
            MsqPolicy::single(Scheme::Pow2, 4),
            MsqPolicy::single(Scheme::Sp2, 4),
            MsqPolicy::msq_half(),
            MsqPolicy::msq_optimal(),
        ] {
            let qm = QuantizedMatrix::from_float(&w, &policy);
            // Activation widths: 4 (classic), 8, 15 (the 16-lane madd
            // kernel's ceiling), 16 (forces the 8-lane i32 kernel).
            for bits in [4u32, 8, 15, 16] {
                let act = ActQuantizer::new(bits, 1.25);
                assert_three_way_parity(&qm, &act, n, 1000 + rows as u64 * 31 + bits as u64);
            }
        }
    }
}

#[test]
fn kernel_parity_on_shapes_that_fill_row_and_patch_blocks() {
    // Rows cross the 4-row block, n the 8- and 16-patch blocks, and K sits
    // on both sides of a multiple of 16.
    let mut rng = TensorRng::seed_from(107);
    for rows in [4usize, 5, 8, 33] {
        for cols in [31usize, 32, 33, 47, 48, 49] {
            let w = Tensor::randn(&[rows, cols], &mut rng);
            let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_optimal());
            for n in [8usize, 15, 16, 17, 33] {
                for bits in [4u32, 15] {
                    let act = ActQuantizer::new(bits, 1.25);
                    let seed = 3000 + (rows * 1000 + cols * 10 + n) as u64 + bits as u64;
                    assert_three_way_parity(&qm, &act, n, seed);
                }
            }
        }
    }
}

#[test]
fn kernel_parity_holds_for_zero_row_and_empty_matrices() {
    let mut rng = TensorRng::seed_from(101);
    let act = ActQuantizer::new(8, 1.0);
    // rows = 0: nothing to compute, nothing to crash on.
    let empty = QuantizedMatrix::from_float(&Tensor::zeros(&[0, 12]), &MsqPolicy::msq_half());
    assert_three_way_parity(&empty, &act, 3, 7);
    // rows = 1 with an explicit all-SP2 assignment.
    let w = Tensor::randn(&[1, 40], &mut rng);
    let one = QuantizedMatrix::from_float_with_assignment(
        &w,
        &RowAssignment::from_schemes(vec![Scheme::Sp2]),
        4,
    );
    assert_three_way_parity(&one, &act, 2, 8);
}

#[test]
fn kernel_parity_on_handpicked_mixed_row_assignments() {
    // Alternating schemes row-by-row: packed SP2/P2/fixed rows coexist in
    // one plan, each dispatching its own kernel.
    let mut rng = TensorRng::seed_from(102);
    let w = Tensor::randn(&[6, 50], &mut rng);
    let qm = QuantizedMatrix::from_float_with_assignment(
        &w,
        &RowAssignment::from_schemes(vec![
            Scheme::Sp2,
            Scheme::Fixed,
            Scheme::Pow2,
            Scheme::Sp2,
            Scheme::Fixed,
            Scheme::Pow2,
        ]),
        4,
    );
    for bits in [4u32, 15, 16] {
        let act = ActQuantizer::new(bits, 0.9);
        assert_three_way_parity(&qm, &act, 6, 200 + bits as u64);
    }
}

#[test]
fn engine_conv_parity_with_nan_inf_images_at_1_2_host_threads() {
    let mut rng = TensorRng::seed_from(103);
    for geom in [
        ConvGeometry::new(3, 8, 3, 1, 1),
        ConvGeometry::new(2, 5, 3, 2, 0),
        ConvGeometry::new(3, 4, 3, 2, 1),
        ConvGeometry::new(4, 6, 1, 1, 0),
        ConvGeometry::new(2, 5, 5, 1, 2),
        ConvGeometry::new(3, 4, 2, 3, 0),
        ConvGeometry::depthwise(4, 3, 1, 1),
    ] {
        // The engine's activation codes at 4, 8, 15 (the 16-lane madd
        // kernel's ceiling) and 16 bits (the 8-lane i32 kernel).
        for bits in [4u32, 8, 15, 16] {
            let act = ActQuantizer::new(bits, 1.2);
            let policy = if geom.groups == 1 {
                MsqPolicy::msq_optimal()
            } else {
                MsqPolicy::single(Scheme::Sp2, 4)
            };
            let compiled = one_conv(geom, policy, act, 7, &mut rng);
            let conv = conv_of(&compiled);
            let images: Vec<Tensor> = (0..6)
                .map(|_| {
                    let vals = adversarial_activations(&mut rng, geom.in_channels * 49, 1.2);
                    Tensor::from_vec(vals, &[geom.in_channels, 7, 7]).unwrap()
                })
                .collect();
            for threads in [1, 2, host_threads()] {
                let engine = BatchEngine::with_threads(threads);
                let run = engine.run_plan_batch(&compiled, &images).expect("batch");
                for (img, out) in images.iter().zip(&run.outputs) {
                    assert_eq!(
                        out.as_slice(),
                        conv.forward_image(img).as_slice(),
                        "threads {threads}, groups {}, act bits {bits}",
                        geom.groups
                    );
                }
            }
        }
    }
}

/// Satellite regression for the scratch-reuse staleness class: one worker
/// runs batch 32 → 1 → 8 (and mixed image sizes) on the same engine, so
/// every per-worker buffer is reused by a smaller workload right after a
/// larger one. Each output must equal a fresh-scratch single-image run.
#[test]
fn shrinking_batches_on_one_worker_leave_no_stale_scratch() {
    let mut rng = TensorRng::seed_from(104);
    let mut model = mixmatch::nn::models::ResNet::new(
        mixmatch::nn::models::ResNetConfig::mini(10).with_act_bits(4),
        &mut rng,
    );
    let compiled =
        QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z045).with_input_size(8))
            .quantize(&mut model)
            .expect("quantize resnet-mini");
    let pool: Vec<Tensor> = (0..32)
        .map(|_| Tensor::rand_uniform(compiled.plan().unwrap().input_dims(), 0.0, 1.2, &mut rng))
        .collect();
    let engine = BatchEngine::with_threads(1);
    // Fresh-scratch references, one image at a time on throwaway engines.
    let reference: Vec<Tensor> = pool
        .iter()
        .map(|img| {
            let fresh = BatchEngine::with_threads(1);
            fresh
                .run_plan_batch(&compiled, std::slice::from_ref(img))
                .expect("fresh run")
                .outputs
                .remove(0)
        })
        .collect();
    for batch in [&pool[..32], &pool[..1], &pool[..8]] {
        let run = engine.run_plan_batch(&compiled, batch).expect("batch");
        for (i, out) in run.outputs.iter().enumerate() {
            assert_eq!(
                out.as_slice(),
                reference[i].as_slice(),
                "image {i} of a {}-image batch diverged after buffer reuse",
                batch.len()
            );
        }
    }
    // Mixed spatial sizes through one-conv plans compiled per size: a 9×9
    // image's scratch is reused by a 5×5 one, then 7×7, on the same worker.
    let geom = ConvGeometry::new(3, 6, 3, 1, 1);
    let compiled = one_conv(
        geom,
        MsqPolicy::msq_half(),
        ActQuantizer::new(4, 1.2),
        9,
        &mut rng,
    );
    let conv = conv_of(&compiled);
    for hw in [9usize, 5, 7] {
        let plan = compiled.compile(&[3, hw, hw]).expect("compile at size");
        let img = Tensor::rand_uniform(&[3, hw, hw], 0.0, 1.2, &mut rng);
        let run = engine
            .run_plan(compiled.model(), &plan, std::slice::from_ref(&img))
            .expect("conv plan");
        assert_eq!(
            run.outputs[0].as_slice(),
            conv.forward_image(&img).as_slice(),
            "stale scratch after size change to {hw}×{hw}"
        );
    }
}

/// The packed deployment artifact plans to the same kernels: a matrix that
/// round-trips through `pack()` must produce bit-identical outputs from
/// its packed-bytes plan under both tiers.
#[test]
fn packed_artifact_plans_match_interpreter_under_both_tiers() {
    let mut rng = TensorRng::seed_from(105);
    let w = Tensor::randn(&[8, 45], &mut rng);
    let qm = QuantizedMatrix::from_float(&w, &MsqPolicy::msq_half());
    let packed = qm.pack();
    let act = ActQuantizer::new(8, 1.0);
    let x = adversarial_activations(&mut rng, 45 * 3, 1.0);
    let xq = act.quantize(&x);
    let (y_ref, ops_ref) = qm.matmul(&xq, 3, &act);
    let plan = packed.try_plan().expect("plan from packed bytes");
    assert_eq!(plan.packed_rows(), 8, "all 4-bit rows must stay packed");
    let tile = patch_major(&xq, 45, 3);
    for tier in [SimdTier::Scalar, detected_tier()] {
        let tiered = plan.clone().with_tier(tier);
        let mut out = vec![0.0f32; 8 * 3];
        let ops = tiered.matmul_patches_into(&tile, 3, &act, &mut out, 3, 0, None);
        assert_eq!(out, y_ref.as_slice(), "{tier:?}");
        assert_eq!(ops, ops_ref, "{tier:?} ops");
    }
}

/// Overflow satellite, end to end: a P2 codebook wide enough to wrap the
/// accumulator must fail with the typed error through the public engine
/// entry point — never wrap silently, never panic.
#[test]
fn engine_surfaces_typed_overflow_for_wide_pow2_codebooks() {
    use mixmatch::quant::error::QuantError;
    let mut rng = TensorRng::seed_from(106);
    let act = ActQuantizer::new(4, 1.0);
    let engine = BatchEngine::with_threads(1);
    let inputs = vec![Tensor::rand_uniform(&[16], 0.0, 1.0, &mut rng)];

    // The layer caches its failed compile, so a second `run_plan` on the
    // same model returns the same typed error.
    let compiled = one_dense(4, 16, MsqPolicy::single(Scheme::Pow2, 7), act, &mut rng);
    let plan = compiled.require_plan().expect("plan");
    let first = engine.run_plan(compiled.model(), plan, &inputs).err();
    match &first {
        Some(QuantError::Overflow(o)) => assert!(o.bound > o.limit),
        other => panic!("expected typed Overflow from run_plan, got {other:?}"),
    }
    let second = engine.run_plan(compiled.model(), plan, &inputs).err();
    assert_eq!(second, first, "the cached error repeats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn kernel_parity_on_random_shapes(
        rows in 1usize..40,
        cols in 1usize..90,
        n in 1usize..40,
        bits_idx in 0usize..4,
        ratio in 0.0f32..1.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let w = Tensor::randn(&[rows, cols], &mut rng);
        let policy = MsqPolicy::mixed(
            mixmatch::quant::rowwise::PartitionRatio::new(ratio), 4);
        let qm = QuantizedMatrix::from_float(&w, &policy);
        let act = ActQuantizer::new([4u32, 8, 15, 16][bits_idx], 1.1);
        let x = adversarial_activations(&mut rng, cols * n, act.clip);
        let xq = act.quantize(&x);
        let (y_ref, ops_ref) = qm.matmul(&xq, n, &act);
        let plan = qm.try_plan().expect("plan");
        let tile = patch_major(&xq, cols, n);
        // Depthwise primitive over the same matrix: one row at a time.
        let mut expect_ops = OpCounts::default();
        let mut expect = Vec::new();
        for r in 0..rows {
            let (y, o) = qm.matmul_row(r, &xq, n, &act);
            expect.extend(y);
            expect_ops = expect_ops.merge(o);
        }
        for tier in [SimdTier::Scalar, detected_tier()] {
            let tiered = plan.clone().with_tier(tier);
            let mut out = vec![f32::NAN; rows * n];
            let ops = tiered.matmul_patches_into(&tile, n, &act, &mut out, n, 0, None);
            prop_assert_eq!(&out[..], y_ref.as_slice(), "{:?}", tier);
            prop_assert_eq!(ops, ops_ref);
            let mut got = vec![f32::NAN; rows * n];
            let mut got_ops = OpCounts::default();
            for r in 0..rows {
                got_ops = got_ops.merge(tiered.row_matmul_patches_into(
                    r, &tile, n, &act, &mut got[r * n..(r + 1) * n], None));
            }
            prop_assert_eq!(&got, &expect, "{:?}", tier);
            prop_assert_eq!(got_ops, expect_ops, "{:?}", tier);
        }
    }
}
